//! The Colibri gateway (paper §3.2, §4.6).
//!
//! All Colibri traffic of an AS's end hosts passes through the gateway,
//! which is the *only* stateful data-plane component: it maps the `ResId`
//! of incoming EER packets to the reservation state obtained during setup
//! (path, `ResInfo`, `EERInfo`, hop authenticators), performs
//! deterministic token-bucket monitoring, stamps the high-precision
//! timestamp, and computes the hop validation field for every on-path AS
//! (Eq. 6) — thereby certifying to the rest of the path that the mandatory
//! flow monitoring has been performed.
//!
//! The paper's implementation keys a DPDK `rte_hash` by `ResId`; here it
//! is a `HashMap` with the same access pattern. Performance behaviour is
//! preserved: per-packet cost grows with path length (one CMAC per on-path
//! AS) and with the table size through cache misses (Fig. 5).

use crate::router::{for_each_by_width, LaneKernel};
use crate::telemetry::GatewayTelemetry;
use colibri_base::{Bandwidth, Duration, HostAddr, Instant, ResId};
use colibri_crypto::{Cmac, Key};
use colibri_ctrl::OwnedEer;
use colibri_telemetry::Registry;
use colibri_monitor::TokenBucket;
use colibri_qdisc::{AdmitError, HtbConfig, Qdisc, QdiscStats, TrafficClass};
use colibri_wire::mac::eer_hvfs;
use colibri_wire::{EerInfo, HopField, PacketBuilder, PacketViewMut, ResInfo, HVF_LEN};
use std::collections::HashMap;

/// Why the gateway refused to send a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatewayError {
    /// No reservation with this ID is installed.
    UnknownReservation(ResId),
    /// All versions of the reservation have expired, or the live one has
    /// no unique timestamp left before its expiry.
    Expired(ResId),
    /// The flow exceeded its reserved bandwidth; the packet is dropped
    /// (backpressure to the sender's congestion control, §3.2).
    RateLimited(ResId),
    /// The claimed source host does not own this reservation.
    WrongHost,
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::UnknownReservation(r) => write!(f, "unknown reservation {r}"),
            GatewayError::Expired(r) => write!(f, "reservation {r} expired"),
            GatewayError::RateLimited(r) => write!(f, "reservation {r} rate-limited"),
            GatewayError::WrongHost => write!(f, "source host does not own the reservation"),
        }
    }
}

impl std::error::Error for GatewayError {}

/// One installed version: everything needed to stamp packets.
#[derive(Clone)]
struct InstalledVersion {
    res_info: ResInfo,
    /// The hop authenticators σᵢ, one per on-path AS, stored as *fully
    /// expanded* CMAC instances (AES round keys + subkeys K1/K2). The
    /// reservation is installed once and then stamps every packet of its
    /// lifetime, so the key expansion — a serial AES dependency chain the
    /// 4-wide interleaving cannot hide — is paid at install time instead
    /// of per packet × per hop. ~256 B per hop instead of 16 B; even at
    /// 2²⁰ installed reservations × 8 hops that is ~2 GiB on a middlebox
    /// appliance, and typical tables (Fig. 5's r ≤ 2¹⁶) stay in the MiBs.
    sigma_cmacs: Vec<Cmac>,
    bw: Bandwidth,
    exp: Instant,
    /// Last timestamp issued on this version (`u64::MAX` before the
    /// first), to guarantee uniqueness of `Ts` (the duplicate-suppression
    /// ID, §4.3). Tracked per version because `Ts` is relative to the
    /// version's `ExpT`: a renewal moves the expiry forward and restarts
    /// the countdown higher up. Distinct versions cannot collide within
    /// the replay window, since their expiries differ by far more than
    /// the window.
    last_ts: u64,
}

/// Expands a version's raw σ keys into ready-to-MAC CMAC instances at
/// install, with the serial AES key-expansion chains of up to eight hops
/// interleaved.
struct ExpandSigmas;

impl LaneKernel<Key> for ExpandSigmas {
    type Out = Cmac;

    fn run<const N: usize>(&self, keys: &[Key; N]) -> [Cmac; N] {
        Cmac::new_each(keys.each_ref().map(|k| &k.0))
    }
}

/// Stamps Eq. 6 for one packet's `(Ts, PktSize)` under a version's
/// pre-expanded σ instances, up to eight hops per AES batch.
struct StampHvfs {
    ts: u64,
    pkt_size: usize,
}

impl LaneKernel<Cmac> for StampHvfs {
    type Out = [u8; HVF_LEN];

    #[inline]
    fn run<const N: usize>(&self, sigma_cmacs: &[Cmac; N]) -> [[u8; HVF_LEN]; N] {
        eer_hvfs(sigma_cmacs.each_ref(), [(self.ts, self.pkt_size); N])
    }
}

/// One reservation's gateway state.
struct Entry {
    eer_info: EerInfo,
    hops: Vec<HopField>,
    versions: Vec<InstalledVersion>,
    monitor: TokenBucket,
}

/// A successfully stamped packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StampedPacket {
    /// The serialized Colibri packet, HVFs filled.
    pub bytes: Vec<u8>,
    /// The egress interface of the first AS (where the gateway hands the
    /// packet to the border router).
    pub first_egress: colibri_base::InterfaceId,
}

/// How the gateway polices per-reservation bandwidth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QosMode {
    /// The paper's flat per-reservation token bucket (§4.8). Default, and
    /// the differential foil the hierarchical path is proven against.
    #[default]
    Flat,
    /// The four-level hierarchy of `colibri-qdisc`: uplink → class →
    /// reservation → host, with scavenging and best-effort AQM. With
    /// [`HtbConfig::degenerate`] the verdicts are bit-identical to
    /// [`QosMode::Flat`] (the reservation nodes *are* the flat monitor).
    Hierarchical(HtbConfig),
}

/// Gateway configuration.
#[derive(Debug, Clone, Copy)]
pub struct GatewayConfig {
    /// Token-bucket burst allowance.
    pub burst: Duration,
    /// Bandwidth-policing mode (flat monitor or hierarchical qdisc).
    pub qos: QosMode,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self { burst: Duration::from_millis(50), qos: QosMode::Flat }
    }
}

/// The Colibri gateway of one AS.
pub struct Gateway {
    cfg: GatewayConfig,
    table: HashMap<ResId, Entry>,
    /// The hierarchical QoS tree, present iff `cfg.qos` is
    /// [`QosMode::Hierarchical`]. When present it replaces the per-entry
    /// flat monitor as the admission authority; the entry monitors are
    /// kept installed but not consulted, preserving the flat path as the
    /// differential foil.
    qdisc: Option<Qdisc>,
    telemetry: Option<GatewayTelemetry>,
    /// Counters for observability and the protection experiment.
    pub stats: GatewayStats,
}

/// Gateway counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Packets stamped and forwarded.
    pub forwarded: u64,
    /// Packets dropped by deterministic monitoring.
    pub rate_limited: u64,
    /// Packets dropped for other reasons.
    pub rejected: u64,
}

impl GatewayStats {
    /// Folds another stats snapshot into this one (shard aggregation).
    pub fn merge(&mut self, other: &GatewayStats) {
        self.forwarded += other.forwarded;
        self.rate_limited += other.rate_limited;
        self.rejected += other.rejected;
    }
}

impl Gateway {
    /// An empty gateway.
    pub fn new(cfg: GatewayConfig) -> Self {
        let qdisc = match cfg.qos {
            QosMode::Flat => None,
            // All buckets start full, so building the tree at the epoch is
            // equivalent to building it at first use.
            QosMode::Hierarchical(htb) => Some(Qdisc::new(htb, Instant::EPOCH)),
        };
        Self { cfg, table: HashMap::new(), qdisc, telemetry: None, stats: GatewayStats::default() }
    }

    /// Attaches telemetry (outcome counters plus the Volatile per-packet
    /// stamp-latency histogram), registered under `shard` in `registry`.
    /// Detached gateways — the default — pay one predictable branch per
    /// packet. A hierarchical gateway also registers the qdisc's per-node
    /// drop/shed/scavenge/sojourn metrics under the same shard.
    pub fn attach_telemetry(&mut self, registry: &Registry, shard: &str) {
        self.telemetry = Some(GatewayTelemetry::new(registry, shard));
        if let Some(q) = &mut self.qdisc {
            q.attach_telemetry(registry, shard);
        }
    }

    /// Installs (or refreshes) a reservation from the CServ's owned-EER
    /// state (Fig. 1b ➎). Call after every successful setup or renewal.
    ///
    /// Structurally invalid EERs — an empty path or one longer than the
    /// wire format can carry — are rejected outright (the reservation is
    /// removed if present), so the per-packet stamping path can rely on
    /// `1..=MAX_HOPS` hops and never fail on path shape. Every version
    /// that stays live keeps its last issued `Ts`, so a re-install never
    /// repeats a timestamp.
    pub fn install(&mut self, eer: &OwnedEer, now: Instant) {
        if eer.hop_fields.is_empty() || eer.hop_fields.len() > colibri_wire::MAX_HOPS {
            self.table.remove(&eer.key.res_id);
            if let Some(q) = &mut self.qdisc {
                q.remove(eer.key.res_id);
            }
            return;
        }
        let installed = self.table.get(&eer.key.res_id).map_or(&[][..], |e| &e.versions);
        let versions: Vec<InstalledVersion> = eer
            .versions
            .iter()
            .filter(|v| v.exp > now)
            .map(|v| {
                let mut sigma_cmacs = Vec::with_capacity(v.hop_auths.len());
                for_each_by_width(&v.hop_auths, &ExpandSigmas, |_, c| sigma_cmacs.push(c));
                InstalledVersion {
                    res_info: ResInfo {
                        src_as: eer.key.src_as,
                        res_id: eer.key.res_id,
                        bw: colibri_base::BwClass::from_bandwidth_ceil(v.bw),
                        exp_t: v.exp,
                        ver: v.ver,
                    },
                    sigma_cmacs,
                    bw: v.bw,
                    exp: v.exp,
                    last_ts: installed
                        .iter()
                        .find(|old| old.res_info.ver == v.ver)
                        .map_or(u64::MAX, |old| old.last_ts),
                }
            })
            .collect();
        if versions.is_empty() {
            self.table.remove(&eer.key.res_id);
            if let Some(q) = &mut self.qdisc {
                q.remove(eer.key.res_id);
            }
            return;
        }
        // The monitored rate is the maximum over live versions: using
        // several versions cannot multiply bandwidth (§4.2/§4.8).
        let rate = versions.iter().map(|v| v.bw).max().unwrap();
        if let Some(q) = &mut self.qdisc {
            // Renewals reconfigure the node inside: tokens carry over.
            q.install(eer.key.res_id, TrafficClass::ColibriData, rate, now);
        }
        match self.table.get_mut(&eer.key.res_id) {
            Some(entry) => {
                entry.versions = versions;
                // A renewal carries the accumulated bucket tokens over —
                // settle elapsed time at the *old* rate, then clamp to the
                // new depth — so a mid-stream rate change never mints a
                // retroactive free burst (see `TokenBucket::reconfigure`).
                entry.monitor.reconfigure(rate, self.cfg.burst, now);
            }
            None => {
                self.table.insert(
                    eer.key.res_id,
                    Entry {
                        eer_info: eer.eer_info,
                        hops: eer.hop_fields.clone(),
                        versions,
                        monitor: TokenBucket::with_burst_duration(rate, self.cfg.burst, now),
                    },
                );
            }
        }
    }

    /// Attack harness: overrides the deterministic-monitoring rate of one
    /// reservation, modeling a *faulty or malicious source AS* that does
    /// not police its hosts (the threat of §7.1 attack 3 / Table 2
    /// phase 3). Packets remain fully authentic — their `Bw` field and
    /// HVFs are unchanged — so only downstream probabilistic monitoring
    /// can catch the overuse.
    ///
    /// Like a renewal, the rate change *carries the accumulated tokens
    /// over* (settled at the old rate as of `now`) rather than resetting
    /// burst state: even a malicious override cannot retroactively mint
    /// tokens for the interval before it happened.
    pub fn override_monitor_rate(&mut self, res_id: ResId, rate: Bandwidth, now: Instant) {
        if let Some(e) = self.table.get_mut(&res_id) {
            e.monitor.reconfigure(rate, self.cfg.burst, now);
            if let Some(q) = &mut self.qdisc {
                if q.rate_of(res_id).is_some() {
                    q.install(res_id, TrafficClass::ColibriData, rate, now);
                }
            }
        }
    }

    /// Removes a reservation.
    pub fn remove(&mut self, res_id: ResId) {
        self.table.remove(&res_id);
        if let Some(q) = &mut self.qdisc {
            q.remove(res_id);
        }
    }

    /// Number of installed reservations (the `r` parameter of Figs. 5–6).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// The qdisc's accumulated counters, if the gateway is hierarchical.
    pub fn qos_stats(&self) -> Option<QdiscStats> {
        self.qdisc.as_ref().map(|q| q.stats())
    }

    /// Mutable access to the hierarchy (drive `enqueue`/`service` rounds,
    /// e.g. from the simulator or `repro qos`), if configured.
    pub fn qdisc_mut(&mut self) -> Option<&mut Qdisc> {
        self.qdisc.as_mut()
    }

    /// Shared access to the hierarchy, if configured.
    pub fn qdisc(&self) -> Option<&Qdisc> {
        self.qdisc.as_ref()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Processes one packet from end host `src_host` over reservation
    /// `res_id` (Fig. 1c ➊–➋): monitor, stamp `Ts`, compute all HVFs, and
    /// serialize the wire packet into `buf` (cleared and reused; it only
    /// grows when its capacity is insufficient). Returns the first-hop
    /// egress interface. A driver that recycles packet buffers makes no
    /// heap allocation per packet after warm-up, matching the paper's
    /// preallocated-mbuf DPDK pipeline.
    ///
    /// Hop validation fields are computed eight hops at a time over the
    /// version's pre-expanded σ CMAC instances (Eq. 6 via [`eer_hvfs`]),
    /// so the per-hop AES blocks of up to eight on-path ASes are in flight
    /// concurrently and *no* AES key expansion runs per packet — the
    /// schedules were expanded at install time. Remainder hops run four
    /// wide when at least four remain, the rest one by one.
    pub fn process_into(
        &mut self,
        src_host: HostAddr,
        res_id: ResId,
        payload: &[u8],
        now: Instant,
        buf: &mut Vec<u8>,
    ) -> Result<colibri_base::InterfaceId, GatewayError> {
        // Wall clock feeds only the Volatile stamp-latency histogram,
        // sampled one packet in `CLOCK_SAMPLE`; it never influences
        // processing (determinism rules, DESIGN.md §11).
        let timed = self.telemetry.as_mut().is_some_and(GatewayTelemetry::time_packet);
        let wall_start = timed.then(std::time::Instant::now);
        let Some(entry) = self.table.get_mut(&res_id) else {
            let err = GatewayError::UnknownReservation(res_id);
            return Err(refuse(&mut self.stats, &self.telemetry, err));
        };
        if entry.eer_info.src_host != src_host {
            return Err(refuse(&mut self.stats, &self.telemetry, GatewayError::WrongHost));
        }
        // Use the latest live version (§4.2).
        let Some(version) = entry.versions.iter_mut().rev().find(|v| v.exp > now) else {
            return Err(refuse(&mut self.stats, &self.telemetry, GatewayError::Expired(res_id)));
        };
        let pkt_size = colibri_wire::header_len(entry.hops.len(), true) + payload.len();
        // High-precision timestamp: ns until expiry, strictly decreasing
        // per version so every packet is unique. Decided before policing,
        // so a packet refused here consumes no tokens.
        let mut ts = version.exp.as_nanos().saturating_sub(now.as_nanos());
        if ts >= version.last_ts {
            // Once `Ts = 0` is stamped the version has no timestamp left:
            // another packet would repeat a `(key, Ts)` pair, which the
            // routers' replay filter drops as a duplicate.
            let Some(next) = version.last_ts.checked_sub(1) else {
                let err = GatewayError::Expired(res_id);
                return Err(refuse(&mut self.stats, &self.telemetry, err));
            };
            ts = next;
        }
        // Deterministic monitoring (§4.8), sized by the full packet: the
        // hierarchical tree when configured (host → reservation → class →
        // uplink accounting), the flat per-entry bucket otherwise.
        let admitted = match &mut self.qdisc {
            Some(q) => match q.admit(res_id, src_host, pkt_size as u64, now) {
                Ok(()) => true,
                Err(AdmitError::UnknownReservation(_)) => {
                    // Tree and table are installed/removed together; an
                    // entry without a node means teardown raced ahead.
                    let err = GatewayError::UnknownReservation(res_id);
                    return Err(refuse(&mut self.stats, &self.telemetry, err));
                }
                Err(AdmitError::RateLimited(_) | AdmitError::HostCapped(..)) => false,
            },
            None => entry.monitor.try_consume(pkt_size as u64, now),
        };
        if !admitted {
            self.stats.rate_limited += 1;
            if let Some(t) = &self.telemetry {
                t.rate_limited.inc();
            }
            return Err(GatewayError::RateLimited(res_id));
        }
        version.last_ts = ts;

        PacketBuilder::eer(version.res_info, entry.eer_info)
            .path(entry.hops.iter().copied())
            .ts(ts)
            .build_into(payload, buf)
            .expect("installed path is valid");
        debug_assert_eq!(buf.len(), pkt_size);
        let mut view = PacketViewMut::parse(buf).expect("self-built packet");
        let mut hop = 0;
        for_each_by_width(&version.sigma_cmacs, &StampHvfs { ts, pkt_size }, |_, hvf| {
            view.set_hvf(hop, hvf);
            hop += 1;
        });
        self.stats.forwarded += 1;
        if let Some(t) = &self.telemetry {
            t.forwarded.inc();
            if let Some(start) = wall_start {
                t.stamp_ns.observe(start.elapsed().as_nanos() as u64);
            }
        }
        Ok(entry.hops[0].egress)
    }
}

/// Counts a packet refused for any reason but its rate and returns `err`.
fn refuse(
    stats: &mut GatewayStats,
    telemetry: &Option<GatewayTelemetry>,
    err: GatewayError,
) -> GatewayError {
    stats.rejected += 1;
    if let Some(t) = telemetry {
        t.rejected.inc();
    }
    err
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("reservations", &self.table.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colibri_base::{IsdAsId, ReservationKey};
    use colibri_ctrl::OwnedEerVersion;
    use colibri_wire::PacketView;

    const HOST: HostAddr = HostAddr(7);

    fn owned(res_id: u32, versions: Vec<(u8, Bandwidth, Instant)>) -> OwnedEer {
        OwnedEer {
            key: ReservationKey::new(IsdAsId::new(1, 10), ResId(res_id)),
            eer_info: EerInfo { src_host: HOST, dst_host: HostAddr(8) },
            path_ases: vec![IsdAsId::new(1, 10), IsdAsId::new(1, 1)],
            hop_fields: vec![HopField::new(0, 1), HopField::new(2, 0)],
            versions: versions
                .into_iter()
                .map(|(ver, bw, exp)| OwnedEerVersion {
                    ver,
                    bw,
                    exp,
                    hop_auths: vec![Key([ver; 16]), Key([ver + 100; 16])],
                })
                .collect(),
        }
    }

    fn gw() -> Gateway {
        Gateway::new(GatewayConfig { burst: Duration::from_secs(3600), ..Default::default() })
    }

    #[test]
    fn install_skips_expired_versions() {
        let mut g = gw();
        let now = Instant::from_secs(100);
        g.install(
            &owned(1, vec![(0, Bandwidth::from_mbps(5), Instant::from_secs(50))]),
            now,
        );
        assert!(g.is_empty(), "fully expired EER must not be installed");
        g.install(
            &owned(
                1,
                vec![
                    (0, Bandwidth::from_mbps(5), Instant::from_secs(50)),
                    (1, Bandwidth::from_mbps(5), Instant::from_secs(200)),
                ],
            ),
            now,
        );
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn reinstall_with_all_expired_removes_entry() {
        let mut g = gw();
        let t0 = Instant::from_secs(0);
        let o = owned(1, vec![(0, Bandwidth::from_mbps(5), Instant::from_secs(50))]);
        g.install(&o, t0);
        assert_eq!(g.len(), 1);
        g.install(&o, Instant::from_secs(60));
        assert!(g.is_empty());
    }

    #[test]
    fn invalid_path_shape_rejected_at_install() {
        let mut g = gw();
        let t0 = Instant::from_secs(0);
        let exp = Instant::from_secs(100);
        // Baseline: a valid install exists.
        g.install(&owned(1, vec![(0, Bandwidth::from_mbps(5), exp)]), t0);
        assert_eq!(g.len(), 1);
        // An empty path can never be stamped: the install is rejected and
        // the existing entry removed rather than left half-updated.
        let mut bad = owned(1, vec![(0, Bandwidth::from_mbps(5), exp)]);
        bad.hop_fields.clear();
        g.install(&bad, t0);
        assert!(g.is_empty());
        // A path longer than the wire format carries is equally rejected.
        let mut long = owned(2, vec![(0, Bandwidth::from_mbps(5), exp)]);
        long.hop_fields = vec![HopField::new(0, 1); colibri_wire::MAX_HOPS + 1];
        g.install(&long, t0);
        assert!(g.is_empty());
        assert_eq!(
            g.process_into(HOST, ResId(2), b"x", t0, &mut Vec::new()),
            Err(GatewayError::UnknownReservation(ResId(2)))
        );
    }

    #[test]
    fn renewals_carry_replay_state_over() {
        // Re-installing a live version (as every renewal does for the
        // versions it keeps) must not reset its last issued `Ts`: at one
        // fixed `now`, the next packet would otherwise repeat it.
        let mut g = gw();
        let now = Instant::from_secs(10);
        let o = owned(1, vec![(0, Bandwidth::from_mbps(5), Instant::from_secs(100))]);
        let mut buf = Vec::new();
        let mut prev = u64::MAX;
        for _ in 0..3 {
            g.install(&o, now);
            g.process_into(HOST, ResId(1), b"x", now, &mut buf).unwrap();
            let ts = PacketView::parse(&buf).unwrap().ts();
            assert!(ts < prev, "ts {ts} repeated across a re-install");
            prev = ts;
        }
    }

    #[test]
    fn latest_valid_version_used() {
        let mut g = gw();
        let t0 = Instant::from_secs(0);
        g.install(
            &owned(
                1,
                vec![
                    (0, Bandwidth::from_mbps(5), Instant::from_secs(16)),
                    (1, Bandwidth::from_mbps(9), Instant::from_secs(32)),
                ],
            ),
            t0,
        );
        let mut buf = Vec::new();
        g.process_into(HOST, ResId(1), b"x", t0, &mut buf).unwrap();
        assert_eq!(PacketView::parse(&buf).unwrap().res_info().ver, 1);
        // After version 1 expires, nothing remains (version 0 is older).
        let late = Instant::from_secs(40);
        assert_eq!(
            g.process_into(HOST, ResId(1), b"x", late, &mut buf),
            Err(GatewayError::Expired(ResId(1)))
        );
    }

    #[test]
    fn ts_unique_and_decreasing_within_version() {
        let mut g = gw();
        let t0 = Instant::from_secs(0);
        g.install(&owned(1, vec![(0, Bandwidth::from_mbps(5), Instant::from_secs(16))]), t0);
        let mut buf = Vec::new();
        let mut prev = u64::MAX;
        for _ in 0..50 {
            // Same `now` for every packet: Ts must still be unique.
            g.process_into(HOST, ResId(1), b"", t0, &mut buf).unwrap();
            let ts = PacketView::parse(&buf).unwrap().ts();
            assert!(ts < prev, "ts {ts} not strictly decreasing");
            prev = ts;
        }
    }

    #[test]
    fn exhausted_timestamps_refused_before_policing() {
        // A 1,500-byte bucket with no refill within one instant holds three
        // 400-byte-payload packets. In the version's last nanosecond only
        // two unique timestamps remain (1 and 0): further packets are
        // refused as expired without touching the bucket, so the renewed
        // version can still send the third packet's worth.
        let mut g =
            Gateway::new(GatewayConfig { burst: Duration::from_millis(1), ..Default::default() });
        let bw = Bandwidth::from_kbps(8);
        let exp = Instant::from_secs(16);
        let t = Instant::from_nanos(exp.as_nanos() - 1);
        g.install(&owned(1, vec![(0, bw, exp)]), Instant::from_secs(0));
        let payload = [0u8; 400];
        let mut buf = Vec::new();
        for _ in 0..2 {
            g.process_into(HOST, ResId(1), &payload, t, &mut buf).unwrap();
        }
        for _ in 0..5 {
            assert_eq!(
                g.process_into(HOST, ResId(1), &payload, t, &mut buf),
                Err(GatewayError::Expired(ResId(1)))
            );
        }
        assert_eq!((g.stats.rejected, g.stats.rate_limited), (5, 0));
        g.install(&owned(1, vec![(0, bw, exp), (1, bw, Instant::from_secs(32))]), t);
        g.process_into(HOST, ResId(1), &payload, t, &mut buf).unwrap();
        assert_eq!(PacketView::parse(&buf).unwrap().res_info().ver, 1);
        assert_eq!(
            g.process_into(HOST, ResId(1), &payload, t, &mut buf),
            Err(GatewayError::RateLimited(ResId(1)))
        );
    }

    #[test]
    fn monitor_counts_header_bytes() {
        // Reservation of 8 kbps with a 1500-byte burst: a single
        // zero-payload packet (64-byte header) passes, but its header
        // bytes are charged — after ~23 packets the bucket is empty even
        // though no payload was ever sent (defense against header-only
        // flooding, §4.8).
        let mut g = Gateway::new(GatewayConfig { burst: Duration::from_millis(1), ..Default::default() });
        let t0 = Instant::from_secs(0);
        let mut o = owned(1, vec![(0, Bandwidth::from_kbps(8), Instant::from_secs(16))]);
        o.versions[0].bw = Bandwidth::from_kbps(8);
        g.install(&o, t0);
        let mut buf = Vec::new();
        let sent = (0..100).filter(|_| g.process_into(HOST, ResId(1), b"", t0, &mut buf).is_ok());
        let sent = sent.count();
        assert!(sent < 30, "header bytes not charged: {sent} empty packets passed");
        assert!(g.stats.rate_limited > 0);
    }

    #[test]
    fn first_egress_reported() {
        let mut g = gw();
        let t0 = Instant::from_secs(0);
        g.install(&owned(1, vec![(0, Bandwidth::from_mbps(5), Instant::from_secs(16))]), t0);
        let egress = g.process_into(HOST, ResId(1), b"x", t0, &mut Vec::new());
        assert_eq!(egress, Ok(colibri_base::InterfaceId(1)));
    }

    #[test]
    fn stats_track_outcomes() {
        let mut g = gw();
        let t0 = Instant::from_secs(0);
        g.install(&owned(1, vec![(0, Bandwidth::from_mbps(5), Instant::from_secs(16))]), t0);
        let mut buf = Vec::new();
        g.process_into(HOST, ResId(1), b"x", t0, &mut buf).unwrap();
        let _ = g.process_into(HostAddr(99), ResId(1), b"x", t0, &mut buf);
        let _ = g.process_into(HOST, ResId(2), b"x", t0, &mut buf);
        assert_eq!(g.stats.forwarded, 1);
        assert_eq!(g.stats.rejected, 2);
    }
}

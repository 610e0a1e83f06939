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
//! The paper's implementation keys a DPDK `rte_hash` by `ResId`; here a
//! flat open-addressed table under a fixed multiplicative `ResId` hash
//! ([`ResIdHashing`]) holds one slot per reservation with the hot header —
//! `EERInfo`, token bucket, first egress, hop count — and a pointer to one
//! body allocation
//! with the hop fields and, per live version, its head and 32 B of compact
//! σ state per hop (σ and its CMAC subkey K2). A packet reads one slot and
//! one contiguous body, and expands each hop's σ in the same `N`-wide AES
//! pass that MACs it: one key expansion and one AES block per on-path AS,
//! whatever the number of reservations (Fig. 5).

use crate::router::{for_each_by_width, LaneKernel};
use crate::telemetry::GatewayTelemetry;
use colibri_base::{
    Bandwidth, BwClass, Duration, HostAddr, Instant, InterfaceId, IsdAsId, ResId, ResIdHashing,
};
use colibri_crypto::{Cmac, CompactKey, Key};
use colibri_ctrl::{OwnedEer, OwnedEerVersion};
use colibri_monitor::TokenBucket;
use colibri_qdisc::{AdmitError, HtbConfig, Qdisc, QdiscStats, TrafficClass};
use colibri_telemetry::Registry;
use colibri_wire::mac::eer_hvfs;
use colibri_wire::{encode_packet_into, hvf_offset, EerInfo, HopField, ResInfo, HVF_LEN, MAX_HOPS};
use std::hash::BuildHasher;

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

/// One 32-byte unit of a reservation's body: one hop's compact σ
/// ([`CompactKey`]), one version's [`Head`], or eight hop fields.
type Cell = CompactKey;

/// Hop fields per cell.
const HOPS_PER_CELL: usize = 32 / 4;

/// One installed version's head: what its packets carry besides the
/// reservation's fixed fields, and its replay state. (The exact rate is
/// read only at install, from the owned EER.)
#[derive(Clone, Copy)]
struct Head {
    ver: u8,
    bw_class: BwClass,
    /// `ExpT`, which `Ts` counts down to.
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

impl Head {
    fn encode(&self) -> Cell {
        let mut cell = Cell::default();
        let b = cell.as_flattened_mut();
        b[0] = self.ver;
        b[1] = self.bw_class.0;
        b[8..16].copy_from_slice(&self.exp.as_nanos().to_ne_bytes());
        b[16..24].copy_from_slice(&self.last_ts.to_ne_bytes());
        cell
    }

    fn decode(cell: &Cell) -> Head {
        let b = cell.as_flattened();
        let word = |at: usize| u64::from_ne_bytes(b[at..at + 8].try_into().expect("8 bytes"));
        Head {
            ver: b[0],
            bw_class: BwClass(b[1]),
            exp: Instant::from_nanos(word(8)),
            last_ts: word(16),
        }
    }
}

/// A reservation's state past its slot, in one allocation of 32-byte
/// cells read front to back: ⌈hops / 8⌉ cells of hop fields, then per
/// live version (oldest first) one [`Head`] cell and `hops` σ cells.
struct Body(Box<[Cell]>);

impl Body {
    fn hop_cells(hops: usize) -> usize {
        hops.div_ceil(HOPS_PER_CELL)
    }

    /// Lays out `hops` and `versions`, deriving each version's compact σ
    /// (K2 included) up to eight hops per AES batch.
    fn new(hops: &[HopField], versions: &[(Head, &OwnedEerVersion)]) -> Body {
        let mut cells = vec![Cell::default(); Self::hop_cells(hops.len())];
        let bytes = cells.as_flattened_mut().as_flattened_mut();
        for (b, hop) in bytes.chunks_exact_mut(4).zip(hops) {
            b[..2].copy_from_slice(&hop.ingress.0.to_ne_bytes());
            b[2..].copy_from_slice(&hop.egress.0.to_ne_bytes());
        }
        cells.reserve_exact(versions.len() * (1 + hops.len()));
        for (head, v) in versions {
            cells.push(head.encode());
            for_each_by_width(&v.hop_auths, &CompactSigmas, |_, sigma| cells.push(sigma));
        }
        Body(cells.into_boxed_slice())
    }

    /// The hop fields, decoded into the first `hops` entries.
    fn hops(&self, hops: usize) -> [HopField; MAX_HOPS] {
        let bytes = self.0[..Self::hop_cells(hops)].as_flattened().as_flattened();
        let mut out = [HopField::new(0, 0); MAX_HOPS];
        for (hop, b) in out.iter_mut().zip(bytes.chunks_exact(4)).take(hops) {
            let (ingress, egress) = ([b[0], b[1]], [b[2], b[3]]);
            *hop = HopField::new(u16::from_ne_bytes(ingress), u16::from_ne_bytes(egress));
        }
        out
    }

    /// Each version's head, oldest first.
    fn heads(&self, hops: usize) -> impl DoubleEndedIterator<Item = Head> + ExactSizeIterator + '_ {
        self.0[Self::hop_cells(hops)..].chunks_exact(1 + hops).map(|v| Head::decode(&v[0]))
    }

    /// Index of version `v`'s head cell; its σ cells follow.
    fn head_at(hops: usize, v: usize) -> usize {
        Self::hop_cells(hops) + v * (1 + hops)
    }

    fn set_head(&mut self, hops: usize, v: usize, head: &Head) {
        self.0[Self::head_at(hops, v)] = head.encode();
    }

    /// Version `v`'s compact σ keys, one per hop.
    fn sigmas(&self, hops: usize, v: usize) -> &[CompactKey] {
        let at = Self::head_at(hops, v) + 1;
        &self.0[at..at + hops]
    }
}

/// Derives a version's compact σ keys at install, with the key
/// expansions and subkey blocks of up to eight hops interleaved.
struct CompactSigmas;

impl LaneKernel<Key> for CompactSigmas {
    type Out = CompactKey;

    fn run<const N: usize>(&self, keys: &[Key; N]) -> [CompactKey; N] {
        Cmac::compact_each(keys.each_ref().map(|k| &k.0))
    }
}

/// Stamps Eq. 6 for one packet's `(Ts, PktSize)` under a version's
/// compact σ keys, up to eight hops per AES batch, each hop's key
/// expanded in the same pass.
struct StampHvfs {
    ts: u64,
    pkt_size: usize,
}

impl LaneKernel<CompactKey> for StampHvfs {
    type Out = [u8; HVF_LEN];

    #[inline]
    fn run<const N: usize>(&self, sigmas: &[CompactKey; N]) -> [[u8; HVF_LEN]; N] {
        eer_hvfs(sigmas.each_ref(), [(self.ts, self.pkt_size); N])
    }
}

/// One reservation's table slot: the hot header and its body.
struct Slot {
    res_id: ResId,
    src_as: IsdAsId,
    eer_info: EerInfo,
    monitor: TokenBucket,
    first_egress: InterfaceId,
    /// On-path ASes, `1..=MAX_HOPS`.
    hops: u8,
    body: Body,
}

/// The reservation table: one flat array of slots, open-addressed by
/// linear probing from the [`ResIdHashing`] hash of the `ResId` and kept
/// at most half full. A lookup reads the slot at the hashed index — for
/// the sequential ResIds of one CServ almost always the only probe — with
/// no separate control bytes to read first.
#[derive(Default)]
struct Table {
    slots: Box<[Option<Slot>]>,
    len: usize,
}

impl Table {
    fn home(&self, res_id: ResId) -> usize {
        ResIdHashing::default().hash_one(res_id) as usize & (self.slots.len() - 1)
    }

    /// The index holding `res_id`, if any.
    fn find(&self, res_id: ResId) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mut i = self.home(res_id);
        // At most half full, so a probe always ends at an empty slot.
        while let Some(slot) = &self.slots[i] {
            if slot.res_id == res_id {
                return Some(i);
            }
            i = (i + 1) & (self.slots.len() - 1);
        }
        None
    }

    fn get(&self, res_id: ResId) -> Option<&Slot> {
        self.find(res_id).and_then(|i| self.slots[i].as_ref())
    }

    fn get_mut(&mut self, res_id: ResId) -> Option<&mut Slot> {
        self.find(res_id).and_then(|i| self.slots[i].as_mut())
    }

    /// Inserts a slot for a `ResId` not yet in the table.
    fn insert(&mut self, slot: Slot) {
        if 2 * (self.len + 1) > self.slots.len() {
            let grown = (2 * self.slots.len()).max(8);
            let old = std::mem::replace(&mut self.slots, (0..grown).map(|_| None).collect());
            self.len = 0;
            old.into_vec().into_iter().flatten().for_each(|s| self.insert(s));
        }
        let mut i = self.home(slot.res_id);
        while self.slots[i].is_some() {
            i = (i + 1) & (self.slots.len() - 1);
        }
        self.slots[i] = Some(slot);
        self.len += 1;
    }

    /// Removes `res_id`'s slot, shifting later slots of its probe run
    /// back so that no lookup meets a hole before its slot.
    fn remove(&mut self, res_id: ResId) {
        let Some(mut hole) = self.find(res_id) else { return };
        self.slots[hole] = None;
        self.len -= 1;
        let mask = self.slots.len() - 1;
        let mut i = (hole + 1) & mask;
        while let Some(slot) = &self.slots[i] {
            // The slot may move back unless its home lies in (hole, i].
            if i.wrapping_sub(self.home(slot.res_id)) & mask >= i.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[i].take();
                hole = i;
            }
            i = (i + 1) & mask;
        }
    }
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
    table: Table,
    /// The hierarchical QoS tree, present iff `cfg.qos` is
    /// [`QosMode::Hierarchical`]. When present it replaces the per-slot
    /// flat monitor as the admission authority; the slot monitors are
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

impl Gateway {
    /// An empty gateway.
    pub fn new(cfg: GatewayConfig) -> Self {
        let qdisc = match cfg.qos {
            QosMode::Flat => None,
            // All buckets start full, so building the tree at the epoch is
            // equivalent to building it at first use.
            QosMode::Hierarchical(htb) => Some(Qdisc::new(htb, Instant::EPOCH)),
        };
        Self {
            cfg,
            table: Table::default(),
            qdisc,
            telemetry: None,
            stats: GatewayStats::default(),
        }
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
    /// Structurally invalid EERs — an empty path, one longer than the
    /// wire format can carry, or a live version without exactly one σ per
    /// hop — are rejected outright (the reservation is removed if
    /// present), so the per-packet stamping path can rely on
    /// `1..=MAX_HOPS` hops, each with its σ, and never fail on path shape. Every version
    /// that stays live keeps its last issued `Ts`, so a re-install never
    /// repeats a timestamp. Each hop's σ is kept compact: install costs
    /// one key expansion and one AES block (the subkey) per hop and
    /// version, and the schedule is not stored.
    pub fn install(&mut self, eer: &OwnedEer, now: Instant) {
        let (res_id, path) = (eer.key.res_id, &eer.hop_fields);
        let live: Vec<&OwnedEerVersion> = eer.versions.iter().filter(|v| v.exp > now).collect();
        let one_sigma_per_hop = live.iter().all(|v| v.hop_auths.len() == path.len());
        if path.is_empty() || path.len() > MAX_HOPS || live.is_empty() || !one_sigma_per_hop {
            self.remove(res_id);
            return;
        }
        let installed = self.table.get(res_id);
        let heads: Vec<(Head, &OwnedEerVersion)> = live
            .iter()
            .map(|v| {
                let last_ts = installed
                    .and_then(|s| s.body.heads(s.hops.into()).find(|old| old.ver == v.ver))
                    .map_or(u64::MAX, |old| old.last_ts);
                let bw_class = BwClass::from_bandwidth_ceil(v.bw);
                (Head { ver: v.ver, bw_class, exp: v.exp, last_ts }, *v)
            })
            .collect();
        let body = Body::new(path, &heads);
        // The monitored rate is the maximum over live versions: using
        // several versions cannot multiply bandwidth (§4.2/§4.8).
        let rate = live.iter().map(|v| v.bw).max().expect("a live version");
        if let Some(q) = &mut self.qdisc {
            // Renewals reconfigure the node inside: tokens carry over.
            q.install(res_id, TrafficClass::ColibriData, rate, now);
        }
        let (src_as, eer_info) = (eer.key.src_as, eer.eer_info);
        let (first_egress, hops) = (path[0].egress, path.len() as u8);
        match self.table.get_mut(res_id) {
            Some(slot) => {
                (slot.src_as, slot.eer_info, slot.first_egress, slot.hops, slot.body) =
                    (src_as, eer_info, first_egress, hops, body);
                // A renewal carries the accumulated bucket tokens over —
                // settle elapsed time at the *old* rate, then clamp to the
                // new depth — so a mid-stream rate change never mints a
                // retroactive free burst (see `TokenBucket::reconfigure`).
                slot.monitor.reconfigure(rate, self.cfg.burst, now);
            }
            None => {
                let monitor = TokenBucket::with_burst_duration(rate, self.cfg.burst, now);
                let slot = Slot { res_id, src_as, eer_info, monitor, first_egress, hops, body };
                self.table.insert(slot);
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
        if let Some(slot) = self.table.get_mut(res_id) {
            slot.monitor.reconfigure(rate, self.cfg.burst, now);
            if let Some(q) = &mut self.qdisc {
                if q.rate_of(res_id).is_some() {
                    q.install(res_id, TrafficClass::ColibriData, rate, now);
                }
            }
        }
    }

    /// Removes a reservation.
    pub fn remove(&mut self, res_id: ResId) {
        self.table.remove(res_id);
        if let Some(q) = &mut self.qdisc {
            q.remove(res_id);
        }
    }

    /// Number of installed reservations (the `r` parameter of Figs. 5–6).
    pub fn len(&self) -> usize {
        self.table.len
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
        self.table.len == 0
    }

    /// Processes one packet from end host `src_host` over reservation
    /// `res_id` (Fig. 1c ➊–➋): monitor, stamp `Ts`, compute all HVFs, and
    /// serialize the wire packet into `buf` (cleared and reused; it only
    /// grows when its capacity is insufficient). Returns the first-hop
    /// egress interface. A driver that recycles packet buffers makes no
    /// heap allocation per packet after warm-up, matching the paper's
    /// preallocated-mbuf DPDK pipeline.
    ///
    /// The packet is encoded straight into `buf` from the stored hop
    /// fields, and each hop validation field (Eq. 6 via [`eer_hvfs`]) is
    /// written at its offset. The HVFs are computed eight hops at a time
    /// from the version's compact σ keys: each hop's key expansion is
    /// interleaved with its one AES block, so the work of up to eight
    /// on-path ASes is in flight at once — `hops` key expansions and
    /// `hops` AES blocks per packet. Remainder hops run four wide when at
    /// least four remain, the rest one by one.
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
        let Some(slot) = self.table.get_mut(res_id) else {
            let err = GatewayError::UnknownReservation(res_id);
            return Err(refuse(&mut self.stats, &self.telemetry, err));
        };
        if slot.eer_info.src_host != src_host {
            return Err(refuse(&mut self.stats, &self.telemetry, GatewayError::WrongHost));
        }
        let hops = usize::from(slot.hops);
        // Use the latest live version (§4.2).
        let latest = slot.body.heads(hops).enumerate().rev().find(|(_, head)| head.exp > now);
        let Some((version, mut head)) = latest else {
            return Err(refuse(&mut self.stats, &self.telemetry, GatewayError::Expired(res_id)));
        };
        let pkt_size = colibri_wire::header_len(hops, true) + payload.len();
        // High-precision timestamp: ns until expiry, strictly decreasing
        // per version so every packet is unique. Decided before policing,
        // so a packet refused here consumes no tokens.
        let mut ts = head.exp.as_nanos().saturating_sub(now.as_nanos());
        if ts >= head.last_ts {
            // Once `Ts = 0` is stamped the version has no timestamp left:
            // another packet would repeat a `(key, Ts)` pair, which the
            // routers' replay filter drops as a duplicate.
            let Some(next) = head.last_ts.checked_sub(1) else {
                let err = GatewayError::Expired(res_id);
                return Err(refuse(&mut self.stats, &self.telemetry, err));
            };
            ts = next;
        }
        // Deterministic monitoring (§4.8), sized by the full packet: the
        // hierarchical tree when configured (host → reservation → class →
        // uplink accounting), the flat per-slot bucket otherwise.
        let admitted = match &mut self.qdisc {
            Some(q) => match q.admit(res_id, src_host, pkt_size as u64, now) {
                Ok(()) => true,
                Err(AdmitError::UnknownReservation(_)) => {
                    // Tree and table are installed/removed together; a
                    // slot without a node means teardown raced ahead.
                    let err = GatewayError::UnknownReservation(res_id);
                    return Err(refuse(&mut self.stats, &self.telemetry, err));
                }
                Err(AdmitError::RateLimited(_) | AdmitError::HostCapped(..)) => false,
            },
            None => slot.monitor.try_consume(pkt_size as u64, now),
        };
        if !admitted {
            self.stats.rate_limited += 1;
            if let Some(t) = &self.telemetry {
                t.rate_limited.inc();
            }
            return Err(GatewayError::RateLimited(res_id));
        }
        head.last_ts = ts;
        slot.body.set_head(hops, version, &head);

        let res_info = ResInfo {
            src_as: slot.src_as,
            res_id,
            bw: head.bw_class,
            exp_t: head.exp,
            ver: head.ver,
        };
        let path = slot.body.hops(hops);
        encode_packet_into(&res_info, Some(&slot.eer_info), false, &path[..hops], ts, payload, buf)
            .expect("installed path is valid");
        debug_assert_eq!(buf.len(), pkt_size);
        let (sigmas, mut at) = (slot.body.sigmas(hops, version), hvf_offset(hops, true, 0));
        for_each_by_width(sigmas, &StampHvfs { ts, pkt_size }, |_, hvf| {
            buf[at..at + HVF_LEN].copy_from_slice(&hvf);
            at += HVF_LEN;
        });
        self.stats.forwarded += 1;
        if let Some(t) = &self.telemetry {
            t.forwarded.inc();
            if let Some(start) = wall_start {
                t.stamp_ns.observe(start.elapsed().as_nanos() as u64);
            }
        }
        Ok(slot.first_egress)
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
            .field("reservations", &self.table.len)
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
    use proptest::prelude::*;

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
        // So is a version with a σ missing for one hop.
        let mut short = owned(1, vec![(0, Bandwidth::from_mbps(5), exp)]);
        short.versions[0].hop_auths.pop();
        g.install(&owned(1, vec![(0, Bandwidth::from_mbps(5), exp)]), t0);
        g.install(&short, t0);
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

    /// ResIds equal modulo the table size share a home slot; `k << 20`
    /// does for every table below 2²⁰ slots.
    fn probe_id(k: u32) -> u32 {
        if k < 12 {
            k << 20
        } else {
            k
        }
    }

    proptest! {
        /// Any sequence of installs and removals, with long probe runs of
        /// colliding ResIds, leaves exactly the installed reservations
        /// reachable.
        #[test]
        fn table_matches_a_set_model(
            ops in prop::collection::vec((any::<bool>(), 0u32..24), 0..200),
        ) {
            let mut g = gw();
            let (t0, exp) = (Instant::from_secs(0), Instant::from_secs(100));
            let mut model = std::collections::BTreeSet::new();
            for (install, k) in ops {
                let id = probe_id(k);
                if install {
                    g.install(&owned(id, vec![(0, Bandwidth::from_mbps(5), exp)]), t0);
                    model.insert(id);
                } else {
                    g.remove(ResId(id));
                    model.remove(&id);
                }
                prop_assert_eq!(g.len(), model.len());
                for k in 0..24 {
                    let id = probe_id(k);
                    let found = g.table.get(ResId(id)).map(|slot| slot.res_id);
                    let expect = model.contains(&id).then_some(ResId(id));
                    prop_assert_eq!(found, expect, "ResId {}", id);
                }
            }
        }
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

//! The adapter onto the system under test.
//!
//! This is the only file of the benchmark that names system types
//! (`Gateway`, `BorderRouter`, `GatewayConfig`/`QosMode`, `RouterConfig`,
//! `FlowManager`, `CservRegistry`, `setup_segr` … `teardown_segr`,
//! `setup_eer`/`renew_eer`, `SegrAdmission`, `Timeline`, `AttackGen`,
//! `crypto::ops`, …; README.md keeps the full list). Everything else
//! speaks the plain types defined here — virtual time as nanoseconds,
//! bandwidth as bits per second — so a change that renames or deletes a
//! system type touches this file and nothing else.
//!
//! The system is driven through public functions only, in the production
//! configuration: telemetry registries attached to gateway, routers and
//! CServs, `RouterConfig::default()` caches, `GatewayConfig::default()`
//! burst. Virtual time is fed in; wall time is only ever measured.

use crate::trace::{Cause, SpanName, Tracer};
use colibri::base::{
    Bandwidth, BwClass, Duration, HostAddr, Instant, InterfaceId, IsdAsId, ResId, ReservationKey,
    SlotWindow,
};
use colibri::crypto::{ops, Aead, Cmac, Epoch, Key, SecretValueGen};
use colibri::ctrl::{
    activate_segr, master_secret_for, renew_eer, renew_segr, setup_eer, setup_segr, setup_segr_at,
    teardown_segr, CservConfig, CservRegistry, OwnedEer, OwnedEerVersion, SegrAdmission,
    SegrAdmissionConfig, SegrRequest, SetupError, Timeline,
};
use colibri::dataplane::{
    BorderRouter, DropReason, Gateway, GatewayConfig, GatewayError, QosMode, RouterConfig,
    RouterVerdict,
};
use colibri::host::{Env, FlowConfig, FlowId, FlowKind, FlowManager};
use colibri::monitor::{TokenBucket, TransitMonitor, TransitMonitorConfig};
use colibri::qdisc::{HtbConfig, Qdisc, TrafficClass};
use colibri::sim::{AttackGen, AttackKind};
use colibri::telemetry::Registry;
use colibri::topology::gen::{chain_topology, sample_two_isd};
use colibri::topology::{find_paths, FullPath, Segment, SegmentStore, Topology};
use colibri::wire::mac::{eer_hvf_with, hop_auth};
use colibri::wire::{EerInfo, HopField, PacketBuilder, PacketViewMut, ResInfo};

/// Virtual time every scenario starts at: inside DRKey epoch 0 with room
/// for hours of virtual run time.
pub const START_NS: u64 = 1_000_000_000_000;

const SRC_HOST: HostAddr = HostAddr(0x0a00_0001);
const DST_HOST: HostAddr = HostAddr(0x1400_0002);
/// The destination host every delivered packet must name.
pub const DST_HOST_ID: u32 = DST_HOST.0;

fn at(ns: u64) -> Instant {
    Instant::from_nanos(ns)
}

// ---------------------------------------------------------------------
// Packet path: gateway → N border routers → destination host
// ---------------------------------------------------------------------

/// Shape of one chained packet path.
#[derive(Debug, Clone, Copy)]
pub struct ChainSpec {
    /// On-path ASes (one border router each).
    pub hops: usize,
    /// Ordinary reservations, ids `0..reservations`.
    pub reservations: u32,
    pub rate_bps: u64,
    /// Under-provisioned reservations, ids `reservations..reservations+greedy`.
    pub greedy: u32,
    pub greedy_rate_bps: u64,
    /// `Some(uplink)` selects `QosMode::Hierarchical(HtbConfig::shaped(uplink))`,
    /// `None` the flat per-reservation bucket.
    pub shaped_uplink_bps: Option<u64>,
    /// Router transit monitoring (replay filter, OFD, blocklist).
    pub monitoring: bool,
    pub replay_log2_bits: u32,
    /// Attach a telemetry registry to gateway and routers.
    pub telemetry: bool,
}

/// What the gateway did with one offered packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stamp {
    Forwarded,
    RateLimited,
    Rejected,
}

/// Why a router dropped a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropKind {
    Parse,
    Expired,
    Stale,
    BadHvf,
    Blocked,
    Duplicate,
    Shaped,
}

impl DropKind {
    pub const ALL: [DropKind; 7] = [
        DropKind::Parse,
        DropKind::Expired,
        DropKind::Stale,
        DropKind::BadHvf,
        DropKind::Blocked,
        DropKind::Duplicate,
        DropKind::Shaped,
    ];

    pub fn index(self) -> usize {
        self as usize
    }
}

/// A router's verdict for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    Forward,
    /// Last hop: handed to this destination host.
    Deliver(u32),
    DeliverCserv,
    Drop(DropKind),
}

fn fate_of(v: &RouterVerdict) -> Fate {
    match v {
        RouterVerdict::Forward(_) => Fate::Forward,
        RouterVerdict::DeliverHost(h) => Fate::Deliver(h.0),
        RouterVerdict::DeliverCserv => Fate::DeliverCserv,
        RouterVerdict::Drop(r) => Fate::Drop(match r {
            DropReason::ParseError => DropKind::Parse,
            DropReason::ReservationExpired => DropKind::Expired,
            DropReason::Stale => DropKind::Stale,
            DropReason::BadHvf => DropKind::BadHvf,
            DropReason::Blocked => DropKind::Blocked,
            DropReason::Duplicate => DropKind::Duplicate,
            DropReason::Shaped => DropKind::Shaped,
        }),
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayCounts {
    pub forwarded: u64,
    pub rate_limited: u64,
    pub rejected: u64,
}

/// `RouterStats`: forwarded plus one counter per [`DropKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterCounts {
    pub forwarded: u64,
    pub drops: [u64; 7],
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    pub sigma_hits: u64,
    pub sigma_misses: u64,
    pub sigma_evictions: u64,
}

/// Thread-local `crypto::ops` totals: (AES block operations, key expansions).
pub fn crypto_ops() -> (u64, u64) {
    (ops::aes_block_ops(), ops::key_expansions())
}

/// Length of an EER packet header over `hops` ASes.
pub fn eer_header_len(hops: usize) -> usize {
    colibri::wire::header_len(hops, true)
}

/// The router's freshness window `(max age, max lead)` in nanoseconds, for
/// the oracle's expectation of a tampered timestamp.
pub fn freshness_window_ns() -> (u64, u64) {
    let cfg = RouterConfig::default();
    (cfg.freshness.as_nanos(), cfg.skew.as_nanos())
}

/// Depth in bytes of the gateway's bucket for a reservation of `rate_bps`
/// (`GatewayConfig::default()` burst, one-MTU floor), for the oracle's
/// own token-bucket model.
pub fn bucket_depth_bytes(rate_bps: u64) -> u64 {
    let burst = GatewayConfig::default().burst;
    ((rate_bps as u128 * burst.as_nanos() as u128 / 8 / 1_000_000_000) as u64).max(1500)
}

pub struct Chain {
    spec: ChainSpec,
    gw: Gateway,
    routers: Vec<BorderRouter>,
    registry: Registry,
}

fn chain_ases(hops: usize) -> Vec<IsdAsId> {
    (0..hops).map(|i| IsdAsId::new(1, 101 + i as u32)).collect()
}

fn chain_hop_fields(hops: usize) -> Vec<HopField> {
    (0..hops)
        .map(|i| HopField::new(u16::from(i != 0), if i + 1 == hops { 0 } else { 2 }))
        .collect()
}

impl Chain {
    /// Builds the gateway (one `Gateway::install` per reservation, hop
    /// authenticators derived from the real per-AS secrets so every
    /// stamped packet verifies) and one border router per on-path AS.
    pub fn build(spec: ChainSpec, now_ns: u64, tr: &mut Tracer) -> Chain {
        let now = at(now_ns);
        let ases = chain_ases(spec.hops);
        let hops = chain_hop_fields(spec.hops);
        let epoch = Epoch::containing(now);
        let k_is: Vec<Cmac> = ases
            .iter()
            .map(|a| {
                SecretValueGen::new(&master_secret_for(*a))
                    .secret_value(epoch)
                    .cmac()
            })
            .collect();
        let registry = Registry::new();
        let qos = match spec.shaped_uplink_bps {
            Some(bps) => QosMode::Hierarchical(HtbConfig::shaped(Bandwidth::from_bps(bps))),
            None => QosMode::Flat,
        };
        let mut gw = Gateway::new(GatewayConfig {
            qos,
            ..GatewayConfig::default()
        });
        if spec.telemetry {
            gw.attach_telemetry(&registry, "gateway");
        }
        let exp = now + Duration::from_secs(3600);
        let eer_info = EerInfo {
            src_host: SRC_HOST,
            dst_host: DST_HOST,
        };
        for id in 0..spec.reservations + spec.greedy {
            let bw = Bandwidth::from_bps(if id < spec.reservations {
                spec.rate_bps
            } else {
                spec.greedy_rate_bps
            });
            let res_info = ResInfo {
                src_as: ases[0],
                res_id: ResId(id),
                bw: BwClass::from_bandwidth_ceil(bw),
                exp_t: exp,
                ver: 0,
            };
            let hop_auths = k_is
                .iter()
                .zip(&hops)
                .map(|(k, h)| hop_auth(k, &res_info, &eer_info, *h))
                .collect();
            let owned = OwnedEer {
                key: ReservationKey::new(ases[0], ResId(id)),
                eer_info,
                path_ases: ases.clone(),
                hop_fields: hops.clone(),
                versions: vec![OwnedEerVersion {
                    ver: 0,
                    bw,
                    exp,
                    hop_auths,
                }],
            };
            let span = tr.begin(SpanName::Install, Cause::root(u64::from(id)), 0);
            gw.install(&owned, now);
            tr.end(span, 1);
        }
        let routers = ases
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let mut cfg = RouterConfig {
                    monitoring: spec.monitoring,
                    ..RouterConfig::default()
                };
                cfg.monitor.replay_log2_bits = spec.replay_log2_bits;
                let mut r = BorderRouter::new(*a, &master_secret_for(*a), cfg);
                if spec.telemetry {
                    r.attach_telemetry(&registry, &format!("router{i}"));
                }
                r
            })
            .collect();
        Chain {
            spec,
            gw,
            routers,
            registry,
        }
    }

    pub fn spec(&self) -> &ChainSpec {
        &self.spec
    }

    /// `Gateway::process_into` for one packet of reservation `res`.
    #[inline]
    pub fn stamp(&mut self, res: u32, payload: &[u8], now_ns: u64, buf: &mut Vec<u8>) -> Stamp {
        match self
            .gw
            .process_into(SRC_HOST, ResId(res), payload, at(now_ns), buf)
        {
            Ok(_) => Stamp::Forwarded,
            Err(GatewayError::RateLimited(_)) => Stamp::RateLimited,
            Err(_) => Stamp::Rejected,
        }
    }

    /// `BorderRouter::process_batch` at router `hop`; the span wraps the
    /// call alone.
    pub fn hop(
        &mut self,
        hop: usize,
        pkts: &mut [&mut [u8]],
        now_ns: u64,
        fates: &mut Vec<Fate>,
        tr: &mut Tracer,
        cause: Cause,
    ) {
        let n = pkts.len() as u32;
        let span = tr.begin(SpanName::RouterHop, cause, hop as u16);
        let verdicts = self.routers[hop].process_batch(pkts, at(now_ns));
        tr.end(span, n);
        fates.clear();
        fates.extend(verdicts.iter().map(fate_of));
    }

    pub fn gateway_counts(&self) -> GatewayCounts {
        let s = self.gw.stats;
        GatewayCounts {
            forwarded: s.forwarded,
            rate_limited: s.rate_limited,
            rejected: s.rejected,
        }
    }

    pub fn router_counts(&self, hop: usize) -> RouterCounts {
        let s = self.routers[hop].stats;
        let mut drops = [0u64; 7];
        drops[DropKind::Parse.index()] = s.parse_errors;
        drops[DropKind::Expired.index()] = s.expired;
        drops[DropKind::Stale.index()] = s.stale;
        drops[DropKind::BadHvf.index()] = s.bad_hvf;
        drops[DropKind::Blocked.index()] = s.blocked;
        drops[DropKind::Duplicate.index()] = s.duplicates;
        drops[DropKind::Shaped.index()] = s.shaped;
        RouterCounts {
            forwarded: s.forwarded,
            drops,
        }
    }

    /// `BorderRouter::cache_stats()` summed over all routers.
    pub fn cache_counts(&self) -> CacheCounts {
        self.routers
            .iter()
            .fold(CacheCounts::default(), |mut acc, r| {
                let c = r.cache_stats();
                acc.sigma_hits += c.sigma_hits;
                acc.sigma_misses += c.sigma_misses;
                acc.sigma_evictions += c.sigma_evictions;
                acc
            })
    }

    /// `Gateway::qos_stats()`: (rate_limited, host_capped); zeros when flat.
    pub fn qos_counts(&self) -> (u64, u64) {
        self.gw
            .qos_stats()
            .map_or((0, 0), |q| (q.rate_limited, q.host_capped))
    }

    /// Wall nanoseconds of one `Registry::snapshot` of the chain's registry.
    pub fn snapshot_registry(&self) -> usize {
        self.registry.snapshot().entries.len()
    }
}

/// The attack classes of dp-attack-mix (`AttackGen` kinds; truncated and
/// oversized share one slice of the mix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attack {
    ForgedHvf,
    Replay,
    Expired,
    BitFlip,
    Truncated,
    Oversized,
}

/// Seeded hostile frames derived from a valid stamped packet.
pub struct Attacker(AttackGen);

impl Attacker {
    pub fn new(seed: u64, template: Vec<u8>) -> Attacker {
        Attacker(AttackGen::new(seed, template))
    }

    pub fn set_template(&mut self, template: &[u8]) {
        self.0.set_template(template.to_vec());
    }

    pub fn next(&mut self, kind: Attack) -> Vec<u8> {
        self.0.next(match kind {
            Attack::ForgedHvf => AttackKind::ForgedHvf,
            Attack::Replay => AttackKind::Replay,
            Attack::Expired => AttackKind::ExpiredReservation,
            Attack::BitFlip => AttackKind::BitFlip,
            Attack::Truncated => AttackKind::Truncated,
            Attack::Oversized => AttackKind::Oversized,
        })
    }
}

// ---------------------------------------------------------------------
// Request path: hosts → FlowManager → per-hop CServ admission
// ---------------------------------------------------------------------

/// A granted (or renewed) segment reservation.
#[derive(Debug, Clone, Copy)]
pub struct SegrGrant {
    pub key: SegrKey,
    pub bw_bps: u64,
    pub exp_ns: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegrKey(ReservationKey);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EerKey(ReservationKey);

/// Why a control request did not go through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// An on-path AS refused it (admission, policy).
    Refused,
    /// Anything else: unknown AS, bad authentication, unreachable hop.
    Error,
}

fn refusal(e: SetupError) -> Refusal {
    match e {
        SetupError::Refused { .. } => Refusal::Refused,
        _ => Refusal::Error,
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcCounts {
    pub scanned: u64,
    pub expired: u64,
}

/// A deployment: topology, beaconed segments, one CServ per AS (telemetry
/// attached), and the source/destination ASes the workload uses.
pub struct Net {
    topo: Topology,
    segments: SegmentStore,
    reg: CservRegistry,
    registry: Registry,
    src: IsdAsId,
    dst: IsdAsId,
    /// The first segment of the source's shortest path: the one SegR
    /// requests reserve.
    up: Segment,
    /// Physical capacity of the chain's links, bits per second.
    link_bps: u64,
}

impl Net {
    fn provision(
        topo: Topology,
        segments: SegmentStore,
        src: IsdAsId,
        dst: IsdAsId,
        up: Segment,
        link_bps: u64,
    ) -> Net {
        let mut reg = CservRegistry::provision(&topo, CservConfig::default());
        let registry = Registry::new();
        for id in reg.ids() {
            reg.get_mut(id)
                .expect("provisioned")
                .attach_telemetry(&registry, &format!("cserv_{id}"));
        }
        Net {
            topo,
            segments,
            reg,
            registry,
            src,
            dst,
            up,
            link_bps,
        }
    }

    /// `sample_two_isd`: `leaf_a` → `leaf_d`, five on-path ASes over three
    /// stitched segments.
    pub fn two_isd() -> Net {
        let s = sample_two_isd();
        let up = find_paths(&s.topo, &s.segments, s.leaf_a, s.leaf_d, 1)[0].segments[0].clone();
        Net::provision(s.topo, s.segments, s.leaf_a, s.leaf_d, up, 40_000_000_000)
    }

    /// `chain_topology(n, capacity)`: deepest leaf → core over one up-segment.
    pub fn chain(n: usize, link_bps: u64) -> Net {
        let (topo, segments, leaf, core) = chain_topology(n, Bandwidth::from_bps(link_bps));
        let up = segments.up_segments(leaf, core)[0].clone();
        Net::provision(topo, segments, leaf, core, up, link_bps)
    }

    pub fn link_bps(&self) -> u64 {
        self.link_bps
    }

    pub fn setup_segr(
        &mut self,
        demand_bps: u64,
        min_bps: u64,
        now_ns: u64,
        tr: &mut Tracer,
        cause: Cause,
    ) -> Result<SegrGrant, Refusal> {
        let up = self.up.clone();
        let span = tr.begin(SpanName::SetupSegr, cause, 0);
        let out = setup_segr(
            &mut self.reg,
            &up,
            Bandwidth::from_bps(demand_bps),
            Bandwidth::from_bps(min_bps),
            at(now_ns),
        );
        tr.end(span, 1);
        out.map(segr_grant).map_err(refusal)
    }

    pub fn setup_segr_at(
        &mut self,
        demand_bps: u64,
        min_bps: u64,
        starts_ns: u64,
        now_ns: u64,
        tr: &mut Tracer,
        cause: Cause,
    ) -> Result<SegrGrant, Refusal> {
        let up = self.up.clone();
        let span = tr.begin(SpanName::SetupSegr, cause, 1);
        let out = setup_segr_at(
            &mut self.reg,
            &up,
            Bandwidth::from_bps(demand_bps),
            Bandwidth::from_bps(min_bps),
            at(starts_ns),
            at(now_ns),
        );
        tr.end(span, 1);
        out.map(segr_grant).map_err(refusal)
    }

    /// `renew_segr` followed by `activate_segr` of the new version.
    pub fn renew_activate_segr(
        &mut self,
        key: SegrKey,
        demand_bps: u64,
        min_bps: u64,
        now_ns: u64,
        tr: &mut Tracer,
        cause: Cause,
    ) -> Result<SegrGrant, Refusal> {
        let span = tr.begin(SpanName::RenewSegr, cause, 0);
        let out = renew_segr(
            &mut self.reg,
            key.0,
            Bandwidth::from_bps(demand_bps),
            Bandwidth::from_bps(min_bps),
            at(now_ns),
        );
        tr.end(span, 1);
        let grant = out.map_err(refusal)?;
        let span = tr.begin(SpanName::ActivateSegr, cause, 0);
        let out = activate_segr(&mut self.reg, key.0, grant.ver, at(now_ns));
        tr.end(span, 1);
        out.map_err(refusal)?;
        Ok(segr_grant(grant))
    }

    pub fn teardown_segr(
        &mut self,
        key: SegrKey,
        tr: &mut Tracer,
        cause: Cause,
    ) -> Result<(), Refusal> {
        let span = tr.begin(SpanName::TeardownSegr, cause, 0);
        let out = teardown_segr(&mut self.reg, key.0);
        tr.end(span, 1);
        out.map_err(refusal)
    }

    /// One `CServ::gc` per CServ, in AS order; a span per call.
    pub fn gc_all(&mut self, now_ns: u64, tr: &mut Tracer, cause: Cause) -> GcCounts {
        let mut counts = GcCounts::default();
        for (i, id) in self.reg.ids().into_iter().enumerate() {
            let span = tr.begin(SpanName::Gc, cause, i as u16);
            let stats = self.reg.get_mut(id).expect("listed").gc(at(now_ns));
            tr.end(span, 1);
            counts.scanned += stats.scanned as u64;
            counts.expired += stats.expired as u64;
        }
        counts
    }

    /// Transit SegR records summed over all CServs.
    pub fn live_segr_records(&self) -> u64 {
        self.reg
            .ids()
            .iter()
            .map(|id| self.reg.get(*id).expect("listed").store().segr_count() as u64)
            .sum()
    }

    /// SegRs owned by the workload's source AS.
    pub fn live_owned_segrs(&self) -> u64 {
        self.reg
            .get(self.src)
            .expect("source AS")
            .store()
            .owned_segrs()
            .count() as u64
    }

    /// EERs owned by the workload's source AS.
    pub fn live_eers(&self) -> u64 {
        self.reg
            .get(self.src)
            .expect("source AS")
            .store()
            .owned_eer_count() as u64
    }

    /// (admitted, refused): the CServs' SegR + EER admission counters.
    pub fn admission_counts(&self) -> (u64, u64) {
        let snap = self.registry.snapshot();
        (
            snap.total("colibri_ctrl_segr_admit_ok_total")
                + snap.total("colibri_ctrl_eer_admit_ok_total"),
            snap.total("colibri_ctrl_segr_admit_denied_total")
                + snap.total("colibri_ctrl_eer_admit_denied_total"),
        )
    }

    /// The end-of-run conservation check: `SegrAdmission::audit()` at
    /// every CServ, and at every SegR record the bandwidth allocated to
    /// EERs is at most the SegR's own.
    pub fn audit(&self) -> Result<(), String> {
        for id in self.reg.ids() {
            let cserv = self.reg.get(id).expect("listed");
            cserv
                .admission()
                .audit()
                .map_err(|e| format!("audit at {id}: {e}"))?;
            let mut keys = Vec::new();
            cserv.store().for_each_segr_key(|k| keys.push(k));
            for k in keys {
                let rec = cserv.store().segr(k).expect("listed key");
                if rec.usage.allocated() > rec.usage.bandwidth() {
                    return Err(format!(
                        "at {id}: EERs on SegR {k} hold {} of {}",
                        rec.usage.allocated(),
                        rec.usage.bandwidth()
                    ));
                }
            }
        }
        Ok(())
    }

    /// `find_paths` from the workload's source to its destination AS.
    pub fn find_paths(&self, tr: &mut Tracer, req: u64) -> usize {
        let span = tr.begin(SpanName::FindPaths, Cause::root(req), 0);
        let n = find_paths(&self.topo, &self.segments, self.src, self.dst, 4).len();
        tr.end(span, 1);
        n
    }

    /// Prepares direct `setup_eer`/`renew_eer` calls: the shortest path
    /// and one fresh SegR per segment of it.
    pub fn eer_probe(&mut self, now_ns: u64) -> Result<EerProbe, String> {
        let path = find_paths(&self.topo, &self.segments, self.src, self.dst, 1)
            .into_iter()
            .next()
            .ok_or("no path between the workload's ASes")?;
        let mut segrs = Vec::new();
        for seg in &path.segments {
            let g = setup_segr(
                &mut self.reg,
                seg,
                Bandwidth::from_gbps(1),
                Bandwidth::from_mbps(1),
                at(now_ns),
            )
            .map_err(|e| format!("probe SegR: {e}"))?;
            segrs.push(g.key);
        }
        Ok(EerProbe { path, segrs })
    }

    pub fn setup_eer(
        &mut self,
        probe: &EerProbe,
        demand_bps: u64,
        now_ns: u64,
        tr: &mut Tracer,
        req: u64,
    ) -> Result<EerKey, Refusal> {
        let hosts = EerInfo {
            src_host: SRC_HOST,
            dst_host: DST_HOST,
        };
        let span = tr.begin(SpanName::SetupEer, Cause::root(req), 0);
        let out = setup_eer(
            &mut self.reg,
            &probe.path,
            &probe.segrs,
            hosts,
            Bandwidth::from_bps(demand_bps),
            at(now_ns),
        );
        tr.end(span, 1);
        out.map(|g| EerKey(g.key)).map_err(refusal)
    }

    pub fn renew_eer(
        &mut self,
        key: EerKey,
        demand_bps: u64,
        now_ns: u64,
        tr: &mut Tracer,
        req: u64,
    ) -> Result<(), Refusal> {
        let span = tr.begin(SpanName::RenewEer, Cause::root(req), 0);
        let out = renew_eer(
            &mut self.reg,
            key.0,
            Bandwidth::from_bps(demand_bps),
            at(now_ns),
        );
        tr.end(span, 1);
        out.map(|_| ()).map_err(refusal)
    }
}

fn segr_grant(g: colibri::ctrl::SegrGrant) -> SegrGrant {
    SegrGrant {
        key: SegrKey(g.key),
        bw_bps: g.bw.as_bps(),
        exp_ns: g.exp.as_nanos(),
    }
}

pub struct EerProbe {
    path: FullPath,
    segrs: Vec<ReservationKey>,
}

/// Handle to an open flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow(FlowId);

/// What happened to a flow's packet on its way to the destination host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// `DeliverHost(host)` at the last on-path router; whether the
    /// payload arrived byte-identical.
    Delivered { host: u32, intact: bool },
    /// Refused by the gateway or dropped at on-path router `hop`.
    Lost { hop: usize },
}

/// The source AS's end-host side: one `FlowManager`, its gateway, and a
/// border router for every AS of the deployment.
pub struct Host {
    fm: FlowManager,
    gw: Gateway,
    routers: Vec<(IsdAsId, BorderRouter)>,
}

impl Host {
    pub fn new(net: &Net, segr_demand_bps: u64) -> Host {
        let cfg = FlowConfig {
            segr_demand: Bandwidth::from_bps(segr_demand_bps),
            ..FlowConfig::default()
        };
        let mut gw = Gateway::new(GatewayConfig::default());
        gw.attach_telemetry(&net.registry, "gateway");
        let routers = net
            .topo
            .as_ids()
            .map(|id| {
                let mut r = BorderRouter::new(id, &master_secret_for(id), RouterConfig::default());
                r.attach_telemetry(&net.registry, &format!("router_{id}"));
                (id, r)
            })
            .collect();
        Host {
            fm: FlowManager::new(net.src, cfg),
            gw,
            routers,
        }
    }

    /// `FlowManager::open` towards the deployment's destination AS.
    pub fn open(
        &mut self,
        net: &mut Net,
        src_host: u32,
        demand_bps: u64,
        now_ns: u64,
        tr: &mut Tracer,
        cause: Cause,
    ) -> Result<Flow, String> {
        let mut env = Env {
            reg: &mut net.reg,
            topo: &net.topo,
            segments: &net.segments,
            gateway: &mut self.gw,
        };
        let span = tr.begin(SpanName::Open, cause, 0);
        let out = self.fm.open(
            &mut env,
            net.dst,
            HostAddr(src_host),
            DST_HOST,
            Bandwidth::from_bps(demand_bps),
            u64::MAX,
            at(now_ns),
        );
        tr.end(span, 1);
        out.map(Flow).map_err(|e| e.to_string())
    }

    /// The bandwidth the newest version of the flow's EER was granted.
    pub fn granted_bps(&self, net: &Net, flow: Flow) -> Option<u64> {
        let FlowKind::Reserved(key) = self.fm.flow(flow.0)?.kind else {
            return None;
        };
        let eer = net.reg.get(net.src)?.store().owned_eer(key)?;
        eer.versions.last().map(|v| v.bw.as_bps())
    }

    /// `FlowManager::send`, then the packet through the border router of
    /// every on-path AS in turn.
    pub fn send(
        &mut self,
        flow: Flow,
        payload: &[u8],
        now_ns: u64,
        tr: &mut Tracer,
        cause: Cause,
    ) -> Delivery {
        let span = tr.begin(SpanName::Send, cause, 0);
        let stamped = self.fm.send(&mut self.gw, flow.0, payload, at(now_ns));
        tr.end(span, 1);
        let Ok(stamped) = stamped else {
            return Delivery::Lost { hop: 0 };
        };
        let mut pkt = stamped.bytes;
        let path = self
            .fm
            .flow(flow.0)
            .and_then(|f| f.path.as_ref())
            .map(|p| p.as_path())
            .unwrap_or_default();
        for (hop, as_id) in path.iter().enumerate() {
            let Some((_, router)) = self.routers.iter_mut().find(|(id, _)| id == as_id) else {
                return Delivery::Lost { hop };
            };
            let span = tr.begin(SpanName::RouterScalar, cause, hop as u16);
            let verdict = router.process(&mut pkt, at(now_ns));
            tr.end(span, 1);
            match verdict {
                RouterVerdict::Forward(_) => {}
                RouterVerdict::DeliverHost(h) => {
                    let intact = pkt.ends_with(payload)
                        && pkt.len() == eer_header_len(path.len()) + payload.len();
                    return Delivery::Delivered { host: h.0, intact };
                }
                _ => return Delivery::Lost { hop },
            }
        }
        Delivery::Lost { hop: path.len() }
    }

    /// `FlowManager::tick`: the number of renewals it performed.
    pub fn tick(&mut self, net: &mut Net, now_ns: u64, tr: &mut Tracer, req: u64) -> usize {
        let mut env = Env {
            reg: &mut net.reg,
            topo: &net.topo,
            segments: &net.segments,
            gateway: &mut self.gw,
        };
        let span = tr.begin(SpanName::Tick, Cause::root(req), 0);
        let n = self.fm.tick(&mut env, at(now_ns));
        tr.end(span, self.fm.len() as u32);
        n
    }

    /// Closes the flow; returns how many times it had been renewed.
    pub fn close(&mut self, flow: Flow) -> Option<u64> {
        let renewals = self.fm.flow(flow.0).map(|f| f.renewals);
        self.fm.close(&mut self.gw, flow.0);
        renewals
    }
}

// ---------------------------------------------------------------------
// Ledger: layers that are only called from inside dataplane/ctrl, timed
// by replaying captured inputs through their public functions
// ---------------------------------------------------------------------

/// One ledger row: `run(n)` performs the layer's operation `n` times and
/// is timed; `prepare(n)`, when present, runs untimed before it and puts
/// the state `run` consumes in place.
pub struct LedgerOp {
    pub name: &'static str,
    pub prepare: Option<Box<dyn FnMut(u32)>>,
    pub run: Box<dyn FnMut(u32)>,
}

/// Inputs captured from the running workload.
pub struct Captured {
    /// A packet as the gateway stamped it.
    pub packet: Vec<u8>,
    /// Live SegR population the admission/timeline rows are loaded to.
    pub population: u32,
}

/// A stamped packet of reservation 0, for the wire/crypto ledger rows.
pub fn capture_packet(chain: &mut Chain, now_ns: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    let stamp = chain.stamp(0, &[0xA5; 64], now_ns, &mut buf);
    assert_eq!(
        stamp,
        Stamp::Forwarded,
        "reservation 0 stamps a conforming packet"
    );
    buf
}

pub fn ledger_ops(cap: &Captured) -> Vec<LedgerOp> {
    use std::hint::black_box;
    let now = at(START_NS);
    let mut ops: Vec<LedgerOp> = Vec::new();
    let mut push = |name: &'static str, run: Box<dyn FnMut(u32)>| {
        ops.push(LedgerOp {
            name,
            prepare: None,
            run,
        })
    };

    // -- crypto ---------------------------------------------------------
    let cmac = Cmac::new(&[7u8; 16]);
    let mut block = [3u8; 16];
    push(
        "crypto.cmac_1block_ns",
        Box::new(move |n| {
            for _ in 0..n {
                block = cmac.tag(black_box(&block));
            }
            black_box(block);
        }),
    );
    let mut key = Key([9u8; 16]);
    push(
        "crypto.key_expand_ns",
        Box::new(move |n| {
            for _ in 0..n {
                let c = black_box(&key).cmac();
                key.0[0] = key.0[0].wrapping_add(1);
                black_box(&c);
            }
        }),
    );
    let aead = Aead::new(&[5u8; 16]);
    let mut nonce = [0u8; colibri::crypto::aead::NONCE_LEN];
    push(
        "crypto.aead_seal_open_ns",
        Box::new(move |n| {
            let msg = [0x5Au8; 64];
            for i in 0..n {
                nonce[0..4].copy_from_slice(&i.to_be_bytes());
                let sealed = aead.seal(&nonce, b"hdr", black_box(&msg));
                let plain = aead.open(&nonce, b"hdr", &sealed).expect("own seal opens");
                black_box(plain);
            }
        }),
    );

    // -- wire -----------------------------------------------------------
    let mut pkt = cap.packet.clone();
    push(
        "wire.parse_ns",
        Box::new(move |n| {
            for _ in 0..n {
                let v = PacketViewMut::parse(black_box(&mut pkt)).expect("captured packet parses");
                black_box(v.ts());
            }
        }),
    );
    let (res_info, eer_info, hop_fields, ts, payload) = {
        let mut p = cap.packet.clone();
        let v = PacketViewMut::parse(&mut p).expect("captured packet parses");
        let hops: Vec<HopField> = (0..v.n_hops()).map(|i| v.hop(i)).collect();
        let payload = v.view().payload().to_vec();
        (
            v.res_info(),
            v.eer_info().expect("EER packet"),
            hops,
            v.ts(),
            payload,
        )
    };
    {
        let hops = hop_fields.clone();
        let payload = payload.clone();
        let mut buf = Vec::with_capacity(cap.packet.len());
        push(
            "wire.build_ns",
            Box::new(move |n| {
                for _ in 0..n {
                    PacketBuilder::eer(res_info, eer_info)
                        .path(hops.iter().copied())
                        .ts(black_box(ts))
                        .build_into(&payload, &mut buf)
                        .expect("valid path");
                    black_box(&buf);
                }
            }),
        );
    }
    let k_i = SecretValueGen::new(&master_secret_for(res_info.src_as))
        .secret_value(Epoch::containing(now))
        .cmac();
    let hop0 = hop_fields[0];
    {
        let k_i = k_i.clone();
        push(
            "wire.hop_auth_ns",
            Box::new(move |n| {
                for _ in 0..n {
                    black_box(hop_auth(&k_i, black_box(&res_info), &eer_info, hop0));
                }
            }),
        );
    }
    let sigma = hop_auth(&k_i, &res_info, &eer_info, hop0).cmac();
    let pkt_size = cap.packet.len();
    push(
        "wire.eer_hvf_ns",
        Box::new(move |n| {
            let mut t = ts;
            for _ in 0..n {
                t = t.wrapping_sub(1);
                black_box(eer_hvf_with(&sigma, black_box(t), pkt_size));
            }
        }),
    );

    // -- monitor / qdisc ------------------------------------------------
    let mut bucket = TokenBucket::with_burst_duration(
        Bandwidth::from_gbps(400),
        GatewayConfig::default().burst,
        now,
    );
    let mut t_ns = START_NS;
    push(
        "monitor.token_bucket_ns",
        Box::new(move |n| {
            for _ in 0..n {
                t_ns += 1_000;
                black_box(bucket.try_consume(black_box(136), at(t_ns)));
            }
        }),
    );
    let mut monitor = TransitMonitor::new(TransitMonitorConfig {
        replay_log2_bits: 24,
        ..TransitMonitorConfig::default()
    });
    let mut t_ns = START_NS;
    let mon_key = res_info.key();
    let mon_bw = res_info.bw.bandwidth();
    push(
        "monitor.transit_ns",
        Box::new(move |n| {
            for _ in 0..n {
                t_ns += 10_000;
                black_box(monitor.process_packet(mon_key, mon_bw, 136, u64::MAX - t_ns, at(t_ns)));
            }
        }),
    );
    let mut qdisc = Qdisc::new(HtbConfig::shaped(Bandwidth::from_gbps(100)), now);
    for id in 0..1024 {
        qdisc.install(
            ResId(id),
            TrafficClass::ColibriData,
            Bandwidth::from_gbps(1),
            now,
        );
    }
    let mut t_ns = START_NS;
    let mut id = 0u32;
    push(
        "qdisc.admit_ns",
        Box::new(move |n| {
            for _ in 0..n {
                t_ns += 10_000;
                id = (id + 389) % 1024;
                black_box(qdisc.admit(ResId(id), SRC_HOST, 136, at(t_ns)).is_ok());
            }
        }),
    );

    // -- ctrl: admission and timeline at the workload's population -------
    let mut adm = SegrAdmission::new(SegrAdmissionConfig::default());
    let huge = Bandwidth::from_gbps(1_000_000);
    adm.set_interface_capacity(InterfaceId(1), huge);
    adm.set_interface_capacity(InterfaceId(2), huge);
    adm.advance(now);
    let lifetime = CservConfig::default().segr_lifetime;
    let request = move |adm: &SegrAdmission, id: u32| SegrRequest {
        key: ReservationKey::new(IsdAsId::new(1, 1000 + id % 97), ResId(id)),
        ingress: InterfaceId(1),
        egress: InterfaceId(2),
        demand: Bandwidth::from_mbps(1),
        min_bw: Bandwidth::ZERO,
        window: adm.window_for(now, now, now + lifetime),
    };
    for id in 0..cap.population {
        adm.admit(request(&adm, id)).expect("preload admits");
    }
    // Each row restores the population the other one changed, untimed:
    // `admit` first removes what its last batch added, `remove` first
    // admits what it is about to remove.
    let adm = std::rc::Rc::new(std::cell::RefCell::new(adm));
    let key_of = |id: u32| ReservationKey::new(IsdAsId::new(1, 1000 + id % 97), ResId(id));
    let first_extra = cap.population;
    let extra = std::rc::Rc::new(std::cell::Cell::new(0u32));
    // Removes whatever an earlier batch left beyond the population, then
    // admits `n` fresh entries.
    let reset_to = {
        let (adm, extra) = (adm.clone(), extra.clone());
        move |n: u32| {
            let mut a = adm.borrow_mut();
            for id in first_extra..first_extra + extra.get() {
                a.remove(key_of(id));
            }
            for id in first_extra..first_extra + n {
                let req = request(&a, id);
                a.admit(req).expect("refill admits");
            }
            extra.set(n);
        }
    };
    let drain = reset_to.clone();
    let fill = reset_to;
    {
        let (adm, extra) = (adm.clone(), extra.clone());
        ops.push(LedgerOp {
            name: "ctrl.admission.admit_ns",
            prepare: Some(Box::new(move |_| drain(0))),
            run: Box::new(move |n| {
                let mut a = adm.borrow_mut();
                for id in first_extra..first_extra + n {
                    let req = request(&a, id);
                    black_box(a.admit(req).is_ok());
                }
                extra.set(n);
            }),
        });
    }
    ops.push(LedgerOp {
        name: "ctrl.admission.remove_ns",
        prepare: Some(Box::new(fill)),
        run: Box::new(move |n| {
            let mut a = adm.borrow_mut();
            for id in (first_extra..first_extra + n).rev() {
                black_box(a.remove(key_of(id)));
            }
            extra.set(0);
        }),
    });
    let mut push = |name: &'static str, run: Box<dyn FnMut(u32)>| {
        ops.push(LedgerOp {
            name,
            prepare: None,
            run,
        })
    };
    let mut timeline = Timeline::with_base(Duration::from_secs(1), 1024, START_NS / 1_000_000_000);
    let base = START_NS / 1_000_000_000;
    for i in 0..u64::from(cap.population.min(100_000)) {
        let start = base + i % 320;
        timeline
            .reserve(SlotWindow::new(start, start + 300), 1_000_000)
            .expect("inside horizon");
    }
    let timeline = std::rc::Rc::new(std::cell::RefCell::new(timeline));
    {
        let timeline = timeline.clone();
        let mut i = 0u64;
        push(
            "ctrl.timeline.range_add_ns",
            Box::new(move |n| {
                let mut t = timeline.borrow_mut();
                for _ in 0..n {
                    i += 1;
                    let start = base + i % 320;
                    let w = SlotWindow::new(start, start + 300);
                    // Reserve and free alternate so the load stays put.
                    if i % 2 == 1 {
                        black_box(t.reserve(w, 1_000_000).is_ok());
                    } else {
                        let prev = base + (i - 1) % 320;
                        black_box(t.free(SlotWindow::new(prev, prev + 300), 1_000_000).is_ok());
                    }
                }
            }),
        );
    }
    let mut i = 0u64;
    push(
        "ctrl.timeline.range_max_ns",
        Box::new(move |n| {
            let t = timeline.borrow();
            for _ in 0..n {
                i += 1;
                let start = base + i % 320;
                black_box(t.max_usage(SlotWindow::new(start, start + 300)));
            }
        }),
    );

    // -- ring -----------------------------------------------------------
    let (mut tx, mut rx) = colibri_ring::ring::<u64>(64);
    let mut out = Vec::with_capacity(32);
    push(
        "ring.send_recv_ns",
        Box::new(move |n| {
            // Same thread: 32 sends, then one `recv_many` of 32.
            for round in 0..n.div_ceil(32) {
                for j in 0..32u64 {
                    tx.try_send(u64::from(round) + j)
                        .expect("ring has room for a burst");
                }
                out.clear();
                rx.recv_many(&mut out, 32);
                black_box(&out);
            }
        }),
    );
    ops
}

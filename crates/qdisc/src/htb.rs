//! The four-level hierarchy token bucket (DESIGN.md §16).
//!
//! Nodes are [`colibri_monitor::TokenBucket`]s — the *same type* that
//! implements the paper's flat per-reservation monitoring (§4.8) — so a
//! degenerate hierarchy (no uplink cap, no host caps) makes per-packet
//! decisions that are bit-identical to the flat gateway path by
//! construction: the reservation level *is* the flat monitor.
//!
//! Level roles:
//!
//! * **uplink** (root): the physical link. Present only when the
//!   configuration names a capacity; bounds the scheduler's service rounds
//!   and accounts aggregate usage for the conformance facet.
//! * **class**: Colibri control / Colibri data / best-effort, with
//!   guaranteed permille shares of the uplink (Appendix B split). Classes
//!   bound the *guaranteed* phase of a service round; anything beyond a
//!   guarantee is scavenged leftover.
//! * **reservation**: one node per installed EER (or best-effort tenant).
//!   For Colibri data this node's rate is the reserved bandwidth — the
//!   deterministic monitoring function. Renewals **reconfigure** the node,
//!   carrying accumulated tokens over (no free burst, no retroactive
//!   refill).
//! * **host/flow**: leaves. Conformance-side they optionally subdivide a
//!   reservation between hosts (`host_cap_permille`); scheduler-side each
//!   leaf owns a FIFO with DRR fairness across siblings and codel AQM on
//!   best-effort.

use crate::codel::CodelConfig;
use crate::sched::{EnqueueError, Lane, LeafId};
use crate::telemetry::QdiscTelemetry;
use crate::TrafficClass;
use colibri_base::{Bandwidth, Duration, HostAddr, Instant, ResId, ResIdHashing};
use colibri_monitor::TokenBucket;
use colibri_telemetry::Registry;
use std::collections::HashMap;

/// Guaranteed class shares in permille of the uplink capacity, indexed
/// conceptually by [`TrafficClass`]. Integer so configuration can never
/// smuggle NaN/negative/infinite shares into the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassShares {
    /// Colibri control share (default 50‰ = 5%).
    pub control: u32,
    /// Colibri data share (default 750‰ = 75%).
    pub data: u32,
    /// Best-effort floor (default 200‰ = 20%).
    pub best_effort: u32,
}

impl Default for ClassShares {
    fn default() -> Self {
        Self { control: 50, data: 750, best_effort: 200 }
    }
}

impl ClassShares {
    /// Valid iff the shares sum to exactly 1000‰.
    pub fn is_valid(&self) -> bool {
        self.control as u64 + self.data as u64 + self.best_effort as u64 == 1000
    }

    /// The permille share of one class.
    pub fn permille(&self, class: TrafficClass) -> u32 {
        match class {
            TrafficClass::ColibriControl => self.control,
            TrafficClass::ColibriData => self.data,
            TrafficClass::BestEffort => self.best_effort,
        }
    }

    /// The guaranteed bandwidth of one class on an uplink of `capacity`.
    pub fn guaranteed(&self, class: TrafficClass, capacity: Bandwidth) -> Bandwidth {
        Bandwidth(capacity.as_bps() as u128 as u64 / 1000 * self.permille(class) as u64
            + (capacity.as_bps() % 1000) * self.permille(class) as u64 / 1000)
    }
}

/// Hierarchy configuration. `Copy` so it can ride inside the gateway's
/// config struct and across shard workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HtbConfig {
    /// Uplink capacity. `None` = unconstrained (the degenerate hierarchy:
    /// only reservation-level conformance applies, exactly the flat path).
    pub uplink: Option<Bandwidth>,
    /// Guaranteed class shares of the uplink.
    pub shares: ClassShares,
    /// Burst allowance of the uplink and class buckets.
    pub class_burst: Duration,
    /// Burst allowance of reservation buckets (mirrors the flat gateway's
    /// `GatewayConfig::burst`).
    pub res_burst: Duration,
    /// Optional per-host cap inside a reservation, in permille of the
    /// reservation's rate. `None` disables the host conformance level
    /// (required for flat-equivalence).
    pub host_cap_permille: Option<u32>,
    /// Burst allowance of host-cap buckets.
    pub host_burst: Duration,
    /// Codel parameters for best-effort leaf queues.
    pub codel: CodelConfig,
    /// Per-leaf queue depth in bytes; arrivals beyond it tail-drop.
    pub leaf_cap_bytes: u64,
    /// DRR quantum in bytes (per leaf, per round).
    pub quantum: u64,
}

impl Default for HtbConfig {
    fn default() -> Self {
        Self {
            uplink: None,
            shares: ClassShares::default(),
            class_burst: Duration::from_millis(50),
            res_burst: Duration::from_millis(50),
            host_cap_permille: None,
            host_burst: Duration::from_millis(50),
            codel: CodelConfig::default(),
            leaf_cap_bytes: 1 << 20,
            quantum: crate::codel::MTU_BYTES,
        }
    }
}

impl HtbConfig {
    /// The degenerate hierarchy: no uplink shaping, no host caps — the
    /// admit verdict collapses to the reservation bucket alone, which is
    /// the flat gateway monitor with burst `res_burst`.
    pub fn degenerate(res_burst: Duration) -> Self {
        Self { uplink: None, host_cap_permille: None, res_burst, ..Self::default() }
    }

    /// A shaped uplink with the default Appendix B class split.
    pub fn shaped(uplink: Bandwidth) -> Self {
        Self { uplink: Some(uplink), ..Self::default() }
    }
}

/// Why [`Qdisc::admit`] refused a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// No reservation node with this ID exists in the hierarchy.
    UnknownReservation(ResId),
    /// The reservation-level bucket rejected the packet (the flow exceeds
    /// its reserved bandwidth — the paper's deterministic monitoring).
    RateLimited(ResId),
    /// The per-host cap inside the reservation rejected the packet; the
    /// reservation bucket was **not** charged.
    HostCapped(ResId, HostAddr),
}

/// One reservation node and its host level.
struct ResNode {
    class: TrafficClass,
    rate: Bandwidth,
    bucket: TokenBucket,
    /// Host conformance meters, created lazily on first admit. The bucket
    /// is present only when `host_cap_permille` is configured; the byte
    /// counter always accumulates for audit/fairness inspection.
    hosts: HashMap<HostAddr, HostMeter>,
}

struct HostMeter {
    cap: Option<TokenBucket>,
    admitted_bytes: u64,
}

/// Mergeable counters of everything the qdisc decided. Array fields are
/// indexed by [`TrafficClass::index`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QdiscStats {
    /// Packets admitted by the conformance facet.
    pub admitted: u64,
    /// Bytes admitted by the conformance facet.
    pub admitted_bytes: u64,
    /// Packets rejected by a reservation bucket (deterministic monitoring).
    pub rate_limited: u64,
    /// Packets rejected by a per-host cap.
    pub host_capped: u64,
    /// Packets accepted into leaf queues.
    pub enqueued: u64,
    /// Arrivals tail-dropped on a full leaf.
    pub dropped_overflow: u64,
    /// Head drops by the codel AQM on best-effort leaves.
    pub dropped_codel: u64,
    /// Reserved-class arrivals rejected at enqueue by conformance.
    pub dropped_conform: u64,
    /// Queued packets discarded because their reservation was removed.
    pub dropped_teardown: u64,
    /// Packets served per class by the scheduler.
    pub served_pkts: [u64; 3],
    /// Bytes served per class by the scheduler.
    pub served_bytes: [u64; 3],
    /// Bytes served per class *beyond* the class guarantee (scavenged
    /// leftover uplink capacity).
    pub scavenged_bytes: [u64; 3],
    /// Sum of best-effort sojourn times over served packets, ns.
    pub sojourn_ns_sum: u64,
    /// Maximum best-effort sojourn time observed, ns.
    pub sojourn_ns_max: u64,
}

impl QdiscStats {
    /// Folds another shard's counters into this one (sums; max for the
    /// max field).
    pub fn merge(&mut self, other: &QdiscStats) {
        self.admitted += other.admitted;
        self.admitted_bytes += other.admitted_bytes;
        self.rate_limited += other.rate_limited;
        self.host_capped += other.host_capped;
        self.enqueued += other.enqueued;
        self.dropped_overflow += other.dropped_overflow;
        self.dropped_codel += other.dropped_codel;
        self.dropped_conform += other.dropped_conform;
        self.dropped_teardown += other.dropped_teardown;
        for i in 0..3 {
            self.served_pkts[i] += other.served_pkts[i];
            self.served_bytes[i] += other.served_bytes[i];
            self.scavenged_bytes[i] += other.scavenged_bytes[i];
        }
        self.sojourn_ns_sum += other.sojourn_ns_sum;
        self.sojourn_ns_max = self.sojourn_ns_max.max(other.sojourn_ns_max);
    }
}

/// What one [`Qdisc::service`] call moved, per class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceRound {
    /// Bytes served per class this round.
    pub served_bytes: [u64; 3],
    /// Packets served per class this round.
    pub served_pkts: [u64; 3],
    /// Bytes per class served beyond the class guarantee (scavenged).
    pub scavenged_bytes: [u64; 3],
    /// Codel head drops this round.
    pub codel_drops: u64,
}

impl ServiceRound {
    /// Total bytes served this round.
    pub fn total_bytes(&self) -> u64 {
        self.served_bytes.iter().sum()
    }
}

/// Structural audit of the hierarchy (the CServ `audit()` pattern): node
/// counts plus internal-consistency checks, so churn tests can assert
/// conservation and zero leaks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Live reservation nodes.
    pub reservations: usize,
    /// Host meters across all reservations.
    pub host_meters: usize,
    /// Scheduler leaves across all lanes.
    pub leaves: usize,
    /// Packets sitting in leaf queues.
    pub queued_pkts: u64,
    /// Bytes sitting in leaf queues.
    pub queued_bytes: u64,
}

/// The hierarchical per-tenant QoS subsystem: conformance (inline admit)
/// and scheduling (enqueue/service) over one shared four-level tree.
pub struct Qdisc {
    cfg: HtbConfig,
    /// Uplink bucket; `None` = unconstrained.
    root: Option<TokenBucket>,
    /// Class buckets, present only when the uplink is shaped.
    classes: [Option<TokenBucket>; 3],
    res: HashMap<ResId, ResNode, ResIdHashing>,
    lanes: [Lane; 3],
    stats: QdiscStats,
    telemetry: Option<QdiscTelemetry>,
}

impl Qdisc {
    /// Builds the hierarchy at `now`. All buckets start full (a fresh
    /// link has its full burst available), matching the flat gateway's
    /// install behavior.
    pub fn new(cfg: HtbConfig, now: Instant) -> Self {
        assert!(cfg.shares.is_valid(), "class shares must sum to 1000 permille");
        let root = cfg
            .uplink
            .map(|cap| TokenBucket::with_burst_duration(cap, cfg.class_burst, now));
        let classes = if let Some(cap) = cfg.uplink {
            TrafficClass::ALL.map(|c| {
                Some(TokenBucket::with_burst_duration(
                    cfg.shares.guaranteed(c, cap),
                    cfg.class_burst,
                    now,
                ))
            })
        } else {
            [None, None, None]
        };
        Self {
            cfg,
            root,
            classes,
            res: HashMap::default(),
            lanes: [Lane::new(), Lane::new(), Lane::new()],
            stats: QdiscStats::default(),
            telemetry: None,
        }
    }

    /// The configuration the hierarchy was built with.
    pub fn config(&self) -> &HtbConfig {
        &self.cfg
    }

    /// Attaches telemetry under `shard` in `registry`: per-node
    /// drop/shed/scavenge counters and the best-effort sojourn histogram.
    /// Detached qdiscs — the default — pay one predictable branch per
    /// decision.
    pub fn attach_telemetry(&mut self, registry: &Registry, shard: &str) {
        self.telemetry = Some(QdiscTelemetry::new(registry, shard));
    }

    /// Installs (or renews) a reservation node. A renewal **reconfigures**
    /// the node's bucket — settling elapsed time at the old rate and
    /// carrying accumulated tokens over, clamped to the new depth — so a
    /// mid-stream rate change never grants a free burst. Host-cap buckets
    /// are reconfigured the same way.
    ///
    /// The class of a reservation is fixed at first install (the gateway
    /// only ever installs Colibri data); a differing class on renewal is
    /// ignored.
    pub fn install(&mut self, res_id: ResId, class: TrafficClass, rate: Bandwidth, now: Instant) {
        match self.res.get_mut(&res_id) {
            Some(node) => {
                node.rate = rate;
                node.bucket.reconfigure(rate, self.cfg.res_burst, now);
                if let Some(p) = self.cfg.host_cap_permille {
                    let host_rate = host_cap_rate(rate, p);
                    for meter in node.hosts.values_mut() {
                        if let Some(b) = &mut meter.cap {
                            b.reconfigure(host_rate, self.cfg.host_burst, now);
                        }
                    }
                }
            }
            None => {
                self.res.insert(
                    res_id,
                    ResNode {
                        class,
                        rate,
                        bucket: TokenBucket::with_burst_duration(rate, self.cfg.res_burst, now),
                        hosts: HashMap::new(),
                    },
                );
            }
        }
    }

    /// Removes a reservation node, its host meters, and every leaf queue
    /// it owned (queued packets count as `dropped_teardown`). Returns
    /// whether the node existed.
    pub fn remove(&mut self, res_id: ResId) -> bool {
        let Some(node) = self.res.remove(&res_id) else {
            return false;
        };
        let lane = &mut self.lanes[node.class.index()];
        let (pkts, _bytes) = lane.remove_reservation(res_id);
        self.stats.dropped_teardown += pkts;
        if let Some(t) = &self.telemetry {
            t.dropped_teardown.add(pkts);
        }
        true
    }

    /// Number of live reservation nodes.
    pub fn len(&self) -> usize {
        self.res.len()
    }

    /// Whether the hierarchy has no reservation nodes.
    pub fn is_empty(&self) -> bool {
        self.res.is_empty()
    }

    /// The live rate of one reservation node, if present.
    pub fn rate_of(&self, res_id: ResId) -> Option<Bandwidth> {
        self.res.get(&res_id).map(|n| n.rate)
    }

    /// Accumulated counters.
    pub fn stats(&self) -> QdiscStats {
        self.stats
    }

    /// Conformance only: charges the reservation (and host-cap) buckets,
    /// without class/uplink accounting. Shared by [`admit`](Self::admit)
    /// (which adds the accounting) and [`enqueue`](Self::enqueue) (where
    /// the class/uplink charge happens at service time instead — never
    /// both, so bytes are accounted exactly once).
    fn conform(
        &mut self,
        res_id: ResId,
        host: HostAddr,
        bytes: u64,
        now: Instant,
    ) -> Result<TrafficClass, AdmitError> {
        let cap_permille = self.cfg.host_cap_permille;
        let host_burst = self.cfg.host_burst;
        let Some(node) = self.res.get_mut(&res_id) else {
            return Err(AdmitError::UnknownReservation(res_id));
        };
        // Host level first, *check-only*: a host-capped packet must not
        // burn reservation tokens.
        let rate = node.rate;
        let meter = node.hosts.entry(host).or_insert_with(|| HostMeter {
            cap: cap_permille.map(|p| {
                TokenBucket::with_burst_duration(host_cap_rate(rate, p), host_burst, now)
            }),
            admitted_bytes: 0,
        });
        if let Some(cap) = &mut meter.cap {
            if !cap.conforms(bytes, now) {
                self.stats.host_capped += 1;
                if let Some(t) = &self.telemetry {
                    t.host_capped.inc();
                }
                return Err(AdmitError::HostCapped(res_id, host));
            }
        }
        // Reservation level: the deterministic monitoring function.
        if !node.bucket.try_consume(bytes, now) {
            self.stats.rate_limited += 1;
            if let Some(t) = &self.telemetry {
                t.rate_limited.inc();
            }
            return Err(AdmitError::RateLimited(res_id));
        }
        // Commit the host charge (conformance was pre-checked above, so
        // this consume always succeeds).
        let meter = node.hosts.get_mut(&host).expect("meter just ensured");
        if let Some(cap) = &mut meter.cap {
            let ok = cap.try_consume(bytes, now);
            debug_assert!(ok, "host cap conformed but failed to consume");
        }
        meter.admitted_bytes += bytes;
        Ok(node.class)
    }

    /// The gateway's inline per-packet verdict: walks host → reservation
    /// conformance, then accounts the admitted bytes at the class and
    /// uplink levels (saturating — inner nodes record usage for scavenge
    /// decisions, they never overrule the reservation-level verdict).
    ///
    /// With the degenerate configuration this is *exactly* one
    /// `TokenBucket::try_consume` on the reservation node — bit-identical
    /// to the flat gateway monitor.
    pub fn admit(
        &mut self,
        res_id: ResId,
        host: HostAddr,
        bytes: u64,
        now: Instant,
    ) -> Result<(), AdmitError> {
        let class = self.conform(res_id, host, bytes, now)?;
        if let Some(b) = &mut self.classes[class.index()] {
            b.consume_saturating(bytes, now);
        }
        if let Some(b) = &mut self.root {
            b.consume_saturating(bytes, now);
        }
        self.stats.admitted += 1;
        self.stats.admitted_bytes += bytes;
        if let Some(t) = &self.telemetry {
            t.admitted.inc();
        }
        Ok(())
    }

    /// Queues one packet on its leaf for a later [`service`](Self::service)
    /// round. Reserved classes (`res = Some`) pass conformance first —
    /// packets beyond the reservation's rate are dropped here
    /// (`dropped_conform`), so reserved leaf queues only ever hold
    /// conformant traffic. Best-effort (`res = None`) is never
    /// rate-checked; it tail-drops on a full leaf and is codel-managed at
    /// dequeue.
    pub fn enqueue(
        &mut self,
        class: TrafficClass,
        res: Option<ResId>,
        host: HostAddr,
        bytes: u64,
        now: Instant,
    ) -> Result<(), EnqueueError> {
        if let Some(res_id) = res {
            if let Err(e) = self.conform(res_id, host, bytes, now) {
                self.stats.dropped_conform += 1;
                if let Some(t) = &self.telemetry {
                    t.dropped_conform.inc();
                }
                return Err(EnqueueError::NotConformant(e));
            }
        }
        let lane = &mut self.lanes[class.index()];
        let leaf = lane.get_or_create(LeafId { res, host }, self.cfg.codel);
        if leaf.queued_bytes + bytes > self.cfg.leaf_cap_bytes {
            self.stats.dropped_overflow += 1;
            if let Some(t) = &self.telemetry {
                t.dropped_overflow.inc();
            }
            return Err(EnqueueError::Overflow);
        }
        leaf.push(bytes, now);
        self.stats.enqueued += 1;
        if let Some(t) = &self.telemetry {
            t.enqueued.inc();
        }
        Ok(())
    }

    /// One service round at `now`: serves queued packets against the
    /// uplink's accumulated tokens, strict-priority across classes with
    /// each class first held to its guarantee, then leftover uplink
    /// capacity granted in priority order (scavenging). DRR arbitrates
    /// sibling leaves inside a class; best-effort leaves run codel head
    /// drop at dequeue.
    ///
    /// With no uplink configured the round simply drains every queue (the
    /// degenerate hierarchy does not shape).
    pub fn service(&mut self, now: Instant) -> ServiceRound {
        const INF: u128 = u128::MAX / 2;
        let mut round = ServiceRound::default();
        let quantum = self.cfg.quantum;
        let mut root_avail = match &mut self.root {
            Some(b) => b.available_nanobytes(now),
            None => INF,
        };
        // Phase 1 — guarantees, strict priority order.
        for class in TrafficClass::ALL {
            let i = class.index();
            let class_avail = match &mut self.classes[i] {
                Some(b) => b.available_nanobytes(now),
                None => INF,
            };
            let budget = class_avail.min(root_avail);
            let served =
                self.lanes[i].drr_serve(budget, quantum, now, class == TrafficClass::BestEffort);
            if let Some(b) = &mut self.classes[i] {
                b.debit_nanobytes(served.nanobytes);
            }
            root_avail -= served.nanobytes.min(root_avail);
            self.record_served(&mut round, class, served);
        }
        // Phase 2 — scavenge the leftover, strict priority order. Bytes
        // served here exceed the class guarantee by definition; the class
        // bucket is not debited (it is already dry or the class is
        // borrowing), only the uplink pays.
        for class in TrafficClass::ALL {
            if root_avail == 0 {
                break;
            }
            let i = class.index();
            let served =
                self.lanes[i].drr_serve(root_avail, quantum, now, class == TrafficClass::BestEffort);
            root_avail -= served.nanobytes.min(root_avail);
            let bytes = (served.nanobytes / 1_000_000_000) as u64;
            round.scavenged_bytes[i] += bytes;
            self.stats.scavenged_bytes[i] += bytes;
            if let Some(t) = &self.telemetry {
                t.scavenged_bytes[i].add(bytes);
            }
            self.record_served(&mut round, class, served);
        }
        if let Some(b) = &mut self.root {
            let have = b.available_nanobytes(now);
            b.debit_nanobytes(have - root_avail.min(have));
        }
        round
    }

    fn record_served(
        &mut self,
        round: &mut ServiceRound,
        class: TrafficClass,
        served: crate::sched::LaneServed,
    ) {
        let i = class.index();
        let bytes = (served.nanobytes / 1_000_000_000) as u64;
        round.served_bytes[i] += bytes;
        round.served_pkts[i] += served.pkts;
        round.codel_drops += served.codel_drops;
        self.stats.served_bytes[i] += bytes;
        self.stats.served_pkts[i] += served.pkts;
        self.stats.dropped_codel += served.codel_drops;
        if let Some(t) = &self.telemetry {
            t.served_bytes[i].add(bytes);
            t.served_pkts[i].add(served.pkts);
            t.dropped_codel.add(served.codel_drops);
        }
        for ns in served.sojourns_ns {
            self.stats.sojourn_ns_sum += ns;
            self.stats.sojourn_ns_max = self.stats.sojourn_ns_max.max(ns);
            if let Some(t) = &self.telemetry {
                t.sojourn_ns.observe(ns);
            }
        }
    }

    /// Structural audit: verifies that every leaf belongs to a live
    /// reservation (or is best-effort), that per-leaf byte counters match
    /// their queues, and that the lane indexes are consistent; returns the
    /// node counts. Churn tests assert conservation through this.
    pub fn audit(&self) -> Result<AuditReport, String> {
        let mut report = AuditReport {
            reservations: self.res.len(),
            host_meters: self.res.values().map(|n| n.hosts.len()).sum(),
            ..AuditReport::default()
        };
        for (ci, lane) in self.lanes.iter().enumerate() {
            let (leaves, pkts, bytes) = lane.audit().map_err(|e| format!("lane {ci}: {e}"))?;
            report.leaves += leaves;
            report.queued_pkts += pkts;
            report.queued_bytes += bytes;
            for id in lane.leaf_ids() {
                if let Some(res_id) = id.res {
                    let Some(node) = self.res.get(&res_id) else {
                        return Err(format!("lane {ci}: leaked leaf for removed {res_id:?}"));
                    };
                    if node.class.index() != ci {
                        return Err(format!("lane {ci}: leaf {res_id:?} in wrong class lane"));
                    }
                }
            }
        }
        Ok(report)
    }
}

/// The per-host cap rate: `rate · permille / 1000`, integer arithmetic.
fn host_cap_rate(rate: Bandwidth, permille: u32) -> Bandwidth {
    Bandwidth((rate.as_bps() as u128 * permille as u128 / 1000) as u64)
}

impl std::fmt::Debug for Qdisc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Qdisc")
            .field("reservations", &self.res.len())
            .field("shaped", &self.root.is_some())
            .field("stats", &self.stats)
            .finish()
    }
}

//! Deterministic, seeded fault injection for the simulator.
//!
//! A [`FaultPlan`] is a complete, declarative description of everything
//! that goes wrong in a run: per-link drop probabilities, fixed delay
//! plus random jitter, scheduled link-down intervals, CServ crash /
//! restart events, and per-AS clock skew. Every random decision is drawn
//! from a [`FaultRng`] seeded from the plan, so the same plan produces
//! bit-identical event traces and delivery meters on every run — that is
//! what makes partial-failure bugs reproducible enough to debug.
//!
//! The plan plugs into both layers of the simulator:
//!
//! - **Control plane** — [`FaultyChannel`] implements
//!   [`colibri_ctrl::ControlChannel`], so the retrying setup drivers in
//!   `colibri_ctrl::reliable` experience losses, latency, down links and
//!   crashed CServs exactly as scheduled. Every delivery attempt is
//!   recorded in an ordered [`TraceEvent`] log for replay comparison.
//! - **Data plane** — [`PacketFaults`] attaches to a
//!   [`crate::net::SimNet`] and drops / delays simulated packets on the
//!   links named by the plan.
//!
//! Crash *recovery* is driven by [`apply_restarts`]: as simulated time
//! passes each scheduled restart, the crashed AS's
//! [`colibri_ctrl::CServ`] is rebuilt from its durable reservation store
//! via `CServ::recover()`, which also self-checks the rebuilt admission
//! aggregates against a from-scratch recomputation.

#![deny(missing_docs)]

use colibri_base::{Duration, Instant, IsdAsId};
use colibri_ctrl::setup::CservRegistry;
use colibri_ctrl::{ControlChannel, Delivery};
use std::collections::HashMap;

/// SplitMix64 — a tiny, deterministic, seedable generator. Every fault
/// decision in a run is drawn from one of these, so a (plan, seed) pair
/// fully determines the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// True with probability `ppm` parts-per-million.
    pub fn chance_ppm(&mut self, ppm: u32) -> bool {
        self.next_u64() % 1_000_000 < u64::from(ppm)
    }

    /// A uniformly random duration in `[0, max]`.
    pub fn jitter(&mut self, max: Duration) -> Duration {
        let m = max.as_nanos();
        if m == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.next_u64() % m.saturating_add(1))
    }
}

/// Fault parameters of one directed link.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkFaults {
    /// Probability of dropping each message / packet, in parts-per-million.
    pub drop_ppm: u32,
    /// Fixed one-way delay added to every delivery.
    pub delay: Duration,
    /// Maximum random extra delay added on top of `delay`.
    pub jitter: Duration,
    /// Half-open `[start, end)` intervals during which the link is down:
    /// everything sent inside one is rejected as [`Delivery::Down`].
    pub down: Vec<(Instant, Instant)>,
}

impl LinkFaults {
    /// A lossy-but-up link dropping with probability `drop_ppm` ppm.
    pub fn lossy(drop_ppm: u32) -> Self {
        Self { drop_ppm, ..Self::default() }
    }

    /// Sets the fixed one-way delay.
    pub fn with_delay(mut self, delay: Duration) -> Self {
        self.delay = delay;
        self
    }

    /// Sets the maximum random jitter.
    pub fn with_jitter(mut self, jitter: Duration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Schedules a down interval `[start, end)`.
    pub fn with_down(mut self, start: Instant, end: Instant) -> Self {
        self.down.push((start, end));
        self
    }

    /// Whether the link is inside a scheduled down interval at `now`.
    pub fn is_down(&self, now: Instant) -> bool {
        self.down.iter().any(|&(s, e)| s <= now && now < e)
    }
}

/// A scheduled CServ crash: the service is unreachable from `at`
/// (exclusive of `restart_at`), then restarts and recovers its admission
/// state from the reservation store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The AS whose CServ crashes.
    pub as_id: IsdAsId,
    /// When the crash happens.
    pub at: Instant,
    /// When the service is back up (after recovery).
    pub restart_at: Instant,
}

/// A correlated regional outage: during `[start, end)` every link
/// touching a member AS is [`Delivery::Down`] and the members' CServs
/// are unreachable (`node_up` false). Unlike a [`CrashEvent`] the
/// services themselves never die — when the region comes back no
/// recovery pass runs, because their in-memory state was never lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionalOutage {
    /// The ASes inside the failed region.
    pub members: Vec<IsdAsId>,
    /// When the outage starts.
    pub start: Instant,
    /// When connectivity is restored (half-open: up again at `end`).
    pub end: Instant,
}

impl RegionalOutage {
    /// Whether the outage is active at `now`.
    pub fn active(&self, now: Instant) -> bool {
        self.start <= now && now < self.end
    }

    /// Whether `as_id` is inside the failed region.
    pub fn contains(&self, as_id: IsdAsId) -> bool {
        self.members.contains(&as_id)
    }
}

/// A gray failure on one directed link: extra loss and latency ramp up
/// linearly from zero at `start` to the peak at `end`, while the
/// destination keeps answering liveness checks (`node_up` stays true).
/// This is the failure mode circuit breakers exist for — the link is
/// "up" by every health signal yet increasingly useless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrayFailure {
    /// Sending AS of the degraded directed link.
    pub from: IsdAsId,
    /// Receiving AS of the degraded directed link.
    pub to: IsdAsId,
    /// When the degradation starts (zero extra loss/delay).
    pub start: Instant,
    /// When the ramp tops out; the failure is resolved at `end`.
    pub end: Instant,
    /// Extra drop probability at the top of the ramp, parts-per-million.
    pub peak_drop_ppm: u32,
    /// Extra one-way delay at the top of the ramp.
    pub peak_delay: Duration,
}

impl GrayFailure {
    /// The extra (drop_ppm, delay) this failure contributes at `now`:
    /// zero outside `[start, end)`, linear in elapsed time inside it.
    pub fn extra_at(&self, now: Instant) -> (u32, Duration) {
        if now < self.start || now >= self.end {
            return (0, Duration::ZERO);
        }
        let span = self.end.saturating_since(self.start).as_nanos();
        if span == 0 {
            return (0, Duration::ZERO);
        }
        let elapsed = now.saturating_since(self.start).as_nanos();
        let ppm = (u128::from(self.peak_drop_ppm) * u128::from(elapsed) / u128::from(span)) as u32;
        let delay_ns =
            (u128::from(self.peak_delay.as_nanos()) * u128::from(elapsed) / u128::from(span)) as u64;
        (ppm, Duration::from_nanos(delay_ns))
    }
}

/// A scheduled CServ overload: during `[from, until)` the AS's admission
/// service times are inflated by `factor_milli / 1000` (so 4000 = 4×
/// slower). Applied to live services by [`apply_overloads`]; a no-op for
/// CServs without load shedding enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadEvent {
    /// The overloaded AS.
    pub as_id: IsdAsId,
    /// When the overload starts.
    pub from: Instant,
    /// When service times return to nominal (half-open interval).
    pub until: Instant,
    /// Service-time multiplier in milli-units (1000 = nominal).
    pub factor_milli: u32,
}

/// A complete, declarative fault schedule for one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for every pseudo-random fault decision.
    pub seed: u64,
    /// Faults applied to links with no per-link override.
    pub default_link: LinkFaults,
    /// Per-directed-link overrides, keyed by `(from, to)`.
    pub per_link: HashMap<(IsdAsId, IsdAsId), LinkFaults>,
    /// Scheduled CServ crashes.
    pub crashes: Vec<CrashEvent>,
    /// Correlated regional outages.
    pub regional_outages: Vec<RegionalOutage>,
    /// Gray failures: loss/latency ramps on individual links.
    pub gray_failures: Vec<GrayFailure>,
    /// Scheduled CServ service-time inflations.
    pub overloads: Vec<OverloadEvent>,
    /// Per-AS clock skew in signed nanoseconds (positive = fast clock),
    /// mirroring the paper's ±0.1 s synchronization assumption (§2.3).
    pub clock_skews: HashMap<IsdAsId, i64>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// Sets the default link faults.
    pub fn with_default_faults(mut self, faults: LinkFaults) -> Self {
        self.default_link = faults;
        self
    }

    /// Overrides the faults of the directed link `from → to`.
    pub fn with_link(mut self, from: IsdAsId, to: IsdAsId, faults: LinkFaults) -> Self {
        self.per_link.insert((from, to), faults);
        self
    }

    /// Schedules a CServ crash.
    pub fn with_crash(mut self, as_id: IsdAsId, at: Instant, restart_at: Instant) -> Self {
        self.crashes.push(CrashEvent { as_id, at, restart_at });
        self
    }

    /// Sets an AS's clock skew (signed nanoseconds).
    pub fn with_clock_skew(mut self, as_id: IsdAsId, skew_ns: i64) -> Self {
        self.clock_skews.insert(as_id, skew_ns);
        self
    }

    /// Schedules a correlated regional outage over `members`.
    pub fn with_regional_outage(
        mut self,
        members: Vec<IsdAsId>,
        start: Instant,
        end: Instant,
    ) -> Self {
        self.regional_outages.push(RegionalOutage { members, start, end });
        self
    }

    /// Schedules a gray failure on the directed link `from → to`.
    pub fn with_gray_failure(mut self, gray: GrayFailure) -> Self {
        self.gray_failures.push(gray);
        self
    }

    /// Schedules a CServ overload window.
    pub fn with_overload(
        mut self,
        as_id: IsdAsId,
        from: Instant,
        until: Instant,
        factor_milli: u32,
    ) -> Self {
        self.overloads.push(OverloadEvent { as_id, from, until, factor_milli });
        self
    }

    /// Whether `as_id`'s CServ is inside a crash window at `now`.
    pub fn is_crashed(&self, as_id: IsdAsId, now: Instant) -> bool {
        self.crashes.iter().any(|c| c.as_id == as_id && c.at <= now && now < c.restart_at)
    }

    /// Whether the directed link `from → to` is severed by an active
    /// regional outage at `now`.
    pub fn regionally_down(&self, from: IsdAsId, to: IsdAsId, now: Instant) -> bool {
        self.regional_outages
            .iter()
            .any(|o| o.active(now) && (o.contains(from) || o.contains(to)))
    }

    /// Whether `as_id` is inside an active regional outage at `now`.
    pub fn in_regional_outage(&self, as_id: IsdAsId, now: Instant) -> bool {
        self.regional_outages.iter().any(|o| o.active(now) && o.contains(as_id))
    }

    /// The total extra (drop_ppm, delay) from gray failures active on
    /// the directed link `from → to` at `now`. Drop probability is
    /// capped at 1_000_000 ppm.
    pub fn gray_extra(&self, from: IsdAsId, to: IsdAsId, now: Instant) -> (u32, Duration) {
        let mut ppm: u32 = 0;
        let mut delay = Duration::ZERO;
        for g in &self.gray_failures {
            if g.from == from && g.to == to {
                let (p, d) = g.extra_at(now);
                ppm = ppm.saturating_add(p).min(1_000_000);
                delay = delay.saturating_add(d);
            }
        }
        (ppm, delay)
    }

    /// The admission service-time inflation for `as_id` at `now`: the
    /// maximum `factor_milli` over active overload windows, or 1000
    /// (nominal) when none is active.
    pub fn service_factor_milli(&self, as_id: IsdAsId, now: Instant) -> u32 {
        self.overloads
            .iter()
            .filter(|o| o.as_id == as_id && o.from <= now && now < o.until)
            .map(|o| o.factor_milli)
            .max()
            .unwrap_or(1000)
    }

    /// A control-plane channel realizing this plan.
    pub fn channel(&self) -> FaultyChannel {
        FaultyChannel::new(self.clone())
    }

    /// Applies the plan's clock skews to the simulated nodes.
    pub fn apply_clock_skews(&self, net: &mut crate::net::SimNet) {
        for (&as_id, &skew) in &self.clock_skews {
            net.node_mut(as_id).clock_skew = skew;
        }
    }
}

/// One recorded control-message delivery attempt. The ordered trace of
/// these is the replay-determinism witness: two runs of the same plan
/// must produce identical traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Sending AS.
    pub from: IsdAsId,
    /// Receiving AS.
    pub to: IsdAsId,
    /// Send time.
    pub at: Instant,
    /// What happened to the leg.
    pub outcome: Delivery,
}

/// A [`ControlChannel`] that realizes a [`FaultPlan`]: deterministic
/// drops, delays, down intervals and crash windows, with a full event
/// trace for replay comparison.
#[derive(Debug, Clone)]
pub struct FaultyChannel {
    plan: FaultPlan,
    rng: FaultRng,
    trace: Vec<TraceEvent>,
    /// Ring capacity: `None` keeps the full unbounded trace (the
    /// default, so replay comparison sees every event); `Some(n)` keeps
    /// only the most recent `n` events and counts the evicted ones.
    trace_capacity: Option<usize>,
    /// Next overwrite position when the ring is full.
    trace_head: usize,
    /// Events evicted from (or refused by) a bounded trace ring.
    pub trace_dropped: u64,
    /// Legs delivered.
    pub delivered: u64,
    /// Legs dropped in transit.
    pub lost: u64,
    /// Legs rejected because the link was down.
    pub down: u64,
}

impl FaultyChannel {
    /// A channel realizing `plan`, with its RNG seeded from the plan.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = FaultRng::new(plan.seed);
        Self {
            plan,
            rng,
            trace: Vec::new(),
            trace_capacity: None,
            trace_head: 0,
            trace_dropped: 0,
            delivered: 0,
            lost: 0,
            down: 0,
        }
    }

    /// Bounds the trace log to the most recent `capacity` events (a
    /// ring buffer). Long chaos runs use this to keep memory flat;
    /// evicted events are counted in `trace_dropped`. A capacity of 0
    /// disables tracing entirely.
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// The ordered trace of delivery attempts still retained, oldest
    /// first. With a bounded ring this is the most recent
    /// `trace_capacity` events; by default it is every event.
    pub fn trace(&self) -> Vec<TraceEvent> {
        match self.trace_capacity {
            Some(cap) if self.trace.len() == cap && cap > 0 => {
                let mut out = Vec::with_capacity(cap);
                out.extend_from_slice(&self.trace[self.trace_head..]);
                out.extend_from_slice(&self.trace[..self.trace_head]);
                out
            }
            _ => self.trace.clone(),
        }
    }

    fn record(&mut self, ev: TraceEvent) {
        match self.trace_capacity {
            None => self.trace.push(ev),
            Some(0) => self.trace_dropped += 1,
            Some(cap) => {
                if self.trace.len() < cap {
                    self.trace.push(ev);
                } else {
                    self.trace[self.trace_head] = ev;
                    self.trace_head = (self.trace_head + 1) % cap;
                    self.trace_dropped += 1;
                }
            }
        }
    }

    /// Total delivery attempts observed.
    pub fn attempts(&self) -> u64 {
        self.delivered + self.lost + self.down
    }

    /// The plan this channel realizes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl ControlChannel for FaultyChannel {
    fn deliver(&mut self, from: IsdAsId, to: IsdAsId, now: Instant) -> Delivery {
        let faults = self.plan.per_link.get(&(from, to)).unwrap_or(&self.plan.default_link);
        let (gray_ppm, gray_delay) = self.plan.gray_extra(from, to, now);
        let drop_ppm = faults.drop_ppm.saturating_add(gray_ppm).min(1_000_000);
        let outcome = if faults.is_down(now) || self.plan.regionally_down(from, to, now) {
            Delivery::Down
        } else if self.rng.chance_ppm(drop_ppm) {
            Delivery::Lost
        } else {
            Delivery::Delivered(
                faults
                    .delay
                    .saturating_add(gray_delay)
                    .saturating_add(self.rng.jitter(faults.jitter)),
            )
        };
        match outcome {
            Delivery::Delivered(_) => self.delivered += 1,
            Delivery::Lost => self.lost += 1,
            Delivery::Down => self.down += 1,
        }
        self.record(TraceEvent { from, to, at: now, outcome });
        outcome
    }

    fn node_up(&self, as_id: IsdAsId, now: Instant) -> bool {
        // Gray failures deliberately leave `node_up` true — the service
        // answers health checks while its link rots underneath it.
        !self.plan.is_crashed(as_id, now) && !self.plan.in_regional_outage(as_id, now)
    }
}

/// Restarts every CServ whose scheduled restart time falls in
/// `(prev, now]`: the in-memory service state is rebuilt from the
/// durable reservation store by [`colibri_ctrl::CServ::recover`], whose
/// aggregate self-check panics the simulation if the rebuilt admission
/// state is inconsistent. Returns the recovered ASes (sorted, for
/// deterministic logs).
pub fn apply_restarts(
    plan: &FaultPlan,
    reg: &mut CservRegistry,
    prev: Instant,
    now: Instant,
) -> Vec<IsdAsId> {
    let mut recovered = Vec::new();
    for c in &plan.crashes {
        if c.restart_at > prev && c.restart_at <= now && !recovered.contains(&c.as_id) {
            if let Some(cserv) = reg.get_mut(c.as_id) {
                cserv.recover(c.restart_at).expect("post-crash recovery self-check failed");
                recovered.push(c.as_id);
            }
        }
    }
    recovered.sort_unstable();
    recovered
}

/// Applies the plan's scheduled overloads to the live CServs: every AS
/// named by an [`OverloadEvent`] gets its admission service factor set
/// to the plan's value at `now` (1000 = nominal once the window ends).
/// Call on each simulation tick, like [`apply_restarts`].
pub fn apply_overloads(plan: &FaultPlan, reg: &mut CservRegistry, now: Instant) {
    let mut seen = Vec::new();
    for o in &plan.overloads {
        if seen.contains(&o.as_id) {
            continue;
        }
        seen.push(o.as_id);
        if let Some(cserv) = reg.get_mut(o.as_id) {
            cserv.set_service_factor_milli(plan.service_factor_milli(o.as_id, now));
        }
    }
}

/// Packet-level fault state attached to a [`crate::net::SimNet`]: drops
/// and delays simulated data-plane packets per the plan, with counters.
#[derive(Debug, Clone)]
pub struct PacketFaults {
    plan: FaultPlan,
    rng: FaultRng,
    /// Packets deliberately dropped by fault injection (distinct from
    /// queue-overflow tail drops, which the links count themselves).
    pub injected_drops: u64,
    /// Packets delivered late because of injected delay/jitter.
    pub delayed: u64,
}

impl PacketFaults {
    /// Packet-fault state realizing `plan`. The RNG is seeded from the
    /// plan seed XOR a domain tag, so control-plane and packet-level
    /// decisions are independent streams of the same master seed.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = FaultRng::new(plan.seed ^ 0x7061_636B_6574_7321);
        Self { plan, rng, injected_drops: 0, delayed: 0 }
    }

    /// Decides the fate of one packet traversing `from → to` at `now`:
    /// `None` means drop; `Some(extra)` means deliver after `extra`
    /// additional propagation delay.
    pub fn packet_fate(&mut self, from: IsdAsId, to: IsdAsId, now: Instant) -> Option<Duration> {
        let faults = self.plan.per_link.get(&(from, to)).unwrap_or(&self.plan.default_link);
        let (gray_ppm, gray_delay) = self.plan.gray_extra(from, to, now);
        let drop_ppm = faults.drop_ppm.saturating_add(gray_ppm).min(1_000_000);
        if faults.is_down(now)
            || self.plan.regionally_down(from, to, now)
            || self.rng.chance_ppm(drop_ppm)
        {
            self.injected_drops += 1;
            return None;
        }
        let extra = faults
            .delay
            .saturating_add(gray_delay)
            .saturating_add(self.rng.jitter(faults.jitter));
        if extra > Duration::ZERO {
            self.delayed += 1;
        }
        Some(extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> IsdAsId {
        IsdAsId::new(1, 10)
    }
    fn b() -> IsdAsId {
        IsdAsId::new(2, 20)
    }

    #[test]
    fn same_seed_same_trace() {
        let plan = FaultPlan::new(42).with_default_faults(
            LinkFaults::lossy(300_000)
                .with_delay(Duration::from_millis(5))
                .with_jitter(Duration::from_millis(3)),
        );
        let mut c1 = plan.channel();
        let mut c2 = plan.channel();
        for i in 0..200u64 {
            let t = Instant::from_nanos(i * 1_000_000);
            c1.deliver(a(), b(), t);
            c2.deliver(a(), b(), t);
        }
        assert_eq!(c1.trace(), c2.trace());
        assert!(c1.lost > 0, "30% drop over 200 legs must lose some");
        assert!(c1.delivered > 0);
    }

    #[test]
    fn different_seed_different_trace() {
        let mk = |seed| {
            FaultPlan::new(seed).with_default_faults(LinkFaults::lossy(500_000))
        };
        let mut c1 = mk(1).channel();
        let mut c2 = mk(2).channel();
        for i in 0..64u64 {
            let t = Instant::from_nanos(i);
            c1.deliver(a(), b(), t);
            c2.deliver(a(), b(), t);
        }
        assert_ne!(c1.trace(), c2.trace());
    }

    #[test]
    fn down_interval_and_crash_window_apply() {
        let t0 = Instant::from_secs(10);
        let t1 = Instant::from_secs(20);
        let plan = FaultPlan::new(7)
            .with_link(a(), b(), LinkFaults::default().with_down(t0, t1))
            .with_crash(b(), t0, t1);
        let mut ch = plan.channel();
        assert_eq!(ch.deliver(a(), b(), Instant::from_secs(15)), Delivery::Down);
        assert!(matches!(ch.deliver(a(), b(), Instant::from_secs(21)), Delivery::Delivered(_)));
        // Crash windows are half-open: down at `at`, up again at `restart_at`.
        assert!(ch.node_up(b(), Instant::from_secs(9)));
        assert!(!ch.node_up(b(), Instant::from_secs(10)));
        assert!(!ch.node_up(b(), Instant::from_secs(19)));
        assert!(ch.node_up(b(), Instant::from_secs(20)));
        // The reverse direction is unaffected by the per-link override.
        assert!(matches!(ch.deliver(b(), a(), Instant::from_secs(15)), Delivery::Delivered(_)));
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plan = FaultPlan::new(99).with_default_faults(LinkFaults::lossy(100_000)); // 10%
        let mut ch = plan.channel();
        for i in 0..10_000u64 {
            ch.deliver(a(), b(), Instant::from_nanos(i));
        }
        let rate = ch.lost as f64 / ch.attempts() as f64;
        assert!((0.07..0.13).contains(&rate), "10% nominal, saw {rate}");
    }

    #[test]
    fn regional_outage_downs_member_links_while_state_survives() {
        let t0 = Instant::from_secs(100);
        let t1 = Instant::from_secs(130);
        let c = IsdAsId::new(3, 30);
        let plan = FaultPlan::new(11).with_regional_outage(vec![a(), c], t0, t1);
        let mut ch = plan.channel();
        // Every link touching a member is down during the window, in
        // both directions; outsider↔outsider traffic is unaffected.
        let mid = Instant::from_secs(115);
        assert_eq!(ch.deliver(b(), a(), mid), Delivery::Down);
        assert_eq!(ch.deliver(a(), b(), mid), Delivery::Down);
        assert_eq!(ch.deliver(c, b(), mid), Delivery::Down);
        assert!(matches!(ch.deliver(b(), b(), mid), Delivery::Delivered(_)));
        // Members are unreachable during the window but were never
        // crashed: they come back at `end` without any restart event
        // (apply_restarts has nothing scheduled for them).
        assert!(!ch.node_up(a(), mid));
        assert!(!ch.node_up(c, mid));
        assert!(ch.node_up(b(), mid));
        assert!(ch.node_up(a(), t1));
        assert!(matches!(ch.deliver(b(), a(), t1), Delivery::Delivered(_)));
        assert!(plan.crashes.is_empty());
    }

    #[test]
    fn gray_failure_ramps_loss_and_delay_while_node_stays_up() {
        let gray = GrayFailure {
            from: a(),
            to: b(),
            start: Instant::from_secs(0),
            end: Instant::from_secs(100),
            peak_drop_ppm: 800_000,
            peak_delay: Duration::from_millis(40),
        };
        let plan = FaultPlan::new(21).with_gray_failure(gray);
        // The ramp is linear: halfway through, half the peak.
        assert_eq!(plan.gray_extra(a(), b(), Instant::from_secs(50)), (
            400_000,
            Duration::from_millis(20)
        ));
        assert_eq!(plan.gray_extra(a(), b(), Instant::from_secs(0)), (0, Duration::ZERO));
        assert_eq!(plan.gray_extra(a(), b(), Instant::from_secs(100)), (0, Duration::ZERO));
        assert_eq!(plan.gray_extra(b(), a(), Instant::from_secs(50)), (0, Duration::ZERO));
        // Empirically: losses concentrate late in the ramp, and the
        // destination keeps answering liveness checks throughout.
        let mut ch = plan.channel();
        let mut early_lost = 0u64;
        let mut late_lost = 0u64;
        for i in 0..1_000u64 {
            let t_early = Instant::from_nanos(i * 10_000_000); // first 10 s
            let t_late = Instant::from_nanos(90_000_000_000 + i * 10_000_000); // last 10 s
            if ch.deliver(a(), b(), t_early) == Delivery::Lost {
                early_lost += 1;
            }
            if ch.deliver(a(), b(), t_late) == Delivery::Lost {
                late_lost += 1;
            }
            assert!(ch.node_up(b(), t_late), "gray failure must not look like a crash");
        }
        assert!(early_lost < 120, "≈4% nominal early, saw {early_lost}/1000");
        assert!(late_lost > 650, "≈76% nominal late, saw {late_lost}/1000");
        // Packet-level injection sees the same ramp.
        let mut pf = PacketFaults::new(plan);
        let fate = pf.packet_fate(a(), b(), Instant::from_secs(50));
        if let Some(extra) = fate {
            assert!(extra >= Duration::from_millis(20));
        }
    }

    #[test]
    fn overload_schedule_inflates_service_factor() {
        use colibri_ctrl::{CServ, CservConfig, ShedConfig};
        let t0 = Instant::from_secs(10);
        let t1 = Instant::from_secs(20);
        let plan = FaultPlan::new(3)
            .with_overload(a(), t0, t1, 4000)
            .with_overload(a(), Instant::from_secs(12), Instant::from_secs(14), 2000);
        // Max over active windows; nominal outside them.
        assert_eq!(plan.service_factor_milli(a(), Instant::from_secs(9)), 1000);
        assert_eq!(plan.service_factor_milli(a(), Instant::from_secs(13)), 4000);
        assert_eq!(plan.service_factor_milli(a(), t1), 1000);
        assert_eq!(plan.service_factor_milli(b(), Instant::from_secs(13)), 1000);
        // apply_overloads pushes the factor into live CServs and resets
        // it to nominal once the window passes.
        let mut reg = CservRegistry::new();
        let mut cserv = CServ::new(
            a(),
            &[7u8; 16],
            CservConfig::default(),
            Box::new(colibri_ctrl::policy::AllowAll),
        );
        cserv.enable_shedding(ShedConfig::default(), Instant::EPOCH);
        reg.insert(cserv);
        apply_overloads(&plan, &mut reg, Instant::from_secs(13));
        assert_eq!(reg.get(a()).unwrap().service_factor_milli(), 4000);
        apply_overloads(&plan, &mut reg, Instant::from_secs(25));
        assert_eq!(reg.get(a()).unwrap().service_factor_milli(), 1000);
    }

    #[test]
    fn bounded_trace_ring_keeps_newest_and_counts_drops() {
        let plan = FaultPlan::new(42).with_default_faults(LinkFaults::lossy(300_000));
        let mut full = plan.channel();
        let mut ring = plan.channel().with_trace_capacity(8);
        for i in 0..20u64 {
            let t = Instant::from_nanos(i);
            full.deliver(a(), b(), t);
            ring.deliver(a(), b(), t);
        }
        assert_eq!(ring.trace_dropped, 12);
        assert_eq!(ring.trace(), full.trace()[12..].to_vec());
        // Fault decisions are untouched by the trace bound.
        assert_eq!((ring.delivered, ring.lost, ring.down), (full.delivered, full.lost, full.down));
        // Capacity 0 disables tracing but still counts.
        let mut off = plan.channel().with_trace_capacity(0);
        off.deliver(a(), b(), Instant::EPOCH);
        assert!(off.trace().is_empty());
        assert_eq!(off.trace_dropped, 1);
    }

    #[test]
    fn packet_fate_is_deterministic_and_counts() {
        let plan = FaultPlan::new(5).with_default_faults(
            LinkFaults::lossy(250_000).with_jitter(Duration::from_micros(50)),
        );
        let mut p1 = PacketFaults::new(plan.clone());
        let mut p2 = PacketFaults::new(plan);
        let fates1: Vec<_> =
            (0..500u64).map(|i| p1.packet_fate(a(), b(), Instant::from_nanos(i))).collect();
        let fates2: Vec<_> =
            (0..500u64).map(|i| p2.packet_fate(a(), b(), Instant::from_nanos(i))).collect();
        assert_eq!(fates1, fates2);
        assert!(p1.injected_drops > 0);
        assert_eq!(p1.injected_drops, fates1.iter().filter(|f| f.is_none()).count() as u64);
    }
}

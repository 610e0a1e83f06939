//! Client-side overload protection for the retrying setup drivers:
//! per-destination circuit breakers and token-bucket retry budgets.
//!
//! PR 1's retry machinery makes individual setups robust, but it also
//! *amplifies* load during an outage: every client burns its full
//! attempt budget against a dead AS, and a thundering herd of renewals
//! re-hammers a CServ the moment it restarts. This module bounds that
//! amplification on the initiator side:
//!
//! * **Circuit breaker** (per destination AS): closed → open after K
//!   *consecutive* delivery failures → half-open after a deterministic
//!   cooldown, in which exactly one probe attempt is allowed. A
//!   successful probe re-closes the breaker (cooldown resets); a failed
//!   probe re-opens it with the cooldown doubled (capped). While open,
//!   exchanges fast-fail without touching the network, so the load a
//!   downed AS sees is O(probes), not O(clients × retries).
//! * **Retry budget** (per destination AS): a token bucket that earns
//!   a configurable fraction of a token per *first* attempt and spends
//!   one token per *retry*. Sustained retry storms exhaust the bucket
//!   and fast-fail instead of multiplying traffic; occasional retries
//!   ride on the burst allowance.
//!
//! Both state machines are driven exclusively by the virtual clock and
//! the observed delivery outcomes, so a run under a seeded fault plan
//! replays bit-identically. The hooks into the retry loop are the
//! [`ControlChannel::preflight`] / [`ControlChannel::observe`] methods;
//! [`GuardedChannel`] implements them by consulting an
//! [`OverloadControl`] while delegating actual delivery to any inner
//! channel (the simulator's `FaultyChannel`, a `PerfectChannel`, …).

use crate::reliable::{ControlChannel, Delivery, FastFailReason, Preflight};
use colibri_base::{Duration, Instant, IsdAsId};
use colibri_telemetry::{Counter, Gauge, Registry, Stability};
use std::collections::HashMap;

/// Micro-tokens per whole retry token (integer token-bucket arithmetic,
/// so budget accounting is exact and deterministic).
const TOKEN: u64 = 1_000_000;

/// Tuning knobs for the per-destination breaker + retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadConfig {
    /// Consecutive delivery failures that trip the breaker open (K).
    pub failure_threshold: u32,
    /// Cooldown before the first half-open probe; doubles on every
    /// failed probe, up to `max_cooldown`, and resets on success.
    pub cooldown: Duration,
    /// Ceiling on the doubled cooldown.
    pub max_cooldown: Duration,
    /// Retry tokens earned per first attempt, in parts-per-million of a
    /// token (`100_000` = one retry allowed per ten first attempts).
    pub retry_ppm: u32,
    /// Token-bucket capacity in whole retries (the burst allowance; the
    /// bucket starts full).
    pub retry_burst: u32,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            cooldown: Duration::from_secs(2),
            max_cooldown: Duration::from_secs(60),
            retry_ppm: 100_000,
            retry_burst: 10,
        }
    }
}

/// Observable breaker state of one destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Attempts flow normally.
    Closed,
    /// Fast-failing until the cooldown elapses.
    Open,
    /// Cooldown elapsed: the next attempt is the (single) probe.
    HalfOpen,
}

/// Per-destination counters, all monotone. `attempts` counts actual
/// delivery tries (the ones a downed AS would see), **not** fast-fails —
/// which is exactly the quantity the chaos acceptance bound is on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DestStats {
    /// Delivery attempts that reached the wire (or the node-up check).
    pub attempts: u64,
    /// Attempts observed as failed (lost, down, or timed out).
    pub failures: u64,
    /// Attempts observed as succeeded.
    pub successes: u64,
    /// First attempts of an exchange (earn budget).
    pub first_attempts: u64,
    /// Retries granted by the budget (spend budget).
    pub retries: u64,
    /// Times the breaker tripped open (including re-opens).
    pub opens: u64,
    /// Half-open probe attempts allowed through.
    pub probes: u64,
    /// Exchanges fast-failed because the breaker was open.
    pub breaker_fast_fails: u64,
    /// Exchanges fast-failed because the retry budget was exhausted.
    pub budget_denied: u64,
}

impl DestStats {
    fn absorb(&mut self, o: &DestStats) {
        self.attempts += o.attempts;
        self.failures += o.failures;
        self.successes += o.successes;
        self.first_attempts += o.first_attempts;
        self.retries += o.retries;
        self.opens += o.opens;
        self.probes += o.probes;
        self.breaker_fast_fails += o.breaker_fast_fails;
        self.budget_denied += o.budget_denied;
    }
}

#[derive(Debug, Clone, Copy)]
enum State {
    Closed,
    Open { until: Instant },
    HalfOpen,
}

#[derive(Debug, Clone)]
struct DestState {
    state: State,
    consecutive_failures: u32,
    /// Cooldown the *next* open will use (doubles per re-open).
    cooldown: Duration,
    tokens_ppm: u64,
    stats: DestStats,
}

impl DestState {
    fn fresh(cfg: &OverloadConfig) -> Self {
        Self {
            state: State::Closed,
            consecutive_failures: 0,
            cooldown: cfg.cooldown,
            tokens_ppm: u64::from(cfg.retry_burst) * TOKEN,
            stats: DestStats::default(),
        }
    }
}

/// Optional telemetry bindings for an [`OverloadControl`].
#[derive(Debug)]
struct OverloadTelemetry {
    fast_fails: Counter,
    budget_denied: Counter,
    opens: Counter,
    breakers_open: Gauge,
}

/// Per-destination circuit breakers + retry budgets for one initiator
/// (one flow daemon / one driving thread). Purely virtual-clock driven:
/// identical call sequences produce identical state and counters.
#[derive(Debug)]
pub struct OverloadControl {
    cfg: OverloadConfig,
    dests: HashMap<IsdAsId, DestState>,
    open_now: u64,
    telemetry: Option<OverloadTelemetry>,
}

impl OverloadControl {
    /// A control block with the given configuration.
    pub fn new(cfg: OverloadConfig) -> Self {
        Self { cfg, dests: HashMap::new(), open_now: 0, telemetry: None }
    }

    /// Registers breaker/budget counters and the open-breaker gauge
    /// under `shard` in `registry`.
    pub fn attach_telemetry(&mut self, registry: &Registry, shard: &str) {
        let s = registry.shard(shard);
        let dep = Stability::PathDependent;
        self.telemetry = Some(OverloadTelemetry {
            fast_fails: s.counter(
                crate::telemetry::METRIC_BREAKER_FAST_FAILS,
                dep,
                "exchanges fast-failed by an open circuit breaker",
            ),
            budget_denied: s.counter(
                crate::telemetry::METRIC_RETRY_BUDGET_DENIED,
                dep,
                "retries denied by an exhausted per-destination retry budget",
            ),
            opens: s.counter(
                "colibri_ctrl_breaker_opens_total",
                dep,
                "circuit-breaker trips (including re-opens after failed probes)",
            ),
            breakers_open: s.gauge(
                "colibri_ctrl_breakers_open",
                dep,
                "destinations whose circuit breaker is currently open",
            ),
        });
        self.sync_gauge();
    }

    fn sync_gauge(&self) {
        if let Some(t) = &self.telemetry {
            t.breakers_open.set(self.open_now);
        }
    }

    /// The configuration.
    pub fn config(&self) -> &OverloadConfig {
        &self.cfg
    }

    /// Admission decision for attempt number `attempt` (1-based) of an
    /// exchange towards `to`. Called by the retry loop before every
    /// attempt; fast-fails never reach the network.
    pub fn preflight(&mut self, to: IsdAsId, now: Instant, attempt: u32) -> Preflight {
        let cfg = self.cfg;
        let d = self.dests.entry(to).or_insert_with(|| DestState::fresh(&cfg));
        // Lazy Open → HalfOpen transition once the cooldown elapsed.
        let mut probing = false;
        match d.state {
            State::Open { until } if now >= until => {
                d.state = State::HalfOpen;
                self.open_now = self.open_now.saturating_sub(1);
                probing = true;
            }
            State::Open { .. } => {
                d.stats.breaker_fast_fails += 1;
                if let Some(t) = &self.telemetry {
                    t.fast_fails.inc();
                }
                return Preflight::FastFail(FastFailReason::BreakerOpen);
            }
            State::HalfOpen => probing = true,
            State::Closed => {}
        }
        if probing {
            // The probe bypasses the retry budget: it is the only way the
            // breaker can ever learn the destination recovered.
            d.stats.probes += 1;
            if attempt == 1 {
                d.stats.first_attempts += 1;
            }
            self.sync_gauge();
            return Preflight::Proceed;
        }
        if attempt == 1 {
            // First attempts earn budget (capped at the burst allowance).
            d.tokens_ppm = (d.tokens_ppm + u64::from(cfg.retry_ppm))
                .min(u64::from(cfg.retry_burst) * TOKEN);
            d.stats.first_attempts += 1;
        } else if d.tokens_ppm >= TOKEN {
            d.tokens_ppm -= TOKEN;
            d.stats.retries += 1;
        } else {
            d.stats.budget_denied += 1;
            if let Some(t) = &self.telemetry {
                t.budget_denied.inc();
            }
            return Preflight::FastFail(FastFailReason::RetryBudgetExhausted);
        }
        Preflight::Proceed
    }

    /// Records the outcome of an attempt that `preflight` let through.
    pub fn observe(&mut self, to: IsdAsId, now: Instant, ok: bool) {
        let cfg = self.cfg;
        let d = self.dests.entry(to).or_insert_with(|| DestState::fresh(&cfg));
        d.stats.attempts += 1;
        if ok {
            d.stats.successes += 1;
            d.consecutive_failures = 0;
            if matches!(d.state, State::HalfOpen) {
                // Successful probe: re-close, cooldown resets.
                d.state = State::Closed;
                d.cooldown = cfg.cooldown;
            }
            return;
        }
        d.stats.failures += 1;
        d.consecutive_failures = d.consecutive_failures.saturating_add(1);
        let trip = match d.state {
            // A failed probe re-opens immediately (no need for K fresh
            // failures: the destination just proved it is still down).
            State::HalfOpen => true,
            State::Closed => d.consecutive_failures >= cfg.failure_threshold.max(1),
            State::Open { .. } => false,
        };
        if trip {
            d.state = State::Open { until: now.saturating_add(d.cooldown) };
            d.cooldown = cooldown_double(d.cooldown, cfg.max_cooldown);
            d.stats.opens += 1;
            self.open_now += 1;
            if let Some(t) = &self.telemetry {
                t.opens.inc();
            }
            self.sync_gauge();
        }
    }

    /// The breaker state of `to` as of `now` (evaluates the lazy
    /// open→half-open transition without mutating).
    pub fn breaker_state(&self, to: IsdAsId, now: Instant) -> BreakerState {
        match self.dests.get(&to).map(|d| d.state) {
            None | Some(State::Closed) => BreakerState::Closed,
            Some(State::HalfOpen) => BreakerState::HalfOpen,
            Some(State::Open { until }) => {
                if now >= until {
                    BreakerState::HalfOpen
                } else {
                    BreakerState::Open
                }
            }
        }
    }

    /// Counters for one destination (zeros if never contacted).
    pub fn dest_stats(&self, to: IsdAsId) -> DestStats {
        self.dests.get(&to).map(|d| d.stats).unwrap_or_default()
    }

    /// Counters summed over every destination.
    pub fn totals(&self) -> DestStats {
        let mut t = DestStats::default();
        let mut ids: Vec<_> = self.dests.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            t.absorb(&self.dests[&id].stats);
        }
        t
    }

    /// Destinations whose breaker is open right now (as of the last
    /// preflight — lazy half-open transitions are not anticipated).
    pub fn open_breakers(&self) -> u64 {
        self.open_now
    }
}

fn cooldown_double(c: Duration, max: Duration) -> Duration {
    let doubled = c.saturating_mul(2);
    if doubled > max {
        max
    } else {
        doubled
    }
}

/// A [`ControlChannel`] wrapper adding overload protection to any inner
/// channel: delivery and liveness delegate to `inner`, admission and
/// outcome tracking to `guard`. Drivers take `&mut dyn ControlChannel`,
/// so wrapping is the only integration step a caller needs.
#[derive(Debug)]
pub struct GuardedChannel<'a, C: ControlChannel + ?Sized> {
    /// The channel that actually moves messages.
    pub inner: &'a mut C,
    /// The breaker/budget state consulted before every attempt.
    pub guard: &'a mut OverloadControl,
}

impl<'a, C: ControlChannel + ?Sized> GuardedChannel<'a, C> {
    /// Wraps `inner` with `guard`.
    pub fn new(inner: &'a mut C, guard: &'a mut OverloadControl) -> Self {
        Self { inner, guard }
    }
}

impl<C: ControlChannel + ?Sized> ControlChannel for GuardedChannel<'_, C> {
    fn deliver(&mut self, from: IsdAsId, to: IsdAsId, now: Instant) -> Delivery {
        self.inner.deliver(from, to, now)
    }

    fn node_up(&self, as_id: IsdAsId, now: Instant) -> bool {
        self.inner.node_up(as_id, now)
    }

    fn preflight(&mut self, to: IsdAsId, now: Instant, attempt: u32) -> Preflight {
        self.guard.preflight(to, now, attempt)
    }

    fn observe(&mut self, to: IsdAsId, now: Instant, ok: bool) {
        self.guard.observe(to, now, ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dst() -> IsdAsId {
        IsdAsId::new(1, 2)
    }

    fn cfg() -> OverloadConfig {
        OverloadConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(2),
            max_cooldown: Duration::from_secs(8),
            retry_ppm: 100_000,
            retry_burst: 10,
        }
    }

    #[test]
    fn breaker_opens_after_k_consecutive_failures_only() {
        let mut g = OverloadControl::new(cfg());
        let t = Instant::from_secs(1);
        // Two failures, then a success: never opens.
        for _ in 0..2 {
            assert_eq!(g.preflight(dst(), t, 1), Preflight::Proceed);
            g.observe(dst(), t, false);
        }
        g.observe(dst(), t, true);
        assert_eq!(g.breaker_state(dst(), t), BreakerState::Closed);
        // Three in a row: opens.
        for _ in 0..3 {
            g.preflight(dst(), t, 1);
            g.observe(dst(), t, false);
        }
        assert_eq!(g.breaker_state(dst(), t), BreakerState::Open);
        assert_eq!(g.dest_stats(dst()).opens, 1);
        assert_eq!(
            g.preflight(dst(), t, 1),
            Preflight::FastFail(FastFailReason::BreakerOpen)
        );
    }

    #[test]
    fn half_open_probe_recloses_or_doubles_cooldown() {
        let mut g = OverloadControl::new(cfg());
        let t0 = Instant::from_secs(10);
        for _ in 0..3 {
            g.preflight(dst(), t0, 1);
            g.observe(dst(), t0, false);
        }
        // Before the cooldown: fast-fail. After: one probe allowed.
        let early = t0 + Duration::from_millis(1999);
        assert!(matches!(g.preflight(dst(), early, 1), Preflight::FastFail(_)));
        let probe_at = t0 + Duration::from_secs(2);
        assert_eq!(g.breaker_state(dst(), probe_at), BreakerState::HalfOpen);
        assert_eq!(g.preflight(dst(), probe_at, 1), Preflight::Proceed);
        // Failed probe: re-open with doubled cooldown (4 s now).
        g.observe(dst(), probe_at, false);
        assert_eq!(g.breaker_state(dst(), probe_at + Duration::from_secs(3)), BreakerState::Open);
        let probe2 = probe_at + Duration::from_secs(4);
        assert_eq!(g.preflight(dst(), probe2, 1), Preflight::Proceed);
        // Successful probe: closed again, cooldown reset to the base.
        g.observe(dst(), probe2, true);
        assert_eq!(g.breaker_state(dst(), probe2), BreakerState::Closed);
        assert_eq!(g.dest_stats(dst()).opens, 2);
        // A fresh trip uses the base cooldown again.
        for _ in 0..3 {
            g.preflight(dst(), probe2, 1);
            g.observe(dst(), probe2, false);
        }
        assert_eq!(
            g.breaker_state(dst(), probe2 + Duration::from_secs(2)),
            BreakerState::HalfOpen
        );
    }

    #[test]
    fn retry_budget_caps_retries_as_fraction_of_first_attempts() {
        let mut g = OverloadControl::new(cfg());
        let t = Instant::from_secs(1);
        // Drain the burst: 10 retries pass, the 11th is denied.
        g.preflight(dst(), t, 1);
        g.observe(dst(), t, false);
        for i in 0..10 {
            assert_eq!(g.preflight(dst(), t, 2 + i), Preflight::Proceed, "burst retry {i}");
            g.observe(dst(), t, true); // successes keep the breaker closed
        }
        assert_eq!(
            g.preflight(dst(), t, 12),
            Preflight::FastFail(FastFailReason::RetryBudgetExhausted)
        );
        // Ten first attempts earn exactly one more retry (10% ratio).
        for _ in 0..10 {
            g.preflight(dst(), t, 1);
            g.observe(dst(), t, true);
        }
        assert_eq!(g.preflight(dst(), t, 2), Preflight::Proceed);
        assert_eq!(
            g.preflight(dst(), t, 3),
            Preflight::FastFail(FastFailReason::RetryBudgetExhausted)
        );
        let s = g.dest_stats(dst());
        assert_eq!(s.budget_denied, 2);
        assert_eq!(s.retries, 11);
        assert_eq!(s.first_attempts, 11);
    }

    #[test]
    fn open_breaker_gauge_tracks_transitions() {
        let reg = Registry::new();
        let mut g = OverloadControl::new(cfg());
        g.attach_telemetry(&reg, "overload");
        let t = Instant::from_secs(1);
        for _ in 0..3 {
            g.preflight(dst(), t, 1);
            g.observe(dst(), t, false);
        }
        assert_eq!(g.open_breakers(), 1);
        assert_eq!(reg.snapshot().total("colibri_ctrl_breakers_open"), 1);
        assert_eq!(reg.snapshot().total("colibri_ctrl_breaker_opens_total"), 1);
        // Probe succeeds: gauge back to zero.
        let probe = t + Duration::from_secs(2);
        g.preflight(dst(), probe, 1);
        g.observe(dst(), probe, true);
        assert_eq!(g.open_breakers(), 0);
        assert_eq!(reg.snapshot().total("colibri_ctrl_breakers_open"), 0);
    }
}

//! Property tests for the overload-control state machines:
//!
//! 1. the circuit breaker **never opens** without K consecutive observed
//!    failures (the only exception is a failed half-open probe, which
//!    re-opens immediately);
//! 2. a successful half-open probe **always re-closes** the breaker;
//! 3. the whole state machine is **deterministic**: identical operation
//!    sequences produce identical counters and states;
//! 4. the retry budget caps allowed retries by the token-bucket
//!    inequality `retries × 1e6 ≤ burst × 1e6 + first_attempts × ppm`;
//! 5. [`RetryStats`] and the guard's counters **reconcile exactly**: a
//!    successful reliable setup records precisely one guard-observed
//!    attempt per counted attempt, and the fast-fail counters match 1:1.

use colibri_base::{Bandwidth, Clock, Duration, Instant, IsdAsId};
use colibri_ctrl::{
    setup_segr_with, BreakerState, ControlChannel, CservConfig, CservRegistry, Delivery,
    GuardedChannel, OverloadConfig, OverloadControl, Preflight, RetryPolicy,
};
use colibri_topology::gen::sample_two_isd;
use proptest::prelude::*;

fn dest(i: bool) -> IsdAsId {
    if i {
        IsdAsId::new(1, 10)
    } else {
        IsdAsId::new(2, 20)
    }
}

/// One scripted exchange attempt: which destination, how much virtual
/// time passes first, and whether the attempt (if admitted) succeeds.
type Op = (bool, u64, bool);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((any::<bool>(), 0u64..5_000_000_000, any::<bool>()), 1..200)
}

proptest! {
    /// The breaker transitions to Open only off the back of K
    /// consecutive observed failures — or a failed half-open probe,
    /// which re-opens without needing K fresh ones.
    #[test]
    fn breaker_never_opens_without_k_consecutive_failures(
        script in ops(),
        k in 1u32..5,
        cooldown_ms in 1u64..5_000,
    ) {
        let cfg = OverloadConfig {
            failure_threshold: k,
            cooldown: Duration::from_millis(cooldown_ms),
            max_cooldown: Duration::from_secs(60),
            ..OverloadConfig::default()
        };
        let mut g = OverloadControl::new(cfg);
        let mut t = Instant::from_secs(1);
        // Independent shadow counters of consecutive failures per dest.
        let mut consec = [0u32; 2];
        for (d, step, ok) in script {
            t = t.saturating_add(Duration::from_nanos(step));
            let to = dest(d);
            let i = d as usize;
            if let Preflight::Proceed = g.preflight(to, t, 1) {
                let before = g.breaker_state(to, t);
                g.observe(to, t, ok);
                if ok {
                    consec[i] = 0;
                } else {
                    consec[i] += 1;
                }
                let after = g.breaker_state(to, t);
                if after == BreakerState::Open && before != BreakerState::Open {
                    prop_assert!(
                        before == BreakerState::HalfOpen || consec[i] >= k,
                        "opened after {} consecutive failures (K = {k}, from {before:?})",
                        consec[i],
                    );
                    // No observes happen while Open (everything
                    // fast-fails), so the streak restarts at the probe.
                    consec[i] = 0;
                }
            }
            let s = g.dest_stats(to);
            prop_assert_eq!(s.attempts, s.successes + s.failures);
        }
    }

    /// A successful probe from HalfOpen always re-closes the breaker; a
    /// failed one always re-opens it.
    #[test]
    fn half_open_probe_outcome_decides_state(
        script in ops(),
        k in 1u32..4,
    ) {
        let cfg = OverloadConfig {
            failure_threshold: k,
            cooldown: Duration::from_millis(50),
            ..OverloadConfig::default()
        };
        let mut g = OverloadControl::new(cfg);
        let mut t = Instant::from_secs(1);
        let mut probes_seen = 0u32;
        for (d, step, ok) in script {
            t = t.saturating_add(Duration::from_nanos(step));
            let to = dest(d);
            if let Preflight::Proceed = g.preflight(to, t, 1) {
                let before = g.breaker_state(to, t);
                g.observe(to, t, ok);
                if before == BreakerState::HalfOpen {
                    probes_seen += 1;
                    let after = g.breaker_state(to, t);
                    if ok {
                        prop_assert_eq!(after, BreakerState::Closed,
                            "successful probe must re-close");
                    } else {
                        prop_assert!(after != BreakerState::Closed,
                            "failed probe must not close the breaker");
                    }
                }
            }
        }
        // Not every script reaches a probe; when one did, the stats saw it.
        let totals = g.totals();
        prop_assert_eq!(u64::from(probes_seen), totals.probes);
    }

    /// Identical scripts drive two fresh guards to bit-identical
    /// counters and states at every step.
    #[test]
    fn identical_scripts_replay_identically(script in ops()) {
        let mut g1 = OverloadControl::new(OverloadConfig::default());
        let mut g2 = OverloadControl::new(OverloadConfig::default());
        let mut t = Instant::from_secs(1);
        for (d, step, ok) in script {
            t = t.saturating_add(Duration::from_nanos(step));
            let to = dest(d);
            let p1 = g1.preflight(to, t, 1);
            let p2 = g2.preflight(to, t, 1);
            prop_assert_eq!(p1, p2);
            if let Preflight::Proceed = p1 {
                g1.observe(to, t, ok);
                g2.observe(to, t, ok);
            }
            prop_assert_eq!(g1.dest_stats(to), g2.dest_stats(to));
            prop_assert_eq!(g1.breaker_state(to, t), g2.breaker_state(to, t));
        }
        prop_assert_eq!(g1.totals(), g2.totals());
        prop_assert_eq!(g1.open_breakers(), g2.open_breakers());
    }

    /// Token-bucket inequality: however attempts are scheduled, allowed
    /// retries never exceed the initial burst plus the per-first-attempt
    /// earnings. (Breaker disabled via a huge threshold so the budget is
    /// the only limiter.)
    #[test]
    fn retry_budget_respects_the_bucket_inequality(
        exchanges in prop::collection::vec(1u32..6, 1..120),
        ppm in 0u32..500_000,
        burst in 0u32..8,
    ) {
        let cfg = OverloadConfig {
            failure_threshold: 1_000_000, // never trips
            retry_ppm: ppm,
            retry_burst: burst,
            ..OverloadConfig::default()
        };
        let mut g = OverloadControl::new(cfg);
        let to = dest(true);
        let mut t = Instant::from_secs(1);
        for attempts in exchanges {
            t = t.saturating_add(Duration::from_millis(10));
            for attempt in 1..=attempts {
                match g.preflight(to, t, attempt) {
                    // Fail everything: retries are requested every time.
                    Preflight::Proceed => g.observe(to, t, false),
                    Preflight::FastFail(_) => {}
                }
            }
        }
        let s = g.dest_stats(to);
        prop_assert!(
            s.retries * 1_000_000 <= u64::from(burst) * 1_000_000 + s.first_attempts * u64::from(ppm),
            "{} retries exceed burst {} + {} firsts × {} ppm",
            s.retries, burst, s.first_attempts, ppm
        );
        prop_assert_eq!(s.attempts, s.successes + s.failures);
    }
}

/// A channel dropping each leg pseudo-randomly (SplitMix64 on a seed).
struct DropChannel {
    state: u64,
    drop_ppm: u32,
}

impl DropChannel {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl ControlChannel for DropChannel {
    fn deliver(&mut self, _f: IsdAsId, _t: IsdAsId, _now: Instant) -> Delivery {
        if self.next() % 1_000_000 < u64::from(self.drop_ppm) {
            Delivery::Lost
        } else {
            Delivery::Delivered(Duration::from_micros(200))
        }
    }
}

proptest! {
    /// Reconciliation: when a guarded reliable setup succeeds, the
    /// driver's [`RetryStats`] and the guard agree exactly — one guard
    /// observation per counted attempt, and identical fast-fail
    /// counters. (The guard is fresh per run, so totals are comparable.)
    #[test]
    fn retry_stats_and_guard_counters_reconcile_exactly(
        seed in any::<u64>(),
        drop_ppm in 0u32..300_000,
    ) {
        let s = sample_two_isd();
        let mut reg = CservRegistry::provision(&s.topo, CservConfig::default());
        let up = s.segments.up_segments(s.leaf_a, s.core_11)[0].clone();
        let clock = Clock::starting_at(Instant::from_secs(1));
        let mut ch = DropChannel { state: seed, drop_ppm };
        let mut guard = OverloadControl::new(OverloadConfig::default());
        let policy = RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(40),
            jitter_pct: 20,
            per_hop_timeout: Duration::from_millis(500),
            deadline: Duration::MAX,
        };
        let res = setup_segr_with(
            &mut reg,
            &up,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(1),
            Instant::EPOCH,
            &clock,
            &mut GuardedChannel::new(&mut ch, &mut guard),
            &policy,
        );
        if let Ok((_, stats)) = res {
            let totals = guard.totals();
            prop_assert_eq!(stats.attempts, totals.attempts,
                "every counted attempt must be observed exactly once");
            prop_assert_eq!(stats.breaker_fast_fails, totals.breaker_fast_fails);
            prop_assert_eq!(stats.budget_denied, totals.budget_denied);
            prop_assert_eq!(totals.attempts, totals.successes + totals.failures);
        }
        // On failure the rollback path uses its own stats object, so the
        // totals are not comparable — but the internal identity holds
        // regardless of outcome.
        let totals = guard.totals();
        prop_assert_eq!(totals.attempts, totals.successes + totals.failures);
    }
}

//! Reliable control-message delivery over a lossy inter-domain network.
//!
//! Real inter-domain paths drop, delay, and partition; CServs crash
//! mid-setup. This module supplies the delivery model and retry machinery
//! that the setup passes of [`crate::setup`] run on:
//!
//! - [`ControlChannel`] abstracts one control-message leg between two
//!   ASes. [`PerfectChannel`] (no loss, no latency) is the channel of the
//!   plain-named setup functions; the simulator's fault plan provides a
//!   lossy implementation.
//! - [`RetryPolicy`] bounds retries with exponential backoff plus
//!   deterministic jitter, and imposes a per-hop round-trip timeout.
//! - The one driver per operation in [`crate::setup`] (the `*_with`
//!   functions, e.g. [`crate::setup::setup_segr_with`]) takes the channel
//!   and the policy: every hop exchange is retried under the policy, and
//!   a failed setup is rolled back hop by hop with the idempotent abort
//!   path, leaving every admission aggregate in its exact pre-request
//!   state.
//!
//! Correctness under retries rests on the request-id replay cache in
//! [`crate::cserv::CServ`]: a retried request replays the recorded
//! verdict instead of double-counting demand, and a retried (or
//! misdirected) abort is a no-op. An abort that cannot be delivered
//! within the retry budget is counted in
//! [`RetryStats::undelivered_aborts`]; the expiry garbage collection of
//! the target CServ reclaims that bandwidth at reservation expiry, so
//! even that worst case cannot leak forever.

use colibri_base::{Clock, Duration, Instant, IsdAsId};

/// Outcome of attempting to deliver one control-message leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The message arrived after the given one-way latency.
    Delivered(Duration),
    /// The message was dropped in transit.
    Lost,
    /// The link (or destination) is administratively down right now.
    Down,
}

/// Why an attempt was fast-failed before touching the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastFailReason {
    /// The destination's circuit breaker is open (recent consecutive
    /// failures; a probe will test recovery after the cooldown).
    BreakerOpen,
    /// The per-destination retry budget is exhausted: retries are
    /// capped as a fraction of first attempts to kill retry storms.
    RetryBudgetExhausted,
}

/// Admission decision for one delivery attempt, made *before* the
/// attempt touches the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preflight {
    /// Attempt normally.
    Proceed,
    /// Abandon the exchange immediately without a network attempt.
    FastFail(FastFailReason),
}

/// A point-to-point control-message delivery model between ASes.
///
/// Implementations decide, deterministically or pseudo-randomly, whether
/// a message from `from` to `to` sent at `now` arrives and how long it
/// takes. The retrying drivers call `deliver` once per leg per attempt.
///
/// The `preflight`/`observe` pair is the overload-protection hook: the
/// retry loop asks `preflight` before every attempt (an open circuit
/// breaker or exhausted retry budget fast-fails the whole exchange) and
/// reports each attempt's outcome through `observe`. The defaults are
/// no-ops, so plain channels behave exactly as before;
/// [`crate::overload::GuardedChannel`] routes them to an
/// [`crate::overload::OverloadControl`].
pub trait ControlChannel {
    /// Attempts to deliver one message leg.
    fn deliver(&mut self, from: IsdAsId, to: IsdAsId, now: Instant) -> Delivery;

    /// Whether the CServ of `as_id` is up (able to process requests) at
    /// `now`. Crashed services make every exchange with them fail until
    /// they restart.
    fn node_up(&self, as_id: IsdAsId, now: Instant) -> bool {
        let _ = (as_id, now);
        true
    }

    /// Admission decision for attempt number `attempt` (1-based) of an
    /// exchange towards `to`. Default: always proceed.
    fn preflight(&mut self, to: IsdAsId, now: Instant, attempt: u32) -> Preflight {
        let _ = (to, now, attempt);
        Preflight::Proceed
    }

    /// Outcome report for an attempt that `preflight` let through:
    /// `ok` is true iff the round trip completed within the timeout.
    /// Default: ignore.
    fn observe(&mut self, to: IsdAsId, now: Instant, ok: bool) {
        let _ = (to, now, ok);
    }
}

/// The ideal channel: every leg is delivered instantly, every node is up.
/// The plain-named setup functions ([`crate::setup::setup_segr`] and the
/// rest) are the channel-aware drivers over it.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfectChannel;

impl ControlChannel for PerfectChannel {
    fn deliver(&mut self, _from: IsdAsId, _to: IsdAsId, _now: Instant) -> Delivery {
        Delivery::Delivered(Duration::ZERO)
    }
}

/// Retry discipline for one hop exchange: bounded attempts, exponential
/// backoff with deterministic jitter, and a round-trip timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum delivery attempts per hop exchange (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each further attempt.
    pub base_backoff: Duration,
    /// Ceiling on the (pre-jitter) backoff.
    pub max_backoff: Duration,
    /// Jitter added on top of the backoff, as a percentage of it (0–100).
    /// Jitter is derived deterministically from the request id and the
    /// attempt number, so a whole run replays bit-identically.
    pub jitter_pct: u32,
    /// A hop exchange whose round trip exceeds this counts as failed and
    /// is retried (the replay cache absorbs the duplicate).
    pub per_hop_timeout: Duration,
    /// End-to-end deadline for the whole operation, measured from the
    /// moment the driving pass starts. It is propagated inside the setup
    /// requests so an overloaded CServ can shed a request that cannot
    /// complete in time at the *first* hop, and the retry loop gives up
    /// once the virtual clock passes it. `Duration::MAX` disables it.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 6,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            jitter_pct: 20,
            per_hop_timeout: Duration::from_millis(500),
            deadline: Duration::MAX,
        }
    }
}

impl RetryPolicy {
    /// The backoff to sleep after failed attempt number `attempt`
    /// (1-based). All arithmetic saturates: adversarial policies (e.g.
    /// `max_backoff = Duration::MAX`) clamp instead of overflowing.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let shift = attempt.saturating_sub(1).min(20);
        let raw = self.base_backoff.saturating_mul(1u64 << shift);
        let capped = if raw > self.max_backoff { self.max_backoff } else { raw };
        let r = splitmix64(salt ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 1000;
        let jitter = (u128::from(capped.as_nanos()) * u128::from(r) * u128::from(self.jitter_pct)
            / 100_000)
            .min(u128::from(u64::MAX)) as u64;
        capped.saturating_add(Duration::from_nanos(jitter))
    }

    /// The absolute deadline for an operation starting at `start`
    /// (`Instant::MAX` when the policy has no deadline).
    pub fn deadline_from(&self, start: Instant) -> Instant {
        if self.deadline == Duration::MAX {
            Instant::MAX
        } else {
            start.saturating_add(self.deadline)
        }
    }
}

/// Counters describing what the retry machinery had to do for one setup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Total delivery attempts across all hop exchanges.
    pub attempts: u64,
    /// Attempts that failed because a leg was lost or the node was down.
    pub lost: u64,
    /// Attempts whose round trip exceeded the per-hop timeout.
    pub timeouts: u64,
    /// Abort messages that exhausted their retry budget undelivered (the
    /// target's expiry GC is the backstop for these).
    pub undelivered_aborts: u64,
    /// Exchanges abandoned without a network attempt because the
    /// destination's circuit breaker was open.
    pub breaker_fast_fails: u64,
    /// Exchanges abandoned because the per-destination retry budget was
    /// exhausted.
    pub budget_denied: u64,
    /// Exchanges abandoned because the operation deadline passed.
    pub deadline_givups: u64,
}

impl RetryStats {
    /// Merges another stats record into this one.
    pub fn absorb(&mut self, other: RetryStats) {
        self.attempts += other.attempts;
        self.lost += other.lost;
        self.timeouts += other.timeouts;
        self.undelivered_aborts += other.undelivered_aborts;
        self.breaker_fast_fails += other.breaker_fast_fails;
        self.budget_denied += other.budget_denied;
        self.deadline_givups += other.deadline_givups;
    }

    /// The field-wise difference `self - earlier` (saturating).
    pub fn delta_since(&self, earlier: &RetryStats) -> RetryStats {
        RetryStats {
            attempts: self.attempts.saturating_sub(earlier.attempts),
            lost: self.lost.saturating_sub(earlier.lost),
            timeouts: self.timeouts.saturating_sub(earlier.timeouts),
            undelivered_aborts: self.undelivered_aborts.saturating_sub(earlier.undelivered_aborts),
            breaker_fast_fails: self.breaker_fast_fails.saturating_sub(earlier.breaker_fast_fails),
            budget_denied: self.budget_denied.saturating_sub(earlier.budget_denied),
            deadline_givups: self.deadline_givups.saturating_sub(earlier.deadline_givups),
        }
    }
}

/// SplitMix64 — the deterministic mixer behind backoff jitter.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Drives one request/response hop exchange under the retry policy.
///
/// Each attempt: deliver the request leg `from → to`, run `process` at
/// the destination (the CServ handler — idempotent via the replay
/// cache), deliver the response leg back. The exchange succeeds when
/// both legs arrive within the per-hop timeout; otherwise the clock
/// advances by the backoff and the attempt repeats. Returns `None` when
/// the attempt budget is exhausted — note `process` may still have run
/// on the far side (a lost *response* does not undo the admission; only
/// an explicit abort does).
#[allow(clippy::too_many_arguments)] // internal plumbing: one bundle per call site would obscure it
pub(crate) fn reliable_exchange<T>(
    ch: &mut dyn ControlChannel,
    policy: &RetryPolicy,
    clock: &Clock,
    from: IsdAsId,
    to: IsdAsId,
    salt: u64,
    deadline: Instant,
    stats: &mut RetryStats,
    process: impl FnMut(Instant) -> T,
) -> Option<T> {
    let before = *stats;
    let out = exchange_inner(ch, policy, clock, from, to, salt, deadline, stats, process);
    // One registry push per hop exchange, not per attempt: the scrape
    // sees exactly what the per-setup RetryStats accumulated.
    crate::telemetry::record_retry_delta(stats.delta_since(&before));
    out
}

#[allow(clippy::too_many_arguments)]
fn exchange_inner<T>(
    ch: &mut dyn ControlChannel,
    policy: &RetryPolicy,
    clock: &Clock,
    from: IsdAsId,
    to: IsdAsId,
    salt: u64,
    deadline: Instant,
    stats: &mut RetryStats,
    mut process: impl FnMut(Instant) -> T,
) -> Option<T> {
    for attempt in 1..=policy.max_attempts.max(1) {
        let now = clock.now();
        // The operation deadline has passed: further attempts cannot
        // produce a result the initiator still wants.
        if now >= deadline {
            stats.deadline_givups += 1;
            return None;
        }
        // Overload protection runs before the attempt is even counted:
        // a fast-fail never touches the network, so a downed AS sees
        // O(probes) traffic rather than O(clients × retries).
        match ch.preflight(to, now, attempt) {
            Preflight::Proceed => {}
            Preflight::FastFail(FastFailReason::BreakerOpen) => {
                stats.breaker_fast_fails += 1;
                return None;
            }
            Preflight::FastFail(FastFailReason::RetryBudgetExhausted) => {
                stats.budget_denied += 1;
                return None;
            }
        }
        stats.attempts += 1;
        if !ch.node_up(to, now) {
            stats.lost += 1;
            ch.observe(to, now, false);
            clock.advance(policy.backoff(attempt, salt));
            continue;
        }
        if from == to {
            // Intra-AS processing: no network leg to lose. Still an
            // observed success, so a breaker for the local AS re-closes
            // after its CServ recovers.
            let out = process(now);
            ch.observe(to, now, true);
            return Some(out);
        }
        match ch.deliver(from, to, now) {
            Delivery::Delivered(l1) => {
                clock.advance(l1);
                let out = process(clock.now());
                match ch.deliver(to, from, clock.now()) {
                    Delivery::Delivered(l2) => {
                        clock.advance(l2);
                        if l1.saturating_add(l2) <= policy.per_hop_timeout {
                            ch.observe(to, clock.now(), true);
                            return Some(out);
                        }
                        stats.timeouts += 1;
                        // Timeouts count as failures: this is how gray
                        // failures (latency ramps) trip the breaker.
                        ch.observe(to, clock.now(), false);
                    }
                    Delivery::Lost | Delivery::Down => {
                        stats.lost += 1;
                        ch.observe(to, clock.now(), false);
                    }
                }
            }
            Delivery::Lost | Delivery::Down => {
                stats.lost += 1;
                ch.observe(to, now, false);
            }
        }
        clock.advance(policy.backoff(attempt, salt));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            jitter_pct: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff(1, 0), Duration::from_millis(50));
        assert_eq!(p.backoff(2, 0), Duration::from_millis(100));
        assert_eq!(p.backoff(3, 0), Duration::from_millis(200));
        // Far past the cap.
        assert_eq!(p.backoff(20, 0), Duration::from_secs(2));
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        let a = p.backoff(3, 42);
        let b = p.backoff(3, 42);
        assert_eq!(a, b);
        let base = Duration::from_millis(200);
        assert!(a >= base);
        assert!(a <= base.saturating_add(Duration::from_millis(40)));
        // Different salts / attempts jitter differently (with overwhelming
        // probability for these fixed inputs).
        assert_ne!(p.backoff(3, 42), p.backoff(3, 43));
    }

    #[test]
    fn backoff_saturates_on_adversarial_policies() {
        let p = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff: Duration::MAX,
            max_backoff: Duration::MAX,
            jitter_pct: 100,
            per_hop_timeout: Duration::MAX,
            deadline: Duration::MAX,
        };
        // Must not panic; must clamp.
        assert_eq!(p.backoff(u32::MAX, u64::MAX), Duration::MAX);
    }

    struct FlakyChannel {
        fail_first: u32,
    }

    impl ControlChannel for FlakyChannel {
        fn deliver(&mut self, _f: IsdAsId, _t: IsdAsId, _now: Instant) -> Delivery {
            if self.fail_first > 0 {
                self.fail_first -= 1;
                Delivery::Lost
            } else {
                Delivery::Delivered(Duration::from_millis(1))
            }
        }
    }

    #[test]
    fn exchange_retries_until_delivered() {
        let clock = Clock::new();
        let mut ch = FlakyChannel { fail_first: 3 };
        let mut stats = RetryStats::default();
        let policy = RetryPolicy::default();
        let a = IsdAsId::new(1, 1);
        let b = IsdAsId::new(1, 2);
        let mut calls = 0;
        let out =
            reliable_exchange(&mut ch, &policy, &clock, a, b, 7, Instant::MAX, &mut stats, |_| {
                calls += 1;
                calls
            });
        assert_eq!(out, Some(1));
        assert_eq!(stats.lost, 3);
        assert!(stats.attempts >= 4);
        assert!(clock.now() > Instant::EPOCH, "backoff advances time");
    }

    #[test]
    fn exchange_gives_up_after_budget() {
        let clock = Clock::new();
        let mut ch = FlakyChannel { fail_first: u32::MAX };
        let mut stats = RetryStats::default();
        let policy = RetryPolicy { max_attempts: 4, ..RetryPolicy::default() };
        let a = IsdAsId::new(1, 1);
        let b = IsdAsId::new(1, 2);
        let out =
            reliable_exchange(&mut ch, &policy, &clock, a, b, 7, Instant::MAX, &mut stats, |_| ());
        assert_eq!(out, None);
        assert_eq!(stats.attempts, 4);
    }

    #[test]
    fn exchange_gives_up_once_the_deadline_passes() {
        let clock = Clock::starting_at(Instant::from_secs(10));
        let mut ch = FlakyChannel { fail_first: u32::MAX };
        let mut stats = RetryStats::default();
        let policy = RetryPolicy { max_attempts: 1000, ..RetryPolicy::default() };
        let a = IsdAsId::new(1, 1);
        let b = IsdAsId::new(1, 2);
        // The backoffs advance the clock; the deadline cuts the loop off
        // long before the thousand-attempt budget would.
        let deadline = clock.now() + Duration::from_secs(2);
        let out = reliable_exchange(&mut ch, &policy, &clock, a, b, 7, deadline, &mut stats, |_| ());
        assert_eq!(out, None);
        assert_eq!(stats.deadline_givups, 1);
        assert!(stats.attempts < 1000, "deadline must beat the attempt budget");
        // An already-expired deadline fails without any attempt.
        let mut fresh = RetryStats::default();
        let out = reliable_exchange(
            &mut ch,
            &policy,
            &clock,
            a,
            b,
            7,
            Instant::EPOCH,
            &mut fresh,
            |_| (),
        );
        assert_eq!(out, None);
        assert_eq!(fresh.attempts, 0);
        assert_eq!(fresh.deadline_givups, 1);
    }

    /// A channel whose preflight always fast-fails: the exchange must
    /// abandon without a single delivery attempt.
    struct ClosedChannel;

    impl ControlChannel for ClosedChannel {
        fn deliver(&mut self, _f: IsdAsId, _t: IsdAsId, _now: Instant) -> Delivery {
            panic!("fast-failed exchanges must never deliver");
        }

        fn preflight(&mut self, _to: IsdAsId, _now: Instant, _attempt: u32) -> Preflight {
            Preflight::FastFail(FastFailReason::BreakerOpen)
        }
    }

    #[test]
    fn fast_fail_skips_the_network_entirely() {
        let clock = Clock::new();
        let mut ch = ClosedChannel;
        let mut stats = RetryStats::default();
        let policy = RetryPolicy::default();
        let a = IsdAsId::new(1, 1);
        let b = IsdAsId::new(1, 2);
        let out =
            reliable_exchange(&mut ch, &policy, &clock, a, b, 7, Instant::MAX, &mut stats, |_| ());
        assert_eq!(out, None);
        assert_eq!(stats.attempts, 0, "no delivery attempt happened");
        assert_eq!(stats.breaker_fast_fails, 1);
        assert_eq!(clock.now(), Instant::EPOCH, "no backoff was paid");
    }
}

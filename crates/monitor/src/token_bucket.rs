//! The token-bucket rate limiter (paper §4.8).
//!
//! "An efficient approach to limit the transmission rate of the flows from
//! customers while still permitting short-term spikes in traffic is the
//! token bucket algorithm, which only needs to keep a time stamp and a
//! counter in memory for each flow."
//!
//! The implementation is fully integer (no floating point on the fast
//! path): tokens are tracked in units of 10⁻⁹ bytes, so that refill at
//! `rate` bits per second over `dt` nanoseconds is the exact product
//! `dt · rate / 8` with no rounding drift.

use colibri_base::{Bandwidth, Duration, Instant};

/// A token bucket: rate-limits to `rate` with bursts up to `burst` bytes.
///
/// Exactly the "time stamp and a counter" of the paper: 16 bytes of mutable
/// state.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    /// Sustained rate.
    rate: Bandwidth,
    /// Bucket depth in nano-bytes (bytes × 10⁹).
    capacity_nb: u128,
    /// Current fill in nano-bytes.
    tokens_nb: u128,
    /// Last refill time.
    last: Instant,
}

impl TokenBucket {
    /// Creates a bucket that starts full.
    pub fn new(rate: Bandwidth, burst_bytes: u64, now: Instant) -> Self {
        let capacity_nb = burst_bytes as u128 * 1_000_000_000;
        Self { rate, capacity_nb, tokens_nb: capacity_nb, last: now }
    }

    /// Convenience: a bucket allowing `burst` seconds of traffic at `rate`.
    pub fn with_burst_duration(rate: Bandwidth, burst: Duration, now: Instant) -> Self {
        let burst_bytes = (rate.as_bps() as u128 * burst.as_nanos() as u128 / 8 / 1_000_000_000)
            .max(1500) as u64; // at least one MTU so single packets pass
        Self::new(rate, burst_bytes, now)
    }

    /// A bucket from the four words [`to_words`](Self::to_words) returns.
    pub fn from_words(rate: Bandwidth, burst_bytes: u64, tokens_nb: u128, last: Instant) -> Self {
        Self { tokens_nb, ..Self::new(rate, burst_bytes, last) }
    }

    /// The bucket's state as the words a packed table stores: rate, depth
    /// in whole bytes (every depth is one), fill in nano-bytes, and the
    /// last refill.
    pub fn to_words(&self) -> (Bandwidth, u64, u128, Instant) {
        (self.rate, (self.capacity_nb / 1_000_000_000) as u64, self.tokens_nb, self.last)
    }

    /// The configured rate.
    pub fn rate(&self) -> Bandwidth {
        self.rate
    }

    /// Updates the rate (EER renewals can change the reserved bandwidth).
    ///
    /// **Caveat:** this does not settle the elapsed interval first, so any
    /// time since the last refill is later credited at the *new* rate —
    /// retroactive minting when the rate goes up. Prefer
    /// [`reconfigure`](Self::reconfigure) on any path where `now` is
    /// available; this method remains for rate-only adjustments where the
    /// caller refills explicitly.
    pub fn set_rate(&mut self, rate: Bandwidth) {
        self.rate = rate;
    }

    /// Re-targets the bucket to a new `rate` and `burst` duration at `now`,
    /// *carrying accumulated tokens over* instead of resetting burst state.
    ///
    /// The elapsed interval is first settled at the **old** rate (so a
    /// renewal to a higher rate cannot retroactively mint tokens for the
    /// past), then the sustained rate and bucket depth are re-derived from
    /// the new parameters, and the carried fill is clamped to the new
    /// depth (burst ≤ capacity stays invariant). A renewal therefore
    /// changes *future* refill speed only — it never grants a free burst.
    pub fn reconfigure(&mut self, rate: Bandwidth, burst: Duration, now: Instant) {
        self.refill(now);
        self.rate = rate;
        let burst_bytes = (rate.as_bps() as u128 * burst.as_nanos() as u128 / 8 / 1_000_000_000)
            .max(1500) as u64; // same MTU floor as `with_burst_duration`
        self.capacity_nb = burst_bytes as u128 * 1_000_000_000;
        self.tokens_nb = self.tokens_nb.min(self.capacity_nb);
    }

    #[inline]
    fn refill(&mut self, now: Instant) {
        let dt = now.saturating_since(self.last).as_nanos();
        if dt == 0 {
            return;
        }
        self.last = now;
        // nano-bytes gained = ns · (bits/s) / 8.
        let gained = dt as u128 * self.rate.as_bps() as u128 / 8;
        self.tokens_nb = (self.tokens_nb + gained).min(self.capacity_nb);
    }

    /// Tries to send `bytes` at time `now`. Consumes tokens and returns
    /// `true` if allowed; otherwise leaves the bucket unchanged and returns
    /// `false` (the packet is dropped, giving backpressure to the sender's
    /// congestion control, §3.2).
    #[inline]
    pub fn try_consume(&mut self, bytes: u64, now: Instant) -> bool {
        self.refill(now);
        let cost = bytes as u128 * 1_000_000_000;
        if cost <= self.tokens_nb {
            self.tokens_nb -= cost;
            true
        } else {
            false
        }
    }

    /// Whether `bytes` would be admitted at `now`, without consuming.
    /// Refills first, so a following [`try_consume`](Self::try_consume) at
    /// the same `now` sees the identical fill and decides identically.
    pub fn conforms(&mut self, bytes: u64, now: Instant) -> bool {
        self.refill(now);
        bytes as u128 * 1_000_000_000 <= self.tokens_nb
    }

    /// Consumes up to `bytes`, saturating at the available fill, and
    /// returns the bytes actually taken. Inner hierarchy nodes use this
    /// for *accounting* (class / uplink usage for scavenging decisions)
    /// where the admit verdict was already made at the leaf: the node
    /// records what it can without ever rejecting.
    pub fn consume_saturating(&mut self, bytes: u64, now: Instant) -> u64 {
        self.refill(now);
        let cost = bytes as u128 * 1_000_000_000;
        let taken = cost.min(self.tokens_nb);
        self.tokens_nb -= taken;
        (taken / 1_000_000_000) as u64
    }

    /// Current fill level in bytes (after refilling to `now`).
    pub fn available_bytes(&mut self, now: Instant) -> u64 {
        self.refill(now);
        (self.tokens_nb / 1_000_000_000) as u64
    }

    /// Current fill in nano-bytes (after refilling to `now`): the exact
    /// internal resolution, for schedulers that budget whole service
    /// rounds against the bucket.
    pub fn available_nanobytes(&mut self, now: Instant) -> u128 {
        self.refill(now);
        self.tokens_nb
    }

    /// Removes exactly `nb` nano-bytes, saturating at zero, without
    /// refilling (the caller already settled the clock via
    /// [`available_nanobytes`](Self::available_nanobytes)).
    pub fn debit_nanobytes(&mut self, nb: u128) {
        self.tokens_nb = self.tokens_nb.saturating_sub(nb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MBPS100: Bandwidth = Bandwidth(100_000_000);

    #[test]
    fn starts_full_and_drains() {
        let t0 = Instant::from_secs(0);
        let mut tb = TokenBucket::new(MBPS100, 10_000, t0);
        assert!(tb.try_consume(10_000, t0));
        assert!(!tb.try_consume(1, t0));
    }

    #[test]
    fn refills_at_exact_rate() {
        let t0 = Instant::from_secs(0);
        let mut tb = TokenBucket::new(MBPS100, 12_500_000, t0);
        assert!(tb.try_consume(12_500_000, t0)); // drain
        // 100 Mbps = 12.5 MB/s ⇒ after 1 s exactly 12.5 MB refilled.
        let t1 = t0 + Duration::from_secs(1);
        assert_eq!(tb.available_bytes(t1), 12_500_000);
        assert!(tb.try_consume(12_500_000, t1));
        assert!(!tb.try_consume(1, t1));
    }

    #[test]
    fn burst_capped_at_capacity() {
        let t0 = Instant::from_secs(0);
        let mut tb = TokenBucket::new(MBPS100, 1000, t0);
        let much_later = t0 + Duration::from_secs(3600);
        assert_eq!(tb.available_bytes(much_later), 1000);
    }

    #[test]
    fn sustained_rate_enforced() {
        // Send 1500-byte packets as fast as allowed for 1 s; accepted bytes
        // must be ≤ burst + rate·t.
        let t0 = Instant::from_secs(0);
        let mut tb = TokenBucket::new(Bandwidth::from_mbps(8), 3000, t0); // 1 MB/s
        let mut sent = 0u64;
        let mut now = t0;
        for _ in 0..10_000 {
            if tb.try_consume(1500, now) {
                sent += 1500;
            }
            now += Duration::from_micros(100);
        }
        let elapsed_s = 1.0;
        let max = 3000.0 + 1_000_000.0 * elapsed_s;
        assert!(sent as f64 <= max, "sent {sent} > {max}");
        // And it should achieve close to the full rate.
        assert!(sent as f64 >= 0.95 * 1_000_000.0, "sent only {sent}");
    }

    #[test]
    fn short_spike_allowed_then_limited() {
        let t0 = Instant::from_secs(0);
        let mut tb = TokenBucket::new(Bandwidth::from_mbps(8), 15_000, t0);
        // Spike: 10 × 1500 B back-to-back passes (burst).
        for _ in 0..10 {
            assert!(tb.try_consume(1500, t0));
        }
        // 11th is dropped.
        assert!(!tb.try_consume(1500, t0));
        // After 1.5 ms at 1 MB/s, 1500 B are available again.
        assert!(tb.try_consume(1500, t0 + Duration::from_micros(1500)));
    }

    #[test]
    fn rate_change_applies() {
        let t0 = Instant::from_secs(0);
        let mut tb = TokenBucket::new(Bandwidth::from_mbps(8), 1500, t0);
        assert!(tb.try_consume(1500, t0));
        tb.set_rate(Bandwidth::from_mbps(80)); // 10 MB/s
        // 150 µs at 10 MB/s = 1500 B.
        assert!(tb.try_consume(1500, t0 + Duration::from_micros(150)));
    }

    #[test]
    fn no_time_travel_refill() {
        let t1 = Instant::from_secs(10);
        let mut tb = TokenBucket::new(MBPS100, 1000, t1);
        assert!(tb.try_consume(1000, t1));
        // An earlier timestamp (clock skew) must not mint tokens.
        assert!(!tb.try_consume(100, Instant::from_secs(5)));
    }

    #[test]
    fn reconfigure_carries_tokens_without_free_burst() {
        let t0 = Instant::from_secs(0);
        // 8 Mbps = 1 MB/s with a 10 ms burst (10 kB bucket), drained dry.
        let mut tb =
            TokenBucket::with_burst_duration(Bandwidth::from_mbps(8), Duration::from_millis(10), t0);
        assert!(tb.try_consume(10_000, t0));
        assert!(!tb.try_consume(1, t0));
        // Renew to 10x the rate: the bucket must NOT refill to the new
        // (10x larger) capacity — burst state carries over from empty.
        tb.reconfigure(Bandwidth::from_mbps(80), Duration::from_millis(10), t0);
        assert_eq!(tb.available_bytes(t0), 0, "renewal granted a free burst");
        // Future refill runs at the new rate: 1 ms at 10 MB/s = 10 kB.
        assert_eq!(tb.available_bytes(t0 + Duration::from_millis(1)), 10_000);
    }

    #[test]
    fn reconfigure_settles_elapsed_interval_at_old_rate() {
        let t0 = Instant::from_secs(0);
        // 1 MB/s, 100 kB bucket, drained at t0; then 10 ms pass untouched.
        let mut tb = TokenBucket::new(Bandwidth::from_mbps(8), 100_000, t0);
        assert!(tb.try_consume(100_000, t0));
        let t1 = t0 + Duration::from_millis(10);
        // Reconfiguring to 100x the rate at t1 must credit the elapsed
        // 10 ms at the OLD rate (10 kB), not the new one (1 MB).
        tb.reconfigure(Bandwidth::from_mbps(800), Duration::from_millis(1), t1);
        assert_eq!(tb.available_bytes(t1), 10_000, "elapsed time credited at the new rate");
    }

    #[test]
    fn reconfigure_down_clamps_to_new_capacity() {
        let t0 = Instant::from_secs(0);
        let mut tb =
            TokenBucket::with_burst_duration(Bandwidth::from_mbps(80), Duration::from_millis(10), t0);
        assert_eq!(tb.available_bytes(t0), 100_000); // starts full
        // Shrinking the rate shrinks the bucket; the carried fill clamps.
        tb.reconfigure(Bandwidth::from_mbps(8), Duration::from_millis(10), t0);
        assert_eq!(tb.available_bytes(t0), 10_000);
    }

    #[test]
    fn conforms_matches_try_consume() {
        // Two identical buckets in lockstep: `conforms` on one must
        // predict exactly what `try_consume` on the other decides, at
        // every step of a mixed workload.
        let t0 = Instant::from_secs(0);
        let mut a = TokenBucket::new(MBPS100, 5_000, t0);
        let mut b = TokenBucket::new(MBPS100, 5_000, t0);
        let mut now = t0;
        for i in 0..200u64 {
            let bytes = 1 + (i * 7919) % 4000;
            let predicted = a.conforms(bytes, now);
            let decided = b.try_consume(bytes, now);
            assert_eq!(predicted, decided, "step {i}");
            if predicted {
                assert!(a.try_consume(bytes, now)); // keep a in lockstep
            }
            if i % 3 == 0 {
                now += Duration::from_micros(50);
            }
        }
    }

    #[test]
    fn consume_saturating_never_rejects() {
        let t0 = Instant::from_secs(0);
        let mut tb = TokenBucket::new(MBPS100, 1_000, t0);
        assert_eq!(tb.consume_saturating(600, t0), 600);
        // Only 400 left: the call takes what's there and reports it.
        assert_eq!(tb.consume_saturating(600, t0), 400);
        assert_eq!(tb.consume_saturating(600, t0), 0);
    }

    #[test]
    fn burst_duration_constructor() {
        let t0 = Instant::from_secs(0);
        // 80 Mbps for 50 ms = 500 kB burst.
        let mut tb = TokenBucket::with_burst_duration(
            Bandwidth::from_mbps(80),
            Duration::from_millis(50),
            t0,
        );
        assert_eq!(tb.available_bytes(t0), 500_000);
        // Tiny rates still admit one MTU.
        let mut tiny = TokenBucket::with_burst_duration(
            Bandwidth::from_kbps(1),
            Duration::from_millis(1),
            t0,
        );
        assert!(tiny.try_consume(1500, t0));
    }
}

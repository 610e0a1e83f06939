//! Probabilistic overuse-flow detector (OFD, paper §4.8).
//!
//! Transit and transfer ASes see far too many EERs for per-flow state, so
//! they monitor probabilistically: a count-min sketch accumulates the
//! *normalized* packet size of every packet — total packet size divided by
//! the reservation bandwidth, i.e. the amount of reservation-time the
//! packet consumes, measured here in nanoseconds. A flow that respects its
//! reservation accumulates at most (about) one window worth of nanoseconds
//! per window; a flow whose estimate exceeds the window by the configured
//! headroom factor is flagged *suspicious* and handed to the deterministic
//! watchlist for exact confirmation (the sketch can only over-estimate, so
//! it produces false positives but no false negatives beyond the factor).
//!
//! Normalization (paper §4.8) is what lets a single sketch monitor
//! reservations of wildly different bandwidths, and makes all versions of
//! an EER — which share the flow label `(SrcAS, ResId)` but may have
//! different bandwidths — jointly consume at most the largest version's
//! allowance.
//!
//! The counters are saturating `u32`s (half the cache footprint and half
//! the per-window reset of `u64`s). A counter that saturates has already
//! passed the threshold, which [`OveruseFlowDetector::new`] requires to be
//! below `u32::MAX` ns (≈4.29 s of reservation time per window): every
//! verdict is the one unbounded counters would give.

use colibri_base::{Bandwidth, Duration, Instant, ReservationKey};

/// Configuration of the sketch and detection threshold.
#[derive(Debug, Clone, Copy)]
pub struct OfdConfig {
    /// Number of sketch rows (independent hash functions).
    pub depth: usize,
    /// Counters per row (power of two).
    pub width: usize,
    /// Measurement window.
    pub window: Duration,
    /// A flow is suspicious when its normalized usage estimate exceeds
    /// `window × factor`. Must be > 1 to absorb bursts and sketch noise,
    /// and `window × factor` must stay below `u32::MAX` ns.
    pub factor: f64,
}

impl Default for OfdConfig {
    fn default() -> Self {
        Self { depth: 4, width: 1 << 14, window: Duration::from_millis(100), factor: 1.25 }
    }
}

/// Computes a packet's normalized size in nanoseconds of reservation time:
/// `bytes · 8 / bw · 10⁹`. Zero-bandwidth reservations normalize to the
/// whole window (instantly suspicious), since no traffic is allowed on
/// them.
pub fn normalized_ns(bytes: u64, bw: Bandwidth) -> u64 {
    if bw.as_bps() == 0 {
        return u64::MAX / 4;
    }
    ((bytes as u128 * 8 * 1_000_000_000) / bw.as_bps() as u128) as u64
}

/// The count-min-sketch-based overuse-flow detector.
#[derive(Debug, Clone)]
pub struct OveruseFlowDetector {
    cfg: OfdConfig,
    /// `depth` rows of `width` counters, flattened; each saturates at
    /// `u32::MAX`, above the threshold.
    counters: Vec<u32>,
    seeds: Vec<u64>,
    window_idx: u64,
    threshold_ns: u64,
}

impl OveruseFlowDetector {
    /// Creates a detector. `width` is rounded up to a power of two.
    ///
    /// # Panics
    /// On a degenerate sketch, a `factor` of at most 1, or a threshold
    /// `window × factor` at or above `u32::MAX` ns, which the saturating
    /// 32-bit counters could not tell apart from a saturated one.
    pub fn new(cfg: OfdConfig) -> Self {
        assert!(cfg.depth >= 1 && cfg.width >= 2 && cfg.factor > 1.0);
        let width = cfg.width.next_power_of_two();
        let cfg = OfdConfig { width, ..cfg };
        let seeds = (0..cfg.depth)
            .map(|i| 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(2 * i as u64 + 1))
            .collect();
        let threshold_ns = (cfg.window.as_nanos() as f64 * cfg.factor) as u64;
        assert!(
            threshold_ns < u64::from(u32::MAX),
            "OFD threshold window × factor = {threshold_ns} ns must be below u32::MAX ns"
        );
        Self { counters: vec![0; cfg.depth * width], cfg, seeds, window_idx: 0, threshold_ns }
    }

    /// Memory footprint of the counter array in bytes (the paper stresses
    /// the OFD must fit in fast cache).
    pub fn memory_bytes(&self) -> usize {
        self.counters.len() * std::mem::size_of::<u32>()
    }

    fn maybe_roll(&mut self, now: Instant) {
        let idx = now.as_nanos() / self.cfg.window.as_nanos();
        if idx != self.window_idx {
            self.counters.fill(0);
            self.window_idx = idx;
        }
    }

    fn row_index(&self, row: usize, key: ReservationKey) -> usize {
        let mut x = key.src_as.to_u64() ^ ((key.res_id.0 as u64) << 17) ^ self.seeds[row];
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        row * self.cfg.width + (x as usize & (self.cfg.width - 1))
    }

    /// Records one packet and returns whether the flow now looks
    /// suspicious. `norm_ns` is the output of [`normalized_ns`].
    pub fn observe(&mut self, key: ReservationKey, norm_ns: u64, now: Instant) -> bool {
        self.maybe_roll(now);
        let add = u32::try_from(norm_ns).unwrap_or(u32::MAX);
        let mut estimate = u32::MAX;
        for row in 0..self.cfg.depth {
            let i = self.row_index(row, key);
            self.counters[i] = self.counters[i].saturating_add(add);
            estimate = estimate.min(self.counters[i]);
        }
        u64::from(estimate) > self.threshold_ns
    }

    /// Current usage estimate of a flow within this window, in ns; it
    /// saturates at `u32::MAX`, above the threshold.
    pub fn estimate(&mut self, key: ReservationKey, now: Instant) -> u64 {
        self.maybe_roll(now);
        let rows = 0..self.cfg.depth;
        rows.map(|row| u64::from(self.counters[self.row_index(row, key)])).min().unwrap_or(0)
    }

    /// The suspicion threshold in normalized nanoseconds per window.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns
    }

    /// The configured window.
    pub fn window(&self) -> Duration {
        self.cfg.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colibri_base::{IsdAsId, ResId};

    fn key(i: u32) -> ReservationKey {
        ReservationKey::new(IsdAsId::new(1, 100 + i / 7), ResId(i))
    }

    fn drive(
        ofd: &mut OveruseFlowDetector,
        k: ReservationKey,
        bw: Bandwidth,
        send_rate: Bandwidth,
        pkt_bytes: u64,
        duration: Duration,
    ) -> bool {
        // Send `pkt_bytes` packets at `send_rate` for `duration`; report
        // whether any observation flagged the flow.
        let gap_ns = send_rate.transmit_time_ns(pkt_bytes);
        let mut now = Instant::from_nanos(1); // stay inside window 0
        let end = now + duration;
        let mut flagged = false;
        while now < end {
            flagged |= ofd.observe(k, normalized_ns(pkt_bytes, bw), now);
            now += Duration::from_nanos(gap_ns);
        }
        flagged
    }

    #[test]
    fn normalization() {
        // 1250 bytes at 100 Mbps = 10 µs of reservation time.
        assert_eq!(normalized_ns(1250, Bandwidth::from_mbps(100)), 100_000);
        assert_eq!(normalized_ns(1250, Bandwidth::from_gbps(1)), 10_000);
        assert!(normalized_ns(1, Bandwidth::ZERO) > 1_000_000_000_000);
    }

    #[test]
    fn compliant_flow_not_flagged() {
        let mut ofd = OveruseFlowDetector::new(OfdConfig::default());
        let bw = Bandwidth::from_mbps(100);
        let flagged = drive(&mut ofd, key(1), bw, bw, 1250, Duration::from_millis(90));
        assert!(!flagged);
    }

    #[test]
    fn overusing_flow_flagged() {
        let mut ofd = OveruseFlowDetector::new(OfdConfig::default());
        let bw = Bandwidth::from_mbps(100);
        // Sending at 3× the reservation.
        let flagged =
            drive(&mut ofd, key(1), bw, Bandwidth::from_mbps(300), 1250, Duration::from_millis(90));
        assert!(flagged);
    }

    #[test]
    fn no_false_negative_above_factor() {
        // Property: a flow sending ≥ 2× its reservation for a full window
        // is always flagged — CM sketches only over-estimate.
        for seed in 0..20u32 {
            let mut ofd = OveruseFlowDetector::new(OfdConfig::default());
            let bw = Bandwidth::from_mbps(10 + 17 * seed as u64);
            let flagged = drive(
                &mut ofd,
                key(seed),
                bw,
                Bandwidth(bw.as_bps() * 2),
                1000,
                Duration::from_millis(95),
            );
            assert!(flagged, "seed {seed}");
        }
    }

    #[test]
    fn versions_share_budget() {
        // Two "versions" of one EER (same key, different bandwidths): each
        // sending at its own full rate; combined they exceed the max
        // version's budget and must be flagged.
        let mut ofd = OveruseFlowDetector::new(OfdConfig::default());
        let k = key(9);
        let bw1 = Bandwidth::from_mbps(100);
        let bw2 = Bandwidth::from_mbps(50);
        let mut now = Instant::from_nanos(1);
        let end = now + Duration::from_millis(90);
        let mut flagged = false;
        while now < end {
            flagged |= ofd.observe(k, normalized_ns(1250, bw1), now);
            flagged |= ofd.observe(k, normalized_ns(1250, bw2), now);
            // Interleave at the rate that saturates bw1 alone.
            now += Duration::from_nanos(bw1.transmit_time_ns(1250));
        }
        assert!(flagged);
    }

    #[test]
    fn window_roll_resets() {
        let mut ofd = OveruseFlowDetector::new(OfdConfig::default());
        let k = key(2);
        let big = ofd.threshold_ns() + 1;
        assert!(ofd.observe(k, big, Instant::from_nanos(1)));
        // Next window: estimate is reset.
        let next_window = Instant::from_millis(150);
        assert_eq!(ofd.estimate(k, next_window), 0);
        assert!(!ofd.observe(k, 10, next_window));
    }

    #[test]
    fn estimate_only_overestimates() {
        // With many flows hashed into a small sketch, each flow's estimate
        // must be ≥ its true usage.
        let mut ofd = OveruseFlowDetector::new(OfdConfig {
            width: 256,
            ..OfdConfig::default()
        });
        let now = Instant::from_nanos(1);
        let per_flow = 1_000u64;
        for i in 0..500 {
            ofd.observe(key(i), per_flow, now);
        }
        for i in 0..500 {
            assert!(ofd.estimate(key(i), now) >= per_flow, "flow {i}");
        }
    }

    #[test]
    fn memory_is_bounded() {
        let ofd = OveruseFlowDetector::new(OfdConfig::default());
        // 4 × 16384 × 4 B = 256 KiB — cache-resident as the paper requires.
        assert_eq!(ofd.memory_bytes(), 4 * 16384 * 4);
    }

    #[test]
    #[should_panic(expected = "below u32::MAX")]
    fn threshold_at_u32_max_is_refused() {
        let window = Duration::from_nanos(u64::from(u32::MAX) / 2 + 1);
        OveruseFlowDetector::new(OfdConfig { window, factor: 2.0, ..OfdConfig::default() });
    }

    /// The sketch with unbounded `u64` counters, over the same rows and
    /// hash as `ofd`: the reference the saturating `u32` counters must
    /// agree with.
    struct Reference {
        counters: Vec<u64>,
        window_idx: u64,
    }

    impl Reference {
        fn observe(
            &mut self,
            ofd: &OveruseFlowDetector,
            key: ReservationKey,
            norm_ns: u64,
            now: Instant,
        ) -> bool {
            let idx = now.as_nanos() / ofd.cfg.window.as_nanos();
            if idx != self.window_idx {
                self.counters.fill(0);
                self.window_idx = idx;
            }
            let mut estimate = u64::MAX;
            for row in 0..ofd.cfg.depth {
                let i = ofd.row_index(row, key);
                self.counters[i] = self.counters[i].saturating_add(norm_ns);
                estimate = estimate.min(self.counters[i]);
            }
            estimate > ofd.threshold_ns
        }
    }

    proptest::proptest! {
        /// Saturating `u32` counters give the verdicts of `u64` counters
        /// on random streams: small and huge per-packet loads, few and
        /// many flows, across window rolls.
        #[test]
        fn u32_verdicts_equal_u64_reference(
            packets in proptest::collection::vec(
                (0u32..40, 0u64..1 << 36, 0u64..20_000_000),
                1..400,
            ),
            width_log2 in 4u32..10,
        ) {
            let cfg = OfdConfig { width: 1 << width_log2, ..OfdConfig::default() };
            let mut ofd = OveruseFlowDetector::new(cfg);
            let mut reference = Reference { counters: vec![0; ofd.counters.len()], window_idx: 0 };
            let mut now = Instant::from_nanos(1);
            for &(flow, load, gap) in &packets {
                // Loads up to 2^36 ns, far past u32::MAX, but mostly below
                // the 125 ms threshold.
                let norm_ns = load >> (load % 29);
                now += Duration::from_nanos(gap);
                let verdict = ofd.observe(key(flow), norm_ns, now);
                proptest::prop_assert_eq!(
                    verdict,
                    reference.observe(&ofd, key(flow), norm_ns, now),
                    "flow {} load {} at {:?}", flow, norm_ns, now
                );
            }
        }
    }
}

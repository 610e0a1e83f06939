//! Property-based tests for the monitoring subsystems.

use colibri_base::{Bandwidth, Duration, Instant, IsdAsId, ResId, ReservationKey};
use colibri_monitor::{
    normalized_ns, OfdConfig, OveruseFlowDetector, ReplaySuppressor, ReplayVerdict, TokenBucket,
};
use proptest::prelude::*;

fn key(i: u32) -> ReservationKey {
    ReservationKey::new(IsdAsId::new(1, 1 + i / 97), ResId(i))
}

proptest! {
    /// Token-bucket conservation: for any packet schedule, accepted bytes
    /// never exceed burst + rate × elapsed.
    #[test]
    fn token_bucket_never_over_admits(
        rate_mbps in 1u64..1000,
        burst in 1500u64..100_000,
        pkts in prop::collection::vec((0u64..2_000_000, 40u64..2000), 1..200),
    ) {
        let rate = Bandwidth::from_mbps(rate_mbps);
        let t0 = Instant::from_secs(1);
        let mut tb = TokenBucket::new(rate, burst, t0);
        let mut times: Vec<(u64, u64)> = pkts;
        times.sort_unstable();
        let mut accepted = 0u64;
        let mut last = 0u64;
        for (offset_us, bytes) in times {
            let now = t0 + Duration::from_micros(offset_us);
            if tb.try_consume(bytes, now) {
                accepted += bytes;
            }
            last = last.max(offset_us);
        }
        let allowance = burst as f64 + rate.as_bps() as f64 / 8.0 * (last as f64 / 1e6);
        prop_assert!(
            accepted as f64 <= allowance + 1.0,
            "accepted {accepted} > allowance {allowance}"
        );
    }

    /// Replay suppression has no false negatives: a uid re-submitted at
    /// the same instant is always flagged as a duplicate.
    #[test]
    fn replay_no_false_negatives(
        uids in prop::collection::vec(any::<u64>(), 1..100),
        log2_bits in 12u32..18,
    ) {
        let mut rs = ReplaySuppressor::new(log2_bits, Duration::from_secs(2));
        let now = Instant::from_secs(1);
        for &uid in &uids {
            rs.check_and_insert(uid, now);
            // Second submission must always be caught.
            prop_assert_eq!(rs.check_and_insert(uid, now), ReplayVerdict::Duplicate);
        }
    }

    /// The OFD sketch only over-estimates: each flow's estimate is at
    /// least its true accumulated usage within the window.
    #[test]
    fn ofd_estimate_is_upper_bound(
        flows in prop::collection::vec((0u32..500, 1u64..100_000), 1..300),
        width_log2 in 6u32..12,
    ) {
        let mut ofd = OveruseFlowDetector::new(OfdConfig {
            depth: 4,
            width: 1 << width_log2,
            // `now` stays in window 0, so the sketch never rolls; the
            // largest threshold the `u32` counters allow (≈4.29 s).
            window: Duration::from_secs(2),
            factor: 2.1,
        });
        let now = Instant::from_nanos(1);
        let mut truth: std::collections::HashMap<u32, u64> = Default::default();
        for &(f, usage) in &flows {
            ofd.observe(key(f), usage, now);
            *truth.entry(f).or_insert(0) += usage;
        }
        for (&f, &t) in &truth {
            prop_assert!(ofd.estimate(key(f), now) >= t, "flow {f} under-estimated");
        }
    }

    /// Normalization is monotone in packet size and antitone in bandwidth.
    #[test]
    fn normalization_monotonicity(bytes in 1u64..10_000, bw_mbps in 1u64..10_000) {
        let bw = Bandwidth::from_mbps(bw_mbps);
        prop_assert!(normalized_ns(bytes + 1, bw) >= normalized_ns(bytes, bw));
        let bw2 = Bandwidth::from_mbps(bw_mbps * 2);
        prop_assert!(normalized_ns(bytes, bw2) <= normalized_ns(bytes, bw));
        // A flow exactly at its reservation consumes exactly real time:
        // `bw`-many bits take 1 second per second of reservation.
        let one_sec_bytes = bw.as_bps() / 8;
        let ns = normalized_ns(one_sec_bytes, bw);
        prop_assert!((ns as i128 - 1_000_000_000i128).abs() <= 1, "ns = {ns}");
    }

    /// A compliant flow is never confirmed by the watchlist, regardless of
    /// its packetization.
    #[test]
    fn watchlist_never_convicts_compliant_flow(
        pkt_bytes in 100u64..1500,
        rate_mbps in 1u64..100,
    ) {
        use colibri_monitor::{Verdict, Watchlist};
        let window = Duration::from_millis(100);
        let mut wl = Watchlist::new(window, 0.05, 4);
        let bw = Bandwidth::from_mbps(rate_mbps);
        let k = key(1);
        let t0 = Instant::from_secs(1);
        wl.watch(k, bw, t0);
        // Send exactly at the reservation: one packet every
        // pkt_bytes·8/bw seconds.
        let gap = Duration::from_nanos(bw.transmit_time_ns(pkt_bytes));
        let mut now = t0;
        loop {
            match wl.observe(k, pkt_bytes, now) {
                None => {}
                Some(Verdict::Cleared) => break,
                Some(v) => prop_assert!(false, "compliant flow convicted: {v:?}"),
            }
            now += gap;
            prop_assert!(now < t0 + Duration::from_secs(10), "no verdict");
        }
    }
}

//! In-network duplicate suppression (paper §2.3, §5.1).
//!
//! An on-path adversary can capture an authenticated Colibri packet and
//! replay it, simultaneously congesting the path and framing the honest
//! source. Colibri therefore requires a replay-suppression system with
//! minimal state (Lee et al., reference \[32\] of the paper). This module implements the standard
//! construction: two Bloom filters covering adjacent time windows,
//! rotating as time advances. A packet is identified by the triple
//! `(SrcAS, ResId, Ts)` — the high-precision timestamp makes each packet
//! unique per source (paper §4.3) — and is accepted at most once within
//! the freshness horizon of two windows.
//!
//! Memory is fixed (`2 · bits`), insertion and lookup are O(k) hash
//! probes, and false positives (fresh packets reported as duplicates) are
//! bounded by the filter's load; false *negatives* only occur for replays
//! delayed past the horizon, which the router's freshness check rejects
//! anyway.

use colibri_base::{Duration, Instant, ReservationKey};

/// A single Bloom filter block.
#[derive(Debug, Clone)]
struct Bloom {
    bits: Vec<u64>,
    mask: u64,
    inserted: u64,
}

impl Bloom {
    fn new(log2_bits: u32) -> Self {
        let words = 1usize << log2_bits.saturating_sub(6);
        Self { bits: vec![0u64; words], mask: (1u64 << log2_bits) - 1, inserted: 0 }
    }

    fn clear(&mut self) {
        self.bits.fill(0);
        self.inserted = 0;
    }

    fn probe_positions(&self, uid: u64) -> [u64; 3] {
        // Three probes from two independent 64-bit mixes (Kirsch–
        // Mitzenmacher double hashing).
        let h1 = splitmix(uid);
        let h2 = splitmix(uid ^ 0x9E37_79B9_7F4A_7C15) | 1;
        [h1 & self.mask, h1.wrapping_add(h2) & self.mask, h1.wrapping_add(h2.wrapping_mul(2)) & self.mask]
    }

    fn contains(&self, uid: u64) -> bool {
        self.probe_positions(uid)
            .iter()
            .all(|&p| self.bits[(p >> 6) as usize] & (1 << (p & 63)) != 0)
    }

    fn insert(&mut self, uid: u64) {
        for p in self.probe_positions(uid) {
            self.bits[(p >> 6) as usize] |= 1 << (p & 63);
        }
        self.inserted += 1;
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The verdict of the suppressor for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayVerdict {
    /// First sighting — forward.
    Fresh,
    /// Seen before within the horizon — drop.
    Duplicate,
}

/// Rotating two-block duplicate suppressor.
#[derive(Debug, Clone)]
pub struct ReplaySuppressor {
    current: Bloom,
    previous: Bloom,
    window: Duration,
    /// Index of the window `current` covers.
    window_idx: u64,
}

impl ReplaySuppressor {
    /// Creates a suppressor with `2^log2_bits` bits per block and the given
    /// rotation window. The window should be at least the router's packet
    /// freshness horizon so that every packet passing the freshness check
    /// is covered by one of the two blocks.
    pub fn new(log2_bits: u32, window: Duration) -> Self {
        assert!(window.as_nanos() > 0);
        Self {
            current: Bloom::new(log2_bits),
            previous: Bloom::new(log2_bits),
            window,
            window_idx: 0,
        }
    }

    fn rotate_to(&mut self, now: Instant) {
        let idx = now.as_nanos() / self.window.as_nanos();
        if idx == self.window_idx {
            return;
        }
        if idx == self.window_idx + 1 {
            std::mem::swap(&mut self.current, &mut self.previous);
            self.current.clear();
        } else {
            // Jumped more than one window: both blocks are stale.
            self.current.clear();
            self.previous.clear();
        }
        self.window_idx = idx;
    }

    /// Computes the packet unique ID from its flow key and timestamp.
    pub fn packet_uid(key: ReservationKey, ts: u64) -> u64 {
        splitmix(key.src_as.to_u64())
            ^ splitmix((key.res_id.0 as u64) << 32 | 0xC01B)
            ^ splitmix(ts)
    }

    /// Checks and records one packet. Returns [`ReplayVerdict::Duplicate`]
    /// if the packet was already seen in the current or previous window.
    pub fn check_and_insert(&mut self, uid: u64, now: Instant) -> ReplayVerdict {
        self.rotate_to(now);
        if self.current.contains(uid) || self.previous.contains(uid) {
            return ReplayVerdict::Duplicate;
        }
        self.current.insert(uid);
        ReplayVerdict::Fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colibri_base::{IsdAsId, ResId};

    fn key() -> ReservationKey {
        ReservationKey::new(IsdAsId::new(1, 7), ResId(3))
    }

    #[test]
    fn first_fresh_then_duplicate() {
        let mut rs = ReplaySuppressor::new(16, Duration::from_secs(2));
        let now = Instant::from_secs(0);
        let uid = ReplaySuppressor::packet_uid(key(), 1234);
        assert_eq!(rs.check_and_insert(uid, now), ReplayVerdict::Fresh);
        assert_eq!(rs.check_and_insert(uid, now), ReplayVerdict::Duplicate);
        // Still a duplicate shortly after (same window).
        assert_eq!(
            rs.check_and_insert(uid, now + Duration::from_millis(500)),
            ReplayVerdict::Duplicate
        );
    }

    #[test]
    fn duplicate_across_adjacent_window() {
        let mut rs = ReplaySuppressor::new(16, Duration::from_secs(1));
        let uid = ReplaySuppressor::packet_uid(key(), 42);
        assert_eq!(rs.check_and_insert(uid, Instant::from_millis(900)), ReplayVerdict::Fresh);
        // Next window: previous block still remembers it.
        assert_eq!(
            rs.check_and_insert(uid, Instant::from_millis(1100)),
            ReplayVerdict::Duplicate
        );
    }

    #[test]
    fn forgotten_after_two_windows() {
        let mut rs = ReplaySuppressor::new(16, Duration::from_secs(1));
        let uid = ReplaySuppressor::packet_uid(key(), 42);
        assert_eq!(rs.check_and_insert(uid, Instant::from_secs(0)), ReplayVerdict::Fresh);
        // Two full windows later both blocks have rotated it out.
        assert_eq!(rs.check_and_insert(uid, Instant::from_secs(3)), ReplayVerdict::Fresh);
    }

    #[test]
    fn distinct_timestamps_are_mostly_fresh() {
        // Bloom filters have a small false-positive rate; at this load
        // (10k entries × 3 probes in 2^18 bits ≈ 11%) the expected
        // per-query fp is ≈ 0.13%, so well under 1% of 10k packets may be
        // misreported as duplicates — but never the other way around.
        let mut rs = ReplaySuppressor::new(18, Duration::from_secs(2));
        let now = Instant::from_secs(0);
        let mut false_dup = 0;
        for ts in 0..10_000u64 {
            let uid = ReplaySuppressor::packet_uid(key(), ts);
            if rs.check_and_insert(uid, now) == ReplayVerdict::Duplicate {
                false_dup += 1;
            }
        }
        assert!(false_dup < 100, "too many false duplicates: {false_dup}");
    }

    #[test]
    fn false_positive_rate_is_low() {
        // 2^22 bits, ≤100k entries, 3 hashes ⇒ load ≈ 7%, fp ≈ 0.04%.
        let mut rs = ReplaySuppressor::new(22, Duration::from_secs(10));
        let now = Instant::from_secs(0);
        for ts in 0..50_000u64 {
            rs.check_and_insert(ReplaySuppressor::packet_uid(key(), ts), now);
        }
        let mut fp = 0;
        for ts in 1_000_000..1_050_000u64 {
            if rs.check_and_insert(ReplaySuppressor::packet_uid(key(), ts), now)
                == ReplayVerdict::Duplicate
            {
                fp += 1;
            }
        }
        assert!(fp < 250, "false positive count too high: {fp}");
    }

    #[test]
    fn uid_distinguishes_flows() {
        let k1 = ReservationKey::new(IsdAsId::new(1, 7), ResId(3));
        let k2 = ReservationKey::new(IsdAsId::new(1, 7), ResId(4));
        let k3 = ReservationKey::new(IsdAsId::new(1, 8), ResId(3));
        assert_ne!(ReplaySuppressor::packet_uid(k1, 5), ReplaySuppressor::packet_uid(k2, 5));
        assert_ne!(ReplaySuppressor::packet_uid(k1, 5), ReplaySuppressor::packet_uid(k3, 5));
        assert_ne!(ReplaySuppressor::packet_uid(k1, 5), ReplaySuppressor::packet_uid(k1, 6));
    }

    #[test]
    fn long_gap_clears_both_blocks() {
        let mut rs = ReplaySuppressor::new(16, Duration::from_secs(1));
        let uid = ReplaySuppressor::packet_uid(key(), 1);
        rs.check_and_insert(uid, Instant::from_secs(0));
        assert_eq!(rs.check_and_insert(uid, Instant::from_secs(100)), ReplayVerdict::Fresh);
    }
}

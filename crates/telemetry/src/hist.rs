//! Log-linear (HDR-style) histograms.
//!
//! A histogram cell is a fixed array of atomic bucket counters plus a
//! running sum. The bucket layout is *log-linear*: values are grouped by
//! their power-of-two magnitude, and each magnitude is split into
//! `1 << SUB_BITS` linear sub-buckets, bounding the relative
//! quantization error at `2^-SUB_BITS` (12.5% with the 3 sub-bucket
//! bits used here) across the whole `u64` range. The mapping from value
//! to bucket index is pure integer arithmetic — no floats, no
//! configuration — so two histograms fed the same values are always
//! bit-identical, which is what lets snapshots participate in the
//! differential oracles.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-bucket bits per power-of-two magnitude.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;

/// Total number of buckets needed to cover the full `u64` range.
pub const BUCKETS: usize = (64 - SUB_BITS as usize) * SUB + SUB;

/// Maps a recorded value to its bucket index.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let group = (msb - SUB_BITS + 1) as usize;
    let sub = ((v >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    group * SUB + sub
}

/// The smallest value that lands in bucket `idx` (inverse of
/// [`bucket_index`], used for exposition bounds and quantiles).
pub fn bucket_lower_bound(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let group = idx / SUB;
    let sub = (idx % SUB) as u64;
    let base = 1u64 << (group as u32 + SUB_BITS - 1);
    base + sub * (base >> SUB_BITS)
}

/// The lock-free write side of one histogram (one shard's cell).
#[derive(Debug)]
pub struct HistCells {
    counts: Box<[AtomicU64; BUCKETS]>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for HistCells {
    fn default() -> Self {
        Self::new()
    }
}

impl HistCells {
    /// An empty histogram cell.
    pub fn new() -> Self {
        // `AtomicU64` is not `Copy`; build the fixed array through a Vec.
        let counts: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let counts: Box<[AtomicU64; BUCKETS]> =
            counts.into_boxed_slice().try_into().expect("BUCKETS-sized");
        Self { counts, sum: AtomicU64::new(0), count: AtomicU64::new(0) }
    }

    /// Records one value (lock-free, relaxed ordering).
    #[inline]
    pub fn observe(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one value with plain loads and stores instead of locked
    /// read-modify-writes, for a cell whose only writer is the calling
    /// thread (a per-thread shard). A concurrent writer on the same cell
    /// could lose an update; readers still see whole values.
    #[inline]
    pub fn observe_sole_writer(&self, v: u64) {
        let add = |cell: &AtomicU64, n: u64| {
            cell.store(cell.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
        };
        add(&self.counts[bucket_index(v)], 1);
        add(&self.sum, v);
        add(&self.count, 1);
    }

    /// Reads a consistent-at-quiescence snapshot of this cell.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = Vec::new();
        for (i, c) in self.counts.iter().enumerate() {
            let n = c.load(Ordering::Acquire);
            if n > 0 {
                buckets.push((i, n));
            }
        }
        HistSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Acquire),
            count: self.count.load(Ordering::Acquire),
        }
    }
}

/// A point-in-time copy of one histogram, sparse over non-empty buckets.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    /// `(bucket index, count)` for every non-empty bucket, ascending.
    pub buckets: Vec<(usize, u64)>,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Number of recorded values.
    pub count: u64,
}

impl HistSnapshot {
    /// Folds another histogram snapshot into this one (shard merge).
    pub fn merge(&mut self, other: &HistSnapshot) {
        let mut merged: Vec<(usize, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (self.buckets.iter().peekable(), other.buckets.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, na)), Some(&&(ib, nb))) => {
                    if ia == ib {
                        merged.push((ia, na + nb));
                        a.next();
                        b.next();
                    } else if ia < ib {
                        merged.push((ia, na));
                        a.next();
                    } else {
                        merged.push((ib, nb));
                        b.next();
                    }
                }
                (Some(_), None) => {
                    merged.extend(a.by_ref().copied());
                    break;
                }
                (None, Some(_)) => {
                    merged.extend(b.by_ref().copied());
                    break;
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
        self.sum += other.sum;
        self.count += other.count;
    }

    /// The difference `self - earlier` (counters are monotone, so every
    /// per-bucket count saturates at zero if the baseline ran ahead).
    pub fn delta_since(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let mut buckets = Vec::with_capacity(self.buckets.len());
        let mut e = earlier.buckets.iter().peekable();
        for &(i, n) in &self.buckets {
            while e.peek().is_some_and(|&&(ie, _)| ie < i) {
                e.next();
            }
            let base = match e.peek() {
                Some(&&(ie, ne)) if ie == i => ne,
                _ => 0,
            };
            if n > base {
                buckets.push((i, n - base));
            }
        }
        HistSnapshot {
            buckets,
            sum: self.sum.saturating_sub(earlier.sum),
            count: self.count.saturating_sub(earlier.count),
        }
    }

    /// Deterministic quantile estimate: the lower bound of the bucket
    /// containing the `q`-th recorded value (`0.0 ≤ q ≤ 1.0`).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_lower_bound(i);
            }
        }
        bucket_lower_bound(self.buckets.last().map(|&(i, _)| i).unwrap_or(0))
    }

    /// Mean of the recorded values (exact: from the running sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_monotone_and_continuous() {
        // Every value maps to a bucket whose lower bound is ≤ the value,
        // and bucket indices never decrease with the value.
        let mut values: Vec<u64> = (0..64u32)
            .flat_map(|shift| [0u64, 1, 3].map(|off| (1u64 << shift).saturating_add(off)))
            .collect();
        values.sort_unstable();
        let mut last = 0usize;
        for v in values {
            let idx = bucket_index(v);
            assert!(idx >= last, "index regressed at {v}");
            assert!(bucket_lower_bound(idx) <= v, "lower bound above value at {v}");
            last = idx;
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn lower_bound_inverts_index() {
        for idx in 0..BUCKETS {
            let lb = bucket_lower_bound(idx);
            assert_eq!(bucket_index(lb), idx, "bucket {idx} lower bound {lb}");
        }
    }

    #[test]
    fn relative_error_bounded() {
        // Log-linear with 3 sub-bits: lower bound within 12.5% of value.
        for v in [10u64, 100, 1_000, 65_537, 1 << 40, u64::MAX / 3] {
            let lb = bucket_lower_bound(bucket_index(v));
            assert!(lb <= v);
            assert!((v - lb) as f64 / v as f64 <= 0.125 + 1e-9, "error too large at {v}");
        }
    }

    #[test]
    fn observe_merge_delta_quantile() {
        let a = HistCells::new();
        let b = HistCells::new();
        for v in [1u64, 2, 3, 100, 100, 1000] {
            a.observe(v);
        }
        for v in [5u64, 100, 1 << 20] {
            b.observe(v);
        }
        let base = a.snapshot();
        a.observe(7);
        let now = a.snapshot();
        let d = now.delta_since(&base);
        assert_eq!(d.count, 1);
        assert_eq!(d.sum, 7);
        assert_eq!(d.buckets, vec![(bucket_index(7), 1)]);

        let mut m = now.clone();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 10);
        assert_eq!(m.sum, now.sum + (5 + 100 + (1 << 20)));
        // Median of {1,2,3,5,7,100,100,100,1000,2^20} falls in bucket of 7.
        assert_eq!(m.quantile(0.5), 7);
        assert_eq!(m.quantile(0.0), 1);
        assert!(m.quantile(1.0) <= 1 << 20);
    }
}

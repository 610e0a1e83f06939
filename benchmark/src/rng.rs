//! Seeded randomness for workload generation, and the operation-stream
//! hash the determinism tests compare.

/// SplitMix64: tiny, fast, and good enough for workload shuffling. Every
/// generator in a run is forked from the `--seed` value, so the same seed
/// gives the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(mix(seed ^ 0x5EED_C011_B215_EED5))
    }

    /// An independent stream for one purpose (`label` is a small constant).
    pub fn fork(&self, label: u64) -> Rng {
        Rng(mix(self.0 ^ mix(label.wrapping_add(0x9E37_79B9_7F4A_7C15))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻³² for every
    /// `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Order-sensitive hash of the generated operation stream. Two runs made
/// the same inputs iff their hashes over the same number of operations
/// agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHash(pub u64);

impl Default for StreamHash {
    fn default() -> Self {
        StreamHash(0xCBF2_9CE4_8422_2325)
    }
}

impl StreamHash {
    #[inline]
    pub fn push(&mut self, v: u64) {
        self.0 = mix(self.0 ^ v).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let mut c = Rng::new(8);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..16).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..16).map(|_| c.next_u64()).collect::<Vec<_>>());
        let base = Rng::new(7);
        assert_ne!(base.fork(1).next_u64(), base.fork(2).next_u64());
    }

    #[test]
    fn hash_is_order_sensitive() {
        let mut h1 = StreamHash::default();
        let mut h2 = StreamHash::default();
        h1.push(1);
        h1.push(2);
        h2.push(2);
        h2.push(1);
        assert_ne!(h1, h2);
    }
}

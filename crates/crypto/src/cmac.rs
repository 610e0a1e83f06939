//! AES-CMAC message-authentication code (RFC 4493).
//!
//! CMAC is the workhorse of Colibri's data plane: SegR tokens (paper Eq. 3),
//! EER hop authenticators σᵢ (Eq. 4), per-packet hop validation fields
//! (Eq. 6), and the DRKey pseudo-random function are all AES-CMAC
//! computations. A border router performs two CMACs per EER packet and must
//! do so without any per-flow state, so the implementation offers both a
//! one-shot API over a slice and an incremental builder for composite
//! inputs (`ResInfo || EERInfo || (Inᵢ, Egᵢ)`).

use crate::aes::Aes128;

const BLOCK: usize = 16;
const RB: u8 = 0x87; // constant for 128-bit block doubling (RFC 4493 §2.3)

/// Doubles a value in GF(2^128) as required for CMAC subkey generation:
/// shift the big-endian 128-bit value left by one and, if the top bit
/// fell off, reduce by x¹²⁸ = x⁷ + x² + x + 1 (branch-free).
fn dbl(block: [u8; 16]) -> [u8; 16] {
    let v = u128::from_be_bytes(block);
    ((v << 1) ^ ((v >> 127) * u128::from(RB))).to_be_bytes()
}

/// XOR of two blocks. Written bytewise so it compiles to one vector XOR
/// and a single 16-byte store, which the cipher's 16-byte load can
/// forward from (two 8-byte stores would stall it).
#[inline]
fn xor_block(a: [u8; 16], b: &[u8; 16]) -> [u8; 16] {
    core::array::from_fn(|i| a[i] ^ b[i])
}

/// A keyed AES-CMAC instance with precomputed subkeys.
///
/// Cloning is cheap (a few round keys); routers keep one instance per local
/// secret value and derive per-reservation instances on the fly.
#[derive(Clone)]
pub struct Cmac {
    cipher: Aes128,
    k1: [u8; 16],
    k2: [u8; 16],
}

impl Cmac {
    /// Creates a CMAC instance for `key`, deriving subkeys K1/K2.
    pub fn new(key: &[u8; 16]) -> Self {
        let [cmac] = Self::new_each([key]);
        cmac
    }

    /// Builds a CMAC instance reusing an already-expanded cipher.
    pub fn from_cipher(cipher: Aes128) -> Self {
        let k1 = dbl(cipher.encrypt(&[0u8; 16]));
        Self { cipher, k1, k2: dbl(k1) }
    }

    /// An unkeyed instance, overwritten by [`Self::new_each`].
    const ZERO: Cmac = Cmac { cipher: Aes128::ZERO, k1: [0; 16], k2: [0; 16] };

    /// Creates `N` CMAC instances for `N` independent keys with both
    /// serial bottlenecks interleaved: the key expansions run in lockstep
    /// ([`Aes128::new_each`]) and the subkey derivations `L = AES_K(0)`
    /// run as one `N`-wide batch — `N` key expansions and `N` AES blocks,
    /// like `N` [`Self::new`] calls. This is how the router expands a
    /// burst of freshly derived σ authenticators and the gateway a path's
    /// σ at install.
    #[inline]
    pub fn new_each<const N: usize>(keys: [&[u8; 16]; N]) -> [Cmac; N] {
        let mut cmacs = [Self::ZERO; N];
        Aes128::expand_into(keys, cmacs.each_mut().map(|c| &mut c.cipher));
        let mut l_blocks = [[0u8; 16]; N];
        Aes128::encrypt_each(cmacs.each_ref().map(|c| &c.cipher), &mut l_blocks);
        for (cmac, l) in cmacs.iter_mut().zip(l_blocks) {
            cmac.k1 = dbl(l);
            cmac.k2 = dbl(cmac.k1);
        }
        cmacs
    }

    /// Builds the final CMAC block for a message that fits in one block:
    /// XOR with K1 when it is exactly one complete block, 10*-padded and
    /// XORed with K2 otherwise (RFC 4493 §2.4). Since X₀ = 0, this block
    /// is also the cipher input — no running state is needed.
    #[inline(always)]
    fn last_block_short(&self, msg: &[u8]) -> [u8; 16] {
        if let Ok(full) = <[u8; 16]>::try_from(msg) {
            return xor_block(full, &self.k1);
        }
        let mut last = [0u8; 16];
        last[..msg.len()].copy_from_slice(msg);
        last[msg.len()] = 0x80;
        xor_block(last, &self.k2)
    }

    /// Computes the 16-byte tag over `msg` in one shot.
    ///
    /// Every block but the last is absorbed straight from `msg`; the last
    /// (1–16 bytes, or the empty message) gets the K1/K2 treatment of
    /// [`Self::last_block_short`]. A single-block message — the data
    /// plane's hottest MAC, the 12-byte `Ts || PktSize` input of Eq. 6 —
    /// is one padded block and one AES call. Always inlined, so a caller's
    /// constant message length folds the block split and the padding.
    #[inline(always)]
    pub fn tag(&self, msg: &[u8]) -> [u8; 16] {
        let (body, tail) = msg.split_at(msg.len().saturating_sub(1) / BLOCK * BLOCK);
        let mut x = [0u8; 16];
        for blk in body.chunks_exact(BLOCK) {
            x = xor_block(x, blk.try_into().expect("one block"));
            self.cipher.encrypt_block(&mut x);
        }
        let mut last = xor_block(x, &self.last_block_short(tail));
        self.cipher.encrypt_block(&mut last);
        last
    }

    /// Computes the tag truncated to `N` bytes (N ≤ 16). Colibri uses
    /// `N = 4` for hop validation fields (`ℓ_hvf = 4` in the paper).
    /// A short message costs exactly one AES block, so the 4-byte HVF
    /// path is one block per hop.
    #[inline(always)]
    pub fn tag_truncated<const N: usize>(&self, msg: &[u8]) -> [u8; N] {
        const { assert!(N <= 16) };
        let full = self.tag(msg);
        let mut out = [0u8; N];
        out.copy_from_slice(&full[..N]);
        out
    }

    /// Computes `N` tags under this key over `N` independent messages,
    /// driving the block cipher `N`-wide ([`Aes128::encrypt_each`]) block
    /// by block when the messages have one length — the router's Eq. 3
    /// SegR tokens and Eq. 4 hop authenticators, where one AS secret
    /// authenticates `N` packets' fixed-size inputs concurrently. Lanes
    /// of different lengths fall back to `N` [`Self::tag`] calls; either
    /// way the result is bit-identical to `N` [`Self::tag`] calls and
    /// costs the same AES blocks. Always inlined, so fixed-size inputs
    /// split and pad without a `memcpy` call.
    #[inline(always)]
    pub fn tag_each<const N: usize>(&self, msgs: [&[u8]; N]) -> [[u8; 16]; N] {
        let len = msgs.first().map_or(0, |m| m.len());
        if msgs.iter().any(|m| m.len() != len) {
            return msgs.map(|m| self.tag(m));
        }
        let split = len.saturating_sub(1) / BLOCK * BLOCK;
        let mut x = [[0u8; 16]; N];
        for at in (0..split).step_by(BLOCK) {
            for (x, m) in x.iter_mut().zip(msgs) {
                *x = xor_block(*x, m[at..at + BLOCK].try_into().expect("one block"));
            }
            Aes128::encrypt_each([&self.cipher; N], &mut x);
        }
        for (x, m) in x.iter_mut().zip(msgs) {
            *x = xor_block(*x, &self.last_block_short(&m[split..]));
        }
        Aes128::encrypt_each([&self.cipher; N], &mut x);
        x
    }

    /// Computes `N` single-block tags under `N` *pre-expanded* instances
    /// in exactly one `N`-wide AES batch — the Eq. 6 kernel, where the
    /// caller already holds the expanded round keys and K1/K2 subkeys
    /// (the gateway per installed hop, the router per freshly expanded
    /// σ), so only the final block encryption remains: `N` AES blocks and
    /// no key expansion. Panics unless every message fits in one block
    /// (≤ 16 bytes). Always inlined, so the wire-level callers' fixed
    /// 12-byte Eq. 6 inputs pad without a `memcpy` call.
    #[inline(always)]
    pub fn tags_short<const N: usize>(cmacs: [&Cmac; N], msgs: [&[u8]; N]) -> [[u8; 16]; N] {
        for m in msgs {
            assert!(m.len() <= BLOCK, "short-message CMAC batches require single-block messages");
        }
        let mut last = [[0u8; 16]; N];
        for (last, (cmac, msg)) in last.iter_mut().zip(cmacs.iter().zip(msgs)) {
            *last = cmac.last_block_short(msg);
        }
        Aes128::encrypt_each(cmacs.map(|c| &c.cipher), &mut last);
        last
    }

    /// Begins an incremental computation.
    pub fn start(&self) -> CmacState<'_> {
        CmacState {
            mac: self,
            x: [0u8; 16],
            buf: [0u8; 16],
            buf_len: 0,
        }
    }
}

impl std::fmt::Debug for Cmac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Cmac {{ .. }}")
    }
}

/// Incremental CMAC computation over a message supplied in chunks.
pub struct CmacState<'a> {
    mac: &'a Cmac,
    x: [u8; 16],
    buf: [u8; 16],
    buf_len: usize,
}

impl CmacState<'_> {
    /// Absorbs `data` into the running MAC.
    pub fn update(&mut self, data: &[u8]) {
        let mut data = data;
        // Keep at least one byte pending so `finish` can decide padding.
        while self.buf_len + data.len() > BLOCK {
            let take = BLOCK - self.buf_len;
            self.buf[self.buf_len..].copy_from_slice(&data[..take]);
            data = &data[take..];
            self.x = xor_block(self.x, &self.buf);
            self.mac.cipher.encrypt_block(&mut self.x);
            self.buf_len = 0;
        }
        self.buf[self.buf_len..self.buf_len + data.len()].copy_from_slice(data);
        self.buf_len += data.len();
    }

    /// Finalizes and returns the 16-byte tag. The pending bytes are the
    /// final block, so it gets the one-block K1/K2 treatment.
    pub fn finish(mut self) -> [u8; 16] {
        let last = self.mac.last_block_short(&self.buf[..self.buf_len]);
        self.x = xor_block(self.x, &last);
        self.mac.cipher.encrypt_block(&mut self.x);
        self.x
    }
}

/// Constant-time equality of two tags.
///
/// Routers compare attacker-supplied HVFs against locally recomputed ones;
/// a short-circuiting comparison would leak how many prefix bytes matched.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];
    const MSG: [u8; 64] = [
        0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93, 0x17,
        0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac, 0x45, 0xaf,
        0x8e, 0x51, 0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11, 0xe5, 0xfb, 0xc1, 0x19, 0x1a,
        0x0a, 0x52, 0xef, 0xf6, 0x9f, 0x24, 0x45, 0xdf, 0x4f, 0x9b, 0x17, 0xad, 0x2b, 0x41, 0x7b,
        0xe6, 0x6c, 0x37, 0x10,
    ];

    /// RFC 4493 §4 test vectors (all four message lengths), on the
    /// dispatched AES backend and on the T-table one, through the scalar
    /// constructor and the interleaved one.
    #[test]
    fn rfc4493_vectors() {
        let cases: [(&[u8], [u8; 16]); 4] = [
            (
                &[],
                [
                    0xbb, 0x1d, 0x69, 0x29, 0xe9, 0x59, 0x37, 0x28, 0x7f, 0xa3, 0x7d, 0x12, 0x9b,
                    0x75, 0x67, 0x46,
                ],
            ),
            (
                &MSG[..16],
                [
                    0x07, 0x0a, 0x16, 0xb4, 0x6b, 0x4d, 0x41, 0x44, 0xf7, 0x9b, 0xdd, 0x9d, 0xd0,
                    0x4a, 0x28, 0x7c,
                ],
            ),
            (
                &MSG[..40],
                [
                    0xdf, 0xa6, 0x67, 0x47, 0xde, 0x9a, 0xe6, 0x30, 0x30, 0xca, 0x32, 0x61, 0x14,
                    0x97, 0xc8, 0x27,
                ],
            ),
            (
                &MSG[..64],
                [
                    0x51, 0xf0, 0xbe, 0xbf, 0x7e, 0x3b, 0x9d, 0x92, 0xfc, 0x49, 0x74, 0x17, 0x79,
                    0x36, 0x3c, 0xfe,
                ],
            ),
        ];
        crate::aes::tests::on_both_backends(|| {
            let [lane, ..] = Cmac::new_each([&KEY; 4]);
            for cmac in [Cmac::new(&KEY), lane] {
                for (msg, expect) in cases {
                    assert_eq!(cmac.tag(msg), expect, "len {}", msg.len());
                }
            }
        });
    }

    #[test]
    fn incremental_matches_one_shot() {
        let cmac = Cmac::new(&KEY);
        for split in 0..=64 {
            let mut st = cmac.start();
            st.update(&MSG[..split]);
            st.update(&MSG[split..]);
            assert_eq!(st.finish(), cmac.tag(&MSG), "split {split}");
        }
    }

    #[test]
    fn incremental_many_small_chunks() {
        let cmac = Cmac::new(&KEY);
        let mut st = cmac.start();
        for b in MSG {
            st.update(&[b]);
        }
        assert_eq!(st.finish(), cmac.tag(&MSG));
    }

    #[test]
    fn truncation_is_prefix() {
        let cmac = Cmac::new(&KEY);
        let full = cmac.tag(&MSG);
        let short: [u8; 4] = cmac.tag_truncated(&MSG);
        assert_eq!(short, full[..4]);
    }

    /// `f` with its `(AES blocks, key expansions)` cost.
    fn with_cost<R>(f: impl FnOnce() -> R) -> (R, (u64, u64)) {
        let (b0, x0) = (crate::ops::aes_block_ops(), crate::ops::key_expansions());
        let r = f();
        (r, (crate::ops::aes_block_ops() - b0, crate::ops::key_expansions() - x0))
    }

    /// `N` distinct lane keys.
    fn lane_keys<const N: usize>(seed: u8) -> [[u8; 16]; N] {
        core::array::from_fn(|l| [(l as u8).wrapping_mul(seed).wrapping_add(3); 16])
    }

    /// Runs `$check::<N>()` at the data plane's lane widths 1, 4 and 8 and
    /// at the odd widths 2 and 3.
    macro_rules! at_widths {
        ($check:ident) => {{
            $check::<1>();
            $check::<2>();
            $check::<3>();
            $check::<4>();
            $check::<8>();
        }};
    }

    fn new_each_at<const N: usize>() {
        let keys = lane_keys::<N>(17);
        let (cmacs, cost) = with_cost(|| Cmac::new_each(keys.each_ref()));
        // N lockstep expansions plus one N-wide subkey batch.
        assert_eq!(cost, (N as u64, N as u64));
        for (cmac, key) in cmacs.iter().zip(&keys) {
            for msg in [&MSG[..0], &MSG[..12], &MSG[..16], &MSG[..40]] {
                assert_eq!(cmac.tag(msg), Cmac::new(key).tag(msg), "N {N} len {}", msg.len());
            }
        }
    }

    #[test]
    fn new_each_matches_scalar_instances() {
        at_widths!(new_each_at);
    }

    #[test]
    fn new4_matches_scalar_instances() {
        new_each_at::<4>();
    }

    #[test]
    fn new8_matches_scalar_instances() {
        new_each_at::<8>();
    }

    fn tag_each_at<const N: usize>() {
        let cmac = Cmac::new(&KEY);
        let check = |msgs: [&[u8]; N]| {
            let (batched, cost) = with_cost(|| cmac.tag_each(msgs));
            let (scalar, scalar_cost) = with_cost(|| msgs.map(|m| cmac.tag(m)));
            assert_eq!(batched, scalar, "N {N} lens {:?}", msgs.map(<[u8]>::len));
            assert_eq!(cost, scalar_cost, "N {N}: the AES blocks of N scalar tags");
        };
        // One length per batch (the lockstep path) at every block shape:
        // empty, a padded block, one full block, interior blocks plus a
        // padded or full tail.
        for len in [0, 1, 12, 16, 17, 22, 30, 32, 48] {
            check(core::array::from_fn(|l| &MSG[l..l + len]));
        }
        // Mixed lengths fall back lane by lane.
        check(core::array::from_fn(|l| &MSG[..l * 13 % 65]));
    }

    #[test]
    fn tag_each_matches_scalar_tags() {
        at_widths!(tag_each_at);
    }

    fn tags_short_at<const N: usize>() {
        let keys = lane_keys::<N>(29);
        let cmacs = Cmac::new_each(keys.each_ref());
        let msgs: [&[u8]; N] = core::array::from_fn(|l| &MSG[..[12, 16, 0, 7, 3, 1, 15, 10][l]]);
        let (tags, cost) = with_cost(|| Cmac::tags_short(cmacs.each_ref(), msgs));
        // Pre-expanded: one N-wide block batch, no expansion.
        assert_eq!(cost, (N as u64, 0), "N {N}");
        for l in 0..N {
            assert_eq!(tags[l], Cmac::new(&keys[l]).tag(msgs[l]), "N {N} lane {l}");
        }
    }

    #[test]
    fn tags_short_matches_scalar_and_skips_expansion() {
        at_widths!(tags_short_at);
    }

    #[test]
    fn tag4_short_each_matches_scalar_and_skips_expansion() {
        tags_short_at::<4>();
    }

    #[test]
    fn tag8_short_each_matches_scalar_and_skips_expansion() {
        tags_short_at::<8>();
    }

    /// Short tags straight from `N` raw keys: [`Cmac::new_each`] then
    /// [`Cmac::tags_short`].
    fn tags_short_from_keys_at<const N: usize>() {
        let keys = lane_keys::<N>(11);
        let msgs: [&[u8]; N] = core::array::from_fn(|l| &MSG[..[12, 16, 0, 5, 12, 1, 15, 8][l]]);
        let (tags, cost) = with_cost(|| {
            let cmacs = Cmac::new_each(keys.each_ref());
            Cmac::tags_short(cmacs.each_ref(), msgs)
        });
        // N lockstep expansions, one N-wide subkey batch, one N-wide tag batch.
        assert_eq!(cost, (2 * N as u64, N as u64), "N {N}");
        for l in 0..N {
            assert_eq!(tags[l], Cmac::new(&keys[l]).tag(msgs[l]), "N {N} lane {l}");
        }
    }

    #[test]
    fn tag4_short_multikey_matches_scalar() {
        tags_short_from_keys_at::<4>();
    }

    #[test]
    fn tag8_short_multikey_matches_scalar() {
        tags_short_from_keys_at::<8>();
    }

    #[test]
    fn tag_changes_with_message() {
        let cmac = Cmac::new(&KEY);
        assert_ne!(cmac.tag(b"hello"), cmac.tag(b"hellp"));
    }

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"abcd", b"abcd"));
        assert!(!ct_eq(b"abcd", b"abce"));
        assert!(!ct_eq(b"abc", b"abcd"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn dbl_known_values() {
        // From RFC 4493 §4: L = AES(K, 0^128), K1 = dbl(L), K2 = dbl(K1).
        let cipher = Aes128::new(&KEY);
        let k1 = dbl(cipher.encrypt(&[0u8; 16]));
        let k2 = dbl(k1);
        assert_eq!(
            k1,
            [
                0xfb, 0xee, 0xd6, 0x18, 0x35, 0x71, 0x33, 0x66, 0x7c, 0x85, 0xe0, 0x8f, 0x72, 0x36,
                0xa8, 0xde
            ]
        );
        assert_eq!(
            k2,
            [
                0xf7, 0xdd, 0xac, 0x30, 0x6a, 0xe2, 0x66, 0xcc, 0xf9, 0x0b, 0xc1, 0x1e, 0xe4, 0x6d,
                0x51, 0x3b
            ]
        );
    }
}

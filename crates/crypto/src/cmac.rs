//! AES-CMAC message-authentication code (RFC 4493).
//!
//! CMAC is the workhorse of Colibri's data plane: SegR tokens (paper Eq. 3),
//! EER hop authenticators σᵢ (Eq. 4), per-packet hop validation fields
//! (Eq. 6), and the DRKey pseudo-random function are all AES-CMAC
//! computations. A border router performs two CMACs per EER packet and must
//! do so without any per-flow state.
//!
//! Two kinds of input reach it. The control plane and DRKey MAC byte
//! strings of any length ([`Cmac::tag`], [`Cmac::start`]). The data plane
//! MACs fixed-layout messages whose fields it already holds as integers,
//! so it hands over the message as whole [`Block`]s, built and padded in
//! registers by the caller ([`Cmac::tag_padded_each`], [`PaddedTagKey`]),
//! and the kernels XOR in the subkey as an integer: no block is assembled
//! byte by byte in memory and read back as a whole.

use crate::aes::Aes128;
use crate::drkey::Key;

const BLOCK: usize = 16;
const RB: u128 = 0x87; // constant for 128-bit block doubling (RFC 4493 §2.3)

/// One 16-byte CMAC block as an integer: the block's bytes read
/// little-endian, so block byte `i` is bits `8i..8i + 8`. On x86 this is
/// the layout of the block in memory and in an AES register, so a block
/// moves between an integer register pair and the cipher without a byte
/// swap; a big-endian field of the message sits at its byte offset
/// byte-swapped (`Block::from(ts.swap_bytes())` for an 8-byte `Ts` at
/// byte 0). A message whose length is not a multiple of 16 ends in a
/// block padded `10*` — a `0x80` byte right after the last message byte
/// ([`pad`]), zeros after it.
pub type Block = u128;

/// The `10*` padding of a final block that holds `len < 16` message bytes.
pub const fn pad(len: usize) -> Block {
    0x80 << (8 * (BLOCK - 1 - len))
}

/// Doubles a block in GF(2^128) as required for CMAC subkey generation:
/// shift left by one and, if the top bit fell off, reduce by
/// x¹²⁸ = x⁷ + x² + x + 1 (branch-free).
#[inline(always)]
fn dbl(v: Block) -> Block {
    (v << 1) ^ ((v >> 127) * RB)
}

/// XOR of two blocks of bytes. Written bytewise so it compiles to one
/// vector XOR: the byte-string path ([`Cmac::tag`]) stays in vector
/// registers from the message load to the cipher.
#[inline]
fn xor_block(a: [u8; 16], b: &[u8; 16]) -> [u8; 16] {
    core::array::from_fn(|i| a[i] ^ b[i])
}

/// A CMAC key in the 32 bytes that tags over messages shorter than one
/// block need: `[key, K2]`. Built by [`Cmac::compact_each`]; no AES
/// schedule is stored, so its [`PaddedTagKey`] kernel expands the key
/// again for every tag, interleaved with the one block it encrypts. A
/// pre-expanded [`Cmac`] is 208 bytes.
pub type CompactKey = [[u8; 16]; 2];

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

    /// An unkeyed instance, overwritten by [`Self::new_each`].
    const ZERO: Cmac = Cmac { cipher: Aes128::ZERO, k1: [0; 16], k2: [0; 16] };

    /// Creates `N` CMAC instances for `N` independent keys with both
    /// serial bottlenecks interleaved: the key expansions run in lockstep
    /// ([`Aes128::new_each`]) and the subkey derivations `L = AES_K(0)`
    /// run as one `N`-wide batch — `N` key expansions and `N` AES blocks,
    /// like `N` [`Self::new`] calls.
    pub fn new_each<const N: usize>(keys: [&[u8; 16]; N]) -> [Cmac; N] {
        let mut cmacs = [Self::ZERO; N];
        Aes128::expand_into(keys, cmacs.each_mut().map(|c| &mut c.cipher));
        let l_blocks = Aes128::encrypt_each(cmacs.each_ref().map(|c| &c.cipher), |_| [0; 16]);
        for (cmac, l) in cmacs.iter_mut().zip(l_blocks) {
            let k1 = dbl(Block::from_be_bytes(l));
            (cmac.k1, cmac.k2) = (k1.to_be_bytes(), dbl(k1).to_be_bytes());
        }
        cmacs
    }

    /// The final CMAC block of a message whose last `tail` bytes (0–16)
    /// did not fill a previous block: XOR with K1 when it is exactly one
    /// complete block, `10*`-padded and XORed with K2 otherwise (RFC 4493
    /// §2.4).
    fn last_block(&self, tail: &[u8]) -> [u8; 16] {
        if let Ok(full) = <[u8; 16]>::try_from(tail) {
            return xor_block(full, &self.k1);
        }
        let mut last = [0u8; 16];
        last[..tail.len()].copy_from_slice(tail);
        last[tail.len()] = 0x80;
        xor_block(last, &self.k2)
    }

    /// Encrypts one block under this key.
    #[inline]
    fn encrypt(&self, block: [u8; 16]) -> [u8; 16] {
        let [out] = Aes128::encrypt_each([&self.cipher], |_| block);
        out
    }

    /// Computes the 16-byte tag over `msg` in one shot.
    ///
    /// Every block but the last is absorbed straight from `msg`; the last
    /// (1–16 bytes, or the empty message) gets the K1/K2 treatment of
    /// RFC 4493 §2.4. This is the MAC of byte strings of any length — the
    /// control plane's payloads and the DRKey PRF; the data plane's
    /// fixed-layout messages go through the [`Block`] kernels.
    pub fn tag(&self, msg: &[u8]) -> [u8; 16] {
        let (body, tail) = msg.split_at(msg.len().saturating_sub(1) / BLOCK * BLOCK);
        let mut x = [0u8; 16];
        for blk in body.chunks_exact(BLOCK) {
            x = self.encrypt(xor_block(x, blk.try_into().expect("one block")));
        }
        self.encrypt(xor_block(x, &self.last_block(tail)))
    }

    /// Computes `N` tags under this key over `N` messages of `B` blocks
    /// each, whose last block is `10*`-padded (the message length is not a
    /// multiple of 16): the router's Eq. 3 SegR tokens and Eq. 4 hop
    /// authenticators, where one AS secret authenticates `N` packets'
    /// fixed-size inputs. The block cipher runs `N`-wide
    /// ([`Aes128::encrypt_each`]) block by block, and K2 is XORed
    /// into each last block as an integer inside the kernel. Costs `B·N`
    /// AES blocks, like `N` [`Self::tag`] calls over the unpadded bytes,
    /// and returns the same tags.
    #[inline(always)]
    pub fn tag_padded_each<const B: usize, const N: usize>(
        &self,
        msgs: [[Block; B]; N],
    ) -> [[u8; 16]; N] {
        let mut x = [[0u8; 16]; N];
        let k2 = Block::from_be_bytes(self.k2);
        for (b, last) in (0..B).map(|b| (b, b + 1 == B)) {
            let whiten = if last { k2 } else { 0 };
            x = Aes128::encrypt_each([&self.cipher; N], |l| {
                (Block::from_be_bytes(x[l]) ^ msgs[l][b] ^ whiten).to_be_bytes()
            });
        }
        x
    }

    /// Derives `N` [`CompactKey`]s in one `N`-wide pass — the lockstep
    /// expansions and subkey blocks of [`Self::new_each`], `N` of each —
    /// and keeps only each key and its K2. This is how the gateway keeps
    /// a path's σ at install.
    pub fn compact_each<const N: usize>(keys: [&[u8; 16]; N]) -> [CompactKey; N] {
        let cmacs = Self::new_each(keys);
        core::array::from_fn(|l| [*keys[l], cmacs[l].k2])
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

/// A CMAC key form that tags `N` one-block messages, each a `10*`-padded
/// [`Block`] (shorter than 16 bytes), lane `l` under `keys[l]`: the Eq. 6
/// hop-validation kernel is written once over it. Three forms, one cost
/// each:
///
/// * a pre-expanded [`Cmac`]: `N` AES blocks;
/// * a [`CompactKey`] (key and K2): `N` key expansions interleaved with
///   the `N` blocks — the gateway's stored σ;
/// * a raw [`Key`] nobody has expanded: per lane one key expansion, fused
///   with `L = AES_K(0)`, K2 doubled from `L` as an integer, then the one
///   tag block under the schedule just derived — `N` key expansions and
///   `2N` AES blocks, the router's freshly derived σ.
///
/// Every form returns what [`Cmac::tag`] returns under the same key over
/// the unpadded message bytes.
pub trait PaddedTagKey {
    /// `N` tags, lane `l` over the padded block `blocks[l]` under `keys[l]`.
    fn tags_padded<const N: usize>(keys: [&Self; N], blocks: [Block; N]) -> [[u8; 16]; N];
}

impl PaddedTagKey for Cmac {
    #[inline(always)]
    fn tags_padded<const N: usize>(keys: [&Self; N], blocks: [Block; N]) -> [[u8; 16]; N] {
        Aes128::encrypt_each(keys.map(|k| &k.cipher), |l| {
            (blocks[l] ^ Block::from_be_bytes(keys[l].k2)).to_be_bytes()
        })
    }
}

impl PaddedTagKey for CompactKey {
    #[inline(always)]
    fn tags_padded<const N: usize>(keys: [&Self; N], blocks: [Block; N]) -> [[u8; 16]; N] {
        Aes128::expand_encrypt_each(keys.map(|k| &k[0]), |l| {
            (blocks[l] ^ Block::from_be_bytes(keys[l][1])).to_be_bytes()
        })
    }
}

impl PaddedTagKey for Key {
    #[inline(always)]
    fn tags_padded<const N: usize>(keys: [&Self; N], blocks: [Block; N]) -> [[u8; 16]; N] {
        Aes128::expand_encrypt_zero_then_each(keys.map(|k| &k.0), |l, zero_ct| {
            let k2 = dbl(dbl(Block::from_be_bytes(zero_ct)));
            (blocks[l] ^ k2).to_be_bytes()
        })
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
            self.x = self.mac.encrypt(xor_block(self.x, &self.buf));
            self.buf_len = 0;
        }
        self.buf[self.buf_len..self.buf_len + data.len()].copy_from_slice(data);
        self.buf_len += data.len();
    }

    /// Finalizes and returns the 16-byte tag. The pending bytes are the
    /// final block, so it gets the one-block K1/K2 treatment.
    pub fn finish(self) -> [u8; 16] {
        let last = self.mac.last_block(&self.buf[..self.buf_len]);
        self.mac.encrypt(xor_block(self.x, &last))
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

    /// `msg`, `(B - 1)·16 + 1` to `B·16 - 1` bytes long (or empty, for one
    /// block), as `B` blocks, the last `10*`-padded — the reference for
    /// the callers' integer-built blocks.
    fn padded_msg<const B: usize>(msg: &[u8]) -> [Block; B] {
        assert!(msg.len() < B * BLOCK && (B == 1 || msg.len() > (B - 1) * BLOCK));
        let mut bytes = [[0u8; 16]; B];
        for (i, byte) in msg.iter().chain(&[0x80]).enumerate() {
            bytes[i / BLOCK][i % BLOCK] = *byte;
        }
        bytes.map(Block::from_be_bytes)
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

    #[test]
    fn pad_marks_the_byte_after_the_message() {
        assert_eq!(pad(0), 0x80 << 120);
        assert_eq!(pad(12).to_be_bytes()[12], 0x80);
        assert_eq!(pad(15), 0x80);
    }

    /// [`Cmac::tag_padded_each`] at `B` blocks against `N` scalar tags
    /// over every padded length of `B` blocks, with the same cost.
    fn tag_padded_each_at<const B: usize, const N: usize>() {
        let cmac = Cmac::new(&KEY);
        for len in (B - 1) * BLOCK + 1..B * BLOCK {
            let msgs: [&[u8]; N] = core::array::from_fn(|l| &MSG[l..l + len]);
            let (batched, cost) = with_cost(|| cmac.tag_padded_each(msgs.map(padded_msg::<B>)));
            let (scalar, scalar_cost) = with_cost(|| msgs.map(|m| cmac.tag(m)));
            assert_eq!(batched, scalar, "N {N} B {B} len {len}");
            assert_eq!(cost, scalar_cost, "N {N} B {B}: the AES blocks of N scalar tags");
            assert_eq!(cost, ((B * N) as u64, 0));
        }
    }

    fn tag_padded_each_blocks_at<const N: usize>() {
        tag_padded_each_at::<1, N>();
        tag_padded_each_at::<2, N>();
        tag_padded_each_at::<3, N>();
    }

    #[test]
    fn tag_each_matches_scalar_tags() {
        on_both_backends(|| at_widths!(tag_padded_each_blocks_at));
    }

    fn on_both_backends(check: impl FnMut()) {
        crate::aes::tests::on_both_backends(check);
    }

    /// One padded block per lane, lane `l` of length `LENS[l % 8]`.
    const LENS: [usize; 8] = [12, 14, 0, 7, 3, 1, 15, 10];

    fn one_block_msgs<const N: usize>() -> [&'static [u8]; N] {
        core::array::from_fn(|l| &MSG[l..l + LENS[l % 8]])
    }

    /// [`PaddedTagKey`] over pre-expanded [`Cmac`]s: one `N`-wide block
    /// batch, no expansion.
    fn tags_padded_cmac_at<const N: usize>() {
        let keys = lane_keys::<N>(29);
        let cmacs = Cmac::new_each(keys.each_ref());
        let msgs = one_block_msgs::<N>();
        let (tags, cost) =
            with_cost(|| PaddedTagKey::tags_padded(cmacs.each_ref(), msgs.map(padded_msg::<1>).map(|[b]| b)));
        assert_eq!(cost, (N as u64, 0), "N {N}");
        for l in 0..N {
            assert_eq!(tags[l], Cmac::new(&keys[l]).tag(msgs[l]), "N {N} lane {l}");
        }
    }

    #[test]
    fn tags_short_matches_scalar_and_skips_expansion() {
        on_both_backends(|| at_widths!(tags_padded_cmac_at));
    }

    #[test]
    fn tag4_short_each_matches_scalar_and_skips_expansion() {
        tags_padded_cmac_at::<4>();
    }

    #[test]
    fn tag8_short_each_matches_scalar_and_skips_expansion() {
        tags_padded_cmac_at::<8>();
    }

    /// [`PaddedTagKey`] over raw [`Key`]s: per lane one expansion fused
    /// with the subkey block, then the tag block.
    fn tags_padded_fresh_at<const N: usize>() {
        let keys = lane_keys::<N>(11).map(Key);
        let msgs = one_block_msgs::<N>();
        let blocks = msgs.map(padded_msg::<1>).map(|[b]| b);
        let (tags, cost) = with_cost(|| PaddedTagKey::tags_padded(keys.each_ref(), blocks));
        assert_eq!(cost, (2 * N as u64, N as u64), "N {N}");
        for l in 0..N {
            assert_eq!(tags[l], Cmac::new(&keys[l].0).tag(msgs[l]), "N {N} lane {l}");
        }
    }

    #[test]
    fn tags_fresh_matches_scalar_at_every_width() {
        on_both_backends(|| at_widths!(tags_padded_fresh_at));
    }

    #[test]
    fn tag4_short_multikey_matches_scalar() {
        tags_padded_fresh_at::<4>();
    }

    #[test]
    fn tag8_short_multikey_matches_scalar() {
        tags_padded_fresh_at::<8>();
    }

    /// [`Cmac::compact_each`] then [`PaddedTagKey`] over the
    /// [`CompactKey`]s against `Cmac::new(key).tag(msg)` at every message
    /// length 0–15, on both AES backends.
    fn tags_compact_at<const N: usize>() {
        let keys = lane_keys::<N>(23);
        let (compact, cost) = with_cost(|| Cmac::compact_each(keys.each_ref()));
        // The expansions and subkey blocks of `new_each`.
        assert_eq!(cost, (N as u64, N as u64), "N {N}");
        on_both_backends(|| {
            for len in 0..BLOCK {
                let msgs: [&[u8]; N] = core::array::from_fn(|l| &MSG[l..l + len]);
                let blocks = msgs.map(padded_msg::<1>).map(|[b]| b);
                let (tags, cost) = with_cost(|| PaddedTagKey::tags_padded(compact.each_ref(), blocks));
                // One expansion interleaved with one block per lane.
                assert_eq!(cost, (N as u64, N as u64), "N {N} len {len}");
                for l in 0..N {
                    let scalar = Cmac::new(&keys[l]).tag(msgs[l]);
                    assert_eq!(tags[l], scalar, "N {N} len {len} lane {l}");
                }
            }
        });
    }

    #[test]
    fn tags_compact_matches_scalar_at_every_short_length() {
        at_widths!(tags_compact_at);
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
        let k1 = dbl(Block::from_be_bytes(cipher.encrypt(&[0u8; 16])));
        let k2 = dbl(k1);
        assert_eq!(
            k1.to_be_bytes(),
            [
                0xfb, 0xee, 0xd6, 0x18, 0x35, 0x71, 0x33, 0x66, 0x7c, 0x85, 0xe0, 0x8f, 0x72, 0x36,
                0xa8, 0xde
            ]
        );
        assert_eq!(
            k2.to_be_bytes(),
            [
                0xf7, 0xdd, 0xac, 0x30, 0x6a, 0xe2, 0x66, 0xcc, 0xf9, 0x0b, 0xc1, 0x1e, 0xe4, 0x6d,
                0x51, 0x3b
            ]
        );
    }
}

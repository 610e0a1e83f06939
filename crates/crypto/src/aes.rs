//! AES-128 block cipher (FIPS-197) with two backends behind one type.
//!
//! On x86_64 CPUs that report AES-NI and SSSE3 — detected at run time, so
//! one binary serves every host — key expansion and encryption run on the
//! hardware round instructions, as in the paper's implementation (the
//! private `ni` module). Everywhere else a portable table-driven
//! implementation runs: the classic four T-tables (S-box composed with
//! MixColumns), which keep the per-block cost low enough that the
//! data-plane benchmarks preserve the paper's shape (cost proportional to
//! the number of MAC computations, i.e. path length). Both backends read
//! and write the same round keys, so an [`Aes128`] carries no backend tag
//! and the output is byte-identical either way.
//!
//! Only the pieces Colibri needs are exposed: key expansion and block
//! encryption (scalar and `N`-lane interleaved), plus an unoptimized
//! decryption. All modes (CMAC, CTR, AEAD) are built on top in sibling
//! modules.
//!
//! # Security note
//! The hardware path is constant-time: the AES-NI round instructions do
//! no key- or data-dependent memory access. The T-table fallback is not:
//! table-driven AES is vulnerable to cache-timing side channels and would
//! not be appropriate for production deployments on CPUs without AES
//! instructions. Decryption always runs the table-driven inverse cipher.

/// The AES S-box (FIPS-197 Fig. 7).
pub const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab,
    0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4,
    0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71,
    0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6,
    0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb,
    0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45,
    0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44,
    0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a,
    0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25,
    0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
    0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1,
    0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb,
    0x16,
];

/// The inverse S-box, derived from [`SBOX`] at compile time.
pub const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// GF(2^8) multiplication used for MixColumns (decryption path).
const fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
        i += 1;
    }
    p
}

/// The round constants' leading bytes (FIPS-197 §5.2).
const RCON: [u8; NR] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

const NR: usize = 10; // rounds for AES-128

/// The eleven round keys of an AES-128 schedule in FIPS-197 byte order —
/// the operand layout of the AES-NI round instructions. The T-table
/// backend reads them as big-endian words.
type RoundKeys = [[u8; 16]; NR + 1];

/// An expanded AES-128 key ready for block operations.
///
/// Key expansion is done once at construction; encrypting a block touches
/// only the precomputed round keys. This mirrors how the Colibri router
/// derives per-AS keys once and then authenticates packets at line rate.
#[derive(Clone)]
pub struct Aes128 {
    round_keys: RoundKeys,
}

impl Aes128 {
    /// An all-zero schedule, overwritten by the expansion kernels.
    pub(crate) const ZERO: Aes128 = Aes128 {
        round_keys: [[0; 16]; NR + 1],
    };

    /// Expands `key` into round keys (FIPS-197 §5.2).
    pub fn new(key: &[u8; 16]) -> Self {
        let [aes] = Self::new_each([key]);
        aes
    }

    /// Expands `N` independent keys with the schedules interleaved.
    ///
    /// Each schedule is a serial dependency chain (round key `r` needs
    /// round key `r - 1`), so a single expansion is latency-bound; running
    /// the chains in lockstep keeps `N` independent chains in flight. The
    /// batched router and the gateway use this to expand a burst of σ
    /// authenticators at once. Counts `N` key expansions.
    pub fn new_each<const N: usize>(keys: [&[u8; 16]; N]) -> [Aes128; N] {
        let mut out = [Self::ZERO; N];
        Self::expand_into(keys, out.each_mut());
        out
    }

    /// [`Self::new_each`] into schedules the caller already holds, so a
    /// schedule embedded in a larger struct is written in place.
    #[inline]
    pub(crate) fn expand_into<const N: usize>(keys: [&[u8; 16]; N], out: [&mut Aes128; N]) {
        crate::ops::record_key_expansions(N as u64);
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = hardware() {
            return ni.expand_each(keys, out);
        }
        soft::expand_each(keys, out)
    }

    /// Encrypts one 16-byte block in place.
    #[inline]
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        [*block] = Self::encrypt_each([self], |_| *block);
    }

    /// Encrypts one block, returning the ciphertext.
    #[inline]
    pub fn encrypt(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }

    /// Encrypts `N` independent blocks, lane `l` the block `block(l)`
    /// under `ciphers[l]`, with the lanes interleaved: each round advances
    /// every lane before any lane starts the next, so one lane's round
    /// latency overlaps with the others' work. Pass the same cipher `N`
    /// times to encrypt `N` blocks under one key. Results are
    /// bit-identical to `N` [`Self::encrypt_block`] calls, and count `N`
    /// block operations.
    ///
    /// `block` runs inside the kernel, so a block the caller builds from
    /// integers (a CMAC block with its subkey XORed in) moves from
    /// registers into the cipher state without a round trip through
    /// memory — a 16-byte load of a block just written in narrower
    /// stores would wait for the stores to drain instead of forwarding.
    /// This is the kernel of every batched MAC: the router derives a
    /// distinct σᵢ per packet and the gateway holds a distinct σᵢ per hop,
    /// so the final Eq. 6 block of a batch runs under distinct keys.
    #[inline]
    pub fn encrypt_each<const N: usize>(
        ciphers: [&Aes128; N],
        block: impl FnMut(usize) -> [u8; 16],
    ) -> [[u8; 16]; N] {
        crate::ops::record_aes_blocks(N as u64);
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = hardware() {
            return ni.encrypt_each(ciphers, block);
        }
        let mut blocks = core::array::from_fn(block);
        soft::encrypt_each(ciphers, &mut blocks);
        blocks
    }

    /// Encrypts `N` independent blocks, lane `l` the block `block(l)`
    /// under the raw key `keys[l]`, without storing any schedule: each
    /// round key is derived and applied in the same pass, round-major
    /// over the lanes, so the `N` key-expansion chains and the `N`
    /// encryptions overlap. Equal to [`Self::new_each`] then
    /// [`Self::encrypt_each`], and counts the same: `N` key
    /// expansions and `N` block operations. This is the kernel of a MAC
    /// whose key is kept in 16 bytes rather than 176.
    #[inline]
    pub fn expand_encrypt_each<const N: usize>(
        keys: [&[u8; 16]; N],
        block: impl FnMut(usize) -> [u8; 16],
    ) -> [[u8; 16]; N] {
        crate::ops::record_key_expansions(N as u64);
        crate::ops::record_aes_blocks(N as u64);
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = hardware() {
            return ni.expand_encrypt_each(keys, block);
        }
        let mut ciphers = [Self::ZERO; N];
        soft::expand_each(keys, ciphers.each_mut());
        let mut blocks = core::array::from_fn(block);
        soft::encrypt_each(ciphers.each_ref(), &mut blocks);
        blocks
    }

    /// Encrypts two blocks per lane under the raw key `keys[l]` with one
    /// key expansion: first the zero block, then the block `next(l, c)`
    /// builds from that block's ciphertext `c`. The schedule is derived
    /// during the first encryption and kept on the kernel's stack for the
    /// second, and `next` runs between them inside the kernel. Counts `N`
    /// key expansions and `2N` block operations. This is a CMAC tag under
    /// a key nobody has expanded yet: `L = AES_K(0)`, then one message
    /// block whitened with a subkey derived from `L`.
    #[inline]
    pub fn expand_encrypt_zero_then_each<const N: usize>(
        keys: [&[u8; 16]; N],
        next: impl FnMut(usize, [u8; 16]) -> [u8; 16],
    ) -> [[u8; 16]; N] {
        crate::ops::record_key_expansions(N as u64);
        crate::ops::record_aes_blocks(2 * N as u64);
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = hardware() {
            return ni.expand_encrypt_zero_then_each(keys, next);
        }
        let mut ciphers = [Self::ZERO; N];
        soft::expand_each(keys, ciphers.each_mut());
        let mut zero = [[0u8; 16]; N];
        soft::encrypt_each(ciphers.each_ref(), &mut zero);
        let mut next = next;
        let mut blocks = core::array::from_fn(|l| next(l, zero[l]));
        soft::encrypt_each(ciphers.each_ref(), &mut blocks);
        blocks
    }

    /// Decrypts one 16-byte block in place (straightforward inverse-cipher;
    /// not on any hot path — Colibri's modes only require encryption).
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        crate::ops::record_aes_blocks(1);
        let rk = &self.round_keys;
        let mut state = *block;
        add_round_key(&mut state, &rk[NR]);
        for round in (1..NR).rev() {
            inv_shift_rows(&mut state);
            inv_sub_bytes(&mut state);
            add_round_key(&mut state, &rk[round]);
            inv_mix_columns(&mut state);
        }
        inv_shift_rows(&mut state);
        inv_sub_bytes(&mut state);
        add_round_key(&mut state, &rk[0]);
        *block = state;
    }
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("Aes128 {{ .. }}")
    }
}

/// The AES-NI kernels, when they run on this CPU. The standard library
/// caches the CPUID probe, so this is one load per call.
#[cfg(target_arch = "x86_64")]
#[inline]
fn hardware() -> Option<ni::Kernels> {
    #[cfg(test)]
    if tests::SOFT_ONLY.with(std::cell::Cell::get) {
        return None;
    }
    ni::Kernels::detect()
}

/// The hardware backend: AES-NI round instructions, with the key
/// schedule built from PSHUFB + AESENCLAST rather than AESKEYGENASSIST
/// (whose latency serializes the schedule and measured no faster than
/// the T-tables). The only `unsafe` code in this crate lives here: the
/// kernels are reached through [`ni::Kernels`], which only a successful
/// CPU feature probe creates.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni {
    use super::{Aes128, NR, RCON};
    use core::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_set1_epi32,
        _mm_setzero_si128, _mm_shuffle_epi8, _mm_slli_si128, _mm_storeu_si128, _mm_xor_si128,
    };

    /// The kernels of this module, as safe calls. A value exists only on a
    /// CPU with AES-NI and SSSE3 — the features every kernel is compiled
    /// for — which is what makes each call below sound.
    #[derive(Clone, Copy)]
    pub(super) struct Kernels(());

    impl Kernels {
        /// The kernels, if this CPU has the instructions they use.
        #[inline]
        pub(super) fn detect() -> Option<Self> {
            let aes = std::arch::is_x86_feature_detected!("aes");
            (aes && std::arch::is_x86_feature_detected!("ssse3")).then_some(Kernels(()))
        }

        #[inline]
        pub(super) fn expand_each<const N: usize>(self, keys: [&[u8; 16]; N], out: [&mut Aes128; N]) {
            // SAFETY: `self` proves AES-NI and SSSE3 (see `detect`).
            unsafe { expand_each(keys, out) }
        }

        #[inline]
        pub(super) fn encrypt_each<const N: usize>(
            self,
            ciphers: [&Aes128; N],
            block: impl FnMut(usize) -> [u8; 16],
        ) -> [[u8; 16]; N] {
            // SAFETY: `self` proves AES-NI and SSSE3 (see `detect`).
            unsafe { encrypt_each(ciphers, block) }
        }

        #[inline]
        pub(super) fn expand_encrypt_each<const N: usize>(
            self,
            keys: [&[u8; 16]; N],
            block: impl FnMut(usize) -> [u8; 16],
        ) -> [[u8; 16]; N] {
            // SAFETY: `self` proves AES-NI and SSSE3 (see `detect`).
            unsafe { expand_encrypt_each(keys, block) }
        }

        #[inline]
        pub(super) fn expand_encrypt_zero_then_each<const N: usize>(
            self,
            keys: [&[u8; 16]; N],
            next: impl FnMut(usize, [u8; 16]) -> [u8; 16],
        ) -> [[u8; 16]; N] {
            // SAFETY: `self` proves AES-NI and SSSE3 (see `detect`).
            unsafe { expand_encrypt_zero_then_each(keys, next) }
        }
    }

    #[inline(always)]
    fn load(bytes: &[u8; 16]) -> __m128i {
        // SAFETY: an unaligned 16-byte load from a `[u8; 16]`; SSE2 is
        // part of the x86_64 baseline.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    #[inline(always)]
    fn store(bytes: &mut [u8; 16], v: __m128i) {
        // SAFETY: an unaligned 16-byte store into a `[u8; 16]`; SSE2 is
        // part of the x86_64 baseline.
        unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast(), v) }
    }

    /// `N` key schedules in lockstep. One round of one lane: broadcast
    /// RotWord(w3) into all four columns (PSHUFB), where ShiftRows is the
    /// identity, so AESENCLAST with Rcon as its round key yields
    /// SubWord(RotWord(w3)) ⊕ Rcon in every column; XOR that into the
    /// prefix-XOR of the previous round key (w0, w0⊕w1, …).
    ///
    /// # Safety
    /// Compiled for AES-NI and SSSE3: call only through [`Kernels`].
    #[target_feature(enable = "aes,ssse3")]
    fn expand_each<const N: usize>(keys: [&[u8; 16]; N], out: [&mut Aes128; N]) {
        let mut k = [_mm_setzero_si128(); N];
        for l in 0..N {
            k[l] = load(keys[l]);
            store(&mut out[l].round_keys[0], k[l]);
        }
        for (r, &rc) in RCON.iter().enumerate() {
            let rcon = _mm_set1_epi32(i32::from(rc));
            for l in 0..N {
                k[l] = next_round_key(k[l], rcon);
                store(&mut out[l].round_keys[r + 1], k[l]);
            }
        }
    }

    /// One step of the schedule: round key `r + 1` from round key `r`.
    #[target_feature(enable = "aes,ssse3")]
    #[inline]
    fn next_round_key(k: __m128i, rcon: __m128i) -> __m128i {
        // Byte indices 13, 14, 15, 12 in each 32-bit column: RotWord(w3).
        let rot_word_3 = _mm_set1_epi32(0x0c0f_0e0d);
        let t = _mm_aesenclast_si128(_mm_shuffle_epi8(k, rot_word_3), rcon);
        let x = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
        let x = _mm_xor_si128(x, _mm_slli_si128::<8>(x));
        _mm_xor_si128(x, t)
    }

    /// `N` blocks, lane `l` the block `block(l)` under the raw key
    /// `keys[l]`: each round derives every lane's next round key and
    /// applies it at once, so no schedule is written and the expansion
    /// chains overlap with the encryptions.
    ///
    /// # Safety
    /// Compiled for AES-NI and SSSE3: call only through [`Kernels`].
    #[target_feature(enable = "aes,ssse3")]
    fn expand_encrypt_each<const N: usize>(
        keys: [&[u8; 16]; N],
        mut block: impl FnMut(usize) -> [u8; 16],
    ) -> [[u8; 16]; N] {
        let mut k = [_mm_setzero_si128(); N];
        let mut s = [_mm_setzero_si128(); N];
        for l in 0..N {
            k[l] = load(keys[l]);
            s[l] = _mm_xor_si128(load(&block(l)), k[l]);
        }
        for &rc in &RCON[..NR - 1] {
            let rcon = _mm_set1_epi32(i32::from(rc));
            for l in 0..N {
                k[l] = next_round_key(k[l], rcon);
                s[l] = _mm_aesenc_si128(s[l], k[l]);
            }
        }
        let rcon = _mm_set1_epi32(i32::from(RCON[NR - 1]));
        let mut out = [[0u8; 16]; N];
        for l in 0..N {
            store(&mut out[l], _mm_aesenclast_si128(s[l], next_round_key(k[l], rcon)));
        }
        out
    }

    /// Per lane, the zero block and then `next(l, AES_k(0))` under the raw
    /// key `keys[l]`: the schedule is derived while the zero block is
    /// encrypted and kept in a local array for the second block.
    ///
    /// # Safety
    /// Compiled for AES-NI and SSSE3: call only through [`Kernels`].
    #[target_feature(enable = "aes,ssse3")]
    fn expand_encrypt_zero_then_each<const N: usize>(
        keys: [&[u8; 16]; N],
        mut next: impl FnMut(usize, [u8; 16]) -> [u8; 16],
    ) -> [[u8; 16]; N] {
        // Round-major: `rk[r][l]` is round key `r` of lane `l`, each
        // written once, as the zero block passes through round `r`.
        let mut k = keys.map(load);
        let mut s = k;
        let rk: [[__m128i; N]; NR + 1] = core::array::from_fn(|r| {
            if r > 0 {
                let rcon = _mm_set1_epi32(i32::from(RCON[r - 1]));
                for l in 0..N {
                    k[l] = next_round_key(k[l], rcon);
                    s[l] = if r < NR {
                        _mm_aesenc_si128(s[l], k[l])
                    } else {
                        _mm_aesenclast_si128(s[l], k[l])
                    };
                }
            }
            k
        });
        for l in 0..N {
            let mut first = [0u8; 16];
            store(&mut first, s[l]);
            s[l] = _mm_xor_si128(load(&next(l, first)), rk[0][l]);
        }
        for round in &rk[1..NR] {
            for l in 0..N {
                s[l] = _mm_aesenc_si128(s[l], round[l]);
            }
        }
        let mut out = [[0u8; 16]; N];
        for l in 0..N {
            store(&mut out[l], _mm_aesenclast_si128(s[l], rk[NR][l]));
        }
        out
    }

    /// `N` blocks, lane `l` the block `block(l)` under `ciphers[l]`:
    /// AESENC ×9 + AESENCLAST, round-major so the lanes' round latencies
    /// overlap.
    ///
    /// # Safety
    /// Compiled for AES-NI: call only through [`Kernels`].
    #[target_feature(enable = "aes")]
    fn encrypt_each<const N: usize>(
        ciphers: [&Aes128; N],
        mut block: impl FnMut(usize) -> [u8; 16],
    ) -> [[u8; 16]; N] {
        let mut s = [_mm_setzero_si128(); N];
        for l in 0..N {
            s[l] = _mm_xor_si128(load(&block(l)), load(&ciphers[l].round_keys[0]));
        }
        for r in 1..NR {
            for l in 0..N {
                s[l] = _mm_aesenc_si128(s[l], load(&ciphers[l].round_keys[r]));
            }
        }
        let mut out = [[0u8; 16]; N];
        for l in 0..N {
            store(&mut out[l], _mm_aesenclast_si128(s[l], load(&ciphers[l].round_keys[NR])));
        }
        out
    }
}

/// The portable backend: T-table encryption and the FIPS-197 word-wise
/// key schedule. The only path on CPUs without AES-NI, and the reference
/// the backend-equivalence tests hold the hardware path to.
mod soft {
    use super::{final_word, sub_word, Aes128, RoundKeys, NR, RCON, T0, T1, T2, T3};

    /// Round-key word `i` (FIPS-197 `w[i]`), read big-endian.
    #[inline(always)]
    fn word(rk: &RoundKeys, i: usize) -> u32 {
        let b = &rk[i / 4][4 * (i % 4)..4 * (i % 4) + 4];
        u32::from_be_bytes([b[0], b[1], b[2], b[3]])
    }

    /// `N` key schedules with the word recurrences interleaved, so `N`
    /// independent `sub_word` lookups are in flight at once.
    #[inline(never)]
    pub(super) fn expand_each<const N: usize>(keys: [&[u8; 16]; N], out: [&mut Aes128; N]) {
        let mut w = [[0u32; 4 * (NR + 1)]; N];
        for l in 0..N {
            for (i, chunk) in keys[l].chunks_exact(4).enumerate() {
                w[l][i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            }
        }
        for i in 4..4 * (NR + 1) {
            if i % 4 == 0 {
                let rcon = u32::from(RCON[i / 4 - 1]) << 24;
                for lane in &mut w {
                    lane[i] = lane[i - 4] ^ sub_word(lane[i - 1].rotate_left(8)) ^ rcon;
                }
            } else {
                for lane in &mut w {
                    lane[i] = lane[i - 4] ^ lane[i - 1];
                }
            }
        }
        for (aes, lane) in out.into_iter().zip(&w) {
            for (i, word) in lane.iter().enumerate() {
                aes.round_keys[i / 4][4 * (i % 4)..4 * (i % 4) + 4]
                    .copy_from_slice(&word.to_be_bytes());
            }
        }
    }

    /// `N`-wide interleaved T-table encryption: each round computes every
    /// lane's state before any lane advances, so the table-load latencies
    /// of one lane overlap with the arithmetic of the others. Kept out of
    /// line so the dispatch in [`Aes128`] stays small enough to inline.
    #[inline(never)]
    pub(super) fn encrypt_each<const N: usize>(ciphers: [&Aes128; N], blocks: &mut [[u8; 16]; N]) {
        let rks: [&RoundKeys; N] = core::array::from_fn(|l| &ciphers[l].round_keys);
        // s[lane][word], loaded big-endian and whitened with round key 0.
        let mut s = [[0u32; 4]; N];
        for l in 0..N {
            let b = &blocks[l];
            for c in 0..4 {
                s[l][c] = u32::from_be_bytes([b[4 * c], b[4 * c + 1], b[4 * c + 2], b[4 * c + 3]])
                    ^ word(rks[l], c);
            }
        }
        for round in 1..NR {
            for l in 0..N {
                let [s0, s1, s2, s3] = s[l];
                let rk = |c| word(rks[l], 4 * round + c);
                s[l] = [
                    T0[(s0 >> 24) as usize]
                        ^ T1[((s1 >> 16) & 0xff) as usize]
                        ^ T2[((s2 >> 8) & 0xff) as usize]
                        ^ T3[(s3 & 0xff) as usize]
                        ^ rk(0),
                    T0[(s1 >> 24) as usize]
                        ^ T1[((s2 >> 16) & 0xff) as usize]
                        ^ T2[((s3 >> 8) & 0xff) as usize]
                        ^ T3[(s0 & 0xff) as usize]
                        ^ rk(1),
                    T0[(s2 >> 24) as usize]
                        ^ T1[((s3 >> 16) & 0xff) as usize]
                        ^ T2[((s0 >> 8) & 0xff) as usize]
                        ^ T3[(s1 & 0xff) as usize]
                        ^ rk(2),
                    T0[(s3 >> 24) as usize]
                        ^ T1[((s0 >> 16) & 0xff) as usize]
                        ^ T2[((s1 >> 8) & 0xff) as usize]
                        ^ T3[(s2 & 0xff) as usize]
                        ^ rk(3),
                ];
            }
        }
        // Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
        for l in 0..N {
            let [s0, s1, s2, s3] = s[l];
            let out = [
                final_word(s0, s1, s2, s3),
                final_word(s1, s2, s3, s0),
                final_word(s2, s3, s0, s1),
                final_word(s3, s0, s1, s2),
            ];
            for c in 0..4 {
                let o = out[c] ^ word(rks[l], 4 * NR + c);
                blocks[l][4 * c..4 * c + 4].copy_from_slice(&o.to_be_bytes());
            }
        }
    }
}

/// Encryption T-table 0: `T0[x] = (2·S[x], S[x], S[x], 3·S[x])` packed
/// big-endian into a `u32`; T1..T3 are byte rotations of T0.
const T0: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        let s3 = s2 ^ s;
        t[i] = ((s2 as u32) << 24) | ((s as u32) << 16) | ((s as u32) << 8) | (s3 as u32);
        i += 1;
    }
    t
};
const T1: [u32; 256] = rot_table(&T0, 8);
const T2: [u32; 256] = rot_table(&T0, 16);
const T3: [u32; 256] = rot_table(&T0, 24);

const fn rot_table(src: &[u32; 256], r: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = src[i].rotate_right(r);
        i += 1;
    }
    t
}

#[inline]
fn final_word(a: u32, b: u32, c: u32, d: u32) -> u32 {
    ((SBOX[(a >> 24) as usize] as u32) << 24)
        | ((SBOX[((b >> 16) & 0xff) as usize] as u32) << 16)
        | ((SBOX[((c >> 8) & 0xff) as usize] as u32) << 8)
        | (SBOX[(d & 0xff) as usize] as u32)
}

#[inline]
fn sub_word(w: u32) -> u32 {
    final_word(w, w, w, w)
}

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk) {
        *s ^= k;
    }
}

fn inv_sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

fn inv_shift_rows(state: &mut [u8; 16]) {
    // State is column-major: state[4c + r]. Row r rotates right by r.
    for r in 1..4 {
        let row = [state[r], state[4 + r], state[8 + r], state[12 + r]];
        for c in 0..4 {
            state[4 * ((c + r) % 4) + r] = row[c];
        }
    }
}

fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
        state[4 * c] = gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
        state[4 * c + 1] =
            gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
        state[4 * c + 2] =
            gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
        state[4 * c + 3] =
            gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// Set by [`soft_only`]: this thread's dispatch skips the hardware
        /// kernels. Compiled into test builds only.
        pub(super) static SOFT_ONLY: Cell<bool> = const { Cell::new(false) };
    }

    /// Runs `f` with every `Aes128` call on this thread — and so every
    /// CMAC, CTR and AEAD above it — on the T-table backend.
    fn soft_only<R>(f: impl FnOnce() -> R) -> R {
        SOFT_ONLY.with(|s| s.set(true));
        let r = f();
        SOFT_ONLY.with(|s| s.set(false));
        r
    }

    /// Runs `check` once on the dispatched backend (hardware where the
    /// CPU has it) and once on the T-table backend.
    pub(crate) fn on_both_backends(mut check: impl FnMut()) {
        check();
        soft_only(check);
    }

    /// FIPS-197 Appendix B example vector.
    #[test]
    fn fips197_appendix_b() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let plain = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expect = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        // FIPS-197 A.1: the last round key w[40..44].
        let last_round_key = [
            0xd0, 0x14, 0xf9, 0xa8, 0xc9, 0xee, 0x25, 0x89, 0xe1, 0x3f, 0x0c, 0xc8, 0xb6, 0x63,
            0x0c, 0xa6,
        ];
        on_both_backends(|| {
            let aes = Aes128::new(&key);
            assert_eq!(aes.round_keys[NR], last_round_key);
            assert_eq!(aes.encrypt(&plain), expect);
        });
    }

    /// FIPS-197 Appendix C.1 (AES-128) known-answer test.
    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let plain: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
        let expect = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        on_both_backends(|| {
            let aes = Aes128::new(&key);
            assert_eq!(aes.encrypt(&plain), expect);
            let mut block = expect;
            aes.decrypt_block(&mut block);
            assert_eq!(block, plain);
        });
    }

    /// Equal round keys and equal ciphertexts from both backends, `N`
    /// lanes at a time, through the public interleaved entry points.
    fn backends_agree<const N: usize>(keys: &[[u8; 16]], blocks: &[[u8; 16]]) {
        let keys: [&[u8; 16]; N] = core::array::from_fn(|l| &keys[l]);
        let blocks: [[u8; 16]; N] = core::array::from_fn(|l| blocks[l]);
        let encrypt = |ciphers: &[Aes128; N]| Aes128::encrypt_each(ciphers.each_ref(), |l| blocks[l]);
        let dispatched = Aes128::new_each(keys);
        let soft = soft_only(|| Aes128::new_each(keys));
        for l in 0..N {
            assert_eq!(
                dispatched[l].round_keys, soft[l].round_keys,
                "N={N} lane {l} schedule"
            );
        }
        let expect = soft_only(|| encrypt(&soft));
        assert_eq!(encrypt(&dispatched), expect, "N={N} ciphertexts");
        assert_eq!(
            encrypt(&soft),
            expect,
            "N={N}: soft schedule on the dispatched kernel"
        );
        for l in 0..N {
            assert_eq!(
                soft_only(|| dispatched[l].encrypt(&blocks[l])),
                expect[l],
                "N={N} lane {l}"
            );
        }
        let expand_encrypt = || {
            Aes128::expand_encrypt_each(keys, |l| blocks[l])
        };
        assert_eq!(expand_encrypt(), expect, "N={N}: schedule expanded in the encryption pass");
        assert_eq!(soft_only(expand_encrypt), expect, "N={N}: the same on the soft backend");
    }

    proptest! {
        /// Hardware and T-table key expansion and encryption — stored or
        /// expanded in the encryption pass — are byte-equal for random
        /// keys and blocks, 1, 4 and 8 lanes wide.
        #[test]
        fn hardware_and_soft_backends_are_byte_equal(
            keys in prop::collection::vec(any::<[u8; 16]>(), 8),
            blocks in prop::collection::vec(any::<[u8; 16]>(), 8),
        ) {
            backends_agree::<1>(&keys, &blocks);
            backends_agree::<4>(&keys, &blocks);
            backends_agree::<8>(&keys, &blocks);
        }
    }

    #[test]
    fn reports_which_backends_ran() {
        #[cfg(target_arch = "x86_64")]
        let (hw, shown) = (hardware().is_some(), soft_only(hardware).is_some());
        #[cfg(not(target_arch = "x86_64"))]
        let (hw, shown) = (false, false);
        assert!(!shown, "soft_only must bypass the hardware kernels");
        if hw {
            eprintln!("aes: AES-NI detected; tests compare the hardware and T-table backends");
        } else {
            eprintln!("aes: no AES-NI on this CPU; only the T-table backend ran");
        }
    }

    #[test]
    fn decrypt_inverts_encrypt() {
        let key = [0xA5; 16];
        let aes = Aes128::new(&key);
        for seed in 0u8..32 {
            let plain: [u8; 16] = core::array::from_fn(|i| seed.wrapping_mul(31).wrapping_add(i as u8));
            let mut block = plain;
            aes.encrypt_block(&mut block);
            assert_ne!(block, plain, "encryption must not be identity");
            aes.decrypt_block(&mut block);
            assert_eq!(block, plain);
        }
    }

    #[test]
    fn inv_sbox_is_inverse() {
        for i in 0..=255u8 {
            assert_eq!(INV_SBOX[SBOX[i as usize] as usize], i);
        }
    }

    #[test]
    fn encrypt4_matches_four_scalar_calls() {
        let aes = Aes128::new(&[0x3C; 16]);
        let mut blocks: [[u8; 16]; 4] =
            core::array::from_fn(|l| core::array::from_fn(|i| (l * 37 + i * 11) as u8));
        let expect: [[u8; 16]; 4] = core::array::from_fn(|l| aes.encrypt(&blocks[l]));
        blocks = Aes128::encrypt_each([&aes; 4], |l| blocks[l]);
        assert_eq!(blocks, expect);
    }

    #[test]
    fn encrypt4_each_uses_per_lane_keys() {
        let ciphers: Vec<Aes128> = (0u8..4).map(|k| Aes128::new(&[k + 1; 16])).collect();
        let mut blocks: [[u8; 16]; 4] =
            core::array::from_fn(|l| core::array::from_fn(|i| (l + i) as u8));
        let expect: [[u8; 16]; 4] = core::array::from_fn(|l| ciphers[l].encrypt(&blocks[l]));
        blocks = Aes128::encrypt_each(core::array::from_fn(|l| &ciphers[l]), |l| blocks[l]);
        assert_eq!(blocks, expect);
    }

    #[test]
    fn encrypt8_matches_eight_scalar_calls() {
        let aes = Aes128::new(&[0x5A; 16]);
        let mut blocks: [[u8; 16]; 8] =
            core::array::from_fn(|l| core::array::from_fn(|i| (l * 53 + i * 7) as u8));
        let expect: [[u8; 16]; 8] = core::array::from_fn(|l| aes.encrypt(&blocks[l]));
        blocks = Aes128::encrypt_each([&aes; 8], |l| blocks[l]);
        assert_eq!(blocks, expect);
    }

    #[test]
    fn encrypt8_each_uses_per_lane_keys() {
        let ciphers: Vec<Aes128> = (0u8..8).map(|k| Aes128::new(&[k * 13 + 1; 16])).collect();
        let mut blocks: [[u8; 16]; 8] =
            core::array::from_fn(|l| core::array::from_fn(|i| (l * 3 + i) as u8));
        let expect: [[u8; 16]; 8] = core::array::from_fn(|l| ciphers[l].encrypt(&blocks[l]));
        blocks = Aes128::encrypt_each(core::array::from_fn(|l| &ciphers[l]), |l| blocks[l]);
        assert_eq!(blocks, expect);
    }

    #[test]
    fn new8_matches_scalar_expansion() {
        let keys: [[u8; 16]; 8] = core::array::from_fn(|l| [(l as u8) * 19 + 2; 16]);
        let batched = Aes128::new_each(keys.each_ref());
        for l in 0..8 {
            assert_eq!(
                batched[l].round_keys,
                Aes128::new(&keys[l]).round_keys,
                "lane {l}"
            );
        }
    }

    #[test]
    fn schedule_keeps_its_size() {
        // Both backends share one byte layout: it must not grow it.
        assert_eq!(std::mem::size_of::<Aes128>(), 176);
    }

    #[test]
    fn different_keys_different_ciphertexts() {
        let a = Aes128::new(&[0u8; 16]);
        let b = Aes128::new(&[1u8; 16]);
        let p = [0x42; 16];
        assert_ne!(a.encrypt(&p), b.encrypt(&p));
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes128::new(&[7u8; 16]);
        let s = format!("{aes:?}");
        assert!(!s.contains("07"));
    }
}

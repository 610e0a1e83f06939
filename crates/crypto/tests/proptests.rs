//! Property-based tests for the cryptographic substrate.

use colibri_crypto::{
    ct_eq, Aead, Aes128, Block, Cmac, CompactKey, Epoch, Key, PaddedTagKey, SecretValueGen,
};
use proptest::prelude::*;

/// Runs `$check::<N>(args..)` at lane widths 1, 2, 3, 4 and 8.
macro_rules! at_widths {
    ($check:ident($($arg:expr),*)) => {{
        $check::<1>($($arg),*);
        $check::<2>($($arg),*);
        $check::<3>($($arg),*);
        $check::<4>($($arg),*);
        $check::<8>($($arg),*);
    }};
}

/// `msg`, `(B - 1)·16 + 1` to `B·16 - 1` bytes long (or empty, for one
/// block), as `B` blocks, the last `10*`-padded: the byte-level reference for the integer-built blocks.
fn padded<const B: usize>(msg: &[u8]) -> [Block; B] {
    assert!(msg.len() < B * 16 && (B == 1 || msg.len() > (B - 1) * 16));
    let mut bytes = [[0u8; 16]; B];
    for (i, byte) in msg.iter().chain(&[0x80]).enumerate() {
        bytes[i / 16][i % 16] = *byte;
    }
    bytes.map(Block::from_be_bytes)
}

/// Lane `l`'s message: `B - 1` whole blocks of `bodies[l]` and then
/// `tails[l]` (< 16) more bytes, at least one after a whole block.
fn lane_msgs<'a, const B: usize, const N: usize>(
    bodies: &'a [[u8; 48]],
    tails: &[usize],
) -> [&'a [u8]; N] {
    core::array::from_fn(|l| &bodies[l][..(B - 1) * 16 + tails[l].max(usize::from(B > 1))])
}

/// [`Cmac::tag_padded_each`] over `N` messages of `B` blocks equals `N`
/// scalar tags.
fn tag_padded_each_at<const B: usize, const N: usize>(
    key: &[u8; 16],
    bodies: &[[u8; 48]],
    tails: &[usize],
) {
    let lanes = lane_msgs::<B, N>(bodies, tails);
    let scalar = lanes.map(|m| Cmac::new(key).tag(m));
    prop_assert_eq!(Cmac::new(key).tag_padded_each(lanes.map(padded::<B>)), scalar, "N = {}", N);
}

fn tag_padded_each_blocks_at<const N: usize>(key: &[u8; 16], bodies: &[[u8; 48]], tails: &[usize]) {
    tag_padded_each_at::<1, N>(key, bodies, tails);
    tag_padded_each_at::<2, N>(key, bodies, tails);
    tag_padded_each_at::<3, N>(key, bodies, tails);
}

/// [`PaddedTagKey`] over `made`, lane `l` the key `keys[l]` in form `K`,
/// equals `N` scalar tags over one-block messages.
fn tags_padded_at<K: PaddedTagKey, const N: usize>(
    keys: &[[u8; 16]],
    made: &[K; N],
    bodies: &[[u8; 48]],
    tails: &[usize],
) {
    let lanes = lane_msgs::<1, N>(bodies, tails);
    let scalar: [[u8; 16]; N] = core::array::from_fn(|l| Cmac::new(&keys[l]).tag(lanes[l]));
    let blocks = lanes.map(|m| padded::<1>(m)[0]);
    prop_assert_eq!(K::tags_padded(made.each_ref(), blocks), scalar, "N = {}", N);
}

fn tags_short_at<const N: usize>(keys: &[[u8; 16]], bodies: &[[u8; 48]], tails: &[usize]) {
    let cmacs: [Cmac; N] = core::array::from_fn(|l| Cmac::new(&keys[l]));
    tags_padded_at(keys, &cmacs, bodies, tails);
    tags_padded_at(keys, &core::array::from_fn::<_, N, _>(|l| Key(keys[l])), bodies, tails);
}

fn tags_compact_at<const N: usize>(keys: &[[u8; 16]], bodies: &[[u8; 48]], tails: &[usize]) {
    let compact = Cmac::compact_each::<N>(core::array::from_fn(|l| &keys[l]));
    tags_padded_at::<CompactKey, N>(keys, &compact, bodies, tails);
}

proptest! {
    /// AES decryption inverts encryption for arbitrary keys and blocks.
    #[test]
    fn aes_roundtrip(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
        let aes = Aes128::new(&key);
        let mut b = block;
        aes.encrypt_block(&mut b);
        aes.decrypt_block(&mut b);
        prop_assert_eq!(b, block);
    }

    /// Incremental CMAC over arbitrary chunk boundaries equals one-shot.
    #[test]
    fn cmac_chunking_invariant(
        key in any::<[u8; 16]>(),
        msg in prop::collection::vec(any::<u8>(), 0..256),
        cuts in prop::collection::vec(any::<usize>(), 0..8),
    ) {
        let cmac = Cmac::new(&key);
        let expected = cmac.tag(&msg);
        let mut st = cmac.start();
        let mut pos = 0usize;
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (msg.len() + 1)).collect();
        cuts.sort_unstable();
        for cut in cuts {
            if cut > pos {
                st.update(&msg[pos..cut]);
                pos = cut;
            }
        }
        st.update(&msg[pos..]);
        prop_assert_eq!(st.finish(), expected);
    }

    /// Distinct messages (almost) never collide under one key — here we
    /// assert the stronger deterministic property that a single-bit flip
    /// changes the tag.
    #[test]
    fn cmac_bit_flip_changes_tag(
        key in any::<[u8; 16]>(),
        msg in prop::collection::vec(any::<u8>(), 1..128),
        bit in any::<usize>(),
    ) {
        let cmac = Cmac::new(&key);
        let mut flipped = msg.clone();
        let i = bit % (msg.len() * 8);
        flipped[i / 8] ^= 1 << (i % 8);
        prop_assert_ne!(cmac.tag(&msg), cmac.tag(&flipped));
    }

    /// AEAD seal/open round-trips for arbitrary inputs.
    #[test]
    fn aead_roundtrip(
        key in any::<[u8; 16]>(),
        nonce in any::<[u8; 12]>(),
        aad in prop::collection::vec(any::<u8>(), 0..64),
        plaintext in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let aead = Aead::new(&key);
        let sealed = aead.seal(&nonce, &aad, &plaintext);
        prop_assert_eq!(aead.open(&nonce, &aad, &sealed).unwrap(), plaintext);
    }

    /// Any single-byte corruption of the sealed message is rejected.
    #[test]
    fn aead_corruption_rejected(
        key in any::<[u8; 16]>(),
        nonce in any::<[u8; 12]>(),
        plaintext in prop::collection::vec(any::<u8>(), 1..128),
        pos_seed in any::<usize>(),
        xor in 1u8..,
    ) {
        let aead = Aead::new(&key);
        let mut sealed = aead.seal(&nonce, b"aad", &plaintext);
        let pos = pos_seed % sealed.len();
        sealed[pos] ^= xor;
        prop_assert!(aead.open(&nonce, b"aad", &sealed).is_err());
    }

    /// Constant-time equality agrees with `==`.
    #[test]
    fn ct_eq_agrees(a in prop::collection::vec(any::<u8>(), 0..64),
                    b in prop::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(ct_eq(&a, &b), a == b);
        prop_assert!(ct_eq(&a, &a.clone()));
    }

    /// The interleaved AES encryption is bit-identical to scalar
    /// encryption, 4 and 8 lanes wide, under one key and under per-lane
    /// keys, for arbitrary keys and blocks.
    #[test]
    fn encrypt4_equals_scalar(
        keys in prop::collection::vec(any::<[u8; 16]>(), 8),
        blocks in prop::collection::vec(any::<[u8; 16]>(), 8),
    ) {
        let ciphers = Aes128::new_each::<8>(core::array::from_fn(|l| &keys[l]));
        let scalar: Vec<[u8; 16]> = (0..8).map(|l| ciphers[l].encrypt(&blocks[l])).collect();
        let batch = Aes128::encrypt_each(ciphers.each_ref(), |l| blocks[l]);
        prop_assert_eq!(batch.to_vec(), scalar.clone(), "per-lane keys, 8 lanes");
        let batch: [_; 4] = Aes128::encrypt_each(core::array::from_fn(|l| &ciphers[l]), |l| blocks[l]);
        prop_assert_eq!(batch.to_vec(), scalar[..4].to_vec(), "per-lane keys, 4 lanes");
        // Single-key form.
        let aes = Aes128::new(&keys[0]);
        let batch = Aes128::encrypt_each([&aes; 4], |l| blocks[l]);
        for lane in 0..4 {
            prop_assert_eq!(batch[lane], aes.encrypt(&blocks[lane]), "one key, lane {}", lane);
        }
    }

    /// The `N`-wide interleaved CMAC under one key over padded blocks
    /// (the Eq. 3/Eq. 4 path) is bit-identical to `N` scalar tags at every
    /// lane width, over messages of one to three blocks whose lanes differ
    /// in length.
    #[test]
    fn tag_each_equals_scalar(
        key in any::<[u8; 16]>(),
        bodies in prop::collection::vec(any::<[u8; 48]>(), 8),
        tails in prop::collection::vec(0usize..16, 8),
    ) {
        at_widths!(tag_padded_each_blocks_at(&key, &bodies, &tails));
    }

    /// One padded block under `N` per-lane keys — pre-expanded [`Cmac`]s
    /// and raw [`Key`]s expanded in the kernel (the Eq. 6 HVF path) —
    /// matches scalar CMAC at every lane width.
    #[test]
    fn tags_short_equals_scalar(
        keys in prop::collection::vec(any::<[u8; 16]>(), 8),
        bodies in prop::collection::vec(any::<[u8; 48]>(), 8),
        tails in prop::collection::vec(0usize..16, 8),
    ) {
        at_widths!(tags_short_at(&keys, &bodies, &tails));
    }

    /// The compact-key batch (the gateway's Eq. 6 path: `N` hops' σ
    /// expanded per packet, one block each) matches scalar CMAC at every
    /// lane width over messages shorter than one block.
    #[test]
    fn tags_compact_equals_scalar(
        keys in prop::collection::vec(any::<[u8; 16]>(), 8),
        bodies in prop::collection::vec(any::<[u8; 48]>(), 8),
        tails in prop::collection::vec(0usize..16, 8),
    ) {
        at_widths!(tags_compact_at(&keys, &bodies, &tails));
    }

    /// DRKey derivation is injective-in-practice across remotes and epochs
    /// (no two of a small arbitrary set collide) and deterministic.
    #[test]
    fn drkey_distinct_and_deterministic(
        secret in any::<[u8; 16]>(),
        remotes in prop::collection::hash_set(any::<u64>(), 2..8),
        epoch in 0u64..1000,
    ) {
        let gen = SecretValueGen::new(&secret);
        let keys: Vec<_> = remotes.iter().map(|&r| gen.as_key(Epoch(epoch), r)).collect();
        for (i, k) in keys.iter().enumerate() {
            prop_assert_eq!(*k, gen.as_key(Epoch(epoch), *remotes.iter().nth(i).unwrap()));
            for other in &keys[i + 1..] {
                prop_assert_ne!(k, other);
            }
        }
    }
}

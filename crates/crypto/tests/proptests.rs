//! Property-based tests for the cryptographic substrate.

use colibri_crypto::{ct_eq, Aead, Aes128, Cmac, Epoch, SecretValueGen};
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

/// [`Cmac::tag_each`] over the first `N` messages equals `N` scalar tags.
fn tag_each_at<const N: usize>(key: &[u8; 16], msgs: &[Vec<u8>]) {
    let lanes: [&[u8]; N] = core::array::from_fn(|l| msgs[l].as_slice());
    let scalar = lanes.map(|m| Cmac::new(key).tag(m));
    prop_assert_eq!(Cmac::new(key).tag_each(lanes), scalar, "N = {}", N);
}

/// [`Cmac::tags_short`] over `N` pre-expanded per-lane keys equals `N`
/// scalar tags.
fn tags_short_at<const N: usize>(keys: &[[u8; 16]], msgs: &[Vec<u8>]) {
    let cmacs = Cmac::new_each::<N>(core::array::from_fn(|l| &keys[l]));
    let lanes: [&[u8]; N] = core::array::from_fn(|l| msgs[l].as_slice());
    let scalar: [[u8; 16]; N] = core::array::from_fn(|l| Cmac::new(&keys[l]).tag(lanes[l]));
    prop_assert_eq!(Cmac::tags_short(cmacs.each_ref(), lanes), scalar, "N = {}", N);
}

/// [`Cmac::tags_compact`] over `N` compact per-lane keys equals `N`
/// scalar tags.
fn tags_compact_at<const N: usize>(keys: &[[u8; 16]], msgs: &[Vec<u8>]) {
    let compact = Cmac::compact_each::<N>(core::array::from_fn(|l| &keys[l]));
    let lanes: [&[u8]; N] = core::array::from_fn(|l| msgs[l].as_slice());
    let scalar: [[u8; 16]; N] = core::array::from_fn(|l| Cmac::new(&keys[l]).tag(lanes[l]));
    prop_assert_eq!(Cmac::tags_compact(compact.each_ref(), lanes), scalar, "N = {}", N);
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
        let mut batch: [[u8; 16]; 8] = core::array::from_fn(|l| blocks[l]);
        Aes128::encrypt_each(ciphers.each_ref(), &mut batch);
        prop_assert_eq!(batch.to_vec(), scalar.clone(), "per-lane keys, 8 lanes");
        let mut batch: [[u8; 16]; 4] = core::array::from_fn(|l| blocks[l]);
        Aes128::encrypt_each(core::array::from_fn(|l| &ciphers[l]), &mut batch);
        prop_assert_eq!(batch.to_vec(), scalar[..4].to_vec(), "per-lane keys, 4 lanes");
        // Single-key form.
        let aes = Aes128::new(&keys[0]);
        let mut batch: [[u8; 16]; 4] = core::array::from_fn(|l| blocks[l]);
        Aes128::encrypt_each([&aes; 4], &mut batch);
        for lane in 0..4 {
            prop_assert_eq!(batch[lane], aes.encrypt(&blocks[lane]), "one key, lane {}", lane);
        }
    }

    /// The `N`-wide interleaved CMAC under one key is bit-identical to `N`
    /// scalar tags at every lane width, for arbitrary per-lane message
    /// lengths (including empty and unequal numbers of blocks) and for
    /// one shared length (the lockstep path).
    #[test]
    fn tag_each_equals_scalar(
        key in any::<[u8; 16]>(),
        msgs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..80), 8),
        same in prop::collection::vec(any::<u8>(), 0..80),
    ) {
        let equal: Vec<Vec<u8>> = (0..8u8).map(|l| same.iter().map(|b| b ^ l).collect()).collect();
        for msgs in [&msgs, &equal] {
            at_widths!(tag_each_at(&key, msgs));
        }
    }

    /// The pre-expanded short-message CMAC batch (the Eq. 6 HVF path:
    /// `N` distinct hop authenticators, one block each) matches scalar
    /// CMAC at every lane width.
    #[test]
    fn tags_short_equals_scalar(
        keys in prop::collection::vec(any::<[u8; 16]>(), 8),
        msgs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..17), 8),
    ) {
        at_widths!(tags_short_at(&keys, &msgs));
    }

    /// The compact-key batch (the gateway's Eq. 6 path: `N` hops' σ
    /// expanded per packet, one block each) matches scalar CMAC at every
    /// lane width over messages shorter than one block.
    #[test]
    fn tags_compact_equals_scalar(
        keys in prop::collection::vec(any::<[u8; 16]>(), 8),
        msgs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..16), 8),
    ) {
        at_widths!(tags_compact_at(&keys, &msgs));
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

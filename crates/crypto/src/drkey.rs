//! The dynamically-recreatable-key (DRKey) infrastructure (paper §2.3).
//!
//! DRKey lets any AS *A* derive, on the fly, a symmetric key shared with any
//! other AS *B*:
//!
//! ```text
//! K_{A→B} = PRF_{K_A}(B)            (paper Eq. 1)
//! ```
//!
//! where `K_A` is A's per-epoch secret value. The relation is asymmetric in
//! cost: A recomputes the key with one PRF evaluation (faster than a memory
//! lookup — this is what makes stateless per-packet source authentication
//! possible), while B must *fetch* `K_{A→B}` from A's key server over a
//! PKI-protected channel, ahead of time, and cache it for the epoch
//! (roughly a day).
//!
//! Host-level keys are derived one PRF step further:
//! `K_{A→B:H} = PRF_{K_{A→B}}(H)`. The paper folds protocol/host
//! derivations into a footnote; we implement the host level because the
//! Colibri gateway authenticates per-host control-plane requests with it.
//!
//! The PRF is AES-CMAC (as in PISKES). All derivations bind the epoch index
//! so that keys from different epochs never collide.

use crate::cmac::Cmac;
use colibri_base::{Duration, Instant};

/// Validity period of one DRKey epoch. The paper quotes "on the order of a
/// day"; the exact value only affects how often caches refresh.
pub const EPOCH_LENGTH: Duration = Duration::from_secs(24 * 3600);

/// A DRKey epoch: a numbered, fixed-length validity window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Epoch(pub u64);

impl Epoch {
    /// The epoch containing instant `t`.
    pub fn containing(t: Instant) -> Self {
        Epoch(t.as_nanos() / EPOCH_LENGTH.as_nanos())
    }

    /// First instant of this epoch.
    pub fn start(self) -> Instant {
        Instant::from_nanos(self.0 * EPOCH_LENGTH.as_nanos())
    }

    /// First instant *after* this epoch.
    pub fn end(self) -> Instant {
        Instant::from_nanos((self.0 + 1) * EPOCH_LENGTH.as_nanos())
    }

    /// Whether `t` falls inside this epoch.
    pub fn contains(self, t: Instant) -> bool {
        Self::containing(t) == self
    }

    /// The following epoch.
    pub fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }
}

/// A 16-byte symmetric key. Wrapped so key material never accidentally
/// appears in `Debug` output.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key(pub [u8; 16]);

impl Key {
    /// Builds a CMAC instance keyed with this key.
    pub fn cmac(&self) -> Cmac {
        Cmac::new(&self.0)
    }
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Key(..)")
    }
}

/// An AS's DRKey secret-value generator.
///
/// Holds the long-term master secret and derives per-epoch secret values
/// `K_A` and first-level keys `K_{A→B}` from it. In a real deployment the
/// master secret lives in the AS's certificate-server HSM; here it is
/// supplied at construction (tests and the simulator use deterministic
/// secrets).
#[derive(Clone)]
pub struct SecretValueGen {
    master: Cmac,
}

impl SecretValueGen {
    /// Creates a generator from a long-term master secret.
    pub fn new(master_secret: &[u8; 16]) -> Self {
        Self { master: Cmac::new(master_secret) }
    }

    /// The per-epoch secret value `K_A`.
    pub fn secret_value(&self, epoch: Epoch) -> Key {
        let mut msg = [0u8; 24];
        msg[..16].copy_from_slice(b"colibri-drkey-sv");
        msg[16..].copy_from_slice(&epoch.0.to_be_bytes());
        Key(self.master.tag(&msg))
    }

    /// Derives the first-level key `K_{A→B}` for the given epoch, where `B`
    /// is the packed `(ISD, AS)` identifier of the remote AS.
    ///
    /// This is the *fast* side of DRKey: one CMAC over 16 bytes.
    pub fn as_key(&self, epoch: Epoch, remote_as: u64) -> Key {
        let sv = self.secret_value(epoch);
        derive_as_key(&sv, remote_as)
    }
}

impl std::fmt::Debug for SecretValueGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SecretValueGen {{ .. }}")
    }
}

/// `K_{A→B} = PRF_{K_A}(B)` — Eq. 1 of the paper.
pub fn derive_as_key(secret_value: &Key, remote_as: u64) -> Key {
    let mut msg = [0u8; 16];
    msg[..8].copy_from_slice(b"drkey-as");
    msg[8..].copy_from_slice(&remote_as.to_be_bytes());
    Key(secret_value.cmac().tag(&msg))
}

/// Host-level key `K_{A→B:H} = PRF_{K_{A→B}}(H)`.
pub fn derive_host_key(as_key: &Key, host: u32) -> Key {
    let mut msg = [0u8; 16];
    msg[..8].copy_from_slice(b"drkey-hs");
    msg[8..12].copy_from_slice(&host.to_be_bytes());
    Key(as_key.cmac().tag(&msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_a() -> SecretValueGen {
        SecretValueGen::new(b"master-secret-A!")
    }

    #[test]
    fn epoch_arithmetic() {
        let t = Instant::from_secs(25 * 3600); // one hour into day 2
        let e = Epoch::containing(t);
        assert_eq!(e, Epoch(1));
        assert!(e.contains(t));
        assert!(!e.contains(Instant::from_secs(3600)));
        assert_eq!(e.start(), Instant::from_secs(24 * 3600));
        assert_eq!(e.end(), Instant::from_secs(48 * 3600));
        assert_eq!(e.next(), Epoch(2));
    }

    #[test]
    fn derivation_is_deterministic() {
        let a = gen_a();
        let k1 = a.as_key(Epoch(0), 42);
        let k2 = a.as_key(Epoch(0), 42);
        assert_eq!(k1, k2);
    }

    #[test]
    fn keys_differ_per_remote_and_epoch() {
        let a = gen_a();
        let k_b = a.as_key(Epoch(0), 42);
        let k_c = a.as_key(Epoch(0), 43);
        let k_b2 = a.as_key(Epoch(1), 42);
        assert_ne!(k_b, k_c);
        assert_ne!(k_b, k_b2);
    }

    #[test]
    fn asymmetry_of_direction() {
        // K_{A→B} under A's secret differs from K_{B→A} under B's secret.
        let a = gen_a();
        let b = SecretValueGen::new(b"master-secret-B!");
        assert_ne!(a.as_key(Epoch(0), 7), b.as_key(Epoch(0), 3));
    }

    #[test]
    fn host_key_derivation() {
        let a = gen_a();
        let as_key = a.as_key(Epoch(0), 42);
        let h1 = derive_host_key(&as_key, 0x0a00_0001);
        let h2 = derive_host_key(&as_key, 0x0a00_0002);
        assert_ne!(h1, h2);
        assert_ne!(h1, as_key);
    }

    #[test]
    fn debug_no_leak() {
        let k = Key([0xAA; 16]);
        assert_eq!(format!("{k:?}"), "Key(..)");
        assert!(!format!("{:?}", gen_a()).contains("master"));
    }
}

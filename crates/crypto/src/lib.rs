//! Cryptographic substrate for the Colibri bandwidth-reservation system.
//!
//! The paper composes four symmetric-crypto building blocks, all of which
//! this crate provides from scratch (no external crypto crates):
//!
//! * [`aes`] — AES-128 (FIPS-197), the only primitive: AES-NI where the
//!   CPU has it, portable T-tables elsewhere;
//! * [`cmac`] — AES-CMAC (RFC 4493), used for SegR tokens, EER hop
//!   authenticators, per-packet hop validation fields, control-plane
//!   payload MACs, and as the DRKey PRF;
//! * [`ctr`]/[`aead`] — AES-CTR and an encrypt-then-MAC AEAD for returning
//!   hop authenticators to the source AS (paper Eq. 5);
//! * [`drkey`] — the dynamically-recreatable-key hierarchy (paper §2.3)
//!   giving every AS pair a shared symmetric key without per-peer state on
//!   the fast side;
//! * [`ops`] — thread-local AES operation counters, so tests can assert
//!   exact per-packet crypto costs (e.g. "a cache hit runs zero AES
//!   blocks") rather than inferring them from throughput.
//!
//! Everything is deterministic and side-effect free; key material never
//! appears in `Debug` output.
//!
//! `unsafe` is denied crate-wide. The one exception is the AES-NI
//! backend (`aes::ni`), whose kernels are reachable only through a value
//! that a successful CPU feature probe creates.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod aes;
pub mod cmac;
pub mod ctr;
pub mod drkey;
pub mod ops;

pub use aead::{Aead, AeadError};
pub use aes::Aes128;
pub use cmac::{ct_eq, Block, Cmac, CompactKey, PaddedTagKey};
pub use drkey::{derive_as_key, derive_host_key, Epoch, Key, SecretValueGen};

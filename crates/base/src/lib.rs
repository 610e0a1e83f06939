//! Shared base types for the Colibri bandwidth-reservation infrastructure.
//!
//! Every other crate in the workspace builds on these newtypes: SCION-style
//! AS and ISD identifiers, interface IDs, reservation identifiers,
//! bandwidth values, and a deterministic time model. Keeping them in one
//! leaf crate avoids circular dependencies between the crypto substrate and
//! the wire format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod id;
pub mod time;
pub mod units;

pub use id::{
    AsId, HostAddr, InterfaceId, IsdAsId, IsdId, ResId, ResIdHasher, ResIdHashing, ReservationKey,
};
pub use time::{Clock, Duration, Instant, SlotGrid, SlotWindow};
pub use units::{Bandwidth, BwClass};

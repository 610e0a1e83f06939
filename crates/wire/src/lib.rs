//! Colibri packet wire format and canonical authentication encodings.
//!
//! This crate is the shared vocabulary of the control and data planes:
//!
//! * [`packet`] — the Colibri packet layout (paper Eq. 2) with zero-copy
//!   [`PacketView`]/[`PacketViewMut`] accessors and a [`PacketBuilder`];
//! * [`mac`] — the exact MAC-input encodings of Eqs. 3, 4 and 6, so that
//!   reservation setup (control plane) and stateless verification (data
//!   plane) can never disagree on a byte;
//! * [`codec`] — a small explicit big-endian codec for control messages;
//! * [`error`] — parse/build errors; routers drop on any of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod mac;
pub mod packet;

pub use error::WireError;
pub use packet::{
    encode_packet_into, header_len, hvf_offset, peek_res_id, EerInfo, HopField, PacketBuilder,
    PacketView, PacketViewMut, ResInfo, EER_INFO_LEN, FIXED_HEADER_LEN, HVF_LEN, MAX_HOPS,
    WIRE_VERSION,
};

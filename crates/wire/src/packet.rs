//! The Colibri packet wire format (paper Eq. 2).
//!
//! ```text
//! Packet  = Path || ResInfo || EERInfo || Ts || V_0..V_l || Payload
//! ```
//!
//! Concrete layout (all integers big-endian):
//!
//! ```text
//! off  0  version   u8   wire-format version (1)
//! off  1  flags     u8   bit0 = EER, bit1 = control message payload
//! off  2  path_len  u8   number of on-path ASes N (1..=MAX_HOPS)
//! off  3  curr_hop  u8   index of the AS currently processing the packet
//! off  4  src_as    u64  packed (ISD, AS) of the reservation source
//! off 12  res_id    u32  per-source reservation ID
//! off 16  bw_class  u8   reserved bandwidth (geometric class encoding)
//! off 17  res_ver   u8   reservation version
//! off 18  exp_t     u32  reservation expiration, seconds since epoch
//! off 22  reserved  u16  must be zero
//! off 24  ts        u64  high-precision timestamp, ns *until* exp_t
//! off 32  [EER only] src_host u32 || dst_host u32
//! then    path      N × (ingress u16 || egress u16)
//! then    hvfs      N × 4-byte hop validation field
//! then    payload
//! ```
//!
//! The packet is processed through a zero-copy [`PacketView`] /
//! [`PacketViewMut`] pair in the style of smoltcp: parsing validates the
//! framing once, and accessors read directly from the underlying buffer.
//! Routers only ever *read* header fields, recompute one MAC, bump
//! `curr_hop`, and forward — no reallocation, no per-flow state.

use crate::error::WireError;
use colibri_base::{BwClass, HostAddr, Instant, InterfaceId, IsdAsId, ResId, ReservationKey};

/// Wire-format version emitted and accepted by this implementation.
pub const WIRE_VERSION: u8 = 1;
/// Maximum number of on-path ASes. SCION paths combine at most three
/// segments; 32 hops is far beyond the Internet's AS-path diameter.
pub const MAX_HOPS: usize = 32;
/// Length of a hop validation field in bytes (`ℓ_hvf = 4`, paper §4.5).
pub const HVF_LEN: usize = 4;
/// Size of the fixed part of the header (through `ts`).
pub const FIXED_HEADER_LEN: usize = 32;
/// Extra header bytes present on EER packets (`SrcHost || DstHost`).
pub const EER_INFO_LEN: usize = 8;

const FLAG_EER: u8 = 0b0000_0001;
const FLAG_CONTROL: u8 = 0b0000_0010;

/// Reservation metadata carried in every Colibri packet (paper Eq. 2c).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResInfo {
    /// The reservation's source AS.
    pub src_as: IsdAsId,
    /// Per-source reservation identifier.
    pub res_id: ResId,
    /// Reserved bandwidth, class-encoded.
    pub bw: BwClass,
    /// Reservation expiration time (second granularity).
    pub exp_t: Instant,
    /// Reservation version (renewals increment this).
    pub ver: u8,
}

impl ResInfo {
    /// The monitor flow label `(SrcAS, ResId)`.
    pub fn key(&self) -> ReservationKey {
        ReservationKey::new(self.src_as, self.res_id)
    }

    /// Expiration in whole seconds (as carried on the wire).
    pub fn exp_secs(&self) -> u32 {
        (self.exp_t.as_nanos() / 1_000_000_000) as u32
    }
}

/// End-host addressing for EER data packets (paper Eq. 2d).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EerInfo {
    /// Source host address (unique in the source AS).
    pub src_host: HostAddr,
    /// Destination host address (unique in the destination AS).
    pub dst_host: HostAddr,
}

/// One entry of the packet-carried path: the ingress and egress interface
/// of a single on-path AS. `InterfaceId::LOCAL` (0) marks the end of the
/// path inside the first/last AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HopField {
    /// Interface the packet enters the AS through (0 = originates here).
    pub ingress: InterfaceId,
    /// Interface the packet leaves the AS through (0 = terminates here).
    pub egress: InterfaceId,
}

impl HopField {
    /// Convenience constructor from raw interface numbers.
    pub const fn new(ingress: u16, egress: u16) -> Self {
        Self { ingress: InterfaceId(ingress), egress: InterfaceId(egress) }
    }
}

/// Computes the total header length for a path of `n_hops` ASes.
pub fn header_len(n_hops: usize, eer: bool) -> usize {
    FIXED_HEADER_LEN + if eer { EER_INFO_LEN } else { 0 } + n_hops * (4 + HVF_LEN)
}

/// An immutable, validated view over a Colibri packet buffer.
///
/// Construction ([`PacketView::parse`]) performs all framing checks once;
/// every accessor afterwards is a bounds-check-free slice read.
#[derive(Clone, Copy)]
pub struct PacketView<'a> {
    buf: &'a [u8],
    n_hops: usize,
    eer: bool,
}

/// Reads the reservation ID at its fixed header offset without a full
/// parse. This is the RSS-style steering key for the shard dispatcher:
/// hashing on `res_id` pins every packet of a reservation to one shard,
/// which is what keeps that reservation's monitor state (replay filter,
/// shaping) on one shard, in FIFO order. Returns `None` when the buffer
/// is too short or carries a foreign wire version — such packets cannot
/// be steered meaningfully and the dispatcher spreads them round-robin
/// (they fail validation anyway).
pub fn peek_res_id(buf: &[u8]) -> Option<ResId> {
    if buf.len() < FIXED_HEADER_LEN || buf[0] != WIRE_VERSION {
        return None;
    }
    Some(ResId(u32::from_be_bytes(buf[12..16].try_into().unwrap())))
}

impl<'a> PacketView<'a> {
    /// Parses and validates the packet framing.
    pub fn parse(buf: &'a [u8]) -> Result<Self, WireError> {
        if buf.len() < FIXED_HEADER_LEN {
            return Err(WireError::Truncated { need: FIXED_HEADER_LEN, have: buf.len() });
        }
        if buf[0] != WIRE_VERSION {
            return Err(WireError::BadVersion(buf[0]));
        }
        let flags = buf[1];
        if flags & !(FLAG_EER | FLAG_CONTROL) != 0 {
            return Err(WireError::BadFlags(flags));
        }
        let eer = flags & FLAG_EER != 0;
        let n_hops = buf[2] as usize;
        if n_hops == 0 || n_hops > MAX_HOPS {
            return Err(WireError::BadPathLength(n_hops));
        }
        let hlen = header_len(n_hops, eer);
        if buf.len() < hlen {
            return Err(WireError::Truncated { need: hlen, have: buf.len() });
        }
        if (buf[3] as usize) >= n_hops {
            return Err(WireError::BadCurrentHop { curr: buf[3], hops: n_hops });
        }
        if u16::from_be_bytes([buf[22], buf[23]]) != 0 {
            return Err(WireError::NonZeroReserved);
        }
        // The (ISD, AS) pair occupies only 48 of the field's 64 bits; the
        // top 16 must be zero. Without this check, distinct wire encodings
        // would alias the same reservation (the parser would silently
        // truncate), giving attackers cost-free header variants.
        if u16::from_be_bytes([buf[4], buf[5]]) != 0 {
            return Err(WireError::NonZeroReserved);
        }
        Ok(Self { buf, n_hops, eer })
    }

    /// Whether this is an EER data packet (vs. a SegR/control packet).
    pub fn is_eer(&self) -> bool {
        self.eer
    }

    /// Whether the payload is a Colibri control-plane message.
    pub fn is_control(&self) -> bool {
        self.buf[1] & FLAG_CONTROL != 0
    }

    /// Number of on-path ASes.
    pub fn n_hops(&self) -> usize {
        self.n_hops
    }

    /// Index of the AS currently processing the packet.
    pub fn curr_hop(&self) -> usize {
        self.buf[3] as usize
    }

    /// The reservation metadata block.
    pub fn res_info(&self) -> ResInfo {
        let b = self.buf;
        ResInfo {
            src_as: IsdAsId::from_u64(u64::from_be_bytes(b[4..12].try_into().unwrap())),
            res_id: ResId(u32::from_be_bytes(b[12..16].try_into().unwrap())),
            bw: BwClass(b[16]),
            exp_t: Instant::from_secs(u32::from_be_bytes(b[18..22].try_into().unwrap()) as u64),
            ver: b[17],
        }
    }

    /// End-host addressing; `None` for SegR packets.
    pub fn eer_info(&self) -> Option<EerInfo> {
        if !self.eer {
            return None;
        }
        let b = &self.buf[FIXED_HEADER_LEN..];
        Some(EerInfo {
            src_host: HostAddr(u32::from_be_bytes(b[0..4].try_into().unwrap())),
            dst_host: HostAddr(u32::from_be_bytes(b[4..8].try_into().unwrap())),
        })
    }

    /// High-precision timestamp: nanoseconds *until* the reservation
    /// expiration (paper §4.3 — "relative to ExpT").
    pub fn ts(&self) -> u64 {
        u64::from_be_bytes(self.buf[24..32].try_into().unwrap())
    }

    /// The instant at which this packet claims to have been sent:
    /// `exp_t − ts`. Saturates at the epoch for nonsensical values.
    pub fn send_time(&self) -> Instant {
        let exp = self.res_info().exp_t.as_nanos();
        Instant::from_nanos(exp.saturating_sub(self.ts()))
    }

    fn path_off(&self) -> usize {
        FIXED_HEADER_LEN + if self.eer { EER_INFO_LEN } else { 0 }
    }

    /// The hop field of the `i`-th on-path AS.
    pub fn hop(&self, i: usize) -> HopField {
        assert!(i < self.n_hops);
        let off = self.path_off() + 4 * i;
        HopField {
            ingress: InterfaceId(u16::from_be_bytes([self.buf[off], self.buf[off + 1]])),
            egress: InterfaceId(u16::from_be_bytes([self.buf[off + 2], self.buf[off + 3]])),
        }
    }

    /// Iterator over all hop fields in path order.
    pub fn hops(&self) -> impl Iterator<Item = HopField> + '_ {
        (0..self.n_hops).map(move |i| self.hop(i))
    }

    /// The `i`-th hop validation field.
    pub fn hvf(&self, i: usize) -> [u8; HVF_LEN] {
        assert!(i < self.n_hops);
        let off = self.path_off() + 4 * self.n_hops + HVF_LEN * i;
        self.buf[off..off + HVF_LEN].try_into().unwrap()
    }

    /// The application payload.
    pub fn payload(&self) -> &'a [u8] {
        &self.buf[header_len(self.n_hops, self.eer)..]
    }

    /// Total packet size in bytes — the `PktSize` input to the per-packet
    /// MAC (paper Eq. 6) and to monitoring. Includes the Colibri header.
    pub fn pkt_size(&self) -> usize {
        self.buf.len()
    }

    /// The underlying buffer.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.buf
    }
}

impl std::fmt::Debug for PacketView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacketView")
            .field("eer", &self.eer)
            .field("control", &self.is_control())
            .field("res", &self.res_info().key())
            .field("hops", &self.n_hops)
            .field("curr", &self.curr_hop())
            .field("size", &self.pkt_size())
            .finish()
    }
}

/// A mutable packet view, used by the gateway (to stamp Ts and HVFs) and by
/// routers (to advance `curr_hop`).
///
/// One `parse` yields everything a router needs for a packet's lifetime:
/// the read accessors mirror [`PacketView`] (validation inputs, HVF reads)
/// and the mutators cover stamping and hop advancement — so the hot path
/// validates the framing exactly once per packet.
pub struct PacketViewMut<'a> {
    buf: &'a mut [u8],
    n_hops: usize,
    eer: bool,
}

impl<'a> PacketViewMut<'a> {
    /// Parses with the same validation as [`PacketView::parse`].
    pub fn parse(buf: &'a mut [u8]) -> Result<Self, WireError> {
        let (n_hops, eer) = {
            let v = PacketView::parse(buf)?;
            (v.n_hops, v.eer)
        };
        Ok(Self { buf, n_hops, eer })
    }

    /// Reborrows as an immutable view.
    pub fn view(&self) -> PacketView<'_> {
        PacketView { buf: self.buf, n_hops: self.n_hops, eer: self.eer }
    }

    /// Whether this is an EER data packet (vs. a SegR/control packet).
    pub fn is_eer(&self) -> bool {
        self.eer
    }

    /// Number of on-path ASes.
    pub fn n_hops(&self) -> usize {
        self.n_hops
    }

    /// Index of the AS currently processing the packet.
    pub fn curr_hop(&self) -> usize {
        self.buf[3] as usize
    }

    /// The reservation metadata block.
    pub fn res_info(&self) -> ResInfo {
        self.view().res_info()
    }

    /// End-host addressing; `None` for SegR packets.
    pub fn eer_info(&self) -> Option<EerInfo> {
        self.view().eer_info()
    }

    /// High-precision timestamp (ns until `exp_t`).
    pub fn ts(&self) -> u64 {
        u64::from_be_bytes(self.buf[24..32].try_into().unwrap())
    }

    /// The hop field of the `i`-th on-path AS.
    pub fn hop(&self, i: usize) -> HopField {
        self.view().hop(i)
    }

    /// The `i`-th hop validation field.
    pub fn hvf(&self, i: usize) -> [u8; HVF_LEN] {
        self.view().hvf(i)
    }

    /// Total packet size in bytes (header + payload).
    pub fn pkt_size(&self) -> usize {
        self.buf.len()
    }

    /// Sets the high-precision timestamp.
    pub fn set_ts(&mut self, ts: u64) {
        self.buf[24..32].copy_from_slice(&ts.to_be_bytes());
    }

    /// Writes the `i`-th hop validation field.
    pub fn set_hvf(&mut self, i: usize, hvf: [u8; HVF_LEN]) {
        assert!(i < self.n_hops);
        let off = FIXED_HEADER_LEN
            + if self.eer { EER_INFO_LEN } else { 0 }
            + 4 * self.n_hops
            + HVF_LEN * i;
        self.buf[off..off + HVF_LEN].copy_from_slice(&hvf);
    }

    /// Advances `curr_hop` to the next AS. Returns the new index, or `None`
    /// if the packet is already at the last hop.
    pub fn advance_hop(&mut self) -> Option<usize> {
        let next = self.buf[3] as usize + 1;
        if next >= self.n_hops {
            return None;
        }
        self.buf[3] = next as u8;
        Some(next)
    }

    /// Resets `curr_hop` (used when a response retraces the path).
    pub fn set_curr_hop(&mut self, i: usize) {
        assert!(i < self.n_hops);
        self.buf[3] = i as u8;
    }
}

/// Builder that assembles a fresh Colibri packet into a `Vec<u8>`.
///
/// End hosts hand the gateway a packet whose HVFs are zero; the gateway
/// fills in `Ts` and all HVFs (paper §4.6).
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    res: ResInfo,
    eer: Option<EerInfo>,
    control: bool,
    path: Vec<HopField>,
    ts: u64,
}

impl PacketBuilder {
    /// Starts a SegR (control-path) packet.
    pub fn segr(res: ResInfo) -> Self {
        Self { res, eer: None, control: false, path: Vec::new(), ts: 0 }
    }

    /// Starts an EER data packet.
    pub fn eer(res: ResInfo, info: EerInfo) -> Self {
        Self { res, eer: Some(info), control: false, path: Vec::new(), ts: 0 }
    }

    /// Marks the payload as a control-plane message.
    pub fn control(mut self) -> Self {
        self.control = true;
        self
    }

    /// Sets the packet-carried path.
    pub fn path(mut self, path: impl IntoIterator<Item = HopField>) -> Self {
        self.path = path.into_iter().collect();
        self
    }

    /// Sets the high-precision timestamp (ns until `exp_t`).
    pub fn ts(mut self, ts: u64) -> Self {
        self.ts = ts;
        self
    }

    /// Serializes the packet with zeroed HVFs and the given payload.
    pub fn build(&self, payload: &[u8]) -> Result<Vec<u8>, WireError> {
        let mut buf = Vec::new();
        self.build_into(payload, &mut buf)?;
        Ok(buf)
    }

    /// Serializes into a caller-provided buffer, reusing its capacity.
    ///
    /// The buffer is cleared first; on success it holds exactly the wire
    /// packet. The allocation-free gateway path stamps every packet into
    /// one recycled buffer instead of growing the heap per packet.
    pub fn build_into(&self, payload: &[u8], buf: &mut Vec<u8>) -> Result<(), WireError> {
        encode_packet_into(&self.res, self.eer.as_ref(), self.control, &self.path, self.ts, payload, buf)
    }
}

/// Encodes a complete Colibri packet (zeroed HVFs) into `buf`, reusing the
/// buffer's capacity. This is the single serialization routine behind
/// [`PacketBuilder`]; the gateway calls it directly with its stored hop
/// slice so that stamping a packet performs no heap allocation at all.
pub fn encode_packet_into(
    res: &ResInfo,
    eer: Option<&EerInfo>,
    control: bool,
    path: &[HopField],
    ts: u64,
    payload: &[u8],
    buf: &mut Vec<u8>,
) -> Result<(), WireError> {
    let n = path.len();
    if n == 0 || n > MAX_HOPS {
        return Err(WireError::BadPathLength(n));
    }
    let is_eer = eer.is_some();
    let hlen = header_len(n, is_eer);
    buf.clear();
    buf.resize(hlen + payload.len(), 0);
    buf[0] = WIRE_VERSION;
    buf[1] = (if is_eer { FLAG_EER } else { 0 }) | (if control { FLAG_CONTROL } else { 0 });
    buf[2] = n as u8;
    buf[3] = 0;
    buf[4..12].copy_from_slice(&res.src_as.to_u64().to_be_bytes());
    buf[12..16].copy_from_slice(&res.res_id.0.to_be_bytes());
    buf[16] = res.bw.0;
    buf[17] = res.ver;
    buf[18..22].copy_from_slice(&res.exp_secs().to_be_bytes());
    // buf[22..24] reserved, zero.
    buf[24..32].copy_from_slice(&ts.to_be_bytes());
    let mut off = FIXED_HEADER_LEN;
    if let Some(info) = eer {
        buf[off..off + 4].copy_from_slice(&info.src_host.0.to_be_bytes());
        buf[off + 4..off + 8].copy_from_slice(&info.dst_host.0.to_be_bytes());
        off += EER_INFO_LEN;
    }
    for hf in path {
        buf[off..off + 2].copy_from_slice(&hf.ingress.0.to_be_bytes());
        buf[off + 2..off + 4].copy_from_slice(&hf.egress.0.to_be_bytes());
        off += 4;
    }
    // HVFs start zeroed; the gateway stamps them.
    buf[hlen..].copy_from_slice(payload);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_res() -> ResInfo {
        ResInfo {
            src_as: IsdAsId::new(1, 42),
            res_id: ResId(7),
            bw: BwClass(20),
            exp_t: Instant::from_secs(1000),
            ver: 3,
        }
    }

    fn sample_path() -> Vec<HopField> {
        vec![HopField::new(0, 2), HopField::new(5, 9), HopField::new(1, 0)]
    }

    #[test]
    fn peek_res_id_matches_parse_and_rejects_garbage() {
        let res = sample_res();
        let info = EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) };
        let pkt =
            PacketBuilder::eer(res, info).path(sample_path()).ts(9).build(b"x").unwrap();
        assert_eq!(peek_res_id(&pkt), Some(res.res_id));
        assert_eq!(peek_res_id(&pkt[..FIXED_HEADER_LEN - 1]), None);
        let mut bad = pkt.clone();
        bad[0] = 0xFF;
        assert_eq!(peek_res_id(&bad), None);
    }

    #[test]
    fn build_parse_roundtrip_eer() {
        let res = sample_res();
        let info = EerInfo { src_host: HostAddr(0x0a000001), dst_host: HostAddr(0x0a000002) };
        let pkt = PacketBuilder::eer(res, info)
            .path(sample_path())
            .ts(123_456_789)
            .build(b"hello colibri")
            .unwrap();
        let v = PacketView::parse(&pkt).unwrap();
        assert!(v.is_eer());
        assert!(!v.is_control());
        assert_eq!(v.res_info(), res);
        assert_eq!(v.eer_info(), Some(info));
        assert_eq!(v.ts(), 123_456_789);
        assert_eq!(v.n_hops(), 3);
        assert_eq!(v.curr_hop(), 0);
        assert_eq!(v.hops().collect::<Vec<_>>(), sample_path());
        assert_eq!(v.payload(), b"hello colibri");
        assert_eq!(v.pkt_size(), pkt.len());
        for i in 0..3 {
            assert_eq!(v.hvf(i), [0u8; HVF_LEN]);
        }
    }

    #[test]
    fn build_parse_roundtrip_segr_control() {
        let pkt = PacketBuilder::segr(sample_res())
            .control()
            .path(sample_path())
            .build(b"req")
            .unwrap();
        let v = PacketView::parse(&pkt).unwrap();
        assert!(!v.is_eer());
        assert!(v.is_control());
        assert_eq!(v.eer_info(), None);
        assert_eq!(v.payload(), b"req");
    }

    #[test]
    fn send_time_from_ts() {
        let res = sample_res(); // exp_t = 1000 s
        let pkt = PacketBuilder::segr(res)
            .path(sample_path())
            .ts(2_000_000_000) // sent 2 s before expiry
            .build(b"")
            .unwrap();
        let v = PacketView::parse(&pkt).unwrap();
        assert_eq!(v.send_time(), Instant::from_secs(998));
    }

    #[test]
    fn hvf_set_get() {
        let pkt = PacketBuilder::segr(sample_res()).path(sample_path()).build(b"x").unwrap();
        let mut buf = pkt;
        let mut m = PacketViewMut::parse(&mut buf).unwrap();
        m.set_hvf(1, [1, 2, 3, 4]);
        m.set_ts(99);
        let v = PacketView::parse(&buf).unwrap();
        assert_eq!(v.hvf(0), [0; 4]);
        assert_eq!(v.hvf(1), [1, 2, 3, 4]);
        assert_eq!(v.ts(), 99);
        assert_eq!(v.payload(), b"x"); // payload untouched
    }

    #[test]
    fn advance_hop_walks_path() {
        let pkt = PacketBuilder::segr(sample_res()).path(sample_path()).build(b"").unwrap();
        let mut buf = pkt;
        let mut m = PacketViewMut::parse(&mut buf).unwrap();
        assert_eq!(m.view().curr_hop(), 0);
        assert_eq!(m.advance_hop(), Some(1));
        assert_eq!(m.advance_hop(), Some(2));
        assert_eq!(m.advance_hop(), None);
        assert_eq!(m.view().curr_hop(), 2);
    }

    #[test]
    fn build_into_reuses_buffer_and_matches_build() {
        let res = sample_res();
        let info = EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) };
        let builder = PacketBuilder::eer(res, info).path(sample_path()).ts(7);
        let fresh = builder.build(b"payload").unwrap();
        // A dirty, over-sized recycled buffer must come out identical.
        let mut buf = vec![0xAAu8; 4096];
        let cap = buf.capacity();
        builder.build_into(b"payload", &mut buf).unwrap();
        assert_eq!(buf, fresh);
        assert_eq!(buf.capacity(), cap, "reuse must not reallocate");
        // And the free-function encoder agrees with the builder.
        let mut direct = Vec::new();
        encode_packet_into(&res, Some(&info), false, &sample_path(), 7, b"payload", &mut direct)
            .unwrap();
        assert_eq!(direct, fresh);
    }

    #[test]
    fn mut_view_read_accessors_match_immutable_view() {
        let res = sample_res();
        let info = EerInfo { src_host: HostAddr(3), dst_host: HostAddr(4) };
        let mut pkt =
            PacketBuilder::eer(res, info).path(sample_path()).ts(55).build(b"xyz").unwrap();
        let len = pkt.len();
        let m = PacketViewMut::parse(&mut pkt).unwrap();
        assert!(m.is_eer());
        assert_eq!(m.n_hops(), 3);
        assert_eq!(m.curr_hop(), 0);
        assert_eq!(m.res_info(), res);
        assert_eq!(m.eer_info(), Some(info));
        assert_eq!(m.ts(), 55);
        assert_eq!(m.hop(1), sample_path()[1]);
        assert_eq!(m.hvf(2), [0u8; HVF_LEN]);
        assert_eq!(m.pkt_size(), len);
    }

    #[test]
    fn parse_rejects_truncated() {
        let pkt = PacketBuilder::segr(sample_res()).path(sample_path()).build(b"abc").unwrap();
        // Any cut inside the header must fail; cutting into the payload is
        // detectable only by upper layers, so stop at the header boundary.
        let hlen = header_len(3, false);
        for cut in 0..hlen {
            assert!(PacketView::parse(&pkt[..cut]).is_err(), "cut {cut}");
        }
        assert!(PacketView::parse(&pkt[..hlen]).is_ok());
    }

    #[test]
    fn parse_rejects_bad_version_and_flags() {
        let pkt = PacketBuilder::segr(sample_res()).path(sample_path()).build(b"").unwrap();
        let mut bad = pkt.clone();
        bad[0] = 2;
        assert!(matches!(PacketView::parse(&bad), Err(WireError::BadVersion(2))));
        let mut bad = pkt.clone();
        bad[1] = 0xF0;
        assert!(matches!(PacketView::parse(&bad), Err(WireError::BadFlags(0xF0))));
        let mut bad = pkt;
        bad[22] = 1;
        assert!(matches!(PacketView::parse(&bad), Err(WireError::NonZeroReserved)));
    }

    #[test]
    fn parse_rejects_bad_path_len_and_hop() {
        let pkt = PacketBuilder::segr(sample_res()).path(sample_path()).build(b"").unwrap();
        let mut bad = pkt.clone();
        bad[2] = 0;
        assert!(matches!(PacketView::parse(&bad), Err(WireError::BadPathLength(0))));
        let mut bad = pkt.clone();
        bad[2] = (MAX_HOPS + 1) as u8;
        assert!(PacketView::parse(&bad).is_err());
        let mut bad = pkt;
        bad[3] = 3; // == n_hops
        assert!(matches!(
            PacketView::parse(&bad),
            Err(WireError::BadCurrentHop { curr: 3, hops: 3 })
        ));
    }

    #[test]
    fn builder_rejects_empty_and_oversized_paths() {
        assert!(PacketBuilder::segr(sample_res()).build(b"").is_err());
        let long: Vec<_> = (0..MAX_HOPS + 1).map(|i| HopField::new(i as u16, 1)).collect();
        assert!(PacketBuilder::segr(sample_res()).path(long).build(b"").is_err());
    }

    #[test]
    fn header_len_formula() {
        assert_eq!(header_len(1, false), 32 + 8);
        assert_eq!(header_len(1, true), 32 + 8 + 8);
        assert_eq!(header_len(4, true), 32 + 8 + 4 * 8);
    }
}

//! Identifiers for ISDs, ASes, interfaces, hosts, and reservations.
//!
//! SCION identifies an AS globally by the pair (ISD, AS). Colibri
//! additionally identifies every reservation globally by the pair
//! `(SrcAS, ResId)` (paper §4.3): the source AS's Colibri service allocates
//! `ResId`s from a local counter, so no global coordination is needed.


/// An isolation-domain (ISD) identifier.
///
/// ISDs group ASes under a common trust root; SCION splits routing into
/// intra-ISD (up/down segments) and inter-ISD (core segments) processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IsdId(pub u16);

impl std::fmt::Display for IsdId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An AS number, unique within its ISD in this implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AsId(pub u32);

impl std::fmt::Display for AsId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A globally unique AS identifier: the (ISD, AS) pair, e.g. `1-42`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IsdAsId {
    /// Isolation domain.
    pub isd: IsdId,
    /// AS number within the ISD.
    pub asn: AsId,
}

impl IsdAsId {
    /// Convenience constructor from raw numbers.
    pub const fn new(isd: u16, asn: u32) -> Self {
        Self { isd: IsdId(isd), asn: AsId(asn) }
    }

    /// Packs the identifier into a single `u64` (`isd << 32 | asn`), the
    /// canonical encoding used in wire formats and key derivation.
    pub const fn to_u64(self) -> u64 {
        ((self.isd.0 as u64) << 32) | self.asn.0 as u64
    }

    /// Inverse of [`IsdAsId::to_u64`].
    pub const fn from_u64(v: u64) -> Self {
        Self { isd: IsdId((v >> 32) as u16), asn: AsId(v as u32) }
    }
}

impl std::fmt::Display for IsdAsId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-{}", self.isd, self.asn)
    }
}

/// An inter-domain interface identifier, unique *within* its AS
/// (paper §2.2). Interface 0 is reserved to mean "this AS" — i.e. the
/// ingress of the first AS on a path and the egress of the last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InterfaceId(pub u16);

impl InterfaceId {
    /// The reserved "local" interface: traffic originating from or destined
    /// to this AS's internal network.
    pub const LOCAL: InterfaceId = InterfaceId(0);

    /// Whether this is the reserved local interface.
    pub const fn is_local(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for InterfaceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An end-host address, unique inside its AS (paper §4.3 `SrcHost`,
/// `DstHost`). Modeled as an opaque 32-bit value (e.g. an IPv4 address).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostAddr(pub u32);

impl std::fmt::Display for HostAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.0.to_be_bytes();
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
}

/// A reservation identifier, allocated sequentially by the source AS's
/// Colibri service. Unique per source AS; `(SrcAS, ResId)` is globally
/// unique (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResId(pub u32);

impl std::fmt::Display for ResId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A fixed multiplicative hash for tables keyed by [`ResId`] alone.
///
/// ResIds come from the local Colibri service's counter, not from hosts,
/// so no host can pick colliding keys and a keyed hash (SipHash, the
/// `HashMap` default) buys nothing. Multiplying by an odd constant maps
/// sequential ResIds to distinct low bits — a table's bucket index — and
/// spreads them over the high bits, which `HashMap` uses as its
/// per-bucket tag.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResIdHasher(u64);

/// The [`std::hash::BuildHasher`] of [`ResIdHasher`]:
/// `HashMap<ResId, V, ResIdHashing>`.
pub type ResIdHashing = std::hash::BuildHasherDefault<ResIdHasher>;

impl std::hash::Hasher for ResIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u32(&mut self, id: u32) {
        // 2⁶⁴/φ, rounded to odd (Fibonacci hashing).
        self.0 = (self.0 ^ u64::from(id)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u32(b.into()));
    }
}

/// The globally unique reservation key `(SrcAS, ResId)`.
///
/// This pair is the flow label used by traffic monitors (paper §4.8): all
/// versions of an EER map to the same key, so a sender using several
/// versions simultaneously cannot multiply its bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReservationKey {
    /// The AS that initiated the reservation.
    pub src_as: IsdAsId,
    /// The per-source reservation ID.
    pub res_id: ResId,
}

impl ReservationKey {
    /// Convenience constructor.
    pub const fn new(src_as: IsdAsId, res_id: ResId) -> Self {
        Self { src_as, res_id }
    }
}

impl std::fmt::Display for ReservationKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.src_as, self.res_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_res_ids_hash_to_distinct_low_bits() {
        use std::hash::BuildHasher;
        let mut low = vec![false; 1 << 17];
        for id in 0..1u32 << 17 {
            let slot = ResIdHashing::default().hash_one(ResId(id)) as usize & ((1 << 17) - 1);
            assert!(!low[slot], "ResId {id} shares its low 17 bits with an earlier ResId");
            low[slot] = true;
        }
    }

    #[test]
    fn isd_as_u64_roundtrip() {
        let id = IsdAsId::new(17, 0xdead_beef);
        assert_eq!(IsdAsId::from_u64(id.to_u64()), id);
        assert_eq!(id.to_u64(), (17u64 << 32) | 0xdead_beef);
    }

    #[test]
    fn display_formats() {
        assert_eq!(IsdAsId::new(1, 42).to_string(), "1-42");
        assert_eq!(InterfaceId(7).to_string(), "#7");
        assert_eq!(HostAddr(0x0a00_0001).to_string(), "10.0.0.1");
        assert_eq!(
            ReservationKey::new(IsdAsId::new(2, 3), ResId(9)).to_string(),
            "2-3/r9"
        );
    }

    #[test]
    fn local_interface() {
        assert!(InterfaceId::LOCAL.is_local());
        assert!(!InterfaceId(1).is_local());
    }

    #[test]
    fn reservation_key_ordering_and_hash() {
        use std::collections::HashSet;
        let a = ReservationKey::new(IsdAsId::new(1, 1), ResId(1));
        let b = ReservationKey::new(IsdAsId::new(1, 1), ResId(2));
        assert!(a < b);
        let set: HashSet<_> = [a, b, a].into_iter().collect();
        assert_eq!(set.len(), 2);
    }
}

//! Reservation stores: what each AS remembers about SegRs and EERs.
//!
//! The paper stores reservations in a transactional database; here they
//! live in versioned in-memory maps. Three stores exist:
//!
//! * [`SegrRecord`]s — one per SegR traversing the AS (every on-path AS
//!   keeps one). Holds the active version, an optional *pending* version
//!   from a renewal (SegRs allow only one active version at a time; the
//!   switch is an explicit activation, §4.2), the EER usage tracking, and
//!   — at transfer ASes — the demand split among feeding up-SegRs.
//! * [`OwnedSegr`]s — extra state at the *initiating* AS: the full segment
//!   and the tokens returned by the on-path ASes (Eq. 3), which the AS
//!   needs to stamp SegR packets.
//! * [`OwnedEer`]s — state at the EER's source AS, consumed by the Colibri
//!   gateway: path, reservation metadata, and the per-AS hop
//!   authenticators σᵢ of every live version.

use crate::eer::{EerError, SegrUsage, TransferSplit};
use crate::timeline::ExpiryWheel;
use colibri_base::{Bandwidth, Duration, HostAddr, Instant, InterfaceId, IsdAsId, ReservationKey};
use colibri_crypto::Key;
use colibri_topology::Segment;
use colibri_wire::{EerInfo, HopField, ResInfo, HVF_LEN};
use std::collections::hash_map::{Entry, HashMap};
use std::hash::Hash;

/// A renewal that has been admitted but not yet activated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingVersion {
    /// Version number of the renewal.
    pub ver: u8,
    /// Bandwidth agreed for it.
    pub bw: Bandwidth,
    /// Its expiration time.
    pub exp: Instant,
}

/// Per-AS state for one SegR.
#[derive(Debug)]
pub struct SegrRecord {
    /// Globally unique reservation key.
    pub key: ReservationKey,
    /// This AS's ingress for the reservation.
    pub ingress: InterfaceId,
    /// This AS's egress.
    pub egress: InterfaceId,
    /// Index of this AS on the segment.
    pub hop_index: usize,
    /// Number of ASes on the segment.
    pub n_hops: usize,
    /// Active version number.
    pub ver: u8,
    /// Active version bandwidth.
    pub bw: Bandwidth,
    /// Active version expiration.
    pub exp: Instant,
    /// Earliest instant packets may use the reservation
    /// (`Instant::EPOCH` = immediately; later = advance reservation).
    pub starts_at: Instant,
    /// Admitted-but-inactive renewal, if any.
    pub pending: Option<PendingVersion>,
    /// EER allocations drawn from this SegR at this AS.
    pub usage: SegrUsage,
    /// At a transfer AS where this is the *outgoing* (e.g. core) SegR:
    /// demand split among the up-SegRs feeding into it.
    pub split: TransferSplit,
}

impl SegrRecord {
    /// Creates the record for a freshly admitted SegR.
    pub fn new(
        key: ReservationKey,
        hop: HopField,
        hop_index: usize,
        n_hops: usize,
        ver: u8,
        bw: Bandwidth,
        exp: Instant,
    ) -> Self {
        Self {
            key,
            ingress: hop.ingress,
            egress: hop.egress,
            hop_index,
            n_hops,
            ver,
            bw,
            exp,
            starts_at: Instant::EPOCH,
            pending: None,
            usage: SegrUsage::new(bw),
            split: TransferSplit::new(),
        }
    }

    /// Sets a future activation instant (advance reservation), builder
    /// style.
    pub fn with_starts_at(mut self, starts_at: Instant) -> Self {
        self.starts_at = starts_at;
        self
    }

    /// Whether the active version is expired at `now`.
    pub fn is_expired(&self, now: Instant) -> bool {
        now >= self.exp
    }

    /// Whether the reservation may carry packets at `now` (its start
    /// instant has been reached and it has not expired).
    pub fn is_active(&self, now: Instant) -> bool {
        now >= self.starts_at && !self.is_expired(now)
    }

    /// When the GC must look at this record again: the later of the
    /// active and the pending version's expiry.
    fn due(&self) -> Instant {
        self.pending.map_or(self.exp, |p| p.exp.max(self.exp))
    }

    /// The hop field this AS expects in packets over the reservation.
    pub fn hop_field(&self) -> HopField {
        HopField { ingress: self.ingress, egress: self.egress }
    }

    /// Activates the pending version (explicit switch, §4.2). Returns
    /// `false` if there is none or the version number does not match.
    pub fn activate(&mut self, ver: u8) -> bool {
        match self.pending {
            Some(p) if p.ver == ver => {
                self.ver = p.ver;
                self.bw = p.bw;
                self.exp = p.exp;
                self.usage.set_bandwidth(p.bw);
                self.pending = None;
                true
            }
            _ => false,
        }
    }

    /// The `ResInfo` describing the active version.
    pub fn res_info(&self) -> ResInfo {
        ResInfo {
            src_as: self.key.src_as,
            res_id: self.key.res_id,
            bw: colibri_base::BwClass::from_bandwidth_ceil(self.bw),
            exp_t: self.exp,
            ver: self.ver,
        }
    }
}

/// A renewed-but-not-yet-activated version at the initiator, including its
/// tokens.
#[derive(Debug, Clone)]
pub struct PendingOwned {
    /// Version number.
    pub ver: u8,
    /// Agreed bandwidth.
    pub bw: Bandwidth,
    /// Expiration.
    pub exp: Instant,
    /// Per-AS tokens for the pending version.
    pub tokens: Vec<[u8; HVF_LEN]>,
}

/// Initiator-side state of a SegR: everything in [`SegrRecord`] plus the
/// segment and the per-AS tokens needed to send packets over it.
#[derive(Debug, Clone)]
pub struct OwnedSegr {
    /// Globally unique reservation key.
    pub key: ReservationKey,
    /// The underlying path segment.
    pub segment: Segment,
    /// Active version.
    pub ver: u8,
    /// Active bandwidth.
    pub bw: Bandwidth,
    /// Expiration of the active version.
    pub exp: Instant,
    /// Per-AS SegR tokens (Eq. 3) of the active version, in segment order.
    pub tokens: Vec<[u8; HVF_LEN]>,
    /// Renewal awaiting activation, if any.
    pub pending: Option<PendingOwned>,
}

impl OwnedSegr {
    /// The `ResInfo` for packets sent over the active version. The
    /// bandwidth class is reconstructed exactly as the backward pass bound
    /// it into the tokens.
    pub fn res_info(&self) -> ResInfo {
        ResInfo {
            src_as: self.key.src_as,
            res_id: self.key.res_id,
            bw: colibri_base::BwClass::from_bandwidth_ceil(self.bw),
            exp_t: self.exp,
            ver: self.ver,
        }
    }

    /// Promotes the pending version to active. Returns `false` if the
    /// version does not match.
    pub fn activate(&mut self, ver: u8) -> bool {
        match self.pending.take() {
            Some(p) if p.ver == ver => {
                self.ver = p.ver;
                self.bw = p.bw;
                self.exp = p.exp;
                self.tokens = p.tokens;
                true
            }
            other => {
                self.pending = other;
                false
            }
        }
    }
}

/// One live version of an owned EER, with the hop authenticators the
/// gateway needs to stamp packets.
#[derive(Debug, Clone)]
pub struct OwnedEerVersion {
    /// Version number.
    pub ver: u8,
    /// Bandwidth of this version.
    pub bw: Bandwidth,
    /// Expiration of this version.
    pub exp: Instant,
    /// σᵢ for every on-path AS, in path order.
    pub hop_auths: Vec<Key>,
}

/// Source-AS state of an EER (the gateway's working set).
#[derive(Debug, Clone)]
pub struct OwnedEer {
    /// Globally unique reservation key.
    pub key: ReservationKey,
    /// End-host addressing.
    pub eer_info: EerInfo,
    /// The ASes on the path.
    pub path_ases: Vec<IsdAsId>,
    /// The hop fields, in path order.
    pub hop_fields: Vec<HopField>,
    /// Live versions, oldest first.
    pub versions: Vec<OwnedEerVersion>,
}

impl OwnedEer {
    /// The newest version valid at `now` (the gateway "generally uses a
    /// single version (the latest one) to send traffic", §4.2).
    pub fn latest_version(&self, now: Instant) -> Option<&OwnedEerVersion> {
        self.versions.iter().rev().find(|v| v.exp > now)
    }
}

/// What one due expiry-wheel entry asks the garbage collector to
/// re-check. Every expiring thing the store holds is indexed by exactly
/// this one structure; an entry whose record is gone (torn down, rolled
/// back, already expired through a duplicate entry) is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Due {
    /// A transit SegR record.
    Segr(ReservationKey),
    /// One version of one EER's allocation on a SegR.
    Alloc {
        /// The SegR charged.
        segr: ReservationKey,
        /// The EER holding the allocation.
        eer: ReservationKey,
        /// The allocated version.
        ver: u8,
    },
    /// An initiator-side SegR.
    OwnedSegr(ReservationKey),
    /// One version of an owned EER.
    OwnedEer(ReservationKey, u8),
    /// A destination-side EER registration.
    TerminatingEer(ReservationKey),
    /// The remembered request (SegRs, junctions) of an owned EER.
    EerRequest(ReservationKey),
}

/// The SegRs and junction indices an owned EER was requested over, kept
/// for as long as some version of the EER is.
#[derive(Debug)]
struct EerRequest {
    segr_ids: Vec<ReservationKey>,
    junctions: Vec<u8>,
    /// Latest expiry over the versions this request was (re)issued for.
    exp: Instant,
}

/// What one [`ReservationStore::gc`] (or [`crate::CServ::gc`]) run did.
/// `scanned` counts expiry-wheel entries processed — proportional to
/// records *due*, not records *live* — which is the whole point of the
/// wheel: a store with 10⁶ live reservations and nothing expiring does no
/// per-record work. This holds for every record kind (SegRs, EER
/// allocations, owned reservations, the CServ's verdict caches), not
/// only for SegRs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Expiry-wheel entries popped and examined this run (the store's
    /// wheel plus, from [`crate::CServ::gc`], the verdict-cache wheel).
    pub scanned: usize,
    /// SegR records found expired and dropped.
    pub expired: usize,
    /// Orphaned forward-pass admissions undone (filled in by the CServ's
    /// replay-cache backstop; always 0 from the bare store).
    pub orphans: usize,
    /// The keys of the dropped SegR records (so the caller can release
    /// their admission state).
    pub removed: Vec<ReservationKey>,
}

/// The per-AS reservation database.
#[derive(Debug)]
pub struct ReservationStore {
    /// Slot-bucketed expiry index over everything below that expires:
    /// every record (and every version of one) has an entry at or before
    /// the slot of its expiry, so GC touches only *due* records instead
    /// of scanning any of the maps.
    wheel: ExpiryWheel<Due>,
    /// All SegRs traversing this AS.
    segrs: HashMap<ReservationKey, SegrRecord>,
    /// SegRs this AS initiated.
    owned_segrs: HashMap<ReservationKey, OwnedSegr>,
    /// EERs originating in this AS.
    owned_eers: HashMap<ReservationKey, OwnedEer>,
    /// EERs terminating at a local host (destination side), for delivery
    /// accounting: key → destination host and the latest expiry over
    /// the EER's versions.
    terminating_eers: HashMap<ReservationKey, (HostAddr, Instant)>,
    /// For owned EERs: the SegRs and junction indices of the original
    /// request, needed to issue renewals.
    eer_requests: HashMap<ReservationKey, EerRequest>,
}

impl Default for ReservationStore {
    fn default() -> Self {
        Self {
            wheel: ExpiryWheel::new(Duration::from_secs(1)),
            segrs: HashMap::new(),
            owned_segrs: HashMap::new(),
            owned_eers: HashMap::new(),
            terminating_eers: HashMap::new(),
            eer_requests: HashMap::new(),
        }
    }
}

impl ReservationStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces a SegR record and indexes it on the expiry
    /// wheel. Renewals and activations that extend an existing record's
    /// life need no re-index: when its old slot comes due, the GC sees the
    /// later expiry and re-arms the entry.
    pub fn insert_segr(&mut self, rec: SegrRecord) {
        self.wheel.schedule(rec.exp, Due::Segr(rec.key));
        self.segrs.insert(rec.key, rec);
    }

    /// Admits version `ver` of EER `eer` (bandwidth `bw`, expiring at
    /// `exp`) on every SegR of `on` in order, each under its optional cap
    /// (the transfer-AS split of §4.7), and indexes each allocation on the
    /// expiry wheel so the GC returns exactly that version's headroom once
    /// it expires. All or nothing: when one SegR refuses, the version is
    /// removed again from the SegRs before it and that refusal returned,
    /// with no wheel entry left behind. This is the one EER-allocation
    /// path of an AS — the CServ's plain and transfer hops and the App. D
    /// sub-services all call it.
    ///
    /// # Panics
    ///
    /// If a SegR of `on` is not in the store.
    pub fn admit_eer(
        &mut self,
        on: &[(ReservationKey, Option<Bandwidth>)],
        eer: ReservationKey,
        ver: u8,
        bw: Bandwidth,
        exp: Instant,
        now: Instant,
    ) -> Result<(), EerError> {
        for (i, &(segr, cap)) in on.iter().enumerate() {
            let usage = &mut self.segrs.get_mut(&segr).expect("admit_eer on a stored SegR").usage;
            if let Err(e) = usage.admit(eer, ver, bw, exp, now, cap) {
                for &(done, _) in &on[..i] {
                    self.segrs.get_mut(&done).unwrap().usage.remove_version(eer, ver);
                }
                return Err(e);
            }
        }
        for &(segr, _) in on {
            self.wheel.schedule(exp, Due::Alloc { segr, eer, ver });
        }
        Ok(())
    }

    /// Rebuilds the expiry wheel from the records — the wheel is volatile
    /// (in-memory) state, so a restart re-indexes the durable store:
    /// every SegR, EER allocation, owned reservation version, terminating
    /// registration and remembered request.
    pub fn rebuild_wheel(&mut self) {
        self.wheel.clear();
        for r in self.segrs.values() {
            self.wheel.schedule(r.due(), Due::Segr(r.key));
            for (eer, ver, exp) in r.usage.versions() {
                self.wheel.schedule(exp, Due::Alloc { segr: r.key, eer, ver });
            }
        }
        for s in self.owned_segrs.values() {
            self.wheel.schedule(s.exp, Due::OwnedSegr(s.key));
        }
        for e in self.owned_eers.values() {
            for v in &e.versions {
                self.wheel.schedule(v.exp, Due::OwnedEer(e.key, v.ver));
            }
        }
        for (&key, &(_, exp)) in &self.terminating_eers {
            self.wheel.schedule(exp, Due::TerminatingEer(key));
        }
        for (&key, req) in &self.eer_requests {
            self.wheel.schedule(req.exp, Due::EerRequest(key));
        }
    }

    /// Number of live expiry-wheel entries (observability).
    pub fn wheel_len(&self) -> usize {
        self.wheel.len()
    }

    /// Looks up a SegR record.
    pub fn segr(&self, key: ReservationKey) -> Option<&SegrRecord> {
        self.segrs.get(&key)
    }

    /// Mutable SegR lookup.
    pub fn segr_mut(&mut self, key: ReservationKey) -> Option<&mut SegrRecord> {
        self.segrs.get_mut(&key)
    }

    /// Removes a SegR record.
    pub fn remove_segr(&mut self, key: ReservationKey) -> Option<SegrRecord> {
        self.segrs.remove(&key)
    }

    /// Number of SegR records.
    pub fn segr_count(&self) -> usize {
        self.segrs.len()
    }

    /// Inserts an initiator-side SegR and indexes its expiry. As with
    /// transit records, an activation that extends its life re-arms the
    /// entry when the old slot comes due.
    pub fn insert_owned_segr(&mut self, segr: OwnedSegr) {
        self.wheel.schedule(segr.exp, Due::OwnedSegr(segr.key));
        self.owned_segrs.insert(segr.key, segr);
    }

    /// Initiator-side SegR lookup.
    pub fn owned_segr(&self, key: ReservationKey) -> Option<&OwnedSegr> {
        self.owned_segrs.get(&key)
    }

    /// Mutable initiator-side SegR lookup.
    pub fn owned_segr_mut(&mut self, key: ReservationKey) -> Option<&mut OwnedSegr> {
        self.owned_segrs.get_mut(&key)
    }

    /// Drops an initiator-side SegR record (reservation torn down).
    pub fn remove_owned_segr(&mut self, key: ReservationKey) -> Option<OwnedSegr> {
        self.owned_segrs.remove(&key)
    }

    /// All initiator-side SegRs.
    pub fn owned_segrs(&self) -> impl Iterator<Item = &OwnedSegr> {
        self.owned_segrs.values()
    }

    /// Inserts or replaces an owned EER and indexes the expiry of each of
    /// its versions.
    pub fn insert_owned_eer(&mut self, eer: OwnedEer) {
        for v in &eer.versions {
            self.wheel.schedule(v.exp, Due::OwnedEer(eer.key, v.ver));
        }
        self.owned_eers.insert(eer.key, eer);
    }

    /// Adds one version to an owned EER (a renewal), replacing a version
    /// of the same number, and indexes its expiry. If the EER is unknown
    /// nothing is stored and the version is handed back.
    pub fn insert_owned_eer_version(
        &mut self,
        key: ReservationKey,
        version: OwnedEerVersion,
    ) -> Result<(), OwnedEerVersion> {
        let Some(eer) = self.owned_eers.get_mut(&key) else {
            return Err(version);
        };
        self.wheel.schedule(version.exp, Due::OwnedEer(key, version.ver));
        eer.versions.retain(|v| v.ver != version.ver);
        eer.versions.push(version);
        eer.versions.sort_by_key(|v| v.ver);
        Ok(())
    }

    /// Owned-EER lookup.
    pub fn owned_eer(&self, key: ReservationKey) -> Option<&OwnedEer> {
        self.owned_eers.get(&key)
    }

    /// Number of owned EERs.
    pub fn owned_eer_count(&self) -> usize {
        self.owned_eers.len()
    }

    /// Registers an EER version expiring at `exp` as terminating at a
    /// local host. The registration lives as long as the latest version
    /// registered for the EER.
    pub fn insert_terminating_eer(&mut self, key: ReservationKey, dst: HostAddr, exp: Instant) {
        match self.terminating_eers.get_mut(&key) {
            // Already indexed: the GC re-arms at the later expiry.
            Some(reg) => *reg = (dst, reg.1.max(exp)),
            None => {
                self.terminating_eers.insert(key, (dst, exp));
                self.wheel.schedule(exp, Due::TerminatingEer(key));
            }
        }
    }

    /// The local host an EER terminates at, if any.
    pub fn terminating_eer(&self, key: ReservationKey) -> Option<HostAddr> {
        self.terminating_eers.get(&key).map(|&(dst, _)| dst)
    }

    /// Remembers the SegRs and junctions an owned EER was requested over,
    /// so renewals can reuse them, until `exp` — the expiry of the version
    /// just set up — or the latest such expiry remembered for the EER.
    pub fn remember_eer_request(
        &mut self,
        key: ReservationKey,
        segr_ids: Vec<ReservationKey>,
        junctions: Vec<u8>,
        exp: Instant,
    ) {
        match self.eer_requests.get_mut(&key) {
            // Already indexed: the GC re-arms at the later expiry.
            Some(req) => *req = EerRequest { segr_ids, junctions, exp: req.exp.max(exp) },
            None => {
                self.eer_requests.insert(key, EerRequest { segr_ids, junctions, exp });
                self.wheel.schedule(exp, Due::EerRequest(key));
            }
        }
    }

    /// The SegRs underlying an owned EER.
    pub fn eer_segrs(&self, key: ReservationKey) -> Option<&[ReservationKey]> {
        self.eer_requests.get(&key).map(|r| r.segr_ids.as_slice())
    }

    /// The junction indices of an owned EER's path.
    pub fn eer_junctions(&self, key: ReservationKey) -> Option<&[u8]> {
        self.eer_requests.get(&key).map(|r| r.junctions.as_slice())
    }

    /// Visits every SegR key (used by the CServ's crash recovery and by
    /// auditors, without exposing the internal map).
    pub fn for_each_segr_key(&self, mut f: impl FnMut(ReservationKey)) {
        for k in self.segrs.keys() {
            f(*k);
        }
    }

    /// Removes everything that has expired, driven by the expiry wheel
    /// alone: cost is proportional to the number of *due* wheel entries,
    /// not to the number of live records of any kind. Each due entry
    /// re-checks exactly the record (or version) it names against `now`:
    /// expired — `exp <= now` — it is dropped; still alive (its life was
    /// extended since it was indexed, or its expiry lies later in the
    /// current slot) the entry is re-armed at the record's expiry; gone
    /// already, nothing happens.
    pub fn gc(&mut self, now: Instant) -> GcStats {
        let mut stats = GcStats::default();
        for due in self.wheel.pop_due(now) {
            stats.scanned += 1;
            // Each arm yields the instant the record lives until, if it
            // outlives this run.
            let alive_until = match due {
                Due::Segr(key) => match self.segrs.get(&key) {
                    // A pending renewal keeps the record (the switch is an
                    // explicit activation, §4.2). A deadline already
                    // passed re-pops next run, costing one entry per GC
                    // for that record only.
                    Some(r) if r.pending.is_some() || !r.is_expired(now) => Some(r.due()),
                    Some(_) => {
                        self.segrs.remove(&key);
                        stats.expired += 1;
                        stats.removed.push(key);
                        None
                    }
                    None => None,
                },
                Due::Alloc { segr, eer, ver } => self
                    .segrs
                    .get_mut(&segr)
                    .and_then(|r| r.usage.expire_version(eer, ver, now)),
                Due::OwnedSegr(key) => expire(&mut self.owned_segrs, key, now, |s| s.exp),
                Due::OwnedEer(key, ver) => self.expire_owned_eer_version(key, ver, now),
                Due::TerminatingEer(key) => {
                    expire(&mut self.terminating_eers, key, now, |&(_, exp)| exp)
                }
                Due::EerRequest(key) => expire(&mut self.eer_requests, key, now, |r| r.exp),
            };
            if let Some(at) = alive_until {
                self.wheel.schedule(at, due);
            }
        }
        stats
    }

    /// Drops version `ver` of owned EER `key` if it has expired (and the
    /// EER with its last version); returns its expiry if it has not.
    fn expire_owned_eer_version(
        &mut self,
        key: ReservationKey,
        ver: u8,
        now: Instant,
    ) -> Option<Instant> {
        let Entry::Occupied(mut slot) = self.owned_eers.entry(key) else {
            return None;
        };
        let eer = slot.get_mut();
        let at = eer.versions.iter().position(|v| v.ver == ver)?;
        let exp = eer.versions[at].exp;
        if exp > now {
            return Some(exp);
        }
        eer.versions.remove(at);
        if eer.versions.is_empty() {
            slot.remove();
        }
        None
    }
}

/// Re-checks `map[key]` as a wheel entry naming it comes due: drops it
/// if it has expired (`exp_of(record) <= now`), returns its expiry — for
/// re-arming the entry — if it has not, and `None` if there is no such
/// record any more.
pub(crate) fn expire<K: Eq + Hash, V>(
    map: &mut HashMap<K, V>,
    key: K,
    now: Instant,
    exp_of: impl Fn(&V) -> Instant,
) -> Option<Instant> {
    let Entry::Occupied(slot) = map.entry(key) else {
        return None;
    };
    let exp = exp_of(slot.get());
    if exp > now {
        return Some(exp);
    }
    slot.remove();
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use colibri_base::ResId;

    fn key(rid: u32) -> ReservationKey {
        ReservationKey::new(IsdAsId::new(1, 10), ResId(rid))
    }

    fn rec(rid: u32, exp_s: u64) -> SegrRecord {
        SegrRecord::new(
            key(rid),
            HopField::new(1, 2),
            1,
            3,
            0,
            Bandwidth::from_mbps(100),
            Instant::from_secs(exp_s),
        )
    }

    #[test]
    fn segr_record_lifecycle() {
        let mut store = ReservationStore::new();
        store.insert_segr(rec(1, 300));
        assert_eq!(store.segr_count(), 1);
        assert_eq!(store.segr(key(1)).unwrap().hop_field(), HopField::new(1, 2));
        assert!(store.remove_segr(key(1)).is_some());
        assert_eq!(store.segr_count(), 0);
    }

    #[test]
    fn pending_version_activation() {
        let mut r = rec(1, 300);
        r.pending =
            Some(PendingVersion { ver: 1, bw: Bandwidth::from_mbps(200), exp: Instant::from_secs(600) });
        assert!(!r.activate(2), "wrong version must not activate");
        assert!(r.activate(1));
        assert_eq!(r.ver, 1);
        assert_eq!(r.bw, Bandwidth::from_mbps(200));
        assert_eq!(r.exp, Instant::from_secs(600));
        assert_eq!(r.usage.bandwidth(), Bandwidth::from_mbps(200));
        assert!(r.pending.is_none());
        assert!(!r.activate(1), "activation is one-shot");
    }

    #[test]
    fn expiry() {
        let r = rec(1, 300);
        assert!(!r.is_expired(Instant::from_secs(299)));
        assert!(r.is_expired(Instant::from_secs(300)));
    }

    #[test]
    fn gc_drops_expired_segrs_but_keeps_pending() {
        let mut store = ReservationStore::new();
        store.insert_segr(rec(1, 100));
        let mut r2 = rec(2, 100);
        r2.pending =
            Some(PendingVersion { ver: 1, bw: Bandwidth::from_mbps(1), exp: Instant::from_secs(400) });
        store.insert_segr(r2);
        store.insert_segr(rec(3, 500));
        let stats = store.gc(Instant::from_secs(200));
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.removed, vec![key(1)]);
        assert!(store.segr(key(1)).is_none());
        assert!(store.segr(key(2)).is_some(), "pending renewal keeps the record alive");
        assert!(store.segr(key(3)).is_some());
        // The unexpired record was never touched: only the two due wheel
        // entries were scanned.
        assert_eq!(stats.scanned, 2);
    }

    #[test]
    fn gc_cost_tracks_due_entries_not_live_records() {
        let mut store = ReservationStore::new();
        for rid in 0..1000 {
            store.insert_segr(rec(rid, 10_000));
        }
        store.insert_segr(rec(5000, 100));
        // The same for EER allocations: 1000 live ones on one SegR, one
        // due.
        let bw = Bandwidth::from_kbps(1);
        let t0 = Instant::EPOCH;
        for rid in 0..=1000 {
            let exp = Instant::from_secs(if rid == 1000 { 100 } else { 10_000 });
            store.admit_eer(&[(key(0), None)], key(rid), 0, bw, exp, t0).unwrap();
        }
        let stats = store.gc(Instant::from_secs(200));
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.scanned, 2, "live records and allocations must not be scanned");
        assert_eq!(store.segr_count(), 1000);
        let usage = &store.segr(key(0)).unwrap().usage;
        assert_eq!(usage.eer_count(), 1000);
        assert_eq!(usage.allocated(), Bandwidth::from_kbps(1000));
    }

    #[test]
    fn alloc_entries_expire_exactly_their_version() {
        let mut store = ReservationStore::new();
        store.insert_segr(rec(1, 10_000));
        let admit = |store: &mut ReservationStore, ver, mbps, exp_s| {
            let exp = Instant::from_secs(exp_s);
            let bw = Bandwidth::from_mbps(mbps);
            store.admit_eer(&[(key(1), None)], key(7), ver, bw, exp, Instant::EPOCH).unwrap();
        };
        admit(&mut store, 0, 80, 16);
        admit(&mut store, 1, 10, 32);
        let allocated = |store: &ReservationStore| store.segr(key(1)).unwrap().usage.allocated();
        // Due slot reached but `exp > now`: nothing freed, entry re-armed.
        let at = Instant::from_secs(15) + Duration::from_millis(999);
        assert_eq!(store.gc(at).scanned, 0, "slot 15: nothing due");
        let at = Instant::from_secs(16) + Duration::from_millis(1);
        assert_eq!(store.gc(at).scanned, 1);
        assert_eq!(allocated(&store), Bandwidth::from_mbps(10), "charge drops to the live version");
        // A rolled-back version's entry is a no-op.
        store.segr_mut(key(1)).unwrap().usage.remove_version(key(7), 1);
        assert_eq!(store.gc(Instant::from_secs(40)).scanned, 1);
        assert_eq!(allocated(&store), Bandwidth::ZERO);
        assert_eq!(store.segr(key(1)).unwrap().usage.eer_count(), 0);
    }

    #[test]
    fn refused_admission_leaves_no_allocation_and_no_entry() {
        let mut store = ReservationStore::new();
        store.insert_segr(rec(1, 10_000));
        store.insert_segr(rec(2, 10_000));
        let (bw, exp) = (Bandwidth::from_mbps(50), Instant::from_secs(16));
        // The second SegR's cap refuses: the first one's allocation is
        // undone, and neither gets a wheel entry.
        let on = [(key(1), None), (key(2), Some(Bandwidth::from_mbps(10)))];
        assert!(store.admit_eer(&on, key(7), 0, bw, exp, Instant::EPOCH).is_err());
        assert_eq!(store.segr(key(1)).unwrap().usage.allocated(), Bandwidth::ZERO);
        assert_eq!(store.wheel_len(), 2, "only the SegRs' own entries");
        let on = [(key(1), None), (key(2), None)];
        store.admit_eer(&on, key(7), 0, bw, exp, Instant::EPOCH).unwrap();
        assert_eq!(store.wheel_len(), 4);
    }

    #[test]
    fn alloc_entry_due_in_the_current_slot_is_rearmed() {
        let mut store = ReservationStore::new();
        store.insert_segr(rec(1, 10_000));
        let exp = Instant::from_secs(16) + Duration::from_millis(500);
        let bw = Bandwidth::from_mbps(5);
        store.admit_eer(&[(key(1), None)], key(7), 0, bw, exp, Instant::EPOCH).unwrap();
        // Two runs inside slot 16, both before the expiry: the entry pops
        // and is re-armed each time; the run after the expiry frees it.
        for ms in [100, 400] {
            let stats = store.gc(Instant::from_secs(16) + Duration::from_millis(ms));
            assert_eq!(stats.scanned, 1);
            assert_eq!(store.segr(key(1)).unwrap().usage.allocated(), bw);
        }
        store.gc(Instant::from_secs(16) + Duration::from_millis(500));
        assert_eq!(store.segr(key(1)).unwrap().usage.allocated(), Bandwidth::ZERO);
        assert_eq!(store.wheel_len(), 1, "only the SegR's own entry is left");
    }

    #[test]
    fn owned_and_terminating_state_expires_with_the_eer() {
        let mut store = ReservationStore::new();
        let k = key(9);
        let t = Instant::from_secs;
        store.insert_terminating_eer(k, HostAddr(2), t(16));
        store.remember_eer_request(k, vec![key(1)], vec![], t(16));
        // A renewal extends both; the first version's expiry passes.
        store.insert_terminating_eer(k, HostAddr(2), t(26));
        store.remember_eer_request(k, vec![key(1)], vec![], t(26));
        store.gc(t(20));
        assert_eq!(store.terminating_eer(k), Some(HostAddr(2)));
        assert_eq!(store.eer_segrs(k), Some(&[key(1)][..]));
        // The renewed version expires: both go, and so do their entries.
        store.gc(t(26));
        assert_eq!(store.terminating_eer(k), None);
        assert_eq!(store.eer_segrs(k), None);
        assert_eq!(store.eer_junctions(k), None);
        assert_eq!(store.wheel_len(), 0);
    }

    #[test]
    fn wheel_rearms_extended_records() {
        let mut store = ReservationStore::new();
        store.insert_segr(rec(1, 100));
        // Renewal staged and activated before the original expiry.
        let r = store.segr_mut(key(1)).unwrap();
        r.pending =
            Some(PendingVersion { ver: 1, bw: Bandwidth::from_mbps(1), exp: Instant::from_secs(400) });
        assert!(r.activate(1));
        // Old deadline passes: record survives, wheel re-armed.
        let stats = store.gc(Instant::from_secs(200));
        assert_eq!((stats.scanned, stats.expired), (1, 0));
        assert!(store.segr(key(1)).is_some());
        // New deadline passes: now it goes.
        let stats = store.gc(Instant::from_secs(500));
        assert_eq!((stats.scanned, stats.expired), (1, 1));
        assert!(store.segr(key(1)).is_none());
    }

    #[test]
    fn advance_reservation_activity() {
        let r = rec(1, 300).with_starts_at(Instant::from_secs(100));
        assert!(!r.is_active(Instant::from_secs(50)), "not yet started");
        assert!(r.is_active(Instant::from_secs(100)));
        assert!(!r.is_active(Instant::from_secs(300)), "expired");
    }

    #[test]
    fn owned_eer_latest_version() {
        let mk = |ver, exp_s| OwnedEerVersion {
            ver,
            bw: Bandwidth::from_mbps(10),
            exp: Instant::from_secs(exp_s),
            hop_auths: vec![],
        };
        let eer = OwnedEer {
            key: key(9),
            eer_info: EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) },
            path_ases: vec![],
            hop_fields: vec![],
            versions: vec![mk(0, 16), mk(1, 32)],
        };
        assert_eq!(eer.latest_version(Instant::from_secs(0)).unwrap().ver, 1);
        assert_eq!(eer.latest_version(Instant::from_secs(20)).unwrap().ver, 1);
        assert!(eer.latest_version(Instant::from_secs(40)).is_none());
        // The store's GC drops exactly the expired version, then — with
        // its last version — the EER.
        let mut store = ReservationStore::new();
        store.insert_owned_eer(eer);
        store.gc(Instant::from_secs(20));
        assert_eq!(store.owned_eer(key(9)).unwrap().versions.len(), 1);
        assert!(store.insert_owned_eer_version(key(9), mk(2, 48)).is_ok());
        store.gc(Instant::from_secs(40));
        assert_eq!(store.owned_eer(key(9)).unwrap().versions[0].ver, 2);
        store.gc(Instant::from_secs(48));
        assert_eq!(store.owned_eer_count(), 0);
        assert_eq!(store.wheel_len(), 0);
    }

    #[test]
    fn res_info_reflects_active_version() {
        let r = rec(1, 300);
        let ri = r.res_info();
        assert_eq!(ri.src_as, IsdAsId::new(1, 10));
        assert_eq!(ri.ver, 0);
        assert!(ri.bw.bandwidth() >= Bandwidth::from_mbps(100));
    }
}

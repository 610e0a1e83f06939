//! End-to-end-reservation admission (paper §4.7, Fig. 4).
//!
//! EER admission is deliberately cheap: each on-path AS only checks
//! whether the SegR underlying the request has enough unallocated
//! bandwidth — a constant-time counter comparison, which is why the
//! paper's Fig. 4 shows processing time independent of both the number of
//! existing EERs on the SegR and the number of SegRs at the AS.
//!
//! Three complications handled here:
//!
//! * **Versions** (§4.2): multiple versions of one EER coexist during
//!   renewal, but map to the same monitor flow; the bandwidth charged to
//!   the SegR is the *maximum* over live versions, not the sum.
//! * **Expiry**: EERs expire automatically (no teardown message). Each
//!   admitted version is indexed on the store's expiry wheel and dropped
//!   — its bandwidth returned — by the first GC run after it expires.
//! * **Transfer ASes**: at the joint of two SegRs, the request must fit in
//!   *both*; additionally, when up-SegRs jointly demand more EER bandwidth
//!   than the shared core-SegR has, the core-SegR's capacity is divided
//!   proportionally to each up-SegR's total demand, capped at that
//!   up-SegR's own bandwidth (§4.7 "Transfer AS").

use colibri_base::{Bandwidth, Instant, ReservationKey};
use std::collections::hash_map::{Entry, HashMap};

/// One live version of an EER.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct VersionAlloc {
    ver: u8,
    bw: u64,
    exp: Instant,
}

/// Per-EER allocation state on a SegR.
#[derive(Debug, Clone, Default)]
struct EerAlloc {
    versions: Vec<VersionAlloc>,
}

impl EerAlloc {
    fn charged(&self) -> u64 {
        self.versions.iter().map(|v| v.bw).max().unwrap_or(0)
    }

    fn gc(&mut self, now: Instant) {
        self.versions.retain(|v| v.exp > now);
    }
}

/// EER bookkeeping for one SegR at one AS.
///
/// Tracks how much of the SegR's bandwidth is already promised to EERs.
#[derive(Debug, Clone)]
pub struct SegrUsage {
    /// The SegR's granted bandwidth.
    bw: u64,
    /// Σ over EERs of their charged (max-version) bandwidth.
    allocated: u64,
    eers: HashMap<ReservationKey, EerAlloc>,
}

/// Why an EER admission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EerError {
    /// The underlying SegR lacks headroom. Carries what is available.
    InsufficientSegr {
        /// Unallocated bandwidth left in the SegR (after any split cap).
        available: Bandwidth,
    },
    /// The version being requested is already allocated with a different
    /// bandwidth (version numbers must not be reused).
    VersionConflict,
}

impl std::fmt::Display for EerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EerError::InsufficientSegr { available } => {
                write!(f, "insufficient SegR bandwidth (available: {available})")
            }
            EerError::VersionConflict => write!(f, "EER version reused with different bandwidth"),
        }
    }
}

impl std::error::Error for EerError {}

impl SegrUsage {
    /// Creates usage tracking for a SegR of the given bandwidth.
    pub fn new(bw: Bandwidth) -> Self {
        Self { bw: bw.as_bps(), allocated: 0, eers: HashMap::new() }
    }

    /// Updates the SegR's bandwidth (version switch after renewal). The
    /// paper requires that EERs are unaffected by a SegR version change;
    /// existing allocations are therefore kept even if the new bandwidth
    /// is temporarily below the allocation (no new EERs fit until it
    /// drains).
    pub fn set_bandwidth(&mut self, bw: Bandwidth) {
        self.bw = bw.as_bps();
    }

    /// The SegR's bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        Bandwidth::from_bps(self.bw)
    }

    /// Bandwidth currently promised to EERs.
    pub fn allocated(&self) -> Bandwidth {
        Bandwidth::from_bps(self.allocated)
    }

    /// Unallocated headroom.
    pub fn available(&self) -> Bandwidth {
        Bandwidth::from_bps(self.bw.saturating_sub(self.allocated))
    }

    /// Number of EERs (not versions) with live allocations.
    pub fn eer_count(&self) -> usize {
        self.eers.len()
    }

    /// Admits a new version of an EER (setup: first version; renewal:
    /// subsequent versions). O(1) in the number of existing EERs — the
    /// property Fig. 4 measures. `cap` optionally limits the admissible
    /// charge increase (used by transfer-AS splitting).
    pub fn admit(
        &mut self,
        key: ReservationKey,
        ver: u8,
        bw: Bandwidth,
        exp: Instant,
        now: Instant,
        cap: Option<Bandwidth>,
    ) -> Result<(), EerError> {
        let entry = self.eers.entry(key).or_default();
        // Lazy per-EER expiry: credit whatever the GC frees back to the
        // pool before computing the new charge.
        let pre_gc = entry.charged();
        entry.gc(now);
        self.allocated -= pre_gc - entry.charged();
        if entry.versions.iter().any(|v| v.ver == ver && v.bw != bw.as_bps()) {
            if entry.versions.is_empty() {
                self.eers.remove(&key);
            }
            return Err(EerError::VersionConflict);
        }
        let old_charge = entry.charged();
        let new_charge = old_charge.max(bw.as_bps());
        let delta = new_charge - old_charge;
        let headroom = self.bw.saturating_sub(self.allocated);
        let headroom = match cap {
            Some(c) => headroom.min(c.as_bps()),
            None => headroom,
        };
        if delta > headroom {
            let available = Bandwidth::from_bps(headroom);
            if entry.versions.is_empty() {
                self.eers.remove(&key);
            }
            return Err(EerError::InsufficientSegr { available });
        }
        let entry = self.eers.get_mut(&key).unwrap();
        if !entry.versions.iter().any(|v| v.ver == ver) {
            entry.versions.push(VersionAlloc { ver, bw: bw.as_bps(), exp });
        }
        self.allocated += delta;
        Ok(())
    }

    /// Removes one version of an EER (used to roll back a partially
    /// admitted setup when a downstream AS refuses). Returns freed
    /// bandwidth to the pool.
    pub fn remove_version(&mut self, key: ReservationKey, ver: u8) {
        // Unconditional removal is expiry at the end of time.
        self.expire_version(key, ver, Instant::MAX);
    }

    /// Expires one version of one EER, as its expiry-wheel entry comes
    /// due: if the version is still allocated and `exp <= now` it is
    /// dropped and its charge credited back to the pool; if its expiry
    /// lies ahead, that instant is returned so the caller can re-arm the
    /// entry. A version already gone (rolled back, lazily expired by
    /// [`SegrUsage::admit`], or a duplicate entry) is a no-op. Cost is
    /// independent of the number of EERs on the SegR.
    pub(crate) fn expire_version(
        &mut self,
        key: ReservationKey,
        ver: u8,
        now: Instant,
    ) -> Option<Instant> {
        let Entry::Occupied(mut slot) = self.eers.entry(key) else {
            return None;
        };
        let eer = slot.get_mut();
        let at = eer.versions.iter().position(|v| v.ver == ver)?;
        let exp = eer.versions[at].exp;
        if exp > now {
            return Some(exp);
        }
        let before = eer.charged();
        eer.versions.remove(at);
        self.allocated -= before - eer.charged();
        if eer.versions.is_empty() {
            slot.remove();
        }
        None
    }

    /// Every live allocation as `(eer, version, expiry)`, for re-indexing
    /// the expiry wheel after a restart.
    pub(crate) fn versions(&self) -> impl Iterator<Item = (ReservationKey, u8, Instant)> + '_ {
        self.eers.iter().flat_map(|(&k, e)| e.versions.iter().map(move |v| (k, v.ver, v.exp)))
    }

    /// Full-scan expiry: drops the expired versions of *all* EERs and
    /// returns the freed bandwidth to the pool, in time linear in the
    /// number of EERs. The CServ never calls this — its GC expires each
    /// allocation through its own wheel entry
    /// ([`crate::ReservationStore::gc`]). It remains as the sweep of the
    /// wheel-less [`crate::DistributedCServ`] and as the reference model
    /// the property tests compare the wheel against.
    pub fn gc(&mut self, now: Instant) {
        let mut freed = 0u64;
        self.eers.retain(|_, e| {
            let before = e.charged();
            e.gc(now);
            let after = e.charged();
            freed += before - after;
            !e.versions.is_empty()
        });
        self.allocated -= freed;
    }

    /// The bandwidth currently charged for one EER (max over versions).
    pub fn charged(&self, key: ReservationKey) -> Bandwidth {
        Bandwidth::from_bps(self.eers.get(&key).map(|e| e.charged()).unwrap_or(0))
    }
}

/// Proportional splitting of a core-SegR's bandwidth among the up-SegRs
/// competing for it at a transfer AS (§4.7).
///
/// Tracks, per up-SegR, the total EER bandwidth requested through it
/// towards one core-SegR ("capped at the up-SegR"), and computes the cap
/// each up-SegR may currently allocate on the core-SegR:
///
/// ```text
/// cap(u) = core_bw × min(demand(u), bw(u)) / Σ_v min(demand(v), bw(v))
/// ```
///
/// When total demand fits, the cap is simply the core-SegR's headroom.
#[derive(Debug, Clone, Default)]
pub struct TransferSplit {
    /// demand per up-SegR key, in bps.
    demand: HashMap<ReservationKey, u64>,
}

impl TransferSplit {
    /// Empty split state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an EER request of `bw` arriving via `up` (call before
    /// computing the cap, whether or not the request is then admitted —
    /// demand is what drives the split).
    pub fn record_demand(&mut self, up: ReservationKey, bw: Bandwidth) {
        *self.demand.entry(up).or_insert(0) += bw.as_bps();
    }

    /// Removes demand (EER expiry).
    pub fn release_demand(&mut self, up: ReservationKey, bw: Bandwidth) {
        if let Some(d) = self.demand.get_mut(&up) {
            *d = d.saturating_sub(bw.as_bps());
            if *d == 0 {
                self.demand.remove(&up);
            }
        }
    }

    /// The share of `core_bw` that up-SegR `up` (own bandwidth `up_bw`) may
    /// use, given current recorded demand.
    pub fn cap_for(&self, up: ReservationKey, up_bw: Bandwidth, core_bw: Bandwidth) -> Bandwidth {
        let capped = |k: ReservationKey, d: u64| -> u64 {
            if k == up {
                d.min(up_bw.as_bps())
            } else {
                d
            }
        };
        let total: u128 = self.demand.iter().map(|(&k, &d)| capped(k, d) as u128).sum();
        if total <= core_bw.as_bps() as u128 {
            return core_bw;
        }
        let mine = self.demand.get(&up).copied().unwrap_or(0).min(up_bw.as_bps());
        Bandwidth::from_bps(
            ((core_bw.as_bps() as u128 * mine as u128) / total.max(1)) as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colibri_base::{IsdAsId, ResId};

    fn key(rid: u32) -> ReservationKey {
        ReservationKey::new(IsdAsId::new(1, 10), ResId(rid))
    }

    const T0: Instant = Instant(0);
    const EXP: Instant = Instant(16_000_000_000); // 16 s, the paper's EER lifetime

    #[test]
    fn admit_until_full() {
        let mut u = SegrUsage::new(Bandwidth::from_mbps(100));
        for rid in 0..10 {
            u.admit(key(rid), 0, Bandwidth::from_mbps(10), EXP, T0, None).unwrap();
        }
        assert_eq!(u.available(), Bandwidth::ZERO);
        let r = u.admit(key(99), 0, Bandwidth::from_mbps(1), EXP, T0, None);
        assert_eq!(r, Err(EerError::InsufficientSegr { available: Bandwidth::ZERO }));
        assert_eq!(u.eer_count(), 10);
    }

    #[test]
    fn error_reports_available() {
        let mut u = SegrUsage::new(Bandwidth::from_mbps(100));
        u.admit(key(1), 0, Bandwidth::from_mbps(90), EXP, T0, None).unwrap();
        match u.admit(key(2), 0, Bandwidth::from_mbps(20), EXP, T0, None) {
            Err(EerError::InsufficientSegr { available }) => {
                assert_eq!(available, Bandwidth::from_mbps(10));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn versions_charge_max_not_sum() {
        let mut u = SegrUsage::new(Bandwidth::from_mbps(100));
        u.admit(key(1), 0, Bandwidth::from_mbps(60), EXP, T0, None).unwrap();
        // Renewal with same bandwidth: no extra charge.
        u.admit(key(1), 1, Bandwidth::from_mbps(60), EXP, T0, None).unwrap();
        assert_eq!(u.allocated(), Bandwidth::from_mbps(60));
        // Renewal growing to 80: charges only the 20 delta.
        u.admit(key(1), 2, Bandwidth::from_mbps(80), EXP, T0, None).unwrap();
        assert_eq!(u.allocated(), Bandwidth::from_mbps(80));
        assert_eq!(u.charged(key(1)), Bandwidth::from_mbps(80));
        // A second EER still fits in the remaining 20.
        u.admit(key(2), 0, Bandwidth::from_mbps(20), EXP, T0, None).unwrap();
    }

    #[test]
    fn version_shrink_does_not_refund_while_old_alive() {
        // While the 80 Mbps version is still valid, renewing at 10 Mbps
        // keeps the charge at 80 (sender could still use the old version).
        let mut u = SegrUsage::new(Bandwidth::from_mbps(100));
        u.admit(key(1), 0, Bandwidth::from_mbps(80), EXP, T0, None).unwrap();
        u.admit(key(1), 1, Bandwidth::from_mbps(10), EXP, T0, None).unwrap();
        assert_eq!(u.allocated(), Bandwidth::from_mbps(80));
    }

    #[test]
    fn expiry_frees_bandwidth() {
        let mut u = SegrUsage::new(Bandwidth::from_mbps(100));
        let exp1 = Instant::from_secs(16);
        let exp2 = Instant::from_secs(32);
        u.admit(key(1), 0, Bandwidth::from_mbps(80), exp1, T0, None).unwrap();
        u.admit(key(1), 1, Bandwidth::from_mbps(10), exp2, T0, None).unwrap();
        // After version 0 expires, the charge drops to 10.
        u.gc(Instant::from_secs(20));
        assert_eq!(u.allocated(), Bandwidth::from_mbps(10));
        // Admission at a later `now` also GCs lazily per-EER.
        u.admit(key(2), 0, Bandwidth::from_mbps(90), exp2, Instant::from_secs(20), None).unwrap();
    }

    #[test]
    fn fully_expired_eer_removed() {
        let mut u = SegrUsage::new(Bandwidth::from_mbps(100));
        u.admit(key(1), 0, Bandwidth::from_mbps(80), Instant::from_secs(16), T0, None).unwrap();
        u.gc(Instant::from_secs(17));
        assert_eq!(u.eer_count(), 0);
        assert_eq!(u.allocated(), Bandwidth::ZERO);
    }

    #[test]
    fn version_conflict_detected() {
        let mut u = SegrUsage::new(Bandwidth::from_mbps(100));
        u.admit(key(1), 0, Bandwidth::from_mbps(10), EXP, T0, None).unwrap();
        let r = u.admit(key(1), 0, Bandwidth::from_mbps(20), EXP, T0, None);
        assert_eq!(r, Err(EerError::VersionConflict));
        // Idempotent re-request of the same version+bw is fine.
        u.admit(key(1), 0, Bandwidth::from_mbps(10), EXP, T0, None).unwrap();
        assert_eq!(u.allocated(), Bandwidth::from_mbps(10));
    }

    #[test]
    fn segr_shrink_keeps_existing_eers() {
        let mut u = SegrUsage::new(Bandwidth::from_mbps(100));
        u.admit(key(1), 0, Bandwidth::from_mbps(80), EXP, T0, None).unwrap();
        u.set_bandwidth(Bandwidth::from_mbps(50));
        // Existing allocation intact; no new admissions until it drains.
        assert_eq!(u.allocated(), Bandwidth::from_mbps(80));
        assert!(u.admit(key(2), 0, Bandwidth::from_mbps(1), EXP, T0, None).is_err());
    }

    #[test]
    fn cap_restricts_admission() {
        let mut u = SegrUsage::new(Bandwidth::from_mbps(100));
        let r = u.admit(key(1), 0, Bandwidth::from_mbps(50), EXP, T0, Some(Bandwidth::from_mbps(30)));
        assert_eq!(r, Err(EerError::InsufficientSegr { available: Bandwidth::from_mbps(30) }));
        u.admit(key(1), 0, Bandwidth::from_mbps(30), EXP, T0, Some(Bandwidth::from_mbps(30)))
            .unwrap();
    }

    #[test]
    fn transfer_split_proportional() {
        let core_bw = Bandwidth::from_mbps(100);
        let up1 = key(1);
        let up2 = key(2);
        let mut ts = TransferSplit::new();
        // Under-subscribed: full headroom available.
        ts.record_demand(up1, Bandwidth::from_mbps(40));
        assert_eq!(ts.cap_for(up1, Bandwidth::from_mbps(200), core_bw), core_bw);
        // Over-subscribed 150 vs 100: split 40/110 and 110/150… up2 demands 110.
        ts.record_demand(up2, Bandwidth::from_mbps(110));
        let c1 = ts.cap_for(up1, Bandwidth::from_mbps(200), core_bw);
        let c2 = ts.cap_for(up2, Bandwidth::from_mbps(200), core_bw);
        assert!((c1.as_mbps_f64() - 100.0 * 40.0 / 150.0).abs() < 0.1, "{c1}");
        assert!((c2.as_mbps_f64() - 100.0 * 110.0 / 150.0).abs() < 0.1, "{c2}");
    }

    #[test]
    fn transfer_split_caps_at_up_segr_bandwidth() {
        // up1 demands 500 but its own SegR is only 50 wide: its demand is
        // capped at 50 before splitting.
        let core_bw = Bandwidth::from_mbps(100);
        let up1 = key(1);
        let up2 = key(2);
        let mut ts = TransferSplit::new();
        ts.record_demand(up1, Bandwidth::from_mbps(500));
        ts.record_demand(up2, Bandwidth::from_mbps(100));
        let c1 = ts.cap_for(up1, Bandwidth::from_mbps(50), core_bw);
        assert!((c1.as_mbps_f64() - 100.0 * 50.0 / 150.0).abs() < 0.1, "{c1}");
    }

    #[test]
    fn transfer_split_release() {
        let mut ts = TransferSplit::new();
        let up1 = key(1);
        ts.record_demand(up1, Bandwidth::from_mbps(200));
        ts.release_demand(up1, Bandwidth::from_mbps(200));
        // No demand left: everything available again.
        assert_eq!(
            ts.cap_for(up1, Bandwidth::from_mbps(10), Bandwidth::from_mbps(100)),
            Bandwidth::from_mbps(100)
        );
    }
}

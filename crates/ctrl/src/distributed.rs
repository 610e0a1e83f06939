//! Distributed Colibri service (paper Appendix D).
//!
//! A core AS can receive far more EER requests than one machine handles.
//! Appendix D observes that EER admission touches only the state of the
//! *specific SegRs underlying the request*, so the CServ decomposes into
//!
//! * one **coordinator** sub-service handling all SegReqs (SegR admission
//!   needs the complete view of SegRs through the AS), and
//! * many **ingress/egress sub-services** handling EEReqs, sharded such
//!   that all EEReqs based on the same underlying SegR land on the same
//!   sub-service — which makes their admission decisions trivially
//!   parallel and lock-local.
//!
//! [`DistributedCServ`] realizes this as a single-lock coordinator
//! [`SegrAdmission`] in front of SegR-sharded [`ReservationStore`]s, one
//! lock per shard. Each shard is the production store: an EER is admitted
//! through [`ReservationStore::admit_eer`], the CServ's own allocation
//! path, and expires through the store's expiry wheel
//! ([`ReservationStore::gc`]). `repro appd` measures the resulting
//! multi-core admission throughput and gates its exact admitted count.

use crate::admission::{AdmissionError, SegrAdmission, SegrAdmissionConfig, SegrRequest};
use crate::eer::EerError;
use crate::store::{GcStats, ReservationStore, SegrRecord};
use colibri_base::{Bandwidth, Instant, ReservationKey};
use colibri_wire::HopField;
use std::sync::Mutex;

/// One EER admission request against a specific SegR.
#[derive(Debug, Clone, Copy)]
pub struct EerAdmitRequest {
    /// The SegR the EER rides on (determines the shard).
    pub segr: ReservationKey,
    /// The EER's own key.
    pub eer: ReservationKey,
    /// Requested version.
    pub ver: u8,
    /// Requested bandwidth.
    pub bw: Bandwidth,
    /// Expiration of the version.
    pub exp: Instant,
}

/// Errors from the distributed service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistributedError {
    /// The referenced SegR is not registered on any shard.
    UnknownSegr(ReservationKey),
    /// EER admission failed.
    Eer(EerError),
    /// SegR admission failed at the coordinator.
    Admission(AdmissionError),
}

impl std::fmt::Display for DistributedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistributedError::UnknownSegr(k) => write!(f, "unknown SegR {k}"),
            DistributedError::Eer(e) => write!(f, "{e}"),
            DistributedError::Admission(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DistributedError {}

/// The decomposed CServ: one coordinator, `n` EER sub-services.
pub struct DistributedCServ {
    coordinator: Mutex<SegrAdmission>,
    shards: Vec<Mutex<ReservationStore>>,
}

impl DistributedCServ {
    /// Creates the service with `n_shards` EER sub-services.
    pub fn new(n_shards: usize, cfg: SegrAdmissionConfig) -> Self {
        assert!(n_shards >= 1);
        Self {
            coordinator: Mutex::new(SegrAdmission::new(cfg)),
            shards: (0..n_shards).map(|_| Mutex::new(ReservationStore::new())).collect(),
        }
    }

    /// The sub-service responsible for a SegR. The load balancer "must
    /// assign the requests such that all EEReqs based on the same
    /// underlying SegR are processed by the same sub-service" (App. D) —
    /// realized here by hashing the SegR key.
    pub fn shard_of(&self, segr: ReservationKey) -> usize {
        let mut x = segr.src_as.to_u64() ^ ((segr.res_id.0 as u64) << 20);
        x = (x ^ (x >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x = (x ^ (x >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        (x >> 33) as usize % self.shards.len()
    }

    /// Declares an interface at the coordinator.
    pub fn set_interface_capacity(
        &self,
        iface: colibri_base::InterfaceId,
        physical: Bandwidth,
    ) {
        self.coordinator.lock().unwrap().set_interface_capacity(iface, physical);
    }

    /// Coordinator path: admits a SegR and stores its record on the
    /// owning shard. The record lives until the end of the request's
    /// admission window.
    pub fn admit_segr(&self, req: SegrRequest) -> Result<Bandwidth, DistributedError> {
        let mut coordinator = self.coordinator.lock().unwrap();
        let granted = coordinator.admit(req).map_err(DistributedError::Admission)?;
        let exp = coordinator.grid().slot_start(req.window.end);
        drop(coordinator);
        let hop = HopField { ingress: req.ingress, egress: req.egress };
        // Version 0; App. D sees this AS's hop, not where it lies on the
        // segment.
        let rec = SegrRecord::new(req.key, hop, 0, 1, 0, granted, exp);
        self.shards[self.shard_of(req.key)].lock().unwrap().insert_segr(rec);
        Ok(granted)
    }

    /// Sub-service path: admits one EER. Locks only the owning shard —
    /// requests over different SegR shards proceed fully in parallel.
    pub fn admit_eer(&self, req: EerAdmitRequest, now: Instant) -> Result<(), DistributedError> {
        let mut store = self.shards[self.shard_of(req.segr)].lock().unwrap();
        if store.segr(req.segr).is_none() {
            return Err(DistributedError::UnknownSegr(req.segr));
        }
        store
            .admit_eer(&[(req.segr, None)], req.eer, req.ver, req.bw, req.exp, now)
            .map_err(DistributedError::Eer)
    }

    /// Admits a batch of EEReqs with one worker thread per shard
    /// (scoped threads). Results are returned in input order.
    pub fn admit_eer_batch_parallel(
        &self,
        reqs: &[EerAdmitRequest],
        now: Instant,
    ) -> Vec<Result<(), DistributedError>> {
        let n = self.shards.len();
        // Partition request indices by shard.
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, r) in reqs.iter().enumerate() {
            buckets[self.shard_of(r.segr)].push(i);
        }
        let results: Vec<Mutex<Option<Result<(), DistributedError>>>> =
            reqs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for bucket in &buckets {
                let results = &results;
                scope.spawn(move || {
                    for &i in bucket {
                        let out = self.admit_eer(reqs[i], now);
                        *results[i].lock().unwrap() = Some(out);
                    }
                });
            }
        });
        results
            .into_iter()
            .map(|m| m.into_inner().unwrap().expect("worker filled every slot"))
            .collect()
    }

    /// Bandwidth currently promised to EERs on one SegR.
    pub fn eer_allocated(&self, segr: ReservationKey) -> Option<Bandwidth> {
        let store = self.shards[self.shard_of(segr)].lock().unwrap();
        store.segr(segr).map(|r| r.usage.allocated())
    }

    /// Garbage-collects every shard through its expiry wheel — work
    /// proportional to the entries due, not to the live EERs — and
    /// releases the coordinator's admission state of the SegRs that
    /// expired, as [`crate::CServ::gc`] does. Returns the summed stats.
    pub fn gc(&self, now: Instant) -> GcStats {
        let mut coordinator = self.coordinator.lock().unwrap();
        coordinator.advance(now);
        let mut total = GcStats::default();
        for shard in &self.shards {
            let stats = shard.lock().unwrap().gc(now);
            total.scanned += stats.scanned;
            total.expired += stats.expired;
            total.removed.extend(stats.removed);
        }
        for key in &total.removed {
            coordinator.remove(*key);
        }
        total
    }
}

impl std::fmt::Debug for DistributedCServ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistributedCServ").field("shards", &self.shards.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colibri_base::{InterfaceId, IsdAsId, ResId};

    const IN: InterfaceId = InterfaceId(1);
    const EG: InterfaceId = InterfaceId(2);

    fn service(shards: usize) -> DistributedCServ {
        let svc = DistributedCServ::new(
            shards,
            SegrAdmissionConfig { colibri_share: 1.0, ..SegrAdmissionConfig::default() },
        );
        svc.set_interface_capacity(IN, Bandwidth::from_gbps(100));
        svc.set_interface_capacity(EG, Bandwidth::from_gbps(100));
        svc
    }

    fn segr_key(i: u32) -> ReservationKey {
        ReservationKey::new(IsdAsId::new(1, 100 + i), ResId(i))
    }

    fn eer_key(i: u32) -> ReservationKey {
        ReservationKey::new(IsdAsId::new(1, 200), ResId(i))
    }

    fn segr_req(i: u32, mbps: u64) -> SegrRequest {
        SegrRequest {
            key: segr_key(i),
            ingress: IN,
            egress: EG,
            demand: Bandwidth::from_mbps(mbps),
            min_bw: Bandwidth::ZERO,
            // A 300 s SegR: it outlives every EER below.
            window: colibri_base::SlotWindow::new(0, 300),
        }
    }

    fn eer_req(segr: u32, eer: u32, mbps: u64) -> EerAdmitRequest {
        EerAdmitRequest {
            segr: segr_key(segr),
            eer: eer_key(eer),
            ver: 0,
            bw: Bandwidth::from_mbps(mbps),
            exp: Instant::from_secs(1000),
        }
    }

    #[test]
    fn same_segr_same_shard() {
        let svc = service(8);
        for i in 0..100 {
            assert_eq!(svc.shard_of(segr_key(i)), svc.shard_of(segr_key(i)));
        }
        // Distribution is not degenerate.
        let shards: std::collections::HashSet<_> =
            (0..100).map(|i| svc.shard_of(segr_key(i))).collect();
        assert!(shards.len() >= 4, "only {} shards used", shards.len());
    }

    #[test]
    fn segr_then_eer_admission() {
        let svc = service(4);
        assert_eq!(svc.admit_segr(segr_req(1, 1000)).unwrap(), Bandwidth::from_mbps(1000));
        let now = Instant::from_secs(0);
        svc.admit_eer(eer_req(1, 1, 400), now).unwrap();
        svc.admit_eer(eer_req(1, 2, 600), now).unwrap();
        assert_eq!(svc.eer_allocated(segr_key(1)), Some(Bandwidth::from_mbps(1000)));
        let err = svc.admit_eer(eer_req(1, 3, 1), now).unwrap_err();
        assert!(matches!(err, DistributedError::Eer(_)));
    }

    #[test]
    fn unknown_segr_rejected() {
        let svc = service(4);
        let err = svc.admit_eer(eer_req(9, 1, 1), Instant::from_secs(0)).unwrap_err();
        assert_eq!(err, DistributedError::UnknownSegr(segr_key(9)));
    }

    #[test]
    fn parallel_batch_matches_capacity() {
        let svc = service(8);
        let now = Instant::from_secs(0);
        // 16 SegRs of 100 Mbps each.
        for i in 0..16 {
            svc.admit_segr(segr_req(i, 100)).unwrap();
        }
        // 20 EERs of 10 Mbps per SegR: exactly 10 fit on each.
        let reqs: Vec<EerAdmitRequest> = (0..16)
            .flat_map(|s| (0..20).map(move |e| eer_req(s, s * 100 + e, 10)))
            .collect();
        let results = svc.admit_eer_batch_parallel(&reqs, now);
        let ok = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(ok, 16 * 10, "exactly the SegR capacity must be admitted");
        for i in 0..16 {
            assert_eq!(svc.eer_allocated(segr_key(i)), Some(Bandwidth::from_mbps(100)));
        }
    }

    #[test]
    fn parallel_equals_sequential_outcome() {
        let now = Instant::from_secs(0);
        let build = |shards| {
            let svc = service(shards);
            for i in 0..4 {
                svc.admit_segr(segr_req(i, 50)).unwrap();
            }
            svc
        };
        let reqs: Vec<EerAdmitRequest> =
            (0..4).flat_map(|s| (0..10).map(move |e| eer_req(s, s * 100 + e, 10))).collect();
        let par = build(8);
        let seq = build(1);
        let par_ok = par.admit_eer_batch_parallel(&reqs, now).iter().filter(|r| r.is_ok()).count();
        let seq_ok: usize =
            reqs.iter().filter(|r| seq.admit_eer(**r, now).is_ok()).count();
        assert_eq!(par_ok, seq_ok);
    }

    #[test]
    fn gc_frees_capacity() {
        let svc = service(2);
        svc.admit_segr(segr_req(1, 100)).unwrap();
        let t0 = Instant::from_secs(0);
        let mut req = eer_req(1, 1, 100);
        req.exp = Instant::from_secs(16);
        svc.admit_eer(req, t0).unwrap();
        assert!(svc.admit_eer(eer_req(1, 2, 50), t0).is_err());
        svc.gc(Instant::from_secs(20));
        svc.admit_eer(eer_req(1, 2, 50), Instant::from_secs(20)).unwrap();
    }

    #[test]
    fn gc_work_tracks_due_entries_not_live_eers() {
        const LIVE: u32 = 10_000;
        const DUE: u32 = 10;
        let svc = service(4);
        for s in 0..4 {
            svc.admit_segr(segr_req(s, 100)).unwrap();
        }
        // 2,500 live 10 kbps EERs per SegR and, on SegR 0, ten due ones
        // taking all of its remaining 75 Mbps.
        let live = |e: u32| EerAdmitRequest {
            bw: Bandwidth::from_kbps(10),
            exp: Instant::from_secs(200),
            ..eer_req(e % 4, e, 0)
        };
        let due = |e: u32| EerAdmitRequest {
            bw: Bandwidth::from_kbps(7_500),
            exp: Instant::from_secs(16),
            ..eer_req(0, e, 0)
        };
        let t0 = Instant::from_secs(0);
        let reqs: Vec<_> = (0..LIVE).map(live).chain((LIVE..LIVE + DUE).map(due)).collect();
        assert!(svc.admit_eer_batch_parallel(&reqs, t0).iter().all(Result::is_ok));
        assert!(svc.admit_eer(due(LIVE + DUE), t0).is_err(), "SegR 0 is full");
        let stats = svc.gc(Instant::from_secs(20));
        assert_eq!(stats.scanned, DUE as usize, "only the due allocations are examined");
        assert_eq!(stats.expired, 0);
        for s in 0..4 {
            assert_eq!(svc.eer_allocated(segr_key(s)), Some(Bandwidth::from_mbps(25)));
        }
        // The freed headroom is admittable again, all of it.
        let now = Instant::from_secs(20);
        for e in LIVE + DUE..LIVE + 2 * DUE {
            svc.admit_eer(EerAdmitRequest { exp: Instant::from_secs(36), ..due(e) }, now).unwrap();
        }
        assert!(svc.admit_eer(due(LIVE + 2 * DUE), now).is_err(), "SegR 0 is full again");
        // At the end of their admission window the SegRs expire too.
        assert_eq!(svc.gc(Instant::from_secs(300)).expired, 4);
        assert_eq!(svc.eer_allocated(segr_key(0)), None);
    }
}

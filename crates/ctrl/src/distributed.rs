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
//! [`DistributedCServ`] realizes this with a sharded, lock-per-shard EER
//! admission plane in front of a single-lock coordinator. `repro appd`
//! measures the resulting multi-core admission throughput.

use crate::admission::{AdmissionError, SegrAdmission, SegrAdmissionConfig, SegrRequest};
use crate::eer::{EerError, SegrUsage};
use colibri_base::{Bandwidth, Instant, ReservationKey};
use std::sync::Mutex;
use std::collections::HashMap;

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

#[derive(Default)]
struct EerShard {
    usages: HashMap<ReservationKey, SegrUsage>,
}

/// The decomposed CServ: one coordinator, `n` EER sub-services.
pub struct DistributedCServ {
    coordinator: Mutex<SegrAdmission>,
    shards: Vec<Mutex<EerShard>>,
}

impl DistributedCServ {
    /// Creates the service with `n_shards` EER sub-services.
    pub fn new(n_shards: usize, cfg: SegrAdmissionConfig) -> Self {
        assert!(n_shards >= 1);
        Self {
            coordinator: Mutex::new(SegrAdmission::new(cfg)),
            shards: (0..n_shards).map(|_| Mutex::new(EerShard::default())).collect(),
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

    /// Coordinator path: admits a SegR and registers its usage tracking on
    /// the owning shard.
    pub fn admit_segr(&self, req: SegrRequest) -> Result<Bandwidth, DistributedError> {
        let granted = self.coordinator.lock().unwrap().admit(req).map_err(DistributedError::Admission)?;
        let shard = self.shard_of(req.key);
        self.shards[shard].lock().unwrap().usages.insert(req.key, SegrUsage::new(granted));
        Ok(granted)
    }

    /// Sub-service path: admits one EER. Locks only the owning shard —
    /// requests over different SegR shards proceed fully in parallel.
    pub fn admit_eer(&self, req: EerAdmitRequest, now: Instant) -> Result<(), DistributedError> {
        let shard = self.shard_of(req.segr);
        let mut guard = self.shards[shard].lock().unwrap();
        let usage =
            guard.usages.get_mut(&req.segr).ok_or(DistributedError::UnknownSegr(req.segr))?;
        usage
            .admit(req.eer, req.ver, req.bw, req.exp, now, None)
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
        let shard = self.shard_of(segr);
        self.shards[shard].lock().unwrap().usages.get(&segr).map(|u| u.allocated())
    }

    /// Garbage-collects expired EER versions on all shards.
    pub fn gc(&self, now: Instant) {
        for shard in &self.shards {
            for usage in shard.lock().unwrap().usages.values_mut() {
                usage.gc(now);
            }
        }
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
            window: colibri_base::SlotWindow::at(0),
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
}

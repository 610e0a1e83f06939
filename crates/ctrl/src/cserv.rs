//! The Colibri service (CServ) — the per-AS control plane (paper §3.2).
//!
//! Every AS runs one CServ. It allocates reservation IDs, performs SegR
//! admission (with the memoized algorithm of [`crate::admission`]) and EER
//! admission (constant-time SegR headroom checks, [`crate::eer`]),
//! maintains the reservation store, computes the cryptographic tokens and
//! hop authenticators of §4.5, enforces the AS's intra-AS EER policy, and
//! blocklists sources reported for overuse ("denying future reservations
//! originating from that AS", §4.8).
//!
//! The CServ is a passive state machine: every handler takes `now`
//! explicitly and performs no I/O. Multi-AS reservation setup is driven by
//! the orchestration in [`crate::setup`] (in-process) or by the network
//! simulator (message-level).

use crate::admission::{AdmissionError, SegrAdmission, SegrAdmissionConfig, SegrRequest, UndoToken};
use crate::eer::EerError;
use crate::messages::{EerSetupReq, SealedHopAuth, SegSetupReq};
use crate::policy::EerPolicy;
use crate::shed::{AdmissionQueue, RequestClass, ShedConfig, ShedStats, ShedVerdict};
use crate::store::{
    expire, GcStats, OwnedEer, OwnedEerVersion, OwnedSegr, PendingVersion, ReservationStore,
    SegrRecord,
};
use crate::telemetry::CservTelemetry;
use crate::timeline::ExpiryWheel;
use colibri_base::{Bandwidth, Duration, Instant, InterfaceId, IsdAsId, ResId, ReservationKey};
use colibri_crypto::{Aead, Cmac, Epoch, Key, SecretValueGen};
use colibri_telemetry::{Registry, TraceOp, TraceOutcome, Tracer};
use colibri_wire::mac::{hop_auth, segr_token};
use colibri_wire::{EerInfo, HopField, ResInfo, HVF_LEN};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Replay-cache key: initiating AS, its request id, and the hop index at
/// which this CServ processed the request. Request ids are only unique per
/// initiator, so the source AS must be part of the key.
type ReplayKey = (IsdAsId, u64, u32);

/// A memoized admission verdict plus its eviction deadline (the would-be
/// reservation's expiry).
type ReplayedVerdict<T> = (Result<T, CservError>, Instant);

/// Upper bound on cached verdicts. The cache exists for retried requests,
/// which arrive within a retry window of seconds; the bound keeps an
/// attacker flooding unique request ids from growing state without limit
/// (beyond it, requests are still served — just without replay memory,
/// counted by `colibri_ctrl_replay_cache_full_total`).
const REPLAY_CAP: usize = 1 << 16;

/// What one due entry of the CServ's cache wheel asks the garbage
/// collector to re-check: a key of one of the three expiring caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheDue {
    /// A `seg_replay` verdict (deadline: the would-be SegR's expiry).
    SegVerdict(ReplayKey),
    /// An `eer_replay` verdict (deadline: the would-be EER's expiry).
    EerVerdict(ReplayKey),
    /// A `renewal_times` entry (deadline: last renewal + the minimum
    /// renewal interval, after which it can influence no verdict).
    RenewalTime(ReservationKey),
}

/// CServ configuration.
#[derive(Debug, Clone, Copy)]
pub struct CservConfig {
    /// Fraction of link capacity available to Colibri (traffic split).
    pub colibri_share: f64,
    /// SegR validity period ("approximately five minutes", §3.3).
    pub segr_lifetime: Duration,
    /// EER validity period ("16 seconds in our implementation", §3.3).
    pub eer_lifetime: Duration,
    /// Minimum spacing between renewal requests for one EER. "To enhance
    /// scalability, CServs can rate-limit the amount of renewal requests
    /// for an EER (e.g., to one per second)" (§4.2).
    pub eer_renewal_min_interval: Duration,
    /// Deadline-aware load shedding (the bounded admission work queue of
    /// [`crate::shed`]). `None` — the default — admits with unlimited
    /// throughput, matching the legacy in-process behavior; deployments
    /// model finite admission capacity by setting a [`ShedConfig`].
    pub shed: Option<ShedConfig>,
}

impl Default for CservConfig {
    fn default() -> Self {
        Self {
            colibri_share: 0.80,
            segr_lifetime: Duration::from_secs(300),
            eer_lifetime: Duration::from_secs(16),
            eer_renewal_min_interval: Duration::from_secs(1),
            shed: None,
        }
    }
}

/// Errors from CServ handlers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CservError {
    /// SegR admission failed.
    Admission(AdmissionError),
    /// EER admission failed.
    Eer(EerError),
    /// The referenced SegR is unknown at this AS.
    UnknownSegr(ReservationKey),
    /// The referenced SegR has expired.
    SegrExpired(ReservationKey),
    /// The referenced SegR is an advance reservation whose start instant
    /// has not been reached yet — it holds future bandwidth but cannot
    /// carry EERs or packets now.
    SegrNotActive(ReservationKey),
    /// The request's hop interfaces do not match the SegR's.
    HopMismatch,
    /// The intra-AS policy refused the request.
    PolicyDenied,
    /// The source AS has been blocklisted for overuse.
    SourceDenied(IsdAsId),
    /// Activation referenced a version that is not pending.
    NoSuchPendingVersion,
    /// Control-plane payload authentication failed.
    BadAuthentication,
    /// An EER renewal arrived faster than the per-EER rate limit (§4.2).
    RenewalRateLimited,
    /// The admission work queue is full for this request's class; the
    /// initiator should retry no sooner than `retry_after`. Never cached
    /// in the replay caches — a retry after the backlog drains gets a
    /// fresh verdict.
    Busy {
        /// Earliest sensible retry delay, derived from the backlog.
        retry_after: Duration,
    },
    /// The request's propagated deadline cannot be met even if admitted
    /// immediately; shed at this hop instead of timing out end-to-end.
    DeadlineExceeded,
}

impl From<AdmissionError> for CservError {
    fn from(e: AdmissionError) -> Self {
        CservError::Admission(e)
    }
}

impl From<EerError> for CservError {
    fn from(e: EerError) -> Self {
        CservError::Eer(e)
    }
}

impl std::fmt::Display for CservError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CservError::Admission(e) => write!(f, "segment admission: {e}"),
            CservError::Eer(e) => write!(f, "EER admission: {e}"),
            CservError::UnknownSegr(k) => write!(f, "unknown SegR {k}"),
            CservError::SegrExpired(k) => write!(f, "SegR {k} expired"),
            CservError::SegrNotActive(k) => write!(f, "SegR {k} not yet active"),
            CservError::HopMismatch => write!(f, "hop interfaces do not match the SegR"),
            CservError::PolicyDenied => write!(f, "refused by intra-AS policy"),
            CservError::SourceDenied(a) => write!(f, "source AS {a} is denied (policing)"),
            CservError::NoSuchPendingVersion => write!(f, "no such pending version"),
            CservError::BadAuthentication => write!(f, "control message authentication failed"),
            CservError::RenewalRateLimited => write!(f, "EER renewal rate limit exceeded"),
            CservError::Busy { retry_after } => {
                write!(f, "admission queue full; retry after {retry_after:?}")
            }
            CservError::DeadlineExceeded => write!(f, "request deadline cannot be met"),
        }
    }
}

impl std::error::Error for CservError {}

/// The per-AS Colibri service.
pub struct CServ {
    /// This AS.
    pub isd_as: IsdAsId,
    cfg: CservConfig,
    svgen: SecretValueGen,
    /// Cached CMAC instance of this epoch's secret value `K_i`.
    k_i_cache: Option<(Epoch, Cmac)>,
    admission: SegrAdmission,
    store: ReservationStore,
    next_res_id: u32,
    policy: Box<dyn EerPolicy>,
    /// Source ASes denied future reservations (policing, §4.8).
    denied_sources: HashSet<IsdAsId>,
    /// Last accepted renewal per EER, for rate limiting (§4.2).
    renewal_times: HashMap<ReservationKey, Instant>,
    /// Monotone counter for initiator-side request ids (0 is reserved for
    /// "untracked", so the counter starts at 1).
    next_request_id: u64,
    /// Recorded SegR admission verdicts, replayed on retry so a duplicate
    /// request never double-counts demand in the admission aggregates.
    seg_replay: HashMap<ReplayKey, ReplayedVerdict<(Bandwidth, UndoToken)>>,
    /// Recorded EER admission verdicts; replay prevents double-charging
    /// SegR headroom and transfer-AS split demand.
    eer_replay: HashMap<ReplayKey, ReplayedVerdict<()>>,
    /// Expiry index over `seg_replay`, `eer_replay` and `renewal_times`:
    /// every entry of the three maps has a wheel entry at or before the
    /// slot of its deadline, so GC examines only the due ones.
    cache_wheel: ExpiryWheel<CacheDue>,
    /// Bounded admission work queue (deadline-aware load shedding);
    /// `None` admits with unlimited throughput.
    shed: Option<AdmissionQueue>,
    /// Optional observability bindings (counters + trace ring). Detached
    /// by default; handlers pay one branch when `None` (DESIGN.md §11).
    telemetry: Option<CservTelemetry>,
}

impl std::fmt::Debug for CServ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CServ")
            .field("isd_as", &self.isd_as)
            .field("segrs", &self.store.segr_count())
            .field("owned_eers", &self.store.owned_eer_count())
            .finish()
    }
}

impl CServ {
    /// Creates a CServ for `isd_as` with the given master secret and
    /// policy.
    pub fn new(
        isd_as: IsdAsId,
        master_secret: &[u8; 16],
        cfg: CservConfig,
        policy: Box<dyn EerPolicy>,
    ) -> Self {
        Self {
            isd_as,
            admission: SegrAdmission::new(SegrAdmissionConfig {
                colibri_share: cfg.colibri_share,
                ..SegrAdmissionConfig::default()
            }),
            cfg,
            svgen: SecretValueGen::new(master_secret),
            k_i_cache: None,
            store: ReservationStore::new(),
            next_res_id: 0,
            policy,
            denied_sources: HashSet::new(),
            renewal_times: HashMap::new(),
            next_request_id: 1,
            seg_replay: HashMap::new(),
            eer_replay: HashMap::new(),
            cache_wheel: ExpiryWheel::new(Duration::from_secs(1)),
            shed: cfg.shed.map(|s| AdmissionQueue::new(s, Instant::EPOCH)),
            telemetry: None,
        }
    }

    /// Registers this CServ's counters under `shard` in `registry` and
    /// starts recording. An existing attachment (including its tracer) is
    /// replaced.
    pub fn attach_telemetry(&mut self, registry: &Registry, shard: &str) {
        self.telemetry = Some(CservTelemetry::new(registry, shard));
    }

    /// Attaches a shared trace ring; control-plane operations are
    /// recorded into it stamped with the handlers' virtual-clock `now`.
    /// Requires telemetry to be attached first (the tracer rides on it).
    pub fn attach_tracer(&mut self, registry: &Registry, shard: &str, tracer: Arc<Tracer>) {
        self.telemetry = Some(CservTelemetry::new(registry, shard).with_tracer(tracer));
    }

    #[inline]
    fn trace(&self, at: Instant, op: TraceOp, outcome: TraceOutcome, detail: u64) {
        if let Some(tracer) = self.telemetry.as_ref().and_then(|t| t.tracer.as_ref()) {
            tracer.event(at, op, outcome, self.isd_as.to_u64(), detail);
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CservConfig {
        &self.cfg
    }

    /// Turns deadline-aware load shedding on (or reconfigures it) with
    /// an empty work queue starting at `now`.
    pub fn enable_shedding(&mut self, cfg: ShedConfig, now: Instant) {
        self.cfg.shed = Some(cfg);
        self.shed = Some(AdmissionQueue::new(cfg, now));
    }

    /// Shed counters, when shedding is enabled.
    pub fn shed_stats(&self) -> Option<&ShedStats> {
        self.shed.as_ref().map(|q| q.stats())
    }

    /// Sets the admission service-time inflation factor (1000 = nominal).
    /// Driven by the simulator's overload injection; a no-op when
    /// shedding is disabled (an unlimited-throughput CServ has no
    /// service model to inflate).
    pub fn set_service_factor_milli(&mut self, factor_milli: u32) {
        if let Some(q) = &mut self.shed {
            q.set_factor_milli(factor_milli);
        }
    }

    /// The current admission service-time inflation factor; 1000 when
    /// shedding is disabled or service times are nominal.
    pub fn service_factor_milli(&self) -> u32 {
        self.shed.as_ref().map_or(1000, |q| q.factor_milli())
    }

    /// Offers an admission request to the bounded work queue (when
    /// enabled). `Ok(())` admits; the error is the shed verdict to
    /// return to the initiator. Shed verdicts are intentionally *not*
    /// memoized in the replay caches: a retry after the backlog drains
    /// must be re-evaluated, not replayed.
    fn shed_offer(
        &mut self,
        class: RequestClass,
        now: Instant,
        deadline: Instant,
    ) -> Result<(), CservError> {
        let Some(q) = &mut self.shed else { return Ok(()) };
        match q.offer(class, now, deadline) {
            ShedVerdict::Admitted => Ok(()),
            ShedVerdict::Busy { retry_after } => {
                if let Some(t) = &self.telemetry {
                    t.shed_busy.inc();
                }
                Err(CservError::Busy { retry_after })
            }
            ShedVerdict::DeadlineExceeded => {
                if let Some(t) = &self.telemetry {
                    t.shed_deadline.inc();
                }
                Err(CservError::DeadlineExceeded)
            }
        }
    }

    /// Declares an interface capacity (from the topology, at startup).
    pub fn set_interface_capacity(&mut self, iface: InterfaceId, physical: Bandwidth) {
        self.admission.set_interface_capacity(iface, physical);
    }

    /// Allocates the next reservation ID (unique per source AS, §4.3).
    pub fn alloc_res_id(&mut self) -> ResId {
        let id = ResId(self.next_res_id);
        self.next_res_id += 1;
        id
    }

    /// Allocates the next request id for a setup/renewal this AS initiates.
    /// Retries of one logical request reuse its id; every on-path CServ
    /// keys its replay cache by (initiator, id, hop).
    pub fn alloc_request_id(&mut self) -> u64 {
        let id = self.next_request_id;
        self.next_request_id += 1;
        id
    }

    /// The CMAC instance keyed with this AS's secret value for `epoch`
    /// (used for SegR tokens and hop authenticators). Routers of this AS
    /// share the same secret value.
    pub fn k_i(&mut self, epoch: Epoch) -> &Cmac {
        if self.k_i_cache.as_ref().map(|(e, _)| *e) != Some(epoch) {
            let sv = self.svgen.secret_value(epoch);
            self.k_i_cache = Some((epoch, sv.cmac()));
        }
        &self.k_i_cache.as_ref().unwrap().1
    }

    /// DRKey fast side: `K_{me→remote}` (Eq. 1).
    pub fn drkey_out(&self, epoch: Epoch, remote: IsdAsId) -> Key {
        self.svgen.as_key(epoch, remote.to_u64())
    }

    /// Read access to the reservation store.
    pub fn store(&self) -> &ReservationStore {
        &self.store
    }

    /// Mutable access to the reservation store (used by the gateway feed
    /// and the simulator).
    pub fn store_mut(&mut self) -> &mut ReservationStore {
        &mut self.store
    }

    /// Read access to the SegR admission state (observability).
    pub fn admission(&self) -> &SegrAdmission {
        &self.admission
    }

    /// Marks a source AS as denied after a confirmed overuse report.
    pub fn deny_source(&mut self, src_as: IsdAsId) {
        self.denied_sources.insert(src_as);
    }

    /// Handles an overuse report from a local border router (§4.8
    /// "Policing"): misbehavior is established with certainty by the
    /// cryptographic checks, so the service takes the drastic measure of
    /// denying the source AS all future reservations.
    pub fn handle_overuse_report(&mut self, report: &crate::messages::OveruseReportMsg) {
        debug_assert!(report.observed_bytes > report.allowed_bytes);
        self.deny_source(report.key.src_as);
    }

    /// Whether a source AS is currently denied.
    pub fn is_source_denied(&self, src_as: IsdAsId) -> bool {
        self.denied_sources.contains(&src_as)
    }

    /// Number of live renewal rate-limit entries (observability; bounded
    /// by the renewals seen within one `eer_renewal_min_interval` once
    /// `gc` has run).
    pub fn renewal_rate_entries(&self) -> usize {
        self.renewal_times.len()
    }

    /// Number of memoized admission verdicts, `(SegR, EER)` (observability;
    /// each cache is bounded by its cap, and by the requests seen within one
    /// reservation lifetime once `gc` has run).
    pub fn replay_cache_entries(&self) -> (usize, usize) {
        (self.seg_replay.len(), self.eer_replay.len())
    }

    /// Garbage-collects everything that has expired, in time proportional
    /// to the entries *due* this run — never to the live population of
    /// SegRs, EERs or cached verdicts. Two expiry wheels are the only
    /// indexes: the store's (SegR records, EER allocations, owned
    /// reservations; see [`ReservationStore::gc`]) and this CServ's cache
    /// wheel (replay verdicts, renewal rate-limit entries). The returned
    /// [`GcStats`] report how much work was actually done.
    pub fn gc(&mut self, now: Instant) -> GcStats {
        // The admission frame follows the clock first, so profile slots
        // the clock has passed decay before (and independently of) record
        // removal.
        self.admission.advance(now);
        // The cache sweep — with the orphaned-admission backstop — runs
        // before the store sweep, so a *finalized* reservation expiring in
        // this same run still has its record and is never mistaken for an
        // orphan.
        let (cache_scanned, orphans) = self.gc_caches(now);
        self.trace(now, TraceOp::Gc, TraceOutcome::Ok, orphans as u64);
        // Expired records pop from the store's wheel; release their
        // admission state along with the store record.
        let mut stats = self.store.gc(now);
        stats.scanned += cache_scanned;
        stats.orphans = orphans;
        for key in &stats.removed {
            self.admission.remove(*key);
        }
        if let Some(t) = &self.telemetry {
            t.gc_runs.inc();
            t.gc_orphans.add(stats.orphans as u64);
            t.gc_scanned.add(stats.scanned as u64);
            t.gc_expired.add(stats.expired as u64);
        }
        stats
    }

    /// Pops the due entries of the cache wheel and drops what they name
    /// if its deadline has passed (re-arming it if not). Returns
    /// `(entries examined, orphaned admissions undone)`.
    ///
    /// The backstop for undelivered aborts lives here: an expiring
    /// `seg_replay` verdict that granted an admission whose reservation
    /// was never finalized at this AS (no store record) is an orphan —
    /// the initiator gave up and its abort never arrived — and is undone.
    fn gc_caches(&mut self, now: Instant) -> (usize, usize) {
        let min_interval = self.cfg.eer_renewal_min_interval;
        let due = self.cache_wheel.pop_due(now);
        let mut orphans = 0;
        for &entry in &due {
            let alive_until = match entry {
                CacheDue::SegVerdict(rk) => {
                    let verdict = self.seg_replay.get(&rk).map(|&(verdict, _)| verdict);
                    let alive_until = expire(&mut self.seg_replay, rk, now, |&(_, exp)| exp);
                    if let (None, Some(Ok((_, undo)))) = (alive_until, verdict) {
                        if self.store.segr(undo.key()).is_none() {
                            self.admission.undo(undo);
                            orphans += 1;
                        }
                    }
                    alive_until
                }
                CacheDue::EerVerdict(rk) => expire(&mut self.eer_replay, rk, now, |&(_, exp)| exp),
                // An entry older than the minimum renewal interval can
                // never influence another verdict.
                CacheDue::RenewalTime(key) => {
                    expire(&mut self.renewal_times, key, now, |&last| last + min_interval)
                }
            };
            if let Some(at) = alive_until {
                self.cache_wheel.schedule(at, entry);
            }
        }
        (due.len(), orphans)
    }

    /// Rebuilds all volatile control-plane state from the reservation
    /// store, as a CServ restarting after a crash would: the memoized
    /// admission aggregates are reconstructed from the finalized
    /// reservation records, in-flight (admitted but never finalized)
    /// state is dropped — the initiator's retry or abort re-establishes
    /// or releases it — and the replay and key caches are cleared. Ends
    /// with the aggregate consistency self-check; an `Err` means the
    /// store itself is inconsistent and the service must not serve.
    /// `now` stamps the recovery trace event (restart time).
    pub fn recover(&mut self, now: Instant) -> Result<(), String> {
        let mut rebuilt = self.admission.fresh_like();
        let mut keys = Vec::with_capacity(self.store.segr_count());
        self.store.for_each_segr_key(|k| keys.push(k));
        for key in keys {
            let rec = self.store.segr(key).expect("key just listed");
            // The admission entry tracks the most recently finalized
            // version: a pending renewal's bandwidth (and expiry) if one
            // exists, otherwise the active version's.
            let (bw, exp) = rec
                .pending
                .as_ref()
                .map(|p| (p.bw, p.exp))
                .unwrap_or((rec.bw, rec.exp));
            // The entry's validity window: `restore_entry` clamps the
            // start to the live frame base, reproducing exactly the
            // decayed window of the pre-crash entry (the base is
            // preserved by `fresh_like` and only ever grows).
            let window = rebuilt.window_for(Instant::EPOCH, rec.starts_at, exp);
            rebuilt.restore_entry(key, rec.ingress, rec.egress, bw, window);
        }
        self.admission = rebuilt;
        // The expiry wheels are volatile too: re-index the durable
        // records (SegRs, EER allocations, owned reservations)…
        self.store.rebuild_wheel();
        self.k_i_cache = None;
        self.seg_replay.clear();
        self.eer_replay.clear();
        // Stale rate-limit entries (older than the interval) are dropped;
        // recent ones survive so a restart cannot be used to sidestep the
        // §4.2 renewal rate limit.
        let min_interval = self.cfg.eer_renewal_min_interval;
        self.renewal_times.retain(|_, &mut last| now.saturating_since(last) < min_interval);
        // …and the one cache that survived.
        self.cache_wheel.clear();
        for (&key, &last) in &self.renewal_times {
            self.cache_wheel.schedule(last + min_interval, CacheDue::RenewalTime(key));
        }
        // In-flight admission work died with the process: the queue
        // restarts empty at nominal speed.
        if let Some(q) = &mut self.shed {
            q.reset(now);
        }
        let result = self.admission.audit();
        if let Some(t) = &self.telemetry {
            t.recoveries.inc();
        }
        let outcome = if result.is_ok() { TraceOutcome::Ok } else { TraceOutcome::Failed };
        self.trace(now, TraceOp::Recovery, outcome, self.store.segr_count() as u64);
        result
    }

    // -----------------------------------------------------------------
    // SegR handlers
    // -----------------------------------------------------------------

    /// Forward-pass admission of a SegR setup/renewal at this AS
    /// (paper Fig. 1a ➋). `running_demand` is the request demand clamped
    /// by upstream grants. Returns this AS's grant and an undo token.
    /// `now` is the processing time (stamps the admission trace event).
    pub fn segr_admit_hop(
        &mut self,
        req: &SegSetupReq,
        hop_index: usize,
        running_demand: Bandwidth,
        now: Instant,
    ) -> Result<(Bandwidth, UndoToken), CservError> {
        let rk: ReplayKey = (req.res_info.src_as, req.request_id, hop_index as u32);
        if req.request_id != 0 {
            if let Some((verdict, _)) = self.seg_replay.get(&rk) {
                // Retry of an already-processed request: replay the
                // recorded verdict; the aggregates are left untouched.
                if let Some(t) = &self.telemetry {
                    t.replayed_verdicts.inc();
                }
                let outcome =
                    if verdict.is_ok() { TraceOutcome::Ok } else { TraceOutcome::Denied };
                self.trace(now, TraceOp::Retry, outcome, req.request_id);
                return *verdict;
            }
        }
        // Load shedding runs after the replay lookup (a retry of an
        // already-decided request costs no admission work) and before
        // any state changes; shed verdicts return here and are never
        // cached below.
        let class =
            if req.res_info.ver > 0 { RequestClass::Renewal } else { RequestClass::NewSetup };
        if let Err(e) = self.shed_offer(class, now, req.deadline) {
            let op = if req.res_info.ver > 0 { TraceOp::Renewal } else { TraceOp::SegrAdmission };
            self.trace(now, op, TraceOutcome::Denied, req.request_id);
            return Err(e);
        }
        let result = self.segr_admit_hop_inner(req, hop_index, running_demand, now);
        if let Some(t) = &self.telemetry {
            match &result {
                Ok(_) => t.segr_admit_ok.inc(),
                Err(_) => t.segr_admit_denied.inc(),
            }
        }
        let op =
            if req.res_info.ver > 0 { TraceOp::Renewal } else { TraceOp::SegrAdmission };
        let outcome = if result.is_ok() { TraceOutcome::Ok } else { TraceOutcome::Denied };
        self.trace(now, op, outcome, req.request_id);
        if req.request_id != 0 {
            if self.seg_replay.len() < REPLAY_CAP {
                self.seg_replay.insert(rk, (result, req.res_info.exp_t));
                self.cache_wheel.schedule(req.res_info.exp_t, CacheDue::SegVerdict(rk));
            } else if let Some(t) = &self.telemetry {
                t.replay_cache_full.inc();
            }
        }
        result
    }

    fn segr_admit_hop_inner(
        &mut self,
        req: &SegSetupReq,
        hop_index: usize,
        running_demand: Bandwidth,
        now: Instant,
    ) -> Result<(Bandwidth, UndoToken), CservError> {
        if self.denied_sources.contains(&req.res_info.src_as) {
            return Err(CservError::SourceDenied(req.res_info.src_as));
        }
        // Keep the admission frame on the clock so the request's validity
        // window lands on live slots (and passed slots have decayed).
        self.admission.advance(now);
        let hop = req.path[hop_index].1;
        let window = self.admission.window_for(now, req.starts_at, req.res_info.exp_t);
        let (granted, undo) = self.admission.admit_with_undo(SegrRequest {
            key: req.res_info.key(),
            ingress: hop.ingress,
            egress: hop.egress,
            demand: running_demand,
            min_bw: req.min_bw,
            window,
        })?;
        Ok((granted, undo))
    }

    /// Tears down a finalized SegR at this AS: releases its admission
    /// contribution and removes the stored record. Used by the initiator
    /// to release an advance reservation before its start tick; exact —
    /// aggregates return to their pre-booking values. Returns `true` if
    /// anything was removed.
    pub fn segr_teardown(&mut self, key: ReservationKey) -> bool {
        let had_record = self.store.remove_segr(key).is_some();
        let had_admission = self.admission.remove(key);
        had_record || had_admission
    }

    /// Idempotent abort of a tracked SegR admission: reverts the recorded
    /// admission (if any succeeded) and forgets the replay entry, so both
    /// duplicate aborts and aborts racing a never-delivered request are
    /// no-ops. Used by the retrying drivers in [`crate::reliable`], which
    /// cannot know whether their abort follows a delivered admission.
    pub fn segr_abort_request(
        &mut self,
        src_as: IsdAsId,
        request_id: u64,
        hop_index: usize,
        now: Instant,
    ) {
        if request_id == 0 {
            return;
        }
        let rk: ReplayKey = (src_as, request_id, hop_index as u32);
        if let Some((Ok((_, undo)), _)) = self.seg_replay.remove(&rk) {
            self.admission.undo(undo);
            if let Some(t) = &self.telemetry {
                t.rollbacks.inc();
            }
            self.trace(now, TraceOp::Rollback, TraceOutcome::Ok, request_id);
        }
    }

    /// Backward-pass finalization (Fig. 1a ➌–➍): clamps the admission to
    /// the agreed `final_res_info`, records the reservation, and returns
    /// this AS's token `V_i^(S)` (Eq. 3).
    ///
    /// For a renewal (`ver > 0` with an existing record) the new version is
    /// stored as *pending*; the initiator must activate it explicitly
    /// (§4.2).
    ///
    /// `starts_at` is the reservation's activation instant
    /// (`Instant::EPOCH` = immediately; later = advance reservation,
    /// stored on the record so the EER handlers refuse it until then).
    #[allow(clippy::too_many_arguments)]
    pub fn segr_finalize_hop(
        &mut self,
        final_res_info: &ResInfo,
        hop: HopField,
        hop_index: usize,
        n_hops: usize,
        final_bw: Bandwidth,
        starts_at: Instant,
        now: Instant,
    ) -> [u8; HVF_LEN] {
        let key = final_res_info.key();
        self.admission.finalize(key, final_bw);
        match self.store.segr_mut(key) {
            Some(rec) => {
                // A duplicate finalize (retried backward pass) must not
                // re-stage the already-active version as pending.
                if rec.ver != final_res_info.ver || rec.bw != final_bw {
                    rec.pending = Some(PendingVersion {
                        ver: final_res_info.ver,
                        bw: final_bw,
                        exp: final_res_info.exp_t,
                    });
                    if let Some(t) = &self.telemetry {
                        t.renewals.inc();
                    }
                }
            }
            None => {
                self.store.insert_segr(
                    SegrRecord::new(
                        key,
                        hop,
                        hop_index,
                        n_hops,
                        final_res_info.ver,
                        final_bw,
                        final_res_info.exp_t,
                    )
                    .with_starts_at(starts_at),
                );
            }
        }
        let epoch = Epoch::containing(now);
        segr_token(self.k_i(epoch), final_res_info, hop)
    }

    /// Activates a pending SegR version at this AS.
    pub fn segr_activate(&mut self, key: ReservationKey, ver: u8) -> Result<(), CservError> {
        match self.store.segr_mut(key) {
            Some(rec) => {
                if rec.activate(ver) {
                    Ok(())
                } else {
                    Err(CservError::NoSuchPendingVersion)
                }
            }
            None => Err(CservError::UnknownSegr(key)),
        }
    }

    /// Records initiator-side state for a successful SegR setup.
    pub fn segr_store_owned(&mut self, owned: OwnedSegr) {
        self.store.insert_owned_segr(owned);
    }

    // -----------------------------------------------------------------
    // EER handlers
    // -----------------------------------------------------------------

    /// Which SegRs (by index into `req.segr_ids`) cover hop `hop_index`,
    /// in (incoming, outgoing) order. Non-junction hops have one entry.
    fn segs_of_hop(req: &EerSetupReq, hop_index: usize) -> (usize, Option<usize>) {
        let mut seg = 0usize;
        let mut is_junction = false;
        for &j in &req.junctions {
            if hop_index > j as usize {
                seg += 1;
            } else if hop_index == j as usize {
                is_junction = true;
            }
        }
        if is_junction {
            (seg, Some(seg + 1))
        } else {
            (seg, None)
        }
    }

    fn check_segr(
        store: &ReservationStore,
        key: ReservationKey,
        now: Instant,
    ) -> Result<&SegrRecord, CservError> {
        let rec = store.segr(key).ok_or(CservError::UnknownSegr(key))?;
        if rec.is_expired(now) {
            return Err(CservError::SegrExpired(key));
        }
        if now < rec.starts_at {
            // Advance reservation still waiting for its start tick: it
            // holds future bandwidth but cannot carry traffic yet.
            return Err(CservError::SegrNotActive(key));
        }
        Ok(rec)
    }

    /// Forward-pass EER admission at this AS (Fig. 1b ➌), for all four AS
    /// roles of §4.1. Checks the underlying SegR(s) and allocates; at a
    /// transfer AS the outgoing SegR's capacity is split proportionally
    /// among the feeding SegRs.
    pub fn eer_admit_hop(
        &mut self,
        req: &EerSetupReq,
        hop_index: usize,
        now: Instant,
    ) -> Result<(), CservError> {
        let rk: ReplayKey = (req.res_info.src_as, req.request_id, hop_index as u32);
        if req.request_id != 0 {
            if let Some((verdict, _)) = self.eer_replay.get(&rk) {
                // Retry: replay the recorded verdict without re-charging
                // SegR headroom or the transfer-AS proportional split.
                if let Some(t) = &self.telemetry {
                    t.replayed_verdicts.inc();
                }
                let outcome =
                    if verdict.is_ok() { TraceOutcome::Ok } else { TraceOutcome::Denied };
                self.trace(now, TraceOp::Retry, outcome, req.request_id);
                return *verdict;
            }
        }
        // Shed before doing any admission work; see `segr_admit_hop`.
        let class =
            if req.res_info.ver > 0 { RequestClass::Renewal } else { RequestClass::NewSetup };
        if let Err(e) = self.shed_offer(class, now, req.deadline) {
            let op = if req.res_info.ver > 0 { TraceOp::Renewal } else { TraceOp::EerAdmission };
            self.trace(now, op, TraceOutcome::Denied, req.request_id);
            return Err(e);
        }
        let result = self.eer_admit_hop_inner(req, hop_index, now);
        if let Some(t) = &self.telemetry {
            match &result {
                Ok(()) => t.eer_admit_ok.inc(),
                Err(_) => t.eer_admit_denied.inc(),
            }
        }
        let op = if req.res_info.ver > 0 { TraceOp::Renewal } else { TraceOp::EerAdmission };
        let outcome = if result.is_ok() { TraceOutcome::Ok } else { TraceOutcome::Denied };
        self.trace(now, op, outcome, req.request_id);
        if req.request_id != 0 {
            if self.eer_replay.len() < REPLAY_CAP {
                self.eer_replay.insert(rk, (result, req.res_info.exp_t));
                self.cache_wheel.schedule(req.res_info.exp_t, CacheDue::EerVerdict(rk));
            } else if let Some(t) = &self.telemetry {
                t.replay_cache_full.inc();
            }
        }
        result
    }

    fn eer_admit_hop_inner(
        &mut self,
        req: &EerSetupReq,
        hop_index: usize,
        now: Instant,
    ) -> Result<(), CservError> {
        if self.denied_sources.contains(&req.res_info.src_as) {
            return Err(CservError::SourceDenied(req.res_info.src_as));
        }
        let hop = req.path[hop_index].1;
        let key = req.res_info.key();
        let ver = req.res_info.ver;
        let exp = req.res_info.exp_t;
        // Renewal rate limiting (§4.2): versions > 0 are renewals. Only
        // *successful* renewals consume the budget (recorded at the end of
        // this handler) — a refused renewal costs no reservation state and
        // may be retried immediately, e.g. by adaptive downgrading.
        if ver > 0 {
            if let Some(&last) = self.renewal_times.get(&key) {
                if now.saturating_since(last) < self.cfg.eer_renewal_min_interval {
                    return Err(CservError::RenewalRateLimited);
                }
            }
        }
        let is_source = hop_index == 0;
        let is_dest = hop_index == req.path.len() - 1;

        // Source/destination AS: intra-AS policy (direct business
        // relationship with the host, §4.7).
        if is_source && !self.policy.allow_source(req.eer_info.src_host, req.demand) {
            return Err(CservError::PolicyDenied);
        }
        if is_dest && !self.policy.allow_destination(req.eer_info.dst_host, req.demand) {
            return Err(CservError::PolicyDenied);
        }

        let (seg_in, seg_out) = Self::segs_of_hop(req, hop_index);
        let in_key = req.segr_ids[seg_in];
        match seg_out {
            None => {
                // Plain hop: one SegR; packet interfaces must match it.
                let rec = Self::check_segr(&self.store, in_key, now)?;
                if rec.hop_field() != hop {
                    return Err(CservError::HopMismatch);
                }
                let rec = self.store.segr_mut(in_key).unwrap();
                rec.usage.admit(key, ver, req.demand, exp, now, None)?;
                // Index the allocation's expiry so GC can return its
                // headroom without scanning every record.
                self.store.schedule_alloc_expiry(in_key, key, ver, exp);
            }
            Some(seg_out) => {
                // Transfer AS: check both SegRs (§4.7 "Transfer AS").
                let out_key = req.segr_ids[seg_out];
                {
                    let rec_in = Self::check_segr(&self.store, in_key, now)?;
                    if rec_in.ingress != hop.ingress {
                        return Err(CservError::HopMismatch);
                    }
                    let rec_out = Self::check_segr(&self.store, out_key, now)?;
                    if rec_out.egress != hop.egress {
                        return Err(CservError::HopMismatch);
                    }
                }
                let in_bw = self.store.segr(in_key).unwrap().bw;
                // Record demand for the proportional split, then compute
                // the cap for this feeding SegR.
                let out_bw = self.store.segr(out_key).unwrap().bw;
                {
                    let rec_out = self.store.segr_mut(out_key).unwrap();
                    rec_out.split.record_demand(in_key, req.demand);
                }
                let cap = {
                    let rec_out = self.store.segr(out_key).unwrap();
                    rec_out.split.cap_for(in_key, in_bw, out_bw)
                };
                // Admit on the incoming SegR first…
                {
                    let rec_in = self.store.segr_mut(in_key).unwrap();
                    if let Err(e) = rec_in.usage.admit(key, ver, req.demand, exp, now, None) {
                        let rec_out = self.store.segr_mut(out_key).unwrap();
                        rec_out.split.release_demand(in_key, req.demand);
                        return Err(e.into());
                    }
                }
                // …then on the outgoing one, under the split cap; roll
                // back the incoming admission on failure.
                let cap_used = {
                    let rec_out = self.store.segr_mut(out_key).unwrap();
                    let allocated_cap =
                        cap.saturating_sub(Bandwidth::ZERO); // cap already absolute
                    rec_out.usage.admit(key, ver, req.demand, exp, now, Some(allocated_cap))
                };
                if let Err(e) = cap_used {
                    let rec_in = self.store.segr_mut(in_key).unwrap();
                    rec_in.usage.remove_version(key, ver);
                    let rec_out = self.store.segr_mut(out_key).unwrap();
                    rec_out.split.release_demand(in_key, req.demand);
                    return Err(e.into());
                }
                self.store.schedule_alloc_expiry(in_key, key, ver, exp);
                self.store.schedule_alloc_expiry(out_key, key, ver, exp);
            }
        }
        Ok(())
    }

    /// Idempotent abort of a tracked EER admission: rolls back only if
    /// this CServ actually recorded a successful admission for the
    /// request, then forgets the replay entry. Duplicate aborts, and
    /// aborts for requests that were lost before arriving, change
    /// nothing.
    pub fn eer_abort_request(&mut self, req: &EerSetupReq, hop_index: usize, now: Instant) {
        if req.request_id == 0 {
            self.eer_abort_hop(req, hop_index);
            return;
        }
        let rk: ReplayKey = (req.res_info.src_as, req.request_id, hop_index as u32);
        if let Some((Ok(()), _)) = self.eer_replay.remove(&rk) {
            self.eer_abort_hop(req, hop_index);
            if let Some(t) = &self.telemetry {
                t.rollbacks.inc();
            }
            self.trace(now, TraceOp::Rollback, TraceOutcome::Ok, req.request_id);
        }
    }

    /// Rolls back a forward-pass EER admission (downstream refusal).
    pub fn eer_abort_hop(&mut self, req: &EerSetupReq, hop_index: usize) {
        let key = req.res_info.key();
        let ver = req.res_info.ver;
        let (seg_in, seg_out) = Self::segs_of_hop(req, hop_index);
        let in_key = req.segr_ids[seg_in];
        if let Some(rec) = self.store.segr_mut(in_key) {
            rec.usage.remove_version(key, ver);
        }
        if let Some(seg_out) = seg_out {
            let out_key = req.segr_ids[seg_out];
            if let Some(rec) = self.store.segr_mut(out_key) {
                rec.usage.remove_version(key, ver);
                rec.split.release_demand(in_key, req.demand);
            }
        }
    }

    /// Backward-pass finalization (Fig. 1b ➍): computes this AS's hop
    /// authenticator σᵢ (Eq. 4) and seals it for the source AS (Eq. 5).
    ///
    /// The AEAD key is `K_{me→AS₀}`, which this AS derives on the fly; the
    /// nonce binds `(res_id, version, hop_index)` and is therefore unique
    /// per key.
    pub fn eer_finalize_hop(
        &mut self,
        res_info: &ResInfo,
        eer_info: &EerInfo,
        hop: HopField,
        hop_index: usize,
        now: Instant,
    ) -> SealedHopAuth {
        // A renewal consumes its rate-limit budget only here, i.e. once the
        // whole path accepted it; refused attempts stay retryable.
        if res_info.ver > 0 {
            // A key already in the map is already on the cache wheel; the
            // GC re-arms it at the later deadline.
            if self.renewal_times.insert(res_info.key(), now).is_none() {
                self.cache_wheel.schedule(
                    now + self.cfg.eer_renewal_min_interval,
                    CacheDue::RenewalTime(res_info.key()),
                );
            }
            if let Some(t) = &self.telemetry {
                t.renewals.inc();
            }
        }
        let epoch = Epoch::containing(now);
        let sigma = hop_auth(self.k_i(epoch), res_info, eer_info, hop);
        let aead_key = self.drkey_out(epoch, res_info.src_as);
        let aead = Aead::new(&aead_key.0);
        let mut nonce = [0u8; 12];
        nonce[..4].copy_from_slice(&res_info.res_id.0.to_be_bytes());
        nonce[4] = res_info.ver;
        nonce[5] = hop_index as u8;
        nonce[6..].copy_from_slice(b"colibr");
        let ciphertext = aead.seal(&nonce, &[], &sigma.0);
        SealedHopAuth { nonce, ciphertext }
    }

    /// Destination-side registration of an accepted EER (so the last AS can
    /// deliver packets to `DstHost`).
    pub fn eer_register_terminating(&mut self, req: &EerSetupReq) {
        self.store.insert_terminating_eer(
            req.res_info.key(),
            req.eer_info.dst_host,
            req.res_info.exp_t,
        );
    }

    /// Source-side: opens the sealed hop authenticators of an accepted
    /// response and stores (or extends) the owned EER. `fetch_key` supplies
    /// `K_{ASᵢ→me}` for each on-path AS — the slow DRKey side, served from
    /// the key cache in practice.
    pub fn eer_store_response(
        &mut self,
        req: &EerSetupReq,
        sealed: &[SealedHopAuth],
        mut fetch_key: impl FnMut(IsdAsId) -> Key,
    ) -> Result<(), CservError> {
        let mut hop_auths = Vec::with_capacity(sealed.len());
        for (i, s) in sealed.iter().enumerate() {
            let remote = req.path[i].0;
            let k = fetch_key(remote);
            let aead = Aead::new(&k.0);
            let plain =
                aead.open(&s.nonce, &[], &s.ciphertext).map_err(|_| CservError::BadAuthentication)?;
            let arr: [u8; 16] =
                plain.as_slice().try_into().map_err(|_| CservError::BadAuthentication)?;
            hop_auths.push(Key(arr));
        }
        let key = req.res_info.key();
        let version = OwnedEerVersion {
            ver: req.res_info.ver,
            bw: req.demand,
            exp: req.res_info.exp_t,
            hop_auths,
        };
        if let Err(version) = self.store.insert_owned_eer_version(key, version) {
            self.store.insert_owned_eer(OwnedEer {
                key,
                eer_info: req.eer_info,
                path_ases: req.path.iter().map(|(a, _)| *a).collect(),
                hop_fields: req.path.iter().map(|(_, h)| *h).collect(),
                versions: vec![version],
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AllowAll;
    use colibri_base::{BwClass, HostAddr};

    fn cserv(asn: u32) -> CServ {
        let mut secret = [0u8; 16];
        secret[..4].copy_from_slice(&asn.to_be_bytes());
        CServ::new(
            IsdAsId::new(1, asn),
            &secret,
            CservConfig::default(),
            Box::new(AllowAll),
        )
    }

    #[test]
    fn res_id_allocation_monotone() {
        let mut c = cserv(10);
        let a = c.alloc_res_id();
        let b = c.alloc_res_id();
        assert_ne!(a, b);
        assert!(a < b);
    }

    #[test]
    fn k_i_cached_per_epoch() {
        let mut c = cserv(10);
        let t1 = c.k_i(Epoch(0)).tag(b"x");
        let t2 = c.k_i(Epoch(0)).tag(b"x");
        assert_eq!(t1, t2);
        let t3 = c.k_i(Epoch(1)).tag(b"x");
        assert_ne!(t1, t3);
    }

    #[test]
    fn drkey_out_differs_per_remote() {
        let c = cserv(10);
        assert_ne!(
            c.drkey_out(Epoch(0), IsdAsId::new(1, 1)),
            c.drkey_out(Epoch(0), IsdAsId::new(1, 2))
        );
    }

    #[test]
    fn denied_source_rejected_everywhere() {
        let mut c = cserv(10);
        c.set_interface_capacity(InterfaceId(1), Bandwidth::from_gbps(10));
        c.deny_source(IsdAsId::new(9, 9));
        let req = SegSetupReq {
            request_id: 0,
            deadline: Instant::MAX,
            starts_at: Instant::EPOCH,
            res_info: ResInfo {
                src_as: IsdAsId::new(9, 9),
                res_id: ResId(0),
                bw: BwClass(10),
                exp_t: Instant::from_secs(300),
                ver: 0,
            },
            demand: Bandwidth::from_mbps(10),
            min_bw: Bandwidth::ZERO,
            path: vec![(IsdAsId::new(1, 10), HopField::new(0, 1))],
            grants: vec![],
        };
        assert_eq!(
            c.segr_admit_hop(&req, 0, Bandwidth::from_mbps(10), Instant::EPOCH).unwrap_err(),
            CservError::SourceDenied(IsdAsId::new(9, 9))
        );
    }

    #[test]
    fn segs_of_hop_mapping() {
        let req = EerSetupReq {
            request_id: 0,
            deadline: Instant::MAX,
            res_info: ResInfo {
                src_as: IsdAsId::new(1, 10),
                res_id: ResId(0),
                bw: BwClass(1),
                exp_t: Instant::from_secs(16),
                ver: 0,
            },
            eer_info: EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) },
            demand: Bandwidth::from_mbps(1),
            path: vec![
                (IsdAsId::new(1, 10), HopField::new(0, 1)),
                (IsdAsId::new(1, 1), HopField::new(2, 3)),
                (IsdAsId::new(2, 1), HopField::new(4, 5)),
                (IsdAsId::new(2, 20), HopField::new(6, 0)),
            ],
            junctions: vec![1, 2],
            segr_ids: vec![
                ReservationKey::new(IsdAsId::new(1, 10), ResId(1)),
                ReservationKey::new(IsdAsId::new(1, 1), ResId(2)),
                ReservationKey::new(IsdAsId::new(2, 1), ResId(3)),
            ],
        };
        assert_eq!(CServ::segs_of_hop(&req, 0), (0, None));
        assert_eq!(CServ::segs_of_hop(&req, 1), (0, Some(1)));
        assert_eq!(CServ::segs_of_hop(&req, 2), (1, Some(2)));
        assert_eq!(CServ::segs_of_hop(&req, 3), (2, None));
    }

    fn seg_req(request_id: u64, demand: Bandwidth) -> SegSetupReq {
        SegSetupReq {
            request_id,
            deadline: Instant::MAX,
            starts_at: Instant::EPOCH,
            res_info: ResInfo {
                src_as: IsdAsId::new(9, 9),
                res_id: ResId(1),
                bw: BwClass::from_bandwidth_ceil(demand),
                exp_t: Instant::from_secs(300),
                ver: 0,
            },
            demand,
            min_bw: Bandwidth::ZERO,
            path: vec![(IsdAsId::new(1, 10), HopField::new(1, 2))],
            grants: vec![],
        }
    }

    #[test]
    fn retried_admission_replays_without_double_counting() {
        let mut c = cserv(10);
        c.set_interface_capacity(InterfaceId(1), Bandwidth::from_gbps(10));
        c.set_interface_capacity(InterfaceId(2), Bandwidth::from_gbps(10));
        let req = seg_req(42, Bandwidth::from_mbps(100));
        let (g1, _) = c.segr_admit_hop(&req, 0, req.demand, Instant::EPOCH).unwrap();
        let snap = c.admission().aggregates();
        // A retry of the same request id must return the same grant and
        // leave every memoized aggregate untouched.
        let (g2, _) = c.segr_admit_hop(&req, 0, req.demand, Instant::EPOCH).unwrap();
        assert_eq!(g1, g2);
        assert_eq!(c.admission().aggregates(), snap);
    }

    #[test]
    fn abort_request_is_idempotent_and_exact() {
        let mut c = cserv(10);
        c.set_interface_capacity(InterfaceId(1), Bandwidth::from_gbps(10));
        c.set_interface_capacity(InterfaceId(2), Bandwidth::from_gbps(10));
        let clean = c.admission().aggregates();
        let req = seg_req(7, Bandwidth::from_mbps(50));
        c.segr_admit_hop(&req, 0, req.demand, Instant::EPOCH).unwrap();
        let src = req.res_info.src_as;
        c.segr_abort_request(src, 7, 0, Instant::EPOCH);
        assert_eq!(c.admission().aggregates(), clean);
        // A duplicate abort, and an abort for a request that never
        // arrived, must both be no-ops.
        c.segr_abort_request(src, 7, 0, Instant::EPOCH);
        c.segr_abort_request(src, 999, 0, Instant::EPOCH);
        assert_eq!(c.admission().aggregates(), clean);
    }

    #[test]
    fn orphaned_admission_is_undone_once_and_only_at_its_deadline() {
        let mut c = cserv(10);
        c.set_interface_capacity(InterfaceId(1), Bandwidth::from_gbps(10));
        c.set_interface_capacity(InterfaceId(2), Bandwidth::from_gbps(10));
        let clean = c.admission().aggregates();
        // Admitted on the forward pass, never finalized, abort never
        // delivered. The would-be reservation expires at 300 s.
        let req = seg_req(5, Bandwidth::from_mbps(100));
        c.segr_admit_hop(&req, 0, req.demand, Instant::EPOCH).unwrap();
        let before = c.gc(Instant::from_secs(299));
        assert_eq!(before.orphans, 0, "not before the deadline");
        assert_ne!(c.admission().aggregates(), clean);
        assert_eq!(c.replay_cache_entries(), (1, 0));
        let at = c.gc(Instant::from_secs(300));
        assert_eq!((at.orphans, at.expired), (1, 0));
        assert_eq!(c.admission().aggregates(), clean);
        assert_eq!(c.replay_cache_entries(), (0, 0));
        let after = c.gc(Instant::from_secs(301));
        assert_eq!((after.orphans, after.scanned), (0, 0), "exactly once");
        assert_eq!(c.admission().aggregates(), clean);
        c.admission().audit().expect("aggregates reconcile");
    }

    #[test]
    fn finalized_reservation_is_never_an_orphan() {
        let mut c = cserv(10);
        c.set_interface_capacity(InterfaceId(1), Bandwidth::from_gbps(10));
        c.set_interface_capacity(InterfaceId(2), Bandwidth::from_gbps(10));
        let clean = c.admission().aggregates();
        let req = seg_req(6, Bandwidth::from_mbps(100));
        let (granted, _) = c.segr_admit_hop(&req, 0, req.demand, Instant::EPOCH).unwrap();
        let info = ResInfo { bw: BwClass::from_bandwidth_ceil(granted), ..req.res_info };
        c.segr_finalize_hop(&info, req.path[0].1, 0, 1, granted, Instant::EPOCH, Instant::EPOCH);
        // Record and cached verdict expire in the same run: the verdict is
        // examined while the record still exists, so the admission is
        // released once — with the record — not also undone as an orphan.
        let stats = c.gc(Instant::from_secs(300));
        assert_eq!((stats.orphans, stats.expired), (0, 1));
        assert_eq!(stats.removed, vec![info.key()]);
        assert_eq!(c.admission().aggregates(), clean);
        assert_eq!(c.gc(Instant::from_secs(301)).orphans, 0);
        c.admission().audit().expect("aggregates reconcile");
    }

    #[test]
    fn full_replay_cache_is_counted_not_silent() {
        let mut c = cserv(10);
        c.set_interface_capacity(InterfaceId(1), Bandwidth::from_gbps(10));
        c.set_interface_capacity(InterfaceId(2), Bandwidth::from_gbps(10));
        let reg = Registry::new();
        c.attach_telemetry(&reg, "cserv_1_10");
        // Fill the cache with refusals (a denied source costs no admission
        // state), then one more.
        c.deny_source(IsdAsId::new(9, 9));
        let req = seg_req(0, Bandwidth::from_mbps(1));
        for id in 1..=REPLAY_CAP as u64 + 3 {
            let req = SegSetupReq { request_id: id, ..req.clone() };
            assert!(c.segr_admit_hop(&req, 0, req.demand, Instant::EPOCH).is_err());
        }
        assert_eq!(c.replay_cache_entries().0, REPLAY_CAP);
        let snap = reg.snapshot();
        assert_eq!(snap.total("colibri_ctrl_replay_cache_full_total"), 3);
        colibri_telemetry::verify_exposition(&snap.render_prometheus())
            .expect("exposition verifies");
    }

    #[test]
    fn telemetry_counts_admissions_and_traces_retries() {
        let mut c = cserv(10);
        c.set_interface_capacity(InterfaceId(1), Bandwidth::from_gbps(10));
        c.set_interface_capacity(InterfaceId(2), Bandwidth::from_gbps(10));
        let reg = Registry::new();
        let tracer = Arc::new(Tracer::new(16));
        c.attach_tracer(&reg, "cserv_1_10", Arc::clone(&tracer));
        let req = seg_req(42, Bandwidth::from_mbps(100));
        c.segr_admit_hop(&req, 0, req.demand, Instant::from_secs(1)).unwrap();
        // Retry of the same request id: absorbed by the replay cache.
        c.segr_admit_hop(&req, 0, req.demand, Instant::from_secs(2)).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.total("colibri_ctrl_segr_admit_ok_total"), 1);
        assert_eq!(snap.total("colibri_ctrl_segr_admit_denied_total"), 0);
        assert_eq!(snap.total("colibri_ctrl_replayed_verdicts_total"), 1);
        let evs = tracer.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].op, TraceOp::SegrAdmission);
        assert_eq!(evs[0].outcome, TraceOutcome::Ok);
        assert_eq!(evs[0].at, Instant::from_secs(1));
        assert_eq!(evs[1].op, TraceOp::Retry);

        c.segr_abort_request(req.res_info.src_as, 42, 0, Instant::from_secs(3));
        assert_eq!(reg.snapshot().total("colibri_ctrl_rollbacks_total"), 1);
        assert_eq!(tracer.events_for(TraceOp::Rollback).len(), 1);

        c.gc(Instant::from_secs(4));
        let snap = reg.snapshot();
        assert_eq!(snap.total("colibri_ctrl_gc_runs_total"), 1);
        c.recover(Instant::from_secs(5)).expect("consistent");
        assert_eq!(reg.snapshot().total("colibri_ctrl_recoveries_total"), 1);
        assert_eq!(tracer.events_for(TraceOp::Recovery).len(), 1);
    }

    #[test]
    fn renewal_rate_entries_are_purged_by_gc_and_recover() {
        let mut c = cserv(10);
        let eer_info = EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) };
        let hop = HopField::new(1, 2);
        let t0 = Instant::from_secs(100);
        // Ten finalized renewals leave ten rate-limit entries.
        for i in 0..10u32 {
            let info = ResInfo {
                src_as: IsdAsId::new(9, 9),
                res_id: ResId(i),
                bw: BwClass(1),
                exp_t: t0 + Duration::from_secs(16),
                ver: 1,
            };
            c.eer_finalize_hop(&info, &eer_info, hop, 0, t0);
        }
        assert_eq!(c.renewal_rate_entries(), 10);
        // Within the rate-limit interval nothing may be dropped (the
        // entries still gate renewals)…
        c.gc(t0 + Duration::from_millis(500));
        assert_eq!(c.renewal_rate_entries(), 10);
        // …but once the interval passes, GC purges them all. Before the
        // fix this map grew by one entry per EER forever.
        c.gc(t0 + Duration::from_secs(2));
        assert_eq!(c.renewal_rate_entries(), 0);
        // recover() drops stale entries too, but keeps recent ones so a
        // restart cannot bypass the §4.2 rate limit.
        let t1 = Instant::from_secs(200);
        let info = ResInfo {
            src_as: IsdAsId::new(9, 9),
            res_id: ResId(77),
            bw: BwClass(1),
            exp_t: t1 + Duration::from_secs(16),
            ver: 1,
        };
        c.eer_finalize_hop(&info, &eer_info, hop, 0, t1);
        c.recover(t1 + Duration::from_millis(100)).expect("consistent");
        assert_eq!(c.renewal_rate_entries(), 1, "recent entry survives a restart");
        c.recover(t1 + Duration::from_secs(5)).expect("consistent");
        assert_eq!(c.renewal_rate_entries(), 0, "stale entry dropped on restart");
    }

    #[test]
    fn shedding_prioritizes_renewals_and_never_caches_busy() {
        let mut c = cserv(10);
        c.set_interface_capacity(InterfaceId(1), Bandwidth::from_gbps(10));
        c.set_interface_capacity(InterfaceId(2), Bandwidth::from_gbps(10));
        let t = Instant::from_secs(50);
        c.enable_shedding(
            ShedConfig {
                base_service: Duration::from_millis(2),
                max_backlog: Duration::from_millis(8),
                min_retry_after: Duration::from_millis(50),
            },
            t,
        );
        // New setups may use half the backlog: two admit, the third gets
        // an explicit Busy with a retry hint.
        let mut reqs = Vec::new();
        for i in 0..3u64 {
            let mut r = seg_req(100 + i, Bandwidth::from_mbps(10));
            r.res_info.res_id = ResId(10 + i as u32);
            reqs.push(r);
        }
        assert!(c.segr_admit_hop(&reqs[0], 0, reqs[0].demand, t).is_ok());
        assert!(c.segr_admit_hop(&reqs[1], 0, reqs[1].demand, t).is_ok());
        let err = c.segr_admit_hop(&reqs[2], 0, reqs[2].demand, t).unwrap_err();
        let CservError::Busy { retry_after } = err else { panic!("expected Busy, got {err}") };
        assert!(retry_after >= Duration::from_millis(4));
        // Renewals (ver > 0) still admit: their class owns the full
        // backlog, so setups can never starve them.
        let mut renew = seg_req(200, Bandwidth::from_mbps(10));
        renew.res_info.res_id = ResId(10);
        renew.res_info.ver = 1;
        assert!(c.segr_admit_hop(&renew, 0, renew.demand, t).is_ok());
        // A Busy verdict must not be memoized: the same request id,
        // retried after the hinted delay, is re-evaluated and admits.
        let later = t + retry_after;
        assert!(
            c.segr_admit_hop(&reqs[2], 0, reqs[2].demand, later).is_ok(),
            "Busy was cached in the replay map"
        );
        let s = c.shed_stats().unwrap();
        assert_eq!(s.shed_busy[RequestClass::NewSetup as usize], 1);
        assert_eq!(s.admitted[RequestClass::Renewal as usize], 1);
    }

    #[test]
    fn unmeetable_deadlines_are_shed_at_this_hop() {
        let mut c = cserv(10);
        c.set_interface_capacity(InterfaceId(1), Bandwidth::from_gbps(10));
        c.set_interface_capacity(InterfaceId(2), Bandwidth::from_gbps(10));
        let t = Instant::from_secs(50);
        c.enable_shedding(ShedConfig::default(), t);
        let mut req = seg_req(300, Bandwidth::from_mbps(10));
        req.deadline = t; // already expired when it arrives
        assert_eq!(
            c.segr_admit_hop(&req, 0, req.demand, t).unwrap_err(),
            CservError::DeadlineExceeded
        );
        // With a meetable deadline the same request admits (and the shed
        // verdict was not cached under its request id).
        req.deadline = t + Duration::from_secs(1);
        assert!(c.segr_admit_hop(&req, 0, req.demand, t).is_ok());
        assert_eq!(c.shed_stats().unwrap().shed_deadline[RequestClass::NewSetup as usize], 1);
    }

    #[test]
    fn recover_rebuilds_aggregates_from_store() {
        let mut c = cserv(10);
        c.set_interface_capacity(InterfaceId(1), Bandwidth::from_gbps(10));
        c.set_interface_capacity(InterfaceId(2), Bandwidth::from_gbps(10));
        let now = Instant::from_secs(1);
        let req = seg_req(3, Bandwidth::from_mbps(200));
        let (granted, _) = c.segr_admit_hop(&req, 0, req.demand, Instant::EPOCH).unwrap();
        let final_info =
            ResInfo { bw: BwClass::from_bandwidth_ceil(granted), ..req.res_info };
        c.segr_finalize_hop(&final_info, req.path[0].1, 0, 1, granted, Instant::EPOCH, now);
        let live = c.admission().aggregates();
        c.recover(Instant::EPOCH).expect("store is consistent");
        assert_eq!(c.admission().aggregates(), live);
    }

    #[test]
    fn recover_drops_unfinalized_admissions() {
        let mut c = cserv(10);
        c.set_interface_capacity(InterfaceId(1), Bandwidth::from_gbps(10));
        c.set_interface_capacity(InterfaceId(2), Bandwidth::from_gbps(10));
        let clean = c.admission().aggregates();
        // Admitted on the forward pass but never finalized: the crash
        // happened mid-setup; recovery must not leak this bandwidth.
        let req = seg_req(5, Bandwidth::from_mbps(100));
        c.segr_admit_hop(&req, 0, req.demand, Instant::EPOCH).unwrap();
        assert_ne!(c.admission().aggregates(), clean);
        c.recover(Instant::EPOCH).expect("store is consistent");
        assert_eq!(c.admission().aggregates(), clean);
    }
}

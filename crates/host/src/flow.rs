//! Flow management: the end-host side of Colibri (paper §3.2).
//!
//! The paper modifies the SCION daemon so applications can "explicitly
//! request and renew EERs". [`FlowManager`] is that daemon's reservation
//! logic for one source AS:
//!
//! * **opening a flow** resolves candidate paths, ensures SegRs exist on
//!   the chosen path's segments (creating them through the respective
//!   initiating ASes if needed), sets up the EER, and installs it in the
//!   gateway — falling back to alternative paths when admission fails
//!   (path choice, §2.1);
//! * **ticking** renews EERs ahead of expiry for seamless transitions and
//!   renews+activates the underlying SegRs before they lapse (§4.2);
//! * **failure handling**: a reservation that lapses (unreachable CServ,
//!   crashed hop, lost renewals) triggers *failover* to an alternate
//!   admissible path; when no path admits the flow it *degrades* to
//!   best-effort — and later ticks *re-establish* the reservation once
//!   capacity returns. The gateway entry is uninstalled/installed across
//!   each transition so the data plane always matches the control state;
//! * **sending** stamps application payloads through the gateway;
//! * tiny flows are steered to **best-effort** instead — "reservations
//!   are only useful for flows of some minimum size" (§3.4).
//!
//! Every establishment step runs over a [`ControlChannel`] with the
//! retry/rollback machinery of `colibri_ctrl::reliable`; the plain
//! [`FlowManager::open`] / [`FlowManager::tick`] entry points use the
//! [`PerfectChannel`] and behave exactly like the pre-fault-model code.

use colibri_base::{Bandwidth, Clock, Duration, HostAddr, Instant, IsdAsId, ReservationKey};
use colibri_ctrl::{
    activate_segr_with, renew_eer_with, renew_segr_with, setup_eer_with, setup_segr_with,
    ControlChannel, CservError, CservRegistry, PerfectChannel, RetryPolicy, SetupError,
};
use colibri_dataplane::{Gateway, GatewayError, StampedPacket};
use colibri_topology::{find_paths, FullPath, SegmentStore, Topology};
use colibri_wire::EerInfo;
use std::collections::HashMap;

/// Everything the flow manager needs from the surrounding deployment.
pub struct Env<'a> {
    /// All Colibri services.
    pub reg: &'a mut CservRegistry,
    /// The AS-level topology.
    pub topo: &'a Topology,
    /// Beaconed segments.
    pub segments: &'a SegmentStore,
    /// The source AS's gateway.
    pub gateway: &'a mut Gateway,
}

/// Flow-manager policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct FlowConfig {
    /// Renew an EER when less than this remains of its lifetime.
    pub eer_renew_ahead: Duration,
    /// Extra head start on EER renewals beyond `eer_renew_ahead`. A
    /// non-zero hedge starts renewing early enough that a CServ
    /// answering `Busy { retry_after }` under overload can be honored —
    /// the renewal waits out `retry_after` instead of hammering the
    /// service — and still completes before the reservation lapses.
    pub eer_renew_hedge: Duration,
    /// Renew a SegR when less than this remains.
    pub segr_renew_ahead: Duration,
    /// Flows declaring less than this expected volume ride best-effort.
    pub min_reserved_flow_bytes: u64,
    /// How many candidate paths to try before giving up.
    pub max_path_attempts: usize,
    /// Bandwidth to request for SegRs created on demand.
    pub segr_demand: Bandwidth,
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self {
            eer_renew_ahead: Duration::from_secs(8),
            eer_renew_hedge: Duration::ZERO,
            segr_renew_ahead: Duration::from_secs(60),
            min_reserved_flow_bytes: 100_000,
            max_path_attempts: 4,
            segr_demand: Bandwidth::from_gbps(1),
        }
    }
}

/// Handle to an open flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// How a flow is carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowKind {
    /// Over an EER (with the reservation key).
    Reserved(ReservationKey),
    /// As best-effort traffic (too small to reserve, §3.4).
    BestEffort,
    /// Wanted a reservation, but none is currently admissible on any
    /// path: carried best-effort until [`FlowManager::tick`] manages to
    /// re-establish it. The original demand is kept on the flow.
    Degraded,
}

/// One managed flow.
#[derive(Debug)]
pub struct Flow {
    /// Destination AS.
    pub dst_as: IsdAsId,
    /// Host addressing.
    pub hosts: EerInfo,
    /// Reserved bandwidth (0 for best-effort flows; degraded flows keep
    /// the demand they will re-request).
    pub demand: Bandwidth,
    /// Carrier.
    pub kind: FlowKind,
    /// The path in use (reserved flows only).
    pub path: Option<FullPath>,
    /// The SegRs underlying the EER.
    pub segr_keys: Vec<ReservationKey>,
    /// Expiry of the newest EER version.
    pub eer_exp: Instant,
    /// Number of successful renewals so far.
    pub renewals: u64,
    /// Number of times the flow moved to a different path after its
    /// reservation lapsed.
    pub failovers: u64,
    /// Renewal attempts are suppressed until this instant: set from a
    /// CServ's `Busy { retry_after }` answer so an overloaded service
    /// is not hammered, cleared on the next successful renewal.
    pub defer_renewal_until: Instant,
}

/// Errors opening a flow.
#[derive(Debug)]
pub enum OpenError {
    /// No path between the ASes.
    NoPath,
    /// All candidate paths refused the reservation; the last error.
    AllPathsRefused(SetupError),
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::NoPath => write!(f, "no path to destination"),
            OpenError::AllPathsRefused(e) => write!(f, "all candidate paths refused: {e}"),
        }
    }
}

impl std::error::Error for OpenError {}

/// What one maintenance tick did (see [`FlowManager::tick_with`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Successful SegR + EER renewals.
    pub renewals: usize,
    /// Lapsed flows moved to an alternate path.
    pub failovers: usize,
    /// Lapsed flows degraded to best-effort (no admissible path).
    pub degradations: usize,
    /// Degraded flows whose reservation was re-established.
    pub reestablished: usize,
    /// Renewals deferred because the CServ answered `Busy` with a
    /// `retry_after` hint that has not yet elapsed.
    pub busy_deferred: usize,
}

/// A freshly established EER (internal result of the path-attempt loop).
struct Established {
    key: ReservationKey,
    exp: Instant,
    path: FullPath,
    segr_keys: Vec<ReservationKey>,
}

/// The per-source-AS flow manager.
pub struct FlowManager {
    src_as: IsdAsId,
    cfg: FlowConfig,
    flows: HashMap<FlowId, Flow>,
    next_id: u64,
    /// SegRs this manager created, by segment AS-path (for reuse across
    /// flows sharing segments).
    segr_cache: HashMap<Vec<IsdAsId>, ReservationKey>,
}

impl FlowManager {
    /// Creates a manager for hosts of `src_as`.
    pub fn new(src_as: IsdAsId, cfg: FlowConfig) -> Self {
        Self { src_as, cfg, flows: HashMap::new(), next_id: 0, segr_cache: HashMap::new() }
    }

    /// The flows currently managed.
    pub fn flow(&self, id: FlowId) -> Option<&Flow> {
        self.flows.get(&id)
    }

    /// Number of managed flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether no flows are open.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    fn ensure_segr(
        &mut self,
        env: &mut Env<'_>,
        seg: &colibri_topology::Segment,
        clock: &Clock,
        ch: &mut dyn ControlChannel,
        policy: &RetryPolicy,
    ) -> Result<ReservationKey, SetupError> {
        let as_path = seg.as_path();
        if let Some(&key) = self.segr_cache.get(&as_path) {
            // Reuse if the initiator still holds a live reservation.
            if let Some(cserv) = env.reg.get(key.src_as) {
                if let Some(owned) = cserv.store().owned_segr(key) {
                    if owned.exp > clock.now() {
                        return Ok(key);
                    }
                }
            }
            self.segr_cache.remove(&as_path);
        }
        let (grant, _stats) = setup_segr_with(
            env.reg,
            seg,
            self.cfg.segr_demand,
            Bandwidth::from_mbps(1),
            Instant::EPOCH,
            clock,
            ch,
            policy,
        )?;
        self.segr_cache.insert(as_path, grant.key);
        Ok(grant.key)
    }

    /// The path-attempt loop shared by open, failover, and re-establish:
    /// tries every candidate path until one admits the EER end to end.
    #[allow(clippy::too_many_arguments)] // private plumbing mirroring open_with's surface
    fn try_establish(
        &mut self,
        env: &mut Env<'_>,
        dst_as: IsdAsId,
        hosts: EerInfo,
        demand: Bandwidth,
        clock: &Clock,
        ch: &mut dyn ControlChannel,
        policy: &RetryPolicy,
    ) -> Result<Established, OpenError> {
        let paths =
            find_paths(env.topo, env.segments, self.src_as, dst_as, self.cfg.max_path_attempts);
        if paths.is_empty() {
            return Err(OpenError::NoPath);
        }
        let mut last_err = None;
        for path in paths {
            // Ensure SegRs over the path's segments.
            let mut segr_keys = Vec::with_capacity(path.segments.len());
            let mut ok = true;
            for seg in &path.segments {
                match self.ensure_segr(env, seg, clock, ch, policy) {
                    Ok(k) => segr_keys.push(k),
                    Err(e) => {
                        last_err = Some(e);
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            match setup_eer_with(env.reg, &path, &segr_keys, hosts, demand, clock, ch, policy) {
                Ok((grant, _stats)) => {
                    return Ok(Established { key: grant.key, exp: grant.exp, path, segr_keys });
                }
                Err(e) => last_err = Some(e), // try the next path
            }
        }
        Err(OpenError::AllPathsRefused(last_err.expect("at least one attempt")))
    }

    /// Installs `key`'s newest owned version in the gateway.
    fn install(&self, env: &mut Env<'_>, key: ReservationKey, now: Instant) {
        let owned = env
            .reg
            .get(self.src_as)
            .unwrap()
            .store()
            .owned_eer(key)
            .expect("owned after setup")
            .clone();
        env.gateway.install(&owned, now);
    }

    /// Opens a flow towards `dst_host` in `dst_as`, requesting `demand`.
    /// `expected_bytes` drives the reserved-vs-best-effort decision.
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        &mut self,
        env: &mut Env<'_>,
        dst_as: IsdAsId,
        src_host: HostAddr,
        dst_host: HostAddr,
        demand: Bandwidth,
        expected_bytes: u64,
        now: Instant,
    ) -> Result<FlowId, OpenError> {
        let clock = Clock::starting_at(now);
        self.open_with(
            env,
            dst_as,
            src_host,
            dst_host,
            demand,
            expected_bytes,
            &clock,
            &mut PerfectChannel,
            &RetryPolicy::default(),
        )
    }

    /// [`FlowManager::open`] over an explicit control channel (lossy
    /// deployments / the simulator's fault plan).
    #[allow(clippy::too_many_arguments)]
    pub fn open_with(
        &mut self,
        env: &mut Env<'_>,
        dst_as: IsdAsId,
        src_host: HostAddr,
        dst_host: HostAddr,
        demand: Bandwidth,
        expected_bytes: u64,
        clock: &Clock,
        ch: &mut dyn ControlChannel,
        policy: &RetryPolicy,
    ) -> Result<FlowId, OpenError> {
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let hosts = EerInfo { src_host, dst_host };
        if expected_bytes < self.cfg.min_reserved_flow_bytes {
            self.flows.insert(
                id,
                Flow {
                    dst_as,
                    hosts,
                    demand: Bandwidth::ZERO,
                    kind: FlowKind::BestEffort,
                    path: None,
                    segr_keys: Vec::new(),
                    eer_exp: Instant::EPOCH,
                    renewals: 0,
                    failovers: 0,
                    defer_renewal_until: Instant::EPOCH,
                },
            );
            return Ok(id);
        }
        let est = self.try_establish(env, dst_as, hosts, demand, clock, ch, policy)?;
        self.install(env, est.key, clock.now());
        self.flows.insert(
            id,
            Flow {
                dst_as,
                hosts,
                demand,
                kind: FlowKind::Reserved(est.key),
                path: Some(est.path),
                segr_keys: est.segr_keys,
                eer_exp: est.exp,
                renewals: 0,
                failovers: 0,
                defer_renewal_until: Instant::EPOCH,
            },
        );
        Ok(id)
    }

    /// Periodic maintenance: renews EERs and SegRs nearing expiry. Returns
    /// the number of renewals performed. Call at least once per
    /// `eer_renew_ahead`.
    pub fn tick(&mut self, env: &mut Env<'_>, now: Instant) -> usize {
        let clock = Clock::starting_at(now);
        self.tick_with(env, &clock, &mut PerfectChannel, &RetryPolicy::default()).renewals
    }

    /// [`FlowManager::tick`] over an explicit control channel, with the
    /// full failure-handling ladder:
    ///
    /// 1. renew SegRs and EERs nearing expiry (retried under `policy`);
    /// 2. a reserved flow whose EER has *lapsed* (renewals kept failing
    ///    until expiry) fails over to any other admissible path — the old
    ///    gateway entry is removed, the new one installed;
    /// 3. if no path admits it, the flow degrades to best-effort;
    /// 4. degraded flows retry establishment each tick and return to
    ///    reserved service once capacity is back.
    pub fn tick_with(
        &mut self,
        env: &mut Env<'_>,
        clock: &Clock,
        ch: &mut dyn ControlChannel,
        policy: &RetryPolicy,
    ) -> TickReport {
        let mut report = TickReport::default();
        // SegRs first, so EER renewals land on fresh segments. Sorted for
        // deterministic replay (the channel RNG is consumed in order).
        let mut segr_keys: Vec<ReservationKey> = self.segr_cache.values().copied().collect();
        segr_keys.sort_unstable();
        for key in segr_keys {
            let Some((exp, bw)) = env
                .reg
                .get(key.src_as)
                .and_then(|c| c.store().owned_segr(key))
                .map(|o| (o.exp, o.bw))
            else {
                continue;
            };
            if clock.now() + self.cfg.segr_renew_ahead >= exp {
                if let Ok((grant, _)) =
                    renew_segr_with(env.reg, key, bw, Bandwidth::from_mbps(1), clock, ch, policy)
                {
                    if activate_segr_with(env.reg, key, grant.ver, clock, ch, policy).is_ok() {
                        report.renewals += 1;
                    }
                }
            }
        }
        let mut ids: Vec<FlowId> = self.flows.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let flow = &self.flows[&id];
            let (kind, dst_as, hosts, demand, eer_exp, defer_until) = (
                flow.kind.clone(),
                flow.dst_as,
                flow.hosts,
                flow.demand,
                flow.eer_exp,
                flow.defer_renewal_until,
            );
            match kind {
                FlowKind::BestEffort => {}
                FlowKind::Reserved(key) => {
                    let hedge_window = self.cfg.eer_renew_ahead + self.cfg.eer_renew_hedge;
                    if clock.now() + hedge_window < eer_exp {
                        continue;
                    }
                    // An overloaded CServ told us when to come back; honor
                    // it unless the reservation is about to lapse anyway.
                    if clock.now() < defer_until && clock.now() < eer_exp {
                        report.busy_deferred += 1;
                        continue;
                    }
                    match renew_eer_with(env.reg, key, demand, clock, ch, policy) {
                        Ok((grant, _)) => {
                            self.install(env, key, clock.now());
                            let f = self.flows.get_mut(&id).unwrap();
                            f.eer_exp = grant.exp;
                            f.renewals += 1;
                            f.defer_renewal_until = Instant::EPOCH;
                            report.renewals += 1;
                        }
                        Err(e) if busy_retry_after(&e).is_some() && clock.now() < eer_exp => {
                            // Back off exactly as asked, but never past the
                            // point where the ordinary renew-ahead window
                            // would be our last chance before expiry.
                            let retry_after = busy_retry_after(&e).expect("guard checked");
                            let last_chance = Instant::from_nanos(
                                eer_exp.as_nanos().saturating_sub(self.cfg.eer_renew_ahead.as_nanos()),
                            );
                            let f = self.flows.get_mut(&id).unwrap();
                            f.defer_renewal_until =
                                clock.now().saturating_add(retry_after).min(last_chance);
                            report.busy_deferred += 1;
                        }
                        Err(_) if clock.now() >= eer_exp => {
                            // The reservation lapsed. The gateway must stop
                            // stamping with a dead reservation either way.
                            env.gateway.remove(key.res_id);
                            match self
                                .try_establish(env, dst_as, hosts, demand, clock, ch, policy)
                            {
                                Ok(est) => {
                                    self.install(env, est.key, clock.now());
                                    let f = self.flows.get_mut(&id).unwrap();
                                    f.kind = FlowKind::Reserved(est.key);
                                    f.path = Some(est.path);
                                    f.segr_keys = est.segr_keys;
                                    f.eer_exp = est.exp;
                                    f.failovers += 1;
                                    report.failovers += 1;
                                }
                                Err(_) => {
                                    let f = self.flows.get_mut(&id).unwrap();
                                    f.kind = FlowKind::Degraded;
                                    f.path = None;
                                    f.segr_keys.clear();
                                    f.eer_exp = Instant::EPOCH;
                                    report.degradations += 1;
                                }
                            }
                        }
                        Err(_) => {
                            // Renewal refused (e.g. SegR contention): the flow
                            // keeps its current version until expiry; the next
                            // tick retries.
                        }
                    }
                }
                FlowKind::Degraded => {
                    // Capacity may have returned: try to get the
                    // reservation back.
                    if let Ok(est) =
                        self.try_establish(env, dst_as, hosts, demand, clock, ch, policy)
                    {
                        self.install(env, est.key, clock.now());
                        let f = self.flows.get_mut(&id).unwrap();
                        f.kind = FlowKind::Reserved(est.key);
                        f.path = Some(est.path);
                        f.segr_keys = est.segr_keys;
                        f.eer_exp = est.exp;
                        report.reestablished += 1;
                    }
                }
            }
        }
        report
    }

    /// Sends one payload on a reserved flow through the gateway, into a
    /// freshly allocated packet.
    pub fn send(
        &self,
        gateway: &mut Gateway,
        id: FlowId,
        payload: &[u8],
        now: Instant,
    ) -> Result<StampedPacket, SendError> {
        let flow = self.flows.get(&id).ok_or(SendError::UnknownFlow)?;
        match flow.kind {
            FlowKind::Reserved(key) => {
                let mut bytes = Vec::new();
                gateway
                    .process_into(flow.hosts.src_host, key.res_id, payload, now, &mut bytes)
                    .map(|first_egress| StampedPacket { bytes, first_egress })
                    .map_err(SendError::Gateway)
            }
            FlowKind::BestEffort | FlowKind::Degraded => Err(SendError::BestEffortFlow),
        }
    }

    /// Closes a flow (reservations expire on their own; the gateway entry
    /// is removed immediately).
    pub fn close(&mut self, gateway: &mut Gateway, id: FlowId) {
        if let Some(flow) = self.flows.remove(&id) {
            if let FlowKind::Reserved(key) = flow.kind {
                gateway.remove(key.res_id);
            }
        }
    }
}

impl std::fmt::Debug for FlowManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowManager")
            .field("src_as", &self.src_as)
            .field("flows", &self.flows.len())
            .finish()
    }
}

/// The `retry_after` hint when a setup error is an overload shed
/// (`Busy`) verdict from some on-path CServ.
fn busy_retry_after(err: &SetupError) -> Option<Duration> {
    match err {
        SetupError::Refused { reason: CservError::Busy { retry_after }, .. } => Some(*retry_after),
        _ => None,
    }
}

/// Errors sending on a flow.
#[derive(Debug)]
pub enum SendError {
    /// No such flow.
    UnknownFlow,
    /// The flow is best-effort (by size or by degradation); send it
    /// through the normal stack instead.
    BestEffortFlow,
    /// The gateway refused the packet.
    Gateway(GatewayError),
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::UnknownFlow => write!(f, "unknown flow"),
            SendError::BestEffortFlow => write!(f, "flow is carried best-effort"),
            SendError::Gateway(e) => write!(f, "gateway: {e}"),
        }
    }
}

impl std::error::Error for SendError {}

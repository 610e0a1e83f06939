//! Multi-AS reservation setup orchestration (paper §3.3, Fig. 1a/1b).
//!
//! These functions drive the forward/backward passes of SegR and EER
//! setup across the CServs of all on-path ASes. They operate on an
//! in-process [`CservRegistry`]; the network simulator reuses the same
//! handlers but moves the messages over simulated links. Either way the
//! per-AS processing — admission, token computation, authentication — is
//! identical, which is what the control-plane evaluation (Figs. 3–4)
//! measures.
//!
//! Control-plane authentication follows §4.5: the initiator attaches, for
//! every on-path ASᵢ, `MAC_{K_{ASᵢ→Src}}(payload)`; each ASᵢ re-derives
//! the key from its secret value and verifies before doing any work, so
//! bogus requests are rejected at symmetric-crypto speed (§5.3).

use crate::cserv::{CServ, CservConfig, CservError};
use crate::messages::{EerSetupReq, SegSetupReq};
use crate::policy::AllowAll;
use crate::reliable::{
    reliable_exchange, splitmix64, ControlChannel, PerfectChannel, RetryPolicy, RetryStats,
};
use crate::store::OwnedSegr;
use colibri_base::{Bandwidth, BwClass, Clock, Instant, IsdAsId, ReservationKey};
use colibri_crypto::{ct_eq, Epoch, Key};
use colibri_topology::{FullPath, Segment, Topology};
use colibri_wire::mac::control_payload_mac;
use colibri_wire::{EerInfo, ResInfo};
use std::collections::HashMap;

/// All CServs of a deployment, keyed by AS.
#[derive(Debug, Default)]
pub struct CservRegistry {
    map: HashMap<IsdAsId, CServ>,
}

impl CservRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a CServ. Panics on duplicates.
    pub fn insert(&mut self, cserv: CServ) {
        let id = cserv.isd_as;
        assert!(self.map.insert(id, cserv).is_none(), "duplicate CServ for {id}");
    }

    /// Immutable lookup.
    pub fn get(&self, id: IsdAsId) -> Option<&CServ> {
        self.map.get(&id)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, id: IsdAsId) -> Option<&mut CServ> {
        self.map.get_mut(&id)
    }

    /// Number of ASes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The AS identifiers of all registered CServs, in sorted order (so
    /// iteration — e.g. a post-run aggregate audit — is deterministic).
    pub fn ids(&self) -> Vec<IsdAsId> {
        let mut ids: Vec<_> = self.map.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Creates one CServ per AS of `topo`, with deterministic per-AS master
    /// secrets, interface capacities taken from the topology, and an
    /// allow-all EER policy (override per AS afterwards if needed).
    pub fn provision(topo: &Topology, cfg: CservConfig) -> Self {
        let mut reg = Self::new();
        for id in topo.as_ids() {
            let secret = master_secret_for(id);
            let mut cserv = CServ::new(id, &secret, cfg, Box::new(AllowAll));
            let node = topo.node(id).unwrap();
            for (&iface, info) in &node.interfaces {
                cserv.set_interface_capacity(iface, info.capacity);
            }
            reg.insert(cserv);
        }
        reg
    }
}

/// The deterministic per-AS master secret used by
/// [`CservRegistry::provision`]. Border routers of the same AS must be
/// constructed with the same secret so that they derive the same per-epoch
/// secret value `K_i` as their CServ.
pub fn master_secret_for(id: IsdAsId) -> [u8; 16] {
    let mut secret = [0u8; 16];
    secret[..8].copy_from_slice(&id.to_u64().to_be_bytes());
    secret[8..].copy_from_slice(b"cl-mstr!");
    secret
}

/// Errors from setup orchestration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetupError {
    /// An on-path AS has no CServ in the registry.
    UnknownAs(IsdAsId),
    /// An AS refused the request.
    Refused {
        /// Hop index of the refusing AS.
        failed_at: usize,
        /// Its reason.
        reason: CservError,
    },
    /// Payload authentication failed at a hop (forged or tampered request).
    BadAuth {
        /// Hop index where verification failed.
        at: usize,
    },
    /// The initiator does not own the referenced reservation.
    NotOwned(ReservationKey),
    /// A hop could not be reached within the retry budget (losses,
    /// timeouts, or a crashed CServ). Any partial state was rolled back.
    Unreachable {
        /// Hop index that never answered.
        at: usize,
    },
}

impl std::fmt::Display for SetupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SetupError::UnknownAs(a) => write!(f, "no CServ for AS {a}"),
            SetupError::Refused { failed_at, reason } => {
                write!(f, "refused at hop {failed_at}: {reason}")
            }
            SetupError::BadAuth { at } => write!(f, "authentication failed at hop {at}"),
            SetupError::NotOwned(k) => write!(f, "reservation {k} not owned by initiator"),
            SetupError::Unreachable { at } => {
                write!(f, "hop {at} unreachable within the retry budget")
            }
        }
    }
}

impl std::error::Error for SetupError {}

/// Computes the per-hop control MACs the initiator attaches (Eq. in §4.5).
/// In the real system the initiator has these keys cached from its key
/// server; here they are derived from each AS's generator directly, which
/// is byte-identical.
fn authenticate_payload(
    reg: &CservRegistry,
    path_ases: &[IsdAsId],
    src: IsdAsId,
    payload: &[u8],
    epoch: Epoch,
) -> Result<Vec<[u8; 16]>, SetupError> {
    path_ases
        .iter()
        .map(|a| {
            let cserv = reg.get(*a).ok_or(SetupError::UnknownAs(*a))?;
            let k: Key = cserv.drkey_out(epoch, src);
            Ok(control_payload_mac(&k, payload))
        })
        .collect()
}

/// Verifies the initiator's MAC at hop `i` the way the AS itself would:
/// derive `K_{me→Src}` and recompute.
fn verify_at_hop(
    cserv: &CServ,
    src: IsdAsId,
    payload: &[u8],
    mac: &[u8; 16],
    epoch: Epoch,
) -> bool {
    let k = cserv.drkey_out(epoch, src);
    ct_eq(&control_payload_mac(&k, payload), mac)
}

/// The outcome of a successful SegR setup or renewal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegrGrant {
    /// The reservation key.
    pub key: ReservationKey,
    /// The version that was set up.
    pub ver: u8,
    /// The final (minimum over all ASes) bandwidth.
    pub bw: Bandwidth,
    /// Its expiration time.
    pub exp: Instant,
}

/// Sets up a new SegR over `segment`, initiated by the segment's first AS
/// (paper §3.3: "SegRs are always initiated by the first AS on the
/// segment"). Returns the grant; the initiator's CServ stores the owned
/// reservation with all tokens.
pub fn setup_segr(
    reg: &mut CservRegistry,
    segment: &Segment,
    demand: Bandwidth,
    min_bw: Bandwidth,
    now: Instant,
) -> Result<SegrGrant, SetupError> {
    let clock = Clock::starting_at(now);
    setup_segr_with(
        reg,
        segment,
        demand,
        min_bw,
        Instant::EPOCH,
        &clock,
        &mut PerfectChannel,
        &RetryPolicy::default(),
    )
    .map(|(g, _)| g)
}

/// Books an *advance reservation*: a new SegR admitted now against the
/// future validity window `[starts_at, starts_at + lifetime)`. No
/// bandwidth is consumed before the start tick — the reservation competes
/// only with reservations overlapping its window — and the EER/data
/// handlers refuse it until `starts_at` arrives. The initiator can
/// release the booking exactly with [`teardown_segr`] before it starts.
pub fn setup_segr_at(
    reg: &mut CservRegistry,
    segment: &Segment,
    demand: Bandwidth,
    min_bw: Bandwidth,
    starts_at: Instant,
    now: Instant,
) -> Result<SegrGrant, SetupError> {
    let clock = Clock::starting_at(now);
    setup_segr_with(
        reg,
        segment,
        demand,
        min_bw,
        starts_at,
        &clock,
        &mut PerfectChannel,
        &RetryPolicy::default(),
    )
    .map(|(g, _)| g)
}

/// Channel-aware [`setup_segr`]: every hop exchange travels over `ch`
/// under `policy`, with `clock` advancing across latencies and backoffs.
/// `starts_at` books an advance reservation (`Instant::EPOCH` =
/// immediate).
#[allow(clippy::too_many_arguments)]
pub(crate) fn setup_segr_with(
    reg: &mut CservRegistry,
    segment: &Segment,
    demand: Bandwidth,
    min_bw: Bandwidth,
    starts_at: Instant,
    clock: &Clock,
    ch: &mut dyn ControlChannel,
    policy: &RetryPolicy,
) -> Result<(SegrGrant, RetryStats), SetupError> {
    let initiator = segment.first_as();
    let res_id = reg
        .get_mut(initiator)
        .ok_or(SetupError::UnknownAs(initiator))?
        .alloc_res_id();
    let lifetime = reg.get(initiator).unwrap().config().segr_lifetime;
    // An advance reservation's lifetime runs from its start tick, not
    // from the booking time.
    let from = if starts_at > clock.now() { starts_at } else { clock.now() };
    let res_info = ResInfo {
        src_as: initiator,
        res_id,
        bw: BwClass::from_bandwidth_ceil(demand),
        exp_t: from + lifetime,
        ver: 0,
    };
    run_segr_pass(reg, segment, res_info, demand, min_bw, starts_at, clock, ch, policy)
}

/// Renews an existing SegR (new version, possibly different bandwidth).
/// The new version remains *pending* at all on-path ASes until
/// [`activate_segr`] is called (§4.2).
pub fn renew_segr(
    reg: &mut CservRegistry,
    key: ReservationKey,
    demand: Bandwidth,
    min_bw: Bandwidth,
    now: Instant,
) -> Result<SegrGrant, SetupError> {
    let clock = Clock::starting_at(now);
    renew_segr_with(reg, key, demand, min_bw, &clock, &mut PerfectChannel, &RetryPolicy::default())
        .map(|(g, _)| g)
}

/// Channel-aware [`renew_segr`].
pub(crate) fn renew_segr_with(
    reg: &mut CservRegistry,
    key: ReservationKey,
    demand: Bandwidth,
    min_bw: Bandwidth,
    clock: &Clock,
    ch: &mut dyn ControlChannel,
    policy: &RetryPolicy,
) -> Result<(SegrGrant, RetryStats), SetupError> {
    let initiator = key.src_as;
    let (segment, old_ver) = {
        let cserv = reg.get(initiator).ok_or(SetupError::UnknownAs(initiator))?;
        let owned = cserv.store().owned_segr(key).ok_or(SetupError::NotOwned(key))?;
        (owned.segment.clone(), owned.ver)
    };
    let lifetime = reg.get(initiator).unwrap().config().segr_lifetime;
    let res_info = ResInfo {
        src_as: initiator,
        res_id: key.res_id,
        bw: BwClass::from_bandwidth_ceil(demand),
        exp_t: clock.now() + lifetime,
        ver: old_ver.wrapping_add(1),
    };
    run_segr_pass(reg, &segment, res_info, demand, min_bw, Instant::EPOCH, clock, ch, policy)
}

#[allow(clippy::too_many_arguments)]
fn run_segr_pass(
    reg: &mut CservRegistry,
    segment: &Segment,
    res_info: ResInfo,
    demand: Bandwidth,
    min_bw: Bandwidth,
    starts_at: Instant,
    clock: &Clock,
    ch: &mut dyn ControlChannel,
    policy: &RetryPolicy,
) -> Result<(SegrGrant, RetryStats), SetupError> {
    let initiator = segment.first_as();
    let request_id =
        reg.get_mut(initiator).ok_or(SetupError::UnknownAs(initiator))?.alloc_request_id();
    // The operation deadline, propagated in the request so overloaded
    // on-path CServs can shed early, and enforced by every exchange.
    let deadline = policy.deadline_from(clock.now());
    let path: Vec<_> = segment.hops.iter().map(|h| (h.isd_as, h.hop_field())).collect();
    let req = SegSetupReq {
        request_id,
        deadline,
        starts_at,
        res_info,
        demand,
        min_bw,
        path: path.clone(),
        grants: Vec::new(),
    };
    let payload = crate::messages::CtrlMsg::SegSetup(req.clone()).encode();
    let epoch = Epoch::containing(clock.now());
    let path_ases: Vec<_> = path.iter().map(|(a, _)| *a).collect();
    let macs = authenticate_payload(reg, &path_ases, initiator, &payload, epoch)?;
    let mut stats = RetryStats::default();

    enum HopVerdict {
        BadAuth,
        Refused(CservError),
        Granted(Bandwidth),
    }

    // Forward pass (Fig. 1a ➊–➋). `admitted` counts hops whose admission
    // this pass may have reached (delivered or not — a lost response still
    // admitted on the far side), so rollback covers exactly the hops that
    // could hold state.
    let mut running = demand;
    let mut admitted = 0usize;
    for (i, (as_id, _)) in path.iter().enumerate() {
        if reg.get(*as_id).is_none() {
            rollback_segr(reg, ch, policy, clock, &path, admitted, &req, &mut stats);
            return Err(SetupError::UnknownAs(*as_id));
        }
        let from = if i == 0 { initiator } else { path[i - 1].0 };
        let run = running;
        let salt = splitmix64(request_id ^ ((i as u64) << 32));
        let verdict =
            reliable_exchange(ch, policy, clock, from, *as_id, salt, deadline, &mut stats, |now| {
                let cserv = reg.get_mut(*as_id).unwrap();
                if !verify_at_hop(cserv, initiator, &payload, &macs[i], epoch) {
                    return HopVerdict::BadAuth;
                }
                match cserv.segr_admit_hop(&req, i, run, now) {
                    Ok((granted, _undo)) => HopVerdict::Granted(granted),
                    Err(reason) => HopVerdict::Refused(reason),
                }
            });
        // Even an unanswered hop may hold an admission (request delivered,
        // response lost) — include it in the rollback set.
        admitted = i + 1;
        match verdict {
            None => {
                rollback_segr(reg, ch, policy, clock, &path, admitted, &req, &mut stats);
                return Err(SetupError::Unreachable { at: i });
            }
            Some(HopVerdict::BadAuth) => {
                rollback_segr(reg, ch, policy, clock, &path, admitted, &req, &mut stats);
                return Err(SetupError::BadAuth { at: i });
            }
            Some(HopVerdict::Refused(reason)) => {
                rollback_segr(reg, ch, policy, clock, &path, admitted, &req, &mut stats);
                return Err(SetupError::Refused { failed_at: i, reason });
            }
            Some(HopVerdict::Granted(g)) => running = running.min(g),
        }
    }

    // Backward pass (Fig. 1a ➌–➍): agree on the final bandwidth and
    // collect tokens. Finalization is idempotent, so retries are safe.
    let final_bw = running;
    let final_res_info =
        ResInfo { bw: BwClass::from_bandwidth_ceil(final_bw), ..res_info };
    let n = path.len();
    let mut tokens = vec![[0u8; colibri_wire::HVF_LEN]; n];
    for i in (0..n).rev() {
        let (as_id, hop) = path[i];
        let salt = splitmix64(request_id ^ ((i as u64) << 32) ^ (1 << 63));
        let tok =
            reliable_exchange(ch, policy, clock, initiator, as_id, salt, deadline, &mut stats, |now| {
                reg.get_mut(as_id)
                    .unwrap()
                    .segr_finalize_hop(&final_res_info, hop, i, n, final_bw, starts_at, now)
            });
        match tok {
            Some(t) => tokens[i] = t,
            None => {
                rollback_segr(reg, ch, policy, clock, &path, n, &req, &mut stats);
                return Err(SetupError::Unreachable { at: i });
            }
        }
    }

    // Initiator records ownership. The initial version is active
    // immediately; a renewal stays pending until explicit activation.
    let key = final_res_info.key();
    let cserv = reg.get_mut(initiator).unwrap();
    if final_res_info.ver > 0 {
        if let Some(owned) = cserv.store_mut().owned_segr_mut(key) {
            owned.pending = Some(crate::store::PendingOwned {
                ver: final_res_info.ver,
                bw: final_bw,
                exp: final_res_info.exp_t,
                tokens,
            });
        }
        return Ok((
            SegrGrant {
                key,
                ver: final_res_info.ver,
                bw: final_bw,
                exp: final_res_info.exp_t,
            },
            stats,
        ));
    }
    cserv.segr_store_owned(OwnedSegr {
        key,
        segment: segment.clone(),
        ver: 0,
        bw: final_bw,
        exp: final_res_info.exp_t,
        tokens,
        pending: None,
    });
    for (as_id, _) in &path {
        reg.get_mut(*as_id).unwrap().segr_activate(key, 0).ok();
    }
    Ok((SegrGrant { key, ver: 0, bw: final_bw, exp: final_res_info.exp_t }, stats))
}

/// Tears down a (partially) admitted SegR setup hop by hop, with
/// retries. Each target reverts only what it actually recorded (the
/// abort is keyed by request id), so aborting a hop whose request never
/// arrived, or aborting twice, changes nothing.
#[allow(clippy::too_many_arguments)]
fn rollback_segr(
    reg: &mut CservRegistry,
    ch: &mut dyn ControlChannel,
    policy: &RetryPolicy,
    clock: &Clock,
    path: &[(IsdAsId, colibri_wire::HopField)],
    admitted: usize,
    req: &SegSetupReq,
    stats: &mut RetryStats,
) {
    let src = req.res_info.src_as;
    for i in (0..admitted).rev() {
        let (as_id, _) = path[i];
        if reg.get(as_id).is_none() {
            continue;
        }
        let salt = splitmix64(req.request_id ^ ((i as u64) << 32) ^ (0xAB << 48));
        // Cleanup must run regardless of the initiator's deadline: an
        // abandoned setup that also skipped its aborts would leak until
        // the expiry-GC backstop.
        let done = reliable_exchange(ch, policy, clock, src, as_id, salt, Instant::MAX, stats, |now| {
            reg.get_mut(as_id).unwrap().segr_abort_request(src, req.request_id, i, now);
        });
        if done.is_none() {
            stats.undelivered_aborts += 1;
            crate::telemetry::record_undelivered_abort();
        }
    }
}

/// Activates a pending SegR version at every on-path AS and updates the
/// initiator's owned record. "Making this switch explicit allows ASes to
/// precisely control the time to change to a new version" (§4.2).
pub fn activate_segr(
    reg: &mut CservRegistry,
    key: ReservationKey,
    ver: u8,
    now: Instant,
) -> Result<(), SetupError> {
    let clock = Clock::starting_at(now);
    activate_segr_with(reg, key, ver, &clock, &mut PerfectChannel, &RetryPolicy::default())
        .map(|_| ())
}

/// Tears down an owned SegR at every on-path AS, releasing its admission
/// contribution and stored record. The primary use is abandoning an
/// advance reservation before its start tick: the booked future-window
/// bandwidth is returned exactly, so per-interface aggregates match
/// their pre-booking values. Also valid on an active reservation (early
/// release instead of waiting for expiry).
pub fn teardown_segr(reg: &mut CservRegistry, key: ReservationKey) -> Result<(), SetupError> {
    let initiator = key.src_as;
    let segment = {
        let cserv = reg.get(initiator).ok_or(SetupError::UnknownAs(initiator))?;
        cserv.store().owned_segr(key).ok_or(SetupError::NotOwned(key))?.segment.clone()
    };
    for hop in &segment.hops {
        reg.get_mut(hop.isd_as)
            .ok_or(SetupError::UnknownAs(hop.isd_as))?
            .segr_teardown(key);
    }
    reg.get_mut(initiator).unwrap().store_mut().remove_owned_segr(key);
    Ok(())
}

/// Channel-aware [`activate_segr`]. A retried activation that already
/// took effect at a hop (response lost) is recognized by the hop's
/// current active version and treated as success.
pub(crate) fn activate_segr_with(
    reg: &mut CservRegistry,
    key: ReservationKey,
    ver: u8,
    clock: &Clock,
    ch: &mut dyn ControlChannel,
    policy: &RetryPolicy,
) -> Result<RetryStats, SetupError> {
    let initiator = key.src_as;
    let segment = {
        let cserv = reg.get(initiator).ok_or(SetupError::UnknownAs(initiator))?;
        cserv.store().owned_segr(key).ok_or(SetupError::NotOwned(key))?.segment.clone()
    };
    let mut stats = RetryStats::default();
    let deadline = policy.deadline_from(clock.now());
    for (i, hop) in segment.hops.iter().enumerate() {
        if reg.get(hop.isd_as).is_none() {
            return Err(SetupError::UnknownAs(hop.isd_as));
        }
        let salt = splitmix64(key.res_id.0 as u64 ^ ((i as u64) << 32) ^ ((ver as u64) << 24));
        let out = reliable_exchange(
            ch,
            policy,
            clock,
            initiator,
            hop.isd_as,
            salt,
            deadline,
            &mut stats,
            |_now| {
                let cserv = reg.get_mut(hop.isd_as).unwrap();
                match cserv.segr_activate(key, ver) {
                    Ok(()) => Ok(()),
                    // Duplicate delivery: the version is already active.
                    Err(CservError::NoSuchPendingVersion)
                        if cserv.store().segr(key).is_some_and(|r| r.ver == ver) =>
                    {
                        Ok(())
                    }
                    Err(reason) => Err(reason),
                }
            },
        );
        match out {
            None => return Err(SetupError::Unreachable { at: i }),
            Some(Err(reason)) => return Err(SetupError::Refused { failed_at: i, reason }),
            Some(Ok(())) => {}
        }
    }
    // Promote the initiator's pending owned version (tokens included).
    let cserv = reg.get_mut(initiator).unwrap();
    let owned = cserv.store_mut().owned_segr_mut(key).unwrap();
    if !owned.activate(ver) && owned.ver != ver {
        return Err(SetupError::Refused {
            failed_at: 0,
            reason: CservError::NoSuchPendingVersion,
        });
    }
    Ok(stats)
}

/// The outcome of a successful EER setup or renewal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EerGrant {
    /// The reservation key.
    pub key: ReservationKey,
    /// The version set up.
    pub ver: u8,
    /// The granted bandwidth.
    pub bw: Bandwidth,
    /// Its expiration.
    pub exp: Instant,
}

/// Sets up an EER for `eer_info` over `path`, riding on the SegRs
/// `segr_ids` (1–3, in path order). The source AS's CServ ends up owning
/// the EER with all hop authenticators, ready for its gateway.
pub fn setup_eer(
    reg: &mut CservRegistry,
    path: &FullPath,
    segr_ids: &[ReservationKey],
    eer_info: EerInfo,
    demand: Bandwidth,
    now: Instant,
) -> Result<EerGrant, SetupError> {
    let clock = Clock::starting_at(now);
    setup_eer_with(
        reg,
        path,
        segr_ids,
        eer_info,
        demand,
        &clock,
        &mut PerfectChannel,
        &RetryPolicy::default(),
    )
    .map(|(g, _)| g)
}

/// Channel-aware [`setup_eer`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn setup_eer_with(
    reg: &mut CservRegistry,
    path: &FullPath,
    segr_ids: &[ReservationKey],
    eer_info: EerInfo,
    demand: Bandwidth,
    clock: &Clock,
    ch: &mut dyn ControlChannel,
    policy: &RetryPolicy,
) -> Result<(EerGrant, RetryStats), SetupError> {
    let src = path.src_as();
    let res_id = reg.get_mut(src).ok_or(SetupError::UnknownAs(src))?.alloc_res_id();
    let lifetime = reg.get(src).unwrap().config().eer_lifetime;
    let res_info = ResInfo {
        src_as: src,
        res_id,
        bw: BwClass::from_bandwidth_ceil(demand),
        exp_t: clock.now() + lifetime,
        ver: 0,
    };
    run_eer_pass(reg, path, segr_ids, res_info, eer_info, demand, clock, ch, policy)
}

/// Renews an EER: sets up version `ver + 1` with possibly different
/// bandwidth. Old versions stay valid until expiry; both map to the same
/// monitored flow.
pub fn renew_eer(
    reg: &mut CservRegistry,
    key: ReservationKey,
    demand: Bandwidth,
    now: Instant,
) -> Result<EerGrant, SetupError> {
    let clock = Clock::starting_at(now);
    renew_eer_with(reg, key, demand, &clock, &mut PerfectChannel, &RetryPolicy::default())
        .map(|(g, _)| g)
}

/// Channel-aware [`renew_eer`].
pub(crate) fn renew_eer_with(
    reg: &mut CservRegistry,
    key: ReservationKey,
    demand: Bandwidth,
    clock: &Clock,
    ch: &mut dyn ControlChannel,
    policy: &RetryPolicy,
) -> Result<(EerGrant, RetryStats), SetupError> {
    let src = key.src_as;
    let (path, eer_info, last_ver, segr_ids) = {
        let cserv = reg.get(src).ok_or(SetupError::UnknownAs(src))?;
        let eer = cserv.store().owned_eer(key).ok_or(SetupError::NotOwned(key))?;
        let last_ver = eer.versions.iter().map(|v| v.ver).max().unwrap_or(0);
        (
            eer.path_ases
                .iter()
                .zip(&eer.hop_fields)
                .map(|(a, h)| (*a, *h))
                .collect::<Vec<_>>(),
            eer.eer_info,
            last_ver,
            Vec::<ReservationKey>::new(), // filled below from the stored request
        )
    };
    // Renewals reuse the original underlying SegRs. The owned record does
    // not persist them, so recover from the source's EER-request bookkeeping
    // — kept in the renewal map.
    let _ = segr_ids;
    let segr_ids = {
        let cserv = reg.get(src).unwrap();
        cserv
            .store()
            .eer_segrs(key)
            .ok_or(SetupError::NotOwned(key))?
            .to_vec()
    };
    let lifetime = reg.get(src).unwrap().config().eer_lifetime;
    let res_info = ResInfo {
        src_as: src,
        res_id: key.res_id,
        bw: BwClass::from_bandwidth_ceil(demand),
        exp_t: clock.now() + lifetime,
        ver: last_ver.wrapping_add(1),
    };
    let full = rebuild_full_path(&path);
    run_eer_pass(reg, &full, &segr_ids, res_info, eer_info, demand, clock, ch, policy)
}

/// Rebuilds a minimal `FullPath` view from stored hops (junctions are
/// recovered from the hop pattern: a junction is any interior hop — the
/// admission side recomputes coverage from the request's junction list, so
/// only hops and AS order matter here).
fn rebuild_full_path(path: &[(IsdAsId, colibri_wire::HopField)]) -> FullPath {
    FullPath {
        hops: path
            .iter()
            .map(|(a, h)| colibri_topology::PathHop { isd_as: *a, field: *h })
            .collect(),
        junctions: Vec::new(),
        segments: Vec::new(),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_eer_pass(
    reg: &mut CservRegistry,
    path: &FullPath,
    segr_ids: &[ReservationKey],
    res_info: ResInfo,
    eer_info: EerInfo,
    demand: Bandwidth,
    clock: &Clock,
    ch: &mut dyn ControlChannel,
    policy: &RetryPolicy,
) -> Result<(EerGrant, RetryStats), SetupError> {
    let src = res_info.src_as;
    let hops: Vec<_> = path.hops.iter().map(|h| (h.isd_as, h.field)).collect();
    // Junctions: prefer the stitched path's own list; renewals rebuild it
    // from the original request stored at the source.
    let junctions: Vec<u8> = if !path.junctions.is_empty() || segr_ids.len() == 1 {
        path.junctions.iter().map(|&j| j as u8).collect()
    } else {
        reg.get(src)
            .and_then(|c| c.store().eer_junctions(res_info.key()))
            .map(|j| j.to_vec())
            .unwrap_or_default()
    };
    let request_id = reg.get_mut(src).ok_or(SetupError::UnknownAs(src))?.alloc_request_id();
    let deadline = policy.deadline_from(clock.now());
    let req = EerSetupReq {
        request_id,
        deadline,
        res_info,
        eer_info,
        demand,
        path: hops.clone(),
        junctions,
        segr_ids: segr_ids.to_vec(),
    };
    let payload = crate::messages::CtrlMsg::EerSetup(req.clone()).encode();
    let epoch = Epoch::containing(clock.now());
    let path_ases: Vec<_> = hops.iter().map(|(a, _)| *a).collect();
    let macs = authenticate_payload(reg, &path_ases, src, &payload, epoch)?;
    let mut stats = RetryStats::default();

    enum HopVerdict {
        BadAuth,
        Refused(CservError),
        Admitted,
    }

    // Forward pass (Fig. 1b ➋–➌). As with SegRs, a hop that never
    // answered may still hold an admission, so it is included in the
    // rollback set.
    let mut admitted = 0usize;
    for (i, (as_id, _)) in hops.iter().enumerate() {
        if reg.get(*as_id).is_none() {
            rollback_eer(reg, ch, policy, clock, &req, admitted, &mut stats);
            return Err(SetupError::UnknownAs(*as_id));
        }
        let from = if i == 0 { src } else { hops[i - 1].0 };
        let salt = splitmix64(req.request_id ^ ((i as u64) << 32) ^ (0xEE << 48));
        let verdict =
            reliable_exchange(ch, policy, clock, from, *as_id, salt, deadline, &mut stats, |now| {
                let cserv = reg.get_mut(*as_id).unwrap();
                if !verify_at_hop(cserv, src, &payload, &macs[i], epoch) {
                    return HopVerdict::BadAuth;
                }
                match cserv.eer_admit_hop(&req, i, now) {
                    Ok(()) => HopVerdict::Admitted,
                    Err(reason) => HopVerdict::Refused(reason),
                }
            });
        admitted = i + 1;
        match verdict {
            None => {
                rollback_eer(reg, ch, policy, clock, &req, admitted, &mut stats);
                return Err(SetupError::Unreachable { at: i });
            }
            Some(HopVerdict::BadAuth) => {
                rollback_eer(reg, ch, policy, clock, &req, admitted, &mut stats);
                return Err(SetupError::BadAuth { at: i });
            }
            Some(HopVerdict::Refused(reason)) => {
                rollback_eer(reg, ch, policy, clock, &req, admitted, &mut stats);
                return Err(SetupError::Refused { failed_at: i, reason });
            }
            Some(HopVerdict::Admitted) => {}
        }
    }

    // Backward pass (Fig. 1b ➍): collect sealed hop authenticators.
    // Finalization is deterministic per hop, so retries reseal the same
    // authenticator.
    let mut sealed = Vec::with_capacity(hops.len());
    for (i, (as_id, hop)) in hops.iter().enumerate() {
        let last = i == hops.len() - 1;
        let salt = splitmix64(req.request_id ^ ((i as u64) << 32) ^ (0xEF << 48));
        let auth =
            reliable_exchange(ch, policy, clock, src, *as_id, salt, deadline, &mut stats, |now| {
            let cserv = reg.get_mut(*as_id).unwrap();
            let s = cserv.eer_finalize_hop(&req.res_info, &req.eer_info, *hop, i, now);
            if last {
                cserv.eer_register_terminating(&req);
            }
            s
        });
        match auth {
            Some(s) => sealed.push(s),
            None => {
                rollback_eer(reg, ch, policy, clock, &req, hops.len(), &mut stats);
                return Err(SetupError::Unreachable { at: i });
            }
        }
    }

    // Source AS opens the authenticators and stores the owned EER
    // (Fig. 1b ➎). Key fetches model the cached slow side of DRKey.
    let fetched: Vec<(IsdAsId, Key)> = hops
        .iter()
        .map(|(a, _)| (*a, reg.get(*a).unwrap().drkey_out(epoch, src)))
        .collect();
    let cserv = reg.get_mut(src).unwrap();
    cserv
        .eer_store_response(&req, &sealed, |remote| {
            fetched
                .iter()
                .find(|(a, _)| *a == remote)
                .map(|(_, k)| *k)
                .expect("on-path AS key")
        })
        .map_err(|reason| SetupError::Refused { failed_at: 0, reason })?;
    cserv.store_mut().remember_eer_request(
        res_info.key(),
        segr_ids.to_vec(),
        req.junctions.clone(),
        res_info.exp_t,
    );

    Ok((EerGrant { key: res_info.key(), ver: res_info.ver, bw: demand, exp: res_info.exp_t }, stats))
}

/// Renews an EER, adapting to reduced grants: if an on-path AS can no
/// longer support the requested bandwidth, the renewal is retried at the
/// bandwidth that AS offered (§4.2: "during a renewal request all on-path
/// ASes can specify the amount of bandwidth they are willing to grant,
/// enabling ASes to quickly adapt to changes in demand without
/// interrupting service"). Returns the grant actually obtained, which may
/// be below `demand` but at least `min_bw`.
pub fn renew_eer_adaptive(
    reg: &mut CservRegistry,
    key: ReservationKey,
    demand: Bandwidth,
    min_bw: Bandwidth,
    now: Instant,
) -> Result<EerGrant, SetupError> {
    let clock = Clock::starting_at(now);
    renew_eer_adaptive_with(
        reg,
        key,
        demand,
        min_bw,
        &clock,
        &mut PerfectChannel,
        &RetryPolicy::default(),
    )
    .map(|(g, _)| g)
}

/// Channel-aware [`renew_eer_adaptive`]. Each downgrade attempt is a new
/// logical request (fresh request id, possibly different demand), which
/// is exactly why request ids — not `(key, version)` — key the replay
/// caches.
#[allow(clippy::too_many_arguments)]
pub(crate) fn renew_eer_adaptive_with(
    reg: &mut CservRegistry,
    key: ReservationKey,
    demand: Bandwidth,
    min_bw: Bandwidth,
    clock: &Clock,
    ch: &mut dyn ControlChannel,
    policy: &RetryPolicy,
) -> Result<(EerGrant, RetryStats), SetupError> {
    let mut want = demand;
    let mut stats = RetryStats::default();
    for _attempt in 0..4 {
        match renew_eer_with(reg, key, want, clock, ch, policy) {
            Ok((grant, s)) => {
                stats.absorb(s);
                return Ok((grant, stats));
            }
            Err(SetupError::Refused {
                failed_at,
                reason: CservError::Eer(crate::eer::EerError::InsufficientSegr { available }),
            }) => {
                if available < min_bw {
                    return Err(SetupError::Refused {
                        failed_at,
                        reason: CservError::Eer(crate::eer::EerError::InsufficientSegr {
                            available,
                        }),
                    });
                }
                want = available;
            }
            Err(e) => return Err(e),
        }
    }
    Err(SetupError::Refused {
        failed_at: 0,
        reason: CservError::Eer(crate::eer::EerError::InsufficientSegr {
            available: Bandwidth::ZERO,
        }),
    })
}

/// Tears down a (partially) admitted EER setup hop by hop, with
/// retries, via the idempotent request-id-keyed abort.
fn rollback_eer(
    reg: &mut CservRegistry,
    ch: &mut dyn ControlChannel,
    policy: &RetryPolicy,
    clock: &Clock,
    req: &EerSetupReq,
    admitted: usize,
    stats: &mut RetryStats,
) {
    let src = req.res_info.src_as;
    for i in (0..admitted).rev() {
        let (as_id, _) = req.path[i];
        if reg.get(as_id).is_none() {
            continue;
        }
        let salt = splitmix64(req.request_id ^ ((i as u64) << 32) ^ (0xBA << 48));
        // As in `rollback_segr`: aborts ignore the operation deadline.
        let done = reliable_exchange(ch, policy, clock, src, as_id, salt, Instant::MAX, stats, |now| {
            reg.get_mut(as_id).unwrap().eer_abort_request(req, i, now);
        });
        if done.is_none() {
            stats.undelivered_aborts += 1;
            crate::telemetry::record_undelivered_abort();
        }
    }
}

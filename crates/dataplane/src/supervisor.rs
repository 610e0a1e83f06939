//! The router shard pool, always supervised (paper §7.2; DESIGN.md §9
//! "Shard pool").
//!
//! The paper runs one DPDK lcore per NIC queue, each owning a disjoint
//! slice of the state. [`ShardRouterPool`] reproduces that shape: per
//! shard a border-router worker thread, a bounded lock-free SPSC job ring
//! and an output ring ([`colibri_ring`]), with packet buffers recycling
//! driver → worker → driver so the steady state allocates nothing and
//! takes no lock per packet. Each worker validates its ring in batches
//! with [`BorderRouter::process_batch`].
//!
//! * **Steering** — [`ShardRouterPool::try_submit`] pins each reservation
//!   to one shard ([`shard_index`] over [`colibri_wire::peek_res_id`]), so
//!   the monitor's per-reservation state (replay filter, shaping buckets)
//!   sees each flow on one shard, in FIFO order; unparseable frames go
//!   round-robin. The cursor and the steering counters move only when a
//!   ring accepts the packet.
//! * **Isolation** — each packet group runs under `catch_unwind`; a panic
//!   rebuilds the router (fresh monitor state) and hands the group back as
//!   [`ShardOutcome::PanicDiscard`]. Heartbeats expose liveness;
//!   [`ShardRouterPool::kill_shard`] and [`ShardRouterPool::respawn_shard`]
//!   model a worker dying outright.
//! * **No deadlock** — calls that must wait for ring room (`submit`,
//!   reserved traffic in `submit_classed`, `inject_panic`) retry with
//!   `try_send` and drain outputs in between, so a worker stalled on a
//!   full output ring always moves on. Best-effort traffic is shed
//!   instead (Appendix B). Shutdown and kill drain a shard's output ring
//!   until its worker thread has exited, so no worker stays blocked on a
//!   full output ring.
//!
//! The ledger, checked by [`RouterPoolSnapshot::balanced`], is exact on
//! what the caller receives: `submitted == verdicts + panic_discarded +
//! lost_to_kill`. A killed worker counts as lost the packet whose send
//! failed, the rest of its drained batch and its job ring — never a
//! `Poison` job, which is not a packet.

use crate::router::{BorderRouter, RouterStats, RouterVerdict};
use colibri_base::{Instant, ResId};
use colibri_qdisc::TrafficClass;
use colibri_ring::{ring, Consumer, Producer, TrySendError};
use colibri_telemetry::{Registry, Stability};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The shard owning `res_id` among `n` shards.
///
/// A SplitMix64-style finalizer over the raw reservation ID: cheap, well
/// mixed, and shared by every caller that must agree on the shard of a
/// reservation (the pool's steering, per-shard gateways, attack traffic).
pub fn shard_index(res_id: ResId, n: usize) -> usize {
    let mut x = res_id.0 as u64 ^ 0x9E37_79B9_7F4A_7C15;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (x >> 33) as usize % n
}

/// Why a non-blocking submit could not enqueue. The packet buffer rides
/// back in the error so the caller decides its fate: shed it (best-effort
/// under attack), drain outputs and retry (reserved traffic), or hold it.
#[derive(Debug)]
pub enum SubmitError {
    /// The owning shard's ring is at capacity (backpressure).
    WouldBlock(Vec<u8>),
}

/// How many jobs a worker pulls per ring drain. Batching lets the router
/// validate whole batches with the interleaved CMAC; kept modest so
/// latency stays bounded.
const WORKER_BATCH: usize = 32;

/// What happened to one packet in a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOutcome {
    /// The router processed the packet and produced this verdict.
    Verdict(RouterVerdict),
    /// The worker panicked while this packet's group was in flight; the
    /// packet was not (fully) processed. It is surfaced — buffer intact —
    /// so the caller can count or retry it; nothing is silently lost.
    PanicDiscard,
}

/// One packet back from [`ShardRouterPool::try_drain`].
#[derive(Debug)]
pub struct RoutedOutput {
    /// Verdict (hop already advanced on `Forward`) or accounted discard.
    pub outcome: ShardOutcome,
    /// The packet buffer (mutated in place), returned for reuse.
    pub pkt: Vec<u8>,
}

/// The shed decision taken by [`ShardRouterPool::submit_classed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitVerdict {
    /// Enqueued on the owning shard.
    Enqueued,
    /// Ring full and the packet best-effort: shed, counted, recycled.
    Shed,
}

/// A driver-side view of one shard's health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHealthReport {
    /// Batches the worker has drained so far.
    pub heartbeat: u64,
    /// Panics contained (router rebuilds) on this shard.
    pub panics: u64,
    /// Whether the worker thread is still running.
    pub alive: bool,
    /// Jobs currently queued to this shard.
    pub queued: usize,
}

/// Per-shard piece of a [`RouterPoolSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterShardSnapshot {
    /// Packets accepted into this shard's ring (imbalance numerator).
    pub submitted: u64,
    /// Merged verdict counters (across rebuilds and respawns).
    pub stats: RouterStats,
    /// Panics contained on this shard.
    pub panics: u64,
    /// Times this shard index was respawned after a kill.
    pub respawns: u64,
}

/// The aggregated result of a [`ShardRouterPool`] run: the cross-shard
/// merge of every worker's counters, the per-shard split, and the exact
/// packet ledger.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterPoolSnapshot {
    /// Number of shard workers.
    pub shards: usize,
    /// Merged verdict counters.
    pub stats: RouterStats,
    /// Per-shard breakdown, indexed by shard.
    pub per_shard: Vec<RouterShardSnapshot>,
    /// Packets accepted into shard rings.
    pub submitted: u64,
    /// Accepted packets steered by reservation ID (parseable header).
    pub steered: u64,
    /// Accepted packets sent round-robin (unparseable header).
    pub unsteered: u64,
    /// Outputs handed back carrying a [`ShardOutcome::Verdict`].
    pub verdicts: u64,
    /// Outputs handed back as [`ShardOutcome::PanicDiscard`].
    pub panic_discarded: u64,
    /// Accepted packets that a killed worker never handed back.
    pub lost_to_kill: u64,
    /// Best-effort packets shed by the backpressure policy (never entered
    /// a ring).
    pub shed_best_effort: u64,
    /// Reserved-class packets shed. `submit_classed` never sheds them, so
    /// this is 0; it is exported so gates check the invariant rather than
    /// assume it.
    pub shed_reserved: u64,
    /// Total panics contained across shards.
    pub panics: u64,
    /// Total shard respawns.
    pub respawns: u64,
}

impl RouterPoolSnapshot {
    /// Steering imbalance: the busiest shard's submitted count divided
    /// by the per-shard mean (1.0 = perfectly even). Returns 0.0 when
    /// nothing was submitted.
    pub fn steering_imbalance(&self) -> f64 {
        let total: u64 = self.per_shard.iter().map(|s| s.submitted).sum();
        if total == 0 || self.per_shard.is_empty() {
            return 0.0;
        }
        let mean = total as f64 / self.per_shard.len() as f64;
        let max = self.per_shard.iter().map(|s| s.submitted).max().unwrap_or(0);
        max as f64 / mean
    }

    /// The exact ledger: every accepted packet was handed back exactly
    /// once or counted against a kill.
    pub fn balanced(&self) -> bool {
        self.submitted == self.verdicts + self.panic_discarded + self.lost_to_kill
    }
}

enum Job {
    Packet {
        pkt: Vec<u8>,
        now: Instant,
    },
    /// "One bad packet takes the worker down" (`inject_panic`): panics the
    /// worker inside its supervised region, discarding the rest of the batch.
    Poison,
}

impl Job {
    fn into_pkt(self) -> Option<Vec<u8>> {
        match self {
            Job::Packet { pkt, .. } => Some(pkt),
            Job::Poison => None,
        }
    }
}

/// Liveness cells, written by the worker and read by the driver without
/// joining the thread. Shared by every worker generation of a shard.
#[derive(Debug, Default)]
struct ShardHealth {
    /// Bumped once per drained batch; a shard whose heartbeat stops
    /// advancing while its ring is non-empty is wedged.
    heartbeat: AtomicU64,
    /// Panics contained by `catch_unwind` (each one rebuilt the router).
    panics: AtomicU64,
}

/// What a worker hands back when it exits: the counters of every router
/// it ran, and its side of the ledger — outputs it handed back by
/// outcome (the pool drains each one to the caller), and packets a kill
/// made it drop.
#[derive(Debug, Clone, Copy, Default)]
struct WorkerReport {
    stats: RouterStats,
    verdicts: u64,
    panic_discarded: u64,
    lost: u64,
}

impl WorkerReport {
    fn merge(&mut self, other: &WorkerReport) {
        self.stats.merge(&other.stats);
        self.verdicts += other.verdicts;
        self.panic_discarded += other.panic_discarded;
        self.lost += other.lost;
    }
}

/// One shard's ring pair and worker thread, seen from the driver. A
/// respawn replaces it whole.
struct Lane {
    /// The driver's end of the job ring.
    jobs: Producer<Job>,
    /// The driver's end of the output ring; closing it makes the worker's
    /// next send fail, which is how a kill stops a worker.
    out: Consumer<RoutedOutput>,
    /// `None` once the worker has been joined (retired).
    handle: Option<JoinHandle<WorkerReport>>,
}

impl Lane {
    /// Starts shard `shard`'s worker on a fresh ring pair of `queue_cap`.
    fn spawn(
        shard: usize,
        queue_cap: usize,
        make: &RouterFactory,
        health: &Arc<ShardHealth>,
    ) -> Self {
        let (jobs, jq) = ring(queue_cap);
        let (oq, out) = ring(queue_cap);
        let (make, health) = (Arc::clone(make), Arc::clone(health));
        let handle = std::thread::spawn(move || run_worker(shard, &*make, &health, jq, oq));
        Lane { jobs, out, handle: Some(handle) }
    }

    /// Closes the job ring, hands every output to `out` until the worker
    /// thread has exited, and joins it. `None` if already retired.
    fn retire(&mut self, out: &mut Vec<RoutedOutput>) -> Option<std::thread::Result<WorkerReport>> {
        let handle = self.handle.take()?;
        self.jobs.close();
        while !handle.is_finished() {
            out.extend(std::iter::from_fn(|| self.out.try_recv()));
            std::thread::yield_now();
        }
        let joined = handle.join();
        // The join orders every send of the worker before this drain.
        out.extend(std::iter::from_fn(|| self.out.try_recv()));
        Some(joined)
    }
}

/// Driver-side state of one shard index: its current lane, and what is
/// kept across respawns.
struct Shard {
    lane: Lane,
    health: Arc<ShardHealth>,
    /// Packets accepted into this shard's ring.
    submitted: u64,
    respawns: u64,
    /// Reports of this shard's killed-and-joined workers.
    retired: WorkerReport,
}

type RouterFactory = Arc<dyn Fn(usize) -> BorderRouter + Send + Sync>;

/// A pool of supervised border-router workers. See the module docs for
/// the steering, supervision and ledger contract.
pub struct ShardRouterPool {
    shards: Vec<Shard>,
    queue_cap: usize,
    /// Next shard `try_drain` visits, so no shard's outputs starve.
    drain_cursor: usize,
    /// Builds (and after a panic or kill, rebuilds) shard `i`'s router.
    make: RouterFactory,
    registry: Option<Registry>,
    free_bufs: Vec<Vec<u8>>,
    /// Shard for the next unparseable frame.
    rr_cursor: usize,
    steered: u64,
    unsteered: u64,
    shed_best_effort: u64,
}

impl ShardRouterPool {
    /// Spawns `n` router workers on rings of `queue_cap`. `make` builds
    /// (and, after a panic or kill, *rebuilds*) the router of a shard —
    /// it runs on worker threads, hence `Send + Sync + 'static`.
    pub fn new(
        n: usize,
        queue_cap: usize,
        make: impl Fn(usize) -> BorderRouter + Send + Sync + 'static,
    ) -> Self {
        Self::build(n, queue_cap, None, make)
    }

    /// Like [`Self::new`], but each router (and its monitor) registers
    /// telemetry as shard `router<i>` in `registry`, and the pool's
    /// steering, shed and supervision counters are absorbed into it at
    /// shutdown.
    pub fn with_telemetry(
        n: usize,
        queue_cap: usize,
        registry: &Registry,
        make: impl Fn(usize) -> BorderRouter + Send + Sync + 'static,
    ) -> Self {
        Self::build(n, queue_cap, Some(registry.clone()), make)
    }

    fn build(
        n: usize,
        queue_cap: usize,
        registry: Option<Registry>,
        make: impl Fn(usize) -> BorderRouter + Send + Sync + 'static,
    ) -> Self {
        let reg = registry.clone();
        let make: RouterFactory = Arc::new(move |i| {
            let mut router = make(i);
            if let Some(reg) = &reg {
                router.attach_telemetry(reg, &format!("router{i}"));
            }
            router
        });
        assert!(n >= 1);
        let shards = (0..n)
            .map(|i| {
                let health = Arc::default();
                let lane = Lane::spawn(i, queue_cap, &make, &health);
                Shard { lane, health, submitted: 0, respawns: 0, retired: WorkerReport::default() }
            })
            .collect();
        Self {
            shards,
            queue_cap,
            drain_cursor: 0,
            make,
            registry,
            free_bufs: Vec::new(),
            rr_cursor: 0,
            steered: 0,
            unsteered: 0,
            shed_best_effort: 0,
        }
    }

    /// Non-blocking submit: enqueues on the owning shard or returns
    /// [`SubmitError::WouldBlock`] with the buffer. Never spins, never
    /// yields — shed, drain-and-retry, or hold is the *caller's* decision.
    /// A `WouldBlock` leaves the round-robin cursor and every counter as
    /// they were. A killed shard is respawned before the enqueue.
    pub fn try_submit(&mut self, pkt: Vec<u8>, now: Instant) -> Result<(), SubmitError> {
        let n = self.shards.len();
        let res_id = colibri_wire::peek_res_id(&pkt);
        let s = res_id.map_or(self.rr_cursor % n, |r| shard_index(r, n));
        self.respawn_shard(s);
        match self.shards[s].lane.jobs.try_send(Job::Packet { pkt, now }) {
            Ok(()) => {
                self.shards[s].submitted += 1;
                if res_id.is_some() {
                    self.steered += 1;
                } else {
                    self.unsteered += 1;
                    self.rr_cursor = self.rr_cursor.wrapping_add(1);
                }
                Ok(())
            }
            Err(TrySendError::Full(job) | TrySendError::Closed(job)) => {
                Err(SubmitError::WouldBlock(job.into_pkt().expect("a packet job was sent")))
            }
        }
    }

    /// Submits one packet, waiting for ring room: while the owning shard's
    /// ring is full it drains outputs into `out` (so the worker can make
    /// progress) and retries.
    pub fn submit(&mut self, pkt: Vec<u8>, now: Instant, out: &mut Vec<RoutedOutput>) {
        let mut pkt = pkt;
        while let Err(SubmitError::WouldBlock(p)) = self.try_submit(pkt, now) {
            pkt = p;
            self.wait(out);
        }
    }

    /// Class-aware submit implementing the shed policy: on a full ring,
    /// best-effort packets are shed immediately (counted, buffer
    /// recycled); reserved Colibri classes are never shed — they wait as
    /// in [`Self::submit`].
    pub fn submit_classed(
        &mut self,
        pkt: Vec<u8>,
        class: TrafficClass,
        now: Instant,
        out: &mut Vec<RoutedOutput>,
    ) -> SubmitVerdict {
        match self.try_submit(pkt, now) {
            Ok(()) => SubmitVerdict::Enqueued,
            Err(SubmitError::WouldBlock(pkt)) if class == TrafficClass::BestEffort => {
                self.shed_best_effort += 1;
                self.recycle_buf(pkt);
                SubmitVerdict::Shed
            }
            Err(SubmitError::WouldBlock(pkt)) => {
                self.submit(pkt, now, out);
                SubmitVerdict::Enqueued
            }
        }
    }

    /// Injects a deterministic panic into `shard`: the worker unwinds
    /// inside its supervised region, the router is rebuilt (fresh monitor
    /// state), and any packets of the same drained batch surface as
    /// [`ShardOutcome::PanicDiscard`]. The worker thread survives. Waits
    /// for ring room like [`Self::submit`]; a killed shard is left alone.
    pub fn inject_panic(&mut self, shard: usize, out: &mut Vec<RoutedOutput>) {
        let mut job = Job::Poison;
        while let Err(TrySendError::Full(j)) = self.shards[shard].lane.jobs.try_send(job) {
            job = j;
            self.wait(out);
        }
    }

    /// One wait step of a blocking call: drain every output (freeing a
    /// worker stalled on a full output ring), or yield if there was none.
    fn wait(&mut self, out: &mut Vec<RoutedOutput>) {
        if self.try_drain(out, usize::MAX) == 0 {
            std::thread::yield_now();
        }
    }

    /// Kills `shard`'s worker outright (the recovery experiment's crash):
    /// closes its output ring so the worker exits at its next send, drains
    /// what it produced into `out`, joins it, and folds its report — lost
    /// packets included — into the ledger. The next submit, or
    /// [`Self::respawn_shard`], brings the shard back.
    pub fn kill_shard(&mut self, shard: usize, out: &mut Vec<RoutedOutput>) {
        let s = &mut self.shards[shard];
        s.lane.out.close();
        if let Some(joined) = s.lane.retire(out) {
            // `catch_unwind` keeps worker panics inside the loop; a join
            // error (a panic outside it) leaves nothing to fold.
            s.retired.merge(&joined.unwrap_or_default());
        }
    }

    /// Respawns a killed shard: fresh rings, fresh worker, router rebuilt
    /// from the factory. No-op if the shard is running.
    pub fn respawn_shard(&mut self, shard: usize) {
        let s = &mut self.shards[shard];
        if s.lane.handle.is_none() {
            s.lane = Lane::spawn(shard, self.queue_cap, &self.make, &s.health);
            s.respawns += 1;
        }
    }

    /// Health of every shard: heartbeat, contained panics, thread
    /// liveness, queue depth. A heartbeat that stops advancing while
    /// `queued > 0` marks a poisoned shard.
    pub fn health(&self) -> Vec<ShardHealthReport> {
        self.shards
            .iter()
            .map(|s| ShardHealthReport {
                heartbeat: s.health.heartbeat.load(Ordering::Relaxed),
                panics: s.health.panics.load(Ordering::Relaxed),
                alive: s.lane.handle.as_ref().is_some_and(|h| !h.is_finished()),
                queued: s.lane.jobs.len(),
            })
            .collect()
    }

    /// A recycled buffer from the freelist (empty; capacity retained), for
    /// building the next packet without allocating.
    pub fn buffer(&mut self) -> Vec<u8> {
        self.free_bufs.pop().unwrap_or_default()
    }

    /// Returns a drained output's buffer to the freelist.
    pub fn recycle(&mut self, output: RoutedOutput) {
        self.recycle_buf(output.pkt);
    }

    fn recycle_buf(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        self.free_bufs.push(buf);
    }

    /// Collects at most `max` outputs without blocking, visiting shards
    /// round-robin. Returns how many were collected.
    pub fn try_drain(&mut self, out: &mut Vec<RoutedOutput>, max: usize) -> usize {
        let n = self.shards.len();
        let (mut got, mut idle) = (0, 0);
        while got < max && idle < n {
            let lane = &mut self.shards[self.drain_cursor].lane;
            self.drain_cursor = (self.drain_cursor + 1) % n;
            match lane.out.try_recv() {
                Some(o) => {
                    out.push(o);
                    got += 1;
                    idle = 0;
                }
                None => idle += 1,
            }
        }
        got
    }

    /// Shuts the pool down: closes job rings, drains every remaining
    /// output into `out`, joins workers, and returns the full snapshot. A
    /// worker's thread exit, not its cooperation, ends each drain, so no
    /// worker can wedge shutdown.
    pub fn shutdown(mut self, out: &mut Vec<RoutedOutput>) -> RouterPoolSnapshot {
        // Close every job ring first, so all workers wind down at once.
        for shard in &self.shards {
            shard.lane.jobs.close();
        }
        let mut snap = RouterPoolSnapshot {
            shards: self.shards.len(),
            steered: self.steered,
            unsteered: self.unsteered,
            shed_best_effort: self.shed_best_effort,
            ..Default::default()
        };
        for shard in &mut self.shards {
            let mut report = shard.retired;
            // `None`: killed and never respawned, already retired.
            if let Some(joined) = shard.lane.retire(out) {
                report.merge(&joined.unwrap_or_default());
            }
            let panics = shard.health.panics.load(Ordering::Relaxed);
            snap.stats.merge(&report.stats);
            snap.submitted += shard.submitted;
            snap.verdicts += report.verdicts;
            snap.panic_discarded += report.panic_discarded;
            snap.lost_to_kill += report.lost;
            snap.panics += panics;
            snap.respawns += shard.respawns;
            snap.per_shard.push(RouterShardSnapshot {
                submitted: shard.submitted,
                stats: report.stats,
                panics,
                respawns: shard.respawns,
            });
        }
        if let Some(reg) = &self.registry {
            absorb_telemetry(reg, &snap);
        }
        snap
    }
}

impl std::fmt::Debug for ShardRouterPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouterPool").field("shards", &self.shards.len()).finish()
    }
}

/// Adds the pool's counters to `reg`. The driver keeps them as plain
/// `u64`s on the hot path; the registry sees them once, at shutdown.
fn absorb_telemetry(reg: &Registry, s: &RouterPoolSnapshot) {
    let dep = Stability::PathDependent;
    let dispatch = reg.shard("dispatch");
    for (name, help, value) in [
        ("colibri_router_steered_total", "packets steered by reservation-ID hash", s.steered),
        ("colibri_router_unsteered_total", "packets sent round-robin", s.unsteered),
        (
            "colibri_dataplane_shed_best_effort_total",
            "best-effort packets shed",
            s.shed_best_effort,
        ),
        (
            "colibri_dataplane_shed_reserved_total",
            "reserved packets shed (target: 0)",
            s.shed_reserved,
        ),
        (
            "colibri_dataplane_panic_discarded_total",
            "packets handed back unprocessed",
            s.panic_discarded,
        ),
        ("colibri_dataplane_shard_panics_total", "worker panics contained", s.panics),
        ("colibri_dataplane_shard_respawns_total", "workers respawned after a kill", s.respawns),
    ] {
        dispatch.counter(name, dep, help).add(value);
    }
    for (i, shard) in s.per_shard.iter().enumerate() {
        let help = "packets the dispatcher submitted to this shard";
        reg.shard(&format!("router{i}"))
            .counter("colibri_router_shard_submitted_total", dep, help)
            .add(shard.submitted);
    }
}

/// The supervised worker loop. It works through each drained batch front
/// to back: a `Poison` job panics inside `catch_unwind` and takes the rest
/// of the batch with it; otherwise the timestamp-contiguous packet group
/// at the front runs through `process_batch` under `catch_unwind`. A
/// caught panic folds the router's counters from *before* the group (a
/// torn batch leaks no partial counts), rebuilds the router, and hands
/// the group back as `PanicDiscard`. When a send fails — the output ring
/// was closed by a kill — the worker counts every packet it holds and never
/// handed back, then those left in its job ring, as lost.
fn run_worker(
    shard: usize,
    make: &(dyn Fn(usize) -> BorderRouter + Send + Sync),
    health: &ShardHealth,
    mut jobs: Consumer<Job>,
    mut out: Producer<RoutedOutput>,
) -> WorkerReport {
    let mut router = make(shard);
    // This worker's ledger, plus counters of routers discarded after a panic.
    let mut report = WorkerReport::default();
    let mut batch: Vec<Job> = Vec::with_capacity(WORKER_BATCH);
    let mut outcomes: Vec<ShardOutcome> = Vec::with_capacity(WORKER_BATCH);
    'main: while jobs.recv_many(&mut batch, WORKER_BATCH) {
        health.heartbeat.fetch_add(1, Ordering::Relaxed);
        while !batch.is_empty() {
            let stats_before = router.stats;
            let (end, panicked) = match batch[0] {
                Job::Poison => {
                    // Unwind for real — the path a hostile packet would
                    // take through a router bug — but via `resume_unwind`
                    // so the global panic hook stays quiet.
                    let unwound = catch_unwind(|| {
                        std::panic::resume_unwind(Box::new("injected shard poison"))
                    });
                    debug_assert!(unwound.is_err());
                    (batch.len(), true)
                }
                Job::Packet { now, .. } => {
                    let end = 1 + batch[1..]
                        .iter()
                        .take_while(|j| matches!(j, Job::Packet { now: t, .. } if *t == now))
                        .count();
                    let mut refs: Vec<&mut [u8]> = batch[..end]
                        .iter_mut()
                        .filter_map(|j| match j {
                            Job::Packet { pkt, .. } => Some(pkt.as_mut_slice()),
                            Job::Poison => None,
                        })
                        .collect();
                    match catch_unwind(AssertUnwindSafe(|| router.process_batch(&mut refs, now))) {
                        Ok(verdicts) => {
                            outcomes.extend(verdicts.into_iter().map(ShardOutcome::Verdict));
                            (end, false)
                        }
                        Err(_) => (end, true),
                    }
                }
            };
            if panicked {
                health.panics.fetch_add(1, Ordering::Relaxed);
                report.stats.merge(&stats_before);
                router = make(shard);
                let packets = batch[..end].iter().filter(|j| matches!(j, Job::Packet { .. }));
                outcomes.resize(packets.count(), ShardOutcome::PanicDiscard);
            }
            let mut handed = batch.drain(..end).filter_map(Job::into_pkt).zip(outcomes.drain(..));
            while let Some((pkt, outcome)) = handed.next() {
                if out.send(RoutedOutput { outcome, pkt }).is_err() {
                    report.lost += 1 + handed.count() as u64;
                    break 'main;
                }
                match outcome {
                    ShardOutcome::Verdict(_) => report.verdicts += 1,
                    ShardOutcome::PanicDiscard => report.panic_discarded += 1,
                }
            }
        }
    }
    // Only a kill leaves jobs behind: the rest of the batch, then the ring.
    batch.extend(std::iter::from_fn(|| jobs.try_recv()));
    report.lost += batch.iter().filter(|j| matches!(j, Job::Packet { .. })).count() as u64;
    report.stats.merge(&router.stats);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateway::{Gateway, GatewayConfig};
    use crate::router::RouterConfig;
    use colibri_base::{
        Bandwidth, Duration, HostAddr, InterfaceId, IsdAsId, ResId, ReservationKey,
    };
    use colibri_crypto::{Key, SecretValueGen};
    use colibri_ctrl::{OwnedEer, OwnedEerVersion};
    use colibri_wire::mac::hop_auth;
    use colibri_wire::{EerInfo, HopField, ResInfo};

    const MASTER: [u8; 16] = [9u8; 16];

    fn test_cfg() -> RouterConfig {
        RouterConfig {
            freshness: Duration::from_secs(3600),
            skew: Duration::from_secs(3600),
            monitoring: false,
            ..RouterConfig::default()
        }
    }

    /// A two-hop EER of AS 1-10 with placeholder hop authenticators.
    fn owned(res_id: u32) -> OwnedEer {
        OwnedEer {
            key: ReservationKey::new(IsdAsId::new(1, 10), ResId(res_id)),
            eer_info: EerInfo { src_host: HostAddr(7), dst_host: HostAddr(8) },
            path_ases: vec![IsdAsId::new(1, 10), IsdAsId::new(1, 1)],
            hop_fields: vec![HopField::new(0, 1), HopField::new(2, 0)],
            versions: vec![OwnedEerVersion {
                ver: 0,
                bw: Bandwidth::from_mbps(100),
                exp: Instant::from_secs(100),
                hop_auths: vec![Key([1; 16]), Key([2; 16])],
            }],
        }
    }

    /// A gateway with one installed reservation whose packets verify at
    /// routers built from `MASTER`.
    fn auth_gateway(res_id: u32, now: Instant) -> Gateway {
        let k_i = SecretValueGen::new(&MASTER).secret_value(colibri_crypto::Epoch::containing(now));
        let (hop, exp) = (HopField::new(3, 4), Instant::from_secs(90));
        let res_info = ResInfo {
            src_as: IsdAsId::new(1, 10),
            res_id: ResId(res_id),
            bw: colibri_base::BwClass::from_bandwidth_ceil(Bandwidth::from_mbps(100)),
            exp_t: exp,
            ver: 0,
        };
        let mut eer = owned(res_id);
        eer.hop_fields[0] = hop;
        eer.versions[0].exp = exp;
        eer.versions[0].hop_auths[0] = hop_auth(&k_i.cmac(), &res_info, &eer.eer_info, hop);
        let mut gw =
            Gateway::new(GatewayConfig { burst: Duration::from_secs(3600), ..Default::default() });
        gw.install(&eer, now);
        gw
    }

    fn pool(n: usize, cap: usize) -> ShardRouterPool {
        let cfg = test_cfg();
        ShardRouterPool::new(n, cap, move |_| BorderRouter::new(IsdAsId::new(1, 10), &MASTER, cfg))
    }

    /// Offers one junk frame on shard 0 with its own `now` (so every
    /// packet group is a singleton), then waits until the worker has
    /// taken it off the job ring.
    fn feed(p: &mut ShardRouterPool, t: u64) {
        p.try_submit(vec![0u8; 8], Instant::from_secs(t)).expect("ring has room");
        while p.health()[0].queued > 0 {
            std::thread::yield_now();
        }
    }

    /// A 1-shard, `queue_cap = 2` pool whose worker is stalled: packets 0
    /// and 1 fill its output ring, it holds packet 2 at the failing send,
    /// and its job ring is empty. Nothing has been drained.
    fn stalled_pool() -> ShardRouterPool {
        let mut p = pool(1, 2);
        for t in 0..3 {
            feed(&mut p, t);
        }
        p
    }

    /// Pushes `valid` authentic packets and one garbage frame through `p`,
    /// checks every authentic one forwards, and shuts the pool down.
    fn run_authentic(mut p: ShardRouterPool, valid: usize) -> RouterPoolSnapshot {
        let now = Instant::from_secs(50);
        let mut gw = auth_gateway(1, now);
        let mut outs = Vec::new();
        for _ in 0..valid {
            let mut pkt = Vec::new();
            gw.process_into(HostAddr(7), ResId(1), b"data", now, &mut pkt).unwrap();
            p.submit(pkt, now, &mut outs);
        }
        p.submit(vec![0xFF; 10], now, &mut outs);
        while outs.len() < valid + 1 {
            p.try_drain(&mut outs, usize::MAX);
            std::thread::yield_now();
        }
        let forward = ShardOutcome::Verdict(RouterVerdict::Forward(InterfaceId(4)));
        assert_eq!(outs.iter().filter(|o| o.outcome == forward).count(), valid);
        let mut rest = Vec::new();
        let snap = p.shutdown(&mut rest);
        assert!(rest.is_empty());
        snap
    }

    #[test]
    fn processes_and_accounts_like_unsupervised_pool() {
        let snap = run_authentic(pool(2, 16), 10);
        assert_eq!(snap.stats.forwarded, 10);
        assert_eq!(snap.stats.parse_errors, 1);
        assert_eq!(snap.submitted, 11);
        assert!(snap.balanced(), "{snap:?}");
        assert_eq!(snap.panics, 0);
    }

    #[test]
    fn router_pool_validates_and_shuts_down() {
        // Six authentic packets (σ matches the routers' secret) and one
        // garbage frame through two shards.
        let snap = run_authentic(pool(2, 8), 6);
        assert_eq!(snap.shards, 2);
        assert_eq!(snap.stats.forwarded, 6);
        assert_eq!(snap.stats.parse_errors, 1);
    }

    #[test]
    fn steering_pins_reservations_and_counts_imbalance() {
        let now = Instant::from_secs(50);
        let cfg = test_cfg();
        let reg = Registry::new();
        let mut pool = ShardRouterPool::with_telemetry(4, 64, &reg, move |_| {
            BorderRouter::new(IsdAsId::new(1, 10), &MASTER, cfg)
        });

        // Build minimally valid *headers* for three reservations (the
        // packets won't verify, but steering only reads the header).
        let mut gw =
            Gateway::new(GatewayConfig { burst: Duration::from_secs(3600), ..Default::default() });
        for r in [1u32, 2, 3] {
            gw.install(&owned(r), now);
        }
        let mut expected_shard = std::collections::HashMap::new();
        let mut outs = Vec::new();
        let mut sent = 0;
        for i in 0..30u32 {
            let r = ResId(1 + i % 3);
            let mut pkt = Vec::new();
            gw.process_into(HostAddr(7), r, b"data", now, &mut pkt).unwrap();
            let s = shard_index(r, 4);
            expected_shard.insert(r, s);
            pool.submit(pkt, now, &mut outs);
            sent += 1;
        }
        // Garbage falls back round-robin.
        pool.submit(vec![0u8; 4], now, &mut outs);
        pool.submit(vec![0u8; 4], now, &mut outs);
        sent += 2;

        while outs.len() < sent {
            pool.try_drain(&mut outs, usize::MAX);
            std::thread::yield_now();
        }
        let snap = pool.shutdown(&mut outs);
        assert_eq!(snap.steered, 30);
        assert_eq!(snap.unsteered, 2);
        assert_eq!(snap.per_shard.len(), 4);
        // Each reservation's 10 packets all landed on its hash shard.
        let mut by_shard = [0u64; 4];
        for &s in expected_shard.values() {
            by_shard[s] += 30 / 3;
        }
        // Round-robin garbage: shards 0 and 1 got one each.
        by_shard[0] += 1;
        by_shard[1] += 1;
        for (s, expected) in by_shard.iter().enumerate() {
            assert_eq!(snap.per_shard[s].submitted, *expected, "shard {s}");
        }
        assert!(snap.steering_imbalance() >= 1.0);
        // Telemetry absorbed the dispatch counters.
        let scrape = reg.snapshot();
        assert_eq!(scrape.total("colibri_router_steered_total"), 30);
        assert_eq!(scrape.total("colibri_router_unsteered_total"), 2);
        assert_eq!(scrape.total("colibri_router_shard_submitted_total"), 32);
    }

    #[test]
    fn telemetry_pools_scrape_per_shard_and_merged() {
        // Two gateways (one per reservation shard) and the router pool
        // share one registry; the scrape must split per shard and sum to
        // the gateways' own counters.
        let now = Instant::from_secs(50);
        let reg = Registry::new();
        let mut gws: Vec<Gateway> = (0..2)
            .map(|i| {
                let mut gw = Gateway::new(GatewayConfig {
                    burst: Duration::from_secs(3600),
                    ..Default::default()
                });
                gw.attach_telemetry(&reg, &format!("gw{i}"));
                gw
            })
            .collect();
        for i in 0..6 {
            gws[shard_index(ResId(i), 2)].install(&owned(i), now);
        }
        let cfg = test_cfg();
        let mut pool = ShardRouterPool::with_telemetry(2, 16, &reg, move |_| {
            BorderRouter::new(IsdAsId::new(1, 10), &MASTER, cfg)
        });
        let mut outs = Vec::new();
        for i in 0..6 {
            let mut pkt = Vec::new();
            gws[shard_index(ResId(i), 2)]
                .process_into(HostAddr(7), ResId(i), b"p", now, &mut pkt)
                .unwrap();
            pool.submit(pkt, now, &mut outs);
        }
        // Unknown reservation → a rejected stamp on its shard.
        let unknown = ResId(999);
        assert!(gws[shard_index(unknown, 2)]
            .process_into(HostAddr(7), unknown, b"x", now, &mut Vec::new())
            .is_err());
        while outs.len() < 6 {
            pool.try_drain(&mut outs, usize::MAX);
            std::thread::yield_now();
        }
        let snap = pool.shutdown(&mut outs);
        let scrape = reg.snapshot();
        // Scraped cross-shard totals equal the gateways' summed stats.
        let forwarded: u64 = gws.iter().map(|gw| gw.stats.forwarded).sum();
        let rejected: u64 = gws.iter().map(|gw| gw.stats.rejected).sum();
        assert_eq!((forwarded, rejected), (6, 1));
        assert_eq!(scrape.total("colibri_gateway_forwarded_total"), forwarded);
        assert_eq!(scrape.total("colibri_gateway_rejected_total"), rejected);
        assert_eq!(scrape.total("colibri_router_shard_submitted_total"), snap.submitted);
        // Per-shard split is visible for both pools.
        let m = scrape.metric("colibri_gateway_forwarded_total").unwrap();
        assert_eq!(m.shards.len(), 2);
        let m = scrape.metric("colibri_router_shard_submitted_total").unwrap();
        assert_eq!(m.shards.len(), 2);
        colibri_telemetry::verify_exposition(&scrape.render_prometheus()).unwrap();
    }

    #[test]
    fn would_block_instead_of_spinning() {
        let now = Instant::from_secs(50);
        let mut p = pool(1, 2);
        // Stall the worker by never draining; with capacity 2 the ring
        // must eventually report WouldBlock instead of blocking us.
        let mut blocked = false;
        for _ in 0..10_000 {
            match p.try_submit(vec![0u8; 8], now) {
                Ok(()) => {}
                Err(SubmitError::WouldBlock(pkt)) => {
                    assert_eq!(pkt, vec![0u8; 8], "buffer returned intact");
                    blocked = true;
                    break;
                }
            }
        }
        assert!(blocked, "submit never applied backpressure");
        let mut outs = Vec::new();
        let snap = p.shutdown(&mut outs);
        assert!(snap.balanced());
    }

    #[test]
    fn would_block_leaves_steering_untouched() {
        let now = Instant::from_secs(50);
        let r = (0..).find(|&r| shard_index(ResId(r), 2) == 0).unwrap();
        let mut gw = auth_gateway(r, now);
        let mut p = pool(2, 2);
        // Stall shard 0 with steered packets (2 fill its output ring, 1
        // is held at the send), then fill its job ring.
        for i in 0..5 {
            let mut pkt = Vec::new();
            gw.process_into(HostAddr(7), ResId(r), b"x", now, &mut pkt).unwrap();
            p.try_submit(pkt, now).unwrap();
            while i < 3 && p.health()[0].queued > 0 {
                std::thread::yield_now();
            }
        }
        // The round-robin cursor points at shard 0: every unparseable
        // frame is refused, and the refusals change nothing.
        for _ in 0..3 {
            assert!(matches!(p.try_submit(vec![0u8; 4], now), Err(SubmitError::WouldBlock(_))));
        }
        let mut outs = Vec::new();
        while outs.len() < 5 {
            p.try_drain(&mut outs, usize::MAX);
            std::thread::yield_now();
        }
        // The next unparseable frame still lands on shard 0.
        p.try_submit(vec![0u8; 4], now).unwrap();
        let snap = p.shutdown(&mut outs);
        assert_eq!((snap.steered, snap.unsteered), (5, 1));
        assert_eq!(snap.per_shard[0].submitted, 6);
        assert_eq!(snap.per_shard[1].submitted, 0);
        assert!(snap.balanced(), "{snap:?}");
    }

    #[test]
    fn shed_policy_drops_best_effort_not_reserved() {
        let now = Instant::from_secs(50);
        let mut gw = auth_gateway(1, now);
        let mut p = pool(1, 4);
        let mut outs = Vec::new();
        let mut reserved = 0u64;
        let mut be_offered = 0u64;
        for i in 0..400 {
            // 4× best-effort flood interleaved with reserved packets.
            for _ in 0..4 {
                // Junk with an unparseable header: round-robin, then
                // ParseError at the shard. Class: best-effort.
                p.submit_classed(vec![0xEE; 24], TrafficClass::BestEffort, now, &mut outs);
                be_offered += 1;
            }
            let mut pkt = Vec::new();
            gw.process_into(HostAddr(7), ResId(1), &[i as u8; 16], now, &mut pkt).unwrap();
            let v = p.submit_classed(pkt, TrafficClass::ColibriData, now, &mut outs);
            assert_eq!(v, SubmitVerdict::Enqueued, "reserved traffic must never shed");
            reserved += 1;
        }
        let snap = p.shutdown(&mut outs);
        assert!(snap.balanced(), "{snap:?}");
        assert_eq!(snap.shed_reserved, 0);
        assert_eq!(snap.stats.forwarded, reserved, "all reserved packets forwarded");
        // Everything offered is accounted: accepted + shed == offered.
        assert_eq!(snap.submitted + snap.shed_best_effort, be_offered + reserved);
    }

    #[test]
    fn injected_panic_is_contained_and_accounted() {
        let now = Instant::from_secs(50);
        let mut gw = auth_gateway(1, now);
        let mut p = pool(1, 64);
        let mut outs = Vec::new();
        // First half, then poison, then second half — all one shard.
        for _ in 0..8 {
            let mut pkt = Vec::new();
            gw.process_into(HostAddr(7), ResId(1), b"pre", now, &mut pkt).unwrap();
            p.try_submit(pkt, now).unwrap();
        }
        p.inject_panic(0, &mut outs);
        for _ in 0..8 {
            let mut pkt = Vec::new();
            gw.process_into(HostAddr(7), ResId(1), b"post", now, &mut pkt).unwrap();
            p.try_submit(pkt, now).unwrap();
        }
        while outs.len() < 16 {
            p.try_drain(&mut outs, usize::MAX);
            std::thread::yield_now();
        }
        let health = p.health();
        assert_eq!(health[0].panics, 1);
        assert!(health[0].alive, "worker must survive its panic");
        let snap = p.shutdown(&mut outs);
        assert!(snap.balanced(), "{snap:?}");
        assert_eq!(snap.panics, 1);
        // Discards (if any packets shared the poison's drained batch) plus
        // forwards cover all 16 packets.
        assert_eq!(snap.stats.processed() + snap.panic_discarded, 16);
        assert_eq!(snap.respawns, 0, "contained panic needs no thread respawn");
    }

    #[test]
    fn inject_panic_cannot_deadlock_on_a_stalled_worker() {
        // Worker stalled on its full output ring, job ring full behind it:
        // a blocking poison send would wait forever.
        let mut p = stalled_pool();
        p.try_submit(vec![0u8; 8], Instant::from_secs(3)).unwrap();
        p.try_submit(vec![0u8; 8], Instant::from_secs(4)).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut outs = Vec::new();
            p.inject_panic(0, &mut outs);
            let snap = p.shutdown(&mut outs);
            let _ = tx.send((outs.len() as u64, snap));
        });
        let (received, snap) =
            rx.recv_timeout(std::time::Duration::from_secs(5)).expect("inject_panic deadlocked");
        assert_eq!(received, 5);
        assert_eq!(received + snap.lost_to_kill, snap.submitted);
        assert_eq!(snap.panics, 1);
        assert!(snap.balanced(), "{snap:?}");
    }

    #[test]
    fn kill_counts_the_drained_batch_the_worker_held() {
        let mut p = stalled_pool();
        let mut outs = Vec::new();
        p.try_submit(vec![0u8; 8], Instant::from_secs(3)).unwrap();
        p.try_submit(vec![0u8; 8], Instant::from_secs(4)).unwrap();
        // Free one output slot: the worker hands back packet 2, drains
        // packets 3 and 4 in one batch, and stalls holding both.
        assert_eq!(p.try_drain(&mut outs, 1), 1);
        while p.health()[0].queued > 0 {
            std::thread::yield_now();
        }
        p.try_submit(vec![0u8; 8], Instant::from_secs(5)).unwrap();
        p.try_submit(vec![0u8; 8], Instant::from_secs(6)).unwrap();
        p.kill_shard(0, &mut outs);
        let snap = p.shutdown(&mut outs);
        // Packet 3 (failed send), 4 (rest of the batch), 5 and 6 (ring).
        assert_eq!(snap.lost_to_kill, 4);
        assert_eq!(outs.len() as u64 + snap.lost_to_kill, snap.submitted);
        assert!(snap.balanced(), "{snap:?}");
    }

    #[test]
    fn kill_does_not_count_a_queued_poison() {
        let mut p = stalled_pool();
        let mut outs = Vec::new();
        p.inject_panic(0, &mut outs);
        p.try_submit(vec![0u8; 8], Instant::from_secs(3)).unwrap();
        p.kill_shard(0, &mut outs);
        let snap = p.shutdown(&mut outs);
        // Packet 2 (failed send) and 3 (ring); the poison is no packet.
        assert_eq!(snap.lost_to_kill, 2);
        assert_eq!(outs.len() as u64 + snap.lost_to_kill, snap.submitted);
        assert_eq!(snap.panics, 0);
        assert!(snap.balanced(), "{snap:?}");
    }

    #[test]
    fn kill_and_respawn_preserves_accounting() {
        let now = Instant::from_secs(50);
        let mut gw = auth_gateway(1, now);
        let mut p = pool(1, 64);
        let mut outs = Vec::new();
        for _ in 0..20 {
            let mut pkt = Vec::new();
            gw.process_into(HostAddr(7), ResId(1), b"one", now, &mut pkt).unwrap();
            p.try_submit(pkt, now).unwrap();
        }
        p.kill_shard(0, &mut outs);
        assert!(!p.health()[0].alive);
        // Submitting after the kill transparently respawns the shard.
        for _ in 0..20 {
            let mut pkt = Vec::new();
            gw.process_into(HostAddr(7), ResId(1), b"two", now, &mut pkt).unwrap();
            p.submit(pkt, now, &mut outs);
        }
        let snap = p.shutdown(&mut outs);
        assert!(snap.balanced(), "{snap:?}");
        assert!(snap.respawns >= 1);
        // Nothing vanished: every submitted packet came back as a verdict
        // or a panic discard, or is counted against the kill.
        assert_eq!(snap.submitted, snap.verdicts + snap.panic_discarded + snap.lost_to_kill);
    }

    #[test]
    fn heartbeats_advance_under_load() {
        let now = Instant::from_secs(50);
        let mut p = pool(2, 16);
        let before: Vec<u64> = p.health().iter().map(|h| h.heartbeat).collect();
        let mut outs = Vec::new();
        for _ in 0..64 {
            let _ = p.submit_classed(vec![1u8; 16], TrafficClass::BestEffort, now, &mut outs);
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            p.try_drain(&mut outs, usize::MAX);
            let after = p.health();
            if after.iter().zip(&before).any(|(a, b)| a.heartbeat > *b) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "heartbeats never advanced");
            std::thread::yield_now();
        }
        let snap = p.shutdown(&mut outs);
        assert!(snap.balanced());
    }

    #[test]
    fn telemetry_absorbs_shed_and_panic_counters() {
        let now = Instant::from_secs(50);
        let reg = Registry::new();
        let cfg = test_cfg();
        let mut p = ShardRouterPool::with_telemetry(1, 2, &reg, move |_| {
            BorderRouter::new(IsdAsId::new(1, 10), &MASTER, cfg)
        });
        let mut outs = Vec::new();
        // Overfill to force sheds (worker is slow to start; capacity 2).
        let mut shed = 0u64;
        for _ in 0..256 {
            if p.submit_classed(vec![0u8; 8], TrafficClass::BestEffort, now, &mut outs)
                == SubmitVerdict::Shed
            {
                shed += 1;
            }
        }
        p.inject_panic(0, &mut outs);
        let snap = p.shutdown(&mut outs);
        let scrape = reg.snapshot();
        assert_eq!(scrape.total("colibri_dataplane_shed_best_effort_total"), shed);
        assert_eq!(scrape.total("colibri_dataplane_shed_best_effort_total"), snap.shed_best_effort);
        assert_eq!(scrape.total("colibri_dataplane_shed_reserved_total"), 0);
        assert_eq!(scrape.total("colibri_dataplane_shard_panics_total"), snap.panics);
        assert!(snap.balanced());
    }
}

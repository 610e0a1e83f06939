//! Telemetry bindings for the control plane (DESIGN.md §11).
//!
//! Two layers:
//!
//! * [`CservTelemetry`] — per-CServ admission-outcome counters plus an
//!   optional shared [`Tracer`] ring. Attached explicitly (the default
//!   CServ carries `None` and pays one branch per handler); every trace
//!   event is stamped with the virtual-clock `now` the handler already
//!   receives, so traces replay bit-identically across runs.
//! * Thread-sharded retry counters on the [`global`] registry, recorded
//!   once per hop exchange as a delta of the existing
//!   [`RetryStats`] struct. The retrying drivers are free functions
//!   without a component instance to hang telemetry off, so — like the
//!   crypto op counters — they register one shard per calling thread
//!   (`ctrl_thread_<n>`), keeping hot-path writes uncontended.
//!
//! All control-plane counters are [`Stability::PathDependent`]: retries,
//! rollbacks, and replay-cache hits depend on the fault plan, not only
//! on the admitted workload.

use crate::reliable::RetryStats;
use colibri_telemetry::{global, Counter, Registry, Stability, Tracer};
use std::cell::OnceCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Metric name: control-message delivery attempts.
pub const METRIC_RETRY_ATTEMPTS: &str = "colibri_ctrl_retry_attempts_total";
/// Metric name: attempts lost to drops or down nodes.
pub const METRIC_RETRY_LOST: &str = "colibri_ctrl_retry_lost_total";
/// Metric name: attempts that exceeded the per-hop round-trip timeout.
pub const METRIC_RETRY_TIMEOUTS: &str = "colibri_ctrl_retry_timeouts_total";
/// Metric name: aborts that exhausted their retry budget undelivered.
pub const METRIC_UNDELIVERED_ABORTS: &str = "colibri_ctrl_undelivered_aborts_total";
/// Metric name: exchanges fast-failed by an open circuit breaker.
pub const METRIC_BREAKER_FAST_FAILS: &str = "colibri_ctrl_breaker_fast_fails_total";
/// Metric name: retries denied by an exhausted retry budget.
pub const METRIC_RETRY_BUDGET_DENIED: &str = "colibri_ctrl_retry_budget_denied_total";
/// Metric name: exchanges abandoned because the deadline passed.
pub const METRIC_DEADLINE_GIVUPS: &str = "colibri_ctrl_deadline_givups_total";

static THREAD_SEQ: AtomicU64 = AtomicU64::new(0);

struct ThreadCells {
    attempts: Counter,
    lost: Counter,
    timeouts: Counter,
    undelivered: Counter,
    breaker_fast_fails: Counter,
    budget_denied: Counter,
    deadline_givups: Counter,
}

thread_local! {
    static CELLS: OnceCell<ThreadCells> = const { OnceCell::new() };
}

fn with_cells<R>(f: impl FnOnce(&ThreadCells) -> R) -> R {
    CELLS.with(|c| {
        let cells = c.get_or_init(|| {
            let ord = THREAD_SEQ.fetch_add(1, Ordering::Relaxed);
            let s = global().shard(&format!("ctrl_thread_{ord}"));
            let dep = Stability::PathDependent;
            ThreadCells {
                attempts: s.counter(
                    METRIC_RETRY_ATTEMPTS,
                    dep,
                    "control-message delivery attempts across all hop exchanges",
                ),
                lost: s.counter(
                    METRIC_RETRY_LOST,
                    dep,
                    "delivery attempts that failed: leg lost or node down",
                ),
                timeouts: s.counter(
                    METRIC_RETRY_TIMEOUTS,
                    dep,
                    "hop exchanges whose round trip exceeded the per-hop timeout",
                ),
                undelivered: s.counter(
                    METRIC_UNDELIVERED_ABORTS,
                    dep,
                    "abort messages that exhausted their retry budget (expiry GC backstop)",
                ),
                breaker_fast_fails: s.counter(
                    METRIC_BREAKER_FAST_FAILS,
                    dep,
                    "hop exchanges fast-failed by an open circuit breaker",
                ),
                budget_denied: s.counter(
                    METRIC_RETRY_BUDGET_DENIED,
                    dep,
                    "hop exchanges abandoned on an exhausted per-destination retry budget",
                ),
                deadline_givups: s.counter(
                    METRIC_DEADLINE_GIVUPS,
                    dep,
                    "hop exchanges abandoned because the operation deadline passed",
                ),
            }
        });
        f(cells)
    })
}

/// Pushes the per-exchange delta of a [`RetryStats`] record onto the
/// calling thread's shard of the global registry.
pub(crate) fn record_retry_delta(d: RetryStats) {
    if d == RetryStats::default() {
        return;
    }
    with_cells(|c| {
        c.attempts.add(d.attempts);
        c.lost.add(d.lost);
        c.timeouts.add(d.timeouts);
        c.undelivered.add(d.undelivered_aborts);
        c.breaker_fast_fails.add(d.breaker_fast_fails);
        c.budget_denied.add(d.budget_denied);
        c.deadline_givups.add(d.deadline_givups);
    });
}

/// Counts one abort that exhausted its retry budget undelivered.
pub(crate) fn record_undelivered_abort() {
    with_cells(|c| c.undelivered.inc());
}

/// Per-CServ admission/lifecycle counters plus an optional trace ring.
///
/// Built by [`crate::cserv::CServ::attach_telemetry`]; the tracer is
/// shared (`Arc`) so many CServs of one simulated topology can feed a
/// single chronological ring.
#[derive(Debug)]
pub struct CservTelemetry {
    /// SegR forward-pass admissions granted (fresh verdicts only).
    pub(crate) segr_admit_ok: Counter,
    /// SegR forward-pass admissions refused (fresh verdicts only).
    pub(crate) segr_admit_denied: Counter,
    /// EER forward-pass admissions granted (fresh verdicts only).
    pub(crate) eer_admit_ok: Counter,
    /// EER forward-pass admissions refused (fresh verdicts only).
    pub(crate) eer_admit_denied: Counter,
    /// Retried requests absorbed by the replay cache.
    pub(crate) replayed_verdicts: Counter,
    /// Fresh verdicts not memoized because the replay cache was at its cap
    /// (a retry of such a request is re-evaluated, not replayed).
    pub(crate) replay_cache_full: Counter,
    /// Tracked aborts that actually reverted recorded state.
    pub(crate) rollbacks: Counter,
    /// Renewal finalizations (SegR pending versions and EER versions).
    pub(crate) renewals: Counter,
    /// Post-crash state rebuilds.
    pub(crate) recoveries: Counter,
    /// Garbage-collection sweeps.
    pub(crate) gc_runs: Counter,
    /// Orphaned admissions reclaimed by the GC abort backstop.
    pub(crate) gc_orphans: Counter,
    /// Expiry-wheel entries examined by GC (∝ due entries of every kind
    /// — SegRs, EER allocations, owned reservations, cached verdicts —
    /// not live ones).
    pub(crate) gc_scanned: Counter,
    /// Expired SegR records dropped by GC.
    pub(crate) gc_expired: Counter,
    /// Admission requests shed with `Busy` (class backlog full).
    pub(crate) shed_busy: Counter,
    /// Admission requests shed because the deadline was unmeetable.
    pub(crate) shed_deadline: Counter,
    /// Shared event ring for control-plane operations.
    pub(crate) tracer: Option<Arc<Tracer>>,
}

impl CservTelemetry {
    /// Registers the CServ counters under `shard` in `registry`, with no
    /// tracer attached.
    pub fn new(registry: &Registry, shard: &str) -> Self {
        let s = registry.shard(shard);
        let dep = Stability::PathDependent;
        Self {
            segr_admit_ok: s.counter(
                "colibri_ctrl_segr_admit_ok_total",
                dep,
                "SegR hop admissions granted (fresh verdicts)",
            ),
            segr_admit_denied: s.counter(
                "colibri_ctrl_segr_admit_denied_total",
                dep,
                "SegR hop admissions refused (fresh verdicts)",
            ),
            eer_admit_ok: s.counter(
                "colibri_ctrl_eer_admit_ok_total",
                dep,
                "EER hop admissions granted (fresh verdicts)",
            ),
            eer_admit_denied: s.counter(
                "colibri_ctrl_eer_admit_denied_total",
                dep,
                "EER hop admissions refused (fresh verdicts)",
            ),
            replayed_verdicts: s.counter(
                "colibri_ctrl_replayed_verdicts_total",
                dep,
                "retried requests absorbed by the request-id replay cache",
            ),
            replay_cache_full: s.counter(
                "colibri_ctrl_replay_cache_full_total",
                dep,
                "fresh verdicts not memoized because the replay cache was at its cap",
            ),
            rollbacks: s.counter(
                "colibri_ctrl_rollbacks_total",
                dep,
                "tracked aborts that reverted a recorded admission",
            ),
            renewals: s.counter(
                "colibri_ctrl_renewals_total",
                dep,
                "renewal finalizations (SegR pending versions, EER versions)",
            ),
            recoveries: s.counter(
                "colibri_ctrl_recoveries_total",
                dep,
                "post-crash rebuilds of volatile control-plane state",
            ),
            gc_runs: s.counter(
                "colibri_ctrl_gc_runs_total",
                dep,
                "garbage-collection sweeps over the reservation store",
            ),
            gc_orphans: s.counter(
                "colibri_ctrl_gc_orphaned_admissions_total",
                dep,
                "orphaned admissions (undelivered aborts) reclaimed at expiry",
            ),
            gc_scanned: s.counter(
                "colibri_ctrl_gc_scanned_total",
                dep,
                "expiry-wheel entries examined by the garbage collector",
            ),
            gc_expired: s.counter(
                "colibri_ctrl_gc_expired_total",
                dep,
                "expired SegR records dropped by the garbage collector",
            ),
            shed_busy: s.counter(
                "colibri_ctrl_shed_busy_total",
                dep,
                "admission requests shed with Busy (class backlog full)",
            ),
            shed_deadline: s.counter(
                "colibri_ctrl_shed_deadline_total",
                dep,
                "admission requests shed because the propagated deadline was unmeetable",
            ),
            tracer: None,
        }
    }

    /// Attaches a shared trace ring; handler events are recorded into it
    /// with their virtual-clock timestamps.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }
}

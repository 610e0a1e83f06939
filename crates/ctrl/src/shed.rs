//! Deadline-aware load shedding for CServ admission.
//!
//! A real CServ has finite admission throughput; the paper's §4.2
//! rate-limiting hint and SIBRA's botnet evaluation both assume the
//! service can refuse work it cannot finish in time. This module gives
//! the passive, virtually-clocked `CServ` a *service model*: a bounded
//! virtual work queue with per-class backlogs drained in strict
//! priority order — renewals first (they keep existing traffic alive),
//! then new setups, then best-effort queries. A request is **shed**
//! with an explicit `Busy { retry_after }` verdict when its class
//! backlog is full, and shed *immediately* (before queueing) when the
//! propagated initiator deadline cannot be met — failing at the first
//! hop in microseconds instead of timing out end-to-end.
//!
//! The queue is virtual: nothing is actually buffered. Each admitted
//! request adds its service time to its class backlog; elapsed virtual
//! time drains the backlogs highest-priority-first. Overload injection
//! (the simulator inflating service times) scales the per-request cost
//! via `factor_milli`. All arithmetic is integer nanoseconds — two runs
//! over the same request sequence shed identically.

use colibri_base::{Duration, Instant};

/// Priority classes for admission work, highest priority first.
/// Renewals outrank new setups because dropping a renewal kills
/// established traffic, while a deferred setup merely starts late.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RequestClass {
    /// Renewal of an existing reservation (version > 0).
    Renewal = 0,
    /// First-time setup (version 0).
    NewSetup = 1,
    /// Best-effort queries (lookups, diagnostics).
    Query = 2,
}

const CLASSES: usize = 3;

/// Service-model knobs. The per-class capacity split is fixed by
/// policy: renewals may fill the whole backlog, new setups half of it,
/// queries a quarter — so a renewal storm can starve setups (by
/// design) but setups can never starve renewals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedConfig {
    /// Nominal service time per admission request.
    pub base_service: Duration,
    /// Total virtual backlog bound (the work queue depth in time).
    pub max_backlog: Duration,
    /// Floor for the `retry_after` hint handed to shed clients.
    pub min_retry_after: Duration,
}

impl Default for ShedConfig {
    fn default() -> Self {
        Self {
            base_service: Duration::from_micros(50),
            max_backlog: Duration::from_millis(10),
            min_retry_after: Duration::from_millis(50),
        }
    }
}

impl ShedConfig {
    /// Backlog capacity available to `class` (cumulative with every
    /// higher-priority class — see [`AdmissionQueue::offer`]).
    fn class_cap(&self, class: RequestClass) -> Duration {
        match class {
            RequestClass::Renewal => self.max_backlog,
            RequestClass::NewSetup => Duration::from_nanos(self.max_backlog.as_nanos() / 2),
            RequestClass::Query => Duration::from_nanos(self.max_backlog.as_nanos() / 4),
        }
    }
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedVerdict {
    /// Admitted into the virtual queue; processing may proceed.
    Admitted,
    /// Class backlog full: come back after `retry_after`.
    Busy {
        /// Earliest time the backlog is expected to have drained
        /// enough to admit this class again.
        retry_after: Duration,
    },
    /// The initiator's deadline cannot be met even if admitted now.
    DeadlineExceeded,
}

/// Monotone shed counters, exported for tests and telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShedStats {
    /// Requests admitted into the queue, per class.
    pub admitted: [u64; CLASSES],
    /// Requests shed with `Busy`, per class.
    pub shed_busy: [u64; CLASSES],
    /// Requests shed because the deadline was unmeetable, per class.
    pub shed_deadline: [u64; CLASSES],
}

impl ShedStats {
    /// Total requests shed for any reason.
    pub fn total_shed(&self) -> u64 {
        self.shed_busy.iter().sum::<u64>() + self.shed_deadline.iter().sum::<u64>()
    }

    /// Total requests admitted.
    pub fn total_admitted(&self) -> u64 {
        self.admitted.iter().sum()
    }
}

/// The bounded virtual admission queue of one CServ.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    cfg: ShedConfig,
    /// Outstanding virtual work per class.
    backlog: [Duration; CLASSES],
    /// When the backlogs were last drained forward.
    last_drain: Instant,
    /// Service-time multiplier in milli-units (1000 = nominal);
    /// overload injection raises it.
    factor_milli: u32,
    stats: ShedStats,
}

impl AdmissionQueue {
    /// An empty queue starting at `now`.
    pub fn new(cfg: ShedConfig, now: Instant) -> Self {
        Self {
            cfg,
            backlog: [Duration::ZERO; CLASSES],
            last_drain: now,
            factor_milli: 1000,
            stats: ShedStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ShedConfig {
        &self.cfg
    }

    /// Sets the service-time inflation factor (1000 = nominal). Used by
    /// the simulator's overload injection.
    pub fn set_factor_milli(&mut self, factor_milli: u32) {
        self.factor_milli = factor_milli.max(1);
    }

    /// The current inflation factor.
    pub fn factor_milli(&self) -> u32 {
        self.factor_milli
    }

    /// Shed counters.
    pub fn stats(&self) -> &ShedStats {
        &self.stats
    }

    /// Clears queued work (e.g. after a crash: in-flight admissions
    /// died with the process). Counters survive; the inflation factor
    /// is reset to nominal.
    pub fn reset(&mut self, now: Instant) {
        self.backlog = [Duration::ZERO; CLASSES];
        self.last_drain = now;
        self.factor_milli = 1000;
    }

    /// Effective service time of one request under the current factor.
    fn service_time(&self) -> Duration {
        Duration::from_nanos(
            (u128::from(self.cfg.base_service.as_nanos()) * u128::from(self.factor_milli) / 1000)
                .min(u128::from(u64::MAX)) as u64,
        )
    }

    /// Drains elapsed virtual time out of the backlogs, highest
    /// priority first (strict-priority service discipline).
    fn drain(&mut self, now: Instant) {
        let mut elapsed = now.saturating_since(self.last_drain);
        self.last_drain = self.last_drain.max(now);
        for b in self.backlog.iter_mut() {
            let served = if *b < elapsed { *b } else { elapsed };
            *b = b.saturating_sub(served);
            elapsed = elapsed.saturating_sub(served);
            if elapsed == Duration::ZERO {
                break;
            }
        }
    }

    /// Virtual wait a request of `class` would see before *its* service
    /// starts: everything queued at its priority or higher.
    fn wait_for(&self, class: RequestClass) -> Duration {
        self.backlog[..=class as usize]
            .iter()
            .fold(Duration::ZERO, |acc, b| acc.saturating_add(*b))
    }

    /// Offers a request to the queue. `deadline` is the initiator's
    /// propagated absolute deadline (`Instant::MAX` for none).
    pub fn offer(&mut self, class: RequestClass, now: Instant, deadline: Instant) -> ShedVerdict {
        self.drain(now);
        let svc = self.service_time();
        // Strict priority: this request only waits for work at its own
        // priority or higher, so its completion estimate uses that wait.
        let wait = self.wait_for(class);
        // Deadline check first: if this hop alone pushes completion past
        // the initiator's deadline, admitting it is pure waste.
        if deadline < Instant::MAX {
            let completion = now.saturating_add(wait).saturating_add(svc);
            if completion > deadline {
                self.stats.shed_deadline[class as usize] += 1;
                return ShedVerdict::DeadlineExceeded;
            }
        }
        // Capacity check: the *total* queued work may not exceed the
        // class's share of the backlog — renewals may fill it entirely,
        // setups half, queries a quarter. A renewal storm can therefore
        // starve new setups (by design), but never the other way around.
        let total = self.backlog.iter().fold(Duration::ZERO, |a, b| a.saturating_add(*b));
        if total.saturating_add(svc) > self.cfg.class_cap(class) {
            self.stats.shed_busy[class as usize] += 1;
            let retry_after = if wait > self.cfg.min_retry_after {
                wait
            } else {
                self.cfg.min_retry_after
            };
            return ShedVerdict::Busy { retry_after };
        }
        self.backlog[class as usize] = self.backlog[class as usize].saturating_add(svc);
        self.stats.admitted[class as usize] += 1;
        ShedVerdict::Admitted
    }

    /// Current per-class backlog (drained to `now`), for tests.
    pub fn backlog_at(&mut self, now: Instant) -> [Duration; CLASSES] {
        self.drain(now);
        self.backlog
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ShedConfig {
        ShedConfig {
            base_service: Duration::from_millis(2),
            max_backlog: Duration::from_millis(8),
            min_retry_after: Duration::from_millis(50),
        }
    }

    #[test]
    fn renewals_keep_admitting_after_setups_hit_their_cap() {
        let t = Instant::from_secs(1);
        let mut q = AdmissionQueue::new(cfg(), t);
        // Setups may hold at most 4 ms of the 8 ms backlog: two fit.
        assert_eq!(q.offer(RequestClass::NewSetup, t, Instant::MAX), ShedVerdict::Admitted);
        assert_eq!(q.offer(RequestClass::NewSetup, t, Instant::MAX), ShedVerdict::Admitted);
        assert!(matches!(
            q.offer(RequestClass::NewSetup, t, Instant::MAX),
            ShedVerdict::Busy { .. }
        ));
        // Renewals still fit — they may use the full backlog.
        assert_eq!(q.offer(RequestClass::Renewal, t, Instant::MAX), ShedVerdict::Admitted);
        assert_eq!(q.offer(RequestClass::Renewal, t, Instant::MAX), ShedVerdict::Admitted);
        // 4 ms renewal + 4 ms setup backlog = 8 ms: renewals now full too.
        assert!(matches!(
            q.offer(RequestClass::Renewal, t, Instant::MAX),
            ShedVerdict::Busy { .. }
        ));
        let s = q.stats();
        assert_eq!(s.admitted, [2, 2, 0]);
        assert_eq!(s.shed_busy, [1, 1, 0]);
    }

    #[test]
    fn backlog_drains_with_virtual_time_and_retry_after_is_honest() {
        let t = Instant::from_secs(1);
        let mut q = AdmissionQueue::new(cfg(), t);
        for _ in 0..2 {
            q.offer(RequestClass::NewSetup, t, Instant::MAX);
        }
        let verdict = q.offer(RequestClass::NewSetup, t, Instant::MAX);
        let ShedVerdict::Busy { retry_after } = verdict else {
            panic!("expected Busy, got {verdict:?}")
        };
        assert!(retry_after >= Duration::from_millis(4), "wait covers the queued work");
        // After the hinted wait the class admits again.
        let later = t + retry_after;
        assert_eq!(q.offer(RequestClass::NewSetup, later, Instant::MAX), ShedVerdict::Admitted);
    }

    #[test]
    fn unmeetable_deadlines_are_shed_before_queueing() {
        let t = Instant::from_secs(1);
        let mut q = AdmissionQueue::new(cfg(), t);
        q.offer(RequestClass::Renewal, t, Instant::MAX);
        // Completion would be t + 2ms (wait) + 2ms (service): a 3 ms
        // deadline is unmeetable, a 5 ms one is fine.
        assert_eq!(
            q.offer(RequestClass::Renewal, t, t + Duration::from_millis(3)),
            ShedVerdict::DeadlineExceeded
        );
        assert_eq!(
            q.offer(RequestClass::Renewal, t, t + Duration::from_millis(5)),
            ShedVerdict::Admitted
        );
        assert_eq!(q.stats().shed_deadline, [1, 0, 0]);
        // A deadline shed must not consume backlog.
        assert_eq!(q.backlog_at(t)[0], Duration::from_millis(4));
    }

    #[test]
    fn overload_injection_inflates_service_times() {
        let t = Instant::from_secs(1);
        let mut q = AdmissionQueue::new(cfg(), t);
        q.set_factor_milli(4000); // 4×: 8 ms per request
        // One request fills the whole renewal backlog.
        assert_eq!(q.offer(RequestClass::Renewal, t, Instant::MAX), ShedVerdict::Admitted);
        assert!(matches!(
            q.offer(RequestClass::Renewal, t, Instant::MAX),
            ShedVerdict::Busy { .. }
        ));
        // Setups cannot even fit a single inflated request.
        q.reset(t);
        q.set_factor_milli(4000);
        assert!(matches!(
            q.offer(RequestClass::NewSetup, t, Instant::MAX),
            ShedVerdict::Busy { .. }
        ));
        // Back to nominal, the queue behaves as before.
        q.reset(t);
        assert_eq!(q.offer(RequestClass::NewSetup, t, Instant::MAX), ShedVerdict::Admitted);
    }

    #[test]
    fn strict_priority_drain_serves_renewals_first() {
        let t = Instant::from_secs(1);
        let mut q = AdmissionQueue::new(cfg(), t);
        q.offer(RequestClass::Renewal, t, Instant::MAX);
        q.offer(RequestClass::NewSetup, t, Instant::MAX);
        // 2 ms elapses: the renewal backlog drains fully before any
        // setup work is served.
        let b = q.backlog_at(t + Duration::from_millis(2));
        assert_eq!(b[0], Duration::ZERO);
        assert_eq!(b[1], Duration::from_millis(2));
        let b = q.backlog_at(t + Duration::from_millis(4));
        assert_eq!(b[1], Duration::ZERO);
    }
}

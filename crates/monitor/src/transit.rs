//! The complete monitoring-and-policing pipeline of a transit/transfer AS
//! (paper §4.8, Fig. 1c ➍).
//!
//! Per packet:
//!
//! 1. blocked source AS? → drop (policing measure i);
//! 2. duplicate? → drop (replay suppression, §2.3);
//! 3. feed the probabilistic OFD; newly suspicious flows enter the
//!    deterministic watchlist;
//! 4. watched flows are measured exactly; a confirmed overuse verdict
//!    blocks the source AS and emits a report for the local CServ, which
//!    can deny the offender future reservations (policing measure ii).
//!
//! The pipeline is deliberately a separate object from the border router's
//! cryptographic checks: the router first authenticates (bogus packets
//! never reach monitoring state), then monitors.

use crate::blocklist::Blocklist;
use crate::ofd::{normalized_ns, OfdConfig, OveruseFlowDetector};
use crate::replay::{ReplaySuppressor, ReplayVerdict};
use crate::watchlist::{Verdict, Watchlist};
use colibri_base::{Bandwidth, Duration, Instant, IsdAsId, ReservationKey};
use colibri_telemetry::{Counter, Gauge, Registry, Stability};

/// Configuration of the transit monitoring pipeline.
#[derive(Debug, Clone, Copy)]
pub struct TransitMonitorConfig {
    /// OFD sketch parameters.
    pub ofd: OfdConfig,
    /// Deterministic confirmation window.
    pub confirm_window: Duration,
    /// Tolerance above nominal bandwidth before confirming overuse.
    pub confirm_tolerance: f64,
    /// Maximum concurrently watched flows.
    pub watch_capacity: usize,
    /// Replay-filter size (log2 bits per block).
    pub replay_log2_bits: u32,
    /// Replay-filter rotation window.
    pub replay_window: Duration,
    /// How long a confirmed offender's AS stays blocked (`None` = forever).
    pub block_duration: Option<Duration>,
}

impl Default for TransitMonitorConfig {
    fn default() -> Self {
        Self {
            ofd: OfdConfig::default(),
            confirm_window: Duration::from_millis(100),
            confirm_tolerance: 0.05,
            watch_capacity: 1024,
            replay_log2_bits: 20,
            replay_window: Duration::from_secs(2),
            block_duration: Some(Duration::from_secs(300)),
        }
    }
}

/// The action the data plane must take for a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorAction {
    /// Forward normally.
    Forward,
    /// Drop: the source AS is on the blocklist.
    DropBlocked,
    /// Drop: duplicate (replayed) packet.
    DropDuplicate,
    /// Drop: the flow is under deterministic shaping and exceeded its
    /// reserved bandwidth (Table 2 phase 3: "limited to the guaranteed
    /// bandwidth … without impacting the well-behaved reservation").
    DropShaped,
}

/// An overuse report destined for the local Colibri service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OveruseReport {
    /// The offending reservation.
    pub key: ReservationKey,
    /// Bytes observed in the confirmation window.
    pub observed_bytes: u64,
    /// Bytes the reservation allowed.
    pub allowed_bytes: u64,
    /// When overuse was confirmed.
    pub at: Instant,
}

/// Telemetry handles for one [`TransitMonitor`] instance.
///
/// All counters are [`Stability::Invariant`]: the monitor is driven in
/// strict submission order by both the scalar and the batched router
/// path, so the detection sequence — OFD flags, watchlist insertions,
/// overuse confirmations, blocklist insertions — is identical between
/// them. The watched-flows gauge tracks watchlist occupancy (churn is
/// the insertion counter against the gauge level).
#[derive(Debug, Clone)]
pub struct MonitorTelemetry {
    ofd_flags: Counter,
    watch_insertions: Counter,
    overuse_confirmed: Counter,
    blocklist_insertions: Counter,
    watched_flows: Gauge,
}

impl MonitorTelemetry {
    /// Registers the monitor metrics under `shard` in `registry`.
    pub fn new(registry: &Registry, shard: &str) -> Self {
        let s = registry.shard(shard);
        Self {
            ofd_flags: s.counter(
                "colibri_monitor_ofd_flags_total",
                Stability::Invariant,
                "packets the probabilistic OFD sketch flagged as suspicious",
            ),
            watch_insertions: s.counter(
                "colibri_monitor_watch_insertions_total",
                Stability::Invariant,
                "flows moved onto the deterministic watchlist",
            ),
            overuse_confirmed: s.counter(
                "colibri_monitor_overuse_confirmed_total",
                Stability::Invariant,
                "overuse verdicts confirmed by exact measurement",
            ),
            blocklist_insertions: s.counter(
                "colibri_monitor_blocklist_insertions_total",
                Stability::Invariant,
                "source-AS blocklist insertions (confirmed overuse and manual blocks)",
            ),
            watched_flows: s.gauge(
                "colibri_monitor_watched_flows",
                Stability::PathDependent,
                "flows currently on the deterministic watchlist",
            ),
        }
    }
}

/// The transit-AS monitoring pipeline.
#[derive(Debug)]
pub struct TransitMonitor {
    cfg: TransitMonitorConfig,
    ofd: OveruseFlowDetector,
    watchlist: Watchlist,
    replay: ReplaySuppressor,
    blocklist: Blocklist,
    /// Flows under deterministic shaping: excess traffic is dropped
    /// per-packet instead of blocking the whole source AS. The paper's
    /// Table 2 phase 3 operates the router in this state.
    shaped: std::collections::HashMap<ReservationKey, crate::token_bucket::TokenBucket>,
    reports: Vec<OveruseReport>,
    telemetry: Option<MonitorTelemetry>,
}

impl TransitMonitor {
    /// Creates the pipeline.
    pub fn new(cfg: TransitMonitorConfig) -> Self {
        Self {
            ofd: OveruseFlowDetector::new(cfg.ofd),
            watchlist: Watchlist::new(cfg.confirm_window, cfg.confirm_tolerance, cfg.watch_capacity),
            replay: ReplaySuppressor::new(cfg.replay_log2_bits, cfg.replay_window),
            blocklist: Blocklist::new(),
            shaped: std::collections::HashMap::new(),
            reports: Vec::new(),
            telemetry: None,
            cfg,
        }
    }

    /// Attaches detection telemetry, registered under `shard` in
    /// `registry`. Detached (the default) costs nothing on the packet
    /// path.
    pub fn attach_telemetry(&mut self, registry: &Registry, shard: &str) {
        self.telemetry = Some(MonitorTelemetry::new(registry, shard));
    }

    /// Processes one *authenticated* EER packet.
    ///
    /// `bw` is the bandwidth decoded from the packet's `Bw` header field —
    /// trustworthy because it is covered by the HVF the router just
    /// verified. `ts` is the packet's high-precision timestamp.
    pub fn process_packet(
        &mut self,
        key: ReservationKey,
        bw: Bandwidth,
        pkt_bytes: u64,
        ts: u64,
        now: Instant,
    ) -> MonitorAction {
        if self.blocklist.is_blocked(key.src_as, now) {
            return MonitorAction::DropBlocked;
        }
        let uid = ReplaySuppressor::packet_uid(key, ts);
        if self.replay.check_and_insert(uid, now) == ReplayVerdict::Duplicate {
            return MonitorAction::DropDuplicate;
        }
        // Deterministic shaping (Table 2 phase 3): flows placed under
        // exact token-bucket policing are limited to their reservation.
        if let Some(bucket) = self.shaped.get_mut(&key) {
            if !bucket.try_consume(pkt_bytes, now) {
                return MonitorAction::DropShaped;
            }
            return MonitorAction::Forward;
        }
        // Probabilistic stage.
        let suspicious = self.ofd.observe(key, normalized_ns(pkt_bytes, bw), now);
        if suspicious {
            if let Some(t) = &self.telemetry {
                t.ofd_flags.inc();
            }
            if !self.watchlist.is_watched(key) {
                self.watchlist.watch(key, bw, now);
                if let Some(t) = &self.telemetry {
                    t.watch_insertions.inc();
                    t.watched_flows.set(self.watchlist.len() as u64);
                }
            }
        }
        // Deterministic stage for watched flows. The occupancy gauge only
        // moves on insertion (above) and on a verdict (which removes the
        // flow), so the clean forward path touches no telemetry cells.
        let verdict = self.watchlist.observe(key, pkt_bytes, now);
        if verdict.is_some() {
            if let Some(t) = &self.telemetry {
                t.watched_flows.set(self.watchlist.len() as u64);
            }
        }
        if let Some(Verdict::Overuse { observed_bytes, allowed_bytes }) = verdict {
            let until = self.cfg.block_duration.map(|d| now + d);
            self.blocklist.block(key.src_as, until);
            if let Some(t) = &self.telemetry {
                t.overuse_confirmed.inc();
                t.blocklist_insertions.inc();
            }
            self.reports.push(OveruseReport { key, observed_bytes, allowed_bytes, at: now });
            return MonitorAction::DropBlocked;
        }
        MonitorAction::Forward
    }

    /// Drains the pending overuse reports (for delivery to the CServ).
    pub fn take_reports(&mut self) -> Vec<OveruseReport> {
        std::mem::take(&mut self.reports)
    }

    /// Whether an AS is currently blocked.
    pub fn is_blocked(&mut self, src_as: IsdAsId, now: Instant) -> bool {
        self.blocklist.is_blocked(src_as, now)
    }

    /// Manually blocks an AS (e.g. on instruction from the CServ).
    pub fn block(&mut self, src_as: IsdAsId, until: Option<Instant>) {
        self.blocklist.block(src_as, until);
        if let Some(t) = &self.telemetry {
            t.blocklist_insertions.inc();
        }
    }

    /// Places a flow under deterministic token-bucket shaping at its
    /// reserved bandwidth (the state Table 2 phase 3 simulates for flows
    /// the OFD flagged as suspicious).
    pub fn force_shape(&mut self, key: ReservationKey, bw: Bandwidth, now: Instant) {
        self.shaped.insert(
            key,
            crate::token_bucket::TokenBucket::with_burst_duration(
                bw,
                Duration::from_millis(20),
                now,
            ),
        );
    }

    /// Manually unblocks an AS.
    pub fn unblock(&mut self, src_as: IsdAsId) {
        self.blocklist.unblock(src_as);
    }

    /// Direct access to the watchlist size (observability/tests).
    pub fn watched_flows(&self) -> usize {
        self.watchlist.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colibri_base::{IsdAsId, ResId};

    fn key(asn: u32, rid: u32) -> ReservationKey {
        ReservationKey::new(IsdAsId::new(1, asn), ResId(rid))
    }

    fn cfg() -> TransitMonitorConfig {
        TransitMonitorConfig {
            confirm_window: Duration::from_millis(50),
            ..TransitMonitorConfig::default()
        }
    }

    /// Sends `rate`-shaped traffic for `dur`; returns (forwarded, dropped).
    fn drive(
        tm: &mut TransitMonitor,
        k: ReservationKey,
        bw: Bandwidth,
        rate: Bandwidth,
        dur: Duration,
        start: Instant,
    ) -> (u64, u64) {
        let pkt = 1250u64;
        let gap = Duration::from_nanos(rate.transmit_time_ns(pkt));
        let mut now = start;
        let end = start + dur;
        let (mut fwd, mut drop) = (0, 0);
        let mut ts = 0u64;
        while now < end {
            ts += 1;
            match tm.process_packet(k, bw, pkt, ts, now) {
                MonitorAction::Forward => fwd += 1,
                _ => drop += 1,
            }
            now += gap;
        }
        (fwd, drop)
    }

    #[test]
    fn compliant_flow_forwards_everything() {
        let mut tm = TransitMonitor::new(cfg());
        let bw = Bandwidth::from_mbps(100);
        let (fwd, drop) =
            drive(&mut tm, key(10, 1), bw, bw, Duration::from_millis(400), Instant::from_nanos(1));
        assert_eq!(drop, 0);
        assert!(fwd > 0);
        assert!(tm.take_reports().is_empty());
    }

    #[test]
    fn overuse_confirmed_then_blocked() {
        let mut tm = TransitMonitor::new(cfg());
        let bw = Bandwidth::from_mbps(100);
        let (fwd, drop) = drive(
            &mut tm,
            key(10, 1),
            bw,
            Bandwidth::from_mbps(400),
            Duration::from_millis(400),
            Instant::from_nanos(1),
        );
        assert!(drop > 0, "overusing flow never dropped (fwd={fwd})");
        let reports = tm.take_reports();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].observed_bytes > reports[0].allowed_bytes);
        assert!(tm.is_blocked(IsdAsId::new(1, 10), Instant::from_millis(401)));
        // All subsequent traffic from that AS is dropped, even other flows.
        assert_eq!(
            tm.process_packet(key(10, 2), bw, 100, 9_999, Instant::from_millis(401)),
            MonitorAction::DropBlocked
        );
    }

    #[test]
    fn block_expires() {
        let mut tm = TransitMonitor::new(TransitMonitorConfig {
            block_duration: Some(Duration::from_secs(1)),
            ..cfg()
        });
        tm.block(IsdAsId::new(1, 10), Some(Instant::from_secs(1)));
        assert!(tm.is_blocked(IsdAsId::new(1, 10), Instant::from_millis(500)));
        assert!(!tm.is_blocked(IsdAsId::new(1, 10), Instant::from_secs(2)));
    }

    #[test]
    fn replayed_packet_dropped_source_not_framed() {
        // An on-path adversary replays a captured packet many times. The
        // duplicates are dropped *before* reaching the OFD, so the honest
        // source is never flagged (paper §5.1, framing DoS).
        let mut tm = TransitMonitor::new(cfg());
        let bw = Bandwidth::from_mbps(100);
        let k = key(10, 1);
        let now = Instant::from_nanos(1);
        assert_eq!(tm.process_packet(k, bw, 1250, 77, now), MonitorAction::Forward);
        for _ in 0..100_000 {
            assert_eq!(tm.process_packet(k, bw, 1250, 77, now), MonitorAction::DropDuplicate);
        }
        assert!(tm.take_reports().is_empty());
        assert!(!tm.is_blocked(IsdAsId::new(1, 10), now));
    }

    #[test]
    fn other_sources_unaffected_by_offender() {
        let mut tm = TransitMonitor::new(cfg());
        let bw = Bandwidth::from_mbps(100);
        // Offender from AS 10.
        drive(
            &mut tm,
            key(10, 1),
            bw,
            Bandwidth::from_mbps(500),
            Duration::from_millis(300),
            Instant::from_nanos(1),
        );
        // Honest flow from AS 11 still forwards fully afterwards.
        let (fwd, drop) = drive(
            &mut tm,
            key(11, 1),
            bw,
            bw,
            Duration::from_millis(200),
            Instant::from_millis(301),
        );
        assert_eq!(drop, 0);
        assert!(fwd > 0);
    }
}

//! Telemetry bindings for the data-plane components (DESIGN.md §11).
//!
//! Instrumentation is **detached by default**: a freshly constructed
//! [`crate::BorderRouter`] / [`crate::Gateway`] carries `None` and pays a
//! single predictable branch per packet. `attach_telemetry` registers the
//! component's metrics under an explicit shard label in a caller-owned
//! [`Registry`] — per-instance registries keep tests isolated, and the
//! `parallel` drivers register one shard per worker so scrapes show both
//! the per-shard split and the cross-shard merge.
//!
//! The router records its verdict counters as **deltas of its
//! [`RouterStats`]** at the end of `process`/`process_batch` rather than
//! touching atomics per packet: the stats are already proven identical
//! between the scalar and batched paths by the differential proptests,
//! so the exported Invariant metrics inherit that equality for free, and
//! the hot-path cost collapses to a handful of relaxed `fetch_add`s per
//! *batch* (the ≤2 % throughput gate of `repro pipeline`).
//!
//! Both latency histograms read the wall clock for one event in
//! [`CLOCK_SAMPLE`] — one `process_batch` call of a router, one packet of
//! a gateway. Two clock reads and a histogram update are ≈75–100 ns:
//! about 1 % of a 64-packet router batch, but ≈40 % of a short-path
//! gateway packet if paid on every one.

use crate::router::RouterStats;
use colibri_telemetry::{Counter, Histogram, Registry, Stability};

/// Routers time one `process_batch` call, and gateways one packet, in
/// this many.
pub(crate) const CLOCK_SAMPLE: u64 = 8;

/// Counts one event in `count`; true for the events whose wall clock is
/// read (the first, then every [`CLOCK_SAMPLE`]-th).
#[inline]
fn clock_sampled(count: &mut u64) -> bool {
    *count += 1;
    *count % CLOCK_SAMPLE == 1
}

/// Telemetry handles for one [`crate::BorderRouter`] instance.
#[derive(Debug)]
pub struct RouterTelemetry {
    forwarded: Counter,
    parse_errors: Counter,
    expired: Counter,
    stale: Counter,
    bad_hvf: Counter,
    blocked: Counter,
    duplicates: Counter,
    shaped: Counter,
    batch_size: Histogram,
    batch_ns: Histogram,
    /// `process_batch` calls so far, for the clock sample.
    batches: u64,
    last_stats: RouterStats,
}

impl RouterTelemetry {
    /// Registers the router metrics under `shard` in `registry`.
    pub fn new(registry: &Registry, shard: &str) -> Self {
        let s = registry.shard(shard);
        let inv = Stability::Invariant;
        let dep = Stability::PathDependent;
        Self {
            forwarded: s.counter(
                "colibri_router_forwarded_total",
                inv,
                "packets forwarded or delivered by the border router",
            ),
            parse_errors: s.counter(
                "colibri_router_drop_parse_total",
                inv,
                "drops: malformed packet",
            ),
            expired: s.counter(
                "colibri_router_drop_expired_total",
                inv,
                "drops: reservation expired",
            ),
            stale: s.counter(
                "colibri_router_drop_stale_total",
                inv,
                "drops: timestamp outside the freshness window",
            ),
            bad_hvf: s.counter(
                "colibri_router_drop_bad_hvf_total",
                inv,
                "drops: hop validation field failed to verify",
            ),
            blocked: s.counter(
                "colibri_router_drop_blocked_total",
                inv,
                "drops: source AS blocklisted",
            ),
            duplicates: s.counter(
                "colibri_router_drop_duplicate_total",
                inv,
                "drops: replayed packet",
            ),
            shaped: s.counter(
                "colibri_router_drop_shaped_total",
                inv,
                "drops: deterministically shaped flow over its rate",
            ),
            batch_size: s.histogram(
                "colibri_router_batch_size",
                dep,
                "packets per process_batch call",
            ),
            batch_ns: s.histogram(
                "colibri_router_batch_ns",
                Stability::Volatile,
                "wall-clock nanoseconds per process_batch call (one call in 8 is timed)",
            ),
            batches: 0,
            last_stats: RouterStats::default(),
        }
    }

    /// Pushes the delta between the router's current stats and the last
    /// recorded baseline onto the registry cells.
    pub(crate) fn record(&mut self, stats: &RouterStats) {
        let d = stats.delta_since(&self.last_stats);
        self.forwarded.add(d.forwarded);
        self.parse_errors.add(d.parse_errors);
        self.expired.add(d.expired);
        self.stale.add(d.stale);
        self.bad_hvf.add(d.bad_hvf);
        self.blocked.add(d.blocked);
        self.duplicates.add(d.duplicates);
        self.shaped.add(d.shaped);
        self.last_stats = *stats;
    }

    /// Counts a `process_batch` call; true for the calls whose wall
    /// clock is sampled.
    #[inline]
    pub(crate) fn time_batch(&mut self) -> bool {
        clock_sampled(&mut self.batches)
    }

    #[inline]
    pub(crate) fn observe_batch(&self, len: usize, wall_ns: Option<u64>) {
        self.batch_size.observe(len as u64);
        if let Some(ns) = wall_ns {
            self.batch_ns.observe(ns);
        }
    }
}

/// Telemetry handles for one [`crate::Gateway`] instance.
#[derive(Debug)]
pub struct GatewayTelemetry {
    pub(crate) forwarded: Counter,
    pub(crate) rate_limited: Counter,
    pub(crate) rejected: Counter,
    pub(crate) stamp_ns: Histogram,
    /// `process_into` calls so far, for the clock sample.
    packets: u64,
}

impl GatewayTelemetry {
    /// Registers the gateway metrics under `shard` in `registry`.
    pub fn new(registry: &Registry, shard: &str) -> Self {
        let s = registry.shard(shard);
        Self {
            forwarded: s.counter(
                "colibri_gateway_forwarded_total",
                Stability::Invariant,
                "packets stamped and forwarded by the gateway",
            ),
            rate_limited: s.counter(
                "colibri_gateway_rate_limited_total",
                Stability::Invariant,
                "packets dropped by deterministic token-bucket monitoring",
            ),
            rejected: s.counter(
                "colibri_gateway_rejected_total",
                Stability::Invariant,
                "packets rejected (unknown/expired reservation, wrong host)",
            ),
            stamp_ns: s.histogram(
                "colibri_gateway_stamp_ns",
                Stability::Volatile,
                "wall-clock nanoseconds to stamp one packet (one packet in 8 is timed)",
            ),
            packets: 0,
        }
    }

    /// Counts a `process_into` call; true for the calls whose wall clock
    /// is sampled.
    #[inline]
    pub(crate) fn time_packet(&mut self) -> bool {
        clock_sampled(&mut self.packets)
    }
}

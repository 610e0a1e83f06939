//! Hierarchical per-tenant QoS for the Colibri gateway (DESIGN.md §16).
//!
//! The gateway is the one stateful box of the data plane (paper §3.2,
//! §4.6): every end-host packet crosses it, and the paper's deterministic
//! monitoring is a *flat* per-reservation token bucket. This crate deepens
//! that into a LibreQoS-style **hierarchy token bucket** spanning four
//! levels:
//!
//! ```text
//!   uplink (link capacity)
//!   └─ traffic class        (Colibri control / Colibri data / best-effort)
//!      └─ reservation       (one node per installed EER / tenant)
//!         └─ host / flow    (leaf queues, DRR-fair, codel AQM on BE)
//! ```
//!
//! Two facets share the tree:
//!
//! * **Conformance** ([`Qdisc::admit`]) — the gateway's inline per-packet
//!   verdict. The reservation-level bucket *is* the paper's monitoring
//!   function (§4.8); optional per-host caps subdivide a reservation
//!   between its hosts. With the hierarchy degenerate (no uplink cap, no
//!   host caps) the verdict sequence is **bit-identical** to the flat
//!   [`colibri_monitor::TokenBucket`] path — the nodes *are* that type,
//!   so equality holds by construction and is proven by differential
//!   proptests.
//! * **Scheduling** ([`Qdisc::enqueue`] / [`Qdisc::service`]) — a
//!   deterministic virtual-clock uplink scheduler: strict priority across
//!   classes (control → data → best-effort), deficit-round-robin across
//!   sibling leaves, **scavenging** of unused reserved bandwidth into the
//!   best-effort class (no bandwidth is wasted, paper §3.4/Appendix B),
//!   and a codel-style AQM (sojourn-time target/interval, head drop,
//!   deterministic control law, no ECN) on best-effort leaf queues.
//!
//! Everything runs on the workspace's deterministic time model
//! ([`colibri_base::Instant`]): no wall clock, no floating point on the
//! per-packet path, bit-replayable under the fairness property suite
//! (tenant isolation, no token creation, fair refill, burst ≤ capacity —
//! the `RateLimiterFairness` invariants).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codel;
pub mod htb;
pub mod sched;
pub mod telemetry;

pub use codel::{Codel, CodelConfig};
pub use htb::{
    AdmitError, AuditReport, ClassShares, HtbConfig, Qdisc, QdiscStats, ServiceRound,
};
pub use sched::{EnqueueError, LeafId};
pub use telemetry::QdiscTelemetry;

/// The three traffic classes of Appendix B, in strict priority order.
///
/// This is the class level of the hierarchy; `colibri-dataplane`
/// re-exports it so the rest of the workspace keeps one definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrafficClass {
    /// Colibri control traffic (SegReqs/EEReqs over reservations): highest
    /// priority, tiny volume.
    ColibriControl,
    /// Colibri EER data traffic: admitted, authenticated, monitored.
    ColibriData,
    /// Everything else; scavenges unused Colibri bandwidth.
    BestEffort,
}

impl TrafficClass {
    /// All classes in strict scheduling/scavenging priority order.
    pub const ALL: [TrafficClass; 3] =
        [TrafficClass::ColibriControl, TrafficClass::ColibriData, TrafficClass::BestEffort];

    /// Dense index (0 = control, 1 = data, 2 = best-effort), matching the
    /// order of [`TrafficClass::ALL`] and every `[u64; 3]` stats array in
    /// this crate.
    pub const fn index(self) -> usize {
        match self {
            TrafficClass::ColibriControl => 0,
            TrafficClass::ColibriData => 1,
            TrafficClass::BestEffort => 2,
        }
    }
}

/// One-interval class-level allocation with scavenging, in closed form
/// over byte counts: the same two-phase rule [`Qdisc::service`] applies
/// per round to the [`ClassShares`] guarantees.
///
/// Arrays are indexed by [`TrafficClass::index`]. Semantics (per
/// scheduling interval of a link with byte budget `budget`):
///
/// 1. every class is served up to its guaranteed share;
/// 2. leftover budget (from classes offering less than their guarantee)
///    is granted in priority order control → data → best-effort, which in
///    the common case means best-effort scavenges all unused Colibri
///    bandwidth.
///
/// The granted total never exceeds `budget` and never exceeds what was
/// offered (no bytes out of thin air).
pub fn scavenge_allocate(budget: u64, guaranteed: [u64; 3], offered: [u64; 3]) -> [u64; 3] {
    let mut served = [0u64; 3];
    for i in 0..3 {
        served[i] = offered[i].min(guaranteed[i]);
    }
    let mut leftover = budget.saturating_sub(served.iter().sum());
    // Scavenging in strict priority order.
    for i in 0..3 {
        let want = offered[i] - served[i];
        let extra = want.min(leftover);
        served[i] += extra;
        leftover -= extra;
    }
    served
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_order_and_index_agree() {
        for (i, c) in TrafficClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn scavenge_allocate_respects_budget_and_offers() {
        let g = [50, 750, 200];
        let s = scavenge_allocate(1000, g, [0, 0, 5000]);
        assert_eq!(s, [0, 0, 1000], "idle Colibri classes are fully scavenged");
        let s = scavenge_allocate(1000, g, [100, 950, 0]);
        assert_eq!(s[0], 100, "control scavenges first");
        assert_eq!(s[1], 900);
        let s = scavenge_allocate(1000, g, [u64::MAX / 4, u64::MAX / 4, u64::MAX / 4]);
        assert!(s.iter().sum::<u64>() <= 1000);
        assert_eq!(scavenge_allocate(1000, g, [10, 500, 200]), [10, 500, 200], "underload");
        let s = scavenge_allocate(1000, g, [0, 30, 100_000]);
        assert_eq!(s, [0, 30, 970], "reserved data untouched by a best-effort flood");
        let s = scavenge_allocate(1000, g, [0, 900, 900]);
        assert_eq!(s, [0, 800, 200], "data takes idle control share; best-effort keeps its floor");
    }
}

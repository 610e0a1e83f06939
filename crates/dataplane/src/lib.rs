//! The Colibri data plane (paper §3.4, §4.6): gateway, border router, and
//! the shard pools that run them across cores.
//!
//! * [`gateway`] — the stateful edge component: maps `ResId` → reservation
//!   state, monitors deterministically, stamps timestamps and per-AS hop
//!   validation fields (Eq. 6);
//! * [`router`] — the per-flow-stateless border router: validates format,
//!   freshness, expiry, and the HVF recomputed per packet from the AS
//!   secret, then forwards via packet-carried state; runs the transit
//!   monitoring pipeline;
//! * [`control`] — stamping control packets onto SegRs with their tokens;
//! * [`parallel`] — the shard pools' shared ring pairs, the reservation →
//!   shard hash, and the parallel gateway (paper §7.2);
//! * [`supervisor`] — the router shard pool: reservation-ID steering,
//!   panic isolation, kill/respawn, class-aware shedding (Appendix B) and
//!   an exact packet ledger;
//! * [`telemetry`] — opt-in bindings onto the `colibri-telemetry`
//!   registry: verdict/outcome counters and batch/latency
//!   histograms, recorded as stats-struct deltas so the Invariant
//!   metrics stay bit-identical between the scalar and batched paths
//!   (DESIGN.md §11).
//!
//! The traffic classes of Appendix B live in `colibri-qdisc`;
//! [`TrafficClass`] is re-exported from there.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod gateway;
pub mod parallel;
pub mod router;
pub mod supervisor;
pub mod telemetry;

pub use colibri_qdisc::TrafficClass;
pub use control::stamp_segr_packet;
pub use gateway::{Gateway, GatewayConfig, GatewayError, GatewayStats, QosMode, StampedPacket};
pub use parallel::{shard_index, GatewayPoolSnapshot, ParallelGateway, StampedOutput, SubmitError};
pub use router::{BorderRouter, DropReason, RouterConfig, RouterStats, RouterVerdict, SigmaStats};
pub use supervisor::{
    RoutedOutput, RouterPoolSnapshot, RouterShardSnapshot, ShardHealthReport, ShardOutcome,
    ShardRouterPool, SubmitVerdict,
};
pub use telemetry::{GatewayTelemetry, RouterTelemetry};

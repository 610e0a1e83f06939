//! The Colibri control plane (paper §3.3, §4.2–4.5, §4.7).
//!
//! Every AS runs a Colibri service ([`cserv::CServ`]) that admits segment
//! reservations with the O(1) memoized bounded-tube-fairness algorithm
//! ([`admission`]), admits end-to-end reservations with constant-time
//! SegR-headroom checks ([`eer`]), stores reservation state ([`store`]),
//! authenticates control messages with DRKey MACs ([`messages`]), and
//! enforces intra-AS policies ([`policy`]). Multi-AS setup flows are
//! orchestrated by [`setup`], with one channel-aware driver per operation
//! that moves every hop exchange over a [`reliable::ControlChannel`]; the
//! plain-named functions are those drivers over the lossless
//! [`reliable::PerfectChannel`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cserv;
pub mod distributed;
pub mod eer;
pub mod messages;
pub mod overload;
pub mod policy;
pub mod reliable;
pub mod setup;
pub mod shed;
pub mod store;
pub mod telemetry;
pub mod timeline;

pub use admission::{
    AdmissionError, AggregateSnapshot, SegrAdmission, SegrAdmissionConfig, SegrRequest,
};
pub use cserv::{CServ, CservConfig, CservError};
pub use eer::{EerError, SegrUsage, TransferSplit};
pub use messages::{CtrlMsg, EerSetupReq, EerSetupResp, SegSetupReq, SegSetupResp};
pub use overload::{
    BreakerState, DestStats, GuardedChannel, OverloadConfig, OverloadControl,
};
pub use policy::{AllowAll, DenyAll, EerPolicy, PerHostCap};
pub use reliable::{
    ControlChannel, Delivery, FastFailReason, PerfectChannel, Preflight, RetryPolicy, RetryStats,
};
pub use shed::{AdmissionQueue, RequestClass, ShedConfig, ShedStats, ShedVerdict};
pub use setup::{
    activate_segr, activate_segr_with, master_secret_for, renew_eer, renew_eer_adaptive,
    renew_eer_adaptive_with, renew_eer_with, renew_segr, renew_segr_with, setup_eer,
    setup_eer_with, setup_segr, setup_segr_at, setup_segr_with, teardown_segr, CservRegistry,
    EerGrant, SegrGrant, SetupError,
};
pub use store::{
    GcStats, OwnedEer, OwnedEerVersion, OwnedSegr, PendingOwned, ReservationStore, SegrRecord,
};
pub use telemetry::CservTelemetry;
pub use timeline::{ExpiryWheel, Timeline, TimelineError};
pub use distributed::{DistributedCServ, DistributedError, EerAdmitRequest};

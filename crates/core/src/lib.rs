//! # Colibri — a cooperative lightweight inter-domain bandwidth-reservation infrastructure
//!
//! A from-scratch Rust implementation of the system described in
//! *"Colibri: A Cooperative Lightweight Inter-domain Bandwidth-Reservation
//! Infrastructure"* (Giuliari et al., CoNEXT 2021), including every
//! substrate it depends on: a SCION-style path-aware topology with
//! beaconed segments, the DRKey symmetric-key infrastructure, the packet
//! wire format with per-AS hop validation fields, the control plane
//! (CServ with O(1) bounded-tube-fairness admission), the data plane
//! (stateful gateway, stateless border router), monitoring and policing
//! (token buckets, probabilistic overuse detection, replay suppression,
//! blocklists), and a discrete-event simulator reproducing the paper's
//! protection experiment.
//!
//! ## Quick start
//!
//! ```
//! use colibri::prelude::*;
//!
//! // 1. A two-ISD sample topology with beaconed segments.
//! let sample = colibri::topology::gen::sample_two_isd();
//! let now = Instant::from_secs(1);
//!
//! // 2. One Colibri service per AS.
//! let mut reg = CservRegistry::provision(&sample.topo, CservConfig::default());
//!
//! // 3. Reserve the up-segment leaf-A → core-11 (a SegR), then carve an
//! //    end-to-end reservation (EER) out of it.
//! let up = sample.segments.up_segments(sample.leaf_a, sample.core_11)[0].clone();
//! let segr = setup_segr(&mut reg, &up, Bandwidth::from_gbps(1), Bandwidth::from_mbps(1), now)
//!     .expect("segment reservation");
//! let path = colibri::topology::stitch(std::slice::from_ref(&up)).unwrap();
//! let hosts = EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) };
//! let eer = setup_eer(&mut reg, &path, &[segr.key], hosts, Bandwidth::from_mbps(100), now)
//!     .expect("end-to-end reservation");
//!
//! // 4. The source AS's gateway stamps packets; a border router anywhere
//! //    on the path verifies them statelessly.
//! let mut gateway = Gateway::new(GatewayConfig::default());
//! let owned = reg.get(sample.leaf_a).unwrap().store().owned_eer(eer.key).unwrap().clone();
//! gateway.install(&owned, now);
//! let stamped = gateway.process(HostAddr(1), eer.key.res_id, b"hello", now).unwrap();
//!
//! let mut router = BorderRouter::new(
//!     sample.leaf_a,
//!     &master_secret_for(sample.leaf_a),
//!     RouterConfig::default(),
//! );
//! let mut pkt = stamped.bytes;
//! assert!(matches!(router.process(&mut pkt, now), RouterVerdict::Forward(_)));
//! ```
//!
//! ## Crate map
//!
//! | module | contents | paper section |
//! |---|---|---|
//! | [`base`] | identifiers, time, bandwidth | — |
//! | [`crypto`] | AES-128, CMAC, AEAD, DRKey | §2.3, §4.5 |
//! | [`wire`] | packet format, MAC encodings | §4.3, Eqs. 2–6 |
//! | [`topology`] | ISDs, segments, beaconing, stitching | §2.1–2.2 |
//! | [`ctrl`] | CServ, admission, reservations | §3.3, §4.2–4.5, §4.7 |
//! | [`dataplane`] | gateway, border router, shard pools | §3.4, §4.6, §7.2 |
//! | [`host`] | end-host stack: flows, renewal, pacing | §3.2 |
//! | [`monitor`] | token bucket, OFD, replay, policing | §4.8 |
//! | [`qdisc`] | hierarchical QoS: HTB shaping, DRR, codel AQM | §3.4, App. B |
//! | [`sim`] | discrete-event simulator, Table 2 | §7 |
//! | [`telemetry`] | lock-free metrics, trace ring, exposition | — |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use colibri_base as base;
pub use colibri_crypto as crypto;
pub use colibri_ctrl as ctrl;
pub use colibri_dataplane as dataplane;
pub use colibri_host as host;
pub use colibri_monitor as monitor;
pub use colibri_qdisc as qdisc;
pub use colibri_sim as sim;
pub use colibri_telemetry as telemetry;
pub use colibri_topology as topology;
pub use colibri_wire as wire;

/// The most commonly used items, re-exported for `use colibri::prelude::*`.
pub mod prelude {
    pub use colibri_base::{
        Bandwidth, BwClass, Duration, HostAddr, Instant, InterfaceId, IsdAsId, IsdId, ResId,
        ReservationKey,
    };
    pub use colibri_crypto::{Aead, Cmac, Epoch, Key, SecretValueGen};
    pub use colibri_ctrl::{
        activate_segr, master_secret_for, renew_eer, renew_segr, setup_eer, setup_segr, CServ,
        CservConfig, CservError, CservRegistry, EerGrant, EerPolicy, PerHostCap, SegrGrant,
        SetupError,
    };
    pub use colibri_dataplane::{
        stamp_segr_packet, BorderRouter, DropReason, Gateway, GatewayConfig, GatewayError,
        QosMode, RouterConfig, RouterVerdict, TrafficClass,
    };
    pub use colibri_qdisc::{HtbConfig, Qdisc, QdiscStats};
    pub use colibri_host::{FlowConfig, FlowId, FlowKind, FlowManager, PacedSender};
    pub use colibri_monitor::{OveruseFlowDetector, ReplaySuppressor, TokenBucket, TransitMonitor};
    pub use colibri_sim::{protection_experiment, ProtectionConfig, Simulation};
    pub use colibri_topology::{
        find_paths, stitch, BeaconConfig, FullPath, Segment, SegmentStore, SegmentType, Topology,
    };
    pub use colibri_wire::{EerInfo, HopField, PacketBuilder, PacketView, ResInfo};
}

//! Property tests for the partial-failure invariants of the control
//! plane:
//!
//! 1. a refused setup rolls back every on-path admission so each AS's
//!    aggregate snapshot is **bit-identical** to its pre-request state;
//! 2. under a lossy channel, whatever a failed or half-delivered setup
//!    leaves behind is reclaimed by expiry GC — no bandwidth leaks;
//! 3. after any successful operation mix, crash recovery (rebuilding the
//!    memoized admission aggregates from the reservation store) produces
//!    aggregates **equal to the live ones**.

use colibri_base::{Bandwidth, Clock, Duration, HostAddr, Instant, IsdAsId};
use colibri_ctrl::{
    activate_segr, renew_eer, renew_segr, setup_eer, setup_segr, setup_segr_with,
    AggregateSnapshot, ControlChannel, CservConfig, CservRegistry, Delivery, RetryPolicy,
};
use colibri_topology::gen::sample_two_isd;
use colibri_topology::stitch;
use colibri_wire::EerInfo;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn snapshots(reg: &CservRegistry) -> BTreeMap<IsdAsId, AggregateSnapshot> {
    reg.ids()
        .into_iter()
        .map(|id| (id, reg.get(id).unwrap().admission().aggregates()))
        .collect()
}

fn audit_all(reg: &CservRegistry) {
    for id in reg.ids() {
        reg.get(id).unwrap().admission().audit().unwrap_or_else(|e| panic!("audit {id}: {e}"));
    }
}

/// A channel dropping each leg pseudo-randomly (SplitMix64 on a seed),
/// used to exercise retries, timeouts, and rollback-after-loss.
struct DropChannel {
    state: u64,
    drop_ppm: u32,
}

impl DropChannel {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl ControlChannel for DropChannel {
    fn deliver(&mut self, _f: IsdAsId, _t: IsdAsId, _now: Instant) -> Delivery {
        if self.next() % 1_000_000 < u64::from(self.drop_ppm) {
            Delivery::Lost
        } else {
            Delivery::Delivered(Duration::from_micros(200))
        }
    }
}

proptest! {
    /// A *refused* SegR setup (saturated link / unmeetable minimum /
    /// denied source) leaves every AS's aggregates bit-identical to the
    /// pre-request snapshot.
    #[test]
    fn refused_setup_restores_aggregates_exactly(
        fill_gbps in 1u64..40,
        deny_hop in 0usize..3,
        deny in any::<bool>(),
    ) {
        let s = sample_two_isd();
        let mut reg = CservRegistry::provision(&s.topo, CservConfig::default());
        let up = s.segments.up_segments(s.leaf_a, s.core_11)[0].clone();
        let now = Instant::from_secs(5);
        // Occupy part of the segment so refusals come from admission too,
        // not only from policy.
        setup_segr(&mut reg, &up, Bandwidth::from_gbps(fill_gbps), Bandwidth::from_mbps(1), now)
            .expect("fill setup");
        if deny {
            let hop_as = up.hops[deny_hop.min(up.hops.len() - 1)].isd_as;
            reg.get_mut(hop_as).unwrap().deny_source(up.first_as());
        }
        let before = snapshots(&reg);
        // Ask for the impossible: more than any link's Colibri share, with
        // a minimum that cannot be met.
        let res = setup_segr(
            &mut reg,
            &up,
            Bandwidth::from_gbps(100),
            Bandwidth::from_gbps(90),
            now,
        );
        prop_assert!(res.is_err(), "setup must be refused");
        prop_assert_eq!(snapshots(&reg), before, "rollback must be exact");
        audit_all(&reg);
    }

    /// Under a lossy channel every outcome — success, refusal, or
    /// unreachability with undelivered aborts — ends with zero leaked
    /// bandwidth once the reservations' expiry passes and GC runs.
    #[test]
    fn lossy_setup_never_leaks_past_expiry(
        seed in any::<u64>(),
        drop_ppm in 0u32..600_000,
        demand_gbps in 1u64..50,
    ) {
        let s = sample_two_isd();
        let mut reg = CservRegistry::provision(&s.topo, CservConfig::default());
        let up = s.segments.up_segments(s.leaf_a, s.core_11)[0].clone();
        let empty = snapshots(&reg);
        let clock = Clock::starting_at(Instant::from_secs(1));
        let mut ch = DropChannel { state: seed, drop_ppm };
        // Short backoffs keep simulated time (and thus test cost) low.
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(40),
            jitter_pct: 20,
            per_hop_timeout: Duration::from_millis(500),
            deadline: Duration::MAX,
        };
        let _ = setup_segr_with(
            &mut reg,
            &up,
            Bandwidth::from_gbps(demand_gbps),
            Bandwidth::from_mbps(1),
            Instant::EPOCH,
            &clock,
            &mut ch,
            &policy,
        );
        // Whatever happened, after expiry + GC the world is as if the
        // request never existed.
        let end = clock.now() + Duration::from_secs(400); // > segr_lifetime
        for id in reg.ids() {
            reg.get_mut(id).unwrap().gc(end);
        }
        prop_assert_eq!(snapshots(&reg), empty, "bandwidth leaked past expiry");
        audit_all(&reg);
    }

    /// After an arbitrary mix of successful operations, rebuilding every
    /// CServ's admission state from its reservation store (crash
    /// recovery) reproduces the live aggregates exactly.
    #[test]
    fn recovery_rebuild_equals_live_aggregates(
        demands in prop::collection::vec(1u64..8, 1..5),
        renew in any::<bool>(),
        with_eer in any::<bool>(),
    ) {
        let s = sample_two_isd();
        let mut reg = CservRegistry::provision(&s.topo, CservConfig::default());
        let up = s.segments.up_segments(s.leaf_a, s.core_11)[0].clone();
        let core = s.segments.core_segments(s.core_11, s.core_21)[0].clone();
        let down = s.segments.down_segments(s.core_21, s.leaf_d)[0].clone();
        let now = Instant::from_secs(10);
        let mut seg_keys = Vec::new();
        for (i, seg) in [up.clone(), core.clone(), down.clone()].iter().enumerate() {
            let d = Bandwidth::from_gbps(demands[i % demands.len()]);
            let g = setup_segr(&mut reg, seg, d, Bandwidth::from_mbps(1), now).expect("segr");
            seg_keys.push(g.key);
        }
        if renew {
            let key = seg_keys[0];
            let g = renew_segr(&mut reg, key, Bandwidth::from_gbps(2), Bandwidth::from_mbps(1), now)
                .expect("renewal");
            activate_segr(&mut reg, key, g.ver, now).expect("activation");
        }
        if with_eer {
            let path = stitch(&[up, core, down]).unwrap();
            let hosts = EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) };
            let g = setup_eer(&mut reg, &path, &seg_keys, hosts, Bandwidth::from_mbps(40), now)
                .expect("EER setup");
            let _ = renew_eer(&mut reg, g.key, Bandwidth::from_mbps(60), now + Duration::from_secs(2));
        }
        for id in reg.ids() {
            let cserv = reg.get_mut(id).unwrap();
            let live = cserv.admission().aggregates();
            cserv.recover(now).unwrap_or_else(|e| panic!("recovery self-check at {id}: {e}"));
            prop_assert_eq!(
                cserv.admission().aggregates(),
                live,
                "rebuild diverged from live aggregates at {}", id
            );
        }
    }
}

//! Property-based tests for the admission algorithms — the safety
//! invariants behind the paper's worst-case guarantees.

use colibri_base::{Bandwidth, Instant, InterfaceId, IsdAsId, ResId, ReservationKey, SlotWindow};
use colibri_ctrl::{ReservationStore, SegrAdmission, SegrAdmissionConfig, SegrRecord, SegrRequest};
use colibri_wire::HopField;
use proptest::prelude::*;

const IN1: InterfaceId = InterfaceId(1);
const IN2: InterfaceId = InterfaceId(2);
const EG: InterfaceId = InterfaceId(3);

/// One step of an arbitrary admission workload.
#[derive(Debug, Clone)]
enum Op {
    Admit { src: u32, rid: u32, ingress: bool, demand_mbps: u64, min_mbps: u64 },
    Remove { src: u32, rid: u32 },
    Finalize { src: u32, rid: u32, bw_mbps: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u32..6, 0u32..12, any::<bool>(), 1u64..4000, 0u64..100).prop_map(
            |(src, rid, ingress, demand_mbps, min_mbps)| Op::Admit {
                src,
                rid,
                ingress,
                demand_mbps,
                min_mbps
            }
        ),
        1 => (0u32..6, 0u32..12).prop_map(|(src, rid)| Op::Remove { src, rid }),
        1 => (0u32..6, 0u32..12, 0u64..4000).prop_map(|(src, rid, bw_mbps)| Op::Finalize {
            src,
            rid,
            bw_mbps
        }),
    ]
}

fn key(src: u32, rid: u32) -> ReservationKey {
    ReservationKey::new(IsdAsId::new(1, 100 + src), ResId(rid))
}

fn new_admission() -> SegrAdmission {
    let mut a = SegrAdmission::new(SegrAdmissionConfig {
        colibri_share: 1.0,
        ..SegrAdmissionConfig::default()
    });
    a.set_interface_capacity(IN1, Bandwidth::from_gbps(2));
    a.set_interface_capacity(IN2, Bandwidth::from_gbps(2));
    a.set_interface_capacity(EG, Bandwidth::from_gbps(2));
    a
}

fn apply(a: &mut SegrAdmission, op: &Op) {
    match *op {
        Op::Admit { src, rid, ingress, demand_mbps, min_mbps } => {
            let _ = a.admit(SegrRequest {
                key: key(src, rid),
                ingress: if ingress { IN1 } else { IN2 },
                egress: EG,
                demand: Bandwidth::from_mbps(demand_mbps),
                min_bw: Bandwidth::from_mbps(min_mbps),
                window: SlotWindow::at(0),
            });
        }
        Op::Remove { src, rid } => {
            a.remove(key(src, rid));
        }
        Op::Finalize { src, rid, bw_mbps } => {
            a.finalize(key(src, rid), Bandwidth::from_mbps(bw_mbps));
        }
    }
}

proptest! {
    /// Safety: no sequence of admissions, renewals, finalizations, and
    /// removals can over-allocate the egress capacity.
    #[test]
    fn admission_never_over_allocates(ops in prop::collection::vec(arb_op(), 1..200)) {
        let mut a = new_admission();
        for op in &ops {
            apply(&mut a, op);
            prop_assert!(
                a.total_granted(EG) <= Bandwidth::from_gbps(2),
                "over-allocated after {op:?}: {}",
                a.total_granted(EG)
            );
        }
    }

    /// Aggregate reconciliation (§4.7): after any workload, recomputing
    /// every time-indexed aggregate from the raw entry set matches the
    /// incrementally maintained profiles exactly.
    #[test]
    fn aggregates_reconcile_from_scratch(ops in prop::collection::vec(arb_op(), 1..150)) {
        let mut a = new_admission();
        for (i, op) in ops.iter().enumerate() {
            apply(&mut a, op);
            // Auditing every step is O(n²) overall; sample a prefix and
            // always check the final state.
            if i < 20 || i + 1 == ops.len() {
                if let Err(e) = a.audit() {
                    prop_assert!(false, "aggregate drift after {op:?}: {e}");
                }
            }
        }
    }

    /// A grant never exceeds its demand, and a successful admission with
    /// `min_bw` grants at least `min_bw`.
    #[test]
    fn grants_respect_demand_and_minimum(
        ops in prop::collection::vec(arb_op(), 0..100),
        demand_mbps in 1u64..4000,
        min_mbps in 0u64..500,
    ) {
        let mut a = new_admission();
        for op in &ops {
            apply(&mut a, op);
        }
        let req = SegrRequest {
            key: key(9, 999),
            ingress: IN1,
            egress: EG,
            demand: Bandwidth::from_mbps(demand_mbps),
            min_bw: Bandwidth::from_mbps(min_mbps.min(demand_mbps)),
            window: SlotWindow::at(0),
        };
        if let Ok(granted) = a.admit(req) {
            prop_assert!(granted <= req.demand);
            prop_assert!(granted >= req.min_bw);
            prop_assert_eq!(a.granted(req.key), Some(granted));
        } else {
            prop_assert_eq!(a.granted(req.key), None);
        }
    }

    /// The naive rescan implementation and the memoized one produce
    /// identical grants on identical workloads (differential testing).
    #[test]
    fn naive_equals_memoized(ops in prop::collection::vec(arb_op(), 1..100)) {
        let mut memo = new_admission();
        let mut naive = new_admission();
        for op in &ops {
            match *op {
                Op::Admit { src, rid, ingress, demand_mbps, min_mbps } => {
                    let req = SegrRequest {
                        key: key(src, rid),
                        ingress: if ingress { IN1 } else { IN2 },
                        egress: EG,
                        demand: Bandwidth::from_mbps(demand_mbps),
                        min_bw: Bandwidth::from_mbps(min_mbps),
                        window: SlotWindow::at(0),
                    };
                    prop_assert_eq!(memo.admit(req), naive.admit_naive(req));
                }
                Op::Remove { src, rid } => {
                    prop_assert_eq!(memo.remove(key(src, rid)), naive.remove(key(src, rid)));
                }
                Op::Finalize { src, rid, bw_mbps } => {
                    let bw = Bandwidth::from_mbps(bw_mbps);
                    prop_assert_eq!(memo.finalize(key(src, rid), bw), naive.finalize(key(src, rid), bw));
                }
            }
            prop_assert_eq!(memo.total_granted(EG), naive.total_granted(EG));
        }
    }

    /// Removing everything restores a clean slate: a full-capacity request
    /// succeeds afterwards.
    #[test]
    fn removal_restores_capacity(ops in prop::collection::vec(arb_op(), 1..150)) {
        let mut a = new_admission();
        for op in &ops {
            apply(&mut a, op);
        }
        for src in 0..6 {
            for rid in 0..12 {
                a.remove(key(src, rid));
            }
        }
        prop_assert_eq!(a.total_granted(EG), Bandwidth::ZERO);
        let g = a.admit(SegrRequest {
            key: key(9, 1000),
            ingress: IN1,
            egress: EG,
            demand: Bandwidth::from_gbps(2),
            min_bw: Bandwidth::from_gbps(2),
            window: SlotWindow::at(0),
        });
        prop_assert_eq!(g.unwrap(), Bandwidth::from_gbps(2));
    }

    /// EER usage accounting: the allocated sum tracks the per-EER charges
    /// exactly and never exceeds the SegR bandwidth, under arbitrary
    /// version/expiry interleavings.
    #[test]
    fn eer_usage_accounting(
        steps in prop::collection::vec(
            (0u32..10, 0u8..4, 1u64..400, 1u64..40, any::<bool>()),
            1..120
        ),
    ) {
        let segr_bw = Bandwidth::from_mbps(1000);
        let segr = key(0, 0);
        let mut store = ReservationStore::new();
        let hop = HopField::new(1, 2);
        store.insert_segr(SegrRecord::new(segr, hop, 0, 1, 0, segr_bw, Instant::MAX));
        let mut now = Instant::from_secs(0);
        for &(eer, ver, bw_mbps, dt_s, remove) in &steps {
            now += colibri_base::Duration::from_secs(dt_s);
            let k = key(1, eer);
            if remove {
                store.segr_mut(segr).unwrap().usage.remove_version(k, ver);
            } else {
                let exp = now + colibri_base::Duration::from_secs(16);
                let bw = Bandwidth::from_mbps(bw_mbps);
                let _ = store.admit_eer(&[(segr, None)], k, ver, bw, exp, now);
            }
            let u = &store.segr(segr).unwrap().usage;
            prop_assert!(u.allocated() <= segr_bw, "over-allocated: {}", u.allocated());
            store.gc(now);
            let u = &store.segr(segr).unwrap().usage;
            // After GC, allocated equals the sum of live charges.
            let charged_sum: u64 = (0..10).map(|e| u.charged(key(1, e)).as_bps()).sum();
            prop_assert_eq!(u.allocated().as_bps(), charged_sum);
        }
    }
}

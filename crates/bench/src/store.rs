//! The time-indexed reservation store's scaling claims (DESIGN.md §15):
//! SegR admission over future validity windows stays O(log n) in the
//! number of live reservations, the retained naive per-slot rescan
//! degrades linearly (the foil), and expiry-wheel GC costs are
//! proportional to what actually expired — not to the live population —
//! for SegR records and for EER allocations alike.

use crate::harness::{best_ns_per_call, Check, Mode, Outcome};
use crate::obj;
use colibri::base::{
    Bandwidth, BwClass, Duration, HostAddr, Instant, InterfaceId, IsdAsId, ResId, ReservationKey,
    SlotWindow,
};
use colibri::ctrl::{
    AllowAll, CServ, CservConfig, EerSetupReq, ReservationStore, SegSetupReq, SegrAdmission,
    SegrAdmissionConfig, SegrRecord, SegrRequest, Timeline,
};
use colibri::wire::{EerInfo, HopField, ResInfo};

const IN: InterfaceId = InterfaceId(1);
const EG: InterfaceId = InterfaceId(2);
/// Distinct source ASes the synthetic population spreads over.
const SRC_ASES: u32 = 512;
/// Admission horizon in slots (1 s tick).
const HORIZON: u64 = 1024;
/// EERs that come due in every EER GC sweep.
const EER_DUE: u32 = 1_000;

fn key_of(i: u64) -> ReservationKey {
    ReservationKey::new(IsdAsId::new(1, 100 + (i % SRC_ASES as u64) as u32), ResId(i as u32))
}

/// Deterministic window inside the horizon: staggered starts, mixed
/// lengths, so per-interface profiles carry real time structure.
fn window_of(i: u64) -> SlotWindow {
    let start = i % 512;
    let len = 1 + (i * 7919) % 256;
    SlotWindow::new(start, start + len)
}

/// An admission module pre-loaded with `n` windowed reservations.
fn populated_admission(n: u64) -> SegrAdmission {
    let mut a = SegrAdmission::new(SegrAdmissionConfig {
        colibri_share: 1.0,
        horizon_slots: HORIZON,
        ..SegrAdmissionConfig::default()
    });
    // Capacity far above the aggregate load so admissions never clip and
    // every timed call takes the full (worst-case) arithmetic path.
    a.set_interface_capacity(IN, Bandwidth::from_gbps(100_000_000));
    a.set_interface_capacity(EG, Bandwidth::from_gbps(100_000_000));
    for i in 0..n {
        a.restore_entry(key_of(i), IN, EG, Bandwidth::from_kbps(64), window_of(i));
    }
    a
}

fn fresh_request(r: u64) -> SegrRequest {
    SegrRequest {
        key: ReservationKey::new(IsdAsId::new(2, 7), ResId((1 << 30) + r as u32)),
        ingress: IN,
        egress: EG,
        demand: Bandwidth::from_mbps(10),
        min_bw: Bandwidth::ZERO,
        window: window_of(r.wrapping_mul(31)),
    }
}

/// Admit, renew and remove ns at `n` live reservations, and the naive
/// rescan's admit ns where `naive_reps > 0`.
fn bench_size(n: u64, reps: u64, naive_reps: u64) -> (f64, f64, f64, Option<f64>) {
    let mut a = populated_admission(n);
    assert_eq!(a.len(), n as usize);

    // Admit + undo: each timed iteration performs a fresh windowed
    // admission and reverts it, so the population stays exactly `n`.
    let admit_ns = best_ns_per_call(reps, 8, |i| {
        let (_, undo) = a.admit_with_undo(fresh_request(i)).expect("admit");
        a.undo(undo);
    });

    // Renewal: re-admit a live key at a different bandwidth (removes the
    // previous contribution, re-adds the new one), then undo.
    let renew_ns = best_ns_per_call(reps, 8, |i| {
        let renewal = SegrRequest {
            key: key_of(i % n),
            ingress: IN,
            egress: EG,
            demand: Bandwidth::from_mbps(1),
            min_bw: Bandwidth::ZERO,
            window: window_of(i % n),
        };
        let (_, undo) = a.admit_with_undo(renewal).expect("renew");
        a.undo(undo);
    });

    // Free: remove a batch of distinct live keys (timed), restore them
    // (untimed) so later measurements see the same population.
    let batch = reps.min(n).max(1);
    let t0 = std::time::Instant::now();
    for i in 0..batch {
        assert!(a.remove(key_of(i)));
    }
    let remove_ns = t0.elapsed().as_nanos() as f64 / batch as f64;
    for i in 0..batch {
        a.restore_entry(key_of(i), IN, EG, Bandwidth::from_kbps(64), window_of(i));
    }

    // The naive foil: same verdicts, O(n · window) per call. The keys are
    // fresh, so removing after each admit restores the population (the
    // removal is O(log n) — noise next to the rescan being measured).
    let naive_admit_ns = (naive_reps > 0).then(|| {
        best_ns_per_call(naive_reps, 2, |i| {
            let req = fresh_request(i);
            a.admit_naive(req).expect("naive admit");
            assert!(a.remove(req.key));
        })
    });
    (admit_ns, renew_ns, remove_ns, naive_admit_ns)
}

fn rec(i: u64, exp: Instant) -> SegrRecord {
    SegrRecord::new(key_of(i), HopField::new(1, 2), 1, 3, 0, Bandwidth::from_mbps(10), exp)
}

/// GC at `live` long-lived records plus `expired` due ones: (entries
/// scanned, ns).
fn bench_gc(live: u64, expired: u64) -> (usize, f64) {
    let mut store = ReservationStore::new();
    for i in 0..live {
        store.insert_segr(rec(i, Instant::from_secs(1_000_000)));
    }
    for i in 0..expired {
        store.insert_segr(rec(live + i, Instant::from_secs(100)));
    }
    let t0 = std::time::Instant::now();
    let stats = store.gc(Instant::from_secs(200));
    let gc_ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(stats.expired as u64, expired, "GC missed expired records");
    (stats.scanned, gc_ns)
}

/// One `CServ::gc` sweep with [`EER_DUE`] EERs due, beside `live` EERs on
/// the same SegR that are not: (entries scanned, best ns of `reps` freshly
/// built CServs). Every sweep starts cache-cold — as a periodic GC does,
/// whose due entries were last touched a reservation lifetime ago — so the
/// rows compare the work done, not whether a small population happens to
/// fit in the CPU caches.
fn bench_eer_gc(live: u32, reps: u32, evict: &[u8]) -> (usize, f64) {
    let (mut scanned, mut gc_ns) = (0, f64::INFINITY);
    for _ in 0..reps {
        let (mut cserv, segr) = cserv_with_segr();
        admit_eers(&mut cserv, segr, 0..EER_DUE, Instant::from_secs(16));
        admit_eers(&mut cserv, segr, EER_DUE..EER_DUE + live, Instant::from_secs(200));
        // One byte per cache line of a buffer several times the per-core
        // caches pushes the CServ's state out of them.
        let lines: u64 = evict.iter().step_by(64).map(|&b| u64::from(b)).sum();
        std::hint::black_box(lines);
        let t0 = std::time::Instant::now();
        let stats = cserv.gc(Instant::from_secs(20));
        gc_ns = gc_ns.min(t0.elapsed().as_nanos() as f64);
        scanned = stats.scanned;
        let usage = &cserv.store().segr(segr).expect("SegR outlives the sweep").usage;
        assert_eq!(usage.eer_count(), live as usize, "GC must drop the due EERs, only them");
        assert_eq!(usage.allocated(), Bandwidth::from_kbps(u64::from(live)));
    }
    (scanned, gc_ns)
}

/// One CServ holding one finalized 1 Tbps SegR that expires at 300 s.
fn cserv_with_segr() -> (CServ, ReservationKey) {
    let me = IsdAsId::new(1, 10);
    let mut cserv = CServ::new(me, &[7; 16], CservConfig::default(), Box::new(AllowAll));
    cserv.set_interface_capacity(IN, Bandwidth::from_gbps(10_000));
    cserv.set_interface_capacity(EG, Bandwidth::from_gbps(10_000));
    let bw = Bandwidth::from_gbps(1_000);
    let res_info = ResInfo {
        src_as: me,
        res_id: ResId(0),
        bw: BwClass::from_bandwidth_ceil(bw),
        exp_t: Instant::from_secs(300),
        ver: 0,
    };
    let hop = HopField::new(IN.0, EG.0);
    let req = SegSetupReq {
        request_id: 0,
        deadline: Instant::MAX,
        starts_at: Instant::EPOCH,
        res_info,
        demand: bw,
        min_bw: Bandwidth::ZERO,
        path: vec![(me, hop)],
        grants: vec![],
    };
    let (granted, _) = cserv.segr_admit_hop(&req, 0, bw, Instant::EPOCH).expect("SegR admitted");
    cserv.segr_finalize_hop(&res_info, hop, 0, 1, granted, Instant::EPOCH, Instant::EPOCH);
    (cserv, res_info.key())
}

/// Admits EERs `ids` of 1 kbps each on `segr`, expiring at `exp`, as
/// tracked requests (so each also leaves a replay-cache verdict).
fn admit_eers(cserv: &mut CServ, segr: ReservationKey, ids: std::ops::Range<u32>, exp: Instant) {
    for id in ids {
        let req = EerSetupReq {
            request_id: u64::from(id) + 1,
            deadline: Instant::MAX,
            res_info: ResInfo {
                src_as: cserv.isd_as,
                res_id: ResId(1 + id),
                bw: BwClass(1),
                exp_t: exp,
                ver: 0,
            },
            eer_info: EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) },
            demand: Bandwidth::from_kbps(1),
            path: vec![(cserv.isd_as, HopField::new(IN.0, EG.0))],
            junctions: vec![],
            segr_ids: vec![segr],
        };
        cserv.eer_admit_hop(&req, 0, Instant::EPOCH).expect("EER admitted");
    }
}

/// Release-mode differential spot check: a fixed-seed interleaving of
/// reserve/free/advance against a plain per-slot vector (debug_asserts
/// are compiled out here, so this is the only release-side guard).
fn oracle_spot_check() -> bool {
    const N: u64 = 256;
    let mut tl = Timeline::new(Duration::from_secs(1), N);
    let mut slots = vec![0u128; 4096];
    let mut base = 0u64;
    let mut live: Vec<(SlotWindow, u128)> = Vec::new();
    let mut rng = crate::Xor64::new(0x9e3779b97f4a7c15);
    let mut next = || rng.next();
    for step in 0..5_000u64 {
        match next() % 10 {
            0..=4 => {
                let from = next() % N;
                let len = 1 + next() % 64;
                let bw = (1 + next() % 1_000_000) as u128;
                let w = SlotWindow::new(base + from, (base + from + len).min(base + N));
                if tl.reserve(w, bw).is_ok() {
                    for s in w.start.max(base)..w.end.min(slots.len() as u64) {
                        slots[s as usize] += bw;
                    }
                    live.push((w, bw));
                }
            }
            5..=6 if !live.is_empty() => {
                let (w, bw) = live.swap_remove((next() as usize) % live.len());
                tl.free(w, bw).expect("free");
                for s in w.start.max(base)..w.end.min(slots.len() as u64) {
                    slots[s as usize] -= bw;
                }
            }
            7 => {
                base += 1 + next() % 8;
                tl.advance_to_slot(base);
                for s in 0..base.min(slots.len() as u64) {
                    slots[s as usize] = 0;
                }
                live.retain(|(w, _)| w.end > base);
            }
            _ => {}
        }
        let from = base + next() % N;
        let len = 1 + next() % N;
        let w = SlotWindow::new(from, (from + len).min(base + N));
        let expect =
            (w.start..w.end.min(slots.len() as u64)).map(|s| slots[s as usize]).max().unwrap_or(0);
        if tl.max_usage(w) != expect {
            eprintln!(
                "ORACLE MISMATCH at step {step}: window {w} timeline={} oracle={expect}",
                tl.max_usage(w)
            );
            return false;
        }
    }
    true
}

/// The `store` row of the `repro` table.
pub fn store(mode: Mode) -> Outcome {
    let sizes = mode.pick(vec![1_000, 100_000, 1_000_000], vec![1_000, 10_000, 100_000, 1_000_000]);
    let reps = mode.pick(2_000, 10_000);
    // The naive rescan is O(n) per call: fewer repetitions as n grows.
    let naive_reps = |n: u64| {
        if n <= 10_000 {
            mode.pick(50, 200)
        } else {
            mode.pick(4, 10)
        }
    };
    let mut checks = Vec::new();

    let mut rows = Vec::new();
    let mut admit = Vec::new();
    for n in sizes {
        let (admit_ns, renew_ns, remove_ns, naive_ns) = bench_size(n, reps, naive_reps(n));
        admit.push((n, admit_ns, naive_ns));
        rows.push(obj! {
            "n": n, "admit_ns": admit_ns, "renew_ns": renew_ns, "remove_ns": remove_ns,
            "naive_admit_ns": naive_ns,
        });
    }
    // O(log n): admission at 10^6 costs at most 2× its 10^3 cost (hash-map
    // and cache noise allowance; a linear structure would be ~1000×).
    let (small, large) = (admit[0].1, admit[admit.len() - 1].1);
    let what = "admit ns at 10^6 (limit: 2 × at 10^3 + 500)";
    checks.push(Check::at_most(what, large, 2.0 * small + 500.0));
    // The naive foil must actually degrade: ≥ 100× the timeline at the
    // largest size it was measured at.
    if let Some(&(n, timeline, Some(naive))) = admit.iter().rev().find(|r| r.2.is_some()) {
        let what = format!("naive rescan / timeline admit at n={n}");
        checks.push(Check::at_least(what, naive / timeline, 100.0));
    }

    let mut gc_rows = Vec::new();
    for (live, expired) in [(1_000u64, 1_000u64), (100_000, 1_000), (1_000_000, 1_000)] {
        let (scanned, gc_ns) = bench_gc(live, expired);
        let what = format!("SegR GC entries scanned at {live} live, {expired} expired");
        checks.push(Check::exact(what, scanned as u64, expired));
        gc_rows.push(obj! { "live": live, "expired": expired, "scanned": scanned, "gc_ns": gc_ns });
    }

    let evict = vec![1u8; 128 << 20];
    let mut eer_gc_rows = Vec::new();
    let mut eer_gc_ns = Vec::new();
    for live in [1_500u32, 6_000, 60_000] {
        let (scanned, gc_ns) = bench_eer_gc(live, mode.pick(5, 7), &evict);
        // One allocation and one cached verdict per due EER.
        let what = format!("CServ::gc entries scanned at {live} live EERs");
        checks.push(Check::exact(what, scanned, 2 * EER_DUE as usize));
        eer_gc_ns.push(gc_ns);
        eer_gc_rows.push(obj! { "live": live, "due": EER_DUE, "scanned": scanned, "gc_ns": gc_ns });
    }
    drop(evict);
    // 40× the population within 3× the time (deeper TLB and cache misses in
    // larger maps; a scan of the live EERs would be ~40×).
    let what = "CServ::gc ns at 60,000 / at 1,500 live EERs";
    checks.push(Check::at_most(what, eer_gc_ns[2] / eer_gc_ns[0], 3.0));

    let oracle_ok = oracle_spot_check();
    checks.push(Check::exact("timeline ≡ per-slot vector oracle, release build", oracle_ok, true));

    let json = obj! {
        "store_rows": rows, "gc_rows": gc_rows, "eer_gc_rows": eer_gc_rows, "oracle_ok": oracle_ok,
    };
    Outcome { json, checks }
}

//! Reproduces the time-indexed reservation-store scaling claims
//! (DESIGN.md §15): SegR admission over future validity windows stays
//! O(log n) in the number of live reservations, the retained naive
//! per-slot rescan degrades linearly (the foil), and expiry-wheel GC
//! costs are proportional to what actually expired — not to the live
//! population — for SegR records and for EER allocations alike.
//!
//! Emits machine-readable JSON (default `BENCH_store.json`) so CI can
//! gate on regressions.
//!
//! Flags:
//! * `--quick` — fewer sizes and repetitions (the CI smoke configuration);
//! * `--gate` — exit non-zero if any scaling claim fails:
//!   - timeline admit at 10^6 live reservations ≤ 2× its 10^3 cost,
//!   - the naive rescan at the largest common size ≥ 100× the timeline,
//!   - GC work (`scanned`) tracks expired records, flat in live count,
//!   - `CServ::gc` over a fixed set of due EERs scans the same entries at
//!     1,500, 6,000 and 60,000 live EERs, in ≤ 3× the time,
//!   - a release-mode Timeline-vs-vector-oracle spot check agrees exactly;
//! * `--huge` — add a 10^7-reservation row (full mode only; ~GBs of RAM);
//! * `--out <path>` — where to write the JSON (default `BENCH_store.json`
//!   in the current directory).
//!
//! Run with `cargo run --release -p colibri-bench --bin repro_store`.

use colibri::base::{
    Bandwidth, BwClass, Duration, HostAddr, Instant, InterfaceId, IsdAsId, ResId, ReservationKey,
    SlotWindow,
};
use colibri::ctrl::{
    AllowAll, CServ, CservConfig, EerSetupReq, ReservationStore, SegSetupReq, SegrAdmission,
    SegrAdmissionConfig, SegrRequest, Timeline,
};
use colibri::wire::{EerInfo, HopField, ResInfo};

const IN: InterfaceId = InterfaceId(1);
const EG: InterfaceId = InterfaceId(2);
/// Distinct source ASes the synthetic population spreads over.
const SRC_ASES: u32 = 512;
/// Admission horizon in slots (1 s tick).
const HORIZON: u64 = 1024;

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

struct StoreRow {
    n: u64,
    admit_ns: f64,
    renew_ns: f64,
    remove_ns: f64,
    /// Naive per-slot rescan over all entries; `None` where it was too
    /// slow to measure at full population.
    naive_admit_ns: Option<f64>,
}

/// Median-of-windows timer: run `reps` calls of `f`, return ns/call of
/// the best window (the estimator `repro_pipeline` uses — preemption can
/// only slow a window down, so the best one is closest to the true cost).
fn time_ns(reps: u64, windows: u64, mut f: impl FnMut(u64)) -> f64 {
    let per = (reps / windows).max(1);
    let mut best = f64::INFINITY;
    let mut i = 0u64;
    for _ in 0..windows {
        let t0 = std::time::Instant::now();
        for _ in 0..per {
            f(i);
            i += 1;
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / per as f64);
    }
    best
}

fn bench_size(n: u64, reps: u64, naive_reps: u64) -> StoreRow {
    let mut a = populated_admission(n);
    assert_eq!(a.len(), n as usize);

    // Admit + undo: each timed iteration performs a fresh windowed
    // admission and reverts it, so the population stays exactly `n`.
    let admit_ns = time_ns(reps, 8, |i| {
        let (_, undo) = a.admit_with_undo(fresh_request(i)).expect("admit");
        a.undo(undo);
    });

    // Renewal: re-admit a live key at a different bandwidth (removes the
    // previous contribution, re-adds the new one), then undo.
    let renew_ns = time_ns(reps, 8, |i| {
        let k = key_of(i % n);
        let (_, undo) = a
            .admit_with_undo(SegrRequest {
                key: k,
                ingress: IN,
                egress: EG,
                demand: Bandwidth::from_mbps(1),
                min_bw: Bandwidth::ZERO,
                window: window_of(i % n),
            })
            .expect("renew");
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
        time_ns(naive_reps, 2, |i| {
            let req = fresh_request(i);
            a.admit_naive(req).expect("naive admit");
            assert!(a.remove(req.key));
        })
    });

    StoreRow { n, admit_ns, renew_ns, remove_ns, naive_admit_ns }
}

struct GcRow {
    live: u64,
    expired: u64,
    scanned: usize,
    gc_ns: f64,
}

/// GC cost at `live` long-lived records plus `expired` due ones.
fn bench_gc(live: u64, expired: u64) -> GcRow {
    let far = Instant::from_secs(1_000_000);
    let soon = Instant::from_secs(100);
    let mut store = ReservationStore::new();
    for i in 0..live {
        store.insert_segr(rec(i, far));
    }
    for i in 0..expired {
        store.insert_segr(rec(live + i, soon));
    }
    let t0 = std::time::Instant::now();
    let stats = store.gc(Instant::from_secs(200));
    let gc_ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(stats.expired as u64, expired, "GC missed expired records");
    GcRow { live, expired, scanned: stats.scanned, gc_ns }
}

fn rec(i: u64, exp: Instant) -> colibri::ctrl::SegrRecord {
    colibri::ctrl::SegrRecord::new(
        key_of(i),
        HopField::new(1, 2),
        1,
        3,
        0,
        Bandwidth::from_mbps(10),
        exp,
    )
}

struct EerGcRow {
    live: u32,
    due: u32,
    scanned: usize,
    gc_ns: f64,
}

/// EERs that come due in every `eer_gc_rows` sweep.
const EER_DUE: u32 = 1_000;

/// One `CServ::gc` sweep with [`EER_DUE`] EERs due, beside `live` EERs on
/// the same SegR that are not: best of `reps` freshly built CServs. Every
/// sweep starts cache-cold — as a periodic GC does, whose due entries were
/// last touched a reservation lifetime ago — so the rows compare the work
/// done, not whether a small population happens to fit in the CPU caches.
fn bench_eer_gc(live: u32, reps: u32, evict: &[u8]) -> EerGcRow {
    let mut row = EerGcRow { live, due: EER_DUE, scanned: 0, gc_ns: f64::INFINITY };
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
        row.gc_ns = row.gc_ns.min(t0.elapsed().as_nanos() as f64);
        row.scanned = stats.scanned;
        let usage = &cserv.store().segr(segr).expect("SegR outlives the sweep").usage;
        assert_eq!(usage.eer_count(), live as usize, "GC must drop the due EERs, only them");
        assert_eq!(usage.allocated(), Bandwidth::from_kbps(u64::from(live)));
    }
    row
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
    let mut rng = 0x9e3779b97f4a7c15u64;
    let mut next = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
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
        let expect = (w.start..w.end.min(slots.len() as u64))
            .map(|s| slots[s as usize])
            .max()
            .unwrap_or(0);
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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate = args.iter().any(|a| a == "--gate");
    let huge = args.iter().any(|a| a == "--huge");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_store.json".to_string());

    let mut sizes: Vec<u64> = if quick {
        vec![1_000, 100_000, 1_000_000]
    } else {
        vec![1_000, 10_000, 100_000, 1_000_000]
    };
    if huge && !quick {
        sizes.push(10_000_000);
    }
    let reps: u64 = if quick { 2_000 } else { 10_000 };
    // The naive rescan is O(n) per call; cap its population so a run
    // stays seconds, and scale reps down with n.
    let naive_reps_for = |n: u64| -> u64 {
        match n {
            0..=10_000 => {
                if quick {
                    50
                } else {
                    200
                }
            }
            10_001..=1_000_000 => {
                if quick {
                    4
                } else {
                    10
                }
            }
            _ => 0,
        }
    };

    println!("# time-indexed reservation store ({} mode)", if quick { "quick" } else { "full" });
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>15}",
        "n", "admit ns", "renew ns", "remove ns", "naive admit ns"
    );
    let rows: Vec<StoreRow> =
        sizes.iter().map(|&n| bench_size(n, reps, naive_reps_for(n))).collect();
    for r in &rows {
        println!(
            "{:>10} {:>12.0} {:>12.0} {:>12.0} {:>15}",
            r.n,
            r.admit_ns,
            r.renew_ns,
            r.remove_ns,
            r.naive_admit_ns.map_or("-".into(), |v| format!("{v:.0}")),
        );
    }

    println!("\n## expiry-wheel GC: cost tracks expired records, not live population");
    println!("{:>10} {:>10} {:>10} {:>12}", "live", "expired", "scanned", "gc ns");
    let gc_rows: Vec<GcRow> = [(1_000u64, 1_000u64), (100_000, 1_000), (1_000_000, 1_000)]
        .iter()
        .map(|&(live, expired)| bench_gc(live, expired))
        .collect();
    for g in &gc_rows {
        println!("{:>10} {:>10} {:>10} {:>12.0}", g.live, g.expired, g.scanned, g.gc_ns);
    }

    println!("\n## CServ::gc over EERs: cost tracks due allocations, not live EERs on the SegR");
    println!("{:>10} {:>10} {:>10} {:>12}", "live", "due", "scanned", "gc ns");
    let evict = vec![1u8; 128 << 20];
    let eer_gc_rows: Vec<EerGcRow> = [1_500u32, 6_000, 60_000]
        .iter()
        .map(|&live| bench_eer_gc(live, if quick { 5 } else { 7 }, &evict))
        .collect();
    drop(evict);
    for g in &eer_gc_rows {
        println!("{:>10} {:>10} {:>10} {:>12.0}", g.live, g.due, g.scanned, g.gc_ns);
    }

    println!("\n## timeline vs per-slot vector oracle (release-mode spot check)");
    let oracle_ok = oracle_spot_check();
    println!("oracle agreement: {}", if oracle_ok { "exact" } else { "MISMATCH" });

    // ---- JSON ----
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str("  \"store_rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"n\": {}, \"admit_ns\": {:.1}, \"renew_ns\": {:.1}, \"remove_ns\": {:.1}, \"naive_admit_ns\": {}}}{}\n",
            r.n,
            r.admit_ns,
            r.renew_ns,
            r.remove_ns,
            r.naive_admit_ns.map_or("null".into(), |v| format!("{v:.1}")),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n  \"gc_rows\": [\n");
    for (i, g) in gc_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"live\": {}, \"expired\": {}, \"scanned\": {}, \"gc_ns\": {:.0}}}{}\n",
            g.live,
            g.expired,
            g.scanned,
            g.gc_ns,
            if i + 1 < gc_rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n  \"eer_gc_rows\": [\n");
    for (i, g) in eer_gc_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"live\": {}, \"due\": {}, \"scanned\": {}, \"gc_ns\": {:.0}}}{}\n",
            g.live,
            g.due,
            g.scanned,
            g.gc_ns,
            if i + 1 < eer_gc_rows.len() { "," } else { "" },
        ));
    }
    json.push_str(&format!("  ],\n  \"oracle_ok\": {oracle_ok}\n}}\n"));
    std::fs::write(&out_path, &json).expect("write JSON");
    println!("\nwrote {out_path}");

    if gate {
        let mut ok = true;
        let at = |n: u64| rows.iter().find(|r| r.n == n);
        // O(log n) claim: admission at 10^6 may cost at most 2× its 10^3
        // cost (hash-map and cache noise allowance; a linear structure
        // would be ~1000×).
        if let (Some(small), Some(large)) = (at(1_000), at(1_000_000)) {
            if large.admit_ns > 2.0 * small.admit_ns + 500.0 {
                eprintln!(
                    "GATE FAIL: admit at 10^6 is {:.0} ns vs {:.0} ns at 10^3 (limit 2x)",
                    large.admit_ns, small.admit_ns
                );
                ok = false;
            }
        }
        // The naive foil must actually degrade: at the largest size it
        // was measured, it must be ≥100× the timeline path.
        if let Some(r) = rows.iter().rev().find(|r| r.naive_admit_ns.is_some()) {
            let naive = r.naive_admit_ns.unwrap();
            if naive < 100.0 * r.admit_ns {
                eprintln!(
                    "GATE FAIL: naive admit at n={} is only {:.0}x the timeline ({:.0} vs {:.0} ns)",
                    r.n,
                    naive / r.admit_ns,
                    naive,
                    r.admit_ns
                );
                ok = false;
            }
        }
        // GC ∝ expired: scanned equals the due count at every live size.
        for g in &gc_rows {
            if g.scanned as u64 != g.expired {
                eprintln!(
                    "GATE FAIL: GC at {} live scanned {} entries for {} expired",
                    g.live, g.scanned, g.expired
                );
                ok = false;
            }
        }
        // EER GC ∝ due: the same entries scanned at every live size (one
        // allocation and one cached verdict per due EER), and the sweep at
        // 40× the population within 3× the time (deeper TLB and cache
        // misses in larger maps; a scan of the live EERs would be ~40×).
        let (small, large) = (&eer_gc_rows[0], &eer_gc_rows[eer_gc_rows.len() - 1]);
        for g in &eer_gc_rows {
            if g.scanned != 2 * g.due as usize {
                eprintln!(
                    "GATE FAIL: CServ::gc at {} live EERs scanned {} entries for {} due EERs",
                    g.live, g.scanned, g.due
                );
                ok = false;
            }
        }
        if large.gc_ns > 3.0 * small.gc_ns {
            eprintln!(
                "GATE FAIL: CServ::gc at {} live EERs took {:.0} ns vs {:.0} ns at {} (limit 3x)",
                large.live, large.gc_ns, small.gc_ns, small.live
            );
            ok = false;
        }
        if !oracle_ok {
            eprintln!("GATE FAIL: timeline/oracle spot check diverged");
            ok = false;
        }
        if !ok {
            std::process::exit(1);
        }
        println!("all store gates passed");
    }
}

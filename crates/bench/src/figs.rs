//! The paper's evaluation figures and tables — Figs. 3–6, Table 2,
//! Appendices D and E, §5.3 — and the OFD width ablation, one function per
//! row of the `repro` table.

use crate::harness::{
    best_ns_per_call, cache_bytes, host_cores, interleaved_medians, ns_per_call, Check, Json, Mode,
    Outcome,
};
use crate::{
    bench_gateway, bench_router, crypto_ops, delivered_end_to_end, eer_admission_fixture,
    fig3_request, obj, segr_admission_fixture, segr_request, stamp_at_hop, stamped_packets, Xor64,
    SRC_HOST,
};
use colibri::base::{Bandwidth, Duration, Instant, InterfaceId, IsdAsId, ResId, ReservationKey};
use colibri::ctrl::{DistributedCServ, EerAdmitRequest, SegrAdmissionConfig, SegrRequest};
use colibri::dataplane::{Gateway, RouterVerdict};
use colibri::monitor::{OfdConfig, OveruseFlowDetector};
use colibri::sim::{
    doc_protection_experiment, protection_experiment, PhaseResult, ProtectionConfig,
};
use std::collections::HashSet;
use std::hint::black_box;

/// Log-log slope above which an admission cost no longer counts as flat:
/// O(log n) fits at most ≈ 0.13 over the measured decades, O(n) ≈ 1.
const FLAT_SLOPE: f64 = 0.25;

/// A grid of per-call times (row-major: one row per `xs`, one column per
/// `cols`) as rows `{x_name: x, "us": [...]}`, and one flatness check per
/// column, fitted over the rows from `skip` on.
fn flat_grid(
    what: &str,
    x_name: &'static str,
    xs: &[u32],
    cols: &[String],
    us: &[f64],
    skip: usize,
) -> (Json, Vec<Check>) {
    let rows = xs.iter().zip(us.chunks(cols.len()));
    let json = rows
        .clone()
        .map(|(&x, row)| Json::Obj(vec![(x_name, x.into()), ("us", row.to_vec().into())]));
    let checks = cols.iter().enumerate().map(|(j, col)| {
        let points: Vec<_> =
            rows.clone().skip(skip).map(|(&x, row)| (f64::from(x), row[j])).collect();
        Check::slope(format!("{what}, {col}"), &points, FLAT_SLOPE)
    });
    (Json::Arr(json.collect()), checks.collect())
}

/// Fig. 3: SegR admission time vs existing SegRs over the same interface
/// pair, for same-source ratios {0, 0.1, 0.5, 0.9}. The timed call is one
/// admission plus its undo, which restores the fixture.
pub fn fig3(mode: Mode) -> Outcome {
    const SEGRS: [u32; 7] = [0, 1_000, 2_000, 4_000, 6_000, 8_000, 10_000];
    const RATIOS: [f64; 4] = [0.0, 0.1, 0.5, 0.9];
    let (rounds, reps) = mode.pick((5, 2_000), (9, 20_000));
    let mut cells: Vec<_> =
        SEGRS.iter().flat_map(|&n| RATIOS.map(|r| segr_admission_fixture(n, r))).collect();
    let mut id = 0u32;
    let us = interleaved_medians(rounds, cells.len(), |c| {
        let state = &mut cells[c];
        ns_per_call(reps, |_| {
            id = id.wrapping_add(1);
            let (granted, undo) = state.admit_with_undo(fig3_request(id)).expect("admission");
            black_box(granted);
            state.undo(undo);
        }) / 1e3
    });
    let cols = RATIOS.map(|r| format!("ratio={r}"));
    let what = "admit+undo µs over 1k–10k SegRs";
    let (rows, checks) = flat_grid(what, "segrs", &SEGRS, &cols, &us, 1);
    let json = obj! { "rounds": rounds, "reps": reps, "ratios": RATIOS.to_vec(), "rows": rows };
    Outcome { json, checks }
}

/// Fig. 4: EER admission time at a transit AS vs existing EERs on the
/// SegR (10–10⁵), for s ∈ {1, 5 000, 10 000} SegRs in the store.
pub fn fig4(mode: Mode) -> Outcome {
    const EERS: [u32; 5] = [10, 100, 1_000, 10_000, 100_000];
    const SEGRS: [u32; 3] = [1, 5_000, 10_000];
    let (rounds, reps) = mode.pick((5, 5_000), (9, 50_000));
    let exp = Instant::from_secs(1_000_000);
    let now = Instant::from_secs(1);
    let mut cells: Vec<_> =
        EERS.iter().flat_map(|&n| SEGRS.map(|s| eer_admission_fixture(n, s))).collect();
    let mut serial = 0u32;
    let us = interleaved_medians(rounds, cells.len(), |c| {
        let (store, target) = &mut cells[c];
        ns_per_call(reps, |_| {
            serial = serial.wrapping_add(1);
            let key = ReservationKey::new(IsdAsId::new(1, 61), ResId(serial));
            let rec = store.segr_mut(*target).expect("target SegR");
            rec.usage.admit(key, 0, Bandwidth::from_kbps(1), exp, now, None).expect("admission");
            rec.usage.remove_version(key, 0);
        }) / 1e3
    });
    let cols = SEGRS.map(|s| format!("s={s}"));
    let (rows, checks) =
        flat_grid("admit+remove µs over 10–10^5 EERs", "eers", &EERS, &cols, &us, 0);
    let best_rate = 1e6 / us.iter().copied().fold(f64::INFINITY, f64::min);
    let json = obj! {
        "rounds": rounds, "reps": reps, "s": SEGRS.to_vec(), "rows": rows,
        "best_rate_per_s": best_rate,
    };
    Outcome { json, checks }
}

/// Stamps a packet of a random reservation of `ids` per call through
/// `Gateway::process_into`, the benchmark's gateway path.
fn gateway_stamper(mut gw: Gateway, ids: Vec<ResId>, seed: u64, now: Instant) -> impl FnMut(&[u8]) {
    let mut rng = Xor64::new(seed);
    let mut buf = Vec::new();
    move |payload| {
        let id = ids[(rng.next() % ids.len() as u64) as usize];
        black_box(gw.process_into(SRC_HOST, id, payload, now, &mut buf).expect("stamp"));
    }
}

/// Feeds `pkts` (stamped for hop 1) round-robin through the hop-1 router
/// of the `hops`-AS path; every packet must be forwarded.
fn router_loop(pkts: Vec<Vec<u8>>, hops: usize, now: Instant) -> impl FnMut(u64) {
    let mut router = bench_router(hops, 1);
    let mut scratch = Vec::new();
    move |i| {
        scratch.clear();
        scratch.extend_from_slice(&pkts[i as usize % pkts.len()]);
        let verdict = router.process(black_box(&mut scratch), now);
        assert!(matches!(verdict, RouterVerdict::Forward(_)));
    }
}

/// Fig. 5: gateway stamping vs path length {2, 4, 8, 16} and installed
/// reservations r, zero payload, random ResIds. The crypto is exact: one
/// key expansion (the compact σ) and one AES block per on-path AS and
/// packet at every r, and every stamped packet verifies along its whole
/// path. So is the layout: at 4 hops a reservation costs at most
/// `FIG5_BYTES_AT_4_HOPS` (its share of the index plus its record), and a
/// packet touches one region outside the index, its record. The rate is
/// gated flat-ish in r: at 4 hops, r = 2¹⁵ keeps at least
/// `FIG5_COLD_FLOOR` of the r = 1 rate, which the JSON records beside the
/// host's L2 and L3 sizes.
pub fn fig5(mode: Mode) -> Outcome {
    const COUNTED: u64 = 64;
    let rs: Vec<usize> = mode.pick(vec![1, 1 << 15], vec![1, 1 << 10, 1 << 15, 1 << 17]);
    let iters = mode.pick(50_000, 400_000);
    let now = Instant::from_secs(10);
    let (mut rows, mut checks, mut mpps_at_4_hops) = (Vec::new(), Vec::new(), Vec::new());
    let (mut regions, mut bytes_at_4_hops) = (Vec::new(), Vec::new());
    for hops in [2usize, 4, 8, 16] {
        let mut counts = Vec::new();
        for &r in &rs {
            let (mut gw, ids) = bench_gateway(hops, r, now);
            let layout = gw.layout();
            regions.push(layout.record_regions_per_packet);
            let probe = stamp_at_hop(&mut gw, ids[0], &[], 0, now);
            let delivered = delivered_end_to_end(probe, hops, now);
            let mut stamp = gateway_stamper(gw, ids, 0x515, now);
            let mut run = |_: u64| stamp(&[]);
            (0..10_000).for_each(&mut run);
            let (blocks, expansions) = crypto_ops(|| (0..COUNTED).for_each(&mut run));
            let mpps = 1e3 / best_ns_per_call(iters, 8, run);
            counts.push((blocks, expansions, delivered));
            if hops == 4 {
                mpps_at_4_hops.push((r, mpps));
                bytes_at_4_hops.push(layout.bytes_per_reservation);
            }
            rows.push(obj! {
                "hops": hops, "reservations": r, "mpps": mpps,
                "bytes_per_reservation": layout.bytes_per_reservation,
                "record_regions_per_packet": layout.record_regions_per_packet,
                "aes_blocks_per_pkt": blocks as f64 / COUNTED as f64,
                "key_expansions_per_pkt": expansions as f64 / COUNTED as f64,
                "delivered": delivered,
            });
        }
        checks.push(Check::exact(
            format!("{hops} hops: (AES blocks, key expansions, delivered) of {COUNTED} packets, every r"),
            counts,
            vec![(COUNTED * hops as u64, COUNTED * hops as u64, true); rs.len()],
        ));
    }
    let one_region = vec![1; regions.len()];
    checks.push(Check::exact(
        "record regions touched per packet outside the index, every row",
        regions,
        one_region,
    ));
    checks.push(Check::at_most(
        "4 hops: bytes per reservation (index share + record), every r > 1",
        bytes_at_4_hops.iter().skip(1).copied().fold(0.0, f64::max),
        FIG5_BYTES_AT_4_HOPS,
    ));
    let mpps_at = |r: usize| mpps_at_4_hops.iter().find(|&&(at, _)| at == r).expect("measured r").1;
    checks.push(Check::at_least(
        "4 hops: Mpps at r = 2^15 / Mpps at r = 1",
        mpps_at(1 << 15) / mpps_at(1),
        FIG5_COLD_FLOOR,
    ));
    let json = obj! {
        "iters": iters, "l2_bytes": cache_bytes(2), "l3_bytes": cache_bytes(3), "rows": rows,
    };
    Outcome { json, checks }
}

/// The most bytes a 4-hop, 1-version reservation may cost: its 256 B
/// record (a header line, a line of hop fields and head, two of σ) plus
/// at most 32 B of an index between a quarter and half full.
const FIG5_BYTES_AT_4_HOPS: f64 = 288.0;

/// The least share of its r = 1 rate the 4-hop gateway keeps at r = 2¹⁵.
/// On a 2-core Xeon host in quick mode, the layout with 208 B of
/// expanded σ per hop behind three pointers measured 0.23–0.34, the
/// compact flat slot 0.46–0.49. On a 2-core Xeon VM with a 2 MiB L2 the
/// flat slot read a median of 0.217 over ten runs and the index over one
/// record arena 0.312 (0.27–0.36): the index miss remains there.
const FIG5_COLD_FLOOR: f64 = 0.38;

/// Aggregate Mpps of `cores` threads, each running `iters` calls of the
/// loop `setup(core)` builds on that thread; the slowest sets the time.
fn parallel_mpps<F: FnMut(u64)>(
    cores: usize,
    iters: u64,
    setup: impl Fn(usize) -> F + Sync,
) -> f64 {
    let worst_ns = std::thread::scope(|s| {
        let workers: Vec<_> = (0..cores)
            .map(|c| {
                let setup = &setup;
                s.spawn(move || {
                    let mut run = setup(c);
                    (0..iters / 20).for_each(&mut run);
                    ns_per_call(iters, run)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("worker")).fold(0.0, f64::max)
    });
    cores as f64 * 1e3 / worst_ns
}

/// Fig. 6: aggregate gateway and router Mpps vs threads, one shared-nothing
/// state shard per thread, up to the host's cores. Report-only: its gate is
/// the 2 : 1 ratio of a run-to-completion driver (ROADMAP item 7).
pub fn fig6(mode: Mode) -> Outcome {
    let rs: Vec<usize> = mode.pick(vec![1, 1 << 15], vec![1, 1 << 10, 1 << 15, 1 << 17]);
    let iters = mode.pick(30_000, 150_000);
    let now = Instant::from_secs(10);
    let cores = host_cores();
    let mut rows = Vec::new();
    for n in [1usize, 2, 4, 8, 16].into_iter().filter(|&n| n <= cores) {
        let br = parallel_mpps(n, iters, |_| {
            let (mut gw, ids) = bench_gateway(4, 256, now);
            router_loop(stamped_packets(&mut gw, &ids, 0, 1024, 1, now), 4, now)
        });
        let gw: Vec<f64> = rs
            .iter()
            .map(|&r| {
                parallel_mpps(n, iters, |c| {
                    let (gw, ids) = bench_gateway(4, (r / n).max(1), now);
                    let mut stamp = gateway_stamper(gw, ids, 0x9000 + c as u64, now);
                    move |_: u64| stamp(&[])
                })
            })
            .collect();
        rows.push(obj! { "cores": n, "br_mpps": br, "gw_mpps": gw });
    }
    let json = obj! { "host_cores": cores, "hops": 4usize, "gw_reservations": rs, "rows": rows };
    Outcome { json, checks: Vec::new() }
}

/// Appendix E: forwarding vs payload size for the gateway (2¹⁵
/// reservations, 4 hops) and the router. The per-packet crypto is exactly
/// the same at every size, and the Mpps spread stays within 2×.
pub fn appe(mode: Mode) -> Outcome {
    const PAYLOADS: [usize; 5] = [0, 128, 512, 1000, 1500];
    const COUNTED: u64 = 64;
    let (rounds, iters) = mode.pick((3, 20_000), (7, 150_000));
    let now = Instant::from_secs(10);
    let n = PAYLOADS.len();
    let (gw, ids) = bench_gateway(4, 1 << 15, now);
    let mut stamp = gateway_stamper(gw, ids, 0xAE, now);
    let (mut small_gw, small_ids) = bench_gateway(4, 1 << 10, now);
    let mut routers: Vec<_> = PAYLOADS
        .iter()
        .map(|&p| router_loop(stamped_packets(&mut small_gw, &small_ids, p, 1024, 1, now), 4, now))
        .collect();
    let payloads = PAYLOADS.map(|p| vec![0u8; p]);
    // Warm each path, then count one batch: gateway payloads, then routers.
    let mut ops = Vec::new();
    for p in &payloads {
        (0..16).for_each(|_| stamp(p));
        ops.push(crypto_ops(|| (0..COUNTED).for_each(|_| stamp(p))));
    }
    for r in &mut routers {
        (0..16).for_each(&mut *r);
        ops.push(crypto_ops(|| (0..COUNTED).for_each(&mut *r)));
    }
    let mpps = interleaved_medians(rounds, 2 * n, |c| {
        1e3 / if c < n {
            ns_per_call(iters, |_| stamp(&payloads[c]))
        } else {
            ns_per_call(iters, &mut routers[c - n])
        }
    });
    let per_pkt = |(b, x): (u64, u64)| vec![b as f64 / COUNTED as f64, x as f64 / COUNTED as f64];
    let rows: Vec<Json> = (0..n)
        .map(|i| {
            obj! {
                "payload": PAYLOADS[i], "gw_mpps": mpps[i], "br_mpps": mpps[n + i],
                "gw_aes_blocks_key_expansions_per_pkt": per_pkt(ops[i]),
                "br_aes_blocks_key_expansions_per_pkt": per_pkt(ops[n + i]),
            }
        })
        .collect();
    let spread = |xs: &[f64]| {
        xs.iter().copied().fold(0.0, f64::max) / xs.iter().copied().fold(f64::INFINITY, f64::min)
    };
    let what =
        |c: &str| format!("{c} (AES blocks, key expansions) of {COUNTED} packets, every payload");
    let checks = vec![
        Check::exact(what("gateway"), ops[..n].to_vec(), vec![ops[0]; n]),
        Check::exact(what("router"), ops[n..].to_vec(), vec![ops[n]; n]),
        Check::at_most("gateway Mpps max/min over payloads", spread(&mpps[..n]), 2.0),
        Check::at_most("router Mpps max/min over payloads", spread(&mpps[n..]), 2.0),
    ];
    Outcome { json: obj! { "rounds": rounds, "iters": iters, "rows": rows }, checks }
}

/// One OFD run: `flows` compliant flows at exactly their rate plus one 4×
/// overuser. Returns (memory, compliant flows flagged, time until the
/// overuser was flagged, ns per observation).
fn ofd_run(width: usize, flows: u32) -> (usize, usize, Option<Duration>, f64) {
    let key = |i: u32| ReservationKey::new(IsdAsId::new(1, 1 + i / 251), ResId(i));
    let window = Duration::from_millis(100);
    let mut ofd = OveruseFlowDetector::new(OfdConfig { depth: 4, width, window, factor: 1.25 });
    let overuser = key(u32::MAX - 1);
    // Each of 100 rounds per window, a compliant flow consumes window/100
    // of normalized time and the overuser 4× that. (Packetization cancels
    // out of the sketch; what matters is the normalized load.)
    let slice = window.as_nanos() / 100;
    let t0 = Instant::from_nanos(1);
    let mut rng = Xor64::new(0x0FD);
    let mut flagged = HashSet::new();
    let mut detected = None;
    let wall = std::time::Instant::now();
    for round in 0..95u64 {
        let now = t0 + Duration::from_nanos(round * slice);
        for f in 0..flows {
            // Jitter the order a little so row collisions are not
            // artificially synchronized.
            let f = f.wrapping_add((rng.next() % 7) as u32) % flows;
            if ofd.observe(key(f), slice, now) {
                flagged.insert(f);
            }
        }
        if ofd.observe(overuser, 4 * slice, now) && detected.is_none() {
            detected = Some(now.saturating_since(t0));
        }
    }
    let ns = wall.elapsed().as_nanos() as f64 / (95.0 * f64::from(flows + 1));
    (ofd.memory_bytes(), flagged.len(), detected, ns)
}

/// OFD precision vs sketch width (§4.8), 20 000 full-rate compliant flows
/// plus one 4× overuser: no false negatives at any width (a count-min
/// sketch only over-estimates), and false positives fall as the sketch
/// grows — the paper's cache-size/precision trade-off.
pub fn ofd(_mode: Mode) -> Outcome {
    const FLOWS: u32 = 20_000;
    let (mut rows, mut fps, mut missed) = (Vec::new(), Vec::new(), 0u32);
    for width in [1usize << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18] {
        let (mem, fp, delay, ns) = ofd_run(width, FLOWS);
        missed += u32::from(delay.is_none());
        fps.push(fp);
        rows.push(obj! {
            "width": width, "memory_bytes": mem, "false_positives": fp,
            "detection_delay_ns": delay.map(|d| d.as_nanos()), "observe_ns": ns,
        });
    }
    let mut non_increasing = fps.clone();
    non_increasing.sort_unstable_by(|a, b| b.cmp(a));
    let checks = vec![
        Check::exact("widths at which the overuser escaped (false negatives)", missed, 0),
        Check::exact("false positives by width, non-increasing", fps, non_increasing),
    ];
    Outcome { json: obj! { "flows": FLOWS, "rows": rows }, checks }
}

/// Table 2: three input links feed one 40 Gbps output while phases add
/// best-effort congestion, unauthentic Colibri traffic and reservation
/// overuse. Deterministic simulation at a tenth of the paper's rates,
/// reported normalized back to 40 Gbps.
pub fn table2(_mode: Mode) -> Outcome {
    const SCALE: f64 = 0.1;
    let cfg = ProtectionConfig {
        scale: SCALE,
        measure: Duration::from_millis(200),
        warmup: Duration::from_millis(50),
    };
    let r = protection_experiment(&cfg);
    let norm = |b: Bandwidth| b.as_gbps_f64() / SCALE;
    let phases: Vec<Json> = r
        .phases
        .iter()
        .map(|p| {
            obj! {
                "reservation1_gbps": norm(p.reservation1),
                "reservation2_gbps": norm(p.reservation2), "best_effort_gbps": norm(p.best_effort),
                "unauth_gbps": norm(p.unauth),
            }
        })
        .collect();
    let worst = |class: fn(&PhaseResult) -> Bandwidth, guarantee: Bandwidth| {
        let ratios = r.phases.iter().map(|p| class(p).as_gbps_f64() / guarantee.as_gbps_f64());
        ratios.fold(f64::INFINITY, f64::min)
    };
    let unauth: u64 = r.phases.iter().map(|p| p.unauth.as_bps()).sum();
    let checks = vec![
        Check::at_least(
            "reservation 1, worst phase / its 0.4 Gbps guarantee",
            worst(|p| p.reservation1, r.guarantee1),
            0.99,
        ),
        Check::at_least(
            "reservation 2, worst phase / its 0.8 Gbps guarantee",
            worst(|p| p.reservation2, r.guarantee2),
            0.99,
        ),
        Check::exact("unauthentic bit/s delivered, all phases", unauth, 0),
    ];
    Outcome { json: obj! { "scale": SCALE, "phases": phases }, checks }
}

/// §5.3 denial-of-capability protection: control messages over an existing
/// SegR stay on time under a best-effort flood; the same messages sent
/// best-effort are delayed past usefulness once the flood exceeds the
/// bottleneck.
pub fn doc(_mode: Mode) -> Outcome {
    const FLOODS: [f64; 6] = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0];
    let cfg = ProtectionConfig {
        scale: 0.02,
        measure: Duration::from_millis(400),
        warmup: Duration::from_millis(100),
    };
    let runs = FLOODS.map(|f| doc_protection_experiment(&cfg, f));
    let rows: Vec<Json> = FLOODS
        .iter()
        .zip(&runs)
        .map(|(&flood, r)| {
            obj! {
                "flood_factor": flood, "protected_delivery": r.protected_delivery,
                "unprotected_delivery": r.unprotected_delivery,
            }
        })
        .collect();
    let protected = runs.iter().map(|r| r.protected_delivery).fold(1.0, f64::min);
    let flooded = FLOODS.iter().zip(&runs).filter(|(f, _)| **f >= 1.5);
    let unprotected = flooded.map(|(_, r)| r.unprotected_delivery).fold(0.0, f64::max);
    let checks = vec![
        Check::at_least("protected on-time delivery, worst flood up to 3x", protected, 0.99),
        Check::at_most("unprotected on-time delivery, best flood from 1.5x", unprotected, 0.05),
    ];
    Outcome { json: obj! { "scale": cfg.scale, "rows": rows }, checks }
}

/// Appendix D: the distributed CServ's batch admission of 4,096 EERs over
/// 64 SegRs, at 1, 4 and 16 sub-services. Report-only.
pub fn appd(mode: Mode) -> Outcome {
    const BATCH: u32 = 4_096;
    let batches = mode.pick(3, 20);
    let now = Instant::from_secs(0);
    let segr = |i: u32| ReservationKey::new(IsdAsId::new(1, 100 + i), ResId(i));
    let mut rows = Vec::new();
    let mut checks = Vec::new();
    let mut counts = Vec::new();
    for shards in [1usize, 4, 16] {
        let cfg = SegrAdmissionConfig { colibri_share: 1.0, ..SegrAdmissionConfig::default() };
        let svc = DistributedCServ::new(shards, cfg);
        svc.set_interface_capacity(InterfaceId(1), Bandwidth::from_gbps(100_000));
        svc.set_interface_capacity(InterfaceId(2), Bandwidth::from_gbps(100_000));
        for i in 0..64u32 {
            let demand = Bandwidth::from_gbps(1000);
            svc.admit_segr(SegrRequest { demand, ..segr_request(segr(i)) }).expect("SegR admitted");
        }
        let mut admitted = 0usize;
        let us = best_ns_per_call(batches, batches, |b| {
            let reqs: Vec<EerAdmitRequest> = (0..BATCH)
                .map(|e| EerAdmitRequest {
                    segr: segr(e % 64),
                    eer: ReservationKey::new(IsdAsId::new(1, 200), ResId(b as u32 * BATCH + e)),
                    ver: 0,
                    bw: Bandwidth::from_bps(8),
                    exp: Instant::from_secs(16),
                })
                .collect();
            let results = svc.admit_eer_batch_parallel(&reqs, now);
            admitted += results.iter().filter(|r| r.is_ok()).count();
        }) / 1e3;
        let offered = batches as usize * BATCH as usize;
        rows.push(obj! {
            "shards": shards, "batch_us": us, "admissions_per_s": f64::from(BATCH) / us * 1e6,
            "admitted": admitted, "offered": offered,
        });
        checks.push(Check::exact(
            format!("EERs admitted of offered, {shards} sub-service(s)"),
            admitted,
            offered,
        ));
        counts.push(admitted);
    }
    // Sharding changes where an EER is admitted, never whether.
    let same = vec![counts[0]; counts.len()];
    checks.push(Check::exact("admitted count, same at every shard count", counts, same));
    Outcome { json: obj! { "batch": BATCH, "rows": rows }, checks }
}

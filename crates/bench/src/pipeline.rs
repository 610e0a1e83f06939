//! The batched data-plane pipeline (§7.1/§7.2 methodology): scalar vs
//! batched border router, the router's crypto against the reservation
//! population, the telemetry overhead, and the steered router shard-pool
//! sweep.
//!
//! The batched router is gated exactly — same verdicts, AES block
//! operations and key expansions as the scalar router on the same packets,
//! and the same per-packet AES work over 64 or 65,536 reservations — and
//! its Mpps is only reported. The telemetry row is the one wall-clock
//! gate (≤ 2 %). The shard sweep is report-only: on a host with fewer
//! cores than shards wall-clock throughput cannot scale.

use crate::harness::{best_ns_per_call, host_cores, ns_per_call, Check, Mode, Outcome};
use crate::{
    bench_gateway, bench_gateway_for, bench_router, crypto_ops, obj, stamp_at_hop, stamped_packets,
    Xor64,
};
use colibri::base::{Duration, Instant, ResId};
use colibri::dataplane::{
    BorderRouter, RouterConfig, RouterVerdict, ShardOutcome, ShardRouterPool,
};

const HOPS: [usize; 3] = [4, 8, 16];
const NOW: Instant = Instant::from_secs(10);

/// Restores `bufs` to the pristine packets `pkts` (routers rewrite the hop
/// pointer in place).
fn reset(bufs: &mut [Vec<u8>], pkts: &[Vec<u8>]) {
    for (buf, src) in bufs.iter_mut().zip(pkts) {
        buf.clear();
        buf.extend_from_slice(src);
    }
}

/// `router.process_batch` over fresh copies of `pkts`, as one batch.
fn run_batch(
    router: &mut BorderRouter,
    bufs: &mut [Vec<u8>],
    pkts: &[Vec<u8>],
) -> Vec<RouterVerdict> {
    reset(bufs, pkts);
    let mut refs: Vec<&mut [u8]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
    router.process_batch(std::hint::black_box(&mut refs), NOW)
}

/// [`run_batch`], every packet forwarded.
fn forward_batch(router: &mut BorderRouter, bufs: &mut [Vec<u8>], pkts: &[Vec<u8>]) {
    let verdicts = run_batch(router, bufs, pkts);
    assert!(verdicts.iter().all(|v| matches!(v, RouterVerdict::Forward(_))));
}

/// Warms up with `iters / 10 + 1` calls of `run` (one pass over `batch`
/// packets each), then returns the Mpps of its fastest of 8 short windows:
/// one full-length window on a shared host spans several timer ticks, so
/// its rate always includes preemption.
fn best_window_mpps(iters: usize, batch: usize, mut run: impl FnMut()) -> f64 {
    (0..iters / 10 + 1).for_each(|_| run());
    batch as f64 * 1e3 / best_ns_per_call(iters as u64, 8, |_| run())
}

/// Mpps of the batched router over `pkts` as one batch.
fn batched_mpps(router: &mut BorderRouter, pkts: &[Vec<u8>], iters: usize) -> f64 {
    let mut bufs = pkts.to_vec();
    best_window_mpps(iters, pkts.len(), || forward_batch(router, &mut bufs, pkts))
}

/// Scalar and batched router at `hops` over the same 64 packets: each
/// variant's Mpps, then whether verdicts and rewritten packets agree, and
/// the exact (AES blocks, key expansions) of each, both routers built
/// before counting.
fn router_compare(hops: usize, iters: usize) -> (f64, f64, bool, (u64, u64), (u64, u64)) {
    let (mut gw, ids) = bench_gateway(hops, 1 << 10, NOW);
    let pkts = stamped_packets(&mut gw, &ids, 0, 64, 1, NOW);
    let (mut bufs, mut router) = (pkts.clone(), bench_router(hops, 1));
    let scalar_mpps = best_window_mpps(iters, pkts.len(), || {
        reset(&mut bufs, &pkts);
        for buf in bufs.iter_mut() {
            let v = router.process(std::hint::black_box(buf), NOW);
            assert!(matches!(v, RouterVerdict::Forward(_)));
        }
    });
    let batched = batched_mpps(&mut bench_router(hops, 1), &pkts, iters);
    let (mut scalar_router, mut batched_router) = (bench_router(hops, 1), bench_router(hops, 1));
    let (mut scalar_bufs, mut batched_bufs) = (pkts.clone(), pkts.clone());
    let mut scalar_verdicts = Vec::new();
    let scalar_ops = crypto_ops(|| {
        scalar_verdicts =
            scalar_bufs.iter_mut().map(|buf| scalar_router.process(buf, NOW)).collect();
    });
    let mut batched_verdicts = Vec::new();
    let batched_ops =
        crypto_ops(|| batched_verdicts = run_batch(&mut batched_router, &mut batched_bufs, &pkts));
    let equal = scalar_verdicts == batched_verdicts && scalar_bufs == batched_bufs;
    (scalar_mpps, batched, equal, scalar_ops, batched_ops)
}

/// The batched router over 64 packets (8 hops, checked at hop 1) drawn
/// from `reservations` reservations: distinct reservations, (AES blocks,
/// key expansions) of one batch on a router that already holds the
/// epoch's `K_i`, then its Mpps.
fn population_row(reservations: u32, iters: usize) -> (usize, (u64, u64), f64) {
    const HOPS: usize = 8;
    let mut rng = Xor64::new(0xF1A7);
    let draws: Vec<u32> = (0..64).map(|_| (rng.next() % u64::from(reservations)) as u32).collect();
    let (mut gw, _) = bench_gateway_for(HOPS, draws.iter().copied(), NOW);
    let pkts: Vec<Vec<u8>> =
        draws.iter().map(|&id| stamp_at_hop(&mut gw, ResId(id), &[], 1, NOW)).collect();
    let mut distinct = draws.clone();
    distinct.sort_unstable();
    distinct.dedup();

    let (mut router, mut bufs) = (bench_router(HOPS, 1), pkts.clone());
    forward_batch(&mut router, &mut bufs, &pkts);
    let ops = crypto_ops(|| forward_batch(&mut router, &mut bufs, &pkts));
    (distinct.len(), ops, batched_mpps(&mut router, &pkts, iters))
}

/// The telemetry overhead on the batched router hot path: two routers,
/// identical except that one has a registry attached. Returns (plain
/// Mpps, instrumented Mpps, median per-round ratio, scrape samples).
fn telemetry_overhead(hops: usize, iters: usize) -> (f64, f64, f64, usize) {
    let (mut gw, ids) = bench_gateway(hops, 1 << 10, NOW);
    let pkts = stamped_packets(&mut gw, &ids, 0, 64, 1, NOW);
    let mut bufs = pkts.clone();
    let mut plain = bench_router(hops, 1);
    let registry = colibri::telemetry::Registry::new();
    let mut instrumented = bench_router(hops, 1);
    instrumented.attach_telemetry(&registry, "bench_router");

    let mut mpps = |router: &mut BorderRouter, iters: usize| {
        forward_batch(router, &mut bufs, &pkts);
        pkts.len() as f64 * 1e3
            / ns_per_call(iters as u64, |_| forward_batch(router, &mut bufs, &pkts))
    };

    // Interleaved rounds with windows several ms long, alternating which
    // variant runs first. The gate compares the median of the per-round
    // ratios: a slowdown of the shared host that spans a round dents both
    // of its windows alike, where best-of-N per variant lets one lucky
    // window of either side decide. Quick mode keeps full-length windows —
    // the ratio needs them far more than wall-clock savings. The Mpps
    // columns report each variant's best window.
    const ROUNDS: usize = 15;
    let per_round = (iters / 3).max(1333);
    let (mut plain_mpps, mut instrumented_mpps) = (0.0f64, 0.0f64);
    let mut ratios = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let (p, i) = if round % 2 == 0 {
            let p = mpps(&mut plain, per_round);
            (p, mpps(&mut instrumented, per_round))
        } else {
            let i = mpps(&mut instrumented, per_round);
            (mpps(&mut plain, per_round), i)
        };
        plain_mpps = plain_mpps.max(p);
        instrumented_mpps = instrumented_mpps.max(i);
        ratios.push(i / p);
    }
    ratios.sort_by(f64::total_cmp);

    // The scrape must be well-formed and must have seen the traffic, so
    // the gate cannot pass on a router whose telemetry silently detached.
    let snapshot = registry.snapshot();
    let samples = colibri::telemetry::verify_exposition(&snapshot.render_prometheus())
        .expect("exposition must verify");
    assert!(
        snapshot.total("colibri_router_forwarded_total") > 0,
        "instrumented run must surface forwarded packets in the scrape"
    );
    (plain_mpps, instrumented_mpps, ratios[ROUNDS / 2], samples)
}

/// The router shard pool, steered by reservation ID, over `packets`
/// packets of a 1,024-packet working set: (wall Mpps, wall Mpps per shard,
/// steering imbalance).
fn shard_sweep(shards: usize, packets: usize) -> (f64, Vec<f64>, f64) {
    let hops = 8usize;
    let (mut gw, ids) = bench_gateway(hops, 1 << 8, NOW);
    let pkts = stamped_packets(&mut gw, &ids, 0, 1024, 1, NOW);
    let cfg = RouterConfig {
        freshness: Duration::from_secs(3600),
        skew: Duration::from_secs(3600),
        monitoring: false,
        ..RouterConfig::default()
    };
    let ases = crate::path_ases(hops);
    let master = colibri::ctrl::master_secret_for(ases[1]);

    // Queues sized to hold the full run so the driver never blocks on
    // submit; it sleeps (not spins) while draining, leaving the cores to
    // the shards.
    let mut pool = ShardRouterPool::new(shards, packets + 1, move |_| {
        BorderRouter::new(ases[1], &master, cfg)
    });

    // Warm-up: push one queue-batch through each shard.
    let mut outs = Vec::new();
    for i in 0..shards * 64 {
        let mut buf = pool.buffer();
        buf.extend_from_slice(&pkts[i % pkts.len()]);
        pool.submit(buf, NOW, &mut outs);
    }
    while outs.len() < shards * 64 {
        pool.try_drain(&mut outs, usize::MAX);
        std::thread::sleep(std::time::Duration::from_micros(100));
    }
    for o in outs.drain(..) {
        assert!(matches!(o.outcome, ShardOutcome::Verdict(RouterVerdict::Forward(_))));
        pool.recycle(o);
    }

    let t0 = std::time::Instant::now();
    for i in 0..packets {
        let mut buf = pool.buffer();
        buf.extend_from_slice(&pkts[i % pkts.len()]);
        pool.submit(buf, NOW, &mut outs);
    }
    let mut done = 0usize;
    while done < packets {
        let got = pool.try_drain(&mut outs, usize::MAX);
        done += got;
        for o in outs.drain(..) {
            pool.recycle(o);
        }
        if got == 0 {
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
    }
    let wall = t0.elapsed().as_secs_f64();

    let snap = pool.shutdown(&mut outs);
    assert_eq!(snap.stats.bad_hvf, 0);
    // Each shard's share of the measured run against the same wall clock.
    // `submitted` includes the warm-up packets; scaling by
    // `packets / total` removes them proportionally (warm-up traffic
    // follows the same distribution as the run).
    let total: u64 = snap.per_shard.iter().map(|s| s.submitted).sum();
    let share = |s: u64| s as f64 * packets as f64 / total as f64 / wall / 1e6;
    let per_shard = snap.per_shard.iter().map(|s| share(s.submitted)).collect();
    (packets as f64 / wall / 1e6, per_shard, snap.steering_imbalance())
}

/// The `pipeline` row of the `repro` table.
pub fn pipeline(mode: Mode) -> Outcome {
    let iters = mode.pick(1200, 4000);
    let mut checks = Vec::new();

    let mut router = Vec::new();
    for hops in HOPS {
        let (scalar, batched, equal, scalar_ops, batched_ops) = router_compare(hops, iters);
        checks.push(Check::exact(
            format!("{hops} hops, batched vs scalar: (verdicts+packets equal, AES blocks, key expansions)"),
            (equal, batched_ops.0, batched_ops.1),
            (true, scalar_ops.0, scalar_ops.1),
        ));
        router.push(obj! {
            "hops": hops, "scalar_mpps": scalar, "batched_mpps": batched,
            "speedup": batched / scalar, "aes_blocks": vec![scalar_ops.0, batched_ops.0],
            "key_expansions": vec![scalar_ops.1, batched_ops.1],
            "batched_equals_scalar": equal && scalar_ops == batched_ops,
        });
    }

    let mut population = Vec::new();
    let mut costs = Vec::new();
    for reservations in [64u32, 1 << 16] {
        let (distinct, (blocks, expansions), mpps) = population_row(reservations, iters);
        costs.push((blocks, expansions));
        population.push(obj! {
            "reservations": reservations, "distinct": distinct, "aes_blocks": blocks,
            "key_expansions": expansions, "batched_mpps": mpps,
        });
    }
    checks.push(Check::exact(
        "(AES blocks, key expansions) of 64 packets from 65,536 reservations vs from 64",
        costs[1],
        costs[0],
    ));

    let mut telemetry = Vec::new();
    for hops in HOPS {
        let (plain, instrumented, ratio, samples) = telemetry_overhead(hops, iters);
        let what = format!("instrumented/plain batched router at {hops} hops, median of 15");
        checks.push(Check::at_least(what, ratio, 0.98));
        telemetry.push(obj! {
            "hops": hops, "plain_mpps": plain, "instrumented_mpps": instrumented,
            "ratio": ratio, "scrape_samples": samples,
        });
    }

    let mut parallel = Vec::new();
    for shards in [1usize, 2, 4] {
        let (wall, per_shard, imbalance) = shard_sweep(shards, mode.pick(40_000, 400_000));
        parallel.push(obj! {
            "shards": shards, "wall_mpps": wall, "per_shard_wall_mpps": per_shard,
            "steering_imbalance": imbalance,
        });
    }

    let json = obj! {
        "host_cores": host_cores(), "router": router, "reservation_population": population,
        "telemetry_overhead": telemetry, "parallel_router": parallel,
    };
    Outcome { json, checks }
}

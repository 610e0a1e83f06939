//! Cross-shard telemetry aggregation under fault injection.
//!
//! Three angles, each comparing a scrape against independently computed
//! ground truth:
//!
//! 1. The thread-sharded `colibri_ctrl_retry_*` counters on the global
//!    registry: several threads drive reliable setups over lossy
//!    channels (plus one timeout-inducing channel), and the scraped
//!    cross-shard delta must equal the sum of every [`RetryStats`] the
//!    reliable entry points returned.
//! 2. Per-CServ admission counters and the shared trace ring under a
//!    lossy fault plan: fresh verdicts are counted exactly once per
//!    (request, hop) no matter how many retries the faults forced, and
//!    the replay-hit counter must agree with the `retry` trace events.
//! 3. The `parallel` shard drivers: the registry scrape of a
//!    multi-shard gateway + router run must equal the pools' aggregated
//!    shutdown snapshots, with the per-shard split visible.

use colibri::base::Clock;
use colibri::ctrl::telemetry::{METRIC_RETRY_ATTEMPTS, METRIC_RETRY_LOST, METRIC_RETRY_TIMEOUTS};
use colibri::ctrl::{
    renew_eer_with, setup_eer_with, setup_segr_with, ControlChannel, Delivery, RetryPolicy,
    RetryStats,
};
use colibri::dataplane::{ParallelGateway, ShardRouterPool};
use colibri::prelude::*;
use colibri::sim::{FaultPlan, LinkFaults};
use colibri::telemetry::{global, verify_exposition, Registry, TraceOp, Tracer};
use colibri::topology::gen::{internet_like, InternetConfig};
use std::sync::{Arc, Mutex};

/// Serializes the tests that touch the global registry's retry
/// counters: the before/after delta in one test must not observe
/// another test thread's increments.
static RETRY_COUNTERS: Mutex<()> = Mutex::new(());

fn policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::from_millis(20),
        max_backoff: Duration::from_millis(200),
        jitter_pct: 20,
        per_hop_timeout: Duration::from_millis(200),
        deadline: Duration::MAX,
    }
}

/// What one lossy workload did, measured from the caller's side.
struct LossyRun {
    truth: RetryStats,
    segr_hops: u64,
    eer_setup_hops: u64,
    renewal_hops: u64,
}

/// Drives three cross-ISD SegR + EER setups (plus one EER renewal each)
/// over a 4%-loss channel on a private topology, optionally with CServ
/// telemetry attached, and returns the ground truth the scrape must
/// reproduce.
fn drive_lossy_setups(seed: u64, telemetry: Option<(&Registry, &Arc<Tracer>)>) -> LossyRun {
    let gen = internet_like(
        &InternetConfig {
            isds: 2,
            cores_per_isd: 2,
            leaves_per_isd: 2,
            providers_per_leaf: 1,
            ..Default::default()
        },
        seed,
    );
    let mut reg = CservRegistry::provision(&gen.topo, CservConfig::default());
    if let Some((registry, tracer)) = telemetry {
        for id in reg.ids() {
            reg.get_mut(id).unwrap().attach_tracer(
                registry,
                &format!("cserv_{id}"),
                Arc::clone(tracer),
            );
        }
    }
    let clock = Clock::starting_at(Instant::from_secs(1));
    let plan = FaultPlan::new(seed ^ 0xF001).with_default_faults(
        LinkFaults::lossy(40_000).with_delay(Duration::from_millis(1)),
    );
    let mut ch = plan.channel();
    let policy = policy();
    let mut run = LossyRun {
        truth: RetryStats::default(),
        segr_hops: 0,
        eer_setup_hops: 0,
        renewal_hops: 0,
    };

    let leaves: Vec<IsdAsId> = gen.topo.as_ids().filter(|&a| !gen.topo.is_core(a)).collect();
    let (a, b): (Vec<IsdAsId>, Vec<IsdAsId>) =
        leaves.iter().copied().partition(|l| l.isd == leaves[0].isd);
    assert!(a.len() >= 2 && b.len() >= 2, "need two leaves per ISD");

    for (k, (src, dst)) in [(a[0], b[0]), (b[1], a[1]), (a[1], b[0])].into_iter().enumerate() {
        let path = find_paths(&gen.topo, &gen.segments, src, dst, 4)
            .into_iter()
            .next()
            .unwrap_or_else(|| panic!("no path {src} → {dst}"));
        let mut segr_keys = Vec::new();
        for seg in &path.segments {
            let (grant, s) = setup_segr_with(
                &mut reg,
                seg,
                Bandwidth::from_mbps(200),
                Bandwidth::from_mbps(1),
                Instant::EPOCH,
                &clock,
                &mut ch,
                &policy,
            )
            .unwrap_or_else(|e| panic!("segr {src} → {dst} under loss: {e}"));
            run.truth.absorb(s);
            run.segr_hops += seg.hops.len() as u64;
            segr_keys.push(grant.key);
        }
        let hosts =
            EerInfo { src_host: HostAddr(100 + k as u32), dst_host: HostAddr(200 + k as u32) };
        let (eer, s) = setup_eer_with(
            &mut reg,
            &path,
            &segr_keys,
            hosts,
            Bandwidth::from_mbps(20),
            &clock,
            &mut ch,
            &policy,
        )
        .unwrap_or_else(|e| panic!("eer {src} → {dst} under loss: {e}"));
        run.truth.absorb(s);
        run.eer_setup_hops += path.hops.len() as u64;
        let (_renewed, s) =
            renew_eer_with(&mut reg, eer.key, Bandwidth::from_mbps(25), &clock, &mut ch, &policy)
                .unwrap_or_else(|e| panic!("renewal {src} → {dst} under loss: {e}"));
        run.truth.absorb(s);
        run.renewal_hops += path.hops.len() as u64;
    }
    assert!(ch.lost > 0, "the fault plan never dropped a leg (seed {seed:#x})");
    run
}

/// A channel whose first legs arrive — but too slowly: the round trip
/// exceeds the per-hop timeout, so the exchange counts a timeout and
/// retries into the replay cache.
struct SlowStartChannel {
    slow_legs: u32,
}

impl ControlChannel for SlowStartChannel {
    fn deliver(&mut self, _from: IsdAsId, _to: IsdAsId, _now: Instant) -> Delivery {
        if self.slow_legs > 0 {
            self.slow_legs -= 1;
            Delivery::Delivered(Duration::from_millis(150))
        } else {
            Delivery::Delivered(Duration::ZERO)
        }
    }
}

/// One SegR setup whose first hop exchange round-trips in 300 ms against
/// a 200 ms budget. Returns the ground-truth stats (timeouts ≥ 1).
fn drive_timeout_setup() -> RetryStats {
    let sample = colibri::topology::gen::sample_two_isd();
    let mut reg = CservRegistry::provision(&sample.topo, CservConfig::default());
    let clock = Clock::starting_at(Instant::from_secs(1));
    let mut ch = SlowStartChannel { slow_legs: 2 };
    let up = sample.segments.up_segments(sample.leaf_a, sample.core_11)[0].clone();
    let (_grant, stats) = setup_segr_with(
        &mut reg,
        &up,
        Bandwidth::from_mbps(100),
        Bandwidth::from_mbps(1),
        Instant::EPOCH,
        &clock,
        &mut ch,
        &policy(),
    )
    .expect("setup must succeed once the channel speeds up");
    assert!(stats.timeouts >= 1, "the slow legs must have produced a timeout");
    stats
}

#[test]
fn retry_counters_aggregate_across_threads_and_match_ground_truth() {
    let _guard = RETRY_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let before = global().snapshot();

    // Three worker threads, each with its own deployment, clock, and
    // fault plan — plus a timeout-inducing run on this thread. Every
    // thread lazily registers its own `ctrl_thread_<n>` shard.
    let handles: Vec<_> = (0..3u64)
        .map(|t| std::thread::spawn(move || drive_lossy_setups(0xBA5E + t, None).truth))
        .collect();
    let mut truth = drive_timeout_setup();
    for h in handles {
        truth.absorb(h.join().expect("worker thread panicked"));
    }

    let after = global().snapshot();
    let delta = after.delta_since(&before);
    assert_eq!(delta.total(METRIC_RETRY_ATTEMPTS), truth.attempts, "attempts");
    assert_eq!(delta.total(METRIC_RETRY_LOST), truth.lost, "lost");
    assert_eq!(delta.total(METRIC_RETRY_TIMEOUTS), truth.timeouts, "timeouts");
    assert!(truth.lost > 0, "ground truth must include real losses");
    assert!(truth.timeouts > 0, "ground truth must include a real timeout");

    // The aggregation really is cross-shard: at least the three workers
    // plus this thread registered cells.
    let m = after.metric(METRIC_RETRY_ATTEMPTS).expect("retry attempts registered");
    assert!(m.shards.len() >= 4, "expected ≥4 thread shards, saw {}", m.shards.len());
    verify_exposition(&after.render_prometheus()).expect("global scrape must verify");
}

#[test]
fn admission_counters_and_trace_match_hop_ground_truth_under_loss() {
    // Also writes the global retry counters; keep out of the delta test.
    let _guard = RETRY_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let registry = Registry::new();
    let tracer = Arc::new(Tracer::new(4096));
    let run = drive_lossy_setups(0xA11CE, Some((&registry, &tracer)));

    let snap = registry.snapshot();
    // Fresh verdicts land exactly once per (request, hop) regardless of
    // how many retries the fault plan forced — the replay cache absorbs
    // the duplicates into `replayed_verdicts` instead.
    assert_eq!(snap.total("colibri_ctrl_segr_admit_ok_total"), run.segr_hops);
    assert_eq!(snap.total("colibri_ctrl_segr_admit_denied_total"), 0);
    assert_eq!(
        snap.total("colibri_ctrl_eer_admit_ok_total"),
        run.eer_setup_hops + run.renewal_hops
    );
    assert_eq!(snap.total("colibri_ctrl_eer_admit_denied_total"), 0);
    assert_eq!(snap.total("colibri_ctrl_rollbacks_total"), 0);
    assert!(snap.total("colibri_ctrl_renewals_total") > 0);

    // Counter and trace ring count the same replay hits.
    assert_eq!(
        snap.total("colibri_ctrl_replayed_verdicts_total"),
        tracer.events_for(TraceOp::Retry).len() as u64
    );
    // And each fresh verdict left exactly one trace event of its kind.
    assert_eq!(tracer.events_for(TraceOp::SegrAdmission).len() as u64, run.segr_hops);
    assert_eq!(tracer.events_for(TraceOp::EerAdmission).len() as u64, run.eer_setup_hops);
    assert_eq!(tracer.events_for(TraceOp::Renewal).len() as u64, run.renewal_hops);

    assert!(run.truth.lost > 0, "the run must actually have retried");
    verify_exposition(&snap.render_prometheus()).expect("scrape must verify");
}

#[test]
fn pool_scrapes_equal_cross_shard_shutdown_snapshots() {
    // The setups below write the global retry counters too.
    let _guard = RETRY_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let sample = colibri::topology::gen::sample_two_isd();
    let now = Instant::from_secs(1);
    let mut reg = CservRegistry::provision(&sample.topo, CservConfig::default());
    let path = find_paths(&sample.topo, &sample.segments, sample.leaf_a, sample.leaf_d, 8)[0]
        .clone();
    let mut segr_keys = Vec::new();
    for seg in &path.segments {
        let grant =
            setup_segr(&mut reg, seg, Bandwidth::from_gbps(2), Bandwidth::from_mbps(10), now)
                .expect("segment admission");
        segr_keys.push(grant.key);
    }
    let mut owned = Vec::new();
    for k in 0..6u32 {
        let hosts = EerInfo { src_host: HostAddr(0x0a00_0000 + k), dst_host: HostAddr(0x1400_0002) };
        let eer = setup_eer(&mut reg, &path, &segr_keys, hosts, Bandwidth::from_mbps(20), now)
            .expect("EER admission");
        owned.push(
            reg.get(sample.leaf_a).unwrap().store().owned_eer(eer.key).unwrap().clone(),
        );
    }

    // One registry for both pools: 3 gateway shards + 2 router shards.
    let registry = Registry::new();
    let mut pg = ParallelGateway::with_telemetry(
        3,
        GatewayConfig { burst: Duration::from_secs(3600), ..Default::default() },
        32,
        &registry,
    );
    for eer in &owned {
        pg.install(eer, now);
    }
    for i in 0..48u32 {
        let eer = &owned[(i % 6) as usize];
        pg.submit(eer.eer_info.src_host, eer.key.res_id, i.to_be_bytes().to_vec(), now);
    }
    // One unknown reservation: a rejected stamp, visible in the scrape.
    pg.submit(HostAddr(1), ResId(99_999), b"x".to_vec(), now);
    let mut stamped = Vec::new();
    pg.flush(&mut stamped);
    let gw_snap = pg.shutdown(&mut stamped);

    let leaf_a = sample.leaf_a;
    let mut pool = ShardRouterPool::with_telemetry(2, 32, &registry, move |_| {
        BorderRouter::new(leaf_a, &master_secret_for(leaf_a), RouterConfig::default())
    });
    let mut routed = Vec::new();
    let mut sent = 0usize;
    for (i, s) in stamped.into_iter().filter(|s| s.result.is_ok()).enumerate() {
        let mut pkt = s.bytes;
        if i < 3 {
            // Corrupt the HVF: a deterministic bad-HVF drop per packet.
            let n = pkt.len();
            pkt[n - 20] ^= 0xFF;
        }
        pool.submit(pkt, now, &mut routed);
        sent += 1;
    }
    while routed.len() < sent {
        pool.try_drain(&mut routed, usize::MAX);
        std::thread::yield_now();
    }
    let rt_snap = pool.shutdown(&mut routed);

    // The scrape and the pools' own cross-shard merges must agree bit
    // for bit — the scraped total IS the sum over worker shards.
    let snap = registry.snapshot();
    assert_eq!(gw_snap.shards, 3);
    assert_eq!(rt_snap.shards, 2);
    assert_eq!(snap.total("colibri_gateway_forwarded_total"), gw_snap.stats.forwarded);
    assert_eq!(snap.total("colibri_gateway_rate_limited_total"), gw_snap.stats.rate_limited);
    assert_eq!(snap.total("colibri_gateway_rejected_total"), gw_snap.stats.rejected);
    assert_eq!(gw_snap.stats.forwarded, 48);
    assert_eq!(gw_snap.stats.rejected, 1);
    assert_eq!(snap.total("colibri_router_forwarded_total"), rt_snap.stats.forwarded);
    assert_eq!(snap.total("colibri_router_drop_bad_hvf_total"), rt_snap.stats.bad_hvf);
    assert_eq!(rt_snap.stats.forwarded, 45);
    assert_eq!(rt_snap.stats.bad_hvf, 3);

    // The per-shard split is visible in the scrape and sums to the total.
    let gw_fwd = snap.metric("colibri_gateway_forwarded_total").unwrap();
    assert_eq!(gw_fwd.shards.len(), 3);
    let rt_fwd = snap.metric("colibri_router_forwarded_total").unwrap();
    assert_eq!(rt_fwd.shards.len(), 2);
    verify_exposition(&snap.render_prometheus()).expect("scrape must verify");
}

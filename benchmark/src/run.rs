//! One benchmark run: build the workload's state, measure, check, derive
//! the metrics.
//!
//! Every run has two segments — the chained packet path and the
//! host-request path — so that every metric is measured on every
//! workload. The workload's own segment gets most of the time; the other
//! one is a fixed reference (dp-short-hot's packet path, cp-flow-churn's
//! request path).

use crate::cli::Args;
use crate::cp::{Book, FlowChurn, RequestScenario, SegrLoaded, SEGR_POPULATION};
use crate::dp::{DpCfg, DpKind, PacketPath};
use crate::ledger;
use crate::metrics::{catalog, Better};
use crate::scenario::{run_pass, warm_up, Counts, Sample, Scenario, Verdict, Window};
use crate::stats::{self, Band, Tail};
use crate::sut::{self, Captured, Host};
use crate::trace::{Cause, SpanName, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// Share of `--seconds` spent on the workload's own segment.
const PRIMARY_SHARE: f64 = 0.7;

/// The two segments take turns, this many each: a shared host has slow
/// phases that last seconds, and a segment measured in one stretch would
/// sit wholly inside or outside one.
const SLICES: usize = 6;

/// Both segments, alternating, for `packet_s` and `request_s` seconds in
/// all; exact counts are taken in each segment's first slice.
fn interleaved(
    state: &mut State,
    tr: &mut Tracer,
    packet_s: f64,
    request_s: f64,
) -> (Vec<Window>, Counts, Vec<Window>, Counts) {
    let (mut packet_windows, mut packet_counts) = (Vec::new(), Counts::new());
    let (mut request_windows, mut request_counts) = (Vec::new(), Counts::new());
    for slice in 0..SLICES {
        let first = slice == 0;
        packet_windows.extend(run_pass(
            &mut state.packet,
            tr,
            packet_s / SLICES as f64,
            1,
            first.then_some(&mut packet_counts),
        ));
        request_windows.extend(run_pass(
            state.request.as_mut(),
            tr,
            request_s / SLICES as f64,
            1,
            first.then_some(&mut request_counts),
        ));
    }
    (
        packet_windows,
        packet_counts,
        request_windows,
        request_counts,
    )
}

struct Plan {
    packet: DpKind,
    segr_loaded: bool,
    primary_is_packet: bool,
}

fn plan(workload: &str) -> Plan {
    let plan = |packet, segr_loaded, primary_is_packet| Plan {
        packet,
        segr_loaded,
        primary_is_packet,
    };
    match workload {
        "dp-short-hot" => plan(DpKind::ShortHot, false, true),
        "dp-long-cold" => plan(DpKind::LongCold, false, true),
        "dp-attack-mix" => plan(DpKind::AttackMix, false, true),
        "cp-flow-churn" => plan(DpKind::ShortHot, false, false),
        "cp-segr-loaded" => plan(DpKind::ShortHot, true, false),
        other => unreachable!("cli::parse admits only catalogued workloads, got {other}"),
    }
}

struct State {
    packet: PacketPath,
    request: Box<dyn RequestScenario>,
}

fn build(plan: &Plan, seed: u64, tr: &mut Tracer) -> Result<State, String> {
    let packet = PacketPath::new(DpCfg::new(plan.packet), seed, tr);
    let request: Box<dyn RequestScenario> = if plan.segr_loaded {
        Box::new(SegrLoaded::new(seed, SEGR_POPULATION, tr)?)
    } else {
        Box::new(FlowChurn::new(seed))
    };
    Ok(State { packet, request })
}

/// Builds the workload's state a few more times, after the measurement
/// (so that the repetitions leave no mark on `peak_rss_mb`), and reports
/// the set-up time over all builds including the first.
fn repeat_setup(plan: &Plan, seed: u64, first_s: f64) -> Result<Reported, String> {
    let mut times = vec![first_s];
    let reps = match first_s {
        t if t < 0.02 => 40,
        t if t < 0.5 => 5,
        t if t < 2.0 => 3,
        _ => 2,
    };
    let mut off = Tracer::new(false);
    for _ in 1..reps {
        let t0 = Instant::now();
        let state = build(plan, seed, &mut off)?;
        times.push(t0.elapsed().as_secs_f64());
        drop(state);
    }
    quiet(&times, Better::Lower).ok_or_else(|| "no set-up times".to_string())
}

fn per_window(windows: &[Window], f: impl Fn(&Window) -> f64) -> Vec<f64> {
    windows.iter().map(f).filter(|v| v.is_finite()).collect()
}

fn wall_s(w: &Window) -> f64 {
    w.wall_ns as f64 / 1e9
}

fn delivered_pps(w: &Window) -> f64 {
    w.work.delivered as f64 / wall_s(w)
}

fn requests_per_s(w: &Window) -> f64 {
    w.work.requests as f64 / wall_s(w)
}

/// One metric as reported: the value, and for quiet-window estimates the
/// median, min, max and count of the windows it was taken over.
#[derive(Debug, Clone, Copy)]
pub struct Reported {
    pub value: f64,
    pub band: Option<Band>,
}

pub type Values = BTreeMap<&'static str, Reported>;

/// The quiet-window estimate over per-window values, with their band.
fn quiet(per_window: &[f64], better: Better) -> Option<Reported> {
    let value = match better {
        Better::Higher => stats::quiet_high(per_window),
        Better::Lower => stats::quiet_low(per_window),
    }?;
    Some(Reported {
        value,
        band: stats::band(per_window),
    })
}

fn put_quiet(
    values: &mut Values,
    name: &'static str,
    per_window: &[f64],
    better: Better,
) -> Result<(), String> {
    let r = quiet(per_window, better).ok_or_else(|| format!("no samples for {name}"))?;
    values.insert(name, r);
    Ok(())
}

/// The p50 of each window's latency samples (windows without any are left out).
fn window_p50s(windows: &[Window], sc: &dyn Scenario, which: Sample) -> Vec<f64> {
    windows
        .iter()
        .filter_map(|w| stats::median(w.samples(sc, which)))
        .collect()
}

fn put(values: &mut Values, name: &'static str, value: f64) {
    values.insert(name, Reported { value, band: None });
}

fn packet_metrics(
    values: &mut Values,
    windows: &[Window],
    sc: &dyn Scenario,
) -> Result<(), String> {
    put_quiet(
        values,
        "delivered_pps",
        &per_window(windows, delivered_pps),
        Better::Higher,
    )?;
    put_quiet(
        values,
        "path_latency_p50_us",
        &window_p50s(windows, sc, Sample::BurstUs),
        Better::Lower,
    )?;
    put_quiet(
        values,
        "gateway_pps",
        &per_window(windows, |w| {
            w.work.gw_offered as f64 / (w.work.gw_ns as f64 / 1e9)
        }),
        Better::Higher,
    )?;
    put_quiet(
        values,
        "router_hop_pps",
        &per_window(windows, |w| {
            w.work.pkt_hops as f64 / (w.work.rt_ns as f64 / 1e9)
        }),
        Better::Higher,
    )?;
    put_quiet(
        values,
        "goodput_gbps",
        &per_window(windows, |w| {
            w.work.payload_bytes as f64 * 8.0 / wall_s(w) / 1e9
        }),
        Better::Higher,
    )
}

fn request_metrics(
    values: &mut Values,
    windows: &[Window],
    sc: &dyn Scenario,
) -> Result<(), String> {
    put_quiet(
        values,
        "requests_per_s",
        &per_window(windows, requests_per_s),
        Better::Higher,
    )?;
    put_quiet(
        values,
        "setup_latency_p50_us",
        &window_p50s(windows, sc, Sample::SetupUs),
        Better::Lower,
    )?;
    put_quiet(
        values,
        "renew_latency_p50_us",
        &window_p50s(windows, sc, Sample::RenewUs),
        Better::Lower,
    )?;
    put_quiet(
        values,
        "gc_pause_p50_ms",
        &window_p50s(windows, sc, Sample::GcMs),
        Better::Lower,
    )
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn merge_verdicts(a: Verdict, b: Verdict) -> Verdict {
    Verdict {
        attempted: a.attempted + b.attempted,
        failed: a.failed + b.failed,
        violations: a.violations.into_iter().chain(b.violations).collect(),
    }
}

/// Everything a run produced.
pub struct Outcome {
    pub values: Values,
    pub verdict: Verdict,
    /// Exact counts over the first [`COUNT_WINDOWS`] measured windows of
    /// each segment: equal seeds give equal counts.
    pub counts: Counts,
    pub tails: BTreeMap<&'static str, Tail>,
    pub tracer: Tracer,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let plan = plan(&args.workload);
    let mut tr = Tracer::new(args.trace);
    let t0 = Instant::now();
    let mut state = build(&plan, args.seed, &mut tr)?;
    let first_setup_s = t0.elapsed().as_secs_f64();
    if args.sabotage {
        state.packet.sabotage();
        state.request.book_mut().sabotage = true;
    }
    let (packet_s, request_s) = if plan.primary_is_packet {
        (
            args.seconds * PRIMARY_SHARE,
            args.seconds * (1.0 - PRIMARY_SHARE),
        )
    } else {
        (
            args.seconds * (1.0 - PRIMARY_SHARE),
            args.seconds * PRIMARY_SHARE,
        )
    };
    let Measured {
        values,
        verdict,
        counts,
        tails,
    } = if args.trace {
        traced(&plan, args, &mut state, &mut tr, packet_s, request_s)?
    } else {
        untraced(
            &plan,
            args,
            state,
            &mut tr,
            packet_s,
            request_s,
            first_setup_s,
        )?
    };
    for m in catalog(args.trace) {
        match values.get(m.name) {
            Some(r) if r.value.is_finite() => {}
            _ => return Err(format!("internal: metric {} was not measured", m.name)),
        }
    }
    Ok(Outcome {
        values,
        verdict,
        counts,
        tails,
        tracer: tr,
    })
}

/// What either kind of run measures.
struct Measured {
    values: Values,
    verdict: Verdict,
    counts: Counts,
    tails: BTreeMap<&'static str, Tail>,
}

fn untraced(
    plan: &Plan,
    args: &Args,
    mut state: State,
    tr: &mut Tracer,
    packet_s: f64,
    request_s: f64,
    first_setup_s: f64,
) -> Result<Measured, String> {
    let mut values = Values::new();
    warm_up(&mut state.packet, tr);
    warm_up(state.request.as_mut(), tr);
    let (packet_windows, mut counts, request_windows, request_counts) =
        interleaved(&mut state, tr, packet_s, request_s);
    packet_metrics(&mut values, &packet_windows, &state.packet)?;
    request_metrics(&mut values, &request_windows, state.request.as_mut())?;
    counts.extend(request_counts);
    put(&mut values, "peak_rss_mb", peak_rss_mb()?);
    let verdict = merge_verdicts(state.packet.verdict(), state.request.verdict());
    drop(state);
    values.insert("setup_s", repeat_setup(plan, args.seed, first_setup_s)?);
    Ok(Measured {
        values,
        verdict,
        counts,
        tails: BTreeMap::new(),
    })
}

fn median_ns(tr: &Tracer, name: SpanName, aux: Option<u16>) -> Result<f64, String> {
    stats::median(&tr.ns_per_item(name, aux))
        .ok_or_else(|| format!("no {} spans recorded", name.as_str()))
}

fn traced(
    plan: &Plan,
    args: &Args,
    state: &mut State,
    tr: &mut Tracer,
    packet_s: f64,
    request_s: f64,
) -> Result<Measured, String> {
    let (mut values, mut tails) = (Values::new(), BTreeMap::new());
    let (values, tails) = (&mut values, &mut tails);
    warm_up(&mut state.packet, tr);
    warm_up(state.request.as_mut(), tr);

    // Both segments traced, straight after the warm-up so that the count
    // interval starts at the same operation whatever the host's speed.
    let (packet_windows, packet_counts, request_windows, request_counts) =
        interleaved(state, tr, packet_s * 0.5, request_s * 0.5);
    tr.set_on(false);

    // Tails: diagnostics only.
    let mut tail = |name: &'static str, samples: &[f64]| -> Result<(), String> {
        let t = stats::tail(samples).ok_or_else(|| format!("no samples for {name}"))?;
        put(values, name, t.value);
        tails.insert(name, t);
        Ok(())
    };
    tail("chain.burst_p99_us", state.packet.samples(Sample::BurstUs))?;
    let request = state.request.as_mut();
    tail("cp.setup_p99_us", request.samples(Sample::SetupUs))?;
    tail("cp.renew_p99_us", request.samples(Sample::RenewUs))?;
    let gc = request.samples(Sample::GcMs);
    let gc_max = gc.iter().copied().fold(f64::NAN, f64::max);
    put(values, "cp.gc_pause_max_ms", gc_max);
    tails.insert(
        "cp.gc_pause_max_ms",
        Tail {
            percentile: 100.0,
            value: gc_max,
            n: gc.len(),
        },
    );

    // Untraced baseline of the workload's own segment, same process, for
    // `trace.overhead_ratio`.
    let headline: fn(&Window) -> f64 = if plan.primary_is_packet {
        delivered_pps
    } else {
        requests_per_s
    };
    let (baseline, traced_windows) = if plan.primary_is_packet {
        (
            run_pass(&mut state.packet, tr, packet_s * 0.3, 3, None),
            &packet_windows,
        )
    } else {
        (
            run_pass(state.request.as_mut(), tr, request_s * 0.3, 3, None),
            &request_windows,
        )
    };
    let untraced =
        stats::quiet_high(&per_window(&baseline, headline)).ok_or("empty baseline pass")?;
    let with_trace =
        stats::quiet_high(&per_window(traced_windows, headline)).ok_or("empty traced pass")?;
    put(values, "trace.overhead_ratio", untraced / with_trace - 1.0);

    // Telemetry cost: the same packet path with registries detached,
    // against the attached one, alternating short passes.
    let mut detached_cfg = DpCfg::new(plan.packet);
    detached_cfg.spec.telemetry = false;
    let mut detached = PacketPath::new(detached_cfg, args.seed, tr);
    warm_up(&mut detached, tr);
    let mut with_tm = Vec::new();
    let mut without_tm = Vec::new();
    let slice = (args.seconds * 0.05).max(0.2);
    for _ in 0..2 {
        without_tm.extend(per_window(
            &run_pass(&mut detached, tr, slice, 2, None),
            delivered_pps,
        ));
        with_tm.extend(per_window(
            &run_pass(&mut state.packet, tr, slice, 2, None),
            delivered_pps,
        ));
    }
    let attached_pps = stats::quiet_high(&with_tm).ok_or("empty telemetry pass")?;
    let detached_pps = stats::quiet_high(&without_tm).ok_or("empty telemetry pass")?;
    put(
        values,
        "telemetry.dp_overhead_ratio",
        detached_pps / attached_pps - 1.0,
    );
    // The oracle's word on the workload, before probes and captures add
    // operations of their own.
    let verdict = merge_verdicts(
        merge_verdicts(state.packet.verdict(), detached.verdict()),
        state.request.as_mut().verdict(),
    );
    drop(detached);
    let snapshots: Vec<f64> = (0..31)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(state.packet.chain_mut().snapshot_registry());
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    put(
        values,
        "telemetry.snapshot_ns",
        stats::median(&snapshots).expect("31 samples"),
    );

    // Probes: direct calls of the control-plane functions a workload only
    // reaches through `FlowManager`, against the run's own deployment.
    tr.set_on(true);
    probe_request_path(state.request.book_mut(), plan.segr_loaded, tr)?;
    tr.set_on(false);

    // Ledger rows on inputs captured from the workload.
    let now_ns = state.packet.now_ns();
    let population = if plan.segr_loaded {
        SEGR_POPULATION as u32
    } else {
        1_000
    };
    let captured = Captured {
        packet: sut::capture_packet(state.packet.chain_mut(), now_ns),
        population,
    };
    let rows = ledger::measure(sut::ledger_ops(&captured));
    for (name, ns) in &rows {
        put(values, name, *ns);
    }

    // Stage spans.
    let gw_ns = median_ns(tr, SpanName::Gateway, None)?;
    let hop_ns = median_ns(tr, SpanName::RouterHop, None)?;
    put(values, "dataplane.gateway.ns_per_pkt", gw_ns);
    put(values, "dataplane.router.ns_per_pkt_hop", hop_ns);
    put(
        values,
        "dataplane.router.hop0_ns_per_pkt",
        median_ns(tr, SpanName::RouterHop, Some(0))?,
    );
    put(
        values,
        "dataplane.gateway.install_ns",
        median_ns(tr, SpanName::Install, None)?,
    );
    put(values, "host.open_ns", median_ns(tr, SpanName::Open, None)?);
    put(
        values,
        "host.tick_ns_per_flow",
        median_ns(tr, SpanName::Tick, None)?,
    );
    put(values, "host.send_ns", median_ns(tr, SpanName::Send, None)?);
    put(
        values,
        "topology.find_paths_ns",
        median_ns(tr, SpanName::FindPaths, None)?,
    );
    put(
        values,
        "ctrl.setup_eer_ns",
        median_ns(tr, SpanName::SetupEer, None)?,
    );
    put(
        values,
        "ctrl.renew_eer_ns",
        median_ns(tr, SpanName::RenewEer, None)?,
    );
    put(
        values,
        "ctrl.setup_segr_ns",
        median_ns(tr, SpanName::SetupSegr, None)?,
    );
    put(
        values,
        "ctrl.renew_segr_ns",
        median_ns(tr, SpanName::RenewSegr, None)?,
    );
    put(
        values,
        "ctrl.activate_segr_ns",
        median_ns(tr, SpanName::ActivateSegr, None)?,
    );
    put(
        values,
        "ctrl.teardown_segr_ns",
        median_ns(tr, SpanName::TeardownSegr, None)?,
    );
    put(values, "ctrl.gc_ns", median_ns(tr, SpanName::Gc, None)?);

    // Exact counts over the first COUNT_WINDOWS traced windows.
    let c = |name: &str| packet_counts.get(name).copied().unwrap_or(0) as f64;
    for name in [
        "dataplane.crypto_cache.evictions",
        "dataplane.gateway.forwarded",
        "dataplane.gateway.rate_limited",
        "dataplane.gateway.rejected",
        "dataplane.router.drops.bad_hvf",
        "dataplane.router.drops.parse",
        "dataplane.router.drops.expired",
        "dataplane.router.drops.stale",
        "dataplane.router.drops.duplicate",
        "dataplane.router.drops.blocked",
        "dataplane.router.drops.shaped",
        "monitor.replay_false_dup",
        "qdisc.rate_limited",
        "qdisc.host_capped",
    ] {
        put(values, name, c(name));
    }
    let probes = c("dataplane.crypto_cache.sigma_hits") + c("dataplane.crypto_cache.sigma_misses");
    let hit_ratio = c("dataplane.crypto_cache.sigma_hits") / probes.max(1.0);
    put(values, "dataplane.crypto_cache.sigma_hit_ratio", hit_ratio);
    let offered = c("dp.gw_offered").max(1.0);
    let pkt_hops = c("dp.pkt_hops").max(1.0);
    put(
        values,
        "crypto.aes_blocks_per_pkt.gateway",
        c("crypto.gateway_aes_blocks") / offered,
    );
    put(
        values,
        "crypto.aes_blocks_per_pkt.router",
        c("crypto.router_aes_blocks") / pkt_hops,
    );
    put(
        values,
        "crypto.key_expansions_per_pkt.router",
        c("crypto.router_key_expansions") / pkt_hops,
    );
    let r = |name: &str| request_counts.get(name).copied().unwrap_or(0) as f64;
    put(values, "ctrl.gc_scanned", r("ctrl.gc_scanned"));
    put(values, "ctrl.gc_expired", r("ctrl.gc_expired"));
    put(values, "ctrl.admitted", r("ctrl.admitted"));
    put(values, "ctrl.refused", r("ctrl.refused"));
    // Levels, as they stood at the end of the count interval.
    put(values, "ctrl.store.live_segrs", r("ctrl.store.live_segrs"));
    put(values, "ctrl.store.live_eers", r("ctrl.store.live_eers"));

    // The part of each stage no ledger row explains: the stage's span per
    // unit minus every row times its exact count per unit.
    let row = |name: &str| rows.get(name).copied().unwrap_or(0.0);
    let spec = *state.packet.chain_mut().spec();
    let forwarded_share = c("dataplane.gateway.forwarded") / offered;
    let policing = if spec.shaped_uplink_bps.is_some() {
        row("qdisc.admit_ns")
    } else {
        row("monitor.token_bucket_ns")
    };
    let gateway_rows = [
        (policing, 1.0),
        (row("wire.build_ns"), forwarded_share),
        (row("wire.eer_hvf_ns"), forwarded_share * spec.hops as f64),
    ];
    put(
        values,
        "dataplane.gateway.unexplained_ns",
        ledger::unexplained(gw_ns, &gateway_rows),
    );
    let miss_share = c("dataplane.crypto_cache.sigma_misses") / pkt_hops;
    let monitored_share = if spec.monitoring {
        // Only authenticated packets reach the transit monitor.
        (probes - c("dataplane.router.drops.bad_hvf")).max(0.0) / pkt_hops
    } else {
        0.0
    };
    let router_rows = [
        (row("wire.parse_ns"), 1.0),
        (row("wire.eer_hvf_ns"), probes / pkt_hops),
        (
            row("wire.hop_auth_ns") + row("crypto.key_expand_ns"),
            miss_share,
        ),
        (row("monitor.transit_ns"), monitored_share),
    ];
    put(
        values,
        "dataplane.router.unexplained_ns",
        ledger::unexplained(hop_ns, &router_rows),
    );

    let mut counts = packet_counts;
    counts.extend(request_counts);
    Ok(Measured {
        values: std::mem::take(values),
        verdict,
        counts,
        tails: std::mem::take(tails),
    })
}

const PROBE_CALLS: u64 = 100;
const SEC: u64 = 1_000_000_000;

/// Calls every control-plane entry point directly, with spans, on the
/// run's own deployment at its current population.
/// `needs_host`: the workload has no `FlowManager` of its own, so the host
/// entry points are probed too.
fn probe_request_path(book: &mut Book, needs_host: bool, tr: &mut Tracer) -> Result<(), String> {
    let mut now_ns = book.now_ns + SEC;
    let net = &mut book.net;
    for i in 0..PROBE_CALLS {
        net.find_paths(tr, i);
    }
    let mut keys = Vec::new();
    for i in 0..PROBE_CALLS {
        let g = net
            .setup_segr(1_000_000, 1_000, now_ns, tr, Cause::root(i))
            .map_err(|e| format!("probe setup_segr: {e:?}"))?;
        keys.push(g.key);
    }
    now_ns += SEC;
    for (i, key) in keys.iter().enumerate() {
        net.renew_activate_segr(*key, 1_000_000, 1_000, now_ns, tr, Cause::root(i as u64))
            .map_err(|e| format!("probe renew_segr: {e:?}"))?;
    }
    for (i, key) in keys.iter().enumerate() {
        net.teardown_segr(*key, tr, Cause::root(i as u64))
            .map_err(|e| format!("probe teardown_segr: {e:?}"))?;
    }
    let probe = net.eer_probe(now_ns)?;
    let mut eers = Vec::new();
    for i in 0..PROBE_CALLS {
        eers.push(
            net.setup_eer(&probe, 100_000, now_ns, tr, i)
                .map_err(|e| format!("probe setup_eer: {e:?}"))?,
        );
    }
    // CServs rate-limit EER renewals to one per second.
    now_ns += 2 * SEC;
    for (i, key) in eers.iter().enumerate() {
        net.renew_eer(*key, 100_000, now_ns, tr, i as u64)
            .map_err(|e| format!("probe renew_eer: {e:?}"))?;
    }
    if needs_host {
        let mut host = Host::new(net, 20_000_000_000);
        let payload = [0x5A; 64];
        for i in 0..PROBE_CALLS {
            let flow = host.open(net, 1 + i as u32, 100_000, now_ns, tr, Cause::root(i))?;
            host.send(flow, &payload, now_ns, tr, Cause::root(i));
        }
        // Inside the renew-ahead window of a 16 s EER.
        host.tick(net, now_ns + 9 * SEC, tr, 0);
    }
    Ok(())
}

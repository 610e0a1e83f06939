//! Deterministic replay: the same fault seed must reproduce a run
//! bit-identically — the control-plane delivery trace, the retry
//! statistics, and the packet-level delivery meters. Different seeds
//! must (for these fixtures) diverge, proving the faults actually bite.

use colibri_base::{Bandwidth, Duration, HostAddr, Instant};
use colibri_ctrl::{
    setup_eer_with, setup_segr_with, CservConfig, CservRegistry, RetryPolicy, RetryStats,
};
use colibri_base::Clock;
use colibri_dataplane::RouterConfig;
use colibri_sim::{FaultPlan, FlowTag, Generator, LinkFaults, Schedule, SimNet, Simulation, TraceEvent};
use colibri_topology::gen::{chain_topology, sample_two_isd};
use colibri_topology::stitch;
use colibri_wire::EerInfo;

/// One full multi-ISD control-plane run (three SegRs + one EER) over a
/// lossy, delaying fault plan. Returns everything observable.
fn control_run(seed: u64) -> (Vec<TraceEvent>, RetryStats, Instant, bool) {
    let s = sample_two_isd();
    let mut reg = CservRegistry::provision(&s.topo, CservConfig::default());
    let plan = FaultPlan::new(seed).with_default_faults(
        LinkFaults::lossy(150_000) // 15% loss per leg
            .with_delay(Duration::from_millis(2))
            .with_jitter(Duration::from_millis(1)),
    );
    let mut ch = plan.channel();
    let policy = RetryPolicy::default();
    let clock = Clock::starting_at(Instant::from_secs(3));
    let up = s.segments.up_segments(s.leaf_a, s.core_11)[0].clone();
    let core = s.segments.core_segments(s.core_11, s.core_21)[0].clone();
    let down = s.segments.down_segments(s.core_21, s.leaf_d)[0].clone();
    let mut stats = RetryStats::default();
    let mut keys = Vec::new();
    let mut all_ok = true;
    for seg in [&up, &core, &down] {
        match setup_segr_with(
            &mut reg,
            seg,
            Bandwidth::from_gbps(1),
            Bandwidth::from_mbps(1),
            Instant::EPOCH,
            &clock,
            &mut ch,
            &policy,
        ) {
            Ok((g, s)) => {
                stats.absorb(s);
                keys.push(g.key);
            }
            Err(_) => all_ok = false,
        }
    }
    if all_ok {
        let path = stitch(&[up, core, down]).unwrap();
        let hosts = EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) };
        match setup_eer_with(
            &mut reg,
            &path,
            &keys,
            hosts,
            Bandwidth::from_mbps(25),
            &clock,
            &mut ch,
            &policy,
        ) {
            Ok((_, s)) => stats.absorb(s),
            Err(_) => all_ok = false,
        }
    }
    (ch.trace().to_vec(), stats, clock.now(), all_ok)
}

#[test]
fn same_seed_replays_control_plane_identically() {
    let a = control_run(0xC0FFEE);
    let b = control_run(0xC0FFEE);
    assert_eq!(a.0, b.0, "delivery traces diverged");
    assert_eq!(a.1, b.1, "retry statistics diverged");
    assert_eq!(a.2, b.2, "final clock diverged");
    assert_eq!(a.3, b.3);
    assert!(a.1.lost > 0, "15% loss must cost at least one leg");
}

#[test]
fn different_seeds_diverge() {
    let a = control_run(1);
    let b = control_run(2);
    assert_ne!(a.0, b.0, "independent seeds produced identical traces");
}

/// Data-plane fixture: one reserved flow through a 3-AS chain, with
/// packet-level faults attached to the fabric.
fn packet_run(seed: u64, drop_ppm: u32) -> (u64, u64, u64) {
    let (topo, segs, leaf, core) = chain_topology(3, Bandwidth::from_mbps(80));
    let mut reg = CservRegistry::provision(&topo, CservConfig::default());
    let t0 = Instant::from_secs(1);
    let up = segs.up_segments(leaf, core)[0].clone();
    let segr = colibri_ctrl::setup_segr(&mut reg, &up, Bandwidth::from_mbps(40), Bandwidth::ZERO, t0)
        .unwrap();
    let path = stitch(std::slice::from_ref(&up)).unwrap();
    let eer = colibri_ctrl::setup_eer(
        &mut reg,
        &path,
        &[segr.key],
        EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) },
        Bandwidth::from_mbps(8),
        t0,
    )
    .unwrap();
    let mut net = SimNet::new(&topo, RouterConfig::default(), 100_000);
    net.set_faults(FaultPlan::new(seed).with_default_faults(LinkFaults::lossy(drop_ppm)));
    let owned = reg.get(leaf).unwrap().store().owned_eer(eer.key).unwrap().clone();
    net.node_mut(leaf).gateway.install(&owned, t0);
    let stop = t0 + Duration::from_millis(300);
    let gens = vec![Generator::Eer {
        src_as: leaf,
        src_host: HostAddr(1),
        res_id: eer.key.res_id,
        payload: 1000,
        schedule: Schedule { start: t0, stop, rate: Bandwidth::from_mbps(8) },
        tag: FlowTag::Reservation(1),
    }];
    let mut sim = Simulation::new(net, gens);
    sim.net.meter.reset(t0);
    sim.run_until(stop + Duration::from_millis(20));
    let delivered = sim.net.meter.messages(core, FlowTag::Reservation(1));
    let bytes = sim.net.meter.delivered_bytes(core, FlowTag::Reservation(1));
    let injected = sim.net.faults().unwrap().injected_drops;
    (delivered, bytes, injected)
}

#[test]
fn same_seed_replays_packet_meters_identically() {
    let a = packet_run(77, 100_000); // 10% per-hop loss
    let b = packet_run(77, 100_000);
    assert_eq!(a, b, "delivery meters / drop counters diverged");
    assert!(a.2 > 0, "10% loss must drop some packets");
    let clean = packet_run(77, 0);
    assert_eq!(clean.2, 0);
    assert!(
        clean.0 > a.0,
        "faultless run must deliver more ({} vs {})",
        clean.0,
        a.0
    );
}

/// Clock-skew injection goes through the fault plan too.
#[test]
fn fault_plan_applies_clock_skew() {
    let (topo, _segs, leaf, core) = chain_topology(2, Bandwidth::from_mbps(8));
    let mut net = SimNet::new(&topo, RouterConfig::default(), 10_000);
    net.set_faults(
        FaultPlan::new(1)
            .with_clock_skew(leaf, 50_000_000)
            .with_clock_skew(core, -25_000_000),
    );
    let now = Instant::from_secs(10);
    assert_eq!(
        net.node(leaf).local_time(now),
        now + Duration::from_millis(50)
    );
    assert_eq!(
        net.node(core).local_time(now),
        now.saturating_sub(Duration::from_millis(25))
    );
}

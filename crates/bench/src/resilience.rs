//! Control-plane resilience (DESIGN.md §12): the standard renewal-storm
//! plan from `tests/chaos.rs` — 24 cross-ISD clients, the
//! destination-side core's CServ crashed for 30 s — plus a scheduled ×4
//! overload against a shedding CServ. Everything runs on the virtual clock
//! with seeded fault plans, so the numbers are bit-stable and the gate
//! cannot flake.

use crate::harness::{Check, Mode, Outcome};
use crate::obj;
use colibri::base::Clock;
use colibri::ctrl::{
    GuardedChannel, OverloadConfig, OverloadControl, RequestClass, RetryPolicy, ShedConfig,
};
use colibri::host::Env;
use colibri::prelude::*;
use colibri::sim::{apply_overloads, apply_restarts, FaultPlan, LinkFaults};
use colibri::topology::gen::{internet_like, InternetConfig};
use std::collections::HashMap;

fn policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(20),
        max_backoff: Duration::from_millis(200),
        jitter_pct: 20,
        per_hop_timeout: Duration::from_millis(200),
        deadline: Duration::MAX,
    }
}

/// The `resilience` row of the `repro` table.
pub fn resilience(_mode: Mode) -> Outcome {
    let (clients, attempts, opens, probes, fast_fails) = renewal_storm();
    let (offered, shed, renewals_admitted, new_setups_shed) = overload_shedding();
    let amplification = attempts as f64 / clients as f64;
    let shed_rate = if offered == 0 { 0.0 } else { shed as f64 / offered as f64 };
    // Attempts at a downed AS stay linear in the client population, and
    // the shedder keeps renewals admissible ahead of new setups.
    let checks = vec![
        Check::at_most("storm attempts at the crashed AS per client", amplification, 3.0),
        Check::at_least("renewals admitted under the x4 overload", renewals_admitted as f64, 2.0),
        Check::at_least("new setups shed under the x4 overload", new_setups_shed as f64, 1.0),
    ];
    let json = obj! {
        "clients": clients, "storm_window_attempts": attempts,
        "attempt_amplification": amplification, "breaker_opens": opens, "breaker_probes": probes,
        "breaker_fast_fails": fast_fails, "overload_offered": offered, "overload_shed": shed,
        "shed_rate": shed_rate, "renewals_admitted": renewals_admitted,
        "new_setups_shed": new_setups_shed,
    };
    Outcome { json, checks }
}

/// The chaos suite's storm scenario: 24 cross-ISD flows through a pair of
/// single-homed cores; the remote core crashes for 30 s as every EER comes
/// up for renewal. Returns (clients, attempts at the crashed AS during the
/// crash, opens, probes, fast-fails).
fn renewal_storm() -> (u64, u64, u64, u64, u64) {
    let gen = internet_like(
        &InternetConfig {
            isds: 2,
            cores_per_isd: 1,
            leaves_per_isd: 6,
            providers_per_leaf: 1,
            ..Default::default()
        },
        0xC0FFEE,
    );
    let mut reg = CservRegistry::provision(&gen.topo, CservConfig::default());
    let leaves: Vec<IsdAsId> = gen.topo.as_ids().filter(|&a| !gen.topo.is_core(a)).collect();
    let (isd1, isd2): (Vec<IsdAsId>, Vec<IsdAsId>) =
        leaves.iter().copied().partition(|l| l.isd == leaves[0].isd);

    let mut managers: HashMap<IsdAsId, (FlowManager, Gateway)> = leaves
        .iter()
        .map(|&l| {
            let cfg =
                FlowConfig { segr_demand: Bandwidth::from_mbps(200), ..FlowConfig::default() };
            (l, (FlowManager::new(l, cfg), Gateway::new(GatewayConfig::default())))
        })
        .collect();
    macro_rules! env {
        ($gw:expr) => {
            Env { reg: &mut reg, topo: &gen.topo, segments: &gen.segments, gateway: $gw }
        };
    }

    let clock = Clock::starting_at(Instant::from_secs(1));
    let policy = policy();
    let crashed = IsdAsId::new(2, 1);
    let crash_at = Instant::from_secs(10);
    let restart_at = Instant::from_secs(40);
    let plan = FaultPlan::new(0xBADC0DE)
        .with_default_faults(LinkFaults::lossy(10_000).with_delay(Duration::from_millis(1)))
        .with_crash(crashed, crash_at, restart_at);
    let mut ch = plan.channel();
    let mut guard = OverloadControl::new(OverloadConfig::default());

    let mut flows: Vec<(IsdAsId, FlowId)> = Vec::new();
    for i in 0..6usize {
        let pairs = [
            (isd1[i], isd2[i]),
            (isd2[i], isd1[(i + 1) % 6]),
            (isd1[i], isd2[(i + 2) % 6]),
            (isd2[i], isd1[(i + 3) % 6]),
        ];
        for (j, (src, dst)) in pairs.into_iter().enumerate() {
            let (fm, gw) = managers.get_mut(&src).unwrap();
            let id = fm
                .open_with(
                    &mut env!(gw),
                    dst,
                    HostAddr(100 + (4 * i + j) as u32),
                    HostAddr(200 + (4 * i + j) as u32),
                    Bandwidth::from_mbps(5),
                    10_000_000,
                    &clock,
                    &mut GuardedChannel::new(&mut ch, &mut guard),
                    &policy,
                )
                .expect("storm flow must open before the crash");
            flows.push((src, id));
        }
    }

    let t_end = restart_at + Duration::from_secs(60);
    let mut prev = clock.now();
    let mut window_start = None;
    let mut window_end = None;
    while clock.now() < t_end {
        if window_start.is_none() && clock.now() >= crash_at {
            window_start = Some(guard.dest_stats(crashed).attempts);
        }
        if window_end.is_none() && clock.now() >= restart_at {
            window_end = Some(guard.dest_stats(crashed).attempts);
        }
        for &l in &leaves {
            let (fm, gw) = managers.get_mut(&l).unwrap();
            fm.tick_with(
                &mut env!(gw),
                &clock,
                &mut GuardedChannel::new(&mut ch, &mut guard),
                &policy,
            );
        }
        apply_restarts(&plan, &mut reg, prev, clock.now());
        prev = clock.now();
        clock.advance(Duration::from_secs(2));
    }
    for &(src, id) in &flows {
        assert!(
            matches!(managers[&src].0.flow(id).unwrap().kind, FlowKind::Reserved(_)),
            "storm flow {src}/{id:?} did not recover"
        );
    }

    let window = window_end.expect("passed restart") - window_start.expect("passed crash");
    let stats = guard.dest_stats(crashed);
    (flows.len() as u64, window, stats.opens, stats.probes, stats.breaker_fast_fails)
}

/// A ×4 scheduled overload against a shedding CServ: two hedged flows keep
/// renewing, a third tries to open mid-overload and is shed. Returns
/// (offered, shed, renewals admitted, setups shed).
fn overload_shedding() -> (u64, u64, u64, u64) {
    let gen = internet_like(
        &InternetConfig {
            isds: 2,
            cores_per_isd: 1,
            leaves_per_isd: 1,
            providers_per_leaf: 1,
            ..Default::default()
        },
        0x0B0E,
    );
    let mut reg = CservRegistry::provision(&gen.topo, CservConfig::default());
    let leaves: Vec<IsdAsId> = gen.topo.as_ids().filter(|&a| !gen.topo.is_core(a)).collect();
    let (src, dst) = (leaves[0], leaves[1]);
    let shedding_core = IsdAsId::new(dst.isd.0, 1);

    let mut fm = FlowManager::new(
        src,
        FlowConfig {
            eer_renew_hedge: Duration::from_secs(6),
            segr_demand: Bandwidth::from_mbps(200),
            ..FlowConfig::default()
        },
    );
    let mut gw = Gateway::new(GatewayConfig::default());
    macro_rules! env {
        () => {
            Env { reg: &mut reg, topo: &gen.topo, segments: &gen.segments, gateway: &mut gw }
        };
    }

    let clock = Clock::starting_at(Instant::from_secs(1));
    let policy = policy();
    let plan = FaultPlan::new(0xFEED)
        .with_default_faults(LinkFaults::lossy(0).with_delay(Duration::from_millis(1)))
        .with_overload(shedding_core, Instant::from_secs(2), Instant::from_secs(60), 4000);
    let mut ch = plan.channel();

    let open = |fm: &mut FlowManager,
                env: &mut Env<'_>,
                ch: &mut dyn colibri::ctrl::ControlChannel,
                tag: u32| {
        fm.open_with(
            env,
            dst,
            HostAddr(tag),
            HostAddr(tag + 100),
            Bandwidth::from_mbps(5),
            10_000_000,
            &clock,
            ch,
            &policy,
        )
    };
    open(&mut fm, &mut env!(), &mut ch, 1).expect("open A");
    open(&mut fm, &mut env!(), &mut ch, 2).expect("open B");

    // Same service model as the chaos suite: slow relative to the ~1 ms
    // link delays, so message latency cannot drain the queue between
    // back-to-back offers.
    reg.get_mut(shedding_core).unwrap().enable_shedding(
        ShedConfig {
            base_service: Duration::from_millis(200),
            max_backlog: Duration::from_millis(800),
            min_retry_after: Duration::from_secs(2),
        },
        clock.now(),
    );
    while clock.now() < Instant::from_secs(8) {
        apply_overloads(&plan, &mut reg, clock.now());
        fm.tick_with(&mut env!(), &clock, &mut ch, &policy);
        clock.advance(Duration::from_millis(500));
    }
    apply_overloads(&plan, &mut reg, clock.now());
    assert!(
        open(&mut fm, &mut env!(), &mut ch, 3).is_err(),
        "a new setup mid-overload must be shed"
    );

    let shed = *reg.get(shedding_core).unwrap().shed_stats().expect("shedding enabled");
    (
        shed.total_admitted() + shed.total_shed(),
        shed.total_shed(),
        shed.admitted[RequestClass::Renewal as usize],
        shed.shed_busy[RequestClass::NewSetup as usize],
    )
}

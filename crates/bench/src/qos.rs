//! The gateway QoS isolation claims (DESIGN.md §16, the Table 2 phase-1
//! mechanism at the traffic-class level): with the hierarchical qdisc
//! shaping a gateway uplink, reserved Colibri-data flows keep ≥95% of
//! their entitlement while thousands of best-effort subscriber flows per
//! shard offer 4× the link — with *zero* reserved drops — and when the
//! reserved classes go idle, best-effort scavenges the whole link instead
//! of being pinned to its 20% floor.

use crate::harness::{Check, Mode, Outcome};
use crate::{obj, synthetic_owned_eer, Xor64};
use colibri::base::{Bandwidth, Duration, HostAddr, Instant, ResId};
use colibri::dataplane::{Gateway, GatewayConfig, QosMode, TrafficClass};
use colibri::qdisc::{HtbConfig, QdiscStats};

/// Packet size used throughout (payload + header on the process path).
const PKT: u64 = 1250;
/// Virtual tick driving enqueue/service rounds.
const TICK: Duration = Duration::from_millis(1);

struct Scenario {
    shards: usize,
    /// Reserved (Colibri-data) flows per shard.
    reservations: usize,
    /// Best-effort subscriber flows per shard.
    hosts: u32,
    uplink: Bandwidth,
    /// Per-reservation rate; the per-shard sum stays inside the 75% data
    /// guarantee so entitlement is unambiguous.
    res_rate: Bandwidth,
    ticks: u64,
}

impl Scenario {
    /// A hierarchical gateway with every reservation of a shard installed.
    fn gateway(&self, t0: Instant) -> Gateway {
        let qos = QosMode::Hierarchical(HtbConfig::shaped(self.uplink));
        let mut gw = Gateway::new(GatewayConfig { burst: Duration::from_millis(50), qos });
        let q = gw.qdisc_mut().expect("hierarchical gateway");
        for r in 0..self.reservations {
            q.install(ResId(r as u32), TrafficClass::ColibriData, self.res_rate, t0);
        }
        gw
    }

    fn uplink_bytes_per_tick(&self) -> u64 {
        self.uplink.as_bps() * TICK.as_nanos() / 8 / 1_000_000_000
    }
}

/// Phase 1: every shard's reserved flows send exactly at their rate while
/// the subscriber population floods best-effort at 4× the uplink. Returns
/// (offered reserved bytes, reserved enqueue failures, enqueues, drive ns,
/// merged stats).
fn isolation_run(sc: &Scenario) -> (u64, u64, u64, u128, QdiscStats) {
    let t0 = Instant::from_secs(1);
    let mut shards: Vec<Gateway> = (0..sc.shards).map(|_| sc.gateway(t0)).collect();
    // Reserved: each flow sends its rate exactly (the packets are
    // conformant by construction, so any loss is a QoS bug).
    let res_bytes_per_tick = sc.res_rate.as_bps() * TICK.as_nanos() / 8 / 1_000_000_000;
    let res_pkts_per_tick = (res_bytes_per_tick / PKT).max(1);
    // Best-effort: 4× the uplink, spread round-robin over the subscribers.
    let be_pkts_per_tick = 4 * sc.uplink_bytes_per_tick() / PKT;

    let (mut offered, mut failures, mut enqueues) = (0u64, 0u64, 0u64);
    let wall = std::time::Instant::now();
    let mut now = t0;
    for tick in 0..sc.ticks {
        now += TICK;
        for gw in &mut shards {
            let q = gw.qdisc_mut().expect("hierarchical shard");
            for r in 0..sc.reservations {
                for _ in 0..res_pkts_per_tick {
                    offered += PKT;
                    enqueues += 1;
                    let res = Some(ResId(r as u32));
                    failures += u64::from(
                        q.enqueue(TrafficClass::ColibriData, res, HostAddr(r as u32), PKT, now)
                            .is_err(),
                    );
                }
            }
            let start = (tick * be_pkts_per_tick) % sc.hosts as u64;
            for k in 0..be_pkts_per_tick {
                let host = HostAddr(((start + k) % sc.hosts as u64) as u32);
                enqueues += 1;
                let _ = q.enqueue(TrafficClass::BestEffort, None, host, PKT, now);
            }
            q.service(now);
        }
    }
    let drive_ns = wall.elapsed().as_nanos();
    let mut merged = QdiscStats::default();
    for gw in &shards {
        merged.merge(&gw.qos_stats().expect("shard stats"));
    }
    (offered, failures, enqueues, drive_ns, merged)
}

/// Phase 2: reserved classes installed but *idle* — best-effort must be
/// granted the whole link, not just its 20% floor. Returns (link bytes,
/// best-effort bytes served, bytes served through scavenging).
fn scavenge_run(sc: &Scenario) -> (u64, u64, u64) {
    let t0 = Instant::from_secs(1);
    let mut gw = sc.gateway(t0);
    let q = gw.qdisc_mut().expect("hierarchical gateway");
    let be_pkts_per_tick = 2 * sc.uplink_bytes_per_tick() / PKT;
    let mut now = t0;
    for tick in 0..sc.ticks {
        now += TICK;
        let start = (tick * be_pkts_per_tick) % sc.hosts as u64;
        for k in 0..be_pkts_per_tick {
            let host = HostAddr(((start + k) % sc.hosts as u64) as u32);
            let _ = q.enqueue(TrafficClass::BestEffort, None, host, PKT, now);
        }
        q.service(now);
    }
    let stats = q.stats();
    let be = TrafficClass::BestEffort.index();
    (sc.uplink_bytes_per_tick() * sc.ticks, stats.served_bytes[be], stats.scavenged_bytes[be])
}

/// Release-mode differential spot check: a seeded schedule through a flat
/// and a degenerate-hierarchy gateway must agree on every packet and on
/// the final counters (debug builds prove this under proptest; this is
/// the only release-side guard).
fn differential_spot_check() -> bool {
    let burst = Duration::from_millis(5);
    let t0 = Instant::from_secs(1);
    let exp = Instant::from_secs(100);
    let mut flat = Gateway::new(GatewayConfig { burst, qos: QosMode::Flat });
    let hier_qos = QosMode::Hierarchical(HtbConfig::degenerate(burst));
    let mut hier = Gateway::new(GatewayConfig { burst, qos: hier_qos });
    for r in 0..4u32 {
        let eer = synthetic_owned_eer(r, 3, Bandwidth::from_mbps(5 * (r as u64 + 1)), exp);
        flat.install(&eer, t0);
        hier.install(&eer, t0);
    }
    let src = HostAddr(0xBEEF);
    let mut rng = Xor64::new(0xC0DE1);
    let payload = [0u8; 1400];
    let (mut flat_pkt, mut hier_pkt) = (Vec::new(), Vec::new());
    for step in 0..200_000u64 {
        let now = t0 + Duration::from_micros(rng.next() % 2_000_000);
        let res = ResId((rng.next() % 5) as u32); // 4 may be unknown
        let len = (rng.next() % 1400) as usize;
        let vf = flat.process_into(src, res, &payload[..len], now, &mut flat_pkt);
        let vh = hier.process_into(src, res, &payload[..len], now, &mut hier_pkt);
        if vf != vh || flat_pkt != hier_pkt {
            eprintln!("DIFFERENTIAL MISMATCH at step {step}: flat={vf:?} hier={vh:?}");
            return false;
        }
    }
    if flat.stats != hier.stats {
        eprintln!("DIFFERENTIAL MISMATCH: stats flat={:?} hier={:?}", flat.stats, hier.stats);
        return false;
    }
    true
}

/// The `qos` row of the `repro` table.
pub fn qos(mode: Mode) -> Outcome {
    let sc = Scenario {
        shards: mode.pick(2, 4),
        reservations: mode.pick(32, 64),
        hosts: mode.pick(1200, 4000),
        uplink: Bandwidth::from_gbps(1),
        res_rate: Bandwidth::from_mbps(mode.pick(20, 10)),
        ticks: mode.pick(300, 1500),
    };
    let (offered, failures, enqueues, drive_ns, iso) = isolation_run(&sc);
    let (data, be) = (TrafficClass::ColibriData.index(), TrafficClass::BestEffort.index());
    let served = iso.served_bytes[data];
    let ratio = served as f64 / offered.max(1) as f64;
    let ns_per_pkt = drive_ns as f64 / enqueues.max(1) as f64;
    let (link, be_served, scavenged) = scavenge_run(&sc);
    let fraction = be_served as f64 / link.max(1) as f64;
    let differential_ok = differential_spot_check();

    let reserved_drops = failures + iso.dropped_conform + iso.dropped_teardown;
    let checks = vec![
        Check::at_least("reserved goodput / entitlement under a 4x flood", ratio, 0.95),
        Check::exact("reserved drops (enqueue, conform, teardown)", reserved_drops, 0),
        Check::at_least("codel drops under the 4x flood", iso.dropped_codel as f64, 1.0),
        Check::at_least("idle-link fraction served to best-effort", fraction, 0.9),
        Check::at_least("bytes served by scavenging", scavenged as f64, 1.0),
        Check::exact("degenerate hierarchy ≡ flat gateway", differential_ok, true),
    ];
    let config = obj! {
        "shards": sc.shards, "reservations_per_shard": sc.reservations,
        "hosts_per_shard": sc.hosts, "uplink_bps": sc.uplink.as_bps(),
        "res_rate_bps": sc.res_rate.as_bps(), "ticks": sc.ticks,
    };
    let isolation = obj! {
        "offered_reserved_bytes": offered, "served_reserved_bytes": served, "ratio": ratio,
        "reserved_enqueue_failures": failures, "dropped_conform": iso.dropped_conform,
        "dropped_teardown": iso.dropped_teardown, "be_served_bytes": iso.served_bytes[be],
        "be_codel_drops": iso.dropped_codel, "be_overflow_drops": iso.dropped_overflow,
        "ns_per_pkt": ns_per_pkt,
    };
    let scavenge = obj! {
        "link_bytes": link, "be_served_bytes": be_served, "fraction": fraction,
        "scavenged_bytes": scavenged,
    };
    let json = obj! {
        "config": config, "isolation": isolation, "scavenge": scavenge,
        "differential_ok": differential_ok,
    };
    Outcome { json, checks }
}

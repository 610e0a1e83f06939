//! Adversarial survivability (DESIGN.md §14): the seeded mutation sweep,
//! the Table-2-style 4× attack flood, and the mid-run shard-kill recovery
//! experiment — each with an exactly checkable accounting identity rather
//! than a noisy perf number.

use crate::harness::{Check, Mode, Outcome};
use crate::{bench_gateway, bench_router, obj, stamped_packets};
use colibri::base::Instant;
use colibri::dataplane::{DropReason, ShardRouterPool, SubmitVerdict, TrafficClass};
use colibri::sim::{AttackGen, AttackKind};

const N_HOPS: usize = 8;

/// Seeded sweep: `n` mutated/forged frames through one real router.
/// Returns (drops, forwards, exact): exact when every frame has a
/// verdict and the per-reason counters sum to the total (zero panics is
/// implied by the run completing).
fn mutation_sweep(n: u64) -> (u64, u64, bool) {
    let now = Instant::from_secs(120);
    let (mut gw, ids) = bench_gateway(N_HOPS, 1 << 6, now);
    let template = stamped_packets(&mut gw, &ids[..1], 64, 1, 0, now).pop().expect("template");
    let mut gen = AttackGen::new(0xA77AC4, template);
    let mut r = bench_router(N_HOPS, 0);
    for _ in 0..n {
        let (kind, mut frame) = gen.next_any();
        // Keep replays out of a monitoring-off sweep (they would forward
        // and mean nothing); substitute a bit flip.
        if kind == AttackKind::Replay {
            frame = gen.bit_flip();
        }
        let _ = r.process(&mut frame, now);
    }
    let s = &r.stats;
    let drops =
        s.parse_errors + s.expired + s.stale + s.bad_hvf + s.blocked + s.duplicates + s.shaped;
    (drops, s.forwarded, drops + s.forwarded == n && s.processed() == n)
}

/// The Table-2-style flood: reserved EER traffic interleaved with
/// `ratio`× hostile frames (forged HVFs, expired reservations,
/// truncations, oversize, collision floods — every kind that cannot
/// legitimately forward), through a supervised 2-shard pool with the
/// class-aware shed policy. Returns (reserved forwarded, attack offered,
/// attack shed, attack dropped, reserved shed).
fn attack_flood(reserved: u64, ratio: u64) -> (u64, u64, u64, u64, u64) {
    let now = Instant::from_secs(120);
    let (mut gw, ids) = bench_gateway(N_HOPS, 1 << 6, now);
    let template = stamped_packets(&mut gw, &ids[..1], 64, 1, 0, now).pop().expect("template");
    let mut gen = AttackGen::new(0xF100D, template);
    let shards = 2usize;
    let mut pool = ShardRouterPool::new(shards, 64, move |_| bench_router(N_HOPS, 0));
    let mut outs = Vec::new();
    let mut attack_offered = 0u64;
    let reserved_pkts = stamped_packets(&mut gw, &ids, 64, reserved as usize, 0, now);
    const KINDS: [AttackKind; 5] = [
        AttackKind::ForgedHvf,
        AttackKind::ExpiredReservation,
        AttackKind::Truncated,
        AttackKind::Oversized,
        AttackKind::CollisionFlood,
    ];
    for (i, pkt) in reserved_pkts.into_iter().enumerate() {
        for k in 0..ratio {
            let frame = match KINDS[(i as u64 + k) as usize % KINDS.len()] {
                // Target shard 0 specifically: the steered-queue attack the
                // shed policy must absorb.
                AttackKind::CollisionFlood => gen.collision_flood(0, shards),
                kind => gen.next(kind),
            };
            pool.submit_classed(frame, TrafficClass::BestEffort, now, &mut outs);
            attack_offered += 1;
        }
        let v = pool.submit_classed(pkt, TrafficClass::ColibriData, now, &mut outs);
        assert_eq!(v, SubmitVerdict::Enqueued, "reserved traffic must never shed");
    }
    let snap = pool.shutdown(&mut outs);
    assert!(snap.balanced(), "flood ledger unbalanced: {snap:?}");
    let forwarded = snap.stats.forwarded;
    let attack_dropped = snap.stats.processed() - forwarded;
    (forwarded, attack_offered, snap.shed_best_effort, attack_dropped, snap.shed_reserved)
}

/// Mid-run shard kill: valid traffic, one worker killed outright halfway,
/// hot respawn, exact conservation at shutdown — checked against the
/// outputs this caller actually received. Returns (submitted, received,
/// panic-discarded, lost to the kill, respawns, balanced).
fn kill_recovery(per_phase: u64) -> (u64, u64, u64, u64, u64, bool) {
    let now = Instant::from_secs(120);
    let (mut gw, ids) = bench_gateway(N_HOPS, 1 << 6, now);
    let mut pool = ShardRouterPool::new(1, 64, move |_| bench_router(N_HOPS, 0));
    let mut outs = Vec::new();
    for pkt in stamped_packets(&mut gw, &ids, 64, per_phase as usize, 0, now) {
        pool.submit_classed(pkt, TrafficClass::ColibriData, now, &mut outs);
    }
    pool.kill_shard(0, &mut outs);
    for pkt in stamped_packets(&mut gw, &ids, 64, per_phase as usize, 0, now) {
        pool.submit_classed(pkt, TrafficClass::ColibriData, now, &mut outs);
    }
    let snap = pool.shutdown(&mut outs);
    let received = outs.len() as u64;
    let balanced =
        received + snap.lost_to_kill == snap.submitted && snap.balanced() && snap.respawns >= 1;
    (snap.submitted, received, snap.panic_discarded, snap.lost_to_kill, snap.respawns, balanced)
}

/// Drop-taxonomy sanity used by the sweep accounting: DropReason has no
/// variant outside the seven counted stats (compile-time sync check — a
/// new variant lands here before it lands in prod).
#[allow(dead_code)]
fn taxonomy_is_closed(r: DropReason) {
    match r {
        DropReason::ParseError
        | DropReason::ReservationExpired
        | DropReason::Stale
        | DropReason::BadHvf
        | DropReason::Blocked
        | DropReason::Duplicate
        | DropReason::Shaped => {}
    }
}

/// The `survivability` row of the `repro` table.
pub fn survivability(mode: Mode) -> Outcome {
    let mutations = mode.pick(120_000, 1_000_000);
    let (drops, forwards, exact) = mutation_sweep(mutations);

    let (reserved, ratio) = (mode.pick(4_000, 20_000), 4u64);
    let (forwarded, attack_offered, attack_shed, attack_dropped, reserved_shed) =
        attack_flood(reserved, ratio);
    let goodput = forwarded as f64 / reserved as f64;
    let (submitted, received, discarded, lost, respawns, balanced) =
        kill_recovery(mode.pick(2_000, 10_000));
    let checks = vec![
        Check::exact("mutation frames dropped + forwarded == frames == processed", exact, true),
        Check::at_least(format!("reserved goodput under the {ratio}x attack flood"), goodput, 0.95),
        Check::exact("reserved packets shed at backpressure", reserved_shed, 0),
        Check::exact(
            "shard-kill ledger balanced (received + lost == submitted, respawned)",
            balanced,
            true,
        ),
    ];
    let json = obj! {
        "mutations": mutations, "mutation_drops": drops, "mutation_forwards": forwards,
        "taxonomy_exact": exact, "flood_ratio": ratio, "reserved_offered": reserved,
        "reserved_forwarded": forwarded, "reserved_goodput": goodput,
        "attack_offered": attack_offered, "attack_shed": attack_shed,
        "attack_dropped": attack_dropped, "reserved_shed": reserved_shed,
        "kill_submitted": submitted, "kill_received": received, "kill_panic_discarded": discarded,
        "kill_lost_to_kill": lost, "kill_respawns": respawns, "kill_balanced": balanced,
    };
    Outcome { json, checks }
}

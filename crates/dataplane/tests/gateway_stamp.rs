//! Gateway stamping against a scalar reference.
//!
//! The gateway keeps each hop's σ compact and stamps every packet through
//! the `N`-wide lane kernels, encoding straight into the caller's buffer.
//! Here every stamped packet must be byte-identical to one built the slow
//! way — `PacketBuilder`, then `wire::mac::eer_hvf(&σ, ts, size)` hop by
//! hop — at every path length from 1 to 16 hops and at 32, over two live
//! versions and across a renewal, and every border router on the path
//! must forward it.

use colibri_base::{
    Bandwidth, BwClass, Duration, HostAddr, Instant, IsdAsId, ResId, ReservationKey,
};
use colibri_crypto::{Epoch, SecretValueGen};
use colibri_ctrl::{master_secret_for, OwnedEer, OwnedEerVersion};
use colibri_dataplane::{BorderRouter, Gateway, GatewayConfig, RouterConfig, RouterVerdict};
use colibri_wire::mac::{eer_hvf, hop_auth};
use colibri_wire::{EerInfo, HopField, PacketBuilder, PacketView, PacketViewMut, ResInfo};

const SRC_AS: IsdAsId = IsdAsId::new(1, 101);
const RES: ResId = ResId(77);
const INFO: EerInfo = EerInfo { src_host: HostAddr(5), dst_host: HostAddr(6) };

fn ases(hops: usize) -> Vec<IsdAsId> {
    (0..hops).map(|i| IsdAsId::new(1, 101 + i as u32)).collect()
}

fn hop_fields(hops: usize) -> Vec<HopField> {
    (0..hops).map(|i| HopField::new(u16::from(i != 0), if i + 1 == hops { 0 } else { 2 })).collect()
}

fn res_info(ver: u8, bw: Bandwidth, exp: Instant) -> ResInfo {
    ResInfo { src_as: SRC_AS, res_id: RES, bw: BwClass::from_bandwidth_ceil(bw), exp_t: exp, ver }
}

/// Version `ver` of the reservation over `hops` ASes, its σ derived from
/// each AS's real secret in the epoch of `now`.
fn version(hops: usize, ver: u8, exp_s: u64, now: Instant) -> OwnedEerVersion {
    let bw = Bandwidth::from_mbps(10 + u64::from(ver));
    let exp = Instant::from_secs(exp_s);
    let ri = res_info(ver, bw, exp);
    let hop_auths = ases(hops)
        .iter()
        .zip(hop_fields(hops))
        .map(|(a, hop)| {
            let k_i = SecretValueGen::new(&master_secret_for(*a))
                .secret_value(Epoch::containing(now))
                .cmac();
            hop_auth(&k_i, &ri, &INFO, hop)
        })
        .collect();
    OwnedEerVersion { ver, bw, exp, hop_auths }
}

fn owned(hops: usize, versions: Vec<OwnedEerVersion>) -> OwnedEer {
    OwnedEer {
        key: ReservationKey::new(SRC_AS, RES),
        eer_info: INFO,
        path_ases: ases(hops),
        hop_fields: hop_fields(hops),
        versions,
    }
}

/// The packet built the slow way: zero-HVF encoding, then Eq. 6 per hop
/// from the raw σ, each expanded on its own.
fn reference(hops: usize, v: &OwnedEerVersion, ts: u64, payload: &[u8]) -> Vec<u8> {
    let ri = res_info(v.ver, v.bw, v.exp);
    let mut pkt =
        PacketBuilder::eer(ri, INFO).path(hop_fields(hops)).ts(ts).build(payload).unwrap();
    let size = pkt.len();
    let mut view = PacketViewMut::parse(&mut pkt).unwrap();
    for (i, sigma) in v.hop_auths.iter().enumerate() {
        view.set_hvf(i, eer_hvf(sigma, ts, size));
    }
    pkt
}

/// One AS's border router per hop, each kept across packets so that
/// replay suppression sees the whole stream.
fn routers(hops: usize) -> Vec<BorderRouter> {
    ases(hops)
        .iter()
        .map(|a| BorderRouter::new(*a, &master_secret_for(*a), RouterConfig::default()))
        .collect()
}

/// Stamps one packet at `now` and checks it against the reference under
/// `expect` and through every router.
fn stamp_and_check(
    gw: &mut Gateway,
    routers: &mut [BorderRouter],
    expect: &OwnedEerVersion,
    payload: &[u8],
    now: Instant,
) -> u64 {
    let hops = routers.len();
    let mut buf = Vec::new();
    gw.process_into(INFO.src_host, RES, payload, now, &mut buf).expect("stamp");
    let ts = PacketView::parse(&buf).unwrap().ts();
    assert!(ts <= expect.exp.as_nanos() - now.as_nanos(), "{hops} hops: Ts past expiry");
    assert_eq!(buf, reference(hops, expect, ts, payload), "{hops} hops, version {}", expect.ver);
    for (i, router) in routers.iter_mut().enumerate() {
        match router.process(&mut buf, now) {
            RouterVerdict::Forward(_) => {
                assert!(i + 1 < hops, "{hops} hops: forwarded past the end")
            }
            RouterVerdict::DeliverHost(host) => {
                assert_eq!((i + 1, host), (hops, INFO.dst_host), "{hops} hops: delivered early");
            }
            other => panic!("{hops} hops: router {i} refused a stamped packet: {other:?}"),
        }
    }
    ts
}

fn stamps_match_reference(hops: usize) {
    let t0 = Instant::from_secs(1_000);
    let mut gw =
        Gateway::new(GatewayConfig { burst: Duration::from_secs(3600), ..Default::default() });
    let mut routers = routers(hops);
    // Two live versions; the later one in the list is stamped.
    let (v0, v1) = (version(hops, 0, 1_040, t0), version(hops, 1, 1_020, t0));
    gw.install(&owned(hops, vec![v0.clone(), v1.clone()]), t0);
    let mut prev = u64::MAX;
    for payload in [&b""[..], b"x", &[7u8; 300]] {
        let ts = stamp_and_check(&mut gw, &mut routers, &v1, payload, t0);
        assert!(ts < prev, "{hops} hops: Ts {ts} not unique");
        prev = ts;
    }
    // Once version 1 expires, the older but longer-lived version 0 stamps.
    let t1 = t0 + Duration::from_secs(25);
    stamp_and_check(&mut gw, &mut routers, &v0, b"late", t1);
    // A renewal replaces the expired version 1 with version 2, which
    // stamps from then on.
    let v2 = version(hops, 2, 1_060, t0);
    gw.install(&owned(hops, vec![v0.clone(), v2.clone()]), t1);
    stamp_and_check(&mut gw, &mut routers, &v2, b"renewed", t1);
    stamp_and_check(&mut gw, &mut routers, &v2, b"", t1);
    assert_eq!(gw.stats.forwarded, 6, "{hops} hops");
}

#[test]
fn stamped_packets_equal_the_scalar_reference_at_every_path_length() {
    for hops in (1..=16).chain([32]) {
        stamps_match_reference(hops);
    }
}

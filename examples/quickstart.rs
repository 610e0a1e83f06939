//! Quickstart: the complete Colibri lifecycle on the two-ISD sample
//! topology.
//!
//! Walks through everything Fig. 1 of the paper shows: segment-reservation
//! setup (1a), end-to-end-reservation setup over three stitched segments
//! (1b), and use of the reservation in the data plane with stateless
//! verification at every on-path border router (1c) — plus renewal and
//! expiry.
//!
//! Run with: `cargo run --example quickstart`

use colibri::prelude::*;
use std::collections::HashMap;

fn main() {
    // ── Topology ────────────────────────────────────────────────────────
    // ISD 1: cores 1-1, 1-2; leaves 1-10, 1-11.
    // ISD 2: core 2-1; leaves 2-20, 2-21. Core links mesh the ISDs.
    let sample = colibri::topology::gen::sample_two_isd();
    let now = Instant::from_secs(1);
    println!("topology: {} ASes, {} links", sample.topo.len(), sample.topo.link_count());

    // One Colibri service per AS, capacities taken from the topology.
    let mut reg = CservRegistry::provision(&sample.topo, CservConfig::default());

    // ── Path lookup (path choice, §2.1) ────────────────────────────────
    let src = sample.leaf_a; // 1-10
    let dst = sample.leaf_d; // 2-20
    let paths = find_paths(&sample.topo, &sample.segments, src, dst, 8);
    println!("\n{} candidate paths from {src} to {dst}:", paths.len());
    for p in &paths {
        println!("  {p}");
    }
    let path = paths[0].clone();

    // ── Segment reservations (Fig. 1a) ─────────────────────────────────
    // The path stitches up + core + down segments; each segment's first AS
    // sets up a SegR over it.
    let mut segr_keys = Vec::new();
    for seg in &path.segments {
        let grant = setup_segr(&mut reg, seg, Bandwidth::from_gbps(2), Bandwidth::from_mbps(10), now)
            .expect("segment admission");
        println!(
            "SegR {} over {}: granted {} until {}",
            grant.key, seg, grant.bw, grant.exp
        );
        segr_keys.push(grant.key);
    }

    // ── End-to-end reservation (Fig. 1b) ───────────────────────────────
    let hosts = EerInfo { src_host: HostAddr(0x0a00_0001), dst_host: HostAddr(0x1400_0002) };
    let eer = setup_eer(&mut reg, &path, &segr_keys, hosts, Bandwidth::from_mbps(50), now)
        .expect("EER admission");
    println!(
        "\nEER {} for {} → {}: {} until {}",
        eer.key, hosts.src_host, hosts.dst_host, eer.bw, eer.exp
    );

    // The source AS's gateway receives the reservation state (Fig. 1b ➎).
    let mut gateway = Gateway::new(GatewayConfig::default());
    let owned = reg.get(src).unwrap().store().owned_eer(eer.key).unwrap().clone();
    gateway.install(&owned, now);

    // One border router per on-path AS, each knowing only its own secret.
    let mut routers: HashMap<IsdAsId, BorderRouter> = path
        .as_path()
        .into_iter()
        .map(|id| (id, BorderRouter::new(id, &master_secret_for(id), RouterConfig::default())))
        .collect();

    // ── Data plane (Fig. 1c) ───────────────────────────────────────────
    let mut pkt = Vec::new();
    let egress = gateway
        .process_into(hosts.src_host, eer.key.res_id, b"first colibri payload", now, &mut pkt)
        .expect("gateway stamping");
    println!("\nstamped packet: {} bytes, egress {egress}", pkt.len());

    for as_id in path.as_path() {
        let verdict = routers.get_mut(&as_id).unwrap().process(&mut pkt, now);
        println!("  {as_id}: {verdict:?}");
        match verdict {
            RouterVerdict::Forward(_) => {}
            RouterVerdict::DeliverHost(h) => {
                assert_eq!(h, hosts.dst_host);
                println!("  delivered to {h} ✓");
            }
            other => panic!("unexpected verdict {other:?}"),
        }
    }

    // A forged packet (wrong HVF) is dropped by the very first router.
    let mut forged = Vec::new();
    gateway.process_into(hosts.src_host, eer.key.res_id, b"forged", now, &mut forged).unwrap();
    let n = forged.len();
    forged[n - 20] ^= 0xFF; // clobber an HVF byte
    let verdict = routers.get_mut(&src).unwrap().process(&mut forged, now);
    println!("\nforged packet at {src}: {verdict:?}");
    assert_eq!(verdict, RouterVerdict::Drop(DropReason::BadHvf));

    // ── Renewal (§4.2) ─────────────────────────────────────────────────
    let later = now + Duration::from_secs(8);
    let renewed = renew_eer(&mut reg, eer.key, Bandwidth::from_mbps(80), later).expect("renewal");
    println!("\nrenewed EER to version {} at {}: {}", renewed.ver, later, renewed.bw);
    let owned = reg.get(src).unwrap().store().owned_eer(eer.key).unwrap().clone();
    gateway.install(&owned, later);

    // Old and new versions coexist; the gateway uses the newest.
    gateway
        .process_into(hosts.src_host, eer.key.res_id, b"after renewal", later, &mut pkt)
        .unwrap();
    let v = PacketView::parse(&pkt).unwrap();
    println!("packet now carries version {}", v.res_info().ver);
    assert_eq!(v.res_info().ver, 1);

    // ── Expiry ─────────────────────────────────────────────────────────
    let expired = later + Duration::from_secs(30);
    let err = gateway
        .process_into(hosts.src_host, eer.key.res_id, b"too late", expired, &mut pkt)
        .unwrap_err();
    println!("\nafter expiry: {err}");
    println!("\nquickstart complete ✓");
}

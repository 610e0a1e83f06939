//! CDN video streaming over Colibri — the paper's motivating workload.
//!
//! A content server in one ISD streams video to a viewer in another. The
//! stream outlives many 16-second EER lifetimes, so the host renews ahead
//! of expiry for seamless transitions (§4.2); midway the player switches
//! to a higher bitrate, and the renewal simply requests more bandwidth.
//! The acknowledgment channel is tiny and unidirectional reservations
//! would waste capacity on it, so ACKs travel as best-effort traffic
//! (§3.4 "Traffic Split").
//!
//! Run with: `cargo run --release --example video_stream`

use colibri::prelude::*;
use std::collections::HashMap;

/// One simulated playback second sends this many frames.
const FRAMES_PER_SEC: u64 = 200;
const FRAME_PAYLOAD: usize = 1200;

fn main() {
    let sample = colibri::topology::gen::sample_two_isd();
    let mut reg = CservRegistry::provision(&sample.topo, CservConfig::default());
    let mut now = Instant::from_secs(1);

    // CDN AS 1-10 → viewer AS 2-20.
    let cdn = sample.leaf_a;
    let viewer_as = sample.leaf_d;
    let server = HostAddr(0x0a00_0001);
    let viewer = HostAddr(0x1400_0042);

    let path = find_paths(&sample.topo, &sample.segments, cdn, viewer_as, 4)
        .into_iter()
        .next()
        .expect("connected");
    println!("streaming path: {path}");

    // SegRs along the path (in practice these pre-exist, maintained by the
    // CServs from traffic forecasts, §3.2).
    let mut segr_keys = Vec::new();
    for seg in &path.segments {
        let g = setup_segr(&mut reg, seg, Bandwidth::from_gbps(1), Bandwidth::from_mbps(10), now)
            .expect("SegR");
        segr_keys.push(g.key);
    }

    // Initial EER sized for the SD bitrate: 200 frames/s × ~1.3 kB ≈ 2.1 Mbps.
    let sd_rate = Bandwidth::from_mbps(3);
    let hd_rate = Bandwidth::from_mbps(8);
    let eer = setup_eer(
        &mut reg,
        &path,
        &segr_keys,
        EerInfo { src_host: server, dst_host: viewer },
        sd_rate,
        now,
    )
    .expect("EER");
    println!("EER {}: {} (SD), expires {}", eer.key, eer.bw, eer.exp);

    let mut gateway = Gateway::new(GatewayConfig::default());
    gateway.install(reg.get(cdn).unwrap().store().owned_eer(eer.key).unwrap(), now);
    let mut routers: HashMap<IsdAsId, BorderRouter> = path
        .as_path()
        .into_iter()
        .map(|id| (id, BorderRouter::new(id, &master_secret_for(id), RouterConfig::default())))
        .collect();

    let frame_gap = Duration::from_nanos(1_000_000_000 / FRAMES_PER_SEC);
    let mut delivered = 0u64;
    let mut dropped_at_gw = 0u64;
    let payload = vec![0u8; FRAME_PAYLOAD];
    let mut pkt = Vec::new();

    // Stream for 60 seconds of simulated time: renew every 8 s (half the
    // EER lifetime), switch to HD at t = 30 s.
    let t_end = now + Duration::from_secs(60);
    let mut next_renewal = now + Duration::from_secs(8);
    let mut hd = false;
    let mut renewals = 0;
    while now < t_end {
        if now >= next_renewal {
            let want = if !hd && now >= Instant::from_secs(31) {
                hd = true;
                println!("[{now}] player switched to HD, renewing at {hd_rate}");
                hd_rate
            } else if hd {
                hd_rate
            } else {
                sd_rate
            };
            let g = renew_eer(&mut reg, eer.key, want, now).expect("renewal");
            gateway.install(reg.get(cdn).unwrap().store().owned_eer(eer.key).unwrap(), now);
            renewals += 1;
            next_renewal = now + Duration::from_secs(8);
            if renewals % 3 == 0 {
                println!("[{now}] renewed to version {} ({})", g.ver, g.bw);
            }
        }
        match gateway.process_into(server, eer.key.res_id, &payload, now, &mut pkt) {
            Ok(_) => {
                // Walk the packet across the path.
                for as_id in path.as_path() {
                    match routers.get_mut(&as_id).unwrap().process(&mut pkt, now) {
                        RouterVerdict::Forward(_) => {}
                        RouterVerdict::DeliverHost(h) => {
                            assert_eq!(h, viewer);
                            delivered += 1;
                        }
                        other => panic!("stream broken at {as_id}: {other:?}"),
                    }
                }
            }
            Err(GatewayError::RateLimited(_)) => dropped_at_gw += 1,
            Err(e) => panic!("stream failed: {e}"),
        }
        now += frame_gap;
    }

    let sent = delivered + dropped_at_gw;
    println!("\n60 s stream: {sent} frames sent, {delivered} delivered end-to-end,");
    println!("{dropped_at_gw} shaped at the gateway, {renewals} seamless renewals");
    assert!(delivered > 0);
    // The stream rate (2.1 Mbps SD / same HD frames here) is within the
    // reservation, so virtually nothing should be shaped.
    assert!(
        dropped_at_gw * 100 < sent,
        "more than 1% of frames shaped: {dropped_at_gw}/{sent}"
    );
    // A misbehaving player (ignoring its reservation) is shaped, not
    // serviced: blast 10× the reserved rate for one second.
    let blast_gap = Duration::from_nanos(frame_gap.as_nanos() / 10);
    let mut blast_dropped = 0u64;
    let mut blast_sent = 0u64;
    let blast_end = now + Duration::from_secs(1);
    while now < blast_end {
        blast_sent += 1;
        if gateway.process_into(server, eer.key.res_id, &payload, now, &mut pkt).is_err() {
            blast_dropped += 1;
        }
        now += blast_gap;
    }
    println!(
        "\nmisbehaving blast: {blast_dropped}/{blast_sent} frames dropped by the gateway's \
         deterministic monitor ✓"
    );
    assert!(blast_dropped > blast_sent / 2);
}

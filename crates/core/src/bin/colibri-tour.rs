//! `colibri-tour` — a guided command-line tour of the implementation.
//!
//! ```text
//! colibri-tour topology   # show the sample topology and its segments
//! colibri-tour reserve    # walk a SegR + EER setup with diagnostics
//! colibri-tour packet     # dissect a stamped Colibri packet
//! colibri-tour attack     # mount the §5.1 attacks and watch them fail
//! colibri-tour all        # everything above (default)
//! ```

use colibri::prelude::*;
use std::collections::HashMap;

fn main() {
    let cmd = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    match cmd.as_str() {
        "topology" => topology(),
        "reserve" => reserve(),
        "packet" => packet(),
        "attack" => attack(),
        "all" => {
            topology();
            reserve();
            packet();
            attack();
        }
        other => {
            eprintln!("unknown command {other:?}");
            eprintln!("usage: colibri-tour [topology|reserve|packet|attack|all]");
            std::process::exit(2);
        }
    }
}

fn header(title: &str) {
    println!("\n━━━ {title} {}", "━".repeat(60usize.saturating_sub(title.len())));
}

fn topology() {
    header("topology");
    let s = colibri::topology::gen::sample_two_isd();
    println!("{} ASes, {} links across {} ISDs", s.topo.len(), s.topo.link_count(), s.topo.isds().len());
    for isd in s.topo.isds() {
        println!("ISD {isd}: cores {:?}", s.topo.core_ases(isd).iter().map(|a| a.to_string()).collect::<Vec<_>>());
    }
    println!("\nbeaconed segments: {}", s.segments.len());
    for seg in s.segments.up_segments_from(s.leaf_a) {
        println!("  {seg}");
    }
    for seg in s.segments.core_segments(s.core_11, s.core_21) {
        println!("  {seg}");
    }
    println!("\ncandidate paths {} → {}:", s.leaf_a, s.leaf_d);
    for p in find_paths(&s.topo, &s.segments, s.leaf_a, s.leaf_d, 4) {
        println!("  {p}  ({} hops)", p.len());
    }
}

fn reserve() {
    header("reserve");
    let s = colibri::topology::gen::sample_two_isd();
    let mut reg = CservRegistry::provision(&s.topo, CservConfig::default());
    let now = Instant::from_secs(1);
    let path = find_paths(&s.topo, &s.segments, s.leaf_a, s.leaf_d, 1).remove(0);
    println!("path: {path}");
    let mut keys = Vec::new();
    for seg in &path.segments {
        let g = setup_segr(&mut reg, seg, Bandwidth::from_gbps(2), Bandwidth::from_mbps(1), now)
            .expect("SegR");
        println!("SegR {:<10} over {seg}: {} until {}", g.key.to_string(), g.bw, g.exp);
        keys.push(g.key);
    }
    let hosts = EerInfo { src_host: HostAddr(0x0a000001), dst_host: HostAddr(0x14000002) };
    let eer = setup_eer(&mut reg, &path, &keys, hosts, Bandwidth::from_mbps(50), now).expect("EER");
    println!("EER  {:<10} {} → {}: {} until {}", eer.key.to_string(), hosts.src_host, hosts.dst_host, eer.bw, eer.exp);
    let owned = reg.get(s.leaf_a).unwrap().store().owned_eer(eer.key).unwrap();
    println!("hop authenticators received: {} (one per on-path AS, AEAD-sealed in transit)", owned.versions[0].hop_auths.len());
    // Show a refusal with bottleneck diagnostics.
    let err = setup_eer(&mut reg, &path, &keys, hosts, Bandwidth::from_gbps(100), now).unwrap_err();
    println!("oversized request diagnostics: {err}");
}

fn packet() {
    header("packet");
    let s = colibri::topology::gen::sample_two_isd();
    let mut reg = CservRegistry::provision(&s.topo, CservConfig::default());
    let now = Instant::from_secs(1);
    let path = find_paths(&s.topo, &s.segments, s.leaf_a, s.leaf_d, 1).remove(0);
    let mut keys = Vec::new();
    for seg in &path.segments {
        keys.push(setup_segr(&mut reg, seg, Bandwidth::from_gbps(1), Bandwidth::ZERO, now).unwrap().key);
    }
    let hosts = EerInfo { src_host: HostAddr(0x0a000001), dst_host: HostAddr(0x14000002) };
    let eer = setup_eer(&mut reg, &path, &keys, hosts, Bandwidth::from_mbps(25), now).unwrap();
    let mut gw = Gateway::new(GatewayConfig::default());
    gw.install(reg.get(s.leaf_a).unwrap().store().owned_eer(eer.key).unwrap(), now);
    let mut pkt = Vec::new();
    gw.process_into(hosts.src_host, eer.key.res_id, b"tour payload", now, &mut pkt).unwrap();
    let v = PacketView::parse(&pkt).unwrap();
    let ri = v.res_info();
    println!("{} bytes on the wire:", pkt.len());
    println!("  reservation : {} v{} ({} class {})", ri.key(), ri.ver, ri.bw.bandwidth(), ri.bw.0);
    println!("  expires     : {}", ri.exp_t);
    println!("  hosts       : {} → {}", v.eer_info().unwrap().src_host, v.eer_info().unwrap().dst_host);
    println!("  timestamp   : {} ns before expiry", v.ts());
    print!("  path        : ");
    for (i, h) in v.hops().enumerate() {
        if i > 0 {
            print!(" ");
        }
        print!("[in {} out {}]", h.ingress, h.egress);
    }
    println!();
    print!("  HVFs        : ");
    for i in 0..v.n_hops() {
        print!("{:02x?} ", v.hvf(i));
    }
    println!("\n  payload     : {} bytes (never read by routers)", v.payload().len());
}

fn attack() {
    header("attack");
    let s = colibri::topology::gen::sample_two_isd();
    let mut reg = CservRegistry::provision(&s.topo, CservConfig::default());
    let now = Instant::from_secs(1);
    let path = find_paths(&s.topo, &s.segments, s.leaf_a, s.leaf_d, 1).remove(0);
    let mut keys = Vec::new();
    for seg in &path.segments {
        keys.push(setup_segr(&mut reg, seg, Bandwidth::from_gbps(1), Bandwidth::ZERO, now).unwrap().key);
    }
    let hosts = EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) };
    let eer = setup_eer(&mut reg, &path, &keys, hosts, Bandwidth::from_mbps(25), now).unwrap();
    let mut gw = Gateway::new(GatewayConfig::default());
    gw.install(reg.get(s.leaf_a).unwrap().store().owned_eer(eer.key).unwrap(), now);
    let mut routers: HashMap<IsdAsId, BorderRouter> = path
        .as_path()
        .into_iter()
        .map(|id| (id, BorderRouter::new(id, &master_secret_for(id), RouterConfig::default())))
        .collect();
    let first = path.as_path()[0];

    // Each attack gets its own freshly stamped packet (distinct Ts), so
    // the replay filter never masks the check under test.
    let mut stamp = || {
        let mut pkt = Vec::new();
        gw.process_into(hosts.src_host, eer.key.res_id, b"honest", now, &mut pkt).unwrap();
        pkt
    };
    let mut honest = stamp();
    let mut replayed = honest.clone();
    let verdict = routers.get_mut(&first).unwrap().process(&mut honest, now);
    println!("honest packet           → {verdict:?}");

    let verdict = routers.get_mut(&first).unwrap().process(&mut replayed, now);
    println!("replayed honest packet  → {verdict:?}");

    let mut forged = stamp();
    // Corrupt this hop's HVF (after the fixed header, EERInfo, and path).
    let hvf0 = 32 + 8 + 4 * 4;
    forged[hvf0] ^= 0xFF;
    let verdict = routers.get_mut(&first).unwrap().process(&mut forged, now);
    println!("forged HVF              → {verdict:?}");

    let mut spoofed = stamp();
    spoofed[11] ^= 1; // flip the source AS
    let verdict = routers.get_mut(&first).unwrap().process(&mut spoofed, now);
    println!("spoofed source AS       → {verdict:?}");

    let late = now + Duration::from_secs(30);
    let mut expired = stamp();
    let verdict = routers.get_mut(&first).unwrap().process(&mut expired, late);
    println!("after reservation expiry→ {verdict:?}");
    println!("\nevery attack dies at the first stateless router ✓");
}

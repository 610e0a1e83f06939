//! Observability: one registry and one trace ring across all three
//! planes.
//!
//! Runs the Colibri lifecycle on the two-ISD sample topology with the
//! `colibri-telemetry` subsystem attached everywhere: every on-path
//! CServ feeds admission counters and a shared event tracer, the source
//! gateway and a border router feed verdict counters and latency
//! histograms, and at the end the whole run is scraped once — Prometheus
//! text exposition, JSON, and the chronological control-plane trace.
//!
//! Everything except the two `*_ns` latency histograms is derived from
//! virtual-clock timestamps and deterministic counters, so two runs of
//! this example produce identical scrapes modulo wall-clock noise.
//!
//! Run with: `cargo run --example observability`

use colibri::prelude::*;
use colibri::telemetry::{verify_exposition, Registry, TraceOp, Tracer};
use std::sync::Arc;

fn main() {
    let sample = colibri::topology::gen::sample_two_isd();
    let now = Instant::from_secs(1);
    let mut reg = CservRegistry::provision(&sample.topo, CservConfig::default());

    // One registry and one trace ring for the whole run. Components
    // register under explicit shard labels, so the scrape shows both the
    // per-component split and the cross-component totals.
    let registry = Registry::new();
    let tracer = Arc::new(Tracer::new(256));
    for id in reg.ids() {
        reg.get_mut(id)
            .unwrap()
            .attach_tracer(&registry, &format!("cserv_{id}"), Arc::clone(&tracer));
    }

    // ── Control plane: SegRs, an EER, a renewal, and a denial ─────────
    let src = sample.leaf_a;
    let dst = sample.leaf_d;
    let path = find_paths(&sample.topo, &sample.segments, src, dst, 8)[0].clone();
    let mut segr_keys = Vec::new();
    for seg in &path.segments {
        let grant =
            setup_segr(&mut reg, seg, Bandwidth::from_gbps(2), Bandwidth::from_mbps(10), now)
                .expect("segment admission");
        segr_keys.push(grant.key);
    }
    let hosts = EerInfo { src_host: HostAddr(0x0a00_0001), dst_host: HostAddr(0x1400_0002) };
    let eer = setup_eer(&mut reg, &path, &segr_keys, hosts, Bandwidth::from_mbps(50), now)
        .expect("EER admission");
    let later = now + Duration::from_secs(8);
    renew_eer(&mut reg, eer.key, Bandwidth::from_mbps(80), later).expect("renewal");

    // A blocklisted source produces Denied admission events.
    reg.get_mut(src).unwrap().deny_source(IsdAsId::new(9, 9));
    let up = path.segments[0].clone();
    let denied = {
        let cserv = reg.get_mut(src).unwrap();
        let req = colibri::ctrl::SegSetupReq {
            request_id: cserv.alloc_request_id(),
            deadline: Instant::MAX,
            starts_at: Instant::EPOCH,
            res_info: colibri::wire::ResInfo {
                src_as: IsdAsId::new(9, 9),
                res_id: cserv.alloc_res_id(),
                bw: BwClass(10),
                exp_t: later + Duration::from_secs(300),
                ver: 0,
            },
            demand: Bandwidth::from_mbps(10),
            min_bw: Bandwidth::ZERO,
            path: up.hops.iter().map(|h| (h.isd_as, h.hop_field())).collect(),
            grants: vec![],
        };
        cserv.segr_admit_hop(&req, 0, req.demand, later).is_err()
    };
    assert!(denied, "blocklisted source must be refused");

    // ── Data plane: instrumented gateway and border router ────────────
    let mut gateway = Gateway::new(GatewayConfig::default());
    gateway.attach_telemetry(&registry, "gw0");
    let owned = reg.get(src).unwrap().store().owned_eer(eer.key).unwrap().clone();
    gateway.install(&owned, later);

    let mut router = BorderRouter::new(src, &master_secret_for(src), RouterConfig::default());
    router.attach_telemetry(&registry, "router0");

    let mut pkt = Vec::new();
    for i in 0..32u32 {
        gateway
            .process_into(hosts.src_host, eer.key.res_id, &i.to_be_bytes(), later, &mut pkt)
            .expect("stamp");
        let verdict = router.process(&mut pkt, later);
        assert!(matches!(verdict, RouterVerdict::Forward(_)));
    }
    // One forged packet: shows up as a bad-HVF drop in the scrape.
    let mut forged = Vec::new();
    gateway.process_into(hosts.src_host, eer.key.res_id, b"forged", later, &mut forged).unwrap();
    let n = forged.len();
    forged[n - 20] ^= 0xFF;
    assert_eq!(router.process(&mut forged, later), RouterVerdict::Drop(DropReason::BadHvf));

    // Expiry GC across every service (traced as Gc events).
    let end = later + Duration::from_secs(600);
    for id in reg.ids() {
        reg.get_mut(id).unwrap().gc(end);
    }

    // ── The scrape ────────────────────────────────────────────────────
    let snapshot = registry.snapshot();
    let prometheus = snapshot.render_prometheus();
    let samples = verify_exposition(&prometheus).expect("exposition must verify");

    println!("# ── Prometheus text exposition ({samples} samples) ──────────────");
    print!("{prometheus}");

    println!("\n# ── JSON exposition ─────────────────────────────────────────");
    println!("{}", snapshot.render_json());

    println!("\n# ── control-plane trace ({} events) ────────────────────────", tracer.total());
    print!("{}", tracer.render_text());

    // A few cross-checks tying the scrape back to what actually happened.
    assert_eq!(snapshot.total("colibri_router_forwarded_total"), 32);
    assert_eq!(snapshot.total("colibri_router_drop_bad_hvf_total"), 1);
    assert_eq!(snapshot.total("colibri_gateway_forwarded_total"), 33);
    assert!(snapshot.total("colibri_ctrl_segr_admit_ok_total") > 0);
    assert_eq!(snapshot.total("colibri_ctrl_segr_admit_denied_total"), 1);
    assert!(!tracer.events_for(TraceOp::Renewal).is_empty());
    assert!(!tracer.events_for(TraceOp::Gc).is_empty());
    println!("\nobservability walkthrough complete ✓");
}

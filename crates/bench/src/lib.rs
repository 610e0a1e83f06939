//! Shared fixtures and measurement helpers for the Colibri benchmark and
//! paper-reproduction harnesses.
//!
//! Every figure/table of the paper's evaluation (§6–§7, Appendix E) has
//! two regeneration paths:
//!
//! * a Criterion bench (`benches/`) for statistically solid
//!   micro-measurements, and
//! * a `repro_*` binary (`src/bin/`) that prints the same rows/series as
//!   the paper, suitable for pasting into EXPERIMENTS.md.
//!
//! The fixtures here construct gateway/router state *directly* (bypassing
//! the multi-AS setup orchestration) so that building 2²⁰ reservations is
//! fast; the cryptographic material is nevertheless real — σᵢ are derived
//! from the same per-AS secrets a router uses, so every stamped packet
//! verifies.

use colibri::base::{Bandwidth, Duration, HostAddr, Instant, IsdAsId, ResId, ReservationKey};
use colibri::crypto::{Epoch, SecretValueGen};
use colibri::ctrl::{master_secret_for, OwnedEer, OwnedEerVersion};
use colibri::dataplane::{BorderRouter, Gateway, GatewayConfig, RouterConfig};
use colibri::wire::mac::hop_auth;
use colibri::wire::{EerInfo, HopField, ResInfo};

/// Source host used by all fixtures.
pub const SRC_HOST: HostAddr = HostAddr(0x0a00_0001);
/// Destination host used by all fixtures.
pub const DST_HOST: HostAddr = HostAddr(0x1400_0002);

/// The AS identifiers of a synthetic `n`-hop path: AS 1-101 … 1-(100+n).
pub fn path_ases(n_hops: usize) -> Vec<IsdAsId> {
    (0..n_hops).map(|i| IsdAsId::new(1, 101 + i as u32)).collect()
}

/// The hop fields of the synthetic path (local at both ends).
pub fn path_hops(n_hops: usize) -> Vec<HopField> {
    (0..n_hops)
        .map(|i| {
            let ing = if i == 0 { 0 } else { 1 };
            let eg = if i + 1 == n_hops { 0 } else { 2 };
            HopField::new(ing, eg)
        })
        .collect()
}

/// Builds an owned EER whose hop authenticators are derived from the real
/// per-AS secrets, so packets stamped from it verify at the matching
/// [`bench_router`].
pub fn synthetic_owned_eer(
    res_id: u32,
    n_hops: usize,
    bw: Bandwidth,
    exp: Instant,
) -> OwnedEer {
    let ases = path_ases(n_hops);
    let hops = path_hops(n_hops);
    let src_as = ases[0];
    let eer_info = EerInfo { src_host: SRC_HOST, dst_host: DST_HOST };
    let res_info = ResInfo {
        src_as,
        res_id: ResId(res_id),
        bw: colibri::base::BwClass::from_bandwidth_ceil(bw),
        exp_t: exp,
        ver: 0,
    };
    let epoch = Epoch::containing(exp.saturating_sub(Duration::from_secs(1)));
    let hop_auths = ases
        .iter()
        .zip(&hops)
        .map(|(as_id, hop)| {
            let k_i = SecretValueGen::new(&master_secret_for(*as_id)).secret_value(epoch).cmac();
            hop_auth(&k_i, &res_info, &eer_info, *hop)
        })
        .collect();
    OwnedEer {
        key: ReservationKey::new(src_as, ResId(res_id)),
        eer_info,
        path_ases: ases,
        hop_fields: hops,
        versions: vec![OwnedEerVersion { ver: 0, bw, exp, hop_auths }],
    }
}

/// A gateway loaded with `r` reservations over `n_hops`-AS paths, plus the
/// reservation IDs for stamping. Monitoring is configured wide open so the
/// benchmark measures processing cost, not policing. Per-AS key schedules
/// are cached so that building 2²⁰ reservations stays fast.
pub fn bench_gateway(n_hops: usize, r: usize, now: Instant) -> (Gateway, Vec<ResId>) {
    bench_gateway_for(n_hops, 0..r as u32, now)
}

/// Like [`bench_gateway`], with the reservations `ids` installed.
pub fn bench_gateway_for(
    n_hops: usize,
    ids: impl IntoIterator<Item = u32>,
    now: Instant,
) -> (Gateway, Vec<ResId>) {
    let exp = now + Duration::from_secs(3600); // long-lived: no mid-bench expiry
    let bw = Bandwidth::from_gbps(400);
    let ases = path_ases(n_hops);
    let hops = path_hops(n_hops);
    let eer_info = EerInfo { src_host: SRC_HOST, dst_host: DST_HOST };
    let epoch = Epoch::containing(now);
    let k_is: Vec<_> = ases
        .iter()
        .map(|a| SecretValueGen::new(&master_secret_for(*a)).secret_value(epoch).cmac())
        .collect();
    let mut gw = Gateway::new(GatewayConfig { burst: Duration::from_secs(3600), ..Default::default() });
    let mut installed = Vec::new();
    for i in ids {
        let res_info = ResInfo {
            src_as: ases[0],
            res_id: ResId(i),
            bw: colibri::base::BwClass::from_bandwidth_ceil(bw),
            exp_t: exp,
            ver: 0,
        };
        let hop_auths = k_is
            .iter()
            .zip(&hops)
            .map(|(k_i, hop)| hop_auth(k_i, &res_info, &eer_info, *hop))
            .collect();
        let owned = OwnedEer {
            key: ReservationKey::new(ases[0], ResId(i)),
            eer_info,
            path_ases: ases.clone(),
            hop_fields: hops.clone(),
            versions: vec![OwnedEerVersion { ver: 0, bw, exp, hop_auths }],
        };
        gw.install(&owned, now);
        installed.push(ResId(i));
    }
    (gw, installed)
}

/// Fig. 3 fixture: a SegR admission module pre-loaded with `n` existing
/// SegRs over one interface pair, a fraction `ratio` of which share the
/// source AS of the reservation about to be admitted (the paper's `ratio`
/// parameter).
pub fn segr_admission_fixture(n: u32, ratio: f64) -> colibri::ctrl::SegrAdmission {
    use colibri::ctrl::{SegrAdmission, SegrAdmissionConfig, SegrRequest};
    use colibri::base::InterfaceId;
    let mut a = SegrAdmission::new(SegrAdmissionConfig {
        colibri_share: 1.0,
        ..SegrAdmissionConfig::default()
    });
    a.set_interface_capacity(InterfaceId(1), Bandwidth::from_gbps(100_000));
    a.set_interface_capacity(InterfaceId(2), Bandwidth::from_gbps(100_000));
    for i in 0..n {
        let src = if (i as f64) < ratio * n as f64 { FIG3_SOURCE } else { 1000 + i };
        let _ = a.admit(SegrRequest {
            key: ReservationKey::new(IsdAsId::new(1, src), ResId(i)),
            ingress: InterfaceId(1),
            egress: InterfaceId(2),
            demand: Bandwidth::from_mbps(10),
            min_bw: Bandwidth::ZERO,
            window: colibri::base::SlotWindow::at(0),
        });
    }
    a
}

/// The source AS number whose SegRs the `ratio` fraction shares (and that
/// the measured admission in Fig. 3 comes from).
pub const FIG3_SOURCE: u32 = 7;

/// The admission request measured in Fig. 3 (always a fresh ResId).
pub fn fig3_request(res_id: u32) -> colibri::ctrl::SegrRequest {
    use colibri::base::InterfaceId;
    colibri::ctrl::SegrRequest {
        key: ReservationKey::new(IsdAsId::new(1, FIG3_SOURCE), ResId(10_000_000 + res_id)),
        ingress: InterfaceId(1),
        egress: InterfaceId(2),
        demand: Bandwidth::from_mbps(10),
        min_bw: Bandwidth::ZERO,
        window: colibri::base::SlotWindow::at(0),
    }
}

/// Fig. 4 fixture: EER usage tracking for one SegR with `n_eers` existing
/// EERs, plus a reservation store holding `s` SegR records (the paper's
/// `s` parameter — SegRs sharing the source AS).
pub fn eer_admission_fixture(
    n_eers: u32,
    s: u32,
) -> (colibri::ctrl::ReservationStore, ReservationKey) {
    use colibri::ctrl::{ReservationStore, SegrRecord};
    let exp = Instant::from_secs(1_000_000);
    let t0 = Instant::from_secs(0);
    let mut store = ReservationStore::new();
    let src = IsdAsId::new(1, 50);
    let mut target = None;
    for i in 0..s.max(1) {
        let key = ReservationKey::new(src, ResId(i));
        let mut rec = SegrRecord::new(
            key,
            HopField::new(1, 2),
            1,
            3,
            0,
            Bandwidth::from_gbps(100_000),
            exp,
        );
        if i == 0 {
            for e in 0..n_eers {
                rec.usage
                    .admit(
                        ReservationKey::new(IsdAsId::new(1, 60), ResId(e)),
                        0,
                        Bandwidth::from_kbps(10),
                        exp,
                        t0,
                        None,
                    )
                    .unwrap();
            }
            target = Some(key);
        }
        store.insert_segr(rec);
    }
    (store, target.unwrap())
}

/// The border router of hop `hop_index` on the synthetic path, with
/// freshness checks relaxed for pre-stamped benchmark workloads.
pub fn bench_router(n_hops: usize, hop_index: usize) -> BorderRouter {
    let ases = path_ases(n_hops);
    let cfg = RouterConfig {
        freshness: Duration::from_secs(3600),
        skew: Duration::from_secs(3600),
        // §7.1: duplicate suppression is evaluated as a separate
        // component; the router benchmark measures parsing + crypto +
        // forwarding, like the paper's.
        monitoring: false,
        ..RouterConfig::default()
    };
    BorderRouter::new(ases[hop_index], &master_secret_for(ases[hop_index]), cfg)
}

/// Pre-stamps `count` packets over random reservations of a fixture and
/// advances each to `hop_index` — the working set for router benches.
pub fn stamped_packets(
    gw: &mut Gateway,
    ids: &[ResId],
    payload_len: usize,
    count: usize,
    hop_index: usize,
    now: Instant,
) -> Vec<Vec<u8>> {
    let payload = vec![0u8; payload_len];
    let mut rng = Xor64::new(0xC01B);
    (0..count)
        .map(|_| {
            let id = ids[(rng.next() % ids.len() as u64) as usize];
            stamp_at_hop(gw, id, &payload, hop_index, now)
        })
        .collect()
}

/// Stamps one packet of reservation `id` and advances it to `hop_index`.
pub fn stamp_at_hop(
    gw: &mut Gateway,
    id: ResId,
    payload: &[u8],
    hop_index: usize,
    now: Instant,
) -> Vec<u8> {
    let mut pkt = gw.process(SRC_HOST, id, payload, now).expect("stamp").bytes;
    let mut v = colibri::wire::PacketViewMut::parse(&mut pkt).unwrap();
    for _ in 0..hop_index {
        v.advance_hop();
    }
    pkt
}

/// Minimal deterministic RNG for workload shuffling (no `rand` needed in
/// the binaries' hot loops).
pub struct Xor64(u64);

impl Xor64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Xor64(seed.max(1))
    }
    /// Next pseudo-random value.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Measures million-packets-per-second of a per-packet closure over `iters`
/// invocations.
pub fn measure_mpps(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = std::time::Instant::now();
    for i in 0..iters {
        f(i);
    }
    let dt = t0.elapsed().as_secs_f64();
    iters as f64 / dt / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use colibri::dataplane::RouterVerdict;

    #[test]
    fn synthetic_fixture_packets_verify_at_every_hop() {
        let now = Instant::from_secs(10);
        let n = 4;
        let (mut gw, ids) = bench_gateway(n, 8, now);
        let mut pkt = gw.process(SRC_HOST, ids[3], b"payload", now).expect("stamp").bytes;
        for hop in 0..n {
            let mut router = bench_router(n, hop);
            let verdict = router.process(&mut pkt, now);
            if hop + 1 == n {
                assert_eq!(verdict, RouterVerdict::DeliverHost(DST_HOST));
            } else {
                assert!(matches!(verdict, RouterVerdict::Forward(_)), "hop {hop}: {verdict:?}");
            }
        }
    }

    #[test]
    fn stamped_packets_are_distinct_and_positioned() {
        let now = Instant::from_secs(10);
        let (mut gw, ids) = bench_gateway(4, 16, now);
        let pkts = stamped_packets(&mut gw, &ids, 100, 32, 1, now);
        assert_eq!(pkts.len(), 32);
        for p in &pkts {
            let v = colibri::wire::PacketView::parse(p).unwrap();
            assert_eq!(v.curr_hop(), 1);
        }
    }

    #[test]
    fn measure_mpps_sane() {
        let mut acc = 0u64;
        let mpps = measure_mpps(100_000, |i| acc = acc.wrapping_add(i));
        std::hint::black_box(acc);
        assert!(mpps > 0.0);
    }
}

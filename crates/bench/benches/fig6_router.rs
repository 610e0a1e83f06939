//! Fig. 6 (single-core cut): border-router forwarding performance.
//!
//! The border router is stateless, so its single-core throughput is the
//! building block of Fig. 6's linear multi-core scaling (the full thread
//! sweep lives in the `repro_fig6` binary — Criterion measures one core).
//! Per packet the router parses, checks freshness/expiry, derives σᵢ from
//! its AS secret (Eq. 4), recomputes the 4-byte HVF (Eq. 6), and compares
//! in constant time. The paper reports ~2.1 Mpps per core with AES-NI,
//! which this repo also uses where the CPU has it; the router must remain
//! faster than the gateway (which computes one MAC *per on-path AS*, not
//! one total).

use colibri::base::Instant;
use colibri::dataplane::RouterVerdict;
use colibri_bench::{bench_gateway, bench_router, stamped_packets};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_router_single_core");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(1));
    let now = Instant::from_secs(10);
    for &hops in &[4usize, 16] {
        // Router state does not depend on r (stateless); r only changes
        // the *packet mix*. Use 1024 reservations' worth of packets.
        let (mut gw, ids) = bench_gateway(hops, 1 << 10, now);
        let pkts = stamped_packets(&mut gw, &ids, 0, 4096, 1, now);
        let mut router = bench_router(hops, 1);
        let mut i = 0usize;
        let mut scratch = pkts[0].clone();
        group.bench_with_input(BenchmarkId::new("hops", hops), &hops, |b, _| {
            b.iter(|| {
                i = (i + 1) & 4095;
                // Copy the pre-stamped packet so `advance_hop` mutation
                // does not accumulate (the copy is a fraction of the
                // router's crypto cost and matches a NIC placing the
                // packet into a fresh buffer).
                scratch.clear();
                scratch.extend_from_slice(&pkts[i]);
                let verdict = router.process(std::hint::black_box(&mut scratch), now);
                assert!(matches!(verdict, RouterVerdict::Forward(_)));
                verdict
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

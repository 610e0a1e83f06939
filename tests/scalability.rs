//! Scalability integration tests: the control-plane O(1) claims behind
//! Figs. 3 and 4, asserted as *ratios* (wall-clock thresholds would be
//! flaky; what the paper shows is independence from state size).

use colibri::base::{Bandwidth, Instant, InterfaceId, IsdAsId, ResId, ReservationKey};
use colibri::ctrl::{SegrAdmission, SegrAdmissionConfig, SegrRequest, SegrUsage};
use std::time::Instant as WallClock;

fn key(asn: u32, rid: u32) -> ReservationKey {
    ReservationKey::new(IsdAsId::new(1, asn), ResId(rid))
}

fn admission_with_n_segrs(n: u32, same_source_ratio: f64) -> SegrAdmission {
    let mut a = SegrAdmission::new(SegrAdmissionConfig {
        colibri_share: 1.0,
        ..SegrAdmissionConfig::default()
    });
    a.set_interface_capacity(InterfaceId(1), Bandwidth::from_gbps(10_000));
    a.set_interface_capacity(InterfaceId(2), Bandwidth::from_gbps(10_000));
    for i in 0..n {
        let src = if (i as f64) < same_source_ratio * n as f64 { 7 } else { 100 + i };
        let _ = a.admit(SegrRequest {
            key: key(src, i),
            ingress: InterfaceId(1),
            egress: InterfaceId(2),
            demand: Bandwidth::from_mbps(10),
            min_bw: Bandwidth::ZERO,
            window: colibri::base::SlotWindow::at(0),
        });
    }
    a
}

fn time_admissions(a: &mut SegrAdmission, reps: u32) -> f64 {
    let t0 = WallClock::now();
    for r in 0..reps {
        let _ = a.admit(SegrRequest {
            key: key(7, 1_000_000 + r),
            ingress: InterfaceId(1),
            egress: InterfaceId(2),
            demand: Bandwidth::from_mbps(1),
            min_bw: Bandwidth::ZERO,
            window: colibri::base::SlotWindow::at(0),
        });
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// Fig. 3's claim: SegR admission time is independent of the number of
/// existing SegRs on the same interface pair (flat lines). We allow a 5×
/// margin over the small case for hash-map noise; a naive O(n) rescan
/// would be ~1000× slower at n = 10 000.
#[test]
fn segr_admission_independent_of_existing_segrs() {
    for ratio in [0.0, 0.5, 0.9] {
        let mut small = admission_with_n_segrs(10, ratio);
        let mut large = admission_with_n_segrs(10_000, ratio);
        // Warm up allocator/caches.
        time_admissions(&mut small, 200);
        time_admissions(&mut large, 200);
        let t_small = time_admissions(&mut small, 2_000);
        let t_large = time_admissions(&mut large, 2_000);
        assert!(
            t_large < t_small * 5.0 + 2e-6,
            "ratio {ratio}: admission scaled with state: {t_small:.2e}s → {t_large:.2e}s"
        );
    }
}

/// Fig. 4's claim: EER admission time is independent of the number of
/// existing EERs sharing the SegR.
#[test]
fn eer_admission_independent_of_existing_eers() {
    let t0 = Instant::from_secs(0);
    let exp = Instant::from_secs(16);
    let mk = |n: u32| {
        let mut u = SegrUsage::new(Bandwidth::from_gbps(100_000));
        for i in 0..n {
            u.admit(key(10, i), 0, Bandwidth::from_kbps(10), exp, t0, None).unwrap();
        }
        u
    };
    let mut small = mk(10);
    let mut large = mk(100_000);
    let reps = 20_000u32;
    let time = |u: &mut SegrUsage| {
        let t = WallClock::now();
        for r in 0..reps {
            u.admit(key(11, 500_000 + r), 0, Bandwidth::from_kbps(1), exp, t0, None).unwrap();
        }
        t.elapsed().as_secs_f64() / reps as f64
    };
    time(&mut small);
    time(&mut large);
    let t_small = time(&mut small);
    let t_large = time(&mut large);
    assert!(
        t_large < t_small * 5.0 + 2e-6,
        "EER admission scaled with state: {t_small:.2e}s → {t_large:.2e}s"
    );
}

/// The paper's headline: "the control-plane services can process 2000
/// reservations per second on a single core". Sanity-check that our EER
/// admission clears that bar by a wide margin even in debug builds.
#[test]
fn eer_admission_rate_exceeds_2000_per_second() {
    let t0 = Instant::from_secs(0);
    let exp = Instant::from_secs(16);
    let mut u = SegrUsage::new(Bandwidth::from_gbps(100_000));
    let n = 20_000u32;
    let t = WallClock::now();
    for i in 0..n {
        u.admit(key(10, i), 0, Bandwidth::from_kbps(1), exp, t0, None).unwrap();
    }
    let per_sec = n as f64 / t.elapsed().as_secs_f64();
    assert!(per_sec > 2_000.0, "only {per_sec:.0} EER admissions/s");
}

/// Gateway state scale: installing 100k reservations and stamping against
/// random IDs must stay functional (Fig. 5's r = 2^17 regime).
#[test]
fn gateway_handles_many_reservations() {
    use colibri::prelude::*;
    let now = Instant::from_secs(1);
    let hop_fields =
        vec![HopField::new(0, 1), HopField::new(2, 3), HopField::new(4, 5), HopField::new(6, 0)];
    let mut gw = Gateway::new(GatewayConfig::default());
    let n = 100_000u32;
    for i in 0..n {
        let owned = colibri::ctrl::OwnedEer {
            key: ReservationKey::new(IsdAsId::new(1, 10), ResId(i)),
            eer_info: EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) },
            path_ases: vec![
                IsdAsId::new(1, 10),
                IsdAsId::new(1, 5),
                IsdAsId::new(1, 1),
                IsdAsId::new(2, 1),
            ],
            hop_fields: hop_fields.clone(),
            versions: vec![colibri::ctrl::OwnedEerVersion {
                ver: 0,
                bw: Bandwidth::from_mbps(10),
                exp: now + colibri::base::Duration::from_secs(16),
                hop_auths: vec![Key([i as u8; 16]); 4],
            }],
        };
        gw.install(&owned, now);
    }
    assert_eq!(gw.len(), n as usize);
    // Stamp against scattered IDs.
    let mut pkt = Vec::new();
    for i in (0..n).step_by(9973) {
        gw.process_into(HostAddr(1), ResId(i), b"x", now, &mut pkt).unwrap();
        assert!(PacketView::parse(&pkt).is_ok());
    }
}

/// Advance reservations end to end (DESIGN.md §15): a future window booked
/// through a multi-AS path consumes no bandwidth before its start tick,
/// activates exactly at it, and — if abandoned pre-activation — tears down
/// to bit-identical admission aggregates at every on-path AS.
#[test]
fn advance_reservation_end_to_end() {
    use colibri::ctrl::{setup_segr_at, teardown_segr, CservError};
    use colibri::prelude::*;
    use colibri::topology::gen::sample_two_isd;

    let sample = sample_two_isd();
    let mut reg = CservRegistry::provision(&sample.topo, CservConfig::default());
    let now = Instant::from_secs(1);
    let path = find_paths(&sample.topo, &sample.segments, sample.leaf_a, sample.leaf_d, 4)
        .into_iter()
        .next()
        .unwrap();
    assert!(path.as_path().len() >= 3, "need a multi-AS path");

    // Book the whole path 100 s ahead of time (1 s slots → slot 101).
    let starts_at = Instant::from_secs(101);
    let start_slot = 101u64;
    let mut keys = Vec::new();
    for seg in &path.segments {
        keys.push(
            setup_segr_at(
                &mut reg,
                seg,
                Bandwidth::from_mbps(500),
                Bandwidth::from_mbps(1),
                starts_at,
                now,
            )
            .expect("advance booking")
            .key,
        );
    }

    // Zero bandwidth consumed before the start tick: every nonzero slot of
    // every granted-bandwidth profile lies at or after `starts_at`'s slot.
    for id in path.as_path() {
        let snap = reg.get(id).unwrap().admission().aggregates();
        for prof in snap.alloc.values() {
            for (&slot, &v) in prof {
                assert!(
                    v == 0 || slot >= start_slot,
                    "{id}: {v} bps allocated at slot {slot}, before start slot {start_slot}"
                );
            }
        }
    }

    // EER traffic is refused before activation…
    let hosts = EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) };
    let err = setup_eer(&mut reg, &path, &keys, hosts, Bandwidth::from_mbps(5), now).unwrap_err();
    assert!(
        matches!(err, SetupError::Refused { reason: CservError::SegrNotActive(_), .. }),
        "expected SegrNotActive before the start tick, got {err:?}"
    );

    // …and honored from the start tick on.
    setup_eer(&mut reg, &path, &keys, hosts, Bandwidth::from_mbps(5), starts_at)
        .expect("EER once the advance reservation is active");

    // Pre-activation abort: a second future booking, torn down before its
    // start, restores every AS's admission aggregates exactly.
    let before: Vec<_> = path
        .as_path()
        .into_iter()
        .map(|id| (id, reg.get(id).unwrap().admission().aggregates()))
        .collect();
    let mut keys2 = Vec::new();
    for seg in &path.segments {
        keys2.push(
            setup_segr_at(
                &mut reg,
                seg,
                Bandwidth::from_mbps(200),
                Bandwidth::from_mbps(1),
                Instant::from_secs(200),
                now,
            )
            .expect("second advance booking")
            .key,
        );
    }
    assert!(
        before.iter().any(|(id, snap)| reg.get(*id).unwrap().admission().aggregates() != *snap),
        "second booking left no trace to roll back"
    );
    for key in keys2 {
        teardown_segr(&mut reg, key).expect("pre-activation teardown");
    }
    for (id, snap) in &before {
        assert_eq!(
            &reg.get(*id).unwrap().admission().aggregates(),
            snap,
            "aggregates at {id} differ after pre-activation teardown"
        );
    }
}

//! Differential and regression properties of the gateway's QoS modes.
//!
//! The hierarchical qdisc path is proven against the flat token-bucket
//! path: with [`HtbConfig::degenerate`] the two must agree on *every*
//! packet — verdicts, stamped bytes, and counters — because the qdisc's
//! reservation nodes are literally the flat monitor. On top of the
//! differential, regression tests pin the renewal token-carry-over
//! semantics (a mid-stream rate change must never mint a retroactive
//! burst) and node-count conservation under install/remove churn.

use colibri_base::{Bandwidth, Duration, HostAddr, Instant, IsdAsId, ResId, ReservationKey};
use colibri_crypto::Key;
use colibri_ctrl::{OwnedEer, OwnedEerVersion};
use colibri_dataplane::{Gateway, GatewayConfig, GatewayError, QosMode};
use colibri_qdisc::HtbConfig;
use colibri_wire::{EerInfo, HopField};
use proptest::prelude::*;

const HOST: HostAddr = HostAddr(7);

fn owned(res_id: u32, versions: Vec<(u8, Bandwidth, Instant)>) -> OwnedEer {
    OwnedEer {
        key: ReservationKey::new(IsdAsId::new(1, 10), ResId(res_id)),
        eer_info: EerInfo { src_host: HOST, dst_host: HostAddr(8) },
        path_ases: vec![IsdAsId::new(1, 10), IsdAsId::new(1, 1)],
        hop_fields: vec![HopField::new(0, 1), HopField::new(2, 0)],
        versions: versions
            .into_iter()
            .map(|(ver, bw, exp)| OwnedEerVersion {
                ver,
                bw,
                exp,
                hop_auths: vec![Key([ver; 16]), Key([ver.wrapping_add(100); 16])],
            })
            .collect(),
    }
}

/// A flat gateway and a degenerate-hierarchy gateway with the same burst.
fn pair(burst: Duration) -> (Gateway, Gateway) {
    let flat = Gateway::new(GatewayConfig { burst, qos: QosMode::Flat });
    let hier = Gateway::new(GatewayConfig {
        burst,
        qos: QosMode::Hierarchical(HtbConfig::degenerate(burst)),
    });
    (flat, hier)
}

proptest! {
    /// **Flat ≡ degenerate hierarchy**: for arbitrary reservations and
    /// packet schedules, both modes produce the *same* per-packet result
    /// (identical stamped bytes on success, identical error otherwise)
    /// and the same counters. The hierarchy collapses to exactly one
    /// `try_consume` per packet, so any divergence is a bug in the tree.
    #[test]
    fn degenerate_hierarchy_matches_flat_gateway(
        burst_ms in 1u64..200,
        rates_kbps in prop::collection::vec(64u64..500_000, 1..4),
        pkts in prop::collection::vec(
            (0u64..2_000_000, 0usize..1400, 0u8..5),
            1..200,
        ),
    ) {
        let burst = Duration::from_millis(burst_ms);
        let (mut flat, mut hier) = pair(burst);
        let t0 = Instant::from_secs(1);
        let exp = Instant::from_secs(3);
        for (i, kbps) in rates_kbps.iter().enumerate() {
            let o = owned(i as u32, vec![(0, Bandwidth::from_kbps(*kbps), exp)]);
            flat.install(&o, t0);
            hier.install(&o, t0);
        }
        let mut sched = pkts;
        sched.sort_unstable_by_key(|(t, ..)| *t);
        let (mut flat_buf, mut buf) = (Vec::new(), Vec::new());
        for (off_us, len, which) in sched {
            let now = t0 + Duration::from_micros(off_us);
            // `which` may address an uninstalled reservation (unknown) and
            // `off_us` may land past expiry — error paths must agree too.
            let res = ResId(which as u32);
            let payload = vec![0xabu8; len];
            let vf = flat.process_into(HOST, res, &payload, now, &mut flat_buf);
            let vh = hier.process_into(HOST, res, &payload, now, &mut buf);
            prop_assert_eq!(vf, vh, "flat and degenerate hierarchy diverged");
            prop_assert_eq!(&flat_buf, &buf);
        }
        prop_assert_eq!(flat.stats, hier.stats);
        // The hierarchy admitted exactly the packets the flat path forwarded.
        let qs = hier.qos_stats().expect("hierarchical gateway has qdisc stats");
        prop_assert_eq!(qs.admitted, flat.stats.forwarded);
    }

    /// Renewals at an *unchanged* rate are invisible to admission: a
    /// gateway renewed every few hundred microseconds admits exactly the
    /// same packets as one never renewed — token state carries over.
    #[test]
    fn same_rate_renewal_is_admission_neutral(
        rate_kbps in 64u64..500_000,
        pkts in prop::collection::vec((0u64..1_000_000, 0usize..1400), 1..150),
        renew_every_us in 50u64..5000,
    ) {
        let burst = Duration::from_millis(50);
        let rate = Bandwidth::from_kbps(rate_kbps);
        let t0 = Instant::from_secs(1);
        let exp = Instant::from_secs(10);
        let (mut quiet, mut churny) = pair(burst);
        // Same mode matters less than same schedule: run the renewal storm
        // on the *hierarchical* gateway and the quiet run on flat — this
        // folds the differential in for free.
        quiet.install(&owned(1, vec![(0, rate, exp)]), t0);
        churny.install(&owned(1, vec![(0, rate, exp)]), t0);
        let mut sched = pkts;
        sched.sort_unstable();
        let mut next_renew = renew_every_us;
        let mut ver = 0u8;
        let mut buf = Vec::new();
        for (off_us, len) in sched {
            let now = t0 + Duration::from_micros(off_us);
            while off_us >= next_renew {
                ver = ver.wrapping_add(1);
                churny.install(&owned(1, vec![(ver, rate, exp)]), now);
                next_renew += renew_every_us;
            }
            let payload = vec![0u8; len];
            let vq = quiet.process_into(HOST, ResId(1), &payload, now, &mut buf).is_ok();
            let vc = churny.process_into(HOST, ResId(1), &payload, now, &mut buf).is_ok();
            prop_assert_eq!(vq, vc, "a same-rate renewal changed an admit verdict");
        }
    }

    /// Install/remove churn conserves hierarchy nodes: at every step the
    /// qdisc holds exactly one reservation node per installed table entry
    /// and the structural audit finds no leaked child nodes; after
    /// removing everything, the tree is empty.
    #[test]
    fn install_remove_churn_conserves_nodes(
        ops in prop::collection::vec((any::<bool>(), 0u32..8, 64u64..100_000), 1..200),
    ) {
        let burst = Duration::from_millis(20);
        let mut g = Gateway::new(GatewayConfig {
            burst,
            qos: QosMode::Hierarchical(HtbConfig::degenerate(burst)),
        });
        let t0 = Instant::from_secs(1);
        let exp = Instant::from_secs(100);
        let mut live = std::collections::HashSet::new();
        let mut buf = Vec::new();
        for (is_install, id, kbps) in ops {
            let now = t0 + Duration::from_micros(live.len() as u64);
            if is_install {
                g.install(&owned(id, vec![(0, Bandwidth::from_kbps(kbps), exp)]), now);
                live.insert(id);
                // A freshly (re)installed reservation processes packets.
                prop_assert!(g.process_into(HOST, ResId(id), b"", now, &mut buf).is_ok());
            } else {
                g.remove(ResId(id));
                live.remove(&id);
                prop_assert!(matches!(
                    g.process_into(HOST, ResId(id), b"", now, &mut buf),
                    Err(GatewayError::UnknownReservation(_))
                ));
            }
            let report = g.qdisc().unwrap().audit().expect("audit must stay clean");
            prop_assert_eq!(report.reservations, live.len(), "table/tree node count diverged");
            prop_assert_eq!(g.len(), live.len());
        }
        for id in 0..8u32 {
            g.remove(ResId(id));
        }
        let report = g.qdisc().unwrap().audit().unwrap();
        prop_assert_eq!(report.reservations, 0);
        prop_assert_eq!(report.host_meters, 0);
        prop_assert_eq!(report.queued_pkts, 0, "teardown leaked queued packets");
    }
}

/// Regression: a mid-stream renewal to a higher rate must *not* grant a
/// retroactive burst. Before `TokenBucket::reconfigure`, the old
/// `set_rate` left the last-refill timestamp unsettled, so the elapsed
/// idle interval was re-priced at the new rate on the next packet —
/// draining a 8 Mb/s bucket, idling one second, then renewing to
/// 800 Mb/s minted ~5 MB out of thin air. Now the idle second refills at
/// the *old* rate first and the token level merely carries over.
#[test]
fn renewal_to_higher_rate_grants_no_free_burst() {
    let burst = Duration::from_millis(50);
    let low = Bandwidth::from_mbps(8); // capacity: 50 kB
    let high = Bandwidth::from_mbps(800); // capacity: 5 MB
    let t0 = Instant::from_secs(1);
    let exp = Instant::from_secs(100);

    for hierarchical in [false, true] {
        let qos = if hierarchical {
            QosMode::Hierarchical(HtbConfig::degenerate(burst))
        } else {
            QosMode::Flat
        };
        let mut g = Gateway::new(GatewayConfig { burst, qos });
        g.install(&owned(1, vec![(0, low, exp)]), t0);
        let mut buf = Vec::new();

        // Drain the 50 kB bucket completely at t0.
        while g.process_into(HOST, ResId(1), &[0u8; 944], t0, &mut buf).is_ok() {}

        // Idle one second (refills at the OLD 1 MB/s rate → back to the
        // old 50 kB cap), then renew to 100× the rate.
        let t1 = t0 + Duration::from_secs(1);
        g.install(&owned(1, vec![(1, high, exp)]), t1);

        // Everything admissible *at this instant* is the carried-over
        // ≤50 kB — not the new 5 MB capacity, and not the 100 MB a
        // new-rate re-pricing of the idle second would mint.
        let mut admitted = 0u64;
        while g.process_into(HOST, ResId(1), &[0u8; 944], t1, &mut buf).is_ok() {
            admitted += 1000; // 944 B payload + 56 B header
            assert!(
                admitted <= 51_000,
                "renewal minted a free burst ({admitted} B instantly, mode \
                 hierarchical={hierarchical})"
            );
        }
        assert!(
            admitted >= 49_000,
            "carried-over tokens lost on renewal ({admitted} B, mode \
             hierarchical={hierarchical})"
        );

        // From here the refill runs at the new rate: 10 ms buys 1 MB.
        let t2 = t1 + Duration::from_millis(10);
        let mut refilled = 0u64;
        while g.process_into(HOST, ResId(1), &[0u8; 944], t2, &mut buf).is_ok() {
            refilled += 1000;
            assert!(refilled <= 1_001_000);
        }
        assert!(
            refilled >= 990_000,
            "new rate not in effect after renewal ({refilled} B in 10 ms)"
        );
    }
}

/// Regression companion: `override_monitor_rate` (the §7.1 attack-3
/// harness) uses the same carry-over semantics — a malicious rate
/// override cannot retroactively mint tokens either.
#[test]
fn override_monitor_rate_carries_tokens_over() {
    let burst = Duration::from_millis(50);
    let t0 = Instant::from_secs(1);
    let exp = Instant::from_secs(100);
    for hierarchical in [false, true] {
        let qos = if hierarchical {
            QosMode::Hierarchical(HtbConfig::degenerate(burst))
        } else {
            QosMode::Flat
        };
        let mut g = Gateway::new(GatewayConfig { burst, qos });
        g.install(&owned(1, vec![(0, Bandwidth::from_mbps(8), exp)]), t0);
        let mut buf = Vec::new();
        while g.process_into(HOST, ResId(1), &[0u8; 944], t0, &mut buf).is_ok() {}

        let t1 = t0 + Duration::from_secs(1);
        g.override_monitor_rate(ResId(1), Bandwidth::from_mbps(800), t1);
        let mut admitted = 0u64;
        while g.process_into(HOST, ResId(1), &[0u8; 944], t1, &mut buf).is_ok() {
            admitted += 1000;
            assert!(
                admitted <= 51_000,
                "override minted a free burst (hierarchical={hierarchical})"
            );
        }
    }
}

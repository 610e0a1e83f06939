//! Tests for EER renewal rate limiting (§4.2) and the overuse-report →
//! deny-source policing loop (§4.8).

use colibri_base::{Bandwidth, Duration, HostAddr, Instant};
use colibri_ctrl::messages::OveruseReportMsg;
use colibri_ctrl::{
    renew_eer, setup_eer, setup_segr, CservConfig, CservError, CservRegistry, SetupError,
};
use colibri_topology::gen::sample_two_isd;
use colibri_topology::stitch;
use colibri_wire::EerInfo;

fn setup() -> (CservRegistry, colibri_topology::FullPath, colibri_ctrl::EerGrant) {
    let sample = sample_two_isd();
    let mut reg = CservRegistry::provision(&sample.topo, CservConfig::default());
    let now = Instant::from_secs(1);
    let up = sample.segments.up_segments(sample.leaf_a, sample.core_11)[0].clone();
    let segr =
        setup_segr(&mut reg, &up, Bandwidth::from_gbps(1), Bandwidth::from_mbps(1), now).unwrap();
    let path = stitch(std::slice::from_ref(&up)).unwrap();
    let eer = setup_eer(
        &mut reg,
        &path,
        &[segr.key],
        EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) },
        Bandwidth::from_mbps(10),
        now,
    )
    .unwrap();
    (reg, path, eer)
}

#[test]
fn rapid_renewals_rate_limited() {
    let (mut reg, _path, eer) = setup();
    let t1 = Instant::from_secs(3);
    renew_eer(&mut reg, eer.key, Bandwidth::from_mbps(10), t1).expect("first renewal");
    // 100 ms later: under the 1-per-second limit.
    let t2 = t1 + Duration::from_millis(100);
    let err = renew_eer(&mut reg, eer.key, Bandwidth::from_mbps(10), t2).unwrap_err();
    assert!(
        matches!(err, SetupError::Refused { reason: CservError::RenewalRateLimited, .. }),
        "{err:?}"
    );
    // After the interval elapses, renewals work again.
    let t3 = t1 + Duration::from_secs(1);
    renew_eer(&mut reg, eer.key, Bandwidth::from_mbps(10), t3).expect("after interval");
}

#[test]
fn rate_limit_is_per_reservation() {
    let (mut reg, path, eer1) = setup();
    let now = Instant::from_secs(2);
    // A second EER over the same SegR.
    let segr_keys = reg
        .get(path.src_as())
        .unwrap()
        .store()
        .eer_segrs(eer1.key)
        .unwrap()
        .to_vec();
    let eer2 = setup_eer(
        &mut reg,
        &path,
        &segr_keys,
        EerInfo { src_host: HostAddr(3), dst_host: HostAddr(4) },
        Bandwidth::from_mbps(10),
        now,
    )
    .unwrap();
    let t = Instant::from_secs(3);
    renew_eer(&mut reg, eer1.key, Bandwidth::from_mbps(10), t).unwrap();
    // eer2's renewal is not affected by eer1's.
    renew_eer(&mut reg, eer2.key, Bandwidth::from_mbps(10), t + Duration::from_millis(1))
        .expect("independent limit");
}

#[test]
fn failed_rate_limited_renewal_leaves_old_version_intact() {
    let (mut reg, path, eer) = setup();
    let t1 = Instant::from_secs(3);
    renew_eer(&mut reg, eer.key, Bandwidth::from_mbps(10), t1).unwrap();
    let before =
        reg.get(path.src_as()).unwrap().store().owned_eer(eer.key).unwrap().versions.len();
    let _ = renew_eer(&mut reg, eer.key, Bandwidth::from_mbps(10), t1 + Duration::from_millis(10));
    let after =
        reg.get(path.src_as()).unwrap().store().owned_eer(eer.key).unwrap().versions.len();
    assert_eq!(before, after, "rate-limited renewal must not add a version");
}

#[test]
fn overuse_report_denies_future_reservations() {
    let (mut reg, path, eer) = setup();
    let offender = path.src_as();
    let transit = path.as_path()[1];
    // The transit AS's router confirmed overuse and reports to its CServ.
    let report = OveruseReportMsg {
        key: eer.key,
        observed_bytes: 2_000_000,
        allowed_bytes: 1_000_000,
        at: Instant::from_secs(5),
    };
    reg.get_mut(transit).unwrap().handle_overuse_report(&report);
    assert!(reg.get(transit).unwrap().is_source_denied(offender));
    // Any new reservation attempt from the offender dies at that AS.
    let err = renew_eer(&mut reg, eer.key, Bandwidth::from_mbps(10), Instant::from_secs(6))
        .unwrap_err();
    assert!(
        matches!(
            err,
            SetupError::Refused { reason: CservError::SourceDenied(a), .. } if a == offender
        ),
        "{err:?}"
    );
}

//! End-to-end control-plane flows over the sample two-ISD topology:
//! SegR setup/renewal/activation and EER setup/renewal across up-, core-
//! and down-segments, including refusal and rollback paths.

use colibri_base::{Bandwidth, Duration, HostAddr, Instant, ReservationKey};
use colibri_ctrl::setup::activate_segr;
use colibri_ctrl::{
    renew_eer, renew_segr, setup_eer, setup_segr, CservConfig, CservError, CservRegistry,
    SetupError,
};
use colibri_topology::gen::sample_two_isd;
use colibri_topology::{stitch, FullPath, Segment};
use colibri_wire::EerInfo;

struct World {
    reg: CservRegistry,
    up: Segment,
    core: Segment,
    down: Segment,
    path: FullPath,
}

/// Builds CServs over the sample topology and picks the canonical
/// leaf-A → core-11 → core-21 → leaf-D path.
fn world() -> World {
    let s = sample_two_isd();
    let reg = CservRegistry::provision(&s.topo, CservConfig::default());
    let up = s.segments.up_segments(s.leaf_a, s.core_11)[0].clone();
    let core = s.segments.core_segments(s.core_11, s.core_21)[0].clone();
    let down = s.segments.down_segments(s.core_21, s.leaf_d)[0].clone();
    let path = stitch(&[up.clone(), core.clone(), down.clone()]).unwrap();
    World { reg, up, core, down, path }
}

fn hosts() -> EerInfo {
    EerInfo { src_host: HostAddr(0x0a00_0001), dst_host: HostAddr(0x1400_0002) }
}

/// Sets up the three SegRs underlying the canonical path.
fn setup_three_segrs(w: &mut World, now: Instant) -> Vec<ReservationKey> {
    let mut keys = Vec::new();
    for seg in [w.up.clone(), w.core.clone(), w.down.clone()] {
        let grant =
            setup_segr(&mut w.reg, &seg, Bandwidth::from_gbps(1), Bandwidth::from_mbps(100), now)
                .expect("SegR setup");
        assert!(grant.bw >= Bandwidth::from_mbps(100));
        keys.push(grant.key);
    }
    keys
}

#[test]
fn segr_setup_records_state_at_every_as() {
    let mut w = world();
    let now = Instant::from_secs(10);
    let grant = setup_segr(
        &mut w.reg,
        &w.up.clone(),
        Bandwidth::from_gbps(2),
        Bandwidth::from_mbps(1),
        now,
    )
    .unwrap();
    assert_eq!(grant.bw, Bandwidth::from_gbps(2));
    assert_eq!(grant.ver, 0);
    // Every on-path AS has the record; the initiator additionally owns it.
    for hop in &w.up.hops {
        let cserv = w.reg.get(hop.isd_as).unwrap();
        let rec = cserv.store().segr(grant.key).expect("record");
        assert_eq!(rec.bw, grant.bw);
        assert_eq!(rec.hop_field(), hop.hop_field());
        assert!(!rec.is_expired(now));
    }
    let owner = w.reg.get(w.up.first_as()).unwrap();
    let owned = owner.store().owned_segr(grant.key).unwrap();
    assert_eq!(owned.tokens.len(), w.up.len());
    // Tokens are non-trivial and distinct per hop (different K_i).
    assert_ne!(owned.tokens[0], [0u8; 4]);
    assert_ne!(owned.tokens[0], owned.tokens[1]);
}

#[test]
fn segr_grant_is_min_over_path() {
    // leaf_b's two-hop up-segment through leaf_a crosses the 10 Gbps
    // leaf_a–leaf_b link and 40 Gbps provider links: the grant must be
    // bounded by the smallest Colibri share on the path (0.8 × 10 Gbps).
    let s = sample_two_isd();
    let mut reg = CservRegistry::provision(&s.topo, CservConfig::default());
    let via_a = s
        .segments
        .up_segments(s.leaf_b, s.core_11)
        .iter()
        .find(|seg| seg.len() == 3)
        .expect("segment via leaf_a")
        .clone();
    let grant = setup_segr(
        &mut reg,
        &via_a,
        Bandwidth::from_gbps(40),
        Bandwidth::from_mbps(1),
        Instant::from_secs(0),
    )
    .unwrap();
    assert_eq!(grant.bw, Bandwidth::from_gbps_f64(8.0));
}

#[test]
fn segr_renewal_is_pending_until_activation() {
    let mut w = world();
    let now = Instant::from_secs(10);
    let g0 = setup_segr(
        &mut w.reg,
        &w.up.clone(),
        Bandwidth::from_gbps(1),
        Bandwidth::from_mbps(1),
        now,
    )
    .unwrap();
    let later = now + Duration::from_secs(200);
    let g1 = renew_segr(&mut w.reg, g0.key, Bandwidth::from_gbps(2), Bandwidth::from_mbps(1), later)
        .unwrap();
    assert_eq!(g1.ver, 1);
    // Records still serve version 0 until activation.
    for hop in &w.up.hops {
        let rec = w.reg.get(hop.isd_as).unwrap().store().segr(g0.key).unwrap();
        assert_eq!(rec.ver, 0);
        assert_eq!(rec.bw, Bandwidth::from_gbps(1));
        assert!(rec.pending.is_some());
    }
    activate_segr(&mut w.reg, g0.key, 1, later).unwrap();
    for hop in &w.up.hops {
        let rec = w.reg.get(hop.isd_as).unwrap().store().segr(g0.key).unwrap();
        assert_eq!(rec.ver, 1);
        assert_eq!(rec.bw, Bandwidth::from_gbps(2));
        assert!(rec.pending.is_none());
    }
    // Owner view updated too.
    let owned = w.reg.get(w.up.first_as()).unwrap().store().owned_segr(g0.key).unwrap();
    assert_eq!(owned.ver, 1);
    assert_eq!(owned.bw, Bandwidth::from_gbps(2));
}

#[test]
fn segr_refusal_reports_bottleneck_and_rolls_back() {
    let mut w = world();
    let now = Instant::from_secs(0);
    // Saturate the up-segment.
    setup_segr(&mut w.reg, &w.up.clone(), Bandwidth::from_gbps(100), Bandwidth::from_mbps(1), now)
        .unwrap();
    // A second full-bandwidth request with a high minimum must fail…
    let err = setup_segr(
        &mut w.reg,
        &w.up.clone(),
        Bandwidth::from_gbps(100),
        Bandwidth::from_gbps(50),
        now,
    )
    .unwrap_err();
    let SetupError::Refused { reason, .. } = err else {
        panic!("expected refusal, got {err:?}");
    };
    assert!(matches!(reason, CservError::Admission(_)));
    // …and leave no partial state: once the incumbent shrinks at renewal
    // (the paper's §4.2 renegotiation), a modest follow-up succeeds.
    let incumbent = w.reg.get(w.up.first_as()).unwrap().store().owned_segrs().next().unwrap().key;
    renew_segr(&mut w.reg, incumbent, Bandwidth::from_gbps(1), Bandwidth::from_mbps(1), now)
        .unwrap();
    activate_segr(&mut w.reg, incumbent, 1, now).unwrap();
    setup_segr(&mut w.reg, &w.up.clone(), Bandwidth::from_mbps(10), Bandwidth::from_mbps(10), now)
        .unwrap();
}

#[test]
fn eer_setup_over_three_segments() {
    let mut w = world();
    let now = Instant::from_secs(10);
    let segr_keys = setup_three_segrs(&mut w, now);
    let path = w.path.clone();
    let grant =
        setup_eer(&mut w.reg, &path, &segr_keys, hosts(), Bandwidth::from_mbps(50), now).unwrap();
    assert_eq!(grant.bw, Bandwidth::from_mbps(50));
    // Source AS owns the EER with one σ per on-path AS.
    let src = path.src_as();
    let owned = w.reg.get(src).unwrap().store().owned_eer(grant.key).unwrap();
    assert_eq!(owned.versions.len(), 1);
    assert_eq!(owned.versions[0].hop_auths.len(), path.len());
    // Destination AS registered the terminating host.
    let dst = path.dst_as();
    assert_eq!(
        w.reg.get(dst).unwrap().store().terminating_eer(grant.key),
        Some(hosts().dst_host)
    );
    // Every SegR along the way carries the allocation.
    for (i, &sk) in segr_keys.iter().enumerate() {
        let holder = match i {
            0 => w.up.first_as(),
            1 => w.core.first_as(),
            _ => w.down.first_as(),
        };
        let rec = w.reg.get(holder).unwrap().store().segr(sk).unwrap();
        assert_eq!(rec.usage.charged(grant.key), Bandwidth::from_mbps(50), "segment {i}");
    }
}

#[test]
fn eer_admission_refused_when_segr_full() {
    let mut w = world();
    let now = Instant::from_secs(10);
    let segr_keys = setup_three_segrs(&mut w, now); // each ~1 Gbps
    let path = w.path.clone();
    // Fill the SegR with 10 × 100 Mbps EERs.
    for _ in 0..10 {
        setup_eer(&mut w.reg, &path, &segr_keys, hosts(), Bandwidth::from_mbps(100), now).unwrap();
    }
    let err = setup_eer(&mut w.reg, &path, &segr_keys, hosts(), Bandwidth::from_mbps(100), now)
        .unwrap_err();
    let SetupError::Refused { failed_at, reason } = err else {
        panic!("expected refusal: {err:?}");
    };
    assert_eq!(failed_at, 0, "the very first AS should already refuse");
    assert!(matches!(reason, CservError::Eer(_)));
}

#[test]
fn eer_rollback_on_midpath_refusal() {
    let mut w = world();
    let now = Instant::from_secs(10);
    let segr_keys = setup_three_segrs(&mut w, now);
    let path = w.path.clone();
    // Shrink the *core* SegR by renewing it down to 100 Mbps and activating.
    let core_key = segr_keys[1];
    renew_segr(&mut w.reg, core_key, Bandwidth::from_mbps(100), Bandwidth::from_mbps(1), now)
        .unwrap();
    activate_segr(&mut w.reg, core_key, 1, now).unwrap();
    // A 500 Mbps EER fits the up-SegR but not the core SegR: must fail at
    // the transfer AS (hop 2 of the 5-hop path)…
    let err = setup_eer(&mut w.reg, &path, &segr_keys, hosts(), Bandwidth::from_mbps(500), now)
        .unwrap_err();
    let SetupError::Refused { failed_at, .. } = err else {
        panic!("{err:?}")
    };
    assert!(failed_at >= 1, "failure must be at/after the transfer AS, got {failed_at}");
    // …and the up-SegR allocation must have been rolled back at all
    // upstream ASes.
    let up_key = segr_keys[0];
    for hop in &w.up.hops {
        let rec = w.reg.get(hop.isd_as).unwrap().store().segr(up_key).unwrap();
        assert_eq!(rec.usage.allocated(), Bandwidth::ZERO, "leak at {}", hop.isd_as);
    }
}

#[test]
fn eer_renewal_creates_new_version_sharing_flow() {
    let mut w = world();
    let now = Instant::from_secs(10);
    let segr_keys = setup_three_segrs(&mut w, now);
    let path = w.path.clone();
    let g0 =
        setup_eer(&mut w.reg, &path, &segr_keys, hosts(), Bandwidth::from_mbps(50), now).unwrap();
    let later = now + Duration::from_secs(8);
    let g1 = renew_eer(&mut w.reg, g0.key, Bandwidth::from_mbps(80), later).unwrap();
    assert_eq!(g1.key, g0.key, "renewal keeps the reservation key");
    assert_eq!(g1.ver, 1);
    let src = path.src_as();
    let owned = w.reg.get(src).unwrap().store().owned_eer(g0.key).unwrap();
    assert_eq!(owned.versions.len(), 2);
    // The SegR charge is the max over versions (80), not the sum (130).
    let rec = w.reg.get(w.up.first_as()).unwrap().store().segr(segr_keys[0]).unwrap();
    assert_eq!(rec.usage.charged(g0.key), Bandwidth::from_mbps(80));
}

#[test]
fn denied_source_cannot_reserve() {
    let mut w = world();
    let now = Instant::from_secs(0);
    let initiator = w.up.first_as();
    // Policing: the second AS on the up-segment denies the initiator.
    let transit = w.up.hops[1].isd_as;
    w.reg.get_mut(transit).unwrap().deny_source(initiator);
    let err = setup_segr(
        &mut w.reg,
        &w.up.clone(),
        Bandwidth::from_mbps(10),
        Bandwidth::from_mbps(1),
        now,
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            SetupError::Refused { failed_at: 1, reason: CservError::SourceDenied(a) } if a == initiator
        ),
        "{err:?}"
    );
}

#[test]
fn expired_segr_rejects_new_eers() {
    let mut w = world();
    let t0 = Instant::from_secs(10);
    let segr_keys = setup_three_segrs(&mut w, t0);
    let path = w.path.clone();
    // SegRs live ~300 s; at t0+400 they are gone.
    let late = t0 + Duration::from_secs(400);
    let err = setup_eer(&mut w.reg, &path, &segr_keys, hosts(), Bandwidth::from_mbps(1), late)
        .unwrap_err();
    let SetupError::Refused { reason, .. } = err else { panic!("{err:?}") };
    assert!(matches!(reason, CservError::SegrExpired(_)), "{reason:?}");
}

#[test]
fn lapsed_segrs_renewed_in_place_admit_the_same_eer() {
    // Appendix C: an EER setup over a lapsed SegR version fails with an
    // indication, the initiators refresh the SegRs, and the host retries.
    let mut w = world();
    let t0 = Instant::from_secs(10);
    let segr_keys = setup_three_segrs(&mut w, t0);
    let path = w.path.clone();
    let late = t0 + Duration::from_secs(400);
    let err = setup_eer(&mut w.reg, &path, &segr_keys, hosts(), Bandwidth::from_mbps(1), late)
        .unwrap_err();
    let SetupError::Refused { reason, .. } = err else { panic!("{err:?}") };
    assert!(matches!(reason, CservError::SegrExpired(_)), "{reason:?}");

    // The initiators refresh the lapsed SegRs in place (same keys, new
    // versions) and the very same EER request now goes through.
    for &k in &segr_keys {
        let g = renew_segr(&mut w.reg, k, Bandwidth::from_gbps(1), Bandwidth::from_mbps(1), late)
            .unwrap();
        activate_segr(&mut w.reg, k, g.ver, late).unwrap();
        assert!(g.exp > late);
    }
    setup_eer(&mut w.reg, &path, &segr_keys, hosts(), Bandwidth::from_mbps(1), late)
        .expect("EER over the renewed SegRs");
}

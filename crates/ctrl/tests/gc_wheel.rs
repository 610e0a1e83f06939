//! The expiry wheels are the only GC index: what they must not lose (a
//! restart), what they must not leak (per-EER bookkeeping), and what a
//! sweep must not depend on (the live population).

use colibri_base::{
    Bandwidth, BwClass, Duration, HostAddr, Instant, InterfaceId, IsdAsId, ResId, ReservationKey,
};
use colibri_ctrl::{
    renew_eer, setup_eer, setup_segr, AllowAll, CServ, CservConfig, CservRegistry, EerSetupReq,
    SegSetupReq,
};
use colibri_topology::gen::sample_two_isd;
use colibri_topology::stitch;
use colibri_wire::{EerInfo, HopField, ResInfo};

const HOSTS: EerInfo = EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) };

fn gc_all(reg: &mut CservRegistry, now: Instant) {
    for id in reg.ids() {
        reg.get_mut(id).unwrap().gc(now);
    }
}

/// After `recover()` the pending EER-allocation entries used to be gone
/// from the wheel, so expired EER bandwidth stayed charged to its SegR
/// until the SegR's own slot came due — minutes of spurious
/// `InsufficientSegr`.
#[test]
fn recover_keeps_eer_allocations_on_the_wheel() {
    let s = sample_two_isd();
    let mut reg = CservRegistry::provision(&s.topo, CservConfig::default());
    let up = s.segments.up_segments(s.leaf_a, s.core_11)[0].clone();
    let t0 = Instant::from_secs(1);
    let segr =
        setup_segr(&mut reg, &up, Bandwidth::from_gbps(1), Bandwidth::from_mbps(1), t0).unwrap();
    let path = stitch(std::slice::from_ref(&up)).unwrap();
    let quarter = Bandwidth::from_bps(segr.bw.as_bps() / 4);
    for _ in 0..4 {
        setup_eer(&mut reg, &path, &[segr.key], HOSTS, quarter, t0).expect("EER fits");
    }
    for id in reg.ids() {
        reg.get_mut(id).unwrap().recover(t0 + Duration::from_secs(1)).expect("consistent store");
    }
    // Past the EERs' expiry (16 s), long before the SegR's (300 s).
    let later = t0 + Duration::from_secs(20);
    gc_all(&mut reg, later);
    for hop in &up.hops {
        let store = reg.get(hop.isd_as).unwrap().store();
        let usage = &store.segr(segr.key).expect("SegR still live").usage;
        assert_eq!(usage.allocated(), Bandwidth::ZERO, "expired EERs still charged at {}", hop.isd_as);
        assert_eq!(usage.eer_count(), 0);
    }
    assert_eq!(reg.get(s.leaf_a).unwrap().store().owned_eer_count(), 0);
    setup_eer(&mut reg, &path, &[segr.key], HOSTS, segr.bw, later)
        .expect("the whole SegR is free again");
}

/// `terminating_eers` and `eer_requests` were insert-only: one entry per
/// EER forever.
#[test]
fn per_eer_bookkeeping_expires_with_the_eer() {
    let s = sample_two_isd();
    let mut reg = CservRegistry::provision(&s.topo, CservConfig::default());
    let up = s.segments.up_segments(s.leaf_a, s.core_11)[0].clone();
    let (src, dst) = (up.first_as(), up.last_as());
    let t0 = Instant::from_secs(1);
    let segr =
        setup_segr(&mut reg, &up, Bandwidth::from_gbps(1), Bandwidth::from_mbps(1), t0).unwrap();
    let path = stitch(std::slice::from_ref(&up)).unwrap();
    let eer = setup_eer(&mut reg, &path, &[segr.key], HOSTS, Bandwidth::from_mbps(10), t0).unwrap();
    let t1 = t0 + Duration::from_secs(10);
    renew_eer(&mut reg, eer.key, Bandwidth::from_mbps(10), t1).expect("renewal");

    // The first version has expired, the renewed one is live.
    gc_all(&mut reg, t0 + Duration::from_secs(17));
    assert_eq!(reg.get(dst).unwrap().store().terminating_eer(eer.key), Some(HOSTS.dst_host));
    assert_eq!(reg.get(src).unwrap().store().eer_segrs(eer.key), Some(&[segr.key][..]));
    assert_eq!(reg.get(src).unwrap().store().owned_eer(eer.key).unwrap().versions.len(), 1);

    // The renewed version has expired too.
    gc_all(&mut reg, t1 + Duration::from_secs(16));
    assert_eq!(reg.get(dst).unwrap().store().terminating_eer(eer.key), None);
    assert_eq!(reg.get(src).unwrap().store().eer_segrs(eer.key), None);
    assert_eq!(reg.get(src).unwrap().store().eer_junctions(eer.key), None);
    assert!(reg.get(src).unwrap().store().owned_eer(eer.key).is_none());
}

const IN: InterfaceId = InterfaceId(1);
const EG: InterfaceId = InterfaceId(2);

/// One CServ with one finalized 1 Tbps SegR (expiring at 300 s).
fn cserv_with_segr() -> (CServ, ReservationKey) {
    let me = IsdAsId::new(1, 10);
    let mut c = CServ::new(me, &[7; 16], CservConfig::default(), Box::new(AllowAll));
    c.set_interface_capacity(IN, Bandwidth::from_gbps(10_000));
    c.set_interface_capacity(EG, Bandwidth::from_gbps(10_000));
    let bw = Bandwidth::from_gbps(1_000);
    let res_info = ResInfo {
        src_as: me,
        res_id: ResId(0),
        bw: BwClass::from_bandwidth_ceil(bw),
        exp_t: Instant::from_secs(300),
        ver: 0,
    };
    let hop = HopField::new(IN.0, EG.0);
    let req = SegSetupReq {
        request_id: 0,
        deadline: Instant::MAX,
        starts_at: Instant::EPOCH,
        res_info,
        demand: bw,
        min_bw: Bandwidth::ZERO,
        path: vec![(me, hop)],
        grants: vec![],
    };
    let (granted, _) = c.segr_admit_hop(&req, 0, bw, Instant::EPOCH).expect("SegR admitted");
    c.segr_finalize_hop(&res_info, hop, 0, 1, granted, Instant::EPOCH, Instant::EPOCH);
    (c, res_info.key())
}

/// Admits EERs `ids` of 1 kbps each on the SegR, expiring at `exp`.
fn admit_eers(c: &mut CServ, segr: ReservationKey, ids: std::ops::Range<u32>, exp: Instant) {
    for id in ids {
        let req = EerSetupReq {
            request_id: u64::from(id) + 1,
            deadline: Instant::MAX,
            res_info: ResInfo {
                src_as: c.isd_as,
                res_id: ResId(1 + id),
                bw: BwClass(1),
                exp_t: exp,
                ver: 0,
            },
            eer_info: HOSTS,
            demand: Bandwidth::from_kbps(1),
            path: vec![(c.isd_as, HopField::new(IN.0, EG.0))],
            junctions: vec![],
            segr_ids: vec![segr],
        };
        c.eer_admit_hop(&req, 0, Instant::EPOCH).expect("EER admitted");
    }
}

/// A sweep costs what is due, whatever is live: the same 100 expiring
/// allocations are the same work beside 1,500, 6,000 or 60,000 live EERs
/// on the same SegR.
#[test]
fn gc_work_is_independent_of_the_live_eer_population() {
    const DUE: u32 = 100;
    let mut scanned = Vec::new();
    for live in [1_500u32, 6_000, 60_000] {
        let (mut c, segr) = cserv_with_segr();
        admit_eers(&mut c, segr, 0..live, Instant::from_secs(200));
        admit_eers(&mut c, segr, live..live + DUE, Instant::from_secs(16));
        let stats = c.gc(Instant::from_secs(20));
        let usage = &c.store().segr(segr).unwrap().usage;
        assert_eq!(usage.eer_count(), live as usize);
        assert_eq!(usage.allocated(), Bandwidth::from_kbps(u64::from(live)));
        assert_eq!(c.replay_cache_entries(), (0, live as usize));
        scanned.push(stats.scanned);
    }
    // One allocation entry and one cached verdict per due EER.
    assert_eq!(scanned, vec![2 * DUE as usize; 3]);
}

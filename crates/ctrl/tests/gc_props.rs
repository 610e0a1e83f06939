//! Differential test of the expiry-wheel GC: a random interleaving of EER
//! setups, renewals and refusals (rolled back), SegR setups, renewals,
//! activations and teardowns, crash recoveries, clock steps and `gc` runs
//! is applied to a real CServ network and to a reference model that
//! expires by *scanning everything* — the algorithm the wheels replaced.
//! After every `gc`, every observable count of every CServ must equal the
//! model's.

use colibri_base::{Bandwidth, Duration, HostAddr, Instant, IsdAsId, ReservationKey};
use colibri_ctrl::{
    activate_segr, renew_eer, renew_segr, setup_eer, setup_segr, teardown_segr, CservConfig,
    CservRegistry,
};
use colibri_topology::gen::sample_two_isd;
use colibri_topology::{stitch, FullPath, Segment};
use colibri_wire::EerInfo;
use proptest::prelude::*;
use std::collections::BTreeMap;

const HOSTS: EerInfo = EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) };
const RENEWAL_MIN_INTERVAL: Duration = Duration::from_secs(1);

/// Clock steps in ms: zero and sub-slot steps (two `gc` runs in one 1 s
/// slot), slot boundaries, and steps skipping several slots up to more
/// than two EER lifetimes.
const STEPS_MS: [u64; 11] = [0, 1, 400, 999, 1_000, 1_700, 3_000, 5_000, 9_000, 17_000, 40_000];

struct SegrModel {
    hops: Vec<IsdAsId>,
    exp: Instant,
    pending: Option<(u8, Instant)>,
    /// The on-path ASes still hold their records.
    records_live: bool,
    /// The initiator still holds its owned record.
    owned_live: bool,
}

struct Alloc {
    segr: ReservationKey,
    eer: ReservationKey,
    bw: u64,
    exp: Instant,
}

struct EerModel {
    hops: Vec<IsdAsId>,
    /// Expiries of the versions granted.
    versions: Vec<Instant>,
}

/// What the CServs must hold, maintained by full scans.
#[derive(Default)]
struct Model {
    segrs: BTreeMap<ReservationKey, SegrModel>,
    allocs: Vec<Alloc>,
    eers: BTreeMap<ReservationKey, EerModel>,
    /// Deadlines of the memoized SegR / EER verdicts, per AS.
    seg_verdicts: BTreeMap<IsdAsId, Vec<Instant>>,
    eer_verdicts: BTreeMap<IsdAsId, Vec<Instant>>,
    /// Last finalized renewal per (AS, EER).
    renewal_times: BTreeMap<(IsdAsId, ReservationKey), Instant>,
}

impl Model {
    fn segr_granted(&mut self, key: ReservationKey, seg: &Segment, exp: Instant) {
        let hops: Vec<IsdAsId> = seg.hops.iter().map(|h| h.isd_as).collect();
        for &hop in &hops {
            self.seg_verdicts.entry(hop).or_default().push(exp);
        }
        self.segrs.insert(
            key,
            SegrModel { hops, exp, pending: None, records_live: true, owned_live: true },
        );
    }

    fn eer_granted(
        &mut self,
        key: ReservationKey,
        path: &FullPath,
        segrs: &[ReservationKey],
        bw: Bandwidth,
        exp: Instant,
    ) {
        let hops: Vec<IsdAsId> = path.hops.iter().map(|h| h.isd_as).collect();
        for &hop in &hops {
            self.eer_verdicts.entry(hop).or_default().push(exp);
        }
        for &segr in segrs {
            self.allocs.push(Alloc { segr, eer: key, bw: bw.as_bps(), exp });
        }
        self.eers.entry(key).or_insert(EerModel { hops, versions: Vec::new() }).versions.push(exp);
    }

    /// The full-scan reference GC.
    fn gc(&mut self, now: Instant) {
        for s in self.segrs.values_mut() {
            s.records_live &= s.pending.is_some() || s.exp > now;
            s.owned_live &= s.exp > now;
        }
        let segrs = &self.segrs;
        self.allocs.retain(|a| a.exp > now && segrs[&a.segr].records_live);
        for e in self.eers.values_mut() {
            e.versions.retain(|&exp| exp > now);
        }
        for verdicts in self.seg_verdicts.values_mut().chain(self.eer_verdicts.values_mut()) {
            verdicts.retain(|&exp| exp > now);
        }
        self.renewal_times.retain(|_, last| now.saturating_since(*last) < RENEWAL_MIN_INTERVAL);
    }

    fn recover(&mut self, at: IsdAsId, now: Instant) {
        self.seg_verdicts.remove(&at);
        self.eer_verdicts.remove(&at);
        self.renewal_times
            .retain(|(a, _), last| *a != at || now.saturating_since(*last) < RENEWAL_MIN_INTERVAL);
    }

    /// Asserts that every CServ holds exactly what the model holds.
    fn check(&self, reg: &CservRegistry, now: Instant) {
        for id in reg.ids() {
            let cserv = reg.get(id).unwrap();
            let store = cserv.store();
            let here = |s: &&SegrModel| s.hops.contains(&id);
            let records: Vec<_> =
                self.segrs.iter().filter(|(_, s)| s.records_live && here(s)).collect();
            assert_eq!(store.segr_count(), records.len(), "SegR records at {id} at {now}");
            for (key, _) in records {
                let mut charged: BTreeMap<ReservationKey, u64> = BTreeMap::new();
                for a in self.allocs.iter().filter(|a| a.segr == *key) {
                    let c = charged.entry(a.eer).or_default();
                    *c = (*c).max(a.bw);
                }
                let usage = &store.segr(*key).expect("modelled record exists").usage;
                let allocated = Bandwidth::from_bps(charged.values().sum());
                assert_eq!(usage.allocated(), allocated, "allocated on {key} at {id} at {now}");
                assert_eq!(usage.eer_count(), charged.len(), "EERs on {key} at {id} at {now}");
            }
            let owned_segrs =
                self.segrs.iter().filter(|(k, s)| s.owned_live && k.src_as == id).count();
            assert_eq!(store.owned_segrs().count(), owned_segrs, "owned SegRs at {id} at {now}");
            let mut owned_eers = 0;
            for (key, e) in &self.eers {
                let live = !e.versions.is_empty();
                if key.src_as == id {
                    let versions = store.owned_eer(*key).map_or(0, |o| o.versions.len());
                    assert_eq!(versions, e.versions.len(), "versions of {key} at {now}");
                    assert_eq!(store.eer_segrs(*key).is_some(), live, "request of {key} at {now}");
                    owned_eers += usize::from(live);
                }
                if e.hops.last() == Some(&id) {
                    assert_eq!(store.terminating_eer(*key).is_some(), live, "{key} at {now}");
                }
            }
            assert_eq!(store.owned_eer_count(), owned_eers, "owned EERs at {id} at {now}");
            let verdicts = |m: &BTreeMap<IsdAsId, Vec<Instant>>| m.get(&id).map_or(0, Vec::len);
            assert_eq!(
                cserv.replay_cache_entries(),
                (verdicts(&self.seg_verdicts), verdicts(&self.eer_verdicts)),
                "replay caches at {id} at {now}"
            );
            let limited = self.renewal_times.keys().filter(|(a, _)| *a == id).count();
            assert_eq!(cserv.renewal_rate_entries(), limited, "rate-limit entries at {id} at {now}");
            cserv.admission().audit().unwrap_or_else(|e| panic!("audit at {id} at {now}: {e}"));
        }
    }
}

proptest! {
    #[test]
    fn wheel_gc_equals_full_scan_reference(
        ops in prop::collection::vec((0u8..12, 0usize..1000, 0usize..STEPS_MS.len()), 20..70),
    ) {
        let s = sample_two_isd();
        // SegRs short-lived enough to expire — or be renewed just in time
        // — within a run.
        let cfg = CservConfig { segr_lifetime: Duration::from_secs(90), ..CservConfig::default() };
        let mut reg = CservRegistry::provision(&s.topo, cfg);
        let ids = reg.ids();
        let up = s.segments.up_segments(s.leaf_a, s.core_11)[0].clone();
        let core = s.segments.core_segments(s.core_11, s.core_21)[0].clone();
        let down = s.segments.down_segments(s.core_21, s.leaf_d)[0].clone();
        let long_path = stitch(&[up.clone(), core.clone(), down.clone()]).unwrap();
        let short_path = stitch(std::slice::from_ref(&up)).unwrap();
        let mut model = Model::default();
        let mut now = Instant::from_secs(1);

        // The three SegRs the long path rides on; the last is the
        // narrowest, so an over-large EER is admitted upstream, refused
        // downstream and rolled back.
        let mut base = Vec::new();
        for (seg, gbps) in [(&up, 2), (&core, 2), (&down, 1)] {
            let g = setup_segr(&mut reg, seg, Bandwidth::from_gbps(gbps), Bandwidth::from_mbps(1), now)
                .expect("base SegR");
            model.segr_granted(g.key, seg, g.exp);
            base.push(g.key);
        }
        // Extra SegRs over the up segment (set up and torn down by the
        // ops), and every EER ever granted with the path and SegRs it uses.
        let mut extras: Vec<ReservationKey> = Vec::new();
        let mut eers: Vec<(ReservationKey, bool)> = Vec::new();

        for (op, pick, step) in ops {
            let mbps = Bandwidth::from_mbps(1 + (pick % 40) as u64);
            match op {
                // EER over the long path; every tenth asks for more than
                // the down SegR has.
                0 | 1 => {
                    let bw = if pick % 10 == 0 { Bandwidth::from_mbps(1_500) } else { mbps };
                    if let Ok(g) = setup_eer(&mut reg, &long_path, &base, HOSTS, bw, now) {
                        model.eer_granted(g.key, &long_path, &base, bw, g.exp);
                        eers.push((g.key, true));
                    }
                }
                // EER over one extra SegR.
                2 if !extras.is_empty() => {
                    let segr = [extras[pick % extras.len()]];
                    if let Ok(g) = setup_eer(&mut reg, &short_path, &segr, HOSTS, mbps, now) {
                        model.eer_granted(g.key, &short_path, &segr, mbps, g.exp);
                        eers.push((g.key, false));
                    }
                }
                // EER renewal (refused when rate-limited, expired, or its
                // SegR is gone).
                3 | 4 if !eers.is_empty() => {
                    let (key, long) = eers[pick % eers.len()];
                    if let Ok(g) = renew_eer(&mut reg, key, mbps, now) {
                        let path = if long { &long_path } else { &short_path };
                        let segrs = reg.get(key.src_as).unwrap().store().eer_segrs(key).unwrap().to_vec();
                        model.eer_granted(key, path, &segrs, mbps, g.exp);
                        for hop in &path.hops {
                            model.renewal_times.insert((hop.isd_as, key), now);
                        }
                    }
                }
                // SegR renewal, left pending.
                5 => {
                    let key = base[pick % base.len()];
                    if model.segrs[&key].pending.is_none() {
                        let bw = Bandwidth::from_gbps(1 + (pick % 2) as u64);
                        if let Ok(g) = renew_segr(&mut reg, key, bw, Bandwidth::from_mbps(1), now) {
                            let m = model.segrs.get_mut(&key).unwrap();
                            m.pending = Some((g.ver, g.exp));
                            for &hop in &m.hops {
                                model.seg_verdicts.entry(hop).or_default().push(g.exp);
                            }
                        }
                    }
                }
                // Activation of a pending SegR renewal.
                6 => {
                    let key = base[pick % base.len()];
                    if let Some((ver, exp)) = model.segrs[&key].pending {
                        if activate_segr(&mut reg, key, ver, now).is_ok() {
                            let m = model.segrs.get_mut(&key).unwrap();
                            m.exp = exp;
                            m.pending = None;
                        }
                    }
                }
                7 => {
                    let g = setup_segr(&mut reg, &up, Bandwidth::from_mbps(100), Bandwidth::from_mbps(1), now);
                    if let Ok(g) = g {
                        model.segr_granted(g.key, &up, g.exp);
                        extras.push(g.key);
                    }
                }
                8 if !extras.is_empty() => {
                    let key = extras.swap_remove(pick % extras.len());
                    if teardown_segr(&mut reg, key).is_ok() {
                        let m = model.segrs.get_mut(&key).unwrap();
                        m.records_live = false;
                        m.owned_live = false;
                        model.allocs.retain(|a| a.segr != key);
                    }
                }
                9 => {
                    let at = ids[pick % ids.len()];
                    reg.get_mut(at).unwrap().recover(now).expect("consistent store");
                    model.recover(at, now);
                }
                // Everything else: let time pass and collect.
                _ => {
                    now += Duration::from_millis(STEPS_MS[step]);
                    for id in &ids {
                        reg.get_mut(*id).unwrap().gc(now);
                    }
                    model.gc(now);
                    model.check(&reg, now);
                }
            }
            // Half the steps happen without a `gc`.
            if pick % 2 == 0 {
                now += Duration::from_millis(STEPS_MS[step] / 2);
            }
        }
        // Long after everything has expired, nothing is left anywhere —
        // except SegRs stuck behind a never-activated renewal.
        now += Duration::from_secs(700);
        for id in &ids {
            reg.get_mut(*id).unwrap().gc(now);
        }
        model.gc(now);
        model.check(&reg, now);
        prop_assert!(model.allocs.is_empty() && model.eers.values().all(|e| e.versions.is_empty()));
    }
}

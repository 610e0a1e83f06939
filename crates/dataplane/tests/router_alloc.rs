//! The border router allocates only its answer: `process_batch` makes
//! exactly one heap allocation per call — the returned verdicts — at every
//! batch length, whatever the mix of EER, SegR and dropped packets, and
//! `process` makes none. A counting global allocator (`alloc_counter`), in
//! this test binary only, counts the allocations of the calling thread.

use colibri_base::{Duration, HostAddr, Instant, IsdAsId, ResId};
use colibri_crypto::{Cmac, Epoch, SecretValueGen};
use colibri_ctrl::master_secret_for;
use colibri_dataplane::{BorderRouter, RouterConfig, RouterVerdict};
use colibri_wire::mac::{eer_hvf, hop_auth, segr_token};
use colibri_wire::{EerInfo, HopField, PacketBuilder, PacketViewMut, ResInfo};

mod alloc_counter;
use alloc_counter::allocations_in;

const AS_ID: IsdAsId = IsdAsId::new(1, 5);
const NOW: Instant = Instant::from_secs(1000);
const PATH: [HopField; 3] = [HopField::new(0, 1), HopField::new(2, 3), HopField::new(4, 0)];

fn k_i() -> Cmac {
    SecretValueGen::new(&master_secret_for(AS_ID)).secret_value(Epoch::containing(NOW)).cmac()
}

fn res_info(res_id: u32, exp: Instant) -> ResInfo {
    ResInfo {
        src_as: IsdAsId::new(1, 10),
        res_id: ResId(res_id),
        bw: colibri_base::BwClass(30),
        exp_t: exp,
        ver: 0,
    }
}

/// An authentic EER packet at hop 1, its timestamp `age` ns old.
fn eer(res_id: u32, age: u64, exp: Instant) -> Vec<u8> {
    let ri = res_info(res_id, exp);
    let info = EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) };
    let ts = ri.exp_t.as_nanos().saturating_sub(NOW.as_nanos()) + age;
    let mut pkt = PacketBuilder::eer(ri, info).path(PATH).ts(ts).build(&[0xAB; 40]).unwrap();
    let size = pkt.len();
    let mut v = PacketViewMut::parse(&mut pkt).unwrap();
    v.set_hvf(1, eer_hvf(&hop_auth(&k_i(), &ri, &info, PATH[1]), ts, size));
    v.set_curr_hop(1);
    pkt
}

/// An authentic SegR control packet at hop 1.
fn segr(res_id: u32) -> Vec<u8> {
    let ri = res_info(res_id, NOW + Duration::from_secs(10));
    let ts = ri.exp_t.as_nanos() - NOW.as_nanos();
    let mut pkt = PacketBuilder::segr(ri).control().path(PATH).ts(ts).build(b"ctl").unwrap();
    let mut v = PacketViewMut::parse(&mut pkt).unwrap();
    v.set_hvf(1, segr_token(&k_i(), &ri, PATH[1]));
    v.set_curr_hop(1);
    pkt
}

/// The traffic mixes: packet `i` of `round`, each EER packet distinct so
/// the replay filter forwards it.
#[derive(Clone, Copy, Debug)]
enum Mix {
    Eer,
    Segr,
    /// EER, SegR, a forged HVF, garbage and an expired reservation.
    MixedWithDrops,
}

fn packet(mix: Mix, round: u64, i: usize) -> Vec<u8> {
    let fresh = NOW + Duration::from_secs(10);
    let age = round * 1_000 + i as u64;
    match (mix, i % 5) {
        (Mix::Eer, _) | (Mix::MixedWithDrops, 0) => eer(i as u32 % 16, age, fresh),
        (Mix::Segr, _) | (Mix::MixedWithDrops, 1) => segr(i as u32 % 16),
        (_, 2) => {
            let mut pkt = eer(3, age, fresh);
            let mut v = PacketViewMut::parse(&mut pkt).unwrap();
            let mut hvf = v.hvf(1);
            hvf[0] ^= 1;
            v.set_hvf(1, hvf);
            pkt
        }
        (_, 3) => vec![0xFF; 48],
        _ => eer(4, age, NOW.saturating_sub(Duration::from_secs(1))),
    }
}

fn router() -> BorderRouter {
    BorderRouter::new(AS_ID, &master_secret_for(AS_ID), RouterConfig::default())
}

#[test]
fn process_batch_allocates_only_its_verdicts() {
    for mix in [Mix::Eer, Mix::Segr, Mix::MixedWithDrops] {
        for len in [1, 7, 8, 9, 32, 64] {
            let mut r = router();
            for round in 0..4 {
                let mut bufs: Vec<Vec<u8>> = (0..len).map(|i| packet(mix, round, i)).collect();
                let mut refs: Vec<&mut [u8]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
                let mut verdicts = Vec::new();
                let allocations = allocations_in(|| verdicts = r.process_batch(&mut refs, NOW));
                assert_eq!(verdicts.len(), len);
                if matches!(mix, Mix::Eer | Mix::Segr) {
                    assert!(verdicts.iter().all(|v| !matches!(v, RouterVerdict::Drop(_))));
                }
                assert_eq!(allocations, 1, "{mix:?} × {len}, round {round}: heap allocations");
            }
        }
    }
}

#[test]
fn process_allocates_nothing() {
    for mix in [Mix::Eer, Mix::Segr, Mix::MixedWithDrops] {
        let mut r = router();
        let mut bufs: Vec<Vec<u8>> = (0..64).map(|i| packet(mix, 0, i)).collect();
        let allocations = allocations_in(|| {
            for buf in &mut bufs {
                r.process(buf, NOW);
            }
        });
        assert_eq!(allocations, 0, "{mix:?}: heap allocations over 64 packets");
    }
}

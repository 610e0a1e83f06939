//! Stamping allocates nothing: after warm-up, `Gateway::process_into`
//! into a recycled buffer makes zero heap allocations per packet, at
//! every path length. A counting global allocator (`alloc_counter`), in
//! this test binary only, counts the allocations of the calling thread.

use colibri_base::{Bandwidth, Duration, HostAddr, Instant, IsdAsId, ResId, ReservationKey};
use colibri_crypto::Key;
use colibri_ctrl::{OwnedEer, OwnedEerVersion};
use colibri_dataplane::{Gateway, GatewayConfig};
use colibri_wire::{EerInfo, HopField};

mod alloc_counter;
use alloc_counter::allocations_in;

fn owned(hops: usize, exp: Instant) -> OwnedEer {
    OwnedEer {
        key: ReservationKey::new(IsdAsId::new(1, 10), ResId(1)),
        eer_info: EerInfo { src_host: HostAddr(7), dst_host: HostAddr(8) },
        path_ases: (0..hops).map(|i| IsdAsId::new(1, 10 + i as u32)).collect(),
        hop_fields: (0..hops).map(|i| HopField::new(i as u16, i as u16 + 1)).collect(),
        versions: vec![OwnedEerVersion {
            ver: 0,
            bw: Bandwidth::from_gbps(10),
            exp,
            hop_auths: (0..hops).map(|h| Key([h as u8 ^ 0x5c; 16])).collect(),
        }],
    }
}

#[test]
fn stamping_a_packet_allocates_nothing() {
    let now = Instant::from_secs(100);
    for hops in [1, 4, 16, 32] {
        let mut gw =
            Gateway::new(GatewayConfig { burst: Duration::from_secs(3600), ..Default::default() });
        gw.install(&owned(hops, Instant::from_secs(4000)), now);
        let payload = [0u8; 64];
        let mut buf = Vec::new();
        let mut stamp = |i: u64| {
            let t = now + Duration::from_nanos(i);
            gw.process_into(HostAddr(7), ResId(1), &payload, t, &mut buf).expect("stamp");
        };
        (0..16).for_each(&mut stamp);
        let allocations = allocations_in(|| (16..1_016).for_each(&mut stamp));
        assert_eq!(allocations, 0, "{hops} hops: heap allocations over 1,000 stamped packets");
    }
}

//! Property-based tests for the Colibri wire format.

use colibri_base::{BwClass, HostAddr, Instant, IsdAsId, ResId};
use colibri_wire::{
    header_len, EerInfo, HopField, PacketBuilder, PacketView, PacketViewMut, ResInfo, HVF_LEN,
    MAX_HOPS,
};
use colibri_crypto::Block;
use colibri_wire::mac::{hop_auth_blocks, hvf_block, segr_blocks};
use proptest::prelude::*;

fn arb_res_info() -> impl Strategy<Value = ResInfo> {
    (any::<u16>(), any::<u32>(), any::<u32>(), any::<u8>(), any::<u32>(), any::<u8>()).prop_map(
        |(isd, asn, rid, bw, exp, ver)| ResInfo {
            src_as: IsdAsId::new(isd, asn),
            res_id: ResId(rid),
            bw: BwClass(bw),
            exp_t: Instant::from_secs(exp as u64),
            ver,
        },
    )
}

fn arb_path() -> impl Strategy<Value = Vec<HopField>> {
    prop::collection::vec((any::<u16>(), any::<u16>()), 1..=MAX_HOPS)
        .prop_map(|v| v.into_iter().map(|(i, e)| HopField::new(i, e)).collect())
}

fn arb_eer_info() -> impl Strategy<Value = Option<EerInfo>> {
    prop::option::of((any::<u32>(), any::<u32>()).prop_map(|(s, d)| EerInfo {
        src_host: HostAddr(s),
        dst_host: HostAddr(d),
    }))
}

/// The canonical bytes `ResInfo ‖ [EERInfo ‖] (In_i, Eg_i)` of Eq. 3
/// (`eer` is `None`) or Eq. 4, field by field.
fn input_bytes(res: &ResInfo, eer: Option<&EerInfo>, hop: HopField) -> Vec<u8> {
    let mut m = res.src_as.to_u64().to_be_bytes().to_vec();
    m.extend(res.res_id.0.to_be_bytes());
    m.extend([res.bw.0, res.ver]);
    m.extend(res.exp_secs().to_be_bytes());
    if let Some(e) = eer {
        m.extend(e.src_host.0.to_be_bytes());
        m.extend(e.dst_host.0.to_be_bytes());
    }
    m.extend(hop.ingress.0.to_be_bytes());
    m.extend(hop.egress.0.to_be_bytes());
    m
}

/// `msg` (its length not a multiple of 16) as CMAC blocks, `10*`-padded.
fn padded(msg: &[u8]) -> Vec<Block> {
    assert!(msg.len() % 16 != 0);
    let mut bytes = msg.to_vec();
    bytes.push(0x80);
    bytes.resize(msg.len().div_ceil(16) * 16, 0);
    bytes.chunks_exact(16).map(|b| Block::from_be_bytes(b.try_into().unwrap())).collect()
}

proptest! {
    /// The integer-built MAC blocks of Eq. 3, Eq. 4 and Eq. 6 are the
    /// `10*`-padded canonical bytes, over arbitrary fields.
    #[test]
    fn mac_blocks_equal_padded_canonical_bytes(
        res in arb_res_info(),
        hosts in (any::<u32>(), any::<u32>()),
        hop in (any::<u16>(), any::<u16>()),
        ts in any::<u64>(),
        pkt_size in any::<u32>(),
    ) {
        let eer = EerInfo { src_host: HostAddr(hosts.0), dst_host: HostAddr(hosts.1) };
        let hop = HopField::new(hop.0, hop.1);
        prop_assert_eq!(segr_blocks(&res, hop).to_vec(), padded(&input_bytes(&res, None, hop)));
        prop_assert_eq!(
            hop_auth_blocks(&res, &eer, hop).to_vec(),
            padded(&input_bytes(&res, Some(&eer), hop))
        );
        let hvf_bytes = [&ts.to_be_bytes()[..], &pkt_size.to_be_bytes()].concat();
        prop_assert_eq!(vec![hvf_block(ts, pkt_size as usize)], padded(&hvf_bytes));
    }

    /// Every packet the builder can produce parses back to identical fields.
    #[test]
    fn build_parse_roundtrip(
        res in arb_res_info(),
        path in arb_path(),
        eer in arb_eer_info(),
        ts in any::<u64>(),
        control in any::<bool>(),
        payload in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut b = match eer {
            Some(info) => PacketBuilder::eer(res, info),
            None => PacketBuilder::segr(res),
        };
        if control { b = b.control(); }
        let pkt = b.path(path.clone()).ts(ts).build(&payload).unwrap();
        let v = PacketView::parse(&pkt).unwrap();
        prop_assert_eq!(v.res_info(), res);
        prop_assert_eq!(v.eer_info(), eer);
        prop_assert_eq!(v.is_eer(), eer.is_some());
        prop_assert_eq!(v.is_control(), control);
        prop_assert_eq!(v.ts(), ts);
        prop_assert_eq!(v.n_hops(), path.len());
        prop_assert_eq!(v.hops().collect::<Vec<_>>(), path.clone());
        prop_assert_eq!(v.payload(), &payload[..]);
        prop_assert_eq!(v.pkt_size(), header_len(path.len(), eer.is_some()) + payload.len());
    }

    /// Parsing never panics on arbitrary bytes — it either succeeds on a
    /// well-formed buffer or returns an error.
    #[test]
    fn parse_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let _ = PacketView::parse(&bytes);
    }

    /// Writing HVFs and the timestamp touches no other field.
    #[test]
    fn hvf_writes_are_isolated(
        res in arb_res_info(),
        path in arb_path(),
        ts in any::<u64>(),
        idx_seed in any::<usize>(),
        hvf in any::<[u8; HVF_LEN]>(),
        payload in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let pkt = PacketBuilder::segr(res).path(path.clone()).build(&payload).unwrap();
        let mut buf = pkt;
        let i = idx_seed % path.len();
        {
            let mut m = PacketViewMut::parse(&mut buf).unwrap();
            m.set_hvf(i, hvf);
            m.set_ts(ts);
        }
        let v = PacketView::parse(&buf).unwrap();
        prop_assert_eq!(v.res_info(), res);
        prop_assert_eq!(v.hops().collect::<Vec<_>>(), path.clone());
        prop_assert_eq!(v.payload(), &payload[..]);
        prop_assert_eq!(v.hvf(i), hvf);
        prop_assert_eq!(v.ts(), ts);
        for j in 0..path.len() {
            if j != i {
                prop_assert_eq!(v.hvf(j), [0u8; HVF_LEN]);
            }
        }
    }

    /// A packet truncated anywhere inside its header fails to parse.
    #[test]
    fn truncation_detected(
        res in arb_res_info(),
        path in arb_path(),
        cut_seed in any::<usize>(),
    ) {
        let pkt = PacketBuilder::segr(res).path(path.clone()).build(b"").unwrap();
        let hlen = header_len(path.len(), false);
        let cut = cut_seed % hlen;
        prop_assert!(PacketView::parse(&pkt[..cut]).is_err());
    }
}

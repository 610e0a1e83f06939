//! Canonical MAC-input encodings and tag computations (paper Eqs. 3–6).
//!
//! Both planes must agree bit-for-bit on what gets MACed: the control plane
//! computes SegR tokens and EER hop authenticators during reservation
//! setup, and border routers *recompute* them statelessly for every packet.
//! Keeping the encodings here, next to the wire format, guarantees the two
//! sides cannot drift.
//!
//! ```text
//! V_i^(S) = MAC_{K_i}(ResInfo || (In_i, Eg_i))[0..4]          (Eq. 3)
//! σ_i     = MAC_{K_i}(ResInfo || EERInfo || (In_i, Eg_i))     (Eq. 4)
//! V_i^(E) = MAC_{σ_i}(Ts || PktSize)[0..4]                    (Eq. 6)
//! ```
//!
//! Note the absence of chaining between hops: unlike SCION/EPIC hop fields,
//! Colibri tokens include the globally unique `(SrcAS, ResId)` pair, which
//! already rules out path splicing (paper §4.5).

use crate::packet::{EerInfo, HopField, ResInfo, HVF_LEN};
use colibri_crypto::{Cmac, Key};

/// Length of the canonical `ResInfo` encoding.
pub const RES_INFO_ENC_LEN: usize = 18;
/// Length of the canonical hop-field encoding.
pub const HOP_ENC_LEN: usize = 4;
/// Length of the Eq. 3 MAC input (`ResInfo || hop`).
pub const SEGR_INPUT_LEN: usize = RES_INFO_ENC_LEN + HOP_ENC_LEN;
/// Length of the Eq. 4 MAC input (`ResInfo || EERInfo || hop`).
pub const HOP_AUTH_INPUT_LEN: usize = RES_INFO_ENC_LEN + 8 + HOP_ENC_LEN;

/// Encodes `ResInfo` exactly as it is authenticated.
pub fn encode_res_info(res: &ResInfo, out: &mut [u8; RES_INFO_ENC_LEN]) {
    out[0..8].copy_from_slice(&res.src_as.to_u64().to_be_bytes());
    out[8..12].copy_from_slice(&res.res_id.0.to_be_bytes());
    out[12] = res.bw.0;
    out[13] = res.ver;
    out[14..18].copy_from_slice(&res.exp_secs().to_be_bytes());
}

fn encode_hop(hop: HopField, out: &mut [u8; HOP_ENC_LEN]) {
    out[0..2].copy_from_slice(&hop.ingress.0.to_be_bytes());
    out[2..4].copy_from_slice(&hop.egress.0.to_be_bytes());
}

/// Encodes the full Eq. 3 MAC input `ResInfo || (In_i, Eg_i)`: exactly
/// the set of packet bits the SegR token authenticates.
pub fn segr_input(res: &ResInfo, hop: HopField) -> [u8; SEGR_INPUT_LEN] {
    let mut msg = [0u8; SEGR_INPUT_LEN];
    encode_res_info(res, (&mut msg[..RES_INFO_ENC_LEN]).try_into().unwrap());
    encode_hop(hop, (&mut msg[RES_INFO_ENC_LEN..]).try_into().unwrap());
    msg
}

/// Encodes the full Eq. 4 MAC input `ResInfo || EERInfo || (In_i, Eg_i)`:
/// precisely the authenticated tuple from which σ_i is derived.
pub fn hop_auth_input(res: &ResInfo, eer: &EerInfo, hop: HopField) -> [u8; HOP_AUTH_INPUT_LEN] {
    let mut msg = [0u8; HOP_AUTH_INPUT_LEN];
    encode_res_info(res, (&mut msg[..RES_INFO_ENC_LEN]).try_into().unwrap());
    msg[RES_INFO_ENC_LEN..RES_INFO_ENC_LEN + 4].copy_from_slice(&eer.src_host.0.to_be_bytes());
    msg[RES_INFO_ENC_LEN + 4..RES_INFO_ENC_LEN + 8].copy_from_slice(&eer.dst_host.0.to_be_bytes());
    encode_hop(hop, (&mut msg[RES_INFO_ENC_LEN + 8..]).try_into().unwrap());
    msg
}

/// Computes the SegR token `V_i^(S)` (Eq. 3) under the AS secret `k_i`.
pub fn segr_token(k_i: &Cmac, res: &ResInfo, hop: HopField) -> [u8; HVF_LEN] {
    segr_token_from_input(k_i, &segr_input(res, hop))
}

/// Eq. 3 over a pre-encoded input (see [`segr_input`]).
pub fn segr_token_from_input(k_i: &Cmac, input: &[u8; SEGR_INPUT_LEN]) -> [u8; HVF_LEN] {
    k_i.tag_truncated::<HVF_LEN>(input)
}

/// Computes the EER hop authenticator `σ_i` (Eq. 4) under the AS secret
/// `k_i`. Unlike the SegR token this is *not* truncated: σ_i doubles as a
/// reservation-specific key for the per-packet MAC.
pub fn hop_auth(k_i: &Cmac, res: &ResInfo, eer: &EerInfo, hop: HopField) -> Key {
    hop_auth_from_input(k_i, &hop_auth_input(res, eer, hop))
}

/// Eq. 4 over a pre-encoded input (see [`hop_auth_input`]).
pub fn hop_auth_from_input(k_i: &Cmac, input: &[u8; HOP_AUTH_INPUT_LEN]) -> Key {
    Key(k_i.tag(input))
}

/// Computes the per-packet hop validation field `V_i^(E)` (Eq. 6) from a
/// hop authenticator. `pkt_size` is the total packet size including the
/// Colibri header, which prevents header-only flooding (paper §4.8).
pub fn eer_hvf(sigma: &Key, ts: u64, pkt_size: usize) -> [u8; HVF_LEN] {
    let mut msg = [0u8; 12];
    msg[..8].copy_from_slice(&ts.to_be_bytes());
    msg[8..].copy_from_slice(&(pkt_size as u32).to_be_bytes());
    sigma.cmac().tag_truncated::<HVF_LEN>(&msg)
}

/// Computes `V_i^(E)` when the caller has a ready-made CMAC instance for
/// σ_i (gateways keep one per hop from install time; batched routers key
/// fresh instances eight at a time — both paths meet here).
pub fn eer_hvf_with(sigma_cmac: &Cmac, ts: u64, pkt_size: usize) -> [u8; HVF_LEN] {
    let mut msg = [0u8; 12];
    msg[..8].copy_from_slice(&ts.to_be_bytes());
    msg[8..].copy_from_slice(&(pkt_size as u32).to_be_bytes());
    sigma_cmac.tag_truncated::<HVF_LEN>(&msg)
}

/// Control-plane payload MAC: `MAC_{K_{AS_i→SrcAS}}(payload)` (paper §4.5).
pub fn control_payload_mac(key: &Key, payload: &[u8]) -> [u8; 16] {
    key.cmac().tag(payload)
}

/// Batched Eq. 3: four SegR tokens under one AS secret, computed with the
/// 4-wide interleaved CMAC ([`Cmac::tag4`]). Bit-identical to four
/// [`segr_token`] calls.
pub fn segr_token4(k_i: &Cmac, inputs: [(&ResInfo, HopField); 4]) -> [[u8; HVF_LEN]; 4] {
    let msgs: [[u8; SEGR_INPUT_LEN]; 4] = core::array::from_fn(|l| {
        let (res, hop) = inputs[l];
        segr_input(res, hop)
    });
    segr_token4_from_inputs(k_i, [&msgs[0], &msgs[1], &msgs[2], &msgs[3]])
}

/// Batched Eq. 3 over pre-encoded inputs (see [`segr_input`]).
pub fn segr_token4_from_inputs(
    k_i: &Cmac,
    inputs: [&[u8; SEGR_INPUT_LEN]; 4],
) -> [[u8; HVF_LEN]; 4] {
    let tags = k_i.tag4([inputs[0], inputs[1], inputs[2], inputs[3]]);
    tags.map(|t| t[..HVF_LEN].try_into().unwrap())
}

/// Batched Eq. 4: four hop authenticators under one AS secret — the
/// router's σ derivation for four packets at once. Bit-identical to four
/// [`hop_auth`] calls.
pub fn hop_auth4(k_i: &Cmac, inputs: [(&ResInfo, &EerInfo, HopField); 4]) -> [Key; 4] {
    let msgs: [[u8; HOP_AUTH_INPUT_LEN]; 4] = core::array::from_fn(|l| {
        let (res, eer, hop) = inputs[l];
        hop_auth_input(res, eer, hop)
    });
    hop_auth4_from_inputs(k_i, [&msgs[0], &msgs[1], &msgs[2], &msgs[3]])
}

/// Batched Eq. 4 over pre-encoded inputs (see [`hop_auth_input`]).
pub fn hop_auth4_from_inputs(k_i: &Cmac, inputs: [&[u8; HOP_AUTH_INPUT_LEN]; 4]) -> [Key; 4] {
    k_i.tag4([inputs[0], inputs[1], inputs[2], inputs[3]]).map(Key)
}

/// Batched Eq. 6: four per-packet HVFs under four *different* hop
/// authenticators, interleaving the key-dependent AES calls
/// ([`Cmac::tag4_short_multikey`]). The router uses it across four
/// packets (distinct σ per packet); the gateway uses it across four hops
/// of one packet (distinct σ per hop, shared `ts`/`pkt_size`).
/// Bit-identical to four [`eer_hvf`] calls.
pub fn eer_hvf4(sigmas: [&Key; 4], inputs: [(u64, usize); 4]) -> [[u8; HVF_LEN]; 4] {
    let mut msgs = [[0u8; 12]; 4];
    for l in 0..4 {
        let (ts, pkt_size) = inputs[l];
        msgs[l][..8].copy_from_slice(&ts.to_be_bytes());
        msgs[l][8..].copy_from_slice(&(pkt_size as u32).to_be_bytes());
    }
    let tags = Cmac::tag4_short_multikey(
        [&sigmas[0].0, &sigmas[1].0, &sigmas[2].0, &sigmas[3].0],
        [&msgs[0], &msgs[1], &msgs[2], &msgs[3]],
    );
    tags.map(|t| t[..HVF_LEN].try_into().unwrap())
}

/// Batched Eq. 6 over four *pre-expanded* σ CMAC instances
/// ([`Cmac::tag4_short_each`]). Skips all four key expansions and subkey
/// derivations, leaving exactly four AES block operations for four
/// packets. Bit-identical to four [`eer_hvf_with`]
/// calls and hence to [`eer_hvf4`] over the corresponding σ keys.
pub fn eer_hvf4_with(sigma_cmacs: [&Cmac; 4], inputs: [(u64, usize); 4]) -> [[u8; HVF_LEN]; 4] {
    let mut msgs = [[0u8; 12]; 4];
    for l in 0..4 {
        let (ts, pkt_size) = inputs[l];
        msgs[l][..8].copy_from_slice(&ts.to_be_bytes());
        msgs[l][8..].copy_from_slice(&(pkt_size as u32).to_be_bytes());
    }
    let tags =
        Cmac::tag4_short_each(sigma_cmacs, [&msgs[0], &msgs[1], &msgs[2], &msgs[3]]);
    tags.map(|t| t[..HVF_LEN].try_into().unwrap())
}

/// Batched Eq. 3 over eight pre-encoded inputs: two 4-wide interleaved
/// CMAC batches under one AS secret. Bit-identical to eight
/// [`segr_token_from_input`] calls.
pub fn segr_token8_from_inputs(
    k_i: &Cmac,
    inputs: [&[u8; SEGR_INPUT_LEN]; 8],
) -> [[u8; HVF_LEN]; 8] {
    let lo = segr_token4_from_inputs(k_i, [inputs[0], inputs[1], inputs[2], inputs[3]]);
    let hi = segr_token4_from_inputs(k_i, [inputs[4], inputs[5], inputs[6], inputs[7]]);
    core::array::from_fn(|l| if l < 4 { lo[l] } else { hi[l - 4] })
}

/// Batched Eq. 4 over eight pre-encoded inputs — the router's σ
/// derivation at double width. Bit-identical to eight
/// [`hop_auth_from_input`] calls.
pub fn hop_auth8_from_inputs(k_i: &Cmac, inputs: [&[u8; HOP_AUTH_INPUT_LEN]; 8]) -> [Key; 8] {
    let lo = hop_auth4_from_inputs(k_i, [inputs[0], inputs[1], inputs[2], inputs[3]]);
    let hi = hop_auth4_from_inputs(k_i, [inputs[4], inputs[5], inputs[6], inputs[7]]);
    core::array::from_fn(|l| if l < 4 { lo[l] } else { hi[l - 4] })
}

/// Batched Eq. 6: eight per-packet HVFs under eight *different* hop
/// authenticators, with the key expansions, subkey derivations, and final
/// block encryptions all running 8-wide ([`Cmac::tag8_short_multikey`]).
/// Bit-identical to eight [`eer_hvf`] calls.
pub fn eer_hvf8(sigmas: [&Key; 8], inputs: [(u64, usize); 8]) -> [[u8; HVF_LEN]; 8] {
    let mut msgs = [[0u8; 12]; 8];
    for l in 0..8 {
        let (ts, pkt_size) = inputs[l];
        msgs[l][..8].copy_from_slice(&ts.to_be_bytes());
        msgs[l][8..].copy_from_slice(&(pkt_size as u32).to_be_bytes());
    }
    let tags = Cmac::tag8_short_multikey(
        core::array::from_fn(|l| &sigmas[l].0),
        core::array::from_fn(|l| msgs[l].as_slice()),
    );
    tags.map(|t| t[..HVF_LEN].try_into().unwrap())
}

/// Batched Eq. 6 over eight *pre-expanded* σ CMAC instances
/// ([`Cmac::tag8_short_each`]) — exactly one 8-wide AES batch for eight
/// packets or eight hops. Bit-identical to eight
/// [`eer_hvf_with`] calls.
pub fn eer_hvf8_with(sigma_cmacs: [&Cmac; 8], inputs: [(u64, usize); 8]) -> [[u8; HVF_LEN]; 8] {
    let mut msgs = [[0u8; 12]; 8];
    for l in 0..8 {
        let (ts, pkt_size) = inputs[l];
        msgs[l][..8].copy_from_slice(&ts.to_be_bytes());
        msgs[l][8..].copy_from_slice(&(pkt_size as u32).to_be_bytes());
    }
    let tags = Cmac::tag8_short_each(sigma_cmacs, core::array::from_fn(|l| msgs[l].as_slice()));
    tags.map(|t| t[..HVF_LEN].try_into().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use colibri_base::{BwClass, HostAddr, Instant, IsdAsId, ResId};

    fn res() -> ResInfo {
        ResInfo {
            src_as: IsdAsId::new(3, 9),
            res_id: ResId(77),
            bw: BwClass(12),
            exp_t: Instant::from_secs(500),
            ver: 2,
        }
    }

    fn eer() -> EerInfo {
        EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) }
    }

    fn k() -> Cmac {
        Cmac::new(&[0x11; 16])
    }

    #[test]
    fn segr_token_depends_on_every_field() {
        let base = segr_token(&k(), &res(), HopField::new(1, 2));
        let mut r2 = res();
        r2.res_id = ResId(78);
        assert_ne!(segr_token(&k(), &r2, HopField::new(1, 2)), base);
        let mut r3 = res();
        r3.ver = 3;
        assert_ne!(segr_token(&k(), &r3, HopField::new(1, 2)), base);
        let mut r4 = res();
        r4.exp_t = Instant::from_secs(501);
        assert_ne!(segr_token(&k(), &r4, HopField::new(1, 2)), base);
        assert_ne!(segr_token(&k(), &res(), HopField::new(2, 1)), base);
        assert_ne!(segr_token(&Cmac::new(&[0x12; 16]), &res(), HopField::new(1, 2)), base);
    }

    #[test]
    fn hop_auth_binds_hosts() {
        let a = hop_auth(&k(), &res(), &eer(), HopField::new(1, 2));
        let mut e2 = eer();
        e2.dst_host = HostAddr(3);
        let b = hop_auth(&k(), &res(), &e2, HopField::new(1, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn hvf_binds_ts_and_size() {
        let sigma = hop_auth(&k(), &res(), &eer(), HopField::new(1, 2));
        let v = eer_hvf(&sigma, 1000, 64);
        assert_ne!(eer_hvf(&sigma, 1001, 64), v);
        assert_ne!(eer_hvf(&sigma, 1000, 65), v);
        // Cached-instance path agrees with the fresh path.
        assert_eq!(eer_hvf_with(&sigma.cmac(), 1000, 64), v);
    }

    #[test]
    fn two_step_construction_fig2() {
        // Figure 2: V_i = MAC_{σ_i}(..) where σ_i = MAC_{K_i}(..).
        // Verify that a router deriving σ_i on the fly gets the same HVF
        // the gateway computed from its stored σ_i.
        let k_i = k();
        let gateway_sigma = hop_auth(&k_i, &res(), &eer(), HopField::new(4, 7));
        let gateway_hvf = eer_hvf(&gateway_sigma, 42, 128);
        // Router side: recompute from scratch.
        let router_sigma = hop_auth(&k_i, &res(), &eer(), HopField::new(4, 7));
        assert_eq!(eer_hvf(&router_sigma, 42, 128), gateway_hvf);
    }

    #[test]
    fn batched_macs_match_scalar() {
        let k_i = k();
        let mut infos = Vec::new();
        for i in 0..4u32 {
            let mut r = res();
            r.res_id = ResId(100 + i);
            infos.push(r);
        }
        let hops = [HopField::new(1, 2), HopField::new(3, 4), HopField::new(5, 0), HopField::new(0, 7)];
        let e = eer();

        let seg4 = segr_token4(&k_i, core::array::from_fn(|l| (&infos[l], hops[l])));
        let auth4 = hop_auth4(&k_i, core::array::from_fn(|l| (&infos[l], &e, hops[l])));
        for l in 0..4 {
            assert_eq!(seg4[l], segr_token(&k_i, &infos[l], hops[l]), "segr lane {l}");
            assert_eq!(auth4[l], hop_auth(&k_i, &infos[l], &e, hops[l]), "auth lane {l}");
        }

        let ts_size = [(10u64, 64usize), (11, 65), (u64::MAX, 0), (0, 1500)];
        let hvf4 = eer_hvf4(core::array::from_fn(|l| &auth4[l]), ts_size);
        for l in 0..4 {
            assert_eq!(hvf4[l], eer_hvf(&auth4[l], ts_size[l].0, ts_size[l].1), "hvf lane {l}");
        }
    }

    #[test]
    fn from_input_variants_match_struct_variants() {
        let k_i = k();
        let r = res();
        let e = eer();
        let hop = HopField::new(4, 7);

        let seg_in = segr_input(&r, hop);
        assert_eq!(segr_token_from_input(&k_i, &seg_in), segr_token(&k_i, &r, hop));
        let auth_in = hop_auth_input(&r, &e, hop);
        assert_eq!(hop_auth_from_input(&k_i, &auth_in), hop_auth(&k_i, &r, &e, hop));

        // 4-wide from-input paths agree with the struct-level batch.
        let mut infos = Vec::new();
        for i in 0..4u32 {
            let mut ri = res();
            ri.res_id = ResId(200 + i);
            infos.push(ri);
        }
        let hops = [HopField::new(1, 2), HopField::new(3, 4), HopField::new(5, 0), HopField::new(0, 7)];
        let seg_ins: [[u8; SEGR_INPUT_LEN]; 4] =
            core::array::from_fn(|l| segr_input(&infos[l], hops[l]));
        assert_eq!(
            segr_token4_from_inputs(&k_i, [&seg_ins[0], &seg_ins[1], &seg_ins[2], &seg_ins[3]]),
            segr_token4(&k_i, core::array::from_fn(|l| (&infos[l], hops[l]))),
        );
        let auth_ins: [[u8; HOP_AUTH_INPUT_LEN]; 4] =
            core::array::from_fn(|l| hop_auth_input(&infos[l], &e, hops[l]));
        let sigmas = hop_auth4_from_inputs(
            &k_i,
            [&auth_ins[0], &auth_ins[1], &auth_ins[2], &auth_ins[3]],
        );
        assert_eq!(sigmas, hop_auth4(&k_i, core::array::from_fn(|l| (&infos[l], &e, hops[l]))));

        // Pre-expanded Eq. 6 path matches the key-expanding batch.
        let ts_size = [(10u64, 64usize), (11, 65), (u64::MAX, 0), (0, 1500)];
        let cmacs: Vec<Cmac> = sigmas.iter().map(|s| s.cmac()).collect();
        assert_eq!(
            eer_hvf4_with(core::array::from_fn(|l| &cmacs[l]), ts_size),
            eer_hvf4(core::array::from_fn(|l| &sigmas[l]), ts_size),
        );
    }

    #[test]
    fn eight_wide_variants_match_scalar() {
        let k_i = k();
        let e = eer();
        let mut infos = Vec::new();
        for i in 0..8u32 {
            let mut ri = res();
            ri.res_id = ResId(300 + i);
            infos.push(ri);
        }
        let hops: [HopField; 8] =
            core::array::from_fn(|l| HopField::new(l as u16, (l as u16 + 3) % 8));

        let seg_ins: [[u8; SEGR_INPUT_LEN]; 8] =
            core::array::from_fn(|l| segr_input(&infos[l], hops[l]));
        let seg8 = segr_token8_from_inputs(&k_i, core::array::from_fn(|l| &seg_ins[l]));
        let auth_ins: [[u8; HOP_AUTH_INPUT_LEN]; 8] =
            core::array::from_fn(|l| hop_auth_input(&infos[l], &e, hops[l]));
        let sigmas = hop_auth8_from_inputs(&k_i, core::array::from_fn(|l| &auth_ins[l]));
        for l in 0..8 {
            assert_eq!(seg8[l], segr_token(&k_i, &infos[l], hops[l]), "segr lane {l}");
            assert_eq!(sigmas[l], hop_auth(&k_i, &infos[l], &e, hops[l]), "auth lane {l}");
        }

        let ts_size: [(u64, usize); 8] =
            core::array::from_fn(|l| (40 + l as u64, 64 + 13 * l));
        let hvf8 = eer_hvf8(core::array::from_fn(|l| &sigmas[l]), ts_size);
        let cmacs: Vec<Cmac> = sigmas.iter().map(|s| s.cmac()).collect();
        let hvf8_with = eer_hvf8_with(core::array::from_fn(|l| &cmacs[l]), ts_size);
        for l in 0..8 {
            let scalar = eer_hvf(&sigmas[l], ts_size[l].0, ts_size[l].1);
            assert_eq!(hvf8[l], scalar, "hvf lane {l}");
            assert_eq!(hvf8_with[l], scalar, "hvf-with lane {l}");
        }
    }

    #[test]
    fn control_mac_distinguishes_payloads() {
        let key = Key([9; 16]);
        assert_ne!(control_payload_mac(&key, b"grant 5"), control_payload_mac(&key, b"grant 6"));
    }
}

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
use colibri_crypto::{Cmac, Key, ShortTagKey};

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

/// Computes `N` SegR tokens `V_i^(S)` (Eq. 3) under the AS secret `k_i`
/// over pre-encoded inputs (see [`segr_input`]), `N`-wide through the
/// interleaved CMAC ([`Cmac::tag_each`]). Every width costs the AES
/// blocks of `N` scalar [`segr_token`] calls and returns the same tokens.
#[inline]
pub fn segr_tokens<const N: usize>(
    k_i: &Cmac,
    inputs: [&[u8; SEGR_INPUT_LEN]; N],
) -> [[u8; HVF_LEN]; N] {
    k_i.tag_each(inputs.map(|m| m.as_slice())).map(truncate)
}

/// Computes `N` EER hop authenticators `σ_i` (Eq. 4) under the AS secret
/// `k_i` over pre-encoded inputs (see [`hop_auth_input`]) — the router's
/// σ derivation for `N` packets at once. Unlike the SegR token σ_i is
/// *not* truncated: it doubles as a reservation-specific key for the
/// per-packet MAC.
#[inline]
pub fn hop_auths<const N: usize>(k_i: &Cmac, inputs: [&[u8; HOP_AUTH_INPUT_LEN]; N]) -> [Key; N] {
    k_i.tag_each(inputs.map(|m| m.as_slice())).map(Key)
}

/// Computes `N` per-packet hop validation fields `V_i^(E)` (Eq. 6) under
/// `N` σ keys in either form of [`ShortTagKey`]: one `N`-wide AES batch
/// over pre-expanded [`Cmac`] instances, or `N` key expansions
/// interleaved with it over [`colibri_crypto::CompactKey`]s. The router
/// uses it across packets on the σ it has just expanded (distinct σ per
/// packet), the gateway across the hops of one packet on the compact σ it
/// stores (distinct σ per hop, shared `ts`/`pkt_size`). `pkt_size` is the
/// total packet size including the Colibri header, which prevents
/// header-only flooding (paper §4.8).
#[inline]
pub fn eer_hvfs<K: ShortTagKey, const N: usize>(
    sigmas: [&K; N],
    inputs: [(u64, usize); N],
) -> [[u8; HVF_LEN]; N] {
    let msgs = inputs.map(|(ts, pkt_size)| {
        let mut msg = [0u8; 12];
        msg[..8].copy_from_slice(&ts.to_be_bytes());
        msg[8..].copy_from_slice(&(pkt_size as u32).to_be_bytes());
        msg
    });
    K::short_tags(sigmas, msgs.each_ref().map(|m| m.as_slice())).map(truncate)
}

fn truncate(tag: [u8; 16]) -> [u8; HVF_LEN] {
    tag[..HVF_LEN].try_into().expect("HVF_LEN ≤ 16")
}

/// Eq. 3 for one hop: [`segr_tokens`] at width 1.
pub fn segr_token(k_i: &Cmac, res: &ResInfo, hop: HopField) -> [u8; HVF_LEN] {
    let [token] = segr_tokens(k_i, [&segr_input(res, hop)]);
    token
}

/// Eq. 4 for one hop: [`hop_auths`] at width 1.
pub fn hop_auth(k_i: &Cmac, res: &ResInfo, eer: &EerInfo, hop: HopField) -> Key {
    let [sigma] = hop_auths(k_i, [&hop_auth_input(res, eer, hop)]);
    sigma
}

/// Eq. 6 for one hop from its raw authenticator (expands σ first).
pub fn eer_hvf(sigma: &Key, ts: u64, pkt_size: usize) -> [u8; HVF_LEN] {
    eer_hvf_with(&sigma.cmac(), ts, pkt_size)
}

/// Eq. 6 for one hop over a ready-made CMAC instance for σ_i:
/// [`eer_hvfs`] at width 1.
pub fn eer_hvf_with(sigma_cmac: &Cmac, ts: u64, pkt_size: usize) -> [u8; HVF_LEN] {
    let [hvf] = eer_hvfs([sigma_cmac], [(ts, pkt_size)]);
    hvf
}

/// Control-plane payload MAC: `MAC_{K_{AS_i→SrcAS}}(payload)` (paper §4.5).
pub fn control_payload_mac(key: &Key, payload: &[u8]) -> [u8; 16] {
    key.cmac().tag(payload)
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

    /// The three lane kernels at width `N`, each against the scalar CMAC
    /// over its encoded input.
    fn lane_kernels_at<const N: usize>() {
        let k_i = k();
        let infos: [ResInfo; N] =
            core::array::from_fn(|l| ResInfo { res_id: ResId(300 + l as u32), ..res() });
        let hops: [HopField; N] =
            core::array::from_fn(|l| HopField::new(l as u16, (l as u16 + 3) % 8));
        let seg_ins: [_; N] = core::array::from_fn(|l| segr_input(&infos[l], hops[l]));
        let auth_ins: [_; N] = core::array::from_fn(|l| hop_auth_input(&infos[l], &eer(), hops[l]));
        let tokens = segr_tokens(&k_i, seg_ins.each_ref());
        let sigmas = hop_auths(&k_i, auth_ins.each_ref());
        let ts_size: [(u64, usize); N] =
            core::array::from_fn(|l| [(10, 64), (11, 65), (u64::MAX, 0), (0, 1500)][l % 4]);
        let sigma_cmacs = Cmac::new_each(sigmas.each_ref().map(|s| &s.0));
        let hvfs = eer_hvfs(sigma_cmacs.each_ref(), ts_size);
        let compact = Cmac::compact_each(sigmas.each_ref().map(|s| &s.0));
        assert_eq!(eer_hvfs(compact.each_ref(), ts_size), hvfs, "N {N}: compact σ");
        for l in 0..N {
            assert_eq!(tokens[l], k_i.tag(&seg_ins[l])[..HVF_LEN], "N {N} segr lane {l}");
            assert_eq!(sigmas[l].0, k_i.tag(&auth_ins[l]), "N {N} auth lane {l}");
            let (ts, size) = ts_size[l];
            let msg = [&ts.to_be_bytes()[..], &(size as u32).to_be_bytes()].concat();
            let hvf = Cmac::new(&sigmas[l].0).tag(&msg);
            assert_eq!(hvfs[l], hvf[..HVF_LEN], "N {N} hvf lane {l}");
        }
    }

    #[test]
    fn batched_macs_match_scalar() {
        lane_kernels_at::<1>();
        lane_kernels_at::<2>();
        lane_kernels_at::<3>();
        lane_kernels_at::<4>();
        lane_kernels_at::<8>();
    }

    /// The three lane kernels at width `N` over encoded inputs against the
    /// struct-level scalar [`segr_token`], [`hop_auth`] and key-expanding
    /// [`eer_hvf`].
    fn kernels_match_struct_api_at<const N: usize>() {
        let k_i = k();
        let e = eer();
        let infos: [ResInfo; N] =
            core::array::from_fn(|l| ResInfo { res_id: ResId(200 + l as u32), ..res() });
        let hops: [HopField; N] =
            core::array::from_fn(|l| HopField::new((l as u16 * 5) % 8, (l as u16 + 1) % 8));
        let seg_ins: [_; N] = core::array::from_fn(|l| segr_input(&infos[l], hops[l]));
        let auth_ins: [_; N] = core::array::from_fn(|l| hop_auth_input(&infos[l], &e, hops[l]));
        let tokens = segr_tokens(&k_i, seg_ins.each_ref());
        let sigmas = hop_auths(&k_i, auth_ins.each_ref());
        let ts_size: [(u64, usize); N] = core::array::from_fn(|l| (40 + l as u64, 64 + 13 * l));
        let sigma_cmacs = sigmas.each_ref().map(Key::cmac);
        let hvfs = eer_hvfs(sigma_cmacs.each_ref(), ts_size);
        for l in 0..N {
            assert_eq!(tokens[l], segr_token(&k_i, &infos[l], hops[l]), "N {N} segr lane {l}");
            assert_eq!(sigmas[l], hop_auth(&k_i, &infos[l], &e, hops[l]), "N {N} auth lane {l}");
            let (ts, size) = ts_size[l];
            assert_eq!(hvfs[l], eer_hvf(&sigmas[l], ts, size), "N {N} hvf lane {l}");
        }
    }

    #[test]
    fn from_input_variants_match_struct_variants() {
        kernels_match_struct_api_at::<1>();
        kernels_match_struct_api_at::<4>();
    }

    #[test]
    fn eight_wide_variants_match_scalar() {
        kernels_match_struct_api_at::<8>();
    }

    #[test]
    fn control_mac_distinguishes_payloads() {
        let key = Key([9; 16]);
        assert_ne!(control_payload_mac(&key, b"grant 5"), control_payload_mac(&key, b"grant 6"));
    }
}

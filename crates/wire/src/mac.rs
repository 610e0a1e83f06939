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
use colibri_crypto::cmac::pad;
use colibri_crypto::{Block, Cmac, Key, PaddedTagKey};

/// A big-endian field of a MAC input at byte `at` of its block (see
/// [`Block`]: block bytes read little-endian).
#[inline(always)]
fn be64(v: u64, at: usize) -> Block {
    Block::from(v) << (8 * (16 - 8 - at))
}

#[inline(always)]
fn be32(v: u32, at: usize) -> Block {
    Block::from(v) << (8 * (16 - 4 - at))
}

#[inline(always)]
fn be16(v: u16, at: usize) -> Block {
    Block::from(v) << (8 * (16 - 2 - at))
}

/// The first block of the Eq. 3 and Eq. 4 inputs, which both open with
/// the 18-byte `ResInfo` encoding `SrcAS (8) ‖ ResId (4) ‖ Bw (1) ‖
/// Ver (1) ‖ ExpT (4, seconds)`: all of it but the last two bytes of
/// `ExpT`, which open the second block.
#[inline(always)]
fn res_info_head(res: &ResInfo) -> Block {
    be64(res.src_as.to_u64(), 0)
        | be32(res.res_id.0, 8)
        | Block::from(res.bw.0) << 24
        | Block::from(res.ver) << 16
        | be16((res.exp_secs() >> 16) as u16, 14)
}

/// The Eq. 3 input `ResInfo ‖ (In_i, Eg_i)` (22 bytes) as its two CMAC
/// blocks, the second `10*`-padded after its 6 bytes: exactly the set of
/// packet bits the SegR token authenticates.
#[inline(always)]
pub fn segr_blocks(res: &ResInfo, hop: HopField) -> [Block; 2] {
    let tail = be16(res.exp_secs() as u16, 0)
        | be16(hop.ingress.0, 2)
        | be16(hop.egress.0, 4)
        | pad(6);
    [res_info_head(res), tail]
}

/// The Eq. 4 input `ResInfo ‖ EERInfo ‖ (In_i, Eg_i)` (30 bytes) as its
/// two CMAC blocks, the second `10*`-padded after its 14 bytes: precisely
/// the authenticated tuple from which σ_i is derived.
#[inline(always)]
pub fn hop_auth_blocks(res: &ResInfo, eer: &EerInfo, hop: HopField) -> [Block; 2] {
    let tail = be16(res.exp_secs() as u16, 0)
        | be32(eer.src_host.0, 2)
        | be32(eer.dst_host.0, 6)
        | be16(hop.ingress.0, 10)
        | be16(hop.egress.0, 12)
        | pad(14);
    [res_info_head(res), tail]
}

/// The Eq. 6 input `Ts (8) ‖ PktSize (4)` as its one CMAC block,
/// `10*`-padded after its 12 bytes.
#[inline(always)]
pub fn hvf_block(ts: u64, pkt_size: usize) -> Block {
    be64(ts, 0) | be32(pkt_size as u32, 8) | pad(12)
}

/// Computes `N` SegR tokens `V_i^(S)` (Eq. 3) under the AS secret `k_i`
/// over their blocks ([`segr_blocks`]), `N`-wide through
/// [`Cmac::tag_padded_each`]: `2N` AES blocks.
#[inline(always)]
pub fn segr_tokens<const N: usize>(k_i: &Cmac, blocks: [[Block; 2]; N]) -> [[u8; HVF_LEN]; N] {
    k_i.tag_padded_each(blocks).map(truncate)
}

/// Computes `N` EER hop authenticators `σ_i` (Eq. 4) under the AS secret
/// `k_i` over their blocks ([`hop_auth_blocks`]) — the router's σ
/// derivation for `N` packets at once, `2N` AES blocks. Unlike the SegR
/// token σ_i is *not* truncated: it doubles as a reservation-specific key
/// for the per-packet MAC.
#[inline(always)]
pub fn hop_auths<const N: usize>(k_i: &Cmac, blocks: [[Block; 2]; N]) -> [Key; N] {
    k_i.tag_padded_each(blocks).map(Key)
}

/// Computes `N` per-packet hop validation fields `V_i^(E)` (Eq. 6), lane
/// `l` over `(Ts, PktSize) = inputs[l]` ([`hvf_block`]) under `sigmas[l]`,
/// in any form of [`PaddedTagKey`]: pre-expanded [`Cmac`] instances (`N`
/// AES blocks), the gateway's stored [`colibri_crypto::CompactKey`]s (`N`
/// key expansions interleaved with them) or the router's freshly derived
/// [`Key`]s (`N` key expansions, each fused with its subkey block, and
/// `2N` AES blocks). `pkt_size` is the total packet size including the
/// Colibri header, which prevents header-only flooding (paper §4.8).
#[inline(always)]
pub fn eer_hvfs<K: PaddedTagKey, const N: usize>(
    sigmas: [&K; N],
    inputs: [(u64, usize); N],
) -> [[u8; HVF_LEN]; N] {
    K::tags_padded(sigmas, inputs.map(|(ts, pkt_size)| hvf_block(ts, pkt_size))).map(truncate)
}

#[inline(always)]
fn truncate(tag: [u8; 16]) -> [u8; HVF_LEN] {
    tag[..HVF_LEN].try_into().expect("HVF_LEN ≤ 16")
}

/// Eq. 3 for one hop: [`segr_tokens`] at width 1.
pub fn segr_token(k_i: &Cmac, res: &ResInfo, hop: HopField) -> [u8; HVF_LEN] {
    let [token] = segr_tokens(k_i, [segr_blocks(res, hop)]);
    token
}

/// Eq. 4 for one hop: [`hop_auths`] at width 1.
pub fn hop_auth(k_i: &Cmac, res: &ResInfo, eer: &EerInfo, hop: HopField) -> Key {
    let [sigma] = hop_auths(k_i, [hop_auth_blocks(res, eer, hop)]);
    sigma
}

/// Eq. 6 for one hop from its raw authenticator, expanded in the kernel:
/// [`eer_hvfs`] over a [`Key`] at width 1.
pub fn eer_hvf(sigma: &Key, ts: u64, pkt_size: usize) -> [u8; HVF_LEN] {
    let [hvf] = eer_hvfs([sigma], [(ts, pkt_size)]);
    hvf
}

/// Eq. 6 for one hop over a ready-made CMAC instance for σ_i:
/// [`eer_hvfs`] over a [`Cmac`] at width 1.
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
    /// over the canonical bytes, and Eq. 6 under all three σ forms.
    fn lane_kernels_at<const N: usize>() {
        let k_i = k();
        let infos: [ResInfo; N] =
            core::array::from_fn(|l| ResInfo { res_id: ResId(300 + l as u32), ..res() });
        let hops: [HopField; N] =
            core::array::from_fn(|l| HopField::new(l as u16, (l as u16 + 3) % 8));
        let seg: [_; N] = core::array::from_fn(|l| segr_blocks(&infos[l], hops[l]));
        let auth: [_; N] = core::array::from_fn(|l| hop_auth_blocks(&infos[l], &eer(), hops[l]));
        let (tokens, sigmas) = (segr_tokens(&k_i, seg), hop_auths(&k_i, auth));
        let ts_size: [(u64, usize); N] =
            core::array::from_fn(|l| [(10, 64), (11, 65), (u64::MAX, 0), (0, 1500)][l % 4]);
        let hvfs = eer_hvfs(sigmas.each_ref(), ts_size);
        let sigma_cmacs = Cmac::new_each(sigmas.each_ref().map(|s| &s.0));
        assert_eq!(eer_hvfs(sigma_cmacs.each_ref(), ts_size), hvfs, "N {N}: expanded σ");
        let compact = Cmac::compact_each(sigmas.each_ref().map(|s| &s.0));
        assert_eq!(eer_hvfs(compact.each_ref(), ts_size), hvfs, "N {N}: compact σ");
        for l in 0..N {
            let seg = input_bytes(&infos[l], None, hops[l]);
            assert_eq!(tokens[l], k_i.tag(&seg)[..HVF_LEN], "N {N} segr lane {l}");
            let auth = input_bytes(&infos[l], Some(&eer()), hops[l]);
            assert_eq!(sigmas[l].0, k_i.tag(&auth), "N {N} auth lane {l}");
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

    /// The three lane kernels at width `N` against the struct-level scalar
    /// [`segr_token`], [`hop_auth`] and [`eer_hvf`], with their exact AES
    /// cost: 2 blocks per token or σ, and per HVF under a fresh σ one
    /// expansion and 2 blocks.
    fn kernels_match_struct_api_at<const N: usize>() {
        let k_i = k();
        let e = eer();
        let infos: [ResInfo; N] =
            core::array::from_fn(|l| ResInfo { res_id: ResId(200 + l as u32), ..res() });
        let hops: [HopField; N] =
            core::array::from_fn(|l| HopField::new((l as u16 * 5) % 8, (l as u16 + 1) % 8));
        let cost = |f: &mut dyn FnMut()| {
            let (b0, x0) = (colibri_crypto::ops::aes_block_ops(), colibri_crypto::ops::key_expansions());
            f();
            (colibri_crypto::ops::aes_block_ops() - b0, colibri_crypto::ops::key_expansions() - x0)
        };
        let n = N as u64;
        let mut tokens = [[0; HVF_LEN]; N];
        let seg: [_; N] = core::array::from_fn(|l| segr_blocks(&infos[l], hops[l]));
        assert_eq!(cost(&mut || tokens = segr_tokens(&k_i, seg)), (2 * n, 0));
        let mut sigmas = [Key([0; 16]); N];
        let auth: [_; N] = core::array::from_fn(|l| hop_auth_blocks(&infos[l], &e, hops[l]));
        assert_eq!(cost(&mut || sigmas = hop_auths(&k_i, auth)), (2 * n, 0));
        let ts_size: [(u64, usize); N] = core::array::from_fn(|l| (40 + l as u64, 64 + 13 * l));
        let mut hvfs = [[0; HVF_LEN]; N];
        assert_eq!(cost(&mut || hvfs = eer_hvfs(sigmas.each_ref(), ts_size)), (2 * n, n));
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

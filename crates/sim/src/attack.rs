//! Seeded adversarial traffic generation (DESIGN.md §14).
//!
//! The survivability claims of §7/Table 2 — reserved goodput holds while
//! attack traffic is squeezed out — are only credible if the routers are
//! actually fed hostile frames. This module produces them,
//! deterministically: an [`AttackGen`] is seeded with a
//! [`FaultRng`] and a *valid* template packet (stamped
//! by a real gateway), and every emitted frame is a pure function of
//! `(seed, template, call sequence)`, so an adversarial run that finds a
//! panic or an accounting leak replays bit-identically.
//!
//! The attack kinds map onto the router's drop taxonomy
//! ([`colibri_dataplane::DropReason`]):
//!
//! | kind | mutation | expected fate at an honest router |
//! |---|---|---|
//! | [`AttackKind::ForgedHvf`] | random HVFs, fresh Ts | `BadHvf` |
//! | [`AttackKind::Replay`] | bit-identical resend | `Duplicate` (monitoring) |
//! | [`AttackKind::ExpiredReservation`] | `ExpT` in the past | `ReservationExpired` |
//! | [`AttackKind::BitFlip`] | one random bit anywhere | taxonomy drop or `Forward`* |
//! | [`AttackKind::Truncated`] | random prefix of the frame | `ParseError`, or `BadHvf` when only payload was cut (`PktSize` is authenticated) |
//! | [`AttackKind::Oversized`] | random junk appended | `BadHvf` (`PktSize` is authenticated) |
//! | [`AttackKind::CollisionFlood`] | `ResId` chosen to hash to one shard | `BadHvf`, all on the victim shard |
//!
//! \* a flip in unauthenticated bytes (payload, other hops' fields, the
//! control flag) still forwards — by design; Colibri authenticates only
//! what the current hop acts on (§4.6). The adversarial battery asserts
//! the *exact* allowed set per byte offset.

use crate::fault::FaultRng;
use colibri_dataplane::shard_index;
use colibri_base::ResId;

/// The attack classes an [`AttackGen`] can emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// A structurally perfect EER frame whose HVFs are random garbage —
    /// the classic forged-reservation flood (§7.1 attack 1).
    ForgedHvf,
    /// A bit-identical copy of the valid template: authenticates, then
    /// trips duplicate suppression at a monitoring router.
    Replay,
    /// The template with `ExpT` rewritten into the past (HVFs untouched):
    /// rejected by the expiry screen before any crypto runs.
    ExpiredReservation,
    /// One random bit flipped anywhere in the frame.
    BitFlip,
    /// The frame cut to a random shorter length.
    Truncated,
    /// Random junk appended after the payload.
    Oversized,
    /// A forged frame whose `ResId` is *chosen* so reservation steering
    /// hashes it onto one victim shard — the targeted-queue attack
    /// against RSS-style dispatch.
    CollisionFlood,
}

/// All kinds, in the cycling order used by [`AttackGen::next_any`].
pub const ALL_ATTACK_KINDS: [AttackKind; 7] = [
    AttackKind::ForgedHvf,
    AttackKind::Replay,
    AttackKind::ExpiredReservation,
    AttackKind::BitFlip,
    AttackKind::Truncated,
    AttackKind::Oversized,
    AttackKind::CollisionFlood,
];

/// Byte range of the reservation ID in the fixed header (wire layout).
const RES_ID_RANGE: std::ops::Range<usize> = 12..16;
/// Byte range of `ExpT` in the fixed header.
const EXP_T_RANGE: std::ops::Range<usize> = 18..22;

/// Searches the `ResId` space for one that [`shard_index`]-hashes onto
/// `target` out of `n_shards`. SplitMix64 mixes well, so the expected
/// number of probes is `n_shards`; the search is deterministic in `rng`.
pub fn res_id_for_shard(rng: &mut FaultRng, target: usize, n_shards: usize) -> ResId {
    assert!(target < n_shards);
    loop {
        let candidate = ResId(rng.next_u64() as u32);
        if shard_index(candidate, n_shards) == target {
            return candidate;
        }
    }
}

/// Deterministic generator of hostile frames derived from one valid
/// template packet. See the module docs for the attack model.
#[derive(Debug, Clone)]
pub struct AttackGen {
    rng: FaultRng,
    template: Vec<u8>,
    cursor: usize,
}

impl AttackGen {
    /// A generator seeded with `seed`, mutating copies of `template` —
    /// a packet freshly stamped by a real gateway, so "almost valid"
    /// attacks exercise the deepest router paths.
    pub fn new(seed: u64, template: Vec<u8>) -> Self {
        assert!(
            template.len() > colibri_wire::FIXED_HEADER_LEN,
            "template must be a parseable packet"
        );
        Self { rng: FaultRng::new(seed), template, cursor: 0 }
    }

    /// The unmodified valid template (the reserved-traffic baseline).
    pub fn template(&self) -> &[u8] {
        &self.template
    }

    /// Replaces the template (e.g. with a re-stamped fresh-`Ts` packet so
    /// replays stay inside the freshness window).
    pub fn set_template(&mut self, template: Vec<u8>) {
        self.template = template;
    }

    /// One frame of the given kind.
    pub fn next(&mut self, kind: AttackKind) -> Vec<u8> {
        match kind {
            AttackKind::ForgedHvf => self.forged_hvf(),
            AttackKind::Replay => self.replay(),
            AttackKind::ExpiredReservation => self.expired_reservation(),
            AttackKind::BitFlip => self.bit_flip(),
            AttackKind::Truncated => self.truncated(),
            AttackKind::Oversized => self.oversized(),
            AttackKind::CollisionFlood => {
                // Untargeted default: collide onto shard 0 of 1 — i.e.
                // just a random-ResId forgery. Use `collision_flood` for
                // a real victim shard.
                self.collision_flood(0, 1)
            }
        }
    }

    /// One frame, cycling through every attack kind in fixed order —
    /// the mixed flood of the integration battery.
    pub fn next_any(&mut self) -> (AttackKind, Vec<u8>) {
        let kind = ALL_ATTACK_KINDS[self.cursor % ALL_ATTACK_KINDS.len()];
        self.cursor += 1;
        (kind, self.next(kind))
    }

    /// A forged-HVF flood frame: valid structure, garbage credentials.
    pub fn forged_hvf(&mut self) -> Vec<u8> {
        let mut pkt = self.template.clone();
        let Some(view) = colibri_wire::PacketView::parse(&pkt).ok() else {
            return pkt;
        };
        let n = view.n_hops();
        let mut m = colibri_wire::PacketViewMut::parse(&mut pkt).expect("template parses");
        for i in 0..n {
            let w = self.rng.next_u64() as u32;
            m.set_hvf(i, w.to_be_bytes());
        }
        pkt
    }

    /// An exact replay of the template.
    pub fn replay(&mut self) -> Vec<u8> {
        self.template.clone()
    }

    /// The template with `ExpT` moved into the past. The expiry screen
    /// runs before any cryptography, so this costs the router no AES.
    pub fn expired_reservation(&mut self) -> Vec<u8> {
        let mut pkt = self.template.clone();
        // Small nonzero value: seconds 0..16, far before any live `now`.
        let past = (self.rng.next_u64() % 16) as u32;
        pkt[EXP_T_RANGE].copy_from_slice(&past.to_be_bytes());
        pkt
    }

    /// The template with one uniformly random bit flipped.
    pub fn bit_flip(&mut self) -> Vec<u8> {
        let mut pkt = self.template.clone();
        let bit = self.rng.next_u64() as usize % (pkt.len() * 8);
        pkt[bit / 8] ^= 1 << (bit % 8);
        pkt
    }

    /// A random proper prefix of the template (possibly empty).
    pub fn truncated(&mut self) -> Vec<u8> {
        let len = self.rng.next_u64() as usize % self.template.len();
        self.template[..len].to_vec()
    }

    /// The template with 1..=64 random junk bytes appended. `PktSize` is
    /// authenticated (Eq. 6), so growing the frame invalidates the HVF.
    pub fn oversized(&mut self) -> Vec<u8> {
        let mut pkt = self.template.clone();
        let extra = 1 + (self.rng.next_u64() as usize % 64);
        for _ in 0..extra {
            pkt.push(self.rng.next_u64() as u8);
        }
        pkt
    }

    /// A forged frame whose `ResId` steers to shard `target` of
    /// `n_shards` under reservation steering — every frame of the flood
    /// lands on the same victim queue.
    pub fn collision_flood(&mut self, target: usize, n_shards: usize) -> Vec<u8> {
        let res_id = res_id_for_shard(&mut self.rng, target, n_shards);
        let mut pkt = self.forged_hvf();
        pkt[RES_ID_RANGE].copy_from_slice(&res_id.0.to_be_bytes());
        pkt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colibri_base::{
        Bandwidth, Duration, HostAddr, Instant, IsdAsId, ReservationKey,
    };
    use colibri_crypto::{Key, SecretValueGen};
    use colibri_ctrl::{OwnedEer, OwnedEerVersion};
    use colibri_dataplane::{
        BorderRouter, DropReason, Gateway, GatewayConfig, RouterConfig, RouterVerdict,
    };
    use colibri_wire::mac::hop_auth;
    use colibri_wire::{EerInfo, HopField, ResInfo};

    const MASTER: [u8; 16] = [3u8; 16];

    fn stamped_template(now: Instant) -> Vec<u8> {
        let epoch = colibri_crypto::Epoch::containing(now);
        let k_i = SecretValueGen::new(&MASTER).secret_value(epoch).cmac();
        let res_info = ResInfo {
            src_as: IsdAsId::new(1, 10),
            res_id: ResId(77),
            bw: colibri_base::BwClass::from_bandwidth_ceil(Bandwidth::from_mbps(100)),
            exp_t: Instant::from_secs(500),
            ver: 0,
        };
        let eer_info = EerInfo { src_host: HostAddr(7), dst_host: HostAddr(8) };
        let hop = HopField::new(3, 4);
        let sigma = hop_auth(&k_i, &res_info, &eer_info, hop);
        let eer = OwnedEer {
            key: ReservationKey::new(IsdAsId::new(1, 10), ResId(77)),
            eer_info,
            path_ases: vec![IsdAsId::new(1, 10), IsdAsId::new(1, 1)],
            hop_fields: vec![hop, HopField::new(5, 0)],
            versions: vec![OwnedEerVersion {
                ver: 0,
                bw: Bandwidth::from_mbps(100),
                exp: Instant::from_secs(500),
                hop_auths: vec![sigma, Key([0; 16])],
            }],
        };
        let mut gw = Gateway::new(GatewayConfig { burst: Duration::from_secs(3600), ..Default::default() });
        gw.install(&eer, now);
        let mut template = Vec::new();
        gw.process_into(HostAddr(7), ResId(77), b"attack-template", now, &mut template).unwrap();
        template
    }

    fn router() -> BorderRouter {
        BorderRouter::new(
            IsdAsId::new(1, 10),
            &MASTER,
            RouterConfig {
                freshness: Duration::from_secs(3600),
                skew: Duration::from_secs(3600),
                monitoring: true,
                ..RouterConfig::default()
            },
        )
    }

    #[test]
    fn same_seed_same_stream() {
        let now = Instant::from_secs(100);
        let t = stamped_template(now);
        let mut a = AttackGen::new(42, t.clone());
        let mut b = AttackGen::new(42, t);
        for _ in 0..64 {
            let (ka, fa) = a.next_any();
            let (kb, fb) = b.next_any();
            assert_eq!(ka, kb);
            assert_eq!(fa, fb);
        }
    }

    #[test]
    fn every_kind_maps_into_the_drop_taxonomy() {
        let now = Instant::from_secs(100);
        let mut gen = AttackGen::new(7, stamped_template(now));
        let mut r = router();
        // The template itself forwards (baseline sanity).
        let mut base = gen.replay();
        assert!(matches!(r.process(&mut base, now), RouterVerdict::Forward(_)));
        // First replay of the same Ts is a duplicate.
        let mut rep = gen.replay();
        assert_eq!(r.process(&mut rep, now), RouterVerdict::Drop(DropReason::Duplicate));
        for _ in 0..32 {
            let mut f = gen.forged_hvf();
            assert_eq!(r.process(&mut f, now), RouterVerdict::Drop(DropReason::BadHvf));
            let mut e = gen.expired_reservation();
            assert_eq!(
                r.process(&mut e, now),
                RouterVerdict::Drop(DropReason::ReservationExpired)
            );
            // Truncation below the header is unparseable; truncation
            // into the payload still parses but shrinks the
            // authenticated PktSize, failing the HVF.
            let mut tr = gen.truncated();
            assert!(matches!(
                r.process(&mut tr, now),
                RouterVerdict::Drop(DropReason::ParseError | DropReason::BadHvf)
            ));
            let mut ov = gen.oversized();
            assert_eq!(r.process(&mut ov, now), RouterVerdict::Drop(DropReason::BadHvf));
        }
        assert_eq!(r.stats.forwarded, 1, "only the baseline template forwards");
    }

    #[test]
    fn collision_flood_lands_on_the_victim_shard() {
        let now = Instant::from_secs(100);
        let mut gen = AttackGen::new(9, stamped_template(now));
        let shards = 4;
        let victim = 2;
        for _ in 0..64 {
            let pkt = gen.collision_flood(victim, shards);
            let res_id = colibri_wire::peek_res_id(&pkt).expect("forged frame parses");
            assert_eq!(shard_index(res_id, shards), victim);
        }
    }

    #[test]
    fn bit_flips_never_panic_the_router() {
        let now = Instant::from_secs(100);
        let mut gen = AttackGen::new(11, stamped_template(now));
        let mut r = router();
        for _ in 0..2048 {
            let mut f = gen.bit_flip();
            let _ = r.process(&mut f, now);
        }
        // Accounting: every frame got a verdict.
        assert_eq!(r.stats.processed(), 2048);
    }
}

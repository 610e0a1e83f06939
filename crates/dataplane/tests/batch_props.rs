//! Differential properties of the batched data-plane pipeline.
//!
//! The whole point of `BorderRouter::process_batch` and
//! `Gateway::process_into` is that they are *pure optimizations*: byte-
//! for-byte and counter-for-counter equivalent to the scalar paths. These
//! tests drive both implementations with identical adversarial inputs —
//! valid EER packets, valid SegR control packets, flipped HVF bytes,
//! stale timestamps, expired reservations, truncations, and raw garbage,
//! in arbitrary interleavings — and demand identical verdicts, identical
//! statistics, and identical output buffers.

use colibri_base::{Bandwidth, Duration, HostAddr, Instant, IsdAsId, ResId};
use colibri_ctrl::{master_secret_for, OwnedEer, OwnedEerVersion};
use colibri_crypto::{Epoch, SecretValueGen};
use colibri_dataplane::{
    BorderRouter, CryptoCacheConfig, Gateway, GatewayConfig, RouterConfig, RouterVerdict,
};
use colibri_wire::mac::{eer_hvf, hop_auth, segr_token};
use colibri_wire::{EerInfo, HopField, PacketBuilder, PacketViewMut, ResInfo};
use proptest::prelude::*;

const AS_ID: IsdAsId = IsdAsId::new(1, 5);

fn router() -> BorderRouter {
    BorderRouter::new(AS_ID, &master_secret_for(AS_ID), RouterConfig::default())
}

fn res_info(now: Instant, exp_offset_secs: i64) -> ResInfo {
    let exp = if exp_offset_secs >= 0 {
        now + Duration::from_secs(exp_offset_secs as u64)
    } else {
        now.saturating_sub(Duration::from_secs((-exp_offset_secs) as u64))
    };
    ResInfo {
        src_as: IsdAsId::new(1, 10),
        res_id: ResId(3),
        bw: colibri_base::BwClass(30),
        exp_t: exp,
        ver: 0,
    }
}

/// A correctly authenticated EER packet for hop 1 of a 3-hop path.
fn valid_eer(now: Instant, payload: &[u8], ts_offset: u64, exp_offset_secs: i64) -> Vec<u8> {
    let ri = res_info(now, exp_offset_secs);
    let info = EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) };
    let path = [HopField::new(0, 1), HopField::new(2, 3), HopField::new(4, 0)];
    let ts = ri.exp_t.as_nanos().saturating_sub(now.as_nanos()) + ts_offset;
    let mut pkt = PacketBuilder::eer(ri, info).path(path).ts(ts).build(payload).unwrap();
    let k_i = SecretValueGen::new(&master_secret_for(AS_ID))
        .secret_value(Epoch::containing(now))
        .cmac();
    let size = pkt.len();
    {
        let mut v = PacketViewMut::parse(&mut pkt).unwrap();
        let sigma = hop_auth(&k_i, &ri, &info, path[1]);
        v.set_hvf(1, eer_hvf(&sigma, ts, size));
        v.set_curr_hop(1);
    }
    pkt
}

/// A correctly tokened SegR control packet for hop 1 of a 3-hop path.
fn valid_segr(now: Instant, payload: &[u8]) -> Vec<u8> {
    let ri = res_info(now, 10);
    let path = [HopField::new(0, 1), HopField::new(2, 3), HopField::new(4, 0)];
    let mut pkt =
        PacketBuilder::segr(ri).control().path(path).ts(0).build(payload).unwrap();
    let k_i = SecretValueGen::new(&master_secret_for(AS_ID))
        .secret_value(Epoch::containing(now))
        .cmac();
    {
        let mut v = PacketViewMut::parse(&mut pkt).unwrap();
        v.set_hvf(1, segr_token(&k_i, &ri, path[1]));
        v.set_curr_hop(1);
    }
    pkt
}

/// One generated batch element.
#[derive(Debug, Clone)]
enum Gen {
    ValidEer { payload_len: usize, ts_offset: u64 },
    ValidSegr { payload_len: usize },
    FlippedHvf { payload_len: usize, bit: u8 },
    Stale,
    Expired,
    Truncated { keep: usize },
    Garbage(Vec<u8>),
}

fn materialize(g: &Gen, now: Instant) -> Vec<u8> {
    match g {
        Gen::ValidEer { payload_len, ts_offset } => {
            valid_eer(now, &vec![0xAB; *payload_len], ts_offset % 1000, 10)
        }
        Gen::ValidSegr { payload_len } => valid_segr(now, &vec![0xCD; *payload_len]),
        Gen::FlippedHvf { payload_len, bit } => {
            let mut pkt = valid_eer(now, &vec![0xAB; *payload_len], 0, 10);
            // Flip one bit inside hop 1's HVF (the one this router checks).
            let mut v = PacketViewMut::parse(&mut pkt).unwrap();
            let mut hvf = v.hvf(1);
            hvf[(*bit as usize / 8) % hvf.len()] ^= 1 << (bit % 8);
            v.set_hvf(1, hvf);
            pkt
        }
        Gen::Stale => {
            // Fresh expiry but a timestamp claiming the packet was sent
            // far in the past (large ts = long before expiry).
            valid_eer(now, b"stale", 60_000_000_000, 120)
        }
        Gen::Expired => valid_eer(now, b"expired", 0, -5),
        Gen::Truncated { keep } => {
            let pkt = valid_eer(now, b"truncated-packet", 0, 10);
            let keep = (*keep).min(pkt.len().saturating_sub(1));
            pkt[..keep].to_vec()
        }
        Gen::Garbage(bytes) => bytes.clone(),
    }
}

/// One generated element for the cache-differential test: reservation id
/// and version vary so distinct cache keys compete for the (tiny,
/// randomized) capacities, and forged packets probe the caches without
/// ever populating them with attacker-controlled values.
#[derive(Debug, Clone)]
enum CacheGen {
    Eer { res_id: u32, ver: u8, ts_off: u64, payload_len: usize },
    EerForged { res_id: u32, bit: u8 },
    Segr { res_id: u32, ver: u8 },
    SegrForged { res_id: u32, bit: u8 },
    Garbage(Vec<u8>),
}

/// A valid EER packet for hop 1, parameterized by reservation identity.
/// Distinct `(res_id, ver)` pairs produce distinct σ-cache keys; distinct
/// `ts_off` values defeat the replay filter across rounds.
fn eer_for_res(now: Instant, res_id: u32, ver: u8, ts_off: u64, payload_len: usize) -> Vec<u8> {
    let mut ri = res_info(now, 10);
    ri.res_id = ResId(res_id);
    ri.ver = ver;
    let info = EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) };
    let path = [HopField::new(0, 1), HopField::new(2, 3), HopField::new(4, 0)];
    let ts = ri.exp_t.as_nanos().saturating_sub(now.as_nanos()) + ts_off;
    let mut pkt =
        PacketBuilder::eer(ri, info).path(path).ts(ts).build(&vec![0xAB; payload_len]).unwrap();
    let k_i = SecretValueGen::new(&master_secret_for(AS_ID))
        .secret_value(Epoch::containing(now))
        .cmac();
    let size = pkt.len();
    {
        let mut v = PacketViewMut::parse(&mut pkt).unwrap();
        let sigma = hop_auth(&k_i, &ri, &info, path[1]);
        v.set_hvf(1, eer_hvf(&sigma, ts, size));
        v.set_curr_hop(1);
    }
    pkt
}

/// A valid SegR control packet for hop 1, parameterized likewise.
fn segr_for_res(now: Instant, res_id: u32, ver: u8) -> Vec<u8> {
    let mut ri = res_info(now, 10);
    ri.res_id = ResId(res_id);
    ri.ver = ver;
    let path = [HopField::new(0, 1), HopField::new(2, 3), HopField::new(4, 0)];
    // Sent "now": unlike the `Gen::ValidSegr` packets (whose verdict-level
    // equivalence is all the other tests need), these must actually pass
    // the freshness check so the SegR token cache sees hits.
    let ts = ri.exp_t.as_nanos().saturating_sub(now.as_nanos());
    let mut pkt = PacketBuilder::segr(ri).control().path(path).ts(ts).build(b"ctl").unwrap();
    let k_i = SecretValueGen::new(&master_secret_for(AS_ID))
        .secret_value(Epoch::containing(now))
        .cmac();
    {
        let mut v = PacketViewMut::parse(&mut pkt).unwrap();
        v.set_hvf(1, segr_token(&k_i, &ri, path[1]));
        v.set_curr_hop(1);
    }
    pkt
}

/// Materializes one cache-differential element for `round`. The round
/// salt keeps same-reservation EER packets distinct across rounds (fresh
/// timestamps, no replay drops), so rounds ≥ 1 actually exercise the
/// cache-hit paths of the cached routers.
fn materialize_cache(g: &CacheGen, now: Instant, round: u64) -> Vec<u8> {
    let salt = round * 7919;
    match g {
        CacheGen::Eer { res_id, ver, ts_off, payload_len } => {
            eer_for_res(now, *res_id, *ver, ts_off % 1000 + salt, *payload_len)
        }
        CacheGen::EerForged { res_id, bit } => {
            let mut pkt = eer_for_res(now, *res_id, 0, 500 + salt, 24);
            let mut v = PacketViewMut::parse(&mut pkt).unwrap();
            let mut hvf = v.hvf(1);
            hvf[(*bit as usize / 8) % hvf.len()] ^= 1 << (bit % 8);
            v.set_hvf(1, hvf);
            pkt
        }
        CacheGen::Segr { res_id, ver } => segr_for_res(now, *res_id, *ver),
        CacheGen::SegrForged { res_id, bit } => {
            let mut pkt = segr_for_res(now, *res_id, 0);
            let mut v = PacketViewMut::parse(&mut pkt).unwrap();
            let mut hvf = v.hvf(1);
            hvf[(*bit as usize / 8) % hvf.len()] ^= 1 << (bit % 8);
            v.set_hvf(1, hvf);
            pkt
        }
        CacheGen::Garbage(bytes) => bytes.clone(),
    }
}

fn cache_gen_strategy() -> impl Strategy<Value = CacheGen> {
    prop_oneof![
        4 => (0u32..4, 0u8..2, any::<u64>(), 0usize..96).prop_map(
            |(res_id, ver, ts_off, payload_len)| CacheGen::Eer { res_id, ver, ts_off, payload_len }
        ),
        1 => (0u32..4, any::<u8>())
            .prop_map(|(res_id, bit)| CacheGen::EerForged { res_id, bit }),
        2 => (0u32..4, 0u8..2).prop_map(|(res_id, ver)| CacheGen::Segr { res_id, ver }),
        1 => (0u32..4, any::<u8>())
            .prop_map(|(res_id, bit)| CacheGen::SegrForged { res_id, bit }),
        1 => prop::collection::vec(any::<u8>(), 0..64).prop_map(CacheGen::Garbage),
    ]
}

fn gen_strategy() -> impl Strategy<Value = Gen> {
    prop_oneof![
        (0usize..256, any::<u64>())
            .prop_map(|(payload_len, ts_offset)| Gen::ValidEer { payload_len, ts_offset }),
        (0usize..128).prop_map(|payload_len| Gen::ValidSegr { payload_len }),
        (0usize..64, any::<u8>()).prop_map(|(payload_len, bit)| Gen::FlippedHvf {
            payload_len,
            bit
        }),
        Just(Gen::Stale),
        Just(Gen::Expired),
        (0usize..80).prop_map(|keep| Gen::Truncated { keep }),
        prop::collection::vec(any::<u8>(), 0..96).prop_map(Gen::Garbage),
    ]
}

proptest! {
    /// `process_batch` is bit- and counter-identical to the scalar path
    /// over arbitrary mixes of valid/invalid packets, including the
    /// mutated output buffers (advanced hop pointers).
    #[test]
    fn process_batch_equals_scalar(gens in prop::collection::vec(gen_strategy(), 1..24)) {
        let now = Instant::from_secs(1000);
        let originals: Vec<Vec<u8>> = gens.iter().map(|g| materialize(g, now)).collect();

        // Scalar reference.
        let mut scalar = router();
        let mut scalar_bufs = originals.clone();
        let scalar_verdicts: Vec<RouterVerdict> =
            scalar_bufs.iter_mut().map(|p| scalar.process(p, now)).collect();

        // Batched implementation.
        let mut batched = router();
        let mut batch_bufs = originals.clone();
        let mut refs: Vec<&mut [u8]> = batch_bufs.iter_mut().map(Vec::as_mut_slice).collect();
        let batch_verdicts = batched.process_batch(&mut refs, now);

        prop_assert_eq!(&batch_verdicts, &scalar_verdicts);
        prop_assert_eq!(batched.stats, scalar.stats);
        for (i, (a, b)) in scalar_bufs.iter().zip(batch_bufs.iter()).enumerate() {
            prop_assert_eq!(a, b, "buffer {} diverged", i);
        }
    }

    /// Replay suppression behaves identically under batching: feeding the
    /// same batch twice drops everything the second time in both modes.
    #[test]
    fn process_batch_replay_equals_scalar(n in 1usize..12, payload_len in 0usize..64) {
        let now = Instant::from_secs(2000);
        let originals: Vec<Vec<u8>> =
            (0..n).map(|i| valid_eer(now, &vec![0x11; payload_len], i as u64, 10)).collect();

        let mut scalar = router();
        let mut scalar_bufs = originals.clone();
        let mut scalar_verdicts = Vec::new();
        for round in 0..2 {
            let mut bufs = scalar_bufs.clone();
            for p in bufs.iter_mut() {
                scalar_verdicts.push(scalar.process(p, now));
            }
            if round == 0 {
                scalar_bufs = originals.clone();
            }
        }

        let mut batched = router();
        let mut batch_verdicts = Vec::new();
        for _ in 0..2 {
            let mut bufs = originals.clone();
            let mut refs: Vec<&mut [u8]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
            batch_verdicts.extend(batched.process_batch(&mut refs, now));
        }

        prop_assert_eq!(&batch_verdicts, &scalar_verdicts);
        prop_assert_eq!(batched.stats, scalar.stats);
    }

    /// `Gateway::process_into` produces byte-identical packets, identical
    /// errors, and identical statistics to `Gateway::process`, across
    /// reservations, hosts, and payloads — even when the reused buffer
    /// starts dirty.
    #[test]
    fn gateway_process_into_equals_process(
        ops in prop::collection::vec(
            (0u32..6, 0u64..3, 0usize..128),
            1..32
        )
    ) {
        let now = Instant::from_secs(100);
        let cfg = GatewayConfig { burst: Duration::from_secs(3600), ..Default::default() };
        let mut a = Gateway::new(cfg);
        let mut b = Gateway::new(cfg);
        for id in 0..4u32 {
            let eer = OwnedEer {
                key: colibri_base::ReservationKey::new(IsdAsId::new(1, 10), ResId(id)),
                eer_info: EerInfo { src_host: HostAddr(7), dst_host: HostAddr(8) },
                path_ases: vec![
                    IsdAsId::new(1, 10),
                    IsdAsId::new(1, 2),
                    IsdAsId::new(1, 3),
                    IsdAsId::new(1, 4),
                    IsdAsId::new(1, 5),
                    IsdAsId::new(1, 1),
                ],
                hop_fields: vec![
                    HopField::new(0, 1),
                    HopField::new(2, 3),
                    HopField::new(4, 5),
                    HopField::new(6, 7),
                    HopField::new(8, 9),
                    HopField::new(10, 0),
                ],
                versions: vec![OwnedEerVersion {
                    ver: 0,
                    bw: Bandwidth::from_mbps(50),
                    exp: Instant::from_secs(200),
                    hop_auths: (0..6).map(|h| colibri_crypto::Key([h as u8 + id as u8; 16])).collect(),
                }],
            };
            a.install(&eer, now);
            b.install(&eer, now);
        }

        let mut buf = vec![0xEE; 777]; // deliberately dirty, reused across ops
        for (i, &(res, host_sel, payload_len)) in ops.iter().enumerate() {
            let host = HostAddr(if host_sel == 0 { 99 } else { 7 });
            let payload = vec![i as u8; payload_len];
            let t = now + Duration::from_millis(i as u64);
            let via_process = a.process(host, ResId(res), &payload, t);
            let via_into = b.process_into(host, ResId(res), &payload, t, &mut buf);
            match (via_process, via_into) {
                (Ok(p), Ok(egress)) => {
                    prop_assert_eq!(&p.bytes, &buf, "op {}: bytes diverged", i);
                    prop_assert_eq!(p.first_egress, egress);
                }
                (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
                (pa, pb) => prop_assert!(false, "op {}: {:?} vs {:?}", i, pa, pb),
            }
        }
        prop_assert_eq!(a.stats, b.stats);
    }

    /// Telemetry observes, it never perturbs — and its `Invariant`
    /// metrics are themselves a differential oracle: a scalar and a
    /// batched router, instrumented on separate registries, must produce
    /// identical [`Stability::Invariant`] cross-shard totals over
    /// arbitrary adversarial batches. (`PathDependent` metrics like
    /// batch-size distributions legitimately differ and are excluded by
    /// `invariant_totals`.) The same holds for `Gateway::process` vs
    /// `Gateway::process_into`.
    #[test]
    fn telemetry_invariant_totals_equal_scalar_vs_batched(
        gens in prop::collection::vec(gen_strategy(), 1..24)
    ) {
        use colibri_telemetry::Registry;

        let now = Instant::from_secs(1000);
        let originals: Vec<Vec<u8>> = gens.iter().map(|g| materialize(g, now)).collect();

        let reg_scalar = Registry::new();
        let mut scalar = router();
        scalar.attach_telemetry(&reg_scalar, "scalar");
        let mut scalar_bufs = originals.clone();
        let scalar_verdicts: Vec<RouterVerdict> =
            scalar_bufs.iter_mut().map(|p| scalar.process(p, now)).collect();

        let reg_batched = Registry::new();
        let mut batched = router();
        batched.attach_telemetry(&reg_batched, "batched");
        let mut batch_bufs = originals.clone();
        let mut refs: Vec<&mut [u8]> = batch_bufs.iter_mut().map(Vec::as_mut_slice).collect();
        let batch_verdicts = batched.process_batch(&mut refs, now);

        prop_assert_eq!(&batch_verdicts, &scalar_verdicts);
        prop_assert_eq!(
            reg_batched.snapshot().invariant_totals(),
            reg_scalar.snapshot().invariant_totals()
        );
        // The instrumented counters also agree with the plain stats.
        prop_assert_eq!(
            reg_scalar.snapshot().total("colibri_router_forwarded_total"),
            scalar.stats.forwarded
        );
    }

    /// Gateway telemetry is equally batching-blind: `process_into` with a
    /// dirty reused buffer leaves the same invariant totals as `process`.
    #[test]
    fn gateway_telemetry_invariant_totals_equal(
        ops in prop::collection::vec((0u32..6, 0u64..3, 0usize..128), 1..32)
    ) {
        use colibri_telemetry::Registry;

        let now = Instant::from_secs(100);
        let cfg = GatewayConfig { burst: Duration::from_secs(3600), ..Default::default() };
        let reg_a = Registry::new();
        let reg_b = Registry::new();
        let mut a = Gateway::new(cfg);
        a.attach_telemetry(&reg_a, "scalar");
        let mut b = Gateway::new(cfg);
        b.attach_telemetry(&reg_b, "into");
        for id in 0..4u32 {
            let eer = OwnedEer {
                key: colibri_base::ReservationKey::new(IsdAsId::new(1, 10), ResId(id)),
                eer_info: EerInfo { src_host: HostAddr(7), dst_host: HostAddr(8) },
                path_ases: vec![IsdAsId::new(1, 10), IsdAsId::new(1, 1)],
                hop_fields: vec![HopField::new(0, 1), HopField::new(2, 0)],
                versions: vec![OwnedEerVersion {
                    ver: 0,
                    bw: Bandwidth::from_mbps(50),
                    exp: Instant::from_secs(200),
                    hop_auths: vec![colibri_crypto::Key([id as u8; 16]); 2],
                }],
            };
            a.install(&eer, now);
            b.install(&eer, now);
        }
        let mut buf = vec![0xEE; 777];
        for (i, &(res, host_sel, payload_len)) in ops.iter().enumerate() {
            let host = HostAddr(if host_sel == 0 { 99 } else { 7 });
            let payload = vec![i as u8; payload_len];
            let t = now + Duration::from_millis(i as u64);
            let _ = a.process(host, ResId(res), &payload, t);
            let _ = b.process_into(host, ResId(res), &payload, t, &mut buf);
        }
        prop_assert_eq!(a.stats, b.stats);
        prop_assert_eq!(
            reg_a.snapshot().invariant_totals(),
            reg_b.snapshot().invariant_totals()
        );
    }

    /// The crypto caches are invisible: a router with randomly sized
    /// caches (including capacity 0 and capacities tiny enough to thrash)
    /// produces bit-identical verdicts, buffers, and [`RouterStats`] to a
    /// cache-disabled router, in both the scalar and the batched path,
    /// across multiple rounds (so rounds ≥ 1 hit warm caches), version
    /// bumps, forged HVFs, and eviction pressure.
    #[test]
    fn cached_router_equals_uncached(
        gens in prop::collection::vec(cache_gen_strategy(), 1..20),
        segr_cap in 0usize..5,
        sigma_cap in 0usize..5,
    ) {
        let now = Instant::from_secs(1000);
        let cached_cfg = RouterConfig {
            cache: CryptoCacheConfig { segr_capacity: segr_cap, sigma_capacity: sigma_cap },
            ..RouterConfig::default()
        };
        let uncached_cfg =
            RouterConfig { cache: CryptoCacheConfig::DISABLED, ..RouterConfig::default() };
        let secret = master_secret_for(AS_ID);
        let mut scalar_cached = BorderRouter::new(AS_ID, &secret, cached_cfg);
        let mut scalar_uncached = BorderRouter::new(AS_ID, &secret, uncached_cfg);
        let mut batch_cached = BorderRouter::new(AS_ID, &secret, cached_cfg);
        let mut batch_uncached = BorderRouter::new(AS_ID, &secret, uncached_cfg);

        for round in 0..3u64 {
            let originals: Vec<Vec<u8>> =
                gens.iter().map(|g| materialize_cache(g, now, round)).collect();

            let mut sc_bufs = originals.clone();
            let sc: Vec<RouterVerdict> =
                sc_bufs.iter_mut().map(|p| scalar_cached.process(p, now)).collect();
            let mut su_bufs = originals.clone();
            let su: Vec<RouterVerdict> =
                su_bufs.iter_mut().map(|p| scalar_uncached.process(p, now)).collect();
            let mut bc_bufs = originals.clone();
            let mut refs: Vec<&mut [u8]> = bc_bufs.iter_mut().map(Vec::as_mut_slice).collect();
            let bc = batch_cached.process_batch(&mut refs, now);
            let mut bu_bufs = originals.clone();
            let mut refs: Vec<&mut [u8]> = bu_bufs.iter_mut().map(Vec::as_mut_slice).collect();
            let bu = batch_uncached.process_batch(&mut refs, now);

            prop_assert_eq!(&sc, &su, "round {}: scalar cached vs uncached", round);
            prop_assert_eq!(&sc, &bc, "round {}: scalar vs batch cached", round);
            prop_assert_eq!(&sc, &bu, "round {}: scalar vs batch uncached", round);
            for (i, b) in su_bufs.iter().enumerate() {
                prop_assert_eq!(&sc_bufs[i], b, "round {}: buffer {} (scalar unc.)", round, i);
                prop_assert_eq!(&sc_bufs[i], &bc_bufs[i], "round {}: buffer {} (batch c.)", round, i);
                prop_assert_eq!(&sc_bufs[i], &bu_bufs[i], "round {}: buffer {} (batch unc.)", round, i);
            }
        }
        prop_assert_eq!(scalar_cached.stats, scalar_uncached.stats);
        prop_assert_eq!(scalar_cached.stats, batch_cached.stats);
        prop_assert_eq!(scalar_cached.stats, batch_uncached.stats);
        // Every crypto lookup is counted exactly once whether it hits,
        // misses, or always-misses (capacity 0).
        prop_assert_eq!(
            scalar_cached.cache_stats().lookups(),
            scalar_uncached.cache_stats().lookups()
        );
        prop_assert_eq!(
            batch_cached.cache_stats().lookups(),
            batch_uncached.cache_stats().lookups()
        );
    }

    /// The 8-lane interleaved crypto kernels are drop-in equal to eight
    /// scalar calls over arbitrary keys, inputs, and (short) messages:
    /// Eq. 3 ([`segr_token8_from_inputs`]), Eq. 4
    /// ([`hop_auth8_from_inputs`]), Eq. 6 ([`eer_hvf8_with`]) and the
    /// multi-key short-message CMAC they are built from.
    #[test]
    fn eight_lane_primitives_equal_scalar(
        k_i_key in any::<[u8; 16]>(),
        sigma_keys in prop::collection::vec(any::<[u8; 16]>(), 8usize),
        hvf_inputs in prop::collection::vec((any::<u64>(), 0usize..4096), 8usize),
        auth_inputs in prop::collection::vec(
            any::<[u8; colibri_wire::mac::HOP_AUTH_INPUT_LEN]>(), 8usize),
        segr_inputs in prop::collection::vec(
            any::<[u8; colibri_wire::mac::SEGR_INPUT_LEN]>(), 8usize),
        msgs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..=16usize), 8usize),
    ) {
        use colibri_crypto::{Cmac, Key};
        use colibri_wire::mac::{
            eer_hvf8_with, eer_hvf_with, hop_auth8_from_inputs, hop_auth_from_input,
            segr_token8_from_inputs, segr_token_from_input,
        };

        let k_i = Key(k_i_key).cmac();

        // Eq. 4: σ derivation under K_i.
        let auth_refs: [&[u8; colibri_wire::mac::HOP_AUTH_INPUT_LEN]; 8] =
            std::array::from_fn(|j| &auth_inputs[j]);
        let sigmas8 = hop_auth8_from_inputs(&k_i, auth_refs);
        for j in 0..8 {
            prop_assert_eq!(sigmas8[j].0, hop_auth_from_input(&k_i, &auth_inputs[j]).0);
        }

        // Eq. 3: SegR tokens under K_i.
        let segr_refs: [&[u8; colibri_wire::mac::SEGR_INPUT_LEN]; 8] =
            std::array::from_fn(|j| &segr_inputs[j]);
        let tokens8 = segr_token8_from_inputs(&k_i, segr_refs);
        for j in 0..8 {
            prop_assert_eq!(tokens8[j], segr_token_from_input(&k_i, &segr_inputs[j]));
        }

        // Interleaved key expansion: new8 ≡ eight scalar expansions,
        // checked through the tags it produces.
        let key_refs: [&[u8; 16]; 8] = std::array::from_fn(|j| &sigma_keys[j]);
        let cmacs8 = Cmac::new8(key_refs);
        let msg_refs: [&[u8]; 8] = std::array::from_fn(|j| msgs[j].as_slice());
        let tags8 = Cmac::tag8_short_each(std::array::from_fn(|j| &cmacs8[j]), msg_refs);
        let tags8_multikey = Cmac::tag8_short_multikey(key_refs, msg_refs);
        for j in 0..8 {
            let scalar = Cmac::new(&sigma_keys[j]).tag(&msgs[j]);
            prop_assert_eq!(tags8[j], scalar);
            prop_assert_eq!(tags8_multikey[j], scalar);
        }

        // Eq. 6: per-packet HVFs over pre-expanded σ instances.
        let hvfs8 = eer_hvf8_with(
            std::array::from_fn(|j| &cmacs8[j]),
            std::array::from_fn(|j| hvf_inputs[j]),
        );
        for j in 0..8 {
            let (ts, size) = hvf_inputs[j];
            prop_assert_eq!(hvfs8[j], eer_hvf_with(&cmacs8[j], ts, size));
        }
    }

    /// RSS-style steering is invisible to correctness: a steered
    /// multi-shard pool produces the same multiset of (verdict, packet
    /// bytes) as a single-shard pool over the same adversarial stream,
    /// and within each reservation (flow) the outputs appear in exactly
    /// the submission order — steering pins a flow to one shard, whose
    /// ring is FIFO, so stateful per-flow processing (replay filter,
    /// shaping) is order-identical to the sequential reference.
    #[test]
    fn steered_pool_equals_single_shard(
        gens in prop::collection::vec(cache_gen_strategy(), 1..24),
        shards in 2usize..5,
    ) {
        use colibri_dataplane::ShardRouterPool;

        let now = Instant::from_secs(1000);
        let secret = master_secret_for(AS_ID);
        let originals: Vec<Vec<u8>> =
            gens.iter().map(|g| materialize_cache(g, now, 0)).collect();

        let run = |n: usize| {
            let mut pool = ShardRouterPool::new(n, originals.len() + 1, move |_| {
                BorderRouter::new(AS_ID, &secret, RouterConfig::default())
            });
            let mut outs = Vec::new();
            for pkt in &originals {
                pool.submit(pkt.clone(), now, &mut outs);
            }
            pool.shutdown(&mut outs);
            outs
        };
        let reference = run(1);
        let steered = run(shards);
        prop_assert_eq!(reference.len(), steered.len());

        // Same multiset of (verdict, bytes) overall.
        let key = |o: &colibri_dataplane::RoutedOutput| {
            (format!("{:?}", o.outcome), o.pkt.clone())
        };
        let mut a: Vec<_> = reference.iter().map(key).collect();
        let mut b: Vec<_> = steered.iter().map(key).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);

        // Per-flow subsequences preserved in order. (Unparseable packets
        // have no flow; they are covered by the multiset check above.)
        let flow_seq = |outs: &[colibri_dataplane::RoutedOutput], id: ResId| {
            outs.iter()
                .filter(|o| colibri_wire::peek_res_id(&o.pkt) == Some(id))
                .map(|o| (format!("{:?}", o.outcome), o.pkt.clone()))
                .collect::<Vec<_>>()
        };
        for id in 0..4u32 {
            prop_assert_eq!(
                flow_seq(&reference, ResId(id)),
                flow_seq(&steered, ResId(id)),
                "flow {} diverged", id
            );
        }
    }
}

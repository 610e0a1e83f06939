//! Differential properties of the batched data-plane pipeline.
//!
//! The whole point of `BorderRouter::process_batch` and the lane kernels
//! under it is that they are *pure optimizations*: byte-for-byte and
//! counter-for-counter equivalent to the scalar paths. These tests drive
//! both implementations with identical adversarial inputs —
//! valid EER packets, valid SegR control packets, flipped HVF bytes,
//! stale timestamps, expired reservations, truncations, and raw garbage,
//! in arbitrary interleavings — and demand identical verdicts, identical
//! statistics, and identical output buffers.

use colibri_base::{Duration, HostAddr, Instant, IsdAsId, ResId};
use colibri_crypto::{Block, Cmac, Epoch, Key, SecretValueGen};
use colibri_ctrl::master_secret_for;
use colibri_dataplane::{BorderRouter, RouterConfig, RouterVerdict};
use colibri_wire::mac::{eer_hvf, eer_hvfs, hop_auth, hop_auths, segr_token, segr_tokens};
use colibri_wire::{EerInfo, HopField, PacketBuilder, PacketViewMut, ResInfo, HVF_LEN};
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

const PATH: [HopField; 3] = [HopField::new(0, 1), HopField::new(2, 3), HopField::new(4, 0)];

fn k_i(now: Instant) -> Cmac {
    SecretValueGen::new(&master_secret_for(AS_ID)).secret_value(Epoch::containing(now)).cmac()
}

/// A correctly authenticated EER packet of `ri` for hop 1 of a 3-hop
/// path, sent `ts_offset` ns before `now`.
fn eer_packet(ri: ResInfo, now: Instant, payload: &[u8], ts_offset: u64) -> Vec<u8> {
    let info = EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) };
    let ts = ri.exp_t.as_nanos().saturating_sub(now.as_nanos()) + ts_offset;
    let mut pkt = PacketBuilder::eer(ri, info).path(PATH).ts(ts).build(payload).unwrap();
    let size = pkt.len();
    let mut v = PacketViewMut::parse(&mut pkt).unwrap();
    v.set_hvf(1, eer_hvf(&hop_auth(&k_i(now), &ri, &info, PATH[1]), ts, size));
    v.set_curr_hop(1);
    pkt
}

/// A correctly tokened SegR control packet of `ri` for hop 1 of a 3-hop
/// path, carrying timestamp `ts`.
fn segr_packet(ri: ResInfo, now: Instant, ts: u64, payload: &[u8]) -> Vec<u8> {
    let mut pkt = PacketBuilder::segr(ri).control().path(PATH).ts(ts).build(payload).unwrap();
    let mut v = PacketViewMut::parse(&mut pkt).unwrap();
    v.set_hvf(1, segr_token(&k_i(now), &ri, PATH[1]));
    v.set_curr_hop(1);
    pkt
}

fn valid_eer(now: Instant, payload: &[u8], ts_offset: u64, exp_offset_secs: i64) -> Vec<u8> {
    eer_packet(res_info(now, exp_offset_secs), now, payload, ts_offset)
}

/// Flips one bit inside hop 1's HVF (the one this router checks).
fn flip_hvf(mut pkt: Vec<u8>, bit: u8) -> Vec<u8> {
    let mut v = PacketViewMut::parse(&mut pkt).unwrap();
    let mut hvf = v.hvf(1);
    hvf[(bit as usize / 8) % hvf.len()] ^= 1 << (bit % 8);
    v.set_hvf(1, hvf);
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
        Gen::ValidSegr { payload_len } => {
            segr_packet(res_info(now, 10), now, 0, &vec![0xCD; *payload_len])
        }
        Gen::FlippedHvf { payload_len, bit } => {
            flip_hvf(valid_eer(now, &vec![0xAB; *payload_len], 0, 10), *bit)
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

/// One generated element of a multi-reservation stream: reservation id
/// and version vary so packets spread over flows (and, in a pool, over
/// shards), with forged packets mixed into the same flows.
#[derive(Debug, Clone)]
enum FlowGen {
    Eer { res_id: u32, ver: u8, ts_off: u64, payload_len: usize },
    EerForged { res_id: u32, bit: u8 },
    Segr { res_id: u32, ver: u8 },
    SegrForged { res_id: u32, bit: u8 },
    Garbage(Vec<u8>),
}

/// `ResInfo` of flow `res_id` at version `ver`.
fn flow(now: Instant, res_id: u32, ver: u8) -> ResInfo {
    ResInfo { res_id: ResId(res_id), ver, ..res_info(now, 10) }
}

/// A SegR control packet of flow `res_id`, sent "now": unlike the
/// `Gen::ValidSegr` packets (whose verdict-level equivalence is all the
/// other tests need), these pass the freshness check and reach the crypto.
fn flow_segr(now: Instant, res_id: u32, ver: u8) -> Vec<u8> {
    let ri = flow(now, res_id, ver);
    segr_packet(ri, now, ri.exp_t.as_nanos().saturating_sub(now.as_nanos()), b"ctl")
}

/// Materializes one multi-reservation element. Distinct `ts_off` values
/// keep same-flow EER packets out of the replay filter.
fn materialize_flow(g: &FlowGen, now: Instant) -> Vec<u8> {
    match g {
        FlowGen::Eer { res_id, ver, ts_off, payload_len } => {
            eer_packet(flow(now, *res_id, *ver), now, &vec![0xAB; *payload_len], ts_off % 1000)
        }
        FlowGen::EerForged { res_id, bit } => {
            flip_hvf(eer_packet(flow(now, *res_id, 0), now, &[0xAB; 24], 500), *bit)
        }
        FlowGen::Segr { res_id, ver } => flow_segr(now, *res_id, *ver),
        FlowGen::SegrForged { res_id, bit } => flip_hvf(flow_segr(now, *res_id, 0), *bit),
        FlowGen::Garbage(bytes) => bytes.clone(),
    }
}

fn flow_gen_strategy() -> impl Strategy<Value = FlowGen> {
    prop_oneof![
        4 => (0u32..4, 0u8..2, any::<u64>(), 0usize..96).prop_map(
            |(res_id, ver, ts_off, payload_len)| FlowGen::Eer { res_id, ver, ts_off, payload_len }
        ),
        1 => (0u32..4, any::<u8>())
            .prop_map(|(res_id, bit)| FlowGen::EerForged { res_id, bit }),
        2 => (0u32..4, 0u8..2).prop_map(|(res_id, ver)| FlowGen::Segr { res_id, ver }),
        1 => (0u32..4, any::<u8>())
            .prop_map(|(res_id, bit)| FlowGen::SegrForged { res_id, bit }),
        1 => prop::collection::vec(any::<u8>(), 0..64).prop_map(FlowGen::Garbage),
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

/// Lengths of the Eq. 4 and Eq. 3 MAC inputs in bytes.
const HOP_AUTH_INPUT_LEN: usize = 30;
const SEGR_INPUT_LEN: usize = 22;

/// A 17–31-byte message as its two CMAC blocks, the second `10*`-padded.
fn two_blocks(msg: &[u8]) -> [Block; 2] {
    let mut bytes = [0u8; 32];
    bytes[..msg.len()].copy_from_slice(msg);
    bytes[msg.len()] = 0x80;
    let (a, b) = bytes.split_at(16);
    [a, b].map(|half| Block::from_be_bytes(half.try_into().unwrap()))
}

/// The lane kernels at width `N` over the first `N` generated inputs, each
/// against the scalar CMAC: Eq. 4 ([`hop_auths`]) and Eq. 3
/// ([`segr_tokens`]) under `K_i` over padded blocks of arbitrary bytes, and
/// Eq. 6 ([`eer_hvfs`]) under σ in each key form — expanded [`Cmac`]s,
/// compact keys, and raw [`Key`]s expanded in the kernel.
fn lane_primitives_at<const N: usize>(
    k_i: &Cmac,
    sigma_keys: &[[u8; 16]],
    auth_inputs: &[[u8; HOP_AUTH_INPUT_LEN]],
    segr_inputs: &[[u8; SEGR_INPUT_LEN]],
    hvf_inputs: &[(u64, usize)],
) {
    let sigmas = hop_auths::<N>(k_i, std::array::from_fn(|j| two_blocks(&auth_inputs[j])));
    let tokens = segr_tokens::<N>(k_i, std::array::from_fn(|j| two_blocks(&segr_inputs[j])));
    let inputs = std::array::from_fn(|j| hvf_inputs[j]);
    let keys: [Key; N] = std::array::from_fn(|j| Key(sigma_keys[j]));
    let hvfs = eer_hvfs(keys.each_ref(), inputs);
    let cmacs = Cmac::new_each::<N>(std::array::from_fn(|j| &sigma_keys[j]));
    prop_assert_eq!(eer_hvfs(cmacs.each_ref(), inputs), hvfs, "N {} expanded σ", N);
    let compact = Cmac::compact_each::<N>(std::array::from_fn(|j| &sigma_keys[j]));
    prop_assert_eq!(eer_hvfs(compact.each_ref(), inputs), hvfs, "N {} compact σ", N);
    for j in 0..N {
        prop_assert_eq!(sigmas[j].0, k_i.tag(&auth_inputs[j]), "N {} σ lane {}", N, j);
        prop_assert_eq!(tokens[j], k_i.tag(&segr_inputs[j])[..HVF_LEN], "N {} lane {}", N, j);
        let (ts, size) = hvf_inputs[j];
        let msg = [&ts.to_be_bytes()[..], &(size as u32).to_be_bytes()].concat();
        let hvf = Cmac::new(&sigma_keys[j]).tag(&msg);
        prop_assert_eq!(hvfs[j], hvf[..HVF_LEN], "N {} hvf lane {}", N, j);
    }
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

    /// Telemetry observes, it never perturbs — and its `Invariant`
    /// metrics are themselves a differential oracle: a scalar and a
    /// batched router, instrumented on separate registries, must produce
    /// identical [`Stability::Invariant`] cross-shard totals over
    /// arbitrary adversarial batches. (`PathDependent` metrics like
    /// batch-size distributions legitimately differ and are excluded by
    /// `invariant_totals`.)
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

    /// The lane kernels are drop-in equal to scalar CMACs at every lane
    /// width over arbitrary keys and inputs (see [`lane_primitives_at`]).
    #[test]
    fn lane_primitives_equal_scalar(
        k_i_key in any::<[u8; 16]>(),
        sigma_keys in prop::collection::vec(any::<[u8; 16]>(), 8usize),
        hvf_inputs in prop::collection::vec((any::<u64>(), 0usize..4096), 8usize),
        auth_inputs in prop::collection::vec(any::<[u8; HOP_AUTH_INPUT_LEN]>(), 8usize),
        segr_inputs in prop::collection::vec(any::<[u8; SEGR_INPUT_LEN]>(), 8usize),
    ) {
        let k_i = Cmac::new(&k_i_key);
        lane_primitives_at::<1>(&k_i, &sigma_keys, &auth_inputs, &segr_inputs, &hvf_inputs);
        lane_primitives_at::<2>(&k_i, &sigma_keys, &auth_inputs, &segr_inputs, &hvf_inputs);
        lane_primitives_at::<3>(&k_i, &sigma_keys, &auth_inputs, &segr_inputs, &hvf_inputs);
        lane_primitives_at::<4>(&k_i, &sigma_keys, &auth_inputs, &segr_inputs, &hvf_inputs);
        lane_primitives_at::<8>(&k_i, &sigma_keys, &auth_inputs, &segr_inputs, &hvf_inputs);
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
        gens in prop::collection::vec(flow_gen_strategy(), 1..24),
        shards in 2usize..5,
    ) {
        use colibri_dataplane::ShardRouterPool;

        let now = Instant::from_secs(1000);
        let secret = master_secret_for(AS_ID);
        let originals: Vec<Vec<u8>> =
            gens.iter().map(|g| materialize_flow(g, now)).collect();

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

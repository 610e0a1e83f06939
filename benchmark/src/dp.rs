//! The chained packet path: bursts of 32 offered packets go through the
//! gateway, then through every on-path border router in turn, and the
//! oracle checks each packet's fate against what the generator expects.
//!
//! One load thread, no sockets: a packet crosses function calls, not a
//! link. The virtual clock advances by a fixed step per offered packet.

use crate::rng::{Rng, StreamHash};
use crate::scenario::{Counts, Sample, Scenario, Tally, Verdict};
use crate::sut::{self, Attack, Attacker, Chain, ChainSpec, DropKind, Fate, Stamp};
use crate::trace::{Cause, SpanName, Tracer};
use std::time::Instant;

pub const BURST: usize = 32;
const POOL_LEN: usize = 4096;
const MAX_PAYLOAD: usize = 1400;

/// Which packet-path workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpKind {
    ShortHot,
    LongCold,
    AttackMix,
}

#[derive(Debug, Clone, Copy)]
pub struct DpCfg {
    pub kind: DpKind,
    pub spec: ChainSpec,
    /// Virtual nanoseconds per offered packet.
    pub step_ns: u64,
    /// Bursts per measurement window.
    pub window_bursts: u64,
    pub warmup_windows: usize,
}

impl DpCfg {
    pub fn new(kind: DpKind) -> DpCfg {
        let flat = ChainSpec {
            hops: 4,
            reservations: 1024,
            rate_bps: 1_000_000_000,
            greedy: 0,
            greedy_rate_bps: 0,
            shaped_uplink_bps: None,
            monitoring: false,
            replay_log2_bits: 20,
            telemetry: true,
        };
        match kind {
            // Working set inside the σ-cache (4096): fixed per-packet cost
            // dominates, crypto is one block per hop.
            DpKind::ShortHot => DpCfg {
                kind,
                spec: flat,
                step_ns: 1_000,
                window_bursts: 2048,
                warmup_windows: 2,
            },
            // 8× the σ-cache on a 16-AS path: MAC-per-hop at the gateway
            // and the miss path at the routers dominate.
            DpKind::LongCold => DpCfg {
                kind,
                spec: ChainSpec {
                    hops: 16,
                    reservations: 32_768,
                    ..flat
                },
                step_ns: 1_000,
                window_bursts: 256,
                warmup_windows: 2,
            },
            // Drop paths, byte-based policing, transit monitoring and the
            // qdisc do the work. 2²⁴-bit replay filter and 10 µs per packet
            // keep Bloom false positives rare (see README).
            DpKind::AttackMix => DpCfg {
                kind,
                spec: ChainSpec {
                    reservations: 1008,
                    rate_bps: 10_000_000,
                    greedy: 16,
                    greedy_rate_bps: 100_000,
                    shaped_uplink_bps: Some(10_000_000_000),
                    monitoring: true,
                    replay_log2_bits: 24,
                    ..flat
                },
                step_ns: 10_000,
                window_bursts: 2048,
                warmup_windows: 2,
            },
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Offer {
    /// A host packet for the gateway: reservation, payload slice of the pool.
    Host { res: u32, off: usize, len: usize },
    /// A hostile frame injected at hop 0, past the gateway.
    Hostile(Attack),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Pending,
    /// The gateway did not forward it.
    NotStamped(Stamp),
    Delivered(u32),
    Dropped {
        hop: usize,
        kind: DropKind,
    },
    /// Handed to a CServ, or still travelling after the last hop.
    Lost,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    offer: Offer,
    now_ns: u64,
    /// For hostile frames: the drop the router must answer with.
    expect_drop: DropKind,
    outcome: Outcome,
}

/// The oracle's own token bucket (the paper's: a time stamp and a
/// counter), in units of 1/8 nanobyte so that `dt × rate` is exact.
#[derive(Debug, Clone, Copy)]
struct ModelBucket {
    rate_bps: u64,
    cap: u128,
    tokens: u128,
    last_ns: u64,
}

const UNITS_PER_BYTE: u128 = 8_000_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Conformance {
    Conforming,
    OverRate,
    /// Within one byte of the bucket's fill: rounding inside the system
    /// may legitimately go either way.
    Borderline,
}

impl ModelBucket {
    fn new(rate_bps: u64, now_ns: u64) -> Self {
        let cap = u128::from(sut::bucket_depth_bytes(rate_bps)) * UNITS_PER_BYTE;
        ModelBucket {
            rate_bps,
            cap,
            tokens: cap,
            last_ns: now_ns,
        }
    }

    fn judge(&mut self, bytes: usize, now_ns: u64) -> Conformance {
        let dt = u128::from(now_ns - self.last_ns);
        self.last_ns = now_ns;
        self.tokens = (self.tokens + dt * u128::from(self.rate_bps)).min(self.cap);
        let cost = bytes as u128 * UNITS_PER_BYTE;
        if cost + UNITS_PER_BYTE <= self.tokens {
            Conformance::Conforming
        } else if cost > self.tokens + UNITS_PER_BYTE {
            Conformance::OverRate
        } else {
            Conformance::Borderline
        }
    }

    fn consume(&mut self, bytes: usize) {
        self.tokens = self.tokens.saturating_sub(bytes as u128 * UNITS_PER_BYTE);
    }
}

/// What a one-bit flip of `tmpl` into `frame` must be dropped as at hop 0
/// of a monitoring router at `now_ns`. The layout knowledge is the wire
/// format's (paper Eq. 2): which bytes the parser screens, which the
/// expiry and freshness checks read, which the hop's MAC covers — and
/// everything the hop does not authenticate is a replay of the template.
fn bitflip_fate(tmpl: &[u8], frame: &[u8], now_ns: u64) -> DropKind {
    let o = tmpl
        .iter()
        .zip(frame)
        .position(|(a, b)| a != b)
        .expect("one bit differs");
    let n = usize::from(tmpl[2]);
    let path_off = 40;
    let exp_ns =
        |f: &[u8]| u64::from(u32::from_be_bytes([f[18], f[19], f[20], f[21]])) * 1_000_000_000;
    match o {
        0 => DropKind::Parse,
        1 => match tmpl[1] ^ frame[1] {
            0b01 => DropKind::BadHvf,
            0b10 => DropKind::Duplicate,
            _ => DropKind::Parse,
        },
        2 => {
            let n2 = usize::from(frame[2]);
            if n2 == 0 || n2 > 32 || frame.len() < sut::eer_header_len(n2) {
                DropKind::Parse
            } else {
                DropKind::BadHvf
            }
        }
        3 => {
            if usize::from(frame[3]) >= n {
                DropKind::Parse
            } else {
                DropKind::BadHvf
            }
        }
        4..=5 | 22..=23 => DropKind::Parse,
        18..=21 => {
            if now_ns >= exp_ns(frame) {
                DropKind::Expired
            } else {
                DropKind::Stale
            }
        }
        24..=31 => {
            let ts = u64::from_be_bytes(frame[24..32].try_into().expect("8 bytes"));
            let sent = exp_ns(frame).saturating_sub(ts);
            let (max_age, max_lead) = sut::freshness_window_ns();
            if sent.saturating_sub(now_ns) > max_lead || now_ns.saturating_sub(sent) > max_age {
                DropKind::Stale
            } else {
                DropKind::BadHvf
            }
        }
        6..=17 | 32..=39 => DropKind::BadHvf,
        _ => {
            let hop_fields = path_off..path_off + 4 * n;
            let hvfs = hop_fields.end..hop_fields.end + 4 * n;
            let own_field = hop_fields.contains(&o) && (o - hop_fields.start) / 4 == 0;
            let own_hvf = hvfs.contains(&o) && (o - hvfs.start) / 4 == 0;
            if own_field || own_hvf {
                DropKind::BadHvf
            } else {
                DropKind::Duplicate
            }
        }
    }
}

pub struct PacketPath {
    cfg: DpCfg,
    chain: Chain,
    rng: Rng,
    now_ns: u64,
    pool: Vec<u8>,
    header_len: usize,
    frames: Vec<Vec<u8>>,
    slots: Vec<Slot>,
    alive: Vec<bool>,
    fates: Vec<Fate>,
    model: Vec<ModelBucket>,
    attacker: Option<Attacker>,
    template: Vec<u8>,
    bursts: u64,
    tally: Tally,
    burst_us: Vec<f64>,
    hash: StreamHash,
    // Oracle state.
    attempted: u64,
    failed: u64,
    false_dup: u64,
    legit_forwarded: u64,
    seen_stamps: [u64; 3],
    seen_forwarded: Vec<u64>,
    seen_drops: Vec<[u64; 7]>,
    base_gateway: sut::GatewayCounts,
    base_routers: Vec<sut::RouterCounts>,
    // Traced-run extras: `crypto::ops` deltas around the stage calls.
    gw_aes: u64,
    rt_aes: u64,
    rt_kx: u64,
    /// Test hook: expect every legitimate packet to be refused, so the
    /// oracle must report failures.
    sabotage: bool,
}

impl PacketPath {
    pub fn new(cfg: DpCfg, seed: u64, tr: &mut Tracer) -> PacketPath {
        let mut rng = Rng::new(seed).fork(cfg.kind as u64 + 1);
        let chain = Chain::build(cfg.spec, sut::START_NS, tr);
        let pool: Vec<u8> = (0..POOL_LEN).map(|_| rng.next_u64() as u8).collect();
        let spec = cfg.spec;
        let mut now_ns = sut::START_NS;
        let model = (0..spec.reservations + spec.greedy)
            .map(|id| {
                let rate = if id < spec.reservations {
                    spec.rate_bps
                } else {
                    spec.greedy_rate_bps
                };
                ModelBucket::new(rate, now_ns)
            })
            .collect::<Vec<_>>();
        let mut path = PacketPath {
            cfg,
            header_len: sut::eer_header_len(spec.hops),
            frames: (0..BURST).map(|_| Vec::with_capacity(2048)).collect(),
            slots: Vec::with_capacity(BURST),
            alive: vec![false; BURST],
            fates: Vec::with_capacity(BURST),
            model,
            attacker: None,
            template: Vec::new(),
            bursts: 0,
            tally: Tally::default(),
            burst_us: Vec::new(),
            hash: StreamHash::default(),
            attempted: 0,
            failed: 0,
            false_dup: 0,
            legit_forwarded: 0,
            seen_stamps: [0; 3],
            seen_forwarded: vec![0; spec.hops],
            seen_drops: vec![[0; 7]; spec.hops],
            base_gateway: sut::GatewayCounts::default(),
            base_routers: Vec::new(),
            gw_aes: 0,
            rt_aes: 0,
            rt_kx: 0,
            sabotage: false,
            pool,
            rng,
            now_ns,
            chain,
        };
        if cfg.kind == DpKind::AttackMix {
            // One valid packet through every hop seeds the attack template,
            // so the first replay already meets its original in the filter.
            now_ns += cfg.step_ns;
            let mut frame = Vec::new();
            let stamp = path.chain.stamp(0, &path.pool[..64], now_ns, &mut frame);
            assert_eq!(stamp, Stamp::Forwarded, "priming packet conforms");
            path.model[0].judge(path.header_len + 64, now_ns);
            path.model[0].consume(path.header_len + 64);
            let template = frame.clone();
            let mut off = Tracer::new(false);
            for hop in 0..spec.hops {
                let mut one = [frame.as_mut_slice()];
                path.chain.hop(
                    hop,
                    &mut one,
                    now_ns,
                    &mut path.fates,
                    &mut off,
                    Cause::root(0),
                );
            }
            assert_eq!(
                path.fates[0],
                Fate::Deliver(sut::DST_HOST_ID),
                "priming packet is delivered"
            );
            path.attacker = Some(Attacker::new(path.rng.next_u64(), template.clone()));
            path.template = template;
            path.now_ns = now_ns;
        }
        path.base_gateway = path.chain.gateway_counts();
        path.base_routers = (0..spec.hops)
            .map(|h| path.chain.router_counts(h))
            .collect();
        path
    }

    pub fn sabotage(&mut self) {
        self.sabotage = true;
    }

    pub fn chain_mut(&mut self) -> &mut Chain {
        &mut self.chain
    }

    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    fn draw_host(&mut self, greedy: bool) -> Offer {
        let spec = &self.cfg.spec;
        let res = if greedy {
            spec.reservations + self.rng.below(u64::from(spec.greedy)) as u32
        } else {
            self.rng.below(u64::from(spec.reservations)) as u32
        };
        let len = if self.cfg.kind == DpKind::AttackMix {
            // IMIX 64/576/1400 at 7:4:1.
            match self.rng.below(12) {
                0..=6 => 64,
                7..=10 => 576,
                _ => MAX_PAYLOAD,
            }
        } else {
            64
        };
        let off = self.rng.below((POOL_LEN - MAX_PAYLOAD) as u64) as usize;
        Offer::Host { res, off, len }
    }

    /// Offered mix of dp-attack-mix, per cent: 50 legitimate, 10 on the
    /// greedy reservations, 15 forged HVF, 10 replay, 5 expired, 5 bit
    /// flip, 5 truncated or oversized.
    fn draw(&mut self) -> Offer {
        if self.cfg.kind != DpKind::AttackMix {
            return self.draw_host(false);
        }
        match self.rng.below(100) {
            0..=49 => self.draw_host(false),
            50..=59 => self.draw_host(true),
            60..=74 => Offer::Hostile(Attack::ForgedHvf),
            75..=84 => Offer::Hostile(Attack::Replay),
            85..=89 => Offer::Hostile(Attack::Expired),
            90..=94 => Offer::Hostile(Attack::BitFlip),
            _ => Offer::Hostile(if self.rng.below(2) == 0 {
                Attack::Truncated
            } else {
                Attack::Oversized
            }),
        }
    }

    fn expected_drop(&self, attack: Attack, frame: &[u8], router_now: u64) -> DropKind {
        match attack {
            Attack::ForgedHvf | Attack::Oversized => DropKind::BadHvf,
            Attack::Replay => DropKind::Duplicate,
            Attack::Expired => DropKind::Expired,
            Attack::BitFlip => bitflip_fate(&self.template, frame, router_now),
            Attack::Truncated => {
                if frame.len() < self.header_len {
                    DropKind::Parse
                } else {
                    DropKind::BadHvf
                }
            }
        }
    }

    fn burst(&mut self, tr: &mut Tracer) {
        let req = self.bursts;
        let hops = self.cfg.spec.hops;
        // 1. Generate the burst's inputs; nothing here is timed.
        self.slots.clear();
        for i in 0..BURST {
            self.now_ns += self.cfg.step_ns;
            let offer = self.draw();
            match offer {
                Offer::Host { res, off, len } => {
                    self.hash
                        .push(u64::from(res) << 32 | (off as u64) << 12 | len as u64);
                }
                Offer::Hostile(kind) => {
                    self.hash.push(0xA77A_0000 | kind as u64);
                    let attacker = self
                        .attacker
                        .as_mut()
                        .expect("attack workloads prime a template");
                    self.frames[i] = attacker.next(kind);
                }
            }
            self.slots.push(Slot {
                offer,
                now_ns: self.now_ns,
                expect_drop: DropKind::Parse,
                outcome: Outcome::Pending,
            });
        }
        // Routers see the whole burst at the time its last packet was stamped.
        let router_now = self.now_ns;
        for i in 0..BURST {
            if let Offer::Hostile(kind) = self.slots[i].offer {
                self.slots[i].expect_drop = self.expected_drop(kind, &self.frames[i], router_now);
            }
        }
        let ops_before = if tr.is_on() {
            sut::crypto_ops()
        } else {
            (0, 0)
        };

        // 2. Gateway: every host packet of the burst.
        let burst_span = tr.begin(SpanName::Burst, Cause::root(req), 0);
        let within_burst = Cause {
            parent: burst_span,
            req,
        };
        let t0 = Instant::now();
        let gw_span = tr.begin(SpanName::Gateway, within_burst, 0);
        let mut offered = 0u32;
        for i in 0..BURST {
            let slot = &mut self.slots[i];
            if let Offer::Host { res, off, len } = slot.offer {
                offered += 1;
                let stamp = self.chain.stamp(
                    res,
                    &self.pool[off..off + len],
                    slot.now_ns,
                    &mut self.frames[i],
                );
                self.alive[i] = stamp == Stamp::Forwarded;
                if stamp != Stamp::Forwarded {
                    slot.outcome = Outcome::NotStamped(stamp);
                }
                self.seen_stamps[stamp as usize] += 1;
            } else {
                self.alive[i] = true;
            }
        }
        tr.end(gw_span, offered);
        let t1 = Instant::now();
        let ops_mid = if tr.is_on() {
            sut::crypto_ops()
        } else {
            (0, 0)
        };
        let mut next_template = None;
        if self.attacker.is_some() {
            // Before hop 0 advances `curr_hop` in place.
            next_template = (0..BURST)
                .find(|&i| self.alive[i] && matches!(self.slots[i].offer, Offer::Host { .. }));
            if let Some(i) = next_template {
                self.template.clear();
                self.template.extend_from_slice(&self.frames[i]);
            }
        }

        // 3. Every on-path router in turn; drops leave the batch.
        let mut pkt_hops = 0u64;
        for hop in 0..hops {
            let mut batch: Vec<&mut [u8]> = self
                .frames
                .iter_mut()
                .zip(&self.alive)
                .filter(|(_, alive)| **alive)
                .map(|(f, _)| f.as_mut_slice())
                .collect();
            if batch.is_empty() {
                break;
            }
            pkt_hops += batch.len() as u64;
            self.chain.hop(
                hop,
                &mut batch,
                router_now,
                &mut self.fates,
                tr,
                within_burst,
            );
            let mut fates = self.fates.iter();
            for i in 0..BURST {
                if !self.alive[i] {
                    continue;
                }
                match *fates.next().expect("one verdict per packet") {
                    Fate::Forward => self.seen_forwarded[hop] += 1,
                    Fate::Deliver(host) => {
                        self.seen_forwarded[hop] += 1;
                        self.slots[i].outcome = Outcome::Delivered(host);
                        self.alive[i] = false;
                    }
                    Fate::DeliverCserv => {
                        self.seen_forwarded[hop] += 1;
                        self.slots[i].outcome = Outcome::Lost;
                        self.alive[i] = false;
                    }
                    Fate::Drop(kind) => {
                        self.seen_drops[hop][kind.index()] += 1;
                        self.slots[i].outcome = Outcome::Dropped { hop, kind };
                        self.alive[i] = false;
                    }
                }
            }
        }
        let t2 = Instant::now();
        tr.end(burst_span, BURST as u32);
        if tr.is_on() {
            let ops_after = sut::crypto_ops();
            self.gw_aes += ops_mid.0 - ops_before.0;
            self.rt_aes += ops_after.0 - ops_mid.0;
            self.rt_kx += ops_after.1 - ops_mid.1;
        }
        if next_template.is_some() {
            let template = std::mem::take(&mut self.template);
            self.attacker
                .as_mut()
                .expect("checked above")
                .set_template(&template);
            self.template = template;
        }

        // 4. Oracle.
        self.tally.gw_offered += u64::from(offered);
        self.tally.gw_ns += (t1 - t0).as_nanos() as u64;
        self.tally.pkt_hops += pkt_hops;
        self.tally.rt_ns += (t2 - t1).as_nanos() as u64;
        self.burst_us.push((t2 - t0).as_nanos() as f64 / 1e3);
        for i in 0..BURST {
            if self.alive[i] {
                self.slots[i].outcome = Outcome::Lost;
            }
            self.check(i);
        }
        self.bursts += 1;
    }

    fn check(&mut self, i: usize) {
        self.attempted += 1;
        let slot = self.slots[i];
        let ok = match slot.offer {
            Offer::Hostile(kind) => match slot.outcome {
                // A forged HVF passes a hop with probability 2⁻³²; it must
                // still die as unauthentic before the host.
                Outcome::Dropped {
                    kind: DropKind::BadHvf,
                    ..
                } if kind == Attack::ForgedHvf => true,
                Outcome::Dropped { hop: 0, kind } => kind == slot.expect_drop,
                _ => false,
            },
            Offer::Host { res, off, len } => {
                let size = self.header_len + len;
                let mut conformance = self.model[res as usize].judge(size, slot.now_ns);
                let forwarded = !matches!(slot.outcome, Outcome::NotStamped(_));
                if forwarded {
                    self.model[res as usize].consume(size);
                }
                if self.sabotage {
                    conformance = Conformance::OverRate;
                }
                let refused = slot.outcome == Outcome::NotStamped(Stamp::RateLimited);
                let stamped_right = match conformance {
                    Conformance::Conforming => forwarded,
                    Conformance::OverRate => refused,
                    Conformance::Borderline => forwarded || refused,
                };
                if !forwarded {
                    stamped_right
                } else {
                    self.legit_forwarded += 1;
                    let frame = &self.frames[i];
                    let intact = frame.len() == size
                        && frame[self.header_len..] == self.pool[off..off + len];
                    match slot.outcome {
                        Outcome::Delivered(host) if host == sut::DST_HOST_ID && intact => {
                            self.tally.delivered += 1;
                            self.tally.payload_bytes += len as u64;
                            stamped_right
                        }
                        // A Bloom-filter false positive of the replay
                        // suppressor: tolerated within its analytic budget,
                        // settled in `verdict`.
                        Outcome::Dropped {
                            kind: DropKind::Duplicate,
                            ..
                        } if self.cfg.spec.monitoring => {
                            self.false_dup += 1;
                            stamped_right
                        }
                        _ => false,
                    }
                }
            }
        };
        if !ok {
            self.failed += 1;
        }
    }
}

/// Legitimate packets the replay suppressor may wrongly drop before the
/// oracle calls it a failure: 0.2 % of those forwarded (the analytic
/// false-positive rate of the configured filter is below 0.01 %).
fn false_dup_budget(legit_forwarded: u64) -> u64 {
    (legit_forwarded / 500).max(16)
}

impl Scenario for PacketPath {
    fn step(&mut self, tr: &mut Tracer) -> bool {
        self.burst(tr);
        self.bursts.is_multiple_of(self.cfg.window_bursts)
    }

    fn tally(&self) -> Tally {
        self.tally
    }

    fn samples(&self, which: Sample) -> &[f64] {
        match which {
            Sample::BurstUs => &self.burst_us,
            _ => &[],
        }
    }

    fn clear_samples(&mut self) {
        self.burst_us.clear();
    }

    fn counts(&self) -> Counts {
        let gw = self.chain.gateway_counts();
        let cache = self.chain.cache_counts();
        let (qos_rate_limited, qos_host_capped) = self.chain.qos_counts();
        let mut c = Counts::from([
            ("dp.bursts", self.bursts),
            ("dp.gw_offered", self.tally.gw_offered),
            ("dp.pkt_hops", self.tally.pkt_hops),
            (
                "dp.hop0_pkts",
                self.seen_forwarded[0] + self.seen_drops[0].iter().sum::<u64>(),
            ),
            ("dp.delivered", self.tally.delivered),
            ("dataplane.gateway.forwarded", gw.forwarded),
            ("dataplane.gateway.rate_limited", gw.rate_limited),
            ("dataplane.gateway.rejected", gw.rejected),
            ("dataplane.crypto_cache.sigma_hits", cache.sigma_hits),
            ("dataplane.crypto_cache.sigma_misses", cache.sigma_misses),
            ("dataplane.crypto_cache.evictions", cache.sigma_evictions),
            ("qdisc.rate_limited", qos_rate_limited),
            ("qdisc.host_capped", qos_host_capped),
            ("monitor.replay_false_dup", self.false_dup),
            ("crypto.gateway_aes_blocks", self.gw_aes),
            ("crypto.router_aes_blocks", self.rt_aes),
            ("crypto.router_key_expansions", self.rt_kx),
        ]);
        const NAMES: [&str; 7] = [
            "dataplane.router.drops.parse",
            "dataplane.router.drops.expired",
            "dataplane.router.drops.stale",
            "dataplane.router.drops.bad_hvf",
            "dataplane.router.drops.blocked",
            "dataplane.router.drops.duplicate",
            "dataplane.router.drops.shaped",
        ];
        for kind in DropKind::ALL {
            let total = (0..self.cfg.spec.hops)
                .map(|h| self.chain.router_counts(h).drops[kind.index()])
                .sum();
            c.insert(NAMES[kind.index()], total);
        }
        c
    }

    fn levels(&self) -> Counts {
        Counts::from([("dp.stream_hash", self.hash.0)])
    }

    fn warmup_windows(&self) -> usize {
        self.cfg.warmup_windows
    }

    fn verdict(&mut self) -> Verdict {
        let mut v = Verdict {
            attempted: self.attempted,
            failed: self.failed,
            violations: Vec::new(),
        };
        if self.false_dup > false_dup_budget(self.legit_forwarded) {
            v.failed += self.false_dup;
            v.violations.push(format!(
                "{} of {} legitimate packets dropped as duplicates, over the filter's budget",
                self.false_dup, self.legit_forwarded
            ));
        }
        // The system's own counters must tell the same story as the
        // verdicts it returned, packet by packet.
        let gw = self.chain.gateway_counts();
        let seen = [
            gw.forwarded - self.base_gateway.forwarded,
            gw.rate_limited - self.base_gateway.rate_limited,
            gw.rejected - self.base_gateway.rejected,
        ];
        if seen != self.seen_stamps {
            v.violations.push(format!(
                "GatewayStats {seen:?} != verdicts returned {:?}",
                self.seen_stamps
            ));
        }
        for hop in 0..self.cfg.spec.hops {
            let now = self.chain.router_counts(hop);
            let base = self.base_routers[hop];
            let drops: Vec<u64> = (0..7).map(|k| now.drops[k] - base.drops[k]).collect();
            if now.forwarded - base.forwarded != self.seen_forwarded[hop]
                || drops != self.seen_drops[hop]
            {
                v.violations.push(format!(
                    "RouterStats at hop {hop} (forwarded {}, drops {drops:?}) != verdicts returned ({}, {:?})",
                    now.forwarded - base.forwarded,
                    self.seen_forwarded[hop],
                    self.seen_drops[hop]
                ));
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_bucket_refuses_over_rate_and_refills() {
        // 100 kbit/s = 12.5 kB/s, depth 1500 B (one-MTU floor).
        let mut b = ModelBucket::new(100_000, 0);
        assert_eq!(b.judge(1472, 0), Conformance::Conforming);
        b.consume(1472);
        assert_eq!(b.judge(136, 0), Conformance::OverRate);
        // 28 B left + 10 ms × 12.5 kB/s = 153 B.
        assert_eq!(b.judge(136, 10_000_000), Conformance::Conforming);
        assert_eq!(b.judge(153, 10_000_000), Conformance::Borderline);
        assert_eq!(b.judge(155, 10_000_000), Conformance::OverRate);
        // Never above its depth.
        assert_eq!(b.judge(1501, 10_000_000_000), Conformance::Borderline);
        assert_eq!(b.judge(1502, 10_000_000_000), Conformance::OverRate);
    }

    fn frame(n: u8, payload: usize) -> Vec<u8> {
        let mut f = vec![0u8; sut::eer_header_len(usize::from(n)) + payload];
        f[0] = 1;
        f[1] = 1;
        f[2] = n;
        // exp_t = 2000 s, ts = 999.9 s ⇒ sent at 1000.1 s.
        f[18..22].copy_from_slice(&2000u32.to_be_bytes());
        f[24..32].copy_from_slice(&999_900_000_000u64.to_be_bytes());
        f
    }

    fn flipped(tmpl: &[u8], byte: usize, bit: u8) -> DropKind {
        let mut f = tmpl.to_vec();
        f[byte] ^= 1 << bit;
        bitflip_fate(tmpl, &f, 1_000_100_500_000)
    }

    #[test]
    fn bitflip_taxonomy_follows_the_wire_layout() {
        let t = frame(4, 64);
        assert_eq!(flipped(&t, 0, 3), DropKind::Parse);
        assert_eq!(flipped(&t, 1, 0), DropKind::BadHvf);
        assert_eq!(flipped(&t, 1, 1), DropKind::Duplicate);
        assert_eq!(flipped(&t, 1, 5), DropKind::Parse);
        // path_len 4 → 5 still fits the frame, 4 → 20 does not, 4 → 0 is invalid.
        assert_eq!(flipped(&t, 2, 0), DropKind::BadHvf);
        assert_eq!(flipped(&t, 2, 4), DropKind::Parse);
        assert_eq!(flipped(&t, 2, 2), DropKind::Parse);
        assert_eq!(flipped(&t, 3, 1), DropKind::BadHvf);
        assert_eq!(flipped(&t, 3, 2), DropKind::Parse);
        assert_eq!(flipped(&t, 4, 0), DropKind::Parse);
        assert_eq!(flipped(&t, 9, 0), DropKind::BadHvf);
        assert_eq!(flipped(&t, 13, 7), DropKind::BadHvf);
        // exp_t 2000 → 976 s is in the past at 1000.1 s; 2000 → 2001 s is stale.
        assert_eq!(flipped(&t, 20, 2), DropKind::Expired);
        assert_eq!(flipped(&t, 21, 0), DropKind::Stale);
        assert_eq!(flipped(&t, 22, 0), DropKind::Parse);
        // ts: 1 ns off is inside the window (the MAC catches it), 2³⁶ ns is not.
        assert_eq!(flipped(&t, 31, 0), DropKind::BadHvf);
        assert_eq!(flipped(&t, 27, 4), DropKind::Stale);
        assert_eq!(flipped(&t, 33, 0), DropKind::BadHvf);
        // Own hop field and HVF are authenticated; later hops' are not.
        assert_eq!(flipped(&t, 41, 0), DropKind::BadHvf);
        assert_eq!(flipped(&t, 45, 0), DropKind::Duplicate);
        assert_eq!(flipped(&t, 57, 0), DropKind::BadHvf);
        assert_eq!(flipped(&t, 61, 0), DropKind::Duplicate);
        assert_eq!(flipped(&t, 80, 0), DropKind::Duplicate);
    }
}

//! The Colibri border router (paper §4.6) — stateless per-flow forwarding.
//!
//! Per packet, the router
//!
//! 1. validates the packet format, header contents, freshness, and
//!    reservation expiry;
//! 2. recomputes the hop validation field from nothing but its AS-local
//!    secret value — for a SegR packet via Eq. 3, for an EER packet via
//!    the two-step Eq. 4 → Eq. 6 construction (Fig. 2) — and compares it
//!    in constant time;
//! 3. runs the transit monitoring pipeline (blocklist, duplicate
//!    suppression, probabilistic overuse detection);
//! 4. forwards to the egress interface from the packet-carried path, to
//!    the local CServ (SegR/control packets), or to the destination host
//!    (last hop of an EER).
//!
//! No lookup touches per-flow or per-reservation state; the only
//! router-resident state is the monitoring sketch and the (tiny)
//! blocklist, both bounded.

use colibri_base::{Bandwidth, Duration, HostAddr, Instant, InterfaceId, IsdAsId};
use colibri_crypto::{ct_eq, Cmac, Epoch, SecretValueGen};
use colibri_monitor::{MonitorAction, OveruseReport, TransitMonitor, TransitMonitorConfig};
use colibri_wire::mac::{
    eer_hvf4_with, eer_hvf8_with, eer_hvf_with, hop_auth4_from_inputs, hop_auth8_from_inputs,
    hop_auth_from_input, hop_auth_input, segr_input, segr_token4_from_inputs,
    segr_token8_from_inputs, segr_token_from_input,
};
use colibri_wire::{EerInfo, HopField, PacketViewMut, ResInfo, HVF_LEN};

use crate::crypto_cache::{
    CryptoCacheConfig, CryptoCacheStats, RouterCryptoCaches, SegrKey, SigmaKey,
};
use crate::telemetry::RouterTelemetry;
use colibri_telemetry::Registry;

/// Why the router dropped a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Malformed packet.
    ParseError,
    /// The reservation has expired.
    ReservationExpired,
    /// The timestamp is outside the freshness window.
    Stale,
    /// The hop validation field did not verify — unauthentic traffic.
    BadHvf,
    /// The source AS is blocklisted (policing).
    Blocked,
    /// Duplicate packet (replay suppression).
    Duplicate,
    /// Excess traffic of a deterministically shaped flow.
    Shaped,
}

/// The router's verdict for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterVerdict {
    /// Forward out of `egress` towards the next AS; `curr_hop` has been
    /// advanced so the next router checks its own HVF.
    Forward(InterfaceId),
    /// Last hop of an EER: deliver to the destination host.
    DeliverHost(HostAddr),
    /// SegR/control packet terminating here: hand to the local CServ.
    DeliverCserv,
    /// Drop, with the reason (counted in [`RouterStats`]).
    Drop(DropReason),
}

/// Router configuration.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Maximum acceptable packet age (plus skew) — the paper assumes
    /// inter-AS clock synchronization within ±0.1 s.
    pub freshness: Duration,
    /// Clock-skew allowance for timestamps slightly in the future.
    pub skew: Duration,
    /// Monitoring pipeline parameters.
    pub monitor: TransitMonitorConfig,
    /// Whether the monitoring pipeline (blocklist, duplicate suppression,
    /// OFD) runs. The paper's §7.1 evaluates the router with the
    /// duplicate-suppression system considered a separate component;
    /// benchmarks reproduce that by disabling monitoring here. Production
    /// configurations keep it on.
    pub monitoring: bool,
    /// Capacities of the reservation-scoped crypto caches (DESIGN.md §10).
    /// Set both to 0 ([`CryptoCacheConfig::DISABLED`]) to force the
    /// always-recompute paths.
    pub cache: CryptoCacheConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            freshness: Duration::from_secs(1),
            skew: Duration::from_millis(100),
            monitor: TransitMonitorConfig::default(),
            monitoring: true,
            cache: CryptoCacheConfig::default(),
        }
    }
}

/// Per-verdict counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Packets forwarded or delivered.
    pub forwarded: u64,
    /// Drops by reason: parse, expired, stale, bad HVF, blocked, duplicate.
    pub parse_errors: u64,
    /// Expired-reservation drops.
    pub expired: u64,
    /// Freshness-window drops.
    pub stale: u64,
    /// Cryptographic verification failures.
    pub bad_hvf: u64,
    /// Blocklist drops.
    pub blocked: u64,
    /// Replay drops.
    pub duplicates: u64,
    /// Shaping drops (deterministically monitored flows over their rate).
    pub shaped: u64,
}

impl RouterStats {
    /// Folds another stats snapshot into this one (shard aggregation).
    pub fn merge(&mut self, other: &RouterStats) {
        self.forwarded += other.forwarded;
        self.parse_errors += other.parse_errors;
        self.expired += other.expired;
        self.stale += other.stale;
        self.bad_hvf += other.bad_hvf;
        self.blocked += other.blocked;
        self.duplicates += other.duplicates;
        self.shaped += other.shaped;
    }

    /// The field-wise difference `self - earlier` (counters are
    /// monotone; saturates at zero).
    pub fn delta_since(&self, earlier: &RouterStats) -> RouterStats {
        RouterStats {
            forwarded: self.forwarded.saturating_sub(earlier.forwarded),
            parse_errors: self.parse_errors.saturating_sub(earlier.parse_errors),
            expired: self.expired.saturating_sub(earlier.expired),
            stale: self.stale.saturating_sub(earlier.stale),
            bad_hvf: self.bad_hvf.saturating_sub(earlier.bad_hvf),
            blocked: self.blocked.saturating_sub(earlier.blocked),
            duplicates: self.duplicates.saturating_sub(earlier.duplicates),
            shaped: self.shaped.saturating_sub(earlier.shaped),
        }
    }

    /// Total packets seen (forwarded plus every drop class).
    pub fn processed(&self) -> u64 {
        self.forwarded
            + self.parse_errors
            + self.expired
            + self.stale
            + self.bad_hvf
            + self.blocked
            + self.duplicates
            + self.shaped
    }
}

/// The border router of one AS.
pub struct BorderRouter {
    isd_as: IsdAsId,
    cfg: RouterConfig,
    svgen: SecretValueGen,
    k_i_cache: Option<(Epoch, Cmac)>,
    caches: RouterCryptoCaches,
    monitor: TransitMonitor,
    telemetry: Option<RouterTelemetry>,
    /// Counters.
    pub stats: RouterStats,
}

impl BorderRouter {
    /// Creates a border router sharing the AS's master secret (routers and
    /// the CServ derive the same per-epoch secret value `K_i`).
    pub fn new(isd_as: IsdAsId, master_secret: &[u8; 16], cfg: RouterConfig) -> Self {
        Self {
            isd_as,
            svgen: SecretValueGen::new(master_secret),
            k_i_cache: None,
            caches: RouterCryptoCaches::new(cfg.cache),
            monitor: TransitMonitor::new(cfg.monitor),
            telemetry: None,
            cfg,
            stats: RouterStats::default(),
        }
    }

    /// Attaches telemetry (verdict counters, cache counters, batch
    /// histograms, and the monitor's detection counters), registered
    /// under `shard` in `registry`. Detached routers — the default —
    /// pay one predictable branch per `process`/`process_batch` call.
    ///
    /// Counters are recorded as deltas of [`RouterStats`] /
    /// [`CryptoCacheStats`] at the end of each call, so the exported
    /// Invariant metrics are bit-identical between the scalar and
    /// batched paths whenever the stats structs are (which the
    /// differential proptests guarantee).
    pub fn attach_telemetry(&mut self, registry: &Registry, shard: &str) {
        self.telemetry = Some(RouterTelemetry::new(registry, shard));
        self.monitor.attach_telemetry(registry, shard);
    }

    fn flush_telemetry(&mut self) {
        if self.telemetry.is_some() {
            let stats = self.stats;
            let cache = self.caches.stats();
            if let Some(t) = &mut self.telemetry {
                t.record(&stats, &cache);
            }
        }
    }

    /// The AS this router belongs to.
    pub fn isd_as(&self) -> IsdAsId {
        self.isd_as
    }

    /// Hit/miss/eviction counters of the crypto caches.
    pub fn cache_stats(&self) -> CryptoCacheStats {
        self.caches.stats()
    }

    /// Rolls `K_i` and the crypto caches to `epoch`. Afterwards
    /// `k_i_cache` is `Some` for that epoch, so callers can split the
    /// borrow — immutable `K_i` alongside the mutable caches — without
    /// cloning the expanded CMAC state.
    fn ensure_epoch(&mut self, epoch: Epoch) {
        if self.k_i_cache.as_ref().map(|(e, _)| *e) != Some(epoch) {
            self.k_i_cache = Some((epoch, self.svgen.secret_value(epoch).cmac()));
        }
        self.caches.ensure_epoch(epoch);
    }

    fn drop(&mut self, reason: DropReason) -> RouterVerdict {
        match reason {
            DropReason::ParseError => self.stats.parse_errors += 1,
            DropReason::ReservationExpired => self.stats.expired += 1,
            DropReason::Stale => self.stats.stale += 1,
            DropReason::BadHvf => self.stats.bad_hvf += 1,
            DropReason::Blocked => self.stats.blocked += 1,
            DropReason::Duplicate => self.stats.duplicates += 1,
            DropReason::Shaped => self.stats.shaped += 1,
        }
        RouterVerdict::Drop(reason)
    }

    /// Processes one Colibri packet in place (mutable: `curr_hop` is
    /// advanced on forward).
    ///
    /// The packet is parsed exactly once: the same [`PacketViewMut`]
    /// serves header validation, the HVF read, and the final hop advance.
    pub fn process(&mut self, pkt: &mut [u8], now: Instant) -> RouterVerdict {
        let verdict = self.process_inner(pkt, now);
        self.flush_telemetry();
        verdict
    }

    fn process_inner(&mut self, pkt: &mut [u8], now: Instant) -> RouterVerdict {
        let mut view = match PacketViewMut::parse(pkt) {
            Ok(v) => v,
            Err(_) => return self.drop(DropReason::ParseError),
        };
        let res_info = view.res_info();
        // Reservation must not be expired (§4.6).
        if now >= res_info.exp_t {
            return self.drop(DropReason::ReservationExpired);
        }
        // Freshness: Ts encodes the send time relative to ExpT.
        let ts = view.ts();
        let send_time = Instant::from_nanos(res_info.exp_t.as_nanos().saturating_sub(ts));
        if send_time.saturating_since(now) > self.cfg.skew
            || now.saturating_since(send_time) > self.cfg.freshness
        {
            return self.drop(DropReason::Stale);
        }
        let curr = view.curr_hop();
        let hop = view.hop(curr);
        let pkt_size = view.pkt_size();
        let is_eer = view.is_eer();
        let eer_info = view.eer_info();
        let epoch = Epoch::containing(now);
        self.ensure_epoch(epoch);
        // Cryptographic validation — derived from the AS secret only; the
        // caches are soft state keyed by the exact authenticated bytes
        // (DESIGN.md §10), so hit and miss verdicts are interchangeable.
        let valid = {
            let Self { k_i_cache, caches, .. } = &mut *self;
            let k_i = &k_i_cache.as_ref().expect("ensure_epoch ran").1;
            if is_eer {
                // The parser only reports EER when the EerInfo block was
                // present, but these bytes are attacker-controlled: a
                // structural contradiction is a malformed drop, never a
                // panic (DESIGN.md §14 attack model).
                let Some(info) = eer_info else {
                    return self.drop(DropReason::ParseError);
                };
                let key: SigmaKey = hop_auth_input(&res_info, &info, hop);
                let expected = match caches.probe_sigma(&key) {
                    // Hit: one single-block CMAC (1 AES block, 0 expansions).
                    Some(idx) => eer_hvf_with(caches.sigma_at(idx), ts, pkt_size),
                    None => {
                        let sigma = hop_auth_from_input(k_i, &key);
                        let sigma_cmac = sigma.cmac();
                        let expected = eer_hvf_with(&sigma_cmac, ts, pkt_size);
                        caches.insert_sigma(key, sigma_cmac);
                        expected
                    }
                };
                ct_eq(&expected, &view.hvf(curr))
            } else {
                let key: SegrKey = segr_input(&res_info, hop);
                let expected = match caches.probe_segr(&key) {
                    // Hit: zero AES operations — just the compare below.
                    Some(token) => token,
                    None => {
                        let token = segr_token_from_input(k_i, &key);
                        caches.insert_segr(key, token);
                        token
                    }
                };
                ct_eq(&expected, &view.hvf(curr))
            }
        };
        if !valid {
            return self.drop(DropReason::BadHvf);
        }
        // Monitoring & policing — only for authenticated EER data traffic;
        // SegR control traffic is rate-limited at the CServ (§4.8).
        if is_eer && self.cfg.monitoring {
            let action = self.monitor.process_packet(
                res_info.key(),
                res_info.bw.bandwidth(),
                pkt_size as u64,
                ts,
                now,
            );
            match action {
                MonitorAction::Forward => {}
                MonitorAction::DropBlocked => return self.drop(DropReason::Blocked),
                MonitorAction::DropDuplicate => return self.drop(DropReason::Duplicate),
                MonitorAction::DropShaped => return self.drop(DropReason::Shaped),
            }
        }
        self.stats.forwarded += 1;
        if hop.egress.is_local() {
            // `is_eer` implies `eer_info` (guarded above): plain match,
            // no panic path on untrusted bytes.
            match eer_info {
                Some(info) if is_eer => RouterVerdict::DeliverHost(info.dst_host),
                _ => RouterVerdict::DeliverCserv,
            }
        } else {
            view.advance_hop();
            RouterVerdict::Forward(hop.egress)
        }
    }

    /// Processes a batch of packets, producing the same verdicts (and the
    /// same [`RouterStats`]) as calling [`Self::process`] on each packet
    /// in order, but substantially faster:
    ///
    /// * each packet is parsed once, and the per-epoch `K_i` lookup, the
    ///   freshness window, and the monitoring toggle are hoisted out of
    ///   the per-packet loop;
    /// * lanes that hit the reservation-scoped crypto caches skip the
    ///   heavy derivations entirely: SegR hits validate with a
    ///   constant-time compare (zero AES), EER σ-hits with an eight-wide
    ///   single-block CMAC ([`eer_hvf8_with`], one AES block per packet,
    ///   no key expansion);
    /// * miss lanes run the MAC verification eight packets wide — σ
    ///   derivation through [`hop_auth8_from_inputs`] /
    ///   [`segr_token8_from_inputs`] under the shared `K_i`, σ expansion
    ///   through the interleaved [`Cmac::new8`] — so the AES round
    ///   latency of one packet hides behind the other seven; the results
    ///   populate the caches for subsequent packets. Remainders of at
    ///   least four lanes take the 4-wide kernels; shorter tails run
    ///   scalar — all three widths are bit-identical.
    ///
    /// Monitoring (stateful: replay filter, OFD sketch, token buckets)
    /// still runs packet-by-packet in submission order, which is what
    /// makes the verdicts bit-identical to the sequential path.
    pub fn process_batch(&mut self, pkts: &mut [&mut [u8]], now: Instant) -> Vec<RouterVerdict> {
        // Wall clock feeds only the Volatile per-batch latency histogram,
        // sampled one call in `BATCH_CLOCK_SAMPLE`; it never influences
        // processing (determinism rules, DESIGN.md §11).
        let timed = self.telemetry.as_mut().is_some_and(RouterTelemetry::time_batch);
        let wall_start = timed.then(std::time::Instant::now);
        let mut verdicts = vec![RouterVerdict::Drop(DropReason::ParseError); pkts.len()];
        // Phase 1 — parse once and run the stateless header checks,
        // collecting survivors (with everything the crypto and forwarding
        // phases need) as lanes.
        let mut views: Vec<Option<PacketViewMut<'_>>> = Vec::with_capacity(pkts.len());
        let mut lanes: Vec<BatchLane> = Vec::with_capacity(pkts.len());
        for (idx, pkt) in pkts.iter_mut().enumerate() {
            let view = match PacketViewMut::parse(pkt) {
                Ok(v) => v,
                Err(_) => {
                    verdicts[idx] = self.drop(DropReason::ParseError);
                    views.push(None);
                    continue;
                }
            };
            let res_info = view.res_info();
            if now >= res_info.exp_t {
                verdicts[idx] = self.drop(DropReason::ReservationExpired);
                views.push(None);
                continue;
            }
            let ts = view.ts();
            let send_time = Instant::from_nanos(res_info.exp_t.as_nanos().saturating_sub(ts));
            if send_time.saturating_since(now) > self.cfg.skew
                || now.saturating_since(send_time) > self.cfg.freshness
            {
                verdicts[idx] = self.drop(DropReason::Stale);
                views.push(None);
                continue;
            }
            let curr = view.curr_hop();
            lanes.push(BatchLane {
                idx,
                res_info,
                eer_info: view.eer_info(),
                ts,
                hop: view.hop(curr),
                hvf: view.hvf(curr),
                pkt_size: view.pkt_size(),
                valid: false,
            });
            views.push(Some(view));
        }
        // Phase 2 — stateless crypto, four lanes at a time under the
        // hoisted per-epoch key. EER and SegR lanes batch separately
        // (different MAC constructions); crypto has no ordering effects,
        // so regrouping cannot change any verdict. Each class is further
        // split into cache hits (cheap path) and misses (the PR 2 batched
        // path, which then populates the cache). `ensure_epoch` pins
        // `k_i_cache` for this epoch, letting the destructure below hold
        // `K_i` by reference next to the mutable caches — no clone of the
        // expanded CMAC state per batch.
        let epoch = Epoch::containing(now);
        self.ensure_epoch(epoch);
        let Self { k_i_cache, caches, .. } = &mut *self;
        let k_i = &k_i_cache.as_ref().expect("ensure_epoch ran").1;
        // Probe pass, in lane (= submission) order so cache state and
        // counters evolve deterministically. σ hits carry a slot index:
        // probes never move entries, and all inserts happen after every
        // hit slot has been read.
        let mut eer_hits: Vec<(usize, usize)> = Vec::new();
        let mut eer_misses: Vec<(usize, SigmaKey)> = Vec::new();
        let mut segr_misses: Vec<(usize, SegrKey)> = Vec::new();
        for (li, lane) in lanes.iter_mut().enumerate() {
            match &lane.eer_info {
                Some(info) => {
                    let key = hop_auth_input(&lane.res_info, info, lane.hop);
                    match caches.probe_sigma(&key) {
                        Some(slot) => eer_hits.push((li, slot)),
                        None => eer_misses.push((li, key)),
                    }
                }
                None => {
                    let key = segr_input(&lane.res_info, lane.hop);
                    match caches.probe_segr(&key) {
                        // SegR hit: constant-time compare, zero AES calls.
                        Some(token) => lane.valid = ct_eq(&token, &lane.hvf),
                        None => segr_misses.push((li, key)),
                    }
                }
            }
        }
        // EER hits: Eq. 6 over pre-expanded σ instances — eight packets
        // for eight AES blocks, no key expansion. Remainders of four run
        // the 4-wide kernel; anything shorter falls back to scalar.
        for chunk in eer_hits.chunks(8) {
            if chunk.len() == 8 {
                let oct: [(usize, usize); 8] = chunk.try_into().expect("len checked");
                let expected = eer_hvf8_with(
                    oct.map(|(_, slot)| caches.sigma_at(slot)),
                    oct.map(|(li, _)| (lanes[li].ts, lanes[li].pkt_size)),
                );
                for (j, (li, _)) in oct.into_iter().enumerate() {
                    let hvf = lanes[li].hvf;
                    lanes[li].valid = ct_eq(&expected[j], &hvf);
                }
                continue;
            }
            let (head, tail) =
                if chunk.len() >= 4 { chunk.split_at(4) } else { (&[][..], chunk) };
            if let [a, b, c, d] = *head {
                let quad = [a, b, c, d];
                let expected = eer_hvf4_with(
                    quad.map(|(_, slot)| caches.sigma_at(slot)),
                    quad.map(|(li, _)| (lanes[li].ts, lanes[li].pkt_size)),
                );
                for (j, (li, _)) in quad.into_iter().enumerate() {
                    let hvf = lanes[li].hvf;
                    lanes[li].valid = ct_eq(&expected[j], &hvf);
                }
            }
            for &(li, slot) in tail {
                let l = &lanes[li];
                let expected = eer_hvf_with(caches.sigma_at(slot), l.ts, l.pkt_size);
                let valid = ct_eq(&expected, &l.hvf);
                lanes[li].valid = valid;
            }
        }
        // EER misses: batched Eq. 4 under K_i, then expand the eight σ
        // into CMAC instances (interleaved, [`Cmac::new8`]) for Eq. 6 —
        // bit-identical to the scalar path, which performs exactly this
        // expansion internally — and keep the instances for the next
        // packet of each reservation. Remainders of four take the 4-wide
        // kernel; shorter tails run scalar.
        for chunk in eer_misses.chunks(8) {
            if chunk.len() == 8 {
                let sigmas = hop_auth8_from_inputs(
                    k_i,
                    core::array::from_fn(|j| &chunk[j].1),
                );
                let sigma_cmacs = Cmac::new8(core::array::from_fn(|j| &sigmas[j].0));
                let oct: [usize; 8] = core::array::from_fn(|j| chunk[j].0);
                let expected = eer_hvf8_with(
                    core::array::from_fn(|j| &sigma_cmacs[j]),
                    oct.map(|li| (lanes[li].ts, lanes[li].pkt_size)),
                );
                for (j, li) in oct.into_iter().enumerate() {
                    let hvf = lanes[li].hvf;
                    lanes[li].valid = ct_eq(&expected[j], &hvf);
                }
                for ((_, key), sigma_cmac) in chunk.iter().zip(sigma_cmacs) {
                    caches.insert_sigma(*key, sigma_cmac);
                }
                continue;
            }
            let (head, tail) =
                if chunk.len() >= 4 { chunk.split_at(4) } else { (&[][..], chunk) };
            if let [a, b, c, d] = head {
                let sigmas =
                    hop_auth4_from_inputs(k_i, [&a.1, &b.1, &c.1, &d.1]);
                let sigma_cmacs =
                    Cmac::new4([&sigmas[0].0, &sigmas[1].0, &sigmas[2].0, &sigmas[3].0]);
                let quad = [a.0, b.0, c.0, d.0];
                let expected = eer_hvf4_with(
                    [&sigma_cmacs[0], &sigma_cmacs[1], &sigma_cmacs[2], &sigma_cmacs[3]],
                    quad.map(|li| (lanes[li].ts, lanes[li].pkt_size)),
                );
                for (j, li) in quad.into_iter().enumerate() {
                    let hvf = lanes[li].hvf;
                    lanes[li].valid = ct_eq(&expected[j], &hvf);
                }
                for ((_, key), sigma_cmac) in head.iter().zip(sigma_cmacs) {
                    caches.insert_sigma(*key, sigma_cmac);
                }
            }
            for (li, key) in tail {
                let sigma = hop_auth_from_input(k_i, key);
                let sigma_cmac = sigma.cmac();
                let l = &lanes[*li];
                let expected = eer_hvf_with(&sigma_cmac, l.ts, l.pkt_size);
                let valid = ct_eq(&expected, &l.hvf);
                lanes[*li].valid = valid;
                caches.insert_sigma(*key, sigma_cmac);
            }
        }
        // SegR misses: batched Eq. 3 (eight wide), populating the token
        // cache; 4-wide / scalar remainder handling as above.
        for chunk in segr_misses.chunks(8) {
            if chunk.len() == 8 {
                let expected =
                    segr_token8_from_inputs(k_i, core::array::from_fn(|j| &chunk[j].1));
                for (j, (li, key)) in chunk.iter().enumerate() {
                    let hvf = lanes[*li].hvf;
                    lanes[*li].valid = ct_eq(&expected[j], &hvf);
                    caches.insert_segr(*key, expected[j]);
                }
                continue;
            }
            let (head, tail) =
                if chunk.len() >= 4 { chunk.split_at(4) } else { (&[][..], chunk) };
            if let [a, b, c, d] = head {
                let expected = segr_token4_from_inputs(k_i, [&a.1, &b.1, &c.1, &d.1]);
                for (j, (li, key)) in head.iter().enumerate() {
                    let hvf = lanes[*li].hvf;
                    lanes[*li].valid = ct_eq(&expected[j], &hvf);
                    caches.insert_segr(*key, expected[j]);
                }
            }
            for (li, key) in tail {
                let token = segr_token_from_input(k_i, key);
                let l = &lanes[*li];
                let valid = ct_eq(&token, &l.hvf);
                lanes[*li].valid = valid;
                caches.insert_segr(*key, token);
            }
        }
        // Phase 3 — stateful monitoring and forwarding, in submission
        // order (lanes are already index-ordered).
        let monitoring = self.cfg.monitoring;
        for lane in &lanes {
            if !lane.valid {
                verdicts[lane.idx] = self.drop(DropReason::BadHvf);
                continue;
            }
            let is_eer = lane.eer_info.is_some();
            if is_eer && monitoring {
                let action = self.monitor.process_packet(
                    lane.res_info.key(),
                    lane.res_info.bw.bandwidth(),
                    lane.pkt_size as u64,
                    lane.ts,
                    now,
                );
                let dropped = match action {
                    MonitorAction::Forward => None,
                    MonitorAction::DropBlocked => Some(DropReason::Blocked),
                    MonitorAction::DropDuplicate => Some(DropReason::Duplicate),
                    MonitorAction::DropShaped => Some(DropReason::Shaped),
                };
                if let Some(reason) = dropped {
                    verdicts[lane.idx] = self.drop(reason);
                    continue;
                }
            }
            self.stats.forwarded += 1;
            // Both arms avoid unwrap/expect on lane state derived from
            // untrusted bytes: `eer_info` is matched directly (it *is*
            // the is_eer witness), and a missing view — impossible for a
            // lane that passed phase 1 — degrades to not advancing the
            // hop rather than panicking mid-batch.
            verdicts[lane.idx] = if lane.hop.egress.is_local() {
                match lane.eer_info {
                    Some(info) => RouterVerdict::DeliverHost(info.dst_host),
                    None => RouterVerdict::DeliverCserv,
                }
            } else {
                let view = views[lane.idx].as_mut();
                debug_assert!(view.is_some(), "valid lane without a parsed view");
                if let Some(view) = view {
                    view.advance_hop();
                }
                RouterVerdict::Forward(lane.hop.egress)
            };
        }
        if let Some(t) = &self.telemetry {
            t.observe_batch(pkts.len(), wall_start.map(|s| s.elapsed().as_nanos() as u64));
            self.flush_telemetry();
        }
        verdicts
    }

    /// Drains pending overuse reports (router → local CServ, §4.8).
    pub fn take_overuse_reports(&mut self) -> Vec<OveruseReport> {
        self.monitor.take_reports()
    }

    /// Blocks a source AS on instruction (e.g. from the CServ).
    pub fn block_source(&mut self, src_as: IsdAsId, until: Option<Instant>) {
        self.monitor.block(src_as, until);
    }

    /// Places a flow under deterministic token-bucket shaping at `bw`
    /// (the Table 2 phase 3 router state: suspicious flows are limited to
    /// their guaranteed bandwidth, not blocked).
    pub fn force_shape(&mut self, key: colibri_base::ReservationKey, bw: Bandwidth, now: Instant) {
        self.monitor.force_shape(key, bw, now);
    }

    /// Whether a source is currently blocked.
    pub fn is_blocked(&mut self, src_as: IsdAsId, now: Instant) -> bool {
        self.monitor.is_blocked(src_as, now)
    }
}

/// Everything the crypto and forwarding phases of [`BorderRouter::process_batch`]
/// need about one surviving packet — all `Copy` data lifted out of the
/// parse phase, so no borrow of the packet buffers is held across phases.
struct BatchLane {
    /// Index into the caller's batch (and the verdict vector).
    idx: usize,
    res_info: ResInfo,
    /// `Some` for EER data packets, `None` for SegR/control packets.
    eer_info: Option<EerInfo>,
    ts: u64,
    hop: HopField,
    hvf: [u8; HVF_LEN],
    pkt_size: usize,
    /// Set by the crypto phase.
    valid: bool,
}

impl std::fmt::Debug for BorderRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BorderRouter")
            .field("isd_as", &self.isd_as)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colibri_base::{BwClass, IsdAsId, ResId};
    use colibri_wire::mac::{eer_hvf, hop_auth, segr_token};
    use colibri_wire::{EerInfo, HopField, PacketBuilder, PacketViewMut, ResInfo};

    const SECRET: [u8; 16] = [0x55; 16];

    fn router() -> BorderRouter {
        BorderRouter::new(IsdAsId::new(1, 5), &SECRET, RouterConfig::default())
    }

    fn res_info(exp_s: u64) -> ResInfo {
        ResInfo {
            src_as: IsdAsId::new(1, 10),
            res_id: ResId(3),
            bw: BwClass(30),
            exp_t: Instant::from_secs(exp_s),
            ver: 0,
        }
    }

    /// Builds a correctly authenticated EER packet positioned at hop 1
    /// (this router's hop), sent at `send` towards expiry `exp_s`.
    fn valid_eer_packet(exp_s: u64, send: Instant) -> Vec<u8> {
        let ri = res_info(exp_s);
        let info = EerInfo { src_host: HostAddr(1), dst_host: HostAddr(2) };
        let path = [HopField::new(0, 1), HopField::new(2, 3), HopField::new(4, 0)];
        let ts = ri.exp_t.as_nanos() - send.as_nanos();
        let mut pkt =
            PacketBuilder::eer(ri, info).path(path).ts(ts).build(b"payload").unwrap();
        let k_i = SecretValueGen::new(&SECRET).secret_value(Epoch::containing(send)).cmac();
        let size = pkt.len();
        {
            let mut v = PacketViewMut::parse(&mut pkt).unwrap();
            let sigma = hop_auth(&k_i, &ri, &info, path[1]);
            v.set_hvf(1, eer_hvf(&sigma, ts, size));
            v.set_curr_hop(1);
        }
        pkt
    }

    #[test]
    fn forwards_valid_packet_and_advances_hop() {
        let mut r = router();
        let now = Instant::from_secs(10);
        let mut pkt = valid_eer_packet(20, now);
        assert_eq!(r.process(&mut pkt, now), RouterVerdict::Forward(InterfaceId(3)));
        assert_eq!(colibri_wire::PacketView::parse(&pkt).unwrap().curr_hop(), 2);
        assert_eq!(r.stats.forwarded, 1);
    }

    #[test]
    fn garbage_is_a_parse_error() {
        let mut r = router();
        let mut junk = vec![0xFFu8; 64];
        assert_eq!(
            r.process(&mut junk, Instant::from_secs(1)),
            RouterVerdict::Drop(DropReason::ParseError)
        );
        assert_eq!(r.stats.parse_errors, 1);
    }

    #[test]
    fn expiry_checked_before_crypto() {
        let mut r = router();
        let now = Instant::from_secs(30);
        let mut pkt = valid_eer_packet(20, Instant::from_secs(10));
        assert_eq!(r.process(&mut pkt, now), RouterVerdict::Drop(DropReason::ReservationExpired));
    }

    #[test]
    fn future_packets_rejected_beyond_skew() {
        let mut r = router();
        let now = Instant::from_secs(10);
        // Claims to have been sent 5 s in the future.
        let mut pkt = valid_eer_packet(20, now + Duration::from_secs(5));
        assert_eq!(r.process(&mut pkt, now), RouterVerdict::Drop(DropReason::Stale));
        // Within the 100 ms skew allowance it passes.
        let mut pkt = valid_eer_packet(20, now + Duration::from_millis(50));
        assert!(matches!(r.process(&mut pkt, now), RouterVerdict::Forward(_)));
        assert_eq!(r.stats.stale, 1);
    }

    #[test]
    fn segr_packet_delivered_to_cserv() {
        let mut r = router();
        let now = Instant::from_secs(10);
        let ri = res_info(300);
        let path = [HopField::new(0, 1), HopField::new(2, 0)];
        let ts = ri.exp_t.as_nanos() - now.as_nanos();
        let mut pkt = PacketBuilder::segr(ri).control().path(path).ts(ts).build(b"req").unwrap();
        let k_i = SecretValueGen::new(&SECRET).secret_value(Epoch::containing(now)).cmac();
        {
            let mut v = PacketViewMut::parse(&mut pkt).unwrap();
            v.set_hvf(1, segr_token(&k_i, &ri, path[1]));
            v.set_curr_hop(1);
        }
        assert_eq!(r.process(&mut pkt, now), RouterVerdict::DeliverCserv);
    }

    #[test]
    fn last_hop_delivers_to_destination_host() {
        let mut r = router();
        let now = Instant::from_secs(10);
        let ri = res_info(20);
        let info = EerInfo { src_host: HostAddr(1), dst_host: HostAddr(42) };
        let path = [HopField::new(0, 1), HopField::new(2, 0)];
        let ts = ri.exp_t.as_nanos() - now.as_nanos();
        let mut pkt = PacketBuilder::eer(ri, info).path(path).ts(ts).build(b"x").unwrap();
        let k_i = SecretValueGen::new(&SECRET).secret_value(Epoch::containing(now)).cmac();
        let size = pkt.len();
        {
            let mut v = PacketViewMut::parse(&mut pkt).unwrap();
            let sigma = hop_auth(&k_i, &ri, &info, path[1]);
            v.set_hvf(1, eer_hvf(&sigma, ts, size));
            v.set_curr_hop(1);
        }
        assert_eq!(r.process(&mut pkt, now), RouterVerdict::DeliverHost(HostAddr(42)));
    }

    #[test]
    fn monitoring_toggle_controls_replay_checks() {
        let now = Instant::from_secs(10);
        let mut on = router();
        let pkt = valid_eer_packet(20, now);
        let mut a = pkt.clone();
        let mut b = pkt.clone();
        assert!(matches!(on.process(&mut a, now), RouterVerdict::Forward(_)));
        assert_eq!(on.process(&mut b, now), RouterVerdict::Drop(DropReason::Duplicate));
        let mut off = BorderRouter::new(
            IsdAsId::new(1, 5),
            &SECRET,
            RouterConfig { monitoring: false, ..RouterConfig::default() },
        );
        let mut a = pkt.clone();
        let mut b = pkt;
        assert!(matches!(off.process(&mut a, now), RouterVerdict::Forward(_)));
        assert!(matches!(off.process(&mut b, now), RouterVerdict::Forward(_)));
    }

    #[test]
    fn shaped_flow_limited() {
        let mut r = router();
        let now = Instant::from_secs(10);
        let key = res_info(20).key();
        r.force_shape(key, Bandwidth::from_kbps(8), now);
        let mut passed = 0;
        for i in 0..100u64 {
            // Distinct timestamps (within skew) so the replay filter does
            // not mask the shaping path.
            let mut pkt = valid_eer_packet(20, now + Duration::from_nanos(i));
            if matches!(r.process(&mut pkt, now), RouterVerdict::Forward(_)) {
                passed += 1;
            }
        }
        assert!(passed < 30, "shaping ineffective: {passed}");
        assert!(r.stats.shaped > 0);
    }
}

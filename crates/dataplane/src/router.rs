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
//! No lookup touches per-flow or per-reservation state, and every
//! packet-hop costs the same crypto whatever the working set: the only
//! crypto state is the per-epoch `K_i` (DESIGN.md §10). The only
//! router-resident state is the monitoring sketch and the (tiny)
//! blocklist, both bounded.

use colibri_base::{Bandwidth, Duration, HostAddr, Instant, InterfaceId, IsdAsId};
use colibri_crypto::{ct_eq, Cmac, Epoch, SecretValueGen};
use colibri_monitor::{MonitorAction, OveruseReport, TransitMonitor, TransitMonitorConfig};
use colibri_wire::mac::{eer_hvfs, hop_auth_blocks, hop_auths, segr_blocks, segr_tokens};
use colibri_wire::{EerInfo, HopField, PacketViewMut, ResInfo, HVF_LEN};

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
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            freshness: Duration::from_secs(1),
            skew: Duration::from_millis(100),
            monitor: TransitMonitorConfig::default(),
            monitoring: true,
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

/// σ counters in the shape of a σ-cache's, for [`BorderRouter::cache_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SigmaStats {
    /// Always 0: the router caches no σ.
    pub sigma_hits: u64,
    /// σ derivations (Eq. 4 + key expansion): one per EER packet-hop that
    /// reaches the crypto check, scalar and batched alike.
    pub sigma_misses: u64,
    /// Always 0: there is nothing to evict.
    pub sigma_evictions: u64,
}

/// The border router of one AS.
pub struct BorderRouter {
    isd_as: IsdAsId,
    cfg: RouterConfig,
    svgen: SecretValueGen,
    /// The per-epoch secret `K_i`, derived once per DRKey epoch — the
    /// router's only crypto state.
    k_i: Option<(Epoch, Cmac)>,
    /// σ derivations so far (see [`SigmaStats::sigma_misses`]).
    sigma_derivations: u64,
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
            k_i: None,
            sigma_derivations: 0,
            monitor: TransitMonitor::new(cfg.monitor),
            telemetry: None,
            cfg,
            stats: RouterStats::default(),
        }
    }

    /// Attaches telemetry (verdict counters, batch histograms, and the
    /// monitor's detection counters), registered under `shard` in
    /// `registry`. Detached routers — the default — pay one predictable
    /// branch per `process`/`process_batch` call.
    ///
    /// Counters are recorded as deltas of [`RouterStats`] at the end of
    /// each call, so the exported Invariant metrics are bit-identical
    /// between the scalar and batched paths whenever the stats are (which
    /// the differential proptests guarantee). The router is the only
    /// writer of `shard`'s router cells and updates them without locked
    /// instructions: routers driven from different threads need distinct
    /// shard labels.
    pub fn attach_telemetry(&mut self, registry: &Registry, shard: &str) {
        self.telemetry = Some(RouterTelemetry::new(registry, shard));
        self.monitor.attach_telemetry(registry, shard);
    }

    fn flush_telemetry(&mut self) {
        if let Some(t) = &mut self.telemetry {
            t.record(&self.stats);
        }
    }

    /// The AS this router belongs to.
    pub fn isd_as(&self) -> IsdAsId {
        self.isd_as
    }

    /// The benchmark's view of a router that caches nothing: every EER
    /// packet-hop that reaches the crypto check counts as a σ miss, and
    /// hits and evictions stay 0.
    pub fn cache_stats(&self) -> SigmaStats {
        SigmaStats { sigma_misses: self.sigma_derivations, ..SigmaStats::default() }
    }

    /// `K_i` for `epoch`, derived on the first packet of each epoch.
    fn k_i(&mut self, epoch: Epoch) -> &Cmac {
        if self.k_i.as_ref().map(|(e, _)| *e) != Some(epoch) {
            self.k_i = Some((epoch, self.svgen.secret_value(epoch).cmac()));
        }
        &self.k_i.as_ref().expect("K_i derived above").1
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
    /// This is [`Self::process_batch`]'s group of packets at width 1.
    pub fn process(&mut self, pkt: &mut [u8], now: Instant) -> RouterVerdict {
        let [verdict, ..] = self.process_group(&mut [pkt], now);
        self.flush_telemetry();
        verdict
    }

    /// Runs up to [`GROUP`] packets through the router, all state on the
    /// stack: screen each packet (parse once, stateless header checks),
    /// then the MAC checks of the survivors under the per-epoch `K_i` —
    /// the EER lanes through Eq. 4 and Eq. 6 under their fresh σ, the
    /// SegR lanes through Eq. 3, each kernel as wide as the lanes allow —
    /// then monitoring and forwarding in submission order. Returns the
    /// verdicts of `pkts` in order; entries past `pkts.len()` are unused.
    fn process_group(&mut self, pkts: &mut [&mut [u8]], now: Instant) -> [RouterVerdict; GROUP] {
        let mut verdicts = [RouterVerdict::Drop(DropReason::ParseError); GROUP];
        let mut slots: [Option<(PacketViewMut<'_>, Lane)>; GROUP] = [const { None }; GROUP];
        let (mut eer, mut segr) = (Lanes::default(), Lanes::default());
        for (i, pkt) in pkts.iter_mut().enumerate() {
            match self.screen(pkt, now) {
                Ok((view, lane)) => {
                    match lane.eer_info {
                        Some(_) => eer.push(i),
                        None => segr.push(i),
                    }
                    slots[i] = Some((view, lane));
                }
                Err(dropped) => verdicts[i] = dropped,
            }
        }
        // Crypto has no ordering effects, so running the EER lanes apart
        // from the SegR lanes cannot change any verdict.
        let mut valid = [false; GROUP];
        if eer.len + segr.len > 0 {
            self.sigma_derivations += eer.len as u64;
            let k_i = self.k_i(Epoch::containing(now));
            let lanes = Screened(&slots);
            for_each_by_width(eer.get(), &EerCheck(k_i, lanes), |&i, ok| valid[i] = ok);
            for_each_by_width(segr.get(), &SegrCheck(k_i, lanes), |&i, ok| valid[i] = ok);
        }
        for (i, slot) in slots.iter_mut().enumerate() {
            if let Some((view, lane)) = slot {
                verdicts[i] = self.finish(lane, valid[i], view, now);
            }
        }
        verdicts
    }

    /// Parses `pkt` once and runs the stateless header checks (§4.6):
    /// expiry, then freshness (`Ts` encodes the send time relative to
    /// `ExpT`). A survivor comes back as its view plus a [`Lane`] holding
    /// everything the crypto and forwarding steps need.
    #[inline]
    fn screen<'a>(
        &mut self,
        pkt: &'a mut [u8],
        now: Instant,
    ) -> Result<(PacketViewMut<'a>, Lane), RouterVerdict> {
        let Ok(view) = PacketViewMut::parse(pkt) else {
            return Err(self.drop(DropReason::ParseError));
        };
        let res_info = view.res_info();
        if now >= res_info.exp_t {
            return Err(self.drop(DropReason::ReservationExpired));
        }
        let ts = view.ts();
        let send_time = Instant::from_nanos(res_info.exp_t.as_nanos().saturating_sub(ts));
        if send_time.saturating_since(now) > self.cfg.skew
            || now.saturating_since(send_time) > self.cfg.freshness
        {
            return Err(self.drop(DropReason::Stale));
        }
        let curr = view.curr_hop();
        let lane = Lane {
            res_info,
            eer_info: view.eer_info(),
            ts,
            hop: view.hop(curr),
            hvf: view.hvf(curr),
            pkt_size: view.pkt_size(),
        };
        Ok((view, lane))
    }

    /// Drops a lane whose HVF did not verify; polices an authentic one
    /// (monitoring runs for EER data traffic only — SegR control traffic
    /// is rate-limited at the CServ, §4.8) and forwards it: delivery on a
    /// local egress, otherwise the hop pointer advances.
    fn finish(
        &mut self,
        lane: &Lane,
        valid: bool,
        view: &mut PacketViewMut<'_>,
        now: Instant,
    ) -> RouterVerdict {
        if !valid {
            return self.drop(DropReason::BadHvf);
        }
        if lane.eer_info.is_some() && self.cfg.monitoring {
            let action = self.monitor.process_packet(
                lane.res_info.key(),
                lane.res_info.bw.bandwidth(),
                lane.pkt_size as u64,
                lane.ts,
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
        if lane.hop.egress.is_local() {
            match lane.eer_info {
                Some(info) => RouterVerdict::DeliverHost(info.dst_host),
                None => RouterVerdict::DeliverCserv,
            }
        } else {
            view.advance_hop();
            RouterVerdict::Forward(lane.hop.egress)
        }
    }

    /// Processes a batch of packets, producing the same verdicts (and the
    /// same [`RouterStats`]) as calling [`Self::process`] on each packet
    /// in order, but substantially faster: the batch runs as consecutive
    /// groups of eight packets, each group one pass of the same code
    /// [`Self::process`] runs at width 1, with nothing on the heap but the
    /// returned verdicts. Within a group,
    ///
    /// * each packet is parsed once, and the per-epoch `K_i` lookup runs
    ///   once for the group;
    /// * the MAC verification runs as many packets wide as the group has
    ///   lanes of one kind (eight, then four, then one by one): EER lanes
    ///   through Eq. 4 ([`hop_auths`] under the shared `K_i`) and Eq. 6
    ///   ([`eer_hvfs`] under each lane's fresh σ, whose one key expansion
    ///   is fused with its subkey block), SegR lanes through Eq. 3
    ///   ([`segr_tokens`]). The AES round latency of one packet hides
    ///   behind the others'. Every width is bit-identical and costs the
    ///   same AES blocks and key expansions.
    ///
    /// Monitoring (stateful: replay filter, OFD sketch, token buckets)
    /// runs packet by packet in submission order, group after group, which
    /// is what makes the verdicts bit-identical to the sequential path.
    pub fn process_batch(&mut self, pkts: &mut [&mut [u8]], now: Instant) -> Vec<RouterVerdict> {
        // Wall clock feeds only the Volatile per-batch latency histogram,
        // sampled one call in 8; it never influences processing
        // (determinism rules, DESIGN.md §11).
        let timed = self.telemetry.as_mut().is_some_and(RouterTelemetry::time_batch);
        let wall_start = timed.then(std::time::Instant::now);
        // `K_i` is derived on the first call of each epoch, whatever the
        // packets (as a batch always has).
        self.k_i(Epoch::containing(now));
        let mut verdicts = Vec::with_capacity(pkts.len());
        for group in pkts.chunks_mut(GROUP) {
            verdicts.extend_from_slice(&self.process_group(group, now)[..group.len()]);
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

/// Packets per group of [`BorderRouter::process_batch`]: the widest MAC
/// kernel.
const GROUP: usize = 8;

/// Everything the crypto and forwarding steps need about one packet that
/// passed the header checks — all `Copy` data lifted out of the parse.
struct Lane {
    res_info: ResInfo,
    /// `Some` for EER data packets, `None` for SegR/control packets.
    eer_info: Option<EerInfo>,
    ts: u64,
    hop: HopField,
    hvf: [u8; HVF_LEN],
    pkt_size: usize,
}

/// The slots of a group that hold lanes of one kind, in order.
#[derive(Default)]
struct Lanes {
    slots: [usize; GROUP],
    len: usize,
}

impl Lanes {
    fn push(&mut self, slot: usize) {
        self.slots[self.len] = slot;
        self.len += 1;
    }

    fn get(&self) -> &[usize] {
        &self.slots[..self.len]
    }
}

/// A group's screened packets, read by slot.
#[derive(Clone, Copy)]
struct Screened<'g, 'p>(&'g [Option<(PacketViewMut<'p>, Lane)>; GROUP]);

impl Screened<'_, '_> {
    /// The lane in `slot`, which passed the header checks.
    #[inline]
    fn lanes<const N: usize>(&self, slots: &[usize; N]) -> [&Lane; N] {
        slots.map(|i| &self.0[i].as_ref().expect("a screened slot").1)
    }
}

/// One MAC kernel of the data plane, written once for every lane width:
/// `run::<N>` maps `N` items to `N` results through the `N`-wide crypto
/// primitives. (A trait because closures cannot be generic over `N`.)
pub(crate) trait LaneKernel<T> {
    type Out;
    fn run<const N: usize>(&self, items: &[T; N]) -> [Self::Out; N];
}

/// Runs `items` through `kernel` eight wide, a remaining group of four
/// four wide, and the (at most three) left over one by one, handing every
/// item with its result to `sink` in the order of `items`.
pub(crate) fn for_each_by_width<T, K: LaneKernel<T>>(
    items: &[T],
    kernel: &K,
    mut sink: impl FnMut(&T, K::Out),
) {
    let mut octs = items.chunks_exact(8);
    octs.by_ref().for_each(|oct| run_chunk::<_, _, 8>(kernel, oct, &mut sink));
    let mut quads = octs.remainder().chunks_exact(4);
    quads.by_ref().for_each(|quad| run_chunk::<_, _, 4>(kernel, quad, &mut sink));
    quads.remainder().chunks(1).for_each(|one| run_chunk::<_, _, 1>(kernel, one, &mut sink));
}

fn run_chunk<T, K: LaneKernel<T>, const N: usize>(
    kernel: &K,
    chunk: &[T],
    sink: &mut impl FnMut(&T, K::Out),
) {
    let items: &[T; N] = chunk.try_into().expect("a chunk of N");
    items.iter().zip(kernel.run(items)).for_each(|(item, out)| sink(item, out));
}

/// The EER check: Eq. 4 under `K_i` → Eq. 6 under the fresh σ, compared
/// in constant time with the packet's HVF (Fig. 2).
struct EerCheck<'k, 'g, 'p>(&'k Cmac, Screened<'g, 'p>);

impl LaneKernel<usize> for EerCheck<'_, '_, '_> {
    type Out = bool;

    #[inline]
    fn run<const N: usize>(&self, slots: &[usize; N]) -> [bool; N] {
        let lanes = self.1.lanes(slots);
        let sigmas = hop_auths(
            self.0,
            lanes.map(|l| hop_auth_blocks(&l.res_info, &l.eer_info.expect("an EER lane"), l.hop)),
        );
        let hvfs = eer_hvfs(sigmas.each_ref(), lanes.map(|l| (l.ts, l.pkt_size)));
        core::array::from_fn(|i| ct_eq(&hvfs[i], &lanes[i].hvf))
    }
}

/// The SegR check: Eq. 3 under `K_i`, compared in constant time.
struct SegrCheck<'k, 'g, 'p>(&'k Cmac, Screened<'g, 'p>);

impl LaneKernel<usize> for SegrCheck<'_, '_, '_> {
    type Out = bool;

    #[inline]
    fn run<const N: usize>(&self, slots: &[usize; N]) -> [bool; N] {
        let lanes = self.1.lanes(slots);
        let tokens = segr_tokens(self.0, lanes.map(|l| segr_blocks(&l.res_info, l.hop)));
        core::array::from_fn(|i| ct_eq(&tokens[i], &lanes[i].hvf))
    }
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

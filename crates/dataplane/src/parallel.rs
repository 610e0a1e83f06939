//! Shard pools for the data plane (paper §7.2; DESIGN.md §9 "Shard pool").
//!
//! The paper runs one DPDK lcore per NIC queue, each owning a disjoint
//! slice of the state. Both pools here reproduce that shape on one private
//! ring-pair helper, `Lanes`: per shard a worker thread, a bounded
//! lock-free SPSC job ring and an output ring ([`colibri_ring`]), with
//! packet buffers recycling driver → worker → driver so the steady state
//! allocates nothing and takes no lock per packet. [`ParallelGateway`]
//! pins reservations to gateway shards by [`shard_index`], so the
//! per-reservation token bucket and `Ts` uniqueness never cross threads;
//! [`crate::supervisor::ShardRouterPool`] steers router shards by the same
//! hash. Shutdown drains output rings until each worker thread has exited,
//! so no worker can stay blocked on a full output ring.

use crate::gateway::{Gateway, GatewayConfig, GatewayError, GatewayStats};
use colibri_base::{HostAddr, Instant, InterfaceId, ResId};
use colibri_ctrl::OwnedEer;
use colibri_qdisc::QdiscStats;
use colibri_ring::{ring, Consumer, Producer, TrySendError};
use colibri_telemetry::Registry;
use std::thread::JoinHandle;

/// The shard owning `res_id` among `n` shards.
///
/// A SplitMix64-style finalizer over the raw reservation ID: cheap, well
/// mixed, and shared by both pools so that the shard assignment of a
/// reservation is the same everywhere.
pub fn shard_index(res_id: ResId, n: usize) -> usize {
    let mut x = res_id.0 as u64 ^ 0x9E37_79B9_7F4A_7C15;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (x >> 33) as usize % n
}

/// Why a non-blocking submit could not enqueue. The packet buffer rides
/// back in the error so the caller decides its fate: shed it (best-effort
/// under attack), drain outputs and retry (reserved traffic), or hold it.
#[derive(Debug)]
pub enum SubmitError {
    /// The owning shard's ring is at capacity (backpressure).
    WouldBlock(Vec<u8>),
}

/// How many jobs a worker pulls per ring drain. Batching lets the router
/// validate whole batches with the interleaved CMAC; kept modest so
/// latency stays bounded.
pub(crate) const WORKER_BATCH: usize = 32;

/// One shard's ring pair and worker thread, seen from the driver.
pub(crate) struct Lane<J: Send, O: Send, R> {
    /// The driver's end of the job ring.
    pub(crate) jobs: Producer<J>,
    /// The driver's end of the output ring; closing it makes the worker's
    /// next send fail, which is how a kill stops a worker.
    pub(crate) out: Consumer<O>,
    /// `None` once the worker has been joined (retired).
    handle: Option<JoinHandle<R>>,
}

impl<J: Send, O: Send, R> Lane<J, O, R> {
    /// Whether the worker thread is still running.
    pub(crate) fn alive(&self) -> bool {
        self.handle.as_ref().is_some_and(|h| !h.is_finished())
    }

    /// Whether the worker has been joined and not replaced yet.
    pub(crate) fn retired(&self) -> bool {
        self.handle.is_none()
    }
}

/// The per-shard ring pairs of a pool: spawn, fair non-blocking drain,
/// and the close → drain-until-thread-exit → join retirement that makes
/// shutdown and kill deadlock-free. Derefs to the lanes, indexed by shard.
pub(crate) struct Lanes<J: Send, O: Send, R> {
    lanes: Vec<Lane<J, O, R>>,
    queue_cap: usize,
    /// Next lane `try_drain` visits, so no shard's outputs starve.
    cursor: usize,
}

impl<J: Send + 'static, O: Send + 'static, R: Send + 'static> Lanes<J, O, R> {
    /// Spawns `n` workers on rings of `queue_cap`; `work(i)` is shard
    /// `i`'s worker loop.
    pub(crate) fn spawn<W>(n: usize, queue_cap: usize, work: impl FnMut(usize) -> W) -> Self
    where
        W: FnOnce(Consumer<J>, Producer<O>) -> R + Send + 'static,
    {
        assert!(n >= 1);
        let lanes = (0..n).map(work).map(|w| Self::lane(queue_cap, w)).collect();
        Self { lanes, queue_cap, cursor: 0 }
    }

    fn lane<W>(queue_cap: usize, work: W) -> Lane<J, O, R>
    where
        W: FnOnce(Consumer<J>, Producer<O>) -> R + Send + 'static,
    {
        let (jobs, jq) = ring(queue_cap);
        let (oq, out) = ring(queue_cap);
        Lane { jobs, out, handle: Some(std::thread::spawn(move || work(jq, oq))) }
    }

    /// Replaces shard `i`'s lane with fresh rings and a fresh worker.
    pub(crate) fn respawn<W>(&mut self, i: usize, work: W)
    where
        W: FnOnce(Consumer<J>, Producer<O>) -> R + Send + 'static,
    {
        self.lanes[i] = Self::lane(self.queue_cap, work);
    }

    /// Hands at most `max` outputs to `sink`, visiting shards round-robin;
    /// never blocks. Returns how many were handed over.
    pub(crate) fn try_drain(&mut self, max: usize, mut sink: impl FnMut(O)) -> usize {
        let n = self.lanes.len();
        let (mut got, mut idle) = (0, 0);
        while got < max && idle < n {
            let lane = &mut self.lanes[self.cursor];
            self.cursor = (self.cursor + 1) % n;
            match lane.out.try_recv() {
                Some(o) => {
                    sink(o);
                    got += 1;
                    idle = 0;
                }
                None => idle += 1,
            }
        }
        got
    }

    /// Closes shard `i`'s job ring, hands every output to `sink` until its
    /// worker thread has exited, and joins it. `None` if already retired.
    pub(crate) fn retire(
        &mut self,
        i: usize,
        mut sink: impl FnMut(O),
    ) -> Option<std::thread::Result<R>> {
        let lane = &mut self.lanes[i];
        let handle = lane.handle.take()?;
        lane.jobs.close();
        while !handle.is_finished() {
            while let Some(o) = lane.out.try_recv() {
                sink(o);
            }
            std::thread::yield_now();
        }
        let joined = handle.join();
        // The join orders every send of the worker before this drain.
        while let Some(o) = lane.out.try_recv() {
            sink(o);
        }
        Some(joined)
    }

    /// Closes every job ring (so all workers wind down at once), then
    /// retires each shard in order.
    pub(crate) fn shutdown(
        &mut self,
        mut sink: impl FnMut(O),
    ) -> Vec<Option<std::thread::Result<R>>> {
        for lane in &self.lanes {
            lane.jobs.close();
        }
        (0..self.lanes.len()).map(|i| self.retire(i, &mut sink)).collect()
    }
}

impl<J: Send, O: Send, R> std::ops::Deref for Lanes<J, O, R> {
    type Target = [Lane<J, O, R>];
    fn deref(&self) -> &Self::Target {
        &self.lanes
    }
}

impl<J: Send, O: Send, R> std::ops::DerefMut for Lanes<J, O, R> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.lanes
    }
}

/// The aggregated result of a [`ParallelGateway`] run: the cross-shard
/// merge of every worker's [`GatewayStats`], computed once at shutdown
/// so callers stop re-summing per-shard structs by hand.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayPoolSnapshot {
    /// Number of shard workers that contributed.
    pub shards: usize,
    /// Summed outcome counters.
    pub stats: GatewayStats,
    /// Cross-shard merge of every worker's qdisc counters. `None` when
    /// the pool ran with [`crate::gateway::QosMode::Flat`]; each shard
    /// owns a *private* hierarchy, so this is the only pool-wide view.
    pub qos: Option<QdiscStats>,
}

enum GatewayJob {
    /// Install (or refresh) a reservation on this shard.
    Install(Box<OwnedEer>, Instant),
    /// Stamp one packet. `buf` is a recycled output buffer.
    Stamp { src_host: HostAddr, res_id: ResId, payload: Vec<u8>, now: Instant, buf: Vec<u8> },
}

/// The result of one stamped packet, surfaced by [`ParallelGateway::try_drain`].
#[derive(Debug)]
pub struct StampedOutput {
    /// The reservation the packet was sent over.
    pub res_id: ResId,
    /// First-hop egress interface on success; the gateway error otherwise.
    pub result: Result<InterfaceId, GatewayError>,
    /// The serialized packet on success; on error the (cleared) buffer.
    pub bytes: Vec<u8>,
    /// The payload buffer, returned for recycling.
    pub payload: Vec<u8>,
}

/// A bank of gateway shards, each pinned to its own worker thread.
///
/// The driver thread submits work with [`submit`](Self::submit) and
/// collects results with [`try_drain`](Self::try_drain); buffers flow
/// driver → worker → driver and back into the freelist via
/// [`recycle`](Self::recycle), so the steady state allocates nothing.
pub struct ParallelGateway {
    lanes: Lanes<GatewayJob, StampedOutput, (GatewayStats, Option<QdiscStats>)>,
    free_bufs: Vec<Vec<u8>>,
    /// Stamp jobs submitted but not yet drained; what `flush` waits on.
    in_flight: usize,
}

impl ParallelGateway {
    /// Spawns `n` shard workers with identical configuration.
    pub fn new(n: usize, cfg: GatewayConfig, queue_cap: usize) -> Self {
        Self::build(n, cfg, queue_cap, None)
    }

    /// Like [`Self::new`], but each worker's gateway registers its
    /// telemetry as shard `gw<i>` in `registry`, so a scrape shows the
    /// per-shard split and [`colibri_telemetry::Snapshot::total`] the
    /// cross-shard merge.
    pub fn with_telemetry(
        n: usize,
        cfg: GatewayConfig,
        queue_cap: usize,
        registry: &Registry,
    ) -> Self {
        Self::build(n, cfg, queue_cap, Some(registry))
    }

    fn build(n: usize, cfg: GatewayConfig, queue_cap: usize, registry: Option<&Registry>) -> Self {
        let lanes = Lanes::spawn(n, queue_cap, |i| {
            let mut gw = Gateway::new(cfg);
            if let Some(reg) = registry {
                gw.attach_telemetry(reg, &format!("gw{i}"));
            }
            move |jobs, out| gateway_worker(gw, jobs, out)
        });
        Self { lanes, free_bufs: Vec::new(), in_flight: 0 }
    }

    /// Installs a reservation on its owning shard. The install travels the
    /// same queue as packets, so it is ordered with respect to them; call
    /// [`flush`](Self::flush) to wait until all shards have caught up.
    pub fn install(&mut self, eer: &OwnedEer, now: Instant) {
        let s = shard_index(eer.key.res_id, self.lanes.len());
        self.lanes[s]
            .jobs
            .send(GatewayJob::Install(Box::new(eer.clone()), now))
            .unwrap_or_else(|_| panic!("gateway shard {s} shut down"));
    }

    /// Submits one packet for stamping on the owning shard, blocking if
    /// that shard's queue is full (backpressure). The payload buffer is
    /// returned through [`StampedOutput::payload`] for reuse.
    pub fn submit(&mut self, src_host: HostAddr, res_id: ResId, payload: Vec<u8>, now: Instant) {
        let s = shard_index(res_id, self.lanes.len());
        let buf = self.free_bufs.pop().unwrap_or_default();
        self.lanes[s]
            .jobs
            .send(GatewayJob::Stamp { src_host, res_id, payload, now, buf })
            .unwrap_or_else(|_| panic!("gateway shard {s} shut down"));
        self.in_flight += 1;
    }

    /// Non-blocking [`submit`](Self::submit): enqueues the payload for
    /// stamping or returns [`SubmitError::WouldBlock`] with it when the
    /// owning shard's ring is at capacity. Never spins or yields — the
    /// shed/drain/hold decision belongs to the caller (DESIGN.md §9).
    pub fn try_submit(
        &mut self,
        src_host: HostAddr,
        res_id: ResId,
        payload: Vec<u8>,
        now: Instant,
    ) -> Result<(), SubmitError> {
        let s = shard_index(res_id, self.lanes.len());
        let buf = self.free_bufs.pop().unwrap_or_default();
        match self.lanes[s].jobs.try_send(GatewayJob::Stamp { src_host, res_id, payload, now, buf })
        {
            Ok(()) => {
                self.in_flight += 1;
                Ok(())
            }
            Err(TrySendError::Full(GatewayJob::Stamp { payload, buf, .. })) => {
                self.free_bufs.push(buf);
                Err(SubmitError::WouldBlock(payload))
            }
            Err(_) => panic!("gateway shard {s} shut down"),
        }
    }

    /// Collects at most `max` finished packets across all shards without
    /// blocking. Returns fewer (possibly zero) when the workers have not
    /// caught up yet.
    pub fn try_drain(&mut self, out: &mut Vec<StampedOutput>, max: usize) -> usize {
        let got = self.lanes.try_drain(max, |o| out.push(o));
        self.in_flight -= got;
        got
    }

    /// Returns a drained output's buffers to the freelist.
    pub fn recycle(&mut self, mut output: StampedOutput) {
        output.bytes.clear();
        output.payload.clear();
        self.free_bufs.push(output.bytes);
        self.free_bufs.push(output.payload);
    }

    /// Blocks until every stamp job submitted so far has produced its
    /// output, collecting all of them into `out`. (Installs need no flush:
    /// they share the shard's FIFO with packets, so a later `submit` on
    /// the same reservation is always processed after the install.)
    pub fn flush(&mut self, out: &mut Vec<StampedOutput>) {
        while self.in_flight > 0 {
            if self.try_drain(out, usize::MAX) == 0 {
                std::thread::yield_now();
            }
        }
    }

    /// Shuts the pool down: closes all job queues, drains every remaining
    /// output into `out`, joins the workers, and returns the aggregated
    /// cross-shard snapshot.
    pub fn shutdown(mut self, out: &mut Vec<StampedOutput>) -> GatewayPoolSnapshot {
        let mut snap = GatewayPoolSnapshot { shards: self.lanes.len(), ..Default::default() };
        for joined in self.lanes.shutdown(|o| out.push(o)) {
            let (stats, qos) =
                joined.expect("gateway worker joined twice").expect("gateway worker panicked");
            snap.stats.merge(&stats);
            if let Some(q) = qos {
                snap.qos.get_or_insert_with(QdiscStats::default).merge(&q);
            }
        }
        snap
    }
}

impl std::fmt::Debug for ParallelGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelGateway").field("shards", &self.lanes.len()).finish()
    }
}

fn gateway_worker(
    mut gw: Gateway,
    mut jobs: Consumer<GatewayJob>,
    mut out: Producer<StampedOutput>,
) -> (GatewayStats, Option<QdiscStats>) {
    let mut batch = Vec::with_capacity(WORKER_BATCH);
    while jobs.recv_many(&mut batch, WORKER_BATCH) {
        for job in batch.drain(..) {
            match job {
                GatewayJob::Install(eer, now) => gw.install(&eer, now),
                GatewayJob::Stamp { src_host, res_id, payload, now, mut buf } => {
                    let result = gw.process_into(src_host, res_id, &payload, now, &mut buf);
                    if result.is_err() {
                        buf.clear();
                    }
                    let output = StampedOutput { res_id, result, bytes: buf, payload };
                    if out.send(output).is_err() {
                        // Driver is gone; nothing left to report to.
                        return (gw.stats, gw.qos_stats());
                    }
                }
            }
        }
    }
    (gw.stats, gw.qos_stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::BorderRouter;
    use crate::supervisor::tests::{owned, pool as router_pool, run_authentic, test_cfg, MASTER};
    use crate::supervisor::ShardRouterPool;
    use colibri_base::{Duration, IsdAsId};

    #[test]
    fn ring_backpressure_and_close() {
        // The ring's own crate proves the protocol; this is the
        // integration-level smoke test of the contract parallel.rs
        // relies on (blocking send, batch recv, close semantics).
        let (mut tx, mut rx) = ring::<u32>(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let h = std::thread::spawn(move || {
            tx.send(3).unwrap(); // blocks: full
            tx
        });
        std::thread::yield_now();
        let mut got = Vec::new();
        assert!(rx.recv_many(&mut got, 10));
        let tx = h.join().unwrap();
        while got.len() < 3 {
            assert!(rx.recv_many(&mut got, 10));
        }
        assert_eq!(got, vec![1, 2, 3]);
        tx.close();
        assert!(!rx.recv_many(&mut got, 10));
    }

    #[test]
    fn parallel_gateway_stamps_and_aggregates() {
        let now = Instant::from_secs(1);
        let mut pg = ParallelGateway::new(
            3,
            GatewayConfig { burst: Duration::from_secs(3600), ..Default::default() },
            16,
        );
        for i in 0..8 {
            pg.install(&owned(i), now);
        }
        for i in 0..8 {
            pg.submit(HostAddr(7), ResId(i), b"payload".to_vec(), now);
        }
        // Unknown reservation → error output, still surfaced.
        pg.submit(HostAddr(7), ResId(999), b"x".to_vec(), now);
        let mut outs = Vec::new();
        pg.flush(&mut outs);
        assert_eq!(outs.len(), 9);
        let ok = outs.iter().filter(|o| o.result.is_ok()).count();
        assert_eq!(ok, 8);
        for o in &outs {
            if o.result.is_ok() {
                assert!(!o.bytes.is_empty());
            }
        }
        let mut rest = Vec::new();
        let snap = pg.shutdown(&mut rest);
        assert!(rest.is_empty());
        assert_eq!(snap.shards, 3);
        assert_eq!(snap.stats.forwarded, 8);
        assert_eq!(snap.stats.rejected, 1);
    }

    #[test]
    fn gateway_pool_merges_private_qos_hierarchies() {
        use crate::gateway::QosMode;
        // Each shard owns a private qdisc; the pool snapshot's merge must
        // equal one gateway's counters over the same stream.
        let now = Instant::from_secs(1);
        let burst = Duration::from_millis(1);
        let cfg = GatewayConfig {
            burst,
            qos: QosMode::Hierarchical(colibri_qdisc::HtbConfig::degenerate(burst)),
        };
        let mut pg = ParallelGateway::new(3, cfg, 64);
        let mut single = Gateway::new(cfg);
        for i in 0..6 {
            pg.install(&owned(i), now);
            single.install(&owned(i), now);
        }
        let mut buf = Vec::new();
        for k in 0..120u32 {
            pg.submit(HostAddr(7), ResId(k % 6), vec![0u8; 1000], now);
            let _ = single.process_into(HostAddr(7), ResId(k % 6), &[0u8; 1000], now, &mut buf);
        }
        let mut outs = Vec::new();
        pg.flush(&mut outs);
        let snap = pg.shutdown(&mut outs);
        let qos = snap.qos.expect("hierarchical pool reports qos");
        assert_eq!(Some(qos), single.qos_stats());
        assert!(qos.rate_limited > 0 && qos.admitted > 0, "{qos:?}");
    }

    #[test]
    fn gateway_buffers_recycle_without_allocation() {
        let now = Instant::from_secs(1);
        let mut pg = ParallelGateway::new(1, GatewayConfig::default(), 8);
        pg.install(&owned(1), now);
        let mut outs = Vec::new();
        for round in 0..5 {
            pg.submit(HostAddr(7), ResId(1), vec![round; 32], now);
            pg.flush(&mut outs);
            assert_eq!(outs.len(), 1);
            let o = outs.pop().unwrap();
            assert!(o.result.is_ok());
            pg.recycle(o);
            // Each round pops one recycled buffer for the packet and
            // returns two (packet + payload); payloads here are fresh, so
            // the freelist grows by exactly one per round after the first.
            assert_eq!(pg.free_bufs.len(), round as usize + 2);
        }
        pg.shutdown(&mut outs);
    }

    #[test]
    fn router_pool_validates_and_shuts_down() {
        // Six authentic packets (σ matches the routers' secret) and one
        // garbage frame through two shards.
        let snap = run_authentic(router_pool(2, 8), 6);
        assert_eq!(snap.shards, 2);
        assert_eq!(snap.stats.forwarded, 6);
        assert_eq!(snap.stats.parse_errors, 1);
    }

    #[test]
    fn steering_pins_reservations_and_counts_imbalance() {
        let now = Instant::from_secs(50);
        let cfg = test_cfg();
        let reg = Registry::new();
        let mut pool = ShardRouterPool::with_telemetry(4, 64, &reg, move |_| {
            BorderRouter::new(IsdAsId::new(1, 10), &MASTER, cfg)
        });

        // Build minimally valid *headers* for three reservations (the
        // packets won't verify, but steering only reads the header).
        let mut gw =
            Gateway::new(GatewayConfig { burst: Duration::from_secs(3600), ..Default::default() });
        for r in [1u32, 2, 3] {
            gw.install(&owned(r), now);
        }
        let mut expected_shard = std::collections::HashMap::new();
        let mut outs = Vec::new();
        let mut sent = 0;
        for i in 0..30u32 {
            let r = ResId(1 + i % 3);
            let mut pkt = Vec::new();
            gw.process_into(HostAddr(7), r, b"data", now, &mut pkt).unwrap();
            let s = shard_index(r, 4);
            expected_shard.insert(r, s);
            pool.submit(pkt, now, &mut outs);
            sent += 1;
        }
        // Garbage falls back round-robin.
        pool.submit(vec![0u8; 4], now, &mut outs);
        pool.submit(vec![0u8; 4], now, &mut outs);
        sent += 2;

        while outs.len() < sent {
            pool.try_drain(&mut outs, usize::MAX);
            std::thread::yield_now();
        }
        let snap = pool.shutdown(&mut outs);
        assert_eq!(snap.steered, 30);
        assert_eq!(snap.unsteered, 2);
        assert_eq!(snap.per_shard.len(), 4);
        // Each reservation's 10 packets all landed on its hash shard.
        let mut by_shard = [0u64; 4];
        for &s in expected_shard.values() {
            by_shard[s] += 30 / 3;
        }
        // Round-robin garbage: shards 0 and 1 got one each.
        by_shard[0] += 1;
        by_shard[1] += 1;
        for (s, expected) in by_shard.iter().enumerate() {
            assert_eq!(snap.per_shard[s].submitted, *expected, "shard {s}");
        }
        assert!(snap.steering_imbalance() >= 1.0);
        // Telemetry absorbed the dispatch counters.
        let scrape = reg.snapshot();
        assert_eq!(scrape.total("colibri_router_steered_total"), 30);
        assert_eq!(scrape.total("colibri_router_unsteered_total"), 2);
        assert_eq!(scrape.total("colibri_router_shard_submitted_total"), 32);
    }

    #[test]
    fn telemetry_pools_scrape_per_shard_and_merged() {
        let now = Instant::from_secs(1);
        let reg = Registry::new();
        let mut pg = ParallelGateway::with_telemetry(
            2,
            GatewayConfig { burst: Duration::from_secs(3600), ..Default::default() },
            16,
            &reg,
        );
        for i in 0..6 {
            pg.install(&owned(i), now);
        }
        for i in 0..6 {
            pg.submit(HostAddr(7), ResId(i), b"p".to_vec(), now);
        }
        pg.submit(HostAddr(7), ResId(999), b"x".to_vec(), now);
        let mut outs = Vec::new();
        pg.flush(&mut outs);
        let snap_pool = pg.shutdown(&mut outs);
        let scrape = reg.snapshot();
        // Scraped cross-shard totals equal the pool's aggregated stats.
        assert_eq!(scrape.total("colibri_gateway_forwarded_total"), snap_pool.stats.forwarded);
        assert_eq!(scrape.total("colibri_gateway_rejected_total"), snap_pool.stats.rejected);
        // Per-shard split is visible and sums to the total.
        let m = scrape.metric("colibri_gateway_forwarded_total").unwrap();
        assert_eq!(m.shards.len(), 2);
        colibri_telemetry::verify_exposition(&scrape.render_prometheus()).unwrap();
    }
}

//! The host-request path: one closed-loop client issuing control requests
//! that are admitted hop by hop, with the oracle checking every outcome.
//!
//! The virtual clock advances by a fixed step per request, so the order
//! and content of every operation — and every count — repeat for a seed.
//! One measurement window is one GC period.

use crate::rng::{Rng, StreamHash};
use crate::scenario::{Counts, Sample, Scenario, Tally, Verdict};
use crate::sut::{self, Delivery, Flow, Host, Net, Refusal, SegrKey};
use crate::trace::{Cause, SpanName, Tracer};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::time::Instant;

const MS: u64 = 1_000_000;
const SEC: u64 = 1_000 * MS;
/// `CServ::gc` runs on every CServ every 4 virtual seconds.
const GC_EVERY_NS: u64 = 4 * SEC;

fn elapsed_us(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64 / 1e3
}

/// What both request-path scenarios keep: the deployment, the virtual
/// clock, the latency samples, the oracle's counters and the GC cadence.
pub struct Book {
    pub net: Net,
    pub now_ns: u64,
    /// Test hook: every operation counts as failed.
    pub sabotage: bool,
    last_gc_ns: u64,
    /// Operations issued so far; also the request identifier of spans.
    ops: u64,
    requests: u64,
    setup_us: Vec<f64>,
    renew_us: Vec<f64>,
    gc_ms: Vec<f64>,
    hash: StreamHash,
    attempted: u64,
    failed: u64,
    gc_scanned: u64,
    gc_expired: u64,
}

impl Book {
    fn new(net: Net, now_ns: u64) -> Book {
        Book {
            net,
            now_ns,
            sabotage: false,
            last_gc_ns: now_ns,
            ops: 0,
            requests: 0,
            setup_us: Vec::new(),
            renew_us: Vec::new(),
            gc_ms: Vec::new(),
            hash: StreamHash::default(),
            attempted: 0,
            failed: 0,
            gc_scanned: 0,
            gc_expired: 0,
        }
    }

    /// The oracle's word on one checked operation.
    fn settle(&mut self, ok: bool) {
        self.attempted += 1;
        if ok && !self.sabotage {
            self.requests += 1;
        } else {
            self.failed += 1;
        }
    }

    /// Sweeps every CServ when a GC period has passed; true if it did,
    /// which closes the measurement window.
    fn gc_if_due(&mut self, tr: &mut Tracer) -> bool {
        if self.now_ns - self.last_gc_ns < GC_EVERY_NS {
            return false;
        }
        self.last_gc_ns = self.now_ns;
        let t0 = Instant::now();
        let gc = self.net.gc_all(self.now_ns, tr, Cause::root(self.ops));
        self.gc_ms.push(elapsed_us(t0) / 1e3);
        self.gc_scanned += gc.scanned;
        self.gc_expired += gc.expired;
        true
    }

    fn tally(&self) -> Tally {
        Tally {
            requests: self.requests,
            ..Tally::default()
        }
    }

    fn samples(&self, which: Sample) -> &[f64] {
        match which {
            Sample::SetupUs => &self.setup_us,
            Sample::RenewUs => &self.renew_us,
            Sample::GcMs => &self.gc_ms,
            Sample::BurstUs => &[],
        }
    }

    fn clear_samples(&mut self) {
        self.setup_us.clear();
        self.renew_us.clear();
        self.gc_ms.clear();
    }

    fn counts(&self) -> Counts {
        let (admitted, refused) = self.net.admission_counts();
        Counts::from([
            ("cp.requests", self.requests),
            ("ctrl.gc_scanned", self.gc_scanned),
            ("ctrl.gc_expired", self.gc_expired),
            ("ctrl.admitted", admitted),
            ("ctrl.refused", refused),
        ])
    }

    fn levels(&self, live_segrs: u64) -> Counts {
        Counts::from([
            ("cp.stream_hash", self.hash.0),
            ("ctrl.store.live_segrs", live_segrs),
            ("ctrl.store.live_eers", self.net.live_eers()),
        ])
    }

    /// The per-operation totals plus the end-of-run conservation audit.
    fn verdict(&self) -> Verdict {
        Verdict {
            attempted: self.attempted,
            failed: self.failed,
            violations: self.net.audit().err().into_iter().collect(),
        }
    }
}

/// A request-path scenario: a [`Scenario`] over a [`Book`].
pub trait RequestScenario: Scenario {
    fn book_mut(&mut self) -> &mut Book;
}

// ---------------------------------------------------------------------
// cp-flow-churn
// ---------------------------------------------------------------------

/// Virtual time between flow opens. 8 ms × a 12 s flow life ≈ 1,500 live
/// flows: `CServ::gc` costs time quadratic in the EER population today,
/// and this is the largest population whose GC period still fits a few
/// dozen times into a ten-second run (README, "Scaled to the run time").
const OPEN_STEP_NS: u64 = 8 * MS;
const FLOW_LIFE_NS: u64 = 12 * SEC;
const TICK_EVERY_NS: u64 = 250 * MS;
const FLOW_DEMAND_BPS: u64 = 100_000;
/// SegRs the flow manager sets up on demand: room for every live flow,
/// old and renewed version together.
const SEGR_DEMAND_BPS: u64 = 20_000_000_000;
const FIRST_PAYLOAD: usize = 64;

/// `sample_two_isd`, one `FlowManager` at `leaf_a` opening flows to
/// `leaf_d`: path lookup, three stitched SegRs set up on demand, per-hop
/// EER admission, gateway install, and the first packet verified at every
/// on-path router. Each flow is renewed once before it closes.
pub struct FlowChurn {
    book: Book,
    host: Host,
    rng: Rng,
    payload: Vec<u8>,
    live: VecDeque<(Flow, u64)>,
    last_tick_ns: u64,
}

impl FlowChurn {
    pub fn new(seed: u64) -> FlowChurn {
        let mut rng = Rng::new(seed).fork(0xF10);
        let net = Net::two_isd();
        let host = Host::new(&net, SEGR_DEMAND_BPS);
        let payload = (0..FIRST_PAYLOAD).map(|_| rng.next_u64() as u8).collect();
        FlowChurn {
            book: Book::new(net, sut::START_NS),
            host,
            rng,
            payload,
            live: VecDeque::new(),
            last_tick_ns: sut::START_NS,
        }
    }

    fn open_one(&mut self, tr: &mut Tracer) {
        let book = &mut self.book;
        let req = book.ops;
        let src_host = 1 + self.rng.below(1000) as u32;
        book.hash.push(u64::from(src_host));
        let span = tr.begin(SpanName::Request, Cause::root(req), 0);
        let within = Cause { parent: span, req };
        let t0 = Instant::now();
        let opened = self.host.open(
            &mut book.net,
            src_host,
            FLOW_DEMAND_BPS,
            book.now_ns,
            tr,
            within,
        );
        let delivery = opened.as_ref().ok().map(|flow| {
            self.host
                .send(*flow, &self.payload, book.now_ns, tr, within)
        });
        book.setup_us.push(elapsed_us(t0));
        tr.end(span, 1);
        // Must be granted (at most what was asked), and the first packet
        // must reach the destination host intact.
        let ok = match (&opened, delivery) {
            (Ok(flow), Some(Delivery::Delivered { host, intact })) => {
                let granted = self.host.granted_bps(&book.net, *flow);
                host == sut::DST_HOST_ID
                    && intact
                    && granted.is_some_and(|g| g > 0 && g <= FLOW_DEMAND_BPS)
            }
            _ => false,
        };
        book.settle(ok);
        if let Ok(flow) = opened {
            self.live.push_back((flow, book.now_ns));
        }
        book.ops += 1;
    }
}

impl Scenario for FlowChurn {
    fn step(&mut self, tr: &mut Tracer) -> bool {
        self.book.now_ns += OPEN_STEP_NS;
        self.open_one(tr);
        let book = &mut self.book;
        while self
            .live
            .front()
            .is_some_and(|(_, t)| book.now_ns - t >= FLOW_LIFE_NS)
        {
            let (flow, _) = self.live.pop_front().expect("checked");
            // Steady-state setup:renewal ratio of 1:1 — a flow that lived
            // 12 s of a 16 s EER was renewed exactly once. (The renewal
            // itself was counted as a request when the tick made it.)
            if self.host.close(flow) != Some(1) {
                book.failed += 1;
            }
            book.attempted += 1;
        }
        if book.now_ns - self.last_tick_ns >= TICK_EVERY_NS {
            self.last_tick_ns = book.now_ns;
            let t0 = Instant::now();
            let renewed = self.host.tick(&mut book.net, book.now_ns, tr, book.ops);
            let us = elapsed_us(t0);
            if renewed > 0 {
                book.renew_us.push(us / renewed as f64);
                book.requests += renewed as u64;
            }
        }
        book.gc_if_due(tr)
    }

    fn tally(&self) -> Tally {
        self.book.tally()
    }

    fn samples(&self, which: Sample) -> &[f64] {
        self.book.samples(which)
    }

    fn clear_samples(&mut self) {
        self.book.clear_samples();
    }

    fn counts(&self) -> Counts {
        self.book.counts()
    }

    fn levels(&self) -> Counts {
        self.book.levels(self.book.net.live_segr_records())
    }

    fn warmup_windows(&self) -> usize {
        // 24 virtual seconds: the population is full after 12, the first
        // renewed flows have closed after 20.
        6
    }

    fn verdict(&mut self) -> Verdict {
        self.book.verdict()
    }
}

impl RequestScenario for FlowChurn {
    fn book_mut(&mut self) -> &mut Book {
        &mut self.book
    }
}

// ---------------------------------------------------------------------
// cp-segr-loaded
// ---------------------------------------------------------------------

/// 2 ms per operation: with a 300 s SegR lifetime and the op mix below the
/// live population's fixed point is ≈100,000 (README works it out).
const SEGR_STEP_NS: u64 = 2 * MS;
const SEGR_LIFE_NS: u64 = 300 * SEC;
pub const SEGR_POPULATION: u64 = 100_000;
const SEGR_DEMAND: u64 = 1_000_000;
const SEGR_MIN: u64 = 1_000;
const LINK_BPS: u64 = 100_000_000_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SegrOp {
    Setup,
    SetupAhead,
    Renew,
    Teardown,
    OverCapacity,
}

/// Live SegRs: random pick for teardown, oldest-expiring first for renewal.
#[derive(Default)]
struct LiveSet {
    by_expiry: BTreeSet<(u64, SegrKey)>,
    keys: Vec<(SegrKey, u64)>,
    index: HashMap<SegrKey, usize>,
}

impl LiveSet {
    fn insert(&mut self, key: SegrKey, exp_ns: u64) {
        self.by_expiry.insert((exp_ns, key));
        self.index.insert(key, self.keys.len());
        self.keys.push((key, exp_ns));
    }

    fn remove(&mut self, key: SegrKey) {
        let Some(pos) = self.index.remove(&key) else {
            return;
        };
        let (_, exp_ns) = self.keys.swap_remove(pos);
        if let Some((moved, _)) = self.keys.get(pos) {
            self.index.insert(*moved, pos);
        }
        self.by_expiry.remove(&(exp_ns, key));
    }

    /// Forgets everything that expires before `deadline_ns` (the system
    /// drops it at the next GC) and returns how many.
    fn expire_before(&mut self, deadline_ns: u64) -> u64 {
        let mut n = 0;
        while let Some(&(exp_ns, key)) = self.by_expiry.first() {
            if exp_ns >= deadline_ns {
                break;
            }
            self.remove(key);
            n += 1;
        }
        n
    }

    fn len(&self) -> usize {
        self.keys.len()
    }
}

/// `chain_topology(3, ..)` with 100,000 live SegRs: store and `Timeline`
/// writes, window queries and expiry-wheel pops at scale; crypto is minor.
pub struct SegrLoaded {
    book: Book,
    rng: Rng,
    live: LiveSet,
    population: u64,
    min_live: usize,
    max_live: usize,
}

impl SegrLoaded {
    /// Preloads `population` SegRs through `setup_segr`, expiries
    /// staggered evenly over the 300 s lifetime.
    pub fn new(seed: u64, population: u64, tr: &mut Tracer) -> Result<SegrLoaded, String> {
        let mut net = Net::chain(3, LINK_BPS);
        let mut live = LiveSet::default();
        let stagger = SEGR_LIFE_NS / population;
        let mut now_ns = sut::START_NS;
        for i in 0..population {
            now_ns += stagger;
            let g = net
                .setup_segr(SEGR_DEMAND, SEGR_MIN, now_ns, tr, Cause::root(i))
                .map_err(|e| format!("preload SegR {i}: {e:?}"))?;
            live.insert(g.key, g.exp_ns);
        }
        Ok(SegrLoaded {
            book: Book::new(net, now_ns),
            rng: Rng::new(seed).fork(0x5E6),
            min_live: live.len(),
            max_live: live.len(),
            live,
            population,
        })
    }

    /// Op mix by seed, per cent: 30 `setup_segr`, 15 `setup_segr_at`, 30
    /// `renew_segr`+`activate_segr`, 15 `teardown_segr`, 10 over capacity.
    fn draw(&mut self) -> SegrOp {
        match self.rng.below(100) {
            0..=29 => SegrOp::Setup,
            30..=44 => SegrOp::SetupAhead,
            45..=74 => SegrOp::Renew,
            75..=89 => SegrOp::Teardown,
            _ => SegrOp::OverCapacity,
        }
    }

    /// A grant within what was asked joins the live set.
    fn admit(live: &mut LiveSet, out: Result<sut::SegrGrant, Refusal>) -> bool {
        out.is_ok_and(|g| {
            live.remove(g.key);
            live.insert(g.key, g.exp_ns);
            g.bw_bps >= SEGR_MIN && g.bw_bps <= SEGR_DEMAND
        })
    }

    fn op(&mut self, tr: &mut Tracer) {
        let op = self.draw();
        let (book, live) = (&mut self.book, &mut self.live);
        let (req, now_ns) = (book.ops, book.now_ns);
        book.hash.push(op as u64);
        let span = tr.begin(SpanName::Request, Cause::root(req), 0);
        let within = Cause { parent: span, req };
        let t0 = Instant::now();
        let ok = match op {
            SegrOp::Setup => {
                let out = book
                    .net
                    .setup_segr(SEGR_DEMAND, SEGR_MIN, now_ns, tr, within);
                book.setup_us.push(elapsed_us(t0));
                Self::admit(live, out)
            }
            SegrOp::SetupAhead => {
                // 1–20 admission ticks (seconds) ahead.
                let ahead = 1 + self.rng.below(20);
                book.hash.push(ahead);
                let starts = now_ns + ahead * SEC;
                let out = book
                    .net
                    .setup_segr_at(SEGR_DEMAND, SEGR_MIN, starts, now_ns, tr, within);
                book.setup_us.push(elapsed_us(t0));
                Self::admit(live, out)
            }
            SegrOp::Renew => live.by_expiry.first().copied().is_some_and(|(_, key)| {
                let out =
                    book.net
                        .renew_activate_segr(key, SEGR_DEMAND, SEGR_MIN, now_ns, tr, within);
                book.renew_us.push(elapsed_us(t0));
                Self::admit(live, out)
            }),
            SegrOp::Teardown => {
                let pick = self.rng.below(live.len().max(1) as u64) as usize;
                book.hash.push(pick as u64);
                live.keys.get(pick).copied().is_some_and(|(key, _)| {
                    live.remove(key);
                    book.net.teardown_segr(key, tr, within).is_ok()
                })
            }
            // More than any link can carry, no lower minimum accepted:
            // the read-only refusal path beside the writes.
            SegrOp::OverCapacity => {
                let too_much = book.net.link_bps() * 2;
                book.net
                    .setup_segr(too_much, too_much, now_ns, tr, within)
                    .err()
                    == Some(Refusal::Refused)
            }
        };
        tr.end(span, 1);
        book.settle(ok);
        book.ops += 1;
    }
}

impl Scenario for SegrLoaded {
    fn step(&mut self, tr: &mut Tracer) -> bool {
        self.book.now_ns += SEGR_STEP_NS;
        // A SegR within two seconds of expiry is past renewing.
        self.live.expire_before(self.book.now_ns + 2 * SEC);
        self.op(tr);
        self.min_live = self.min_live.min(self.live.len());
        self.max_live = self.max_live.max(self.live.len());
        self.book.gc_if_due(tr)
    }

    fn tally(&self) -> Tally {
        self.book.tally()
    }

    fn samples(&self, which: Sample) -> &[f64] {
        self.book.samples(which)
    }

    fn clear_samples(&mut self) {
        self.book.clear_samples();
    }

    fn counts(&self) -> Counts {
        self.book.counts()
    }

    fn levels(&self) -> Counts {
        self.book.levels(self.book.net.live_owned_segrs())
    }

    fn warmup_windows(&self) -> usize {
        2
    }

    fn verdict(&mut self) -> Verdict {
        let mut v = self.book.verdict();
        let band = (self.population * 9 / 10) as usize..=(self.population * 11 / 10) as usize;
        if !band.contains(&self.min_live) || !band.contains(&self.max_live) {
            v.violations.push(format!(
                "live SegRs ranged {}..={}, outside ±10 % of {}",
                self.min_live, self.max_live, self.population
            ));
        }
        v
    }
}

impl RequestScenario for SegrLoaded {
    fn book_mut(&mut self) -> &mut Book {
        &mut self.book
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_set_orders_by_expiry_and_removes_in_place() {
        let mut tr = Tracer::new(false);
        let mut net = Net::chain(3, LINK_BPS);
        let mut live = LiveSet::default();
        let mut keys = Vec::new();
        for i in 0..5u64 {
            let g = net
                .setup_segr(
                    SEGR_DEMAND,
                    SEGR_MIN,
                    sut::START_NS + i * SEC,
                    &mut tr,
                    Cause::root(i),
                )
                .unwrap();
            live.insert(g.key, g.exp_ns);
            keys.push(g.key);
        }
        assert_eq!(live.by_expiry.first().unwrap().1, keys[0]);
        live.remove(keys[0]);
        live.remove(keys[3]);
        assert_eq!(live.len(), 3);
        assert_eq!(live.by_expiry.first().unwrap().1, keys[1]);
        // keys[1] and keys[2] expire before START + 302.5 s.
        assert_eq!(
            live.expire_before(sut::START_NS + SEGR_LIFE_NS + 2 * SEC + SEC / 2),
            2
        );
        assert_eq!(live.len(), 1);
        assert_eq!(live.keys[0].0, keys[4]);
    }
}

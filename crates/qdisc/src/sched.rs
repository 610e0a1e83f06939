//! Leaf queues and the deficit-round-robin arbiter.
//!
//! Each traffic class owns one `Lane`: an ordered set of leaf FIFOs,
//! one per `(reservation, host)` pair (best-effort leaves have no
//! reservation). A service round hands the lane a nanobyte budget; the
//! lane distributes it across leaves with classic DRR — every non-empty
//! leaf earns `quantum` bytes of deficit per round and sends head packets
//! while its deficit covers them — so sibling flows with different packet
//! sizes still converge to equal byte shares. Best-effort leaves run the
//! codel head-drop check before every dequeue.

use crate::codel::{Codel, CodelConfig};
use crate::htb::AdmitError;
use colibri_base::{HostAddr, Instant, ResId};
use std::collections::{HashMap, VecDeque};

/// Identity of a leaf queue: the reservation it belongs to (`None` for
/// best-effort tenants) and the sending host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LeafId {
    /// Owning reservation; `None` marks a best-effort leaf.
    pub res: Option<ResId>,
    /// Sending host (the flow key within the reservation).
    pub host: HostAddr,
}

/// Why [`crate::Qdisc::enqueue`] refused a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueError {
    /// A reserved-class packet failed host/reservation conformance.
    NotConformant(AdmitError),
    /// The leaf queue is full (tail drop).
    Overflow,
}

/// One queued packet: its size and enqueue time (for sojourn measurement).
#[derive(Debug, Clone, Copy)]
struct Pkt {
    bytes: u64,
    at: Instant,
}

/// A leaf FIFO with its DRR deficit and codel state.
#[derive(Debug)]
pub(crate) struct Leaf {
    queue: VecDeque<Pkt>,
    /// Total bytes queued; the overflow check reads this.
    pub(crate) queued_bytes: u64,
    deficit: u64,
    codel: Codel,
}

impl Leaf {
    fn new(codel_cfg: CodelConfig) -> Self {
        Self { queue: VecDeque::new(), queued_bytes: 0, deficit: 0, codel: Codel::new(codel_cfg) }
    }

    /// Appends a packet (capacity was checked by the caller).
    pub(crate) fn push(&mut self, bytes: u64, now: Instant) {
        self.queue.push_back(Pkt { bytes, at: now });
        self.queued_bytes += bytes;
    }

    fn pop(&mut self) -> Option<Pkt> {
        let p = self.queue.pop_front()?;
        self.queued_bytes -= p.bytes;
        Some(p)
    }
}

/// What one lane served out of a DRR pass.
pub(crate) struct LaneServed {
    /// Nanobytes sent (≤ the budget handed in).
    pub(crate) nanobytes: u128,
    /// Packets sent.
    pub(crate) pkts: u64,
    /// Codel head drops (best-effort lanes only).
    pub(crate) codel_drops: u64,
    /// Sojourn times (ns) of sent packets, best-effort lanes only.
    pub(crate) sojourns_ns: Vec<u64>,
}

/// The per-class set of leaves plus the DRR cursor.
pub(crate) struct Lane {
    leaves: Vec<(LeafId, Leaf)>,
    index: HashMap<LeafId, usize>,
    /// Where the next DRR pass starts, so no leaf is structurally favored
    /// across service rounds.
    cursor: usize,
}

impl Lane {
    pub(crate) fn new() -> Self {
        Self { leaves: Vec::new(), index: HashMap::new(), cursor: 0 }
    }

    /// The leaf for `id`, created empty on first use.
    pub(crate) fn get_or_create(&mut self, id: LeafId, codel_cfg: CodelConfig) -> &mut Leaf {
        let idx = *self.index.entry(id).or_insert_with(|| {
            self.leaves.push((id, Leaf::new(codel_cfg)));
            self.leaves.len() - 1
        });
        &mut self.leaves[idx].1
    }

    /// Drops every leaf owned by `res_id`; returns the queued packets and
    /// bytes that were discarded with them.
    pub(crate) fn remove_reservation(&mut self, res_id: ResId) -> (u64, u64) {
        let mut pkts = 0u64;
        let mut bytes = 0u64;
        self.leaves.retain(|(id, leaf)| {
            if id.res == Some(res_id) {
                pkts += leaf.queue.len() as u64;
                bytes += leaf.queued_bytes;
                false
            } else {
                true
            }
        });
        self.index.clear();
        for (i, (id, _)) in self.leaves.iter().enumerate() {
            self.index.insert(*id, i);
        }
        if self.cursor >= self.leaves.len() {
            self.cursor = 0;
        }
        (pkts, bytes)
    }

    /// The identities of all leaves (for structural audits).
    pub(crate) fn leaf_ids(&self) -> impl Iterator<Item = &LeafId> {
        self.leaves.iter().map(|(id, _)| id)
    }

    /// One DRR pass over the lane with a nanobyte `budget`.
    ///
    /// Rounds rotate from the cursor; each visit grants the leaf `quantum`
    /// bytes of deficit and sends head packets while both the deficit and
    /// the remaining budget cover them. A full round with no progress ends
    /// the pass (every leaf is empty, deficit-starved, or budget-blocked),
    /// which makes termination — and the serve order — fully deterministic.
    pub(crate) fn drr_serve(
        &mut self,
        budget: u128,
        quantum: u64,
        now: Instant,
        codel_active: bool,
    ) -> LaneServed {
        const NB: u128 = 1_000_000_000;
        let mut out =
            LaneServed { nanobytes: 0, pkts: 0, codel_drops: 0, sojourns_ns: Vec::new() };
        let n = self.leaves.len();
        if n == 0 || budget == 0 {
            return out;
        }
        let start = self.cursor.min(n - 1);
        loop {
            let mut progressed = false;
            for k in 0..n {
                let (_, leaf) = &mut self.leaves[(start + k) % n];
                if leaf.queue.is_empty() {
                    leaf.deficit = 0;
                    continue;
                }
                leaf.deficit = leaf.deficit.saturating_add(quantum);
                loop {
                    // Codel inspects (and possibly head-drops) before every
                    // dequeue on best-effort leaves.
                    if codel_active {
                        while let Some(head) = leaf.queue.front().copied() {
                            let sojourn = now.saturating_since(head.at);
                            if leaf.codel.on_dequeue(sojourn, leaf.queued_bytes, now) {
                                leaf.pop();
                                out.codel_drops += 1;
                                progressed = true;
                            } else {
                                break;
                            }
                        }
                    }
                    let Some(head) = leaf.queue.front().copied() else {
                        leaf.deficit = 0;
                        break;
                    };
                    if head.bytes > leaf.deficit {
                        break; // earns more deficit next round
                    }
                    let cost = head.bytes as u128 * NB;
                    if cost > budget - out.nanobytes {
                        break; // budget-blocked; other leaves may still fit
                    }
                    leaf.pop();
                    leaf.deficit -= head.bytes;
                    out.nanobytes += cost;
                    out.pkts += 1;
                    progressed = true;
                    if codel_active {
                        out.sojourns_ns.push(now.saturating_since(head.at).as_nanos());
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        self.cursor = (start + 1) % n;
        out
    }

    /// Internal-consistency check: the index maps every id to its slot and
    /// per-leaf byte counters match their queues. Returns
    /// `(leaves, queued_pkts, queued_bytes)`.
    pub(crate) fn audit(&self) -> Result<(usize, u64, u64), String> {
        if self.index.len() != self.leaves.len() {
            return Err(format!(
                "index has {} entries for {} leaves",
                self.index.len(),
                self.leaves.len()
            ));
        }
        let mut pkts = 0u64;
        let mut bytes = 0u64;
        for (i, (id, leaf)) in self.leaves.iter().enumerate() {
            if self.index.get(id) != Some(&i) {
                return Err(format!("index out of sync for leaf {i}"));
            }
            let actual: u64 = leaf.queue.iter().map(|p| p.bytes).sum();
            if actual != leaf.queued_bytes {
                return Err(format!(
                    "leaf {i}: queued_bytes counter {} != queue contents {actual}",
                    leaf.queued_bytes
                ));
            }
            pkts += leaf.queue.len() as u64;
            bytes += leaf.queued_bytes;
        }
        Ok((self.leaves.len(), pkts, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(res: u32, host: u32) -> LeafId {
        LeafId { res: Some(ResId(res)), host: HostAddr(host) }
    }

    fn be(host: u32) -> LeafId {
        LeafId { res: None, host: HostAddr(host) }
    }

    const NB: u128 = 1_000_000_000;

    #[test]
    fn drr_splits_budget_evenly_across_siblings() {
        let mut lane = Lane::new();
        let now = Instant::from_secs(1);
        let cfg = CodelConfig::default();
        // Two hosts, same offered load of 100 × 1000-byte packets each.
        for h in 0..2u32 {
            let leaf = lane.get_or_create(id(1, h), cfg);
            for _ in 0..100 {
                leaf.push(1000, now);
            }
        }
        // Budget for exactly 100 packets: each host gets 50.
        let served = lane.drr_serve(100 * 1000 * NB, 1514, now, false);
        assert_eq!(served.pkts, 100);
        assert_eq!(served.nanobytes, 100 * 1000 * NB);
        let remaining: Vec<u64> =
            lane.leaves.iter().map(|(_, l)| l.queue.len() as u64).collect();
        // DRR equalizes to within one quantum's worth of packets (the
        // budget can run out mid-round).
        assert_eq!(remaining[0] + remaining[1], 100);
        assert!(
            remaining[0].abs_diff(remaining[1]) <= 2,
            "split within a quantum: {remaining:?}"
        );
    }

    #[test]
    fn drr_is_byte_fair_with_unequal_packet_sizes() {
        let mut lane = Lane::new();
        let now = Instant::from_secs(1);
        let cfg = CodelConfig::default();
        // Host 0 sends 1500-byte packets, host 1 sends 300-byte packets.
        for _ in 0..200 {
            lane.get_or_create(id(1, 0), cfg).push(1500, now);
        }
        for _ in 0..1000 {
            lane.get_or_create(id(1, 1), cfg).push(300, now);
        }
        let budget_bytes = 60_000u128;
        let served = lane.drr_serve(budget_bytes * NB, 1514, now, false);
        // Each host should get ~30 kB despite the 5× packet-size skew.
        let sent0 = 1500 * (200 - lane.leaves[0].1.queue.len() as u64);
        let sent1 = 300 * (1000 - lane.leaves[1].1.queue.len() as u64);
        assert_eq!(served.nanobytes, (sent0 + sent1) as u128 * NB);
        let diff = sent0.abs_diff(sent1);
        assert!(diff <= 2 * 1514, "byte-fair within a quantum: {sent0} vs {sent1}");
    }

    #[test]
    fn budget_is_never_exceeded() {
        let mut lane = Lane::new();
        let now = Instant::from_secs(1);
        for h in 0..5u32 {
            let leaf = lane.get_or_create(be(h), CodelConfig::default());
            for _ in 0..50 {
                leaf.push(700, now);
            }
        }
        let budget = 12_345u128 * NB;
        let served = lane.drr_serve(budget, 1514, now, false);
        assert!(served.nanobytes <= budget);
        assert_eq!(served.nanobytes % (700 * NB), 0, "whole packets only");
    }

    #[test]
    fn remove_reservation_discards_only_its_leaves() {
        let mut lane = Lane::new();
        let now = Instant::from_secs(1);
        let cfg = CodelConfig::default();
        lane.get_or_create(id(1, 0), cfg).push(100, now);
        lane.get_or_create(id(1, 1), cfg).push(100, now);
        lane.get_or_create(id(2, 0), cfg).push(100, now);
        let (pkts, bytes) = lane.remove_reservation(ResId(1));
        assert_eq!((pkts, bytes), (2, 200));
        let (_, _, queued_bytes) = lane.audit().expect("index rebuilt consistently");
        assert_eq!(queued_bytes, 100);
        assert_eq!(lane.remove_reservation(ResId(1)), (0, 0));
    }

    #[test]
    fn audit_detects_nothing_on_healthy_lane() {
        let mut lane = Lane::new();
        let now = Instant::from_secs(1);
        for h in 0..10u32 {
            lane.get_or_create(be(h), CodelConfig::default()).push(h as u64 + 1, now);
        }
        let (leaves, pkts, bytes) = lane.audit().expect("healthy");
        assert_eq!((leaves, pkts, bytes), (10, 10, 55));
    }

    #[test]
    fn codel_head_drops_count_and_do_not_consume_budget() {
        let mut lane = Lane::new();
        let t0 = Instant::from_secs(1);
        let leaf = lane.get_or_create(be(0), CodelConfig::default());
        // A deep standing queue enqueued long ago: sojourn far above target.
        for _ in 0..100 {
            leaf.push(1000, t0);
        }
        // First pass arms the codel interval timer (no drops yet).
        let now1 = t0 + colibri_base::Duration::from_millis(50);
        let s1 = lane.drr_serve(2 * 1000 * NB, 1514, now1, true);
        assert_eq!(s1.codel_drops, 0);
        assert_eq!(s1.pkts, 2);
        // Well past the interval with the queue still standing: head drops.
        let now2 = t0 + colibri_base::Duration::from_millis(300);
        let s2 = lane.drr_serve(2 * 1000 * NB, 1514, now2, true);
        assert!(s2.codel_drops >= 1, "standing queue must be codel-dropped");
        assert!(s2.nanobytes <= 2 * 1000 * NB);
        assert_eq!(s2.sojourns_ns.len() as u64, s2.pkts);
    }
}

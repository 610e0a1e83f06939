//! The simulated network: nodes (border router + gateway per AS),
//! capacity-limited links with per-class queues, and delivery meters.
//!
//! The link model is packet-level: each directed link serializes one
//! packet at a time at its capacity, draining three class queues in
//! strict priority order Colibri-control → Colibri-data → best-effort
//! (Appendix B; strict priority is safe because the CServ bounds the sum
//! of reservations, so best-effort always receives the leftover). Queues
//! are byte-bounded; overflows are tail-dropped and counted — that is how
//! an 80 Gbps offered load funnels into a 40 Gbps output in the
//! protection experiment.

use crate::events::{Event, EventQueue};
use colibri_base::{Bandwidth, Duration, Instant, InterfaceId, IsdAsId};
use colibri_ctrl::master_secret_for;
use colibri_dataplane::{BorderRouter, Gateway, GatewayConfig, RouterConfig, TrafficClass};
use colibri_topology::Topology;
use std::collections::HashMap;
use std::sync::Arc;

/// Accounting label of a simulated flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FlowTag {
    /// An EER flow, numbered by the scenario.
    Reservation(u8),
    /// Best-effort cross traffic.
    BestEffort,
    /// Unauthentic Colibri traffic (forged HVFs).
    UnauthColibri,
    /// Colibri control traffic (protected, over a SegR).
    Control,
    /// Control messages sent as plain best-effort (the unprotected
    /// baseline of the §5.3 DoC experiment).
    ControlUnprotected,
}

/// What travels over the simulated links.
#[derive(Debug, Clone)]
pub enum PacketKind {
    /// A real Colibri packet, processed by every border router.
    Colibri(Vec<u8>),
    /// An opaque best-effort packet following a precomputed route of
    /// `(AS, egress interface)` entries; `LOCAL` egress means "deliver".
    BestEffort {
        /// The route.
        route: Arc<Vec<(IsdAsId, InterfaceId)>>,
        /// Index of the next route entry to apply.
        hop: usize,
        /// Packet size in bytes.
        size: usize,
    },
}

/// A simulated packet.
#[derive(Debug, Clone)]
pub struct SimPacket {
    /// Payload kind.
    pub kind: PacketKind,
    /// Scheduling class.
    pub class: TrafficClass,
    /// Accounting label.
    pub tag: FlowTag,
    /// When the packet entered the network (for latency accounting).
    pub injected_at: Instant,
}

impl SimPacket {
    /// Wire size in bytes.
    pub fn size(&self) -> usize {
        match &self.kind {
            PacketKind::Colibri(b) => b.len(),
            PacketKind::BestEffort { size, .. } => *size,
        }
    }
}

const CLASS_ORDER: [TrafficClass; 3] =
    [TrafficClass::ColibriControl, TrafficClass::ColibriData, TrafficClass::BestEffort];

fn class_idx(c: TrafficClass) -> usize {
    match c {
        TrafficClass::ColibriControl => 0,
        TrafficClass::ColibriData => 1,
        TrafficClass::BestEffort => 2,
    }
}

/// One directed link.
#[derive(Debug)]
struct Link {
    from: IsdAsId,
    to: IsdAsId,
    capacity: Bandwidth,
    queues: [std::collections::VecDeque<SimPacket>; 3],
    queued_bytes: [u64; 3],
    queue_cap_bytes: u64,
    busy: bool,
    /// Tail drops per class.
    pub drops: [u64; 3],
}

/// Per-AS simulated node.
pub struct Node {
    /// The AS's border router.
    pub router: BorderRouter,
    /// The AS's Colibri gateway.
    pub gateway: Gateway,
    /// This AS's clock offset from true simulation time. The paper assumes
    /// inter-AS synchronization within ±0.1 s (§2.3); the simulator lets
    /// tests inject skew and verify the freshness machinery tolerates it.
    pub clock_skew: i64,
}

impl Node {
    /// The node's local reading of true time `now`.
    pub fn local_time(&self, now: Instant) -> Instant {
        if self.clock_skew >= 0 {
            now + Duration::from_nanos(self.clock_skew as u64)
        } else {
            now.saturating_sub(Duration::from_nanos(self.clock_skew.unsigned_abs()))
        }
    }
}

/// Per-(destination, tag) delivery statistics.
#[derive(Debug, Default, Clone, Copy)]
struct Delivered {
    bytes: u64,
    messages: u64,
    on_time: u64,
    max_latency_ns: u64,
}

/// Bytes, message counts, and latency statistics per (destination AS,
/// flow tag).
#[derive(Debug, Default)]
pub struct Meter {
    delivered: HashMap<(IsdAsId, FlowTag), Delivered>,
    window_start: Instant,
    /// Messages arriving later than this after injection count as
    /// delivered but not *on time* (a reservation renewal that arrives
    /// after the reservation expired is useless — §5.3).
    deadline: Option<Duration>,
}

impl Meter {
    /// Clears all counters and marks the window start.
    pub fn reset(&mut self, now: Instant) {
        self.delivered.clear();
        self.window_start = now;
    }

    /// Sets the on-time deadline for subsequent deliveries.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    fn record(&mut self, dest: IsdAsId, tag: FlowTag, bytes: u64, latency: Duration) {
        let d = self.delivered.entry((dest, tag)).or_default();
        d.bytes += bytes;
        d.messages += 1;
        d.max_latency_ns = d.max_latency_ns.max(latency.as_nanos());
        if self.deadline.is_none_or(|dl| latency <= dl) {
            d.on_time += 1;
        }
    }

    /// Bytes delivered to `dest` with `tag` since the last reset.
    pub fn delivered_bytes(&self, dest: IsdAsId, tag: FlowTag) -> u64 {
        self.delivered.get(&(dest, tag)).map(|d| d.bytes).unwrap_or(0)
    }

    /// Messages delivered to `dest` with `tag`.
    pub fn messages(&self, dest: IsdAsId, tag: FlowTag) -> u64 {
        self.delivered.get(&(dest, tag)).map(|d| d.messages).unwrap_or(0)
    }

    /// Messages delivered within the deadline.
    pub fn on_time_messages(&self, dest: IsdAsId, tag: FlowTag) -> u64 {
        self.delivered.get(&(dest, tag)).map(|d| d.on_time).unwrap_or(0)
    }

    /// Average goodput of `(dest, tag)` over the window ending at `now`.
    pub fn rate(&self, dest: IsdAsId, tag: FlowTag, now: Instant) -> Bandwidth {
        let dt = now.saturating_since(self.window_start).as_nanos();
        if dt == 0 {
            return Bandwidth::ZERO;
        }
        let bytes = self.delivered_bytes(dest, tag);
        Bandwidth::from_bps((bytes as u128 * 8 * 1_000_000_000 / dt as u128) as u64)
    }
}

/// The simulated network fabric.
pub struct SimNet {
    links: Vec<Link>,
    /// (AS, egress interface) → link index.
    link_index: HashMap<(IsdAsId, InterfaceId), usize>,
    nodes: HashMap<IsdAsId, Node>,
    /// Delivery accounting.
    pub meter: Meter,
    /// Optional packet-level fault injection (drops / delays per link).
    faults: Option<crate::fault::PacketFaults>,
}

impl SimNet {
    /// Builds the fabric from a topology: one node per AS (router sharing
    /// the CServ's master secret), one directed link per interface.
    pub fn new(topo: &Topology, router_cfg: RouterConfig, queue_cap_bytes: u64) -> Self {
        let mut links = Vec::new();
        let mut link_index = HashMap::new();
        let mut nodes = HashMap::new();
        for id in topo.as_ids() {
            let node = topo.node(id).unwrap();
            for (&iface, info) in &node.interfaces {
                let idx = links.len();
                links.push(Link {
                    from: id,
                    to: info.neighbor,
                    capacity: info.capacity,
                    queues: Default::default(),
                    queued_bytes: [0; 3],
                    queue_cap_bytes,
                    busy: false,
                    drops: [0; 3],
                });
                link_index.insert((id, iface), idx);
            }
            nodes.insert(
                id,
                Node {
                    router: BorderRouter::new(id, &master_secret_for(id), router_cfg),
                    gateway: Gateway::new(GatewayConfig::default()),
                    clock_skew: 0,
                },
            );
        }
        Self { links, link_index, nodes, meter: Meter::default(), faults: None }
    }

    /// Attaches a fault plan's packet-level faults (and applies its clock
    /// skews to the nodes). Replaces any previously attached faults.
    pub fn set_faults(&mut self, plan: crate::fault::FaultPlan) {
        plan.apply_clock_skews(self);
        self.faults = Some(crate::fault::PacketFaults::new(plan));
    }

    /// The attached packet-fault state (counters), if any.
    pub fn faults(&self) -> Option<&crate::fault::PacketFaults> {
        self.faults.as_ref()
    }

    /// Mutable access to an AS's node.
    pub fn node_mut(&mut self, id: IsdAsId) -> &mut Node {
        self.nodes.get_mut(&id).unwrap_or_else(|| panic!("unknown AS {id}"))
    }

    /// Immutable access to an AS's node.
    pub fn node(&self, id: IsdAsId) -> &Node {
        self.nodes.get(&id).unwrap_or_else(|| panic!("unknown AS {id}"))
    }

    /// Tail drops of the link at `(from, egress)`, per class
    /// (control, data, best-effort).
    pub fn link_drops(&self, from: IsdAsId, egress: InterfaceId) -> [u64; 3] {
        let idx = self.link_index[&(from, egress)];
        self.links[idx].drops
    }

    /// Enqueues a packet on the link `(from, egress)`, scheduling a
    /// dequeue if the link is idle. Overflow → tail drop.
    pub fn enqueue(
        &mut self,
        from: IsdAsId,
        egress: InterfaceId,
        pkt: SimPacket,
        now: Instant,
        q: &mut EventQueue,
    ) {
        let Some(&idx) = self.link_index.get(&(from, egress)) else {
            // Misrouted packet (e.g. forged interface): silently dropped,
            // as a real router would drop on an unknown egress.
            return;
        };
        let link = &mut self.links[idx];
        let ci = class_idx(pkt.class);
        let size = pkt.size() as u64;
        if link.queued_bytes[ci] + size > link.queue_cap_bytes {
            link.drops[ci] += 1;
            return;
        }
        link.queued_bytes[ci] += size;
        link.queues[ci].push_back(pkt);
        if !link.busy {
            link.busy = true;
            q.push(now, Event::LinkDequeue { link: idx });
        }
    }

    /// Handles a link-dequeue event: transmit the highest-priority queued
    /// packet.
    pub fn handle_dequeue(&mut self, idx: usize, now: Instant, q: &mut EventQueue) {
        let link = &mut self.links[idx];
        let mut popped = None;
        for class in CLASS_ORDER {
            let ci = class_idx(class);
            if let Some(pkt) = link.queues[ci].pop_front() {
                link.queued_bytes[ci] -= pkt.size() as u64;
                popped = Some(pkt);
                break;
            }
        }
        let Some(pkt) = popped else {
            link.busy = false;
            return;
        };
        let tx = Duration::from_nanos(link.capacity.transmit_time_ns(pkt.size() as u64));
        let (from, to) = (link.from, link.to);
        q.push(now + tx, Event::LinkDequeue { link: idx });
        // Injected faults: the packet occupies the link for its full
        // serialization time either way, but may then be lost in transit
        // or arrive after extra propagation delay.
        if let Some(f) = self.faults.as_mut() {
            match f.packet_fate(from, to, now) {
                None => return,
                Some(extra) => {
                    q.push(now + tx + extra, Event::Arrival { link: idx, packet: pkt });
                    return;
                }
            }
        }
        q.push(now + tx, Event::Arrival { link: idx, packet: pkt });
    }

    /// Handles an arrival at the receiving node of `idx`.
    pub fn handle_arrival(&mut self, idx: usize, pkt: SimPacket, now: Instant, q: &mut EventQueue) {
        let at_as = self.links[idx].to;
        match pkt.kind {
            PacketKind::Colibri(mut bytes) => {
                let verdict = {
                    let node = self.nodes.get_mut(&at_as).unwrap();
                    let local = node.local_time(now);
                    node.router.process(&mut bytes, local)
                };
                use colibri_dataplane::RouterVerdict::*;
                match verdict {
                    Forward(egress) => {
                        let fwd = SimPacket {
                            kind: PacketKind::Colibri(bytes),
                            class: pkt.class,
                            tag: pkt.tag,
                            injected_at: pkt.injected_at,
                        };
                        self.enqueue(at_as, egress, fwd, now, q);
                    }
                    DeliverHost(_) | DeliverCserv => {
                        let latency = now.saturating_since(pkt.injected_at);
                        self.meter.record(at_as, pkt.tag, bytes.len() as u64, latency);
                    }
                    Drop(_) => {} // router stats carry the reason
                }
            }
            PacketKind::BestEffort { route, hop, size } => {
                let (as_here, egress) = route[hop];
                debug_assert_eq!(as_here, at_as, "best-effort route desync");
                if egress.is_local() {
                    let latency = now.saturating_since(pkt.injected_at);
                    self.meter.record(at_as, pkt.tag, size as u64, latency);
                } else {
                    let fwd = SimPacket {
                        kind: PacketKind::BestEffort { route, hop: hop + 1, size },
                        class: pkt.class,
                        tag: pkt.tag,
                        injected_at: pkt.injected_at,
                    };
                    self.enqueue(at_as, egress, fwd, now, q);
                }
            }
        }
    }
}

impl std::fmt::Debug for SimNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNet")
            .field("links", &self.links.len())
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

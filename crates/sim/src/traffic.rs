//! Traffic and attack generators.
//!
//! Three source types cover the paper's data-plane protection experiment
//! (§7.1): authentic EER traffic (through the source AS's gateway),
//! best-effort cross traffic, and unauthentic Colibri traffic with forged
//! authentication tags. Each generator emits packets at a configured rate
//! over an active interval, modeled as self-rescheduling tick events.

use crate::events::{Event, EventQueue};
use crate::net::{FlowTag, PacketKind, SimNet, SimPacket};
use colibri_base::{Bandwidth, Duration, HostAddr, Instant, InterfaceId, IsdAsId, ResId};
use colibri_dataplane::{RouterVerdict, TrafficClass};
use colibri_wire::{PacketViewMut, MAX_HOPS};
use std::sync::Arc;

/// When and how fast a generator emits.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// First emission.
    pub start: Instant,
    /// No emissions at or after this time.
    pub stop: Instant,
    /// Offered rate (including all headers).
    pub rate: Bandwidth,
}

impl Schedule {
    /// Inter-packet gap for `pkt_bytes` at the configured rate.
    fn gap(&self, pkt_bytes: usize) -> Duration {
        Duration::from_nanos(self.rate.transmit_time_ns(pkt_bytes as u64))
    }
}

/// A traffic source.
#[derive(Debug)]
pub enum Generator {
    /// An end host sending over an EER through its AS's gateway.
    Eer {
        /// Source AS (where the gateway runs).
        src_as: IsdAsId,
        /// Sending host.
        src_host: HostAddr,
        /// The reservation to use.
        res_id: ResId,
        /// Payload bytes per packet.
        payload: usize,
        /// Emission schedule.
        schedule: Schedule,
        /// Accounting tag.
        tag: FlowTag,
    },
    /// Best-effort cross traffic along a fixed route.
    BestEffort {
        /// Route of `(AS, egress)` entries; last egress `LOCAL`.
        route: Arc<Vec<(IsdAsId, InterfaceId)>>,
        /// Packet size.
        size: usize,
        /// Emission schedule.
        schedule: Schedule,
    },
    /// Control-plane messages stamped onto an existing SegR — the
    /// DoC-protected channel of §5.3 ("as soon as a SegR or EER exists,
    /// renewal requests can be sent over this reservation and are thus
    /// isolated from flooding attacks with best-effort traffic").
    SegrControl {
        /// The initiator-side reservation (tokens included).
        owned: Box<colibri_ctrl::OwnedSegr>,
        /// Payload of each control message.
        payload: usize,
        /// Emission schedule.
        schedule: Schedule,
    },
    /// The same control messages sent as plain best-effort traffic — the
    /// unprotected baseline the DoC experiment compares against.
    BestEffortControl {
        /// Route of `(AS, egress)` entries.
        route: Arc<Vec<(IsdAsId, InterfaceId)>>,
        /// Message size.
        size: usize,
        /// Emission schedule.
        schedule: Schedule,
    },
    /// Unauthentic Colibri packets: structurally valid, fresh timestamps,
    /// forged HVFs — the DDoS traffic of §7.1 attack 2.
    Unauth {
        /// AS injecting the forged packets.
        inject_as: IsdAsId,
        /// Its egress towards the victim path.
        egress: InterfaceId,
        /// A template packet (curr_hop pre-advanced to the victim AS).
        template: Vec<u8>,
        /// Emission schedule.
        schedule: Schedule,
        /// Monotone fake timestamp counter (keeps packets "fresh" and
        /// non-duplicate so they must be killed by the HVF check alone).
        next_ts_bump: u64,
    },
}

impl Generator {
    fn schedule(&self) -> Schedule {
        match self {
            Generator::Eer { schedule, .. }
            | Generator::BestEffort { schedule, .. }
            | Generator::SegrControl { schedule, .. }
            | Generator::BestEffortControl { schedule, .. }
            | Generator::Unauth { schedule, .. } => *schedule,
        }
    }

    fn pkt_size(&self) -> usize {
        match self {
            Generator::Eer { payload, .. } => {
                // Header size is path-dependent; the rate pacing uses the
                // payload + a nominal header, which is close enough for
                // offered-load accounting.
                payload + colibri_wire::header_len(4, true)
            }
            Generator::BestEffort { size, .. } | Generator::BestEffortControl { size, .. } => {
                *size
            }
            Generator::SegrControl { owned, payload, .. } => {
                colibri_wire::header_len(owned.segment.len(), false) + payload
            }
            Generator::Unauth { template, .. } => template.len(),
        }
    }

    /// Emits one packet at `now`. Returns `false` when the generator has
    /// passed its stop time (or has zero rate).
    pub fn emit(&mut self, net: &mut SimNet, now: Instant, q: &mut EventQueue) -> bool {
        let sched = self.schedule();
        if now >= sched.stop || sched.rate.as_bps() == 0 {
            return false;
        }
        match self {
            Generator::Eer { src_as, src_host, res_id, payload, tag, .. } => {
                let payload_buf = vec![0u8; *payload];
                let mut bytes = Vec::new();
                let gateway = &mut net.node_mut(*src_as).gateway;
                if gateway.process_into(*src_host, *res_id, &payload_buf, now, &mut bytes).is_ok() {
                    // The source AS's own border router validates hop 0 and
                    // forwards (Fig. 1c ➋→➌).
                    let verdict = net.node_mut(*src_as).router.process(&mut bytes, now);
                    if let RouterVerdict::Forward(egress) = verdict {
                        net.enqueue(
                            *src_as,
                            egress,
                            SimPacket {
                                kind: PacketKind::Colibri(bytes),
                                class: TrafficClass::ColibriData,
                                tag: *tag,
                                injected_at: now,
                            },
                            now,
                            q,
                        );
                    }
                }
            }
            Generator::BestEffort { route, size, .. } => {
                let (src, egress) = route[0];
                net.enqueue(
                    src,
                    egress,
                    SimPacket {
                        kind: PacketKind::BestEffort { route: route.clone(), hop: 1, size: *size },
                        class: TrafficClass::BestEffort,
                        tag: FlowTag::BestEffort,
                        injected_at: now,
                    },
                    now,
                    q,
                );
            }
            Generator::SegrControl { owned, payload, .. } => {
                let payload_buf = vec![0u8; *payload];
                let mut bytes = colibri_dataplane::stamp_segr_packet(owned, &payload_buf, now)
                    .expect("valid owned SegR");
                let src_as = owned.segment.first_as();
                let verdict = net.node_mut(src_as).router.process(&mut bytes, now);
                if let RouterVerdict::Forward(egress) = verdict {
                    net.enqueue(
                        src_as,
                        egress,
                        SimPacket {
                            kind: PacketKind::Colibri(bytes),
                            class: TrafficClass::ColibriControl,
                            tag: FlowTag::Control,
                            injected_at: now,
                        },
                        now,
                        q,
                    );
                }
            }
            Generator::BestEffortControl { route, size, .. } => {
                let (src, egress) = route[0];
                net.enqueue(
                    src,
                    egress,
                    SimPacket {
                        kind: PacketKind::BestEffort { route: route.clone(), hop: 1, size: *size },
                        class: TrafficClass::BestEffort,
                        tag: FlowTag::ControlUnprotected,
                        injected_at: now,
                    },
                    now,
                    q,
                );
            }
            Generator::Unauth { inject_as, egress, template, next_ts_bump, .. } => {
                let mut bytes = template.clone();
                {
                    let mut view = PacketViewMut::parse(&mut bytes).expect("valid template");
                    // Fresh, unique timestamp; HVFs stay garbage.
                    let base = view.view().res_info().exp_t.as_nanos();
                    view.set_ts(base.saturating_sub(now.as_nanos()) + (*next_ts_bump % 1000));
                }
                *next_ts_bump += 1;
                net.enqueue(
                    *inject_as,
                    *egress,
                    SimPacket {
                        kind: PacketKind::Colibri(bytes),
                        class: TrafficClass::ColibriData,
                        tag: FlowTag::UnauthColibri,
                        injected_at: now,
                    },
                    now,
                    q,
                );
            }
        }
        true
    }

    /// Next emission time after `now`. `None` for stopped or zero-rate
    /// generators (a zero rate would otherwise mean an infinite gap).
    pub fn next_tick(&self, now: Instant) -> Option<Instant> {
        let sched = self.schedule();
        if sched.rate.as_bps() == 0 {
            return None;
        }
        if now < sched.start {
            return Some(sched.start);
        }
        let next = Instant::from_nanos(
            now.as_nanos().checked_add(sched.gap(self.pkt_size()).as_nanos())?,
        );
        if next >= sched.stop {
            None
        } else {
            Some(next)
        }
    }
}

/// Builds a structurally valid EER packet with forged HVFs, positioned at
/// hop `victim_hop` of `path` (as if the attacker's upstream had already
/// "forwarded" it). The HVFs are filled with a fixed non-zero pattern the
/// victim's recomputation will reject.
pub fn forged_eer_packet(
    res_info: colibri_wire::ResInfo,
    eer_info: colibri_wire::EerInfo,
    path: &[colibri_wire::HopField],
    victim_hop: usize,
    payload_len: usize,
) -> Vec<u8> {
    assert!(path.len() <= MAX_HOPS && victim_hop < path.len());
    let payload = vec![0u8; payload_len];
    let mut bytes = colibri_wire::PacketBuilder::eer(res_info, eer_info)
        .path(path.iter().copied())
        .ts(1)
        .build(&payload)
        .expect("valid path");
    {
        let mut view = PacketViewMut::parse(&mut bytes).unwrap();
        for i in 0..path.len() {
            view.set_hvf(i, [0xBA, 0xD0 + i as u8, 0xCA, 0xFE]);
        }
        view.set_curr_hop(victim_hop);
    }
    bytes
}

/// Drives the whole simulation: owns the network, the queue, and the
/// generators.
pub struct Simulation {
    /// The network fabric.
    pub net: SimNet,
    /// The event queue.
    pub queue: EventQueue,
    gens: Vec<Generator>,
    now: Instant,
}

impl Simulation {
    /// Creates a simulation and arms the generators' first ticks.
    pub fn new(net: SimNet, gens: Vec<Generator>) -> Self {
        let mut queue = EventQueue::new();
        for (i, g) in gens.iter().enumerate() {
            queue.push(g.schedule().start, Event::GeneratorTick { gen: i });
        }
        Self { net, queue, gens, now: Instant::EPOCH }
    }

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Runs until `t_end` (events at exactly `t_end` are processed).
    pub fn run_until(&mut self, t_end: Instant) {
        while let Some(t) = self.queue.peek_time() {
            if t > t_end {
                break;
            }
            let (t, ev) = self.queue.pop().unwrap();
            self.now = t;
            match ev {
                Event::LinkDequeue { link } => {
                    self.net.handle_dequeue(link, t, &mut self.queue);
                }
                Event::Arrival { link, packet } => {
                    self.net.handle_arrival(link, packet, t, &mut self.queue);
                }
                Event::GeneratorTick { gen } => {
                    let g = &mut self.gens[gen];
                    let sched = g.schedule();
                    if t < sched.start {
                        self.queue.push(sched.start, Event::GeneratorTick { gen });
                        continue;
                    }
                    if g.emit(&mut self.net, t, &mut self.queue) {
                        if let Some(next) = self.gens[gen].next_tick(t) {
                            self.queue.push(next, Event::GeneratorTick { gen });
                        }
                    }
                }
            }
        }
        self.now = self.now.max(t_end);
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("generators", &self.gens.len())
            .field("pending", &self.queue.len())
            .finish()
    }
}

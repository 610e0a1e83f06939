//! What the measurement loop needs from a workload, and the loop itself.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// Running totals a scenario keeps; a window's work is the difference of
/// two readings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Packets offered to the gateway.
    pub gw_offered: u64,
    /// Wall nanoseconds between the burst-start and after-gateway clock reads.
    pub gw_ns: u64,
    /// Packet-hops handed to border routers.
    pub pkt_hops: u64,
    /// Wall nanoseconds between the after-gateway and burst-end clock reads.
    pub rt_ns: u64,
    /// Legitimate packets delivered, payload intact, to the right host.
    pub delivered: u64,
    /// Payload bytes of those packets (headers excluded).
    pub payload_bytes: u64,
    /// Control requests completed: granted, or refused as they had to be.
    pub requests: u64,
}

impl Tally {
    pub fn since(&self, earlier: &Tally) -> Tally {
        Tally {
            gw_offered: self.gw_offered - earlier.gw_offered,
            gw_ns: self.gw_ns - earlier.gw_ns,
            pkt_hops: self.pkt_hops - earlier.pkt_hops,
            rt_ns: self.rt_ns - earlier.rt_ns,
            delivered: self.delivered - earlier.delivered,
            payload_bytes: self.payload_bytes - earlier.payload_bytes,
            requests: self.requests - earlier.requests,
        }
    }
}

/// The latency populations a scenario samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Sample {
    /// One 32-packet burst, gateway entry to last verdict, µs.
    BurstUs,
    /// One set-up (flow open … first packet delivered, or `setup_segr`), µs.
    SetupUs,
    /// One renewal, µs.
    RenewUs,
    /// One GC sweep over all CServs, ms.
    GcMs,
}

/// Exact, seed-determined counters, by name.
pub type Counts = BTreeMap<&'static str, u64>;

pub fn counts_since(later: &Counts, earlier: &Counts) -> Counts {
    later
        .iter()
        .map(|(k, v)| (*k, v - earlier.get(k).copied().unwrap_or(0)))
        .collect()
}

/// The oracle's verdict on a whole run.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    /// End-of-run checks that are not per-operation (audits, counter
    /// cross-checks); any entry makes the run incorrect.
    pub violations: Vec<String>,
}

pub trait Scenario {
    /// One unit of closed-loop work: a 32-packet burst or a control
    /// request, its correctness check included. Returns true when this
    /// step closed a measurement window — windows hold a fixed amount of
    /// work (a number of bursts; one GC period), not a fixed time, so
    /// every window of a workload is made of the same operations.
    fn step(&mut self, tr: &mut Tracer) -> bool;
    fn tally(&self) -> Tally;
    fn samples(&self, which: Sample) -> &[f64];
    fn clear_samples(&mut self);
    /// Monotone counters; a count interval reports their difference.
    fn counts(&self) -> Counts;
    /// Levels and the stream hash; a count interval reports them as they
    /// stand at its end.
    fn levels(&self) -> Counts;
    /// Windows discarded before measuring (caches fill, populations settle).
    fn warmup_windows(&self) -> usize;
    /// Runs the end-of-run checks and returns the oracle's totals.
    fn verdict(&mut self) -> Verdict;
}

impl Sample {
    pub const ALL: [Sample; 4] = [
        Sample::BurstUs,
        Sample::SetupUs,
        Sample::RenewUs,
        Sample::GcMs,
    ];
}

/// One measured window.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub wall_ns: u64,
    pub work: Tally,
    /// Where this window's latency samples lie in the scenario's sample
    /// vectors, by [`Sample`]: `from[k]..to[k]`.
    pub from: [usize; 4],
    pub to: [usize; 4],
}

impl Window {
    pub fn samples<'a>(&self, sc: &'a dyn Scenario, which: Sample) -> &'a [f64] {
        let k = which as usize;
        &sc.samples(which)[self.from[k]..self.to[k]]
    }
}

fn sample_marks(sc: &dyn Scenario) -> [usize; 4] {
    Sample::ALL.map(|k| sc.samples(k).len())
}

/// Windows over which the exact counts are taken: the first
/// `COUNT_WINDOWS` after warm-up, whatever the host's speed.
pub const COUNT_WINDOWS: usize = 4;

/// Steps `sc` for at least `seconds` of wall time and at least
/// `min_windows` whole windows. With `count_into`, also records the
/// counter difference over the first [`COUNT_WINDOWS`] windows.
pub fn run_pass(
    sc: &mut dyn Scenario,
    tr: &mut Tracer,
    seconds: f64,
    min_windows: usize,
    mut count_into: Option<&mut Counts>,
) -> Vec<Window> {
    let mut windows = Vec::new();
    let base_counts = count_into.as_ref().map(|_| sc.counts());
    let start = Instant::now();
    let mut mark = start;
    let mut prev = sc.tally();
    let mut from = sample_marks(sc);
    loop {
        if !sc.step(tr) {
            continue;
        }
        let now = Instant::now();
        let tally = sc.tally();
        let to = sample_marks(sc);
        windows.push(Window {
            wall_ns: (now - mark).as_nanos() as u64,
            work: tally.since(&prev),
            from,
            to,
        });
        mark = now;
        prev = tally;
        from = to;
        if windows.len() == COUNT_WINDOWS {
            if let (Some(out), Some(base)) = (count_into.as_deref_mut(), base_counts.as_ref()) {
                *out = counts_since(&sc.counts(), base);
                out.extend(sc.levels());
            }
        }
        let enough = windows.len()
            >= min_windows.max(if count_into.is_some() {
                COUNT_WINDOWS
            } else {
                1
            });
        if enough && (now - start).as_secs_f64() >= seconds {
            return windows;
        }
    }
}

pub fn warm_up(sc: &mut dyn Scenario, tr: &mut Tracer) {
    let was_on = tr.is_on();
    tr.set_on(false);
    let mut left = sc.warmup_windows();
    while left > 0 {
        if sc.step(tr) {
            left -= 1;
        }
    }
    sc.clear_samples();
    tr.set_on(was_on);
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        steps: u64,
    }

    impl Scenario for Fake {
        fn step(&mut self, _tr: &mut Tracer) -> bool {
            self.steps += 1;
            self.steps.is_multiple_of(10)
        }
        fn tally(&self) -> Tally {
            Tally {
                requests: self.steps,
                ..Tally::default()
            }
        }
        fn samples(&self, _: Sample) -> &[f64] {
            &[]
        }
        fn clear_samples(&mut self) {}
        fn counts(&self) -> Counts {
            Counts::from([("steps", self.steps)])
        }
        fn levels(&self) -> Counts {
            Counts::from([("level", self.steps)])
        }
        fn warmup_windows(&self) -> usize {
            2
        }
        fn verdict(&mut self) -> Verdict {
            Verdict::default()
        }
    }

    #[test]
    fn windows_hold_equal_work_and_counts_cover_the_first_four() {
        let mut sc = Fake { steps: 0 };
        let mut tr = Tracer::new(false);
        warm_up(&mut sc, &mut tr);
        assert_eq!(sc.steps, 20);
        let mut counts = Counts::new();
        let windows = run_pass(&mut sc, &mut tr, 0.0, 6, Some(&mut counts));
        assert_eq!(windows.len(), 6);
        assert!(windows.iter().all(|w| w.work.requests == 10));
        assert_eq!(counts["steps"], 40);
        assert_eq!(counts["level"], 20 + 40);
    }
}

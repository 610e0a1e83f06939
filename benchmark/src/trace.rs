//! Spans around calls into a layer, recorded by the benchmark's own code,
//! kept in memory and written out when the run ends.
//!
//! The untraced run never reads the clock here: `begin` on a disabled
//! tracer returns [`SpanId::NONE`] and `end` ignores it, so the only cost
//! left in the end-to-end numbers is one predictable branch per call.

use std::io::Write;
use std::time::Instant;

/// Which call a span wraps. The string is the layer (crate/module) name
/// the per-layer metrics are filed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanName {
    Burst,
    Gateway,
    RouterHop,
    RouterScalar,
    Install,
    Request,
    Open,
    Send,
    Tick,
    FindPaths,
    SetupEer,
    RenewEer,
    SetupSegr,
    RenewSegr,
    ActivateSegr,
    TeardownSegr,
    Gc,
}

impl SpanName {
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Burst => "chain.burst",
            SpanName::Gateway => "dataplane.gateway.process_into",
            SpanName::RouterHop => "dataplane.router.process_batch",
            SpanName::RouterScalar => "dataplane.router.process",
            SpanName::Install => "dataplane.gateway.install",
            SpanName::Request => "cp.request",
            SpanName::Open => "host.open",
            SpanName::Send => "host.send",
            SpanName::Tick => "host.tick",
            SpanName::FindPaths => "topology.find_paths",
            SpanName::SetupEer => "ctrl.setup_eer",
            SpanName::RenewEer => "ctrl.renew_eer",
            SpanName::SetupSegr => "ctrl.setup_segr",
            SpanName::RenewSegr => "ctrl.renew_segr",
            SpanName::ActivateSegr => "ctrl.activate_segr",
            SpanName::TeardownSegr => "ctrl.teardown_segr",
            SpanName::Gc => "ctrl.gc",
        }
    }
}

/// Index of a recorded span; `NONE` when tracing is off or there is no
/// parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(u32::MAX);
}

/// What caused a span: its parent span and the burst or request both
/// belong to.
#[derive(Debug, Clone, Copy)]
pub struct Cause {
    pub parent: SpanId,
    pub req: u64,
}

impl Cause {
    /// A top-level span of burst or request `req`.
    pub fn root(req: u64) -> Cause {
        Cause {
            parent: SpanId::NONE,
            req,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: SpanName,
    /// The span that caused this one.
    pub parent: SpanId,
    /// Spans of one burst or one request share this identifier.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Units of work inside the span (packets of a burst, flows renewed
    /// by a tick), so a per-unit cost can be derived. 1 for a single call.
    pub items: u32,
    /// Router hop index for `RouterHop`, otherwise 0.
    pub aux: u16,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Pauses or resumes recording (the traced run measures its untraced
    /// baseline in the same process).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    #[inline]
    pub fn begin(&mut self, name: SpanName, cause: Cause, aux: u16) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let id = SpanId(self.spans.len() as u32);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let Cause { parent, req } = cause;
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns,
            end_ns: start_ns,
            items: 1,
            aux,
        });
        id
    }

    #[inline]
    pub fn end(&mut self, id: SpanId, items: u32) {
        if id != SpanId::NONE {
            let s = &mut self.spans[id.0 as usize];
            s.end_ns = self.origin.elapsed().as_nanos() as u64;
            s.items = items;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds per item of every span called `name` (and, for router
    /// hops, at hop `aux` when given) that held at least one item.
    pub fn ns_per_item(&self, name: SpanName, aux: Option<u16>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.items > 0 && aux.is_none_or(|a| s.aux == a))
            .map(|s| (s.end_ns - s.start_ns) as f64 / s.items as f64)
            .collect()
    }

    /// A span's duration minus the part its child spans cover. Children
    /// are recorded after their parent and never overlap one another.
    pub fn self_time_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let covered: u64 = self.spans[id + 1..]
            .iter()
            .take_while(|c| c.start_ns <= s.end_ns)
            .filter(|c| c.parent == SpanId(id as u32))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(covered)
    }

    /// One line per span: `name,aux,req,parent,start_ns,end_ns,items`.
    pub fn write_csv(&self, w: &mut impl Write) -> std::io::Result<()> {
        writeln!(w, "name,aux,req,parent,start_ns,end_ns,items")?;
        for s in &self.spans {
            let parent = if s.parent == SpanId::NONE {
                -1
            } else {
                i64::from(s.parent.0)
            };
            writeln!(
                w,
                "{},{},{},{},{},{},{}",
                s.name.as_str(),
                s.aux,
                s.req,
                parent,
                s.start_ns,
                s.end_ns,
                s.items
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin(SpanName::Burst, Cause::root(1), 0);
        assert_eq!(id, SpanId::NONE);
        t.end(id, 32);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let burst = t.begin(SpanName::Burst, Cause::root(9), 0);
        let within = Cause {
            parent: burst,
            req: 9,
        };
        let gw = t.begin(SpanName::Gateway, within, 0);
        t.end(gw, 32);
        let hop = t.begin(SpanName::RouterHop, within, 0);
        t.end(hop, 32);
        t.end(burst, 32);
        // Make the durations exact instead of depending on the clock.
        let fix = [(0, 0, 1000), (1, 100, 400), (2, 500, 900)];
        let mut spans = t.spans().to_vec();
        for (i, s, e) in fix {
            spans[i].start_ns = s;
            spans[i].end_ns = e;
        }
        let t = Tracer {
            on: true,
            origin: Instant::now(),
            spans,
        };
        assert_eq!(t.self_time_ns(0), 1000 - 300 - 400);
        assert_eq!(
            t.ns_per_item(SpanName::RouterHop, Some(0)),
            vec![400.0 / 32.0]
        );
        assert!(t.ns_per_item(SpanName::RouterHop, Some(1)).is_empty());
    }
}

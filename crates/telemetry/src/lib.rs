//! Colibri observability: lock-free shard-local metrics, deterministic
//! control-plane tracing, and Prometheus/JSON exposition.
//!
//! # Model
//!
//! A [`Registry`] owns a set of named metrics (counters, gauges,
//! log-linear histograms) and a set of named **shards**. Hot-path code
//! holds a [`Counter`]/[`Gauge`]/[`Histogram`] handle — an `Arc` to one
//! shard's atomic cell — and writes with a single relaxed `fetch_add`:
//! no locks, no allocation, no cross-shard contention. Registration
//! (the cold path) goes through a `Mutex`. Scrapes walk every cell and
//! produce an epoch-stamped [`Snapshot`] that merges shards, diffs
//! against earlier snapshots, and renders to Prometheus text or JSON.
//!
//! Shards are **explicit labels** (`"router3"`, `"gw0"`), not thread
//! identities: the `parallel` drivers register one shard per worker, so
//! a scrape can show per-shard splits and the cross-shard merge —
//! deterministically, regardless of how threads were scheduled.
//!
//! # Determinism and the `Stability` contract
//!
//! Every metric declares a [`Stability`]:
//!
//! - [`Stability::Invariant`] — identical across scalar and batched
//!   execution of the same input on one instance (forwarding verdicts,
//!   crypto op counts, admission outcomes). The scalar-vs-batched
//!   differential oracles compare exactly these, making telemetry
//!   itself a correctness probe. (Sharded runs split stateful
//!   monitoring across workers, so only ground-truth comparisons — not
//!   bit-equality — apply there.)
//! - [`Stability::PathDependent`] — deterministic for a fixed
//!   configuration but legitimately different across batching/sharding
//!   choices (cache hits, batch-size distributions).
//! - [`Stability::Volatile`] — wall-clock measurements; excluded from
//!   every equality check.
//!
//! [`Snapshot::invariant_totals`] applies the filter; see DESIGN.md §11.
//!
//! # Naming
//!
//! `colibri_<component>_<what>[_<unit>]`, counters suffixed `_total`.
//! [`verify_exposition`] rejects scrapes with duplicate or undeclared
//! sample names, and `scripts/check.sh` runs it on every quick
//! pipeline run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod trace;

pub use hist::{HistCells, HistSnapshot};
pub use trace::{TraceEvent, TraceOp, TraceOutcome, Tracer};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// What a metric measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone event count.
    Counter,
    /// Point-in-time level (set, not accumulated).
    Gauge,
    /// Log-linear distribution of recorded values.
    Histogram,
}

impl MetricKind {
    fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// How a metric behaves across equivalent executions (see crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stability {
    /// Identical across scalar and batched runs of the same input.
    Invariant,
    /// Deterministic, but depends on batching/sharding/cache geometry.
    PathDependent,
    /// Wall-clock or otherwise non-reproducible.
    Volatile,
}

impl Stability {
    fn label(self) -> &'static str {
        match self {
            Stability::Invariant => "invariant",
            Stability::PathDependent => "path_dependent",
            Stability::Volatile => "volatile",
        }
    }
}

#[derive(Debug, Clone)]
struct MetricMeta {
    name: String,
    help: String,
    kind: MetricKind,
    stability: Stability,
}

#[derive(Debug, Clone)]
enum Cell {
    Scalar(Arc<AtomicU64>),
    Hist(Arc<HistCells>),
}

#[derive(Debug, Default)]
struct State {
    metrics: Vec<MetricMeta>,
    by_name: BTreeMap<String, usize>,
    shards: Vec<String>,
    by_shard: BTreeMap<String, usize>,
    /// One cell per `(metric, shard)` pair that has registered.
    cells: BTreeMap<(usize, usize), Cell>,
}

impl State {
    fn metric_id(&mut self, name: &str, kind: MetricKind, stability: Stability, help: &str) -> usize {
        if let Some(&id) = self.by_name.get(name) {
            let meta = &self.metrics[id];
            assert!(
                meta.kind == kind && meta.stability == stability,
                "metric `{name}` re-registered as {:?}/{:?} (was {:?}/{:?})",
                kind,
                stability,
                meta.kind,
                meta.stability
            );
            return id;
        }
        let id = self.metrics.len();
        self.metrics.push(MetricMeta {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            stability,
        });
        self.by_name.insert(name.to_string(), id);
        id
    }

    fn shard_id(&mut self, label: &str) -> usize {
        if let Some(&id) = self.by_shard.get(label) {
            return id;
        }
        let id = self.shards.len();
        self.shards.push(label.to_string());
        self.by_shard.insert(label.to_string(), id);
        id
    }

    fn cell(&mut self, mid: usize, sid: usize, kind: MetricKind) -> Cell {
        self.cells
            .entry((mid, sid))
            .or_insert_with(|| match kind {
                MetricKind::Histogram => Cell::Hist(Arc::new(HistCells::new())),
                _ => Cell::Scalar(Arc::new(AtomicU64::new(0))),
            })
            .clone()
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    state: Mutex<State>,
    epoch: AtomicU64,
}

/// A set of metrics plus the shards that write them.
///
/// Cheap to clone (`Arc` inside); components that instrument themselves
/// take `&Registry` and keep only the cell handles they write.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The named shard, created on first use.
    pub fn shard(&self, label: &str) -> Shard {
        let sid = self.inner.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner).shard_id(label);
        Shard { registry: self.clone(), shard: sid }
    }

    fn register(&self, shard: usize, name: &str, kind: MetricKind, stability: Stability, help: &str) -> Cell {
        let mut st = self.inner.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mid = st.metric_id(name, kind, stability, help);
        st.cell(mid, shard, kind)
    }

    /// Poisons the registry lock as a panicking lock-holder would — the
    /// failure mode the recovering locks exist for. Test hook only.
    #[doc(hidden)]
    pub fn poison_lock_for_test(&self) {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard =
                self.inner.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            std::panic::resume_unwind(Box::new("deliberate registry poison"));
        }));
    }

    /// Takes an epoch-stamped snapshot of every cell.
    ///
    /// Scalar cells are read twice and once more on mismatch, so a
    /// quiescent registry (no concurrent writers — the state in which
    /// all oracles compare) snapshots exactly; under concurrent writes
    /// each cell is individually atomic and the epoch orders scrapes.
    pub fn snapshot(&self) -> Snapshot {
        let epoch = self.inner.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        let st = self.inner.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut entries = Vec::with_capacity(st.metrics.len());
        for (mid, meta) in st.metrics.iter().enumerate() {
            let mut shards = Vec::new();
            for (sid, label) in st.shards.iter().enumerate() {
                if let Some(cell) = st.cells.get(&(mid, sid)) {
                    let value = match cell {
                        Cell::Scalar(c) => Value::Scalar(stable_read(c)),
                        Cell::Hist(h) => Value::Hist(h.snapshot()),
                    };
                    shards.push((label.clone(), value));
                }
            }
            entries.push(MetricSnapshot {
                name: meta.name.clone(),
                help: meta.help.clone(),
                kind: meta.kind,
                stability: meta.stability,
                shards,
            });
        }
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot { epoch, entries }
    }

    /// Number of scrapes taken so far.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }
}

fn stable_read(c: &AtomicU64) -> u64 {
    let a = c.load(Ordering::Acquire);
    let b = c.load(Ordering::Acquire);
    if a == b {
        a
    } else {
        c.load(Ordering::Acquire)
    }
}

/// One named shard of a [`Registry`]; hands out cell handles.
#[derive(Debug, Clone)]
pub struct Shard {
    registry: Registry,
    shard: usize,
}

impl Shard {
    /// Registers (or reuses) a counter in this shard.
    pub fn counter(&self, name: &str, stability: Stability, help: &str) -> Counter {
        match self.registry.register(self.shard, name, MetricKind::Counter, stability, help) {
            Cell::Scalar(cell) => Counter { cell },
            Cell::Hist(_) => unreachable!("counter cell"),
        }
    }

    /// Registers (or reuses) a gauge in this shard.
    pub fn gauge(&self, name: &str, stability: Stability, help: &str) -> Gauge {
        match self.registry.register(self.shard, name, MetricKind::Gauge, stability, help) {
            Cell::Scalar(cell) => Gauge { cell },
            Cell::Hist(_) => unreachable!("gauge cell"),
        }
    }

    /// Registers (or reuses) a histogram in this shard.
    pub fn histogram(&self, name: &str, stability: Stability, help: &str) -> Histogram {
        match self.registry.register(self.shard, name, MetricKind::Histogram, stability, help) {
            Cell::Hist(cell) => Histogram { cell },
            Cell::Scalar(_) => unreachable!("histogram cell"),
        }
    }
}

/// Lock-free monotone counter handle (one shard's cell).
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n` (relaxed; the snapshot epoch provides ordering).
    #[inline]
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds `n` with a plain load and store instead of a locked
    /// read-modify-write, for a cell whose only writer is the calling
    /// thread (a per-thread shard). A concurrent writer on the same cell
    /// could lose an update; readers still see a whole value.
    #[inline]
    pub fn add_sole_writer(&self, n: u64) {
        self.cell.store(self.cell.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Current value of this shard's cell.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Acquire)
    }
}

/// Lock-free gauge handle (one shard's cell).
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Current value of this shard's cell.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Acquire)
    }
}

/// Lock-free histogram handle (one shard's cell).
#[derive(Debug, Clone)]
pub struct Histogram {
    cell: Arc<HistCells>,
}

impl Histogram {
    /// Records one value.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.cell.observe(v);
    }
}

/// A scraped value: scalar (counter/gauge) or histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Counter or gauge reading.
    Scalar(u64),
    /// Histogram reading.
    Hist(HistSnapshot),
}

impl Value {
    fn merge(&mut self, other: &Value) {
        match (self, other) {
            (Value::Scalar(a), Value::Scalar(b)) => *a += *b,
            (Value::Hist(a), Value::Hist(b)) => a.merge(b),
            _ => panic!("merging mismatched metric values"),
        }
    }

    fn delta_since(&self, earlier: &Value) -> Value {
        match (self, earlier) {
            (Value::Scalar(a), Value::Scalar(b)) => Value::Scalar(a.saturating_sub(*b)),
            (Value::Hist(a), Value::Hist(b)) => Value::Hist(a.delta_since(b)),
            _ => panic!("diffing mismatched metric values"),
        }
    }
}

/// One metric in a snapshot: metadata plus every shard's reading.
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// Metric name (`colibri_…`).
    pub name: String,
    /// Help string supplied at registration.
    pub help: String,
    /// Counter / gauge / histogram.
    pub kind: MetricKind,
    /// Cross-execution stability class.
    pub stability: Stability,
    /// `(shard label, value)` per registered shard, in shard order.
    pub shards: Vec<(String, Value)>,
}

impl MetricSnapshot {
    /// This metric merged across all shards.
    pub fn total(&self) -> Value {
        let mut it = self.shards.iter();
        let mut acc = match it.next() {
            Some((_, v)) => v.clone(),
            None => match self.kind {
                MetricKind::Histogram => Value::Hist(HistSnapshot::default()),
                _ => Value::Scalar(0),
            },
        };
        for (_, v) in it {
            acc.merge(v);
        }
        acc
    }
}

/// An epoch-stamped scrape of a whole [`Registry`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Scrape sequence number (1-based, per registry).
    pub epoch: u64,
    /// Every registered metric, sorted by name.
    pub entries: Vec<MetricSnapshot>,
}

impl Snapshot {
    /// The named metric, if registered.
    pub fn metric(&self, name: &str) -> Option<&MetricSnapshot> {
        self.entries.iter().find(|m| m.name == name)
    }

    /// The named scalar metric merged across shards (0 if absent —
    /// counters start at zero, so "never registered" reads the same).
    pub fn total(&self, name: &str) -> u64 {
        match self.metric(name).map(|m| m.total()) {
            Some(Value::Scalar(v)) => v,
            Some(Value::Hist(h)) => h.count,
            None => 0,
        }
    }

    /// The named histogram merged across shards.
    pub fn histogram(&self, name: &str) -> Option<HistSnapshot> {
        match self.metric(name)?.total() {
            Value::Hist(h) => Some(h),
            Value::Scalar(_) => None,
        }
    }

    /// The difference `self - earlier`, metric by metric and shard by
    /// shard (metrics/shards absent from `earlier` pass through whole).
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let entries = self
            .entries
            .iter()
            .map(|m| {
                let base = earlier.metric(&m.name);
                let shards = m
                    .shards
                    .iter()
                    .map(|(label, v)| {
                        let bv = base.and_then(|b| {
                            b.shards.iter().find(|(bl, _)| bl == label).map(|(_, bv)| bv)
                        });
                        (label.clone(), bv.map_or_else(|| v.clone(), |bv| v.delta_since(bv)))
                    })
                    .collect();
                MetricSnapshot { shards, ..m.clone() }
            })
            .collect();
        Snapshot { epoch: self.epoch, entries }
    }

    /// Cross-shard totals of every [`Stability::Invariant`] metric —
    /// the comparison set for the scalar-vs-batched differential
    /// oracles.
    pub fn invariant_totals(&self) -> BTreeMap<String, Value> {
        self.entries
            .iter()
            .filter(|m| m.stability == Stability::Invariant)
            .map(|m| (m.name.clone(), m.total()))
            .collect()
    }

    /// Prometheus text exposition (per-shard samples, `shard` label).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for m in &self.entries {
            let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
            let _ = writeln!(out, "# TYPE {} {}", m.name, m.kind.label());
            for (shard, v) in &m.shards {
                match v {
                    Value::Scalar(n) => {
                        let _ = writeln!(out, "{}{{shard=\"{shard}\"}} {n}", m.name);
                    }
                    Value::Hist(h) => {
                        let mut cum = 0u64;
                        for &(idx, n) in &h.buckets {
                            cum += n;
                            let le = upper_bound_label(idx);
                            let _ = writeln!(
                                out,
                                "{}_bucket{{shard=\"{shard}\",le=\"{le}\"}} {cum}",
                                m.name
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{}_bucket{{shard=\"{shard}\",le=\"+Inf\"}} {}",
                            m.name, h.count
                        );
                        let _ = writeln!(out, "{}_sum{{shard=\"{shard}\"}} {}", m.name, h.sum);
                        let _ = writeln!(out, "{}_count{{shard=\"{shard}\"}} {}", m.name, h.count);
                    }
                }
            }
        }
        out
    }

    /// JSON export, as printed by `examples/observability.rs`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"epoch\":{},\"metrics\":[", self.epoch);
        for (i, m) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"kind\":\"{}\",\"stability\":\"{}\",\"shards\":{{",
                m.name,
                m.kind.label(),
                m.stability.label()
            );
            for (j, (shard, v)) in m.shards.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{shard}\":");
                render_value_json(&mut out, v);
            }
            out.push_str("},\"total\":");
            render_value_json(&mut out, &m.total());
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

fn upper_bound_label(idx: usize) -> u64 {
    if idx + 1 < hist::BUCKETS {
        hist::bucket_lower_bound(idx + 1).saturating_sub(1)
    } else {
        u64::MAX
    }
}

fn render_value_json(out: &mut String, v: &Value) {
    match v {
        Value::Scalar(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Hist(h) => {
            let _ = write!(out, "{{\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{},\"buckets\":[",
                h.count, h.sum, h.quantile(0.5), h.quantile(0.99));
            for (i, &(idx, n)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{},{n}]", hist::bucket_lower_bound(idx));
            }
            out.push_str("]}");
        }
    }
}

/// Validates a Prometheus text scrape: every sample must belong to a
/// `# TYPE`-declared metric, no metric may be declared twice, and no
/// `(name, labels)` pair may repeat. Returns the number of samples.
///
/// This is the check `scripts/check.sh` runs against the quick
/// pipeline scrape to catch unregistered or duplicated metric names.
pub fn verify_exposition(text: &str) -> Result<usize, String> {
    let mut declared: BTreeMap<&str, &str> = BTreeMap::new();
    let mut samples = 0usize;
    let mut seen: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if name.is_empty() || !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("malformed TYPE line: `{line}`"));
            }
            if declared.insert(name, kind).is_some() {
                return Err(format!("metric `{name}` declared twice"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let sample = line.split(' ').next().unwrap_or("");
        let name_part = sample.split('{').next().unwrap_or("");
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| {
                name_part
                    .strip_suffix(suf)
                    .filter(|b| matches!(declared.get(b), Some(&"histogram")))
            })
            .unwrap_or(name_part);
        if !declared.contains_key(base) {
            return Err(format!("sample `{sample}` has no TYPE declaration"));
        }
        if !seen.insert(sample) {
            return Err(format!("duplicate sample `{sample}`"));
        }
        samples += 1;
    }
    Ok(samples)
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry, for cross-cutting counters that have no
/// owning component instance (crypto op counts, reliable-channel retry
/// totals). Everything component-shaped should prefer its own
/// per-instance [`Registry`] (test isolation, no cross-talk).
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_hists_roundtrip() {
        let reg = Registry::new();
        let s0 = reg.shard("s0");
        let s1 = reg.shard("s1");
        let c0 = s0.counter("colibri_test_events_total", Stability::Invariant, "events");
        let c1 = s1.counter("colibri_test_events_total", Stability::Invariant, "events");
        let g = s0.gauge("colibri_test_level", Stability::PathDependent, "level");
        let h = s1.histogram("colibri_test_size", Stability::PathDependent, "sizes");
        c0.add(3);
        c1.inc();
        g.set(42);
        h.observe(10);
        h.observe(2000);

        let snap = reg.snapshot();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.total("colibri_test_events_total"), 4);
        assert_eq!(snap.total("colibri_test_level"), 42);
        let hh = snap.histogram("colibri_test_size").unwrap();
        assert_eq!(hh.count, 2);
        assert_eq!(hh.sum, 2010);
        assert_eq!(snap.total("colibri_never_registered"), 0);
        assert_eq!(reg.snapshot().epoch, 2);
    }

    #[test]
    fn scrapes_survive_a_poisoned_lock() {
        let reg = Registry::new();
        let c = reg.shard("s").counter("colibri_test_poison_total", Stability::Invariant, "p");
        c.inc();
        reg.poison_lock_for_test();
        // Registration, cell lookup, and snapshotting must all keep
        // working after a lock-holder panicked mid-incident.
        let c2 = reg.shard("s2").counter("colibri_test_poison_total", Stability::Invariant, "p");
        c2.add(2);
        let snap = reg.snapshot();
        assert_eq!(snap.total("colibri_test_poison_total"), 3);
    }

    #[test]
    fn same_cell_for_same_name_and_shard() {
        let reg = Registry::new();
        let a = reg.shard("s").counter("colibri_test_x_total", Stability::Invariant, "x");
        let b = reg.shard("s").counter("colibri_test_x_total", Stability::Invariant, "x");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(reg.snapshot().total("colibri_test_x_total"), 2);
    }

    #[test]
    fn sole_writer_add_accumulates_like_add() {
        let reg = Registry::new();
        let c = reg.shard("t").counter("colibri_test_sole_total", Stability::Invariant, "s");
        c.add(3);
        c.add_sole_writer(4);
        c.add_sole_writer(0);
        assert_eq!(c.get(), 7);
        assert_eq!(reg.snapshot().total("colibri_test_sole_total"), 7);
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn conflicting_registration_panics() {
        let reg = Registry::new();
        let s = reg.shard("s");
        let _ = s.counter("colibri_test_y_total", Stability::Invariant, "y");
        let _ = s.gauge("colibri_test_y_total", Stability::Invariant, "y");
    }

    #[test]
    fn delta_and_invariant_filter() {
        let reg = Registry::new();
        let s = reg.shard("s");
        let c = s.counter("colibri_test_inv_total", Stability::Invariant, "inv");
        let v = s.counter("colibri_test_wall_total", Stability::Volatile, "wall");
        c.add(5);
        v.add(100);
        let before = reg.snapshot();
        c.add(2);
        v.add(999);
        let after = reg.snapshot();
        let d = after.delta_since(&before);
        assert_eq!(d.total("colibri_test_inv_total"), 2);
        let inv = d.invariant_totals();
        assert_eq!(inv.len(), 1);
        assert_eq!(inv.get("colibri_test_inv_total"), Some(&Value::Scalar(2)));
    }

    #[test]
    fn prometheus_render_passes_verifier() {
        let reg = Registry::new();
        let s0 = reg.shard("a");
        let s1 = reg.shard("b");
        s0.counter("colibri_test_ok_total", Stability::Invariant, "ok").add(7);
        s1.counter("colibri_test_ok_total", Stability::Invariant, "ok").add(1);
        s0.histogram("colibri_test_lat_ns", Stability::Volatile, "latency").observe(123);
        let text = reg.snapshot().render_prometheus();
        let n = verify_exposition(&text).expect("valid exposition");
        // 2 counter samples + bucket/+Inf/sum/count for the histogram.
        assert_eq!(n, 2 + 4);
        assert!(text.contains("colibri_test_ok_total{shard=\"a\"} 7"));
        assert!(text.contains("# TYPE colibri_test_lat_ns histogram"));
    }

    #[test]
    fn verifier_rejects_bad_scrapes() {
        assert!(verify_exposition("colibri_x_total 1\n").is_err());
        let dup = "# TYPE colibri_x_total counter\n# TYPE colibri_x_total counter\n";
        assert!(verify_exposition(dup).is_err());
        let dup_sample =
            "# TYPE colibri_x_total counter\ncolibri_x_total{shard=\"a\"} 1\ncolibri_x_total{shard=\"a\"} 2\n";
        assert!(verify_exposition(dup_sample).is_err());
        let ok = "# HELP colibri_x_total x\n# TYPE colibri_x_total counter\ncolibri_x_total{shard=\"a\"} 1\n";
        assert_eq!(verify_exposition(ok), Ok(1));
    }

    #[test]
    fn json_renders_totals_and_quantiles() {
        let reg = Registry::new();
        let s = reg.shard("s");
        s.counter("colibri_test_j_total", Stability::Invariant, "j").add(9);
        let h = s.histogram("colibri_test_j_ns", Stability::Volatile, "ns");
        for v in [10u64, 20, 30] {
            h.observe(v);
        }
        let json = reg.snapshot().render_json();
        assert!(json.contains("\"name\":\"colibri_test_j_ns\""));
        assert!(json.contains("\"total\":9"));
        assert!(json.contains("\"count\":3,\"sum\":60"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn global_registry_is_shared() {
        let a = global().shard("t").counter("colibri_test_global_total", Stability::Invariant, "g");
        let before = a.get();
        global().shard("t").counter("colibri_test_global_total", Stability::Invariant, "g").inc();
        assert_eq!(a.get(), before + 1);
    }
}

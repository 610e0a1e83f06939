//! Deterministic simulated time.
//!
//! Colibri depends on loosely synchronized clocks (the paper assumes ±0.1 s
//! across ASes) for reservation expiry, packet freshness, duplicate
//! suppression, and monitoring windows. The whole workspace runs against
//! this virtual clock rather than the OS clock so that tests, the
//! discrete-event simulator, and the benchmarks are reproducible.
//!
//! Internally both [`Instant`] and [`Duration`] are nanosecond counts. The
//! paper's high-precision packet timestamp `Ts` (§4.3) is expressed in
//! nanoseconds relative to the reservation's expiration time.


/// A point in simulated time, in nanoseconds since the simulation epoch.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct Instant(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct Duration(pub u64);

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// The longest representable duration.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Constructs from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }
    /// Constructs from whole microseconds (saturating).
    pub const fn from_micros(us: u64) -> Self {
        Duration(us.saturating_mul(1_000))
    }
    /// Constructs from whole milliseconds (saturating).
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms.saturating_mul(1_000_000))
    }
    /// Constructs from whole seconds (saturating).
    pub const fn from_secs(s: u64) -> Self {
        Duration(s.saturating_mul(1_000_000_000))
    }
    /// Constructs from fractional seconds (rounds to nanoseconds).
    pub fn from_secs_f64(s: f64) -> Self {
        Duration((s * 1e9).round() as u64)
    }

    /// Total nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    /// Total microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }
    /// Total milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }
    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition.
    pub const fn saturating_add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }

    /// Checked addition (`None` on overflow).
    pub const fn checked_add(self, rhs: Duration) -> Option<Duration> {
        match self.0.checked_add(rhs.0) {
            Some(ns) => Some(Duration(ns)),
            None => None,
        }
    }

    /// Multiplies by an integer factor.
    pub const fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }
}

impl Instant {
    /// The simulation epoch (t = 0).
    pub const EPOCH: Instant = Instant(0);

    /// The far future — the last representable instant.
    pub const MAX: Instant = Instant(u64::MAX);

    /// Constructs from whole nanoseconds since the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        Instant(ns)
    }
    /// Constructs from whole seconds since the epoch (saturating).
    pub const fn from_secs(s: u64) -> Self {
        Instant(s.saturating_mul(1_000_000_000))
    }
    /// Constructs from whole milliseconds since the epoch (saturating).
    pub const fn from_millis(ms: u64) -> Self {
        Instant(ms.saturating_mul(1_000_000))
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is in
    /// the future (clock skew between ASes can make this happen).
    pub const fn saturating_since(self, earlier: Instant) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Checked subtraction of another instant.
    pub fn checked_since(self, earlier: Instant) -> Option<Duration> {
        self.0.checked_sub(earlier.0).map(Duration)
    }

    /// Saturating subtraction of a duration.
    pub const fn saturating_sub(self, d: Duration) -> Instant {
        Instant(self.0.saturating_sub(d.0))
    }

    /// Saturating addition of a duration. Fault schedules and retry
    /// deadlines computed near `Instant::MAX` (e.g. "link down forever")
    /// clamp to the far future instead of overflowing.
    pub const fn saturating_add(self, d: Duration) -> Instant {
        Instant(self.0.saturating_add(d.0))
    }

    /// Checked addition of a duration (`None` on overflow).
    pub const fn checked_add(self, d: Duration) -> Option<Instant> {
        match self.0.checked_add(d.0) {
            Some(ns) => Some(Instant(ns)),
            None => None,
        }
    }
}

// All operator arithmetic saturates: deadline and backoff computations on
// adversarial fault schedules (expiries at `Instant::MAX`, exponential
// backoff doublings) must never panic, merely clamp to the epoch bounds.
impl std::ops::Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, rhs: Duration) -> Instant {
        self.saturating_add(rhs)
    }
}

impl std::ops::AddAssign<Duration> for Instant {
    fn add_assign(&mut self, rhs: Duration) {
        *self = self.saturating_add(rhs);
    }
}

impl std::ops::Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        self.saturating_add(rhs)
    }
}

impl std::ops::AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = self.saturating_add(rhs);
    }
}

impl std::ops::Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        self.saturating_sub(rhs)
    }
}

impl std::fmt::Display for Duration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}µs", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl std::fmt::Display for Instant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t={:.6}s", self.0 as f64 / 1e9)
    }
}

/// Quantization of the virtual timeline into fixed-width slots ("ticks").
///
/// All time-indexed reservation state (admission timelines, the expiry
/// wheel) is keyed by *slot indices* rather than raw instants: a slot is
/// `tick` wide, slot `k` covers `[k·tick, (k+1)·tick)`. Two conventions
/// keep reservation windows conservative:
///
/// * window *starts* round **down** ([`SlotGrid::slot_of`]) so a
///   reservation is considered live from the slot containing its start;
/// * window *ends* round **up** ([`SlotGrid::slot_ceil`]) so a
///   reservation keeps consuming bandwidth until the slot containing its
///   expiry has fully passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotGrid {
    tick: Duration,
}

impl SlotGrid {
    /// A grid with the given slot width. Panics if `tick` is zero.
    pub const fn new(tick: Duration) -> Self {
        assert!(tick.0 > 0, "slot tick must be positive");
        Self { tick }
    }

    /// The slot width.
    pub const fn tick(&self) -> Duration {
        self.tick
    }

    /// The slot containing `t` (floor).
    pub const fn slot_of(&self, t: Instant) -> u64 {
        t.0 / self.tick.0
    }

    /// The first slot boundary at or after `t` (ceiling) — the exclusive
    /// end slot for a window expiring at `t`.
    pub const fn slot_ceil(&self, t: Instant) -> u64 {
        // Saturating add so `Instant::MAX` maps to the last slot instead
        // of wrapping.
        t.0.saturating_add(self.tick.0 - 1) / self.tick.0
    }

    /// The instant at which `slot` begins (saturating at the far future).
    pub const fn slot_start(&self, slot: u64) -> Instant {
        Instant(slot.saturating_mul(self.tick.0))
    }

    /// The half-open slot window covering `[from, until)`.
    pub const fn window(&self, from: Instant, until: Instant) -> SlotWindow {
        SlotWindow::new(self.slot_of(from), self.slot_ceil(until))
    }
}

/// A half-open range of slot indices `[start, end)` on a [`SlotGrid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotWindow {
    /// First slot of the window (inclusive).
    pub start: u64,
    /// One past the last slot of the window (exclusive).
    pub end: u64,
}

impl SlotWindow {
    /// A window from `start` (inclusive) to `end` (exclusive).
    pub const fn new(start: u64, end: u64) -> Self {
        Self { start, end }
    }

    /// The degenerate single-slot window containing only `slot`.
    pub const fn at(slot: u64) -> Self {
        Self { start: slot, end: slot.saturating_add(1) }
    }

    /// Whether the window covers no slot.
    pub const fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Number of slots covered.
    pub const fn len(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.end - self.start
        }
    }

    /// Whether `slot` lies inside the window.
    pub const fn contains(&self, slot: u64) -> bool {
        self.start <= slot && slot < self.end
    }

    /// The window with its start raised to at least `min_start` (the end
    /// is unchanged; the result may be empty).
    pub const fn clamp_start(&self, min_start: u64) -> SlotWindow {
        let start = if self.start < min_start { min_start } else { self.start };
        SlotWindow { start, end: self.end }
    }
}

impl std::fmt::Display for SlotWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// A monotone virtual clock that can be shared and advanced explicitly.
///
/// The simulator owns one clock per run; components (gateways, routers,
/// monitors, Colibri services) read it when they need "now". Benchmarks
/// advance it manually to model packet inter-arrival times without syscall
/// overhead.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now: std::cell::Cell<u64>,
}

impl Clock {
    /// A clock starting at the epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock starting at `at`.
    pub fn starting_at(at: Instant) -> Self {
        Self { now: std::cell::Cell::new(at.0) }
    }

    /// Current virtual time.
    pub fn now(&self) -> Instant {
        Instant(self.now.get())
    }

    /// Advances the clock by `d` (saturating at the far future).
    pub fn advance(&self, d: Duration) {
        self.now.set(self.now.get().saturating_add(d.0));
    }

    /// Jumps to `t`. Panics if `t` would move time backwards — the clock is
    /// monotone by construction.
    pub fn set(&self, t: Instant) {
        assert!(t.0 >= self.now.get(), "clock must be monotone: {} < now", t);
        self.now.set(t.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Duration::from_secs(2).as_millis(), 2000);
        assert_eq!(Duration::from_millis(5).as_micros(), 5000);
        assert_eq!(Duration::from_micros(7).as_nanos(), 7000);
        assert_eq!(Duration::from_secs_f64(0.5).as_millis(), 500);
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = Instant::from_secs(10);
        let t1 = t0 + Duration::from_millis(250);
        assert_eq!(t1.saturating_since(t0), Duration::from_millis(250));
        assert_eq!(t0.saturating_since(t1), Duration::ZERO);
        assert_eq!(t1.checked_since(t0), Some(Duration::from_millis(250)));
        assert_eq!(t0.checked_since(t1), None);
    }

    #[test]
    fn clock_advances() {
        let c = Clock::new();
        assert_eq!(c.now(), Instant::EPOCH);
        c.advance(Duration::from_secs(1));
        assert_eq!(c.now(), Instant::from_secs(1));
        c.set(Instant::from_secs(5));
        assert_eq!(c.now(), Instant::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn clock_rejects_backwards() {
        let c = Clock::starting_at(Instant::from_secs(10));
        c.set(Instant::from_secs(9));
    }

    #[test]
    fn arithmetic_saturates_at_epoch_bounds() {
        // Near-MAX schedules must clamp, not panic.
        assert_eq!(Instant::MAX + Duration::from_secs(1), Instant::MAX);
        assert_eq!(Duration::MAX + Duration::from_nanos(1), Duration::MAX);
        assert_eq!(Duration::ZERO - Duration::from_nanos(1), Duration::ZERO);
        assert_eq!(Duration::from_secs(u64::MAX), Duration::MAX);
        assert_eq!(Instant::from_secs(u64::MAX), Instant::MAX);
        assert_eq!(Instant::MAX.checked_add(Duration::from_nanos(1)), None);
        assert_eq!(
            Instant::EPOCH.checked_add(Duration::from_nanos(1)),
            Some(Instant::from_nanos(1))
        );
        let mut t = Instant::MAX;
        t += Duration::from_secs(5);
        assert_eq!(t, Instant::MAX);
        let c = Clock::starting_at(Instant::MAX);
        c.advance(Duration::from_secs(1));
        assert_eq!(c.now(), Instant::MAX);
    }

    #[test]
    fn display() {
        assert_eq!(Duration::from_nanos(12).to_string(), "12ns");
        assert_eq!(Duration::from_micros(12).to_string(), "12.000µs");
        assert_eq!(Duration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(Duration::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn slot_grid_floor_and_ceiling() {
        let g = SlotGrid::new(Duration::from_secs(1));
        assert_eq!(g.slot_of(Instant::EPOCH), 0);
        assert_eq!(g.slot_of(Instant::from_millis(999)), 0);
        assert_eq!(g.slot_of(Instant::from_secs(1)), 1);
        assert_eq!(g.slot_ceil(Instant::EPOCH), 0);
        assert_eq!(g.slot_ceil(Instant::from_millis(1)), 1);
        assert_eq!(g.slot_ceil(Instant::from_secs(1)), 1);
        assert_eq!(g.slot_ceil(Instant::from_millis(1001)), 2);
        assert_eq!(g.slot_start(3), Instant::from_secs(3));
        // A reservation live on [0.5s, 2.5s) occupies slots 0, 1, 2.
        let w = g.window(Instant::from_millis(500), Instant::from_millis(2500));
        assert_eq!(w, SlotWindow::new(0, 3));
        // MAX never wraps.
        assert!(g.slot_ceil(Instant::MAX) >= g.slot_of(Instant::MAX));
    }

    #[test]
    fn slot_window_operations() {
        let w = SlotWindow::new(2, 5);
        assert_eq!(w.len(), 3);
        assert!(!w.is_empty());
        assert!(w.contains(2) && w.contains(4) && !w.contains(5) && !w.contains(1));
        assert_eq!(w.clamp_start(4), SlotWindow::new(4, 5));
        assert_eq!(w.clamp_start(1), w);
        assert!(w.clamp_start(7).is_empty());
        assert_eq!(SlotWindow::at(9), SlotWindow::new(9, 10));
        assert_eq!(SlotWindow::new(3, 3).len(), 0);
        assert_eq!(w.to_string(), "[2, 5)");
    }
}

//! The pieces every experiment of the `repro` table shares: the run mode,
//! the JSON value each experiment reports, and the shape checks `--gate`
//! enforces.

use std::fmt;

/// How long an experiment may run: `Quick` is the gate configuration
/// (`scripts/check.sh`), `Full` regenerates the committed `REPRO.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Smaller grids and fewer repetitions.
    Quick,
    /// The paper-sized grids.
    Full,
}

impl Mode {
    /// `quick` in quick mode, `full` otherwise.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Mode::Quick => quick,
            Mode::Full => full,
        }
    }
}

/// What one experiment measured.
pub struct Outcome {
    /// The experiment's object in `REPRO.json`.
    pub json: Json,
    /// Its shape checks; `--gate` fails if any does not pass.
    pub checks: Vec<Check>,
}

/// One shape check: an exact count, a fitted slope, a ratio or a bound,
/// with the measured value and the tolerance it was held to.
pub struct Check {
    /// What is checked.
    pub what: String,
    /// Whether the measurement is within tolerance.
    pub pass: bool,
    /// The measured value against the tolerance.
    pub detail: String,
}

impl Check {
    /// `got` must equal `want` exactly.
    pub fn exact<T: PartialEq + fmt::Debug>(what: impl Into<String>, got: T, want: T) -> Check {
        let detail = format!("{got:?} (must equal {want:?})");
        Check { what: what.into(), pass: got == want, detail }
    }

    /// `got` must not exceed `max`.
    pub fn at_most(what: impl Into<String>, got: f64, max: f64) -> Check {
        Check {
            what: what.into(),
            pass: got <= max,
            detail: format!("{} ≤ {}", num(got), num(max)),
        }
    }

    /// `got` must reach at least `min`.
    pub fn at_least(what: impl Into<String>, got: f64, min: f64) -> Check {
        Check {
            what: what.into(),
            pass: got >= min,
            detail: format!("{} ≥ {}", num(got), num(min)),
        }
    }

    /// The least-squares slope of `ln y` over `ln x` must not exceed
    /// `max`: a cost flat in `x` fits ≈ 0, a linear one ≈ 1.
    pub fn slope(what: impl Into<String>, points: &[(f64, f64)], max: f64) -> Check {
        Check::at_most(format!("{} (log-log slope)", what.into()), log_log_slope(points), max)
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mark = if self.pass { "ok  " } else { "FAIL" };
        write!(f, "  [{mark}] {}: {}", self.what, self.detail)
    }
}

fn num(x: f64) -> String {
    if x == x.trunc() || x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.4}")
    }
}

/// The host's available parallelism, recorded beside every multi-thread
/// number.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// The size in bytes of the host's level-`level` data or unified cache,
/// as cpu0's sysfs entry reports it (`None` where there is none),
/// recorded beside a wall-clock ratio that depends on it.
pub fn cache_bytes(level: u32) -> Option<u64> {
    let dirs = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dirs.flatten().find_map(|dir| {
        let read = |file: &str| std::fs::read_to_string(dir.path().join(file)).ok();
        if read("level")?.trim().parse() != Ok(level) || read("type")?.trim() == "Instruction" {
            return None;
        }
        let size = read("size")?;
        let size = size.trim();
        let (digits, unit) = size.split_at(size.trim_end_matches(char::is_alphabetic).len());
        let shift = match unit {
            "" => 0,
            "K" => 10,
            "M" => 20,
            _ => return None,
        };
        digits.parse::<u64>().ok().map(|n| n << shift)
    })
}

/// Least-squares slope of `ln y` against `ln x`.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let (mx, my) = logs.iter().fold((0.0, 0.0), |(a, b), &(x, y)| (a + x / n, b + y / n));
    let cov: f64 = logs.iter().map(|&(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = logs.iter().map(|&(x, _)| (x - mx) * (x - mx)).sum();
    cov / var
}

/// Runs `measure(cell)` for every cell once to warm up, then `rounds`
/// times round-robin, and returns each cell's median. Interleaving makes a
/// slow stretch of a shared host hit every cell alike instead of skewing
/// the cells that happened to run during it.
pub fn interleaved_medians(
    rounds: usize,
    cells: usize,
    mut measure: impl FnMut(usize) -> f64,
) -> Vec<f64> {
    (0..cells).for_each(|c| {
        measure(c);
    });
    let mut samples = vec![Vec::with_capacity(rounds); cells];
    for _ in 0..rounds {
        for (c, s) in samples.iter_mut().enumerate() {
            s.push(measure(c));
        }
    }
    samples
        .into_iter()
        .map(|mut s| {
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        })
        .collect()
}

/// Mean nanoseconds per call of `f` over `calls` calls.
pub fn ns_per_call(calls: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = std::time::Instant::now();
    for i in 0..calls {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / calls as f64
}

/// Nanoseconds per call of `f` in the fastest of `windows` windows that
/// share `calls` calls. Preemption only ever slows a window down, so the
/// fastest is the closest observable estimate of the true cost.
pub fn best_ns_per_call(calls: u64, windows: u64, mut f: impl FnMut(u64)) -> f64 {
    let per = (calls / windows).max(1);
    (0..windows).map(|w| ns_per_call(per, |i| f(w * per + i))).fold(f64::INFINITY, f64::min)
}

/// A JSON value, rendered with every object or array of scalars (or of
/// scalar arrays) on one line, so each measured row of `REPRO.json`
/// diffs as one line.
#[derive(Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A count.
    Int(u64),
    /// A measurement (`null` if not finite).
    Num(f64),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(&'static str, Json)>),
}

/// Builds a [`Json::Obj`]: `obj! { "hops": 4, "mpps": 1.5 }`.
#[macro_export]
macro_rules! obj {
    ($($k:literal : $v:expr),* $(,)?) => {
        $crate::harness::Json::Obj(vec![$(($k, $crate::harness::Json::from($v))),*])
    };
}

macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {
        $(impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        })*
    };
}

json_from! {
    bool => |b| Json::Bool(b),
    u64 => |n| Json::Int(n),
    u32 => |n| Json::Int(n.into()),
    usize => |n| Json::Int(n as u64),
    f64 => |x| Json::Num(x),
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl Json {
    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    /// Renders the value as a file; nested containers indent by two spaces.
    pub fn render(&self) -> String {
        self.inline() + "\n"
    }

    fn inline(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Bool(b) => return out.push_str(&b.to_string()),
            Json::Int(n) => return out.push_str(&n.to_string()),
            Json::Null => return out.push_str("null"),
            Json::Num(x) if !x.is_finite() => return out.push_str("null"),
            Json::Num(x) => {
                let decimals = if x.abs() >= 1e3 { 1 } else { 4 };
                return out.push_str(&format!("{x:.decimals$}"));
            }
            Json::Arr(v) => ('[', ']', v.iter().map(|j| (None, j)).collect()),
            Json::Obj(kv) => ('{', '}', kv.iter().map(|(k, j)| (Some(*k), j)).collect()),
        };
        let leaf =
            |j: &Json| j.is_scalar() || matches!(j, Json::Arr(v) if v.iter().all(Json::is_scalar));
        let flat = items.iter().all(|(_, j)| leaf(j));
        out.push(open);
        for (i, (key, value)) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if !flat {
                out.push('\n');
                out.push_str(&"  ".repeat(depth + 1));
            } else if i > 0 {
                out.push(' ');
            }
            if let Some(k) = key {
                out.push_str(&format!("{k:?}: "));
            }
            value.write(out, depth + 1);
        }
        if !flat && !items.is_empty() {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push(close);
    }

    /// Prints the record for a reader: an array of objects as a table
    /// headed by their keys, a nested object indented under its key,
    /// anything else as `key: value`.
    pub fn print(&self, depth: usize) {
        let pad = "  ".repeat(depth);
        let Json::Obj(kv) = self else {
            return println!("{pad}{}", self.inline());
        };
        for (key, value) in kv {
            match value {
                Json::Arr(rows)
                    if !rows.is_empty() && rows.iter().all(|r| matches!(r, Json::Obj(_))) =>
                {
                    println!("{pad}{key}:");
                    print_table(rows, &pad);
                }
                Json::Obj(_) => {
                    println!("{pad}{key}:");
                    value.print(depth + 1);
                }
                _ => println!("{pad}{key}: {}", value.inline()),
            }
        }
    }
}

/// Prints objects that share one set of keys as right-aligned columns.
fn print_table(rows: &[Json], pad: &str) {
    let cells: Vec<Vec<(&str, String)>> = rows
        .iter()
        .filter_map(|row| match row {
            Json::Obj(kv) => Some(kv.iter().map(|(k, v)| (*k, v.inline())).collect()),
            _ => None,
        })
        .collect();
    let header: Vec<&str> = cells[0].iter().map(|(k, _)| *k).collect();
    let widths: Vec<usize> = (0..header.len())
        .map(|i| {
            cells
                .iter()
                .filter_map(|r| r.get(i))
                .map(|(k, v)| k.len().max(v.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let line = |texts: Vec<&str>| {
        let cols: Vec<String> =
            texts.iter().zip(&widths).map(|(t, w)| format!("{t:>w$}")).collect();
        println!("{pad}  {}", cols.join("  "));
    };
    line(header);
    for row in &cells {
        line(row.iter().map(|(_, v)| v.as_str()).collect());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_separates_flat_from_linear() {
        let xs = [1e3f64, 2e3, 4e3, 8e3];
        let flat: Vec<_> = xs.iter().map(|&x| (x, 2.0 + 0.01 * x.ln())).collect();
        let linear: Vec<_> = xs.iter().map(|&x| (x, 3.0 * x)).collect();
        assert!(log_log_slope(&flat).abs() < 0.05);
        assert!((log_log_slope(&linear) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rows_of_scalars_render_one_per_line() {
        let j = obj! {
            "rows": vec![obj! { "hops": 4u64, "mpps": 1.5 }, obj! { "hops": 8u64, "mpps": f64::INFINITY }],
            "ok": true,
            "row": obj! { "us": vec![1.0, 2.0], "n": Some(3u64), "ns": 12345.678 },
        };
        assert_eq!(
            j.render(),
            "{\n  \"rows\": [\n    {\"hops\": 4, \"mpps\": 1.5000},\n    \
             {\"hops\": 8, \"mpps\": null}\n  ],\n  \"ok\": true,\n  \
             \"row\": {\"us\": [1.0000, 2.0000], \"n\": 3, \"ns\": 12345.7}\n}\n"
        );
    }
}

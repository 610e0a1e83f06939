//! What a run prints: a table for people, the full report for `--out`,
//! and as the last line of standard output the one JSON object the driver
//! reads.

use crate::cli::Args;
use crate::metrics::{catalog, END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::Outcome;
use crate::trace::SpanName;
use std::fmt::Write as _;

/// `run_seconds` of `BENCHMARK.json`: how long the driver's runs measure.
pub const RUN_SECONDS: u32 = 15;

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite `f64` with all its digits (Rust prints the shortest form that
/// reads back exactly).
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metrics are finite");
    format!("{v}")
}

pub fn is_correct(out: &Outcome) -> bool {
    out.verdict.failed == 0 && out.verdict.violations.is_empty() && out.verdict.attempted > 0
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(args: &Args, out: &Outcome) -> String {
    let metrics: Vec<String> = catalog(args.trace)
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(out.values[m.name].value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        is_correct(out),
        out.verdict.attempted,
        out.verdict.failed,
        metrics.join(", ")
    )
}

/// The host a result was measured on; every report carries it.
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
}

impl Fingerprint {
    pub fn read() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        // run.sh exports these; a bare binary reports them as unknown.
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model,
            rustc: env("COLIBRI_BENCH_RUSTC"),
            commit: env("COLIBRI_BENCH_COMMIT"),
        }
    }
}

pub fn table(args: &Args, out: &Outcome, host: &Fingerprint) -> String {
    let mut s = String::new();
    let w = &mut s;
    let why = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .map_or("", |(_, w)| w);
    writeln!(w, "workload {}: {why}", args.workload).unwrap();
    writeln!(
        w,
        "seed {}  seconds {}  {}  |  {} x {}  {}  commit {}",
        args.seed,
        args.seconds,
        if args.trace {
            "traced run (per-layer)"
        } else {
            "untraced run (end-to-end)"
        },
        host.nproc,
        host.cpu_model,
        host.rustc,
        host.commit
    )
    .unwrap();
    writeln!(
        w,
        "{:<42} {:>16} {:<7} {:<7} band / bound",
        "metric", "value", "unit", "better"
    )
    .unwrap();
    for m in catalog(args.trace) {
        let r = &out.values[m.name];
        let mut note = String::new();
        if let Some(b) = r.band {
            write!(note, "min {:.4} max {:.4} n {}", b.min, b.max, b.n).unwrap();
        }
        if let Some(t) = out.tails.get(m.name) {
            write!(note, "p{} of {} samples", t.percentile, t.n).unwrap();
        }
        if let Some(bound) = m.bound {
            write!(note, "  bound {:.0}%", bound * 100.0).unwrap();
        }
        writeln!(
            w,
            "{:<42} {:>16.4} {:<7} {:<7} {}",
            m.name,
            r.value,
            m.unit,
            m.better.as_str(),
            note
        )
        .unwrap();
    }
    let ratio = out.verdict.failed as f64 / out.verdict.attempted.max(1) as f64;
    writeln!(
        w,
        "oracle: attempted {}  failed {}  failed_ratio {ratio:.3e}  (bound: no increase)",
        out.verdict.attempted, out.verdict.failed
    )
    .unwrap();
    for v in &out.verdict.violations {
        writeln!(w, "VIOLATION: {v}").unwrap();
    }
    s
}

/// The `--out` report: the result line's content plus bands, exact counts,
/// tails with their percentile and sample count, and the host fingerprint.
pub fn full_report(args: &Args, out: &Outcome, host: &Fingerprint) -> String {
    let mut s = String::from("{\n");
    let w = &mut s;
    writeln!(w, "  \"workload\": {},", json_str(&args.workload)).unwrap();
    writeln!(
        w,
        "  \"seed\": {}, \"seconds\": {}, \"trace\": {},",
        args.seed,
        json_num(args.seconds),
        args.trace
    )
    .unwrap();
    writeln!(
        w,
        "  \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}}},",
        host.nproc,
        json_str(&host.cpu_model),
        json_str(&host.rustc),
        json_str(&host.commit)
    )
    .unwrap();
    writeln!(
        w,
        "  \"correct\": {}, \"attempted\": {}, \"failed\": {},",
        is_correct(out),
        out.verdict.attempted,
        out.verdict.failed
    )
    .unwrap();
    let violations: Vec<String> = out.verdict.violations.iter().map(|v| json_str(v)).collect();
    writeln!(w, "  \"violations\": [{}],", violations.join(", ")).unwrap();
    writeln!(w, "  \"metrics\": {{").unwrap();
    let rows: Vec<String> = catalog(args.trace)
        .iter()
        .map(|m| {
            let r = &out.values[m.name];
            let mut row = format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"better\": {}",
                json_str(m.name),
                json_num(r.value),
                json_str(m.unit),
                json_str(m.better.as_str())
            );
            if let Some(bound) = m.bound {
                write!(row, ", \"bound\": {}", json_num(bound)).unwrap();
            }
            if let Some(b) = r.band {
                write!(
                    row,
                    ", \"min\": {}, \"max\": {}, \"n\": {}",
                    json_num(b.min),
                    json_num(b.max),
                    b.n
                )
                .unwrap();
            }
            if let Some(t) = out.tails.get(m.name) {
                write!(
                    row,
                    ", \"percentile\": {}, \"n\": {}",
                    json_num(t.percentile),
                    t.n
                )
                .unwrap();
            }
            row.push('}');
            row
        })
        .collect();
    writeln!(w, "{}\n  }},", rows.join(",\n")).unwrap();
    let counts: Vec<String> = out
        .counts
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    writeln!(w, "  \"exact_counts\": {{{}}},", counts.join(", ")).unwrap();
    // Self time of a burst span: what the harness itself adds between the
    // gateway and router calls (batch assembly, verdict bookkeeping).
    let glue: Vec<f64> = out
        .tracer
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == SpanName::Burst)
        .map(|(i, _)| out.tracer.self_time_ns(i) as f64)
        .collect();
    let glue = crate::stats::median(&glue).map_or("null".to_string(), json_num);
    writeln!(
        w,
        "  \"spans\": {}, \"burst_self_time_p50_ns\": {glue}",
        out.tracer.spans().len()
    )
    .unwrap();
    s.push_str("}\n");
    s
}

/// `BENCHMARK.json` as the catalog defines it.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    let w = &mut s;
    writeln!(w, "  \"command\": [\"bash\", \"benchmark/run.sh\"],").unwrap();
    writeln!(w, "  \"paths\": [\"benchmark\"],").unwrap();
    writeln!(w, "  \"run_seconds\": {RUN_SECONDS},").unwrap();
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(name),
                json_str(why)
            )
        })
        .collect();
    writeln!(w, "  \"workloads\": [\n{}\n  ],", rows.join(",\n")).unwrap();
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str()),
                json_num(m.bound.expect("end-to-end metrics have bounds"))
            )
        })
        .collect();
    writeln!(w, "  \"end_to_end\": [\n{}\n  ],", rows.join(",\n")).unwrap();
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )
        })
        .collect();
    writeln!(w, "  \"per_layer\": [\n{}\n  ]", rows.join(",\n")).unwrap();
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped_and_numbers_keep_their_digits() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(1.203_456_789_012_345), "1.203456789012345");
        assert_eq!(json_num(2.0), "2");
    }

    /// `BENCHMARK.json` at the repo root is what the catalog says it is.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with run.sh --emit-benchmark-json"
        );
    }
}

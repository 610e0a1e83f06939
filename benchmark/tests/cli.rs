//! Drives the built benchmark the way the driver does and checks the
//! contract: strict flags, the result line's shape, determinism per seed,
//! and a non-zero exit when the oracle is handed a wrong expectation.

use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_colibri-benchmark");

fn bench(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

/// The `"name": "…"` values of one list of `BENCHMARK.json`.
fn catalog_names(section: &str, until: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let from = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let to = if until.is_empty() {
        text.len()
    } else {
        text.find(&format!("\"{until}\"")).expect("section present")
    };
    text[from..to]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

/// The metric names of a result line, in order.
fn result_metric_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\": {").expect("metrics key") + 12..];
    metrics
        .split("\": {\"value\": ")
        .filter_map(|chunk| chunk.rsplit('"').next())
        .filter(|name| !name.is_empty() && !name.contains('}'))
        .map(String::from)
        .collect()
}

/// One `"key": value` of the `exact_counts` object of an `--out` report.
fn exact_counts(report: &str) -> Vec<(String, u64)> {
    let line = report
        .lines()
        .find(|l| l.contains("\"exact_counts\""))
        .expect("exact_counts line");
    let body = &line[line.find('{').unwrap() + 1..line.rfind('}').unwrap()];
    body.split(", ")
        .map(|kv| {
            let (k, v) = kv.split_once(": ").expect("key: value");
            (
                k.trim_matches('"').to_string(),
                v.parse().expect("whole number"),
            )
        })
        .collect()
}

#[test]
fn unknown_flags_and_unwritable_outputs_are_refused_before_any_run() {
    let out = bench(&["--workload", "dp-short-hot", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let out = bench(&["--workload", "no-such-workload"]);
    assert_eq!(out.status.code(), Some(2));
    let started = std::time::Instant::now();
    let out = bench(&[
        "--workload",
        "cp-segr-loaded",
        "--out",
        "/nonexistent-dir/report.json",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        started.elapsed().as_secs_f64() < 1.0,
        "refused before the workload was built"
    );
}

#[test]
fn result_line_carries_exactly_the_catalogued_metrics() {
    for (trace, section, until) in [("0", "end_to_end", "per_layer"), ("1", "per_layer", "")] {
        let out = bench(&[
            "--workload",
            "dp-short-hot",
            "--seed",
            "3",
            "--seconds",
            "0.5",
            "--trace",
            trace,
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = last_line(&out);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
        assert_eq!(
            result_metric_names(&line),
            catalog_names(section, until),
            "--trace {trace}"
        );
        assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
    }
}

#[test]
fn same_seed_same_operation_stream_and_counts() {
    let run = |seed: &str, seconds: &str, file: &str| {
        let path = tmp(file);
        let out = bench(&[
            "--workload",
            "dp-attack-mix",
            "--seed",
            seed,
            "--seconds",
            seconds,
            "--trace",
            "1",
            "--out",
            path.to_str().unwrap(),
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        exact_counts(&std::fs::read_to_string(path).expect("report written"))
    };
    // Counts are taken over a fixed number of operations, so they do not
    // depend on how long the run goes on (or how fast the host is).
    let a = run("11", "0.3", "seed11-a.json");
    let b = run("11", "1.5", "seed11-b.json");
    let c = run("12", "0.3", "seed12.json");
    assert_eq!(a, b, "equal seeds give equal streams and equal counts");
    let hash =
        |counts: &[(String, u64)], key: &str| counts.iter().find(|(k, _)| k == key).expect(key).1;
    for key in ["dp.stream_hash", "cp.stream_hash"] {
        assert_ne!(
            hash(&a, key),
            hash(&c, key),
            "{key}: another seed gives another stream"
        );
    }
    // The generator's taxonomy shows up in the system's own counters.
    for key in [
        "dataplane.gateway.rate_limited",
        "dataplane.router.drops.bad_hvf",
        "dataplane.router.drops.duplicate",
        "dataplane.router.drops.expired",
        "dataplane.router.drops.parse",
    ] {
        assert!(hash(&a, key) > 0, "{key}");
    }
}

#[test]
fn a_wrong_expectation_fails_the_run() {
    for workload in ["dp-short-hot", "cp-flow-churn"] {
        let out = bench(&[
            "--workload",
            workload,
            "--seconds",
            "0.3",
            "--inject-wrong-expectation",
        ]);
        assert_eq!(out.status.code(), Some(1), "{workload}");
        let line = last_line(&out);
        assert!(line.starts_with("{\"correct\": false, "), "{line}");
        assert!(!line.contains("\"failed\": 0,"), "{line}");
    }
}

#[test]
fn trace_out_holds_the_spans_with_their_parents() {
    let path = tmp("spans.csv");
    let out = bench(&[
        "--workload",
        "dp-short-hot",
        "--seconds",
        "0.3",
        "--trace",
        "1",
        "--trace-out",
        path.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read_to_string(path).expect("spans written");
    let mut lines = csv.lines();
    assert_eq!(
        lines.next(),
        Some("name,aux,req,parent,start_ns,end_ns,items")
    );
    let rows: Vec<Vec<&str>> = lines.map(|l| l.split(',').collect()).collect();
    for name in [
        "chain.burst",
        "dataplane.gateway.process_into",
        "dataplane.router.process_batch",
        "ctrl.gc",
    ] {
        assert!(rows.iter().any(|r| r[0] == name), "{name}");
    }
    // Every router-hop span of the chain was caused by a burst span and
    // shares its request identifier.
    for r in rows
        .iter()
        .filter(|r| r[0] == "dataplane.router.process_batch")
        .take(1000)
    {
        let parent: usize = r[3].parse().expect("router hops have a parent");
        assert_eq!(rows[parent][0], "chain.burst");
        assert_eq!(rows[parent][2], r[2]);
    }
}

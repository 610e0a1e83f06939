//! `repro [<experiment>…] [--quick] [--gate] [--out <path>]` regenerates
//! the paper's figures and tables and checks their shapes.
//!
//! With no experiment named, every row of [`EXPERIMENTS`] runs. `--quick`
//! shrinks grids and repetitions (the `scripts/check.sh` configuration);
//! `--gate` exits 1 if any shape check fails. The record goes to `--out`,
//! or, for a full-mode run of every experiment, to `REPRO.json` at the
//! repository root. Arguments are checked and the output file is opened
//! before anything is measured: a bad argument or an unwritable path
//! exits 2 at once.

use colibri_bench::harness::{host_cores, Json, Mode, Outcome};
use colibri_bench::{figs, pipeline, qos, resilience, store, survivability};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// One experiment: its name (the CLI argument and its key in
/// `REPRO.json`), the claim its shape checks hold it to, and the function
/// that measures it and returns its record and checks.
type Experiment = (&'static str, &'static str, fn(Mode) -> Outcome);

#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = &[
    ("fig3",          "Fig. 3: SegR admission flat in existing SegRs",      figs::fig3),
    ("fig4",          "Fig. 4: EER admission flat in existing EERs",        figs::fig4),
    ("fig5",          "Fig. 5: gateway costs one AES block per hop, any r", figs::fig5),
    ("fig6",          "Fig. 6: forwarding vs cores (report-only)",          figs::fig6),
    ("table2",        "Table 2: guarantees hold in every attack phase",     figs::table2),
    ("appe",          "App. E: forwarding independent of payload size",     figs::appe),
    ("doc",           "§5.3: SegR control traffic on time under a flood",   figs::doc),
    ("ofd",           "OFD: no false negatives, fewer false positives",     figs::ofd),
    ("appd",          "App. D: distributed CServ (report-only)",            figs::appd),
    ("pipeline",      "§7.1: batched router ≡ scalar, telemetry ≤ 2%",      pipeline::pipeline),
    ("resilience",    "§12: storms stay linear, renewals beat setups",      resilience::resilience),
    ("survivability", "§14: exact drop, shed and kill ledgers",             survivability::survivability),
    ("store",         "§15: O(log n) admission, GC ∝ what expires",         store::store),
    ("qos",           "§16: reserved traffic isolated from a 4x flood",     qos::qos),
];

struct Cli {
    selected: Vec<&'static Experiment>,
    mode: Mode,
    gate: bool,
    out: Option<PathBuf>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let (mut names, mut quick, mut gate, mut out) = (Vec::new(), false, false, None);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--gate" => gate = true,
            "--out" => out = Some(PathBuf::from(args.next().ok_or("`--out` needs a path")?)),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name if EXPERIMENTS.iter().any(|e| e.0 == name) => names.push(arg),
            name => return Err(format!("unknown experiment `{name}`")),
        }
    }
    let selected: Vec<_> =
        EXPERIMENTS.iter().filter(|e| names.is_empty() || names.iter().any(|n| n == e.0)).collect();
    // Only a full run of every experiment refreshes the committed record.
    if out.is_none() && !quick && selected.len() == EXPERIMENTS.len() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("crates/bench");
        out = Some(root.join("REPRO.json"));
    }
    Ok(Cli { selected, mode: if quick { Mode::Quick } else { Mode::Full }, gate, out })
}

fn usage_error(msg: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    eprintln!("repro: {msg}");
    eprintln!("usage: repro [<experiment>…] [--quick] [--gate] [--out <path>]");
    eprintln!("experiments: {}", names.join(" "));
    std::process::exit(2);
}

fn main() {
    let cli = parse(std::env::args().skip(1)).unwrap_or_else(|e| usage_error(&e));
    // Opened without truncating, so a run that dies midway leaves the
    // previous record in place.
    let out: Option<(PathBuf, File)> = cli.out.map(|path| {
        match OpenOptions::new().write(true).create(true).truncate(false).open(&path) {
            Ok(file) => (path, file),
            Err(e) => usage_error(&format!("cannot write `{}`: {e}", path.display())),
        }
    });

    let mode = cli.mode;
    let mut record =
        vec![("quick", Json::Bool(mode == Mode::Quick)), ("host_cores", host_cores().into())];
    let mut failed = Vec::new();
    for &&(name, claim, measure) in &cli.selected {
        println!("\n# {name} — {claim} ({mode:?} mode)");
        let t0 = std::time::Instant::now();
        let outcome = measure(mode);
        outcome.json.print(0);
        for check in &outcome.checks {
            println!("{check}");
            if !check.pass {
                failed.push(format!("{name}: {}: {}", check.what, check.detail));
            }
        }
        println!("({name} took {:.1} s)", t0.elapsed().as_secs_f64());
        record.push((name, outcome.json));
    }

    match out {
        Some((path, mut file)) => {
            let json = Json::Obj(record).render();
            file.set_len(0)
                .and_then(|()| file.write_all(json.as_bytes()))
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            println!("\nwrote {}", path.display());
        }
        None => println!("\n(no --out: only a full run of every experiment writes REPRO.json)"),
    }
    let tag = if cli.gate { "GATE FAIL" } else { "shape check failed (not gated)" };
    for f in &failed {
        eprintln!("{tag}: {f}");
    }
    if failed.is_empty() {
        println!("all shape checks passed");
    } else if cli.gate {
        std::process::exit(1);
    }
}

//! The repo benchmark: the chained packet path and the host-request path,
//! five named workloads, a per-layer cost ledger. See README.md.

mod cli;
mod cp;
mod dp;
mod ledger;
mod metrics;
mod report;
mod rng;
mod run;
mod scenario;
mod stats;
mod sut;
mod trace;

use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

/// Exit status: 0 correct, 1 the oracle found failures, 2 bad usage or an
/// unwritable output file, 3 the benchmark itself broke.
fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    if args.emit_benchmark_json {
        print!("{}", report::benchmark_json());
        return ExitCode::SUCCESS;
    }
    // Output files are opened before any run starts: an unwritable path
    // costs no measurement.
    let open = |path: &Option<String>| -> Result<Option<BufWriter<File>>, String> {
        path.as_ref()
            .map(|p| {
                File::create(p)
                    .map(BufWriter::new)
                    .map_err(|e| format!("cannot write {p}: {e}"))
            })
            .transpose()
    };
    let (out_file, trace_file) = match (open(&args.out), open(&args.trace_out)) {
        (Ok(o), Ok(t)) => (o, t),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    };
    let host = report::Fingerprint::read();
    let written = (|| -> std::io::Result<()> {
        if let Some(mut f) = out_file {
            f.write_all(report::full_report(&args, &outcome, &host).as_bytes())?;
            f.flush()?;
        }
        if let Some(mut f) = trace_file {
            outcome.tracer.write_csv(&mut f)?;
            f.flush()?;
        }
        Ok(())
    })();
    if let Err(e) = written {
        eprintln!("error: writing output files: {e}");
        return ExitCode::from(2);
    }
    print!("{}", report::table(&args, &outcome, &host));
    println!("{}", report::result_line(&args, &outcome));
    if report::is_correct(&outcome) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    /// `sut.rs` is the only file that names system types: a change that
    /// renames or deletes one touches the adapter and nothing else.
    #[test]
    fn only_the_adapter_names_the_system() {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        for entry in std::fs::read_dir(src).expect("src/ is readable") {
            let path = entry.expect("directory entry").path();
            if path.file_name().is_some_and(|n| n == "sut.rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("source file is readable");
            // Spelled in two halves so that this file does not match itself.
            for needle in [concat!("colibri", "::"), concat!("colibri", "_ring")] {
                let uses = text
                    .lines()
                    .filter(|l| !l.trim_start().starts_with("//"))
                    .any(|l| l.contains(needle));
                assert!(!uses, "{} names {needle}", path.display());
            }
        }
    }
}

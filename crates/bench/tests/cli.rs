//! The `repro` CLI is strict: a mistyped flag, an unknown experiment or an
//! unwritable `--out` path exits non-zero before anything is measured.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro")
}

/// Exit status 2, nothing measured (no experiment heading printed), and
/// `needle` in the error message.
fn assert_refused(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "measured before refusing: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(stderr.contains(needle), "stderr lacks {needle:?}: {stderr}");
}

#[test]
fn unknown_flag_is_refused() {
    assert_refused(&repro(&["--quick", "--gat"]), "unknown flag `--gat`");
}

#[test]
fn unknown_experiment_is_refused() {
    assert_refused(&repro(&["--quick", "fig9"]), "unknown experiment `fig9`");
}

#[test]
fn unwritable_out_is_refused() {
    assert_refused(&repro(&["--quick", "doc", "--out", "/nonexistent/dir/x.json"]), "cannot write");
}

//! Times the ledger rows: layers that are only reached from inside
//! `dataplane`/`ctrl`, replayed through their public functions on inputs
//! captured from the workload.
//!
//! A row is the median over batches of a fixed number of operations, so
//! one descheduled batch does not move it.

use crate::stats;
use crate::sut::LedgerOp;
use std::collections::BTreeMap;
use std::time::Instant;

const BATCHES: usize = 15;
const BATCH_TARGET_NS: f64 = 1_500_000.0;

/// Median nanoseconds per operation of each row.
pub fn measure(ops: Vec<LedgerOp>) -> BTreeMap<&'static str, f64> {
    ops.into_iter()
        .map(|mut op| {
            let mut nothing = |_: u32| {};
            let prepare: &mut dyn FnMut(u32) = match op.prepare.as_mut() {
                Some(p) => p.as_mut(),
                None => &mut nothing,
            };
            (op.name, time_row(prepare, &mut op.run))
        })
        .collect()
}

fn time_row(prepare: &mut dyn FnMut(u32), run: &mut dyn FnMut(u32)) -> f64 {
    // Size the batch from a trial (which also warms caches and tables).
    let trial = 256;
    prepare(trial);
    let t0 = Instant::now();
    run(trial);
    let per_op = (t0.elapsed().as_nanos() as f64 / f64::from(trial)).max(0.5);
    let n = ((BATCH_TARGET_NS / per_op) as u32).clamp(64, 1 << 20);
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            prepare(n);
            let t0 = Instant::now();
            run(n);
            t0.elapsed().as_nanos() as f64 / f64::from(n)
        })
        .collect();
    stats::median(&samples).expect("BATCHES > 0")
}

/// The part of a stage no ledger row explains: the stage's measured cost
/// per unit minus each row times how often the stage ran it per unit.
/// Negative when the stage overlaps work the rows time one at a time
/// (the routers verify eight packets per AES pass).
pub fn unexplained(stage_ns: f64, rows: &[(f64, f64)]) -> f64 {
    stage_ns - rows.iter().map(|(ns, per_unit)| ns * per_unit).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_plus_unexplained_sum_to_the_stage() {
        let rows = [(20.0, 1.0), (50.0, 4.0), (30.0, 0.25)];
        let stage = 300.0;
        let rest = unexplained(stage, &rows);
        assert_eq!(rest, 300.0 - 20.0 - 200.0 - 7.5);
        let explained: f64 = rows.iter().map(|(ns, k)| ns * k).sum();
        assert_eq!(explained + rest, stage);
        assert!(unexplained(100.0, &rows) < 0.0);
    }

    #[test]
    fn a_row_is_timed_per_operation() {
        let mut calls = 0u64;
        let mut prepared = 0u32;
        let ns = time_row(&mut |_| prepared += 1, &mut |n| {
            calls += u64::from(n);
            std::hint::black_box((0..n).fold(0u32, |a, b| a ^ b));
        });
        assert!(ns > 0.0 && ns < 1_000.0);
        assert!(calls > 256);
        assert_eq!(prepared as usize, BATCHES + 1);
    }
}

//! Cross-point memoization on the builtin `grid` sweep: the 24-point
//! multi-technology grid evaluated with one shared `EvalCtx` (the
//! production path) vs a fresh context per point (the pre-memoization
//! cost).
//!
//! Besides the criterion timings, this bench executes the grid once on
//! one thread and, when `CQLA_BENCH_JSON` names a path, writes its
//! timing document there. The committed snapshot
//! `crates/bench/BENCH_packed.json` — the baseline CI's `bench-diff`
//! gates against — was written this way, and records the speedup over
//! the pre-memoization `BENCH_seed.json` on the same single-thread
//! terms. Without the variable nothing is written, so a local run
//! cannot overwrite it.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cqla_core::EvalCtx;
use cqla_sweep::{PointOutcome, Sweep, SweepRun};

fn bench(c: &mut Criterion) {
    let grid = Sweep::builtin("grid").expect("grid spec exists");

    // Baseline artifact: one serial grid run (the sweep engine shares
    // one context across points), timing stats to JSON on the same
    // threads=1 terms as the committed BENCH_seed.json.
    let baseline = SweepRun::execute(&grid, 1);
    cqla_bench::print_artifact(
        &format!("Memoized grid: {} points on 1 thread", grid.len()),
        &baseline.render_text(),
    );
    if let Ok(path) = std::env::var("CQLA_BENCH_JSON") {
        match std::fs::write(&path, baseline.timing_json().to_pretty() + "\n") {
            Ok(()) => println!("wrote memoized timing document to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }

    c.bench_function("memo_grid/shared_ctx_serial", |b| {
        b.iter(|| black_box(SweepRun::execute(&grid, 1)))
    });
    c.bench_function("memo_grid/fresh_ctx_per_point", |b| {
        b.iter(|| {
            for point in grid.points() {
                black_box(PointOutcome::evaluate_ctx(point, &EvalCtx::new()));
            }
        })
    });
    // A warm context answers every sub-computation from the tables:
    // the floor the memoized path converges to within one run.
    let warm = EvalCtx::new();
    for point in grid.points() {
        let _ = PointOutcome::evaluate_ctx(point, &warm);
    }
    c.bench_function("memo_grid/warm_ctx", |b| {
        b.iter(|| {
            for point in grid.points() {
                black_box(PointOutcome::evaluate_ctx(point, &warm));
            }
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);

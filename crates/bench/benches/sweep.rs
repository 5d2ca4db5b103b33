//! Sweep engine: the multi-technology `grid` spec through the
//! shared job pool, serial vs parallel, plus JSON serialization.
//!
//! Besides the criterion timings, this bench seeds the performance
//! trajectory: it executes the grid once and, when `CQLA_BENCH_JSON`
//! names a path, writes its timing document there — the artifact CI
//! uploads and gates against the committed baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cqla_sweep::{pool, Sweep, SweepRun};

fn bench(c: &mut Criterion) {
    let grid = Sweep::builtin("grid").expect("grid spec exists");
    let quick = Sweep::builtin("quick").expect("quick spec exists");
    let threads = pool::default_threads();

    // Baseline artifact: one full grid run, timing stats to JSON.
    let baseline = SweepRun::execute(&grid, threads);
    cqla_bench::print_artifact(
        &format!("Sweep: {} points on {} thread(s)", grid.len(), threads),
        &baseline.render_text(),
    );
    if let Ok(path) = std::env::var("CQLA_BENCH_JSON") {
        match std::fs::write(&path, baseline.timing_json().to_pretty() + "\n") {
            Ok(()) => println!("wrote baseline timing document to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }

    c.bench_function("sweep/quick_serial", |b| {
        b.iter(|| black_box(SweepRun::execute(&quick, 1)))
    });
    c.bench_function("sweep/quick_parallel", |b| {
        b.iter(|| black_box(SweepRun::execute(&quick, threads)))
    });
    c.bench_function("sweep/grid_parallel", |b| {
        b.iter(|| black_box(SweepRun::execute(&grid, threads)))
    });
    c.bench_function("sweep/grid_to_json", |b| {
        b.iter(|| black_box(baseline.to_json().to_pretty()))
    });
    // The spec expression language sits on the CLI hot path; keep its
    // cost visible (it should stay microseconds).
    c.bench_function("sweep/parse_spec_expression", |b| {
        b.iter(|| {
            black_box(Sweep::parse(
                "tech=current,projected code=steane,bacon-shor width=32..=1024:*2 xfer=10",
            ))
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);

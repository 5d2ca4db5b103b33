//! The registry grid layer: parse a `key=value-set` expression against
//! fig2's declared parameters and execute the width grid on the
//! shared job pool — the machinery behind `cqla run fig2
//! bits=32..=128:*2` (and its HTTP twins).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cqla_core::experiments::Grid;
use cqla_sweep::{pool, GridRun};

const EXPR: &str = "bits=16..=64:*2";

fn bench(c: &mut Criterion) {
    let exp = cqla_bench::registry_artifact("fig2");
    let grid = Grid::parse("fig2", &exp.specs(), EXPR).expect("bench grid parses");
    c.bench_function("grid/parse_fig2_expression", |b| {
        b.iter(|| black_box(Grid::parse("fig2", &exp.specs(), EXPR).unwrap()))
    });
    c.bench_function("grid/execute_fig2_serial", |b| {
        b.iter(|| black_box(GridRun::execute(&grid, 1)))
    });
    c.bench_function("grid/execute_fig2_all_cores", |b| {
        b.iter(|| black_box(GridRun::execute(&grid, pool::default_threads())))
    });
    // The merged document is what every front end serializes.
    let run = GridRun::execute(&grid, pool::default_threads());
    c.bench_function("grid/serialize_merged_document", |b| {
        b.iter(|| black_box(run.to_json().to_pretty()))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);

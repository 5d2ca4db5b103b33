//! Figure 8b: QFT communication vs computation time (Bacon-Shor code).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cqla_core::experiments::Fig8b;
use cqla_workloads::ShorInstance;

fn bench(c: &mut Criterion) {
    cqla_bench::registry_artifact("fig8b");
    let fig = Fig8b::default();
    c.bench_function("fig8b/sweep", |b| {
        b.iter(|| {
            let rows = fig.rows();
            black_box(Fig8b::render(&rows))
        })
    });
    // Eq. 1 sizing of a 1024-bit Shor run on the reference path: the
    // closed-form QFT count plus a fresh 1024-bit adder DAG.
    c.bench_function("fig8b/shor_app_size_1024", |b| {
        b.iter(|| black_box(ShorInstance::new(black_box(1024)).app_size()))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);

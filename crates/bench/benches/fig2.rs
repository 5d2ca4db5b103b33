//! Figure 2: available parallelism of the 64-qubit Draper adder, unlimited
//! resources vs 15 compute blocks.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cqla_core::experiments::Fig2;

fn bench(c: &mut Criterion) {
    cqla_bench::registry_artifact("fig2");
    let fig = Fig2::default();
    c.bench_function("fig2/schedule_both_profiles", |b| {
        b.iter(|| black_box(fig.data_ctx(&cqla_core::EvalCtx::new())))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! Figure 6a: compute-block utilization vs block count for 32…1024-bit
//! adders.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cqla_core::experiments::Fig6a;
use cqla_core::EvalCtx;

fn bench(c: &mut Criterion) {
    cqla_bench::registry_artifact("fig6a");
    let fig = Fig6a::default();
    c.bench_function("fig6a/sweep", |b| {
        b.iter(|| {
            let rows = fig.rows_ctx(&EvalCtx::new());
            black_box(Fig6a::render(&rows))
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);

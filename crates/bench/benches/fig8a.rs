//! Figure 8a: modular exponentiation communication vs computation time
//! (Bacon-Shor code).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cqla_core::experiments::Fig8a;

fn bench(c: &mut Criterion) {
    cqla_bench::registry_artifact("fig8a");
    let fig = Fig8a::default();
    c.bench_function("fig8a/sweep", |b| {
        b.iter(|| {
            let rows = fig.rows_ctx(&cqla_core::EvalCtx::new());
            black_box(Fig8a::render(&rows))
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! Figure 7: cache hit rates — adder sizes 64…1024, cache sizes
//! {1, 1.5, 2}×PE, in-order vs optimized instruction fetch.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cqla_core::experiments::primary_blocks;
use cqla_core::{CacheSim, EvalCtx, FetchPolicy};
use cqla_workloads::DraperAdder;

fn bench(c: &mut Criterion) {
    cqla_bench::registry_artifact("fig7");

    let adder = DraperAdder::new(256);
    let circuit = adder.circuit();
    let sim = CacheSim::new(324);
    c.bench_function("fig7/cache_sim_256_optimized", |b| {
        b.iter(|| black_box(sim.run(&circuit, FetchPolicy::OptimizedLookahead, &[], 1)))
    });
    c.bench_function("fig7/cache_sim_256_inorder", |b| {
        b.iter(|| black_box(sim.run(&circuit, FetchPolicy::InOrder, &[], 1)))
    });
    // The slowest Fig 7 cell: the warm steady state of the 1024-bit adder
    // at 2×PE, on a fresh context so every iteration simulates.
    let capacity = 2 * 9 * primary_blocks(1024) as usize;
    c.bench_function("fig7/cache_behavior_1024", |b| {
        b.iter(|| black_box(EvalCtx::new().cache_behavior(1024, capacity)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);

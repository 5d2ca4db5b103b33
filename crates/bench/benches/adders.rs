//! Microbenchmarks for the workload generators themselves: adder circuit
//! construction, dependency-DAG building, and list scheduling. These are
//! the inner loops every table/figure generator runs many times.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cqla_circuit::{DependencyDag, Gate, ListScheduler, Width};
use cqla_workloads::{DraperAdder, RippleCarryAdder};

fn bench(c: &mut Criterion) {
    c.bench_function("adders/draper_128_generate", |b| {
        b.iter(|| black_box(DraperAdder::new(128).circuit()))
    });
    c.bench_function("adders/ripple_128_generate", |b| {
        b.iter(|| black_box(RippleCarryAdder::new(128).circuit()))
    });

    let circuit = DraperAdder::new(128).circuit();
    c.bench_function("adders/draper_128_dag", |b| {
        b.iter(|| black_box(DependencyDag::new(&circuit)))
    });

    let dag = DependencyDag::new(&circuit);
    c.bench_function("adders/draper_128_schedule_16", |b| {
        b.iter(|| {
            black_box(
                ListScheduler::new(&dag)
                    .schedule(Width::Blocks(16), Gate::two_qubit_gate_equivalents),
            )
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);

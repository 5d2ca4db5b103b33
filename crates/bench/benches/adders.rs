//! Microbenchmarks for the workload generators themselves: adder circuit
//! construction, dependency-DAG building, and list scheduling. These are
//! the inner loops every table/figure generator runs many times.
//!
//! `draper_128_schedule_16` is a one-shot schedule: 16 blocks bind the
//! 128-bit adder, so it times the ASAP pass, the rank sort and the run
//! over the rank-ordered ready set. `draper_1024_fig6a_widths` is what
//! Fig 6a does per adder width: one plan, then the seven `FIG6A_BLOCKS`
//! counts from it. The 1024-bit adder's ASAP peak lies above all seven,
//! so the first count builds the rank order and every count runs the
//! ready set. `compile/schedule_65536` and
//! `compile/schedule_unbound_65536` time the one-shot path on a random
//! program, on both sides of its ASAP peak.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cqla_circuit::{DependencyDag, Gate, ListScheduler, Width};
use cqla_compile::{schedule_costs_with, schedule_plan};
use cqla_core::experiments::FIG6A_BLOCKS;
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

    let wide = DependencyDag::new(DraperAdder::new(1024).circuit_ref());
    c.bench_function("adders/draper_1024_fig6a_widths", |b| {
        b.iter(|| {
            let plan = schedule_plan(&wide);
            for blocks in FIG6A_BLOCKS {
                black_box(schedule_costs_with(&wide, &plan, blocks));
            }
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);

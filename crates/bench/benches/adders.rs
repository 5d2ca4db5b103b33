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
//!
//! When `CQLA_BENCH_JSON` names a path, this bench also times
//! `adders/draper_1024_fig6a_widths` on its own and writes a timing
//! document there in the shape `cqla bench-diff` reads: `sweep` is the
//! bench id, `points` the seven widths and `mean_job_seconds` the mean
//! seconds per width. The committed baseline CI gates against is
//! `crates/bench/BENCH_schedule.json`, refreshed with
//! `CQLA_BENCH_JSON=BENCH_schedule.json cargo bench --bench adders --
//! fig6a`. Without the variable nothing is written.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

use cqla_circuit::{DependencyDag, Gate, ListScheduler, Width};
use cqla_compile::{schedule_costs_with, schedule_plan};
use cqla_core::experiments::FIG6A_BLOCKS;
use cqla_core::Json;
use cqla_workloads::{DraperAdder, RippleCarryAdder};

/// The id of the Fig 6a rung, in criterion's report and the timing
/// document.
const FIG6A_WIDTHS: &str = "adders/draper_1024_fig6a_widths";

/// Timed passes over the seven widths behind the timing document, after
/// as many untimed ones.
const DOC_RUNS: u32 = 200;

/// What Fig 6a does per adder width: one plan, then every block count
/// from it.
fn fig6a_widths(dag: &DependencyDag) {
    let plan = schedule_plan(dag);
    for blocks in FIG6A_BLOCKS {
        black_box(schedule_costs_with(dag, &plan, blocks));
    }
}

/// The Fig 6a rung's timing document: the mean of [`DOC_RUNS`] timed
/// passes, per pass and per width.
fn fig6a_doc(dag: &DependencyDag) -> Json {
    for _ in 0..DOC_RUNS {
        fig6a_widths(dag);
    }
    let started = Instant::now();
    for _ in 0..DOC_RUNS {
        fig6a_widths(dag);
    }
    let pass = started.elapsed().as_secs_f64() / f64::from(DOC_RUNS);
    let widths = FIG6A_BLOCKS.len() as f64;
    Json::obj([
        ("sweep", Json::from(FIG6A_WIDTHS)),
        ("threads", Json::Num(1.0)),
        ("points", Json::Num(widths)),
        ("cpu_seconds_total", Json::Num(pass)),
        ("mean_job_seconds", Json::Num(pass / widths)),
    ])
}

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
    if let Ok(path) = std::env::var("CQLA_BENCH_JSON") {
        match std::fs::write(&path, fig6a_doc(&wide).to_pretty() + "\n") {
            Ok(()) => println!("wrote {FIG6A_WIDTHS} timing document to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    c.bench_function(FIG6A_WIDTHS, |b| b.iter(|| fig6a_widths(&wide)));
}

criterion_group!(benches, bench);
criterion_main!(benches);

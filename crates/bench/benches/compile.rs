//! The compile pipeline: seeded workload generation, asm parsing,
//! Toffoli lowering plus list scheduling, and the full registry
//! `compile` experiment (schedule, hierarchy placement, cache
//! simulation) — the path `cqla compile` and `POST /v1/compile` walk
//! per request. The `_65536` rungs time the asm emit and parse, the
//! Toffoli lowering, the DAG build, the list schedule and the optimized
//! cache run one by one on a 2^16-gate program, large enough to show
//! their per-gate cost, and then the whole artifact on that program. The
//! program's ASAP schedule peaks above 9 gates and below 36, so
//! `schedule_65536` (9 blocks) times the priority pass, the radix passes
//! that rank the gates and the run over the rank-ordered ready set, and
//! `schedule_unbound_65536` (36 blocks) times the ASAP pass and
//! occupancy sweep that return when the width never binds. Both are
//! one-shot plans; `adders/draper_1024_fig6a_widths` times a shared
//! one. Its 64 qubits fit the 162-qubit cache, so
//! `cache_optimized_65536` times the one-pass count of a run that cannot
//! evict; `cache_evicting_65536` runs the same gate count on 512 qubits,
//! where the optimized fetch selector does the work.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cqla_circuit::{asm, decompose_toffolis, DependencyDag, QubitId};
use cqla_compile::{random::random_circuit, schedule_costs};
use cqla_core::experiments::find;
use cqla_core::{CacheSim, EvalCtx, BLOCK_DATA_QUBITS};

fn bench(c: &mut Criterion) {
    let circuit = random_circuit(16, 256, 1);
    let program = asm::emit(&circuit);
    let dag = DependencyDag::new(&decompose_toffolis(&circuit));
    cqla_bench::print_artifact(
        "Compile: 256-gate seeded workload (seed 1)",
        &find("compile").expect("registry has `compile`").run().text,
    );

    c.bench_function("compile/generate_random_256", |b| {
        b.iter(|| black_box(random_circuit(16, 256, 1)))
    });
    // The asm front door sits on every CLI and HTTP compile; parsing
    // must stay linear in the program.
    c.bench_function("compile/parse_asm_256", |b| {
        b.iter(|| black_box(asm::parse(&program)))
    });
    c.bench_function("compile/schedule_256", |b| {
        b.iter(|| black_box(schedule_costs(&dag, 9)))
    });

    // A 64-qubit, 2^16-gate program as asm text and lowered as `compile`
    // lowers it, and the artifact's cache at its defaults: 2 × 9 blocks
    // × 9 data qubits.
    let big_program = random_circuit(64, 1 << 16, 1);
    let big_text = asm::emit(&big_program);
    let big = decompose_toffolis(&big_program);
    let big_dag = DependencyDag::new(&big);
    let capacity = (2 * 9 * BLOCK_DATA_QUBITS) as usize;
    let inputs: Vec<QubitId> = (0..big.num_qubits()).map(QubitId::new).collect();
    c.bench_function("compile/emit_65536", |b| {
        b.iter(|| black_box(asm::emit(&big_program)))
    });
    c.bench_function("compile/parse_65536", |b| {
        b.iter(|| black_box(asm::parse(&big_text)))
    });
    c.bench_function("compile/lower_65536", |b| {
        b.iter(|| black_box(decompose_toffolis(&big_program)))
    });
    c.bench_function("compile/dag_65536", |b| {
        b.iter(|| black_box(DependencyDag::new(&big)))
    });
    c.bench_function("compile/schedule_65536", |b| {
        b.iter(|| black_box(schedule_costs(&big_dag, 9)))
    });
    c.bench_function("compile/schedule_unbound_65536", |b| {
        b.iter(|| black_box(schedule_costs(&big_dag, 36)))
    });
    c.bench_function("compile/cache_optimized_65536", |b| {
        b.iter(|| black_box(CacheSim::new(capacity).run_optimized(&big_dag, &inputs, 2)))
    });
    let wide = decompose_toffolis(&random_circuit(512, 1 << 16, 1));
    let wide_dag = DependencyDag::new(&wide);
    let wide_inputs: Vec<QubitId> = (0..wide.num_qubits()).map(QubitId::new).collect();
    c.bench_function("compile/cache_evicting_65536", |b| {
        b.iter(|| black_box(CacheSim::new(capacity).run_optimized(&wide_dag, &wide_inputs, 2)))
    });
    // The whole artifact on the big program, as `cqla compile FILE`
    // runs it: set the program (one parse), then run on a fresh context.
    c.bench_function("compile/experiment_65536", |b| {
        b.iter(|| {
            let mut exp = find("compile").expect("registry has `compile`");
            exp.set("source", "inline-asm").expect("a valid source");
            exp.set("program", &big_text).expect("the program parses");
            black_box(exp.run_ctx(&EvalCtx::new()))
        })
    });
    // The whole artifact, defaults — what one cold `/v1/compile` costs.
    c.bench_function("compile/experiment_default", |b| {
        b.iter(|| black_box(find("compile").expect("registry has `compile`").run()))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);

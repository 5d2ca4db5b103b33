//! `compile-programs`: `cqla compile FILE` on seeded programs.
//!
//! The op cycle is 18 programs — qubits {16, 64, 512} × gates {2^12,
//! 2^14, 2^16} × width {9, 36} — drawn from the seeded Clifford+T
//! generator and emitted to asm during set-up, in a seeded order. Each op
//! pre-validates the text with `asm::parse` and compiles it through the
//! registry's `compile` artifact on a fresh context. Working sets range
//! from below the modeled cache (162 qubits at width 9) to far above it.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use cqla_circuit::{asm, decompose_toffolis, Circuit, Gate, QubitId, Width};
use cqla_compile::random::random_circuit;
use cqla_core::experiments::{find, Experiment};
use cqla_core::{EvalCtx, FetchPolicy, Json, BLOCK_DATA_QUBITS};
use cqla_ecc::Code;
use cqla_iontrap::TechPoint;

use crate::plan::{traced_run, Replay, TracedRun};
use crate::trace::Tracer;
use crate::{closed_loop, repeated_setup, Report, Rng};

const QUBITS: [u32; 3] = [16, 64, 512];
const GATES: [u32; 3] = [1 << 12, 1 << 14, 1 << 16];
const WIDTHS: [u32; 2] = [9, 36];

/// `op_tail_ms` is p90: with 18 ops per cycle and at least six cycles in
/// a 30 s run, at least ten samples lie beyond it.
const TAIL: f64 = 0.90;

/// One program of the cycle: asm text and the machine width.
pub struct Program {
    pub text: String,
    pub width: u32,
    qubits: u32,
    gates: u32,
}

impl Program {
    fn label(&self) -> String {
        format!("q{}-g{}-w{}", self.qubits, self.gates, self.width)
    }
}

fn setup(seed: u64) -> Vec<Program> {
    let mut rng = Rng::new(seed, 2);
    let mut programs = Vec::new();
    for qubits in QUBITS {
        for gates in GATES {
            for width in WIDTHS {
                let circuit = random_circuit(qubits, gates, rng.next_u64());
                programs.push(Program {
                    text: asm::emit(&circuit),
                    width,
                    qubits,
                    gates,
                });
            }
        }
    }
    rng.shuffle(&mut programs);
    programs
}

/// The `compile` artifact configured as `cqla compile FILE width=W` sets
/// it up.
pub fn compile_experiment(text: &str, width: u32) -> Box<dyn Experiment> {
    let mut exp = find("compile").expect("compile is registered");
    exp.set("source", "inline-asm")
        .expect("inline-asm is valid");
    exp.set("program", text).expect("program accepts any text");
    exp.set("width", &width.to_string())
        .expect("width is positive");
    exp
}

/// One op: pre-validate, compile on a fresh context, pretty-print.
/// Returns the document and the run's verdict.
fn compile_op(p: &Program) -> Option<(String, Json, bool)> {
    asm::parse(&p.text).ok()?;
    let out = compile_experiment(&p.text, p.width).run_ctx(&EvalCtx::new());
    Some((out.document("compile").to_pretty(), out.data, out.passed))
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Report {
    let (programs, setup_s) = repeated_setup(|| setup(seed));
    // The first document of each program is checked against the
    // front-end pipeline after the timed phase; every later document of
    // that program must equal it byte for byte.
    let mut reference: HashMap<usize, (String, Json)> = HashMap::new();
    let timed = closed_loop(budget, programs.len(), |i| {
        let start = Instant::now();
        let out = compile_op(&programs[i]);
        let latency = start.elapsed();
        let ok = match out {
            Some((doc, data, passed)) => {
                let (reference_doc, _) = reference.entry(i).or_insert((doc.clone(), data));
                passed && *reference_doc == doc
            }
            None => false,
        };
        (latency, ok)
    });
    let mut extra_failed = 0;
    for (&i, (_, data)) in &reference {
        if !schedule_matches(&programs[i], data) {
            extra_failed += timed.ops.iter().filter(|&&(j, _)| j == i).count() as u64;
        }
    }
    let mut report = Report::end_to_end(setup_s, &timed, TAIL, extra_failed);
    if trace {
        let mut tracer = Tracer::new();
        let (mut untraced, mut traced, mut failed) = (Duration::ZERO, Duration::ZERO, 0);
        for (i, p) in programs.iter().enumerate() {
            let start = Instant::now();
            std::hint::black_box(compile_op(p));
            let baseline = start.elapsed();
            untraced += baseline;
            let start = Instant::now();
            let doc = traced_program(&mut tracer, p, baseline);
            traced += start.elapsed();
            let ok = doc.is_some_and(|doc| reference.get(&i).is_some_and(|(r, _)| *r == doc));
            failed += u64::from(!ok);
        }
        report.add_layers(tracer, programs.len(), untraced, traced);
        report.attempted += programs.len() as u64;
        report.failed += failed;
    }
    report
}

/// Whether a document's schedule fields equal the front-end pipeline's
/// `compile_source(text, width).costs`.
fn schedule_matches(p: &Program, data: &Json) -> bool {
    let Ok(compiled) = cqla_compile::compile_source(&p.text, p.width) else {
        return false;
    };
    let c = compiled.costs;
    let Some(schedule) = data.get("schedule") else {
        return false;
    };
    let int = |key: &str| match schedule.get(key) {
        Some(Json::Int(v)) => Some(*v),
        _ => None,
    };
    let utilization = match schedule.get("utilization") {
        Some(Json::Num(v)) => Some(*v),
        Some(Json::Int(v)) => Some(*v as f64),
        _ => None,
    };
    int("width") == Some(i64::from(p.width))
        && int("lowered_gates") == Some(compiled.lowered.len() as i64)
        && int("makespan") == Some(c.makespan as i64)
        && int("critical_path") == Some(c.critical_path as i64)
        && int("total_work") == Some(c.total_work as i64)
        && int("depth") == Some(c.depth as i64)
        && int("peak_parallelism") == Some(c.peak_parallelism as i64)
        && utilization == Some(c.utilization)
}

/// One program, traced: the pre-validating parse, then the `compile`
/// run (see [`traced_run`]). Returns the document of a passing run.
fn traced_program(t: &mut Tracer, p: &Program, untraced: Duration) -> Option<String> {
    t.begin_op(p.label());
    let run = traced_compile(t, &p.text, p.width);
    t.end_op(untraced);
    run.filter(|r| r.passed).map(|r| r.pretty)
}

/// `cqla compile` (or `POST /v1/compile`) on `text`, traced inside the
/// current op: the pre-validating parse, then the artifact run with the
/// pipeline's layer calls replayed.
pub fn traced_compile(t: &mut Tracer, text: &str, width: u32) -> Option<TracedRun> {
    let program = t.time("circuit.parse", || asm::parse(text)).ok()?;
    let exp = t.time("experiments", || compile_experiment(text, width));
    Some(traced_run(t, exp.as_ref(), &[], |replay, e| {
        let _ = replay
            .tracer
            .time_under("circuit.parse", Some(e), || asm::parse(text));
        replay_program(replay, &program, width, e);
    }))
}

/// The layer calls of `Compile::run_ctx` after the program is resolved
/// (projected technology, Steane code, 2× cache — the artifact's
/// defaults). Unmemoized calls are attributed to `e`, which repeats them.
pub fn replay_program(replay: &mut Replay, program: &Circuit, width: u32, e: usize) {
    let (tech, code) = (TechPoint::Projected, Code::Steane713);
    let lowered = replay
        .tracer
        .time_under("circuit.decompose", Some(e), || decompose_toffolis(program));
    replay
        .tracer
        .time_under("circuit.emit", Some(e), || asm::emit(&lowered));
    let dag = replay.dag(&lowered, None);
    replay.schedule(&dag, Width::Blocks(width as usize), None);
    let weight = Gate::two_qubit_gate_equivalents;
    replay.tracer.time("circuit.dag", || {
        (
            dag.critical_path(weight),
            dag.total_work(weight),
            dag.depth(),
        )
    });
    replay.ecc(tech, code, 1);
    replay.ecc(tech, code, 2);
    replay.level1(tech, code, program.num_qubits());
    if !lowered.is_empty() {
        let capacity = (2.0 * (BLOCK_DATA_QUBITS * u64::from(width)) as f64)
            .round()
            .max(1.0) as usize;
        let inputs: Vec<QubitId> = (0..program.num_qubits()).map(QubitId::new).collect();
        for repetitions in [1, 2] {
            replay.cache_sim(
                &lowered,
                capacity,
                FetchPolicy::OptimizedLookahead,
                &inputs,
                repetitions,
                Some(e),
            );
        }
    }
    replay.area(tech, code, u64::from(program.num_qubits()), width);
}

/// The registry's `compile` artifact at its defaults: the seeded
/// 16-qubit, 256-gate program on 9 blocks. Generating the program is
/// left inside the warm run (it is not a layer call).
pub fn replay_default(replay: &mut Replay, e: usize) {
    let program = random_circuit(16, 256, 1);
    replay_program(replay, &program, 9, e);
}

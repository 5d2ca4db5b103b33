//! `paper-runs`: reproducing the paper, one CLI-equivalent document per op.
//!
//! The op cycle is the 14 registry artifacts at their paper defaults plus
//! the builtin `grid` sweep, in an order shuffled by the seed. Each op
//! uses a fresh evaluation context, as `cqla run <id> --format json` and
//! `cqla sweep --format json --threads 1` do, and its document must be
//! byte-equal to the committed golden file.

use std::time::{Duration, Instant};

use cqla_core::experiments::{find, ids};
use cqla_core::{CqlaConfig, EvalCtx, HierarchyConfig, Json};
use cqla_sweep::{DesignPoint, PointOutcome, Sweep, SweepRun};

use crate::plan::{artifact_plan, traced_run, Replay, Study};
use crate::trace::Tracer;
use crate::{closed_loop, repeated_setup, Report, Rng};

/// The id of the builtin sweep op.
const GRID: &str = "grid";

/// `op_tail_ms` is p95: with 15 ops per cycle and at least 14 cycles in a
/// 30 s run, at least ten samples lie beyond it.
const TAIL: f64 = 0.95;

struct Op {
    id: &'static str,
    /// The golden document without its trailing newline.
    golden: String,
}

fn golden_path(id: &str) -> String {
    if id == GRID {
        "tests/golden/grid_sweep.json".to_owned()
    } else {
        format!("tests/golden/registry/{id}.json")
    }
}

/// Loads and parses every golden document and shuffles the op cycle by
/// the seed.
fn setup(seed: u64) -> Result<Vec<Op>, String> {
    let mut ops = Vec::new();
    for id in ids().into_iter().chain([GRID]) {
        let path = golden_path(id);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        cqla_core::json::parse(&text).map_err(|e| format!("{path} is not JSON: {e}"))?;
        let golden = text.strip_suffix('\n').unwrap_or(&text).to_owned();
        ops.push(Op { id, golden });
    }
    Rng::new(seed, 1).shuffle(&mut ops);
    Ok(ops)
}

/// One op exactly as the CLI performs it.
fn document(id: &str) -> String {
    if id == GRID {
        let sweep = Sweep::parse(GRID).expect("grid is a builtin sweep");
        SweepRun::execute(&sweep, 1).to_json().to_pretty()
    } else {
        let exp = find(id).expect("registry id");
        exp.run().document(id).to_pretty()
    }
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Report {
    let (ops, setup_s) = repeated_setup(|| setup(seed));
    let ops = ops.unwrap_or_else(|e| {
        eprintln!("cqla-perfbench: {e}");
        std::process::exit(1);
    });
    let timed = closed_loop(budget, ops.len(), |i| {
        let start = Instant::now();
        let doc = document(ops[i].id);
        let latency = start.elapsed();
        (latency, doc == ops[i].golden)
    });
    let mut report = Report::end_to_end(setup_s, &timed, TAIL, 0);
    if trace {
        let mut tracer = Tracer::new();
        let (mut untraced, mut traced, mut failed) = (Duration::ZERO, Duration::ZERO, 0);
        for op in &ops {
            let start = Instant::now();
            std::hint::black_box(document(op.id));
            let baseline = start.elapsed();
            untraced += baseline;
            let start = Instant::now();
            let ok = if op.id == GRID {
                traced_grid(&mut tracer, &op.golden, baseline)
            } else {
                traced_artifact(&mut tracer, op.id, &op.golden, baseline)
            };
            traced += start.elapsed();
            failed += u64::from(!ok);
        }
        report.add_layers(tracer, ops.len(), untraced, traced);
        report.attempted += ops.len() as u64;
        report.failed += failed;
    }
    report
}

/// One registry artifact, traced (see [`traced_run`]).
fn traced_artifact(t: &mut Tracer, id: &str, golden: &str, untraced: Duration) -> bool {
    t.begin_op(id);
    let exp = find(id).expect("registry id");
    let run = traced_run(t, exp.as_ref(), &artifact_plan(id), |replay, e| {
        if id == "compile" {
            crate::compile::replay_default(replay, e);
        }
    });
    t.end_op(untraced);
    run.passed && run.pretty == golden
}

/// The studies one sweep point evaluates.
fn point_studies(p: &DesignPoint) -> Vec<Study> {
    let mut studies = vec![Study::Spec(
        p.tech,
        CqlaConfig::new(p.code, p.input_bits, p.blocks),
    )];
    if let Some(xfer) = p.par_xfer {
        let mut config = HierarchyConfig::new(p.code, p.input_bits, xfer, p.blocks);
        config.cache_factor = p.cache_factor;
        studies.push(Study::Hier(p.tech, config));
    }
    studies
}

/// The builtin grid sweep, traced: `SweepRun::execute` minus its own
/// per-point timings is the `sweep` layer; the points' evaluation is the
/// replayed layer calls plus the warm `PointOutcome::evaluate_ctx`.
fn traced_grid(t: &mut Tracer, golden: &str, untraced: Duration) -> bool {
    t.begin_op(GRID);
    let sweep = t.time("sweep", || {
        Sweep::parse(GRID).expect("grid is a builtin sweep")
    });
    let s = t.open("sweep");
    let start = t.now();
    let run = SweepRun::execute(&sweep, 1);
    let end = t.now();
    t.close(s, start, end);
    let points: Duration = run.results().iter().map(|r| r.duration).sum();
    t.record("sweep.points", Some(s), points);
    {
        let mut replay = Replay::new(t);
        for p in sweep.points() {
            for study in point_studies(p) {
                replay.study(&study);
            }
        }
    }
    let ctx = EvalCtx::new();
    for p in sweep.points() {
        std::hint::black_box(PointOutcome::evaluate_ctx(p, &ctx));
    }
    let (hits, misses) = ctx.counters();
    t.count("eval.hits", hits);
    t.count("eval.misses", misses);
    for p in sweep.points() {
        t.time("study", || PointOutcome::evaluate_ctx(p, &ctx));
    }
    let doc: Json = t.time("sweep", || run.to_json());
    let pretty = t.time("json", || doc.to_pretty());
    t.count("json.bytes", pretty.len() as u64);
    t.end_op(untraced);
    pretty == golden
}

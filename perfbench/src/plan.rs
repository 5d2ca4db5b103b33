//! Layer replays: the public layer calls an entry point makes, issued one
//! by one from the benchmark so each gets its own span.
//!
//! An op's entry point (`Experiment::run_ctx`, `PointOutcome::evaluate_ctx`)
//! reaches the layers through `EvalCtx`, which memoizes seven pure
//! sub-results. [`Replay`] mirrors each memo table's computation with the
//! same public functions, in first-use order, once per distinct key
//! (exactly what a fresh context computes). Calls the entry point makes
//! outside the memo ([`Direct`]) are replayed every time and attributed
//! to the warm entry-point span, which repeats them.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use cqla_circuit::{Circuit, DependencyDag, Gate, ListScheduler, QubitId, Width};
use cqla_core::experiments::primary_blocks;
use cqla_core::experiments::Experiment;
use cqla_core::{
    AreaModel, CacheSim, CqlaConfig, EvalCtx, FetchPolicy, HierarchyConfig, HierarchyStudy,
    QlaBaseline, SpecializationStudy,
};
use cqla_ecc::fidelity::{AppSize, FidelityBudget};
use cqla_ecc::{Code, EccMetrics, Level};
use cqla_iontrap::TechPoint;
use cqla_workloads::{DraperAdder, ModExp, Qft, ShorInstance};

use crate::trace::Tracer;

/// One memoized `EvalCtx` sub-result, by the key the context uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Ecc(TechPoint, Code, u8),
    Adder(u32, u32),
    QlaMakespan(u32),
    Cache(u32, usize),
    Level1(TechPoint, Code, u32),
    Area(TechPoint, Code, u64, u32),
}

/// A study evaluation an entry point makes through its context.
#[derive(Debug, Clone, Copy)]
pub enum Study {
    /// `SpecializationStudy::evaluate_ctx`.
    Spec(TechPoint, CqlaConfig),
    /// `HierarchyStudy::evaluate_ctx`.
    Hier(TechPoint, HierarchyConfig),
    /// A Figure 6a cell: `EvalCtx::adder_costs` alone.
    AdderCell(u32, u32),
    /// An optimized-lookahead Figure 7 cell: `EvalCtx::cache_behavior`.
    CacheCell(u32, usize),
}

/// One step of an entry point, in call order.
#[derive(Debug, Clone, Copy)]
pub enum Call {
    Study(Study),
    Direct(Direct),
}

/// A layer call an entry point makes outside the memo.
#[derive(Debug, Clone, Copy)]
pub enum Direct {
    /// An in-order Figure 7 cell: adder trace plus one two-pass simulation.
    InOrderCache(u32, usize),
    /// Figure 2: one adder DAG, an unlimited and a capped schedule.
    Fig2 { bits: u32, cap: u32 },
    /// One Figure 8a row.
    Fig8a(TechPoint, u32),
    /// One Figure 8b row.
    Fig8b(TechPoint, u32),
    /// Table 2's ECC metrics.
    Table2(TechPoint),
}

fn level(l: u8) -> Level {
    if l == 1 {
        Level::ONE
    } else {
        Level::TWO
    }
}

/// Replays layer calls into a [`Tracer`], remembering which memo keys the
/// op has already computed.
pub struct Replay<'t> {
    pub tracer: &'t mut Tracer,
    seen: HashSet<Key>,
}

impl<'t> Replay<'t> {
    pub fn new(tracer: &'t mut Tracer) -> Self {
        Self {
            tracer,
            seen: HashSet::new(),
        }
    }

    /// The memo keys `study` requests, in the order its code requests
    /// them; first uses are replayed.
    pub fn study(&mut self, study: &Study) {
        let keys: Vec<Key> = match *study {
            Study::Spec(tech, c) => vec![
                Key::Adder(c.input_bits(), c.compute_blocks()),
                Key::Ecc(tech, c.code(), 2),
                Key::Ecc(tech, QlaBaseline::CODE, 2),
                Key::QlaMakespan(c.input_bits()),
                Key::Area(tech, c.code(), c.memory_qubits(), c.compute_blocks()),
            ],
            Study::Hier(tech, c) => vec![
                Key::Cache(c.input_bits, c.cache_capacity()),
                Key::Adder(c.input_bits, c.blocks),
                Key::Ecc(tech, c.code, 1),
                Key::Ecc(tech, c.code, 2),
                Key::Ecc(tech, QlaBaseline::CODE, 2),
                Key::QlaMakespan(c.input_bits),
                Key::Level1(tech, c.code, c.input_bits),
            ],
            Study::AdderCell(bits, blocks) => vec![Key::Adder(bits, blocks)],
            Study::CacheCell(bits, capacity) => vec![Key::Cache(bits, capacity)],
        };
        for key in keys {
            self.key(key);
        }
    }

    /// `EvalCtx::ecc_metrics` (and `gate_step_time`).
    pub fn ecc(&mut self, tech: TechPoint, code: Code, l: u8) {
        self.key(Key::Ecc(tech, code, l));
    }

    /// `EvalCtx::level1_share`.
    pub fn level1(&mut self, tech: TechPoint, code: Code, qubits: u32) {
        self.key(Key::Level1(tech, code, qubits));
    }

    /// `EvalCtx::area_reduction`.
    pub fn area(&mut self, tech: TechPoint, code: Code, memory_qubits: u64, blocks: u32) {
        self.key(Key::Area(tech, code, memory_qubits, blocks));
    }

    fn key(&mut self, key: Key) {
        if !self.seen.insert(key) {
            return;
        }
        match key {
            Key::Ecc(tech, code, l) => {
                let t = tech.params();
                self.tracer
                    .time("ecc", || EccMetrics::compute(code, level(l), &t));
            }
            Key::Adder(bits, blocks) => {
                let adder = self.draper(bits, None);
                let dag = self.dag(adder.circuit_ref(), None);
                let weight = Gate::two_qubit_gate_equivalents;
                self.schedule(&dag, Width::Blocks(blocks as usize), None);
                self.tracer.time("circuit.dag", || {
                    (dag.critical_path(weight), dag.total_work(weight))
                });
            }
            Key::QlaMakespan(bits) => {
                let adder = self.draper(bits, None);
                let dag = self.dag(adder.circuit_ref(), None);
                self.schedule(&dag, Width::Unlimited, None);
            }
            Key::Cache(bits, capacity) => {
                let adder = self.draper(bits, None);
                let (circuit, inputs) = self.workloads(None, || adder_trace(&adder));
                self.cache_sim(
                    &circuit,
                    capacity,
                    FetchPolicy::OptimizedLookahead,
                    &inputs,
                    1,
                    None,
                );
                self.cache_sim(
                    &circuit,
                    capacity,
                    FetchPolicy::OptimizedLookahead,
                    &inputs,
                    2,
                    None,
                );
            }
            Key::Level1(tech, code, bits) => {
                let t = tech.params();
                let budget = self.tracer.time("ecc", || FidelityBudget::new(code, &t));
                let (k, q) = self.workloads(None, || ShorInstance::new(bits.max(32)).app_size());
                self.tracer
                    .time("ecc", || budget.max_level1_share(AppSize::new(k, q)));
            }
            Key::Area(tech, code, memory_qubits, blocks) => {
                let t = tech.params();
                self.tracer.time("study", || {
                    AreaModel::new(&t).area_reduction(code, memory_qubits, blocks)
                });
            }
        }
    }

    /// Replays a call made outside the memo, attributing its spans to
    /// `parent` (the warm entry-point span that repeats it).
    pub fn direct(&mut self, direct: &Direct, parent: Option<usize>) {
        match *direct {
            Direct::InOrderCache(bits, capacity) => {
                let adder = self.draper(bits, parent);
                let (circuit, inputs) = self.workloads(parent, || adder_trace(&adder));
                self.cache_sim(&circuit, capacity, FetchPolicy::InOrder, &inputs, 2, parent);
            }
            Direct::Fig2 { bits, cap } => {
                let adder = self.draper(bits, parent);
                let dag = self.dag(adder.circuit_ref(), parent);
                self.schedule(&dag, Width::Unlimited, parent);
                self.schedule(&dag, Width::Blocks(cap as usize), parent);
            }
            Direct::Fig8a(tech, n) => {
                let t = tech.params();
                let code = Code::BaconShor913;
                let blocks = primary_blocks(n);
                let adder = self.draper(n, parent);
                let dag = self.dag(adder.circuit_ref(), parent);
                let weight = Gate::two_qubit_gate_equivalents;
                self.tracer.time_under("circuit.dag", parent, || {
                    dag.critical_path(weight)
                        .max(dag.total_work(weight).div_ceil(u64::from(blocks)))
                });
                self.tracer
                    .time_under("ecc", parent, || EccMetrics::compute(code, Level::TWO, &t));
                self.workloads(parent, || ModExp::new(n).additions());
                let adder = self.draper(n, parent);
                std::hint::black_box(adder.circuit_ref().counts());
            }
            Direct::Fig8b(tech, n) => {
                let t = tech.params();
                let code = Code::BaconShor913;
                self.tracer
                    .time_under("ecc", parent, || EccMetrics::compute(code, Level::TWO, &t));
                self.tracer
                    .time_under("ecc", parent, || EccMetrics::compute(code, Level::TWO, &t));
                self.workloads(parent, || {
                    let qft = Qft::new(n);
                    (qft.total_gates(), qft.pair_interactions())
                });
            }
            Direct::Table2(tech) => {
                let t = tech.params();
                self.tracer
                    .time_under("ecc", parent, || cqla_ecc::table2_metrics(&t));
            }
        }
    }

    /// A call into `cqla-workloads` as a `workloads` span, attributed to
    /// `parent` or else to the default parent.
    fn workloads<T>(&mut self, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        self.tracer.count("workloads.calls", 1);
        let parent = parent.or(self.tracer.parent());
        self.tracer.time_under("workloads", parent, f)
    }

    /// `DraperAdder::new` as a `workloads` span.
    fn draper(&mut self, bits: u32, parent: Option<usize>) -> DraperAdder {
        self.workloads(parent, || DraperAdder::new(bits))
    }

    /// `DependencyDag::new` as a `circuit.dag` span.
    pub fn dag(&mut self, circuit: &Circuit, parent: Option<usize>) -> DependencyDag {
        self.tracer.count("circuit.gates", circuit.len() as u64);
        let parent = parent.or(self.tracer.parent());
        self.tracer
            .time_under("circuit.dag", parent, || DependencyDag::new(circuit))
    }

    /// `ListScheduler::schedule` as a `circuit.schedule` span.
    pub fn schedule(&mut self, dag: &DependencyDag, width: Width, parent: Option<usize>) {
        let parent = parent.or(self.tracer.parent());
        let schedule = self.tracer.time_under("circuit.schedule", parent, || {
            ListScheduler::new(dag).schedule(width, Gate::two_qubit_gate_equivalents)
        });
        self.tracer.count("model.makespan_sum", schedule.makespan());
    }

    /// `CacheSim::run` as a `cache` span, counting the modeled accesses.
    pub fn cache_sim(
        &mut self,
        circuit: &Circuit,
        capacity: usize,
        policy: FetchPolicy,
        inputs: &[QubitId],
        repetitions: u32,
        parent: Option<usize>,
    ) {
        let parent = parent.or(self.tracer.parent());
        let run = self.tracer.time_under("cache", parent, || {
            CacheSim::new(capacity).run(circuit, policy, inputs, repetitions)
        });
        self.tracer.count("cache.calls", 1);
        self.tracer.count("cache.accesses", run.accesses());
        self.tracer.count("model.cache_hits", run.hits());
        self.tracer.count("model.fetch_misses", run.fetch_misses());
    }
}

/// The warm study call of a plan step, on a primed context.
fn warm_study(study: &Study, ctx: &EvalCtx) {
    match *study {
        Study::Spec(tech, config) => {
            std::hint::black_box(
                SpecializationStudy::new(&tech.params()).evaluate_ctx(config, ctx),
            );
        }
        Study::Hier(tech, config) => {
            std::hint::black_box(HierarchyStudy::new(&tech.params()).evaluate_ctx(config, ctx));
        }
        Study::AdderCell(bits, blocks) => {
            std::hint::black_box(ctx.adder_costs(bits, blocks));
        }
        Study::CacheCell(bits, capacity) => {
            std::hint::black_box(ctx.cache_behavior(bits, capacity));
        }
    }
}

/// What a traced experiment run produced.
pub struct TracedRun {
    /// Whether both the cold and the warm run passed.
    pub passed: bool,
    /// The pretty-printed artifact document.
    pub pretty: String,
    /// The cold `run_ctx` plus `to_pretty` time: the in-process work an
    /// untraced op does.
    pub cold: Duration,
}

/// One experiment op, traced, inside the current op span:
///
/// 1. `prelude` and the layer calls of `plan`, one span each
///    (unmemoized calls attributed to the `experiments` span);
/// 2. a cold `run_ctx` on a fresh context, which primes it (untimed
///    except for [`TracedRun::cold`]; its memo counters are recorded);
/// 3. the warm study calls, then the warm `run_ctx` as the
///    `experiments` span, then `document` and `to_pretty`.
pub fn traced_run(
    t: &mut Tracer,
    exp: &dyn Experiment,
    plan: &[Call],
    prelude: impl FnOnce(&mut Replay, usize),
) -> TracedRun {
    let e = t.open("experiments");
    {
        let mut replay = Replay::new(t);
        prelude(&mut replay, e);
        for call in plan {
            match call {
                Call::Study(s) => replay.study(s),
                Call::Direct(d) => replay.direct(d, Some(e)),
            }
        }
    }
    let ctx = EvalCtx::new();
    let cold_start = Instant::now();
    let cold = exp.run_ctx(&ctx);
    let cold_run = cold_start.elapsed();
    let (hits, misses) = ctx.counters();
    t.count("eval.hits", hits);
    t.count("eval.misses", misses);
    for call in plan {
        if let Call::Study(s) = call {
            t.time_under("study", Some(e), || warm_study(s, &ctx));
        }
    }
    let start = t.now();
    let warm = exp.run_ctx(&ctx);
    let end = t.now();
    t.close(e, start, end);
    let doc = t.time("experiments", || warm.document(exp.id()));
    let json_start = Instant::now();
    let pretty = t.time("json", || doc.to_pretty());
    let json = json_start.elapsed();
    t.count("json.bytes", pretty.len() as u64);
    TracedRun {
        passed: cold.passed && warm.passed,
        pretty,
        cold: cold_run + json,
    }
}

/// The adder's gate stream and its memory-resident inputs, as the cache
/// studies build them.
fn adder_trace(adder: &DraperAdder) -> (Circuit, Vec<QubitId>) {
    let circuit = adder.circuit();
    let inputs = adder
        .a_register()
        .chain(adder.b_register())
        .map(QubitId::new)
        .collect();
    (circuit, inputs)
}

/// The study evaluations and direct calls of one registry artifact at
/// its paper defaults, in the order its `run_ctx` makes them.
pub fn artifact_plan(id: &str) -> Vec<Call> {
    use cqla_core::experiments::{
        FIG6A_BLOCKS, FIG6A_SIZES, FIG7_FACTORS, FIG7_SIZES, FIG8A_SIZES, FIG8B_SIZES,
        TABLE5_PAR_XFER, TABLE5_SIZES,
    };
    use cqla_core::TABLE4_GRID;
    let tech = TechPoint::Projected;
    let mut plan = Vec::new();
    match id {
        "table2" => plan.push(Call::Direct(Direct::Table2(tech))),
        "table4" => {
            for (bits, blocks) in TABLE4_GRID {
                for b in blocks {
                    for code in [Code::Steane713, Code::BaconShor913] {
                        plan.push(Call::Study(Study::Spec(
                            tech,
                            CqlaConfig::new(code, bits, b),
                        )));
                    }
                }
            }
        }
        "table5" => {
            for code in Code::ALL {
                for xfer in TABLE5_PAR_XFER {
                    for bits in TABLE5_SIZES {
                        let config = HierarchyConfig::new(code, bits, xfer, primary_blocks(bits));
                        plan.push(Call::Study(Study::Hier(tech, config)));
                    }
                }
            }
        }
        "fig2" => plan.push(Call::Direct(Direct::Fig2 { bits: 64, cap: 15 })),
        "fig6a" => {
            for bits in FIG6A_SIZES {
                for b in FIG6A_BLOCKS {
                    plan.push(Call::Study(Study::AdderCell(bits, b)));
                }
            }
        }
        "fig7" => {
            for bits in FIG7_SIZES {
                for factor in FIG7_FACTORS {
                    let pe = 9 * primary_blocks(bits) as usize;
                    let capacity = (((pe as f64) * factor).round() as usize).max(1);
                    plan.push(Call::Direct(Direct::InOrderCache(bits, capacity)));
                    plan.push(Call::Study(Study::CacheCell(bits, capacity)));
                }
            }
        }
        "fig8a" => plan.extend(FIG8A_SIZES.map(|n| Call::Direct(Direct::Fig8a(tech, n)))),
        "fig8b" => plan.extend(FIG8B_SIZES.map(|n| Call::Direct(Direct::Fig8b(tech, n)))),
        "machine" => {
            let (code, bits, blocks, xfer) = (Code::BaconShor913, 1024, 100, 10);
            plan.push(Call::Study(Study::Spec(
                tech,
                CqlaConfig::new(code, bits, blocks),
            )));
            plan.push(Call::Study(Study::Hier(
                tech,
                HierarchyConfig::new(code, bits, xfer, blocks),
            )));
        }
        _ => {}
    }
    plan
}

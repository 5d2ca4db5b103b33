//! The memoized evaluation context — one [`EvalCtx`] per experiment run
//! (or shared across a whole grid of runs) caches the keyed sub-results
//! the paper's tables are assembled from.
//!
//! `EvalCtx` keeps six tables: the Draper adder itself (keyed by width:
//! its circuit, [`DependencyDag`], memory-resident inputs, critical path,
//! total work and Toffoli count), the adder's [`ScheduleCosts`] (keyed by
//! `(bits, blocks)`), the cache-simulator steady state (keyed by `(bits,
//! capacity)`), ECC metrics (keyed by `(tech, code, level)`), floorplan
//! area reductions (keyed by `(tech, code, memory qubits, blocks)`), and
//! compiled-program [`ScheduleCosts`] (keyed by the lowered [`Circuit`]
//! itself and the block count). Each adder width is built once per
//! context: every schedule, cache run, Fig 2 profile, Fig 8a row and
//! Eq. 1 level-mixing budget reads it from the width table (the budget
//! is then a few float operations, so it is not memoized). Neighboring
//! grid points share most keys — the 24-point builtin sweep has six
//! adder widths — so a shared context turns a grid's cost from `points ×
//! full evaluation` into `distinct keys × computation`.
//!
//! [`cqla_compile::schedule_costs`] is the one schedule path: both
//! schedule tables price a [`DependencyDag`] with it (the `compile`
//! artifact hands the same DAG to its cache simulation). An adder width
//! schedules many block counts (Fig 6a runs seven per width), so its
//! entry also holds a [`SchedulePlan`], built on its first schedule: the
//! ASAP pass and the rank order are paid once per width, not once per
//! block count.
//!
//! Every value cached here is a pure function of its key, computed by
//! exactly the same code path the unmemoized evaluation used, so results
//! are byte-identical whether a context is shared, fresh, or absent.
//! Technology presets are keyed by [`TechnologyParams::name`], which
//! uniquely identifies a parameter set (the type has no other
//! constructors).
//!
//! Every table is a single-flight [`Memo`]: grid workers racing on one
//! key (four points of the builtin grid share one 1024-bit cache-sim
//! key) compute it once and share the value. Hit/miss counters aggregate
//! per context via [`EvalCtx::counters`] and process-wide via
//! [`memo_counters`] (surfaced by `cqla serve` in `/v1/stats`).

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use cqla_circuit::{Circuit, DependencyDag, Gate, QubitId, SchedulePlan, Width};
use cqla_compile::ScheduleCosts;
use cqla_ecc::fidelity::{AppSize, FidelityBudget};
use cqla_ecc::memo::{Memo, Outcome};
use cqla_ecc::{Code, EccMetrics, Level};
use cqla_iontrap::{PhysicalOp, TechnologyParams};
use cqla_units::Seconds;
use cqla_workloads::{DraperAdder, ShorInstance};

use crate::area::AreaModel;
use crate::cache::CacheSim;
use crate::qla::QlaBaseline;

static EVAL_HITS: AtomicU64 = AtomicU64::new(0);
static EVAL_MISSES: AtomicU64 = AtomicU64::new(0);

/// Process-wide cumulative memo `(hits, misses)` across every context
/// this process ever created — the counters `cqla serve` reports in
/// `/v1/stats`. A lookup that waited on another thread's computation
/// counts as a hit.
#[must_use]
pub fn memo_counters() -> (u64, u64) {
    (
        EVAL_HITS.load(Ordering::Relaxed),
        EVAL_MISSES.load(Ordering::Relaxed),
    )
}

/// Looks `key` up in one of the context's tables, bumping the
/// process-wide counters.
fn memoized<K: Eq + Hash + Clone, V: Clone>(
    memo: &Memo<K, V>,
    key: K,
    compute: impl FnOnce() -> V,
) -> V {
    let Ok((value, outcome)) =
        memo.try_get_or_compute(key, || Ok::<_, std::convert::Infallible>(compute()));
    let counter = if outcome == Outcome::Computed {
        &EVAL_MISSES
    } else {
        &EVAL_HITS
    };
    counter.fetch_add(1, Ordering::Relaxed);
    value
}

/// The `compiled` table's key: a lowered circuit, shared by reference
/// count and hashed once, up front. Equality checks the stored hash and
/// then the full circuit, so a hash collision costs one comparison,
/// never a wrong answer.
#[derive(Debug, Clone)]
struct CircuitKey {
    hash: u64,
    circuit: Arc<Circuit>,
}

impl CircuitKey {
    fn new(circuit: Arc<Circuit>) -> Self {
        let mut hasher = WordHasher(0);
        circuit.hash(&mut hasher);
        Self {
            hash: hasher.finish(),
            circuit,
        }
    }
}

impl PartialEq for CircuitKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
            && (Arc::ptr_eq(&self.circuit, &other.circuit) || self.circuit == other.circuit)
    }
}

impl Eq for CircuitKey {}

impl Hash for CircuitKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// A multiply-rotate hasher (the FxHash step) that folds one word per
/// integer write: a gate hashes as its discriminant and a few small
/// fields, so a circuit costs a few multiplies per gate. Crafted
/// collisions are harmless: each costs one full comparison of a circuit
/// the caller already holds, never a wrong answer.
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// One Draper adder width, built once per context.
#[derive(Debug)]
pub(crate) struct DraperEntry {
    pub(crate) adder: DraperAdder,
    pub(crate) dag: DependencyDag,
    /// The memory-resident inputs: the `a` and `b` registers.
    pub(crate) inputs: Vec<QubitId>,
    /// `(critical path, total work)` in two-qubit-gate units.
    pub(crate) kernel: (u64, u64),
    pub(crate) toffolis: u64,
    /// The schedule plan every block count of this width runs, built by
    /// the first schedule ([`EvalCtx::adder_plan`]): readers that never
    /// schedule (Fig 7's cache runs, Fig 8a, the Eq. 1 budget) never
    /// pay for it.
    plan: OnceLock<SchedulePlan>,
}

impl DraperEntry {
    fn new(bits: u32) -> Self {
        let adder = DraperAdder::new(bits);
        let dag = DependencyDag::new(adder.circuit_ref());
        let weight = Gate::two_qubit_gate_equivalents;
        let inputs = adder.a_register().chain(adder.b_register());
        Self {
            inputs: inputs.map(QubitId::new).collect(),
            kernel: (dag.critical_path(weight), dag.total_work(weight)),
            toffolis: adder.circuit_ref().counts().toffoli,
            adder,
            dag,
            plan: OnceLock::new(),
        }
    }
}

/// Steady-state cache behavior of repeated `bits`-bit additions through a
/// cache of a given capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheBehavior {
    /// Steady-state hit rate.
    pub hit_rate: f64,
    /// Memory→cache fetches per addition once warm.
    pub fetches_per_addition: u64,
}

/// The memoization context threaded through experiment evaluation.
///
/// `Sync`: every table is lock-protected, so one context can back all
/// worker threads of a grid run (the sweep executor shares one per run).
///
/// # Examples
///
/// ```
/// use cqla_core::{CqlaConfig, EvalCtx, SpecializationStudy};
/// use cqla_ecc::Code;
/// use cqla_iontrap::TechnologyParams;
///
/// let ctx = EvalCtx::new();
/// let study = SpecializationStudy::new(&TechnologyParams::projected());
/// let a = study.evaluate_ctx(CqlaConfig::new(Code::Steane713, 32, 9), &ctx);
/// let b = study.evaluate_ctx(CqlaConfig::new(Code::BaconShor913, 32, 9), &ctx);
/// // The second point reuses the (32, 9) schedule: hits accrue.
/// let (hits, _misses) = ctx.counters();
/// assert!(hits > 0);
/// assert_eq!(a.utilization, b.utilization);
/// ```
#[derive(Debug, Default)]
pub struct EvalCtx {
    ecc: Memo<(&'static str, Code, Level), EccMetrics>,
    draper: Memo<u32, Arc<DraperEntry>>,
    adder: Memo<(u32, u32), ScheduleCosts>,
    cache: Memo<(u32, usize), CacheBehavior>,
    area: Memo<(&'static str, Code, u64, u32), f64>,
    compiled: Memo<(CircuitKey, u32), ScheduleCosts>,
    /// Adder schedule plans and rank orders this context built: test
    /// probes of the laziness, never part of a result.
    plan_builds: AtomicU64,
    rank_builds: AtomicU64,
}

impl EvalCtx {
    /// Creates an empty context.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Memoized [`EccMetrics::compute`].
    #[must_use]
    pub fn ecc_metrics(&self, code: Code, level: Level, tech: &TechnologyParams) -> EccMetrics {
        memoized(&self.ecc, (tech.name(), code, level), || {
            EccMetrics::compute(code, level, tech)
        })
    }

    /// Wall-clock duration of one logical gate step for `code` at `level`
    /// (physical two-qubit gate plus error correction) — the repeated
    /// `tech.duration(DoubleGate) + metrics.ec_time()` idiom, memoized
    /// through [`EvalCtx::ecc_metrics`].
    #[must_use]
    pub fn gate_step_time(&self, code: Code, level: Level, tech: &TechnologyParams) -> Seconds {
        tech.duration(PhysicalOp::DoubleGate) + self.ecc_metrics(code, level, tech).ec_time()
    }

    /// The `bits`-bit Draper adder, built once per context: every
    /// registry reader of the adder takes it from here.
    pub(crate) fn draper(&self, bits: u32) -> Arc<DraperEntry> {
        memoized(&self.draper, bits, || Arc::new(DraperEntry::new(bits)))
    }

    /// `draper`'s schedule plan, ready to run at `width`: the plan is
    /// built on the first call, and its rank order on the first width
    /// that binds.
    pub(crate) fn adder_plan<'a>(&self, draper: &'a DraperEntry, width: Width) -> &'a SchedulePlan {
        let plan = draper.plan.get_or_init(|| {
            self.plan_builds.fetch_add(1, Ordering::Relaxed);
            cqla_compile::schedule_plan(&draper.dag)
        });
        if plan.build_ranks(&draper.dag, width) {
            self.rank_builds.fetch_add(1, Ordering::Relaxed);
        }
        plan
    }

    /// Memoized [`cqla_compile::schedule_costs`] of the `bits`-bit
    /// Draper adder on `blocks` compute blocks: one DAG serves the
    /// bounded-width utilization, the packed bound
    /// [`ScheduleCosts::ideal_makespan`], and the critical path, and one
    /// plan per width serves every block count.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is zero.
    #[must_use]
    pub fn adder_costs(&self, bits: u32, blocks: u32) -> ScheduleCosts {
        memoized(&self.adder, (bits, blocks), || {
            let draper = self.draper(bits);
            let plan = self.adder_plan(&draper, Width::Blocks(blocks as usize));
            cqla_compile::schedule_costs_with(&draper.dag, plan, blocks)
        })
    }

    /// [`QlaBaseline::adder_time`] assembled from memoized parts: the
    /// tech-priced QLA gate step times the adder's critical path (which
    /// does not depend on the block count).
    #[must_use]
    pub fn qla_adder_time(&self, tech: &TechnologyParams, critical_path: u64) -> Seconds {
        self.gate_step_time(QlaBaseline::CODE, Level::TWO, tech) * critical_path as f64
    }

    /// Memoized steady-state cache behavior: one two-repetition
    /// optimized-lookahead [`CacheSim`] run over the `bits`-bit adder's
    /// DAG, whose second repetition gives the per-addition fetches once
    /// warm.
    #[must_use]
    pub fn cache_behavior(&self, bits: u32, capacity: usize) -> CacheBehavior {
        memoized(&self.cache, (bits, capacity), || {
            let draper = self.draper(bits);
            let warm = CacheSim::new(capacity).run_optimized(&draper.dag, &draper.inputs, 2);
            CacheBehavior {
                hit_rate: warm.hit_rate(),
                fetches_per_addition: warm.last_fetch_misses(),
            }
        })
    }

    /// The Eq. 1 level-mixing budget: the maximum share of operations a
    /// `bits`-bit Shor instance (at least 32 bits) may run at level 1,
    /// with `K` read off the memoized kernel adder.
    #[must_use]
    pub fn level1_share(&self, code: Code, tech: &TechnologyParams, bits: u32) -> f64 {
        let shor = ShorInstance::new(bits.max(32));
        let me = shor.modexp();
        let kernel = me.kernel_stats_from(self.draper(me.kernel_width()).kernel);
        let (k, q) = shor.app_size_from(kernel);
        FidelityBudget::new(code, tech).max_level1_share(AppSize::new(k, q))
    }

    /// Memoized [`AreaModel::area_reduction`] (the flat-CQLA floorplan
    /// ratio).
    #[must_use]
    pub fn area_reduction(
        &self,
        tech: &TechnologyParams,
        code: Code,
        memory_qubits: u64,
        blocks: u32,
    ) -> f64 {
        memoized(
            &self.area,
            (tech.name(), code, memory_qubits, blocks),
            || AreaModel::new(tech).area_reduction(code, memory_qubits, blocks),
        )
    }

    /// Memoized [`cqla_compile::schedule_costs`] of a compiled (already
    /// lowered) circuit on `blocks` compute blocks, computed over `dag`,
    /// which must be `lowered`'s DAG (the caller builds it once for the
    /// schedule and the cache simulation). The key is the lowered
    /// [`Circuit`] itself — exact, and identical for identical programs
    /// however they were produced (inline asm, the seeded generator, …)
    /// — so every point of a `compile` grid that lowers to the same
    /// circuit shares one schedule. The table shares `lowered` rather
    /// than copying it, and hashes it once per call.
    #[must_use]
    pub fn compiled_costs(
        &self,
        lowered: &Arc<Circuit>,
        dag: &DependencyDag,
        blocks: u32,
    ) -> ScheduleCosts {
        debug_assert_eq!(
            dag.num_gates(),
            lowered.len(),
            "dag is not the lowered circuit's"
        );
        let key = CircuitKey::new(Arc::clone(lowered));
        memoized(&self.compiled, (key, blocks), || {
            cqla_compile::schedule_costs(dag, blocks)
        })
    }

    /// This context's cumulative `(hits, misses)` across all its tables.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        fn count<K, V>(memo: &Memo<K, V>) -> (u64, u64) {
            (memo.hits() + memo.coalesced(), memo.misses())
        }
        [
            count(&self.ecc),
            count(&self.draper),
            count(&self.adder),
            count(&self.cache),
            count(&self.area),
            count(&self.compiled),
        ]
        .iter()
        .fold((0, 0), |(h, m), &(th, tm)| (h + th, m + tm))
    }
}

#[cfg(test)]
mod tests {
    use cqla_circuit::{ListScheduler, Width};

    use super::*;
    use crate::hierarchy::{HierarchyConfig, HierarchyStudy};
    use crate::specialize::{CqlaConfig, SpecializationStudy, TABLE4_GRID};

    fn tech() -> TechnologyParams {
        TechnologyParams::projected()
    }

    #[test]
    fn memoized_parts_match_the_direct_computations() {
        let ctx = EvalCtx::new();
        let t = tech();
        assert_eq!(
            ctx.ecc_metrics(Code::Steane713, Level::TWO, &t),
            EccMetrics::compute(Code::Steane713, Level::TWO, &t)
        );
        let costs = ctx.adder_costs(64, 9);
        assert_eq!(
            ctx.qla_adder_time(&t, costs.critical_path),
            QlaBaseline::new(&t).adder_time(&costs)
        );
        assert_eq!(
            ctx.area_reduction(&t, Code::BaconShor913, 6 * 64, 16),
            AreaModel::new(&t).area_reduction(Code::BaconShor913, 6 * 64, 16)
        );
    }

    /// The identity the QLA pricing rests on: with positive gate weights,
    /// an unlimited-width list schedule starts every gate as soon as its
    /// predecessors finish, so its makespan is the DAG critical path that
    /// [`cqla_compile::schedule_costs`] reports at any width.
    #[test]
    fn adder_critical_path_is_the_unlimited_width_makespan() {
        let table4 = TABLE4_GRID.iter().map(|&(n, _)| n);
        for n in (1..=64).chain(table4).chain([4096]) {
            let adder = DraperAdder::new(n);
            let dag = DependencyDag::new(adder.circuit_ref());
            let unlimited = ListScheduler::new(&dag)
                .schedule(Width::Unlimited, Gate::two_qubit_gate_equivalents)
                .makespan();
            let blocks = TABLE4_GRID
                .iter()
                .find(|&&(bits, _)| bits == n)
                .map_or(n.min(16), |&(_, [b, _])| b);
            let costs = cqla_compile::schedule_costs(&dag, blocks);
            assert_eq!(costs.critical_path, unlimited, "n={n}, B={blocks}");
            let weight = Gate::two_qubit_gate_equivalents;
            assert_eq!(costs.critical_path, dag.critical_path(weight), "n={n}");
            assert_eq!(costs.total_work, dag.total_work(weight), "n={n}");
        }
    }

    #[test]
    fn adder_costs_match_the_study() {
        let ctx = EvalCtx::new();
        let costs = ctx.adder_costs(64, 9);
        assert_eq!(
            costs,
            cqla_compile::schedule_costs(
                &DependencyDag::new(DraperAdder::new(64).circuit_ref()),
                9
            )
        );
        // The width entry's unscheduled numbers are the schedule's.
        let draper = ctx.draper(64);
        assert_eq!(draper.kernel, (costs.critical_path, costs.total_work));
    }

    /// The identity that lets one DAG per width serve the Eq. 1 budget:
    /// the width entry's `(critical path, total work)` is
    /// [`ModExp::kernel_stats`] — both weigh the same undecomposed
    /// circuit with [`Gate::two_qubit_gate_equivalents`].
    #[test]
    fn adder_entry_kernel_is_the_modexp_kernel() {
        let ctx = EvalCtx::new();
        let table4 = TABLE4_GRID.iter().map(|&(n, _)| n);
        for n in [1, 2, 3, 16, 31, 33].into_iter().chain(table4) {
            assert_eq!(
                ctx.draper(n).kernel,
                cqla_workloads::ModExp::new(n).kernel_stats(),
                "n={n}"
            );
        }
    }

    #[test]
    fn level1_share_is_the_direct_budget_bit_for_bit() {
        let ctx = EvalCtx::new();
        let techs = [TechnologyParams::current(), TechnologyParams::projected()];
        for bits in [
            1,
            16,
            31,
            32,
            33,
            64,
            1023,
            1024,
            1025,
            2048,
            4096,
            1 << 20,
            u32::MAX,
        ] {
            let (k, q) = ShorInstance::new(bits.max(32)).app_size();
            for tech in &techs {
                for code in Code::ALL {
                    let direct =
                        FidelityBudget::new(code, tech).max_level1_share(AppSize::new(k, q));
                    let share = ctx.level1_share(code, tech, bits);
                    assert_eq!(
                        share.to_bits(),
                        direct.to_bits(),
                        "{bits} bits, {}, {code}: {share} vs {direct}",
                        tech.name()
                    );
                }
            }
        }
    }

    /// Each adder width is built once per context, its schedule plan
    /// by its first schedule and its rank order by its first block count
    /// that binds. Readers that never schedule build no plan: Fig 7's
    /// cache runs, Fig 8a and the Eq. 1 budget (`compile`).
    #[test]
    fn each_adder_width_is_built_once_per_context() {
        let plan_counts = |ctx: &EvalCtx| {
            (
                ctx.plan_builds.load(Ordering::Relaxed),
                ctx.rank_builds.load(Ordering::Relaxed),
            )
        };
        // (id, adder widths, plans, rank orders)
        let pinned = [
            ("table1", 0, 0, 0),
            ("table2", 0, 0, 0),
            ("table3", 0, 0, 0),
            ("table4", 6, 6, 6),
            ("table5", 3, 0, 0),
            ("fig2", 1, 1, 1),
            ("fig6a", 6, 6, 6),
            ("fig6b", 0, 0, 0),
            ("fig7", 5, 0, 0),
            ("fig8a", 6, 0, 0),
            ("fig8b", 0, 0, 0),
            ("verify", 0, 0, 0),
            ("machine", 1, 1, 1),
            ("compile", 1, 0, 0),
        ];
        let ids: Vec<&str> = pinned.iter().map(|&(id, ..)| id).collect();
        assert_eq!(ids, crate::experiments::ids());
        for (id, widths, plans, ranks) in pinned {
            let ctx = EvalCtx::new();
            let _ = crate::experiments::find(id).unwrap().run_ctx(&ctx);
            assert_eq!(ctx.draper.misses(), widths, "{id}");
            assert_eq!(plan_counts(&ctx), (plans, ranks), "{id}");
        }
        // A block count the ASAP peak fits builds the plan but no rank
        // order; the first count that binds builds it.
        let ctx = EvalCtx::new();
        let _ = ctx.adder_costs(32, 4096);
        assert_eq!(plan_counts(&ctx), (1, 0));
        let _ = ctx.adder_costs(32, 1);
        let _ = ctx.adder_costs(32, 2);
        assert_eq!(plan_counts(&ctx), (1, 1));
        // The builtin 24-point grid (both techs × both codes × six
        // widths, full hierarchy) on one context shared by all workers.
        let mut points = Vec::new();
        for tech in [TechnologyParams::current(), TechnologyParams::projected()] {
            for code in Code::ALL {
                for bits in crate::experiments::FIG6A_SIZES {
                    points.push((tech.clone(), code, bits));
                }
            }
        }
        for threads in [1, 4] {
            let ctx = EvalCtx::new();
            std::thread::scope(|s| {
                for chunk in points.chunks(points.len().div_ceil(threads)) {
                    let ctx = &ctx;
                    s.spawn(move || {
                        for (tech, code, bits) in chunk {
                            let blocks = crate::experiments::primary_blocks(*bits);
                            let config = CqlaConfig::new(*code, *bits, blocks);
                            let _ = SpecializationStudy::new(tech).evaluate_ctx(config, ctx);
                            let config = HierarchyConfig::new(*code, *bits, 10, blocks);
                            let _ = HierarchyStudy::new(tech).evaluate_ctx(config, ctx);
                        }
                    });
                }
            });
            assert_eq!(ctx.draper.misses(), 6, "{threads} threads");
            assert_eq!(plan_counts(&ctx), (6, 6), "{threads} threads");
        }
    }

    #[test]
    fn adder_costs_match_a_scheduler_with_no_plan() {
        let ctx = EvalCtx::new();
        for bits in crate::experiments::FIG6A_SIZES {
            let dag = &ctx.draper(bits).dag;
            for blocks in crate::experiments::FIG6A_BLOCKS {
                let direct = ListScheduler::new(dag).schedule(
                    Width::Blocks(blocks as usize),
                    Gate::two_qubit_gate_equivalents,
                );
                let costs = ctx.adder_costs(bits, blocks);
                let case = format!("{bits} bits, {blocks} blocks");
                assert_eq!(costs.makespan, direct.makespan(), "{case}");
                assert_eq!(costs.critical_path, direct.critical_path(), "{case}");
                assert_eq!(costs.total_work, direct.total_work(), "{case}");
                assert_eq!(costs.peak_parallelism, direct.peak_parallelism(), "{case}");
                assert_eq!(
                    costs.utilization.to_bits(),
                    direct.utilization().to_bits(),
                    "{case}"
                );
                assert_eq!(costs.depth, dag.depth(), "{case}");
            }
        }
        let plans = ctx.plan_builds.load(Ordering::Relaxed);
        assert_eq!(plans, crate::experiments::FIG6A_SIZES.len() as u64);
    }

    #[test]
    fn repeated_lookups_hit() {
        let ctx = EvalCtx::new();
        let t = tech();
        for _ in 0..3 {
            let _ = ctx.ecc_metrics(Code::Steane713, Level::ONE, &t);
            let _ = ctx.adder_costs(32, 4);
        }
        let (hits, misses) = ctx.counters();
        // The ECC entry, the schedule, and the adder it schedules.
        assert_eq!(misses, 3);
        assert_eq!(hits, 4);
    }

    #[test]
    fn tech_presets_do_not_collide() {
        let ctx = EvalCtx::new();
        let current = ctx.ecc_metrics(Code::Steane713, Level::TWO, &TechnologyParams::current());
        let projected = ctx.ecc_metrics(Code::Steane713, Level::TWO, &tech());
        assert_ne!(current.ec_time(), projected.ec_time());
    }

    #[test]
    fn compiled_costs_match_the_direct_pipeline() {
        let ctx = EvalCtx::new();
        let circuit = cqla_compile::random::random_circuit(8, 64, 5);
        let lowered = Arc::new(cqla_circuit::decompose_toffolis(&circuit));
        let dag = DependencyDag::new(&lowered);
        let memoized = ctx.compiled_costs(&lowered, &dag, 4);
        assert_eq!(memoized, cqla_compile::schedule_costs(&dag, 4));
        // Same circuit, same width: a hit. Different width: a miss.
        let before = ctx.counters();
        let _ = ctx.compiled_costs(&lowered, &dag, 4);
        let _ = ctx.compiled_costs(&lowered, &dag, 8);
        let after = ctx.counters();
        assert_eq!(after.0 - before.0, 1);
        assert_eq!(after.1 - before.1, 1);
    }

    #[test]
    fn circuit_keys_compare_the_circuit_on_a_hash_match() {
        let a = Arc::new(cqla_compile::random::random_circuit(8, 64, 1));
        let b = Arc::new(cqla_compile::random::random_circuit(8, 64, 2));
        assert_ne!(a, b);
        // The same stored hash, as a collision would give: still unequal.
        let key = |hash, circuit: &Arc<Circuit>| CircuitKey {
            hash,
            circuit: Arc::clone(circuit),
        };
        let collided = key(7, &a);
        assert_ne!(collided, key(7, &b));
        assert_eq!(collided, key(7, &Arc::new((*a).clone())));
        // A different hash never compares the circuits.
        assert_ne!(collided, key(8, &a));
        // Equal circuits in separate allocations hash alike.
        let copy = CircuitKey::new(Arc::new((*a).clone()));
        assert_eq!(CircuitKey::new(a), copy);
    }

    #[test]
    fn one_lowered_circuit_reached_two_ways_shares_a_schedule() {
        let program = cqla_circuit::asm::emit(&cqla_compile::random::random_circuit(16, 256, 1));
        let mut random = crate::experiments::find("compile").unwrap();
        for (key, value) in [
            ("source", "random"),
            ("qubits", "16"),
            ("gates", "256"),
            ("seed", "1"),
        ] {
            random.set(key, value).unwrap();
        }
        let mut inline = crate::experiments::find("compile").unwrap();
        inline.set("source", "inline-asm").unwrap();
        inline.set("program", &program).unwrap();

        let ctx = EvalCtx::new();
        let first = random.run_ctx(&ctx);
        assert_eq!((ctx.compiled.hits(), ctx.compiled.misses()), (0, 1));
        let second = inline.run_ctx(&ctx);
        assert_eq!((ctx.compiled.hits(), ctx.compiled.misses()), (1, 1));
        assert!(first.data.get("schedule").is_some());
        assert_eq!(first.data.get("schedule"), second.data.get("schedule"));
    }

    #[test]
    fn fresh_context_misses_are_pinned() {
        // One miss per distinct key a run computes. A second table
        // caching a fact another table already holds (the adder's
        // critical path, say) shows up here as extra misses.
        for (id, misses) in [
            ("table4", 44),
            ("table5", 10),
            ("fig2", 1),
            ("fig6a", 48),
            ("fig7", 20),
            ("fig8a", 7),
            ("machine", 7),
            ("compile", 5),
        ] {
            let ctx = EvalCtx::new();
            let _ = crate::experiments::find(id).unwrap().run_ctx(&ctx);
            assert_eq!(ctx.counters().1, misses, "{id}");
        }
    }

    #[test]
    fn global_counters_accumulate() {
        let (h0, m0) = memo_counters();
        let ctx = EvalCtx::new();
        let _ = ctx.adder_costs(16, 4);
        let _ = ctx.adder_costs(16, 4);
        let (h1, m1) = memo_counters();
        // Other tests run concurrently, so only lower-bound the deltas.
        assert!(h1 > h0);
        assert!(m1 > m0);
    }

    #[test]
    fn process_counters_are_visible() {
        let ctx = EvalCtx::new();
        let _ = ctx.adder_costs(32, 4);
        let (_, misses) = memo_counters();
        assert!(misses > 0);
    }
}

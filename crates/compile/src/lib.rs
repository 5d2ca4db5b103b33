//! Program compilation front end: user-submitted circuits → paper-style
//! schedule artifacts.
//!
//! The paper evaluates the CQLA on two fixed workloads (Draper/ripple
//! adders, modexp). This crate opens the same pipeline to *programs*:
//! parse the asm IR, decompose Toffolis into the 15-gate network (§5.1),
//! build the dependency DAG, and list-schedule it under a compute-block
//! width budget — producing the makespan/utilization numbers the paper's
//! specialization results are built from. `cqla-core` layers the
//! technology pricing (latency, area, fidelity) on top via its memoized
//! evaluation context.
//!
//! The whole pipeline is deterministic: the same source text and width
//! always produce the same [`ScheduleCosts`], and the seeded generator in
//! [`random`] produces the same circuit for the same `(qubits, gates,
//! seed)` on every platform — grids over `seed=` shard across worker
//! fleets byte-identically.
//!
//! # Examples
//!
//! ```
//! use cqla_compile::{compile_source, SAMPLE_PROGRAM};
//!
//! let compiled = compile_source(SAMPLE_PROGRAM, 4)?;
//! assert!(compiled.lowered.len() > compiled.program.len()); // Toffolis expanded
//! assert!(compiled.costs.makespan >= compiled.costs.critical_path);
//! # Ok::<(), cqla_circuit::asm::ParseAsmError>(())
//! ```

pub mod random;

use cqla_circuit::asm::{self, ParseAsmError};
use cqla_circuit::{decompose_toffolis, Circuit, DependencyDag, Gate, SchedulePlan, Width};

/// A small demonstration program: a half adder plus phase rotations,
/// exercising every stage of the pipeline (Toffoli decomposition
/// included). This is what the `compile` experiment runs when no program
/// is supplied.
pub const SAMPLE_PROGRAM: &str = "\
# circuit: 4 qubits, 6 gates
h q0
h q1
toffoli q0, q1, q2
cnot q0, q1
cphase[2] q1, q3
measure q2
";

/// Schedule-derived costs of a compiled program: everything the
/// downstream latency/area/fidelity artifact extracts from the
/// dependency DAG. Units are two-qubit-gate equivalents (Toffoli-free
/// after lowering, so every gate weighs 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleCosts {
    /// Completion time of the bounded-width list schedule, in gate steps.
    pub makespan: u64,
    /// Dependency-chain lower bound (the unlimited-width makespan).
    pub critical_path: u64,
    /// Sum of all gate durations.
    pub total_work: u64,
    /// DAG depth in gates.
    pub depth: usize,
    /// Peak concurrent gates under the width budget.
    pub peak_parallelism: usize,
    /// Mean compute-block utilization of the bounded schedule.
    pub utilization: f64,
}

impl ScheduleCosts {
    /// Perfectly packed makespan bound `max(critical path, work / B)`.
    #[must_use]
    pub fn ideal_makespan(&self, blocks: u32) -> u64 {
        ideal_makespan((self.critical_path, self.total_work), blocks)
    }
}

/// [`ScheduleCosts::ideal_makespan`] from a DAG's `(critical path, total
/// work)` alone, without a list schedule.
#[must_use]
pub fn ideal_makespan((critical_path, total_work): (u64, u64), blocks: u32) -> u64 {
    critical_path.max(total_work.div_ceil(u64::from(blocks).max(1)))
}

/// Schedules an (already lowered) circuit, given as its dependency DAG,
/// onto `blocks` compute blocks and extracts the paper's schedule
/// metrics. Taking the DAG lets a caller that also simulates the cache
/// over the same circuit build it once.
///
/// Gates are weighted by [`Gate::two_qubit_gate_equivalents`], so a
/// not-yet-decomposed Toffoli costs its 15-gate network. The critical
/// path, total work and unit depth come with the schedule's plan. A
/// caller that schedules one DAG at many block counts builds its
/// [`schedule_plan`] once and calls [`schedule_costs_with`].
///
/// # Panics
///
/// Panics if `blocks` is zero.
#[must_use]
pub fn schedule_costs(dag: &DependencyDag, blocks: u32) -> ScheduleCosts {
    schedule_costs_with(dag, &schedule_plan(dag), blocks)
}

/// The [`SchedulePlan`] of `dag` under the weights [`schedule_costs`]
/// uses.
#[must_use]
pub fn schedule_plan(dag: &DependencyDag) -> SchedulePlan {
    SchedulePlan::new(dag, WEIGHT)
}

/// [`schedule_costs`] from `dag`'s [`schedule_plan`], which serves every
/// block count. It runs the plan's costs pass
/// ([`SchedulePlan::costs`]), which builds no start times or occupancy
/// series; the fields equal those of the materialized
/// [`SchedulePlan::schedule`], utilization bit for bit.
///
/// # Panics
///
/// Panics if `blocks` is zero or `plan` is not `dag`'s.
#[must_use]
pub fn schedule_costs_with(dag: &DependencyDag, plan: &SchedulePlan, blocks: u32) -> ScheduleCosts {
    assert!(blocks > 0, "schedule width must be positive");
    let width = Width::Blocks(blocks as usize);
    let (makespan, peak_parallelism) = plan.costs(dag, width);
    ScheduleCosts {
        makespan,
        critical_path: plan.critical_path(),
        total_work: plan.total_work(),
        depth: plan.depth(),
        peak_parallelism,
        utilization: width.utilization(plan.total_work(), makespan, peak_parallelism),
    }
}

/// The gate weights of every schedule this crate prices.
const WEIGHT: fn(&Gate) -> u64 = Gate::two_qubit_gate_equivalents;

/// A fully compiled program: the parsed source, its Toffoli-free
/// lowering, and the bounded-width schedule metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Compiled {
    /// The program as written.
    pub program: Circuit,
    /// The program after Toffoli decomposition (§5.1's 15-gate network).
    pub lowered: Circuit,
    /// Schedule metrics of the lowered circuit on the width budget.
    pub costs: ScheduleCosts,
}

/// Runs the whole front-end pipeline on asm source text: parse →
/// decompose Toffolis → dependency DAG → list-schedule on `blocks`
/// compute blocks.
///
/// # Errors
///
/// Returns the spanned [`ParseAsmError`] if the source does not parse.
///
/// # Panics
///
/// Panics if `blocks` is zero.
pub fn compile_source(source: &str, blocks: u32) -> Result<Compiled, ParseAsmError> {
    let program = asm::parse(source)?;
    Ok(compile_circuit(program, blocks))
}

/// [`compile_source`] for a circuit that is already in memory (e.g. from
/// the [`random`] generator): decompose → DAG → schedule.
///
/// # Panics
///
/// Panics if `blocks` is zero.
#[must_use]
pub fn compile_circuit(program: Circuit, blocks: u32) -> Compiled {
    let lowered = decompose_toffolis(&program);
    let costs = schedule_costs(&DependencyDag::new(&lowered), blocks);
    Compiled {
        program,
        lowered,
        costs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_program_compiles() {
        let c = compile_source(SAMPLE_PROGRAM, 4).unwrap();
        assert_eq!(c.program.len(), 6);
        assert_eq!(c.program.counts().toffoli, 1);
        assert_eq!(c.lowered.counts().toffoli, 0);
        assert_eq!(
            c.lowered.len(),
            5 + cqla_circuit::TOFFOLI_DECOMPOSITION_GATES
        );
        assert!(c.costs.utilization > 0.0 && c.costs.utilization <= 1.0);
        assert!(c.costs.makespan >= c.costs.critical_path);
        assert!(c.costs.makespan >= c.costs.ideal_makespan(4));
    }

    #[test]
    fn parse_errors_surface() {
        let err = compile_source("frobnicate q0\n", 4).unwrap_err();
        assert_eq!(err.line(), 1);
    }

    #[test]
    fn costs_are_deterministic() {
        let a = compile_source(SAMPLE_PROGRAM, 2).unwrap();
        let b = compile_source(SAMPLE_PROGRAM, 2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn narrow_widths_stretch_the_makespan() {
        let circuit = random::random_circuit(16, 128, 7);
        let dag = DependencyDag::new(&decompose_toffolis(&circuit));
        let narrow = schedule_costs(&dag, 1);
        let wide = schedule_costs(&dag, 16);
        assert!(narrow.makespan >= wide.makespan);
        assert_eq!(narrow.total_work, wide.total_work);
        assert_eq!(narrow.critical_path, wide.critical_path);
        assert_eq!(narrow.makespan, narrow.total_work); // width 1 serializes
    }

    #[test]
    fn one_plan_prices_every_block_count() {
        let circuit = random::random_circuit(16, 256, 9);
        for dag in [
            DependencyDag::new(&circuit),
            DependencyDag::new(&decompose_toffolis(&circuit)),
        ] {
            let plan = schedule_plan(&dag);
            for blocks in [64, 16, 9, 4, 1, 2, 3] {
                assert_eq!(
                    schedule_costs_with(&dag, &plan, blocks),
                    schedule_costs(&dag, blocks),
                    "{blocks} blocks"
                );
            }
        }
    }

    #[test]
    fn empty_program_compiles_to_zero_cost() {
        let c = compile_source("# circuit: 2 qubits, 0 gates\n", 4).unwrap();
        assert_eq!(c.costs.makespan, 0);
        assert_eq!(c.costs.utilization, 0.0);
        assert_eq!(c.costs.peak_parallelism, 0);
    }

    #[test]
    #[should_panic(expected = "schedule width must be positive")]
    fn zero_width_is_rejected() {
        let _ = compile_source(SAMPLE_PROGRAM, 0);
    }
}

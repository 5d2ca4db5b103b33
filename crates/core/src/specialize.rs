//! Specialization into memory and compute regions — the Table 4 engine
//! (paper §5.1).
//!
//! A CQLA configuration picks a code and a compute-block count `B`; the
//! Draper-adder dependency DAG is list-scheduled onto `B` gate slots, and
//! the resulting makespan, together with the area model, yields the
//! paper's three Table 4 columns: area reduction, speedup (vs the
//! maximally parallel Steane QLA), and their product, the *gain product*.
//! One [`EvalCtx::adder_costs`] entry prices both machines: the CQLA by
//! its packed makespan on `B` blocks, the QLA by the critical path.

use cqla_ecc::{Code, Level};
use cqla_iontrap::TechnologyParams;
use cqla_units::Seconds;
use cqla_workloads::ModExp;

use crate::eval::EvalCtx;

/// A CQLA design point: code, input size, and compute provisioning.
///
/// # Examples
///
/// ```
/// use cqla_core::CqlaConfig;
/// use cqla_ecc::Code;
///
/// let config = CqlaConfig::new(Code::BaconShor913, 1024, 100);
/// assert_eq!(config.memory_qubits(), 6 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CqlaConfig {
    code: Code,
    input_bits: u32,
    compute_blocks: u32,
}

impl CqlaConfig {
    /// Creates a design point.
    ///
    /// # Panics
    ///
    /// Panics if `input_bits` or `compute_blocks` is zero.
    #[must_use]
    pub fn new(code: Code, input_bits: u32, compute_blocks: u32) -> Self {
        assert!(input_bits > 0, "input size must be positive");
        assert!(compute_blocks > 0, "at least one compute block is required");
        Self {
            code,
            input_bits,
            compute_blocks,
        }
    }

    /// The error-correcting code.
    #[must_use]
    pub fn code(&self) -> Code {
        self.code
    }

    /// Application input size (bits of the number being factored).
    #[must_use]
    pub fn input_bits(&self) -> u32 {
        self.input_bits
    }

    /// Number of compute blocks.
    #[must_use]
    pub fn compute_blocks(&self) -> u32 {
        self.compute_blocks
    }

    /// Logical data qubits the memory must hold (the modular
    /// exponentiation working set, 6n).
    #[must_use]
    pub fn memory_qubits(&self) -> u64 {
        ModExp::new(self.input_bits).working_qubits()
    }
}

/// Evaluated performance of a CQLA design point — one Table 4 row for one
/// code.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecializationResult {
    /// The evaluated configuration.
    pub config: CqlaConfig,
    /// Area-reduction factor vs the Steane QLA baseline.
    pub area_reduction: f64,
    /// Adder speedup vs the maximally parallel Steane QLA (values < 1 mean
    /// the CQLA is slower; the point of Table 4 is how little is lost).
    pub speedup: f64,
    /// Mean compute-block utilization during the adder.
    pub utilization: f64,
    /// Wall-clock time of one addition on this configuration.
    pub adder_time: Seconds,
    /// `area_reduction × speedup` (QLA = 1.0).
    pub gain_product: f64,
}

/// The specialization study: schedules adders onto bounded compute blocks
/// and prices the resulting machines.
///
/// # Examples
///
/// ```
/// use cqla_core::{CqlaConfig, EvalCtx, SpecializationStudy};
/// use cqla_ecc::Code;
/// use cqla_iontrap::TechnologyParams;
///
/// let study = SpecializationStudy::new(&TechnologyParams::projected());
/// let r = study.evaluate_ctx(CqlaConfig::new(Code::Steane713, 32, 9), &EvalCtx::new());
/// // Paper Table 4: with 9 blocks the 32-bit adder keeps most QLA
/// // performance at a third of the area.
/// assert!(r.speedup > 0.6 && r.speedup <= 1.0);
/// assert!(r.area_reduction > 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct SpecializationStudy {
    tech: TechnologyParams,
}

impl SpecializationStudy {
    /// Builds the study at a technology point.
    #[must_use]
    pub fn new(tech: &TechnologyParams) -> Self {
        Self { tech: tech.clone() }
    }

    /// Evaluates one design point against the QLA baseline, reusing
    /// sub-results memoized in `ctx` (byte-identical whether `ctx` is
    /// fresh or shared — every cached entry is a pure function of its
    /// key).
    #[must_use]
    pub fn evaluate_ctx(&self, config: CqlaConfig, ctx: &EvalCtx) -> SpecializationResult {
        let costs = ctx.adder_costs(config.input_bits, config.compute_blocks);
        let step = ctx.gate_step_time(config.code, Level::TWO, &self.tech);
        let adder_time = step * costs.ideal_makespan(config.compute_blocks) as f64;
        let qla_time = ctx.qla_adder_time(&self.tech, costs.critical_path);
        let speedup = qla_time / adder_time;
        let area_reduction = ctx.area_reduction(
            &self.tech,
            config.code,
            config.memory_qubits(),
            config.compute_blocks,
        );
        SpecializationResult {
            config,
            area_reduction,
            speedup,
            utilization: costs.utilization,
            adder_time,
            gain_product: area_reduction * speedup,
        }
    }
}

/// The `(input bits, block counts)` grid of the paper's Table 4.
pub const TABLE4_GRID: [(u32, [u32; 2]); 6] = [
    (32, [4, 9]),
    (64, [9, 16]),
    (128, [16, 25]),
    (256, [36, 49]),
    (512, [64, 81]),
    (1024, [100, 121]),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> SpecializationStudy {
        SpecializationStudy::new(&TechnologyParams::projected())
    }

    #[test]
    fn speedup_shape_matches_table4() {
        // Qualitative Table 4 shape. Absolute values sit below the
        // paper's because our Brent-Kung DAG is more parallel: the 64-bit
        // adder's work/critical-path ratio is ≈ 22 where the paper's
        // Fig 2 saturates at 15 blocks, so a fixed block count stretches
        // it more (32 bits on 4 blocks: 0.331 here, `cqla run table4`;
        // the paper's Steane column spans 0.54-0.98). Specializing never
        // beats maximum parallelism on a single addition, more blocks
        // always help, and enough blocks reach the unlimited bound.
        let s = study();
        for (n, [b1, b2]) in TABLE4_GRID {
            let r1 = s.evaluate_ctx(CqlaConfig::new(Code::Steane713, n, b1), &EvalCtx::new());
            let r2 = s.evaluate_ctx(CqlaConfig::new(Code::Steane713, n, b2), &EvalCtx::new());
            assert!(r1.speedup > 0.0 && r1.speedup <= 1.0, "n={n}, B={b1}");
            assert!(r2.speedup >= r1.speedup, "n={n}: B={b2} worse than B={b1}");
        }
        // The 32-bit adder saturates at ~15 blocks — the paper's Fig 2
        // observation at our construction's parallelism.
        let sat = s.evaluate_ctx(CqlaConfig::new(Code::Steane713, 32, 15), &EvalCtx::new());
        assert!((sat.speedup - 1.0).abs() < 1e-9, "got {}", sat.speedup);
    }

    #[test]
    fn small_block_speedups_are_fractional_but_substantial() {
        // Paper Table 4 reports 0.54-0.98 for Steane; our more-parallel
        // DAG lands lower at equal block counts but in the same regime
        // (tens of percent, not orders of magnitude).
        let s = study();
        let r = s.evaluate_ctx(CqlaConfig::new(Code::Steane713, 32, 4), &EvalCtx::new());
        assert!((0.2..0.8).contains(&r.speedup), "got {}", r.speedup);
    }

    #[test]
    fn bacon_shor_speedup_is_about_three_times_steane() {
        let s = study();
        for (n, b) in [(256, 49), (1024, 121)] {
            let st = s
                .evaluate_ctx(CqlaConfig::new(Code::Steane713, n, b), &EvalCtx::new())
                .speedup;
            let bs = s
                .evaluate_ctx(CqlaConfig::new(Code::BaconShor913, n, b), &EvalCtx::new())
                .speedup;
            let ratio = bs / st;
            assert!((2.5..=3.3).contains(&ratio), "n={n}, B={b}: ratio {ratio}");
        }
    }

    #[test]
    fn gain_product_is_area_times_speedup() {
        let s = study();
        let r = s.evaluate_ctx(
            CqlaConfig::new(Code::BaconShor913, 128, 16),
            &EvalCtx::new(),
        );
        assert!((r.gain_product - r.area_reduction * r.speedup).abs() < 1e-9);
        // Every CQLA point beats the QLA's gain product of 1.0.
        assert!(r.gain_product > 1.0);
    }

    #[test]
    fn utilization_decreases_with_blocks() {
        // Paper Fig 6a: utilization falls as blocks are added.
        let ctx = EvalCtx::new();
        let sweep: Vec<(u32, f64)> = [4, 16, 36, 100]
            .into_iter()
            .map(|b| (b, ctx.adder_costs(128, b).utilization))
            .collect();
        for pair in sweep.windows(2) {
            assert!(pair[1].1 <= pair[0].1 + 1e-9, "utilization rose: {pair:?}");
        }
    }

    #[test]
    fn larger_adders_sustain_higher_utilization() {
        // Paper Fig 6a: at a fixed block count, bigger adders keep blocks
        // busier.
        let ctx = EvalCtx::new();
        let small = ctx.adder_costs(32, 36).utilization;
        let large = ctx.adder_costs(512, 36).utilization;
        assert!(large > small, "small {small}, large {large}");
    }

    #[test]
    fn memory_qubits_are_6n() {
        assert_eq!(
            CqlaConfig::new(Code::Steane713, 256, 36).memory_qubits(),
            1536
        );
    }

    #[test]
    #[should_panic(expected = "at least one compute block")]
    fn zero_blocks_rejected() {
        let _ = CqlaConfig::new(Code::Steane713, 32, 0);
    }
}

//! The quantum memory hierarchy (paper §3.3, §5.2, Table 5).
//!
//! Memory stays at level 2 (slow, reliable); a cache and compute region run
//! at level 1 (fast, less reliable); the transfer network moves logical
//! qubits between encodings at Table 3 prices through a bounded number of
//! parallel transfer channels. This module assembles the cache simulator,
//! the transfer network and the fidelity budget into the paper's Table 5
//! quantities.
//!
//! ## Level-mixing policies
//!
//! The paper's text prescribes "one level 1 addition for every two level 2
//! additions" with the two compute regions operating concurrently; its
//! Table 5 "Adder SpeedUp" column, however, is not derivable from that
//! ratio. With both regions busy, a 1:2 mix finishes three additions in
//! the time of two level-2 ones, so its speedup is at most 1.5× the
//! level-2 column. For Steane at 256 bits with 10 transfer channels that
//! is 0.754 (`cqla run table5`), while the paper prints 6.25. We
//! therefore evaluate three policies that bracket the design space, one
//! [`HierarchyResult`] field each:
//!
//! * `adder_speedup_interleave` — the text's 1:2 ratio (conservative),
//! * `adder_speedup_budgeted` — as much level-1 work as the Eq. 1 error
//!   budget allows,
//! * `adder_speedup_balanced` — both regions saturated (optimistic bound).

use cqla_ecc::{Code, CodeLevel, Level, TransferNetwork};
use cqla_iontrap::TechnologyParams;
use cqla_units::Seconds;

use crate::area::{AreaModel, BLOCK_ANCILLA_QUBITS, BLOCK_DATA_QUBITS, CQLA_CHANNEL_FACTOR};
use crate::eval::EvalCtx;
use crate::pipeline::{from_nanos, to_nanos};

/// A memory-hierarchy design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyConfig {
    /// Error-correcting code (both levels use the same code).
    pub code: Code,
    /// Adder width in bits.
    pub input_bits: u32,
    /// Parallel transfers possible between memory and cache (Table 5's
    /// `Par Xfer`).
    pub par_xfer: u32,
    /// Compute blocks in each compute region (level 1 and level 2).
    pub blocks: u32,
    /// Cache capacity as a multiple of the compute-region qubit count.
    pub cache_factor: f64,
}

impl HierarchyConfig {
    /// Creates a design point with the paper's defaults (cache = 2 × PE).
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    #[must_use]
    pub fn new(code: Code, input_bits: u32, par_xfer: u32, blocks: u32) -> Self {
        assert!(
            input_bits > 0 && par_xfer > 0 && blocks > 0,
            "parameters must be positive"
        );
        Self {
            code,
            input_bits,
            par_xfer,
            blocks,
            cache_factor: 2.0,
        }
    }

    /// Cache capacity in logical qubits.
    #[must_use]
    pub fn cache_capacity(&self) -> usize {
        cache_capacity(self.cache_factor, self.blocks)
    }
}

/// The capacity rule every cache in the reproduction shares: `factor`
/// times the data qubits of `blocks` compute blocks, rounded, and at
/// least one qubit.
pub(crate) fn cache_capacity(factor: f64, blocks: u32) -> usize {
    (factor * (BLOCK_DATA_QUBITS * u64::from(blocks)) as f64)
        .round()
        .max(1.0) as usize
}

/// Evaluated memory-hierarchy performance — one Table 5 row.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyResult {
    /// The evaluated configuration.
    pub config: HierarchyConfig,
    /// Steady-state cache hit rate during repeated additions.
    pub cache_hit_rate: f64,
    /// Steady-state memory→cache fetches per addition.
    pub fetches_per_addition: u64,
    /// Wall-clock time of one addition in the level-1 region including
    /// transfer stalls.
    pub l1_adder_time: Seconds,
    /// Of which: pure compute.
    pub l1_compute_time: Seconds,
    /// Of which: the transfer-network pipeline.
    pub l1_transfer_time: Seconds,
    /// Wall-clock time of one addition in the level-2 region.
    pub l2_adder_time: Seconds,
    /// Speedup of the level-1 region over the level-2 region (the paper's
    /// "L1 SpeedUp").
    pub l1_speedup: f64,
    /// Speedup of the level-2 region over the QLA baseline (the paper's
    /// "L2 SpeedUp").
    pub l2_speedup: f64,
    /// Whole-adder speedup vs QLA under the 1:2 interleave policy.
    pub adder_speedup_interleave: f64,
    /// Fidelity-budgeted policy speedup.
    pub adder_speedup_budgeted: f64,
    /// Balanced (optimistic) policy speedup.
    pub adder_speedup_balanced: f64,
    /// Area reduction vs QLA including the hierarchy's extra structures.
    pub area_reduction: f64,
    /// `area_reduction × adder_speedup_interleave`.
    pub gain_product_conservative: f64,
    /// `area_reduction × adder_speedup_balanced`.
    pub gain_product_optimistic: f64,
}

/// The memory-hierarchy study.
///
/// # Examples
///
/// ```
/// use cqla_core::{EvalCtx, HierarchyConfig, HierarchyStudy};
/// use cqla_ecc::Code;
/// use cqla_iontrap::TechnologyParams;
///
/// let study = HierarchyStudy::new(&TechnologyParams::projected());
/// let config = HierarchyConfig::new(Code::Steane713, 256, 10, 36);
/// let r = study.evaluate_ctx(config, &EvalCtx::new());
/// // The level-1 region runs the adder an order of magnitude faster than
/// // the level-2 region (paper Table 5: ~17x).
/// assert!(r.l1_speedup > 5.0, "l1 speedup {}", r.l1_speedup);
/// ```
#[derive(Debug, Clone)]
pub struct HierarchyStudy {
    tech: TechnologyParams,
}

impl HierarchyStudy {
    /// Builds the study at a technology point.
    #[must_use]
    pub fn new(tech: &TechnologyParams) -> Self {
        Self { tech: tech.clone() }
    }

    /// Evaluates a design point, reusing sub-results memoized in `ctx`
    /// (byte-identical whether `ctx` is fresh or shared — every cached
    /// entry is a pure function of its key).
    #[must_use]
    pub fn evaluate_ctx(&self, config: HierarchyConfig, ctx: &EvalCtx) -> HierarchyResult {
        let code = config.code;
        let n = config.input_bits;

        // --- Cache behaviour in steady state (repeated additions). ---
        let behavior = ctx.cache_behavior(n, config.cache_capacity());
        let fetches_per_addition = behavior.fetches_per_addition;
        let cache_hit_rate = behavior.hit_rate;

        // --- Level-1 adder time: compute vs transfer pipeline. ---
        // Both adder times read only the DAG's critical path and total
        // work, so no list schedule runs here.
        let (critical_path, total_work) = ctx.draper(n).kernel;
        let makespan = cqla_compile::ideal_makespan((critical_path, total_work), config.blocks);
        let gate_l1 = ctx.gate_step_time(code, Level::ONE, &self.tech);
        let l1_compute_time = gate_l1 * makespan as f64;

        let transfers = TransferNetwork::new(&self.tech);
        let down = transfers.latency(
            CodeLevel::new(code, Level::TWO),
            CodeLevel::new(code, Level::ONE),
        );
        // Transfers batch at compute-block granularity: the transfer
        // network region processes one 9-qubit block's worth of cat-state
        // teleportations per channel service.
        let batch_size = BLOCK_DATA_QUBITS;
        let batches = fetches_per_addition.div_ceil(batch_size);
        let l1_transfer_time = transfer_rounds_time(batches, config.par_xfer, down);
        let l1_adder_time = l1_compute_time.max(l1_transfer_time) + down;

        // --- Level-2 region and QLA reference. ---
        let gate_l2 = ctx.gate_step_time(code, Level::TWO, &self.tech);
        let l2_adder_time = gate_l2 * makespan as f64;
        let qla_time = ctx.qla_adder_time(&self.tech, critical_path);

        let l1_speedup = l2_adder_time / l1_adder_time;
        let l2_speedup = qla_time / l2_adder_time;
        let s1_vs_qla = qla_time / l1_adder_time;

        // --- Level-mixing policies. ---
        let adder_speedup_interleave =
            interleave_speedup(1, 2, qla_time, l1_adder_time, l2_adder_time);
        let adder_speedup_balanced = s1_vs_qla + l2_speedup;
        let share = ctx.level1_share(code, &self.tech, n);
        // Level-1 ops occupy `share` of the op budget; the level-2 stream
        // runs throughout. Throughput gain = S2 / (1 - alpha) with alpha
        // capped both by the budget and by the L1 region's own capacity.
        let alpha_capacity = s1_vs_qla / (s1_vs_qla + l2_speedup);
        let alpha = share.min(alpha_capacity);
        let adder_speedup_budgeted = if alpha >= 1.0 {
            s1_vs_qla
        } else {
            l2_speedup / (1.0 - alpha)
        };

        // --- Area, including the hierarchy's level-1 structures. ---
        let area = AreaModel::new(&self.tech);
        let memory_qubits = cqla_workloads::ModExp::new(n).working_qubits();
        let l1_tile = ctx.ecc_metrics(code, Level::ONE, &self.tech).tile_area();
        let l1_block_area =
            l1_tile * (BLOCK_DATA_QUBITS + BLOCK_ANCILLA_QUBITS) as f64 * CQLA_CHANNEL_FACTOR;
        let cqla_area = area.cqla_area(code, memory_qubits, config.blocks)
            + l1_block_area * f64::from(config.blocks)
            + area.cache_slot_area(code) * config.cache_capacity() as f64;
        let area_reduction = area.qla_area(Code::Steane713, memory_qubits) / cqla_area;

        HierarchyResult {
            config,
            cache_hit_rate,
            fetches_per_addition,
            l1_adder_time,
            l1_compute_time,
            l1_transfer_time,
            l2_adder_time,
            l1_speedup,
            l2_speedup,
            adder_speedup_interleave,
            adder_speedup_budgeted,
            adder_speedup_balanced,
            area_reduction,
            gain_product_conservative: area_reduction * adder_speedup_interleave,
            gain_product_optimistic: area_reduction * adder_speedup_balanced,
        }
    }
}

/// Completion time of `batches` identical transfers of `latency` each,
/// all requested at t=0 on `par_xfer` parallel channels: whole rounds of
/// `latency`, which is rounded to the nanosecond once per round on the
/// pipeline simulator's integer-nanosecond clock.
fn transfer_rounds_time(batches: u64, par_xfer: u32, latency: Seconds) -> Seconds {
    from_nanos(batches.div_ceil(u64::from(par_xfer)) * to_nanos(latency))
}

/// Speedup of the `l1:l2` interleave with concurrent regions: `l1 + l2`
/// additions complete every `max(l1 × T_l1, l2 × T_l2)` window.
fn interleave_speedup(l1: u32, l2: u32, qla: Seconds, t_l1: Seconds, t_l2: Seconds) -> f64 {
    let window = (t_l1 * f64::from(l1)).max(t_l2 * f64::from(l2));
    qla * f64::from(l1 + l2) / window
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specialize::SpecializationStudy;

    fn study() -> HierarchyStudy {
        HierarchyStudy::new(&TechnologyParams::projected())
    }

    fn config(code: Code, par_xfer: u32) -> HierarchyConfig {
        HierarchyConfig::new(code, 256, par_xfer, 36)
    }

    #[test]
    fn l1_region_is_an_order_faster_than_l2() {
        let r = study().evaluate_ctx(config(Code::Steane713, 10), &EvalCtx::new());
        // Paper Table 5: 17.4 for this point; the structural model must
        // land in the same order of magnitude.
        assert!((5.0..60.0).contains(&r.l1_speedup), "{}", r.l1_speedup);
        assert!(r.l1_adder_time < r.l2_adder_time);
    }

    #[test]
    fn more_transfer_channels_help() {
        let s = study();
        let ten = s.evaluate_ctx(config(Code::Steane713, 10), &EvalCtx::new());
        let five = s.evaluate_ctx(config(Code::Steane713, 5), &EvalCtx::new());
        assert!(
            ten.l1_speedup > five.l1_speedup,
            "10x {} <= 5x {}",
            ten.l1_speedup,
            five.l1_speedup
        );
        // Transfer-bound regime: halving channels roughly halves transfer
        // throughput.
        assert!(five.l1_transfer_time > ten.l1_transfer_time * 1.5);
    }

    #[test]
    fn policies_are_ordered() {
        for code in Code::ALL {
            let r = study().evaluate_ctx(config(code, 10), &EvalCtx::new());
            assert!(
                r.adder_speedup_interleave <= r.adder_speedup_balanced,
                "{code}"
            );
            assert!(
                r.adder_speedup_budgeted <= r.adder_speedup_balanced + 1e-9,
                "{code}"
            );
            // The hierarchy must beat the flat CQLA (Table 4) under every
            // policy that uses level 1 at all.
            assert!(r.adder_speedup_interleave > r.l2_speedup, "{code}");
        }
    }

    #[test]
    fn gain_products_exceed_table4() {
        // Paper: hierarchy gain products (Table 5) dominate flat ones
        // (Table 4).
        let r = study().evaluate_ctx(config(Code::BaconShor913, 10), &EvalCtx::new());
        let flat = SpecializationStudy::new(&TechnologyParams::projected()).evaluate_ctx(
            crate::specialize::CqlaConfig::new(Code::BaconShor913, 256, 36),
            &EvalCtx::new(),
        );
        assert!(
            r.gain_product_conservative > flat.gain_product,
            "hierarchy {} <= flat {}",
            r.gain_product_conservative,
            flat.gain_product
        );
    }

    #[test]
    fn steady_state_fetches_are_bounded_by_inputs() {
        let r = study().evaluate_ctx(config(Code::Steane713, 10), &EvalCtx::new());
        // Per addition, at most the 2n input qubits plus churn need
        // refetching.
        assert!(r.fetches_per_addition > 0);
        assert!(
            r.fetches_per_addition <= 4 * 256,
            "fetches {}",
            r.fetches_per_addition
        );
    }

    #[test]
    fn cache_hit_rate_is_high_with_optimized_fetch() {
        let r = study().evaluate_ctx(config(Code::Steane713, 10), &EvalCtx::new());
        assert!(r.cache_hit_rate > 0.5, "hit rate {}", r.cache_hit_rate);
    }

    #[test]
    fn area_reduction_slightly_below_flat_cqla() {
        let r = study().evaluate_ctx(config(Code::Steane713, 10), &EvalCtx::new());
        let flat = AreaModel::new(&TechnologyParams::projected()).area_reduction(
            Code::Steane713,
            6 * 256,
            36,
        );
        assert!(r.area_reduction < flat);
        assert!(
            r.area_reduction > flat * 0.7,
            "hierarchy {} flat {flat}",
            r.area_reduction
        );
    }

    #[test]
    fn transfer_rounds_are_whole_latencies() {
        let latency = Seconds::new(2e-3);
        assert_eq!(transfer_rounds_time(0, 10, latency), Seconds::ZERO);
        for batches in 1..=10 {
            assert_eq!(transfer_rounds_time(batches, 10, latency), latency);
        }
        assert_eq!(
            transfer_rounds_time(11, 10, latency),
            Seconds::new(4_000_000.0 / 1e9)
        );
        // A sub-nanosecond remainder is rounded per round, then
        // multiplied: 3 rounds of 1.6 ns book 6 ns, not round(4.8) = 5.
        assert_eq!(
            transfer_rounds_time(3, 1, Seconds::new(1.6e-9)),
            Seconds::new(6.0 / 1e9)
        );
    }

    #[test]
    fn interleave_formula() {
        let s = interleave_speedup(
            1,
            2,
            Seconds::new(10.0),
            Seconds::new(1.0),
            Seconds::new(5.0),
        );
        // Window = max(1, 10) = 10 s for 3 additions vs 10 s each on QLA.
        assert!((s - 3.0).abs() < 1e-12);
    }
}

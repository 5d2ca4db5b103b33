//! The paper's Figures 2, 6a, 6b and 7 as [`Experiment`]s.

use cqla_circuit::Width;
use cqla_ecc::Code;
use cqla_iontrap::{TechPoint, TechnologyParams};
use cqla_network::{BandwidthSample, SuperblockBandwidth};

use crate::cache::{CacheSim, FetchPolicy};
use crate::eval::EvalCtx;
use crate::hierarchy::cache_capacity;
use crate::json::ToJson;
use crate::report::{fmt3, TextTable};

use super::api::{
    parse_bits, parse_positive, parse_tech, unknown_key, Domain, Experiment, ExperimentOutput,
    Param,
};
use super::tables::primary_blocks;

/// Figure 2: parallelism over time for the 64-qubit adder, with unlimited
/// resources and with 15 compute blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig2Data {
    /// Gates in flight per unit-gate time step, unlimited resources.
    pub unlimited_profile: Vec<usize>,
    /// Gates in flight per time step, capped at 15 blocks.
    pub capped_profile: Vec<usize>,
    /// Makespan (unit-gate steps) with unlimited resources.
    pub unlimited_makespan: u64,
    /// Makespan with 15 blocks.
    pub capped_makespan: u64,
}

impl Fig2Data {
    /// The paper's observation: capping at 15 blocks leaves the runtime
    /// (essentially) unchanged. Returns the relative stretch.
    #[must_use]
    pub fn relative_stretch(&self) -> f64 {
        self.capped_makespan as f64 / self.unlimited_makespan as f64
    }
}

/// Figure 2 as an experiment (adder width and cap are parameters; the
/// paper uses 64 and 15).
///
/// Gates carry their fault-tolerant durations (Toffoli = 15 gate+EC
/// steps); this is what makes the paper's observation true — a Toffoli
/// occupies its block long enough that 15 blocks keep up with unlimited
/// hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig2 {
    /// Adder width in bits.
    pub bits: u32,
    /// Compute-block cap for the constrained schedule.
    pub cap: u32,
}

impl Default for Fig2 {
    fn default() -> Self {
        Self { bits: 64, cap: 15 }
    }
}

impl Fig2 {
    /// Schedules both profiles from the adder's one plan in `ctx`.
    #[must_use]
    pub fn data_ctx(&self, ctx: &EvalCtx) -> Fig2Data {
        let draper = ctx.draper(self.bits);
        let [unlimited, capped] = [Width::Unlimited, Width::Blocks(self.cap as usize)]
            .map(|width| ctx.adder_plan(&draper, width).schedule(&draper.dag, width));
        Fig2Data {
            unlimited_profile: unlimited.occupancy().to_vec(),
            capped_profile: capped.occupancy().to_vec(),
            unlimited_makespan: unlimited.makespan(),
            capped_makespan: capped.makespan(),
        }
    }

    /// Renders the profile table plus the makespan summary line.
    #[must_use]
    pub fn render(&self, data: &Fig2Data) -> String {
        // Sample the profiles at Toffoli granularity for display.
        let stride = 15;
        let mut t = TextTable::new(["time", "unlimited", &format!("{} blocks", self.cap)]);
        let len = data.unlimited_profile.len().max(data.capped_profile.len());
        let mut i = 0;
        while i < len {
            t.push_row([
                (i / stride).to_string(),
                data.unlimited_profile
                    .get(i)
                    .copied()
                    .unwrap_or(0)
                    .to_string(),
                data.capped_profile.get(i).copied().unwrap_or(0).to_string(),
            ]);
            i += stride;
        }
        format!(
            "{}\nmakespans: unlimited {}, capped {} ({:.2}x)",
            t,
            data.unlimited_makespan,
            data.capped_makespan,
            data.relative_stretch()
        )
    }
}

impl Experiment for Fig2 {
    fn id(&self) -> &'static str {
        "fig2"
    }

    fn title(&self) -> &'static str {
        "Figure 2: adder parallelism profile"
    }

    fn params(&self) -> Vec<Param> {
        vec![
            Param::new("bits", self.bits, Domain::Bits),
            Param::new("cap", self.cap, Domain::PosInt),
        ]
    }

    fn set(&mut self, key: &str, value: &str) -> Result<(), super::ParamError> {
        match key {
            "bits" => self.bits = parse_bits("bits", value)?,
            "cap" => self.cap = parse_positive("cap", value)?,
            _ => return Err(unknown_key(key, &self.params())),
        }
        Ok(())
    }

    fn run_ctx(&self, ctx: &EvalCtx) -> ExperimentOutput {
        let data = self.data_ctx(ctx);
        ExperimentOutput::new(self.render(&data), data.to_json())
    }
}

/// One Figure 6a sample: utilization of `blocks` compute blocks on one
/// adder size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6aRow {
    /// Adder width in bits.
    pub adder_bits: u32,
    /// Compute blocks.
    pub blocks: u32,
    /// Mean block utilization in `[0, 1]`.
    pub utilization: f64,
}

/// The adder sizes Figure 6a sweeps.
pub const FIG6A_SIZES: [u32; 6] = [32, 64, 128, 256, 512, 1024];

/// The block counts Figure 6a sweeps.
pub const FIG6A_BLOCKS: [u32; 7] = [4, 16, 36, 64, 100, 144, 196];

/// Computes one Figure 6a cell: utilization of `blocks` compute blocks
/// on the `adder_bits`-bit adder, reusing sub-results memoized in `ctx`.
/// The utilization is schedule-derived and technology independent, so
/// cells shared with Table 4 (or other grid points) come for free.
#[must_use]
pub fn fig6a_cell_ctx(adder_bits: u32, blocks: u32, ctx: &EvalCtx) -> Fig6aRow {
    Fig6aRow {
        adder_bits,
        blocks,
        utilization: ctx.adder_costs(adder_bits, blocks).utilization,
    }
}

/// Figure 6a as an experiment: utilization vs block count for each adder
/// size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig6a {
    /// Technology operating point.
    pub tech: TechPoint,
}

impl Default for Fig6a {
    fn default() -> Self {
        Self {
            tech: TechPoint::Projected,
        }
    }
}

impl Fig6a {
    /// The full size×blocks grid, sizes outer, reusing sub-results
    /// memoized in `ctx`.
    #[must_use]
    pub fn rows_ctx(&self, ctx: &EvalCtx) -> Vec<Fig6aRow> {
        let mut rows = Vec::new();
        for &bits in &FIG6A_SIZES {
            for &b in &FIG6A_BLOCKS {
                rows.push(fig6a_cell_ctx(bits, b, ctx));
            }
        }
        rows
    }

    /// Renders the paper-style matrix for `rows`.
    #[must_use]
    pub fn render(rows: &[Fig6aRow]) -> String {
        let mut t = TextTable::new(["blocks", "32", "64", "128", "256", "512", "1024"]);
        for &b in &FIG6A_BLOCKS {
            let mut cells = vec![b.to_string()];
            for &bits in &FIG6A_SIZES {
                let u = rows
                    .iter()
                    .find(|r| r.adder_bits == bits && r.blocks == b)
                    .map_or(0.0, |r| r.utilization);
                cells.push(fmt3(u));
            }
            t.push_row(cells);
        }
        t.to_string()
    }
}

impl Experiment for Fig6a {
    fn id(&self) -> &'static str {
        "fig6a"
    }

    fn title(&self) -> &'static str {
        "Figure 6a: block utilization"
    }

    fn params(&self) -> Vec<Param> {
        vec![Param::new("tech", self.tech, Domain::Tech)]
    }

    fn set(&mut self, key: &str, value: &str) -> Result<(), super::ParamError> {
        match key {
            "tech" => self.tech = parse_tech("tech", value)?,
            _ => return Err(unknown_key(key, &self.params())),
        }
        Ok(())
    }

    fn run_ctx(&self, ctx: &EvalCtx) -> ExperimentOutput {
        let rows = self.rows_ctx(ctx);
        ExperimentOutput::new(Self::render(&rows), rows.to_json())
    }
}

/// Figure 6b: required vs available perimeter bandwidth and the superblock
/// crossover, per code.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6bData {
    /// Samples per code over the block sweep.
    pub samples: Vec<(Code, Vec<BandwidthSample>)>,
    /// Crossover block count per code.
    pub crossovers: Vec<(Code, u32)>,
}

/// The superblock sizes (in blocks) Figure 6b sweeps.
pub const FIG6B_BLOCKS: [u32; 9] = [9, 18, 27, 36, 45, 54, 63, 72, 81];

/// Computes one code's Figure 6b series: the bandwidth samples over the
/// block sweep plus the crossover point. Per-code twin of [`Fig6b`], for
/// the parallel experiment engine.
#[must_use]
pub fn fig6b_series(tech: &TechnologyParams, code: Code) -> (Vec<BandwidthSample>, u32) {
    let model = SuperblockBandwidth::new(code, tech);
    (
        FIG6B_BLOCKS.iter().map(|&b| model.sample(b)).collect(),
        model.crossover_blocks(),
    )
}

/// Figure 6b as an experiment (blocks swept 4…81 as in the paper's
/// x-axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig6b {
    /// Technology operating point.
    pub tech: TechPoint,
}

impl Default for Fig6b {
    fn default() -> Self {
        Self {
            tech: TechPoint::Projected,
        }
    }
}

impl Fig6b {
    /// Both codes' bandwidth series and crossovers.
    #[must_use]
    pub fn data(&self) -> Fig6bData {
        let tech = self.tech.params();
        let mut samples: Vec<(Code, Vec<BandwidthSample>)> = Vec::new();
        let mut crossovers = Vec::new();
        for code in Code::ALL {
            let (series, crossover) = fig6b_series(&tech, code);
            samples.push((code, series));
            crossovers.push((code, crossover));
        }
        Fig6bData {
            samples,
            crossovers,
        }
    }

    /// Renders the bandwidth table plus the crossover lines.
    #[must_use]
    pub fn render(data: &Fig6bData) -> String {
        let mut t = TextTable::new([
            "blocks",
            "req draper(St)",
            "avail(St)",
            "req draper(BSr)",
            "avail(BSr)",
            "worst case",
        ]);
        for (i, &b) in FIG6B_BLOCKS.iter().enumerate() {
            let st = data.samples[0].1[i];
            let bs = data.samples[1].1[i];
            t.push_row([
                b.to_string(),
                fmt3(st.required_draper),
                fmt3(st.available),
                fmt3(bs.required_draper),
                fmt3(bs.available),
                fmt3(st.required_worst),
            ]);
        }
        let mut text = t.to_string();
        for (code, b) in &data.crossovers {
            text.push_str(&format!(
                "crossover {}: {} blocks/superblock\n",
                code.label(),
                b
            ));
        }
        text
    }
}

impl Experiment for Fig6b {
    fn id(&self) -> &'static str {
        "fig6b"
    }

    fn title(&self) -> &'static str {
        "Figure 6b: superblock bandwidth"
    }

    fn params(&self) -> Vec<Param> {
        vec![Param::new("tech", self.tech, Domain::Tech)]
    }

    fn set(&mut self, key: &str, value: &str) -> Result<(), super::ParamError> {
        match key {
            "tech" => self.tech = parse_tech("tech", value)?,
            _ => return Err(unknown_key(key, &self.params())),
        }
        Ok(())
    }

    fn run_ctx(&self, _ctx: &EvalCtx) -> ExperimentOutput {
        let data = self.data();
        ExperimentOutput::new(Self::render(&data), data.to_json())
    }
}

/// One Figure 7 sample: hit rate of one (adder, cache size, policy) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Row {
    /// Adder width in bits.
    pub adder_bits: u32,
    /// Cache capacity as a multiple of the compute-region qubits.
    pub cache_factor: f64,
    /// Fetch policy.
    pub policy: FetchPolicy,
    /// Measured hit rate in `[0, 1]`.
    pub hit_rate: f64,
}

/// The adder sizes Figure 7 sweeps.
pub const FIG7_SIZES: [u32; 5] = [64, 128, 256, 512, 1024];

/// The cache-capacity factors Figure 7 sweeps.
pub const FIG7_FACTORS: [f64; 3] = [1.0, 1.5, 2.0];

/// Computes one Figure 7 cell: the hit rate of one
/// `(adder, cache size, policy)` simulation. Only the optimized-lookahead
/// steady states are memoized in `ctx` (that is the policy the hierarchy
/// study simulates, so they are shared); in-order cells simulate the
/// adder memoized in `ctx` directly.
#[must_use]
pub fn fig7_cell_ctx(
    adder_bits: u32,
    cache_factor: f64,
    policy: FetchPolicy,
    ctx: &EvalCtx,
) -> Fig7Row {
    let capacity = cache_capacity(cache_factor, primary_blocks(adder_bits));
    let hit_rate = if policy == FetchPolicy::OptimizedLookahead {
        ctx.cache_behavior(adder_bits, capacity).hit_rate
    } else {
        let draper = ctx.draper(adder_bits);
        CacheSim::new(capacity)
            .run(draper.adder.circuit_ref(), policy, &draper.inputs, 2)
            .hit_rate()
    };
    Fig7Row {
        adder_bits,
        cache_factor,
        policy,
        hit_rate,
    }
}

/// Figure 7 as an experiment: cache hit rates for adders of 64…1024 bits,
/// cache sizes {1, 1.5, 2}×PE, both fetch policies.
///
/// PE (compute-region qubits) scales with the Table 4 block provisioning
/// for each adder size; the cache warms over two consecutive additions, as
/// in the repeated additions of a modular exponentiation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fig7;

impl Fig7 {
    /// The full size×factor×policy grid, reusing sub-results memoized
    /// in `ctx`.
    #[must_use]
    pub fn rows_ctx(&self, ctx: &EvalCtx) -> Vec<Fig7Row> {
        let mut rows = Vec::new();
        for &bits in &FIG7_SIZES {
            for &factor in &FIG7_FACTORS {
                for policy in [FetchPolicy::InOrder, FetchPolicy::OptimizedLookahead] {
                    rows.push(fig7_cell_ctx(bits, factor, policy, ctx));
                }
            }
        }
        rows
    }

    /// Renders the paper-style hit-rate table for `rows`.
    #[must_use]
    pub fn render(rows: &[Fig7Row]) -> String {
        let mut t = TextTable::new([
            "adder",
            "cache=PE",
            "opt PE",
            "cache=1.5PE",
            "opt 1.5PE",
            "cache=2PE",
            "opt 2PE",
        ]);
        for &bits in &FIG7_SIZES {
            let get = |factor: f64, policy: FetchPolicy| {
                rows.iter()
                    .find(|r| {
                        r.adder_bits == bits
                            && (r.cache_factor - factor).abs() < 1e-9
                            && r.policy == policy
                    })
                    .map_or(0.0, |r| r.hit_rate * 100.0)
            };
            t.push_row([
                format!("{bits}-bit"),
                format!("{:.0}%", get(1.0, FetchPolicy::InOrder)),
                format!("{:.0}%", get(1.0, FetchPolicy::OptimizedLookahead)),
                format!("{:.0}%", get(1.5, FetchPolicy::InOrder)),
                format!("{:.0}%", get(1.5, FetchPolicy::OptimizedLookahead)),
                format!("{:.0}%", get(2.0, FetchPolicy::InOrder)),
                format!("{:.0}%", get(2.0, FetchPolicy::OptimizedLookahead)),
            ]);
        }
        t.to_string()
    }
}

impl Experiment for Fig7 {
    fn id(&self) -> &'static str {
        "fig7"
    }

    fn title(&self) -> &'static str {
        "Figure 7: cache hit rates"
    }

    fn run_ctx(&self, ctx: &EvalCtx) -> ExperimentOutput {
        let rows = self.rows_ctx(ctx);
        ExperimentOutput::new(Self::render(&rows), rows.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_few_blocks_capture_available_parallelism() {
        // Paper Fig 2: ~15 blocks match unlimited hardware for the
        // 64-qubit adder. Our Brent-Kung construction exposes a little
        // more parallelism (work/critical-path ≈ 22), so 15 blocks stretch
        // the adder mildly and ~22 capture everything.
        let fig = Fig2::default();
        let at_paper_cap = fig.data_ctx(&EvalCtx::new());
        assert!(
            at_paper_cap.relative_stretch() < 1.8,
            "stretch {}",
            at_paper_cap.relative_stretch()
        );
        let saturated = Fig2 { bits: 64, cap: 32 }.data_ctx(&EvalCtx::new());
        assert!(
            saturated.relative_stretch() < 1.15,
            "stretch {}",
            saturated.relative_stretch()
        );
        // The unlimited profile opens near n gates wide.
        assert!(*at_paper_cap.unlimited_profile.iter().max().unwrap() >= 55);
        // The capped profile never exceeds the cap.
        assert!(at_paper_cap.capped_profile.iter().all(|&g| g <= 15));
        assert!(fig.render(&at_paper_cap).contains("unlimited"));
    }

    #[test]
    fn fig2_profile_area_is_conserved() {
        // Gate-seconds are conserved between the two schedules.
        let data = Fig2::default().data_ctx(&EvalCtx::new());
        let a: usize = data.unlimited_profile.iter().sum();
        let b: usize = data.capped_profile.iter().sum();
        assert_eq!(a, b, "both schedules run every gate-step");
    }

    #[test]
    fn fig6a_utilization_monotone_in_blocks() {
        let rows = Fig6a::default().rows_ctx(&EvalCtx::new());
        for bits in [32u32, 1024] {
            let series: Vec<f64> = rows
                .iter()
                .filter(|r| r.adder_bits == bits)
                .map(|r| r.utilization)
                .collect();
            for pair in series.windows(2) {
                assert!(pair[1] <= pair[0] + 1e-9, "bits {bits}: {series:?}");
            }
        }
        assert!(Fig6a::render(&rows).contains("blocks"));
    }

    #[test]
    fn fig6b_has_crossovers_in_band() {
        let data = Fig6b::default().data();
        for (code, b) in &data.crossovers {
            assert!((10..=80).contains(b), "{code}: {b}");
        }
        assert!(Fig6b::render(&data).contains("crossover"));
    }

    #[test]
    fn fig7_optimized_dominates_and_is_size_stable() {
        let rows = Fig7.rows_ctx(&EvalCtx::new());
        // Optimized fetch beats in-order in every cell.
        for bits in [64u32, 256, 1024] {
            for factor in [1.0, 1.5, 2.0] {
                let find = |p: FetchPolicy| {
                    rows.iter()
                        .find(|r| {
                            r.adder_bits == bits
                                && (r.cache_factor - factor).abs() < 1e-9
                                && r.policy == p
                        })
                        .unwrap()
                        .hit_rate
                };
                assert!(
                    find(FetchPolicy::OptimizedLookahead) > find(FetchPolicy::InOrder),
                    "bits {bits}, factor {factor}"
                );
            }
        }
        assert!(Fig7::render(&rows).contains("64-bit"));
    }
}

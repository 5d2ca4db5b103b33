//! Generators for the paper's Figure 8: application communication vs
//! computation time (paper §6).
//!
//! Both panels use the Bacon-Shor code at level 2, as the paper does.
//! Computation time aggregates logical gate steps; communication time
//! aggregates qubit-transport steps (teleport execution plus the error
//! correction that re-establishes the moved qubit). The paper's point is
//! that communication *tracks but does not exceed* computation — which is
//! why the CQLA's interconnect can hide it.

use cqla_ecc::{Code, EccMetrics, Level};
use cqla_iontrap::{PhysicalOp, TechPoint, TechnologyParams};
use cqla_units::Seconds;
use cqla_workloads::{ModExp, Qft};

use crate::eval::EvalCtx;
use crate::json::ToJson;
use crate::report::{fmt3, TextTable};

use super::api::{parse_tech, unknown_key, Domain, Experiment, ExperimentOutput, Param};
use super::tables::primary_blocks;

/// One Figure 8 sample: total computation and communication time at one
/// problem size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppTimeRow {
    /// Problem size (adder bits for 8a, number size for 8b).
    pub size: u32,
    /// Total computation time.
    pub computation: Seconds,
    /// Total communication time.
    pub communication: Seconds,
}

impl AppTimeRow {
    /// Communication as a fraction of computation.
    #[must_use]
    pub fn comm_fraction(&self) -> f64 {
        self.communication / self.computation
    }
}

/// Per-qubit transport time: teleport execution plus the error-correction
/// work that re-integrates the qubit at its destination (1.5 EC
/// equivalents; see DESIGN.md §4).
fn transport_time(code: Code, tech: &TechnologyParams) -> Seconds {
    let m = EccMetrics::compute(code, Level::TWO, tech);
    m.teleport_time(tech) + m.ec_time() * 1.5
}

/// One Figure 8a sample: modular-exponentiation computation and
/// communication time at one adder size (Bacon-Shor).
///
/// Computation: each addition costs its block-constrained makespan; the
/// compute region pipelines `blocks` addition streams, so the aggregate is
/// `additions × adder_time / blocks`. Communication: per Toffoli, three
/// operand qubits are fed through the block's teleport channels, each
/// costing the EPR channel service of one logical qubit (two purification
/// rounds — short intra-processor hauls).
///
/// Exposed per size (not only as the full sweep) so the parallel
/// experiment engine can fan one job out per size and still produce rows
/// bitwise-identical to [`Fig8a`].
#[must_use]
pub fn fig8a_row_ctx(tech: &TechnologyParams, n: u32, ctx: &EvalCtx) -> AppTimeRow {
    let code = Code::BaconShor913;
    let epr = crate::epr::EprModel::new(tech).with_purification_rounds(2);
    // EPR channel service per logical operand qubit.
    let per_qubit_service = epr.logical_service_time(code);
    let blocks = f64::from(primary_blocks(n));
    let me = ModExp::new(n);
    let draper = ctx.draper(n);
    let makespan = cqla_compile::ideal_makespan(draper.kernel, primary_blocks(n));
    let adder_time = ctx.gate_step_time(code, Level::TWO, tech) * makespan as f64;
    let computation = adder_time * me.additions() as f64 / blocks;
    let toffolis = draper.toffolis;
    // Each block feeds its own Toffolis through its own channel group
    // (3 operands over `channels_required` channels), so the per-
    // addition communication is the per-block Toffoli share times the
    // per-operand channel service.
    let per_add_comm = per_qubit_service
        * (toffolis as f64 / blocks)
        * (crate::bandwidth::OPERANDS_PER_TOFFOLI / f64::from(code.teleport_channels_required()));
    let communication = per_add_comm * me.additions() as f64 / blocks;
    AppTimeRow {
        size: n,
        computation,
        communication,
    }
}

/// The adder sizes Figure 8a sweeps.
pub const FIG8A_SIZES: [u32; 6] = [32, 64, 128, 256, 512, 1024];

/// Figure 8a as an experiment: modular exponentiation computation vs
/// communication time over adder sizes 32…1024 (Bacon-Shor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig8a {
    /// Technology operating point.
    pub tech: TechPoint,
}

impl Default for Fig8a {
    fn default() -> Self {
        Self {
            tech: TechPoint::Projected,
        }
    }
}

impl Fig8a {
    /// One sample per adder size, in sweep order, reusing `ctx`.
    #[must_use]
    pub fn rows_ctx(&self, ctx: &EvalCtx) -> Vec<AppTimeRow> {
        let tech = self.tech.params();
        FIG8A_SIZES.map(|n| fig8a_row_ctx(&tech, n, ctx)).into()
    }

    /// Renders the paper-style series (hours) for `rows`.
    #[must_use]
    pub fn render(rows: &[AppTimeRow]) -> String {
        render(rows, "adder size", true)
    }
}

impl Experiment for Fig8a {
    fn id(&self) -> &'static str {
        "fig8a"
    }

    fn title(&self) -> &'static str {
        "Figure 8a: modular exponentiation comm vs comp"
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

/// One Figure 8b sample: QFT computation and communication time at one
/// problem size (Bacon-Shor). Per-size twin of [`Fig8b`], for the
/// parallel engine.
#[must_use]
pub fn fig8b_row(tech: &TechnologyParams, n: u32) -> AppTimeRow {
    let code = Code::BaconShor913;
    let gate = EccMetrics::compute(code, Level::TWO, tech).transversal_gate_time()
        + tech.duration(PhysicalOp::DoubleGate);
    let transport = transport_time(code, tech);
    let qft = Qft::new(n);
    let computation = gate * qft.total_gates() as f64;
    // Every pair interaction between qubits in different compute
    // blocks moves one operand; blocks hold 9 qubits, so all but a
    // vanishing fraction of pairs cross blocks.
    let blocks = (f64::from(n) / 9.0).ceil();
    let within = blocks * (9.0 * 8.0 / 2.0);
    let crossing = qft.pair_interactions() as f64 - within;
    let communication = transport * crossing.max(0.0);
    AppTimeRow {
        size: n,
        computation,
        communication,
    }
}

/// The problem sizes Figure 8b sweeps.
pub const FIG8B_SIZES: [u32; 10] = [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000];

/// Figure 8b as an experiment: QFT computation vs communication time over
/// problem sizes 100…1000 (Bacon-Shor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig8b {
    /// Technology operating point.
    pub tech: TechPoint,
}

impl Default for Fig8b {
    fn default() -> Self {
        Self {
            tech: TechPoint::Projected,
        }
    }
}

impl Fig8b {
    /// One sample per problem size, in sweep order.
    #[must_use]
    pub fn rows(&self) -> Vec<AppTimeRow> {
        let tech = self.tech.params();
        FIG8B_SIZES.iter().map(|&n| fig8b_row(&tech, n)).collect()
    }

    /// Renders the paper-style series (seconds) for `rows`.
    #[must_use]
    pub fn render(rows: &[AppTimeRow]) -> String {
        render(rows, "problem size", false)
    }
}

impl Experiment for Fig8b {
    fn id(&self) -> &'static str {
        "fig8b"
    }

    fn title(&self) -> &'static str {
        "Figure 8b: QFT comm vs comp"
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
        let rows = self.rows();
        ExperimentOutput::new(Self::render(&rows), rows.to_json())
    }
}

fn render(rows: &[AppTimeRow], label: &str, hours: bool) -> String {
    let unit = if hours { "hours" } else { "seconds" };
    let mut t = TextTable::new([
        label,
        &format!("computation ({unit})"),
        &format!("communication ({unit})"),
        "comm/comp",
    ]);
    for r in rows {
        let (c, m) = if hours {
            (r.computation.as_hours(), r.communication.as_hours())
        } else {
            (r.computation.as_secs(), r.communication.as_secs())
        };
        t.push_row([
            r.size.to_string(),
            fmt3(c),
            fmt3(m),
            fmt3(r.comm_fraction()),
        ]);
    }
    t.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8a_communication_tracks_but_never_exceeds_computation() {
        let rows = Fig8a::default().rows_ctx(&EvalCtx::new());
        assert_eq!(rows.len(), 6);
        for r in &rows {
            let frac = r.comm_fraction();
            assert!(
                (0.1..1.0).contains(&frac),
                "size {}: comm fraction {frac}",
                r.size
            );
        }
        assert!(Fig8a::render(&rows).contains("hours"));
    }

    #[test]
    fn fig8a_times_grow_with_size_and_land_in_paper_scale() {
        let rows = Fig8a::default().rows_ctx(&EvalCtx::new());
        for pair in rows.windows(2) {
            assert!(pair[1].computation > pair[0].computation);
        }
        // Paper Fig 8a: hundreds of hours at 1024 bits.
        let last = rows.last().unwrap();
        let hours = last.computation.as_hours();
        assert!(
            (50.0..5_000.0).contains(&hours),
            "1024-bit modexp: {hours} h"
        );
    }

    #[test]
    fn fig8b_scale_matches_paper() {
        let rows = Fig8b::default().rows();
        // Paper Fig 8b: ~1e5 seconds at size 1000.
        let last = rows.last().unwrap();
        assert!(
            (2e4..5e5).contains(&last.computation.as_secs()),
            "computation {}",
            last.computation
        );
        for r in &rows {
            let frac = r.comm_fraction();
            assert!((0.3..1.0).contains(&frac), "size {}: {frac}", r.size);
        }
        assert!(Fig8b::render(&rows).contains("seconds"));
    }

    #[test]
    fn fig8b_grows_quadratically() {
        let rows = Fig8b::default().rows();
        let c100 = rows[0].computation.as_secs();
        let c1000 = rows[9].computation.as_secs();
        let ratio = c1000 / c100;
        assert!((50.0..200.0).contains(&ratio), "ratio {ratio}");
    }
}

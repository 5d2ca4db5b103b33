//! The QLA baseline (paper §2; Metodi et al., MICRO-38) — the
//! sea-of-qubits architecture every CQLA result is normalized against.

use cqla_compile::ScheduleCosts;
use cqla_ecc::{Code, EccMetrics, Level};
use cqla_iontrap::TechnologyParams;
use cqla_units::{Seconds, SquareMillimeters};

use crate::area::AreaModel;

/// The homogeneous QLA baseline: Steane-coded, level-2 everywhere, every
/// logical qubit escorted by two logical ancilla, computation allowed at
/// every site (maximum parallelism).
///
/// # Examples
///
/// ```
/// use cqla_core::{EvalCtx, QlaBaseline};
/// use cqla_iontrap::TechnologyParams;
///
/// let qla = QlaBaseline::new(&TechnologyParams::projected());
/// let t = qla.adder_time(&EvalCtx::new().adder_costs(64, 9));
/// // A 64-bit carry-lookahead addition takes minutes at level 2 (the
/// // paper's ~0.3 s per EC, ~22 Toffoli layers).
/// assert!(t.as_secs() > 60.0 && t.as_secs() < 600.0);
/// ```
#[derive(Debug, Clone)]
pub struct QlaBaseline {
    tech: TechnologyParams,
    metrics: EccMetrics,
}

impl QlaBaseline {
    /// The QLA's fixed code choice.
    pub const CODE: Code = Code::Steane713;

    /// Builds the baseline at a technology point.
    #[must_use]
    pub fn new(tech: &TechnologyParams) -> Self {
        Self {
            tech: tech.clone(),
            metrics: EccMetrics::compute(Self::CODE, Level::TWO, tech),
        }
    }

    /// Wall-clock duration of one logical two-qubit gate step (gate + EC).
    #[must_use]
    pub fn gate_step_time(&self) -> Seconds {
        self.tech.duration(cqla_iontrap::PhysicalOp::DoubleGate) + self.metrics.ec_time()
    }

    /// Wall-clock time of one Draper addition under maximum parallelism:
    /// the gate step times the adder DAG's critical path (Toffoli = 15
    /// steps), taken from its [`ScheduleCosts`] at any block count.
    #[must_use]
    pub fn adder_time(&self, costs: &ScheduleCosts) -> Seconds {
        self.gate_step_time() * costs.critical_path as f64
    }

    /// Processor area for an application of `data_qubits` logical qubits.
    #[must_use]
    pub fn area(&self, data_qubits: u64) -> SquareMillimeters {
        AreaModel::new(&self.tech).qla_area(Self::CODE, data_qubits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qla() -> QlaBaseline {
        QlaBaseline::new(&TechnologyParams::projected())
    }

    #[test]
    fn gate_step_is_ec_dominated() {
        let q = qla();
        let step = q.gate_step_time();
        let ec = EccMetrics::compute(Code::Steane713, Level::TWO, &TechnologyParams::projected())
            .ec_time();
        assert!(step > ec);
        assert!(step < ec * 1.01);
    }

    #[test]
    fn makespan_grows_logarithmically() {
        let ctx = crate::EvalCtx::new();
        let m64 = ctx.adder_costs(64, 16).critical_path;
        let m1024 = ctx.adder_costs(1024, 121).critical_path;
        // 4 extra Toffoli rounds (60 units) per doubling: 1024 vs 64 is 4
        // doublings ≈ +240 units.
        assert!(m1024 > m64);
        assert!(m1024 < m64 + 400, "m64={m64}, m1024={m1024}");
    }

    #[test]
    fn factoring_scale_area_is_square_meters() {
        // The paper's headline: ~1 m² (1e6 mm²) of trap area to factor
        // 1024-bit numbers on the QLA.
        let area = qla().area(6 * 1024);
        assert!(area.value() > 1e5, "area {area}");
        assert!(area.as_square_meters() < 1.0, "area {area}");
    }
}

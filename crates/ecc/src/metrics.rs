//! Error-correction cost metrics (reproduces paper Table 2).

use cqla_iontrap::{TechnologyParams, TileLayout};
use cqla_units::{Seconds, SquareMillimeters};

use crate::code::{Code, Level};

/// Routing overhead applied when packing level-1 sub-tiles into a level-2
/// tile (inter-subtile teleportation lanes).
pub const SUBTILE_ROUTING_OVERHEAD: f64 = 1.2;

/// The architecture-facing cost metrics of one `(code, level)` design
/// point — one block of the paper's Table 2.
///
/// # Examples
///
/// ```
/// use cqla_ecc::{Code, EccMetrics, Level};
/// use cqla_iontrap::TechnologyParams;
///
/// let tech = TechnologyParams::projected();
/// let m = EccMetrics::compute(Code::Steane713, Level::ONE, &tech);
/// // Paper: 3.1e-3 s level-1 EC for the Steane code.
/// assert!((m.ec_time().as_millis() - 3.08).abs() < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EccMetrics {
    code: Code,
    level: Level,
    ec_time: Seconds,
    transversal_gate_time: Seconds,
    tile_area: SquareMillimeters,
    data_qubits: u64,
    ancilla_qubits: u64,
    tile_regions: u64,
}

impl EccMetrics {
    /// Computes the metrics for a design point at a technology operating
    /// point.
    ///
    /// The timing model (DESIGN.md §4.2): a full error correction extracts
    /// two syndromes (bit-flip and phase-flip). At level 1 each syndrome
    /// costs a calibrated number of clock cycles; at level L ≥ 2 each
    /// syndrome is a sequence of logical gate steps on level-(L−1) blocks,
    /// each step costing one level-(L−1) transversal gate (itself
    /// error-corrected before and after).
    #[must_use]
    pub fn compute(code: Code, level: Level, tech: &TechnologyParams) -> Self {
        let ec_time = ec_time(code, level, tech);
        let transversal_gate_time = ec_time * 2.0;
        let tile = tile_layout(code, level);
        Self {
            code,
            level,
            ec_time,
            transversal_gate_time,
            tile_area: tile.area(tech),
            data_qubits: code.data_qubits(level),
            ancilla_qubits: code.ancilla_qubits(level),
            tile_regions: tile.regions(),
        }
    }

    /// The code.
    #[must_use]
    pub fn code(&self) -> Code {
        self.code
    }

    /// The concatenation level.
    #[must_use]
    pub fn level(&self) -> Level {
        self.level
    }

    /// Duration of one full error-correction procedure (both syndromes).
    #[must_use]
    pub fn ec_time(&self) -> Seconds {
        self.ec_time
    }

    /// Duration of one fault-tolerant transversal logical gate, including
    /// the error corrections that precede and follow it.
    #[must_use]
    pub fn transversal_gate_time(&self) -> Seconds {
        self.transversal_gate_time
    }

    /// Footprint of one logical-qubit tile (data + EC ancilla + room to
    /// maneuver).
    #[must_use]
    pub fn tile_area(&self) -> SquareMillimeters {
        self.tile_area
    }

    /// Trapping regions in the tile.
    #[must_use]
    pub fn tile_regions(&self) -> u64 {
        self.tile_regions
    }

    /// Physical data qubits in the tile.
    #[must_use]
    pub fn data_qubits(&self) -> u64 {
        self.data_qubits
    }

    /// Physical ancilla qubits in the tile.
    #[must_use]
    pub fn ancilla_qubits(&self) -> u64 {
        self.ancilla_qubits
    }

    /// Duration of one fault-tolerant Toffoli: the paper's rule that a
    /// Toffoli costs fifteen two-qubit gates, each followed by error
    /// correction (§5.1).
    #[must_use]
    pub fn toffoli_time(&self, tech: &TechnologyParams) -> Seconds {
        let per_gate = tech.duration(cqla_iontrap::PhysicalOp::DoubleGate) + self.ec_time;
        per_gate * 15.0
    }

    /// Time to teleport this logical qubit one interconnect segment: the
    /// per-qubit EPR consumption scales with the number of physical data
    /// qubits (only data ions are teleported, paper §5.1).
    #[must_use]
    pub fn teleport_time(&self, tech: &TechnologyParams) -> Seconds {
        // Per physical qubit: Bell measurement (2 gates + 2 measurements) —
        // pairs are pre-distributed by the network layer, so distribution
        // latency is not charged here.
        let per_qubit = tech.duration(cqla_iontrap::PhysicalOp::DoubleGate)
            + tech.duration(cqla_iontrap::PhysicalOp::SingleGate)
            + tech.duration(cqla_iontrap::PhysicalOp::Measure) * 2.0;
        per_qubit * self.data_qubits as f64
    }
}

impl core::fmt::Display for EccMetrics {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} {}: EC {}, gate {}, tile {}, {}+{} qubits",
            self.code.label(),
            self.level,
            self.ec_time,
            self.transversal_gate_time,
            self.tile_area,
            self.data_qubits,
            self.ancilla_qubits
        )
    }
}

/// Full error-correction time (two syndrome extractions) at a level.
fn ec_time(code: Code, level: Level, tech: &TechnologyParams) -> Seconds {
    let l1 = tech.cycle_time() * (2 * code.l1_syndrome_cycles()) as f64;
    let mut t = l1;
    for _ in 1..level.get() {
        // Each higher-level syndrome is `l2_steps_per_syndrome` logical
        // steps, each a transversal gate (2× lower-level EC); two syndromes
        // per full EC.
        let transversal_below = t * 2.0;
        t = transversal_below * (2 * code.l2_steps_per_syndrome()) as f64;
    }
    t
}

/// Tile layout at a level: the level-1 tile is a fixed region grid; higher
/// levels pack sub-tiles with routing overhead.
fn tile_layout(code: Code, level: Level) -> TileLayout {
    let mut tile = TileLayout::from_regions(code.l1_tile_regions());
    for _ in 1..level.get() {
        tile = tile
            .repeated(code.l2_subtiles())
            .with_overhead(SUBTILE_ROUTING_OVERHEAD);
    }
    tile
}

/// All four Table 2 design points in presentation order.
#[must_use]
pub fn table2_metrics(tech: &TechnologyParams) -> Vec<EccMetrics> {
    let mut rows = Vec::new();
    for code in Code::ALL {
        for level in [Level::ONE, Level::TWO] {
            rows.push(EccMetrics::compute(code, level, tech));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> TechnologyParams {
        TechnologyParams::projected()
    }

    fn metrics(code: Code, level: Level) -> EccMetrics {
        EccMetrics::compute(code, level, &tech())
    }

    #[test]
    fn ec_times_match_paper_table2() {
        // Paper values: 3.1e-3, 0.3, 1.2e-3, 0.1 (one significant digit).
        let cases = [
            (Code::Steane713, Level::ONE, 3.1e-3, 0.15),
            (Code::Steane713, Level::TWO, 0.3, 0.05),
            (Code::BaconShor913, Level::ONE, 1.2e-3, 0.05),
            (Code::BaconShor913, Level::TWO, 0.1, 0.05),
        ];
        for (code, level, paper, tol) in cases {
            let got = metrics(code, level).ec_time().as_secs();
            assert!(
                (got - paper).abs() / paper < tol,
                "{code} {level}: got {got}, paper {paper}"
            );
        }
    }

    #[test]
    fn tile_areas_match_paper_table2() {
        // Paper values: 0.2, 3.4, 0.1, 2.4 mm² (one significant digit).
        let cases = [
            (Code::Steane713, Level::ONE, 0.2, 0.05),
            (Code::Steane713, Level::TWO, 3.4, 0.05),
            (Code::BaconShor913, Level::ONE, 0.1, 0.10),
            (Code::BaconShor913, Level::TWO, 2.4, 0.10),
        ];
        for (code, level, paper, tol) in cases {
            let got = metrics(code, level).tile_area().value();
            assert!(
                (got - paper).abs() / paper < tol,
                "{code} {level}: got {got}, paper {paper}"
            );
        }
    }

    #[test]
    fn transversal_gate_is_twice_ec() {
        for code in Code::ALL {
            for level in [Level::ONE, Level::TWO] {
                let m = metrics(code, level);
                let ratio = m.transversal_gate_time() / m.ec_time();
                assert!((ratio - 2.0).abs() < 1e-9, "{code} {level}");
            }
        }
    }

    #[test]
    fn level2_is_roughly_two_orders_slower() {
        // Paper §4.1: level-2 EC "is two orders of magnitude more than the
        // time to error correct at level 1".
        for code in Code::ALL {
            let l1 = metrics(code, Level::ONE).ec_time();
            let l2 = metrics(code, Level::TWO).ec_time();
            let ratio = l2 / l1;
            assert!((80.0..=120.0).contains(&ratio), "{code}: ratio {ratio}");
        }
    }

    #[test]
    fn bacon_shor_is_faster_and_smaller() {
        for level in [Level::ONE, Level::TWO] {
            let st = metrics(Code::Steane713, level);
            let bs = metrics(Code::BaconShor913, level);
            assert!(bs.ec_time() < st.ec_time(), "{level}");
            assert!(bs.tile_area() < st.tile_area(), "{level}");
        }
    }

    #[test]
    fn bacon_shor_gate_speed_advantage_is_about_three() {
        // Paper Table 4: Bacon-Shor speedups saturate at ~3.0× the Steane
        // ones, i.e. the per-gate advantage is ~3.
        let st = metrics(Code::Steane713, Level::TWO);
        let bs = metrics(Code::BaconShor913, Level::TWO);
        let advantage = st.transversal_gate_time() / bs.transversal_gate_time();
        assert!((2.5..=3.5).contains(&advantage), "advantage {advantage}");
    }

    #[test]
    fn toffoli_is_fifteen_gate_ec_sequences() {
        let m = metrics(Code::Steane713, Level::TWO);
        let per = tech().duration(cqla_iontrap::PhysicalOp::DoubleGate) + m.ec_time();
        assert!((m.toffoli_time(&tech()) / per - 15.0).abs() < 1e-9);
        // Paper §6: fault-tolerant Toffoli ≈ 20× a two-qubit gate + EC...
        // specifically 15 serialized gate+EC rounds.
        assert!(m.toffoli_time(&tech()) > m.transversal_gate_time() * 7.0);
    }

    #[test]
    fn teleport_scales_with_data_qubits() {
        let st = metrics(Code::Steane713, Level::TWO);
        let bs = metrics(Code::BaconShor913, Level::TWO);
        // Bacon-Shor has more data ions, so teleporting a logical qubit
        // takes longer (paper §5.1).
        assert!(bs.teleport_time(&tech()) > st.teleport_time(&tech()));
    }

    #[test]
    fn table2_has_four_rows_in_order() {
        let rows = table2_metrics(&tech());
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].code(), Code::Steane713);
        assert_eq!(rows[0].level(), Level::ONE);
        assert_eq!(rows[3].code(), Code::BaconShor913);
        assert_eq!(rows[3].level(), Level::TWO);
    }

    #[test]
    fn display_mentions_code_and_level() {
        let text = metrics(Code::Steane713, Level::TWO).to_string();
        assert!(text.contains("[[7,1,3]]"));
        assert!(text.contains("L2"));
    }
}

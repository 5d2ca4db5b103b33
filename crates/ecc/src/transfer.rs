//! Code-transfer (code-teleportation) network model — reproduces paper
//! Table 3.
//!
//! The memory hierarchy changes a logical qubit's encoding (level and/or
//! code) without decoding, by teleporting the data through a correlated
//! ancilla pair prepared half in the source code, half in the destination
//! code (paper §4.2, Fig 5). The latency model calibrated against Table 3:
//!
//! ```text
//! T(C1 → C2) = 4.3 · T_EC(C1) + 2.0 · T_EC(C2)
//! ```
//!
//! The source-side factor covers cat-state preparation, verification, the
//! transversal CNOT and measurement (all in the source encoding); the
//! destination-side factor covers the conditional correction and the
//! post-transfer error correction. Eleven of the twelve off-diagonal Table 3
//! entries land within one rounding digit of this model. The exception is
//! 9-L1 → 9-L2: the model gives 0.207 s, the paper 0.1 s. No model of
//! this form fits it, because the paper also prints 0.2 s for 7-L1 → 9-L2.
//! The two entries share a destination, and their sources' EC times
//! differ by only 1.9 ms (3.08 ms vs 1.20 ms, Table 2), so a 0.1 s gap
//! would need a source factor near 53 and would break every other entry.

use cqla_iontrap::TechnologyParams;
use cqla_units::Seconds;

use crate::code::CodeLevel;
use crate::metrics::EccMetrics;

/// Source-side cost of a code transfer, in units of source-code EC time
/// (ancilla preparation/verification dominated).
pub const SOURCE_EC_FACTOR: f64 = 4.3;

/// Destination-side cost of a code transfer, in units of destination-code
/// EC time (correction + post-transfer EC).
pub const DEST_EC_FACTOR: f64 = 2.0;

/// The code-transfer network: computes transfer latencies between any two
/// `(code, level)` encodings at a fixed technology point.
///
/// # Examples
///
/// ```
/// use cqla_ecc::{Code, CodeLevel, Level, TransferNetwork};
/// use cqla_iontrap::TechnologyParams;
///
/// let net = TransferNetwork::new(&TechnologyParams::projected());
/// let l2 = CodeLevel::new(Code::Steane713, Level::TWO);
/// let l1 = CodeLevel::new(Code::Steane713, Level::ONE);
/// // Dropping to level 1 is expensive (~1.3 s, paper Table 3)…
/// assert!(net.latency(l2, l1).as_secs() > 1.0);
/// // …while the reverse is cheaper (~0.6 s).
/// assert!(net.latency(l1, l2).as_secs() < 0.7);
/// ```
#[derive(Debug, Clone)]
pub struct TransferNetwork {
    tech: TechnologyParams,
}

impl TransferNetwork {
    /// Builds the network model for a technology point.
    #[must_use]
    pub fn new(tech: &TechnologyParams) -> Self {
        Self { tech: tech.clone() }
    }

    /// Latency of transferring one logical qubit from `src` to `dst`
    /// encoding. Zero when the encodings are identical.
    #[must_use]
    pub fn latency(&self, src: CodeLevel, dst: CodeLevel) -> Seconds {
        if src == dst {
            return Seconds::ZERO;
        }
        let src_ec = EccMetrics::compute(src.code(), src.level(), &self.tech).ec_time();
        let dst_ec = EccMetrics::compute(dst.code(), dst.level(), &self.tech).ec_time();
        src_ec * SOURCE_EC_FACTOR + dst_ec * DEST_EC_FACTOR
    }

    /// The full 4×4 latency matrix over the paper's Table 3 design points,
    /// in its row/column order (7-L1, 7-L2, 9-L1, 9-L2).
    #[must_use]
    pub fn table3_matrix(&self) -> [[Seconds; 4]; 4] {
        let pts = CodeLevel::TABLE3_ORDER;
        let mut m = [[Seconds::ZERO; 4]; 4];
        for (i, &src) in pts.iter().enumerate() {
            for (j, &dst) in pts.iter().enumerate() {
                m[i][j] = self.latency(src, dst);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::{Code, Level};

    fn net() -> TransferNetwork {
        TransferNetwork::new(&TechnologyParams::projected())
    }

    fn cl(code: Code, level: Level) -> CodeLevel {
        CodeLevel::new(code, level)
    }

    #[test]
    fn diagonal_is_zero() {
        let m = net().table3_matrix();
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], Seconds::ZERO);
        }
    }

    #[test]
    fn matrix_matches_paper_table3_within_rounding() {
        // Paper Table 3 (seconds). One entry (9L1->9L2 = 0.1) deviates from
        // the two-parameter model, which cannot also meet the paper's
        // 7L1->9L2 = 0.2 (see the module docs); we allow it a wider band.
        let paper: [[f64; 4]; 4] = [
            [0.0, 0.6, 0.02, 0.2],
            [1.3, 0.0, 1.3, 1.5],
            [0.01, 0.5, 0.0, 0.1],
            [0.4, 0.9, 0.4, 0.0],
        ];
        let m = net().table3_matrix();
        for i in 0..4 {
            for j in 0..4 {
                if i == j {
                    continue;
                }
                let got = m[i][j].as_secs();
                let want = paper[i][j];
                let rel = (got - want).abs() / want;
                let tol = if (i, j) == (2, 3) { 1.2 } else { 0.35 };
                assert!(
                    rel <= tol,
                    "entry ({i},{j}): got {got:.4}, paper {want}, rel {rel:.2}"
                );
            }
        }
    }

    #[test]
    fn downward_transfers_cost_more_than_upward() {
        // Leaving level 2 means 4.3 slow source-side ECs; entering level 2
        // only 2. So L2->L1 > L1->L2 for the same code.
        for code in Code::ALL {
            let down = net().latency(cl(code, Level::TWO), cl(code, Level::ONE));
            let up = net().latency(cl(code, Level::ONE), cl(code, Level::TWO));
            assert!(down > up, "{code}");
        }
    }

    #[test]
    fn level1_to_level1_cross_code_is_cheap() {
        let t = net().latency(
            cl(Code::Steane713, Level::ONE),
            cl(Code::BaconShor913, Level::ONE),
        );
        assert!(t.as_secs() < 0.05, "got {t}");
    }

    #[test]
    fn latency_is_sum_of_side_costs() {
        let src = cl(Code::Steane713, Level::TWO);
        let dst = cl(Code::BaconShor913, Level::ONE);
        let tech = TechnologyParams::projected();
        let expected = EccMetrics::compute(src.code(), src.level(), &tech).ec_time()
            * SOURCE_EC_FACTOR
            + EccMetrics::compute(dst.code(), dst.level(), &tech).ec_time() * DEST_EC_FACTOR;
        assert_eq!(net().latency(src, dst), expected);
    }
}

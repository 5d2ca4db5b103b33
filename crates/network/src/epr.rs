//! EPR-pair distribution and purification — the fuel of the teleportation
//! interconnect (paper §2, citing Dür et al. quantum repeaters).
//!
//! Every logical teleport consumes one purified EPR pair per physical data
//! ion. Pairs are generated locally, distributed through teleportation
//! islands, and purified: each purification round consumes two noisy pairs
//! to produce one better pair, roughly squaring the infidelity. The channel
//! service rate — how fast one teleportation channel can restock and hand
//! over purified pairs for a whole logical qubit — is what limits perimeter
//! bandwidth in Fig 6b.

use cqla_ecc::{Code, EccMetrics, Level};
use cqla_iontrap::{PhysicalOp, TechnologyParams};
use cqla_units::Seconds;

/// Purification-tree depth applied to every delivered pair (3 levels ≈
/// infidelity to the eighth power before the gate-error floor — ample
/// headroom for level-2 teleportation under projected parameters).
pub const DEFAULT_PURIFICATION_ROUNDS: u32 = 3;

/// The EPR distribution/purification cost model.
///
/// # Examples
///
/// ```
/// use cqla_network::EprModel;
/// use cqla_ecc::Code;
/// use cqla_iontrap::TechnologyParams;
///
/// let model = EprModel::new(&TechnologyParams::projected());
/// let st = model.logical_service_time(Code::Steane713);
/// let bs = model.logical_service_time(Code::BaconShor913);
/// // Both codes take on the order of a second per logical qubit…
/// assert!(st.as_secs() > 0.5 && st.as_secs() < 5.0);
/// // …with Bacon-Shor cheaper per pair (faster level-1 EC) despite more
/// // data ions.
/// assert!(bs < st);
/// ```
#[derive(Debug, Clone)]
pub struct EprModel {
    tech: TechnologyParams,
    purification_rounds: u32,
}

impl EprModel {
    /// Builds the model at a technology point with default purification.
    #[must_use]
    pub fn new(tech: &TechnologyParams) -> Self {
        Self {
            tech: tech.clone(),
            purification_rounds: DEFAULT_PURIFICATION_ROUNDS,
        }
    }

    /// Overrides the number of purification rounds.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero (unpurified channels are not usable at
    /// level-2 fidelities).
    #[must_use]
    pub fn with_purification_rounds(mut self, rounds: u32) -> Self {
        assert!(rounds > 0, "at least one purification round is required");
        self.purification_rounds = rounds;
        self
    }

    /// Time to generate one raw Bell pair locally: H + CNOT + a shuttle
    /// into the channel.
    #[must_use]
    pub fn pair_generation_time(&self) -> Seconds {
        self.tech.duration(PhysicalOp::SingleGate)
            + self.tech.duration(PhysicalOp::DoubleGate)
            + self.tech.duration(PhysicalOp::Move) * 2.0
    }

    /// Time one purification round takes at the channel endpoints: two
    /// level-1 error corrections (one per endpoint block) bracketing the
    /// round's gates and measurement.
    #[must_use]
    pub fn purification_round_time(&self, code: Code) -> Seconds {
        let ec_l1 = EccMetrics::compute(code, Level::ONE, &self.tech).ec_time();
        ec_l1 * 2.0
            + self.tech.duration(PhysicalOp::DoubleGate) * 2.0
            + self.tech.duration(PhysicalOp::Measure)
    }

    /// Raw pairs consumed per delivered purified pair: `2^rounds` (the
    /// purification tree halves the pair count at each level).
    #[must_use]
    pub fn raw_pairs_per_delivered(&self) -> u64 {
        1u64 << self.purification_rounds
    }

    /// Purification operations per delivered pair: `2^rounds − 1` (one per
    /// internal node of the purification tree, serialized through the
    /// channel endpoint).
    #[must_use]
    pub fn purification_ops_per_delivered(&self) -> u64 {
        (1u64 << self.purification_rounds) - 1
    }

    /// Channel service time for one *logical* qubit: restocking and
    /// purifying one pair per physical data ion of the level-2 block.
    ///
    /// This is the reciprocal throughput of one teleportation channel and
    /// the quantity the Fig 6b bandwidth analysis divides by.
    #[must_use]
    pub fn logical_service_time(&self, code: Code) -> Seconds {
        let data = code.data_qubits(Level::TWO);
        let per_delivered =
            self.purification_round_time(code) * self.purification_ops_per_delivered() as f64;
        let raw_pairs = data * self.raw_pairs_per_delivered();
        per_delivered * data as f64 + self.pair_generation_time() * raw_pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> EprModel {
        EprModel::new(&TechnologyParams::projected())
    }

    #[test]
    fn service_time_scales_with_data_qubits_per_round_cost() {
        let m = model();
        let st = m.logical_service_time(Code::Steane713);
        let bs = m.logical_service_time(Code::BaconShor913);
        // Steane: 49 ions at slow L1 EC; Bacon-Shor: 81 ions at fast L1 EC.
        // The per-pair EC dominates, so Steane's channel is slower.
        assert!(st > bs);
        assert!(st.as_secs() < 10.0, "service time {st} implausibly large");
    }

    #[test]
    fn round_time_dominated_by_level1_ec() {
        let m = model();
        for code in Code::ALL {
            let round = m.purification_round_time(code);
            let ec =
                EccMetrics::compute(code, Level::ONE, &TechnologyParams::projected()).ec_time();
            assert!(round >= ec * 2.0, "{code}");
            assert!(round < ec * 2.5, "{code}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one purification round")]
    fn zero_rounds_rejected() {
        let _ = model().with_purification_rounds(0);
    }
}

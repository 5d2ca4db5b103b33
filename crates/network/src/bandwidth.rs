//! Superblock perimeter bandwidth (paper §5.1 "Superblocks", Fig 6b).
//!
//! Compute blocks gang into *superblocks* to exploit locality. Demand for
//! operand traffic grows with the block count `B` (every block wants
//! operands), but supply grows only with the perimeter `∝ √B` — so there
//! is a crossover beyond which growing a superblock starves it. The paper
//! finds the crossover at ~36 blocks for both codes.
//!
//! Units: logical-qubit crossings per fault-tolerant Toffoli time. Demand
//! per block is 3 operand qubits per Toffoli (paper §6.1); supply per
//! perimeter channel is one logical qubit per channel service time (EPR
//! restock + purification, from [`EprModel`]).

use cqla_ecc::{Code, EccMetrics, Level};
use cqla_iontrap::TechnologyParams;
use cqla_units::Seconds;

use crate::epr::EprModel;

/// Operand qubits moved to/from memory per Toffoli per block (paper §6.1:
/// "the transfer of three qubits to and from memory").
pub const OPERANDS_PER_TOFFOLI: f64 = 3.0;

/// Data qubits per compute block (each block holds nine logical data
/// qubits, paper §3.2) — the worst-case traffic per block per gate window.
pub const WORST_CASE_QUBITS_PER_BLOCK: f64 = 9.0;

/// The perimeter-bandwidth model for compute superblocks of one code.
///
/// # Examples
///
/// ```
/// use cqla_network::SuperblockBandwidth;
/// use cqla_ecc::Code;
/// use cqla_iontrap::TechnologyParams;
///
/// let model = SuperblockBandwidth::new(Code::Steane713, &TechnologyParams::projected());
/// let b = model.crossover_blocks();
/// // Paper: "the cross-over point is 36 compute blocks per superblock".
/// assert!((16..=64).contains(&b), "crossover {b}");
/// ```
#[derive(Debug, Clone)]
pub struct SuperblockBandwidth {
    code: Code,
    toffoli_time: Seconds,
    channel_service: Seconds,
    channels_per_edge: f64,
}

impl SuperblockBandwidth {
    /// Builds the model for `code` at technology point `tech`.
    ///
    /// Channels per perimeter block edge follow the paper's §5.1/§6.1
    /// bandwidth discussion: 2 for the Steane code, 3 for Bacon-Shor
    /// (whose larger data blocks and shorter EC windows demand more
    /// concurrent streams).
    #[must_use]
    pub fn new(code: Code, tech: &TechnologyParams) -> Self {
        let metrics = EccMetrics::compute(code, Level::TWO, tech);
        let epr = EprModel::new(tech);
        Self {
            code,
            toffoli_time: metrics.toffoli_time(tech),
            channel_service: epr.logical_service_time(code),
            channels_per_edge: f64::from(code.teleport_channels_required().max(2)),
        }
    }

    /// The code this model is for.
    #[must_use]
    pub fn code(&self) -> Code {
        self.code
    }

    /// Demand: operand qubits per Toffoli window for a `blocks`-block
    /// superblock running the Draper adder flat out.
    #[must_use]
    pub fn required_draper(&self, blocks: u32) -> f64 {
        OPERANDS_PER_TOFFOLI * f64::from(blocks)
    }

    /// Worst-case demand: the whole block contents (9 data qubits per
    /// block) per Toffoli window — the paper's steep third curve.
    #[must_use]
    pub fn required_worst_case(&self, blocks: u32) -> f64 {
        WORST_CASE_QUBITS_PER_BLOCK * f64::from(blocks)
    }

    /// Supply: logical qubits the perimeter can pass per Toffoli window —
    /// `4√B` block edges × channels per edge × (Toffoli time / channel
    /// service time).
    #[must_use]
    pub fn available(&self, blocks: u32) -> f64 {
        let perimeter_edges = 4.0 * f64::from(blocks).sqrt();
        perimeter_edges * self.channels_per_edge * (self.toffoli_time / self.channel_service)
    }

    /// The largest superblock whose perimeter still satisfies the Draper
    /// demand — the Fig 6b crossover.
    #[must_use]
    pub fn crossover_blocks(&self) -> u32 {
        // available = required: 4√B·c·ρ = 3B  ⇒  √B = 4cρ/3.
        let rho = self.toffoli_time / self.channel_service;
        let sqrt_b = 4.0 * self.channels_per_edge * rho / OPERANDS_PER_TOFFOLI;
        (sqrt_b * sqrt_b).round().max(1.0) as u32
    }

    /// One Fig 6b sample: `(required_draper, required_worst, available)`
    /// at a block count.
    #[must_use]
    pub fn sample(&self, blocks: u32) -> BandwidthSample {
        BandwidthSample {
            blocks,
            required_draper: self.required_draper(blocks),
            required_worst: self.required_worst_case(blocks),
            available: self.available(blocks),
        }
    }
}

/// One point of the Fig 6b curves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthSample {
    /// Superblock size in compute blocks.
    pub blocks: u32,
    /// Draper-adder operand demand (qubits per Toffoli window).
    pub required_draper: f64,
    /// Worst-case demand.
    pub required_worst: f64,
    /// Perimeter supply.
    pub available: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(code: Code) -> SuperblockBandwidth {
        SuperblockBandwidth::new(code, &TechnologyParams::projected())
    }

    #[test]
    fn demand_linear_supply_sqrt() {
        let m = model(Code::Steane713);
        assert_eq!(m.required_draper(40), 2.0 * m.required_draper(20));
        let ratio = m.available(64) / m.available(16);
        assert!((ratio - 2.0).abs() < 1e-9, "sqrt scaling broken: {ratio}");
    }

    #[test]
    fn worst_case_is_three_times_draper() {
        let m = model(Code::BaconShor913);
        assert!((m.required_worst_case(10) / m.required_draper(10) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn crossover_in_paper_ballpark_for_both_codes() {
        // Paper: 36 blocks "immaterial of what error correction code is
        // used". Our structural model lands both codes in the same few-tens
        // band.
        for code in Code::ALL {
            let b = model(code).crossover_blocks();
            assert!((10..=80).contains(&b), "{code}: crossover {b}");
        }
    }

    #[test]
    fn supply_exceeds_demand_below_crossover_only() {
        for code in Code::ALL {
            let m = model(code);
            let b = m.crossover_blocks();
            if b > 4 {
                let below = m.sample(b / 2);
                assert!(below.available > below.required_draper, "{code} below");
            }
            let above = m.sample(b * 2);
            assert!(above.available < above.required_draper, "{code} above");
        }
    }

    #[test]
    fn samples_are_consistent() {
        let m = model(Code::Steane713);
        let s = m.sample(36);
        assert_eq!(s.blocks, 36);
        assert!((s.required_draper - 108.0).abs() < 1e-9);
        assert!((s.required_worst - 324.0).abs() < 1e-9);
        assert!(s.available > 0.0);
    }
}

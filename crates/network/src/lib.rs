//! Teleportation interconnect models for the CQLA (paper §2, §5.1, §6).
//!
//! Quantum data cannot be copied (no-cloning), so every operand physically
//! travels: locally by ballistic shuttling, at distance by teleportation
//! through pre-distributed, purified EPR pairs. This crate models that
//! fabric:
//!
//! * [`EprModel`] — pair generation, distribution infidelity, purification
//!   trees, and the resulting per-channel service rate,
//! * [`SuperblockBandwidth`] — the perimeter supply-vs-demand model whose
//!   crossover sizes compute superblocks (Fig 6b).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bandwidth;
mod epr;

pub use bandwidth::{
    BandwidthSample, SuperblockBandwidth, OPERANDS_PER_TOFFOLI, WORST_CASE_QUBITS_PER_BLOCK,
};
pub use epr::{EprModel, DEFAULT_PURIFICATION_ROUNDS};

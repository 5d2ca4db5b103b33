//! Concatenated quantum error correction: cost models, code transfer, and
//! fidelity budgets (paper §4 and Eq. 1).
//!
//! This crate turns the two codes of the CQLA study — Steane \[\[7,1,3\]\] and
//! Bacon-Shor \[\[9,1,3\]\] — into the architecture-facing quantities the
//! paper's evaluation is built on:
//!
//! * [`EccMetrics`] — error-correction time, transversal-gate time, tile
//!   area and qubit counts per `(code, level)` (reproduces Table 2),
//! * [`TransferNetwork`] — code-teleportation latencies between encodings
//!   (reproduces Table 3),
//! * [`fidelity`] — Gottesman's Eq. 1 failure model and the level-mixing
//!   budget that authorizes running part of the workload at level 1.
//!
//! # Examples
//!
//! ```
//! use cqla_ecc::{Code, EccMetrics, Level};
//! use cqla_iontrap::TechnologyParams;
//!
//! let tech = TechnologyParams::projected();
//! let steane_l2 = EccMetrics::compute(Code::Steane713, Level::TWO, &tech);
//! let bs_l2 = EccMetrics::compute(Code::BaconShor913, Level::TWO, &tech);
//! // The Bacon-Shor design point is both faster and smaller (paper §4.1).
//! assert!(bs_l2.ec_time() < steane_l2.ec_time());
//! assert!(bs_l2.tile_area() < steane_l2.tile_area());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod code;
pub mod fidelity;
pub mod memo;
mod metrics;
mod transfer;

pub use code::{Code, CodeLevel, Level};
pub use metrics::{table2_metrics, EccMetrics, SUBTILE_ROUTING_OVERHEAD};
pub use transfer::{TransferNetwork, DEST_EC_FACTOR, SOURCE_EC_FACTOR};

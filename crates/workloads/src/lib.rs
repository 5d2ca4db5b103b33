//! Workload generators for the CQLA evaluation.
//!
//! The paper evaluates its architecture on Shor's algorithm, whose pieces
//! this crate generates as real gate-level circuits (not resource
//! estimates):
//!
//! * [`DraperAdder`] — the carry-lookahead adder that dominates modular
//!   exponentiation (paper Fig 2, Tables 4–5), verified exhaustively by
//!   classical reversible simulation,
//! * [`RippleCarryAdder`] — the linear-depth baseline,
//! * [`ModExp`] — modular exponentiation as a schedule of repeated
//!   additions,
//! * [`Qft`] — the all-to-all communication stress test (Fig 8b),
//! * [`ShorInstance`] — the composed application with the `K·Q` sizing
//!   that feeds the fidelity analysis.
//!
//! # Examples
//!
//! ```
//! use cqla_workloads::DraperAdder;
//! use cqla_circuit::DependencyDag;
//!
//! let adder = DraperAdder::new(64);
//! assert_eq!(adder.compute(1u128 << 63, 1u128 << 63), 1u128 << 64);
//! let profile = DependencyDag::new(&adder.circuit()).parallelism_profile();
//! // Wide first round, long narrow tail: the shape of paper Fig 2.
//! assert!(profile[0] as u32 >= 60);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod draper;
mod modexp;
mod qft;
mod ripple;
mod shor;
pub mod width;

pub use draper::{DraperAdder, MAX_ADDER_BITS};
pub use modexp::ModExp;
pub use qft::Qft;
pub use ripple::RippleCarryAdder;
pub use shor::ShorInstance;

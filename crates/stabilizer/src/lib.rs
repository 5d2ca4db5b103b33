//! Pauli algebra, CSS codes and lookup decoding.
//!
//! The CQLA architecture (Thaker et al., ISCA 2006) is parameterized by two
//! quantum error-correcting codes: the Steane \[\[7,1,3\]\] code and the
//! Shor/Bacon-Shor \[\[9,1,3\]\] code. The architecture-level crates only need
//! *cost models* for these codes, but the reliability argument the whole
//! paper rests on — that distance-3 codes correct every single-qubit error —
//! deserves an executable proof. This crate provides it, and the `verify`
//! artifact runs it:
//!
//! * [`PauliString`] — bit-packed Pauli-group algebra with phase tracking,
//!   checked against a one-`bool`-per-bit reference by
//!   `tests/equivalence.rs`,
//! * [`CssCode`] — code definitions (stabilizers, logicals, gauge group for
//!   the Bacon-Shor subsystem view) and the algebraic syndrome,
//! * [`LookupDecoder`] — minimum-weight syndrome decoding.
//!
//! # Examples
//!
//! Correct an arbitrary single-qubit error on the Steane code:
//!
//! ```
//! use cqla_stabilizer::{CssCode, LookupDecoder, PauliOp, PauliString};
//!
//! let code = CssCode::steane();
//! let decoder = LookupDecoder::for_code(&code);
//! let error = PauliString::single(7, 3, PauliOp::Y);
//! let syndrome = code.syndrome(&error);
//! let correction = decoder.decode(&syndrome).expect("weight-1 errors are correctable");
//! let residue = error.mul(&correction);
//! assert!(code.is_logically_trivial(&residue));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
mod code;
mod decoder;
mod pauli;

pub use code::{CssCode, Syndrome};
pub use decoder::{errors_of_weight, ErrorsOfWeight, LookupDecoder};
pub use pauli::{PauliOp, PauliString};

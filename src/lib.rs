//! # cqla-repro
//!
//! A from-scratch Rust reproduction of *Quantum Memory Hierarchies:
//! Efficient Designs to Match Available Parallelism in Quantum Computing*
//! (Thaker, Metodi, Cross, Chuang, Chong — ISCA 2006): the CQLA
//! architecture, its quantum memory hierarchy, and every substrate the
//! study depends on.
//!
//! This facade re-exports the workspace crates under stable paths:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`units`] | `cqla-units` | typed time/area/probability quantities |
//! | [`stabilizer`] | `cqla-stabilizer` | Pauli algebra, CSS codes, lookup decoding |
//! | [`iontrap`] | `cqla-iontrap` | Table 1 technology model, trap geometry |
//! | [`ecc`] | `cqla-ecc` | concatenated-EC costs (Tables 2–3), Eq. 1 fidelity |
//! | [`circuit`] | `cqla-circuit` | gate IR, DAGs, scheduling, reversible sim |
//! | [`compile`] | `cqla-compile` | asm program pipeline + seeded workload generator |
//! | [`workloads`] | `cqla-workloads` | Draper/ripple adders, modexp, QFT, Shor |
//! | [`network`] | `cqla-network` | EPR purification, superblock bandwidth (Fig 6b) |
//! | [`core`] | `cqla-core` | the CQLA itself + the experiment registry + JSON |
//! | [`sweep`] | `cqla-sweep` | parallel experiment engine + sweep-spec language |
//! | [`serve`] | `cqla-serve` | long-running HTTP service over the registry |
//! | [`dist`] | `cqla-dist` | distributed sweeps across `cqla serve` worker fleets |
//!
//! # Quickstart
//!
//! ```
//! use cqla_repro::core::{CqlaConfig, EvalCtx, SpecializationStudy};
//! use cqla_repro::ecc::Code;
//! use cqla_repro::iontrap::TechnologyParams;
//!
//! let tech = TechnologyParams::projected();
//! let study = SpecializationStudy::new(&tech);
//! let config = CqlaConfig::new(Code::BaconShor913, 1024, 100);
//! let machine = study.evaluate_ctx(config, &EvalCtx::new());
//! println!(
//!     "area reduced {:.1}x, speedup {:.2}x, gain product {:.1}",
//!     machine.area_reduction, machine.speedup, machine.gain_product
//! );
//! # assert!(machine.gain_product > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cqla_circuit as circuit;
pub use cqla_compile as compile;
pub use cqla_core as core;
pub use cqla_dist as dist;
pub use cqla_ecc as ecc;
pub use cqla_iontrap as iontrap;
pub use cqla_network as network;
pub use cqla_serve as serve;
pub use cqla_stabilizer as stabilizer;
pub use cqla_sweep as sweep;
pub use cqla_units as units;
pub use cqla_workloads as workloads;

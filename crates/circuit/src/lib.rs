//! Logical quantum circuit IR, dependency analysis, scheduling, and
//! classical reversible verification.
//!
//! The CQLA study asks one recurring question of its workloads: *how much
//! parallelism is there, and what happens when hardware caps it?* (paper
//! §3.1, Fig 2, Fig 6a). This crate provides the machinery:
//!
//! * [`Circuit`] / [`Gate`] — the logical-gate IR the workload generators
//!   emit,
//! * [`DependencyDag`] — data-dependency analysis, critical paths and the
//!   unlimited-resources parallelism profile,
//! * [`ListScheduler`] — resource-constrained list scheduling onto `B`
//!   compute blocks, with occupancy and utilization reporting; a
//!   [`SchedulePlan`] schedules one DAG at many widths, and its costs
//!   pass prices a width without building the schedule,
//! * [`ClassicalState`] — exact verification of reversible (X/CNOT/Toffoli)
//!   circuits such as adders,
//! * [`asm`] — the assembly-style text format consumed by the cache
//!   simulator.
//!
//! # Examples
//!
//! ```
//! use cqla_circuit::{Circuit, DependencyDag, ListScheduler, Width};
//!
//! let mut c = Circuit::new(6);
//! c.toffoli(0, 1, 2);
//! c.toffoli(3, 4, 5); // independent of the first
//! c.cnot(2, 5); // joins both
//! let dag = DependencyDag::new(&c);
//! assert_eq!(dag.parallelism_profile(), vec![2, 1]);
//!
//! let schedule = ListScheduler::new(&dag).schedule(Width::Blocks(1), |_| 1);
//! assert_eq!(schedule.makespan(), 3); // serialized
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
mod circuit;
mod classical;
mod dag;
mod decompose;
mod gate;
mod index_set;
mod schedule;

pub use circuit::{Circuit, GateCounts};
pub use classical::{ClassicalState, NonClassicalGate};
pub use dag::DependencyDag;
pub use decompose::{decompose_toffolis, TOFFOLI_DECOMPOSITION_GATES};
pub use gate::{Gate, QubitId};
pub use index_set::IndexSet;
pub use schedule::{ListScheduler, Schedule, SchedulePlan, Width};

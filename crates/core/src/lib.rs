//! The CQLA — Compressed Quantum Logic Array — architecture model
//! (Thaker, Metodi, Cross, Chuang, Chong; ISCA 2006).
//!
//! The paper's thesis: the sea-of-qubits QLA wastes area on parallelism
//! that quantum applications cannot use. Specializing the machine into a
//! dense **memory** (8:1 data:ancilla), a few **compute blocks** (1:2),
//! and — with a second encoding level — a **cache**, buys an
//! order-of-magnitude area reduction and a multi-× speedup while
//! preserving fault tolerance. This crate is that design space, executable:
//!
//! * [`AreaModel`] / [`QlaBaseline`] — the pricing of both machines,
//! * [`SpecializationStudy`] — Table 4: schedule real Draper-adder DAGs
//!   onto bounded compute blocks,
//! * [`CacheSim`] — the §5.2 cache simulator (LRU; in-order vs optimized
//!   dependency-aware fetch; Fig 7),
//! * [`HierarchyStudy`] — Table 5: level-1 compute + cache over level-2
//!   memory, bounded parallel transfers, fidelity-budgeted level mixing,
//! * [`experiments`] — the paper's artifact catalog behind one
//!   [`experiments::Experiment`] trait plus a [`experiments::registry`],
//! * [`json`] — a hand-rolled JSON layer ([`Json`] value tree, printers,
//!   parser) and the [`ToJson`] trait every result type implements.
//!
//! # Examples
//!
//! Price the paper's headline configuration:
//!
//! ```
//! use cqla_core::{CqlaConfig, EvalCtx, SpecializationStudy};
//! use cqla_ecc::Code;
//! use cqla_iontrap::TechnologyParams;
//!
//! let study = SpecializationStudy::new(&TechnologyParams::projected());
//! let config = CqlaConfig::new(Code::BaconShor913, 1024, 100);
//! let result = study.evaluate_ctx(config, &EvalCtx::new());
//! // Paper Table 4: 13.4x area reduction with a speedup > 1.
//! assert!(result.area_reduction > 10.0);
//! assert!(result.speedup > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod cache;
mod convert;
mod eval;
pub mod experiments;
mod hierarchy;
pub mod json;
mod pipeline;
mod qla;
pub mod report;
mod specialize;

pub use area::{
    AreaModel, BLOCK_ANCILLA_QUBITS, BLOCK_DATA_QUBITS, CQLA_CHANNEL_FACTOR,
    MEMORY_DATA_PER_ANCILLA, QLA_CHANNEL_FACTOR,
};
pub use cache::{CacheRun, CacheSim, CacheTrace, FetchPolicy, TraceStep};
pub use eval::{memo_counters, CacheBehavior, EvalCtx};
pub use hierarchy::{HierarchyConfig, HierarchyResult, HierarchyStudy};
pub use json::{Json, ToJson};
pub use pipeline::{PipelineConfig, PipelineReport, PipelineSim};
pub use qla::QlaBaseline;
pub use specialize::{CqlaConfig, SpecializationResult, SpecializationStudy, TABLE4_GRID};

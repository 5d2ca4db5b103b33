//! # cqla-sweep
//!
//! The parallel experiment engine for the CQLA reproduction: sweep an
//! architecture-space grid (technology parameters, codes, adder widths,
//! cache ratios, transfer channels) across all available cores and emit
//! real JSON.
//!
//! The paper's central exercise is exactly this kind of multi-point
//! design-space exploration — Tables 4–5 and Figures 6–8 are grids of
//! independent evaluations. This crate turns that shape into
//! infrastructure:
//!
//! * [`spec`] — [`Sweep`] descriptions: named axes over design
//!   parameters, cartesian products, explicit point lists, and the
//!   built-in specs `cqla sweep <spec>` accepts;
//! * [`parse`] — the sweep-spec expression language: parse strings like
//!   `"tech=current,projected width=64..=512:*2 xfer=5,10"` into
//!   [`Sweep`]s, with spanned error messages (a thin client of the
//!   registry-driven grammar in `cqla_core::experiments::grid`);
//! * [`grid`] — [`GridRun`]: execute a per-experiment parameter [`Grid`]
//!   (`cqla run fig2 bits=32..=128:*2`) on the pool and merge the
//!   per-point artifact documents, with a [`PointCache`] hook for the
//!   HTTP service's results cache;
//!
//! [`Grid`]: cqla_core::experiments::Grid
//! * [`pool`] — a scoped-thread work-stealing executor
//!   ([`std::thread::scope`], zero dependencies) with per-job timing and
//!   deterministic result ordering;
//! * [`engine`] — [`SweepRun`]: execute a sweep, render text, serialize
//!   deterministic results and (separately) timing stats;
//! * [`regress`] — the perf regression gate: diff two `BENCH_sweep.json`
//!   timing documents against a threshold (`cqla bench-diff`).
//!
//! The JSON layer ([`Json`], [`ToJson`]) lives in [`cqla_core::json`] and
//! is re-exported here for compatibility.
//!
//! # Determinism
//!
//! [`SweepRun::to_json`] is byte-identical across runs and thread
//! counts: jobs are pure functions of their design point, the pool
//! restores submission order, objects keep insertion order, and floats
//! use Rust's shortest round-trip formatting. Timing is quarantined in
//! [`SweepRun::timing_json`].
//!
//! # Examples
//!
//! ```
//! use cqla_sweep::{pool, Sweep, SweepRun};
//!
//! let sweep = Sweep::builtin("quick").unwrap();
//! let run = SweepRun::execute(&sweep, pool::default_threads());
//! let doc = run.to_json().to_pretty();
//! assert!(doc.contains("\"sweep\": \"quick\""));
//! // Byte-identical no matter the worker count.
//! assert_eq!(doc, SweepRun::execute(&sweep, 1).to_json().to_pretty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod grid;
pub mod parse;
pub mod pool;
pub mod regress;
pub mod spec;

pub use cqla_core::json;
pub use cqla_core::json::{Json, ToJson};
pub use engine::{JobResult, PointOutcome, SweepRun, SweepSink};
pub use grid::{GridPoint, GridRun, PointCache};
pub use parse::SpecError;
pub use regress::{BenchDiff, BenchDoc, DocError};
pub use spec::{Axis, DesignPoint, Sweep, TechPoint};

//! # cqla-sweep
//!
//! The parallel experiment engine for the CQLA reproduction: sweep an
//! architecture-space grid (technology parameters, codes, adder widths,
//! cache ratios, transfer channels) across all available cores and emit
//! real JSON.
//!
//! The paper's central exercise is exactly this kind of multi-point
//! design-space exploration — Tables 4–5 and Figures 6–8 are grids of
//! independent evaluations. This crate runs that one shape through one
//! stack:
//!
//! * [`pool`] — the one in-order job pool: a scoped-thread
//!   shared job pool with per-job timing whose single reorder buffer
//!   hands each result to a callback in submission order
//!   ([`pool::map_streamed`]);
//! * [`frame`] — the one document framing: head fields plus a
//!   `results` array, merged or streamed as prologue, fragments and
//!   epilogue whose concatenation is byte-identical to the merged form;
//! * one executor on top: [`grid`]'s [`GridRun::run`] runs a slice of
//!   grids on one pool call and one evaluation context, each point a
//!   fresh instance of the experiment its grid's id names — a registry
//!   entry for a parameter grid (`cqla run fig2 bits=32..=128:*2`), a
//!   [`DesignPoint`] for a grid of a design-space [`Sweep`] (id
//!   `sweep`) — optionally read through a [`PointCache`] (the HTTP
//!   service's results cache);
//! * two renderers over the points it returns, each a head and an entry
//!   function: the grid document ([`GridRun::head`], [`GridRun::entry`])
//!   and the sweep document ([`engine`]'s [`SweepRun::head`],
//!   [`SweepRun::entry`]), plus the sweep's text table and timing
//!   document;
//! * [`spec`] — [`Sweep`] descriptions and the sweep-spec language
//!   (`"tech=current,projected width=64..=512:*2 xfer=5,10"`): seven
//!   design-space keys parsed by the registry grammar,
//!   `cqla_core::experiments::Grid::parse`, so a sweep is a list of
//!   grids and ships to a worker fleet as grid expressions;
//! * [`regress`] — the perf regression gate behind `cqla bench-diff`.
//!
//! The JSON layer ([`Json`], [`ToJson`]) lives in [`cqla_core::json`] and
//! is re-exported here for compatibility.
//!
//! # Determinism
//!
//! [`SweepRun::to_json`] and [`GridRun::to_json`] are byte-identical
//! across runs and thread counts: jobs are pure functions of their
//! point, the pool delivers in submission order, objects keep insertion
//! order, and floats use Rust's shortest round-trip formatting. Timing
//! is quarantined in [`SweepRun::timing_json`].
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
pub mod frame;
pub mod grid;
pub mod pool;
pub mod regress;
pub mod spec;

pub use cqla_core::json;
pub use cqla_core::json::{Json, ToJson};
pub use engine::{PointOutcome, SweepRun};
pub use grid::{GridPoint, GridRun, PointCache};
pub use regress::{BenchDiff, BenchDoc, DocError};
pub use spec::{DesignPoint, SpecError, Sweep, TechPoint};

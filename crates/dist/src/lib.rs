//! # cqla-dist
//!
//! Distributed execution for the CQLA reproduction's design-space
//! sweeps: shard a parameter grid across a fleet of `cqla serve`
//! workers and merge the streamed results into a document
//! byte-identical to a single-process run.
//!
//! The paper's experiments are embarrassingly parallel — every table
//! and figure is a grid of independent point evaluations — so the
//! natural scale-out is to split the grid, run the pieces wherever a
//! worker is listening, and glue the fragments back together. The
//! hard part is doing that without giving up the repo's core output
//! contract: **the merged document must be byte-identical to
//! `cqla sweep <spec> --format json` run in one process**, including
//! when a worker dies mid-run and its shard is re-executed elsewhere.
//!
//! * [`client`] — a zero-dependency HTTP/1.1 client over
//!   [`std::net::TcpStream`]: request writing, header parsing,
//!   `Content-Length` and chunked-transfer decoding, and a streaming
//!   mode that hands each chunk to a callback as it arrives. Also the
//!   shared test client for the repo's HTTP test suites.
//! * [`coordinator`] — the partitioner ([`Grid::shard`][shard] over a
//!   registry grid or each of a sweep's grids), the per-worker
//!   scheduler threads with
//!   capped-exponential-backoff retries, stream resume (`?from=K`),
//!   re-sharding onto survivors when a worker dies, and the
//!   byte-exact merger.
//!
//! [shard]: cqla_core::experiments::Grid::shard
//!
//! # Example
//!
//! ```no_run
//! use cqla_dist::{run_sweep, FleetConfig};
//! use cqla_sweep::Sweep;
//!
//! let sweep = Sweep::parse("grid").unwrap();
//! let fleet = FleetConfig::new(vec![
//!     "10.0.0.1:7070".into(),
//!     "10.0.0.2:7070".into(),
//!     "10.0.0.3:7070".into(),
//! ]);
//! let run = run_sweep(&sweep, &fleet).expect("fleet completes the sweep");
//! // Byte-identical to `cqla sweep grid --format json`.
//! print!("{}", run.document());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod coordinator;

pub use client::{Client, HttpResponse};
pub use coordinator::{run_grid, run_sweep, DistError, DistRun, FleetConfig};

//! # cqla-serve
//!
//! The long-running HTTP front end over the experiment registry: the
//! first consumer that turns the reproduction from a batch tool into a
//! *service*, serving many concurrent clients from one process — the
//! software analogue of the paper's thesis that a memory hierarchy
//! exists to keep available parallelism fed.
//!
//! Hand-rolled HTTP/1.1 over [`std::net::TcpListener`] — no external
//! dependencies, consistent with the offline `third_party/` policy. A
//! bounded accept loop feeds a fixed pool of worker threads serving
//! **keep-alive** connections (pipelining included, bounded by a
//! per-connection request cap and an idle timeout); sweep bodies
//! execute on the `cqla-sweep` shared job pool; and because every
//! registry run is a pure function of `(id, params)`, run responses are
//! cached, **single-flight** (concurrent cold misses coalesce onto one
//! execution), and served byte-identically forever after.
//!
//! Grid responses *stream*: each point's result goes out as a chunk the
//! moment the pool finishes it, and the concatenated chunks are
//! byte-identical to the merged document a batch run prints. Sweep
//! *jobs* decouple execution from the connection entirely — create,
//! poll, stream, and resume a dropped stream from any fragment offset
//! without recomputing a point.
//!
//! The full route reference — grammar, status codes, chunk framing, the
//! job lifecycle — lives in `docs/HTTP_API.md` at the repository root.
//!
//! # Endpoints
//!
//! | route | what it returns |
//! |---|---|
//! | `GET /healthz` | liveness document |
//! | `GET /v1/experiments` | the registry listing (same JSON as `cqla list --format json`) |
//! | `GET /v1/run/{id}?key=value…` | one run's artifact document (byte-identical to `cqla run <id> --format json`); value-set syntax streams a grid |
//! | `POST /v1/sweep` | body is a sweep-spec expression; returns the sweep document (byte-identical to `cqla sweep SPEC --format json`) |
//! | `POST /v1/sweep/{id}` | body is a `key=value-set` grid expression; streams the merged grid document chunk by chunk |
//! | `POST /v1/jobs/{id}` | starts a grid as a background job; answers 202 with the job document |
//! | `GET /v1/jobs/{jid}` | job progress: points done/total, status, verdict |
//! | `GET /v1/jobs/{jid}/stream?from=K` | streams the job's fragments from offset `K` (resume after a drop) |
//! | `GET /v1/stats` | request, cache, coalescing, and job/stream counters |
//! | `POST /v1/shutdown` | acknowledges, drains in-flight work, then stops |
//!
//! Errors come back as `{"error": …, "hint": …}` with the same
//! diagnostics the CLI prints: unknown artifacts are 404 with a
//! did-you-mean hint, bad parameters and specs are 400, method
//! mismatches are 405, retired jobs are 410, the active-job cap is 503,
//! and malformed requests are 400 — never a worker panic.
//!
//! # Examples
//!
//! ```
//! use cqla_serve::Server;
//!
//! // Port 0 picks an ephemeral port; workers default sensibly from the
//! // CLI via `--threads`.
//! let server = Server::bind("127.0.0.1:0", 2).expect("bind");
//! let addr = server.local_addr();
//! let handle = server.handle();
//! let join = std::thread::spawn(move || server.run());
//! // … drive requests at `addr` …
//! handle.shutdown();
//! join.join().unwrap().expect("clean shutdown");
//! # let _ = addr;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod server;

pub use http::{percent_decode, ChunkedWriter, Request, Response, Status};
pub use server::{ServeConfig, Server, ServerHandle};

//! The service itself: a bounded accept loop feeding a fixed worker
//! pool, a deterministic results cache, single-flight execution, sweep
//! jobs, and the route table over the experiment registry.
//!
//! Concurrency model: the acceptor thread pushes connections into a
//! bounded channel (`4 × workers` deep — backpressure, not an unbounded
//! queue); each of N workers pops connections and serves them
//! **keep-alive**: requests are read off one connection until the
//! client asks to close, the per-connection request cap is reached, the
//! idle timeout expires, or shutdown begins. Pipelined requests are
//! answered in order (every response is self-delimiting — see
//! [`crate::http`]).
//!
//! Every run is a pure function of its experiment id and its resolved
//! parameters (every declared parameter after the overrides; `compile`
//! adds its raw program text), so responses are cached under that key
//! in a bounded single-flight [`Memo`]: once one request has computed a
//! run, every later request for the same point is a cache hit, however
//! it was spelled, and when the cache fills the least-recently-used
//! entry is evicted (counted in `/v1/stats`). Grid requests
//! (`?key=value-set`, `POST /v1/sweep/{id}`), sweeps (`POST /v1/sweep`)
//! and jobs read and populate the same cache *per point*; grid requests
//! stream each point's fragment to the client as the pool finishes it —
//! the concatenated chunks are byte-identical to the merged document.
//! Concurrent *cold* misses on
//! one key coalesce: the first arrival computes, later arrivals wait
//! and reuse its body (counted as `coalesced`), so a thundering herd
//! costs one evaluation. A request that fails (bad params, failed
//! self-checks, a panic) caches nothing and hands the key to a waiter.
//!
//! Jobs (`POST /v1/jobs/{id}` for grids, `POST /v1/jobs/sweep` for
//! sweeps) run on one background job runner: creation answers
//! immediately with a job id, `GET /v1/jobs/{jid}` polls progress, and
//! `GET /v1/jobs/{jid}/stream?from=K` streams fragments — resumable
//! after a dropped connection from any fragment offset, with no point
//! recomputed. Completed jobs are retired after `job_retention` newer
//! completions.
//!
//! Shutdown (`POST /v1/shutdown` or [`ServerHandle::shutdown`]) drains:
//! workers finish the request or stream they are serving, idle
//! keep-alive connections close within one poll slice, job threads are
//! joined, and only then does [`Server::run`] return. A panicking
//! handler is caught and answered with a 500 — it never takes the
//! worker down with it.

use std::collections::{HashMap, VecDeque};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cqla_core::experiments::{
    apply_overrides, find, ids, is_set_clause, listing_json, params_usage, suggest, Experiment,
    Grid, ParamError,
};
use cqla_core::Json;
use cqla_ecc::memo::{Memo, Outcome};
use cqla_sweep::frame::{self, DOCUMENT_EPILOGUE};
use cqla_sweep::{GridPoint, GridRun, PointCache, Sweep, SweepRun};

use crate::http::{self, read_request, ChunkedWriter, Request, RequestError, Response, Status};

/// How long a worker waits on one read or write before giving the
/// connection up. Keeps a stalled peer from pinning a worker forever.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// How many requests one connection may issue before the server closes
/// it (announced via `Connection: close` on the final response). Bounds
/// how long a single client can monopolize a worker.
const MAX_REQUESTS_PER_CONNECTION: usize = 100;

/// The poll slice for idle keep-alive connections: how often a waiting
/// worker re-checks the shutdown flag while parked on `peek`.
const IDLE_SLICE: Duration = Duration::from_millis(200);

/// How many entries the results cache holds. Past this, inserting
/// evicts the least-recently-used entry.
const CACHE_CAPACITY: usize = 4096;

/// The most jobs that may run concurrently; creation past the cap is
/// answered 503 until one completes.
const MAX_ACTIVE_JOBS: usize = 8;

/// Tunables for a [`Server`], set from `cqla serve` flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it.
    pub idle_timeout: Duration,
    /// How many *completed* jobs stay pollable/streamable before the
    /// oldest is retired (its id then answers 410 Gone). Active jobs
    /// are never retired.
    pub job_retention: usize,
    /// Worker addresses (`host:port`) this node fronts. When
    /// non-empty, `POST /v1/sweep` is executed by the fleet through
    /// the [`cqla_dist`] coordinator instead of the local pool, so a
    /// coordinator node serves the same API as a solo worker.
    pub fleet: Vec<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            idle_timeout: Duration::from_secs(30),
            job_retention: 16,
            fleet: Vec::new(),
        }
    }
}

/// One background sweep job: a grid run on its own thread, its
/// streamed fragments retained for polling and resumable streaming.
struct Job {
    /// The job id (`j1`, `j2`, …).
    id: String,
    /// The experiment the grid runs.
    artifact: String,
    /// The normalized grid expression.
    spec: String,
    /// Total points the grid expands to.
    total: usize,
    /// The streamed document's head (fragment offset 0 resumes here).
    prologue: String,
    state: Mutex<JobState>,
    /// Signaled on every new fragment and on completion.
    cv: Condvar,
}

struct JobState {
    /// Completed fragments in submission order; `fragments.len()` is
    /// the progress offset a resuming client passes as `?from=K`.
    fragments: Vec<String>,
    done: bool,
    passed: bool,
}

/// The job registry: id allocation, live jobs, completion order for
/// retention.
struct JobTable {
    /// Ids handed out so far; `jN` with `N <= next` once existed.
    next: u64,
    map: HashMap<String, Arc<Job>>,
    /// Completed job ids, oldest first; trimmed to `job_retention`.
    finished: VecDeque<String>,
}

/// State shared by the acceptor, the workers, and shutdown handles.
struct Shared {
    /// Set once; workers finish their current exchange and exit.
    shutdown: AtomicBool,
    /// Where the listener actually bound (resolves port 0).
    addr: SocketAddr,
    /// Tunables from `cqla serve` flags.
    config: ServeConfig,
    /// Bounded LRU response cache over [`canonical_key`]s; its hit,
    /// coalesced and eviction counters are the `/v1/stats` ones.
    cache: Memo<String, Arc<String>>,
    /// Background sweep jobs.
    jobs: Mutex<JobTable>,
    /// Join handles for job threads, drained by [`Server::run`] so
    /// shutdown waits for every job.
    job_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Total requests answered (any status).
    requests: AtomicU64,
    /// Run responses (or grid points) that had to be computed.
    cache_misses: AtomicU64,
    /// Jobs currently running (gauge).
    jobs_active: AtomicU64,
    /// Chunked streams currently open (gauge).
    streams_open: AtomicU64,
    /// `POST /v1/compile` requests accepted (any outcome).
    compiles: AtomicU64,
    /// Compile requests answered from the results cache.
    compile_cache_hits: AtomicU64,
}

/// Bumps a gauge for its lifetime.
struct Gauge<'a>(&'a AtomicU64);

impl<'a> Gauge<'a> {
    fn new(counter: &'a AtomicU64) -> Self {
        counter.fetch_add(1, Ordering::Relaxed);
        Self(counter)
    }
}

impl Drop for Gauge<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The HTTP service over the experiment registry.
///
/// # Examples
///
/// ```no_run
/// use cqla_serve::Server;
///
/// let server = Server::bind("127.0.0.1:8080", 4).expect("bind");
/// println!("listening on http://{}", server.local_addr());
/// server.run().expect("serve");
/// ```
pub struct Server {
    listener: TcpListener,
    workers: usize,
    shared: Arc<Shared>,
}

/// A cloneable handle that can stop a running [`Server`] from another
/// thread (tests, signal handlers, the `/v1/shutdown` endpoint).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Asks the server to stop accepting connections. In-flight
    /// requests, streams, and jobs finish; [`Server::run`] then
    /// returns.
    pub fn shutdown(&self) {
        trigger_shutdown(&self.shared);
    }
}

/// Flips the shutdown flag and kicks the (blocking) acceptor awake with
/// a throwaway connection to its own port.
fn trigger_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    // The accept loop only observes the flag when a connection arrives;
    // connecting to ourselves guarantees one does. Failure is fine — it
    // means the listener is already gone.
    let _ = TcpStream::connect(shared.addr);
}

impl Server {
    /// Binds `addr` with the default [`ServeConfig`]. See
    /// [`Server::bind_with`].
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, no permission, …).
    pub fn bind(addr: impl ToSocketAddrs, workers: usize) -> std::io::Result<Self> {
        Self::bind_with(addr, workers, ServeConfig::default())
    }

    /// Binds `addr` (use port 0 for an ephemeral port) and sizes the
    /// worker pool. A zero worker count is clamped to one — the pool
    /// invariant the CLI also enforces with a usage error.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, no permission, …).
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        workers: usize,
        config: ServeConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Self {
            listener,
            workers: workers.max(1),
            shared: Arc::new(Shared {
                shutdown: AtomicBool::new(false),
                addr,
                config,
                cache: Memo::with_capacity(CACHE_CAPACITY),
                jobs: Mutex::new(JobTable {
                    next: 0,
                    map: HashMap::new(),
                    finished: VecDeque::new(),
                }),
                job_threads: Mutex::new(Vec::new()),
                requests: AtomicU64::new(0),
                cache_misses: AtomicU64::new(0),
                jobs_active: AtomicU64::new(0),
                streams_open: AtomicU64::new(0),
                compiles: AtomicU64::new(0),
                compile_cache_hits: AtomicU64::new(0),
            }),
        })
    }

    /// The address the listener actually bound — the one clients should
    /// connect to, with port 0 resolved.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The worker count the pool will run with.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A handle that can stop this server from another thread.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until [`ServerHandle::shutdown`] (or `POST /v1/shutdown`)
    /// fires, then drains: accepts connections into the bounded queue,
    /// joins every worker (each finishes the exchange or stream it is
    /// serving), joins every job thread, and only then returns.
    ///
    /// # Errors
    ///
    /// Propagates a fatal `accept` failure. Per-connection errors are
    /// answered (or dropped) and never end the loop.
    pub fn run(self) -> std::io::Result<()> {
        let Self {
            listener,
            workers,
            shared,
        } = self;
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(workers * 4);
        let rx = Arc::new(Mutex::new(rx));
        let result = std::thread::scope(|scope| {
            for _ in 0..workers {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                scope.spawn(move || worker_loop(&rx, &shared, workers));
            }
            let result = accept_loop(&listener, &tx, &shared);
            // Dropping the sender drains the pool: each worker's recv
            // errors out once the queue is empty, and the scope joins.
            drop(tx);
            result
        });
        // Workers are gone; finish the drain by waiting for every job
        // thread (a resumed stream may have been reading one until a
        // moment ago, and `/v1/shutdown` promises completed work).
        let handles = std::mem::take(&mut *shared.job_threads.lock().expect("job threads lock"));
        for handle in handles {
            let _ = handle.join();
        }
        result
    }
}

/// Accepts connections until shutdown, applying backpressure through
/// the bounded queue (send blocks when all workers are busy and the
/// queue is full).
fn accept_loop(
    listener: &TcpListener,
    tx: &SyncSender<TcpStream>,
    shared: &Shared,
) -> std::io::Result<()> {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        match conn {
            Ok(stream) => {
                if tx.send(stream).is_err() {
                    return Ok(());
                }
            }
            // A single failed accept — client vanished mid-handshake, or
            // `accept` returned EINTR because a signal landed — is not
            // fatal to a long-running service.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionAborted | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One worker: pop connections until the channel closes, serving each
/// behind a panic barrier so a handler bug costs one 500, not a thread.
fn worker_loop(rx: &Mutex<Receiver<TcpStream>>, shared: &Arc<Shared>, pool_threads: usize) {
    loop {
        let stream = match rx.lock().expect("connection queue lock").recv() {
            Ok(stream) => stream,
            Err(_) => return, // acceptor hung up; drain complete
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            serve_connection(&stream, shared, pool_threads);
        }));
        if outcome.is_err() {
            eprintln!("cqla-serve: handler panicked; connection answered with 500");
            let _ = Response::error(
                Status::InternalError,
                "internal error: handler panicked",
                None,
            )
            .write_to(&mut &stream, true);
        }
    }
}

/// Serves one keep-alive connection: requests are read and answered in
/// order until the client opts out, the request cap is reached, the
/// idle timeout expires, or shutdown begins.
fn serve_connection(stream: &TcpStream, shared: &Arc<Shared>, pool_threads: usize) {
    let _ = stream.set_write_timeout(Some(CLIENT_TIMEOUT));
    let mut reader = BufReader::new(stream);
    for served in 1..=MAX_REQUESTS_PER_CONNECTION {
        if !wait_for_request(&mut reader, shared) {
            return;
        }
        let _ = stream.set_read_timeout(Some(CLIENT_TIMEOUT));
        let request = match read_request(&mut reader) {
            Ok(request) => request,
            Err(RequestError::Malformed(what)) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let _ = Response::error(
                    Status::BadRequest,
                    format!("malformed request: {what}"),
                    None,
                )
                .write_to(&mut &*stream, true);
                return;
            }
            Err(RequestError::BodyTooLarge) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let _ = Response::error(
                    Status::PayloadTooLarge,
                    format!("request body exceeds {} bytes", http::MAX_BODY_BYTES),
                    None,
                )
                .write_to(&mut &*stream, true);
                return;
            }
            // The peer vanished or stalled; nobody is listening for errors.
            Err(RequestError::Io(_)) => return,
        };
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let routed = route(&request, shared, pool_threads);
        // Close when the client asked to, when this response exhausts
        // the connection's request budget, or when shutdown started
        // (possibly via this very request).
        let close = request.close
            || served == MAX_REQUESTS_PER_CONNECTION
            || shared.shutdown.load(Ordering::SeqCst);
        let written = match routed {
            Routed::Full(response) => response.write_to(&mut &*stream, close).is_ok(),
            Routed::GridStream(grid) => {
                stream_grid(stream, &grid, shared, pool_threads, close).is_ok()
            }
            Routed::JobStream { job, from } => {
                stream_job(stream, &job, from, shared, close).is_ok()
            }
        };
        if !written || close {
            return;
        }
    }
}

/// Waits for the next request's first byte. Pipelined bytes already
/// sitting in the read buffer win immediately; otherwise the worker
/// parks on `peek` in short slices so it notices shutdown fast, and
/// gives the connection up at the idle timeout or when the peer closes.
fn wait_for_request(reader: &mut BufReader<&TcpStream>, shared: &Shared) -> bool {
    if !reader.buffer().is_empty() {
        return true;
    }
    let stream: &TcpStream = reader.get_ref();
    let deadline = Instant::now() + shared.config.idle_timeout;
    let slice = IDLE_SLICE
        .min(shared.config.idle_timeout)
        .max(Duration::from_millis(1));
    let _ = stream.set_read_timeout(Some(slice));
    let mut probe = [0u8; 1];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        match stream.peek(&mut probe) {
            Ok(0) => return false, // peer closed
            Ok(_) => return true,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if Instant::now() >= deadline {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
}

/// What the route table decided: a complete response, or a stream the
/// connection loop must drive (streams need the socket, which handlers
/// never touch directly).
enum Routed {
    /// A `Content-Length`-framed response, ready to write.
    Full(Response),
    /// Execute this grid now, streaming each point's fragment.
    GridStream(Grid),
    /// Stream a job's fragments starting at offset `from`.
    JobStream { job: Arc<Job>, from: usize },
}

/// The route table. Method mismatches on known paths are 405; unknown
/// paths are 404.
fn route(request: &Request, shared: &Arc<Shared>, pool_threads: usize) -> Routed {
    let method = request.method.as_str();
    let full = Routed::Full;
    match request.path.as_str() {
        "/healthz" => full(match method {
            "GET" => Response::ok(format!(
                "{}\n",
                health_json(shared, pool_threads).to_pretty()
            )),
            _ => method_not_allowed("GET"),
        }),
        "/v1/experiments" => full(match method {
            "GET" => Response::ok(format!("{}\n", listing_json().to_pretty())),
            _ => method_not_allowed("GET"),
        }),
        "/v1/stats" => full(match method {
            "GET" => Response::ok(format!("{}\n", stats_json(shared).to_pretty())),
            _ => method_not_allowed("GET"),
        }),
        "/v1/compile" => full(match method {
            "POST" => compile_endpoint(&request.body, &request.query, shared),
            _ => method_not_allowed("POST"),
        }),
        "/v1/sweep" => full(match method {
            "POST" => sweep_endpoint(&request.body, shared, pool_threads),
            _ => method_not_allowed("POST"),
        }),
        "/v1/shutdown" => full(match method {
            "POST" => {
                trigger_shutdown(shared);
                Response::ok(format!(
                    "{}\n",
                    Json::obj([
                        ("ok", Json::Bool(true)),
                        ("shutting_down", Json::Bool(true))
                    ])
                    .to_pretty()
                ))
            }
            _ => method_not_allowed("POST"),
        }),
        path => {
            if let Some(rest) = path.strip_prefix("/v1/jobs/") {
                return jobs_route(
                    rest,
                    method,
                    &request.query,
                    &request.body,
                    shared,
                    pool_threads,
                );
            }
            if let Some(id) = path.strip_prefix("/v1/sweep/") {
                return match method {
                    // `POST /v1/sweep/{id}`: the body is one grid expression,
                    // streamed like the grid-query form of `/v1/run/{id}`.
                    "POST" => grid_request(id, &request.body)
                        .map_or_else(Routed::Full, Routed::GridStream),
                    _ => full(method_not_allowed("POST")),
                };
            }
            match path.strip_prefix("/v1/run/") {
                Some(id) if method == "GET" => run_endpoint(id, &request.query, shared),
                Some(_) => full(method_not_allowed("GET")),
                None => full(Response::error(
                    Status::NotFound,
                    format!("no route for `{path}`"),
                    Some(
                        "endpoints: GET /healthz, GET /v1/experiments, \
                         GET /v1/run/{id}?key=value-set, POST /v1/compile, \
                         POST /v1/sweep, \
                         POST /v1/sweep/{id}, POST /v1/jobs/{id}, \
                         POST /v1/jobs/sweep, GET /v1/jobs/{jid}, \
                         GET /v1/jobs/{jid}/stream?from=K, \
                         GET /v1/stats, POST /v1/shutdown"
                            .to_owned(),
                    ),
                )),
            }
        }
    }
}

fn method_not_allowed(allowed: &str) -> Response {
    Response::error(
        Status::MethodNotAllowed,
        format!("method not allowed; use {allowed}"),
        None,
    )
}

/// The liveness-and-capacity document: the stable `ok`/`service`/
/// `version` contract plus what a fleet coordinator needs to size its
/// dispatch — compute threads, active background jobs (capped at
/// [`MAX_ACTIVE_JOBS`]), and open chunked streams.
fn health_json(shared: &Shared, pool_threads: usize) -> Json {
    let load = |counter: &AtomicU64| Json::Int(counter.load(Ordering::Relaxed) as i64);
    Json::obj([
        ("ok", Json::Bool(true)),
        ("service", Json::from("cqla-serve")),
        ("version", Json::from(env!("CARGO_PKG_VERSION"))),
        ("threads", Json::Int(pool_threads as i64)),
        ("jobs_active", load(&shared.jobs_active)),
        ("jobs_max", Json::Int(MAX_ACTIVE_JOBS as i64)),
        ("streams_open", load(&shared.streams_open)),
    ])
}

/// The observability document: request, cache, coalescing,
/// job/stream, compile, and evaluation-memo counters.
fn stats_json(shared: &Shared) -> Json {
    let load = |counter: &AtomicU64| Json::Int(counter.load(Ordering::Relaxed) as i64);
    let count = |n: u64| Json::Int(n as i64);
    let (memo_hits, memo_misses) = cqla_core::memo_counters();
    Json::obj([
        ("requests", load(&shared.requests)),
        ("cache_hits", count(shared.cache.hits())),
        ("cache_misses", load(&shared.cache_misses)),
        ("coalesced", count(shared.cache.coalesced())),
        ("cache_evictions", count(shared.cache.evictions())),
        ("cache_entries", count(shared.cache.len() as u64)),
        ("jobs_active", load(&shared.jobs_active)),
        ("streams_open", load(&shared.streams_open)),
        ("compiles", load(&shared.compiles)),
        ("compile_cache_hits", load(&shared.compile_cache_hits)),
        ("memo_hits", count(memo_hits)),
        ("memo_misses", count(memo_misses)),
    ])
}

/// `GET /v1/run/{id}?key=value…` — one registry run, cached and
/// single-flight.
///
/// The body is byte-identical to `cqla run <id> --format json`: the
/// pretty-printed artifact document plus the trailing newline `println!`
/// appends. Overrides are applied in query order, and the run is cached
/// under its resolved parameters, so every spelling of one point
/// (reordered, `1.50` for `1.5`, a default spelled out) shares one cache
/// entry. A query using value-*set* syntax (`?bits=32..=128:*2`, comma
/// lists, `base.` pins) fans out into a streamed grid run instead — its
/// concatenated chunks byte-identical to
/// `cqla run <id> key=value-set… --format json`.
fn run_endpoint(id: &str, query: &[(String, String)], shared: &Shared) -> Routed {
    if query.iter().any(|(k, v)| is_set_clause(k, v)) {
        let expr = query
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        return grid_request(id, expr.as_bytes()).map_or_else(Routed::Full, Routed::GridStream);
    }
    let Some(experiment) = find(id) else {
        return Routed::Full(unknown_artifact(id));
    };
    Routed::Full(match cached_run(shared, experiment, query) {
        Ok((body, _)) => Response::shared(body),
        Err(response) => response,
    })
}

/// The one override the resolved parameters do not show: `compile`'s
/// program text, which joins the cache key raw.
const PROGRAM: &str = "program";

/// One registry run through the results cache, keyed by the resolved
/// parameters plus any raw [`PROGRAM`] text. The other overrides are
/// applied first, in order, and a bad one is answered 400 before the
/// cache is read; the program is parsed only on a miss. A bad program
/// and a failing run (a broken `verify`, answered with its body) are
/// not cached — cached bodies carry no verdict, and the grid executor
/// reports hits as passed.
fn cached_run(
    shared: &Shared,
    mut experiment: Box<dyn Experiment>,
    overrides: &[(String, String)],
) -> Result<(Arc<String>, Outcome), Response> {
    let id = experiment.id();
    let (program, machine): (Vec<_>, Vec<_>) = overrides
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .partition(|(k, _)| *k == PROGRAM);
    apply_overrides(experiment.as_mut(), machine).map_err(|e| param_error(&*experiment, &e))?;
    let params = experiment.params();
    let resolved = params.iter().map(|p| (p.key, p.value.as_str()));
    let key = canonical_key(id, resolved.chain(program.iter().copied()));
    shared.read_through(
        key,
        || match apply_overrides(experiment.as_mut(), program) {
            Ok(()) => Ok(experiment),
            Err(e) => Err(param_error(&*experiment, &e)),
        },
        |experiment| {
            let output = experiment.run();
            let body = Arc::new(format!("{}\n", output.document(id).to_pretty()));
            if output.passed {
                Ok(body)
            } else {
                Err(Response::shared(body))
            }
        },
    )
}

/// The 400 for a rejected override: a bad program carries the parser's
/// hint, anything else the experiment's parameter surface.
fn param_error(experiment: &dyn Experiment, e: &ParamError) -> Response {
    let hint = match e {
        ParamError::Program(parse) => parse.hint().map(str::to_owned),
        _ => Some(format!(
            "{} takes: {}",
            experiment.id(),
            params_usage(experiment)
        )),
    };
    Response::error(Status::BadRequest, e.to_string(), hint)
}

fn unknown_artifact(id: &str) -> Response {
    let all = ids();
    let hint = suggest(id, all.iter().copied()).map(|s| format!("did you mean `{s}`?"));
    Response::error(Status::NotFound, format!("unknown artifact `{id}`"), hint)
}

impl Shared {
    /// The results cache's one read-through, shared by single runs and
    /// grid points: the body cached under `key`, or a wait on the
    /// identical in-flight request, or a miss. On a miss `ready`
    /// prepares the run (its error is answered, and is not a miss), and
    /// `run` computes the body, counted in `cache_misses`. An error from
    /// either caches nothing and hands the key to a waiter.
    fn read_through<T, E>(
        &self,
        key: String,
        ready: impl FnOnce() -> Result<T, E>,
        run: impl FnOnce(T) -> Result<Arc<String>, E>,
    ) -> Result<(Arc<String>, Outcome), E> {
        self.cache.try_get_or_compute(key, || {
            let ready = ready()?;
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
            run(ready)
        })
    }
}

/// The server's results cache is the grid executor's point cache: each
/// grid or sweep point reads and writes exactly the entry a single run
/// of the same resolved point would, so grids warm the cache for single
/// runs and vice versa, and concurrent cold misses on one point
/// coalesce onto a single execution. Hit/miss/coalesced/eviction
/// counters tick per point.
impl PointCache for Shared {
    fn get_or_compute(
        &self,
        id: &str,
        params: &[(String, String)],
        compute: &mut dyn FnMut() -> Option<String>,
    ) -> Option<Arc<String>> {
        let key = canonical_key(id, params.iter().map(|(k, v)| (k.as_str(), v.as_str())));
        let run = |()| compute().map(Arc::new).ok_or(());
        let (body, _) = self.read_through(key, || Ok(()), run).ok()?;
        Some(body)
    }
}

/// Parses a grid request — an experiment id and one `key=value-set`
/// expression, from a request body or a joined query — into its grid:
/// 404 for an unknown id, 400 for an expression that is not UTF-8 or
/// that the grammar rejects, with the usage hint the CLI prints.
fn grid_request(id: &str, expr: &[u8]) -> Result<Grid, Response> {
    let experiment = find(id).ok_or_else(|| unknown_artifact(id))?;
    let expr = core::str::from_utf8(expr)
        .map_err(|_| Response::error(Status::BadRequest, "grid expression is not UTF-8", None))?;
    Grid::parse(id, &experiment.specs(), expr.trim()).map_err(|e| {
        Response::error(
            Status::BadRequest,
            e.to_string(),
            Some(format!("{id} takes: {}", params_usage(experiment.as_ref()))),
        )
    })
}

/// Executes a grid and streams it: prologue chunk, one chunk per point
/// as the pool finishes it, epilogue chunk, terminal chunk. If the
/// client hangs up mid-stream the execution still completes (points
/// land in the cache for the retry), but the connection is reported
/// dead so the loop closes it.
fn stream_grid(
    stream: &TcpStream,
    grid: &Grid,
    shared: &Shared,
    pool_threads: usize,
    close: bool,
) -> std::io::Result<()> {
    let _open = Gauge::new(&shared.streams_open);
    let mut w: &TcpStream = stream;
    let mut body = ChunkedWriter::start(&mut w, Status::Ok, close)?;
    body.chunk(&frame::prologue(GridRun::head(
        grid.id(),
        grid.spec(),
        grid.len(),
    )))?;
    // `None` once a write failed: the pool must finish either way, so
    // the failure is remembered rather than propagated.
    let writer = Mutex::new(Some(body));
    let grids = std::slice::from_ref(grid);
    let _run = GridRun::run(grids, pool_threads, Some(shared), |index, point| {
        let mut writer = writer.lock().expect("stream writer lock");
        if let Some(body) = writer.as_mut() {
            if body
                .chunk(&frame::fragment(index, &GridRun::entry(point)))
                .is_err()
            {
                *writer = None;
            }
        }
    });
    let Some(mut body) = writer.into_inner().expect("stream writer lock") else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            "client left mid-stream",
        ));
    };
    body.chunk(DOCUMENT_EPILOGUE)?;
    body.finish()
}

/// The `/v1/jobs/…` subtree: create (POST `{id}`), poll (GET `{jid}`),
/// stream (GET `{jid}/stream?from=K`).
fn jobs_route(
    rest: &str,
    method: &str,
    query: &[(String, String)],
    body: &[u8],
    shared: &Arc<Shared>,
    pool_threads: usize,
) -> Routed {
    if let Some(jid) = rest.strip_suffix("/stream") {
        if method != "GET" {
            return Routed::Full(method_not_allowed("GET"));
        }
        let job = match find_job(shared, jid) {
            Ok(job) => job,
            Err(response) => return Routed::Full(response),
        };
        let from = match resume_offset(query) {
            Ok(from) => from,
            Err(response) => return Routed::Full(response),
        };
        if from > job.total {
            return Routed::Full(Response::error(
                Status::BadRequest,
                format!(
                    "resume offset {from} is past the job's {} point(s)",
                    job.total
                ),
                Some("`from` is the number of result fragments already received".to_owned()),
            ));
        }
        return Routed::JobStream { job, from };
    }
    match method {
        "POST" => Routed::Full(jobs_create_endpoint(rest, body, shared, pool_threads)),
        "GET" => match find_job(shared, rest) {
            Ok(job) => Routed::Full(Response::ok(format!("{}\n", job_json(&job).to_pretty()))),
            Err(response) => Routed::Full(response),
        },
        _ => Routed::Full(method_not_allowed("GET, POST")),
    }
}

/// Parses `?from=K` (default 0).
fn resume_offset(query: &[(String, String)]) -> Result<usize, Response> {
    let Some((_, raw)) = query.iter().find(|(k, _)| k == "from") else {
        return Ok(0);
    };
    raw.parse().map_err(|_| {
        Response::error(
            Status::BadRequest,
            format!("unparseable resume offset `{raw}`"),
            Some("`from` is a fragment count, e.g. /v1/jobs/j1/stream?from=3".to_owned()),
        )
    })
}

/// Resolves a job id: live jobs by table lookup; ids that were once
/// handed out but have been retired answer 410 Gone (re-POST to
/// recompute — the points are still in the results cache); everything
/// else is 404.
fn find_job(shared: &Shared, jid: &str) -> Result<Arc<Job>, Response> {
    let table = shared.jobs.lock().expect("job table lock");
    if let Some(job) = table.map.get(jid) {
        return Ok(Arc::clone(job));
    }
    let once_existed = jid
        .strip_prefix('j')
        .and_then(|n| n.parse::<u64>().ok())
        .is_some_and(|n| n >= 1 && n <= table.next);
    Err(if once_existed {
        Response::error(
            Status::Gone,
            format!("job `{jid}` has been retired"),
            Some(
                "completed jobs are retained only up to --job-retention; \
                 re-POST /v1/jobs/{id} — cached points are not recomputed"
                    .to_owned(),
            ),
        )
    } else {
        Response::error(
            Status::NotFound,
            format!("unknown job `{jid}`"),
            Some("jobs are created by POST /v1/jobs/{id}".to_owned()),
        )
    })
}

/// One job's status document (also the 202 creation body).
fn job_json(job: &Job) -> Json {
    let state = job.state.lock().expect("job state lock");
    Json::obj([
        ("job", Json::from(job.id.as_str())),
        ("artifact", Json::from(job.artifact.as_str())),
        ("grid", Json::from(job.spec.as_str())),
        ("points", Json::Int(job.total as i64)),
        ("done", Json::Int(state.fragments.len() as i64)),
        (
            "status",
            Json::from(if !state.done {
                "running"
            } else if state.passed {
                "done"
            } else {
                "failed"
            }),
        ),
        (
            "passed",
            if state.done {
                Json::Bool(state.passed)
            } else {
                Json::Null
            },
        ),
    ])
}

/// `POST /v1/jobs/{id}` — parse the grid, or for `sweep` the one sweep
/// spec `POST /v1/sweep` takes, register a job, start its thread, and
/// answer 202 immediately with the job document. `sweep` is not a
/// registry id, so it never shadows an experiment's grid jobs. Sweep
/// jobs are the route the [`cqla_dist`] coordinator ships sweep shards
/// over: every sweep is a list of grids, and each shard travels as one
/// grid expression.
fn jobs_create_endpoint(
    id: &str,
    body: &[u8],
    shared: &Arc<Shared>,
    pool_threads: usize,
) -> Response {
    let parsed = if id == "sweep" {
        parse_sweep(body).map(|s| (s.name().to_owned(), s.grids().to_vec()))
    } else {
        grid_request(id, body).map(|grid| (grid.spec().to_owned(), vec![grid]))
    };
    let (spec, grids) = match parsed {
        Ok(parsed) => parsed,
        Err(response) => return response,
    };
    let points = grids.iter().map(Grid::len).sum();
    let (head, entry): (_, fn(&GridPoint) -> Json) = if id == "sweep" {
        (SweepRun::head(&spec, points), SweepRun::entry)
    } else {
        (GridRun::head(id, &spec, points), GridRun::entry)
    };
    start_job(shared, pool_threads, &spec, head, grids, entry)
}

/// Registers a job that runs `grids` under the next id, bumps the
/// active gauge, and starts [`run_job`] on its own thread, which
/// appends each point's `entry` to the job's log. Creation past
/// [`MAX_ACTIVE_JOBS`] is refused with a 503.
fn start_job(
    shared: &Arc<Shared>,
    pool_threads: usize,
    spec: &str,
    head: Vec<(&'static str, Json)>,
    grids: Vec<Grid>,
    entry: fn(&GridPoint) -> Json,
) -> Response {
    if shared.jobs_active.load(Ordering::Relaxed) >= MAX_ACTIVE_JOBS as u64 {
        return Response::error(
            Status::ServiceUnavailable,
            format!("{MAX_ACTIVE_JOBS} jobs already running"),
            Some("poll /v1/stats for jobs_active and retry".to_owned()),
        );
    }
    let job = {
        let mut table = shared.jobs.lock().expect("job table lock");
        table.next += 1;
        let jid = format!("j{}", table.next);
        let job = Arc::new(Job {
            id: jid.clone(),
            artifact: grids.first().map_or("", Grid::id).to_owned(),
            spec: spec.to_owned(),
            total: grids.iter().map(Grid::len).sum(),
            prologue: frame::prologue(head),
            state: Mutex::new(JobState {
                fragments: Vec::new(),
                done: false,
                passed: false,
            }),
            cv: Condvar::new(),
        });
        table.map.insert(jid, Arc::clone(&job));
        job
    };
    shared.jobs_active.fetch_add(1, Ordering::Relaxed);
    let handle = std::thread::spawn({
        let shared = Arc::clone(shared);
        let job = Arc::clone(&job);
        move || run_job(&shared, &job, &grids, entry, pool_threads)
    });
    shared
        .job_threads
        .lock()
        .expect("job threads lock")
        .push(handle);
    Response {
        status: Status::Accepted,
        body: Arc::new(format!("{}\n", job_json(&job).to_pretty())),
    }
}

/// The job thread — the one job body of grid and sweep jobs: run the
/// grids on the grid executor, read through the results cache,
/// appending each point's `entry` fragment to the job log and waking
/// pollers/streamers; then mark the job done, apply
/// completed-job retention, and drop the active-jobs gauge. A panicking
/// run still marks the job done (failed) so streams and shutdown never
/// wait forever.
fn run_job(
    shared: &Shared,
    job: &Job,
    grids: &[Grid],
    entry: fn(&GridPoint) -> Json,
    pool_threads: usize,
) {
    let append = |index: usize, point: &GridPoint| {
        let fragment = frame::fragment(index, &entry(point));
        let mut state = job.state.lock().expect("job state lock");
        debug_assert_eq!(state.fragments.len(), index, "fragments arrive in order");
        state.fragments.push(fragment);
        job.cv.notify_all();
    };
    let run = || GridRun::run(grids, pool_threads, Some(shared), append);
    let passed = catch_unwind(AssertUnwindSafe(run)).map_or_else(
        |_| {
            eprintln!("cqla-serve: job {} panicked; marked failed", job.id);
            false
        },
        |run| run.passed(),
    );
    {
        let mut state = job.state.lock().expect("job state lock");
        state.done = true;
        state.passed = passed;
        job.cv.notify_all();
    }
    {
        let mut table = shared.jobs.lock().expect("job table lock");
        table.finished.push_back(job.id.clone());
        while table.finished.len() > shared.config.job_retention {
            if let Some(old) = table.finished.pop_front() {
                table.map.remove(&old);
            }
        }
    }
    shared.jobs_active.fetch_sub(1, Ordering::Relaxed);
}

/// Streams a job from fragment offset `from`: the prologue only at
/// offset 0 (a resuming client already has it), then every fragment as
/// the job produces it, then the epilogue. Concatenating a stream from
/// 0 — or a prefix up to K glued to a `?from=K` resume — yields exactly
/// the merged grid document.
fn stream_job(
    stream: &TcpStream,
    job: &Job,
    from: usize,
    shared: &Shared,
    close: bool,
) -> std::io::Result<()> {
    let _open = Gauge::new(&shared.streams_open);
    let mut w: &TcpStream = stream;
    let mut body = ChunkedWriter::start(&mut w, Status::Ok, close)?;
    if from == 0 {
        body.chunk(&job.prologue)?;
    }
    let mut next = from;
    loop {
        let fragment = {
            let mut state = job.state.lock().expect("job state lock");
            loop {
                if next < state.fragments.len() {
                    break Some(state.fragments[next].clone());
                }
                if state.done {
                    break None;
                }
                state = job.cv.wait(state).expect("job state wait");
            }
        };
        let Some(fragment) = fragment else { break };
        body.chunk(&fragment)?;
        next += 1;
    }
    body.chunk(DOCUMENT_EPILOGUE)?;
    body.finish()
}

/// The canonical cache key: the experiment id and a point's resolved
/// parameters, in declared order (plus [`PROGRAM`]'s raw text for an
/// inline `compile`). Every spelling of one run — reordered overrides,
/// `1.50` for `1.5`, a default spelled out or left off, overrides that
/// do not commute — resolves to the parameters it runs with, so equal
/// keys mean equal bodies and two different runs never share a key.
/// Every component is length-prefixed, so no byte a client can put into
/// a value (separators included) can forge another request's key.
fn canonical_key<'a>(id: &str, params: impl IntoIterator<Item = (&'a str, &'a str)>) -> String {
    use std::fmt::Write as _;
    let mut key = format!("{}:{id}", id.len());
    for (param, value) in params {
        let _ = write!(key, "|{}:{param}|{}:{value}", param.len(), value.len());
    }
    key
}

/// `POST /v1/sweep` — the body is one sweep-spec expression (or builtin
/// name). The response body is byte-identical to
/// `cqla sweep SPEC --format json`, whether it is computed on the
/// local shared job pool, each point read through the results cache,
/// or — when this node fronts a fleet (`cqla serve --workers …`) —
/// distributed across the workers by the [`cqla_dist`] coordinator.
fn sweep_endpoint(body: &[u8], shared: &Shared, pool_threads: usize) -> Response {
    let sweep = match parse_sweep(body) {
        Ok(sweep) => sweep,
        Err(response) => return response,
    };
    let head = SweepRun::head(sweep.name(), sweep.len());
    if !shared.config.fleet.is_empty() {
        let fleet = cqla_dist::FleetConfig::new(shared.config.fleet.clone());
        return match cqla_dist::run_grids(sweep.grids(), head, &fleet) {
            Ok(run) => Response::ok(run.document().to_owned()),
            Err(e) => Response::error(
                Status::ServiceUnavailable,
                format!("fleet sweep failed: {e}"),
                Some("check the worker fleet and retry".to_owned()),
            ),
        };
    }
    let run = GridRun::run(sweep.grids(), pool_threads, Some(shared), |_, _| {});
    let entries = run.points().iter().map(SweepRun::entry).collect();
    Response::ok(format!("{}\n", frame::document(head, entries).to_pretty()))
}

/// Parses a sweep route's body — a builtin name or a key=values
/// expression — mapping errors to the 400 the CLI's usage message
/// mirrors.
fn parse_sweep(body: &[u8]) -> Result<Sweep, Response> {
    let spec = core::str::from_utf8(body)
        .map_err(|_| Response::error(Status::BadRequest, "sweep spec is not UTF-8", None))?
        .trim();
    if spec.is_empty() {
        return Err(Response::error(
            Status::BadRequest,
            "empty sweep spec",
            Some(
                "POST a builtin name or a key=values expression, e.g. \
                 `tech=current,projected width=64..=512:*2`"
                    .to_owned(),
            ),
        ));
    }
    Sweep::parse(spec).map_err(|e| {
        let builtins = Sweep::BUILTIN.map(|(name, _)| name).join(", ");
        Response::error(
            Status::BadRequest,
            e.to_string(),
            Some(format!("built-in specs: {builtins}")),
        )
    })
}

/// `POST /v1/compile` — the body is an asm IR program; query params
/// override the `compile` experiment's machine parameters (`tech`,
/// `code`, `width`, `cache`, …). An empty body compiles the seeded
/// generated workload instead (`?source=random&seed=…`), so the route
/// covers both front-end shapes.
///
/// The response is byte-identical to `cqla compile FILE --format json`
/// with the same program and overrides: the pretty-printed `compile`
/// artifact document plus the trailing newline. Bodies ride the same
/// results cache as `/v1/run/{id}`: the raw program text is one more
/// (length-prefixed) component of the canonical key. The machine
/// parameters are checked first; the program is parsed only on a cache
/// miss, and one that fails to parse is answered 400 with the spanned
/// caret diagnostic and its hint, uncached.
fn compile_endpoint(body: &[u8], query: &[(String, String)], shared: &Shared) -> Response {
    shared.compiles.fetch_add(1, Ordering::Relaxed);
    let Ok(source) = core::str::from_utf8(body) else {
        return Response::error(Status::BadRequest, "program is not UTF-8", None);
    };
    let source = source.trim();
    if let Some((k, v)) = query.iter().find(|(k, v)| is_set_clause(k, v)) {
        return Response::error(
            Status::BadRequest,
            format!("`{k}={v}` is a value set; /v1/compile compiles one machine point"),
            Some("grids over machines stream from GET /v1/run/compile?key=value-set".to_owned()),
        );
    }
    let mut params: Vec<(String, String)> = query.to_vec();
    if !source.is_empty() {
        // An inline program and a generated workload are mutually
        // exclusive; a body with `source=random` is a contradiction,
        // not an override to silently drop.
        if let Some((_, v)) = params.iter().find(|(k, _)| k == "source") {
            if v != "inline-asm" {
                return Response::error(
                    Status::BadRequest,
                    format!("request body conflicts with `source={v}`"),
                    Some(
                        "POST a program body (source=inline-asm is implied), or use \
                         GET /v1/run/compile?source=random&seed=N"
                            .to_owned(),
                    ),
                );
            }
        } else {
            params.push(("source".to_owned(), "inline-asm".to_owned()));
        }
        if params.iter().any(|(k, _)| k == PROGRAM) {
            return Response::error(
                Status::BadRequest,
                "`program` is set from the request body",
                Some("POST the program as the body and drop the query param".to_owned()),
            );
        }
        params.push((PROGRAM.to_owned(), source.to_owned()));
    }
    let experiment = find("compile").expect("the registry always has `compile`");
    match cached_run(shared, experiment, &params) {
        Ok((body, outcome)) => {
            if outcome == Outcome::Hit {
                shared.compile_cache_hits.fetch_add(1, Ordering::Relaxed);
            }
            Response::shared(body)
        }
        Err(response) => response,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unwraps a [`Routed::Full`] response.
    fn full(routed: Routed) -> Response {
        match routed {
            Routed::Full(response) => response,
            Routed::GridStream(_) => panic!("expected a full response, got a grid stream"),
            Routed::JobStream { .. } => panic!("expected a full response, got a job stream"),
        }
    }

    /// The body cached under `key`, if any (a lookup that never
    /// computes).
    fn cached(shared: &Shared, key: String) -> Option<Arc<String>> {
        let lookup = shared.cache.try_get_or_compute(key, || Err(()));
        lookup.ok().map(|(body, _)| body)
    }

    /// Runs `f` on another thread and returns its result, failing the
    /// test instead of hanging if a key stayed blocked.
    fn promptly<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(Duration::from_secs(60))
            .expect("the key must not stay blocked")
    }

    /// Materializes a routed outcome into a full response, executing
    /// grid streams inline through the shared point cache and framing
    /// them exactly as the connection loop would.
    fn materialize(routed: Routed, shared: &Shared) -> Response {
        match routed {
            Routed::Full(response) => response,
            Routed::GridStream(grid) => {
                let head = GridRun::head(grid.id(), grid.spec(), grid.len());
                let body = Mutex::new(frame::prologue(head));
                let grids = std::slice::from_ref(&grid);
                let _run = GridRun::run(grids, 1, Some(shared), |index, point| {
                    body.lock()
                        .unwrap()
                        .push_str(&frame::fragment(index, &GridRun::entry(point)));
                });
                let mut body = body.into_inner().unwrap();
                body.push_str(DOCUMENT_EPILOGUE);
                Response::ok(body)
            }
            Routed::JobStream { .. } => panic!("expected a grid outcome, got a job stream"),
        }
    }

    /// The cache key of `id`'s run under `overrides` (no program).
    fn key(id: &str, overrides: &[(&str, &str)]) -> String {
        let mut experiment = find(id).unwrap();
        apply_overrides(experiment.as_mut(), overrides.iter().copied()).unwrap();
        let params = experiment.params();
        canonical_key(id, params.iter().map(|p| (p.key, p.value.as_str())))
    }

    #[test]
    fn canonical_keys_are_order_insensitive_but_value_sensitive() {
        let a = key("machine", &[("tech", "current"), ("bits", "64")]);
        let b = key("machine", &[("bits", "64"), ("tech", "current")]);
        assert_eq!(a, b);
        assert_ne!(a, key("machine", &[("tech", "projected"), ("bits", "64")]));
        assert_ne!(a, key("table4", &[("tech", "current")]));
        // Spellings of one value, and defaults spelled out or left off,
        // resolve to one key.
        assert_eq!(
            key("machine", &[("cache", "1.50")]),
            key("machine", &[("cache", "1.5")])
        );
        assert_eq!(key("table4", &[("tech", "projected")]), key("table4", &[]));
        assert_eq!(
            key("machine", &[("bits", "1024"), ("code", "steane")]),
            key("machine", &[("code", "steane")])
        );
        let c = [("tech", "projected")];
        // The separator cannot be forged from key/value text that would
        // merely concatenate ambiguously.
        let d = [("te", "chcurrent")];
        assert_ne!(canonical_key("table4", c), canonical_key("table4", d));
        // Nor by smuggling separator bytes into a value: one param whose
        // value spells out another pair must not collide with the real
        // two-param key (length prefixes make the split unambiguous).
        let real = [("bits", "64"), ("blocks", "9")];
        for smuggled in ["64|6:blocks|1:9", "64\u{1}blocks=9", "64|blocks:9"] {
            let forged = [("bits", smuggled)];
            assert_ne!(
                canonical_key("machine", real),
                canonical_key("machine", forged),
                "{smuggled:?} must not forge the two-param key"
            );
        }
    }

    #[test]
    fn run_endpoint_matches_the_registry_document() {
        let server = Server::bind("127.0.0.1:0", 1).unwrap();
        let shared = &server.shared;
        let resp = full(run_endpoint("table4", &[], shared));
        assert_eq!(resp.status, Status::Ok);
        let expected = format!(
            "{}\n",
            find("table4").unwrap().run().document("table4").to_pretty()
        );
        assert_eq!(*resp.body, expected);
        // Second identical request hits the cache — and shares the
        // cached allocation instead of copying it.
        let again = full(run_endpoint("table4", &[], shared));
        assert_eq!(*again.body, expected);
        assert_eq!(shared.cache.hits(), 1);
        assert_eq!(shared.cache_misses.load(Ordering::Relaxed), 1);
        let cached = cached(shared, key("table4", &[])).unwrap();
        assert!(Arc::ptr_eq(&again.body, &cached), "hits must share the Arc");
    }

    #[test]
    fn run_endpoint_maps_param_errors_to_400_and_releases_the_flight() {
        let server = Server::bind("127.0.0.1:0", 1).unwrap();
        let warp = [("tech".to_owned(), "warp".to_owned())];
        let resp = full(run_endpoint("table4", &warp, &server.shared));
        assert_eq!(resp.status, Status::BadRequest);
        assert!(resp.body.contains("bad value"), "{}", resp.body);
        // The 400 cached nothing and left the key free: a retry is
        // evaluated (and rejected) again instead of waiting forever.
        assert!(server.shared.cache.is_empty());
        let shared = Arc::clone(&server.shared);
        let retry = promptly(move || full(run_endpoint("table4", &warp, &shared)).status);
        assert_eq!(retry, Status::BadRequest);
        assert!(server.shared.cache.is_empty());
        let resp = full(run_endpoint("table9", &[], &server.shared));
        assert_eq!(resp.status, Status::NotFound);
        // A repeated key is rejected, not settled by the query order.
        let twice = [
            ("bits".to_owned(), "64".to_owned()),
            ("bits".to_owned(), "128".to_owned()),
        ];
        let resp = full(run_endpoint("machine", &twice, &server.shared));
        assert_eq!(resp.status, Status::BadRequest);
        assert!(
            resp.body.contains("duplicate parameter `bits`"),
            "{}",
            resp.body
        );
        assert!(server.shared.cache.is_empty());
    }

    #[test]
    fn failed_grid_points_are_neither_cached_nor_blocked() {
        let server = Server::bind("127.0.0.1:0", 1).unwrap();
        let cache: &dyn PointCache = &*server.shared;
        let point = [("bits".to_owned(), "8".to_owned())];
        // A run that fails its self-checks delivers no body…
        assert_eq!(cache.get_or_compute("fig2", &point, &mut || None), None);
        assert!(server.shared.cache.is_empty());
        // …so the next request for the point computes it afresh.
        let body = cache.get_or_compute("fig2", &point, &mut || Some("body".to_owned()));
        assert_eq!(body.as_deref().map(String::as_str), Some("body"));
        assert_eq!(server.shared.cache_misses.load(Ordering::Relaxed), 2);
        let hit = cache.get_or_compute("fig2", &point, &mut || unreachable!("cached"));
        // A hit shares the cached body rather than copying it.
        assert!(Arc::ptr_eq(&hit.unwrap(), &body.unwrap()));
        assert_eq!(server.shared.cache.hits(), 1);
    }

    #[test]
    fn grid_queries_fan_out_and_share_the_point_cache() {
        let server = Server::bind("127.0.0.1:0", 1).unwrap();
        let shared = &server.shared;
        // Warm one point through the single-run path…
        let single = full(run_endpoint(
            "fig2",
            &[("bits".to_owned(), "8".to_owned())],
            shared,
        ));
        assert_eq!(single.status, Status::Ok);
        assert_eq!(shared.cache_misses.load(Ordering::Relaxed), 1);
        // …then a grid covering it: one hit (the warm point), one miss.
        let grid = materialize(
            run_endpoint("fig2", &[("bits".to_owned(), "8,16".to_owned())], shared),
            shared,
        );
        assert_eq!(grid.status, Status::Ok);
        assert_eq!(shared.cache.hits(), 1);
        assert_eq!(shared.cache_misses.load(Ordering::Relaxed), 2);
        let doc = cqla_core::json::parse(&grid.body).unwrap();
        assert_eq!(doc.get("points").and_then(Json::as_f64), Some(2.0));
        // The grid's second point now serves single runs from the cache.
        let warm = full(run_endpoint(
            "fig2",
            &[("bits".to_owned(), "16".to_owned())],
            shared,
        ));
        assert_eq!(warm.status, Status::Ok);
        assert_eq!(shared.cache.hits(), 2);
        // Bad grid values are spanned 400s.
        let bad = full(run_endpoint(
            "fig2",
            &[("bits".to_owned(), "8,nope".to_owned())],
            shared,
        ));
        assert_eq!(bad.status, Status::BadRequest);
        assert!(bad.body.contains("expected an integer"), "{}", bad.body);
    }

    #[test]
    fn jobs_lifecycle_create_poll_retire() {
        let server = Server::bind_with(
            "127.0.0.1:0",
            1,
            ServeConfig {
                job_retention: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let shared = &server.shared;
        let created = jobs_create_endpoint("fig2", b"bits=8,16", shared, 1);
        assert_eq!(created.status, Status::Accepted);
        let doc = cqla_core::json::parse(&created.body).unwrap();
        assert_eq!(doc.get("job").and_then(Json::as_str), Some("j1"));
        assert_eq!(doc.get("points").and_then(Json::as_f64), Some(2.0));
        // Poll until done.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let job = find_job(shared, "j1").expect("job exists");
            let doc = job_json(&job);
            if doc.get("status").and_then(Json::as_str) == Some("done") {
                assert_eq!(doc.get("done").and_then(Json::as_f64), Some(2.0));
                assert_eq!(doc.get("passed"), Some(&Json::Bool(true)));
                break;
            }
            assert!(Instant::now() < deadline, "job never completed");
            std::thread::sleep(Duration::from_millis(10));
        }
        // The results cache holds one body per point and nothing else.
        assert_eq!(shared.cache.len(), 2);
        // A second completed job retires the first (retention 1)…
        let created = jobs_create_endpoint("fig2", b"bits=8", shared, 1);
        let jid = cqla_core::json::parse(&created.body)
            .unwrap()
            .get("job")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        let deadline = Instant::now() + Duration::from_secs(30);
        while find_job(shared, "j1").is_ok() {
            assert!(Instant::now() < deadline, "first job never retired");
            std::thread::sleep(Duration::from_millis(10));
        }
        let err_status = |r: Result<Arc<Job>, Response>| r.map_err(|resp| resp.status).err();
        assert_eq!(err_status(find_job(shared, "j1")), Some(Status::Gone));
        assert!(find_job(shared, &jid).is_ok());
        // …and an id never handed out is 404, not 410.
        assert_eq!(err_status(find_job(shared, "j99")), Some(Status::NotFound));
        assert_eq!(err_status(find_job(shared, "nope")), Some(Status::NotFound));
    }

    #[test]
    fn a_panicking_job_is_marked_failed_and_releases_its_slot() {
        let server = Server::bind("127.0.0.1:0", 1).unwrap();
        let shared = &server.shared;
        let fig2 = find("fig2").unwrap();
        let grids = vec![Grid::parse("fig2", &fig2.specs(), "bits=8,16").unwrap()];
        // The second point's fragment blows up after the first landed.
        let entry = |point: &GridPoint| {
            assert_eq!(point.overrides[0].1, "8", "job blew up mid-run");
            GridRun::entry(point)
        };
        let head = GridRun::head("fig2", "bits=8,16", 2);
        let created = start_job(shared, 1, "bits=8,16", head, grids, entry);
        assert_eq!(created.status, Status::Accepted);
        let deadline = Instant::now() + Duration::from_secs(30);
        let job = find_job(shared, "j1").expect("job exists");
        while !job.state.lock().unwrap().done {
            assert!(Instant::now() < deadline, "panicked job never finished");
            std::thread::sleep(Duration::from_millis(10));
        }
        let doc = job_json(&job);
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("failed"));
        assert_eq!(doc.get("done").and_then(Json::as_f64), Some(1.0));
        assert_eq!(shared.jobs_active.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn sweep_endpoint_runs_specs_and_rejects_bad_ones() {
        let server = Server::bind("127.0.0.1:0", 1).unwrap();
        let shared = &server.shared;
        let ok = sweep_endpoint(b"code=steane width=32,64 ", shared, 2);
        assert_eq!(ok.status, Status::Ok);
        let doc = cqla_core::json::parse(&ok.body).unwrap();
        assert_eq!(doc.get("points").and_then(Json::as_f64), Some(2.0));
        let bad = sweep_endpoint(b"frobnicate=1", shared, 2);
        assert_eq!(bad.status, Status::BadRequest);
        assert!(bad.body.contains("error"), "{}", bad.body);
    }

    #[test]
    fn compile_endpoint_matches_the_registry_document_and_caches() {
        let server = Server::bind("127.0.0.1:0", 1).unwrap();
        let shared = &server.shared;
        // An empty body compiles the default generated workload —
        // byte-identical to `cqla run compile --format json`.
        let resp = compile_endpoint(b"", &[], shared);
        assert_eq!(resp.status, Status::Ok);
        let expected = format!(
            "{}\n",
            find("compile")
                .unwrap()
                .run()
                .document("compile")
                .to_pretty()
        );
        assert_eq!(*resp.body, expected);
        // The second identical request is a compile cache hit.
        let again = compile_endpoint(b"", &[], shared);
        assert_eq!(*again.body, expected);
        assert_eq!(shared.compiles.load(Ordering::Relaxed), 2);
        assert_eq!(shared.compile_cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(shared.cache_misses.load(Ordering::Relaxed), 1);
        assert_eq!(shared.cache.len(), 1);
    }

    #[test]
    fn compile_endpoint_accepts_programs_and_rejects_conflicts() {
        let server = Server::bind("127.0.0.1:0", 1).unwrap();
        let shared = &server.shared;
        let program = b"h q0\ntoffoli q0, q1, q2\nmeasure q2\n";
        let width = [("width".to_owned(), "4".to_owned())];
        let resp = compile_endpoint(program, &width, shared);
        assert_eq!(resp.status, Status::Ok, "{}", resp.body);
        // The body is what the registry produces for the same point.
        let mut experiment = find("compile").unwrap();
        experiment.set("source", "inline-asm").unwrap();
        experiment
            .set("program", core::str::from_utf8(program).unwrap().trim())
            .unwrap();
        experiment.set("width", "4").unwrap();
        let expected = format!("{}\n", experiment.run().document("compile").to_pretty());
        assert_eq!(*resp.body, expected);
        assert!(resp.body.contains("\"source\": \"inline-asm\""));
        // A body alongside `source=random` is a contradiction, not an
        // override to drop silently; ditto a `program` query param and
        // value-set syntax (grids stream from /v1/run/compile).
        let random = [("source".to_owned(), "random".to_owned())];
        let conflict = compile_endpoint(program, &random, shared);
        assert_eq!(conflict.status, Status::BadRequest);
        assert!(conflict.body.contains("conflicts"), "{}", conflict.body);
        let smuggled = [("program".to_owned(), "h q0".to_owned())];
        assert_eq!(
            compile_endpoint(program, &smuggled, shared).status,
            Status::BadRequest
        );
        let grid = [("width".to_owned(), "4,9".to_owned())];
        let fanout = compile_endpoint(program, &grid, shared);
        assert_eq!(fanout.status, Status::BadRequest);
        assert!(fanout.body.contains("value set"), "{}", fanout.body);
        // Bad machine params get the usage hint, are not cached, and
        // leave the key free for the next request.
        let warp = [("tech".to_owned(), "warp".to_owned())];
        let bad = compile_endpoint(program, &warp, shared);
        assert_eq!(bad.status, Status::BadRequest);
        assert!(bad.body.contains("compile takes"), "{}", bad.body);
        let entries = shared.cache.len();
        let again = {
            let shared = Arc::clone(shared);
            promptly(move || compile_endpoint(program, &warp, &shared).status)
        };
        assert_eq!(again, Status::BadRequest);
        assert_eq!(shared.cache.len(), entries);
        let widths = [
            ("width".to_owned(), "4".to_owned()),
            ("width".to_owned(), "36".to_owned()),
        ];
        let twice = compile_endpoint(program, &widths, shared);
        assert_eq!(twice.status, Status::BadRequest);
        assert!(
            twice.body.contains("duplicate parameter `width`"),
            "{}",
            twice.body
        );
        assert_eq!(shared.cache.len(), entries);
    }

    #[test]
    fn compile_endpoint_answers_parse_errors_with_the_spanned_diagnostic() {
        let server = Server::bind("127.0.0.1:0", 1).unwrap();
        let shared = &server.shared;
        let resp = compile_endpoint(b"frobnicate q0\n", &[], shared);
        assert_eq!(resp.status, Status::BadRequest);
        assert!(resp.body.contains("unknown mnemonic"), "{}", resp.body);
        assert!(resp.body.contains("^^^^^^^^^^"), "{}", resp.body);
        // Parse errors are rejected before the run and never cached.
        assert!(shared.cache.is_empty());
        assert_eq!(shared.cache_misses.load(Ordering::Relaxed), 0);
        let binary = compile_endpoint(&[0xff, 0xfe], &[], shared);
        assert_eq!(binary.status, Status::BadRequest);
        assert!(binary.body.contains("not UTF-8"), "{}", binary.body);
    }

    #[test]
    fn health_json_reports_capacity() {
        let server = Server::bind("127.0.0.1:0", 1).unwrap();
        let doc = health_json(&server.shared, 3);
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            doc.get("service").and_then(Json::as_str),
            Some("cqla-serve")
        );
        assert_eq!(doc.get("threads").and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc.get("jobs_active").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            doc.get("jobs_max").and_then(Json::as_f64),
            Some(MAX_ACTIVE_JOBS as f64)
        );
        assert_eq!(doc.get("streams_open").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn sweep_jobs_stream_fragments_that_merge_byte_identically() {
        let server = Server::bind("127.0.0.1:0", 1).unwrap();
        let shared = &server.shared;
        // A builtin, and a shard spec as the fleet coordinator posts it.
        let shard = Sweep::builtin("table5").unwrap().grids()[0].shard(3)[1]
            .spec()
            .to_owned();
        for spec in ["quick", shard.as_str()] {
            let created = jobs_create_endpoint("sweep", spec.as_bytes(), shared, 2);
            assert_eq!(created.status, Status::Accepted, "{}", created.body);
            let doc = cqla_core::json::parse(&created.body).unwrap();
            assert_eq!(doc.get("artifact").and_then(Json::as_str), Some("sweep"));
            assert_eq!(doc.get("grid").and_then(Json::as_str), Some(spec));
            let jid = doc.get("job").and_then(Json::as_str).unwrap().to_owned();
            let deadline = Instant::now() + Duration::from_secs(30);
            let job = loop {
                let job = find_job(shared, &jid).expect("job exists");
                let doc = job_json(&job);
                if doc.get("status").and_then(Json::as_str) == Some("done") {
                    assert_eq!(doc.get("passed"), Some(&Json::Bool(true)));
                    break job;
                }
                assert!(Instant::now() < deadline, "sweep job never completed");
                std::thread::sleep(Duration::from_millis(10));
            };
            // Prologue + fragments + epilogue == the `POST /v1/sweep`
            // document for the same spec.
            let state = job.state.lock().unwrap();
            let mut glued = job.prologue.clone();
            for fragment in &state.fragments {
                glued.push_str(fragment);
            }
            glued.push_str(DOCUMENT_EPILOGUE);
            let direct = sweep_endpoint(spec.as_bytes(), shared, 1);
            assert_eq!(glued, *direct.body, "{spec}: fragments must merge exactly");
        }
        // Bad specs are 400 with the spec diagnostic; a body is one
        // spec, so two lines that both set `code` are a duplicate.
        for (body, needle) in [
            (&b"widht=64\n"[..], "did you mean"),
            (
                b"code=steane bits=32\ncode=bacon-shor bits=64\n",
                "duplicate parameter `code`",
            ),
            (b"  \n", "empty sweep spec"),
        ] {
            let bad = jobs_create_endpoint("sweep", body, shared, 1);
            assert_eq!(bad.status, Status::BadRequest);
            assert!(bad.body.contains(needle), "{}", bad.body);
        }
    }
}

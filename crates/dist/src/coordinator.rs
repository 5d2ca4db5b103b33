//! The distributed-sweep coordinator: shard a grid across a fleet of
//! `cqla serve` workers, stream each shard's fragments back, survive
//! worker death by re-sharding onto the survivors, and merge the
//! fragments into a document byte-identical to a single-process run.
//!
//! # How a run flows
//!
//! 1. **Partition.** Every workload is a list of grids: a registry
//!    grid is one, a design-space sweep is its
//!    [`Sweep::grids`](cqla_sweep::Sweep::grids). Each
//!    grid is split into contiguous sub-grids with [`Grid::shard`] so
//!    there is at least one shard per worker. Each shard knows the
//!    global index of its first point, so fragments land in the right
//!    slot no matter which worker computes them.
//! 2. **Fan out.** One scheduler thread per worker pops shards off a
//!    shared queue, creates a background job on its worker
//!    (`POST /v1/jobs/{grid id}` with the shard's expression as the
//!    body; sweep grids have the id `sweep`), and streams the job's
//!    chunked fragments.
//! 3. **Retry and re-shard.** Transient failures (connect refused,
//!    timeouts, 5xx, a mid-stream hangup) are retried with capped
//!    exponential backoff, resuming streams from the last fragment
//!    received (`?from=K`). A worker that exhausts its retries is
//!    declared dead and its shard is re-split across the survivors.
//!    Protocol-level rejections (4xx) and a fleet with no survivors
//!    are fatal, attributed to the worker that produced them.
//! 4. **Merge.** The coordinator renders the document prologue and
//!    epilogue locally — they carry the *full* grid's spec and point
//!    count, which no shard knows — and splices the collected
//!    fragments between them. Because every fragment is a pure
//!    function of its design point, re-computed fragments overwrite
//!    with identical bytes and the merged document is byte-identical
//!    to `cqla sweep <spec> --format json` run in one process.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use cqla_core::experiments::Grid;
use cqla_core::json::{self, Json};
use cqla_sweep::frame;

use crate::client::Client;

/// How the coordinator reaches and retries a worker fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker addresses (`host:port`), one scheduler thread each.
    pub workers: Vec<String>,
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Transient-failure retries per worker per shard before the
    /// worker is declared dead. `0` means any failure is immediately
    /// fatal — no retry, no re-shard.
    pub retries: u32,
}

impl FleetConfig {
    /// A fleet with the default timeouts: 3 s connects, 3 retries.
    #[must_use]
    pub fn new(workers: Vec<String>) -> Self {
        Self {
            workers,
            connect_timeout: Duration::from_secs(3),
            retries: 3,
        }
    }
}

/// A failure that ended a distributed run, attributed to the worker
/// that produced it when one is responsible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistError {
    /// The worker address at fault, if the failure is attributable.
    pub worker: Option<String>,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.worker {
            Some(addr) => write!(f, "worker {addr}: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for DistError {}

impl DistError {
    fn at(worker: &str, message: impl Into<String>) -> Self {
        Self {
            worker: Some(worker.to_owned()),
            message: message.into(),
        }
    }
}

/// The outcome of a distributed run: the merged document and the
/// fleet-wide pass verdict.
#[derive(Debug, Clone)]
pub struct DistRun {
    document: String,
    passed: bool,
}

impl DistRun {
    /// The merged document, trailing newline included — byte-identical
    /// to the single-process CLI's stdout for the same spec.
    #[must_use]
    pub fn document(&self) -> &str {
        &self.document
    }

    /// True when every shard's job reported `passed` (sweep jobs
    /// always pass; grid jobs carry the artifact verdict).
    #[must_use]
    pub fn passed(&self) -> bool {
        self.passed
    }
}

/// A shard in flight: a contiguous sub-grid plus the global index of
/// its first point, so fragments can be slotted into the merged
/// document.
struct Unit {
    grid: Grid,
    offset: usize,
}

impl Unit {
    /// Splits into at most `n` contiguous units whose points
    /// concatenate to this unit's, in order.
    fn split(&self, n: usize) -> Vec<Self> {
        let mut offset = self.offset;
        self.grid
            .shard(n)
            .into_iter()
            .map(|grid| {
                let unit = Self { grid, offset };
                offset += unit.grid.len();
                unit
            })
            .collect()
    }
}

/// Scheduler state shared by the per-worker threads.
struct Sched {
    queue: VecDeque<Unit>,
    /// Units not yet completed: queued plus in-flight. Zero means the
    /// run is done.
    pending: usize,
    /// Workers still considered usable.
    alive: usize,
    /// First fatal error; set once, ends the run.
    fatal: Option<DistError>,
    /// One slot per global point, filled with normalized fragments.
    slots: Vec<Option<String>>,
    passed: bool,
}

/// Executes `grids`, in order, across the fleet as one document under
/// `head`: a registry grid with [`GridRun::head`], a design-space sweep's
/// [`Sweep::grids`] with [`SweepRun::head`].
///
/// # Errors
///
/// [`DistError`] when the fleet cannot complete the run: no workers, a
/// protocol rejection, or every worker dead.
///
/// [`GridRun::head`]: cqla_sweep::GridRun::head
/// [`Sweep::grids`]: cqla_sweep::Sweep::grids
/// [`SweepRun::head`]: cqla_sweep::SweepRun::head
pub fn run_grids(
    grids: &[Grid],
    head: Vec<(&'static str, Json)>,
    config: &FleetConfig,
) -> Result<DistRun, DistError> {
    if config.workers.is_empty() {
        return Err(DistError {
            worker: None,
            message: "no workers given; pass --workers host:port,…".to_owned(),
        });
    }
    let client = Client::new(config.connect_timeout);
    // Probe the fleet up front so a mistyped address fails in one
    // connect timeout, not after a full sweep's worth of retries.
    // With retries enabled an unreachable worker stays in the fleet —
    // it will burn its retries on first contact and be re-sharded
    // around, which is exactly the recovery path — but with
    // `--retries 0` the contract is "fail loudly", so probe failures
    // are fatal and name the worker.
    if config.retries == 0 {
        for worker in &config.workers {
            if let Err(e) = client.get(worker, "/healthz") {
                return Err(DistError::at(worker, format!("health probe failed: {e}")));
            }
        }
    }
    // Enough shards per grid that every worker starts with one.
    let per_grid = config.workers.len().div_ceil(grids.len().max(1));
    let mut queue = VecDeque::new();
    let mut offset = 0;
    for grid in grids {
        let unit = Unit {
            grid: grid.clone(),
            offset,
        };
        offset += grid.len();
        queue.extend(unit.split(per_grid));
    }
    let sched = Mutex::new(Sched {
        pending: queue.len(),
        queue,
        alive: config.workers.len(),
        fatal: None,
        // One slot per point: `offset` has run past the last grid.
        slots: (0..offset).map(|_| None).collect(),
        passed: true,
    });
    let cv = Condvar::new();
    std::thread::scope(|scope| {
        for worker in &config.workers {
            scope.spawn(|| worker_loop(worker, &client, &sched, &cv, config));
        }
    });
    let sched = sched.into_inner().expect("scheduler threads joined");
    if let Some(fatal) = sched.fatal {
        return Err(fatal);
    }
    let mut document = frame::prologue(head);
    for (index, slot) in sched.slots.iter().enumerate() {
        let fragment = slot.as_ref().ok_or_else(|| DistError {
            worker: None,
            message: format!("internal: point {index} was never delivered"),
        })?;
        if index > 0 {
            document.push(',');
        }
        document.push_str(fragment);
    }
    document.push_str(frame::DOCUMENT_EPILOGUE);
    Ok(DistRun {
        document,
        passed: sched.passed,
    })
}

fn worker_loop(
    addr: &str,
    client: &Client,
    sched: &Mutex<Sched>,
    cv: &Condvar,
    config: &FleetConfig,
) {
    loop {
        let unit = {
            let mut state = sched.lock().expect("scheduler lock");
            loop {
                if state.fatal.is_some() || state.pending == 0 {
                    return;
                }
                match state.queue.pop_front() {
                    Some(unit) => break unit,
                    None => state = cv.wait(state).expect("scheduler lock"),
                }
            }
        };
        match run_unit(addr, client, &unit, sched, config) {
            Ok(passed) => {
                let mut state = sched.lock().expect("scheduler lock");
                state.passed &= passed;
                state.pending -= 1;
                if state.pending == 0 {
                    cv.notify_all();
                }
            }
            Err(error) => {
                let mut state = sched.lock().expect("scheduler lock");
                if error.fatal || config.retries == 0 {
                    state.fatal = Some(DistError::at(addr, error.message));
                    cv.notify_all();
                    return;
                }
                // This worker is dead. Re-shard its unit across the
                // survivors; the thread exits either way.
                state.alive -= 1;
                if state.alive == 0 {
                    state.fatal = Some(DistError::at(
                        addr,
                        format!("{} (and no workers remain)", error.message),
                    ));
                    cv.notify_all();
                    return;
                }
                let pieces = unit.split(state.alive);
                state.pending += pieces.len() - 1;
                state.queue.extend(pieces);
                cv.notify_all();
                return;
            }
        }
    }
}

/// A unit-level failure: `fatal` failures abort the whole run;
/// non-fatal ones declare the worker dead and trigger a re-shard.
struct UnitError {
    fatal: bool,
    message: String,
}

impl UnitError {
    fn fatal(message: impl Into<String>) -> Self {
        Self {
            fatal: true,
            message: message.into(),
        }
    }
}

/// Capped exponential backoff over a fixed retry budget: 50 ms
/// doubling to at most 1 s per wait.
struct RetryBudget {
    left: u32,
    delay: Duration,
}

impl RetryBudget {
    fn new(retries: u32) -> Self {
        Self {
            left: retries,
            delay: Duration::from_millis(50),
        }
    }

    /// Consumes one retry and sleeps, or reports the budget exhausted.
    fn wait(&mut self, message: &str) -> Result<(), UnitError> {
        if self.left == 0 {
            return Err(UnitError {
                fatal: false,
                message: format!("{message} (retries exhausted)"),
            });
        }
        self.left -= 1;
        std::thread::sleep(self.delay);
        self.delay = (self.delay * 2).min(Duration::from_secs(1));
        Ok(())
    }
}

/// A single protocol exchange's failure mode.
enum CallError {
    /// Transient: worth a retry (connect refused, timeout, 5xx, 503
    /// job-cap, a torn stream).
    Retry(String),
    /// The worker understood us and said no (4xx), or the job failed
    /// server-side: retrying cannot help.
    Fatal(String),
}

fn classify_status(status: u16, body: &str, context: &str) -> CallError {
    let summary: String = body.trim().chars().take(200).collect();
    if status >= 500 || status == 503 {
        CallError::Retry(format!("{context}: HTTP {status}: {summary}"))
    } else {
        CallError::Fatal(format!("{context}: HTTP {status}: {summary}"))
    }
}

/// Runs one shard on one worker: create the job, stream its
/// fragments (resuming on torn streams), then read the verdict.
fn run_unit(
    addr: &str,
    client: &Client,
    unit: &Unit,
    sched: &Mutex<Sched>,
    config: &FleetConfig,
) -> Result<bool, UnitError> {
    let mut budget = RetryBudget::new(config.retries);
    let jid = loop {
        match create_job(addr, client, unit) {
            Ok(jid) => break jid,
            Err(CallError::Fatal(message)) => return Err(UnitError::fatal(message)),
            Err(CallError::Retry(message)) => budget.wait(&message)?,
        }
    };
    // `collected` counts fragments landed for THIS unit, so a resumed
    // stream asks for exactly the suffix it is missing.
    let mut collected = 0usize;
    loop {
        match stream_unit(addr, client, unit, &jid, &mut collected, sched) {
            Ok(()) => break,
            Err(CallError::Fatal(message)) => return Err(UnitError::fatal(message)),
            Err(CallError::Retry(message)) => budget.wait(&message)?,
        }
    }
    loop {
        match job_verdict(addr, client, &jid) {
            Ok(passed) => return Ok(passed),
            Err(CallError::Fatal(message)) => return Err(UnitError::fatal(message)),
            Err(CallError::Retry(message)) => budget.wait(&message)?,
        }
    }
}

fn create_job(addr: &str, client: &Client, unit: &Unit) -> Result<String, CallError> {
    let route = format!("/v1/jobs/{}", unit.grid.id());
    let response = client
        .post(addr, &route, unit.grid.spec())
        .map_err(|e| CallError::Retry(format!("POST {route}: {e}")))?;
    if response.status != 202 {
        return Err(classify_status(
            response.status,
            &response.body,
            &format!("POST {route}"),
        ));
    }
    let doc = json::parse(&response.body)
        .map_err(|e| CallError::Fatal(format!("POST {route}: unparseable job document: {e}")))?;
    doc.get("job")
        .and_then(|v| v.as_str())
        .map(str::to_owned)
        .ok_or_else(|| CallError::Fatal(format!("POST {route}: job document names no job")))
}

fn stream_unit(
    addr: &str,
    client: &Client,
    unit: &Unit,
    jid: &str,
    collected: &mut usize,
    sched: &Mutex<Sched>,
) -> Result<(), CallError> {
    let target = format!("/v1/jobs/{jid}/stream?from={collected}");
    let mut complete = false;
    let response = client
        .stream(addr, &target, |chunk| {
            if chunk.starts_with('{') {
                // The shard's own prologue: it describes the shard,
                // not the merged grid, so it never enters the merge.
                return;
            }
            if chunk == frame::DOCUMENT_EPILOGUE {
                complete = true;
                return;
            }
            // A fragment. Normalize away the shard-local separator;
            // the merger re-adds commas by global index.
            let fragment = chunk.strip_prefix(',').unwrap_or(chunk);
            let index = unit.offset + *collected;
            let mut state = sched.lock().expect("scheduler lock");
            state.slots[index] = Some(fragment.to_owned());
            *collected += 1;
        })
        .map_err(|e| CallError::Retry(format!("GET {target}: {e}")))?;
    if response.status != 200 {
        return Err(classify_status(
            response.status,
            &response.body,
            &format!("GET {target}"),
        ));
    }
    if !complete {
        return Err(CallError::Retry(format!(
            "GET {target}: stream ended before the epilogue"
        )));
    }
    Ok(())
}

fn job_verdict(addr: &str, client: &Client, jid: &str) -> Result<bool, CallError> {
    let target = format!("/v1/jobs/{jid}");
    let response = client
        .get(addr, &target)
        .map_err(|e| CallError::Retry(format!("GET {target}: {e}")))?;
    if response.status != 200 {
        return Err(classify_status(
            response.status,
            &response.body,
            &format!("GET {target}"),
        ));
    }
    let doc = json::parse(&response.body)
        .map_err(|e| CallError::Fatal(format!("GET {target}: unparseable job document: {e}")))?;
    match doc.get("status").and_then(|v| v.as_str()) {
        Some("done") => Ok(doc.get("passed") == Some(&json::Json::Bool(true))),
        Some("failed") => Err(CallError::Fatal(format!("job {jid} failed server-side"))),
        // The epilogue only flows once the job is finished, so
        // `running` here is a transient view worth one more look.
        _ => Err(CallError::Retry(format!(
            "job {jid} not settled after its stream completed"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqla_core::experiments::find;
    use cqla_sweep::{Sweep, SweepRun};

    fn fig2_grid(expr: &str) -> Grid {
        Grid::parse("fig2", &find("fig2").unwrap().specs(), expr).unwrap()
    }

    /// Splits `grid` into `n` units the way the scheduler does and
    /// checks they cover its points in order, each re-parsing from its
    /// own spec text (the job body) via `reparse`.
    fn assert_units_cover(
        grid: &Grid,
        n: usize,
        reparse: impl Fn(&str) -> Vec<Vec<(String, String)>>,
    ) {
        let unit = Unit {
            grid: grid.clone(),
            offset: 0,
        };
        let units = unit.split(n);
        assert_eq!(units.len(), n.min(grid.len()));
        let merged: Vec<_> = units.iter().flat_map(|u| u.grid.points()).collect();
        assert_eq!(merged, grid.points());
        let mut offset = 0;
        for u in &units {
            assert_eq!(u.offset, offset, "units carry their global offset");
            offset += u.grid.len();
            assert_eq!(reparse(u.grid.spec()), u.grid.points());
        }
    }

    #[test]
    fn grid_work_splits_cover_the_grid_in_order() {
        let grid = fig2_grid("bits=8,16,24 cap=4,8");
        for n in 1..=8 {
            assert_units_cover(&grid, n, |spec| fig2_grid(spec).points());
        }
    }

    #[test]
    fn sweep_work_splits_cover_the_points_in_order() {
        for name in ["quick", "table4"] {
            let sweep = Sweep::builtin(name).unwrap();
            let mut offset = 0;
            for grid in sweep.grids() {
                assert_eq!(grid.id(), "sweep", "sweeps post to /v1/jobs/sweep");
                for n in [1, 2, 3, 5, 8, 20] {
                    assert_units_cover(grid, n, |spec| {
                        Sweep::parse_batch(spec).unwrap().grids()[0].points()
                    });
                    // Every shard body re-parses, on the worker, to
                    // exactly its slice of the sweep's design points.
                    let unit = Unit {
                        grid: grid.clone(),
                        offset,
                    };
                    for u in unit.split(n) {
                        let reparsed = Sweep::parse_batch(u.grid.spec()).unwrap();
                        let slice = &sweep.points()[u.offset..u.offset + u.grid.len()];
                        assert_eq!(reparsed.points(), slice, "{name}: {}", u.grid.spec());
                    }
                }
                offset += grid.len();
            }
        }
    }

    #[test]
    fn grid_work_bodies_reparse_to_the_shard() {
        let grid = fig2_grid("bits=8,16,24,32");
        assert_units_cover(&grid, 3, |spec| fig2_grid(spec).points());
    }

    #[test]
    fn compile_seed_grids_shard_losslessly() {
        // `compile` is a registry entry like any other, so seed sweeps
        // shard across a fleet with the same order-preserving,
        // reparseable splits the analytic grids get.
        let specs = find("compile").unwrap().specs();
        let grid = Grid::parse("compile", &specs, "seed=1,2,3,4,5 qubits=8 gates=32").unwrap();
        for n in 1..=6 {
            assert_units_cover(&grid, n, |spec| {
                Grid::parse("compile", &specs, spec).unwrap().points()
            });
        }
    }

    #[test]
    fn dist_errors_attribute_the_worker() {
        let attributed = DistError::at("127.0.0.1:9", "connect refused");
        assert_eq!(
            attributed.to_string(),
            "worker 127.0.0.1:9: connect refused"
        );
        let bare = DistError {
            worker: None,
            message: "no workers given".to_owned(),
        };
        assert_eq!(bare.to_string(), "no workers given");
    }

    #[test]
    fn empty_fleets_fail_before_any_network_io() {
        let sweep = Sweep::builtin("quick").unwrap();
        let head = SweepRun::head(sweep.name(), sweep.len());
        let err = run_grids(sweep.grids(), head, &FleetConfig::new(Vec::new())).unwrap_err();
        assert!(err.message.contains("no workers"), "{err}");
        assert_eq!(err.worker, None);
    }

    #[test]
    fn retry_budgets_exhaust_after_the_configured_attempts() {
        let mut budget = RetryBudget::new(1);
        assert!(budget.wait("first failure").is_ok());
        let err = budget.wait("second failure").unwrap_err();
        assert!(!err.fatal, "exhaustion means dead worker, not fatal run");
        assert!(err.message.contains("retries exhausted"), "{}", err.message);
    }
}

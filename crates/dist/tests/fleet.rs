//! Coordinator integration tests against real in-process
//! [`cqla_serve::Server`]s on ephemeral ports: byte-identity of the
//! merged document with single-process runs, stream-level protocol
//! behaviour, and the failure paths — a dead worker re-sharded around
//! with retries, and `retries: 0` failing loudly with the worker
//! named.

use std::net::SocketAddr;
use std::time::Duration;

use cqla_core::experiments::{find, Grid};
use cqla_dist::{run_grids, Client, DistError, DistRun, FleetConfig};
use cqla_serve::{Server, ServerHandle};
use cqla_sweep::{GridRun, Sweep, SweepRun};

/// A live in-process worker on an ephemeral port, shut down on drop.
struct Worker {
    addr: SocketAddr,
    handle: ServerHandle,
    join: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Worker {
    fn start() -> Self {
        let server = Server::bind("127.0.0.1:0", 2).expect("bind ephemeral port");
        let addr = server.local_addr();
        let handle = server.handle();
        let join = Some(std::thread::spawn(move || server.run()));
        Self { addr, handle, join }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            join.join()
                .expect("server thread exits")
                .expect("clean shutdown");
        }
    }
}

/// An address that refuses connections: bound, then immediately
/// dropped. Nothing re-binds an ephemeral port that fast, so connects
/// fail deterministically.
fn dead_port() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    listener.local_addr().expect("addr").to_string()
}

/// A design-space sweep across the fleet, under the sweep document's head.
fn run_sweep(sweep: &Sweep, fleet: &FleetConfig) -> Result<DistRun, DistError> {
    let head = SweepRun::head(sweep.name(), sweep.len());
    run_grids(sweep.grids(), head, fleet)
}

/// A registry grid across the fleet, under the grid document's head.
fn run_grid(grid: &Grid, fleet: &FleetConfig) -> Result<DistRun, DistError> {
    let head = GridRun::head(grid.id(), grid.spec(), grid.len());
    run_grids(std::slice::from_ref(grid), head, fleet)
}

fn fleet_of(workers: &[&Worker]) -> FleetConfig {
    FleetConfig::new(workers.iter().map(|w| w.addr.to_string()).collect())
}

#[test]
fn distributed_sweeps_match_the_single_process_document() {
    let workers = [Worker::start(), Worker::start(), Worker::start()];
    let fleet = fleet_of(&[&workers[0], &workers[1], &workers[2]]);
    // One-grid builtins, an expression, and `table4` — one grid per
    // Table 4 row, so its shards come from several grids.
    for spec in [
        "quick",
        "code=steane bits=32,64 xfer=5,10",
        "table5",
        "table4",
    ] {
        let sweep = Sweep::parse(spec).unwrap();
        let expected = format!("{}\n", SweepRun::execute(&sweep, 2).to_json().to_pretty());
        let run = run_sweep(&sweep, &fleet).expect("fleet completes");
        assert_eq!(run.document(), expected, "spec {spec:?} must merge exactly");
        assert!(run.passed());
    }
}

#[test]
fn distributed_grids_match_the_single_process_document() {
    let workers = [Worker::start(), Worker::start()];
    let fleet = fleet_of(&[&workers[0], &workers[1]]);
    let grid = Grid::parse(
        "fig2",
        &find("fig2").unwrap().specs(),
        "bits=8,16,24,32 cap=4,8",
    )
    .unwrap();
    let expected = format!("{}\n", GridRun::execute(&grid, 2).to_json().to_pretty());
    let run = run_grid(&grid, &fleet).expect("fleet completes");
    assert_eq!(run.document(), expected, "grid document must merge exactly");
    assert!(run.passed());
}

#[test]
fn one_worker_fleets_degenerate_to_a_proxy() {
    let worker = Worker::start();
    let fleet = fleet_of(&[&worker]);
    let sweep = Sweep::parse("cache").unwrap();
    let expected = format!("{}\n", SweepRun::execute(&sweep, 1).to_json().to_pretty());
    let run = run_sweep(&sweep, &fleet).expect("single worker completes");
    assert_eq!(run.document(), expected);
}

#[test]
fn dead_workers_are_resharded_around_with_retries() {
    // One real worker, one address that refuses every connect. With a
    // retry budget the coordinator burns the dead worker's retries,
    // declares it dead, re-shards its half onto the survivor, and the
    // merged document is still byte-identical.
    let worker = Worker::start();
    let mut fleet = FleetConfig::new(vec![worker.addr.to_string(), dead_port()]);
    fleet.retries = 1;
    fleet.connect_timeout = Duration::from_millis(500);
    let sweep = Sweep::parse("quick").unwrap();
    let expected = format!("{}\n", SweepRun::execute(&sweep, 2).to_json().to_pretty());
    let run = run_sweep(&sweep, &fleet).expect("survivor absorbs the lost shard");
    assert_eq!(run.document(), expected, "re-shard must not change a byte");
}

#[test]
fn zero_retries_fail_loudly_and_name_the_worker() {
    let worker = Worker::start();
    let dead = dead_port();
    let mut fleet = FleetConfig::new(vec![worker.addr.to_string(), dead.clone()]);
    fleet.retries = 0;
    fleet.connect_timeout = Duration::from_millis(500);
    let sweep = Sweep::parse("quick").unwrap();
    let err = run_sweep(&sweep, &fleet).expect_err("a dead worker must be fatal");
    assert_eq!(err.worker.as_deref(), Some(dead.as_str()), "{err}");
    assert!(err.to_string().contains(&dead), "{err}");
}

#[test]
fn a_fleet_with_no_survivors_is_fatal() {
    let mut fleet = FleetConfig::new(vec![dead_port(), dead_port()]);
    fleet.retries = 1;
    fleet.connect_timeout = Duration::from_millis(300);
    let sweep = Sweep::parse("quick").unwrap();
    let err = run_sweep(&sweep, &fleet).expect_err("no survivors");
    assert!(err.worker.is_some(), "the last death is attributed: {err}");
    assert!(err.message.contains("no workers remain"), "{err}");
}

#[test]
fn protocol_rejections_are_fatal_not_retried() {
    // A 4xx from a worker means retrying cannot help. The coordinator
    // parses every spec before dispatch, so it cannot ship an invalid
    // one itself; pin the worker-side rejection at the client level,
    // then prove the worker survived it by completing a real grid.
    let worker = Worker::start();
    let fleet = fleet_of(&[&worker]);
    let grid = Grid::parse("fig2", &find("fig2").unwrap().specs(), "bits=8,16").unwrap();
    let client = Client::new(Duration::from_secs(3));
    let response = client
        .post(&worker.addr.to_string(), "/v1/jobs/sweep", "widht=64")
        .expect("worker answers");
    assert_eq!(response.status, 400);
    // And the grid path still completes, proving the worker survived.
    let run = run_grid(&grid, &fleet).expect("fleet completes");
    assert!(run.passed());
}

#[test]
fn the_streaming_client_reads_worker_health() {
    let worker = Worker::start();
    let client = Client::default();
    let health = client
        .get(&worker.addr.to_string(), "/healthz")
        .expect("healthz answers");
    assert_eq!(health.status, 200);
    let doc = cqla_core::json::parse(&health.body).expect("health is JSON");
    assert_eq!(doc.get("ok"), Some(&cqla_core::Json::Bool(true)));
    assert!(
        doc.get("jobs_active").is_some() && doc.get("streams_open").is_some(),
        "capacity report: {}",
        health.body
    );
}

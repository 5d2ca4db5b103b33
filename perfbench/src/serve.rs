//! `serve-mixed`: an in-process `cqla serve` under a seeded request mix.
//!
//! The server runs on an ephemeral loopback port with two workers; two
//! client threads each hold one keep-alive connection and send their next
//! request only after the previous response arrived (a closed loop). The
//! mix comes in cycles of 50 requests, shuffled by the seed:
//!
//! * 35 `hit`s — `GET /v1/run/{id}` over a hot set warmed during set-up;
//! * 10 `miss`es — `GET /v1/run/machine` with seed-drawn tech, code,
//!   blocks, xfer and cache at bits 256 ×4, 512 ×3 and 1024 ×3, every key
//!   distinct within a run;
//! * 4 `compile`s — `POST /v1/compile` with a distinct 16-qubit program;
//! * 1 `grid` — `POST /v1/sweep/fig2` over a seeded, run-unique range of
//!   four adder widths, timed until the last chunk arrives.
//!
//! Every body must equal the in-process document for the same request.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cqla_circuit::asm;
use cqla_compile::random::random_circuit;
use cqla_core::experiments::{find, Grid};
use cqla_core::{CqlaConfig, EvalCtx, HierarchyConfig, Json};
use cqla_dist::client::read_response;
use cqla_ecc::Code;
use cqla_iontrap::TechPoint;
use cqla_serve::{Server, ServerHandle};
use cqla_sweep::GridRun;

use crate::plan::{traced_run, Call, Direct, Replay, Study};
use crate::trace::Tracer;
use crate::{percentile_ms, ratio, repeated_setup, Report, Rng, Timed};

/// Registry artifacts served from the LRU (warmed during set-up).
const HOT: [&str; 7] = [
    "table1", "table2", "table3", "table4", "fig6b", "fig8a", "verify",
];
const CYCLE: usize = 50;
const HITS: usize = 35;
const COMPILES: usize = 4;
/// Bits of the ten misses of each cycle.
const MISS_BITS: [u32; 10] = [256, 256, 256, 256, 512, 512, 512, 1024, 1024, 1024];
const MISS_BLOCKS: [u32; 7] = [16, 25, 36, 49, 64, 81, 100];
const MISS_CACHE: [&str; 9] = ["1", "1.25", "1.5", "1.75", "2", "2.25", "2.5", "2.75", "3"];
const MISS_XFER: u32 = 20;
/// Grids per run before their ranges repeat, and points per grid.
const GRID_STARTS: usize = 60;
const GRID_POINTS: u32 = 4;
/// Figure 2's default block cap, which grid points keep.
const FIG2_CAP: u32 = 15;
const CLIENTS: usize = 2;
const WORKERS: usize = 2;

/// `op_tail_ms` is p98: with 50 requests per cycle and at least ten
/// cycles in a 30 s run, at least ten samples lie beyond it.
const TAIL: f64 = 0.98;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit,
    Miss,
    Compile,
    Grid,
}

#[derive(Debug, Clone)]
enum Request {
    Hit(&'static str),
    Miss {
        tech: TechPoint,
        code: Code,
        bits: u32,
        blocks: u32,
        xfer: u32,
        cache: &'static str,
    },
    Compile {
        text: String,
        width: u32,
    },
    /// Figure 2 over adder widths `start..start + GRID_POINTS`.
    Grid {
        start: u32,
    },
}

impl Request {
    fn class(&self) -> Class {
        match self {
            Self::Hit(_) => Class::Hit,
            Self::Miss { .. } => Class::Miss,
            Self::Compile { .. } => Class::Compile,
            Self::Grid { .. } => Class::Grid,
        }
    }

    fn label(&self) -> String {
        match self {
            Self::Hit(id) => format!("hit-{id}"),
            Self::Miss { bits, .. } => format!("miss-{bits}"),
            Self::Compile { width, .. } => format!("compile-w{width}"),
            Self::Grid { start } => format!("grid-{start}"),
        }
    }

    fn machine_params(&self) -> Vec<(&'static str, String)> {
        match self {
            Self::Miss {
                tech,
                code,
                bits,
                blocks,
                xfer,
                cache,
            } => vec![
                ("tech", tech.to_string()),
                ("code", code.slug().to_owned()),
                ("bits", bits.to_string()),
                ("blocks", blocks.to_string()),
                ("xfer", xfer.to_string()),
                ("cache", (*cache).to_owned()),
            ],
            _ => Vec::new(),
        }
    }

    /// The raw HTTP/1.1 request.
    fn http(&self) -> String {
        let post = |target: String, body: &str| {
            format!(
                "POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
        };
        match self {
            Self::Hit(id) => format!("GET /v1/run/{id} HTTP/1.1\r\nHost: bench\r\n\r\n"),
            Self::Miss { .. } => {
                let query = self
                    .machine_params()
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join("&");
                format!("GET /v1/run/machine?{query} HTTP/1.1\r\nHost: bench\r\n\r\n")
            }
            Self::Compile { text, width } => post(format!("/v1/compile?width={width}"), text),
            Self::Grid { start } => post("/v1/sweep/fig2".to_owned(), &grid_expr(*start)),
        }
    }

    /// The in-process document the server must answer with, evaluated on
    /// `ctx` (every memoized value is a pure function of its key, so a
    /// shared context yields the same bytes as a fresh one).
    fn expected(&self, ctx: &EvalCtx) -> String {
        let doc = match self {
            Self::Hit(id) => find(id)
                .expect("hot id")
                .run_ctx(ctx)
                .document(id)
                .to_pretty(),
            Self::Miss { .. } => {
                let mut exp = find("machine").expect("machine is registered");
                for (k, v) in self.machine_params() {
                    exp.set(k, &v).expect("drawn parameters are valid");
                }
                exp.run_ctx(ctx).document("machine").to_pretty()
            }
            Self::Compile { text, width } => {
                crate::compile::compile_experiment(text.trim(), *width)
                    .run_ctx(ctx)
                    .document("compile")
                    .to_pretty()
            }
            Self::Grid { start } => GridRun::execute(&fig2_grid(*start), 1)
                .to_json()
                .to_pretty(),
        };
        format!("{doc}\n")
    }
}

/// The grid body: a seeded range of adder widths.
fn grid_expr(start: u32) -> String {
    format!("bits={start}..={}", start + GRID_POINTS - 1)
}

fn fig2_grid(start: u32) -> Grid {
    let fig2 = find("fig2").expect("fig2 is registered");
    Grid::parse("fig2", &fig2.specs(), &grid_expr(start)).expect("drawn grid parses")
}

/// Deterministic request source: cycle `c` is generated from the seed
/// and `c` alone, so a run's first cycle is the same in every phase.
struct Generator {
    seed: u64,
    /// Per miss bits value, a seeded permutation of the other parameters.
    miss_perm: HashMap<u32, Vec<usize>>,
    grid_perm: Vec<usize>,
    misses_used: HashMap<u32, usize>,
    grids_used: usize,
    compiles_used: u64,
    issued: Vec<Request>,
}

impl Generator {
    fn new(seed: u64) -> Self {
        let space = 2 * 2 * MISS_BLOCKS.len() * MISS_XFER as usize * MISS_CACHE.len();
        let mut miss_perm = HashMap::new();
        for (k, bits) in [256u32, 512, 1024].into_iter().enumerate() {
            let mut perm: Vec<usize> = (0..space).collect();
            Rng::new(seed, 10 + k as u64).shuffle(&mut perm);
            miss_perm.insert(bits, perm);
        }
        let mut grid_perm: Vec<usize> = (0..GRID_STARTS).collect();
        Rng::new(seed, 20).shuffle(&mut grid_perm);
        Self {
            seed,
            miss_perm,
            grid_perm,
            misses_used: HashMap::new(),
            grids_used: 0,
            compiles_used: 0,
            issued: Vec::new(),
        }
    }

    /// Appends the next cycle of requests.
    fn push_cycle(&mut self) {
        let c = (self.issued.len() / CYCLE) as u64;
        let mut rng = Rng::new(self.seed, 1000 + c);
        let mut cycle: Vec<Request> = Vec::with_capacity(CYCLE);
        for _ in 0..HITS {
            cycle.push(Request::Hit(HOT[rng.below(HOT.len())]));
        }
        for bits in MISS_BITS {
            let used = self.misses_used.entry(bits).or_insert(0);
            let perm = &self.miss_perm[&bits];
            let mut x = perm[*used % perm.len()];
            *used += 1;
            let mut pick = |n: usize| {
                let v = x % n;
                x /= n;
                v
            };
            cycle.push(Request::Miss {
                tech: [TechPoint::Current, TechPoint::Projected][pick(2)],
                code: [Code::Steane713, Code::BaconShor913][pick(2)],
                bits,
                blocks: MISS_BLOCKS[pick(MISS_BLOCKS.len())],
                xfer: 1 + pick(MISS_XFER as usize) as u32,
                cache: MISS_CACHE[pick(MISS_CACHE.len())],
            });
        }
        for _ in 0..COMPILES {
            self.compiles_used += 1;
            let circuit = random_circuit(
                16,
                512,
                self.seed.wrapping_mul(1_000_003) + self.compiles_used,
            );
            cycle.push(Request::Compile {
                text: asm::emit(&circuit),
                width: [9, 36][rng.below(2)],
            });
        }
        let start = 16 + GRID_POINTS * self.grid_perm[self.grids_used % GRID_STARTS] as u32;
        self.grids_used += 1;
        cycle.push(Request::Grid { start });
        rng.shuffle(&mut cycle);
        self.issued.extend(cycle);
    }

    fn get(&mut self, i: usize) -> Request {
        while self.issued.len() <= i {
            self.push_cycle();
        }
        self.issued[i].clone()
    }
}

/// A server running on its own thread; dropping it shuts the server down
/// and joins the thread.
struct Running {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Running {
    fn start() -> std::io::Result<Self> {
        let server = Server::bind("127.0.0.1:0", WORKERS)?;
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Self {
            addr,
            handle,
            thread: Some(thread),
        })
    }

    /// One request on a fresh connection (set-up and stats only).
    fn once(&self, request: &str) -> std::io::Result<(u16, String)> {
        let mut stream = TcpStream::connect(self.addr)?;
        stream.write_all(request.as_bytes())?;
        let resp = read_response(&mut BufReader::new(stream))?;
        Ok((resp.status, resp.body))
    }

    fn stats(&self) -> HashMap<String, i64> {
        let body = self
            .once("GET /v1/stats HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
            .map(|(_, body)| body)
            .unwrap_or_default();
        let mut out = HashMap::new();
        if let Ok(Json::Obj(fields)) = cqla_core::json::parse(&body) {
            for (k, v) in fields {
                if let Json::Int(n) = v {
                    out.insert(k, n);
                }
            }
        }
        out
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Binds and starts the server and warms the hot set.
fn start_warm() -> std::io::Result<Running> {
    let server = Running::start()?;
    for id in HOT {
        let (status, _) = server.once(&format!(
            "GET /v1/run/{id} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
        ))?;
        if status != 200 {
            return Err(std::io::Error::other(format!(
                "warming {id}: status {status}"
            )));
        }
    }
    Ok(server)
}

/// [`start_warm`], ending the run when the server cannot start.
fn warm_server() -> Running {
    start_warm().unwrap_or_else(|e| {
        eprintln!("cqla-perfbench: cannot start the server: {e}");
        std::process::exit(1);
    })
}

/// One answered request.
struct Answer {
    index: usize,
    latency: Duration,
    status: u16,
    body: String,
}

/// Drives requests `0..` from `generator` with [`CLIENTS`] closed-loop
/// clients until `stop(i)` says index `i` is not to be sent. Returns the
/// answers in completion order, the failed exchanges, and the
/// reconnect count.
fn drive(
    addr: SocketAddr,
    generator: &Mutex<Generator>,
    stop: &(dyn Fn(usize) -> bool + Sync),
) -> (Vec<Answer>, u64, u64) {
    let next = Mutex::new((0usize, false));
    let results: Vec<(Vec<Answer>, u64, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut answers = Vec::new();
                    let (mut failed, mut reconnects) = (0u64, 0u64);
                    let mut conn: Option<(TcpStream, BufReader<TcpStream>)> = None;
                    let mut connected_once = false;
                    loop {
                        let (i, request) = {
                            let mut n = next.lock().expect("request counter lock");
                            if n.1 || stop(n.0) {
                                n.1 = true;
                                break;
                            }
                            let i = n.0;
                            n.0 += 1;
                            drop(n);
                            (i, generator.lock().expect("generator lock").get(i).http())
                        };
                        if conn.is_none() {
                            match TcpStream::connect(addr)
                                .and_then(|s| Ok((s.try_clone()?, BufReader::new(s))))
                            {
                                Ok(c) => {
                                    reconnects += u64::from(connected_once);
                                    connected_once = true;
                                    conn = Some(c);
                                }
                                Err(_) => {
                                    failed += 1;
                                    continue;
                                }
                            }
                        }
                        let (writer, reader) = conn.as_mut().expect("connected");
                        let start = Instant::now();
                        let response = writer
                            .write_all(request.as_bytes())
                            .and_then(|()| read_response(reader));
                        let latency = start.elapsed();
                        match response {
                            Ok(resp) => {
                                if resp.head.to_ascii_lowercase().contains("connection: close") {
                                    conn = None;
                                }
                                answers.push(Answer {
                                    index: i,
                                    latency,
                                    status: resp.status,
                                    body: resp.body,
                                });
                            }
                            Err(_) => {
                                failed += 1;
                                conn = None;
                            }
                        }
                    }
                    (answers, failed, reconnects)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let mut answers = Vec::new();
    let (mut failed, mut reconnects) = (0, 0);
    for (a, f, r) in results {
        answers.extend(a);
        failed += f;
        reconnects += r;
    }
    (answers, failed, reconnects)
}

/// Checks every answer against the in-process document; returns the
/// number that differ.
fn check(answers: &[Answer], generator: &Mutex<Generator>) -> u64 {
    let ctx = EvalCtx::new();
    let mut expected: HashMap<String, String> = HashMap::new();
    let mut bad = 0;
    for a in answers {
        let request = generator.lock().expect("generator lock").get(a.index);
        let want = expected
            .entry(request.http())
            .or_insert_with(|| request.expected(&ctx));
        bad += u64::from(a.status != 200 || a.body != *want);
    }
    bad
}

fn delta(before: &HashMap<String, i64>, after: &HashMap<String, i64>, key: &str) -> f64 {
    (after.get(key).copied().unwrap_or(0) - before.get(key).copied().unwrap_or(0)) as f64
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Report {
    let ((server, generator), setup_s) = repeated_setup(|| (warm_server(), Generator::new(seed)));
    let generator = Mutex::new(generator);
    let before = server.stats();
    let start = Instant::now();
    let stop = |i: usize| i.is_multiple_of(CYCLE) && start.elapsed() >= budget;
    let (answers, failed, reconnects) = drive(server.addr, &generator, &stop);
    let after = server.stats();
    let bad = check(&answers, &generator);

    let timed = Timed {
        ops: answers.iter().map(|a| (a.index, a.latency)).collect(),
        failed: failed + bad,
        clients: CLIENTS,
        // Unscaled: the latency of this workload is dominated by waiting
        // on the network stack, not by the host's CPU speed.
        kernel: Vec::new(),
    };
    let mut report = Report::end_to_end(setup_s, &timed, TAIL, 0);
    report.attempted += failed;
    if !trace {
        return report;
    }

    let class_p50 = |class: Class| {
        let g = generator.lock().expect("generator lock");
        percentile_ms(
            answers
                .iter()
                .filter(|a| g.issued[a.index].class() == class)
                .map(|a| a.latency),
            0.5,
        )
    };
    let class_metrics = [
        ("serve.hit_p50_ms", class_p50(Class::Hit)),
        ("serve.miss_p50_ms", class_p50(Class::Miss)),
        ("serve.compile_p50_ms", class_p50(Class::Compile)),
        ("serve.grid_p50_ms", class_p50(Class::Grid)),
    ];
    let lru_hits = delta(&before, &after, "cache_hits");
    let lru_lookups =
        lru_hits + delta(&before, &after, "cache_misses") + delta(&before, &after, "coalesced");
    let memo_hits = delta(&before, &after, "memo_hits");
    let memo_all = memo_hits + delta(&before, &after, "memo_misses");
    drop(server);

    // The traced pass: the first cycle again, sent untraced to one fresh
    // server (the coverage baseline) and then traced to another. A
    // discarded pass to a third server goes first: the first fresh server
    // after the timed phase pays the allocator's first touches of the
    // 1024-bit misses' memory (measured: 1024-bit misses ×1.7).
    let first_cycle = |i: usize| i >= CYCLE;
    drive(warm_server().addr, &generator, &first_cycle);
    let (baseline, baseline_failed, _) = drive(warm_server().addr, &generator, &first_cycle);
    let traced_server = warm_server();
    let t_before = traced_server.stats();
    let (traced, traced_failed, _) = drive(traced_server.addr, &generator, &first_cycle);
    let t_after = traced_server.stats();
    drop(traced_server);
    let mut tracer = Tracer::new();
    tracer.count(
        "model.lru_misses",
        delta(&t_before, &t_after, "cache_misses") as u64,
    );
    let mut overheads = Vec::new();
    let mut traced_bad = traced_failed + baseline_failed;
    // A traced request costs its round trip plus its in-process replay.
    let untraced: HashMap<usize, Duration> =
        baseline.iter().map(|a| (a.index, a.latency)).collect();
    let mut traced_time = Duration::ZERO;
    for a in &traced {
        let request = generator.lock().expect("generator lock").get(a.index);
        let start = Instant::now();
        let baseline_latency = untraced.get(&a.index).copied().unwrap_or_default();
        let (doc, inproc) = traced_request(&mut tracer, &request, a.latency, baseline_latency);
        traced_time += a.latency + start.elapsed();
        overheads.push(a.latency.saturating_sub(inproc));
        traced_bad += u64::from(a.status != 200 || doc.is_some_and(|d| d != a.body));
    }
    traced_bad += baseline.iter().filter(|a| a.status != 200).count() as u64;
    let untraced_time: Duration = untraced.values().sum();
    report.add_layers(tracer, traced.len(), untraced_time, traced_time);
    for (name, value) in class_metrics {
        report.set(name, value);
    }
    report.set(
        "serve.overhead_p50_ms",
        percentile_ms(overheads.into_iter(), 0.5),
    );
    report.set("serve.lru_hit_ratio", ratio(lru_hits, lru_lookups));
    report.set("serve.coalesced", delta(&before, &after, "coalesced"));
    report.set("serve.memo_hit_ratio", ratio(memo_hits, memo_all));
    report.set("serve.reconnects", reconnects as f64);
    report.attempted += (traced.len() + baseline.len()) as u64 + traced_failed + baseline_failed;
    report.failed += traced_bad;
    report
}

/// Replays one answered request in process under a `serve` span of the
/// measured round-trip duration, so the span's self time is the round
/// trip minus the in-process work. Returns the in-process document (for
/// requests the server computes) and the cold in-process time
/// (`run_ctx` plus `to_pretty`) the round trip contains.
fn traced_request(
    t: &mut Tracer,
    request: &Request,
    round_trip: Duration,
    untraced: Duration,
) -> (Option<String>, Duration) {
    t.begin_op(request.label());
    let s = t.open("serve");
    let now = t.now();
    t.close(s, now.saturating_sub(round_trip), now);
    t.nest(s);
    let out = match request {
        Request::Hit(_) => (None, Duration::ZERO),
        Request::Miss {
            tech,
            code,
            bits,
            blocks,
            xfer,
            cache,
        } => {
            let mut exp = find("machine").expect("machine is registered");
            for (k, v) in request.machine_params() {
                exp.set(k, &v).expect("drawn parameters are valid");
            }
            let mut hier = HierarchyConfig::new(*code, *bits, *xfer, *blocks);
            hier.cache_factor = cache.parse().expect("cache factors are decimals");
            let plan = [
                Call::Study(Study::Spec(*tech, CqlaConfig::new(*code, *bits, *blocks))),
                Call::Study(Study::Hier(*tech, hier)),
            ];
            let run = traced_run(t, exp.as_ref(), &plan, |_, _| {});
            (Some(format!("{}\n", run.pretty)), run.cold)
        }
        Request::Compile { text, width } => {
            match crate::compile::traced_compile(t, text.trim(), *width) {
                Some(run) => (Some(format!("{}\n", run.pretty)), run.cold),
                None => (Some(String::new()), Duration::ZERO),
            }
        }
        Request::Grid { start } => {
            let grid = fig2_grid(*start);
            let sw = t.open("sweep");
            {
                let mut replay = Replay::new(t);
                for bits in *start..*start + GRID_POINTS {
                    replay.direct(
                        &Direct::Fig2 {
                            bits,
                            cap: FIG2_CAP,
                        },
                        Some(sw),
                    );
                }
            }
            let started = Instant::now();
            let run = GridRun::execute(&grid, 1);
            let executed = started.elapsed();
            let end = t.now();
            t.close(sw, end.saturating_sub(executed), end);
            let doc = t.time("sweep", || run.to_json());
            let pretty = t.time("json", || doc.to_pretty());
            t.count("json.bytes", pretty.len() as u64);
            (Some(format!("{pretty}\n")), started.elapsed())
        }
    };
    t.end_op(untraced);
    out
}

//! The CQLA benchmark: three workloads, one command.
//!
//! ```text
//! cqla-perfbench --workload paper-runs|compile-programs|serve-mixed
//!                --seed N --seconds S --trace 0|1 [--spans FILE]
//! ```
//!
//! Every run sets its workload up several times (reporting the median
//! set-up time), then drives it in a closed loop for `--seconds` with
//! tracing off, checking every output outside the timed regions. With
//! `--trace 1` it then makes one traced pass over the workload's op
//! cycle, recording spans around the calls into each layer, and reports
//! per-layer self times and exact model counts instead of the end-to-end
//! metrics. The last line of standard output is the result object.

mod compile;
mod paper;
mod plan;
mod serve;
mod trace;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// How many times each run repeats its set-up; `setup_s` is the median.
const SETUP_REPEATS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                };
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        spans,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cqla-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let report = match args.workload.as_str() {
        "paper-runs" => paper::run(args.seed, budget, args.trace),
        "compile-programs" => compile::run(args.seed, budget, args.trace),
        "serve-mixed" => serve::run(args.seed, budget, args.trace),
        other => {
            eprintln!("cqla-perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    if let (Some(path), Some(tracer)) = (&args.spans, &report.tracer) {
        if let Err(e) = std::fs::write(path, tracer.to_jsonl()) {
            eprintln!("cqla-perfbench: cannot write spans to {path}: {e}");
            std::process::exit(1);
        }
    }
    report.print(&args.workload, args.trace);
}

/// A small deterministic generator (SplitMix64): every input the
/// benchmark makes is a function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times and keeps the last result; the
/// median duration is the run's `setup_s`.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    (last.expect("set-up ran"), times[times.len() / 2])
}

/// How long [`reference_kernel`] takes on the host the benchmark was
/// defined on (2-vCPU Intel Xeon VM at 2.1 GHz) when no other tenant slows
/// it. Times of single-thread workloads are scaled to this host speed.
const REFERENCE_KERNEL_MS: f64 = 6.0;

/// A fixed CPU and memory workload that shares no code with the program:
/// sort 200 000 pseudo-random words and hash a quarter of them. Its best
/// time in a run measures how fast the host ran during that run.
fn reference_kernel() -> Duration {
    let start = Instant::now();
    let mut rng = Rng::new(7, 7);
    let mut words: Vec<u64> = (0..200_000).map(|_| rng.next_u64()).collect();
    words.sort_unstable();
    let table: HashMap<u64, u64> = words.iter().step_by(4).map(|&w| (w >> 40, w)).collect();
    std::hint::black_box(table);
    start.elapsed()
}

/// Latencies of one timed phase.
///
/// An op that ran several times on identical inputs counts each time with
/// its fastest latency of the run: on a shared machine the slower repeats
/// measure other tenants, not the op. Ops that never repeat count with
/// their one latency.
#[derive(Debug, Default)]
pub struct Timed {
    /// `(op id, latency)` in completion order; ops with equal ids have
    /// identical inputs.
    pub ops: Vec<(usize, Duration)>,
    pub failed: u64,
    /// Closed-loop clients that issued the ops concurrently.
    pub clients: usize,
    /// [`reference_kernel`] times taken between cycles; empty when the
    /// workload is not scaled to the reference host speed.
    pub kernel: Vec<Duration>,
}

impl Timed {
    /// Each op's latency, with repeats replaced by their fastest run.
    fn latencies(&self) -> impl Iterator<Item = Duration> + '_ {
        let mut best: HashMap<usize, Duration> = HashMap::new();
        for &(id, d) in &self.ops {
            best.entry(id).and_modify(|b| *b = (*b).min(d)).or_insert(d);
        }
        self.ops.iter().map(move |(id, _)| best[id])
    }

    /// The closed loop's rate at these latencies: clients × ops ÷ summed
    /// latency.
    pub fn ops_per_s(&self) -> f64 {
        let busy: Duration = self.latencies().sum();
        ratio((self.clients * self.ops.len()) as f64, busy.as_secs_f64())
    }

    /// Nearest-rank percentile of the op latencies, in milliseconds.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        percentile_ms(self.latencies(), p)
    }

    /// The best [`reference_kernel`] time of the run, in milliseconds.
    pub fn kernel_ms(&self) -> Option<f64> {
        self.kernel.iter().min().map(|d| d.as_secs_f64() * 1e3)
    }

    /// The factor that scales this run's times to the reference host
    /// speed (1 for unscaled workloads).
    pub fn host_scale(&self) -> f64 {
        self.kernel_ms().map_or(1.0, |ms| REFERENCE_KERNEL_MS / ms)
    }
}

pub fn percentile_ms(latencies: impl Iterator<Item = Duration>, p: f64) -> f64 {
    let mut v: Vec<Duration> = latencies.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort();
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1].as_secs_f64() * 1e3
}

/// Runs whole passes over an op cycle of `cycle` ops, one op at a time,
/// until `budget` has elapsed at a cycle boundary, timing the reference
/// kernel three times before each pass. `op(i)` performs op `i mod cycle`
/// and returns its timed latency and whether its output checked out;
/// checks run outside the returned latency.
pub fn closed_loop(
    budget: Duration,
    cycle: usize,
    mut op: impl FnMut(usize) -> (Duration, bool),
) -> Timed {
    let start = Instant::now();
    let mut timed = Timed {
        clients: 1,
        ..Timed::default()
    };
    let mut i = 0usize;
    loop {
        if i.is_multiple_of(cycle) {
            if start.elapsed() >= budget {
                break;
            }
            timed.kernel.extend((0..3).map(|_| reference_kernel()));
        }
        let (latency, ok) = op(i % cycle);
        timed.ops.push((i % cycle, latency));
        if !ok {
            timed.failed += 1;
        }
        i += 1;
    }
    timed
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a workload hands back for printing.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    pub tracer: Option<trace::Tracer>,
    /// The run's best reference-kernel time (0 when not measured).
    kernel_ms: f64,
}

impl Report {
    /// The untraced run's end-to-end metrics. `tail` is the workload's
    /// fixed tail percentile.
    /// Times are scaled by [`Timed::host_scale`].
    pub fn end_to_end(setup_s: f64, timed: &Timed, tail: f64, extra_failed: u64) -> Self {
        let attempted = timed.ops.len() as u64;
        let failed = timed.failed + extra_failed;
        let scale = timed.host_scale();
        let (ops_per_s, p50, tail_ms) = (
            timed.ops_per_s(),
            timed.percentile_ms(0.5),
            timed.percentile_ms(tail),
        );
        let metrics = vec![
            ("setup_s".to_owned(), setup_s * scale, "s"),
            ("ops_per_s".to_owned(), ops_per_s / scale, "ops/s"),
            ("op_p50_ms".to_owned(), p50 * scale, "ms"),
            ("op_tail_ms".to_owned(), tail_ms * scale, "ms"),
            ("peak_rss_mb".to_owned(), peak_rss_mb(), "MB"),
        ];
        eprintln!(
            "cqla-perfbench: {attempted} ops, tail = p{} ({} samples beyond it), error_ratio {}; \
             unscaled: setup_s {setup_s}, ops_per_s {ops_per_s}, op_p50_ms {p50}, op_tail_ms {tail_ms}; \
             host scale {scale} (reference kernel {:?} ms)",
            (tail * 100.0).round(),
            attempted - (tail * attempted as f64).ceil() as u64,
            failed as f64 / attempted.max(1) as f64,
            timed.kernel_ms(),
        );
        Self {
            attempted,
            failed,
            metrics,
            tracer: None,
            kernel_ms: timed.kernel_ms().unwrap_or(0.0),
        }
    }

    /// Adds the per-layer metrics of a traced pass of `ops` ops.
    /// `untraced` is the summed latency of the same ops run untraced
    /// (each right before its traced twin, so machine noise hits both
    /// alike) and `traced` the traced ops' summed wall time.
    pub fn add_layers(
        &mut self,
        tracer: trace::Tracer,
        ops: usize,
        untraced: Duration,
        traced: Duration,
    ) {
        let self_ns = tracer.self_ns();
        let ms = |layer: &str| self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6;
        let count = |name: &str| tracer.counts.get(name).copied().unwrap_or(0) as f64;
        let mut m: Vec<(String, f64, &'static str)> = Vec::new();
        let mut push =
            |name: &str, value: f64, unit: &'static str| m.push((name.to_owned(), value, unit));
        push("workloads.calls", count("workloads.calls"), "count");
        push("workloads.self_ms", ms("workloads"), "ms");
        for layer in [
            "circuit.parse",
            "circuit.emit",
            "circuit.decompose",
            "circuit.dag",
            "circuit.schedule",
        ] {
            push(&format!("{layer}.self_ms"), ms(layer), "ms");
        }
        let gates = count("circuit.gates");
        push("circuit.gates", gates, "count");
        let dag_schedule_ns = (ms("circuit.dag") + ms("circuit.schedule")) * 1e6;
        push("circuit.ns_per_gate", ratio(dag_schedule_ns, gates), "ns");
        push("cache.calls", count("cache.calls"), "count");
        push("cache.self_ms", ms("cache"), "ms");
        let accesses = count("cache.accesses");
        push("cache.accesses", accesses, "count");
        push(
            "cache.ns_per_access",
            ratio(ms("cache") * 1e6, accesses),
            "ns",
        );
        for name in [
            "model.cache_hits",
            "model.fetch_misses",
            "model.makespan_sum",
        ] {
            push(name, count(name), "count");
        }
        push("ecc.self_ms", ms("ecc"), "ms");
        let (hits, misses) = (count("eval.hits"), count("eval.misses"));
        push("eval.hits", hits, "count");
        push("eval.misses", misses, "count");
        push("eval.hit_ratio", ratio(hits, hits + misses), "ratio");
        for layer in ["study", "experiments", "json"] {
            push(&format!("{layer}.self_ms"), ms(layer), "ms");
        }
        push("json.bytes", count("json.bytes"), "bytes");
        push("sweep.self_ms", ms("sweep"), "ms");
        push("serve.self_ms", ms("serve"), "ms");
        // Filled in by serve-mixed with `Report::set`; zero elsewhere.
        for name in [
            "serve.hit_p50_ms",
            "serve.miss_p50_ms",
            "serve.compile_p50_ms",
            "serve.grid_p50_ms",
            "serve.overhead_p50_ms",
        ] {
            push(name, 0.0, "ms");
        }
        push("serve.lru_hit_ratio", 0.0, "ratio");
        push("serve.coalesced", 0.0, "count");
        push("serve.memo_hit_ratio", 0.0, "ratio");
        push("serve.reconnects", 0.0, "count");
        push("model.lru_misses", count("model.lru_misses"), "count");
        let covered = self_ns.values().sum::<u64>() as f64;
        push(
            "trace.coverage",
            ratio(covered, untraced.as_nanos() as f64),
            "ratio",
        );
        // Traced ÷ untraced ops/s over the same ops.
        push(
            "trace.overhead_ratio",
            ratio(untraced.as_secs_f64(), traced.as_secs_f64()),
            "ratio",
        );
        push("trace.ops", ops as f64, "count");
        push("host.kernel_ms", self.kernel_ms, "ms");
        self.metrics = m;
        self.tracer = Some(tracer);
    }

    /// Overrides a metric pushed by [`Report::add_layers`].
    pub fn set(&mut self, name: &str, value: f64) {
        if let Some(m) = self.metrics.iter_mut().find(|m| m.0 == name) {
            m.1 = value;
        }
    }

    fn print(&self, workload: &str, trace: bool) {
        let mut human = format!("{workload} (trace {}):", u8::from(trace));
        for (name, value, unit) in &self.metrics {
            let _ = write!(human, " {name}={value} {unit};");
        }
        let _ = write!(
            human,
            " error_ratio={} ratio; attempted={}",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.attempted
        );
        println!("{human}");
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        );
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A finite JSON number with all its digits.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".to_owned()
    }
}

//! `cqla` — command-line front end for the CQLA reproduction.
//!
//! ```text
//! cqla list                     list every paper artifact and sweep spec
//! cqla run <id> [key=value ...] run one artifact from the registry
//! cqla run <id> [key=value-set ...]
//!                               grid-run one artifact: any parameter takes
//!                               value sets (`bits=32..=128:*2`, `tech=current,
//!                               projected`) and `base.<key>=v` pins, expanded
//!                               against the registry's declared parameters
//! cqla sweep [SPEC]             run a parallel architecture-space sweep
//!                               (built-in name or key=values expression)
//! cqla sweep <id> [k=set ...]   the same per-experiment grid, sweep-spelled
//! cqla sweep --spec-file FILE   run every spec in FILE (one per line)
//! cqla sweep ... --workers HOST:PORT,...
//!                               distribute the sweep across a fleet of
//!                               `cqla serve` workers (requires --format
//!                               json; the merged document is byte-identical
//!                               to the local run). --connect-timeout SECS
//!                               and --retries N tune fault handling:
//!                               retries > 0 re-shards a dead worker's
//!                               points onto the survivors
//! cqla compile FILE [k=v ...]   compile an asm program file (`-` reads
//!                               stdin) through the `compile` artifact:
//!                               parse → decompose → schedule → price;
//!                               byte-identical to POST /v1/compile
//! cqla bench-diff OLD NEW [--threshold X]
//!                               compare two BENCH_sweep.json documents
//! cqla serve [--addr HOST:PORT] [--idle-timeout SECS] [--job-retention N]
//!            [--workers HOST:PORT,...]
//!                               serve the registry over HTTP: keep-alive
//!                               connections, streamed grid responses, and
//!                               resumable background sweep jobs; with
//!                               --workers, POST /v1/sweep is distributed
//!                               across that fleet
//! cqla floorplan                draw the level-1 tile floorplans
//!
//! legacy aliases (kept for scripts):
//! cqla table <1|2|3|4|5>        = cqla run tableN
//! cqla figure <2|6a|6b|7|8a|8b> = cqla run figN
//! cqla machine BITS BLOCKS [CODE] = cqla run machine bits=… blocks=… code=…
//! cqla verify                   = cqla run verify
//!
//! global flags:
//!   --format <text|json>        output format (default text)
//!   --threads N                 worker threads for sweeps (default: all cores)
//! ```
//!
//! Exit codes: 0 success; 1 runtime failure (a failing `verify`, a
//! `bench-diff` regression, unreadable files); 2 usage errors.

use std::io::{ErrorKind, Write as _};
use std::process::ExitCode;

use cqla_repro::core::experiments::{
    apply_overrides, find, is_set_clause, listing_json, params_usage, registry, suggest,
    Experiment, Grid,
};
use cqla_repro::core::{Json, ToJson};
use cqla_repro::dist::{self, FleetConfig};
use cqla_repro::iontrap::TileFloorplan;
use cqla_repro::serve::{ServeConfig, Server};
use cqla_repro::sweep::regress::{BenchDiff, BenchDoc, DEFAULT_THRESHOLD};
use cqla_repro::sweep::{pool, GridRun, Sweep, SweepRun};

/// The one-line usage summary (`cqla help` / `cqla --help`).
const USAGE: &str = "usage: cqla [--format text|json] [--threads N] \
     <list | run ID [k=v|k=set...] | sweep [SPEC | ID [k=set...] | --spec-file FILE] \
     [--workers HOST:PORT,... [--connect-timeout SECS] [--retries N]] | \
     compile FILE [k=v...] | \
     bench-diff OLD NEW [--threshold X] | \
     serve [--addr HOST:PORT] [--idle-timeout SECS] [--job-retention N] \
     [--workers HOST:PORT,...] | \
     machine BITS BLOCKS [CODE] | table N | figure N | floorplan | verify>";

/// The subcommand spellings `cqla` accepts, for did-you-mean suggestions.
const COMMANDS: [&str; 11] = [
    "list",
    "run",
    "sweep",
    "compile",
    "bench-diff",
    "serve",
    "table",
    "figure",
    "machine",
    "floorplan",
    "verify",
];

/// A rejected invocation: message plus an optional "did you mean" line.
/// Every argument-shaped failure routes through this type so diagnostics
/// and the exit code (2) stay uniform.
struct UsageError {
    message: String,
    hint: Option<String>,
}

impl UsageError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            hint: None,
        }
    }

    fn with_hint(message: impl Into<String>, hint: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            hint: Some(hint.into()),
        }
    }

    fn report(self) -> ExitCode {
        errln(format_args!("cqla: {}", self.message));
        if let Some(hint) = self.hint {
            errln(format_args!("  {hint}"));
        }
        errln(format_args!(
            "  (run `cqla list` for artifacts, `cqla --help` for usage)"
        ));
        ExitCode::from(2)
    }
}

/// Output format selected by the global `--format` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

/// Global options plus the remaining positional arguments.
struct Cli {
    format: Format,
    threads: usize,
    args: Vec<String>,
}

impl Cli {
    /// Extracts `--format` / `--threads` from anywhere in the argument
    /// list; everything else stays positional.
    fn parse(raw: impl Iterator<Item = String>) -> Result<Self, UsageError> {
        let mut format = Format::Text;
        let mut threads = pool::default_threads();
        let mut args = Vec::new();
        let mut raw = raw;
        while let Some(arg) = raw.next() {
            match arg.as_str() {
                "--format" => {
                    format = match raw.next().as_deref() {
                        Some("text") => Format::Text,
                        Some("json") => Format::Json,
                        other => {
                            return Err(UsageError::new(format!(
                                "--format expects text|json, got {other:?}"
                            )))
                        }
                    };
                }
                "--threads" => {
                    threads = raw
                        .next()
                        .and_then(|s| s.parse::<usize>().ok())
                        .filter(|&n| n > 0)
                        .ok_or_else(|| UsageError::new("--threads expects a positive integer"))?;
                }
                "--help" | "-h" => args.insert(0, "help".to_owned()),
                _ => args.push(arg),
            }
        }
        Ok(Self {
            format,
            threads,
            args,
        })
    }

    /// Positional argument `i` (after the subcommand).
    fn arg(&self, i: usize) -> Option<&str> {
        self.args.get(i).map(String::as_str)
    }

    /// Prints either the rendered text or the pretty JSON document.
    fn emit(&self, text: impl FnOnce() -> String, json: impl FnOnce() -> Json) {
        match self.format {
            Format::Text => out(format_args!("{}\n", text())),
            Format::Json => out(format_args!("{}\n", json().to_pretty())),
        }
    }
}

/// Writes one line to stderr; every stderr write goes through here. A
/// failed stderr write has nowhere to be reported (a reader that closed
/// the pipe, `cqla ... 2>&1 | true`, is the common case), so it is
/// dropped and the exit code stays the one the caller chose, where
/// `eprintln!` would panic and exit 101.
fn errln(args: std::fmt::Arguments<'_>) {
    let _ = writeln!(std::io::stderr().lock(), "{args}");
}

/// Writes to stdout and flushes; every stdout write goes through here. A
/// reader that closes the pipe early (`cqla list | head -1`) already has
/// what it wanted, so a broken pipe exits 0 quietly instead of panicking.
/// Any other write failure is a runtime error (exit 1).
fn out(args: std::fmt::Arguments<'_>) {
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout.write_fmt(args).and_then(|()| stdout.flush()) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        errln(format_args!("cqla: cannot write to stdout: {e}"));
        std::process::exit(1);
    }
}

fn main() -> ExitCode {
    let cli = match Cli::parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(err) => return err.report(),
    };
    let outcome = match cli.arg(0) {
        Some("list") => Ok(list(&cli)),
        Some("run") => run(&cli, cli.args.get(1), &cli.args[2.min(cli.args.len())..]),
        Some("sweep") => sweep(&cli),
        Some("compile") => compile(&cli),
        Some("bench-diff") => bench_diff(&cli),
        Some("serve") => serve(&cli),
        Some("table") => legacy(&cli, "table", cli.arg(1)),
        Some("figure") => legacy(&cli, "figure", cli.arg(1)),
        Some("machine") => machine_alias(&cli),
        Some("verify") => run(&cli, Some(&"verify".to_owned()), &[]),
        Some("floorplan") => {
            out(format_args!(
                "{}\n{}\n",
                TileFloorplan::steane_level1(),
                TileFloorplan::bacon_shor_level1()
            ));
            Ok(ExitCode::SUCCESS)
        }
        // An explicit help request succeeds on stdout; a missing
        // subcommand is a usage error on stderr.
        Some("help") => {
            out(format_args!("{USAGE}\n"));
            Ok(ExitCode::SUCCESS)
        }
        None => {
            errln(format_args!("{USAGE}"));
            Err(UsageError::new("no subcommand given"))
        }
        Some(other) => {
            let hint = if find(other).is_some() {
                Some(format!("artifact ids run via `cqla run {other}`"))
            } else {
                suggest(other, COMMANDS).map(|s| format!("did you mean `cqla {s}`?"))
            };
            Err(UsageError {
                message: format!("unknown subcommand `{other}`"),
                hint,
            })
        }
    };
    match outcome {
        Ok(code) => code,
        Err(err) => err.report(),
    }
}

/// `cqla list`: every registry artifact with its parameters, then the
/// built-in sweep specs and the expression grammar.
fn list(cli: &Cli) -> ExitCode {
    cli.emit(
        || {
            let mut out = String::from("artifacts (cqla run <id> [key=value-set ...]):\n");
            for exp in registry() {
                let params = exp
                    .params()
                    .iter()
                    .map(|p| format!("{}={}", p.key, p.value))
                    .collect::<Vec<_>>()
                    .join(" ");
                out.push_str(&format!("  {:<8} {:<48} {params}\n", exp.id(), exp.title()));
            }
            out.push_str("\nsweep specs (cqla sweep <spec>):\n");
            for (name, what) in Sweep::BUILTIN {
                out.push_str(&format!("  {name:<8} {what}\n"));
            }
            out.push_str(
                "  or a key=values expression, e.g. \
                 `tech=current,projected width=64..=512:*2 xfer=5,10`\n",
            );
            out.push_str(
                "\nany artifact parameter takes value sets too \
                 (`cqla run fig2 bits=32..=128:*2`, `base.<key>=v` pins)",
            );
            out
        },
        // One listing shape for every front end: the CLI and the HTTP
        // service's /v1/experiments both emit `listing_json`.
        listing_json,
    );
    ExitCode::SUCCESS
}

/// Whether any override uses value-*set* syntax (comma lists, inclusive
/// ranges, or `base.` pins) and therefore selects a grid run. Plain
/// `key=value` overrides keep the legacy single-run path byte for byte.
/// The per-clause predicate is the grammar's own (`is_set_clause`), the
/// same one the HTTP service consults, so the front ends cannot drift.
fn is_grid_syntax(overrides: &[String]) -> bool {
    overrides.iter().any(|o| {
        let (key, value) = o.split_once('=').unwrap_or((o, ""));
        is_set_clause(key, value)
    })
}

/// Grid-runs one registry artifact over a `key=value-set` expression:
/// parse against the experiment's declared parameters, execute every
/// point on the shared job pool, emit the merged document. Shared by
/// `cqla run <id> k=set…` and `cqla sweep <id> k=set…`.
fn run_grid(cli: &Cli, exp: &dyn Experiment, clauses: &[String]) -> Result<ExitCode, UsageError> {
    let expr = clauses.join(" ");
    let grid = Grid::parse(exp.id(), &exp.specs(), &expr).map_err(|e| {
        UsageError::with_hint(
            e.to_string(),
            format!("{} takes: {}", exp.id(), params_usage(exp)),
        )
    })?;
    let run = GridRun::execute(&grid, cli.threads);
    cli.emit(|| run.render_text(), || run.to_json());
    Ok(if run.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `cqla run <id> [key=value ...]`: the registry path every artifact
/// alias funnels into. Overrides with value-set syntax fan out into a
/// grid run instead.
fn run(cli: &Cli, id: Option<&String>, overrides: &[String]) -> Result<ExitCode, UsageError> {
    let Some(id) = id else {
        return Err(UsageError::new("run expects an artifact id"));
    };
    let Some(mut exp) = find(id) else {
        let ids = registry().iter().map(|e| e.id()).collect::<Vec<_>>();
        let hint = suggest(id, ids.iter().copied()).map(|s| format!("did you mean `{s}`?"));
        return Err(UsageError {
            message: format!("unknown artifact `{id}`"),
            hint,
        });
    };
    if is_grid_syntax(overrides) {
        return run_grid(cli, exp.as_ref(), overrides);
    }
    let takes = format!("{} takes: {}", exp.id(), params_usage(exp.as_ref()));
    let mut pairs = Vec::new();
    for pair in overrides {
        let Some(kv) = pair.split_once('=') else {
            return Err(UsageError::with_hint(
                format!("expected key=value, got `{pair}`"),
                takes,
            ));
        };
        pairs.push(kv);
    }
    apply_overrides(exp.as_mut(), pairs)
        .map_err(|e| UsageError::with_hint(e.to_string(), takes))?;
    let output = exp.run();
    cli.emit(|| output.text.clone(), || output.document(exp.id()));
    Ok(if output.passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Legacy `cqla table N [key=value ...]` / `cqla figure N [key=value ...]`
/// spellings: the overrides after `N` go to `run` like any `cqla run`.
fn legacy(cli: &Cli, kind: &str, number: Option<&str>) -> Result<ExitCode, UsageError> {
    let expected = match kind {
        "table" => "1-5",
        _ => "2, 6a, 6b, 7, 8a, 8b",
    };
    let Some(number) = number else {
        return Err(UsageError::new(format!(
            "{kind} expects a number ({expected})"
        )));
    };
    let id = format!("{}{number}", if kind == "table" { "table" } else { "fig" });
    if find(&id).is_none() {
        return Err(UsageError::new(format!(
            "unknown {kind} `{number}`; expected {expected}"
        )));
    }
    run(cli, Some(&id), &cli.args[2..])
}

/// Legacy `cqla machine BITS BLOCKS [CODE]` positional spelling.
fn machine_alias(cli: &Cli) -> Result<ExitCode, UsageError> {
    let usage = "usage: cqla machine BITS BLOCKS [steane|bacon-shor]";
    let (Some(bits), Some(blocks)) = (cli.arg(1), cli.arg(2)) else {
        return Err(UsageError::new(usage));
    };
    let mut overrides = vec![format!("bits={bits}"), format!("blocks={blocks}")];
    // The legacy spelling defaults to Bacon-Shor; the registry default
    // agrees, so an absent CODE adds nothing.
    if let Some(code) = cli.arg(3) {
        overrides.push(format!("code={code}"));
    }
    run(cli, Some(&"machine".to_owned()), &overrides)
        .map_err(|e| UsageError::with_hint(e.message, usage))
}

/// Splits a comma-separated `--workers` value into addresses; empty
/// entries are trimmed away and an empty list is rejected.
fn parse_worker_list(list: &str) -> Result<Vec<String>, UsageError> {
    let workers: Vec<String> = list
        .split(',')
        .map(str::trim)
        .filter(|w| !w.is_empty())
        .map(str::to_owned)
        .collect();
    if workers.is_empty() {
        return Err(UsageError::new("--workers expects HOST:PORT,..."));
    }
    Ok(workers)
}

/// Strips the fleet flags — `--workers HOST:PORT,...`,
/// `--connect-timeout SECS`, `--retries N` — out of a parsed command
/// line, returning the remaining positional arguments plus the fleet
/// configuration when `--workers` was given. The tuning flags without
/// `--workers`, and `--workers` without `--format json` (the merged
/// document is always JSON), are usage errors.
fn extract_fleet(cli: &Cli) -> Result<(Cli, Option<FleetConfig>), UsageError> {
    let mut workers = None;
    let mut connect_timeout = None;
    let mut retries = None;
    let mut args = Vec::new();
    let mut i = 0;
    while let Some(arg) = cli.arg(i) {
        match arg {
            "--workers" => {
                let list = cli
                    .arg(i + 1)
                    .ok_or_else(|| UsageError::new("--workers expects HOST:PORT,..."))?;
                workers = Some(parse_worker_list(list)?);
                i += 2;
            }
            "--connect-timeout" => {
                connect_timeout = Some(
                    cli.arg(i + 1)
                        .and_then(|s| s.parse::<u64>().ok())
                        .filter(|&n| n > 0)
                        .ok_or_else(|| {
                            UsageError::new(
                                "--connect-timeout expects a positive integer (seconds)",
                            )
                        })?,
                );
                i += 2;
            }
            "--retries" => {
                retries = Some(
                    cli.arg(i + 1)
                        .and_then(|s| s.parse::<u32>().ok())
                        .ok_or_else(|| {
                            UsageError::new("--retries expects a non-negative integer")
                        })?,
                );
                i += 2;
            }
            _ => {
                args.push(arg.to_owned());
                i += 1;
            }
        }
    }
    let stripped = Cli {
        format: cli.format,
        threads: cli.threads,
        args,
    };
    let Some(workers) = workers else {
        if connect_timeout.is_some() || retries.is_some() {
            return Err(UsageError::new(
                "--connect-timeout/--retries only apply with --workers",
            ));
        }
        return Ok((stripped, None));
    };
    if cli.format != Format::Json {
        return Err(UsageError::with_hint(
            "--workers emits the merged JSON sweep document",
            "add --format json",
        ));
    }
    let mut fleet = FleetConfig::new(workers);
    if let Some(secs) = connect_timeout {
        fleet.connect_timeout = std::time::Duration::from_secs(secs);
    }
    if let Some(n) = retries {
        fleet.retries = n;
    }
    Ok((stripped, Some(fleet)))
}

/// Prints a distributed run's merged document — already a complete
/// JSON document with its own trailing newline — and maps pass/fail to
/// the usual exit codes. Fleet failures (a dead fleet, exhausted
/// retries with no survivors) are runtime errors, not usage errors.
fn emit_dist(result: Result<dist::DistRun, dist::DistError>) -> ExitCode {
    match result {
        Ok(run) => {
            out(format_args!("{}", run.document()));
            if run.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            errln(format_args!("cqla: {e}"));
            ExitCode::FAILURE
        }
    }
}

/// Grid-runs one registry artifact across a worker fleet: the same
/// parse path and exit-code contract as [`run_grid`], but the points
/// execute on remote `cqla serve` workers and the merged document is
/// byte-identical to the local `--format json` run.
fn run_grid_distributed(
    exp: &dyn Experiment,
    clauses: &[String],
    fleet: &FleetConfig,
) -> Result<ExitCode, UsageError> {
    let expr = clauses.join(" ");
    let grid = Grid::parse(exp.id(), &exp.specs(), &expr).map_err(|e| {
        UsageError::with_hint(
            e.to_string(),
            format!("{} takes: {}", exp.id(), params_usage(exp)),
        )
    })?;
    let head = GridRun::head(grid.id(), grid.spec(), grid.len());
    Ok(emit_dist(dist::run_grids(
        std::slice::from_ref(&grid),
        head,
        fleet,
    )))
}

/// `cqla sweep [SPEC]` / `cqla sweep <id> [k=set ...]` /
/// `cqla sweep --spec-file FILE` / `... --workers HOST:PORT,...`.
fn sweep(cli: &Cli) -> Result<ExitCode, UsageError> {
    let (cli, fleet) = extract_fleet(cli)?;
    let cli = &cli;
    if fleet.is_some() && cli.arg(1) == Some("--spec-file") {
        return Err(UsageError::with_hint(
            "--workers distributes a single spec; --spec-file is not supported",
            "run one `cqla sweep SPEC --workers ...` per spec",
        ));
    }
    // `cqla sweep <id> [key=value-set ...]`: the per-experiment grid,
    // byte-identical to `cqla run <id> key=value-set…`. Built-in sweep
    // names win for bare invocations (`sweep table4` stays the paper
    // grid); with clauses present, the registry id wins.
    if let Some(first) = cli.arg(1) {
        if first != "--spec-file" {
            let has_clauses = cli.args.len() > 2;
            if let Some(exp) = find(first) {
                if has_clauses || Sweep::builtin(first).is_none() {
                    return match &fleet {
                        Some(fleet) => run_grid_distributed(exp.as_ref(), &cli.args[2..], fleet),
                        None => run_grid(cli, exp.as_ref(), &cli.args[2..]),
                    };
                }
            }
        }
    }
    // Spec files always emit a JSON *array* of runs — even with one
    // spec — so scripts get a stable shape regardless of file length.
    let from_file = cli.arg(1) == Some("--spec-file");
    let specs: Vec<String> = match cli.arg(1) {
        Some("--spec-file") => {
            let Some(path) = cli.arg(2) else {
                return Err(UsageError::new("--spec-file expects a path"));
            };
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    errln(format_args!("cqla: cannot read spec file {path}: {e}"));
                    return Ok(ExitCode::FAILURE);
                }
            };
            let lines: Vec<String> = text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_owned)
                .collect();
            if lines.is_empty() {
                return Err(UsageError::new(format!(
                    "spec file {path} contains no specs (blank lines and # comments are skipped)"
                )));
            }
            lines
        }
        Some(spec) => vec![spec.to_owned()],
        None => vec!["grid".to_owned()],
    };
    let mut sweeps = Vec::new();
    for spec in &specs {
        match Sweep::parse(spec) {
            Ok(sweep) => sweeps.push(sweep),
            Err(e) => {
                let builtins = Sweep::BUILTIN.map(|(name, _)| name).join(", ");
                return Err(UsageError::with_hint(
                    e.to_string(),
                    format!("built-in specs: {builtins}"),
                ));
            }
        }
    }
    // Distributed path: fan the (single) sweep out across the fleet
    // and print the merged document, byte-identical to the local run.
    if let Some(fleet) = &fleet {
        let head = SweepRun::head(sweeps[0].name(), sweeps[0].len());
        return Ok(emit_dist(dist::run_grids(sweeps[0].grids(), head, fleet)));
    }
    let runs: Vec<SweepRun> = sweeps
        .iter()
        .map(|s| SweepRun::execute(s, cli.threads))
        .collect();
    cli.emit(
        || {
            runs.iter()
                .map(SweepRun::render_text)
                .collect::<Vec<_>>()
                .join("\n")
        },
        || {
            if from_file {
                Json::Arr(runs.iter().map(SweepRun::to_json).collect())
            } else {
                runs[0].to_json()
            }
        },
    );
    Ok(ExitCode::SUCCESS)
}

/// `cqla compile FILE [key=value ...]`: compile one asm program file
/// (`-` reads stdin) through the registry's `compile` artifact. Setting
/// the program parses it, so a bad file exits 2 with the spanned caret
/// diagnostic; overrides tune the machine (`width=`, `tech=`,
/// `code=`, `cache=`). Seed grids live on `cqla run compile` instead —
/// a single program compile has exactly one point.
fn compile(cli: &Cli) -> Result<ExitCode, UsageError> {
    let usage = "usage: cqla compile FILE [key=value ...] (FILE `-` reads stdin)";
    let Some(path) = cli.arg(1) else {
        return Err(UsageError::with_hint(
            "compile expects a program file",
            usage,
        ));
    };
    let source = if path == "-" {
        use std::io::Read as _;
        let mut text = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut text) {
            errln(format_args!("cqla: cannot read stdin: {e}"));
            return Ok(ExitCode::FAILURE);
        }
        text
    } else {
        match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                errln(format_args!("cqla: cannot read {path}: {e}"));
                return Ok(ExitCode::FAILURE);
            }
        }
    };
    let mut exp = find("compile").expect("compile is registered");
    exp.set("source", "inline-asm")
        .expect("inline-asm is valid");
    // A program that does not parse is a usage error (exit 2) with the
    // full caret diagnostic, same contract as bad sweep specs.
    exp.set("program", &source)
        .map_err(|e| UsageError::new(format!("{path}: {e}")))?;
    let mut pairs = Vec::new();
    for pair in &cli.args[2..] {
        let Some((key, value)) = pair.split_once('=') else {
            return Err(UsageError::with_hint(
                format!("expected key=value, got `{pair}`"),
                usage,
            ));
        };
        if key == "source" || key == "program" {
            return Err(UsageError::with_hint(
                format!("`{key}` is set by the program file"),
                "to compile generated workloads, use `cqla run compile source=random seed=…`",
            ));
        }
        if is_set_clause(key, value) {
            return Err(UsageError::with_hint(
                format!("`{pair}` is a value set; compile prices one point per program"),
                "grid over machines with `cqla run compile source=inline-asm width=4,9,16`",
            ));
        }
        pairs.push((key, value));
    }
    apply_overrides(exp.as_mut(), pairs).map_err(|e| {
        UsageError::with_hint(
            e.to_string(),
            format!("compile takes: {}", params_usage(exp.as_ref())),
        )
    })?;
    // A parsed program always compiles: only `verify` can fail a run.
    let output = exp.run();
    cli.emit(|| output.text.clone(), || output.document(exp.id()));
    Ok(ExitCode::SUCCESS)
}

/// `cqla bench-diff OLD NEW [--threshold X]`: the perf regression gate.
fn bench_diff(cli: &Cli) -> Result<ExitCode, UsageError> {
    let mut threshold = DEFAULT_THRESHOLD;
    let mut paths = Vec::new();
    let mut i = 1;
    while let Some(arg) = cli.arg(i) {
        if arg == "--threshold" {
            threshold = cli
                .arg(i + 1)
                .and_then(|s| s.parse::<f64>().ok())
                .filter(|&x| x.is_finite() && x >= 1.0)
                .ok_or_else(|| UsageError::new("--threshold expects a number >= 1.0"))?;
            i += 2;
        } else {
            paths.push(arg.to_owned());
            i += 1;
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        return Err(UsageError::new(
            "usage: cqla bench-diff OLD.json NEW.json [--threshold X]",
        ));
    };
    let load = |path: &str| -> Result<BenchDoc, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        BenchDoc::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(e), _) | (_, Err(e)) => {
            errln(format_args!("cqla: {e}"));
            return Ok(ExitCode::FAILURE);
        }
    };
    let diff = BenchDiff::compare(old, new, threshold);
    cli.emit(|| diff.render_text(), || diff.to_json());
    Ok(if diff.regressed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `cqla serve [--addr HOST:PORT] [--idle-timeout SECS]
/// [--job-retention N]`: the long-running HTTP front end over the
/// registry. `--threads` sizes the connection worker pool (and the
/// sweep pool behind `POST /v1/sweep`); `--addr` defaults to localhost
/// and accepts port 0 for an ephemeral port, whose resolution is printed
/// on the announcement line so scripts and tests can discover it.
/// `--idle-timeout` bounds how long a keep-alive connection may sit
/// between requests; `--job-retention` is how many completed sweep jobs
/// stay pollable before the oldest is retired. `--workers` turns the
/// node into a fleet coordinator: `POST /v1/sweep` is distributed
/// across the listed `cqla serve` workers instead of running locally.
fn serve(cli: &Cli) -> Result<ExitCode, UsageError> {
    let usage = "usage: cqla serve [--addr HOST:PORT] [--threads N] \
                 [--idle-timeout SECS] [--job-retention N] \
                 [--workers HOST:PORT,...]";
    let mut addr = "127.0.0.1:8080".to_owned();
    let mut config = ServeConfig::default();
    let mut i = 1;
    while let Some(arg) = cli.arg(i) {
        if arg == "--addr" {
            addr = cli
                .arg(i + 1)
                .ok_or_else(|| UsageError::with_hint("--addr expects HOST:PORT", usage))?
                .to_owned();
            i += 2;
        } else if arg == "--idle-timeout" {
            let secs = cli
                .arg(i + 1)
                .and_then(|s| s.parse::<u64>().ok())
                .filter(|&n| n > 0)
                .ok_or_else(|| {
                    UsageError::with_hint(
                        "--idle-timeout expects a positive integer (seconds)",
                        usage,
                    )
                })?;
            config.idle_timeout = std::time::Duration::from_secs(secs);
            i += 2;
        } else if arg == "--job-retention" {
            config.job_retention = cli
                .arg(i + 1)
                .and_then(|s| s.parse::<usize>().ok())
                .ok_or_else(|| {
                    UsageError::with_hint("--job-retention expects a non-negative integer", usage)
                })?;
            i += 2;
        } else if arg == "--workers" {
            let list = cli
                .arg(i + 1)
                .ok_or_else(|| UsageError::with_hint("--workers expects HOST:PORT,...", usage))?;
            config.fleet =
                parse_worker_list(list).map_err(|e| UsageError::with_hint(e.message, usage))?;
            i += 2;
        } else {
            return Err(UsageError::with_hint(
                format!("unexpected serve argument `{arg}`"),
                usage,
            ));
        }
    }
    let server = match Server::bind_with(addr.as_str(), cli.threads, config) {
        Ok(server) => server,
        Err(e) => {
            errln(format_args!("cqla: cannot bind {addr}: {e}"));
            return Ok(ExitCode::FAILURE);
        }
    };
    // Announce on stdout (`out` flushes): when stdout is a pipe (tests,
    // CI) the line must reach the parent before the accept loop blocks.
    out(format_args!(
        "cqla-serve listening on http://{} ({} worker thread(s))\n",
        server.local_addr(),
        server.workers()
    ));
    match server.run() {
        Ok(()) => Ok(ExitCode::SUCCESS),
        Err(e) => {
            errln(format_args!("cqla: serve failed: {e}"));
            Ok(ExitCode::FAILURE)
        }
    }
}

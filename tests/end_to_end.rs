//! Cross-crate integration: the full pipeline from workload generation
//! through scheduling and costing to the paper's reported quantities,
//! plus the `cqla` CLI driven exactly as a user would.

use cqla_repro::circuit::{asm, DependencyDag, Gate, ListScheduler, Width};
use cqla_repro::core::experiments::{Fig6b, Fig7};
use cqla_repro::core::{
    CacheSim, CqlaConfig, EvalCtx, FetchPolicy, QlaBaseline, SpecializationStudy,
};
use cqla_repro::ecc::{Code, EccMetrics, Level};
use cqla_repro::iontrap::TechnologyParams;
use cqla_repro::workloads::{DraperAdder, ModExp, ShorInstance};

fn tech() -> TechnologyParams {
    TechnologyParams::projected()
}

#[test]
fn workload_to_schedule_to_cost() {
    // Generate a real adder, schedule it, and cost it at level 2.
    let adder = DraperAdder::new(128);
    let dag = DependencyDag::new(adder.circuit_ref());
    let schedule =
        ListScheduler::new(&dag).schedule(Width::Blocks(16), Gate::two_qubit_gate_equivalents);
    let metrics = EccMetrics::compute(Code::Steane713, Level::TWO, &tech());
    let wall = metrics.ec_time() * schedule.makespan() as f64;
    // A 128-bit addition on 16 level-2 blocks takes minutes, not hours.
    assert!(wall.as_secs() > 60.0, "{wall}");
    assert!(wall.as_hours() < 1.0, "{wall}");
}

#[test]
fn adder_circuit_round_trips_through_assembly() {
    // The cache simulator's input language carries a full adder losslessly.
    let adder = DraperAdder::new(32);
    let circuit = adder.circuit();
    let text = asm::emit(&circuit);
    let parsed = asm::parse(&text).expect("emitted assembly parses");
    assert_eq!(parsed, circuit);
    // And the parsed circuit still adds.
    let dag_a = DependencyDag::new(&circuit);
    let dag_b = DependencyDag::new(&parsed);
    assert_eq!(dag_a.depth(), dag_b.depth());
}

#[test]
fn parsed_assembly_feeds_the_cache_simulator() {
    let adder = DraperAdder::new(16);
    let text = asm::emit(&adder.circuit());
    let circuit = asm::parse(&text).unwrap();
    let sim = CacheSim::new(32);
    let run = sim.run(&circuit, FetchPolicy::OptimizedLookahead, &[], 1);
    let trace = sim.trace(&circuit, FetchPolicy::OptimizedLookahead, &[], 0);
    assert_eq!(trace.steps().len(), circuit.len());
    assert_eq!(trace.total_fetches(), run.fetch_misses());
    assert!(run.hit_rate() > 0.0);
}

#[test]
fn figure_generators_are_consistent_with_each_other() {
    // Fig 6b crossovers should be compatible with Table 4's block grid:
    // the paper never provisions more blocks per superblock than the
    // bandwidth crossover for its largest machines.
    let fig6b_data = Fig6b::default().data();
    for (_, crossover) in &fig6b_data.crossovers {
        assert!(*crossover >= 9, "superblocks must fit at least a 3x3 group");
    }
    // Fig 7's optimized rates must dominate in-order everywhere.
    let fig7_rows = Fig7.rows_ctx(&EvalCtx::new());
    let opt_min = fig7_rows
        .iter()
        .filter(|r| r.policy == FetchPolicy::OptimizedLookahead)
        .map(|r| r.hit_rate)
        .fold(1.0f64, f64::min);
    let inorder_max = fig7_rows
        .iter()
        .filter(|r| r.policy == FetchPolicy::InOrder)
        .map(|r| r.hit_rate)
        .fold(0.0f64, f64::max);
    assert!(
        opt_min > inorder_max - 0.05,
        "optimized floor {opt_min:.2} vs in-order ceiling {inorder_max:.2}"
    );
}

#[test]
fn modexp_sizing_feeds_the_area_model() {
    let me = ModExp::new(512);
    let study = SpecializationStudy::new(&tech());
    let result = study.evaluate_ctx(
        CqlaConfig::new(Code::BaconShor913, 512, 64),
        &EvalCtx::new(),
    );
    assert_eq!(
        CqlaConfig::new(Code::BaconShor913, 512, 64).memory_qubits(),
        me.working_qubits()
    );
    assert!(result.area_reduction > 5.0);
}

#[test]
fn qla_baseline_consistent_with_specialization_at_saturation() {
    // With enough blocks the CQLA adder time equals the QLA adder time for
    // the QLA's own code.
    let study = SpecializationStudy::new(&tech());
    let qla = QlaBaseline::new(&tech());
    let ctx = EvalCtx::new();
    let r = study.evaluate_ctx(CqlaConfig::new(Code::Steane713, 64, 512), &ctx);
    let ratio = r.adder_time / qla.adder_time(&ctx.adder_costs(64, 512));
    assert!((ratio - 1.0).abs() < 1e-9, "ratio {ratio}");
}

#[test]
fn shor_app_size_consistent_with_fidelity_requirements() {
    use cqla_repro::ecc::fidelity::{AppSize, FidelityBudget};
    let shor = ShorInstance::new(1024);
    let (k, q) = shor.app_size();
    let app = AppSize::new(k, q);
    let budget = FidelityBudget::new(Code::Steane713, &tech());
    // Level 2 must be sufficient (the paper's machines work), level 1
    // alone must not (otherwise the hierarchy would be pointless).
    assert_eq!(budget.required_level(app), Some(Level::TWO));
    assert!(budget.max_level1_share(app) < 0.5);
}

// ---------------------------------------------------------------------------
// CLI tests: shell the `cqla` binary the way a user would, so the front
// end (registry dispatch, legacy aliases, spec parsing, exit codes) is
// exercised by tier-1 and can never silently break.

mod cli {
    use cqla_repro::core::experiments::{ids, registry};

    use std::process::{Command, Output, Stdio};

    /// Runs the compiled `cqla` binary with `args`.
    fn cqla(args: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_cqla"))
            .args(args)
            .output()
            .expect("cqla binary spawns")
    }

    /// Runs the compiled `cqla` binary with `args`, feeding `input` on
    /// stdin (the `cqla compile -` path).
    fn cqla_stdin(args: &[&str], input: &str) -> Output {
        use std::io::Write as _;
        let mut child = Command::new(env!("CARGO_BIN_EXE_cqla"))
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("cqla binary spawns");
        child
            .stdin
            .take()
            .expect("stdin piped")
            .write_all(input.as_bytes())
            .expect("stdin written");
        child.wait_with_output().expect("cqla completes")
    }

    fn stdout(out: &Output) -> String {
        String::from_utf8(out.stdout.clone()).unwrap()
    }

    fn stderr(out: &Output) -> String {
        String::from_utf8(out.stderr.clone()).unwrap()
    }

    #[test]
    fn verify_exits_zero_and_reports_ok() {
        let out = cqla(&["verify"]);
        assert!(out.status.success(), "exit: {:?}", out.status);
        let stdout = stdout(&out);
        assert!(stdout.contains("draper adder 32-bit: ok"), "{stdout}");
        assert!(!stdout.contains("FAIL"), "{stdout}");
    }

    #[test]
    fn list_enumerates_every_registry_artifact() {
        let out = cqla(&["list"]);
        assert!(out.status.success(), "exit: {:?}", out.status);
        let text = stdout(&out);
        for id in ids() {
            assert!(text.contains(id), "`cqla list` is missing {id}:\n{text}");
        }
        // And the JSON view carries id + title + params per artifact.
        let out = cqla(&["list", "--format", "json"]);
        let doc = cqla_repro::sweep::json::parse(&stdout(&out)).unwrap();
        let artifacts = doc.get("artifacts").unwrap().as_arr().unwrap();
        assert_eq!(artifacts.len(), registry().len());
        for a in artifacts {
            assert!(a.get("id").is_some() && a.get("title").is_some());
        }
    }

    #[test]
    fn closed_stdout_pipe_exits_zero_quietly() {
        use std::io::{BufRead as _, BufReader};
        // ~100 KB of JSON: more than a pipe buffer holds, so the binary is
        // still writing when the reader hangs up (`cqla ... | head -1`).
        let mut child = Command::new(env!("CARGO_BIN_EXE_cqla"))
            .args(["run", "machine", "bits=8..=512:+8", "--format", "json"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("cqla binary spawns");
        let mut first = String::new();
        BufReader::new(child.stdout.take().expect("stdout piped"))
            .read_line(&mut first)
            .expect("first line read");
        assert_eq!(first, "{\n");
        // The reader is dropped above, closing the pipe.
        let out = child.wait_with_output().expect("cqla completes");
        let err = stderr(&out);
        assert!(out.status.success(), "exit: {:?}\n{err}", out.status);
        assert!(!err.contains("panicked"), "{err}");
    }

    #[test]
    fn closed_stderr_pipe_keeps_the_usage_exit_code() {
        // A pipe whose read end is already closed: the write end of a
        // child's stdin, kept after the child has exited.
        let mut reader = Command::new(env!("CARGO_BIN_EXE_cqla"))
            .arg("help")
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()
            .expect("cqla binary spawns");
        let closed = reader.stdin.take().expect("stdin piped");
        assert!(reader.wait().expect("reader exits").success());
        let out = Command::new(env!("CARGO_BIN_EXE_cqla"))
            .args(["run", "machine", "xfer=0"])
            .stderr(Stdio::from(closed))
            .output()
            .expect("cqla binary spawns");
        assert_eq!(out.status.code(), Some(2), "exit: {:?}", out.status);
    }

    #[test]
    fn table_4_prints_the_specialization_grid() {
        let out = cqla(&["table", "4"]);
        assert!(out.status.success(), "exit: {:?}", out.status);
        let stdout = stdout(&out);
        for needle in ["input", "blocks", "32-bit", "128-bit"] {
            assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
        }
    }

    #[test]
    fn every_registry_artifact_runs_via_the_cli() {
        for id in ids() {
            let out = cqla(&["run", id]);
            assert!(out.status.success(), "run {id}: {:?}", out.status);
            assert!(!out.stdout.is_empty(), "run {id} printed nothing");
        }
    }

    #[test]
    fn legacy_aliases_match_the_registry_path_byte_for_byte() {
        for (legacy, run_id) in [
            (&["table", "3"][..], "table3"),
            (&["figure", "6b"][..], "fig6b"),
        ] {
            for format in ["text", "json"] {
                let via_alias = cqla(&[legacy, &["--format", format]].concat());
                let via_run = cqla(&["run", run_id, "--format", format]);
                assert!(via_alias.status.success() && via_run.status.success());
                assert_eq!(
                    via_alias.stdout, via_run.stdout,
                    "{legacy:?} vs run {run_id} ({format})"
                );
            }
        }
    }

    #[test]
    fn run_accepts_parameter_overrides() {
        let default = cqla(&["run", "table2", "--format", "json"]);
        let current = cqla(&["run", "table2", "tech=current", "--format", "json"]);
        assert!(default.status.success() && current.status.success());
        assert_ne!(default.stdout, current.stdout, "tech override must matter");
    }

    #[test]
    fn machine_prices_a_configuration() {
        let out = cqla(&["machine", "128", "16", "bacon-shor"]);
        assert!(out.status.success(), "exit: {:?}", out.status);
        let stdout = stdout(&out);
        assert!(stdout.contains("area reduction"), "{stdout}");
        assert!(stdout.contains("gain product"), "{stdout}");
    }

    #[test]
    fn modexp_bookkeeping_runs_past_the_adder_bound() {
        // The Eq. 1 budget only counts modular-exponentiation work, so a
        // 2^20-qubit program and a 4096-bit machine evaluate normally.
        for args in [
            &["run", "compile", "qubits=1048576"][..],
            &["run", "machine", "bits=4096"][..],
        ] {
            let out = cqla(args);
            assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
            assert!(!out.stdout.is_empty(), "{args:?} printed nothing");
        }
    }

    #[test]
    fn bad_usage_exits_two() {
        for args in [
            &[][..],
            &["frobnicate"][..],
            &["table", "9"][..],
            &["figure", "5"][..],
            &["machine", "0", "0"][..],
            &["run"][..],
            &["run", "table9"][..],
            &["run", "table4", "tech=warp"][..],
            &["run", "table4", "notakeyvalue"][..],
            &["run", "machine", "bits=64", "bits=128"][..],
            &["sweep", "frobnicate"][..],
            &["sweep", "width=0"][..],
            &["sweep", "--spec-file"][..],
            &["bench-diff"][..],
            &["bench-diff", "a.json", "b.json", "--threshold", "0.2"][..],
            &["compile"][..],
            &["compile", "-", "source=random"][..],
            &["compile", "-", "width=4,9"][..],
            &["compile", "-", "width=4", "width=9"][..],
            &["--format", "yaml", "table", "4"][..],
            &["--threads", "0", "sweep", "quick"][..],
            &["table", "2", "tech=bogus"][..],
            &["figure", "7", "bits=64"][..],
        ] {
            let out = cqla(args);
            assert_eq!(
                out.status.code(),
                Some(2),
                "args {args:?} should exit 2, got {:?}\nstderr: {}",
                out.status,
                stderr(&out)
            );
        }
    }

    #[test]
    fn help_succeeds_on_stdout() {
        for args in [&["--help"][..], &["-h"][..], &["help"][..]] {
            let out = cqla(args);
            assert_eq!(out.status.code(), Some(0), "{args:?}");
            assert!(stdout(&out).contains("usage: cqla"), "{args:?}");
        }
    }

    #[test]
    fn astronomically_large_specs_are_rejected_not_expanded() {
        // Four maxed-out axes multiply to 2^64; the cap check must not
        // wrap. This must come back in milliseconds with exit 2.
        let out = cqla(&[
            "sweep",
            "width=1..=4096 bits=1..=4096 blocks=1..=1048576 xfer=1..=1048576",
        ]);
        assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
        assert!(stderr(&out).contains("cap is 10000"), "{}", stderr(&out));
    }

    #[test]
    fn unknown_ids_get_did_you_mean_suggestions() {
        let out = cqla(&["run", "tabel4"]);
        assert_eq!(out.status.code(), Some(2));
        assert!(
            stderr(&out).contains("did you mean `table4`?"),
            "{}",
            stderr(&out)
        );
        // A bare artifact id as a subcommand points at `cqla run`.
        let out = cqla(&["table4"]);
        assert_eq!(out.status.code(), Some(2));
        assert!(stderr(&out).contains("cqla run table4"), "{}", stderr(&out));
        // Spec errors carry a caret underline.
        let out = cqla(&["sweep", "tech=current widht=64"]);
        assert_eq!(out.status.code(), Some(2));
        let err = stderr(&out);
        assert!(err.contains("^^^^^"), "{err}");
        assert!(err.contains("did you mean `width`?"), "{err}");
        // On a multi-line spec the caret sits under the bad token on its
        // own line.
        let out = cqla(&["sweep", "code=steane bits=32\nwidht=64"]);
        assert_eq!(out.status.code(), Some(2));
        let err = stderr(&out);
        assert!(err.contains("\n  widht=64\n  ^^^^^\n"), "{err}");
    }

    #[test]
    fn golden_json_is_byte_identical_across_the_registry_redesign() {
        // Golden output contract: the JSON artifacts are stable byte for
        // byte, across both the legacy and registry spellings. Regenerate
        // tests/golden/registry/<id>.json deliberately (cargo run
        // --release --bin cqla -- run <id> --format json) when the model
        // changes.
        let table4 = include_str!("golden/registry/table4.json");
        let table5 = include_str!("golden/registry/table5.json");
        let fig7 = include_str!("golden/registry/fig7.json");
        for (args, golden) in [
            (&["table", "4"][..], table4),
            (&["run", "table4"][..], table4),
            (&["run", "table5"][..], table5),
            (&["table", "5"][..], table5),
            (&["run", "fig7"][..], fig7),
            (&["figure", "7"][..], fig7),
        ] {
            let out = cqla(&[args, &["--format", "json"]].concat());
            assert!(out.status.success(), "{args:?}: {:?}", out.status);
            assert_eq!(
                stdout(&out),
                golden,
                "{args:?} JSON drifted from the golden file"
            );
        }
        // The legacy spellings forward their overrides to `run`.
        let legacy = cqla(&["table", "4", "tech=current"]);
        let registry = cqla(&["run", "table4", "tech=current"]);
        assert!(legacy.status.success(), "{}", stderr(&legacy));
        assert_eq!(stdout(&legacy), stdout(&registry));
        assert_ne!(stdout(&legacy), stdout(&cqla(&["table", "4"])));
    }

    #[test]
    fn grid_runs_match_the_committed_golden_document() {
        // The grid-run contract: `cqla run fig2 bits=32..=128:*2` emits
        // the merged grid document, byte-stable (deterministic across
        // runs and thread counts), pinned by tests/golden/fig2_grid.json.
        // Regenerate deliberately (cargo run --release --bin cqla -- run
        // fig2 "bits=32..=128:*2" --format json) when the model changes.
        let golden = include_str!("golden/fig2_grid.json");
        let one = cqla(&["run", "fig2", "bits=32..=128:*2", "--format", "json"]);
        assert!(one.status.success(), "exit: {:?}", one.status);
        assert_eq!(stdout(&one), golden, "grid JSON drifted from the golden");
        let threaded = cqla(&[
            "run",
            "fig2",
            "bits=32..=128:*2",
            "--format",
            "json",
            "--threads",
            "3",
        ]);
        assert_eq!(stdout(&threaded), golden, "thread count must not matter");
        // `cqla sweep <id> clauses…` is the same grid path, byte for byte.
        let sweep_spelled = cqla(&["sweep", "fig2", "bits=32..=128:*2", "--format", "json"]);
        assert!(sweep_spelled.status.success());
        assert_eq!(stdout(&sweep_spelled), golden, "sweep spelling must agree");
    }

    #[test]
    fn every_registry_artifact_and_the_builtin_grid_stay_byte_identical() {
        // The evaluation-core contract: bit-packing the stabilizer
        // kernel and memoizing shared sub-results must not move a single
        // byte of any artifact. tests/golden/registry/ pins all 14
        // registry entries; tests/golden/grid_sweep.json,
        // sweep_table4.json and sweep_quick.txt pin builtin sweeps.
        // Regenerate deliberately (cargo run --release --bin cqla --
        // run <id> --format json) when the model changes.
        for (id, golden) in [
            ("table1", include_str!("golden/registry/table1.json")),
            ("table2", include_str!("golden/registry/table2.json")),
            ("table3", include_str!("golden/registry/table3.json")),
            ("table4", include_str!("golden/registry/table4.json")),
            ("table5", include_str!("golden/registry/table5.json")),
            ("fig2", include_str!("golden/registry/fig2.json")),
            ("fig6a", include_str!("golden/registry/fig6a.json")),
            ("fig6b", include_str!("golden/registry/fig6b.json")),
            ("fig7", include_str!("golden/registry/fig7.json")),
            ("fig8a", include_str!("golden/registry/fig8a.json")),
            ("fig8b", include_str!("golden/registry/fig8b.json")),
            ("machine", include_str!("golden/registry/machine.json")),
            ("verify", include_str!("golden/registry/verify.json")),
            ("compile", include_str!("golden/registry/compile.json")),
        ] {
            let out = cqla(&["run", id, "--format", "json"]);
            assert!(out.status.success(), "{id}: {:?}", out.status);
            assert_eq!(stdout(&out), golden, "{id} JSON drifted from golden");
        }
        // The builtin sweeps: the grid and the multi-grid table4 as JSON
        // (threads must not matter), and quick as the text table (whose
        // banner names the thread count, so it is pinned at one).
        for (args, golden, thread_counts) in [
            (
                &["sweep", "--format", "json"][..],
                include_str!("golden/grid_sweep.json"),
                &["1", "4"][..],
            ),
            (
                &["sweep", "table4", "--format", "json"],
                include_str!("golden/sweep_table4.json"),
                &["1", "4"],
            ),
            (
                &["sweep", "quick"],
                include_str!("golden/sweep_quick.txt"),
                &["1"],
            ),
        ] {
            for threads in thread_counts {
                let out = cqla(&[args, &["--threads", threads]].concat());
                assert!(out.status.success(), "{args:?} threads={threads}");
                assert_eq!(
                    stdout(&out),
                    golden,
                    "{args:?} drifted from golden (threads={threads})"
                );
            }
        }
    }

    #[test]
    fn compile_grids_over_seeds_match_the_committed_golden_document() {
        // The compile determinism contract: a grid over generator seeds
        // emits the merged document byte-stable across runs and thread
        // counts, pinned by tests/golden/compile_grid.json. Regenerate
        // deliberately (cargo run --release --bin cqla -- run compile
        // "seed=1,2,3" --format json) when the model changes.
        let golden = include_str!("golden/compile_grid.json");
        let one = cqla(&["run", "compile", "seed=1,2,3", "--format", "json"]);
        assert!(one.status.success(), "exit: {:?}", one.status);
        assert_eq!(stdout(&one), golden, "compile grid drifted from golden");
        let threaded = cqla(&[
            "run",
            "compile",
            "seed=1,2,3",
            "--format",
            "json",
            "--threads",
            "3",
        ]);
        assert_eq!(stdout(&threaded), golden, "thread count must not matter");
    }

    #[test]
    fn compile_subcommand_reads_files_and_stdin_identically() {
        let dir = std::env::temp_dir().join("cqla-compile-e2e-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prog.asm");
        let program = "h q0\ntoffoli q0, q1, q2\ncnot q0, q1\nmeasure q2\n";
        std::fs::write(&path, program).unwrap();
        let from_file = cqla(&[
            "compile",
            path.to_str().unwrap(),
            "width=4",
            "--format",
            "json",
        ]);
        assert!(
            from_file.status.success(),
            "exit: {:?}\n{}",
            from_file.status,
            stderr(&from_file)
        );
        let doc = cqla_repro::sweep::json::parse(&stdout(&from_file)).unwrap();
        assert_eq!(
            doc.get("artifact").and_then(|v| v.as_str()),
            Some("compile")
        );
        let source = doc
            .get("data")
            .and_then(|d| d.get("program"))
            .and_then(|p| p.get("source"))
            .and_then(|s| s.as_str());
        assert_eq!(source, Some("inline-asm"), "a FILE implies inline-asm");
        // `cqla compile -` reads the same program from stdin, byte for
        // byte the same artifact.
        let from_stdin = cqla_stdin(&["compile", "-", "width=4", "--format", "json"], program);
        assert!(from_stdin.status.success(), "{}", stderr(&from_stdin));
        assert_eq!(from_stdin.stdout, from_file.stdout, "stdin vs FILE");
    }

    #[test]
    fn compile_subcommand_diagnoses_parse_errors_with_carets() {
        let dir = std::env::temp_dir().join("cqla-compile-e2e-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.asm");
        std::fs::write(&bad, "h q0\ntofoli q0, q1, q2\n").unwrap();
        let out = cqla(&["compile", bad.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains("unknown mnemonic"), "{err}");
        assert!(err.contains("^^^^^^"), "{err}");
        assert!(err.contains("did you mean `toffoli`?"), "{err}");
        assert!(err.contains("line 2"), "{err}");
        // A register past 2^20 qubits is a parse error, not a
        // multi-gigabyte allocation.
        std::fs::write(&bad, "# circuit: 4294967295 qubits, 1 gates\nx q0\n").unwrap();
        let out = cqla(&["compile", bad.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains("^^^^^^^^^^"), "{err}");
        assert!(err.contains("registers stop at 1048576 qubits"), "{err}");
    }

    #[test]
    fn grid_single_value_runs_stay_on_the_legacy_path() {
        // A plain key=value override must stay byte-identical to the
        // pre-grid output (here: the default, since 64 is the default).
        let default = cqla(&["run", "fig2", "--format", "json"]);
        let explicit = cqla(&["run", "fig2", "bits=64", "--format", "json"]);
        assert!(default.status.success() && explicit.status.success());
        assert_eq!(default.stdout, explicit.stdout);
        // Set syntax with one expanded value still produces a grid
        // document (syntax selects the shape, not the point count).
        let ranged = cqla(&["run", "fig2", "bits=64..=64", "--format", "json"]);
        assert!(ranged.status.success());
        let doc = cqla_repro::sweep::json::parse(&stdout(&ranged)).unwrap();
        assert_eq!(doc.get("points").and_then(|v| v.as_f64()), Some(1.0));
    }

    #[test]
    fn grid_base_overrides_pin_values() {
        let out = cqla(&[
            "run",
            "machine",
            "base.code=steane",
            "bits=32,64",
            "--format",
            "json",
        ]);
        assert!(out.status.success(), "exit: {:?}", out.status);
        let doc = cqla_repro::sweep::json::parse(&stdout(&out)).unwrap();
        let results = doc.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        for r in results {
            let code = r.get("params").unwrap().get("code").unwrap();
            assert_eq!(code.as_str(), Some("steane"));
        }
    }

    #[test]
    fn grid_usage_errors_exit_two_with_spanned_diagnostics() {
        let out = cqla(&["run", "fig2", "bits=32,nope"]);
        assert_eq!(out.status.code(), Some(2));
        let err = stderr(&out);
        assert!(err.contains("expected an integer"), "{err}");
        assert!(err.contains('^'), "caret underline: {err}");
        let out = cqla(&["run", "fig2", "bist=32,64"]);
        assert_eq!(out.status.code(), Some(2));
        assert!(
            stderr(&out).contains("did you mean `bits`?"),
            "{}",
            stderr(&out)
        );
        // The exclusive-range typo reaches the grammar's dedicated
        // diagnostic even without any other set syntax in the clause.
        let out = cqla(&["run", "fig2", "bits=32..128"]);
        assert_eq!(out.status.code(), Some(2));
        assert!(
            stderr(&out).contains("ranges are inclusive"),
            "{}",
            stderr(&out)
        );
        // Unknown parameters on a grid-ineligible artifact say so.
        let out = cqla(&["run", "verify", "bits=32,64"]);
        assert_eq!(out.status.code(), Some(2));
        assert!(
            stderr(&out).contains("takes no parameters"),
            "{}",
            stderr(&out)
        );
    }

    #[test]
    fn adder_widths_past_the_ceiling_are_usage_errors() {
        // Every spelling that sizes an adder stops at the Draper ceiling
        // with a usage error instead of a panic (exit 101).
        for args in [
            &["run", "machine", "bits=4097"][..],
            &["run", "fig2", "bits=100000"],
            &["sweep", "bits=5000"],
            &["sweep", "width=5000"],
            &["run", "fig2", "bits=32,100000"],
        ] {
            let out = cqla(args);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
            let err = stderr(&out);
            assert!(err.contains("1..=4096"), "{args:?}: {err}");
            assert!(!err.contains("panicked"), "{args:?}: {err}");
        }
        // Value sets point a caret at the offending value.
        let err = stderr(&cqla(&["sweep", "bits=5000"]));
        assert!(err.contains("^^^^"), "{err}");
        // The ceiling itself is still a valid width.
        assert!(cqla(&["run", "machine", "bits=4096"]).status.success());
    }

    #[test]
    fn counts_past_the_cap_name_the_cap() {
        // A positive integer past the shared cap is rejected by the
        // single-value path and the grid grammar alike, and both name
        // the accepted range on the error line.
        for args in [
            &["run", "machine", "blocks=1048577"][..],
            &["run", "machine", "blocks=1,1048577"],
        ] {
            let out = cqla(args);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
            let err = stderr(&out);
            let first = err.lines().next().unwrap_or_default();
            assert!(first.contains("1..=1048576"), "{args:?}: {err}");
        }
    }

    #[test]
    fn every_artifact_emits_parseable_self_describing_json() {
        for id in ids() {
            let out = cqla(&["--format", "json", "run", id]);
            assert!(out.status.success(), "{id}: {:?}", out.status);
            let doc = cqla_repro::sweep::json::parse(&stdout(&out))
                .unwrap_or_else(|e| panic!("{id}: {e}"));
            assert_eq!(
                doc.get("artifact").and_then(|a| a.as_str()),
                Some(id),
                "{id} artifact tag"
            );
            assert!(doc.get("data").is_some(), "{id} carries no data");
        }
    }

    #[test]
    fn machine_emits_json_with_both_studies() {
        let out = cqla(&["--format", "json", "machine", "64", "9", "steane"]);
        assert!(out.status.success(), "exit: {:?}", out.status);
        let doc = cqla_repro::sweep::json::parse(&stdout(&out)).unwrap();
        let data = doc.get("data").unwrap();
        assert!(data.get("specialization").is_some());
        assert!(data.get("hierarchy").is_some());
    }

    #[test]
    fn sweep_json_is_deterministic_across_runs_and_thread_counts() {
        // The acceptance contract for the sweep engine: byte-identical
        // JSON no matter the worker count, and across repeated runs.
        let one = cqla(&["sweep", "quick", "--format", "json", "--threads", "1"]);
        let four = cqla(&["sweep", "quick", "--format", "json", "--threads", "4"]);
        let again = cqla(&["sweep", "quick", "--format", "json", "--threads", "4"]);
        for out in [&one, &four, &again] {
            assert!(out.status.success(), "exit: {:?}", out.status);
        }
        assert_eq!(one.stdout, four.stdout, "1 vs 4 threads");
        assert_eq!(four.stdout, again.stdout, "repeated runs");
        let doc = cqla_repro::sweep::json::parse(&stdout(&one)).unwrap();
        assert_eq!(
            doc.get("results").unwrap().as_arr().unwrap().len(),
            doc.get("points").unwrap().as_f64().unwrap() as usize
        );
    }

    #[test]
    fn spec_expression_reproduces_the_builtin_quick_grid() {
        // The acceptance contract for the expression language: a spec
        // string produces the same grid as its code-defined twin.
        let expr = cqla(&[
            "sweep",
            "tech=current,projected code=steane,bacon-shor width=32,64",
            "--format",
            "json",
            "--threads",
            "2",
        ]);
        let builtin = cqla(&["sweep", "quick", "--format", "json", "--threads", "2"]);
        assert!(expr.status.success() && builtin.status.success());
        let expr_doc = cqla_repro::sweep::json::parse(&stdout(&expr)).unwrap();
        let builtin_doc = cqla_repro::sweep::json::parse(&stdout(&builtin)).unwrap();
        // Same points, same outcomes; only the sweep name differs.
        assert_eq!(expr_doc.get("results"), builtin_doc.get("results"));
    }

    #[test]
    fn spec_files_run_one_sweep_per_line() {
        let dir = std::env::temp_dir().join("cqla-spec-file-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("specs.txt");
        std::fs::write(
            &path,
            "# two tiny sweeps\nquick\n\ncode=steane bits=32,64 xfer=5\n",
        )
        .unwrap();
        let out = cqla(&[
            "sweep",
            "--spec-file",
            path.to_str().unwrap(),
            "--format",
            "json",
            "--threads",
            "2",
        ]);
        assert!(out.status.success(), "exit: {:?}", out.status);
        let doc = cqla_repro::sweep::json::parse(&stdout(&out)).unwrap();
        let runs = doc.as_arr().expect("spec-file output is a JSON array");
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].get("points").unwrap().as_f64(), Some(8.0));
        assert_eq!(runs[1].get("points").unwrap().as_f64(), Some(2.0));
        // A one-spec file is still an array: the shape must not depend
        // on how many lines the file happens to have.
        let single = dir.join("single.txt");
        std::fs::write(&single, "quick\n").unwrap();
        let out = cqla(&[
            "sweep",
            "--spec-file",
            single.to_str().unwrap(),
            "--format",
            "json",
            "--threads",
            "2",
        ]);
        assert!(out.status.success());
        let doc = cqla_repro::sweep::json::parse(&stdout(&out)).unwrap();
        assert_eq!(doc.as_arr().map(<[_]>::len), Some(1));
    }

    #[test]
    fn sweep_text_mode_lists_the_spec_points() {
        let out = cqla(&["sweep", "quick", "--threads", "2"]);
        assert!(out.status.success(), "exit: {:?}", out.status);
        let stdout = stdout(&out);
        assert!(stdout.contains("sweep quick: 8 points"), "{stdout}");
        assert!(stdout.contains("projected/[[9,1,3]]/64b"), "{stdout}");
    }

    #[test]
    fn bench_diff_fails_loudly_on_corrupt_baselines() {
        // A hand-edited or truncated baseline used to make the ratio NaN
        // and silently *pass* the gate; it must exit 1 with a diagnostic.
        let dir = std::env::temp_dir().join("cqla-bench-nan-test");
        std::fs::create_dir_all(&dir).unwrap();
        let fresh = dir.join("fresh.json");
        std::fs::write(
            &fresh,
            r#"{"sweep":"grid","threads":2,"points":24,"cpu_seconds_total":2.4,"mean_job_seconds":0.1}"#,
        )
        .unwrap();
        // `1e999` parses to +inf — the one non-finite float JSON admits.
        for bad in [
            r#"{"sweep":"grid","threads":2,"points":24,"cpu_seconds_total":2.4,"mean_job_seconds":1e999}"#,
            r#"{"sweep":"grid","threads":2,"points":24,"cpu_seconds_total":2.4,"mean_job_seconds":-0.1}"#,
            r#"{"sweep":"grid","threads":2,"points":24,"cpu_seconds_total":2.4,"mean_job_seconds":null}"#,
        ] {
            let baseline = dir.join("bad.json");
            std::fs::write(&baseline, bad).unwrap();
            let out = cqla(&[
                "bench-diff",
                baseline.to_str().unwrap(),
                fresh.to_str().unwrap(),
            ]);
            assert_eq!(
                out.status.code(),
                Some(1),
                "corrupt baseline must fail the gate, not green-light it: {bad}\nstderr: {}",
                stderr(&out)
            );
            assert!(
                stderr(&out).contains("mean_job_seconds"),
                "diagnostic must name the field: {}",
                stderr(&out)
            );
        }
    }

    #[test]
    fn bench_diff_gates_on_the_threshold() {
        let dir = std::env::temp_dir().join("cqla-bench-diff-test");
        std::fs::create_dir_all(&dir).unwrap();
        let doc = |mean: f64| {
            format!(
                r#"{{"sweep":"grid","threads":2,"points":24,"cpu_seconds_total":{},"mean_job_seconds":{}}}"#,
                mean * 24.0,
                mean
            )
        };
        let old = dir.join("old.json");
        let same = dir.join("same.json");
        let slow = dir.join("slow.json");
        std::fs::write(&old, doc(0.1)).unwrap();
        std::fs::write(&same, doc(0.11)).unwrap();
        std::fs::write(&slow, doc(0.9)).unwrap();
        let ok = cqla(&["bench-diff", old.to_str().unwrap(), same.to_str().unwrap()]);
        assert_eq!(ok.status.code(), Some(0), "{}", stderr(&ok));
        assert!(stdout(&ok).contains("verdict            ok"));
        let bad = cqla(&["bench-diff", old.to_str().unwrap(), slow.to_str().unwrap()]);
        assert_eq!(bad.status.code(), Some(1), "regression must exit 1");
        assert!(stdout(&bad).contains("REGRESSED"));
        // A loose threshold waves the same pair through.
        let waved = cqla(&[
            "bench-diff",
            old.to_str().unwrap(),
            slow.to_str().unwrap(),
            "--threshold",
            "20",
        ]);
        assert_eq!(waved.status.code(), Some(0));
        // Unreadable files are runtime failures (1), not usage errors (2).
        let missing = cqla(&["bench-diff", "no-such.json", slow.to_str().unwrap()]);
        assert_eq!(missing.status.code(), Some(1));
    }

    // -----------------------------------------------------------------------
    // `cqla serve`: boot the real binary on an ephemeral port, drive it
    // with a plain TcpStream client, and shut it down cleanly — the same
    // exercise CI's release e2e job runs.

    mod serve {
        use super::{cqla, stderr, stdout};
        use std::io::{BufRead, BufReader, Read, Write};
        use std::net::TcpStream;
        use std::process::{Child, Command, Stdio};
        use std::time::{Duration, Instant};

        /// A running `cqla serve` child, killed on drop so a failing
        /// assertion can never leak a listening process. Shared with the
        /// distributed-sweep tests, which boot fleets of these.
        pub(super) struct Serve {
            pub(super) child: Child,
            pub(super) addr: String,
        }

        /// The shared socket-level HTTP client (`cqla-dist`): the same
        /// de-chunking implementation the coordinator ships, so the
        /// framing contract is pinned by one piece of code.
        fn client() -> cqla_repro::dist::Client {
            cqla_repro::dist::Client {
                connect_timeout: Duration::from_secs(10),
                read_timeout: Duration::from_secs(30),
            }
        }

        impl Serve {
            fn start(threads: &str) -> Self {
                Self::start_with(threads, &[])
            }

            pub(super) fn start_with(threads: &str, extra: &[&str]) -> Self {
                let mut child = Command::new(env!("CARGO_BIN_EXE_cqla"))
                    .args(["serve", "--addr", "127.0.0.1:0", "--threads", threads])
                    .args(extra)
                    .stdout(Stdio::piped())
                    .stderr(Stdio::null())
                    .spawn()
                    .expect("cqla serve spawns");
                // The announcement line carries the resolved port.
                let mut line = String::new();
                BufReader::new(child.stdout.take().expect("stdout piped"))
                    .read_line(&mut line)
                    .expect("announcement line");
                let addr = line
                    .split("http://")
                    .nth(1)
                    .and_then(|rest| rest.split_whitespace().next())
                    .unwrap_or_else(|| panic!("unparseable announcement: {line:?}"))
                    .to_owned();
                Self { child, addr }
            }

            fn get(&self, target: &str) -> (u16, String) {
                let response = client().get(&self.addr, target).expect("GET completes");
                (response.status, response.body)
            }

            fn post(&self, target: &str, body: &str) -> (u16, String) {
                let response = client()
                    .post(&self.addr, target, body)
                    .expect("POST completes");
                (response.status, response.body)
            }
        }

        impl Drop for Serve {
            fn drop(&mut self) {
                let _ = self.child.kill();
                let _ = self.child.wait();
            }
        }

        #[test]
        fn serves_runs_byte_identical_to_the_cli_and_shuts_down() {
            let mut serve = Serve::start("2");
            let (status, health) = serve.get("/healthz");
            assert_eq!(status, 200, "{health}");
            assert!(health.contains("\"ok\": true"), "{health}");

            // The acceptance contract: concurrent /v1/run/table4 bodies
            // are byte-identical to `cqla run table4 --format json`.
            let cli = cqla(&["run", "table4", "--format", "json"]);
            assert!(cli.status.success());
            let expected = stdout(&cli);
            let bodies: Vec<(u16, String)> = std::thread::scope(|scope| {
                let clients: Vec<_> = (0..6)
                    .map(|_| scope.spawn(|| serve.get("/v1/run/table4")))
                    .collect();
                clients.into_iter().map(|c| c.join().unwrap()).collect()
            });
            for (status, body) in bodies {
                assert_eq!(status, 200);
                assert_eq!(
                    body, expected,
                    "HTTP body must match CLI stdout byte-for-byte"
                );
            }

            // Clean shutdown: the endpoint acknowledges, the process
            // exits 0 on its own (no kill needed).
            let (status, _) = serve.post("/v1/shutdown", "");
            assert_eq!(status, 200);
            let exit = serve.child.wait().expect("child exits");
            assert!(exit.success(), "clean shutdown must exit 0, got {exit:?}");
        }

        #[test]
        fn serves_grids_byte_identical_to_the_cli() {
            // The grid acceptance contract over HTTP: a value-set query
            // and the per-experiment sweep route both produce the CLI's
            // merged grid document byte for byte.
            let serve = Serve::start("2");
            let cli = cqla(&["run", "fig2", "bits=32..=128:*2", "--format", "json"]);
            assert!(cli.status.success());
            let expected = stdout(&cli);
            let (status, body) = serve.get("/v1/run/fig2?bits=32..=128:*2");
            assert_eq!(status, 200, "{body}");
            assert_eq!(body, expected, "grid query must match CLI stdout");
            let (status, body) = serve.post("/v1/sweep/fig2", "bits=32..=128:*2");
            assert_eq!(status, 200, "{body}");
            assert_eq!(body, expected, "sweep route must match CLI stdout");
            // A grid point is now a cache entry for single runs.
            let single = cqla(&["run", "fig2", "bits=32", "--format", "json"]);
            let (status, body) = serve.get("/v1/run/fig2?bits=32");
            assert_eq!(status, 200);
            assert_eq!(body, stdout(&single), "per-point cache entry");
            let _ = serve.post("/v1/shutdown", "");
        }

        #[test]
        fn oversized_adder_widths_are_400s() {
            let serve = Serve::start("1");
            let (status, body) = serve.get("/v1/run/fig2?bits=100000");
            assert_eq!(status, 400, "{body}");
            assert!(body.contains("1..=4096"), "{body}");
            let (status, body) = serve.get("/v1/run/fig2?bits=32,100000");
            assert_eq!(status, 400, "{body}");
            let (status, body) = serve.post("/v1/sweep", "bits=5000");
            assert_eq!(status, 400, "{body}");
            // Nothing was cached or left blocked: the service still
            // answers, and a valid width runs.
            let (status, _) = serve.get("/v1/run/fig2?bits=4096");
            assert_eq!(status, 200);
            let _ = serve.post("/v1/shutdown", "");
        }

        #[test]
        fn job_streams_resume_after_a_dropped_connection_without_recompute() {
            // The resumable-job acceptance contract: a client that loses
            // its stream mid-flight reattaches at a fragment offset and
            // the glued bytes equal the CLI's merged document — with no
            // grid point ever computed twice.
            let serve = Serve::start_with("2", &["--idle-timeout", "5", "--job-retention", "4"]);
            let (status, created) = serve.post("/v1/jobs/fig2", "bits=32..=128:*2");
            assert_eq!(status, 202, "{created}");
            let doc = cqla_repro::sweep::json::parse(&created).expect("job document");
            let jid = doc
                .get("job")
                .and_then(|v| v.as_str())
                .expect("job id")
                .to_owned();
            assert_eq!(doc.get("points").and_then(|v| v.as_f64()), Some(3.0));
            // Poll until the job finishes in the background.
            let deadline = Instant::now() + Duration::from_secs(60);
            loop {
                let (status, body) = serve.get(&format!("/v1/jobs/{jid}"));
                assert_eq!(status, 200, "{body}");
                let doc = cqla_repro::sweep::json::parse(&body).unwrap();
                if doc.get("status").and_then(|v| v.as_str()) == Some("done") {
                    assert_eq!(
                        doc.get("passed"),
                        Some(&cqla_repro::sweep::Json::Bool(true))
                    );
                    break;
                }
                assert!(Instant::now() < deadline, "job never completed: {body}");
                std::thread::sleep(Duration::from_millis(10));
            }
            // A first stream dies mid-flight: read a few bytes, then
            // drop the connection without finishing.
            {
                let mut stream = TcpStream::connect(&serve.addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                stream
                    .write_all(
                        format!(
                            "GET /v1/jobs/{jid}/stream HTTP/1.1\r\nHost: cqla\r\n\
                             Connection: close\r\n\r\n"
                        )
                        .as_bytes(),
                    )
                    .unwrap();
                let mut partial = [0u8; 64];
                stream.read_exact(&mut partial).expect("partial stream");
                // Dropping the stream here kills the connection.
            }
            // Resume from offset 2 — only the tail is re-sent.
            let (status, tail) = serve.get(&format!("/v1/jobs/{jid}/stream?from=2"));
            assert_eq!(status, 200, "{tail}");
            let (status, full) = serve.get(&format!("/v1/jobs/{jid}/stream"));
            assert_eq!(status, 200);
            assert!(
                full.ends_with(&tail),
                "resume must be a suffix of the document"
            );
            assert!(tail.len() < full.len(), "resume skips delivered fragments");
            // The complete stream is the CLI's merged grid document.
            let cli = cqla(&["run", "fig2", "bits=32..=128:*2", "--format", "json"]);
            assert!(cli.status.success());
            assert_eq!(full, stdout(&cli), "job stream must match CLI stdout");
            // No recomputation anywhere: three points, three misses,
            // however many times the stream was (re)read.
            let (status, stats) = serve.get("/v1/stats");
            assert_eq!(status, 200);
            let doc = cqla_repro::sweep::json::parse(&stats).unwrap();
            assert_eq!(
                doc.get("cache_misses").and_then(|v| v.as_f64()),
                Some(3.0),
                "each grid point computes exactly once: {stats}"
            );
            let (status, _) = serve.post("/v1/shutdown", "");
            assert_eq!(status, 200);
        }

        #[test]
        fn compile_route_is_byte_identical_to_the_cli_and_counted() {
            let serve = Serve::start("2");
            // An empty body compiles the default generated workload —
            // byte-identical to `cqla run compile --format json`.
            let cli = cqla(&["run", "compile", "--format", "json"]);
            assert!(cli.status.success());
            let (status, body) = serve.post("/v1/compile", "");
            assert_eq!(status, 200, "{body}");
            assert_eq!(body, stdout(&cli), "empty body must match the CLI run");
            // A program body with machine overrides matches the
            // `cqla compile FILE` artifact byte for byte.
            let program = "h q0\ntoffoli q0, q1, q2\nmeasure q2\n";
            let dir = std::env::temp_dir().join("cqla-compile-http-test");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("prog.asm");
            std::fs::write(&path, program).unwrap();
            let cli = cqla(&[
                "compile",
                path.to_str().unwrap(),
                "width=4",
                "--format",
                "json",
            ]);
            assert!(cli.status.success(), "{}", stderr(&cli));
            let (status, body) = serve.post("/v1/compile?width=4", program);
            assert_eq!(status, 200, "{body}");
            assert_eq!(body, stdout(&cli), "HTTP compile must match CLI compile");
            // The identical re-POST is served from the results cache,
            // visible in the /v1/stats compile counters.
            let (_, again) = serve.post("/v1/compile?width=4", program);
            assert_eq!(again, body);
            let (status, stats) = serve.get("/v1/stats");
            assert_eq!(status, 200);
            let doc = cqla_repro::sweep::json::parse(&stats).unwrap();
            assert_eq!(
                doc.get("compiles").and_then(|v| v.as_f64()),
                Some(3.0),
                "{stats}"
            );
            assert_eq!(
                doc.get("compile_cache_hits").and_then(|v| v.as_f64()),
                Some(1.0),
                "{stats}"
            );
            let _ = serve.post("/v1/shutdown", "");
        }

        #[test]
        fn compile_route_rejects_bad_programs_with_the_spanned_diagnostic() {
            let serve = Serve::start("2");
            let (status, body) = serve.post("/v1/compile", "h q0\ntofoli q0, q1, q2\n");
            assert_eq!(status, 400, "{body}");
            assert!(body.contains("unknown mnemonic"), "{body}");
            assert!(body.contains("did you mean `toffoli`?"), "{body}");
            // A body alongside source=random is a conflict, not a
            // silent override.
            let (status, body) = serve.post("/v1/compile?source=random", "h q0\n");
            assert_eq!(status, 400, "{body}");
            assert!(body.contains("conflicts"), "{body}");
            // The route is POST-only.
            let (status, body) = serve.get("/v1/compile");
            assert_eq!(status, 405, "{body}");
            // A short body cannot ask for a register past 2^20 qubits,
            // by header or by operand; a register of exactly 2^20 compiles.
            for program in ["# circuit: 4294967295 qubits\nx q0\n", "x q1048576\n"] {
                let (status, body) = serve.post("/v1/compile", program);
                assert_eq!(status, 400, "{body}");
                assert!(body.contains("stop at"), "{body}");
            }
            let (status, body) =
                serve.post("/v1/compile", "# circuit: 1048576 qubits\nx q1048575\n");
            assert_eq!(status, 200, "{body}");
            assert!(body.contains("\"qubits\": 1048576"), "{body}");
            let _ = serve.post("/v1/shutdown", "");
        }

        #[test]
        fn serve_rejects_bad_usage() {
            // Unknown extra arguments and a zero thread count are usage
            // errors (exit 2) before any socket is bound.
            let out = cqla(&["serve", "--frobnicate"]);
            assert_eq!(out.status.code(), Some(2));
            let out = cqla(&["serve", "--threads", "0"]);
            assert_eq!(out.status.code(), Some(2));
            let out = cqla(&["serve", "--addr"]);
            assert_eq!(out.status.code(), Some(2));
            let out = cqla(&["serve", "--idle-timeout", "0"]);
            assert_eq!(out.status.code(), Some(2));
            let out = cqla(&["serve", "--job-retention", "soon"]);
            assert_eq!(out.status.code(), Some(2));
            let out = cqla(&["serve", "--workers", ","]);
            assert_eq!(out.status.code(), Some(2));
        }
    }

    // -----------------------------------------------------------------------
    // `cqla sweep --workers`: boot a fleet of release-grade `cqla serve`
    // worker processes and drive the distributed coordinator through the
    // real binary — byte-identity with the single-process document, the
    // re-shard path around a dead worker, and the `--retries 0` loud
    // failure, exactly as CI's multi-worker e2e stage runs them.

    mod dist {
        use super::serve::Serve;
        use super::{cqla, stderr, stdout};

        /// An address that refuses connections: bound, then immediately
        /// dropped, so connects fail deterministically and instantly.
        fn dead_port() -> String {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        }

        fn fleet_arg(workers: &[&Serve]) -> String {
            workers
                .iter()
                .map(|w| w.addr.clone())
                .collect::<Vec<_>>()
                .join(",")
        }

        #[test]
        fn distributed_sweeps_match_the_single_process_document() {
            let workers = [
                Serve::start_with("2", &[]),
                Serve::start_with("2", &[]),
                Serve::start_with("2", &[]),
            ];
            let fleet = fleet_arg(&[&workers[0], &workers[1], &workers[2]]);
            let spec = "code=steane bits=32,64 xfer=5,10";
            let local = cqla(&["sweep", spec, "--format", "json", "--threads", "2"]);
            assert!(local.status.success());
            let distributed = cqla(&["sweep", spec, "--workers", &fleet, "--format", "json"]);
            assert!(
                distributed.status.success(),
                "stderr: {}",
                stderr(&distributed)
            );
            assert_eq!(
                stdout(&distributed),
                stdout(&local),
                "the merged document must be byte-identical to the local run"
            );
        }

        #[test]
        fn distributed_grids_match_the_single_process_document() {
            let workers = [Serve::start_with("2", &[]), Serve::start_with("2", &[])];
            let fleet = fleet_arg(&[&workers[0], &workers[1]]);
            let local = cqla(&["sweep", "fig2", "bits=8,16,24", "--format", "json"]);
            assert!(local.status.success());
            let distributed = cqla(&[
                "sweep",
                "fig2",
                "bits=8,16,24",
                "--workers",
                &fleet,
                "--format",
                "json",
            ]);
            assert!(
                distributed.status.success(),
                "stderr: {}",
                stderr(&distributed)
            );
            assert_eq!(
                stdout(&distributed),
                stdout(&local),
                "the merged grid document must be byte-identical to the local run"
            );
        }

        #[test]
        fn dead_workers_are_resharded_around_with_retries() {
            // One real worker plus a refusing address: the coordinator
            // burns the dead worker's retries, re-shards its half onto
            // the survivor, and the document does not change a byte.
            let worker = Serve::start_with("2", &[]);
            let fleet = format!("{},{}", worker.addr, dead_port());
            let local = cqla(&["sweep", "quick", "--format", "json", "--threads", "2"]);
            let distributed = cqla(&[
                "sweep",
                "quick",
                "--workers",
                &fleet,
                "--retries",
                "1",
                "--connect-timeout",
                "1",
                "--format",
                "json",
            ]);
            assert!(
                distributed.status.success(),
                "stderr: {}",
                stderr(&distributed)
            );
            assert_eq!(stdout(&distributed), stdout(&local));
        }

        #[test]
        fn zero_retries_fail_loudly_and_name_the_worker() {
            let worker = Serve::start_with("2", &[]);
            let dead = dead_port();
            let fleet = format!("{},{dead}", worker.addr);
            let out = cqla(&[
                "sweep",
                "quick",
                "--workers",
                &fleet,
                "--retries",
                "0",
                "--connect-timeout",
                "1",
                "--format",
                "json",
            ]);
            assert_eq!(out.status.code(), Some(1), "a dead worker must be fatal");
            let err = stderr(&out);
            assert!(err.contains(&dead), "the error must name the worker: {err}");
        }

        #[test]
        fn workers_flag_misuse_exits_two() {
            for args in [
                &["sweep", "quick", "--workers"][..],
                &["sweep", "quick", "--workers", ","][..],
                // Tuning flags without a fleet make no sense.
                &["sweep", "quick", "--retries", "2", "--format", "json"][..],
                &[
                    "sweep",
                    "quick",
                    "--connect-timeout",
                    "3",
                    "--format",
                    "json",
                ][..],
                // The merged document is JSON; text mode cannot render it.
                &["sweep", "quick", "--workers", "127.0.0.1:1"][..],
                // One spec per distributed run.
                &[
                    "sweep",
                    "--spec-file",
                    "specs.txt",
                    "--workers",
                    "127.0.0.1:1",
                    "--format",
                    "json",
                ][..],
                &[
                    "sweep",
                    "quick",
                    "--workers",
                    "127.0.0.1:1",
                    "--connect-timeout",
                    "0",
                    "--format",
                    "json",
                ][..],
            ] {
                let out = cqla(args);
                assert_eq!(
                    out.status.code(),
                    Some(2),
                    "args {args:?} should exit 2, got {:?}\nstderr: {}",
                    out.status,
                    stderr(&out)
                );
            }
        }

        /// The full fault-injection drill CI runs in release mode: three
        /// workers, one killed while the sweep is in flight, and the
        /// merged document still byte-identical. Ignored by default —
        /// it runs a real multi-second sweep; CI opts in with
        /// `--include-ignored`.
        #[test]
        #[ignore = "multi-second fleet drill; CI runs it with --include-ignored"]
        fn killing_a_worker_mid_sweep_does_not_change_a_byte() {
            let local = cqla(&["sweep", "grid", "--format", "json", "--threads", "4"]);
            assert!(local.status.success());
            let mut workers = [
                Serve::start_with("2", &[]),
                Serve::start_with("2", &[]),
                Serve::start_with("2", &[]),
            ];
            let fleet = fleet_arg(&[&workers[0], &workers[1], &workers[2]]);
            // Kill worker 0 while the coordinator is (very likely) still
            // streaming its shard. Whatever the interleaving — before
            // its job starts, mid-stream, or after its shard completed —
            // the document must not change.
            let coordinator = std::thread::spawn(move || {
                cqla(&["sweep", "grid", "--workers", &fleet, "--format", "json"])
            });
            std::thread::sleep(std::time::Duration::from_millis(500));
            workers[0].child.kill().expect("kill worker 0");
            let out = coordinator.join().expect("coordinator finishes");
            assert!(
                out.status.success(),
                "survivors must absorb the lost shard; stderr: {}",
                stderr(&out)
            );
            assert_eq!(
                stdout(&out),
                stdout(&local),
                "a mid-sweep worker death must not change the merged bytes"
            );
        }
    }
}

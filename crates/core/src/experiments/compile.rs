//! The `compile` artifact: compile a user-submitted program into the
//! paper-style latency/area/fidelity artifact.
//!
//! This is the first registry entry whose input is a *program* rather
//! than a parameter tuple: the circuit comes either from inline asm text
//! (the CLI's `cqla compile FILE`, HTTP's `POST /v1/compile` body) or
//! from the seeded Clifford+T generator in [`cqla_compile::random`]
//! (`source=random`, reproducible by `seed=`). Asm text is parsed once,
//! when the `program` override is set, so a bad program is a
//! [`super::ParamError::Program`] and a run cannot fail. The pipeline is
//! `decompose Toffolis → dependency DAG → list-schedule under the width
//! budget → hierarchy placement`, priced with the same memoized
//! [`EvalCtx`] machinery the paper tables use.

use std::borrow::Cow;
use std::sync::Arc;

use cqla_circuit::{asm, decompose_toffolis, Circuit, DependencyDag, QubitId};
use cqla_compile::{random::random_circuit, SAMPLE_PROGRAM};
use cqla_ecc::{Code, Level};
use cqla_iontrap::TechPoint;

use crate::cache::CacheSim;
use crate::eval::EvalCtx;
use crate::hierarchy::cache_capacity;
use crate::json::Json;

use super::api::{
    parse_code, parse_positive, parse_ratio, parse_source, parse_tech, unknown_key, Domain,
    Experiment, ExperimentOutput, Param,
};

/// Where the `compile` experiment's program comes from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CompileSource {
    /// The seeded random Clifford+T generator (`seed=`, `qubits=`,
    /// `gates=` apply).
    #[default]
    Random,
    /// Inline asm text: the `program` override, an asm file on the CLI,
    /// or an HTTP request body. Without a program, compiles
    /// [`SAMPLE_PROGRAM`].
    InlineAsm,
}

impl CompileSource {
    /// Parses a source slug (`inline-asm` or `random`).
    #[must_use]
    pub fn parse(value: &str) -> Option<Self> {
        match value {
            "random" => Some(Self::Random),
            "inline-asm" => Some(Self::InlineAsm),
            _ => None,
        }
    }

    /// The stable slug (`random` / `inline-asm`).
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            Self::Random => "random",
            Self::InlineAsm => "inline-asm",
        }
    }
}

impl core::fmt::Display for CompileSource {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.slug())
    }
}

/// Compiles one program into the paper's schedule + hierarchy metrics.
///
/// Defaults compile a generated 16-qubit, 256-gate Clifford+T workload
/// (seed 1) onto the Table 4 Steane machine width of 9 compute blocks
/// with the 2× cache.
#[derive(Debug, Clone, PartialEq)]
pub struct Compile {
    /// Technology operating point.
    pub tech: TechPoint,
    /// Error-correcting code.
    pub code: Code,
    /// Compute-block width budget for the list schedule.
    pub width: u32,
    /// Cache capacity as a multiple of the compute-region qubits.
    pub cache: f64,
    /// Generator seed (`source=random`).
    pub seed: u32,
    /// Generated register size (`source=random`).
    pub qubits: u32,
    /// Generated gate count (`source=random`).
    pub gates: u32,
    /// Where the program comes from.
    pub source: CompileSource,
    /// The parsed inline program (`source=inline-asm`);
    /// [`SAMPLE_PROGRAM`] when absent. Set via the undeclared `program`
    /// override, which parses the text — front ends pass files/bodies
    /// through it.
    pub program: Option<Circuit>,
}

impl Default for Compile {
    fn default() -> Self {
        Self {
            tech: TechPoint::Projected,
            code: Code::Steane713,
            width: 9,
            cache: 2.0,
            seed: 1,
            qubits: 16,
            gates: 256,
            source: CompileSource::Random,
            program: None,
        }
    }
}

impl Compile {
    /// The program circuit from the configured source.
    fn resolve_program(&self) -> Cow<'_, Circuit> {
        match (self.source, &self.program) {
            (CompileSource::Random, _) => Cow::Owned(random_circuit(
                self.qubits,
                self.gates,
                u64::from(self.seed),
            )),
            (CompileSource::InlineAsm, Some(program)) => Cow::Borrowed(program),
            (CompileSource::InlineAsm, None) => {
                Cow::Owned(asm::parse(SAMPLE_PROGRAM).expect("the sample program parses"))
            }
        }
    }
}

impl Experiment for Compile {
    fn id(&self) -> &'static str {
        "compile"
    }

    fn title(&self) -> &'static str {
        "Compile: price a user-submitted program on the CQLA"
    }

    fn params(&self) -> Vec<Param> {
        vec![
            Param::new("tech", self.tech, Domain::Tech),
            Param::new("code", self.code.slug(), Domain::Code),
            Param::new("width", self.width, Domain::PosInt),
            Param::new("cache", self.cache, Domain::Ratio),
            Param::new("seed", self.seed, Domain::PosInt),
            Param::new("qubits", self.qubits, Domain::PosInt),
            Param::new("gates", self.gates, Domain::PosInt),
            Param::new("source", self.source, Domain::Source),
        ]
    }

    fn set(&mut self, key: &str, value: &str) -> Result<(), super::ParamError> {
        match key {
            "tech" => self.tech = parse_tech("tech", value)?,
            "code" => self.code = parse_code("code", value)?,
            "width" => self.width = parse_positive("width", value)?,
            "cache" => self.cache = parse_ratio("cache", value)?,
            "seed" => self.seed = parse_positive("seed", value)?,
            "qubits" => self.qubits = parse_positive("qubits", value)?,
            "gates" => self.gates = parse_positive("gates", value)?,
            "source" => self.source = parse_source("source", value)?,
            // Undeclared pass-through: the program text itself, parsed
            // here and only here.
            "program" => {
                self.program = Some(asm::parse(value).map_err(super::ParamError::Program)?);
            }
            _ => return Err(unknown_key(key, &self.params())),
        }
        Ok(())
    }

    fn run_ctx(&self, ctx: &EvalCtx) -> ExperimentOutput {
        use std::fmt::Write as _;
        let program = self.resolve_program();
        let tech = self.tech.params();
        let lowered = Arc::new(decompose_toffolis(&program));
        // One DAG, over the lowered gates themselves, serves both the
        // schedule and the optimized cache run.
        let dag = DependencyDag::shared(Arc::clone(&lowered));
        let costs = ctx.compiled_costs(&lowered, &dag, self.width);

        // Latency: every step of the schedule is one logical gate step.
        // L2 prices all steps at level 2; the mixed bound lets the Eq. 1
        // level-1 share of steps run in the fast compute region.
        let t1 = ctx.gate_step_time(self.code, Level::ONE, &tech);
        let t2 = ctx.gate_step_time(self.code, Level::TWO, &tech);
        let share = ctx.level1_share(self.code, &tech, program.num_qubits());
        let steps = costs.makespan as f64;
        let latency_l2 = t2 * steps;
        let latency_mixed = (t1 * share + t2 * (1.0 - share)) * steps;

        // Cache: the hierarchy's capacity rule (cache × compute-region
        // data qubits), two repetitions of the lowered stream with every
        // program input memory-resident; fetches are the warm second
        // repetition's.
        let capacity = cache_capacity(self.cache, self.width);
        let inputs: Vec<QubitId> = (0..program.num_qubits()).map(QubitId::new).collect();
        let (hit_rate, fetches) = if lowered.is_empty() {
            (0.0, 0)
        } else {
            let warm = CacheSim::new(capacity).run_optimized(&dag, &inputs, 2);
            (warm.hit_rate(), warm.last_fetch_misses())
        };

        let area = ctx.area_reduction(
            &tech,
            self.code,
            u64::from(program.num_qubits()),
            self.width,
        );

        let counts = program.counts();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Compile: {} program, {} qubits, {} gates ({} toffoli)",
            self.source,
            program.num_qubits(),
            program.len(),
            counts.toffoli
        );
        let _ = writeln!(
            out,
            "  lowered           {} gates after Toffoli decomposition",
            lowered.len()
        );
        let _ = writeln!(
            out,
            "  schedule          {} blocks: makespan {} steps (critical path {}, ideal {})",
            self.width,
            costs.makespan,
            costs.critical_path,
            costs.ideal_makespan(self.width)
        );
        let _ = writeln!(
            out,
            "  parallelism       peak {} / depth {}, utilization {:.0}%",
            costs.peak_parallelism,
            costs.depth,
            costs.utilization * 100.0
        );
        let _ = writeln!(out, "  latency (L2)      {latency_l2}");
        let _ = writeln!(
            out,
            "  latency (mixed)   {} ({:.0}% of steps at L1)",
            latency_mixed,
            share * 100.0
        );
        let _ = writeln!(
            out,
            "  cache             {} qubits: hit rate {:.0}%, {} fetches/run warm",
            capacity,
            hit_rate * 100.0,
            fetches
        );
        let _ = write!(out, "  area reduction    {area:.2}x vs QLA");

        let data = Json::obj([
            (
                "program",
                Json::obj([
                    ("source", Json::from(self.source.slug())),
                    ("qubits", Json::from(i64::from(program.num_qubits()))),
                    ("gates", Json::from(program.len() as i64)),
                    ("toffoli", Json::from(counts.toffoli as i64)),
                ]),
            ),
            (
                "schedule",
                Json::obj([
                    ("width", Json::from(i64::from(self.width))),
                    ("lowered_gates", Json::from(lowered.len() as i64)),
                    ("makespan", Json::from(costs.makespan as i64)),
                    ("critical_path", Json::from(costs.critical_path as i64)),
                    ("total_work", Json::from(costs.total_work as i64)),
                    ("depth", Json::from(costs.depth as i64)),
                    (
                        "peak_parallelism",
                        Json::from(costs.peak_parallelism as i64),
                    ),
                    ("utilization", Json::from(costs.utilization)),
                ]),
            ),
            (
                "latency",
                Json::obj([
                    ("l2_seconds", Json::from(latency_l2.as_secs())),
                    ("mixed_seconds", Json::from(latency_mixed.as_secs())),
                    ("level1_share", Json::from(share)),
                ]),
            ),
            (
                "cache",
                Json::obj([
                    ("capacity", Json::from(capacity as i64)),
                    ("hit_rate", Json::from(hit_rate)),
                    ("fetches_per_run", Json::from(fetches as i64)),
                ]),
            ),
            ("area_reduction", Json::from(area)),
        ]);
        ExperimentOutput::new(out, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_compile_the_generated_workload() {
        let out = Compile::default().run();
        assert!(out.passed);
        assert!(out.text.contains("random program, 16 qubits, 256 gates"));
        assert!(out.text.contains("area reduction"));
        assert!(out.data.get("schedule").is_some());
        assert!(out.data.get("latency").is_some());
        assert!(out.data.get("cache").is_some());
    }

    #[test]
    fn runs_are_deterministic() {
        let a = Compile::default().run();
        let b = Compile::default().run();
        assert_eq!(a, b);
    }

    #[test]
    fn parameters_apply_and_validate() {
        let mut c = Compile::default();
        c.set("tech", "current").unwrap();
        c.set("code", "bacon-shor").unwrap();
        c.set("width", "4").unwrap();
        c.set("cache", "1.5").unwrap();
        c.set("seed", "7").unwrap();
        c.set("qubits", "8").unwrap();
        c.set("gates", "32").unwrap();
        c.set("source", "inline-asm").unwrap();
        assert_eq!(
            (c.tech, c.code, c.width, c.seed, c.qubits, c.gates, c.source),
            (
                TechPoint::Current,
                Code::BaconShor913,
                4,
                7,
                8,
                32,
                CompileSource::InlineAsm
            )
        );
        assert!(c.set("source", "telepathy").is_err());
        assert!(c.set("width", "0").is_err());
        assert!(c.set("nope", "1").is_err());
    }

    #[test]
    fn inline_asm_defaults_to_the_sample_program() {
        let mut c = Compile::default();
        c.set("source", "inline-asm").unwrap();
        let out = c.run();
        assert!(out.passed);
        assert!(out.text.contains("inline-asm program, 4 qubits, 6 gates"));
    }

    #[test]
    fn explicit_program_overrides_the_sample() {
        let mut c = Compile::default();
        c.set("source", "inline-asm").unwrap();
        c.set("program", "cnot q0, q1\ncnot q1, q2\n").unwrap();
        let out = c.run();
        assert!(out.passed);
        assert!(out.text.contains("3 qubits, 2 gates"));
    }

    #[test]
    fn bad_program_fails_without_panicking() {
        let mut c = Compile::default();
        c.set("source", "inline-asm").unwrap();
        let err = c.set("program", "frobnicate q0\n").unwrap_err();
        let crate::experiments::ParamError::Program(parse) = &err else {
            panic!("expected a program error, got {err:?}");
        };
        assert_eq!(err.to_string(), parse.to_string());
        assert!(err.to_string().contains("unknown mnemonic \"frobnicate\""));
        assert!(err.to_string().contains("  ^^^^^^^^^^"));
        assert!(parse.hint().is_some());
        assert_eq!(
            c.program, None,
            "a rejected program leaves the sample in place"
        );
    }

    #[test]
    fn asm_register_bound_is_the_qubits_domain() {
        assert_eq!(asm::MAX_QUBITS, crate::experiments::grid::MAX_INT);
    }

    #[test]
    fn seed_changes_the_artifact() {
        let mut a = Compile::default();
        a.set("seed", "1").unwrap();
        let mut b = Compile::default();
        b.set("seed", "2").unwrap();
        assert_ne!(a.run().data, b.run().data);
    }

    #[test]
    fn shared_context_reuses_the_schedule_across_techs() {
        let ctx = EvalCtx::new();
        let mut a = Compile::default();
        a.set("tech", "current").unwrap();
        let mut b = Compile::default();
        b.set("tech", "projected").unwrap();
        let _ = a.run_ctx(&ctx);
        let before = ctx.counters();
        let _ = b.run_ctx(&ctx);
        let after = ctx.counters();
        assert!(after.0 > before.0, "second tech point must hit the memo");
    }

    #[test]
    fn run_ctx_is_byte_identical_to_run() {
        let c = Compile::default();
        assert_eq!(c.run(), c.run_ctx(&EvalCtx::new()));
    }
}

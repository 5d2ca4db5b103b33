//! The experiment API: one trait for every paper artifact, plus the
//! registry that enumerates them.
//!
//! Every table, figure and utility artifact of the paper's evaluation is
//! an [`Experiment`]: a typed parameter struct with paper defaults, a
//! stable [`Experiment::id`], and a [`Experiment::run`] that produces
//! both the text rendering and the JSON value. The [`registry`] is the
//! single enumeration every consumer — the `cqla` CLI, the benchmark
//! harness, the end-to-end tests, the examples — iterates instead of
//! naming generators one by one.
//!
//! # Examples
//!
//! ```
//! use cqla_core::experiments::{find, registry};
//!
//! // Every paper artifact is enumerable…
//! assert!(registry().len() >= 11);
//! // …addressable by id…
//! let mut table4 = find("table4").expect("table4 is registered");
//! // …and parameterizable without knowing its concrete type.
//! table4.set("tech", "current").unwrap();
//! let output = table4.run();
//! assert!(output.text.contains("1024-bit"));
//! ```

use cqla_circuit::asm::ParseAsmError;
use cqla_ecc::Code;
use cqla_iontrap::TechPoint;
use cqla_workloads::MAX_ADDER_BITS;

use super::compile::CompileSource;
use crate::json::Json;

/// What running an experiment produces: the paper-style text rendering
/// and the structured JSON value, plus a pass/fail verdict (only the
/// `verify` artifact ever fails).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOutput {
    /// The rendered table/series, as the paper prints it.
    pub text: String,
    /// The structured result (what `--format json` emits as `data`).
    pub data: Json,
    /// Whether the experiment's self-checks passed. `true` for every
    /// artifact except a failing `verify`.
    pub passed: bool,
}

impl ExperimentOutput {
    /// Wraps a rendering and its JSON value as a passing output.
    #[must_use]
    pub fn new(text: impl Into<String>, data: Json) -> Self {
        Self {
            text: text.into(),
            data,
            passed: true,
        }
    }

    /// The self-describing artifact document `{"artifact": id, "data": …}`
    /// that `cqla run <id> --format json` prints.
    #[must_use]
    pub fn document(&self, id: &str) -> Json {
        Json::obj([("artifact", Json::from(id)), ("data", self.data.clone())])
    }
}

/// The typed domain of one experiment parameter: what values it
/// accepts.
///
/// This is the *single* value-parsing layer of the parameter surface:
/// [`Experiment::set`] (via [`parse_tech`], [`parse_code`],
/// [`parse_positive`], [`parse_ratio`]) and the value-set grammar
/// ([`super::grid`], which `cqla-sweep` specs parse through too) share
/// the same underlying predicates — [`TechPoint::parse`], [`Code::parse`], and
/// the capped integer / positive-decimal parsers behind
/// [`Domain::admits`] — so a value that parses in a sweep spec can
/// never be rejected by `set`, and vice versa (the registry
/// completeness test in `tests/registry.rs` pins this per declared
/// parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// A technology preset label (`current|projected`).
    Tech,
    /// An error-correcting code slug (`steane|bacon-shor`).
    Code,
    /// A positive integer in `1..=`[`super::grid::MAX_INT`].
    PosInt,
    /// An adder width in `1..=`[`MAX_ADDER_BITS`].
    Bits,
    /// A positive finite decimal (cache ratios and the like).
    Ratio,
    /// A compile program source (`inline-asm|random`).
    Source,
}

impl Domain {
    /// The `accepts` string for usage messages (e.g. `current|projected`).
    #[must_use]
    pub const fn accepts(self) -> &'static str {
        match self {
            Self::Tech => TECH_ACCEPTS,
            Self::Code => CODE_ACCEPTS,
            Self::PosInt => INT_ACCEPTS,
            Self::Bits => BITS_ACCEPTS,
            Self::Ratio => RATIO_ACCEPTS,
            Self::Source => SOURCE_ACCEPTS,
        }
    }

    /// Whether `value` parses in this domain. This predicate is the
    /// shared contract between `Experiment::set` and the grid grammar.
    #[must_use]
    pub fn admits(self, value: &str) -> bool {
        match self {
            Self::Tech => TechPoint::parse(value).is_some(),
            Self::Code => Code::parse(value).is_some(),
            Self::PosInt => parse_pos_int(value).is_some(),
            Self::Bits => parse_int_in(value, MAX_ADDER_BITS).is_some(),
            Self::Ratio => parse_pos_ratio(value).is_some(),
            Self::Source => CompileSource::parse(value).is_some(),
        }
    }
}

/// Parses a positive integer within the shared grid/sweep cap.
pub(crate) fn parse_pos_int(value: &str) -> Option<u32> {
    parse_int_in(value, super::grid::MAX_INT)
}

/// Parses an integer in `1..=max`.
fn parse_int_in(value: &str, max: u32) -> Option<u32> {
    value.parse::<u32>().ok().filter(|n| (1..=max).contains(n))
}

/// Parses a positive finite decimal.
pub(crate) fn parse_pos_ratio(value: &str) -> Option<f64> {
    value
        .parse::<f64>()
        .ok()
        .filter(|x| x.is_finite() && *x > 0.0)
}

/// One declared parameter of an experiment: key, current value, and the
/// typed domain of values it accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// The `key` in `cqla run <id> key=value`.
    pub key: &'static str,
    /// The current (or default) value, rendered.
    pub value: String,
    /// The typed domain of accepted values.
    pub domain: Domain,
}

impl Param {
    /// Builds a parameter row.
    #[must_use]
    pub fn new(key: &'static str, value: impl ToString, domain: Domain) -> Self {
        Self {
            key,
            value: value.to_string(),
            domain,
        }
    }

    /// Accepted values, for usage messages (e.g. `current|projected`).
    #[must_use]
    pub const fn accepts(&self) -> &'static str {
        self.domain.accepts()
    }
}

/// One *declared* parameter of an experiment: its key, typed domain, and
/// paper default. This is what the grid grammar validates `key=value-set`
/// expressions against — see [`super::grid::Grid::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSpec {
    /// The `key` in `cqla run <id> key=value-set`.
    pub key: &'static str,
    /// The typed domain of accepted values.
    pub domain: Domain,
    /// The paper-default value, rendered.
    pub default: String,
}

/// Why a `key=value` override was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamError {
    /// The experiment has no such parameter.
    UnknownKey {
        /// The rejected key.
        key: String,
        /// The keys the experiment does accept.
        valid: Vec<&'static str>,
        /// The closest valid key, when one is close enough to suggest.
        suggestion: Option<&'static str>,
    },
    /// The key exists but the value does not parse.
    BadValue {
        /// The parameter the value was for.
        key: &'static str,
        /// The rejected value.
        value: String,
        /// What the parameter accepts.
        accepts: &'static str,
    },
    /// The key was given more than once in one override list.
    DuplicateKey {
        /// The repeated key.
        key: String,
    },
    /// The `compile` artifact's `program` text does not parse; displays
    /// the parser's caret diagnostic, hint included.
    Program(ParseAsmError),
}

impl core::fmt::Display for ParamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::UnknownKey {
                key,
                valid,
                suggestion,
            } => {
                write!(f, "unknown parameter `{key}`")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean `{s}`?)")?;
                }
                if valid.is_empty() {
                    write!(f, "; this experiment takes no parameters")
                } else {
                    write!(f, "; valid: {}", valid.join(", "))
                }
            }
            Self::BadValue {
                key,
                value,
                accepts,
            } => {
                write!(f, "bad value `{value}` for `{key}`; expected {accepts}")
            }
            Self::DuplicateKey { key } => write!(f, "duplicate parameter `{key}`"),
            Self::Program(err) => err.fmt(f),
        }
    }
}

impl std::error::Error for ParamError {}

/// One paper artifact: identity, typed parameters, execution.
///
/// Implementations are small structs whose public fields are the paper
/// defaults (`Table4 { tech }`, `Fig2 { bits, cap }`, …); the trait adds
/// the uniform string-keyed surface the CLI and other front ends drive.
pub trait Experiment {
    /// Stable machine-readable identifier (`table4`, `fig6a`, `verify`).
    fn id(&self) -> &'static str;

    /// Human-readable title, as the artifact banner prints it.
    fn title(&self) -> &'static str;

    /// The declared parameters with their current values. Empty when the
    /// experiment takes none.
    ///
    /// The resolved params determine [`Experiment::run_ctx`]'s output,
    /// however the overrides were spelled or ordered, so the HTTP
    /// service keys its results cache by them. The one undeclared
    /// exception is `compile`'s `program` text, which a key must add.
    fn params(&self) -> Vec<Param> {
        Vec::new()
    }

    /// The declared parameter surface: key, typed domain, and default
    /// value per parameter. On the fresh instances the [`registry`]
    /// hands out, the defaults are the paper defaults — which is what
    /// the grid grammar ([`super::grid`]) validates value-set
    /// expressions against.
    fn specs(&self) -> Vec<ParamSpec> {
        self.params()
            .into_iter()
            .map(|p| ParamSpec {
                key: p.key,
                domain: p.domain,
                default: p.value,
            })
            .collect()
    }

    /// Applies one `key=value` override.
    ///
    /// # Errors
    ///
    /// [`ParamError::UnknownKey`] when the experiment has no such
    /// parameter, [`ParamError::BadValue`] when the value does not parse,
    /// [`ParamError::Program`] when `compile`'s program text does not.
    fn set(&mut self, key: &str, value: &str) -> Result<(), ParamError> {
        let _ = value;
        Err(unknown_key(key, &self.params()))
    }

    /// Runs the experiment, reusing sub-results memoized in `ctx`.
    ///
    /// Grid executors share one context across all points so neighboring
    /// parameterizations reuse DAG schedules, cache-simulator passes, and
    /// ECC tables. Results are byte-identical whether `ctx` is fresh or
    /// shared — everything cached in an [`EvalCtx`](crate::eval::EvalCtx)
    /// is a pure function of its key. Artifacts with nothing worth
    /// caching ignore `ctx`.
    fn run_ctx(&self, ctx: &crate::eval::EvalCtx) -> ExperimentOutput;

    /// Runs the experiment under its current parameters on a fresh
    /// context.
    fn run(&self) -> ExperimentOutput {
        self.run_ctx(&crate::eval::EvalCtx::new())
    }
}

/// Renders an experiment's parameter surface for usage messages and
/// error hints (`tech=<current|projected> cap=<an integer in 1..=1048576>`),
/// or `no parameters` when it declares none. Shared by the CLI and the
/// HTTP service so their diagnostics never drift.
#[must_use]
pub fn params_usage(exp: &dyn Experiment) -> String {
    let params = exp.params();
    if params.is_empty() {
        return "no parameters".to_owned();
    }
    params
        .iter()
        .map(|p| format!("{}=<{}>", p.key, p.accepts()))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Applies `key=value` overrides in order. A key given twice is
/// rejected, as the grid grammar rejects it, rather than letting one
/// value silently win. Shared by the CLI and the HTTP service so a
/// repeated key means the same thing on both.
///
/// # Errors
///
/// [`ParamError::DuplicateKey`] on the second occurrence of a key, or
/// the first error [`Experiment::set`] returns.
pub fn apply_overrides<'a>(
    exp: &mut dyn Experiment,
    pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> Result<(), ParamError> {
    let mut seen = Vec::new();
    for (key, value) in pairs {
        if seen.contains(&key) {
            return Err(ParamError::DuplicateKey {
                key: key.to_owned(),
            });
        }
        seen.push(key);
        exp.set(key, value)?;
    }
    Ok(())
}

/// Builds the [`ParamError::UnknownKey`] for `key` against an
/// experiment's declared parameters, with a did-you-mean suggestion.
#[must_use]
pub fn unknown_key(key: &str, params: &[Param]) -> ParamError {
    let valid: Vec<&'static str> = params.iter().map(|p| p.key).collect();
    ParamError::UnknownKey {
        key: key.to_owned(),
        suggestion: suggest(key, valid.iter().copied()),
        valid,
    }
}

/// Builds the [`ParamError::BadValue`] for a value `domain` rejected.
fn bad_value(key: &'static str, value: &str, domain: Domain) -> ParamError {
    ParamError::BadValue {
        key,
        value: value.to_owned(),
        accepts: domain.accepts(),
    }
}

/// Parses a [`TechPoint`] parameter value ([`Domain::Tech`]).
///
/// # Errors
///
/// [`ParamError::BadValue`] when the value is neither preset label.
pub fn parse_tech(key: &'static str, value: &str) -> Result<TechPoint, ParamError> {
    TechPoint::parse(value).ok_or_else(|| bad_value(key, value, Domain::Tech))
}

/// Parses a [`Code`] parameter value ([`Domain::Code`]).
///
/// # Errors
///
/// [`ParamError::BadValue`] when the value names neither code.
pub fn parse_code(key: &'static str, value: &str) -> Result<Code, ParamError> {
    Code::parse(value).ok_or_else(|| bad_value(key, value, Domain::Code))
}

/// Parses a positive integer parameter value ([`Domain::PosInt`], capped
/// at [`super::grid::MAX_INT`] — the same bound the grid/sweep grammars
/// enforce, so both layers accept exactly the same values).
///
/// # Errors
///
/// [`ParamError::BadValue`] when the value is not an integer in
/// `1..=`[`super::grid::MAX_INT`].
pub fn parse_positive(key: &'static str, value: &str) -> Result<u32, ParamError> {
    parse_pos_int(value).ok_or_else(|| bad_value(key, value, Domain::PosInt))
}

/// Parses an adder-width parameter value ([`Domain::Bits`]).
///
/// # Errors
///
/// [`ParamError::BadValue`] when the value is not an integer in
/// `1..=`[`MAX_ADDER_BITS`].
pub fn parse_bits(key: &'static str, value: &str) -> Result<u32, ParamError> {
    parse_int_in(value, MAX_ADDER_BITS).ok_or_else(|| bad_value(key, value, Domain::Bits))
}

/// Parses a positive decimal parameter value ([`Domain::Ratio`]).
///
/// # Errors
///
/// [`ParamError::BadValue`] when the value is not a positive finite
/// decimal.
pub fn parse_ratio(key: &'static str, value: &str) -> Result<f64, ParamError> {
    parse_pos_ratio(value).ok_or_else(|| bad_value(key, value, Domain::Ratio))
}

/// Parses a [`CompileSource`] parameter value ([`Domain::Source`]).
///
/// # Errors
///
/// [`ParamError::BadValue`] when the value names neither source.
pub fn parse_source(key: &'static str, value: &str) -> Result<CompileSource, ParamError> {
    CompileSource::parse(value).ok_or_else(|| bad_value(key, value, Domain::Source))
}

/// The `accepts` string for technology-preset parameters.
pub const TECH_ACCEPTS: &str = "current|projected";

/// The `accepts` string for code parameters.
pub const CODE_ACCEPTS: &str = "steane|bacon-shor";

/// The `accepts` string for positive-integer parameters (capped at
/// [`super::grid::MAX_INT`]).
pub const INT_ACCEPTS: &str = "an integer in 1..=1048576";

/// The `accepts` string for adder-width parameters.
pub const BITS_ACCEPTS: &str = "an adder width in 1..=4096";

/// The `accepts` string for ratio parameters.
pub const RATIO_ACCEPTS: &str = "a positive decimal";

/// The `accepts` string for compile program sources.
pub const SOURCE_ACCEPTS: &str = "inline-asm|random";

/// Every paper artifact, in the paper's presentation order: Tables 1–5,
/// Figures 2/6a/6b/7/8a/8b, then the `verify` self-checks, the `machine`
/// configuration pricer, and the `compile` program front end.
#[must_use]
pub fn registry() -> Vec<Box<dyn Experiment>> {
    use super::{
        Compile, Fig2, Fig6a, Fig6b, Fig7, Fig8a, Fig8b, Machine, Table1, Table2, Table3, Table4,
        Table5, Verify,
    };
    vec![
        Box::new(Table1),
        Box::new(Table2::default()),
        Box::new(Table3::default()),
        Box::new(Table4::default()),
        Box::new(Table5::default()),
        Box::new(Fig2::default()),
        Box::new(Fig6a::default()),
        Box::new(Fig6b::default()),
        Box::new(Fig7),
        Box::new(Fig8a::default()),
        Box::new(Fig8b::default()),
        Box::new(Verify),
        Box::new(Machine::default()),
        Box::new(Compile::default()),
    ]
}

/// Looks an artifact up by its stable id.
#[must_use]
pub fn find(id: &str) -> Option<Box<dyn Experiment>> {
    registry().into_iter().find(|e| e.id() == id)
}

/// The ids of every registered artifact, in registry order.
#[must_use]
pub fn ids() -> Vec<&'static str> {
    registry().iter().map(|e| e.id()).collect()
}

/// The registry listing as a JSON document: every artifact's id, title,
/// and parameter surface with defaults. This is the one shape both
/// `cqla list --format json` and the HTTP service's `/v1/experiments`
/// endpoint emit, so front ends can never drift apart.
#[must_use]
pub fn listing_json() -> Json {
    Json::obj([(
        "artifacts",
        Json::Arr(
            registry()
                .iter()
                .map(|exp| {
                    Json::obj([
                        ("id", Json::from(exp.id())),
                        ("title", Json::from(exp.title())),
                        (
                            "params",
                            Json::obj(
                                exp.params()
                                    .iter()
                                    .map(|p| (p.key.to_owned(), Json::from(p.value.as_str()))),
                            ),
                        ),
                        (
                            "accepts",
                            Json::obj(
                                exp.params()
                                    .iter()
                                    .map(|p| (p.key.to_owned(), Json::from(p.accepts()))),
                            ),
                        ),
                    ])
                })
                .collect(),
        ),
    )])
}

/// Levenshtein edit distance, for did-you-mean suggestions.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// The closest candidate to `input`, when close enough to plausibly be a
/// typo (edit distance ≤ 2, or ≤ ⌈len/3⌉ for longer inputs).
pub fn suggest<'a>(input: &str, candidates: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    let budget = 2.max(input.chars().count().div_ceil(3));
    candidates
        .into_iter()
        .map(|c| (edit_distance(input, c), c))
        .filter(|&(d, _)| d <= budget)
        .min_by_key(|&(d, _)| d)
        .map(|(_, c)| c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_paper_artifact() {
        let expected = [
            "table1", "table2", "table3", "table4", "table5", "fig2", "fig6a", "fig6b", "fig7",
            "fig8a", "fig8b", "verify", "machine", "compile",
        ];
        assert_eq!(ids(), expected);
    }

    #[test]
    fn find_is_id_addressed() {
        let title = find("fig6b").map(|e| e.title().to_owned());
        assert_eq!(title.as_deref(), Some("Figure 6b: superblock bandwidth"));
        assert!(find("fig9").is_none());
    }

    #[test]
    fn unknown_key_suggests_the_near_miss() {
        let mut t4 = find("table4").unwrap();
        let err = t4.set("tehc", "current").unwrap_err();
        match err {
            ParamError::UnknownKey { suggestion, .. } => assert_eq!(suggestion, Some("tech")),
            other => panic!("expected UnknownKey, got {other}"),
        }
    }

    #[test]
    fn suggest_rejects_distant_strings() {
        assert_eq!(suggest("table4", ["table4", "fig2"]), Some("table4"));
        assert_eq!(suggest("tabel4", ["table4", "fig2"]), Some("table4"));
        assert_eq!(suggest("zzzzzz", ["table4", "fig2"]), None);
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("same", "same"), 0);
    }
}

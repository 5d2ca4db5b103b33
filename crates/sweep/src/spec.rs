//! Sweep descriptions: value-set grids over the CQLA design space.
//!
//! A [`Sweep`] is a name and a list of [`Grid`]s parsed against the
//! design-space surface (the [`Experiment::specs`] of
//! [`DesignPoint::paper_default`]); its points are fully specified
//! architecture evaluations. The paper's own grids (Table 4's
//! size×blocks sweep, Table 5's code×transfer×size cube) and the
//! multi-technology grids beyond them are built-in specs written in that
//! same grammar.
//!
//! # The sweep-spec expression language
//!
//! A spec is a whitespace-separated list of `key=values` clauses over
//! the paper's default design point, parsed by the registry grammar
//! ([`Grid::parse`]) against the seven design-space keys a
//! [`DesignPoint`] declares as an [`Experiment`]:
//!
//! ```text
//! tech=current,projected code=bacon-shor width=64..=512:*2 cache=0.25,0.5 xfer=5,10
//! ```
//!
//! | key      | sets                                   | values |
//! |----------|----------------------------------------|--------|
//! | `tech`   | technology preset                      | `current`, `projected` |
//! | `code`   | error-correcting code                  | `steane`, `bacon-shor` |
//! | `width`  | adder bits, Table 4 block provisioning | integers or ranges |
//! | `bits`   | adder bits, block count untouched      | integers or ranges |
//! | `blocks` | compute blocks                         | integers or ranges |
//! | `xfer`   | parallel transfers (enables hierarchy) | integers or ranges |
//! | `cache`  | cache ratio (× compute-region qubits)  | decimals |
//!
//! Integer values are comma lists (`64,128`) or inclusive ranges with an
//! optional step: `64..=512:*2` doubles (64, 128, 256, 512) and
//! `4..=10:+3` counts up (4, 7, 10); a bare `a..=b` steps by one. Later
//! clauses vary fastest, exactly like nested `for` loops, and each
//! point's overrides apply in clause order through [`Experiment::set`]:
//! `width=64 blocks=4,9` keeps the explicit block counts, while
//! `blocks=4,9 width=64` re-provisions both points with 64 bits'
//! primary blocks.
//!
//! A clause `base.<key>=v` pins one value on every point instead of
//! adding an axis: `base.xfer=10 code=steane,bacon-shor width=64..=512:*2`
//! runs the code×width grid with every point on ten transfer channels.
//!
//! Errors are *spanned*: [`SpecError`] carries the byte range of the
//! offending token and renders a caret underline, so a typo in a long
//! spec is pinpointed rather than guessed at.

use std::sync::OnceLock;

use cqla_core::experiments::{
    parse_bits, parse_code, parse_positive, parse_ratio, parse_tech, primary_blocks, suggest,
    unknown_key, Domain, Experiment, ExperimentOutput, Grid, Param, ParamError, TABLE5_PAR_XFER,
    TABLE5_SIZES,
};
use cqla_core::json::{Json, ToJson};
use cqla_core::{EvalCtx, TABLE4_GRID};
use cqla_ecc::Code;

pub use cqla_core::experiments::grid::SpecError;
pub use cqla_iontrap::TechPoint;

use crate::engine::PointOutcome;

/// A fully specified design point: everything the engine needs to price
/// one architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Technology operating point.
    pub tech: TechPoint,
    /// Error-correcting code.
    pub code: Code,
    /// Adder width in bits.
    pub input_bits: u32,
    /// Compute blocks.
    pub blocks: u32,
    /// Parallel memory↔cache transfers; `None` evaluates the flat CQLA
    /// only (no memory hierarchy).
    pub par_xfer: Option<u32>,
    /// Cache capacity as a multiple of the compute-region qubits.
    pub cache_factor: f64,
}

impl DesignPoint {
    /// The paper's default starting point: projected technology,
    /// Bacon-Shor code, 64-bit adder on its Table 4 primary block count,
    /// flat CQLA, cache at 2×PE when a hierarchy is requested.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            tech: TechPoint::Projected,
            code: Code::BaconShor913,
            input_bits: 64,
            blocks: primary_blocks(64),
            par_xfer: None,
            cache_factor: 2.0,
        }
    }

    /// A short stable label, used in text output and JSON.
    ///
    /// Non-default cache ratios are spelled out so that points differing
    /// only in cache factor stay distinguishable.
    #[must_use]
    pub fn label(&self) -> String {
        let hierarchy = match self.par_xfer {
            Some(x) => format!("/x{x}"),
            None => String::new(),
        };
        let cache = if (self.cache_factor - 2.0).abs() > 1e-12 {
            format!("/c{}", self.cache_factor)
        } else {
            String::new()
        };
        format!(
            "{}/{}/{}b/{}blk{}{}",
            self.tech.label(),
            self.code.label(),
            self.input_bits,
            self.blocks,
            hierarchy,
            cache
        )
    }
}

/// A design point is the experiment every sweep point runs: its
/// parameters are the seven keys of the sweep-spec grammar (see the
/// [module docs](self)), and a run prices the point with
/// [`PointOutcome`]. It is not a registry entry: `cqla sweep` reaches
/// it through [`Sweep`], and the grid executor through a grid whose id
/// is `sweep`.
impl Experiment for DesignPoint {
    fn id(&self) -> &'static str {
        "sweep"
    }

    fn title(&self) -> &'static str {
        "CQLA design point: specialization and memory hierarchy"
    }

    fn params(&self) -> Vec<Param> {
        vec![
            Param::new("tech", self.tech.label(), Domain::Tech),
            Param::new("code", self.code.slug(), Domain::Code),
            Param::new("width", self.input_bits, Domain::Bits),
            Param::new("bits", self.input_bits, Domain::Bits),
            Param::new("blocks", self.blocks, Domain::PosInt),
            // The paper default is the flat CQLA: no transfer channels.
            Param::new(
                "xfer",
                self.par_xfer
                    .map_or_else(|| "none".to_owned(), |x| x.to_string()),
                Domain::PosInt,
            ),
            Param::new("cache", self.cache_factor, Domain::Ratio),
        ]
    }

    /// Applies one `key=value` override of the sweep-spec grammar:
    /// `width` sets the adder bits *and* their Table 4 primary block
    /// count, `bits` only the bits, and `xfer` turns the hierarchy on.
    fn set(&mut self, key: &str, value: &str) -> Result<(), ParamError> {
        match key {
            "tech" => self.tech = parse_tech("tech", value)?,
            "code" => self.code = parse_code("code", value)?,
            "width" => {
                self.input_bits = parse_bits("width", value)?;
                self.blocks = primary_blocks(self.input_bits);
            }
            "bits" => self.input_bits = parse_bits("bits", value)?,
            "blocks" => self.blocks = parse_positive("blocks", value)?,
            "xfer" => self.par_xfer = Some(parse_positive("xfer", value)?),
            "cache" => self.cache_factor = parse_ratio("cache", value)?,
            _ => return Err(unknown_key(key, &self.params())),
        }
        Ok(())
    }

    /// The point's entry in the sweep document, `{"point", "outcome"}`,
    /// as `data`; the text is the point's label, the row heading of the
    /// sweep table.
    fn run_ctx(&self, ctx: &EvalCtx) -> ExperimentOutput {
        let outcome = PointOutcome::evaluate_ctx(self, ctx);
        ExperimentOutput::new(
            self.label(),
            Json::obj([("point", self.to_json()), ("outcome", outcome.to_json())]),
        )
    }
}

impl ToJson for DesignPoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("tech", self.tech.to_json()),
            ("code", self.code.to_json()),
            ("input_bits", self.input_bits.to_json()),
            ("blocks", self.blocks.to_json()),
            ("par_xfer", self.par_xfer.to_json()),
            ("cache_factor", Json::Num(self.cache_factor)),
        ])
    }
}

/// A named experiment sweep: the grids it was written as. The grid
/// executor runs the grids; [`Sweep::points`] expands them into design
/// points only for callers that read them.
#[derive(Debug, Clone)]
pub struct Sweep {
    name: String,
    grids: Vec<Grid>,
    points: OnceLock<Vec<DesignPoint>>,
}

impl Sweep {
    fn from_grids(name: impl Into<String>, grids: Vec<Grid>) -> Self {
        Self {
            name: name.into(),
            grids,
            points: OnceLock::new(),
        }
    }

    /// The sweep's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The grids the sweep was written as; their points, concatenated in
    /// order, are [`Sweep::points`]. Each grid re-parses from its own
    /// `spec()` text, which is how a shard travels to a worker.
    #[must_use]
    pub fn grids(&self) -> &[Grid] {
        &self.grids
    }

    /// The design points in execution (submission) order: each grid
    /// point's overrides applied, in clause order, to the paper-default
    /// design point. Expanded on the first call.
    #[must_use]
    pub fn points(&self) -> &[DesignPoint] {
        self.points.get_or_init(|| {
            self.grids
                .iter()
                .flat_map(Grid::points)
                .map(|overrides| {
                    let mut point = DesignPoint::paper_default();
                    for (key, value) in &overrides {
                        point
                            .set(key, value)
                            .expect("grid values validate through the same domains as `set`");
                    }
                    point
                })
                .collect()
        })
    }

    /// Number of design points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.grids.iter().map(Grid::len).sum()
    }

    /// Whether the sweep has no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The built-in sweep specs `cqla sweep <spec>` accepts, with a
    /// one-line description each.
    pub const BUILTIN: [(&'static str, &'static str); 5] = [
        (
            "grid",
            "both technologies x both codes x six adder sizes, full hierarchy (24 points)",
        ),
        (
            "quick",
            "both technologies x both codes x {32,64} bits (8 cheap points)",
        ),
        (
            "cache",
            "cache ratio {1,1.5,2} x both codes x {64,128,256} bits (18 points)",
        ),
        (
            "table4",
            "the paper's Table 4 grid as an explicit point list",
        ),
        (
            "table5",
            "the paper's Table 5 cube (codes x par-xfer x sizes)",
        ),
    ];

    /// Parses a spec: a built-in name (`grid`, `quick`, …) or a
    /// `key=values` expression (see the [module docs](self) for the
    /// grammar), which names the one-grid sweep it parses to by its
    /// trimmed text.
    ///
    /// ```
    /// use cqla_sweep::Sweep;
    ///
    /// assert_eq!(Sweep::parse("quick").unwrap().len(), 8);
    /// let custom = Sweep::parse("code=steane width=64,128 xfer=5,10").unwrap();
    /// assert_eq!(custom.len(), 4);
    /// ```
    ///
    /// # Errors
    ///
    /// A [`SpecError`] pointing at the offending token: an empty spec,
    /// unknown or duplicate keys (with did-you-mean suggestions,
    /// including a built-in spec name typed as a bare word),
    /// unparseable values, degenerate ranges, multi-value `base.`
    /// clauses, or a grid past the grammar's point cap.
    pub fn parse(spec: &str) -> Result<Self, SpecError> {
        let name = spec.trim();
        if let Some(sweep) = Self::builtin(name) {
            return Ok(sweep);
        }
        if name.is_empty() {
            return Err(SpecError::new(
                spec,
                (0, spec.len()),
                "empty spec; expected key=values clauses (e.g. `tech=projected width=64,128`)",
            ));
        }
        let grid = design_grid(spec).map_err(|mut e| {
            // A bare word is more likely a mistyped builtin than a clause.
            if e.message.starts_with("expected a `key=values` clause") {
                let word = &spec[e.span.0..e.span.1];
                if let Some(b) = suggest(word, Self::BUILTIN.map(|(name, _)| name)) {
                    e.message = format!(
                        "expected a `key=values` clause (or did you mean the built-in spec `{b}`?)"
                    );
                }
            }
            e
        })?;
        Ok(Self::from_grids(name, vec![grid]))
    }

    /// Resolves a built-in spec by name.
    #[must_use]
    pub fn builtin(name: &str) -> Option<Self> {
        let list = |values: &[u32]| {
            values
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(",")
        };
        let exprs = match name {
            // The flagship multi-technology grid: every Table 4 size at
            // its primary block count, under both codes and both
            // technology columns, with the full memory hierarchy.
            "grid" => vec![
                "base.xfer=10 tech=current,projected code=steane,bacon-shor width=32..=1024:*2"
                    .to_owned(),
            ],
            "quick" => vec!["tech=current,projected code=steane,bacon-shor width=32,64".to_owned()],
            "cache" => vec![
                "base.xfer=10 cache=1,1.5,2 code=steane,bacon-shor width=64,128,256".to_owned(),
            ],
            // Table 4 lists two block counts per size: one grid per row.
            "table4" => TABLE4_GRID
                .iter()
                .map(|(bits, blocks)| {
                    format!("bits={bits} blocks={} code=steane,bacon-shor", list(blocks))
                })
                .collect(),
            "table5" => vec![format!(
                "code=steane,bacon-shor xfer={} width={}",
                list(&TABLE5_PAR_XFER),
                list(&TABLE5_SIZES)
            )],
            _ => return None,
        };
        let grids = exprs
            .iter()
            .map(|expr| design_grid(expr).expect("built-in specs parse"))
            .collect();
        Some(Self::from_grids(name, grids))
    }
}

/// Parses a grid expression over the design-space surface. The grid
/// carries the design point's id, `sweep`, which is how the grid
/// executor knows to run each point on a [`DesignPoint`].
fn design_grid(expr: &str) -> Result<Grid, SpecError> {
    let point = DesignPoint::paper_default();
    Grid::parse(point.id(), &point.specs(), expr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cartesian_order_is_row_major() {
        let sweep = Sweep::parse("code=steane,bacon-shor bits=32,64").unwrap();
        let points = sweep.points();
        assert_eq!(points.len(), 4);
        assert_eq!(
            (points[0].code, points[0].input_bits),
            (Code::Steane713, 32)
        );
        assert_eq!(
            (points[1].code, points[1].input_bits),
            (Code::Steane713, 64)
        );
        assert_eq!(
            (points[2].code, points[2].input_bits),
            (Code::BaconShor913, 32)
        );
    }

    #[test]
    fn primary_blocks_axis_couples_size_to_machine() {
        let sweep = Sweep::parse("width=256,1024").unwrap();
        assert_eq!(sweep.points()[0].blocks, 36);
        assert_eq!(sweep.points()[1].blocks, 100);
        let mut point = DesignPoint::paper_default();
        point.set("bits", "256").unwrap();
        assert_eq!(point.blocks, DesignPoint::paper_default().blocks);
        let err = point.set("widht", "64").unwrap_err();
        assert!(err.to_string().contains("did you mean `width`?"), "{err}");
    }

    #[test]
    fn builtin_point_lists_match_the_golden() {
        // One `name: label` line per point, captured before the builtins
        // were rewritten as grid expressions.
        let golden = include_str!("../../../tests/golden/sweep_builtins.txt");
        let mut expected: Vec<String> = Vec::new();
        for name in ["quick", "cache", "table4", "table5"] {
            for point in Sweep::builtin(name).unwrap().points() {
                expected.push(format!("{name}: {}", point.label()));
            }
        }
        let lines: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(lines, expected);
    }

    #[test]
    fn grid_builtin_is_a_24_point_multi_technology_grid() {
        let sweep = Sweep::builtin("grid").unwrap();
        assert!(sweep.len() >= 24, "grid has {} points", sweep.len());
        let techs: std::collections::HashSet<&str> =
            sweep.points().iter().map(|p| p.tech.label()).collect();
        assert_eq!(techs.len(), 2, "grid must span both technology columns");
        assert!(sweep.points().iter().all(|p| p.par_xfer == Some(10)));
    }

    #[test]
    fn every_builtin_resolves_and_unknown_does_not() {
        for (name, _) in Sweep::BUILTIN {
            let sweep = Sweep::builtin(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(!sweep.is_empty(), "{name} is empty");
            assert_eq!(sweep.name(), name);
        }
        assert!(Sweep::builtin("nope").is_none());
    }

    #[test]
    fn table_builtins_match_the_paper_grids() {
        assert_eq!(Sweep::builtin("table4").unwrap().len(), 24); // 12 rows x 2 codes
        assert_eq!(Sweep::builtin("table5").unwrap().len(), 12);
    }

    #[test]
    fn tech_point_labels_round_trip() {
        for t in TechPoint::ALL {
            assert_eq!(TechPoint::parse(t.label()), Some(t));
        }
        assert_eq!(TechPoint::parse("weird"), None);
    }

    #[test]
    fn design_point_label_mentions_everything() {
        let mut p = DesignPoint::paper_default();
        p.par_xfer = Some(10);
        let label = p.label();
        assert!(label.contains("projected") && label.contains("64b"));
        assert!(label.contains("/x10"));
    }

    /// The sweep-spec parser under test.
    fn parse(spec: &str) -> Result<Sweep, SpecError> {
        Sweep::parse(spec)
    }

    #[test]
    fn issue_headline_spec_parses() {
        let sweep = parse(
            "tech=current,projected code=bacon-shor width=64..=512:*2 cache=0.25,0.5 xfer=5,10",
        )
        .unwrap();
        // 2 techs x 1 code x 4 widths x 2 ratios x 2 budgets.
        assert_eq!(sweep.len(), 2 * 4 * 2 * 2);
        assert!(sweep.points().iter().all(|p| p.par_xfer.is_some()));
    }

    #[test]
    fn grid_spec_string_matches_the_builtin_grid() {
        let expr =
            parse("tech=current,projected code=steane,bacon-shor width=32..=1024:*2 xfer=10")
                .unwrap();
        let builtin = Sweep::builtin("grid").unwrap();
        assert_eq!(expr.points(), builtin.points());
    }

    #[test]
    fn base_xfer_matches_the_axis_spelling_of_the_builtin_grid() {
        // `base.xfer=10` moves the base point; a one-value `xfer=10` axis
        // appends the same field. The grids coincide.
        let via_base =
            parse("base.xfer=10 tech=current,projected code=steane,bacon-shor width=32..=1024:*2")
                .unwrap();
        let builtin = Sweep::builtin("grid").unwrap();
        assert_eq!(via_base.points(), builtin.points());
    }

    #[test]
    fn base_clauses_shift_every_point() {
        let sweep = parse("base.tech=current base.cache=1.5 blocks=4,9").unwrap();
        assert_eq!(sweep.len(), 2);
        for p in sweep.points() {
            assert_eq!(p.tech, TechPoint::Current);
            assert!((p.cache_factor - 1.5).abs() < 1e-12);
        }
        // base.width couples the primary block count, like the axis.
        let sweep = parse("base.width=256 code=steane,bacon-shor").unwrap();
        for p in sweep.points() {
            assert_eq!((p.input_bits, p.blocks), (256, 36));
        }
    }

    #[test]
    fn base_misuse_is_rejected() {
        let err = parse("base.tech=current,projected").unwrap_err();
        assert!(err.message.contains("pins exactly one value"), "{err}");
        let err = parse("base.widht=64").unwrap_err();
        assert!(err.message.contains("did you mean `width`?"), "{err}");
        let err = parse("base.tech=current tech=projected").unwrap_err();
        assert!(err.message.contains("duplicate parameter `tech`"), "{err}");
    }

    #[test]
    fn quick_spec_string_matches_the_builtin_quick() {
        let expr = parse("tech=current,projected code=steane,bacon-shor width=32,64").unwrap();
        let builtin = Sweep::builtin("quick").unwrap();
        assert_eq!(expr.points(), builtin.points());
    }

    #[test]
    fn cache_spec_string_matches_the_builtin_cache() {
        let expr = parse("cache=1,1.5,2 code=steane,bacon-shor width=64,128,256 xfer=10").unwrap();
        let builtin = Sweep::builtin("cache").unwrap();
        assert_eq!(expr.points(), builtin.points());
    }

    #[test]
    fn geometric_and_arithmetic_ranges_expand() {
        let sweep = parse("bits=64..=512:*2").unwrap();
        let bits: Vec<u32> = sweep.points().iter().map(|p| p.input_bits).collect();
        assert_eq!(bits, [64, 128, 256, 512]);
        let sweep = parse("blocks=4..=10:+3").unwrap();
        let blocks: Vec<u32> = sweep.points().iter().map(|p| p.blocks).collect();
        assert_eq!(blocks, [4, 7, 10]);
        let sweep = parse("blocks=4..=6").unwrap();
        assert_eq!(sweep.len(), 3);
    }

    #[test]
    fn clause_order_is_axis_order() {
        let a = parse("code=steane,bacon-shor bits=32,64").unwrap();
        let b = parse("bits=32,64 code=steane,bacon-shor").unwrap();
        assert_eq!(a.len(), b.len());
        assert_ne!(a.points(), b.points(), "order encodes loop nesting");
        assert_eq!(a.points()[1].input_bits, 64, "later clauses vary fastest");
        // Overrides apply in clause order: `width` re-provisions blocks.
        let explicit = parse("width=64 blocks=4,9").unwrap();
        let blocks: Vec<u32> = explicit.points().iter().map(|p| p.blocks).collect();
        assert_eq!(blocks, [4, 9]);
        let provisioned = parse("blocks=4,9 width=64").unwrap();
        assert!(provisioned.points().iter().all(|p| p.blocks == 9));
    }

    #[test]
    fn unknown_key_error_is_spanned_and_suggests() {
        let err = parse("tech=current widht=64").unwrap_err();
        assert_eq!(err.span, (13, 18));
        assert!(err.message.contains("did you mean `width`?"), "{err}");
        let shown = err.to_string();
        assert!(shown.contains("widht=64"));
        assert!(shown.contains("^^^^^"), "caret underline:\n{shown}");
    }

    #[test]
    fn bad_value_errors_point_at_the_value() {
        let err = parse("tech=currant").unwrap_err();
        assert_eq!(err.span, (5, 12));
        assert!(err.message.contains("currant"));
        let err = parse("width=64,,128").unwrap_err();
        assert!(err.message.contains("empty value"));
        let err = parse("cache=-1").unwrap_err();
        assert!(err.message.contains("positive decimal"));
        let err = parse("xfer=0").unwrap_err();
        assert!(err.message.contains("expected an integer in 1..="));
    }

    #[test]
    fn range_misuse_is_rejected() {
        assert!(parse("width=512..=64")
            .unwrap_err()
            .message
            .contains("empty range"));
        assert!(parse("width=64..128")
            .unwrap_err()
            .message
            .contains("inclusive"));
        assert!(parse("width=64..=512:*1")
            .unwrap_err()
            .message
            .contains(">= 2"));
        assert!(parse("width=64..=512:/2")
            .unwrap_err()
            .message
            .contains("bad step"));
    }

    #[test]
    fn duplicate_and_bare_words_are_rejected() {
        let err = parse("tech=current tech=projected").unwrap_err();
        assert!(err.message.contains("duplicate parameter `tech`"));
        let err = parse("gird").unwrap_err();
        assert!(
            err.message
                .contains("did you mean the built-in spec `grid`?"),
            "{err}"
        );
        assert!(parse("   ").unwrap_err().message.contains("empty spec"));
    }

    #[test]
    fn point_explosion_is_capped() {
        let err = parse("bits=1..=200 blocks=1..=200 xfer=1..=10").unwrap_err();
        assert!(err.message.contains("cap is 10000"), "{}", err.message);
    }

    #[test]
    fn point_count_overflow_is_capped_not_wrapped() {
        // Four maxed-out axes — 2^12 adder widths twice, 2^20 counts
        // twice — are 2^64 points: an unchecked usize product would wrap
        // (to 0 on 64-bit) and slip under the cap.
        let err =
            parse("width=1..=4096 bits=1..=4096 blocks=1..=1048576 xfer=1..=1048576").unwrap_err();
        assert!(err.message.contains("cap is 10000"), "{}", err.message);
    }

    #[test]
    fn render_round_trips_every_axis_kind() {
        let sweep = parse(
            "base.xfer=5 tech=current,projected code=bacon-shor width=32..=64:*2 bits=5 \
             blocks=4,9 cache=0.25,1.5",
        )
        .unwrap();
        let rendered = sweep.grids()[0].render();
        assert_eq!(
            rendered,
            "base.xfer=5 tech=current,projected code=bacon-shor width=32,64 bits=5 \
             blocks=4,9 cache=0.25,1.5"
        );
        assert_eq!(parse(&rendered).unwrap().points(), sweep.points());
    }
}

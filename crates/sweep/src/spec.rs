//! Sweep descriptions: value-set grids over the CQLA design space.
//!
//! A [`Sweep`] is a list of [`Grid`]s parsed against the design-space
//! surface (the [`Experiment::specs`] of [`DesignPoint::paper_default`])
//! and the [`DesignPoint`]s they expand to — fully specified
//! architecture evaluations. The paper's own grids (Table 4's
//! size×blocks sweep, Table 5's code×transfer×size cube) and the
//! multi-technology grids beyond them are built-in specs written in that
//! same grammar.

use cqla_core::experiments::{
    parse_bits, parse_code, parse_positive, parse_ratio, parse_tech, primary_blocks, unknown_key,
    Domain, Experiment, ExperimentOutput, Grid, Param, ParamError, TABLE5_PAR_XFER, TABLE5_SIZES,
};
use cqla_core::json::{Json, ToJson};
use cqla_core::{EvalCtx, TABLE4_GRID};
use cqla_ecc::Code;
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
/// parameters are the seven keys of the sweep-spec grammar (see
/// [`crate::parse`]), and a run prices the point with [`PointOutcome`].
/// It is not a registry entry: `cqla sweep` reaches it through
/// [`Sweep`], never by id.
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

/// A named experiment sweep: the grids it was written as and the job
/// list the engine executes.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    name: String,
    grids: Vec<Grid>,
    points: Vec<DesignPoint>,
}

impl Sweep {
    /// Expands `grids`, in order, over the paper-default design point:
    /// each grid point's overrides apply in clause order.
    pub(crate) fn from_grids(name: impl Into<String>, grids: Vec<Grid>) -> Self {
        let points = grids
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
            .collect();
        Self {
            name: name.into(),
            grids,
            points,
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

    /// The design points in execution (submission) order.
    #[must_use]
    pub fn points(&self) -> &[DesignPoint] {
        &self.points
    }

    /// Number of design points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the sweep has no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
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
    /// `key=values` expression (see [`crate::parse`] for the grammar).
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
    /// A spanned [`crate::SpecError`] when the text is neither.
    pub fn parse(spec: &str) -> Result<Self, crate::SpecError> {
        match Self::builtin(spec.trim()) {
            Some(sweep) => Ok(sweep),
            None => crate::parse::parse(spec),
        }
    }

    /// Parses a *batch*: one spec per line (builtin names or
    /// expressions; blank lines and `#` comments skipped), concatenating
    /// every line's grids and points in line order into one sweep named
    /// by the trimmed batch text. A coordinator ships a sweep shard as
    /// one grid expression (a [`Grid::shard`] `spec()`) in this format.
    ///
    /// ```
    /// use cqla_sweep::Sweep;
    ///
    /// let batch = Sweep::parse_batch("code=steane bits=32\ncode=steane bits=64\n").unwrap();
    /// assert_eq!(batch.len(), 2);
    /// assert_eq!(batch.grids().len(), 2);
    /// assert_eq!(batch.points()[1].input_bits, 64);
    /// ```
    ///
    /// # Errors
    ///
    /// A spanned [`crate::SpecError`] from the first offending line, an
    /// empty batch, or a total past [`crate::parse::MAX_POINTS`].
    pub fn parse_batch(input: &str) -> Result<Self, crate::SpecError> {
        let lines: Vec<&str> = input
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        if lines.is_empty() {
            return Err(crate::SpecError::new(
                input,
                (0, input.len()),
                "empty batch; expected one spec per line",
            ));
        }
        let mut grids = Vec::new();
        let mut points = Vec::new();
        for line in &lines {
            let sweep = Self::parse(line)?;
            if points.len() + sweep.len() > crate::parse::MAX_POINTS {
                return Err(crate::SpecError::new(
                    line,
                    (0, line.len()),
                    format!(
                        "batch expands past {} points; the cap is {}",
                        points.len() + sweep.len(),
                        crate::parse::MAX_POINTS
                    ),
                ));
            }
            grids.extend(sweep.grids);
            points.extend(sweep.points);
        }
        Ok(Self {
            name: input.trim().to_owned(),
            grids,
            points,
        })
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
        let specs = DesignPoint::paper_default().specs();
        let grids = exprs
            .iter()
            .map(|expr| Grid::parse("sweep", &specs, expr).expect("built-in specs parse"))
            .collect();
        Some(Self::from_grids(name, grids))
    }
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
    fn parse_batch_concatenates_lines_in_order() {
        let batch =
            Sweep::parse_batch("# shard 3 of 4\nquick\n\ncode=steane bits=32,64\n").unwrap();
        let quick = Sweep::builtin("quick").unwrap();
        assert_eq!(batch.len(), quick.len() + 2);
        assert_eq!(&batch.points()[..quick.len()], quick.points());
        assert_eq!(batch.points()[quick.len()].input_bits, 32);
        // Errors point at the offending line; an empty batch is rejected.
        let err = Sweep::parse_batch("quick\ntech=currant\n").unwrap_err();
        assert!(err.message.contains("unknown technology"), "{err}");
        assert_eq!(batch.grids().len(), quick.grids().len() + 1);
        assert!(Sweep::parse_batch("  \n# only comments\n")
            .unwrap_err()
            .message
            .contains("empty batch"));
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
}

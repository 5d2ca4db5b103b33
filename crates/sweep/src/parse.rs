//! The sweep-spec expression language.
//!
//! A spec is a whitespace-separated list of `key=values` clauses, each
//! contributing one [`Axis`] to a cartesian [`Sweep`] over the paper's
//! default design point:
//!
//! ```text
//! tech=current,projected code=bacon-shor width=64..=512:*2 cache=0.25,0.5 xfer=5,10
//! ```
//!
//! | key      | axis                                   | values |
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
//! `4..=10:+3` counts up (4, 7, 10); a bare `a..=b` steps by one. Clause
//! order is axis order: later clauses vary fastest, exactly like nested
//! `for` loops.
//!
//! A clause `base.<key>=v` moves the *base point* instead of adding an
//! axis: `base.xfer=10 code=steane,bacon-shor width=64..=512:*2` runs the
//! code×width grid with every point on ten transfer channels. This is
//! how table4/table5-style "grid over a shifted base" studies are spelled
//! without a code-defined builtin.
//!
//! Errors are *spanned*: [`SpecError`] carries the byte range of the
//! offending token and renders a caret underline, so a typo in a long
//! spec is pinpointed rather than guessed at.
//!
//! The tokenizer, the value-set parsers, and [`SpecError`] itself live in
//! [`cqla_core::experiments::grid`] — the registry-driven grammar layer
//! that `cqla run <id> key=value-set` grids also parse through. This
//! module is a thin client: it only maps the seven fixed design-space
//! keys onto [`Axis`] values.

use cqla_core::experiments::grid;
use cqla_core::experiments::{primary_blocks, suggest};
use cqla_workloads::MAX_ADDER_BITS;

pub use cqla_core::experiments::grid::{SpecError, MAX_INT, MAX_POINTS};

use crate::spec::{Axis, DesignPoint, Sweep};

/// The spec keys, in documentation order, with the axis each drives.
pub const KEYS: [(&str, &str); 7] = [
    ("tech", "technology preset: current|projected"),
    ("code", "error-correcting code: steane|bacon-shor"),
    (
        "width",
        "adder bits, provisioned with Table 4 primary blocks",
    ),
    ("bits", "adder bits, leaving the block count untouched"),
    ("blocks", "compute blocks"),
    (
        "xfer",
        "parallel memory<->cache transfers (enables the hierarchy)",
    ),
    (
        "cache",
        "cache capacity as a multiple of compute-region qubits",
    ),
];

/// Parses a spec expression into a [`Sweep`] over the paper-default base
/// point. The sweep is named by the (trimmed) spec text itself.
///
/// # Errors
///
/// A [`SpecError`] pointing at the offending token: unknown or duplicate
/// keys (with did-you-mean suggestions), unparseable values, degenerate
/// ranges, multi-value `base.` clauses, or a grid exceeding
/// [`MAX_POINTS`].
pub fn parse(input: &str) -> Result<Sweep, SpecError> {
    let trimmed = input.trim();
    if trimmed.is_empty() {
        return Err(SpecError::new(
            input,
            (0, input.len()),
            "empty spec; expected key=values clauses (e.g. `tech=projected width=64,128`)",
        ));
    }
    let mut base = DesignPoint::paper_default();
    let mut axes: Vec<Axis> = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    for word in grid::words(input) {
        let Some(eq) = word.text.find('=') else {
            let mut message = "expected a `key=values` clause".to_owned();
            let builtins = Sweep::BUILTIN.map(|(name, _)| name);
            if let Some(b) = suggest(word.text, builtins) {
                message = format!("{message} (or did you mean the built-in spec `{b}`?)");
            }
            return Err(SpecError::new(
                input,
                (word.start, word.start + word.text.len()),
                message,
            ));
        };
        let raw_key = &word.text[..eq];
        let key_span = (word.start, word.start + eq);
        let (key, pinned) = match raw_key.strip_prefix("base.") {
            Some(rest) => (rest, true),
            None => (raw_key, false),
        };
        if !KEYS.iter().any(|&(k, _)| k == key) {
            let mut message = format!("unknown axis `{key}`");
            if let Some(s) = suggest(key, KEYS.iter().map(|&(k, _)| k)) {
                message = format!("{message} (did you mean `{s}`?)");
            }
            let valid: Vec<&str> = KEYS.iter().map(|&(k, _)| k).collect();
            message = format!("{message}; valid: {}", valid.join(", "));
            return Err(SpecError::new(input, key_span, message));
        }
        if seen.contains(&key) {
            return Err(SpecError::new(
                input,
                key_span,
                format!("duplicate axis `{key}`"),
            ));
        }
        // `seen` borrows from `input` via `word.text`.
        let key: &str = key;
        seen.push(key);
        let values = &word.text[eq + 1..];
        let values_start = word.start + eq + 1;
        let axis = parse_axis(input, key, values, values_start)?;
        if pinned {
            if axis.len() != 1 {
                return Err(SpecError::new(
                    input,
                    (values_start, values_start + values.len()),
                    format!("base.{key} pins exactly one value, got {}", axis.len()),
                ));
            }
            apply_base(&mut base, &axis);
        } else {
            axes.push(axis);
        }
    }
    // Checked product: four maxed-out range axes multiply to 2^80, which
    // would wrap a plain `product()` back under the cap.
    let points = axes
        .iter()
        .try_fold(1usize, |acc, axis| acc.checked_mul(axis.len()));
    match points {
        Some(points) if points <= MAX_POINTS => {}
        _ => {
            let shown = points.map_or_else(|| format!("over {}", usize::MAX), |p| p.to_string());
            return Err(SpecError::new(
                input,
                (0, input.len()),
                format!("spec expands to {shown} points; the cap is {MAX_POINTS}"),
            ));
        }
    }
    Ok(Sweep::cartesian(trimmed, base, &axes))
}

/// Applies a single-value `base.` clause to the base design point, with
/// the same field semantics as the matching axis (`width` couples the
/// block count, `xfer` enables the hierarchy).
fn apply_base(base: &mut DesignPoint, axis: &Axis) {
    match axis {
        Axis::Tech(v) => base.tech = v[0],
        Axis::Code(v) => base.code = v[0],
        Axis::InputBits(v) => base.input_bits = v[0],
        Axis::InputBitsPrimaryBlocks(v) => {
            base.input_bits = v[0];
            base.blocks = primary_blocks(v[0]);
        }
        Axis::Blocks(v) => base.blocks = v[0],
        Axis::ParXfer(v) => base.par_xfer = Some(v[0]),
        Axis::CacheFactor(v) => base.cache_factor = v[0],
    }
}

fn parse_axis(spec: &str, key: &str, values: &str, values_start: usize) -> Result<Axis, SpecError> {
    match key {
        "tech" => Ok(Axis::Tech(grid::parse_tech_set(
            spec,
            values,
            values_start,
        )?)),
        "code" => Ok(Axis::Code(grid::parse_code_set(
            spec,
            values,
            values_start,
        )?)),
        "cache" => Ok(Axis::CacheFactor(grid::parse_ratio_set(
            spec,
            values,
            values_start,
            "cache ratio",
        )?)),
        _ => {
            // `width` and `bits` size the adder; the rest are counts.
            let max = if matches!(key, "width" | "bits") {
                MAX_ADDER_BITS
            } else {
                MAX_INT
            };
            let v = grid::parse_int_set(spec, values, values_start, max)?;
            Ok(match key {
                "width" => Axis::InputBitsPrimaryBlocks(v),
                "bits" => Axis::InputBits(v),
                "blocks" => Axis::Blocks(v),
                "xfer" => Axis::ParXfer(v),
                _ => unreachable!("key validated against KEYS"),
            })
        }
    }
}

/// Renders one fully specified [`DesignPoint`] as a spec expression that
/// re-parses (over the paper-default base) to exactly that point — the
/// inverse of [`parse`] at the single-point level. This is what lets a
/// sweep shard travel as text: any sweep, including explicit point lists
/// no cartesian expression describes (table4, table5), can be shipped as
/// one single-point expression per line and reassembled losslessly.
///
/// ```
/// use cqla_sweep::parse::{parse, render_point};
/// use cqla_sweep::DesignPoint;
///
/// let point = DesignPoint { par_xfer: Some(10), ..DesignPoint::paper_default() };
/// let spec = render_point(&point);
/// assert!(spec.starts_with("tech=projected code=bacon-shor bits=64 blocks="));
/// assert_eq!(parse(&spec).unwrap().points(), [point]);
/// ```
#[must_use]
pub fn render_point(point: &DesignPoint) -> String {
    let mut clauses = vec![
        format!("tech={}", point.tech.label()),
        format!("code={}", point.code.slug()),
        // `bits` (not `width`) so the explicit `blocks` value is what
        // lands, never a re-derived primary-block count.
        format!("bits={}", point.input_bits),
        format!("blocks={}", point.blocks),
    ];
    if let Some(xfer) = point.par_xfer {
        clauses.push(format!("xfer={xfer}"));
    }
    // f64 Display is shortest-round-trip, so the reparsed ratio is
    // bit-identical to the original.
    clauses.push(format!("cache={}", point.cache_factor));
    clauses.join(" ")
}

/// Renders cartesian axes back into spec-expression text, the inverse of
/// [`parse`] up to range sugar (values render as comma lists).
///
/// ```
/// use cqla_sweep::parse::{parse, render};
/// use cqla_sweep::{Axis, TechPoint};
///
/// let axes = [Axis::Tech(vec![TechPoint::Current]), Axis::Blocks(vec![4, 16])];
/// let spec = render(&axes);
/// assert_eq!(spec, "tech=current blocks=4,16");
/// assert_eq!(parse(&spec).unwrap().len(), 2);
/// ```
#[must_use]
pub fn render(axes: &[Axis]) -> String {
    let clause = |key: &str, values: Vec<String>| format!("{key}={}", values.join(","));
    axes.iter()
        .map(|axis| match axis {
            Axis::Tech(v) => clause("tech", v.iter().map(|t| t.label().to_owned()).collect()),
            Axis::Code(v) => clause("code", v.iter().map(|c| c.slug().to_owned()).collect()),
            Axis::InputBitsPrimaryBlocks(v) => {
                clause("width", v.iter().map(u32::to_string).collect())
            }
            Axis::InputBits(v) => clause("bits", v.iter().map(u32::to_string).collect()),
            Axis::Blocks(v) => clause("blocks", v.iter().map(u32::to_string).collect()),
            Axis::ParXfer(v) => clause("xfer", v.iter().map(u32::to_string).collect()),
            Axis::CacheFactor(v) => clause("cache", v.iter().map(f64::to_string).collect()),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqla_ecc::Code;
    use cqla_iontrap::TechPoint;

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
        assert!(err.message.contains("duplicate axis `tech`"), "{err}");
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
        assert!(err.message.contains("duplicate axis `tech`"));
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
    fn render_point_round_trips_every_builtin_point() {
        // Every point of every builtin — including the explicit
        // non-cartesian table4/table5 lists — survives the text trip.
        for (name, _) in Sweep::BUILTIN {
            for point in Sweep::builtin(name).unwrap().points() {
                let spec = render_point(point);
                let reparsed = parse(&spec)
                    .unwrap_or_else(|e| panic!("{name}: render_point produced `{spec}`: {e}"));
                assert_eq!(reparsed.points(), [*point], "{name}: {spec}");
            }
        }
        // Flat points (no hierarchy) omit the xfer clause.
        let flat = DesignPoint::paper_default();
        assert!(!render_point(&flat).contains("xfer="));
        assert_eq!(parse(&render_point(&flat)).unwrap().points(), [flat]);
    }

    #[test]
    fn render_round_trips_every_axis_kind() {
        let axes = [
            Axis::Tech(vec![TechPoint::Current, TechPoint::Projected]),
            Axis::Code(vec![Code::BaconShor913]),
            Axis::InputBitsPrimaryBlocks(vec![32, 64]),
            Axis::InputBits(vec![5]),
            Axis::Blocks(vec![4, 9]),
            Axis::ParXfer(vec![5, 10]),
            Axis::CacheFactor(vec![0.25, 1.5]),
        ];
        let spec = render(&axes);
        let reparsed = parse(&spec).unwrap();
        let direct = Sweep::cartesian("t", DesignPoint::paper_default(), &axes);
        assert_eq!(reparsed.points(), direct.points(), "spec: {spec}");
    }
}

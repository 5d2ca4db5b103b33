//! The sweep-spec expression language.
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

use cqla_core::experiments::{suggest, Experiment, Grid};

pub use cqla_core::experiments::grid::{SpecError, MAX_POINTS};

use crate::spec::{DesignPoint, Sweep};

/// Parses a spec expression into a one-grid [`Sweep`] over the
/// paper-default design point. The sweep is named by the (trimmed) spec
/// text itself.
///
/// # Errors
///
/// A [`SpecError`] pointing at the offending token: an empty spec,
/// unknown or duplicate keys (with did-you-mean suggestions, including
/// a built-in spec name typed as a bare word), unparseable values,
/// degenerate ranges, multi-value `base.` clauses, or a grid exceeding
/// [`MAX_POINTS`].
pub fn parse(input: &str) -> Result<Sweep, SpecError> {
    if input.trim().is_empty() {
        return Err(SpecError::new(
            input,
            (0, input.len()),
            "empty spec; expected key=values clauses (e.g. `tech=projected width=64,128`)",
        ));
    }
    let specs = DesignPoint::paper_default().specs();
    let grid = Grid::parse("sweep", &specs, input).map_err(|mut e| {
        // A bare word is more likely a mistyped builtin than a clause.
        if e.message.starts_with("expected a `key=values` clause") {
            let word = &input[e.span.0..e.span.1];
            if let Some(b) = suggest(word, Sweep::BUILTIN.map(|(name, _)| name)) {
                e.message = format!(
                    "expected a `key=values` clause (or did you mean the built-in spec `{b}`?)"
                );
            }
        }
        e
    })?;
    Ok(Sweep::from_grids(input.trim(), vec![grid]))
}

#[cfg(test)]
mod tests {
    use super::*;
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

//! The registry contract: every paper artifact is enumerable, runs under
//! paper defaults, renders non-empty text, and serializes to JSON that
//! round-trips through the parser — in one process, without shelling the
//! CLI, so a broken entry fails with its id in the message.

use std::collections::HashSet;

use cqla_repro::core::experiments::{find, registry, Domain, Experiment, Grid, ParamError};
use cqla_repro::core::json;
use cqla_repro::sweep::DesignPoint;

#[test]
fn every_registry_entry_runs_under_paper_defaults() {
    let entries = registry();
    assert!(
        entries.len() >= 13,
        "tables 1-5, figures 2/6a/6b/7/8a/8b, verify, machine"
    );
    let mut seen_ids = HashSet::new();
    for exp in &entries {
        assert!(
            seen_ids.insert(exp.id()),
            "duplicate registry id `{}`",
            exp.id()
        );
        assert!(!exp.title().is_empty(), "{} has no title", exp.id());
        let out = exp.run();
        assert!(out.passed, "{} failed its own checks", exp.id());
        assert!(
            !out.text.trim().is_empty(),
            "{} rendered empty text",
            exp.id()
        );
        // The artifact document parses back and is tagged with the id.
        let doc = out.document(exp.id());
        let parsed = json::parse(&doc.to_pretty())
            .unwrap_or_else(|e| panic!("{} pretty JSON does not parse: {e}", exp.id()));
        assert_eq!(
            parsed.get("artifact").and_then(json::Json::as_str),
            Some(exp.id()),
            "{} artifact tag",
            exp.id()
        );
        // The compact form parses too (the two printers must agree).
        assert_eq!(
            json::parse(&doc.to_compact()).as_ref(),
            Ok(&parsed),
            "{} compact/pretty disagree",
            exp.id()
        );
    }
}

#[test]
fn every_parameter_round_trips_through_set() {
    // Feeding an experiment its own rendered defaults must be a no-op,
    // proving `params()` and `set()` speak the same language. Comparing
    // the re-rendered params (rather than re-running) keeps this cheap:
    // the rendering is a pure function of the typed fields.
    for mut exp in registry() {
        let before: Vec<(String, String)> = exp
            .params()
            .iter()
            .map(|p| (p.key.to_owned(), p.value.clone()))
            .collect();
        for (key, value) in &before {
            exp.set(key, value)
                .unwrap_or_else(|e| panic!("{}: set({key}, {value}): {e}", exp.id()));
        }
        let after: Vec<(String, String)> = exp
            .params()
            .iter()
            .map(|p| (p.key.to_owned(), p.value.clone()))
            .collect();
        assert_eq!(
            before,
            after,
            "{}: re-applying defaults changed the parameters",
            exp.id()
        );
    }
}

/// A value `domain` admits that differs from `default`.
fn other_value(domain: Domain, default: &str) -> &'static str {
    let candidates = match domain {
        Domain::Tech => ["current", "projected"],
        Domain::Code => ["steane", "bacon-shor"],
        Domain::PosInt | Domain::Bits => ["3", "5"],
        Domain::Ratio => ["1.5", "2.5"],
        Domain::Source => ["inline-asm", "random"],
    };
    let value = candidates.into_iter().find(|v| *v != default).unwrap();
    assert!(domain.admits(value), "{value} must be admissible");
    value
}

/// The results-cache key contract: an experiment's resolved `params()`
/// determine its output, so every declared key set to an admissible
/// non-default value must show that value in `params()` — a key whose
/// value did not would let two different runs share a cache entry.
fn assert_params_show_every_key(fresh: &dyn Fn() -> Box<dyn Experiment>) {
    for spec in fresh().specs() {
        let mut exp = fresh();
        let value = other_value(spec.domain, &spec.default);
        exp.set(spec.key, value)
            .unwrap_or_else(|e| panic!("{}: set({}, {value}): {e}", exp.id(), spec.key));
        let shown = exp.params().into_iter().find(|p| p.key == spec.key);
        assert_eq!(
            shown.map(|p| p.value).as_deref(),
            Some(value),
            "{}: `{}={value}` must show up in params()",
            exp.id(),
            spec.key
        );
    }
}

#[test]
fn every_declared_key_shows_up_in_the_resolved_params() {
    for id in registry().iter().map(|exp| exp.id()) {
        assert_params_show_every_key(&|| find(id).unwrap());
    }
    assert_params_show_every_key(&|| Box::new(DesignPoint::paper_default()));
}

#[test]
fn unknown_keys_and_bad_values_are_structured_errors() {
    let mut table4 = find("table4").unwrap();
    match table4.set("widht", "64") {
        Err(ParamError::UnknownKey { key, valid, .. }) => {
            assert_eq!(key, "widht");
            assert_eq!(valid, ["tech"]);
        }
        other => panic!("expected UnknownKey, got {other:?}"),
    }
    match table4.set("tech", "futuristic") {
        Err(ParamError::BadValue { key, value, .. }) => {
            assert_eq!(key, "tech");
            assert_eq!(value, "futuristic");
        }
        other => panic!("expected BadValue, got {other:?}"),
    }
}

#[test]
fn every_declared_spec_parses_its_default_and_rejects_junk() {
    // The grid-grammar completeness contract: for every experiment,
    // every declared `ParamSpec` (1) accepts its own paper default as a
    // grid clause — so `specs()`, the grid grammar, and `set()` speak
    // one language — and (2) rejects a junk value with a *spanned*
    // error whose caret points at the value, not the key.
    for exp in registry() {
        let specs = exp.specs();
        for spec in &specs {
            assert!(
                spec.domain.admits(&spec.default),
                "{}: default `{}` must be in its own domain",
                exp.id(),
                spec.default
            );
            let clause = format!("{}={}", spec.key, spec.default);
            let grid = Grid::parse(exp.id(), &specs, &clause)
                .unwrap_or_else(|e| panic!("{}: `{clause}` must parse: {e}", exp.id()));
            assert_eq!(grid.len(), 1, "{}: `{clause}` is one point", exp.id());
            // And the grid-validated default feeds straight back into
            // `set` (the single value-parsing layer guarantees it).
            let mut fresh = find(exp.id()).unwrap();
            for (key, value) in grid.points().remove(0) {
                fresh
                    .set(&key, &value)
                    .unwrap_or_else(|e| panic!("{}: set({key}, {value}): {e}", exp.id()));
            }
            let junk = format!("{}=@junk@", spec.key);
            let err = Grid::parse(exp.id(), &specs, &junk)
                .expect_err(&format!("{}: `{junk}` must be rejected", exp.id()));
            assert_eq!(
                err.span,
                (spec.key.len() + 1, junk.len()),
                "{}: `{junk}` error must span the value, got {:?} in `{}`",
                exp.id(),
                err.span,
                err.message
            );
            assert!(
                err.to_string().contains('^'),
                "{}: error must render a caret:\n{err}",
                exp.id()
            );
        }
        // Unknown keys are rejected against the declared surface too.
        let err = Grid::parse(exp.id(), &specs, "definitely-not-a-key=1").unwrap_err();
        assert!(
            err.message.contains("unknown parameter"),
            "{}: {err}",
            exp.id()
        );
    }
}

#[test]
fn find_returns_fresh_defaults_each_time() {
    let mut a = find("machine").unwrap();
    a.set("bits", "32").unwrap();
    let b = find("machine").unwrap();
    let bits = b
        .params()
        .into_iter()
        .find(|p| p.key == "bits")
        .unwrap()
        .value;
    assert_eq!(bits, "1024", "find() must not leak mutated state");
}

//! The registry-driven grid grammar: `key=value-set` expressions parsed
//! against an experiment's declared [`ParamSpec`]s.
//!
//! Every [`super::Experiment`] declares typed parameters; this module
//! turns a textual expression like
//!
//! ```text
//! bits=32..=128:*2 cap=15,20 base.tech=current
//! ```
//!
//! into a [`Grid`]: a deterministic, submission-order list of parameter
//! assignments (points) over the experiment's paper-default base point.
//! The grammar — comma lists, inclusive ranges `a..=b[:*k|:+k]`,
//! spanned caret errors with did-you-mean suggestions — accepts exactly
//! the keys the caller declares, each validated through the same typed
//! [`Domain`] that backs [`super::Experiment::set`]. A value that parses
//! here can therefore never be rejected by `set`, and vice versa.
//!
//! A clause `base.<key>=v` pins a single value without contributing an
//! axis: it is applied to every point, which is how "grid over a
//! shifted base" studies are written down without a code-defined
//! builtin.
//!
//! A parsed [`Grid`] round-trips: [`Grid::render`] prints it back as
//! expression text (range sugar expanded to comma lists) that
//! [`Grid::parse`] accepts and expands to the same points — the
//! property that lets sweep documents, HTTP job records, and CLI
//! transcripts all carry a grid as its `spec` string and reconstruct
//! it losslessly.
//!
//! Registry experiments parse against their [`super::Experiment::specs`];
//! `cqla-sweep` parses its design-space sweep specs against its own
//! seven-key surface through the same [`Grid::parse`], so there is one
//! implementation of the grammar.

use cqla_ecc::Code;
use cqla_iontrap::TechPoint;
use cqla_workloads::MAX_ADDER_BITS;

use super::api::{suggest, Domain, ParamError, ParamSpec};

/// Hard cap on the points one expression may expand to.
pub const MAX_POINTS: usize = 10_000;

/// Hard cap on any integer value (adders beyond this would not fit in
/// memory anyway). Shared by the grid grammar and
/// [`super::parse_positive`], so both layers accept exactly the same
/// integers.
pub const MAX_INT: u32 = 1 << 20;

/// A parse error with the byte span of the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The full expression text, kept for caret rendering.
    pub spec: String,
    /// Byte range `[start, end)` the error points at.
    pub span: (usize, usize),
    /// What went wrong.
    pub message: String,
}

impl SpecError {
    /// Builds an error pointing at `span` within `spec`.
    #[must_use]
    pub fn new(spec: &str, span: (usize, usize), message: impl Into<String>) -> Self {
        Self {
            spec: spec.to_owned(),
            span,
            message: message.into(),
        }
    }
}

impl core::fmt::Display for SpecError {
    /// The header, then the spec line that holds the span's start with a
    /// caret line under the span: padded by that line's characters before
    /// the span (tabs stay tabs) and clipped to the line.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let (start, end) = self.span;
        writeln!(f, "spec error at {start}..{end}: {}", self.message)?;
        let start = start.min(self.spec.len());
        let line_start = self.spec[..start].rfind('\n').map_or(0, |i| i + 1);
        let line = self.spec[line_start..].lines().next().unwrap_or("");
        writeln!(f, "  {line}")?;
        let pad = &self.spec[line_start..start];
        let pad: String = pad
            .chars()
            .map(|c| if c == '\t' { c } else { ' ' })
            .collect();
        let end = end.min(line_start + line.len()).max(start);
        let width = self.spec[start..end].chars().count().max(1);
        write!(f, "  {pad}{}", "^".repeat(width))
    }
}

impl std::error::Error for SpecError {}

/// One whitespace-delimited token with its byte span.
struct Word<'a> {
    /// The token text.
    text: &'a str,
    /// Byte offset of the token within the expression.
    start: usize,
}

/// Splits an expression into whitespace-delimited tokens with spans.
#[must_use]
fn words(input: &str) -> Vec<Word<'_>> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, c) in input.char_indices() {
        if c.is_whitespace() {
            if let Some(s) = start.take() {
                out.push(Word {
                    text: &input[s..i],
                    start: s,
                });
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        out.push(Word {
            text: &input[s..],
            start: s,
        });
    }
    out
}

/// Splits `values` on commas (tracking spans) and parses each item with
/// `item`.
///
/// # Errors
///
/// A [`SpecError`] for an empty list or empty item, or whatever `item`
/// rejects.
fn parse_items<T>(
    spec: &str,
    values: &str,
    values_start: usize,
    mut item: impl FnMut(&str, (usize, usize)) -> Result<T, SpecError>,
) -> Result<Vec<T>, SpecError> {
    if values.is_empty() {
        return Err(SpecError::new(
            spec,
            (values_start.saturating_sub(1), values_start),
            "expected at least one value after `=`",
        ));
    }
    let mut out = Vec::new();
    let mut offset = 0;
    for piece in values.split(',') {
        let span = (values_start + offset, values_start + offset + piece.len());
        if piece.is_empty() {
            return Err(SpecError::new(spec, span, "empty value in comma list"));
        }
        out.push(item(piece, span)?);
        offset += piece.len() + 1;
    }
    Ok(out)
}

/// The step of an integer range.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Geometric: multiply by `k`.
    Mul(u32),
    /// Arithmetic: add `k`.
    Add(u32),
}

/// One integer item, unexpanded: `start`, then each step while the value
/// stays within `end`. A plain value is the one-value run `v..=v`.
#[derive(Debug, Clone, Copy)]
struct IntRun {
    start: u32,
    end: u32,
    step: Step,
}

impl IntRun {
    /// Number of values, counted without expanding them (a geometric
    /// run over `u32` has at most 32).
    fn len(self) -> usize {
        match self.step {
            Step::Add(k) => ((self.end - self.start) / k) as usize + 1,
            Step::Mul(_) => self.values().count(),
        }
    }

    /// The values, in increasing order.
    fn values(self) -> impl Iterator<Item = u32> {
        std::iter::successors(Some(self.start), move |&v| {
            match self.step {
                Step::Mul(k) => v.checked_mul(k),
                Step::Add(k) => v.checked_add(k),
            }
            .filter(|&n| n <= self.end)
        })
    }
}

/// Parses one integer item: a plain value or an inclusive range
/// `a..=b[:*k|:+k]` (`*k` geometric, `+k` arithmetic, bare steps by one)
/// whose values lie in `1..=max`.
///
/// # Errors
///
/// A [`SpecError`] for out-of-range integers, exclusive-range syntax,
/// empty ranges, or bad steps.
fn parse_int_item(
    spec: &str,
    piece: &str,
    span: (usize, usize),
    max: u32,
) -> Result<IntRun, SpecError> {
    let int = |text: &str| -> Result<u32, SpecError> {
        text.parse::<u32>()
            .ok()
            .filter(|&n| (1..=max).contains(&n))
            .ok_or_else(|| {
                SpecError::new(
                    spec,
                    span,
                    format!("bad value `{text}`; expected an integer in 1..={max}"),
                )
            })
    };
    let Some(dots) = piece.find("..=") else {
        if piece.contains("..") {
            return Err(SpecError::new(
                spec,
                span,
                format!("bad range `{piece}`; ranges are inclusive: `a..=b[:*k|:+k]`"),
            ));
        }
        let v = int(piece)?;
        return Ok(IntRun {
            start: v,
            end: v,
            step: Step::Add(1),
        });
    };
    let start = int(&piece[..dots])?;
    let rest = &piece[dots + 3..];
    let (end_text, step_text) = match rest.find(':') {
        Some(colon) => (&rest[..colon], Some(&rest[colon + 1..])),
        None => (rest, None),
    };
    let end = int(end_text)?;
    if start > end {
        return Err(SpecError::new(
            spec,
            span,
            format!("empty range `{piece}`; start {start} exceeds end {end}"),
        ));
    }
    let step = match step_text {
        None => Step::Add(1),
        Some(s) if s.starts_with('*') => {
            let k = int(&s[1..])?;
            if k < 2 {
                return Err(SpecError::new(
                    spec,
                    span,
                    "geometric step must be >= 2 (e.g. `64..=512:*2`)",
                ));
            }
            Step::Mul(k)
        }
        Some(s) if s.starts_with('+') => Step::Add(int(&s[1..])?),
        Some(s) => {
            return Err(SpecError::new(
                spec,
                span,
                format!("bad step `{s}`; expected `*k` (geometric) or `+k` (arithmetic)"),
            ));
        }
    };
    Ok(IntRun { start, end, step })
}

/// Parses a technology value set (comma list of preset labels).
///
/// # Errors
///
/// A [`SpecError`] naming the unknown preset.
fn parse_tech_set(
    spec: &str,
    values: &str,
    values_start: usize,
) -> Result<Vec<TechPoint>, SpecError> {
    parse_items(spec, values, values_start, |piece, span| {
        TechPoint::parse(piece).ok_or_else(|| {
            SpecError::new(
                spec,
                span,
                format!("unknown technology `{piece}`; expected current|projected"),
            )
        })
    })
}

/// Parses a code value set (comma list of code slugs).
///
/// # Errors
///
/// A [`SpecError`] naming the unknown code.
fn parse_code_set(spec: &str, values: &str, values_start: usize) -> Result<Vec<Code>, SpecError> {
    parse_items(spec, values, values_start, |piece, span| {
        Code::parse(piece).ok_or_else(|| {
            SpecError::new(
                spec,
                span,
                format!("unknown code `{piece}`; expected steane|bacon-shor"),
            )
        })
    })
}

/// A parsed value set. Integer ranges stay unexpanded runs until
/// [`Grid::parse`] has checked the grid's point count against
/// [`MAX_POINTS`], so no spec makes the parser build more values than
/// the cap allows.
enum ValueSet {
    /// Integer items, in submission order.
    Ints(Vec<IntRun>),
    /// Labels and decimals, validated, in the user's spelling.
    Labels(Vec<String>),
}

impl ValueSet {
    /// Number of values, counted without expanding a range.
    fn len(&self) -> usize {
        match self {
            Self::Ints(runs) => runs.iter().map(|r| r.len()).sum(),
            Self::Labels(labels) => labels.len(),
        }
    }

    /// The values as strings ready to feed [`super::Experiment::set`].
    fn into_strings(self) -> Vec<String> {
        match self {
            Self::Ints(runs) => runs
                .into_iter()
                .flat_map(IntRun::values)
                .map(|v| v.to_string())
                .collect(),
            Self::Labels(labels) => labels,
        }
    }
}

/// Parses one value set in `domain`. Labels and decimals keep the
/// user's spelling (which `set` accepts by construction — both layers
/// validate through [`Domain`]).
///
/// # Errors
///
/// A [`SpecError`] pointing at the rejected item.
fn parse_value_set(
    spec: &str,
    domain: Domain,
    values: &str,
    values_start: usize,
) -> Result<ValueSet, SpecError> {
    let ints = |max| {
        parse_items(spec, values, values_start, |piece, span| {
            parse_int_item(spec, piece, span, max)
        })
        .map(ValueSet::Ints)
    };
    match domain {
        Domain::PosInt => ints(MAX_INT),
        Domain::Bits => ints(MAX_ADDER_BITS),
        Domain::Tech => parse_tech_set(spec, values, values_start)
            .map(|v| ValueSet::Labels(v.iter().map(|t| t.label().to_owned()).collect())),
        Domain::Code => parse_code_set(spec, values, values_start)
            .map(|v| ValueSet::Labels(v.iter().map(|c| c.slug().to_owned()).collect())),
        Domain::Ratio => parse_items(spec, values, values_start, |piece, span| {
            // Validate as a decimal but keep the user's spelling:
            // `1.50` and `1.5` are the same value and both parse in
            // `set` (the same `admits` predicate backs it).
            if Domain::Ratio.admits(piece) {
                Ok(piece.to_owned())
            } else {
                Err(SpecError::new(
                    spec,
                    span,
                    format!("bad ratio `{piece}`; expected a positive decimal"),
                ))
            }
        })
        .map(ValueSet::Labels),
        Domain::Source => parse_items(spec, values, values_start, |piece, span| {
            if Domain::Source.admits(piece) {
                Ok(piece.to_owned())
            } else {
                Err(SpecError::new(
                    spec,
                    span,
                    format!("unknown source `{piece}`; expected inline-asm|random"),
                ))
            }
        })
        .map(ValueSet::Labels),
    }
}

/// Whether one `key=value` override uses value-*set* syntax — a comma
/// list, a range, or a `base.` pin — and therefore selects a grid run
/// rather than a single-value run. The one predicate every front end
/// (CLI `run`, HTTP `/v1/run/{id}`) consults, so they can never drift
/// on which requests grid out: plain `key=value` overrides stay on the
/// byte-identical single-run path. Matches bare `..` (not just `..=`)
/// so the exclusive-range typo `32..128` reaches the grammar's
/// "ranges are inclusive" diagnostic; no valid single value in any
/// domain contains `..`.
#[must_use]
pub fn is_set_clause(key: &str, value: &str) -> bool {
    key.starts_with("base.") || value.contains(',') || value.contains("..")
}

/// A parsed grid over one experiment: pinned `base.` overrides plus the
/// value-set axes, in clause order.
///
/// # Examples
///
/// ```
/// use cqla_core::experiments::{find, grid::Grid};
///
/// let exp = find("fig2").unwrap();
/// let grid = Grid::parse("fig2", &exp.specs(), "bits=32..=128:*2").unwrap();
/// assert_eq!(grid.len(), 3);
/// assert_eq!(grid.points()[1], [("bits".to_owned(), "64".to_owned())]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    id: String,
    spec: String,
    base: Vec<(String, String)>,
    axes: Vec<(String, Vec<String>)>,
}

impl Grid {
    /// Parses a `key=value-set` expression against the declared
    /// parameter surface of experiment `id`. An empty expression is the
    /// single paper-default point.
    ///
    /// # Errors
    ///
    /// A spanned [`SpecError`]: unknown or duplicate keys (with
    /// did-you-mean suggestions), values outside the key's domain,
    /// multi-value `base.` clauses, or a grid past [`MAX_POINTS`].
    pub fn parse(id: &str, specs: &[ParamSpec], input: &str) -> Result<Self, SpecError> {
        let mut base: Vec<(String, String)> = Vec::new();
        let mut axes: Vec<(String, ValueSet)> = Vec::new();
        let mut seen: Vec<&str> = Vec::new();
        for word in words(input) {
            let Some(eq) = word.text.find('=') else {
                return Err(SpecError::new(
                    input,
                    (word.start, word.start + word.text.len()),
                    "expected a `key=values` clause (e.g. `bits=32..=128:*2`)",
                ));
            };
            let raw_key = &word.text[..eq];
            let key_span = (word.start, word.start + eq);
            let (key, pinned) = match raw_key.strip_prefix("base.") {
                Some(rest) => (rest, true),
                None => (raw_key, false),
            };
            let Some(spec) = specs.iter().find(|s| s.key == key) else {
                return Err(SpecError::new(
                    input,
                    key_span,
                    unknown_parameter(key, specs),
                ));
            };
            if seen.contains(&spec.key) {
                return Err(SpecError::new(
                    input,
                    key_span,
                    ParamError::DuplicateKey {
                        key: key.to_owned(),
                    }
                    .to_string(),
                ));
            }
            seen.push(spec.key);
            let values = &word.text[eq + 1..];
            let values_start = word.start + eq + 1;
            let parsed = parse_value_set(input, spec.domain, values, values_start)?;
            if pinned {
                if parsed.len() != 1 {
                    return Err(SpecError::new(
                        input,
                        (values_start, values_start + values.len()),
                        format!("base.{key} pins exactly one value, got {}", parsed.len()),
                    ));
                }
                let value = parsed
                    .into_strings()
                    .pop()
                    .expect("one value, checked above");
                base.push((spec.key.to_owned(), value));
            } else {
                axes.push((spec.key.to_owned(), parsed));
            }
        }
        let points = axes
            .iter()
            .try_fold(1usize, |acc, (_, values)| acc.checked_mul(values.len()));
        match points {
            Some(points) if points <= MAX_POINTS => {}
            _ => {
                let shown =
                    points.map_or_else(|| format!("over {}", usize::MAX), |p| p.to_string());
                return Err(SpecError::new(
                    input,
                    (0, input.len()),
                    format!("grid expands to {shown} points; the cap is {MAX_POINTS}"),
                ));
            }
        }
        Ok(Self {
            id: id.to_owned(),
            spec: input.trim().to_owned(),
            base,
            axes: axes
                .into_iter()
                .map(|(key, values)| (key, values.into_strings()))
                .collect(),
        })
    }

    /// The experiment id the grid runs.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The (trimmed) expression text the grid was parsed from.
    #[must_use]
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// Number of points the grid expands to (1 for the empty expression).
    #[must_use]
    pub fn len(&self) -> usize {
        self.axes.iter().map(|(_, v)| v.len()).product()
    }

    /// Whether the grid has no points. Never true for a parsed grid —
    /// the grammar rejects empty value sets.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The parameter assignments, in deterministic submission order:
    /// `base.` overrides first (clause order), then one `key=value` pair
    /// per axis, later clauses varying fastest — exactly like nested
    /// `for` loops, and exactly like the sweep engine orders its points.
    #[must_use]
    pub fn points(&self) -> Vec<Vec<(String, String)>> {
        let mut points = vec![self.base.clone()];
        for (key, values) in &self.axes {
            points = points
                .into_iter()
                .flat_map(|p| {
                    values.iter().map(move |v| {
                        let mut q = p.clone();
                        q.push((key.clone(), v.clone()));
                        q
                    })
                })
                .collect();
        }
        points
    }

    /// Renders the grid back into expression text: the inverse of
    /// [`Grid::parse`] up to range sugar (expanded values render as
    /// comma lists).
    ///
    /// ```
    /// use cqla_core::experiments::{find, grid::Grid};
    ///
    /// let exp = find("fig2").unwrap();
    /// let grid = Grid::parse("fig2", &exp.specs(), "cap=15 bits=32..=128:*2").unwrap();
    /// assert_eq!(grid.render(), "cap=15 bits=32,64,128");
    /// let again = Grid::parse("fig2", &exp.specs(), &grid.render()).unwrap();
    /// assert_eq!(grid.points(), again.points());
    /// ```
    #[must_use]
    pub fn render(&self) -> String {
        let base = self.base.iter().map(|(k, v)| format!("base.{k}={v}"));
        let axes = self
            .axes
            .iter()
            .map(|(k, values)| format!("{k}={}", values.join(",")));
        base.chain(axes).collect::<Vec<_>>().join(" ")
    }

    /// Splits the grid into at most `n` sub-grids of **contiguous
    /// submission-order points**: concatenating the shards'
    /// [`Grid::points`] in order reproduces this grid's [`Grid::points`]
    /// exactly, with no point duplicated or dropped. Each shard is a
    /// complete grid in its own right — its `spec` is its own
    /// [`Grid::render`] output, so a shard can travel as expression text
    /// (to a `cqla serve` worker, say) and re-parse to the same points.
    ///
    /// Splitting is near-even: shard sizes differ by at most a factor
    /// bounded by the axis structure (a contiguous *box* of the
    /// cartesian product cannot always be cut into equal volumes), and
    /// exactly `min(n, len)` shards are returned — every shard is
    /// non-empty.
    ///
    /// ```
    /// use cqla_core::experiments::{find, grid::Grid};
    ///
    /// let exp = find("fig2").unwrap();
    /// let grid = Grid::parse("fig2", &exp.specs(), "bits=8,16,24 cap=4,8").unwrap();
    /// let shards = grid.shard(3);
    /// assert_eq!(shards.len(), 3);
    /// let merged: Vec<_> = shards.iter().flat_map(|s| s.points()).collect();
    /// assert_eq!(merged, grid.points());
    /// assert_eq!(shards[0].spec(), "bits=8 cap=4,8");
    /// ```
    #[must_use]
    pub fn shard(&self, n: usize) -> Vec<Self> {
        let n = n.clamp(1, self.len().max(1));
        split_axes(&self.axes, n)
            .into_iter()
            .map(|axes| {
                let mut shard = Self {
                    id: self.id.clone(),
                    spec: String::new(),
                    base: self.base.clone(),
                    axes,
                };
                shard.spec = shard.render();
                shard
            })
            .collect()
    }
}

/// Splits cartesian axes into at most `n` contiguous boxes whose point
/// lists concatenate to the parent's, in order. If the first axis has at
/// least `n` values, its values split into `n` contiguous near-equal
/// groups (later axes untouched — later clauses vary fastest, so a
/// contiguous value group is a contiguous point range). Otherwise every
/// value gets its own box and the budget recurses into the remaining
/// axes, distributed near-evenly.
fn split_axes(axes: &[(String, Vec<String>)], n: usize) -> Vec<Vec<(String, Vec<String>)>> {
    if n <= 1 || axes.is_empty() {
        return vec![axes.to_vec()];
    }
    let (key, values) = &axes[0];
    let rest = &axes[1..];
    if values.len() >= n {
        let mut out = Vec::with_capacity(n);
        let mut taken = 0;
        for i in 0..n {
            let size = values.len() / n + usize::from(i < values.len() % n);
            let group = values[taken..taken + size].to_vec();
            taken += size;
            let mut shard = vec![(key.clone(), group)];
            shard.extend(rest.iter().cloned());
            out.push(shard);
        }
        out
    } else {
        let k = values.len();
        let mut out = Vec::new();
        for (i, value) in values.iter().enumerate() {
            let budget = n / k + usize::from(i < n % k);
            for sub in split_axes(rest, budget.max(1)) {
                let mut shard = vec![(key.clone(), vec![value.clone()])];
                shard.extend(sub);
                out.push(shard);
            }
        }
        out
    }
}

/// The unknown-parameter message, word for word the one
/// [`super::ParamError::UnknownKey`] displays, so grid and single-value
/// diagnostics read the same.
fn unknown_parameter(key: &str, specs: &[ParamSpec]) -> String {
    let mut message = format!("unknown parameter `{key}`");
    if let Some(s) = suggest(key, specs.iter().map(|s| s.key)) {
        message = format!("{message} (did you mean `{s}`?)");
    }
    if specs.is_empty() {
        format!("{message}; this experiment takes no parameters")
    } else {
        let valid: Vec<&str> = specs.iter().map(|s| s.key).collect();
        format!("{message}; valid: {}", valid.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::find;

    fn specs(id: &str) -> Vec<ParamSpec> {
        find(id).unwrap().specs()
    }

    #[test]
    fn carets_sit_under_the_span_on_its_own_line() {
        let shown = |spec: &str, span| SpecError::new(spec, span, "bad").to_string();
        // The second line alone is shown, the caret under `widht`.
        assert_eq!(
            shown("code=steane bits=32\nwidht=64", (20, 25)),
            "spec error at 20..25: bad\n  widht=64\n  ^^^^^"
        );
        // Tabs stay tabs, so the caret lines up under the token.
        assert_eq!(
            shown("a=1\n\tb=2  c=x", (12, 13)),
            "spec error at 12..13: bad\n  \tb=2  c=x\n  \t       ^"
        );
        // A span running past its line is clipped to it.
        assert_eq!(
            shown("a=1 b=\nc=3", (4, 10)),
            "spec error at 4..10: bad\n  a=1 b=\n      ^^"
        );
        // One-line specs render as before.
        assert_eq!(
            shown("tech=current widht=64", (13, 18)),
            "spec error at 13..18: bad\n  tech=current widht=64\n               ^^^^^"
        );
    }

    #[test]
    fn issue_headline_grid_parses() {
        let grid = Grid::parse("fig2", &specs("fig2"), "bits=32..=128:*2").unwrap();
        assert_eq!(grid.len(), 3);
        let points = grid.points();
        assert_eq!(points[0], [("bits".to_owned(), "32".to_owned())]);
        assert_eq!(points[2], [("bits".to_owned(), "128".to_owned())]);
    }

    #[test]
    fn later_clauses_vary_fastest() {
        let grid = Grid::parse("fig2", &specs("fig2"), "bits=32,64 cap=15,20").unwrap();
        let points = grid.points();
        assert_eq!(points.len(), 4);
        assert_eq!(
            points[1],
            [
                ("bits".to_owned(), "32".to_owned()),
                ("cap".to_owned(), "20".to_owned())
            ]
        );
        assert_eq!(points[2][0].1, "64");
    }

    #[test]
    fn base_overrides_pin_a_single_value_on_every_point() {
        let grid = Grid::parse(
            "machine",
            &specs("machine"),
            "base.tech=current bits=64,128",
        )
        .unwrap();
        assert_eq!(grid.len(), 2);
        for point in grid.points() {
            assert_eq!(point[0], ("tech".to_owned(), "current".to_owned()));
        }
        let err =
            Grid::parse("machine", &specs("machine"), "base.tech=current,projected").unwrap_err();
        assert!(err.message.contains("pins exactly one value"), "{err}");
    }

    #[test]
    fn empty_expression_is_the_single_default_point() {
        let grid = Grid::parse("fig2", &specs("fig2"), "").unwrap();
        assert_eq!(grid.len(), 1);
        assert_eq!(grid.points(), [Vec::new()]);
    }

    #[test]
    fn unknown_and_duplicate_keys_are_spanned() {
        let err = Grid::parse("fig2", &specs("fig2"), "bits=64 bist=32").unwrap_err();
        assert_eq!(err.span, (8, 12));
        assert!(err.message.contains("did you mean `bits`?"), "{err}");
        assert!(err.message.contains("valid: bits, cap"), "{err}");
        let err = Grid::parse("fig2", &specs("fig2"), "bits=64 base.bits=32").unwrap_err();
        assert!(err.message.contains("duplicate parameter `bits`"), "{err}");
        let err = Grid::parse("verify", &[], "bits=64").unwrap_err();
        assert!(err.message.contains("takes no parameters"), "{err}");
    }

    #[test]
    fn values_validate_through_the_declared_domain() {
        let err = Grid::parse("table4", &specs("table4"), "tech=currant").unwrap_err();
        assert!(err.message.contains("unknown technology"), "{err}");
        let err = Grid::parse("machine", &specs("machine"), "code=surface").unwrap_err();
        assert!(err.message.contains("unknown code"), "{err}");
        let err = Grid::parse("machine", &specs("machine"), "cache=-1").unwrap_err();
        assert!(err.message.contains("positive decimal"), "{err}");
        let err = Grid::parse("fig2", &specs("fig2"), "bits=0").unwrap_err();
        assert!(err.message.contains("expected an integer in 1..="), "{err}");
        let err = Grid::parse("fig2", &specs("fig2"), "notakeyvalue").unwrap_err();
        assert!(err.message.contains("key=values"), "{err}");
    }

    #[test]
    fn adder_widths_stop_at_the_draper_ceiling() {
        let ceiling = MAX_ADDER_BITS.to_string();
        assert!(super::super::BITS_ACCEPTS.ends_with(&ceiling));
        assert!(super::super::INT_ACCEPTS.ends_with(&format!("1..={MAX_INT}")));
        for (id, expr) in [("fig2", "bits=4097"), ("machine", "bits=32,100000")] {
            let err = Grid::parse(id, &specs(id), expr).unwrap_err();
            assert!(err.message.contains(&format!("1..={ceiling}")), "{err}");
        }
        let ok = Grid::parse("fig2", &specs("fig2"), &format!("bits={ceiling}"));
        assert!(ok.is_ok());
        // Counts that are not adder widths keep the general cap.
        assert!(Grid::parse("fig2", &specs("fig2"), "cap=5000").is_ok());
    }

    #[test]
    fn point_explosion_is_capped() {
        let err = Grid::parse(
            "machine",
            &specs("machine"),
            "bits=1..=200 blocks=1..=200 xfer=1..=10",
        )
        .unwrap_err();
        assert!(err.message.contains("cap is 10000"), "{err}");
        // Maxed-out ranges go through the checked product, not a wrap
        // (`bits` tops out at the adder ceiling, the counts at MAX_INT).
        let err = Grid::parse(
            "machine",
            &specs("machine"),
            "bits=1..=4096 blocks=1..=1048576 xfer=1..=1048576",
        )
        .unwrap_err();
        assert!(err.message.contains("cap is 10000"), "{err}");
    }

    #[test]
    fn range_lengths_count_the_values_they_expand_to() {
        for (start, end) in [(1, 1), (1, 2), (3, 17), (5, 4096), (1, MAX_INT)] {
            for k in [1, 2, 3, 7, 1000] {
                for step in [Step::Add(k), Step::Mul(k + 1)] {
                    let run = IntRun { start, end, step };
                    assert_eq!(run.len(), run.values().count(), "{run:?}");
                }
            }
        }
    }

    #[test]
    fn render_round_trips() {
        let grid = Grid::parse(
            "machine",
            &specs("machine"),
            "base.code=steane tech=current,projected bits=64..=256:*2 cache=0.5,1.25",
        )
        .unwrap();
        let rendered = grid.render();
        assert_eq!(
            rendered,
            "base.code=steane tech=current,projected bits=64,128,256 cache=0.5,1.25"
        );
        let again = Grid::parse("machine", &specs("machine"), &rendered).unwrap();
        assert_eq!(grid.points(), again.points());
    }

    #[test]
    fn shards_concatenate_to_the_parent_points_in_order() {
        let grid = Grid::parse(
            "machine",
            &specs("machine"),
            "base.code=steane tech=current,projected bits=32,64,128 cache=0.5,1.0,1.5",
        )
        .unwrap();
        for n in 1..=grid.len() + 3 {
            let shards = grid.shard(n);
            assert_eq!(shards.len(), n.min(grid.len()), "n={n}");
            let merged: Vec<_> = shards.iter().flat_map(Grid::points).collect();
            assert_eq!(merged, grid.points(), "n={n}");
            for shard in &shards {
                assert!(!shard.is_empty(), "n={n}");
                assert_eq!(shard.id(), grid.id(), "n={n}");
                // A shard's spec is its own render, and re-parses to the
                // same points — the property that lets it travel as text.
                assert_eq!(shard.spec(), shard.render(), "n={n}");
                let again = Grid::parse("machine", &specs("machine"), shard.spec()).unwrap();
                assert_eq!(again.points(), shard.points(), "n={n}");
            }
        }
    }

    #[test]
    fn sharding_degenerate_grids_is_safe() {
        // A single-point grid yields one shard no matter the request.
        let single = Grid::parse("fig2", &specs("fig2"), "bits=64").unwrap();
        assert_eq!(single.shard(5).len(), 1);
        assert_eq!(single.shard(0).len(), 1);
        assert_eq!(single.shard(5)[0].points(), single.points());
        // The empty expression (one default point) likewise.
        let empty = Grid::parse("fig2", &specs("fig2"), "").unwrap();
        let shards = empty.shard(3);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].points(), empty.points());
        // base-only grids keep their pins on every shard.
        let pinned =
            Grid::parse("machine", &specs("machine"), "base.tech=current bits=32,64").unwrap();
        for shard in pinned.shard(2) {
            assert!(
                shard.spec().starts_with("base.tech=current"),
                "{}",
                shard.spec()
            );
        }
    }

    #[test]
    fn shard_splits_are_near_even_on_the_first_axis() {
        let grid = Grid::parse("fig2", &specs("fig2"), "bits=1..=10").unwrap();
        let sizes: Vec<usize> = grid.shard(3).iter().map(Grid::len).collect();
        assert_eq!(sizes, [4, 3, 3]);
    }

    #[test]
    fn every_grid_value_is_accepted_by_set() {
        // The dedupe contract: anything the grid grammar admits, the
        // experiment's own `set` admits too.
        let grid = Grid::parse(
            "machine",
            &specs("machine"),
            "tech=current code=bacon-shor bits=32..=64:+16 cache=1.5 base.xfer=5",
        )
        .unwrap();
        for point in grid.points() {
            let mut exp = find("machine").unwrap();
            for (key, value) in &point {
                exp.set(key, value)
                    .unwrap_or_else(|e| panic!("set({key}, {value}): {e}"));
            }
        }
    }
}

//! Assembly-style text format for instruction streams.
//!
//! The paper's cache simulator consumes "a sequence of instructions; each
//! instruction is similar to assembly language and describes a logical gate
//! between qubits" (§5.2). This module round-trips circuits through that
//! format:
//!
//! ```text
//! # circuit: 4 qubits, 2 gates
//! toffoli q0, q1, q2
//! cphase[3] q2, q3
//! ```
//!
//! Parse failures carry the offending line, a byte span within it, and an
//! optional did-you-mean hint, rendered in the same caret style as the
//! sweep-spec grammar's `SpecError`:
//!
//! ```text
//! parse error at line 2, columns 0..10: unknown mnemonic "frobnicate"
//!   frobnicate q1
//!   ^^^^^^^^^^
//!   hint: did you mean `toffoli`?
//! ```
//!
//! # Two lexers, one grammar
//!
//! [`parse`] walks the text with one byte cursor. A line in the exact
//! shape [`emit`] writes (`mnemonic[k]? qA(, qB(, qC)?)?`, single spaces,
//! `\n` or `\r\n`) is decoded in place: one byte `match` on the mnemonic
//! gives the variant and arity, and the indices accumulate with an
//! overflow check. Every other line (comments and the header, blank
//! lines, other whitespace, signs, out-of-range or repeated operands,
//! wrong arities, anything malformed) goes to the line parser, which
//! trims it and splits it on spaces and commas. That parser is the only
//! place that builds a diagnostic, and the canonical lexer accepts only
//! lines it would accept, as the same gate, so both lexers give one
//! grammar; `asm::tests` checks them against each other.

use crate::circuit::Circuit;
use crate::gate::{Gate, QubitId};

/// The largest register a program may use, 2^20 qubits: a
/// `# circuit: N qubits` header with `N` past it, or an operand index of
/// `MAX_QUBITS` or more, is a parse error. Compilation allocates per
/// qubit, so the bound caps what a short program can ask for. It equals
/// the `compile` experiment's `qubits` domain.
pub const MAX_QUBITS: u32 = 1 << 20;

/// Every mnemonic the grammar accepts, for did-you-mean suggestions.
const MNEMONICS: [&str; 11] = [
    "x", "y", "z", "s", "t", "h", "cnot", "cz", "cphase", "toffoli", "measure",
];

/// Error produced while parsing circuit assembly.
///
/// Carries the 1-based line number, the byte span of the offending token
/// within that line, the line's text, and an optional hint. `Display`
/// renders a spanned caret diagnostic; front ends surface it verbatim
/// (exit 2 on the CLI, `{error, hint}` JSON over HTTP).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAsmError {
    line: usize,
    span: (usize, usize),
    source: String,
    message: String,
    hint: Option<String>,
}

impl ParseAsmError {
    fn new(line: usize, source: &str, token: &str, message: impl Into<String>) -> Self {
        Self {
            line,
            span: byte_span(source, token),
            source: source.to_string(),
            message: message.into(),
            hint: None,
        }
    }

    fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }

    /// 1-based line number of the offending line.
    #[must_use]
    pub fn line(&self) -> usize {
        self.line
    }

    /// Byte span `(start, end)` of the offending token within
    /// [`ParseAsmError::source_line`].
    #[must_use]
    pub fn span(&self) -> (usize, usize) {
        self.span
    }

    /// Text of the offending line.
    #[must_use]
    pub fn source_line(&self) -> &str {
        &self.source
    }

    /// The bare diagnostic message, without the caret rendering.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }

    /// A did-you-mean or usage hint, when one applies.
    #[must_use]
    pub fn hint(&self) -> Option<&str> {
        self.hint.as_deref()
    }
}

/// Byte span of `token` within `line` (the token must be a subslice);
/// falls back to the whole line.
fn byte_span(line: &str, token: &str) -> (usize, usize) {
    let line_ptr = line.as_ptr() as usize;
    let tok_ptr = token.as_ptr() as usize;
    if tok_ptr >= line_ptr && tok_ptr + token.len() <= line_ptr + line.len() {
        let start = tok_ptr - line_ptr;
        (start, start + token.len())
    } else {
        (0, line.len())
    }
}

impl core::fmt::Display for ParseAsmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let (start, end) = self.span;
        writeln!(
            f,
            "parse error at line {}, columns {start}..{end}: {}",
            self.line, self.message
        )?;
        writeln!(f, "  {}", self.source)?;
        let pad = self.source[..start.min(self.source.len())].chars().count();
        let width = self.source[start.min(self.source.len())..end.min(self.source.len())]
            .chars()
            .count()
            .max(1);
        write!(f, "  {}{}", " ".repeat(pad), "^".repeat(width))?;
        if let Some(hint) = &self.hint {
            write!(f, "\n  hint: {hint}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseAsmError {}

/// Serializes a circuit to assembly text (the same format [`Circuit`]'s
/// `Display` produces).
#[must_use]
pub fn emit(circuit: &Circuit) -> String {
    use core::fmt::Write as _;
    // About one short line per gate; sizing up front skips the regrowth.
    let mut text = String::with_capacity(32 + 16 * circuit.len());
    write!(text, "{circuit}").expect("writing to a String cannot fail");
    text
}

/// Parses assembly text into a circuit.
///
/// The register size is the maximum qubit index seen plus one, unless a
/// header comment `# circuit: N qubits, ...` declares a larger one.
///
/// # Errors
///
/// Returns [`ParseAsmError`] — with line number, span, and caret
/// rendering — on unknown mnemonics, malformed operands, arity
/// mismatches, repeated operands, or a register past [`MAX_QUBITS`].
///
/// # Examples
///
/// ```
/// use cqla_circuit::asm;
///
/// let c = asm::parse("cnot q0, q1\ntoffoli q0, q1, q2\n")?;
/// assert_eq!(c.num_qubits(), 3);
/// assert_eq!(c.len(), 2);
/// # Ok::<(), cqla_circuit::asm::ParseAsmError>(())
/// ```
pub fn parse(text: &str) -> Result<Circuit, ParseAsmError> {
    let mut declared_qubits: Option<u32> = None;
    // The shortest gate line, `x q0` and its newline, is five bytes.
    let mut gates: Vec<Gate> = Vec::with_capacity(text.len() / 5 + 1);
    let mut max_qubit: u32 = 0;
    let bytes = text.as_bytes();
    let mut pos = 0;
    let mut lineno = 0;

    while pos < bytes.len() {
        lineno += 1;
        let gate = if let Some((gate, next)) = lex_canonical(&bytes[pos..]) {
            pos += next;
            gate
        } else {
            // The line as `str::lines` yields it: up to the `\n`, less
            // one `\r` before it.
            let end = bytes[pos..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(bytes.len(), |i| pos + i);
            let mut raw = &text[pos..end];
            if end < bytes.len() {
                raw = raw.strip_suffix('\r').unwrap_or(raw);
            }
            pos = end + 1;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(comment) = line.strip_prefix('#') {
                declared_qubits = parse_header(raw, comment, lineno)?.or(declared_qubits);
                continue;
            }
            parse_line(raw, line, lineno)?
        };
        // Unused slots repeat the first operand, so all three count.
        let (qubits, _) = gate.qubit_array();
        for q in qubits {
            max_qubit = max_qubit.max(q.index());
        }
        gates.push(gate);
    }

    let num_qubits = declared_qubits
        .unwrap_or(max_qubit + 1)
        .max(max_qubit + 1)
        .max(1);
    // Both lexers rejected repeated operands and indices past
    // `MAX_QUBITS`, so the register covers the largest index: every gate
    // is valid as `Circuit::push` checks.
    Ok(Circuit::from_validated(num_qubits, gates))
}

/// Decodes one line in the canonical shape [`emit`] writes,
/// `mnemonic[k]? qA(, qB(, qC)?)?` with single spaces, at the start of
/// `line` (the rest of the text). Returns the gate and the length of the
/// line with its `\n` or `\r\n`, or `None` for anything else: other
/// whitespace, a sign, an index past [`MAX_QUBITS`], a repeated operand,
/// a wrong arity, a comment. Those lines go to [`parse_line`], which
/// gives the same gate or the diagnostic, so this is a fast path only.
fn lex_canonical(line: &[u8]) -> Option<(Gate, usize)> {
    enum Shape {
        One(fn(QubitId) -> Gate),
        Cnot,
        Cz,
        Phase(u8),
        Toffoli,
    }
    let (shape, mut at) = match line {
        [b'x', b' ', ..] => (Shape::One(Gate::X), 2),
        [b'y', b' ', ..] => (Shape::One(Gate::Y), 2),
        [b'z', b' ', ..] => (Shape::One(Gate::Z), 2),
        [b'h', b' ', ..] => (Shape::One(Gate::H), 2),
        [b's', b' ', ..] => (Shape::One(Gate::S), 2),
        [b't', b' ', ..] => (Shape::One(Gate::T), 2),
        [b'm', b'e', b'a', b's', b'u', b'r', b'e', b' ', ..] => (Shape::One(Gate::Measure), 8),
        [b'c', b'n', b'o', b't', b' ', ..] => (Shape::Cnot, 5),
        [b'c', b'z', b' ', ..] => (Shape::Cz, 3),
        [b't', b'o', b'f', b'f', b'o', b'l', b'i', b' ', ..] => (Shape::Toffoli, 8),
        [b'c', b'p', b'h', b'a', b's', b'e', b'[', ..] => {
            let (order, end) = lex_decimal(line, 7)?;
            let order = u8::try_from(order).ok()?;
            if line.get(end..end + 2)? != b"] " {
                return None;
            }
            (Shape::Phase(order), end + 2)
        }
        _ => return None,
    };
    let arity = match shape {
        Shape::One(_) => 1,
        Shape::Cnot | Shape::Cz | Shape::Phase(_) => 2,
        Shape::Toffoli => 3,
    };
    let mut q = [QubitId::new(0); 3];
    for k in 0..arity {
        if k > 0 {
            if line.get(at..at + 2)? != b", " {
                return None;
            }
            at += 2;
        }
        if line.get(at) != Some(&b'q') {
            return None;
        }
        let (index, end) = lex_decimal(line, at + 1)?;
        if index >= MAX_QUBITS || q[..k].contains(&QubitId::new(index)) {
            return None;
        }
        q[k] = QubitId::new(index);
        at = end;
    }
    let next = match &line[at..] {
        [] => at,
        [b'\n', ..] => at + 1,
        [b'\r', b'\n', ..] => at + 2,
        _ => return None,
    };
    let gate = match shape {
        Shape::One(gate) => gate(q[0]),
        Shape::Cnot => Gate::Cnot {
            control: q[0],
            target: q[1],
        },
        Shape::Cz => Gate::Cz { a: q[0], b: q[1] },
        Shape::Phase(order) => Gate::ControlledPhase {
            control: q[0],
            target: q[1],
            order,
        },
        Shape::Toffoli => Gate::Toffoli {
            c1: q[0],
            c2: q[1],
            target: q[2],
        },
    };
    Some((gate, next))
}

/// The decimal digits of `line` from `at` as a `u32`, and the offset
/// past them; `None` for no digits or a value past `u32::MAX`.
fn lex_decimal(line: &[u8], at: usize) -> Option<(u32, usize)> {
    let mut value = 0u32;
    let mut end = at;
    while let Some(&b) = line.get(end).filter(|b| b.is_ascii_digit()) {
        value = value.checked_mul(10)?.checked_add(u32::from(b - b'0'))?;
        end += 1;
    }
    (end > at).then_some((value, end))
}

/// The register size a `# circuit: N qubits` comment declares, if
/// `comment` (the trimmed line after its `#`) is such a header. Other
/// comments, and headers whose `N` is not a `u32`, declare nothing.
fn parse_header(raw: &str, comment: &str, lineno: usize) -> Result<Option<u32>, ParseAsmError> {
    let Some(token) = comment
        .trim()
        .strip_prefix("circuit:")
        .and_then(|rest| rest.split_whitespace().next())
    else {
        return Ok(None);
    };
    let Ok(n) = token.parse::<u32>() else {
        return Ok(None);
    };
    if n > MAX_QUBITS {
        return Err(ParseAsmError::new(
            lineno,
            raw,
            token,
            format!("a register of {n} qubits is too large"),
        )
        .with_hint(format!("registers stop at {MAX_QUBITS} qubits")));
    }
    Ok(Some(n))
}

/// Parses one non-blank, non-comment line. `raw` is the full source line
/// (for spans), `line` its trimmed subslice.
fn parse_line(raw: &str, line: &str, lineno: usize) -> Result<Gate, ParseAsmError> {
    let (head, rest) = match line.split_once(' ') {
        Some((h, r)) => (h.trim(), r.trim()),
        None => (line, ""),
    };
    let (mnemonic, order) = match head.split_once('[') {
        Some((m, bracket)) => {
            let inner = bracket.strip_suffix(']').ok_or_else(|| {
                ParseAsmError::new(lineno, raw, head, format!("unterminated '[' in {head:?}"))
                    .with_hint("phase orders close with `]`, e.g. cphase[3]")
            })?;
            let k: u8 = inner.parse().map_err(|_| {
                ParseAsmError::new(lineno, raw, inner, format!("invalid phase order {inner:?}"))
                    .with_hint("the order is a small integer, e.g. cphase[3]")
            })?;
            (m, Some(k))
        }
        None => (head, None),
    };

    if !MNEMONICS.contains(&mnemonic) {
        let mut err =
            ParseAsmError::new(lineno, raw, head, format!("unknown mnemonic {mnemonic:?}"));
        if let Some(candidate) = suggest(mnemonic, &MNEMONICS) {
            err = err.with_hint(format!("did you mean `{candidate}`?"));
        } else {
            err = err.with_hint(format!("known mnemonics: {}", MNEMONICS.join(", ")));
        }
        return Err(err);
    }
    if order.is_some() && mnemonic != "cphase" {
        return Err(ParseAsmError::new(
            lineno,
            raw,
            head,
            format!("{mnemonic} does not take an order parameter"),
        )
        .with_hint("only cphase takes an order, e.g. cphase[3] q0, q1"));
    }

    // Operands land in a fixed buffer sized for the widest gate. A longer
    // list is an error; it spills to the heap only so the diagnostics
    // below see every operand and the true count.
    let mut buffer = [QubitId::new(0); 3];
    let mut spill: Vec<QubitId> = Vec::new();
    let mut count = 0;
    if !rest.is_empty() {
        for tok in rest.split(',') {
            let q = parse_qubit(raw, tok.trim(), lineno)?;
            if count < buffer.len() {
                buffer[count] = q;
            } else {
                if spill.is_empty() {
                    spill.extend_from_slice(&buffer);
                }
                spill.push(q);
            }
            count += 1;
        }
    }
    let operands = if spill.is_empty() {
        &buffer[..count]
    } else {
        &spill[..]
    };

    let expect = |n: usize| -> Result<(), ParseAsmError> {
        if operands.len() == n {
            Ok(())
        } else {
            let span_tok = if rest.is_empty() { head } else { rest };
            Err(ParseAsmError::new(
                lineno,
                raw,
                span_tok,
                format!("{mnemonic} expects {n} operands, got {}", operands.len()),
            )
            .with_hint(format!(
                "operands are comma-separated qubits, e.g. {mnemonic}{} {}",
                if mnemonic == "cphase" { "[3]" } else { "" },
                (0..n)
                    .map(|i| format!("q{i}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )))
        }
    };

    for (i, a) in operands.iter().enumerate() {
        if operands[i + 1..].contains(a) {
            return Err(ParseAsmError::new(
                lineno,
                raw,
                rest,
                format!("{mnemonic} repeats operand {a}"),
            )
            .with_hint("each operand must name a distinct qubit"));
        }
    }

    let gate = match mnemonic {
        "x" => {
            expect(1)?;
            Gate::X(operands[0])
        }
        "y" => {
            expect(1)?;
            Gate::Y(operands[0])
        }
        "z" => {
            expect(1)?;
            Gate::Z(operands[0])
        }
        "h" => {
            expect(1)?;
            Gate::H(operands[0])
        }
        "s" => {
            expect(1)?;
            Gate::S(operands[0])
        }
        "t" => {
            expect(1)?;
            Gate::T(operands[0])
        }
        "measure" => {
            expect(1)?;
            Gate::Measure(operands[0])
        }
        "cnot" => {
            expect(2)?;
            Gate::Cnot {
                control: operands[0],
                target: operands[1],
            }
        }
        "cz" => {
            expect(2)?;
            Gate::Cz {
                a: operands[0],
                b: operands[1],
            }
        }
        "cphase" => {
            expect(2)?;
            let order = order.ok_or_else(|| {
                ParseAsmError::new(lineno, raw, head, "cphase requires an order")
                    .with_hint("write the order in brackets, e.g. cphase[3] q0, q1")
            })?;
            Gate::ControlledPhase {
                control: operands[0],
                target: operands[1],
                order,
            }
        }
        "toffoli" => {
            expect(3)?;
            Gate::Toffoli {
                c1: operands[0],
                c2: operands[1],
                target: operands[2],
            }
        }
        _ => unreachable!("mnemonic membership checked above"),
    };
    Ok(gate)
}

fn parse_qubit(raw: &str, token: &str, lineno: usize) -> Result<QubitId, ParseAsmError> {
    let digits = token.strip_prefix('q').ok_or_else(|| {
        ParseAsmError::new(
            lineno,
            raw,
            token,
            format!("operand {token:?} must look like q7"),
        )
        .with_hint("qubit operands are `q` followed by an index")
    })?;
    let index: u32 = digits.parse().map_err(|_| {
        ParseAsmError::new(
            lineno,
            raw,
            token,
            format!("invalid qubit index in {token:?}"),
        )
        .with_hint("the index is a decimal integer, e.g. q7")
    })?;
    if index >= MAX_QUBITS {
        return Err(ParseAsmError::new(
            lineno,
            raw,
            token,
            format!("qubit index in {token:?} is out of range"),
        )
        .with_hint(format!("indices stop at q{}", MAX_QUBITS - 1)));
    }
    Ok(QubitId::new(index))
}

/// Returns the closest candidate within an edit-distance budget of
/// `2.max(len/3)` — the did-you-mean heuristic the sweep-spec grammar
/// uses.
fn suggest(input: &str, candidates: &[&'static str]) -> Option<&'static str> {
    let budget = 2.max(input.chars().count().div_ceil(3));
    candidates
        .iter()
        .map(|c| (edit_distance(input, c), *c))
        .filter(|&(d, _)| d <= budget)
        .min()
        .map(|(_, c)| c)
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_circuit() {
        let mut c = Circuit::new(5);
        c.h(0);
        c.cnot(0, 1);
        c.toffoli(1, 2, 3);
        c.controlled_phase(3, 4, 5);
        c.measure(4);
        let text = emit(&c);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, c);
    }

    #[test]
    fn header_declares_register_size() {
        let c = parse("# circuit: 10 qubits, 1 gates\nx q0\n").unwrap();
        assert_eq!(c.num_qubits(), 10);
    }

    #[test]
    fn register_inferred_from_operands() {
        let c = parse("cnot q2, q7\n").unwrap();
        assert_eq!(c.num_qubits(), 8);
    }

    #[test]
    fn blank_lines_and_comments_skipped() {
        let c = parse("\n# hello\n\nx q0\n# bye\n").unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("x q0\nfrobnicate q1\n").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn unknown_mnemonic_renders_span_and_suggestion() {
        let err = parse("x q0\ntofolli q0, q1, q2\n").unwrap_err();
        assert_eq!(err.line(), 2);
        assert_eq!(err.span(), (0, 7));
        assert_eq!(err.source_line(), "tofolli q0, q1, q2");
        assert_eq!(err.hint(), Some("did you mean `toffoli`?"));
        let rendered = err.to_string();
        assert!(rendered.contains("parse error at line 2, columns 0..7"));
        assert!(rendered.contains("\n  tofolli q0, q1, q2\n  ^^^^^^^"));
        assert!(rendered.contains("hint: did you mean `toffoli`?"));
    }

    #[test]
    fn spans_respect_leading_whitespace() {
        let err = parse("   x banana\n").unwrap_err();
        assert_eq!(err.span(), (5, 11));
        assert!(err.to_string().contains("\n     x banana\n       ^^^^^^"));
    }

    #[test]
    fn arity_errors() {
        assert!(parse("cnot q0\n").is_err());
        assert!(parse("toffoli q0, q1\n").is_err());
        assert!(parse("x q0, q1\n").is_err());
        let err = parse("cnot q0\n").unwrap_err();
        assert!(err.to_string().contains("cnot expects 2 operands, got 1"));
        assert_eq!(
            err.hint(),
            Some("operands are comma-separated qubits, e.g. cnot q0, q1")
        );
    }

    #[test]
    fn repeated_operands_error_instead_of_panicking() {
        let err = parse("cnot q3, q3\n").unwrap_err();
        assert_eq!(err.line(), 1);
        assert!(err.to_string().contains("repeats operand q3"));
    }

    #[test]
    fn malformed_operands() {
        assert!(parse("x 0\n").is_err());
        assert!(parse("x qx\n").is_err());
        assert!(parse("cphase q0, q1\n").is_err()); // missing order
        assert!(parse("cphase[z] q0, q1\n").is_err());
        assert!(parse("cnot[2] q0, q1\n").is_err()); // stray order
        let err = parse("x 0\n").unwrap_err();
        assert_eq!(err.span(), (2, 3));
    }

    #[test]
    fn an_index_past_the_largest_register_is_an_error_not_a_panic() {
        // q4294967295 would need a register of 2^32 qubits.
        let err = parse("x q4294967295\n").unwrap_err();
        assert!(err.message().contains("out of range"), "{err}");
        assert_eq!(err.span(), (2, 13));
        let err = parse("x q0\ncnot q1, q1048576\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "parse error at line 2, columns 9..17: qubit index in \"q1048576\" is out of range\n  \
             cnot q1, q1048576\n           ^^^^^^^^\n  \
             hint: indices stop at q1048575"
        );
        assert_eq!(parse("x q1048575\n").unwrap().num_qubits(), MAX_QUBITS);
    }

    #[test]
    fn a_header_past_the_largest_register_is_an_error() {
        let err = parse("# circuit: 4294967295 qubits, 1 gates\nx q0\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "parse error at line 1, columns 11..21: a register of 4294967295 qubits is too large\n  \
             # circuit: 4294967295 qubits, 1 gates\n             ^^^^^^^^^^\n  \
             hint: registers stop at 1048576 qubits"
        );
        assert!(parse("# circuit: 1048577 qubits\n").is_err());
        let c = parse("# circuit: 1048576 qubits\nx q0\n").unwrap();
        assert_eq!(c.num_qubits(), MAX_QUBITS);
        // A header that is not a `u32` is an ordinary comment.
        assert_eq!(
            parse("# circuit: 99999999999 qubits\nx q0\n")
                .unwrap()
                .num_qubits(),
            1
        );
    }

    /// Operand-list diagnostics, rendered byte for byte: the repeat
    /// check covers every operand on the line, however many there are,
    /// and an arity error reports the true operand count.
    #[test]
    fn operand_list_diagnostics_are_pinned() {
        let distinct = "hint: each operand must name a distinct qubit";
        for (line, rendered) in [
            (
                "x q0, q1, q2, q0",
                format!(
                    "parse error at line 1, columns 2..16: x repeats operand q0\n  \
                     x q0, q1, q2, q0\n    ^^^^^^^^^^^^^^\n  {distinct}"
                ),
            ),
            (
                "toffoli q0, q1, q2, q1",
                format!(
                    "parse error at line 1, columns 8..22: toffoli repeats operand q1\n  \
                     toffoli q0, q1, q2, q1\n          ^^^^^^^^^^^^^^\n  {distinct}"
                ),
            ),
            (
                "cnot q0, q1, q2, q3, q4, q0",
                format!(
                    "parse error at line 1, columns 5..27: cnot repeats operand q0\n  \
                     cnot q0, q1, q2, q3, q4, q0\n       ^^^^^^^^^^^^^^^^^^^^^^\n  {distinct}"
                ),
            ),
            (
                "h q1, q1",
                format!(
                    "parse error at line 1, columns 2..8: h repeats operand q1\n  \
                     h q1, q1\n    ^^^^^^\n  {distinct}"
                ),
            ),
            (
                "x q0, q1, q2, q3, q3",
                format!(
                    "parse error at line 1, columns 2..20: x repeats operand q3\n  \
                     x q0, q1, q2, q3, q3\n    ^^^^^^^^^^^^^^^^^^\n  {distinct}"
                ),
            ),
            (
                "cnot q0, q1, q2, q3",
                "parse error at line 1, columns 5..19: cnot expects 2 operands, got 4\n  \
                 cnot q0, q1, q2, q3\n       ^^^^^^^^^^^^^^\n  \
                 hint: operands are comma-separated qubits, e.g. cnot q0, q1"
                    .to_string(),
            ),
            (
                "  toffoli q5, q6, q7, q8  ",
                "parse error at line 1, columns 10..24: toffoli expects 3 operands, got 4\n  \
                 \x20 toffoli q5, q6, q7, q8  \n            ^^^^^^^^^^^^^^\n  \
                 hint: operands are comma-separated qubits, e.g. toffoli q0, q1, q2"
                    .to_string(),
            ),
            (
                "measure",
                "parse error at line 1, columns 0..7: measure expects 1 operands, got 0\n  \
                 measure\n  ^^^^^^^\n  \
                 hint: operands are comma-separated qubits, e.g. measure q0"
                    .to_string(),
            ),
            (
                "x q0, q1, q2, banana, q0",
                "parse error at line 1, columns 14..20: operand \"banana\" must look like q7\n  \
                 x q0, q1, q2, banana, q0\n                ^^^^^^\n  \
                 hint: qubit operands are `q` followed by an index"
                    .to_string(),
            ),
        ] {
            assert_eq!(parse(line).unwrap_err().to_string(), rendered, "{line:?}");
        }
    }

    #[test]
    fn unknown_mnemonic_without_close_match_lists_the_grammar() {
        let err = parse("quux q0\n").unwrap_err();
        assert!(err.hint().unwrap().starts_with("known mnemonics:"));
    }

    /// The parser without the canonical lexer: every non-blank,
    /// non-comment line through `parse_line`. `parse` must agree with it
    /// on every input, circuit and diagnostic alike.
    fn reference_parse(text: &str) -> Result<Circuit, ParseAsmError> {
        let mut declared_qubits: Option<u32> = None;
        let mut gates = Vec::new();
        let mut max_qubit = 0;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(comment) = line.strip_prefix('#') {
                declared_qubits = parse_header(raw, comment, idx + 1)?.or(declared_qubits);
                continue;
            }
            let gate = parse_line(raw, line, idx + 1)?;
            for q in gate.qubit_array().0 {
                max_qubit = max_qubit.max(q.index());
            }
            gates.push(gate);
        }
        let num_qubits = declared_qubits.unwrap_or(0).max(max_qubit + 1);
        Ok(Circuit::from_validated(num_qubits, gates))
    }

    /// A seeded circuit over all eleven mnemonics, on at least three
    /// qubits.
    fn seeded_circuit(qubits: u32, gates: usize, seed: u64) -> Circuit {
        let mut state = seed;
        // SplitMix64.
        let mut next = |bound: u32| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % u64::from(bound)) as u32
        };
        let mut c = Circuit::new(qubits);
        for _ in 0..gates {
            let (draw, a) = (next(11), next(qubits));
            let b = (a + 1 + next(qubits - 1)) % qubits;
            let t = (0..qubits).find(|&t| t != a && t != b).unwrap();
            match draw {
                0 => c.x(a),
                1 => c.y(a),
                2 => c.z(a),
                3 => c.s(a),
                4 => c.t(a),
                5 => c.h(a),
                6 => c.measure(a),
                7 => c.cnot(a, b),
                8 => c.cz(a, b),
                9 => c.controlled_phase(a, b, next(256) as u8),
                _ => c.toffoli(a, b, t),
            }
        }
        c
    }

    /// `line` with its first operand replaced by `operand`.
    fn with_first_operand(line: &str, operand: &str) -> String {
        let Some(start) = line.find(' ') else {
            return format!("{line} {operand}");
        };
        let end = line.find(',').unwrap_or(line.len());
        format!("{}{operand}{}", &line[..=start], &line[end..])
    }

    /// Line edits that leave the canonical shape: each line they produce
    /// is either still valid (and must parse to the same gate) or an
    /// error (and must give the same diagnostic).
    const LINE_EDITS: [fn(&str) -> String; 15] = [
        |l| l.replacen(' ', "\t", 1),
        |l| l.replacen(' ', "\u{3000}", 1),
        |l| l.replacen(' ', "  ", 1),
        |l| l.replacen(" q", " q+", 1),
        |l| l.replacen(" q", " q00", 1),
        |l| with_first_operand(l, "q4294967295"),
        |l| with_first_operand(l, "q4294967296"),
        |l| with_first_operand(l, "q1048575"),
        |l| with_first_operand(l, "q1048576"),
        |l| match l.split_once(", ") {
            Some((head, rest)) => {
                let first = head.rsplit(' ').next().unwrap_or_default();
                let tail = rest.find(',').map_or("", |i| &rest[i..]);
                format!("{head}, {first}{tail}")
            }
            None => format!("{l}, {}", l.rsplit(' ').next().unwrap_or_default()),
        },
        |l| format!("{l},"),
        |l| format!("{l} "),
        |l| format!(" {l}"),
        |l| format!("{l}\ncphase[255] q0, q1"),
        |l| format!("{l}\ncphase[256] q0, q1"),
    ];

    #[test]
    fn canonical_lexer_agrees_with_the_line_parser() {
        let check = |text: &str| assert_eq!(parse(text), reference_parse(text), "{text:?}");
        for seed in 0..24u64 {
            let qubits = [3, 8, 64, 1000][seed as usize % 4];
            let text = emit(&seeded_circuit(qubits, 6 + 3 * seed as usize, seed));
            check(&text);
            check(&text.replace('\n', "\r\n"));
            check(&format!("{}\r", text.trim_end()));
            check(text.trim_end());
            let lines: Vec<&str> = text.lines().collect();
            for (e, edit) in LINE_EDITS.iter().enumerate() {
                // Each edit hits a different line of each program, the
                // header included.
                let at = (e + seed as usize) % lines.len();
                let mut mutant = lines.clone();
                let edited = edit(lines[at]);
                mutant[at] = &edited;
                check(&(mutant.join("\n") + "\n"));
                check(&mutant.join("\r\n"));
            }
        }
        for text in [
            "",
            "\n",
            "\r\n",
            "\r",
            "x q0\r\r\n",
            "x q0\rx q1\n",
            "x q007\n",
            "x q\n",
            "x q0\n\n\ty q1\n",
            "cphase[255] q0, q1\n",
            "cphase[256] q0, q1\n",
            "cphase[] q0, q1\n",
            "cphase[2]q0, q1\n",
            "cnot q0,q1\n",
            "cnot q0, q1, q2\n",
            "toffoli q0, q1\n",
            "toffoli q0, q1, q0\n",
            "measure q0\n# circuit: 9 qubits\n",
            "x q1048575",
            "x q1048576",
            "# circuit: 1048576 qubits\nx q0\n",
            "# circuit: 1048577 qubits\nx q0\n",
            "x q99999999999999999999\n",
            "xx q0\n",
            "tt q0\n",
            "x\u{3000}q0\n",
            "λ q0\n",
        ] {
            check(text);
        }
    }

    #[test]
    fn suggest_respects_budget() {
        assert_eq!(suggest("tofoli", &MNEMONICS), Some("toffoli"));
        assert_eq!(suggest("measrue", &MNEMONICS), Some("measure"));
        assert_eq!(suggest("zzzzzzzzzz", &MNEMONICS), None);
    }
}

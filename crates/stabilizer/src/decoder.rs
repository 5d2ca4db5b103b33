//! Minimum-weight lookup decoding for small CSS codes.

use std::collections::HashMap;

use crate::code::{CssCode, Syndrome};
use crate::pauli::{PauliOp, PauliString};

/// A syndrome-indexed table of minimum-weight corrections.
///
/// Built by enumerating Pauli errors of increasing weight until every
/// reachable syndrome has a correction. For the distance-3 codes in this
/// workspace the table is complete after weight ≤ 3 and guarantees that
/// every weight-1 error is corrected exactly.
///
/// # Examples
///
/// ```
/// use cqla_stabilizer::{CssCode, LookupDecoder, PauliOp, PauliString};
///
/// let code = CssCode::shor9();
/// let decoder = LookupDecoder::for_code(&code);
/// let error = PauliString::single(9, 4, PauliOp::X);
/// let correction = decoder.decode(&code.syndrome(&error)).unwrap();
/// assert!(code.is_logically_trivial(&error.mul(&correction)));
/// ```
#[derive(Debug, Clone)]
pub struct LookupDecoder {
    table: HashMap<Syndrome, PauliString>,
}

impl LookupDecoder {
    /// Builds the full lookup table for `code`: errors of every weight up
    /// to `n`, stopping early once every syndrome has a correction.
    #[must_use]
    pub fn for_code(code: &CssCode) -> Self {
        Self::up_to_weight(code, code.num_qubits())
    }

    /// Builds the table from errors of weight at most `max_weight` only.
    ///
    /// Errors are enumerated in ascending weight and the first error to
    /// reach a syndrome keeps its entry, so every syndrome present here
    /// decodes exactly as in [`LookupDecoder::for_code`]; syndromes only
    /// heavier errors reach are absent.
    #[must_use]
    pub fn up_to_weight(code: &CssCode, max_weight: usize) -> Self {
        let n = code.num_qubits();
        let mut table: HashMap<Syndrome, PauliString> = HashMap::new();
        table.insert(
            code.syndrome(&PauliString::identity(n)),
            PauliString::identity(n),
        );
        // The number of reachable syndromes equals 2^(num generators) for
        // the full-rank check matrices used here; stop as soon as the table
        // is full. Not every syndrome needs to be reachable (non-full-rank
        // checks), so weight `n` ends the search regardless.
        let target = 1usize << code.num_generators();
        for weight in 1..=max_weight.min(n) {
            for error in errors_of_weight(n, weight) {
                let syndrome = code.syndrome(&error);
                table.entry(syndrome).or_insert(error);
            }
            if table.len() >= target {
                break;
            }
        }
        Self { table }
    }

    /// Returns the stored minimum-weight correction for `syndrome`, if the
    /// syndrome is reachable.
    #[must_use]
    pub fn decode(&self, syndrome: &Syndrome) -> Option<PauliString> {
        self.table.get(syndrome).cloned()
    }
}

/// Lazily enumerates all `n`-qubit Pauli strings of exactly the given
/// weight, one at a time.
///
/// The order is pinned: qubit supports advance lexicographically, and
/// within a support the X/Y/Z assignment counts through base-3 masks with
/// the lowest-indexed qubit in the least-significant digit. Table builders
/// rely on this order — the first string producing a syndrome becomes its
/// stored correction.
#[must_use]
pub fn errors_of_weight(n: usize, weight: usize) -> ErrorsOfWeight {
    ErrorsOfWeight {
        n,
        support: (0..weight).collect(),
        mask: 0,
        mask_limit: 3usize.pow(weight as u32),
        done: weight > n,
    }
}

/// Iterator returned by [`errors_of_weight`].
#[derive(Debug, Clone)]
pub struct ErrorsOfWeight {
    n: usize,
    support: Vec<usize>,
    mask: usize,
    mask_limit: usize,
    done: bool,
}

impl Iterator for ErrorsOfWeight {
    type Item = PauliString;

    fn next(&mut self) -> Option<PauliString> {
        if self.done {
            return None;
        }
        // Assign each supported qubit one of X, Y, Z from the base-3 mask.
        let mut p = PauliString::identity(self.n);
        let mut m = self.mask;
        for &q in &self.support {
            p.set(q, PauliOp::ERRORS[m % 3]);
            m /= 3;
        }
        self.mask += 1;
        if self.mask == self.mask_limit {
            self.mask = 0;
            self.done = !advance_support(&mut self.support, self.n);
        }
        Some(p)
    }
}

/// Advances a sorted qubit combination to its lexicographic successor;
/// returns `false` when the last combination has been consumed.
fn advance_support(support: &mut [usize], n: usize) -> bool {
    let k = support.len();
    let mut i = k;
    while i > 0 {
        i -= 1;
        if support[i] < n - k + i {
            support[i] += 1;
            for j in i + 1..k {
                support[j] = support[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_counts_match_formula() {
        assert_eq!(errors_of_weight(7, 0).count(), 1);
        assert_eq!(errors_of_weight(7, 1).count(), 21);
        assert_eq!(errors_of_weight(7, 2).count(), 21 * 9); // C(7,2)*9
        assert_eq!(errors_of_weight(4, 4).count(), 81);
        assert_eq!(errors_of_weight(3, 4).count(), 0); // weight > n
    }

    #[test]
    fn lazy_enumeration_preserves_the_recursive_order() {
        // The pre-iterator recursive enumeration, kept as the order oracle:
        // the decoder table stores the FIRST string per syndrome, so the
        // iterator must reproduce this order exactly.
        fn recursive(n: usize, weight: usize) -> Vec<PauliString> {
            let mut out = Vec::new();
            let mut support = Vec::with_capacity(weight);
            fn rec(
                n: usize,
                weight: usize,
                start: usize,
                support: &mut Vec<usize>,
                out: &mut Vec<PauliString>,
            ) {
                if support.len() == weight {
                    let k = support.len();
                    for mask in 0..3usize.pow(k as u32) {
                        let mut m = mask;
                        let mut p = PauliString::identity(n);
                        for &q in support.iter() {
                            p.set(q, PauliOp::ERRORS[m % 3]);
                            m /= 3;
                        }
                        out.push(p);
                    }
                    return;
                }
                for q in start..n {
                    support.push(q);
                    rec(n, weight, q + 1, support, out);
                    support.pop();
                }
            }
            rec(n, weight, 0, &mut support, &mut out);
            out
        }
        for n in 1..=7 {
            for weight in 0..=n {
                let lazy: Vec<_> = errors_of_weight(n, weight).collect();
                assert_eq!(lazy, recursive(n, weight), "n={n} weight={weight}");
            }
        }
    }

    #[test]
    fn all_weight_one_errors_corrected_on_every_code() {
        for code in [CssCode::steane(), CssCode::shor9(), CssCode::bacon_shor()] {
            let decoder = LookupDecoder::for_code(&code);
            for error in errors_of_weight(code.num_qubits(), 1) {
                let syndrome = code.syndrome(&error);
                let correction = decoder
                    .decode(&syndrome)
                    .unwrap_or_else(|| panic!("{code}: unreachable syndrome {syndrome}"));
                let residue = error.mul(&correction);
                assert!(
                    code.is_logically_trivial(&residue),
                    "{code}: error {error} miscorrected by {correction}"
                );
            }
        }
    }

    #[test]
    fn weight_one_table_decodes_like_the_full_table() {
        for code in [CssCode::steane(), CssCode::shor9(), CssCode::bacon_shor()] {
            let full = LookupDecoder::for_code(&code);
            let light = LookupDecoder::up_to_weight(&code, 1);
            assert!(light.table.len() <= full.table.len(), "{code}");
            for error in errors_of_weight(code.num_qubits(), 1) {
                let syndrome = code.syndrome(&error);
                assert_eq!(
                    light.decode(&syndrome),
                    full.decode(&syndrome),
                    "{code}: {error}"
                );
            }
        }
    }

    #[test]
    fn zero_syndrome_decodes_to_identity() {
        let code = CssCode::steane();
        let decoder = LookupDecoder::for_code(&code);
        let zero = code.syndrome(&PauliString::identity(7));
        assert_eq!(decoder.decode(&zero), Some(PauliString::identity(7)));
    }

    #[test]
    fn steane_table_is_complete() {
        let decoder = LookupDecoder::for_code(&CssCode::steane());
        assert_eq!(decoder.table.len(), 64); // 2^6 syndromes
    }

    #[test]
    fn shor_table_is_complete() {
        let decoder = LookupDecoder::for_code(&CssCode::shor9());
        assert_eq!(decoder.table.len(), 256); // 2^8 syndromes
    }

    #[test]
    fn bacon_shor_table_is_complete() {
        let decoder = LookupDecoder::for_code(&CssCode::bacon_shor());
        assert_eq!(decoder.table.len(), 16); // 2^4 syndromes
    }

    #[test]
    fn corrections_are_minimum_weight_for_weight_one_syndromes() {
        let code = CssCode::steane();
        let decoder = LookupDecoder::for_code(&code);
        for error in errors_of_weight(7, 1) {
            let c = decoder.decode(&code.syndrome(&error)).unwrap();
            assert!(c.weight() <= 1, "{error} got correction {c}");
        }
    }
}

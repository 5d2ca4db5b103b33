//! Packed bitvector primitives behind [`crate::pauli`].
//!
//! A bitvector of `len` bits is stored as `len.div_ceil(64)` little-endian
//! `u64` words: bit `i` lives in word `i / 64` at bit position `i % 64`.
//! Every operation maintains the canonical-form invariant that bits at
//! positions `len..` (the tail of the last word) are zero, so whole-word
//! comparisons, XORs, and popcounts need no boundary masking.

/// Number of `u64` words needed to hold `len` bits.
#[must_use]
pub(crate) fn words_for(len: usize) -> usize {
    len.div_ceil(64)
}

/// Word index and bit mask addressing bit `i`.
#[must_use]
pub(crate) fn word_mask(i: usize) -> (usize, u64) {
    (i / 64, 1u64 << (i % 64))
}

/// Reads bit `i`.
#[must_use]
pub(crate) fn get(words: &[u64], i: usize) -> bool {
    let (w, m) = word_mask(i);
    words[w] & m != 0
}

/// Writes bit `i`.
pub(crate) fn set(words: &mut [u64], i: usize, value: bool) {
    let (w, m) = word_mask(i);
    if value {
        words[w] |= m;
    } else {
        words[w] &= !m;
    }
}

/// Parity (mod 2) of the symplectic product `Σ (x1·z2 ⊕ z1·x2)` over two
/// packed Pauli component pairs — `true` iff the operators anticommute.
///
/// Popcount parities are additive mod 2 under XOR accumulation
/// (`|a| + |b| ≡ |a ⊕ b| (mod 2)`), so one fold plus a final popcount
/// replaces a per-bit loop.
#[must_use]
pub(crate) fn symplectic_parity(x1: &[u64], z1: &[u64], x2: &[u64], z2: &[u64]) -> bool {
    let mut acc = 0u64;
    for w in 0..x1.len() {
        acc ^= (x1[w] & z2[w]) ^ (z1[w] & x2[w]);
    }
    acc.count_ones() % 2 == 1
}

/// Word-parallel Aaronson–Gottesman phase accumulation for the product
/// `P1 · P2`: returns `Σ g((x1,z1)_q, (x2,z2)_q)` as an i-exponent.
///
/// Each single-qubit `g` is −1, 0, or +1; the +1 and −1 cases are each a
/// union of three disjoint `(x1,z1,x2,z2)` patterns, evaluated as bit
/// masks and popcounted per word. Every mask term conjoins at least one
/// *non-negated* component from each operand, so the zeroed tail bits
/// beyond `len` can never contribute.
#[must_use]
pub(crate) fn product_phase_sum(x1: &[u64], z1: &[u64], x2: &[u64], z2: &[u64]) -> i32 {
    let mut k = 0i32;
    for w in 0..x1.len() {
        let (a, b, c, d) = (x1[w], z1[w], x2[w], z2[w]);
        // g = +1: Y·Z (11,01), X·Y (10,11), Z·X (01,10).
        let plus = (a & b & !c & d) | (a & !b & c & d) | (!a & b & c & !d);
        // g = −1: Y·X (11,10), X·Z (10,01), Z·Y (01,11).
        let minus = (a & b & c & !d) | (a & !b & !c & d) | (!a & b & c & d);
        k += plus.count_ones() as i32 - minus.count_ones() as i32;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar g function the masks must reproduce.
    fn g(x1: bool, z1: bool, x2: bool, z2: bool) -> i32 {
        let (x2i, z2i) = (i32::from(x2), i32::from(z2));
        match (x1, z1) {
            (false, false) => 0,
            (true, true) => z2i - x2i,
            (true, false) => z2i * (2 * x2i - 1),
            (false, true) => x2i * (1 - 2 * z2i),
        }
    }

    #[test]
    fn masks_match_scalar_g_on_all_sixteen_patterns() {
        for bits in 0..16u8 {
            let (x1, z1, x2, z2) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0, bits & 8 != 0);
            let packed = |b: bool| if b { vec![1u64] } else { vec![0u64] };
            let sum = product_phase_sum(&packed(x1), &packed(z1), &packed(x2), &packed(z2));
            assert_eq!(sum, g(x1, z1, x2, z2), "pattern {bits:04b}");
        }
    }

    #[test]
    fn tail_bits_stay_canonical_under_set() {
        let mut w = vec![0u64; words_for(70)];
        set(&mut w, 69, true);
        set(&mut w, 69, false);
        set(&mut w, 3, true);
        assert!(get(&w, 3));
        assert!(!get(&w, 69));
        assert_eq!(w[1], 0);
    }

    #[test]
    fn symplectic_parity_counts_anticommuting_overlaps() {
        // X on qubit 0 vs Z on qubit 0: one overlap -> anticommute.
        let x1 = vec![1u64];
        let z1 = vec![0u64];
        let x2 = vec![0u64];
        let z2 = vec![1u64];
        assert!(symplectic_parity(&x1, &z1, &x2, &z2));
        // X⊗X vs Z⊗Z: two overlaps cancel.
        let x1 = vec![3u64];
        let z2 = vec![3u64];
        assert!(!symplectic_parity(&x1, &z1, &x2, &z2));
    }
}

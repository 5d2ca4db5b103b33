//! Pauli-group algebra with phase tracking.
//!
//! Pauli strings are stored bit-packed: the X and Z symplectic components
//! live in `u64` words (see [`crate::bits`]), so products, commutation
//! checks, and weight counts run word-parallel with XORs and popcounts
//! instead of per-qubit boolean loops.

use crate::bits;

/// A single-qubit Pauli operator.
///
/// # Examples
///
/// ```
/// use cqla_stabilizer::PauliOp;
///
/// // Symplectic components: Y = iXZ carries both.
/// assert_eq!(PauliOp::Y.bits(), (true, true));
/// assert_eq!(PauliOp::from_bits(false, true), PauliOp::Z);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PauliOp {
    /// Identity.
    I,
    /// Bit flip.
    X,
    /// Bit and phase flip (`Y = iXZ`).
    Y,
    /// Phase flip.
    Z,
}

impl PauliOp {
    /// The three non-identity Paulis (the error basis).
    pub const ERRORS: [Self; 3] = [Self::X, Self::Y, Self::Z];

    /// (x, z) symplectic component pair.
    #[must_use]
    pub const fn bits(self) -> (bool, bool) {
        match self {
            Self::I => (false, false),
            Self::X => (true, false),
            Self::Y => (true, true),
            Self::Z => (false, true),
        }
    }

    /// Reconstructs a Pauli from its symplectic components.
    #[must_use]
    pub const fn from_bits(x: bool, z: bool) -> Self {
        match (x, z) {
            (false, false) => Self::I,
            (true, false) => Self::X,
            (true, true) => Self::Y,
            (false, true) => Self::Z,
        }
    }
}

impl core::fmt::Display for PauliOp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let c = match self {
            Self::I => 'I',
            Self::X => 'X',
            Self::Y => 'Y',
            Self::Z => 'Z',
        };
        write!(f, "{c}")
    }
}

/// An n-qubit Pauli operator with a global phase `i^k`, `k ∈ {0,1,2,3}`.
///
/// Stored in the symplectic representation: two bit-packed vectors (X and
/// Z parts, 64 qubits per word) plus the phase exponent. Products and
/// commutation checks are word-parallel. Products of *Hermitian* Paulis
/// built by this crate always stay at real phases (`k` even), which the
/// stabilizer formalism relies on.
///
/// # Examples
///
/// ```
/// use cqla_stabilizer::{PauliOp, PauliString};
///
/// let x = PauliString::single(1, 0, PauliOp::X);
/// let z = PauliString::single(1, 0, PauliOp::Z);
/// assert!(x.anticommutes_with(&z));
///
/// // XZ = -iY, so (XZ)·(ZX) = X Z Z X = +I.
/// let xz = x.mul(&z);
/// let zx = z.mul(&x);
/// assert_eq!(xz.mul(&zx), PauliString::identity(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PauliString {
    xs: Vec<u64>,
    zs: Vec<u64>,
    /// Qubit count (the packed vectors hold `len.div_ceil(64)` words with
    /// zeroed tail bits).
    len: usize,
    /// Phase exponent k in i^k.
    phase: u8,
}

impl PauliString {
    /// The n-qubit identity.
    #[must_use]
    pub fn identity(num_qubits: usize) -> Self {
        let words = bits::words_for(num_qubits);
        Self {
            xs: vec![0; words],
            zs: vec![0; words],
            len: num_qubits,
            phase: 0,
        }
    }

    /// A single-qubit Pauli embedded in `num_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `qubit >= num_qubits`.
    #[must_use]
    pub fn single(num_qubits: usize, qubit: usize, op: PauliOp) -> Self {
        assert!(
            qubit < num_qubits,
            "qubit {qubit} out of range {num_qubits}"
        );
        let mut p = Self::identity(num_qubits);
        p.set(qubit, op);
        p
    }

    /// Builds a Pauli string from `(qubit, op)` pairs; unlisted qubits are
    /// identity.
    ///
    /// # Panics
    ///
    /// Panics if any qubit index is out of range or listed twice with
    /// different operators.
    #[must_use]
    pub fn from_ops<I>(num_qubits: usize, ops: I) -> Self
    where
        I: IntoIterator<Item = (usize, PauliOp)>,
    {
        let mut p = Self::identity(num_qubits);
        for (q, op) in ops {
            assert!(q < num_qubits, "qubit {q} out of range {num_qubits}");
            assert_eq!(p.op(q), PauliOp::I, "qubit {q} assigned twice");
            p.set(q, op);
        }
        p
    }

    /// Number of qubits the string acts on.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.len
    }

    /// The single-qubit operator on `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    #[must_use]
    pub fn op(&self, qubit: usize) -> PauliOp {
        assert!(qubit < self.len, "qubit {qubit} out of range {}", self.len);
        PauliOp::from_bits(bits::get(&self.xs, qubit), bits::get(&self.zs, qubit))
    }

    /// Sets the single-qubit operator on `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn set(&mut self, qubit: usize, op: PauliOp) {
        assert!(qubit < self.len, "qubit {qubit} out of range {}", self.len);
        let (x, z) = op.bits();
        bits::set(&mut self.xs, qubit, x);
        bits::set(&mut self.zs, qubit, z);
    }

    /// X-part bit of `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    #[must_use]
    pub fn x_bit(&self, qubit: usize) -> bool {
        assert!(qubit < self.len, "qubit {qubit} out of range {}", self.len);
        bits::get(&self.xs, qubit)
    }

    /// Z-part bit of `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    #[must_use]
    pub fn z_bit(&self, qubit: usize) -> bool {
        assert!(qubit < self.len, "qubit {qubit} out of range {}", self.len);
        bits::get(&self.zs, qubit)
    }

    /// Phase exponent `k` of the global phase `i^k`.
    #[must_use]
    pub fn phase_exponent(&self) -> u8 {
        self.phase
    }

    /// Returns a copy with the opposite sign.
    #[must_use]
    pub fn negated(&self) -> Self {
        let mut p = self.clone();
        p.phase = (p.phase + 2) % 4;
        p
    }

    /// Number of qubits acted on non-trivially.
    #[must_use]
    pub fn weight(&self) -> usize {
        self.xs
            .iter()
            .zip(&self.zs)
            .map(|(&x, &z)| (x | z).count_ones() as usize)
            .sum()
    }

    /// Indices of qubits acted on non-trivially.
    #[must_use]
    pub fn support(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (w, (&x, &z)) in self.xs.iter().zip(&self.zs).enumerate() {
            let mut active = x | z;
            while active != 0 {
                let bit = active.trailing_zeros() as usize;
                out.push(w * 64 + bit);
                active &= active - 1;
            }
        }
        out
    }

    /// Whether this string anticommutes with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the strings act on different numbers of qubits.
    #[must_use]
    pub fn anticommutes_with(&self, other: &Self) -> bool {
        assert_eq!(
            self.num_qubits(),
            other.num_qubits(),
            "Pauli strings must act on the same register"
        );
        bits::symplectic_parity(&self.xs, &self.zs, &other.xs, &other.zs)
    }

    /// The product `self · other`, with exact phase tracking.
    ///
    /// # Panics
    ///
    /// Panics if the strings act on different numbers of qubits.
    #[must_use]
    pub fn mul(&self, other: &Self) -> Self {
        assert_eq!(
            self.num_qubits(),
            other.num_qubits(),
            "Pauli strings must act on the same register"
        );
        // Phase exponent accumulates i-powers from single-qubit products.
        let k = i32::from(self.phase)
            + i32::from(other.phase)
            + bits::product_phase_sum(&self.xs, &self.zs, &other.xs, &other.zs);
        let xs = self
            .xs
            .iter()
            .zip(&other.xs)
            .map(|(&a, &b)| a ^ b)
            .collect();
        let zs = self
            .zs
            .iter()
            .zip(&other.zs)
            .map(|(&a, &b)| a ^ b)
            .collect();
        Self {
            xs,
            zs,
            len: self.len,
            phase: k.rem_euclid(4) as u8,
        }
    }
}

impl core::fmt::Display for PauliString {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.phase {
            0 => write!(f, "+")?,
            1 => write!(f, "+i")?,
            2 => write!(f, "-")?,
            3 => write!(f, "-i")?,
            _ => unreachable!(),
        }
        for q in 0..self.num_qubits() {
            write!(f, "{}", self.op(q))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A string like `"XIZZY"`, one letter per qubit, with an optional
    /// leading `+`/`-`.
    fn parse(text: &str) -> PauliString {
        let (negate, body) = match text.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, text.strip_prefix('+').unwrap_or(text)),
        };
        let ops = body.chars().map(|c| match c {
            'I' => PauliOp::I,
            'X' => PauliOp::X,
            'Y' => PauliOp::Y,
            'Z' => PauliOp::Z,
            other => panic!("invalid Pauli character {other:?}"),
        });
        let p = PauliString::from_ops(body.len(), ops.enumerate());
        if negate {
            p.negated()
        } else {
            p
        }
    }

    #[test]
    fn single_qubit_multiplication_table() {
        // XY = iZ, YX = -iZ, ZX = iY, XZ = -iY, YZ = iX, ZY = -iX.
        let cases = [
            (PauliOp::X, PauliOp::Y, PauliOp::Z, 1),
            (PauliOp::Y, PauliOp::X, PauliOp::Z, 3),
            (PauliOp::Z, PauliOp::X, PauliOp::Y, 1),
            (PauliOp::X, PauliOp::Z, PauliOp::Y, 3),
            (PauliOp::Y, PauliOp::Z, PauliOp::X, 1),
            (PauliOp::Z, PauliOp::Y, PauliOp::X, 3),
        ];
        for (a, b, prod, phase) in cases {
            let pa = PauliString::single(1, 0, a);
            let pb = PauliString::single(1, 0, b);
            let pc = pa.mul(&pb);
            assert_eq!(pc.op(0), prod, "{a} * {b}");
            assert_eq!(pc.phase_exponent(), phase, "{a} * {b}");
        }
    }

    #[test]
    fn squares_are_identity() {
        for op in [PauliOp::I, PauliOp::X, PauliOp::Y, PauliOp::Z] {
            let p = PauliString::single(3, 1, op);
            assert_eq!(p.mul(&p), PauliString::identity(3), "{op}^2 != I");
        }
    }

    #[test]
    fn commutation_matches_symplectic_product() {
        let a = parse("XXI");
        let b = parse("ZIZ");
        // Overlap on qubit 0 only: X vs Z anticommute.
        assert!(a.anticommutes_with(&b));
        let c = parse("ZZI");
        // Two anticommuting overlaps cancel.
        assert!(!a.anticommutes_with(&c));
    }

    #[test]
    fn parse_and_display_round_trip() {
        for text in ["+XIZZY", "-ZZZZZ", "+IIIII"] {
            let p = parse(text);
            assert_eq!(p.to_string(), text);
        }
    }

    #[test]
    fn weight_and_support() {
        let p = parse("XIYIZ");
        assert_eq!(p.weight(), 3);
        assert_eq!(p.support(), vec![0, 2, 4]);
        assert_eq!(p.num_qubits(), 5);
    }

    #[test]
    fn from_ops_rejects_duplicates() {
        let ok = PauliString::from_ops(3, [(0, PauliOp::X), (2, PauliOp::Z)]);
        assert_eq!(ok.to_string(), "+XIZ");
        let dup = std::panic::catch_unwind(|| {
            PauliString::from_ops(3, [(0, PauliOp::X), (0, PauliOp::Z)])
        });
        assert!(dup.is_err());
    }

    #[test]
    fn negation_flips_sign_only() {
        let p = parse("XZ");
        let n = p.negated();
        assert_eq!(n.phase_exponent(), 2);
        assert_eq!(n.op(0), PauliOp::X);
        assert_ne!(p, PauliString::identity(2));
        assert_eq!(p.mul(&n).negated(), PauliString::identity(2));
    }

    #[test]
    fn mul_is_associative_on_samples() {
        let samples = ["XYZ", "ZZI", "IYX", "YYY"];
        for a in samples {
            for b in samples {
                for c in samples {
                    let (pa, pb, pc) = (parse(a), parse(b), parse(c));
                    assert_eq!(pa.mul(&pb).mul(&pc), pa.mul(&pb.mul(&pc)));
                }
            }
        }
    }

    #[test]
    fn operations_cross_the_word_boundary() {
        // A 70-qubit register spans two words; exercise both sides.
        let mut a = PauliString::identity(70);
        a.set(0, PauliOp::X);
        a.set(63, PauliOp::Y);
        a.set(69, PauliOp::Z);
        assert_eq!(a.weight(), 3);
        assert_eq!(a.support(), vec![0, 63, 69]);
        let b = PauliString::single(70, 69, PauliOp::X);
        assert!(a.anticommutes_with(&b), "Z vs X on qubit 69");
        let prod = a.mul(&a);
        assert_eq!(prod, PauliString::identity(70), "P^2 = I across words");
        let e = PauliString::from_ops(70, [(63, PauliOp::X), (64, PauliOp::Z)]);
        assert_eq!(e.op(63), PauliOp::X);
        assert_eq!(e.op(64), PauliOp::Z);
    }
}

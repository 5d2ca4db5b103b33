//! The `Vec<bool>` reference implementation of the Pauli algebra.
//!
//! This is the pre-bit-packing implementation, kept as an executable
//! specification: the equivalence suite drives random inputs through both
//! this module and the packed [`cqla_stabilizer::PauliString`] and
//! requires bit-for-bit identical results, phases included. It is
//! deliberately one bit per `bool`: slow, obvious, and easy to audit
//! against Aaronson & Gottesman (2004).

use cqla_stabilizer::{PauliOp, PauliString};

/// Reference n-qubit Pauli operator: unpacked symplectic bit vectors plus
/// the phase exponent `k` of the global phase `i^k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefPauli {
    xs: Vec<bool>,
    zs: Vec<bool>,
    phase: u8,
}

impl RefPauli {
    /// The n-qubit identity.
    #[must_use]
    pub fn identity(num_qubits: usize) -> Self {
        Self {
            xs: vec![false; num_qubits],
            zs: vec![false; num_qubits],
            phase: 0,
        }
    }

    /// Unpacks a packed [`PauliString`] into the reference representation.
    #[must_use]
    pub fn from_packed(p: &PauliString) -> Self {
        let n = p.num_qubits();
        Self {
            xs: (0..n).map(|q| p.x_bit(q)).collect(),
            zs: (0..n).map(|q| p.z_bit(q)).collect(),
            phase: p.phase_exponent(),
        }
    }

    /// Number of qubits the operator acts on.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.xs.len()
    }

    /// Phase exponent `k` of the global phase `i^k`.
    #[must_use]
    pub fn phase_exponent(&self) -> u8 {
        self.phase
    }

    /// Sets the single-qubit operator on `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn set(&mut self, qubit: usize, op: PauliOp) {
        let (x, z) = op.bits();
        self.xs[qubit] = x;
        self.zs[qubit] = z;
    }

    /// The same operator with its sign flipped.
    #[must_use]
    pub fn negated(&self) -> Self {
        let mut out = self.clone();
        out.phase = (out.phase + 2) % 4;
        out
    }

    /// Number of qubits acted on non-trivially.
    #[must_use]
    pub fn weight(&self) -> usize {
        self.xs
            .iter()
            .zip(&self.zs)
            .filter(|&(&x, &z)| x || z)
            .count()
    }

    /// Whether this operator anticommutes with `other` (per-qubit
    /// symplectic product, accumulated bit by bit).
    ///
    /// # Panics
    ///
    /// Panics if the operators act on different numbers of qubits.
    #[must_use]
    pub fn anticommutes_with(&self, other: &Self) -> bool {
        assert_eq!(self.num_qubits(), other.num_qubits());
        let mut parity = false;
        for q in 0..self.num_qubits() {
            parity ^= (self.xs[q] & other.zs[q]) ^ (self.zs[q] & other.xs[q]);
        }
        parity
    }

    /// The product `self · other` with exact phase tracking, one qubit at
    /// a time.
    ///
    /// # Panics
    ///
    /// Panics if the operators act on different numbers of qubits.
    #[must_use]
    pub fn mul(&self, other: &Self) -> Self {
        assert_eq!(self.num_qubits(), other.num_qubits());
        let n = self.num_qubits();
        let mut out = Self::identity(n);
        let mut k = i16::from(self.phase) + i16::from(other.phase);
        for q in 0..n {
            k += g(self.xs[q], self.zs[q], other.xs[q], other.zs[q]);
            out.xs[q] = self.xs[q] ^ other.xs[q];
            out.zs[q] = self.zs[q] ^ other.zs[q];
        }
        out.phase = k.rem_euclid(4) as u8;
        out
    }
}

/// Phase function `g` from Aaronson–Gottesman: the i-exponent produced when
/// multiplying single-qubit Paulis `(x1,z1) · (x2,z2)`.
fn g(x1: bool, z1: bool, x2: bool, z2: bool) -> i16 {
    let (x2i, z2i) = (i16::from(x2), i16::from(z2));
    match (x1, z1) {
        (false, false) => 0,
        (true, true) => z2i - x2i,
        (true, false) => z2i * (2 * x2i - 1),
        (false, true) => x2i * (1 - 2 * z2i),
    }
}

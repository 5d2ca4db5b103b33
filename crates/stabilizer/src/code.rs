//! CSS code definitions: Steane \[\[7,1,3\]\] and Shor / Bacon-Shor \[\[9,1,3\]\].

use crate::pauli::{PauliOp, PauliString};

/// The syndrome of an error: one anticommutation bit per stabilizer
/// generator, X-type generators first, then Z-type.
///
/// X-type generators detect the Z component of an error; Z-type generators
/// detect the X component.
///
/// # Examples
///
/// ```
/// use cqla_stabilizer::{CssCode, PauliOp, PauliString};
///
/// let code = CssCode::steane();
/// let no_error = PauliString::identity(7);
/// assert!(code.syndrome(&no_error).is_zero());
/// let x3 = PauliString::single(7, 3, PauliOp::X);
/// assert!(!code.syndrome(&x3).is_zero());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Syndrome {
    bits: Vec<bool>,
}

impl Syndrome {
    /// Creates a syndrome from raw bits.
    #[must_use]
    pub(crate) fn from_bits(bits: Vec<bool>) -> Self {
        Self { bits }
    }

    /// The raw bits, X-type checks first.
    #[must_use]
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// `true` if no generator flagged the error.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.bits.iter().all(|&b| !b)
    }
}

impl core::fmt::Display for Syndrome {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for &b in &self.bits {
            write!(f, "{}", u8::from(b))?;
        }
        Ok(())
    }
}

/// A CSS stabilizer (or subsystem) code with one logical qubit.
///
/// Stabilizer generators are given by their supports: an X-type generator
/// applies `X` on every listed qubit, a Z-type generator applies `Z`. For
/// the Bacon-Shor subsystem code only the stabilizer generators are
/// listed; its weight-2 gauge operators act trivially on the logical
/// qubit.
///
/// # Examples
///
/// ```
/// use cqla_stabilizer::CssCode;
///
/// let steane = CssCode::steane();
/// assert_eq!(steane.to_string(), "Steane [[7,1,3]] (n=7, d=3)");
/// assert_eq!((steane.num_qubits(), steane.num_generators()), (7, 6));
///
/// let bacon_shor = CssCode::bacon_shor();
/// assert_eq!(bacon_shor.num_generators(), 4); // subsystem view
/// ```
#[derive(Debug, Clone)]
pub struct CssCode {
    name: &'static str,
    n: usize,
    d: usize,
    x_stabs: Vec<Vec<usize>>,
    z_stabs: Vec<Vec<usize>>,
    logical_x: Vec<usize>,
    logical_z: Vec<usize>,
}

impl CssCode {
    /// The Steane \[\[7,1,3\]\] code.
    ///
    /// Generators follow the Hamming(7,4) parity-check matrix whose columns
    /// are the binary numbers 1–7; the code is self-dual (identical X and Z
    /// supports) which is what makes every Clifford gate transversal — the
    /// property the paper's compute blocks rely on.
    #[must_use]
    pub fn steane() -> Self {
        let supports = vec![vec![3, 4, 5, 6], vec![1, 2, 5, 6], vec![0, 2, 4, 6]];
        Self {
            name: "Steane [[7,1,3]]",
            n: 7,
            d: 3,
            x_stabs: supports.clone(),
            z_stabs: supports,
            // Minimum-weight representatives (the transversal X⊗7/Z⊗7 are
            // equivalent modulo the stabilizer group).
            logical_x: vec![0, 1, 2],
            logical_z: vec![0, 1, 2],
        }
    }

    /// The Shor \[\[9,1,3\]\] code (three blocks of three, bit-flip inside
    /// blocks, phase-flip across blocks).
    ///
    /// Qubit `3r + c` sits at row `r`, column `c` of a 3×3 grid.
    #[must_use]
    pub fn shor9() -> Self {
        let mut z_stabs = Vec::new();
        for r in 0..3 {
            z_stabs.push(vec![3 * r, 3 * r + 1]);
            z_stabs.push(vec![3 * r + 1, 3 * r + 2]);
        }
        let x_stabs = vec![(0..6).collect::<Vec<_>>(), (3..9).collect::<Vec<_>>()];
        Self {
            name: "Shor [[9,1,3]]",
            n: 9,
            d: 3,
            x_stabs,
            z_stabs,
            // Minimum-weight representatives: X along the top row, Z down
            // the left column of the 3×3 grid.
            logical_x: vec![0, 1, 2],
            logical_z: vec![0, 3, 6],
        }
    }

    /// The Bacon-Shor \[\[9,1,3\]\] subsystem code on the same 3×3 grid.
    ///
    /// Only four stabilizer generators (two weight-6 X row-pairs, two
    /// weight-6 Z column-pairs); the remaining checks become weight-2
    /// *gauge* operators that can be measured with two-qubit circuits. This
    /// is exactly why the paper's \[\[9,1,3\]\] error correction is faster and
    /// smaller than the \[\[7,1,3\]\] circuit (paper §4.1): syndrome information
    /// is assembled from two-qubit gauge measurements.
    #[must_use]
    pub fn bacon_shor() -> Self {
        let q = |r: usize, c: usize| 3 * r + c;
        let mut x_stabs = Vec::new();
        let mut z_stabs = Vec::new();
        for i in 0..2 {
            // X on rows i and i+1; Z on columns i and i+1.
            x_stabs.push((0..3).flat_map(|c| [q(i, c), q(i + 1, c)]).collect());
            z_stabs.push((0..3).flat_map(|r| [q(r, i), q(r, i + 1)]).collect());
        }
        Self {
            name: "Bacon-Shor [[9,1,3]]",
            n: 9,
            d: 3,
            x_stabs,
            z_stabs,
            logical_x: vec![q(0, 0), q(0, 1), q(0, 2)],
            logical_z: vec![q(0, 0), q(1, 0), q(2, 0)],
        }
    }

    /// Number of physical qubits `n`.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of stabilizer generators.
    #[must_use]
    pub fn num_generators(&self) -> usize {
        self.x_stabs.len() + self.z_stabs.len()
    }

    /// All stabilizer generators, X-type first.
    #[must_use]
    pub fn generators(&self) -> Vec<PauliString> {
        let x = self.x_stabs.iter().map(|s| self.string(s, PauliOp::X));
        x.chain(self.z_stabs.iter().map(|s| self.string(s, PauliOp::Z)))
            .collect()
    }

    /// The bare logical X operator.
    #[must_use]
    pub fn logical_x(&self) -> PauliString {
        self.string(&self.logical_x, PauliOp::X)
    }

    /// The bare logical Z operator.
    #[must_use]
    pub fn logical_z(&self) -> PauliString {
        self.string(&self.logical_z, PauliOp::Z)
    }

    /// `op` on every qubit of `support`.
    fn string(&self, support: &[usize], op: PauliOp) -> PauliString {
        PauliString::from_ops(self.n, support.iter().map(|&q| (q, op)))
    }

    /// Computes the syndrome of `error`.
    ///
    /// # Panics
    ///
    /// Panics if `error` acts on a different number of qubits.
    #[must_use]
    pub fn syndrome(&self, error: &PauliString) -> Syndrome {
        assert_eq!(error.num_qubits(), self.n, "register size mismatch");
        let bits = self
            .generators()
            .iter()
            .map(|g| g.anticommutes_with(error))
            .collect();
        Syndrome::from_bits(bits)
    }

    /// `true` if `residue` acts trivially on the logical qubit: it has zero
    /// syndrome and commutes with both bare logical operators (i.e. it lies
    /// in the stabilizer group, or — for subsystem codes — the gauge group).
    #[must_use]
    pub fn is_logically_trivial(&self, residue: &PauliString) -> bool {
        self.syndrome(residue).is_zero()
            && !residue.anticommutes_with(&self.logical_x())
            && !residue.anticommutes_with(&self.logical_z())
    }
}

impl core::fmt::Display for CssCode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} (n={}, d={})", self.name, self.n, self.d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_codes() -> Vec<CssCode> {
        vec![CssCode::steane(), CssCode::shor9(), CssCode::bacon_shor()]
    }

    /// The Bacon-Shor gauge generators on the 3×3 grid (qubit `3r + c`):
    /// `XX` on vertically adjacent qubits, `ZZ` on horizontally adjacent
    /// ones.
    fn bacon_shor_gauge() -> Vec<PauliString> {
        let q = |r: usize, c: usize| 3 * r + c;
        let pair = |a, b, op| PauliString::from_ops(9, [(a, op), (b, op)]);
        let mut gauge = Vec::new();
        for r in 0..3 {
            for c in 0..3 {
                if r < 2 {
                    gauge.push(pair(q(r, c), q(r + 1, c), PauliOp::X));
                }
                if c < 2 {
                    gauge.push(pair(q(r, c), q(r, c + 1), PauliOp::Z));
                }
            }
        }
        gauge
    }

    /// `a ⊗ b` on the qubits of `a` followed by those of `b`.
    fn tensor(a: &PauliString, b: &PauliString) -> PauliString {
        let n = a.num_qubits();
        let ops = (0..n).map(|q| (q, a.op(q)));
        PauliString::from_ops(
            n + b.num_qubits(),
            ops.chain((0..b.num_qubits()).map(|q| (n + q, b.op(q)))),
        )
    }

    /// `a ⊗ b` conjugated by transversal CNOT from block `a` to block
    /// `b`: X spreads from control to target, Z from target to control.
    /// The phase is carried over, which is exact for the X-only and
    /// Z-only strings of a CSS code.
    fn transversal_cnot(a: &PauliString, b: &PauliString) -> PauliString {
        let n = a.num_qubits();
        let mut out = tensor(a, b);
        for q in 0..n {
            let (xc, zc) = a.op(q).bits();
            let (xt, zt) = b.op(q).bits();
            out.set(q, PauliOp::from_bits(xc, zc ^ zt));
            out.set(n + q, PauliOp::from_bits(xt ^ xc, zt));
        }
        out
    }

    #[test]
    fn generators_commute_pairwise() {
        for code in all_codes() {
            let gens = code.generators();
            for (i, a) in gens.iter().enumerate() {
                for b in &gens[i + 1..] {
                    assert!(!a.anticommutes_with(b), "{code}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn logicals_commute_with_generators_and_anticommute_with_each_other() {
        for code in all_codes() {
            let lx = code.logical_x();
            let lz = code.logical_z();
            assert!(lx.anticommutes_with(&lz), "{code}");
            for g in code.generators() {
                assert!(!g.anticommutes_with(&lx), "{code}: {g} vs logical X");
                assert!(!g.anticommutes_with(&lz), "{code}: {g} vs logical Z");
            }
        }
    }

    #[test]
    fn logical_weight_equals_distance() {
        for code in all_codes() {
            assert_eq!(
                code.logical_x().weight().min(code.logical_z().weight()),
                code.d
            );
        }
    }

    #[test]
    fn generator_counts() {
        assert_eq!(CssCode::steane().num_generators(), 6); // n - k = 6
        assert_eq!(CssCode::shor9().num_generators(), 8); // n - k = 8
        assert_eq!(CssCode::bacon_shor().num_generators(), 4); // subsystem view
    }

    #[test]
    fn bacon_shor_gauge_commutes_with_stabilizers_and_logicals() {
        let bs = CssCode::bacon_shor();
        let gauge = bacon_shor_gauge();
        for g in &gauge {
            for stab in bs.generators() {
                assert!(!stab.anticommutes_with(g), "gauge {g} vs stabilizer {stab}");
            }
            assert!(
                !g.anticommutes_with(&bs.logical_x()),
                "gauge {g} vs logical X"
            );
            assert!(
                !g.anticommutes_with(&bs.logical_z()),
                "gauge {g} vs logical Z"
            );
            assert!(bs.is_logically_trivial(g), "gauge {g} must be trivial");
        }
        // Gauge generators do NOT all commute with each other (subsystem
        // structure): find at least one anticommuting pair.
        let any_anti = gauge
            .iter()
            .enumerate()
            .any(|(i, a)| gauge[i + 1..].iter().any(|b| a.anticommutes_with(b)));
        assert!(any_anti);
    }

    #[test]
    fn shor_z_stabilizers_are_bacon_shor_gauge_elements() {
        let shor = CssCode::shor9();
        let bs = CssCode::bacon_shor();
        // Every Shor stabilizer acts trivially on the Bacon-Shor logical
        // qubit (Shor is a gauge fixing of Bacon-Shor).
        for g in shor.generators() {
            assert!(bs.is_logically_trivial(&g), "{g}");
        }
    }

    #[test]
    fn syndrome_is_linear() {
        let code = CssCode::steane();
        let a = PauliString::single(7, 2, PauliOp::X);
        let b = PauliString::single(7, 5, PauliOp::Z);
        let ab = a.mul(&b);
        let sa = code.syndrome(&a);
        let sb = code.syndrome(&b);
        let sab = code.syndrome(&ab);
        let xor: Vec<bool> = sa
            .bits()
            .iter()
            .zip(sb.bits())
            .map(|(&x, &y)| x ^ y)
            .collect();
        assert_eq!(sab.bits(), &xor[..]);
    }

    #[test]
    fn weight_one_errors_have_distinct_or_degenerate_syndromes() {
        // For every pair of weight-1 errors with the same syndrome, their
        // product must be logically trivial (degeneracy), otherwise the
        // code could not correct all weight-1 errors.
        for code in all_codes() {
            let n = code.num_qubits();
            let mut errors = Vec::new();
            for q in 0..n {
                for op in PauliOp::ERRORS {
                    errors.push(PauliString::single(n, q, op));
                }
            }
            for (i, a) in errors.iter().enumerate() {
                for b in &errors[i + 1..] {
                    if code.syndrome(a) == code.syndrome(b) {
                        assert!(
                            code.is_logically_trivial(&a.mul(b)),
                            "{code}: {a} and {b} collide non-degenerately"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn distance_three_verified_exhaustively() {
        // No error of weight < 3 with zero syndrome acts non-trivially.
        for code in all_codes() {
            let n = code.num_qubits();
            for a in 0..n {
                for opa in PauliOp::ERRORS {
                    let e1 = PauliString::single(n, a, opa);
                    if code.syndrome(&e1).is_zero() {
                        assert!(code.is_logically_trivial(&e1), "{code}: {e1}");
                    }
                    for b in (a + 1)..n {
                        for opb in PauliOp::ERRORS {
                            let e2 = e1.mul(&PauliString::single(n, b, opb));
                            if code.syndrome(&e2).is_zero() {
                                assert!(code.is_logically_trivial(&e2), "{code}: {e2}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn plus_and_zero_are_hadamard_related_for_steane() {
        // Transversal H swaps X and Z on every qubit. Steane's X and Z
        // generators share supports, so H maps the stabilizer group onto
        // itself and logical Z onto logical X: it takes logical |0> to
        // logical |+>.
        let code = CssCode::steane();
        let hadamard = |p: &PauliString| {
            let mut out = p.clone();
            for q in 0..p.num_qubits() {
                let (x, z) = p.op(q).bits();
                out.set(q, PauliOp::from_bits(z, x));
            }
            out
        };
        let generators = code.generators();
        for g in &generators {
            assert!(generators.contains(&hadamard(g)), "{g}");
        }
        assert_eq!(hadamard(&code.logical_z()), code.logical_x());
    }

    #[test]
    fn transversal_cnot_is_logical_cnot_for_steane() {
        // Bitwise CNOT between two Steane blocks maps each block's
        // generators into the pair's stabilizer group and acts on the
        // logical operators as a logical CNOT: |1>_L |0>_L -> |1>_L |1>_L.
        let code = CssCode::steane();
        let id = PauliString::identity(7);
        for g in code.generators() {
            let group = [tensor(&g, &g), tensor(&g, &id), tensor(&id, &g)];
            for image in [transversal_cnot(&g, &id), transversal_cnot(&id, &g)] {
                assert!(group.contains(&image), "{g} -> {image}");
            }
        }
        let (lx, lz) = (code.logical_x(), code.logical_z());
        assert_eq!(transversal_cnot(&lx, &id), tensor(&lx, &lx));
        assert_eq!(transversal_cnot(&id, &lx), tensor(&id, &lx));
        assert_eq!(transversal_cnot(&lz, &id), tensor(&lz, &id));
        assert_eq!(transversal_cnot(&id, &lz), tensor(&lz, &lz));
    }

    #[test]
    fn display_names() {
        assert_eq!(CssCode::steane().to_string(), "Steane [[7,1,3]] (n=7, d=3)");
        assert!(CssCode::bacon_shor().to_string().contains("Bacon-Shor"));
    }
}

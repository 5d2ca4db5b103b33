//! CSS code definitions: Steane \[\[7,1,3\]\] and Shor / Bacon-Shor \[\[9,1,3\]\].

use rand::Rng;

use crate::pauli::{PauliOp, PauliString};
use crate::tableau::Tableau;

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
    pub fn from_bits(bits: Vec<bool>) -> Self {
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

    /// Number of generators that flagged.
    #[must_use]
    pub fn weight(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
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
/// subsystem codes (Bacon-Shor) the gauge generators are carried alongside;
/// for ordinary stabilizer codes the gauge lists are empty.
///
/// # Examples
///
/// ```
/// use cqla_stabilizer::CssCode;
///
/// let steane = CssCode::steane();
/// assert_eq!((steane.num_qubits(), steane.distance()), (7, 3));
/// assert_eq!(steane.num_generators(), 6);
///
/// let bacon_shor = CssCode::bacon_shor();
/// assert_eq!(bacon_shor.num_generators(), 4); // subsystem view
/// assert_eq!(bacon_shor.gauge_x_supports().len(), 6);
/// ```
#[derive(Debug, Clone)]
pub struct CssCode {
    name: &'static str,
    n: usize,
    d: usize,
    x_stabs: Vec<Vec<usize>>,
    z_stabs: Vec<Vec<usize>>,
    gauge_x: Vec<Vec<usize>>,
    gauge_z: Vec<Vec<usize>>,
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
            gauge_x: Vec::new(),
            gauge_z: Vec::new(),
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
            gauge_x: Vec::new(),
            gauge_z: Vec::new(),
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
        let mut gauge_x = Vec::new();
        let mut gauge_z = Vec::new();
        for r in 0..3 {
            for c in 0..3 {
                if r < 2 {
                    gauge_x.push(vec![q(r, c), q(r + 1, c)]);
                }
                if c < 2 {
                    gauge_z.push(vec![q(r, c), q(r, c + 1)]);
                }
            }
        }
        Self {
            name: "Bacon-Shor [[9,1,3]]",
            n: 9,
            d: 3,
            x_stabs,
            z_stabs,
            gauge_x,
            gauge_z,
            logical_x: vec![q(0, 0), q(0, 1), q(0, 2)],
            logical_z: vec![q(0, 0), q(1, 0), q(2, 0)],
        }
    }

    /// Human-readable code name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of physical qubits `n`.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Code distance `d`.
    #[must_use]
    pub fn distance(&self) -> usize {
        self.d
    }

    /// Number of stabilizer generators.
    #[must_use]
    pub fn num_generators(&self) -> usize {
        self.x_stabs.len() + self.z_stabs.len()
    }

    /// Supports of X-type gauge generators (empty for stabilizer codes).
    #[must_use]
    pub fn gauge_x_supports(&self) -> &[Vec<usize>] {
        &self.gauge_x
    }

    /// Supports of Z-type gauge generators (empty for stabilizer codes).
    #[must_use]
    pub fn gauge_z_supports(&self) -> &[Vec<usize>] {
        &self.gauge_z
    }

    /// The `i`-th X-type stabilizer as a Pauli string.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn x_stabilizer(&self, i: usize) -> PauliString {
        PauliString::from_ops(self.n, self.x_stabs[i].iter().map(|&q| (q, PauliOp::X)))
    }

    /// The `i`-th Z-type stabilizer as a Pauli string.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn z_stabilizer(&self, i: usize) -> PauliString {
        PauliString::from_ops(self.n, self.z_stabs[i].iter().map(|&q| (q, PauliOp::Z)))
    }

    /// All stabilizer generators, X-type first.
    #[must_use]
    pub fn generators(&self) -> Vec<PauliString> {
        (0..self.x_stabs.len())
            .map(|i| self.x_stabilizer(i))
            .chain((0..self.z_stabs.len()).map(|i| self.z_stabilizer(i)))
            .collect()
    }

    /// The bare logical X operator.
    #[must_use]
    pub fn logical_x(&self) -> PauliString {
        PauliString::from_ops(self.n, self.logical_x.iter().map(|&q| (q, PauliOp::X)))
    }

    /// The bare logical Z operator.
    #[must_use]
    pub fn logical_z(&self) -> PauliString {
        PauliString::from_ops(self.n, self.logical_z.iter().map(|&q| (q, PauliOp::Z)))
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

    /// Prepares the logical `|0⟩` state on qubits
    /// `offset..offset + n` of `tableau`.
    ///
    /// Uses the textbook projective encoding: starting from `|0…0⟩` (a +1
    /// eigenstate of every Z-type generator and of logical Z), measure each
    /// X-type generator and, on a `-1` outcome, apply a Z-type fix whose
    /// X-syndrome is exactly that generator — flipping it back without
    /// disturbing anything else.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit in the tableau.
    pub fn encode_zero<R: Rng + ?Sized>(&self, tableau: &mut Tableau, offset: usize, rng: &mut R) {
        assert!(
            offset + self.n <= tableau.num_qubits(),
            "encoded block exceeds register"
        );
        let big = tableau.num_qubits();
        for i in 0..self.x_stabs.len() {
            let gen = self.x_stabilizer(i).embedded(big, offset);
            let outcome = tableau.measure_pauli(&gen, rng);
            if outcome.value {
                let fix = self
                    .z_fix_for_x_generator(i)
                    .expect("distance-3 CSS codes have single-generator fixes")
                    .embedded(big, offset);
                tableau.apply_pauli(&fix);
            }
        }
    }

    /// Prepares the logical `|+⟩` state on qubits
    /// `offset..offset + n` of `tableau` — the dual of
    /// [`CssCode::encode_zero`]: start from `|+…+⟩` (stabilized by every
    /// X-type generator and logical X), measure the Z-type generators, and
    /// fix `-1` outcomes with X-type strings.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit in the tableau.
    pub fn encode_plus<R: Rng + ?Sized>(&self, tableau: &mut Tableau, offset: usize, rng: &mut R) {
        assert!(
            offset + self.n <= tableau.num_qubits(),
            "encoded block exceeds register"
        );
        let big = tableau.num_qubits();
        for q in 0..self.n {
            tableau.h(offset + q);
        }
        for i in 0..self.z_stabs.len() {
            let gen = self.z_stabilizer(i).embedded(big, offset);
            let outcome = tableau.measure_pauli(&gen, rng);
            if outcome.value {
                let fix = self
                    .x_fix_for_z_generator(i)
                    .expect("distance-3 CSS codes have single-generator fixes")
                    .embedded(big, offset);
                tableau.apply_pauli(&fix);
            }
        }
    }

    /// Finds a minimum-weight X-type string whose Z-syndrome is the unit
    /// vector `e_i`. Used by [`CssCode::encode_plus`].
    #[must_use]
    pub fn x_fix_for_z_generator(&self, i: usize) -> Option<PauliString> {
        let target: Vec<bool> = (0..self.z_stabs.len()).map(|j| j == i).collect();
        let z_syndrome_of = |p: &PauliString| -> Vec<bool> {
            (0..self.z_stabs.len())
                .map(|j| self.z_stabilizer(j).anticommutes_with(p))
                .collect()
        };
        for q in 0..self.n {
            let p = PauliString::single(self.n, q, PauliOp::X);
            if z_syndrome_of(&p) == target {
                return Some(p);
            }
        }
        for a in 0..self.n {
            for b in (a + 1)..self.n {
                let p = PauliString::from_ops(self.n, [(a, PauliOp::X), (b, PauliOp::X)]);
                if z_syndrome_of(&p) == target {
                    return Some(p);
                }
            }
        }
        None
    }

    /// Finds a minimum-weight Z-type string whose X-syndrome is the unit
    /// vector `e_i` (anticommutes with X-generator `i` only). Used by
    /// [`CssCode::encode_zero`].
    #[must_use]
    pub fn z_fix_for_x_generator(&self, i: usize) -> Option<PauliString> {
        let target: Vec<bool> = (0..self.x_stabs.len()).map(|j| j == i).collect();
        // Weight-1 candidates, then weight-2.
        for q in 0..self.n {
            let p = PauliString::single(self.n, q, PauliOp::Z);
            if self.x_syndrome_of(&p) == target {
                return Some(p);
            }
        }
        for a in 0..self.n {
            for b in (a + 1)..self.n {
                let p = PauliString::from_ops(self.n, [(a, PauliOp::Z), (b, PauliOp::Z)]);
                if self.x_syndrome_of(&p) == target {
                    return Some(p);
                }
            }
        }
        None
    }

    fn x_syndrome_of(&self, p: &PauliString) -> Vec<bool> {
        (0..self.x_stabs.len())
            .map(|j| self.x_stabilizer(j).anticommutes_with(p))
            .collect()
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn all_codes() -> Vec<CssCode> {
        vec![CssCode::steane(), CssCode::shor9(), CssCode::bacon_shor()]
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
                code.distance()
            );
        }
    }

    #[test]
    fn generator_counts() {
        assert_eq!(CssCode::steane().num_generators(), 6); // n - k = 6
        assert_eq!(CssCode::shor9().num_generators(), 8); // n - k = 8
                                                          // Subsystem view trades generators for gauge freedom.
        let bs = CssCode::bacon_shor();
        assert_eq!(bs.num_generators(), 4);
        assert_eq!(
            bs.gauge_x_supports().len() + bs.gauge_z_supports().len(),
            12
        );
    }

    #[test]
    fn bacon_shor_gauge_commutes_with_stabilizers_and_logicals() {
        let bs = CssCode::bacon_shor();
        let mut gauge = Vec::new();
        for s in bs.gauge_x_supports() {
            gauge.push(PauliString::from_ops(9, s.iter().map(|&q| (q, PauliOp::X))));
        }
        for s in bs.gauge_z_supports() {
            gauge.push(PauliString::from_ops(9, s.iter().map(|&q| (q, PauliOp::Z))));
        }
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
    fn encode_zero_produces_logical_zero() {
        for code in [CssCode::steane(), CssCode::shor9()] {
            let mut rng = StdRng::seed_from_u64(7);
            for _ in 0..8 {
                let mut t = Tableau::new(code.num_qubits());
                code.encode_zero(&mut t, 0, &mut rng);
                for g in code.generators() {
                    assert!(t.is_stabilized_by(&g), "{code}: generator {g} not +1");
                }
                assert!(
                    t.is_stabilized_by(&code.logical_z()),
                    "{code}: logical Z not +1"
                );
            }
        }
    }

    #[test]
    fn encode_plus_produces_logical_plus() {
        for code in [CssCode::steane(), CssCode::shor9()] {
            let mut rng = StdRng::seed_from_u64(21);
            for _ in 0..8 {
                let mut t = Tableau::new(code.num_qubits());
                code.encode_plus(&mut t, 0, &mut rng);
                for g in code.generators() {
                    assert!(t.is_stabilized_by(&g), "{code}: generator {g} not +1");
                }
                assert!(
                    t.is_stabilized_by(&code.logical_x()),
                    "{code}: logical X not +1"
                );
                // Logical Z is maximally uncertain.
                assert_eq!(t.deterministic_sign(&code.logical_z()), None, "{code}");
            }
        }
    }

    #[test]
    fn plus_and_zero_are_hadamard_related_for_steane() {
        // Steane is self-dual: transversal H maps logical |0> to |+>.
        let code = CssCode::steane();
        let mut rng = StdRng::seed_from_u64(23);
        let mut t = Tableau::new(7);
        code.encode_zero(&mut t, 0, &mut rng);
        for q in 0..7 {
            t.h(q);
        }
        for g in code.generators() {
            assert!(t.is_stabilized_by(&g), "{g}");
        }
        assert!(t.is_stabilized_by(&code.logical_x()));
    }

    #[test]
    fn encode_zero_at_offset() {
        let code = CssCode::steane();
        let mut rng = StdRng::seed_from_u64(3);
        let mut t = Tableau::new(10);
        code.encode_zero(&mut t, 2, &mut rng);
        let lz = code.logical_z().embedded(10, 2);
        assert!(t.is_stabilized_by(&lz));
    }

    #[test]
    fn transversal_logical_x_flips_encoded_zero() {
        for code in [CssCode::steane(), CssCode::shor9()] {
            let mut rng = StdRng::seed_from_u64(11);
            let mut t = Tableau::new(code.num_qubits());
            code.encode_zero(&mut t, 0, &mut rng);
            t.apply_pauli(&code.logical_x());
            assert_eq!(t.deterministic_sign(&code.logical_z()), Some(true));
        }
    }

    #[test]
    fn transversal_cnot_is_logical_cnot_for_steane() {
        // Steane is CSS self-dual: bitwise CNOT between two encoded blocks
        // implements logical CNOT. Verify |1>_L |0>_L -> |1>_L |1>_L.
        let code = CssCode::steane();
        let mut rng = StdRng::seed_from_u64(13);
        let mut t = Tableau::new(14);
        code.encode_zero(&mut t, 0, &mut rng);
        code.encode_zero(&mut t, 7, &mut rng);
        t.apply_pauli(&code.logical_x().embedded(14, 0)); // block 0 -> |1>_L
        for q in 0..7 {
            t.cnot(q, q + 7);
        }
        let z0 = code.logical_z().embedded(14, 0);
        let z1 = code.logical_z().embedded(14, 7);
        assert_eq!(t.deterministic_sign(&z0), Some(true), "control stays |1>");
        assert_eq!(
            t.deterministic_sign(&z1),
            Some(true),
            "target flipped to |1>"
        );
    }

    #[test]
    fn logical_teleportation_between_encoded_blocks() {
        // The code-transfer network's core operation (paper Fig 5):
        // teleport a logical qubit from one encoded block to another
        // through an encoded Bell pair, entirely with transversal gates
        // and logical measurements. Steane is self-dual, so transversal H
        // implements logical H exactly.
        let code = CssCode::steane();
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let mut t = Tableau::new(21);
            // Block 0 carries logical |1>; blocks 1-2 become a logical
            // Bell pair.
            code.encode_zero(&mut t, 0, &mut rng);
            code.encode_zero(&mut t, 7, &mut rng);
            code.encode_zero(&mut t, 14, &mut rng);
            t.apply_pauli(&code.logical_x().embedded(21, 0));
            for q in 7..14 {
                t.h(q); // logical H on block 1
            }
            for q in 0..7 {
                t.cnot(q + 7, q + 14); // logical CNOT block1 -> block2
            }
            // Logical Bell measurement of blocks 0 and 1.
            for q in 0..7 {
                t.cnot(q, q + 7);
            }
            for q in 0..7 {
                t.h(q);
            }
            let m0 = t
                .measure_pauli(&code.logical_z().embedded(21, 0), &mut rng)
                .value;
            let m1 = t
                .measure_pauli(&code.logical_z().embedded(21, 7), &mut rng)
                .value;
            if m1 {
                t.apply_pauli(&code.logical_x().embedded(21, 14));
            }
            if m0 {
                t.apply_pauli(&code.logical_z().embedded(21, 14));
            }
            // Block 2 now holds logical |1> and is a valid codeword.
            assert_eq!(
                t.deterministic_sign(&code.logical_z().embedded(21, 14)),
                Some(true),
                "seed {seed}: teleported state is not logical |1>"
            );
            for g in code.generators() {
                assert!(
                    t.is_stabilized_by(&g.embedded(21, 14)),
                    "seed {seed}: block 2 left the codespace"
                );
            }
        }
    }

    #[test]
    fn syndrome_extraction_on_tableau_matches_algebraic_syndrome() {
        let code = CssCode::steane();
        let mut rng = StdRng::seed_from_u64(5);
        for q in 0..7 {
            for op in PauliOp::ERRORS {
                let mut t = Tableau::new(7);
                code.encode_zero(&mut t, 0, &mut rng);
                let err = PauliString::single(7, q, op);
                t.apply_pauli(&err);
                let expected = code.syndrome(&err);
                let measured: Vec<bool> = code
                    .generators()
                    .iter()
                    .map(|g| t.measure_pauli(g, &mut rng).value)
                    .collect();
                assert_eq!(measured, expected.bits(), "error {err}");
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(CssCode::steane().to_string(), "Steane [[7,1,3]] (n=7, d=3)");
        assert!(CssCode::bacon_shor().to_string().contains("Bacon-Shor"));
    }
}

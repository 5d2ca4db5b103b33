//! Circuit container and builder.

use crate::gate::{Gate, QubitId};

/// A logical quantum circuit: an ordered gate list over a fixed register.
///
/// # Examples
///
/// Build a half adder on 3 qubits:
///
/// ```
/// use cqla_circuit::Circuit;
///
/// let mut c = Circuit::new(3);
/// c.toffoli(0, 1, 2); // carry = a AND b
/// c.cnot(0, 1); // sum = a XOR b
/// assert_eq!(c.len(), 2);
/// assert_eq!(c.counts().toffoli, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Circuit {
    num_qubits: u32,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit on `num_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is zero.
    #[must_use]
    pub fn new(num_qubits: u32) -> Self {
        assert!(num_qubits > 0, "a circuit needs at least one qubit");
        Self {
            num_qubits,
            gates: Vec::new(),
        }
    }

    /// A circuit over gates the caller has already validated as
    /// [`Circuit::push`] would: every operand inside the register, none
    /// repeated within a gate.
    pub(crate) fn from_validated(num_qubits: u32, gates: Vec<Gate>) -> Self {
        debug_assert!(num_qubits > 0, "a circuit needs at least one qubit");
        Self { num_qubits, gates }
    }

    /// Number of qubits in the register.
    #[must_use]
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Number of gates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// `true` if the circuit has no gates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gates in program order.
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Appends a gate after validating its operands.
    ///
    /// # Panics
    ///
    /// Panics if any operand is out of range or operands repeat.
    pub fn push(&mut self, gate: Gate) {
        let (qs, len) = gate.qubit_array();
        let qs = &qs[..len];
        for q in qs {
            assert!(
                q.index() < self.num_qubits,
                "gate {gate} references {q} outside register of {}",
                self.num_qubits
            );
        }
        for (i, a) in qs.iter().enumerate() {
            for b in &qs[i + 1..] {
                assert_ne!(a, b, "gate {gate} repeats operand {a}");
            }
        }
        self.gates.push(gate);
    }

    /// Appends all gates of `other` with its qubits mapped to
    /// `offset..offset + other.num_qubits()` of this register.
    ///
    /// # Panics
    ///
    /// Panics if the embedded circuit does not fit.
    pub fn append_embedded(&mut self, other: &Circuit, offset: u32) {
        assert!(
            offset + other.num_qubits() <= self.num_qubits,
            "embedded circuit exceeds register ({} + {} > {})",
            offset,
            other.num_qubits(),
            self.num_qubits
        );
        for g in &other.gates {
            self.gates.push(g.shifted(offset));
        }
    }

    /// Appends `X` on `q`.
    pub fn x(&mut self, q: u32) {
        self.push(Gate::X(QubitId::new(q)));
    }

    /// Appends `Y` on `q`.
    pub fn y(&mut self, q: u32) {
        self.push(Gate::Y(QubitId::new(q)));
    }

    /// Appends `Z` on `q`.
    pub fn z(&mut self, q: u32) {
        self.push(Gate::Z(QubitId::new(q)));
    }

    /// Appends `S` on `q`.
    pub fn s(&mut self, q: u32) {
        self.push(Gate::S(QubitId::new(q)));
    }

    /// Appends `T` on `q`.
    pub fn t(&mut self, q: u32) {
        self.push(Gate::T(QubitId::new(q)));
    }

    /// Appends `H` on `q`.
    pub fn h(&mut self, q: u32) {
        self.push(Gate::H(QubitId::new(q)));
    }

    /// Appends a CNOT.
    pub fn cnot(&mut self, control: u32, target: u32) {
        self.push(Gate::cnot(control, target));
    }

    /// Appends a CZ.
    pub fn cz(&mut self, a: u32, b: u32) {
        self.push(Gate::Cz {
            a: QubitId::new(a),
            b: QubitId::new(b),
        });
    }

    /// Appends a Toffoli.
    pub fn toffoli(&mut self, c1: u32, c2: u32, target: u32) {
        self.push(Gate::toffoli(c1, c2, target));
    }

    /// Appends a controlled phase rotation of order `k`.
    pub fn controlled_phase(&mut self, control: u32, target: u32, order: u8) {
        self.push(Gate::ControlledPhase {
            control: QubitId::new(control),
            target: QubitId::new(target),
            order,
        });
    }

    /// Appends a measurement.
    pub fn measure(&mut self, q: u32) {
        self.push(Gate::Measure(QubitId::new(q)));
    }

    /// Per-kind gate census.
    #[must_use]
    pub fn counts(&self) -> GateCounts {
        let mut counts = GateCounts::default();
        for g in &self.gates {
            match g {
                Gate::Toffoli { .. } => counts.toffoli += 1,
                Gate::Cnot { .. } => counts.cnot += 1,
                Gate::Cz { .. } | Gate::ControlledPhase { .. } => counts.two_qubit_other += 1,
                Gate::Measure(_) => counts.measure += 1,
                _ => counts.single_qubit += 1,
            }
        }
        counts
    }
}

impl core::fmt::Display for Circuit {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "# circuit: {} qubits, {} gates",
            self.num_qubits,
            self.len()
        )?;
        for g in &self.gates {
            core::fmt::Display::fmt(g, f)?;
            f.write_str("\n")?;
        }
        Ok(())
    }
}

/// Gate census of a circuit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateCounts {
    /// Single-qubit unitaries.
    pub single_qubit: u64,
    /// CNOT gates.
    pub cnot: u64,
    /// Other two-qubit gates (CZ, controlled-phase).
    pub two_qubit_other: u64,
    /// Toffoli gates.
    pub toffoli: u64,
    /// Measurements.
    pub measure: u64,
}

impl GateCounts {
    /// Total gate count.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.single_qubit + self.cnot + self.two_qubit_other + self.toffoli + self.measure
    }
}

impl core::fmt::Display for GateCounts {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} gates ({} 1q, {} cnot, {} other 2q, {} toffoli, {} measure)",
            self.total(),
            self.single_qubit,
            self.cnot,
            self.two_qubit_other,
            self.toffoli,
            self.measure
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_counts() {
        let mut c = Circuit::new(4);
        c.h(0);
        c.cnot(0, 1);
        c.toffoli(0, 1, 2);
        c.controlled_phase(2, 3, 2);
        c.measure(3);
        let counts = c.counts();
        assert_eq!(counts.single_qubit, 1);
        assert_eq!(counts.cnot, 1);
        assert_eq!(counts.toffoli, 1);
        assert_eq!(counts.two_qubit_other, 1);
        assert_eq!(counts.measure, 1);
        assert_eq!(counts.total(), 5);
        let work: u64 = c.gates().iter().map(Gate::two_qubit_gate_equivalents).sum();
        assert_eq!(work, 1 + 1 + 15 + 1 + 1);
    }

    #[test]
    fn every_gate_kind_has_a_builder() {
        let mut c = Circuit::new(2);
        c.x(0);
        c.y(0);
        c.z(0);
        c.s(0);
        c.t(0);
        c.h(0);
        c.cnot(0, 1);
        c.cz(0, 1);
        let counts = c.counts();
        assert_eq!(counts.single_qubit, 6);
        assert_eq!(counts.cnot, 1);
        assert_eq!(counts.two_qubit_other, 1);
        assert_eq!(c.gates()[1], Gate::Y(QubitId::new(0)));
        assert_eq!(
            c.gates()[7],
            Gate::Cz {
                a: QubitId::new(0),
                b: QubitId::new(1)
            }
        );
    }

    #[test]
    #[should_panic(expected = "outside register")]
    fn rejects_out_of_range_operand() {
        let mut c = Circuit::new(2);
        c.cnot(0, 2);
    }

    #[test]
    #[should_panic(expected = "repeats operand")]
    fn rejects_duplicate_operand() {
        let mut c = Circuit::new(3);
        c.toffoli(1, 1, 2);
    }

    #[test]
    fn append_embedded_shifts_operands() {
        let mut inner = Circuit::new(2);
        inner.cnot(0, 1);
        let mut outer = Circuit::new(5);
        outer.append_embedded(&inner, 3);
        assert_eq!(outer.gates()[0], Gate::cnot(3, 4));
        // Offset zero embeds verbatim.
        outer.append_embedded(&inner, 0);
        assert_eq!(outer.gates()[1], Gate::cnot(0, 1));
    }

    #[test]
    #[should_panic(expected = "exceeds register")]
    fn append_embedded_rejects_overflow() {
        let mut inner = Circuit::new(3);
        inner.x(2);
        let mut outer = Circuit::new(4);
        outer.append_embedded(&inner, 2);
    }

    #[test]
    fn display_contains_header_and_gates() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        let text = c.to_string();
        assert!(text.contains("# circuit: 2 qubits, 1 gates"));
        assert!(text.contains("cnot q0, q1"));
    }

    #[test]
    fn empty_circuit() {
        let c = Circuit::new(1);
        assert!(c.is_empty());
        assert_eq!(c.counts().total(), 0);
    }
}

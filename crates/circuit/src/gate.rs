//! Logical gates and qubit identifiers.

/// Identifier of a logical qubit within a circuit.
///
/// # Examples
///
/// ```
/// use cqla_circuit::QubitId;
///
/// let q = QubitId::new(3);
/// assert_eq!(q.index(), 3);
/// assert_eq!(q.to_string(), "q3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QubitId(u32);

impl QubitId {
    /// Creates a qubit id.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        Self(index)
    }

    /// The raw index.
    #[must_use]
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl From<u32> for QubitId {
    fn from(index: u32) -> Self {
        Self(index)
    }
}

impl core::fmt::Display for QubitId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Hand-rolled decimal: emitting a program formats one index per
        // operand, and this skips the formatting machinery.
        let mut text = [0u8; 11];
        let mut start = text.len();
        let mut n = self.0;
        loop {
            start -= 1;
            text[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        text[start - 1] = b'q';
        f.write_str(core::str::from_utf8(&text[start - 1..]).expect("ASCII digits"))
    }
}

/// A logical gate instruction.
///
/// The set matches what the paper's workloads need: Clifford gates, the `T`
/// gate (for universality), the Toffoli (the workhorse of the Draper
/// adder), controlled-phase rotations (for the QFT), and measurement.
///
/// # Examples
///
/// ```
/// use cqla_circuit::{Gate, QubitId};
///
/// let g = Gate::toffoli(0, 1, 2);
/// assert_eq!(g.qubits().len(), 3);
/// assert_eq!(g.two_qubit_gate_equivalents(), 15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gate {
    /// Pauli X.
    X(QubitId),
    /// Pauli Y.
    Y(QubitId),
    /// Pauli Z.
    Z(QubitId),
    /// Hadamard.
    H(QubitId),
    /// Phase gate.
    S(QubitId),
    /// The non-Clifford T gate.
    T(QubitId),
    /// Controlled-NOT.
    Cnot {
        /// Control qubit.
        control: QubitId,
        /// Target qubit.
        target: QubitId,
    },
    /// Controlled-Z.
    Cz {
        /// First qubit (CZ is symmetric).
        a: QubitId,
        /// Second qubit.
        b: QubitId,
    },
    /// Controlled phase rotation by `2π / 2^k` (the QFT's building block).
    ControlledPhase {
        /// Control qubit.
        control: QubitId,
        /// Target qubit.
        target: QubitId,
        /// Rotation order `k` (angle `2π / 2^k`).
        order: u8,
    },
    /// Toffoli (controlled-controlled-NOT).
    Toffoli {
        /// First control.
        c1: QubitId,
        /// Second control.
        c2: QubitId,
        /// Target qubit.
        target: QubitId,
    },
    /// Computational-basis measurement.
    Measure(QubitId),
}

impl Gate {
    /// Convenience constructor for a CNOT from raw indices.
    #[must_use]
    pub fn cnot(control: u32, target: u32) -> Self {
        Self::Cnot {
            control: QubitId::new(control),
            target: QubitId::new(target),
        }
    }

    /// Convenience constructor for a Toffoli from raw indices.
    #[must_use]
    pub fn toffoli(c1: u32, c2: u32, target: u32) -> Self {
        Self::Toffoli {
            c1: QubitId::new(c1),
            c2: QubitId::new(c2),
            target: QubitId::new(target),
        }
    }

    /// The qubits this gate touches, in operand order, without
    /// allocating: the first `len` entries of the array are the operands
    /// (`len` is the operand count), the rest repeat the first one.
    #[must_use]
    pub fn qubit_array(&self) -> ([QubitId; 3], usize) {
        match *self {
            Self::X(q)
            | Self::Y(q)
            | Self::Z(q)
            | Self::H(q)
            | Self::S(q)
            | Self::T(q)
            | Self::Measure(q) => ([q; 3], 1),
            Self::Cnot { control, target }
            | Self::ControlledPhase {
                control, target, ..
            } => ([control, target, control], 2),
            Self::Cz { a, b } => ([a, b, a], 2),
            Self::Toffoli { c1, c2, target } => ([c1, c2, target], 3),
        }
    }

    /// The qubits this gate touches, in operand order.
    #[must_use]
    pub fn qubits(&self) -> Vec<QubitId> {
        let (qubits, len) = self.qubit_array();
        qubits[..len].to_vec()
    }

    /// Fault-tolerant execution cost in two-qubit-gate equivalents.
    ///
    /// The paper's rule (§5.1): a fault-tolerant Toffoli costs fifteen
    /// two-qubit gates, each followed by error correction. Everything else
    /// is one logical gate step.
    #[must_use]
    pub fn two_qubit_gate_equivalents(&self) -> u64 {
        match self {
            Self::Toffoli { .. } => 15,
            _ => 1,
        }
    }

    /// The same gate with every operand index shifted up by `offset` —
    /// used to embed a circuit into a larger register.
    #[must_use]
    pub fn shifted(&self, offset: u32) -> Self {
        let s = |q: QubitId| QubitId::new(q.index() + offset);
        match *self {
            Self::X(q) => Self::X(s(q)),
            Self::Y(q) => Self::Y(s(q)),
            Self::Z(q) => Self::Z(s(q)),
            Self::H(q) => Self::H(s(q)),
            Self::S(q) => Self::S(s(q)),
            Self::T(q) => Self::T(s(q)),
            Self::Measure(q) => Self::Measure(s(q)),
            Self::Cnot { control, target } => Self::Cnot {
                control: s(control),
                target: s(target),
            },
            Self::Cz { a, b } => Self::Cz { a: s(a), b: s(b) },
            Self::ControlledPhase {
                control,
                target,
                order,
            } => Self::ControlledPhase {
                control: s(control),
                target: s(target),
                order,
            },
            Self::Toffoli { c1, c2, target } => Self::Toffoli {
                c1: s(c1),
                c2: s(c2),
                target: s(target),
            },
        }
    }

    /// Lowercase mnemonic used by the assembly format.
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Self::X(_) => "x",
            Self::Y(_) => "y",
            Self::Z(_) => "z",
            Self::H(_) => "h",
            Self::S(_) => "s",
            Self::T(_) => "t",
            Self::Cnot { .. } => "cnot",
            Self::Cz { .. } => "cz",
            Self::ControlledPhase { .. } => "cphase",
            Self::Toffoli { .. } => "toffoli",
            Self::Measure(_) => "measure",
        }
    }
}

impl core::fmt::Display for Gate {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.mnemonic())?;
        if let Self::ControlledPhase { order, .. } = self {
            write!(f, "[{order}]")?;
        }
        let (qubits, len) = self.qubit_array();
        for (i, q) in qubits[..len].iter().enumerate() {
            f.write_str(if i == 0 { " " } else { ", " })?;
            core::fmt::Display::fmt(q, f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubit_id_round_trip() {
        let q = QubitId::from(7u32);
        assert_eq!(q.index(), 7);
        assert_eq!(q, QubitId::new(7));
    }

    #[test]
    fn operand_lists() {
        assert_eq!(Gate::X(QubitId::new(0)).qubits().len(), 1);
        assert_eq!(
            Gate::cnot(1, 2).qubits(),
            vec![QubitId::new(1), QubitId::new(2)]
        );
        assert_eq!(Gate::toffoli(0, 1, 2).qubits().len(), 3);
        assert_eq!(
            Gate::toffoli(4, 5, 6).qubit_array(),
            ([QubitId::new(4), QubitId::new(5), QubitId::new(6)], 3)
        );
    }

    #[test]
    fn classicality() {
        // The classical simulator runs exactly the basis permutations.
        let mut state = crate::ClassicalState::zeros(3);
        for g in [
            Gate::X(QubitId::new(0)),
            Gate::cnot(0, 1),
            Gate::toffoli(0, 1, 2),
        ] {
            assert!(state.apply(g).is_ok(), "{g}");
        }
        for g in [Gate::H(QubitId::new(0)), Gate::Measure(QubitId::new(0))] {
            assert!(state.apply(g).is_err(), "{g}");
        }
    }

    #[test]
    fn toffoli_cost_is_fifteen() {
        assert_eq!(Gate::toffoli(0, 1, 2).two_qubit_gate_equivalents(), 15);
        assert_eq!(Gate::cnot(0, 1).two_qubit_gate_equivalents(), 1);
    }

    #[test]
    fn display_format() {
        assert_eq!(Gate::cnot(3, 4).to_string(), "cnot q3, q4");
        assert_eq!(Gate::toffoli(0, 1, 2).to_string(), "toffoli q0, q1, q2");
        let cp = Gate::ControlledPhase {
            control: QubitId::new(0),
            target: QubitId::new(1),
            order: 3,
        };
        assert_eq!(cp.to_string(), "cphase[3] q0, q1");
        assert_eq!(Gate::X(QubitId::new(u32::MAX)).to_string(), "x q4294967295");
        assert_eq!(QubitId::new(0).to_string(), "q0");
        assert_eq!(QubitId::new(1_000_000).to_string(), "q1000000");
    }
}

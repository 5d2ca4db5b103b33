//! Classical reversible simulation.
//!
//! Adder circuits built from X / CNOT / Toffoli permute computational basis
//! states, so their arithmetic can be verified exactly by propagating a
//! classical bit vector. This is how the workload generators prove that the
//! Draper carry-lookahead adder actually adds.

use crate::circuit::Circuit;
use crate::gate::Gate;

/// Error returned when a circuit contains a gate that does not act as a
/// permutation of computational basis states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonClassicalGate {
    gate: Gate,
    position: usize,
}

impl core::fmt::Display for NonClassicalGate {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "gate {} at position {} is not classical-reversible",
            self.gate, self.position
        )
    }
}

impl std::error::Error for NonClassicalGate {}

/// A classical bit-vector register evolving under reversible gates.
///
/// # Examples
///
/// ```
/// use cqla_circuit::{Circuit, ClassicalState};
///
/// let mut c = Circuit::new(3);
/// c.toffoli(0, 1, 2);
/// let mut state = ClassicalState::zeros(3);
/// state.load_uint(0, 2, 0b11); // q0 = q1 = 1
/// state.run(&c)?;
/// assert!(state.bit(2)); // AND computed into q2
/// # Ok::<(), cqla_circuit::NonClassicalGate>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassicalState {
    bits: Vec<bool>,
}

impl ClassicalState {
    /// All-zero register of `n` bits.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn zeros(n: usize) -> Self {
        assert!(n > 0, "register needs at least one bit");
        Self {
            bits: vec![false; n],
        }
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        self.bits[i]
    }

    /// Loads an unsigned integer little-endian into bits
    /// `offset..offset + width`.
    ///
    /// # Panics
    ///
    /// Panics if the field does not fit or the value needs more bits.
    pub fn load_uint(&mut self, offset: usize, width: usize, value: u128) {
        assert!(offset + width <= self.bits.len(), "field exceeds register");
        assert!(
            width == 128 || value < (1u128 << width),
            "value {value} does not fit in {width} bits"
        );
        for i in 0..width {
            self.bits[offset + i] = (value >> i) & 1 == 1;
        }
    }

    /// Reads bits `offset..offset + width` as a little-endian unsigned
    /// integer.
    ///
    /// # Panics
    ///
    /// Panics if the field does not fit or exceeds 128 bits.
    #[must_use]
    pub fn read_uint(&self, offset: usize, width: usize) -> u128 {
        assert!(offset + width <= self.bits.len(), "field exceeds register");
        assert!(width <= 128, "read wider than u128");
        let mut v = 0u128;
        for i in (0..width).rev() {
            v = (v << 1) | u128::from(self.bits[offset + i]);
        }
        v
    }

    /// Applies one gate.
    ///
    /// # Errors
    ///
    /// Returns [`NonClassicalGate`] if the gate is not a basis-state
    /// permutation.
    pub fn apply(&mut self, gate: Gate) -> Result<(), NonClassicalGate> {
        match gate {
            Gate::X(q) => {
                let i = q.index() as usize;
                self.bits[i] = !self.bits[i];
            }
            Gate::Cnot { control, target } => {
                if self.bits[control.index() as usize] {
                    let t = target.index() as usize;
                    self.bits[t] = !self.bits[t];
                }
            }
            Gate::Toffoli { c1, c2, target } => {
                if self.bits[c1.index() as usize] && self.bits[c2.index() as usize] {
                    let t = target.index() as usize;
                    self.bits[t] = !self.bits[t];
                }
            }
            other => {
                return Err(NonClassicalGate {
                    gate: other,
                    position: usize::MAX,
                })
            }
        }
        Ok(())
    }

    /// Runs a whole circuit.
    ///
    /// # Errors
    ///
    /// Returns [`NonClassicalGate`] (with its position) on the first
    /// non-classical gate; the state reflects all gates before it.
    pub fn run(&mut self, circuit: &Circuit) -> Result<(), NonClassicalGate> {
        assert!(
            circuit.num_qubits() as usize <= self.bits.len(),
            "circuit register larger than state"
        );
        for (position, &gate) in circuit.gates().iter().enumerate() {
            self.apply(gate).map_err(|e| NonClassicalGate {
                gate: e.gate,
                position,
            })?;
        }
        Ok(())
    }
}

impl core::fmt::Display for ClassicalState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for &b in &self.bits {
            write!(f, "{}", u8::from(b))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x_and_cnot_semantics() {
        let mut c = Circuit::new(2);
        c.x(0);
        c.cnot(0, 1);
        let mut s = ClassicalState::zeros(2);
        s.run(&c).unwrap();
        assert_eq!(s.bits, [true, true]);
    }

    #[test]
    fn toffoli_truth_table() {
        for a in [false, true] {
            for b in [false, true] {
                let mut c = Circuit::new(3);
                c.toffoli(0, 1, 2);
                let mut s = ClassicalState {
                    bits: vec![a, b, false],
                };
                s.run(&c).unwrap();
                assert_eq!(s.bit(2), a && b, "a={a}, b={b}");
            }
        }
    }

    #[test]
    fn uint_round_trip() {
        let mut s = ClassicalState::zeros(16);
        s.load_uint(3, 8, 173);
        assert_eq!(s.read_uint(3, 8), 173);
        assert_eq!(s.read_uint(0, 3), 0);
    }

    #[test]
    fn non_classical_gate_reports_position() {
        let mut c = Circuit::new(2);
        c.x(0);
        c.h(1);
        let mut s = ClassicalState::zeros(2);
        let err = s.run(&c).unwrap_err();
        assert_eq!(err.position, 1);
        assert!(err.to_string().contains("h q1"));
        // Gates before the failure were applied.
        assert!(s.bit(0));
    }

    #[test]
    fn reversibility() {
        // Running a classical circuit twice (self-inverse gates) restores
        // the input.
        let mut c = Circuit::new(4);
        c.toffoli(0, 1, 2);
        c.cnot(2, 3);
        c.x(1);
        let mut twice = c.clone();
        let reversed: Vec<Gate> = c.gates().iter().rev().copied().collect();
        for g in reversed {
            twice.push(g);
        }
        let input = vec![true, false, true, true];
        let mut s = ClassicalState {
            bits: input.clone(),
        };
        s.run(&twice).unwrap();
        assert_eq!(s.bits, input);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn load_uint_overflow_panics() {
        let mut s = ClassicalState::zeros(4);
        s.load_uint(0, 2, 7);
    }

    #[test]
    fn display_is_bitstring() {
        let s = ClassicalState {
            bits: vec![true, false, true],
        };
        assert_eq!(s.to_string(), "101");
    }
}

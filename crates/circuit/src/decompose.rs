//! Gate decomposition passes.
//!
//! The paper's cost rule — "the time to perform a single fault-tolerant
//! toffoli is equal to the time for fifteen two qubit gates" (§5.1) — is
//! the textbook Toffoli network: 6 CNOTs, 7 T/T†-class phase gates and 2
//! Hadamards, fifteen gates total. This pass materializes that network so
//! the rule is generated structure rather than a constant.

use crate::circuit::Circuit;
use crate::gate::{Gate, QubitId};

/// Number of elementary gates in the standard Toffoli decomposition.
pub const TOFFOLI_DECOMPOSITION_GATES: usize = 15;

/// Replaces every Toffoli with the standard 15-gate CNOT + T + H network;
/// all other gates pass through unchanged.
///
/// The T† gates in the network are emitted as `T` markers too (our IR
/// tracks gate *class*, and T/T† are cost-identical fault-tolerantly); the
/// count and dependency structure are exact.
///
/// # Examples
///
/// ```
/// use cqla_circuit::{decompose_toffolis, Circuit, TOFFOLI_DECOMPOSITION_GATES};
///
/// let mut c = Circuit::new(3);
/// c.toffoli(0, 1, 2);
/// let lowered = decompose_toffolis(&c);
/// assert_eq!(lowered.len(), TOFFOLI_DECOMPOSITION_GATES);
/// assert_eq!(lowered.counts().toffoli, 0);
/// ```
#[must_use]
pub fn decompose_toffolis(circuit: &Circuit) -> Circuit {
    // Exact size: one allocation, no growth. Every emitted operand comes
    // from an already validated gate, so nothing is re-validated.
    let toffolis = circuit
        .gates()
        .iter()
        .filter(|g| matches!(g, Gate::Toffoli { .. }))
        .count();
    let mut out = Vec::with_capacity(circuit.len() + (TOFFOLI_DECOMPOSITION_GATES - 1) * toffolis);
    for &gate in circuit.gates() {
        match gate {
            Gate::Toffoli { c1, c2, target } => {
                out.extend_from_slice(&toffoli_network(c1, c2, target));
            }
            other => out.push(other),
        }
    }
    Circuit::from_validated(circuit.num_qubits(), out)
}

/// The standard network (Nielsen & Chuang Fig 4.9), in execution order.
fn toffoli_network(a: QubitId, b: QubitId, t: QubitId) -> [Gate; TOFFOLI_DECOMPOSITION_GATES] {
    let cnot = |control, target| Gate::Cnot { control, target };
    [
        Gate::H(t),
        cnot(b, t),
        Gate::T(t), // T†
        cnot(a, t),
        Gate::T(t),
        cnot(b, t),
        Gate::T(t), // T†
        cnot(a, t),
        Gate::T(b),
        Gate::T(t),
        cnot(a, b),
        Gate::H(t),
        Gate::T(a),
        Gate::T(b), // T†
        cnot(a, b),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DependencyDag;

    #[test]
    fn one_toffoli_is_fifteen_gates() {
        let mut c = Circuit::new(3);
        c.toffoli(0, 1, 2);
        let lowered = decompose_toffolis(&c);
        assert_eq!(lowered.len(), 15);
        let counts = lowered.counts();
        assert_eq!(counts.cnot, 6);
        assert_eq!(counts.single_qubit, 9); // 7 T-class + 2 H
        assert_eq!(counts.toffoli, 0);
    }

    #[test]
    fn non_toffoli_gates_pass_through() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cnot(0, 1);
        c.toffoli(0, 1, 2);
        c.measure(2);
        let lowered = decompose_toffolis(&c);
        assert_eq!(lowered.len(), 3 + 15);
        assert_eq!(lowered.counts().measure, 1);
    }

    #[test]
    fn decomposition_cost_matches_the_papers_rule() {
        // The IR's cost weight and the generated network agree.
        let mut c = Circuit::new(3);
        c.toffoli(0, 1, 2);
        let lowered = decompose_toffolis(&c);
        assert_eq!(
            lowered.len() as u64,
            c.gates()[0].two_qubit_gate_equivalents()
        );
    }

    #[test]
    fn decomposed_adder_depth_grows_but_stays_logarithmic() {
        // Draper-like shape: two dependent toffoli layers.
        let mut c = Circuit::new(6);
        c.toffoli(0, 1, 2);
        c.toffoli(3, 4, 5);
        c.toffoli(2, 5, 0);
        let lowered = decompose_toffolis(&c);
        let before = DependencyDag::new(&c).depth();
        let after = DependencyDag::new(&lowered).depth();
        assert!(after > before);
        // The 15-gate network is ~13 layers deep serially on the target.
        assert!(after <= before * 15);
    }

    #[test]
    fn register_size_preserved() {
        let mut c = Circuit::new(10);
        c.toffoli(7, 8, 9);
        assert_eq!(decompose_toffolis(&c).num_qubits(), 10);
    }
}

//! Quantum Fourier Transform generator (paper §6.1).
//!
//! The QFT is the paper's communication stress test: it applies a
//! controlled-phase between *every pair* of qubits ("all-to-all
//! personalized communication"), but each interaction is a cheap two-qubit
//! gate — a communication-heavy, computation-light workload.

/// Size descriptor for the textbook QFT circuit.
///
/// Only the width is stored: the gate counts are closed forms, so sizing
/// a QFT (as Shor's fidelity budget and Fig 8b do) never materializes the
/// `n(n+1)/2`-gate circuit. The tests generate it to check the closed
/// forms.
///
/// # Examples
///
/// ```
/// use cqla_workloads::Qft;
///
/// let qft = Qft::new(16);
/// // n Hadamards + n(n-1)/2 controlled-phase rotations.
/// assert_eq!(qft.pair_interactions(), 120);
/// assert_eq!(qft.total_gates(), 16 + 120);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Qft {
    n: u32,
}

impl Qft {
    /// Describes the `n`-qubit QFT (without the final bit-reversal swaps,
    /// which compilers typically elide by relabeling).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "QFT needs at least one qubit");
        Self { n }
    }

    /// Number of two-qubit interactions: `n(n-1)/2` — every ordered pair
    /// exactly once, the all-to-all pattern of paper Fig 8b.
    #[must_use]
    pub fn pair_interactions(&self) -> u64 {
        u64::from(self.n) * (u64::from(self.n) - 1) / 2
    }

    /// Total logical gate steps (Hadamards + pair interactions).
    #[must_use]
    pub fn total_gates(&self) -> u64 {
        u64::from(self.n) + self.pair_interactions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqla_circuit::{Circuit, DependencyDag, Gate};

    /// The textbook circuit the closed forms count: a Hadamard on each
    /// qubit followed by its controlled-phase rotations from every later
    /// qubit.
    fn circuit(qft: Qft) -> Circuit {
        let n = qft.n;
        let mut c = Circuit::new(n);
        for i in 0..n {
            c.h(i);
            for j in (i + 1)..n {
                // Rotation angle 2π / 2^(j - i + 1), controlled by qubit j.
                let order = u8::try_from((j - i + 1).min(127)).expect("bounded above");
                c.controlled_phase(j, i, order);
            }
        }
        c
    }

    #[test]
    fn gate_census() {
        let qft = Qft::new(8);
        let counts = circuit(qft).counts();
        assert_eq!(counts.single_qubit, 8);
        assert_eq!(counts.two_qubit_other, 28);
        assert_eq!(counts.toffoli, 0);
        assert_eq!(qft.total_gates(), 36);
    }

    #[test]
    fn closed_forms_match_the_generated_circuit() {
        for n in 1..=64 {
            let qft = Qft::new(n);
            let circuit = circuit(qft);
            let counts = circuit.counts();
            assert_eq!(qft.total_gates(), circuit.len() as u64, "n = {n}");
            assert_eq!(qft.pair_interactions(), counts.two_qubit_other, "n = {n}");
            assert_eq!(u64::from(n), counts.single_qubit, "n = {n}");
        }
    }

    #[test]
    fn every_pair_interacts_exactly_once() {
        let qft = Qft::new(10);
        let mut pairs = std::collections::HashSet::new();
        for g in circuit(qft).gates() {
            if let Gate::ControlledPhase {
                control, target, ..
            } = g
            {
                let key = (
                    control.index().min(target.index()),
                    control.index().max(target.index()),
                );
                assert!(pairs.insert(key), "pair {key:?} repeated");
            }
        }
        assert_eq!(pairs.len() as u64, qft.pair_interactions());
    }

    #[test]
    fn rotation_orders_decay_with_distance() {
        let qft = Qft::new(6);
        for g in circuit(qft).gates() {
            if let Gate::ControlledPhase {
                control,
                target,
                order,
            } = g
            {
                let dist = control.index().abs_diff(target.index());
                assert_eq!(u32::from(*order), dist + 1);
            }
        }
    }

    #[test]
    fn depth_is_linear_not_quadratic() {
        // Each qubit's H must wait for all rotations targeting it, but
        // rotations on disjoint pairs commute into parallel layers.
        let dag = DependencyDag::new(&circuit(Qft::new(24)));
        let depth = dag.depth();
        assert!(depth >= 24, "depth {depth}");
        assert!(depth < 24 * 24 / 2, "depth {depth} is quadratic");
    }

    #[test]
    #[should_panic(expected = "at least one qubit")]
    fn zero_width_rejected() {
        let _ = Qft::new(0);
    }
}

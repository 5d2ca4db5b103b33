//! Dependency analysis: the gate DAG, critical paths, and parallelism
//! profiles (paper Fig 2).
//!
//! # Layout
//!
//! The DAG is stored in compressed-sparse-row form: the predecessors of
//! gate `i` are `pred_edges[pred_offsets[i]..pred_offsets[i + 1]]`, and
//! the successors likewise over `succ_offsets`/`succ_edges`. Offsets and
//! edge lists are 32-bit: a gate has at most three operands, hence at
//! most three predecessors, so `3n < u32::MAX` bounds every offset and
//! every gate index, and the edges take half the memory of `usize`
//! lists. [`DependencyDag::predecessors`] and
//! [`DependencyDag::successors`] return `&[u32]`. Building it
//! takes two linear passes and no per-node allocation. The first walks
//! the gates in program order, appending each gate's predecessor list
//! and counting every node's successors. The second transposes the
//! predecessor lists into the successor array, so each successor list is
//! ascending. The gates themselves are the circuit's, held behind an
//! `Arc`: [`DependencyDag::shared`] builds over a circuit its caller
//! already shares (the compile pipeline's lowered program), and
//! [`DependencyDag::new`] copies one.
//!
//! # One ready gate per qubit
//!
//! Two gates sharing a qubit are always ordered: the later one depends,
//! through the chain of latest touchers of that qubit, on the earlier
//! one. So in any execution that respects the DAG, at most one
//! dependency-ready gate touches each qubit at a time. The cache
//! simulator's optimized fetch relies on this to index the ready set by
//! qubit with one slot per qubit.

use std::sync::Arc;

use crate::circuit::Circuit;
use crate::gate::Gate;

/// Marks "no gate yet" in the build's last-toucher table.
const NONE: u32 = u32::MAX;

/// The data-dependency DAG of a circuit: gate `j` depends on gate `i` when
/// they share an operand and `i` precedes `j` in program order (with only
/// the *latest* prior toucher of each operand kept, which is sufficient for
/// scheduling).
///
/// Each predecessor list follows the gate's operand order with duplicates
/// dropped; each successor list is in ascending program order.
///
/// # Examples
///
/// ```
/// use cqla_circuit::{Circuit, DependencyDag};
///
/// let mut c = Circuit::new(4);
/// c.cnot(0, 1); // layer 0
/// c.cnot(2, 3); // layer 0 (independent)
/// c.cnot(1, 2); // layer 1 (depends on both)
/// let dag = DependencyDag::new(&c);
/// assert_eq!(dag.parallelism_profile(), vec![2, 1]);
/// assert_eq!(dag.depth(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct DependencyDag {
    circuit: Arc<Circuit>,
    pred_offsets: Vec<u32>,
    pred_edges: Vec<u32>,
    succ_offsets: Vec<u32>,
    succ_edges: Vec<u32>,
}

impl DependencyDag {
    /// Builds the DAG of `circuit`, over a copy of its gates.
    #[must_use]
    pub fn new(circuit: &Circuit) -> Self {
        Self::shared(Arc::new(circuit.clone()))
    }

    /// Builds the DAG of `circuit` and shares it rather than copying
    /// its gates.
    #[must_use]
    pub fn shared(circuit: Arc<Circuit>) -> Self {
        let gates = circuit.gates();
        let n = gates.len();

        assert!(
            3 * n < u32::MAX as usize,
            "DAG edge offsets are 32-bit: {n} gates is too many"
        );

        // Pass 1: predecessor lists in program order, plus each node's
        // successor count (shifted by one slot for the prefix sum below).
        let mut pred_offsets = Vec::with_capacity(n + 1);
        let mut pred_edges = Vec::with_capacity(2 * n);
        let mut succ_offsets = vec![0u32; n + 1];
        let mut last_touch = vec![NONE; circuit.num_qubits() as usize];
        pred_offsets.push(0);
        for (i, gate) in gates.iter().enumerate() {
            let start = pred_edges.len();
            let (qubits, arity) = gate.qubit_array();
            for q in &qubits[..arity] {
                let p = std::mem::replace(&mut last_touch[q.index() as usize], i as u32);
                if p != NONE && !pred_edges[start..].contains(&p) {
                    pred_edges.push(p);
                    succ_offsets[p as usize + 1] += 1;
                }
            }
            pred_offsets.push(pred_edges.len() as u32);
        }

        // Pass 2: transpose. After the prefix sum `succ_offsets[p]` is
        // the start of `p`'s list; it serves as the fill cursor, which
        // leaves it at the start of `p + 1`'s list, so a shift by one
        // slot restores the offsets. Visiting nodes in program order
        // fills every successor list in ascending order.
        for i in 0..n {
            succ_offsets[i + 1] += succ_offsets[i];
        }
        let mut succ_edges = vec![0u32; pred_edges.len()];
        for i in 0..n {
            for &p in &pred_edges[pred_offsets[i] as usize..pred_offsets[i + 1] as usize] {
                let p = p as usize;
                succ_edges[succ_offsets[p] as usize] = i as u32;
                succ_offsets[p] += 1;
            }
        }
        succ_offsets.copy_within(0..n, 1);
        succ_offsets[0] = 0;

        Self {
            circuit,
            pred_offsets,
            pred_edges,
            succ_offsets,
            succ_edges,
        }
    }

    /// Number of gates (DAG nodes).
    #[must_use]
    pub fn num_gates(&self) -> usize {
        self.circuit.len()
    }

    /// Number of dependency edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.pred_edges.len()
    }

    /// Size of the register the circuit's gates act on.
    #[must_use]
    pub fn num_qubits(&self) -> u32 {
        self.circuit.num_qubits()
    }

    /// Every gate, in program order (node `i` is `gates()[i]`).
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        self.circuit.gates()
    }

    /// Direct dependencies of gate `i`.
    #[must_use]
    pub fn predecessors(&self, i: usize) -> &[u32] {
        &self.pred_edges[self.pred_offsets[i] as usize..self.pred_offsets[i + 1] as usize]
    }

    /// Gates directly depending on gate `i`.
    #[must_use]
    pub fn successors(&self, i: usize) -> &[u32] {
        &self.succ_edges[self.succ_offsets[i] as usize..self.succ_offsets[i + 1] as usize]
    }

    /// ASAP level of every gate with unit gate durations (level 0 = no
    /// dependencies).
    #[must_use]
    pub fn asap_levels(&self) -> Vec<usize> {
        let mut level = vec![0usize; self.num_gates()];
        for i in 0..self.num_gates() {
            // Program order is a topological order by construction.
            for &p in self.predecessors(i) {
                level[i] = level[i].max(level[p as usize] + 1);
            }
        }
        level
    }

    /// Circuit depth in unit-gate layers (0 for an empty circuit).
    #[must_use]
    pub fn depth(&self) -> usize {
        depth_of(&self.asap_levels())
    }

    /// Number of gates eligible to run at each unit-time layer under
    /// unlimited resources — the paper's Fig 2 "unlimited" series.
    #[must_use]
    pub fn parallelism_profile(&self) -> Vec<usize> {
        let levels = self.asap_levels();
        let mut profile = vec![0usize; depth_of(&levels)];
        for &l in &levels {
            profile[l] += 1;
        }
        profile
    }

    /// Weighted critical-path length: the longest dependency chain where
    /// each gate contributes `weight(gate)` time units. This is the
    /// makespan lower bound no amount of parallel hardware can beat.
    #[must_use]
    pub fn critical_path<W: Fn(&Gate) -> u64>(&self, weight: W) -> u64 {
        let mut finish = vec![0u64; self.num_gates()];
        let mut best = 0;
        for i in 0..self.num_gates() {
            let start = self
                .predecessors(i)
                .iter()
                .map(|&p| finish[p as usize])
                .max()
                .unwrap_or(0);
            finish[i] = start + weight(&self.gates()[i]);
            best = best.max(finish[i]);
        }
        best
    }

    /// Total work: the sum of gate weights.
    #[must_use]
    pub fn total_work<W: Fn(&Gate) -> u64>(&self, weight: W) -> u64 {
        self.gates().iter().map(weight).sum()
    }

    /// Average parallelism = total unit-gate count / depth.
    #[must_use]
    pub fn average_parallelism(&self) -> f64 {
        if self.circuit.is_empty() {
            return 0.0;
        }
        self.num_gates() as f64 / self.depth() as f64
    }
}

/// Depth in unit-gate layers given every gate's ASAP level.
fn depth_of(levels: &[usize]) -> usize {
    levels.iter().map(|&l| l + 1).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(_: &Gate) -> u64 {
        1
    }

    #[test]
    fn chain_is_serial() {
        let mut c = Circuit::new(2);
        for _ in 0..5 {
            c.cnot(0, 1);
        }
        let dag = DependencyDag::new(&c);
        assert_eq!(dag.depth(), 5);
        assert_eq!(dag.parallelism_profile(), vec![1; 5]);
        assert_eq!(dag.critical_path(unit), 5);
        assert_eq!(dag.average_parallelism(), 1.0);
    }

    #[test]
    fn independent_gates_are_flat() {
        let mut c = Circuit::new(8);
        for i in 0..4 {
            c.cnot(2 * i, 2 * i + 1);
        }
        let dag = DependencyDag::new(&c);
        assert_eq!(dag.depth(), 1);
        assert_eq!(dag.parallelism_profile(), vec![4]);
        assert_eq!(dag.average_parallelism(), 4.0);
    }

    #[test]
    fn profile_area_equals_gate_count() {
        let mut c = Circuit::new(6);
        c.toffoli(0, 1, 2);
        c.cnot(2, 3);
        c.cnot(4, 5);
        c.h(0);
        c.cnot(0, 4);
        let dag = DependencyDag::new(&c);
        let area: usize = dag.parallelism_profile().iter().sum();
        assert_eq!(area, c.len());
    }

    #[test]
    fn weighted_critical_path_counts_toffolis() {
        let mut c = Circuit::new(3);
        c.toffoli(0, 1, 2);
        c.cnot(0, 1);
        let dag = DependencyDag::new(&c);
        let w = Gate::two_qubit_gate_equivalents;
        // The cnot depends on the toffoli via q0/q1: 15 + 1.
        assert_eq!(dag.critical_path(w), 16);
        assert_eq!(dag.total_work(w), 16);
    }

    #[test]
    fn predecessors_are_deduplicated() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        c.cnot(0, 1); // shares both operands with gate 0
        let dag = DependencyDag::new(&c);
        assert_eq!(dag.predecessors(1), &[0]);
        assert_eq!(dag.successors(0), &[1]);
    }

    #[test]
    fn empty_circuit_edge_cases() {
        let c = Circuit::new(1);
        let dag = DependencyDag::new(&c);
        assert_eq!(dag.depth(), 0);
        assert!(dag.parallelism_profile().is_empty());
        assert_eq!(dag.critical_path(unit), 0);
        assert_eq!(dag.average_parallelism(), 0.0);
    }
}

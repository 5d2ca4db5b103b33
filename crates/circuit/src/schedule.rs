//! Resource-constrained list scheduling (paper §5.1, Fig 2, Fig 6a).
//!
//! The CQLA restricts computation to `B` compute blocks; whether that hurts
//! depends on how much parallelism the workload's dependency structure
//! exposes. This module schedules a [`DependencyDag`] onto a bounded number
//! of gate slots using classic list scheduling with downstream-critical-path
//! priority, producing the makespans, utilizations and occupancy profiles
//! behind the paper's specialization results.
//!
//! # The ASAP exit
//!
//! The paper's specialization result is that a few blocks capture all the
//! parallelism a workload exposes. When the as-soon-as-possible (ASAP)
//! schedule never runs more than `B` gates at once, the bounded schedule
//! *is* the ASAP schedule, and no priority decision is ever made. So
//! [`ListScheduler::schedule`] first runs one forward pass (each gate
//! starts when its last predecessor finishes) and a +1/−1 occupancy sweep,
//! and returns that schedule when its peak fits the width. Only a width
//! that binds pays for the priority pass and the two heaps. The exit is
//! exact: the heap path, run at any width the ASAP peak fits, makes the
//! same decisions (`schedule::tests` checks both paths against a
//! reference list scheduler with no exit).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::dag::DependencyDag;
use crate::gate::Gate;

/// Width of a schedule: how many logical gates may execute simultaneously.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// No resource limit (the QLA's maximal-parallelism assumption).
    Unlimited,
    /// At most this many concurrent gates (the CQLA's compute blocks).
    Blocks(usize),
}

impl Width {
    fn cap(self) -> usize {
        match self {
            Self::Unlimited => usize::MAX,
            Self::Blocks(b) => {
                assert!(b > 0, "schedule width must be positive");
                b
            }
        }
    }
}

impl core::fmt::Display for Width {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Unlimited => write!(f, "unlimited"),
            Self::Blocks(b) => write!(f, "{b} blocks"),
        }
    }
}

/// The result of scheduling a circuit onto bounded gate slots.
///
/// Times are in abstract units of the weight function handed to
/// [`ListScheduler::schedule`]; multiply by the logical gate duration from
/// [`EccMetrics`](../../cqla_ecc/struct.EccMetrics.html) to get wall-clock
/// time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    width: Width,
    makespan: u64,
    critical_path: u64,
    total_work: u64,
    start_times: Vec<u64>,
    occupancy: Vec<usize>,
}

impl Schedule {
    /// The width the schedule was built for.
    #[must_use]
    pub fn width(&self) -> Width {
        self.width
    }

    /// Completion time of the last gate.
    #[must_use]
    pub fn makespan(&self) -> u64 {
        self.makespan
    }

    /// Longest weighted dependency chain: the makespan under
    /// [`Width::Unlimited`], and a lower bound at every width.
    #[must_use]
    pub fn critical_path(&self) -> u64 {
        self.critical_path
    }

    /// Sum of all gate durations.
    #[must_use]
    pub fn total_work(&self) -> u64 {
        self.total_work
    }

    /// Start time of each gate (program order indices).
    #[must_use]
    pub fn start_times(&self) -> &[u64] {
        &self.start_times
    }

    /// Number of gates executing during each time unit — the paper's
    /// "gates in parallel" series (Fig 2).
    #[must_use]
    pub fn occupancy(&self) -> &[usize] {
        &self.occupancy
    }

    /// Peak concurrent gates.
    ///
    /// An empty schedule has no occupied time units and peaks at `0`.
    #[must_use]
    pub fn peak_parallelism(&self) -> usize {
        self.occupancy.iter().copied().max().unwrap_or(0)
    }

    /// Mean compute-block utilization: work / (blocks × makespan).
    ///
    /// For [`Width::Unlimited`] the denominator uses the peak parallelism
    /// (the hardware a sea-of-qubits machine would have had to provision).
    ///
    /// Empty schedules report `0.0` rather than the `0/0` the formula
    /// would produce, and a single-gate schedule under
    /// [`Width::Unlimited`] reports exactly `1.0` (one slot, fully busy)
    /// — neither edge divides by zero.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.makespan == 0 || self.total_work == 0 {
            return 0.0;
        }
        let slots = match self.width {
            Width::Blocks(b) => b.max(1),
            Width::Unlimited => self.peak_parallelism().max(1),
        };
        self.total_work as f64 / (slots as f64 * self.makespan as f64)
    }
}

/// List scheduler over a dependency DAG.
///
/// Ready gates are prioritized by remaining downstream critical path
/// (longest first), breaking ties by program order, which keeps schedules
/// deterministic.
///
/// # Examples
///
/// ```
/// use cqla_circuit::{Circuit, DependencyDag, Gate, ListScheduler, Width};
///
/// let mut c = Circuit::new(8);
/// for i in 0..4 {
///     c.cnot(2 * i, 2 * i + 1);
/// }
/// let dag = DependencyDag::new(&c);
/// let unlimited = ListScheduler::new(&dag).schedule(Width::Unlimited, |_| 1);
/// let two = ListScheduler::new(&dag).schedule(Width::Blocks(2), |_| 1);
/// assert_eq!(unlimited.makespan(), 1);
/// assert_eq!(two.makespan(), 2);
/// assert!(two.utilization() > unlimited.utilization() - 1e-12);
/// ```
#[derive(Debug)]
pub struct ListScheduler<'a> {
    dag: &'a DependencyDag,
}

impl<'a> ListScheduler<'a> {
    /// Creates a scheduler over `dag`.
    #[must_use]
    pub fn new(dag: &'a DependencyDag) -> Self {
        Self { dag }
    }

    /// Schedules every gate onto at most `width` slots, with per-gate
    /// durations from `weight`.
    ///
    /// One forward pass in program order first gives every gate its ASAP
    /// start, the latest finish among its predecessors, and the critical
    /// path. When the ASAP occupancy never exceeds `width`, that is the
    /// schedule: by induction over completion times, every gate becomes
    /// ready at its ASAP start, and the gates running then number at
    /// most the width, so the free slots cover every ready gate and the
    /// priority order never decides anything. [`Width::Unlimited`] always
    /// takes this exit. Otherwise the list scheduler runs: ready gates
    /// launch longest downstream path first, ties in program order.
    ///
    /// # Panics
    ///
    /// Panics if `width` is `Blocks(0)` or any weight is zero.
    #[must_use]
    pub fn schedule<W: Fn(&Gate) -> u64>(&self, width: Width, weight: W) -> Schedule {
        let n = self.dag.num_gates();
        let cap = width.cap();
        let weights: Vec<u64> = (0..n).map(|i| weight(&self.dag.gate(i))).collect();
        assert!(
            weights.iter().all(|&w| w > 0),
            "gate weights must be positive"
        );
        let total_work: u64 = weights.iter().sum();

        // ASAP pass: program order is a topological order.
        let mut start_times = vec![0u64; n];
        let mut critical_path = 0u64;
        for i in 0..n {
            let start = self
                .dag
                .predecessors(i)
                .iter()
                .map(|&p| start_times[p] + weights[p])
                .max()
                .unwrap_or(0);
            start_times[i] = start;
            critical_path = critical_path.max(start + weights[i]);
        }
        let mut occupancy = Vec::new();
        if fill_occupancy(&mut occupancy, &start_times, &weights, critical_path) <= cap {
            return Schedule {
                width,
                makespan: critical_path,
                critical_path,
                total_work,
                start_times,
                occupancy,
            };
        }

        let priority = self.dag.downstream_priority(|g| weight(g));
        // Both heaps order single `u64` keys: a time or priority in the
        // high bits over the gate index in the low `shift` bits. Every
        // priority and finish time is at most the total work, so the
        // packing is exact when the total work fits above the index.
        let shift = usize::BITS - n.saturating_sub(1).leading_zeros();
        assert!(
            total_work <= u64::MAX >> shift,
            "total work {total_work} of {n} gates overflows the packed heap keys"
        );
        let low = (1u64 << shift) - 1;
        // Ready keys pack `(priority, Reverse(index))`: the max-heap pops
        // the longest downstream path, ties going to program order.
        let ready_key = |i: usize| (priority[i] << shift) | (low - i as u64);
        let mut indegree: Vec<usize> = (0..n).map(|i| self.dag.predecessors(i).len()).collect();
        let mut ready: BinaryHeap<u64> = (0..n)
            .filter(|&i| indegree[i] == 0)
            .map(ready_key)
            .collect();
        // Completion keys pack `(finish, index)` in a min-heap.
        let mut running: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
        let mut busy = 0usize;
        let mut now = 0u64;
        let mut makespan = 0u64;
        let mut scheduled = 0usize;

        while scheduled < n || !running.is_empty() {
            // Launch as many ready gates as slots allow.
            while busy < cap {
                let Some(key) = ready.pop() else {
                    break;
                };
                let i = (low - (key & low)) as usize;
                start_times[i] = now;
                let finish = now + weights[i];
                running.push(Reverse((finish << shift) | i as u64));
                busy += 1;
                scheduled += 1;
                makespan = makespan.max(finish);
            }
            // Advance to the next completion.
            let Some(&Reverse(key)) = running.peek() else {
                assert_eq!(scheduled, n, "deadlock: gates remain but none running");
                break;
            };
            now = key >> shift;
            while let Some(&Reverse(key)) = running.peek() {
                if key >> shift != now {
                    break;
                }
                running.pop();
                busy -= 1;
                for &s in self.dag.successors((key & low) as usize) {
                    indegree[s] -= 1;
                    if indegree[s] == 0 {
                        ready.push(ready_key(s));
                    }
                }
            }
        }

        fill_occupancy(&mut occupancy, &start_times, &weights, makespan);
        Schedule {
            width,
            makespan,
            critical_path,
            total_work,
            start_times,
            occupancy,
        }
    }
}

/// Fills `occupancy` with the number of gates running in each time unit
/// of `0..makespan` and returns its peak: a +1/−1 sweep over the start
/// and finish times, summed in place (makespans here are modest, ≤ ~10⁶
/// units). A slot's delta may wrap below zero, so every step wraps, but
/// each prefix sum is a count of running gates, so the sums are exact.
fn fill_occupancy(
    occupancy: &mut Vec<usize>,
    start_times: &[u64],
    weights: &[u64],
    makespan: u64,
) -> usize {
    occupancy.clear();
    occupancy.resize(makespan as usize + 1, 0);
    for (&start, &w) in start_times.iter().zip(weights) {
        let slot = &mut occupancy[start as usize];
        *slot = slot.wrapping_add(1);
        let slot = &mut occupancy[(start + w) as usize];
        *slot = slot.wrapping_sub(1);
    }
    occupancy.pop();
    let (mut running, mut peak) = (0usize, 0usize);
    for slot in occupancy.iter_mut() {
        running = running.wrapping_add(*slot);
        *slot = running;
        peak = peak.max(running);
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    fn unit(_: &Gate) -> u64 {
        1
    }

    fn diamond() -> Circuit {
        // g0 -> (g1, g2) -> g3 over 4 qubits.
        let mut c = Circuit::new(4);
        c.cnot(0, 1);
        c.cnot(0, 2);
        c.cnot(1, 3);
        c.cnot(2, 3);
        c
    }

    #[test]
    fn width_one_serializes() {
        let c = diamond();
        let dag = DependencyDag::new(&c);
        let s = ListScheduler::new(&dag).schedule(Width::Blocks(1), unit);
        assert_eq!(s.makespan(), 4);
        assert_eq!(s.peak_parallelism(), 1);
        assert!((s.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unlimited_equals_critical_path() {
        let c = diamond();
        let dag = DependencyDag::new(&c);
        let s = ListScheduler::new(&dag).schedule(Width::Unlimited, unit);
        assert_eq!(s.makespan(), dag.critical_path(unit));
    }

    #[test]
    fn makespan_bounds_hold() {
        let c = diamond();
        let dag = DependencyDag::new(&c);
        for b in 1..=4 {
            let s = ListScheduler::new(&dag).schedule(Width::Blocks(b), unit);
            let cp = dag.critical_path(unit);
            let work = dag.total_work(unit);
            assert!(s.makespan() >= cp);
            assert!(s.makespan() >= work.div_ceil(b as u64));
            assert!(s.makespan() <= work);
        }
    }

    #[test]
    fn makespan_is_monotone_in_width() {
        let mut c = Circuit::new(16);
        // Two dependent layers of 8 independent CNOTs.
        for i in 0..8u32 {
            c.cnot(2 * i, 2 * i + 1);
        }
        for i in 0..8u32 {
            c.cnot((2 * i + 1) % 16, (2 * i + 2) % 16);
        }
        let dag = DependencyDag::new(&c);
        let mut last = u64::MAX;
        for b in 1..=16 {
            let s = ListScheduler::new(&dag).schedule(Width::Blocks(b), unit);
            assert!(s.makespan() <= last, "width {b} regressed");
            last = s.makespan();
        }
    }

    #[test]
    fn occupancy_never_exceeds_width_and_sums_to_work() {
        let c = diamond();
        let dag = DependencyDag::new(&c);
        let s = ListScheduler::new(&dag).schedule(Width::Blocks(2), unit);
        assert!(s.occupancy().iter().all(|&o| o <= 2));
        let area: usize = s.occupancy().iter().sum();
        assert_eq!(area as u64, s.total_work());
    }

    #[test]
    fn weighted_gates_occupy_slots_for_their_duration() {
        let mut c = Circuit::new(5);
        c.toffoli(0, 1, 2); // weight 15
        c.cnot(3, 4); // weight 1, independent
        let dag = DependencyDag::new(&c);
        let s =
            ListScheduler::new(&dag).schedule(Width::Blocks(2), Gate::two_qubit_gate_equivalents);
        assert_eq!(s.makespan(), 15);
        assert_eq!(s.occupancy()[0], 2);
        assert_eq!(s.occupancy()[14], 1);
    }

    #[test]
    fn start_times_respect_dependencies() {
        let c = diamond();
        let dag = DependencyDag::new(&c);
        for b in 1..=4 {
            let s = ListScheduler::new(&dag).schedule(Width::Blocks(b), unit);
            for i in 0..dag.num_gates() {
                for &p in dag.predecessors(i) {
                    assert!(
                        s.start_times()[i] > s.start_times()[p],
                        "width {b}: gate {i} starts before predecessor {p} finishes"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_circuit_schedules_trivially() {
        let c = Circuit::new(1);
        let dag = DependencyDag::new(&c);
        let s = ListScheduler::new(&dag).schedule(Width::Blocks(3), unit);
        assert_eq!(s.makespan(), 0);
        assert_eq!(s.utilization(), 0.0);
        assert!(s.occupancy().is_empty());
    }

    #[test]
    fn empty_circuit_under_unlimited_width_has_finite_metrics() {
        let c = Circuit::new(1);
        let dag = DependencyDag::new(&c);
        let s = ListScheduler::new(&dag).schedule(Width::Unlimited, unit);
        assert_eq!(s.makespan(), 0);
        assert_eq!(s.peak_parallelism(), 0);
        assert_eq!(s.total_work(), 0);
        // 0/0 must not leak out as NaN.
        assert_eq!(s.utilization(), 0.0);
        assert!(s.utilization().is_finite());
    }

    #[test]
    fn single_gate_circuit_is_fully_utilized() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        let dag = DependencyDag::new(&c);
        for width in [Width::Unlimited, Width::Blocks(1)] {
            let s = ListScheduler::new(&dag).schedule(width, unit);
            assert_eq!(s.makespan(), 1);
            assert_eq!(s.peak_parallelism(), 1);
            assert!((s.utilization() - 1.0).abs() < 1e-12, "width {width}");
            assert!(s.utilization().is_finite());
        }
    }

    #[test]
    fn single_gate_on_wide_hardware_dilutes_utilization() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        let dag = DependencyDag::new(&c);
        let s = ListScheduler::new(&dag).schedule(Width::Blocks(4), unit);
        assert!((s.utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "schedule width must be positive")]
    fn zero_width_is_rejected() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        let dag = DependencyDag::new(&c);
        let _ = ListScheduler::new(&dag).schedule(Width::Blocks(0), unit);
    }

    /// Reference list scheduler over two heaps of tuples,
    /// `(priority, Reverse(index))` ready and `(finish, index)` running,
    /// with no ASAP exit: the oracle both the exit and the packed `u64`
    /// heap keys must agree with.
    fn reference_schedule(dag: &DependencyDag, width: Width, weight: fn(&Gate) -> u64) -> Schedule {
        let n = dag.num_gates();
        let cap = width.cap();
        let weights: Vec<u64> = (0..n).map(|i| weight(&dag.gate(i))).collect();
        let priority = dag.downstream_priority(weight);
        let mut indegree: Vec<usize> = (0..n).map(|i| dag.predecessors(i).len()).collect();
        let mut ready: BinaryHeap<(u64, Reverse<usize>)> = BinaryHeap::new();
        for i in 0..n {
            if indegree[i] == 0 {
                ready.push((priority[i], Reverse(i)));
            }
        }
        let mut running: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        let mut start_times = vec![0u64; n];
        let (mut busy, mut now, mut makespan, mut scheduled) = (0usize, 0u64, 0u64, 0usize);
        let mut intervals: Vec<(u64, u64)> = Vec::with_capacity(n);
        while scheduled < n || !running.is_empty() {
            while busy < cap {
                let Some((_, Reverse(i))) = ready.pop() else {
                    break;
                };
                start_times[i] = now;
                let finish = now + weights[i];
                intervals.push((now, finish));
                running.push(Reverse((finish, i)));
                busy += 1;
                scheduled += 1;
                makespan = makespan.max(finish);
            }
            let Some(Reverse((t, _))) = running.peek().copied() else {
                break;
            };
            now = t;
            while let Some(&Reverse((t2, i))) = running.peek() {
                if t2 != now {
                    break;
                }
                running.pop();
                busy -= 1;
                for &s in dag.successors(i) {
                    indegree[s] -= 1;
                    if indegree[s] == 0 {
                        ready.push((priority[s], Reverse(s)));
                    }
                }
            }
        }
        Schedule {
            width,
            makespan,
            critical_path: dag.critical_path(weight),
            total_work: weights.iter().sum(),
            start_times,
            occupancy: occupancy_from_intervals(&intervals, makespan),
        }
    }

    /// Occupancy from each launched gate's `(start, finish)` interval.
    fn occupancy_from_intervals(intervals: &[(u64, u64)], makespan: u64) -> Vec<usize> {
        let mut deltas = vec![0isize; makespan as usize + 1];
        for &(s, f) in intervals {
            deltas[s as usize] += 1;
            deltas[f as usize] -= 1;
        }
        let mut occupancy = Vec::with_capacity(makespan as usize);
        let mut current = 0isize;
        for d in deltas.iter().take(makespan as usize) {
            current += d;
            occupancy.push(current as usize);
        }
        occupancy
    }

    /// A seeded Clifford+T circuit with the gate mix of
    /// `cqla_compile::random::random_circuit` (which sits downstream of
    /// this crate): mostly CNOT/CZ, single-qubit gates, and Toffolis.
    fn random_circuit(qubits: u32, gates: usize, seed: u64) -> Circuit {
        let mut state = seed;
        // SplitMix64.
        let mut next = |bound: u32| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % u64::from(bound)) as u32
        };
        let mut c = Circuit::new(qubits);
        for _ in 0..gates {
            let (draw, a) = (next(100), next(qubits));
            let b = (a + 1 + next(qubits - 1)) % qubits;
            let t = (0..qubits).find(|&t| t != a && t != b).unwrap_or(a);
            match draw {
                0..=39 => c.h(a),
                40..=77 => c.cnot(a, b),
                78..=91 => c.cz(a, b),
                _ => c.toffoli(a, b, t),
            }
        }
        c
    }

    #[test]
    fn packed_keys_make_every_decision_the_tuple_heaps_make() {
        let widths = [
            Width::Blocks(1),
            Width::Blocks(2),
            Width::Blocks(9),
            Width::Blocks(36),
            Width::Unlimited,
        ];
        let circuits = (0..24).map(|seed| {
            let qubits = [3, 8, 16, 64][seed as usize % 4];
            random_circuit(qubits, 32 * (seed as usize + 1), seed)
        });
        for c in std::iter::once(Circuit::new(4)).chain(circuits) {
            let lowered = crate::decompose_toffolis(&c);
            for (circuit, weight) in [
                (&lowered, unit as fn(&Gate) -> u64),
                (&c, Gate::two_qubit_gate_equivalents as fn(&Gate) -> u64),
            ] {
                let dag = DependencyDag::new(circuit);
                // The ASAP peak is the narrowest width that takes the
                // exit; one block fewer takes the heap path.
                let peak = reference_schedule(&dag, Width::Unlimited, weight).peak_parallelism();
                let edges = [peak, peak.saturating_sub(1)]
                    .into_iter()
                    .filter(|&b| b > 0)
                    .map(Width::Blocks);
                for width in widths.into_iter().chain(edges) {
                    let s = ListScheduler::new(&dag).schedule(width, weight);
                    let want = reference_schedule(&dag, width, weight);
                    assert_eq!(s, want, "{} gates at {width}", circuit.len());
                    assert_eq!(s.utilization(), want.utilization());
                }
            }
        }
    }

    #[test]
    fn display_width() {
        assert_eq!(Width::Unlimited.to_string(), "unlimited");
        assert_eq!(Width::Blocks(15).to_string(), "15 blocks");
    }
}

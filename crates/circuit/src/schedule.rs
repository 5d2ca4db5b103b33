//! Resource-constrained list scheduling (paper §5.1, Fig 2, Fig 6a).
//!
//! The CQLA restricts computation to `B` compute blocks; whether that hurts
//! depends on how much parallelism the workload's dependency structure
//! exposes. This module schedules a [`DependencyDag`] onto a bounded number
//! of gate slots using classic list scheduling with downstream-critical-path
//! priority, producing the makespans, utilizations and occupancy profiles
//! behind the paper's specialization results.
//!
//! # Plan and run
//!
//! Fig 6a and Table 4 schedule one adder DAG at many block counts, so
//! the work splits in two. A [`SchedulePlan`] holds everything that does
//! not depend on the width, built once per `(DAG, weight)`: the gate
//! weights and total work, the as-soon-as-possible (ASAP) schedule with
//! its critical path, occupancy and peak, and the rank order. A run
//! schedules one width from it; [`ListScheduler::schedule`] is a
//! one-shot plan.
//!
//! # The ASAP exit
//!
//! The paper's specialization result is that a few blocks capture all the
//! parallelism a workload exposes. When the ASAP schedule never runs more
//! than `B` gates at once, the bounded schedule *is* the ASAP schedule:
//! by induction over completion times, every gate becomes ready at its
//! ASAP start, and the gates running then number at most the width, so
//! the free slots cover every ready gate and the priority order never
//! decides anything. So a run whose width the plan's ASAP peak fits
//! returns the ASAP schedule, and [`Width::Unlimited`] always does.
//!
//! # Rank order
//!
//! Only a width that binds makes decisions: ready gates launch longest
//! downstream critical path first, ties in program order. The first such
//! width gives the plan its rank order: one backward pass computes each
//! gate's downstream priority, and stable least-significant-digit radix
//! passes over 11-bit digits of `critical path − priority`, starting
//! from program order, rank every gate by `(priority desc, index asc)`:
//! a stable pass keeps equal keys in index order. A critical path of
//! `bits` bits takes ⌈bits/11⌉ passes, each a counting pass and a
//! scatter over the previous order that read the digit straight from
//! the priorities, so no key vector is built. Ready
//! gates then live in an [`IndexSet`] over ranks, so the next launch is
//! its minimum, at most ⌈log₆₄ n⌉ word operations, where a heap of
//! ready gates pays a logarithmic pop on a ready set that runs about a
//! thousand deep on a wide Draper adder.
//!
//! # Completion ring
//!
//! Running gates sit in a ring of `max weight.next_power_of_two()`
//! slots, one per finish time modulo the ring length: every running
//! gate finishes in `now + 1..=now + max weight`, that many consecutive
//! times, so no two finish times share a slot, and the next completion
//! is the first non-empty slot after `now`. Gates finishing together are
//! released in any order, which decides nothing: every release only
//! fills the ready set before the next launch round. The ring is at
//! most twice as long as the ASAP occupancy series the plan has already
//! allocated, since the critical path is at least the largest weight.
//!
//! # Two sinks
//!
//! One run loop serves two callers. [`SchedulePlan::costs`] keeps only
//! the makespan and the peak (the most gates running after any launch
//! round, which is the occupancy series' maximum), and the ASAP exit
//! answers it from the plan alone. [`SchedulePlan::schedule`] also
//! records every start time and builds the occupancy series, for the
//! profiles of Fig 2. [`Width::utilization`] prices both.
//!
//! Every path makes the same decisions as a reference list scheduler
//! over tuple heaps with no exit: `schedule::tests` runs one plan at
//! widths on both sides of the ASAP peak, in ascending and descending
//! order, against it.

use std::sync::OnceLock;

use crate::dag::DependencyDag;
use crate::gate::Gate;
use crate::index_set::IndexSet;

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

    /// Mean compute-block utilization of a run at this width:
    /// work / (blocks × makespan).
    ///
    /// For [`Width::Unlimited`] the denominator uses the run's peak
    /// parallelism (the hardware a sea-of-qubits machine would have had
    /// to provision).
    ///
    /// Empty runs report `0.0` rather than the `0/0` the formula would
    /// produce, and a single-gate run under [`Width::Unlimited`] reports
    /// exactly `1.0` (one slot, fully busy) — neither edge divides by
    /// zero.
    #[must_use]
    pub fn utilization(self, total_work: u64, makespan: u64, peak: usize) -> f64 {
        if makespan == 0 || total_work == 0 {
            return 0.0;
        }
        let slots = match self {
            Self::Blocks(b) => b.max(1),
            Self::Unlimited => peak.max(1),
        };
        total_work as f64 / (slots as f64 * makespan as f64)
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

    /// Mean compute-block utilization: [`Width::utilization`] of this
    /// schedule.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.width
            .utilization(self.total_work, self.makespan, self.peak_parallelism())
    }
}

/// List scheduler over a dependency DAG.
///
/// Ready gates are prioritized by remaining downstream critical path
/// (longest first), breaking ties by program order, which keeps schedules
/// deterministic. [`ListScheduler::schedule`] schedules one width; a
/// caller that schedules one DAG at many widths builds a
/// [`SchedulePlan`] once and runs it per width.
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
    /// durations from `weight`: a one-shot [`SchedulePlan`].
    ///
    /// # Panics
    ///
    /// Panics if `width` is `Blocks(0)` or any weight is zero, or as
    /// [`SchedulePlan::new`] and [`SchedulePlan::schedule`] do when the
    /// occupancy series does not fit in memory.
    #[must_use]
    pub fn schedule<W: Fn(&Gate) -> u64>(&self, width: Width, weight: W) -> Schedule {
        SchedulePlan::new(self.dag, weight).schedule(self.dag, width)
    }
}

/// The width-independent part of list-scheduling one DAG under one
/// weight function: built once, it schedules any number of widths.
///
/// It holds the gate weights and total work, the ASAP schedule (start
/// times, critical path and peak) and, once a width binds, the rank
/// order. A run at a width the ASAP peak fits is the ASAP schedule; any
/// other run pops ready gates in rank order.
///
/// # Examples
///
/// ```
/// use cqla_circuit::{Circuit, DependencyDag, ListScheduler, SchedulePlan, Width};
///
/// let mut c = Circuit::new(8);
/// for i in 0..4 {
///     c.cnot(2 * i, 2 * i + 1);
/// }
/// let dag = DependencyDag::new(&c);
/// let plan = SchedulePlan::new(&dag, |_| 1);
/// assert_eq!(plan.asap_peak(), 4);
/// for b in 1..=5 {
///     let width = Width::Blocks(b);
///     let once = ListScheduler::new(&dag).schedule(width, |_| 1);
///     assert_eq!(plan.schedule(&dag, width), once);
///     assert_eq!(plan.costs(&dag, width), (once.makespan(), once.peak_parallelism()));
/// }
/// ```
#[derive(Debug)]
pub struct SchedulePlan {
    /// The DAG's edge count, checked with the gate count on every run.
    edges: usize,
    weights: Vec<u64>,
    total_work: u64,
    critical_path: u64,
    depth: usize,
    asap_starts: Vec<u64>,
    asap_peak: usize,
    /// Slots of a binding run's completion ring: the largest weight,
    /// rounded up to a power of two.
    ring_len: usize,
    ranks: OnceLock<Ranks>,
}

impl SchedulePlan {
    /// Weighs every gate of `dag` and runs the ASAP pass: program order
    /// is a topological order, so one forward pass gives every gate its
    /// start (the latest finish among its predecessors), the critical
    /// path and the unit-gate depth, and a +1/−1 sweep gives the peak of
    /// the occupancy.
    ///
    /// # Panics
    ///
    /// Panics if any weight is zero, or if the ASAP occupancy series —
    /// one `usize` per time unit of the critical path — cannot be
    /// allocated; the message names the makespan. Two-qubit-gate
    /// weights keep the series to a few bytes per gate, but weights in
    /// the billions can ask for more than the address space.
    #[must_use]
    pub fn new<W: Fn(&Gate) -> u64>(dag: &DependencyDag, weight: W) -> Self {
        let n = dag.num_gates();
        let weights: Vec<u64> = dag.gates().iter().map(weight).collect();
        assert!(
            weights.iter().all(|&w| w > 0),
            "gate weights must be positive"
        );
        let total_work = weights.iter().sum();
        let mut asap_starts = vec![0u64; n];
        let mut critical_path = 0u64;
        // Unit-gate ASAP levels ride along for the depth.
        let mut levels = vec![0u32; n];
        let mut depth = 0u32;
        for i in 0..n {
            let (mut start, mut level) = (0, 0);
            for &p in dag.predecessors(i) {
                let p = p as usize;
                start = start.max(asap_starts[p] + weights[p]);
                level = level.max(levels[p] + 1);
            }
            asap_starts[i] = start;
            levels[i] = level;
            critical_path = critical_path.max(start + weights[i]);
            depth = depth.max(level + 1);
        }
        let (_, asap_peak) = occupancy(&asap_starts, &weights, critical_path);
        // The series just allocated holds `critical_path + 1` entries,
        // and no weight exceeds the critical path, so the ring is at
        // most twice its length.
        let max_weight = weights.iter().copied().max().unwrap_or(0);
        Self {
            edges: dag.num_edges(),
            weights,
            total_work,
            critical_path,
            depth: depth as usize,
            asap_starts,
            asap_peak,
            ring_len: (max_weight as usize).next_power_of_two(),
            ranks: OnceLock::new(),
        }
    }

    /// The DAG's depth in unit-gate layers, whatever the weights:
    /// [`DependencyDag::depth`] without another pass.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Longest weighted dependency chain: the makespan at every width
    /// the ASAP peak fits, and a lower bound at every other.
    #[must_use]
    pub fn critical_path(&self) -> u64 {
        self.critical_path
    }

    /// Sum of all gate weights.
    #[must_use]
    pub fn total_work(&self) -> u64 {
        self.total_work
    }

    /// Peak concurrent gates of the ASAP schedule: the narrowest width
    /// that never binds.
    #[must_use]
    pub fn asap_peak(&self) -> usize {
        self.asap_peak
    }

    /// Builds the rank order now if `width` binds and no earlier run
    /// built it; returns whether this call built it. Runs build it on
    /// their own: this only lets a caller count rank builds in tests.
    ///
    /// # Panics
    ///
    /// As [`SchedulePlan::schedule`].
    #[doc(hidden)]
    pub fn build_ranks(&self, dag: &DependencyDag, width: Width) -> bool {
        let mut built = false;
        if self.binds(dag, width) {
            self.ranks.get_or_init(|| {
                built = true;
                Ranks::new(dag, self)
            });
        }
        built
    }

    /// `(makespan, peak parallelism)` of the schedule at `width`,
    /// without building it: the costs pass. A width the ASAP peak fits
    /// answers `(critical path, ASAP peak)` from the plan; a binding
    /// width runs the list scheduler and records no start time.
    ///
    /// # Panics
    ///
    /// Panics if `width` is `Blocks(0)`, or if `dag`'s gate or edge
    /// count differs from the plan's DAG (see [`SchedulePlan::schedule`]).
    #[must_use]
    pub fn costs(&self, dag: &DependencyDag, width: Width) -> (u64, usize) {
        if !self.binds(dag, width) {
            return (self.critical_path, self.asap_peak);
        }
        let ranks = self.ranks.get_or_init(|| Ranks::new(dag, self));
        self.run(dag, ranks, width.cap(), |_, _| {})
    }

    /// The schedule at `width`, leaving the plan ready for more widths.
    ///
    /// # Panics
    ///
    /// Panics if `width` is `Blocks(0)`, or if `dag`'s gate or edge
    /// count differs from the plan's DAG. Only the counts are checked:
    /// another DAG with the same counts runs on this plan's ASAP times
    /// and ranks. Panics, naming the makespan, if the occupancy series
    /// cannot be allocated (see [`SchedulePlan::new`]).
    #[must_use]
    pub fn schedule(&self, dag: &DependencyDag, width: Width) -> Schedule {
        let (makespan, start_times) = if self.binds(dag, width) {
            let ranks = self.ranks.get_or_init(|| Ranks::new(dag, self));
            let mut start_times = vec![0u64; self.weights.len()];
            let (makespan, _) = self.run(dag, ranks, width.cap(), |i, now| start_times[i] = now);
            (makespan, start_times)
        } else {
            (self.critical_path, self.asap_starts.clone())
        };
        let (occupancy, _) = occupancy(&start_times, &self.weights, makespan);
        Schedule {
            width,
            makespan,
            critical_path: self.critical_path,
            total_work: self.total_work,
            start_times,
            occupancy,
        }
    }

    /// Whether `width` binds: the ASAP peak exceeds it.
    fn binds(&self, dag: &DependencyDag, width: Width) -> bool {
        assert!(
            (dag.num_gates(), dag.num_edges()) == (self.weights.len(), self.edges),
            "the DAG is not the plan's"
        );
        self.asap_peak > width.cap()
    }

    /// The list scheduler on `cap` slots: ready gates sit in an
    /// [`IndexSet`] over ranks, so the next launch is its minimum, and
    /// running gates in the completion ring. Hands each launch to
    /// `launched` as `(gate, start)` and returns `(makespan, peak)`.
    fn run(
        &self,
        dag: &DependencyDag,
        ranks: &Ranks,
        cap: usize,
        mut launched: impl FnMut(usize, u64),
    ) -> (u64, usize) {
        let n = self.weights.len();
        // At most one predecessor per operand, and gates have at most
        // three operands.
        let mut indegree: Vec<u8> = (0..n).map(|i| dag.predecessors(i).len() as u8).collect();
        let mut ready = IndexSet::new(n);
        for (i, &d) in indegree.iter().enumerate() {
            if d == 0 {
                ready.insert(ranks.rank_of[i] as usize);
            }
        }
        let mask = self.ring_len - 1;
        let mut ring: Vec<Vec<u32>> = vec![Vec::new(); self.ring_len];
        let (mut busy, mut peak, mut now, mut scheduled) = (0usize, 0usize, 0u64, 0usize);
        loop {
            // Launch as many ready gates as slots allow, best rank first.
            while busy < cap {
                let Some(rank) = ready.first() else {
                    break;
                };
                ready.remove(rank);
                let i = ranks.gate_at[rank] as usize;
                launched(i, now);
                ring[(now + self.weights[i]) as usize & mask].push(i as u32);
                busy += 1;
                scheduled += 1;
            }
            peak = peak.max(busy);
            if busy == 0 {
                // The last completion was the makespan.
                assert_eq!(scheduled, n, "deadlock: gates remain but none running");
                return (now, peak);
            }
            // Advance to the next completion and release its gates.
            now += 1;
            while ring[now as usize & mask].is_empty() {
                now += 1;
            }
            let slot = now as usize & mask;
            let mut finished = std::mem::take(&mut ring[slot]);
            busy -= finished.len();
            for &g in &finished {
                for &s in dag.successors(g as usize) {
                    let s = s as usize;
                    indegree[s] -= 1;
                    if indegree[s] == 0 {
                        ready.insert(ranks.rank_of[s] as usize);
                    }
                }
            }
            finished.clear();
            ring[slot] = finished;
        }
    }
}

/// The list-scheduling order of a DAG's gates: rank 0 is the longest
/// downstream critical path, ties going to program order.
#[derive(Debug)]
struct Ranks {
    /// The rank of each gate.
    rank_of: Vec<u32>,
    /// The gate at each rank.
    gate_at: Vec<u32>,
}

impl Ranks {
    /// Computes every gate's [`downstream_priority`] in one backward
    /// pass, then ranks the gates by [`rank_order`].
    fn new(dag: &DependencyDag, plan: &SchedulePlan) -> Self {
        let n = plan.weights.len();
        let priority = downstream_priority(dag, &plan.weights);
        let gate_at = rank_order(&priority, plan.critical_path);
        let mut rank_of = vec![0u32; n];
        for (rank, &g) in gate_at.iter().enumerate() {
            rank_of[g as usize] = rank as u32;
        }
        Self { rank_of, gate_at }
    }
}

/// Bits per digit of [`rank_order`]'s radix passes: 2^11 counters fit
/// in L1.
const RADIX_BITS: u32 = 11;

/// The gates ordered by `(critical_path − priority, index)` ascending,
/// that is by priority descending, ties in program order. Stable
/// least-significant-digit radix passes over 11-bit digits start from
/// program order, so equal keys keep their index order. Every key is at
/// most `critical_path`, so ⌈bits/11⌉ passes over the `bits` bits of
/// `critical_path` order them all; each pass reads its digit from
/// `priority` and builds no key vector.
fn rank_order(priority: &[u64], critical_path: u64) -> Vec<u32> {
    let n = priority.len();
    let digit_mask = (1u64 << RADIX_BITS) - 1;
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut next = vec![0u32; n];
    let mut starts = vec![0u32; 1 << RADIX_BITS];
    let bits = u64::BITS - critical_path.leading_zeros();
    for pass in 0..bits.div_ceil(RADIX_BITS) {
        let shift = pass * RADIX_BITS;
        let digit =
            |g: u32| (((critical_path - priority[g as usize]) >> shift) & digit_mask) as usize;
        starts.fill(0);
        for &g in &order {
            starts[digit(g)] += 1;
        }
        let mut sum = 0;
        for slot in &mut starts {
            let count = *slot;
            *slot = sum;
            sum += count;
        }
        for &g in &order {
            let slot = &mut starts[digit(g)];
            next[*slot as usize] = g;
            *slot += 1;
        }
        std::mem::swap(&mut order, &mut next);
    }
    order
}

/// Remaining critical path from each gate to the DAG's exit: its weight
/// plus the longest priority among its successors, the standard
/// list-scheduling priority.
fn downstream_priority(dag: &DependencyDag, weights: &[u64]) -> Vec<u64> {
    let mut priority = vec![0u64; weights.len()];
    for i in (0..weights.len()).rev() {
        let tail = dag
            .successors(i)
            .iter()
            .map(|&s| priority[s as usize])
            .max()
            .unwrap_or(0);
        priority[i] = tail + weights[i];
    }
    priority
}

/// The number of gates running in each time unit of `0..makespan`,
/// and its peak: a +1/−1 sweep over the start and finish times, summed
/// in place. A slot's delta may wrap below zero, so every step wraps,
/// but each prefix sum is a count of running gates, so the sums are
/// exact.
///
/// # Panics
///
/// Panics, naming the makespan, if the series cannot be allocated: the
/// reservation is tried first, so a makespan past the address space
/// fails without touching memory rather than aborting the process.
fn occupancy(start_times: &[u64], weights: &[u64], makespan: u64) -> (Vec<usize>, usize) {
    let mut occupancy: Vec<usize> = Vec::new();
    let len = usize::try_from(makespan)
        .ok()
        .and_then(|m| m.checked_add(1));
    match len {
        Some(len) if occupancy.try_reserve_exact(len).is_ok() => occupancy.resize(len, 0),
        _ => panic!("the occupancy series of makespan {makespan} cannot be allocated"),
    }
    for (&start, &w) in start_times.iter().zip(weights) {
        let slot = &mut occupancy[start as usize];
        *slot = slot.wrapping_add(1);
        let slot = &mut occupancy[(start + w) as usize];
        *slot = slot.wrapping_sub(1);
    }
    occupancy.pop();
    let (mut running, mut peak) = (0usize, 0usize);
    for slot in &mut occupancy {
        running = running.wrapping_add(*slot);
        *slot = running;
        peak = peak.max(running);
    }
    (occupancy, peak)
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

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
                        s.start_times()[i] > s.start_times()[p as usize],
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
    /// with no ASAP exit: the oracle the exit, the rank-ordered ready
    /// set and the completion ring must agree with.
    fn reference_schedule(dag: &DependencyDag, width: Width, weight: fn(&Gate) -> u64) -> Schedule {
        let n = dag.num_gates();
        let cap = width.cap();
        let weights: Vec<u64> = dag.gates().iter().map(weight).collect();
        // Longest weighted path from each gate to a sink, by a memoized
        // depth-first walk over the successor lists.
        fn longest_tail(dag: &DependencyDag, weights: &[u64], memo: &mut [u64], i: usize) -> u64 {
            if memo[i] == 0 {
                let mut tail = 0;
                for &s in dag.successors(i) {
                    tail = tail.max(longest_tail(dag, weights, memo, s as usize));
                }
                memo[i] = weights[i] + tail;
            }
            memo[i]
        }
        let mut priority = vec![0u64; n];
        for i in (0..n).rev() {
            longest_tail(dag, &weights, &mut priority, i);
        }
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
                    let s = s as usize;
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
        let mut next = |bound: u32| (splitmix64(&mut state) % u64::from(bound)) as u32;
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

    /// The next SplitMix64 output of `state`.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Two-qubit-gate weights scaled up and jittered, so priorities and
    /// finish times run far past the gate count and wrap the completion
    /// ring many times. (The scale stays modest: the occupancy series holds
    /// one entry per time unit.)
    fn heavy(g: &Gate) -> u64 {
        64 * g.two_qubit_gate_equivalents() + u64::from(g.qubit_array().0[0].index() % 5)
    }

    /// `layers` layers of CNOTs on disjoint neighbouring pairs of
    /// `qubits` qubits, every other layer shifted by one: all gates of a
    /// layer share one downstream priority.
    fn tie_heavy(qubits: u32, layers: u32) -> Circuit {
        let mut c = Circuit::new(qubits);
        for layer in 0..layers {
            for pair in 0..qubits / 2 {
                let a = (2 * pair + layer % 2) % qubits;
                c.cnot(a, (a + 1) % qubits);
            }
        }
        c
    }

    #[test]
    fn the_plan_makes_every_decision_the_tuple_heaps_make() {
        let circuits = (0..24).map(|seed| {
            let qubits = [3, 8, 16, 64][seed as usize % 4];
            random_circuit(qubits, 32 * (seed as usize + 1), seed)
        });
        for c in std::iter::once(Circuit::new(4)).chain(circuits) {
            let lowered = crate::decompose_toffolis(&c);
            let ties = tie_heavy(c.num_qubits(), 12);
            for (circuit, weight) in [
                (&lowered, unit as fn(&Gate) -> u64),
                (&c, Gate::two_qubit_gate_equivalents as fn(&Gate) -> u64),
                (&c, heavy as fn(&Gate) -> u64),
                (&ties, unit as fn(&Gate) -> u64),
            ] {
                let dag = DependencyDag::new(circuit);
                // The ASAP peak is the narrowest width that takes the
                // exit; one block fewer makes decisions.
                let peak = reference_schedule(&dag, Width::Unlimited, weight).peak_parallelism();
                let widths: Vec<Width> = [1, 2, 9, 36, peak.saturating_sub(1), peak]
                    .into_iter()
                    .filter(|&b| b > 0)
                    .map(Width::Blocks)
                    .chain([Width::Unlimited])
                    .collect();
                let want: Vec<Schedule> = widths
                    .iter()
                    .map(|&width| reference_schedule(&dag, width, weight))
                    .collect();
                for descending in [false, true] {
                    let plan = SchedulePlan::new(&dag, weight);
                    assert_eq!(plan.asap_peak(), peak);
                    assert_eq!(plan.depth(), dag.depth());
                    let mut order: Vec<usize> = (0..widths.len()).collect();
                    if descending {
                        order.reverse();
                    }
                    for k in order {
                        let case = format!("{} gates at {}", circuit.len(), widths[k]);
                        // The costs pass runs first, so at the first
                        // binding width it builds the ranks.
                        let (makespan, peak) = plan.costs(&dag, widths[k]);
                        let s = plan.schedule(&dag, widths[k]);
                        assert_eq!(s, want[k], "{case}");
                        assert_eq!(s.utilization(), want[k].utilization(), "{case}");
                        assert_eq!(
                            (makespan, peak),
                            (s.makespan(), s.peak_parallelism()),
                            "{case}"
                        );
                        assert_eq!(
                            widths[k]
                                .utilization(plan.total_work(), makespan, peak)
                                .to_bits(),
                            s.utilization().to_bits(),
                            "{case}"
                        );
                        assert_eq!(plan.critical_path(), s.critical_path(), "{case}");
                        assert_eq!(plan.total_work(), s.total_work(), "{case}");
                        let once = ListScheduler::new(&dag).schedule(widths[k], weight);
                        assert_eq!(once, want[k], "{case}, one-shot");
                    }
                    // Exactly the plans some width binds built ranks.
                    assert_eq!(plan.ranks.get().is_some(), peak > 1);
                    assert!(!plan.build_ranks(&dag, Width::Blocks(1)));
                }
            }
        }
    }

    /// Bits a gate index takes in a packed `u64` key whose high bits
    /// hold a priority: the keys a sort checks [`rank_order`] against.
    fn index_shift(n: usize) -> u32 {
        usize::BITS - n.saturating_sub(1).leading_zeros()
    }

    #[test]
    fn radix_ranks_match_a_sort_of_packed_keys() {
        let mut state = 0x5eed_u64;
        let mut next = || splitmix64(&mut state);
        for n in [1usize, 2, 100, 5000] {
            let shift = index_shift(n);
            // One, one, two and three 11-bit passes, then the widest
            // critical path the packed keys hold.
            let top = u64::MAX >> shift;
            for critical_path in [1, (1 << 11) - 1, 1 << 11, (1 << 22) + 1, top - 1, top] {
                // Mostly distinct priorities, then three values (many
                // ties); each run includes the critical path itself.
                for ties in [false, true] {
                    let mut priority: Vec<u64> = (0..n)
                        .map(|_| match ties {
                            false => next() % critical_path,
                            true => [0, critical_path / 2, critical_path][next() as usize % 3],
                        })
                        .collect();
                    priority[0] = critical_path;
                    let mut keys: Vec<u64> = priority
                        .iter()
                        .enumerate()
                        .map(|(i, &p)| ((critical_path - p) << shift) | i as u64)
                        .collect();
                    keys.sort_unstable();
                    let low = (1u64 << shift) - 1;
                    let want: Vec<u32> = keys.iter().map(|&k| (k & low) as u32).collect();
                    assert_eq!(
                        rank_order(&priority, critical_path),
                        want,
                        "{n} gates, critical path {critical_path}, ties {ties}"
                    );
                }
            }
        }
        assert!(rank_order(&[], 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "the occupancy series of makespan")]
    fn a_makespan_past_the_address_space_panics_without_allocating() {
        // 2^40 time units per two-qubit gate: the series would take
        // past 2^47 bytes, so the reservation fails up front.
        let dag = DependencyDag::new(&random_circuit(16, 768, 1));
        let _ = SchedulePlan::new(&dag, |g| (1 << 40) * g.two_qubit_gate_equivalents());
    }

    #[test]
    fn rank_builds_wait_for_a_width_that_binds() {
        let dag = DependencyDag::new(&diamond());
        let plan = SchedulePlan::new(&dag, unit);
        assert_eq!(plan.asap_peak(), 2);
        assert!(!plan.build_ranks(&dag, Width::Unlimited));
        assert!(!plan.build_ranks(&dag, Width::Blocks(2)));
        let _ = plan.schedule(&dag, Width::Blocks(2));
        assert!(plan.ranks.get().is_none());
        assert!(plan.build_ranks(&dag, Width::Blocks(1)));
        assert!(!plan.build_ranks(&dag, Width::Blocks(1)));
    }

    #[test]
    #[should_panic(expected = "the DAG is not the plan's")]
    fn a_plan_runs_only_on_its_own_dag() {
        let dag = DependencyDag::new(&diamond());
        let plan = SchedulePlan::new(&dag, unit);
        // Four gates like the diamond's, but with no edges.
        let mut other = Circuit::new(8);
        for i in 0..4 {
            other.cnot(2 * i, 2 * i + 1);
        }
        let _ = plan.schedule(&DependencyDag::new(&other), Width::Blocks(1));
    }

    #[test]
    fn downstream_priority_decreases_along_chains() {
        let mut c = Circuit::new(2);
        for _ in 0..3 {
            c.cnot(0, 1);
        }
        let dag = DependencyDag::new(&c);
        assert_eq!(downstream_priority(&dag, &[1, 1, 1]), vec![3, 2, 1]);
    }

    #[test]
    fn display_width() {
        assert_eq!(Width::Unlimited.to_string(), "unlimited");
        assert_eq!(Width::Blocks(15).to_string(), "15 blocks");
    }
}

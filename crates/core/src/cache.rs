//! The quantum cache simulator (paper §5.2, Fig 7).
//!
//! "To study the behavior of the CQLA with a cache and multiple encoding
//! levels, we developed a simulator that models a cache" — this is that
//! simulator. Instructions come from an assembly-level stream; operands
//! live either in the level-1 cache or in level-2 memory; replacement is
//! least-recently-used. Two instruction-fetch policies are modeled:
//!
//! * [`FetchPolicy::InOrder`] — issue in program order (the paper's
//!   non-optimized baseline, ~20% hit rate),
//! * [`FetchPolicy::OptimizedLookahead`] — the paper's optimization: the
//!   whole program is the fetch window; a dependency list is built and the
//!   next instruction is chosen to maximize the probability that all its
//!   operands are already cached (~85% hit rate).
//!
//! Eviction is the only way the fetch order can change a count. A run
//! whose register fits the cache never evicts, so [`CacheSim::run`] and
//! [`CacheSim::run_optimized`] price it in one pass over the operands,
//! under either policy: each touched qubit misses once (a fetch if
//! memory-resident, an allocation otherwise) and every later access
//! hits. [`CacheRun`] holds counts only; the execution order a policy
//! chooses is read through [`CacheSim::trace`], which always runs it.
//!
//! A run copies no operands: it borrows the gates (the circuit's, or the
//! DAG's through [`DependencyDag::gates`]) and reads each gate's operands
//! in place with [`Gate::qubit_array`] on every access.

use std::borrow::Cow;

use cqla_circuit::{Circuit, DependencyDag, Gate, IndexSet, QubitId};

/// Instruction-fetch policy of the cache simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchPolicy {
    /// Program order.
    InOrder,
    /// Dependency-aware selection maximizing cached operands (static
    /// scheduling over the full program window).
    OptimizedLookahead,
}

impl core::fmt::Display for FetchPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::InOrder => write!(f, "in-order"),
            Self::OptimizedLookahead => write!(f, "optimized"),
        }
    }
}

/// Where a qubit currently lives, from the cache's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Residence {
    /// Never touched yet — created in the cache on first use (no
    /// transfer).
    Unborn,
    /// In level-2 memory — touching it costs a code transfer.
    Memory,
    /// In the level-1 cache.
    Cached,
}

/// One executed instruction in a [`CacheTrace`]: its index in the source
/// circuit and how many of its operands had to be fetched from level-2
/// memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// Instruction index in the source circuit.
    pub instr: usize,
    /// Operands fetched from memory (0..=3).
    pub fetches: u8,
}

/// A per-instruction execution trace: the input the event-driven pipeline
/// simulator replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheTrace {
    steps: Vec<TraceStep>,
}

impl CacheTrace {
    /// The executed steps in order.
    #[must_use]
    pub fn steps(&self) -> &[TraceStep] {
        &self.steps
    }

    /// Total memory fetches across the trace.
    #[must_use]
    pub fn total_fetches(&self) -> u64 {
        self.steps.iter().map(|s| u64::from(s.fetches)).sum()
    }
}

/// Outcome of one simulated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheRun {
    /// Operand accesses that found their qubit cached.
    hits: u64,
    /// Accesses that had to pull the qubit from level-2 memory.
    fetch_misses: u64,
    /// Fetch misses of the final repetition alone.
    last_fetch_misses: u64,
    /// First-touch allocations (scratch created directly in cache).
    allocations: u64,
}

impl CacheRun {
    /// Operand accesses that hit the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Operand accesses served from level-2 memory (each one is a code
    /// transfer the hierarchy must pay for).
    #[must_use]
    pub fn fetch_misses(&self) -> u64 {
        self.fetch_misses
    }

    /// Fetch misses of the last repetition only: the per-execution
    /// transfer cost once the earlier repetitions have warmed the cache.
    /// The simulation is deterministic, so this equals the difference
    /// between an `r`- and an `(r - 1)`-repetition run's
    /// [`CacheRun::fetch_misses`].
    #[must_use]
    pub fn last_fetch_misses(&self) -> u64 {
        self.last_fetch_misses
    }

    /// First-touch allocations (no transfer).
    #[must_use]
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Total operand accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.fetch_misses + self.allocations
    }

    /// Cache hit rate over all operand accesses (the Fig 7 metric).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

/// The cache simulator.
///
/// # Examples
///
/// ```
/// use cqla_core::{CacheSim, FetchPolicy};
/// use cqla_workloads::DraperAdder;
///
/// let adder = DraperAdder::new(64);
/// let circuit = adder.circuit();
/// let sim = CacheSim::new(128);
/// let inorder = sim.run(&circuit, FetchPolicy::InOrder, &[], 1);
/// let optimized = sim.run(&circuit, FetchPolicy::OptimizedLookahead, &[], 1);
/// // The paper's central cache result: fetch policy, not size, drives the
/// // hit rate.
/// assert!(optimized.hit_rate() > inorder.hit_rate() + 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct CacheSim {
    capacity: usize,
}

impl CacheSim {
    /// Creates a simulator with a cache holding `capacity` logical qubits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self { capacity }
    }

    /// Cache capacity in logical qubits.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Runs `repetitions` back-to-back executions of `circuit` (cache state
    /// persisting across repetitions, as in repeated additions of a modular
    /// exponentiation).
    ///
    /// `memory_resident` lists the qubits that start in level-2 memory
    /// (application inputs); all other qubits are scratch born in the
    /// cache on first touch. Evicted qubits of either kind return to
    /// memory.
    ///
    /// If the register fits the cache (`num_qubits <= capacity`), nothing
    /// can be evicted and the counts do not depend on the order: each
    /// touched qubit costs one fetch miss (memory-resident) or one
    /// allocation (scratch) on its first access, every later access hits,
    /// and no DAG is built. The order a policy chooses is read through
    /// [`CacheSim::trace`].
    ///
    /// # Panics
    ///
    /// Panics if `repetitions` is zero.
    #[must_use]
    pub fn run(
        &self,
        circuit: &Circuit,
        policy: FetchPolicy,
        memory_resident: &[QubitId],
        repetitions: u32,
    ) -> CacheRun {
        // A run that cannot evict never consults the fetch order.
        let policy = if self.fits(circuit.num_qubits() as usize) {
            FetchPolicy::InOrder
        } else {
            policy
        };
        self.simulate(
            &Program::of_circuit(circuit, policy),
            memory_resident,
            repetitions,
        )
    }

    /// [`CacheSim::run`] under [`FetchPolicy::OptimizedLookahead`] over
    /// the circuit of an already built dependency DAG, which the fetch
    /// selects over directly: a caller that also schedules the circuit
    /// builds its DAG once. A register that fits the cache takes the
    /// same one-pass count as [`CacheSim::run`].
    ///
    /// # Panics
    ///
    /// Panics if `repetitions` is zero.
    #[must_use]
    pub fn run_optimized(
        &self,
        dag: &DependencyDag,
        memory_resident: &[QubitId],
        repetitions: u32,
    ) -> CacheRun {
        self.simulate(&Program::of_dag(dag), memory_resident, repetitions)
    }

    fn simulate(
        &self,
        program: &Program,
        memory_resident: &[QubitId],
        repetitions: u32,
    ) -> CacheRun {
        assert!(repetitions > 0, "at least one repetition required");
        if self.fits(program.num_qubits) {
            return program.without_eviction(memory_resident, repetitions);
        }
        let mut state = CacheState::new(self.capacity, program.num_qubits, memory_resident);
        let (mut hits, mut fetch_misses, mut allocations) = (0u64, 0u64, 0u64);
        let mut last_fetch_misses = 0;

        for _ in 0..repetitions {
            let before = fetch_misses;
            program.execute(&mut state, |_, kinds| {
                for kind in kinds {
                    match kind {
                        AccessKind::Hit => hits += 1,
                        AccessKind::FetchMiss => fetch_misses += 1,
                        AccessKind::Allocation => allocations += 1,
                    }
                }
            });
            last_fetch_misses = fetch_misses - before;
        }
        CacheRun {
            hits,
            fetch_misses,
            last_fetch_misses,
            allocations,
        }
    }

    /// Whether a register of `num_qubits` fits the cache, so that no
    /// access can evict: a miss finds fewer than `num_qubits`, hence
    /// fewer than `capacity`, qubits cached.
    fn fits(&self, num_qubits: usize) -> bool {
        num_qubits <= self.capacity
    }

    /// Like [`CacheSim::run`], but records the execution order the policy
    /// chooses and how many operands each executed instruction fetched
    /// from memory — the input the event-driven pipeline simulator needs.
    /// Runs `warmup` repetitions first (untraced) and traces one more;
    /// the policy runs even when the register fits the cache.
    #[must_use]
    pub fn trace(
        &self,
        circuit: &Circuit,
        policy: FetchPolicy,
        memory_resident: &[QubitId],
        warmup: u32,
    ) -> CacheTrace {
        let program = Program::of_circuit(circuit, policy);
        let mut state = CacheState::new(self.capacity, program.num_qubits, memory_resident);
        for _ in 0..warmup {
            program.execute(&mut state, |_, _| {});
        }
        let mut steps = Vec::with_capacity(circuit.len());
        program.execute(&mut state, |instr, kinds| {
            let fetches = kinds
                .iter()
                .filter(|&&k| k == AccessKind::FetchMiss)
                .count();
            steps.push(TraceStep {
                instr,
                fetches: fetches as u8,
            });
        });
        CacheTrace { steps }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessKind {
    Hit,
    FetchMiss,
    Allocation,
}

/// Most operands any gate has (Toffoli).
const MAX_ARITY: usize = 3;

/// The qubit indices of `gate`'s operands, read in place: the first
/// `arity` entries of the array.
fn operands(gate: &Gate) -> ([u32; MAX_ARITY], usize) {
    let (qubits, arity) = gate.qubit_array();
    (qubits.map(QubitId::index), arity)
}

/// A circuit prepared once per simulation: its gates, borrowed from the
/// circuit or the DAG (every access reads a gate's operands in place),
/// plus — for the optimized policy — the dependency DAG every
/// repetition selects over.
struct Program<'a> {
    gates: &'a [Gate],
    num_qubits: usize,
    dag: Option<Cow<'a, DependencyDag>>,
}

impl<'a> Program<'a> {
    /// `circuit` under `policy`, building its DAG if the policy needs it.
    fn of_circuit(circuit: &'a Circuit, policy: FetchPolicy) -> Self {
        let dag = (policy == FetchPolicy::OptimizedLookahead)
            .then(|| Cow::Owned(DependencyDag::new(circuit)));
        Self {
            gates: circuit.gates(),
            num_qubits: circuit.num_qubits() as usize,
            dag,
        }
    }

    /// The circuit of `dag` under the optimized policy, borrowing the DAG.
    fn of_dag(dag: &'a DependencyDag) -> Self {
        Self {
            gates: dag.gates(),
            num_qubits: dag.num_qubits() as usize,
            dag: Some(Cow::Borrowed(dag)),
        }
    }

    /// The counts of `repetitions` executions that cannot evict, in one
    /// pass over the gates: the first access to each qubit is a fetch
    /// miss (memory-resident) or an allocation (scratch), every other
    /// access hits. A qubit stays cached once touched, so later
    /// repetitions only hit.
    fn without_eviction(&self, memory_resident: &[QubitId], repetitions: u32) -> CacheRun {
        let mut residence = vec![Residence::Unborn; self.num_qubits];
        for q in memory_resident {
            residence[q.index() as usize] = Residence::Memory;
        }
        let (mut operand_count, mut fetch_misses, mut allocations) = (0u64, 0u64, 0u64);
        for gate in self.gates {
            let (operands, arity) = operands(gate);
            operand_count += arity as u64;
            for &q in &operands[..arity] {
                match std::mem::replace(&mut residence[q as usize], Residence::Cached) {
                    Residence::Memory => fetch_misses += 1,
                    Residence::Unborn => allocations += 1,
                    Residence::Cached => {}
                }
            }
        }
        let accesses = operand_count * u64::from(repetitions);
        CacheRun {
            hits: accesses - fetch_misses - allocations,
            fetch_misses,
            last_fetch_misses: if repetitions == 1 { fetch_misses } else { 0 },
            allocations,
        }
    }

    /// Executes the stream once against `state`, calling `visit` with
    /// each executed instruction and the outcome of its operand accesses,
    /// in execution order.
    fn execute(&self, state: &mut CacheState, mut visit: impl FnMut(usize, &[AccessKind])) {
        match &self.dag {
            None => {
                let mut kinds = [AccessKind::Hit; MAX_ARITY];
                for (i, gate) in self.gates.iter().enumerate() {
                    let (operands, arity) = operands(gate);
                    for (kind, &q) in kinds.iter_mut().zip(&operands[..arity]) {
                        *kind = state.access(q).0;
                    }
                    visit(i, &kinds[..arity]);
                }
            }
            Some(dag) => self.execute_optimized(dag, state, visit),
        }
    }

    /// The paper's optimized fetch: repeatedly execute the
    /// dependency-ready instruction with the most operands currently
    /// cached (ties to the earliest instruction), so later picks see the
    /// cache effects of earlier ones.
    ///
    /// The selection key is `(fully cached, cached operands, earliest)`.
    /// Rather than rescoring every ready instruction per pick (quadratic
    /// in the window), the ready set lives in one [`IndexSet`] bucket per
    /// `(full, cached)` score, and only instructions whose operands
    /// changed residence — the picked gate's operands and the eviction
    /// victims — are rescored. A pick takes the minimum index of the
    /// highest non-empty bucket, which is exactly the instruction the
    /// full scan would choose: scores are compared first, and the
    /// earliest index breaks ties. Every bucket operation touches one
    /// 64-bit word per level, at most ⌈log₆₄ n⌉ words. [`IndexSet`]
    /// lives in `cqla-circuit`, where the list scheduler's ready set
    /// (indexed by priority rank) is the same type.
    ///
    /// Finding the ready instructions a residence change affects needs
    /// no list per qubit: at most one ready instruction touches any
    /// qubit (two gates sharing a qubit are ordered in the DAG), so
    /// `ready_on` holds one slot per qubit.
    fn execute_optimized(
        &self,
        dag: &DependencyDag,
        state: &mut CacheState,
        mut visit: impl FnMut(usize, &[AccessKind]),
    ) {
        let n = self.gates.len();
        // At most one predecessor per operand.
        let mut indegree: Vec<u8> = (0..n).map(|i| dag.predecessors(i).len() as u8).collect();

        // Buckets indexed by `full * 4 + cached` (arity <= 3);
        // NOT_READY marks gates outside the window.
        const NOT_READY: u8 = u8::MAX;
        let mut buckets: [IndexSet; 8] = std::array::from_fn(|_| IndexSet::new(n));
        let mut bucket_of: Vec<u8> = vec![NOT_READY; n];
        // The ready instruction touching each qubit, or NO_GATE.
        let mut ready_on: Vec<u32> = vec![NO_GATE; self.num_qubits];

        let score = |i: usize, state: &CacheState| -> u8 {
            let (operands, arity) = operands(&self.gates[i]);
            let cached = operands[..arity]
                .iter()
                .filter(|&&q| state.is_cached(q))
                .count() as u8;
            let full = u8::from(usize::from(cached) == arity);
            full * 4 + cached
        };
        // Instructions whose last dependency just executed; scoring them
        // at the top of the next pick sees the same cache state as
        // scoring them right after the pick would.
        let mut newly_ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut kinds = [AccessKind::Hit; MAX_ARITY];
        let mut flipped: Vec<u32> = Vec::new();
        for _ in 0..n {
            for i in newly_ready.drain(..) {
                let b = score(i, state);
                bucket_of[i] = b;
                buckets[b as usize].insert(i);
                let (operands, arity) = operands(&self.gates[i]);
                for &q in &operands[..arity] {
                    debug_assert_eq!(ready_on[q as usize], NO_GATE, "two ready gates on q{q}");
                    ready_on[q as usize] = i as u32;
                }
            }

            // Highest-scoring bucket, earliest instruction within it.
            let chosen = (0..8usize)
                .rev()
                .find_map(|b| buckets[b].first())
                .expect("a dependency-ready instruction exists");
            buckets[bucket_of[chosen] as usize].remove(chosen);
            bucket_of[chosen] = NOT_READY;
            let (operands, arity) = operands(&self.gates[chosen]);
            let operands = &operands[..arity];
            for &q in operands {
                ready_on[q as usize] = NO_GATE;
            }

            flipped.clear();
            for (kind, &q) in kinds.iter_mut().zip(operands) {
                let (k, evicted) = state.access(q);
                *kind = k;
                if k != AccessKind::Hit {
                    flipped.push(q);
                }
                flipped.extend(evicted);
            }
            visit(chosen, &kinds[..arity]);

            for &s in dag.successors(chosen) {
                let s = s as usize;
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    newly_ready.push(s);
                }
            }

            // Rescore the ready instructions whose operands moved.
            for &q in &flipped {
                let g = ready_on[q as usize];
                if g == NO_GATE {
                    continue;
                }
                let g = g as usize;
                let b = score(g, state);
                if b != bucket_of[g] {
                    buckets[bucket_of[g] as usize].remove(g);
                    bucket_of[g] = b;
                    buckets[b as usize].insert(g);
                }
            }
        }
    }
}

/// Sentinel "no ready gate" slot in the optimized fetch's per-qubit index.
const NO_GATE: u32 = u32::MAX;

/// Sentinel "no qubit" link in the recency list.
const NIL: u32 = u32::MAX;

/// LRU cache state over qubit residences.
///
/// Cached qubits form an intrusive doubly-linked recency list indexed by
/// qubit, least recently used at `head`: a hit moves the qubit to the
/// tail and an eviction pops the head, both in constant time.
#[derive(Debug)]
struct CacheState {
    capacity: usize,
    residence: Vec<Residence>,
    /// Number of cached qubits.
    resident: usize,
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
}

impl CacheState {
    fn new(capacity: usize, n: usize, memory_resident: &[QubitId]) -> Self {
        let mut residence = vec![Residence::Unborn; n];
        for q in memory_resident {
            residence[q.index() as usize] = Residence::Memory;
        }
        Self {
            capacity,
            residence,
            resident: 0,
            prev: vec![NIL; n],
            next: vec![NIL; n],
            head: NIL,
            tail: NIL,
        }
    }

    fn is_cached(&self, q: u32) -> bool {
        self.residence[q as usize] == Residence::Cached
    }

    /// Accesses qubit `q`, reporting the outcome and the qubit the access
    /// evicted, if any (the optimized-fetch selector rescores ready
    /// instructions touching it).
    fn access(&mut self, q: u32) -> (AccessKind, Option<u32>) {
        let kind = match self.residence[q as usize] {
            Residence::Cached => {
                if self.tail != q {
                    self.unlink(q);
                    self.push_back(q);
                }
                return (AccessKind::Hit, None);
            }
            Residence::Memory => AccessKind::FetchMiss,
            Residence::Unborn => AccessKind::Allocation,
        };
        let evicted = if self.resident >= self.capacity {
            // Evict the least recently used qubit back to memory.
            let victim = self.head;
            self.unlink(victim);
            self.residence[victim as usize] = Residence::Memory;
            Some(victim)
        } else {
            self.resident += 1;
            None
        };
        self.residence[q as usize] = Residence::Cached;
        self.push_back(q);
        (kind, evicted)
    }

    fn unlink(&mut self, q: u32) {
        let (p, n) = (self.prev[q as usize], self.next[q as usize]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
    }

    fn push_back(&mut self, q: u32) {
        self.prev[q as usize] = self.tail;
        self.next[q as usize] = NIL;
        if self.tail == NIL {
            self.head = q;
        } else {
            self.next[self.tail as usize] = q;
        }
        self.tail = q;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqla_workloads::DraperAdder;

    fn qid(i: u32) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        c.cnot(0, 1);
        let run = CacheSim::new(4).run(&c, FetchPolicy::InOrder, &[], 1);
        assert_eq!(run.allocations(), 2);
        assert_eq!(run.hits(), 2);
        assert_eq!(run.fetch_misses(), 0);
        assert_eq!(run.accesses(), 4);
    }

    #[test]
    fn memory_resident_qubits_fetch_on_first_touch() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        let run = CacheSim::new(4).run(&c, FetchPolicy::InOrder, &[qid(0)], 1);
        assert_eq!(run.fetch_misses(), 1);
        assert_eq!(run.allocations(), 1);
    }

    #[test]
    fn lru_eviction_returns_qubits_to_memory() {
        // Capacity 2, touch 3 qubits, then re-touch the first: it must
        // have been evicted and re-fetched.
        let mut c = Circuit::new(3);
        c.x(0);
        c.x(1);
        c.x(2);
        c.x(0);
        let run = CacheSim::new(2).run(&c, FetchPolicy::InOrder, &[], 1);
        assert_eq!(run.allocations(), 3);
        assert_eq!(run.fetch_misses(), 1);
        assert_eq!(run.hits(), 0);
    }

    #[test]
    fn a_hit_refreshes_recency() {
        // Capacity 2: re-touching 0 makes 1 the victim when 2 arrives.
        let mut c = Circuit::new(3);
        c.x(0);
        c.x(1);
        c.x(0);
        c.x(2);
        c.x(0);
        c.x(1);
        let run = CacheSim::new(2).run(&c, FetchPolicy::InOrder, &[], 1);
        assert_eq!(run.hits(), 2);
        assert_eq!(run.fetch_misses(), 1);
        assert_eq!(run.last_fetch_misses(), 1);
    }

    #[test]
    fn warm_cache_improves_second_repetition() {
        let adder = DraperAdder::new(16);
        let circuit = adder.circuit();
        let sim = CacheSim::new(200); // larger than the working set
        let cold = sim.run(&circuit, FetchPolicy::InOrder, &[], 1);
        let warm = sim.run(&circuit, FetchPolicy::InOrder, &[], 2);
        // The second pass hits everything (cache exceeds the working set),
        // so the overall rate rises toward 100%.
        assert!(
            warm.hit_rate() > cold.hit_rate() + 0.1,
            "cold {:.2}, warm {:.2}",
            cold.hit_rate(),
            warm.hit_rate()
        );
        assert!(warm.hit_rate() > 0.7, "warm {:.2}", warm.hit_rate());
        assert_eq!(warm.last_fetch_misses(), 0);
    }

    #[test]
    fn optimized_order_is_a_valid_topological_order() {
        let adder = DraperAdder::new(16);
        let circuit = adder.circuit();
        let trace = CacheSim::new(24).trace(&circuit, FetchPolicy::OptimizedLookahead, &[], 0);
        assert_eq!(trace.steps().len(), circuit.len());
        let dag = DependencyDag::new(&circuit);
        let mut position = vec![0usize; circuit.len()];
        for (pos, step) in trace.steps().iter().enumerate() {
            position[step.instr] = pos;
        }
        for i in 0..circuit.len() {
            for &p in dag.predecessors(i) {
                assert!(
                    position[p as usize] < position[i],
                    "instr {i} before predecessor {p}"
                );
            }
        }
    }

    #[test]
    fn optimized_beats_in_order_on_the_adder() {
        // Fig 7's headline: the optimized fetch dominates the unoptimized
        // one at every cache size.
        let adder = DraperAdder::new(64);
        let circuit = adder.circuit();
        for capacity in [64usize, 96, 128] {
            let sim = CacheSim::new(capacity);
            let a = sim.run(&circuit, FetchPolicy::InOrder, &[], 2);
            let b = sim.run(&circuit, FetchPolicy::OptimizedLookahead, &[], 2);
            assert!(
                b.hit_rate() > a.hit_rate(),
                "capacity {capacity}: optimized {:.2} <= in-order {:.2}",
                b.hit_rate(),
                a.hit_rate()
            );
        }
    }

    #[test]
    fn fetch_policy_matters_more_than_cache_size() {
        // Paper: "the increase in hit-rate is more pronounced due to the
        // optimized fetch than increasing cache size."
        let adder = DraperAdder::new(64);
        let circuit = adder.circuit();
        let small_optimized = CacheSim::new(64)
            .run(&circuit, FetchPolicy::OptimizedLookahead, &[], 2)
            .hit_rate();
        let big_inorder = CacheSim::new(128)
            .run(&circuit, FetchPolicy::InOrder, &[], 2)
            .hit_rate();
        assert!(
            small_optimized > big_inorder,
            "optimized@64 {small_optimized:.2} <= in-order@128 {big_inorder:.2}"
        );
    }

    #[test]
    fn hit_rate_bounds() {
        let adder = DraperAdder::new(32);
        let circuit = adder.circuit();
        for policy in [FetchPolicy::InOrder, FetchPolicy::OptimizedLookahead] {
            let run = CacheSim::new(48).run(&circuit, policy, &[], 1);
            let rate = run.hit_rate();
            assert!((0.0..=1.0).contains(&rate), "{policy}: {rate}");
            assert_eq!(
                run.accesses(),
                run.hits() + run.fetch_misses() + run.allocations()
            );
        }
    }

    /// The optimized fetch by definition, for the oracle test below: a
    /// gate is ready when it is the earliest unexecuted gate on each of
    /// its operands, and every pick rescans every ready gate for the
    /// largest `(full, cached, earliest index)` key against the current
    /// cache state. Quadratic, and independent of the DAG and buckets.
    /// Returns the counts and the execution order of every repetition.
    fn quadratic_optimized(
        circuit: &Circuit,
        capacity: usize,
        memory_resident: &[QubitId],
        repetitions: u32,
    ) -> (CacheRun, Vec<usize>) {
        let gates = circuit.gates();
        let mut state = CacheState::new(capacity, circuit.num_qubits() as usize, memory_resident);
        let (mut order, mut hits, mut fetch_misses, mut allocations) = (vec![], 0, 0, 0);
        let mut last_fetch_misses = 0;
        for _ in 0..repetitions {
            let before = fetch_misses;
            // Unexecuted gates touching each qubit, earliest first.
            let mut pending: Vec<std::collections::VecDeque<usize>> =
                vec![Default::default(); circuit.num_qubits() as usize];
            for (i, gate) in gates.iter().enumerate() {
                for q in gate.qubits() {
                    pending[q.index() as usize].push_back(i);
                }
            }
            for _ in 0..gates.len() {
                let ready = pending
                    .iter()
                    .filter_map(|p| p.front().copied())
                    .filter(|&i| {
                        gates[i]
                            .qubits()
                            .iter()
                            .all(|q| pending[q.index() as usize].front() == Some(&i))
                    });
                let key = |i: usize| {
                    let qubits = gates[i].qubits();
                    let cached = qubits.iter().filter(|q| state.is_cached(q.index())).count();
                    (cached == qubits.len(), cached, std::cmp::Reverse(i))
                };
                let chosen = ready.max_by_key(|&i| key(i)).expect("a ready gate");
                for q in gates[chosen].qubits() {
                    pending[q.index() as usize].pop_front();
                    match state.access(q.index()).0 {
                        AccessKind::Hit => hits += 1,
                        AccessKind::FetchMiss => fetch_misses += 1,
                        AccessKind::Allocation => allocations += 1,
                    }
                }
                order.push(chosen);
            }
            last_fetch_misses = fetch_misses - before;
        }
        let run = CacheRun {
            hits,
            fetch_misses,
            last_fetch_misses,
            allocations,
        };
        (run, order)
    }

    #[test]
    fn optimized_fetch_matches_the_quadratic_oracle() {
        // Gate counts straddle the bucket bitsets' level boundaries (64
        // and 4096 indices per one and two levels).
        for gates in [1u32, 63, 64, 65, 4095, 4096, 4097] {
            for (qubits, seed) in [(1u32, 1u64), (3, 2), (12, 3), (40, 4)] {
                let circuit = cqla_compile::random::random_circuit(qubits, gates, seed);
                let inputs: Vec<QubitId> = (0..qubits).step_by(2).map(qid).collect();
                let dag = DependencyDag::new(&circuit);
                for capacity in [1, 2, 7, 64, qubits as usize + 1] {
                    for repetitions in [1, 2] {
                        let case = format!(
                            "{gates} gates, {qubits} qubits, capacity {capacity}, {repetitions} rep(s)"
                        );
                        let (expected, order) =
                            quadratic_optimized(&circuit, capacity, &inputs, repetitions);
                        let sim = CacheSim::new(capacity);
                        let run = sim.run(
                            &circuit,
                            FetchPolicy::OptimizedLookahead,
                            &inputs,
                            repetitions,
                        );
                        assert_eq!(run, expected, "{case}");
                        let on_dag = sim.run_optimized(&dag, &inputs, repetitions);
                        assert_eq!(on_dag, expected, "{case}, prebuilt DAG");
                        // Repetition `r` executes as the trace after `r` warmups.
                        let traced: Vec<usize> = (0..repetitions)
                            .flat_map(|warmup| {
                                let policy = FetchPolicy::OptimizedLookahead;
                                sim.trace(&circuit, policy, &inputs, warmup).steps
                            })
                            .map(|step| step.instr)
                            .collect();
                        assert_eq!(traced, order, "{case}, traced order");
                    }
                }
            }
        }
    }

    /// In-order LRU by definition: the cache is a queue, most recently
    /// used at the back. A miss on a qubit that is memory-resident or was
    /// born earlier fetches; any other miss allocates.
    fn lru_in_order(
        circuit: &Circuit,
        capacity: usize,
        memory_resident: &[QubitId],
        repetitions: u32,
    ) -> CacheRun {
        use std::collections::{HashSet, VecDeque};
        let memory: HashSet<u32> = memory_resident.iter().map(|q| q.index()).collect();
        let (mut cache, mut born) = (VecDeque::new(), HashSet::new());
        let (mut hits, mut fetch_misses, mut allocations, mut last_fetch_misses) = (0, 0, 0, 0);
        for _ in 0..repetitions {
            let before = fetch_misses;
            for q in circuit.gates().iter().flat_map(Gate::qubits) {
                let q = q.index();
                if let Some(at) = cache.iter().position(|&c| c == q) {
                    cache.remove(at);
                    hits += 1;
                } else {
                    if memory.contains(&q) || !born.insert(q) {
                        fetch_misses += 1;
                    } else {
                        allocations += 1;
                    }
                    if cache.len() == capacity {
                        cache.pop_front();
                    }
                }
                cache.push_back(q);
            }
            last_fetch_misses = fetch_misses - before;
        }
        CacheRun {
            hits,
            fetch_misses,
            last_fetch_misses,
            allocations,
        }
    }

    #[test]
    fn in_order_runs_match_the_lru_reference() {
        for (qubits, gates, seed) in [(1u32, 9u32, 1u64), (5, 40, 2), (12, 300, 3)] {
            let circuit = cqla_compile::random::random_circuit(qubits, gates, seed);
            let inputs: Vec<QubitId> = (0..qubits).step_by(2).map(qid).collect();
            for capacity in [1, 2, qubits as usize, 2 * qubits as usize] {
                for repetitions in 1..=3 {
                    let case =
                        format!("{qubits} qubits, capacity {capacity}, {repetitions} rep(s)");
                    let run = CacheSim::new(capacity).run(
                        &circuit,
                        FetchPolicy::InOrder,
                        &inputs,
                        repetitions,
                    );
                    let expected = lru_in_order(&circuit, capacity, &inputs, repetitions);
                    assert_eq!(run, expected, "{case}");
                }
            }
        }
    }

    /// Circuits for the no-eviction rule: a seeded random program on
    /// `touched` qubits placed at `offset` in a register of `register`
    /// qubits, and memory-resident lists that leave qubits untouched,
    /// repeat qubits, or both.
    fn no_eviction_cases() -> Vec<(Circuit, Vec<QubitId>)> {
        let mut cases = Vec::new();
        for (touched, offset, register, seed) in [
            (1u32, 0u32, 1u32, 1u64),
            (6, 0, 6, 2),
            (6, 3, 12, 3),
            (20, 5, 40, 4),
        ] {
            let mut circuit = Circuit::new(register);
            let program = cqla_compile::random::random_circuit(touched, 12 * touched, seed);
            circuit.append_embedded(&program, offset);
            let every_other: Vec<QubitId> = (0..register).step_by(2).map(qid).collect();
            let untouched_and_repeated: Vec<QubitId> = (0..register)
                .rev()
                .chain(offset..offset + touched.div_ceil(2))
                .map(qid)
                .collect();
            for inputs in [vec![], every_other, untouched_and_repeated] {
                cases.push((circuit.clone(), inputs));
            }
        }
        cases
    }

    #[test]
    fn runs_that_cannot_evict_match_both_oracles() {
        for (circuit, inputs) in no_eviction_cases() {
            let register = circuit.num_qubits() as usize;
            let dag = DependencyDag::new(&circuit);
            for capacity in [register, register + 1] {
                let sim = CacheSim::new(capacity);
                for repetitions in 1..=3 {
                    let case = format!(
                        "register {register}, capacity {capacity}, {repetitions} rep(s), inputs {inputs:?}"
                    );
                    let (optimized, _) =
                        quadratic_optimized(&circuit, capacity, &inputs, repetitions);
                    let run = sim.run(
                        &circuit,
                        FetchPolicy::OptimizedLookahead,
                        &inputs,
                        repetitions,
                    );
                    assert_eq!(run, optimized, "{case}, optimized");
                    assert_eq!(
                        sim.run_optimized(&dag, &inputs, repetitions),
                        optimized,
                        "{case}, prebuilt DAG"
                    );
                    let in_order = lru_in_order(&circuit, capacity, &inputs, repetitions);
                    let run = sim.run(&circuit, FetchPolicy::InOrder, &inputs, repetitions);
                    assert_eq!(run, in_order, "{case}, in-order");
                    // Nothing was evicted, so the policy cannot matter.
                    assert_eq!(optimized, in_order, "{case}");
                    let last = if repetitions == 1 {
                        run.fetch_misses()
                    } else {
                        0
                    };
                    assert_eq!(run.last_fetch_misses(), last, "{case}");
                }
            }
        }
    }

    #[test]
    fn a_register_one_past_the_cache_still_runs_the_policy() {
        // A cycle over 8 qubits, twice: with room for 7, in-order LRU
        // misses on every access.
        let mut cycle = Circuit::new(8);
        for q in (0..8).chain(0..8) {
            cycle.x(q);
        }
        let fits = CacheSim::new(8).run(&cycle, FetchPolicy::InOrder, &[], 1);
        let evicts = CacheSim::new(7).run(&cycle, FetchPolicy::InOrder, &[], 1);
        assert_eq!((fits.hits(), evicts.hits()), (8, 0));

        // Capacity = register - 1 must match the oracles, which differ
        // from the no-eviction count wherever an eviction happened.
        let mut differs = [0; 2];
        let cases = no_eviction_cases()
            .into_iter()
            .chain([(cycle, vec![qid(0), qid(3), qid(3)])]);
        for (circuit, inputs) in cases {
            let register = circuit.num_qubits() as usize;
            if register == 1 {
                continue;
            }
            let sim = CacheSim::new(register - 1);
            for repetitions in 1..=3 {
                let case = format!("register {register}, {repetitions} rep(s), inputs {inputs:?}");
                let (optimized, _) =
                    quadratic_optimized(&circuit, register - 1, &inputs, repetitions);
                let in_order = lru_in_order(&circuit, register - 1, &inputs, repetitions);
                for (policy, expected, slot) in [
                    (FetchPolicy::OptimizedLookahead, optimized, 0),
                    (FetchPolicy::InOrder, in_order, 1),
                ] {
                    let run = sim.run(&circuit, policy, &inputs, repetitions);
                    assert_eq!(run, expected, "{case}, {policy}");
                    let closed_form =
                        CacheSim::new(register).run(&circuit, policy, &inputs, repetitions);
                    differs[slot] += usize::from(run != closed_form);
                }
            }
        }
        assert!(differs.iter().all(|&n| n > 0), "{differs:?}");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = CacheSim::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn zero_repetitions_rejected() {
        let c = Circuit::new(1);
        let _ = CacheSim::new(1).run(&c, FetchPolicy::InOrder, &[], 0);
    }
}

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

use std::collections::BTreeSet;

use cqla_circuit::{Circuit, DependencyDag, QubitId};

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
    /// Execution order (indices into the instruction stream, one entry per
    /// executed instruction per repetition).
    order: Vec<usize>,
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
    /// Execution order chosen by the fetch policy (instruction indices;
    /// repeats when the stream was run multiple times).
    #[must_use]
    pub fn order(&self) -> &[usize] {
        &self.order
    }

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
        assert!(repetitions > 0, "at least one repetition required");
        let program = Program::new(circuit, policy);
        let mut state = CacheState::new(self.capacity, circuit.num_qubits(), memory_resident);
        let mut order = Vec::with_capacity(circuit.len() * repetitions as usize);
        let (mut hits, mut fetch_misses, mut allocations) = (0u64, 0u64, 0u64);
        let mut last_fetch_misses = 0;

        for _ in 0..repetitions {
            let before = fetch_misses;
            program.execute(&mut state, |i, kinds| {
                for kind in kinds {
                    match kind {
                        AccessKind::Hit => hits += 1,
                        AccessKind::FetchMiss => fetch_misses += 1,
                        AccessKind::Allocation => allocations += 1,
                    }
                }
                order.push(i);
            });
            last_fetch_misses = fetch_misses - before;
        }
        CacheRun {
            order,
            hits,
            fetch_misses,
            last_fetch_misses,
            allocations,
        }
    }

    /// Like [`CacheSim::run`], but additionally records how many operands
    /// each executed instruction fetched from memory — the input the
    /// event-driven pipeline simulator needs. Runs `warmup` repetitions
    /// first (untraced) and traces one more.
    #[must_use]
    pub fn trace(
        &self,
        circuit: &Circuit,
        policy: FetchPolicy,
        memory_resident: &[QubitId],
        warmup: u32,
    ) -> CacheTrace {
        let program = Program::new(circuit, policy);
        let mut state = CacheState::new(self.capacity, circuit.num_qubits(), memory_resident);
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

/// A circuit prepared once per simulation: every gate's operands
/// flattened into one array, plus — for the optimized policy — the
/// dependency DAG every repetition selects over.
struct Program {
    /// Operands of instruction `i` are `operands[starts[i]..starts[i + 1]]`.
    operands: Vec<u32>,
    starts: Vec<usize>,
    num_qubits: usize,
    dag: Option<DependencyDag>,
}

impl Program {
    fn new(circuit: &Circuit, policy: FetchPolicy) -> Self {
        let mut operands = Vec::with_capacity(2 * circuit.len());
        let mut starts = Vec::with_capacity(circuit.len() + 1);
        starts.push(0);
        for gate in circuit.gates() {
            operands.extend(gate.qubits().iter().map(|q| q.index()));
            starts.push(operands.len());
        }
        let dag = (policy == FetchPolicy::OptimizedLookahead).then(|| DependencyDag::new(circuit));
        Self {
            operands,
            starts,
            num_qubits: circuit.num_qubits() as usize,
            dag,
        }
    }

    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    fn operands(&self, i: usize) -> &[u32] {
        &self.operands[self.starts[i]..self.starts[i + 1]]
    }

    /// Executes the stream once against `state`, calling `visit` with
    /// each executed instruction and the outcome of its operand accesses,
    /// in execution order.
    fn execute(&self, state: &mut CacheState, mut visit: impl FnMut(usize, &[AccessKind])) {
        match &self.dag {
            None => {
                let mut kinds = [AccessKind::Hit; MAX_ARITY];
                for i in 0..self.len() {
                    let operands = self.operands(i);
                    for (kind, &q) in kinds.iter_mut().zip(operands) {
                        *kind = state.access(q).0;
                    }
                    visit(i, &kinds[..operands.len()]);
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
    /// in the window), the ready set lives in one ordered bucket per
    /// `(full, cached)` score, and only instructions whose operands
    /// changed residence — the picked gate's operands and the eviction
    /// victims — are rescored. Scores are unique per instruction (the
    /// program-order tie-break), so the bucket walk picks exactly the
    /// instruction the full scan would.
    fn execute_optimized(
        &self,
        dag: &DependencyDag,
        state: &mut CacheState,
        mut visit: impl FnMut(usize, &[AccessKind]),
    ) {
        let n = self.len();
        let mut indegree: Vec<usize> = (0..n).map(|i| dag.predecessors(i).len()).collect();

        // Buckets indexed by `full * 4 + cached` (arity <= 3), each ordered
        // by instruction index; NOT_READY marks gates outside the window.
        const NOT_READY: u8 = u8::MAX;
        let mut buckets: [BTreeSet<usize>; 8] = Default::default();
        let mut bucket_of: Vec<u8> = vec![NOT_READY; n];
        // Ready instructions touching each qubit, for targeted rescoring.
        let mut ready_on: Vec<Vec<usize>> = vec![Vec::new(); self.num_qubits];

        let score = |i: usize, state: &CacheState| -> u8 {
            let operands = self.operands(i);
            let cached = operands.iter().filter(|&&q| state.is_cached(q)).count() as u8;
            let full = u8::from(usize::from(cached) == operands.len());
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
                for &q in self.operands(i) {
                    ready_on[q as usize].push(i);
                }
            }

            // Highest-scoring bucket, earliest instruction within it.
            let chosen = (0..8usize)
                .rev()
                .find_map(|b| buckets[b].first().copied())
                .expect("a dependency-ready instruction exists");
            buckets[bucket_of[chosen] as usize].remove(&chosen);
            bucket_of[chosen] = NOT_READY;
            let operands = self.operands(chosen);
            for &q in operands {
                ready_on[q as usize].retain(|&g| g != chosen);
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
            visit(chosen, &kinds[..operands.len()]);

            for &s in dag.successors(chosen) {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    newly_ready.push(s);
                }
            }

            // Rescore the ready instructions whose operands moved.
            for &q in &flipped {
                for &g in &ready_on[q as usize] {
                    let b = score(g, state);
                    if b != bucket_of[g] {
                        buckets[bucket_of[g] as usize].remove(&g);
                        bucket_of[g] = b;
                        buckets[b as usize].insert(g);
                    }
                }
            }
        }
    }
}

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
    fn new(capacity: usize, num_qubits: u32, memory_resident: &[QubitId]) -> Self {
        let n = num_qubits as usize;
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
        let run = CacheSim::new(24).run(&circuit, FetchPolicy::OptimizedLookahead, &[], 1);
        assert_eq!(run.order().len(), circuit.len());
        let dag = DependencyDag::new(&circuit);
        let mut position = vec![0usize; circuit.len()];
        for (pos, &i) in run.order().iter().enumerate() {
            position[i] = pos;
        }
        for i in 0..circuit.len() {
            for &p in dag.predecessors(i) {
                assert!(
                    position[p] < position[i],
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

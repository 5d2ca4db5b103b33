//! Property-based tests spanning crates: the invariants the reproduction
//! rests on, exercised over randomized inputs.

use proptest::prelude::*;

use cqla_repro::circuit::{Circuit, DependencyDag, Gate, ListScheduler, Width};
use cqla_repro::core::{CacheSim, FetchPolicy};
use cqla_repro::ecc::{CodeLevel, TransferNetwork};
use cqla_repro::iontrap::TechnologyParams;
use cqla_repro::stabilizer::{CssCode, LookupDecoder, PauliOp, PauliString};
use cqla_repro::units::{Probability, Seconds};
use cqla_repro::workloads::{DraperAdder, RippleCarryAdder};

/// A random classical-reversible circuit on `n` qubits.
fn classical_circuit(n: u32, max_gates: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec((0u32..n, 0u32..n, 0u32..n, 0u8..3), 1..max_gates).prop_map(
        move |specs| {
            let mut c = Circuit::new(n);
            for (a, b, t, kind) in specs {
                match kind {
                    0 => c.x(a),
                    1 => {
                        if a != b {
                            c.cnot(a, b);
                        }
                    }
                    _ => {
                        if a != b && b != t && a != t {
                            c.toffoli(a, b, t);
                        }
                    }
                }
            }
            c
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn draper_adds_correctly(n in 1u32..=64, a in any::<u64>(), b in any::<u64>()) {
        let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let (a, b) = (u128::from(a & mask), u128::from(b & mask));
        let adder = DraperAdder::new(n);
        prop_assert_eq!(adder.compute_checked(a, b), a + b);
    }

    #[test]
    fn adders_agree(n in 1u32..=32, a in any::<u32>(), b in any::<u32>()) {
        let mask = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
        let (a, b) = (u128::from(a & mask), u128::from(b & mask));
        let expect = DraperAdder::new(n).compute(a, b);
        prop_assert_eq!(RippleCarryAdder::new(n).compute(a, b), expect);
    }

    #[test]
    fn toffoli_decomposition_preserves_cost_and_structure(
        circuit in classical_circuit(8, 30),
    ) {
        use cqla_repro::circuit::decompose_toffolis;
        let lowered = decompose_toffolis(&circuit);
        // No Toffolis remain; total gate count equals the cost model's
        // two-qubit-gate equivalents.
        prop_assert_eq!(lowered.counts().toffoli, 0);
        prop_assert_eq!(lowered.len() as u64, circuit.total_gate_equivalents());
        // Depth never decreases.
        let d0 = DependencyDag::new(&circuit).depth();
        let d1 = DependencyDag::new(&lowered).depth();
        prop_assert!(d1 >= d0);
    }

    #[test]
    fn makespan_monotone_in_width(circuit in classical_circuit(12, 60), w in 1usize..8) {
        let dag = DependencyDag::new(&circuit);
        let weight = Gate::two_qubit_gate_equivalents;
        let narrow = ListScheduler::new(&dag).schedule(Width::Blocks(w), weight);
        let wide = ListScheduler::new(&dag).schedule(Width::Blocks(w + 1), weight);
        prop_assert!(wide.makespan() <= narrow.makespan());
    }

    #[test]
    fn schedule_respects_bounds(circuit in classical_circuit(10, 40), w in 1usize..6) {
        let dag = DependencyDag::new(&circuit);
        let weight = Gate::two_qubit_gate_equivalents;
        let s = ListScheduler::new(&dag).schedule(Width::Blocks(w), weight);
        let cp = dag.critical_path(weight);
        let work = dag.total_work(weight);
        prop_assert!(s.makespan() >= cp);
        prop_assert!(s.makespan() >= work.div_ceil(w as u64));
        prop_assert!(s.makespan() <= work);
        let util = s.utilization();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&util));
        prop_assert!(s.occupancy().iter().all(|&o| o <= w));
    }

    #[test]
    fn parallelism_profile_area_is_gate_count(circuit in classical_circuit(10, 50)) {
        let dag = DependencyDag::new(&circuit);
        let area: usize = dag.parallelism_profile().iter().sum();
        prop_assert_eq!(area, circuit.len());
    }

    #[test]
    fn cache_hit_rate_bounded_and_order_valid(
        circuit in classical_circuit(16, 80),
        capacity in 1usize..24,
    ) {
        let sim = CacheSim::new(capacity);
        for policy in [FetchPolicy::InOrder, FetchPolicy::OptimizedLookahead] {
            let run = sim.run(&circuit, policy, &[], 1);
            prop_assert!((0.0..=1.0).contains(&run.hit_rate()));
            let trace = sim.trace(&circuit, policy, &[], 0);
            prop_assert_eq!(trace.steps().len(), circuit.len());
            prop_assert_eq!(trace.total_fetches(), run.fetch_misses());
            // Execution order respects dependencies.
            let dag = DependencyDag::new(&circuit);
            let mut pos = vec![usize::MAX; circuit.len()];
            for (i, step) in trace.steps().iter().enumerate() {
                pos[step.instr] = i;
            }
            for g in 0..circuit.len() {
                for &p in dag.predecessors(g) {
                    prop_assert!(pos[p as usize] < pos[g]);
                }
            }
        }
    }

    #[test]
    fn bigger_cache_never_hurts_in_order(
        circuit in classical_circuit(16, 80),
        capacity in 2usize..16,
    ) {
        // LRU with in-order execution has the inclusion property, so hit
        // rate is monotone in capacity.
        let small = CacheSim::new(capacity).run(&circuit, FetchPolicy::InOrder, &[], 1);
        let large = CacheSim::new(capacity + 4).run(&circuit, FetchPolicy::InOrder, &[], 1);
        prop_assert!(large.hits() >= small.hits());
    }

    #[test]
    fn pauli_multiplication_group_laws(
        ops_a in prop::collection::vec(0u8..4, 6),
        ops_b in prop::collection::vec(0u8..4, 6),
    ) {
        let to_pauli = |ops: &[u8]| {
            let mut p = PauliString::identity(6);
            for (q, &o) in ops.iter().enumerate() {
                p.set(q, PauliOp::ALL[o as usize]);
            }
            p
        };
        let a = to_pauli(&ops_a);
        let b = to_pauli(&ops_b);
        // (ab)(b^-1) == a, using b^-1 == b up to phase for Paulis.
        let ab = a.mul(&b);
        let back = ab.mul(&b);
        prop_assert_eq!(back.weight(), a.weight());
        for q in 0..6 {
            prop_assert_eq!(back.op(q), a.op(q));
        }
        // Commutation is symmetric.
        prop_assert_eq!(a.anticommutes_with(&b), b.anticommutes_with(&a));
    }

    #[test]
    fn decoder_fixes_any_weight_one_error(qubit in 0usize..7, op_idx in 0usize..3) {
        let code = CssCode::steane();
        let decoder = LookupDecoder::for_code(&code);
        let error = PauliString::single(7, qubit, PauliOp::ERRORS[op_idx]);
        let fix = decoder.decode(&code.syndrome(&error)).unwrap();
        prop_assert!(code.is_logically_trivial(&error.mul(&fix)));
    }

    #[test]
    fn transfer_latencies_positive_and_asymmetric(seed in 0u8..4) {
        let tech = TechnologyParams::projected();
        let net = TransferNetwork::new(&tech);
        let pts = CodeLevel::TABLE3_ORDER;
        let src = pts[seed as usize % 4];
        for dst in pts {
            let lat = net.latency(src, dst);
            if src == dst {
                prop_assert_eq!(lat, Seconds::ZERO);
            } else {
                prop_assert!(lat.as_secs() > 0.0);
            }
        }
    }

    #[test]
    fn probability_combinators_stay_bounded(p in 0.0f64..=1.0, n in 0u64..10_000) {
        let prob = Probability::new(p).unwrap();
        prop_assert!(prob.union_bound(n).value() <= 1.0);
        prop_assert!(prob.any_of(n).value() <= 1.0);
        prop_assert!(prob.any_of(n).value() <= prob.union_bound(n).value() + 1e-12);
    }

    #[test]
    fn ideal_makespan_bounds_scheduled_makespan(n in 4u32..=64, blocks in 1u32..32) {
        use cqla_repro::core::EvalCtx;
        let costs = EvalCtx::new().adder_costs(n, blocks);
        let ideal = costs.ideal_makespan(blocks);
        prop_assert!(ideal <= costs.makespan);
        // List scheduling is within 2x of the bound (Graham).
        prop_assert!(costs.makespan <= 2 * ideal);
    }
}

#[test]
fn codes_distance_three_sanity() {
    // Not a proptest (exhaustive), but lives with its peers: every
    // weight-2 error on every code is either detected or degenerate.
    for code in [CssCode::steane(), CssCode::shor9(), CssCode::bacon_shor()] {
        let n = code.num_qubits();
        for a in 0..n {
            for b in (a + 1)..n {
                for opa in PauliOp::ERRORS {
                    for opb in PauliOp::ERRORS {
                        let e = PauliString::single(n, a, opa).mul(&PauliString::single(n, b, opb));
                        if code.syndrome(&e).is_zero() {
                            assert!(code.is_logically_trivial(&e), "{code}: {e}");
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// JSON escaping: arbitrary unicode strings — controls, BMP, astral
// planes — survive the serialize -> parse round trip, and the writer
// stays ASCII-safe (astral chars must come out as surrogate pairs, not
// the invalid 5-6 digit escapes `\u{:04x}` of `char as u32` would give).

mod json_escaping {
    use proptest::prelude::*;

    use cqla_repro::core::json::parse;
    use cqla_repro::core::Json;

    /// Arbitrary strings over the full scalar-value space: raw code
    /// points are sampled across all planes and the surrogate gap is
    /// skipped (those are not chars).
    fn arb_string() -> impl Strategy<Value = String> {
        prop::collection::vec(0u32..0x11_0000, 0..24)
            .prop_map(|codes| codes.into_iter().filter_map(char::from_u32).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn escaping_round_trips_arbitrary_strings(s in arb_string()) {
            let v = Json::from(s.as_str());
            for text in [v.to_compact(), v.to_pretty()] {
                prop_assert!(text.is_ascii(), "writer must be ASCII-safe: {}", text);
                let parsed = parse(&text)
                    .unwrap_or_else(|e| panic!("writer output must reparse: {e}\n{text}"));
                prop_assert_eq!(parsed.as_str(), Some(s.as_str()), "text: {}", text);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Registry-driven grid grammar: random `key=value-set` expressions over
// the machine artifact's declared parameters survive the
// expression -> Grid -> expression round trip.

mod grid_spec {
    use proptest::prelude::*;

    use cqla_repro::core::experiments::{find, Grid};

    /// Builds one clause over the `machine` surface from raw seeds; the
    /// mapping is total, so every sampled seed is a valid clause.
    /// `pinned` spells the clause as a single-value `base.` override.
    fn clause(kind: u8, seeds: &[u32], pinned: bool) -> String {
        let label = |v: u32, a: &str, b: &str| if v % 2 == 0 { a } else { b }.to_owned();
        let (key, values): (&str, Vec<String>) = match kind % 6 {
            0 => (
                "tech",
                seeds
                    .iter()
                    .map(|&v| label(v, "current", "projected"))
                    .collect(),
            ),
            1 => (
                "code",
                seeds
                    .iter()
                    .map(|&v| label(v, "steane", "bacon-shor"))
                    .collect(),
            ),
            2 => ("bits", seeds.iter().map(u32::to_string).collect()),
            3 => ("blocks", seeds.iter().map(u32::to_string).collect()),
            4 => ("xfer", seeds.iter().map(u32::to_string).collect()),
            // Quarter steps exercise non-integer decimals exactly.
            _ => (
                "cache",
                seeds
                    .iter()
                    .map(|&v| (f64::from(v) / 4.0).to_string())
                    .collect(),
            ),
        };
        let values = if pinned {
            vec![values[0].clone()]
        } else {
            values
        };
        let prefix = if pinned { "base." } else { "" };
        format!("{prefix}{key}={}", values.join(","))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn grid_expression_round_trips(
            raw in prop::collection::vec(
                (0u8..6, prop::collection::vec(1u32..2048, 1..4), any::<bool>()),
                1..6,
            ),
        ) {
            // One clause per key: the grammar rejects duplicates.
            let mut used = [false; 6];
            let clauses: Vec<String> = raw
                .iter()
                .filter(|(kind, _, _)| {
                    !std::mem::replace(&mut used[usize::from(kind % 6)], true)
                })
                .map(|(kind, seeds, pinned)| clause(*kind, seeds, *pinned))
                .collect();
            let expr = clauses.join(" ");
            let specs = find("machine").unwrap().specs();
            let grid = Grid::parse("machine", &specs, &expr)
                .unwrap_or_else(|e| panic!("generated expression must parse: {e}"));
            let rendered = grid.render();
            let again = Grid::parse("machine", &specs, &rendered)
                .unwrap_or_else(|e| panic!("rendered expression must reparse: {e}\n{rendered}"));
            prop_assert_eq!(
                grid.points(),
                again.points(),
                "expr: {} rendered: {}",
                expr,
                rendered
            );
        }

        /// The distributed-sweep partitioner contract: shards are
        /// disjoint, cover every point, preserve submission order (their
        /// concatenation IS the parent's point list), and each shard's
        /// rendered spec re-parses to exactly the shard's points — the
        /// property `cqla-dist` relies on to ship shards over the wire
        /// as spec text.
        #[test]
        fn grid_shards_partition_the_points(
            raw in prop::collection::vec(
                (0u8..6, prop::collection::vec(1u32..2048, 1..4), any::<bool>()),
                1..6,
            ),
            n in 1usize..9,
        ) {
            let mut used = [false; 6];
            let clauses: Vec<String> = raw
                .iter()
                .filter(|(kind, _, _)| {
                    !std::mem::replace(&mut used[usize::from(kind % 6)], true)
                })
                .map(|(kind, seeds, pinned)| clause(*kind, seeds, *pinned))
                .collect();
            let expr = clauses.join(" ");
            let specs = find("machine").unwrap().specs();
            let grid = Grid::parse("machine", &specs, &expr)
                .unwrap_or_else(|e| panic!("generated expression must parse: {e}"));
            let shards = grid.shard(n);
            prop_assert!(!shards.is_empty(), "expr: {}", expr);
            prop_assert!(shards.len() <= n, "at most n shards; expr: {}", expr);
            let glued: Vec<_> = shards.iter().flat_map(Grid::points).collect();
            prop_assert_eq!(
                glued,
                grid.points(),
                "shards must concatenate to the parent, in order; expr: {}",
                expr
            );
            for shard in &shards {
                prop_assert!(!shard.is_empty(), "no empty shards; expr: {}", expr);
                let rehydrated = Grid::parse("machine", &specs, shard.spec())
                    .unwrap_or_else(|e| {
                        panic!("shard spec must reparse: {e}\n{}", shard.spec())
                    });
                prop_assert_eq!(
                    rehydrated.points(),
                    shard.points(),
                    "shard spec: {}",
                    shard.spec()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sweep-spec expression language: every shard of a random design-space
// sweep travels as its grid expression and re-parses to exactly its
// slice of the sweep's design points — the contract `cqla-dist` relies
// on when it ships sweep shards to workers as text.

mod sweep_spec {
    use proptest::prelude::*;

    use cqla_repro::sweep::Sweep;

    /// Builds one clause over the seven design-space keys from raw
    /// integer seeds; the mapping is total so every sample is valid.
    fn clause(kind: u8, seeds: &[u32], pinned: bool) -> String {
        let label = |v: u32, a: &str, b: &str| if v % 2 == 0 { a } else { b }.to_owned();
        let ints = |max: u32| seeds.iter().map(|&v| (v % max + 1).to_string()).collect();
        let (key, values): (&str, Vec<String>) = match kind % 7 {
            0 => (
                "tech",
                seeds
                    .iter()
                    .map(|&v| label(v, "current", "projected"))
                    .collect(),
            ),
            1 => (
                "code",
                seeds
                    .iter()
                    .map(|&v| label(v, "steane", "bacon-shor"))
                    .collect(),
            ),
            2 => ("width", ints(4096)),
            3 => ("bits", ints(4096)),
            4 => ("blocks", ints(2048)),
            5 => ("xfer", ints(2048)),
            // Quarter steps exercise non-integer decimals exactly.
            _ => (
                "cache",
                seeds
                    .iter()
                    .map(|&v| (f64::from(v) / 4.0).to_string())
                    .collect(),
            ),
        };
        let values = if pinned {
            vec![values[0].clone()]
        } else {
            values
        };
        let prefix = if pinned { "base." } else { "" };
        format!("{prefix}{key}={}", values.join(","))
    }

    /// Joins one clause per distinct key (the grammar rejects duplicates).
    fn spec(raw: &[(u8, Vec<u32>, bool)]) -> String {
        let mut used = [false; 7];
        let clauses: Vec<String> = raw
            .iter()
            .filter(|(kind, _, _)| !std::mem::replace(&mut used[usize::from(kind % 7)], true))
            .map(|(kind, seeds, pinned)| clause(*kind, seeds, *pinned))
            .collect();
        clauses.join(" ")
    }

    fn raw_clauses() -> impl Strategy<Value = Vec<(u8, Vec<u32>, bool)>> {
        prop::collection::vec(
            (
                0u8..7,
                prop::collection::vec(1u32..2048, 1..4),
                any::<bool>(),
            ),
            1..6,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `Grid::render` -> `Sweep::parse` reproduces the parsed sweep's
        /// design points exactly, for any mix of axes and `base.` pins.
        #[test]
        fn spec_round_trips(raw in raw_clauses()) {
            let spec = spec(&raw);
            let sweep = Sweep::parse(&spec)
                .unwrap_or_else(|e| panic!("generated spec must parse: {e}"));
            prop_assert_eq!(sweep.grids().len(), 1, "spec: {}", spec);
            let rendered = sweep.grids()[0].render();
            let reparsed = Sweep::parse(&rendered)
                .unwrap_or_else(|e| panic!("rendered spec must reparse: {e}"));
            prop_assert_eq!(reparsed.points(), sweep.points(), "rendered: {}", rendered);
        }

        /// Single design points survive as one-point shard specs exactly:
        /// every field a point carries re-parses to the same value.
        #[test]
        fn render_point_round_trips_every_field(raw in raw_clauses()) {
            let spec = spec(&raw);
            let sweep = Sweep::parse(&spec)
                .unwrap_or_else(|e| panic!("generated spec must parse: {e}"));
            prop_assert_eq!(sweep.grids().len(), 1, "spec: {}", spec);
            let shards = sweep.grids()[0].shard(sweep.len());
            prop_assert_eq!(shards.len(), sweep.len(), "spec: {}", spec);
            for (shard, point) in shards.iter().zip(sweep.points()) {
                let single = Sweep::parse(shard.spec())
                    .unwrap_or_else(|e| panic!("point spec must reparse: {e}"));
                prop_assert_eq!(
                    single.points(),
                    std::slice::from_ref(point),
                    "point spec: {}",
                    shard.spec()
                );
            }
        }

        #[test]
        fn grid_shards_reparse_to_their_design_points(raw in raw_clauses(), n in 1usize..9) {
            let spec = spec(&raw);
            let sweep = Sweep::parse(&spec)
                .unwrap_or_else(|e| panic!("generated spec must parse: {e}"));
            prop_assert_eq!(sweep.grids().len(), 1, "spec: {}", spec);
            let mut offset = 0;
            for shard in sweep.grids()[0].shard(n) {
                let reparsed = Sweep::parse(shard.spec())
                    .unwrap_or_else(|e| panic!("shard spec must reparse: {e}"));
                let slice = &sweep.points()[offset..offset + shard.len()];
                prop_assert_eq!(reparsed.points(), slice, "shard spec: {}", shard.spec());
                offset += shard.len();
            }
            prop_assert_eq!(offset, sweep.len(), "shards cover the sweep; spec: {}", spec);
        }
    }
}

/// Applies `(kind, position, char)` edits — insert, delete or replace
/// with a char of `alphabet` — to `text`, char by char so the result
/// stays UTF-8: the mutation step of the front-end fuzzes below.
fn mutate(text: &str, alphabet: &str, edits: &[(u8, usize, usize)]) -> String {
    let alphabet: Vec<char> = alphabet.chars().collect();
    let mut chars: Vec<char> = text.chars().collect();
    for &(kind, pos, pick) in edits {
        let c = alphabet[pick % alphabet.len()];
        match kind {
            0 => chars.insert(pos % (chars.len() + 1), c),
            _ if chars.is_empty() => {}
            1 => {
                chars.remove(pos % chars.len());
            }
            _ => {
                let at = pos % chars.len();
                chars[at] = c;
            }
        }
    }
    chars.into_iter().collect()
}

// ---------------------------------------------------------------------------
// The compile front end: the seeded workload generator's output must
// survive the asm front door losslessly — emit -> parse -> emit is
// byte-identical for any (qubits, gates, seed) — and generation itself
// must be a pure function of the seed, which is what makes `seed=` a
// cache- and shard-stable parameter across CLI, HTTP, and fleets. The
// door itself faces untrusted text, so mutated programs fuzz it.

mod compile_front_end {
    use proptest::prelude::*;

    use cqla_repro::circuit::asm;
    use cqla_repro::compile::random::random_circuit;
    use cqla_repro::compile::SAMPLE_PROGRAM;

    use super::mutate;

    /// What a mutation inserts or writes: the grammar's own characters,
    /// whitespace, and one multi-byte character to test char boundaries.
    const MUTANT_CHARS: &str = "abcdefghijklmnopqrstuvwxyzQXZ0123456789,[]#: \t\nλ";

    proptest! {
        // Each case parses a few hundred bytes; debug builds run fewer.
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 1024 } else { 16384 }
        ))]

        #[test]
        fn mutated_programs_parse_or_fail_with_an_in_line_span(
            sample in any::<bool>(),
            qubits in 1u32..=8,
            gates in 0u32..=24,
            seed in any::<u64>(),
            edits in prop::collection::vec((0u8..3, any::<usize>(), any::<usize>()), 1..=8),
        ) {
            let valid = if sample {
                SAMPLE_PROGRAM.to_owned()
            } else {
                asm::emit(&random_circuit(qubits, gates, seed))
            };
            let text = mutate(&valid, MUTANT_CHARS, &edits);
            match asm::parse(&text) {
                Ok(circuit) => {
                    let again = asm::parse(&asm::emit(&circuit))
                        .unwrap_or_else(|e| panic!("emitted text must parse: {e}\n{text:?}"));
                    prop_assert_eq!(again, circuit, "mutant {:?}", text);
                }
                Err(err) => {
                    let (start, end) = err.span();
                    let line = err.source_line();
                    prop_assert!(start <= end && end <= line.len(), "{:?} in {:?}", err.span(), line);
                    prop_assert!(
                        line.is_char_boundary(start) && line.is_char_boundary(end),
                        "{:?} splits a char of {:?}",
                        err.span(),
                        line
                    );
                    prop_assert!(err.to_string().contains(err.message()), "mutant {:?}", text);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn generated_workloads_round_trip_through_asm(
            qubits in 1u32..=32,
            gates in 0u32..=256,
            seed in any::<u64>(),
        ) {
            let circuit = random_circuit(qubits, gates, seed);
            let text = asm::emit(&circuit);
            let parsed = asm::parse(&text)
                .unwrap_or_else(|e| panic!("generated programs must parse: {e}"));
            prop_assert_eq!(asm::emit(&parsed), text);
        }

        #[test]
        fn generation_is_a_pure_function_of_the_seed(
            qubits in 1u32..=16,
            gates in 0u32..=64,
            seed in any::<u64>(),
        ) {
            prop_assert_eq!(
                asm::emit(&random_circuit(qubits, gates, seed)),
                asm::emit(&random_circuit(qubits, gates, seed))
            );
        }
    }
}

// The grid grammar faces untrusted text on every front end (`cqla run`,
// `cqla sweep`, HTTP query strings and sweep bodies), so it gets the
// same mutation fuzz as the asm parser: the builtin sweep expressions
// (whose points `tests/golden/sweep_builtins.txt` pins), mutated and
// parsed against every registry entry's parameters and the sweep's own
// seven keys, must fail with a span inside the input or parse to a grid
// whose rendering parses back to the same points.

mod grid_front_end {
    use proptest::prelude::*;

    use cqla_repro::core::experiments::{registry, Experiment, Grid, ParamSpec};
    use cqla_repro::sweep::{DesignPoint, Sweep};

    use super::mutate;

    /// What a mutation inserts or writes: the grammar's own characters,
    /// whitespace, and one multi-byte character to test char boundaries.
    const MUTANT_CHARS: &str = "abcdeinorstwxz0123456789=,.:*+-_ \tλ";

    /// Every builtin sweep's grid expressions.
    fn builtin_expressions() -> Vec<String> {
        Sweep::BUILTIN
            .iter()
            .flat_map(|(name, _)| {
                let sweep = Sweep::builtin(name).expect("builtins resolve");
                sweep
                    .grids()
                    .iter()
                    .map(|g| g.spec().to_owned())
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// `(id, parameters)` of every registry entry, plus the sweep's.
    fn surfaces() -> Vec<(String, Vec<ParamSpec>)> {
        registry()
            .iter()
            .map(|exp| (exp.id().to_owned(), exp.specs()))
            .chain([("sweep".to_owned(), DesignPoint::paper_default().specs())])
            .collect()
    }

    proptest! {
        // Each case parses a ~60-byte expression against 15 surfaces;
        // debug builds run fewer.
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 1024 } else { 16384 }
        ))]

        #[test]
        fn mutated_grids_round_trip_or_fail_with_an_in_input_span(
            pick in any::<usize>(),
            edits in prop::collection::vec((0u8..3, any::<usize>(), any::<usize>()), 1..=8),
        ) {
            let seeds = builtin_expressions();
            let text = mutate(&seeds[pick % seeds.len()], MUTANT_CHARS, &edits);
            for (id, specs) in surfaces() {
                match Grid::parse(&id, &specs, &text) {
                Ok(grid) => {
                    let again = Grid::parse(&id, &specs, &grid.render());
                    prop_assert_eq!(again.map(|g| g.points()), Ok(grid.points()), "{}: {:?}", id, text);
                }
                Err(err) => {
                    let (start, end) = err.span;
                    prop_assert!(
                        start <= end && end <= text.len(),
                        "{id}: {:?} outside {:?}",
                        err.span,
                        text
                    );
                    prop_assert!(
                        text.is_char_boundary(start) && text.is_char_boundary(end),
                        "{id}: {:?} splits a char of {:?}",
                        err.span,
                        text
                    );
                    prop_assert!(err.to_string().contains(&err.message), "{id}: {:?}", text);
                }
                }
            }
        }
    }
}

// The HTTP front door reads untrusted bytes off every connection of
// `cqla serve`: valid GET and POST requests, mutated, must parse or fail
// without a panic, and a request that parses never carries a body past
// the cap. Requests are read back to back, as a keep-alive connection
// pipelines them, through a small buffer so lines straddle refills.

mod http_front_end {
    use std::io::BufReader;

    use proptest::prelude::*;

    use cqla_repro::serve::http::{read_request, MAX_BODY_BYTES};

    use super::mutate;

    /// What a mutation inserts or writes: request-line, header and
    /// framing characters, and one multi-byte character.
    const MUTANT_CHARS: &str = "GETPOSHv/1.0:?&=%+,ck-a9 \r\n\tλ";

    /// Valid requests: every route shape the server answers, with
    /// queries, escapes, bodies and both connection intents.
    const REQUESTS: [&str; 5] = [
        "GET /v1/run/table4?bits=8..=16:+4&code=steane HTTP/1.1\r\nHost: x\r\n\r\n",
        "GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
        "POST /v1/sweep HTTP/1.1\r\nContent-Length: 22\r\n\r\ncode=steane bits=32,64",
        "POST /v1/compile?width=4 HTTP/1.1\r\ncontent-length: 12\r\n\
         Connection: close\r\n\r\nh q0\ncnot q0, q1",
        "POST /v1/sweep/fig2 HTTP/1.1\nContent-Length: 14\n\nbits=8%2C16,24",
    ];

    proptest! {
        // Each case reads a few hundred bytes; debug builds run fewer.
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 1024 } else { 16384 }
        ))]

        #[test]
        fn mutated_requests_parse_or_fail_without_panicking(
            first in any::<usize>(),
            second in any::<usize>(),
            capacity in 1usize..=64,
            edits in prop::collection::vec((0u8..3, any::<usize>(), any::<usize>()), 1..=8),
        ) {
            let valid = [REQUESTS[first % REQUESTS.len()], REQUESTS[second % REQUESTS.len()]];
            let text = mutate(&valid.concat(), MUTANT_CHARS, &edits);
            let mut reader = BufReader::with_capacity(capacity, text.as_bytes());
            for _ in 0..3 {
                let Ok(request) = read_request(&mut reader) else {
                    break;
                };
                prop_assert!(request.body.len() <= MAX_BODY_BYTES, "{:?}", text);
            }
        }
    }
}

// The compressed-sparse-row dependency DAG against its definition: gate
// `i` depends on the latest earlier toucher of each of its operands, in
// operand order with duplicates dropped, and a gate's successors are
// every later gate listing it as a predecessor, in ascending order.

mod dag_oracle {
    use proptest::prelude::*;

    use cqla_repro::circuit::{Circuit, DependencyDag};
    use cqla_repro::compile::random::random_circuit;

    /// Predecessor and successor lists computed straight from the
    /// definition, by scanning the gate list.
    fn reference(circuit: &Circuit) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
        let gates = circuit.gates();
        let preds: Vec<Vec<u32>> = (0..gates.len())
            .map(|i| {
                let mut list = Vec::new();
                for q in gates[i].qubits() {
                    let latest = (0..i).rev().find(|&j| gates[j].qubits().contains(&q));
                    if let Some(j) = latest.map(|j| j as u32).filter(|j| !list.contains(j)) {
                        list.push(j);
                    }
                }
                list
            })
            .collect();
        let succs = (0..gates.len() as u32)
            .map(|p| {
                (p + 1..gates.len() as u32)
                    .filter(|&i| preds[i as usize].contains(&p))
                    .collect()
            })
            .collect();
        (preds, succs)
    }

    fn assert_matches_reference(circuit: &Circuit) {
        let dag = DependencyDag::new(circuit);
        let (preds, succs) = reference(circuit);
        assert_eq!(dag.num_gates(), circuit.len());
        assert_eq!(dag.num_qubits(), circuit.num_qubits());
        assert_eq!(dag.gates(), circuit.gates());
        for i in 0..circuit.len() {
            assert_eq!(dag.predecessors(i), &preds[i][..], "predecessors of {i}");
            assert_eq!(dag.successors(i), &succs[i][..], "successors of {i}");
        }
    }

    #[test]
    fn edge_cases_match_the_definition() {
        assert_matches_reference(&Circuit::new(3));
        // Gates repeating an operand pair, in both orders, around a
        // Toffoli that shares two operands with them.
        let mut c = Circuit::new(4);
        c.cnot(0, 1);
        c.cz(1, 0);
        c.toffoli(0, 1, 2);
        c.cnot(0, 1);
        c.toffoli(2, 3, 0);
        c.h(3);
        c.toffoli(1, 2, 3);
        assert_matches_reference(&c);
        let dag = DependencyDag::new(&c);
        assert_eq!(dag.predecessors(1), &[0]);
        assert_eq!(dag.successors(2), &[3, 4]);
        assert_eq!(dag.predecessors(6), &[3, 4, 5]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn csr_dag_matches_the_definition(
            qubits in 1u32..=24,
            gates in 0u32..=200,
            seed in any::<u64>(),
        ) {
            assert_matches_reference(&random_circuit(qubits, gates, seed));
        }

        #[test]
        fn csr_dag_matches_the_definition_on_toffoli_heavy_circuits(
            circuit in super::classical_circuit(6, 120),
        ) {
            assert_matches_reference(&circuit);
        }
    }
}

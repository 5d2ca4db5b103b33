//! Pins the cache simulator's observable output — execution order (read
//! through `trace`), hit / fetch / allocation counts and traced fetches —
//! on the 64-bit Draper adder with its inputs memory-resident, so any
//! change to the simulator's internals must reproduce it exactly.

use cqla_circuit::QubitId;
use cqla_core::CacheSim;
use cqla_core::FetchPolicy::{self, InOrder, OptimizedLookahead as Optimized};
use cqla_workloads::DraperAdder;

/// FNV-1a over the little-endian bytes of `values`: a compact digest of a
/// whole execution order.
fn digest(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn adder_64() -> (cqla_circuit::Circuit, Vec<QubitId>) {
    let adder = DraperAdder::new(64);
    let inputs = adder
        .a_register()
        .chain(adder.b_register())
        .map(QubitId::new)
        .collect();
    (adder.circuit(), inputs)
}

/// `(capacity, policy, repetitions, order digest, hits, fetch misses,
/// allocations)`. The order digest runs over the traced instructions of
/// every repetition, concatenated.
const RUNS: [(usize, FetchPolicy, u32, u64, u64, u64, u64); 12] = [
    (1, InOrder, 1, 0xa6cc_a055_cda9_0c48, 0, 1156, 122),
    (1, InOrder, 2, 0x3742_fbf3_5dc0_5035, 0, 2434, 122),
    (1, Optimized, 1, 0x684f_f13e_8572_f404, 27, 1129, 122),
    (1, Optimized, 2, 0x772c_1817_38e5_c285, 54, 2380, 122),
    (18, InOrder, 1, 0xa6cc_a055_cda9_0c48, 45, 1111, 122),
    (18, InOrder, 2, 0x3742_fbf3_5dc0_5035, 90, 2344, 122),
    (18, Optimized, 1, 0x5d95_cb24_d92a_2734, 795, 361, 122),
    (18, Optimized, 2, 0xd677_b83a_e4b8_1c3d, 1596, 838, 122),
    (144, InOrder, 1, 0xa6cc_a055_cda9_0c48, 589, 567, 122),
    (144, InOrder, 2, 0x3742_fbf3_5dc0_5035, 1212, 1222, 122),
    (144, Optimized, 1, 0x9c75_e001_69fc_2e24, 1027, 129, 122),
    (144, Optimized, 2, 0xd058_e5a8_a6cb_9d09, 2086, 348, 122),
];

/// `(capacity, policy, step digest, total fetches)` of `trace(.., 1)`.
const TRACES: [(usize, FetchPolicy, u64, u64); 6] = [
    (1, InOrder, 0xf218_cd82_4e2d_4af6, 1278),
    (1, Optimized, 0x401c_e265_2af3_5a99, 1251),
    (18, InOrder, 0xec0e_bbb0_a3bd_581d, 1233),
    (18, Optimized, 0x8f71_4782_bcec_9c85, 477),
    (144, InOrder, 0x3750_be1c_e1b0_ec59, 655),
    (144, Optimized, 0x6340_682c_ce0a_8941, 219),
];

#[test]
fn runs_match_the_pinned_output() {
    let (circuit, inputs) = adder_64();
    assert_eq!(circuit.len(), 490);
    for (capacity, policy, reps, order, hits, fetches, allocations) in RUNS {
        let sim = CacheSim::new(capacity);
        let run = sim.run(&circuit, policy, &inputs, reps);
        let case = format!("capacity {capacity}, {policy}, {reps} repetition(s)");
        // Repetition `r` executes as the trace after `r` warmups.
        let executed: Vec<u64> = (0..reps)
            .flat_map(|warmup| {
                sim.trace(&circuit, policy, &inputs, warmup)
                    .steps()
                    .to_vec()
            })
            .map(|step| step.instr as u64)
            .collect();
        assert_eq!(executed.len(), circuit.len() * reps as usize, "{case}");
        assert_eq!(digest(executed), order, "{case}");
        assert_eq!(run.hits(), hits, "{case}");
        assert_eq!(run.fetch_misses(), fetches, "{case}");
        // First touches allocate: every other access hits or fetches.
        let allocated = run.accesses() - run.hits() - run.fetch_misses();
        assert_eq!(allocated, allocations, "{case}");
    }
}

#[test]
fn traces_match_the_pinned_output() {
    let (circuit, inputs) = adder_64();
    for (capacity, policy, steps, fetches) in TRACES {
        let trace = CacheSim::new(capacity).trace(&circuit, policy, &inputs, 1);
        let case = format!("capacity {capacity}, {policy}");
        assert_eq!(trace.steps().len(), circuit.len(), "{case}");
        let packed = trace
            .steps()
            .iter()
            .map(|s| ((s.instr as u64) << 8) | u64::from(s.fetches));
        assert_eq!(digest(packed), steps, "{case}");
        assert_eq!(trace.total_fetches(), fetches, "{case}");
    }
}

#[test]
fn last_repetition_misses_are_the_warm_increment() {
    for seed in 0..24u64 {
        let qubits = 4 + (seed as u32 % 5) * 7;
        let circuit = cqla_compile::random::random_circuit(qubits, 64 + 16 * seed as u32, seed);
        let inputs: Vec<QubitId> = (0..qubits).step_by(2).map(QubitId::new).collect();
        for capacity in [1usize, 3, 8, 40] {
            let sim = CacheSim::new(capacity);
            for policy in [InOrder, Optimized] {
                let one = sim.run(&circuit, policy, &inputs, 1);
                let two = sim.run(&circuit, policy, &inputs, 2);
                let case = format!("seed {seed}, capacity {capacity}, {policy}");
                assert_eq!(one.last_fetch_misses(), one.fetch_misses(), "{case}");
                assert_eq!(
                    two.last_fetch_misses(),
                    two.fetch_misses() - one.fetch_misses(),
                    "{case}"
                );
                // The warm increment is what the second repetition fetches.
                let second = sim.trace(&circuit, policy, &inputs, 1);
                assert_eq!(second.total_fetches(), two.last_fetch_misses(), "{case}");
            }
        }
    }
}

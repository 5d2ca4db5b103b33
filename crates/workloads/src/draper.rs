//! The Draper carry-lookahead adder (Draper, Kutin, Rains, Svore,
//! quant-ph/0406142) — the kernel of the paper's evaluation.
//!
//! An out-of-place adder computing `z = a + b` in O(log n) Toffoli depth
//! using a carry-lookahead (prefix) tree:
//!
//! 1. generate bits `g_i = a_i·b_i` into the carry register,
//! 2. propagate bits `p_i = a_i ⊕ b_i` in place of `b`,
//! 3. **P rounds** — a tree of Toffolis building propagate products over
//!    power-of-two spans,
//! 4. **G rounds** — an upsweep merging generate information,
//! 5. **C rounds** — a downsweep completing every carry,
//! 6. inverse P rounds returning the ancilla to `|0⟩`,
//! 7. sum formation and `b` restoration.
//!
//! The wide early rounds (n simultaneous Toffolis) followed by a long
//! narrow tail are exactly the parallelism shape of the paper's Fig 2.

use std::collections::HashMap;

use cqla_circuit::{Circuit, ClassicalState};

use crate::width::{combine_carry, validate_width, MAX_VERIFIED_WIDTH};

/// The widest adder [`DraperAdder::new`] builds: the ceiling every
/// front end bounds adder-width parameters by, so an oversized width is
/// a usage error rather than a panic.
pub const MAX_ADDER_BITS: u32 = 4096;

/// Generator for Draper carry-lookahead adders.
///
/// # Examples
///
/// ```
/// use cqla_workloads::DraperAdder;
///
/// let adder = DraperAdder::new(8);
/// assert_eq!(adder.compute(173, 99), 272);
/// // Logarithmic depth: the 8-bit adder is under 20 Toffoli layers.
/// let dag = cqla_circuit::DependencyDag::new(&adder.circuit());
/// assert!(dag.depth() < 30);
/// ```
#[derive(Debug, Clone)]
pub struct DraperAdder {
    n: u32,
    circuit: Circuit,
    num_ancilla: u32,
}

impl DraperAdder {
    /// Builds the `n`-bit adder circuit.
    ///
    /// Circuits can be generated up to [`MAX_ADDER_BITS`] bits for
    /// scheduling studies; classical verification
    /// ([`DraperAdder::compute`]) is limited to 128 bits by `u128`
    /// arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds [`MAX_ADDER_BITS`].
    #[must_use]
    pub fn new(n: u32) -> Self {
        validate_width("adder", n, MAX_ADDER_BITS);
        let mut builder = Builder::new(n);
        let circuit = builder.build();
        Self {
            n,
            circuit,
            num_ancilla: builder.next_free - (3 * n + 1),
        }
    }

    /// Adder width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.n
    }

    /// The generated circuit.
    #[must_use]
    pub fn circuit(&self) -> Circuit {
        self.circuit.clone()
    }

    /// Borrowed view of the generated circuit.
    #[must_use]
    pub fn circuit_ref(&self) -> &Circuit {
        &self.circuit
    }

    /// Qubit indices of input register `a` (preserved by the adder).
    #[must_use]
    pub fn a_register(&self) -> std::ops::Range<u32> {
        0..self.n
    }

    /// Qubit indices of input register `b` (preserved by the adder).
    #[must_use]
    pub fn b_register(&self) -> std::ops::Range<u32> {
        self.n..2 * self.n
    }

    /// Total qubits: `3n + 1` registers plus the propagate tree.
    #[must_use]
    pub fn total_qubits(&self) -> u32 {
        self.circuit.num_qubits()
    }

    /// Runs the adder on classical inputs and returns `a + b`.
    ///
    /// This is exact verification, not estimation: the circuit is simulated
    /// gate by gate as a reversible boolean network.
    ///
    /// # Panics
    ///
    /// Panics if the inputs do not fit in `n` bits or `n` exceeds 128.
    #[must_use]
    pub fn compute(&self, a: u128, b: u128) -> u128 {
        assert!(
            self.n <= MAX_VERIFIED_WIDTH,
            "classical verification limited to {MAX_VERIFIED_WIDTH} bits"
        );
        let mut state = ClassicalState::zeros(self.total_qubits() as usize);
        state.load_uint(0, self.n as usize, a);
        state.load_uint(self.n as usize, self.n as usize, b);
        state
            .run(&self.circuit)
            .expect("the Draper adder is a classical reversible circuit");
        // Check the machine invariants while we are here (cheap, and they
        // are part of the adder's contract).
        debug_assert_eq!(state.read_uint(0, self.n as usize), a, "a clobbered");
        debug_assert_eq!(
            state.read_uint(self.n as usize, self.n as usize),
            b,
            "b clobbered"
        );
        let sum = state.read_uint(2 * self.n as usize, self.n as usize);
        combine_carry(sum, state.bit(3 * self.n as usize), self.n)
    }

    /// Verifies that every ancilla returns to zero and inputs are preserved
    /// for the given operands; returns the sum.
    ///
    /// # Panics
    ///
    /// Panics (with a descriptive message) if any invariant fails.
    #[must_use]
    pub fn compute_checked(&self, a: u128, b: u128) -> u128 {
        let mut state = ClassicalState::zeros(self.total_qubits() as usize);
        state.load_uint(0, self.n as usize, a);
        state.load_uint(self.n as usize, self.n as usize, b);
        state
            .run(&self.circuit)
            .expect("the Draper adder is a classical reversible circuit");
        assert_eq!(state.read_uint(0, self.n as usize), a, "a clobbered");
        assert_eq!(
            state.read_uint(self.n as usize, self.n as usize),
            b,
            "b clobbered"
        );
        for i in 0..self.num_ancilla {
            assert!(
                !state.bit((3 * self.n + 1 + i) as usize),
                "ancilla {i} not returned to zero"
            );
        }
        let sum = state.read_uint(2 * self.n as usize, self.n as usize);
        combine_carry(sum, state.bit(3 * self.n as usize), self.n)
    }
}

/// Circuit construction state.
struct Builder {
    n: u32,
    circuit: Circuit,
    /// `(t, m)` → ancilla qubit holding the propagate product
    /// `P_t[m] = p-product over [2^t·m, 2^t·(m+1))`.
    p_tree: HashMap<(u32, u32), u32>,
    next_free: u32,
}

impl Builder {
    fn new(n: u32) -> Self {
        // Count propagate-tree ancilla: P_t[m] for t >= 1, m >= 1,
        // 2^t·(m+1) <= n.
        let mut p_tree = HashMap::new();
        let mut next_free = 3 * n + 1;
        let mut t = 1;
        while (1u32 << t) * 2 <= n {
            let span = 1u32 << t;
            let mut m = 1;
            while span * (m + 1) <= n {
                p_tree.insert((t, m), next_free);
                next_free += 1;
                m += 1;
            }
            t += 1;
        }
        Self {
            n,
            // Register budget is known up front; Circuit validates every
            // gate against it.
            circuit: Circuit::new(next_free.max(3 * n + 1)),
            p_tree,
            next_free,
        }
    }

    fn a(&self, i: u32) -> u32 {
        i
    }

    fn b(&self, i: u32) -> u32 {
        self.n + i
    }

    fn z(&self, i: u32) -> u32 {
        2 * self.n + i
    }

    /// The qubit holding propagate product `P_t[m]`; level 0 lives in `b`.
    fn p(&self, t: u32, m: u32) -> u32 {
        if t == 0 {
            self.b(m)
        } else {
            *self
                .p_tree
                .get(&(t, m))
                .unwrap_or_else(|| panic!("P_{t}[{m}] not allocated"))
        }
    }

    fn build(&mut self) -> Circuit {
        let n = self.n;
        // 1. Generate bits: z_{i+1} = a_i AND b_i.
        for i in 0..n {
            self.circuit.toffoli(self.a(i), self.b(i), self.z(i + 1));
        }
        // 2. Propagate bits: b_i = a_i XOR b_i.
        for i in 0..n {
            self.circuit.cnot(self.a(i), self.b(i));
        }
        // 3. P rounds: build the propagate-product tree.
        self.p_rounds(false);
        // 4. G rounds (upsweep): z[2^t(m+1)] ^= z[2^t m + 2^(t-1)] AND
        //    P_{t-1}[2m+1].
        let mut t = 1;
        while 1u32 << t <= n {
            let span = 1u32 << t;
            let half = span / 2;
            let mut m = 0;
            while span * (m + 1) <= n {
                self.circuit.toffoli(
                    self.z(span * m + half),
                    self.p(t - 1, 2 * m + 1),
                    self.z(span * (m + 1)),
                );
                m += 1;
            }
            t += 1;
        }
        // 5. C rounds (downsweep): z[2^t m + 2^(t-1)] ^= z[2^t m] AND
        //    P_{t-1}[2m].
        let mut t = largest_t_with(|t| (1u32 << t) + (1u32 << (t - 1)) <= n);
        while t >= 1 {
            let span = 1u32 << t;
            let half = span / 2;
            let mut m = 1;
            while span * m + half <= n {
                self.circuit.toffoli(
                    self.z(span * m),
                    self.p(t - 1, 2 * m),
                    self.z(span * m + half),
                );
                m += 1;
            }
            t -= 1;
        }
        // 6. Inverse P rounds: return the tree ancilla to |0>.
        self.p_rounds(true);
        // 7. Sum: z_i ^= p_i (and z_0 = p_0); the carries already in z
        //    complete the sum bits.
        for i in 0..n {
            self.circuit.cnot(self.b(i), self.z(i));
        }
        // 8. Restore b to its input value.
        for i in 0..n {
            self.circuit.cnot(self.a(i), self.b(i));
        }
        self.circuit.clone()
    }

    /// The propagate-tree rounds; Toffolis are self-inverse so the inverse
    /// is the same gates in reverse round order.
    fn p_rounds(&mut self, inverse: bool) {
        let n = self.n;
        let mut rounds: Vec<Vec<(u32, u32, u32)>> = Vec::new();
        let mut t = 1;
        while (1u32 << t) * 2 <= n {
            let span = 1u32 << t;
            let mut gates = Vec::new();
            let mut m = 1;
            while span * (m + 1) <= n {
                gates.push((self.p(t - 1, 2 * m), self.p(t - 1, 2 * m + 1), self.p(t, m)));
                m += 1;
            }
            rounds.push(gates);
            t += 1;
        }
        if inverse {
            rounds.reverse();
            for round in &mut rounds {
                round.reverse();
            }
        }
        for round in rounds {
            for (c1, c2, target) in round {
                self.circuit.toffoli(c1, c2, target);
            }
        }
    }
}

fn largest_t_with(pred: impl Fn(u32) -> bool) -> u32 {
    let mut best = 0;
    for t in 1..32 {
        if pred(t) {
            best = t;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqla_circuit::DependencyDag;

    #[test]
    fn exhaustive_small_widths() {
        for n in 1..=4u32 {
            let adder = DraperAdder::new(n);
            for a in 0..(1u128 << n) {
                for b in 0..(1u128 << n) {
                    assert_eq!(adder.compute_checked(a, b), a + b, "n={n}, {a}+{b}");
                }
            }
        }
    }

    #[test]
    fn random_wide_operands() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for n in [8u32, 13, 16, 32, 64] {
            let adder = DraperAdder::new(n);
            let mask = if n == 128 {
                u128::MAX
            } else {
                (1u128 << n) - 1
            };
            for _ in 0..25 {
                let a = rng.gen::<u128>() & mask;
                let b = rng.gen::<u128>() & mask;
                assert_eq!(adder.compute_checked(a, b), a + b, "n={n}, {a}+{b}");
            }
        }
    }

    #[test]
    fn carry_chain_worst_case() {
        // All-ones + 1 ripples a carry through every position.
        for n in [8u32, 16, 64] {
            let adder = DraperAdder::new(n);
            let ones = (1u128 << n) - 1;
            assert_eq!(adder.compute_checked(ones, 1), 1u128 << n, "n={n}");
            assert_eq!(adder.compute_checked(ones, ones), ones * 2, "n={n}");
        }
    }

    #[test]
    fn depth_is_logarithmic() {
        // Toffoli-layer depth must grow like ~4·lg n, nowhere near linear.
        let d8 = DependencyDag::new(&DraperAdder::new(8).circuit()).depth();
        let d64 = DependencyDag::new(&DraperAdder::new(64).circuit()).depth();
        assert!(d64 < 2 * d8, "8-bit depth {d8}, 64-bit depth {d64}");
        assert!(
            d64 < 64,
            "64-bit adder depth {d64} should be far below linear"
        );
    }

    #[test]
    fn peak_parallelism_is_near_n() {
        // Fig 2: the 64-bit adder opens with ~n simultaneous gates.
        let dag = DependencyDag::new(&DraperAdder::new(64).circuit());
        let peak = dag.parallelism_profile().into_iter().max().unwrap();
        assert!(peak >= 55, "peak parallelism {peak}");
    }

    #[test]
    fn toffoli_count_is_linear() {
        for n in [16u32, 32, 64] {
            let adder = DraperAdder::new(n);
            let toffolis = adder.circuit_ref().counts().toffoli;
            assert!(
                toffolis <= 5 * u64::from(n),
                "n={n}: {toffolis} toffolis exceeds 5n"
            );
            assert!(
                toffolis >= 4 * u64::from(n) - 16,
                "n={n}: {toffolis} too few"
            );
        }
    }

    #[test]
    fn register_layout() {
        let adder = DraperAdder::new(16);
        assert_eq!(adder.a_register(), 0..16);
        assert_eq!(adder.b_register(), 16..32);
        assert_eq!(adder.circuit_ref().num_qubits(), adder.total_qubits());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn width_zero_rejected() {
        let _ = DraperAdder::new(0);
    }
}

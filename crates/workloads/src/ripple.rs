//! Ripple-carry adder — the linear-depth baseline the carry-lookahead
//! adder is measured against.
//!
//! A VBE-style (Vedral–Barenco–Ekert) out-of-place adder with the same
//! register contract as [`DraperAdder`](crate::DraperAdder): `a` and `b`
//! preserved, `z = a + b` in `n+1` bits, no ancilla. Carries ripple
//! sequentially, so depth is Θ(n) and available parallelism is ~1 — the
//! degenerate case of the paper's parallelism analysis.

use cqla_circuit::{Circuit, ClassicalState};

use crate::width::{combine_carry, validate_width, MAX_VERIFIED_WIDTH};

/// Generator for ripple-carry adders.
///
/// # Examples
///
/// ```
/// use cqla_workloads::RippleCarryAdder;
/// use cqla_circuit::DependencyDag;
///
/// let adder = RippleCarryAdder::new(8);
/// assert_eq!(adder.compute(200, 56), 256);
/// // The carry chain serializes: depth grows ~1 layer per bit.
/// assert!(DependencyDag::new(&adder.circuit()).depth() >= 8);
/// ```
#[derive(Debug, Clone)]
pub struct RippleCarryAdder {
    n: u32,
    circuit: Circuit,
}

impl RippleCarryAdder {
    /// Builds the `n`-bit ripple-carry adder.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds 128.
    #[must_use]
    pub fn new(n: u32) -> Self {
        validate_width("adder", n, MAX_VERIFIED_WIDTH);
        let mut c = Circuit::new(3 * n + 1);
        let a = |i: u32| i;
        let b = |i: u32| n + i;
        let z = |i: u32| 2 * n + i;
        // Carry chain: z_{i+1} = g_i XOR p_i·c_i, computed sequentially.
        for i in 0..n {
            c.toffoli(a(i), b(i), z(i + 1)); // z_{i+1} ^= g_i
            c.cnot(a(i), b(i)); // b_i = p_i
            c.toffoli(z(i), b(i), z(i + 1)); // z_{i+1} ^= p_i · c_i
        }
        // Sum: z_i ^= p_i.
        for i in 0..n {
            c.cnot(b(i), z(i));
        }
        // Restore b.
        for i in 0..n {
            c.cnot(a(i), b(i));
        }
        Self { n, circuit: c }
    }

    /// The generated circuit.
    #[must_use]
    pub fn circuit(&self) -> Circuit {
        self.circuit.clone()
    }

    /// Runs the adder on classical inputs and returns `a + b`, asserting
    /// that both inputs are preserved.
    ///
    /// # Panics
    ///
    /// Panics if the inputs do not fit in `n` bits.
    #[must_use]
    pub fn compute(&self, a: u128, b: u128) -> u128 {
        let mut state = ClassicalState::zeros(self.circuit.num_qubits() as usize);
        state.load_uint(0, self.n as usize, a);
        state.load_uint(self.n as usize, self.n as usize, b);
        state
            .run(&self.circuit)
            .expect("ripple-carry adder is classical");
        assert_eq!(state.read_uint(0, self.n as usize), a, "a clobbered");
        assert_eq!(
            state.read_uint(self.n as usize, self.n as usize),
            b,
            "b clobbered"
        );
        // Read the n sum bits and the carry-out separately so width-128
        // results stay within u128.
        let sum = state.read_uint(2 * self.n as usize, self.n as usize);
        combine_carry(sum, state.bit(3 * self.n as usize), self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draper::DraperAdder;
    use cqla_circuit::DependencyDag;

    #[test]
    fn exhaustive_small_widths() {
        for n in 1..=4u32 {
            let adder = RippleCarryAdder::new(n);
            for a in 0..(1u128 << n) {
                for b in 0..(1u128 << n) {
                    assert_eq!(adder.compute(a, b), a + b, "n={n}, {a}+{b}");
                }
            }
        }
    }

    #[test]
    fn agrees_with_draper() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for n in [8u32, 16, 32] {
            let ripple = RippleCarryAdder::new(n);
            let draper = DraperAdder::new(n);
            let mask = (1u128 << n) - 1;
            for _ in 0..20 {
                let a = rng.gen::<u128>() & mask;
                let b = rng.gen::<u128>() & mask;
                assert_eq!(ripple.compute(a, b), draper.compute(a, b), "n={n}");
            }
        }
    }

    #[test]
    fn depth_is_linear_and_parallelism_is_low() {
        // The carry chain serializes: depth grows by ~1 layer per bit
        // (the g-Toffolis and sum CNOTs parallelize, the carry Toffolis
        // do not).
        let d8 = DependencyDag::new(&RippleCarryAdder::new(8).circuit()).depth();
        let d32 = DependencyDag::new(&RippleCarryAdder::new(32).circuit()).depth();
        let d64 = DependencyDag::new(&RippleCarryAdder::new(64).circuit()).depth();
        assert!(d32 >= 32 && d64 >= 64, "depths {d32}, {d64}");
        // Slope ~1 layer per bit on both spans.
        let slope_lo = (d32 - d8) as f64 / 24.0;
        let slope_hi = (d64 - d32) as f64 / 32.0;
        assert!(
            (slope_lo - 1.0).abs() < 0.25,
            "low slope {slope_lo}: {d8}, {d32}"
        );
        assert!(
            (slope_hi - 1.0).abs() < 0.25,
            "high slope {slope_hi}: {d32}, {d64}"
        );
        // Draper's tree is far shallower and far more parallel at the same
        // width.
        let ripple = DependencyDag::new(&RippleCarryAdder::new(32).circuit());
        let cla = DependencyDag::new(&DraperAdder::new(32).circuit());
        assert!(cla.depth() * 2 < ripple.depth());
        assert!(cla.average_parallelism() > 2.0 * ripple.average_parallelism());
    }

    #[test]
    fn no_ancilla_used() {
        let adder = RippleCarryAdder::new(16);
        assert_eq!(adder.circuit.num_qubits(), 3 * 16 + 1);
    }
}

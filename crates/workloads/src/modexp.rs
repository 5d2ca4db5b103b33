//! Modular exponentiation — Shor's algorithm's dominant component (paper
//! §5.1, §6.1).
//!
//! "Quantum modular exponentiation is performed by repeated quantum
//! additions": for an `n`-bit modulus there are `2n` controlled modular
//! multiplications, each decomposed into `n` modular additions, and each
//! modular addition into two plain additions (the add and the conditional
//! modulus subtraction/correction). The Draper carry-lookahead adder is the
//! inner kernel; this module provides the bookkeeping that turns per-adder
//! costs into whole-application costs.

use cqla_circuit::{DependencyDag, Gate};

use crate::draper::DraperAdder;

/// Static schedule of an `n`-bit modular exponentiation built from Draper
/// additions.
///
/// # Examples
///
/// ```
/// use cqla_workloads::ModExp;
///
/// let me = ModExp::new(1024);
/// assert_eq!(me.multiplications(), 2048);
/// assert_eq!(me.additions(), 2 * 2048 * 1024);
/// assert_eq!(me.working_qubits(), 6 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModExp {
    n: u32,
}

impl ModExp {
    /// Creates the schedule for an `n`-bit modulus.
    ///
    /// This is pure bookkeeping, so any width is accepted: the counts are
    /// closed forms and [`ModExp::kernel_stats`] extrapolates past the
    /// widest generated adder.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "modulus width {n} unsupported");
        Self { n }
    }

    /// Modulus width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.n
    }

    /// Controlled modular multiplications: `2n` (one per exponent bit of
    /// the 2n-bit superposed exponent).
    #[must_use]
    pub fn multiplications(&self) -> u64 {
        2 * u64::from(self.n)
    }

    /// Modular additions per multiplication: `n` (one per shifted partial
    /// product).
    #[must_use]
    pub fn additions_per_multiplication(&self) -> u64 {
        u64::from(self.n)
    }

    /// Plain (Draper) additions in the whole modular exponentiation:
    /// `2 · 2n · n` — the factor 2 covers the modular-reduction addition
    /// paired with every arithmetic addition. Saturates at `u64::MAX`,
    /// which widths of 2^31 bits and more reach.
    #[must_use]
    pub fn additions(&self) -> u64 {
        (2 * self.multiplications()).saturating_mul(self.additions_per_multiplication())
    }

    /// Logical qubits the application keeps live: `4n` adder registers
    /// (a, b, output, tree) plus `n` exponent and `n` scratch — the
    /// footprint the CQLA's memory must hold (DESIGN.md §4.5).
    #[must_use]
    pub fn working_qubits(&self) -> u64 {
        6 * u64::from(self.n)
    }

    /// The width the kernel statistics are generated at: the modulus
    /// width, capped at 1024 bits ([`ModExp::kernel_stats_from`]
    /// extrapolates past it).
    #[must_use]
    pub fn kernel_width(&self) -> u32 {
        self.n.min(1024)
    }

    /// Dependency statistics of the inner adder, generated at
    /// [`ModExp::kernel_width`] and extrapolated logarithmically when
    /// wider.
    ///
    /// Returns `(toffoli_depth_equivalents, total_gate_equivalents)` of one
    /// addition, in two-qubit-gate units (Toffoli = 15).
    #[must_use]
    pub fn kernel_stats(&self) -> (u64, u64) {
        let dag = DependencyDag::new(DraperAdder::new(self.kernel_width()).circuit_ref());
        let weight = Gate::two_qubit_gate_equivalents;
        self.kernel_stats_from((dag.critical_path(weight), dag.total_work(weight)))
    }

    /// [`ModExp::kernel_stats`] from the `(critical path, total work)` of
    /// the [`ModExp::kernel_width`]-bit Draper adder, for a caller that
    /// already holds that adder's DAG.
    #[must_use]
    pub fn kernel_stats_from(&self, (mut depth, mut work): (u64, u64)) -> (u64, u64) {
        // Extrapolation for n > 1024: depth grows by 4 Toffoli rounds
        // (4×15 units) per doubling; work grows linearly.
        let mut w = u64::from(self.kernel_width());
        while w < u64::from(self.n) {
            depth += 4 * 15;
            work *= 2;
            w *= 2;
        }
        (depth, work)
    }
}

impl core::fmt::Display for ModExp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}-bit modular exponentiation ({} additions over {} qubits)",
            self.n,
            self.additions(),
            self.working_qubits()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_scale_quadratically() {
        let small = ModExp::new(32);
        let big = ModExp::new(64);
        assert_eq!(small.additions(), 2 * 64 * 32);
        assert_eq!(big.additions() / small.additions(), 4);
        assert_eq!(big.working_qubits(), 384);
    }

    #[test]
    fn kernel_stats_scale_correctly() {
        let (d128, w128) = ModExp::new(128).kernel_stats();
        let (d1024, w1024) = ModExp::new(1024).kernel_stats();
        let (d2048, w2048) = ModExp::new(2048).kernel_stats();
        // Work is near-linear in width.
        let work_ratio = w1024 as f64 / w128 as f64;
        assert!((7.0..=9.0).contains(&work_ratio), "work ratio {work_ratio}");
        // Beyond 1024 the extrapolation doubles work per doubling.
        assert_eq!(w2048, 2 * w1024);
        assert_eq!(d2048, d1024 + 60);
        // Depth stays logarithmic: far below work.
        assert!(d1024 > d128 && d1024 < w1024 / 16);
    }

    #[test]
    fn display_mentions_additions() {
        let text = ModExp::new(8).to_string();
        assert!(text.contains("8-bit"));
        assert!(text.contains("additions"));
    }

    #[test]
    fn bookkeeping_accepts_any_width() {
        let me = ModExp::new(1 << 20);
        assert_eq!(me.working_qubits(), 6 << 20);
        let (d, w) = me.kernel_stats();
        let (d1024, w1024) = ModExp::new(1024).kernel_stats();
        // Ten doublings past the widest generated adder.
        assert_eq!(d, d1024 + 10 * 60);
        assert_eq!(w, w1024 << 10);
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn zero_width_rejected() {
        let _ = ModExp::new(0);
    }
}

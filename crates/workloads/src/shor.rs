//! Shor's algorithm composition: modular exponentiation + QFT (paper §6).

use crate::modexp::ModExp;
use crate::qft::Qft;

/// A complete Shor factoring instance for an `n`-bit number.
///
/// The paper's application analysis treats Shor's algorithm as its two
/// phases: modular exponentiation (computation-dominated, §6.1) and the
/// quantum Fourier transform (communication-dominated). This type carries
/// both and the whole-run size estimates the fidelity analysis needs.
///
/// # Examples
///
/// ```
/// use cqla_workloads::ShorInstance;
///
/// let shor = ShorInstance::new(1024);
/// let (timesteps, qubits) = shor.app_size();
/// assert!(timesteps > 1e9);
/// assert_eq!(qubits, 6.0 * 1024.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShorInstance {
    n: u32,
}

impl ShorInstance {
    /// Creates an instance for factoring an `n`-bit number.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "cannot factor a zero-bit number");
        Self { n }
    }

    /// The modular-exponentiation phase.
    #[must_use]
    pub fn modexp(&self) -> ModExp {
        ModExp::new(self.n)
    }

    /// The final QFT over the `2n`-bit exponent register (saturating at
    /// `u32::MAX` qubits).
    #[must_use]
    pub fn qft(&self) -> Qft {
        Qft::new(self.n.saturating_mul(2))
    }

    /// `(K, Q)` — logical time-steps and logical qubits of the whole run,
    /// the inputs to the paper's Eq. 1 requirement `P_f ≤ 1/(K·Q)`.
    ///
    /// `K` counts two-qubit-gate equivalents on the critical path of the
    /// serialized addition stream; `Q` is the working set.
    #[must_use]
    pub fn app_size(&self) -> (f64, f64) {
        self.app_size_from(self.modexp().kernel_stats())
    }

    /// [`ShorInstance::app_size`] from one addition's
    /// [`ModExp::kernel_stats`], for a caller that already holds them.
    #[must_use]
    pub fn app_size_from(&self, (depth_per_add, _): (u64, u64)) -> (f64, f64) {
        let me = self.modexp();
        let k = me.additions() as f64 * depth_per_add as f64 + self.qft().total_gates() as f64;
        (k, me.working_qubits() as f64)
    }
}

impl core::fmt::Display for ShorInstance {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Shor-{} (factor a {}-bit number)", self.n, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fraction of the total gate work contributed by the QFT — small, per
    /// the paper ("the QFT comprises a small fraction of the overall
    /// Shor's algorithm").
    fn qft_work_fraction(shor: ShorInstance) -> f64 {
        let me = shor.modexp();
        let (_, work_per_add) = me.kernel_stats();
        let modexp_work = me.additions() as f64 * work_per_add as f64;
        let qft_work = shor.qft().total_gates() as f64;
        qft_work / (modexp_work + qft_work)
    }

    #[test]
    fn composition_widths() {
        let s = ShorInstance::new(512);
        assert_eq!(s.modexp(), ModExp::new(512));
        // The QFT spans the 1024-bit exponent register.
        assert_eq!(s.qft().pair_interactions(), 1024 * 1023 / 2);
    }

    #[test]
    fn app_size_grows_superquadratically() {
        let (k1, q1) = ShorInstance::new(128).app_size();
        let (k2, q2) = ShorInstance::new(256).app_size();
        assert!(k2 / k1 > 4.0, "K ratio {}", k2 / k1);
        assert_eq!(q2 / q1, 2.0);
    }

    #[test]
    fn app_size_is_pinned_bit_exact() {
        // (bits, K, Q, QFT work fraction) as `f64::to_bits`, captured
        // when the QFT was still sized by generating its circuit.
        for (bits, k, q, fraction) in [
            (
                32,
                0x4126_f040_0000_0000,
                0x4068_0000_0000_0000,
                0x3f2e_18dc_61bb_7f92,
            ),
            (
                1024,
                0x41d4_d801_0000_0000,
                0x40b8_0000_0000_0000,
                0x3eda_7018_b0cf_7f88,
            ),
            (
                2048,
                0x41f8_9800_8000_0000,
                0x40c8_0000_0000_0000,
                0x3eca_6e77_5a0b_5727,
            ),
        ] {
            let shor = ShorInstance::new(bits);
            let (kk, qq) = shor.app_size();
            assert_eq!(kk.to_bits(), k, "K at {bits} bits: {kk}");
            assert_eq!(qq.to_bits(), q, "Q at {bits} bits: {qq}");
            let f = qft_work_fraction(shor);
            assert_eq!(f.to_bits(), fraction, "QFT fraction at {bits} bits: {f}");
        }
    }

    #[test]
    fn qft_is_a_small_fraction() {
        let f = qft_work_fraction(ShorInstance::new(256));
        assert!(f < 0.01, "QFT fraction {f}");
    }

    #[test]
    fn display() {
        assert_eq!(
            ShorInstance::new(1024).to_string(),
            "Shor-1024 (factor a 1024-bit number)"
        );
    }
}

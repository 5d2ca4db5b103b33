//! System fidelity under concatenation — Gottesman's local fault-tolerance
//! estimate (paper Eq. 1) and the level-mixing budget it implies.
//!
//! A computation of size `S = K·Q` (K time-steps on Q logical qubits)
//! succeeds with reasonable probability only if each logical operation
//! fails with probability at most `1/(K·Q)`. Concatenation buys double-
//! exponential reliability:
//!
//! ```text
//! P_f(L) = (p_th / r^L) · (p₀ / p_th)^(2^L)          (Eq. 1)
//! ```
//!
//! where `r` is the communication distance between level-1 blocks (r = 12
//! in the QLA layout) and `p_th` the code threshold. The memory hierarchy
//! runs part of the work at level 1; this module computes how much level-1
//! exposure the error budget allows — the paper's "only 2% of total
//! execution time" figure for the Steane code at Shor-1024 scale.

use cqla_iontrap::TechnologyParams;
use cqla_units::Probability;

use crate::code::{Code, Level};

/// Average communication distance between level-1 blocks in the QLA/CQLA
/// layout, in cells (paper: "aligned in QLA to allow r = 12 cells on
/// average").
pub const COMMUNICATION_DISTANCE_R: f64 = 12.0;

/// Evaluates Eq. 1: the failure probability per logical operation at
/// concatenation `level`, given physical component failure rate `p0` and
/// threshold `p_th`.
///
/// Returns a saturated probability (1.0) when `p0` is at or above
/// threshold — concatenation then makes things worse, not better.
#[must_use]
pub fn gottesman_failure_rate(p0: Probability, p_th: Probability, level: Level) -> Probability {
    let ratio = p0.value() / p_th.value();
    if ratio >= 1.0 {
        return Probability::ONE;
    }
    let l = i32::from(level.get());
    let exponent = 2f64.powi(l);
    let r_pow_l = COMMUNICATION_DISTANCE_R.powi(l);
    let pf = p_th.value() / r_pow_l * ratio.powf(exponent);
    Probability::saturating(pf)
}

/// The size of an application run: `K` logical time-steps on `Q` logical
/// qubits.
///
/// # Examples
///
/// ```
/// use cqla_ecc::fidelity::AppSize;
///
/// // Shor-1024: K and Q as `ShorInstance::app_size` gives them.
/// let shor = AppSize::new(1_398_801_408.0, 6144.0);
/// assert!(shor.op_count() > 1e12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppSize {
    timesteps: f64,
    qubits: f64,
}

impl AppSize {
    /// Creates an application size from time-steps and qubit count.
    ///
    /// # Panics
    ///
    /// Panics if either value is not positive and finite.
    #[must_use]
    pub fn new(timesteps: f64, qubits: f64) -> Self {
        assert!(
            timesteps.is_finite() && timesteps > 0.0,
            "timesteps must be positive"
        );
        assert!(
            qubits.is_finite() && qubits > 0.0,
            "qubits must be positive"
        );
        Self { timesteps, qubits }
    }

    /// `Q` — logical qubits.
    #[must_use]
    pub fn qubits(&self) -> f64 {
        self.qubits
    }

    /// `K·Q`, the total exposure to logical-operation failures.
    #[must_use]
    pub fn op_count(&self) -> f64 {
        self.timesteps * self.qubits
    }

    /// The failure rate each logical operation must beat: `1 / (K·Q)`.
    #[must_use]
    pub fn required_failure_rate(&self) -> Probability {
        Probability::saturating(1.0 / self.op_count())
    }
}

/// The level-mixing fidelity budget for one code at one technology point.
///
/// # Examples
///
/// ```
/// use cqla_ecc::fidelity::{AppSize, FidelityBudget};
/// use cqla_ecc::Code;
/// use cqla_iontrap::TechnologyParams;
///
/// let tech = TechnologyParams::projected();
/// let budget = FidelityBudget::new(Code::Steane713, &tech);
/// let app = AppSize::new(1_398_801_408.0, 6144.0); // Shor-1024
/// let share = budget.max_level1_share(app);
/// // Paper: "it can spend only 2% of the total execution time in level 1".
/// assert!(share > 0.0 && share < 0.2, "share = {share}");
/// ```
#[derive(Debug, Clone)]
pub struct FidelityBudget {
    code: Code,
    p_level1: Probability,
    p_level2: Probability,
}

impl FidelityBudget {
    /// Builds the budget for `code` at technology point `tech`, taking
    /// `p₀` as the mean projected component failure rate.
    #[must_use]
    pub fn new(code: Code, tech: &TechnologyParams) -> Self {
        let p0 = tech.average_failure_rate();
        let p_th = code.threshold();
        Self {
            code,
            p_level1: gottesman_failure_rate(p0, p_th, Level::ONE),
            p_level2: gottesman_failure_rate(p0, p_th, Level::TWO),
        }
    }

    /// The code this budget is for.
    #[must_use]
    pub fn code(&self) -> Code {
        self.code
    }

    /// Per-operation failure rate at level 1 (Eq. 1).
    #[must_use]
    pub fn level1_failure_rate(&self) -> Probability {
        self.p_level1
    }

    /// Per-operation failure rate at level 2 (Eq. 1).
    #[must_use]
    pub fn level2_failure_rate(&self) -> Probability {
        self.p_level2
    }

    /// The smallest level whose Eq. 1 failure rate meets the application's
    /// `1/KQ` requirement, or `None` if even level 2 is insufficient at
    /// this technology point.
    #[must_use]
    pub fn required_level(&self, app: AppSize) -> Option<Level> {
        let need = app.required_failure_rate();
        if self.p_level1 <= need {
            Some(Level::ONE)
        } else if self.p_level2 <= need {
            Some(Level::TWO)
        } else {
            None
        }
    }

    /// Maximum fraction `x` of logical operations that may run at level 1
    /// (the rest at level 2) while keeping the mean per-operation failure
    /// within the application budget:
    ///
    /// ```text
    /// x·P_f(1) + (1−x)·P_f(2) ≤ 1 / (K·Q)
    /// ```
    ///
    /// Clamped to `[0, 1]`. Zero means the hierarchy must keep everything
    /// at level 2; one means even a pure level-1 machine is reliable
    /// enough.
    #[must_use]
    pub fn max_level1_share(&self, app: AppSize) -> f64 {
        let need = app.required_failure_rate().value();
        let p1 = self.p_level1.value();
        let p2 = self.p_level2.value();
        if p1 <= need {
            return 1.0;
        }
        if p2 >= need {
            return 0.0;
        }
        ((need - p2) / (p1 - p2)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> TechnologyParams {
        TechnologyParams::projected()
    }

    #[test]
    fn eq1_matches_hand_computation() {
        let p0 = Probability::saturating(4e-8);
        let pth = Probability::saturating(7.5e-5);
        let got = gottesman_failure_rate(p0, pth, Level::ONE).value();
        let expect = 7.5e-5 / 12.0 * (4e-8_f64 / 7.5e-5).powi(2);
        assert!((got - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn level2_is_double_exponentially_better() {
        let p0 = tech().average_failure_rate();
        let pth = Code::Steane713.threshold();
        let l1 = gottesman_failure_rate(p0, pth, Level::ONE).value();
        let l2 = gottesman_failure_rate(p0, pth, Level::TWO).value();
        assert!(l2 < l1 * 1e-6, "l1={l1:e}, l2={l2:e}");
    }

    #[test]
    fn above_threshold_concatenation_fails() {
        let p0 = Probability::saturating(1e-3);
        let pth = Probability::saturating(7.5e-5);
        assert_eq!(
            gottesman_failure_rate(p0, pth, Level::TWO),
            Probability::ONE
        );
    }

    /// Shor-1024's size: K and Q as `ShorInstance::app_size` gives them
    /// (pinned bit-exact in `cqla-workloads`).
    fn shor_1024() -> AppSize {
        AppSize::new(1_398_801_408.0, 6144.0)
    }

    #[test]
    fn shor_1024_needs_level_two() {
        let budget = FidelityBudget::new(Code::Steane713, &tech());
        let app = shor_1024();
        assert_eq!(budget.required_level(app), Some(Level::TWO));
    }

    #[test]
    fn small_apps_can_run_at_level_one() {
        let budget = FidelityBudget::new(Code::Steane713, &tech());
        let tiny = AppSize::new(1e3, 10.0);
        assert_eq!(budget.required_level(tiny), Some(Level::ONE));
        assert_eq!(budget.max_level1_share(tiny), 1.0);
    }

    #[test]
    fn steane_level1_share_matches_paper_two_percent() {
        // Paper §5.2: "for our system to be reliable it can spend only 2%
        // of the total execution time in level 1" (Steane, Shor-1024).
        let budget = FidelityBudget::new(Code::Steane713, &tech());
        let share = budget.max_level1_share(shor_1024());
        assert!(
            (0.005..=0.10).contains(&share),
            "expected a few percent, got {share}"
        );
    }

    #[test]
    fn bacon_shor_budget_is_more_favourable() {
        // Paper: "The Bacon-Shor ECC can be analyzed in a similar manner
        // and their results are more favourable due to a higher threshold."
        let app = shor_1024();
        let st = FidelityBudget::new(Code::Steane713, &tech()).max_level1_share(app);
        let bs = FidelityBudget::new(Code::BaconShor913, &tech()).max_level1_share(app);
        assert!(bs > st, "steane {st}, bacon-shor {bs}");
    }

    #[test]
    fn app_size_accessors() {
        let app = AppSize::new(100.0, 50.0);
        assert_eq!(app.qubits(), 50.0);
        assert_eq!(app.op_count(), 5_000.0);
        assert!((app.required_failure_rate().value() - 2e-4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn app_size_rejects_zero() {
        let _ = AppSize::new(0.0, 5.0);
    }
}

//! Probabilities and failure rates.

/// Error returned when constructing a [`Probability`] outside `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbabilityError {
    value: f64,
}

impl ProbabilityError {
    /// The offending value.
    #[must_use]
    pub const fn value(&self) -> f64 {
        self.value
    }
}

impl core::fmt::Display for ProbabilityError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "probability {} is outside [0, 1]", self.value)
    }
}

impl std::error::Error for ProbabilityError {}

/// A probability in `[0, 1]`, used for component failure rates and logical
/// error rates.
///
/// Failure rates in this study span ~20 orders of magnitude (10⁻⁴ physical
/// down to 10⁻²³ logical at level 2), so the type stores an `f64` and
/// provides the combinators the fault-tolerance analysis needs.
///
/// # Examples
///
/// ```
/// use cqla_units::Probability;
///
/// let p_gate = Probability::new(1e-7)?;
/// // Probability at least one of 100 gates fails (union bound).
/// let p_any = p_gate.union_bound(100);
/// assert!((p_any.value() - 1e-5).abs() < 1e-9);
/// # Ok::<(), cqla_units::ProbabilityError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Probability(f64);

impl Probability {
    /// Certain failure.
    pub const ONE: Self = Self(1.0);

    /// Certain success.
    pub const ZERO: Self = Self(0.0);

    /// Creates a probability.
    ///
    /// # Errors
    ///
    /// Returns [`ProbabilityError`] if `value` is not in `[0, 1]` or is NaN.
    pub fn new(value: f64) -> Result<Self, ProbabilityError> {
        if value.is_nan() || !(0.0..=1.0).contains(&value) {
            Err(ProbabilityError { value })
        } else {
            Ok(Self(value))
        }
    }

    /// Creates a probability, clamping to `[0, 1]`.
    ///
    /// Useful for analytic estimates (e.g. union bounds) that can exceed 1.
    /// NaN clamps to 1 (pessimistic).
    #[must_use]
    pub fn saturating(value: f64) -> Self {
        if value.is_nan() {
            Self::ONE
        } else {
            Self(value.clamp(0.0, 1.0))
        }
    }

    /// Returns the raw value.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Probability that at least one of `n` independent events occurs,
    /// bounded by `n * p` (the union bound, saturating at 1).
    ///
    /// The union bound is what the fault-tolerance literature (and the
    /// paper's `P_f = 1 / KQ` requirement) uses.
    #[must_use]
    pub fn union_bound(self, n: u64) -> Self {
        Self::saturating(self.0 * n as f64)
    }

    /// Exact probability that at least one of `n` independent events occurs:
    /// `1 - (1 - p)^n`.
    #[must_use]
    pub fn any_of(self, n: u64) -> Self {
        Self::saturating(1.0 - (1.0 - self.0).powi(n.min(i32::MAX as u64) as i32))
    }

    /// Returns the larger probability.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl core::fmt::Display for Probability {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.3e}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_range() {
        assert!(Probability::new(0.0).is_ok());
        assert!(Probability::new(1.0).is_ok());
        assert!(Probability::new(0.5).is_ok());
        assert!(Probability::new(-0.1).is_err());
        assert!(Probability::new(1.1).is_err());
        assert!(Probability::new(f64::NAN).is_err());
    }

    #[test]
    fn error_reports_value() {
        let err = Probability::new(2.0).unwrap_err();
        assert!((err.value() - 2.0).abs() < 1e-12);
        assert_eq!(err.to_string(), "probability 2 is outside [0, 1]");
    }

    #[test]
    fn saturating_clamps() {
        assert_eq!(Probability::saturating(5.0), Probability::ONE);
        assert_eq!(Probability::saturating(-5.0), Probability::ZERO);
        assert_eq!(Probability::saturating(f64::NAN), Probability::ONE);
    }

    #[test]
    fn union_bound_scales_linearly() {
        let p = Probability::new(1e-8).unwrap();
        assert!((p.union_bound(1_000).value() - 1e-5).abs() < 1e-12);
        assert_eq!(
            Probability::new(0.5).unwrap().union_bound(10),
            Probability::ONE
        );
    }

    #[test]
    fn any_of_matches_exact_formula() {
        let p = Probability::new(0.1).unwrap();
        let expected = 1.0 - 0.9f64.powi(3);
        assert!((p.any_of(3).value() - expected).abs() < 1e-12);
    }

    #[test]
    fn complement_and_max() {
        let p = Probability::new(0.25).unwrap();
        let q = Probability::new(1.0 - p.value()).unwrap();
        assert_eq!(p.max(q), q);
    }

    #[test]
    fn display_is_scientific() {
        assert_eq!(Probability::new(1e-7).unwrap().to_string(), "1.000e-7");
    }
}

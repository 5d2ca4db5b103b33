//! Probabilities and failure rates.

/// A probability in `[0, 1]`, used for component failure rates and logical
/// error rates.
///
/// Failure rates in this study span ~20 orders of magnitude (10⁻⁴ physical
/// down to 10⁻²³ logical at level 2), so the type stores an `f64`.
///
/// # Examples
///
/// ```
/// use cqla_units::Probability;
///
/// // Per-gate failure rate of 1e-7: the union bound over 100 gates.
/// let p_any = Probability::saturating(1e-7 * 100.0);
/// assert!((p_any.value() - 1e-5).abs() < 1e-9);
/// // Estimates past certainty clamp to 1.
/// assert_eq!(Probability::saturating(1.5), Probability::ONE);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Probability(f64);

impl Probability {
    /// Certain failure.
    pub const ONE: Self = Self(1.0);

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
    fn saturating_clamps() {
        assert_eq!(Probability::saturating(5.0), Probability::ONE);
        assert_eq!(Probability::saturating(-5.0).value(), 0.0);
        assert_eq!(Probability::saturating(f64::NAN), Probability::ONE);
        assert_eq!(Probability::saturating(0.25).value(), 0.25);
    }

    #[test]
    fn display_is_scientific() {
        assert_eq!(Probability::saturating(1e-7).to_string(), "1.000e-7");
    }
}

//! Area quantities for trap-grid and tile footprints.

/// Area in square micrometers — the natural unit of trapping-region
/// footprints (one 50 µm region is 2500 µm²).
///
/// # Examples
///
/// ```
/// use cqla_units::SquareMicrometers;
///
/// let region = SquareMicrometers::new(2_500.0);
/// let tile = region * 81.0;
/// assert!((tile.to_square_millimeters().value() - 0.2025).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SquareMicrometers(f64);

impl SquareMicrometers {
    /// Zero area.
    pub const ZERO: Self = Self(0.0);

    /// Creates an area from a value in square micrometers.
    #[must_use]
    pub const fn new(value: f64) -> Self {
        Self(value)
    }

    /// Returns the raw value in square micrometers.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts to square millimeters (the unit the paper reports tile
    /// sizes in).
    #[must_use]
    pub fn to_square_millimeters(self) -> SquareMillimeters {
        SquareMillimeters::new(self.0 / 1e6)
    }
}

impl core::fmt::Display for SquareMicrometers {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} um^2", self.0)
    }
}

impl core::ops::Add for SquareMicrometers {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl core::ops::AddAssign for SquareMicrometers {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl core::ops::Mul<f64> for SquareMicrometers {
    type Output = Self;
    fn mul(self, rhs: f64) -> Self {
        Self(self.0 * rhs)
    }
}

impl core::iter::Sum for SquareMicrometers {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |acc, x| acc + x)
    }
}

/// Area in square millimeters — the unit of logical-qubit tiles and whole
/// processor footprints in the paper (Table 2 reports tile sizes in mm²).
///
/// # Examples
///
/// ```
/// use cqla_units::SquareMillimeters;
///
/// let steane_l2 = SquareMillimeters::new(3.4);
/// let qla_site = steane_l2 * 3.0; // one data + two ancilla tiles
/// assert!((qla_site.value() - 10.2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SquareMillimeters(f64);

impl SquareMillimeters {
    /// Zero area.
    pub const ZERO: Self = Self(0.0);

    /// Creates an area from a value in square millimeters.
    #[must_use]
    pub const fn new(value: f64) -> Self {
        Self(value)
    }

    /// Returns the raw value in square millimeters.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Returns the value in square meters (the paper's headline "1 m² on a
    /// side" QLA figure makes this scale relevant).
    #[must_use]
    pub fn as_square_meters(self) -> f64 {
        self.0 / 1e6
    }
}

impl core::fmt::Display for SquareMillimeters {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.4} mm^2", self.0)
    }
}

impl core::ops::Add for SquareMillimeters {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl core::ops::AddAssign for SquareMillimeters {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl core::ops::Sub for SquareMillimeters {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl core::ops::Mul<f64> for SquareMillimeters {
    type Output = Self;
    fn mul(self, rhs: f64) -> Self {
        Self(self.0 * rhs)
    }
}

impl core::ops::Div<f64> for SquareMillimeters {
    type Output = Self;
    fn div(self, rhs: f64) -> Self {
        Self(self.0 / rhs)
    }
}

/// Ratio of two areas is dimensionless (used for area-reduction factors).
impl core::ops::Div<SquareMillimeters> for SquareMillimeters {
    type Output = f64;
    fn div(self, rhs: SquareMillimeters) -> f64 {
        self.0 / rhs.0
    }
}

impl core::iter::Sum for SquareMillimeters {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |acc, x| acc + x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_between_scales() {
        let a = SquareMicrometers::new(2.5e6);
        assert_eq!(a.to_square_millimeters(), SquareMillimeters::new(2.5));
    }

    #[test]
    fn area_arithmetic() {
        let a = SquareMillimeters::new(3.0);
        let b = SquareMillimeters::new(1.5);
        assert_eq!(a + b, SquareMillimeters::new(4.5));
        assert_eq!(a - b, SquareMillimeters::new(1.5));
        assert_eq!(a * 2.0, SquareMillimeters::new(6.0));
        assert_eq!(a / 2.0, SquareMillimeters::new(1.5));
        assert!((a / b - 2.0).abs() < 1e-12);
    }

    #[test]
    fn area_sum() {
        let total: SquareMillimeters = (1..=3).map(|i| SquareMillimeters::new(f64::from(i))).sum();
        assert_eq!(total, SquareMillimeters::new(6.0));
    }

    #[test]
    fn square_meters_conversion() {
        let m2 = SquareMillimeters::new(1e6);
        assert!((m2.as_square_meters() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_includes_units() {
        assert_eq!(SquareMillimeters::new(3.4).to_string(), "3.4000 mm^2");
        assert_eq!(SquareMicrometers::new(2500.0).to_string(), "2500 um^2");
    }
}

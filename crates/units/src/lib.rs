//! Typed physical quantities for the CQLA reproduction.
//!
//! The architecture study mixes microsecond-scale physical operations,
//! second-scale error-correction procedures, micrometer-scale trap geometry
//! and square-millimeter tile areas. Mixing those up silently is exactly the
//! kind of bug a units layer prevents, so every quantity that crosses a crate
//! boundary in this workspace is a newtype from this crate
//! ([C-NEWTYPE]).
//!
//! # Examples
//!
//! ```
//! use cqla_units::{Seconds, Micrometers, SquareMillimeters};
//!
//! let cycle = Seconds::from_micros(10.0);
//! let ec = cycle * 308.0; // 308 cycles of level-1 error correction
//! assert!((ec.as_secs() - 3.08e-3).abs() < 1e-12);
//!
//! let region = Micrometers::new(50.0);
//! let tile: SquareMillimeters = (region * region * 81.0).to_square_millimeters();
//! assert!((tile.value() - 0.2025).abs() < 1e-12);
//! ```
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod probability;
mod time;

pub use area::{SquareMicrometers, SquareMillimeters};
pub use probability::{Probability, ProbabilityError};
pub use time::{Cycles, Seconds};

/// Length in micrometers, the natural unit of ion-trap geometry.
///
/// Multiplying two lengths yields a [`SquareMicrometers`] area.
///
/// # Examples
///
/// ```
/// use cqla_units::Micrometers;
///
/// let trap = Micrometers::new(5.0);
/// let region = trap * 10.0; // ten electrodes per trapping region
/// assert_eq!(region, Micrometers::new(50.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Micrometers(f64);

impl Micrometers {
    /// Creates a length from a value in micrometers.
    #[must_use]
    pub const fn new(value: f64) -> Self {
        Self(value)
    }

    /// Returns the raw value in micrometers.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }
}

impl core::fmt::Display for Micrometers {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} um", self.0)
    }
}

impl core::ops::Add for Micrometers {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl core::ops::Sub for Micrometers {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl core::ops::Mul<f64> for Micrometers {
    type Output = Self;
    fn mul(self, rhs: f64) -> Self {
        Self(self.0 * rhs)
    }
}

impl core::ops::Mul<Micrometers> for Micrometers {
    type Output = SquareMicrometers;
    fn mul(self, rhs: Micrometers) -> SquareMicrometers {
        SquareMicrometers::new(self.0 * rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micrometer_arithmetic() {
        let a = Micrometers::new(30.0);
        let b = Micrometers::new(20.0);
        assert_eq!(a + b, Micrometers::new(50.0));
        assert_eq!(a - b, Micrometers::new(10.0));
        assert_eq!(a * 2.0, Micrometers::new(60.0));
    }

    #[test]
    fn micrometer_squares_into_area() {
        let side = Micrometers::new(50.0);
        let area = side * side;
        assert_eq!(area, SquareMicrometers::new(2_500.0));
    }

    #[test]
    fn micrometer_displays_unit() {
        assert_eq!(Micrometers::new(5.0).to_string(), "5 um");
    }
}

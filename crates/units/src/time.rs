//! Time quantities: wall-clock seconds and ion-trap clock cycles.

/// Simulated wall-clock time in seconds.
///
/// The paper quotes physical operations in microseconds and logical
/// operations in milliseconds-to-seconds; everything is normalized to seconds
/// here with convenience constructors for the smaller scales.
///
/// # Examples
///
/// ```
/// use cqla_units::Seconds;
///
/// let gate = Seconds::from_micros(10.0);
/// let ec = Seconds::new(0.3);
/// assert!(ec > gate);
/// assert!((ec / gate - 30_000.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(f64);

impl Seconds {
    /// Zero elapsed time.
    pub const ZERO: Self = Self(0.0);

    /// Creates a duration from seconds.
    #[must_use]
    pub const fn new(secs: f64) -> Self {
        Self(secs)
    }

    /// Creates a duration from microseconds.
    #[must_use]
    pub fn from_micros(micros: f64) -> Self {
        Self(micros * 1e-6)
    }

    /// Creates a duration from milliseconds.
    #[must_use]
    pub fn from_millis(millis: f64) -> Self {
        Self(millis * 1e-3)
    }

    /// Returns the raw value in seconds.
    #[must_use]
    pub const fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the value in microseconds.
    #[must_use]
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the value in milliseconds.
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the value in hours.
    #[must_use]
    pub fn as_hours(self) -> f64 {
        self.0 / 3_600.0
    }

    /// Returns the larger of two durations.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two durations.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl core::fmt::Display for Seconds {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.0 == 0.0 {
            write!(f, "0 s")
        } else if self.0 < 1e-3 {
            write!(f, "{:.3} us", self.as_micros())
        } else if self.0 < 1.0 {
            write!(f, "{:.3} ms", self.as_millis())
        } else if self.0 < 3_600.0 {
            write!(f, "{:.3} s", self.0)
        } else {
            write!(f, "{:.3} h", self.as_hours())
        }
    }
}

impl core::ops::Add for Seconds {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl core::ops::AddAssign for Seconds {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl core::ops::Sub for Seconds {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl core::ops::Mul<f64> for Seconds {
    type Output = Self;
    fn mul(self, rhs: f64) -> Self {
        Self(self.0 * rhs)
    }
}

impl core::ops::Div<f64> for Seconds {
    type Output = Self;
    fn div(self, rhs: f64) -> Self {
        Self(self.0 / rhs)
    }
}

/// Ratio of two durations is dimensionless.
impl core::ops::Div<Seconds> for Seconds {
    type Output = f64;
    fn div(self, rhs: Seconds) -> f64 {
        self.0 / rhs.0
    }
}

impl core::iter::Sum for Seconds {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |acc, x| acc + x)
    }
}

/// A count of fundamental ion-trap clock cycles.
///
/// The paper defines a fundamental time-step ("clock cycle") as any one
/// physical operation: an unencoded gate, a single trap-to-trap move, or a
/// measurement. Multiplying by the cycle duration gives [`Seconds`].
///
/// # Examples
///
/// ```
/// use cqla_units::{Cycles, Seconds};
///
/// let syndrome = Cycles::new(154);
/// let cycle_time = Seconds::from_micros(10.0);
/// assert!((syndrome.to_duration(cycle_time).as_millis() - 1.54).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Self = Self(0);

    /// Creates a cycle count.
    #[must_use]
    pub const fn new(count: u64) -> Self {
        Self(count)
    }

    /// Returns the raw cycle count.
    #[must_use]
    pub const fn count(self) -> u64 {
        self.0
    }

    /// Converts the count to a wall-clock duration at the given cycle time.
    #[must_use]
    pub fn to_duration(self, cycle_time: Seconds) -> Seconds {
        cycle_time * self.0 as f64
    }
}

impl core::fmt::Display for Cycles {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

impl core::ops::Add for Cycles {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl core::ops::AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl core::ops::Mul<u64> for Cycles {
    type Output = Self;
    fn mul(self, rhs: u64) -> Self {
        Self(self.0 * rhs)
    }
}

impl core::iter::Sum for Cycles {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |acc, x| acc + x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_constructors_agree() {
        assert_eq!(Seconds::from_micros(1e6), Seconds::new(1.0));
        assert_eq!(Seconds::from_millis(1e3), Seconds::new(1.0));
    }

    #[test]
    fn seconds_arithmetic() {
        let a = Seconds::new(2.0);
        let b = Seconds::new(0.5);
        assert_eq!(a + b, Seconds::new(2.5));
        assert_eq!(a - b, Seconds::new(1.5));
        assert_eq!(a * 3.0, Seconds::new(6.0));
        assert_eq!(a / 4.0, Seconds::new(0.5));
        assert!((a / b - 4.0).abs() < 1e-12);
    }

    #[test]
    fn seconds_min_max() {
        let a = Seconds::new(1.0);
        let b = Seconds::new(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn seconds_sum() {
        let total: Seconds = (1..=4).map(|i| Seconds::new(f64::from(i))).sum();
        assert_eq!(total, Seconds::new(10.0));
    }

    #[test]
    fn seconds_display_scales() {
        assert_eq!(Seconds::ZERO.to_string(), "0 s");
        assert_eq!(Seconds::from_micros(10.0).to_string(), "10.000 us");
        assert_eq!(Seconds::from_millis(3.1).to_string(), "3.100 ms");
        assert_eq!(Seconds::new(0.3).to_string(), "300.000 ms");
        assert_eq!(Seconds::new(2.0).to_string(), "2.000 s");
        assert_eq!(Seconds::new(7_200.0).to_string(), "2.000 h");
    }

    #[test]
    fn cycles_to_duration() {
        let t = Cycles::new(308).to_duration(Seconds::from_micros(10.0));
        assert!((t.as_millis() - 3.08).abs() < 1e-9);
    }

    #[test]
    fn cycles_arithmetic() {
        assert_eq!(Cycles::new(3) + Cycles::new(4), Cycles::new(7));
        assert_eq!(Cycles::new(3) * 5, Cycles::new(15));
        let s: Cycles = [Cycles::new(1), Cycles::new(2)].into_iter().sum();
        assert_eq!(s, Cycles::new(3));
    }
}

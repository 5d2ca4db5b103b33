//! Shared width validation for the adder generators.
//!
//! Every workload that verifies itself by classical reversible
//! simulation is bounded by `u128` arithmetic. This module is the single
//! contract: widths run `1..=`[`MAX_VERIFIED_WIDTH`] unless a generator
//! documents a different ceiling, and carry-outs are reassembled through
//! [`combine_carry`] so that width-128 sums work instead of overflowing a
//! `u128` shift.

/// The canonical verified width ceiling: operands are `u128`, so every
/// self-checking generator accepts widths up to 128 bits.
pub const MAX_VERIFIED_WIDTH: u32 = 128;

/// Asserts that `n` is a legal `what` width in `1..=max`.
///
/// # Panics
///
/// Panics with a uniform message when `n` is zero or exceeds `max`.
///
/// # Examples
///
/// ```
/// use cqla_workloads::width::{validate_width, MAX_VERIFIED_WIDTH};
///
/// validate_width("adder", 128, MAX_VERIFIED_WIDTH); // fine
/// ```
pub fn validate_width(what: &str, n: u32, max: u32) {
    assert!(
        (1..=max).contains(&n),
        "{what} width {n} out of range 1..={max}"
    );
}

/// Reassembles an `n`-bit sum with its carry-out bit: `sum + carry·2ⁿ`.
///
/// At `n == 128` the carried value would need bit 128 of a `u128`;
/// rather than silently truncating (or tripping shift-overflow UB
/// checks), the overflow panics with a descriptive message. Sums that
/// fit — including every carry-free 128-bit addition — are returned
/// exactly.
///
/// # Panics
///
/// Panics if `n >= 128` and `carry` is set.
#[must_use]
pub fn combine_carry(sum: u128, carry: bool, n: u32) -> u128 {
    if !carry {
        return sum;
    }
    assert!(
        n < 128,
        "{n}-bit sum with carry out does not fit in u128 (use smaller operands)"
    );
    (1u128 << n) | sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DraperAdder, RippleCarryAdder};

    #[test]
    fn combine_carry_places_the_carry_bit() {
        assert_eq!(combine_carry(5, false, 8), 5);
        assert_eq!(combine_carry(5, true, 8), 256 + 5);
        assert_eq!(combine_carry(u128::MAX >> 1, false, 128), u128::MAX >> 1);
    }

    #[test]
    #[should_panic(expected = "does not fit in u128")]
    fn carry_out_of_bit_128_panics() {
        let _ = combine_carry(0, true, 128);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_width_rejected() {
        validate_width("adder", 0, MAX_VERIFIED_WIDTH);
    }

    #[test]
    fn all_adders_agree_at_width_128() {
        // The unified contract: every adder accepts the full u128 width.
        let a = u128::MAX / 3;
        let b = u128::MAX / 5;
        let expected = a + b; // < 2^128: no carry out
        assert_eq!(DraperAdder::new(128).compute(a, b), expected);
        assert_eq!(RippleCarryAdder::new(128).compute(a, b), expected);
    }

    #[test]
    fn width_128_carry_chain_worst_case_without_overflow() {
        // all-ones + 0 exercises the full carry chain width with no
        // carry out; the result is exact.
        let ones = u128::MAX;
        assert_eq!(DraperAdder::new(128).compute(ones, 0), ones);
        assert_eq!(RippleCarryAdder::new(128).compute(0, ones), ones);
    }

    #[test]
    #[should_panic(expected = "does not fit in u128")]
    fn width_128_carry_out_is_a_loud_error() {
        let _ = RippleCarryAdder::new(128).compute(u128::MAX, 1);
    }
}

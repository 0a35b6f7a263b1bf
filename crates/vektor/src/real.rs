//! Scalar floating-point abstraction.
//!
//! The paper's vector library is instantiated for single, double and mixed
//! precision. The [`Real`] trait is the scalar element type of a vector lane;
//! it is implemented for `f32` and `f64`. Mixed precision (the paper's
//! `Opt-M`) pairs an `f32` compute type with an `f64` accumulator type, and
//! is expressed in kernels as two independent `Real` parameters.

use crate::math::MathConsts;
use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A scalar floating-point type usable as a vector lane element.
///
/// The operation set is what the Tersoff kernels need: basic arithmetic,
/// `sqrt`, the libm transcendentals of the scalar paths, fused multiply-add,
/// and the bit-level primitives plus per-precision constants the
/// lane-native functions in [`crate::math`] are built from.
pub trait Real:
    Copy
    + Clone
    + PartialOrd
    + PartialEq
    + Debug
    + Display
    + Default
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// One half.
    const HALF: Self;
    /// Two.
    const TWO: Self;
    /// Machine epsilon of the type.
    const EPSILON: Self;
    /// π in this precision.
    const PI: Self;
    /// Number of significant decimal digits (used to pick test tolerances).
    const DIGITS: u32;
    /// Reduction constants and polynomial coefficients of the lane-native
    /// functions in [`crate::math`], in this precision.
    const MATH: MathConsts<Self>;

    /// Convert from `f64`, rounding to the nearest representable value.
    fn from_f64(x: f64) -> Self;
    /// Convert to `f64` exactly (both supported types embed into `f64`).
    fn to_f64(self) -> f64;
    /// Convert from `usize` (lossy for huge values, which never occur here).
    fn from_usize(x: usize) -> Self {
        Self::from_f64(x as f64)
    }

    /// Square root.
    fn sqrt(self) -> Self;
    /// Natural exponential.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Sine.
    fn sin(self) -> Self;
    /// Cosine.
    fn cos(self) -> Self;
    /// Power with a real exponent.
    fn powf(self, e: Self) -> Self;
    /// Power with an integer exponent.
    fn powi(self, e: i32) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Lane-wise minimum (NaN-propagating behaviour of `f32::min`).
    fn min(self, o: Self) -> Self;
    /// Lane-wise maximum.
    fn max(self, o: Self) -> Self;
    /// Fused multiply-add: `self * a + b`.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Reciprocal.
    fn recip(self) -> Self;
    /// True if the value is finite (not NaN and not infinite).
    fn is_finite(self) -> bool;

    /// `2^k` for an integral `k` in the normal exponent range, built by
    /// writing the biased exponent into the bit pattern with integer
    /// add/shift. No float-to-int conversion is involved, so lane loops
    /// calling it vectorize on every ISA (AVX2 has no `f64 → i64`).
    fn pow2i(k: Self) -> Self;
    /// Split a positive normal value into `(m, e)` with `self = m · 2^e`,
    /// `m ∈ [1, 2)` and `e` integral, by reading the exponent and mantissa
    /// fields. Other inputs give unspecified (but non-trapping) values.
    fn decompose(self) -> (Self, Self);
}

macro_rules! impl_real {
    ($t:ty, $bits:ty, $digits:expr, $mant:expr, $bias:expr, $math:expr) => {
        impl Real for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const HALF: Self = 0.5;
            const TWO: Self = 2.0;
            const EPSILON: Self = <$t>::EPSILON;
            const PI: Self = std::f64::consts::PI as $t;
            const DIGITS: u32 = $digits;
            const MATH: MathConsts<Self> = $math;

            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn exp(self) -> Self {
                <$t>::exp(self)
            }
            #[inline(always)]
            fn ln(self) -> Self {
                <$t>::ln(self)
            }
            #[inline(always)]
            fn sin(self) -> Self {
                <$t>::sin(self)
            }
            #[inline(always)]
            fn cos(self) -> Self {
                <$t>::cos(self)
            }
            #[inline(always)]
            fn powf(self, e: Self) -> Self {
                <$t>::powf(self, e)
            }
            #[inline(always)]
            fn powi(self, e: i32) -> Self {
                <$t>::powi(self, e)
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn min(self, o: Self) -> Self {
                <$t>::min(self, o)
            }
            #[inline(always)]
            fn max(self, o: Self) -> Self {
                <$t>::max(self, o)
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
            #[inline(always)]
            fn recip(self) -> Self {
                <$t>::recip(self)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn pow2i(k: Self) -> Self {
                // `k + 1.5·2^mant` holds k (two's complement) in the low
                // mantissa bits of its pattern.
                const ROUND: $t = 1.5 * (1u64 << $mant) as $t;
                let k_bits = (k + ROUND).to_bits().wrapping_sub(ROUND.to_bits());
                <$t>::from_bits(k_bits.wrapping_add($bias) << $mant)
            }
            #[inline(always)]
            fn decompose(self) -> (Self, Self) {
                // The exponent field, OR-ed into the mantissa of 2^mant,
                // reads back as `2^mant + field` exactly.
                const TWO_MANT: $t = (1u64 << $mant) as $t;
                const MANT_MASK: $bits = (1 << $mant) - 1;
                let b = self.to_bits();
                let m = <$t>::from_bits((b & MANT_MASK) | (1.0 as $t).to_bits());
                let field = <$t>::from_bits((b >> $mant) | TWO_MANT.to_bits());
                (m, field - (TWO_MANT + $bias as $t))
            }
        }
    };
}

impl_real!(f32, u32, 6, 23, 127, crate::math::F32);
impl_real!(f64, u64, 15, 52, 1023, crate::math::F64);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Real>() {
        let x = T::from_f64(1.5);
        assert_eq!(x.to_f64(), 1.5);
        assert_eq!(T::ZERO.to_f64(), 0.0);
        assert_eq!(T::ONE.to_f64(), 1.0);
        assert_eq!(T::HALF.to_f64(), 0.5);
        assert_eq!(T::TWO.to_f64(), 2.0);
    }

    #[test]
    fn roundtrip_f32_f64() {
        roundtrip::<f32>();
        roundtrip::<f64>();
    }

    #[test]
    fn math_ops_match_std() {
        let x = 0.7_f64;
        assert_eq!(Real::sqrt(x), x.sqrt());
        assert_eq!(Real::exp(x), x.exp());
        assert_eq!(Real::sin(x), x.sin());
        assert_eq!(Real::cos(x), x.cos());
        assert_eq!(Real::powf(x, 2.3), x.powf(2.3));
        assert_eq!(Real::powi(x, 3), x.powi(3));
        assert_eq!(Real::mul_add(x, 2.0, 1.0), x.mul_add(2.0, 1.0));
    }

    #[test]
    fn pi_constant_matches() {
        assert_eq!(<f64 as Real>::PI, std::f64::consts::PI);
        assert_eq!(<f32 as Real>::PI, std::f32::consts::PI);
    }

    #[test]
    fn from_usize_is_exact_for_small_values() {
        assert_eq!(<f32 as Real>::from_usize(12), 12.0_f32);
        assert_eq!(<f64 as Real>::from_usize(1 << 20), (1u64 << 20) as f64);
    }

    #[test]
    fn min_max_and_abs() {
        assert_eq!(Real::min(3.0_f64, -1.0), -1.0);
        assert_eq!(Real::max(3.0_f64, -1.0), 3.0);
        assert_eq!(Real::abs(-2.5_f32), 2.5);
    }

    fn bit_primitives<T: Real>() {
        for k in [-126.0, -75.0, -1.0, 0.0, 1.0, 64.0, 127.0] {
            assert_eq!(T::pow2i(T::from_f64(k)).to_f64(), 2f64.powf(k));
        }
        for (x, m, e) in [(1.0, 1.0, 0.0), (3.0, 1.5, 1.0), (0.375, 1.5, -2.0)] {
            let (mm, ee) = T::from_f64(x).decompose();
            assert_eq!((mm.to_f64(), ee.to_f64()), (m, e));
        }
    }

    #[test]
    fn pow2i_and_decompose_are_exact() {
        bit_primitives::<f32>();
        bit_primitives::<f64>();
        assert_eq!(f64::pow2i(-1022.0), f64::MIN_POSITIVE);
        assert_eq!(f64::pow2i(1023.0), 2f64.powi(1023));
        assert_eq!(f32::MIN_POSITIVE.decompose(), (1.0, -126.0));
        assert_eq!(f64::MAX.decompose().1, 1023.0);
    }

    #[test]
    fn is_finite_detects_nan_and_inf() {
        assert!(Real::is_finite(1.0_f64));
        assert!(!Real::is_finite(f64::NAN));
        assert!(!Real::is_finite(f32::INFINITY));
    }
}

//! Lane-native transcendental functions.
//!
//! The Tersoff kernel spends most of its flops in `exp`, `sin`/`cos` (the
//! smooth cutoff) and the powers of the bond-order term. This module gives
//! the vector kernels branch-free polynomial `exp`, `ln`, `sin`, `cos` and
//! `sincos` in both precisions: the vectorized, lower-accuracy math library
//! the paper's Intel builds get from SVML (Sec. VI-A). Each function is
//! written once, generic over [`Real`], and reads its per-precision
//! coefficients from [`Real::MATH`].
//!
//! How they stay vectorizable and bitwise portable:
//!
//! * Range reduction rounds with a magic constant (`x + 1.5·2^p − 1.5·2^p`)
//!   and scales exponents through [`Real::pow2i`]/[`Real::decompose`]
//!   (integer add/shift on the bit pattern): no `round()`, no float-to-int
//!   conversion, so the AVX2 instance vectorizes the `f64` lanes too.
//! * Special values are handled by lane selects, not branches.
//! * Polynomials are Horner chains of plain `*` and `+`, never `mul_add`:
//!   every ISA instance rounds each step identically, and the portable
//!   build does not fall back to a software fma per lane.
//!
//! Accuracy (measured by the ulp sweeps in this module's tests): within a
//! few ulp of the correctly rounded result over the kernel's argument
//! ranges. `sin`/`cos` reduce exactly up to `|x| ≤ MathConsts::trig_max`
//! (8192 in `f32`, 2¹⁹ in `f64`) and take the libm path for the rare lanes
//! beyond it. `powf_uniform` and `rsqrt` stay on libm/`sqrt`; no kernel
//! calls `powf` any more.

use crate::real::Real;
use crate::vector::SimdF;

/// Per-precision constants of the lane-native functions: range-reduction
/// splits and polynomial coefficients (highest degree first, for Horner).
///
/// The coefficients are near-minimax (Chebyshev) fits of the reduced
/// functions named on each field, rounded to the precision.
#[derive(Debug)]
pub struct MathConsts<T: 'static> {
    /// `1.5·2^p` (p = mantissa bits): `(x + round) − round` rounds `x` to
    /// the nearest integer for `|x| < 2^(p−1)`.
    round: T,
    /// `log₂ e`.
    log2e: T,
    /// High part of `ln 2`, short enough that `k·ln2_hi` is exact.
    ln2_hi: T,
    /// `ln 2 − ln2_hi`.
    ln2_lo: T,
    /// `exp` clamps its argument into `[exp_min, exp_max]`, where the
    /// result has already rounded to 0 or overflowed to +∞.
    exp_min: T,
    /// See `exp_min`.
    exp_max: T,
    /// `Q(r)` with `exp(r) = 1 + r + r²·Q(r)` on `|r| ≤ ln2/2`.
    exp_poly: &'static [T],
    /// `√2`: `ln` reduces the mantissa into `[√2/2, √2)`.
    sqrt2: T,
    /// Smallest positive normal value; `ln` scales inputs below it.
    min_positive: T,
    /// `2^subnormal_shift`, the scale that makes every subnormal normal.
    subnormal_scale: T,
    /// See `subnormal_scale`.
    subnormal_shift: T,
    /// `P(z)` with `ln((1+s)/(1−s)) = 2s + s·z·P(z)`, `z = s²`,
    /// `|s| ≤ (√2−1)/(√2+1)`.
    ln_poly: &'static [T],
    /// `2/π`.
    two_over_pi: T,
    /// Three-part split of `π/2` (Cody–Waite): `q·pio2_hi` and `q·pio2_mid`
    /// are exact for `|x| ≤ trig_max`.
    pio2_hi: T,
    /// See `pio2_hi`.
    pio2_mid: T,
    /// See `pio2_hi`.
    pio2_lo: T,
    /// Largest `|x|` the polynomial `sin`/`cos` reduce exactly.
    trig_max: T,
    /// `S(z)` with `sin(r) = r + r·z·S(z)`, `z = r²`, `|r| ≤ π/4`.
    sin_poly: &'static [T],
    /// `C(z)` with `cos(r) = 1 − z/2 + z²·C(z)`, `z = r²`, `|r| ≤ π/4`.
    cos_poly: &'static [T],
    /// +∞.
    infinity: T,
    /// A quiet NaN.
    nan: T,
}

/// Single-precision constants.
pub(crate) const F32: MathConsts<f32> = MathConsts {
    round: 12_582_912.0,
    log2e: std::f32::consts::LOG2_E,
    ln2_hi: 0.693_115_23,
    ln2_lo: 3.194_618_3e-5,
    exp_min: -104.0,
    exp_max: 89.0,
    exp_poly: &[
        0.001_392_617_6,
        0.008_363_173,
        0.041_666_556,
        0.166_665_78,
        0.5,
    ],
    sqrt2: std::f32::consts::SQRT_2,
    min_positive: f32::MIN_POSITIVE,
    subnormal_scale: 16_777_216.0,
    subnormal_shift: 24.0,
    ln_poly: &[0.295_799_5, 0.399_887_8, 0.666_666_87],
    two_over_pi: std::f32::consts::FRAC_2_PI,
    pio2_hi: 1.570_312_5,
    pio2_mid: 4.837_513e-4,
    pio2_lo: 7.549_79e-8,
    trig_max: 8192.0,
    sin_poly: &[-1.958_789e-4, 0.008_332_748, -0.166_666_64],
    cos_poly: &[2.454_794_2e-5, -0.001_388_830_2, 0.041_666_664],
    infinity: f32::INFINITY,
    nan: f32::NAN,
};

/// Double-precision constants.
pub(crate) const F64: MathConsts<f64> = MathConsts {
    round: 6_755_399_441_055_744.0,
    log2e: std::f64::consts::LOG2_E,
    ln2_hi: 0.693_147_180_601_954_5,
    ln2_lo: -4.200_915_072_681_084_6e-11,
    exp_min: -746.0,
    exp_max: 710.0,
    exp_poly: &[
        2.510_037_583_256_123_4e-8,
        2.762_007_587_998_336_7e-7,
        2.755_726_848_031_002_4e-6,
        2.480_152_132_236_869_2e-5,
        1.984_126_986_304_054_5e-4,
        1.388_888_891_719_671_9e-3,
        8.333_333_333_330_065e-3,
        4.166_666_666_662_416_4e-2,
        1.666_666_666_666_666_9e-1,
        5.000_000_000_000_001e-1,
    ],
    sqrt2: std::f64::consts::SQRT_2,
    min_positive: f64::MIN_POSITIVE,
    subnormal_scale: 18_014_398_509_481_984.0,
    subnormal_shift: 54.0,
    ln_poly: &[
        1.461_644_968_504_340_6e-1,
        1.533_172_160_055_604_2e-1,
        1.818_288_912_526_172_3e-1,
        2.222_221_113_479_508e-1,
        2.857_142_862_597_548_7e-1,
        3.999_999_999_989_950_5e-1,
        6.666_666_666_666_67e-1,
    ],
    two_over_pi: std::f64::consts::FRAC_2_PI,
    pio2_hi: 1.570_796_326_734_125_6,
    pio2_mid: 6.077_100_506_303_966e-11,
    pio2_lo: 2.022_266_248_795_950_6e-21,
    trig_max: 524_288.0,
    sin_poly: &[
        1.591_812_929_486_660_8e-10,
        -2.505_113_184_500_362_4e-8,
        2.755_731_610_255_244e-6,
        -1.984_126_983_675_857_4e-4,
        8.333_333_333_330_948e-3,
        -1.666_666_666_666_666_6e-1,
    ],
    cos_poly: &[
        -1.138_263_242_552_171_7e-11,
        2.087_614_626_840_32e-9,
        -2.755_731_727_172_979_3e-7,
        2.480_158_729_876_569e-5,
        -1.388_888_888_888_739_8e-3,
        4.166_666_666_666_666_4e-2,
    ],
    infinity: f64::INFINITY,
    nan: f64::NAN,
};

/// Horner evaluation of `c[0]·x^(n−1) + … + c[n−1]`. The coefficient slice
/// is a constant, so the loop unrolls into a straight `*`/`+` chain.
#[inline(always)]
fn horner<T: Real>(c: &[T], x: T) -> T {
    let mut acc = c[0];
    for &ci in &c[1..] {
        acc = acc * x + ci;
    }
    acc
}

/// Round to the nearest integer (ties to even) for `|x| < 2^(p−1)`.
#[inline(always)]
fn round_int<T: Real>(x: T) -> T {
    let m = T::MATH.round;
    (x + m) - m
}

#[inline(always)]
fn exp_lane<T: Real>(x: T) -> T {
    let c = &T::MATH;
    // Comparison clamps keep NaN (min/max would drop it).
    let x = if x < c.exp_min {
        c.exp_min
    } else if x > c.exp_max {
        c.exp_max
    } else {
        x
    };
    let k = round_int(x * c.log2e);
    let r = (x - k * c.ln2_hi) - k * c.ln2_lo;
    let p = T::ONE + r * (T::ONE + r * horner(c.exp_poly, r));
    // 2^k in two normal factors, so results down to the subnormals and up
    // to overflow come out right without a special case.
    let k1 = round_int(k * T::HALF);
    p * T::pow2i(k1) * T::pow2i(k - k1)
}

#[inline(always)]
fn ln_lane<T: Real>(x: T) -> T {
    let c = &T::MATH;
    let tiny = x < c.min_positive;
    let (m, e) = (if tiny { x * c.subnormal_scale } else { x }).decompose();
    let e = if tiny { e - c.subnormal_shift } else { e };
    let (m, e) = if m > c.sqrt2 {
        (m * T::HALF, e + T::ONE)
    } else {
        (m, e)
    };
    // ln(1+f) = 2·atanh(s), s = f/(2+f), evaluated as in fdlibm's log so
    // the leading term f stays exact.
    let f = m - T::ONE;
    let s = f / (T::TWO + f);
    let z = s * s;
    let r = z * horner(c.ln_poly, z);
    let hfsq = T::HALF * f * f;
    let y = e * c.ln2_hi - ((hfsq - (s * (hfsq + r) + e * c.ln2_lo)) - f);
    if x > T::ZERO {
        if x < c.infinity {
            y
        } else {
            x
        }
    } else if x == T::ZERO {
        -c.infinity
    } else {
        c.nan
    }
}

/// `(sin x, cos x)` for `|x| ≤ trig_max`.
#[inline(always)]
fn sincos_lane<T: Real>(x: T) -> (T, T) {
    let c = &T::MATH;
    let q = round_int(x * c.two_over_pi);
    let r = ((x - q * c.pio2_hi) - q * c.pio2_mid) - q * c.pio2_lo;
    let z = r * r;
    let sin_r = r + r * z * horner(c.sin_poly, z);
    let cos_r = T::ONE - T::HALF * z + z * z * horner(c.cos_poly, z);
    // Quadrant q mod 4 from two parity tests in the float domain:
    // `round_int(h − ¼)` is floor(h) for h a multiple of ½.
    let quarter = T::HALF * T::HALF;
    let h = q * T::HALF;
    let q_half = round_int(h - quarter);
    let odd = h != q_half;
    let h2 = q_half * T::HALF;
    let flip = h2 != round_int(h2 - quarter);
    // x = r + q·π/2: an odd q rotates by π/2, q ≡ 2, 3 (mod 4) negates.
    let (sin_x, cos_x) = if odd { (cos_r, -sin_r) } else { (sin_r, cos_r) };
    if flip {
        (-sin_x, -cos_x)
    } else {
        (sin_x, cos_x)
    }
}

/// Lane-wise natural exponential. Saturates to `+∞` above and `0` below
/// the representable range; NaN propagates.
#[inline(always)]
pub fn exp<T: Real, const W: usize>(v: SimdF<T, W>) -> SimdF<T, W> {
    v.map(exp_lane)
}

/// Lane-wise natural logarithm: `ln(±0) = −∞`, `ln(+∞) = +∞`, negative or
/// NaN lanes give NaN. With these, `exp(n·ln x)` reproduces `powf(x, n)`'s
/// `0ⁿ = 0` (n > 0) and `0⁻ⁿ = +∞`.
#[inline(always)]
pub fn ln<T: Real, const W: usize>(v: SimdF<T, W>) -> SimdF<T, W> {
    v.map(ln_lane)
}

/// Lane-wise sine and cosine of the same argument, sharing one range
/// reduction. Lanes with `|x| > trig_max` (never produced by the kernels)
/// fall back to libm after one vector-wide test; ±∞ and NaN give NaN.
#[inline(always)]
pub fn sincos<T: Real, const W: usize>(v: SimdF<T, W>) -> (SimdF<T, W>, SimdF<T, W>) {
    let mut s = SimdF::<T, W>::zero();
    let mut c = SimdF::<T, W>::zero();
    for i in 0..W {
        (s.0[i], c.0[i]) = sincos_lane(v.0[i]);
    }
    let max = T::MATH.trig_max;
    let far = v.0.iter().fold(false, |far, &x| far | (x.abs() > max));
    if far {
        for i in 0..W {
            if v.0[i].abs() > max {
                s.0[i] = v.0[i].sin();
                c.0[i] = v.0[i].cos();
            }
        }
    }
    (s, c)
}

/// Lane-wise sine (see [`sincos`]).
#[inline(always)]
pub fn sin<T: Real, const W: usize>(v: SimdF<T, W>) -> SimdF<T, W> {
    sincos(v).0
}

/// Lane-wise cosine (see [`sincos`]).
#[inline(always)]
pub fn cos<T: Real, const W: usize>(v: SimdF<T, W>) -> SimdF<T, W> {
    sincos(v).1
}

/// Lane-wise power with a uniform exponent (libm `powf` per lane).
#[inline(always)]
pub fn powf_uniform<T: Real, const W: usize>(v: SimdF<T, W>, e: T) -> SimdF<T, W> {
    v.map(|x| x.powf(e))
}

/// Lane-wise cube (`x³`), the exponent that appears in the Tersoff
/// `exp(λ₃³ (r_ij − r_ik)³)` term.
#[inline(always)]
pub fn cube<T: Real, const W: usize>(v: SimdF<T, W>) -> SimdF<T, W> {
    v * v * v
}

/// Inverse square root: `1/sqrt(x)` per lane. On hardware this is the rsqrt +
/// Newton-Raphson idiom; here the scalar sqrt is accurate enough and LLVM
/// picks the best lowering.
#[inline(always)]
pub fn rsqrt<T: Real, const W: usize>(v: SimdF<T, W>) -> SimdF<T, W> {
    v.map(|x| x.sqrt().recip())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    type LaneFn<T> = fn(SimdF<T, 8>) -> SimdF<T, 8>;

    /// Error of `got` against the exact value `want`, in units of the
    /// spacing of `T` at `want` (the subnormal spacing below the normal
    /// range).
    fn ulp_err<T: Real>(got: T, want: f64) -> f64 {
        if got.to_f64() == want {
            return 0.0;
        }
        let floor = T::MATH.min_positive.to_f64();
        let spacing = want.abs().max(floor).log2().floor().exp2() * T::EPSILON.to_f64();
        (got.to_f64() - want).abs() / spacing
    }

    /// Largest ulp error of `f` over `xs` (rounded to `T`), 8 lanes at a
    /// time, against the `f64` libm value `exact`. Fails on any NaN.
    fn worst_ulp<T: Real>(xs: &[f64], f: LaneFn<T>, exact: fn(f64) -> f64) -> f64 {
        let mut worst = 0.0f64;
        for chunk in xs.chunks(8) {
            let v = SimdF::<T, 8>::from_fn(|i| T::from_f64(chunk[i % chunk.len()]));
            let y = f(v);
            for i in 0..8 {
                let x = v.lane(i).to_f64();
                let err = ulp_err(y.lane(i), exact(x));
                assert!(!err.is_nan(), "NaN at x = {x}");
                worst = worst.max(err);
            }
        }
        worst
    }

    fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
        (0..=n)
            .map(|i| lo + (hi - lo) * i as f64 / n as f64)
            .collect()
    }

    fn logspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
        linspace(lo.log10(), hi.log10(), n)
            .into_iter()
            .map(|e| 10f64.powf(e))
            .collect()
    }

    /// One sweep: function, argument range, and the ulp bound per precision.
    /// The `f64` bounds are against libm, itself within an ulp of exact.
    struct Sweep {
        name: &'static str,
        xs: Vec<f64>,
        f32: (LaneFn<f32>, f64),
        f64: (LaneFn<f64>, f64),
        exact: fn(f64) -> f64,
    }

    fn sweeps() -> Vec<Sweep> {
        const N: usize = 50_000;
        let exp_sweep = |name, xs, b32, b64| Sweep {
            name,
            xs,
            f32: (exp, b32),
            f64: (exp, b64),
            exact: f64::exp,
        };
        let ln_sweep = |name, xs, b32, b64| Sweep {
            name,
            xs,
            f32: (ln, b32),
            f64: (ln, b64),
            exact: f64::ln,
        };
        let half_pi = linspace(-FRAC_PI_2, FRAC_PI_2, N);
        vec![
            // -λ₁r and -λ₂r over every shipped parameter set and cutoff.
            exp_sweep("exp [-12, 0]", linspace(-12.0, 0.0, N), 1.5, 2.0),
            // The clamped ζ exponential.
            exp_sweep("exp ±69.0776", linspace(-69.0776, 69.0776, N), 1.5, 2.0),
            // The bond order's exp(n·ln βζ) and exp(−L/2).
            exp_sweep("exp [-87, 88]", linspace(-87.0, 88.0, N), 1.5, 2.0),
            // βζ over the kernel's range.
            ln_sweep("ln βζ [1e-12, 1e8]", logspace(1e-12, 1e8, N), 1.0, 2.0),
            // 1 + (βζ)ⁿ, close to and far from 1.
            ln_sweep("ln [1, 1e30]", logspace(1.0, 1e30, N), 1.0, 2.0),
            ln_sweep("ln [0.5, 2]", linspace(0.5, 2.0, N), 1.0, 2.0),
            Sweep {
                name: "sin [-π/2, π/2]",
                xs: half_pi.clone(),
                f32: (sin, 2.0),
                f64: (sin, 2.0),
                exact: f64::sin,
            },
            Sweep {
                name: "cos [-π/2, π/2]",
                xs: half_pi,
                f32: (cos, 2.0),
                f64: (cos, 2.0),
                exact: f64::cos,
            },
        ]
    }

    #[test]
    fn ulp_error_within_bounds_over_kernel_ranges() {
        for s in sweeps() {
            let e32 = worst_ulp::<f32>(&s.xs, s.f32.0, s.exact);
            let e64 = worst_ulp::<f64>(&s.xs, s.f64.0, s.exact);
            println!("{:<22} f32 {e32:5.2} ulp   f64 {e64:5.2} ulp", s.name);
            assert!(e32 <= s.f32.1, "{} f32: {e32} ulp > {}", s.name, s.f32.1);
            assert!(e64 <= s.f64.1, "{} f64: {e64} ulp > {}", s.name, s.f64.1);
        }
    }

    fn special_inputs<T: Real>() {
        let v = |xs: [f64; 8]| SimdF::<T, 8>::from_fn(|i| T::from_f64(xs[i]));
        let inf = f64::INFINITY;
        let tiny = T::MATH.min_positive.to_f64() / 1024.0; // subnormal

        let e = exp(v([0.0, -0.0, tiny, -tiny, 1e6, -1e6, inf, -inf]));
        assert_eq!(e.to_f64_array(), [1.0, 1.0, 1.0, 1.0, inf, 0.0, inf, 0.0]);
        assert!(exp(v([f64::NAN; 8])).lane(0).to_f64().is_nan());
        // Results in the subnormal range keep (subnormal) ulp accuracy.
        let deep = T::MATH.exp_min.to_f64() + 20.0;
        assert!(ulp_err(exp(v([deep; 8])).lane(0), deep.exp()) <= 1.0);

        let l = ln(v([0.0, -0.0, tiny, 1.0, inf, -1.0, -inf, f64::NAN]));
        assert_eq!(l.lane(0).to_f64(), -inf);
        assert_eq!(l.lane(1).to_f64(), -inf);
        assert!(ulp_err(l.lane(2), T::from_f64(tiny).to_f64().ln()) <= 1.0);
        assert_eq!(l.lane(3).to_f64(), 0.0);
        assert_eq!(l.lane(4).to_f64(), inf);
        assert!((5..8).all(|i| l.lane(i).to_f64().is_nan()));
        // exp(n·ln x) keeps powf's contract at x = 0: 0ⁿ = 0, 0⁻ⁿ = ∞.
        let zero = SimdF::<T, 8>::zero();
        for n in [0.78734, -0.78734, 22.956] {
            let via_ln = exp(ln(zero) * T::from_f64(n));
            assert_eq!(via_ln, powf_uniform(zero, T::from_f64(n)), "n = {n}");
        }

        let (s, c) = sincos(v([0.0, tiny, -tiny, 1e4, -3e5, 1e30, inf, f64::NAN]));
        assert_eq!((s.lane(0).to_f64(), c.lane(0).to_f64()), (0.0, 1.0));
        assert_eq!(s.lane(1).to_f64(), T::from_f64(tiny).to_f64());
        assert_eq!(c.lane(1).to_f64(), 1.0);
        assert_eq!(s.lane(2).to_f64(), T::from_f64(-tiny).to_f64());
        for i in 3..6 {
            let x = v([0.0; 8]).lane(0) + T::from_f64([1e4, -3e5, 1e30][i - 3]);
            let (ws, wc) = (x.to_f64().sin(), x.to_f64().cos());
            assert!(
                (s.lane(i).to_f64() - ws).abs() < 4.0 * T::EPSILON.to_f64(),
                "sin {x}"
            );
            assert!(
                (c.lane(i).to_f64() - wc).abs() < 4.0 * T::EPSILON.to_f64(),
                "cos {x}"
            );
        }
        assert!(s.lane(6).to_f64().is_nan() && c.lane(6).to_f64().is_nan());
        assert!(s.lane(7).to_f64().is_nan() && c.lane(7).to_f64().is_nan());
    }

    #[test]
    fn special_inputs_saturate_or_propagate() {
        special_inputs::<f32>();
        special_inputs::<f64>();
    }

    fn wide_trig<T: Real>() {
        // Beyond ±π/2 the reduction is exact up to trig_max, so the
        // absolute error stays at the ±π/2 level; beyond it, libm per lane.
        let max = T::MATH.trig_max.to_f64();
        for xs in [linspace(-100.0, 100.0, 20_000), linspace(-max, max, 20_000)] {
            for chunk in xs.chunks(8) {
                let v = SimdF::<T, 8>::from_fn(|i| T::from_f64(chunk[i % chunk.len()]));
                let (s, c) = sincos(v);
                for i in 0..8 {
                    let x = v.lane(i).to_f64();
                    assert!((s.lane(i).to_f64() - x.sin()).abs() < 2.0 * T::EPSILON.to_f64());
                    assert!((c.lane(i).to_f64() - x.cos()).abs() < 2.0 * T::EPSILON.to_f64());
                }
            }
        }
        let far = SimdF::<T, 8>::from_fn(|i| T::from_f64(max * (1.5 + i as f64)));
        let near = SimdF::<T, 8>::from_fn(|i| T::from_f64(0.1 * i as f64));
        let mixed = SimdF::<T, 8>::from_fn(|i| {
            if i % 2 == 0 {
                far.lane(i)
            } else {
                near.lane(i)
            }
        });
        let s = sin(mixed);
        for i in 0..8 {
            let want = if i % 2 == 0 {
                far.lane(i).sin()
            } else {
                sin(near).lane(i)
            };
            assert_eq!(s.lane(i), want, "lane {i}");
        }
    }

    #[test]
    fn sin_cos_beyond_half_pi() {
        wide_trig::<f32>();
        wide_trig::<f64>();
    }

    #[test]
    fn sin_cos_are_odd_and_even() {
        let x = SimdF::<f64, 8>::from_fn(|i| 0.37 * i as f64 - 1.2);
        assert_eq!(sin(-x), -sin(x));
        assert_eq!(cos(-x), cos(x));
    }

    #[test]
    fn cube_and_powf() {
        let v = SimdF::<f64, 4>::from_array([1.0, 2.0, 3.0, -2.0]);
        assert_eq!(cube(v).to_array(), [1.0, 8.0, 27.0, -8.0]);
        let p = powf_uniform(SimdF::<f64, 2>::from_array([4.0, 9.0]), 0.5);
        assert_eq!(p.to_array(), [2.0, 3.0]);
    }

    #[test]
    fn rsqrt_matches_definition() {
        let v = SimdF::<f64, 4>::from_array([1.0, 4.0, 16.0, 0.25]);
        let r = rsqrt(v);
        assert_eq!(r.to_array(), [1.0, 0.5, 0.25, 2.0]);
    }
}

//! Scalar and slice activation functions with derivatives.
//!
//! The GRU cell (paper Fig. 1) uses the logistic sigmoid for its update and
//! reset gates and `tanh` for the candidate state; the classifier head uses
//! softmax + cross-entropy. Derivatives are expressed in terms of the
//! *activated* value (`y = f(x)`), which is what backpropagation has in hand.
//!
//! [`sigmoid`] and [`tanh`] are this crate's own arithmetic, not libm's:
//! each is one fixed sequence of IEEE-exact operations (`+ − × ÷`,
//! compare/select, integer operations on the bits; no library call, no
//! FMA), so its result depends on the input bits alone, not on the host, and
//! the AVX2 sweeps of [`crate::simd`] run the same sequence per lane, bit
//! for bit on all 2³² inputs (DESIGN.md §8). Against the correctly rounded
//! value: `tanh` ≤ 2 ULP on every finite input, `sigmoid` ≤ 2 ULP on
//! `x ≥ −87` and within 2⁻¹²⁵ absolute below (the tests assert 4 ULP).

/// Constants of the activation arithmetic, shared by the scalar definitions
/// and their per-lane AVX2 replay in `simd::x86`. The polynomials are the
/// f32 roundings of Cephes `expf` / `tanhf`.
pub(crate) mod coef {
    /// `exp_nonpos` clamps its argument here: `e^-87` is still a normal f32.
    pub const EXP_CLAMP: f32 = -87.0;
    /// Below this `e^t` rounds to zero, and `exp_nonpos` returns exactly 0.
    pub const EXP_ZERO: f32 = -104.0;
    pub use std::f32::consts::LOG2_E;
    /// 1.5·2²³: adding it rounds to an integer (ties to even) and leaves
    /// that integer, in two's complement, in the low mantissa bits.
    pub const ROUND: f32 = 12_582_912.0;
    /// Cody–Waite split of ln 2: nine bits, so `n · LN2_HI` is exact for
    /// `|n| ≤ 126`.
    pub const LN2_HI: f32 = 355.0 / 512.0;
    pub const LN2_LO: f32 = -2.121_944_4e-4;
    /// `e^r ≈ 1 + r + r²·P(r)` on `|r| ≤ ln 2 / 2`, highest degree first.
    pub const EXP_P: [f32; 6] = [
        1.987_569_1e-4,
        1.398_199_9e-3,
        8.333_452e-3,
        4.166_579_6e-2,
        1.666_666_6e-1,
        0.5,
    ];
    /// Below this `|x|`, `tanh x ≈ x + x·z·P(z)` with `z = x²`.
    pub const TANH_SMALL: f32 = 0.625;
    pub const TANH_P: [f32; 5] = [
        -5.704_988_7e-3,
        2.063_908_8e-2,
        -5.373_971_5e-2,
        1.333_144_2e-1,
        -3.333_328e-1,
    ];
}
use coef::*;

/// `e^t` for `t ≤ 0`: `t = n·ln 2 + r`, a degree-7 polynomial in `r`, and
/// `2ⁿ` built from `n`'s bits. `t` is clamped at [`EXP_CLAMP`] so the scale
/// stays a normal number, and the result is exactly `0.0` below
/// [`EXP_ZERO`]. A NaN comes back as some NaN.
fn exp_nonpos(t: f32) -> f32 {
    let c = if t < EXP_CLAMP { EXP_CLAMP } else { t };
    let k = c * LOG2_E + ROUND;
    let n = k - ROUND;
    let r = (c - n * LN2_HI) - n * LN2_LO;
    let p = EXP_P[1..].iter().fold(EXP_P[0], |p, &q| p * r + q);
    let e = (p * (r * r) + r) + 1.0;
    // `k`'s bits are `ROUND`'s plus `n`; shifted up 23, `ROUND`'s fall off
    // the top and `n` lands on the exponent field, where adding 1.0's bits
    // makes it 2ⁿ (`n ≥ −126`).
    let scale = f32::from_bits((k.to_bits() << 23).wrapping_add(1.0f32.to_bits()));
    if t < EXP_ZERO {
        0.0
    } else {
        e * scale
    }
}

/// Logistic sigmoid `1 / (1 + e^-x)`: with `e = e^-|x|`, `1 / (1 + e)` for
/// `x ≥ 0` and `e / (1 + e)` below, so nothing overflows. Exactly `0.5` at
/// `±0`, `1` at `+∞`, `0` below `−104`; a NaN is returned unchanged. See
/// the [module docs](self) for the arithmetic contract.
///
/// # Example
///
/// ```
/// use rtm_tensor::activations::sigmoid;
/// assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
/// ```
pub fn sigmoid(x: f32) -> f32 {
    let e = exp_nonpos(-x.abs());
    let y = (if x >= 0.0 { 1.0 } else { e }) / (1.0 + e);
    if x.is_nan() {
        x
    } else {
        y
    }
}

/// Derivative of sigmoid given the *activated* value `y = sigmoid(x)`.
pub fn sigmoid_deriv_from_output(y: f32) -> f32 {
    y * (1.0 - y)
}

/// Hyperbolic tangent: an odd polynomial below `|x| = 0.625`,
/// `(1 − e) / (1 + e)` with `e = e^-2|x|` above, computed on `|x|` and given
/// `x`'s sign — so `tanh(−x) = −tanh(x)` bitwise, `tanh(±0) = ±0` and
/// `tanh(±∞) = ±1`; a NaN is returned unchanged. See the
/// [module docs](self) for the arithmetic contract.
pub fn tanh(x: f32) -> f32 {
    let a = x.abs();
    let z = a * a;
    let p = TANH_P[1..].iter().fold(TANH_P[0], |p, &q| p * z + q);
    let small = (p * z) * a + a;
    let e = exp_nonpos(-2.0 * a);
    let large = (1.0 - e) / (1.0 + e);
    let y = if a < TANH_SMALL { small } else { large };
    if x.is_nan() {
        x
    } else {
        y.copysign(x)
    }
}

/// Derivative of tanh given the *activated* value `y = tanh(x)`.
pub fn tanh_deriv_from_output(y: f32) -> f32 {
    1.0 - y * y
}

/// Rectified linear unit.
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Derivative of ReLU given the pre-activation `x` (subgradient 0 at 0).
pub fn relu_deriv(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Applies sigmoid to every element in place.
///
/// Dispatched through the [`simd`](crate::simd) sweep kernels: the scalar
/// variants loop over [`sigmoid`], the AVX2 one runs the same operation
/// sequence eight lanes at a time, so the result is bit-identical under
/// every [`SimdPolicy`](crate::simd::SimdPolicy).
pub fn sigmoid_slice(xs: &mut [f32]) {
    crate::simd::sigmoid_sweep(xs);
}

/// Applies tanh to every element in place (see [`sigmoid_slice`] for the
/// dispatch contract).
pub fn tanh_slice(xs: &mut [f32]) {
    crate::simd::tanh_sweep(xs);
}

/// In-place numerically-stable softmax (subtracts the max before
/// exponentiating).
///
/// An empty slice is left unchanged.
pub fn softmax_slice(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in xs.iter_mut() {
            *x /= sum;
        }
    }
}

/// Cross-entropy loss `-log p[target]` of a probability vector with a clamp
/// protecting against `log(0)`.
///
/// # Panics
///
/// Panics if `target >= probs.len()`.
pub fn cross_entropy(probs: &[f32], target: usize) -> f32 {
    assert!(target < probs.len(), "target class out of range");
    -(probs[target].max(1e-12)).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::simd::{sigmoid_sweep_variant, tanh_sweep_variant, Variant};

    #[test]
    fn sigmoid_known_values() {
        assert!(approx_eq(sigmoid(0.0), 0.5, 1e-7));
        assert!(sigmoid(100.0) > 0.999_999);
        assert!(sigmoid(-100.0) < 1e-6);
        // symmetry: sigmoid(-x) = 1 - sigmoid(x)
        for x in [-3.0f32, -1.0, 0.5, 2.0] {
            assert!(approx_eq(sigmoid(-x), 1.0 - sigmoid(x), 1e-6));
        }
    }

    #[test]
    fn sigmoid_stable_extremes() {
        assert!(sigmoid(1e10).is_finite());
        assert!(sigmoid(-1e10).is_finite());
        assert_eq!(sigmoid(-1e10), 0.0);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let h = 1e-3f32;
        for x in [-2.0f32, -0.5, 0.0, 0.7, 1.5] {
            let fd = (sigmoid(x + h) - sigmoid(x - h)) / (2.0 * h);
            assert!(approx_eq(sigmoid_deriv_from_output(sigmoid(x)), fd, 1e-3));
            let fd_t = (tanh(x + h) - tanh(x - h)) / (2.0 * h);
            assert!(approx_eq(tanh_deriv_from_output(tanh(x)), fd_t, 1e-3));
        }
    }

    #[test]
    fn relu_behaviour() {
        assert_eq!(relu(-1.0), 0.0);
        assert_eq!(relu(2.5), 2.5);
        assert_eq!(relu_deriv(-1.0), 0.0);
        assert_eq!(relu_deriv(1.0), 1.0);
        assert_eq!(relu_deriv(0.0), 0.0);
    }

    #[test]
    fn slice_activations() {
        let mut xs = vec![0.0, 100.0];
        sigmoid_slice(&mut xs);
        assert!(approx_eq(xs[0], 0.5, 1e-6));
        assert!(xs[1] > 0.999);
        let mut ys = vec![0.0, 1.0];
        tanh_slice(&mut ys);
        assert!(approx_eq(ys[1], 1.0f32.tanh(), 1e-6));
    }

    #[test]
    fn softmax_sums_to_one() {
        let mut xs = vec![1.0, 2.0, 3.0];
        softmax_slice(&mut xs);
        assert!(approx_eq(xs.iter().sum::<f32>(), 1.0, 1e-6));
        assert!(xs[2] > xs[1] && xs[1] > xs[0]);
    }

    #[test]
    fn softmax_handles_large_inputs() {
        let mut xs = vec![1000.0, 1000.0];
        softmax_slice(&mut xs);
        assert!(approx_eq(xs[0], 0.5, 1e-6));
        assert!(xs.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn softmax_empty_noop() {
        let mut xs: Vec<f32> = vec![];
        softmax_slice(&mut xs);
        assert!(xs.is_empty());
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_zero() {
        assert!(approx_eq(cross_entropy(&[0.0, 1.0], 1), 0.0, 1e-6));
        assert!(cross_entropy(&[0.5, 0.5], 0) > 0.6);
        // clamp prevents infinity
        assert!(cross_entropy(&[0.0, 1.0], 0).is_finite());
    }

    #[test]
    #[should_panic(expected = "target class out of range")]
    fn cross_entropy_bad_target_panics() {
        cross_entropy(&[1.0], 3);
    }

    /// Distance in representable values (±0 coincide).
    fn ulps_apart(a: f32, b: f32) -> i64 {
        let key = |v: f32| {
            let magnitude = i64::from(v.to_bits() & 0x7fff_ffff);
            if v.is_sign_negative() {
                -magnitude
            } else {
                magnitude
            }
        };
        (key(a) - key(b)).abs()
    }

    /// The accuracy contract of both functions at one finite input, against
    /// an f64 reference, plus the range and symmetry every output keeps.
    fn assert_accurate(x: f32) {
        let xd = f64::from(x);
        let s = sigmoid(x);
        let s_true = 1.0 / (1.0 + (-xd).exp());
        if x >= EXP_CLAMP {
            let apart = ulps_apart(s, s_true as f32);
            assert!(apart <= 4, "sigmoid({x:e}) = {s:e}: {apart} ULP");
        } else {
            let err = (f64::from(s) - s_true).abs();
            assert!(err < 2f64.powi(-125), "sigmoid({x:e}) = {s:e}: {err:e}");
        }
        assert!((0.0..=1.0).contains(&s), "sigmoid({x:e}) = {s:e}");

        let t = tanh(x);
        let apart = ulps_apart(t, xd.tanh() as f32);
        assert!(apart <= 4, "tanh({x:e}) = {t:e}: {apart} ULP");
        assert!((-1.0..=1.0).contains(&t), "tanh({x:e}) = {t:e}");
        assert_eq!(tanh(-x).to_bits(), (-t).to_bits(), "tanh(-{x:e})");
    }

    /// Every sweep variant against the scalar definition, as bits.
    fn assert_sweeps_match_scalar(xs: &[f32]) {
        type Case = (fn(Variant, &mut [f32]), fn(f32) -> f32, &'static str);
        let cases: [Case; 2] = [
            (sigmoid_sweep_variant, sigmoid, "sigmoid"),
            (tanh_sweep_variant, tanh, "tanh"),
        ];
        for (sweep, scalar, name) in cases {
            for v in Variant::ALL {
                let mut got = xs.to_vec();
                sweep(v, &mut got);
                for (&x, &g) in xs.iter().zip(&got) {
                    let want = scalar(x);
                    assert_eq!(
                        g.to_bits(),
                        want.to_bits(),
                        "{name} {} n={} at {x:e} ({:#010x}): {g:e} vs {want:e}",
                        v.name(),
                        xs.len(),
                        x.to_bits()
                    );
                }
            }
        }
    }

    const NANS: [u32; 4] = [0x7fc0_0000, 0xffc0_0000, 0x7f80_0001, 0xffff_ffff];

    /// Where the arithmetic changes regime, each with its two neighbours.
    fn boundary_inputs() -> Vec<f32> {
        let around = |x: f32| {
            let b = x.to_bits();
            [b.wrapping_sub(1), b, b + 1].map(f32::from_bits)
        };
        let positive = [
            f32::from_bits(2), // the neighbours are the smallest subnormal and 3
            f32::MIN_POSITIVE, // … the largest subnormal
            TANH_SMALL,
            9.0,
            -EXP_CLAMP,
            88.0,
            -EXP_ZERO,
            f32::from_bits(f32::MAX.to_bits() - 1), // … MAX
        ];
        let mut xs = vec![0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY];
        for x in positive.into_iter().flat_map(around) {
            xs.extend([x, -x]);
        }
        xs
    }

    #[test]
    fn exact_identities() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(-0.0), 0.5);
        assert_eq!(sigmoid(f32::INFINITY), 1.0);
        for x in [f32::NEG_INFINITY, -1e10, -f32::MAX, EXP_ZERO.next_down()] {
            assert_eq!(sigmoid(x).to_bits(), 0, "sigmoid({x:e})");
        }
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        // A NaN — quiet or signalling, either sign — comes back unchanged.
        for x in NANS.map(f32::from_bits) {
            assert_eq!(sigmoid(x).to_bits(), x.to_bits());
            assert_eq!(tanh(x).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn accurate_at_the_boundaries_and_on_a_grid_of_all_f32() {
        for x in boundary_inputs() {
            assert_accurate(x);
        }
        // Every 2¹²-th bit pattern: 2²⁰ inputs over the whole line.
        for x in (0..1u32 << 20).map(|i| f32::from_bits(i << 12)) {
            if x.is_finite() {
                assert_accurate(x);
            }
        }
    }

    #[test]
    fn sweeps_match_scalar_at_every_remainder_length_and_boundary() {
        // Both signs and both `tanh` branches at every position.
        let xs: Vec<f32> = (0..17).map(|i| (i as f32 - 8.0) * 0.37).collect();
        for n in 0..=17 {
            assert_sweeps_match_scalar(&xs[..n]);
        }
        let mut plane = boundary_inputs();
        plane.extend(NANS.map(f32::from_bits));
        assert_sweeps_match_scalar(&plane);
    }
}

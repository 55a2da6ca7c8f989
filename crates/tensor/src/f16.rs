//! Software IEEE 754 binary16 ("half precision").
//!
//! Table II of the paper notes "Our GPU implementation uses 16-bit floating
//! point". The mobile-GPU inference path of this reproduction converts
//! weights and activations through [`F16`] so both the *numerics* (rounding
//! to 11-bit significands) and the *bandwidth halving* that the simulator's
//! memory model charges for are faithful to that setting.
//!
//! The conversion implements round-to-nearest-even, gradual underflow to
//! subnormals, and saturating overflow to ±∞, matching hardware `f32`→`f16`
//! conversion instructions.

use std::fmt;

/// IEEE 754 binary16 value stored as its raw bit pattern.
///
/// # Example
///
/// ```
/// use rtm_tensor::F16;
///
/// let h = F16::from_f32(1.5);
/// assert_eq!(h.to_f32(), 1.5);
/// // 2^-20 is subnormal in f16 but still representable
/// assert_eq!(F16::from_f32(2.0_f32.powi(-20)).to_f32(), 2.0_f32.powi(-20));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// The largest finite f16, 65504.
    pub const MAX: F16 = F16(0x7BFF);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// One canonical quiet NaN.
    pub const NAN: F16 = F16(0x7E00);

    /// Constructs from a raw bit pattern.
    pub fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }

    /// Returns the raw bit pattern.
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` with round-to-nearest-even.
    pub fn from_f32(value: f32) -> F16 {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mant = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf or NaN.
            return if mant == 0 {
                F16(sign | 0x7C00)
            } else {
                // Preserve a NaN payload bit so NaN stays NaN.
                F16(sign | 0x7C00 | 0x0200 | ((mant >> 13) as u16 & 0x03FF))
            };
        }

        // Unbiased exponent.
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Overflow -> infinity.
            return F16(sign | 0x7C00);
        }
        if unbiased >= -14 {
            // Normal range. 10-bit mantissa from 23-bit with RNE.
            let half_exp = ((unbiased + 15) as u16) << 10;
            let shifted = mant >> 13;
            let round_bits = mant & 0x1FFF;
            let mut out = sign | half_exp | (shifted as u16);
            // round-to-nearest-even on the dropped 13 bits
            if round_bits > 0x1000 || (round_bits == 0x1000 && (shifted & 1) == 1) {
                out = out.wrapping_add(1); // may carry into exponent; that is correct
            }
            return F16(out);
        }
        if unbiased >= -25 {
            // Subnormal range: implicit leading 1 becomes explicit. The
            // binade below the smallest subnormal 2^-24 belongs here too:
            // it shifts out whole, and everything above the tie 2^-25
            // rounds up to 0x0001.
            let full_mant = mant | 0x0080_0000;
            let shift = (-14 - unbiased) as u32 + 13;
            let shifted = full_mant >> shift;
            let round_mask = (1u32 << shift) - 1;
            let round_bits = full_mant & round_mask;
            let halfway = 1u32 << (shift - 1);
            let mut out = sign | (shifted as u16);
            if round_bits > halfway || (round_bits == halfway && (shifted & 1) == 1) {
                out = out.wrapping_add(1);
            }
            return F16(out);
        }
        // Underflow to signed zero.
        F16(sign)
    }

    /// Converts back to `f32` (exact; every f16 is representable in f32).
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 >> 10) & 0x1F) as u32;
        let mant = (self.0 & 0x03FF) as u32;

        let bits = if exp == 0 {
            if mant == 0 {
                sign // signed zero
            } else {
                // Subnormal: normalize. After shifting the leading 1 up to
                // bit 10, the unbiased exponent is -14 - shifts.
                let mut e = 0i32;
                let mut m = mant;
                while m & 0x0400 == 0 {
                    m <<= 1;
                    e -= 1;
                }
                m &= 0x03FF;
                let f32_exp = ((e + 1 - 15 + 127) as u32) << 23;
                sign | f32_exp | (m << 13)
            }
        } else if exp == 0x1F {
            if mant == 0 {
                sign | 0x7F80_0000 // infinity
            } else {
                sign | 0x7FC0_0000 | (mant << 13) // NaN
            }
        } else {
            let f32_exp = (exp + 127 - 15) << 23;
            sign | f32_exp | (mant << 13)
        };
        f32::from_bits(bits)
    }

    /// Returns `true` for either NaN encoding.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// Returns `true` for ±∞.
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl From<f32> for F16 {
    fn from(v: f32) -> F16 {
        F16::from_f32(v)
    }
}

impl From<F16> for f32 {
    fn from(h: F16) -> f32 {
        h.to_f32()
    }
}

/// Rounds an `f32` through f16 precision, i.e. `F16::from_f32(x).to_f32()`.
///
/// Used by the GPU inference path to model a 16-bit datapath while keeping
/// buffers in `f32` for convenience.
pub fn quantize_f16(x: f32) -> f32 {
    F16::from_f32(x).to_f32()
}

/// Quantizes every element of a slice through f16 precision in place.
///
/// On x86-64 hosts with F16C this is the hardware `vcvtps2ph` →
/// `vcvtph2ps` round trip (8 elements per step). It is the same function as
/// [`quantize_f16`] on every one of the 2³² `f32` bit patterns —
/// round-to-nearest-even, gradual underflow, quieted NaN payloads — so the
/// production GRU step rounds its gate planes here while the reference
/// step keeps the software conversion, and the two stay bit-identical.
pub fn quantize_f16_slice(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if f16c_available() {
            // SAFETY: the feature check gates the target_feature fn.
            unsafe { x86_f16c::round_trip(xs) };
            return;
        }
    }
    for x in xs {
        *x = quantize_f16(*x);
    }
}

/// Encodes a slice of `f32` values as raw f16 bit patterns.
///
/// This is the storage direction of the fp16 weight path: values round
/// through binary16 once here; [`f16_bits_to_f32`] restores them exactly.
pub fn f32_to_f16_bits(xs: &[f32]) -> Vec<u16> {
    xs.iter().map(|&v| F16::from_f32(v).to_bits()).collect()
}

/// Decodes raw f16 bit patterns into the equally long `dst` (a slice, so
/// kernels can place the decoded row in an aligned scratch window).
///
/// The conversion is exact — every f16 is representable in f32 — so a
/// kernel that decodes f16 storage and runs the f32 arithmetic produces
/// bit-identical results to the same f32 kernel on pre-rounded values.
///
/// On x86-64 hosts with F16C this uses the hardware `vcvtph2ps` widening
/// (8 elements per step); it computes the same IEEE-defined exact map as
/// the software path — including quieted-NaN payloads — so the choice is
/// invisible to every bit-exactness contract. The decode is the inner-loop
/// cost of the f16 weight path, which is why it gets the hardware
/// treatment even though the policy layer treats it as "scalar".
///
/// # Panics
///
/// Panics when `dst.len() != src.len()`.
pub fn f16_bits_to_f32(src: &[u16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "one f32 per f16");
    #[cfg(target_arch = "x86_64")]
    {
        if f16c_available() {
            // SAFETY: the feature check gates the target_feature fn; `dst`
            // holds exactly `src.len()` elements (asserted above).
            unsafe { x86_f16c::decode(src, dst) };
            return;
        }
    }
    for (d, &b) in dst.iter_mut().zip(src) {
        *d = F16::from_bits(b).to_f32();
    }
}

/// Whether the hardware f16 conversions are compiled in and available.
#[cfg(target_arch = "x86_64")]
fn f16c_available() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    static STATE: AtomicU8 = AtomicU8::new(0);
    match STATE.load(Ordering::Relaxed) {
        0 => {
            let yes = std::arch::is_x86_feature_detected!("f16c");
            STATE.store(if yes { 2 } else { 1 }, Ordering::Relaxed);
            yes
        }
        1 => false,
        _ => true,
    }
}

#[cfg(target_arch = "x86_64")]
mod x86_f16c {
    use std::arch::x86_64::*;

    /// F16C bulk decode of `src` into `dst`.
    ///
    /// # Safety
    ///
    /// The CPU must support F16C, and `dst` must be at least as long as
    /// `src`.
    #[target_feature(enable = "f16c")]
    pub unsafe fn decode(src: &[u16], dst: &mut [f32]) {
        let n = src.len();
        let out = dst.as_mut_ptr();
        let mut k = 0usize;
        // SAFETY: every access below is at an index `< n`, in bounds of
        // `src` and — by the caller's contract — of `dst`; the unaligned
        // load/store intrinsics carry no alignment requirement.
        unsafe {
            while k + 8 <= n {
                let h = _mm_loadu_si128(src.as_ptr().add(k) as *const __m128i);
                _mm256_storeu_ps(out.add(k), _mm256_cvtph_ps(h));
                k += 8;
            }
            while k < n {
                *out.add(k) = super::F16::from_bits(*src.get_unchecked(k)).to_f32();
                k += 1;
            }
        }
    }

    /// F16C round trip `f32 → f16 → f32` over `xs` in place, rounding to
    /// nearest even (the immediate is the 3-bit rounding control).
    ///
    /// # Safety
    ///
    /// The CPU must support F16C.
    #[target_feature(enable = "f16c")]
    pub unsafe fn round_trip(xs: &mut [f32]) {
        let mut chunks = xs.chunks_exact_mut(8);
        for c in &mut chunks {
            // SAFETY: `c` is exactly eight `f32`s; the unaligned load/store
            // intrinsics carry no alignment requirement.
            unsafe {
                let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(_mm256_loadu_ps(c.as_ptr()));
                _mm256_storeu_ps(c.as_mut_ptr(), _mm256_cvtph_ps(h));
            }
        }
        for x in chunks.into_remainder() {
            *x = super::quantize_f16(*x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -2048..=2048 {
            let v = i as f32;
            assert_eq!(F16::from_f32(v).to_f32(), v, "value {v}");
        }
    }

    #[test]
    fn powers_of_two_roundtrip() {
        for e in -24..=15 {
            let v = 2.0f32.powi(e);
            assert_eq!(F16::from_f32(v).to_f32(), v, "2^{e}");
        }
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert!(F16::from_f32(70000.0).is_infinite());
        assert!(F16::from_f32(-70000.0).is_infinite());
        assert_eq!(F16::from_f32(65504.0), F16::MAX);
    }

    #[test]
    fn underflow_to_zero() {
        assert_eq!(F16::from_f32(1e-30).to_f32(), 0.0);
        // signed zero preserved
        assert_eq!(F16::from_f32(-1e-30).to_bits(), 0x8000);
    }

    #[test]
    fn subnormals_representable() {
        // Smallest positive subnormal is 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(tiny).to_bits(), 1);
        assert_eq!(F16::from_bits(1).to_f32(), tiny);
    }

    #[test]
    fn rounds_to_nearest_even_below_the_smallest_subnormal() {
        // (2^-25, 2^-24) is nearer to 2^-24 (0x0001) than to zero; the tie
        // 2^-25 itself goes to the even neighbour, zero. `4.0e-8` is
        // `sigmoid(-17)`, so real activations land here.
        let tie = 2.0f32.powi(-25);
        let above_tie = f32::from_bits(tie.to_bits() + 1);
        let below_min = f32::from_bits(2.0f32.powi(-24).to_bits() - 1);
        for (sign, sign_bit) in [(1.0f32, 0u16), (-1.0, 0x8000)] {
            assert_eq!(F16::from_f32(sign * tie).to_bits(), sign_bit);
            assert_eq!(F16::from_f32(sign * above_tie).to_bits(), sign_bit | 1);
            assert_eq!(F16::from_f32(sign * 4.0e-8).to_bits(), sign_bit | 1);
            assert_eq!(F16::from_f32(sign * below_min).to_bits(), sign_bit | 1);
        }
    }

    #[test]
    fn nan_and_infinity_preserved() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::from_f32(f32::INFINITY).is_infinite());
        assert!(F16::from_f32(f32::NEG_INFINITY).is_infinite());
        assert!(F16::NAN.to_f32().is_nan());
        assert_eq!(F16::INFINITY.to_f32(), f32::INFINITY);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next f16 (1 + 2^-10);
        // RNE picks the even mantissa, i.e. 1.0.
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway).to_f32(), 1.0);
        // Slightly above halfway rounds up.
        let above = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(F16::from_f32(above).to_f32(), 1.0 + 2.0f32.powi(-10));
    }

    #[test]
    fn rounding_carry_into_exponent() {
        // The largest f16 mantissa rounding up must carry into the exponent:
        // nextafter(2.0, 0) in f16 is 2 - 2^-10; a value just above
        // 2 - 2^-11 rounds to 2.0.
        let v = 2.0 - 2.0f32.powi(-11) + 1e-6;
        assert_eq!(F16::from_f32(v).to_f32(), 2.0);
    }

    #[test]
    fn quantize_helpers() {
        let mut xs = vec![1.0 / 3.0, 0.1];
        quantize_f16_slice(&mut xs);
        // Quantized values differ from f32 originals but are close.
        assert!((xs[0] - 1.0 / 3.0).abs() < 1e-3);
        assert!((xs[1] - 0.1).abs() < 1e-3);
        assert_eq!(
            quantize_f16(xs[0]),
            xs[0],
            "already quantized is a fixpoint"
        );
    }

    #[test]
    fn relative_error_bounded_for_normals() {
        // Machine epsilon for f16 is 2^-10; RNE halves it.
        let mut x = 1.0f32;
        while x < 1000.0 {
            let q = quantize_f16(x * 1.000_3);
            let rel = ((q - x * 1.000_3) / (x * 1.000_3)).abs();
            assert!(rel <= 2.0f32.powi(-11) + 1e-7, "x={x} rel={rel}");
            x *= 1.7;
        }
    }

    #[test]
    fn bulk_decode_matches_software_for_every_pattern_class() {
        // Normals, subnormals, zeros, infinities and NaN payloads, at
        // lengths that hit the 8-wide hardware step and its scalar tail.
        let patterns: Vec<u16> = vec![
            0x0000, 0x8000, 0x0001, 0x8001, 0x03FF, 0x0400, 0x3C00, 0xBC00, 0x7BFF, 0xFBFF, 0x7C00,
            0xFC00, 0x7C01, 0x7E00, 0xFE55, 0x1234, 0xABCD, 0x5555,
        ];
        for len in [0usize, 1, 7, 8, 9, 16, 18] {
            let src: Vec<u16> = (0..len).map(|i| patterns[i % patterns.len()]).collect();
            let mut dst = vec![f32::NAN; len];
            f16_bits_to_f32(&src, &mut dst);
            for (i, (&bits, &got)) in src.iter().zip(&dst).enumerate() {
                let want = F16::from_bits(bits).to_f32();
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "len {len} idx {i} pattern {bits:#06x}"
                );
            }
        }
    }

    /// Whether `quantize_f16_slice` takes the F16C path on this host.
    fn hardware_rounding() -> bool {
        #[cfg(target_arch = "x86_64")]
        return f16c_available();
        #[cfg(not(target_arch = "x86_64"))]
        return false;
    }

    /// Asserts `quantize_f16_slice` ≡ per-element `quantize_f16`, bit for
    /// bit, on `inputs` taken as one slice.
    fn assert_slice_matches_scalar(inputs: &[f32]) {
        let mut got = inputs.to_vec();
        quantize_f16_slice(&mut got);
        for (i, (&x, &g)) in inputs.iter().zip(&got).enumerate() {
            let want = quantize_f16(x);
            assert_eq!(
                g.to_bits(),
                want.to_bits(),
                "element {i} of {}: input {:#010x}",
                inputs.len(),
                x.to_bits()
            );
        }
    }

    #[test]
    fn slice_rounding_matches_scalar_at_every_f16_boundary() {
        if !hardware_rounding() {
            println!("skipped: no F16C, quantize_f16_slice is the scalar loop");
            return;
        }
        let neighbours = |x: f32| {
            let b = x.to_bits();
            [b.wrapping_sub(1), b, b.wrapping_add(1)].map(f32::from_bits)
        };
        // (a) Every f16 value, and the midpoint to the next f16 of the same
        // sign (above 65504 that is the overflow threshold 65520), each with
        // its two f32 neighbours. Both sums are exact in f32.
        let mut inputs = Vec::with_capacity(6 << 16);
        for h in 0..=u16::MAX {
            let v = F16::from_bits(h).to_f32();
            inputs.extend(neighbours(v));
            if v.is_finite() {
                let next = match h & 0x7FFF {
                    0x7BFF => 65536.0f32.copysign(v),
                    _ => F16::from_bits(h + 1).to_f32(),
                };
                inputs.extend(neighbours((v + next) / 2.0));
            }
        }
        // (b) Zeros, infinities, quiet and signalling NaNs with payloads,
        // f32 subnormals, and the overflow edge.
        for bits in [
            0x0000_0000u32,
            0x7F80_0000,
            0x7FC0_0000,
            0x7FC0_1234,
            0x7FFF_FFFF,
            0x7F80_0001,
            0x7FA5_5555,
            0x7F80_2000,
            0x0000_0001,
            0x0040_0000,
            0x007F_FFFF,
            65504.0f32.to_bits(),
            65520.0f32.to_bits(),
            f32::MAX.to_bits(),
        ] {
            inputs.extend([bits, bits | 0x8000_0000].map(f32::from_bits));
        }
        assert_slice_matches_scalar(&inputs);
        // (c) Every remainder of the 8-wide step, at shifting offsets so the
        // scalar remainder sees boundary values too.
        for len in 0..=17 {
            for start in (0..inputs.len() - len).step_by(4099) {
                assert_slice_matches_scalar(&inputs[start..start + len]);
            }
        }
    }

    /// All 2³² inputs on two threads: ≈ 12 s in release, hours in debug —
    /// `scripts/ci.sh` runs it with `--release -- --ignored`.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run in release"]
    fn slice_rounding_matches_scalar_on_every_f32() {
        if !hardware_rounding() {
            println!("skipped: no F16C, quantize_f16_slice is the scalar loop");
            return;
        }
        std::thread::scope(|s| {
            for half in 0..2u32 {
                s.spawn(move || {
                    let mut buf = vec![0.0f32; 1 << 16];
                    for block in (half << 15)..((half + 1) << 15) {
                        for (i, x) in buf.iter_mut().enumerate() {
                            *x = f32::from_bits((block << 16) | i as u32);
                        }
                        assert_slice_matches_scalar(&buf);
                    }
                });
            }
        });
    }

    #[test]
    fn display_shows_value() {
        assert_eq!(format!("{}", F16::from_f32(1.5)), "1.5");
    }

    #[test]
    fn conversion_traits() {
        let h: F16 = 2.0f32.into();
        let back: f32 = h.into();
        assert_eq!(back, 2.0);
    }
}

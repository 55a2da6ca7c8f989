//! Int8 dot-product kernels behind the [`crate::simd`] dispatch layer.
//!
//! The quantized inference path stores weights as `i8` codes and quantizes
//! activations per call (`q = round(x / sx)` with `sx = max|x| / 127`), so
//! every kernel here multiplies two int8 operands and accumulates in `i32`.
//! Integer accumulation is *exact*: unlike the f32 kernels, both
//! realizations — the scalar definition and the AVX2 `maddubs`-style
//! widening production runs — return the same `i32` for the same inputs, so
//! the bit-exactness contract of the f32 layer holds trivially (and more
//! strongly) here. Dequantization happens once, at the store site in the
//! sparse kernels, never inside these.
//!
//! Overflow: a single `i8 × i8` product is at most `127 × 127 = 16129`, so
//! an `i32` accumulator absorbs over 130 000 terms before it could wrap.
//! The AVX2 path pairs products into `i16 × i16 → i32` lanes via
//! `_mm256_madd_epi16` after sign-extending both operands, which is exact
//! for the same reason (each madd term is at most `2 × 16129`).

use crate::simd::Variant;

/// Exact integer dot product `Σ a[i]·b[i]` with `i32` accumulation: the
/// scalar definition every fused row kernel below is stated against.
fn dot_i8_scalar(a: &[i8], b: &[i8]) -> i32 {
    let mut acc = 0i32;
    for (&x, &y) in a.iter().zip(b) {
        acc += x as i32 * y as i32;
    }
    acc
}

/// Fused per-row BSPC int8 kernel: the row's values and gathered
/// activations are split into consecutive segments of `seg_lens[i]`
/// elements (one per column block), each segment gets an exact i32 dot,
/// and the result is `Σ_i scales[i] · (dot_i as f32)` accumulated in
/// segment order. One call covers the whole row — at high compression the
/// blocks are a handful of elements each, so a call per block would cost
/// more than the multiplies.
///
/// Every variant returns the same value: the per-segment i32 dots are
/// exact regardless of vectorization, and the f32 combination happens in
/// the same segment order everywhere.
///
/// # Panics
///
/// Panics when `vals`/`gathered` differ in length, `seg_lens`/`scales`
/// differ in length, or the segment lengths do not sum to `vals.len()`.
pub fn row_block_dots_i8(
    v: Variant,
    vals: &[i8],
    gathered: &[i8],
    seg_lens: &[u32],
    scales: &[f32],
) -> f32 {
    assert_eq!(vals.len(), gathered.len(), "row_block_dots_i8 row length");
    assert_eq!(seg_lens.len(), scales.len(), "one scale per segment");
    assert_eq!(
        seg_lens.iter().map(|&l| l as usize).sum::<usize>(),
        vals.len(),
        "segment lengths cover the row"
    );
    match v {
        Variant::ScalarU1 => row_block_dots_i8_scalar(vals, gathered, seg_lens, scales),
        Variant::Vector => row_block_dots_i8_vector(vals, gathered, seg_lens, scales),
    }
}

fn row_block_dots_i8_scalar(vals: &[i8], gathered: &[i8], seg_lens: &[u32], scales: &[f32]) -> f32 {
    let mut acc_f = 0.0f32;
    let mut off = 0usize;
    for (&len, &scale) in seg_lens.iter().zip(scales) {
        let len = len as usize;
        if len > 0 {
            let acc = dot_i8_scalar(&vals[off..off + len], &gathered[off..off + len]);
            acc_f += acc as f32 * scale;
        }
        off += len;
    }
    acc_f
}

fn row_block_dots_i8_vector(vals: &[i8], gathered: &[i8], seg_lens: &[u32], scales: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::simd::vector_available() {
            // Safety: vector_available() verified avx2 support at runtime.
            return unsafe { x86::row_block_dots_i8(vals, gathered, seg_lens, scales) };
        }
    }
    row_block_dots_i8_scalar(vals, gathered, seg_lens, scales)
}

/// Four-row [`row_block_dots_i8`]: the rows share one gathered activation
/// vector (BSP rows of the same stripe read the same kept columns), so the
/// vector path loads and widens each activation segment once and runs four
/// madds against it — the register-blocking that makes the int8 SpMV
/// faster than f32 even when blocks shrink to a dozen values. Exactness is
/// per row, identical to four single-row calls on every variant.
///
/// # Panics
///
/// Panics when any row's length differs from `gathered.len()`, when
/// `seg_lens`/`scales` differ in length, or when the segment lengths do
/// not sum to the row length.
pub fn row_quad_block_dots_i8(
    v: Variant,
    rows: [&[i8]; 4],
    gathered: &[i8],
    seg_lens: &[u32],
    scales: &[f32],
) -> [f32; 4] {
    for r in rows {
        assert_eq!(r.len(), gathered.len(), "row_quad_block_dots_i8 row length");
    }
    assert_eq!(seg_lens.len(), scales.len(), "one scale per segment");
    assert_eq!(
        seg_lens.iter().map(|&l| l as usize).sum::<usize>(),
        gathered.len(),
        "segment lengths cover the row"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if v == Variant::Vector && crate::simd::vector_available() {
            // Safety: vector_available() verified avx2 support at runtime.
            return unsafe { x86::row_quad_block_dots_i8(rows, gathered, seg_lens, scales) };
        }
    }
    let _ = v;
    rows.map(|r| row_block_dots_i8_scalar(r, gathered, seg_lens, scales))
}

/// Fused per-row *batched* int8 kernel — the lane-major register tile.
///
/// `gathered` is the row's activation plane, lane-major (`[len × b]` with
/// element `k` of lane `j` at `gathered[k·b + j]`), split into consecutive
/// segments of `seg_lens[i]` elements (one per column block). For every
/// lane `j`:
///
/// ```text
/// out[j] = sxs[j] · Σ_i scales[i] · (Σ_k vals[k]·gathered[k·b + j] over segment i)
/// ```
///
/// accumulated in segment order with empty segments skipped — exactly the
/// value the serial int8 SpMV produces for lane `j`'s column, so the
/// batched engines inherit the serial≡batched bit-exactness contract from
/// this one call.
///
/// Lanes are processed in tiles of 8: the integer accumulator and the f32
/// partial both live in registers for the whole row, and the per-block
/// scale fold touches memory once per row. Every variant returns the same
/// bits (exact i32 dots; identical f32 combination order).
///
/// Total in `b`: the tile vectorizes across lanes, so a single lane runs
/// `sxs[0] · `[`row_block_dots_i8`] (vector along the row) — the formula
/// above at `b == 1`, the same bits.
///
/// # Panics
///
/// Panics when `gathered` is not `[vals.len() × b]`, `seg_lens`/`scales`
/// differ in length, the segment lengths do not sum to `vals.len()`, or
/// `sxs`/`out` are not `b` long.
#[allow(clippy::too_many_arguments)]
pub fn row_block_dots_batch_i8(
    v: Variant,
    vals: &[i8],
    gathered: &[i8],
    b: usize,
    seg_lens: &[u32],
    scales: &[f32],
    sxs: &[f32],
    out: &mut [f32],
) {
    assert_eq!(sxs.len(), b, "one activation scale per lane");
    assert_eq!(out.len(), b, "one output per lane");
    if b == 1 {
        // Checks the row, segment and scale shapes itself.
        out[0] = sxs[0] * row_block_dots_i8(v, vals, gathered, seg_lens, scales);
        return;
    }
    assert_eq!(gathered.len(), vals.len() * b, "lane-major plane shape");
    assert_eq!(seg_lens.len(), scales.len(), "one scale per segment");
    assert_eq!(
        seg_lens.iter().map(|&l| l as usize).sum::<usize>(),
        vals.len(),
        "segment lengths cover the row"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if v == Variant::Vector && crate::simd::vector_available() && b >= 8 {
            // Safety: vector_available() verified avx2 support at runtime.
            unsafe { x86::row_block_dots_batch_i8(vals, gathered, b, seg_lens, scales, sxs, out) };
            return;
        }
    }
    let _ = v;
    row_block_dots_batch_i8_scalar(vals, gathered, b, seg_lens, scales, sxs, out, 0);
}

/// Four-row [`row_block_dots_batch_i8`]: the rows share one lane-major
/// gathered activation plane (BSP rows of the same stripe read the same
/// kept columns), so the vector path widens and pair-interleaves each
/// 8-lane activation step once and runs one `madd` per row against it —
/// two stored elements per instruction, the same element-pairing that
/// makes the serial int8 SpMV faster than f32. `out` is row-major
/// `[4 × b]`: row `i`, lane `j` at `out[i·b + j]`. Exactness is per
/// (row, lane), identical to four single-row calls on every variant. A
/// single lane runs `sxs[0] · `[`row_quad_block_dots_i8`], like the
/// single-row tile.
///
/// # Panics
///
/// Panics on the same shape mismatches as [`row_block_dots_batch_i8`],
/// checked against every row, with `out` expected to be `4·b` long.
#[allow(clippy::too_many_arguments)]
pub fn row_quad_block_dots_batch_i8(
    v: Variant,
    rows: [&[i8]; 4],
    gathered: &[i8],
    b: usize,
    seg_lens: &[u32],
    scales: &[f32],
    sxs: &[f32],
    out: &mut [f32],
) {
    assert_eq!(sxs.len(), b, "one activation scale per lane");
    assert_eq!(out.len(), 4 * b, "one output per row per lane");
    if b == 1 {
        // Checks the row, segment and scale shapes itself.
        let quad = row_quad_block_dots_i8(v, rows, gathered, seg_lens, scales);
        for (o, acc) in out.iter_mut().zip(quad) {
            *o = sxs[0] * acc;
        }
        return;
    }
    for r in rows {
        assert_eq!(gathered.len(), r.len() * b, "lane-major plane shape");
    }
    assert_eq!(seg_lens.len(), scales.len(), "one scale per segment");
    assert_eq!(
        seg_lens.iter().map(|&l| l as usize).sum::<usize>() * b,
        gathered.len(),
        "segment lengths cover the row"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if v == Variant::Vector && crate::simd::vector_available() && b >= 8 {
            // Safety: vector_available() verified avx2 support at runtime.
            unsafe {
                x86::row_quad_block_dots_batch_i8(rows, gathered, b, seg_lens, scales, sxs, out)
            };
            return;
        }
    }
    let _ = v;
    for (i, r) in rows.into_iter().enumerate() {
        row_block_dots_batch_i8_scalar(
            r,
            gathered,
            b,
            seg_lens,
            scales,
            sxs,
            &mut out[i * b..(i + 1) * b],
            0,
        );
    }
}

/// Scalar lane-tile realization of [`row_block_dots_batch_i8`] covering
/// lanes `j0..b`; the AVX2 path reuses it for the sub-8 lane tail so both
/// paths fold scales in the same order.
#[allow(clippy::too_many_arguments)]
fn row_block_dots_batch_i8_scalar(
    vals: &[i8],
    gathered: &[i8],
    b: usize,
    seg_lens: &[u32],
    scales: &[f32],
    sxs: &[f32],
    out: &mut [f32],
    j0: usize,
) {
    let mut j0 = j0;
    while j0 < b {
        let t = (b - j0).min(8);
        let mut partial = [0.0f32; 8];
        let mut off = 0usize;
        for (&len, &scale) in seg_lens.iter().zip(scales) {
            let len = len as usize;
            if len > 0 {
                let mut acc = [0i32; 8];
                for k in off..off + len {
                    let w = vals[k] as i32;
                    let lanes = &gathered[k * b + j0..k * b + j0 + t];
                    for (a, &x) in acc[..t].iter_mut().zip(lanes) {
                        *a += w * x as i32;
                    }
                }
                for (p, &a) in partial[..t].iter_mut().zip(&acc[..t]) {
                    *p += a as f32 * scale;
                }
            }
            off += len;
        }
        for i in 0..t {
            out[j0 + i] = sxs[j0 + i] * partial[i];
        }
        j0 += t;
    }
}

/// Quantizes activations symmetrically: `sx = max|x| / 127`,
/// `q = round(x / sx)` clamped to `[-127, 127]`, written into `out`
/// (resized to `x.len()`). Returns the scale `sx`.
///
/// An all-zero (or empty) input gets scale 1.0 and all-zero codes. Non-finite
/// inputs saturate to ±127 like any other out-of-range value, so a NaN/Inf
/// activation cannot poison the integer kernels (the health layer still sees
/// the fault in the f32 buffers it scans).
pub fn quantize_activations(x: &[f32], out: &mut Vec<i8>) -> f32 {
    let max_abs = x.iter().fold(
        0.0f32,
        |m, v| {
            if v.is_finite() {
                m.max(v.abs())
            } else {
                m
            }
        },
    );
    let sx = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
    out.clear();
    out.extend(x.iter().map(|&v| {
        let q = (v / sx).round();
        if q.is_nan() {
            0
        } else {
            q.clamp(-127.0, 127.0) as i8
        }
    }));
    sx
}

/// Per-lane [`quantize_activations`] over a lane-major `[rows × b]` plane:
/// lane `j`'s scale is computed from column `j` alone, so lane `j`'s codes
/// are identical to a serial [`quantize_activations`] of that column — the
/// batched int8 kernels inherit the serial-vs-batched bit-exactness
/// contract from this.
///
/// `scales` is resized to `b`, `out` to `xs.len()`.
///
/// # Panics
///
/// Panics when `xs.len()` is not a multiple of `b` (with `b > 0`).
pub fn quantize_activations_lanes(xs: &[f32], b: usize, out: &mut Vec<i8>, scales: &mut Vec<f32>) {
    assert!(
        b > 0 && xs.len().is_multiple_of(b),
        "lane-major plane shape"
    );
    let rows = xs.len() / b;
    scales.clear();
    scales.resize(b, 1.0);
    for (j, s) in scales.iter_mut().enumerate() {
        let mut max_abs = 0.0f32;
        for r in 0..rows {
            let v = xs[r * b + j];
            if v.is_finite() {
                max_abs = max_abs.max(v.abs());
            }
        }
        if max_abs > 0.0 {
            *s = max_abs / 127.0;
        }
    }
    out.clear();
    out.resize(xs.len(), 0);
    for r in 0..rows {
        for j in 0..b {
            let v = xs[r * b + j];
            let q = (v / scales[j]).round();
            out[r * b + j] = if q.is_nan() {
                0
            } else {
                q.clamp(-127.0, 127.0) as i8
            };
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// One i32 dot of `a[off..off+len]`·`b[off..off+len]` with 16-wide,
    /// 8-wide, 4-wide and scalar steps. Exact — integer adds commute. The
    /// short-segment path matters: at 10× compression a BSP block holds a
    /// dozen-odd values, so the 256-bit reduction is skipped entirely and
    /// the tail runs through one zero-extended 4-wide madd instead of four
    /// scalar multiplies.
    #[target_feature(enable = "avx2")]
    unsafe fn segment_dot(a: &[i8], b: &[i8], off: usize, len: usize) -> i32 {
        let mut k = off;
        let end = off + len;
        let mut acc128 = _mm_setzero_si128();
        if len >= 16 {
            let mut acc = _mm256_setzero_si256();
            while k + 16 <= end {
                let va = _mm_loadu_si128(a.as_ptr().add(k) as *const __m128i);
                let vb = _mm_loadu_si128(b.as_ptr().add(k) as *const __m128i);
                acc = _mm256_add_epi32(
                    acc,
                    _mm256_madd_epi16(_mm256_cvtepi8_epi16(va), _mm256_cvtepi8_epi16(vb)),
                );
                k += 16;
            }
            acc128 = _mm_add_epi32(
                _mm256_castsi256_si128(acc),
                _mm256_extracti128_si256(acc, 1),
            );
        }
        if k + 8 <= end {
            let va = _mm_loadl_epi64(a.as_ptr().add(k) as *const __m128i);
            let vb = _mm_loadl_epi64(b.as_ptr().add(k) as *const __m128i);
            acc128 = _mm_add_epi32(
                acc128,
                _mm_madd_epi16(_mm_cvtepi8_epi16(va), _mm_cvtepi8_epi16(vb)),
            );
            k += 8;
        }
        if k + 4 <= end {
            // 4 bytes zero-extended into the low lanes; the upper i16
            // lanes are zero so they contribute nothing to the madd.
            let la = (a.as_ptr().add(k) as *const i32).read_unaligned();
            let lb = (b.as_ptr().add(k) as *const i32).read_unaligned();
            acc128 = _mm_add_epi32(
                acc128,
                _mm_madd_epi16(
                    _mm_cvtepi8_epi16(_mm_cvtsi32_si128(la)),
                    _mm_cvtepi8_epi16(_mm_cvtsi32_si128(lb)),
                ),
            );
            k += 4;
        }
        let mut lanes = [0i32; 4];
        _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, acc128);
        let mut total: i32 = lanes.iter().sum();
        while k < end {
            total += *a.get_unchecked(k) as i32 * *b.get_unchecked(k) as i32;
            k += 1;
        }
        total
    }

    /// AVX2 fused per-row block dots (see the dispatching wrapper for the
    /// contract). One `#[target_feature]` entry for the whole row keeps the
    /// per-segment cost at a few instructions even when high compression
    /// shrinks each block to a handful of elements.
    #[target_feature(enable = "avx2")]
    pub unsafe fn row_block_dots_i8(
        vals: &[i8],
        gathered: &[i8],
        seg_lens: &[u32],
        scales: &[f32],
    ) -> f32 {
        let mut acc_f = 0.0f32;
        let mut off = 0usize;
        for (&len, &scale) in seg_lens.iter().zip(scales) {
            let len = len as usize;
            if len > 0 {
                acc_f += segment_dot(vals, gathered, off, len) as f32 * scale;
            }
            off += len;
        }
        acc_f
    }

    /// Shared-activation four-row segment dot: widens each `b` step once
    /// and runs four madds against it. Per-row sums are identical to four
    /// [`segment_dot`] calls (integer adds commute).
    #[target_feature(enable = "avx2")]
    unsafe fn segment_dot4(rows: [&[i8]; 4], b: &[i8], off: usize, len: usize) -> [i32; 4] {
        let mut k = off;
        let end = off + len;
        let mut acc128 = [_mm_setzero_si128(); 4];
        if len >= 16 {
            let mut acc = [_mm256_setzero_si256(); 4];
            while k + 16 <= end {
                let wb = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(k) as *const __m128i));
                for (a, r) in acc.iter_mut().zip(rows) {
                    let wa =
                        _mm256_cvtepi8_epi16(_mm_loadu_si128(r.as_ptr().add(k) as *const __m128i));
                    *a = _mm256_add_epi32(*a, _mm256_madd_epi16(wa, wb));
                }
                k += 16;
            }
            for (n, a) in acc128.iter_mut().zip(acc) {
                *n = _mm_add_epi32(_mm256_castsi256_si128(a), _mm256_extracti128_si256(a, 1));
            }
        }
        if k + 8 <= end {
            let wb = _mm_cvtepi8_epi16(_mm_loadl_epi64(b.as_ptr().add(k) as *const __m128i));
            for (a, r) in acc128.iter_mut().zip(rows) {
                let wa = _mm_cvtepi8_epi16(_mm_loadl_epi64(r.as_ptr().add(k) as *const __m128i));
                *a = _mm_add_epi32(*a, _mm_madd_epi16(wa, wb));
            }
            k += 8;
        }
        if k + 4 <= end {
            let lb = (b.as_ptr().add(k) as *const i32).read_unaligned();
            let wb = _mm_cvtepi8_epi16(_mm_cvtsi32_si128(lb));
            for (a, r) in acc128.iter_mut().zip(rows) {
                let la = (r.as_ptr().add(k) as *const i32).read_unaligned();
                *a = _mm_add_epi32(
                    *a,
                    _mm_madd_epi16(_mm_cvtepi8_epi16(_mm_cvtsi32_si128(la)), wb),
                );
            }
            k += 4;
        }
        let mut out = [0i32; 4];
        for (o, a) in out.iter_mut().zip(acc128) {
            let mut lanes = [0i32; 4];
            _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, a);
            *o = lanes.iter().sum();
        }
        while k < end {
            let xb = *b.get_unchecked(k) as i32;
            for (o, r) in out.iter_mut().zip(rows) {
                *o += *r.get_unchecked(k) as i32 * xb;
            }
            k += 1;
        }
        out
    }

    /// AVX2 four-row fused block dots (see the dispatching wrapper for the
    /// contract).
    #[target_feature(enable = "avx2")]
    pub unsafe fn row_quad_block_dots_i8(
        rows: [&[i8]; 4],
        gathered: &[i8],
        seg_lens: &[u32],
        scales: &[f32],
    ) -> [f32; 4] {
        let mut out = [0.0f32; 4];
        let mut off = 0usize;
        for (&len, &scale) in seg_lens.iter().zip(scales) {
            let len = len as usize;
            if len > 0 {
                let d = segment_dot4(rows, gathered, off, len);
                for (o, di) in out.iter_mut().zip(d) {
                    *o += di as f32 * scale;
                }
            }
            off += len;
        }
        out
    }

    /// AVX2 lane-major register tile (see the dispatching wrapper for the
    /// contract). Eight lanes per tile: the i32 accumulator is zeroed per
    /// segment and the f32 partial per row, both staying in ymm registers —
    /// the output is touched exactly once per row per lane.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn row_block_dots_batch_i8(
        vals: &[i8],
        gathered: &[i8],
        b: usize,
        seg_lens: &[u32],
        scales: &[f32],
        sxs: &[f32],
        out: &mut [f32],
    ) {
        let tiles = b / 8 * 8;
        let mut j0 = 0usize;
        while j0 < tiles {
            let mut partial = _mm256_setzero_ps();
            let mut off = 0usize;
            for (&len, &scale) in seg_lens.iter().zip(scales) {
                let len = len as usize;
                if len > 0 {
                    let mut acc = _mm256_setzero_si256();
                    for k in off..off + len {
                        let w = _mm256_set1_epi32(*vals.get_unchecked(k) as i32);
                        let x = _mm256_cvtepi8_epi32(_mm_loadl_epi64(
                            gathered.as_ptr().add(k * b + j0) as *const __m128i,
                        ));
                        acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(w, x));
                    }
                    partial = _mm256_add_ps(
                        partial,
                        _mm256_mul_ps(_mm256_cvtepi32_ps(acc), _mm256_set1_ps(scale)),
                    );
                }
                off += len;
            }
            let s = _mm256_loadu_ps(sxs.as_ptr().add(j0));
            _mm256_storeu_ps(out.as_mut_ptr().add(j0), _mm256_mul_ps(s, partial));
            j0 += 8;
        }
        if j0 < b {
            super::row_block_dots_batch_i8_scalar(
                vals, gathered, b, seg_lens, scales, sxs, out, j0,
            );
        }
    }

    /// AVX2 four-row lane-major register tile (see the dispatching wrapper
    /// for the contract). Per 8-lane tile the segment loop walks stored
    /// elements in *pairs*: the two elements' activation bytes are widened
    /// to i16 and interleaved once (`(x_k, x_{k+1})` adjacent per lane),
    /// then each row contributes one `_mm256_madd_epi16` against its
    /// broadcast `(w_k, w_{k+1})` word — two multiplies per instruction,
    /// with the activation prep shared by all four value streams. Exact:
    /// each madd lane is `w_k·x_k + w_{k+1}·x_{k+1}` in i32 (|terms| ≤
    /// 2·16129), and integer adds commute.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn row_quad_block_dots_batch_i8(
        rows: [&[i8]; 4],
        gathered: &[i8],
        b: usize,
        seg_lens: &[u32],
        scales: &[f32],
        sxs: &[f32],
        out: &mut [f32],
    ) {
        let tiles = b / 8 * 8;
        let n = rows[0].len();
        let gp = gathered.as_ptr();
        let mut j0 = 0usize;
        while j0 < tiles {
            let mut partial = [_mm256_setzero_ps(); 4];
            let mut off = 0usize;
            for (&len, &scale) in seg_lens.iter().zip(scales) {
                let len = len as usize;
                if len > 0 {
                    let mut acc = [_mm256_setzero_si256(); 4];
                    let end = off + len;
                    let mut k = off;
                    // Interleave two elements' lane bytes, then one widen:
                    // 16-bit pair 2j/2j+1 holds (x_k[j], x_{k+1}[j]) — two
                    // shuffle uops of activation prep per pair, shared by
                    // all four value streams.
                    let pair_x = |k: usize| {
                        let xa = _mm_loadl_epi64(gp.add(k * b + j0) as *const __m128i);
                        let xb = _mm_loadl_epi64(gp.add((k + 1) * b + j0) as *const __m128i);
                        _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(xa, xb))
                    };
                    // Eight elements (four pairs) at a time: each row's
                    // eight weight bytes widen to four i16 pair-words with
                    // one load + one shuffle, and each pair-word broadcasts
                    // with a single vpshufd — no scalar pair assembly on
                    // the hot path.
                    while k + 8 <= end {
                        let x0 = pair_x(k);
                        let x1 = pair_x(k + 2);
                        let x2 = pair_x(k + 4);
                        let x3 = pair_x(k + 6);
                        for (a, r) in acc.iter_mut().zip(rows) {
                            let wq = _mm_cvtepi8_epi16(_mm_loadl_epi64(
                                r.as_ptr().add(k) as *const __m128i
                            ));
                            let wy = _mm256_inserti128_si256(_mm256_castsi128_si256(wq), wq, 1);
                            let t0 = _mm256_madd_epi16(x0, _mm256_shuffle_epi32(wy, 0b0000_0000));
                            let t1 = _mm256_madd_epi16(x1, _mm256_shuffle_epi32(wy, 0b0101_0101));
                            let t2 = _mm256_madd_epi16(x2, _mm256_shuffle_epi32(wy, 0b1010_1010));
                            let t3 = _mm256_madd_epi16(x3, _mm256_shuffle_epi32(wy, 0b1111_1111));
                            let t = _mm256_add_epi32(
                                _mm256_add_epi32(t0, t1),
                                _mm256_add_epi32(t2, t3),
                            );
                            *a = _mm256_add_epi32(*a, t);
                        }
                        k += 8;
                    }
                    while k + 2 <= end {
                        let x = pair_x(k);
                        for (a, r) in acc.iter_mut().zip(rows) {
                            let w0 = *r.get_unchecked(k) as i16 as u16 as u32;
                            let w1 = *r.get_unchecked(k + 1) as i16 as u16 as u32;
                            let w = _mm256_set1_epi32((w0 | (w1 << 16)) as i32);
                            *a = _mm256_add_epi32(*a, _mm256_madd_epi16(x, w));
                        }
                        k += 2;
                    }
                    if k < end {
                        if k + 1 < n {
                            // Zero-padded pair: the partner element belongs
                            // to the next segment (or is garbage within
                            // bounds) but its weight is 0, so the madd term
                            // is exactly w_k·x_k.
                            let xa = _mm_loadl_epi64(gp.add(k * b + j0) as *const __m128i);
                            let xb = _mm_loadl_epi64(gp.add((k + 1) * b + j0) as *const __m128i);
                            let x = _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(xa, xb));
                            for (a, r) in acc.iter_mut().zip(rows) {
                                let w0 = *r.get_unchecked(k) as i16 as u16 as u32;
                                let w = _mm256_set1_epi32(w0 as i32);
                                *a = _mm256_add_epi32(*a, _mm256_madd_epi16(x, w));
                            }
                        } else {
                            let x = _mm256_cvtepi8_epi32(_mm_loadl_epi64(
                                gp.add(k * b + j0) as *const __m128i
                            ));
                            for (a, r) in acc.iter_mut().zip(rows) {
                                let w = _mm256_set1_epi32(*r.get_unchecked(k) as i32);
                                *a = _mm256_add_epi32(*a, _mm256_mullo_epi32(w, x));
                            }
                        }
                    }
                    let sv = _mm256_set1_ps(scale);
                    for (p, a) in partial.iter_mut().zip(acc) {
                        *p = _mm256_add_ps(*p, _mm256_mul_ps(_mm256_cvtepi32_ps(a), sv));
                    }
                }
                off += len;
            }
            let s = _mm256_loadu_ps(sxs.as_ptr().add(j0));
            for (i, p) in partial.into_iter().enumerate() {
                _mm256_storeu_ps(out.as_mut_ptr().add(i * b + j0), _mm256_mul_ps(s, p));
            }
            j0 += 8;
        }
        if j0 < b {
            for (i, r) in rows.into_iter().enumerate() {
                super::row_block_dots_batch_i8_scalar(
                    r,
                    gathered,
                    b,
                    seg_lens,
                    scales,
                    sxs,
                    &mut out[i * b..(i + 1) * b],
                    j0,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::Variant;

    fn codes(n: usize, seed: i32) -> Vec<i8> {
        (0..n)
            .map(|i| (((i as i32 * 37 + seed * 101) % 255) - 127) as i8)
            .collect()
    }

    #[test]
    fn all_variants_agree_exactly() {
        for n in [0usize, 1, 7, 15, 16, 17, 33, 100, 257] {
            let a = codes(n, 1);
            let b = codes(n, 2);
            // One segment at unit scale is the bare dot, exact in f32
            // (every sum here is below 2^24 in magnitude).
            let reference = dot_i8_scalar(&a, &b) as f32;
            for v in Variant::ALL {
                let got = row_block_dots_i8(v, &a, &b, &[n as u32], &[1.0]);
                assert_eq!(got, reference, "n={n} {v:?}");
            }
        }
    }

    #[test]
    fn extreme_codes_do_not_overflow() {
        // 4096 maxed-out products: 4096 * 16129 ≈ 6.6e7, far inside i32 —
        // and −16129 · 2^12 is exact in f32.
        let a = vec![127i8; 4096];
        let b = vec![-127i8; 4096];
        let want = -(127i32 * 127) * 4096;
        assert_eq!(dot_i8_scalar(&a, &b), want);
        for v in Variant::ALL {
            let got = row_block_dots_i8(v, &a, &b, &[4096], &[1.0]);
            assert_eq!(got, want as f32, "{v:?}");
        }
    }

    #[test]
    fn indexed_matches_gathered_dense() {
        let vals = codes(50, 3);
        let x = codes(80, 4);
        let idx: Vec<u32> = (0..50).map(|i| ((i * 13) % 80) as u32).collect();
        let gathered: Vec<i8> = idx.iter().map(|&i| x[i as usize]).collect();
        // What the CSR int8 rows rely on: gathering the codes and
        // running the dense dot is the indexed walk's exact sum.
        let indexed: i32 = vals
            .iter()
            .zip(&idx)
            .map(|(&q, &i)| q as i32 * x[i as usize] as i32)
            .sum();
        assert_eq!(dot_i8_scalar(&vals, &gathered), indexed);
        for v in Variant::ALL {
            let got = row_block_dots_i8(v, &vals, &gathered, &[50], &[1.0]);
            assert_eq!(got, indexed as f32, "{v:?}");
        }
    }

    #[test]
    fn row_block_dots_matches_per_block_reference() {
        // Segment lengths straddle every SIMD step width (16, 8, tails).
        let seg_lens: Vec<u32> = vec![0, 3, 16, 13, 8, 1, 40, 0, 25];
        let n: usize = seg_lens.iter().map(|&l| l as usize).sum();
        let vals = codes(n, 7);
        let gathered = codes(n, 8);
        let scales: Vec<f32> = (0..seg_lens.len())
            .map(|i| 0.01 + 0.003 * i as f32)
            .collect();
        let mut want = 0.0f32;
        let mut off = 0usize;
        for (&len, &scale) in seg_lens.iter().zip(&scales) {
            let len = len as usize;
            if len > 0 {
                let d = dot_i8_scalar(&vals[off..off + len], &gathered[off..off + len]);
                want += d as f32 * scale;
            }
            off += len;
        }
        for v in Variant::ALL {
            let got = row_block_dots_i8(v, &vals, &gathered, &seg_lens, &scales);
            assert_eq!(got.to_bits(), want.to_bits(), "{v:?}");
        }
    }

    #[test]
    fn quad_row_dots_match_four_single_rows_exactly() {
        // Same segment structure as the single-row test; the quad kernel
        // must be bit-identical to four independent single-row calls on
        // every variant (exact i32 accumulation, identical dequantize
        // order).
        let seg_lens: Vec<u32> = vec![0, 3, 16, 13, 8, 1, 40, 0, 25, 4, 12];
        let n: usize = seg_lens.iter().map(|&l| l as usize).sum();
        let gathered = codes(n, 21);
        let scales: Vec<f32> = (0..seg_lens.len())
            .map(|i| 0.02 + 0.005 * i as f32)
            .collect();
        let rows: Vec<Vec<i8>> = (0..4).map(|i| codes(n, 30 + i)).collect();
        let row_refs = [
            rows[0].as_slice(),
            rows[1].as_slice(),
            rows[2].as_slice(),
            rows[3].as_slice(),
        ];
        for v in Variant::ALL {
            let want: Vec<f32> = rows
                .iter()
                .map(|r| row_block_dots_i8(v, r, &gathered, &seg_lens, &scales))
                .collect();
            let got = row_quad_block_dots_i8(v, row_refs, &gathered, &seg_lens, &scales);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "{v:?}");
            }
        }
        #[cfg(target_arch = "x86_64")]
        {
            if crate::simd::vector_available() {
                let want: Vec<f32> = rows
                    .iter()
                    .map(|r| row_block_dots_i8_scalar(r, &gathered, &seg_lens, &scales))
                    .collect();
                let hw =
                    unsafe { x86::row_quad_block_dots_i8(row_refs, &gathered, &seg_lens, &scales) };
                for (g, w) in hw.iter().zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "direct avx2");
                }
            }
        }
    }

    #[test]
    fn fused_batch_lane_matches_serial_row_dots() {
        // Segment lengths straddle the 8-element weight blocks, the pair
        // step, the zero-padded odd tail and the final-element scalar path.
        let seg_lens: Vec<u32> = vec![0, 3, 16, 13, 8, 1, 40, 0, 25, 9];
        let n: usize = seg_lens.iter().map(|&l| l as usize).sum();
        let vals = codes(n, 11);
        let scales: Vec<f32> = (0..seg_lens.len())
            .map(|i| 0.015 + 0.004 * i as f32)
            .collect();
        for b in [1usize, 5, 7, 8, 9, 16, 24] {
            let gathered = codes(n * b, 12);
            let sxs: Vec<f32> = (0..b).map(|j| 0.02 + 0.001 * j as f32).collect();
            for v in Variant::ALL {
                let mut out = vec![f32::NAN; b];
                row_block_dots_batch_i8(v, &vals, &gathered, b, &seg_lens, &scales, &sxs, &mut out);
                for j in 0..b {
                    let col: Vec<i8> = (0..n).map(|k| gathered[k * b + j]).collect();
                    let want = sxs[j]
                        * row_block_dots_i8(Variant::ScalarU1, &vals, &col, &seg_lens, &scales);
                    assert_eq!(out[j].to_bits(), want.to_bits(), "{v:?} b={b} lane {j}");
                }
            }
        }
    }

    #[test]
    fn fused_quad_batch_matches_four_single_rows_exactly() {
        let seg_lens: Vec<u32> = vec![2, 17, 0, 8, 5, 17, 33, 1];
        let n: usize = seg_lens.iter().map(|&l| l as usize).sum();
        let scales: Vec<f32> = (0..seg_lens.len())
            .map(|i| 0.01 + 0.006 * i as f32)
            .collect();
        let rows: Vec<Vec<i8>> = (0..4).map(|i| codes(n, 40 + i)).collect();
        let row_refs = [
            rows[0].as_slice(),
            rows[1].as_slice(),
            rows[2].as_slice(),
            rows[3].as_slice(),
        ];
        for b in [1usize, 8, 11, 16] {
            let gathered = codes(n * b, 44);
            let sxs: Vec<f32> = (0..b).map(|j| 0.03 + 0.002 * j as f32).collect();
            for v in Variant::ALL {
                let mut got = vec![f32::NAN; 4 * b];
                row_quad_block_dots_batch_i8(
                    v, row_refs, &gathered, b, &seg_lens, &scales, &sxs, &mut got,
                );
                for (i, r) in rows.iter().enumerate() {
                    let mut want = vec![f32::NAN; b];
                    row_block_dots_batch_i8(
                        v, r, &gathered, b, &seg_lens, &scales, &sxs, &mut want,
                    );
                    for j in 0..b {
                        assert_eq!(
                            got[i * b + j].to_bits(),
                            want[j].to_bits(),
                            "{v:?} b={b} row {i} lane {j}"
                        );
                    }
                }
            }
        }
        #[cfg(target_arch = "x86_64")]
        {
            if crate::simd::vector_available() {
                let b = 8usize;
                let gathered = codes(n * b, 44);
                let sxs: Vec<f32> = (0..b).map(|j| 0.03 + 0.002 * j as f32).collect();
                let mut hw = vec![f32::NAN; 4 * b];
                unsafe {
                    x86::row_quad_block_dots_batch_i8(
                        row_refs, &gathered, b, &seg_lens, &scales, &sxs, &mut hw,
                    )
                };
                for (i, r) in rows.iter().enumerate() {
                    let mut want = vec![f32::NAN; b];
                    row_block_dots_batch_i8_scalar(
                        r, &gathered, b, &seg_lens, &scales, &sxs, &mut want, 0,
                    );
                    for j in 0..b {
                        assert_eq!(
                            hw[i * b + j].to_bits(),
                            want[j].to_bits(),
                            "direct avx2 row {i} lane {j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn activation_quantization_contract() {
        let x: Vec<f32> = (0..33).map(|i| ((i as f32) * 0.7).sin() * 2.5).collect();
        let mut q = Vec::new();
        let sx = quantize_activations(&x, &mut q);
        let max_abs = x.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert!((sx - max_abs / 127.0).abs() < 1e-9);
        for (&xi, &qi) in x.iter().zip(&q) {
            assert!((qi as f32 * sx - xi).abs() <= sx * 0.5 + 1e-6);
        }
        // Zero input: safe scale, zero codes.
        let sx = quantize_activations(&[0.0, 0.0], &mut q);
        assert_eq!(sx, 1.0);
        assert_eq!(q, vec![0, 0]);
        // Non-finite values saturate instead of poisoning the codes.
        let sx = quantize_activations(&[1.0, f32::INFINITY, f32::NAN], &mut q);
        assert_eq!(sx, 1.0 / 127.0);
        assert_eq!(q, vec![127, 127, 0]);
    }

    #[test]
    fn lane_quantization_matches_serial_per_column() {
        let rows = 20usize;
        let b = 5usize;
        let xs: Vec<f32> = (0..rows * b)
            .map(|i| ((i as f32) * 0.31).cos() * (1.0 + (i % b) as f32))
            .collect();
        let mut q = Vec::new();
        let mut scales = Vec::new();
        quantize_activations_lanes(&xs, b, &mut q, &mut scales);
        for j in 0..b {
            let col: Vec<f32> = (0..rows).map(|r| xs[r * b + j]).collect();
            let mut qc = Vec::new();
            let s = quantize_activations(&col, &mut qc);
            assert_eq!(scales[j], s, "lane {j} scale");
            let lane: Vec<i8> = (0..rows).map(|r| q[r * b + j]).collect();
            assert_eq!(lane, qc, "lane {j} codes");
        }
    }
}

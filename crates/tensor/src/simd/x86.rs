// ---------------------------------------------------------------------------
// x86_64. The along-row kernels are AVX2+FMA: one accumulator register,
// fixed reduction tree, in-order scalar tail. The dense dot and the indexed
// (gather) dot use the *same* lane grouping so gathered-then-dotted sparse
// rows are bit-identical to in-register gathers — see the module docs. The
// batched bodies and the sweeps are one source over the register (`Reg`),
// entered through one function per width: eight lanes compiled for the
// feature set `detect` checks — `avx2,fma,f16c`, "AVX2+FMA" below — and
// sixteen for that set plus the AVX-512 subsets `detect_wide` checks.
// ---------------------------------------------------------------------------

use std::arch::x86_64::*;

/// Fixed horizontal-sum tree: lanes (0+4, 1+5, 2+6, 3+7) → pairwise →
/// scalar. Every reduction in this module uses this exact tree.
#[inline]
#[target_feature(enable = "avx2,fma,f16c")]
unsafe fn hsum256(v: __m256) -> f32 {
    let hi = _mm256_extractf128_ps::<1>(v);
    let lo = _mm256_castps256_ps128(v);
    let q = _mm_add_ps(lo, hi);
    let h = _mm_add_ps(q, _mm_movehl_ps(q, q));
    let s = _mm_add_ss(h, _mm_shuffle_ps::<0b01>(h, h));
    _mm_cvtss_f32(s)
}

#[target_feature(enable = "avx2,fma,f16c")]
pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let chunks = n / 8;
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut acc = _mm256_setzero_ps();
    for i in 0..chunks {
        let va = _mm256_loadu_ps(ap.add(i * 8));
        let vb = _mm256_loadu_ps(bp.add(i * 8));
        acc = _mm256_fmadd_ps(va, vb, acc);
    }
    let mut sum = hsum256(acc);
    for i in chunks * 8..n {
        sum += a[i] * b[i];
    }
    sum
}

#[target_feature(enable = "avx2,fma,f16c")]
pub unsafe fn indexed_dot(vals: &[f32], idx: &[u32], x: &[f32]) -> f32 {
    let n = vals.len();
    let chunks = n / 8;
    let vp = vals.as_ptr();
    let ip = idx.as_ptr();
    let xp = x.as_ptr();
    let mut acc = _mm256_setzero_ps();
    for i in 0..chunks {
        let w = _mm256_loadu_ps(vp.add(i * 8));
        let ci = _mm256_loadu_si256(ip.add(i * 8) as *const __m256i);
        let g = _mm256_i32gather_ps::<4>(xp, ci);
        acc = _mm256_fmadd_ps(w, g, acc);
    }
    let mut sum = hsum256(acc);
    for i in chunks * 8..n {
        sum += vals[i] * x[idx[i] as usize];
    }
    sum
}

#[target_feature(enable = "avx2,fma,f16c")]
pub unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    let n = x.len();
    let chunks = n / 8;
    let va = _mm256_set1_ps(alpha);
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    for i in 0..chunks {
        let vx = _mm256_loadu_ps(xp.add(i * 8));
        let vy = _mm256_loadu_ps(yp.add(i * 8));
        _mm256_storeu_ps(yp.add(i * 8), _mm256_fmadd_ps(va, vx, vy));
    }
    for i in chunks * 8..n {
        y[i] += alpha * x[i];
    }
}

#[target_feature(enable = "avx2,fma,f16c")]
pub unsafe fn hadamard_into(a: &[f32], b: &[f32], out: &mut [f32]) {
    let n = a.len();
    let chunks = n / 8;
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let op = out.as_mut_ptr();
    for i in 0..chunks {
        let va = _mm256_loadu_ps(ap.add(i * 8));
        let vb = _mm256_loadu_ps(bp.add(i * 8));
        _mm256_storeu_ps(op.add(i * 8), _mm256_mul_ps(va, vb));
    }
    for i in chunks * 8..n {
        out[i] = a[i] * b[i];
    }
}

/// The register a batched body and a sweep hold their lanes in:
/// `__m256` (eight lanes) or `__m512` (sixteen).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Width {
    Ymm,
    Zmm,
}

/// A register of `f32` lanes, what the batched bodies and the sweeps are
/// generic over: `__m256`, eight lanes (AVX2+FMA), or `__m512`, sixteen
/// (AVX-512F/BW/VL/DQ). Each operation is one element-wise instruction
/// with the same IEEE semantics at either width — `max`'s and the
/// compares' NaN cases included —, so a lane carries the same bits in
/// both: a wider register holds more lanes, never more of one lane's
/// work.
///
/// The operations name no feature set (a `#[target_feature]` function is
/// not inlined into one without it): they are inlined into a body that
/// is, one `_ymm` / `_zmm` entry below per register, and the intrinsics
/// they call are inlined there.
///
/// # Safety
///
/// An operation may only run where its register's feature set is
/// available. A pointer must be valid for the lanes it covers — all of
/// them, or those of a [`Reg::first`] mask, whose other lanes are
/// neither read nor written.
pub trait Reg: Copy {
    /// Lanes per register.
    const LANES: usize;
    /// Whether a plane of f16 bits loads under a mask (AVX2 has no
    /// masked halfword load).
    const MASKED_HALVES: bool;
    /// A per-lane predicate: a comparison's result, or a tail's lanes.
    type Mask: Copy;
    /// The register of half the lanes — itself at eight.
    type Half: Reg;
    /// The first `live ≤ LANES` lanes.
    unsafe fn first(live: usize) -> Self::Mask;
    unsafe fn zero() -> Self;
    unsafe fn splat(x: f32) -> Self;
    /// A lane row of `E`s, f16 bits widened as they are loaded (exactly).
    unsafe fn load<E: Lane>(p: *const E) -> Self;
    /// [`Reg::load`] of the lanes of `live`; the others read as zero.
    unsafe fn load_first<E: Lane>(p: *const E, live: Self::Mask) -> Self;
    unsafe fn store(p: *mut f32, v: Self);
    unsafe fn store_first(p: *mut f32, live: Self::Mask, v: Self);
    unsafe fn add(a: Self, b: Self) -> Self;
    unsafe fn sub(a: Self, b: Self) -> Self;
    unsafe fn mul(a: Self, b: Self) -> Self;
    unsafe fn div(a: Self, b: Self) -> Self;
    /// `a · b + c`, rounded once.
    unsafe fn fmadd(a: Self, b: Self, c: Self) -> Self;
    /// `a > b ? a : b`, so `b` where either is NaN.
    unsafe fn max(a: Self, b: Self) -> Self;
    unsafe fn or(a: Self, b: Self) -> Self;
    unsafe fn and(a: Self, b: Self) -> Self;
    /// `!a & b`, bitwise.
    unsafe fn andnot(a: Self, b: Self) -> Self;
    /// `a < b`, false where either is NaN.
    unsafe fn lt(a: Self, b: Self) -> Self::Mask;
    /// `a ≥ b`, false where either is NaN.
    unsafe fn ge(a: Self, b: Self) -> Self::Mask;
    /// Where either is NaN.
    unsafe fn unord(a: Self, b: Self) -> Self::Mask;
    /// `b` in the lanes of `m`, `a` in the others.
    unsafe fn select(m: Self::Mask, a: Self, b: Self) -> Self;
    /// `k`'s bits shifted up 23 plus `1.0`'s: `2ⁿ` for `k = n + ROUND`
    /// (`activations::exp_nonpos`).
    unsafe fn pow2(k: Self) -> Self;
}

impl Reg for __m256 {
    const LANES: usize = 8;
    const MASKED_HALVES: bool = false;
    type Mask = __m256;
    type Half = __m256;
    #[inline(always)]
    unsafe fn first(live: usize) -> __m256 {
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(_mm256_set1_epi32(live as i32), lanes))
    }
    #[inline(always)]
    unsafe fn zero() -> __m256 {
        _mm256_setzero_ps()
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> __m256 {
        _mm256_set1_ps(x)
    }
    #[inline(always)]
    unsafe fn load<E: Lane>(p: *const E) -> __m256 {
        if E::HALF {
            _mm256_cvtph_ps(_mm_loadu_si128(p as *const __m128i))
        } else {
            _mm256_loadu_ps(p as *const f32)
        }
    }
    /// `vmaskmovps` reads the lanes whose mask element has its sign bit
    /// set and zeroes the rest, without accessing their addresses.
    #[inline(always)]
    unsafe fn load_first<E: Lane>(p: *const E, live: __m256) -> __m256 {
        assert!(!E::HALF, "AVX2 has no masked halfword load");
        _mm256_maskload_ps(p as *const f32, _mm256_castps_si256(live))
    }
    #[inline(always)]
    unsafe fn store(p: *mut f32, v: __m256) {
        _mm256_storeu_ps(p, v)
    }
    #[inline(always)]
    unsafe fn store_first(p: *mut f32, live: __m256, v: __m256) {
        _mm256_maskstore_ps(p, _mm256_castps_si256(live), v)
    }
    #[inline(always)]
    unsafe fn add(a: __m256, b: __m256) -> __m256 {
        _mm256_add_ps(a, b)
    }
    #[inline(always)]
    unsafe fn sub(a: __m256, b: __m256) -> __m256 {
        _mm256_sub_ps(a, b)
    }
    #[inline(always)]
    unsafe fn mul(a: __m256, b: __m256) -> __m256 {
        _mm256_mul_ps(a, b)
    }
    #[inline(always)]
    unsafe fn div(a: __m256, b: __m256) -> __m256 {
        _mm256_div_ps(a, b)
    }
    #[inline(always)]
    unsafe fn fmadd(a: __m256, b: __m256, c: __m256) -> __m256 {
        _mm256_fmadd_ps(a, b, c)
    }
    #[inline(always)]
    unsafe fn max(a: __m256, b: __m256) -> __m256 {
        _mm256_max_ps(a, b)
    }
    #[inline(always)]
    unsafe fn or(a: __m256, b: __m256) -> __m256 {
        _mm256_or_ps(a, b)
    }
    #[inline(always)]
    unsafe fn and(a: __m256, b: __m256) -> __m256 {
        _mm256_and_ps(a, b)
    }
    #[inline(always)]
    unsafe fn andnot(a: __m256, b: __m256) -> __m256 {
        _mm256_andnot_ps(a, b)
    }
    #[inline(always)]
    unsafe fn lt(a: __m256, b: __m256) -> __m256 {
        _mm256_cmp_ps::<_CMP_LT_OQ>(a, b)
    }
    #[inline(always)]
    unsafe fn ge(a: __m256, b: __m256) -> __m256 {
        _mm256_cmp_ps::<_CMP_GE_OQ>(a, b)
    }
    #[inline(always)]
    unsafe fn unord(a: __m256, b: __m256) -> __m256 {
        _mm256_cmp_ps::<_CMP_UNORD_Q>(a, b)
    }
    #[inline(always)]
    unsafe fn select(m: __m256, a: __m256, b: __m256) -> __m256 {
        _mm256_blendv_ps(a, b, m)
    }
    #[inline(always)]
    unsafe fn pow2(k: __m256) -> __m256 {
        let one = _mm256_castps_si256(_mm256_set1_ps(1.0));
        let shifted = _mm256_slli_epi32::<23>(_mm256_castps_si256(k));
        _mm256_castsi256_ps(_mm256_add_epi32(shifted, one))
    }
}

impl Reg for __m512 {
    const LANES: usize = 16;
    const MASKED_HALVES: bool = true;
    type Mask = __mmask16;
    type Half = __m256;
    #[inline(always)]
    unsafe fn first(live: usize) -> __mmask16 {
        debug_assert!(live <= 16);
        ((1u32 << live) - 1) as __mmask16
    }
    #[inline(always)]
    unsafe fn zero() -> __m512 {
        _mm512_setzero_ps()
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> __m512 {
        _mm512_set1_ps(x)
    }
    #[inline(always)]
    unsafe fn load<E: Lane>(p: *const E) -> __m512 {
        if E::HALF {
            _mm512_cvtph_ps(_mm256_loadu_si256(p as *const __m256i))
        } else {
            _mm512_loadu_ps(p as *const f32)
        }
    }
    /// A zero-masking load suppresses the masked-off lanes' accesses
    /// (and their faults), halfwords too.
    #[inline(always)]
    unsafe fn load_first<E: Lane>(p: *const E, live: __mmask16) -> __m512 {
        if E::HALF {
            _mm512_cvtph_ps(_mm256_maskz_loadu_epi16(live, p as *const i16))
        } else {
            _mm512_maskz_loadu_ps(live, p as *const f32)
        }
    }
    #[inline(always)]
    unsafe fn store(p: *mut f32, v: __m512) {
        _mm512_storeu_ps(p, v)
    }
    #[inline(always)]
    unsafe fn store_first(p: *mut f32, live: __mmask16, v: __m512) {
        _mm512_mask_storeu_ps(p, live, v)
    }
    #[inline(always)]
    unsafe fn add(a: __m512, b: __m512) -> __m512 {
        _mm512_add_ps(a, b)
    }
    #[inline(always)]
    unsafe fn sub(a: __m512, b: __m512) -> __m512 {
        _mm512_sub_ps(a, b)
    }
    #[inline(always)]
    unsafe fn mul(a: __m512, b: __m512) -> __m512 {
        _mm512_mul_ps(a, b)
    }
    #[inline(always)]
    unsafe fn div(a: __m512, b: __m512) -> __m512 {
        _mm512_div_ps(a, b)
    }
    #[inline(always)]
    unsafe fn fmadd(a: __m512, b: __m512, c: __m512) -> __m512 {
        _mm512_fmadd_ps(a, b, c)
    }
    #[inline(always)]
    unsafe fn max(a: __m512, b: __m512) -> __m512 {
        _mm512_max_ps(a, b)
    }
    #[inline(always)]
    unsafe fn or(a: __m512, b: __m512) -> __m512 {
        _mm512_or_ps(a, b)
    }
    #[inline(always)]
    unsafe fn and(a: __m512, b: __m512) -> __m512 {
        _mm512_and_ps(a, b)
    }
    #[inline(always)]
    unsafe fn andnot(a: __m512, b: __m512) -> __m512 {
        _mm512_andnot_ps(a, b)
    }
    #[inline(always)]
    unsafe fn lt(a: __m512, b: __m512) -> __mmask16 {
        _mm512_cmp_ps_mask::<_CMP_LT_OQ>(a, b)
    }
    #[inline(always)]
    unsafe fn ge(a: __m512, b: __m512) -> __mmask16 {
        _mm512_cmp_ps_mask::<_CMP_GE_OQ>(a, b)
    }
    #[inline(always)]
    unsafe fn unord(a: __m512, b: __m512) -> __mmask16 {
        _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(a, b)
    }
    #[inline(always)]
    unsafe fn select(m: __mmask16, a: __m512, b: __m512) -> __m512 {
        _mm512_mask_blend_ps(m, a, b)
    }
    #[inline(always)]
    unsafe fn pow2(k: __m512) -> __m512 {
        let one = _mm512_castps_si512(_mm512_set1_ps(1.0));
        let shifted = _mm512_slli_epi32::<23>(_mm512_castps_si512(k));
        _mm512_castsi512_ps(_mm512_add_epi32(shifted, one))
    }
}

/// The `hsum256` reduction tree applied element-wise across eight
/// accumulator registers: per batch lane this is exactly the scalar
/// `((a0+a4)+(a2+a6)) + ((a1+a5)+(a3+a7))` that `hsum256` performs on
/// one register's eight k-sublanes.
#[inline(always)]
unsafe fn tree_reduce8<V: Reg>(acc: &[V; 8]) -> V {
    let q0 = V::add(acc[0], acc[4]);
    let q1 = V::add(acc[1], acc[5]);
    let q2 = V::add(acc[2], acc[6]);
    let q3 = V::add(acc[3], acc[7]);
    V::add(V::add(q0, q2), V::add(q1, q3))
}

/// What a lane row is stored as: `f32`, loaded as it is, or raw f16 bits
/// (`u16`), widened by `vcvtph2ps` in the register they are loaded into —
/// exactly, so every lane carries the bits the decoded plane would give.
pub trait Lane: Copy {
    const HALF: bool;
}
impl Lane for f32 {
    const HALF: bool = false;
}
impl Lane for u16 {
    const HALF: bool = true;
}

/// One register tile of a batched dot over `R` rows that share their
/// input: for row `r` and each lane `j` of the `G` adjacent lane groups
/// (a register's `V::LANES` each) at `xp`,
/// `op[r·stride + j] = Σₖ wp[wat(k, r)] · xp[at(k) + j]` over `k < len` in
/// exactly `dot`'s arithmetic — element `k` goes to k-sublane chain
/// `k % 8` by FMA in `k` order, the eight chains meet in the `hsum256`
/// tree, the last `len % 8` elements follow in order as mul+add.
///
/// A chain, not a row, is the unit of order, so a row's eight chains run
/// in `8 / S` passes: pass `p` carries chains `S·p .. S·p + S` of all `R`
/// rows and `G` groups in `R·S·G = 8` live accumulators, loads each lane
/// row once for `R` broadcast weights, broadcasts each weight once for
/// `G` lane rows, and parks its finished chains on the stack until the
/// tree. `(1, 8, 1)` is one row in one pass; `(4, 2, 1)` pays 1.25 loads
/// per FMA where four `(1, 8, 1)` tiles pay 2; `(1, 4, 2)` pays 1.5 and
/// walks the weights once per two lane groups.
///
/// Every operation is element-wise across the register and an
/// accumulator takes one row's weights, so a result depends on its own
/// (row, lane) inputs alone: whatever a masked-off lane computes from its
/// zeros (`∞ · 0` included) or a neighbouring row from a NaN weight stays
/// there, and a masked-off lane is never stored. The register's width
/// changes which lanes share an instruction, never a lane's operations.
///
/// # Safety
///
/// `V`'s feature set must be available, `R·S·G == 8`, `wp` must be
/// readable at `wat(k, r)` for every `k < len` and `r < R`, and the lanes
/// this tile covers — `V::LANES·G`, or the first `live < V::LANES` when
/// `MASKED` (then `G == 1`, and the lanes are `f32` unless
/// `V::MASKED_HALVES`) — must be readable at `xp + at(k)` and writable at
/// `op + r·stride`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn rows_tile<
    V: Reg,
    const MASKED: bool,
    const R: usize,
    const S: usize,
    const G: usize,
    E: Lane,
>(
    len: usize,
    wp: *const f32,
    wat: &impl Fn(usize, usize) -> usize,
    at: &impl Fn(usize) -> usize,
    xp: *const E,
    live: usize,
    op: *mut f32,
    stride: usize,
) {
    let mask = V::first(live);
    // SAFETY: the caller vouches for the covered lanes of every row.
    let load = |k: usize, g: usize| unsafe {
        let p = xp.add(at(k) + V::LANES * g);
        if MASKED {
            V::load_first(p, mask)
        } else {
            V::load(p)
        }
    };
    // SAFETY: the caller vouches for `wat(k, r)` at every `k < len`.
    let w = |k: usize, r: usize| unsafe { V::splat(*wp.add(wat(k, r))) };
    let chunks = len / 8;
    let mut chains = [[[V::zero(); 8]; G]; R];
    for p in 0..8 / S {
        let mut acc = [[[V::zero(); G]; S]; R];
        for i in 0..chunks {
            for s in 0..S {
                let k = i * 8 + p * S + s;
                let x: [V; G] = std::array::from_fn(|g| load(k, g));
                for (r, row) in acc.iter_mut().enumerate() {
                    let w = w(k, r);
                    for (a, &x) in row[s].iter_mut().zip(&x) {
                        *a = V::fmadd(w, x, *a);
                    }
                }
            }
        }
        for (parked, row) in chains.iter_mut().zip(&acc) {
            for (s, groups) in row.iter().enumerate() {
                for (chain, &a) in parked.iter_mut().zip(groups) {
                    chain[p * S + s] = a;
                }
            }
        }
    }
    let mut sums = [[V::zero(); G]; R];
    for (row, parked) in sums.iter_mut().zip(&chains) {
        for (s, chain) in row.iter_mut().zip(parked) {
            *s = tree_reduce8(chain);
        }
    }
    for k in chunks * 8..len {
        let x: [V; G] = std::array::from_fn(|g| load(k, g));
        for (r, row) in sums.iter_mut().enumerate() {
            let w = w(k, r);
            for (s, &x) in row.iter_mut().zip(&x) {
                *s = V::add(*s, V::mul(w, x));
            }
        }
    }
    for (r, row) in sums.iter().enumerate() {
        for (g, &s) in row.iter().enumerate() {
            let p = op.add(r * stride + V::LANES * g);
            if MASKED {
                V::store_first(p, mask, s);
            } else {
                V::store(p, s);
            }
        }
    }
}

/// `out[r·stride + j] = Σₖ w[wat(k, r)] · xs[at(k) + j]` over `k < len`
/// for `R` rows and the lanes `from..b`: full tiles of a register each, then
/// the lanes left over as one tile (`last_lanes`) — in the register of
/// half the lanes when they fit it: a sixteen-lane row of eight live
/// lanes costs more than an eight-lane one (1.13–1.27× at `b ≤ 8`, 1024²,
/// 10×) — unless they are a half plane narrower than that register, which
/// only a mask can load. The weight address is taken the way the lane
/// address is — through the caller's map — so a row may sit contiguous,
/// or strided inside a lane-major tile.
///
/// # Safety
///
/// `V`'s feature set must be available, `R·S == 8`, `from <= b` — and
/// `V::LANES <= b` for a half plane unless `V::MASKED_HALVES` —,
/// `b <= stride`, `out` must hold `(R - 1)·stride + b` elements, `wat`
/// must not decrease in either argument
/// and `wat(len - 1, R - 1)` must be inside `w`, and for every `k < len`,
/// `xs[at(k)..at(k) + b]` must be in bounds.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn rows_lanes<V: Reg, const R: usize, const S: usize, E: Lane>(
    len: usize,
    w: &[f32],
    wat: impl Fn(usize, usize) -> usize,
    at: impl Fn(usize) -> usize,
    xs: &[E],
    b: usize,
    from: usize,
    out: &mut [f32],
    stride: usize,
) {
    // The weights are read unchecked (an index check per broadcast cost
    // the 1024², 10× SpMM 1.2–1.5× at 12–32 lanes); the one address that
    // bounds them all is checked here, once per row block.
    debug_assert!(R * S == 8 && from <= b && b <= stride);
    debug_assert!(out.len() >= (R - 1) * stride + b);
    debug_assert!(!E::HALF || V::MASKED_HALVES || b >= V::LANES);
    debug_assert!(len == 0 || wat(len - 1, R - 1) < w.len());
    let (wp, xp, op) = (w.as_ptr(), xs.as_ptr(), out.as_mut_ptr());
    let (n, h) = (V::LANES, V::Half::LANES);
    let jb = b - (b - from) % n;
    // SAFETY: lanes `j0..j0 + n ≤ b` lie inside `xs[at(k)..at(k) + b]`
    // and inside each row of `out`.
    for j0 in (from..jb).step_by(n) {
        let o = op.add(j0);
        rows_tile::<V, false, R, S, 1, E>(len, wp, &wat, &at, xp.add(j0), n, o, stride);
    }
    let fits_half = h < n && b - jb <= h && (!E::HALF || V::Half::MASKED_HALVES || b >= h);
    if jb < b && fits_half {
        last_lanes::<V::Half, R, S, E>(len, wp, &wat, &at, xp, b, jb, op, stride);
    } else if jb < b {
        last_lanes::<V, R, S, E>(len, wp, &wat, &at, xp, b, jb, op, stride);
    }
}

/// The lanes `jb..b` of `rows_lanes`, at most a register of them, as one
/// tile: a full one, a masked one — *a partial lane group is a masked
/// tile, never a scalar lane loop* — or, in a half plane of a register
/// that cannot load halfwords under a mask (AVX2), the full tile that
/// *ends* at lane `b`: the lanes it shares with the tile before it are
/// computed twice, to the same bits. (Putting a group together from its
/// live halves, through the stack or in registers, cost 2–10× the tile
/// on 3- to 12-row tiles.)
///
/// # Safety
///
/// As `rows_lanes`, with `b - jb <= V::LANES`, and `V::LANES <= b` for a
/// half plane unless `V::MASKED_HALVES`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn last_lanes<V: Reg, const R: usize, const S: usize, E: Lane>(
    len: usize,
    wp: *const f32,
    wat: &impl Fn(usize, usize) -> usize,
    at: &impl Fn(usize) -> usize,
    xp: *const E,
    b: usize,
    jb: usize,
    op: *mut f32,
    stride: usize,
) {
    let n = V::LANES;
    // SAFETY (all tiles): lanes `jb..b` of the masked tile and the
    // `n ≤ b` lanes of a full one that ends at `b` lie inside
    // `xs[at(k)..at(k) + b]` and inside each row of `out`; the masked
    // tile touches nothing beyond lane `b`.
    if b - jb == n {
        let (x, o) = (xp.add(jb), op.add(jb));
        rows_tile::<V, false, R, S, 1, E>(len, wp, wat, at, x, n, o, stride);
    } else if E::HALF && !V::MASKED_HALVES {
        let (x, o) = (xp.add(b - n), op.add(b - n));
        rows_tile::<V, false, R, S, 1, E>(len, wp, wat, at, x, n, o, stride);
    } else {
        let (x, o) = (xp.add(jb), op.add(jb));
        rows_tile::<V, true, R, S, 1, E>(len, wp, wat, at, x, b - jb, o, stride);
    }
}

/// Batched dense dot: lane `j` of `out` is bit-identical to `dot` of
/// `a` with column `j` of the lane-major `xs` plane — f32, or raw f16
/// bits widened as they are loaded. Pairs of full lane groups share each
/// broadcast element of `a` (the `(1, 4, 2)` tile); the lanes left over
/// are one-group tiles.
///
/// # Safety
///
/// `w`'s feature set must be available, `xs.len() == a.len() * b`,
/// `out.len() == b`, and `b >= 8` for a half plane in [`Width::Ymm`].
pub unsafe fn dot_batch<E: Lane>(w: Width, a: &[f32], xs: &[E], b: usize, out: &mut [f32]) {
    match w {
        Width::Ymm => dot_batch_ymm(a, xs, b, out),
        Width::Zmm => dot_batch_zmm(a, xs, b, out),
    }
}

#[target_feature(enable = "avx2,fma,f16c")]
unsafe fn dot_batch_ymm<E: Lane>(a: &[f32], xs: &[E], b: usize, out: &mut [f32]) {
    dot_batch_in::<__m256, E>(a, xs, b, out)
}

#[target_feature(enable = "avx2,fma,f16c,avx512f,avx512bw,avx512vl,avx512dq")]
unsafe fn dot_batch_zmm<E: Lane>(a: &[f32], xs: &[E], b: usize, out: &mut [f32]) {
    dot_batch_in::<__m512, E>(a, xs, b, out)
}

#[inline(always)]
unsafe fn dot_batch_in<V: Reg, E: Lane>(a: &[f32], xs: &[E], b: usize, out: &mut [f32]) {
    let (wat, at) = (|k: usize, _| k, |k: usize| k * b);
    let (ap, xp, op) = (a.as_ptr(), xs.as_ptr(), out.as_mut_ptr());
    let pair = 2 * V::LANES;
    let paired = b - b % pair;
    // SAFETY: lanes `j0..j0 + pair ≤ b` lie inside every row of `xs` and
    // inside `out`, and `wat(k, 0) = k < a.len()`.
    for j0 in (0..paired).step_by(pair) {
        rows_tile::<V, false, 1, 4, 2, E>(
            a.len(),
            ap,
            &wat,
            &at,
            xp.add(j0),
            V::LANES,
            op.add(j0),
            b,
        );
    }
    rows_lanes::<V, 1, 8, E>(a.len(), a, wat, at, xs, b, paired, out, b)
}

/// Batched indexed dot: lane `j` of `out` is bit-identical to
/// `indexed_dot` against column `j` of the lane-major `xs` buffer. One
/// index walk feeds all lanes of a tile; the loads across the batch
/// dimension are unit-stride (no gathers). Rows with their own column
/// lists share no loaded lane row, so a row is its own `(1, 8)` tile.
///
/// # Safety
///
/// AVX2+FMA must be available, `idx.len() == vals.len()`, every index
/// must be below `xs.len() / b`, and `out.len() == b`.
#[target_feature(enable = "avx2,fma,f16c")]
pub unsafe fn indexed_dot_batch(vals: &[f32], idx: &[u32], xs: &[f32], b: usize, out: &mut [f32]) {
    let at = |k: usize| idx[k] as usize * b;
    rows_lanes::<__m256, 1, 8, f32>(vals.len(), vals, |k, _| k, at, xs, b, 0, out, b)
}

/// `m` rows of `xs.len() / b` elements against the lane-major input they
/// share, element `k` of row `j` at `w[wat(k, j)]` (`k·m + j` in a
/// lane-major tile, `j·len + k` row-major): row `j`, lane `l` of `out` is
/// bit-identical to `dot` of row `j` with column `l` of `xs`. Four rows
/// at a time share each loaded lane row; the `m % 4` rows left over are
/// one-row tiles.
///
/// # Safety
///
/// `width`'s feature set must be available, `b > 0`, `out.len() == m * b`,
/// `wat` must not decrease in either argument and
/// `wat(xs.len() / b - 1, m - 1)` must be inside `w`.
pub unsafe fn tile_dots(
    width: Width,
    w: &[f32],
    wat: impl Fn(usize, usize) -> usize,
    xs: &[f32],
    b: usize,
    out: &mut [f32],
) {
    match width {
        Width::Ymm => tile_dots_ymm(w, wat, xs, b, out),
        Width::Zmm => tile_dots_zmm(w, wat, xs, b, out),
    }
}

#[target_feature(enable = "avx2,fma,f16c")]
unsafe fn tile_dots_ymm(
    w: &[f32],
    wat: impl Fn(usize, usize) -> usize,
    xs: &[f32],
    b: usize,
    out: &mut [f32],
) {
    tile_dots_in::<__m256>(w, wat, xs, b, out)
}

#[target_feature(enable = "avx2,fma,f16c,avx512f,avx512bw,avx512vl,avx512dq")]
unsafe fn tile_dots_zmm(
    w: &[f32],
    wat: impl Fn(usize, usize) -> usize,
    xs: &[f32],
    b: usize,
    out: &mut [f32],
) {
    tile_dots_in::<__m512>(w, wat, xs, b, out)
}

#[inline(always)]
unsafe fn tile_dots_in<V: Reg>(
    w: &[f32],
    wat: impl Fn(usize, usize) -> usize,
    xs: &[f32],
    b: usize,
    out: &mut [f32],
) {
    let len = xs.len() / b;
    let mut quads = out.chunks_exact_mut(4 * b);
    let mut j = 0;
    for quad in &mut quads {
        let wat = |k, r| wat(k, j + r);
        rows_lanes::<V, 4, 2, f32>(len, w, wat, |k| k * b, xs, b, 0, quad, b);
        j += 4;
    }
    for lanes in quads.into_remainder().chunks_exact_mut(b) {
        rows_lanes::<V, 1, 8, f32>(len, w, |k, _| wat(k, j), |k| k * b, xs, b, 0, lanes, b);
        j += 1;
    }
}

/// `frames` inputs of `len` elements, frame after frame in `xs`, against
/// one lane plane of `m` lanes (`tile[k·m + j]`, `f32` or f16 bits), in
/// sixteen-lane registers: `out[t·stride + j] = Σₖ xs[t·len + k] ·
/// tile[k·m + j]`, frame `t` bit-identical to `dot_batch(_, frame t, tile,
/// m, ..)`, the one-frame body (at either width). Four frames at a time are
/// the broadcast rows `R` of one `(4, 2, 1)` register tile — a 16-row tile
/// is one register —, so each loaded lane row, each widened half, meets
/// four frames' elements. The `frames % 4` left over run the sixteen-lane
/// one-frame body, which runs a tile of at most eight rows in the eight-lane
/// register (as `rows_lanes` runs such a tail).
///
/// # Safety
///
/// The sixteen-lane feature set must be available, `m > 0`,
/// `tile.len() == len·m`, `xs.len() == frames·len`, `m <= stride`, and
/// `out` must hold `(frames - 1)·stride + m` elements when `frames > 0`.
#[target_feature(enable = "avx2,fma,f16c,avx512f,avx512bw,avx512vl,avx512dq")]
pub unsafe fn tile_frames_zmm<E: Lane>(
    xs: &[f32],
    frames: usize,
    tile: &[E],
    m: usize,
    out: &mut [f32],
    stride: usize,
) {
    let len = tile.len() / m;
    let (wat, at) = (|k: usize, r: usize| r * len + k, |k: usize| k * m);
    let quads = frames - frames % 4;
    for t0 in (0..quads).step_by(4) {
        let (w, o) = (&xs[t0 * len..(t0 + 4) * len], &mut out[t0 * stride..]);
        rows_lanes::<__m512, 4, 2, E>(len, w, wat, at, tile, m, 0, o, stride);
    }
    for t in quads..frames {
        let (x, o) = (
            &xs[t * len..(t + 1) * len],
            &mut out[t * stride..t * stride + m],
        );
        dot_batch_in::<__m512, E>(x, tile, m, o);
    }
}

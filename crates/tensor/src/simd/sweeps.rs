// ---------------------------------------------------------------------------
// x86_64 activation sweeps: `activations::{sigmoid, tanh}` replayed a
// register of lanes at a time over `x86::Reg`, entered through one function
// per width like the batched bodies (eight lanes for `avx2,fma,f16c`, sixteen
// for that set plus the AVX-512 subsets).
// ---------------------------------------------------------------------------

use super::x86::{Reg, Width};
use crate::activations::coef::*;
use std::arch::x86_64::*;

/// `activations::exp_nonpos` per lane: the same operations in the same
/// order, multiplies and adds kept apart (no FMA), so each lane carries
/// the scalar function's bits.
#[inline(always)]
unsafe fn exp_nonpos<V: Reg>(t: V) -> V {
    let round = V::splat(ROUND);
    // `max(a, b)` is `a > b ? a : b`: the scalar select, NaN included.
    let c = V::max(V::splat(EXP_CLAMP), t);
    let k = V::add(V::mul(c, V::splat(LOG2_E)), round);
    let n = V::sub(k, round);
    let r = V::sub(
        V::sub(c, V::mul(n, V::splat(LN2_HI))),
        V::mul(n, V::splat(LN2_LO)),
    );
    let mut p = V::splat(EXP_P[0]);
    for &q in &EXP_P[1..] {
        p = V::add(V::mul(p, r), V::splat(q));
    }
    let e = V::add(V::add(V::mul(p, V::mul(r, r)), r), V::splat(1.0));
    let zero = V::lt(t, V::splat(EXP_ZERO));
    V::select(zero, V::mul(e, V::pow2(k)), V::zero())
}

/// `activations::sigmoid` per lane.
#[inline(always)]
unsafe fn sigmoid_lanes<V: Reg>(x: V) -> V {
    let one = V::splat(1.0);
    let e = exp_nonpos(V::or(x, V::splat(-0.0)));
    let nonneg = V::ge(x, V::zero());
    let y = V::div(V::select(nonneg, e, one), V::add(one, e));
    V::select(V::unord(x, x), y, x)
}

/// `activations::tanh` per lane; both branches are computed and the
/// lane's own is selected.
#[inline(always)]
unsafe fn tanh_lanes<V: Reg>(x: V) -> V {
    let sign = V::splat(-0.0);
    let one = V::splat(1.0);
    let a = V::andnot(sign, x);
    let z = V::mul(a, a);
    let mut p = V::splat(TANH_P[0]);
    for &q in &TANH_P[1..] {
        p = V::add(V::mul(p, z), V::splat(q));
    }
    let small = V::add(V::mul(V::mul(p, z), a), a);
    let e = exp_nonpos(V::mul(V::splat(-2.0), a));
    let large = V::div(V::sub(one, e), V::add(one, e));
    let is_small = V::lt(a, V::splat(TANH_SMALL));
    let y = V::or(V::select(is_small, large, small), V::and(sign, x));
    V::select(V::unord(x, x), y, x)
}

/// In-place sweep of `activations::sigmoid` (or `tanh` when `TANH`): a
/// register of elements per step through the lane body, the last
/// `len % LANES` as one masked register.
///
/// # Safety
///
/// `w`'s feature set must be available.
pub unsafe fn activation_sweep<const TANH: bool>(w: Width, xs: &mut [f32]) {
    match w {
        Width::Ymm => activation_sweep_ymm::<TANH>(xs),
        Width::Zmm => activation_sweep_zmm::<TANH>(xs),
    }
}

#[target_feature(enable = "avx2,fma,f16c")]
unsafe fn activation_sweep_ymm<const TANH: bool>(xs: &mut [f32]) {
    activation_sweep_in::<__m256, TANH>(xs)
}

#[target_feature(enable = "avx2,fma,f16c,avx512f,avx512bw,avx512vl,avx512dq")]
unsafe fn activation_sweep_zmm<const TANH: bool>(xs: &mut [f32]) {
    activation_sweep_in::<__m512, TANH>(xs)
}

#[inline(always)]
unsafe fn activation_sweep_in<V: Reg, const TANH: bool>(xs: &mut [f32]) {
    let lanes = |x: V| unsafe {
        if TANH {
            tanh_lanes(x)
        } else {
            sigmoid_lanes(x)
        }
    };
    let mut chunks = xs.chunks_exact_mut(V::LANES);
    for c in &mut chunks {
        // A chunk is exactly one register.
        V::store(c.as_mut_ptr(), lanes(V::load(c.as_ptr())));
    }
    let rest = chunks.into_remainder();
    if !rest.is_empty() {
        // Lanes past the slice are neither read nor written.
        let live = V::first(rest.len());
        V::store_first(
            rest.as_mut_ptr(),
            live,
            lanes(V::load_first(rest.as_ptr(), live)),
        );
    }
}

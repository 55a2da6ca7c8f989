//! SIMD kernel layer with runtime CPU-feature dispatch (paper §IV-C).
//!
//! RTMobile's compiler generates "vectorized codes with the best checked
//! unroll factor"; this module is the executable half of that claim. Every
//! hot inner loop of the inference stack — `dot`, `axpy`, `hadamard`, the
//! indexed dot of the CSR/BSPC SpMV, and the sigmoid/tanh activation
//! sweeps — has exactly two **realizations**, and nothing in between:
//!
//! | variant     | realization                                       | numeric contract           |
//! |-------------|---------------------------------------------------|----------------------------|
//! | `scalar-u1` | the naive loop — the scalar definition            | bit-exact reference        |
//! | `vector`    | AVX2+FMA, batches in AVX-512 registers (x86_64) / NEON (aarch64) | ≤ 4 ULPs of u1 (see below) |
//!
//! The scalar definition is what the bit-identity and ULP contracts are
//! stated against (one accumulator, left-to-right association); the vector
//! body is what production runs. It uses one 8-lane (AVX2) / 4-lane (NEON)
//! FMA accumulator register plus a fixed-tree horizontal reduction, which
//! reassociates the sum and contracts multiply-adds. There is no unrolled
//! scalar middle: one accumulator is one dependency chain, so an unroll buys
//! nothing, and a hand-unrolled `axpy` keeps the compiler from vectorising
//! what it vectorises in the naive loop.
//!
//! **ULP policy.** Reductions are compared at the *accumulation magnitude*:
//! `|vector − scalar| ≤ 4 · ulp(Σ|aᵢ·bᵢ|)`. Measuring ULPs at the result
//! magnitude is meaningless under cancellation (the result can be
//! arbitrarily smaller than the terms), and for sign-uniform data the
//! sequential scalar reference itself drifts tens of ULPs from the true
//! sum — the accumulation-magnitude bound is the tightest contract that is
//! actually sound. Element-wise kernels (`hadamard`, the activation sweeps)
//! are bit-exact in every variant: such a kernel is *defined* by a scalar
//! sequence of IEEE-exact operations and its vector body runs the same
//! sequence per lane — for the sweeps `activations::{sigmoid, tanh}`, no
//! libm call and no FMA, compared on all 2³² inputs. `axpy` differs from
//! scalar by at most one FMA contraction per element.
//!
//! **Order discipline.** The vector dense dot and the vector indexed dot
//! share the same lane grouping (consecutive chunks of one lane width, one
//! accumulator register, identical reduction tree, in-order scalar tail),
//! so gathering a sparse row into a dense scratch and dotting it — the
//! BSPC row kernel — produces bit-identical results to the in-register
//! gather of the CSR row kernel, under every [`SimdPolicy`].
//!
//! **Batched lanes.** The SpMM kernels ([`dot_batch`], [`indexed_dot_batch`])
//! take `b` interleaved input streams (element `c` of lane `j` at
//! `xs[c·b + j]`) and walk the row's values/indices once for all of them.
//! Their contract is stronger than the 4-ULP reduction bound: lane `j` of a
//! batched kernel is *bit-identical* to the single-vector kernel of the same
//! variant applied to column `j`, because the batch realizations replay the
//! serial kernels' accumulator layout and reduction tree per lane. That is
//! what lets the batched inference path claim exact equivalence with `b`
//! serial runs — and what makes the batched entry points *total in `b`*:
//! the batch realizations put the vector across lanes, where one lane would
//! fill an eighth of a register, so at `b == 1` they run the single-vector
//! kernel (vector along the row) instead, the same bits by the contract.
//! The choice between the two realizations is made here, from `b`, once per
//! primitive; no caller forks on it.
//!
//! The lanes need not be input streams. [`tile_dots_variant`] takes `m` rows
//! that share one input, stored lane-major (`tile[k·m + j]`), and at one
//! input stream makes the *rows* the lanes: the shared input plays the row,
//! and up to eight short rows fill one register tile — no per-row call,
//! horizontal sum or scalar tail. *A sparse row is never a call: rows that
//! share a column stream are lanes of one register tile.* AVX2 body only
//! ([`tile_dots_available`]); other variants de-tile a row and call
//! [`dot_batch_variant`]. Two adjacent lane groups share each broadcast
//! element of the input, so a sixteen-row tile walks it once.
//!
//! The lane plane need not be `f32` either. [`tile_dots_f16_variant`] takes
//! the tile as raw f16 bits, and *an f16 value is widened where it is loaded
//! as a lane row, never stored widened for the body that consumes it; where
//! it is a broadcast operand it is decoded once per tile* (into the caller's
//! window, a cost the lanes amortise). The widening is exact, so the bits
//! are those of the decoded tile either way.
//!
//! At `b ≥ 2` streams the batch lanes stay the lanes and rows that share
//! their input share its loads: four rows run through one register tile,
//! every loaded lane row meeting four broadcast weights — the tile's rows,
//! or row-major ones ([`row_major_dots_variant`], the dense head). Eight
//! accumulators cannot hold four rows' eight chains each, so the tile takes
//! two chains of each row per pass. *A sublane chain, not a row, is the unit
//! of order: the chains of a row may run in separate passes, a chain's
//! elements only in `k` order* — the bits stay `dot`'s per (row, lane). The
//! one x86 tile body is parameterised by `(R rows, S chains, G lane groups)`
//! with `R·S·G = 8` accumulators, times the lane element and the register:
//! `(4, 2, 1)` here, `(1, 4, 2)` for pairs of lane groups under one
//! broadcast, `(1, 8, 1)` for what either leaves over.
//!
//! **Register width.** The batched bodies and the sigmoid / tanh sweeps are
//! one source over the register: eight lanes in `__m256` (AVX2+FMA), or
//! sixteen in `__m512` where the host also has AVX-512F/BW/VL/DQ (detected
//! once; [`lane_width`] reports it). *A wider register holds more lanes —
//! streams, rows or elements —, never more chains*: each lane keeps its
//! eight k-sublane chains, the `hsum256` tree and the in-order tail, so
//! every output bit is the same at either width, and [`vector_isa`] still
//! names the arithmetic, `"avx2+fma"`. Every `b ≥ 2` body runs sixteen lanes
//! per register (1024², 10× SpMM: 0.6× the eight-lane time at `b ∈ {12, 16,
//! 32}`); the one-stream row tiles stay at eight, where sixteen-lane rows
//! have shown no end-to-end gain, and so do the along-row kernels.
//!
//! **Lane tails.** The `b % 8` lanes after the last full group of eight on
//! AVX2 are one more register tile, loaded with `vmaskmovps` and stored
//! through the same mask: *a partial lane group is a masked tile, never a
//! scalar lane loop*. The masked tile runs the accumulators, the tree and
//! the tail of a full tile, so its live lanes carry the same bits and any
//! `b ≥ 2` costs what its `⌈b / 8⌉` tiles cost — continuous batching rarely
//! holds a multiple of eight lanes. It is safe at the end of the buffer:
//! lanes `jb..b` of row `k` lie inside `xs[k·b .. (k+1)·b]`, and masked-off
//! lanes are not accessed — neither read nor written. (The NEON kernels
//! still replay their `b % 4` tail lanes in scalar code.) A plane of f16
//! bits has no masked load on AVX2; its last lanes are the *full* tile that
//! ends at lane `b`, which recomputes the lanes it shares with the tile
//! before it to the same bits. The sixteen-lane register masks with a
//! k-mask and loads halves under it natively (`vmovdqu16`, then
//! `vcvtph2ps`); its last `b % 16` lanes run in the eight-lane register
//! when they fit it (a sixteen-lane row of eight live lanes cost 1.13–1.27×
//! an eight-lane one), so `b ≤ 8` runs the eight-lane tile.
//!
//! Dispatch is process-global: [`active_variant`] resolves the
//! [`SimdPolicy`] (programmatic [`set_policy`] wins over the `RTM_SIMD`
//! environment variable, which is read once on first use) against the
//! cached CPU-feature detection. The `*_variant` entry points bypass the
//! policy for differential tests and the benchmark harness.

use crate::activations::{sigmoid, tanh};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A concrete kernel realization the dispatcher can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The naive loop — the scalar definition, the bit-exact reference.
    ScalarU1,
    /// AVX2+FMA on x86_64 / NEON on aarch64 (≤ 4-ULP contract).
    Vector,
}

impl Variant {
    /// Both variants, scalar first (useful for sweeps and benches).
    pub const ALL: [Variant; 2] = [Variant::ScalarU1, Variant::Vector];

    /// Stable display name (used in plans, benches and JSON artifacts).
    pub fn name(self) -> &'static str {
        match self {
            Variant::ScalarU1 => "scalar-u1",
            Variant::Vector => "vector",
        }
    }
}

/// How the process-global dispatcher picks a [`Variant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPolicy {
    /// Use the vector path when the CPU supports it, the scalar definition
    /// otherwise.
    Auto,
    /// Always use the given variant ([`Variant::Vector`] still resolves to
    /// the scalar definition on CPUs without AVX2+FMA / NEON).
    Fixed(Variant),
}

const P_UNSET: u8 = 0;
const P_AUTO: u8 = 1;
const P_U1: u8 = 2;
const P_VEC: u8 = 3;

static POLICY: AtomicU8 = AtomicU8::new(P_UNSET);

fn encode(p: SimdPolicy) -> u8 {
    match p {
        SimdPolicy::Auto => P_AUTO,
        SimdPolicy::Fixed(Variant::ScalarU1) => P_U1,
        SimdPolicy::Fixed(Variant::Vector) => P_VEC,
    }
}

fn decode(v: u8) -> SimdPolicy {
    match v {
        P_U1 => SimdPolicy::Fixed(Variant::ScalarU1),
        P_VEC => SimdPolicy::Fixed(Variant::Vector),
        _ => SimdPolicy::Auto,
    }
}

/// Parses an `RTM_SIMD` value (or a `--simd` CLI flag). Recognized:
/// `auto`/`on`, `off`/`scalar`/`0`/`u1`, `vector`/`simd`
/// (case-insensitive). Returns `None` for anything else.
pub fn parse_policy(s: &str) -> Option<SimdPolicy> {
    match s.trim().to_ascii_lowercase().as_str() {
        "auto" | "on" | "" => Some(SimdPolicy::Auto),
        "off" | "scalar" | "0" | "u1" | "scalar-u1" => Some(SimdPolicy::Fixed(Variant::ScalarU1)),
        "vector" | "simd" => Some(SimdPolicy::Fixed(Variant::Vector)),
        _ => None,
    }
}

/// Overrides the process-global dispatch policy (wins over `RTM_SIMD`).
pub fn set_policy(p: SimdPolicy) {
    POLICY.store(encode(p), Ordering::Relaxed);
}

/// The current dispatch policy. On first use (before any [`set_policy`])
/// the `RTM_SIMD` environment variable is consulted; unset or unparseable
/// values — a stale `u4` / `u8`, which name no variant, included — mean
/// [`SimdPolicy::Auto`]. This read is lenient; the `rtm` binary's
/// `RuntimeConfig::from_env` rejects the same value with the grammar.
pub fn policy() -> SimdPolicy {
    let v = POLICY.load(Ordering::Relaxed);
    if v != P_UNSET {
        return decode(v);
    }
    let p = rtm_trace::env::raw("RTM_SIMD")
        .as_deref()
        .and_then(parse_policy)
        .unwrap_or(SimdPolicy::Auto);
    let _ = POLICY.compare_exchange(P_UNSET, encode(p), Ordering::Relaxed, Ordering::Relaxed);
    decode(POLICY.load(Ordering::Relaxed))
}

/// The variant the dispatched entry points (`dot`, `axpy`, …) will run
/// right now, after resolving [`policy`] against CPU support.
///
/// When tracing is enabled, every resolution bumps the per-variant
/// dispatch counter named by [`dispatch_key`] — each kernel call resolves
/// the variant exactly once (hoisted out of its row loop), so the counters
/// count dispatched kernel calls per realization.
pub fn active_variant() -> Variant {
    let v = match policy() {
        SimdPolicy::Auto | SimdPolicy::Fixed(Variant::Vector) => {
            if vector_available() {
                Variant::Vector
            } else {
                Variant::ScalarU1
            }
        }
        SimdPolicy::Fixed(v) => v,
    };
    if rtm_trace::enabled() {
        rtm_trace::global().counter_add(dispatch_key(v), 1);
    }
    v
}

/// The registry counter a dispatch of `v` increments:
/// `simd.dispatch.<variant-name>`.
pub fn dispatch_key(v: Variant) -> &'static str {
    match v {
        Variant::ScalarU1 => "simd.dispatch.scalar-u1",
        Variant::Vector => "simd.dispatch.vector",
    }
}

// The x86 bodies are compiled for one feature set, so the f16 lane load
// inlines into the tile that consumes it. Every AVX2+FMA part has F16C; a
// host without it would take the scalar definition.
#[cfg(target_arch = "x86_64")]
fn detect() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("fma")
        && std::arch::is_x86_feature_detected!("f16c")
}

#[cfg(target_arch = "aarch64")]
fn detect() -> bool {
    std::arch::is_aarch64_feature_detected!("neon")
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn detect() -> bool {
    false
}

// The sixteen-lane x86 bodies are compiled for AVX2+FMA plus the AVX-512
// subsets they use: F (the 512-bit arithmetic and k-masks), BW + VL (the
// masked halfword load of an f16 lane tail), DQ (the bitwise float ops of
// the sweeps).
#[cfg(target_arch = "x86_64")]
fn detect_wide() -> bool {
    detect()
        && std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512bw")
        && std::arch::is_x86_feature_detected!("avx512vl")
        && std::arch::is_x86_feature_detected!("avx512dq")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_wide() -> bool {
    false
}

/// Whether the host CPU supports this build's vector path (AVX2+FMA with
/// F16C on x86_64, NEON on aarch64). Detection runs once and is cached.
pub fn vector_available() -> bool {
    static AVAIL: OnceLock<bool> = OnceLock::new();
    *AVAIL.get_or_init(detect)
}

/// Whether the batched bodies and the sweeps hold sixteen lanes per
/// register here: x86_64 with AVX-512F/BW/VL/DQ on top of the vector path.
/// Detection runs once and is cached.
fn wide_available() -> bool {
    static WIDE: OnceLock<bool> = OnceLock::new();
    *WIDE.get_or_init(detect_wide)
}

/// The register the x86 batched bodies and sweeps run in on this host.
#[cfg(target_arch = "x86_64")]
fn width() -> x86::Width {
    if wide_available() {
        x86::Width::Zmm
    } else {
        x86::Width::Ymm
    }
}

/// SIMD lanes per register of the vector path's batched bodies and sweeps:
/// 16 on AVX-512F/BW/VL/DQ, 8 on AVX2, 4 on NEON, 1 when no vector path is
/// available. (The along-row kernels and the one-stream row tiles are eight
/// lanes wide on every x86 host.)
pub fn lane_width() -> usize {
    if !vector_available() {
        1
    } else if wide_available() {
        16
    } else if cfg!(target_arch = "x86_64") {
        8
    } else {
        4
    }
}

/// Human-readable name of the detected vector ISA (`"avx2+fma"`, `"neon"`
/// or `"none"`), recorded by the benchmark JSON. An AVX-512 host reports
/// `"avx2+fma"` too: it names the arithmetic, which the sixteen-lane bodies
/// reproduce bit for bit; [`lane_width`] tells the widths apart.
pub fn vector_isa() -> &'static str {
    if !vector_available() {
        "none"
    } else if cfg!(target_arch = "x86_64") {
        "avx2+fma"
    } else {
        "neon"
    }
}

// ---------------------------------------------------------------------------
// The scalar definitions. One accumulator, original left-to-right
// association: what every contract in this module is stated against, and what
// runs (vectorised by the compiler where it can be) when the ISA is absent.
// ---------------------------------------------------------------------------

fn dot_u1(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

fn indexed_dot_u1(vals: &[f32], idx: &[u32], x: &[f32]) -> f32 {
    vals.iter().zip(idx).map(|(&w, &c)| w * x[c as usize]).sum()
}

fn axpy_u1(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

fn hadamard_into_u1(a: &[f32], b: &[f32], out: &mut [f32]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x * y;
    }
}

// ---------------------------------------------------------------------------
// Batched (SpMM) kernels. The input is `b` interleaved lanes — element `c`
// of lane `j` lives at `xs[c * b + j]` — so one walk of a row's index
// structure feeds all `b` streams, and the vector path gets unit-stride
// loads across the batch dimension (no gathers even for irregular rows).
//
// Numeric contract: lane `j` of a batched kernel is **bit-identical** to
// the single-vector kernel of the same variant applied to column `j`. The
// scalar realization is the scalar definition per lane (single accumulator,
// left-to-right association); the vector realization keeps the serial
// kernel's k-sublane accumulators and applies its horizontal-reduction tree
// element-wise per lane.
// ---------------------------------------------------------------------------

fn dot_batch_scalar(a: &[f32], xs: &[f32], b: usize, out: &mut [f32]) {
    out.fill(0.0);
    for (k, &w) in a.iter().enumerate() {
        let lanes = &xs[k * b..k * b + b];
        for (o, &xv) in out.iter_mut().zip(lanes) {
            *o += w * xv;
        }
    }
}

fn indexed_dot_batch_scalar(vals: &[f32], idx: &[u32], xs: &[f32], b: usize, out: &mut [f32]) {
    out.fill(0.0);
    for (&w, &c) in vals.iter().zip(idx) {
        let base = c as usize * b;
        let lanes = &xs[base..base + b];
        for (o, &xv) in out.iter_mut().zip(lanes) {
            *o += w * xv;
        }
    }
}

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

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::activations::coef::*;
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
    /// `op[r·b + j] = Σₖ wp[wat(k, r)] · xp[at(k) + j]` over `k < len` in
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
    /// `op + r·b`.
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
        b: usize,
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
                let p = op.add(r * b + V::LANES * g);
                if MASKED {
                    V::store_first(p, mask, s);
                } else {
                    V::store(p, s);
                }
            }
        }
    }

    /// `out[r·b + j] = Σₖ w[wat(k, r)] · xs[at(k) + j]` over `k < len` for
    /// `R` rows and the lanes `from..b`: full tiles of a register each, then
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
    /// `V::LANES <= b` for a half plane unless `V::MASKED_HALVES` —, `out`
    /// must hold `R·b` elements, `wat` must not decrease in either argument
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
    ) {
        // The weights are read unchecked (an index check per broadcast cost
        // the 1024², 10× SpMM 1.2–1.5× at 12–32 lanes); the one address that
        // bounds them all is checked here, once per row block.
        debug_assert!(R * S == 8 && from <= b && out.len() == R * b);
        debug_assert!(!E::HALF || V::MASKED_HALVES || b >= V::LANES);
        debug_assert!(len == 0 || wat(len - 1, R - 1) < w.len());
        let (wp, xp, op) = (w.as_ptr(), xs.as_ptr(), out.as_mut_ptr());
        let (n, h) = (V::LANES, V::Half::LANES);
        let jb = b - (b - from) % n;
        // SAFETY: lanes `j0..j0 + n ≤ b` lie inside `xs[at(k)..at(k) + b]`
        // and inside each row of `out`.
        for j0 in (from..jb).step_by(n) {
            rows_tile::<V, false, R, S, 1, E>(len, wp, &wat, &at, xp.add(j0), n, op.add(j0), b);
        }
        let fits_half = h < n && b - jb <= h && (!E::HALF || V::Half::MASKED_HALVES || b >= h);
        if jb < b && fits_half {
            last_lanes::<V::Half, R, S, E>(len, wp, &wat, &at, xp, b, jb, op);
        } else if jb < b {
            last_lanes::<V, R, S, E>(len, wp, &wat, &at, xp, b, jb, op);
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
    ) {
        let n = V::LANES;
        // SAFETY (all tiles): lanes `jb..b` of the masked tile and the
        // `n ≤ b` lanes of a full one that ends at `b` lie inside
        // `xs[at(k)..at(k) + b]` and inside each row of `out`; the masked
        // tile touches nothing beyond lane `b`.
        if b - jb == n {
            rows_tile::<V, false, R, S, 1, E>(len, wp, wat, at, xp.add(jb), n, op.add(jb), b);
        } else if E::HALF && !V::MASKED_HALVES {
            rows_tile::<V, false, R, S, 1, E>(len, wp, wat, at, xp.add(b - n), n, op.add(b - n), b);
        } else {
            rows_tile::<V, true, R, S, 1, E>(len, wp, wat, at, xp.add(jb), b - jb, op.add(jb), b);
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
        rows_lanes::<V, 1, 8, E>(a.len(), a, wat, at, xs, b, paired, out)
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
    pub unsafe fn indexed_dot_batch(
        vals: &[f32],
        idx: &[u32],
        xs: &[f32],
        b: usize,
        out: &mut [f32],
    ) {
        let at = |k: usize| idx[k] as usize * b;
        rows_lanes::<__m256, 1, 8, f32>(vals.len(), vals, |k, _| k, at, xs, b, 0, out)
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
            rows_lanes::<V, 4, 2, f32>(len, w, |k, r| wat(k, j + r), |k| k * b, xs, b, 0, quad);
            j += 4;
        }
        for lanes in quads.into_remainder().chunks_exact_mut(b) {
            rows_lanes::<V, 1, 8, f32>(len, w, |k, _| wat(k, j), |k| k * b, xs, b, 0, lanes);
            j += 1;
        }
    }

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
}

// ---------------------------------------------------------------------------
// NEON (aarch64). 4-lane counterpart of the AVX2 kernels with the same
// structure: one accumulator register, `vaddvq` reduction, in-order tail.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    #[target_feature(enable = "neon")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / 4;
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc = vdupq_n_f32(0.0);
        for i in 0..chunks {
            let va = vld1q_f32(ap.add(i * 4));
            let vb = vld1q_f32(bp.add(i * 4));
            acc = vfmaq_f32(acc, va, vb);
        }
        let mut sum = vaddvq_f32(acc);
        for i in chunks * 4..n {
            sum += a[i] * b[i];
        }
        sum
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn indexed_dot(vals: &[f32], idx: &[u32], x: &[f32]) -> f32 {
        let n = vals.len();
        let chunks = n / 4;
        let vp = vals.as_ptr();
        let mut acc = vdupq_n_f32(0.0);
        for i in 0..chunks {
            let j = i * 4;
            // NEON has no gather: stage the four inputs through a stack
            // array so the lane grouping matches the dense dot exactly.
            let g = [
                x[idx[j] as usize],
                x[idx[j + 1] as usize],
                x[idx[j + 2] as usize],
                x[idx[j + 3] as usize],
            ];
            let w = vld1q_f32(vp.add(j));
            acc = vfmaq_f32(acc, w, vld1q_f32(g.as_ptr()));
        }
        let mut sum = vaddvq_f32(acc);
        for i in chunks * 4..n {
            sum += vals[i] * x[idx[i] as usize];
        }
        sum
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = x.len();
        let chunks = n / 4;
        let va = vdupq_n_f32(alpha);
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        for i in 0..chunks {
            let vx = vld1q_f32(xp.add(i * 4));
            let vy = vld1q_f32(yp.add(i * 4));
            vst1q_f32(yp.add(i * 4), vfmaq_f32(vy, va, vx));
        }
        for i in chunks * 4..n {
            y[i] += alpha * x[i];
        }
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn hadamard_into(a: &[f32], b: &[f32], out: &mut [f32]) {
        let n = a.len();
        let chunks = n / 4;
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        for i in 0..chunks {
            vst1q_f32(
                op.add(i * 4),
                vmulq_f32(vld1q_f32(ap.add(i * 4)), vld1q_f32(bp.add(i * 4))),
            );
        }
        for i in chunks * 4..n {
            out[i] = a[i] * b[i];
        }
    }

    /// Scalar replay of one batch lane of the NEON dot: four k-sublane
    /// accumulators (`mul_add` = the same single-rounding FMA as `vfmaq`),
    /// the `vaddvq` pairwise tree `(a0+a1)+(a2+a3)`, then the in-order
    /// mul+add tail.
    #[inline]
    fn lane_dot<F: Fn(usize) -> f32>(a: &[f32], fetch: F) -> f32 {
        let n = a.len();
        let chunks = n / 4;
        let mut acc = [0.0f32; 4];
        for i in 0..chunks {
            for (l, al) in acc.iter_mut().enumerate() {
                let k = i * 4 + l;
                *al = a[k].mul_add(fetch(k), *al);
            }
        }
        let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        for k in chunks * 4..n {
            sum += a[k] * fetch(k);
        }
        sum
    }

    /// Batched dense dot: lane `j` of `out` is bit-identical to `dot` of
    /// `a` with column `j` of the lane-major `xs` buffer. The reduction
    /// applies `vaddvq`'s pairwise tree element-wise across the four
    /// k-sublane accumulators.
    #[target_feature(enable = "neon")]
    pub unsafe fn dot_batch(a: &[f32], xs: &[f32], b: usize, out: &mut [f32]) {
        let n = a.len();
        let chunks = n / 4;
        let xp = xs.as_ptr();
        let op = out.as_mut_ptr();
        let jb = b - b % 4;
        let mut j0 = 0;
        while j0 < jb {
            let mut acc = [vdupq_n_f32(0.0); 4];
            for i in 0..chunks {
                for (l, al) in acc.iter_mut().enumerate() {
                    let k = i * 4 + l;
                    let w = vdupq_n_f32(a[k]);
                    let xv = vld1q_f32(xp.add(k * b + j0));
                    *al = vfmaq_f32(*al, w, xv);
                }
            }
            let mut s = vaddq_f32(vaddq_f32(acc[0], acc[1]), vaddq_f32(acc[2], acc[3]));
            for k in chunks * 4..n {
                let w = vdupq_n_f32(a[k]);
                let xv = vld1q_f32(xp.add(k * b + j0));
                s = vaddq_f32(s, vmulq_f32(w, xv));
            }
            vst1q_f32(op.add(j0), s);
            j0 += 4;
        }
        for j in jb..b {
            out[j] = lane_dot(a, |k| xs[k * b + j]);
        }
    }

    /// Batched indexed dot: lane `j` of `out` is bit-identical to
    /// `indexed_dot` against column `j` of the lane-major `xs` buffer.
    #[target_feature(enable = "neon")]
    pub unsafe fn indexed_dot_batch(
        vals: &[f32],
        idx: &[u32],
        xs: &[f32],
        b: usize,
        out: &mut [f32],
    ) {
        let n = vals.len();
        let chunks = n / 4;
        let xp = xs.as_ptr();
        let op = out.as_mut_ptr();
        let jb = b - b % 4;
        let mut j0 = 0;
        while j0 < jb {
            let mut acc = [vdupq_n_f32(0.0); 4];
            for i in 0..chunks {
                for (l, al) in acc.iter_mut().enumerate() {
                    let k = i * 4 + l;
                    let w = vdupq_n_f32(vals[k]);
                    let xv = vld1q_f32(xp.add(idx[k] as usize * b + j0));
                    *al = vfmaq_f32(*al, w, xv);
                }
            }
            let mut s = vaddq_f32(vaddq_f32(acc[0], acc[1]), vaddq_f32(acc[2], acc[3]));
            for k in chunks * 4..n {
                let w = vdupq_n_f32(vals[k]);
                let xv = vld1q_f32(xp.add(idx[k] as usize * b + j0));
                s = vaddq_f32(s, vmulq_f32(w, xv));
            }
            vst1q_f32(op.add(j0), s);
            j0 += 4;
        }
        for j in jb..b {
            out[j] = lane_dot(vals, |k| xs[idx[k] as usize * b + j]);
        }
    }
}

// ---------------------------------------------------------------------------
// Vector dispatchers: runtime-checked entry into the unsafe ISA modules,
// ending in the scalar definition when the CPU lacks the features.
// ---------------------------------------------------------------------------

fn dot_vector(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if vector_available() {
        // SAFETY: AVX2+FMA presence verified by `vector_available`.
        return unsafe { x86::dot(a, b) };
    }
    #[cfg(target_arch = "aarch64")]
    if vector_available() {
        // SAFETY: NEON presence verified by `vector_available`.
        return unsafe { neon::dot(a, b) };
    }
    dot_u1(a, b)
}

fn indexed_dot_vector(vals: &[f32], idx: &[u32], x: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if vector_available() {
        // SAFETY: AVX2+FMA presence verified by `vector_available`.
        return unsafe { x86::indexed_dot(vals, idx, x) };
    }
    #[cfg(target_arch = "aarch64")]
    if vector_available() {
        // SAFETY: NEON presence verified by `vector_available`.
        return unsafe { neon::indexed_dot(vals, idx, x) };
    }
    indexed_dot_u1(vals, idx, x)
}

fn axpy_vector(alpha: f32, x: &[f32], y: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if vector_available() {
        // SAFETY: AVX2+FMA presence verified by `vector_available`.
        return unsafe { x86::axpy(alpha, x, y) };
    }
    #[cfg(target_arch = "aarch64")]
    if vector_available() {
        // SAFETY: NEON presence verified by `vector_available`.
        return unsafe { neon::axpy(alpha, x, y) };
    }
    axpy_u1(alpha, x, y)
}

fn hadamard_into_vector(a: &[f32], b: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if vector_available() {
        // SAFETY: AVX2+FMA presence verified by `vector_available`.
        return unsafe { x86::hadamard_into(a, b, out) };
    }
    #[cfg(target_arch = "aarch64")]
    if vector_available() {
        // SAFETY: NEON presence verified by `vector_available`.
        return unsafe { neon::hadamard_into(a, b, out) };
    }
    hadamard_into_u1(a, b, out)
}

fn dot_batch_vector(a: &[f32], xs: &[f32], b: usize, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if vector_available() {
        // SAFETY: the feature set of `width()` verified by
        // `vector_available` / `wide_available`; the lengths by
        // `dot_batch_variant` and `dot_lanes`, the only callers.
        return unsafe { x86::dot_batch::<f32>(width(), a, xs, b, out) };
    }
    #[cfg(target_arch = "aarch64")]
    if vector_available() {
        // SAFETY: NEON presence verified by `vector_available`.
        return unsafe { neon::dot_batch(a, xs, b, out) };
    }
    // Without the ISA the serial vector kernels are the scalar definition,
    // which the scalar batch realization runs per lane.
    dot_batch_scalar(a, xs, b, out)
}

fn indexed_dot_batch_vector(vals: &[f32], idx: &[u32], xs: &[f32], b: usize, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if vector_available() {
        // SAFETY: AVX2+FMA presence verified by `vector_available`; the
        // lengths and the index range by `indexed_dot_batch_variant` and
        // `indexed_dot_lanes`, the only callers.
        return unsafe { x86::indexed_dot_batch(vals, idx, xs, b, out) };
    }
    #[cfg(target_arch = "aarch64")]
    if vector_available() {
        // SAFETY: NEON presence verified by `vector_available`.
        return unsafe { neon::indexed_dot_batch(vals, idx, xs, b, out) };
    }
    indexed_dot_batch_scalar(vals, idx, xs, b, out)
}

// ---------------------------------------------------------------------------
// Public kernels: `foo()` runs the policy-selected variant, `foo_variant()`
// runs an explicit one (differential tests, benches).
// ---------------------------------------------------------------------------

/// Dot product of two equally-long slices under an explicit variant.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot_variant(v: Variant, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    match v {
        Variant::ScalarU1 => dot_u1(a, b),
        Variant::Vector => dot_vector(a, b),
    }
}

/// Dot product under the [`active_variant`].
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_variant(active_variant(), a, b)
}

/// Sparse (indexed) dot `Σ vals[i] · x[idx[i]]` — the CSR/BSPC SpMV inner
/// loop — under an explicit variant. On AVX2 the gather runs in-register
/// (`vgatherdps`); lane grouping matches [`dot_variant`] exactly.
///
/// # Panics
///
/// Panics if `vals` and `idx` lengths differ or an index is out of range
/// for `x`.
pub fn indexed_dot_variant(v: Variant, vals: &[f32], idx: &[u32], x: &[f32]) -> f32 {
    assert_eq!(vals.len(), idx.len(), "indexed_dot: length mismatch");
    if let Some(&max) = idx.iter().max() {
        assert!((max as usize) < x.len(), "indexed_dot: index out of range");
    }
    match v {
        Variant::ScalarU1 => indexed_dot_u1(vals, idx, x),
        Variant::Vector => indexed_dot_vector(vals, idx, x),
    }
}

/// Sparse (indexed) dot under the [`active_variant`].
///
/// # Panics
///
/// Panics if `vals` and `idx` lengths differ or an index is out of range.
pub fn indexed_dot(vals: &[f32], idx: &[u32], x: &[f32]) -> f32 {
    indexed_dot_variant(active_variant(), vals, idx, x)
}

/// `y += alpha * x` under an explicit variant.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn axpy_variant(v: Variant, alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    match v {
        Variant::ScalarU1 => axpy_u1(alpha, x, y),
        Variant::Vector => axpy_vector(alpha, x, y),
    }
}

/// `y += alpha * x` under the [`active_variant`].
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    axpy_variant(active_variant(), alpha, x, y)
}

/// Element-wise product `out[i] = a[i] * b[i]` under an explicit variant.
/// Bit-exact in every variant (one correctly-rounded multiply per element).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn hadamard_into_variant(v: Variant, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "hadamard: length mismatch");
    assert_eq!(a.len(), out.len(), "hadamard: output length mismatch");
    match v {
        Variant::ScalarU1 => hadamard_into_u1(a, b, out),
        Variant::Vector => hadamard_into_vector(a, b, out),
    }
}

/// Element-wise product under the [`active_variant`].
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn hadamard_into(a: &[f32], b: &[f32], out: &mut [f32]) {
    hadamard_into_variant(active_variant(), a, b, out)
}

/// Batched dense dot under an explicit variant: `out[j] = Σₖ a[k]·xs[k·b+j]`
/// for each of the `b` interleaved lanes of `xs` (element `k` of lane `j`
/// lives at `xs[k·b + j]`).
///
/// Lane contract: `out[j]` is **bit-identical** to
/// [`dot_variant`]`(v, a, column_j)` — the SpMM building block inherits the
/// single-vector kernels' numeric behaviour per stream, in every variant.
///
/// Total in `b`: the batch realizations vectorize across lanes, so a single
/// lane runs [`dot_variant`] (vector along the row) — by the lane contract
/// the same bits. Callers never branch on `b == 1` themselves.
///
/// # Panics
///
/// Panics if `out.len() != b` or `xs.len() != a.len() * b`.
#[inline]
pub fn dot_batch_variant(v: Variant, a: &[f32], xs: &[f32], b: usize, out: &mut [f32]) {
    // Inlined down to this route, with a plain `assert!` (`assert_eq!` keeps
    // both operands addressable): a 10×-pruned 1024-wide gate has ten-value
    // rows, where anything more per row shows in the frame time.
    assert!(out.len() == b, "dot_batch: output length mismatch");
    if b == 1 {
        // Checks `a` against the single lane itself.
        out[0] = dot_variant(v, a, xs);
    } else {
        dot_lanes(v, a, xs, b, out);
    }
}

/// The across-lane realizations of [`dot_batch_variant`] (`b != 1`).
fn dot_lanes(v: Variant, a: &[f32], xs: &[f32], b: usize, out: &mut [f32]) {
    assert_eq!(
        xs.len(),
        a.len() * b,
        "dot_batch: lane buffer length mismatch"
    );
    if b == 0 {
        return;
    }
    match v {
        Variant::ScalarU1 => dot_batch_scalar(a, xs, b, out),
        Variant::Vector => dot_batch_vector(a, xs, b, out),
    }
}

/// Batched dense dot under the [`active_variant`].
///
/// # Panics
///
/// Panics if `out.len() != b` or `xs.len() != a.len() * b`.
pub fn dot_batch(a: &[f32], xs: &[f32], b: usize, out: &mut [f32]) {
    dot_batch_variant(active_variant(), a, xs, b, out)
}

/// Whether `v` runs the register-tile batch body here (`Vector` on
/// AVX2+FMA) — the one realization [`tile_dots_variant`] has: its lanes and
/// its along-row `dot` both accumulate from `+0.0` (the scalar definition
/// sums from `-0.0`, its batch lanes from `+0.0`: rows as lanes there would
/// flip the sign of a row whose products are all `-0.0`), and it takes a
/// row's weights through a stride.
pub fn tile_dots_available(v: Variant) -> bool {
    cfg!(target_arch = "x86_64") && v == Variant::Vector && vector_available()
}

/// Most rows of one stored row tile (BSPC's, the dense head's): two AVX2
/// registers of row lanes, which halves the walks over a tile's input against
/// one register's worth (1024² BSPC at 103×, one lane, f32: 1.8 µs a gate
/// against 2.6 µs).
pub const TILE_ROWS: usize = 16;

/// The `m` rows of one lane-major weight tile against a shared lane-major
/// input: `out[j·b + l] = Σₖ tile[k·m + j] · xs[k·b + l]`, row `j` lane `l`
/// **bit-identical** to [`dot_variant`]`(v, row_j, column_l)`. Rows that
/// share their input — the kept rows of a BSPC stripe — are stored this way
/// so that they can be the lanes: at `b == 1` this *is*
/// [`dot_batch_variant`] with the operands exchanged (`xs` the row, `tile`
/// the lane plane; a product commutes, so the bits are `dot`'s), in
/// eight-lane registers on every x86 host — sixteen-lane rows have shown no
/// end-to-end gain there (EXPERIMENTS.md B4). At `b > 1` the batch lanes stay the lanes, in the
/// widest register ([`lane_width`]), each row's weights are read through
/// the stride `m`, and four rows at a time share every loaded lane row.
///
/// # Panics
///
/// Panics unless [`tile_dots_available`]`(v)`, or if `b == 0`,
/// `out.len() != m * b`, or `tile` does not hold `m` rows of `xs.len() / b`
/// elements.
pub fn tile_dots_variant(
    v: Variant,
    tile: &[f32],
    m: usize,
    xs: &[f32],
    b: usize,
    out: &mut [f32],
) {
    assert!(tile_dots_available(v), "tile_dots: no register-tile body");
    assert!(
        b != 0 && out.len() == m * b && tile.len() * b == xs.len() * m,
        "tile_dots: size mismatch"
    );
    if b == 1 && m == 1 {
        out[0] = dot_variant(v, xs, tile);
        return;
    }
    // SAFETY: the feature set of the width — eight lanes: `vector_available`,
    // `width()`: `wide_available` too — and the sizes — `m` rows of
    // `xs.len() / b` elements end at `tile.len()`, at one stream `m` lanes
    // of `xs.len()` rows and `m` outputs — were checked just above.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        if b == 1 {
            x86::dot_batch::<f32>(x86::Width::Ymm, xs, tile, m, out)
        } else {
            x86::tile_dots(width(), tile, |k, j| k * m + j, xs, b, out)
        }
    }
}

/// [`tile_dots_variant`] over a tile stored as raw f16 bits, in the same
/// lane-major order: bit-identical to it on the decoded tile (the decode is
/// exact).
///
/// Where a stored half is widened depends on what it is to the body: at one
/// stream the tile *is* the lane plane, and each lane row is converted in
/// the register it is loaded into; at `b ≥ 2` its values are broadcast
/// operands, so the tile is decoded once into `decoded` — a cost the lanes
/// amortise — and runs as [`tile_dots_variant`] does. (So does a tile of
/// fewer than eight rows at one stream: it fills no lane group, and a decode
/// converts eight stored values at a time where its lane rows hold `m`.)
///
/// # Panics
///
/// As [`tile_dots_variant`], or if `decoded.len() != tile_bits.len()`.
pub fn tile_dots_f16_variant(
    v: Variant,
    tile_bits: &[u16],
    m: usize,
    xs: &[f32],
    b: usize,
    out: &mut [f32],
    decoded: &mut [f32],
) {
    assert!(tile_dots_available(v), "tile_dots: no register-tile body");
    assert!(decoded.len() == tile_bits.len(), "tile_dots: decode window");
    #[cfg(target_arch = "x86_64")]
    if b == 1 && m >= 8 {
        assert!(
            out.len() == m && tile_bits.len() == xs.len() * m,
            "tile_dots: size mismatch"
        );
        // SAFETY: the feature set of eight lanes and the sizes — `xs.len()`
        // lane rows of `m ≥ 8` halves, `m` outputs — were checked just above.
        return unsafe { x86::dot_batch::<u16>(x86::Width::Ymm, xs, tile_bits, m, out) };
    }
    crate::f16::f16_bits_to_f32(tile_bits, decoded);
    tile_dots_variant(v, decoded, m, xs, b, out)
}

/// [`tile_dots_variant`] over `m` row-major rows (`rows[j·len + k]`) — a
/// dense matrix's row range: `out[j·b + l]` is **bit-identical** to
/// [`dot_batch_variant`]`(v, row_j, xs, b, ..)`, lane `l`. With the
/// register-tile body ([`tile_dots_available`]) and `b ≥ 2` lanes, four rows
/// at a time share every loaded lane row of the widest register; otherwise
/// this is that call per row.
///
/// # Panics
///
/// Panics if `b == 0`, `out.len() != m * b`, or `rows` does not hold `m`
/// rows of `xs.len() / b` elements.
pub fn row_major_dots_variant(
    v: Variant,
    rows: &[f32],
    m: usize,
    xs: &[f32],
    b: usize,
    out: &mut [f32],
) {
    assert!(
        b != 0 && out.len() == m * b && rows.len() * b == xs.len() * m,
        "row_major_dots: size mismatch"
    );
    let len = xs.len() / b;
    #[cfg(target_arch = "x86_64")]
    if b >= 2 && tile_dots_available(v) {
        // SAFETY: the feature set of `width()` and the sizes were checked
        // just above.
        return unsafe { x86::tile_dots(width(), rows, |k, j| j * len + k, xs, b, out) };
    }
    for (j, lanes) in out.chunks_exact_mut(b).enumerate() {
        dot_batch_variant(v, &rows[j * len..(j + 1) * len], xs, b, lanes);
    }
}

/// Batched sparse (indexed) dot under an explicit variant:
/// `out[j] = Σᵢ vals[i] · xs[idx[i]·b + j]` — the CSR/BSPC SpMM inner loop.
/// The index array is walked **once** for all `b` lanes, and the loads
/// across the batch dimension are unit-stride (no gathers even on rows with
/// irregular column patterns).
///
/// Lane contract: `out[j]` is **bit-identical** to
/// [`indexed_dot_variant`]`(v, vals, idx, column_j)` in every variant.
/// Total in `b` like [`dot_batch_variant`]: a single lane runs
/// [`indexed_dot_variant`].
///
/// # Panics
///
/// Panics if `vals` and `idx` lengths differ, `out.len() != b`, `xs.len()`
/// is not a multiple of `b`, or an index is out of range for `xs.len() / b`
/// elements.
#[inline]
pub fn indexed_dot_batch_variant(
    v: Variant,
    vals: &[f32],
    idx: &[u32],
    xs: &[f32],
    b: usize,
    out: &mut [f32],
) {
    assert!(out.len() == b, "indexed_dot_batch: output length mismatch");
    if b == 1 {
        // Checks the lengths and the index range itself.
        out[0] = indexed_dot_variant(v, vals, idx, xs);
    } else {
        indexed_dot_lanes(v, vals, idx, xs, b, out);
    }
}

/// The across-lane realizations of [`indexed_dot_batch_variant`] (`b != 1`).
fn indexed_dot_lanes(v: Variant, vals: &[f32], idx: &[u32], xs: &[f32], b: usize, out: &mut [f32]) {
    assert_eq!(vals.len(), idx.len(), "indexed_dot_batch: length mismatch");
    if b == 0 {
        return;
    }
    assert_eq!(
        xs.len() % b,
        0,
        "indexed_dot_batch: lane buffer not a multiple of the batch width"
    );
    if let Some(&max) = idx.iter().max() {
        assert!(
            (max as usize) < xs.len() / b,
            "indexed_dot_batch: index out of range"
        );
    }
    match v {
        Variant::ScalarU1 => indexed_dot_batch_scalar(vals, idx, xs, b, out),
        Variant::Vector => indexed_dot_batch_vector(vals, idx, xs, b, out),
    }
}

/// Batched sparse (indexed) dot under the [`active_variant`].
///
/// # Panics
///
/// As [`indexed_dot_batch_variant`].
pub fn indexed_dot_batch(vals: &[f32], idx: &[u32], xs: &[f32], b: usize, out: &mut [f32]) {
    indexed_dot_batch_variant(active_variant(), vals, idx, xs, b, out)
}

/// Broadcasts `bias[i]` into every lane of row `i` of a lane-major buffer:
/// `out[i·b + j] += bias[i]`.
///
/// One correctly-rounded add per element, so the result is bit-identical to
/// running `axpy(1.0, bias, column_j)` per lane under *every* variant — an
/// FMA with α = 1 rounds exactly like the plain add (`1.0 · x` is exact).
/// This is the batched GRU step's bias application; it needs no variant
/// parameter because all variants agree.
///
/// # Panics
///
/// Panics if `out.len() != bias.len() * b`.
pub fn broadcast_add(bias: &[f32], b: usize, out: &mut [f32]) {
    assert_eq!(out.len(), bias.len() * b, "broadcast_add: length mismatch");
    if b == 0 {
        return;
    }
    // One lane is a plain element-wise add; the width-1 chunk walk below
    // would keep the compiler from vectorizing it.
    if b == 1 {
        for (o, &bi) in out.iter_mut().zip(bias) {
            *o += bi;
        }
        return;
    }
    for (lanes, &bi) in out.chunks_exact_mut(b).zip(bias) {
        for o in lanes {
            *o += bi;
        }
    }
}

/// In-place sigmoid sweep under an explicit variant.
///
/// The scalar definition is one loop over `activations::sigmoid`.
/// `Vector` is the x86 body, which runs that definition's operation
/// sequence a register of lanes at a time — sixteen with AVX-512, eight on
/// AVX2, a partial register masked — (no FMA, both branches computed and
/// selected): bit-identical to the scalar loop on all 2³² inputs at either
/// width, checked exhaustively. Without AVX2 — aarch64 included, until a
/// NEON body can be checked the same way — `Vector` is the scalar loop.
pub fn sigmoid_sweep_variant(v: Variant, xs: &mut [f32]) {
    match v {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the feature set of `width()` verified by `vector_available`
        // / `wide_available`.
        Variant::Vector if vector_available() => unsafe {
            x86::activation_sweep::<false>(width(), xs)
        },
        _ => xs.iter_mut().for_each(|x| *x = sigmoid(*x)),
    }
}

/// In-place sigmoid sweep under the [`active_variant`].
pub fn sigmoid_sweep(xs: &mut [f32]) {
    sigmoid_sweep_variant(active_variant(), xs)
}

/// In-place tanh sweep under an explicit variant (bit-identical across
/// variants; see [`sigmoid_sweep_variant`]).
pub fn tanh_sweep_variant(v: Variant, xs: &mut [f32]) {
    match v {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the feature set of `width()` verified by `vector_available`
        // / `wide_available`.
        Variant::Vector if vector_available() => unsafe {
            x86::activation_sweep::<true>(width(), xs)
        },
        _ => xs.iter_mut().for_each(|x| *x = tanh(*x)),
    }
}

/// In-place tanh sweep under the [`active_variant`].
pub fn tanh_sweep(xs: &mut [f32]) {
    tanh_sweep_variant(active_variant(), xs)
}

/// Spacing between consecutive `f32` values at magnitude `m` — the "ULP"
/// unit of the vector path's numeric contract. Subnormal-safe (clamps to
/// the smallest normal).
pub fn ulp_at(m: f32) -> f32 {
    let m = m.abs().max(f32::MIN_POSITIVE);
    f32::from_bits(m.to_bits() + 1) - m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StdRng;

    fn rand_vec(n: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..n).map(|_| rng.gen_f32() * 2.0 - 1.0).collect()
    }

    /// The registers the x86 batched bodies and sweeps run in on this host —
    /// eight lanes, and sixteen with AVX-512 —, for the tests to call each
    /// one directly: the eight-lane body stays covered where production
    /// dispatches sixteen.
    #[cfg(target_arch = "x86_64")]
    fn widths() -> Vec<x86::Width> {
        match (vector_available(), wide_available()) {
            (false, _) => vec![],
            (true, false) => vec![x86::Width::Ymm],
            (true, true) => vec![x86::Width::Ymm, x86::Width::Zmm],
        }
    }

    #[test]
    fn vector_dot_within_ulp_contract() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 5, 8, 13, 64, 127, 1024] {
            let a = rand_vec(n, &mut rng);
            let b = rand_vec(n, &mut rng);
            let want = dot_variant(Variant::ScalarU1, &a, &b);
            let got = dot_variant(Variant::Vector, &a, &b);
            let mag: f32 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
            assert!(
                (got - want).abs() <= 4.0 * ulp_at(mag),
                "n={n}: {got} vs {want} (mag {mag})"
            );
        }
    }

    #[test]
    fn indexed_dot_matches_dense_gather() {
        // The order-discipline invariant: gathering into a dense scratch and
        // dotting must equal the in-register indexed dot, bit for bit, in
        // every variant.
        let mut rng = StdRng::seed_from_u64(23);
        for n in [0usize, 2, 8, 11, 29, 96, 250] {
            let x = rand_vec(300, &mut rng);
            let vals = rand_vec(n, &mut rng);
            let mut idx: Vec<u32> = (0..n).map(|_| rng.next_u32() % 300).collect();
            idx.sort_unstable();
            let gathered: Vec<f32> = idx.iter().map(|&c| x[c as usize]).collect();
            for v in Variant::ALL {
                assert_eq!(
                    indexed_dot_variant(v, &vals, &idx, &x),
                    dot_variant(v, &vals, &gathered),
                    "{} n={n}",
                    v.name()
                );
            }
        }
    }

    #[test]
    fn axpy_and_hadamard_all_variants() {
        let mut rng = StdRng::seed_from_u64(41);
        for n in [0usize, 1, 6, 8, 17, 130] {
            let x = rand_vec(n, &mut rng);
            let y0 = rand_vec(n, &mut rng);
            let mut want = y0.clone();
            axpy_u1(0.37, &x, &mut want);
            // Vector axpy contracts mul+add into one FMA per element.
            let mut y = y0.clone();
            axpy_variant(Variant::Vector, 0.37, &x, &mut y);
            for i in 0..n {
                let mag = (0.37 * x[i]).abs().max(y0[i].abs());
                assert!((y[i] - want[i]).abs() <= 4.0 * ulp_at(mag), "n={n} i={i}");
            }
            // Hadamard is one rounded multiply per element: exact everywhere.
            let b = rand_vec(n, &mut rng);
            let mut out_want = vec![0.0f32; n];
            hadamard_into_u1(&x, &b, &mut out_want);
            for v in Variant::ALL {
                let mut out = vec![f32::NAN; n];
                hadamard_into_variant(v, &x, &b, &mut out);
                assert_eq!(out, out_want, "{} n={n}", v.name());
            }
        }
    }

    #[test]
    fn sweeps_bit_identical_across_variants() {
        // Lengths around one and two registers of either width: a masked
        // last register, a full one, none. Exact-length: the last register
        // ends where the allocation ends.
        let mut rng = StdRng::seed_from_u64(5);
        for n in [0usize, 3, 8, 15, 16, 17, 21, 31, 33, 47, 48, 100] {
            let base = rand_vec(n, &mut rng);
            let mut want_s = base.clone();
            sigmoid_sweep_variant(Variant::ScalarU1, &mut want_s);
            let mut want_t = base.clone();
            tanh_sweep_variant(Variant::ScalarU1, &mut want_t);
            for v in Variant::ALL {
                let mut s = base.clone();
                sigmoid_sweep_variant(v, &mut s);
                assert_eq!(s, want_s, "sigmoid {} n={n}", v.name());
                let mut t = base.clone();
                tanh_sweep_variant(v, &mut t);
                assert_eq!(t, want_t, "tanh {} n={n}", v.name());
            }
            #[cfg(target_arch = "x86_64")]
            for width in widths() {
                let (mut s, mut t) = (base.clone(), base.clone());
                // SAFETY: `widths` lists only registers this host has.
                unsafe {
                    x86::activation_sweep::<false>(width, &mut s);
                    x86::activation_sweep::<true>(width, &mut t);
                }
                assert_eq!(s, want_s, "sigmoid {width:?} n={n}");
                assert_eq!(t, want_t, "tanh {width:?} n={n}");
            }
        }
    }

    /// The element-wise contract in full: both sweeps over all 2³² bit
    /// patterns (NaNs included), the x86 body in each register width
    /// against the scalar loop, compared as bits. Two threads;
    /// `scripts/ci.sh` runs it with `--release -- --ignored`.
    #[cfg(target_arch = "x86_64")]
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run in release"]
    fn sweeps_match_scalar_on_every_f32() {
        let widths = widths();
        if widths.is_empty() {
            println!("skipped: no vector body, every sweep variant is the scalar loop");
            return;
        }
        type Sweep = fn(Variant, &mut [f32]);
        type Lanes = unsafe fn(x86::Width, &mut [f32]);
        let sweeps: [(Sweep, Lanes, &str); 2] = [
            (
                sigmoid_sweep_variant,
                x86::activation_sweep::<false>,
                "sigmoid",
            ),
            (tanh_sweep_variant, x86::activation_sweep::<true>, "tanh"),
        ];
        std::thread::scope(|s| {
            for half in 0..2u32 {
                let widths = &widths;
                s.spawn(move || {
                    let mut input = vec![0.0f32; 1 << 16];
                    let (mut want, mut got) = (input.clone(), input.clone());
                    for block in (half << 15)..((half + 1) << 15) {
                        for (i, x) in input.iter_mut().enumerate() {
                            *x = f32::from_bits((block << 16) | i as u32);
                        }
                        for (scalar, lanes, name) in sweeps {
                            want.copy_from_slice(&input);
                            scalar(Variant::ScalarU1, &mut want);
                            for &width in widths {
                                got.copy_from_slice(&input);
                                // SAFETY: `widths` lists only registers this
                                // host has.
                                unsafe { lanes(width, &mut got) };
                                for ((x, w), g) in input.iter().zip(&want).zip(&got) {
                                    assert_eq!(
                                        g.to_bits(),
                                        w.to_bits(),
                                        "{name}({:#010x}): {width:?} {g:e}, scalar {w:e}",
                                        x.to_bits()
                                    );
                                }
                            }
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn batched_dot_lanes_match_serial_columns() {
        // The batched kernels' core contract: every lane is bit-identical to
        // the serial kernel of the same variant on that lane's column, across
        // ragged nnz counts AND ragged batch widths (tails on both axes).
        // Every tail width around two register tiles of eight, then around
        // pairs and groups of eight and of sixteen lanes, in both registers;
        // `xs` and `out` are exact-length, so the last row's tail ends where
        // the buffer ends.
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        for n in [0usize, 1, 5, 7, 8, 9, 24, 61, 102] {
            for b in (1usize..=17).chain([19, 24, 31, 32, 33, 40, 47, 48]) {
                let a = rand_vec(n, &mut rng);
                let xs = rand_vec(n * b, &mut rng);
                let col = |j: usize| -> Vec<f32> { (0..n).map(|k| xs[k * b + j]).collect() };
                for v in Variant::ALL {
                    let mut out = vec![f32::NAN; b];
                    dot_batch_variant(v, &a, &xs, b, &mut out);
                    for (j, &oj) in out.iter().enumerate() {
                        assert_eq!(
                            oj,
                            dot_variant(v, &a, &col(j)),
                            "{} n={n} b={b} lane {j}",
                            v.name()
                        );
                    }
                }
                #[cfg(target_arch = "x86_64")]
                for width in widths() {
                    let mut out = vec![f32::NAN; b];
                    // SAFETY: `widths` lists only registers this host has;
                    // `xs` holds `n` rows of `b` lanes, `out` one per lane.
                    unsafe { x86::dot_batch::<f32>(width, &a, &xs, b, &mut out) };
                    for (j, &oj) in out.iter().enumerate() {
                        let want = dot_variant(Variant::Vector, &a, &col(j));
                        assert_eq!(
                            oj.to_bits(),
                            want.to_bits(),
                            "{width:?} n={n} b={b} lane {j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_indexed_dot_lanes_match_serial_columns() {
        let mut rng = StdRng::seed_from_u64(0x1BA7);
        let x_len = 90usize;
        for n in [0usize, 1, 2, 7, 8, 9, 11, 29, 57, 102] {
            for b in 1usize..=17 {
                let vals = rand_vec(n, &mut rng);
                let mut idx: Vec<u32> = (0..n).map(|_| rng.next_u32() % x_len as u32).collect();
                idx.sort_unstable();
                // The last row of `xs`: its tail lanes end the buffer.
                if let Some(last) = idx.last_mut() {
                    *last = x_len as u32 - 1;
                }
                let xs = rand_vec(x_len * b, &mut rng);
                for v in Variant::ALL {
                    let mut out = vec![f32::NAN; b];
                    indexed_dot_batch_variant(v, &vals, &idx, &xs, b, &mut out);
                    for (j, &oj) in out.iter().enumerate() {
                        let col: Vec<f32> = (0..x_len).map(|c| xs[c * b + j]).collect();
                        assert_eq!(
                            oj,
                            indexed_dot_variant(v, &vals, &idx, &col),
                            "{} nnz={n} b={b} lane {j}",
                            v.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_lanes_are_independent_under_non_finite_data() {
        // ±∞ / NaN weights against lanes whose inputs are all zero (every
        // third lane: ∞ · 0 = NaN) next to lanes with finite inputs (±∞): a
        // lane's result is its serial result whatever its neighbours — or the
        // zero-filled masked-off lanes of a partial tile — compute, and
        // nothing is stored past lane `b`, in either register.
        let same = |x: f32, y: f32| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        let mut rng = StdRng::seed_from_u64(0x1F);
        let lanes = || (1usize..=17).chain([31, 33]);
        for n in [9usize, 102] {
            let poisons: [&[(usize, f32)]; 4] = [
                &[(1, f32::INFINITY)],
                &[(n - 1, f32::NEG_INFINITY)],
                &[(n / 2, f32::NAN)],
                &[(0, f32::INFINITY), (n - 1, f32::NEG_INFINITY)],
            ];
            let idx: Vec<u32> = (0..n as u32).rev().collect();
            for poison in poisons {
                let mut a = rand_vec(n, &mut rng);
                for &(k, w) in poison {
                    a[k] = w;
                }
                for b in lanes() {
                    let mut xs = vec![0.0f32; n * b];
                    for (i, x) in xs.iter_mut().enumerate() {
                        if (i % b) % 3 != 0 {
                            *x = (0.5 + rng.gen_f32()) * if i % 2 == 0 { 1.0 } else { -1.0 };
                        }
                    }
                    let col = |j: usize| -> Vec<f32> { (0..n).map(|k| xs[k * b + j]).collect() };
                    for v in Variant::ALL {
                        let mut dense = vec![7.0f32; b + 16];
                        dot_batch_variant(v, &a, &xs, b, &mut dense[..b]);
                        let mut indexed = vec![7.0f32; b + 16];
                        indexed_dot_batch_variant(v, &a, &idx, &xs, b, &mut indexed[..b]);
                        for j in 0..b {
                            let d = dot_variant(v, &a, &col(j));
                            let i = indexed_dot_variant(v, &a, &idx, &col(j));
                            let what = format!("{} n={n} b={b} lane {j}", v.name());
                            assert!(same(dense[j], d), "dense {what}: {} vs {d}", dense[j]);
                            assert!(same(indexed[j], i), "indexed {what}: {} vs {i}", indexed[j]);
                        }
                        assert!(dense[b..].iter().chain(&indexed[b..]).all(|&s| s == 7.0));
                    }
                    #[cfg(target_arch = "x86_64")]
                    for width in widths() {
                        let mut dense = vec![7.0f32; b + 16];
                        // SAFETY: `widths` lists only registers this host
                        // has; `xs` holds `n` rows of `b` lanes.
                        unsafe { x86::dot_batch::<f32>(width, &a, &xs, b, &mut dense[..b]) };
                        for (j, &got) in dense[..b].iter().enumerate() {
                            let d = dot_variant(Variant::Vector, &a, &col(j));
                            let what = format!("{width:?} n={n} b={b} lane {j}");
                            assert!(same(got, d), "dense {what}: {got} vs {d}");
                        }
                        assert!(dense[b..].iter().all(|&s| s == 7.0));
                    }
                }
            }
        }
        // Across rows: one row of a tile carries the poison — a NaN / ±∞
        // weight, or nothing but `-0.0` — and every other row of its row
        // block, like every lane, still carries its own serial result.
        let v = Variant::Vector;
        if !tile_dots_available(v) {
            return;
        }
        for (m, len) in [(5usize, 9usize), (8, 102)] {
            for bad in 0..m {
                for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0] {
                    let mut rows: Vec<Vec<f32>> = (0..m).map(|_| rand_vec(len, &mut rng)).collect();
                    if poison == 0.0 {
                        rows[bad].fill(-0.0);
                    } else {
                        rows[bad][len / 2] = poison;
                    }
                    let tile: Vec<f32> = (0..len * m).map(|i| rows[i % m][i / m]).collect();
                    let row_major = rows.concat();
                    for b in lanes() {
                        let mut xs = vec![0.0f32; len * b];
                        for (i, x) in xs.iter_mut().enumerate() {
                            if (i % b) % 3 != 0 {
                                *x = 0.5 + rng.gen_f32();
                            }
                        }
                        let check = |out: &[f32], out_rm: &[f32], what: &str| {
                            for l in 0..b {
                                let col: Vec<f32> = (0..len).map(|k| xs[k * b + l]).collect();
                                for (j, row) in rows.iter().enumerate() {
                                    let (got, want) = (out[j * b + l], dot_variant(v, row, &col));
                                    assert!(
                                        same(got, want) && same(out_rm[j * b + l], want),
                                        "{what} m={m} bad row {bad} ({poison}) b={b} row {j} lane {l}: {got} vs {want}"
                                    );
                                }
                            }
                            assert!(out[m * b..]
                                .iter()
                                .chain(&out_rm[m * b..])
                                .all(|&s| s == 7.0));
                        };
                        let (mut out, mut out_rm) =
                            (vec![7.0f32; m * b + 16], vec![7.0f32; m * b + 16]);
                        tile_dots_variant(v, &tile, m, &xs, b, &mut out[..m * b]);
                        row_major_dots_variant(v, &row_major, m, &xs, b, &mut out_rm[..m * b]);
                        check(&out, &out_rm, "dispatched");
                        #[cfg(target_arch = "x86_64")]
                        for width in widths() {
                            let (mut out, mut out_rm) =
                                (vec![7.0f32; m * b + 16], vec![7.0f32; m * b + 16]);
                            // SAFETY: `widths` lists only registers this host
                            // has; both planes hold `m` rows of `len`.
                            unsafe {
                                x86::tile_dots(
                                    width,
                                    &tile,
                                    |k, j| k * m + j,
                                    &xs,
                                    b,
                                    &mut out[..m * b],
                                );
                                let rm = |k, j| j * len + k;
                                x86::tile_dots(width, &row_major, rm, &xs, b, &mut out_rm[..m * b]);
                            }
                            check(&out, &out_rm, &format!("{width:?}"));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tile_rows_match_per_row_dot_on_every_block_edge() {
        // Row counts around the row blocks (one to two blocks of four, every
        // remainder, a full 16-row tile), row lengths around the eight
        // sublane chains, lane counts around the register tiles of eight and
        // sixteen lanes, in either register. `tile` and `xs` are
        // exact-length: the last row block and the last lane group end where
        // their allocation ends.
        let v = Variant::Vector;
        if !tile_dots_available(v) {
            return;
        }
        let mut rng = StdRng::seed_from_u64(0x7113);
        for m in (1usize..=9).chain([12, 15, 16]) {
            for len in [0usize, 1, 7, 8, 9, 16, 17, 102] {
                for b in [2usize, 3, 7, 8, 9, 12, 15, 16, 17, 25, 31, 33, 47, 48] {
                    let rows: Vec<Vec<f32>> = (0..m).map(|_| rand_vec(len, &mut rng)).collect();
                    let tile: Box<[f32]> = (0..len * m).map(|i| rows[i % m][i / m]).collect();
                    let xs = rand_vec(len * b, &mut rng).into_boxed_slice();
                    let row_major = rows.concat().into_boxed_slice();
                    let check = |out: &[f32], out_rm: &[f32], what: &str| {
                        for l in 0..b {
                            let col: Vec<f32> = (0..len).map(|k| xs[k * b + l]).collect();
                            for (j, row) in rows.iter().enumerate() {
                                let want = dot_variant(v, row, &col).to_bits();
                                let got = (out[j * b + l].to_bits(), out_rm[j * b + l].to_bits());
                                let at = format!("{what} m={m} len={len} b={b} row {j} lane {l}");
                                assert_eq!(got, (want, want), "{at}");
                            }
                        }
                    };
                    let (mut out, mut out_rm) = (vec![f32::NAN; m * b], vec![f32::NAN; m * b]);
                    tile_dots_variant(v, &tile, m, &xs, b, &mut out);
                    row_major_dots_variant(v, &row_major, m, &xs, b, &mut out_rm);
                    check(&out, &out_rm, "dispatched");
                    #[cfg(target_arch = "x86_64")]
                    for width in widths() {
                        let (mut out, mut out_rm) = (vec![f32::NAN; m * b], vec![f32::NAN; m * b]);
                        // SAFETY: `widths` lists only registers this host
                        // has; both planes hold `m` rows of `len`.
                        unsafe {
                            x86::tile_dots(width, &tile, |k, j| k * m + j, &xs, b, &mut out);
                            x86::tile_dots(
                                width,
                                &row_major,
                                |k, j| j * len + k,
                                &xs,
                                b,
                                &mut out_rm,
                            );
                        }
                        check(&out, &out_rm, &format!("{width:?}"));
                    }
                }
            }
        }
    }

    #[test]
    fn f16_tile_matches_the_decoded_tile_on_every_edge() {
        // Row counts around one, two and four lane groups of eight and
        // sixteen (a pair, a pair and a group, a partial group behind
        // either), row lengths around the eight sublane chains, one stream —
        // the bits are the lane plane, converted as they are loaded, from
        // eight rows up, and in the sixteen-lane register, which masks a
        // partial group of halves, from one — and several, where they are
        // decoded first. The bit plane is exact-length: the tile that ends a
        // partial group ends with the allocation. Then one row carries a
        // NaN / ±∞ half: every other row keeps the clean run's bits.
        let v = Variant::Vector;
        if !tile_dots_available(v) {
            return;
        }
        let same = |x: f32, y: f32| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        let mut rng = StdRng::seed_from_u64(0xF16C);
        for m in (1usize..=17).chain([24, 31, 32, 33, 47, 48]) {
            for len in [0usize, 1, 7, 8, 9, 16, 17, 102] {
                for b in [1usize, 2, 8, 12] {
                    let xs = rand_vec(len * b, &mut rng).into_boxed_slice();
                    let clean = crate::f16::f32_to_f16_bits(&rand_vec(len * m, &mut rng));
                    let run = |bits: Box<[u16]>| {
                        let mut decoded = vec![f32::NAN; bits.len()];
                        crate::f16::f16_bits_to_f32(&bits, &mut decoded);
                        let mut want = vec![f32::NAN; m * b];
                        tile_dots_variant(v, &decoded, m, &xs, b, &mut want);
                        let mut got = vec![7.0f32; m * b + 16];
                        decoded.fill(f32::NAN);
                        tile_dots_f16_variant(v, &bits, m, &xs, b, &mut got[..m * b], &mut decoded);
                        assert!(got[m * b..].iter().all(|&s| s == 7.0));
                        for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                            assert!(same(g, w), "m={m} len={len} b={b} out[{i}]: {g} vs {w}");
                        }
                        // The rows as the lanes of each register that can
                        // load the plane, its halves widened in place.
                        #[cfg(target_arch = "x86_64")]
                        for width in widths() {
                            if b != 1 || (width == x86::Width::Ymm && m < 8) {
                                continue;
                            }
                            let mut got = vec![7.0f32; m + 16];
                            // SAFETY: `widths` lists only registers this host
                            // has; `bits` holds `len` lane rows of `m` halves,
                            // at least eight of them for the eight-lane one.
                            unsafe { x86::dot_batch::<u16>(width, &xs, &bits, m, &mut got[..m]) };
                            assert!(got[m..].iter().all(|&s| s == 7.0));
                            for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                                assert!(
                                    same(g, w),
                                    "{width:?} m={m} len={len} out[{i}]: {g} vs {w}"
                                );
                            }
                        }
                        want
                    };
                    let base = run(clean.clone().into_boxed_slice());
                    if len == 0 {
                        continue;
                    }
                    let bad = m / 2;
                    for poison in [0x7E01u16, 0x7C00, 0xFC00] {
                        let mut bits = clean.clone();
                        bits[(len / 2) * m + bad] = poison;
                        let poisoned = run(bits.into_boxed_slice());
                        for (i, (&p, &c)) in poisoned.iter().zip(&base).enumerate() {
                            assert!(
                                i / b == bad || p.to_bits() == c.to_bits(),
                                "m={m} len={len} b={b} row {} next to {poison:#06x}",
                                i / b
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn broadcast_add_matches_per_lane_axpy() {
        let mut rng = StdRng::seed_from_u64(0xB1A5);
        for (h, b) in [(1usize, 1usize), (37, 1), (5, 3), (8, 8), (13, 4), (32, 9)] {
            let bias = rand_vec(h, &mut rng);
            let base = rand_vec(h * b, &mut rng);
            let mut got = base.clone();
            broadcast_add(&bias, b, &mut got);
            for v in Variant::ALL {
                for j in 0..b {
                    let mut col: Vec<f32> = (0..h).map(|i| base[i * b + j]).collect();
                    axpy_variant(v, 1.0, &bias, &mut col);
                    for i in 0..h {
                        assert_eq!(got[i * b + j], col[i], "{} h={h} b={b}", v.name());
                    }
                }
            }
        }
    }

    #[test]
    fn policy_parsing() {
        assert_eq!(parse_policy("auto"), Some(SimdPolicy::Auto));
        assert_eq!(parse_policy("ON"), Some(SimdPolicy::Auto));
        assert_eq!(
            parse_policy("off"),
            Some(SimdPolicy::Fixed(Variant::ScalarU1))
        );
        assert_eq!(
            parse_policy("Scalar"),
            Some(SimdPolicy::Fixed(Variant::ScalarU1))
        );
        // An unroll factor names no variant.
        for stale in ["u4", "u8"] {
            assert_eq!(parse_policy(stale), None, "{stale}");
        }
        assert_eq!(
            parse_policy("vector"),
            Some(SimdPolicy::Fixed(Variant::Vector))
        );
        assert_eq!(parse_policy("bogus"), None);
    }

    #[test]
    fn variant_metadata() {
        assert_eq!(Variant::ScalarU1.name(), "scalar-u1");
        assert_eq!(Variant::Vector.name(), "vector");
        // lane_width and ISA name agree with availability.
        if vector_available() {
            assert!(lane_width() >= 4);
            assert_ne!(vector_isa(), "none");
        } else {
            assert_eq!(lane_width(), 1);
            assert_eq!(vector_isa(), "none");
        }
    }

    #[test]
    fn ulp_spacing_sane() {
        assert_eq!(ulp_at(1.0), f32::EPSILON);
        assert!(ulp_at(0.0) > 0.0);
        assert!(ulp_at(1024.0) > ulp_at(1.0));
    }
}

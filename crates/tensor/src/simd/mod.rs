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
//! | `vector`    | AVX2+FMA, batches in AVX-512 registers (x86_64)   | ≤ 4 ULPs of u1 (see below) |
//!
//! The scalar definition is what the bit-identity and ULP contracts are
//! stated against (one accumulator, left-to-right association); the vector
//! body is what production runs. It uses one 8-lane AVX2 FMA accumulator
//! register plus a fixed-tree horizontal reduction, which
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
//! **Batched lanes.** The SpMM kernels ([`dot_batch`], [`indexed_dot_batch_variant`])
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
//! 32}`); a one-frame call of the one-stream row tiles stays at eight, where
//! sixteen-lane rows have shown no end-to-end gain, and so do the along-row
//! kernels.
//!
//! **Frames as broadcast rows.** At one stream several frames may share a
//! tile — a chunk's input products, its head. [`tile_frames_variant`] keeps
//! the tile's rows as the lanes and makes four frames the broadcast rows of
//! one sixteen-lane register tile, so every loaded (and widened) lane row
//! serves four frames and each frame's outputs are written where it wants
//! them, with the one-frame body's bits. Eight-lane hosts run the one-frame
//! body per frame: the eight-lane shape did not gain at 103× (EXPERIMENTS.md
//! B3).
//!
//! **Lane tails.** The `b % 8` lanes after the last full group of eight on
//! AVX2 are one more register tile, loaded with `vmaskmovps` and stored
//! through the same mask: *a partial lane group is a masked tile, never a
//! scalar lane loop*. The masked tile runs the accumulators, the tree and
//! the tail of a full tile, so its live lanes carry the same bits and any
//! `b ≥ 2` costs what its `⌈b / 8⌉` tiles cost — continuous batching rarely
//! holds a multiple of eight lanes. It is safe at the end of the buffer:
//! lanes `jb..b` of row `k` lie inside `xs[k·b .. (k+1)·b]`, and masked-off
//! lanes are not accessed — neither read nor written. A plane of f16
//! bits has no masked load on AVX2; its last lanes are the *full* tile that
//! ends at lane `b`, which recomputes the lanes it shares with the tile
//! before it to the same bits. The sixteen-lane register masks with a
//! k-mask and loads halves under it natively (`vmovdqu16`, then
//! `vcvtph2ps`); its last `b % 16` lanes run in the eight-lane register
//! when they fit it (a sixteen-lane row of eight live lanes cost 1.13–1.27×
//! an eight-lane one), so `b ≤ 8` runs the eight-lane tile.
//!
//! There is one vector body, x86_64's: every other target — aarch64
//! included — runs the scalar definitions, which is what every contract here
//! is stated against. A body for another ISA comes with a CI target that
//! compiles and tests it. This file holds the policy, the dispatch and the
//! public entries; `scalar.rs` the scalar definitions, `x86.rs` the x86
//! bodies and register tiles, `sweeps.rs` the x86 activation sweeps.
//!
//! Dispatch is process-global: [`active_variant`] resolves the
//! [`SimdPolicy`] (programmatic [`set_policy`] wins over the `RTM_SIMD`
//! environment variable, which is read once on first use) against the
//! cached CPU-feature detection. The `*_variant` entry points bypass the
//! policy for differential tests and the benchmark harness.

mod scalar;
#[cfg(target_arch = "x86_64")]
mod sweeps;
#[cfg(target_arch = "x86_64")]
mod x86;

use crate::activations::{sigmoid, tanh};
use scalar::*;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A concrete kernel realization the dispatcher can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The naive loop — the scalar definition, the bit-exact reference.
    ScalarU1,
    /// AVX2+FMA on x86_64 (≤ 4-ULP contract); the scalar definition
    /// elsewhere.
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
    /// the scalar definition on CPUs without AVX2+FMA).
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

#[cfg(not(target_arch = "x86_64"))]
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
/// F16C on x86_64; no other target has one). Detection runs once and is
/// cached.
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
/// 16 on AVX-512F/BW/VL/DQ, 8 on AVX2, 1 when no vector path is available.
/// (The along-row kernels and one-frame calls of the one-stream row tiles
/// are eight lanes wide on every x86 host.)
pub fn lane_width() -> usize {
    if !vector_available() {
        1
    } else if wide_available() {
        16
    } else {
        8
    }
}

/// Human-readable name of the detected vector ISA (`"avx2+fma"` or
/// `"none"`), recorded by the benchmark JSON. An AVX-512 host reports
/// `"avx2+fma"` too: it names the arithmetic, which the sixteen-lane bodies
/// reproduce bit for bit; [`lane_width`] tells the widths apart.
pub fn vector_isa() -> &'static str {
    if vector_available() {
        "avx2+fma"
    } else {
        "none"
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
    dot_u1(a, b)
}

fn indexed_dot_vector(vals: &[f32], idx: &[u32], x: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if vector_available() {
        // SAFETY: AVX2+FMA presence verified by `vector_available`.
        return unsafe { x86::indexed_dot(vals, idx, x) };
    }
    indexed_dot_u1(vals, idx, x)
}

fn axpy_vector(alpha: f32, x: &[f32], y: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if vector_available() {
        // SAFETY: AVX2+FMA presence verified by `vector_available`.
        return unsafe { x86::axpy(alpha, x, y) };
    }
    axpy_u1(alpha, x, y)
}

fn hadamard_into_vector(a: &[f32], b: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if vector_available() {
        // SAFETY: AVX2+FMA presence verified by `vector_available`.
        return unsafe { x86::hadamard_into(a, b, out) };
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

/// [`tile_dots_variant`] at one stream for `frames` inputs that share the
/// tile — a row tile's part of a frame-major product: `xs` holds the frames
/// back to back (`xs[t·len + k]`, `len = tile.len() / m`) and frame `t`'s `m`
/// outputs land at `out[t·stride..][..m]`, each **bit-identical** to
/// [`tile_dots_variant`]`(v, tile, m, frame_t, 1, ..)`. *Rows stay the lanes
/// and frames are the broadcast rows*: with sixteen-lane registers four
/// frames at a time share every loaded lane row, so the output is frame-major
/// as computed — no transpose. Eight-lane hosts run the one-frame body per
/// frame (EXPERIMENTS.md B3).
///
/// # Panics
///
/// Panics unless [`tile_dots_available`]`(v)`, or if `tile` is not `m` lanes
/// of `len` rows, `xs.len() != frames · len`, `stride < m` or `out` is
/// shorter than `(frames - 1) · stride + m`.
pub fn tile_frames_variant(
    v: Variant,
    tile: &[f32],
    m: usize,
    xs: &[f32],
    frames: usize,
    out: &mut [f32],
    stride: usize,
) {
    assert!(tile_dots_available(v), "tile_frames: no register-tile body");
    if m == 0 || frames == 0 {
        return;
    }
    let len = frame_len(tile.len(), m, xs, frames, out, stride);
    #[cfg(target_arch = "x86_64")]
    if wide_available() {
        // SAFETY: the feature set of sixteen lanes verified by
        // `wide_available`, the sizes just above.
        return unsafe { x86::tile_frames_zmm::<f32>(xs, frames, tile, m, out, stride) };
    }
    for t in 0..frames {
        let (x, o) = (
            &xs[t * len..(t + 1) * len],
            &mut out[t * stride..t * stride + m],
        );
        tile_dots_variant(v, tile, m, x, 1, o);
    }
}

/// The rows of each frame of a frame-major tile call (`tile_len / m`),
/// checked against the operands' sizes.
fn frame_len(
    tile_len: usize,
    m: usize,
    xs: &[f32],
    frames: usize,
    out: &[f32],
    stride: usize,
) -> usize {
    let len = tile_len / m;
    assert!(
        len * m == tile_len
            && xs.len() == frames * len
            && m <= stride
            && out.len() >= (frames - 1) * stride + m,
        "tile_frames: size mismatch"
    );
    len
}

/// [`tile_frames_variant`] over a tile stored as raw f16 bits: bit-identical
/// to it on the decoded tile. With sixteen-lane registers the bits are
/// widened in the registers they are loaded into, once for four frames;
/// eight-lane hosts run [`tile_dots_f16_variant`] per frame.
///
/// # Panics
///
/// As [`tile_frames_variant`], or if `decoded.len() != tile_bits.len()`.
#[allow(clippy::too_many_arguments)]
pub fn tile_frames_f16_variant(
    v: Variant,
    tile_bits: &[u16],
    m: usize,
    xs: &[f32],
    frames: usize,
    out: &mut [f32],
    stride: usize,
    decoded: &mut [f32],
) {
    assert!(tile_dots_available(v), "tile_frames: no register-tile body");
    assert!(
        decoded.len() == tile_bits.len(),
        "tile_frames: decode window"
    );
    if m == 0 || frames == 0 {
        return;
    }
    let len = frame_len(tile_bits.len(), m, xs, frames, out, stride);
    #[cfg(target_arch = "x86_64")]
    if wide_available() {
        // SAFETY: the feature set of sixteen lanes verified by
        // `wide_available`, the sizes just above.
        return unsafe { x86::tile_frames_zmm::<u16>(xs, frames, tile_bits, m, out, stride) };
    }
    for t in 0..frames {
        let (x, o) = (
            &xs[t * len..(t + 1) * len],
            &mut out[t * stride..t * stride + m],
        );
        tile_dots_f16_variant(v, tile_bits, m, x, 1, o, decoded);
    }
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
/// width, checked exhaustively. Without AVX2 — every other target
/// included — `Vector` is the scalar loop.
pub fn sigmoid_sweep_variant(v: Variant, xs: &mut [f32]) {
    match v {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the feature set of `width()` verified by `vector_available`
        // / `wide_available`.
        Variant::Vector if vector_available() => unsafe {
            sweeps::activation_sweep::<false>(width(), xs)
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
            sweeps::activation_sweep::<true>(width(), xs)
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
                    sweeps::activation_sweep::<false>(width, &mut s);
                    sweeps::activation_sweep::<true>(width, &mut t);
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
                sweeps::activation_sweep::<false>,
                "sigmoid",
            ),
            (tanh_sweep_variant, sweeps::activation_sweep::<true>, "tanh"),
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
    fn frame_tiles_match_the_one_frame_body_per_frame() {
        // Frame counts through two groups of four and every remainder, tile
        // heights through a lane group of eight and a sixteen-lane register
        // (partial ones of halves too), row lengths around the eight sublane
        // chains; f32 lanes and f16 bits, dispatched and — where the host
        // has sixteen lanes — the register body itself. Each frame's
        // outputs land in a plane whose stride leaves a gap the call must
        // not touch, nor anything past the plane, and carry the one-frame
        // body's bits. Then one frame carries a NaN / ±∞ input: it matches
        // its own one-frame result, and every other frame keeps its clean
        // bits.
        let v = Variant::Vector;
        if !tile_dots_available(v) {
            return;
        }
        let same = |x: f32, y: f32| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        let mut rng = StdRng::seed_from_u64(0xF4A3);
        for frames in 1usize..=9 {
            for m in 1usize..=16 {
                for len in [0usize, 1, 7, 8, 9, 102] {
                    let (stride, bad) = (m + 3, frames / 2);
                    let n = (frames - 1) * stride + m;
                    let tile = rand_vec(len * m, &mut rng);
                    let bits = crate::f16::f32_to_f16_bits(&tile);
                    let mut halves = vec![0.0f32; bits.len()];
                    crate::f16::f16_bits_to_f32(&bits, &mut halves);
                    // The contract: the one-frame body, frame by frame.
                    let one_frame = |half: bool, xs: &[f32]| {
                        let plane = if half { &halves } else { &tile };
                        let mut want = vec![7.0f32; n];
                        for t in 0..frames {
                            let o = &mut want[t * stride..t * stride + m];
                            tile_dots_variant(v, plane, m, &xs[t * len..(t + 1) * len], 1, o);
                        }
                        want
                    };
                    // Every realization of the frame-major call: (name,
                    // whether it runs the f16 bits, its output plane).
                    let frame_major = |xs: &[f32]| {
                        let mut runs: Vec<(&str, bool, Vec<f32>)> = Vec::new();
                        let mut run = |name, half, call: &mut dyn FnMut(&mut [f32])| {
                            let mut out = vec![7.0f32; n + 16];
                            call(&mut out[..n]);
                            assert!(out[n..].iter().all(|&s| s == 7.0), "{name}: past the plane");
                            out.truncate(n);
                            runs.push((name, half, out));
                        };
                        run("f32", false, &mut |o| {
                            tile_frames_variant(v, &tile, m, xs, frames, o, stride)
                        });
                        run("f16", true, &mut |o| {
                            let mut decoded = vec![f32::NAN; bits.len()];
                            tile_frames_f16_variant(
                                v,
                                &bits,
                                m,
                                xs,
                                frames,
                                o,
                                stride,
                                &mut decoded,
                            )
                        });
                        #[cfg(target_arch = "x86_64")]
                        if widths().contains(&x86::Width::Zmm) {
                            // SAFETY: `widths` lists only registers this host
                            // has; the sizes are those the dispatched calls
                            // check.
                            run("Zmm f32", false, &mut |o| unsafe {
                                x86::tile_frames_zmm::<f32>(xs, frames, &tile, m, o, stride)
                            });
                            run("Zmm f16", true, &mut |o| unsafe {
                                x86::tile_frames_zmm::<u16>(xs, frames, &bits, m, o, stride)
                            });
                        }
                        runs
                    };
                    let clean = rand_vec(frames * len, &mut rng);
                    let base = frame_major(&clean);
                    for (name, half, got) in &base {
                        let want = one_frame(*half, &clean);
                        for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                            let (t, j) = (i / stride, i % stride);
                            let at =
                                format!("{name} frames={frames} m={m} len={len} frame {t} row {j}");
                            assert_eq!(g.to_bits(), w.to_bits(), "{at}: {g:e} vs {w:e}");
                        }
                    }
                    if len == 0 {
                        continue;
                    }
                    for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                        let mut xs = clean.clone();
                        xs[bad * len + len / 2] = poison;
                        for ((name, half, got), (_, _, clean_got)) in
                            frame_major(&xs).iter().zip(&base)
                        {
                            let want = one_frame(*half, &xs);
                            for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                                let t = i / stride;
                                let at = format!("{name} frames={frames} m={m} len={len} frame {t} ({poison} in frame {bad})");
                                assert!(same(g, w), "{at}: {g:e} vs {w:e}");
                                assert!(t == bad || g.to_bits() == clean_got[i].to_bits(), "{at}");
                            }
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

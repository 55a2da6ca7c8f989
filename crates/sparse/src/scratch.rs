//! The one per-thread scratch of the kernel layer.
//!
//! Every row-range kernel gathers, converts or accumulates through
//! [`KernelScratch`], and the driver quantizes int8 activations into the
//! activation scratch — both thread-local, so pool workers each own a set,
//! chunks run concurrently without sharing, and after the buffers have grown
//! to a model's largest gate the steady state of every kernel, serial or
//! pooled, allocates nothing.
//!
//! The two live in separate cells on purpose: the driver holds the
//! activation codes borrowed for the whole call while the calling thread
//! runs its own chunk, which borrows the kernel scratch.

use rtm_tensor::aligned::AlignedF32;
use rtm_tensor::simd::{self, Variant};
use std::cell::RefCell;
use std::ops::Range;

/// Gathers columns `cols` of the lane-major `[n × b]` plane `xs` into the
/// aligned window of `out` — gathered element `i`, lane `j` at `[i·b + j]`
/// (the plain indexed gather at `b == 1`) — the once-per-column-run load of
/// the paper's redundant-load elimination.
pub(crate) fn gather_f32<'s>(
    out: &'s mut AlignedF32,
    cols: &[u32],
    xs: &[f32],
    b: usize,
) -> &'s [f32] {
    let out = out.window(cols.len() * b);
    if b == 1 {
        for (g, &c) in out.iter_mut().zip(cols) {
            *g = xs[c as usize];
        }
    } else {
        for (lanes, &c) in out.chunks_exact_mut(b).zip(cols) {
            let c = c as usize;
            lanes.copy_from_slice(&xs[c * b..(c + 1) * b]);
        }
    }
    out
}

/// Where a float row kernel's weights come from — the only thing the f32
/// and f16 kernels of a format ever differed in. A format's float kernel is
/// generic over this view, so each precision compiles to its own loop.
pub(crate) trait FloatValues: Copy {
    /// Elements `run` of the value plane as f32.
    fn run<'s>(self, run: Range<usize>, conv: &'s mut AlignedF32) -> &'s [f32]
    where
        Self: 's;

    /// The lane-major `[len × m]` tile stored at `span` against the
    /// lane-major `[len × b]` input `xs`, through the register-tile
    /// primitive of this element type (`simd::tile_dots_available(v)`).
    #[allow(clippy::too_many_arguments)]
    fn tile_dots(
        self,
        v: Variant,
        span: Range<usize>,
        m: usize,
        xs: &[f32],
        b: usize,
        out: &mut [f32],
        conv: &mut AlignedF32,
    );
}

/// The f32 value plane, streamed in place.
impl FloatValues for &[f32] {
    #[inline]
    fn run<'s>(self, run: Range<usize>, _conv: &'s mut AlignedF32) -> &'s [f32]
    where
        Self: 's,
    {
        &self[run]
    }

    #[inline]
    fn tile_dots(
        self,
        v: Variant,
        span: Range<usize>,
        m: usize,
        xs: &[f32],
        b: usize,
        out: &mut [f32],
        _conv: &mut AlignedF32,
    ) {
        simd::tile_dots_variant(v, &self[span], m, xs, b, out)
    }
}

/// The f16 sidecar (raw bit patterns): decoded (exactly) run by run into
/// the conversion scratch, or handed to the tile primitive as stored.
impl FloatValues for &[u16] {
    #[inline]
    fn run<'s>(self, run: Range<usize>, conv: &'s mut AlignedF32) -> &'s [f32]
    where
        Self: 's,
    {
        let out = conv.window(run.len());
        rtm_tensor::f16::f16_bits_to_f32(&self[run], out);
        out
    }

    /// The primitive widens the bits in registers where the tile is the lane
    /// plane (one stream) and decodes them into `conv` only where they are
    /// broadcast operands.
    #[inline]
    fn tile_dots(
        self,
        v: Variant,
        span: Range<usize>,
        m: usize,
        xs: &[f32],
        b: usize,
        out: &mut [f32],
        conv: &mut AlignedF32,
    ) {
        let decoded = conv.window(span.len());
        simd::tile_dots_f16_variant(v, &self[span], m, xs, b, out, decoded)
    }
}

/// Gathers columns `cols` of the lane-major `[n × b]` code plane `xq` into
/// `out` — the int8 twin of [`gather_f32`], same layout.
pub(crate) fn gather_i8(out: &mut Vec<i8>, cols: &[u32], xq: &[i8], b: usize) {
    out.clear();
    if b == 1 {
        out.extend(cols.iter().map(|&c| xq[c as usize]));
    } else {
        for &c in cols {
            let c = c as usize;
            out.extend_from_slice(&xq[c * b..(c + 1) * b]);
        }
    }
}

/// Working buffers of the row-range kernels (contents are meaningless
/// between calls; each kernel overwrites what it uses).
pub(crate) struct KernelScratch {
    /// Gathered f32 activations of the current column run (serial or
    /// lane-major).
    pub gf32: AlignedF32,
    /// f16 values decoded to f32: a BSPC tile whose values are broadcast
    /// operands (`b ≥ 2` lanes, a lone row) or that is de-tiled row by row
    /// (no register-tile body), and every CSR run. A BSPC tile at
    /// one stream never passes through here — its halves are widened in the
    /// registers they are loaded into.
    pub conv: AlignedF32,
    /// One row de-tiled out of a BSPC row tile.
    pub row: AlignedF32,
    /// Gathered int8 activation codes of the current column run.
    pub gi8: Vec<i8>,
    /// Per-block segment lengths of the current BSPC stripe.
    pub seg: Vec<u32>,
}

thread_local! {
    static KERNEL: RefCell<KernelScratch> = const {
        RefCell::new(KernelScratch {
            gf32: AlignedF32::new(),
            conv: AlignedF32::new(),
            row: AlignedF32::new(),
            gi8: Vec::new(),
            seg: Vec::new(),
        })
    };
    static ACTIVATIONS: RefCell<(Vec<i8>, Vec<f32>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Runs `f` with this thread's kernel scratch.
pub(crate) fn with_kernel<R>(f: impl FnOnce(&mut KernelScratch) -> R) -> R {
    KERNEL.with(|cell| f(&mut cell.borrow_mut()))
}

/// Quantizes the lane-major `[cols × b]` plane `xs` into this thread's
/// activation scratch — one symmetric scale per lane, lane `j`'s codes
/// identical to quantizing column `j` alone — and runs `f` on the codes and
/// scales. `b == 1` takes the contiguous single-vector quantizer.
pub(crate) fn with_quantized<R>(xs: &[f32], b: usize, f: impl FnOnce(&[i8], &[f32]) -> R) -> R {
    ACTIVATIONS.with(|cell| {
        let (codes, scales) = &mut *cell.borrow_mut();
        if b == 1 {
            let sx = rtm_tensor::simd_i8::quantize_activations(xs, codes);
            scales.clear();
            scales.push(sx);
        } else {
            rtm_tensor::simd_i8::quantize_activations_lanes(xs, b, codes, scales);
        }
        f(codes, scales)
    })
}

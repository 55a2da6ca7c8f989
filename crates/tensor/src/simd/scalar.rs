// ---------------------------------------------------------------------------
// The scalar definitions. One accumulator, original left-to-right
// association: what every contract in this module is stated against, and what
// runs (vectorised by the compiler where it can be) when the ISA is absent.
// ---------------------------------------------------------------------------

pub(super) fn dot_u1(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

pub(super) fn indexed_dot_u1(vals: &[f32], idx: &[u32], x: &[f32]) -> f32 {
    vals.iter().zip(idx).map(|(&w, &c)| w * x[c as usize]).sum()
}

pub(super) fn axpy_u1(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

pub(super) fn hadamard_into_u1(a: &[f32], b: &[f32], out: &mut [f32]) {
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

pub(super) fn dot_batch_scalar(a: &[f32], xs: &[f32], b: usize, out: &mut [f32]) {
    out.fill(0.0);
    for (k, &w) in a.iter().enumerate() {
        let lanes = &xs[k * b..k * b + b];
        for (o, &xv) in out.iter_mut().zip(lanes) {
            *o += w * xv;
        }
    }
}

pub(super) fn indexed_dot_batch_scalar(
    vals: &[f32],
    idx: &[u32],
    xs: &[f32],
    b: usize,
    out: &mut [f32],
) {
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
// Row tiles. `m` rows stored lane-major (`tile[k·m + j]`) against `b`
// lane-major inputs: row `j`, lane `l` is the scalar definition's sum over
// the row read through the stride `m` — `dot_u1` at one lane (from `-0.0`),
// `dot_batch_scalar`'s lane at `b ≥ 2` (from `+0.0`) — so the tile needs no
// row copy. A product commutes, so the operand order does not move a bit.
// ---------------------------------------------------------------------------

pub(super) fn tile_dots_scalar(tile: &[f32], m: usize, xs: &[f32], b: usize, out: &mut [f32]) {
    let (len, zero) = (xs.len() / b, if b == 1 { -0.0 } else { 0.0 });
    for (j, lanes) in out.chunks_exact_mut(b).enumerate() {
        for (l, o) in lanes.iter_mut().enumerate() {
            *o = (0..len).fold(zero, |acc, k| acc + tile[k * m + j] * xs[k * b + l]);
        }
    }
}

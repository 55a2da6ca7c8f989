//! BSPC — Block-based Structured Pruning Compact format (paper §IV-B-c).
//!
//! After BSP pruning, a weight matrix has two kinds of regularity a generic
//! CSR cannot exploit:
//!
//! 1. **Shared column patterns.** Step 1 prunes whole *columns within each
//!    (row-stripe × column-block)*, so every surviving row of a stripe reads
//!    exactly the same input elements. CSR would store those column indices
//!    once per row; BSPC stores them once per *stripe-block*.
//! 2. **Whole pruned rows.** Step 2 removes rows globally; BSPC keeps a list
//!    of surviving rows and stores nothing at all for the removed ones.
//!
//! The value array is dense *within the kept pattern*: row `r` of stripe `s`
//! stores its weights at the stripe's kept columns only, so the SpMV inner
//! loop is a unit-stride walk with one shared index stream per stripe — this
//! is what enables the compiler's redundant-load elimination.
//!
//! **Rows are lanes.** The rows of a stripe share their loaded input, and
//! the layout carries that sharing into registers: up to `TILE_ROWS` = 16
//! adjacent kept rows form a *row tile*, stored lane-major (element `k` of
//! row `j` at `[k·m + j]`), so one loaded input element feeds every row of
//! the tile and a single-stream SpMV is the lane primitive with the rows as
//! its lanes. *A sparse row is never a call.* The wire format and the int8
//! store (whose block dots run along a row) keep the row-major order.
//!
//! **One store per gate.** The values are held at a precision: an f32
//! plane, f16 bit patterns, or int8 codes with one scale per stripe-block.
//! A gate lowered for the runtime ([`BspcMatrix::from_dense_at`]) or
//! decoded from a blob ([`BspcMatrix::read_from`]) holds exactly the one
//! store of its precision, and a kernel call at any other precision is a
//! [`KernelError::NotHeld`].
//! [`BspcMatrix::from_dense`] holds all three, for the kernel benches that
//! time one matrix at every precision.
//!
//! The paper's BSPC also carries the matrix-reorder permutation; here a
//! stripe's kept rows are stored together, which is the reorder's grouping,
//! so compiled gates carry none ([`BspcMatrix::with_reorder`]).

use crate::footprint::Precision;
use crate::kernel::{self, Activations, KernelError, SparseKernel};
use crate::scratch::{self, FloatValues};
use rtm_tensor::aligned::{Aligned, AlignedF32};
use rtm_tensor::f16::{f16_bits_to_f32, f32_to_f16_bits};
use rtm_tensor::simd::{self, TILE_ROWS};
use rtm_tensor::Matrix;
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Error building a [`BspcMatrix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BspcError {
    /// `num_stripes` or `num_blocks` was zero.
    ZeroPartition,
    /// More stripes than rows or more blocks than columns.
    PartitionTooFine {
        /// Requested (stripes, blocks).
        requested: (usize, usize),
        /// Matrix shape.
        shape: (usize, usize),
    },
    /// A supplied permutation was not a valid permutation of `0..rows`.
    BadPermutation,
    /// A value payload did not match the stored pattern (one value or code
    /// per stored entry, one int8 scale per stripe-block).
    PayloadMismatch,
}

impl fmt::Display for BspcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BspcError::ZeroPartition => write!(f, "stripe and block counts must be positive"),
            BspcError::PartitionTooFine { requested, shape } => write!(
                f,
                "partition {}x{} too fine for {}x{} matrix",
                requested.0, requested.1, shape.0, shape.1
            ),
            BspcError::BadPermutation => write!(f, "row permutation is not a bijection"),
            BspcError::PayloadMismatch => {
                write!(f, "value payload does not match the stored pattern")
            }
        }
    }
}

impl Error for BspcError {}

/// Why a kernel may expect the store of its precision.
const HELD: &str = "drive refuses a precision the matrix does not hold";

/// One value store in the row-major wire order (kept row after kept row,
/// row `k` at [`BspcMatrix::row_offset`]`(k)`): what a blob carries, what
/// [`BspcMatrix::from_parts`] installs as stored, and what
/// [`BspcMatrix::payload`] hands back.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// f32 values.
    F32(Vec<f32>),
    /// binary16 bit patterns.
    F16(Vec<u16>),
    /// Symmetric int8 codes under one scale per `stripe * num_blocks + block`.
    Int8 {
        /// One code per stored value.
        codes: Vec<i8>,
        /// One scale per stripe-block.
        scales: Vec<f32>,
    },
}

/// The int8 store: codes row-major (the int8 block dots run along a row),
/// one symmetric scale per `stripe * num_blocks + block`.
#[derive(Debug, Clone, PartialEq)]
struct Int8Store {
    codes: Vec<i8>,
    scales: Vec<f32>,
}

/// A sparse matrix in the Block-based Structured Pruning Compact format.
#[derive(Debug, Clone, PartialEq)]
pub struct BspcMatrix {
    rows: usize,
    cols: usize,
    num_stripes: usize,
    num_blocks: usize,
    /// Global indices of surviving rows, ascending.
    kept_rows: Vec<u32>,
    /// Kept absolute column indices per `stripe * num_blocks + block`,
    /// ascending within each entry.
    block_cols: Vec<Vec<u32>>,
    /// Flattened kept columns per stripe (concatenation of the stripe's
    /// block column lists) — the shared index stream of the SpMV.
    stripe_cols: Vec<Vec<u32>>,
    /// Offset of each kept row's value run in the row-major order (wire,
    /// int8 store); a tile's span in a tiled store starts at its first
    /// row's offset.
    row_offsets: Vec<u32>,
    /// First kept-row slot of each row tile — up to [`TILE_ROWS`] kept rows
    /// of one stripe with consecutive row numbers — closed by the slot
    /// count. Derived from `kept_rows`.
    tiles: Vec<u32>,
    /// The f32 store: values of the kept rows at their stripe's kept
    /// columns, tile after tile, lane-major `[L × m]` inside a tile of `m`
    /// rows. The plane starts on a cache line: from a 16-byte offset the
    /// one-lane f32 SpMV of a 1024², 10× gate took 11.0–12.0 µs against
    /// 8.6–9.0.
    values: Option<AlignedF32>,
    /// The f16 store: binary16 bit patterns in the layout of `values`, on a
    /// cache line too (from the 16-byte offset a paper-scale block gets,
    /// every other 32-byte lane row of a one-lane tile splits a line).
    values_f16: Option<Aligned<u16>>,
    /// The int8 store.
    int8: Option<Int8Store>,
    /// Optional reorder permutation: `reorder[i]` is the *original* row index
    /// executed at position `i`.
    reorder: Option<Vec<u32>>,
}

impl BspcMatrix {
    /// Builds a BSPC matrix from a dense (pruned) matrix, holding a store at
    /// every precision (the matrix the kernel benches time at all three;
    /// [`BspcMatrix::from_dense_at`] builds the one store a gate runs).
    ///
    /// The kept pattern is detected conservatively: a column survives in a
    /// stripe-block iff *any* row of the stripe is nonzero there, and a row
    /// survives iff it has any nonzero. A matrix that is not actually
    /// BSP-structured still round-trips exactly, it just stores explicit
    /// zeros inside the detected pattern (quantified by
    /// [`Footprint`](crate::Footprint)).
    ///
    /// Stripes and blocks use ceiling division, so the final stripe/block may
    /// be smaller when the dimensions do not divide evenly.
    ///
    /// # Errors
    ///
    /// Returns [`BspcError`] when the partition is empty or finer than the
    /// matrix.
    pub fn from_dense(
        dense: &Matrix,
        num_stripes: usize,
        num_blocks: usize,
    ) -> Result<BspcMatrix, BspcError> {
        let every = [Precision::F32, Precision::F16, Precision::Int8];
        BspcMatrix::lower(dense, num_stripes, num_blocks, &every)
    }

    /// [`BspcMatrix::from_dense`] holding the one store at `precision`: f16
    /// rounds each value to nearest-even, int8 derives the codes and scales
    /// (see [`BspcMatrix::payload`]).
    ///
    /// # Errors
    ///
    /// As [`BspcMatrix::from_dense`].
    pub fn from_dense_at(
        dense: &Matrix,
        num_stripes: usize,
        num_blocks: usize,
        precision: Precision,
    ) -> Result<BspcMatrix, BspcError> {
        BspcMatrix::lower(dense, num_stripes, num_blocks, &[precision])
    }

    /// Detects the pattern of `dense` and installs a store at each of
    /// `precisions`, every one derived from the dense values.
    fn lower(
        dense: &Matrix,
        num_stripes: usize,
        num_blocks: usize,
        precisions: &[Precision],
    ) -> Result<BspcMatrix, BspcError> {
        if num_stripes == 0 || num_blocks == 0 {
            return Err(BspcError::ZeroPartition);
        }
        let (rows, cols) = dense.shape();
        if num_stripes > rows.max(1) || num_blocks > cols.max(1) {
            return Err(BspcError::PartitionTooFine {
                requested: (num_stripes, num_blocks),
                shape: (rows, cols),
            });
        }

        let stripe_h = rows.div_ceil(num_stripes);
        let block_w = cols.div_ceil(num_blocks);

        // Detect kept columns per stripe-block.
        let mut block_cols = vec![Vec::new(); num_stripes * num_blocks];
        for s in 0..num_stripes {
            let r0 = s * stripe_h;
            let r1 = ((s + 1) * stripe_h).min(rows);
            for b in 0..num_blocks {
                let c0 = b * block_w;
                let c1 = ((b + 1) * block_w).min(cols);
                let kept = &mut block_cols[s * num_blocks + b];
                for c in c0..c1 {
                    let mut any = false;
                    for r in r0..r1 {
                        if dense[(r, c)] != 0.0 {
                            any = true;
                            break;
                        }
                    }
                    if any {
                        kept.push(c as u32);
                    }
                }
            }
        }

        // Stripe-level flattened column stream.
        let stripe_cols: Vec<Vec<u32>> = (0..num_stripes)
            .map(|s| {
                let mut v = Vec::new();
                for b in 0..num_blocks {
                    v.extend_from_slice(&block_cols[s * num_blocks + b]);
                }
                v
            })
            .collect();

        // Kept rows and packed values.
        let mut kept_rows = Vec::new();
        let mut row_offsets = Vec::new();
        let mut values = Vec::new();
        for r in 0..rows {
            if dense.row(r).iter().any(|&v| v != 0.0) {
                let s = r / stripe_h;
                kept_rows.push(r as u32);
                row_offsets.push(values.len() as u32);
                let row = dense.row(r);
                for &c in &stripe_cols[s] {
                    values.push(row[c as usize]);
                }
            }
        }

        let mut m = BspcMatrix {
            rows,
            cols,
            num_stripes,
            num_blocks,
            kept_rows,
            block_cols,
            stripe_cols,
            row_offsets,
            tiles: Vec::new(),
            values: None,
            values_f16: None,
            int8: None,
            reorder: None,
        }
        .with_tiles();
        for &precision in precisions {
            let payload = m.derive(precision, values.clone());
            m = m.install(payload)?;
        }
        Ok(m)
    }

    /// Cuts the kept rows into row tiles. The cut is a pure function of the
    /// structure, so two matrices with equal stores always compare equal.
    fn with_tiles(mut self) -> BspcMatrix {
        let stripe_h = self.stripe_height();
        let kept = &self.kept_rows;
        for (k, &r) in kept.iter().enumerate() {
            // A tile ends where the rows stop being adjacent, at a stripe
            // boundary, and when it is full.
            let open = self.tiles.last().is_some_and(|&t| {
                let (t, r0) = (t as usize, kept[t as usize]);
                k - t < TILE_ROWS
                    && (r - r0) as usize == k - t
                    && r as usize / stripe_h == r0 as usize / stripe_h
            });
            if !open {
                self.tiles.push(k as u32);
            }
        }
        self.tiles.push(kept.len() as u32);
        self
    }

    /// Installs `payload` as the store of its precision, as carried: f32
    /// and f16 cut into the tile order, int8 kept row-major.
    fn install(mut self, payload: Payload) -> Result<BspcMatrix, BspcError> {
        let (len, blocks) = (self.stored_len(), self.num_stripes * self.num_blocks);
        match payload {
            Payload::F32(v) if v.len() == len => self.values = Some(self.tiled(&v)),
            Payload::F16(h) if h.len() == len => self.values_f16 = Some(self.tiled(&h)),
            Payload::Int8 { codes, scales } if codes.len() == len && scales.len() == blocks => {
                self.int8 = Some(Int8Store { codes, scales })
            }
            _ => return Err(BspcError::PayloadMismatch),
        }
        Ok(self)
    }

    /// This matrix's structure holding `payload` as its one value store
    /// (the stores it held are dropped).
    ///
    /// # Errors
    ///
    /// Returns [`BspcError::PayloadMismatch`] when the payload's value,
    /// code or scale count disagrees with the structure.
    pub fn with_payload(mut self, payload: Payload) -> Result<BspcMatrix, BspcError> {
        (self.values, self.values_f16, self.int8) = (None, None, None);
        self.install(payload)
    }

    /// The store at `precision` derived from the row-major `values` — the
    /// one place a store is computed rather than carried.
    ///
    /// F16 rounds each value to nearest-even. Int8 uses one symmetric scale
    /// per (stripe, block): within each kept row, the value run splits into
    /// contiguous block segments (the stripe column stream is the
    /// concatenation of its block lists), and every segment of block
    /// `(s, b)` shares `scale = max|v| / 127` over the whole stripe-block.
    /// All-zero blocks get scale 1.0.
    fn derive(&self, precision: Precision, values: Vec<f32>) -> Payload {
        match precision {
            Precision::F32 => Payload::F32(values),
            Precision::F16 => Payload::F16(f32_to_f16_bits(&values)),
            Precision::Int8 => {
                let mut max_abs = vec![0.0f32; self.num_stripes * self.num_blocks];
                self.for_each_block_segment(|block, run| {
                    let m = &mut max_abs[block];
                    for &v in &values[run] {
                        // f32::max ignores a NaN operand, so non-finite
                        // weights (rejected later by model validation
                        // anyway) cannot poison the scale.
                        *m = m.max(v.abs());
                    }
                });
                let scales: Vec<f32> = max_abs
                    .iter()
                    .map(|&m| {
                        if m > 0.0 && m.is_finite() {
                            m / 127.0
                        } else {
                            1.0
                        }
                    })
                    .collect();
                let mut codes = vec![0i8; values.len()];
                self.for_each_block_segment(|block, run| {
                    let scale = scales[block];
                    for i in run {
                        codes[i] = (values[i] / scale).round().clamp(-127.0, 127.0) as i8;
                    }
                });
                Payload::Int8 { codes, scales }
            }
        }
    }

    /// The values at `precision` in the row-major wire order: the store at
    /// `precision` as held, or — when the matrix holds another — derived
    /// from the exact decode of the one it holds
    /// ([`BspcMatrix::row_major_values`]).
    pub fn payload(&self, precision: Precision) -> Payload {
        match (precision, &self.values_f16, &self.int8) {
            (Precision::F16, Some(h), _) => Payload::F16(self.row_major(h.as_slice())),
            (Precision::Int8, _, Some(q)) => Payload::Int8 {
                codes: q.codes.clone(),
                scales: q.scales.clone(),
            },
            _ => self.derive(precision, self.row_major_values()),
        }
    }

    /// The kept-row slots of row tile `t` and where its span starts in
    /// a tiled store.
    fn tile(&self, t: usize) -> (Range<usize>, usize) {
        let slots = self.tiles[t] as usize..self.tiles[t + 1] as usize;
        let base = self.row_offsets[slots.start] as usize;
        (slots, base)
    }

    /// Splits the row tiles `tiles` into maximal runs sharing a stripe — and
    /// hence one column stream — yielding `(stripe, tiles)`. One division per
    /// stripe, none per tile or row.
    fn stripe_tiles(
        &self,
        tiles: Range<usize>,
    ) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        let stripe_h = self.stripe_height();
        let mut t = tiles.start;
        std::iter::from_fn(move || {
            if t >= tiles.end {
                return None;
            }
            let s = self.unit_first_row(t) / stripe_h;
            let start = t;
            t += 1;
            while t < tiles.end && self.unit_first_row(t) < (s + 1) * stripe_h {
                t += 1;
            }
            Some((s, start..t))
        })
    }

    /// The one map between the two value orders: calls `f(wire, stored)` with
    /// every value's index in the row-major wire order and in the tile order.
    fn for_each_value(&self, mut f: impl FnMut(usize, usize)) {
        for (s, run) in self.stripe_tiles(0..self.units()) {
            let len = self.stripe_cols[s].len();
            for t in run {
                let (slots, base) = self.tile(t);
                let m = slots.len();
                for j in 0..m {
                    for k in 0..len {
                        f(base + j * len + k, base + k * m + j);
                    }
                }
            }
        }
    }

    /// The row-major `values` in the tile order, on a cache line.
    fn tiled<T: Copy + Default>(&self, values: &[T]) -> Aligned<T> {
        let mut out = Aligned::new();
        let tiled = out.window(values.len());
        self.for_each_value(|wire, stored| tiled[stored] = values[wire]);
        out
    }

    /// The tile-order `tiled` back in the row-major wire order.
    fn row_major<T: Copy + Default>(&self, tiled: &[T]) -> Vec<T> {
        let mut out = vec![T::default(); tiled.len()];
        self.for_each_value(|wire, stored| out[wire] = tiled[stored]);
        out
    }

    /// The held values decoded exactly to f32, in the row-major order of
    /// the wire format (and of [`BspcMatrix::from_parts`]): kept row after
    /// kept row, row `k` at [`BspcMatrix::row_offset`]`(k)`. An int8 value
    /// decodes as `code · scale`.
    pub fn row_major_values(&self) -> Vec<f32> {
        match (&self.values, &self.values_f16) {
            (Some(v), _) => self.row_major(v.as_slice()),
            (_, Some(h)) => {
                let mut out = vec![0.0f32; h.as_slice().len()];
                f16_bits_to_f32(&self.row_major(h.as_slice()), &mut out);
                out
            }
            (None, None) => {
                let q = self.int8.as_ref().expect("a matrix holds a store");
                let mut out = vec![0.0f32; q.codes.len()];
                self.for_each_block_segment(|block, run| {
                    for i in run {
                        out[i] = q.codes[i] as f32 * q.scales[block];
                    }
                });
                out
            }
        }
    }

    /// Calls `f(block, run)` for every kept row's contiguous block segment,
    /// in order: `block` is the flat stripe-block index
    /// `stripe * num_blocks + block`, `run` the segment's span in the
    /// row-major value order (the granularity the int8 scales live at).
    fn for_each_block_segment(&self, mut f: impl FnMut(usize, Range<usize>)) {
        let stripe_h = self.stripe_height();
        for (k, &r) in self.kept_rows.iter().enumerate() {
            let s = (r as usize) / stripe_h;
            let mut off = self.row_offsets[k] as usize;
            for b in 0..self.num_blocks {
                let len = self.block_cols[s * self.num_blocks + b].len();
                if len > 0 {
                    f(s * self.num_blocks + b, off..off + len);
                }
                off += len;
            }
        }
    }

    /// Attaches a matrix-reorder permutation (original row index per
    /// execution slot). No kernel reads it and the compiler attaches none;
    /// it is kept for files written with one and for the layer probe.
    ///
    /// # Errors
    ///
    /// Returns [`BspcError::BadPermutation`] if `perm` is not a permutation
    /// of `0..self.rows()`.
    pub fn with_reorder(mut self, perm: Vec<u32>) -> Result<BspcMatrix, BspcError> {
        if perm.len() != self.rows {
            return Err(BspcError::BadPermutation);
        }
        let mut seen = vec![false; self.rows];
        for &p in &perm {
            let p = p as usize;
            if p >= self.rows || seen[p] {
                return Err(BspcError::BadPermutation);
            }
            seen[p] = true;
        }
        self.reorder = Some(perm);
        Ok(self)
    }

    /// Number of rows of the logical matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the logical matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-stripe count (the paper's `Numr`).
    pub fn num_stripes(&self) -> usize {
        self.num_stripes
    }

    /// Column-block count per stripe (the paper's `Numc`).
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Stripe height in rows (last stripe may be shorter).
    pub fn stripe_height(&self) -> usize {
        self.rows.div_ceil(self.num_stripes)
    }

    /// Stored (pattern) entries — the number of values a store holds, at
    /// whichever precision.
    pub fn stored_len(&self) -> usize {
        match (self.kept_rows.last(), self.row_offsets.last()) {
            (Some(&r), Some(&off)) => {
                off as usize + self.stripe_cols[r as usize / self.stripe_height()].len()
            }
            _ => 0,
        }
    }

    /// Surviving row indices, ascending.
    pub fn kept_rows(&self) -> &[u32] {
        &self.kept_rows
    }

    /// Kept columns of stripe `s` across all its blocks, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `s >= self.num_stripes()`.
    pub fn stripe_kept_cols(&self, s: usize) -> &[u32] {
        &self.stripe_cols[s]
    }

    /// Kept columns of block `(s, b)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn block_kept_cols(&self, s: usize, b: usize) -> &[u32] {
        &self.block_cols[s * self.num_blocks + b]
    }

    /// The attached reorder permutation, if any.
    pub fn reorder(&self) -> Option<&[u32]> {
        self.reorder.as_deref()
    }

    /// The f32 store in its execution layout (row tile after row tile,
    /// lane-major inside a tile) when the matrix holds one: every stored
    /// value once, for scans, not indexing —
    /// [`BspcMatrix::row_major_values`] is the indexable order.
    pub fn values(&self) -> Option<&[f32]> {
        self.values.as_ref().map(AlignedF32::as_slice)
    }

    /// The f16 store as raw bit patterns (same layout as
    /// [`BspcMatrix::values`]) when the matrix holds one. Decoding each bit
    /// pattern back to f32 is exact, so the f16 kernels match the f32
    /// kernels run on pre-rounded values bit for bit.
    pub fn values_f16(&self) -> Option<&[u16]> {
        self.values_f16.as_ref().map(Aligned::as_slice)
    }

    /// Offset of the `k`-th kept row's value run in the row-major order
    /// ([`BspcMatrix::row_major_values`], the int8 codes).
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.kept_rows().len()`.
    pub fn row_offset(&self, k: usize) -> usize {
        self.row_offsets[k] as usize
    }

    /// Reassembles a matrix from raw parts (the deserialization path),
    /// holding `payload` as its one store.
    ///
    /// # Errors
    ///
    /// Returns [`BspcError`] when the parts are structurally inconsistent:
    /// empty partition, out-of-range or non-ascending kept rows / block
    /// columns, offsets that do not tile the values, a payload whose value,
    /// code or scale count disagrees with the structure, or a bad
    /// permutation.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        rows: usize,
        cols: usize,
        num_stripes: usize,
        num_blocks: usize,
        kept_rows: Vec<u32>,
        block_cols: Vec<Vec<u32>>,
        row_offsets: Vec<u32>,
        payload: Payload,
        reorder: Option<Vec<u32>>,
    ) -> Result<BspcMatrix, BspcError> {
        if num_stripes == 0 || num_blocks == 0 {
            return Err(BspcError::ZeroPartition);
        }
        if num_stripes > rows.max(1) || num_blocks > cols.max(1) {
            return Err(BspcError::PartitionTooFine {
                requested: (num_stripes, num_blocks),
                shape: (rows, cols),
            });
        }
        let bad = || BspcError::PartitionTooFine {
            requested: (num_stripes, num_blocks),
            shape: (rows, cols),
        };
        if block_cols.len() != num_stripes * num_blocks || row_offsets.len() != kept_rows.len() {
            return Err(bad());
        }
        if kept_rows.windows(2).any(|w| w[0] >= w[1])
            || kept_rows.iter().any(|&r| r as usize >= rows)
        {
            return Err(bad());
        }
        for list in &block_cols {
            if list.windows(2).any(|w| w[0] >= w[1]) || list.iter().any(|&c| c as usize >= cols) {
                return Err(bad());
            }
        }
        let stripe_cols: Vec<Vec<u32>> = (0..num_stripes)
            .map(|s| {
                let mut v = Vec::new();
                for b in 0..num_blocks {
                    v.extend_from_slice(&block_cols[s * num_blocks + b]);
                }
                v
            })
            .collect();
        // Offsets must tile the value runs exactly, in kept-row order.
        let stripe_h = rows.div_ceil(num_stripes);
        let mut expected = 0usize;
        for (k, &r) in kept_rows.iter().enumerate() {
            if row_offsets[k] as usize != expected {
                return Err(bad());
            }
            expected += stripe_cols[r as usize / stripe_h].len();
        }
        let m = BspcMatrix {
            rows,
            cols,
            num_stripes,
            num_blocks,
            kept_rows,
            block_cols,
            stripe_cols,
            row_offsets,
            tiles: Vec::new(),
            values: None,
            values_f16: None,
            int8: None,
            reorder: None,
        }
        .with_tiles()
        .with_payload(payload)?;
        match reorder {
            Some(perm) => m.with_reorder(perm),
            None => Ok(m),
        }
    }

    /// Count of explicit index words stored (`u32` units): kept rows + one
    /// column list per stripe-block + per-row offsets. This is the quantity
    /// BSPC compresses relative to CSR's one-index-per-nonzero.
    pub fn index_words(&self) -> usize {
        self.kept_rows.len()
            + self.row_offsets.len()
            + self.block_cols.iter().map(Vec::len).sum::<usize>()
            + self.reorder.as_ref().map_or(0, Vec::len)
    }

    /// [`SparseKernel::spmv_prec_into`] under its pre-trait inherent name
    /// (a one-line forward to the generic driver, kept for callers that do
    /// not import the trait).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] on a shape mismatch or a precision the matrix
    /// does not hold.
    pub fn spmv_prec_into(
        &self,
        prec: Precision,
        x: &[f32],
        y: &mut [f32],
    ) -> Result<(), KernelError> {
        SparseKernel::spmv_prec_into(self, prec, x, y)
    }

    /// [`SparseKernel::spmm_prec_into`] under its pre-trait inherent name
    /// (a one-line forward to the generic driver).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] on a shape mismatch or a precision the matrix
    /// does not hold.
    pub fn spmm_prec_into(
        &self,
        prec: Precision,
        xs: &[f32],
        b: usize,
        ys: &mut [f32],
    ) -> Result<(), KernelError> {
        SparseKernel::spmm_prec_into(self, prec, xs, b, ys)
    }

    /// The float row kernel over the row tiles `tiles` for `b` lanes
    /// (lane-major: output row `r` lands at `ys[(r - y_base) · b ..]`;
    /// pruned rows are left untouched).
    ///
    /// The blocked inner kernel of the paper's redundant-load elimination,
    /// carried into registers: per stripe run the shared column stream is
    /// gathered from `xs` into dense lane-major `[len × b]` scratch once,
    /// then every tile is ONE primitive call over its `[len × m]` values —
    /// the f32 plane, or the f16 store's bits as stored: which primitive is
    /// the value view's business, the only thing the two precisions differ
    /// in.
    fn float_rows_into(
        &self,
        values: impl FloatValues,
        xs: &[f32],
        b: usize,
        tiles: Range<usize>,
        ys: &mut [f32],
        y_base: usize,
    ) {
        let v = simd::active_variant();
        scratch::with_kernel(|scratch| {
            for (s, run) in self.stripe_tiles(tiles) {
                let cols = &self.stripe_cols[s];
                let gathered = scratch::gather_f32(&mut scratch.gf32, cols, xs, b);
                for t in run {
                    let (slots, base) = self.tile(t);
                    let m = slots.len();
                    let r = self.unit_first_row(t) - y_base;
                    let out = &mut ys[r * b..(r + m) * b];
                    let span = base..base + cols.len() * m;
                    values.tile_dots(v, span, m, gathered, b, out, &mut scratch.conv);
                }
            }
        });
    }

    /// The float kernel over `frames` one-lane inputs (`[frames × cols]`)
    /// into the frame-major `ys` (`[frames × rows]`): per stripe run the shared column stream is gathered from every
    /// frame once, then each tile is ONE frame-major primitive call, writing
    /// each frame's rows in place — the frames are its broadcast rows, so
    /// they share every loaded (and widened) lane row of the tile.
    fn float_frames_into(
        &self,
        values: impl FloatValues,
        xs: &[f32],
        frames: usize,
        ys: &mut [f32],
    ) {
        let v = simd::active_variant();
        scratch::with_kernel(|scratch| {
            for (s, run) in self.stripe_tiles(0..self.units()) {
                let cols = &self.stripe_cols[s];
                let gathered = scratch::gather_frames_f32(&mut scratch.gf32, cols, xs, frames);
                for t in run {
                    let (slots, base) = self.tile(t);
                    let m = slots.len();
                    let out = &mut ys[self.unit_first_row(t)..];
                    let span = base..base + cols.len() * m;
                    values.tile_frames(
                        v,
                        span,
                        m,
                        gathered,
                        frames,
                        out,
                        self.rows,
                        &mut scratch.conv,
                    );
                }
            }
        });
    }

    /// The int8 row kernel over the kept rows of the row tiles `tiles` (the
    /// codes are row-major; a tile is its adjacent rows) on pre-quantized
    /// lane-major activations `xq` with per-lane scales `sxs`:
    /// `ys[r·b + j] = sxs[j] · Σ_blk scale_blk · acc_blk` in block order,
    /// every `acc_blk` an exact i32 block dot.
    fn int8_rows_into(
        &self,
        xq: &[i8],
        sxs: &[f32],
        b: usize,
        tiles: Range<usize>,
        ys: &mut [f32],
        y_base: usize,
    ) {
        let q = self.int8.as_ref().expect(HELD);
        let v = simd::active_variant();
        scratch::with_kernel(|scratch| {
            for (s, run) in self.stripe_tiles(tiles) {
                let cols = &self.stripe_cols[s];
                scratch::gather_i8(&mut scratch.gi8, cols, xq, b);
                scratch.seg.clear();
                scratch.seg.extend(
                    (0..self.num_blocks)
                        .map(|blk| self.block_cols[s * self.num_blocks + blk].len() as u32),
                );
                let scales = &q.scales[s * self.num_blocks..(s + 1) * self.num_blocks];
                let nnz = cols.len();
                let row_vals = |kk: usize| {
                    let off = self.row_offsets[kk] as usize;
                    &q.codes[off..off + nnz]
                };
                for t in run {
                    let (slots, _) = self.tile(t);
                    let r = self.unit_first_row(t) - y_base;
                    // Four rows at a time: the quad tile widens each gathered
                    // activation segment once and shares it across the four
                    // value streams, with exact i32 accumulation and the same
                    // block-order dequantize as the single-row tail. A row
                    // tile's rows are adjacent, so the quad's row-major
                    // `[4 × b]` output is `ys` itself.
                    let mut quads = ys[r * b..(r + slots.len()) * b].chunks_exact_mut(4 * b);
                    let mut kk = slots.start;
                    for out in &mut quads {
                        rtm_tensor::simd_i8::row_quad_block_dots_batch_i8(
                            v,
                            [
                                row_vals(kk),
                                row_vals(kk + 1),
                                row_vals(kk + 2),
                                row_vals(kk + 3),
                            ],
                            &scratch.gi8,
                            b,
                            &scratch.seg,
                            scales,
                            sxs,
                            out,
                        );
                        kk += 4;
                    }
                    for out in quads.into_remainder().chunks_exact_mut(b) {
                        rtm_tensor::simd_i8::row_block_dots_batch_i8(
                            v,
                            row_vals(kk),
                            &scratch.gi8,
                            b,
                            &scratch.seg,
                            scales,
                            sxs,
                            out,
                        );
                        kk += 1;
                    }
                }
            }
        });
    }

    /// Expands the exact decode of the held store
    /// ([`BspcMatrix::row_major_values`]) back to a dense matrix: the exact
    /// round trip of the input of [`BspcMatrix::from_dense`].
    pub fn to_dense(&self) -> Matrix {
        let stripe_h = self.stripe_height();
        let values = self.row_major_values();
        let mut m = Matrix::zeros(self.rows, self.cols);
        for (k, &r) in self.kept_rows.iter().enumerate() {
            let r = r as usize;
            let s = r / stripe_h;
            let cols = &self.stripe_cols[s];
            let off = self.row_offsets[k] as usize;
            for (i, &c) in cols.iter().enumerate() {
                m[(r, c as usize)] = values[off + i];
            }
        }
        m
    }
}

/// Partition units are row tiles: a unit costs the `L·m` values it streams
/// and writes `m` adjacent output rows, so a pool chunk never splits a tile,
/// and contiguous tile chunks are exactly the paper reorder's
/// "similar-pattern rows → one chunk per thread", with no permutation.
impl SparseKernel for BspcMatrix {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn trace_keys(&self) -> &'static rtm_trace::key::KernelKeys {
        &rtm_trace::key::KERNEL_BSPC
    }

    fn stored_len(&self) -> usize {
        BspcMatrix::stored_len(self)
    }

    fn computed_rows(&self) -> usize {
        self.kept_rows.len()
    }

    fn units(&self) -> usize {
        self.tiles.len() - 1
    }

    fn unit_cost(&self, u: usize) -> usize {
        let next = self.row_offsets.get(self.tiles[u + 1] as usize);
        next.map_or(self.stored_len(), |&o| o as usize) - self.tile(u).1
    }

    fn unit_first_row(&self, u: usize) -> usize {
        self.kept_rows[self.tiles[u] as usize] as usize
    }

    /// The one store a lowered or decoded gate holds; all three for a
    /// matrix built by [`BspcMatrix::from_dense`].
    fn holds(&self, prec: Precision) -> bool {
        match prec {
            Precision::F32 => self.values.is_some(),
            Precision::F16 => self.values_f16.is_some(),
            Precision::Int8 => self.int8.is_some(),
        }
    }

    /// Every kept row is stored; only pruned rows are left to the driver.
    fn needs_zero_fill(&self) -> bool {
        self.kept_rows.len() != self.rows
    }

    fn rows_into(
        &self,
        activations: Activations<'_>,
        b: usize,
        units: Range<usize>,
        ys: &mut [f32],
        y_base: usize,
    ) {
        match activations {
            Activations::F32(xs) => {
                let values = self.values().expect(HELD);
                self.float_rows_into(values, xs, b, units, ys, y_base)
            }
            Activations::F16(xs) => {
                let values = self.values_f16().expect(HELD);
                self.float_rows_into(values, xs, b, units, ys, y_base)
            }
            Activations::Int8 { codes, scales } => {
                self.int8_rows_into(codes, scales, b, units, ys, y_base)
            }
        }
    }

    /// The float stores run their frames as the broadcast rows of each tile
    /// ([`simd::tile_frames_variant`]); int8, whose block dots run along a
    /// row, runs the one-lane kernel frame by frame.
    fn frames_into(&self, activations: Activations<'_>, frames: usize, ys: &mut [f32]) {
        match activations {
            Activations::F32(xs) => {
                let values = self.values().expect(HELD);
                self.float_frames_into(values, xs, frames, ys)
            }
            Activations::F16(xs) => {
                let values = self.values_f16().expect(HELD);
                self.float_frames_into(values, xs, frames, ys)
            }
            Activations::Int8 { .. } => kernel::frame_by_frame(self, activations, frames, ys),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_tensor::gemm;

    /// A hand-built BSP-structured matrix: 4 rows (2 stripes of 2),
    /// 4 cols (2 blocks of 2). Stripe 0 keeps col 1 in block 0, col 2 in
    /// block 1; stripe 1 keeps cols 0,3; row 3 fully pruned.
    fn bsp_example() -> Matrix {
        Matrix::from_rows(&[
            &[0.0, 1.0, 2.0, 0.0],
            &[0.0, 3.0, 4.0, 0.0],
            &[5.0, 0.0, 0.0, 6.0],
            &[0.0, 0.0, 0.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn from_dense_detects_pattern() {
        let b = BspcMatrix::from_dense(&bsp_example(), 2, 2).unwrap();
        assert_eq!(b.kept_rows(), &[0, 1, 2]);
        assert_eq!(b.block_kept_cols(0, 0), &[1]);
        assert_eq!(b.block_kept_cols(0, 1), &[2]);
        assert_eq!(b.block_kept_cols(1, 0), &[0]);
        assert_eq!(b.block_kept_cols(1, 1), &[3]);
        assert_eq!(b.stripe_kept_cols(0), &[1, 2]);
        assert_eq!(b.stored_len(), 6); // 3 kept rows x 2 kept cols each
    }

    #[test]
    fn roundtrip_exact() {
        let d = bsp_example();
        let b = BspcMatrix::from_dense(&d, 2, 2).unwrap();
        assert_eq!(b.to_dense(), d);
    }

    #[test]
    fn spmv_matches_dense() {
        let d = bsp_example();
        let b = BspcMatrix::from_dense(&d, 2, 2).unwrap();
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(b.spmv(&x).unwrap(), gemm::gemv(&d, &x).unwrap());
    }

    #[test]
    fn unstructured_matrix_still_roundtrips() {
        // Not BSP-structured: pattern detection stores explicit zeros but
        // values must survive exactly.
        let d = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 2.0, 0.0], &[0.0, 0.0, 3.0]]).unwrap();
        let b = BspcMatrix::from_dense(&d, 1, 1).unwrap();
        assert_eq!(b.to_dense(), d);
        // Whole 3x3 block pattern is the union of columns {0,1,2}.
        assert_eq!(b.stripe_kept_cols(0), &[0, 1, 2]);
        assert_eq!(b.stored_len(), 9);
    }

    #[test]
    fn index_words_smaller_than_csr_for_structured() {
        // 64 rows in 4 stripes, each stripe keeps the same 8 columns of 64.
        let rows = 64;
        let cols = 64;
        let d = Matrix::from_fn(rows, cols, |r, c| {
            let stripe = r / 16;
            if c % 8 == stripe {
                1.0
            } else {
                0.0
            }
        });
        let b = BspcMatrix::from_dense(&d, 4, 4).unwrap();
        let csr = crate::CsrMatrix::from_dense(&d);
        // CSR: one u32 per nonzero (64*8) + row_ptr 65.
        let csr_words = csr.nnz() + csr.row_ptr().len();
        assert!(
            b.index_words() < csr_words / 2,
            "bspc {} vs csr {}",
            b.index_words(),
            csr_words
        );
        assert_eq!(b.to_dense(), d);
    }

    #[test]
    fn partition_validation() {
        let d = Matrix::zeros(4, 4);
        assert_eq!(
            BspcMatrix::from_dense(&d, 0, 2).unwrap_err(),
            BspcError::ZeroPartition
        );
        assert!(matches!(
            BspcMatrix::from_dense(&d, 5, 2).unwrap_err(),
            BspcError::PartitionTooFine { .. }
        ));
        assert!(matches!(
            BspcMatrix::from_dense(&d, 2, 5).unwrap_err(),
            BspcError::PartitionTooFine { .. }
        ));
    }

    #[test]
    fn uneven_partition_supported() {
        // 5 rows, 2 stripes -> heights 3 and 2; 7 cols, 3 blocks -> 3,3,1.
        let mut rng = rtm_tensor::init::rng_from_seed(9);
        let d = rtm_tensor::init::uniform(5, 7, -1.0, 1.0, &mut rng).map(|v| {
            if v.abs() < 0.4 {
                0.0
            } else {
                v
            }
        });
        let b = BspcMatrix::from_dense(&d, 2, 3).unwrap();
        assert_eq!(b.to_dense(), d);
        let x: Vec<f32> = (0..7).map(|i| i as f32).collect();
        let want = gemm::gemv(&d, &x).unwrap();
        let got = b.spmv(&x).unwrap();
        for (w, g) in want.iter().zip(&got) {
            assert!((w - g).abs() < 1e-5);
        }
    }

    #[test]
    fn spmv_into_matches_spmv() {
        let d = bsp_example();
        let b = BspcMatrix::from_dense(&d, 2, 2).unwrap();
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let want = b.spmv(&x).unwrap();
        let mut y = vec![99.0f32; 4]; // stale contents must be overwritten
        b.spmv_prec_into(Precision::F32, &x, &mut y).unwrap();
        assert_eq!(y, want);
        // Shape errors on both sides.
        assert!(b.spmv_prec_into(Precision::F32, &[1.0], &mut y).is_err());
        let mut short = vec![0.0; 2];
        assert!(b.spmv_prec_into(Precision::F32, &x, &mut short).is_err());
    }

    #[test]
    fn spmm_lanes_match_spmv_columns() {
        let d = bsp_example();
        let m = BspcMatrix::from_dense(&d, 2, 2).unwrap();
        for b in [1usize, 2, 4, 7, 8, 11] {
            let xs: Vec<f32> = (0..4 * b).map(|i| (i as f32 * 0.53).sin()).collect();
            let mut ys = vec![f32::NAN; 4 * b];
            m.spmm_prec_into(Precision::F32, &xs, b, &mut ys).unwrap();
            assert_eq!(m.spmm(&xs, b).unwrap(), ys);
            for j in 0..b {
                let col: Vec<f32> = (0..4).map(|c| xs[c * b + j]).collect();
                let want = m.spmv(&col).unwrap();
                for r in 0..4 {
                    assert_eq!(ys[r * b + j], want[r], "b={b} lane {j} row {r}");
                }
            }
        }
        assert!(m
            .spmm_prec_into(Precision::F32, &[0.0; 3], 2, &mut [0.0; 8])
            .is_err());
        assert!(m
            .spmm_prec_into(Precision::F32, &[0.0; 8], 2, &mut [0.0; 3])
            .is_err());
    }

    #[test]
    fn reorder_validation() {
        let b = BspcMatrix::from_dense(&bsp_example(), 2, 2).unwrap();
        assert!(b.clone().with_reorder(vec![0, 1, 2, 3]).is_ok());
        assert!(b.clone().with_reorder(vec![3, 2, 1, 0]).is_ok());
        assert_eq!(
            b.clone().with_reorder(vec![0, 0, 1, 2]).unwrap_err(),
            BspcError::BadPermutation
        );
        assert_eq!(
            b.clone().with_reorder(vec![0, 1]).unwrap_err(),
            BspcError::BadPermutation
        );
        assert_eq!(
            b.with_reorder(vec![0, 1, 2, 9]).unwrap_err(),
            BspcError::BadPermutation
        );
    }

    #[test]
    fn reorder_counts_toward_index_words() {
        let b = BspcMatrix::from_dense(&bsp_example(), 2, 2).unwrap();
        let before = b.index_words();
        let with = b.with_reorder(vec![0, 1, 2, 3]).unwrap();
        assert_eq!(with.index_words(), before + 4);
        assert_eq!(with.reorder(), Some(&[0u32, 1, 2, 3][..]));
    }

    #[test]
    fn empty_matrix_error_path() {
        // A 0x0 matrix: partition 1x1 is "too fine" guard-safe via max(1).
        let b = BspcMatrix::from_dense(&Matrix::zeros(0, 0), 1, 1).unwrap();
        assert_eq!(b.stored_len(), 0);
        assert_eq!(b.spmv(&[]).unwrap(), Vec::<f32>::new());
    }

    #[test]
    fn display_of_errors() {
        let e = BspcError::ZeroPartition;
        assert!(!format!("{e}").is_empty());
        let e = BspcError::PartitionTooFine {
            requested: (9, 9),
            shape: (2, 2),
        };
        assert!(format!("{e}").contains("9x9"));
        assert!(!format!("{}", BspcError::BadPermutation).is_empty());
    }

    #[test]
    fn stores_derived_deterministically() {
        let d = bsp_example();
        let every = BspcMatrix::from_dense(&d, 2, 2).unwrap();
        // Each store is a pure function of the structure plus the values:
        // the one-store lowering, the store of the every-store matrix and a
        // matrix reassembled from that store's payload all agree, so the
        // PartialEq derive (which includes the stores) holds.
        for prec in [Precision::F32, Precision::F16, Precision::Int8] {
            let one = BspcMatrix::from_dense_at(&d, 2, 2, prec).unwrap();
            assert_eq!(one.payload(prec), every.payload(prec), "{prec:?}");
            assert_eq!(
                every.clone().with_payload(every.payload(prec)),
                Ok(one.clone())
            );
            for other in [Precision::F32, Precision::F16, Precision::Int8] {
                assert_eq!(one.holds(other), other == prec, "{prec:?} holds {other:?}");
                assert!(every.holds(other));
            }
        }
        let Payload::Int8 { codes, scales } = every.payload(Precision::Int8) else {
            unreachable!("an int8 payload")
        };
        assert_eq!(codes.len(), every.stored_len());
        assert_eq!(scales.len(), 4);
        // Stripe 0 block 0 holds values {1, 3} -> scale 3/127; the max code
        // in each nonempty block is exactly ±127.
        assert!((scales[0] - 3.0 / 127.0).abs() < 1e-7);
        assert!(codes.contains(&127));
    }

    /// A kernel call at a precision the matrix does not hold is a typed
    /// refusal before any output byte is written, serial or batched.
    #[test]
    fn a_store_not_held_is_refused() {
        let d = bsp_example();
        for held in [Precision::F32, Precision::F16, Precision::Int8] {
            let m = BspcMatrix::from_dense_at(&d, 2, 2, held).unwrap();
            for prec in [Precision::F32, Precision::F16, Precision::Int8] {
                let mut y = vec![7.0f32; 4];
                let got = m.spmv_prec_into(prec, &[1.0; 4], &mut y);
                let mut ys = vec![7.0f32; 8];
                let batched = m.spmm_prec_into(prec, &[1.0; 8], 2, &mut ys);
                if prec == held {
                    assert_eq!((got, batched), (Ok(()), Ok(())));
                } else {
                    assert_eq!(got, Err(KernelError::NotHeld(prec)), "{held:?} at {prec:?}");
                    assert_eq!(batched, Err(KernelError::NotHeld(prec)));
                    assert_eq!((y, ys), (vec![7.0; 4], vec![7.0; 8]));
                }
            }
        }
    }

    #[test]
    fn f16_spmv_matches_f32_on_rounded_values() {
        // Round the dense weights through f16 first: then the f16 store is
        // exact and the f16 kernel must match the f32 kernel bit for bit.
        let mut rng = rtm_tensor::init::rng_from_seed(21);
        let d = rtm_tensor::init::uniform(24, 16, -1.0, 1.0, &mut rng).map(|v| {
            if v.abs() < 0.4 {
                0.0
            } else {
                rtm_tensor::f16::quantize_f16(v)
            }
        });
        let m = BspcMatrix::from_dense(&d, 3, 2).unwrap();
        let x: Vec<f32> = (0..16).map(|i| (i as f32 * 0.37).cos()).collect();
        let mut want = vec![0.0f32; 24];
        m.spmv_prec_into(Precision::F32, &x, &mut want).unwrap();
        let mut got = vec![f32::NAN; 24];
        m.spmv_prec_into(Precision::F16, &x, &mut got).unwrap();
        assert_eq!(got, want);
        // Batched f16: every lane bit-identical to the serial f16 SpMV.
        for b in [1usize, 3, 8] {
            let xs: Vec<f32> = (0..16 * b).map(|i| (i as f32 * 0.29).sin()).collect();
            let mut ys = vec![f32::NAN; 24 * b];
            m.spmm_prec_into(Precision::F16, &xs, b, &mut ys).unwrap();
            for j in 0..b {
                let col: Vec<f32> = (0..16).map(|c| xs[c * b + j]).collect();
                let mut yy = vec![0.0f32; 24];
                m.spmv_prec_into(Precision::F16, &col, &mut yy).unwrap();
                for r in 0..24 {
                    assert_eq!(ys[r * b + j], yy[r], "b={b} lane {j} row {r}");
                }
            }
        }
    }

    #[test]
    fn i8_spmv_error_bounded_against_dense() {
        let mut rng = rtm_tensor::init::rng_from_seed(33);
        let d = rtm_tensor::init::uniform(20, 18, -1.0, 1.0, &mut rng).map(|v| {
            if v.abs() < 0.3 {
                0.0
            } else {
                v
            }
        });
        let m = BspcMatrix::from_dense(&d, 4, 3).unwrap();
        let x: Vec<f32> = (0..18).map(|i| (i as f32 * 0.51).sin()).collect();
        let want = gemm::gemv(&d, &x).unwrap();
        let mut got = vec![0.0f32; 20];
        m.spmv_prec_into(Precision::Int8, &x, &mut got).unwrap();
        // Worst case per output: each of the `cols` terms contributes a
        // weight rounding error (scale/2 · |x|) plus an activation rounding
        // error (sx/2 · |w|) plus the cross term.
        let wmax = d.as_slice().iter().fold(0.0f32, |a, v| a.max(v.abs()));
        let xmax = x.iter().fold(0.0f32, |a, v| a.max(v.abs()));
        let Payload::Int8 { scales, .. } = m.payload(Precision::Int8) else {
            unreachable!("an int8 payload")
        };
        let smax = scales.iter().fold(0.0f32, |a, v| a.max(*v));
        let sx = xmax / 127.0;
        let bound = 18.0 * (0.5 * smax * xmax + 0.5 * sx * wmax + 0.25 * smax * sx) + 1e-4;
        for (w, g) in want.iter().zip(&got) {
            assert!((w - g).abs() <= bound, "{w} vs {g} (bound {bound})");
        }
    }

    #[test]
    fn i8_spmm_lanes_match_i8_spmv_exactly() {
        let mut rng = rtm_tensor::init::rng_from_seed(45);
        let d = rtm_tensor::init::uniform(12, 10, -2.0, 2.0, &mut rng).map(|v| {
            if v.abs() < 0.5 {
                0.0
            } else {
                v
            }
        });
        let m = BspcMatrix::from_dense(&d, 3, 2).unwrap();
        for b in [1usize, 2, 5, 8] {
            let xs: Vec<f32> = (0..10 * b).map(|i| (i as f32 * 0.73).cos()).collect();
            let mut ys = vec![f32::NAN; 12 * b];
            m.spmm_prec_into(Precision::Int8, &xs, b, &mut ys).unwrap();
            for j in 0..b {
                let col: Vec<f32> = (0..10).map(|c| xs[c * b + j]).collect();
                let mut yy = vec![0.0f32; 12];
                m.spmv_prec_into(Precision::Int8, &col, &mut yy).unwrap();
                for r in 0..12 {
                    // Per-lane activation scales make lane j's quantization
                    // identical to the serial quantization of its column, so
                    // this equality is exact, not approximate.
                    assert_eq!(ys[r * b + j], yy[r], "b={b} lane {j} row {r}");
                }
            }
        }
    }

    #[test]
    fn payload_counts_are_validated() {
        let m = BspcMatrix::from_dense(&bsp_example(), 2, 2).unwrap();
        let Payload::Int8 { codes, scales } = m.payload(Precision::Int8) else {
            unreachable!("an int8 payload")
        };
        let int8 = |codes, scales| m.clone().with_payload(Payload::Int8 { codes, scales });
        assert!(int8(codes.clone(), scales.clone()).is_ok());
        for (codes, scales) in [(vec![0; 1], scales), (codes, vec![1.0])] {
            assert_eq!(int8(codes, scales), Err(BspcError::PayloadMismatch));
        }
        for short in [Payload::F32(vec![1.0; 5]), Payload::F16(vec![0; 7])] {
            assert_eq!(
                m.clone().with_payload(short),
                Err(BspcError::PayloadMismatch)
            );
        }
    }

    #[test]
    fn quantized_kernels_handle_degenerate_inputs() {
        // Empty matrix: all three precisions accept the empty product.
        let e = BspcMatrix::from_dense(&Matrix::zeros(0, 0), 1, 1).unwrap();
        for p in [Precision::F32, Precision::F16, Precision::Int8] {
            e.spmv_prec_into(p, &[], &mut []).unwrap();
            e.spmm_prec_into(p, &[], 0, &mut []).unwrap();
        }
        // Zero activations: int8 picks the neutral scale and stays exact.
        let m = BspcMatrix::from_dense(&bsp_example(), 2, 2).unwrap();
        let mut y = vec![1.0f32; 4];
        m.spmv_prec_into(Precision::Int8, &[0.0; 4], &mut y)
            .unwrap();
        assert_eq!(y, vec![0.0; 4]);
        // Shape errors propagate through the dispatcher.
        assert!(m
            .spmv_prec_into(Precision::Int8, &[0.0; 2], &mut y)
            .is_err());
        assert!(m
            .spmm_prec_into(Precision::F16, &[0.0; 3], 2, &mut [0.0; 8])
            .is_err());
    }

    /// A BSP-structured `rows × cols` matrix in `kept_cols.len()` stripes:
    /// stripe `s` keeps `kept_cols[s]` seeded columns for all of its rows,
    /// row `r` survives iff `keep_row(r)`, and every kept entry is a nonzero
    /// in `(-1, 1)`.
    fn edge_matrix(
        rows: usize,
        cols: usize,
        kept_cols: &[usize],
        keep_row: impl Fn(usize) -> bool,
    ) -> Matrix {
        let mut rng = rtm_tensor::init::rng_from_seed(0x711E);
        let stripe_h = rows.div_ceil(kept_cols.len());
        let kept: Vec<Vec<bool>> = kept_cols
            .iter()
            .map(|&l| {
                let mut order: Vec<usize> = (0..cols).collect();
                let mut mask = vec![false; cols];
                for i in 0..l {
                    let j = rng.gen_range(i..cols);
                    order.swap(i, j);
                    mask[order[i]] = true;
                }
                mask
            })
            .collect();
        Matrix::from_fn(rows, cols, |r, c| {
            let v = rng.gen_f32() * 2.0 - 1.0;
            if keep_row(r) && kept[r / stripe_h][c] {
                if v == 0.0 {
                    0.5
                } else {
                    v
                }
            } else {
                0.0
            }
        })
    }

    /// The shapes whose kept rows meet every edge a row grouping can have:
    /// a stripe height (13, the last stripe 9) that no register width
    /// divides, with `L ∈ {1, 7, 8, 9, 17}` kept columns; and 40-row stripes
    /// whose pruned rows leave runs of 1, 2 and 20 kept rows, a stripe with
    /// a single kept row, and one losing every ninth row.
    fn edge_denses() -> [(Matrix, usize, usize); 2] {
        let every_height = edge_matrix(100, 70, &[1, 7, 8, 9, 17, 5, 3, 12], |_| true);
        let runs = edge_matrix(120, 40, &[9, 4, 11], |r| match r {
            0..40 => !matches!(r, 1 | 4 | 25..),
            40..80 => r == 57,
            _ => r % 9 != 0,
        });
        [(every_height, 8, 3), (runs, 3, 2)]
    }

    fn edge_matrices() -> Vec<BspcMatrix> {
        let build = |(d, stripes, blocks)| BspcMatrix::from_dense(&d, stripes, blocks).unwrap();
        edge_denses().into_iter().map(build).collect()
    }

    /// What the float kernels are held to: per kept row, the stripe's kept
    /// columns gathered from the dense weights and from input column `j`,
    /// through the one-row `dot` of the active variant; pruned rows `+0.0`.
    fn per_row_reference(m: &BspcMatrix, prec: Precision, xs: &[f32], b: usize) -> Vec<f32> {
        let v = rtm_tensor::simd::active_variant();
        let dense = m.to_dense();
        let mut want = vec![0.0f32; m.rows() * b];
        for &r in m.kept_rows() {
            let r = r as usize;
            let cols = m.stripe_kept_cols(r / m.stripe_height());
            let w: Vec<f32> = cols
                .iter()
                .map(|&c| match prec {
                    Precision::F16 => rtm_tensor::f16::quantize_f16(dense[(r, c as usize)]),
                    _ => dense[(r, c as usize)],
                })
                .collect();
            for j in 0..b {
                let g: Vec<f32> = cols.iter().map(|&c| xs[c as usize * b + j]).collect();
                want[r * b + j] = rtm_tensor::simd::dot_variant(v, &w, &g);
            }
        }
        want
    }

    /// Bit equality, with the two things no kernel contract pins set aside:
    /// which NaN a NaN result is, and — on the scalar batch realization only,
    /// whose lanes start at `+0.0` where `dot`'s `Sum` starts at `-0.0` — the
    /// sign of a zero whose products were all `-0.0`.
    fn assert_rows_match(got: &[f32], want: &[f32], b: usize, what: &str) {
        let scalar_lanes =
            b > 1 && rtm_tensor::simd::active_variant() == rtm_tensor::simd::Variant::ScalarU1;
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let same = g.to_bits() == w.to_bits()
                || (g.is_nan() && w.is_nan())
                || (scalar_lanes && *g == 0.0 && *w == 0.0);
            assert!(same, "{what}: row {} lane {}: {g} vs {w}", i / b, i % b);
        }
    }

    /// The tile-edge contract: on every edge shape, f32 and f16 at
    /// `b ∈ {1, 2, 8, 12}` equal the per-row reference bit for bit, under
    /// whichever SIMD policy the run has (CI runs `auto` and `scalar-u1`) —
    /// for finite inputs carrying both zeros and for inputs with `inf` and
    /// NaN in them.
    #[test]
    fn float_kernels_match_per_row_dots_on_every_tile_edge() {
        for (shape, m) in edge_matrices().iter().enumerate() {
            assert_eq!(
                BspcMatrix::from_dense(&m.to_dense(), m.num_stripes(), m.num_blocks()).as_ref(),
                Ok(m)
            );
            let units: Vec<usize> = (0..m.units()).map(|u| m.unit_first_row(u)).collect();
            assert!(units.windows(2).all(|w| w[0] < w[1]), "shape {shape}");
            for b in [1usize, 2, 8, 12] {
                let mut rng = rtm_tensor::init::rng_from_seed(b as u64);
                let mut xs: Vec<f32> = (0..m.cols() * b)
                    .map(|i| match i % 5 {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.gen_f32() * 2.0 - 1.0,
                    })
                    .collect();
                for special in [false, true] {
                    if special {
                        // One exceptional value in a column each stripe keeps.
                        for s in 0..m.num_stripes() {
                            let c = m.stripe_kept_cols(s)[0] as usize;
                            xs[c * b + s % b] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][s % 3];
                        }
                    }
                    for prec in [Precision::F32, Precision::F16] {
                        let what = format!("shape {shape} {prec:?} b={b} special={special}");
                        let mut ys = vec![f32::NAN; m.rows() * b];
                        m.spmm_prec_into(prec, &xs, b, &mut ys).unwrap();
                        assert_rows_match(&ys, &per_row_reference(m, prec, &xs, b), b, &what);
                        if b == 1 {
                            let mut y = vec![f32::NAN; m.rows()];
                            m.spmv_prec_into(prec, &xs, &mut y).unwrap();
                            assert_rows_match(&y, &ys, 1, &what);
                        }
                    }
                }
            }
        }
    }

    /// The signed-zero hazard of a one-lane row: a zero input against
    /// all-negative rows makes every product `-0.0`, and the sum's sign is
    /// then the accumulator's start — `-0.0` for the scalar definition
    /// (`Sum`), `+0.0` for the vector body. The kernel must land where the
    /// active variant's `dot` lands; pruned rows read `+0.0` either way.
    #[test]
    fn zero_input_against_negative_rows_keeps_the_sign_of_dot() {
        for m in edge_matrices() {
            let negative = m.to_dense().map(|v| -v.abs());
            let m = BspcMatrix::from_dense(&negative, m.num_stripes(), m.num_blocks()).unwrap();
            let x = vec![0.0f32; m.cols()];
            let sign =
                rtm_tensor::simd::dot_variant(rtm_tensor::simd::active_variant(), &[-1.0], &[0.0]);
            for prec in [Precision::F32, Precision::F16] {
                let mut y = vec![f32::NAN; m.rows()];
                m.spmv_prec_into(prec, &x, &mut y).unwrap();
                let mut kept = m.kept_rows().iter().peekable();
                for (r, got) in y.iter().enumerate() {
                    let want = match kept.next_if(|&&k| k as usize == r) {
                        Some(_) => sign,
                        None => 0.0,
                    };
                    assert_eq!(got.to_bits(), want.to_bits(), "{prec:?} row {r}");
                }
            }
        }
    }

    /// Every tile of every edge shape, through the tile primitive in each
    /// variant, lands on the per-row reference's bits: row `j`, lane `l` is
    /// lane `l` of that variant's one-row product — the scalar realization
    /// included, which no production call takes on a host with the ISA.
    #[test]
    fn tiles_match_per_row_dots_in_every_variant() {
        let bits = |ys: &[f32]| ys.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
        for m in edge_matrices() {
            for b in [1usize, 2, 12] {
                let xs: Vec<f32> = (0..m.cols() * b).map(|i| (i as f32 * 0.41).sin()).collect();
                for v in simd::Variant::ALL {
                    for (s, run) in m.stripe_tiles(0..m.units()) {
                        let cols = m.stripe_kept_cols(s);
                        let gathered: Vec<f32> = cols
                            .iter()
                            .flat_map(|&c| &xs[c as usize * b..][..b])
                            .copied()
                            .collect();
                        for t in run {
                            let (slots, base) = m.tile(t);
                            let rows = slots.len();
                            let tile = &m.values().unwrap()[base..base + cols.len() * rows];
                            let mut want = vec![f32::NAN; rows * b];
                            for (j, lanes) in want.chunks_exact_mut(b).enumerate() {
                                let row: Vec<f32> =
                                    (0..cols.len()).map(|k| tile[k * rows + j]).collect();
                                simd::dot_batch_variant(v, &row, &gathered, b, lanes);
                            }
                            let mut got = vec![f32::NAN; rows * b];
                            simd::tile_dots_variant(v, tile, rows, &gathered, b, &mut got);
                            assert_eq!(bits(&got), bits(&want), "{v:?} b={b} tile {t}");
                        }
                    }
                }
            }
        }
    }

    /// Only the wire can make one: kept rows in a stripe that keeps no
    /// column. Their tile is `[0 × m]`; every lane count reads zero.
    #[test]
    fn kept_rows_of_an_empty_stripe_read_zero() {
        let (kept, cols) = (vec![0, 1, 2, 3], vec![vec![1, 2], vec![]]);
        let ones = Payload::F32(vec![1.0; 4]);
        let m = BspcMatrix::from_parts(4, 4, 2, 1, kept, cols, vec![0, 2, 4, 4], ones, None);
        let m = m.unwrap();
        for b in [1usize, 2, 9] {
            for prec in [Precision::F32, Precision::F16, Precision::Int8] {
                let m = m.clone().with_payload(m.payload(prec)).unwrap();
                let mut ys = vec![f32::NAN; 4 * b];
                m.spmm_prec_into(prec, &vec![1.0; 4 * b], b, &mut ys)
                    .unwrap();
                let want = [vec![2.0; 2 * b], vec![0.0; 2 * b]].concat();
                assert_eq!(ys, want, "{prec:?} b={b}");
            }
        }
    }

    /// `needs_zero_fill` is per matrix: with a pruned row the driver clears
    /// the output and the pruned rows read `+0.0` whatever was there; with
    /// none it does not, and the kernel alone overwrites every element.
    #[test]
    fn zero_fill_only_where_a_row_is_pruned() {
        let [full, pruned] = <[BspcMatrix; 2]>::try_from(edge_matrices()).unwrap();
        assert!(!full.needs_zero_fill() && pruned.needs_zero_fill());
        for b in [1usize, 12] {
            let xs: Vec<f32> = (0..pruned.cols() * b)
                .map(|i| (i as f32 * 0.3).cos())
                .collect();
            for prec in [Precision::F32, Precision::F16, Precision::Int8] {
                let mut ys = vec![f32::NAN; pruned.rows() * b];
                pruned.spmm_prec_into(prec, &xs, b, &mut ys).unwrap();
                let mut kept = pruned.kept_rows().iter().peekable();
                for (r, lanes) in ys.chunks_exact(b).enumerate() {
                    if kept.next_if(|&&k| k as usize == r).is_none() {
                        assert!(
                            lanes.iter().all(|y| y.to_bits() == 0),
                            "{prec:?} b={b} row {r}"
                        );
                    }
                }
                let xs = &xs[..b].repeat(full.cols());
                let mut ys = vec![f32::NAN; full.rows() * b];
                full.spmm_prec_into(prec, xs, b, &mut ys).unwrap();
                assert!(ys.iter().all(|y| !y.is_nan()), "{prec:?} b={b}");
            }
        }
    }

    /// The codec through the tile layout: the wire keeps the row-major
    /// order, so a decoded matrix re-encodes to the very same bytes and
    /// decodes to an equal matrix, at every precision — the one-store
    /// lowering at that precision; f32 is lossless.
    #[test]
    fn codec_round_trips_through_the_tile_layout() {
        for (dense, stripes, blocks) in edge_denses() {
            let m = BspcMatrix::from_dense(&dense, stripes, blocks).unwrap();
            assert_eq!(m.to_dense(), dense);
            for prec in [Precision::F32, Precision::F16, Precision::Int8] {
                let bytes = m.to_bytes(prec);
                let (decoded, used) = BspcMatrix::read_from(&bytes).unwrap();
                assert_eq!(used, bytes.len());
                assert_eq!(decoded.to_bytes(prec), bytes, "{prec:?}");
                assert_eq!(
                    BspcMatrix::read_from(&decoded.to_bytes(prec)).unwrap().0,
                    decoded
                );
                let lowered = BspcMatrix::from_dense_at(&dense, stripes, blocks, prec);
                assert_eq!(lowered.as_ref(), Ok(&decoded), "{prec:?}");
                if prec == Precision::F32 {
                    assert_eq!(decoded.to_dense(), dense);
                }
            }
            // The wire order is the order `from_dense` packs: row after row.
            let wire = m.row_major_values();
            for (k, &r) in m.kept_rows().iter().enumerate() {
                let cols = m.stripe_kept_cols(r as usize / m.stripe_height());
                for (i, &c) in cols.iter().enumerate() {
                    assert_eq!(wire[m.row_offset(k) + i], dense[(r as usize, c as usize)]);
                }
            }
        }
    }

    #[test]
    fn values_plane_starts_on_a_cache_line() {
        // A paper-scale plane (1024², every tenth column of a block kept:
        // 419 KB of f32, 210 KB of f16) comes from its own mapping, whose
        // data the allocator puts 16 bytes into a line; the small edge
        // matrices come from the heap. Built with every store or lowered
        // with one, cloned and decoded from the wire, each f32 and f16
        // store starts on a line.
        let big = Matrix::from_fn(
            1024,
            1024,
            |r, c| if c % 10 == 3 { (r + c) as f32 } else { 0.0 },
        );
        let mut denses = vec![(big, 8, 8)];
        denses.extend(edge_denses());
        for (dense, stripes, blocks) in denses {
            let every = BspcMatrix::from_dense(&dense, stripes, blocks).unwrap();
            for prec in [Precision::F32, Precision::F16] {
                let lowered = BspcMatrix::from_dense_at(&dense, stripes, blocks, prec).unwrap();
                let decoded = BspcMatrix::read_from(&every.to_bytes(prec)).unwrap().0;
                for m in [
                    every.clone(),
                    lowered.clone(),
                    lowered,
                    decoded,
                    every.clone(),
                ] {
                    let start = match prec {
                        Precision::F16 => m.values_f16().unwrap().as_ptr() as usize,
                        _ => m.values().unwrap().as_ptr() as usize,
                    };
                    assert_eq!(start % 64, 0, "{prec:?} {} rows", m.rows());
                }
            }
        }
    }

    /// Randomized (seed-driven) round-trip + SpMV property over arbitrary
    /// shapes and partitions.
    #[test]
    fn prop_roundtrip_and_spmv() {
        for seed in 0u64..300 {
            let mut rng = rtm_tensor::init::rng_from_seed(seed);
            let rows = rng.gen_range(1usize..16);
            let cols = rng.gen_range(1usize..16);
            let stripes = rng.gen_range(1usize..4).min(rows);
            let blocks = rng.gen_range(1usize..4).min(cols);
            let d = rtm_tensor::init::uniform(rows, cols, -1.0, 1.0, &mut rng).map(|v| {
                if v.abs() < 0.5 {
                    0.0
                } else {
                    v
                }
            });
            let b = BspcMatrix::from_dense(&d, stripes, blocks).unwrap();
            assert_eq!(b.to_dense(), d, "seed {seed}");
            let x: Vec<f32> = (0..cols).map(|i| (i as f32 * 0.7).sin()).collect();
            let want = gemm::gemv(&d, &x).unwrap();
            let got = b.spmv(&x).unwrap();
            for (w, g) in want.iter().zip(&got) {
                assert!((w - g).abs() < 1e-4, "seed {seed}");
            }
        }
    }
}

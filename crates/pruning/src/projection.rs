//! Constraint-set projections — the ADMM `Z`-update (paper Eq. (4)).
//!
//! ADMM reduces every pruning scheme to one primitive: the Euclidean
//! projection of a weight matrix onto the scheme's constraint set
//! `S = {W : structure(W) holds}`. For magnitude-style schemes the
//! projection keeps the largest entries allowed by the structure and zeroes
//! the rest; for C-LSTM's block-circulant scheme it averages along block
//! diagonals. Each comparison row of Table I corresponds to one
//! [`Projection`] implementation here:
//!
//! | Table I method | projection |
//! |---|---|
//! | BSP step 1 (ours) | [`BspColumnBlock`] |
//! | BSP step 2 (ours) | [`RowPrune`] |
//! | ESE | [`UnstructuredMagnitude`] |
//! | BBS | [`BankBalanced`] |
//! | Wang | [`ColumnPrune`] (+ [`RowPrune`]) |
//! | C-LSTM | [`BlockCirculant`] |
//! | PatDNN | [`PatternMask`] |

use rtm_tensor::stats::{block_col_norms, col_norms, kth_largest_abs, row_norms, top_k_indices};
use rtm_tensor::Matrix;
use std::fmt;

/// Euclidean projection onto a pruning constraint set.
///
/// Implementations must be deterministic: the same input always produces the
/// same output, so ADMM runs are reproducible.
pub trait Projection: fmt::Debug + Send + Sync {
    /// Projects `w` onto the constraint set.
    fn project(&self, w: &Matrix) -> Matrix;

    /// The binary support mask of the projection, when the scheme is
    /// mask-style (`Some`), or `None` for value-transforming schemes such as
    /// block-circulant.
    fn mask(&self, w: &Matrix) -> Option<Matrix> {
        let z = self.project(w);
        Some(z.map(|v| if v != 0.0 { 1.0 } else { 0.0 }))
    }

    /// Short scheme name for reports.
    fn name(&self) -> &'static str;
}

/// Keep the fraction `keep_ratio` of entries with the largest magnitude,
/// anywhere in the matrix (non-structured pruning; ESE / Han et al.).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnstructuredMagnitude {
    keep_ratio: f64,
}

impl UnstructuredMagnitude {
    /// Creates the projection.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < keep_ratio <= 1.0`.
    pub fn new(keep_ratio: f64) -> UnstructuredMagnitude {
        assert!(
            keep_ratio > 0.0 && keep_ratio <= 1.0,
            "keep_ratio must be in (0, 1]"
        );
        UnstructuredMagnitude { keep_ratio }
    }
}

impl Projection for UnstructuredMagnitude {
    fn project(&self, w: &Matrix) -> Matrix {
        if w.is_empty() {
            return w.clone();
        }
        let k = ((w.len() as f64 * self.keep_ratio).round() as usize).max(1);
        let threshold = kth_largest_abs(w, k);
        // Keep entries strictly above, then fill ties up to k deterministically.
        let mut kept = 0usize;
        let mut out = w.map(|v| if v.abs() > threshold { v } else { 0.0 });
        kept += out.count_nonzero();
        if kept < k {
            // Admit tied-at-threshold entries in row-major order.
            let mut remaining = k - kept;
            let w_slice = w.as_slice();
            let out_slice = out.as_mut_slice();
            for (o, &v) in out_slice.iter_mut().zip(w_slice) {
                if remaining == 0 {
                    break;
                }
                if v.abs() == threshold && v != 0.0 && *o == 0.0 {
                    *o = v;
                    remaining -= 1;
                }
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "unstructured-magnitude"
    }
}

/// BSP step 1: row-based column-block pruning (paper §IV-A).
///
/// The matrix is striped into `num_stripes` horizontal groups; each stripe is
/// cut into `num_blocks` column blocks; within each (stripe, block) the
/// columns with the largest L2 norm are kept, at ratio `col_keep_ratio`
/// (i.e. a column compression rate of `1 / col_keep_ratio`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BspColumnBlock {
    num_stripes: usize,
    num_blocks: usize,
    col_keep_ratio: f64,
}

impl BspColumnBlock {
    /// Creates the projection.
    ///
    /// # Panics
    ///
    /// Panics if either partition count is zero or the ratio is not in
    /// `(0, 1]`.
    pub fn new(num_stripes: usize, num_blocks: usize, col_keep_ratio: f64) -> BspColumnBlock {
        assert!(
            num_stripes > 0 && num_blocks > 0,
            "partition must be positive"
        );
        assert!(
            col_keep_ratio > 0.0 && col_keep_ratio <= 1.0,
            "col_keep_ratio must be in (0, 1]"
        );
        BspColumnBlock {
            num_stripes,
            num_blocks,
            col_keep_ratio,
        }
    }

    /// Stripe count (`Numr`).
    pub fn num_stripes(&self) -> usize {
        self.num_stripes
    }

    /// Block count (`Numc`).
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }
}

impl Projection for BspColumnBlock {
    fn project(&self, w: &Matrix) -> Matrix {
        let (rows, cols) = w.shape();
        if rows == 0 || cols == 0 {
            return w.clone();
        }
        let stripes = self.num_stripes.min(rows);
        let blocks = self.num_blocks.min(cols);
        let stripe_h = rows.div_ceil(stripes);
        let block_w = cols.div_ceil(blocks);
        let mut out = Matrix::zeros(rows, cols);
        for s in 0..stripes {
            let r0 = s * stripe_h;
            let r1 = ((s + 1) * stripe_h).min(rows);
            if r0 >= r1 {
                continue;
            }
            for b in 0..blocks {
                let c0 = b * block_w;
                let c1 = ((b + 1) * block_w).min(cols);
                if c0 >= c1 {
                    continue;
                }
                let width = c1 - c0;
                let keep = ((width as f64 * self.col_keep_ratio).round() as usize)
                    .max(1)
                    .min(width);
                let norms = block_col_norms(w, r0, r1, c0, c1);
                for local in top_k_indices(&norms, keep) {
                    let c = c0 + local;
                    for r in r0..r1 {
                        out[(r, c)] = w[(r, c)];
                    }
                }
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "bsp-column-block"
    }
}

/// BSP step 2 (and the row half of Wang): keep the fraction `keep_ratio` of
/// whole rows with the largest L2 norm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowPrune {
    keep_ratio: f64,
}

impl RowPrune {
    /// Creates the projection.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < keep_ratio <= 1.0`.
    pub fn new(keep_ratio: f64) -> RowPrune {
        assert!(
            keep_ratio > 0.0 && keep_ratio <= 1.0,
            "keep_ratio must be in (0, 1]"
        );
        RowPrune { keep_ratio }
    }
}

impl Projection for RowPrune {
    fn project(&self, w: &Matrix) -> Matrix {
        let rows = w.rows();
        if rows == 0 {
            return w.clone();
        }
        let keep = ((rows as f64 * self.keep_ratio).round() as usize)
            .max(1)
            .min(rows);
        let norms = row_norms(w);
        let mut out = Matrix::zeros(rows, w.cols());
        for r in top_k_indices(&norms, keep) {
            out.row_mut(r).copy_from_slice(w.row(r));
        }
        out
    }

    fn name(&self) -> &'static str {
        "row-prune"
    }
}

/// Whole-column structured pruning (Wang et al.; also "channel pruning" on
/// the GEMM view of Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnPrune {
    keep_ratio: f64,
}

impl ColumnPrune {
    /// Creates the projection.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < keep_ratio <= 1.0`.
    pub fn new(keep_ratio: f64) -> ColumnPrune {
        assert!(
            keep_ratio > 0.0 && keep_ratio <= 1.0,
            "keep_ratio must be in (0, 1]"
        );
        ColumnPrune { keep_ratio }
    }
}

impl Projection for ColumnPrune {
    fn project(&self, w: &Matrix) -> Matrix {
        let cols = w.cols();
        if cols == 0 {
            return w.clone();
        }
        let keep = ((cols as f64 * self.keep_ratio).round() as usize)
            .max(1)
            .min(cols);
        let norms = col_norms(w);
        let kept = top_k_indices(&norms, keep);
        let mut keep_flag = vec![false; cols];
        for c in kept {
            keep_flag[c] = true;
        }
        Matrix::from_fn(
            w.rows(),
            cols,
            |r, c| if keep_flag[c] { w[(r, c)] } else { 0.0 },
        )
    }

    fn name(&self) -> &'static str {
        "column-prune"
    }
}

/// Bank-balanced sparsity (BBS, Cao et al. FPGA'19): each row is split into
/// `num_banks` equal banks and the same number of largest-magnitude entries
/// is kept in every bank, giving balanced rows without global structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankBalanced {
    num_banks: usize,
    keep_ratio: f64,
}

impl BankBalanced {
    /// Creates the projection.
    ///
    /// # Panics
    ///
    /// Panics if `num_banks == 0` or the ratio is not in `(0, 1]`.
    pub fn new(num_banks: usize, keep_ratio: f64) -> BankBalanced {
        assert!(num_banks > 0, "bank count must be positive");
        assert!(
            keep_ratio > 0.0 && keep_ratio <= 1.0,
            "keep_ratio must be in (0, 1]"
        );
        BankBalanced {
            num_banks,
            keep_ratio,
        }
    }
}

impl Projection for BankBalanced {
    fn project(&self, w: &Matrix) -> Matrix {
        let (rows, cols) = w.shape();
        if rows == 0 || cols == 0 {
            return w.clone();
        }
        let banks = self.num_banks.min(cols);
        let bank_w = cols.div_ceil(banks);
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let row = w.row(r);
            for b in 0..banks {
                let c0 = b * bank_w;
                let c1 = ((b + 1) * bank_w).min(cols);
                if c0 >= c1 {
                    continue;
                }
                let width = c1 - c0;
                let keep = ((width as f64 * self.keep_ratio).round() as usize)
                    .max(1)
                    .min(width);
                let mags: Vec<f32> = row[c0..c1].iter().map(|v| v.abs()).collect();
                for local in top_k_indices(&mags, keep) {
                    out[(r, c0 + local)] = row[c0 + local];
                }
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "bank-balanced"
    }
}

/// Pattern-based pruning (PatDNN, Niu et al. ASPLOS'20): every row is cut
/// into `block_w`-wide blocks and each block keeps exactly `pattern_nnz`
/// entries, but only at column offsets drawn from a small learned
/// dictionary of at most `num_patterns` offset patterns. The dictionary is
/// built by frequency: each block votes for its own top-`pattern_nnz`
/// offset set, the most popular sets win (lexicographically smallest first
/// on ties, so runs are deterministic), and every block then adopts the
/// dictionary pattern that retains the most energy (Σv²).
///
/// The resulting support is block-structured: whole small blocks share one
/// of a few kept-column lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternMask {
    block_w: usize,
    pattern_nnz: usize,
    num_patterns: usize,
}

impl PatternMask {
    /// Creates the projection.
    ///
    /// # Panics
    ///
    /// Panics if any of `block_w`, `pattern_nnz`, `num_patterns` is zero,
    /// or if `pattern_nnz > block_w`.
    pub fn new(block_w: usize, pattern_nnz: usize, num_patterns: usize) -> PatternMask {
        assert!(block_w > 0, "block width must be positive");
        assert!(
            pattern_nnz > 0 && pattern_nnz <= block_w,
            "pattern nnz must be in [1, block_w]"
        );
        assert!(num_patterns > 0, "pattern dictionary must be non-empty");
        PatternMask {
            block_w,
            pattern_nnz,
            num_patterns,
        }
    }

    /// Block width the patterns span.
    pub fn block_w(&self) -> usize {
        self.block_w
    }

    /// Entries kept per block.
    pub fn pattern_nnz(&self) -> usize {
        self.pattern_nnz
    }

    /// Dictionary capacity.
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    /// The frequency-ranked offset-pattern dictionary this matrix votes
    /// for (at most `num_patterns` entries, each a sorted offset list).
    pub fn dictionary(&self, w: &Matrix) -> Vec<Vec<usize>> {
        let (rows, cols) = w.shape();
        if rows == 0 || cols == 0 {
            return Vec::new();
        }
        let bw = self.block_w.min(cols);
        // Votes from full-width blocks only: ragged tail blocks cannot
        // express every offset, so they adopt but do not elect patterns.
        let mut counts: std::collections::BTreeMap<Vec<usize>, usize> =
            std::collections::BTreeMap::new();
        for r in 0..rows {
            let row = w.row(r);
            let mut c0 = 0;
            while c0 + bw <= cols {
                let mags: Vec<f32> = row[c0..c0 + bw].iter().map(|v| v.abs()).collect();
                let mut offs = top_k_indices(&mags, self.pattern_nnz.min(bw));
                offs.sort_unstable();
                *counts.entry(offs).or_insert(0) += 1;
                c0 += bw;
            }
        }
        // BTreeMap iterates patterns in ascending lexicographic order, so a
        // stable sort by descending count breaks ties toward the smaller
        // pattern — deterministic across runs.
        let mut ranked: Vec<(Vec<usize>, usize)> = counts.into_iter().collect();
        ranked.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        ranked.truncate(self.num_patterns);
        ranked.into_iter().map(|(p, _)| p).collect()
    }
}

impl Projection for PatternMask {
    fn project(&self, w: &Matrix) -> Matrix {
        let (rows, cols) = w.shape();
        if rows == 0 || cols == 0 {
            return w.clone();
        }
        let bw = self.block_w.min(cols);
        let dict = self.dictionary(w);
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let row = w.row(r);
            for c0 in (0..cols).step_by(bw) {
                let width = (cols - c0).min(bw);
                // Pick the dictionary pattern retaining the most energy in
                // this block; offsets past a ragged edge retain nothing.
                let best = dict
                    .iter()
                    .max_by(|a, b| {
                        let ea: f32 = a
                            .iter()
                            .filter(|&&o| o < width)
                            .map(|&o| row[c0 + o] * row[c0 + o])
                            .sum();
                        let eb: f32 = b
                            .iter()
                            .filter(|&&o| o < width)
                            .map(|&o| row[c0 + o] * row[c0 + o])
                            .sum();
                        // max_by keeps the *last* max on ties; compare with
                        // the earlier (more frequent) pattern winning them.
                        ea.partial_cmp(&eb)
                            .expect("finite energies")
                            .then(std::cmp::Ordering::Greater)
                    })
                    .cloned();
                if let Some(pat) = best {
                    for &o in pat.iter().filter(|&&o| o < width) {
                        out[(r, c0 + o)] = row[c0 + o];
                    }
                } else {
                    // Empty dictionary (no full-width block anywhere): fall
                    // back to per-block magnitude top-k.
                    let mags: Vec<f32> = row[c0..c0 + width].iter().map(|v| v.abs()).collect();
                    for o in top_k_indices(&mags, self.pattern_nnz.min(width)) {
                        out[(r, c0 + o)] = row[c0 + o];
                    }
                }
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "pattern-mask"
    }
}

/// Block-circulant projection (C-LSTM, Wang et al. FPGA'18): each
/// `block_size × block_size` block is replaced by its nearest circulant
/// matrix — every wrapped diagonal is averaged. A full block then stores only
/// `block_size` distinct values, giving a compression rate of `block_size`.
/// Ragged edge blocks (when dimensions do not divide) are left unconstrained,
/// as in the original paper's padding scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCirculant {
    block_size: usize,
}

impl BlockCirculant {
    /// Creates the projection.
    ///
    /// # Panics
    ///
    /// Panics if `block_size == 0`.
    pub fn new(block_size: usize) -> BlockCirculant {
        assert!(block_size > 0, "block size must be positive");
        BlockCirculant { block_size }
    }

    /// The block edge (also the per-block compression rate).
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of distinct parameters a `rows × cols` matrix stores under
    /// this scheme: `b` values per full `b × b` block plus every ragged-edge
    /// entry verbatim.
    pub fn stored_params(&self, rows: usize, cols: usize) -> usize {
        let b = self.block_size;
        let full_r = rows / b;
        let full_c = cols / b;
        let full = full_r * full_c * b;
        let ragged = rows * cols - (full_r * b) * (full_c * b);
        full + ragged
    }
}

impl Projection for BlockCirculant {
    fn project(&self, w: &Matrix) -> Matrix {
        let (rows, cols) = w.shape();
        let b = self.block_size;
        let mut out = w.clone();
        for r0 in (0..rows).step_by(b) {
            if r0 + b > rows {
                break; // ragged edge rows stay unconstrained
            }
            for c0 in (0..cols).step_by(b) {
                if c0 + b > cols {
                    break;
                }
                // Average along wrapped diagonals: diagonal d collects
                // entries (i, (i + d) mod b).
                for d in 0..b {
                    let mut sum = 0.0f32;
                    for i in 0..b {
                        sum += w[(r0 + i, c0 + (i + d) % b)];
                    }
                    let avg = sum / b as f32;
                    for i in 0..b {
                        out[(r0 + i, c0 + (i + d) % b)] = avg;
                    }
                }
            }
        }
        out
    }

    fn mask(&self, _w: &Matrix) -> Option<Matrix> {
        // Value-transforming scheme: support stays dense.
        None
    }

    fn name(&self) -> &'static str {
        "block-circulant"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_matrix() -> Matrix {
        Matrix::from_fn(8, 8, |r, c| ((r * 8 + c) as f32 * 0.37).sin())
    }

    #[test]
    fn unstructured_keeps_exact_count() {
        let w = test_matrix();
        for ratio in [0.1, 0.25, 0.5, 1.0] {
            let p = UnstructuredMagnitude::new(ratio);
            let z = p.project(&w);
            // Entries that are exactly zero cannot be "kept", so the target
            // count is capped by the input's nonzero count (the test matrix
            // contains sin(0) = 0).
            let want = ((64.0 * ratio).round() as usize)
                .max(1)
                .min(w.count_nonzero());
            assert_eq!(z.count_nonzero(), want, "ratio {ratio}");
        }
    }

    #[test]
    fn unstructured_keeps_largest() {
        let w = Matrix::from_rows(&[&[0.1, -5.0, 0.2, 3.0]]).unwrap();
        let z = UnstructuredMagnitude::new(0.5).project(&w);
        assert_eq!(z.as_slice(), &[0.0, -5.0, 0.0, 3.0]);
    }

    #[test]
    fn unstructured_handles_ties() {
        let w = Matrix::from_rows(&[&[1.0, 1.0, 1.0, 1.0]]).unwrap();
        let z = UnstructuredMagnitude::new(0.5).project(&w);
        assert_eq!(z.count_nonzero(), 2);
    }

    #[test]
    fn bsp_block_structure_holds() {
        let w = test_matrix();
        // 2 stripes x 2 blocks, keep 25% of columns per block (1 of 4).
        let p = BspColumnBlock::new(2, 2, 0.25);
        let z = p.project(&w);
        // Within each stripe-block, surviving columns must be column-uniform:
        // a column is either fully kept or fully zero across the stripe rows.
        for s in 0..2 {
            for b in 0..2 {
                for c in 0..4 {
                    let col = b * 4 + c;
                    let vals: Vec<bool> =
                        (s * 4..(s + 1) * 4).map(|r| z[(r, col)] != 0.0).collect();
                    assert!(
                        vals.iter().all(|&x| x == vals[0]),
                        "column {col} must be uniform within stripe {s}"
                    );
                }
                // Exactly 1 of 4 columns kept per block.
                let kept: usize = (b * 4..(b + 1) * 4)
                    .filter(|&col| z[(s * 4, col)] != 0.0 || z[(s * 4 + 1, col)] != 0.0)
                    .count();
                assert_eq!(kept, 1, "stripe {s} block {b}");
            }
        }
    }

    #[test]
    fn bsp_keeps_highest_norm_columns() {
        // One dominant column per block must survive.
        let mut w = Matrix::zeros(4, 4);
        for r in 0..4 {
            w[(r, 1)] = 10.0; // block 0 dominant
            w[(r, 3)] = 10.0; // block 1 dominant
            w[(r, 0)] = 0.1;
            w[(r, 2)] = 0.1;
        }
        let z = BspColumnBlock::new(1, 2, 0.5).project(&w);
        assert_eq!(z.col(1), vec![10.0; 4]);
        assert_eq!(z.col(3), vec![10.0; 4]);
        assert_eq!(z.col(0), vec![0.0; 4]);
    }

    #[test]
    fn row_prune_keeps_top_rows() {
        let w = Matrix::from_rows(&[&[10.0, 10.0], &[0.1, 0.1], &[5.0, 5.0], &[0.2, 0.2]]).unwrap();
        let z = RowPrune::new(0.5).project(&w);
        assert_eq!(z.row(0), &[10.0, 10.0]);
        assert_eq!(z.row(2), &[5.0, 5.0]);
        assert_eq!(z.row(1), &[0.0, 0.0]);
        assert_eq!(z.row(3), &[0.0, 0.0]);
    }

    #[test]
    fn column_prune_keeps_top_columns() {
        let w = Matrix::from_rows(&[&[10.0, 0.1, 5.0, 0.2], &[10.0, 0.1, 5.0, 0.2]]).unwrap();
        let z = ColumnPrune::new(0.5).project(&w);
        assert_eq!(z.col(0), vec![10.0; 2]);
        assert_eq!(z.col(2), vec![5.0; 2]);
        assert_eq!(z.col(1), vec![0.0; 2]);
    }

    #[test]
    fn bank_balanced_per_row_per_bank() {
        let w = Matrix::from_rows(&[
            &[9.0, 0.1, 0.2, 8.0], // bank 0: keep 9.0; bank 1: keep 8.0
            &[0.1, 7.0, 6.0, 0.2],
        ])
        .unwrap();
        let z = BankBalanced::new(2, 0.5).project(&w);
        assert_eq!(z.row(0), &[9.0, 0.0, 0.0, 8.0]);
        assert_eq!(z.row(1), &[0.0, 7.0, 6.0, 0.0]);
        // Every row has identical nnz — the "balanced" property.
        assert_eq!(
            z.row(0).iter().filter(|&&v| v != 0.0).count(),
            z.row(1).iter().filter(|&&v| v != 0.0).count()
        );
    }

    #[test]
    fn block_circulant_produces_circulant_blocks() {
        let w = test_matrix();
        let p = BlockCirculant::new(4);
        let z = p.project(&w);
        // Check circulant property: z[i][(i+d)%b] constant along d.
        for r0 in (0..8).step_by(4) {
            for c0 in (0..8).step_by(4) {
                for d in 0..4 {
                    let v0 = z[(r0, c0 + d)];
                    for i in 1..4 {
                        assert!(
                            (z[(r0 + i, c0 + (i + d) % 4)] - v0).abs() < 1e-6,
                            "diagonal {d} must be constant"
                        );
                    }
                }
            }
        }
        // No mask for a value-transforming scheme.
        assert!(p.mask(&w).is_none());
    }

    #[test]
    fn block_circulant_is_projection_fixpoint() {
        // Projecting twice equals projecting once (idempotence).
        let w = test_matrix();
        let p = BlockCirculant::new(4);
        let z1 = p.project(&w);
        let z2 = p.project(&z1);
        for (a, b) in z1.as_slice().iter().zip(z2.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn block_circulant_ragged_edges_untouched() {
        let w = Matrix::from_fn(5, 5, |r, c| (r * 5 + c) as f32);
        let z = BlockCirculant::new(4).project(&w);
        // Row 4 and column 4 are outside any full 4x4 block.
        assert_eq!(z.row(4), w.row(4));
        assert_eq!(z.col(4), w.col(4));
    }

    #[test]
    fn pattern_mask_blocks_use_dictionary_patterns() {
        let w = test_matrix();
        let p = PatternMask::new(4, 2, 3);
        let dict = p.dictionary(&w);
        assert!(!dict.is_empty() && dict.len() <= 3);
        let z = p.project(&w);
        // Every full block's kept-offset set must be one of the dictionary
        // patterns (restricted to offsets the block actually kept).
        for r in 0..8 {
            for c0 in (0..8).step_by(4) {
                let offs: Vec<usize> = (0..4).filter(|&o| z[(r, c0 + o)] != 0.0).collect();
                assert!(
                    dict.iter().any(|p| offs.iter().all(|o| p.contains(o))),
                    "row {r} block {c0}: offsets {offs:?} not from dictionary {dict:?}"
                );
            }
        }
    }

    #[test]
    fn pattern_mask_uniform_rows_share_one_pattern() {
        // Every row identical → one pattern dominates and every block
        // keeps exactly the same offsets.
        let w = Matrix::from_fn(6, 8, |_, c| [0.1, 9.0, 0.2, 8.0, 0.1, 9.0, 0.2, 8.0][c]);
        let p = PatternMask::new(4, 2, 2);
        let dict = p.dictionary(&w);
        assert_eq!(dict[0], vec![1, 3]);
        let z = p.project(&w);
        for r in 0..6 {
            assert_eq!(z.row(r), &[0.0, 9.0, 0.0, 8.0, 0.0, 9.0, 0.0, 8.0]);
        }
    }

    #[test]
    fn pattern_mask_ragged_tail_handled() {
        // 10 columns with block_w 4: the last block is 2 wide and must
        // still prune without panicking or keeping out-of-range offsets.
        let w = Matrix::from_fn(3, 10, |r, c| 1.0 + (r * 10 + c) as f32 / 10.0);
        let z = PatternMask::new(4, 2, 4).project(&w);
        assert_eq!(z.shape(), (3, 10));
        for r in 0..3 {
            let nnz = z.row(r).iter().filter(|&&v| v != 0.0).count();
            assert!(nnz <= 6, "row {r} kept {nnz}");
        }
    }

    #[test]
    fn projection_names() {
        assert_eq!(
            UnstructuredMagnitude::new(0.5).name(),
            "unstructured-magnitude"
        );
        assert_eq!(BspColumnBlock::new(1, 1, 0.5).name(), "bsp-column-block");
        assert_eq!(RowPrune::new(0.5).name(), "row-prune");
        assert_eq!(ColumnPrune::new(0.5).name(), "column-prune");
        assert_eq!(BankBalanced::new(2, 0.5).name(), "bank-balanced");
        assert_eq!(PatternMask::new(4, 2, 8).name(), "pattern-mask");
        assert_eq!(BlockCirculant::new(2).name(), "block-circulant");
    }

    #[test]
    fn constructor_validation() {
        assert!(std::panic::catch_unwind(|| UnstructuredMagnitude::new(0.0)).is_err());
        assert!(std::panic::catch_unwind(|| UnstructuredMagnitude::new(1.5)).is_err());
        assert!(std::panic::catch_unwind(|| BspColumnBlock::new(0, 1, 0.5)).is_err());
        assert!(std::panic::catch_unwind(|| BankBalanced::new(0, 0.5)).is_err());
        assert!(std::panic::catch_unwind(|| PatternMask::new(0, 1, 4)).is_err());
        assert!(std::panic::catch_unwind(|| PatternMask::new(4, 5, 4)).is_err());
        assert!(std::panic::catch_unwind(|| PatternMask::new(4, 2, 0)).is_err());
        assert!(std::panic::catch_unwind(|| BlockCirculant::new(0)).is_err());
    }

    /// All mask-style projections: projecting twice must equal projecting
    /// once on the support level, and the default mask must match the
    /// projected support.
    #[test]
    fn masks_match_support() {
        let w = test_matrix();
        let projections: Vec<Box<dyn Projection>> = vec![
            Box::new(UnstructuredMagnitude::new(0.3)),
            Box::new(BspColumnBlock::new(2, 2, 0.5)),
            Box::new(RowPrune::new(0.5)),
            Box::new(ColumnPrune::new(0.25)),
            Box::new(BankBalanced::new(4, 0.5)),
            Box::new(PatternMask::new(4, 2, 6)),
        ];
        for p in &projections {
            let z = p.project(&w);
            let mask = p.mask(&w).expect("mask-style projection");
            for (zi, mi) in z.as_slice().iter().zip(mask.as_slice()) {
                assert_eq!(*mi != 0.0, *zi != 0.0, "{}", p.name());
            }
        }
    }

    /// Projections never increase the Frobenius norm and never invent
    /// values (each output entry is either 0, the input value, or — for
    /// circulant — a convex average of input values).
    #[test]
    fn prop_projection_contracts() {
        for seed in 0u64..200 {
            let mut rng = rtm_tensor::init::rng_from_seed(seed);
            let w = rtm_tensor::init::uniform(8, 8, -1.0, 1.0, &mut rng);
            let projections: Vec<Box<dyn Projection>> = vec![
                Box::new(UnstructuredMagnitude::new(0.4)),
                Box::new(BspColumnBlock::new(2, 2, 0.5)),
                Box::new(RowPrune::new(0.5)),
                Box::new(ColumnPrune::new(0.5)),
                Box::new(BankBalanced::new(2, 0.5)),
                Box::new(PatternMask::new(4, 2, 6)),
                Box::new(BlockCirculant::new(4)),
            ];
            for p in &projections {
                let z = p.project(&w);
                assert!(
                    z.frobenius_norm() <= w.frobenius_norm() + 1e-4,
                    "seed {seed}: {} inflated the norm",
                    p.name()
                );
                assert_eq!(z.shape(), w.shape(), "seed {seed}");
            }
        }
    }
}

//! Byte-level memory accounting per storage format.
//!
//! Table II's discussion attributes RTMobile's mobile-GPU win partly to BSPC
//! "significantly reduc\[ing\] the memory footprint thus alleviating the
//! memory-bound issue". The simulator charges memory cycles proportional to
//! bytes moved, so the numbers here directly drive the Table II and
//! ablation-A3 results.

use crate::{BspcMatrix, CsrMatrix};
use rtm_tensor::Matrix;

/// Size in bytes of one stored weight scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// 32-bit float (CPU path).
    #[default]
    F32,
    /// 16-bit float (the paper's mobile-GPU path).
    F16,
    /// Symmetric int8 weights (one byte per weight plus explicit f32 scale
    /// metadata — per stripe-block for BSPC, per row block for CSR, one
    /// per tensor for dense).
    Int8,
}

impl Precision {
    /// Bytes per scalar.
    pub fn bytes(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::F16 => 2,
            Precision::Int8 => 1,
        }
    }

    /// Short lowercase label ("f32" / "f16" / "int8") — used for trace keys,
    /// report fields and CLI round trips.
    pub fn tag(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::F16 => "f16",
            Precision::Int8 => "int8",
        }
    }
}

/// Byte breakdown of one stored matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Footprint {
    /// Bytes holding weight values.
    pub value_bytes: usize,
    /// Bytes holding structural indices (column ids, pointers, permutations).
    pub index_bytes: usize,
    /// Bytes holding quantization scale metadata (int8 only: one f32 per
    /// scale group; zero for f32/f16 storage).
    pub scale_bytes: usize,
}

impl Footprint {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.value_bytes + self.index_bytes + self.scale_bytes
    }

    /// Footprint of a dense matrix: `rows*cols` scalars and no indices;
    /// int8 adds the single per-tensor scale.
    pub fn dense(m: &Matrix, prec: Precision) -> Footprint {
        Footprint {
            value_bytes: m.len() * prec.bytes(),
            index_bytes: 0,
            scale_bytes: if prec == Precision::Int8 { 4 } else { 0 },
        }
    }

    /// Footprint of a CSR matrix stored at `prec`: one scalar and one `u32`
    /// column index per nonzero plus the `rows + 1` row-pointer array; int8
    /// adds one f32 scale per [`CsrMatrix::ROW_BLOCK`] rows. Structural
    /// pricing (the simulator's and the benches' byte counts): a
    /// [`CsrMatrix`] itself holds f32.
    pub fn csr(m: &CsrMatrix, prec: Precision) -> Footprint {
        Footprint {
            value_bytes: m.nnz() * prec.bytes(),
            index_bytes: (m.nnz() + m.row_ptr().len()) * 4,
            scale_bytes: if prec == Precision::Int8 {
                m.rows().div_ceil(CsrMatrix::ROW_BLOCK) * 4
            } else {
                0
            },
        }
    }

    /// Footprint of a BSPC matrix: stored pattern values plus the shared
    /// per-stripe-block index words (see [`BspcMatrix::index_words`]); int8
    /// adds one f32 scale per (stripe, block).
    pub fn bspc(m: &BspcMatrix, prec: Precision) -> Footprint {
        Footprint {
            value_bytes: m.stored_len() * prec.bytes(),
            index_bytes: m.index_words() * 4,
            scale_bytes: if prec == Precision::Int8 {
                m.num_stripes() * m.num_blocks() * 4
            } else {
                0
            },
        }
    }

    /// Compression factor of this footprint relative to `dense_bytes`
    /// (higher is better). Returns infinity if this footprint is empty.
    pub fn compression_vs(&self, dense_bytes: usize) -> f64 {
        if self.total() == 0 {
            f64::INFINITY
        } else {
            dense_bytes as f64 / self.total() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn structured(rows: usize, cols: usize, stripes: usize, keep_per_stripe: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let s = r / (rows / stripes);
            if c % (cols / keep_per_stripe) == s % (cols / keep_per_stripe) {
                0.5
            } else {
                0.0
            }
        })
    }

    #[test]
    fn precision_bytes() {
        assert_eq!(Precision::F32.bytes(), 4);
        assert_eq!(Precision::F16.bytes(), 2);
        assert_eq!(Precision::Int8.bytes(), 1);
        assert_eq!(Precision::default(), Precision::F32);
        assert_eq!(Precision::F32.tag(), "f32");
        assert_eq!(Precision::F16.tag(), "f16");
        assert_eq!(Precision::Int8.tag(), "int8");
    }

    #[test]
    fn int8_charges_scale_metadata() {
        let m = structured(64, 64, 4, 8);
        let bspc = BspcMatrix::from_dense(&m, 4, 4).unwrap();
        let fp = Footprint::bspc(&bspc, Precision::Int8);
        assert_eq!(fp.scale_bytes, 4 * 4 * 4); // stripes * blocks * f32
        assert_eq!(fp.total(), fp.value_bytes + fp.index_bytes + fp.scale_bytes);
        // f32/f16 storage carries no scale metadata.
        assert_eq!(Footprint::bspc(&bspc, Precision::F16).scale_bytes, 0);
        let csr = CsrMatrix::from_dense(&m);
        let fp_csr = Footprint::csr(&csr, Precision::Int8);
        assert_eq!(
            fp_csr.scale_bytes,
            64usize.div_ceil(CsrMatrix::ROW_BLOCK) * 4
        );
        assert_eq!(Footprint::csr(&csr, Precision::F32).scale_bytes, 0);
        assert_eq!(Footprint::dense(&m, Precision::Int8).scale_bytes, 4);
        // Int8 still wins on total bytes despite the metadata.
        assert!(fp.total() < Footprint::bspc(&bspc, Precision::F16).total());
    }

    #[test]
    fn dense_footprint() {
        let m = Matrix::zeros(10, 10);
        let fp = Footprint::dense(&m, Precision::F32);
        assert_eq!(fp.value_bytes, 400);
        assert_eq!(fp.index_bytes, 0);
        assert_eq!(fp.total(), 400);
        assert_eq!(Footprint::dense(&m, Precision::F16).total(), 200);
    }

    #[test]
    fn csr_footprint_counts_indices() {
        let m = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        let csr = CsrMatrix::from_dense(&m);
        let fp = Footprint::csr(&csr, Precision::F32);
        assert_eq!(fp.value_bytes, 8); // 2 nnz * 4B
        assert_eq!(fp.index_bytes, (2 + 3) * 4); // col idx + row ptr
    }

    #[test]
    fn bspc_beats_csr_on_structured_matrix() {
        let m = structured(64, 64, 4, 8);
        let csr = CsrMatrix::from_dense(&m);
        let bspc = BspcMatrix::from_dense(&m, 4, 4).unwrap();
        let fp_csr = Footprint::csr(&csr, Precision::F16);
        let fp_bspc = Footprint::bspc(&bspc, Precision::F16);
        assert!(
            fp_bspc.index_bytes < fp_csr.index_bytes / 3,
            "bspc idx {} vs csr idx {}",
            fp_bspc.index_bytes,
            fp_csr.index_bytes
        );
        assert!(fp_bspc.total() < fp_csr.total());
    }

    #[test]
    fn compression_factor() {
        let m = structured(64, 64, 4, 8);
        let dense_bytes = Footprint::dense(&m, Precision::F32).total();
        let csr = CsrMatrix::from_dense(&m);
        let fp = Footprint::csr(&csr, Precision::F32);
        let ratio = fp.compression_vs(dense_bytes);
        assert!(ratio > 1.0, "pruned CSR should compress: {ratio}");
        let empty = Footprint::default();
        assert!(empty.compression_vs(100).is_infinite());
    }
}

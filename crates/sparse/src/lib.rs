#![warn(missing_docs)]

//! # rtm-sparse
//!
//! Sparse matrix formats and kernels for the RTMobile reproduction.
//!
//! Two ways of storing a pruned RNN weight matrix live here:
//!
//! * **CSR** ([`CsrMatrix`]) — the conventional compressed-sparse-row format
//!   that unstructured pruning (ESE-style) is stuck with: one explicit column
//!   index per nonzero;
//! * **BSPC** ([`BspcMatrix`]) — the paper's *Block-based Structured Pruning
//!   Compact* format (§IV-B-c): because BSP prunes whole columns inside each
//!   (row-stripe × column-block) and whole rows globally, the column indices
//!   are shared by *all rows in a stripe* and need to be stored only once per
//!   block, shrinking the index array by roughly the stripe height. The
//!   paper's BSPC also carries the matrix-reorder permutation; here each
//!   stripe's kept rows are already stored together, which is the grouping
//!   the reorder exists for, so compiled gates carry no permutation.
//!
//! BSPC, the runtime format, and CSR, the baseline it is measured against,
//! are executed through one contract, [`SparseKernel`] — partition units plus a single row-range
//! kernel over a precision-typed activation view — and one driver,
//! [`kernel::drive`], shared by the serial entries here and the pooled
//! ones in `rtm-exec` (see [`kernel`]).
//!
//! [`footprint`] accounts the exact byte cost of each representation — the
//! quantity behind the paper's memory-bound analysis in Table II.
//!
//! # Example
//!
//! ```
//! use rtm_tensor::Matrix;
//! use rtm_sparse::{CsrMatrix, SparseKernel};
//!
//! # fn main() -> Result<(), rtm_tensor::ShapeError> {
//! let dense = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]])?;
//! let csr = CsrMatrix::from_dense(&dense);
//! assert_eq!(csr.nnz(), 2);
//! assert_eq!(csr.spmv(&[1.0, 1.0])?, vec![1.0, 2.0]);
//! # Ok(())
//! # }
//! ```

pub mod bspc;
pub mod csr;
pub mod footprint;
pub mod io;
pub mod kernel;
mod scratch;

pub use bspc::{BspcError, BspcMatrix};
pub use csr::CsrMatrix;
pub use footprint::{Footprint, Precision};
pub use io::DecodeError;
pub use kernel::{Activations, KernelOp, SparseKernel};

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_compile() {
        let csr = super::CsrMatrix::from_dense(&rtm_tensor::Matrix::zeros(1, 1));
        assert_eq!(csr.nnz(), 0);
    }
}

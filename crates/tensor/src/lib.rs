#![warn(missing_docs)]

//! # rtm-tensor
//!
//! Dense linear-algebra substrate for the RTMobile reproduction.
//!
//! This crate provides the numeric foundation every other crate builds on:
//!
//! * [`Matrix`] — a row-major, heap-allocated `f32` matrix with shape-checked
//!   arithmetic, slicing and mapping helpers.
//! * [`gemm`] — general matrix multiply / matrix-vector kernels, including a
//!   cache-blocked variant used by the dense baselines.
//! * [`activations`] — sigmoid / tanh / ReLU / softmax and their derivatives,
//!   as used by the GRU cell in `rtm-rnn`.
//! * [`mod@f16`] — a software IEEE 754 binary16 module modelling the paper's
//!   16-bit-float mobile-GPU datapath (§V, Table II caption).
//! * [`init`] — seeded weight initializers (Xavier/He/uniform) so every
//!   experiment is reproducible from a `u64` seed.
//! * [`stats`] — column/row norms, top-k selection and summary statistics
//!   used by the pruning mask projections.
//! * [`rng`] — a vendored deterministic PRNG (the workspace builds offline,
//!   with no registry access).
//! * [`wire`] — little-endian buffer read/write traits used by the
//!   serialization formats in `rtm-sparse` and `rtmobile`.
//! * [`aligned`] — the cache-line-aligned f32 buffer the kernels' value
//!   planes and scratch windows live in.
//!
//! # Example
//!
//! ```
//! use rtm_tensor::{Matrix, gemm};
//!
//! # fn main() -> Result<(), rtm_tensor::ShapeError> {
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
//! let b = Matrix::identity(2);
//! let c = gemm::matmul(&a, &b)?;
//! assert_eq!(c, a);
//! # Ok(())
//! # }
//! ```

pub mod activations;
pub mod aligned;
pub mod f16;
pub mod gemm;
pub mod init;
pub mod matrix;
pub mod quant;
pub mod rng;
pub mod simd;
pub mod simd_i8;
pub mod stats;
pub mod vector;
pub mod wire;

pub use f16::F16;
pub use matrix::{Matrix, ShapeError};
pub use quant::QuantizedMatrix;
pub use vector::Vector;

/// Absolute tolerance used by the test suites when comparing floats that went
/// through different (but mathematically equivalent) computation orders.
pub const TEST_EPSILON: f32 = 1e-4;

/// Returns `true` when `a` and `b` are within `tol` of each other,
/// treating NaNs as never equal.
///
/// # Example
///
/// ```
/// assert!(rtm_tensor::approx_eq(1.0, 1.0 + 1e-6, 1e-4));
/// assert!(!rtm_tensor::approx_eq(1.0, 1.1, 1e-4));
/// ```
pub fn approx_eq(a: f32, b: f32, tol: f32) -> bool {
    (a - b).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(0.0, 0.0, 0.0));
        assert!(approx_eq(1.0, 1.00001, 1e-3));
        assert!(!approx_eq(1.0, 2.0, 0.5));
    }

    #[test]
    fn approx_eq_rejects_nan() {
        assert!(!approx_eq(f32::NAN, f32::NAN, 1.0));
        assert!(!approx_eq(0.0, f32::NAN, 1.0));
    }
}

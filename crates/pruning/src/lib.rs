#![warn(missing_docs)]

//! # rtm-pruning
//!
//! Model-compression algorithms for the RTMobile reproduction: the paper's
//! **Block-based Structured Pruning (BSP)** driven by an **ADMM** engine,
//! plus re-implementations of every baseline scheme Table I compares
//! against.
//!
//! * [`projection`] — constraint-set projections (the ADMM `Z`-update,
//!   Eq. (4)): BSP's per-block column selection, global row pruning,
//!   unstructured magnitude (ESE), bank-balanced (BBS), whole-column (Wang)
//!   and block-circulant (C-LSTM);
//! * [`admm`] — the augmented-Lagrangian loop of Eqs. (2)–(5): retrain `W`
//!   under the `ρ/2‖W − Z + U‖²` penalty, project to get `Z`, update the
//!   dual `U`;
//! * [`bsp`] — Algorithm 1: step 1 row-based column-block pruning, step 2
//!   column-based row pruning, then masked fine-tuning;
//! * [`baselines`] — one-call wrappers reproducing each comparison row of
//!   Table I;
//! * [`mask`] — named binary masks, application and compression accounting;
//! * [`schedule`] — the `(column rate, row rate)` compression targets of
//!   Table I and their arithmetic.
//!
//! # Example
//!
//! ```
//! use rtm_pruning::projection::{Projection, UnstructuredMagnitude};
//! use rtm_tensor::Matrix;
//!
//! let w = Matrix::from_rows(&[&[0.1, -2.0], &[3.0, 0.2]]).unwrap();
//! let proj = UnstructuredMagnitude::new(0.5);
//! let z = proj.project(&w);
//! assert_eq!(z.count_nonzero(), 2); // kept the two largest magnitudes
//! ```

pub mod admm;
pub mod baselines;
pub mod bsp;
pub mod mask;
pub mod projection;
pub mod schedule;

pub use admm::{AdmmConfig, AdmmPruner};
pub use bsp::{BspConfig, BspPruner, BspReport};
pub use mask::MaskSet;
pub use projection::Projection;
pub use schedule::CompressionTarget;

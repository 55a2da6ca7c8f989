#![warn(missing_docs)]

//! # rtm-compiler
//!
//! The compiler-assisted half of RTMobile (paper §IV-B): given a pruned RNN
//! weight matrix, produce an optimized execution recipe for the mobile
//! runtime.
//!
//! The three optimizations of Fig. 3, each a module here:
//!
//! * [`reorder`] — **matrix reorder**: group rows with the same (or similar)
//!   nonzero pattern so parallel threads receive balanced work, fixing the
//!   thread-divergence / load-imbalance problem of pruned SpMV;
//! * [`rle`] — **redundant load elimination**: within a group, consecutive
//!   rows handled by one thread share their input loads; BSP's per-stripe
//!   shared column patterns make the sharing exact;
//! * the **BSPC format** itself lives in `rtm_sparse::bspc` and is selected
//!   through [`plan::StorageFormat::Bspc`].
//!
//! [`plan`] defines the execution-plan IR (tiling, unrolling, thread
//! mapping, memory placement, format, precision); [`profile`] lowers a
//! matrix + plan into a [`profile::KernelProfile`] — the exact operation and
//! byte counts the `rtm-sim` cost model prices; [`tuner`] is the offline
//! auto-tuning component that searches plan space against any caller-provided
//! cost function (§IV-B: "an auto-tuning component to perform an offline
//! search of the best execution configurations").
//!
//! # Example
//!
//! ```
//! use rtm_compiler::plan::{ExecutionPlan, StorageFormat, Target};
//! use rtm_compiler::profile::KernelProfile;
//! use rtm_tensor::Matrix;
//!
//! let w = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]).unwrap();
//! let plan = ExecutionPlan::gpu_default(StorageFormat::Csr);
//! let profile = KernelProfile::analyze(&w, &plan);
//! assert_eq!(profile.flops, 2 * 2); // 2 nonzeros, one FMA each
//! ```

pub mod codegen;
pub mod plan;
pub mod profile;
pub mod reorder;
pub mod rle;
pub mod tuner;

pub use codegen::GeneratedKernel;
pub use plan::{ExecutionPlan, StorageFormat, Target};
pub use profile::KernelProfile;
pub use reorder::ReorderPlan;
pub use tuner::{TuningResult, TuningSpace};

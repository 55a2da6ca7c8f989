#![warn(missing_docs)]

//! # rtmobile
//!
//! The end-to-end RTMobile framework (paper Fig. 3): train → BSP-prune →
//! compile → deploy.
//!
//! * [`deploy`] — the mobile runtime artifact: every pruned GRU layer
//!   compiled to BSPC storage (each stripe's kept rows stored together, so
//!   no reorder permutation is attached), plus a
//!   *functional* executor that runs inference through the sparse kernels
//!   (optionally through f16, the GPU datapath) and must agree with the
//!   dense reference — the correctness proof of the compiled path;
//! * [`pipeline`] — [`pipeline::RtMobile`], the builder that wires the
//!   speech task, dense training, BSP pruning with ADMM retraining, the
//!   compiler analyses and the SoC simulator into one call;
//! * [`report`] — the accuracy/performance report with Table-I/Table-II
//!   style rendering, plus the [`report::Report`] trait: the one JSON
//!   emission path every structured result shares;
//! * [`config`] — [`config::RuntimeConfig`], the unified runtime knob
//!   struct (threads, batch, simd, health, trace, admission) that the
//!   builder, the `rtm` CLI and the environment all flow through;
//! * [`mod@env`] — the single parse point for the `RTM_*` environment
//!   variables, with typed errors.
//!
//! # Example
//!
//! ```no_run
//! use rtmobile::pipeline::RtMobile;
//!
//! let report = RtMobile::builder()
//!     .hidden(32)
//!     .compression(10.0, 1.0)
//!     .seed(42)
//!     .run();
//! println!("{}", report.render());
//! ```

pub mod bundle;
pub mod config;
pub mod deploy;
pub mod env;
pub mod health;
pub mod model_file;
pub mod pipeline;
pub mod report;
pub mod serve;

pub use bundle::{BundleError, BundleMeta, CompiledBundle};
pub use config::{DecoderChoice, PrecisionChoice, RuntimeConfig};
pub use deploy::{
    BatchedSession, CompiledNetwork, GruRuntimeScratch, RuntimeFormat, RuntimePrecision,
};
pub use health::HealthPolicy;
pub use pipeline::RtMobile;
pub use report::{PipelineReport, Report};
pub use rtm_trace::TraceConfig;
pub use serve::{
    AdmissionConfig, ReloadConfig, ReloadStats, ServeOptions, ServeStats, Server, ShedPolicy,
    StreamClient, StreamFault,
};

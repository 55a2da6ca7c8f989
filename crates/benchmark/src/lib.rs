#![warn(missing_docs)]

//! # rtm-benchmark
//!
//! The one benchmark every later performance or simplicity change to this
//! repository is judged with (see `README.md` beside this crate and
//! `BENCHMARK.json` at the repository root).
//!
//! Five workloads drive the paper's 2×1024 GRU — and one small trained
//! pipeline — through the surfaces a user runs: in-process
//! `CompiledNetwork::decode_with` and the `rtm serve` TCP server behind a
//! loaded v5 bundle. Each workload reports five end-to-end metrics with
//! tracing off; a separate, shortened traced run plus a replay of the
//! workload's own network through the public API of every layer gives the
//! per-layer ledger. Nothing here adds a timer inside a product crate:
//! every number is taken from outside, around public calls.
//!
//! Module map:
//! - [`spec`] — workload and metric names, units, bounds (mirrors
//!   `BENCHMARK.json`);
//! - [`model`] — seeded inputs: the BSP-patterned paper GRU, the small
//!   trained pipeline, the corpus and the bundle round trip;
//! - [`gen`] — the schedule and the single-threaded multiplexed load
//!   generator (open and closed loop);
//! - [`workloads`] — set-up, warm-up, timed window and end-to-end metrics;
//! - [`oracle`] — independent references every output is checked against;
//! - [`layers`] — the per-layer replay probes;
//! - [`spans`] — benchmark-side spans and self-time arithmetic;
//! - [`compare`] — applies the bounds to two result files;
//! - [`stats`], [`json`] — percentile conventions and a small JSON reader.

pub mod compare;
pub mod gen;
pub mod json;
pub mod layers;
pub mod model;
pub mod oracle;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;

//! The benchmark's contract in one place: the five workloads, the five
//! end-to-end metrics with their regression bounds, and the per-layer
//! metric names. `BENCHMARK.json` at the repository root is the same list
//! as data; a unit test keeps the two in step.

use rtmobile::deploy::RuntimePrecision;
use rtmobile::DecoderChoice;

/// BSP partition of every model in the benchmark (stripes × blocks).
pub const STRIPES: usize = 8;
/// See [`STRIPES`].
pub const BLOCKS: usize = 8;
/// The real-time frame hop: one frame every 10 ms (100 frames per second).
pub const HOP_US: u64 = 10_000;

/// Which model a workload runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelKind {
    /// The paper's 2-layer, 1024-hidden GRU (39 features, 39 classes):
    /// seeded random weights zeroed to a BSP pattern at `rate`×.
    Paper {
        /// Nominal compression rate (kept = 1/rate of every stripe's
        /// columns).
        rate: f64,
        /// Storage precision the network is compiled at.
        precision: RuntimePrecision,
    },
    /// The real pipeline at laptop scale: synthetic corpus → train a
    /// 2-layer GRU → BSP-prune 10× → compile at the pipeline's default
    /// precision.
    Pipeline,
}

/// The shape of a run against the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeShape {
    /// Batch lanes of the server.
    pub lanes: usize,
    /// Concurrent client connections.
    pub conns: usize,
    /// Open loop (frames due on the 10 ms hop whether or not the previous
    /// reply arrived) or closed loop (next frame on reply).
    pub open_loop: bool,
    /// Streams opt into `WantHypotheses`.
    pub hypotheses: bool,
}

/// How a workload offers load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// One in-process stream: utterances back to back through
    /// `CompiledNetwork::decode_with` (closed loop, one client).
    OnDevice,
    /// TCP loopback streams against `Server::bind_bundle`.
    Serve(ServeShape),
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name as it appears in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line).
    pub why: &'static str,
    /// The model under test.
    pub model: ModelKind,
    /// The load shape.
    pub drive: Drive,
    /// The utterance decoder in the loop.
    pub decoder: DecoderChoice,
    /// Streams per second this workload completes on the reference 2-core
    /// host; sizes the count-bounded traced replay to about half a window.
    pub nominal_streams_per_s: f64,
}

impl Workload {
    /// Lanes a batched step of this workload carries (1 in process).
    pub fn lanes(&self) -> usize {
        match self.drive {
            Drive::OnDevice => 1,
            Drive::Serve(s) => s.lanes.min(s.conns),
        }
    }
}

/// The five workloads, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "ondevice_10x",
        why: "paper GRU 10x f16, one in-process stream: ~9 gate SpMVs at B=1 are nearly the whole frame (Table II row)",
        model: ModelKind::Paper { rate: 10.0, precision: RuntimePrecision::F16 },
        drive: Drive::OnDevice,
        decoder: DecoderChoice::CtcGreedy,
        nominal_streams_per_s: 50.0,
    },
    Workload {
        name: "ondevice_103x",
        why: "paper GRU 103x f32: kernels shrink 10x so sweeps, head, dispatch and index decode dominate (Fig. 4 saturation)",
        model: ModelKind::Paper { rate: 103.0, precision: RuntimePrecision::F32 },
        drive: Drive::OnDevice,
        decoder: DecoderChoice::CtcGreedy,
        nominal_streams_per_s: 130.0,
    },
    Workload {
        name: "serve_paced_12",
        why: "12 real-time TCP streams, open loop on aligned 10 ms ticks, 16 lanes: partial batch (12 % 8 != 0) at ~45 % utilisation",
        model: ModelKind::Paper { rate: 10.0, precision: RuntimePrecision::F16 },
        drive: Drive::Serve(ServeShape { lanes: 16, conns: 12, open_loop: true, hypotheses: false }),
        decoder: DecoderChoice::Argmax,
        nominal_streams_per_s: 24.0,
    },
    Workload {
        name: "serve_saturated_32",
        why: "capacity: 32 f32 lanes kept occupied by 40 closed-loop connections (8 queued); a step carries ~25 lanes, mostly full-width kernel work",
        model: ModelKind::Paper { rate: 10.0, precision: RuntimePrecision::F32 },
        drive: Drive::Serve(ServeShape { lanes: 32, conns: 40, open_loop: false, hypotheses: false }),
        decoder: DecoderChoice::Argmax,
        nominal_streams_per_s: 150.0,
    },
    Workload {
        name: "serve_decode_small",
        why: "trained 2x96 GRU pruned 10x behind ctc-beam:4, 24 closed-loop streams: decode, protocol, sockets and admit/retire do the work",
        model: ModelKind::Pipeline,
        drive: Drive::Serve(ServeShape { lanes: 24, conns: 24, open_loop: false, hypotheses: true }),
        decoder: DecoderChoice::CtcBeam(4),
        nominal_streams_per_s: 400.0,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Model sizes and training budgets; `smoke` shrinks everything so all
/// five workloads run with every check in a few seconds of a debug build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Hidden width of the paper GRU.
    pub paper_hidden: usize,
    /// Speakers in the replay corpus of the paper-GRU workloads (4
    /// sentences each).
    pub paper_speakers: usize,
    /// Phones per sentence of every corpus (3-7 frames a phone).
    pub phones_per_sentence: usize,
    /// Hidden width of the trained pipeline model.
    pub pipeline_hidden: usize,
    /// Speakers in the pipeline's task (every fourth is held out as test).
    pub pipeline_speakers: usize,
    /// Dense training epochs.
    pub dense_epochs: usize,
    /// ADMM iterations, epochs per iteration and fine-tune epochs.
    pub admm: (usize, usize, usize),
    /// Times the whole set-up is repeated in an end-to-end run (`setup_s`
    /// is their median).
    pub setup_reps: usize,
    /// Target wall time of one layer probe, in milliseconds.
    pub probe_ms: f64,
    /// Frames the single-stream probe paces.
    pub single_stream_frames: usize,
    /// Streams per connection in the traced replay (`None`: sized from
    /// [`Workload::nominal_streams_per_s`] to last about half a window).
    pub traced_passes: Option<usize>,
}

impl Scale {
    /// The measured configuration.
    pub fn full() -> Scale {
        Scale {
            paper_hidden: 1024,
            paper_speakers: 8,
            phones_per_sentence: 8,
            pipeline_hidden: 96,
            pipeline_speakers: 16,
            dense_epochs: 6,
            admm: (2, 2, 4),
            setup_reps: 3,
            probe_ms: 60.0,
            single_stream_frames: 100,
            traced_passes: None,
        }
    }

    /// The `--smoke` configuration.
    pub fn smoke() -> Scale {
        Scale {
            paper_hidden: 64,
            paper_speakers: 2,
            phones_per_sentence: 3,
            pipeline_hidden: 16,
            pipeline_speakers: 4,
            dense_epochs: 1,
            admm: (1, 1, 1),
            setup_reps: 2,
            probe_ms: 0.2,
            single_stream_frames: 5,
            traced_passes: Some(2),
        }
    }
}

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn tag(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Parses [`Better::tag`].
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// One metric: name, unit and direction (end-to-end metrics add a bound).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Dotted name, `layer.metric` for per-layer metrics.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, Better::Higher, 0.0)
}

/// The end-to-end metrics every workload reports with tracing off.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("frame_latency_p50_us", "us", Better::Lower, 0.25),
    e2e("frames_per_s", "1/s", Better::Higher, 0.25),
    e2e("model_bytes", "bytes", Better::Lower, 0.01),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20),
];

/// The per-layer metrics of the traced run and the layer replay. Counts
/// carry the unit `count` and repeat exactly for a seed; `sim_us` marks the
/// analytical simulator's output (computed, not measured).
pub const PER_LAYER: [Metric; 70] = [
    lo("tensor.sweeps_us", "us"),
    lo("tensor.head_us", "us"),
    lo("tensor.dot_batch_us_b4", "us"),
    lo("tensor.dot_batch_us_b8", "us"),
    lo("sparse.gate_us", "us"),
    lo("sparse.spmv_us_f32", "us"),
    lo("sparse.spmv_us_f16", "us"),
    lo("sparse.spmv_us_int8", "us"),
    lo("sparse.spmv_us_csr_f32", "us"),
    lo("sparse.spmm_us_f32_b8", "us"),
    lo("sparse.spmm_us_f32_b12", "us"),
    lo("sparse.spmm_us_f32_b32", "us"),
    lo("sparse.spmm_us_f16_b8", "us"),
    lo("sparse.spmm_us_f16_b12", "us"),
    lo("sparse.spmm_us_int8_b8", "us"),
    lo("sparse.nnz", "count"),
    lo("sparse.bytes_per_call", "bytes"),
    hi("sparse.kernel_share", "ratio"),
    lo("exec.spmv_us_t1", "us"),
    lo("exec.spmv_us_t2", "us"),
    lo("exec.dispatch_overhead_us", "us"),
    lo("exec.imbalance", "ratio"),
    lo("compiler.reorder_s", "s"),
    lo("compiler.reorder_groups", "count"),
    hi("compiler.rle_elim_ratio", "ratio"),
    lo("rnn.train_s", "s"),
    lo("pruning.bsp_admm_s", "s"),
    lo("pruning.kept_params", "count"),
    lo("deploy.compile_s", "s"),
    lo("deploy.forward_frame_us", "us"),
    lo("deploy.forward_with_frame_us", "us"),
    lo("deploy.layer0_step_us", "us"),
    lo("deploy.layer1_step_us", "us"),
    lo("deploy.step_us", "us"),
    lo("deploy.step_decoded_us", "us"),
    lo("deploy.step_residual_us", "us"),
    lo("deploy.admit_retire_us", "us"),
    lo("speech.decode_frame_us", "us"),
    lo("speech.corpus_gen_s", "s"),
    lo("speech.per_pct", "%"),
    hi("speech.symbols", "count"),
    lo("speech.first_symbol_frame_p50", "count"),
    lo("bundle.encode_s", "s"),
    lo("bundle.write_s", "s"),
    lo("bundle.load_s", "s"),
    lo("bundle.bytes", "bytes"),
    lo("serve.proto_roundtrip_ns", "ns"),
    lo("serve.frame_latency_p90_us", "us"),
    lo("serve.frame_latency_p99_us", "us"),
    lo("serve.frame_latency_max_us", "us"),
    lo("serve.slo_miss_share", "ratio"),
    lo("serve.loop_residual_us", "us"),
    lo("serve.single_stream_rtt_p50_us", "us"),
    lo("serve.admit_wait_p50_us", "us"),
    lo("serve.gen_late_p50_us", "us"),
    lo("serve.gen_late_p99_us", "us"),
    hi("serve.steps", "count"),
    hi("serve.lanes_per_step_mean", "ratio"),
    lo("serve.bytes_in_per_frame", "bytes"),
    lo("serve.bytes_out_per_frame", "bytes"),
    hi("serve.admitted", "count"),
    hi("serve.completed", "count"),
    lo("serve.shed", "count"),
    lo("serve.quarantined", "count"),
    lo("serve.disconnects", "count"),
    lo("serve.protocol_errors", "count"),
    lo("sim.cpu_frame_us", "sim_us"),
    lo("sim.gpu_frame_us", "sim_us"),
    lo("sim.cpu_over_measured", "ratio"),
    lo("trace.overhead_pct", "%"),
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `BENCHMARK.json` is the same contract as data: every name, unit,
    /// direction and bound there equals the table here.
    #[test]
    fn benchmark_json_mirrors_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("valid JSON");
        let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let paths: Vec<&str> = doc.get("paths").items().iter().map(Json::str).collect();
        assert_eq!(paths, ["crates/benchmark"]);
        let secs = doc.get("run_seconds").num();
        assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));

        let workloads = doc.get("workloads").items();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(j.get("name").str(), w.name);
            assert_eq!(j.get("why").str(), w.why);
        }
        let e2e = doc.get("end_to_end").items();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(j.get("name").str(), m.name);
            assert_eq!(j.get("unit").str(), m.unit);
            assert_eq!(j.get("better").str(), m.better.tag());
            assert_eq!(j.get("bound").num(), m.bound, "{}", m.name);
        }
        let layers = doc.get("per_layer").items();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(j.get("name").str(), m.name);
            assert_eq!(j.get("unit").str(), m.unit);
            assert_eq!(j.get("better").str(), m.better.tag());
            assert_eq!(j.entries().len(), 3, "{} has no bound", m.name);
        }
    }
}

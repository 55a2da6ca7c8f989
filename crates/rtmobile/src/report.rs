//! Pipeline reports with Table-I/Table-II style rendering, and the shared
//! [`Report`] trait: one JSON-emission path for every structured result
//! the stack produces (pipeline runs, serving counters, streaming-sim
//! reports), built on the same hand-rolled [`rtm_trace::json`] helpers the
//! benchmark artifacts use.

use crate::serve::ServeStats;
use rtm_pruning::schedule::CompressionTarget;
use rtm_sim::streaming::{MultiStreamReport, ShedReport, StreamingReport};
use rtm_sim::FrameReport;
use rtm_trace::json::{json_row, JsonValue};
use std::fmt::Write as _;

/// The accuracy half of a pipeline run (Table I's columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyReport {
    /// Dense (unpruned) PER in percent.
    pub baseline_per: f64,
    /// PER after BSP pruning and fine-tuning.
    pub pruned_per: f64,
    /// PER of the compiled runtime at the deployed precision (what ships
    /// to the device).
    pub compiled_per: f64,
    /// Dense frame accuracy.
    pub baseline_frame_accuracy: f64,
    /// Pruned frame accuracy.
    pub pruned_frame_accuracy: f64,
    /// Achieved overall compression rate.
    pub achieved_rate: f64,
    /// Surviving prunable parameters.
    pub kept_params: usize,
    /// Total prunable parameters.
    pub total_params: usize,
}

impl AccuracyReport {
    /// PER degradation in percentage points (Table I's "PER Degrad.").
    pub fn degradation(&self) -> f64 {
        self.pruned_per - self.baseline_per
    }
}

/// The performance half (Table II's columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerformanceReport {
    /// The requested `(column, row)` target.
    pub target: CompressionTarget,
    /// Compression rate of the simulated paper-scale workload.
    pub workload_rate: f64,
    /// Giga-operations per frame.
    pub gop: f64,
    /// Simulated mobile-GPU frame report.
    pub gpu: FrameReport,
    /// Simulated mobile-CPU frame report.
    pub cpu: FrameReport,
    /// The precision the run compiled every layer at (`"f32"`, `"f16"` or
    /// `"int8"`; `auto` resolves to `"f16"`).
    pub precision: &'static str,
    /// Layers compiled at f32 storage.
    pub layers_f32: usize,
    /// Layers compiled at f16 storage.
    pub layers_f16: usize,
    /// Layers compiled at int8 storage.
    pub layers_int8: usize,
    /// Compiled BSPC model storage in bytes at the deployed precisions
    /// (sparse index structure plus values and scale metadata).
    pub storage_bytes: usize,
}

/// Utterance-decode results of a pipeline run: what the resolved
/// [`DecoderChoice`](crate::config::DecoderChoice) produced on the test
/// set, and the real-time factor (RTF = wall-time / audio-time, at the
/// 10 ms frame hop) it cost to produce it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeStats {
    /// Decoder family tag (`"argmax"`, `"viterbi"`, `"ctc-greedy"`,
    /// `"ctc-beam"`).
    pub decoder: &'static str,
    /// Beam width (0 for the non-beam decoders).
    pub beam: usize,
    /// Test utterances decoded.
    pub utterances: usize,
    /// Total decoded symbols.
    pub symbols: usize,
    /// Endpoint events the streaming decoders fired.
    pub endpoints: usize,
    /// Utterance-level PER of the decoded symbol sequences (edit distance
    /// against the reference phones, silence symbols dropped first).
    pub decoded_per: f64,
    /// Mean per-stream RTF: each utterance's decode+inference wall time
    /// over its audio time.
    pub rtf_stream_mean: f64,
    /// Worst per-stream RTF.
    pub rtf_stream_max: f64,
    /// Per-batch RTF: total wall time over total audio time of the scoring
    /// pass (equals the stream mean when scoring runs serially).
    pub rtf_batch: f64,
    /// Mean latency to the first decoded symbol, in milliseconds of audio
    /// consumed (frames × 10 ms hop); `0.0` when no utterance produced a
    /// streaming partial (e.g. the offline Viterbi decoder).
    pub first_symbol_ms_mean: f64,
}

impl DecodeStats {
    /// The full decoder label (`"ctc-beam:4"` style for beam decoders).
    pub fn label(&self) -> String {
        if self.beam > 0 {
            format!("{}:{}", self.decoder, self.beam)
        } else {
            self.decoder.to_string()
        }
    }
}

/// Full result of one [`RtMobile`](crate::RtMobile) run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineReport {
    /// Accuracy results on the speech task.
    pub accuracy: AccuracyReport,
    /// Simulated performance results.
    pub performance: PerformanceReport,
    /// Utterance decode + RTF results of the scoring pass (`None` when the
    /// run skipped decode scoring).
    pub decode: Option<DecodeStats>,
    /// Serving counters of the batched scoring pass (`None` when scoring
    /// ran serially, i.e. `batch == 1`).
    pub serve: Option<ServeStats>,
}

impl PipelineReport {
    /// Renders a human-readable summary combining a Table I row and a
    /// Table II row.
    pub fn render(&self) -> String {
        let a = &self.accuracy;
        let p = &self.performance;
        let mut s = String::new();
        let _ = writeln!(s, "RTMobile pipeline report");
        let _ = writeln!(
            s,
            "  target: {}x cols x {}x rows (overall nominal {:.0}x)",
            p.target.col_rate,
            p.target.row_rate,
            p.target.nominal_overall()
        );
        let _ = writeln!(s, "  -- accuracy (synthetic TIMIT-like task) --");
        let _ = writeln!(
            s,
            "  PER: {:.2}% -> {:.2}% (degradation {:+.2} pts), compiled runtime {:.2}%",
            a.baseline_per,
            a.pruned_per,
            a.degradation(),
            a.compiled_per
        );
        let _ = writeln!(
            s,
            "  params: {} / {} kept ({:.1}x compression)",
            a.kept_params, a.total_params, a.achieved_rate
        );
        let _ = writeln!(
            s,
            "  -- performance (simulated Snapdragon 855, paper-scale GRU) --"
        );
        let _ = writeln!(
            s,
            "  GPU: {:.1} us/frame, {:.1} GOP/s, {:.2}x ESE energy efficiency",
            p.gpu.time_us, p.gpu.gop_per_s, p.gpu.efficiency_vs_ese
        );
        let _ = writeln!(
            s,
            "  CPU: {:.1} us/frame, {:.1} GOP/s, {:.2}x ESE energy efficiency",
            p.cpu.time_us, p.cpu.gop_per_s, p.cpu.efficiency_vs_ese
        );
        let _ = writeln!(
            s,
            "  precision: {} ({} f32 / {} f16 / {} int8 layers)",
            p.precision, p.layers_f32, p.layers_f16, p.layers_int8
        );
        let _ = writeln!(
            s,
            "  model storage: {:.1} KiB",
            p.storage_bytes as f64 / 1024.0
        );
        if let Some(d) = &self.decode {
            let _ = writeln!(
                s,
                "  decode: {} -> PER {:.2}%, {} symbols, {} endpoints",
                d.label(),
                d.decoded_per,
                d.symbols,
                d.endpoints
            );
            let _ = writeln!(
                s,
                "  RTF: {:.4} per stream (max {:.4}), {:.4} per batch \
                 ({:.1} real-time streams/core), first symbol {:.0} ms",
                d.rtf_stream_mean,
                d.rtf_stream_max,
                d.rtf_batch,
                if d.rtf_batch > 0.0 {
                    1.0 / d.rtf_batch
                } else {
                    0.0
                },
                d.first_symbol_ms_mean
            );
        }
        if let Some(v) = &self.serve {
            let _ = writeln!(
                s,
                "  serving: {} admitted, {} completed, {} shed, {} quarantined, \
                 {} deadline-missed over {} batched frames (batch RTF {:.4})",
                v.admitted,
                v.completed,
                v.shed,
                v.quarantined,
                v.deadline_missed,
                v.frames,
                v.batch_rtf()
            );
        }
        s
    }
}

/// A structured result that renders itself through the one shared JSON
/// path ([`rtm_trace::json`], the same helpers behind every `BENCH_*.json`
/// artifact). Implemented for the pipeline report, the serving counters
/// and the streaming-simulation reports, so every JSON the stack emits
/// goes through a single escaping/formatting routine instead of a
/// per-binary copy.
pub trait Report {
    /// Machine-readable kind tag (`"pipeline"`, `"serve_stats"`, …),
    /// emitted as the leading `"report"` field.
    fn kind(&self) -> &'static str;

    /// The `(key, value)` pairs of the JSON object, in emission order.
    fn fields(&self) -> Vec<(&'static str, JsonValue)>;

    /// Renders one single-line JSON object: `{"report": kind, ...fields}`.
    fn to_json(&self) -> String {
        let mut all: Vec<(&str, JsonValue)> = vec![("report", JsonValue::Str(self.kind().into()))];
        all.extend(self.fields());
        json_row(&all)
    }
}

/// Nested JSON for one simulated frame (shared by the GPU and CPU halves).
fn frame_json(f: &FrameReport) -> String {
    json_row(&[
        ("time_us", JsonValue::F64(f.time_us, 2)),
        ("gop_per_s", JsonValue::F64(f.gop_per_s, 2)),
        ("energy_uj", JsonValue::F64(f.energy_uj, 2)),
        ("efficiency_vs_ese", JsonValue::F64(f.efficiency_vs_ese, 3)),
        ("kernels", JsonValue::Int(f.kernels as i64)),
        (
            "memory_bound_fraction",
            JsonValue::F64(f.memory_bound_fraction, 3),
        ),
    ])
}

/// Nested JSON for one queueing result (shared by the streaming reports).
fn streaming_json(r: &StreamingReport) -> String {
    json_row(&[
        ("period_us", JsonValue::F64(r.period_us, 2)),
        ("service_us", JsonValue::F64(r.service_us, 2)),
        ("stable", JsonValue::Raw(r.stable.to_string())),
        ("frames", JsonValue::Int(r.latencies_us.len() as i64)),
        ("max_latency_us", JsonValue::F64(r.max_latency_us, 2)),
        ("mean_latency_us", JsonValue::F64(r.mean_latency_us, 2)),
    ])
}

impl Report for PipelineReport {
    fn kind(&self) -> &'static str {
        "pipeline"
    }

    fn fields(&self) -> Vec<(&'static str, JsonValue)> {
        let a = &self.accuracy;
        let p = &self.performance;
        vec![
            (
                "accuracy",
                JsonValue::Raw(json_row(&[
                    ("baseline_per", JsonValue::F64(a.baseline_per, 3)),
                    ("pruned_per", JsonValue::F64(a.pruned_per, 3)),
                    ("compiled_per", JsonValue::F64(a.compiled_per, 3)),
                    ("degradation", JsonValue::F64(a.degradation(), 3)),
                    ("achieved_rate", JsonValue::F64(a.achieved_rate, 2)),
                    ("kept_params", JsonValue::Int(a.kept_params as i64)),
                    ("total_params", JsonValue::Int(a.total_params as i64)),
                ])),
            ),
            (
                "performance",
                JsonValue::Raw(json_row(&[
                    ("col_rate", JsonValue::Raw(p.target.col_rate.to_string())),
                    ("row_rate", JsonValue::Raw(p.target.row_rate.to_string())),
                    ("workload_rate", JsonValue::F64(p.workload_rate, 2)),
                    ("gop", JsonValue::F64(p.gop, 4)),
                    ("gpu", JsonValue::Raw(frame_json(&p.gpu))),
                    ("cpu", JsonValue::Raw(frame_json(&p.cpu))),
                    ("precision", JsonValue::Str(p.precision.into())),
                    ("layers_f32", JsonValue::Int(p.layers_f32 as i64)),
                    ("layers_f16", JsonValue::Int(p.layers_f16 as i64)),
                    ("layers_int8", JsonValue::Int(p.layers_int8 as i64)),
                    ("storage_bytes", JsonValue::Int(p.storage_bytes as i64)),
                ])),
            ),
            (
                "decode",
                match &self.decode {
                    Some(d) => JsonValue::Raw(json_row(&[
                        ("decoder", JsonValue::Str(d.decoder.into())),
                        ("beam", JsonValue::Int(d.beam as i64)),
                        ("label", JsonValue::Str(d.label())),
                        ("utterances", JsonValue::Int(d.utterances as i64)),
                        ("symbols", JsonValue::Int(d.symbols as i64)),
                        ("endpoints", JsonValue::Int(d.endpoints as i64)),
                        ("decoded_per", JsonValue::F64(d.decoded_per, 3)),
                        ("rtf_stream_mean", JsonValue::F64(d.rtf_stream_mean, 4)),
                        ("rtf_stream_max", JsonValue::F64(d.rtf_stream_max, 4)),
                        ("rtf_batch", JsonValue::F64(d.rtf_batch, 4)),
                        (
                            "first_symbol_ms_mean",
                            JsonValue::F64(d.first_symbol_ms_mean, 2),
                        ),
                    ])),
                    None => JsonValue::Raw("null".to_string()),
                },
            ),
            (
                "serve",
                match &self.serve {
                    Some(s) => JsonValue::Raw(s.to_json()),
                    None => JsonValue::Raw("null".to_string()),
                },
            ),
        ]
    }
}

impl Report for ServeStats {
    fn kind(&self) -> &'static str {
        "serve_stats"
    }

    fn fields(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("admitted", JsonValue::Int(self.admitted as i64)),
            ("completed", JsonValue::Int(self.completed as i64)),
            ("shed", JsonValue::Int(self.shed as i64)),
            ("quarantined", JsonValue::Int(self.quarantined as i64)),
            (
                "deadline_missed",
                JsonValue::Int(self.deadline_missed as i64),
            ),
            ("frames", JsonValue::Int(self.frames as i64)),
            ("stream_frames", JsonValue::Int(self.stream_frames as i64)),
            ("endpoints", JsonValue::Int(self.endpoints as i64)),
            ("batch_rtf", JsonValue::F64(self.batch_rtf(), 4)),
        ]
    }
}

impl Report for MultiStreamReport {
    fn kind(&self) -> &'static str {
        "multi_stream"
    }

    fn fields(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("streams", JsonValue::Int(self.streams as i64)),
            ("batched", JsonValue::Raw(streaming_json(&self.batched))),
            (
                "serial_service_us",
                JsonValue::F64(self.serial_service_us, 2),
            ),
            (
                "per_stream_service_us",
                JsonValue::F64(self.per_stream_service_us, 2),
            ),
            ("batch_speedup", JsonValue::F64(self.batch_speedup, 3)),
            ("rtf", JsonValue::F64(self.rtf, 4)),
        ]
    }
}

impl Report for ShedReport {
    fn kind(&self) -> &'static str {
        "shed"
    }

    fn fields(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("offered", JsonValue::Int(self.offered as i64)),
            ("capacity", JsonValue::Int(self.capacity as i64)),
            ("served", JsonValue::Int(self.served as i64)),
            ("shed_per_round", JsonValue::Int(self.shed_per_round as i64)),
            ("policy", JsonValue::Str(self.policy.to_string())),
            ("batched", JsonValue::Raw(streaming_json(&self.batched))),
            (
                "unshed_service_us",
                JsonValue::F64(self.unshed_service_us, 2),
            ),
            (
                "unshed_stable",
                JsonValue::Raw(self.unshed_stable.to_string()),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_frame() -> FrameReport {
        FrameReport {
            time_us: 100.0,
            gop: 0.01,
            gop_per_s: 100.0,
            energy_uj: 107.0,
            efficiency_vs_ese: 31.7,
            kernels: 4,
            memory_bound_fraction: 1.0,
        }
    }

    fn dummy() -> PipelineReport {
        PipelineReport {
            accuracy: AccuracyReport {
                baseline_per: 12.0,
                pruned_per: 13.5,
                compiled_per: 13.6,
                baseline_frame_accuracy: 0.9,
                pruned_frame_accuracy: 0.88,
                achieved_rate: 10.0,
                kept_params: 1000,
                total_params: 10000,
            },
            performance: PerformanceReport {
                target: CompressionTarget::new(10.0, 1.0),
                workload_rate: 9.7,
                gop: 0.058,
                gpu: dummy_frame(),
                cpu: dummy_frame(),
                precision: "f16",
                layers_f32: 0,
                layers_f16: 2,
                layers_int8: 0,
                storage_bytes: 2048,
            },
            decode: None,
            serve: None,
        }
    }

    #[test]
    fn degradation_is_difference() {
        let r = dummy();
        assert!((r.accuracy.degradation() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn render_contains_key_numbers() {
        let text = dummy().render();
        assert!(text.contains("12.00%"));
        assert!(text.contains("13.50%"));
        assert!(text.contains("+1.50"));
        assert!(text.contains("10.0x compression"));
        assert!(text.contains("31.70x ESE"));
        assert!(text.contains("precision: f16 (0 f32 / 2 f16 / 0 int8 layers)"));
        assert!(text.contains("2.0 KiB"));
        assert!(!text.contains("serving:"));
        let mut r = dummy();
        r.serve = Some(ServeStats {
            admitted: 5,
            shed: 2,
            quarantined: 1,
            deadline_missed: 0,
            frames: 40,
            completed: 4,
            ..ServeStats::default()
        });
        r.decode = Some(DecodeStats {
            decoder: "ctc-beam",
            beam: 4,
            utterances: 8,
            symbols: 96,
            endpoints: 8,
            decoded_per: 21.5,
            rtf_stream_mean: 0.05,
            rtf_stream_max: 0.09,
            rtf_batch: 0.02,
            first_symbol_ms_mean: 120.0,
        });
        let text = r.render();
        assert!(text.contains("5 admitted"));
        assert!(text.contains("2 shed"));
        assert!(text.contains("1 quarantined"));
        assert!(text.contains("decode: ctc-beam:4 -> PER 21.50%"));
        assert!(text.contains("50.0 real-time streams/core"));
        assert!(text.contains("first symbol 120 ms"));
    }

    #[test]
    fn report_trait_emits_tagged_json() {
        let mut r = dummy();
        let json = r.to_json();
        assert!(json.starts_with("{\"report\": \"pipeline\""), "{json}");
        assert!(json.contains("\"accuracy\": {\"baseline_per\": 12.000"));
        assert!(json.contains("\"gpu\": {\"time_us\": 100.00"));
        assert!(json.contains("\"precision\": \"f16\""));
        assert!(json.contains("\"layers_int8\": 0"));
        assert!(json.contains("\"storage_bytes\": 2048"));
        assert!(json.contains("\"serve\": null"));

        assert!(json.contains("\"decode\": null"));

        let stats = ServeStats {
            admitted: 5,
            shed: 2,
            quarantined: 1,
            deadline_missed: 0,
            frames: 40,
            completed: 4,
            stream_frames: 200,
            compute_ns: 100_000_000,
            endpoints: 3,
        };
        let sj = stats.to_json();
        assert!(sj.starts_with("{\"report\": \"serve_stats\""), "{sj}");
        assert!(sj.contains("\"admitted\": 5"));
        assert!(sj.contains("\"stream_frames\": 200"));
        assert!(sj.contains("\"endpoints\": 3"));
        assert!(sj.contains("\"batch_rtf\": 0.0500"), "{sj}");
        r.serve = Some(stats);
        assert!(r
            .to_json()
            .contains("\"serve\": {\"report\": \"serve_stats\""));
        r.decode = Some(DecodeStats {
            decoder: "argmax",
            beam: 0,
            utterances: 4,
            symbols: 40,
            endpoints: 4,
            decoded_per: 30.0,
            rtf_stream_mean: 0.1,
            rtf_stream_max: 0.2,
            rtf_batch: 0.1,
            first_symbol_ms_mean: 50.0,
        });
        let dj = r.to_json();
        assert!(dj.contains("\"decode\": {\"decoder\": \"argmax\""), "{dj}");
        assert!(dj.contains("\"rtf_batch\": 0.1000"), "{dj}");
    }

    #[test]
    fn streaming_reports_emit_tagged_json() {
        let batched = StreamingReport {
            period_us: 250.0,
            service_us: 100.0,
            stable: true,
            latencies_us: vec![100.0, 100.0],
            max_latency_us: 100.0,
            mean_latency_us: 100.0,
        };
        let ms = MultiStreamReport {
            streams: 4,
            batched: batched.clone(),
            serial_service_us: 400.0,
            per_stream_service_us: 25.0,
            batch_speedup: 4.0,
            rtf: 0.4,
        };
        let j = ms.to_json();
        assert!(j.starts_with("{\"report\": \"multi_stream\""), "{j}");
        assert!(j.contains("\"batched\": {\"period_us\": 250.00"));
        assert!(j.contains("\"stable\": true"));
        assert!(j.contains("\"rtf\": 0.4000"));

        let shed = ShedReport {
            offered: 8,
            capacity: 4,
            served: 4,
            shed_per_round: 4,
            policy: rtm_sim::streaming::ShedPolicy::DropOldest,
            batched,
            unshed_service_us: 180.0,
            unshed_stable: false,
        };
        let j = shed.to_json();
        assert!(j.starts_with("{\"report\": \"shed\""), "{j}");
        assert!(j.contains("\"policy\": \"drop-oldest\""));
        assert!(j.contains("\"unshed_stable\": false"));
    }
}

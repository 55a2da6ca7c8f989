//! The end-to-end RTMobile pipeline (paper Fig. 3).
//!
//! One [`RtMobile::run`] call executes the whole flow the paper describes:
//!
//! 1. generate the speech task and train the dense 2-layer GRU (baseline
//!    PER — Table I's "w/o pruning" row);
//! 2. run BSP: ADMM-driven column-block pruning, then row pruning, then
//!    masked fine-tuning (pruned PER and achieved compression rate);
//! 3. compile the pruned network to BSPC (a stripe's kept rows stored
//!    together: the matrix reorder's grouping, no permutation attached) at
//!    the resolved storage precision (f32, f16 or int8, one for every
//!    layer), and re-score the PER through the *compiled* path — the
//!    accuracy actually shipped to the device;
//! 4. price one inference frame of the paper-scale workload (hidden 1024)
//!    at the same compression on the simulated Adreno-640 GPU and
//!    Kryo-485 CPU.
//!
//! The builder exposes every knob with laptop-scale defaults.

use crate::config::RuntimeConfig;
use crate::deploy::{CompiledNetwork, RuntimePrecision};
use crate::report::{AccuracyReport, DecodeStats, PerformanceReport, PipelineReport};
use rtm_compiler::plan::{ExecutionPlan, StorageFormat};
use rtm_pruning::admm::AdmmConfig;
use rtm_pruning::bsp::{BspConfig, BspPruner};
use rtm_pruning::schedule::CompressionTarget;
use rtm_sim::{GruWorkload, InferenceSim};
use rtm_speech::corpus::CorpusConfig;
use rtm_speech::per::PerReport;
use rtm_speech::task::SpeechTask;

/// Builder-configured end-to-end pipeline.
#[derive(Debug, Clone)]
pub struct RtMobile {
    corpus: CorpusConfig,
    hidden: usize,
    dense_epochs: usize,
    dense_lr: f32,
    target: CompressionTarget,
    stripes: usize,
    blocks: usize,
    admm: AdmmConfig,
    seed: u64,
    sim_hidden: usize,
    runtime: RuntimeConfig,
}

impl RtMobile {
    /// Starts a builder with laptop-scale defaults.
    pub fn builder() -> RtMobile {
        RtMobile {
            corpus: CorpusConfig::default_scaled(),
            hidden: 48,
            dense_epochs: 15,
            dense_lr: 8e-3,
            target: CompressionTarget::new(10.0, 1.0),
            stripes: 4,
            blocks: 4,
            admm: AdmmConfig {
                rho: 2.0,
                admm_iterations: 2,
                epochs_per_iteration: 4,
                finetune_epochs: 8,
                lr: 4e-3,
                clip: Some(rtm_rnn::GradClip::new(5.0)),
            },
            seed: 1,
            sim_hidden: 1024,
            runtime: RuntimeConfig::default(),
        }
    }

    /// Overrides the corpus configuration.
    pub fn corpus(mut self, cfg: CorpusConfig) -> RtMobile {
        self.corpus = cfg;
        self
    }

    /// Hidden width of the trained GRU (per layer).
    pub fn hidden(mut self, hidden: usize) -> RtMobile {
        self.hidden = hidden;
        self
    }

    /// Dense pre-training epochs and learning rate.
    pub fn dense_training(mut self, epochs: usize, lr: f32) -> RtMobile {
        self.dense_epochs = epochs;
        self.dense_lr = lr;
        self
    }

    /// The `(column, row)` compression target.
    ///
    /// # Panics
    ///
    /// Panics if either rate is below 1.
    pub fn compression(mut self, col_rate: f64, row_rate: f64) -> RtMobile {
        self.target = CompressionTarget::new(col_rate, row_rate);
        self
    }

    /// The BSP partition (`Numr`, `Numc`).
    pub fn partition(mut self, stripes: usize, blocks: usize) -> RtMobile {
        self.stripes = stripes;
        self.blocks = blocks;
        self
    }

    /// ADMM hyper-parameters.
    pub fn admm(mut self, cfg: AdmmConfig) -> RtMobile {
        self.admm = cfg;
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> RtMobile {
        self.seed = seed;
        self
    }

    /// Hidden width of the *simulated* paper-scale workload (default 1024).
    pub fn sim_hidden(mut self, hidden: usize) -> RtMobile {
        self.sim_hidden = hidden;
        self
    }

    /// Sets the runtime knobs (threads, batch, simd, health, precision,
    /// trace, decoder) as one [`RuntimeConfig`], assembled with its
    /// `with_*` builders or [`RuntimeConfig::from_env`]. Every knob left
    /// unset falls back to its `RTM_*` environment variable, then its
    /// default; none of them changes a reported accuracy number's meaning
    /// (threads, batch, health and trace leave every number bit-identical).
    pub fn runtime(mut self, runtime: RuntimeConfig) -> RtMobile {
        self.runtime = runtime;
        self
    }

    /// The currently configured [`RuntimeConfig`].
    pub fn runtime_config(&self) -> &RuntimeConfig {
        &self.runtime
    }

    /// Executes the pipeline.
    ///
    /// # Panics
    ///
    /// Panics on internal shape errors (a bug) or invalid configuration.
    pub fn run(self) -> PipelineReport {
        self.run_keeping_model().0
    }

    /// Executes the pipeline and additionally returns the pruned network
    /// and its compiled runtime at the resolved precision (e.g. for saving
    /// with [`crate::model_file`]).
    ///
    /// # Panics
    ///
    /// Panics on internal shape errors (a bug) or invalid configuration.
    pub fn run_keeping_model(self) -> (PipelineReport, rtm_rnn::GruNetwork, CompiledNetwork) {
        self.runtime.apply_globals();
        let pipeline_span = rtm_trace::span("pipeline");

        // 1. Task + dense training.
        let train_span = rtm_trace::span("pipeline.train");
        let task = SpeechTask::new(&self.corpus, self.seed);
        let mut net = task.new_network(self.hidden, self.seed.wrapping_add(1));
        task.train(&mut net, self.dense_epochs, self.dense_lr);
        let baseline = task.evaluate(&net);
        drop(train_span);

        // 2. BSP pruning with ADMM retraining.
        let prune_span = rtm_trace::span("pipeline.prune");
        let (pruned, bsp_report) = if self.target.is_dense() {
            (baseline, None)
        } else {
            let pruner = BspPruner::new(BspConfig {
                num_stripes: self.stripes,
                num_blocks: self.blocks,
                target: self.target,
                admm: self.admm,
            });
            let report = pruner.prune(&mut net, &task.training_data());
            (task.evaluate(&net), Some(report))
        };
        drop(prune_span);

        // 3. Compile to the runtime at the resolved precision, and score
        //    the compiled path.
        let compile_span = rtm_trace::span("pipeline.compile");
        let precision = self.runtime.compile_precision();
        let compiled = CompiledNetwork::compile(&net, self.stripes, self.blocks, precision)
            .expect("partition validated by BSP config");
        let exec = rtm_exec::Executor::new(self.runtime.threads);
        drop(compile_span);

        let deploy_span = rtm_trace::span("pipeline.deploy");
        let health = self.runtime.resolved_health();
        let decoder_choice = self.runtime.resolved_decoder();
        let mut compiled_report = PerReport::default();
        let serve = if self.runtime.batch > 1 {
            // Multi-stream scoring: up to `batch` utterances share each
            // weight pass. Bit-identical to the serial loop below (the
            // per-lane decoder rides on the side and never touches the
            // logits).
            let utterances = task.test_utterances();
            let streams: Vec<&[Vec<f32>]> =
                utterances.iter().map(|u| u.frames.as_slice()).collect();
            let mut session =
                crate::deploy::BatchedSession::new(&compiled, &exec, self.runtime.batch)
                    .with_health(health)
                    .with_admission(self.runtime.admission)
                    .with_decoder(decoder_choice);
            for (u, preds) in utterances.iter().zip(session.predict(&streams)) {
                compiled_report.add(&preds, &u.labels, &u.phones);
            }
            Some(session.stats())
        } else {
            for u in task.test_utterances() {
                let preds = compiled.predict_with(&exec, &u.frames);
                compiled_report.add(&preds, &u.labels, &u.phones);
            }
            None
        };
        drop(deploy_span);

        // Decode scoring: stream the resolved decoder over every test
        // utterance and price it as RTF (wall time over audio time at the
        // 10 ms frame hop). The serial per-utterance loop yields the
        // per-stream numbers and latency-to-first-symbol; the batched
        // session above already measured the per-batch RTF.
        let decode_span = rtm_trace::span("pipeline.decode");
        let decode = {
            let strip = |s: &[usize]| -> Vec<usize> {
                s.iter()
                    .copied()
                    .filter(|&p| p != rtm_speech::phones::SILENCE)
                    .collect()
            };
            let utterances = task.test_utterances();
            let mut symbols = 0usize;
            let mut endpoints = 0usize;
            let mut errors = 0usize;
            let mut ref_len = 0usize;
            let mut rtf_sum = 0.0f64;
            let mut rtf_max = 0.0f64;
            let mut first_ms_sum = 0.0f64;
            let mut first_count = 0usize;
            let mut wall_total_us = 0.0f64;
            let mut audio_total_us = 0.0f64;
            for u in &utterances {
                let t0 = std::time::Instant::now();
                let logits = compiled.forward_with(&exec, &u.frames);
                let classes = logits.first().map_or(1, Vec::len);
                let mut decoder = decoder_choice.build(classes);
                let mut first_symbol_frame: Option<usize> = None;
                let mut in_endpoint = false;
                for (i, row) in logits.iter().enumerate() {
                    if let Some(h) = decoder.push_frame(row) {
                        if first_symbol_frame.is_none() && !h.symbols.is_empty() {
                            first_symbol_frame = Some(i);
                        }
                        if h.endpoint && !in_endpoint {
                            endpoints += 1;
                        }
                        in_endpoint = h.endpoint;
                    }
                }
                let hyp = decoder.finish();
                let wall_us = t0.elapsed().as_secs_f64() * 1e6;
                let audio_us = u.frames.len() as f64 * rtm_sim::realtime::FRAME_HOP_US;
                if audio_us > 0.0 {
                    let rtf = wall_us / audio_us;
                    rtf_sum += rtf;
                    rtf_max = rtf_max.max(rtf);
                    rtm_trace::record(rtm_trace::key::RTF_STREAM, rtf * 1000.0);
                }
                wall_total_us += wall_us;
                audio_total_us += audio_us;
                if let Some(i) = first_symbol_frame {
                    first_ms_sum += (i + 1) as f64 * rtm_sim::realtime::FRAME_HOP_US / 1e3;
                    first_count += 1;
                }
                symbols += hyp.symbols.len();
                let hyp_sym = strip(&hyp.symbols);
                let ref_sym = strip(&u.phones);
                errors += rtm_speech::per::edit_distance(&hyp_sym, &ref_sym);
                ref_len += ref_sym.len();
            }
            let n = utterances.len().max(1) as f64;
            DecodeStats {
                decoder: decoder_choice.tag(),
                beam: decoder_choice.beam_width(),
                utterances: utterances.len(),
                symbols,
                endpoints,
                decoded_per: if ref_len > 0 {
                    100.0 * errors as f64 / ref_len as f64
                } else {
                    0.0
                },
                rtf_stream_mean: rtf_sum / n,
                rtf_stream_max: rtf_max,
                rtf_batch: match &serve {
                    Some(s) => s.batch_rtf(),
                    None if audio_total_us > 0.0 => wall_total_us / audio_total_us,
                    None => 0.0,
                },
                first_symbol_ms_mean: if first_count > 0 {
                    first_ms_sum / first_count as f64
                } else {
                    0.0
                },
            }
        };
        drop(decode_span);

        // 4. Paper-scale performance simulation.
        let sim_span = rtm_trace::span("pipeline.simulate");
        let workload = GruWorkload::with_bsp_pattern(
            40,
            self.sim_hidden,
            2,
            self.target.col_rate,
            self.target.row_rate,
            8,
            8,
            self.seed,
        );
        let sim = InferenceSim::new();
        let (gpu_plan, cpu_plan) = if self.target.is_dense() {
            (
                ExecutionPlan::gpu_default(StorageFormat::Dense).without_optimizations(),
                ExecutionPlan::cpu_default(StorageFormat::Dense).without_optimizations(),
            )
        } else {
            (
                ExecutionPlan::gpu_default(StorageFormat::Bspc).with_bsp_partition(8, 8),
                ExecutionPlan::cpu_default(StorageFormat::Bspc).with_bsp_partition(8, 8),
            )
        };
        let gpu = sim.run_frame(&workload, &gpu_plan);
        let cpu = sim.run_frame(&workload, &cpu_plan);
        drop(sim_span);

        let (achieved_rate, kept, total) = match &bsp_report {
            Some(r) => (r.achieved_rate, r.kept_params, r.total_params),
            None => {
                let total = net.total_prunable_params();
                (1.0, total, total)
            }
        };

        let layer_precisions = compiled.layer_precisions();
        let count = |p: RuntimePrecision| layer_precisions.iter().filter(|&&q| q == p).count();
        let report = PipelineReport {
            accuracy: AccuracyReport {
                baseline_per: baseline.per_percent(),
                pruned_per: pruned.per_percent(),
                compiled_per: compiled_report.per_percent(),
                baseline_frame_accuracy: baseline.frame_accuracy(),
                pruned_frame_accuracy: pruned.frame_accuracy(),
                achieved_rate,
                kept_params: kept,
                total_params: total,
            },
            performance: PerformanceReport {
                target: self.target,
                workload_rate: workload.compression_rate(),
                gop: gpu.gop,
                gpu,
                cpu,
                precision: precision.tag(),
                layers_f32: count(RuntimePrecision::F32),
                layers_f16: count(RuntimePrecision::F16),
                layers_int8: count(RuntimePrecision::Int8),
                storage_bytes: compiled.storage_bytes(),
            },
            decode: Some(decode),
            serve,
        };
        drop(pipeline_span);
        (report, net, compiled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrecisionChoice;

    fn quick() -> RtMobile {
        RtMobile::builder()
            .corpus(CorpusConfig {
                speakers: 8,
                sentences_per_speaker: 2,
                phones_per_sentence: 4,
                ..CorpusConfig::tiny()
            })
            .hidden(16)
            .dense_training(6, 0.01)
            .sim_hidden(128)
            .admm(AdmmConfig {
                rho: 2.0,
                admm_iterations: 1,
                epochs_per_iteration: 2,
                finetune_epochs: 3,
                lr: 5e-3,
                clip: Some(rtm_rnn::GradClip::new(5.0)),
            })
    }

    #[test]
    fn dense_pipeline_runs() {
        let report = quick().compression(1.0, 1.0).seed(5).run();
        assert_eq!(report.accuracy.achieved_rate, 1.0);
        assert_eq!(report.accuracy.baseline_per, report.accuracy.pruned_per);
        assert!(report.performance.gpu.time_us > 0.0);
        assert!(report.performance.cpu.time_us > report.performance.gpu.time_us);
        assert!(!report.render().is_empty());
    }

    #[test]
    fn batched_scoring_reports_identical_accuracy() {
        // The multi-stream scorer is bit-identical to the per-utterance
        // loop, so every accuracy number must match exactly.
        let serial = quick().compression(1.0, 1.0).seed(5).run();
        let batched = quick()
            .compression(1.0, 1.0)
            .seed(5)
            .runtime(RuntimeConfig::default().with_batch(5).with_threads(2))
            .run();
        assert_eq!(serial.accuracy.compiled_per, batched.accuracy.compiled_per);
        assert_eq!(serial.accuracy.baseline_per, batched.accuracy.baseline_per);
    }

    #[test]
    fn fixed_precision_choice_flows_into_report() {
        let report = quick()
            .compression(1.0, 1.0)
            .seed(5)
            .runtime(
                RuntimeConfig::default()
                    .with_precision(PrecisionChoice::Fixed(RuntimePrecision::Int8)),
            )
            .run();
        assert_eq!(report.performance.precision, "int8");
        assert_eq!(report.performance.layers_f32, 0);
        assert_eq!(report.performance.layers_f16, 0);
        assert_eq!(report.performance.layers_int8, 2);
        assert!(report.performance.storage_bytes > 0);
        // Weight-only int8 stays close to the dense-scored accuracy on
        // this easy task.
        let f32_run = quick()
            .compression(1.0, 1.0)
            .seed(5)
            .runtime(
                RuntimeConfig::default()
                    .with_precision(PrecisionChoice::Fixed(RuntimePrecision::F32)),
            )
            .run();
        assert_eq!(f32_run.performance.precision, "f32");
        assert!(
            (report.accuracy.compiled_per - f32_run.accuracy.compiled_per).abs() < 15.0,
            "int8 {} f32 {}",
            report.accuracy.compiled_per,
            f32_run.accuracy.compiled_per
        );
        // int8 storage is strictly smaller than the f32 compile.
        assert!(report.performance.storage_bytes < f32_run.performance.storage_bytes);
    }

    #[test]
    fn pruned_pipeline_compresses_and_stays_reasonable() {
        let report = quick().compression(4.0, 1.0).seed(6).run();
        assert!(
            report.accuracy.achieved_rate > 2.5,
            "rate {}",
            report.accuracy.achieved_rate
        );
        assert!(report.accuracy.kept_params < report.accuracy.total_params);
        // Pruned PER should not be catastrophically worse than baseline on
        // this easy task.
        assert!(
            report.accuracy.pruned_per < report.accuracy.baseline_per + 40.0,
            "baseline {} pruned {}",
            report.accuracy.baseline_per,
            report.accuracy.pruned_per
        );
        // The compiled (default f16) path tracks the pruned accuracy.
        assert!(
            (report.accuracy.compiled_per - report.accuracy.pruned_per).abs() < 15.0,
            "pruned {} compiled {}",
            report.accuracy.pruned_per,
            report.accuracy.compiled_per
        );
        // Pruned inference is faster than the dense run.
        let dense = quick().compression(1.0, 1.0).seed(6).run();
        assert!(report.performance.gpu.time_us < dense.performance.gpu.time_us);
    }
}

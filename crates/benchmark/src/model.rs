//! Seeded inputs: the model, the corpus and the bundle round trip.
//!
//! Everything a workload feeds the program under test is generated here
//! from `--seed`; the program only ever sees generated inputs. The model
//! reaches the workload the way a user's does: compiled with
//! `CompiledNetwork::compile`, written with `bundle::write` and loaded
//! back with `CompiledBundle::load`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rtm_pruning::{AdmmConfig, BspConfig, BspPruner, CompressionTarget};
use rtm_rnn::model::{GruNetwork, NetworkConfig};
use rtm_speech::corpus::{CorpusConfig, SpeechCorpus, Utterance};
use rtm_speech::phones::NUM_PHONES;
use rtm_speech::task::SpeechTask;
use rtm_tensor::rng::StdRng;
use rtm_tensor::Matrix;
use rtmobile::bundle::{self, BundleMeta, CompiledBundle};
use rtmobile::deploy::{CompiledNetwork, RuntimePrecision};
use rtmobile::{PrecisionChoice, RuntimeConfig};

use crate::spec::{ModelKind, Scale, Workload, BLOCKS, STRIPES};

/// Acoustic feature width of every corpus in the benchmark.
pub const FEATURE_DIM: usize = 39;

/// Wall time of each set-up step, in seconds (zero for steps a workload
/// does not have).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SetupTimes {
    /// `SpeechCorpus::generate` / `SpeechTask::new`.
    pub corpus_gen_s: f64,
    /// Dense training (pipeline model only).
    pub train_s: f64,
    /// `BspPruner::prune` (pipeline model only).
    pub admm_s: f64,
    /// Parameters the pruner kept (pipeline model only).
    pub kept_params: usize,
    /// `CompiledNetwork::compile`.
    pub compile_s: f64,
    /// `bundle::write` (encode + atomic publish).
    pub write_s: f64,
    /// `CompiledBundle::load`.
    pub load_s: f64,
}

/// A workload's model and inputs, ready to run.
#[derive(Debug)]
pub struct Model {
    /// The pruned dense network the bundle was compiled from — the
    /// independent reference and the source of the layer probes' matrices.
    pub dense: GruNetwork,
    /// The bundle as loaded back from disk (what gets served).
    pub bundle: CompiledBundle,
    /// Where the bundle was published.
    pub bundle_path: PathBuf,
    /// Size of the v5 bundle file.
    pub model_bytes: u64,
    /// Utterances the workload replays.
    pub utterances: Vec<Utterance>,
    /// Storage precision the network was compiled at.
    pub precision: RuntimePrecision,
    /// Step timings.
    pub times: SetupTimes,
}

impl Model {
    /// The loaded network.
    pub fn net(&self) -> &CompiledNetwork {
        &self.bundle.net
    }

    /// Removes the published bundle file.
    pub fn cleanup(&self) {
        let _ = std::fs::remove_file(&self.bundle_path);
    }
}

/// Where the benchmark writes its files: `$CARGO_TARGET_DIR/benchmark`
/// (`target/benchmark` when unset), relative to the working directory.
pub fn work_dir() -> PathBuf {
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), Into::into);
    base.join("benchmark")
}

/// Zeroes `m` down to a BSP pattern at `rate`×: every row kept; per stripe
/// `round(cols / rate)` columns kept (at least one), spread evenly over the
/// blocks (which columns of a block is a seeded choice), the kept set shared
/// by all rows of the stripe.
pub fn bsp_pattern(m: &mut Matrix, rate: f64, rng: &mut StdRng) {
    let (rows, cols) = m.shape();
    let stripe_h = rows.div_ceil(STRIPES);
    let block_w = cols.div_ceil(BLOCKS);
    let blocks = cols.div_ceil(block_w);
    let per_stripe = ((cols as f64 / rate).round() as usize).clamp(1, cols);
    let mut kept = vec![false; cols];
    for s in 0..rows.div_ceil(stripe_h) {
        kept.fill(false);
        // The remainder goes to `extra` consecutive blocks from a seeded
        // start, so no block is favoured across stripes.
        let (share, extra) = (per_stripe / blocks, per_stripe % blocks);
        let first_extra = rng.gen_range(0..blocks);
        for b in 0..blocks {
            let c0 = b * block_w;
            let width = ((b + 1) * block_w).min(cols) - c0;
            let bonus = usize::from((b + blocks - first_extra) % blocks < extra);
            let keep = (share + bonus).min(width);
            let mut order: Vec<usize> = (c0..c0 + width).collect();
            for i in 0..keep {
                let j = rng.gen_range(i..width);
                order.swap(i, j);
                kept[order[i]] = true;
            }
        }
        let r1 = ((s + 1) * stripe_h).min(rows);
        for r in s * stripe_h..r1 {
            for (v, &k) in m.row_mut(r).iter_mut().zip(&kept) {
                if !k {
                    *v = 0.0;
                }
            }
        }
    }
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot = t0.elapsed().as_secs_f64();
    out
}

/// The pipeline's task: a synthetic TIMIT-like corpus with every fourth
/// speaker held out.
pub fn pipeline_task(seed: u64, scale: &Scale) -> SpeechTask {
    SpeechTask::new(
        &CorpusConfig {
            feature_dim: FEATURE_DIM,
            speakers: scale.pipeline_speakers,
            phones_per_sentence: scale.phones_per_sentence,
            noise: 0.4,
            ..CorpusConfig::default_scaled()
        },
        seed,
    )
}

/// Trains the pipeline's dense GRU and BSP-prunes it 10× — the
/// `rnn` / `pruning` layers' work. Returns the pruned network with the two
/// wall times and the kept-parameter count filled into `times`.
pub fn train_and_prune(
    task: &SpeechTask,
    seed: u64,
    scale: &Scale,
    times: &mut SetupTimes,
) -> GruNetwork {
    let mut net = task.new_network(scale.pipeline_hidden, seed.wrapping_add(1));
    timed(&mut times.train_s, || {
        task.train(&mut net, scale.dense_epochs, 8e-3)
    });
    let (admm_iterations, epochs_per_iteration, finetune_epochs) = scale.admm;
    let pruner = BspPruner::new(BspConfig {
        num_stripes: STRIPES,
        num_blocks: BLOCKS,
        target: CompressionTarget::new(10.0, 1.0),
        admm: AdmmConfig {
            rho: 2.0,
            admm_iterations,
            epochs_per_iteration,
            finetune_epochs,
            lr: 4e-3,
            clip: Some(rtm_rnn::GradClip::new(5.0)),
        },
    });
    let report = timed(&mut times.admm_s, || {
        pruner.prune(&mut net, &task.training_data())
    });
    times.kept_params = report.kept_params;
    net
}

/// Builds a workload's model and inputs from `seed`: generate (or train and
/// prune), compile, write the bundle under `dir` and load it back.
///
/// # Panics
///
/// Panics when the bundle cannot be written to or read from `dir` — the
/// benchmark cannot run without its model.
pub fn build(w: &Workload, seed: u64, scale: &Scale, dir: &Path) -> Model {
    let mut times = SetupTimes::default();
    let (dense, utterances, precision) = match w.model {
        ModelKind::Paper { rate, precision } => {
            let corpus = timed(&mut times.corpus_gen_s, || {
                SpeechCorpus::generate(
                    &CorpusConfig {
                        feature_dim: FEATURE_DIM,
                        speakers: scale.paper_speakers,
                        phones_per_sentence: scale.phones_per_sentence,
                        ..CorpusConfig::default_scaled()
                    },
                    seed,
                )
            });
            let mut net = GruNetwork::new(
                &NetworkConfig {
                    input_dim: FEATURE_DIM,
                    hidden_dims: vec![scale.paper_hidden; 2],
                    num_classes: NUM_PHONES,
                },
                seed.wrapping_add(1),
            );
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2));
            for layer in &mut net.layers {
                for (_, m) in layer.prunable_mut() {
                    bsp_pattern(m, rate, &mut rng);
                }
            }
            (net, corpus.utterances, precision)
        }
        ModelKind::Pipeline => {
            let task = timed(&mut times.corpus_gen_s, || pipeline_task(seed, scale));
            let net = train_and_prune(&task, seed, scale, &mut times);
            let test = task.test_utterances().into_iter().cloned().collect();
            let precision = match RuntimeConfig::default().resolved_precision() {
                PrecisionChoice::Fixed(p) => p,
                PrecisionChoice::Auto => RuntimePrecision::F32,
            };
            (net, test, precision)
        }
    };

    let compiled = timed(&mut times.compile_s, || {
        CompiledNetwork::compile(&dense, STRIPES, BLOCKS, precision)
            .expect("the 8x8 partition fits every benchmark model")
    });
    std::fs::create_dir_all(dir).expect("create the benchmark work directory");
    let bundle_path = dir.join(format!("{}-{}.rtm", w.name, std::process::id()));
    timed(&mut times.write_s, || {
        bundle::write(
            &bundle_path,
            &compiled,
            &BundleMeta::default().with_generation(1),
        )
        .expect("publish the bundle")
    });
    drop(compiled);
    let bundle = timed(&mut times.load_s, || {
        CompiledBundle::load(&bundle_path).expect("load the bundle back")
    });
    let model_bytes = std::fs::metadata(&bundle_path)
        .expect("stat the bundle")
        .len();
    Model {
        dense,
        bundle,
        bundle_path,
        model_bytes,
        utterances,
        precision,
        times,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bsp_pattern_keeps_every_row_and_the_requested_share() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = Matrix::from_fn(64, 128, |r, c| 0.1 + ((r * 7 + c) % 13) as f32);
        bsp_pattern(&mut m, 10.0, &mut rng);
        let stripe_h = 64 / STRIPES;
        for r in 0..64 {
            let nnz = m.row(r).iter().filter(|v| **v != 0.0).count();
            assert_eq!(nnz, 13, "round(128 / 10) columns per row");
            let s0 = r / stripe_h * stripe_h;
            for c in 0..128 {
                assert_eq!(
                    m[(r, c)] != 0.0,
                    m[(s0, c)] != 0.0,
                    "kept set is stripe-wide"
                );
            }
        }
        // 103x on 1024 columns: ten columns per stripe, at most two a block.
        let mut m = Matrix::filled(16, 1024, 1.0);
        bsp_pattern(&mut m, 103.0, &mut rng);
        assert_eq!(m.row(0).iter().filter(|v| **v != 0.0).count(), 10);
        for b in 0..BLOCKS {
            let kept = (b * 128..(b + 1) * 128)
                .filter(|&c| m[(0, c)] != 0.0)
                .count();
            assert!((1..=2).contains(&kept), "block {b} keeps {kept}");
        }
        // Narrow inputs never lose every column: 39 / 103 rounds to zero.
        let mut m = Matrix::filled(16, 39, 1.0);
        bsp_pattern(&mut m, 103.0, &mut rng);
        assert_eq!(m.row(0).iter().filter(|v| **v != 0.0).count(), 1);
        bsp_pattern(&mut Matrix::filled(16, 39, 1.0), 10.0, &mut rng);
    }
}

//! Contracts of the two runtime storage formats (DESIGN.md §13): every
//! storage format (BSPC, CSR) produces identical f32 logits to the dense
//! reference, every format × precision is bit-identical across the serial,
//! pooled and batched engines at every thread count, a mixed-format model
//! survives the `.rtm` round-trip bit-exactly, and the `auto` format mode
//! ships a per-layer selection while the pipeline's PER guard holds.

use rtm_exec::Executor;
use rtm_rnn::model::NetworkConfig;
use rtm_rnn::GruNetwork;
use rtmobile::deploy::{BatchedSession, CompiledNetwork, RuntimeFormat, RuntimePrecision};
use rtmobile::{model_file, FormatChoice, RtMobile, RuntimeConfig};

const ALL_FORMATS: [RuntimeFormat; 2] = [RuntimeFormat::Bspc, RuntimeFormat::Csr];

const ALL_PRECISIONS: [RuntimePrecision; 3] = [
    RuntimePrecision::F32,
    RuntimePrecision::F16,
    RuntimePrecision::Int8,
];

fn network(seed: u64) -> GruNetwork {
    GruNetwork::new(
        &NetworkConfig {
            input_dim: 6,
            hidden_dims: vec![12, 12],
            num_classes: 4,
        },
        seed,
    )
}

fn frames(count: usize, dim: usize, phase: usize) -> Vec<Vec<f32>> {
    (0..count)
        .map(|t| {
            (0..dim)
                .map(|i| (((phase * 37 + t * dim + i) as f32) * 0.23 + 0.11).sin() * 0.6)
                .collect()
        })
        .collect()
}

fn compile_uniform(
    net: &GruNetwork,
    format: RuntimeFormat,
    precision: RuntimePrecision,
) -> CompiledNetwork {
    CompiledNetwork::compile_with_formats(net, 4, 4, &[], precision, &[], format).unwrap()
}

fn assert_bits_equal(a: &[Vec<f32>], b: &[Vec<f32>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: frame count");
    for (t, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.len(), y.len(), "{what}: frame {t} width");
        for (i, (p, q)) in x.iter().zip(y).enumerate() {
            assert_eq!(
                p.to_bits(),
                q.to_bits(),
                "{what}: frame {t} logit {i}: {p} vs {q}"
            );
        }
    }
}

/// Storage format is a layout decision, never a semantic one: at f32 every
/// format stores the exact same values, so both compiled runtimes must
/// agree with the BSPC reference to within float-summation-reorder noise
/// (each format accumulates its dot products in its own traversal order,
/// so the last bits may differ — but nothing else may).
#[test]
fn every_format_matches_the_bspc_reference_at_f32() {
    let net = network(91);
    let input = frames(10, 6, 2);
    let reference = compile_uniform(&net, RuntimeFormat::Bspc, RuntimePrecision::F32);
    let base = reference.forward(&input);
    for format in ALL_FORMATS {
        let rt = compile_uniform(&net, format, RuntimePrecision::F32);
        assert_eq!(rt.format(), format);
        let got = rt.forward(&input);
        for (t, (x, y)) in base.iter().zip(&got).enumerate() {
            for (i, (p, q)) in x.iter().zip(y).enumerate() {
                assert!(
                    (p - q).abs() < 1e-5,
                    "{format:?} vs BSPC: frame {t} logit {i}: {p} vs {q}"
                );
            }
        }
    }
}

/// One numeric result per (format, precision), regardless of engine: the
/// serial loop, the pooled executor at every thread count, and the
/// lane-major batched session must agree bit for bit — the acceptance
/// contract of every runtime format.
#[test]
fn serial_pooled_and_batched_agree_bit_for_bit_per_format_and_precision() {
    let net = network(47);
    let lens = [5usize, 2, 7, 3];
    let streams: Vec<Vec<Vec<f32>>> = lens
        .iter()
        .enumerate()
        .map(|(s, &len)| frames(len, 6, s))
        .collect();
    for format in ALL_FORMATS {
        for precision in ALL_PRECISIONS {
            let compiled = compile_uniform(&net, format, precision);
            let serial: Vec<Vec<Vec<f32>>> = streams.iter().map(|s| compiled.forward(s)).collect();
            for threads in [1usize, 3] {
                let exec = Executor::new(threads);
                for (s, stream) in streams.iter().enumerate() {
                    assert_bits_equal(
                        &serial[s],
                        &compiled.forward_with(&exec, stream),
                        &format!("pooled {format:?}/{precision:?} stream {s} at {threads} threads"),
                    );
                }
                let mut session = BatchedSession::new(&compiled, &exec, 3);
                let batched = session.run(&streams);
                for (s, got) in batched.iter().enumerate() {
                    assert_bits_equal(
                        &serial[s],
                        got,
                        &format!(
                            "batched {format:?}/{precision:?} stream {s} at {threads} threads"
                        ),
                    );
                }
            }
        }
    }
}

/// A per-layer mixed-format model survives the `.rtm` round-trip with
/// bit-identical logits at every precision, and the decoded network
/// reports the same per-layer formats it was compiled with.
#[test]
fn mixed_format_model_file_roundtrip_is_bit_exact() {
    let net = network(63);
    let input = frames(8, 6, 4);
    let per_layer = [RuntimeFormat::Csr, RuntimeFormat::Bspc];
    for precision in ALL_PRECISIONS {
        let compiled = CompiledNetwork::compile_with_formats(
            &net,
            4,
            4,
            &[],
            precision,
            &per_layer,
            RuntimeFormat::Csr,
        )
        .unwrap();
        let bytes = model_file::to_bytes(&compiled);
        let decoded = model_file::from_bytes(&bytes).unwrap();
        assert_eq!(decoded.layer_formats(), per_layer.to_vec());
        assert_bits_equal(
            &compiled.forward(&input),
            &decoded.forward(&input),
            &format!("roundtrip at {precision:?}"),
        );
        // Re-encoding the decoded network is byte-identical: the codec has
        // one canonical form per model.
        assert_eq!(bytes, model_file::to_bytes(&decoded));
    }
}

/// The acceptance-criterion pipeline run: `auto` times both formats
/// against each layer's actual pruned weights and ships a per-layer
/// selection. Every layer must report a format, the resolved tag must be
/// `auto`, and the compiled PER must stay coherent with the pruned f32
/// accuracy — i.e. the format guard's contract (format never moves
/// accuracy) holds on a real run.
#[test]
fn auto_format_selects_per_layer_within_per_guard() {
    let (report, _, compiled) = RtMobile::builder()
        .corpus(rtm_speech::corpus::CorpusConfig {
            speakers: 12,
            sentences_per_speaker: 3,
            phones_per_sentence: 5,
            noise: 0.35,
            ..rtm_speech::corpus::CorpusConfig::default_scaled()
        })
        .hidden(24)
        .dense_training(8, 0.01)
        .compression(4.0, 2.0)
        .partition(4, 4)
        .admm(rtm_pruning::admm::AdmmConfig {
            rho: 2.0,
            admm_iterations: 1,
            epochs_per_iteration: 3,
            finetune_epochs: 6,
            lr: 4e-3,
            clip: Some(rtm_rnn::GradClip::new(5.0)),
        })
        .sim_hidden(256)
        .seed(3)
        .runtime(RuntimeConfig::default().with_format(FormatChoice::Auto))
        .run_keeping_model();

    let p = &report.performance;
    assert_eq!(p.format, "auto");
    assert_eq!(
        p.layers_bspc + p.layers_csr,
        2,
        "every layer reports a storage format"
    );
    // The probe's measurements ride with the model: one cost per layer,
    // each naming the format the layer shipped with, persisted through the
    // `.rtm` `TUNE` section so a serving-side load skips the probe.
    let costs = compiled.tuner_costs();
    assert_eq!(costs.len(), 2, "one format probe record per layer");
    for (i, c) in costs.iter().enumerate() {
        assert_eq!(c.layer, i);
        assert_eq!(c.format, compiled.layer_formats()[i]);
        assert!(c.micros > 0.0, "layer {i} measured cost must be positive");
    }
    let decoded = model_file::from_bytes(&model_file::to_bytes(&compiled)).expect("decodes");
    assert_eq!(decoded.tuner_costs(), costs);
    let a = &report.accuracy;
    assert!(
        (a.compiled_per - a.pruned_per).abs() < 20.0,
        "auto-format PER {:.2}% incoherent with pruned f32 PER {:.2}%",
        a.compiled_per,
        a.pruned_per
    );
}

/// A fixed non-default format flows end to end through the pipeline and
/// into the report: every layer lands in the requested format and the
/// accuracy is untouched versus the BSPC default (format is layout, not
/// semantics — at f32 the PER may only move by summation-reorder noise,
/// which on this easy task is zero decisions flipped).
#[test]
fn fixed_format_choice_flows_into_report_with_identical_accuracy() {
    let quick = |format: RuntimeFormat| {
        RtMobile::builder()
            .corpus(rtm_speech::corpus::CorpusConfig {
                speakers: 8,
                sentences_per_speaker: 2,
                phones_per_sentence: 4,
                ..rtm_speech::corpus::CorpusConfig::tiny()
            })
            .hidden(16)
            .dense_training(6, 0.01)
            .sim_hidden(128)
            .compression(1.0, 1.0)
            .seed(5)
            .runtime(
                RuntimeConfig::default()
                    .with_precision(rtmobile::PrecisionChoice::Fixed(RuntimePrecision::F32))
                    .with_format(FormatChoice::Fixed(format)),
            )
            .run()
    };
    // Pin both runs explicitly: the baseline must stay BSPC even when the
    // suite runs under `RTM_FORMAT=auto` (the CI fifth pass).
    let bspc = quick(RuntimeFormat::Bspc);
    let csr = quick(RuntimeFormat::Csr);
    assert_eq!(bspc.performance.format, "bspc");
    assert_eq!(bspc.performance.layers_bspc, 2);
    assert_eq!(csr.performance.format, "csr");
    assert_eq!(csr.performance.layers_csr, 2);
    assert_eq!(csr.performance.layers_bspc, 0);
    assert!(
        (bspc.accuracy.compiled_per - csr.accuracy.compiled_per).abs() < 1.0,
        "f32 accuracy must be format-independent: bspc {:.2}% csr {:.2}%",
        bspc.accuracy.compiled_per,
        csr.accuracy.compiled_per
    );
}

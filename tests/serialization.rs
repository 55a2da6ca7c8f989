//! Serialization integration tests: the full train → prune → compile →
//! save → load → predict loop through the filesystem, plus adversarial
//! corruption of stored models.

use rtm_pruning::admm::AdmmConfig;
use rtm_pruning::bsp::{BspConfig, BspPruner};
use rtm_pruning::schedule::CompressionTarget;
use rtm_speech::corpus::CorpusConfig;
use rtm_speech::task::SpeechTask;
use rtm_tensor::simd;
use rtmobile::config::{PrecisionChoice, RuntimeConfig};
use rtmobile::deploy::{CompiledNetwork, RuntimePrecision};
use rtmobile::{bundle, model_file, RtMobile};

fn build_compiled() -> (SpeechTask, CompiledNetwork) {
    let task = SpeechTask::new(
        &CorpusConfig {
            speakers: 8,
            sentences_per_speaker: 2,
            phones_per_sentence: 4,
            ..CorpusConfig::tiny()
        },
        55,
    );
    let mut net = task.new_network(16, 55);
    task.train(&mut net, 6, 0.01);
    BspPruner::new(BspConfig {
        num_stripes: 4,
        num_blocks: 2,
        target: CompressionTarget::new(3.0, 1.0),
        admm: AdmmConfig {
            admm_iterations: 1,
            epochs_per_iteration: 2,
            finetune_epochs: 3,
            ..AdmmConfig::default()
        },
    })
    .prune(&mut net, &task.training_data());
    let compiled =
        CompiledNetwork::compile(&net, 4, 2, RuntimePrecision::F16).expect("partition fits");
    (task, compiled)
}

#[test]
fn save_load_predict_through_filesystem() {
    let (task, compiled) = build_compiled();
    let bytes = model_file::to_bytes(&compiled);

    let dir = std::env::temp_dir().join("rtm_serialization_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("model.rtm");
    std::fs::write(&path, &bytes).expect("write model");

    let loaded_bytes = std::fs::read(&path).expect("read model");
    assert_eq!(loaded_bytes, bytes, "filesystem round trip is byte-exact");
    let loaded = model_file::from_bytes(&loaded_bytes).expect("decode");

    // Predictions of the loaded model match the in-memory compiled model on
    // every held-out utterance.
    for u in task.test_utterances() {
        assert_eq!(
            compiled.predict(&u.frames),
            loaded.predict(&u.frames),
            "loaded model must predict identically"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_models_never_panic() {
    let (_, compiled) = build_compiled();
    let bytes = model_file::to_bytes(&compiled);

    // Flip each byte in a stride across the file: decoding must either fail
    // cleanly or produce a structurally valid model — never panic.
    for i in (0..bytes.len()).step_by(97) {
        let mut corrupted = bytes.clone();
        corrupted[i] ^= 0xFF;
        let _ = model_file::from_bytes(&corrupted);
    }
    // Random truncations likewise.
    for n in (0..bytes.len()).step_by(131) {
        assert!(model_file::from_bytes(&bytes[..n]).is_err());
    }
}

#[test]
fn f16_storage_halves_the_file() {
    let task = SpeechTask::new(&CorpusConfig::tiny(), 9);
    let net = task.new_network(24, 9);
    let f32_model = CompiledNetwork::compile(&net, 4, 2, RuntimePrecision::F32).expect("fits");
    let f16_model = CompiledNetwork::compile(&net, 4, 2, RuntimePrecision::F16).expect("fits");
    let b32 = model_file::to_bytes(&f32_model).len();
    let b16 = model_file::to_bytes(&f16_model).len();
    // Values dominate the file; f16 should land well under 75% of f32.
    assert!((b16 as f64) < (b32 as f64) * 0.75, "f16 {b16} vs f32 {b32}");
}

/// A v5 bundle written by the commit BEFORE BSPC's values moved into row
/// tiles (`rtm compile --hidden 12 --seed 7`, AVX2 host): bytes the tile ↔
/// wire permutation did not produce. It must load, re-encode to the very
/// same bytes, and score like the same pipeline compiled afresh.
#[test]
fn row_major_bundle_of_the_parent_loads_reencodes_and_scores() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/bspc_rowmajor_v5.bundle"
    );
    let bytes = std::fs::read(path).expect("fixture");
    let loaded = bundle::from_bytes(&bytes).expect("a parent-written bundle decodes");
    assert_eq!(
        bundle::to_bytes_with(&loaded.net, &loaded.meta),
        bytes,
        "re-encoding restores the row-major wire order"
    );

    // The twin repeats the fixture's training, whose bits depend on the dot
    // kernels: it is the fixture's model only under the arithmetic the
    // fixture was written with. (Read, not set: the policy is process-global
    // and the other tests of this binary run beside this one.)
    if simd::vector_isa() != "avx2+fma" || simd::active_variant() != simd::Variant::Vector {
        return;
    }
    let runtime =
        RuntimeConfig::default().with_precision(PrecisionChoice::Fixed(RuntimePrecision::F16));
    let (_, _, twin) = RtMobile::builder()
        .hidden(12)
        .seed(7)
        .runtime(runtime)
        .run_keeping_model();
    // A fresh compile attaches no reorder permutation, so its bytes are the
    // fixture's less the permutations; `rtmobile::bundle`'s unit test
    // `fixture_is_a_fresh_compile_plus_its_permutations` re-attaches them
    // and pins every other byte.
    let task = SpeechTask::new(&CorpusConfig::default_scaled(), 7);
    let frames = &task.test_utterances()[0].frames;
    let bits = |logits: Vec<Vec<f32>>| -> Vec<u32> {
        logits.iter().flatten().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(loaded.net.forward(frames)), bits(twin.forward(frames)));
}

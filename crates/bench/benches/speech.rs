//! Criterion benchmarks of the speech substrate (harness C1): corpus
//! generation, training steps at task scale, PER scoring and the Viterbi
//! decoder.
//!
//! ```text
//! cargo bench -p rtm-bench --bench speech
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use rtm_speech::corpus::{CorpusConfig, SpeechCorpus};
use rtm_speech::decode::{decode_offline, ViterbiDecoder};
use rtm_speech::per::{edit_distance, PerReport};
use rtm_speech::task::SpeechTask;
use std::hint::black_box;

fn bench_corpus_generation(c: &mut Criterion) {
    let cfg = CorpusConfig {
        speakers: 8,
        sentences_per_speaker: 2,
        ..CorpusConfig::default_scaled()
    };
    c.bench_function("corpus_generate_16utt", |b| {
        b.iter(|| SpeechCorpus::generate(black_box(&cfg), 7))
    });
}

fn bench_train_step(c: &mut Criterion) {
    let task = SpeechTask::new(&CorpusConfig::tiny(), 3);
    let mut net = task.new_network(48, 3);
    let data = task.training_data();
    let (frames, labels) = &data[0];
    let mut opt = rtm_rnn::Adam::new(1e-3);
    c.bench_function("speech_train_step_h48", |b| {
        b.iter(|| net.train_step(black_box(frames), black_box(labels), &mut opt, None))
    });
}

fn bench_scoring(c: &mut Criterion) {
    let task = SpeechTask::new(&CorpusConfig::tiny(), 5);
    let mut net = task.new_network(24, 5);
    task.train(&mut net, 5, 0.01);
    let utterances: Vec<_> = task
        .test_utterances()
        .into_iter()
        .map(|u| (u.frames.clone(), u.labels.clone(), u.phones.clone()))
        .collect();

    c.bench_function("per_evaluation", |b| {
        b.iter(|| {
            let mut report = PerReport::default();
            for (frames, labels, phones) in &utterances {
                let preds = net.predict(black_box(frames));
                report.add(&preds, labels, phones);
            }
            report
        })
    });

    let logits: Vec<Vec<Vec<f32>>> = utterances
        .iter()
        .map(|(frames, _, _)| net.forward(frames))
        .collect();
    c.bench_function("viterbi_decode", |b| {
        b.iter(|| {
            logits
                .iter()
                .map(|l| decode_offline(&mut ViterbiDecoder::new(2.5), black_box(l)).symbols)
                .collect::<Vec<_>>()
        })
    });
}

fn bench_edit_distance(c: &mut Criterion) {
    let a: Vec<usize> = (0..100).map(|i| i % 39).collect();
    let b: Vec<usize> = (0..100).map(|i| (i * 7 + 3) % 39).collect();
    c.bench_function("edit_distance_100x100", |bench| {
        bench.iter(|| edit_distance(black_box(&a), black_box(&b)))
    });
}

criterion_group!(
    benches,
    bench_corpus_generation,
    bench_train_step,
    bench_scoring,
    bench_edit_distance
);
criterion_main!(benches);

//! The one-utterance production loop, pinned through the public API across
//! its chunk edges: whatever number of frames `forward_with` carries
//! through a layer at a time, `forward_with` is — bit for bit — the
//! reference `forward`, `predict_with` is `predict`, and `decode_with` is
//! the offline decode of `forward`'s logits.
//!
//! The utterance lengths sit on both sides of every edge of a 16-frame
//! chunk (empty, one frame, one short of a chunk, one chunk, one past it,
//! two chunks, three and a part) and of every group of four frames inside
//! one (`4k ± 1`), for every precision of BSPC, on one thread and three,
//! under the host's SIMD variant and the scalar reference. Four networks:
//! a two-layer one whose layers differ in width (the activation planes
//! change size between layers), a one-layer one whose input is wider than
//! its state, with the 39-class head, and two whose gates cut into the row
//! tiles production runs — 16 rows at hidden 64, 12 at hidden 48 (a full
//! lane group and a partial one), with heads of 39 and 11 classes. Frames
//! carry both zeros everywhere; `±∞` and NaN enter in the middle of a
//! chunk.
//!
//! Own test binary (see `crates/rtmobile/Cargo.toml`): it walks the
//! process-global SIMD policy, so everything lives in ONE `#[test]`.

use rtm_exec::Executor;
use rtm_rnn::model::NetworkConfig;
use rtm_rnn::GruNetwork;
use rtm_speech::Hypothesis;
use rtm_tensor::simd::{self, SimdPolicy, Variant};
use rtmobile::config::DecoderChoice;
use rtmobile::deploy::{CompiledNetwork, RuntimePrecision};

/// The chunk length the lengths below straddle.
const K: usize = 16;
const LENGTHS: [usize; 13] = [0, 1, 3, 5, 7, 9, 11, 13, K - 1, K, K + 1, 2 * K, 3 * K + 5];
const PRECISIONS: [RuntimePrecision; 3] = [
    RuntimePrecision::F32,
    RuntimePrecision::F16,
    RuntimePrecision::Int8,
];
const DECODERS: [DecoderChoice; 3] = [
    DecoderChoice::Argmax,
    DecoderChoice::CtcGreedy,
    DecoderChoice::CtcBeam(4),
];

fn networks() -> [GruNetwork; 4] {
    let net = |input_dim, hidden_dims, num_classes, seed| {
        GruNetwork::new(
            &NetworkConfig {
                input_dim,
                hidden_dims,
                num_classes,
            },
            seed,
        )
    };
    [
        net(6, vec![24, 16], 7, 0xC4),
        net(33, vec![9], 39, 0x16),
        net(20, vec![64], 39, 0x64),
        net(6, vec![48, 48], 11, 0x48),
    ]
}

/// Three utterances of `t` frames: finite frames with both zeros; the same
/// with `-∞` and `+∞` entering mid-chunk; and the same with one NaN
/// entering mid-chunk (the state is NaN from there on, so the frames before
/// it are the finite ones).
fn utterances(t: usize, input: usize) -> [Vec<Vec<f32>>; 3] {
    let finite: Vec<Vec<f32>> = (0..t)
        .map(|f| {
            (0..input)
                .map(|i| match (f + 2 * i) % 5 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => ((f * input + i) as f32 * 0.37).sin(),
                })
                .collect()
        })
        .collect();
    let mid = |f: usize| f.min(t.saturating_sub(1));
    let (mut infinite, mut nan) = (finite.clone(), finite.clone());
    if t > 0 {
        infinite[mid(K / 2)][0] = f32::NEG_INFINITY;
        infinite[mid(K + K / 2)][input - 1] = f32::INFINITY;
        nan[mid(2 * K + K / 2)][input / 2] = f32::NAN;
    }
    [finite, infinite, nan]
}

fn assert_same_bits(got: &[Vec<f32>], want: &[Vec<f32>], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: frame count");
    for (t, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{what}: frame {t} width");
        for (c, (g, w)) in g.iter().zip(w).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: frame {t} class {c}: {g:e} ({:#010x}) vs {w:e} ({:#010x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }
}

fn assert_same_hypothesis(got: &Hypothesis, want: &Hypothesis, what: &str) {
    assert_eq!(got.symbols, want.symbols, "{what}: symbols");
    assert!(
        got.score.to_bits() == want.score.to_bits() || (got.score.is_nan() && want.score.is_nan()),
        "{what}: score {} vs {}",
        got.score,
        want.score
    );
    assert_eq!(
        (got.frames, got.endpoint, got.is_final),
        (want.frames, want.endpoint, want.is_final),
        "{what}: frames / endpoint / final"
    );
}

/// Every executor-driven entry against its reference, on every utterance
/// length: `forward_with` on every executor; `predict_with` and
/// `decode_with` (the decoders take turns over the lengths and utterances)
/// on one executor each, taking turns, since both are `forward_with`
/// underneath.
fn check(net: &CompiledNetwork, execs: &[Executor], what: &str) {
    for t in LENGTHS {
        for (u, frames) in utterances(t, net.input_dim()).iter().enumerate() {
            let want = net.forward(frames);
            for exec in execs {
                let what = format!("{what} T={t} utterance {u} {} threads", exec.threads());
                assert_same_bits(&net.forward_with(exec, frames), &want, &what);
            }
            let exec = &execs[u % execs.len()];
            let what = format!("{what} T={t} utterance {u} {} threads", exec.threads());
            assert_eq!(
                net.predict_with(exec, frames),
                net.predict(frames),
                "predict, {what}"
            );
            let choice = DECODERS[(t + u) % DECODERS.len()];
            let reference =
                rtm_speech::decode_offline(choice.build(net.num_classes()).as_mut(), &want);
            assert_same_hypothesis(
                &net.decode_with(exec, frames, choice),
                &reference,
                &format!("{} decode, {what}", choice.label()),
            );
        }
    }
}

#[test]
fn forward_with_is_the_reference_across_every_chunk_edge() {
    let ambient = simd::policy();
    let execs = [1usize, 3].map(Executor::new);
    for policy in [SimdPolicy::Auto, SimdPolicy::Fixed(Variant::ScalarU1)] {
        simd::set_policy(policy);
        for (n, base) in networks().iter().enumerate() {
            for precision in PRECISIONS {
                let net = CompiledNetwork::compile(base, 4, 2, precision).unwrap();
                let what = format!("{policy:?} net {n} bspc {precision:?}");
                check(&net, &execs, &what);
            }
        }
    }
    simd::set_policy(ambient);
}

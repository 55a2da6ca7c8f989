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
//! under the host's SIMD variant and the scalar reference. Five networks:
//! a two-layer one whose layers differ in width (the activation planes
//! change size between layers), a one-layer one whose input is wider than
//! its state, with the 39-class head, two whose gates cut into the row
//! tiles production runs — 16 rows at hidden 64, 12 at hidden 48 (a full
//! lane group and a partial one), with heads of 39 and 11 classes —, and
//! one whose 20-row stripes (hidden 40 in two stripes) hold a full 16-row
//! tile and a 4-row one, so that one gate runs both tile heights in one
//! call. Each network also takes one-lane `forward_frame_batch` steps,
//! the serve path of a lone stream. Frames carry both zeros everywhere;
//! `±∞` and NaN enter in the middle of a chunk.
//!
//! Own test binary (see `crates/rtmobile/Cargo.toml`): it walks the
//! process-global SIMD policy, so everything lives in ONE `#[test]`.

use rtm_exec::Executor;
use rtm_rnn::model::NetworkConfig;
use rtm_rnn::GruNetwork;
use rtm_speech::Hypothesis;
use rtm_tensor::simd::{self, SimdPolicy, Variant};
use rtmobile::config::DecoderChoice;
use rtmobile::deploy::{CompiledNetwork, GruRuntimeScratch, RuntimePrecision};

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

/// Each network with the stripe count it is compiled at.
fn networks() -> [(GruNetwork, usize); 5] {
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
        (net(6, vec![24, 16], 7, 0xC4), 4),
        (net(33, vec![9], 39, 0x16), 4),
        (net(20, vec![64], 39, 0x64), 4),
        (net(6, vec![48, 48], 11, 0x48), 4),
        (net(20, vec![40], 39, 0x40), 2),
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

/// The utterance as one-lane `forward_frame_batch` steps, frame by frame.
fn frame_batch_one_lane(
    net: &CompiledNetwork,
    exec: &Executor,
    frames: &[Vec<f32>],
) -> Vec<Vec<f32>> {
    let mut states: Vec<Vec<f32>> = net
        .layers()
        .iter()
        .map(|l| vec![0.0; l.gates()[0].rows()])
        .collect();
    let mut scratch = GruRuntimeScratch::new();
    let (mut xs, mut hs_next, mut logits) = (Vec::new(), Vec::new(), Vec::new());
    frames
        .iter()
        .map(|frame| {
            xs.clear();
            xs.extend_from_slice(frame);
            net.forward_frame_batch(
                exec,
                &mut xs,
                1,
                &mut states,
                &mut scratch,
                &mut hs_next,
                &mut logits,
            )
            .unwrap();
            logits.clone()
        })
        .collect()
}

/// Every executor-driven entry against its reference, on every utterance
/// length: `forward_with` and one-lane `forward_frame_batch` steps on
/// every executor; `predict_with` and
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
                let stepped = frame_batch_one_lane(net, exec, frames);
                assert_same_bits(&stepped, &want, &format!("one-lane steps, {what}"));
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
        for (n, (base, stripes)) in networks().iter().enumerate() {
            for precision in PRECISIONS {
                let net = CompiledNetwork::compile(base, *stripes, 2, precision).unwrap();
                if *stripes == 2 {
                    // Every row of each 20-row stripe is kept: 16 + 4 rows.
                    for gate in net.layers()[0].gates() {
                        assert_eq!(gate.stripe_height(), 20, "net {n}: stripe height");
                        assert_eq!(gate.kept_rows().len(), 40, "net {n}: kept rows");
                    }
                }
                let what = format!("{policy:?} net {n} bspc {precision:?}");
                check(&net, &execs, &what);
            }
        }
    }
    simd::set_policy(ambient);
}

//! The classifier head, pinned through the public API: whatever layout the
//! production frame loop runs the dense head in, a single stream's logits
//! are — bit for bit — those of the reference `forward`, whether it enters
//! through `forward_with` or a one-lane `BatchedSession::step`.
//!
//! The shapes walk every row-tile edge of the head (1 to 48 classes: one
//! lane group, two, a partial one, several tiles) against every row-length
//! edge of the eight sublane chains (hidden 1 to 64), at each storage
//! precision. The head weights carry both zeros, an all-`-0.0` row, f16 and
//! f32 subnormals and `±65504`; the inputs carry `±∞` and NaN. A bundle that
//! is tagged f16 but carries a head that is not f16-exact must give the
//! reference bits too.
//!
//! Own test binary (see `crates/rtmobile/Cargo.toml`): it walks the
//! process-global SIMD policy, so everything lives in ONE `#[test]`.

use rtm_exec::Executor;
use rtm_rnn::model::NetworkConfig;
use rtm_rnn::GruNetwork;
use rtm_tensor::f16::quantize_f16;
use rtm_tensor::simd::{self, SimdPolicy, Variant};
use rtmobile::deploy::{BatchedSession, CompiledNetwork, RuntimePrecision};

const INPUT: usize = 5;
const CLASSES: [usize; 12] = [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 39, 48];
const HIDDEN: [usize; 5] = [1, 7, 8, 9, 64];
const PRECISIONS: [RuntimePrecision; 3] = [
    RuntimePrecision::F32,
    RuntimePrecision::F16,
    RuntimePrecision::Int8,
];

/// A one-layer GRU whose head holds the edge weights: row 1 is all `-0.0`,
/// and the other rows mix `±0`, an f16 subnormal, an f32 subnormal and the
/// largest finite half (both signs) into the network's own weights.
fn network(classes: usize, hidden: usize, seed: u64) -> GruNetwork {
    let mut net = GruNetwork::new(
        &NetworkConfig {
            input_dim: INPUT,
            hidden_dims: vec![hidden],
            num_classes: classes,
        },
        seed,
    );
    let w = &mut net.head.w;
    for j in 0..classes {
        for k in 0..hidden {
            let edge = match (j * 5 + k * 3) % 11 {
                _ if j == 1 => Some(-0.0),
                0 => Some(0.0),
                1 => Some(-0.0),
                2 => Some(3.0 * 2.0f32.powi(-24)),
                3 => Some(-1e-40),
                4 => Some(65504.0),
                5 => Some(-65504.0),
                _ => None,
            };
            if let Some(e) = edge {
                w[(j, k)] = e;
            }
        }
    }
    net
}

/// Three utterances: finite frames with both zeros; the same with `+∞` and
/// `-∞` entering at two frames; and the same with a NaN from frame 2 on.
fn utterances() -> [Vec<Vec<f32>>; 3] {
    let finite: Vec<Vec<f32>> = (0..6)
        .map(|t| {
            (0..INPUT)
                .map(|i| match (t + i) % 4 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => ((t * INPUT + i) as f32 * 0.61).sin(),
                })
                .collect()
        })
        .collect();
    let mut infinite = finite.clone();
    infinite[1][0] = f32::INFINITY;
    infinite[3][2] = f32::NEG_INFINITY;
    infinite[4][4] = f32::INFINITY;
    let mut nan = finite.clone();
    nan[2][1] = f32::NAN;
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

/// `forward_with` on each executor and a one-lane session step against the
/// reference `forward`, on every utterance.
fn check(net: &CompiledNetwork, execs: &[Executor], what: &str) {
    for (u, frames) in utterances().iter().enumerate() {
        let want = net.forward(frames);
        for exec in execs {
            let what = format!("{what} utterance {u} {} threads", exec.threads());
            assert_same_bits(&net.forward_with(exec, frames), &want, &what);

            let mut session = BatchedSession::new(net, exec, 4);
            assert!(session.admit(u));
            let stepped: Vec<Vec<f32>> = frames
                .iter()
                .map(|f| {
                    let mut out = session.step(&[(u, f.as_slice())]).unwrap();
                    assert_eq!(out.logits.len(), 1, "{what}: one lane, one row");
                    out.logits.pop().unwrap().1
                })
                .collect();
            assert_same_bits(&stepped, &want, &format!("session, {what}"));
        }
    }
}

/// A bundle tagged f16 whose head is not f16-exact: an f16 network's bytes
/// with head weights patched to values binary16 cannot hold, checksums
/// resealed (a hand-made or tool-edited file).
fn f16_tagged_with_inexact_head() -> CompiledNetwork {
    let (classes, hidden) = (39, 64);
    let net = CompiledNetwork::compile(
        &network(classes, hidden, 0x4EAD),
        4,
        2,
        RuntimePrecision::F16,
    )
    .unwrap();
    let mut bytes = rtmobile::bundle::to_bytes(&net);
    let probe = rtmobile::bundle::probe(&bytes).unwrap();
    let wght = probe.sections.iter().find(|s| &s.tag == b"WGHT").unwrap();
    // The body ends with the head: f32 weights, then the counted f32 bias.
    let head_end = wght.payload_offset + wght.len - 4 - 4 * classes;
    let head_start = head_end - 4 * classes * hidden;
    let inexact = [0.1f32, -1.0e-6, 70000.0, 1.0 + f32::EPSILON];
    for (i, w) in bytes[head_start..head_end].chunks_exact_mut(4).enumerate() {
        if i % 3 == 0 {
            let v = inexact[i % inexact.len()];
            assert_ne!(quantize_f16(v).to_bits(), v.to_bits());
            w.copy_from_slice(&v.to_le_bytes());
        }
    }
    assert!(rtmobile::bundle::reseal(&mut bytes));
    let patched = rtmobile::bundle::from_bytes(&bytes).unwrap().into_network();
    assert_eq!(patched.precision(), RuntimePrecision::F16);
    let frames = &utterances()[0];
    assert_ne!(
        patched.forward(frames),
        net.forward(frames),
        "the patch must reach the head"
    );
    patched
}

#[test]
fn one_lane_head_is_the_reference_head_on_every_tile_edge() {
    let ambient = simd::policy();
    let execs = [1usize, 3].map(Executor::new);
    for policy in [SimdPolicy::Auto, SimdPolicy::Fixed(Variant::ScalarU1)] {
        simd::set_policy(policy);
        for &classes in &CLASSES {
            for &hidden in &HIDDEN {
                let base = network(classes, hidden, (classes * 100 + hidden) as u64);
                for precision in PRECISIONS {
                    let net = CompiledNetwork::compile(&base, 4, 2, precision).unwrap();
                    let what =
                        format!("{policy:?} {precision:?} classes {classes} hidden {hidden}");
                    check(&net, &execs, &what);
                }
            }
        }
        let net = f16_tagged_with_inexact_head();
        check(
            &net,
            &execs,
            &format!("{policy:?} f16-tagged, inexact head"),
        );
    }
    simd::set_policy(ambient);
}

//! Numeric contracts of the quantized runtime (DESIGN.md §12): the int8
//! and f16 compiled paths track the f32 path within explicit error bounds,
//! every precision is bit-identical across the serial, pooled and batched
//! engines at every thread count, binary16 edge cases (subnormal flush,
//! ±∞ saturation, NaN) survive the storage round-trip through a full
//! quantized forward.

use rtm_exec::Executor;
use rtm_rnn::model::NetworkConfig;
use rtm_rnn::GruNetwork;
use rtm_tensor::f16::quantize_f16;
use rtmobile::deploy::{BatchedSession, CompiledNetwork, RuntimePrecision};

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

/// Deterministic synthetic frames in `[-0.6, 0.6]`, no exact zeros.
fn frames(count: usize, dim: usize, phase: usize) -> Vec<Vec<f32>> {
    (0..count)
        .map(|t| {
            (0..dim)
                .map(|i| (((phase * 37 + t * dim + i) as f32) * 0.23 + 0.11).sin() * 0.6)
                .collect()
        })
        .collect()
}

fn max_abs_diff(a: &[Vec<f32>], b: &[Vec<f32>]) -> f32 {
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| x.iter().zip(y).map(|(p, q)| (p - q).abs()))
        .fold(0.0f32, f32::max)
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

/// The quantized runtimes are approximations with *stated* bounds, not
/// "close enough": binary16 carries 11 significand bits (relative step
/// 2^-11 ≈ 4.9e-4 per rounding) and the logits here are O(1), so a
/// two-layer forward with activation re-rounding stays well under 0.05
/// absolute; int8 spends 8 bits per weight plus per-block scales, so its
/// band is wider but must stay under 0.5 on the same O(1) logits.
#[test]
fn quantized_runtimes_track_f32_within_explicit_bounds() {
    let net = network(77);
    let input = frames(12, 6, 3);
    let f32_rt = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F32).unwrap();
    let f16_rt = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F16).unwrap();
    let i8_rt = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::Int8).unwrap();

    let base = f32_rt.forward(&input);
    let d16 = max_abs_diff(&base, &f16_rt.forward(&input));
    let d8 = max_abs_diff(&base, &i8_rt.forward(&input));
    assert!(d16 > 0.0, "f16 path must actually round");
    assert!(d16 < 0.05, "f16 logit error {d16} exceeds the 0.05 bound");
    assert!(d8 > 0.0, "int8 path must actually quantize");
    assert!(d8 < 0.5, "int8 logit error {d8} exceeds the 0.5 bound");
}

/// One numeric result per precision, regardless of engine: the serial
/// loop, the pooled executor at every thread count, and the lane-major
/// batched session must agree bit for bit. For f32/f16 this holds because
/// the pooled/batched kernels keep the serial accumulation order; for
/// int8 because i32 accumulation is exact and each lane quantizes its
/// activation column exactly as the serial entry does.
#[test]
fn serial_pooled_and_batched_agree_bit_for_bit_per_precision() {
    let net = network(31);
    let lens = [5usize, 2, 7, 3];
    let streams: Vec<Vec<Vec<f32>>> = lens
        .iter()
        .enumerate()
        .map(|(s, &len)| frames(len, 6, s))
        .collect();
    for precision in [
        RuntimePrecision::F32,
        RuntimePrecision::F16,
        RuntimePrecision::Int8,
    ] {
        let compiled = CompiledNetwork::compile(&net, 4, 4, precision).unwrap();
        let serial: Vec<Vec<Vec<f32>>> = streams.iter().map(|s| compiled.forward(s)).collect();
        for threads in [1usize, 2, 4] {
            let exec = Executor::new(threads);
            for (s, stream) in streams.iter().enumerate() {
                assert_bits_equal(
                    &serial[s],
                    &compiled.forward_with(&exec, stream),
                    &format!("pooled {precision:?} stream {s} at {threads} threads"),
                );
            }
            let mut session = BatchedSession::new(&compiled, &exec, 3);
            let batched = session.run(&streams);
            for (s, got) in batched.iter().enumerate() {
                assert_bits_equal(
                    &serial[s],
                    got,
                    &format!("batched {precision:?} stream {s} at {threads} threads"),
                );
            }
        }
    }
}

/// Binary16 edge cases through a full quantized forward. The compile
/// contract is "pre-round once, then the 2-byte sidecar is exact": a
/// network whose weights include f16 subnormals, the exact f16 maximum
/// and overflowing magnitudes (which saturate to ±∞ in storage) must
/// produce bit-identical logits to compiling its pre-rounded twin — and
/// the saturated gates still yield finite logits.
#[test]
fn f16_edge_cases_survive_the_quantized_forward() {
    // Storage-level edge semantics first (the encode half of the map; the
    // decode half is covered bit-exhaustively in rtm_tensor::f16 tests).
    assert_eq!(quantize_f16(65504.0), 65504.0, "f16 max is exact");
    assert_eq!(quantize_f16(7.0e4), f32::INFINITY, "overflow saturates");
    assert_eq!(quantize_f16(-7.0e4), f32::NEG_INFINITY);
    let sub = quantize_f16(3.0e-5);
    assert!(
        sub > 0.0 && sub < 6.103_515_6e-5,
        "3e-5 lands in the subnormal band, not flushed: {sub}"
    );
    assert!(
        quantize_f16(1.0e-8).abs() < f32::MIN_POSITIVE,
        "below-subnormal flushes to zero"
    );
    assert!(quantize_f16(f32::NAN).is_nan(), "NaN stays NaN");

    let mut net = network(55);
    // Push a band of the first layer's update-gate input weights into the
    // subnormal range and plant one overflowing magnitude per sign; the
    // rest of the weights stay in the normal band.
    {
        let w_z = &mut net.layers[0].w_z;
        for v in w_z.row_mut(0) {
            *v *= 1.0e-4; // Xavier-scale values * 1e-4 land subnormal in f16.
        }
        // One saturating weight per row, rows apart: a dot product must
        // never see both signs of ∞ (that would be NaN by IEEE, not a
        // storage question).
        w_z.row_mut(3)[1] = 9.0e4; // +inf in storage.
        w_z.row_mut(7)[2] = -9.0e4; // -inf in storage.
        w_z.row_mut(10)[4] = 65504.0; // exact f16 max.
    }

    // The pre-rounded twin: every tensor the f16 compile stores at 2 bytes
    // gets the same rounding up front.
    let mut rounded = net.clone();
    for cell in &mut rounded.layers {
        for m in [
            &mut cell.w_z,
            &mut cell.u_z,
            &mut cell.w_r,
            &mut cell.u_r,
            &mut cell.w_n,
            &mut cell.u_n,
        ] {
            for v in m.as_mut_slice() {
                *v = quantize_f16(*v);
            }
        }
    }
    for v in rounded.head.w.as_mut_slice() {
        *v = quantize_f16(*v);
    }
    let stored: Vec<f32> = rounded.layers[0].w_z.as_slice().to_vec();
    assert!(
        stored.iter().any(|v| v.is_infinite()),
        "the overflow injections must saturate in storage"
    );
    assert!(
        stored.iter().any(|&v| v != 0.0 && v.abs() < 6.103_515_6e-5),
        "the subnormal injections must survive in storage"
    );

    let f16_rt = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F16).unwrap();
    let twin_rt = CompiledNetwork::compile(&rounded, 4, 4, RuntimePrecision::F16).unwrap();
    let input = frames(9, 6, 5);
    let got = f16_rt.forward(&input);
    assert_bits_equal(&got, &twin_rt.forward(&input), "pre-rounding is idempotent");
    for (t, frame) in got.iter().enumerate() {
        for (i, v) in frame.iter().enumerate() {
            assert!(
                v.is_finite(),
                "saturated gates must still produce finite logits: frame {t} logit {i} = {v}"
            );
        }
    }
}

//! Numeric contracts of the quantized runtime (DESIGN.md §12): the int8
//! and f16 compiled paths track the f32 path within explicit error bounds,
//! every precision is bit-identical across the serial, pooled and batched
//! engines at every thread count, binary16 edge cases (subnormal flush,
//! ±∞ saturation, NaN) survive the storage round-trip through a full
//! quantized forward, and the `Auto` precision mode ships, per layer, the
//! fastest precision of the kernel costs the pipeline itself measured
//! while the pipeline's PER guard holds.

use rtm_exec::Executor;
use rtm_rnn::model::NetworkConfig;
use rtm_rnn::GruNetwork;
use rtm_tensor::f16::quantize_f16;
use rtmobile::deploy::{BatchedSession, CompiledNetwork, RuntimePrecision};
use rtmobile::{PrecisionChoice, RtMobile, RuntimeConfig};

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

/// The acceptance-criterion pipeline run: `Auto` measures per-layer kernel
/// costs and ships the mixed-precision compile that follows them. Which
/// precision wins is a property of the host's kernels (while the serial f32
/// BSPC SpMV was a slower, indexed twin of the pooled kernel the quantized
/// ones always won; against the one gathered kernel f32 can), so the test
/// holds the selection to the pipeline's own measurements, not to a host:
/// every layer ships the precision its probe record names — or all-f32 if
/// the PER guard tripped, never a quantized layer past a tripped guard —
/// and the record of the last layer probed is the minimum of the three
/// candidate costs that probe published (`tuner.precision_cost_us.*`). PER
/// itself stays coherent with the f32-eval pruned accuracy at this quick
/// scale.
#[test]
fn auto_precision_selects_quantized_layers_within_per_guard() {
    // The probe publishes its candidate costs as gauges only when traced.
    let trace_before = rtm_trace::config();
    rtm_trace::set_config(rtm_trace::TraceConfig::on());
    let (report, _net, compiled) = RtMobile::builder()
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
        .runtime(RuntimeConfig::default().with_precision(PrecisionChoice::Auto))
        .run_keeping_model();
    rtm_trace::set_config(trace_before);

    let p = &report.performance;
    assert_eq!(p.precision, "auto");
    assert_eq!(
        p.layers_f32 + p.layers_f16 + p.layers_int8,
        2,
        "every layer reports a storage precision"
    );
    // The precision probe's records come first, one per layer, each naming
    // the candidate `select_precision` kept.
    let shipped = compiled.layer_precisions();
    let probed = &compiled.tuner_costs()[..shipped.len()];
    for (i, (record, &layer)) in probed.iter().zip(&shipped).enumerate() {
        assert_eq!(record.layer, i);
        assert!(
            record.micros > 0.0,
            "layer {i} measured cost must be positive"
        );
        let expected = if p.precision_guard_tripped {
            RuntimePrecision::F32
        } else {
            record.precision
        };
        assert_eq!(
            layer, expected,
            "layer {i} must ship what its probe selected"
        );
    }
    assert_eq!(
        p.layers_f16 + p.layers_int8,
        shipped
            .iter()
            .filter(|&&q| q != RuntimePrecision::F32)
            .count()
    );
    // The gauges hold the costs of the last probe run — the last layer's.
    let last = probed.last().expect("two layers");
    let cost_us = |q: RuntimePrecision| {
        rtm_trace::global()
            .gauge(&format!("tuner.precision_cost_us.{}", q.tag()))
            .expect("a traced probe publishes every candidate")
    };
    assert_eq!(cost_us(last.precision) as f32, last.micros);
    for q in [
        RuntimePrecision::F32,
        RuntimePrecision::F16,
        RuntimePrecision::Int8,
    ] {
        assert!(
            cost_us(last.precision) <= cost_us(q),
            "auto kept {} at {:.2} µs although the same probe measured {} at {:.2} µs",
            last.precision.tag(),
            cost_us(last.precision),
            q.tag(),
            cost_us(q)
        );
    }
    let a = &report.accuracy;
    assert!(
        (a.compiled_per - a.pruned_per).abs() < 20.0,
        "auto-mix PER {:.2}% incoherent with pruned f32 PER {:.2}%",
        a.compiled_per,
        a.pruned_per
    );
}

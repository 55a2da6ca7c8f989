//! Contracts of the runtime storage format (DESIGN.md §13): BSPC compiles
//! to the same f32 logits every time, and every precision is bit-identical
//! across the serial, pooled and batched engines at every thread count.

use rtm_exec::Executor;
use rtm_rnn::model::NetworkConfig;
use rtm_rnn::GruNetwork;
use rtmobile::deploy::{BatchedSession, CompiledNetwork, RuntimeFormat, RuntimePrecision};

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

fn compile_uniform(net: &GruNetwork, precision: RuntimePrecision) -> CompiledNetwork {
    CompiledNetwork::compile(net, 4, 4, precision).unwrap()
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

/// A second compile of the same network is the BSPC reference again: the
/// lowering is deterministic, so the logits agree.
#[test]
fn every_format_matches_the_bspc_reference_at_f32() {
    let net = network(91);
    let input = frames(10, 6, 2);
    let reference = compile_uniform(&net, RuntimePrecision::F32);
    let base = reference.forward(&input);
    let rt = compile_uniform(&net, RuntimePrecision::F32);
    assert_eq!(rt.format(), RuntimeFormat::Bspc);
    let got = rt.forward(&input);
    for (t, (x, y)) in base.iter().zip(&got).enumerate() {
        for (i, (p, q)) in x.iter().zip(y).enumerate() {
            assert!(
                (p - q).abs() < 1e-5,
                "BSPC vs BSPC: frame {t} logit {i}: {p} vs {q}"
            );
        }
    }
}

/// One numeric result per precision, regardless of engine: the serial
/// loop, the pooled executor at every thread count, and the lane-major
/// batched session must agree bit for bit — the acceptance contract of the
/// runtime format.
#[test]
fn serial_pooled_and_batched_agree_bit_for_bit_per_format_and_precision() {
    let net = network(47);
    let lens = [5usize, 2, 7, 3];
    let streams: Vec<Vec<Vec<f32>>> = lens
        .iter()
        .enumerate()
        .map(|(s, &len)| frames(len, 6, s))
        .collect();
    for precision in ALL_PRECISIONS {
        let compiled = compile_uniform(&net, precision);
        let serial: Vec<Vec<Vec<f32>>> = streams.iter().map(|s| compiled.forward(s)).collect();
        for threads in [1usize, 3] {
            let exec = Executor::new(threads);
            for (s, stream) in streams.iter().enumerate() {
                assert_bits_equal(
                    &serial[s],
                    &compiled.forward_with(&exec, stream),
                    &format!("pooled Bspc/{precision:?} stream {s} at {threads} threads"),
                );
            }
            let mut session = BatchedSession::new(&compiled, &exec, 3);
            let batched = session.run(&streams);
            for (s, got) in batched.iter().enumerate() {
                assert_bits_equal(
                    &serial[s],
                    got,
                    &format!("batched Bspc/{precision:?} stream {s} at {threads} threads"),
                );
            }
        }
    }
}

//! Observability overhead benchmark: the cost of `rtm-trace` on the
//! steady-state inference path.
//!
//! Writes `BENCH_trace_overhead.json` at the repository root (or under
//! `target/quick/` with `--quick`, which runs a tiny smoke configuration
//! for CI). The question the artifact answers is the one DESIGN.md §11
//! commits to: tracing *enabled* must cost at most a few percent of
//! steady-state inference, and tracing *disabled* (the default) must be
//! free within measurement noise — its whole cost is one relaxed atomic
//! load per would-be recording.
//!
//! Method: a 2-layer GRU with BSP-patterned (~10×) sparse weights is
//! compiled to the f16 runtime, and `predict_with` over a fixed utterance
//! is timed in *interleaved* off/on rounds (off, on, off, on, …), each
//! round using the best-of-5 min-estimator. Interleaving matters on a
//! shared CI host: slow drift (another container waking up mid-run) hits
//! both configurations equally instead of biasing whichever phase ran
//! second. The headline `overhead_on_pct` compares min-across-rounds on
//! vs min-across-rounds off; `off_noise_pct` is the spread of the off
//! rounds, i.e. the host's demonstrated noise floor for this workload.
//!
//! Dependency-free: std + workspace crates only.

use rtm_bench::{emit_bench_report, json_row, quick_requested, time_us, JsonValue};
use rtm_exec::Executor;
use rtm_rnn::model::NetworkConfig;
use rtm_rnn::GruNetwork;
use rtm_tensor::Matrix;
use rtmobile::deploy::{CompiledNetwork, RuntimePrecision};
use rtmobile::TraceConfig;

const STRIPES: usize = 8;
const BLOCKS: usize = 8;
const RATE: usize = 10;

/// Zeroes a weight matrix down to a BSP pattern: every row kept, one in
/// `RATE` columns kept per stripe (the kept set shared stripe-wide, offset
/// per stripe so the layers don't all prune the same columns).
fn sparsify(m: &Matrix) -> Matrix {
    let stripe_h = m.rows().div_ceil(STRIPES);
    Matrix::from_fn(m.rows(), m.cols(), |r, c| {
        let s = r / stripe_h;
        if (c + s).is_multiple_of(RATE) {
            m[(r, c)]
        } else {
            0.0
        }
    })
}

fn main() {
    let quick = quick_requested();
    let (hidden, frames_n, iters, rounds) = if quick {
        (32, 4, 1, 1)
    } else {
        (256, 25, 10, 8)
    };
    let input_dim = 40;

    let mut net = GruNetwork::new(
        &NetworkConfig {
            input_dim,
            hidden_dims: vec![hidden, hidden],
            num_classes: 48,
        },
        2020,
    );
    for layer in &mut net.layers {
        layer.w_z = sparsify(&layer.w_z);
        layer.u_z = sparsify(&layer.u_z);
        layer.w_r = sparsify(&layer.w_r);
        layer.u_r = sparsify(&layer.u_r);
        layer.w_n = sparsify(&layer.w_n);
        layer.u_n = sparsify(&layer.u_n);
    }
    let compiled =
        CompiledNetwork::compile(&net, STRIPES, BLOCKS, RuntimePrecision::F16).expect("valid BSP");
    let exec = Executor::new(1);
    let frames: Vec<Vec<f32>> = (0..frames_n)
        .map(|t| {
            (0..input_dim)
                .map(|i| ((t * input_dim + i) as f32 * 0.73).sin())
                .collect()
        })
        .collect();

    let time_phase = |config: TraceConfig| -> f64 {
        rtm_trace::set_config(config);
        rtm_trace::global().reset();
        time_us(iters, || {
            std::hint::black_box(compiled.predict_with(&exec, &frames));
        })
    };

    let mut off_samples: Vec<f64> = Vec::with_capacity(rounds);
    let mut on_samples: Vec<f64> = Vec::with_capacity(rounds);
    let mut spmv_calls = 0u64;
    for round in 0..rounds {
        off_samples.push(time_phase(TraceConfig::off()));
        on_samples.push(time_phase(TraceConfig::on()));
        // Read before the next phase resets the registry: sanity evidence
        // the instrumentation actually ran during the traced rounds.
        spmv_calls = rtm_trace::global().counter(rtm_trace::key::KERNEL_BSPC.spmv[0]);
        eprintln!(
            "round {round}: off {:.1} us, on {:.1} us",
            off_samples[round], on_samples[round]
        );
    }

    let min_of = |s: &[f64]| s.iter().copied().fold(f64::INFINITY, f64::min);
    let max_of = |s: &[f64]| s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let off_us = min_of(&off_samples);
    let on_us = min_of(&on_samples);
    let overhead_on_pct = (on_us / off_us - 1.0) * 100.0;
    let off_noise_pct = (max_of(&off_samples) / off_us - 1.0) * 100.0;
    eprintln!(
        "best: off {off_us:.1} us, on {on_us:.1} us \
         (on overhead {overhead_on_pct:+.2}%, off noise {off_noise_pct:.2}%)"
    );

    let rows: Vec<String> = (0..rounds)
        .map(|i| {
            json_row(&[
                ("round", JsonValue::Int(i as i64)),
                ("off_us_per_inference", JsonValue::F64(off_samples[i], 2)),
                ("on_us_per_inference", JsonValue::F64(on_samples[i], 2)),
            ])
        })
        .collect();

    emit_bench_report(
        "trace_overhead",
        quick,
        &[
            ("hidden", JsonValue::Int(hidden as i64)),
            ("layers", JsonValue::Int(2)),
            ("frames", JsonValue::Int(frames_n as i64)),
            ("compression", JsonValue::Int(RATE as i64)),
            (
                "vector_isa",
                JsonValue::Str(rtm_tensor::simd::vector_isa().into()),
            ),
            ("rounds", JsonValue::Int(rounds as i64)),
            (
                "spmv_calls_per_traced_round",
                JsonValue::Int(spmv_calls as i64),
            ),
            ("off_us", JsonValue::F64(off_us, 2)),
            ("on_us", JsonValue::F64(on_us, 2)),
            ("overhead_on_pct", JsonValue::F64(overhead_on_pct, 3)),
            ("off_noise_pct", JsonValue::F64(off_noise_pct, 3)),
            (
                "notes",
                JsonValue::Str(
                    "Steady-state predict_with on a 10x BSP-sparse 2-layer GRU, timed in \
                     interleaved off/on rounds (best-of-5 min-estimator per round) so \
                     host drift hits both configurations equally. overhead_on_pct = \
                     min-across-rounds on vs min-across-rounds off; off_noise_pct is the \
                     spread of the off rounds, i.e. the host's noise floor. The disabled \
                     path's only cost is one relaxed atomic load per would-be recording."
                        .into(),
                ),
            ),
        ],
        &[("results", rows)],
    );
}

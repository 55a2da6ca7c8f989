//! BSPC's half-precision SpMV, pinned through the public API alone: the
//! f16 sidecar decodes exactly, so `spmv_prec_into(Precision::F16, ..)` is —
//! bit for bit — the f32 SpMV of the same weights rounded through
//! `quantize_f16`, and both are the active variant's one-row `dot` per kept
//! row. Wherever the widening of a stored half happens (a scratch plane, a
//! register on its way to the FMA), these bits do not move.
//!
//! The shapes walk every row-tile edge (kept-row runs of 1 to 33 rows per
//! stripe: one lane group, two, a partial one, a run cut into several tiles)
//! against every row-length edge of the eight sublane chains, with weights
//! that cover f16 subnormals, the largest finite halves, a tie that rounds
//! into the subnormals, and a row whose products are all `-0.0`; the inputs
//! carry both zeros, both infinities and NaN.
//!
//! Own test binary (see `crates/rtmobile/Cargo.toml`): it walks the
//! process-global SIMD policy, so everything lives in ONE `#[test]`.

use rtm_exec::Executor;
use rtm_sparse::{BspcMatrix, Precision};
use rtm_tensor::f16::quantize_f16;
use rtm_tensor::rng::StdRng;
use rtm_tensor::simd::{self, SimdPolicy, Variant};
use rtm_tensor::Matrix;

const COLS: usize = 110;
const STRIPES: usize = 3;

/// The kept columns of stripe `s`: `l` distinct columns spread over the row.
fn stripe_cols(s: usize, l: usize) -> Vec<usize> {
    let mut cols: Vec<usize> = (0..l).map(|i| (i * COLS / l + s) % COLS).collect();
    cols.sort_unstable();
    cols
}

/// `STRIPES` stripes of `run + 1` rows: the first `run` rows of a stripe are
/// kept (one run of adjacent kept rows), the last is pruned, and every kept
/// row stores the stripe's `l` columns.
///
/// Row 0 of a stripe and kept column 0 of every row are nonzero, so the
/// pattern `from_dense` detects is the intended one before and after the
/// weights round through f16. Row 1 is the `-0.0` row: one negative weight
/// (at the stripe's first kept column) among `-0.0`s.
fn weights(run: usize, l: usize, rng: &mut StdRng) -> Matrix {
    let sub = 2.0f32.powi(-24);
    let mut w = Matrix::zeros(STRIPES * (run + 1), COLS);
    for s in 0..STRIPES {
        let cols = stripe_cols(s, l);
        for j in 0..run {
            let r = s * (run + 1) + j;
            for (i, &c) in cols.iter().enumerate() {
                let pick = if i == 0 || j == 0 {
                    (r + i) % 7
                } else {
                    (r * 31 + i * 17) % 11
                };
                w[(r, c)] = match pick {
                    _ if j == 1 && i == 0 => -0.75,
                    _ if j == 1 => -0.0,
                    0 => sub,               // the smallest subnormal
                    1 => -1023.0 * sub,     // the largest, negated
                    2 => 2.5 * sub,         // a tie: rounds to 2 · 2⁻²⁴
                    3 => 65504.0,           // the largest finite half
                    4 => -65519.9,          // rounds to -65504, not to -∞
                    5 => 3.0 * sub + 1e-12, // inexact, rounds into the subnormals
                    10 => -0.0,
                    _ => {
                        let v = rng.gen_f32() * 2.0 - 1.0;
                        if v.abs() < 1e-3 {
                            0.5
                        } else {
                            v
                        }
                    }
                };
            }
        }
    }
    w
}

/// Three input vectors: signed finite values with `±0` sprinkled in; the
/// same made non-negative with `+0.0` at each stripe's first kept column
/// (every product of the `-0.0` row is then `-0.0`); and the first with
/// `±∞` and NaN at columns every stripe keeps or not, as the pattern falls.
fn inputs(rng: &mut StdRng) -> [Vec<f32>; 3] {
    let signed: Vec<f32> = (0..COLS)
        .map(|c| match c % 5 {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_f32() * 2.0 - 1.0,
        })
        .collect();
    let mut nonneg: Vec<f32> = signed.iter().map(|x| x.abs()).collect();
    nonneg[..STRIPES].fill(0.0);
    let mut special = signed.clone();
    for (c, v) in [
        (2, f32::INFINITY),
        (37, f32::NEG_INFINITY),
        (58, f32::NAN),
        (109, f32::INFINITY),
    ] {
        special[c] = v;
    }
    [signed, nonneg, special]
}

fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (r, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: row {r}: {g:e} ({:#010x}) vs {w:e} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

#[test]
fn f16_spmv_is_the_f32_spmv_of_the_rounded_weights_on_every_tile_edge() {
    let ambient = simd::policy();
    let execs = [3usize, 5].map(Executor::new);
    for policy in [SimdPolicy::Auto, SimdPolicy::Fixed(Variant::ScalarU1)] {
        simd::set_policy(policy);
        let v = simd::active_variant();
        let mut rng = StdRng::seed_from_u64(0xF16);
        let xs = inputs(&mut rng);
        for run in (1usize..=17).chain([31, 32, 33]) {
            for l in [1usize, 7, 8, 9, 16, 17, 102] {
                let w = weights(run, l, &mut rng);
                let rounded = w.map(quantize_f16);
                let half = BspcMatrix::from_dense(&w, STRIPES, 2).unwrap();
                let full = BspcMatrix::from_dense(&rounded, STRIPES, 2).unwrap();
                assert_eq!(half.kept_rows(), full.kept_rows());
                assert_eq!(half.kept_rows().len(), STRIPES * run);
                for s in 0..STRIPES {
                    let want: Vec<u32> = stripe_cols(s, l).iter().map(|&c| c as u32).collect();
                    assert_eq!(half.stripe_kept_cols(s), want, "run {run} L {l} stripe {s}");
                    assert_eq!(full.stripe_kept_cols(s), want, "run {run} L {l} stripe {s}");
                }
                for (which, x) in xs.iter().enumerate() {
                    let what = format!("{policy:?} run {run} L {l} input {which}");
                    // Per kept row, the variant's own one-row `dot` over the
                    // rounded weights and the gathered input; pruned rows +0.
                    let mut reference = vec![0.0f32; half.rows()];
                    for &r in half.kept_rows() {
                        let r = r as usize;
                        let cols = stripe_cols(r / (run + 1), l);
                        let row: Vec<f32> = cols.iter().map(|&c| rounded[(r, c)]).collect();
                        let g: Vec<f32> = cols.iter().map(|&c| x[c]).collect();
                        reference[r] = simd::dot_variant(v, &row, &g);
                    }
                    let mut want = vec![f32::NAN; full.rows()];
                    full.spmv_prec_into(Precision::F32, x, &mut want).unwrap();
                    assert_same_bits(&want, &reference, &format!("f32 vs dot, {what}"));
                    let mut got = vec![f32::NAN; half.rows()];
                    half.spmv_prec_into(Precision::F16, x, &mut got).unwrap();
                    assert_same_bits(&got, &want, &format!("f16 vs f32, {what}"));
                    for exec in &execs {
                        let mut pooled = vec![f32::NAN; half.rows()];
                        exec.spmv_into(&half, Precision::F16, x, &mut pooled)
                            .unwrap();
                        let what = format!("pooled f16, {} threads, {what}", exec.threads());
                        assert_same_bits(&pooled, &want, &what);
                    }
                }
            }
        }
    }
    simd::set_policy(ambient);
}

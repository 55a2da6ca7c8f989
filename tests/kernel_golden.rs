//! Golden output bits of the kernel layer (DESIGN.md §7.1).
//!
//! Every format × held precision × lane count is run on one fixed-seed
//! BSP-structured matrix and the CRC32 of the output bit patterns is
//! compared with a constant recorded before the row kernels were collapsed
//! to one per value kind (lane counts 3, 9, 15, 16 and 25: before the lane
//! tail of the AVX2 batch kernels became a masked tile). The lane contracts
//! elsewhere compare the kernels with *each other*; this file compares them
//! with *the past*, so a change that moves serial, pooled and batched
//! results together is still caught.
//! Beside the CRC, each cell asserts that the pooled product at 3 threads
//! and (at one lane) the SpMV entry produce the very same bits.
//! The activation sweeps are pinned the same way, by one constant for every
//! policy: they are element-wise IEEE-exact arithmetic (DESIGN.md §8), so the
//! scalar loop and the AVX2 body must land on the same bits on every host.
//!
//! The constants are a property of the arithmetic, not of the host: the
//! scalar table holds on every target, the vector table is checked only
//! where the vector path is AVX2+FMA. An empty row's `-0.0` comes from
//! `f32`'s `Sum` identity, so a toolchain that changes that identity changes
//! the scalar CSR f32 cell at one lane and nothing else.
//!
//! Own test binary (see `crates/rtmobile/Cargo.toml`) with ONE `#[test]`:
//! it pins the process-global `SimdPolicy`.

use rtm_exec::Executor;
use rtm_sparse::{BspcMatrix, CsrMatrix, Precision, SparseKernel};
use rtm_tensor::activations::{sigmoid_slice, tanh_slice};
use rtm_tensor::rng::StdRng;
use rtm_tensor::simd::{self, SimdPolicy, Variant};
use rtm_tensor::{gemm, Matrix};
use rtmobile::bundle::crc32;

/// One lane, tail-only widths, a one- and a seven-lane tail, full tiles, and
/// three full tiles plus a tail (the AVX2 register tile is eight lanes).
const LANES: [usize; 10] = [1, 2, 3, 7, 8, 9, 12, 15, 16, 25];
const PRECISIONS: [Precision; 3] = [Precision::F32, Precision::F16, Precision::Int8];

/// One table per SIMD policy: a row per (format, precision) the format
/// holds, in the order bspc × f32, f16, int8, then csr × f32, a column per
/// entry of [`LANES`]; the last row is the dense `gemv_batch_into`.
type Golden = [[u32; LANES.len()]; 5];

#[rustfmt::skip] // one row per line, as the test prints them
const SCALAR_U1: Golden = [
    [0x9c72f52e, 0xa1e2b995, 0x959ab8a4, 0xf5ea2957, 0xec828fec, 0xef686d30, 0x68f86633, 0x0d207d9b, 0x6508655f, 0xff5ad819],
    [0x456e47e5, 0xb4f13502, 0x45a860c3, 0x053f401e, 0x2e9d573a, 0xc212281b, 0x4a3db7b5, 0x5647943a, 0xb0b551f7, 0x22a2bda5],
    [0x92f8324e, 0x7953b062, 0x618dc24e, 0x7c3e8be7, 0x45de9550, 0x67143148, 0xce226152, 0x5f1d8640, 0xca9cc814, 0x93fc7ccc],
    [0xfd6986c5, 0xa1e2b995, 0x959ab8a4, 0xf5ea2957, 0xec828fec, 0xef686d30, 0x68f86633, 0x0d207d9b, 0x6508655f, 0xff5ad819],
    [0xa38601e1, 0x93419b23, 0x68f49a58, 0xfd511bfc, 0x2b78839b, 0x598afbaa, 0x4e520c1e, 0xd7bad59f, 0x2765b193, 0x9ea5e750],
];

#[rustfmt::skip] // one row per line, as the test prints them
const AVX2_FMA: Golden = [
    [0xc8405fb3, 0x6add89dd, 0xc2427b4c, 0xa2ef1073, 0x4b728336, 0x8a1b764e, 0xcdd01d22, 0xc2275687, 0x311f832b, 0x3d02176e],
    [0xd1612004, 0xfa9c9910, 0xfc8c018c, 0x59fb0eea, 0x6b5b2972, 0x934546c1, 0x591c516a, 0x9b83f42d, 0xcf33c27c, 0x4067d7da],
    [0x92f8324e, 0x7953b062, 0x618dc24e, 0x7c3e8be7, 0x45de9550, 0x67143148, 0xce226152, 0x5f1d8640, 0xca9cc814, 0x93fc7ccc],
    [0xc8405fb3, 0x6add89dd, 0xc2427b4c, 0xa2ef1073, 0x4b728336, 0x8a1b764e, 0xcdd01d22, 0xc2275687, 0x311f832b, 0x3d02176e],
    [0x9b1b327d, 0xaa94bef6, 0xa5ec7105, 0x0a97c742, 0x2799646b, 0x60a09abf, 0xf696e7e6, 0x5d95975b, 0x62543769, 0xf5454418],
];

/// `sigmoid_slice` then `tanh_slice` over [`sweep_inputs`], under every
/// policy. It moves only if the activation arithmetic does — a coefficient,
/// an operation order, a vector body that is not the scalar sequence.
const SWEEPS: u32 = 0x275c_6b9a;

/// 96 × 128 in 6 stripes of 16 rows: each stripe keeps about a third of
/// the columns for all of its rows, and about one row in nine is pruned
/// whole — the two regularities BSP pruning leaves behind.
fn bsp_matrix() -> Matrix {
    let (rows, cols, stripe_h) = (96usize, 128usize, 16usize);
    let mut rng = StdRng::seed_from_u64(0x601D);
    let kept_col: Vec<bool> = (0..(rows / stripe_h) * cols)
        .map(|_| rng.gen_range(0usize..3) == 0)
        .collect();
    let kept_row: Vec<bool> = (0..rows).map(|_| rng.gen_range(0usize..9) != 0).collect();
    Matrix::from_fn(rows, cols, |r, c| {
        let v = rng.gen_f32() * 2.0 - 1.0;
        if kept_row[r] && kept_col[(r / stripe_h) * cols + c] && v != 0.0 {
            v
        } else {
            0.0
        }
    })
}

fn plane(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_f32() * 2.0 - 1.0).collect()
}

fn bits_crc(ys: &[f32]) -> u32 {
    let bytes: Vec<u8> = ys.iter().flat_map(|y| y.to_bits().to_le_bytes()).collect();
    crc32(&bytes)
}

fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
    }
}

/// A `[1024 × 12]` gate plane of pre-activations in `[-8, 8)` (both signs,
/// both `tanh` branches), then the inputs where the arithmetic changes
/// regime, each with its two neighbours: the subnormals, `tanh`'s branch
/// point, `exp`'s clamp and flush, the ends of the line, and a NaN. The
/// length leaves a `% 8` remainder for the scalar tail of the vector body.
fn sweep_inputs() -> Vec<f32> {
    let mut xs: Vec<f32> = plane(1024 * 12, 0x5EE9).iter().map(|x| x * 8.0).collect();
    xs.extend([0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY]);
    xs.push(f32::from_bits(0x7fc0_0000));
    let last_but_one = f32::from_bits(f32::MAX.to_bits() - 1);
    let edges = [
        f32::from_bits(2),
        f32::MIN_POSITIVE,
        0.625,
        9.0,
        87.0,
        88.0,
        104.0,
        last_but_one,
    ];
    for bits in edges
        .map(f32::to_bits)
        .into_iter()
        .flat_map(|b| [b - 1, b, b + 1])
    {
        xs.extend([f32::from_bits(bits), -f32::from_bits(bits)]);
    }
    assert_ne!(xs.len() % 8, 0);
    xs
}

/// The CRC of both sweeps' output bits under the current policy.
fn sweep_crc() -> u32 {
    let mut out = sweep_inputs();
    let mut tanh_out = out.clone();
    sigmoid_slice(&mut out);
    tanh_slice(&mut tanh_out);
    out.extend(tanh_out);
    bits_crc(&out)
}

/// The table the kernels produce under the current policy.
fn measure(formats: &[&dyn SparseKernel; 2], dense: &Matrix, exec: &Executor) -> Golden {
    let mut table = [[0u32; LANES.len()]; 5];
    let mut row = 0;
    for k in formats {
        for &prec in PRECISIONS.iter().filter(|&&p| k.holds(p)) {
            for (l, &b) in LANES.iter().enumerate() {
                let what = format!("{} {prec:?} b={b}", k.tag());
                let xs = plane(k.cols() * b, 0xAC7 + b as u64);
                let mut ys = vec![f32::NAN; k.rows() * b];
                k.spmm_prec_into(prec, &xs, b, &mut ys).unwrap();
                table[row][l] = bits_crc(&ys);

                let mut pooled = vec![f32::NAN; k.rows() * b];
                exec.spmm_into(*k, prec, &xs, b, &mut pooled).unwrap();
                assert_same_bits(&pooled, &ys, &format!("pooled {what}"));
                if b == 1 {
                    let mut y = vec![f32::NAN; k.rows()];
                    k.spmv_prec_into(prec, &xs, &mut y).unwrap();
                    assert_same_bits(&y, &ys, &format!("spmv {what}"));
                }
            }
            row += 1;
        }
    }
    for (l, &b) in LANES.iter().enumerate() {
        let xs = plane(dense.cols() * b, 0xDE5 + b as u64);
        let mut ys = vec![f32::NAN; dense.rows() * b];
        gemm::gemv_batch_into(dense, &xs, b, &mut ys).unwrap();
        table[row][l] = bits_crc(&ys);
    }
    table
}

#[test]
fn kernel_outputs_match_the_recorded_bits() {
    let w = bsp_matrix();
    let bspc = BspcMatrix::from_dense(&w, 6, 4).unwrap();
    let csr = CsrMatrix::from_dense(&w);
    assert!(bspc.kept_rows().len() < 96, "some rows are pruned whole");
    let formats: [&dyn SparseKernel; 2] = [&bspc, &csr];
    let dense = {
        let mut rng = StdRng::seed_from_u64(0xD3);
        Matrix::from_fn(40, 96, |_, _| rng.gen_f32() * 2.0 - 1.0)
    };
    let exec = Executor::new(3);

    let ambient = simd::policy();
    let mut cases = vec![("SCALAR_U1", SimdPolicy::Fixed(Variant::ScalarU1), SCALAR_U1)];
    if simd::vector_isa() == "avx2+fma" {
        cases.push(("AVX2_FMA", SimdPolicy::Auto, AVX2_FMA));
    }
    let mut stale = Vec::new();
    for (name, policy, want) in cases {
        simd::set_policy(policy);
        let got = measure(&formats, &dense, &exec);
        if got != want {
            // Printed in source form, so re-recording is a paste.
            println!("const {name}: Golden = [");
            for row in got {
                let cells: Vec<String> = row.iter().map(|c| format!("{c:#010x}")).collect();
                println!("    [{}],", cells.join(", "));
            }
            println!("];");
            stale.push(name);
        }
        let got = sweep_crc();
        if got != SWEEPS {
            println!("const SWEEPS: u32 = {got:#010x}; // under {name}");
            stale.push("SWEEPS");
        }
    }
    simd::set_policy(ambient);
    assert!(
        stale.is_empty(),
        "kernel output bits differ from the recorded tables: {stale:?}"
    );
}

//! The zero-allocation steady state of the kernel layer (README.md,
//! DESIGN.md §8): once the per-thread scratch has grown to a matrix's
//! needs, neither the serial driver nor a 1-thread executor touches the
//! heap — for any format, precision or lane count. One level up the same
//! holds for the production GRU step: a frame through
//! `forward_frame_batch` allocates nothing, `forward_with` allocates only
//! the logits it returns (its chunk planes are sized once per call, not per
//! frame), and a `BatchedSession::step` allocates only the `StepOutput` it
//! returns.
//!
//! Own test binary (see `crates/rtmobile/Cargo.toml`): it installs a
//! counting `#[global_allocator]` and pins the process-global trace switch
//! off (a traced call may allocate in the registry; that is not the
//! kernel's steady state). The kernel test also walks the process-global
//! SIMD policy — BSPC's register-tile path (an f16 tile decoded into the
//! conversion scratch) and its per-row de-tile path are picked by it — so
//! the two tests take turns.

use rtm_exec::Executor;
use rtm_rnn::model::NetworkConfig;
use rtm_rnn::GruNetwork;
use rtm_sparse::{BspcMatrix, CsrMatrix, Precision, SparseKernel};
use rtm_tensor::simd::{self, SimdPolicy, Variant};
use rtm_tensor::Matrix;
use rtmobile::deploy::{
    BatchedSession, CompiledNetwork, GruRuntimeScratch, RuntimePrecision, StepOutput,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

/// Held by each test for its whole run: a policy switch under the other
/// test's feet would grow a scratch buffer in the middle of its steady state.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

thread_local! {
    /// Bytes this thread has requested from the heap (const-initialized and
    /// `Drop`-free, so reading it inside the allocator cannot recurse).
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread byte count — per thread so the
/// libtest harness's own threads cannot disturb the measurement.
struct Counting;

// SAFETY: every method forwards to `System` unchanged; the only addition is
// a thread-local counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|c| c.set(c.get() + layout.size() as u64));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|c| c.set(c.get() + new_size as u64));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

#[test]
fn steady_state_kernels_allocate_nothing() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    rtm_trace::set_config(rtm_trace::TraceConfig::off());
    let ambient = simd::policy();
    for policy in [SimdPolicy::Auto, SimdPolicy::Fixed(Variant::ScalarU1)] {
        simd::set_policy(policy);
        kernels_allocate_nothing(&format!("{policy:?}"));
    }
    simd::set_policy(ambient);
}

fn kernels_allocate_nothing(policy: &str) {
    let (rows, cols) = (64usize, 48usize);
    let w = Matrix::from_fn(rows, cols, |r, c| {
        if (r / 8 + c) % 3 == 0 {
            0.05 + ((r * 7 + c * 13) % 23) as f32 / 29.0
        } else {
            0.0
        }
    });
    let bspc = BspcMatrix::from_dense(&w, 4, 4).unwrap();
    let csr = CsrMatrix::from_dense(&w);
    let formats: [&dyn SparseKernel; 2] = [&bspc, &csr];
    let exec = Executor::new(1);

    for k in formats {
        for prec in [Precision::F32, Precision::F16, Precision::Int8] {
            if !k.holds(prec) {
                continue;
            }
            for b in [1usize, 7, 8, 12] {
                let xs: Vec<f32> = (0..cols * b).map(|i| (i as f32 * 0.37).sin()).collect();
                let mut ys = vec![0.0f32; rows * b];
                let what = format!("{policy} {} {prec:?} b={b}", k.tag());

                let mut serial = || {
                    k.spmm_prec_into(prec, &xs, b, &mut ys).unwrap();
                    if b == 1 {
                        k.spmv_prec_into(prec, &xs, &mut ys).unwrap();
                    }
                };
                serial(); // warm-up: the scratch grows here, once
                let before = allocated();
                for _ in 0..100 {
                    serial();
                }
                assert_eq!(allocated() - before, 0, "serial {what}");

                let mut pooled = || {
                    exec.spmm_into(k, prec, &xs, b, &mut ys).unwrap();
                    if b == 1 {
                        exec.spmv_into(k, prec, &xs, &mut ys).unwrap();
                    }
                };
                pooled();
                let before = allocated();
                for _ in 0..100 {
                    pooled();
                }
                assert_eq!(allocated() - before, 0, "Executor::new(1) {what}");
            }
        }
    }
}

#[test]
fn production_step_allocates_only_the_returned_logits() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    rtm_trace::set_config(rtm_trace::TraceConfig::off());
    let (input, classes) = (6usize, 5usize);
    // A part of one 16-frame chunk, and past two whole chunks: the chunk
    // planes are sized once per call, whatever the utterance's length.
    let lengths = [8usize, 33];
    let net = GruNetwork::new(
        &NetworkConfig {
            input_dim: input,
            hidden_dims: vec![16, 16],
            num_classes: classes,
        },
        77,
    );
    let frames: Vec<Vec<f32>> = (0..2 * lengths[1])
        .map(|f| {
            (0..input)
                .map(|i| ((f * input + i) as f32 * 0.37).sin())
                .collect()
        })
        .collect();
    let exec = Executor::new(1);

    for precision in [
        RuntimePrecision::F32,
        RuntimePrecision::F16,
        RuntimePrecision::Int8,
    ] {
        let compiled = CompiledNetwork::compile(&net, 4, 4, precision).unwrap();
        let what = format!("bspc {precision:?}");

        // `forward_with`: states, scratch and activation buffers are
        // per call, so doubling the frame count adds exactly the
        // returned logits — one row plus its slot in the outer `Vec`
        // per frame.
        let bytes_for = |n: usize| {
            let before = allocated();
            compiled.forward_with(&exec, &frames[..n]);
            allocated() - before
        };
        for t in lengths {
            // Warm-up: the kernel scratch grows here, once. It holds a
            // chunk's gathered frames, so the longer call sizes it.
            bytes_for(2 * t);
            let per_frame = classes * 4 + std::mem::size_of::<Vec<f32>>();
            assert_eq!(
                bytes_for(2 * t) - bytes_for(t),
                (t * per_frame) as u64,
                "forward_with {what} t={t}"
            );
        }

        // `forward_frame_batch`: caller-owned buffers, nothing else.
        for b in [1usize, 8] {
            let mut states: Vec<Vec<f32>> = compiled
                .layers()
                .iter()
                .map(|_| vec![0.0f32; 16 * b])
                .collect();
            let frame: Vec<f32> = (0..input * b).map(|i| (i as f32 * 0.37).sin()).collect();
            let mut xs = Vec::with_capacity(16 * b);
            let mut scratch = GruRuntimeScratch::new();
            let (mut hs_next, mut logits) = (Vec::new(), Vec::new());
            let mut step = || {
                xs.clear();
                xs.extend_from_slice(&frame);
                compiled
                    .forward_frame_batch(
                        &exec,
                        &mut xs,
                        b,
                        &mut states,
                        &mut scratch,
                        &mut hs_next,
                        &mut logits,
                    )
                    .unwrap();
            };
            step();
            let before = allocated();
            for _ in 0..100 {
                step();
            }
            assert_eq!(allocated() - before, 0, "forward_frame_batch {what} b={b}");
        }
    }
}

/// The heap bytes `out` owns: its three vectors and every logits row.
fn held_bytes(out: &StepOutput) -> u64 {
    let rows: usize = out.logits.iter().map(|(_, row)| row.capacity() * 4).sum();
    (out.logits.capacity() * std::mem::size_of::<(usize, Vec<f32>)>()
        + rows
        + out.quarantined.capacity() * std::mem::size_of::<usize>()
        + out.hypotheses.capacity() * std::mem::size_of::<(usize, rtm_speech::Hypothesis)>())
        as u64
}

#[test]
fn session_step_allocates_only_its_output() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    rtm_trace::set_config(rtm_trace::TraceConfig::off());
    let (input, classes) = (6usize, 5usize);
    let net = GruNetwork::new(
        &NetworkConfig {
            input_dim: input,
            hidden_dims: vec![16, 16],
            num_classes: classes,
        },
        78,
    );
    let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F16).unwrap();
    let exec = Executor::new(1);
    let frame: Vec<f32> = (0..input).map(|i| (i as f32 * 0.37).sin()).collect();

    for b in [1usize, 8] {
        let mut session = BatchedSession::new(&compiled, &exec, b);
        (0..b).for_each(|token| assert!(session.admit(token)));
        // Every lane in lane order steps the resident planes; every other
        // lane, last lane first, steps gathered sub-batch planes (a subset
        // exists only above one lane).
        let aligned: Vec<(usize, &[f32])> = (0..b).map(|token| (token, &frame[..])).collect();
        let subset: Vec<(usize, &[f32])> = (0..b)
            .rev()
            .step_by(2)
            .map(|token| (token, &frame[..]))
            .collect();
        let mut cases = vec![("aligned", aligned)];
        if b > 1 {
            cases.push(("unaligned subset", subset));
        }
        // Warm-up: the session's planes and buffers grow to each case. A
        // step swaps each stepped state plane with its output buffer, so
        // the buffers circulate, and a few rounds grow every one of them.
        for _ in 0..4 {
            for (_, frames) in &cases {
                session.step(frames).unwrap();
            }
        }
        for _ in 0..20 {
            for (what, frames) in &cases {
                let before = allocated();
                let out = session.step(frames).unwrap();
                let spent = allocated() - before;
                assert_eq!(out.logits.len(), frames.len(), "{what} b={b}");
                assert_eq!(spent, held_bytes(&out), "step, {what} b={b}");
            }
        }
    }
}

//! What a compiled gate keeps resident: one value store, at its precision.
//!
//! A gate lowered by `CompiledNetwork::compile` or decoded from a bundle
//! holds the f32 plane, the f16 bits or the int8 codes and scales of its
//! layer's precision — never a second store beside it. Measured, not
//! inferred: a counting `#[global_allocator]` reads the live heap bytes a
//! clone of each gate takes; less the bytes of its index structure, what
//! is left is its value store. CSR, the kernel baseline, holds its f32
//! values beside its row pointers and column indices, and nothing else.
//!
//! Own test binary (see `crates/rtmobile/Cargo.toml`) for the allocator,
//! and one test in it, so no other test's allocations interleave.

use rtm_pruning::projection::{BspColumnBlock, Projection, RowPrune};
use rtm_rnn::model::NetworkConfig;
use rtm_rnn::GruNetwork;
use rtm_sparse::{BspcMatrix, CsrMatrix, Precision, SparseKernel};
use rtmobile::deploy::{CompiledNetwork, RuntimePrecision};
use rtmobile::model_file;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

thread_local! {
    /// Heap bytes this thread holds (const-initialized and `Drop`-free, so
    /// reading it inside the allocator cannot recurse).
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread count of live bytes.
struct Counting;

fn count(delta: i64) {
    LIVE.with(|c| c.set(c.get() + delta));
}

// SAFETY: every method forwards to `System` unchanged; the only addition is
// a thread-local counter update that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live heap bytes a clone of `gate` takes.
fn resident<T: Clone>(gate: &T) -> usize {
    let before = LIVE.with(Cell::get);
    let copy = gate.clone();
    let bytes = LIVE.with(Cell::get) - before;
    drop(copy);
    usize::try_from(bytes).expect("a clone holds what it allocated")
}

/// Heap bytes of `gate`'s index structure as a clone allocates it: kept
/// rows and their offsets, the row-tile starts, the kept columns per
/// stripe-block and per stripe (with their outer vectors), the reorder
/// permutation.
fn structure_bytes(gate: &BspcMatrix) -> usize {
    let (stripes, blocks) = (gate.num_stripes(), gate.num_blocks());
    let cols: usize = (0..stripes * blocks)
        .map(|i| gate.block_kept_cols(i / blocks, i % blocks).len())
        .sum();
    let reorder = gate.reorder().map_or(0, <[u32]>::len);
    let words = 2 * gate.kept_rows().len() + (gate.units() + 1) + 2 * cols + reorder;
    words * 4 + (stripes * blocks + stripes) * size_of::<Vec<u32>>()
}

/// A 2-layer GRU BSP-pruned like the pipeline prunes it: a quarter of the
/// columns of each (stripe, block), then three quarters of the rows.
fn pruned() -> GruNetwork {
    let mut net = GruNetwork::new(
        &NetworkConfig {
            input_dim: 20,
            hidden_dims: vec![48, 48],
            num_classes: 7,
        },
        39,
    );
    for layer in &mut net.layers {
        for (_, m) in layer.prunable_mut() {
            *m = RowPrune::new(0.75).project(&BspColumnBlock::new(4, 4, 0.25).project(m));
        }
    }
    net
}

#[test]
fn a_gate_holds_one_value_store_at_its_precision() {
    let net = pruned();
    // CSR: row pointers, then a `u32` column and an f32 value per nonzero.
    for layer in &net.layers {
        for (name, w) in layer.prunable() {
            let csr = CsrMatrix::from_dense(w);
            let store = (csr.rows() + 1) * 4 + csr.nnz() * 8;
            let held = resident(&csr);
            assert!(
                held <= store + 64,
                "CSR {name}: {held} B held for {store} B of f32 CSR"
            );
        }
    }
    for precision in [
        RuntimePrecision::F32,
        RuntimePrecision::F16,
        RuntimePrecision::Int8,
    ] {
        let p = precision.storage();
        let compiled = CompiledNetwork::compile(&net, 4, 4, precision).unwrap();
        let decoded = model_file::from_bytes(&model_file::to_bytes(&compiled)).unwrap();
        for (which, net) in [("compiled", &compiled), ("bundle", &decoded)] {
            for (l, layer) in net.layers().iter().enumerate() {
                for (g, gate) in layer.gates().into_iter().enumerate() {
                    let what = format!("{which} {precision:?} layer {l} gate {g}");
                    assert!(gate.stored_len() > 0 && gate.kept_rows().len() < gate.rows());
                    let scales = match p {
                        Precision::Int8 => gate.num_stripes() * gate.num_blocks() * 4,
                        Precision::F32 | Precision::F16 => 0,
                    };
                    let store = gate.stored_len() * p.bytes() + scales;
                    let values = resident(gate) - structure_bytes(gate);
                    // At most one cache line of slack: the aligned window.
                    assert!(
                        (store..=store + 64).contains(&values),
                        "{what}: {values} B held for a {store} B store"
                    );
                }
            }
        }
        for (a, b) in compiled.layers().iter().zip(decoded.layers()) {
            assert_eq!(
                a.gates(),
                b.gates(),
                "{precision:?}: the bundle decodes as stored"
            );
        }
    }
}

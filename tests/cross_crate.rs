//! Cross-crate consistency tests: the contracts between the pruning,
//! sparse-format, compiler and simulator layers.
//!
//! Each test checks an invariant that no single crate can verify alone —
//! e.g. that a mask produced by `rtm-pruning`'s BSP really yields the
//! shared-pattern structure `rtm-sparse`'s BSPC format and
//! `rtm-compiler`'s RLE analysis assume.

use rtm_compiler::plan::{ExecutionPlan, StorageFormat};
use rtm_compiler::profile::KernelProfile;
use rtm_compiler::reorder::ReorderPlan;
use rtm_compiler::rle::analyze_loads;
use rtm_pruning::admm::AdmmConfig;
use rtm_pruning::bsp::{BspConfig, BspPruner};
use rtm_pruning::projection::{BspColumnBlock, Projection};
use rtm_pruning::schedule::CompressionTarget;
use rtm_rnn::model::{GruNetwork, NetworkConfig};
use rtm_sim::{CpuModel, GpuModel};
use rtm_sparse::footprint::{Footprint, Precision};
use rtm_sparse::{BspcMatrix, CsrMatrix, SparseKernel};
use rtm_tensor::gemm;
use rtm_tensor::Matrix;

fn oneshot_admm() -> AdmmConfig {
    AdmmConfig {
        admm_iterations: 1,
        epochs_per_iteration: 0,
        finetune_epochs: 0,
        ..AdmmConfig::default()
    }
}

fn pruned_network(target: CompressionTarget) -> GruNetwork {
    let mut net = GruNetwork::new(
        &NetworkConfig {
            input_dim: 16,
            hidden_dims: vec![32, 32],
            num_classes: 8,
        },
        42,
    );
    BspPruner::new(BspConfig {
        num_stripes: 4,
        num_blocks: 4,
        target,
        admm: oneshot_admm(),
    })
    .prune(&mut net, &[]);
    net
}

/// BSP-pruned weights convert to BSPC losslessly and SpMV through BSPC
/// matches the dense product.
#[test]
fn bsp_output_is_bspc_exact() {
    let net = pruned_network(CompressionTarget::new(4.0, 2.0));
    for (name, w) in net.prunable() {
        let bspc =
            BspcMatrix::from_dense(w, 4.min(w.rows()), 4.min(w.cols())).expect("partition fits");
        assert_eq!(bspc.to_dense(), *w, "{name} must round-trip");
        let x: Vec<f32> = (0..w.cols()).map(|i| (i as f32 * 0.7).sin()).collect();
        let want = gemm::gemv(w, &x).expect("dims");
        let got = bspc.spmv(&x).expect("dims");
        for (a, b) in want.iter().zip(&got) {
            assert!((a - b).abs() < 1e-4, "{name} spmv mismatch");
        }
    }
}

/// The BSP projection's mask yields exactly the stripe-shared patterns the
/// RLE analysis exploits: within a stripe, surviving rows share one column
/// set, so per-run unions collapse to the pattern size.
#[test]
fn bsp_masks_unlock_rle_sharing() {
    let mut rng = rtm_tensor::init::rng_from_seed(9);
    let w = rtm_tensor::init::uniform(32, 32, -1.0, 1.0, &mut rng);
    let proj = BspColumnBlock::new(4, 4, 0.25);
    let z = proj.project(&w);

    // Consecutive rows inside one stripe (height 8) share their pattern, so
    // a run of 8 rows loads exactly its pattern size.
    let stats = analyze_loads(&z, None, 8);
    let per_stripe_pattern: usize = 8; // 4 blocks x 8 cols x 25% = 2 cols/block
    assert_eq!(stats.rle_loads, 4 * per_stripe_pattern);
    assert!(
        (stats.elimination_ratio() - 8.0).abs() < 1e-9,
        "stripe height sharing"
    );
}

/// BSPC storage beats CSR on a BSP-pruned network, at both precisions —
/// the §IV-B-c claim quantified.
#[test]
fn bspc_footprint_beats_csr_on_bsp_pruned_weights() {
    let net = pruned_network(CompressionTarget::new(8.0, 2.0));
    for prec in [Precision::F32, Precision::F16] {
        let mut csr_total = 0usize;
        let mut bspc_total = 0usize;
        for (_, w) in net.prunable() {
            csr_total += Footprint::csr(&CsrMatrix::from_dense(w), prec).total();
            bspc_total += Footprint::bspc(
                &BspcMatrix::from_dense(w, 4.min(w.rows()), 4.min(w.cols())).expect("fits"),
                prec,
            )
            .total();
        }
        assert!(
            bspc_total < csr_total,
            "{prec:?}: bspc {bspc_total} vs csr {csr_total}"
        );
    }
}

/// Reorder permutations computed by the compiler are valid inputs to the
/// BSPC format's reorder slot.
#[test]
fn reorder_permutation_attaches_to_bspc() {
    let net = pruned_network(CompressionTarget::new(4.0, 2.0));
    let (_, w) = &net.prunable()[1];
    let plan = ReorderPlan::compute(w, 8);
    let perm: Vec<u32> = plan.perm.iter().map(|&p| p as u32).collect();
    let bspc = BspcMatrix::from_dense(w, 4, 4)
        .expect("fits")
        .with_reorder(perm)
        .expect("compiler permutation is a bijection");
    assert_eq!(bspc.reorder().expect("attached").len(), w.rows());
}

/// Cost-model ordering on one BSP-pruned tensor: for both devices,
/// BSPC ≤ CSR and pruned-anything ≤ dense.
#[test]
fn cost_model_orders_formats_consistently() {
    let net = pruned_network(CompressionTarget::new(8.0, 2.0));
    let (_, w) = &net.prunable()[1]; // 32x32 recurrent tensor
                                     // Scale it up so the costs dominate launch overhead. The 32-row BSP
                                     // pattern (4 stripes of 8) tiles to 32 stripes of 8 in 256 rows; the
                                     // BSPC plans below use that matched partition, exactly as the pipeline
                                     // derives it from the pruner configuration.
    let big = Matrix::from_fn(256, 256, |r, c| w[(r % 32, c % 32)]);

    let gpu = GpuModel::adreno640();
    let cpu = CpuModel::kryo485();

    let gpu_cost = |fmt: StorageFormat| {
        let plan = match fmt {
            StorageFormat::Dense => {
                ExecutionPlan::gpu_default(StorageFormat::Dense).without_optimizations()
            }
            f => ExecutionPlan::gpu_default(f).with_bsp_partition(32, 4),
        };
        gpu.kernel_cost(&KernelProfile::analyze(&big, &plan), &plan)
            .total_us()
    };
    let cpu_cost = |fmt: StorageFormat| {
        let plan = match fmt {
            StorageFormat::Dense => {
                ExecutionPlan::cpu_default(StorageFormat::Dense).without_optimizations()
            }
            f => ExecutionPlan::cpu_default(f).with_bsp_partition(32, 4),
        };
        cpu.kernel_cost(&KernelProfile::analyze(&big, &plan), &plan)
            .total_us()
    };

    for cost in [&gpu_cost as &dyn Fn(StorageFormat) -> f64, &cpu_cost] {
        let dense = cost(StorageFormat::Dense);
        let csr = cost(StorageFormat::Csr);
        let bspc = cost(StorageFormat::Bspc);
        assert!(bspc <= csr, "bspc {bspc} vs csr {csr}");
        assert!(csr <= dense, "csr {csr} vs dense {dense}");
    }
}

/// Mask application and masked retraining keep the pruned support stable:
/// after further training steps under the mask, no pruned weight revives.
#[test]
fn masked_training_preserves_support() {
    let mut net = GruNetwork::new(
        &NetworkConfig {
            input_dim: 8,
            hidden_dims: vec![16],
            num_classes: 4,
        },
        7,
    );
    let report = BspPruner::new(BspConfig {
        num_stripes: 4,
        num_blocks: 4,
        target: CompressionTarget::new(4.0, 1.0),
        admm: oneshot_admm(),
    })
    .prune(&mut net, &[]);

    // Extra masked training on toy data.
    let frames = vec![vec![0.5; 8]; 6];
    let targets = vec![1usize; 6];
    let mut opt = rtm_rnn::Adam::new(0.01);
    for _ in 0..10 {
        net.train_step(&frames, &targets, &mut opt, None);
        report.mask.apply(&mut net);
    }
    for (name, w) in net.prunable() {
        let mask = report.mask.get(&name).expect("mask exists");
        for (wi, mi) in w.as_slice().iter().zip(mask.as_slice()) {
            if *mi == 0.0 {
                assert_eq!(*wi, 0.0, "{name}: pruned weight revived");
            }
        }
    }
}

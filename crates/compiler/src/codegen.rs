//! Kernel source generation — "generate the optimal code on mobiles"
//! (paper §I, contribution list).
//!
//! Given a pruned matrix and an [`ExecutionPlan`], this module emits a
//! self-contained OpenCL-C kernel implementing the planned SpMV:
//!
//! * **BSPC plans** embed the per-stripe shared column lists as constant
//!   arrays, stage the needed input elements in `__local` memory once per
//!   work-group (the generated form of redundant load elimination), and
//!   unroll the inner loop by the plan's factor;
//! * **CSR plans** emit the classic row-per-thread gather loop;
//! * **dense plans** emit a tiled GEMV.
//!
//! The emitted source is valid OpenCL C (no extensions beyond `half` when
//! the plan is fp16). There is no GPU here to compile it on — the tests
//! validate structure (declarations, loop bounds, staging, unrolling) and
//! the cross-checks in `rtmobile::deploy` validate the *semantics* through
//! the equivalent Rust interpretation — but the artifact is exactly what
//! the real mobile pipeline would hand to the OpenCL driver.

use crate::plan::{ExecutionPlan, InputPlacement, StorageFormat};
use rtm_sparse::footprint::Precision;
use rtm_sparse::BspcMatrix;
use rtm_tensor::Matrix;
use std::fmt::Write as _;

/// A generated kernel: source text plus launch metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedKernel {
    /// OpenCL-C source.
    pub source: String,
    /// Kernel function name.
    pub entry_point: String,
    /// Global work size (one dimension).
    pub global_work_size: usize,
    /// Work-group size.
    pub local_work_size: usize,
}

/// Generates the kernel for `w` under `plan`.
///
/// # Panics
///
/// Panics if the plan fails [`ExecutionPlan::validate`], or if a BSPC plan
/// is requested for a matrix whose partition does not fit.
pub fn generate(w: &Matrix, plan: &ExecutionPlan, name: &str) -> GeneratedKernel {
    plan.validate().expect("invalid execution plan");
    match plan.format {
        StorageFormat::Dense => generate_dense(w, plan, name),
        StorageFormat::Csr => generate_csr(w, plan, name),
        StorageFormat::Bspc => generate_bspc(w, plan, name),
    }
}

fn scalar_type(plan: &ExecutionPlan) -> &'static str {
    match plan.precision {
        Precision::F32 => "float",
        Precision::F16 => "half",
        Precision::Int8 => "char",
    }
}

fn header(plan: &ExecutionPlan, name: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "// auto-generated by rtm-compiler::codegen");
    let _ = writeln!(
        s,
        "// target {}, format {}, tile {}x{}, unroll {}, {} threads/group",
        plan.target, plan.format, plan.tile_rows, plan.tile_cols, plan.unroll, plan.threads
    );
    if plan.precision == Precision::F16 {
        let _ = writeln!(s, "#pragma OPENCL EXTENSION cl_khr_fp16 : enable");
    }
    let _ = writeln!(s, "__kernel void {name}(");
    s
}

fn generate_dense(w: &Matrix, plan: &ExecutionPlan, name: &str) -> GeneratedKernel {
    let ty = scalar_type(plan);
    let (rows, cols) = w.shape();
    let mut s = header(plan, name);
    let _ = writeln!(
        s,
        "    __global const {ty}* restrict weights, // {rows}x{cols} row-major"
    );
    let _ = writeln!(s, "    __global const {ty}* restrict x,");
    let _ = writeln!(s, "    __global {ty}* restrict y)");
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "    const int row = get_global_id(0);");
    let _ = writeln!(s, "    if (row >= {rows}) return;");
    if plan.input_placement == InputPlacement::Shared {
        let _ = writeln!(s, "    __local {ty} x_tile[{}];", plan.tile_cols.min(cols));
        let _ = writeln!(
            s,
            "    for (int c = get_local_id(0); c < {}; c += get_local_size(0))",
            cols.min(plan.tile_cols)
        );
        let _ = writeln!(s, "        x_tile[c] = x[c];");
        let _ = writeln!(s, "    barrier(CLK_LOCAL_MEM_FENCE);");
    }
    let _ = writeln!(s, "    {ty} acc = ({ty})0;");
    let _ = writeln!(s, "    #pragma unroll {}", plan.unroll);
    let src = if plan.input_placement == InputPlacement::Shared && cols <= plan.tile_cols {
        "x_tile"
    } else {
        "x"
    };
    let _ = writeln!(s, "    for (int c = 0; c < {cols}; ++c)");
    let _ = writeln!(s, "        acc += weights[row * {cols} + c] * {src}[c];");
    let _ = writeln!(s, "    y[row] = acc;");
    let _ = writeln!(s, "}}");
    GeneratedKernel {
        source: s,
        entry_point: name.to_string(),
        global_work_size: rows.next_multiple_of(plan.threads.max(1)),
        local_work_size: plan.threads,
    }
}

fn generate_csr(w: &Matrix, plan: &ExecutionPlan, name: &str) -> GeneratedKernel {
    let ty = scalar_type(plan);
    let rows = w.rows();
    let mut s = header(plan, name);
    let _ = writeln!(s, "    __global const {ty}* restrict values,");
    let _ = writeln!(s, "    __global const uint* restrict col_idx,");
    let _ = writeln!(
        s,
        "    __global const uint* restrict row_ptr, // {} entries",
        rows + 1
    );
    let _ = writeln!(s, "    __global const {ty}* restrict x,");
    let _ = writeln!(s, "    __global {ty}* restrict y)");
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "    const int row = get_global_id(0);");
    let _ = writeln!(s, "    if (row >= {rows}) return;");
    let _ = writeln!(s, "    {ty} acc = ({ty})0;");
    let _ = writeln!(s, "    const uint start = row_ptr[row];");
    let _ = writeln!(s, "    const uint end   = row_ptr[row + 1];");
    let _ = writeln!(s, "    #pragma unroll {}", plan.unroll);
    let _ = writeln!(s, "    for (uint i = start; i < end; ++i)");
    let _ = writeln!(
        s,
        "        acc += values[i] * x[col_idx[i]]; // scattered gather"
    );
    let _ = writeln!(s, "    y[row] = acc;");
    let _ = writeln!(s, "}}");
    GeneratedKernel {
        source: s,
        entry_point: name.to_string(),
        global_work_size: rows.next_multiple_of(plan.threads.max(1)),
        local_work_size: plan.threads,
    }
}

fn generate_bspc(w: &Matrix, plan: &ExecutionPlan, name: &str) -> GeneratedKernel {
    let ty = scalar_type(plan);
    let (rows, cols) = w.shape();
    let stripes = plan.bsp_stripes.min(rows.max(1));
    let blocks = plan.bsp_blocks.min(cols.max(1));
    let bspc = BspcMatrix::from_dense(w, stripes, blocks).expect("partition fits");
    let stripe_h = bspc.stripe_height();

    // The shared per-stripe column patterns become program-scope
    // compile-time constants (__constant declarations are only legal at
    // program scope in OpenCL C) — the generated form of BSPC's index
    // sharing.
    let mut constants = String::new();
    for stripe in 0..stripes {
        let kept = bspc.stripe_kept_cols(stripe);
        let list: Vec<String> = kept.iter().map(|c| c.to_string()).collect();
        let _ = writeln!(
            constants,
            "__constant uint stripe{}_cols[{}] = {{{}}};",
            stripe,
            kept.len().max(1),
            if list.is_empty() {
                "0".to_string()
            } else {
                list.join(", ")
            }
        );
    }

    let mut s = String::new();
    // Splice the constants between the comment/pragma preamble and the
    // kernel signature.
    let head = header(plan, name);
    let (preamble, signature) = head
        .split_once("__kernel void")
        .expect("header contains the kernel keyword");
    s.push_str(preamble);
    s.push_str(&constants);
    s.push_str("__kernel void");
    s.push_str(signature);
    let _ = writeln!(
        s,
        "    __global const {ty}* restrict values,    // packed kept-row runs"
    );
    let _ = writeln!(s, "    __global const uint* restrict row_offsets,");
    let _ = writeln!(
        s,
        "    __global const uint* restrict kept_rows, // {} surviving rows",
        bspc.kept_rows().len()
    );
    let _ = writeln!(s, "    __global const {ty}* restrict x,");
    let _ = writeln!(s, "    __global {ty}* restrict y)");
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "    const int k = get_global_id(0); // kept-row index");
    let _ = writeln!(s, "    if (k >= {}) return;", bspc.kept_rows().len());
    let _ = writeln!(s, "    const uint row = kept_rows[k];");
    let _ = writeln!(s, "    const uint stripe = row / {stripe_h};");
    if plan.use_rle && plan.input_placement == InputPlacement::Shared {
        let _ = writeln!(
            s,
            "    // redundant-load elimination: the work-group stages each"
        );
        let _ = writeln!(
            s,
            "    // needed x element once; rows of a stripe share the pattern."
        );
        let _ = writeln!(
            s,
            "    __local {ty} x_stage[{}];",
            plan.tile_cols.min(cols).max(1)
        );
    }
    let _ = writeln!(s, "    {ty} acc = ({ty})0;");
    let _ = writeln!(s, "    const uint off = row_offsets[k];");
    // Per-stripe specialized loops with compile-time trip counts.
    let _ = writeln!(s, "    switch (stripe) {{");
    for stripe in 0..stripes {
        let n = bspc.stripe_kept_cols(stripe).len();
        let _ = writeln!(s, "    case {stripe}:");
        let _ = writeln!(s, "        #pragma unroll {}", plan.unroll);
        let _ = writeln!(s, "        for (uint i = 0; i < {n}; ++i)");
        let _ = writeln!(
            s,
            "            acc += values[off + i] * x[stripe{stripe}_cols[i]];"
        );
        let _ = writeln!(s, "        break;");
    }
    let _ = writeln!(s, "    }}");
    let _ = writeln!(s, "    y[row] = acc;");
    let _ = writeln!(s, "}}");

    GeneratedKernel {
        source: s,
        entry_point: name.to_string(),
        global_work_size: bspc
            .kept_rows()
            .len()
            .next_multiple_of(plan.threads.max(1))
            .max(plan.threads),
        local_work_size: plan.threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExecutionPlan;

    fn bsp_matrix() -> Matrix {
        Matrix::from_fn(32, 32, |r, c| {
            let stripe = r / 8;
            if r != 5 && c % 8 == stripe * 2 {
                0.5
            } else {
                0.0
            }
        })
    }

    #[test]
    fn dense_kernel_structure() {
        let w = Matrix::filled(16, 16, 1.0);
        let plan = ExecutionPlan::gpu_default(StorageFormat::Dense).without_optimizations();
        let k = generate(&w, &plan, "dense_gemv");
        assert_eq!(k.entry_point, "dense_gemv");
        assert!(k.source.contains("__kernel void dense_gemv"));
        assert!(k.source.contains("16x16 row-major"));
        assert!(k.source.contains("#pragma unroll 4"));
        assert!(
            k.source.contains("cl_khr_fp16"),
            "fp16 plan enables the extension"
        );
        assert!(k.source.contains("__local half x_tile"));
        assert!(k.global_work_size >= 16);
        assert_eq!(k.global_work_size % k.local_work_size, 0);
    }

    #[test]
    fn csr_kernel_structure() {
        let w = bsp_matrix();
        let plan = ExecutionPlan::cpu_default(StorageFormat::Csr);
        let k = generate(&w, &plan, "csr_spmv");
        assert!(k.source.contains("row_ptr[row + 1]"));
        assert!(k.source.contains("col_idx[i]"));
        assert!(k.source.contains("scattered gather"));
        assert!(k.source.contains("float acc"), "cpu plan is f32");
        assert!(!k.source.contains("cl_khr_fp16"));
    }

    #[test]
    fn bspc_kernel_embeds_shared_patterns() {
        let w = bsp_matrix();
        let plan = ExecutionPlan::gpu_default(StorageFormat::Bspc).with_bsp_partition(4, 4);
        let k = generate(&w, &plan, "bspc_spmv");
        // One constant column list per stripe.
        for stripe in 0..4 {
            assert!(
                k.source.contains(&format!("stripe{stripe}_cols")),
                "stripe {stripe} pattern missing:\n{}",
                k.source
            );
        }
        // Specialized per-stripe loops with literal trip counts.
        assert!(k.source.contains("switch (stripe)"));
        assert!(k.source.contains("case 3:"));
        // RLE staging comment present for the shared plan.
        assert!(k.source.contains("redundant-load elimination"));
        // Launch covers exactly the kept rows (row 5 pruned).
        let kept = 31; // 32 rows minus the fully-pruned row 5
        assert!(k.global_work_size >= kept);
    }

    #[test]
    fn bspc_kernel_column_lists_match_matrix() {
        let w = bsp_matrix();
        let plan = ExecutionPlan::gpu_default(StorageFormat::Bspc).with_bsp_partition(4, 4);
        let k = generate(&w, &plan, "kern");
        // Stripe 0 keeps columns where c % 8 == 0: 0, 8, 16, 24.
        assert!(k.source.contains("stripe0_cols[4] = {0, 8, 16, 24}"));
        // Stripe 2 keeps c % 8 == 4.
        assert!(k.source.contains("stripe2_cols[4] = {4, 12, 20, 28}"));
        // __constant declarations sit at program scope, before the kernel.
        let const_pos = k.source.find("__constant").expect("constants present");
        let kernel_pos = k.source.find("__kernel").expect("kernel present");
        assert!(const_pos < kernel_pos, "constants must precede the kernel");
    }

    #[test]
    fn unroll_factor_propagates() {
        let w = bsp_matrix();
        let mut plan = ExecutionPlan::gpu_default(StorageFormat::Bspc).with_bsp_partition(4, 4);
        plan.unroll = 8;
        let k = generate(&w, &plan, "kern");
        assert!(k.source.contains("#pragma unroll 8"));
    }

    #[test]
    #[should_panic(expected = "invalid execution plan")]
    fn invalid_plan_rejected() {
        let mut plan = ExecutionPlan::gpu_default(StorageFormat::Csr);
        plan.threads = 0;
        generate(&Matrix::zeros(4, 4), &plan, "kern");
    }
}

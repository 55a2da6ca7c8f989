//! Gated Recurrent Unit cell and layer (paper Fig. 1).
//!
//! Equations (Cho et al. 2014, PyTorch gate convention):
//!
//! ```text
//! z_t = σ(W_z x_t + U_z h_{t-1} + b_z)          update gate
//! r_t = σ(W_r x_t + U_r h_{t-1} + b_r)          reset gate
//! n_t = tanh(W_n x_t + U_n (r_t ⊙ h_{t-1}) + b_n)   candidate ("cell state" h̃)
//! h_t = (1 - z_t) ⊙ n_t + z_t ⊙ h_{t-1}         cell output
//! ```
//!
//! The six weight matrices (`W_*` of shape `hidden×input`, `U_*` of shape
//! `hidden×hidden`) are the pruning targets of the whole reproduction: BSP,
//! the baselines and the compiler all consume them through
//! [`GruCell::prunable`] / [`GruCell::prunable_mut`].
//!
//! Backpropagation-through-time is implemented analytically; the test module
//! validates every gradient against central finite differences.

use rtm_tensor::activations::{sigmoid_slice, tanh_slice};
use rtm_tensor::gemm::{gemv_into, gemv_transposed, ger};
use rtm_tensor::init::{rng_from_seed, xavier_uniform};
use rtm_tensor::{Matrix, Vector};

/// Parameters of one GRU cell.
#[derive(Debug, Clone, PartialEq)]
pub struct GruCell {
    /// Update-gate input weights, `hidden × input`.
    pub w_z: Matrix,
    /// Update-gate recurrent weights, `hidden × hidden`.
    pub u_z: Matrix,
    /// Update-gate bias.
    pub b_z: Vec<f32>,
    /// Reset-gate input weights.
    pub w_r: Matrix,
    /// Reset-gate recurrent weights.
    pub u_r: Matrix,
    /// Reset-gate bias.
    pub b_r: Vec<f32>,
    /// Candidate input weights.
    pub w_n: Matrix,
    /// Candidate recurrent weights.
    pub u_n: Matrix,
    /// Candidate bias.
    pub b_n: Vec<f32>,
}

/// Per-timestep activations cached by the forward pass for BPTT.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GruStep {
    /// Update gate `z_t`.
    pub z: Vec<f32>,
    /// Reset gate `r_t`.
    pub r: Vec<f32>,
    /// Candidate state `n_t`.
    pub n: Vec<f32>,
    /// Output `h_t`.
    pub h: Vec<f32>,
}

/// Gradients with the same shapes as [`GruCell`].
#[derive(Debug, Clone, PartialEq)]
pub struct GruGrads {
    /// d/dW_z
    pub w_z: Matrix,
    /// d/dU_z
    pub u_z: Matrix,
    /// d/db_z
    pub b_z: Vec<f32>,
    /// d/dW_r
    pub w_r: Matrix,
    /// d/dU_r
    pub u_r: Matrix,
    /// d/db_r
    pub b_r: Vec<f32>,
    /// d/dW_n
    pub w_n: Matrix,
    /// d/dU_n
    pub u_n: Matrix,
    /// d/db_n
    pub b_n: Vec<f32>,
}

/// Full-sequence cache: inputs, initial state and per-step activations.
#[derive(Debug, Clone, Default)]
pub struct GruCache {
    /// Input frame per timestep.
    pub xs: Vec<Vec<f32>>,
    /// Hidden state *entering* each timestep (`h_{t-1}`), plus nothing else.
    pub h_prevs: Vec<Vec<f32>>,
    /// Activations per timestep.
    pub steps: Vec<GruStep>,
}

/// Reusable per-sequence workspace for the allocation-free step
/// ([`GruCell::step_into`]).
///
/// One instance amortizes every intermediate across all timesteps of a
/// sequence — and across layers of different widths, since the buffers are
/// resized on use. Steady-state inference allocates nothing per frame.
#[derive(Debug, Clone, Default)]
pub struct GruScratch {
    /// Recurrent-term temp: `U·h_{t-1}` per gate, then `U_n (r ⊙ h_{t-1})`
    /// in the candidate phase.
    tmp: Vec<f32>,
    /// Reset-gated state `r ⊙ h_{t-1}`.
    rh: Vec<f32>,
}

impl GruScratch {
    /// Workspace pre-sized for a cell of the given hidden width.
    pub fn new(hidden_dim: usize) -> GruScratch {
        GruScratch {
            tmp: vec![0.0; hidden_dim],
            rh: vec![0.0; hidden_dim],
        }
    }
}

impl GruCell {
    /// Creates a cell with Xavier-initialized weights and zero biases.
    pub fn new(input_dim: usize, hidden_dim: usize, seed: u64) -> GruCell {
        let mut rng = rng_from_seed(seed);
        GruCell {
            w_z: xavier_uniform(hidden_dim, input_dim, &mut rng),
            u_z: xavier_uniform(hidden_dim, hidden_dim, &mut rng),
            b_z: vec![0.0; hidden_dim],
            w_r: xavier_uniform(hidden_dim, input_dim, &mut rng),
            u_r: xavier_uniform(hidden_dim, hidden_dim, &mut rng),
            b_r: vec![0.0; hidden_dim],
            w_n: xavier_uniform(hidden_dim, input_dim, &mut rng),
            u_n: xavier_uniform(hidden_dim, hidden_dim, &mut rng),
            b_n: vec![0.0; hidden_dim],
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.w_z.cols()
    }

    /// Hidden-state dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.w_z.rows()
    }

    /// Total parameter count (weights + biases).
    pub fn num_params(&self) -> usize {
        3 * (self.w_z.len() + self.u_z.len() + self.b_z.len())
    }

    /// Shared references to the six prunable weight matrices with their
    /// conventional names (biases are never pruned, matching the paper).
    pub fn prunable(&self) -> Vec<(&'static str, &Matrix)> {
        vec![
            ("w_z", &self.w_z),
            ("u_z", &self.u_z),
            ("w_r", &self.w_r),
            ("u_r", &self.u_r),
            ("w_n", &self.w_n),
            ("u_n", &self.u_n),
        ]
    }

    /// Mutable references to the six prunable weight matrices.
    pub fn prunable_mut(&mut self) -> Vec<(&'static str, &mut Matrix)> {
        vec![
            ("w_z", &mut self.w_z),
            ("u_z", &mut self.u_z),
            ("w_r", &mut self.w_r),
            ("u_r", &mut self.u_r),
            ("w_n", &mut self.w_n),
            ("u_n", &mut self.u_n),
        ]
    }

    /// One forward step.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_dim()` or
    /// `h_prev.len() != self.hidden_dim()`.
    pub fn step(&self, x: &[f32], h_prev: &[f32]) -> GruStep {
        let mut scratch = GruScratch::new(self.hidden_dim());
        let mut out = GruStep::default();
        self.step_into(x, h_prev, &mut scratch, &mut out);
        out
    }

    /// Allocation-free form of [`GruCell::step`]: every intermediate lives
    /// in `scratch` and the activations land in `out` (both resized on
    /// entry, so reuse across layers of different widths is fine).
    ///
    /// The arithmetic sequence is identical to [`GruCell::step`] — results
    /// are bit-exact with the allocating form under every
    /// [`SimdPolicy`](rtm_tensor::simd::SimdPolicy).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_dim()` or
    /// `h_prev.len() != self.hidden_dim()`.
    pub fn step_into(
        &self,
        x: &[f32],
        h_prev: &[f32],
        scratch: &mut GruScratch,
        out: &mut GruStep,
    ) {
        assert_eq!(x.len(), self.input_dim(), "input dim mismatch");
        assert_eq!(h_prev.len(), self.hidden_dim(), "hidden dim mismatch");
        let h = self.hidden_dim();
        out.z.resize(h, 0.0);
        out.r.resize(h, 0.0);
        out.n.resize(h, 0.0);
        out.h.resize(h, 0.0);
        scratch.tmp.resize(h, 0.0);
        scratch.rh.resize(h, 0.0);

        gemv_into(&self.w_z, x, &mut out.z).expect("shape checked");
        gemv_into(&self.u_z, h_prev, &mut scratch.tmp).expect("shape checked");
        Vector::axpy(1.0, &scratch.tmp, &mut out.z);
        Vector::axpy(1.0, &self.b_z, &mut out.z);
        sigmoid_slice(&mut out.z);

        gemv_into(&self.w_r, x, &mut out.r).expect("shape checked");
        gemv_into(&self.u_r, h_prev, &mut scratch.tmp).expect("shape checked");
        Vector::axpy(1.0, &scratch.tmp, &mut out.r);
        Vector::axpy(1.0, &self.b_r, &mut out.r);
        sigmoid_slice(&mut out.r);

        Vector::hadamard_into(&out.r, h_prev, &mut scratch.rh);
        gemv_into(&self.w_n, x, &mut out.n).expect("shape checked");
        gemv_into(&self.u_n, &scratch.rh, &mut scratch.tmp).expect("shape checked");
        Vector::axpy(1.0, &scratch.tmp, &mut out.n);
        Vector::axpy(1.0, &self.b_n, &mut out.n);
        tanh_slice(&mut out.n);

        for (((hi, &zi), &ni), &hp) in out.h.iter_mut().zip(&out.z).zip(&out.n).zip(h_prev) {
            *hi = (1.0 - zi) * ni + zi * hp;
        }
    }

    /// Runs the cell over a full sequence starting from the zero state,
    /// returning the cache needed by [`GruCell::backward`].
    ///
    /// This is the *training* path: BPTT needs every input frame, entering
    /// state and gate activation, so the cache owns copies of them. When no
    /// backward pass will follow, use [`GruCell::forward_states`] instead —
    /// it keeps none of that.
    pub fn forward(&self, xs: &[Vec<f32>]) -> GruCache {
        let mut cache = GruCache::default();
        let mut scratch = GruScratch::new(self.hidden_dim());
        let mut h = vec![0.0f32; self.hidden_dim()];
        for x in xs {
            let mut step = GruStep::default();
            self.step_into(x, &h, &mut scratch, &mut step);
            cache.xs.push(x.clone());
            // The entering state moves into the cache; the new state is the
            // single clone the recurrence itself requires.
            cache
                .h_prevs
                .push(std::mem::replace(&mut h, step.h.clone()));
            cache.steps.push(step);
        }
        cache
    }

    /// Inference-only forward: the hidden state per timestep, nothing else.
    ///
    /// Unlike [`GruCell::forward`] this caches no inputs, entering states or
    /// gate activations — a reused [`GruScratch`] plus one reused
    /// [`GruStep`] serve the whole sequence, and the only per-frame
    /// allocation is the returned state itself. Bit-exact with the cached
    /// path (`cache.steps[t].h == states[t]`).
    pub fn forward_states(&self, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let mut scratch = GruScratch::new(self.hidden_dim());
        let mut step = GruStep::default();
        let mut h = vec![0.0f32; self.hidden_dim()];
        let mut states = Vec::with_capacity(xs.len());
        for x in xs {
            self.step_into(x, &h, &mut scratch, &mut step);
            // Double-buffer: the fresh state becomes next step's h_prev and
            // the old h buffer is recycled as the next output target.
            std::mem::swap(&mut h, &mut step.h);
            states.push(h.clone());
        }
        states
    }

    /// Backpropagation through time.
    ///
    /// `dh_out[t]` is the loss gradient w.r.t. the cell output `h_t`
    /// (e.g. from the classifier head at every frame). Returns the parameter
    /// gradients and the gradient w.r.t. each input frame (for stacking).
    ///
    /// # Panics
    ///
    /// Panics if `dh_out.len() != cache.steps.len()`.
    pub fn backward(&self, cache: &GruCache, dh_out: &[Vec<f32>]) -> (GruGrads, Vec<Vec<f32>>) {
        assert_eq!(dh_out.len(), cache.steps.len(), "dh_out length mismatch");
        let hid = self.hidden_dim();
        let inp = self.input_dim();
        let t_len = cache.steps.len();

        let mut grads = GruGrads::zeros(inp, hid);
        let mut dxs = vec![vec![0.0f32; inp]; t_len];
        // Gradient flowing into h_t from the future (initially zero at T-1).
        let mut dh_next = vec![0.0f32; hid];

        for t in (0..t_len).rev() {
            let step = &cache.steps[t];
            let h_prev = &cache.h_prevs[t];
            let x = &cache.xs[t];

            // Total gradient at h_t: local head gradient + recurrent carry.
            let mut dh = dh_out[t].clone();
            Vector::axpy(1.0, &dh_next, &mut dh);

            // h = (1-z) ⊙ n + z ⊙ h_prev
            let mut dz = vec![0.0f32; hid];
            let mut dn = vec![0.0f32; hid];
            let mut dh_prev = vec![0.0f32; hid];
            for i in 0..hid {
                dz[i] = dh[i] * (h_prev[i] - step.n[i]);
                dn[i] = dh[i] * (1.0 - step.z[i]);
                dh_prev[i] = dh[i] * step.z[i];
            }

            // n = tanh(a_n), a_n = W_n x + U_n (r ⊙ h_prev) + b_n
            let mut da_n = vec![0.0f32; hid];
            for i in 0..hid {
                da_n[i] = dn[i] * (1.0 - step.n[i] * step.n[i]);
            }
            let rh: Vec<f32> = step
                .r
                .iter()
                .zip(h_prev)
                .map(|(&ri, &hi)| ri * hi)
                .collect();
            ger(&mut grads.w_n, 1.0, &da_n, x).expect("shape checked");
            ger(&mut grads.u_n, 1.0, &da_n, &rh).expect("shape checked");
            Vector::axpy(1.0, &da_n, &mut grads.b_n);
            let drh = gemv_transposed(&self.u_n, &da_n).expect("shape checked");
            let mut dr = vec![0.0f32; hid];
            for i in 0..hid {
                dr[i] = drh[i] * h_prev[i];
                dh_prev[i] += drh[i] * step.r[i];
            }

            // z = σ(a_z), a_z = W_z x + U_z h_prev + b_z
            let mut da_z = vec![0.0f32; hid];
            for i in 0..hid {
                da_z[i] = dz[i] * step.z[i] * (1.0 - step.z[i]);
            }
            ger(&mut grads.w_z, 1.0, &da_z, x).expect("shape checked");
            ger(&mut grads.u_z, 1.0, &da_z, h_prev).expect("shape checked");
            Vector::axpy(1.0, &da_z, &mut grads.b_z);
            Vector::axpy(
                1.0,
                &gemv_transposed(&self.u_z, &da_z).expect("shape checked"),
                &mut dh_prev,
            );

            // r = σ(a_r), a_r = W_r x + U_r h_prev + b_r
            let mut da_r = vec![0.0f32; hid];
            for i in 0..hid {
                da_r[i] = dr[i] * step.r[i] * (1.0 - step.r[i]);
            }
            ger(&mut grads.w_r, 1.0, &da_r, x).expect("shape checked");
            ger(&mut grads.u_r, 1.0, &da_r, h_prev).expect("shape checked");
            Vector::axpy(1.0, &da_r, &mut grads.b_r);
            Vector::axpy(
                1.0,
                &gemv_transposed(&self.u_r, &da_r).expect("shape checked"),
                &mut dh_prev,
            );

            // Input gradient for stacked layers.
            let mut dx = gemv_transposed(&self.w_z, &da_z).expect("shape checked");
            Vector::axpy(
                1.0,
                &gemv_transposed(&self.w_r, &da_r).expect("shape checked"),
                &mut dx,
            );
            Vector::axpy(
                1.0,
                &gemv_transposed(&self.w_n, &da_n).expect("shape checked"),
                &mut dx,
            );
            dxs[t] = dx;

            dh_next = dh_prev;
        }
        (grads, dxs)
    }

    /// Applies one SGD-style update `param -= lr * grad` to every parameter.
    ///
    /// # Panics
    ///
    /// Panics if the gradient shapes do not match the cell.
    pub fn apply_grads(&mut self, grads: &GruGrads, lr: f32) {
        self.w_z.axpy(-lr, &grads.w_z).expect("shape");
        self.u_z.axpy(-lr, &grads.u_z).expect("shape");
        Vector::axpy(-lr, &grads.b_z, &mut self.b_z);
        self.w_r.axpy(-lr, &grads.w_r).expect("shape");
        self.u_r.axpy(-lr, &grads.u_r).expect("shape");
        Vector::axpy(-lr, &grads.b_r, &mut self.b_r);
        self.w_n.axpy(-lr, &grads.w_n).expect("shape");
        self.u_n.axpy(-lr, &grads.u_n).expect("shape");
        Vector::axpy(-lr, &grads.b_n, &mut self.b_n);
    }
}

impl GruGrads {
    /// Zero gradients for a cell of the given dimensions.
    pub fn zeros(input_dim: usize, hidden_dim: usize) -> GruGrads {
        GruGrads {
            w_z: Matrix::zeros(hidden_dim, input_dim),
            u_z: Matrix::zeros(hidden_dim, hidden_dim),
            b_z: vec![0.0; hidden_dim],
            w_r: Matrix::zeros(hidden_dim, input_dim),
            u_r: Matrix::zeros(hidden_dim, hidden_dim),
            b_r: vec![0.0; hidden_dim],
            w_n: Matrix::zeros(hidden_dim, input_dim),
            u_n: Matrix::zeros(hidden_dim, hidden_dim),
            b_n: vec![0.0; hidden_dim],
        }
    }

    /// Accumulates another gradient set into this one.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn accumulate(&mut self, other: &GruGrads) {
        self.w_z.axpy(1.0, &other.w_z).expect("shape");
        self.u_z.axpy(1.0, &other.u_z).expect("shape");
        Vector::axpy(1.0, &other.b_z, &mut self.b_z);
        self.w_r.axpy(1.0, &other.w_r).expect("shape");
        self.u_r.axpy(1.0, &other.u_r).expect("shape");
        Vector::axpy(1.0, &other.b_r, &mut self.b_r);
        self.w_n.axpy(1.0, &other.w_n).expect("shape");
        self.u_n.axpy(1.0, &other.u_n).expect("shape");
        Vector::axpy(1.0, &other.b_n, &mut self.b_n);
    }

    /// Scales every gradient by `s` (e.g. batch averaging).
    pub fn scale(&mut self, s: f32) {
        self.w_z.scale_inplace(s);
        self.u_z.scale_inplace(s);
        Vector::scale(&mut self.b_z, s);
        self.w_r.scale_inplace(s);
        self.u_r.scale_inplace(s);
        Vector::scale(&mut self.b_r, s);
        self.w_n.scale_inplace(s);
        self.u_n.scale_inplace(s);
        Vector::scale(&mut self.b_n, s);
    }

    /// Sum of squared entries across all gradients (for global-norm
    /// clipping).
    pub fn squared_norm(&self) -> f32 {
        let m = |m: &Matrix| m.as_slice().iter().map(|v| v * v).sum::<f32>();
        let v = |v: &[f32]| v.iter().map(|x| x * x).sum::<f32>();
        m(&self.w_z)
            + m(&self.u_z)
            + v(&self.b_z)
            + m(&self.w_r)
            + m(&self.u_r)
            + v(&self.b_r)
            + m(&self.w_n)
            + m(&self.u_n)
            + v(&self.b_n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_shapes_and_range() {
        let cell = GruCell::new(4, 6, 1);
        let step = cell.step(&[0.1, -0.2, 0.3, 0.0], &[0.0; 6]);
        assert_eq!(step.z.len(), 6);
        assert_eq!(step.h.len(), 6);
        // Gates are probabilities.
        assert!(step.z.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(step.r.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Candidate and output are in tanh range.
        assert!(step.n.iter().all(|&v| (-1.0..=1.0).contains(&v)));
        assert!(step.h.iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn zero_input_zero_state_keeps_bounded_output() {
        let cell = GruCell::new(3, 3, 7);
        let step = cell.step(&[0.0; 3], &[0.0; 3]);
        // With zero h_prev and biases 0, n = tanh(0) = 0 so h = 0.
        assert!(step.h.iter().all(|&v| v.abs() < 1e-6));
    }

    #[test]
    fn update_gate_interpolates() {
        // If z saturates at 1, h_t = h_prev exactly.
        let mut cell = GruCell::new(1, 1, 3);
        cell.b_z = vec![100.0]; // force z -> 1
        let step = cell.step(&[0.5], &[0.7]);
        assert!((step.h[0] - 0.7).abs() < 1e-4);
        // If z saturates at 0, h_t = n_t.
        cell.b_z = vec![-100.0];
        let step = cell.step(&[0.5], &[0.7]);
        assert!((step.h[0] - step.n[0]).abs() < 1e-6);
    }

    #[test]
    fn forward_caches_full_sequence() {
        let cell = GruCell::new(2, 3, 11);
        let xs = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.5, 0.5]];
        let cache = cell.forward(&xs);
        assert_eq!(cache.steps.len(), 3);
        assert_eq!(cache.h_prevs[0], vec![0.0; 3]);
        assert_eq!(cache.h_prevs[1], cache.steps[0].h);
        assert_eq!(cache.h_prevs[2], cache.steps[1].h);
    }

    #[test]
    fn recurrence_carries_information() {
        let cell = GruCell::new(1, 4, 5);
        // Same final input, different prefix: final h must differ.
        let a = cell.forward(&[vec![1.0], vec![0.0]]);
        let b = cell.forward(&[vec![-1.0], vec![0.0]]);
        let ha = &a.steps[1].h;
        let hb = &b.steps[1].h;
        let diff: f32 = ha.iter().zip(hb).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-4, "hidden state must depend on history");
    }

    /// Central finite-difference check of every parameter gradient against
    /// the analytic BPTT. Loss = sum of all h_t components (linear in h, so
    /// dh_out = 1 everywhere).
    #[test]
    fn gradient_check_parameters() {
        let input_dim = 3;
        let hidden = 4;
        let t_len = 5;
        let cell = GruCell::new(input_dim, hidden, 42);
        let mut rng = rtm_tensor::init::rng_from_seed(77);
        let xs: Vec<Vec<f32>> = (0..t_len)
            .map(|_| {
                (0..input_dim)
                    .map(|_| rtm_tensor::init::standard_normal(&mut rng) * 0.5)
                    .collect()
            })
            .collect();

        let loss = |c: &GruCell| -> f64 {
            let cache = c.forward(&xs);
            cache
                .steps
                .iter()
                .map(|s| s.h.iter().map(|&v| v as f64).sum::<f64>())
                .sum()
        };

        let cache = cell.forward(&xs);
        let dh_out = vec![vec![1.0f32; hidden]; t_len];
        let (grads, _) = cell.backward(&cache, &dh_out);

        let eps = 1e-3f32;
        #[allow(clippy::type_complexity)]
        let fields: [(
            &str,
            fn(&GruCell) -> &Matrix,
            fn(&mut GruCell) -> &mut Matrix,
            fn(&GruGrads) -> &Matrix,
        ); 6] = [
            ("w_z", |c| &c.w_z, |c| &mut c.w_z, |g| &g.w_z),
            ("u_z", |c| &c.u_z, |c| &mut c.u_z, |g| &g.u_z),
            ("w_r", |c| &c.w_r, |c| &mut c.w_r, |g| &g.w_r),
            ("u_r", |c| &c.u_r, |c| &mut c.u_r, |g| &g.u_r),
            ("w_n", |c| &c.w_n, |c| &mut c.w_n, |g| &g.w_n),
            ("u_n", |c| &c.u_n, |c| &mut c.u_n, |g| &g.u_n),
        ];
        for (name, _get, get_mut, get_grad) in fields {
            let shape = get_grad(&grads).shape();
            // Spot-check a handful of coordinates per matrix.
            for &(r, c) in &[(0usize, 0usize), (1, 1), (shape.0 - 1, shape.1 - 1)] {
                let mut plus = cell.clone();
                get_mut(&mut plus)[(r, c)] += eps;
                let mut minus = cell.clone();
                get_mut(&mut minus)[(r, c)] -= eps;
                let fd = ((loss(&plus) - loss(&minus)) / (2.0 * eps as f64)) as f32;
                let an = get_grad(&grads)[(r, c)];
                assert!(
                    (fd - an).abs() < 2e-2 * (1.0 + fd.abs().max(an.abs())),
                    "{name}[{r},{c}]: finite-diff {fd} vs analytic {an}"
                );
            }
        }

        // Bias gradients.
        for i in 0..hidden {
            let mut plus = cell.clone();
            plus.b_n[i] += eps;
            let mut minus = cell.clone();
            minus.b_n[i] -= eps;
            let fd = ((loss(&plus) - loss(&minus)) / (2.0 * eps as f64)) as f32;
            assert!(
                (fd - grads.b_n[i]).abs() < 2e-2 * (1.0 + fd.abs()),
                "b_n[{i}]: {fd} vs {}",
                grads.b_n[i]
            );
        }
    }

    /// Gradient w.r.t. inputs must also match finite differences (needed for
    /// layer stacking).
    #[test]
    fn gradient_check_inputs() {
        let cell = GruCell::new(2, 3, 9);
        let xs = vec![vec![0.3, -0.1], vec![0.2, 0.4], vec![-0.5, 0.1]];
        let cache = cell.forward(&xs);
        let dh_out = vec![vec![1.0f32; 3]; 3];
        let (_, dxs) = cell.backward(&cache, &dh_out);

        let loss = |xs: &[Vec<f32>]| -> f64 {
            let cache = cell.forward(xs);
            cache
                .steps
                .iter()
                .map(|s| s.h.iter().map(|&v| v as f64).sum::<f64>())
                .sum()
        };
        let eps = 1e-3f32;
        for t in 0..3 {
            for i in 0..2 {
                let mut plus = xs.clone();
                plus[t][i] += eps;
                let mut minus = xs.clone();
                minus[t][i] -= eps;
                let fd = ((loss(&plus) - loss(&minus)) / (2.0 * eps as f64)) as f32;
                assert!(
                    (fd - dxs[t][i]).abs() < 2e-2 * (1.0 + fd.abs()),
                    "dx[{t}][{i}]: {fd} vs {}",
                    dxs[t][i]
                );
            }
        }
    }

    #[test]
    fn grads_accumulate_and_scale() {
        let mut a = GruGrads::zeros(2, 2);
        let mut b = GruGrads::zeros(2, 2);
        b.w_z[(0, 0)] = 2.0;
        b.b_n[1] = 4.0;
        a.accumulate(&b);
        a.accumulate(&b);
        assert_eq!(a.w_z[(0, 0)], 4.0);
        assert_eq!(a.b_n[1], 8.0);
        a.scale(0.5);
        assert_eq!(a.w_z[(0, 0)], 2.0);
        assert!((a.squared_norm() - (4.0 + 16.0)).abs() < 1e-6);
    }

    #[test]
    fn apply_grads_descends() {
        let mut cell = GruCell::new(1, 1, 2);
        let before = cell.w_z[(0, 0)];
        let mut g = GruGrads::zeros(1, 1);
        g.w_z[(0, 0)] = 1.0;
        cell.apply_grads(&g, 0.1);
        assert!((cell.w_z[(0, 0)] - (before - 0.1)).abs() < 1e-6);
    }

    #[test]
    fn prunable_exposes_six_matrices() {
        let mut cell = GruCell::new(2, 3, 1);
        assert_eq!(cell.prunable().len(), 6);
        let names: Vec<_> = cell.prunable().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["w_z", "u_z", "w_r", "u_r", "w_n", "u_n"]);
        for (_, m) in cell.prunable_mut() {
            m.scale_inplace(0.0);
        }
        assert_eq!(cell.w_n.frobenius_norm(), 0.0);
    }

    #[test]
    fn num_params_formula() {
        let cell = GruCell::new(10, 20, 0);
        // 3 gates x (20x10 + 20x20 + 20)
        assert_eq!(cell.num_params(), 3 * (200 + 400 + 20));
    }

    #[test]
    #[should_panic(expected = "input dim mismatch")]
    fn step_rejects_bad_input() {
        let cell = GruCell::new(2, 2, 0);
        cell.step(&[1.0], &[0.0, 0.0]);
    }

    #[test]
    fn step_into_reuses_buffers_bit_exact() {
        let cell = GruCell::new(5, 7, 13);
        let mut scratch = GruScratch::new(7);
        let mut out = GruStep::default();
        let mut h = vec![0.0f32; 7];
        for t in 0..6 {
            let x: Vec<f32> = (0..5).map(|i| ((t * 5 + i) as f32 * 0.3).sin()).collect();
            let fresh = cell.step(&x, &h);
            cell.step_into(&x, &h, &mut scratch, &mut out);
            assert_eq!(out, fresh, "step {t}");
            h = fresh.h;
        }
    }

    #[test]
    fn forward_states_matches_cached_forward() {
        let cell = GruCell::new(3, 5, 21);
        let xs: Vec<Vec<f32>> = (0..9)
            .map(|t| (0..3).map(|i| ((t * 3 + i) as f32 * 0.17).cos()).collect())
            .collect();
        let cache = cell.forward(&xs);
        let states = cell.forward_states(&xs);
        let want: Vec<Vec<f32>> = cache.steps.iter().map(|s| s.h.clone()).collect();
        assert_eq!(states, want);
    }

    #[test]
    fn scratch_adapts_across_cell_widths() {
        // A stacked network threads ONE scratch through layers of different
        // widths; the buffers must resize transparently.
        let wide = GruCell::new(4, 9, 1);
        let narrow = GruCell::new(9, 3, 2);
        let mut scratch = GruScratch::new(9);
        let mut out = GruStep::default();
        let x: Vec<f32> = (0..4).map(|i| i as f32 * 0.2 - 0.3).collect();
        wide.step_into(&x, &[0.0; 9], &mut scratch, &mut out);
        assert_eq!(out, wide.step(&x, &[0.0; 9]));
        let mid = out.h.clone();
        narrow.step_into(&mid, &[0.0; 3], &mut scratch, &mut out);
        assert_eq!(out, narrow.step(&mid, &[0.0; 3]));
    }
}

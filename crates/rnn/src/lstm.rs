//! Long Short-Term Memory cell and layer.
//!
//! The baselines RTMobile compares against (ESE, C-LSTM, BBS, Wang) are all
//! LSTM accelerators; the paper itself focuses on GRU "as a more advanced
//! version of RNN than LSTM" (§II-A). The LSTM here serves two purposes:
//! the extension experiments in DESIGN.md §6, and a demonstration that the
//! pruning machinery is architecture-agnostic (it consumes any set of named
//! weight matrices).
//!
//! Equations (standard, no peepholes):
//!
//! ```text
//! i_t = σ(W_i x_t + U_i h_{t-1} + b_i)
//! f_t = σ(W_f x_t + U_f h_{t-1} + b_f)
//! g_t = tanh(W_g x_t + U_g h_{t-1} + b_g)
//! o_t = σ(W_o x_t + U_o h_{t-1} + b_o)
//! c_t = f_t ⊙ c_{t-1} + i_t ⊙ g_t
//! h_t = o_t ⊙ tanh(c_t)
//! ```

use rtm_tensor::activations::{sigmoid, tanh};
use rtm_tensor::gemm::{gemv, gemv_transposed, ger};
use rtm_tensor::init::{rng_from_seed, xavier_uniform};
use rtm_tensor::{Matrix, Vector};

/// Parameters of one LSTM cell.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmCell {
    /// Input-gate weights (`hidden × input` / `hidden × hidden`).
    pub w_i: Matrix,
    /// Input-gate recurrent weights.
    pub u_i: Matrix,
    /// Input-gate bias.
    pub b_i: Vec<f32>,
    /// Forget-gate weights.
    pub w_f: Matrix,
    /// Forget-gate recurrent weights.
    pub u_f: Matrix,
    /// Forget-gate bias (initialized to 1.0, the standard trick).
    pub b_f: Vec<f32>,
    /// Cell-candidate weights.
    pub w_g: Matrix,
    /// Cell-candidate recurrent weights.
    pub u_g: Matrix,
    /// Cell-candidate bias.
    pub b_g: Vec<f32>,
    /// Output-gate weights.
    pub w_o: Matrix,
    /// Output-gate recurrent weights.
    pub u_o: Matrix,
    /// Output-gate bias.
    pub b_o: Vec<f32>,
}

/// Per-timestep activations cached for BPTT.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LstmStep {
    /// Input gate.
    pub i: Vec<f32>,
    /// Forget gate.
    pub f: Vec<f32>,
    /// Candidate.
    pub g: Vec<f32>,
    /// Output gate.
    pub o: Vec<f32>,
    /// Cell state.
    pub c: Vec<f32>,
    /// Hidden output.
    pub h: Vec<f32>,
}

/// Full-sequence cache for BPTT.
#[derive(Debug, Clone, Default)]
pub struct LstmCache {
    /// Input frames.
    pub xs: Vec<Vec<f32>>,
    /// Hidden state entering each step.
    pub h_prevs: Vec<Vec<f32>>,
    /// Cell state entering each step.
    pub c_prevs: Vec<Vec<f32>>,
    /// Per-step activations.
    pub steps: Vec<LstmStep>,
}

/// Gradients mirroring [`LstmCell`].
#[derive(Debug, Clone, PartialEq)]
pub struct LstmGrads {
    /// d/dW_i
    pub w_i: Matrix,
    /// d/dU_i
    pub u_i: Matrix,
    /// d/db_i
    pub b_i: Vec<f32>,
    /// d/dW_f
    pub w_f: Matrix,
    /// d/dU_f
    pub u_f: Matrix,
    /// d/db_f
    pub b_f: Vec<f32>,
    /// d/dW_g
    pub w_g: Matrix,
    /// d/dU_g
    pub u_g: Matrix,
    /// d/db_g
    pub b_g: Vec<f32>,
    /// d/dW_o
    pub w_o: Matrix,
    /// d/dU_o
    pub u_o: Matrix,
    /// d/db_o
    pub b_o: Vec<f32>,
}

impl LstmCell {
    /// Creates a cell with Xavier weights, zero biases and forget bias 1.0.
    pub fn new(input_dim: usize, hidden_dim: usize, seed: u64) -> LstmCell {
        let mut rng = rng_from_seed(seed);
        LstmCell {
            w_i: xavier_uniform(hidden_dim, input_dim, &mut rng),
            u_i: xavier_uniform(hidden_dim, hidden_dim, &mut rng),
            b_i: vec![0.0; hidden_dim],
            w_f: xavier_uniform(hidden_dim, input_dim, &mut rng),
            u_f: xavier_uniform(hidden_dim, hidden_dim, &mut rng),
            b_f: vec![1.0; hidden_dim],
            w_g: xavier_uniform(hidden_dim, input_dim, &mut rng),
            u_g: xavier_uniform(hidden_dim, hidden_dim, &mut rng),
            b_g: vec![0.0; hidden_dim],
            w_o: xavier_uniform(hidden_dim, input_dim, &mut rng),
            u_o: xavier_uniform(hidden_dim, hidden_dim, &mut rng),
            b_o: vec![0.0; hidden_dim],
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.w_i.cols()
    }

    /// Hidden-state dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.w_i.rows()
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        4 * (self.w_i.len() + self.u_i.len() + self.b_i.len())
    }

    /// The eight prunable weight matrices with conventional names.
    pub fn prunable_mut(&mut self) -> Vec<(&'static str, &mut Matrix)> {
        vec![
            ("w_i", &mut self.w_i),
            ("u_i", &mut self.u_i),
            ("w_f", &mut self.w_f),
            ("u_f", &mut self.u_f),
            ("w_g", &mut self.w_g),
            ("u_g", &mut self.u_g),
            ("w_o", &mut self.w_o),
            ("u_o", &mut self.u_o),
        ]
    }

    /// One forward step from `(h_prev, c_prev)`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn step(&self, x: &[f32], h_prev: &[f32], c_prev: &[f32]) -> LstmStep {
        assert_eq!(x.len(), self.input_dim(), "input dim mismatch");
        assert_eq!(h_prev.len(), self.hidden_dim(), "hidden dim mismatch");
        assert_eq!(c_prev.len(), self.hidden_dim(), "cell dim mismatch");
        let hid = self.hidden_dim();

        let gate = |w: &Matrix, u: &Matrix, b: &[f32]| -> Vec<f32> {
            let mut a = gemv(w, x).expect("shape checked");
            Vector::axpy(1.0, &gemv(u, h_prev).expect("shape checked"), &mut a);
            Vector::axpy(1.0, b, &mut a);
            a
        };

        let mut i = gate(&self.w_i, &self.u_i, &self.b_i);
        let mut f = gate(&self.w_f, &self.u_f, &self.b_f);
        let mut g = gate(&self.w_g, &self.u_g, &self.b_g);
        let mut o = gate(&self.w_o, &self.u_o, &self.b_o);
        for v in &mut i {
            *v = sigmoid(*v);
        }
        for v in &mut f {
            *v = sigmoid(*v);
        }
        for v in &mut g {
            *v = tanh(*v);
        }
        for v in &mut o {
            *v = sigmoid(*v);
        }

        let mut c = vec![0.0f32; hid];
        let mut h = vec![0.0f32; hid];
        for k in 0..hid {
            c[k] = f[k] * c_prev[k] + i[k] * g[k];
            h[k] = o[k] * tanh(c[k]);
        }
        LstmStep { i, f, g, o, c, h }
    }

    /// Runs the cell over a sequence from the zero state.
    pub fn forward(&self, xs: &[Vec<f32>]) -> LstmCache {
        let hid = self.hidden_dim();
        let mut cache = LstmCache::default();
        let mut h = vec![0.0f32; hid];
        let mut c = vec![0.0f32; hid];
        for x in xs {
            cache.xs.push(x.clone());
            cache.h_prevs.push(h.clone());
            cache.c_prevs.push(c.clone());
            let step = self.step(x, &h, &c);
            h = step.h.clone();
            c = step.c.clone();
            cache.steps.push(step);
        }
        cache
    }

    /// Backpropagation through time; see [`crate::gru::GruCell::backward`]
    /// for the calling convention.
    ///
    /// # Panics
    ///
    /// Panics if `dh_out.len() != cache.steps.len()`.
    pub fn backward(&self, cache: &LstmCache, dh_out: &[Vec<f32>]) -> (LstmGrads, Vec<Vec<f32>>) {
        assert_eq!(dh_out.len(), cache.steps.len(), "dh_out length mismatch");
        let hid = self.hidden_dim();
        let inp = self.input_dim();
        let t_len = cache.steps.len();

        let mut grads = LstmGrads::zeros(inp, hid);
        let mut dxs = vec![vec![0.0f32; inp]; t_len];
        let mut dh_next = vec![0.0f32; hid];
        let mut dc_next = vec![0.0f32; hid];

        for t in (0..t_len).rev() {
            let s = &cache.steps[t];
            let h_prev = &cache.h_prevs[t];
            let c_prev = &cache.c_prevs[t];
            let x = &cache.xs[t];

            let mut dh = dh_out[t].clone();
            Vector::axpy(1.0, &dh_next, &mut dh);

            let mut dc = dc_next.clone();
            let mut do_ = vec![0.0f32; hid];
            for k in 0..hid {
                let tc = tanh(s.c[k]);
                do_[k] = dh[k] * tc;
                dc[k] += dh[k] * s.o[k] * (1.0 - tc * tc);
            }

            let mut di = vec![0.0f32; hid];
            let mut df = vec![0.0f32; hid];
            let mut dg = vec![0.0f32; hid];
            let mut dc_prev = vec![0.0f32; hid];
            for k in 0..hid {
                di[k] = dc[k] * s.g[k];
                df[k] = dc[k] * c_prev[k];
                dg[k] = dc[k] * s.i[k];
                dc_prev[k] = dc[k] * s.f[k];
            }

            let mut da_i = vec![0.0f32; hid];
            let mut da_f = vec![0.0f32; hid];
            let mut da_g = vec![0.0f32; hid];
            let mut da_o = vec![0.0f32; hid];
            for k in 0..hid {
                da_i[k] = di[k] * s.i[k] * (1.0 - s.i[k]);
                da_f[k] = df[k] * s.f[k] * (1.0 - s.f[k]);
                da_g[k] = dg[k] * (1.0 - s.g[k] * s.g[k]);
                da_o[k] = do_[k] * s.o[k] * (1.0 - s.o[k]);
            }

            let mut dh_prev = vec![0.0f32; hid];
            let mut dx = vec![0.0f32; inp];
            let acc = |w: &Matrix,
                       u: &Matrix,
                       gw: &mut Matrix,
                       gu: &mut Matrix,
                       gb: &mut [f32],
                       da: &[f32],
                       dh_prev: &mut [f32],
                       dx: &mut [f32]| {
                ger(gw, 1.0, da, x).expect("shape checked");
                ger(gu, 1.0, da, h_prev).expect("shape checked");
                Vector::axpy(1.0, da, gb);
                Vector::axpy(1.0, &gemv_transposed(u, da).expect("shape"), dh_prev);
                Vector::axpy(1.0, &gemv_transposed(w, da).expect("shape"), dx);
            };
            acc(
                &self.w_i,
                &self.u_i,
                &mut grads.w_i,
                &mut grads.u_i,
                &mut grads.b_i,
                &da_i,
                &mut dh_prev,
                &mut dx,
            );
            acc(
                &self.w_f,
                &self.u_f,
                &mut grads.w_f,
                &mut grads.u_f,
                &mut grads.b_f,
                &da_f,
                &mut dh_prev,
                &mut dx,
            );
            acc(
                &self.w_g,
                &self.u_g,
                &mut grads.w_g,
                &mut grads.u_g,
                &mut grads.b_g,
                &da_g,
                &mut dh_prev,
                &mut dx,
            );
            acc(
                &self.w_o,
                &self.u_o,
                &mut grads.w_o,
                &mut grads.u_o,
                &mut grads.b_o,
                &da_o,
                &mut dh_prev,
                &mut dx,
            );

            dxs[t] = dx;
            dh_next = dh_prev;
            dc_next = dc_prev;
        }
        (grads, dxs)
    }

    /// `param -= lr * grad` over every parameter.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn apply_grads(&mut self, grads: &LstmGrads, lr: f32) {
        self.w_i.axpy(-lr, &grads.w_i).expect("shape");
        self.u_i.axpy(-lr, &grads.u_i).expect("shape");
        Vector::axpy(-lr, &grads.b_i, &mut self.b_i);
        self.w_f.axpy(-lr, &grads.w_f).expect("shape");
        self.u_f.axpy(-lr, &grads.u_f).expect("shape");
        Vector::axpy(-lr, &grads.b_f, &mut self.b_f);
        self.w_g.axpy(-lr, &grads.w_g).expect("shape");
        self.u_g.axpy(-lr, &grads.u_g).expect("shape");
        Vector::axpy(-lr, &grads.b_g, &mut self.b_g);
        self.w_o.axpy(-lr, &grads.w_o).expect("shape");
        self.u_o.axpy(-lr, &grads.u_o).expect("shape");
        Vector::axpy(-lr, &grads.b_o, &mut self.b_o);
    }
}

impl LstmGrads {
    /// Zero gradients for the given dimensions.
    pub fn zeros(input_dim: usize, hidden_dim: usize) -> LstmGrads {
        let w = || Matrix::zeros(hidden_dim, input_dim);
        let u = || Matrix::zeros(hidden_dim, hidden_dim);
        let b = || vec![0.0f32; hidden_dim];
        LstmGrads {
            w_i: w(),
            u_i: u(),
            b_i: b(),
            w_f: w(),
            u_f: u(),
            b_f: b(),
            w_g: w(),
            u_g: u(),
            b_g: b(),
            w_o: w(),
            u_o: u(),
            b_o: b(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_shapes_and_ranges() {
        let cell = LstmCell::new(3, 5, 1);
        let s = cell.step(&[0.1, 0.2, -0.3], &[0.0; 5], &[0.0; 5]);
        assert_eq!(s.h.len(), 5);
        assert!(s.i.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(s.f.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(s.o.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(s.g.iter().all(|&v| (-1.0..=1.0).contains(&v)));
        assert!(s.h.iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn forget_gate_controls_memory() {
        let mut cell = LstmCell::new(1, 1, 3);
        // Saturate forget gate open and input gate closed: c carries over.
        cell.b_f = vec![100.0];
        cell.b_i = vec![-100.0];
        let s = cell.step(&[0.5], &[0.2], &[0.9]);
        assert!((s.c[0] - 0.9).abs() < 1e-4, "cell state must persist");
        // Closed forget gate: c = i*g only.
        cell.b_f = vec![-100.0];
        cell.b_i = vec![100.0];
        let s = cell.step(&[0.5], &[0.2], &[0.9]);
        assert!((s.c[0] - s.g[0]).abs() < 1e-4);
    }

    #[test]
    fn forward_cache_consistency() {
        let cell = LstmCell::new(2, 3, 5);
        let xs = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let cache = cell.forward(&xs);
        assert_eq!(cache.steps.len(), 2);
        assert_eq!(cache.h_prevs[1], cache.steps[0].h);
        assert_eq!(cache.c_prevs[1], cache.steps[0].c);
    }

    #[test]
    fn gradient_check_parameters() {
        let cell = LstmCell::new(2, 3, 13);
        let mut rng = rtm_tensor::init::rng_from_seed(31);
        let xs: Vec<Vec<f32>> = (0..4)
            .map(|_| {
                (0..2)
                    .map(|_| rtm_tensor::init::standard_normal(&mut rng) * 0.5)
                    .collect()
            })
            .collect();
        let loss = |c: &LstmCell| -> f64 {
            c.forward(&xs)
                .steps
                .iter()
                .map(|s| s.h.iter().map(|&v| v as f64).sum::<f64>())
                .sum()
        };
        let cache = cell.forward(&xs);
        let dh_out = vec![vec![1.0f32; 3]; 4];
        let (grads, _) = cell.backward(&cache, &dh_out);

        let eps = 1e-3f32;
        // Spot-check one coordinate in each of the 8 weight matrices.
        #[allow(clippy::type_complexity)]
        let checks: [(
            &str,
            fn(&mut LstmCell) -> &mut Matrix,
            fn(&LstmGrads) -> &Matrix,
        ); 8] = [
            ("w_i", |c| &mut c.w_i, |g| &g.w_i),
            ("u_i", |c| &mut c.u_i, |g| &g.u_i),
            ("w_f", |c| &mut c.w_f, |g| &g.w_f),
            ("u_f", |c| &mut c.u_f, |g| &g.u_f),
            ("w_g", |c| &mut c.w_g, |g| &g.w_g),
            ("u_g", |c| &mut c.u_g, |g| &g.u_g),
            ("w_o", |c| &mut c.w_o, |g| &g.w_o),
            ("u_o", |c| &mut c.u_o, |g| &g.u_o),
        ];
        for (name, get_mut, get_grad) in checks {
            for &(r, c) in &[(0usize, 0usize), (2, 1)] {
                let mut plus = cell.clone();
                get_mut(&mut plus)[(r, c)] += eps;
                let mut minus = cell.clone();
                get_mut(&mut minus)[(r, c)] -= eps;
                let fd = ((loss(&plus) - loss(&minus)) / (2.0 * eps as f64)) as f32;
                let an = get_grad(&grads)[(r, c)];
                assert!(
                    (fd - an).abs() < 2e-2 * (1.0 + fd.abs().max(an.abs())),
                    "{name}[{r},{c}]: {fd} vs {an}"
                );
            }
        }
    }

    #[test]
    fn gradient_check_inputs() {
        let cell = LstmCell::new(2, 2, 17);
        let xs = vec![vec![0.3, -0.2], vec![0.1, 0.5]];
        let cache = cell.forward(&xs);
        let (_, dxs) = cell.backward(&cache, &[vec![1.0; 2], vec![1.0; 2]]);
        let loss = |xs: &[Vec<f32>]| -> f64 {
            cell.forward(xs)
                .steps
                .iter()
                .map(|s| s.h.iter().map(|&v| v as f64).sum::<f64>())
                .sum()
        };
        let eps = 1e-3f32;
        for t in 0..2 {
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
    fn prunable_exposes_eight_matrices() {
        let mut cell = LstmCell::new(2, 2, 0);
        assert_eq!(cell.prunable_mut().len(), 8);
    }

    #[test]
    fn num_params_formula() {
        let cell = LstmCell::new(10, 20, 0);
        assert_eq!(cell.num_params(), 4 * (200 + 400 + 20));
    }

    #[test]
    fn apply_grads_descends() {
        let mut cell = LstmCell::new(1, 1, 0);
        let w0 = cell.w_o[(0, 0)];
        let mut g = LstmGrads::zeros(1, 1);
        g.w_o[(0, 0)] = 2.0;
        cell.apply_grads(&g, 0.5);
        assert!((cell.w_o[(0, 0)] - (w0 - 1.0)).abs() < 1e-6);
    }
}

//! First-order optimizers: SGD (with momentum) and Adam.
//!
//! §III-B of the paper argues C-LSTM cannot host ADMM training because ADMM
//! "requires the most advanced optimizer in stochastic gradient descent
//! (e.g., Adam optimizer)"; the ADMM retraining loop in `rtm-pruning` indeed
//! drives [`Adam`]. Optimizers update flat parameter slices keyed by a
//! caller-chosen *slot id*, so any parameter layout (GRU cells, dense heads)
//! can share one optimizer instance: the model walks its tensors in a fixed
//! order and hands each one the same slot every step.

/// A stateful first-order optimizer over flat parameter slices.
pub trait Optimizer {
    /// Applies one update to `param` given `grad`, using per-`slot` state.
    ///
    /// # Panics
    ///
    /// Implementations panic if `param.len() != grad.len()`, or if a slot is
    /// reused with a different length.
    fn update(&mut self, slot: usize, param: &mut [f32], grad: &[f32]);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Replaces the learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates plain SGD (`momentum = 0`).
    pub fn new(lr: f32) -> Sgd {
        Sgd::with_momentum(lr, 0.0)
    }

    /// Creates SGD with momentum `mu` (velocity `v = mu v + g`,
    /// `p -= lr v`).
    pub fn with_momentum(lr: f32, momentum: f32) -> Sgd {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    fn slot_state(&mut self, slot: usize, len: usize) -> &mut Vec<f32> {
        if self.velocity.len() <= slot {
            self.velocity.resize_with(slot + 1, Vec::new);
        }
        let v = &mut self.velocity[slot];
        if v.is_empty() {
            v.resize(len, 0.0);
        }
        assert_eq!(v.len(), len, "slot {slot} reused with different length");
        v
    }
}

impl Optimizer for Sgd {
    fn update(&mut self, slot: usize, param: &mut [f32], grad: &[f32]) {
        assert_eq!(param.len(), grad.len(), "param/grad length mismatch");
        let lr = self.lr;
        let mu = self.momentum;
        let v = self.slot_state(slot, param.len());
        for ((p, &g), vi) in param.iter_mut().zip(grad).zip(v.iter_mut()) {
            *vi = mu * *vi + g;
            *p -= lr * *vi;
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba 2015) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    /// Per-slot (first moment, second moment, step count).
    state: Vec<(Vec<f32>, Vec<f32>, u64)>,
}

impl Adam {
    /// Creates Adam with the canonical defaults `β₁=0.9, β₂=0.999, ε=1e-8`.
    pub fn new(lr: f32) -> Adam {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            state: Vec::new(),
        }
    }

    /// Overrides the exponential decay rates.
    pub fn with_betas(mut self, beta1: f32, beta2: f32) -> Adam {
        self.beta1 = beta1;
        self.beta2 = beta2;
        self
    }
}

impl Optimizer for Adam {
    fn update(&mut self, slot: usize, param: &mut [f32], grad: &[f32]) {
        assert_eq!(param.len(), grad.len(), "param/grad length mismatch");
        if self.state.len() <= slot {
            self.state
                .resize_with(slot + 1, || (Vec::new(), Vec::new(), 0));
        }
        let (m, v, t) = &mut self.state[slot];
        if m.is_empty() {
            m.resize(param.len(), 0.0);
            v.resize(param.len(), 0.0);
        }
        assert_eq!(
            m.len(),
            param.len(),
            "slot {slot} reused with different length"
        );
        *t += 1;
        let b1t = 1.0 - self.beta1.powi(*t as i32);
        let b2t = 1.0 - self.beta2.powi(*t as i32);
        for i in 0..param.len() {
            m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * grad[i];
            v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * grad[i] * grad[i];
            let m_hat = m[i] / b1t;
            let v_hat = v[i] / b2t;
            param[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Global-norm gradient clipping helper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradClip {
    /// Maximum allowed global L2 norm.
    pub max_norm: f32,
}

impl GradClip {
    /// Creates a clipper.
    pub fn new(max_norm: f32) -> GradClip {
        GradClip { max_norm }
    }

    /// Given the squared global norm of all gradients, returns the factor to
    /// scale every gradient by (`1.0` when already within bounds).
    pub fn scale_factor(&self, squared_norm: f32) -> f32 {
        let norm = squared_norm.sqrt();
        if norm > self.max_norm && norm > 0.0 {
            self.max_norm / norm
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = x² with each optimizer; both must converge.
    fn run_quadratic(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut x = vec![5.0f32];
        for _ in 0..steps {
            let g = vec![2.0 * x[0]];
            opt.update(0, &mut x, &g);
        }
        x[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut sgd = Sgd::new(0.1);
        assert!(run_quadratic(&mut sgd, 100).abs() < 1e-3);
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let mut plain = Sgd::new(0.01);
        let mut heavy = Sgd::with_momentum(0.01, 0.9);
        let slow = run_quadratic(&mut plain, 50).abs();
        let fast = run_quadratic(&mut heavy, 50).abs();
        assert!(
            fast < slow,
            "momentum should converge faster: {fast} vs {slow}"
        );
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.3);
        assert!(run_quadratic(&mut adam, 200).abs() < 1e-2);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the first Adam step is ~lr * sign(g).
        let mut adam = Adam::new(0.1);
        let mut x = vec![0.0f32];
        adam.update(0, &mut x, &[1.0]);
        assert!((x[0] + 0.1).abs() < 1e-3, "got {}", x[0]);
    }

    #[test]
    fn slots_are_independent() {
        let mut adam = Adam::new(0.1);
        let mut a = vec![0.0f32];
        let mut b = vec![0.0f32, 0.0];
        adam.update(0, &mut a, &[1.0]);
        adam.update(1, &mut b, &[1.0, -1.0]);
        adam.update(0, &mut a, &[1.0]);
        assert!(a[0] < -0.15); // two steps on slot 0
        assert!(b[0] < 0.0 && b[1] > 0.0);
    }

    #[test]
    #[should_panic(expected = "different length")]
    fn slot_reuse_with_different_length_panics() {
        let mut adam = Adam::new(0.1);
        let mut a = vec![0.0f32];
        adam.update(0, &mut a, &[1.0]);
        let mut b = vec![0.0f32, 0.0];
        adam.update(0, &mut b, &[1.0, 1.0]);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut s = Sgd::new(0.5);
        assert_eq!(s.learning_rate(), 0.5);
        s.set_learning_rate(0.25);
        assert_eq!(s.learning_rate(), 0.25);
        let mut a = Adam::new(0.01).with_betas(0.8, 0.99);
        a.set_learning_rate(0.02);
        assert_eq!(a.learning_rate(), 0.02);
    }

    #[test]
    fn grad_clip_factor() {
        let clip = GradClip::new(1.0);
        assert_eq!(clip.scale_factor(0.25), 1.0); // norm 0.5 within bound
        let f = clip.scale_factor(4.0); // norm 2.0 -> factor 0.5
        assert!((f - 0.5).abs() < 1e-6);
        assert_eq!(clip.scale_factor(0.0), 1.0);
    }
}

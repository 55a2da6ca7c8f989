//! The evaluation network of §V-A: a stack of GRU layers plus a dense
//! softmax head, with end-to-end training.
//!
//! The paper's model is "2 GRU layers and about 9.6M overall number of
//! parameters" on TIMIT. [`GruNetwork`] reproduces the topology at a
//! configurable width: the Table I experiment uses a scaled-down hidden size
//! (documented in EXPERIMENTS.md) because training a 9.6M-parameter model to
//! convergence per compression point is outside a laptop budget, while the
//! Table II performance sweep uses the full 1024-wide matrices (no training
//! needed there).

use crate::dense::{DenseGrads, DenseLayer};
use crate::gru::{GruCache, GruCell, GruGrads};
use crate::loss::softmax_cross_entropy;
use crate::optimizer::{GradClip, Optimizer};
use rtm_tensor::Matrix;

/// Shape of a [`GruNetwork`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkConfig {
    /// Feature dimension of each input frame.
    pub input_dim: usize,
    /// Hidden width of each GRU layer (one entry per layer).
    pub hidden_dims: Vec<usize>,
    /// Number of output classes (phones).
    pub num_classes: usize,
}

/// A multi-layer GRU network with a dense classifier head.
#[derive(Debug, Clone, PartialEq)]
pub struct GruNetwork {
    /// The recurrent layers, input-side first.
    pub layers: Vec<GruCell>,
    /// The classifier head.
    pub head: DenseLayer,
}

/// Caches from a full forward pass, consumed by [`GruNetwork::backward`].
#[derive(Debug, Clone, Default)]
pub struct NetworkCache {
    layer_caches: Vec<GruCache>,
    head_inputs: Vec<Vec<f32>>,
}

/// Gradients mirroring [`GruNetwork`].
#[derive(Debug, Clone)]
pub struct NetworkGrads {
    /// Per-layer GRU gradients.
    pub layers: Vec<GruGrads>,
    /// Head gradients.
    pub head: DenseGrads,
}

impl NetworkGrads {
    /// Mutable references to the gradients of every prunable weight matrix,
    /// named identically to [`GruNetwork::prunable_mut`]. Used by the ADMM
    /// trainer to add the augmented-Lagrangian penalty term per tensor.
    pub fn prunable_mut(&mut self) -> Vec<(String, &mut Matrix)> {
        let mut out = Vec::new();
        for (i, g) in self.layers.iter_mut().enumerate() {
            out.push((format!("layer{i}.w_z"), &mut g.w_z));
            out.push((format!("layer{i}.u_z"), &mut g.u_z));
            out.push((format!("layer{i}.w_r"), &mut g.w_r));
            out.push((format!("layer{i}.u_r"), &mut g.u_r));
            out.push((format!("layer{i}.w_n"), &mut g.w_n));
            out.push((format!("layer{i}.u_n"), &mut g.u_n));
        }
        out
    }
}

/// Outcome of one training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepStats {
    /// Mean frame cross-entropy.
    pub loss: f32,
    /// Frame accuracy in `[0, 1]`.
    pub accuracy: f32,
}

impl GruNetwork {
    /// Builds a network with Xavier-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.hidden_dims` is empty.
    pub fn new(cfg: &NetworkConfig, seed: u64) -> GruNetwork {
        assert!(!cfg.hidden_dims.is_empty(), "need at least one GRU layer");
        let mut layers = Vec::with_capacity(cfg.hidden_dims.len());
        let mut in_dim = cfg.input_dim;
        for (i, &h) in cfg.hidden_dims.iter().enumerate() {
            layers.push(GruCell::new(in_dim, h, seed.wrapping_add(i as u64)));
            in_dim = h;
        }
        let head = DenseLayer::new(in_dim, cfg.num_classes, seed.wrapping_add(1000));
        GruNetwork { layers, head }
    }

    /// Total parameter count (GRU layers + head).
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(GruCell::num_params).sum::<usize>() + self.head.num_params()
    }

    /// Forward pass producing per-frame logits (no caches kept).
    ///
    /// This is the inference path: each GRU layer runs through
    /// [`GruCell::forward_states`], which reuses one scratch workspace and
    /// keeps no BPTT state — no per-frame clones of inputs, entering states
    /// or gate activations. Training goes through
    /// [`GruNetwork::forward_cached`]; the two are bit-exact.
    pub fn forward(&self, frames: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let mut current = self.layers[0].forward_states(frames);
        for layer in &self.layers[1..] {
            current = layer.forward_states(&current);
        }
        current.iter().map(|h| self.head.forward(h)).collect()
    }

    /// Forward pass that also returns the caches needed for
    /// [`GruNetwork::backward`].
    pub fn forward_cached(&self, frames: &[Vec<f32>]) -> (Vec<Vec<f32>>, NetworkCache) {
        let mut cache = NetworkCache::default();
        let mut current: Vec<Vec<f32>> = frames.to_vec();
        for layer in &self.layers {
            let c = layer.forward(&current);
            current = c.steps.iter().map(|s| s.h.clone()).collect();
            cache.layer_caches.push(c);
        }
        cache.head_inputs = current.clone();
        let logits = current.iter().map(|h| self.head.forward(h)).collect();
        (logits, cache)
    }

    /// Per-frame class predictions (argmax of the logits).
    pub fn predict(&self, frames: &[Vec<f32>]) -> Vec<usize> {
        self.forward(frames)
            .iter()
            .map(|l| rtm_tensor::Vector::argmax(l))
            .collect()
    }

    /// Backward pass from per-frame logit gradients.
    pub fn backward(&self, cache: &NetworkCache, dlogits: &[Vec<f32>]) -> NetworkGrads {
        let mut head_grads = DenseGrads::zeros(self.head.input_dim(), self.head.output_dim());
        let mut dh: Vec<Vec<f32>> = dlogits
            .iter()
            .zip(&cache.head_inputs)
            .map(|(dl, h)| self.head.backward(h, dl, &mut head_grads))
            .collect();

        let mut layer_grads: Vec<GruGrads> = Vec::with_capacity(self.layers.len());
        for (layer, lcache) in self.layers.iter().zip(&cache.layer_caches).rev() {
            let (grads, dxs) = layer.backward(lcache, &dh);
            layer_grads.push(grads);
            dh = dxs;
        }
        layer_grads.reverse();
        NetworkGrads {
            layers: layer_grads,
            head: head_grads,
        }
    }

    /// One full training step on a single sequence: forward, loss, BPTT,
    /// optional global-norm clipping, optimizer update.
    ///
    /// # Panics
    ///
    /// Panics if `frames.len() != targets.len()` or a target is out of range.
    pub fn train_step(
        &mut self,
        frames: &[Vec<f32>],
        targets: &[usize],
        opt: &mut dyn Optimizer,
        clip: Option<GradClip>,
    ) -> StepStats {
        let (logits, cache) = self.forward_cached(frames);
        let loss = softmax_cross_entropy(&logits, targets);
        let mut grads = self.backward(&cache, &loss.dlogits);

        if let Some(clip) = clip {
            let sq: f32 = grads.layers.iter().map(GruGrads::squared_norm).sum::<f32>()
                + grads.head.w.as_slice().iter().map(|v| v * v).sum::<f32>()
                + grads.head.b.iter().map(|v| v * v).sum::<f32>();
            let f = clip.scale_factor(sq);
            if f < 1.0 {
                for g in &mut grads.layers {
                    g.scale(f);
                }
                grads.head.w.scale_inplace(f);
                rtm_tensor::Vector::scale(&mut grads.head.b, f);
            }
        }

        self.apply_with_optimizer(&grads, opt);
        StepStats {
            loss: loss.loss,
            accuracy: loss.correct as f32 / targets.len().max(1) as f32,
        }
    }

    /// One training step on a *mini-batch* of sequences: gradients are
    /// accumulated across the batch, averaged, optionally clipped, and
    /// applied in a single optimizer update — lower-variance steps than
    /// per-sequence updates at the same data cost.
    ///
    /// Returns the mean loss over the batch; a no-op returning 0.0 for an
    /// empty batch.
    ///
    /// # Panics
    ///
    /// Panics on frame/target mismatches within any sequence.
    pub fn train_batch(
        &mut self,
        batch: &[(Vec<Vec<f32>>, Vec<usize>)],
        opt: &mut dyn Optimizer,
        clip: Option<GradClip>,
    ) -> f32 {
        if batch.is_empty() {
            return 0.0;
        }
        let mut total_loss = 0.0f32;
        let mut acc: Option<NetworkGrads> = None;
        for (frames, targets) in batch {
            let (logits, cache) = self.forward_cached(frames);
            let loss = softmax_cross_entropy(&logits, targets);
            total_loss += loss.loss;
            let grads = self.backward(&cache, &loss.dlogits);
            match &mut acc {
                None => acc = Some(grads),
                Some(a) => {
                    for (ag, g) in a.layers.iter_mut().zip(&grads.layers) {
                        ag.accumulate(g);
                    }
                    a.head.w.axpy(1.0, &grads.head.w).expect("shape");
                    rtm_tensor::Vector::axpy(1.0, &grads.head.b, &mut a.head.b);
                }
            }
        }
        let mut grads = acc.expect("nonempty batch");
        let scale = 1.0 / batch.len() as f32;
        for g in &mut grads.layers {
            g.scale(scale);
        }
        grads.head.w.scale_inplace(scale);
        rtm_tensor::Vector::scale(&mut grads.head.b, scale);

        if let Some(clip) = clip {
            let sq: f32 = grads.layers.iter().map(GruGrads::squared_norm).sum::<f32>()
                + grads.head.w.as_slice().iter().map(|v| v * v).sum::<f32>()
                + grads.head.b.iter().map(|v| v * v).sum::<f32>();
            let f = clip.scale_factor(sq);
            if f < 1.0 {
                for g in &mut grads.layers {
                    g.scale(f);
                }
                grads.head.w.scale_inplace(f);
                rtm_tensor::Vector::scale(&mut grads.head.b, f);
            }
        }
        self.apply_with_optimizer(&grads, opt);
        total_loss / batch.len() as f32
    }

    /// Applies gradients through an optimizer, assigning each tensor a
    /// stable slot id (layer-major, then head).
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not match the network's shape.
    pub fn apply_with_optimizer(&mut self, grads: &NetworkGrads, opt: &mut dyn Optimizer) {
        assert_eq!(
            grads.layers.len(),
            self.layers.len(),
            "gradient layer count"
        );
        let mut slot = 0usize;
        for (layer, g) in self.layers.iter_mut().zip(&grads.layers) {
            opt.update(slot, layer.w_z.as_mut_slice(), g.w_z.as_slice());
            opt.update(slot + 1, layer.u_z.as_mut_slice(), g.u_z.as_slice());
            opt.update(slot + 2, &mut layer.b_z, &g.b_z);
            opt.update(slot + 3, layer.w_r.as_mut_slice(), g.w_r.as_slice());
            opt.update(slot + 4, layer.u_r.as_mut_slice(), g.u_r.as_slice());
            opt.update(slot + 5, &mut layer.b_r, &g.b_r);
            opt.update(slot + 6, layer.w_n.as_mut_slice(), g.w_n.as_slice());
            opt.update(slot + 7, layer.u_n.as_mut_slice(), g.u_n.as_slice());
            opt.update(slot + 8, &mut layer.b_n, &g.b_n);
            slot += 9;
        }
        opt.update(slot, self.head.w.as_mut_slice(), grads.head.w.as_slice());
        opt.update(slot + 1, &mut self.head.b, &grads.head.b);
    }

    /// Every prunable weight matrix with a stable hierarchical name
    /// (`"layer{i}.{gate}"`), the interface `rtm-pruning` consumes.
    /// The head and all biases are excluded, matching the paper's pruning
    /// scope (RNN weight tensors).
    pub fn prunable_mut(&mut self) -> Vec<(String, &mut Matrix)> {
        let mut out = Vec::new();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            for (name, m) in layer.prunable_mut() {
                out.push((format!("layer{i}.{name}"), m));
            }
        }
        out
    }

    /// Shared-reference variant of [`GruNetwork::prunable_mut`].
    pub fn prunable(&self) -> Vec<(String, &Matrix)> {
        let mut out = Vec::new();
        for (i, layer) in self.layers.iter().enumerate() {
            for (name, m) in layer.prunable() {
                out.push((format!("layer{i}.{name}"), m));
            }
        }
        out
    }

    /// Number of nonzero prunable weights (the "Para. No." column of
    /// Table I counts surviving parameters).
    pub fn nonzero_prunable_params(&self) -> usize {
        self.prunable().iter().map(|(_, m)| m.count_nonzero()).sum()
    }

    /// Total prunable weight count (dense).
    pub fn total_prunable_params(&self) -> usize {
        self.prunable().iter().map(|(_, m)| m.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{Adam, Sgd};

    fn tiny_cfg() -> NetworkConfig {
        NetworkConfig {
            input_dim: 4,
            hidden_dims: vec![8, 8],
            num_classes: 3,
        }
    }

    #[test]
    fn forward_shapes() {
        let net = GruNetwork::new(&tiny_cfg(), 1);
        let frames = vec![vec![0.1; 4]; 7];
        let logits = net.forward(&frames);
        assert_eq!(logits.len(), 7);
        assert!(logits.iter().all(|l| l.len() == 3));
    }

    #[test]
    #[should_panic(expected = "at least one GRU layer")]
    fn empty_layers_panics() {
        GruNetwork::new(
            &NetworkConfig {
                input_dim: 2,
                hidden_dims: vec![],
                num_classes: 2,
            },
            0,
        );
    }

    #[test]
    fn num_params_adds_up() {
        let net = GruNetwork::new(&tiny_cfg(), 1);
        // Layer 0: 3*(8*4 + 8*8 + 8), layer 1: 3*(8*8+8*8+8), head: 3*8+3
        let want = 3 * (32 + 64 + 8) + 3 * (64 + 64 + 8) + (24 + 3);
        assert_eq!(net.num_params(), want);
    }

    #[test]
    fn prunable_names_stable() {
        let mut net = GruNetwork::new(&tiny_cfg(), 1);
        let names: Vec<String> = net.prunable_mut().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), 12); // 2 layers x 6 matrices
        assert_eq!(names[0], "layer0.w_z");
        assert_eq!(names[11], "layer1.u_n");
        let ro: Vec<String> = net.prunable().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ro);
    }

    #[test]
    fn nonzero_counting() {
        let mut net = GruNetwork::new(&tiny_cfg(), 1);
        let total = net.total_prunable_params();
        assert_eq!(net.nonzero_prunable_params(), total); // Xavier never exactly 0
        let one_layer = GruNetwork::new(
            &NetworkConfig {
                input_dim: 3,
                hidden_dims: vec![6],
                num_classes: 2,
            },
            1,
        );
        // 3 gates x (6x3 input + 6x6 recurrent) weights; biases and head excluded.
        assert_eq!(one_layer.total_prunable_params(), 3 * (18 + 36));
        for (_, m) in net.prunable_mut() {
            m.scale_inplace(0.0);
        }
        assert_eq!(net.nonzero_prunable_params(), 0);
    }

    /// End-to-end training must reduce loss on a learnable toy problem:
    /// class = which half of the input is active.
    #[test]
    fn training_reduces_loss() {
        let cfg = NetworkConfig {
            input_dim: 4,
            hidden_dims: vec![12],
            num_classes: 2,
        };
        let mut net = GruNetwork::new(&cfg, 3);
        let mut opt = Adam::new(0.01);
        let seq_a: Vec<Vec<f32>> = (0..6).map(|_| vec![1.0, 1.0, 0.0, 0.0]).collect();
        let seq_b: Vec<Vec<f32>> = (0..6).map(|_| vec![0.0, 0.0, 1.0, 1.0]).collect();
        let ta = vec![0usize; 6];
        let tb = vec![1usize; 6];

        let first = net.train_step(&seq_a, &ta, &mut opt, None).loss
            + net.train_step(&seq_b, &tb, &mut opt, None).loss;
        assert!(first.is_finite() && first > 0.0, "first loss {first}");
        for _ in 0..60 {
            net.train_step(&seq_a, &ta, &mut opt, None);
            net.train_step(&seq_b, &tb, &mut opt, None);
        }
        let last = {
            let (la, _) = net.forward_cached(&seq_a);
            let (lb, _) = net.forward_cached(&seq_b);
            crate::loss::softmax_cross_entropy(&la, &ta).loss
                + crate::loss::softmax_cross_entropy(&lb, &tb).loss
        };
        assert!(last < first * 0.2, "loss must fall: {first} -> {last}");
        assert_eq!(net.predict(&seq_a), ta);
        assert_eq!(net.predict(&seq_b), tb);
    }

    #[test]
    fn batch_training_matches_task() {
        let cfg = NetworkConfig {
            input_dim: 4,
            hidden_dims: vec![12],
            num_classes: 2,
        };
        let mut net = GruNetwork::new(&cfg, 3);
        let mut opt = Adam::new(0.01);
        let batch = vec![
            (
                (0..6).map(|_| vec![1.0, 1.0, 0.0, 0.0]).collect::<Vec<_>>(),
                vec![0usize; 6],
            ),
            (
                (0..6).map(|_| vec![0.0, 0.0, 1.0, 1.0]).collect::<Vec<_>>(),
                vec![1usize; 6],
            ),
        ];
        let first = net.train_batch(&batch, &mut opt, None);
        for _ in 0..80 {
            net.train_batch(&batch, &mut opt, Some(GradClip::new(5.0)));
        }
        let last = net.train_batch(&batch, &mut opt, None);
        assert!(
            last < first * 0.2,
            "batch loss must fall: {first} -> {last}"
        );
        assert_eq!(net.predict(&batch[0].0), batch[0].1);
        assert_eq!(net.predict(&batch[1].0), batch[1].1);
        // Empty batch is a no-op.
        assert_eq!(net.train_batch(&[], &mut opt, None), 0.0);
    }

    #[test]
    fn clipping_keeps_training_stable() {
        let cfg = tiny_cfg();
        let mut net = GruNetwork::new(&cfg, 5);
        let mut opt = Sgd::new(0.5); // aggressive LR
        let frames = vec![vec![2.0, -2.0, 2.0, -2.0]; 10];
        let targets = vec![1usize; 10];
        for _ in 0..20 {
            let stats = net.train_step(&frames, &targets, &mut opt, Some(GradClip::new(1.0)));
            assert!(
                stats.loss.is_finite(),
                "loss must stay finite under clipping"
            );
        }
    }

    /// Stacked-network gradient check through both layers and the head.
    #[test]
    fn network_gradient_check() {
        let cfg = NetworkConfig {
            input_dim: 3,
            hidden_dims: vec![4, 4],
            num_classes: 2,
        };
        let net = GruNetwork::new(&cfg, 21);
        let frames = vec![vec![0.5, -0.3, 0.2], vec![0.1, 0.4, -0.2]];
        let targets = vec![0usize, 1];

        let loss_of = |n: &GruNetwork| -> f32 {
            let (logits, _) = n.forward_cached(&frames);
            softmax_cross_entropy(&logits, &targets).loss
        };

        let (logits, cache) = net.forward_cached(&frames);
        let l = softmax_cross_entropy(&logits, &targets);
        let grads = net.backward(&cache, &l.dlogits);

        let eps = 1e-3f32;
        // Spot-check: layer 0 w_z, layer 1 u_n, head w.
        for &(layer, which, r, c) in &[(0usize, 0usize, 0usize, 0usize), (1, 1, 2, 3)] {
            #[allow(clippy::type_complexity)]
            let (g, get): (f32, Box<dyn Fn(&mut GruNetwork) -> &mut f32>) = match which {
                0 => (
                    grads.layers[layer].w_z[(r, c)],
                    Box::new(move |n: &mut GruNetwork| &mut n.layers[layer].w_z[(r, c)]),
                ),
                _ => (
                    grads.layers[layer].u_n[(r, c)],
                    Box::new(move |n: &mut GruNetwork| &mut n.layers[layer].u_n[(r, c)]),
                ),
            };
            let mut plus = net.clone();
            *get(&mut plus) += eps;
            let mut minus = net.clone();
            *get(&mut minus) -= eps;
            let fd = (loss_of(&plus) - loss_of(&minus)) / (2.0 * eps);
            assert!(
                (fd - g).abs() < 2e-2 * (1.0 + fd.abs()),
                "layer{layer} which{which}: {fd} vs {g}"
            );
        }
        // Head weight check.
        let mut plus = net.clone();
        plus.head.w[(0, 0)] += eps;
        let mut minus = net.clone();
        minus.head.w[(0, 0)] -= eps;
        let fd = (loss_of(&plus) - loss_of(&minus)) / (2.0 * eps);
        assert!((fd - grads.head.w[(0, 0)]).abs() < 1e-2);
    }
}

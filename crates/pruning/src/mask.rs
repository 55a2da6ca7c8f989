//! Named binary pruning masks.
//!
//! A [`MaskSet`] maps tensor names (the stable names from
//! [`GruNetwork::prunable_mut`](rtm_rnn::GruNetwork::prunable_mut)) to 0/1
//! matrices. Masks are the contract between the pruning algorithms and the
//! masked-retraining loop: after every optimizer step the mask is re-applied
//! so pruned weights stay exactly zero.

use rtm_rnn::GruNetwork;
use rtm_tensor::Matrix;
use std::collections::BTreeMap;

/// A collection of named binary masks (1.0 = keep, 0.0 = pruned).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MaskSet {
    masks: BTreeMap<String, Matrix>,
}

impl MaskSet {
    /// Creates an empty set.
    pub fn new() -> MaskSet {
        MaskSet::default()
    }

    /// All-ones masks matching every prunable tensor of `net`.
    pub fn ones_like(net: &GruNetwork) -> MaskSet {
        let mut set = MaskSet::new();
        for (name, m) in net.prunable() {
            set.insert(name, Matrix::filled(m.rows(), m.cols(), 1.0));
        }
        set
    }

    /// Derives masks from the current support of every prunable tensor
    /// (nonzero → 1).
    pub fn from_support(net: &GruNetwork) -> MaskSet {
        let mut set = MaskSet::new();
        for (name, m) in net.prunable() {
            set.insert(name, m.map(|v| if v != 0.0 { 1.0 } else { 0.0 }));
        }
        set
    }

    /// Inserts (or replaces) a mask.
    ///
    /// # Panics
    ///
    /// Panics if the matrix contains values other than 0.0 and 1.0.
    pub fn insert(&mut self, name: impl Into<String>, mask: Matrix) {
        assert!(
            mask.as_slice().iter().all(|&v| v == 0.0 || v == 1.0),
            "mask entries must be 0 or 1"
        );
        self.masks.insert(name.into(), mask);
    }

    /// Retrieves the mask for `name`.
    pub fn get(&self, name: &str) -> Option<&Matrix> {
        self.masks.get(name)
    }

    /// Number of masks.
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// Iterates over `(name, mask)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Matrix)> {
        self.masks.iter()
    }

    /// Zeroes every masked-out weight of `net` in place. Tensors without a
    /// mask are left untouched.
    ///
    /// # Panics
    ///
    /// Panics if a mask's shape does not match its tensor.
    pub fn apply(&self, net: &mut GruNetwork) {
        for (name, w) in net.prunable_mut() {
            if let Some(mask) = self.masks.get(&name) {
                assert_eq!(mask.shape(), w.shape(), "mask shape mismatch for {name}");
                for (wi, mi) in w.as_mut_slice().iter_mut().zip(mask.as_slice()) {
                    *wi *= mi;
                }
            }
        }
    }

    /// Element-wise AND with another mask set: a weight survives only if
    /// both masks keep it. Missing tensors are treated as all-ones.
    pub fn intersect(&self, other: &MaskSet) -> MaskSet {
        let mut out = self.clone();
        for (name, m2) in &other.masks {
            match out.masks.get_mut(name) {
                Some(m1) => {
                    assert_eq!(m1.shape(), m2.shape(), "mask shape mismatch for {name}");
                    let merged = m1.hadamard(m2).expect("shapes checked");
                    *m1 = merged;
                }
                None => {
                    out.masks.insert(name.clone(), m2.clone());
                }
            }
        }
        out
    }

    /// Total number of kept (1) entries across all masks.
    pub fn kept(&self) -> usize {
        self.masks
            .values()
            .map(|m| m.as_slice().iter().filter(|&&v| v == 1.0).count())
            .sum()
    }

    /// Total number of entries across all masks.
    pub fn total(&self) -> usize {
        self.masks.values().map(Matrix::len).sum()
    }

    /// Achieved compression rate `total / kept` (∞ when everything pruned).
    pub fn compression_rate(&self) -> f64 {
        let kept = self.kept();
        if kept == 0 {
            f64::INFINITY
        } else {
            self.total() as f64 / kept as f64
        }
    }
}

impl FromIterator<(String, Matrix)> for MaskSet {
    fn from_iter<I: IntoIterator<Item = (String, Matrix)>>(iter: I) -> MaskSet {
        let mut set = MaskSet::new();
        for (name, mask) in iter {
            set.insert(name, mask);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_rnn::{GruNetwork, NetworkConfig};

    fn tiny_net() -> GruNetwork {
        GruNetwork::new(
            &NetworkConfig {
                input_dim: 3,
                hidden_dims: vec![4],
                num_classes: 2,
            },
            1,
        )
    }

    #[test]
    fn ones_like_covers_all_prunables() {
        let net = tiny_net();
        let set = MaskSet::ones_like(&net);
        assert_eq!(set.len(), 6);
        assert_eq!(set.kept(), set.total());
        assert_eq!(set.compression_rate(), 1.0);
    }

    #[test]
    fn apply_zeroes_masked_weights() {
        let mut net = tiny_net();
        let mut set = MaskSet::ones_like(&net);
        // Zero out the whole update gate input weights.
        let shape = net.prunable()[0].1.shape();
        set.insert("layer0.w_z", Matrix::zeros(shape.0, shape.1));
        set.apply(&mut net);
        assert_eq!(net.layers[0].w_z.count_nonzero(), 0);
        assert!(
            net.layers[0].u_z.count_nonzero() > 0,
            "other tensors untouched"
        );
    }

    #[test]
    fn from_support_reflects_zeros() {
        let mut net = tiny_net();
        net.layers[0].w_r.scale_inplace(0.0);
        let set = MaskSet::from_support(&net);
        let m = set.get("layer0.w_r").unwrap();
        assert_eq!(m.count_nonzero(), 0);
        let m = set.get("layer0.w_z").unwrap();
        assert_eq!(m.count_nonzero(), m.len());
    }

    #[test]
    #[should_panic(expected = "mask entries must be 0 or 1")]
    fn non_binary_mask_rejected() {
        let mut set = MaskSet::new();
        set.insert("x", Matrix::filled(1, 1, 0.5));
    }

    #[test]
    fn intersect_is_and() {
        let mut a = MaskSet::new();
        a.insert("t", Matrix::from_rows(&[&[1.0, 1.0, 0.0]]).unwrap());
        let mut b = MaskSet::new();
        b.insert("t", Matrix::from_rows(&[&[1.0, 0.0, 0.0]]).unwrap());
        b.insert("only_b", Matrix::from_rows(&[&[1.0]]).unwrap());
        let c = a.intersect(&b);
        assert_eq!(c.get("t").unwrap().count_nonzero(), 1);
        assert!(c.get("only_b").is_some());
    }

    #[test]
    fn compression_rate_math() {
        let mut set = MaskSet::new();
        set.insert("t", Matrix::from_rows(&[&[1.0, 0.0, 0.0, 0.0]]).unwrap());
        assert_eq!(set.compression_rate(), 4.0);
        let mut all_pruned = MaskSet::new();
        all_pruned.insert("t", Matrix::zeros(2, 2));
        assert!(all_pruned.compression_rate().is_infinite());
    }

    #[test]
    fn from_iterator_collects() {
        let set: MaskSet = vec![("a".to_string(), Matrix::filled(1, 2, 1.0))]
            .into_iter()
            .collect();
        assert_eq!(set.len(), 1);
        assert!(!set.is_empty());
        assert_eq!(set.iter().count(), 1);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::projection::{
        BankBalanced, BspColumnBlock, ColumnPrune, PatternMask, Projection, RowPrune,
        UnstructuredMagnitude,
    };

    /// Mask algebra: intersection is commutative, idempotent, and
    /// monotone (never keeps more than either operand).
    #[test]
    fn prop_intersection_algebra() {
        for seed in 0u64..200 {
            let mut rng = rtm_tensor::init::rng_from_seed(seed);
            let w = rtm_tensor::init::uniform(8, 8, -1.0, 1.0, &mut rng);
            let pa: Box<dyn Projection> = Box::new(UnstructuredMagnitude::new(0.5));
            let pb: Box<dyn Projection> = Box::new(RowPrune::new(0.5));
            let mut a = MaskSet::new();
            a.insert("t", pa.mask(&w).expect("mask-style"));
            let mut b = MaskSet::new();
            b.insert("t", pb.mask(&w).expect("mask-style"));

            let ab = a.intersect(&b);
            let ba = b.intersect(&a);
            assert_eq!(ab.get("t"), ba.get("t"), "seed {seed}: commutative");
            let abb = ab.intersect(&b);
            assert_eq!(abb.get("t"), ab.get("t"), "seed {seed}: idempotent");
            assert!(ab.kept() <= a.kept().min(b.kept()), "seed {seed}: monotone");
        }
    }

    /// Every mask-style projection's mask applied to the weights equals
    /// the projection itself (mask/project coherence), for random
    /// inputs.
    #[test]
    fn prop_mask_equals_projection_support() {
        for seed in 0u64..150 {
            let mut rng = rtm_tensor::init::rng_from_seed(seed);
            let w = rtm_tensor::init::uniform(8, 8, -1.0, 1.0, &mut rng);
            let projections: Vec<Box<dyn Projection>> = vec![
                Box::new(UnstructuredMagnitude::new(0.3)),
                Box::new(BspColumnBlock::new(2, 2, 0.5)),
                Box::new(RowPrune::new(0.5)),
                Box::new(ColumnPrune::new(0.5)),
                Box::new(BankBalanced::new(2, 0.5)),
                Box::new(PatternMask::new(4, 2, 6)),
            ];
            for p in &projections {
                let z = p.project(&w);
                let mask = p.mask(&w).expect("mask-style");
                let masked = w.hadamard(&mask).expect("same shape");
                assert_eq!(
                    &masked,
                    &z,
                    "seed {seed}: {} mask/project coherence",
                    p.name()
                );
            }
        }
    }

    /// Applying a mask is idempotent on the network and exactly matches
    /// the mask's kept count.
    #[test]
    fn prop_apply_idempotent() {
        use rtm_rnn::{GruNetwork, NetworkConfig};
        for seed in 0u64..100 {
            let mut net = GruNetwork::new(
                &NetworkConfig {
                    input_dim: 4,
                    hidden_dims: vec![8],
                    num_classes: 2,
                },
                seed,
            );
            let proj = UnstructuredMagnitude::new(0.4);
            let mut set = MaskSet::new();
            for (name, w) in net.prunable() {
                set.insert(name, proj.mask(w).expect("mask-style"));
            }
            set.apply(&mut net);
            let after_once = net.nonzero_prunable_params();
            set.apply(&mut net);
            assert_eq!(net.nonzero_prunable_params(), after_once, "seed {seed}");
            assert_eq!(after_once, set.kept(), "seed {seed}");
        }
    }
}

#![warn(missing_docs)]

//! # rtm-rnn
//!
//! Recurrent-network substrate: the GRU cell with full
//! backpropagation-through-time, a dense classifier head, losses and
//! optimizers.
//!
//! The paper evaluates a 2-layer GRU (Fig. 1 gives the cell; §V-A the
//! topology) trained with PyTorch-Kaldi. This crate is the from-scratch
//! replacement: everything needed to train that network — and to *retrain*
//! it under ADMM masks, which is what `rtm-pruning` does — in pure Rust.
//!
//! * [`gru`] — the GRU cell and layer (forward + BPTT);
//! * [`dense`] — the softmax classifier head;
//! * [`model`] — [`model::GruNetwork`], the 2-layer-GRU + head stack of §V-A;
//! * [`loss`] — frame-level softmax cross-entropy;
//! * [`optimizer`] — SGD and Adam (the paper's ADMM argument against C-LSTM
//!   hinges on Adam being available), plus global-norm gradient clipping.
//!
//! # Example
//!
//! ```
//! use rtm_rnn::model::{GruNetwork, NetworkConfig};
//!
//! let cfg = NetworkConfig { input_dim: 8, hidden_dims: vec![16, 16], num_classes: 5 };
//! let net = GruNetwork::new(&cfg, 42);
//! let frames = vec![vec![0.1; 8]; 10];
//! let logits = net.forward(&frames);
//! assert_eq!(logits.len(), 10);
//! assert_eq!(logits[0].len(), 5);
//! ```

pub mod dense;
pub mod gru;
pub mod loss;
pub mod model;
pub mod optimizer;

pub use model::{GruNetwork, NetworkConfig};
pub use optimizer::{Adam, GradClip, Optimizer, Sgd};

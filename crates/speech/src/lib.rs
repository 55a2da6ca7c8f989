#![warn(missing_docs)]

//! # rtm-speech
//!
//! A synthetic phone-recognition task standing in for TIMIT.
//!
//! TIMIT is proprietary LDC data, so per DESIGN.md §2 the accuracy
//! experiments run on a generated corpus that mirrors its structure:
//!
//! * the folded **39-phone** inventory ([`phones`]);
//! * **630 speakers in 8 dialect regions** (scaled down by default), each
//!   speaker perturbing the per-phone acoustic prototypes ([`corpus`]);
//! * phonotactically plausible sentences from a seeded Markov chain, with
//!   per-phone durations and coarticulation ramps between phones;
//! * **phone error rate (PER)** scoring via edit distance on collapsed
//!   frame predictions ([`per`]), the metric of Table I;
//! * a training/evaluation harness ([`task`]) that trains the
//!   [`rtm_rnn::GruNetwork`] frame classifier and reports PER.
//!
//! What transfers from TIMIT and what does not: *PER degradation versus
//! compression rate per pruning scheme* is driven by how much expressive
//! freedom each mask family leaves the model, which this task exercises the
//! same way; absolute PER values are easier than real speech and are not
//! comparable to the paper's 18.8%.
//!
//! # Example
//!
//! ```
//! use rtm_speech::corpus::{CorpusConfig, SpeechCorpus};
//!
//! let corpus = SpeechCorpus::generate(&CorpusConfig::tiny(), 42);
//! assert!(!corpus.utterances.is_empty());
//! let utt = &corpus.utterances[0];
//! assert_eq!(utt.frames.len(), utt.labels.len());
//! ```

pub mod corpus;
pub mod ctc;
pub mod decode;
pub mod features;
pub mod per;
pub mod phones;
pub mod task;

pub use corpus::{CorpusConfig, SpeechCorpus, Utterance};
pub use ctc::{blank_for, CtcBeamDecoder, CtcGreedyDecoder};
pub use decode::{decode_offline, ArgmaxDecoder, Decoder, Hypothesis, ViterbiDecoder};
pub use features::{add_deltas, add_deltas_2, CmvnStats};
pub use per::{edit_distance, phone_error_rate, PerReport};
pub use task::SpeechTask;

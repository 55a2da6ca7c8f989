//! Sequence decoding beyond frame-wise argmax, behind the [`Decoder`] API.
//!
//! All decoders — frame-argmax ([`ArgmaxDecoder`]), Viterbi smoothing
//! ([`ViterbiDecoder`]), and the CTC family ([`crate::ctc`]) — implement
//! the unified incremental [`Decoder`] trait; [`decode_offline`] runs any
//! of them over a whole utterance.
//!
//! The trait is *streaming-first*: frames are pushed one at a time and the
//! decoder emits a partial [`Hypothesis`] whenever it changes, so the same
//! object serves both offline scoring (push everything, then
//! [`Decoder::finish`]) and live serving (emit partials + endpoint events as
//! audio arrives). Decoders are deterministic functions of the logits
//! sequence: pushing frames one by one yields bit-identical hypotheses to
//! decoding the same logits offline, which is what lets the serve path and
//! the batch scorer share golden tests.

use rtm_tensor::activations::softmax_slice;

/// A decoded (partial or final) symbol-sequence hypothesis.
#[derive(Debug, Clone, PartialEq)]
pub struct Hypothesis {
    /// Decoded symbol sequence (collapsed; blank-free for CTC decoders).
    pub symbols: Vec<usize>,
    /// Decoder-specific log-probability score (`0.0` where the decoder
    /// carries no probability model, e.g. [`ArgmaxDecoder`]).
    pub score: f32,
    /// Frames consumed so far.
    pub frames: usize,
    /// Whether the endpointing heuristic currently considers the utterance
    /// finished (trailing-blank run exceeded the configured threshold).
    pub endpoint: bool,
    /// `true` only for the hypothesis returned by [`Decoder::finish`].
    pub is_final: bool,
}

impl Hypothesis {
    /// An empty, zero-frame hypothesis.
    pub fn empty() -> Self {
        Hypothesis {
            symbols: Vec::new(),
            score: 0.0,
            frames: 0,
            endpoint: false,
            is_final: false,
        }
    }
}

/// Incremental utterance decoder over per-frame class logits.
///
/// Contract: for a fixed logits sequence the emitted hypotheses are a pure
/// function of the frames pushed so far — no wall-clock or iteration-order
/// dependence — so streaming decode is bit-identical to offline decode.
pub trait Decoder {
    /// Feeds one frame of per-class logits.
    ///
    /// Returns the updated partial hypothesis when it changed since the
    /// last emission (new symbols, or the endpoint flag flipped); `None`
    /// when the partial result is unchanged. Empty frames are ignored.
    fn push_frame(&mut self, logits: &[f32]) -> Option<Hypothesis>;

    /// Finalizes the utterance and returns the final hypothesis.
    fn finish(&mut self) -> Hypothesis;

    /// Clears all streaming state, ready for a new utterance.
    fn reset(&mut self);
}

/// Decodes a full utterance offline through any [`Decoder`].
///
/// Resets the decoder, pushes every frame, and finalizes. The result is
/// bit-identical to streaming the same frames through `push_frame`.
pub fn decode_offline<D: Decoder + ?Sized>(decoder: &mut D, logits: &[Vec<f32>]) -> Hypothesis {
    decoder.reset();
    for frame in logits {
        let _ = decoder.push_frame(frame);
    }
    decoder.finish()
}

/// Trailing-blank endpointing heuristic shared by the streaming decoders.
///
/// Fires when `threshold` consecutive frames have the blank (silence) class
/// as their argmax; clears as soon as a non-blank frame arrives.
#[derive(Debug, Clone)]
pub(crate) struct Endpointer {
    blank: usize,
    threshold: usize,
    run: usize,
}

impl Endpointer {
    pub(crate) fn new(blank: usize, threshold: usize) -> Self {
        assert!(threshold > 0, "endpoint threshold must be positive");
        Endpointer {
            blank,
            threshold,
            run: 0,
        }
    }

    /// Observes one frame's argmax class; returns the current endpoint state.
    pub(crate) fn observe(&mut self, argmax: usize) -> bool {
        if argmax == self.blank {
            self.run += 1;
        } else {
            self.run = 0;
        }
        self.run >= self.threshold
    }

    pub(crate) fn reset(&mut self) {
        self.run = 0;
    }
}

/// NaN-safe argmax: first index of the maximum under total ordering; `0`
/// when every comparison fails (all-NaN frames never panic, per the fuzz
/// contract).
pub(crate) fn frame_argmax(frame: &[f32]) -> usize {
    let mut best = 0usize;
    for (i, &v) in frame.iter().enumerate().skip(1) {
        if v.total_cmp(&frame[best]) == std::cmp::Ordering::Greater {
            best = i;
        }
    }
    best
}

/// The legacy frame-argmax path as a [`Decoder`]: collapse consecutive
/// identical argmax frames, exactly like
/// [`crate::per::collapse_frames`] over per-frame argmax predictions.
///
/// Carries no probability model (`score` stays `0.0`). Optional trailing-
/// silence endpointing via [`ArgmaxDecoder::with_endpointing`].
#[derive(Debug, Clone)]
pub struct ArgmaxDecoder {
    symbols: Vec<usize>,
    frames: usize,
    endpointer: Option<Endpointer>,
    emitted: (usize, bool),
}

impl ArgmaxDecoder {
    /// A plain collapse decoder with no endpointing.
    pub fn new() -> Self {
        ArgmaxDecoder {
            symbols: Vec::new(),
            frames: 0,
            endpointer: None,
            emitted: (0, false),
        }
    }

    /// Enables endpointing: fire after `trailing_blanks` consecutive frames
    /// whose argmax is `blank`.
    pub fn with_endpointing(mut self, blank: usize, trailing_blanks: usize) -> Self {
        self.endpointer = Some(Endpointer::new(blank, trailing_blanks));
        self
    }

    fn hypothesis(&self, endpoint: bool, is_final: bool) -> Hypothesis {
        Hypothesis {
            symbols: self.symbols.clone(),
            score: 0.0,
            frames: self.frames,
            endpoint,
            is_final,
        }
    }
}

impl Default for ArgmaxDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Decoder for ArgmaxDecoder {
    fn push_frame(&mut self, logits: &[f32]) -> Option<Hypothesis> {
        if logits.is_empty() {
            return None;
        }
        let c = frame_argmax(logits);
        self.frames += 1;
        if self.symbols.last() != Some(&c) {
            self.symbols.push(c);
        }
        let endpoint = match &mut self.endpointer {
            Some(e) => e.observe(c),
            None => false,
        };
        if (self.symbols.len(), endpoint) != self.emitted {
            self.emitted = (self.symbols.len(), endpoint);
            Some(self.hypothesis(endpoint, false))
        } else {
            None
        }
    }

    fn finish(&mut self) -> Hypothesis {
        self.hypothesis(self.emitted.1, true)
    }

    fn reset(&mut self) {
        self.symbols.clear();
        self.frames = 0;
        self.emitted = (0, false);
        if let Some(e) = &mut self.endpointer {
            e.reset();
        }
    }
}

/// First-order Viterbi smoothing as a [`Decoder`].
///
/// The algorithm needs the whole utterance (the best path can revise
/// earlier frames), so this decoder buffers frames and never emits
/// partials: `push_frame` always returns `None` and the full decode
/// happens in [`Decoder::finish`]. Use the CTC decoders when streaming
/// partials matter.
#[derive(Debug, Clone)]
pub struct ViterbiDecoder {
    switch_penalty: f32,
    buffer: Vec<Vec<f32>>,
}

impl ViterbiDecoder {
    /// Creates a decoder with the given phone-switch penalty.
    ///
    /// # Panics
    ///
    /// Panics if `switch_penalty` is negative.
    pub fn new(switch_penalty: f32) -> Self {
        assert!(switch_penalty >= 0.0, "penalty must be non-negative");
        ViterbiDecoder {
            switch_penalty,
            buffer: Vec::new(),
        }
    }
}

impl Decoder for ViterbiDecoder {
    fn push_frame(&mut self, logits: &[f32]) -> Option<Hypothesis> {
        if !logits.is_empty() {
            self.buffer.push(logits.to_vec());
        }
        None
    }

    fn finish(&mut self) -> Hypothesis {
        let (symbols, score) = viterbi_path(&self.buffer, self.switch_penalty);
        Hypothesis {
            symbols,
            score,
            frames: self.buffer.len(),
            endpoint: false,
            is_final: true,
        }
    }

    fn reset(&mut self) {
        self.buffer.clear();
    }
}

/// The Viterbi DP over `(frame, phone)` — the standard "HMM with
/// self-loops" smoothing every Kaldi-style recognizer applies. Returns the
/// collapsed best path and its log-probability score.
fn viterbi_path(logits: &[Vec<f32>], switch_penalty: f32) -> (Vec<usize>, f32) {
    if logits.is_empty() {
        return (Vec::new(), 0.0);
    }
    let classes = logits[0].len();
    assert!(classes > 0, "need at least one class");

    // Log-probabilities per frame.
    let log_probs: Vec<Vec<f32>> = logits
        .iter()
        .map(|frame| {
            assert_eq!(frame.len(), classes, "inconsistent class count");
            let mut p = frame.clone();
            softmax_slice(&mut p);
            p.into_iter().map(|v| v.max(1e-12).ln()).collect()
        })
        .collect();

    // DP over (frame, phone).
    let mut score = log_probs[0].clone();
    let mut back: Vec<Vec<usize>> = Vec::with_capacity(log_probs.len());
    back.push((0..classes).collect());
    for frame in &log_probs[1..] {
        // Best predecessor overall (for switch transitions).
        let mut best_prev = 0usize;
        for (c, &v) in score.iter().enumerate() {
            if v > score[best_prev] {
                best_prev = c;
            }
        }
        let mut new_score = vec![0.0f32; classes];
        let mut pointers = vec![0usize; classes];
        for c in 0..classes {
            // Stay in c, or switch from the best other phone with penalty.
            let stay = score[c];
            let switch = score[best_prev] - switch_penalty;
            if stay >= switch || best_prev == c {
                new_score[c] = stay + frame[c];
                pointers[c] = c;
            } else {
                new_score[c] = switch + frame[c];
                pointers[c] = best_prev;
            }
        }
        score = new_score;
        back.push(pointers);
    }

    // Backtrack.
    let mut best = 0usize;
    for (c, &v) in score.iter().enumerate() {
        if v > score[best] {
            best = c;
        }
    }
    let best_score = score[best];
    let mut path = vec![best; log_probs.len()];
    for t in (1..log_probs.len()).rev() {
        path[t - 1] = back[t][path[t]];
    }
    (crate::per::collapse_frames(&path), best_score)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The collapsed best path of a [`ViterbiDecoder`] over a whole utterance.
    fn viterbi_decode(logits: &[Vec<f32>], switch_penalty: f32) -> Vec<usize> {
        decode_offline(&mut ViterbiDecoder::new(switch_penalty), logits).symbols
    }

    /// Logits strongly favouring one class per frame.
    fn clean_logits(labels: &[usize], classes: usize) -> Vec<Vec<f32>> {
        labels
            .iter()
            .map(|&l| {
                (0..classes)
                    .map(|c| if c == l { 5.0 } else { 0.0 })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn clean_input_decodes_exactly() {
        let logits = clean_logits(&[0, 0, 1, 1, 2, 2], 3);
        assert_eq!(viterbi_decode(&logits, 2.0), vec![0, 1, 2]);
        // Zero penalty equals argmax collapsing.
        assert_eq!(viterbi_decode(&logits, 0.0), vec![0, 1, 2]);
    }

    #[test]
    fn penalty_suppresses_single_frame_glitch() {
        // Frames: 0 0 0 [glitch->1] 0 0 — argmax inserts phone 1.
        let mut logits = clean_logits(&[0, 0, 0, 0, 0, 0], 3);
        logits[3] = vec![0.0, 1.5, 0.0]; // weak glitch toward 1
        let naive = crate::per::collapse_frames(
            &logits
                .iter()
                .map(|f| rtm_tensor::Vector::argmax(f))
                .collect::<Vec<_>>(),
        );
        assert_eq!(naive, vec![0, 1, 0], "argmax inserts the glitch");
        let smoothed = viterbi_decode(&logits, 3.0);
        assert_eq!(smoothed, vec![0], "Viterbi smooths it away");
    }

    #[test]
    fn strong_evidence_survives_penalty() {
        // A genuine phone change with strong evidence must not be smoothed.
        let logits = clean_logits(&[0, 0, 0, 1, 1, 1], 3);
        assert_eq!(viterbi_decode(&logits, 4.0), vec![0, 1]);
    }

    #[test]
    fn empty_input() {
        assert!(viterbi_decode(&[], 1.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "penalty must be non-negative")]
    fn negative_penalty_rejected() {
        viterbi_decode(&[vec![0.0]], -1.0);
    }

    #[test]
    fn argmax_decoder_matches_collapse_frames() {
        let logits = clean_logits(&[0, 0, 1, 1, 1, 0, 2, 2], 3);
        let frame_preds: Vec<usize> = logits.iter().map(|f| frame_argmax(f)).collect();
        let legacy = crate::per::collapse_frames(&frame_preds);
        let hyp = decode_offline(&mut ArgmaxDecoder::new(), &logits);
        assert_eq!(hyp.symbols, legacy);
        assert_eq!(hyp.frames, logits.len());
        assert!(hyp.is_final);
    }

    #[test]
    fn argmax_decoder_emits_only_on_change() {
        let logits = clean_logits(&[0, 0, 0, 1, 1], 3);
        let mut d = ArgmaxDecoder::new();
        let emits: Vec<bool> = logits.iter().map(|f| d.push_frame(f).is_some()).collect();
        assert_eq!(emits, vec![true, false, false, true, false]);
    }

    #[test]
    fn argmax_endpointing_fires_on_trailing_silence() {
        // blank = 2; two trailing blank frames fire at threshold 2.
        let logits = clean_logits(&[0, 0, 2, 2, 2], 3);
        let mut d = ArgmaxDecoder::new().with_endpointing(2, 2);
        let mut endpoint_at = None;
        for (t, f) in logits.iter().enumerate() {
            if let Some(h) = d.push_frame(f) {
                if h.endpoint {
                    endpoint_at.get_or_insert(t);
                }
            }
        }
        assert_eq!(endpoint_at, Some(3), "fires on the 2nd blank frame");
        assert!(d.finish().endpoint);
    }

    #[test]
    fn viterbi_decoder_is_offline_only() {
        let logits = clean_logits(&[0, 0, 1], 3);
        let mut d = ViterbiDecoder::new(2.0);
        for f in &logits {
            assert!(d.push_frame(f).is_none(), "viterbi emits no partials");
        }
        let hyp = d.finish();
        assert_eq!(hyp.symbols, vec![0, 1]);
        assert!(hyp.is_final);
        // Streaming by hand and `decode_offline` agree exactly.
        assert_eq!(hyp, decode_offline(&mut d, &logits));
    }

    #[test]
    fn reset_restarts_cleanly() {
        let logits = clean_logits(&[0, 1, 2], 3);
        let mut d = ArgmaxDecoder::new();
        let first = decode_offline(&mut d, &logits);
        let second = decode_offline(&mut d, &logits);
        assert_eq!(first, second, "reset makes decodes independent");
    }

    #[test]
    fn improves_per_on_noisy_synthetic_task() {
        // Train a small model on the synthetic task, add decision noise by
        // keeping training short, and compare naive vs Viterbi PER.
        use crate::corpus::CorpusConfig;
        use crate::per::PerReport;
        use crate::task::SpeechTask;
        let cfg = CorpusConfig {
            speakers: 8,
            sentences_per_speaker: 3,
            noise: 0.55, // noisy enough for glitchy frames
            ..CorpusConfig::tiny()
        };
        let task = SpeechTask::new(&cfg, 17);
        let mut net = task.new_network(24, 17);
        task.train(&mut net, 12, 8e-3);

        let mut naive = PerReport::default();
        let mut smoothed = PerReport::default();
        for u in task.test_utterances() {
            let logits = net.forward(&u.frames);
            let frame_preds: Vec<usize> = logits
                .iter()
                .map(|l| rtm_tensor::Vector::argmax(l))
                .collect();
            naive.add(&frame_preds, &u.labels, &u.phones);

            let decoded = viterbi_decode(&logits, 2.5);
            // Score the decoded sequence directly via edit distance.
            smoothed.errors += crate::per::edit_distance(&decoded, &u.phones);
            smoothed.reference_len += u.phones.len();
        }
        assert!(
            smoothed.per_percent() <= naive.per_percent(),
            "Viterbi must not be worse: {:.2}% vs {:.2}%",
            smoothed.per_percent(),
            naive.per_percent()
        );
    }
}

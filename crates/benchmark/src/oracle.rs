//! Independent references every output of a run is checked against.
//!
//! - Every served stream's logits must be bit-identical to a serial
//!   `CompiledNetwork::forward` of its utterance ([`expected`] computes
//!   that once per utterance, after the measurement, on both cores).
//! - Every wire hypothesis — the partial paired with each frame and the
//!   final one — must equal the workload's decoder fed those serial
//!   logits frame by frame, i.e. what `decode_with` returns.
//! - f32 networks must also agree with the dense `rtm_rnn` forward of the
//!   network they were compiled from, on a seeded sample of utterances.
//!   The dense kernel sums each row in a different order than the sparse
//!   one, so this check is to a tolerance, not to the bit.
//! - The server's own counters must balance: every admitted stream ends
//!   completed, shed, quarantined or disconnected.

use rtm_speech::corpus::Utterance;
use rtm_speech::Hypothesis;
use rtm_tensor::rng::StdRng;
use rtmobile::deploy::CompiledNetwork;
use rtmobile::serve::client::WireHypothesis;
use rtmobile::{DecoderChoice, ServeStats};

use crate::model::Model;

/// At most this many problems are kept verbatim per run; the failed count
/// is always exact.
const MAX_PROBLEMS: usize = 8;

/// Records `problem` unless the list is already long enough to act on.
pub fn note_problem(problems: &mut Vec<String>, problem: String) {
    if problems.len() < MAX_PROBLEMS {
        problems.push(problem);
    }
}

/// What one utterance must produce.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Serial-forward logits, one row per frame.
    pub logits: Vec<Vec<f32>>,
    /// The partial hypothesis in force after each frame (the last one the
    /// streaming decoder emitted; empty before the first).
    pub partials: Vec<Hypothesis>,
    /// The final hypothesis.
    pub final_hyp: Hypothesis,
}

fn expect_one(net: &CompiledNetwork, u: &Utterance, decoder: DecoderChoice) -> Expected {
    let logits = net.forward(&u.frames);
    let mut dec = decoder.build(net.num_classes());
    let mut current = Hypothesis::empty();
    let partials = logits
        .iter()
        .map(|row| {
            if let Some(h) = dec.push_frame(row) {
                current = h;
            }
            current.clone()
        })
        .collect();
    Expected {
        logits,
        partials,
        final_hyp: dec.finish(),
    }
}

/// Serial forward + streaming decode of every utterance, split over two
/// threads (the measurement is over; both cores are free).
pub fn expected(
    net: &CompiledNetwork,
    utterances: &[Utterance],
    decoder: DecoderChoice,
) -> Vec<Expected> {
    let half = utterances.len().div_ceil(2);
    let (a, b) = utterances.split_at(half);
    std::thread::scope(|scope| {
        let second = scope.spawn(move || {
            b.iter()
                .map(|u| expect_one(net, u, decoder))
                .collect::<Vec<_>>()
        });
        let mut out: Vec<Expected> = a.iter().map(|u| expect_one(net, u, decoder)).collect();
        out.extend(second.join().expect("oracle thread"));
        out
    })
}

/// Bit-for-bit equality of two logit rows.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether a wire hypothesis is exactly the decoder's (symbols, score bits,
/// endpoint and finality).
pub fn same_hypothesis(wire: &WireHypothesis, want: &Hypothesis, is_final: bool) -> bool {
    wire.is_final == is_final
        && wire.endpoint == want.endpoint
        && wire.score.to_bits() == want.score.to_bits()
        && wire.symbols.len() == want.symbols.len()
        && wire
            .symbols
            .iter()
            .zip(&want.symbols)
            .all(|(&w, &s)| w as usize == s)
}

/// Whether two in-process hypotheses are the same decode.
pub fn same_decode(a: &Hypothesis, b: &Hypothesis) -> bool {
    a.symbols == b.symbols
        && a.score.to_bits() == b.score.to_bits()
        && a.frames == b.frames
        && a.endpoint == b.endpoint
        && a.is_final == b.is_final
}

/// Largest error of the compiled f32 network against the dense `rtm_rnn`
/// forward it was compiled from, relative to `1 + |dense|`, over a seeded
/// sample of utterances. `None` for non-f32 networks (their stored weights
/// are quantized, so the dense network is not their reference).
pub fn dense_reference_error(model: &Model, want: &[Expected], seed: u64) -> Option<f64> {
    if model.precision != rtmobile::deploy::RuntimePrecision::F32 {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xde25e);
    let mut worst = 0.0f64;
    for _ in 0..DENSE_SAMPLE.min(model.utterances.len()) {
        let k = rng.gen_range(0..model.utterances.len());
        let dense = model.dense.forward(&model.utterances[k].frames);
        for (d, s) in dense.iter().zip(&want[k].logits) {
            for (&a, &b) in d.iter().zip(s) {
                worst = worst.max(f64::from((a - b).abs()) / (1.0 + f64::from(a.abs())));
            }
        }
    }
    Some(worst)
}

/// Utterances the dense reference is run on.
const DENSE_SAMPLE: usize = 2;

/// Largest [`dense_reference_error`] accepted: summation order is the only
/// difference, which stays orders of magnitude below this.
pub const DENSE_TOLERANCE: f64 = 1e-3;

/// The conservation invariant over a server's final counters:
/// `admitted = completed + shed + quarantined + disconnects`, and the
/// server admitted exactly the streams the generator opened. Returns the
/// imbalance as a message.
pub fn check_conservation(stats: &ServeStats, disconnects: u64, opened: usize) -> Option<String> {
    let ended = stats.completed + stats.shed + stats.quarantined + disconnects as usize;
    if stats.admitted != ended || stats.admitted != opened {
        Some(format!(
            "server counters do not balance: admitted {} completed {} shed {} quarantined {} \
             disconnects {disconnects}, generator opened {opened}",
            stats.admitted, stats.completed, stats.shed, stats.quarantined
        ))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_flags_any_lost_stream() {
        let ok = ServeStats {
            admitted: 10,
            completed: 10,
            ..ServeStats::default()
        };
        assert_eq!(check_conservation(&ok, 0, 10), None);
        assert!(
            check_conservation(&ok, 0, 11).is_some(),
            "an unadmitted stream"
        );
        let lost = ServeStats {
            admitted: 10,
            completed: 9,
            ..ServeStats::default()
        };
        assert!(check_conservation(&lost, 0, 10).is_some());
        assert_eq!(
            check_conservation(&lost, 1, 10),
            None,
            "the disconnect accounts for it"
        );
        let shed = ServeStats { shed: 1, ..ok };
        assert!(
            check_conservation(&shed, 0, 10).is_some(),
            "a shed stream was never admitted"
        );
    }
}

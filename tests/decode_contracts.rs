//! Decoder-API contracts (DESIGN.md §16): the streaming [`Decoder`] trait
//! behaves as one deterministic function of the logits sequence, whatever
//! path drives it.
//!
//! - **CTC semantics**: best-path collapse rules (repeats collapse, blanks
//!   drop, a blank separates genuine doubles) on golden lattices; prefix
//!   beam search recovers mass that greedy's single path loses.
//! - **beam(1) == greedy**: an API guarantee, checked bit-for-bit on
//!   random lattices.
//! - **Streaming == offline**: pushing frames one at a time is
//!   bit-identical to [`decode_offline`] over the same logits, for every
//!   decoder the [`DecoderChoice`] config can build.
//! - **Serial == batched == wire**: the compiled runtime's serial
//!   [`CompiledNetwork::decode_with`] and the lane-sharing
//!   [`BatchedSession::run_decoded`] produce bit-identical hypotheses.
//! - **Legacy paths**: Viterbi by hand-streamed frames and argmax +
//!   `collapse_frames` (the PER scorer's own collapse) still equal their
//!   `decode_offline` counterparts exactly.

use rtm_exec::Executor;
use rtm_rnn::model::NetworkConfig;
use rtm_rnn::GruNetwork;
use rtm_speech::ctc::DEFAULT_TRAILING_BLANKS;
use rtm_speech::per::collapse_frames;
use rtm_speech::{
    blank_for, decode_offline, ArgmaxDecoder, CtcBeamDecoder, CtcGreedyDecoder, Decoder,
    ViterbiDecoder,
};
use rtm_tensor::rng::StdRng;
use rtmobile::deploy::{BatchedSession, CompiledNetwork, RuntimePrecision};
use rtmobile::DecoderChoice;

/// Logits strongly favouring one class per frame.
fn clean_logits(labels: &[usize], classes: usize) -> Vec<Vec<f32>> {
    labels
        .iter()
        .map(|&l| {
            (0..classes)
                .map(|c| if c == l { 6.0 } else { 0.0 })
                .collect()
        })
        .collect()
}

/// A seeded random lattice: `frames` rows of `classes` logits in [-4, 4].
fn random_logits(frames: usize, classes: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..frames)
        .map(|_| (0..classes).map(|_| rng.gen_f32() * 8.0 - 4.0).collect())
        .collect()
}

#[test]
fn ctc_greedy_collapses_repeats_and_drops_blanks() {
    // blank = 0 for a 4-class head (< 39 phones).
    assert_eq!(blank_for(4), 0);
    let logits = clean_logits(&[0, 1, 1, 1, 0, 2, 2, 0, 0], 4);
    let hyp = decode_offline(&mut CtcGreedyDecoder::new(0), &logits);
    assert_eq!(hyp.symbols, vec![1, 2]);
    assert!(hyp.is_final);
    assert_eq!(hyp.frames, logits.len());
}

#[test]
fn blank_separates_doubled_symbols() {
    // 1 1 -> one symbol; 1 blank 1 -> the double survives.
    let collapsed = decode_offline(&mut CtcGreedyDecoder::new(0), &clean_logits(&[1, 1], 4));
    assert_eq!(collapsed.symbols, vec![1]);
    let doubled = decode_offline(&mut CtcGreedyDecoder::new(0), &clean_logits(&[1, 0, 1], 4));
    assert_eq!(doubled.symbols, vec![1, 1]);
}

#[test]
fn ctc_outputs_are_blank_free_and_bounded() {
    for seed in 0..20u64 {
        let logits = random_logits(30, 6, seed);
        for hyp in [
            decode_offline(&mut CtcGreedyDecoder::new(0), &logits),
            decode_offline(&mut CtcBeamDecoder::new(0, 4), &logits),
        ] {
            assert!(
                hyp.symbols.iter().all(|&s| s != 0),
                "seed {seed}: blank leaked into {:?}",
                hyp.symbols
            );
            assert!(hyp.symbols.len() <= logits.len());
            assert!(hyp.score.is_finite());
        }
    }
}

#[test]
fn beam_width_one_is_greedy_bitwise() {
    for seed in 0..20u64 {
        let logits = random_logits(40, 8, seed);
        let greedy = decode_offline(&mut CtcGreedyDecoder::new(0), &logits);
        let beam1 = decode_offline(&mut CtcBeamDecoder::new(0, 1), &logits);
        assert_eq!(beam1.symbols, greedy.symbols, "seed {seed}");
        assert_eq!(
            beam1.score.to_bits(),
            greedy.score.to_bits(),
            "seed {seed}: scores must be bit-identical, not merely close"
        );
        assert_eq!(beam1.endpoint, greedy.endpoint, "seed {seed}");
    }
}

#[test]
fn golden_lattice_beam_recovers_mass_greedy_loses() {
    // The classic prefix-search example (Hannun et al. 2014): per-frame
    // the blank is the argmax, so greedy decodes the empty sequence — but
    // the three alignments collapsing to [a] carry more total mass than
    // the all-blank path (0.6*0.6 = 0.36 vs 0.4*0.6 + 0.6*0.4 + 0.4*0.4
    // = 0.64). Beam search with width >= 2 must sum them and return [a].
    let frame: Vec<f32> = vec![0.6f32.ln(), 0.4f32.ln()];
    let logits = vec![frame.clone(), frame];
    let greedy = decode_offline(&mut CtcGreedyDecoder::new(0), &logits);
    assert_eq!(
        greedy.symbols,
        Vec::<usize>::new(),
        "greedy takes the blank path"
    );
    let beam = decode_offline(&mut CtcBeamDecoder::new(0, 2), &logits);
    assert_eq!(beam.symbols, vec![1], "beam sums the [a] alignments");
    assert!(
        (beam.score - 0.64f32.ln()).abs() < 1e-4,
        "merged mass: got {}, want ln 0.64",
        beam.score
    );
}

#[test]
fn streaming_is_bit_identical_to_offline_for_every_choice() {
    let choices = [
        DecoderChoice::Argmax,
        DecoderChoice::Viterbi,
        DecoderChoice::CtcGreedy,
        DecoderChoice::CtcBeam(1),
        DecoderChoice::CtcBeam(4),
    ];
    for seed in 0..10u64 {
        let logits = random_logits(25, 39 + 1, seed);
        let classes = logits[0].len();
        for choice in choices {
            let mut streaming = choice.build(classes);
            for row in &logits {
                let _ = streaming.push_frame(row);
            }
            let streamed = streaming.finish();
            let offline = decode_offline(choice.build(classes).as_mut(), &logits);
            assert_eq!(
                streamed.symbols,
                offline.symbols,
                "{} seed {seed}",
                choice.label()
            );
            assert_eq!(
                streamed.score.to_bits(),
                offline.score.to_bits(),
                "{} seed {seed}",
                choice.label()
            );
            // And reset() really clears: a second offline pass repeats.
            let again = decode_offline(streaming.as_mut(), &logits);
            assert_eq!(
                again,
                offline,
                "{} seed {seed}: reset mid-object",
                choice.label()
            );
        }
    }
}

#[test]
fn endpoint_fires_after_trailing_blanks_and_clears_on_speech() {
    let mut d = CtcGreedyDecoder::with_endpoint(0, 3);
    let logits = clean_logits(&[1, 0, 0, 0, 2, 0, 0, 0], 4);
    let mut states = Vec::new();
    let mut endpoint = false;
    for row in &logits {
        if let Some(h) = d.push_frame(row) {
            endpoint = h.endpoint;
        }
        states.push(endpoint);
    }
    assert_eq!(
        states,
        vec![false, false, false, true, false, false, false, true],
        "fires on the 3rd trailing blank, clears on speech, re-fires"
    );
    assert!(d.finish().endpoint);
    // The default threshold is the documented 200 ms at the 10 ms hop.
    assert_eq!(DEFAULT_TRAILING_BLANKS, 20);
}

#[test]
fn legacy_free_functions_match_the_trait_path() {
    let logits = random_logits(30, 5, 99);
    // What the deleted `viterbi_decode` free function did by hand: push
    // every frame into a fresh decoder, then finish.
    let mut by_hand = ViterbiDecoder::new(2.5);
    for frame in &logits {
        assert!(by_hand.push_frame(frame).is_none());
    }
    assert_eq!(
        by_hand.finish(),
        decode_offline(&mut ViterbiDecoder::new(2.5), &logits)
    );
    // Argmax collapse equals the historical argmax + collapse_frames path.
    let frame_preds: Vec<usize> = logits
        .iter()
        .map(|f| rtm_tensor::Vector::argmax(f))
        .collect();
    assert_eq!(
        decode_offline(&mut ArgmaxDecoder::new(), &logits).symbols,
        collapse_frames(&frame_preds)
    );
}

#[test]
fn blank_maps_to_silence_for_the_phone_head() {
    assert_eq!(blank_for(39), rtm_speech::phones::SILENCE);
    assert_eq!(blank_for(4), 0);
}

fn compiled_net() -> CompiledNetwork {
    let net = GruNetwork::new(
        &NetworkConfig {
            input_dim: 6,
            hidden_dims: vec![12, 12],
            num_classes: 5,
        },
        2020,
    );
    CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F16).expect("valid BSP")
}

fn utterance(frames: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..frames)
        .map(|_| (0..6).map(|_| rng.gen_f32() * 2.0 - 1.0).collect())
        .collect()
}

#[test]
fn serial_batched_and_offline_decodes_agree_bitwise() {
    let net = compiled_net();
    let exec = Executor::new(1);
    let choice = DecoderChoice::CtcBeam(3);
    let streams: Vec<Vec<Vec<f32>>> = (0..5).map(|s| utterance(10 + s, s as u64)).collect();

    // Serial: forward + offline decode per stream, via the deploy helper.
    let serial: Vec<_> = streams
        .iter()
        .map(|u| net.decode_with(&exec, u, choice))
        .collect();

    // Batched: lanes shared mid-flight, one decoder per lane.
    let mut session = BatchedSession::new(&net, &exec, 2).with_decoder(choice);
    let (batched_logits, batched_hyps) = session.run_decoded(&streams);

    for (s, (hyp, logits)) in batched_hyps.iter().zip(&batched_logits).enumerate() {
        let hyp = hyp.as_ref().expect("stream decoded");
        assert_eq!(hyp.symbols, serial[s].symbols, "stream {s}");
        assert_eq!(hyp.score.to_bits(), serial[s].score.to_bits(), "stream {s}");
        assert!(hyp.is_final);
        // And both equal an offline decode of the served logits.
        let offline = decode_offline(choice.build(logits[0].len()).as_mut(), logits);
        assert_eq!(offline.symbols, hyp.symbols, "stream {s}");
        assert_eq!(offline.score.to_bits(), hyp.score.to_bits(), "stream {s}");
    }
}

#[test]
fn decoder_choice_parse_roundtrip_and_rejection() {
    for (s, want) in [
        ("argmax", DecoderChoice::Argmax),
        ("viterbi", DecoderChoice::Viterbi),
        ("ctc-greedy", DecoderChoice::CtcGreedy),
        ("ctc-beam:1", DecoderChoice::CtcBeam(1)),
        ("ctc-beam:16", DecoderChoice::CtcBeam(16)),
    ] {
        assert_eq!(DecoderChoice::parse(s), Some(want), "{s}");
        assert_eq!(
            DecoderChoice::parse(&want.label()),
            Some(want),
            "label roundtrip {s}"
        );
    }
    for bad in [
        "",
        "ctc",
        "ctc-beam",
        "ctc-beam:0",
        "ctc-beam:x",
        "beam:4",
        "ARGMAX ",
    ] {
        assert_eq!(DecoderChoice::parse(bad), None, "{bad:?} must be rejected");
    }
}

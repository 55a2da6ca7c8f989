//! The deployed runtime artifact: BSPC-compiled GRU inference.
//!
//! [`CompiledNetwork`] lowers a (pruned) [`rtm_rnn::GruNetwork`] into
//! per-gate [`rtm_sparse::BspcMatrix`] storage, then *executes* inference
//! through the sparse kernels. No reorder permutation is attached: BSPC
//! stores each stripe's same-pattern rows together already. This
//! is the functional counterpart of the simulator's cost model: the
//! simulator prices the kernels, this module proves they compute the right
//! thing. With [`RuntimePrecision::F16`] all weights and intermediate
//! activations round through IEEE binary16, modelling the paper's 16-bit
//! GPU datapath.
//!
//! Three frame loops exist (DESIGN.md §9.1): the serial *reference*
//! ([`CompiledNetwork::forward`], no executor, the oracle every
//! bit-identity suite compares against) and two production loops over one
//! split step body — the lockstep lanes of
//! [`CompiledNetwork::forward_frame_batch`] (one frame of `b` streams
//! through [`CompiledGruLayer::step_batch_into`], what [`BatchedSession`]
//! runs) and the one-utterance loop of [`CompiledNetwork::forward_with`]
//! (a chunk of frames of one stream, layer by layer, through the same
//! step's input and recurrent halves).
//!
//! * `format` — [`RuntimePrecision`], [`RuntimeFormat`];
//! * `layer` — [`CompiledGruLayer`], [`GruRuntimeScratch`], the two steps;
//! * `network` — [`CompiledNetwork`]: compile, accessors, the three loops;
//! * `session` — [`BatchedSession`]: lane scheduling only.

mod format;
mod layer;
mod network;
mod session;

pub use format::{RuntimeFormat, RuntimePrecision};
pub use layer::{CompiledGruLayer, GruRuntimeScratch};
pub use network::CompiledNetwork;
pub use session::{BatchedSession, StepOutput};

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_rnn::model::NetworkConfig;
    use rtm_rnn::GruNetwork;

    fn net() -> GruNetwork {
        GruNetwork::new(
            &NetworkConfig {
                input_dim: 6,
                hidden_dims: vec![12, 12],
                num_classes: 4,
            },
            17,
        )
    }

    fn frames() -> Vec<Vec<f32>> {
        (0..9)
            .map(|t| {
                (0..6)
                    .map(|i| ((t * 6 + i) as f32 * 0.3).sin() * 0.5)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn f32_compiled_matches_dense_exactly() {
        let net = net();
        let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F32).unwrap();
        let dense = net.forward(&frames());
        let sparse = compiled.forward(&frames());
        for (d, s) in dense.iter().zip(&sparse) {
            for (a, b) in d.iter().zip(s) {
                assert!((a - b).abs() < 1e-5, "{a} vs {b}");
            }
        }
        assert_eq!(compiled.precision(), RuntimePrecision::F32);
    }

    #[test]
    fn f16_compiled_close_to_dense() {
        let net = net();
        let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F16).unwrap();
        let dense = net.forward(&frames());
        let half = compiled.forward(&frames());
        // f16 rounding perturbs but must not change the ballpark.
        for (d, s) in dense.iter().zip(&half) {
            for (a, b) in d.iter().zip(s) {
                assert!((a - b).abs() < 0.05, "{a} vs {b}");
            }
        }
        // Predictions agree on a comfortable majority of frames.
        let agree = net
            .predict(&frames())
            .iter()
            .zip(compiled.predict(&frames()))
            .filter(|(a, b)| **a == *b)
            .count();
        assert!(agree >= 7, "agreement {agree}/9");
    }

    #[test]
    fn pruned_network_roundtrips() {
        // Zero half the columns (BSP-like) and verify the compiled network
        // still matches the dense forward of the pruned weights.
        let mut net = net();
        for (_, m) in net.prunable_mut() {
            let cols = m.cols();
            for r in 0..m.rows() {
                for c in 0..cols {
                    if c % 2 == 1 {
                        m[(r, c)] = 0.0;
                    }
                }
            }
        }
        let compiled = CompiledNetwork::compile(&net, 4, 2, RuntimePrecision::F32).unwrap();
        let dense = net.forward(&frames());
        let sparse = compiled.forward(&frames());
        for (d, s) in dense.iter().zip(&sparse) {
            for (a, b) in d.iter().zip(s) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn int8_weight_only_quantization_close_to_f32() {
        let net = net();
        let q = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::Int8).unwrap();
        assert_eq!(q.precision(), RuntimePrecision::Int8);
        let dense = net.forward(&frames());
        let quantized = q.forward(&frames());
        for (d, s) in dense.iter().zip(&quantized) {
            for (a, b) in d.iter().zip(s) {
                assert!((a - b).abs() < 0.05, "{a} vs {b}");
            }
        }
        // Int8 storage accounting is the smallest of the three modes.
        let f32b = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F32)
            .unwrap()
            .storage_bytes();
        let f16b = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F16)
            .unwrap()
            .storage_bytes();
        assert!(q.storage_bytes() < f16b && f16b < f32b);
    }

    #[test]
    fn storage_shrinks_with_pruning_and_precision() {
        let net_dense = net();
        let mut net_pruned = net_dense.clone();
        for (_, m) in net_pruned.prunable_mut() {
            let cols = m.cols();
            for r in 0..m.rows() {
                for c in 0..cols {
                    if c % 4 != 0 {
                        m[(r, c)] = 0.0;
                    }
                }
            }
        }
        let d32 = CompiledNetwork::compile(&net_dense, 4, 4, RuntimePrecision::F32)
            .unwrap()
            .storage_bytes();
        let p32 = CompiledNetwork::compile(&net_pruned, 4, 4, RuntimePrecision::F32)
            .unwrap()
            .storage_bytes();
        let p16 = CompiledNetwork::compile(&net_pruned, 4, 4, RuntimePrecision::F16)
            .unwrap()
            .storage_bytes();
        assert!(p32 < d32 / 2, "pruning shrinks storage: {p32} vs {d32}");
        assert!(p16 < p32, "f16 shrinks storage further: {p16} vs {p32}");
    }

    #[test]
    fn compiled_gates_carry_no_reorder_permutation() {
        // Each stripe's kept rows are stored together already, which is the
        // grouping the reorder exists for; no kernel reads a permutation.
        for precision in [
            RuntimePrecision::F32,
            RuntimePrecision::F16,
            RuntimePrecision::Int8,
        ] {
            let compiled = CompiledNetwork::compile(&net(), 4, 4, precision).unwrap();
            for layer in compiled.layers() {
                for gate in layer.gates() {
                    assert_eq!(gate.reorder(), None, "{precision:?}");
                }
            }
        }
    }

    #[test]
    fn every_format_compiles_and_matches_dense() {
        let net = net();
        let dense = net.forward(&frames());
        let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F32).unwrap();
        assert_eq!(compiled.format(), RuntimeFormat::Bspc);
        let sparse = compiled.forward(&frames());
        for (d, s) in dense.iter().zip(&sparse) {
            for (a, b) in d.iter().zip(s) {
                assert!((a - b).abs() < 1e-5, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn forward_with_matches_forward_every_format_and_precision() {
        let net = net();
        for precision in [
            RuntimePrecision::F32,
            RuntimePrecision::F16,
            RuntimePrecision::Int8,
        ] {
            let compiled = CompiledNetwork::compile(&net, 4, 4, precision).unwrap();
            let serial = compiled.forward(&frames());
            for threads in [1usize, 3] {
                let exec = rtm_exec::Executor::new(threads);
                assert_eq!(
                    compiled.forward_with(&exec, &frames()),
                    serial,
                    "{precision:?} {threads} threads"
                );
            }
        }
    }

    #[test]
    fn batched_session_lane_contract_holds_every_format() {
        let net = net();
        let streams: Vec<Vec<Vec<f32>>> = [5usize, 9, 3]
            .iter()
            .enumerate()
            .map(|(s, &len)| {
                (0..len)
                    .map(|t| {
                        (0..6)
                            .map(|i| ((s * 89 + t * 6 + i) as f32 * 0.31).sin() * 0.5)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let exec = rtm_exec::Executor::new(2);
        let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F16).unwrap();
        let serial: Vec<Vec<Vec<f32>>> = streams.iter().map(|s| compiled.forward(s)).collect();
        let mut session = BatchedSession::new(&compiled, &exec, 2);
        assert_eq!(session.run(&streams), serial, "lane contract");
    }

    #[test]
    fn per_lane_streaming_decode_matches_offline() {
        use crate::config::DecoderChoice;
        let net = net();
        let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F16).unwrap();
        let exec = rtm_exec::Executor::new(2);
        let streams: Vec<Vec<Vec<f32>>> = [7usize, 12, 4, 9]
            .iter()
            .enumerate()
            .map(|(s, &len)| {
                (0..len)
                    .map(|t| {
                        (0..6)
                            .map(|i| ((s * 71 + t * 6 + i) as f32 * 0.27).sin() * 0.6)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let total_frames: usize = streams.iter().map(Vec::len).sum();
        for choice in [
            DecoderChoice::Argmax,
            DecoderChoice::CtcGreedy,
            DecoderChoice::CtcBeam(4),
        ] {
            let mut session = BatchedSession::new(&compiled, &exec, 3).with_decoder(choice);
            assert_eq!(session.decoder(), Some(choice));
            let (logits, hyps) = session.run_decoded(&streams);
            let stats = session.stats();
            assert_eq!(stats.stream_frames, total_frames);
            assert!(stats.compute_ns > 0, "step wall time accumulates");
            assert!(stats.batch_rtf() > 0.0);
            for (s, hyp) in hyps.iter().enumerate() {
                let hyp = hyp.as_ref().expect("every stream completed");
                // Per-lane streaming decode ≡ serial offline decode of the
                // same stream — the lane logits are bit-identical to a
                // serial forward, and the decoder is deterministic.
                let offline = compiled.decode_with(&exec, &streams[s], choice);
                assert_eq!(hyp, &offline, "{} stream {s}", choice.label());
                assert!(hyp.is_final);
                // And re-decoding the batched logits offline agrees too.
                let mut d = choice.build(compiled.head_b.len());
                assert_eq!(rtm_speech::decode_offline(d.as_mut(), &logits[s]), offline);
            }
        }
    }

    #[test]
    fn decoder_state_is_cleaned_up() {
        use crate::config::DecoderChoice;
        let net = net();
        let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F32).unwrap();
        let exec = rtm_exec::Executor::new(1);
        let mut session =
            BatchedSession::new(&compiled, &exec, 2).with_decoder(DecoderChoice::CtcGreedy);
        let fs = frames();
        session.admit(7);
        let out = session.step(&[(7, fs[0].as_slice())]).unwrap();
        assert_eq!(out.logits.len(), 1);
        session.retire(7);
        let hyp = session.finish_decode(7).expect("live decoder");
        assert!(hyp.is_final);
        assert_eq!(session.finish_decode(7), None, "decoder consumed");
        // Without a configured decoder there is nothing to finish.
        let mut plain = BatchedSession::new(&compiled, &exec, 2);
        plain.admit(1);
        assert_eq!(plain.finish_decode(1), None);
    }

    #[test]
    fn format_zoo_storage_accounting_differs_per_format() {
        // Same pruned weights: the compiled model's byte accounting is
        // BSPC's own index structure over all six gates of both layers,
        // not what the CSR baseline would charge for them.
        let mut net = net();
        for (_, m) in net.prunable_mut() {
            let cols = m.cols();
            for r in 0..m.rows() {
                for c in 0..cols {
                    if (r + c) % 3 != 0 {
                        m[(r, c)] = 0.0;
                    }
                }
            }
        }
        let bspc = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F32)
            .unwrap()
            .storage_bytes();
        let csr: usize = net
            .prunable()
            .into_iter()
            .map(|(_, m)| {
                let csr = rtm_sparse::CsrMatrix::from_dense(m);
                rtm_sparse::Footprint::csr(&csr, rtm_sparse::Precision::F32).total()
            })
            .sum();
        assert!(bspc > 0 && csr > 0);
        assert_ne!(bspc, csr, "BSPC must not price like CSR");
    }

    #[test]
    fn runtime_format_tags_roundtrip() {
        assert_eq!(RuntimeFormat::default(), RuntimeFormat::Bspc);
        assert_eq!(RuntimeFormat::Bspc.tag(), "bspc");
    }

    #[test]
    fn forward_with_matches_forward_bit_exact() {
        let net = net();
        for precision in [
            RuntimePrecision::F32,
            RuntimePrecision::F16,
            RuntimePrecision::Int8,
        ] {
            let compiled = CompiledNetwork::compile(&net, 4, 4, precision).unwrap();
            let serial = compiled.forward(&frames());
            for threads in [1usize, 2, 4] {
                let exec = rtm_exec::Executor::new(threads);
                assert_eq!(
                    compiled.forward_with(&exec, &frames()),
                    serial,
                    "{precision:?}, {threads} threads"
                );
                assert_eq!(
                    compiled.predict_with(&exec, &frames()),
                    compiled.predict(&frames())
                );
            }
        }
    }

    #[test]
    fn batched_session_streams_match_serial_forward_bit_exact() {
        // Streams of different lengths, capacity smaller than the stream
        // count: every stream's logits must equal its serial forward bit
        // for bit, across precisions and thread counts, despite admissions
        // and lane compactions happening mid-run.
        let net = net();
        let lens = [9usize, 3, 7, 1, 5, 4];
        let streams: Vec<Vec<Vec<f32>>> = lens
            .iter()
            .enumerate()
            .map(|(s, &len)| {
                (0..len)
                    .map(|t| {
                        (0..6)
                            .map(|i| ((s * 97 + t * 6 + i) as f32 * 0.23).sin() * 0.5)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        for precision in [RuntimePrecision::F32, RuntimePrecision::F16] {
            let compiled = CompiledNetwork::compile(&net, 4, 4, precision).unwrap();
            let serial: Vec<Vec<Vec<f32>>> = streams.iter().map(|s| compiled.forward(s)).collect();
            for threads in [1usize, 2, 4] {
                let exec = rtm_exec::Executor::new(threads);
                for capacity in [1usize, 2, 4, 8] {
                    let mut session = BatchedSession::new(&compiled, &exec, capacity);
                    assert_eq!(session.capacity(), capacity);
                    let batched = session.run(&streams);
                    assert_eq!(
                        batched, serial,
                        "{precision:?} capacity={capacity} threads={threads}"
                    );
                    // Session reuse: a second run must be identical too.
                    assert_eq!(session.run(&streams), serial);
                }
            }
        }
    }

    #[test]
    fn batched_session_handles_empty_streams() {
        let net = net();
        let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F32).unwrap();
        let exec = rtm_exec::Executor::new(2);
        let mut session = BatchedSession::new(&compiled, &exec, 3);
        let none: Vec<Vec<Vec<f32>>> = Vec::new();
        assert!(session.run(&none).is_empty());
        let streams = vec![vec![], frames(), vec![]];
        let out = session.run(&streams);
        assert!(out[0].is_empty() && out[2].is_empty());
        assert_eq!(out[1], compiled.forward(&frames()));
        // predict mirrors run.
        assert_eq!(session.predict(&streams)[1], compiled.predict(&frames()));
    }

    #[test]
    fn shedding_bounds_backlog_and_counts() {
        let net = net();
        let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F32).unwrap();
        let exec = rtm_exec::Executor::new(1);
        let streams: Vec<Vec<Vec<f32>>> = (0..6).map(|_| frames()).collect();
        let serial = compiled.forward(&frames());

        // Capacity 2, backlog capped at 1: the first two streams take the
        // lanes, one parks, the rest shed. RejectNew sacrifices the newest.
        let mut session = BatchedSession::new(&compiled, &exec, 2).with_admission(
            crate::serve::AdmissionConfig::default()
                .with_queue_depth(1)
                .with_shed(crate::serve::ShedPolicy::RejectNew),
        );
        let out = session.run(&streams);
        let stats = session.stats();
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.shed, 3);
        assert_eq!(stats.completed, 3);
        for (i, o) in out.iter().enumerate() {
            if i < 3 {
                assert_eq!(o, &serial, "served stream {i} bit-identical");
            } else {
                assert!(o.is_empty(), "shed stream {i} yields nothing");
            }
        }

        // DropOldest sacrifices the head of the queue instead: streams
        // 2, 3, 4 are dropped and the freshest arrival (5) is served.
        let mut session = BatchedSession::new(&compiled, &exec, 2).with_admission(
            crate::serve::AdmissionConfig::default()
                .with_queue_depth(1)
                .with_shed(crate::serve::ShedPolicy::DropOldest),
        );
        let out = session.run(&streams);
        assert_eq!(session.stats().shed, 3);
        for (i, o) in out.iter().enumerate() {
            if [0usize, 1, 5].contains(&i) {
                assert_eq!(o, &serial, "served stream {i}");
            } else {
                assert!(o.is_empty(), "dropped stream {i}");
            }
        }
    }

    #[test]
    fn deadline_misses_are_counted_not_hidden() {
        let net = net();
        let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F32).unwrap();
        let exec = rtm_exec::Executor::new(1);
        let mk = |len: usize| -> Vec<Vec<f32>> { frames().into_iter().take(len).collect() };
        let streams = [mk(5), mk(3), mk(2)];
        // Capacity 1: stream 1 waits 5 steps, stream 2 waits 8 — both past
        // a 4-step budget. Everything is still served in full.
        let mut session = BatchedSession::new(&compiled, &exec, 1)
            .with_admission(crate::serve::AdmissionConfig::default().with_deadline_steps(4));
        let out = session.run(&streams);
        let stats = session.stats();
        assert_eq!(stats.deadline_missed, 2);
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.frames, 10);
        for (o, s) in out.iter().zip(&streams) {
            assert_eq!(o.len(), s.len());
        }
    }

    #[test]
    fn check_policy_records_faults_but_keeps_serving() {
        let net = net();
        let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F32).unwrap();
        let exec = rtm_exec::Executor::new(2);
        let mut streams: Vec<Vec<Vec<f32>>> = (0..3).map(|_| frames()).collect();
        streams[1][4][2] = f32::NAN;
        let serial = compiled.forward(&frames());
        let mut session = BatchedSession::new(&compiled, &exec, 3)
            .with_health(crate::health::HealthPolicy::Check);
        let out = session.run(&streams);
        let stats = session.stats();
        assert_eq!(stats.quarantined, 0, "check never retires");
        assert!(!session.faults().is_empty());
        assert_eq!(session.faults()[0].stream, 1);
        assert_eq!(session.faults()[0].frame, 4);
        // Every frame of every stream was served; the healthy streams stay
        // bit-identical to serial.
        assert_eq!(out[0], serial);
        assert_eq!(out[2], serial);
        assert_eq!(out[1].len(), streams[1].len());
    }

    #[test]
    fn quarantine_retires_only_the_faulty_lane() {
        let net = net();
        let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F32).unwrap();
        let exec = rtm_exec::Executor::new(2);
        let mut streams: Vec<Vec<Vec<f32>>> = (0..3).map(|_| frames()).collect();
        streams[1][2][0] = f32::NAN;
        let serial = compiled.forward(&frames());
        let mut session = BatchedSession::new(&compiled, &exec, 3)
            .with_health(crate::health::HealthPolicy::Quarantine);
        let out = session.run(&streams);
        let stats = session.stats();
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.completed, 2, "the quarantined stream never completes");
        // The poisoned stream's logits stop at its last healthy frame.
        assert_eq!(out[1].len(), 2);
        assert_eq!(out[1], serial[..2].to_vec());
        // The surviving lanes are bit-identical to serial end to end.
        assert_eq!(out[0], serial);
        assert_eq!(out[2], serial);
        assert_eq!(session.faults().len(), 1);
        assert_eq!(session.faults()[0].stream, 1);
        assert_eq!(session.faults()[0].frame, 2);
    }

    #[test]
    fn incremental_subset_stepping_matches_serial_bit_exact() {
        // Continuous batching's core contract: lanes stepped in ragged
        // subsets — some streams lagging, some bursting — produce logits
        // bit-identical to each stream's serial forward.
        let net = net();
        let streams: Vec<Vec<Vec<f32>>> = (0..4)
            .map(|s| {
                (0..8)
                    .map(|t| {
                        (0..6)
                            .map(|i| ((s * 71 + t * 6 + i) as f32 * 0.27).sin() * 0.5)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        for precision in [RuntimePrecision::F32, RuntimePrecision::F16] {
            let compiled = CompiledNetwork::compile(&net, 4, 4, precision).unwrap();
            let serial: Vec<Vec<Vec<f32>>> = streams.iter().map(|s| compiled.forward(s)).collect();
            for threads in [1usize, 3] {
                let exec = rtm_exec::Executor::new(threads);
                let mut session = BatchedSession::new(&compiled, &exec, 4);
                let mut cursors = [0usize; 4];
                let mut out: Vec<Vec<Vec<f32>>> = vec![Vec::new(); 4];
                for s in 0..4 {
                    assert!(session.admit(s));
                }
                assert!(session.is_full());
                // A fixed ragged schedule: each tick advances a different
                // subset, including out-of-lane-order subsets.
                let schedule: [&[usize]; 12] = [
                    &[0, 1, 2, 3],
                    &[3, 1],
                    &[0],
                    &[2, 0, 1],
                    &[3, 2],
                    &[1, 0, 3],
                    &[2],
                    &[0, 1, 2, 3],
                    &[3, 2, 1, 0],
                    &[0, 1],
                    &[2, 3],
                    &[0, 1, 2, 3],
                ];
                for subset in schedule {
                    let ready: Vec<(usize, &[f32])> = subset
                        .iter()
                        .filter(|&&s| cursors[s] < streams[s].len())
                        .map(|&s| (s, streams[s][cursors[s]].as_slice()))
                        .collect();
                    let served = session.step(&ready).unwrap();
                    for (s, row) in served.logits {
                        out[s].push(row);
                        cursors[s] += 1;
                    }
                }
                for s in 0..4 {
                    assert_eq!(session.frames_served(s), Some(cursors[s]));
                    assert_eq!(
                        out[s],
                        serial[s][..cursors[s]].to_vec(),
                        "{precision:?} threads={threads} stream {s} ragged schedule"
                    );
                }
                assert_eq!(session.drain(), vec![0, 1, 2, 3]);
                assert_eq!(session.active_lanes(), 0);
            }
        }
    }

    #[test]
    fn incremental_admit_retire_midflight_matches_serial() {
        // A lane retiring mid-flight and a fresh stream taking its place —
        // the continuous-batching lifecycle — never disturbs the others.
        let net = net();
        let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F16).unwrap();
        let exec = rtm_exec::Executor::new(2);
        let mk = |seed: usize, len: usize| -> Vec<Vec<f32>> {
            (0..len)
                .map(|t| {
                    (0..6)
                        .map(|i| ((seed * 53 + t * 6 + i) as f32 * 0.33).sin() * 0.5)
                        .collect()
                })
                .collect()
        };
        let streams = [mk(0, 6), mk(1, 3), mk(2, 5)];
        let serial: Vec<Vec<Vec<f32>>> = streams.iter().map(|s| compiled.forward(s)).collect();

        let mut session = BatchedSession::new(&compiled, &exec, 2);
        let mut out: Vec<Vec<Vec<f32>>> = vec![Vec::new(); 3];
        let mut cursors = [0usize; 3];
        assert!(session.admit(0) && session.admit(1));
        assert!(!session.admit(2), "session is full");
        loop {
            let ready: Vec<(usize, &[f32])> = session
                .tokens()
                .to_vec()
                .into_iter()
                .filter(|&s| cursors[s] < streams[s].len())
                .map(|s| (s, streams[s][cursors[s]].as_slice()))
                .collect();
            if ready.is_empty() {
                break;
            }
            for (s, row) in session.step(&ready).unwrap().logits {
                out[s].push(row);
                cursors[s] += 1;
            }
            // Retire exhausted lanes and backfill with the waiting stream.
            for s in session.tokens().to_vec() {
                if cursors[s] == streams[s].len() {
                    assert!(session.retire(s));
                    session.mark_completed();
                }
            }
            if !session.is_full() && session.frames_served(2).is_none() && cursors[2] == 0 {
                assert!(session.admit(2));
            }
        }
        assert_eq!(out.to_vec(), serial, "mid-flight churn keeps bit-identity");
        assert_eq!(session.stats().admitted, 3);
        assert_eq!(session.stats().completed, 3);
        assert!(!session.retire(7), "unknown token retires nothing");
    }

    #[test]
    #[should_panic(expected = "batch capacity")]
    fn zero_capacity_rejected() {
        let net = net();
        let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F32).unwrap();
        let exec = rtm_exec::Executor::new(1);
        let _ = BatchedSession::new(&compiled, &exec, 0);
    }

    #[test]
    fn bad_partition_propagates_error() {
        let net = net();
        // stripes > rows for 12-row matrices is clamped, so force the error
        // with zero blocks.
        assert!(CompiledNetwork::compile(&net, 0, 4, RuntimePrecision::F32).is_err());
    }
}

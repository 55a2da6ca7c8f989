//! Real-time-factor benchmark of the streaming decode stack.
//!
//! Writes `BENCH_rtf.json` at the repository root (or under
//! `target/quick/` with `--quick`, which runs a tiny smoke configuration
//! for CI). The artifact answers EXPERIMENTS.md Q5: what does streaming
//! CTC decoding cost on top of the compiled runtime, expressed as RTF —
//! wall-clock time over audio time at the 10 ms frame hop — across the
//! compression × precision × decoder grid, and what latency does a
//! listener actually observe (first decoded symbol, endpoint detection)
//! including under load shedding?
//!
//! Method: a GRU is trained and BSP-pruned through the real pipeline
//! (`RtMobile::run_keeping_model`) so the decoders see meaningful
//! phone posteriors — silence really dominates the utterance edges,
//! which is what the trailing-blank endpointer keys on. The pruned
//! network is then recompiled at each precision and, per decoder:
//!
//! - **per-stream RTF**: each held-out utterance is forwarded and its
//!   logits pushed frame-by-frame through a fresh
//!   [`rtm_speech::Decoder`], timed end to end; RTF = wall / audio.
//!   The frame index of the first non-empty partial gives
//!   latency-to-first-symbol (audio position, ms).
//! - **per-batch RTF**: the same utterances through a
//!   [`BatchedSession::run_decoded`] pass sharing lanes; RTF = wall over
//!   summed audio. Its reciprocal is the sustained real-time streams one
//!   core can decode while keeping up with every speaker.
//!
//! The endpoint section replays utterances padded with trailing silence
//! over the real `rtm serve` loopback path with hypotheses enabled
//! (protocol v2), uncontended and then oversubscribed with a shallow
//! drop-oldest queue, and reports the wall-clock gap between the speaker
//! going quiet and the endpoint flag arriving at the client. The
//! endpointer's own hysteresis (20 blank frames = 200 ms of audio) is
//! the floor; shedding pressure shows up as tail latency on top.
//!
//! Dependency-free: std + workspace crates only.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rtm_bench::{emit_bench_report, json_row, quick_requested, JsonValue};
use rtm_exec::Executor;
use rtm_speech::corpus::CorpusConfig;
use rtm_speech::phones::SILENCE;
use rtm_speech::{SpeechTask, Utterance};
use rtmobile::deploy::{BatchedSession, CompiledNetwork, RuntimePrecision};
use rtmobile::{
    AdmissionConfig, DecoderChoice, RtMobile, RuntimeConfig, ServeOptions, Server, ShedPolicy,
    StreamClient,
};

/// Real-time speech frame hop: 10 ms, i.e. 100 frames per second.
const PACE_US: u64 = 10_000;
/// BSP partition used throughout (matches the pipeline default).
const STRIPES: usize = 4;
const BLOCKS: usize = 4;

/// Exact quantile of a sorted sample set (rank `⌈q·n⌉`).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// One cell of the compression × precision × decoder grid.
struct GridCell {
    compression: usize,
    precision: &'static str,
    decoder: String,
    streams: usize,
    frames: usize,
    rtf_stream_mean: f64,
    rtf_stream_max: f64,
    rtf_batch: f64,
    sustained_streams: f64,
    first_symbol_ms: Vec<f64>,
    symbols: usize,
    endpoints: usize,
}

/// Serial streaming pass: forward + frame-by-frame decode per utterance.
#[allow(clippy::cast_precision_loss)]
fn measure_cell(
    compiled: &CompiledNetwork,
    exec: &Executor,
    choice: DecoderChoice,
    utterances: &[&Utterance],
    compression: usize,
    precision: &'static str,
) -> GridCell {
    let mut rtfs = Vec::with_capacity(utterances.len());
    let mut first_symbol_ms = Vec::new();
    let mut symbols = 0usize;
    let mut endpoints = 0usize;
    let mut frames = 0usize;
    for u in utterances {
        let t0 = Instant::now();
        let logits = compiled.forward_with(exec, &u.frames);
        let classes = logits.first().map_or(1, Vec::len);
        let mut decoder = choice.build(classes);
        let mut first: Option<usize> = None;
        let mut in_endpoint = false;
        for (i, row) in logits.iter().enumerate() {
            if let Some(h) = decoder.push_frame(row) {
                if first.is_none() && !h.symbols.is_empty() {
                    first = Some(i);
                }
                if h.endpoint && !in_endpoint {
                    endpoints += 1;
                }
                in_endpoint = h.endpoint;
            }
        }
        let hyp = decoder.finish();
        let wall_us = t0.elapsed().as_secs_f64() * 1e6;
        let audio_us = u.frames.len() as f64 * PACE_US as f64;
        if audio_us > 0.0 {
            rtfs.push(wall_us / audio_us);
        }
        if let Some(i) = first {
            first_symbol_ms.push((i + 1) as f64 * PACE_US as f64 / 1e3);
        }
        symbols += hyp.symbols.len();
        frames += u.frames.len();
    }

    // Batched pass: same streams sharing lanes, decoder state per lane.
    let streams: Vec<&[Vec<f32>]> = utterances.iter().map(|u| u.frames.as_slice()).collect();
    let capacity = utterances.len().clamp(1, 8);
    let mut session = BatchedSession::new(compiled, exec, capacity).with_decoder(choice);
    let t0 = Instant::now();
    let (_logits, hyps) = session.run_decoded(&streams);
    let wall_us = t0.elapsed().as_secs_f64() * 1e6;
    let audio_us = frames as f64 * PACE_US as f64;
    let rtf_batch = if audio_us > 0.0 {
        wall_us / audio_us
    } else {
        0.0
    };
    assert_eq!(
        hyps.iter().filter(|h| h.is_some()).count(),
        utterances.len(),
        "every stream decodes"
    );

    GridCell {
        compression,
        precision,
        decoder: choice.label(),
        streams: utterances.len(),
        frames,
        rtf_stream_mean: mean(&rtfs),
        rtf_stream_max: rtfs.iter().copied().fold(0.0, f64::max),
        rtf_batch,
        sustained_streams: if rtf_batch > 0.0 {
            1.0 / rtf_batch
        } else {
            0.0
        },
        first_symbol_ms,
        symbols,
        endpoints,
    }
}

/// An utterance padded with enough recycled trailing-silence frames for
/// the endpointer's hysteresis (20 blank frames) to fire well before the
/// stream ends, plus where the speech actually stops.
struct PaddedUtterance {
    frames: Vec<Vec<f32>>,
    /// Index of the first frame after the last non-silence label.
    speech_end: usize,
}

fn pad_with_silence(u: &Utterance, pad: usize) -> PaddedUtterance {
    let speech_end = u
        .labels
        .iter()
        .rposition(|&l| l != SILENCE)
        .map_or(0, |i| i + 1);
    // Recycle the utterance's own silence frames (every corpus sentence
    // starts and ends silence-biased, so there is always at least one).
    let silence: Vec<&Vec<f32>> = u
        .frames
        .iter()
        .zip(&u.labels)
        .filter(|(_, &l)| l == SILENCE)
        .map(|(f, _)| f)
        .collect();
    let mut frames = u.frames.clone();
    if !silence.is_empty() {
        for k in 0..pad {
            frames.push(silence[k % silence.len()].clone());
        }
    }
    PaddedUtterance { frames, speech_end }
}

/// What one endpoint-measurement stream observed at the client.
struct EndpointOutcome {
    /// Wall-clock gap between sending the first post-speech frame and the
    /// first hypothesis with the endpoint flag set (µs); `None` when the
    /// endpointer never fired before the stream ended.
    endpoint_us: Option<f64>,
    /// Wall-clock gap between stream start and the first non-empty
    /// partial hypothesis (µs).
    first_symbol_us: Option<f64>,
}

/// Replays one padded utterance with hypotheses enabled, paced at the
/// real-time rate; returns `None` when the server shed the stream.
fn replay_decoded(addr: SocketAddr, idx: usize, utt: &PaddedUtterance) -> Option<EndpointOutcome> {
    let pace = Duration::from_micros(PACE_US);
    let mut client = StreamClient::connect(addr).ok()?;
    client.start(idx as u32).ok()?;
    client.want_hypotheses().ok()?;
    let base = Instant::now();
    let mut speech_end_at: Option<Instant> = None;
    let mut endpoint_us = None;
    let mut first_symbol_us = None;
    for (t, frame) in utt.frames.iter().enumerate() {
        let due = base + pace * (t as u32);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if t == utt.speech_end {
            speech_end_at = Some(Instant::now());
        }
        let (_row, hyp) = client.infer_decoded(frame).ok()?;
        if first_symbol_us.is_none() && !hyp.symbols.is_empty() {
            first_symbol_us = Some(base.elapsed().as_secs_f64() * 1e6);
        }
        if endpoint_us.is_none() && hyp.endpoint {
            if let Some(end) = speech_end_at {
                endpoint_us = Some(end.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    let _ = client.finish_decoded().ok()?;
    Some(EndpointOutcome {
        endpoint_us,
        first_symbol_us,
    })
}

/// One serve configuration of the endpoint section, fully measured.
struct EndpointRun {
    completed: usize,
    shed_streams: usize,
    endpointed: usize,
    endpoint_us: Vec<f64>,
    first_symbol_us: Vec<f64>,
    server_shed: usize,
}

/// Serves `streams` copies of the padded utterances through a fresh
/// server, `workers` concurrent paced clients, lane capacity and queue
/// bounds per `config`.
fn run_endpoint_config(
    net: &CompiledNetwork,
    choice: DecoderChoice,
    utts: &[PaddedUtterance],
    capacity: usize,
    workers: usize,
    queue_depth: usize,
    shed: bool,
) -> EndpointRun {
    let mut admission = AdmissionConfig::unbounded().with_queue_depth(queue_depth);
    if shed {
        admission = admission.with_shed(ShedPolicy::DropOldest);
    }
    let config = RuntimeConfig::default()
        .with_batch(capacity)
        .with_decoder(choice)
        .with_admission(admission)
        .with_serve(
            ServeOptions::default()
                .with_max_conns(workers + 8)
                .with_max_streams(utts.len()),
        );

    let (stats, outcomes) = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let config_ref = &config;
        let server = scope.spawn(move || {
            let exec = Executor::new(config_ref.threads);
            let mut server = Server::bind(net, &exec, config_ref).expect("bind");
            tx.send(server.local_addr()).expect("addr handoff");
            server.run().expect("serve")
        });
        let addr = rx.recv().expect("server bound");

        let clients: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    std::thread::sleep(Duration::from_micros(
                        PACE_US * w as u64 / workers.max(1) as u64,
                    ));
                    (w..utts.len())
                        .step_by(workers)
                        .map(|k| replay_decoded(addr, k, &utts[k]))
                        .collect::<Vec<Option<EndpointOutcome>>>()
                })
            })
            .collect();
        let mut outcomes: Vec<Option<EndpointOutcome>> = Vec::with_capacity(utts.len());
        for handle in clients {
            outcomes.extend(handle.join().expect("client worker"));
        }
        (server.join().expect("server thread"), outcomes)
    });

    let completed = outcomes.iter().filter(|o| o.is_some()).count();
    let mut endpoint_us: Vec<f64> = outcomes
        .iter()
        .flatten()
        .filter_map(|o| o.endpoint_us)
        .collect();
    endpoint_us.sort_by(f64::total_cmp);
    let mut first_symbol_us: Vec<f64> = outcomes
        .iter()
        .flatten()
        .filter_map(|o| o.first_symbol_us)
        .collect();
    first_symbol_us.sort_by(f64::total_cmp);
    EndpointRun {
        completed,
        shed_streams: outcomes.len() - completed,
        endpointed: endpoint_us.len(),
        endpoint_us,
        first_symbol_us,
        server_shed: stats.shed,
    }
}

fn main() {
    let quick = quick_requested();
    let (hidden, corpus_cfg, compressions, pad, workers_over) = if quick {
        (
            24usize,
            CorpusConfig {
                speakers: 8,
                sentences_per_speaker: 2,
                phones_per_sentence: 5,
                ..CorpusConfig::default_scaled()
            },
            vec![10usize],
            30usize,
            4usize,
        )
    } else {
        (48, CorpusConfig::default_scaled(), vec![10, 2], 40, 12)
    };
    let precisions = [
        ("f32", RuntimePrecision::F32),
        ("f16", RuntimePrecision::F16),
        ("int8", RuntimePrecision::Int8),
    ];
    let decoders = [
        DecoderChoice::Argmax,
        DecoderChoice::CtcGreedy,
        DecoderChoice::CtcBeam(4),
    ];

    let exec = Executor::new(1);
    let mut grid_rows = Vec::new();
    let mut first_symbol_all = Vec::new();
    let mut endpoint_net: Option<CompiledNetwork> = None;
    for &rate in &compressions {
        eprintln!("training + BSP pruning at {rate}x compression ...");
        let (report, net, _) = RtMobile::builder()
            .corpus(corpus_cfg.clone())
            .hidden(hidden)
            .compression(rate as f64, 1.0)
            .partition(STRIPES, BLOCKS)
            .seed(2020)
            .run_keeping_model();
        eprintln!(
            "  dense PER {:.2}% -> compiled PER {:.2}%",
            report.accuracy.baseline_per, report.accuracy.compiled_per
        );
        let task = SpeechTask::new(&corpus_cfg, 2020);
        let utterances = task.test_utterances();

        for (pname, prec) in precisions {
            let compiled =
                CompiledNetwork::compile(&net, STRIPES, BLOCKS, prec).expect("valid BSP");
            if rate == compressions[0] && prec == RuntimePrecision::F16 {
                endpoint_net = Some(compiled.clone());
            }
            for choice in decoders {
                let cell = measure_cell(&compiled, &exec, choice, &utterances, rate, pname);
                let mut fs = cell.first_symbol_ms.clone();
                fs.sort_by(f64::total_cmp);
                eprintln!(
                    "  {rate}x {pname} {}: stream RTF {:.4} (max {:.4}), batch RTF {:.4} \
                     ({:.1} streams/core), first symbol {:.0} ms, {} symbols, {} endpoints",
                    cell.decoder,
                    cell.rtf_stream_mean,
                    cell.rtf_stream_max,
                    cell.rtf_batch,
                    cell.sustained_streams,
                    mean(&fs),
                    cell.symbols,
                    cell.endpoints
                );
                grid_rows.push(json_row(&[
                    ("compression", JsonValue::Int(cell.compression as i64)),
                    ("precision", JsonValue::Str(cell.precision.into())),
                    ("decoder", JsonValue::Str(cell.decoder.clone())),
                    ("streams", JsonValue::Int(cell.streams as i64)),
                    ("frames", JsonValue::Int(cell.frames as i64)),
                    ("rtf_stream_mean", JsonValue::F64(cell.rtf_stream_mean, 5)),
                    ("rtf_stream_max", JsonValue::F64(cell.rtf_stream_max, 5)),
                    ("rtf_batch", JsonValue::F64(cell.rtf_batch, 5)),
                    (
                        "sustained_realtime_streams",
                        JsonValue::F64(cell.sustained_streams, 1),
                    ),
                    ("first_symbol_ms_mean", JsonValue::F64(mean(&fs), 1)),
                    (
                        "first_symbol_ms_p99",
                        JsonValue::F64(percentile(&fs, 0.99), 1),
                    ),
                    ("symbols", JsonValue::Int(cell.symbols as i64)),
                    ("endpoints", JsonValue::Int(cell.endpoints as i64)),
                ]));
                first_symbol_all.extend(fs);
            }
        }
    }

    // Endpoint latency through the real serving path: the f16 compile at
    // the paper's compression point, CTC greedy (the production streaming
    // decoder), utterances padded so trailing silence outlasts the
    // endpointer's 20-frame hysteresis.
    let endpoint_net = endpoint_net.expect("f16 compile kept");
    let task = SpeechTask::new(&corpus_cfg, 2020);
    let padded: Vec<PaddedUtterance> = task
        .test_utterances()
        .iter()
        .map(|u| pad_with_silence(u, pad))
        .collect();
    let capacity = 4usize;
    let endpoint_configs = [
        ("uncontended", capacity, capacity, usize::MAX, false),
        ("shedding", capacity, capacity * workers_over / 4, 2, true),
    ];
    let mut endpoint_rows = Vec::new();
    for (name, cap, workers, queue_depth, shed) in endpoint_configs {
        eprintln!(
            "endpoint run {name}: capacity {cap}, {workers} paced clients, queue depth {} ...",
            if queue_depth == usize::MAX {
                "unbounded".to_string()
            } else {
                queue_depth.to_string()
            }
        );
        let run = run_endpoint_config(
            &endpoint_net,
            DecoderChoice::CtcGreedy,
            &padded,
            cap,
            workers,
            queue_depth,
            shed,
        );
        eprintln!(
            "  {} completed / {} shed; endpoint latency p50 {:.0} ms p99 {:.0} ms \
             ({} endpointed), first symbol p50 {:.0} ms",
            run.completed,
            run.shed_streams,
            percentile(&run.endpoint_us, 0.50) / 1e3,
            percentile(&run.endpoint_us, 0.99) / 1e3,
            run.endpointed,
            percentile(&run.first_symbol_us, 0.50) / 1e3,
        );
        endpoint_rows.push(json_row(&[
            ("config", JsonValue::Str(name.into())),
            ("capacity", JsonValue::Int(cap as i64)),
            ("client_workers", JsonValue::Int(workers as i64)),
            (
                "queue_depth",
                if queue_depth == usize::MAX {
                    JsonValue::Str("unbounded".into())
                } else {
                    JsonValue::Int(queue_depth as i64)
                },
            ),
            ("streams", JsonValue::Int(padded.len() as i64)),
            ("completed", JsonValue::Int(run.completed as i64)),
            ("shed_streams", JsonValue::Int(run.shed_streams as i64)),
            ("server_shed", JsonValue::Int(run.server_shed as i64)),
            ("endpointed", JsonValue::Int(run.endpointed as i64)),
            (
                "endpoint_latency_p50_ms",
                JsonValue::F64(percentile(&run.endpoint_us, 0.50) / 1e3, 1),
            ),
            (
                "endpoint_latency_p99_ms",
                JsonValue::F64(percentile(&run.endpoint_us, 0.99) / 1e3, 1),
            ),
            (
                "first_symbol_p50_ms",
                JsonValue::F64(percentile(&run.first_symbol_us, 0.50) / 1e3, 1),
            ),
            (
                "first_symbol_p99_ms",
                JsonValue::F64(percentile(&run.first_symbol_us, 0.99) / 1e3, 1),
            ),
        ]));
    }

    first_symbol_all.sort_by(f64::total_cmp);
    emit_bench_report(
        "rtf",
        quick,
        &[
            (
                "model",
                JsonValue::Raw(format!(
                    "{{\"hidden\": [{hidden}, {hidden}], \"stripes\": {STRIPES}, \
                     \"blocks\": {BLOCKS}, \"compressions\": {compressions:?}, \
                     \"trained\": true}}"
                )),
            ),
            (
                "host_cpus",
                JsonValue::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as i64)),
            ),
            (
                "vector_isa",
                JsonValue::Str(rtm_tensor::simd::vector_isa().into()),
            ),
            ("frame_hop_us", JsonValue::Int(PACE_US as i64)),
            (
                "endpoint_hysteresis_ms",
                JsonValue::Int(
                    (rtm_speech::ctc::DEFAULT_TRAILING_BLANKS as u64 * PACE_US) as i64 / 1000,
                ),
            ),
            (
                "notes",
                JsonValue::Str(
                    "RTF = wall time / audio time at the 10 ms hop; the grid forwards each \
                     held-out utterance and streams its logits through a fresh decoder \
                     (per-stream rows), then replays all utterances through one batched \
                     session with per-lane decoders (rtf_batch; its reciprocal is the \
                     sustained real-time streams one core can decode). first_symbol_ms is \
                     the audio position of the first non-empty partial. The endpoint \
                     section replays silence-padded utterances over loopback TCP with \
                     protocol-v2 hypotheses at the real-time pace and measures speaker-quiet \
                     to endpoint-flag wall latency, uncontended vs oversubscribed with a \
                     depth-2 drop-oldest queue; the 200 ms hysteresis of the trailing-blank \
                     endpointer is the floor."
                        .into(),
                ),
            ),
        ],
        &[
            ("grid", grid_rows),
            ("endpoint", endpoint_rows),
            (
                "headline",
                vec![json_row(&[
                    (
                        "first_symbol_ms_p50_overall",
                        JsonValue::F64(percentile(&first_symbol_all, 0.50), 1),
                    ),
                    (
                        "first_symbol_ms_p99_overall",
                        JsonValue::F64(percentile(&first_symbol_all, 0.99), 1),
                    ),
                ])],
            ),
        ],
    );
}

//! Running a workload: set-up, warm-up, the timed window, the checks, and
//! the metrics.
//!
//! Two entry points, one per `--trace` value of the driver contract:
//! [`run_end_to_end`] measures the five user-visible metrics with tracing
//! off; [`run_per_layer`] replays a fixed number of streams twice (untraced,
//! then with `rtm_trace` on — the difference is the tracing overhead),
//! probes every layer through its public API and writes the span file.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rtm_exec::Executor;
use rtm_trace::{key, TraceConfig};
use rtmobile::{HealthPolicy, RuntimeConfig, ServeOptions, ServeStats, Server};

use crate::gen::{self, Bound, Plan, Schedule, Tally, WireUtterance};
use crate::layers::{self, Ledger};
use crate::model::{self, Model};
use crate::oracle::{self, note_problem, Expected};
use crate::spans::{self, SpanLog};
use crate::spec::{
    Drive, Metric, ModelKind, Scale, ServeShape, Workload, END_TO_END, HOP_US, PER_LAYER,
};
use crate::stats::{self, micros as us, percentile};

/// One invocation.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of weights, corpus and utterance order.
    pub seed: u64,
    /// Length of the timed window, in seconds.
    pub seconds: f64,
    /// Model sizes and budgets.
    pub scale: Scale,
    /// Captured first thing in `main`: `setup_s` counts from here.
    pub process_start: Instant,
}

/// What an invocation reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every output matched its reference and the counters balanced.
    pub correct: bool,
    /// Operations attempted in the measured phase (frames for the serve
    /// workloads, utterances in process).
    pub attempted: u64,
    /// Operations that got no reply, a wrong reply, or belonged to a stream
    /// that was rejected, shed, quarantined or disconnected.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// What went wrong (empty when `correct`).
    pub problems: Vec<String>,
    /// Context for the human reader (achieved compression, sample counts).
    pub notes: Vec<String>,
}

/// One in-process operation: an utterance through `decode_with`.
#[derive(Debug)]
struct OpRec {
    utterance: usize,
    /// End of the previous operation (the closed loop's due time).
    due: Instant,
    start: Instant,
    end: Instant,
    /// `decode_with` returned exactly the reference decode.
    ok: bool,
}

/// What a phase produced, before checking.
#[derive(Debug)]
enum Raw {
    Serve(Tally, ServeStats),
    OnDevice(Vec<OpRec>, (Instant, Instant)),
}

impl Raw {
    fn window(&self) -> (Instant, Instant) {
        match self {
            Raw::Serve(t, _) => t.window,
            Raw::OnDevice(_, w) => *w,
        }
    }
}

/// A checked phase.
#[derive(Debug, Default)]
struct Phase {
    attempted: u64,
    failed: u64,
    /// Length of the measured window, in seconds.
    window_s: f64,
    /// Frames per second over the whole window.
    window_fps: f64,
    /// Frames per second in each consecutive [`stats::RATE_BLOCK_S`] block
    /// of the window.
    block_fps: Vec<f64>,
    /// Frames were due on a schedule, not on the previous reply.
    open_loop: bool,
    /// Median per-frame latency of each consecutive
    /// [`stats::LATENCY_BLOCK_S`] block of the window, µs.
    block_p50_us: Vec<f64>,
    /// Per-frame latency samples, ascending, µs.
    latency_us: Vec<f64>,
    admit_wait_us: Vec<f64>,
    gen_late_us: Vec<f64>,
    streams: usize,
    problems: Vec<String>,
    /// The server's own view of the run (serve workloads).
    server_note: String,
}

impl Phase {
    /// `frame_latency_p50_us`: the block median of the undisturbed host.
    fn latency_p50(&self) -> f64 {
        stats::quiet(&self.block_p50_us, true)
    }

    /// `frames_per_s`. On the open loop the reply rate is the offered rate
    /// whenever the server keeps up, and the best blocks are only a backlog
    /// draining after a stall: the whole window says whether it kept up. On
    /// the closed loop the rate is the capacity: the block rate of the
    /// undisturbed host.
    fn frames_per_s(&self) -> f64 {
        if self.open_loop {
            self.window_fps
        } else {
            stats::quiet(&self.block_fps, false)
        }
    }

    /// Cuts `marks` — `(seconds into the window, frames answered so far)` —
    /// into the whole-window and the per-block rates.
    fn set_rates(&mut self, marks: &[(f64, f64)]) {
        if let (Some(a), Some(b)) = (marks.first(), marks.last()) {
            self.window_fps = (b.1 - a.1) / (b.0 - a.0).max(1e-9);
        }
        let per = stats::per_block(
            marks.len().saturating_sub(1),
            self.window_s,
            stats::RATE_BLOCK_S,
        );
        self.block_fps = stats::block_rates(marks, per);
    }
}

fn in_window(t: Instant, w: (Instant, Instant)) -> bool {
    t >= w.0 && t < w.1
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn warmup_for(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds * 0.1).clamp(0.05, 0.5))
}

/// What a phase runs on: the workload, its model, the pre-encoded
/// utterances and the oracle's references.
#[derive(Debug, Clone, Copy)]
struct Inputs<'a> {
    w: &'a Workload,
    model: &'a Model,
    wire: &'a [WireUtterance],
    want: &'a [Expected],
    seed: u64,
}

impl<'a> Inputs<'a> {
    fn schedule(&self) -> Schedule {
        Schedule::new(self.seed, self.model.utterances.len())
    }
}

/// The server's connection bound. Far above any workload's connection count
/// on purpose: when the host stalls for a second the open loop keeps opening
/// the next utterance of every slot on schedule while the old ones wait for
/// their `Done`, and those streams must park until a lane frees (their wait
/// shows in the latency tail) instead of being rejected for capacity.
const MAX_CONNS: usize = 256;

/// Serves the model on its own thread and drives it from this one; returns
/// once every stream has drained and the server has stopped.
fn serve_phase(
    inp: Inputs<'_>,
    shape: ServeShape,
    warmup: Duration,
    bound: Bound,
    spans: Option<(&mut SpanLog, u64)>,
) -> (Tally, ServeStats) {
    let config = RuntimeConfig::default()
        .with_batch(shape.lanes)
        .with_decoder(inp.w.decoder)
        .with_health(HealthPolicy::Off)
        .with_serve(ServeOptions::default().with_max_conns(MAX_CONNS));
    let stop = AtomicBool::new(false);
    let bundle = inp.model.bundle.clone();
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let stop = &stop;
        let server = scope.spawn(move || {
            let exec = Executor::new(1);
            let mut server = Server::bind_bundle(bundle, &exec, &config).expect("bind loopback");
            tx.send(server.local_addr()).expect("address handoff");
            server.run_until(stop).expect("serve")
        });
        let addr = rx.recv().expect("server bound");
        let outcome = gen::drive(Plan {
            addr,
            utterances: inp.wire,
            want: inp.want,
            schedule: inp.schedule(),
            conns: shape.conns,
            open_loop: shape.open_loop,
            hypotheses: shape.hypotheses,
            hop: Duration::from_micros(HOP_US),
            warmup,
            bound,
            spans,
        });
        stop.store(true, Ordering::Relaxed);
        (outcome, server.join().expect("server thread"))
    })
}

/// One in-process stream: utterances back to back through `decode_with`.
fn ondevice_phase(
    inp: Inputs<'_>,
    warmup: Duration,
    bound: Bound,
) -> (Vec<OpRec>, (Instant, Instant)) {
    let exec = Executor::new(1);
    let net = inp.model.net();
    let mut schedule = inp.schedule();
    let t_start = Instant::now();
    let (open, close_target) = bound.window(t_start, warmup);
    let mut ops = Vec::new();
    let mut due = t_start;
    loop {
        let start = Instant::now();
        if bound.reached(close_target, start, ops.len()) {
            return (ops, (open, start));
        }
        let utterance = schedule.next_utterance();
        let frames = &inp.model.utterances[utterance].frames;
        let hyp = net.decode_with(&exec, frames, inp.w.decoder);
        let end = Instant::now();
        ops.push(OpRec {
            utterance,
            due,
            start,
            end,
            ok: oracle::same_decode(&hyp, &inp.want[utterance].final_hyp),
        });
        due = end;
    }
}

fn run_phase(
    inp: Inputs<'_>,
    warmup: Duration,
    bound: Bound,
    spans: Option<(&mut SpanLog, u64)>,
) -> Raw {
    match inp.w.drive {
        Drive::Serve(shape) => {
            let (tally, stats) = serve_phase(inp, shape, warmup, bound, spans);
            Raw::Serve(tally, stats)
        }
        Drive::OnDevice => {
            let (ops, window) = ondevice_phase(inp, warmup, bound);
            Raw::OnDevice(ops, window)
        }
    }
}

/// Sums up a served phase. The generator compared every reply with its
/// reference and tallied the window as it went; this adds the server's
/// counters and turns the reply bins into a rate.
fn check_serve(tally: Tally, stats: &ServeStats, disconnects: u64) -> Phase {
    let window = tally.window;
    let mut phase = Phase {
        window_s: window.1.saturating_duration_since(window.0).as_secs_f64(),
        open_loop: tally.open_loop,
        attempted: tally.attempted,
        failed: tally.failed,
        streams: tally.streams,
        problems: tally.problems,
        latency_us: tally.latency_us.iter().map(|&v| f64::from(v)).collect(),
        admit_wait_us: tally.admit_wait_us.iter().map(|&v| f64::from(v)).collect(),
        gen_late_us: tally.gen_late_us.iter().map(|&v| f64::from(v)).collect(),
        ..Phase::default()
    };
    if let Some(p) = oracle::check_conservation(stats, disconnects, tally.streams) {
        note_problem(&mut phase.problems, p);
        phase.failed = phase.failed.max(1);
    }
    phase.server_note = format!(
        "server: {} steps, {:.1} lanes per step, {:.0} us mean in a step (its own clock)",
        stats.frames,
        stats.stream_frames as f64 / stats.frames.max(1) as f64,
        stats.compute_ns as f64 / 1e3 / stats.frames.max(1) as f64,
    );
    let secs = |t: Instant| t.saturating_duration_since(window.0).as_secs_f64();
    let marks: Vec<(f64, f64)> = tally
        .marks
        .iter()
        .map(|&(t, n)| (secs(t), n as f64))
        .collect();
    phase.set_rates(&marks);
    finish_phase(phase)
}

/// Sums up an in-process phase. An operation is an utterance; its latency
/// sample is its wall time divided by its frames.
fn check_ondevice(ops: &[OpRec], window: (Instant, Instant), model: &Model) -> Phase {
    let mut phase = Phase {
        window_s: window.1.saturating_duration_since(window.0).as_secs_f64(),
        streams: ops.len(),
        ..Phase::default()
    };
    let frames_of = |op: &OpRec| model.utterances[op.utterance].frames.len() as f64;
    for op in ops {
        if !in_window(op.end, window) {
            continue;
        }
        phase.attempted += 1;
        phase.gen_late_us.push(us(op.due, op.start));
        phase.latency_us.push(us(op.start, op.end) / frames_of(op));
        if !op.ok {
            phase.failed += 1;
            note_problem(
                &mut phase.problems,
                format!(
                    "utterance {}: decode_with differs from the serial forward + decoder",
                    op.utterance
                ),
            );
        }
    }
    // One mark per operation: when it ended, and the frames done by then.
    let secs = |t: Instant| t.saturating_duration_since(window.0).as_secs_f64();
    let mut done = 0.0;
    let mut marks = vec![(0.0, 0.0)];
    for op in ops
        .iter()
        .filter(|op| op.start >= window.0 && in_window(op.end, window))
    {
        if marks.len() == 1 {
            marks[0].0 = secs(op.start);
        }
        done += frames_of(op);
        marks.push((secs(op.end), done));
    }
    phase.set_rates(&marks);
    finish_phase(phase)
}

fn finish_phase(mut phase: Phase) -> Phase {
    // Samples arrive in time order; block before sorting.
    let per = stats::per_block(
        phase.latency_us.len(),
        phase.window_s,
        stats::LATENCY_BLOCK_S,
    );
    phase.block_p50_us = stats::block_medians(&phase.latency_us, per);
    phase.latency_us = stats::sorted(std::mem::take(&mut phase.latency_us));
    phase.admit_wait_us = stats::sorted(std::mem::take(&mut phase.admit_wait_us));
    phase.gen_late_us = stats::sorted(std::mem::take(&mut phase.gen_late_us));
    phase
}

/// A measured phase in which nothing ran measured nothing.
fn require_operations(phase: &Phase, what: &str, problems: &mut Vec<String>) {
    if phase.attempted == 0 {
        problems.push(format!("no operation was attempted in the {what}"));
    }
}

fn check_phase(raw: Raw, disconnects: u64, model: &Model) -> Phase {
    match raw {
        Raw::Serve(tally, stats) => check_serve(tally, &stats, disconnects),
        Raw::OnDevice(ops, window) => check_ondevice(&ops, window, model),
    }
}

/// The f32 dense reference, as a problem when it disagrees.
fn check_dense(
    model: &Model,
    want: &[Expected],
    seed: u64,
    notes: &mut Vec<String>,
) -> Option<String> {
    let err = oracle::dense_reference_error(model, want, seed)?;
    notes.push(format!(
        "dense rtm_rnn reference: max relative error {err:.3e} (tolerance {:.0e})",
        oracle::DENSE_TOLERANCE
    ));
    (err > oracle::DENSE_TOLERANCE)
        .then(|| format!("compiled f32 network is {err:.3e} away from the dense rtm_rnn forward"))
}

fn model_note(w: &Workload, model: &Model) -> String {
    let kept = model.dense.nonzero_prunable_params();
    let total = model.dense.total_prunable_params();
    format!(
        "{}: {} of {} gate parameters kept ({:.1}x), {} at {}, {} utterances / {} frames",
        w.name,
        kept,
        total,
        total as f64 / kept.max(1) as f64,
        model.net().format().tag(),
        model.precision.tag(),
        model.utterances.len(),
        model
            .utterances
            .iter()
            .map(|u| u.frames.len())
            .sum::<usize>(),
    )
}

/// A workload's model with everything a phase needs beside it.
struct Prepared {
    model: Model,
    wire: Vec<WireUtterance>,
    want: Vec<Expected>,
    /// What computing `want` took: the benchmark's own work, taken out of
    /// `setup_s`.
    oracle_time: Duration,
}

impl Prepared {
    /// Builds the workload's model and the oracle's references for it. A
    /// seed builds the same model every time, so a repeated set-up passes
    /// the references of the previous one in `want` and they are not
    /// computed again.
    fn new(cfg: &RunConfig, want: Option<Vec<Expected>>) -> Prepared {
        let w = cfg.workload;
        let model = model::build(w, cfg.seed, &cfg.scale, &model::work_dir());
        let wire = gen::encode_utterances(&model.utterances);
        let t0 = Instant::now();
        let want =
            want.unwrap_or_else(|| oracle::expected(model.net(), &model.utterances, w.decoder));
        Prepared {
            model,
            wire,
            want,
            oracle_time: t0.elapsed(),
        }
    }

    fn inputs<'a>(&'a self, cfg: &'a RunConfig) -> Inputs<'a> {
        Inputs {
            w: cfg.workload,
            model: &self.model,
            wire: &self.wire,
            want: &self.want,
            seed: cfg.seed,
        }
    }
}

/// The end-to-end run (`--trace 0`): the whole set-up several times
/// (`setup_s` is the median), the last one running on through warm-up into
/// the timed window, all with tracing off and every reply checked.
pub fn run_end_to_end(cfg: &RunConfig) -> RunResult {
    rtm_trace::set_config(TraceConfig::off());
    let w = cfg.workload;
    let warmup = warmup_for(cfg.seconds);
    let mut setups = Vec::new();
    let mut problems = Vec::new();
    let mut last = None;
    for rep in 0..cfg.scale.setup_reps {
        // One model in memory at a time, so `peak_rss_mb` is a single
        // set-up's footprint; only the oracle's references are kept.
        let want = last.take().map(|(p, _): (Prepared, Phase)| p.want);
        // Set-up is everything from process start (or the end of the
        // previous repetition) to the first timed operation: generate or
        // train + prune, compile, bundle write + load, bind, connect,
        // warm-up.
        let t0 = if rep == 0 {
            cfg.process_start
        } else {
            Instant::now()
        };
        let prepared = Prepared::new(cfg, want);
        let final_rep = rep + 1 == cfg.scale.setup_reps;
        let window = if final_rep { cfg.seconds } else { 0.0 };
        let bound = Bound::Time(Duration::from_secs_f64(window));
        let raw = run_phase(prepared.inputs(cfg), warmup, bound, None);
        let setup = raw.window().0.saturating_duration_since(t0);
        setups.push(setup.saturating_sub(prepared.oracle_time).as_secs_f64());
        prepared.model.cleanup();
        // Warm-up streams are checked too; they just are not counted.
        let mut phase = check_phase(raw, 0, &prepared.model);
        problems.append(&mut phase.problems);
        last = Some((prepared, phase));
    }
    let (Prepared { model, want, .. }, phase) = last.expect("at least one set-up repetition");
    let peak_rss = peak_rss_mb();

    let mut notes = vec![model_note(w, &model)];
    require_operations(&phase, "timed window", &mut problems);
    problems.extend(check_dense(&model, &want, cfg.seed, &mut notes));
    let lat = &phase.latency_us;
    notes.push(format!(
        "{} streams, {} latency samples: p10 {:.0} p25 {:.0} p50 {:.0} p75 {:.0} p90 {:.0} \
         p99 {:.0} max {:.0} us; set-ups {:?} s",
        phase.streams,
        lat.len(),
        percentile(lat, 0.10),
        percentile(lat, 0.25),
        percentile(lat, 0.50),
        percentile(lat, 0.75),
        percentile(lat, 0.90),
        percentile(lat, 0.99),
        lat.last().copied().unwrap_or(0.0),
        setups,
    ));
    let spread_of = |v: &[f64]| {
        let v = stats::sorted(v.to_vec());
        [0.02, 0.10, 0.25, 0.50, 0.75, 0.90, 0.98].map(|q| percentile(&v, q).round())
    };
    notes.push(format!(
        "{} latency blocks, p50 us at p02/10/25/50/75/90/98 of them: {:?}",
        phase.block_p50_us.len(),
        spread_of(&phase.block_p50_us)
    ));
    notes.push(format!(
        "{} rate blocks, frames/s at p02/10/25/50/75/90/98 of them: {:?}; whole window {:.1}",
        phase.block_fps.len(),
        spread_of(&phase.block_fps),
        phase.window_fps
    ));
    if !phase.server_note.is_empty() {
        notes.push(phase.server_note.clone());
    }
    let values = [
        stats::median(&stats::sorted(setups)),
        phase.latency_p50(),
        phase.frames_per_s(),
        model.model_bytes as f64,
        peak_rss,
    ];
    RunResult {
        correct: problems.is_empty() && phase.failed == 0,
        attempted: phase.attempted.max(1),
        failed: phase.failed,
        metrics: END_TO_END.iter().zip(values).collect(),
        problems,
        notes,
    }
}

/// `serve.*` numbers read from the `rtm_trace` registry and the server's
/// final counters after the traced replay.
fn registry_metrics(out: &mut Ledger, stats: ServeStats) {
    let reg = rtm_trace::global();
    let frames = stats.stream_frames.max(1) as f64;
    let steps = reg.hist(key::SERVE_FRAME_US).map_or(0, |h| h.count);
    out.insert("serve.steps", steps as f64);
    out.insert(
        "serve.lanes_per_step_mean",
        stats.stream_frames as f64 / stats.frames.max(1) as f64,
    );
    out.insert(
        "serve.bytes_in_per_frame",
        reg.counter(key::SERVE_BYTES_IN) as f64 / frames,
    );
    out.insert(
        "serve.bytes_out_per_frame",
        reg.counter(key::SERVE_BYTES_OUT) as f64 / frames,
    );
    out.insert("serve.admitted", reg.counter(key::SERVE_ADMITTED) as f64);
    out.insert("serve.completed", stats.completed as f64);
    out.insert("serve.shed", reg.counter(key::SERVE_SHED) as f64);
    out.insert(
        "serve.quarantined",
        reg.counter(key::SERVE_QUARANTINED) as f64,
    );
    out.insert(
        "serve.disconnects",
        reg.counter(key::SERVE_DISCONNECTS) as f64,
    );
    out.insert(
        "serve.protocol_errors",
        reg.counter(key::SERVE_PROTOCOL_ERRORS) as f64,
    );
}

/// Exact-count speech metrics from the oracle's decodes: phone error rate
/// against the corpus transcripts (silence stripped from both sides, as the
/// pipeline scores it), symbols decoded, and the median frame at which the
/// streaming decoder first shows a symbol.
fn speech_metrics(out: &mut Ledger, model: &Model, want: &[Expected]) {
    let strip = |s: &[usize]| -> Vec<usize> {
        s.iter()
            .copied()
            .filter(|&p| p != rtm_speech::phones::SILENCE)
            .collect()
    };
    let (mut errors, mut reference, mut symbols) = (0usize, 0usize, 0usize);
    let mut first = Vec::new();
    for (u, e) in model.utterances.iter().zip(want) {
        let (hyp, truth) = (strip(&e.final_hyp.symbols), strip(&u.phones));
        errors += rtm_speech::edit_distance(&hyp, &truth);
        reference += truth.len();
        symbols += e.final_hyp.symbols.len();
        if let Some(t) = e.partials.iter().position(|p| !p.symbols.is_empty()) {
            first.push(t as f64);
        }
    }
    out.insert(
        "speech.per_pct",
        100.0 * errors as f64 / reference.max(1) as f64,
    );
    out.insert("speech.symbols", symbols as f64);
    out.insert(
        "speech.first_symbol_frame_p50",
        percentile(&stats::sorted(first), 0.5),
    );
}

/// The per-layer run (`--trace 1`).
pub fn run_per_layer(cfg: &RunConfig) -> RunResult {
    rtm_trace::set_config(TraceConfig::off());
    let w = cfg.workload;
    let scale = &cfg.scale;
    let prepared = Prepared::new(cfg, None);
    let inputs = prepared.inputs(cfg);
    let (model, want) = (&prepared.model, &prepared.want);
    let mut out = Ledger::new();
    let mut notes = vec![model_note(w, model)];

    // The replay is bounded by a stream count, not by time, so that every
    // count read from the registry repeats exactly for a seed.
    let conns = match w.drive {
        Drive::Serve(shape) => shape.conns,
        Drive::OnDevice => 1,
    };
    let streams = scale.traced_passes.map_or(
        (w.nominal_streams_per_s * cfg.seconds / 2.0).ceil() as usize,
        |passes| passes * conns,
    );
    let streams = streams.max(2 * conns);
    let bound = Bound::Streams(streams);
    let untraced = run_phase(inputs, Duration::ZERO, bound, None);

    let reg = rtm_trace::global();
    reg.reset();
    let mut log = SpanLog::new();
    let t_root = Instant::now();
    let root = log.open(w.name, None, t_root, 0);
    rtm_trace::set_config(TraceConfig::on());
    let traced = run_phase(inputs, Duration::ZERO, bound, Some((&mut log, root)));
    rtm_trace::set_config(TraceConfig::off());
    let disconnects = reg.counter(key::SERVE_DISCONNECTS);
    match &traced {
        Raw::Serve(_, stats) => registry_metrics(&mut out, *stats),
        Raw::OnDevice(ops, _) => {
            for op in ops {
                log.add("deploy.decode_with", Some(root), op.start, op.end, 0);
            }
            // No server ran: its counts are zero.
            registry_metrics(&mut out, ServeStats::default());
        }
    }

    let base = check_phase(untraced, 0, model);
    let hot = check_phase(traced, disconnects, model);
    let mut problems = base.problems.clone();
    problems.extend(hot.problems.iter().cloned());
    require_operations(&base, "untraced replay", &mut problems);
    require_operations(&hot, "traced replay", &mut problems);
    problems.extend(check_dense(model, want, cfg.seed, &mut notes));
    out.insert(
        "trace.overhead_pct",
        100.0 * (base.frames_per_s() - hot.frames_per_s()) / base.frames_per_s().max(1e-9),
    );

    // A single paced stream alone on the same server: the latency floor the
    // event loop imposes (its idle sleep shows here).
    let single = {
        let shape = ServeShape {
            lanes: w.lanes(),
            conns: 1,
            open_loop: true,
            hypotheses: false,
        };
        let length = Duration::from_micros(HOP_US * scale.single_stream_frames as u64);
        let t0 = Instant::now();
        let (tally, stats) = serve_phase(inputs, shape, Duration::ZERO, Bound::Time(length), None);
        log.add("probe.single_stream", Some(root), t0, Instant::now(), 0);
        check_serve(tally, &stats, 0)
    };
    problems.extend(single.problems.iter().cloned());
    out.insert(
        "serve.single_stream_rtt_p50_us",
        percentile(&single.latency_us, 0.5),
    );

    // Wire-side numbers come from the untraced replay.
    let lat = &base.latency_us;
    let p50 = base.latency_p50();
    out.insert("serve.frame_latency_p90_us", percentile(lat, 0.90));
    out.insert("serve.frame_latency_p99_us", percentile(lat, 0.99));
    out.insert(
        "serve.frame_latency_max_us",
        lat.last().copied().unwrap_or(0.0),
    );
    let misses = lat.iter().filter(|&&l| l > HOP_US as f64).count() as u64 + base.failed;
    out.insert(
        "serve.slo_miss_share",
        misses as f64 / (lat.len() as u64 + base.failed).max(1) as f64,
    );
    // In process nothing is admitted; the single-stream server's admission
    // wait stands in so the metric is measured on every workload.
    let admit = if base.admit_wait_us.is_empty() {
        &single.admit_wait_us
    } else {
        &base.admit_wait_us
    };
    out.insert("serve.admit_wait_p50_us", percentile(admit, 0.5));
    out.insert("serve.gen_late_p50_us", percentile(&base.gen_late_us, 0.5));
    out.insert("serve.gen_late_p99_us", percentile(&base.gen_late_us, 0.99));

    // The layer replay.
    let t_layers = Instant::now();
    let layers_span = log.open("layers", Some(root), t_layers, 0);
    out.extend(layers::replay(
        w,
        model,
        want,
        scale,
        cfg.seed,
        &mut log,
        layers_span,
    ));
    log.close(layers_span, Instant::now());
    out.insert(
        "serve.loop_residual_us",
        p50 - out["deploy.step_decoded_us"],
    );
    speech_metrics(&mut out, model, want);

    // Set-up steps. The pipeline's training and pruning are probed on every
    // workload (same task, same seed), so the rnn / pruning layers are
    // measured wherever the ledger is printed.
    let mut times = model.times;
    if !matches!(w.model, ModelKind::Pipeline) {
        let t0 = Instant::now();
        let task = model::pipeline_task(cfg.seed, scale);
        model::train_and_prune(&task, cfg.seed, scale, &mut times);
        log.add("probe.train_and_prune", Some(root), t0, Instant::now(), 0);
    }
    out.insert("rnn.train_s", times.train_s);
    out.insert("pruning.bsp_admm_s", times.admm_s);
    out.insert("pruning.kept_params", times.kept_params as f64);
    out.insert("speech.corpus_gen_s", times.corpus_gen_s);
    out.insert("deploy.compile_s", times.compile_s);
    out.insert("bundle.write_s", times.write_s);
    out.insert("bundle.load_s", times.load_s);
    out.insert("bundle.bytes", model.model_bytes as f64);
    model.cleanup();

    // Spans: close the root, print self times, write the Chrome trace.
    log.close(root, Instant::now());
    log.publish();
    let all = reg.spans();
    notes.push(format!(
        "replayed {} streams twice: {:.1} frames/s untraced, {:.1} traced",
        streams,
        base.frames_per_s(),
        hot.frames_per_s()
    ));
    notes.push("self time by span (count, total us, self us):".to_string());
    for (name, t) in spans::self_times(&all) {
        notes.push(format!(
            "  {name:<24} {:>8} {:>14.1} {:>14.1}",
            t.count, t.total_us, t.self_us
        ));
    }
    let trace_path = model::work_dir().join(format!("trace-{}.json", w.name));
    match std::fs::write(&trace_path, reg.chrome_trace_json()) {
        Ok(()) => notes.push(format!("{} spans -> {}", all.len(), trace_path.display())),
        Err(e) => problems.push(format!("cannot write {}: {e}", trace_path.display())),
    }
    reg.reset();

    let failed = base.failed + hot.failed + single.failed;
    RunResult {
        correct: problems.is_empty() && failed == 0,
        attempted: (base.attempted + hot.attempted + single.attempted).max(1),
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|m| {
                let v = out
                    .get(m.name)
                    .unwrap_or_else(|| panic!("no probe produced {}", m.name));
                (m, *v)
            })
            .collect(),
        problems,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_scales_with_the_window_and_is_bounded() {
        assert_eq!(warmup_for(1.0), Duration::from_millis(100));
        assert_eq!(warmup_for(10.0), Duration::from_millis(500));
        assert_eq!(warmup_for(60.0), Duration::from_millis(500));
        assert_eq!(warmup_for(0.1), Duration::from_millis(50));
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(
            peak_rss_mb() > 1.0,
            "a running test binary holds some memory"
        );
    }

    #[test]
    fn window_is_half_open() {
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_millis(5);
        assert!(in_window(t0, (t0, t1)));
        assert!(!in_window(t1, (t0, t1)));
        assert_eq!(us(t1, t0), 0.0, "never negative");
    }
}

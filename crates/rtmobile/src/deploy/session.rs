//! Lane scheduling over the production frame loop: [`BatchedSession`]
//! admits, steps and retires streams; the arithmetic lives in
//! [`CompiledNetwork::forward_frame_batch`].

use super::layer::GruRuntimeScratch;
use super::network::CompiledNetwork;
use crate::health::HealthPolicy;
use crate::serve::{AdmissionConfig, ServeStats, ShedPolicy, StreamFault};
use rtm_exec::ExecError;
use rtm_tensor::Vector;
use std::collections::VecDeque;

/// Removes lane `j` from a lane-major `[rows × b]` buffer in place,
/// shifting lanes above `j` down by one (the compaction a stream
/// retirement triggers). Pure data movement — surviving lanes keep their
/// exact bit patterns.
fn remove_lane(buf: &mut Vec<f32>, b: usize, j: usize) {
    debug_assert!(j < b && buf.len().is_multiple_of(b));
    if b == 1 {
        // The last lane: nothing survives, and a call per (empty) row would
        // cost 20 µs at hidden 1024.
        buf.clear();
        return;
    }
    let rows = buf.len() / b;
    // The survivors between lane `j` of row `i` and lane `j` of row `i + 1`
    // are contiguous and move down by `i + 1` as one run.
    for i in 0..rows {
        let run = i * b + j + 1..((i + 1) * b + j).min(buf.len());
        buf.copy_within(run, i * (b - 1) + j);
    }
    buf.truncate(rows * (b - 1));
}

/// Appends a zero-initialized lane to a lane-major `[rows × b]` buffer in
/// place (admission of a fresh stream, whose hidden state starts at zero).
fn add_lane(buf: &mut Vec<f32>, b: usize, rows: usize) {
    debug_assert!(buf.len() == rows * b);
    buf.resize(rows * (b + 1), 0.0);
    if b == 0 {
        // The first lane: the resize wrote its zeros, nothing moves.
        return;
    }
    // Top row first: a row only moves up, onto rows already moved.
    for i in (0..rows).rev() {
        buf.copy_within(i * b..(i + 1) * b, i * (b + 1));
        buf[i * (b + 1) + b] = 0.0;
    }
}

/// A multi-stream inference session: up to `capacity` utterances advance
/// in lockstep through one weight-stationary batched pass per frame.
///
/// Scheduling policy: waiting streams park in arrival order; a stream is
/// admitted to a free lane whenever one exists, runs one frame per batched
/// step, and retires when its frames are exhausted. Retirement compacts
/// the lane-major state buffers (surviving lanes shift down, preserving
/// their bit patterns) so the batch never carries dead lanes, and the
/// freed lane is immediately re-admittable — streams of different lengths
/// therefore keep the batch full until the tail drains.
///
/// Lane contract: every stream's logits are bit-identical to a serial
/// [`CompiledNetwork::forward`] of that stream alone, for any capacity,
/// admission order, thread count and simd policy. The fault paths preserve
/// it: quarantining lane `j` is pure data movement on the other lanes, and
/// shedding removes a stream before it ever touches a lane.
///
/// Fault behaviour (DESIGN.md §10): with a scanning [`HealthPolicy`] the
/// session checks every layer's states and the logits after each batched
/// step; a faulty lane is recorded (`Check`) or retired (`Quarantine`)
/// while the other lanes continue untouched. With a bounded
/// [`AdmissionConfig`] the parked backlog is capped and the excess shed
/// under the configured [`ShedPolicy`]; every decision lands in
/// [`ServeStats`].
pub struct BatchedSession<'a> {
    net: std::sync::Arc<CompiledNetwork>,
    exec: &'a rtm_exec::Executor,
    capacity: usize,
    health: HealthPolicy,
    admission: AdmissionConfig,
    stats: ServeStats,
    /// Counter values already flushed to the trace registry (so repeated
    /// [`BatchedSession::trace_flush`] calls add each delta exactly once).
    trace_flushed: ServeStats,
    faults: Vec<StreamFault>,
    /// Configured utterance decoder; `None` serves logits only (the
    /// pre-decoder behaviour, zero decode overhead).
    decoder: Option<crate::config::DecoderChoice>,
    /// `token -> live decoder state` for lanes admitted while a decoder is
    /// configured. Token-keyed, so lane compaction never touches it.
    decoders: std::collections::BTreeMap<usize, Box<dyn rtm_speech::Decoder + Send>>,
    /// Final hypotheses collected by [`BatchedSession::run`] at stream
    /// completion, keyed by stream index.
    run_hyps: Vec<(usize, rtm_speech::Hypothesis)>,
    /// `lane -> caller token` (the stream index in [`BatchedSession::run`],
    /// a connection id under the incremental API).
    lanes: Vec<usize>,
    /// `lane -> frames served so far` (the next frame cursor).
    cursors: Vec<usize>,
    /// Per-layer lane-major hidden states `[hidden × lanes.len()]`.
    states: Vec<Vec<f32>>,
    /// Per-layer gathered sub-batch states for steps where only a subset
    /// of lanes has a frame ready.
    sub_states: Vec<Vec<f32>>,
    scratch: GruRuntimeScratch,
    xs: Vec<f32>,
    hs_next: Vec<f32>,
    logits: Vec<f32>,
    /// `frame -> lane` of the step in progress.
    step_lanes: Vec<usize>,
    /// `lane -> stepped yet?`, the duplicate check of an unaligned step.
    seen: Vec<bool>,
    /// `frame -> quarantined this step?`.
    condemned: Vec<bool>,
}

/// What one incremental [`BatchedSession::step`] produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepOutput {
    /// `(token, logit row)` for every frame served this step, in the order
    /// the frames were passed. A quarantined token's faulty frame yields no
    /// row.
    pub logits: Vec<(usize, Vec<f32>)>,
    /// Tokens whose lanes the health policy retired this step (their
    /// state is gone; do not step them again).
    pub quarantined: Vec<usize>,
    /// Partial hypotheses the per-lane decoders emitted this step (empty
    /// unless [`BatchedSession::with_decoder`] configured one): a lane
    /// appears here only when its partial decode changed — new symbols or
    /// an endpoint transition.
    pub hypotheses: Vec<(usize, rtm_speech::Hypothesis)>,
}

impl<'a> BatchedSession<'a> {
    /// A session over `net` with at most `capacity` concurrent lanes.
    ///
    /// Clones the network into a private [`Arc`](std::sync::Arc); when the
    /// caller already holds the network under an `Arc` (the hot-swap path
    /// of `rtm serve`), use [`BatchedSession::shared`] to share it without
    /// copying weights.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(
        net: &CompiledNetwork,
        exec: &'a rtm_exec::Executor,
        capacity: usize,
    ) -> BatchedSession<'a> {
        BatchedSession::shared(std::sync::Arc::new(net.clone()), exec, capacity)
    }

    /// [`BatchedSession::new`] over an already-shared network: the session
    /// holds a reference-counted handle, so many sessions (and a reloader
    /// holding the next generation) can coexist without weight copies.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn shared(
        net: std::sync::Arc<CompiledNetwork>,
        exec: &'a rtm_exec::Executor,
        capacity: usize,
    ) -> BatchedSession<'a> {
        assert!(capacity > 0, "batch capacity must be at least 1");
        let layer_count = net.layers.len();
        BatchedSession {
            net,
            exec,
            capacity,
            health: HealthPolicy::Off,
            admission: AdmissionConfig::default(),
            stats: ServeStats::default(),
            trace_flushed: ServeStats::default(),
            faults: Vec::new(),
            decoder: None,
            decoders: std::collections::BTreeMap::new(),
            run_hyps: Vec::new(),
            lanes: Vec::with_capacity(capacity),
            cursors: Vec::with_capacity(capacity),
            states: (0..layer_count).map(|_| Vec::new()).collect(),
            sub_states: (0..layer_count).map(|_| Vec::new()).collect(),
            scratch: GruRuntimeScratch::new(),
            xs: Vec::new(),
            hs_next: Vec::new(),
            logits: Vec::new(),
            step_lanes: Vec::with_capacity(capacity),
            seen: Vec::with_capacity(capacity),
            condemned: Vec::with_capacity(capacity),
        }
    }

    /// The lane capacity this session batches up to.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sets the numerical-health policy for subsequent runs.
    pub fn with_health(mut self, health: HealthPolicy) -> BatchedSession<'a> {
        self.health = health;
        self
    }

    /// Sets the admission-control bounds for subsequent runs.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> BatchedSession<'a> {
        self.admission = admission;
        self
    }

    /// The admission-control bounds in force.
    pub fn admission(&self) -> AdmissionConfig {
        self.admission
    }

    /// Attaches a per-lane utterance decoder: every lane admitted from now
    /// on gets its own decoder of this kind, fed each logits row the lane
    /// produces. Partial hypotheses surface in [`StepOutput::hypotheses`];
    /// final ones via [`BatchedSession::finish_decode`] (or
    /// [`BatchedSession::run_decoded`] offline). Decoding never perturbs
    /// the logits — the per-lane bit-identity contract is unchanged.
    pub fn with_decoder(mut self, decoder: crate::config::DecoderChoice) -> BatchedSession<'a> {
        self.decoder = Some(decoder);
        self
    }

    /// The configured decoder choice, if any.
    pub fn decoder(&self) -> Option<crate::config::DecoderChoice> {
        self.decoder
    }

    /// Serving counters of the most recent [`BatchedSession::run`].
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Numeric faults the health scan attributed during the most recent
    /// [`BatchedSession::run`] (empty under [`HealthPolicy::Off`]).
    pub fn faults(&self) -> &[StreamFault] {
        &self.faults
    }

    /// Lanes currently in flight.
    pub fn active_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Whether every lane is taken.
    pub fn is_full(&self) -> bool {
        self.lanes.len() >= self.capacity
    }

    /// The tokens currently holding lanes, in lane order.
    pub fn tokens(&self) -> &[usize] {
        &self.lanes
    }

    /// Frames served so far for `token`'s lane, `None` if it holds none.
    pub fn frames_served(&self, token: usize) -> Option<usize> {
        self.lane_of(token).map(|j| self.cursors[j])
    }

    fn lane_of(&self, token: usize) -> Option<usize> {
        self.lanes.iter().position(|&t| t == token)
    }

    /// Admits `token` into a free lane with zero hidden state. Returns
    /// `false` (and changes nothing) when the session is full. Counts into
    /// [`ServeStats::admitted`].
    ///
    /// # Panics
    ///
    /// Panics if `token` already holds a lane — tokens address lanes, so a
    /// duplicate would make [`BatchedSession::step`] ambiguous.
    pub fn admit(&mut self, token: usize) -> bool {
        if self.is_full() {
            return false;
        }
        assert!(
            self.lane_of(token).is_none(),
            "token {token} already holds a lane"
        );
        let b = self.lanes.len();
        for (state, layer) in self.states.iter_mut().zip(&self.net.layers) {
            add_lane(state, b, layer.hidden);
        }
        self.lanes.push(token);
        self.cursors.push(0);
        self.stats.admitted += 1;
        if let Some(choice) = self.decoder {
            self.decoders
                .insert(token, choice.build(self.net.head_b.len()));
        }
        true
    }

    /// Finalizes and removes `token`'s lane decoder, returning its final
    /// hypothesis. `None` when the token has no live decoder (no decoder
    /// configured, never admitted, quarantined, or already finalized).
    /// Call after [`BatchedSession::retire`] when the stream ends cleanly;
    /// for an aborted stream, call and discard to free the state.
    pub fn finish_decode(&mut self, token: usize) -> Option<rtm_speech::Hypothesis> {
        self.decoders.remove(&token).map(|mut d| d.finish())
    }

    /// Retires `token`'s lane, compacting the state planes (pure data
    /// movement — the other lanes keep their bit patterns). Returns whether
    /// the token held a lane. Completion is the caller's call: pair with
    /// [`BatchedSession::mark_completed`] when the stream finished cleanly.
    pub fn retire(&mut self, token: usize) -> bool {
        let Some(j) = self.lane_of(token) else {
            return false;
        };
        let nb = self.lanes.len();
        for state in &mut self.states {
            remove_lane(state, nb, j);
        }
        self.lanes.remove(j);
        self.cursors.remove(j);
        true
    }

    /// Retires every lane at once (shutdown), returning the evicted tokens
    /// in lane order.
    pub fn drain(&mut self) -> Vec<usize> {
        for s in &mut self.states {
            s.clear();
        }
        self.cursors.clear();
        self.decoders.clear();
        std::mem::take(&mut self.lanes)
    }

    /// Counts a cleanly finished stream into [`ServeStats::completed`].
    pub fn mark_completed(&mut self) {
        self.stats.completed += 1;
    }

    /// Counts a stream shed at admission into [`ServeStats::shed`].
    pub fn mark_shed(&mut self) {
        self.stats.shed += 1;
    }

    /// Counts a stream admitted past its deadline budget into
    /// [`ServeStats::deadline_missed`].
    pub fn mark_deadline_missed(&mut self) {
        self.stats.deadline_missed += 1;
    }

    /// Advances the given lanes one frame each through a single batched
    /// weight pass. `frames` pairs each token with its next input frame —
    /// pass only the lanes that have one ready (a continuous-batching
    /// scheduler calls this with whatever arrived since the last tick;
    /// lanes left out simply keep their state). Admission order, subset
    /// choice and capacity never change a served lane's numbers: each
    /// lane's logits stay bit-identical to a serial
    /// [`CompiledNetwork::forward`] of that stream alone, because the
    /// batched kernels honour the per-lane contract at any width and the
    /// gather/scatter between the resident planes and the stepped sub-batch
    /// is pure data movement.
    ///
    /// Under a scanning [`HealthPolicy`] the stepped lanes' states and
    /// logits are checked; `Quarantine` retires a faulty lane on the spot
    /// (reported in [`StepOutput::quarantined`], counted in
    /// [`ServeStats::quarantined`], recorded in [`BatchedSession::faults`]).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Shape`] when a frame's width disagrees with the
    /// model and [`ExecError::WorkerPanicked`] if a kernel task panics; the
    /// lanes' states are unspecified afterwards.
    ///
    /// The step's working buffers are the session's own: in steady state a
    /// step allocates only what the returned [`StepOutput`] holds (and what
    /// a configured decoder allocates).
    ///
    /// # Panics
    ///
    /// Panics if a token holds no lane or appears twice in `frames`.
    pub fn step(&mut self, frames: &[(usize, &[f32])]) -> Result<StepOutput, ExecError> {
        let r = frames.len();
        if r == 0 {
            return Ok(StepOutput::default());
        }
        let mut out = StepOutput {
            logits: Vec::with_capacity(r),
            ..StepOutput::default()
        };
        let b = self.lanes.len();
        let classes = self.net.head_b.len();
        let lanes = &self.lanes;
        let lane_of = &mut self.step_lanes;
        lane_of.clear();
        lane_of.extend(frames.iter().map(|&(token, _)| {
            lanes
                .iter()
                .position(|&t| t == token)
                .expect("token holds no lane")
        }));
        // The all-lanes-in-order case (every lockstep caller, and any tick
        // where all streams kept up) steps the resident planes directly;
        // a proper subset steps through gathered sub-batch planes.
        let aligned = r == b && lane_of.iter().enumerate().all(|(jj, &j)| jj == j);
        if !aligned {
            let seen = &mut self.seen;
            seen.clear();
            seen.resize(b, false);
            for &j in lane_of.iter() {
                assert!(!seen[j], "token {} stepped twice", lanes[j]);
                seen[j] = true;
            }
            let _span = rtm_trace::span("deploy.lane_gather");
            for (plane, sub) in self.states.iter().zip(self.sub_states.iter_mut()) {
                let rows = plane.len() / b;
                sub.clear();
                sub.resize(rows * r, 0.0);
                for i in 0..rows {
                    for (jj, &j) in lane_of.iter().enumerate() {
                        sub[i * r + jj] = plane[i * b + j];
                    }
                }
            }
        }
        // Gather this step's frames lane-major.
        let input_dim = frames[0].1.len();
        self.xs.clear();
        self.xs.resize(input_dim * r, 0.0);
        for (jj, &(_, frame)) in frames.iter().enumerate() {
            if frame.len() != input_dim {
                return Err(ExecError::Shape(rtm_tensor::ShapeError {
                    op: "batched step frame",
                    lhs: (input_dim, 1),
                    rhs: (frame.len(), 1),
                }));
            }
            for (i, &v) in frame.iter().enumerate() {
                self.xs[i * r + jj] = v;
            }
        }
        // One weight pass carries the ready lanes one frame forward.
        let trace = rtm_trace::enabled();
        let t0 = std::time::Instant::now();
        let net = std::sync::Arc::clone(&self.net);
        let stepped = if aligned {
            &mut self.states
        } else {
            &mut self.sub_states
        };
        net.forward_frame_batch(
            self.exec,
            &mut self.xs,
            r,
            stepped,
            &mut self.scratch,
            &mut self.hs_next,
            &mut self.logits,
        )?;
        let step_elapsed = t0.elapsed();
        self.stats.compute_ns += step_elapsed.as_nanos() as u64;
        if trace {
            rtm_trace::global().hist_record(
                rtm_trace::key::SERVE_FRAME_US,
                step_elapsed.as_secs_f64() * 1e6,
            );
        }
        self.stats.frames += 1;
        if !aligned {
            // Scatter the advanced states back into the resident planes.
            let _span = rtm_trace::span("deploy.lane_scatter");
            for (plane, sub) in self.states.iter_mut().zip(&self.sub_states) {
                let rows = plane.len() / b;
                for i in 0..rows {
                    for (jj, &j) in lane_of.iter().enumerate() {
                        plane[i * b + j] = sub[i * r + jj];
                    }
                }
            }
        }
        // Health scan over the stepped lanes' planes and logits. Lanes are
        // arithmetically independent, so a fault in one implies nothing
        // about the others — only faulty lanes are condemned.
        let lane_of = &self.step_lanes;
        let condemned = &mut self.condemned;
        condemned.clear();
        condemned.resize(r, false);
        if self.health.scans() {
            let stepped: &[Vec<f32>] = if aligned {
                &self.states
            } else {
                &self.sub_states
            };
            for (jj, lane_condemned) in condemned.iter_mut().enumerate() {
                let fault = stepped
                    .iter()
                    .find_map(|plane| crate::health::scan_lane(plane, r, jj))
                    .or_else(|| crate::health::scan_lane(&self.logits, r, jj));
                if let Some(fault) = fault {
                    self.faults.push(StreamFault {
                        stream: frames[jj].0,
                        frame: self.cursors[lane_of[jj]],
                        fault,
                    });
                    if self.health == HealthPolicy::Quarantine {
                        *lane_condemned = true;
                        self.stats.quarantined += 1;
                    }
                }
            }
        }
        // Scatter logits per token and advance cursors; a condemned lane's
        // faulty frame produces no logits.
        for (jj, &(token, _)) in frames.iter().enumerate() {
            if condemned[jj] {
                out.quarantined.push(token);
                continue;
            }
            let row: Vec<f32> = (0..classes).map(|k| self.logits[k * r + jj]).collect();
            if let Some(dec) = self.decoders.get_mut(&token) {
                if let Some(hyp) = dec.push_frame(&row) {
                    if hyp.endpoint {
                        self.stats.endpoints += 1;
                    }
                    out.hypotheses.push((token, hyp));
                }
            }
            out.logits.push((token, row));
            self.cursors[lane_of[jj]] += 1;
            self.stats.stream_frames += 1;
        }
        for &token in &out.quarantined {
            self.retire(token);
            // A quarantined stream is dead; its partial decode goes too.
            self.decoders.remove(&token);
        }
        Ok(out)
    }

    /// Adds the counter deltas accumulated since the last flush to the
    /// process trace registry (no-op while tracing is off). Counters
    /// accumulate across runs in the registry even though
    /// [`BatchedSession::stats`] resets per run, so each delta is added
    /// exactly once. [`BatchedSession::run`] flushes automatically; callers
    /// of the incremental API flush at their own cadence.
    pub fn trace_flush(&mut self) {
        if !rtm_trace::enabled() {
            return;
        }
        let (s, f) = (self.stats, self.trace_flushed);
        rtm_trace::global().counter_add_many(&[
            (
                rtm_trace::key::SERVE_ADMITTED,
                (s.admitted - f.admitted) as u64,
            ),
            (rtm_trace::key::SERVE_SHED, (s.shed - f.shed) as u64),
            (
                rtm_trace::key::SERVE_QUARANTINED,
                (s.quarantined - f.quarantined) as u64,
            ),
            (
                rtm_trace::key::SERVE_DEADLINE_MISSED,
                (s.deadline_missed - f.deadline_missed) as u64,
            ),
        ]);
        self.trace_flushed = s;
    }

    /// Runs every stream to completion, batching up to `capacity` of them
    /// per step, and returns per-stream per-frame logits in input order.
    /// Empty streams yield empty logit lists, as do streams shed by
    /// admission control; a quarantined stream's logits stop at its last
    /// healthy frame. Counters land in [`BatchedSession::stats`], observed
    /// faults in [`BatchedSession::faults`].
    ///
    /// This is the offline lockstep replay of the incremental API: every
    /// stream arrives at once, every admitted lane has a frame ready at
    /// every step.
    pub fn run<S: AsRef<[Vec<f32>]>>(&mut self, streams: &[S]) -> Vec<Vec<Vec<f32>>> {
        let mut out: Vec<Vec<Vec<f32>>> = streams
            .iter()
            .map(|s| Vec::with_capacity(s.as_ref().len()))
            .collect();
        self.drain();
        self.stats = ServeStats::default();
        self.trace_flushed = ServeStats::default();
        self.faults.clear();
        self.run_hyps.clear();
        // Every (non-empty) stream arrives at once in this offline replay;
        // the parked backlog holds them in input order until a lane frees.
        let mut parked: VecDeque<usize> = (0..streams.len())
            .filter(|&i| !streams[i].as_ref().is_empty())
            .collect();
        let mut step = 0usize;
        // Resolve the trace switch once — this is the serving hot loop.
        let trace = rtm_trace::enabled();
        loop {
            // Admit parked streams into free lanes (oldest first).
            while !self.is_full() {
                let Some(next) = parked.pop_front() else {
                    break;
                };
                self.admit(next);
                if self.admission.deadline_steps.is_some_and(|d| step > d) {
                    self.mark_deadline_missed();
                }
            }
            // Overload shedding: cap the backlog that survived admission.
            while parked.len() > self.admission.queue_depth {
                let victim = match self.admission.shed {
                    ShedPolicy::RejectNew => parked.pop_back(),
                    ShedPolicy::DropOldest => parked.pop_front(),
                };
                debug_assert!(victim.is_some());
                self.mark_shed();
            }
            if trace {
                rtm_trace::global()
                    .gauge_set(rtm_trace::key::SERVE_QUEUE_DEPTH, parked.len() as f64);
            }
            if self.lanes.is_empty() {
                break;
            }
            // Every lane has a frame ready in lockstep replay.
            let ready: Vec<(usize, &[f32])> = self
                .lanes
                .iter()
                .zip(&self.cursors)
                .map(|(&s, &c)| (s, streams[s].as_ref()[c].as_slice()))
                .collect();
            let served = match self.step(&ready) {
                Ok(served) => served,
                Err(ExecError::Shape(e)) => panic!("frame dim mismatch across streams: {e}"),
                Err(e) => panic!("batched step failed: {e:?}"),
            };
            for (s, row) in served.logits {
                out[s].push(row);
            }
            // Retire exhausted streams (quarantined lanes already left).
            for j in (0..self.lanes.len()).rev() {
                if self.cursors[j] == streams[self.lanes[j]].as_ref().len() {
                    let token = self.lanes[j];
                    self.retire(token);
                    if let Some(hyp) = self.finish_decode(token) {
                        self.run_hyps.push((token, hyp));
                    }
                    self.mark_completed();
                }
            }
            step += 1;
        }
        self.trace_flush();
        out
    }

    /// [`BatchedSession::run`] followed by per-frame argmax per stream.
    pub fn predict<S: AsRef<[Vec<f32>]>>(&mut self, streams: &[S]) -> Vec<Vec<usize>> {
        self.run(streams)
            .iter()
            .map(|logits| logits.iter().map(|l| Vector::argmax(l)).collect())
            .collect()
    }

    /// [`BatchedSession::run`], also collecting each stream's final
    /// hypothesis from its lane decoder. A stream that was empty, shed by
    /// admission control, or quarantined yields `None`. The hypotheses are
    /// streamed frame-by-frame through the lane decoders, so they are
    /// bit-identical to an offline [`rtm_speech::decode_offline`] over the
    /// returned logits.
    ///
    /// # Panics
    ///
    /// Panics if no decoder is configured
    /// ([`BatchedSession::with_decoder`]).
    #[allow(clippy::type_complexity)]
    pub fn run_decoded<S: AsRef<[Vec<f32>]>>(
        &mut self,
        streams: &[S],
    ) -> (Vec<Vec<Vec<f32>>>, Vec<Option<rtm_speech::Hypothesis>>) {
        assert!(
            self.decoder.is_some(),
            "no decoder configured; call with_decoder first"
        );
        let logits = self.run(streams);
        let mut hyps: Vec<Option<rtm_speech::Hypothesis>> =
            (0..streams.len()).map(|_| None).collect();
        for (s, h) in self.run_hyps.drain(..) {
            hyps[s] = Some(h);
        }
        (logits, hyps)
    }
}

#[cfg(test)]
mod tests {
    use super::{add_lane, remove_lane};

    /// The element-by-element compaction `remove_lane` replaces.
    fn remove_lane_oracle(buf: &mut Vec<f32>, b: usize, j: usize) {
        let rows = buf.len() / b;
        let mut w = 0;
        for i in 0..rows {
            for l in 0..b {
                if l != j {
                    buf[w] = buf[i * b + l];
                    w += 1;
                }
            }
        }
        buf.truncate(w);
    }

    /// The element-by-element widening `add_lane` replaces.
    fn add_lane_oracle(buf: &mut Vec<f32>, b: usize, rows: usize) {
        buf.resize(rows * (b + 1), 0.0);
        for i in (0..rows).rev() {
            buf[i * (b + 1) + b] = 0.0;
            for l in (0..b).rev() {
                buf[i * (b + 1) + l] = buf[i * b + l];
            }
        }
    }

    fn bits(buf: &[f32]) -> Vec<u32> {
        buf.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn lane_moves_match_the_element_loops_bit_for_bit() {
        let payload = f32::from_bits(0x7FA5_A5A5);
        for b in [1usize, 2, 8, 31, 32, 33] {
            for rows in [1usize, 3, 17] {
                // Distinct values, a NaN payload and a `-0.0` in every row.
                let plane: Vec<f32> = (0..rows * b)
                    .map(|e| match e % 7 {
                        3 => payload,
                        5 => -0.0,
                        _ => e as f32 + 0.5,
                    })
                    .collect();
                for j in [0, b / 2, b - 1] {
                    let (mut got, mut want) = (plane.clone(), plane.clone());
                    remove_lane(&mut got, b, j);
                    remove_lane_oracle(&mut want, b, j);
                    assert_eq!(bits(&got), bits(&want), "remove b={b} rows={rows} j={j}");
                }
                let (mut got, mut want) = (plane.clone(), plane.clone());
                add_lane(&mut got, b, rows);
                add_lane_oracle(&mut want, b, rows);
                assert_eq!(bits(&got), bits(&want), "add b={b} rows={rows}");
            }
        }
        for rows in [1usize, 3, 17] {
            let (mut got, mut want) = (Vec::new(), Vec::new());
            add_lane(&mut got, 0, rows);
            add_lane_oracle(&mut want, 0, rows);
            assert_eq!(bits(&got), bits(&want), "first lane, rows={rows}");
        }
    }
}

//! The load generator: a seeded schedule and a single-threaded,
//! non-blocking, multiplexed client for the `rtm serve` wire protocol.
//!
//! One thread drives every connection of a workload (the server has the
//! other core), written on the public `serve::protocol::{put_client_msg,
//! ServerMsg::decode}` and `rtm_tensor::wire::FrameDecoder`. Each slot
//! replays utterances back to back, one connection per utterance
//! (`Start … End`/`Done`, reconnect), so every stream starts from a zero
//! state and can be checked against one precomputed serial forward of its
//! utterance.
//!
//! Two disciplines:
//! - **open loop** — frame *t* of every slot is due at `base + t · hop`,
//!   ticks aligned across slots, and is sent then whether or not reply
//!   *t − 1* arrived; a finished utterance sends `End` on its tick and the
//!   next tick opens the next utterance on a fresh connection;
//! - **closed loop** — the next frame goes out when the reply to the
//!   previous one has been decoded; after `Done` the slot reconnects.
//!
//! Every reply is compared with the oracle's reference the moment it is
//! decoded (a few dozen word compares) and tallied on the spot — one
//! latency sample per frame into storage sized and touched before the run —
//! so the process's memory is the program's, not a function of how many
//! frames the benchmark happened to push. In the traced replay the same
//! timestamps also become spans.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rtm_speech::corpus::Utterance;
use rtm_tensor::rng::StdRng;
use rtm_tensor::wire::FrameDecoder;
use rtmobile::serve::client::WireHypothesis;
use rtmobile::serve::protocol::{put_client_msg, ClientMsg, ServerMsg};

use crate::oracle::{note_problem, same_bits, same_hypothesis, Expected};
use crate::spans::{SpanLog, STREAM_TID_BASE};
use crate::stats::micros;

/// The utterance order of a run: seeded permutations of `0..n`, one after
/// another, so every utterance is replayed equally often. Deterministic
/// per seed.
#[derive(Debug, Clone)]
pub struct Schedule {
    rng: StdRng,
    n: usize,
    pass: Vec<usize>,
}

impl Schedule {
    /// A schedule over `n` utterances.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(seed: u64, n: usize) -> Schedule {
        assert!(n > 0, "a schedule needs at least one utterance");
        Schedule {
            rng: StdRng::seed_from_u64(seed ^ 0x5ced_01e5),
            n,
            pass: Vec::new(),
        }
    }

    /// The next utterance index.
    pub fn next_utterance(&mut self) -> usize {
        if self.pass.is_empty() {
            self.pass = (0..self.n).collect();
            for i in 0..self.n {
                let j = self.rng.gen_range(i..self.n);
                self.pass.swap(i, j);
            }
        }
        self.pass.pop().expect("pass was just refilled")
    }
}

/// An utterance's frames pre-encoded as `Frame` wire messages, so the
/// timed loop sends bytes it did not have to build.
#[derive(Debug, Clone)]
pub struct WireUtterance {
    frames: Vec<Vec<u8>>,
}

/// Pre-encodes every utterance with `put_client_msg`.
pub fn encode_utterances(utterances: &[Utterance]) -> Vec<WireUtterance> {
    utterances
        .iter()
        .map(|u| WireUtterance {
            frames: u
                .frames
                .iter()
                .map(|f| {
                    let mut out = Vec::new();
                    put_client_msg(&mut out, &ClientMsg::Frame(f.clone()));
                    out
                })
                .collect(),
        })
        .collect()
}

/// When the measured phase of a run ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Streams stop opening this long after the window opens.
    Time(Duration),
    /// Exactly this many streams are opened (the traced replay: its counts
    /// repeat exactly).
    Streams(usize),
}

impl Bound {
    /// When the measured window opens and — if that is known in advance —
    /// when it closes, for a run starting at `t_start`.
    pub fn window(self, t_start: Instant, warmup: Duration) -> (Instant, Option<Instant>) {
        match self {
            Bound::Time(d) => (t_start + warmup, Some(t_start + warmup + d)),
            Bound::Streams(_) => (t_start, None),
        }
    }

    /// Whether no further stream may be opened at `now`, `streams` having
    /// been opened so far.
    pub fn reached(self, close_target: Option<Instant>, now: Instant, streams: usize) -> bool {
        match self {
            Bound::Time(_) => close_target.is_some_and(|c| now >= c),
            Bound::Streams(n) => streams >= n,
        }
    }
}

/// What to drive.
#[derive(Debug)]
pub struct Plan<'a> {
    /// The server.
    pub addr: SocketAddr,
    /// Pre-encoded utterances.
    pub utterances: &'a [WireUtterance],
    /// What each utterance must produce (same indexing).
    pub want: &'a [Expected],
    /// Utterance order.
    pub schedule: Schedule,
    /// Concurrent slots (connections).
    pub conns: usize,
    /// Open loop on `hop`, or closed loop.
    pub open_loop: bool,
    /// Opt every stream into `WantHypotheses`.
    pub hypotheses: bool,
    /// Frame hop of the open loop.
    pub hop: Duration,
    /// Excluded lead-in before the window opens (`Bound::Time` only).
    pub warmup: Duration,
    /// End of the measured phase.
    pub bound: Bound,
    /// Where to record spans, and their parent (the traced replay).
    pub spans: Option<(&'a mut SpanLog, u64)>,
}

/// What a run measured. A frame belongs to the window when it was due
/// after the window opened and before streams stopped being issued.
#[derive(Debug)]
pub struct Tally {
    /// The measured window `[open, close)`.
    pub window: (Instant, Instant),
    /// The plan's discipline (see [`Plan::open_loop`]).
    pub open_loop: bool,
    /// Streams opened over the whole run (lead-in and drain included).
    pub streams: usize,
    /// Frames due in the window.
    pub attempted: u64,
    /// Of those: no reply, a wrong reply, or part of a stream that failed.
    pub failed: u64,
    /// Per-frame latency of the window's answered frames, µs: due → reply
    /// decoded (open loop) or write → reply decoded (closed loop). A
    /// stream's first frame goes to `admit_wait_us` instead.
    pub latency_us: Vec<f32>,
    /// Stream opened → first reply decoded, µs.
    pub admit_wait_us: Vec<f32>,
    /// Due → the generator began the write, µs.
    pub gen_late_us: Vec<f32>,
    /// `(time, replies so far)` at every [`MARK_EVERY`]-th reply decoded in
    /// the window — what the block rate is computed from.
    pub marks: Vec<(Instant, u64)>,
    /// The first few things that went wrong.
    pub problems: Vec<String>,
}

/// A mark is dropped every this many replies.
pub const MARK_EVERY: u64 = 32;

/// Sample storage is sized for this many frames per second of window and
/// touched before the run, so memory does not follow throughput.
const SAMPLES_PER_SECOND: f64 = 60_000.0;

/// A frame on the wire, awaiting its reply.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    due: Instant,
    send_start: Instant,
    send_end: Instant,
    counted: bool,
}

struct Live {
    slot: usize,
    utterance: usize,
    opened: Instant,
    sock: TcpStream,
    decoder: FrameDecoder,
    /// Bytes a non-blocking write could not take yet.
    pending: Vec<u8>,
    /// Next frame index to send.
    next: usize,
    /// Frames whose complete reply has arrived.
    answered: usize,
    /// Sent, not yet answered, oldest first.
    in_flight: VecDeque<InFlight>,
    /// The logits of frame `answered` matched (its hypothesis is pending).
    logits_ok: bool,
    /// Counted frames of this stream that were answered correctly (they
    /// turn into failures if the stream fails later).
    counted_ok: u64,
    final_ok: Option<bool>,
    end_sent: Option<Instant>,
    ended: bool,
    closed: bool,
    span: Option<u64>,
}

struct Generator<'a> {
    plan: Plan<'a>,
    tally: Tally,
    live: Vec<Live>,
    start_msg: Vec<u8>,
    end_msg: Vec<u8>,
    /// Streams may still be opened.
    issuing: bool,
    open_at: Instant,
    /// End of the `Bound::Time` window.
    close_target: Option<Instant>,
    /// When issuing actually stopped.
    closed_at: Option<Instant>,
    /// Replies decoded inside the window so far.
    replies: u64,
    failures: usize,
}

/// More failed streams than this abort the run (a dead server must not
/// spin the reconnect loop until the deadline).
const MAX_FAILURES: usize = 64;

/// Hard stop for the drain after the measured phase.
const DRAIN_DEADLINE: Duration = Duration::from_secs(20);

/// Samples are kept as `f32` microseconds: half the storage, and 0.06 µs
/// of resolution at a second.
fn us(from: Instant, to: Instant) -> f32 {
    micros(from, to) as f32
}

/// A sample vector with its pages already touched.
fn presized(capacity: usize) -> Vec<f32> {
    let mut v = vec![1.0f32; capacity];
    v.clear();
    v
}

/// Runs `plan` to completion on the calling thread: lead-in, measured
/// phase, then a drain in which every open utterance finishes and collects
/// its `Done`.
pub fn drive(plan: Plan<'_>) -> Tally {
    let mut start_msg = Vec::new();
    put_client_msg(&mut start_msg, &ClientMsg::Start { tenant: 0 });
    if plan.hypotheses {
        put_client_msg(&mut start_msg, &ClientMsg::WantHypotheses);
    }
    let mut end_msg = Vec::new();
    put_client_msg(&mut end_msg, &ClientMsg::End);
    let window_s = match plan.bound {
        Bound::Time(d) => d.as_secs_f64(),
        // Length not known in advance; the storage grows if it must.
        Bound::Streams(_) => 1.0,
    };
    let frames = (window_s * SAMPLES_PER_SECOND) as usize;
    let t_start = Instant::now();
    let (open_at, close_target) = plan.bound.window(t_start, plan.warmup);
    let tally = Tally {
        window: (open_at, open_at),
        open_loop: plan.open_loop,
        streams: 0,
        attempted: 0,
        failed: 0,
        latency_us: presized(frames),
        gen_late_us: presized(frames),
        admit_wait_us: presized(frames / 16),
        marks: Vec::new(),
        problems: Vec::new(),
    };
    Generator {
        plan,
        tally,
        live: Vec::new(),
        start_msg,
        end_msg,
        issuing: true,
        open_at,
        close_target,
        closed_at: None,
        replies: 0,
        failures: 0,
    }
    .run(t_start)
}

impl Generator<'_> {
    fn run(mut self, t_start: Instant) -> Tally {
        let hop = self.plan.hop;
        // Aligned ticks: every slot's frame t is due at base + t * hop.
        let base = t_start + Duration::from_millis(1);
        let mut tick: u32 = 0;
        let mut buf = vec![0u8; 16 * 1024];

        if !self.plan.open_loop {
            for slot in 0..self.plan.conns {
                self.open_stream(slot, Instant::now());
            }
        }
        loop {
            let now = Instant::now();
            self.check_bound(now);
            if self.plan.open_loop {
                while now >= base + hop * tick {
                    for slot in 0..self.plan.conns {
                        self.tick_slot(slot, base + hop * tick);
                    }
                    tick += 1;
                }
            }
            self.poll(&mut buf);
            self.live.retain(|l| !l.closed);
            if !self.issuing && self.live.is_empty() {
                break;
            }
            let overdue = self
                .closed_at
                .is_some_and(|c| now.saturating_duration_since(c) >= DRAIN_DEADLINE);
            if overdue {
                for li in 0..self.live.len() {
                    self.end_stream(li, Some("no Done before the drain deadline".to_string()));
                }
                break;
            }
        }
        self.tally.window.1 = self.closed_at.unwrap_or_else(Instant::now);
        self.tally
    }

    /// Stops issuing once the bound is reached (or the server looks dead).
    fn check_bound(&mut self, now: Instant) {
        if !self.issuing {
            return;
        }
        let reached = self
            .plan
            .bound
            .reached(self.close_target, now, self.tally.streams);
        if reached || self.failures > MAX_FAILURES {
            self.issuing = false;
            // The window closes when issuing actually stopped, as measured.
            self.closed_at = Some(now);
        }
    }

    fn problem(&mut self, why: String) {
        note_problem(&mut self.tally.problems, why);
    }

    /// Open loop: what slot `slot` does on the tick due at `due`.
    fn tick_slot(&mut self, slot: usize, due: Instant) {
        let current = self
            .live
            .iter()
            .position(|l| !l.ended && !l.closed && l.slot == slot);
        match current {
            Some(li) => self.send_frame(li, due),
            None => self.open_stream(slot, due),
        }
    }

    /// Connects, sends `Start` (+ `WantHypotheses`) and the first frame —
    /// unless the measured phase is over.
    fn open_stream(&mut self, slot: usize, due: Instant) {
        let opened = Instant::now();
        self.check_bound(opened);
        if !self.issuing {
            return;
        }
        let utterance = self.plan.schedule.next_utterance();
        self.tally.streams += 1;
        let sock = TcpStream::connect(self.plan.addr).and_then(|s| {
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
            Ok(s)
        });
        let sock = match sock {
            Ok(sock) => sock,
            Err(e) => {
                self.problem(format!("utterance {utterance}: connect: {e}"));
                return self.stream_failed(slot);
            }
        };
        let span = self.plan.spans.as_mut().map(|(log, root)| {
            let tid = STREAM_TID_BASE + slot as u64;
            let stream = log.open("gen.stream", Some(*root), opened, tid);
            log.add("gen.connect", Some(stream), opened, Instant::now(), tid);
            stream
        });
        self.live.push(Live {
            slot,
            utterance,
            opened,
            sock,
            decoder: FrameDecoder::new(),
            pending: self.start_msg.clone(),
            next: 0,
            answered: 0,
            in_flight: VecDeque::new(),
            logits_ok: false,
            counted_ok: 0,
            final_ok: None,
            end_sent: None,
            ended: false,
            closed: false,
            span,
        });
        self.send_frame(self.live.len() - 1, due);
    }

    /// Sends the stream's next frame (behind anything still pending), and
    /// `End` right after the last one.
    fn send_frame(&mut self, li: usize, due: Instant) {
        let counted = self.issuing && due >= self.open_at;
        let l = &mut self.live[li];
        let frames = &self.plan.utterances[l.utterance].frames;
        let send_start = Instant::now();
        l.pending.extend_from_slice(&frames[l.next]);
        l.next += 1;
        if l.next == frames.len() {
            l.pending.extend_from_slice(&self.end_msg);
            l.ended = true;
        }
        let flushed = flush(l);
        let send_end = Instant::now();
        if l.ended {
            l.end_sent = Some(send_end);
        }
        l.in_flight.push_back(InFlight {
            due,
            send_start,
            send_end,
            counted,
        });
        if counted {
            self.tally.attempted += 1;
            self.tally.gen_late_us.push(us(due, send_start));
        }
        if let Err(e) = flushed {
            self.end_stream(li, Some(format!("write: {e}")));
        }
    }

    /// Closes stream `li`. With a problem (or a missing piece at `Done`)
    /// every frame the stream sent in the window counts as failed. In the
    /// closed loop the slot then moves on to its next utterance.
    fn end_stream(&mut self, li: usize, problem: Option<String>) {
        let l = &mut self.live[li];
        if l.closed {
            return;
        }
        l.closed = true;
        let (slot, utterance) = (l.slot, l.utterance);
        let unanswered = l.in_flight.iter().filter(|f| f.counted).count() as u64;
        let counted_ok = l.counted_ok;
        if let (Some((log, _)), Some(id)) = (self.plan.spans.as_mut(), l.span) {
            log.close(id, Instant::now());
        }
        if let Some(why) = problem {
            self.tally.failed += unanswered + counted_ok;
            self.problem(format!("utterance {utterance}: {why}"));
            self.stream_failed(slot);
        } else if !self.plan.open_loop {
            self.open_stream(slot, Instant::now());
        }
    }

    fn stream_failed(&mut self, slot: usize) {
        self.failures += 1;
        if !self.plan.open_loop && self.failures <= MAX_FAILURES {
            self.open_stream(slot, Instant::now());
        }
    }

    /// Reads every connection until it would block and handles what
    /// arrived. Connections opened while polling are polled in the same
    /// pass.
    fn poll(&mut self, buf: &mut [u8]) {
        let mut li = 0;
        while li < self.live.len() {
            if !self.live[li].closed {
                if let Err(why) = self.poll_one(li, buf) {
                    self.end_stream(li, Some(why));
                }
            }
            li += 1;
        }
    }

    fn poll_one(&mut self, li: usize, buf: &mut [u8]) -> Result<(), String> {
        let l = &mut self.live[li];
        if !l.pending.is_empty() {
            flush(l).map_err(|e| format!("write: {e}"))?;
        }
        let mut got = false;
        let mut eof = false;
        loop {
            match l.sock.read(buf) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    got = true;
                    l.decoder.push(&buf[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        while got && !self.live[li].closed {
            let payload = match self.live[li].decoder.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => break,
                Err(e) => return Err(format!("framing: {e}")),
            };
            let msg = ServerMsg::decode(&payload).map_err(|e| format!("decode: {e}"))?;
            self.on_msg(li, msg)?;
        }
        if eof && !self.live[li].closed {
            return Err("server closed the connection before Done".to_string());
        }
        Ok(())
    }

    /// Handles one server message.
    fn on_msg(&mut self, li: usize, msg: ServerMsg) -> Result<(), String> {
        let now = Instant::now();
        let l = &mut self.live[li];
        let want = &self.plan.want[l.utterance];
        let t = l.answered;
        match msg {
            ServerMsg::Hello { .. } => Ok(()),
            ServerMsg::Logits(row) => {
                let ok = want.logits.get(t).is_some_and(|w| same_bits(&row, w));
                if self.plan.hypotheses {
                    l.logits_ok = ok;
                    Ok(())
                } else {
                    self.frame_answered(li, now, ok)
                }
            }
            ServerMsg::Hypothesis {
                symbols,
                score,
                endpoint,
                is_final,
            } => {
                let hyp = WireHypothesis {
                    symbols,
                    score,
                    endpoint,
                    is_final,
                };
                if is_final {
                    l.final_ok = Some(same_hypothesis(&hyp, &want.final_hyp, true));
                    return Ok(());
                }
                let ok = l.logits_ok
                    && want
                        .partials
                        .get(t)
                        .is_some_and(|w| same_hypothesis(&hyp, w, false));
                self.frame_answered(li, now, ok)
            }
            ServerMsg::Done { frames } => {
                let sent = l.next;
                let problem = if frames as usize != sent || sent != want.logits.len() {
                    Some(format!(
                        "Done reported {frames} frames, {sent} sent, utterance has {}",
                        want.logits.len()
                    ))
                } else if !l.in_flight.is_empty() {
                    Some(format!("Done with {} frames unanswered", l.in_flight.len()))
                } else if self.plan.hypotheses && l.final_ok != Some(true) {
                    Some("final wire hypothesis missing or different from decode_with".to_string())
                } else {
                    None
                };
                if let (Some((log, _)), Some(id), Some(sent)) =
                    (self.plan.spans.as_mut(), l.span, l.end_sent)
                {
                    let tid = STREAM_TID_BASE + l.slot as u64;
                    log.add("gen.finish", Some(id), sent, now, tid);
                }
                self.end_stream(li, problem);
                Ok(())
            }
            ServerMsg::Reject { code } => Err(format!("rejected: {}", code.tag())),
        }
    }

    /// The oldest in-flight frame of stream `li` got its complete reply.
    fn frame_answered(&mut self, li: usize, now: Instant, ok: bool) -> Result<(), String> {
        let l = &mut self.live[li];
        let frame = l
            .in_flight
            .pop_front()
            .ok_or("more replies than frames sent")?;
        let first = l.answered == 0;
        l.answered += 1;
        if let (Some((log, _)), Some(id)) = (self.plan.spans.as_mut(), l.span) {
            let tid = STREAM_TID_BASE + l.slot as u64;
            let span = log.add("gen.frame", Some(id), frame.due, now, tid);
            log.add(
                "gen.send",
                Some(span),
                frame.send_start,
                frame.send_end,
                tid,
            );
        }
        if self.issuing && now >= self.open_at {
            if self.replies.is_multiple_of(MARK_EVERY) {
                self.tally.marks.push((now, self.replies));
            }
            self.replies += 1;
        }
        if frame.counted {
            if !ok {
                self.tally.failed += 1;
                let what = format!(
                    "utterance {} frame {}: reply differs from the serial forward / streaming decode",
                    l.utterance,
                    l.answered - 1
                );
                self.problem(what);
            } else {
                self.live[li].counted_ok += 1;
                if first {
                    // The first reply carries accept + admission: its own
                    // metric, not a steady-state frame.
                    let opened = self.live[li].opened;
                    self.tally.admit_wait_us.push(us(opened, now));
                } else {
                    let from = if self.plan.open_loop {
                        frame.due
                    } else {
                        frame.send_start
                    };
                    self.tally.latency_us.push(us(from, now));
                }
            }
        } else if !ok {
            // Outside the window a wrong reply still makes the run wrong.
            let what = format!(
                "utterance {} (outside the window): reply differs from its reference",
                self.live[li].utterance
            );
            self.problem(what);
        }
        if !self.plan.open_loop && !self.live[li].ended {
            self.send_frame(li, now);
        }
        Ok(())
    }
}

/// Writes as much of the pending bytes as the socket takes.
fn flush(l: &mut Live) -> std::io::Result<()> {
    let mut written = 0;
    while written < l.pending.len() {
        match l.sock.write(&l.pending[written..]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    l.pending.drain(..written);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seed: u64, n: usize, k: usize) -> Vec<usize> {
        let mut s = Schedule::new(seed, n);
        (0..k).map(|_| s.next_utterance()).collect()
    }

    #[test]
    fn schedule_is_deterministic_per_seed_and_differs_across_seeds() {
        assert_eq!(take(2020, 32, 200), take(2020, 32, 200));
        assert_ne!(take(2020, 32, 200), take(2021, 32, 200));
        // Every pass is a permutation: each utterance once per 32 draws.
        let order = take(7, 32, 96);
        for pass in order.chunks(32) {
            let mut seen = pass.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..32).collect::<Vec<_>>());
        }
        assert_ne!(order[..32], order[32..64], "passes are reshuffled");
    }

    #[test]
    fn utterances_encode_to_one_wire_frame_per_frame() {
        let u = Utterance {
            frames: vec![vec![0.5; 39]; 3],
            labels: vec![0; 3],
            phones: vec![0],
            speaker: 0,
            dialect: 0,
        };
        let wire = encode_utterances(&[u]);
        assert_eq!(wire[0].frames.len(), 3);
        let mut dec = FrameDecoder::new();
        dec.push(&wire[0].frames[1]);
        let payload = dec.next_frame().expect("framed").expect("complete");
        assert_eq!(
            ClientMsg::decode(&payload).expect("decodes"),
            ClientMsg::Frame(vec![0.5; 39])
        );
        assert_eq!(dec.pending(), 0);
    }
}

//! The `rtm serve` front end: a std-only, non-blocking TCP server with
//! continuous batching and zero-downtime model hot swap.
//!
//! One thread owns everything — the listener, every connection, and the
//! per-generation [`BatchedSession`]s — and spins a readiness loop: accept
//! until the listener would block, read every socket until it would block,
//! admit parked streams into free lanes, run **one** batched step over
//! whichever active streams have a frame buffered (the continuous-batching
//! core: lanes join and retire mid-flight, the batch never waits for
//! stragglers), then flush outboxes until they would block. A pass that
//! makes no progress ends in **one readiness wait**: a `poll(2)` over the
//! listener and every live connection (readable, plus writable while an
//! outbox holds unflushed bytes), capped at 5 ms so the stop flag, the
//! reloader and the trace gauges are still serviced while idle. A frame
//! that reaches an idle server is read the moment it lands. No
//! `epoll`/`mio`/`tokio` — non-blocking sockets plus a ~15-line `poll`
//! shim over the libc std already links (Linux and Android; every other
//! target sleeps a fixed 500 µs instead) is the whole event mechanism,
//! which keeps the server offline-safe and registry-free.
//!
//! Hot swap (DESIGN.md §15): the compiled network lives inside a
//! [`CompiledBundle`] behind an `Arc`, and the server keeps a stack of
//! **generation slots**, each pairing a bundle with its own
//! [`BatchedSession`]. New streams are always admitted to the newest slot;
//! older slots keep stepping their in-flight streams until they drain,
//! then are reaped. When a [`Reloader`] delivers a validated candidate,
//! promotion is a `Vec::push` — no lock, no pause, no dropped connection.
//! If the new generation's quarantine rate trips the configured threshold,
//! the server rolls back by re-promoting the previous bundle. Every
//! attempt/success/refusal/rollback is counted in [`ReloadStats`] and the
//! `serve.reload.*` trace family, with `serve.generation` as a gauge.
//!
//! Back-pressure and failure containment:
//! - the connection table is bounded ([`ServeOptions::max_conns`]); excess
//!   connections are greeted, rejected and closed,
//! - per-tenant concurrent streams are bounded
//!   ([`ServeOptions::tenant_quota`]),
//! - the parked backlog is bounded by the session's
//!   [`AdmissionConfig`] under its
//!   [`ShedPolicy`](super::ShedPolicy),
//! - a malformed message, an oversized length prefix or a wrong-width
//!   frame drops *that* connection (and frees its lane); every other
//!   stream's logits are untouched — the bit-exactness contract of
//!   [`BatchedSession::step`] holds per lane regardless of which
//!   neighbours come and go, and holds per *generation* across a swap:
//!   a stream admitted on generation N computes on N's weights to its
//!   last frame.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rtm_tensor::wire::FrameDecoder;
use rtm_trace::key;

use super::protocol::{put_server_msg, ClientMsg, RejectCode, ServerMsg, PROTOCOL_VERSION};
use super::reload::{ReloadConfig, ReloadEvent, ReloadStats, Reloader};
use super::{AdmissionConfig, ServeStats};
use crate::bundle::CompiledBundle;
use crate::config::RuntimeConfig;
use crate::deploy::{BatchedSession, CompiledNetwork};
use crate::health::HealthPolicy;

/// Knobs of the TCP front end (the batching/admission knobs live in
/// [`RuntimeConfig`]; these bound the socket layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Loopback port to bind; `0` (the default) asks the OS for an
    /// ephemeral port — read it back from [`Server::local_addr`].
    pub port: u16,
    /// Maximum simultaneously open connections; beyond it a new connection
    /// is greeted, sent [`RejectCode::Capacity`] and closed.
    pub max_conns: usize,
    /// Maximum concurrent streams (parked or active) per tenant id;
    /// `usize::MAX` (the default) disables the quota.
    pub tenant_quota: usize,
    /// Stop serving after this many streams finish (complete, shed,
    /// quarantined or disconnected): the listener closes to new work and
    /// [`Server::run`] returns once in-flight connections drain. `None`
    /// (the default) serves until the stop flag.
    pub max_streams: Option<usize>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            port: 0,
            max_conns: 64,
            tenant_quota: usize::MAX,
            max_streams: None,
        }
    }
}

impl ServeOptions {
    /// Binds a specific port instead of an OS-assigned one.
    pub fn with_port(mut self, port: u16) -> ServeOptions {
        self.port = port;
        self
    }

    /// Bounds the connection table.
    ///
    /// # Panics
    ///
    /// Panics if `max_conns == 0`.
    pub fn with_max_conns(mut self, max_conns: usize) -> ServeOptions {
        assert!(max_conns > 0, "connection bound must be positive");
        self.max_conns = max_conns;
        self
    }

    /// Bounds concurrent streams per tenant.
    pub fn with_tenant_quota(mut self, quota: usize) -> ServeOptions {
        self.tenant_quota = quota;
        self
    }

    /// Serves `n` streams, then shuts down cleanly.
    pub fn with_max_streams(mut self, n: usize) -> ServeOptions {
        self.max_streams = Some(n);
        self
    }
}

/// The longest one readiness wait blocks: an idle server still re-checks
/// the stop flag, ticks the [`Reloader`] and refreshes the trace gauges at
/// least this often.
const WAIT_CAP: Duration = Duration::from_millis(5);

/// `poll(2)` event bits: readable, writable.
const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// One socket of the wait set, laid out as `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    fn new(socket: &impl AsRawFd, events: i16) -> PollFd {
        PollFd {
            fd: socket.as_raw_fd(),
            events,
            revents: 0,
        }
    }
}

/// Blocks until a socket of `set` is ready or [`WAIT_CAP`] passes. The
/// result is not read: a ready socket, a timeout and an `EINTR` all mean
/// "run the next pass", which re-examines every socket anyway.
#[cfg(any(target_os = "linux", target_os = "android"))]
fn poll_ready(set: &mut [PollFd]) {
    use std::os::raw::c_int;
    #[cfg(target_os = "linux")]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(target_os = "android")]
    type Nfds = std::os::raw::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: c_int) -> c_int;
    }
    let (fds, nfds) = (set.as_mut_ptr(), set.len() as Nfds);
    // SAFETY: `fds` points at `nfds` initialised `#[repr(C)]` pollfd
    // records, exclusively borrowed for the call.
    unsafe { poll(fds, nfds, WAIT_CAP.as_millis() as c_int) };
}

/// Targets without the shim (`nfds_t` differs on macOS) sleep a fixed
/// interval instead of waiting on the set.
#[cfg(not(any(target_os = "linux", target_os = "android")))]
fn poll_ready(_set: &mut [PollFd]) {
    std::thread::sleep(Duration::from_micros(500));
}

/// Connection lifecycle. `Parked` and `Active` are the started states that
/// count against the tenant quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Greeted; waiting for `Start`.
    AwaitStart,
    /// Started; waiting in the admission queue for a lane.
    Parked,
    /// Holding a batching lane.
    Active,
    /// Terminal messages queued; drop once the outbox flushes.
    Closing,
}

struct Conn {
    stream: TcpStream,
    token: usize,
    tenant: u32,
    phase: Phase,
    /// Generation slot holding this stream's lane (set at admission; a
    /// stream computes on that slot's weights for its whole life, even
    /// across swaps).
    seq: u64,
    decoder: FrameDecoder,
    /// Decoded frames not yet stepped (the per-stream input queue the
    /// batcher pulls from, one frame per step).
    inbox: VecDeque<Vec<f32>>,
    outbox: Vec<u8>,
    out_pos: usize,
    /// Client sent `End`; `Done` goes out once the inbox drains.
    ended: bool,
    /// Client opted into streaming decode ([`ClientMsg::WantHypotheses`]):
    /// every `Logits` is followed by a `Hypothesis`, and a final one
    /// precedes `Done`. Off (the default) keeps the v1 message sequence.
    wants_hypotheses: bool,
    /// Last hypothesis message sent (re-sent verbatim on frames where the
    /// partial did not change, keeping the Logits/Hypothesis pairing
    /// deterministic for the blocking client).
    last_hyp: Option<ServerMsg>,
    frames_out: u32,
    /// Socket unusable (EOF, reset, protocol error): drop without
    /// flushing.
    dead: bool,
    /// Keeps the connection's lifetime visible in the trace timeline.
    _span: rtm_trace::SpanGuard,
}

impl Conn {
    fn new(stream: TcpStream, token: usize) -> Conn {
        Conn {
            stream,
            token,
            tenant: 0,
            phase: Phase::AwaitStart,
            seq: 0,
            decoder: FrameDecoder::new(),
            inbox: VecDeque::new(),
            outbox: Vec::new(),
            out_pos: 0,
            ended: false,
            wants_hypotheses: false,
            last_hyp: None,
            frames_out: 0,
            dead: false,
            _span: rtm_trace::span("serve.conn"),
        }
    }

    /// Started streams are quota-relevant and count as "finished" when
    /// they terminate.
    fn started(&self) -> bool {
        matches!(self.phase, Phase::Parked | Phase::Active)
    }

    fn queue_msg(&mut self, msg: &ServerMsg) {
        put_server_msg(&mut self.outbox, msg);
    }
}

/// Converts a decoder hypothesis into its wire message.
fn hypothesis_msg(hyp: &rtm_speech::Hypothesis, is_final: bool) -> ServerMsg {
    ServerMsg::Hypothesis {
        symbols: hyp.symbols.iter().map(|&s| s as u32).collect(),
        score: hyp.score,
        endpoint: hyp.endpoint,
        is_final,
    }
}

/// Fills `set` with what an idle server waits on: the listener (`None`
/// while draining) for a connection to accept, and every live connection
/// for bytes to read — and, while its outbox holds unflushed bytes, for
/// room to write them. Dead connections are left out: they are reaped, not
/// waited on.
fn fill_wait_set(set: &mut Vec<PollFd>, listener: Option<&TcpListener>, conns: &[Conn]) {
    set.clear();
    set.extend(listener.map(|l| PollFd::new(l, POLLIN)));
    set.extend(conns.iter().filter(|c| !c.dead).map(|c| {
        let unflushed = c.out_pos < c.outbox.len();
        PollFd::new(&c.stream, if unflushed { POLLIN | POLLOUT } else { POLLIN })
    }));
}

/// One model generation being served: its bundle and the batched session
/// holding its in-flight lanes. The newest slot admits; older slots only
/// drain.
struct GenSlot<'a> {
    /// Monotonic promotion counter (distinct from the bundle's generation
    /// stamp, which an operator could republish).
    seq: u64,
    bundle: CompiledBundle,
    session: BatchedSession<'a>,
}

/// The `rtm serve` server: bind once, then [`run`](Server::run) the
/// readiness loop to completion.
pub struct Server<'a> {
    listener: TcpListener,
    addr: SocketAddr,
    exec: &'a rtm_exec::Executor,
    /// Lane capacity, admission bounds, health policy and decoder every
    /// generation's session is built with.
    batch: usize,
    admission: AdmissionConfig,
    health: HealthPolicy,
    decoder: crate::config::DecoderChoice,
    /// Generation slots, oldest first; the last is the active one.
    slots: Vec<GenSlot<'a>>,
    next_seq: u64,
    /// Counters of slots already reaped (folded into [`Server::stats`]).
    retired: ServeStats,
    /// The bundle serving before the most recent swap — the rollback
    /// target. Cleared once consumed (one rollback per swap) or once a
    /// further swap replaces it.
    previous: Option<CompiledBundle>,
    reloader: Option<Reloader>,
    reload_stats: ReloadStats,
    opts: ServeOptions,
    conns: Vec<Conn>,
    /// The readiness wait's `pollfd` array, rebuilt in place before every
    /// wait.
    wait_set: Vec<PollFd>,
    /// Tokens of started streams awaiting a lane, in admission order.
    parked: VecDeque<usize>,
    next_token: usize,
    /// Scheduling steps run (the deadline-accounting clock).
    steps: usize,
    /// Streams that reached a terminal state (served, shed, quarantined
    /// or disconnected) — the [`ServeOptions::max_streams`] clock.
    finished: usize,
    input_dim: usize,
    classes: usize,
}

impl<'a> Server<'a> {
    /// Binds a loopback listener and prepares a batched session, all sized
    /// by `config`: lanes = `config.batch`, admission = `config.admission`,
    /// health = `config.resolved_health()`, socket bounds = `config.serve`.
    ///
    /// The network is wrapped in an unstamped [`CompiledBundle`]; use
    /// [`Server::bind_bundle`] to serve a loaded bundle with its metadata
    /// (and a meaningful generation gauge).
    ///
    /// # Errors
    ///
    /// Propagates the bind/configure `io::Error`.
    pub fn bind(
        net: &CompiledNetwork,
        exec: &'a rtm_exec::Executor,
        config: &RuntimeConfig,
    ) -> std::io::Result<Server<'a>> {
        Server::bind_bundle(CompiledBundle::from_network(net.clone()), exec, config)
    }

    /// [`Server::bind`] over a compiled bundle: the generation stamp and
    /// health metadata ride along, and a [`Reloader`] enabled via
    /// [`Server::enable_reload`] can hot-swap it.
    ///
    /// # Errors
    ///
    /// Propagates the bind/configure `io::Error`.
    pub fn bind_bundle(
        bundle: CompiledBundle,
        exec: &'a rtm_exec::Executor,
        config: &RuntimeConfig,
    ) -> std::io::Result<Server<'a>> {
        let opts = config.serve;
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, opts.port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (batch, admission, health) = (config.batch, config.admission, config.resolved_health());
        let decoder = config.resolved_decoder();
        let session = BatchedSession::shared(Arc::clone(&bundle.net), exec, batch)
            .with_admission(admission)
            .with_health(health)
            .with_decoder(decoder);
        let input_dim = bundle.net.input_dim();
        let classes = bundle.net.num_classes();
        let generation = bundle.generation();
        let server = Server {
            listener,
            addr,
            exec,
            batch,
            admission,
            health,
            decoder,
            slots: vec![GenSlot {
                seq: 0,
                bundle,
                session,
            }],
            next_seq: 0,
            retired: ServeStats::default(),
            previous: None,
            reloader: None,
            reload_stats: ReloadStats {
                generation,
                ..ReloadStats::default()
            },
            opts,
            conns: Vec::new(),
            wait_set: Vec::new(),
            parked: VecDeque::new(),
            next_token: 0,
            steps: 0,
            finished: 0,
            input_dim,
            classes,
        };
        Ok(server)
    }

    /// Arms hot reloading: `path` is fingerprint-polled during the run and
    /// validated bundles published there are atomically swapped in. The
    /// file currently at `path` (if any) is treated as already served.
    pub fn enable_reload(&mut self, path: PathBuf, config: ReloadConfig) {
        self.reloader = Some(Reloader::new(
            path,
            config,
            self.health,
            self.input_dim,
            self.classes,
        ));
    }

    /// The bound address (read the ephemeral port from here).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counters accumulated so far, across every generation served.
    pub fn stats(&self) -> ServeStats {
        self.slots
            .iter()
            .fold(self.retired, |acc, s| acc.merged(s.session.stats()))
    }

    /// Reload counters (zero everything when reloading was never enabled;
    /// `generation` always reflects the bundle admitting new streams).
    pub fn reload_stats(&self) -> ReloadStats {
        ReloadStats {
            generation: self.active().bundle.generation(),
            ..self.reload_stats
        }
    }

    fn active(&self) -> &GenSlot<'a> {
        self.slots.last().expect("at least one generation slot")
    }

    fn active_mut(&mut self) -> &mut GenSlot<'a> {
        self.slots.last_mut().expect("at least one generation slot")
    }

    fn slot_mut(&mut self, seq: u64) -> Option<&mut GenSlot<'a>> {
        self.slots.iter_mut().find(|s| s.seq == seq)
    }

    /// Promotes `bundle` to the active generation: new streams admit to a
    /// fresh session over it; existing slots keep draining their in-flight
    /// streams on their own weights.
    fn promote(&mut self, bundle: CompiledBundle) {
        let session = BatchedSession::shared(Arc::clone(&bundle.net), self.exec, self.batch)
            .with_admission(self.admission)
            .with_health(self.health)
            .with_decoder(self.decoder);
        self.next_seq += 1;
        self.slots.push(GenSlot {
            seq: self.next_seq,
            bundle,
            session,
        });
        rtm_trace::gauge(
            key::SERVE_GENERATION,
            self.active().bundle.generation() as f64,
        );
    }

    /// Drives the reload state machine one non-blocking tick.
    fn poll_reload(&mut self) {
        let Some(reloader) = &mut self.reloader else {
            return;
        };
        match reloader.poll() {
            None => {}
            Some(ReloadEvent::Started) => {
                self.reload_stats.attempts += 1;
                rtm_trace::count(key::SERVE_RELOAD_ATTEMPT, 1);
            }
            Some(ReloadEvent::Refused(_reason)) => {
                self.reload_stats.refusals += 1;
                rtm_trace::count(key::SERVE_RELOAD_REFUSED, 1);
            }
            Some(ReloadEvent::Loaded(bundle)) => {
                self.previous = Some(self.active().bundle.clone());
                self.promote(bundle);
                self.reload_stats.successes += 1;
                rtm_trace::count(key::SERVE_RELOAD_SUCCESS, 1);
            }
        }
    }

    /// Rolls back to the pre-swap bundle when the active generation's
    /// quarantine rate trips the configured threshold over a large-enough
    /// admitted sample. One-shot per swap: a consumed rollback target is
    /// not re-armed until the next successful swap.
    fn maybe_rollback(&mut self) {
        if self.previous.is_none() {
            return;
        }
        let Some(reloader) = &self.reloader else {
            return;
        };
        let config = reloader.config();
        let stats = self.active().session.stats();
        if stats.admitted < config.rollback_min_streams.max(1) {
            return;
        }
        let rate = stats.quarantined as f64 / stats.admitted as f64;
        if rate <= config.rollback_quarantine_rate {
            return;
        }
        let target = self.previous.take().expect("checked above");
        self.promote(target);
        self.reload_stats.rollbacks += 1;
        rtm_trace::count(key::SERVE_RELOAD_ROLLBACK, 1);
    }

    /// Drops drained non-active generation slots, folding their counters
    /// into the retired total (and releasing the old weights' `Arc`).
    fn reap_slots(&mut self) {
        if self.slots.len() <= 1 {
            return;
        }
        let last = self.slots.len() - 1;
        for idx in (0..last).rev() {
            if self.slots[idx].session.active_lanes() == 0 {
                let mut slot = self.slots.remove(idx);
                slot.session.trace_flush();
                self.retired = self.retired.merged(slot.session.stats());
            }
        }
    }

    /// Runs the readiness loop until [`ServeOptions::max_streams`] streams
    /// have finished and drained (forever when unset).
    ///
    /// # Errors
    ///
    /// Propagates listener `io::Error`s (per-connection socket errors are
    /// handled as disconnects, not propagated).
    pub fn run(&mut self) -> std::io::Result<ServeStats> {
        self.run_until(&AtomicBool::new(false))
    }

    /// [`run`](Server::run), but also returns promptly once `stop` is set
    /// (in-flight streams are abandoned, sockets closed).
    ///
    /// # Errors
    ///
    /// Propagates listener `io::Error`s.
    pub fn run_until(&mut self, stop: &AtomicBool) -> std::io::Result<ServeStats> {
        let _span = rtm_trace::span("serve.run");
        loop {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let draining = self.draining();
            let mut progress = false;
            if !draining {
                progress |= self.accept_ready()?;
            }
            self.poll_reload();
            self.maybe_rollback();
            progress |= self.read_ready();
            self.admit_and_shed();
            progress |= self.step_once();
            progress |= self.write_ready();
            self.reap();
            self.reap_slots();
            if rtm_trace::enabled() {
                for slot in &mut self.slots {
                    slot.session.trace_flush();
                }
                rtm_trace::gauge(key::SERVE_QUEUE_DEPTH, self.parked.len() as f64);
                rtm_trace::gauge(key::SERVE_CONNS, self.conns.len() as f64);
            }
            if draining && self.conns.is_empty() {
                break;
            }
            if !progress {
                self.wait_ready();
            }
        }
        for slot in &mut self.slots {
            slot.session.drain();
            slot.session.trace_flush();
        }
        Ok(self.stats())
    }

    /// [`ServeOptions::max_streams`] streams have finished: the listener is
    /// closed to new work and the server only drains.
    fn draining(&self) -> bool {
        self.opts.max_streams.is_some_and(|n| self.finished >= n)
    }

    /// Blocks until the next pass can make progress — a connection to
    /// accept, bytes to read, room to flush an outbox — or [`WAIT_CAP`]
    /// passes.
    fn wait_ready(&mut self) {
        let listener = (!self.draining()).then_some(&self.listener);
        fill_wait_set(&mut self.wait_set, listener, &self.conns);
        poll_ready(&mut self.wait_set);
    }

    /// Accepts until the listener would block; over-capacity connections
    /// are greeted, rejected and queued for close.
    fn accept_ready(&mut self) -> std::io::Result<bool> {
        let mut any = false;
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            any = true;
            stream.set_nonblocking(true)?;
            // Latency over throughput for 4-byte-prefixed frames.
            let _ = stream.set_nodelay(true);
            let mut conn = Conn::new(stream, self.next_token);
            self.next_token += 1;
            conn.queue_msg(&ServerMsg::Hello {
                input_dim: self.input_dim as u32,
                classes: self.classes as u32,
                version: PROTOCOL_VERSION,
            });
            if self.conns.len() >= self.opts.max_conns {
                conn.queue_msg(&ServerMsg::Reject {
                    code: RejectCode::Capacity,
                });
                conn.phase = Phase::Closing;
                self.active_mut().session.mark_shed();
            }
            self.conns.push(conn);
        }
        Ok(any)
    }

    /// Reads every socket until it would block and decodes buffered bytes
    /// into protocol messages. A connection that misbehaves (bad framing,
    /// bad message, wrong frame width, messages out of phase) is killed in
    /// place; its lane, if any, is freed for the next parked stream.
    fn read_ready(&mut self) -> bool {
        let mut any = false;
        let mut buf = [0u8; 8192];
        // `Closing` connections are still read (and their messages
        // discarded): leaving bytes unread would turn the eventual close
        // into a TCP reset that can destroy the in-flight `Reject`/`Done`.
        for i in 0..self.conns.len() {
            if self.conns[i].dead {
                continue;
            }
            let mut eof = false;
            loop {
                match self.conns[i].stream.read(&mut buf) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        any = true;
                        rtm_trace::count(key::SERVE_BYTES_IN, n as u64);
                        self.conns[i].decoder.push(&buf[..n]);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        eof = true;
                        break;
                    }
                }
            }
            let mut violation = false;
            loop {
                match self.conns[i].decoder.next_frame() {
                    Ok(Some(payload)) => match ClientMsg::decode(&payload) {
                        Ok(msg) => {
                            if !self.apply_msg(i, msg) {
                                violation = true;
                                break;
                            }
                        }
                        Err(_) => {
                            violation = true;
                            break;
                        }
                    },
                    Ok(None) => break,
                    Err(_) => {
                        violation = true;
                        break;
                    }
                }
            }
            if violation {
                rtm_trace::count(key::SERVE_PROTOCOL_ERRORS, 1);
                self.kill(i);
            } else if eof {
                // EOF after `End` (or after the server already queued the
                // stream's terminal message) is the client closing
                // politely; anything earlier is a mid-stream disconnect.
                if !self.conns[i].ended && self.conns[i].phase != Phase::Closing {
                    rtm_trace::count(key::SERVE_DISCONNECTS, 1);
                }
                self.kill(i);
            }
        }
        any
    }

    /// Applies one decoded message to connection `i`; `false` means the
    /// message was illegal in the connection's phase (a protocol
    /// violation).
    fn apply_msg(&mut self, i: usize, msg: ClientMsg) -> bool {
        if self.conns[i].phase == Phase::Closing {
            // The stream's fate is already sealed (rejected or done);
            // whatever the client pipelined behind it is moot, not a
            // violation — discard so the terminal message still flushes.
            return true;
        }
        match msg {
            ClientMsg::Start { tenant } => {
                if self.conns[i].phase != Phase::AwaitStart {
                    return false;
                }
                let held = self
                    .conns
                    .iter()
                    .filter(|c| !c.dead && c.started() && c.tenant == tenant)
                    .count();
                if held >= self.opts.tenant_quota {
                    self.conns[i].queue_msg(&ServerMsg::Reject {
                        code: RejectCode::TenantQuota,
                    });
                    self.conns[i].phase = Phase::Closing;
                    self.active_mut().session.mark_shed();
                    self.finished += 1;
                } else {
                    self.conns[i].tenant = tenant;
                    self.conns[i].phase = Phase::Parked;
                    self.parked.push_back(self.conns[i].token);
                }
                true
            }
            ClientMsg::Frame(xs) => {
                let c = &mut self.conns[i];
                if !c.started() || c.ended || xs.len() != self.input_dim {
                    return false;
                }
                c.inbox.push_back(xs);
                true
            }
            ClientMsg::WantHypotheses => {
                let c = &mut self.conns[i];
                if !c.started() || c.ended {
                    return false;
                }
                c.wants_hypotheses = true;
                true
            }
            ClientMsg::End => {
                let c = &mut self.conns[i];
                if !c.started() || c.ended {
                    return false;
                }
                c.ended = true;
                true
            }
        }
    }

    /// Moves parked streams into free lanes of the **active** generation
    /// (continuous batching: a lane freed this step is refilled before the
    /// next; older generations only drain), then sheds whatever backlog
    /// exceeds the admission queue depth.
    fn admit_and_shed(&mut self) {
        while !self.active().session.is_full() {
            let Some(token) = self.parked.pop_front() else {
                break;
            };
            let Some(i) = self.conn_index(token) else {
                continue;
            };
            let seq = self.active().seq;
            self.active_mut().session.admit(token);
            self.conns[i].phase = Phase::Active;
            self.conns[i].seq = seq;
            if self
                .admission
                .deadline_steps
                .is_some_and(|d| self.steps > d)
            {
                self.active_mut().session.mark_deadline_missed();
            }
        }
        while self.parked.len() > self.admission.queue_depth {
            let victim = match self.admission.shed {
                super::ShedPolicy::RejectNew => self.parked.pop_back(),
                super::ShedPolicy::DropOldest => self.parked.pop_front(),
            };
            let Some(i) = victim.and_then(|t| self.conn_index(t)) else {
                continue;
            };
            self.conns[i].queue_msg(&ServerMsg::Reject {
                code: RejectCode::Capacity,
            });
            self.conns[i].phase = Phase::Closing;
            self.active_mut().session.mark_shed();
            self.finished += 1;
        }
    }

    /// Runs one batched step per generation slot over every active stream
    /// with a buffered frame and routes the logits back to their
    /// connections. Streams whose inbox is drained after `End` retire and
    /// get `Done`.
    fn step_once(&mut self) -> bool {
        let mut stepped = false;
        for s in 0..self.slots.len() {
            let seq = self.slots[s].seq;
            let mut ready: Vec<(usize, &[f32])> = Vec::new();
            for c in &self.conns {
                if c.phase == Phase::Active && c.seq == seq && !c.dead {
                    if let Some(frame) = c.inbox.front() {
                        ready.push((c.token, frame.as_slice()));
                    }
                }
            }
            if ready.is_empty() {
                continue;
            }
            stepped = true;
            // Frame widths were validated at receive time, so the only
            // step errors left are executor-internal; those are fatal to
            // the process, not to a connection.
            let out = self.slots[s]
                .session
                .step(&ready)
                .expect("batched step failed");
            self.steps += 1;
            // Every served frame of an opted-in connection gets a
            // [Logits, Hypothesis] pair (unchanged partials are re-sent),
            // so a blocking client can always read both. Streams that
            // never opted in get the exact v1 byte stream.
            let mut changed: std::collections::BTreeMap<usize, rtm_speech::Hypothesis> =
                out.hypotheses.into_iter().collect();
            for (token, row) in out.logits {
                if let Some(i) = self.conn_index(token) {
                    self.conns[i].inbox.pop_front();
                    self.conns[i].frames_out += 1;
                    self.conns[i].queue_msg(&ServerMsg::Logits(row));
                    if self.conns[i].wants_hypotheses {
                        if let Some(hyp) = changed.remove(&token) {
                            self.conns[i].last_hyp = Some(hypothesis_msg(&hyp, false));
                        }
                        let msg = self.conns[i].last_hyp.clone().unwrap_or_else(|| {
                            hypothesis_msg(&rtm_speech::Hypothesis::empty(), false)
                        });
                        self.conns[i].queue_msg(&msg);
                    }
                }
            }
            for token in out.quarantined {
                if let Some(i) = self.conn_index(token) {
                    self.conns[i].queue_msg(&ServerMsg::Reject {
                        code: RejectCode::Quarantined,
                    });
                    self.conns[i].phase = Phase::Closing;
                    self.finished += 1;
                }
            }
        }
        // Retire streams that have answered everything they will be sent.
        for i in 0..self.conns.len() {
            let c = &self.conns[i];
            if c.phase == Phase::Active && c.ended && c.inbox.is_empty() {
                let (token, seq, frames) = (c.token, c.seq, c.frames_out);
                let wants = c.wants_hypotheses;
                let mut final_hyp = None;
                if let Some(slot) = self.slot_mut(seq) {
                    // Finalize (and drop) the lane's decoder state before
                    // the lane itself goes away.
                    final_hyp = slot.session.finish_decode(token);
                    slot.session.retire(token);
                    slot.session.mark_completed();
                }
                if wants {
                    if let Some(hyp) = final_hyp {
                        self.conns[i].queue_msg(&hypothesis_msg(&hyp, true));
                    }
                }
                self.conns[i].queue_msg(&ServerMsg::Done { frames });
                self.conns[i].phase = Phase::Closing;
                self.finished += 1;
            }
        }
        stepped
    }

    /// Flushes every outbox until the socket would block.
    fn write_ready(&mut self) -> bool {
        let mut any = false;
        for c in &mut self.conns {
            if c.dead {
                continue;
            }
            while c.out_pos < c.outbox.len() {
                match c.stream.write(&c.outbox[c.out_pos..]) {
                    Ok(0) => {
                        c.dead = true;
                        break;
                    }
                    Ok(n) => {
                        any = true;
                        rtm_trace::count(key::SERVE_BYTES_OUT, n as u64);
                        c.out_pos += n;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        c.dead = true;
                        break;
                    }
                }
            }
            if c.out_pos == c.outbox.len() && c.out_pos > 0 {
                c.outbox.clear();
                c.out_pos = 0;
            }
        }
        any
    }

    /// Marks connection `i` unusable and releases everything it holds: its
    /// lane (if active, in its own generation's session), its parked slot,
    /// and its finished-stream tick.
    fn kill(&mut self, i: usize) {
        let (token, seq) = (self.conns[i].token, self.conns[i].seq);
        if self.conns[i].phase == Phase::Active {
            if let Some(slot) = self.slot_mut(seq) {
                let _ = slot.session.finish_decode(token);
                slot.session.retire(token);
            }
        }
        if self.conns[i].started() {
            self.finished += 1;
        }
        self.parked.retain(|&t| t != token);
        self.conns[i].dead = true;
    }

    /// Drops dead connections and flushed `Closing` connections.
    fn reap(&mut self) {
        self.conns
            .retain(|c| !(c.dead || c.phase == Phase::Closing && c.out_pos == c.outbox.len()));
    }

    fn conn_index(&self, token: usize) -> Option<usize> {
        self.conns.iter().position(|c| c.token == token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{self, BundleMeta};
    use crate::deploy::RuntimePrecision;
    use crate::serve::client::{RejectedError, StreamClient};
    use crate::serve::protocol::RejectCode;
    use rtm_rnn::model::{GruNetwork, NetworkConfig};
    use std::time::{Duration, Instant};

    fn compiled(seed: u64) -> CompiledNetwork {
        let net = GruNetwork::new(
            &NetworkConfig {
                input_dim: 6,
                hidden_dims: vec![12],
                num_classes: 4,
            },
            seed,
        );
        CompiledNetwork::compile(&net, 4, 2, RuntimePrecision::F16).expect("partition fits")
    }

    /// A network that decodes cleanly and has finite stored weights, but
    /// overflows to `inf` at the head on any real frame — invisible to
    /// load-time validation with the canary disabled, caught only by the
    /// runtime health scan.
    fn poisoned(seed: u64) -> CompiledNetwork {
        let good = compiled(seed);
        let (rows, cols) = (good.head_w().rows(), good.head_w().cols());
        CompiledNetwork::from_parts(
            good.layers,
            rtm_tensor::Matrix::from_vec(rows, cols, vec![f32::MAX; rows * cols]).unwrap(),
            vec![f32::MAX; good.head_b.len()],
            good.precision,
        )
    }

    fn frames(n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|t| {
                (0..6)
                    .map(|i| (((t * 6 + i) as f32) * 0.43 + 0.2).sin() * 0.6)
                    .collect()
            })
            .collect()
    }

    fn bits(rows: &[Vec<f32>]) -> Vec<Vec<u32>> {
        rows.iter()
            .map(|r| r.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// The wait set asks for exactly what the next pass could do: the
    /// listener only while accepting, every live connection for reading,
    /// writing only where an outbox holds unflushed bytes, and nothing of a
    /// dead connection.
    #[test]
    fn wait_set_follows_the_listener_the_outboxes_and_liveness() {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");
        let _peers: Vec<TcpStream> = (0..4)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        let mut conns: Vec<Conn> = (0..4)
            .map(|t| Conn::new(listener.accept().expect("accept").0, t))
            .collect();
        // 0 idle; 1 two of three bytes unflushed; 2 dead with bytes
        // queued; 3 flushed to the end but not yet cleared.
        conns[1].outbox.extend_from_slice(&[1, 2, 3]);
        conns[1].out_pos = 1;
        conns[2].outbox.push(7);
        conns[2].dead = true;
        conns[3].outbox.extend_from_slice(&[4, 5]);
        conns[3].out_pos = 2;
        let live = [
            PollFd::new(&conns[0].stream, POLLIN),
            PollFd::new(&conns[1].stream, POLLIN | POLLOUT),
            PollFd::new(&conns[3].stream, POLLIN),
        ];

        let mut set = Vec::new();
        fill_wait_set(&mut set, Some(&listener), &conns);
        assert_eq!(set[0], PollFd::new(&listener, POLLIN));
        assert_eq!(set[1..], live);

        // Draining: the same buffer, rebuilt without the listener.
        fill_wait_set(&mut set, None, &conns);
        assert_eq!(set, live);
    }

    /// The streaming-decode wire contract: an opted-in stream gets a
    /// hypothesis with every frame and a final one whose symbols match the
    /// offline decode of the same utterance; a stream that never opts in
    /// receives logits bit-identical to the serial forward — the v1
    /// message sequence, untouched by the new capability.
    #[test]
    fn hypotheses_flow_to_opted_in_streams_only() {
        let net = compiled(3);
        let utterance = frames(12);
        let serial = bits(&net.forward(&utterance));
        let choice = crate::config::DecoderChoice::CtcBeam(2);
        let exec = rtm_exec::Executor::new(1);
        let offline = net.decode_with(&exec, &utterance, choice);

        let stop = AtomicBool::new(false);
        let config = RuntimeConfig::default().with_batch(2).with_decoder(choice);
        std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::channel();
            let (stop, net, config) = (&stop, &net, &config);
            let server_thread = scope.spawn(move || {
                let exec = rtm_exec::Executor::new(config.threads);
                let mut server = Server::bind(net, &exec, config).expect("bind");
                tx.send(server.local_addr()).expect("addr handoff");
                server.run_until(stop).expect("serve")
            });
            let addr = rx.recv().expect("server bound");

            // Opted-in stream: deterministic [Logits, Hypothesis] pairs.
            let mut decoded = StreamClient::connect(addr).expect("connect");
            assert!(decoded.protocol_version >= 2, "server must advertise v2");
            decoded.start(0).expect("start");
            decoded.want_hypotheses().expect("opt in");
            let mut rows = Vec::new();
            let mut partials = Vec::new();
            for f in &utterance {
                let (row, hyp) = decoded.infer_decoded(f).expect("infer");
                assert!(!hyp.is_final, "mid-stream partials are not final");
                rows.push(row);
                partials.push(hyp);
            }
            let (final_hyp, served) = decoded.finish_decoded().expect("finish");
            assert_eq!(served as usize, utterance.len());
            assert!(final_hyp.is_final);
            assert_eq!(bits(&rows), serial, "opt-in never perturbs logits");
            let want: Vec<u32> = offline.symbols.iter().map(|&s| s as u32).collect();
            assert_eq!(final_hyp.symbols, want, "wire decode == offline decode");
            assert!((final_hyp.score - offline.score).abs() < 1e-6);
            // The last partial is a prefix-consistent precursor of the
            // final (same decoder state, pre-finish).
            assert_eq!(partials.len(), utterance.len());

            // Legacy stream on the same server: v1 sequence, identical
            // bits.
            let mut legacy = StreamClient::connect(addr).expect("connect");
            legacy.start(0).expect("start");
            let rows: Vec<Vec<f32>> = utterance
                .iter()
                .map(|f| legacy.infer(f).expect("infer"))
                .collect();
            let served = legacy.finish().expect("finish");
            assert_eq!(served as usize, utterance.len());
            assert_eq!(bits(&rows), serial, "legacy streams stay bit-identical");

            stop.store(true, Ordering::Relaxed);
            server_thread.join().expect("server thread")
        });
    }

    /// The full rollback arc: a bundle that passes every load-time check
    /// (finite weights, matching dimensions, canary disabled) is promoted,
    /// poisons the streams it serves, trips the quarantine-rate guard, and
    /// the server rolls back to the previous generation — all while the
    /// listener keeps answering.
    #[test]
    fn a_toxic_swap_rolls_back_to_the_previous_generation() {
        let dir = std::env::temp_dir().join(format!("rtm-rollback-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("model.rtm");

        let good = compiled(11);
        let utterance = frames(3);
        let serial = bits(&good.forward(&utterance));
        bundle::write(&path, &good, &BundleMeta::default().with_generation(1)).expect("publish");

        let stop = AtomicBool::new(false);
        let config = RuntimeConfig::default()
            .with_batch(2)
            .with_health(HealthPolicy::Quarantine);
        let (final_stats, reload_stats) = std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::channel();
            let (stop, path) = (&stop, &path);
            let server_thread = scope.spawn(move || {
                let exec = rtm_exec::Executor::new(config.threads);
                let loaded = CompiledBundle::load(path).expect("load gen 1");
                let mut server = Server::bind_bundle(loaded, &exec, &config).expect("bind");
                server.enable_reload(
                    path.clone(),
                    ReloadConfig::default()
                        .with_poll_ms(1)
                        .with_canary_frames(0)
                        .with_rollback_min_streams(1)
                        .with_rollback_quarantine_rate(0.5),
                );
                tx.send(server.local_addr()).expect("addr handoff");
                let stats = server.run_until(stop).expect("serve");
                (stats, server.reload_stats())
            });
            let addr = rx.recv().expect("server bound");

            // Sanity on generation 1: bit-identical to serial.
            let mut client = StreamClient::connect(addr).expect("connect");
            client.start(0).expect("start");
            let first: Vec<Vec<f32>> = utterance
                .iter()
                .map(|f| client.infer(f).expect("infer"))
                .collect();
            client.finish().expect("finish");
            assert_eq!(bits(&first), serial, "gen 1 must match serial");

            // Publish the poison as generation 2. With the canary off it
            // sails through validation and gets promoted.
            bundle::write(
                path,
                &poisoned(11),
                &BundleMeta::default().with_generation(2),
            )
            .expect("publish poison");

            // Probe until a stream is quarantined: the swap has happened
            // and the runtime scan has seen the poison.
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                assert!(Instant::now() < deadline, "swap never observed");
                let mut probe = StreamClient::connect(addr).expect("connect");
                probe.start(0).expect("start");
                match probe.infer(&utterance[0]) {
                    Ok(row) => {
                        // Still on gen 1 (or already rolled back): either
                        // way the row must be gen-1 bits.
                        assert_eq!(bits(&[row])[0], serial[0], "healthy rows must be gen 1");
                        let _ = probe.finish();
                    }
                    Err(e) => {
                        let rejected = e
                            .get_ref()
                            .and_then(|e| e.downcast_ref::<RejectedError>())
                            .expect("typed rejection");
                        assert_eq!(rejected.code, RejectCode::Quarantined);
                        break;
                    }
                }
                std::thread::sleep(Duration::from_millis(2));
            }

            // Probe until service recovers: the rollback re-promoted the
            // gen-1 weights, bit for bit.
            loop {
                assert!(Instant::now() < deadline, "rollback never observed");
                let mut probe = StreamClient::connect(addr).expect("connect");
                probe.start(0).expect("start");
                match probe.infer(&utterance[0]) {
                    Ok(row) => {
                        assert_eq!(bits(&[row])[0], serial[0], "rolled-back rows must be gen 1");
                        let _ = probe.finish();
                        break;
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }

            stop.store(true, Ordering::Relaxed);
            server_thread.join().expect("server thread")
        });

        assert_eq!(reload_stats.attempts, 1, "one publish, one attempt");
        assert_eq!(reload_stats.successes, 1, "the poison was promoted");
        assert_eq!(reload_stats.rollbacks, 1, "and then rolled back");
        assert_eq!(reload_stats.refusals, 0);
        assert_eq!(
            reload_stats.generation, 1,
            "new streams are back on generation 1"
        );
        assert!(final_stats.quarantined >= 1, "the poison was observed");
        assert!(final_stats.completed >= 2, "service continued throughout");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

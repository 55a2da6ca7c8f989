//! Fault-injection suite: the serving runtime survives every fault class of
//! DESIGN.md §10 — kernel panics, NaN-poisoned frames, severed workers,
//! slow workers, and corrupted model bytes — plus the connection-level
//! faults of the §14 TCP front end (torn length prefixes, mid-stream
//! disconnects, slow writers) — with containment the contract: the fault
//! surfaces as a typed value, the blast radius is one task / one lane /
//! one connection, and everything else stays bit-identical to serial.
//!
//! Every randomized fault is manufactured by the seeded
//! [`rtm_sim::faults`] harness, so any failure here reproduces exactly
//! from its seed.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};

use rtm_exec::{ExecError, Executor};
use rtm_rnn::model::NetworkConfig;
use rtm_rnn::GruNetwork;
use rtm_sim::faults::FaultInjector;
use rtm_sparse::{BspcMatrix, Precision, SparseKernel};
use rtm_tensor::rng::StdRng;
use rtm_tensor::wire::FrameDecoder;
use rtm_tensor::Matrix;
use rtmobile::deploy::{BatchedSession, CompiledNetwork, RuntimePrecision};
use rtmobile::health::{HealthPolicy, NumericFault};
use rtmobile::model_file;
use rtmobile::serve::protocol::put_client_msg;
use rtmobile::serve::{ClientMsg, ServerMsg};
use rtmobile::{RuntimeConfig, ServeStats, Server, StreamClient};

fn bsp_weight(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let keep: Vec<bool> = (0..cols).map(|_| rng.gen_f32() < 0.5).collect();
    Matrix::from_fn(rows, cols, |r, c| {
        if keep[c] {
            0.05 + ((r * 13 + c * 5) % 19) as f32 / 8.0
        } else {
            0.0
        }
    })
}

fn net() -> GruNetwork {
    GruNetwork::new(
        &NetworkConfig {
            input_dim: 6,
            hidden_dims: vec![12, 12],
            num_classes: 4,
        },
        23,
    )
}

fn stream(seed: usize, len: usize) -> Vec<Vec<f32>> {
    (0..len)
        .map(|t| {
            (0..6)
                .map(|i| ((seed * 131 + t * 6 + i) as f32 * 0.19).sin() * 0.5)
                .collect()
        })
        .collect()
}

/// Silences the default "thread panicked" chatter while injected panics
/// fly; restores the default hook on drop so other tests keep diagnostics.
struct QuietPanics;

impl QuietPanics {
    fn install() -> QuietPanics {
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        let _ = std::panic::take_hook();
    }
}

/// Pooled f32 BSPC SpMV into a fresh buffer.
fn pooled_spmv(exec: &Executor, m: &BspcMatrix, x: &[f32]) -> Vec<f32> {
    let mut y = vec![0.0f32; m.rows()];
    exec.spmv_into(m, Precision::F32, x, &mut y).unwrap();
    y
}

#[test]
fn panic_storm_pool_stays_serviceable() {
    let _quiet = QuietPanics::install();
    let mut inj = FaultInjector::new(0xF00D);
    let w = bsp_weight(96, 64, 7);
    let m = BspcMatrix::from_dense(&w, 4, 4).unwrap();
    let x: Vec<f32> = (0..64).map(|i| (i as f32 * 0.11).cos()).collect();
    let serial_spmv = m.spmv(&x).unwrap();
    let xs: Vec<f32> = (0..64 * 4).map(|i| (i as f32 * 0.07).sin()).collect();
    let serial_spmm = m.spmm(&xs, 4).unwrap();

    let exec = Executor::new(4);
    for round in 0..20 {
        // Each storm round dispatches a batch in which one task panics.
        let victim = inj.pick(8);
        let tasks: Vec<rtm_exec::Task<'_>> = (0..8)
            .map(|t| -> rtm_exec::Task<'_> {
                if t == victim {
                    Box::new(move || panic!("storm {round}"))
                } else {
                    Box::new(move || {
                        std::hint::black_box(t);
                    })
                }
            })
            .collect();
        let err = exec.run(tasks).unwrap_err();
        assert!(err.is_panic(), "round {round}: {err:?}");
        match &err {
            ExecError::WorkerPanicked { message } => {
                assert!(message.contains("storm"), "payload survives: {message}")
            }
            other => panic!("wrong error class: {other:?}"),
        }
        // The very next batch on the same pool computes clean results,
        // bit-identical to serial.
        assert_eq!(pooled_spmv(&exec, &m, &x), serial_spmv, "round {round}");
        let mut ys = vec![0.0f32; 96 * 4];
        exec.spmm_into(&m, Precision::F32, &xs, 4, &mut ys).unwrap();
        assert_eq!(ys, serial_spmm, "round {round}");
    }
    // Task panics never kill worker threads, so nothing was respawned.
    assert_eq!(exec.respawned_workers(), 0);
}

#[test]
fn severed_workers_respawn_and_serve() {
    let w = bsp_weight(64, 48, 11);
    let m = BspcMatrix::from_dense(&w, 4, 4).unwrap();
    let x: Vec<f32> = (0..48).map(|i| (i as f32 * 0.3).sin()).collect();
    let serial = m.spmv(&x).unwrap();
    let exec = Executor::new(4);
    assert_eq!(pooled_spmv(&exec, &m, &x), serial);
    for _ in 0..3 {
        // Kill every worker thread; the next dispatch must heal the pool.
        exec.sever_workers();
        assert_eq!(pooled_spmv(&exec, &m, &x), serial);
    }
    assert_eq!(exec.respawned_workers(), 9, "3 workers × 3 severances");
}

#[test]
fn slow_workers_change_nothing_but_wall_clock() {
    let mut inj = FaultInjector::new(0x0510);
    let w = bsp_weight(64, 48, 13);
    let m = BspcMatrix::from_dense(&w, 4, 4).unwrap();
    let x: Vec<f32> = (0..48).map(|i| (i as f32 * 0.21).cos()).collect();
    let serial = m.spmv(&x).unwrap();
    let exec = Executor::new(4);
    for _ in 0..5 {
        // A batch where some tasks stall on-CPU before computing.
        let mut out = vec![vec![0.0f32; 64]; 6];
        let tasks: Vec<rtm_exec::Task<'_>> = out
            .iter_mut()
            .map(|slot| {
                let stall = inj.fire(0.5);
                let m = &m;
                let x = &x;
                let task: rtm_exec::Task<'_> = Box::new(move || {
                    if stall {
                        FaultInjector::new(1).busy_wait_us(200);
                    }
                    m.spmv_prec_into(Precision::F32, x, slot).unwrap();
                });
                task
            })
            .collect();
        exec.run(tasks).unwrap();
        for slot in &out {
            assert_eq!(slot, &serial);
        }
    }
}

/// The acceptance scenario: one NaN-poisoned frame in an 8-lane batch is
/// quarantined while the remaining 7 lanes stay bit-identical to serial and
/// `ServeStats` reports exactly one quarantine.
#[test]
fn nan_lane_in_8_lane_batch_is_quarantined_alone() {
    let mut inj = FaultInjector::new(0xBAD_F00D);
    let compiled = CompiledNetwork::compile(&net(), 4, 4, RuntimePrecision::F32).unwrap();
    let mut streams: Vec<Vec<Vec<f32>>> = (0..8).map(|s| stream(s, 9)).collect();
    let serial: Vec<Vec<Vec<f32>>> = streams.iter().map(|s| compiled.forward(s)).collect();

    let victim = inj.pick(8);
    let frame = inj.pick(9);
    let (at, poison) = inj.poison_frame(&mut streams[victim][frame]);
    assert!(poison.is_nan());
    assert!(at < 6);

    for threads in [1usize, 2, 4] {
        let exec = Executor::new(threads);
        let mut session =
            BatchedSession::new(&compiled, &exec, 8).with_health(HealthPolicy::Quarantine);
        let out = session.run(&streams);
        let stats = session.stats();
        assert_eq!(stats.quarantined, 1, "exactly one quarantine");
        assert_eq!(stats.admitted, 8);
        assert_eq!(stats.completed, 7);
        for (s, (o, expect)) in out.iter().zip(&serial).enumerate() {
            if s == victim {
                // The poisoned stream stops at its last healthy frame.
                assert_eq!(o.len(), frame);
                assert_eq!(o[..], expect[..frame]);
            } else {
                assert_eq!(o, expect, "healthy lane {s} bit-identical to serial");
            }
        }
        assert_eq!(session.faults().len(), 1);
        let fault = session.faults()[0];
        assert_eq!(fault.stream, victim);
        assert_eq!(fault.frame, frame);
        assert_eq!(fault.fault, NumericFault::NaN);
    }
}

#[test]
fn check_mode_observes_the_fault_without_dropping_it() {
    let mut inj = FaultInjector::new(0xC0FFEE);
    let compiled = CompiledNetwork::compile(&net(), 4, 4, RuntimePrecision::F32).unwrap();
    let mut streams: Vec<Vec<Vec<f32>>> = (0..4).map(|s| stream(s, 6)).collect();
    let serial: Vec<Vec<Vec<f32>>> = streams.iter().map(|s| compiled.forward(s)).collect();
    let victim = inj.pick(4);
    inj.poison_frame(&mut streams[victim][2]);

    let exec = Executor::new(2);
    let mut session = BatchedSession::new(&compiled, &exec, 4).with_health(HealthPolicy::Check);
    let out = session.run(&streams);
    assert_eq!(session.stats().quarantined, 0);
    assert_eq!(session.stats().completed, 4);
    assert!(!session.faults().is_empty());
    assert_eq!(session.faults()[0].stream, victim);
    for (s, (o, expect)) in out.iter().zip(&serial).enumerate() {
        assert_eq!(o.len(), expect.len(), "stream {s} fully served");
        if s != victim {
            assert_eq!(o, expect, "healthy stream {s} bit-identical");
        }
    }
}

/// Seeded bit-flip and truncation fuzz of one model's `.rtm` bytes through
/// the whole decode stack. Every second case is passed through
/// [`rtmobile::bundle::reseal`] so the corruption carries valid checksums:
/// the whole-file CRC stops every raw mutation at the container, so without
/// the reseal no field-level guard of the two blob codecs, the network
/// body or the section walk is ever reached. Decoding must never panic —
/// every outcome is `Ok` or a typed `DecodeError` — and `bundle::probe`,
/// which `rtm inspect` runs on files it only promises to report on, must
/// survive the same bytes.
fn fuzz_model_bytes(what: &str, compiled: &CompiledNetwork, seed: u64, iters: usize) {
    use rtm_sparse::io::DecodeError;
    use rtmobile::bundle;

    let pristine = model_file::to_bytes(compiled);
    let mut inj = FaultInjector::new(seed);
    let (mut decoded_ok, mut rejected) = (0usize, 0usize);
    let (mut resealed, mut field_rejected, mut checksum_rejected) = (0usize, 0usize, 0usize);
    for i in 0..iters {
        let mut bytes = pristine.clone();
        if inj.fire(0.25) {
            // Truncation: a strictly short prefix.
            let at = inj.truncate_at(bytes.len());
            bytes.truncate(at);
        } else {
            // 1–3 bit flips anywhere in the file.
            for _ in 0..=inj.pick(3) {
                inj.flip_bit(&mut bytes);
            }
        }
        // `reseal` refuses what it cannot walk (torn trailers, broken
        // section lengths); those cases stay raw.
        let sealed = i % 2 == 1 && bundle::reseal(&mut bytes);
        // Alternate between the plain decoder and the health-validating
        // one: both must return a value, never panic. (Value-section flips
        // can decode to NaN/Inf weights — exactly what the validating path
        // rejects as NonFinite.)
        let result = if (i / 2) % 2 == 0 {
            model_file::from_bytes(&bytes).map(|_| ())
        } else {
            model_file::from_bytes_with(&bytes, HealthPolicy::Quarantine).map(|_| ())
        };
        let probed = bundle::probe(&bytes);
        if result.is_ok() {
            assert!(
                probed.is_ok_and(|p| p.file_crc_ok && p.sections.iter().all(|s| s.crc_ok)),
                "{what} iter {i}: decoded bytes must probe clean"
            );
        }
        let checksum_verdict = matches!(
            result,
            Err(DecodeError::FileChecksum | DecodeError::SectionChecksum(_))
        );
        match result {
            Ok(()) => decoded_ok += 1,
            Err(_) => rejected += 1,
        }
        if sealed {
            resealed += 1;
            checksum_rejected += usize::from(checksum_verdict);
            field_rejected += usize::from(result.is_err() && !checksum_verdict);
        }
    }
    println!(
        "{what}: {iters} mutations, {rejected} rejected, {decoded_ok} decoded; \
         {resealed} resealed: {field_rejected} field-level rejections, \
         {checksum_rejected} checksum rejections, {} decoded",
        resealed - field_rejected - checksum_rejected
    );
    assert_eq!(decoded_ok + rejected, iters);
    // Sanity: the fuzz actually exercised the reject paths,
    assert!(
        rejected > iters / 4,
        "{what}: only {rejected}/{iters} rejected"
    );
    // and the resealed half got past both CRC layers to the field decoders.
    assert!(resealed > iters / 4, "{what}: only {resealed} resealed");
    assert!(
        (resealed - checksum_rejected) * 2 >= resealed && field_rejected > 0,
        "{what}: {checksum_rejected} of {resealed} resealed cases stopped at a checksum, \
         {field_rejected} at a field check"
    );
    // And the pristine bytes still decode under full validation.
    assert!(model_file::from_bytes_with(&pristine, HealthPolicy::Quarantine).is_ok());
}

/// Fuzz over the default (BSPC) gate codec at all three value-payload
/// kinds: ~10k mutations in total (tunable via `RTM_FUZZ_ITERS`).
#[test]
fn model_decoder_survives_bitflip_and_truncation_fuzz() {
    let iters: usize = rtmobile::env::fuzz_iters().ok().flatten().unwrap_or(10_000);
    for (k, precision) in [
        RuntimePrecision::F16,
        RuntimePrecision::F32,
        RuntimePrecision::Int8,
    ]
    .into_iter()
    .enumerate()
    {
        let compiled = CompiledNetwork::compile(&net(), 4, 4, precision).unwrap();
        fuzz_model_bytes(
            &format!("bspc {}", precision.tag()),
            &compiled,
            0xFE11 + k as u64,
            iters.div_ceil(3),
        );
    }
}

// ---------------------------------------------------------------------------
// Connection-level faults against the `rtm serve` front end (DESIGN.md §14).
// ---------------------------------------------------------------------------

/// Runs a serve loop on its own thread until `body` returns, then raises
/// the stop flag and hands back the final stats. The stop flag (rather
/// than `max_streams`) keeps drain accounting out of fault scenarios where
/// how many streams "finish" is exactly what's under test.
fn serve_faulted<R>(
    net: &CompiledNetwork,
    config: RuntimeConfig,
    body: impl FnOnce(SocketAddr) -> R,
) -> (ServeStats, R) {
    /// Raises the stop flag even if `body` panics — otherwise the scope
    /// would hang forever joining a server that was never told to stop,
    /// turning an assertion failure into a timeout.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel();
        let (net, stop) = (net, &stop);
        let handle = scope.spawn(move || {
            let exec = Executor::new(config.threads);
            let mut server = Server::bind(net, &exec, &config).expect("bind");
            tx.send(server.local_addr()).expect("addr handoff");
            server.run_until(stop).expect("serve")
        });
        let addr = rx.recv().expect("server bound");
        let out = {
            let _guard = StopOnDrop(stop);
            body(addr)
        };
        (handle.join().expect("server thread"), out)
    })
}

/// Streams an utterance through a well-behaved client, closed-loop.
fn serve_stream(addr: SocketAddr, tenant: u32, frames: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let mut client = StreamClient::connect(addr).expect("connect");
    client.start(tenant).expect("start");
    let logits = frames
        .iter()
        .map(|f| client.infer(f).expect("infer"))
        .collect();
    client.finish().expect("finish");
    logits
}

/// Blocking-reads one server message from a raw socket.
fn read_server_msg(stream: &mut TcpStream, dec: &mut FrameDecoder) -> ServerMsg {
    let mut buf = [0u8; 1024];
    loop {
        if let Some(payload) = dec.next_frame().expect("well-formed server frame") {
            return ServerMsg::decode(&payload).expect("typed server message");
        }
        let n = stream.read(&mut buf).expect("read");
        assert!(n > 0, "server closed mid-message");
        dec.push(&buf[..n]);
    }
}

fn assert_rows_bit_equal(served: &[Vec<f32>], serial: &[Vec<f32>], what: &str) {
    assert_eq!(served.len(), serial.len(), "{what}: frame count");
    for (t, (a, b)) in served.iter().zip(serial).enumerate() {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: frame {t} logit {i}");
        }
    }
}

/// One connection tears its wire frame at a seeded byte (possibly inside
/// the 4-byte length prefix) and disconnects; another sends a length
/// prefix claiming a frame beyond `MAX_FRAME_LEN`. The first is a
/// disconnect, the second a protocol violation — both kill only their own
/// connection while a concurrent stream is served bit-identically.
#[test]
fn torn_and_oversized_wire_frames_kill_only_their_connection() {
    let mut inj = FaultInjector::new(0x70A2);
    let compiled = CompiledNetwork::compile(&net(), 4, 4, RuntimePrecision::F32).unwrap();
    let frames = stream(61, 8);
    let serial = compiled.forward(&frames);

    let config = RuntimeConfig::default().with_batch(3);
    let (stats, _) = serve_faulted(&compiled, config, |addr| {
        // The survivor proves admission with a first round trip before any
        // fault is injected.
        let mut survivor = StreamClient::connect(addr).expect("connect");
        survivor.start(0).expect("start");
        let mut logits = vec![survivor.infer(&frames[0]).expect("infer")];

        // Torn frame: a valid Start, then a strict prefix of a Frame
        // message (the tear point is seeded and may fall inside the
        // length prefix itself), then EOF.
        let mut torn = TcpStream::connect(addr).expect("connect");
        let mut bytes = Vec::new();
        put_client_msg(&mut bytes, &ClientMsg::Start { tenant: 7 });
        let mut framed = Vec::new();
        put_client_msg(&mut framed, &ClientMsg::Frame(frames[0].clone()));
        let tear = inj.truncate_at(framed.len()).max(1);
        bytes.extend_from_slice(&framed[..tear]);
        torn.write_all(&bytes).expect("write torn");
        drop(torn);

        // Oversized frame: a length prefix past `MAX_FRAME_LEN` is a
        // protocol violation; the server must close this connection.
        let mut oversized = TcpStream::connect(addr).expect("connect");
        let mut bytes = Vec::new();
        put_client_msg(&mut bytes, &ClientMsg::Start { tenant: 8 });
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        oversized.write_all(&bytes).expect("write oversized");
        oversized
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .expect("timeout");
        // Drain until the server's close: the violation must not leave the
        // connection half-alive. (Whether the greeting got flushed first
        // is a race against the killing pass — only the close is the
        // contract.)
        let mut sink = [0u8; 64];
        loop {
            match oversized.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) => panic!("expected EOF after violation, got {e}"),
            }
        }

        // The survivor streams to completion through both faults.
        for f in &frames[1..] {
            logits.push(survivor.infer(f).expect("infer"));
        }
        assert_rows_bit_equal(&logits, &serial, "survivor");
        survivor.finish().expect("finish");
    });
    assert_eq!(stats.completed, 1, "only the survivor completes");
    assert_eq!(stats.quarantined, 0);
    assert_eq!(stats.shed, 0, "faults are not admission sheds");
}

/// A connection that vanishes mid-stream (no `End`) releases its lane: a
/// newcomer is admitted into it and both the concurrent survivor and the
/// newcomer stay bit-identical to serial.
#[test]
fn mid_stream_disconnect_frees_the_lane_for_a_newcomer() {
    let compiled = CompiledNetwork::compile(&net(), 4, 4, RuntimePrecision::F32).unwrap();
    let streams: Vec<Vec<Vec<f32>>> = (0..3).map(|s| stream(s + 70, 7)).collect();
    let serial: Vec<Vec<Vec<f32>>> = streams.iter().map(|s| compiled.forward(s)).collect();

    // Two lanes only: the newcomer can run iff the victim's lane is
    // actually reclaimed.
    let config = RuntimeConfig::default().with_batch(2);
    let (stats, _) = serve_faulted(&compiled, config, |addr| {
        let mut survivor = StreamClient::connect(addr).expect("connect");
        survivor.start(0).expect("start");
        let mut logits = vec![survivor.infer(&streams[0][0]).expect("infer")];

        // The victim holds the second lane, serves two frames bit-exactly,
        // then vanishes without an `End`.
        let mut victim = StreamClient::connect(addr).expect("connect");
        victim.start(1).expect("start");
        for t in 0..2 {
            let row = victim.infer(&streams[1][t]).expect("infer");
            assert_rows_bit_equal(&[row], &serial[1][t..t + 1], &format!("victim frame {t}"));
        }
        drop(victim);

        // The newcomer parks until the severed lane is reaped, then runs
        // an entire stream through it.
        let newcomer = serve_stream(addr, 2, &streams[2]);
        assert_rows_bit_equal(&newcomer, &serial[2], "newcomer");

        for f in &streams[0][1..] {
            logits.push(survivor.infer(f).expect("infer"));
        }
        assert_rows_bit_equal(&logits, &serial[0], "survivor");
        survivor.finish().expect("finish");
    });
    assert_eq!(
        stats.admitted, 3,
        "victim, survivor and newcomer all admitted"
    );
    assert_eq!(
        stats.completed, 2,
        "the disconnected stream never completes"
    );
    assert_eq!(stats.shed, 0);
}

/// A writer that stalls mid-frame must not stall the event loop: an
/// entire other stream is served start-to-finish between the stalled
/// connection's dribbles, and the slow stream still gets its exact logits
/// once the frame finally lands. Single-threaded and deterministic — the
/// test itself sequences the dribbles around the survivor's full run.
#[test]
fn slow_writer_stall_does_not_block_other_connections() {
    let compiled = CompiledNetwork::compile(&net(), 4, 4, RuntimePrecision::F32).unwrap();
    let slow_frames = stream(91, 1);
    let slow_serial = compiled.forward(&slow_frames);
    let fast_frames = stream(92, 8);
    let fast_serial = compiled.forward(&fast_frames);

    let config = RuntimeConfig::default().with_batch(2);
    let (stats, _) = serve_faulted(&compiled, config, |addr| {
        let mut slow = TcpStream::connect(addr).expect("connect");
        slow.set_nodelay(true).expect("nodelay");
        let mut start = Vec::new();
        put_client_msg(&mut start, &ClientMsg::Start { tenant: 0 });
        slow.write_all(&start).expect("start");
        let mut framed = Vec::new();
        put_client_msg(&mut framed, &ClientMsg::Frame(slow_frames[0].clone()));

        // Stall with the frame torn three bytes in — inside the length
        // prefix, the nastiest place to stop.
        slow.write_all(&framed[..3]).expect("dribble");

        // The entire fast stream runs while the slow writer is stalled.
        let fast = serve_stream(addr, 1, &fast_frames);
        assert_rows_bit_equal(&fast, &fast_serial, "fast stream during stall");

        // Finish the frame in small dribbles; the server reassembles it
        // and serves the exact logits as if it had arrived whole.
        for chunk in framed[3..].chunks(2) {
            slow.write_all(chunk).expect("dribble");
        }
        let mut dec = FrameDecoder::new();
        match read_server_msg(&mut slow, &mut dec) {
            ServerMsg::Hello { .. } => {}
            other => panic!("expected Hello, got {other:?}"),
        }
        match read_server_msg(&mut slow, &mut dec) {
            ServerMsg::Logits(row) => {
                assert_rows_bit_equal(&[row], &slow_serial, "slow stream");
            }
            other => panic!("expected Logits, got {other:?}"),
        }
        let mut end = Vec::new();
        put_client_msg(&mut end, &ClientMsg::End);
        slow.write_all(&end).expect("end");
        match read_server_msg(&mut slow, &mut dec) {
            ServerMsg::Done { frames } => assert_eq!(frames, 1),
            other => panic!("expected Done, got {other:?}"),
        }
    });
    assert_eq!(
        stats.completed, 2,
        "both the slow and the fast stream finish"
    );
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.quarantined, 0);
}

// ---------------------------------------------------------------------------
// v5 bundle container faults (DESIGN.md §15): per-section corruption and
// torn publishes must surface as typed `DecodeError`s, never as a panic or
// a silently-wrong model.
// ---------------------------------------------------------------------------

/// A flipped byte inside any one section payload is caught twice over:
/// the whole-file CRC refuses the raw flip, and — even with the file CRC
/// forged to match — the per-section CRC still names the poisoned section.
#[test]
fn v5_section_bitflips_are_caught_per_section_even_under_a_forged_file_crc() {
    use rtm_sparse::io::DecodeError;
    use rtmobile::bundle;

    let compiled = CompiledNetwork::compile(&net(), 4, 4, RuntimePrecision::F16).unwrap();
    let pristine = bundle::to_bytes(&compiled);
    let layout = bundle::probe(&pristine).expect("pristine probe");
    assert_eq!(layout.version, 5);
    assert!(layout.file_crc_ok);
    assert_eq!(layout.sections.len(), 3, "WGHT + TUNE + HLTH");

    let mut inj = FaultInjector::new(0x5EC7);
    for section in &layout.sections {
        assert!(section.crc_ok, "pristine section {:?}", section.tag);
        // TUNE is empty for an untuned network; nothing to flip inside.
        if section.len == 0 {
            continue;
        }
        let at = section.payload_offset + inj.pick(section.len);
        let mut bytes = pristine.clone();
        bytes[at] ^= 1 << inj.pick(8);

        // Raw flip: the outer integrity wall.
        match bundle::from_bytes(&bytes) {
            Err(DecodeError::FileChecksum) => {}
            other => panic!(
                "section {:?}: expected FileChecksum, got {other:?}",
                section.tag
            ),
        }

        // Forge the file CRC (the trailer's last 4 bytes cover everything
        // before them): the per-section CRC is the inner wall and must
        // name the culprit.
        let crc_at = bytes.len() - 4;
        let forged = bundle::crc32(&bytes[..crc_at]);
        bytes[crc_at..].copy_from_slice(&forged.to_le_bytes());
        match bundle::from_bytes(&bytes) {
            Err(DecodeError::SectionChecksum(tag)) => {
                assert_eq!(tag, section.tag, "the named section is the flipped one")
            }
            other => panic!(
                "section {:?}: expected SectionChecksum, got {other:?}",
                section.tag
            ),
        }
    }
}

/// A torn rename (a strict prefix of the published file, any cut point) is
/// rejected by the 16-byte trailer: the magic/CRC at the *end* of the file
/// only exists once the whole file does.
#[test]
fn v5_torn_publishes_are_rejected_by_the_trailer() {
    use rtm_sparse::io::DecodeError;
    use rtmobile::bundle;

    let compiled = CompiledNetwork::compile(&net(), 4, 4, RuntimePrecision::F16).unwrap();
    let pristine = bundle::to_bytes(&compiled);
    let mut inj = FaultInjector::new(0x7EAE);
    // Every tail-torn length near the trailer plus seeded cuts everywhere.
    let mut cuts: Vec<usize> = (pristine.len().saturating_sub(20)..pristine.len()).collect();
    cuts.extend((0..64).map(|_| inj.truncate_at(pristine.len())));
    for cut in cuts {
        let torn = &pristine[..cut];
        match bundle::from_bytes(torn) {
            Err(
                DecodeError::Truncated
                | DecodeError::BadTrailer
                | DecodeError::FileChecksum
                | DecodeError::BadMagic,
            ) => {}
            Ok(_) => panic!("torn publish of {cut}/{} bytes decoded", pristine.len()),
            Err(other) => panic!("cut {cut}: untyped rejection {other:?}"),
        }
    }
    // And the un-torn bytes still decode.
    assert!(bundle::from_bytes(&pristine).is_ok());
}

// ---------------------------------------------------------------------------
// Decoder-input fuzz (DESIGN.md §16): hostile logits at the Decoder API.
// ---------------------------------------------------------------------------

/// Seeded fuzz over every decoder the config can build: NaN/∞-poisoned
/// logits rows, saturated values, empty frames and zero-length utterances.
/// The contract is containment — a decoder must never panic, its final
/// hypothesis must stay structurally sound (symbols bounded by frames
/// pushed, no blank leakage from the CTC family), and `reset` must fully
/// recover the instance for the next utterance.
#[test]
fn decoders_survive_poisoned_logits_fuzz() {
    use rtmobile::DecoderChoice;
    let iters: usize = rtmobile::env::fuzz_iters().ok().flatten().unwrap_or(10_000);
    let choices = [
        DecoderChoice::Argmax,
        DecoderChoice::Viterbi,
        DecoderChoice::CtcGreedy,
        DecoderChoice::CtcBeam(1),
        DecoderChoice::CtcBeam(4),
    ];
    let mut inj = FaultInjector::new(0xDECC0DE);
    let classes = 6usize;
    let blank = rtm_speech::blank_for(classes);
    // One long-lived decoder per choice: reset() is part of what's fuzzed.
    let mut decoders: Vec<_> = choices.iter().map(|c| c.build(classes)).collect();
    for i in 0..iters {
        let frames = inj.pick(8); // 0..=7 — zero-length utterances included
        let mut utterance: Vec<Vec<f32>> = (0..frames)
            .map(|t| {
                (0..classes)
                    .map(|c| ((i + t * classes + c) as f32 * 0.7).sin() * 4.0)
                    .collect()
            })
            .collect();
        // Poison roughly half the rows (NaN / ±Inf / saturated rotate),
        // and occasionally make a row empty (must be ignored, not fatal).
        for row in &mut utterance {
            if inj.fire(0.5) {
                inj.poison_frame(row);
            }
            if inj.fire(0.1) {
                row.clear();
            }
        }
        let which = i % decoders.len();
        let d = &mut decoders[which];
        d.reset();
        let mut pushed = 0usize;
        for row in &utterance {
            if !row.is_empty() {
                pushed += 1;
            }
            let _ = d.push_frame(row);
        }
        let hyp = d.finish();
        assert!(hyp.is_final, "iter {i} ({which}): finish marks final");
        assert!(
            hyp.symbols.len() <= pushed.max(1) * 2,
            "iter {i} ({which}): {} symbols from {pushed} frames",
            hyp.symbols.len()
        );
        if which >= 2 {
            // The CTC family never emits its blank.
            assert!(
                hyp.symbols.iter().all(|&s| s != blank),
                "iter {i} ({which}): blank leaked"
            );
        }
    }
    // After the storm every instance still decodes a clean utterance.
    let clean: Vec<Vec<f32>> = (0..5)
        .map(|t| {
            (0..classes)
                .map(|c| if c == t % classes { 5.0 } else { 0.0 })
                .collect()
        })
        .collect();
    for (choice, d) in choices.iter().zip(&mut decoders) {
        let after = rtm_speech::decode_offline(d.as_mut(), &clean);
        let fresh = rtm_speech::decode_offline(choice.build(classes).as_mut(), &clean);
        assert_eq!(
            after,
            fresh,
            "{}: fuzzed instance differs from fresh",
            choice.label()
        );
    }
}

//! Blocking client for the `rtm serve` wire protocol — the counterpart
//! the integration tests, the `serve_load` bench and the CI smoke use to
//! drive a [`super::Server`] over loopback.
//!
//! The client is deliberately synchronous: one [`StreamClient`] is one
//! stream, `send`/`recv` block, and the closed-loop `infer` round-trip is
//! exactly what the load generator times. Protocol-level surprises
//! (malformed server frames, early EOF) surface as
//! [`std::io::ErrorKind::InvalidData`] / `UnexpectedEof` errors.

use std::io::{Error, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};

use rtm_tensor::wire::FrameDecoder;

use super::protocol::{put_client_msg, ClientMsg, RejectCode, ServerMsg};

/// One client-side stream: connect, `start`, feed frames, `finish`.
#[derive(Debug)]
pub struct StreamClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Frame width the server's model expects (from `Hello`).
    pub input_dim: usize,
    /// Logit width the server produces (from `Hello`).
    pub classes: usize,
    /// Protocol version the server advertised in `Hello` (hypotheses are
    /// available from 2 on).
    pub protocol_version: u32,
    /// This stream opted into hypotheses
    /// ([`StreamClient::want_hypotheses`]).
    hypotheses: bool,
}

/// A decoded hypothesis as it arrived on the wire
/// ([`ServerMsg::Hypothesis`]), for streams that opted in via
/// [`StreamClient::want_hypotheses`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireHypothesis {
    /// Decoded symbol sequence (phone indices).
    pub symbols: Vec<u32>,
    /// Decoder score (log-domain; 0.0 for the argmax decoder).
    pub score: f32,
    /// The server's endpointer currently detects trailing silence.
    pub endpoint: bool,
    /// This is the stream's final hypothesis.
    pub is_final: bool,
}

fn invalid<E: std::error::Error + Send + Sync + 'static>(e: E) -> Error {
    Error::new(ErrorKind::InvalidData, e)
}

impl StreamClient {
    /// Connects and consumes the server's `Hello` greeting.
    ///
    /// # Errors
    ///
    /// Connection errors pass through; a non-`Hello` first message is
    /// `InvalidData`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<StreamClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut client = StreamClient {
            stream,
            decoder: FrameDecoder::new(),
            input_dim: 0,
            classes: 0,
            protocol_version: 1,
            hypotheses: false,
        };
        match client.recv()? {
            ServerMsg::Hello {
                input_dim,
                classes,
                version,
            } => {
                client.input_dim = input_dim as usize;
                client.classes = classes as usize;
                client.protocol_version = version;
                Ok(client)
            }
            other => Err(Error::new(
                ErrorKind::InvalidData,
                format!("expected Hello, got {other:?}"),
            )),
        }
    }

    /// Sends one protocol message.
    ///
    /// # Errors
    ///
    /// Socket write errors pass through.
    pub fn send(&mut self, msg: &ClientMsg) -> std::io::Result<()> {
        let mut out = Vec::new();
        put_client_msg(&mut out, msg);
        self.stream.write_all(&out)
    }

    /// Blocks until the next server message arrives.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the server closes first; `InvalidData` for
    /// unframeable or undecodable bytes; other socket errors pass through.
    pub fn recv(&mut self) -> std::io::Result<ServerMsg> {
        let mut buf = [0u8; 4096];
        loop {
            if let Some(payload) = self.decoder.next_frame().map_err(invalid)? {
                return ServerMsg::decode(&payload).map_err(invalid);
            }
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.decoder.push(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Joins the admission queue under `tenant`. The outcome (a lane, or a
    /// `Reject`) arrives with the first `recv`/`infer` response.
    ///
    /// # Errors
    ///
    /// Socket write errors pass through.
    pub fn start(&mut self, tenant: u32) -> std::io::Result<()> {
        self.send(&ClientMsg::Start { tenant })
    }

    /// Opts this stream into streaming decode: every
    /// [`infer_decoded`](StreamClient::infer_decoded) round trip carries a
    /// hypothesis behind its logits, and
    /// [`finish_decoded`](StreamClient::finish_decoded) returns the final
    /// one. Call after [`start`](StreamClient::start).
    ///
    /// # Errors
    ///
    /// `Unsupported` when the server's advertised protocol version
    /// predates hypotheses (< 2); socket write errors pass through.
    pub fn want_hypotheses(&mut self) -> std::io::Result<()> {
        if self.protocol_version < 2 {
            return Err(Error::new(
                ErrorKind::Unsupported,
                format!(
                    "server speaks protocol v{}, hypotheses need v2",
                    self.protocol_version
                ),
            ));
        }
        self.send(&ClientMsg::WantHypotheses)?;
        self.hypotheses = true;
        Ok(())
    }

    /// The closed-loop round trip the load generator times: sends one
    /// frame and blocks for its logits.
    ///
    /// # Errors
    ///
    /// A `Reject` comes back as a [`RejectedError`] wrapped in
    /// `InvalidData` (inspect via [`std::io::Error::get_ref`]); any other
    /// non-`Logits` reply is `InvalidData` too.
    pub fn infer(&mut self, frame: &[f32]) -> std::io::Result<Vec<f32>> {
        self.send(&ClientMsg::Frame(frame.to_vec()))?;
        match self.recv()? {
            ServerMsg::Logits(row) => Ok(row),
            ServerMsg::Reject { code } => Err(invalid(RejectedError { code })),
            other => Err(Error::new(
                ErrorKind::InvalidData,
                format!("expected Logits, got {other:?}"),
            )),
        }
    }

    /// [`infer`](StreamClient::infer) for an opted-in stream: sends one
    /// frame and blocks for its logits **and** the hypothesis the server
    /// pairs with every served frame.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the stream never opted in
    /// ([`want_hypotheses`](StreamClient::want_hypotheses)), on a
    /// `Reject` ([`RejectedError`]) and on out-of-order replies.
    pub fn infer_decoded(&mut self, frame: &[f32]) -> std::io::Result<(Vec<f32>, WireHypothesis)> {
        if !self.hypotheses {
            return Err(Error::new(
                ErrorKind::InvalidData,
                "stream did not opt into hypotheses",
            ));
        }
        let row = self.infer(frame)?;
        match self.recv()? {
            ServerMsg::Hypothesis {
                symbols,
                score,
                endpoint,
                is_final,
            } => Ok((
                row,
                WireHypothesis {
                    symbols,
                    score,
                    endpoint,
                    is_final,
                },
            )),
            ServerMsg::Reject { code } => Err(invalid(RejectedError { code })),
            other => Err(Error::new(
                ErrorKind::InvalidData,
                format!("expected Hypothesis, got {other:?}"),
            )),
        }
    }

    /// Ends the stream and blocks for `Done`, returning the frame count
    /// the server reports.
    ///
    /// # Errors
    ///
    /// A `Reject` maps to [`RejectedError`] as in
    /// [`infer`](StreamClient::infer); any other non-`Done` reply is
    /// `InvalidData`.
    pub fn finish(&mut self) -> std::io::Result<u32> {
        self.send(&ClientMsg::End)?;
        match self.recv()? {
            ServerMsg::Done { frames } => Ok(frames),
            ServerMsg::Reject { code } => Err(invalid(RejectedError { code })),
            other => Err(Error::new(
                ErrorKind::InvalidData,
                format!("expected Done, got {other:?}"),
            )),
        }
    }

    /// [`finish`](StreamClient::finish) for an opted-in stream: the final
    /// hypothesis precedes `Done` on the wire, so this returns both.
    ///
    /// # Errors
    ///
    /// As [`finish`](StreamClient::finish), plus `InvalidData` when the
    /// stream never opted in.
    pub fn finish_decoded(&mut self) -> std::io::Result<(WireHypothesis, u32)> {
        if !self.hypotheses {
            return Err(Error::new(
                ErrorKind::InvalidData,
                "stream did not opt into hypotheses",
            ));
        }
        self.send(&ClientMsg::End)?;
        let hyp = match self.recv()? {
            ServerMsg::Hypothesis {
                symbols,
                score,
                endpoint,
                is_final,
            } => WireHypothesis {
                symbols,
                score,
                endpoint,
                is_final,
            },
            ServerMsg::Reject { code } => return Err(invalid(RejectedError { code })),
            other => {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    format!("expected final Hypothesis, got {other:?}"),
                ))
            }
        };
        match self.recv()? {
            ServerMsg::Done { frames } => Ok((hyp, frames)),
            ServerMsg::Reject { code } => Err(invalid(RejectedError { code })),
            other => Err(Error::new(
                ErrorKind::InvalidData,
                format!("expected Done, got {other:?}"),
            )),
        }
    }
}

/// The server refused (or stopped) serving this stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejectedError {
    /// The server's reason.
    pub code: RejectCode,
}

impl std::fmt::Display for RejectedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stream rejected: {}", self.code.tag())
    }
}

impl std::error::Error for RejectedError {}

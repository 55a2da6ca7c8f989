//! The `rtm serve` wire protocol.
//!
//! Every message travels as one length-prefixed frame written by
//! [`rtm_tensor::wire::put_frame`] and recovered by
//! [`rtm_tensor::wire::FrameDecoder`]; the payload starts with a one-byte
//! tag followed by little-endian fields written through [`BufMut`] and
//! read back through the checked [`Reader`] — zero registry dependencies,
//! same codec as the `.rtm` model file.
//!
//! The conversation is strictly client-driven after the greeting:
//!
//! ```text
//! server → Hello { input_dim, classes, version }   (on accept)
//! client → Start { tenant }                 (joins the admission queue)
//! client → WantHypotheses                   (optional opt-in, v2 servers)
//! client → Frame(x) …                       (one per audio frame)
//! server → Logits(y) …                      (one per served frame, in order)
//! server → Hypothesis …                     (after Logits, opted-in only)
//! client → End
//! server → Hypothesis { final }             (opted-in only, before Done)
//! server → Done { frames }                  (connection closes)
//! server → Reject { code }                  (instead of service, any time)
//! ```
//!
//! Version negotiation is one-sided: the 12-byte `Hello` body carries the
//! server's version. A v2 server advertises the hypothesis capability in
//! `Hello`; clients that never send [`ClientMsg::WantHypotheses`] receive
//! the logits-only message sequence.
//!
//! Decoding is total: unknown tags, truncated fields and trailing bytes
//! all surface as a typed [`ProtocolError`], never a panic — the server
//! drops the offending connection and the others are unaffected.

use rtm_tensor::wire::{BufMut, Reader, Truncated};

/// The protocol version the server advertises in [`ServerMsg::Hello`].
/// Version 2 adds [`ClientMsg::WantHypotheses`] / [`ServerMsg::Hypothesis`]
/// (streaming decode); version 1 is the original logits-only exchange.
pub const PROTOCOL_VERSION: u32 = 2;

/// Tag bytes; client tags are low, server tags start at 16 so a direction
/// mix-up decodes as [`ProtocolError::UnknownTag`] rather than garbage.
const TAG_START: u8 = 1;
const TAG_FRAME: u8 = 2;
const TAG_END: u8 = 3;
const TAG_WANT_HYPOTHESES: u8 = 4;
const TAG_HELLO: u8 = 16;
const TAG_LOGITS: u8 = 17;
const TAG_DONE: u8 = 18;
const TAG_REJECT: u8 = 19;
const TAG_HYPOTHESIS: u8 = 20;

/// Why the server turned a stream away instead of serving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCode {
    /// Admission control shed the stream (queue depth exceeded under
    /// [`super::ShedPolicy`], or the connection table is full).
    Capacity,
    /// The stream's tenant already holds its quota of concurrent streams.
    TenantQuota,
    /// The health policy quarantined the stream's lane mid-flight.
    Quarantined,
}

impl RejectCode {
    fn code(self) -> u8 {
        match self {
            RejectCode::Capacity => 1,
            RejectCode::TenantQuota => 2,
            RejectCode::Quarantined => 3,
        }
    }

    fn from_code(c: u8) -> Option<RejectCode> {
        match c {
            1 => Some(RejectCode::Capacity),
            2 => Some(RejectCode::TenantQuota),
            3 => Some(RejectCode::Quarantined),
            _ => None,
        }
    }

    /// Human-readable label (used by the CLI and bench reports).
    pub fn tag(self) -> &'static str {
        match self {
            RejectCode::Capacity => "capacity",
            RejectCode::TenantQuota => "tenant-quota",
            RejectCode::Quarantined => "quarantined",
        }
    }
}

/// Messages the client sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Joins the admission queue under a tenant id (quota bookkeeping).
    Start {
        /// Caller-chosen tenant identifier; quotas group streams by it.
        tenant: u32,
    },
    /// One input frame of `input_dim` features.
    Frame(Vec<f32>),
    /// Opts this stream into streaming decode: the server answers every
    /// [`ServerMsg::Logits`] with a [`ServerMsg::Hypothesis`] when the
    /// partial changed, and always sends a final one before
    /// [`ServerMsg::Done`]. Only meaningful against a server whose
    /// [`ServerMsg::Hello`] advertises `version >= 2`; a v1 server
    /// rejects the unknown tag. Streams that never send this receive the
    /// v1 message sequence unchanged.
    WantHypotheses,
    /// The stream is complete; the server answers [`ServerMsg::Done`]
    /// once every frame has its logits.
    End,
}

/// Messages the server sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// The greeting: the model's frame width and logit width, so a client
    /// can validate its feed before streaming, plus the protocol version
    /// the server speaks.
    Hello {
        /// Expected `Frame` length.
        input_dim: u32,
        /// `Logits` length.
        classes: u32,
        /// Highest protocol version the server speaks; `>= 2` advertises
        /// the [`ServerMsg::Hypothesis`] capability.
        version: u32,
    },
    /// Logits for the next unanswered frame, bit-identical to a serial
    /// [`crate::deploy::CompiledNetwork::forward`] of the same stream.
    Logits(Vec<f32>),
    /// A decoded hypothesis for an opted-in stream
    /// ([`ClientMsg::WantHypotheses`]): the symbols decoded so far, sent
    /// after the [`ServerMsg::Logits`] whose frame changed the partial,
    /// and once more (with `is_final`) before [`ServerMsg::Done`].
    Hypothesis {
        /// Decoded symbol sequence (phone indices).
        symbols: Vec<u32>,
        /// Decoder score (log-domain; 0.0 for the argmax decoder).
        score: f32,
        /// The endpointer currently detects trailing silence.
        endpoint: bool,
        /// This is the stream's final hypothesis.
        is_final: bool,
    },
    /// The stream ran to completion after serving this many frames.
    Done {
        /// Frames served (equals frames sent when nothing was rejected).
        frames: u32,
    },
    /// The stream will not (or will no longer) be served.
    Reject {
        /// Why.
        code: RejectCode,
    },
}

/// A frame payload that does not decode as a protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolError {
    /// The first byte is not a known message tag.
    UnknownTag(u8),
    /// The payload ended inside the named field.
    Truncated(&'static str),
    /// The payload continued past the end of the message.
    Trailing(usize),
    /// A `Reject` carried an unknown reason code.
    BadRejectCode(u8),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            ProtocolError::Truncated(what) => write!(f, "message truncated in {what}"),
            ProtocolError::Trailing(n) => write!(f, "{n} trailing bytes after message"),
            ProtocolError::BadRejectCode(c) => write!(f, "unknown reject code {c}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Names the field a short read ended in.
fn field<T>(what: &'static str, read: Result<T, Truncated>) -> Result<T, ProtocolError> {
    read.map_err(|Truncated| ProtocolError::Truncated(what))
}

fn done(r: &Reader<'_>) -> Result<(), ProtocolError> {
    match r.remaining() {
        0 => Ok(()),
        n => Err(ProtocolError::Trailing(n)),
    }
}

impl ClientMsg {
    /// Appends this message's frame payload (tag + fields) to `out`.
    pub fn encode_payload<B: BufMut>(&self, out: &mut B) {
        match self {
            ClientMsg::Start { tenant } => {
                out.put_u8(TAG_START);
                out.put_u32_le(*tenant);
            }
            ClientMsg::Frame(xs) => {
                out.put_u8(TAG_FRAME);
                out.put_counted_f32s(xs);
            }
            ClientMsg::WantHypotheses => out.put_u8(TAG_WANT_HYPOTHESES),
            ClientMsg::End => out.put_u8(TAG_END),
        }
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    ///
    /// Any malformed payload — unknown tag, truncation, trailing bytes —
    /// comes back as the matching [`ProtocolError`].
    pub fn decode(payload: &[u8]) -> Result<ClientMsg, ProtocolError> {
        let mut r = Reader::new(payload);
        let msg = match field("tag", r.u8())? {
            TAG_START => ClientMsg::Start {
                tenant: field("tenant", r.u32())?,
            },
            TAG_FRAME => ClientMsg::Frame(field("frame", r.counted_f32s())?),
            TAG_WANT_HYPOTHESES => ClientMsg::WantHypotheses,
            TAG_END => ClientMsg::End,
            t => return Err(ProtocolError::UnknownTag(t)),
        };
        done(&r)?;
        Ok(msg)
    }
}

impl ServerMsg {
    /// Appends this message's frame payload (tag + fields) to `out`.
    pub fn encode_payload<B: BufMut>(&self, out: &mut B) {
        match self {
            ServerMsg::Hello {
                input_dim,
                classes,
                version,
            } => {
                out.put_u8(TAG_HELLO);
                out.put_u32_le(*input_dim);
                out.put_u32_le(*classes);
                out.put_u32_le(*version);
            }
            ServerMsg::Logits(ys) => {
                out.put_u8(TAG_LOGITS);
                out.put_counted_f32s(ys);
            }
            ServerMsg::Hypothesis {
                symbols,
                score,
                endpoint,
                is_final,
            } => {
                out.put_u8(TAG_HYPOTHESIS);
                out.put_counted_u32s(symbols);
                out.put_f32_le(*score);
                out.put_u8(u8::from(*endpoint));
                out.put_u8(u8::from(*is_final));
            }
            ServerMsg::Done { frames } => {
                out.put_u8(TAG_DONE);
                out.put_u32_le(*frames);
            }
            ServerMsg::Reject { code } => {
                out.put_u8(TAG_REJECT);
                out.put_u8(code.code());
            }
        }
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    ///
    /// Any malformed payload — unknown tag, truncation, trailing bytes,
    /// bad reject code — comes back as the matching [`ProtocolError`].
    pub fn decode(payload: &[u8]) -> Result<ServerMsg, ProtocolError> {
        let mut r = Reader::new(payload);
        let msg = match field("tag", r.u8())? {
            TAG_HELLO => ServerMsg::Hello {
                input_dim: field("hello dims", r.u32())?,
                classes: field("hello dims", r.u32())?,
                version: field("hello dims", r.u32())?,
            },
            TAG_LOGITS => ServerMsg::Logits(field("logits", r.counted_f32s())?),
            TAG_HYPOTHESIS => ServerMsg::Hypothesis {
                symbols: field("hypothesis symbols", r.counted_u32s())?,
                score: field("hypothesis fields", r.f32())?,
                endpoint: field("hypothesis fields", r.u8())? != 0,
                is_final: field("hypothesis fields", r.u8())? != 0,
            },
            TAG_DONE => ServerMsg::Done {
                frames: field("done frames", r.u32())?,
            },
            TAG_REJECT => {
                let c = field("reject code", r.u8())?;
                ServerMsg::Reject {
                    code: RejectCode::from_code(c).ok_or(ProtocolError::BadRejectCode(c))?,
                }
            }
            t => return Err(ProtocolError::UnknownTag(t)),
        };
        done(&r)?;
        Ok(msg)
    }
}

/// Encodes `msg` as a complete wire frame (length prefix + payload) into
/// `out` — the send-side helper both endpoints use.
pub fn put_client_msg(out: &mut Vec<u8>, msg: &ClientMsg) {
    let mut payload = Vec::new();
    msg.encode_payload(&mut payload);
    rtm_tensor::wire::put_frame(out, &payload);
}

/// Server-side counterpart of [`put_client_msg`].
pub fn put_server_msg(out: &mut Vec<u8>, msg: &ServerMsg) {
    let mut payload = Vec::new();
    msg.encode_payload(&mut payload);
    rtm_tensor::wire::put_frame(out, &payload);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_tensor::wire::FrameDecoder;

    #[test]
    fn every_message_roundtrips_through_the_framed_wire() {
        let client = [
            ClientMsg::Start { tenant: 7 },
            ClientMsg::WantHypotheses,
            ClientMsg::Frame(vec![0.5, -1.25, 3.0]),
            ClientMsg::Frame(Vec::new()),
            ClientMsg::End,
        ];
        let mut out = Vec::new();
        for m in &client {
            put_client_msg(&mut out, m);
        }
        let mut dec = FrameDecoder::new();
        dec.push(&out);
        for m in &client {
            let payload = dec.next_frame().unwrap().unwrap();
            assert_eq!(&ClientMsg::decode(&payload).unwrap(), m);
        }
        assert_eq!(dec.next_frame().unwrap(), None);

        let server = [
            ServerMsg::Hello {
                input_dim: 6,
                classes: 4,
                version: PROTOCOL_VERSION,
            },
            ServerMsg::Logits(vec![1.0, 2.0, 3.0, 4.0]),
            ServerMsg::Hypothesis {
                symbols: vec![3, 0, 17],
                score: -4.5,
                endpoint: true,
                is_final: false,
            },
            ServerMsg::Hypothesis {
                symbols: Vec::new(),
                score: 0.0,
                endpoint: false,
                is_final: true,
            },
            ServerMsg::Done { frames: 11 },
            ServerMsg::Reject {
                code: RejectCode::TenantQuota,
            },
        ];
        let mut out = Vec::new();
        for m in &server {
            put_server_msg(&mut out, m);
        }
        let mut dec = FrameDecoder::new();
        dec.push(&out);
        for m in &server {
            let payload = dec.next_frame().unwrap().unwrap();
            assert_eq!(&ServerMsg::decode(&payload).unwrap(), m);
        }
    }

    #[test]
    fn malformed_payloads_decode_to_typed_errors() {
        assert_eq!(ClientMsg::decode(&[]), Err(ProtocolError::Truncated("tag")));
        assert_eq!(ClientMsg::decode(&[99]), Err(ProtocolError::UnknownTag(99)));
        // Frame claiming 2 floats but carrying none.
        assert_eq!(
            ClientMsg::decode(&[super::TAG_FRAME, 2, 0, 0, 0]),
            Err(ProtocolError::Truncated("frame"))
        );
        // Start with garbage after the tenant id.
        assert_eq!(
            ClientMsg::decode(&[super::TAG_START, 1, 0, 0, 0, 0xFF]),
            Err(ProtocolError::Trailing(1))
        );
        assert_eq!(
            ServerMsg::decode(&[super::TAG_REJECT, 200]),
            Err(ProtocolError::BadRejectCode(200))
        );
        assert_eq!(
            ServerMsg::decode(&[super::TAG_HELLO, 1, 0, 0]),
            Err(ProtocolError::Truncated("hello dims"))
        );
        // Hypothesis with symbols but the trailing fields chopped off.
        assert_eq!(
            ServerMsg::decode(&[super::TAG_HYPOTHESIS, 1, 0, 0, 0, 5, 0, 0, 0]),
            Err(ProtocolError::Truncated("hypothesis fields"))
        );
        // A frame-count prefix near usize::MAX must not overflow the
        // bounds check into a bogus "enough bytes" answer.
        let mut huge = vec![super::TAG_FRAME];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            ClientMsg::decode(&huge),
            Err(ProtocolError::Truncated("frame"))
        );
    }

    #[test]
    fn eight_byte_hello_is_rejected_as_truncated() {
        // The version-less v1 wire form (tag + two u32 dims) is a short
        // body like any other: no server in the tree writes it.
        let mut short = vec![super::TAG_HELLO];
        short.extend_from_slice(&6u32.to_le_bytes());
        short.extend_from_slice(&4u32.to_le_bytes());
        assert_eq!(
            ServerMsg::decode(&short),
            Err(ProtocolError::Truncated("hello dims"))
        );
        // Bytes past the version field are still rejected.
        let mut overlong = short.clone();
        overlong.extend_from_slice(&2u32.to_le_bytes());
        overlong.push(0xFF);
        assert_eq!(
            ServerMsg::decode(&overlong),
            Err(ProtocolError::Trailing(1))
        );
    }

    #[test]
    fn reject_codes_roundtrip_and_label() {
        for code in [
            RejectCode::Capacity,
            RejectCode::TenantQuota,
            RejectCode::Quarantined,
        ] {
            assert_eq!(RejectCode::from_code(code.code()), Some(code));
            assert!(!code.tag().is_empty());
        }
        assert_eq!(RejectCode::from_code(0), None);
    }
}

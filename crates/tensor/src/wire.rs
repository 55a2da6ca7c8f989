//! Little-endian wire buffer traits — the workspace's offline replacement
//! for the `bytes` crate.
//!
//! The serialization code in `rtm-sparse::io` and `rtmobile::model_file`
//! only needs a small slice of the `bytes` API: append primitives to a
//! growable buffer and consume primitives from a shrinking slice. The trait
//! and method names match `bytes` so the call sites read identically.

/// Append-side buffer operations (implemented for `Vec<u8>`).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);
    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Appends a `u16` in little-endian order.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a `u32` in little-endian order.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a `u64` in little-endian order.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends an `f32` in little-endian order.
    fn put_f32_le(&mut self, v: f32) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Consume-side buffer operations (implemented for `&[u8]`, which advances
/// through the underlying bytes as values are read).
///
/// The `get_*`/`copy_to_slice`/`advance` methods panic when the buffer holds
/// fewer bytes than requested, matching `bytes`; decoders guard with
/// [`Buf::remaining`] first.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// Skips `n` bytes.
    fn advance(&mut self, n: usize);
    /// Copies `dst.len()` bytes out and advances past them.
    fn copy_to_slice(&mut self, dst: &mut [u8]);
    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }
    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }
    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }
    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }
    /// Reads a little-endian `f32`.
    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end of buffer");
        *self = &self[n..];
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.len(), "read past end of buffer");
        let (head, tail) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = tail;
    }
}

/// Hard ceiling on a single frame's payload (16 MiB). A length prefix
/// above it is treated as corruption/abuse, not as a request to allocate:
/// the decoder surfaces [`FrameOversized`] instead of growing its
/// buffer toward whatever a hostile peer claims.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Appends `payload` as one length-prefixed frame (`u32` little-endian
/// length, then the payload bytes) — the transport unit of the serve wire
/// protocol. Inverse of [`FrameDecoder::next_frame`].
///
/// Panics if the payload exceeds [`MAX_FRAME_LEN`]; encoders own their
/// payloads, so an oversized one is a local bug rather than peer input.
pub fn put_frame<B: BufMut>(out: &mut B, payload: &[u8]) {
    assert!(
        payload.len() <= MAX_FRAME_LEN,
        "frame payload {} exceeds MAX_FRAME_LEN",
        payload.len()
    );
    out.put_u32_le(payload.len() as u32);
    out.put_slice(payload);
}

/// A frame declared a payload length over [`MAX_FRAME_LEN`] — the one
/// non-recoverable decode outcome (the stream offset is lost, so the
/// connection must be dropped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameOversized {
    /// The length the prefix claimed.
    pub claimed: usize,
}

impl std::fmt::Display for FrameOversized {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame length {} exceeds maximum {}",
            self.claimed, MAX_FRAME_LEN
        )
    }
}

impl std::error::Error for FrameOversized {}

/// Incremental decoder for the length-prefixed framing written by
/// [`put_frame`].
///
/// Built for non-blocking sockets, where reads deliver arbitrary byte
/// runs: a `push` may carry half a length prefix, three frames at once, or
/// one byte of a large payload. Bytes accumulate internally and
/// [`next_frame`](FrameDecoder::next_frame) yields complete payloads in
/// order, returning `Ok(None)` while a frame is still torn.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Read offset into `buf`; consumed bytes are compacted away lazily so
    /// steady-state decoding never reallocates.
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends raw bytes received from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `pos` is dead.
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 4096 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet yielded as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pops the next complete frame payload, `Ok(None)` if the buffered
    /// bytes end mid-prefix or mid-payload (feed more via
    /// [`push`](FrameDecoder::push)), or [`FrameOversized`] if the prefix
    /// claims more than [`MAX_FRAME_LEN`].
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameOversized> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(FrameOversized { claimed: len });
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let payload = avail[4..4 + len].to_vec();
        self.pos += 4 + len;
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut out: Vec<u8> = Vec::new();
        out.put_u8(0xAB);
        out.put_u16_le(0x1234);
        out.put_u32_le(0xDEAD_BEEF);
        out.put_u64_le(0x0102_0304_0506_0708);
        out.put_f32_le(-1.5);
        out.put_slice(&[1, 2, 3]);

        let mut buf: &[u8] = &out;
        assert_eq!(buf.remaining(), 1 + 2 + 4 + 8 + 4 + 3);
        assert_eq!(buf.get_u8(), 0xAB);
        assert_eq!(buf.get_u16_le(), 0x1234);
        assert_eq!(buf.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(buf.get_u64_le(), 0x0102_0304_0506_0708);
        assert_eq!(buf.get_f32_le(), -1.5);
        let mut tail = [0u8; 3];
        buf.copy_to_slice(&mut tail);
        assert_eq!(tail, [1, 2, 3]);
        assert_eq!(buf.remaining(), 0);
    }

    #[test]
    fn little_endian_layout() {
        let mut out: Vec<u8> = Vec::new();
        out.put_u32_le(0x0102_0304);
        assert_eq!(out, [0x04, 0x03, 0x02, 0x01]);
    }

    #[test]
    fn advance_skips() {
        let mut buf: &[u8] = &[9, 9, 7];
        buf.advance(2);
        assert_eq!(buf.get_u8(), 7);
    }

    #[test]
    #[should_panic(expected = "read past end")]
    fn short_read_panics() {
        let mut buf: &[u8] = &[1];
        buf.get_u32_le();
    }

    #[test]
    fn frame_roundtrip_multiple() {
        let mut out: Vec<u8> = Vec::new();
        put_frame(&mut out, b"hello");
        put_frame(&mut out, b"");
        put_frame(&mut out, &[7u8; 300]);

        let mut dec = FrameDecoder::new();
        dec.push(&out);
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"hello");
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"");
        assert_eq!(dec.next_frame().unwrap().unwrap(), vec![7u8; 300]);
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn torn_prefix_and_payload_resume_cleanly() {
        let mut out: Vec<u8> = Vec::new();
        put_frame(&mut out, b"abcdef");
        put_frame(&mut out, b"xyz");

        // Deliver the stream one byte at a time: every intermediate state
        // is a torn prefix or torn payload, and each frame appears exactly
        // once, intact, at the byte that completes it.
        let mut dec = FrameDecoder::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        for b in &out {
            dec.push(std::slice::from_ref(b));
            while let Some(frame) = dec.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got, vec![b"abcdef".to_vec(), b"xyz".to_vec()]);
    }

    #[test]
    fn oversized_prefix_is_rejected_not_allocated() {
        let mut dec = FrameDecoder::new();
        dec.push(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        let err = dec.next_frame().unwrap_err();
        assert_eq!(err.claimed, MAX_FRAME_LEN + 1);
        assert!(err.to_string().contains("exceeds maximum"));
    }

    #[test]
    fn decoder_compacts_consumed_bytes() {
        let mut dec = FrameDecoder::new();
        let mut out: Vec<u8> = Vec::new();
        put_frame(&mut out, &[1u8; 2048]);
        // Many frames through the same decoder: the internal buffer must
        // not grow with the total bytes ever pushed.
        for _ in 0..64 {
            dec.push(&out);
            assert!(dec.next_frame().unwrap().is_some());
        }
        assert!(dec.buf.len() < 3 * out.len(), "buffer grew unboundedly");
    }
}

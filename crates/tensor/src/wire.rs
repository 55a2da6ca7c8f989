//! Little-endian wire primitives — the workspace's offline replacement for
//! the `bytes` crate.
//!
//! Writers append to a growable buffer through [`BufMut`] and cannot fail.
//! Everything that *decodes* (`rtm_sparse::io`, the `.rtm` model file and
//! bundle container, the serve protocol) reads bytes from outside the
//! process through the checked [`Reader`]: no read can run past the input
//! and no count taken from the input can size an allocation the input does
//! not back, so a decoder built on it is total by construction.

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
    /// Appends every `u32` of `xs` (no count; see [`Reader::u32s`]).
    fn put_u32s(&mut self, xs: &[u32]) {
        for &x in xs {
            self.put_u32_le(x);
        }
    }
    /// Appends every `f32` of `xs` (no count; see [`Reader::f32s`]).
    fn put_f32s(&mut self, xs: &[f32]) {
        for &x in xs {
            self.put_f32_le(x);
        }
    }
    /// Appends `xs` as a run: its length as a `u32`, then the elements
    /// (see [`Reader::counted_u32s`]).
    fn put_counted_u32s(&mut self, xs: &[u32]) {
        self.put_u32_le(xs.len() as u32);
        self.put_u32s(xs);
    }
    /// Appends `xs` as a run: its length as a `u32`, then the elements
    /// (see [`Reader::counted_f32s`]).
    fn put_counted_f32s(&mut self, xs: &[f32]) {
        self.put_u32_le(xs.len() as u32);
        self.put_f32s(xs);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// A read asked for more bytes than the input has left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated;

impl std::fmt::Display for Truncated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "input truncated")
    }
}

impl std::error::Error for Truncated {}

/// Checked little-endian cursor over bytes from outside the process.
///
/// Every read returns [`Truncated`] instead of panicking when the input is
/// short, and a failed read consumes nothing. The bulk reads take their
/// element count from the caller — typically a field of the same untrusted
/// input — and compare `count × size` (overflow-checked) with the bytes
/// actually left *before* allocating, so a hostile count costs a comparison,
/// never memory.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { rest: bytes }
    }

    /// Bytes left to consume.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The unconsumed bytes (for handing a nested decoder its input).
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// Consumes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or(Truncated)?;
        self.rest = rest;
        Ok(head)
    }

    /// Consumes the next `N` bytes as an array (magics, tags).
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        let (head, rest) = self.rest.split_first_chunk::<N>().ok_or(Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        self.array::<1>().map(|[b]| b)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, Truncated> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, Truncated> {
        self.u32().map(f32::from_bits)
    }

    /// Consumes `count` elements of `N` bytes each — the one place a count
    /// from the input meets the byte budget.
    fn elements<const N: usize>(&mut self, count: usize) -> Result<&'a [[u8; N]], Truncated> {
        let bytes = self.take(count.checked_mul(N).ok_or(Truncated)?)?;
        Ok(bytes.as_chunks::<N>().0)
    }

    /// Reads `count` little-endian `u32`s.
    pub fn u32s(&mut self, count: usize) -> Result<Vec<u32>, Truncated> {
        let raw = self.elements(count)?;
        Ok(raw.iter().map(|&b| u32::from_le_bytes(b)).collect())
    }

    /// Reads `count` little-endian `f32`s.
    pub fn f32s(&mut self, count: usize) -> Result<Vec<f32>, Truncated> {
        let raw = self.elements(count)?;
        Ok(raw.iter().map(|&b| f32::from_le_bytes(b)).collect())
    }

    /// Reads a run: a `u32` count, then that many elements through `bulk`.
    fn counted<T>(
        &mut self,
        bulk: fn(&mut Self, usize) -> Result<Vec<T>, Truncated>,
    ) -> Result<Vec<T>, Truncated> {
        // On a copy, so that a short run leaves the count unconsumed too.
        let mut r = *self;
        let count = r.u32()? as usize;
        let xs = bulk(&mut r, count)?;
        *self = r;
        Ok(xs)
    }

    /// Reads a run: a `u32` count, then that many `u32`s.
    pub fn counted_u32s(&mut self) -> Result<Vec<u32>, Truncated> {
        self.counted(Reader::u32s)
    }

    /// Reads a run: a `u32` count, then that many `f32`s.
    pub fn counted_f32s(&mut self) -> Result<Vec<f32>, Truncated> {
        self.counted(Reader::f32s)
    }

    /// Reads `count` binary16 bit patterns, widened to `f32`.
    pub fn f16s(&mut self, count: usize) -> Result<Vec<f32>, Truncated> {
        let raw = self.elements(count)?;
        let widen = |&b| crate::F16::from_bits(u16::from_le_bytes(b)).to_f32();
        Ok(raw.iter().map(widen).collect())
    }

    /// Reads `count` signed bytes.
    pub fn i8s(&mut self, count: usize) -> Result<Vec<i8>, Truncated> {
        Ok(self.take(count)?.iter().map(|&b| b as i8).collect())
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
        let mut avail = Reader::new(&self.buf[self.pos..]);
        let Ok(len) = avail.u32().map(|len| len as usize) else {
            return Ok(None);
        };
        if len > MAX_FRAME_LEN {
            return Err(FrameOversized { claimed: len });
        }
        let Ok(payload) = avail.take(len).map(<[u8]>::to_vec) else {
            return Ok(None);
        };
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
        out.put_u32s(&[7, 0xFFFF_FFFF]);
        out.put_f32s(&[0.25, -8.0]);
        out.put_u16_le(crate::F16::from_f32(0.5).to_bits());
        out.put_counted_u32s(&[5]);
        out.put_counted_f32s(&[]);
        out.put_slice(&[0xFF, 0x7F]);

        let mut r = Reader::new(&out);
        assert_eq!(r.remaining(), 1 + 2 + 4 + 8 + 4 + 3 + 8 + 8 + 2 + 8 + 4 + 2);
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.u16(), Ok(0x1234));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(0x0102_0304_0506_0708));
        assert_eq!(r.f32(), Ok(-1.5));
        assert_eq!(r.array(), Ok([1, 2, 3]));
        assert_eq!(r.u32s(2), Ok(vec![7, 0xFFFF_FFFF]));
        assert_eq!(r.f32s(2), Ok(vec![0.25, -8.0]));
        assert_eq!(r.f16s(1), Ok(vec![0.5]));
        assert_eq!(r.counted_u32s(), Ok(vec![5]));
        assert_eq!(r.counted_f32s(), Ok(Vec::new()));
        assert_eq!(r.rest(), [0xFF, 0x7F]);
        assert_eq!(r.i8s(2), Ok(vec![-1, 127]));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn little_endian_layout() {
        let mut out: Vec<u8> = Vec::new();
        out.put_u32_le(0x0102_0304);
        assert_eq!(out, [0x04, 0x03, 0x02, 0x01]);
    }

    #[test]
    fn advance_skips() {
        let mut r = Reader::new(&[9, 9, 7]);
        assert_eq!(r.take(2), Ok(&[9u8, 9][..]));
        assert_eq!(r.u8(), Ok(7));
    }

    /// One reader call under test: `(name, bytes it needs, the call)`.
    type ReadCase = (
        &'static str,
        usize,
        fn(&mut Reader<'_>) -> Result<(), Truncated>,
    );

    /// Every scalar and bulk read, at an empty, a one-short and an exact
    /// buffer: short input is `Truncated` and consumes nothing, exact input
    /// is consumed to the last byte.
    #[test]
    fn every_read_is_checked_and_a_failed_read_consumes_nothing() {
        let cases: [ReadCase; 14] = [
            ("u8", 1, |r| r.u8().map(drop)),
            ("u16", 2, |r| r.u16().map(drop)),
            ("u32", 4, |r| r.u32().map(drop)),
            ("u64", 8, |r| r.u64().map(drop)),
            ("f32", 4, |r| r.f32().map(drop)),
            ("array", 4, |r| r.array::<4>().map(drop)),
            ("take", 5, |r| r.take(5).map(drop)),
            ("u32s", 12, |r| r.u32s(3).map(drop)),
            ("f32s", 12, |r| r.f32s(3).map(drop)),
            ("f16s", 6, |r| r.f16s(3).map(drop)),
            ("i8s", 3, |r| r.i8s(3).map(drop)),
            ("take 0", 0, |r| r.take(0).map(drop)),
            ("counted_u32s", 12, |r| r.counted_u32s().map(drop)),
            ("counted_f32s", 12, |r| r.counted_f32s().map(drop)),
        ];
        // Opens with a little-endian 2: the count of the two counted runs.
        let bytes = [2, 0, 0, 0, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A];
        for (name, size, read) in cases {
            for len in [0, size.saturating_sub(1)] {
                if len == size {
                    continue;
                }
                let mut r = Reader::new(&bytes[..len]);
                assert_eq!(read(&mut r), Err(Truncated), "{name} on {len} bytes");
                assert_eq!(r.remaining(), len, "{name}: failed read consumed");
            }
            let mut r = Reader::new(&bytes[..size]);
            assert_eq!(read(&mut r), Ok(()), "{name} on exactly {size} bytes");
            assert_eq!(r.remaining(), 0, "{name}");
        }
    }

    /// A count whose byte size overflows `usize`, or merely exceeds the
    /// input, is refused before anything is allocated.
    #[test]
    fn hostile_counts_are_truncated_not_allocated() {
        let bytes = [0u8; 64];
        for count in [usize::MAX, usize::MAX / 2, usize::MAX / 4 + 1, 1 << 40, 17] {
            let mut r = Reader::new(&bytes);
            assert_eq!(r.u32s(count), Err(Truncated), "u32s({count})");
            assert_eq!(r.f32s(count), Err(Truncated), "f32s({count})");
            assert_eq!(r.f16s(count.max(33)), Err(Truncated), "f16s({count})");
            assert_eq!(r.i8s(count.max(65)), Err(Truncated), "i8s({count})");
            assert_eq!(r.take(count.max(65)), Err(Truncated), "take({count})");
            assert_eq!(r.remaining(), 64, "count {count}");
        }
        // Zero elements are always available, even at the end.
        let mut r = Reader::new(&[]);
        assert_eq!(r.u32s(0), Ok(Vec::new()));
        assert_eq!(r.i8s(0), Ok(Vec::new()));
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

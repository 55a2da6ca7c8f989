//! Binary (de)serialization of the runtime sparse storage format — the
//! on-flash "compact data format for pruned model storage" of §IV-B-c, made
//! concrete for BSPC.
//!
//! A blob has three parts (all little-endian):
//!
//! ```text
//! prologue  magic 4 B ("BSPC"), version u16 (= 1),
//!           precision u8 (0 = f32, 1 = f16, 2 = int8)
//! index     rows, cols, stripes, blocks u32 · kept_row_count u32,
//!           kept_rows · per stripe-block: col_count u32, cols ·
//!           row_offsets (one per kept row) · value_count u32
//! values    f32:  count × 4 B scalars
//!           f16:  count × 2 B binary16 bit patterns
//!           int8: stripes·blocks × 4 B f32 scales (one per stripe-block),
//!                 then count × 1 B codes
//! reorder   flag u8 (0/1), rows × u32 when 1 (compiled gates write 0;
//!           1 is read for older files, other values are rejected)
//! ```
//!
//! No count read from the wire is trusted further than the [`Reader`] can
//! back it with bytes.
//!
//! Values serialized at [`Precision::F16`] round through binary16, exactly
//! the loss the mobile GPU path accepts; deserialization always restores
//! `f32` values. Int8 decoding reconstructs `f32` values as `code · scale`
//! and installs the stored codes as the authoritative int8 sidecar — the
//! codes, not a float re-derivation, round-trip bit-exactly.

use crate::bspc::{BspcError, BspcMatrix};
use crate::footprint::Precision;
use rtm_tensor::wire::{BufMut, Reader, Truncated};
use rtm_tensor::F16;
use std::error::Error;
use std::fmt;

/// Magic bytes opening every serialized BSPC matrix.
pub const MAGIC: &[u8; 4] = b"BSPC";

/// Current format version.
pub const VERSION: u16 = 1;

/// Error decoding a serialized matrix or a container that embeds them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer too short for the declared contents.
    Truncated,
    /// Magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Unknown precision tag.
    BadPrecision(u8),
    /// Storage-format tag other than BSPC's (used by containers that tag
    /// their matrix blobs, e.g. `.rtm` model files).
    BadFormat(u8),
    /// The decoded structure failed validation.
    Invalid(BspcError),
    /// A decoded weight value is NaN or infinite (rejected when the caller
    /// asks for load-time finiteness validation).
    NonFinite,
    /// A bundle section's stored CRC32 does not match its payload (the
    /// section tag identifies which one).
    SectionChecksum([u8; 4]),
    /// The whole-file CRC32 in a bundle trailer does not match the bytes —
    /// a torn write, a truncated rename, or bit rot.
    FileChecksum,
    /// A bundle's integrity trailer is missing or malformed (typically a
    /// torn or interrupted write), or does not follow the last declared
    /// section.
    BadTrailer,
    /// A required bundle section is absent.
    MissingSection([u8; 4]),
    /// A bundle carries the same section tag twice.
    DuplicateSection([u8; 4]),
    /// Bundle health metadata disagrees with the decoded network (the
    /// sections were edited independently).
    MetaMismatch,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "buffer truncated"),
            DecodeError::BadMagic => write!(f, "bad magic bytes"),
            DecodeError::BadVersion(v) => write!(f, "unsupported version {v}"),
            DecodeError::BadPrecision(p) => write!(f, "unknown precision tag {p}"),
            DecodeError::BadFormat(t) => write!(f, "unknown storage-format tag {t}"),
            DecodeError::Invalid(e) => write!(f, "invalid structure: {e}"),
            DecodeError::NonFinite => write!(f, "non-finite weight value"),
            DecodeError::SectionChecksum(tag) => {
                write!(
                    f,
                    "section {:?} checksum mismatch",
                    String::from_utf8_lossy(tag)
                )
            }
            DecodeError::FileChecksum => {
                write!(f, "file checksum mismatch (torn write or bit rot)")
            }
            DecodeError::BadTrailer => write!(f, "missing, malformed or misplaced bundle trailer"),
            DecodeError::MissingSection(tag) => {
                write!(
                    f,
                    "missing bundle section {:?}",
                    String::from_utf8_lossy(tag)
                )
            }
            DecodeError::DuplicateSection(tag) => {
                write!(
                    f,
                    "duplicate bundle section {:?}",
                    String::from_utf8_lossy(tag)
                )
            }
            DecodeError::MetaMismatch => {
                write!(
                    f,
                    "bundle health metadata disagrees with the decoded network"
                )
            }
        }
    }
}

impl Error for DecodeError {}

impl From<BspcError> for DecodeError {
    fn from(e: BspcError) -> DecodeError {
        DecodeError::Invalid(e)
    }
}

impl From<Truncated> for DecodeError {
    fn from(_: Truncated) -> DecodeError {
        DecodeError::Truncated
    }
}

/// Wire tag of each value precision: the tag is the position in this table.
const PRECISION_BY_TAG: [Precision; 3] = [Precision::F32, Precision::F16, Precision::Int8];

/// The one-byte wire tag of `precision` (blob prologues, `.rtm` layer
/// headers and tuner records all use it).
pub fn precision_tag(precision: Precision) -> u8 {
    let tag = PRECISION_BY_TAG.iter().position(|&p| p == precision);
    tag.expect("every precision is in the tag table") as u8
}

/// Inverse of [`precision_tag`].
///
/// # Errors
///
/// [`DecodeError::BadPrecision`] for a tag outside the table.
pub fn precision_from_tag(tag: u8) -> Result<Precision, DecodeError> {
    let known = PRECISION_BY_TAG.get(usize::from(tag)).copied();
    known.ok_or(DecodeError::BadPrecision(tag))
}

/// Writes the value payload: f32 scalars, f16 bit patterns, or the int8
/// sidecar's scales followed by its codes.
fn put_values(
    out: &mut Vec<u8>,
    precision: Precision,
    values: &[f32],
    scales: &[f32],
    codes: &[i8],
) {
    match precision {
        Precision::F32 => out.put_f32s(values),
        Precision::F16 => {
            for &v in values {
                out.put_u16_le(F16::from_f32(v).to_bits());
            }
        }
        Precision::Int8 => {
            out.put_f32s(scales);
            for &q in codes {
                out.put_u8(q as u8);
            }
        }
    }
}

/// The stored int8 codes and scales of a decoded int8 payload.
type Int8Sidecar = Option<(Vec<i8>, Vec<f32>)>;

/// Reads a value payload of `count` values at `precision`: the f32 values
/// the matrix is built from, plus the int8 sidecar when that is what the
/// blob stored. Int8 payloads carry `scales` scales ahead of the codes;
/// `runs` lists, in payload order, how many consecutive codes share which
/// scale, and the f32 values are rebuilt as `code · scale` along it. A run
/// list that disagrees with `count` is clipped or leaves zeros:
/// `BspcMatrix::from_parts` is what rejects an inconsistent structure, so
/// the walk only has to stay in bounds.
fn read_values(
    r: &mut Reader<'_>,
    precision: Precision,
    count: usize,
    scales: usize,
    runs: impl Iterator<Item = (usize, usize)>,
) -> Result<(Vec<f32>, Int8Sidecar), DecodeError> {
    Ok(match precision {
        Precision::F32 => (r.f32s(count)?, None),
        Precision::F16 => (r.f16s(count)?, None),
        Precision::Int8 => {
            let scales = r.f32s(scales)?;
            let codes = r.i8s(count)?;
            let mut values = vec![0.0f32; count];
            let mut at = 0usize;
            for (len, scale) in runs {
                let end = at.saturating_add(len).min(count);
                for i in at..end {
                    values[i] = codes[i] as f32 * scales[scale];
                }
                at = end;
            }
            (values, Some((codes, scales)))
        }
    })
}

/// Reads `N` consecutive `u32` header fields as sizes.
fn header<const N: usize>(r: &mut Reader<'_>) -> Result<[usize; N], Truncated> {
    let mut fields = [0usize; N];
    for f in &mut fields {
        *f = r.u32()? as usize;
    }
    Ok(fields)
}

impl BspcMatrix {
    /// Serializes into `out` at the given value precision (layout in the
    /// [module docs](crate::io)). [`Precision::Int8`] writes the scales
    /// followed by the one-byte codes of the int8 sidecar; decoding
    /// restores the codes bit-exactly.
    pub fn write_to(&self, out: &mut Vec<u8>, precision: Precision) {
        out.put_slice(MAGIC);
        out.put_u16_le(VERSION);
        out.put_u8(precision_tag(precision));
        out.put_u32_le(self.rows() as u32);
        out.put_u32_le(self.cols() as u32);
        out.put_u32_le(self.num_stripes() as u32);
        out.put_u32_le(self.num_blocks() as u32);
        out.put_counted_u32s(self.kept_rows());
        for s in 0..self.num_stripes() {
            for b in 0..self.num_blocks() {
                out.put_counted_u32s(self.block_kept_cols(s, b));
            }
        }
        for k in 0..self.kept_rows().len() {
            out.put_u32_le(self.row_offset(k) as u32);
        }
        out.put_u32_le(self.stored_len() as u32);
        // The wire keeps the row-major order; the tiles are in-memory only.
        let (scales, codes) = (self.int8_scales(), self.values_i8());
        put_values(out, precision, &self.row_major_values(), scales, codes);
        out.put_u8(u8::from(self.reorder().is_some()));
        out.put_u32s(self.reorder().unwrap_or(&[]));
    }

    /// Serializes into a fresh buffer.
    pub fn to_bytes(&self, precision: Precision) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut out, precision);
        out
    }

    /// Decodes one matrix from the front of `bytes`, returning it together
    /// with the number of bytes consumed. Int8 payloads install the stored
    /// codes as the authoritative sidecar.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation, bad magic/version/precision,
    /// or a structurally invalid payload.
    pub fn read_from(bytes: &[u8]) -> Result<(BspcMatrix, usize), DecodeError> {
        let mut r = Reader::new(bytes);
        if &r.array::<4>()? != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let (version, tag) = (r.u16()?, r.u8()?);
        if version != VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let matrix = BspcMatrix::read_body(&mut r, precision_from_tag(tag)?)?;
        Ok((matrix, bytes.len() - r.remaining()))
    }

    /// Reads everything [`BspcMatrix::write_to`] writes after the prologue,
    /// validating the header before any count derived from it sizes a read.
    fn read_body(r: &mut Reader<'_>, precision: Precision) -> Result<BspcMatrix, DecodeError> {
        let [rows, cols, stripes, blocks] = header(r)?;
        // Validate the header *before* any count derived from it sizes a
        // read — a corrupted file must fail cleanly, never OOM.
        if stripes == 0 || blocks == 0 {
            return Err(DecodeError::Invalid(BspcError::ZeroPartition));
        }
        if stripes > rows.max(1) || blocks > cols.max(1) {
            return Err(DecodeError::Invalid(BspcError::PartitionTooFine {
                requested: (stripes, blocks),
                shape: (rows, cols),
            }));
        }

        let kept_count = r.u32()? as usize;
        if kept_count > rows {
            return Err(DecodeError::Truncated);
        }
        let kept_rows = r.u32s(kept_count)?;
        // Not pre-sized from the untrusted partition: every push is backed
        // by bytes the reader has already checked.
        let mut block_cols = Vec::new();
        for _ in 0..stripes.saturating_mul(blocks) {
            block_cols.push(r.counted_u32s()?);
        }
        let row_offsets = r.u32s(kept_count)?;

        let value_count = r.u32()? as usize;
        // The packing order: kept row → its stripe's block segments, one
        // scale per (stripe, block).
        let stripe_h = rows.div_ceil(stripes).max(1);
        let runs = kept_rows.iter().flat_map(|&row| {
            let s = ((row as usize) / stripe_h).min(stripes - 1);
            (s * blocks..(s + 1) * blocks).map(|sb| (block_cols[sb].len(), sb))
        });
        let scales = stripes.saturating_mul(blocks);
        let (values, int8) = read_values(r, precision, value_count, scales, runs)?;

        let reorder = match r.u8()? {
            0 => None,
            1 => Some(r.u32s(rows)?),
            _ => return Err(DecodeError::Invalid(BspcError::BadPermutation)),
        };
        let matrix = BspcMatrix::from_parts(
            rows,
            cols,
            stripes,
            blocks,
            kept_rows,
            block_cols,
            row_offsets,
            values,
            reorder,
        )?;
        // The stored codes are the authoritative sidecar: re-deriving them
        // from the reconstructed floats could flip values sitting exactly
        // on a rounding boundary.
        match int8 {
            Some((codes, scales)) => Ok(matrix.with_int8_sidecar(codes, scales)?),
            None => Ok(matrix),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_tensor::Matrix;

    fn sample() -> BspcMatrix {
        let dense = Matrix::from_fn(8, 8, |r, c| {
            let stripe = r / 4;
            if r != 3 && c % 4 == stripe {
                0.25 + (r * 8 + c) as f32 * 0.01
            } else {
                0.0
            }
        });
        BspcMatrix::from_dense(&dense, 2, 2).expect("partition fits")
    }

    #[test]
    fn roundtrip_f32_exact() {
        let m = sample();
        let bytes = m.to_bytes(Precision::F32);
        let (decoded, consumed) = BspcMatrix::read_from(&bytes).expect("decodes");
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, m);
        assert_eq!(decoded.to_dense(), m.to_dense());
    }

    #[test]
    fn roundtrip_f16_quantizes_values_only() {
        let m = sample();
        let bytes = m.to_bytes(Precision::F16);
        let (decoded, _) = BspcMatrix::read_from(&bytes).expect("decodes");
        // Structure identical.
        assert_eq!(decoded.kept_rows(), m.kept_rows());
        assert_eq!(decoded.stored_len(), m.stored_len());
        // Values within f16 tolerance of the originals.
        for (a, b) in m.values().iter().zip(decoded.values()) {
            assert!((a - b).abs() <= a.abs() * 0.001 + 1e-4, "{a} vs {b}");
        }
        // And the f16 file is smaller.
        assert!(bytes.len() < m.to_bytes(Precision::F32).len());
    }

    #[test]
    fn roundtrip_int8_codes_bit_exact() {
        let m = sample();
        let bytes = m.to_bytes(Precision::Int8);
        let (decoded, consumed) = BspcMatrix::read_from(&bytes).expect("decodes");
        assert_eq!(consumed, bytes.len());
        // Structure identical; codes and scales round-trip bit for bit.
        assert_eq!(decoded.kept_rows(), m.kept_rows());
        assert_eq!(decoded.values_i8(), m.values_i8());
        assert_eq!(decoded.int8_scales(), m.int8_scales());
        // Reconstructed values are code · scale, within the quantization
        // error bound of the originals.
        for (a, b) in m.values().iter().zip(decoded.values()) {
            let bound = m.int8_scales().iter().fold(0.0f32, |x, s| x.max(*s)) * 0.5 + 1e-6;
            assert!((a - b).abs() <= bound, "{a} vs {b}");
        }
        // A second encode of the decoded matrix is byte-identical — the
        // sidecar install, not float re-derivation, is what guarantees this.
        assert_eq!(decoded.to_bytes(Precision::Int8), bytes);
        // The int8 file beats f32 even here; on this tiny sample the 16 B
        // of scale metadata outweighs the byte-per-value saving vs f16
        // (large matrices amortize it — see the footprint tests).
        assert!(bytes.len() < m.to_bytes(Precision::F32).len());
    }

    #[test]
    fn roundtrip_with_reorder() {
        let m = sample()
            .with_reorder((0..8).rev().map(|i| i as u32).collect())
            .expect("valid perm");
        let bytes = m.to_bytes(Precision::F32);
        let (decoded, _) = BspcMatrix::read_from(&bytes).expect("decodes");
        assert_eq!(decoded.reorder(), m.reorder());
    }

    #[test]
    fn concatenated_matrices_decode_sequentially() {
        let a = sample();
        let b = sample();
        let mut bytes = a.to_bytes(Precision::F32);
        b.write_to(&mut bytes, Precision::F16);
        let (da, used) = BspcMatrix::read_from(&bytes).expect("first");
        let (db, _) = BspcMatrix::read_from(&bytes[used..]).expect("second");
        assert_eq!(da, a);
        assert_eq!(db.stored_len(), b.stored_len());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(
            BspcMatrix::read_from(&[]).unwrap_err(),
            DecodeError::Truncated
        );
        assert_eq!(
            BspcMatrix::read_from(b"NOPE\x01\x00\x00").unwrap_err(),
            DecodeError::BadMagic
        );
        let mut bytes = sample().to_bytes(Precision::F32);
        bytes[4] = 99; // version
        assert!(matches!(
            BspcMatrix::read_from(&bytes).unwrap_err(),
            DecodeError::BadVersion(_)
        ));
        let mut bytes = sample().to_bytes(Precision::F32);
        bytes[6] = 7; // precision tag
        assert!(matches!(
            BspcMatrix::read_from(&bytes).unwrap_err(),
            DecodeError::BadPrecision(7)
        ));
        // The reorder flag is the last byte of a blob without a
        // permutation: 0 and 1 are the only values it may take.
        for flag in [2u8, 255] {
            let mut bytes = sample().to_bytes(Precision::F32);
            *bytes.last_mut().unwrap() = flag;
            assert_eq!(
                BspcMatrix::read_from(&bytes).unwrap_err(),
                DecodeError::Invalid(BspcError::BadPermutation),
                "reorder flag {flag}"
            );
        }
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let bytes = sample().to_bytes(Precision::F32);
        // Chop the buffer at every prefix; all must fail cleanly (never
        // panic), except the full length.
        for n in 0..bytes.len() {
            let err = BspcMatrix::read_from(&bytes[..n]);
            assert!(err.is_err(), "prefix {n} must not decode");
        }
        assert!(BspcMatrix::read_from(&bytes).is_ok());
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            DecodeError::Truncated,
            DecodeError::BadMagic,
            DecodeError::BadVersion(2),
            DecodeError::BadPrecision(9),
            DecodeError::SectionChecksum(*b"WGHT"),
            DecodeError::FileChecksum,
            DecodeError::BadTrailer,
            DecodeError::MissingSection(*b"WGHT"),
            DecodeError::DuplicateSection(*b"WGHT"),
            DecodeError::MetaMismatch,
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }

    /// Random BSP-ish matrices round-trip at f32 exactly, and at f16
    /// within binary16 tolerance, for arbitrary partitions.
    #[test]
    fn prop_wire_roundtrip() {
        for seed in 0u64..150 {
            let mut rng = rtm_tensor::init::rng_from_seed(seed);
            let rows = rng.gen_range(1usize..12);
            let cols = rng.gen_range(1usize..12);
            let stripes = rng.gen_range(1usize..4).min(rows);
            let blocks = rng.gen_range(1usize..4).min(cols);
            let dense = rtm_tensor::init::uniform(rows, cols, -1.0, 1.0, &mut rng).map(|v| {
                if v.abs() < 0.5 {
                    0.0
                } else {
                    v
                }
            });
            let m = BspcMatrix::from_dense(&dense, stripes, blocks).expect("fits");

            let bytes = m.to_bytes(Precision::F32);
            let (d32, used) = BspcMatrix::read_from(&bytes).expect("decodes");
            assert_eq!(used, bytes.len(), "seed {seed}");
            assert_eq!(&d32, &m, "seed {seed}");

            let bytes = m.to_bytes(Precision::F16);
            let (d16, _) = BspcMatrix::read_from(&bytes).expect("decodes");
            assert_eq!(d16.kept_rows(), m.kept_rows(), "seed {seed}");
            for (a, b) in m.values().iter().zip(d16.values()) {
                assert!((a - b).abs() <= a.abs() * 1e-3 + 1e-4, "seed {seed}");
            }
        }
    }

    /// Arbitrary byte soup never panics the decoder.
    #[test]
    fn prop_decoder_never_panics() {
        for seed in 0u64..300 {
            let mut rng = rtm_tensor::rng::StdRng::seed_from_u64(seed);
            let len = rng.gen_range(0usize..256);
            let mut bytes = vec![0u8; len];
            rng.fill_bytes(&mut bytes);
            let _ = BspcMatrix::read_from(&bytes);
            // Truncations of a valid stream must also be handled gracefully.
            let m = BspcMatrix::from_dense(&Matrix::zeros(2, 2), 1, 1).expect("fits");
            let valid = m.to_bytes(Precision::F32);
            let cut = rng.gen_range(0usize..valid.len());
            let _ = BspcMatrix::read_from(&valid[..cut]);
        }
    }
}

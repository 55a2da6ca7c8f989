//! Compiled-model bundles: the checksummed, sectioned `.rtm` v5 container
//! plus crash-safe writes and generation stamping (DESIGN.md §15).
//!
//! RTMobile's whole premise is that compilation (pruning, lowering) is
//! paid once so the runtime is lean — which makes the model
//! *artifact* the contract between the compiler and every serving process.
//! This module hardens that contract: a torn write, a truncated copy, or
//! bit rot is detected by checksum before a single byte reaches a kernel,
//! and the writer can never leave a half-written file at the published
//! path.
//!
//! Layout (little-endian):
//!
//! ```text
//! header : magic "RTMF" 4 B, version u16 (= 5), section_count u32
//! section: tag 4 B, payload_len u64, payload_crc32 u32, payload
//! trailer: magic "RTMZ" 4 B, generation u64,
//!          file_crc32 u32 over every preceding byte
//! ```
//!
//! Sections (unknown tags are skipped, so future sections are
//! forward-compatible; a tag that appears twice is refused):
//!
//! * `WGHT` — the network body of [`crate::model_file`]: per-layer BSPC
//!   weights at their final storage precision (no reorder permutation),
//!   biases, dense head.
//! * `TUNE` — written empty (a zero record count), skipped on read. It held
//!   the measurements of a retired compile-time precision probe; the
//!   writer keeps it so that no byte of the format moves.
//! * `HLTH` — health metadata: compiled PER, two retired guard bytes
//!   (written 0, ignored), and the per-layer precision table,
//!   cross-checked against the decoded network so the sections cannot
//!   drift apart unnoticed.
//!
//! The decode order is deliberate: the whole-file CRC is verified *first*,
//! so any random corruption yields
//! [`DecodeError::FileChecksum`]
//! (or [`BadTrailer`](rtm_sparse::io::DecodeError::BadTrailer) for a torn
//! tail) rather than whatever field-level error the flipped byte happens
//! to land on. Per-section CRCs are defense in depth — they localize the
//! damage for diagnostics ([`probe`]) and catch independent section edits
//! (see [`reseal`]).

use crate::deploy::CompiledNetwork;
use crate::health::HealthPolicy;
use crate::model_file;
use rtm_sparse::io::DecodeError;
use rtm_tensor::wire::{BufMut, Reader};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Magic bytes opening the bundle trailer.
pub const TRAILER_MAGIC: &[u8; 4] = b"RTMZ";

/// Section tag: network weights/biases/head (required).
pub const SEC_WEIGHTS: [u8; 4] = *b"WGHT";
/// Section tag: written empty, skipped on read (see the module docs).
pub const SEC_TUNER: [u8; 4] = *b"TUNE";
/// Section tag: health metadata (compiled PER, layer table).
pub const SEC_HEALTH: [u8; 4] = *b"HLTH";

const SECTION_HEADER_LEN: usize = 4 + 8 + 4;
const TRAILER_LEN: usize = 4 + 8 + 4;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — std-only, table-driven.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC32 of `bytes` (the zlib/PNG polynomial).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Metadata and the in-memory bundle.

/// Health metadata stamped into a bundle's `HLTH` section and trailer.
///
/// `generation` orders bundles at one path: the crash-safe [`write()`]
/// publishes atomically, and the serving-side reloader treats a changed
/// file as a new generation. `compiled_per` records what the compile
/// pipeline measured, so a serving process can answer "what accuracy did
/// this model ship with?" without the training set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BundleMeta {
    /// Monotonic publish counter (0 = unstamped).
    pub generation: u64,
    /// Phone-error-rate of the compiled model on the held-out set, as
    /// measured by the pipeline (0 when compiled straight from a config
    /// without evaluation).
    pub compiled_per: f32,
}

impl BundleMeta {
    /// Builder: stamp a generation.
    pub fn with_generation(mut self, generation: u64) -> BundleMeta {
        self.generation = generation;
        self
    }
}

/// A compiled network plus its bundle metadata, behind an [`Arc`] so a
/// serving process can hot-swap generations without copying weights and
/// without stopping in-flight streams (DESIGN.md §15).
#[derive(Debug, Clone)]
pub struct CompiledBundle {
    /// The decoded network (shared with every session serving it).
    pub net: Arc<CompiledNetwork>,
    /// Health metadata from the `HLTH` section and trailer.
    pub meta: BundleMeta,
}

impl CompiledBundle {
    /// Wraps an in-memory network as a bundle with default metadata.
    pub fn from_network(net: CompiledNetwork) -> CompiledBundle {
        CompiledBundle {
            net: Arc::new(net),
            meta: BundleMeta::default(),
        }
    }

    /// Builder: replace the metadata.
    pub fn with_meta(mut self, meta: BundleMeta) -> CompiledBundle {
        self.meta = meta;
        self
    }

    /// The bundle's generation stamp (0 for unstamped bundles).
    pub fn generation(&self) -> u64 {
        self.meta.generation
    }

    /// Unwraps the network (cloning only if other handles are live).
    pub fn into_network(self) -> CompiledNetwork {
        Arc::try_unwrap(self.net).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Reads and decodes a bundle file (no weight scan).
    ///
    /// # Errors
    ///
    /// [`BundleError::Io`] when the file cannot be read,
    /// [`BundleError::Decode`] when the bytes are rejected.
    pub fn load(path: &Path) -> Result<CompiledBundle, BundleError> {
        CompiledBundle::load_with(path, HealthPolicy::Off)
    }

    /// [`CompiledBundle::load`] plus the load-time weight validation of
    /// [`model_file::from_bytes_with`].
    ///
    /// # Errors
    ///
    /// [`BundleError::Io`] when the file cannot be read,
    /// [`BundleError::Decode`] when the bytes are rejected (including
    /// [`DecodeError::NonFinite`] under a scanning policy).
    pub fn load_with(path: &Path, policy: HealthPolicy) -> Result<CompiledBundle, BundleError> {
        let bytes = fs::read(path)?;
        from_bytes_with(&bytes, policy).map_err(BundleError::Decode)
    }
}

/// Why a bundle file could not be loaded: the I/O failed, or the bytes
/// were rejected.
#[derive(Debug)]
pub enum BundleError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The bytes failed structural or integrity validation.
    Decode(DecodeError),
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleError::Io(e) => write!(f, "bundle i/o: {e}"),
            BundleError::Decode(e) => write!(f, "bundle decode: {e}"),
        }
    }
}

impl std::error::Error for BundleError {}

impl From<std::io::Error> for BundleError {
    fn from(e: std::io::Error) -> BundleError {
        BundleError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Encode.

fn put_section(out: &mut Vec<u8>, tag: [u8; 4], payload: &[u8]) {
    out.put_slice(&tag);
    out.put_u64_le(payload.len() as u64);
    out.put_u32_le(crc32(payload));
    out.put_slice(payload);
}

fn write_health_body(out: &mut Vec<u8>, net: &CompiledNetwork, meta: &BundleMeta) {
    out.put_f32_le(meta.compiled_per);
    // The retired precision and format guards' bytes: always 0, never
    // read back.
    out.put_slice(&[0, 0]);
    out.put_u32_le(net.layers.len() as u32);
    for layer in &net.layers {
        out.put_u32_le(layer.hidden as u32);
        out.put_slice(&model_file::mode_tags(layer.precision));
    }
}

/// Serializes `net` as a v5 bundle with default metadata (generation 0).
pub fn to_bytes(net: &CompiledNetwork) -> Vec<u8> {
    to_bytes_with(net, &BundleMeta::default())
}

/// Serializes `net` as a v5 bundle carrying `meta` in the `HLTH` section
/// and the generation + whole-file CRC32 in the trailer.
///
/// The encoding is deterministic: the same network and metadata always
/// produce the same bytes.
pub fn to_bytes_with(net: &CompiledNetwork, meta: &BundleMeta) -> Vec<u8> {
    let mut out = Vec::new();
    out.put_slice(model_file::MAGIC);
    out.put_u16_le(model_file::VERSION);
    out.put_u32_le(3);

    let mut payload = Vec::new();
    model_file::write_network_body(&mut payload, net);
    put_section(&mut out, SEC_WEIGHTS, &payload);

    // A zero record count: the empty `TUNE` every bundle has carried since
    // compiles stopped probing kernels.
    put_section(&mut out, SEC_TUNER, &0u32.to_le_bytes());

    payload.clear();
    write_health_body(&mut payload, net, meta);
    put_section(&mut out, SEC_HEALTH, &payload);

    out.put_slice(TRAILER_MAGIC);
    out.put_u64_le(meta.generation);
    let crc = crc32(&out);
    out.put_u32_le(crc);
    out
}

// ---------------------------------------------------------------------------
// Decode.

/// The framing of a v5 container, parsed once for every consumer: the
/// enforcing decoder ([`from_bytes_with`]), the reporting [`probe`], the
/// rewriting [`reseal`] and [`peek_generation`].
struct Container<'a> {
    bytes: &'a [u8],
    section_count: u32,
    generation: u64,
    stored_crc: u32,
    /// What [`Container::next_section`] has not walked yet of the section
    /// table between header and trailer.
    table: Reader<'a>,
}

impl<'a> Container<'a> {
    /// Parses header and trailer. The checks win in this order: magic,
    /// version, minimum length, trailer magic — the whole-file CRC is the
    /// caller's to enforce or report ([`Container::file_crc_ok`]).
    fn open(bytes: &'a [u8]) -> Result<Container<'a>, DecodeError> {
        let mut header = Reader::new(bytes);
        if &header.array::<4>()? != model_file::MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = header.u16()?;
        if version != model_file::VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let section_count = header.u32()?;
        let table_len = header.remaining().checked_sub(TRAILER_LEN);
        let mut trailer = header;
        let table = trailer.take(table_len.ok_or(DecodeError::Truncated)?)?;
        if &trailer.array::<4>()? != TRAILER_MAGIC {
            return Err(DecodeError::BadTrailer);
        }
        Ok(Container {
            bytes,
            section_count,
            generation: trailer.u64()?,
            stored_crc: trailer.u32()?,
            table: Reader::new(table),
        })
    }

    fn file_crc_ok(&self) -> bool {
        crc32(&self.bytes[..self.bytes.len() - 4]) == self.stored_crc
    }

    /// Steps from one section header past its payload, returning the
    /// section's framing and its payload: `Ok(None)` once less than a
    /// header is left, `Truncated` when a section claims more payload than
    /// the file holds — after which the walk has lost its place and must
    /// not be resumed.
    fn next_section(&mut self) -> Result<Option<(SectionProbe, &'a [u8])>, DecodeError> {
        if self.table.remaining() < SECTION_HEADER_LEN {
            return Ok(None);
        }
        let tag = self.table.array()?;
        let len = usize::try_from(self.table.u64()?).map_err(|_| DecodeError::Truncated)?;
        let stored_crc = self.table.u32()?;
        let payload_offset = self.bytes.len() - TRAILER_LEN - self.table.remaining();
        let payload = self.table.take(len)?;
        let crc_ok = crc32(payload) == stored_crc;
        Ok(Some((
            SectionProbe {
                tag,
                len,
                payload_offset,
                crc_ok,
            },
            payload,
        )))
    }
}

fn read_health_body(
    payload: &[u8],
    meta: &mut BundleMeta,
    net: &CompiledNetwork,
) -> Result<(), DecodeError> {
    let mut r = Reader::new(payload);
    meta.compiled_per = r.f32()?;
    // The retired precision and format guards' bytes: a bundle that set
    // either still shipped its weights as they are, so it loads.
    r.take(2)?;
    if r.u32()? as usize != net.layers.len() {
        return Err(DecodeError::MetaMismatch);
    }
    for layer in &net.layers {
        let hidden = r.u32()? as usize;
        let precision = model_file::mode_from_tags(r.array()?)?;
        if hidden != layer.hidden || precision != layer.precision {
            return Err(DecodeError::MetaMismatch);
        }
    }
    Ok(())
}

/// Decodes `.rtm` bytes into a bundle without a weight scan.
///
/// # Errors
///
/// See [`from_bytes_with`].
pub fn from_bytes(bytes: &[u8]) -> Result<CompiledBundle, DecodeError> {
    from_bytes_with(bytes, HealthPolicy::Off)
}

/// Decodes `.rtm` bytes into a bundle, scanning the weights for
/// finiteness under a scanning [`HealthPolicy`].
///
/// The whole-file CRC32 is verified before any section is parsed, so
/// corruption surfaces as [`DecodeError::FileChecksum`] /
/// [`DecodeError::BadTrailer`] instead of an arbitrary field error. Any
/// container version but 5 — the flat v2–v4 files carried no integrity
/// data — is refused with [`DecodeError::BadVersion`].
///
/// # Errors
///
/// Returns a typed [`DecodeError`] on truncation, bad magic/version,
/// checksum mismatch, a missing or repeated section, bytes between the
/// last declared section and the trailer, health metadata that
/// disagrees with the weights, invalid embedded blobs, or (under a
/// scanning policy) non-finite weights.
pub fn from_bytes_with(bytes: &[u8], policy: HealthPolicy) -> Result<CompiledBundle, DecodeError> {
    let mut container = Container::open(bytes)?;
    if !container.file_crc_ok() {
        return Err(DecodeError::FileChecksum);
    }
    let (mut weights, mut health) = (None, None);
    let mut seen = Vec::new();
    for _ in 0..container.section_count {
        let (section, payload) = container.next_section()?.ok_or(DecodeError::Truncated)?;
        if !section.crc_ok {
            return Err(DecodeError::SectionChecksum(section.tag));
        }
        // One payload per tag: a second `WGHT` must not replace the first
        // behind the back of a reader that lists both.
        if seen.contains(&section.tag) {
            return Err(DecodeError::DuplicateSection(section.tag));
        }
        seen.push(section.tag);
        match section.tag {
            SEC_WEIGHTS => weights = Some(payload),
            SEC_HEALTH => health = Some(payload),
            // `TUNE` and unknown sections are skipped: new tags can ship
            // without breaking old readers.
            _ => {}
        }
    }
    // The trailer follows the last declared section directly.
    if container.table.remaining() != 0 {
        return Err(DecodeError::BadTrailer);
    }

    let body = weights.ok_or(DecodeError::MissingSection(SEC_WEIGHTS))?;
    let net = model_file::read_network_body(&mut Reader::new(body))?;
    let mut meta = BundleMeta::default().with_generation(container.generation);
    if let Some(h) = health {
        read_health_body(h, &mut meta, &net)?;
    }
    if policy.scans() && !model_file::all_finite(&net) {
        return Err(DecodeError::NonFinite);
    }
    Ok(CompiledBundle {
        net: Arc::new(net),
        meta,
    })
}

// ---------------------------------------------------------------------------
// Crash-safe writing and generation stamping.

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` crash-safely: a same-directory temp file is
/// written and fsynced, then atomically renamed over the target, and the
/// directory is fsynced best-effort. A crash at any point leaves either
/// the old file or the new one at `path` — never a torn mix — and a torn
/// temp file is cleaned up on a failed rename.
///
/// # Errors
///
/// Any I/O error from the create/write/sync/rename chain.
pub fn write_bytes_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let tmp = dir.join(format!(
        ".rtm-bundle-{}-{}.tmp",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let publish = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if publish.is_err() {
        let _ = fs::remove_file(&tmp);
        return publish;
    }
    // Durability of the rename itself: sync the directory when the
    // platform allows opening it (best-effort; the rename is already
    // atomic for readers either way).
    if let Ok(d) = fs::File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Serializes and crash-safely publishes `net` + `meta` at `path`
/// ([`to_bytes_with`] + [`write_bytes_atomic`]).
///
/// # Errors
///
/// Any I/O error from the atomic write chain.
pub fn write(path: &Path, net: &CompiledNetwork, meta: &BundleMeta) -> std::io::Result<()> {
    write_bytes_atomic(path, &to_bytes_with(net, meta))
}

/// Reads the generation stamped in a v5 bundle's trailer without decoding
/// the body (structural parse only — no checksum verification, so a
/// corrupt predecessor still yields a stamp to advance past).
pub fn peek_generation(bytes: &[u8]) -> Option<u64> {
    Container::open(bytes).ok().map(|c| c.generation)
}

/// The generation a new publish at `path` should carry: one past the
/// stamp of the file currently there (1 when the path is empty, missing,
/// or not a v5 bundle).
pub fn next_generation(path: &Path) -> u64 {
    fs::read(path)
        .ok()
        .and_then(|bytes| peek_generation(&bytes))
        .map_or(1, |g| g.saturating_add(1))
}

// ---------------------------------------------------------------------------
// Inspection and test plumbing.

/// One section's framing as the container walk sees it (reported by
/// [`probe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionProbe {
    /// The section's 4-byte tag.
    pub tag: [u8; 4],
    /// Payload length in bytes.
    pub len: usize,
    /// Byte offset of the payload within the file (the stored CRC32 is the
    /// four bytes before it).
    pub payload_offset: usize,
    /// Whether the stored per-section CRC32 matches the payload.
    pub crc_ok: bool,
}

/// Integrity summary of an `.rtm` file, for `rtm inspect`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleProbe {
    /// Container version (always [`model_file::VERSION`]).
    pub version: u16,
    /// Trailer generation stamp.
    pub generation: u64,
    /// Whether the whole-file CRC32 matches.
    pub file_crc_ok: bool,
    /// Per-section framing and checksum status.
    pub sections: Vec<SectionProbe>,
}

/// Walks an `.rtm` file's container framing and reports versions,
/// generation, and checksum status *without* enforcing them — corrupt
/// sections are reported, not rejected, so `rtm inspect` can localize
/// damage.
///
/// # Errors
///
/// [`DecodeError::BadMagic`] / [`DecodeError::BadVersion`] /
/// [`DecodeError::Truncated`] / [`DecodeError::BadTrailer`] when the file
/// is not a structurally walkable `.rtm` container at all.
pub fn probe(bytes: &[u8]) -> Result<BundleProbe, DecodeError> {
    let mut container = Container::open(bytes)?;
    let mut sections = Vec::new();
    while let Some((section, _)) = container.next_section()? {
        sections.push(section);
    }
    Ok(BundleProbe {
        version: model_file::VERSION,
        generation: container.generation,
        file_crc_ok: container.file_crc_ok(),
        sections,
    })
}

/// Recomputes every per-section CRC32 and the whole-file CRC32 of a v5
/// bundle in place, returning `false` when the container framing cannot
/// be walked.
///
/// This exists for tests (and only tests of *this* layer's behavior): it
/// simulates an adversarial or tool-assisted edit that fixes up the
/// checksums, so corruption can be driven *past* the integrity layer to
/// prove the field-level decoders still reject it with typed errors.
pub fn reseal(bytes: &mut [u8]) -> bool {
    // Walk first, write after: a container that cannot be walked to its
    // end is left untouched.
    let Ok(walked) = probe(bytes) else {
        return false;
    };
    for s in walked.sections {
        let crc = crc32(&bytes[s.payload_offset..s.payload_offset + s.len]);
        bytes[s.payload_offset - 4..s.payload_offset].copy_from_slice(&crc.to_le_bytes());
    }
    let n = bytes.len();
    let crc = crc32(&bytes[..n - 4]);
    bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RuntimePrecision;
    use rtm_rnn::model::{GruNetwork, NetworkConfig};

    fn compiled(seed: u64) -> CompiledNetwork {
        let net = GruNetwork::new(
            &NetworkConfig {
                input_dim: 5,
                hidden_dims: vec![8],
                num_classes: 3,
            },
            seed,
        );
        CompiledNetwork::compile(&net, 4, 2, RuntimePrecision::F16).expect("partition fits")
    }

    /// Frames `sections` as a v5 bundle of generation 0.
    fn assemble(sections: &[([u8; 4], &[u8])]) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_slice(model_file::MAGIC);
        out.put_u16_le(model_file::VERSION);
        out.put_u32_le(sections.len() as u32);
        for &(tag, payload) in sections {
            put_section(&mut out, tag, payload);
        }
        out.put_slice(TRAILER_MAGIC);
        out.put_u64_le(0);
        let crc = crc32(&out);
        out.put_u32_le(crc);
        out
    }

    fn weights(net: &CompiledNetwork) -> Vec<u8> {
        let mut body = Vec::new();
        model_file::write_network_body(&mut body, net);
        body
    }

    fn health(net: &CompiledNetwork, meta: &BundleMeta) -> Vec<u8> {
        let mut body = Vec::new();
        write_health_body(&mut body, net, meta);
        body
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn metadata_roundtrips_through_the_trailer_and_health_section() {
        let net = compiled(3);
        let meta = BundleMeta {
            generation: 42,
            compiled_per: 0.125,
        };
        let bytes = to_bytes_with(&net, &meta);
        let bundle = from_bytes(&bytes).expect("decodes");
        assert_eq!(bundle.meta, meta);
        assert_eq!(bundle.generation(), 42);
        // Same inputs, same bytes: the writer is deterministic.
        assert_eq!(bytes, to_bytes_with(&net, &meta));
        // HLTH payload: compiled PER f32, two guard bytes, layer count, then
        // per layer hidden u32 + [precision, format]. Both guard bytes are
        // retired: a bundle that set either loads with the same metadata. A
        // row's format byte other than BSPC's 0 is refused like in any other
        // header.
        let health = probe(&bytes).expect("probe").sections[2];
        assert_eq!(&health.tag, b"HLTH");
        let edited = |offset: usize, byte: u8| {
            let mut edited = bytes.clone();
            edited[health.payload_offset + offset] = byte;
            assert!(reseal(&mut edited));
            from_bytes(&edited)
        };
        assert_eq!(edited(4, 1).expect("retired byte ignored").meta, meta);
        assert_eq!(edited(5, 1).expect("retired byte ignored").meta, meta);
        assert_eq!(edited(15, 1).unwrap_err(), DecodeError::BadFormat(1));
    }

    #[test]
    fn every_single_bitflip_is_rejected() {
        let net = compiled(7);
        let bytes = to_bytes_with(&net, &BundleMeta::default().with_generation(1));
        // Stride through the file flipping one bit at a time; every flip
        // must be rejected (the checksum catches what field validation
        // would miss) and none may panic.
        for pos in (0..bytes.len()).step_by(11) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x10;
            let err = from_bytes(&corrupt).expect_err(&format!("flip at {pos} must fail"));
            match pos {
                0..=3 => assert_eq!(err, DecodeError::BadMagic),
                4..=5 => assert!(matches!(err, DecodeError::BadVersion(_))),
                _ => assert!(
                    matches!(err, DecodeError::FileChecksum | DecodeError::BadTrailer),
                    "flip at {pos}: got {err:?}"
                ),
            }
        }
        assert!(from_bytes(&bytes).is_ok());
    }

    #[test]
    fn section_checksums_catch_corruption_under_a_resealed_file_crc() {
        let net = compiled(9);
        let mut bytes = to_bytes(&net);
        let p = probe(&bytes).expect("probe");
        let hlth = p.sections.iter().find(|s| s.tag == SEC_HEALTH).unwrap();
        // Corrupt the HLTH payload, then fix up only the *file* CRC — the
        // per-section CRC must still catch it.
        bytes[hlth.payload_offset] ^= 0xFF;
        let n = bytes.len();
        let crc = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            from_bytes(&bytes).unwrap_err(),
            DecodeError::SectionChecksum(SEC_HEALTH)
        );
    }

    #[test]
    fn health_metadata_must_agree_with_the_weights() {
        let net = compiled(11);
        let mut bytes = to_bytes(&net);
        let p = probe(&bytes).expect("probe");
        let hlth = p.sections.iter().find(|s| s.tag == SEC_HEALTH).unwrap();
        // Flip the first layer's precision byte in the table (offset 10 + 4
        // into the HLTH body) and reseal all checksums — the cross-check
        // against the decoded network must refuse the drift.
        bytes[hlth.payload_offset + 14] ^= 1;
        assert!(reseal(&mut bytes));
        assert_eq!(from_bytes(&bytes).unwrap_err(), DecodeError::MetaMismatch);
    }

    #[test]
    fn a_missing_weights_section_is_typed() {
        let net = compiled(13);
        // Hand-assemble a bundle with only TUNE + HLTH.
        let out = assemble(&[
            (SEC_TUNER, &0u32.to_le_bytes()),
            (SEC_HEALTH, &health(&net, &BundleMeta::default())),
        ]);
        assert_eq!(
            from_bytes(&out).unwrap_err(),
            DecodeError::MissingSection(SEC_WEIGHTS)
        );
    }

    #[test]
    fn a_repeated_section_is_refused() {
        // A decoy second `WGHT` behind a sealed, well-formed table: the
        // reader must not serve it while `probe` lists both.
        let (net, decoy) = (compiled(23), compiled(25));
        let bytes = assemble(&[
            (SEC_WEIGHTS, &weights(&net)),
            (SEC_TUNER, &0u32.to_le_bytes()),
            (SEC_HEALTH, &health(&net, &BundleMeta::default())),
            (SEC_WEIGHTS, &weights(&decoy)),
        ]);
        let p = probe(&bytes).expect("probe");
        assert!(p.file_crc_ok && p.sections.iter().all(|s| s.crc_ok));
        let tags: Vec<[u8; 4]> = p.sections.iter().map(|s| s.tag).collect();
        assert_eq!(tags, [SEC_WEIGHTS, SEC_TUNER, SEC_HEALTH, SEC_WEIGHTS]);
        assert_eq!(
            from_bytes(&bytes).unwrap_err(),
            DecodeError::DuplicateSection(SEC_WEIGHTS)
        );
    }

    #[test]
    fn bytes_between_the_last_section_and_the_trailer_are_refused() {
        let bytes = to_bytes(&compiled(27));
        let trailer_at = bytes.len() - TRAILER_LEN;
        // Fewer stray bytes than a section header, and more.
        for stray in [1, 9, 15, 16, 40] {
            let mut padded = bytes[..trailer_at].to_vec();
            padded.extend(std::iter::repeat_n(0xAB, stray));
            padded.extend_from_slice(&bytes[trailer_at..]);
            // Reseal the file CRC only: no section payload changed.
            let n = padded.len();
            let crc = crc32(&padded[..n - 4]);
            padded[n - 4..].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(
                from_bytes(&padded).unwrap_err(),
                DecodeError::BadTrailer,
                "{stray} stray bytes"
            );
        }
    }

    /// A bundle as compiles that timed kernels wrote it: tuner records in
    /// `TUNE` (count u32, then per record layer u32, [precision, format],
    /// micros f32) and the precision-guard byte of `HLTH` set.
    #[test]
    fn a_bundle_with_tuner_records_and_a_tripped_guard_loads() {
        let net = compiled(29);
        let mut tune = Vec::new();
        tune.put_u32_le(net.layers.len() as u32);
        for (i, layer) in net.layers.iter().enumerate() {
            tune.put_u32_le(i as u32);
            tune.put_slice(&model_file::mode_tags(layer.precision));
            tune.put_f32_le(2.5);
        }
        let meta = BundleMeta {
            generation: 0,
            compiled_per: 12.5,
        };
        let mut hlth = health(&net, &meta);
        hlth[4] = 1;
        let bytes = assemble(&[
            (SEC_WEIGHTS, &weights(&net)),
            (SEC_TUNER, &tune),
            (SEC_HEALTH, &hlth),
        ]);
        let bundle = from_bytes(&bytes).expect("loads");
        assert_eq!(bundle.meta, meta);
        let x = [vec![0.1; 5]];
        assert_eq!(bundle.net.forward(&x), net.forward(&x));
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let net = compiled(15);
        let bytes = to_bytes(&net);
        // Append a future section before the trailer and reseal.
        let trailer_at = bytes.len() - TRAILER_LEN;
        let mut extended = bytes[..trailer_at].to_vec();
        put_section(&mut extended, *b"ZZZZ", b"from the future");
        extended[6..10].copy_from_slice(&4u32.to_le_bytes());
        extended.put_slice(TRAILER_MAGIC);
        extended.put_u64_le(0);
        let crc = crc32(&extended);
        extended.put_u32_le(crc);
        let bundle = from_bytes(&extended).expect("unknown section tolerated");
        assert_eq!(
            net.forward(&[vec![0.1; 5]]),
            bundle.net.forward(&[vec![0.1; 5]])
        );
    }

    #[test]
    fn atomic_write_publishes_and_stamps_generations() {
        let dir = std::env::temp_dir().join(format!("rtm-bundle-test-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("model.rtm");
        let net = compiled(17);

        assert_eq!(next_generation(&path), 1, "missing file starts at 1");
        write(&path, &net, &BundleMeta::default().with_generation(1)).expect("write");
        let bundle = CompiledBundle::load(&path).expect("load");
        assert_eq!(bundle.generation(), 1);
        assert_eq!(next_generation(&path), 2);
        write(&path, &net, &BundleMeta::default().with_generation(2)).expect("rewrite");
        assert_eq!(CompiledBundle::load(&path).expect("load").generation(), 2);

        // No temp droppings left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name() != "model.rtm")
            .collect();
        assert!(leftovers.is_empty(), "stray files: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_writes_are_rejected_by_the_trailer() {
        let net = compiled(19);
        let bytes = to_bytes(&net);
        // A torn write publishes a prefix: the trailer is gone or
        // misaligned, and no prefix may decode.
        for n in (6..bytes.len()).step_by(17) {
            let err = from_bytes(&bytes[..n]).expect_err("prefix must fail");
            assert!(
                matches!(err, DecodeError::Truncated | DecodeError::BadTrailer),
                "prefix {n}: got {err:?}"
            );
        }
    }

    #[test]
    fn probe_reports_without_enforcing() {
        let net = compiled(21);
        let mut bytes = to_bytes_with(&net, &BundleMeta::default().with_generation(9));
        let p = probe(&bytes).expect("probe");
        assert_eq!(p.version, 5);
        assert_eq!(p.generation, 9);
        assert!(p.file_crc_ok);
        let tags: Vec<[u8; 4]> = p.sections.iter().map(|s| s.tag).collect();
        assert_eq!(tags, vec![SEC_WEIGHTS, SEC_TUNER, SEC_HEALTH]);
        assert!(p.sections.iter().all(|s| s.crc_ok));

        // Corrupt one section: probe still walks the file and localizes
        // the damage instead of erroring.
        let wght = p.sections[0];
        bytes[wght.payload_offset + 8] ^= 0xFF;
        let p = probe(&bytes).expect("probe walks corrupt file");
        assert!(!p.file_crc_ok);
        assert!(!p.sections[0].crc_ok, "WGHT damage localized");
        assert!(p.sections[1].crc_ok && p.sections[2].crc_ok);
    }

    /// `tests/fixtures/bspc_rowmajor_v5.bundle` was written when compiled
    /// gates still carried a reorder permutation. A fresh compile of the
    /// same pipeline carries none; given the fixture's permutations back,
    /// it must write the fixture's every byte, so everything the
    /// permutations are not stays pinned.
    #[test]
    fn fixture_is_a_fresh_compile_plus_its_permutations() {
        use crate::config::{PrecisionChoice, RuntimeConfig};
        use rtm_tensor::simd;

        let bytes = include_bytes!("../../../tests/fixtures/bspc_rowmajor_v5.bundle");
        let loaded = from_bytes(bytes).expect("the fixture decodes");
        // The twin repeats the fixture's training, whose bits depend on the
        // dot kernels (see `tests/serialization.rs`).
        if simd::vector_isa() != "avx2+fma" || simd::active_variant() != simd::Variant::Vector {
            return;
        }
        let runtime =
            RuntimeConfig::default().with_precision(PrecisionChoice::Fixed(RuntimePrecision::F16));
        let (_, _, mut twin) = crate::RtMobile::builder()
            .hidden(12)
            .seed(7)
            .runtime(runtime)
            .run_keeping_model();
        assert_eq!(twin.layers.len(), loaded.net.layers().len());
        for (t, f) in twin.layers.iter_mut().zip(loaded.net.layers()) {
            let gates = [
                &mut t.w_z, &mut t.u_z, &mut t.w_r, &mut t.u_r, &mut t.w_n, &mut t.u_n,
            ];
            for (gate, fixture) in gates.into_iter().zip(f.gates()) {
                assert_eq!(gate.reorder(), None, "a fresh compile attaches none");
                let perm = fixture.reorder().expect("the fixture carries one");
                *gate = gate
                    .clone()
                    .with_reorder(perm.to_vec())
                    .expect("a row permutation");
            }
        }
        assert_eq!(
            to_bytes_with(&twin, &loaded.meta),
            &bytes[..],
            "the fresh compile plus the fixture's permutations is the fixture"
        );
    }
}

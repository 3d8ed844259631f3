//! The DeepDirect binary model container (`.ddm`) — spec in DESIGN.md §7.13.
//!
//! A compact little-endian format whose float blocks are laid out as a
//! [`TieStore`] holds them: row-major `rows × dim` `f32`s, each block on a
//! 64-byte boundary. Loading copies them in bulk, with no parse and no
//! per-element conversion.
//!
//! ```text
//! offset  size  field
//! 0       8     magic  89 44 44 4D 44 4C 0D 0A  ("\x89DDMDL\r\n")
//! 8       4     container format version (u32 LE) — currently 1
//! 12      4     model schema version (u32 LE) — must equal MODEL_SCHEMA_VERSION
//! 16      4     section count (u32 LE)
//! 20      4     CRC-32 (IEEE) of the section table bytes
//! 24      24×n  section table: { kind u32, crc32 u32, offset u64, len u64 }
//! ...           section payloads (numeric sections 64-byte aligned)
//! ```
//!
//! Section kinds: 1 = meta (JSON: config, head, training counters),
//! 2 = tie.src (u32 LE), 3 = tie.dst (u32 LE), 4 = embeddings (f32 LE,
//! row-major `rows × dim`), 5 = contexts (f32 LE, optional). The file ends
//! exactly at the last section — trailing bytes are rejected. Unknown
//! section kinds are rejected under container version 1; additive evolution
//! bumps the container version, value-interpretation changes bump the model
//! schema version.
//!
//! One reader serves both loaders. `read_lead` reads and checks
//! everything before the float blocks: header, section table, the
//! checksums of meta and ties, the meta and shape checks, and the ties.
//! `stream_block` then reads each float block about a MiB at a time,
//! checksumming, byte-order fixing, fingerprinting and scanning each piece
//! for non-finite values. `decode_model` has it write the pieces straight
//! into the model's [`TieStore`] (`DirectionalityModel::load*`);
//! `decode_scores` reuses one chunk for them and keeps only each row's
//! score and, from the rows' embedding-half logits, each head's fold-in
//! score (`ScoreTable::load*`, what a `dd serve` shard holds). So both
//! loaders give any input the same verdict and the same fingerprint.
//!
//! Every validation failure is a typed [`BinaryFormatError`] naming the
//! offending section — neither loader panics on hostile input (pinned by
//! the corrupt-binary chaos suite).

use std::io::{Read, Seek, SeekFrom, Write};

use dd_linalg::bytes::{self, AlignedBuf, BLOCK_ALIGN};
use dd_linalg::kernels::dot8_f64;
use dd_linalg::sigmoid64;
use serde::{Deserialize, Serialize};

use crate::config::DeepDirectConfig;
use crate::dstep::{self, DirectionalityHead};
use crate::model::{DirectionalityModel, Fingerprint, MODEL_SCHEMA_VERSION};
use crate::pairs::PairIndex;
use crate::scores::{HeadSlots, ScoreTable};
use crate::store::{align_up, TieStore};

/// Magic bytes opening every binary model file. PNG-style: a non-ASCII lead
/// byte catches text-mode transfers, the trailing CR-LF catches newline
/// translation.
pub const MAGIC: [u8; 8] = [0x89, b'D', b'D', b'M', b'D', b'L', b'\r', b'\n'];

/// Container layout version written at byte 8. Bumped when the *container*
/// (header, table, section framing) changes shape.
pub const FORMAT_VERSION: u32 = 1;

/// Fixed header length in bytes (magic through table checksum).
pub const HEADER_LEN: usize = 24;

/// Length of one section-table entry in bytes.
pub const ENTRY_LEN: usize = 24;

/// Section kind tags (the `kind` field of a table entry).
pub mod section {
    /// JSON metadata: config, head parameters, training counters.
    pub const META: u32 = 1;
    /// Tie source node ids, u32 LE, one per row.
    pub const TIE_SRC: u32 = 2;
    /// Tie destination node ids, u32 LE, one per row.
    pub const TIE_DST: u32 = 3;
    /// Embedding block, f32 LE, row-major `rows × dim`.
    pub const EMB: u32 = 4;
    /// Optional context (connection) block, f32 LE, row-major `rows × dim`.
    pub const CTX: u32 = 5;
}

/// Human-readable name of a section kind (used in every error message so
/// failures name the offending section).
pub fn section_name(kind: u32) -> &'static str {
    match kind {
        section::META => "meta",
        section::TIE_SRC => "tie.src",
        section::TIE_DST => "tie.dst",
        section::EMB => "embeddings",
        section::CTX => "contexts",
        _ => "unknown",
    }
}

/// Why a buffer is not a loadable binary model. Display output always names
/// the structural region or section at fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinaryFormatError {
    /// The buffer ends before the named region is complete.
    Truncated {
        /// Region being read when the bytes ran out.
        what: &'static str,
        /// Bytes required to hold the region.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The first eight bytes are not the DeepDirect magic.
    BadMagic,
    /// The container version is newer than this build understands.
    UnsupportedFormatVersion(u32),
    /// The embedded model schema differs from this build's.
    SchemaMismatch {
        /// Schema version found in the header.
        found: u32,
    },
    /// The section count is implausible (zero or far beyond the kinds
    /// defined by this container version).
    BadSectionCount(u32),
    /// The stored section-table checksum does not match the table bytes.
    HeaderChecksum {
        /// CRC stored in the header.
        stored: u32,
        /// CRC computed over the table bytes.
        computed: u32,
    },
    /// A table entry names a kind this container version does not define.
    UnknownSection(u32),
    /// The same section kind appears twice in the table.
    DuplicateSection(&'static str),
    /// A required section is absent.
    MissingSection(&'static str),
    /// A section's `offset + len` leaves the file.
    SectionBounds {
        /// Offending section.
        name: &'static str,
        /// Stored offset.
        offset: u64,
        /// Stored length.
        len: u64,
        /// Actual file size.
        file_len: usize,
    },
    /// A numeric section does not start on a [`BLOCK_ALIGN`] boundary.
    Misaligned {
        /// Offending section.
        name: &'static str,
        /// Stored offset.
        offset: u64,
    },
    /// A numeric section's byte length is not a multiple of its element
    /// size.
    BadSectionLength {
        /// Offending section.
        name: &'static str,
        /// Stored length.
        len: u64,
    },
    /// A section's payload fails its CRC-32.
    SectionChecksum {
        /// Offending section.
        name: &'static str,
        /// CRC stored in the table.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// Bytes remain after the last section.
    TrailingBytes {
        /// Expected file end (end of the last section).
        expected: usize,
        /// Actual file size.
        got: usize,
    },
    /// The meta section is not valid metadata JSON.
    Meta(String),
    /// A section's element count contradicts the shape declared in meta.
    ShapeMismatch {
        /// Offending section.
        name: &'static str,
        /// Elements the meta shape requires.
        expected: usize,
        /// Elements actually present.
        got: usize,
    },
    /// A float payload contains a non-finite value (NaN or ±inf).
    NonFinite {
        /// Offending section.
        name: &'static str,
        /// Element index of the first non-finite value.
        index: usize,
    },
}

impl std::fmt::Display for BinaryFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use BinaryFormatError::*;
        match self {
            Truncated { what, needed, got } => {
                write!(f, "truncated {what}: need {needed} bytes, file has {got}")
            }
            BadMagic => write!(f, "bad magic bytes (not a DeepDirect binary model)"),
            UnsupportedFormatVersion(v) => write!(
                f,
                "unsupported container format version {v} (this build reads version \
                 {FORMAT_VERSION}; the file was written by a newer build — upgrade dd)"
            ),
            SchemaMismatch { found } => write!(
                f,
                "unsupported model schema version {found} (this build reads schema \
                 {MODEL_SCHEMA_VERSION})"
            ),
            BadSectionCount(n) => write!(f, "implausible section count {n} in header"),
            HeaderChecksum { stored, computed } => write!(
                f,
                "section table checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            UnknownSection(kind) => write!(f, "unknown section kind {kind} in section table"),
            DuplicateSection(name) => write!(f, "duplicate section '{name}' in section table"),
            MissingSection(name) => write!(f, "missing required section '{name}'"),
            SectionBounds { name, offset, len, file_len } => write!(
                f,
                "section '{name}' at {offset}+{len} extends past the {file_len}-byte file"
            ),
            Misaligned { name, offset } => {
                write!(f, "section '{name}' offset {offset} is not {BLOCK_ALIGN}-byte aligned")
            }
            BadSectionLength { name, len } => {
                write!(f, "section '{name}' length {len} is not a whole number of elements")
            }
            SectionChecksum { name, stored, computed } => write!(
                f,
                "section '{name}' checksum mismatch (stored {stored:#010x}, computed \
                 {computed:#010x})"
            ),
            TrailingBytes { expected, got } => {
                write!(f, "trailing bytes after last section (expected {expected}, file has {got})")
            }
            Meta(e) => write!(f, "section 'meta' is not valid model metadata: {e}"),
            ShapeMismatch { name, expected, got } => {
                write!(f, "section '{name}' holds {got} elements, meta shape requires {expected}")
            }
            NonFinite { name, index } => {
                write!(f, "section '{name}' contains a non-finite value at element {index}")
            }
        }
    }
}

impl std::error::Error for BinaryFormatError {}

/// JSON metadata document stored in the `meta` section.
#[derive(Serialize, Deserialize)]
struct MetaDoc {
    schema: u32,
    dim: u32,
    rows: u32,
    context: bool,
    cfg: DeepDirectConfig,
    head: DirectionalityHead,
    estep_iterations: u64,
}

/// One section as the table places it.
#[derive(Debug, Clone, Copy)]
struct Section {
    name: &'static str,
    crc: u32,
    offset: usize,
    len: usize,
}

impl Section {
    /// Fails unless `computed` is the payload CRC the table stores.
    fn check_crc(&self, computed: u32) -> Result<(), BinaryFormatError> {
        if computed != self.crc {
            return Err(BinaryFormatError::SectionChecksum {
                name: self.name,
                stored: self.crc,
                computed,
            });
        }
        Ok(())
    }
}

/// Where every section lies: meta, tie.src, tie.dst, embeddings and the
/// optional contexts block. Proved from the header, the table and the file
/// length alone.
#[derive(Debug, Clone, Copy)]
struct Layout {
    meta: Section,
    src: Section,
    dst: Section,
    emb: Section,
    ctx: Option<Section>,
}

fn read_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
}

fn read_u64(bytes: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[off..off + 8]);
    u64::from_le_bytes(b)
}

/// Checks the fixed header. `head` is the first `min(file_len, HEADER_LEN)`
/// bytes of a `file_len`-byte file; returns where the section table ends.
fn table_end(head: &[u8], file_len: usize) -> Result<usize, BinaryFormatError> {
    // The magic comes first, so a short file that is not a `.ddm` (a small
    // JSON document, say) is named as such rather than as truncated.
    let lead = head.len().min(MAGIC.len());
    if head[..lead] != MAGIC[..lead] {
        return Err(BinaryFormatError::BadMagic);
    }
    if file_len < HEADER_LEN {
        return Err(BinaryFormatError::Truncated {
            what: "header",
            needed: HEADER_LEN,
            got: file_len,
        });
    }
    let version = read_u32(head, 8);
    if version != FORMAT_VERSION {
        return Err(BinaryFormatError::UnsupportedFormatVersion(version));
    }
    let schema = read_u32(head, 12);
    if schema != MODEL_SCHEMA_VERSION {
        return Err(BinaryFormatError::SchemaMismatch { found: schema });
    }
    let n_sections = read_u32(head, 16);
    if n_sections == 0 || n_sections > 8 {
        return Err(BinaryFormatError::BadSectionCount(n_sections));
    }
    let table_end = HEADER_LEN + n_sections as usize * ENTRY_LEN;
    if file_len < table_end {
        return Err(BinaryFormatError::Truncated {
            what: "section table",
            needed: table_end,
            got: file_len,
        });
    }
    Ok(table_end)
}

/// Checks the section table. `lead` is the file's first
/// [`table_end`] bytes: the table's checksum, each entry's kind, bounds,
/// alignment and length, that the last section ends the file and that every
/// required section is present. Payload checksums are the caller's, since
/// only the caller holds the payloads.
fn layout(lead: &[u8], file_len: usize) -> Result<Layout, BinaryFormatError> {
    let stored_crc = read_u32(lead, 20);
    let computed_crc = bytes::crc32(&lead[HEADER_LEN..]);
    if stored_crc != computed_crc {
        return Err(BinaryFormatError::HeaderChecksum {
            stored: stored_crc,
            computed: computed_crc,
        });
    }
    let table_end = lead.len();
    let mut sections: [Option<Section>; 5] = [None; 5];
    let mut file_end = table_end;
    for base in (HEADER_LEN..table_end).step_by(ENTRY_LEN) {
        let (kind, crc) = (read_u32(lead, base), read_u32(lead, base + 4));
        let (offset, len) = (read_u64(lead, base + 8), read_u64(lead, base + 16));
        if !(section::META..=section::CTX).contains(&kind) {
            return Err(BinaryFormatError::UnknownSection(kind));
        }
        let name = section_name(kind);
        let slot = &mut sections[(kind - 1) as usize];
        if slot.is_some() {
            return Err(BinaryFormatError::DuplicateSection(name));
        }
        let out_of_bounds = || BinaryFormatError::SectionBounds { name, offset, len, file_len };
        let end = offset
            .checked_add(len)
            .filter(|&end| end <= file_len as u64)
            .ok_or_else(out_of_bounds)?;
        if offset < table_end as u64 {
            return Err(out_of_bounds());
        }
        if kind != section::META {
            if offset % BLOCK_ALIGN as u64 != 0 {
                return Err(BinaryFormatError::Misaligned { name, offset });
            }
            if len % 4 != 0 {
                return Err(BinaryFormatError::BadSectionLength { name, len });
            }
        }
        file_end = file_end.max(end as usize);
        *slot = Some(Section { name, crc, offset: offset as usize, len: len as usize });
    }
    if file_end != file_len {
        return Err(BinaryFormatError::TrailingBytes { expected: file_end, got: file_len });
    }
    let [meta, src, dst, emb, ctx] = sections;
    Ok(Layout {
        meta: meta.ok_or(BinaryFormatError::MissingSection("meta"))?,
        src: src.ok_or(BinaryFormatError::MissingSection("tie.src"))?,
        dst: dst.ok_or(BinaryFormatError::MissingSection("tie.dst"))?,
        emb: emb.ok_or(BinaryFormatError::MissingSection("embeddings"))?,
        ctx,
    })
}

/// Parses the meta section and checks it against the sections the table
/// declares: the config and head must describe the blocks (fold-in sizes
/// its features from the config, and scoring dots the head's weights
/// against the rows), and every section must hold the shape the meta
/// declares.
fn parse_meta(payload: &[u8], layout: &Layout) -> Result<MetaDoc, BinaryFormatError> {
    let text = std::str::from_utf8(payload).map_err(|e| BinaryFormatError::Meta(e.to_string()))?;
    let doc: serde_json::Value =
        serde_json::from_str(text).map_err(|e| BinaryFormatError::Meta(e.to_string()))?;
    // Older builds could write a one-hidden-layer MLP head. Name it, rather
    // than fail on an unknown variant with its weights echoed.
    if doc.get("head").and_then(|h| h.get("Mlp")).is_some() {
        return Err(BinaryFormatError::Meta(
            "the head is an MLP, which this build no longer reads; retrain the model \
             (only the logistic head is supported)"
                .into(),
        ));
    }
    let meta: MetaDoc =
        serde_json::from_value(&doc).map_err(|e| BinaryFormatError::Meta(e.to_string()))?;
    if meta.schema != MODEL_SCHEMA_VERSION {
        return Err(BinaryFormatError::SchemaMismatch { found: meta.schema });
    }
    let rows = meta.rows as usize;
    let dim = meta.dim as usize;
    let DirectionalityHead::Logistic(lr) = &meta.head;
    let head_features = lr.w.len();
    if meta.cfg.dim != dim
        || meta.cfg.context_features != meta.context
        || head_features != dstep::feature_dim(&meta.cfg)
    {
        return Err(BinaryFormatError::Meta(format!(
            "config (dim {}, context {}) and head ({head_features} features) disagree with \
             the declared blocks (dim {dim}, context {})",
            meta.cfg.dim, meta.cfg.context_features, meta.context
        )));
    }
    let expected = rows.checked_mul(dim).ok_or(BinaryFormatError::ShapeMismatch {
        name: "embeddings",
        expected: usize::MAX,
        got: 0,
    })?;
    let shape = |s: &Section, expected: usize| {
        if s.len / 4 != expected {
            return Err(BinaryFormatError::ShapeMismatch {
                name: s.name,
                expected,
                got: s.len / 4,
            });
        }
        Ok(())
    };
    shape(&layout.emb, expected)?;
    match (&layout.ctx, meta.context) {
        (Some(ctx), true) => shape(ctx, expected)?,
        (None, false) => {}
        (Some(_), false) => return Err(BinaryFormatError::DuplicateSection("contexts")),
        (None, true) => return Err(BinaryFormatError::MissingSection("contexts")),
    }
    shape(&layout.src, rows)?;
    shape(&layout.dst, rows)?;
    Ok(meta)
}

/// LE→native fixup for a numeric payload: a no-op on little-endian hosts,
/// an in-place word swap on big-endian ones.
fn normalize_endianness(payload: &mut [u8]) {
    if cfg!(target_endian = "big") {
        bytes::swap_u32_bytes_in_place(payload);
    }
}

/// Floats the finiteness scan tests per branch.
const FINITE_CHUNK: usize = 64;

/// Index of the first non-finite value of `floats`. The scan ORs a
/// branch-free test over each [`FINITE_CHUNK`] values, so it vectorizes,
/// and looks for the exact element only in a chunk that fails.
fn first_non_finite(floats: &[f32]) -> Option<usize> {
    const EXPONENT: u32 = 0x7F80_0000;
    for (c, chunk) in floats.chunks(FINITE_CHUNK).enumerate() {
        // NaN and ±inf are the values whose exponent bits are all set: only
        // there does adding one to the exponent carry into the sign bit.
        let carries = chunk.iter().fold(0, |acc, v| acc | ((v.to_bits() & EXPONENT) + (1 << 23)));
        if carries & 0x8000_0000 != 0 {
            return chunk.iter().position(|v| !v.is_finite()).map(|at| c * FINITE_CHUNK + at);
        }
    }
    None
}

/// Borrows a checked section's payload as `u32`s or `f32`s.
fn u32s<'a>(payload: &'a [u8], name: &'static str) -> Result<&'a [u32], BinaryFormatError> {
    bytes::u32_slice(payload).map_err(|_| BinaryFormatError::BadSectionLength { name, len: 0 })
}

fn f32s<'a>(payload: &'a [u8], name: &'static str) -> Result<&'a [f32], BinaryFormatError> {
    bytes::f32_slice(payload).map_err(|_| BinaryFormatError::BadSectionLength { name, len: 0 })
}

/// Why a load failed: the reader, or the bytes it gave.
#[derive(Debug)]
pub(crate) enum StreamError {
    /// The reader failed.
    Io(std::io::Error),
    /// The bytes are not a loadable model.
    Format(BinaryFormatError),
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<BinaryFormatError> for StreamError {
    fn from(e: BinaryFormatError) -> Self {
        StreamError::Format(e)
    }
}

/// The message both loaders report.
impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "reading model: {e}"),
            StreamError::Format(e) => write!(f, "invalid binary model: {e}"),
        }
    }
}

/// Bytes [`stream_block`] reads of a float block at a time (rounded down
/// to whole rows).
const CHUNK_BYTES: usize = 1 << 20;

/// Reads `s`'s payload into a fresh aligned buffer.
fn read_section<R: Read + Seek>(r: &mut R, s: &Section) -> std::io::Result<AlignedBuf> {
    r.seek(SeekFrom::Start(s.offset as u64))?;
    AlignedBuf::read_exact_from(r, s.len)
}

/// What a `.ddm` holds before its float blocks, checked.
struct Lead {
    layout: Layout,
    meta: MetaDoc,
    /// The native-endian `tie.src` and `tie.dst` payloads.
    tie_bytes: [AlignedBuf; 2],
    /// The model's fingerprint, fed the shapes and the ties.
    fingerprint: Fingerprint,
}

/// The source and destination ids of [`Lead::tie_bytes`], in row order.
fn tie_ids(tie_bytes: &[AlignedBuf; 2]) -> [&[u32]; 2] {
    tie_bytes
        .each_ref()
        .map(|b| bytes::u32_slice(b.as_bytes()).expect("read_lead checked the cast"))
}

/// Reads and checks everything of the `.ddm` in `r` but its float blocks,
/// in this order: the header and the section table, the checksums of
/// meta and ties, then the meta and shape checks.
fn read_lead<R: Read + Seek>(r: &mut R) -> Result<Lead, StreamError> {
    let file_len = usize::try_from(r.seek(SeekFrom::End(0))?)
        .map_err(|e| std::io::Error::other(format!("file too large: {e}")))?;
    r.seek(SeekFrom::Start(0))?;
    let mut lead = vec![0u8; file_len.min(HEADER_LEN)];
    r.read_exact(&mut lead)?;
    let end = table_end(&lead, file_len)?;
    lead.resize(end, 0);
    r.read_exact(&mut lead[HEADER_LEN..])?;
    let layout = layout(&lead, file_len)?;
    let meta_bytes = read_section(r, &layout.meta)?;
    layout.meta.check_crc(bytes::crc32(meta_bytes.as_bytes()))?;
    let mut tie_bytes = [read_section(r, &layout.src)?, read_section(r, &layout.dst)?];
    for (s, payload) in [layout.src, layout.dst].iter().zip(&tie_bytes) {
        s.check_crc(bytes::crc32(payload.as_bytes()))?;
    }
    let meta = parse_meta(meta_bytes.as_bytes(), &layout)?;
    // The payloads are little-endian on disk; each word flips once on
    // big-endian targets, after its checksum was verified over the raw
    // bytes.
    for payload in &mut tie_bytes {
        normalize_endianness(payload.as_mut_bytes());
    }
    for (s, payload) in [layout.src, layout.dst].iter().zip(&tie_bytes) {
        u32s(payload.as_bytes(), s.name)?;
    }
    let mut fingerprint = Fingerprint::new(meta.dim as usize, meta.rows as usize);
    let [src, dst] = tie_ids(&tie_bytes);
    fingerprint.ties(src.iter().copied().zip(dst.iter().copied()));
    Ok(Lead { layout, meta, tie_bytes, fingerprint })
}

/// Bytes [`stream_block`] reads at a time of a `len`-byte block of rows of
/// `row_len` floats: about [`CHUNK_BYTES`], in whole rows.
pub(crate) fn piece_len(row_len: usize, len: usize) -> usize {
    let row = row_len * 4;
    if row == 0 {
        return 0;
    }
    ((CHUNK_BYTES / row).max(1) * row).min(len)
}

/// Streams float block `s` into `dest`, [`piece_len`] bytes at a time.
/// A `dest` as long as the block takes each piece at its own offset (the
/// model's store); a shorter one takes every piece in turn (the table's
/// reused chunk). Each piece is checksummed over its raw bytes, fed to the
/// fingerprint as native bytes, scanned for non-finite values and handed
/// to `each` with the index of its first row. A non-finite value is
/// reported only once the block's checksum has matched, so a corrupt block
/// fails on its checksum, not on whatever value the corruption left in it.
fn stream_block<R: Read + Seek>(
    r: &mut R,
    s: &Section,
    row_len: usize,
    dest: &mut [u8],
    fingerprint: &mut Fingerprint,
    mut each: impl FnMut(usize, &[f32]),
) -> Result<(), StreamError> {
    r.seek(SeekFrom::Start(s.offset as u64))?;
    let step = piece_len(row_len, s.len);
    let mut crc = 0;
    let mut non_finite = None;
    let mut done = 0;
    while done < s.len {
        let take = (s.len - done).min(step);
        let at = if dest.len() == s.len { done } else { 0 };
        let piece = &mut dest[at..at + take];
        r.read_exact(piece)?;
        crc = bytes::crc32_update(crc, piece);
        normalize_endianness(piece);
        fingerprint.update(piece);
        let floats = f32s(piece, s.name)?;
        let first = done / 4;
        if non_finite.is_none() {
            non_finite = first_non_finite(floats).map(|at| first + at);
        }
        each(first / row_len, floats);
        done += take;
    }
    s.check_crc(crc)?;
    match non_finite {
        Some(index) => Err(BinaryFormatError::NonFinite { name: s.name, index }.into()),
        None => Ok(()),
    }
}

/// Validates a `.ddm` read from `r` and loads it whole: [`read_lead`],
/// then the embedding block and the context block streamed straight into
/// a zeroed [`TieStore`].
pub(crate) fn decode_model<R: Read + Seek>(r: &mut R) -> Result<DirectionalityModel, StreamError> {
    let Lead { layout, meta, tie_bytes, mut fingerprint } = read_lead(r)?;
    let [src, dst] = tie_ids(&tie_bytes);
    let ties: Vec<_> = src.iter().copied().zip(dst.iter().copied()).collect();
    drop(tie_bytes);
    let dim = meta.dim as usize;
    let mut store = TieStore::zeroed(dim, meta.rows as usize, layout.ctx.is_some());
    let (emb, ctx) = store.blocks_mut();
    stream_block(r, &layout.emb, dim, emb, &mut fingerprint, |_, _| {})?;
    if let (Some(s), Some(ctx)) = (&layout.ctx, ctx) {
        stream_block(r, s, dim, ctx, &mut fingerprint, |_, _| {})?;
    }
    Ok(DirectionalityModel {
        cfg: meta.cfg,
        pair_index: PairIndex::new(ties.iter().copied()),
        ties,
        store,
        fingerprint: fingerprint.finish(&meta.head),
        head: meta.head,
        estep_iterations: meta.estep_iterations,
        estep_seconds: 0.0,
        estep_iters_per_sec: 0.0,
    })
}

/// Validates a `.ddm` read from `r` and computes what a shard serves from
/// it: every row's score, with `fold_in`, every head's fold-in score, and
/// the fingerprint, without holding the float blocks. After
/// [`read_lead`], the embedding block, then the context block, stream
/// through one reused chunk of about [`CHUNK_BYTES`]. Row scores are
/// computed with the arithmetic of [`DirectionalityModel::score_row`], so
/// they are bit-identical to the loaded model's. Head scores come from
/// [`HeadSlots::score`] on the embedding-half logits, before the context
/// block adds to them, as [`ScoreTable::of`] computes them; the heads are
/// slotted in the `tie.src` payload's words once the pair index no longer
/// needs them, so a fold-in load allocates O(heads) beyond a rows-only one.
///
/// [`DirectionalityModel::score_row`]: crate::DirectionalityModel::score_row
pub(crate) fn decode_scores<R: Read + Seek>(
    r: &mut R,
    fold_in: bool,
) -> Result<ScoreTable, StreamError> {
    let Lead { layout, meta, mut tie_bytes, mut fingerprint } = read_lead(r)?;
    let (rows, dim) = (meta.rows as usize, meta.dim as usize);
    let [src, dst] = tie_ids(&tie_bytes);
    let index = PairIndex::new(src.iter().copied().zip(dst.iter().copied()));
    let slots = fold_in.then(|| {
        let scratch = bytes::u32_slice_mut(tie_bytes[0].as_mut_bytes());
        HeadSlots::new(&index, scratch.expect("read_lead checked the cast"))
    });
    drop(tie_bytes);

    let DirectionalityHead::Logistic(lr) = &meta.head;
    let (w_emb, w_ctx) = lr.w.split_at(dim.min(lr.w.len()));
    let b = f64::from(lr.b);
    // Each row's logit, built as `score_row` builds it: the embedding
    // half's dot, then `+=` the context half's.
    let mut z = vec![0.0f64; rows];
    let mut chunk = AlignedBuf::zeroed(piece_len(dim, layout.emb.len));
    stream_block(r, &layout.emb, dim, chunk.as_mut_bytes(), &mut fingerprint, |first, floats| {
        for (zi, row) in z[first..].iter_mut().zip(floats.chunks_exact(dim)) {
            *zi = dot8_f64(w_emb, row);
        }
    })?;
    let head_score = slots.map(|slots| slots.score(&index, &z, b));
    if let Some(ctx) = &layout.ctx {
        stream_block(r, ctx, dim, chunk.as_mut_bytes(), &mut fingerprint, |first, floats| {
            for (zi, row) in z[first..].iter_mut().zip(floats.chunks_exact(dim)) {
                *zi += dot8_f64(w_ctx, row);
            }
        })?;
    }
    for zi in &mut z {
        *zi = sigmoid64(*zi + b);
    }
    Ok(ScoreTable::from_parts(index, z, head_score, fingerprint.finish(&meta.head)))
}

/// Zero bytes the encoder pads with: enough for any gap before a
/// [`BLOCK_ALIGN`]-aligned block.
const PADDING: [u8; BLOCK_ALIGN] = [0; BLOCK_ALIGN];

/// Bytes a big-endian host swaps at a time on their way out.
const SWAP_CHUNK: usize = 64 * 1024;

/// Hands `f` the little-endian bytes of a section payload in order. On a
/// little-endian host that is the payload itself, in one piece. On a
/// big-endian host each 4-byte word of a numeric payload is swapped
/// through one fixed-size chunk, so the encoder never copies a whole block.
fn le_pieces(
    payload: &[u8],
    numeric: bool,
    mut f: impl FnMut(&[u8]) -> std::io::Result<()>,
) -> std::io::Result<()> {
    if !(numeric && cfg!(target_endian = "big")) {
        return f(payload);
    }
    let mut chunk = [0u8; SWAP_CHUNK];
    for part in payload.chunks(SWAP_CHUNK) {
        let swapped = &mut chunk[..part.len()];
        swapped.copy_from_slice(part);
        bytes::swap_u32_bytes_in_place(swapped);
        f(swapped)?;
    }
    Ok(())
}

/// Serializes model parts into the binary container. The bytes are
/// little-endian on any host. Each section is checksummed where it lies,
/// then the header, the table, the meta and each block with its padding go
/// to `w` one `write_all` at a time: no staging copy of the file or of a
/// block.
pub(crate) fn encode<W: Write>(
    mut w: W,
    cfg: &DeepDirectConfig,
    head: &DirectionalityHead,
    estep_iterations: u64,
    ties: &[(u32, u32)],
    store: &TieStore,
) -> Result<(), String> {
    let meta = MetaDoc {
        schema: MODEL_SCHEMA_VERSION,
        dim: store.dim() as u32,
        rows: store.rows() as u32,
        context: store.has_contexts(),
        cfg: cfg.clone(),
        head: head.clone(),
        estep_iterations,
    };
    let meta_bytes = serde_json::to_string(&meta).map_err(|e| e.to_string())?.into_bytes();
    let (src, dst): (Vec<u32>, Vec<u32>) = ties.iter().copied().unzip();

    // Payloads as native-endian bytes; `le_pieces` hands them out
    // little-endian.
    let mut sections: Vec<(u32, &[u8])> = vec![
        (section::META, &meta_bytes),
        (section::TIE_SRC, bytes::u32_bytes(&src)),
        (section::TIE_DST, bytes::u32_bytes(&dst)),
        (section::EMB, store.embedding_bytes()),
    ];
    if let Some(c) = store.context_bytes() {
        sections.push((section::CTX, c));
    }

    // Lay out payloads: meta directly after the table, numeric sections on
    // 64-byte boundaries.
    let table_end = HEADER_LEN + sections.len() * ENTRY_LEN;
    let mut lead = Vec::with_capacity(table_end);
    lead.extend_from_slice(&MAGIC);
    lead.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    lead.extend_from_slice(&MODEL_SCHEMA_VERSION.to_le_bytes());
    lead.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    lead.extend_from_slice(&[0; 4]); // table CRC, filled in below
    let mut offsets = Vec::with_capacity(sections.len());
    let mut cursor = table_end;
    for &(kind, payload) in &sections {
        let numeric = kind != section::META;
        if numeric {
            cursor = align_up(cursor);
        }
        let mut crc = 0;
        le_pieces(payload, numeric, |piece| {
            crc = bytes::crc32_update(crc, piece);
            Ok(())
        })
        .map_err(|e| e.to_string())?;
        lead.extend_from_slice(&kind.to_le_bytes());
        lead.extend_from_slice(&crc.to_le_bytes());
        lead.extend_from_slice(&(cursor as u64).to_le_bytes());
        lead.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        offsets.push(cursor);
        cursor += payload.len();
    }
    let table_crc = bytes::crc32(&lead[HEADER_LEN..]);
    lead[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&table_crc.to_le_bytes());

    let mut written = lead.len();
    w.write_all(&lead).map_err(|e| e.to_string())?;
    for (&(kind, payload), &off) in sections.iter().zip(&offsets) {
        w.write_all(&PADDING[..off - written]).map_err(|e| e.to_string())?;
        le_pieces(payload, kind != section::META, |piece| w.write_all(piece))
            .map_err(|e| e.to_string())?;
        written = off + payload.len();
    }
    debug_assert_eq!(written, cursor);
    Ok(())
}

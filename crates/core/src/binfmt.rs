//! The DeepDirect binary model container (`.ddm`) — spec in DESIGN.md §7.13.
//!
//! A compact little-endian format built for zero-copy loading: after one
//! `read` into a 64-byte-aligned buffer ([`dd_linalg::bytes::AlignedBuf`]),
//! the numeric sections are borrowed in place as typed slices — no parse, no
//! per-element conversion, no `mmap`.
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
//! Every validation failure is a typed [`BinaryFormatError`] naming the
//! offending section — the loader never panics on hostile input (pinned by
//! the corrupt-binary chaos suite).

use std::io::Write;
use std::ops::Range;

use dd_linalg::bytes::{self, AlignedBuf, BLOCK_ALIGN};
use serde::{Deserialize, Serialize};

use crate::config::DeepDirectConfig;
use crate::dstep::{self, DirectionalityHead};
use crate::model::MODEL_SCHEMA_VERSION;
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

/// One parsed section-table entry.
#[derive(Debug, Clone, Copy)]
struct Entry {
    kind: u32,
    crc: u32,
    offset: u64,
    len: u64,
}

/// Everything [`decode`] extracts from a validated buffer.
pub(crate) struct DecodedModel {
    pub cfg: DeepDirectConfig,
    pub head: DirectionalityHead,
    pub estep_iterations: u64,
    pub ties: Vec<(u32, u32)>,
    pub store: TieStore,
}

fn read_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
}

fn read_u64(bytes: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[off..off + 8]);
    u64::from_le_bytes(b)
}

/// Byte ranges of the validated sections, in kind order: meta, tie.src,
/// tie.dst, embeddings, and the optional contexts block.
type SectionRanges = (Range<usize>, Range<usize>, Range<usize>, Range<usize>, Option<Range<usize>>);

/// Structural validation: header, table checksum, section bounds, alignment
/// and payload checksums. Returns the byte range of each section. Runs
/// before any endianness fixup because every check is over raw LE bytes.
fn validate_structure(bytes: &[u8]) -> Result<SectionRanges, BinaryFormatError> {
    // The magic comes first, so a short file that is not a `.ddm` (a small
    // JSON document, say) is named as such rather than as truncated.
    let lead = bytes.len().min(MAGIC.len());
    if bytes[..lead] != MAGIC[..lead] {
        return Err(BinaryFormatError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(BinaryFormatError::Truncated {
            what: "header",
            needed: HEADER_LEN,
            got: bytes.len(),
        });
    }
    let version = read_u32(bytes, 8);
    if version != FORMAT_VERSION {
        return Err(BinaryFormatError::UnsupportedFormatVersion(version));
    }
    let schema = read_u32(bytes, 12);
    if schema != MODEL_SCHEMA_VERSION {
        return Err(BinaryFormatError::SchemaMismatch { found: schema });
    }
    let n_sections = read_u32(bytes, 16);
    if n_sections == 0 || n_sections > 8 {
        return Err(BinaryFormatError::BadSectionCount(n_sections));
    }
    let table_len = n_sections as usize * ENTRY_LEN;
    let table_end = HEADER_LEN + table_len;
    if bytes.len() < table_end {
        return Err(BinaryFormatError::Truncated {
            what: "section table",
            needed: table_end,
            got: bytes.len(),
        });
    }
    let stored_crc = read_u32(bytes, 20);
    let computed_crc = bytes::crc32(&bytes[HEADER_LEN..table_end]);
    if stored_crc != computed_crc {
        return Err(BinaryFormatError::HeaderChecksum {
            stored: stored_crc,
            computed: computed_crc,
        });
    }

    let mut entries: Vec<Entry> = Vec::with_capacity(n_sections as usize);
    for i in 0..n_sections as usize {
        let base = HEADER_LEN + i * ENTRY_LEN;
        entries.push(Entry {
            kind: read_u32(bytes, base),
            crc: read_u32(bytes, base + 4),
            offset: read_u64(bytes, base + 8),
            len: read_u64(bytes, base + 16),
        });
    }

    let mut ranges: [Option<Range<usize>>; 5] = [None, None, None, None, None];
    let mut file_end = table_end;
    for e in &entries {
        if !(section::META..=section::CTX).contains(&e.kind) {
            return Err(BinaryFormatError::UnknownSection(e.kind));
        }
        let name = section_name(e.kind);
        let slot = &mut ranges[(e.kind - 1) as usize];
        if slot.is_some() {
            return Err(BinaryFormatError::DuplicateSection(name));
        }
        let end = e.offset.checked_add(e.len).filter(|&end| end <= bytes.len() as u64).ok_or(
            BinaryFormatError::SectionBounds {
                name,
                offset: e.offset,
                len: e.len,
                file_len: bytes.len(),
            },
        )?;
        if e.offset < table_end as u64 {
            return Err(BinaryFormatError::SectionBounds {
                name,
                offset: e.offset,
                len: e.len,
                file_len: bytes.len(),
            });
        }
        if e.kind != section::META {
            if e.offset % BLOCK_ALIGN as u64 != 0 {
                return Err(BinaryFormatError::Misaligned { name, offset: e.offset });
            }
            if e.len % 4 != 0 {
                return Err(BinaryFormatError::BadSectionLength { name, len: e.len });
            }
        }
        let range = e.offset as usize..end as usize;
        let computed = bytes::crc32(&bytes[range.clone()]);
        if computed != e.crc {
            return Err(BinaryFormatError::SectionChecksum { name, stored: e.crc, computed });
        }
        file_end = file_end.max(range.end);
        *slot = Some(range);
    }
    if file_end != bytes.len() {
        return Err(BinaryFormatError::TrailingBytes { expected: file_end, got: bytes.len() });
    }
    let [meta, src, dst, emb, ctx] = ranges;
    let meta = meta.ok_or(BinaryFormatError::MissingSection("meta"))?;
    let src = src.ok_or(BinaryFormatError::MissingSection("tie.src"))?;
    let dst = dst.ok_or(BinaryFormatError::MissingSection("tie.dst"))?;
    let emb = emb.ok_or(BinaryFormatError::MissingSection("embeddings"))?;
    Ok((meta, src, dst, emb, ctx))
}

/// LE→native fixup for the numeric sections: a no-op on little-endian
/// hosts, an in-place word swap on big-endian ones.
fn normalize_endianness(buf: &mut AlignedBuf, ranges: &[Range<usize>]) {
    #[cfg(target_endian = "big")]
    for r in ranges {
        bytes::swap_u32_bytes_in_place(&mut buf.as_mut_bytes()[r.clone()]);
    }
    #[cfg(not(target_endian = "big"))]
    let _ = (buf, ranges);
}

/// Floats the finiteness scan tests per branch.
const FINITE_CHUNK: usize = 64;

/// Checks a float block's shape and that every value is finite. The scan
/// ORs a branch-free test over each [`FINITE_CHUNK`] values, so it
/// vectorizes, and looks for the exact element only in a chunk that fails.
fn check_f32_block(
    bytes: &[u8],
    range: Range<usize>,
    name: &'static str,
    expected: usize,
) -> Result<(), BinaryFormatError> {
    let floats = bytes::f32_slice(&bytes[range])
        .map_err(|_| BinaryFormatError::BadSectionLength { name, len: 0 })?;
    if floats.len() != expected {
        return Err(BinaryFormatError::ShapeMismatch { name, expected, got: floats.len() });
    }
    const EXPONENT: u32 = 0x7F80_0000;
    for (c, chunk) in floats.chunks(FINITE_CHUNK).enumerate() {
        // NaN and ±inf are the values whose exponent bits are all set: only
        // there does adding one to the exponent carry into the sign bit.
        let carries = chunk.iter().fold(0, |acc, v| acc | ((v.to_bits() & EXPONENT) + (1 << 23)));
        if carries & 0x8000_0000 != 0 {
            let at =
                chunk.iter().position(|v| !v.is_finite()).expect("a value of the chunk failed");
            return Err(BinaryFormatError::NonFinite { name, index: c * FINITE_CHUNK + at });
        }
    }
    Ok(())
}

/// Validates `buf` fully and decodes it into model parts, adopting the
/// numeric blocks zero-copy (the embedding slices borrow the same
/// allocation the file was read into).
pub(crate) fn decode(mut buf: AlignedBuf) -> Result<DecodedModel, BinaryFormatError> {
    let (meta_r, src_r, dst_r, emb_r, ctx_r) = validate_structure(buf.as_bytes())?;

    let text = std::str::from_utf8(&buf.as_bytes()[meta_r])
        .map_err(|e| BinaryFormatError::Meta(e.to_string()))?;
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
    // The config and head must describe the blocks they travel with: fold-in
    // sizes its features from the config, and scoring dots the head's
    // weights against the rows.
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

    // The payloads are little-endian on disk; flip each aligned word once on
    // big-endian targets (checksums were verified over the raw bytes above).
    let numeric: Vec<Range<usize>> =
        [src_r.clone(), dst_r.clone(), emb_r.clone()].into_iter().chain(ctx_r.clone()).collect();
    normalize_endianness(&mut buf, &numeric);

    let expected = rows.checked_mul(dim).ok_or(BinaryFormatError::ShapeMismatch {
        name: "embeddings",
        expected: usize::MAX,
        got: 0,
    })?;
    check_f32_block(buf.as_bytes(), emb_r.clone(), "embeddings", expected)?;
    match (&ctx_r, meta.context) {
        (Some(r), true) => check_f32_block(buf.as_bytes(), r.clone(), "contexts", expected)?,
        (None, false) => {}
        (Some(_), false) => return Err(BinaryFormatError::DuplicateSection("contexts")),
        (None, true) => return Err(BinaryFormatError::MissingSection("contexts")),
    }

    let ties = {
        let src = bytes::u32_slice(&buf.as_bytes()[src_r.clone()])
            .map_err(|_| BinaryFormatError::BadSectionLength { name: "tie.src", len: 0 })?;
        let dst = bytes::u32_slice(&buf.as_bytes()[dst_r.clone()])
            .map_err(|_| BinaryFormatError::BadSectionLength { name: "tie.dst", len: 0 })?;
        if src.len() != rows {
            return Err(BinaryFormatError::ShapeMismatch {
                name: "tie.src",
                expected: rows,
                got: src.len(),
            });
        }
        if dst.len() != rows {
            return Err(BinaryFormatError::ShapeMismatch {
                name: "tie.dst",
                expected: rows,
                got: dst.len(),
            });
        }
        src.iter().copied().zip(dst.iter().copied()).collect::<Vec<(u32, u32)>>()
    };

    let (emb_off, ctx_off) = (emb_r.start, ctx_r.map(|r| r.start));
    let store = TieStore::adopt(buf, dim, rows, emb_off, ctx_off).map_err(|e| {
        // adopt re-checks what validate_structure already proved; a failure
        // here means the shape arithmetic disagrees with the section length.
        BinaryFormatError::Meta(format!("block adoption failed: {e}"))
    })?;

    Ok(DecodedModel {
        cfg: meta.cfg,
        head: meta.head,
        estep_iterations: meta.estep_iterations,
        ties,
        store,
    })
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

//! Aligned byte buffers and checked byte↔typed reinterpretation.
//!
//! This is the **one audited `unsafe` reinterpret module** in the workspace:
//! the `binary-io` lint rule confines `slice::from_raw_parts` (and friends)
//! to this file. Everything exported from here is a safe API — alignment and
//! length are checked before any cast, so a malformed buffer yields a typed
//! [`CastError`], never undefined behaviour.
//!
//! [`AlignedBuf`] backs the zero-copy binary model loader: the whole file is
//! read **once** into a 64-byte-aligned allocation, then `&[f32]` / `&[u32]`
//! views are borrowed straight from it. 64-byte alignment matches the widest
//! cache line / vector register on current x86-64 and aarch64 parts, so the
//! scoring kernels stream the embedding blocks without split loads.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::fmt;
use std::io::Read;
use std::ptr::NonNull;

/// Alignment (bytes) of every [`AlignedBuf`] allocation and of every numeric
/// payload block in the binary model format.
pub const BLOCK_ALIGN: usize = 64;

/// Why a byte slice could not be reinterpreted as a typed slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CastError {
    /// The slice's base address is not a multiple of the element alignment.
    Misaligned {
        /// Required alignment in bytes.
        align: usize,
        /// `address % align` — non-zero by construction.
        offset: usize,
    },
    /// The slice's byte length is not a multiple of the element size.
    Length {
        /// Byte length of the offending slice.
        len: usize,
        /// Element size in bytes.
        elem: usize,
    },
}

impl fmt::Display for CastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CastError::Misaligned { align, offset } => {
                write!(f, "misaligned slice: address % {align} == {offset}, expected 0")
            }
            CastError::Length { len, elem } => {
                write!(f, "bad slice length: {len} bytes is not a multiple of {elem}")
            }
        }
    }
}

/// A heap buffer of bytes whose base address is [`BLOCK_ALIGN`]-aligned.
///
/// Unlike `Vec<u8>` (1-byte alignment), slices borrowed from an `AlignedBuf`
/// at offsets that are multiples of 4 are always valid `f32`/`u32` cast
/// targets, and offsets that are multiples of [`BLOCK_ALIGN`] start on a
/// cache-line boundary.
pub struct AlignedBuf {
    ptr: NonNull<u8>,
    len: usize,
    /// Bytes actually allocated (0 means `ptr` is dangling, nothing to free).
    cap: usize,
}

// SAFETY: AlignedBuf uniquely owns its allocation and has no interior
// mutability; moving it between threads or sharing `&AlignedBuf` is as safe
// as it is for Vec<u8>.
unsafe impl Send for AlignedBuf {}
unsafe impl Sync for AlignedBuf {}

impl AlignedBuf {
    /// A zero-filled buffer of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        if len == 0 {
            return AlignedBuf { ptr: NonNull::dangling(), len: 0, cap: 0 };
        }
        // Layout::from_size_align only fails on overflow or a non-power-of-two
        // alignment; BLOCK_ALIGN is a power of two and model files are far
        // below isize::MAX.
        let layout =
            Layout::from_size_align(len, BLOCK_ALIGN).expect("AlignedBuf: layout overflow");
        // SAFETY: layout has non-zero size (len > 0 checked above).
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw) else { handle_alloc_error(layout) };
        AlignedBuf { ptr, len, cap: len }
    }

    /// Copies `bytes` into a fresh aligned buffer.
    pub fn from_slice(bytes: &[u8]) -> Self {
        let mut buf = AlignedBuf::zeroed(bytes.len());
        buf.as_mut_bytes().copy_from_slice(bytes);
        buf
    }

    /// Reads exactly `len` bytes from `r` directly into a fresh aligned
    /// buffer — the read-once path of the binary model loader (no staging
    /// `Vec`, no second copy).
    pub fn read_exact_from<R: Read>(r: &mut R, len: usize) -> std::io::Result<Self> {
        let mut buf = AlignedBuf::zeroed(len);
        r.read_exact(buf.as_mut_bytes())?;
        Ok(buf)
    }

    /// Number of bytes in the buffer.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds zero bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes, immutably.
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: ptr is valid for len bytes (allocated in zeroed()), fully
        // initialized (alloc_zeroed + copy/read_exact), and uniquely owned.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// The bytes, mutably.
    pub fn as_mut_bytes(&mut self) -> &mut [u8] {
        // SAFETY: as for as_bytes, plus &mut self guarantees exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        if self.cap > 0 {
            // SAFETY: allocated in zeroed() with this exact layout.
            let layout = Layout::from_size_align(self.cap, BLOCK_ALIGN)
                .expect("AlignedBuf: layout overflow");
            unsafe { dealloc(self.ptr.as_ptr(), layout) };
        }
    }
}

impl Clone for AlignedBuf {
    fn clone(&self) -> Self {
        AlignedBuf::from_slice(self.as_bytes())
    }
}

impl fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AlignedBuf({} bytes @ {:p})", self.len, self.ptr.as_ptr())
    }
}

impl PartialEq for AlignedBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for AlignedBuf {}

/// Reinterprets `bytes` as little-endian-loaded `f32`s.
///
/// On little-endian targets this is a pure cast; the caller must have
/// byte-swapped big-endian data first (see [`swap_u32_bytes_in_place`]).
pub fn f32_slice(bytes: &[u8]) -> Result<&[f32], CastError> {
    let elem = std::mem::size_of::<f32>();
    let offset = bytes.as_ptr() as usize % std::mem::align_of::<f32>();
    if offset != 0 {
        return Err(CastError::Misaligned { align: std::mem::align_of::<f32>(), offset });
    }
    if !bytes.len().is_multiple_of(elem) {
        return Err(CastError::Length { len: bytes.len(), elem });
    }
    // SAFETY: alignment and length divisibility checked above; every bit
    // pattern is a valid f32; the lifetime is tied to `bytes`.
    Ok(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<f32>(), bytes.len() / elem) })
}

/// Reinterprets `bytes` as little-endian-loaded `u32`s (same contract as
/// [`f32_slice`]).
pub fn u32_slice(bytes: &[u8]) -> Result<&[u32], CastError> {
    let elem = std::mem::size_of::<u32>();
    let offset = bytes.as_ptr() as usize % std::mem::align_of::<u32>();
    if offset != 0 {
        return Err(CastError::Misaligned { align: std::mem::align_of::<u32>(), offset });
    }
    if !bytes.len().is_multiple_of(elem) {
        return Err(CastError::Length { len: bytes.len(), elem });
    }
    // SAFETY: alignment and length divisibility checked above; every bit
    // pattern is a valid u32; the lifetime is tied to `bytes`.
    Ok(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u32>(), bytes.len() / elem) })
}

/// Native-endian byte view of an `f32` slice — the inverse direction of
/// [`f32_slice`]. Always valid (alignment only decreases), so it cannot
/// fail. Used for block copies, fingerprinting and the `.ddm` encoder,
/// which writes the view as is on little-endian hosts (the on-disk format
/// is explicitly little-endian) and word-swaps it on big-endian ones.
pub fn f32_bytes(xs: &[f32]) -> &[u8] {
    // SAFETY: any initialized memory is valid as bytes; lifetime tied to xs.
    unsafe { std::slice::from_raw_parts(xs.as_ptr().cast::<u8>(), std::mem::size_of_val(xs)) }
}

/// Native-endian byte view of a `u32` slice (same contract as
/// [`f32_bytes`]).
pub fn u32_bytes(xs: &[u32]) -> &[u8] {
    // SAFETY: any initialized memory is valid as bytes; lifetime tied to xs.
    unsafe { std::slice::from_raw_parts(xs.as_ptr().cast::<u8>(), std::mem::size_of_val(xs)) }
}

/// Byte-swaps every aligned 4-byte word of `bytes` in place — the big-endian
/// fixup applied after checksum validation, before any typed cast. A no-op
/// call site on little-endian targets keeps the code path compiled
/// everywhere.
pub fn swap_u32_bytes_in_place(bytes: &mut [u8]) {
    for chunk in bytes.chunks_exact_mut(4) {
        chunk.swap(0, 3);
        chunk.swap(1, 2);
    }
}

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) lookup table, built at
/// compile time: the byte-at-a-time table, which also finishes the tail
/// under 8 bytes in [`crc32`].
const CRC32_TABLE: [u32; 256] = build_crc32_table();

/// The slicing-by-8 tables: `CRC32_SLICES[k][b]` is the CRC register after
/// byte `b` followed by `k` zero bytes, so one step folds 8 input bytes with
/// 8 independent lookups. `CRC32_SLICES[0]` is [`CRC32_TABLE`].
const CRC32_SLICES: [[u32; 256]; 8] = build_crc32_slices();

const fn build_crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const fn build_crc32_slices() -> [[u32; 256]; 8] {
    let mut slices = [CRC32_TABLE; 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = slices[k - 1][i];
            slices[k][i] = (prev >> 8) ^ CRC32_TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    slices
}

/// CRC-32 (IEEE) of `bytes` — the per-section checksum of the binary model
/// format, the value zlib's `crc32()` returns. Lives here (not in dd-core)
/// so dd-testkit's corrupt-binary generators can re-checksum patched
/// sections without depending on dd-core.
///
/// Slicing-by-8: each step XORs the register into the next 8 bytes and
/// folds them with one lookup per byte in eight compile-time tables. The 8
/// lookups of a step are independent, where a byte-at-a-time loop makes
/// each lookup wait on the previous one; the tail under 8 bytes goes one
/// byte at a time. Safe, portable code, about 4× the bytewise rate on a
/// whole model file (DESIGN.md §7.13).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Extends `crc`, the CRC-32 of some prefix, over `bytes`: the CRC-32 of
/// the prefix followed by `bytes`, as zlib's `crc32(crc, buf, len)` chains.
/// `crc32_update(0, b)` is `crc32(b)`, so a section can be checksummed one
/// chunk at a time.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_SLICES;
    let mut c = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// FNV-1a 64-bit hash of `bytes`, folded into `seed` — the byte-at-a-time
/// hash of short keys: the stream engine's state digest.
/// Chain calls by threading the returned value back in as the next seed;
/// start from [`FNV64_SEED`]. Bulk data goes through [`xxh64`], which
/// consumes a word per lane instead of a byte per multiply.
pub fn fnv1a64(bytes: &[u8], seed: u64) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The FNV-1a 64-bit offset basis — initial seed for [`fnv1a64`].
pub const FNV64_SEED: u64 = 0xCBF2_9CE4_8422_2325;

const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes one XXH64 round consumes: four 64-bit lanes.
const XXH_STRIPE: usize = 32;

fn read_u64_le(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_P2)).rotate_left(31).wrapping_mul(XXH_P1)
}

fn xxh_merge(h: u64, acc: u64) -> u64 {
    (h ^ xxh_round(0, acc)).wrapping_mul(XXH_P1).wrapping_add(XXH_P4)
}

/// XXH64 of `bytes` under `seed` — the model fingerprint hash (DESIGN.md
/// §7.13). Four independent 64-bit lanes each take one word of every
/// 32-byte stripe, so a long input hashes at memory speed where
/// [`fnv1a64`] waits on one multiply per byte. Equal to feeding the same
/// bytes through [`Xxh64`] in any split.
pub fn xxh64(bytes: &[u8], seed: u64) -> u64 {
    let mut h = Xxh64::new(seed);
    h.update(bytes);
    h.finish()
}

/// Streaming XXH64: [`Self::update`] any number of times, then
/// [`Self::finish`]; the digest is [`xxh64`] of the concatenated input.
#[derive(Debug, Clone)]
pub struct Xxh64 {
    seed: u64,
    lanes: [u64; 4],
    /// Input not yet folded into the lanes (under one stripe).
    pending: [u8; XXH_STRIPE],
    pending_len: usize,
    total_len: u64,
}

impl Xxh64 {
    /// A hasher with nothing fed yet.
    pub fn new(seed: u64) -> Self {
        Xxh64 {
            seed,
            lanes: [
                seed.wrapping_add(XXH_P1).wrapping_add(XXH_P2),
                seed.wrapping_add(XXH_P2),
                seed,
                seed.wrapping_sub(XXH_P1),
            ],
            pending: [0; XXH_STRIPE],
            pending_len: 0,
            total_len: 0,
        }
    }

    fn stripe(&mut self, stripe: &[u8]) {
        for (k, lane) in self.lanes.iter_mut().enumerate() {
            *lane = xxh_round(*lane, read_u64_le(&stripe[8 * k..]));
        }
    }

    /// Feeds `bytes`.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total_len += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (XXH_STRIPE - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < XXH_STRIPE {
                return;
            }
            let stripe = self.pending;
            self.stripe(&stripe);
            self.pending_len = 0;
        }
        let mut stripes = bytes.chunks_exact(XXH_STRIPE);
        for stripe in &mut stripes {
            self.stripe(stripe);
        }
        let rest = stripes.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        let [v1, v2, v3, v4] = self.lanes;
        let mut h = if self.total_len >= XXH_STRIPE as u64 {
            let h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            [v1, v2, v3, v4].into_iter().fold(h, xxh_merge)
        } else {
            self.seed.wrapping_add(XXH_P5)
        };
        h = h.wrapping_add(self.total_len);
        let mut tail = &self.pending[..self.pending_len];
        while tail.len() >= 8 {
            h ^= xxh_round(0, read_u64_le(tail));
            h = h.rotate_left(27).wrapping_mul(XXH_P1).wrapping_add(XXH_P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let word = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
            h ^= u64::from(word).wrapping_mul(XXH_P1);
            h = h.rotate_left(23).wrapping_mul(XXH_P2).wrapping_add(XXH_P3);
            tail = &tail[4..];
        }
        for &b in tail {
            h ^= u64::from(b).wrapping_mul(XXH_P5);
            h = h.rotate_left(11).wrapping_mul(XXH_P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(XXH_P2);
        h ^= h >> 29;
        h = h.wrapping_mul(XXH_P3);
        h ^ (h >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_buf_is_block_aligned_and_zeroed() {
        for len in [1usize, 7, 64, 65, 4096] {
            let buf = AlignedBuf::zeroed(len);
            assert_eq!(buf.as_bytes().as_ptr() as usize % BLOCK_ALIGN, 0);
            assert_eq!(buf.len(), len);
            assert!(buf.as_bytes().iter().all(|&b| b == 0));
        }
        assert!(AlignedBuf::zeroed(0).is_empty());
    }

    #[test]
    fn aligned_buf_round_trips_reader_and_clone() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 % 251) as u8).collect();
        let buf = AlignedBuf::read_exact_from(&mut &data[..], data.len()).unwrap();
        assert_eq!(buf.as_bytes(), &data[..]);
        let copy = buf.clone();
        assert_eq!(copy, buf);
        assert!(AlignedBuf::read_exact_from(&mut &data[..], data.len() + 1).is_err());
    }

    #[test]
    fn casts_check_alignment_and_length() {
        let buf = AlignedBuf::from_slice(&[0u8; 16]);
        assert_eq!(f32_slice(buf.as_bytes()).unwrap().len(), 4);
        assert_eq!(u32_slice(buf.as_bytes()).unwrap().len(), 4);
        // Offset by one byte: misaligned.
        assert!(matches!(
            f32_slice(&buf.as_bytes()[1..]),
            Err(CastError::Misaligned { align: 4, offset: 1 })
        ));
        // Non-multiple length (still aligned at base).
        assert!(matches!(
            u32_slice(&buf.as_bytes()[..7]),
            Err(CastError::Length { len: 7, elem: 4 })
        ));
    }

    #[test]
    fn f32_cast_preserves_bits() {
        let values = [1.5f32, -0.25, f32::MIN_POSITIVE, 1234.5678];
        let mut bytes = Vec::new();
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let mut buf = AlignedBuf::from_slice(&bytes);
        #[cfg(target_endian = "big")]
        swap_u32_bytes_in_place(buf.as_mut_bytes());
        let floats = f32_slice(buf.as_bytes()).unwrap();
        for (got, want) in floats.iter().zip(values.iter()) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        // Keep `buf` (and the mutable path) live on both endiannesses.
        let _ = buf.as_mut_bytes();
    }

    #[test]
    fn byte_views_round_trip_through_casts() {
        let floats = [0.5f32, -3.25, 1e-20, 7.0];
        let buf = AlignedBuf::from_slice(f32_bytes(&floats));
        let back = f32_slice(buf.as_bytes()).unwrap();
        for (a, b) in back.iter().zip(floats.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let words = [1u32, 0xDEAD_BEEF, 42];
        assert_eq!(u32_bytes(&words).len(), 12);
        let buf = AlignedBuf::from_slice(u32_bytes(&words));
        assert_eq!(u32_slice(buf.as_bytes()).unwrap(), &words);
    }

    #[test]
    fn swap_u32_reverses_each_word() {
        let mut bytes = [1u8, 2, 3, 4, 5, 6, 7, 8];
        swap_u32_bytes_in_place(&mut bytes);
        assert_eq!(bytes, [4, 3, 2, 1, 8, 7, 6, 5]);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Reference values from the zlib crc32() implementation.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// Byte-at-a-time CRC-32: the reference the slicing kernel must match
    /// bit for bit.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_slicing_matches_bytewise_reference() {
        let mut rng = crate::Pcg32::seed_from_u64(14);
        let buf: Vec<u8> = (0..308).map(|_| rng.next_u32() as u8).collect();
        // Every length across the 8-byte step and its tail, at every
        // start offset (so every alignment of the step to the buffer).
        for start in 0..8 {
            for len in 0..=300 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        let big: Vec<u8> = (0..1 << 20).map(|_| rng.next_u32() as u8).collect();
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn crc32_update_chains_like_one_pass() {
        let data = b"The quick brown fox jumps over the lazy dog";
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_update(crc32(a), b), crc32(data), "split {split}");
        }
    }

    #[test]
    fn xxh64_matches_known_vectors() {
        // Reference XXH64 digests at seed 0; the 39-byte input takes one
        // full stripe, then the 8-, 4- and 1-byte tail steps.
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        assert_eq!(xxh64(b"Nobody inspects the spammish repetition", 0), 0xFBCE_A83C_8A37_8BF1);
    }

    #[test]
    fn xxh64_streamed_equals_one_shot_at_every_split() {
        let mut rng = crate::Pcg32::seed_from_u64(18);
        let buf: Vec<u8> = (0..1024).map(|_| rng.next_u32() as u8).collect();
        let whole = xxh64(&buf, 7);
        for split in 0..=buf.len() {
            let mut h = Xxh64::new(7);
            h.update(&buf[..split]);
            h.update(&buf[split..]);
            assert_eq!(h.finish(), whole, "split {split}");
        }
        // Many small feeds, as the fingerprint feeds ties a pair at a time.
        let mut h = Xxh64::new(7);
        for pair in buf.chunks(8) {
            h.update(pair);
        }
        assert_eq!(h.finish(), whole);
        // Every length across the stripe and its tail paths.
        for len in 0..=100 {
            let mut h = Xxh64::new(0);
            for &b in &buf[..len] {
                h.update(&[b]);
            }
            assert_eq!(h.finish(), xxh64(&buf[..len], 0), "len {len}");
        }
    }

    #[test]
    fn fnv1a64_matches_known_vectors() {
        // Reference values from the canonical FNV-1a test suite.
        assert_eq!(fnv1a64(b"", FNV64_SEED), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a", FNV64_SEED), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar", FNV64_SEED), 0x8594_4171_F739_67E8);
    }
}

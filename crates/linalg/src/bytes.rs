//! Aligned byte buffers and checked byte↔typed reinterpretation.
//!
//! This is the **one audited `unsafe` reinterpret module** in the workspace:
//! the `binary-io` lint rule confines `slice::from_raw_parts` (and friends)
//! to this file. Everything exported from here is a safe API — alignment and
//! length are checked before any cast, so a malformed buffer yields a typed
//! [`CastError`], never undefined behaviour.
//!
//! [`AlignedBuf`] backs the binary model loader and the embedding store: a
//! model's blocks are read straight into a 64-byte-aligned allocation, then
//! `&[f32]` / `&[u32]` views are borrowed from it. 64-byte alignment matches
//! the widest cache line / vector register on current x86-64 and aarch64
//! parts, so the scoring kernels stream the embedding blocks without split
//! loads.
//!
//! [`advise_huge_pages`] is the module's one system call: it asks the kernel
//! to back a freshly allocated training array with 2 MiB pages, and the
//! `binary-io` rule keeps `madvise` here too.

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
    /// First byte of the buffer, `offset` bytes into the allocation.
    ptr: NonNull<u8>,
    len: usize,
    /// Bytes actually allocated (0 means `ptr` is dangling, nothing to free).
    cap: usize,
    /// Distance from the start of the allocation to `ptr`, under
    /// [`BLOCK_ALIGN`].
    offset: usize,
}

/// Alignment the allocation itself asks for: no more than every allocator
/// guarantees unasked. At this alignment `alloc_zeroed` is `calloc`, which
/// does not clear memory fresh from the kernel (it is zero already), where
/// a [`BLOCK_ALIGN`]-aligned request is an aligned `malloc` plus a `memset`
/// that faults in every page before the loader's read overwrites it.
/// [`AlignedBuf::zeroed`] over-allocates and offsets the buffer to the next
/// [`BLOCK_ALIGN`] boundary instead.
const ALLOC_ALIGN: usize = std::mem::align_of::<usize>();

// SAFETY: AlignedBuf uniquely owns its allocation and has no interior
// mutability; moving it between threads or sharing `&AlignedBuf` is as safe
// as it is for Vec<u8>.
unsafe impl Send for AlignedBuf {}
unsafe impl Sync for AlignedBuf {}

impl AlignedBuf {
    /// A zero-filled buffer of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        if len == 0 {
            return AlignedBuf { ptr: NonNull::dangling(), len: 0, cap: 0, offset: 0 };
        }
        // Room for the buffer wherever the next BLOCK_ALIGN boundary falls.
        // Layout::from_size_align only fails on overflow; model files are
        // far below isize::MAX.
        let cap = len.checked_add(BLOCK_ALIGN).expect("AlignedBuf: layout overflow");
        let layout =
            Layout::from_size_align(cap, ALLOC_ALIGN).expect("AlignedBuf: layout overflow");
        // SAFETY: layout has non-zero size (cap > len > 0).
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(base) = NonNull::new(raw) else { handle_alloc_error(layout) };
        let offset = (BLOCK_ALIGN - base.as_ptr() as usize % BLOCK_ALIGN) % BLOCK_ALIGN;
        // SAFETY: offset < BLOCK_ALIGN, so ptr..ptr + len lies inside the
        // cap = len + BLOCK_ALIGN bytes just allocated.
        let ptr = unsafe { base.add(offset) };
        AlignedBuf { ptr, len, cap, offset }
    }

    /// Copies `bytes` into a fresh aligned buffer.
    pub fn from_slice(bytes: &[u8]) -> Self {
        let mut buf = AlignedBuf::zeroed(bytes.len());
        buf.as_mut_bytes().copy_from_slice(bytes);
        buf
    }

    /// Reads exactly `len` bytes from `r` directly into a fresh aligned
    /// buffer (no staging `Vec`, no second copy).
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
        // initialized (alloc_zeroed, then copy/read_exact), and uniquely
        // owned.
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
            let layout = Layout::from_size_align(self.cap, ALLOC_ALIGN)
                .expect("AlignedBuf: layout overflow");
            // SAFETY: zeroed() allocated `cap` bytes with this exact layout
            // at `ptr - offset`.
            unsafe { dealloc(self.ptr.as_ptr().sub(self.offset), layout) };
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

/// Size of a transparent huge page on x86-64 and aarch64 (4 KiB base
/// pages).
const HUGE_PAGE: usize = 2 << 20;

/// Buffers under this many bytes are not advised: their 2 MiB-aligned
/// interior is at most one huge page, and the STLB already covers them at
/// 4 KiB pages.
const HUGE_PAGE_MIN_BYTES: usize = 4 << 20;

/// Asks the kernel to back `buf` with 2 MiB transparent huge pages, so that
/// random reads across it stay within TLB reach (DESIGN.md §7.9, "TLB
/// reach"). Returns the bytes the advice covered: the buffer's
/// 2 MiB-aligned interior, or 0 for a buffer under 4 MiB or on a
/// target other than Linux on x86-64/aarch64, where it does nothing.
///
/// Call it between allocation and the first write — on a fresh `calloc`
/// (`vec![0; n]`) or a `Vec`'s spare capacity — since a page the kernel
/// has already faulted in at 4 KiB stays that size. It is a hint: the
/// kernel's answer is ignored, and with THP off or no huge page free the
/// buffer keeps its 4 KiB pages. Either way no byte of `buf` changes.
pub fn advise_huge_pages<T>(buf: &mut [T]) -> usize {
    let bytes = std::mem::size_of_val(buf);
    if bytes < HUGE_PAGE_MIN_BYTES {
        return 0;
    }
    let addr = buf.as_ptr() as usize;
    let Some(interior) = huge_page_interior(addr, bytes) else { return 0 };
    // Derived from `buf`'s pointer, not cast from an integer, so the
    // address keeps its provenance.
    let start = buf.as_mut_ptr().cast::<u8>().wrapping_add(interior.start - addr);
    // SAFETY: the interior lies inside `buf`, which the caller holds `&mut`,
    // and starts on a 2 MiB boundary.
    if unsafe { madvise_huge(start, interior.len()) } {
        interior.len()
    } else {
        0
    }
}

/// The [`HUGE_PAGE`]-aligned sub-range of `addr..addr + len`, if it holds at
/// least one whole huge page.
fn huge_page_interior(addr: usize, len: usize) -> Option<std::ops::Range<usize>> {
    let start = addr.checked_next_multiple_of(HUGE_PAGE)?;
    let end = addr.checked_add(len)? / HUGE_PAGE * HUGE_PAGE;
    (start < end).then_some(start..end)
}

/// `madvise(start, len, MADV_HUGEPAGE)`, its answer ignored. Returns whether
/// the advice was given: false on a target other than Linux on
/// x86-64/aarch64, where the body is empty.
///
/// # Safety
/// `start..start + len` must be page-aligned and lie inside one live buffer
/// the caller holds exclusively, so the advice reaches no other mapping.
#[allow(unreachable_code, unused_variables)]
unsafe fn madvise_huge(start: *mut u8, len: usize) -> bool {
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        // <asm-generic/mman-common.h>, which x86-64 and aarch64 both use.
        const MADV_HUGEPAGE: std::ffi::c_int = 14;
        extern "C" {
            fn madvise(
                addr: *mut std::ffi::c_void,
                len: usize,
                advice: std::ffi::c_int,
            ) -> std::ffi::c_int;
        }
        // SAFETY: the range is the caller's own page-aligned buffer (see
        // # Safety); MADV_HUGEPAGE only changes how the kernel backs future
        // faults there, never the bytes. An error (THP compiled out, EINVAL)
        // leaves the range as it was.
        let _ = unsafe { madvise(start.cast(), len, MADV_HUGEPAGE) };
        return true;
    }
    false
}

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
/// under 8 bytes of slicing-by-8.
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
/// Two kernels, one value. Inputs of 128 bytes or more on an x86-64 CPU
/// with PCLMULQDQ and SSE4.1 (detected at run time) go through
/// carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009): four
/// 128-bit lanes each fold the next 16 bytes in with two 64×33-bit
/// carry-less products, and a Barrett reduction turns the last lane into
/// the 32-bit remainder, about 6× the slicing-by-8 rate on a whole model
/// file (DESIGN.md §7.13). Everything else — short inputs, other CPUs, and
/// the fold's tail under 16 bytes — goes through portable slicing-by-8:
/// each step XORs the register into the next 8 bytes and folds them with
/// one lookup per byte in eight compile-time tables, and the tail under 8
/// bytes goes one byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Shortest input [`crc32_update`] hands to the carry-less-multiply kernel;
/// below it the kernel's setup and reduction cost more than slicing-by-8.
const CLMUL_MIN_LEN: usize = 128;

/// Extends `crc`, the CRC-32 of some prefix, over `bytes`: the CRC-32 of
/// the prefix followed by `bytes`, as zlib's `crc32(crc, buf, len)` chains.
/// `crc32_update(0, b)` is `crc32(b)`, so a section can be checksummed one
/// chunk at a time.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= CLMUL_MIN_LEN
        && std::is_x86_feature_detected!("pclmulqdq")
        && std::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: the kernel is compiled for exactly the two CPU features
        // detected just above.
        return unsafe { clmul::crc32_update(crc, bytes) };
    }
    crc32_slicing(crc, bytes)
}

/// The portable slicing-by-8 kernel behind [`crc32_update`].
fn crc32_slicing(crc: u32, bytes: &[u8]) -> u32 {
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

/// The carry-less-multiply CRC-32 kernel (x86-64 PCLMULQDQ and SSE4.1).
///
/// The CRC register is bit-reflected, so a 128-bit lane holds 128
/// coefficients of the message polynomial lowest-degree-first. Moving a lane
/// `n` bits further along the message multiplies it by x^n, and modulo P(x)
/// that is two 64×33-bit carry-less products: its low half by x^(n+32) mod
/// P and its high half by x^(n−32) mod P. The constants below are those
/// remainders, bit-reflected and shifted left by one as the reflected
/// products need (the values of the Linux and zlib kernels).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// x^(512+32) and x^(512−32) mod P: a lane folded over the four lanes
    /// after it.
    const FOLD_BY_4: (i64, i64) = (0x1_5444_2BD4, 0x1_C6E4_1596);
    /// x^(128+32) and x^(128−32) mod P: a lane folded over the next lane.
    const FOLD_BY_1: (i64, i64) = (0x1_7519_97D0, 0x0_CCAA_009E);
    /// x^64 mod P: folds the 96-bit remainder to 64 bits.
    const FOLD_96: i64 = 0x1_63CD_6124;
    /// P(x) itself, and μ = ⌊x^64 / P(x)⌋: the Barrett reduction's pair.
    const POLY: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// The first 16 bytes of `chunk` as a vector.
    #[inline]
    fn load(chunk: &[u8]) -> __m128i {
        assert!(chunk.len() >= 16);
        // SAFETY: chunk holds at least 16 readable bytes (asserted above);
        // the unaligned load has no alignment requirement.
        unsafe { _mm_loadu_si128(chunk.as_ptr().cast()) }
    }

    /// `lane` moved forward by the distance `k` encodes, plus `next`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(lane: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(lane, k);
        let hi = _mm_clmulepi64_si128::<0x11>(lane, k);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// [`super::crc32_update`]; panics on fewer than 64 bytes.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ and SSE4.1.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
        let mut blocks = bytes.chunks_exact(64);
        let first = blocks.next().expect("the kernel takes at least 64 bytes");
        let mut lanes = [load(first), load(&first[16..]), load(&first[32..]), load(&first[48..])];
        // The incoming register is XORed into the first 32 message bits, as
        // the table kernels do one byte at a time.
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(!crc as i32));
        let by4 = _mm_set_epi64x(FOLD_BY_4.1, FOLD_BY_4.0);
        for block in &mut blocks {
            for (lane, chunk) in lanes.iter_mut().zip(block.chunks_exact(16)) {
                *lane = fold(*lane, load(chunk), by4);
            }
        }
        let by1 = _mm_set_epi64x(FOLD_BY_1.1, FOLD_BY_1.0);
        let [l0, l1, l2, l3] = lanes;
        let mut acc = fold(fold(fold(l0, l1, by1), l2, by1), l3, by1);
        let mut words = blocks.remainder().chunks_exact(16);
        for chunk in &mut words {
            acc = fold(acc, load(chunk), by1);
        }

        // 128 → 96 bits: the low half times x^(128−32) mod P, plus the high
        // half. Then 96 → 64: the low 32 bits times x^64 mod P, plus the
        // rest.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(acc, by1), _mm_srli_si128::<8>(acc));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, FOLD_96)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: q = ⌊x·μ⌋ on the low 32 bits, then x − q·P leaves the
        // remainder in the second 32-bit word (reflected order).
        let barrett = _mm_set_epi64x(MU, POLY);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), barrett);
        let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), barrett);
        let c = _mm_extract_epi32::<1>(_mm_xor_si128(x, qp)) as u32;
        super::crc32_slicing(!c, words.remainder())
    }
}

/// FNV-1a 64-bit hash of `bytes`, folded into `seed` — the byte-at-a-time
/// hash of short keys: the stream engine's state digest and dd-telemetry's
/// trace and span IDs.
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
        for len in [1usize, 7, 64, 65, 4096, 1 << 20] {
            let buf = AlignedBuf::zeroed(len);
            assert_eq!(buf.as_bytes().as_ptr() as usize % BLOCK_ALIGN, 0);
            assert_eq!(buf.len(), len);
            assert!(buf.as_bytes().iter().all(|&b| b == 0));
        }
        assert!(AlignedBuf::zeroed(0).is_empty());
    }

    #[test]
    fn huge_page_interior_is_the_aligned_middle() {
        const H: usize = HUGE_PAGE;
        // Length 0 and under one huge page: nothing whole inside.
        assert_eq!(huge_page_interior(0, 0), None);
        assert_eq!(huge_page_interior(H, 0), None);
        assert_eq!(huge_page_interior(H, H - 1), None);
        // 2 MiB ± 1 from an aligned start.
        assert_eq!(huge_page_interior(H, H), Some(H..2 * H));
        assert_eq!(huge_page_interior(H, H + 1), Some(H..2 * H));
        // Unaligned starts: 2 MiB + 1 straddles a boundary without holding
        // a whole page unless it begins one byte before it.
        assert_eq!(huge_page_interior(H + 16, H + 1), None);
        assert_eq!(huge_page_interior(H - 1, H + 1), Some(H..2 * H));
        assert_eq!(huge_page_interior(16, 2 * H), Some(H..2 * H));
        assert_eq!(huge_page_interior(H + 16, 4 * H), Some(2 * H..5 * H));
        // Near the top of the address space the rounding cannot wrap.
        assert_eq!(huge_page_interior(usize::MAX - 5, 3), None);
    }

    #[test]
    fn huge_page_advice_covers_the_interior_and_changes_no_byte() {
        // Length 0 and buffers under 4 MiB are skipped, even one 4 bytes
        // short, which holds a whole huge page wherever it starts.
        assert_eq!(advise_huge_pages::<f32>(&mut []), 0);
        let mut small: Vec<u32> = (0..(1u32 << 20) - 1).collect();
        assert!(huge_page_interior(small.as_ptr() as usize, 4 * small.len()).is_some());
        assert_eq!(advise_huge_pages(&mut small), 0);
        assert!(small.iter().enumerate().all(|(i, &x)| x as usize == i));

        // A written buffer, advised from an unaligned start.
        let words = (8 << 20) / 4 + 3;
        let mut big: Vec<u32> = (0..words as u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let before = big.clone();
        let bytes = std::mem::size_of_val(&big[1..]);
        let advised = advise_huge_pages(&mut big[1..]);
        assert_eq!(advised % HUGE_PAGE, 0);
        // The whole aligned interior, or nothing on a target without the
        // advice.
        let interior = huge_page_interior(big[1..].as_ptr() as usize, bytes).expect("8 MiB");
        assert!(advised == interior.len() || advised == 0, "{advised} of {bytes} bytes");
        if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
            assert_eq!(advised, interior.len(), "Linux x86-64 takes the advice");
        }
        assert!(interior.len() >= bytes - 2 * HUGE_PAGE);
        assert!(big == before, "advice changed the buffer");

        // Spare capacity, advised before the first write.
        let mut fresh: Vec<f32> = Vec::with_capacity(words);
        advise_huge_pages(fresh.spare_capacity_mut());
        fresh.extend((0..words).map(|i| i as f32 * 0.5));
        assert!(fresh.iter().enumerate().all(|(i, &x)| x.to_bits() == (i as f32 * 0.5).to_bits()));
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
        // The portable kernel directly: on a CPU with PCLMULQDQ, `crc32`
        // takes the carry-less-multiply kernel from 128 bytes up.
        let mut rng = crate::Pcg32::seed_from_u64(14);
        let buf: Vec<u8> = (0..308).map(|_| rng.next_u32() as u8).collect();
        // Every length across the 8-byte step and its tail, at every
        // start offset (so every alignment of the step to the buffer).
        for start in 0..8 {
            for len in 0..=300 {
                let s = &buf[start..start + len];
                assert_eq!(crc32_slicing(0, s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        let big: Vec<u8> = (0..1 << 20).map(|_| rng.next_u32() as u8).collect();
        assert_eq!(crc32_slicing(0, &big), crc32_bytewise(&big));
    }

    #[test]
    fn crc32_matches_bytewise_reference_at_every_length_and_offset() {
        // Every length across the 128-byte dispatch threshold, the 64-byte
        // fold step and the 16-byte tail, at every start offset (so every
        // alignment of the vector loads to the buffer).
        let mut rng = crate::Pcg32::seed_from_u64(20);
        let buf: Vec<u8> = (0..1024 + 16).map(|_| rng.next_u32() as u8).collect();
        for start in 0..16 {
            for len in 0..=1024 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        let big: Vec<u8> = (0..1 << 20).map(|_| rng.next_u32() as u8).collect();
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn crc32_clmul_kernel_matches_the_slicing_kernel_from_64_bytes() {
        if !(std::is_x86_feature_detected!("pclmulqdq") && std::is_x86_feature_detected!("sse4.1"))
        {
            return;
        }
        let mut rng = crate::Pcg32::seed_from_u64(21);
        let buf: Vec<u8> = (0..400).map(|_| rng.next_u32() as u8).collect();
        for len in 64..=400 {
            let s = &buf[..len];
            // SAFETY: both CPU features were detected above.
            let got = unsafe { clmul::crc32_update(0x1234_5678, s) };
            assert_eq!(got, crc32_slicing(0x1234_5678, s), "len {len}");
        }
    }

    #[test]
    fn crc32_update_chains_like_one_pass() {
        let data = b"The quick brown fox jumps over the lazy dog";
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_update(crc32(a), b), crc32(data), "split {split}");
        }
        // Every split of 4 KiB: each side lands on both kernels, and on
        // both sides of the 128-byte dispatch threshold.
        let mut rng = crate::Pcg32::seed_from_u64(22);
        let buf: Vec<u8> = (0..4096).map(|_| rng.next_u32() as u8).collect();
        let whole = crc32_bytewise(&buf);
        for split in 0..=buf.len() {
            let (a, b) = buf.split_at(split);
            assert_eq!(crc32_update(crc32(a), b), whole, "split {split}");
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

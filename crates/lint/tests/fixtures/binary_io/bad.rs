//! Deliberate violations: slice reinterpretation, CPU-specific code and
//! page advice outside the audited module.

/// Reinterprets a byte buffer as floats without the checked helpers.
pub fn cast(bytes: &[u8]) -> &[f32] {
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<f32>(), bytes.len() / 4) }
}

/// Launders a slice through transmute.
pub fn launder(x: &[u8]) -> &[u8] {
    unsafe { std::mem::transmute(x) }
}

/// SIMD code compiled for a CPU feature, chosen at run time.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.1")]
pub fn simd(x: u32) -> u32 {
    x
}

/// Asks the CPU what it supports.
#[cfg(target_arch = "x86_64")]
pub fn detect() -> bool {
    std::is_x86_feature_detected!("pclmulqdq")
}

/// Asks for huge pages behind the audited helper's back.
pub fn advise(buf: &mut [u8]) -> i32 {
    extern "C" {
        fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
    }
    unsafe { madvise(buf.as_mut_ptr(), buf.len(), 14) }
}

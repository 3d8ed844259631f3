//! Deliberate violations: slice reinterpretation and CPU-specific code
//! outside the audited module.

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

//! Unrolled dot-product kernels for the scoring hot path, and the cache
//! [`prefetch`] hint the training SGD loops issue ahead of their gathers.
//!
//! Serving reduces to dot products between a fitted weight vector and
//! contiguous f32 embedding rows (Abu-El-Haija et al. 2017 make the same
//! observation for asymmetric edge scoring). Training keeps the plain f32
//! loops in [`crate::vecops`] — these kernels exist so `score` / `/batch`
//! stream cache-resident rows through independent accumulator lanes the
//! compiler can autovectorize. [`dot_scalar_f64`] is the strict
//! left-to-right reference the tests compare them against.
//!
//! # Bit-compatibility policy
//!
//! Scores must be **bit-identical** whether a model was fitted in process or
//! loaded from its `.ddm`, however its buffers happen to be aligned, and
//! however many threads are scoring. That holds because:
//!
//! * every `f32 × f32` product is computed in `f64`, which represents the
//!   product exactly (24-bit mantissas multiply into ≤ 48 bits ≪ 53);
//! * element `i` always accumulates into lane `i mod 8` ([`dot8_f64`]) or
//!   `i mod 4` ([`dot4_f64`]), independent of pointer alignment;
//! * lanes reduce in one fixed tree — `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`
//!   for 8 lanes, `(l0+l1)+(l2+l3)` for 4 — so the rounding sequence is a
//!   function of the input values alone.
//!
//! Changing any of these orders is a scoring-compatibility break and must
//! bump the model schema version.

/// 8-wide unrolled dot product with exact-in-`f64` products and the fixed
/// reduction order documented in the module header. The scoring kernel.
///
/// # Panics
/// Panics if `x` and `y` differ in length.
pub fn dot8_f64(x: &[f32], y: &[f32]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot8_f64: length mismatch");
    let mut lanes = [0.0f64; 8];
    let mut xc = x.chunks_exact(8);
    let mut yc = y.chunks_exact(8);
    for (xs, ys) in (&mut xc).zip(&mut yc) {
        for j in 0..8 {
            lanes[j] += f64::from(xs[j]) * f64::from(ys[j]);
        }
    }
    let head = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    head + dot4_f64(xc.remainder(), yc.remainder())
}

/// 4-wide unrolled dot product — handles [`dot8_f64`]'s tail and short
/// vectors on its own. Same exactness and fixed-order guarantees.
///
/// # Panics
/// Panics if `x` and `y` differ in length.
pub fn dot4_f64(x: &[f32], y: &[f32]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot4_f64: length mismatch");
    let mut lanes = [0.0f64; 4];
    let mut xc = x.chunks_exact(4);
    let mut yc = y.chunks_exact(4);
    for (xs, ys) in (&mut xc).zip(&mut yc) {
        for j in 0..4 {
            lanes[j] += f64::from(xs[j]) * f64::from(ys[j]);
        }
    }
    let mut acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for (&a, &b) in xc.remainder().iter().zip(yc.remainder()) {
        acc += f64::from(a) * f64::from(b);
    }
    acc
}

/// Strict left-to-right scalar `f64` dot product — the reference the tests
/// compare the unrolled kernels against.
///
/// # Panics
/// Panics if `x` and `y` differ in length.
pub fn dot_scalar_f64(x: &[f32], y: &[f32]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot_scalar_f64: length mismatch");
    let mut acc = 0.0f64;
    for (&a, &b) in x.iter().zip(y) {
        acc += f64::from(a) * f64::from(b);
    }
    acc
}

/// Bytes per cache line on every target the prefetch hint is issued for.
const CACHE_LINE: usize = 64;

/// Hints the CPU to pull the `len` floats starting at `p` into L1, one
/// prefetch per 64-byte line the span touches, and returns at once.
///
/// The training SGD loops call it a few iterations before they touch a
/// randomly drawn row, so the DRAM round trip overlaps the arithmetic of
/// the iterations in between instead of stalling it. A prefetch moves cache
/// lines, never values: results are bit-identical with or without it.
///
/// `p` is never dereferenced, so it may dangle, be null, or point into a
/// buffer other threads are writing (the Hogwild E-Step's rows, which must
/// never become references). Address arithmetic uses `wrapping_add`, so no
/// pointer-validity precondition applies. On targets other than x86_64 the
/// call compiles to nothing.
#[inline(always)]
pub fn prefetch(p: *const f32, len: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let head = p.addr() % CACHE_LINE;
        let first = p.cast::<i8>().wrapping_sub(head);
        let span = head + len * std::mem::size_of::<f32>();
        let mut off = 0;
        while off < span {
            // SAFETY: a prefetch is a hint that cannot fault, whatever the
            // address, and SSE (which provides it) is baseline on x86_64.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(first.wrapping_add(off)) };
            off += CACHE_LINE;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (p, len, CACHE_LINE);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg32;

    fn random_vec(rng: &mut Pcg32, n: usize) -> Vec<f32> {
        (0..n).map(|_| (rng.next_f64() * 2.0 - 1.0) as f32).collect()
    }

    #[test]
    fn kernels_match_scalar_reference() {
        let mut rng = Pcg32::seed_from_u64(7);
        for n in 0..40 {
            let x = random_vec(&mut rng, n);
            let y = random_vec(&mut rng, n);
            let reference = dot_scalar_f64(&x, &y);
            for got in [dot8_f64(&x, &y), dot4_f64(&x, &y)] {
                let err = (got - reference).abs();
                let tol = 1e-12 * reference.abs().max(1.0);
                assert!(err <= tol, "n={n}: |{got} - {reference}| = {err} > {tol}");
            }
        }
    }

    #[test]
    fn result_is_independent_of_alignment() {
        // Copy the same values into buffers at every offset within a cache
        // line; the kernel must return the same bits each time, proving the
        // reduction order depends on indices, not addresses.
        let mut rng = Pcg32::seed_from_u64(11);
        let x = random_vec(&mut rng, 67);
        let y = random_vec(&mut rng, 67);
        let want = dot8_f64(&x, &y).to_bits();
        for shift in 1..16 {
            let mut xs = vec![0.0f32; shift + x.len()];
            let mut ys = vec![0.0f32; shift + y.len()];
            xs[shift..].copy_from_slice(&x);
            ys[shift..].copy_from_slice(&y);
            assert_eq!(dot8_f64(&xs[shift..], &ys[shift..]).to_bits(), want);
        }
    }

    #[test]
    fn small_products_are_exact() {
        // f32×f32 in f64 is exact, so sums of a few products with exactly
        // representable values must come out exact.
        let x = [1.5f32, -2.25, 0.5, 8.0, 1.0, -1.0, 0.125, 4.0, 3.0];
        let y = [2.0f32, 4.0, -8.0, 0.25, 1.0, 1.0, 8.0, 0.5, -2.0];
        let want: f64 = 3.0 - 9.0 - 4.0 + 2.0 + 1.0 - 1.0 + 1.0 + 2.0 - 6.0;
        assert_eq!(dot8_f64(&x, &y).to_bits(), want.to_bits());
        assert_eq!(dot4_f64(&x, &y).to_bits(), want.to_bits());
        assert_eq!(dot_scalar_f64(&x, &y).to_bits(), want.to_bits());
    }

    #[test]
    fn prefetch_never_dereferences() {
        // Dangling, null and in-bounds pointers are all fine: the hint
        // never reads, and the buffer it names is left untouched.
        let buf = [1.5f32; 40];
        prefetch(buf.as_ptr(), buf.len());
        prefetch(buf.as_ptr().wrapping_add(3), 0);
        prefetch(std::ptr::null(), 1000);
        prefetch(std::ptr::without_provenance(usize::MAX - 8), 64);
        assert!(buf.iter().all(|&x| x == 1.5));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = dot8_f64(&[1.0], &[1.0, 2.0]);
    }
}

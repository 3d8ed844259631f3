//! Numerically stable activation functions.
//!
//! The losses of Eqs. 10–20 are built from `σ` and `log σ`. Naive
//! formulations overflow for large negative inputs; the variants here are
//! stable over the whole `f32`/`f64` range.

/// Logistic sigmoid `σ(x) = 1 / (1 + e^{-x})`, stable for large `|x|`.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        let z = (-x).exp();
        1.0 / (1.0 + z)
    } else {
        let z = x.exp();
        z / (1.0 + z)
    }
}

/// `f64` sigmoid for evaluation-side computations.
#[inline]
pub fn sigmoid64(x: f64) -> f64 {
    if x >= 0.0 {
        let z = (-x).exp();
        1.0 / (1.0 + z)
    } else {
        let z = x.exp();
        z / (1.0 + z)
    }
}

/// `log σ(x)` computed without forming `σ(x)` (avoids `log(0)`).
#[inline]
pub fn log_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        -(1.0 + (-x).exp()).ln()
    } else {
        x - (1.0 + x.exp()).ln()
    }
}

/// Binary cross-entropy `-(y log p + (1-y) log(1-p))` with probability
/// clamping for numerical safety. Accepts soft labels `y ∈ [0, 1]` (the
/// pseudo-labels of Eqs. 14–15 are fractional).
#[inline]
pub fn cross_entropy(y: f64, p: f64) -> f64 {
    let p = p.clamp(1e-12, 1.0 - 1e-12);
    -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_symmetry_and_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        for x in [-5.0f32, -1.0, 0.3, 2.0, 8.0] {
            let s = sigmoid(x);
            assert!((0.0..=1.0).contains(&s));
            assert!((s + sigmoid(-x) - 1.0).abs() < 1e-6, "σ(x)+σ(-x)=1 at {x}");
        }
    }

    #[test]
    fn sigmoid_extremes_do_not_overflow() {
        assert_eq!(sigmoid(1000.0), 1.0);
        assert_eq!(sigmoid(-1000.0), 0.0);
        assert!(sigmoid64(-745.0) >= 0.0);
        assert!(log_sigmoid(-1000.0).is_finite());
        assert!(log_sigmoid(1000.0) <= 0.0);
    }

    #[test]
    fn log_sigmoid_matches_log_of_sigmoid() {
        for x in [-4.0f32, -0.5, 0.0, 0.5, 4.0] {
            let direct = sigmoid(x).ln();
            assert!((log_sigmoid(x) - direct).abs() < 1e-5, "at {x}");
        }
    }

    #[test]
    fn cross_entropy_behaviour() {
        // Perfect confident prediction → ~0 loss.
        assert!(cross_entropy(1.0, 1.0 - 1e-13) < 1e-9);
        // Confidently wrong → large loss, still finite.
        let l = cross_entropy(1.0, 1e-13);
        assert!(l > 20.0 && l.is_finite());
        // Soft label: minimized at p = y.
        let at_y = cross_entropy(0.3, 0.3);
        assert!(cross_entropy(0.3, 0.5) > at_y);
        assert!(cross_entropy(0.3, 0.1) > at_y);
    }

    #[test]
    fn sigmoid64_matches_f32_version() {
        for x in [-3.0, 0.0, 1.7] {
            assert!((sigmoid64(x) - sigmoid(x as f32) as f64).abs() < 1e-6);
        }
    }
}

//! Order statistics shared by the end-to-end and per-layer reports.

/// Linear-interpolation quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts `xs` ascending (NaNs last) and returns it.
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs
}

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs.to_vec()), 0.5)
}

/// Median and p99 of a latency sample, with its size.
#[derive(Debug, Clone, Copy)]
pub struct Dist {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
}

impl Dist {
    /// An endpoint the workload does not send to.
    pub const NONE: Dist = Dist { n: 0, p50: 0.0, p99: 0.0 };

    pub fn of(xs: &[f64]) -> Dist {
        let s = sorted(xs.to_vec());
        Dist { n: s.len(), p50: quantile_sorted(&s, 0.5), p99: quantile_sorted(&s, 0.99) }
    }

    /// Whether the sample has at least ten values beyond its p99.
    pub fn p99_supported(&self) -> bool {
        self.n >= 1000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 4.0);
        assert!((quantile_sorted(&s, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        let d = Dist::of(&(1..=1000).map(f64::from).collect::<Vec<_>>());
        assert!(d.p99_supported() && d.p99 > 989.0 && d.p99 < 991.0);
        assert!(!Dist::of(&[1.0; 999]).p99_supported());
    }
}

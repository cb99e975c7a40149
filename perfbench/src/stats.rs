//! Order statistics for timings and spreads.

/// Median of `xs` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(&sorted(xs), 0.5)
}

/// A sorted copy of `xs` (NaN-free input assumed; NaNs sort last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Linear-interpolation quantile of already sorted data; `0.0` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// A per-call timing distribution: the median, plus the highest
/// percentile of the ladder that still has at least ten samples beyond
/// it, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Samples.
    pub n: usize,
    /// Median sample.
    pub median: f64,
    /// The tail percentile's label, e.g. `"p99"`.
    pub tail_label: &'static str,
    /// The tail percentile's value.
    pub tail: f64,
}

/// Tail percentiles tried from the highest down, in parts per 10 000.
const LADDER: [(usize, &str); 5] = [
    (9999, "p99.99"),
    (9990, "p99.9"),
    (9900, "p99"),
    (9000, "p90"),
    (5000, "p50"),
];

/// Summarize samples as a [`Dist`].
pub fn dist(xs: &[f64]) -> Dist {
    let s = sorted(xs);
    let n = s.len();
    let (q, label) = LADDER
        .iter()
        .copied()
        .find(|&(q, _)| n * (10_000 - q) >= 10 * 10_000)
        .unwrap_or((5000, "p50"));
    Dist {
        n,
        median: quantile(&s, 0.5),
        tail_label: label,
        tail: quantile(&s, q as f64 / 10_000.0),
    }
}

/// Value at fraction `q` of the samples (nearest-rank on the sorted data),
/// for integer-valued quantities such as tick counts.
pub fn percentile_rank(xs: &[f64], q: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile_rank(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(percentile_rank(&[1.0, 2.0, 3.0, 4.0], 0.99), 4.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let d = dist(&xs);
        assert_eq!(d.n, 1000);
        assert_eq!(d.tail_label, "p99");
        let small = dist(&xs[..50]);
        assert_eq!(small.tail_label, "p50");
        assert_eq!(dist(&xs[..100]).tail_label, "p90");
    }
}

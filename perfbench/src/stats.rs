//! Order statistics for the benchmark's samples.

/// Linear-interpolation quantile (`q` in `[0, 1]`) of an unsorted sample,
/// the "inclusive" method: `q = 0` is the minimum, `q = 1` the maximum.
/// `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of an unsorted sample; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// First and third quartiles of an unsorted sample.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    Some((quantile(samples, 0.25)?, quantile(samples, 0.75)?))
}

/// A percentile is reported only when at least ten samples lie beyond
/// it: `n * (1 - q) >= 10`. The p90 of 100 samples qualifies, the p90 of
/// 99 does not.
pub fn percentile_supported(n: usize, q: f64) -> bool {
    n as f64 * (1.0 - q) >= 10.0 - 1e-9
}

/// The `q` percentile when the sample supports it (see
/// [`percentile_supported`]).
pub fn supported_quantile(samples: &[f64], q: f64) -> Option<f64> {
    if percentile_supported(samples.len(), q) {
        quantile(samples, q)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_interpolate() {
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((3.0, 7.0)));
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((q1 - 1.75).abs() < 1e-12);
        assert!((q3 - 3.25).abs() < 1e-12);
    }

    #[test]
    fn quantile_ignores_input_order() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            assert_eq!(quantile(&a, q), quantile(&b, q));
        }
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert!(percentile_supported(20, 0.5));
        assert!(!percentile_supported(19, 0.5));
        assert!(percentile_supported(100, 0.9));
        assert!(!percentile_supported(99, 0.9));
        assert!(percentile_supported(213, 0.9));
        assert!(!percentile_supported(213, 0.99));
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(supported_quantile(&v, 0.9), None);
        assert!(supported_quantile(&v, 0.5).is_some());
    }
}

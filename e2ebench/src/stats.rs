//! Order statistics and share arithmetic used to summarize runs.

/// Fewest samples that must lie beyond a percentile before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First, second and third quartile by the exclusive method (Python's
/// `statistics.quantiles(values, n=4)`). `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // May be negative for tiny samples: the method extrapolates there.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The nearest-rank `q`-quantile of `values`, but only when at least
/// [`MIN_TAIL_SAMPLES`] samples lie strictly beyond it; a tail percentile
/// read off fewer samples is one or two outliers, not a distribution.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    // Nearest rank, 1-based: the smallest r with r / n >= q.
    let rank = ((q * n as f64).ceil() as usize).max(1);
    (n - rank >= MIN_TAIL_SAMPLES).then(|| sorted[rank - 1])
}

/// `part / whole`, or 0 when nothing was attempted.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 2.0, 1.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // rank 990 of 1000 leaves exactly 10 samples beyond it.
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&v[..999], 0.99), None);
        assert_eq!(tail_percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&v[..19], 0.5), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
        assert_eq!(tail_percentile(&v, 1.0), None);
    }

    #[test]
    fn share_with_zero_attempts_is_zero() {
        assert_eq!(share(0.0, 0.0), 0.0);
        assert_eq!(share(5.0, 0.0), 0.0);
        assert_eq!(share(1.0, 4.0), 0.25);
    }
}

//! Percentiles and spreads.

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice: every caller reports a sample count and
/// must not invent a latency for zero samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank_index(sorted.len(), p)]
}

/// Index of the nearest-rank percentile `p` among `n` ascending samples.
///
/// # Panics
///
/// Panics when `n` is zero.
pub fn rank_index(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    // The epsilon keeps 0.9 × 100 = 90.00000000000001 at rank 90.
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// The percentiles a latency may be reported at, ascending.
const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`LADDER`] that still has at least ten of
/// `n` samples beyond it; a higher one would be decided by a handful of
/// outliers. `None` below 20 samples, where not even the median has ten.
pub fn top_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n > 0 && n - 1 - rank_index(n, *p) >= 10)
}

/// Sorts in place and returns the median (the mean of the middle two
/// for an even count, as the driver's `statistics.median` does).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Spread of a set of runs as a share of their median: the distance
/// between the first and third quartile (by the exclusive method Python's
/// `statistics.quantiles(n=4)` uses) with four runs or more, the whole
/// range with two or three, and `None` with one.
pub fn spread(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    let med = median(&mut v);
    if v.len() < 2 || med == 0.0 {
        return None;
    }
    let width = if v.len() < 4 {
        v[v.len() - 1] - v[0]
    } else {
        let q = |k: f64| {
            let pos = k * (v.len() + 1) as f64 / 4.0;
            let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
            v[lo - 1] + (pos - lo as f64) * (v[lo] - v[lo - 1])
        };
        q(3.0) - q(1.0)
    };
    Some(width / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn top_percentile_keeps_ten_samples_beyond() {
        assert_eq!(top_percentile(19), None);
        assert_eq!(top_percentile(20), Some(50.0));
        assert_eq!(top_percentile(100), Some(90.0));
        assert_eq!(top_percentile(199), Some(90.0));
        assert_eq!(top_percentile(200), Some(95.0));
        assert_eq!(top_percentile(1_000), Some(99.0));
        assert_eq!(top_percentile(9_999), Some(99.0));
        assert_eq!(top_percentile(10_000), Some(99.9));
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12, "{s}");
        assert_eq!(spread(&[4.0]), None);
        assert_eq!(spread(&[9.0, 10.0, 11.0]), Some(0.2));
    }
}

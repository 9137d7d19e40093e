//! The order statistics every reported number goes through.

use mflow_metrics::percentile_of_sorted;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count. Zero
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    percentile_of_sorted(&sorted(xs), q)
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` does (the "exclusive" method), so the
/// self-agreement check reads the same as whoever re-runs it in Python.
/// `None` for fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    Some([1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    }))
}

/// How far repeated measurements of one metric lie apart, as a share of
/// their median: the number that is compared with the metric's bound.
/// From four values on it is the distance between the first and third
/// quartile, which is what a ten-run check computes. Python's quartiles
/// of two or three values lie outside the data, so below four values it
/// is the full range. `None` for fewer than two values or a zero median.
pub fn relative_spread(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    let v = sorted(xs);
    let distance = if v.len() >= 4 {
        q3 - q1
    } else {
        v[v.len() - 1] - v[0]
    };
    (q2 != 0.0).then(|| distance / q2.abs())
}

/// The segment-median rule: a window is cut into equal segments, each
/// segment yields one value, and the reported timing is their median, so
/// one noisy patch on a shared box moves at most one of them.
pub fn segment_median<T>(segments: &[T], value: impl Fn(&T) -> f64) -> f64 {
    median(&segments.iter().map(value).collect::<Vec<_>>())
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
    fn percentile_is_nearest_rank_on_unsorted_input() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median_and_range_below_four_values() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_spread(&xs), Some(1.0));
        assert_eq!(relative_spread(&[5.0, 5.0, 5.0]), Some(0.0));
        assert_eq!(relative_spread(&[90.0, 110.0]), Some(0.2));
        assert_eq!(relative_spread(&[0.0, 0.0]), None);
        assert_eq!(relative_spread(&[3.0]), None);
    }

    #[test]
    fn segment_median_ignores_one_noisy_segment() {
        let segments = [4.0, 4.1, 0.5, 3.9, 4.0];
        assert_eq!(segment_median(&segments, |&s| s), 4.0);
    }
}

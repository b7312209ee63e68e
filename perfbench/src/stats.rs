//! Order statistics for benchmark samples: median, quartiles and the tail
//! percentile rule ("report the highest percentile that still has at least
//! ten samples beyond it").

/// Samples at or beyond a reported tail percentile, at minimum.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentiles considered for the tail, highest first.
const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 90.0, 75.0];

/// Median, quartiles and tail of one metric's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)`: the highest of [`TAIL_PERCENTILES`] with at
    /// least [`TAIL_MIN_BEYOND`] samples beyond it, if any.
    pub tail: Option<(f64, f64)>,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// Panics on an empty slice: a metric with no samples is a bug in the
/// benchmark, not a measurement.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// First, second and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spread this program prints matches one computed in Python.
/// A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    if v.len() == 1 {
        return (v[0], v[0], v[0]);
    }
    let n = v.len();
    let m = n + 1;
    let cut = |i: usize| {
        // Position i·(n+1)/4 in 1-based order, clamped to the sample range;
        // the interpolation is written exactly as Python's, so the two agree
        // to the last bit.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest tail percentile that has at least [`TAIL_MIN_BEYOND`]
/// samples strictly above its nearest rank, or `None` when there are too
/// few samples for any.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (n >= rank + TAIL_MIN_BEYOND).then(|| (p, percentile(values, p)))
    })
}

pub fn summarize(values: &[f64]) -> Summary {
    let (q1, _, q3) = quartiles(values);
    Summary {
        n: values.len(),
        median: median(values),
        q1,
        q3,
        tail: tail_percentile(values),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn median_of_nothing_panics() {
        median(&[]);
    }

    /// Reference values from Python 3.11:
    /// `statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]`,
    /// `statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]` (extrapolated),
    /// `statistics.quantiles([7, 1, 4], n=4) == [1.0, 4.0, 7.0]`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0, 1.0, 4.0]), (1.0, 4.0, 7.0));
        assert_eq!(quartiles(&[2.0]), (2.0, 2.0, 2.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[4.0, 2.0], 1.0), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: p75 has rank 15 and only 4 beyond it.
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&few), None);
        // 40 samples: p75 (rank 30) has exactly 10 beyond, p90 only 4.
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail_percentile(&forty), Some((75.0, 30.0)));
        // 100 samples: p90 (rank 90) has 10 beyond, p99 has 1.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred), Some((90.0, 90.0)));
        // 1000 samples: p99 (rank 990) has 10 beyond.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand), Some((99.0, 990.0)));
    }

    #[test]
    fn summary_collects_everything() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.median, 2.0);
        assert_eq!((s.q1, s.q3), (1.0, 3.0));
        assert_eq!(s.tail, None);
    }
}

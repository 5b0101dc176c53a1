//! Order statistics. The benchmark carries its own so that nothing it
//! reports shifts when the repository's experiment helpers change.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it. Zero when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Nearest-rank percentile of nanosecond samples, in µs. Sorts in place.
pub fn percentile_us(samples: &mut [u64], p: f64) -> f64 {
    samples.sort_unstable();
    percentile(samples, p) as f64 / 1000.0
}

/// `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) and
/// `statistics.median`, so spreads printed here match that tool.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    if n == 1 {
        return (v[0], median, v[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), median, q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 10.0), 1);
        assert_eq!(percentile(&v, 11.0), 2);
        assert_eq!(percentile(&v, 50.0), 5);
        assert_eq!(percentile(&v, 90.0), 9);
        assert_eq!(percentile(&v, 99.0), 10);
        assert_eq!(percentile(&v, 100.0), 10);
        assert_eq!(percentile(&[15, 20, 35, 40, 50], 30.0), 20);
        assert_eq!(percentile(&[15, 20, 35, 40, 50], 40.0), 20);
        assert_eq!(percentile(&[15, 20, 35, 40, 50], 50.0), 35);
        assert_eq!(percentile(&[7], 99.9), 7);
        assert_eq!(percentile(&[], 50.0), 0);
        let mut ns = vec![3000, 1000, 2000];
        assert_eq!(percentile_us(&mut ns, 50.0), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }
}

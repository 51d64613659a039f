//! Order statistics over recorded samples.

/// The `p`-th percentile (`p` in 0..=100) of `samples` by the nearest-rank
/// rule, or `None` when there are none. `p` beyond 100 clamps to the
/// largest sample, so a caller asking for p99.9 of ten samples gets the
/// maximum instead of an out-of-range index.
pub fn percentile(samples: &mut [u64], p: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = (p / 100.0 * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// [`percentile`] as a metric value in ns; 0 when there are no samples
/// (a metric that does not apply to a workload reads 0).
pub fn percentile_ns(samples_ns: &mut [u64], p: f64) -> f64 {
    percentile(samples_ns, p).map_or(0.0, |ns| ns as f64)
}

/// [`percentile_ns`] in microseconds.
pub fn percentile_us(samples_ns: &mut [u64], p: f64) -> f64 {
    percentile_ns(samples_ns, p) / 1e3
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_nothing_is_none() {
        assert_eq!(percentile(&mut [], 50.0), None);
        assert_eq!(percentile_us(&mut [], 99.0), 0.0);
    }

    #[test]
    fn percentile_of_one_sample_is_that_sample() {
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&mut [7], p), Some(7));
        }
    }

    #[test]
    fn percentile_index_is_clamped() {
        let mut s = [5, 1, 4, 2, 3];
        assert_eq!(percentile(&mut s, 0.0), Some(1));
        assert_eq!(percentile(&mut s, 50.0), Some(3));
        assert_eq!(percentile(&mut s, 100.0), Some(5));
        assert_eq!(percentile(&mut s, 250.0), Some(5));
        assert_eq!(percentile(&mut s, -3.0), Some(1));
    }
}

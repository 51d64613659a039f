//! Guarded latency-summary helper shared by the experiments.
//!
//! A hand-rolled tail window that indexes `values[..]` unguarded panics
//! the whole experiment on an empty series (zero missions, or a mix that
//! never exercises the measured path) instead of yielding a row. This is
//! the one tail window of the crate: every converged-tail number (the
//! ranking metric, the regrets, the tuning rows, the ablations) is taken
//! here.

/// Mean of the last `fraction` of `values` (the converged tail of a
/// mission series): the window is `⌈len × fraction⌉` values, at least
/// one, and the mean is `0.0` on empty input.
pub fn tail_mean(values: &[f64], fraction: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let window = ((values.len() as f64) * fraction.clamp(0.0, 1.0)).ceil() as usize;
    let tail = &values[values.len() - window.clamp(1, values.len())..];
    tail.iter().sum::<f64>() / tail.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_inputs_yield_zero_not_a_panic() {
        assert_eq!(tail_mean(&[], 0.3), 0.0);
    }

    #[test]
    fn single_element_is_every_percentile() {
        assert_eq!(tail_mean(&[7.0], 0.3), 7.0);
        assert_eq!(tail_mean(&[7.0], 1.0), 7.0);
    }

    #[test]
    fn tail_mean_takes_the_last_fraction() {
        let v = [10.0, 10.0, 10.0, 1.0, 2.0, 3.0];
        // Last third = [2.0, 3.0] -> 2.5.
        assert!((tail_mean(&v, 1.0 / 3.0) - 2.5).abs() < 1e-12);
        // A window smaller than one value still averages the last one.
        assert!((tail_mean(&v, 0.01) - 3.0).abs() < 1e-12);
    }
}

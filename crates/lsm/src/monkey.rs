//! Monkey Bloom-filter allocation (Dayan et al., SIGMOD'17), §5.2 Case 2.
//!
//! Mainstream designs give every level the same bits-per-key ("uniform").
//! Monkey instead assigns exponentially higher false-positive rates to larger
//! levels — `f_i = T^{i−1} · f_1` — which minimizes the total expected probe
//! cost for a fixed memory budget. The RusKey policy-propagation lemma
//! (Lemma 5.1) is derived under exactly this allocation.

use crate::bloom::bits_for_fpr;

/// Per-level false-positive rate under the Monkey scheme.
///
/// `level` is zero-based (level 0 = the paper's Level 1). FPRs are capped at
/// 1.0; a level with `f_i ≥ 1` receives no filter memory at all.
pub(crate) fn monkey_fpr(level1_fpr: f64, size_ratio: u32, level: usize) -> f64 {
    let f = level1_fpr * (size_ratio as f64).powi(level as i32);
    f.min(1.0)
}

/// Per-level bits-per-key under the Monkey scheme.
pub(crate) fn monkey_bits_per_key(level1_fpr: f64, size_ratio: u32, level: usize) -> f64 {
    bits_for_fpr(monkey_fpr(level1_fpr, size_ratio, level))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fpr_grows_by_t_per_level() {
        let f1 = 0.001;
        let t = 10;
        assert!((monkey_fpr(f1, t, 0) - 0.001).abs() < 1e-12);
        assert!((monkey_fpr(f1, t, 1) - 0.01).abs() < 1e-12);
        assert!((monkey_fpr(f1, t, 2) - 0.1).abs() < 1e-12);
        assert_eq!(monkey_fpr(f1, t, 3), 1.0);
        assert_eq!(monkey_fpr(f1, t, 9), 1.0);
    }

    #[test]
    fn deepest_levels_get_zero_bits() {
        let bits = monkey_bits_per_key(0.01, 10, 5);
        assert_eq!(bits, 0.0);
        let bits1 = monkey_bits_per_key(0.01, 10, 0);
        assert!(bits1 > 6.0, "level 1 should get a real filter, got {bits1}");
    }

    #[test]
    fn bits_decrease_with_depth() {
        let f1 = 0.0001;
        let mut prev = f64::INFINITY;
        for lvl in 0..6 {
            let b = monkey_bits_per_key(f1, 10, lvl);
            assert!(b <= prev, "bits must be non-increasing with depth");
            prev = b;
        }
    }
}

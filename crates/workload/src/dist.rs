//! Key popularity distributions.

use rand::Rng;

/// How keys are drawn from the key space `[0, n)`.
#[derive(Debug, Clone, PartialEq)]
pub enum KeyDistribution {
    /// Every key equally likely (the paper's default experiments).
    Uniform,
    /// YCSB-style scrambled Zipfian: ranks follow a Zipf law with exponent
    /// `theta` (YCSB default 0.99) and are scattered over the key space by a
    /// deterministic bijection so hot keys are not clustered.
    Zipfian {
        /// Zipf exponent in `(0, 1)`; YCSB's default is 0.99.
        theta: f64,
    },
}

impl KeyDistribution {
    /// YCSB's default Zipfian.
    pub fn zipfian_default() -> Self {
        KeyDistribution::Zipfian { theta: 0.99 }
    }
}

/// A sampler binding a [`KeyDistribution`] to a key-space size.
#[derive(Debug, Clone)]
pub struct KeySampler {
    n: u64,
    /// The Zipf law of a Zipfian sampler; `None` samples uniformly.
    zipf: Option<ZipfState>,
    scramble_mult: u64,
}

#[derive(Debug, Clone)]
struct ZipfState {
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

fn zeta(n: u64, theta: f64) -> f64 {
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

impl ZipfState {
    fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 1);
        // The supported range is the half-open [0, 1): `theta = 0`
        // degenerates cleanly to the uniform distribution (`alpha = 1`,
        // `eta = 1`, so ranks are `n·u`), while `theta = 1` divides by
        // zero in `alpha = 1/(1-theta)`.
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Self {
            theta,
            zetan,
            alpha,
            eta,
        }
    }

    /// Draws a Zipf-distributed rank in `[0, n)` (Gray et al. / YCSB).
    fn sample(&self, n: u64, rng: &mut impl Rng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(n - 1)
    }
}

/// Greatest common divisor (for picking a scramble multiplier coprime to n).
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl KeySampler {
    /// Creates a sampler over the key space `[0, n)`.
    pub(crate) fn new(n: u64, dist: KeyDistribution) -> Self {
        assert!(n >= 1, "key space must be non-empty");
        let zipf = match dist {
            KeyDistribution::Uniform => None,
            KeyDistribution::Zipfian { theta } => Some(ZipfState::new(n, theta)),
        };
        // A multiplier coprime to n makes `rank * mult % n` a bijection,
        // scattering hot ranks across the key space deterministically.
        let mut scramble_mult = 0x9E37_79B9_7F4A_7C15u64 % n.max(1);
        if scramble_mult == 0 {
            scramble_mult = 1;
        }
        while gcd(scramble_mult, n) != 1 {
            scramble_mult += 1;
        }
        Self {
            n,
            zipf,
            scramble_mult,
        }
    }

    /// Draws one key id in `[0, n)`.
    pub(crate) fn sample(&self, rng: &mut impl Rng) -> u64 {
        match &self.zipf {
            None => rng.gen_range(0..self.n),
            Some(zipf) => {
                let rank = zipf.sample(self.n, rng);
                (rank as u128 * self.scramble_mult as u128 % self.n as u128) as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn histogram(sampler: &KeySampler, draws: usize, n: usize) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(42);
        let mut h = vec![0u64; n];
        for _ in 0..draws {
            h[sampler.sample(&mut rng) as usize] += 1;
        }
        h
    }

    #[test]
    fn uniform_is_roughly_flat() {
        let s = KeySampler::new(100, KeyDistribution::Uniform);
        let h = histogram(&s, 100_000, 100);
        let (min, max) = (h.iter().min().unwrap(), h.iter().max().unwrap());
        assert!(
            *max < 2 * *min,
            "uniform histogram too skewed: {min}..{max}"
        );
    }

    #[test]
    fn zipfian_is_skewed_and_scattered() {
        let n = 1000u64;
        let s = KeySampler::new(n, KeyDistribution::zipfian_default());
        let h = histogram(&s, 200_000, n as usize);
        let mut sorted = h.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        // Top-10 keys should take a large share (Zipf 0.99 over 1000 keys).
        let top10: u64 = sorted[..10].iter().sum();
        let total: u64 = sorted.iter().sum();
        assert!(
            top10 as f64 / total as f64 > 0.25,
            "zipfian not skewed enough: top10 {top10}/{total}"
        );
        // Scrambling: rank 0 maps to key 0, but rank 1 (second hottest)
        // must be scattered away from key 1 by the multiplier bijection.
        let mut by_count: Vec<(usize, u64)> = h.iter().copied().enumerate().collect();
        by_count.sort_unstable_by_key(|&(_, c)| std::cmp::Reverse(c));
        assert_eq!(by_count[0].0 as u64, 0, "rank 0 scrambles to key 0");
        let mut mult = 0x9E37_79B9_7F4A_7C15u64 % n;
        while gcd(mult, n) != 1 {
            mult += 1;
        }
        assert_eq!(
            by_count[1].0 as u64, mult,
            "rank 1 lands at the scramble multiplier"
        );
    }

    #[test]
    fn samples_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for dist in [KeyDistribution::Uniform, KeyDistribution::zipfian_default()] {
            let s = KeySampler::new(17, dist);
            for _ in 0..10_000 {
                assert!(s.sample(&mut rng) < 17);
            }
        }
    }

    #[test]
    fn tiny_key_spaces_work() {
        let mut rng = StdRng::seed_from_u64(7);
        let s = KeySampler::new(1, KeyDistribution::zipfian_default());
        assert_eq!(s.sample(&mut rng), 0);
        let s = KeySampler::new(2, KeyDistribution::Uniform);
        for _ in 0..100 {
            assert!(s.sample(&mut rng) < 2);
        }
    }

    /// `theta = 0` sits *inside* the supported range and degenerates to
    /// the uniform distribution (after the scramble bijection, which is
    /// measure-preserving) — pinning that the accepted range really is
    /// the half-open `[0, 1)`.
    #[test]
    fn zipf_theta_zero_is_uniform() {
        let s = KeySampler::new(100, KeyDistribution::Zipfian { theta: 0.0 });
        let h = histogram(&s, 100_000, 100);
        let (min, max) = (h.iter().min().unwrap(), h.iter().max().unwrap());
        assert!(*max < 2 * *min, "theta=0 must be uniform, got {min}..{max}");
    }

    #[test]
    #[should_panic(expected = "theta must be in [0, 1)")]
    fn zipf_theta_one_is_rejected() {
        let _ = KeySampler::new(100, KeyDistribution::Zipfian { theta: 1.0 });
    }

    #[test]
    #[should_panic(expected = "theta must be in [0, 1)")]
    fn zipf_negative_theta_is_rejected() {
        let _ = KeySampler::new(100, KeyDistribution::Zipfian { theta: -0.1 });
    }

    #[test]
    fn zeta_matches_hand_computed() {
        assert!((zeta(1, 0.99) - 1.0).abs() < 1e-12);
        let z3 = 1.0 + 1.0 / 2f64.powf(0.5) + 1.0 / 3f64.powf(0.5);
        assert!((zeta(3, 0.5) - z3).abs() < 1e-12);
    }
}

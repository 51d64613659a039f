//! Exploration noise for DDPG.

use rand::Rng;

/// Ornstein–Uhlenbeck process — temporally correlated noise, the classic
/// choice for DDPG exploration (Lillicrap et al., 2015).
#[derive(Debug, Clone)]
pub struct OuNoise {
    theta: f32,
    sigma: f32,
    mu: f32,
    state: Vec<f32>,
}

impl OuNoise {
    /// Creates an OU process over `dim` action dimensions.
    pub(crate) fn new(dim: usize, theta: f32, sigma: f32, mu: f32) -> Self {
        Self {
            theta,
            sigma,
            mu,
            state: vec![mu; dim],
        }
    }

    /// Standard DDPG settings: θ=0.15, σ=0.2, μ=0.
    pub(crate) fn standard(dim: usize) -> Self {
        Self::new(dim, 0.15, 0.2, 0.0)
    }

    /// Draws the next correlated noise vector.
    pub(crate) fn next(&mut self, rng: &mut impl Rng) -> Vec<f32> {
        for x in &mut self.state {
            // Box–Muller standard normal.
            let u1: f32 = rng.gen::<f32>().max(1e-9);
            let u2: f32 = rng.gen();
            let n = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
            *x += self.theta * (self.mu - *x) + self.sigma * n;
        }
        self.state.clone()
    }

    /// Resets the state to the mean (start of a new episode).
    pub(crate) fn reset(&mut self) {
        self.state.iter_mut().for_each(|x| *x = self.mu);
    }

    /// Scales the volatility (used for exploration decay).
    pub(crate) fn set_sigma(&mut self, sigma: f32) {
        self.sigma = sigma;
    }

    /// Current volatility.
    pub(crate) fn sigma(&self) -> f32 {
        self.sigma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ou_reverts_to_mean() {
        let mut noise = OuNoise::new(1, 0.5, 0.0, 2.0); // no volatility: pure mean reversion
        noise.state[0] = 10.0;
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            noise.next(&mut rng);
        }
        assert!(
            (noise.state[0] - 2.0).abs() < 0.1,
            "state {}",
            noise.state[0]
        );
    }

    #[test]
    fn ou_has_spread_with_sigma() {
        let mut noise = OuNoise::standard(1);
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<f32> = (0..500).map(|_| noise.next(&mut rng)[0]).collect();
        let var = samples.iter().map(|x| x * x).sum::<f32>() / samples.len() as f32;
        assert!(var > 0.01, "variance too small: {var}");
    }

    #[test]
    fn reset_returns_to_mu() {
        let mut noise = OuNoise::new(3, 0.15, 0.3, 0.0);
        let mut rng = StdRng::seed_from_u64(4);
        noise.next(&mut rng);
        noise.reset();
        assert_eq!(noise.state, vec![0.0; 3]);
    }

    #[test]
    fn dims_match() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(OuNoise::standard(4).next(&mut rng).len(), 4);
        assert_eq!(OuNoise::standard(7).next(&mut rng).len(), 7);
    }
}

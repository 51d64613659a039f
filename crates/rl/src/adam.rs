//! The Adam optimizer (Kingma & Ba, 2015), with one stated departure.
//!
//! **Moments are never subnormal.** A freshly computed first or second
//! moment whose magnitude is below `f32::MIN_POSITIVE` is stored as `0.0`.
//! A parameter whose gradient is exactly zero for good (every weight into a
//! ReLU unit that died) has its first moment decay as `0.9^t`. After some
//! 830 steps it would enter the subnormal range, where x86 handles each
//! arithmetic operation by a microcode assist far slower than a normal
//! one, and it would never leave: at the bottom of the range `0.9 · m`
//! rounds back to `m`. The update a subnormal moment produces is at most
//! `lr · m / eps < 1.2e-33`, which no trained parameter is small enough to
//! register, so storing zero instead changes no decision; the golden
//! trajectories in `tests/golden_trajectory.rs` and the unflushed reference
//! in `ddpg`'s tests pin that to the bit.

use crate::nn::Mlp;

/// Adam state for one network.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

/// The moment rule of this optimiser: a subnormal `x` is stored as zero.
fn flush_subnormal(x: f32) -> f32 {
    if x.abs() < f32::MIN_POSITIVE {
        0.0
    } else {
        x
    }
}

impl Adam {
    /// Creates an optimizer for a network with `param_count` parameters.
    pub(crate) fn new(param_count: usize, lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![0.0; param_count],
            v: vec![0.0; param_count],
        }
    }

    /// Applies one Adam step using the gradients accumulated in `net`,
    /// scaled by `grad_scale` (e.g. `1 / batch_size`). Does not zero grads.
    pub(crate) fn step(&mut self, net: &mut Mlp, grad_scale: f32) {
        assert_eq!(
            net.param_count(),
            self.m.len(),
            "optimizer/network mismatch"
        );
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let (params, grads) = net.params_and_grads();
        let moments = self.m.iter_mut().zip(&mut self.v);
        for ((p, &g_raw), (m, v)) in params.iter_mut().zip(grads).zip(moments) {
            let g = g_raw * grad_scale;
            *m = flush_subnormal(b1 * *m + (1.0 - b1) * g);
            *v = flush_subnormal(b2 * *v + (1.0 - b2) * g * g);
            let mh = *m / b1t;
            let vh = *v / b2t;
            *p -= lr * mh / (vh.sqrt() + eps);
        }
    }
}

#[cfg(test)]
impl Adam {
    /// Steps taken.
    pub(crate) fn steps(&self) -> u64 {
        self.t
    }

    /// The first and second moments.
    pub(crate) fn moments(&self) -> (&[f32], &[f32]) {
        (&self.m, &self.v)
    }

    /// Textbook Adam, one parameter at a time and without the moment flush:
    /// the reference [`Adam::step`] is compared with.
    pub(crate) fn step_unflushed(&mut self, net: &mut Mlp, grad_scale: f32) {
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        let (params, grads) = net.params_and_grads();
        for i in 0..params.len() {
            let g = grads[i] * grad_scale;
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let mh = self.m[i] / b1t;
            let vh = self.v[i] / b2t;
            params[i] -= self.lr * mh / (vh.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::Activation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn adam_fits_regression_faster_than_it_starts() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Mlp::new(
            &[1, 16, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        let mut adam = Adam::new(net.param_count(), 1e-2);
        let f = |x: f32| 0.5 * x * x - x + 2.0;
        let loss_of = |net: &mut Mlp| {
            let mut l = 0.0;
            for i in 0..20 {
                let x = -2.0 + i as f32 / 5.0;
                let y = net.forward(&[x])[0];
                l += (y - f(x)).powi(2);
            }
            l / 20.0
        };
        let initial = loss_of(&mut net);
        for _ in 0..2000 {
            let xs = net.input_mut(16);
            xs.iter_mut()
                .for_each(|x| *x = rng.gen::<f32>() * 4.0 - 2.0);
            let targets: Vec<f32> = xs.iter().map(|&x| f(x)).collect();
            let ys = net.forward_batch();
            let grad: Vec<f32> = ys
                .iter()
                .zip(&targets)
                .map(|(y, t)| 2.0 * (y - t))
                .collect();
            net.zero_grad();
            net.accumulate_grads(&grad);
            adam.step(&mut net, 1.0 / 16.0);
        }
        let final_loss = loss_of(&mut net);
        assert!(
            final_loss < initial * 0.05 && final_loss < 0.1,
            "Adam failed: {initial} -> {final_loss}"
        );
    }

    #[test]
    fn a_decaying_moment_is_flushed_to_zero_not_stored_subnormal() {
        // One gradient, then none: the first moment decays as 0.9^t.
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Mlp::new(
            &[1, 1],
            Activation::Identity,
            Activation::Identity,
            &mut rng,
        );
        let mut flushed = Adam::new(net.param_count(), 1e-3);
        let mut textbook = flushed.clone();
        let mut reference = net.clone();
        for t in 0..1200 {
            for net in [&mut net, &mut reference] {
                net.forward(&[1.0]);
                net.zero_grad();
                net.accumulate_grads(&[if t == 0 { 1e-3 } else { 0.0 }]);
            }
            flushed.step(&mut net, 1.0);
            textbook.step_unflushed(&mut reference, 1.0);
            let (m, v) = flushed.moments();
            assert!(m.iter().chain(v).all(|x| !x.is_subnormal()), "step {t}");
        }
        assert!(flushed.moments().0.iter().all(|&m| m == 0.0));
        assert!(textbook.moments().0.iter().all(|m| m.is_subnormal()));
        let (p, _) = net.params_and_grads();
        let (q, _) = reference.params_and_grads();
        assert_eq!(p, q, "the flush moved a parameter");
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn shape_mismatch_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Mlp::new(&[2, 2], Activation::Relu, Activation::Identity, &mut rng);
        let mut adam = Adam::new(1, 1e-3);
        adam.step(&mut net, 1.0);
    }
}

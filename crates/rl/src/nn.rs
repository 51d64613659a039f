//! Multilayer perceptrons with manual backpropagation, one batch at a time.
//!
//! A network processes a whole batch per call. Activations are stored
//! **feature-major**: a `[dim][batch]` buffer holds feature `i` of every
//! sample in the contiguous row `i`, and the buffers belong to the [`Mlp`],
//! so a training step allocates nothing once they have grown to the batch
//! size. [`Mlp::forward`] is the batch-of-one case of the same kernel.
//!
//! # Accumulation order
//!
//! Agents built on this module reproduce bit for bit from a seed, so the
//! order in which every sum is formed is part of the contract:
//!
//! * forward: `y[o] = b[o]`, then `y[o] += w[o][i] * x[i]` for `i` ascending;
//! * parameter gradients: `gw[o][i] += dz[o] * x[i]` and `gb[o] += dz[o]`,
//!   sample by sample in batch order;
//! * input gradients: `gx[i] = 0`, then `gx[i] += dz[o] * w[o][i]` for `o`
//!   ascending.
//!
//! That is the order a per-sample loop produces. No sum here crosses the
//! batch dimension, so the kernels walk each sum in that order and run the
//! independent dimension (samples, or input features for `gw`) through the
//! inner loop, where the compiler may vectorise it without changing a bit.
//! Every product is rounded before it is added: no `mul_add`, no fused
//! multiply-add, no reassociation. A per-sample reference implementation
//! lives in this file's tests and is compared with `f32::to_bits`.

use rand::Rng;

/// Activation function applied element-wise after a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent (used by the DDPG actor's output, range [-1, 1]).
    Tanh,
    /// No activation (used by the critic's output).
    Identity,
}

impl Activation {
    fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x,
        }
    }

    /// Derivative expressed via the *output* value `y = f(x)` (sufficient
    /// for all three functions and avoids caching pre-activations).
    fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Identity => 1.0,
        }
    }
}

/// Columns a kernel keeps in registers at once: eight 4-wide vectors, half
/// of the baseline x86-64 register file, leaving room for the operands.
const LANES: usize = 32;

/// `acc[j] += coeffs[k] * rows[k * stride + j]` for `k` ascending: every
/// column sums its terms in `k` order, one rounded product and one add per
/// term. `rows` holds one `stride`-wide row per coefficient. Columns are
/// independent, so [`LANES`] of them at a time stay in registers while `k`
/// runs; a narrower tail accumulates in memory, in the same order.
#[inline]
fn accumulate(
    acc: &mut [f32],
    coeffs: impl Iterator<Item = f32> + Clone,
    rows: &[f32],
    stride: usize,
) {
    let mut blocks = acc.chunks_exact_mut(LANES);
    let mut col = 0;
    for block in &mut blocks {
        let mut sums = [0.0f32; LANES];
        sums.copy_from_slice(block);
        for (k, c) in coeffs.clone().enumerate() {
            let row = &rows[k * stride + col..][..LANES];
            for (s, x) in sums.iter_mut().zip(row) {
                *s += c * x;
            }
        }
        block.copy_from_slice(&sums);
        col += LANES;
    }
    let tail = blocks.into_remainder();
    for (k, c) in coeffs.enumerate() {
        let row = &rows[k * stride + col..][..tail.len()];
        for (s, x) in tail.iter_mut().zip(row) {
            *s += c * x;
        }
    }
}

/// A fully-connected layer `y = f(Wx + b)`: its shape, where its parameters
/// sit in the network's flat vectors, and its output for the current batch.
#[derive(Debug, Clone)]
struct Dense {
    in_dim: usize,
    out_dim: usize,
    act: Activation,
    /// Offset of the row-major `out_dim × in_dim` weights; the `out_dim`
    /// biases follow them.
    offset: usize,
    /// `[out_dim][batch]` activations of the last forward pass.
    out: Vec<f32>,
}

impl Dense {
    fn weights(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.in_dim * self.out_dim
    }

    fn biases(&self) -> std::ops::Range<usize> {
        let start = self.weights().end;
        start..start + self.out_dim
    }

    fn forward(&mut self, params: &[f32], x: &[f32], batch: usize) {
        let (w, b) = (&params[self.weights()], &params[self.biases()]);
        for (o, y) in self.out.chunks_exact_mut(batch).enumerate() {
            y.fill(b[o]);
            let row = &w[o * self.in_dim..(o + 1) * self.in_dim];
            accumulate(y, row.iter().copied(), x, batch);
            for v in y {
                *v = self.act.apply(*v);
            }
        }
    }
}

/// A sequential multilayer perceptron.
///
/// Parameters and their gradient accumulators are two flat vectors in layer
/// order (each layer's weights, then its biases).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    params: Vec<f32>,
    grads: Vec<f32>,
    /// Columns of the activation buffers (set by [`Mlp::input_mut`]).
    batch: usize,
    /// `[in_dim][batch]` input of the last forward pass.
    input: Vec<f32>,
    // Backward scratch, reused across calls: the gradient flowing into the
    // current layer, the one flowing out of it, and the layer's input
    // transposed to sample-major.
    g: Vec<f32>,
    g_in: Vec<f32>,
    x_t: Vec<f32>,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes; all hidden layers use
    /// `hidden_act`, the last layer uses `out_act`. Weights are He-
    /// initialized for ReLU layers and Xavier-initialized otherwise.
    ///
    /// `dims = [in, h1, ..., out]` needs at least two entries.
    pub fn new(
        dims: &[usize],
        hidden_act: Activation,
        out_act: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let mut layers = Vec::with_capacity(dims.len() - 1);
        let mut params = Vec::new();
        for (i, io) in dims.windows(2).enumerate() {
            let (in_dim, out_dim) = (io[0], io[1]);
            let act = if i == dims.len() - 2 {
                out_act
            } else {
                hidden_act
            };
            let scale = match act {
                Activation::Relu => (2.0 / in_dim as f32).sqrt(),
                _ => (1.0 / in_dim as f32).sqrt(),
            };
            layers.push(Dense {
                in_dim,
                out_dim,
                act,
                offset: params.len(),
                out: Vec::new(),
            });
            params.extend((0..in_dim * out_dim).map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * scale));
            params.resize(params.len() + out_dim, 0.0);
        }
        let mut net = Self {
            layers,
            grads: vec![0.0; params.len()],
            params,
            batch: 0,
            input: Vec::new(),
            g: Vec::new(),
            g_in: Vec::new(),
            x_t: Vec::new(),
        };
        net.input_mut(1);
        net
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().unwrap().out_dim
    }

    /// Sizes the activation buffers for `batch` samples and returns the
    /// `[in_dim][batch]` input buffer for the caller to fill.
    pub fn input_mut(&mut self, batch: usize) -> &mut [f32] {
        assert!(batch > 0, "a batch holds at least one sample");
        self.batch = batch;
        self.input.resize(self.layers[0].in_dim * batch, 0.0);
        for layer in &mut self.layers {
            layer.out.resize(layer.out_dim * batch, 0.0);
        }
        &mut self.input
    }

    /// Forward pass over the batch in the input buffer; returns the
    /// `[out_dim][batch]` output, which a following [`Mlp::accumulate_grads`]
    /// or [`Mlp::input_grads`] differentiates.
    pub fn forward_batch(&mut self) -> &[f32] {
        let mut x = &self.input;
        for layer in &mut self.layers {
            layer.forward(&self.params, x, self.batch);
            x = &layer.out;
        }
        x
    }

    /// Forward pass of one sample.
    pub fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        assert_eq!(
            x.len(),
            self.in_dim(),
            "input has {} features, the network takes {}",
            x.len(),
            self.in_dim()
        );
        self.input_mut(1).copy_from_slice(x);
        self.forward_batch().to_vec()
    }

    /// Backpropagates the `[out_dim][batch]` gradient `grad_out` through the
    /// last forward pass and adds every sample's parameter gradients, in
    /// batch order, to the accumulators.
    pub fn accumulate_grads(&mut self, grad_out: &[f32]) {
        self.backprop(grad_out, true);
    }

    /// Backpropagates `grad_out` through the last forward pass to the
    /// `[in_dim][batch]` gradient with respect to the network input, leaving
    /// the parameter-gradient accumulators untouched.
    pub fn input_grads(&mut self, grad_out: &[f32]) -> &[f32] {
        self.backprop(grad_out, false);
        &self.g
    }

    /// One backward pass: parameter gradients if `for_params`, otherwise the
    /// gradient with respect to the network input.
    fn backprop(&mut self, grad_out: &[f32], for_params: bool) {
        let batch = self.batch;
        assert_eq!(
            grad_out.len(),
            self.out_dim() * batch,
            "output gradient has {} values, the last forward pass produced {} × {}",
            grad_out.len(),
            self.out_dim(),
            batch
        );
        self.g.clear();
        self.g.extend_from_slice(grad_out);
        for l in (0..self.layers.len()).rev() {
            let layer = &self.layers[l];
            let x = match l {
                0 => &self.input,
                _ => &self.layers[l - 1].out,
            };
            // `g` becomes dz, the gradient at the layer's pre-activation.
            for (g, &y) in self.g.iter_mut().zip(&layer.out) {
                *g *= layer.act.derivative_from_output(y);
            }
            if for_params {
                self.x_t.resize(x.len(), 0.0);
                for (i, xi) in x.chunks_exact(batch).enumerate() {
                    for (s, &v) in xi.iter().enumerate() {
                        self.x_t[s * layer.in_dim + i] = v;
                    }
                }
                let (gw, gb) = self.grads[layer.offset..].split_at_mut(layer.weights().len());
                for (o, dz) in self.g.chunks_exact(batch).enumerate() {
                    let row = &mut gw[o * layer.in_dim..(o + 1) * layer.in_dim];
                    accumulate(row, dz.iter().copied(), &self.x_t, layer.in_dim);
                    for d in dz {
                        gb[o] += d;
                    }
                }
            }
            if l == 0 && for_params {
                break; // nobody reads the input gradient of a parameter pass
            }
            let w = &self.params[layer.weights()];
            self.g_in.clear();
            self.g_in.resize(layer.in_dim * batch, 0.0);
            for (i, gi) in self.g_in.chunks_exact_mut(batch).enumerate() {
                let column = w[i..].iter().step_by(layer.in_dim).copied();
                accumulate(gi, column, &self.g, batch);
            }
            std::mem::swap(&mut self.g, &mut self.g_in);
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grads.fill(0.0);
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// The flat parameter vector and the matching gradient accumulators.
    pub(crate) fn params_and_grads(&mut self) -> (&mut [f32], &[f32]) {
        (&mut self.params, &self.grads)
    }

    /// Hard-copies parameters from another identically-shaped network.
    pub fn copy_from(&mut self, other: &Mlp) {
        assert_eq!(self.param_count(), other.param_count(), "shape mismatch");
        self.params.copy_from_slice(&other.params);
    }

    /// Polyak soft update: `θ ← τ·θ_src + (1−τ)·θ` (DDPG target tracking).
    pub fn soft_update_from(&mut self, other: &Mlp, tau: f32) {
        assert_eq!(self.param_count(), other.param_count(), "shape mismatch");
        for (d, s) in self.params.iter_mut().zip(&other.params) {
            *d = tau * s + (1.0 - tau) * *d;
        }
    }
}

/// The per-sample path the batched kernel replaced, kept as the reference
/// the kernel is compared with to the bit. Test code only.
#[cfg(test)]
pub(crate) mod oracle {
    use super::Mlp;

    /// Activations of one sample's forward pass: the input, then every
    /// layer's output.
    pub(crate) struct Tape(Vec<Vec<f32>>);

    impl Tape {
        pub(crate) fn output(&self) -> &[f32] {
            self.0.last().unwrap()
        }
    }

    pub(crate) fn forward(net: &Mlp, x: &[f32]) -> Tape {
        let mut tape = vec![x.to_vec()];
        for layer in &net.layers {
            let (w, b) = (&net.params[layer.weights()], &net.params[layer.biases()]);
            let x = tape.last().unwrap();
            let mut y = vec![0.0f32; layer.out_dim];
            for (o, yo) in y.iter_mut().enumerate() {
                let row = &w[o * layer.in_dim..(o + 1) * layer.in_dim];
                let mut acc = b[o];
                for (wi, xi) in row.iter().zip(x) {
                    acc += wi * xi;
                }
                *yo = layer.act.apply(acc);
            }
            tape.push(y);
        }
        Tape(tape)
    }

    /// Accumulates the sample's parameter gradients into `net` and returns
    /// the gradient with respect to its input.
    pub(crate) fn backward(net: &mut Mlp, tape: &Tape, grad_out: &[f32]) -> Vec<f32> {
        let mut grad = grad_out.to_vec();
        for (l, layer) in net.layers.iter().enumerate().rev() {
            let (x, y) = (&tape.0[l], &tape.0[l + 1]);
            let w = &net.params[layer.weights()];
            let (gw, gb) = net.grads[layer.offset..].split_at_mut(w.len());
            let mut grad_in = vec![0.0f32; layer.in_dim];
            for o in 0..layer.out_dim {
                let dz = grad[o] * layer.act.derivative_from_output(y[o]);
                gb[o] += dz;
                for i in 0..layer.in_dim {
                    gw[o * layer.in_dim + i] += dz * x[i];
                    grad_in[i] += dz * w[o * layer.in_dim + i];
                }
            }
            grad = grad_in;
        }
        grad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(17)
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Row `b` of a sample-major matrix from a feature-major one.
    fn column(m: &[f32], batch: usize, b: usize) -> Vec<f32> {
        m.iter().skip(b).step_by(batch).copied().collect()
    }

    #[test]
    fn batched_kernel_equals_the_per_sample_oracle_to_the_bit() {
        const DIMS: [usize; 7] = [1, 2, 7, 16, 33, 64, 130];
        const ACTS: [Activation; 3] = [Activation::Relu, Activation::Tanh, Activation::Identity];
        let mut r = StdRng::seed_from_u64(0xB17);
        for case in 0..120 {
            let depth = r.gen_range(2..=4usize);
            // Every case gets one awkward width; the rest are drawn freely.
            let mut dims: Vec<usize> = (0..depth)
                .map(|_| DIMS[r.gen_range(0..DIMS.len())])
                .collect();
            dims[case % depth] = [1, 7, 33, 130][case % 4];
            let batch = 1 + case % 40;
            let (hidden, out) = (ACTS[case % 3], ACTS[(case / 3) % 3]);
            let mut net = Mlp::new(&dims, hidden, out, &mut r);
            for b in net.params.iter_mut().step_by(3) {
                *b += 0.05; // biases start at zero; give some of everything a value
            }
            let (n_in, n_out) = (net.in_dim(), net.out_dim());
            // Inputs with exact zeros and both signs, as level states have.
            let x: Vec<f32> = (0..n_in * batch)
                .map(|_| match r.gen_range(0..4u32) {
                    0 => 0.0,
                    _ => r.gen::<f32>() * 2.0 - 1.0,
                })
                .collect();
            let grad_out: Vec<f32> = (0..n_out * batch).map(|_| r.gen::<f32>() - 0.5).collect();
            let what = format!("case {case}: dims {dims:?}, batch {batch}, {hidden:?}/{out:?}");

            let mut reference = net.clone();
            let mut want_y = vec![0.0; n_out * batch];
            let mut want_gx = vec![0.0; n_in * batch];
            for b in 0..batch {
                let tape = oracle::forward(&reference, &column(&x, batch, b));
                let gx = oracle::backward(&mut reference, &tape, &column(&grad_out, batch, b));
                for (o, y) in tape.output().iter().enumerate() {
                    want_y[o * batch + b] = *y;
                }
                for (i, g) in gx.iter().enumerate() {
                    want_gx[i * batch + b] = *g;
                }
            }

            net.input_mut(batch).copy_from_slice(&x);
            assert_eq!(bits(net.forward_batch()), bits(&want_y), "outputs, {what}");
            assert_eq!(
                bits(net.input_grads(&grad_out)),
                bits(&want_gx),
                "input gradients, {what}"
            );
            assert!(
                net.grads.iter().all(|g| g.to_bits() == 0),
                "input_grads touched the accumulators, {what}"
            );
            // Accumulate twice, as the oracle would over two batches.
            net.accumulate_grads(&grad_out);
            assert_eq!(bits(&net.grads), bits(&reference.grads), "gw/gb, {what}");
            for b in 0..batch {
                let tape = oracle::forward(&reference, &column(&x, batch, b));
                oracle::backward(&mut reference, &tape, &column(&grad_out, batch, b));
            }
            net.accumulate_grads(&grad_out);
            assert_eq!(
                bits(&net.grads),
                bits(&reference.grads),
                "gw/gb second pass, {what}"
            );
        }
    }

    #[test]
    fn single_sample_forward_is_the_batch_of_one() {
        let mut net = Mlp::new(&[5, 9, 3], Activation::Relu, Activation::Tanh, &mut rng());
        let x = [0.3, -0.1, 0.0, 0.8, -0.6];
        let want = bits(oracle::forward(&net, &x).output());
        assert_eq!(bits(&net.forward(&x)), want);
        // A wider batch in between must not leak into the next single sample.
        net.input_mut(6).fill(0.25);
        net.forward_batch();
        assert_eq!(bits(&net.forward(&x)), want);
    }

    #[test]
    #[should_panic(expected = "input has 2 features, the network takes 3")]
    fn forward_rejects_a_short_input_in_every_build() {
        let mut net = Mlp::new(
            &[3, 4, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng(),
        );
        net.forward(&[0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "output gradient has 3 values, the last forward pass produced 1 × 4")]
    fn backward_rejects_a_gradient_of_the_wrong_batch() {
        let mut net = Mlp::new(
            &[3, 4, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng(),
        );
        net.input_mut(4).fill(0.5);
        net.forward_batch();
        net.accumulate_grads(&[1.0, 1.0, 1.0]);
    }

    #[test]
    fn identity_single_layer_is_affine() {
        let mut net = Mlp::new(&[2, 1], Activation::Relu, Activation::Identity, &mut rng());
        // Overwrite parameters for a hand-computed check: y = 2a - 3b + 0.5.
        net.params = vec![2.0, -3.0, 0.5];
        let y = net.forward(&[1.0, 1.0]);
        assert!((y[0] - (-0.5)).abs() < 1e-6);
        let y = net.forward(&[2.0, 0.0]);
        assert!((y[0] - 4.5).abs() < 1e-6);
    }

    #[test]
    fn gradient_check_tanh_network() {
        // Numerical vs analytic gradient on a small tanh net.
        let mut net = Mlp::new(
            &[3, 5, 2],
            Activation::Tanh,
            Activation::Identity,
            &mut rng(),
        );
        let x = [0.3f32, -0.7, 0.9];
        // Loss = sum(y); dL/dy = 1.
        let _ = net.forward(&x);
        net.zero_grad();
        net.accumulate_grads(&[1.0, 1.0]);
        let analytic = net.grads.clone();

        let eps = 1e-3f32;
        let mut max_err = 0f32;
        // Numerically perturb each parameter.
        for (i, &want) in analytic.iter().enumerate() {
            let at = |net: &mut Mlp, delta: f32| {
                net.params[i] += delta;
                net.forward(&x).iter().sum::<f32>()
            };
            let plus = at(&mut net, eps);
            let minus = at(&mut net, -2.0 * eps);
            at(&mut net, eps);
            let numeric = (plus - minus) / (2.0 * eps);
            max_err = max_err.max((numeric - want).abs());
        }
        assert!(max_err < 1e-2, "gradient check failed: max err {max_err}");
    }

    #[test]
    fn input_gradient_check() {
        let mut net = Mlp::new(
            &[2, 4, 1],
            Activation::Tanh,
            Activation::Identity,
            &mut rng(),
        );
        let x = [0.5f32, -0.25];
        let _ = net.forward(&x);
        let gin = net.input_grads(&[1.0]).to_vec();
        let eps = 1e-3f32;
        for i in 0..2 {
            let mut xp = x;
            xp[i] += eps;
            let plus = net.forward(&xp)[0];
            xp[i] -= 2.0 * eps;
            let minus = net.forward(&xp)[0];
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (numeric - gin[i]).abs() < 1e-2,
                "input grad {i}: numeric {numeric} vs analytic {}",
                gin[i]
            );
        }
    }

    #[test]
    fn sgd_fits_linear_function() {
        // y = 2x - 1 learned by plain gradient steps (no Adam here).
        let mut net = Mlp::new(
            &[1, 8, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng(),
        );
        let mut r = rng();
        let lr = 0.01f32;
        for _ in 0..3000 {
            let x = r.gen::<f32>() * 2.0 - 1.0;
            let target = 2.0 * x - 1.0;
            let y = net.forward(&[x])[0];
            net.zero_grad();
            net.accumulate_grads(&[2.0 * (y - target)]);
            let (params, grads) = net.params_and_grads();
            for (p, g) in params.iter_mut().zip(grads) {
                *p -= lr * g;
            }
        }
        let mut mse = 0.0;
        for i in 0..20 {
            let x = -1.0 + i as f32 / 10.0;
            let y = net.forward(&[x])[0];
            mse += (y - (2.0 * x - 1.0)).powi(2);
        }
        mse /= 20.0;
        assert!(mse < 0.05, "failed to fit linear function: mse {mse}");
    }

    #[test]
    fn copy_and_soft_update() {
        let mut a = Mlp::new(
            &[2, 3, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng(),
        );
        let mut b = Mlp::new(
            &[2, 3, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng(),
        );
        b.copy_from(&a);
        let x = [0.3, 0.4];
        assert_eq!(a.forward(&x), b.forward(&x));
        // Perturb a, soft-update b toward a.
        a.params.iter_mut().for_each(|p| *p += 1.0);
        let before = b.forward(&x)[0];
        b.soft_update_from(&a, 0.5);
        let after = b.forward(&x)[0];
        assert_ne!(before, after);
        // τ = 1 is a hard copy.
        b.soft_update_from(&a, 1.0);
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn param_count_matches_architecture() {
        let net = Mlp::new(
            &[4, 128, 128, 128, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng(),
        );
        let expect = (4 * 128 + 128) + (128 * 128 + 128) * 2 + (128 + 1);
        assert_eq!(net.param_count(), expect);
    }

    #[test]
    fn tanh_output_is_bounded() {
        let mut net = Mlp::new(&[3, 16, 2], Activation::Relu, Activation::Tanh, &mut rng());
        for i in 0..100 {
            let x = [i as f32, -(i as f32) * 3.0, 100.0];
            for y in net.forward(&x) {
                assert!((-1.0..=1.0).contains(&y));
            }
        }
    }
}

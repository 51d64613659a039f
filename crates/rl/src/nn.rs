//! Multilayer perceptrons with manual backpropagation, one batch at a time.
//!
//! A network processes a whole batch per call. Activations are stored
//! **feature-major**: a `[dim][batch]` buffer holds feature `i` of every
//! sample in the contiguous row `i`, and the buffers belong to the [`Mlp`],
//! so a training step allocates nothing once they have grown to the batch
//! size. `Mlp::forward` is the batch-of-one case of the same kernel.
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
//! batch dimension, so the kernel walks each sum in that order and runs the
//! independent dimension (samples, or input features for `gw`) through the
//! inner loop, where the compiler may vectorise it without changing a bit.
//! Every product is rounded before it is added: no `mul_add`, no fused
//! multiply-add, no reassociation. A per-sample reference implementation
//! lives in this file's tests and is compared with `f32::to_bits`.
//!
//! # One kernel, three widths
//!
//! All three passes are one register-tiled kernel, `tiled::<T, L>`: it
//! keeps `T` accumulator rows × `L = 32` columns in registers, each row with
//! its own coefficients, so every slice it loads from the shared matrix is
//! used `T` times. [`Mlp::new`] picks the width once from what the CPU
//! reports: AVX-512 (`T = 4`), AVX2 (`T = 2`) or the portable body
//! (`T = 1`, the only one off x86). The three are the same Rust, with no
//! intrinsics, compiled under different target features, and they give the
//! same bits: a vector lane only ever holds an independent column, the
//! kernel writes a multiply and then an add, which Rust never fuses into
//! one instruction, and an IEEE `f32` multiply or add rounds the same in a
//! 4-, 8- or 16-wide register as alone. The tests run every width the CPU
//! offers against the oracle.

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

    /// Multiplies every gradient `g[i]` by the derivative at the output
    /// `out[i]`: the products `derivative_from_output` gives, with the
    /// `match` taken once per layer instead of once per element.
    fn scale_by_derivative(self, g: &mut [f32], out: &[f32]) {
        let pairs = g.iter_mut().zip(out);
        match self {
            Activation::Relu => pairs.for_each(|(g, &y)| *g *= if y > 0.0 { 1.0 } else { 0.0 }),
            Activation::Tanh => pairs.for_each(|(g, &y)| *g *= 1.0 - y * y),
            Activation::Identity => pairs.for_each(|(g, _)| *g *= 1.0),
        }
    }

    /// Derivative expressed via the *output* value `y = f(x)` (sufficient
    /// for all three functions and avoids caching pre-activations). The
    /// oracle's per-element form of `scale_by_derivative`.
    #[cfg(test)]
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

/// Columns a kernel keeps in registers per accumulator row: two AVX-512,
/// four AVX2 or eight SSE vectors.
const LANES: usize = 32;

/// The instruction set the kernel runs at; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    Portable,
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx2,
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx512,
}

impl Tier {
    /// The widest tier this CPU runs.
    fn detect() -> Self {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if is_x86_feature_detected!("avx512f") {
            return Tier::Avx512;
        } else if is_x86_feature_detected!("avx2") {
            return Tier::Avx2;
        }
        Tier::Portable
    }

    /// [`tiled`] at this tier's width. (Off x86 the block holds no unsafe
    /// call, hence `unused_unsafe`.)
    #[allow(unsafe_code, unused_unsafe)]
    fn accumulate(self, acc: &mut [f32], w: usize, c: Coeffs, x: &[f32]) {
        // SAFETY: an `Mlp`'s tier is the one `detect` found on this CPU, or
        // one the test-only `oracle::force_tier` checked this CPU runs.
        unsafe {
            match self {
                Tier::Portable => tiled::<1, LANES>(acc, w, c, x),
                #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                Tier::Avx2 => avx2(acc, w, c, x),
                #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                Tier::Avx512 => avx512(acc, w, c, x),
            }
        }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
fn avx512(acc: &mut [f32], w: usize, c: Coeffs, x: &[f32]) {
    tiled::<4, LANES>(acc, w, c, x)
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn avx2(acc: &mut [f32], w: usize, c: Coeffs, x: &[f32]) {
    tiled::<2, LANES>(acc, w, c, x)
}

/// The coefficients of a product, `c(r, k) = .0[r * .1 + k * .2]`: the
/// weight of term `k` in accumulator row `r`.
#[derive(Clone, Copy)]
struct Coeffs<'a>(&'a [f32], usize, usize);

/// `acc[r][j] += c(r, k) * x[k][j]` over the `w`-wide rows of `acc` and `x`,
/// `k` ascending: every element sums its terms in `k` order, one rounded
/// product and one add per term. `T` rows at a time share each slice of
/// `x` they load; rows past the last whole tile run one at a time.
#[inline(always)]
fn tiled<const T: usize, const L: usize>(acc: &mut [f32], w: usize, c: Coeffs, x: &[f32]) {
    let whole = acc.len() / w / T * T;
    let (tiles, rest) = acc.split_at_mut(whole * w);
    for (i, tile) in tiles.chunks_exact_mut(T * w).enumerate() {
        columns::<T, L>(tile, w, Coeffs(&c.0[i * T * c.1..], c.1, c.2), x);
    }
    for (i, row) in rest.chunks_exact_mut(w).enumerate() {
        columns::<1, L>(row, w, Coeffs(&c.0[(whole + i) * c.1..], c.1, c.2), x);
    }
}

/// The `T` rows of `acc`, `L` columns at a time while that many are left,
/// then one at a time.
#[inline(always)]
fn columns<const T: usize, const L: usize>(acc: &mut [f32], w: usize, c: Coeffs, x: &[f32]) {
    let whole = w / L * L;
    for j in (0..whole).step_by(L) {
        block::<T, L>(&mut acc[j..], w, c, &x[j..]);
    }
    for j in whole..w {
        block::<T, 1>(&mut acc[j..], w, c, &x[j..]);
    }
}

/// The first `N` columns of the `T` rows of `acc`, held in registers while
/// every term is added.
#[inline(always)]
fn block<const T: usize, const N: usize>(acc: &mut [f32], w: usize, c: Coeffs, x: &[f32]) {
    let mut sums = [[0.0f32; N]; T];
    for (t, s) in sums.iter_mut().enumerate() {
        s.copy_from_slice(&acc[t * w..][..N]);
    }
    for (k, x) in x.chunks(w).enumerate() {
        for (t, s) in sums.iter_mut().enumerate() {
            let c = c.0[t * c.1 + k * c.2];
            for (s, x) in s.iter_mut().zip(&x[..N]) {
                *s += c * x;
            }
        }
    }
    for (t, s) in sums.iter().enumerate() {
        acc[t * w..][..N].copy_from_slice(s);
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

    fn forward(&mut self, tier: Tier, params: &[f32], x: &[f32], batch: usize) {
        let (w, b) = (&params[self.weights()], &params[self.biases()]);
        for (y, &bias) in self.out.chunks_exact_mut(batch).zip(b) {
            y.fill(bias);
        }
        tier.accumulate(&mut self.out, batch, Coeffs(w, self.in_dim, 1), x);
        for v in &mut self.out {
            *v = self.act.apply(*v);
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
    /// The kernel width, detected once per network.
    tier: Tier,
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
            tier: Tier::detect(),
        };
        net.input_mut(1);
        net
    }

    /// Input dimension.
    pub(crate) fn in_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    /// Output dimension.
    pub(crate) fn out_dim(&self) -> usize {
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
            layer.forward(self.tier, &self.params, x, self.batch);
            x = &layer.out;
        }
        x
    }

    /// Forward pass of one sample.
    pub(crate) fn forward(&mut self, x: &[f32]) -> Vec<f32> {
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
            layer.act.scale_by_derivative(&mut self.g, &layer.out);
            if for_params {
                self.x_t.resize(x.len(), 0.0);
                for (i, xi) in x.chunks_exact(batch).enumerate() {
                    for (s, &v) in xi.iter().enumerate() {
                        self.x_t[s * layer.in_dim + i] = v;
                    }
                }
                let (gw, gb) = self.grads[layer.offset..].split_at_mut(layer.weights().len());
                let dz = Coeffs(&self.g, batch, 1);
                self.tier.accumulate(gw, layer.in_dim, dz, &self.x_t);
                for (gb, dz) in gb.iter_mut().zip(self.g.chunks_exact(batch)) {
                    for d in dz {
                        *gb += d;
                    }
                }
            }
            if l == 0 && for_params {
                break; // nobody reads the input gradient of a parameter pass
            }
            self.g_in.clear();
            self.g_in.resize(layer.in_dim * batch, 0.0);
            let w_t = Coeffs(&self.params[layer.weights()], 1, layer.in_dim);
            self.tier.accumulate(&mut self.g_in, batch, w_t, &self.g);
            std::mem::swap(&mut self.g, &mut self.g_in);
        }
    }

    /// Clears accumulated gradients.
    pub(crate) fn zero_grad(&mut self) {
        self.grads.fill(0.0);
    }

    /// Total number of trainable parameters.
    pub(crate) fn param_count(&self) -> usize {
        self.params.len()
    }

    /// The flat parameter vector and the matching gradient accumulators.
    pub(crate) fn params_and_grads(&mut self) -> (&mut [f32], &[f32]) {
        (&mut self.params, &self.grads)
    }

    /// Hard-copies parameters from another identically-shaped network.
    pub(crate) fn copy_from(&mut self, other: &Mlp) {
        assert_eq!(self.param_count(), other.param_count(), "shape mismatch");
        self.params.copy_from_slice(&other.params);
    }

    /// Polyak soft update: `θ ← τ·θ_src + (1−τ)·θ` (DDPG target tracking).
    pub(crate) fn soft_update_from(&mut self, other: &Mlp, tau: f32) {
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
    use super::{Mlp, Tier};

    /// Every kernel tier this CPU runs, widest last. On x86-64 that includes
    /// AVX2, which every CI runner has, and `Mlp::new` must pick the widest:
    /// a detection that quietly falls back to the portable path fails here.
    pub(crate) fn tiers() -> Vec<Tier> {
        #[allow(unused_mut)]
        let mut tiers = vec![Tier::Portable];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            if is_x86_feature_detected!("avx2") {
                tiers.push(Tier::Avx2);
            }
            if is_x86_feature_detected!("avx512f") {
                tiers.push(Tier::Avx512);
            }
        }
        #[cfg(target_arch = "x86_64")]
        assert!(tiers.contains(&Tier::Avx2), "AVX2 was not detected");
        assert_eq!(Some(&Tier::detect()), tiers.last());
        tiers
    }

    /// Makes `net` run at `tier`, which must be one this CPU runs.
    pub(crate) fn force_tier(net: &mut Mlp, tier: Tier) {
        assert!(tiers().contains(&tier), "this CPU does not run {tier:?}");
        net.tier = tier;
    }

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
        let tiers = oracle::tiers();
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
            let want_once = bits(&reference.grads);
            for b in 0..batch {
                let tape = oracle::forward(&reference, &column(&x, batch, b));
                oracle::backward(&mut reference, &tape, &column(&grad_out, batch, b));
            }
            let want_twice = bits(&reference.grads);

            for &tier in &tiers {
                let what = format!(
                    "{tier:?}, case {case}: dims {dims:?}, batch {batch}, {hidden:?}/{out:?}"
                );
                let mut net = net.clone();
                oracle::force_tier(&mut net, tier);
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
                // Accumulate twice, as the oracle did over two batches.
                net.accumulate_grads(&grad_out);
                assert_eq!(bits(&net.grads), want_once, "gw/gb, {what}");
                net.accumulate_grads(&grad_out);
                assert_eq!(bits(&net.grads), want_twice, "gw/gb second pass, {what}");
            }
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

//! Reinforcement-learning substrate for the RusKey reproduction.
//!
//! The paper implements its tuning model Lerp with PyTorch DDPG (§7:
//! three-layer fully-connected networks, 128 neurons per layer, ReLU). The
//! Rust RL ecosystem is thin, so this crate implements the whole stack from
//! scratch, exactly at the scale the paper needs:
//!
//! * [`nn`] — multilayer perceptrons with manual backpropagation over a
//!   whole batch per call, including input gradients (required by DDPG's
//!   actor update, which differentiates the critic with respect to the
//!   action);
//! * [`adam`] — the Adam optimizer, whose moments are never subnormal;
//! * [`replay`] — a ring replay buffer with uniform sampling;
//! * [`noise`] — Ornstein–Uhlenbeck exploration noise;
//! * [`ddpg`] — Deep Deterministic Policy Gradient (Lillicrap et al., 2015):
//!   actor–critic with target networks and soft updates — the paper's one
//!   learner (§5.1.4 argues it over DQN, which nothing here evaluates).
//!
//! Everything is deterministic given a seed, so experiments reproduce
//! bit-for-bit — and stay so across kernel rewrites: [`nn`] fixes the order
//! in which every sum is accumulated (ascending input index forward, batch
//! order for parameter gradients, ascending output index for input
//! gradients) and rounds every product before adding it (no fused
//! multiply-add), so a batched, vectorised kernel yields the same bits as a
//! per-sample scalar loop. There is one training path: an agent's
//! `train_step` packs its sampled batch feature-major into buffers it keeps,
//! and runs batched forward and backward passes over them without
//! allocating.
//!
//! Those passes are one register-tiled kernel, compiled three times: for
//! AVX-512, for AVX2 and portably. Each [`Mlp`] picks the widest one the
//! CPU has when it is built; nothing outside the crate can choose, and the
//! choice changes no bit (the [`nn`] docs say why, its tests check every
//! tier the CPU runs against the per-sample oracle). Calling a wide kernel
//! is the workspace's one `unsafe` block, hence `deny` rather than
//! `forbid` here.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod adam;
pub mod ddpg;
pub mod nn;
pub mod noise;
pub mod replay;

pub use adam::Adam;
pub use ddpg::{Ddpg, DdpgConfig, TrainMetrics};
pub use nn::{Activation, Mlp};
pub use noise::OuNoise;
pub use replay::{ReplayBuffer, Transition};

//! Golden trajectories: the agents' training arithmetic, pinned to the bit.
//!
//! Every constant below was recorded by running this file, unchanged,
//! against the per-sample training path that preceded the batched kernel
//! (commit d641e45). The batched kernel performs the same sequence of `f32`
//! additions and multiplications per value, so the hashes must never move;
//! a kernel that reassociates a sum, fuses a multiply-add, or a moment
//! flush that becomes visible changes them. The DDPG runs are long enough
//! (≥ 1600 steps) for ReLU-dead units' Adam moments to decay through the
//! subnormal range, so they also pin that flushing those moments to zero
//! alters no decision.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ruskey_rl::{Ddpg, DdpgConfig, Transition};

/// FNV-1a over the bit patterns fed to it.
struct BitHash(u64);

impl BitHash {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, x: f32) {
        for byte in x.to_bits().to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Drives `missions` tuning rounds of `steps` gradient steps each, the way
/// `Lerp::tune` does: observe the last round's transition, train, then pick
/// the next exploratory action. States drift with the round so replayed
/// batches mix regimes; every 17th transition is terminal so both target
/// branches run.
fn ddpg_trajectory(cfg: DdpgConfig, missions: usize, steps: usize) -> (u64, Vec<u32>) {
    let (sd, ad) = (cfg.state_dim, cfg.action_dim);
    let mut agent = Ddpg::new(cfg);
    let mut env = StdRng::seed_from_u64(0x5EED);
    let mut hash = BitHash::new();
    let mut prev: Option<(Vec<f32>, Vec<f32>)> = None;
    for m in 0..missions {
        let phase = (m / 40) as f32 * 0.15;
        let state: Vec<f32> = (0..sd)
            .map(|i| {
                if i % 3 == 2 {
                    0.0 // a feature that is often exactly zero, as level states have
                } else {
                    (env.gen::<f32>() * 0.8 + phase).min(1.0)
                }
            })
            .collect();
        if let Some((s, a)) = prev.take() {
            let cost: f32 = a.iter().map(|x| (x - 0.3 + phase).abs()).sum();
            agent.observe(Transition {
                reward: -cost - s[0] * 0.5,
                state: s,
                action: a,
                next_state: state.clone(),
                done: m % 17 == 0,
            });
            for _ in 0..steps {
                if let Some(tm) = agent.train_step() {
                    hash.feed(tm.critic_loss);
                    hash.feed(tm.actor_loss);
                }
            }
        }
        let action = if env.gen::<f32>() < 0.2 {
            (0..ad).map(|_| env.gen::<f32>() * 1.6 - 0.8).collect()
        } else {
            agent.act_explore(&state)
        };
        prev = Some((state, action));
    }
    let mut acts = Vec::new();
    for k in 0..4 {
        let probe: Vec<f32> = (0..sd).map(|i| ((i + k) % 5) as f32 * 0.2).collect();
        acts.extend(agent.act(&probe).iter().map(|a| a.to_bits()));
    }
    (hash.0, acts)
}

#[test]
fn ddpg_paper_dimensions_trajectory_is_pinned() {
    // Lerp's agent: 6 state features, one action, 3×128, batch 32, warm-up 16.
    let cfg = DdpgConfig {
        warmup: 16,
        ..DdpgConfig::paper_default(6, 1)
    };
    let (hash, acts) = ddpg_trajectory(cfg, 210, 8);
    assert_eq!(
        (hash, acts),
        (GOLDEN_PAPER_HASH, GOLDEN_PAPER_ACTS.to_vec())
    );
}

#[test]
fn ddpg_odd_dimensions_trajectory_is_pinned() {
    // Nothing here is a multiple of a vector width: 13 features, 3 actions,
    // hidden 33/7, batch 19, bootstrapped targets.
    let cfg = DdpgConfig {
        hidden: vec![33, 7],
        batch_size: 19,
        warmup: 5,
        seed: 7,
        ..DdpgConfig::paper_default(13, 3)
    };
    let (hash, acts) = ddpg_trajectory(cfg, 400, 5);
    assert_eq!((hash, acts), (GOLDEN_ODD_HASH, GOLDEN_ODD_ACTS.to_vec()));
}

const GOLDEN_PAPER_HASH: u64 = 16862232686837166584;
const GOLDEN_PAPER_ACTS: [u32; 4] = [1048166006, 1039470255, 3178085276, 1030596974];
const GOLDEN_ODD_HASH: u64 = 4495982802356295605;
const GOLDEN_ODD_ACTS: [u32; 12] = [
    3197880864, 3186900847, 1021858084, 1030960704, 3180968666, 1030732277, 3191695470, 3176825751,
    1034960645, 1048181240, 3205541148, 3197256637,
];

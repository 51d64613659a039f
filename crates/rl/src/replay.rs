//! Experience replay.
//!
//! RusKey stores "experience samples" — quadruples of (state before, action,
//! state after, reward) — in a replay buffer from which the actor-critic
//! network trains (paper §3.1). This is the standard DDPG ring buffer with
//! uniform sampling.

use rand::Rng;

/// One experience sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// State before the action.
    pub state: Vec<f32>,
    /// Action taken.
    pub action: Vec<f32>,
    /// Observed reward.
    pub reward: f32,
    /// State after the action (and the subsequent mission).
    pub next_state: Vec<f32>,
    /// Whether the episode terminated (always `false` for continuing
    /// tuning, but supported for generality).
    pub done: bool,
}

/// Fixed-capacity ring buffer of transitions.
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    capacity: usize,
    buf: Vec<Transition>,
    next: usize,
}

impl ReplayBuffer {
    /// Creates a buffer holding up to `capacity` transitions.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            capacity,
            buf: Vec::with_capacity(capacity.min(4096)),
            next: 0,
        }
    }

    /// Number of stored transitions.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Inserts a transition, overwriting the oldest once full.
    pub(crate) fn push(&mut self, t: Transition) {
        if self.buf.len() < self.capacity {
            self.buf.push(t);
        } else {
            self.buf[self.next] = t;
        }
        self.next = (self.next + 1) % self.capacity;
    }

    /// Uniformly samples `k` transitions (with replacement); each index is
    /// drawn from `rng` as the iterator advances.
    pub(crate) fn sample<'a>(
        &'a self,
        rng: &'a mut impl Rng,
        k: usize,
    ) -> impl Iterator<Item = &'a Transition> {
        assert!(!self.buf.is_empty(), "cannot sample an empty buffer");
        (0..k).map(move |_| &self.buf[rng.gen_range(0..self.buf.len())])
    }

    /// Drops all stored transitions (used when the workload shifts and old
    /// experience no longer reflects the environment).
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl ReplayBuffer {
        /// True when nothing is stored.
        fn is_empty(&self) -> bool {
            self.buf.is_empty()
        }
    }

    fn t(r: f32) -> Transition {
        Transition {
            state: vec![r],
            action: vec![0.0],
            reward: r,
            next_state: vec![r + 1.0],
            done: false,
        }
    }

    #[test]
    fn push_grows_then_wraps() {
        let mut rb = ReplayBuffer::new(3);
        for i in 0..3 {
            rb.push(t(i as f32));
        }
        assert_eq!(rb.len(), 3);
        rb.push(t(99.0)); // overwrites the oldest (reward 0)
        assert_eq!(rb.len(), 3);
        let rewards: Vec<f32> = rb.buf.iter().map(|x| x.reward).collect();
        assert!(rewards.contains(&99.0));
        assert!(!rewards.contains(&0.0));
    }

    #[test]
    fn sample_stays_in_bounds() {
        let mut rb = ReplayBuffer::new(10);
        for i in 0..5 {
            rb.push(t(i as f32));
        }
        let mut rng = StdRng::seed_from_u64(1);
        let s: Vec<&Transition> = rb.sample(&mut rng, 32).collect();
        assert_eq!(s.len(), 32);
        for x in s {
            assert!(x.reward >= 0.0 && x.reward < 5.0);
        }
    }

    #[test]
    fn clear_resets() {
        let mut rb = ReplayBuffer::new(4);
        rb.push(t(1.0));
        rb.clear();
        assert!(rb.is_empty());
        rb.push(t(2.0));
        assert_eq!(rb.len(), 1);
    }

    #[test]
    #[should_panic(expected = "empty buffer")]
    fn sampling_empty_panics() {
        let rb = ReplayBuffer::new(4);
        let mut rng = StdRng::seed_from_u64(1);
        let _ = rb.sample(&mut rng, 1);
    }
}

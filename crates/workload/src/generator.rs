//! Deterministic operation-stream generation.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dist::{KeyDistribution, KeySampler};
use crate::ops::{OpMix, Operation};

/// Encodes a key id as a fixed-width big-endian key so lexicographic order
/// equals numeric order. `key_len` must be at least 8.
pub fn encode_key(id: u64, key_len: usize) -> Bytes {
    assert!(key_len >= 8, "key_len must be >= 8");
    let mut k = vec![0u8; key_len];
    let off = key_len - 8;
    k[off..].copy_from_slice(&id.to_be_bytes());
    Bytes::from(k)
}

/// Decodes a key produced by [`encode_key`].
pub fn decode_key(key: &[u8]) -> u64 {
    let off = key.len() - 8;
    u64::from_be_bytes(key[off..].try_into().expect("key too short"))
}

/// Generates the `(key, value)` pairs used to bulk-load the store before an
/// experiment (the paper loads 100 M random entries; we scale `n` down).
pub fn bulk_load_pairs(n: u64, key_len: usize, value_len: usize, seed: u64) -> Vec<(Bytes, Bytes)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|id| (encode_key(id, key_len), random_value(&mut rng, value_len)))
        .collect()
}

fn random_value(rng: &mut StdRng, len: usize) -> Bytes {
    let mut v = vec![0u8; len];
    rng.fill(v.as_mut_slice());
    Bytes::from(v)
}

/// Static description of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Number of distinct keys (`[0, key_space)`).
    pub key_space: u64,
    /// Encoded key length in bytes (≥ 8; paper: 128, scaled default: 16).
    pub key_len: usize,
    /// Value length in bytes (paper: 896, scaled default: 112).
    pub value_len: usize,
    /// Key popularity distribution.
    pub distribution: KeyDistribution,
    /// Operation mix.
    pub mix: OpMix,
    /// Maximum results per range scan.
    pub scan_limit: usize,
    /// Key-id span covered by a range scan.
    pub scan_span: u64,
    /// Fraction of lookups that target keys outside the key space
    /// (zero-result lookups, exercising the Bloom filters).
    pub zero_result_fraction: f64,
}

impl WorkloadSpec {
    /// Scaled-down defaults: 16-byte keys, 112-byte values, uniform keys,
    /// balanced mix.
    pub fn scaled_default(key_space: u64) -> Self {
        Self {
            key_space,
            key_len: 16,
            value_len: 112,
            distribution: KeyDistribution::Uniform,
            mix: OpMix::balanced(),
            scan_limit: 100,
            scan_span: 100,
            zero_result_fraction: 0.0,
        }
    }

    /// Replaces the operation mix.
    pub fn with_mix(mut self, mix: OpMix) -> Self {
        self.mix = mix;
        self
    }

    /// Replaces the key distribution.
    pub fn with_distribution(mut self, d: KeyDistribution) -> Self {
        self.distribution = d;
        self
    }
}

/// An infinite, deterministic stream of operations.
pub struct OpGenerator {
    spec: WorkloadSpec,
    sampler: KeySampler,
    rng: StdRng,
}

impl OpGenerator {
    /// Creates a generator with a fixed seed (same seed ⇒ same stream).
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        spec.mix.validate().expect("invalid op mix");
        let sampler = KeySampler::new(spec.key_space, spec.distribution.clone());
        Self {
            spec,
            sampler,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The spec this generator draws from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Swaps the operation mix mid-stream (dynamic workloads).
    pub fn set_mix(&mut self, mix: OpMix) {
        mix.validate().expect("invalid op mix");
        self.spec.mix = mix;
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> Operation {
        let mix = self.spec.mix;
        let r: f64 = self.rng.gen();
        if r < mix.lookup {
            let id = if self.spec.zero_result_fraction > 0.0
                && self.rng.gen::<f64>() < self.spec.zero_result_fraction
            {
                // Outside the loaded key space: guaranteed zero-result.
                self.spec.key_space + self.rng.gen_range(0..self.spec.key_space.max(1))
            } else {
                self.sampler.sample(&mut self.rng)
            };
            Operation::Get {
                key: encode_key(id, self.spec.key_len),
            }
        } else if r < mix.lookup + mix.update {
            let id = self.sampler.sample(&mut self.rng);
            Operation::Put {
                key: encode_key(id, self.spec.key_len),
                value: random_value(&mut self.rng, self.spec.value_len),
            }
        } else if r < mix.lookup + mix.update + mix.delete {
            let id = self.sampler.sample(&mut self.rng);
            Operation::Delete {
                key: encode_key(id, self.spec.key_len),
            }
        } else {
            let start = self.sampler.sample(&mut self.rng);
            let end = start + self.spec.scan_span;
            Operation::Scan {
                start: encode_key(start, self.spec.key_len),
                end: encode_key(end, self.spec.key_len),
                limit: self.spec.scan_limit,
            }
        }
    }

    /// Draws the next `n` operations.
    pub fn take_ops(&mut self, n: usize) -> Vec<Operation> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

impl Iterator for OpGenerator {
    type Item = Operation;

    fn next(&mut self) -> Option<Operation> {
        Some(self.next_op())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip_preserves_order() {
        let a = encode_key(5, 16);
        let b = encode_key(1000, 16);
        assert!(a < b);
        assert_eq!(decode_key(&a), 5);
        assert_eq!(decode_key(&b), 1000);
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn bulk_load_is_deterministic() {
        let p1 = bulk_load_pairs(100, 16, 32, 7);
        let p2 = bulk_load_pairs(100, 16, 32, 7);
        assert_eq!(p1, p2);
        let p3 = bulk_load_pairs(100, 16, 32, 8);
        assert_ne!(p1, p3);
        assert_eq!(p1.len(), 100);
        assert_eq!(p1[0].1.len(), 32);
    }

    #[test]
    fn generator_is_deterministic() {
        let spec = WorkloadSpec::scaled_default(1000);
        let a: Vec<Operation> = OpGenerator::new(spec.clone(), 3).take_ops(50);
        let b: Vec<Operation> = OpGenerator::new(spec, 3).take_ops(50);
        assert_eq!(a, b);
    }

    #[test]
    fn mix_fractions_are_respected() {
        let spec = WorkloadSpec::scaled_default(1000).with_mix(OpMix::read_heavy());
        let mut g = OpGenerator::new(spec, 11);
        let ops = g.take_ops(20_000);
        let reads = ops.iter().filter(|o| o.is_read()).count() as f64 / ops.len() as f64;
        assert!((reads - 0.9).abs() < 0.02, "read fraction {reads}");
    }

    #[test]
    fn scan_ops_have_bounds() {
        let spec = WorkloadSpec::scaled_default(1000).with_mix(OpMix::range_balanced());
        let mut g = OpGenerator::new(spec, 11);
        let mut saw_scan = false;
        for op in g.take_ops(100) {
            if let Operation::Scan { start, end, limit } = op {
                assert!(start < end);
                assert_eq!(limit, 100);
                saw_scan = true;
            }
        }
        assert!(saw_scan);
    }

    #[test]
    fn zero_result_lookups_exceed_keyspace() {
        let mut spec = WorkloadSpec::scaled_default(100).with_mix(OpMix::reads(1.0));
        spec.zero_result_fraction = 1.0;
        let mut g = OpGenerator::new(spec, 5);
        for op in g.take_ops(200) {
            match op {
                Operation::Get { key } => assert!(decode_key(&key) >= 100),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn set_mix_changes_stream_composition() {
        let spec = WorkloadSpec::scaled_default(1000).with_mix(OpMix::reads(1.0));
        let mut g = OpGenerator::new(spec, 11);
        assert!(g.take_ops(100).iter().all(|o| o.is_read()));
        g.set_mix(OpMix::reads(0.0));
        assert!(g.take_ops(100).iter().all(|o| o.is_write()));
    }
}

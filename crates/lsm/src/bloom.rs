//! Bloom filters.
//!
//! One filter per sorted run, probed before any disk access (paper §2). The
//! implementation uses the classic double-hashing scheme (Kirsch &
//! Mitzenmacher): two independent 64-bit hashes `h1`, `h2` generate the `k`
//! probe positions `h1 + i·h2`. The number of hash functions is derived from
//! the bits-per-key as `k = round(bits · ln 2)`, as in LevelDB/RocksDB.

/// Analytic false-positive rate for a filter with `bits_per_key` bits/key.
///
/// `f = (1 − e^{−k/bpk·...})^k ≈ 0.6185^{bits_per_key}` at the optimal `k`.
pub fn fpr_for_bits(bits_per_key: f64) -> f64 {
    if bits_per_key <= 0.0 {
        return 1.0;
    }
    let k = (bits_per_key * std::f64::consts::LN_2).round().max(1.0);
    (1.0 - (-k / bits_per_key).exp()).powf(k)
}

/// Bits-per-key needed for a target false-positive rate.
///
/// Inverse of the optimum `f = 2^{−bits·ln2}`: `bits = −ln f / (ln 2)²`.
pub fn bits_for_fpr(fpr: f64) -> f64 {
    if fpr >= 1.0 {
        return 0.0;
    }
    let f = fpr.max(1e-12);
    -f.ln() / (std::f64::consts::LN_2 * std::f64::consts::LN_2)
}

/// A key's two filter hashes, `h1` and `h2` (odd): seeded 64-bit FNV-1a,
/// each finished by the splitmix64 avalanche to decorrelate the seeds.
/// Computed once per lookup by [`hash_pair`] and reused for every run's
/// filter ([`Bloom::contains_hashed`]).
#[derive(Debug, Clone, Copy)]
pub struct HashPair {
    h1: u64,
    h2: u64,
}

/// The splitmix64 finalizer.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58476d1ce4e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d049bb133111eb);
    h ^ (h >> 31)
}

/// Both of `key`'s filter hashes, in one pass over its bytes.
pub fn hash_pair(key: &[u8]) -> HashPair {
    const FNV_PRIME: u64 = 0x100000001b3;
    let basis = |seed: u64| 0xcbf29ce484222325 ^ seed.wrapping_mul(0x9e3779b97f4a7c15);
    let (mut a, mut b) = (basis(0x51_7c_c1_b7), basis(0x85_eb_ca_6b));
    for &byte in key {
        a = (a ^ byte as u64).wrapping_mul(FNV_PRIME);
        b = (b ^ byte as u64).wrapping_mul(FNV_PRIME);
    }
    HashPair {
        h1: avalanche(a),
        h2: avalanche(b) | 1,
    }
}

/// A Bloom filter over a fixed set of keys.
#[derive(Debug, Clone)]
pub struct Bloom {
    bits: Vec<u64>,
    nbits: u64,
    k: u32,
}

impl Bloom {
    /// Builds a filter for `keys` with the given bits-per-key budget.
    ///
    /// `bits_per_key == 0` produces a degenerate always-positive filter
    /// (Monkey assigns zero memory to the deepest levels when `f_i ≥ 1`).
    pub fn build<'a>(
        keys: impl Iterator<Item = &'a [u8]>,
        n_keys: usize,
        bits_per_key: f64,
    ) -> Self {
        let mut filter = Self::sized_for(n_keys, bits_per_key);
        for key in keys {
            filter.insert(key);
        }
        filter
    }

    /// An empty filter sized for `n_keys` keys, to be filled by
    /// [`Bloom::insert`]: [`Bloom::build`] for a caller that meets its keys
    /// one at a time and cannot hold them all.
    pub fn sized_for(n_keys: usize, bits_per_key: f64) -> Self {
        if bits_per_key <= 0.0 || n_keys == 0 {
            return Self {
                bits: Vec::new(),
                nbits: 0,
                k: 0,
            };
        }
        let nbits = ((n_keys as f64 * bits_per_key).ceil() as u64).max(64);
        let k = ((bits_per_key * std::f64::consts::LN_2).round() as u32).clamp(1, 30);
        Self {
            bits: vec![0u64; nbits.div_ceil(64) as usize],
            nbits,
            k,
        }
    }

    /// Adds one key (a no-op on the zero-memory filter).
    pub fn insert(&mut self, key: &[u8]) {
        self.insert_hashed(hash_pair(key));
    }

    /// [`Bloom::insert`] for a key whose [`hash_pair`] the caller holds.
    pub fn insert_hashed(&mut self, hashes: HashPair) {
        if self.nbits == 0 {
            return;
        }
        for bit in self.probe_bits(hashes) {
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    /// Probes the filter. `true` means "maybe present"; `false` is definite.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.contains_hashed(hash_pair(key))
    }

    /// [`Bloom::contains`] for a key whose [`hash_pair`] the caller holds.
    pub fn contains_hashed(&self, hashes: HashPair) -> bool {
        if self.nbits == 0 {
            return true; // zero-memory filter: always positive
        }
        self.probe_bits(hashes)
            .all(|bit| self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0)
    }

    /// The `k` bit positions `h1 + i·h2 (mod nbits)` a key sets.
    fn probe_bits(&self, HashPair { h1, h2 }: HashPair) -> impl Iterator<Item = u64> {
        let nbits = self.nbits;
        (0..self.k as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % nbits)
    }

    /// Memory footprint of the bit array in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> [u8; 8] {
        i.to_be_bytes()
    }

    #[test]
    fn no_false_negatives() {
        let keys: Vec<[u8; 8]> = (0..1000).map(key).collect();
        let bloom = Bloom::build(keys.iter().map(|k| k.as_slice()), keys.len(), 10.0);
        for k in &keys {
            assert!(bloom.contains(k));
        }
    }

    #[test]
    fn measured_fpr_tracks_analytic() {
        let n = 10_000u64;
        for bits in [4.0, 8.0, 10.0] {
            let keys: Vec<[u8; 8]> = (0..n).map(key).collect();
            let bloom = Bloom::build(keys.iter().map(|k| k.as_slice()), keys.len(), bits);
            let mut fp = 0u64;
            let probes = 20_000u64;
            for i in 0..probes {
                if bloom.contains(&key(n + i)) {
                    fp += 1;
                }
            }
            let measured = fp as f64 / probes as f64;
            let analytic = fpr_for_bits(bits);
            // Within a factor of two of the analytic optimum.
            assert!(
                measured < analytic * 2.0 + 0.002,
                "bits={bits}: measured {measured} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn zero_bits_always_positive() {
        let keys: Vec<[u8; 8]> = (0..10).map(key).collect();
        let bloom = Bloom::build(keys.iter().map(|k| k.as_slice()), keys.len(), 0.0);
        assert!(bloom.contains(&key(12345)));
        assert_eq!(bloom.memory_bytes(), 0);
    }

    #[test]
    fn bits_fpr_inverses() {
        for bits in [4.0, 8.0, 12.0] {
            let f = fpr_for_bits(bits);
            let back = bits_for_fpr(f);
            assert!((back - bits).abs() < 1.0, "bits={bits} f={f} back={back}");
        }
        assert_eq!(bits_for_fpr(1.0), 0.0);
        assert_eq!(fpr_for_bits(0.0), 1.0);
    }

    /// Key `i` of the golden set: `i % 41` bytes (empty included, many
    /// over sixteen) drawn from a splitmix64 stream seeded by `i`.
    fn golden_key(i: u64) -> Vec<u8> {
        let mut out = Vec::new();
        let mut s = i;
        while out.len() < (i % 41) as usize {
            s = avalanche(s.wrapping_add(0x9e3779b97f4a7c15));
            out.extend_from_slice(&s.to_le_bytes());
        }
        out.truncate((i % 41) as usize);
        out
    }

    /// The hash, the bit positions and the answers are pinned to the bit,
    /// not only the false-positive rate: a changed hash would still pass
    /// the rate bounds above but move every counted `bloom_fp_rate`. The
    /// digests were recorded from the two-pass hash this one replaced.
    #[test]
    fn golden_bits_and_answers() {
        let fold = |h: u64, w: u64| (h ^ w).wrapping_mul(0x100000001b3);
        let keys: Vec<Vec<u8>> = (0..2_000).map(golden_key).collect();
        let bloom = Bloom::build(keys.iter().map(|k| k.as_slice()), keys.len(), 10.0);
        let bits = bloom
            .bits
            .iter()
            .fold(0xcbf29ce484222325, |h, &w| fold(h, w));
        let bits = fold(fold(bits, bloom.nbits), bloom.k as u64);
        assert_eq!(bits, 0x8b505b77b4780c9a);

        let (mut answers, mut positives) = (0xcbf29ce484222325u64, 0);
        for i in 0..10_000u64 {
            let key = golden_key(i * 3 + 1);
            let hit = bloom.contains(&key);
            assert_eq!(hit, bloom.contains_hashed(hash_pair(&key)));
            positives += hit as u32;
            answers = fold(answers, hit as u64 + i);
        }
        assert_eq!((answers, positives), (0x25ddbb5ce7296a10, 1001));
    }

    #[test]
    fn memory_scales_with_keys() {
        let keys: Vec<[u8; 8]> = (0..1024).map(key).collect();
        let bloom = Bloom::build(keys.iter().map(|k| k.as_slice()), keys.len(), 8.0);
        // 1024 keys * 8 bits = 8192 bits = 1024 bytes (rounded to u64 words).
        assert!(bloom.memory_bytes() >= 1024 && bloom.memory_bytes() <= 1032);
    }
}

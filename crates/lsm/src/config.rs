//! Engine configuration.

use crate::transition::TransitionStrategy;

/// A structural problem with an [`LsmConfig`], reported by
/// [`LsmConfig::validate`] and [`crate::FlsmTree::try_new`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `buffer_bytes` below the 1 KiB minimum.
    BufferTooSmall {
        /// The rejected value.
        got: u64,
    },
    /// `size_ratio` (`T`) below 2.
    SizeRatioTooSmall {
        /// The rejected value.
        got: u32,
    },
    /// `initial_policy` outside `[1, T]`.
    InitialPolicyOutOfRange {
        /// The rejected value.
        got: u32,
        /// The configured size ratio `T`.
        size_ratio: u32,
    },
    /// Uniform Bloom bits-per-key outside `[0, 64]`.
    BloomBitsOutOfRange {
        /// The rejected value.
        got: f64,
    },
    /// Monkey level-1 FPR outside `(0, 1]`.
    BloomFprOutOfRange {
        /// The rejected value.
        got: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::BufferTooSmall { got } => {
                write!(f, "buffer_bytes must be at least 1 KiB, got {got}")
            }
            ConfigError::SizeRatioTooSmall { got } => {
                write!(f, "size_ratio (T) must be at least 2, got {got}")
            }
            ConfigError::InitialPolicyOutOfRange { got, size_ratio } => {
                write!(f, "initial_policy must be in [1, {size_ratio}], got {got}")
            }
            ConfigError::BloomBitsOutOfRange { got } => {
                write!(f, "bits_per_key must be in [0, 64], got {got}")
            }
            ConfigError::BloomFprOutOfRange { got } => {
                write!(f, "level1_fpr must be in (0, 1], got {got}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Bloom-filter memory scheme across levels (§5.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BloomScheme {
    /// Every level gets the same bits-per-key (RocksDB default; Case 1).
    Uniform {
        /// Bits of filter memory per key.
        bits_per_key: f64,
    },
    /// Monkey allocation: `f_i = T^{i-1}·f_1` (Case 2).
    Monkey {
        /// False-positive rate of Level 1's filters.
        level1_fpr: f64,
    },
}

impl BloomScheme {
    /// Bits-per-key for a (zero-based) level under this scheme.
    pub fn bits_for_level(&self, level: usize, size_ratio: u32) -> f64 {
        match *self {
            BloomScheme::Uniform { bits_per_key } => bits_per_key,
            BloomScheme::Monkey { level1_fpr } => {
                crate::monkey::monkey_bits_per_key(level1_fpr, size_ratio, level)
            }
        }
    }
}

/// Configuration of an [`crate::FlsmTree`].
#[derive(Debug, Clone, PartialEq)]
pub struct LsmConfig {
    /// Memory-buffer (memtable) capacity in bytes. The paper uses 2 MiB;
    /// the scaled-down experiment default is 64 KiB.
    pub buffer_bytes: u64,
    /// Capacity ratio `T` between adjacent levels (paper default 10).
    pub size_ratio: u32,
    /// Initial compaction policy `K` for newly created levels
    /// (1 = leveling, the RocksDB default the paper starts from).
    pub initial_policy: u32,
    /// Bloom-filter scheme (uniform 8 bits/key by default, as in the paper).
    pub bloom: BloomScheme,
    /// How policy changes are applied (FLSM flexible transition by default).
    pub transition: TransitionStrategy,
    /// When `true`, structural work is deferred off the write path: a full
    /// level no longer cascades inline, and flushes are postponed until an
    /// explicit [`crate::FlsmTree::step_maintenance`] call (with a 2×
    /// memtable backstop). Defaults to `false`, which preserves the
    /// classic inline-cascade behavior.
    pub background_maintenance: bool,
    /// Backpressure threshold for background mode: a `put`/`delete` stalls
    /// (runs maintenance steps inline) while Level 1's run count exceeds
    /// this. Values below 1 are treated as 1. Ignored in inline mode.
    pub l0_stall_runs: u64,
}

impl LsmConfig {
    /// Scaled-down defaults used across the experiments: the paper's
    /// settings (T = 10, 8 bits per key) with a 64 KiB buffer in place of
    /// its 2 MiB.
    pub fn scaled_default() -> Self {
        Self {
            buffer_bytes: 64 * 1024,
            size_ratio: 10,
            initial_policy: 1,
            bloom: BloomScheme::Uniform { bits_per_key: 8.0 },
            transition: TransitionStrategy::Flexible,
            background_maintenance: false,
            l0_stall_runs: 8,
        }
    }

    /// Capacity in bytes of a (zero-based) level: `C_i = buffer · T^{i+1}`.
    pub(crate) fn level_capacity(&self, level: usize) -> u64 {
        let t = self.size_ratio as u64;
        self.buffer_bytes
            .saturating_mul(t.saturating_pow(level as u32 + 1))
    }

    /// Clamps a policy into the valid range `[1, T]`.
    pub(crate) fn clamp_policy(&self, k: i64) -> u32 {
        k.clamp(1, self.size_ratio as i64) as u32
    }

    /// Validates invariants; returns the first violation.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.buffer_bytes < 1024 {
            return Err(ConfigError::BufferTooSmall {
                got: self.buffer_bytes,
            });
        }
        if self.size_ratio < 2 {
            return Err(ConfigError::SizeRatioTooSmall {
                got: self.size_ratio,
            });
        }
        if self.initial_policy < 1 || self.initial_policy > self.size_ratio {
            return Err(ConfigError::InitialPolicyOutOfRange {
                got: self.initial_policy,
                size_ratio: self.size_ratio,
            });
        }
        if let BloomScheme::Uniform { bits_per_key } = self.bloom {
            if !(0.0..=64.0).contains(&bits_per_key) {
                return Err(ConfigError::BloomBitsOutOfRange { got: bits_per_key });
            }
        }
        if let BloomScheme::Monkey { level1_fpr } = self.bloom {
            if !(0.0..=1.0).contains(&level1_fpr) || level1_fpr == 0.0 {
                return Err(ConfigError::BloomFprOutOfRange { got: level1_fpr });
            }
        }
        Ok(())
    }
}

impl Default for LsmConfig {
    fn default() -> Self {
        Self::scaled_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_capacities_grow_by_t() {
        let cfg = LsmConfig::scaled_default();
        assert_eq!(cfg.level_capacity(0), 64 * 1024 * 10);
        assert_eq!(cfg.level_capacity(1), 64 * 1024 * 100);
        assert_eq!(cfg.level_capacity(2), 64 * 1024 * 1000);
    }

    #[test]
    fn clamp_policy_bounds() {
        let cfg = LsmConfig::scaled_default();
        assert_eq!(cfg.clamp_policy(0), 1);
        assert_eq!(cfg.clamp_policy(-5), 1);
        assert_eq!(cfg.clamp_policy(5), 5);
        assert_eq!(cfg.clamp_policy(99), 10);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = LsmConfig::scaled_default();
        assert!(cfg.validate().is_ok());
        cfg.size_ratio = 1;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::SizeRatioTooSmall { got: 1 })
        );
        cfg = LsmConfig::scaled_default();
        cfg.initial_policy = 11;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::InitialPolicyOutOfRange {
                got: 11,
                size_ratio: 10
            })
        );
        cfg = LsmConfig::scaled_default();
        cfg.buffer_bytes = 10;
        assert_eq!(cfg.validate(), Err(ConfigError::BufferTooSmall { got: 10 }));
        cfg = LsmConfig::scaled_default();
        cfg.bloom = BloomScheme::Monkey { level1_fpr: 0.0 };
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::BloomFprOutOfRange { got: 0.0 })
        );
    }

    #[test]
    fn config_errors_render_readable_messages() {
        let e = ConfigError::InitialPolicyOutOfRange {
            got: 11,
            size_ratio: 10,
        };
        assert_eq!(e.to_string(), "initial_policy must be in [1, 10], got 11");
        assert!(ConfigError::BufferTooSmall { got: 10 }
            .to_string()
            .contains("1 KiB"));
    }

    #[test]
    fn monkey_scheme_bits_decrease() {
        let s = BloomScheme::Monkey { level1_fpr: 0.001 };
        assert!(s.bits_for_level(0, 10) > s.bits_for_level(1, 10));
        assert!(s.bits_for_level(1, 10) > s.bits_for_level(2, 10));
        assert_eq!(s.bits_for_level(5, 10), 0.0);
        let u = BloomScheme::Uniform { bits_per_key: 8.0 };
        assert_eq!(u.bits_for_level(0, 10), u.bits_for_level(4, 10));
    }
}

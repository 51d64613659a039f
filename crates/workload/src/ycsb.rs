//! YCSB presets and the paper's workload mixes.
//!
//! Fig. 11 evaluates RusKey on YCSB with the default Zipfian distribution,
//! using the same compositions as the uniform experiments — (a) read-heavy,
//! (b) write-heavy, (c) balanced — plus (d) 50% range lookups / 50% updates.

use crate::dist::KeyDistribution;
use crate::generator::WorkloadSpec;
use crate::ops::OpMix;

/// Named workload presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Paper Fig. 6/11(a): 90% lookups, 10% updates.
    ReadHeavy,
    /// Paper Fig. 6/11(b): 10% lookups, 90% updates.
    WriteHeavy,
    /// Paper Fig. 6/11(c): 50% lookups, 50% updates.
    Balanced,
    /// Paper Fig. 11(d): 50% range lookups, 50% updates.
    RangeBalanced,
    /// YCSB A: 50% reads, 50% updates, Zipfian.
    YcsbA,
    /// YCSB B: 95% reads, 5% updates, Zipfian.
    YcsbB,
    /// YCSB C: 100% reads, Zipfian.
    YcsbC,
    /// YCSB D-like: 95% reads with latest distribution, 5% inserts.
    YcsbD,
}

impl Preset {
    /// The operation mix of the preset.
    pub(crate) fn mix(self) -> OpMix {
        match self {
            Preset::ReadHeavy => OpMix::read_heavy(),
            Preset::WriteHeavy => OpMix::write_heavy(),
            Preset::Balanced | Preset::YcsbA => OpMix::balanced(),
            Preset::RangeBalanced => OpMix::range_balanced(),
            Preset::YcsbB | Preset::YcsbD => OpMix::reads(0.95),
            Preset::YcsbC => OpMix::reads(1.0),
        }
    }

    /// The key distribution of the preset.
    pub(crate) fn distribution(self) -> KeyDistribution {
        match self {
            Preset::ReadHeavy | Preset::WriteHeavy | Preset::Balanced | Preset::RangeBalanced => {
                KeyDistribution::zipfian_default()
            }
            Preset::YcsbA | Preset::YcsbB | Preset::YcsbC => KeyDistribution::zipfian_default(),
            Preset::YcsbD => KeyDistribution::Latest { theta: 0.99 },
        }
    }

    /// A full [`WorkloadSpec`] for the preset over `key_space` keys.
    pub fn spec(self, key_space: u64) -> WorkloadSpec {
        WorkloadSpec::scaled_default(key_space)
            .with_mix(self.mix())
            .with_distribution(self.distribution())
    }

    /// Label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            Preset::ReadHeavy => "ycsb-read-heavy",
            Preset::WriteHeavy => "ycsb-write-heavy",
            Preset::Balanced => "ycsb-balanced",
            Preset::RangeBalanced => "ycsb-range",
            Preset::YcsbA => "ycsb-a",
            Preset::YcsbB => "ycsb-b",
            Preset::YcsbC => "ycsb-c",
            Preset::YcsbD => "ycsb-d",
        }
    }

    /// All presets.
    pub const ALL: [Preset; 8] = [
        Preset::ReadHeavy,
        Preset::WriteHeavy,
        Preset::Balanced,
        Preset::RangeBalanced,
        Preset::YcsbA,
        Preset::YcsbB,
        Preset::YcsbC,
        Preset::YcsbD,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_valid() {
        for p in Preset::ALL {
            let spec = p.spec(1000);
            spec.mix.validate().unwrap();
            assert_eq!(spec.key_space, 1000);
        }
    }

    #[test]
    fn labels_unique() {
        let set: std::collections::HashSet<_> = Preset::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(set.len(), Preset::ALL.len());
    }

    #[test]
    fn ycsb_d_uses_latest() {
        assert_eq!(
            Preset::YcsbD.distribution(),
            KeyDistribution::Latest { theta: 0.99 }
        );
    }

    #[test]
    fn range_preset_has_scans() {
        let mix = Preset::RangeBalanced.mix();
        assert!(mix.scan > 0.4);
        assert!((mix.gamma() - 0.5).abs() < 1e-12);
    }
}

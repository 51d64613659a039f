//! The operation vocabulary and per-workload mixes.

use bytes::Bytes;

/// One key-value operation, as issued by the application workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operation {
    /// Point lookup.
    Get {
        /// Key to look up.
        key: Bytes,
    },
    /// Insert or overwrite (the paper's "update").
    Put {
        /// Key to write.
        key: Bytes,
        /// Value to write.
        value: Bytes,
    },
    /// Delete a key.
    Delete {
        /// Key to delete.
        key: Bytes,
    },
    /// Range lookup over `[start, end)` returning at most `limit` entries.
    Scan {
        /// Inclusive start key.
        start: Bytes,
        /// Exclusive end key.
        end: Bytes,
        /// Maximum number of results.
        limit: usize,
    },
}

impl Operation {
    /// True for operations that read (Get/Scan).
    pub(crate) fn is_read(&self) -> bool {
        matches!(self, Operation::Get { .. } | Operation::Scan { .. })
    }

    /// True for operations that write (Put/Delete).
    pub fn is_write(&self) -> bool {
        !self.is_read()
    }
}

/// Fractions of each operation kind in a workload; must sum to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Fraction of point lookups (`γ` in the paper's analysis).
    pub lookup: f64,
    /// Fraction of updates (puts).
    pub update: f64,
    /// Fraction of deletes.
    pub delete: f64,
    /// Fraction of range scans.
    pub scan: f64,
}

impl OpMix {
    /// A lookup/update-only mix with the given lookup fraction `γ`.
    pub fn reads(gamma: f64) -> Self {
        assert!((0.0..=1.0).contains(&gamma));
        Self {
            lookup: gamma,
            update: 1.0 - gamma,
            delete: 0.0,
            scan: 0.0,
        }
    }

    /// Paper read-heavy: 90% lookups, 10% updates.
    pub fn read_heavy() -> Self {
        Self::reads(0.9)
    }

    /// Paper write-heavy: 10% lookups, 90% updates.
    pub fn write_heavy() -> Self {
        Self::reads(0.1)
    }

    /// Paper balanced: 50/50.
    pub fn balanced() -> Self {
        Self::reads(0.5)
    }

    /// Paper read-inclined: 70% lookups, 30% updates.
    pub(crate) fn read_inclined() -> Self {
        Self::reads(0.7)
    }

    /// Paper write-inclined: 30% lookups, 70% updates.
    pub(crate) fn write_inclined() -> Self {
        Self::reads(0.3)
    }

    /// YCSB (d)-style range workload: 50% range lookups, 50% updates.
    pub fn range_balanced() -> Self {
        Self {
            lookup: 0.0,
            update: 0.5,
            delete: 0.0,
            scan: 0.5,
        }
    }

    /// Checks the fractions are non-negative and sum to ~1.
    pub(crate) fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("lookup", self.lookup),
            ("update", self.update),
            ("delete", self.delete),
            ("scan", self.scan),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} fraction {v} out of [0,1]"));
            }
        }
        let sum = self.lookup + self.update + self.delete + self.scan;
        if (sum - 1.0).abs() > 1e-9 {
            return Err(format!("fractions sum to {sum}, expected 1"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl OpMix {
        /// The fraction of reads (`γ`), counting scans as reads.
        pub(crate) fn gamma(&self) -> f64 {
            self.lookup + self.scan
        }
    }

    #[test]
    fn presets_are_valid() {
        for mix in [
            OpMix::read_heavy(),
            OpMix::write_heavy(),
            OpMix::balanced(),
            OpMix::read_inclined(),
            OpMix::write_inclined(),
            OpMix::range_balanced(),
        ] {
            mix.validate().unwrap();
        }
    }

    #[test]
    fn gamma_counts_scans() {
        assert!((OpMix::range_balanced().gamma() - 0.5).abs() < 1e-12);
        assert!((OpMix::read_heavy().gamma() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_mixes() {
        let bad = OpMix {
            lookup: 0.5,
            update: 0.6,
            delete: 0.0,
            scan: 0.0,
        };
        assert!(bad.validate().is_err());
        let neg = OpMix {
            lookup: -0.1,
            update: 1.1,
            delete: 0.0,
            scan: 0.0,
        };
        assert!(neg.validate().is_err());
    }

    #[test]
    fn read_write_classification() {
        let k = Bytes::from_static(b"k");
        assert!(Operation::Get { key: k.clone() }.is_read());
        assert!(Operation::Scan {
            start: k.clone(),
            end: k.clone(),
            limit: 1
        }
        .is_read());
        assert!(Operation::Put {
            key: k.clone(),
            value: k.clone()
        }
        .is_write());
        assert!(Operation::Delete { key: k }.is_write());
    }
}

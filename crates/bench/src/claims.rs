//! The one result type of every experiment: a named claim row.
//!
//! Each experiment returns an [`Outcome`]: the claim rows it measured and
//! the mission series it plots. A row names one number (`fig6.regret.
//! write-heavy`, `table2.flexible.total_pages`), the paper's value where
//! the paper states one, and whether the paper's claim holds on it.
//! [`fold_seeds`] merges the rows of one run per seed into the table
//! `repro claims` prints.

use crate::experiments::Comparison;

/// Whether a row's claim holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The paper's claim holds on this row.
    Holds,
    /// The paper's claim does not hold on this row.
    Fails,
    /// The row records a value and makes no claim.
    Recorded,
}

impl Verdict {
    /// The verdict as the table and the JSON spell it.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Holds => "holds",
            Verdict::Fails => "fails",
            Verdict::Recorded => "recorded",
        }
    }
}

/// One named number of an experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimRow {
    /// Dotted name: the figure or table, the quantity, then the case.
    pub id: String,
    /// The paper's value, where the paper states one.
    pub paper: Option<f64>,
    /// Our value: one run's, or the median over seeds.
    pub ours: f64,
    /// Max − min of `ours` over seeds (0 for one run).
    pub spread: f64,
    /// Whether the claim holds.
    pub verdict: Verdict,
}

impl ClaimRow {
    /// A row that records `ours` and makes no claim.
    pub(crate) fn recorded(id: impl Into<String>, ours: f64) -> Self {
        Self {
            id: id.into(),
            paper: None,
            ours,
            spread: 0.0,
            verdict: Verdict::Recorded,
        }
    }

    /// A row whose claim holds when `holds` is true.
    pub fn claim(id: impl Into<String>, paper: Option<f64>, ours: f64, holds: bool) -> Self {
        Self {
            paper,
            verdict: if holds {
                Verdict::Holds
            } else {
                Verdict::Fails
            },
            ..Self::recorded(id, ours)
        }
    }
}

/// What one experiment gives: its claim rows, and the mission series it
/// plots, one [`Comparison`] per CSV file.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Series to write as CSV, each comparison under its own name.
    pub plots: Vec<Comparison>,
    /// The experiment's rows.
    pub rows: Vec<ClaimRow>,
}

/// The seeds `repro claims` runs every experiment at.
pub const CLAIM_SEEDS: [u64; 3] = [42, 7, 1234];

/// Folds one row set per seed into one row per id, in first-seen order:
/// `ours` is the median over the seeds (the upper one of an even count),
/// `spread` is max − min, and a row holds only if it holds at every seed.
pub fn fold_seeds(runs: &[Vec<ClaimRow>]) -> Vec<ClaimRow> {
    let mut folded: Vec<(ClaimRow, Vec<f64>)> = Vec::new();
    for row in runs.iter().flatten() {
        match folded.iter_mut().find(|(f, _)| f.id == row.id) {
            Some((f, values)) => {
                values.push(row.ours);
                if f.verdict != row.verdict {
                    f.verdict = Verdict::Fails;
                }
            }
            None => folded.push((row.clone(), vec![row.ours])),
        }
    }
    folded
        .into_iter()
        .map(|(row, mut values)| {
            values.sort_by(f64::total_cmp);
            ClaimRow {
                ours: values[values.len() / 2],
                spread: values[values.len() - 1] - values[0],
                ..row
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folding_takes_the_median_the_spread_and_every_seeds_verdict() {
        let seed = |regret: f64, share: f64| {
            vec![
                ClaimRow::claim("fig6.regret.balanced", Some(1.0), regret, regret <= 1.15),
                ClaimRow::recorded("ladder.balanced.best_k", regret.round()),
                ClaimRow::claim("fig13.model_share_50k", Some(0.01), share, share <= 0.01),
            ]
        };
        let rows = fold_seeds(&[seed(1.1, 0.002), seed(1.3, 0.003), seed(1.0, 0.001)]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].id, "fig6.regret.balanced");
        assert_eq!(rows[0].ours, 1.1);
        assert!((rows[0].spread - 0.3).abs() < 1e-12);
        assert_eq!(rows[0].paper, Some(1.0));
        // It held at two seeds of three, so it does not hold.
        assert_eq!(rows[0].verdict, Verdict::Fails);
        assert_eq!(rows[1].verdict, Verdict::Recorded);
        assert_eq!((rows[2].ours, rows[2].verdict), (0.002, Verdict::Holds));
    }
}

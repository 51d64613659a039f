//! Multi-session dynamic workloads (paper §7, Fig. 7).
//!
//! A dynamic workload is a sequence of *sessions*, each with its own
//! operation mix and mission count. The Fig. 7 evaluation runs five
//! sessions — read-heavy → balanced → write-heavy → write-inclined →
//! read-inclined — with no announcement to the store when they change.

use crate::generator::OpGenerator;
use crate::ops::{OpMix, Operation};

/// One phase of a dynamic workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Session {
    /// Operation mix during the session.
    pub mix: OpMix,
    /// Number of missions in the session.
    pub missions: usize,
    /// Human-readable label for experiment output.
    pub label: &'static str,
}

/// A dynamic workload: sessions played back-to-back, chopped into missions.
pub struct DynamicWorkload {
    generator: OpGenerator,
    sessions: Vec<Session>,
    mission_size: usize,
    session_idx: usize,
    mission_in_session: usize,
}

impl DynamicWorkload {
    /// Creates a dynamic workload from a base generator (its mix is
    /// overridden per session) and a session schedule.
    pub fn new(generator: OpGenerator, sessions: Vec<Session>, mission_size: usize) -> Self {
        assert!(!sessions.is_empty());
        assert!(mission_size > 0);
        let mut w = Self {
            generator,
            sessions,
            mission_size,
            session_idx: 0,
            mission_in_session: 0,
        };
        w.generator.set_mix(w.sessions[0].mix);
        w
    }

    /// The paper's Fig. 7 schedule with `missions` missions per session:
    /// read-heavy (10% upd), balanced (50%), write-heavy (90%),
    /// write-inclined (70%), read-inclined (30%).
    pub fn paper_fig7(generator: OpGenerator, missions: usize, mission_size: usize) -> Self {
        let sessions = vec![
            Session {
                mix: OpMix::read_heavy(),
                missions,
                label: "read-heavy",
            },
            Session {
                mix: OpMix::balanced(),
                missions,
                label: "balanced",
            },
            Session {
                mix: OpMix::write_heavy(),
                missions,
                label: "write-heavy",
            },
            Session {
                mix: OpMix::write_inclined(),
                missions,
                label: "write-inclined",
            },
            Session {
                mix: OpMix::read_inclined(),
                missions,
                label: "read-inclined",
            },
        ];
        Self::new(generator, sessions, mission_size)
    }

    /// The session schedule.
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }
}

/// Yields each mission as `(session index, operations)`, then `None` once
/// the schedule is exhausted.
impl Iterator for DynamicWorkload {
    type Item = (usize, Vec<Operation>);

    fn next(&mut self) -> Option<Self::Item> {
        let session = *self.sessions.get(self.session_idx)?;
        let idx = self.session_idx;
        self.generator.set_mix(session.mix);
        let ops = self.generator.take_ops(self.mission_size);
        self.mission_in_session += 1;
        if self.mission_in_session >= session.missions {
            self.session_idx += 1;
            self.mission_in_session = 0;
        }
        Some((idx, ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadSpec;

    impl DynamicWorkload {
        /// Total missions across all sessions.
        fn total_missions(&self) -> usize {
            self.sessions.iter().map(|s| s.missions).sum()
        }
    }

    fn gen() -> OpGenerator {
        OpGenerator::new(WorkloadSpec::scaled_default(500), 42)
    }

    #[test]
    fn fig7_schedule_has_five_sessions() {
        let w = DynamicWorkload::paper_fig7(gen(), 10, 100);
        assert_eq!(w.sessions().len(), 5);
        assert_eq!(w.total_missions(), 50);
        assert_eq!(w.sessions()[0].label, "read-heavy");
        assert_eq!(w.sessions()[2].label, "write-heavy");
    }

    #[test]
    fn sessions_change_composition() {
        let w = DynamicWorkload::paper_fig7(gen(), 5, 400);
        let mut session_reads = [0usize; 5];
        let mut session_ops = vec![0usize; 5];
        for (s, ops) in w {
            session_reads[s] += ops.iter().filter(|o| o.is_read()).count();
            session_ops[s] += ops.len();
        }
        let frac: Vec<f64> = session_reads
            .iter()
            .zip(&session_ops)
            .map(|(r, n)| *r as f64 / *n as f64)
            .collect();
        // Expected γ per session: 0.9, 0.5, 0.1, 0.3, 0.7.
        for (got, want) in frac.iter().zip([0.9, 0.5, 0.1, 0.3, 0.7]) {
            assert!((got - want).abs() < 0.05, "γ {got} vs {want}");
        }
    }

    #[test]
    fn exhausts_after_schedule() {
        let mut w = DynamicWorkload::new(
            gen(),
            vec![Session {
                mix: OpMix::balanced(),
                missions: 2,
                label: "x",
            }],
            10,
        );
        assert!(w.next().is_some());
        assert!(w.next().is_some());
        assert!(w.next().is_none());
    }
}

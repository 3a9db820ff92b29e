//! Error types surfaced by the runtime.

use std::fmt;

/// A fatal simulation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A rank blocked in `recv` longer than the configured deadlock
    /// timeout. Carries (global rank, communicator id, source local rank,
    /// tag) of the receive that never matched.
    DeadlockSuspected {
        /// Global rank that was blocked.
        rank: usize,
        /// Communicator context id of the pending receive.
        comm: u32,
        /// Expected source (communicator-local rank).
        src: usize,
        /// Expected tag.
        tag: u32,
    },
    /// A rank program panicked; carries the global rank and the panic
    /// message when it was a string.
    RankPanicked {
        /// Global rank whose program panicked.
        rank: usize,
        /// Panic payload rendered to a string when possible.
        message: String,
    },
    /// The happens-before race detector found conflicting, unordered
    /// accesses to one or more [`crate::SharedWindow`]s. Only produced
    /// when [`crate::SimConfig::race_detect`] (or `MSIM_RACE=1`) is set
    /// and the universe runs in [`crate::DataMode::Real`]. Reports are
    /// sorted, deduplicated and capped; see `docs/race-detection.md`.
    RaceDetected {
        /// Confirmed races, canonically ordered (deterministic across
        /// repeated runs with the same seed and executor mode).
        reports: Vec<crate::race::RaceReport>,
        /// Debug rendering of the active [`crate::FaultPlan`]. Races are
        /// reported even when the racing rank was killed mid-collective,
        /// so the fault context is needed to reproduce such runs.
        fault_context: String,
    },
    /// The execution infrastructure itself failed — a pool worker died
    /// outside any rank program (a lost wake, a coroutine stack
    /// overflow). Unlike [`SimError::RankPanicked`] this is not the rank
    /// program's fault; the rank id is the closest attribution the
    /// runtime has (`usize::MAX` when no rank was active).
    ExecutorFailure {
        /// Rank the failing worker was serving (best effort).
        rank: usize,
        /// What broke.
        message: String,
        /// Debug rendering of the active [`crate::FaultPlan`], so a
        /// failure under fuzzing/kills is reproducible from the error
        /// alone.
        fault_context: String,
    },
    /// The configured [`crate::ExecMode`] cannot run here: ranks execute
    /// only as coroutines, and the target has no coroutine context
    /// switch (one exists for unix x86-64 and aarch64). Rejected up
    /// front, before any rank program starts.
    UnsupportedExec {
        /// The rejected execution mode (`"pooled"`).
        exec: String,
        /// The unsupported feature that was requested with it.
        feature: String,
    },
}

impl SimError {
    /// True for [`SimError::DeadlockSuspected`].
    pub fn is_deadlock(&self) -> bool {
        matches!(self, SimError::DeadlockSuspected { .. })
    }

    /// True for [`SimError::RankPanicked`].
    pub fn is_panic(&self) -> bool {
        matches!(self, SimError::RankPanicked { .. })
    }

    /// True when this error was produced by an injected kill
    /// ([`crate::FaultPlan::with_kill`]) rather than a genuine bug: a rank
    /// panic whose message carries [`crate::fault::KILL_MARKER`].
    pub fn is_injected_kill(&self) -> bool {
        matches!(self, SimError::RankPanicked { message, .. }
                 if message.contains(crate::fault::KILL_MARKER))
    }

    /// True for [`SimError::RaceDetected`].
    pub fn is_race(&self) -> bool {
        matches!(self, SimError::RaceDetected { .. })
    }

    /// True for [`SimError::UnsupportedExec`].
    pub fn is_unsupported_exec(&self) -> bool {
        matches!(self, SimError::UnsupportedExec { .. })
    }

    /// The global rank the error is attributed to. For races this is the
    /// first access of the first (canonically smallest) report.
    pub fn rank(&self) -> usize {
        match self {
            SimError::DeadlockSuspected { rank, .. } => *rank,
            SimError::RankPanicked { rank, .. } => *rank,
            SimError::ExecutorFailure { rank, .. } => *rank,
            SimError::RaceDetected { reports, .. } => {
                reports.first().map_or(usize::MAX, |r| r.first.rank)
            }
            // Rejected before any rank program ran.
            SimError::UnsupportedExec { .. } => usize::MAX,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DeadlockSuspected {
                rank,
                comm,
                src,
                tag,
            } => write!(
                f,
                "rank {rank} blocked in recv(comm={comm}, src={src}, tag={tag}) \
                 past the deadlock timeout — likely a communication deadlock"
            ),
            SimError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            SimError::ExecutorFailure {
                rank,
                message,
                fault_context,
            } => write!(
                f,
                "executor infrastructure failure while serving rank {rank}: \
                 {message} (fault plan: {fault_context})"
            ),
            SimError::RaceDetected {
                reports,
                fault_context,
            } => {
                write!(
                    f,
                    "shared-window data race: {} conflicting access pair(s) \
                     with no happens-before ordering (fault plan: {fault_context})",
                    reports.len()
                )?;
                for r in reports {
                    write!(f, "\n  {r}")?;
                }
                Ok(())
            }
            SimError::UnsupportedExec { exec, feature } => {
                write!(f, "execution mode '{exec}' does not support {feature}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_rank() {
        let e = SimError::DeadlockSuspected {
            rank: 3,
            comm: 1,
            src: 0,
            tag: 9,
        };
        let s = e.to_string();
        assert!(s.contains("rank 3"));
        assert!(s.contains("tag=9"));
    }

    #[test]
    fn panic_display() {
        let e = SimError::RankPanicked {
            rank: 1,
            message: "boom".into(),
        };
        assert!(e.to_string().contains("boom"));
    }
}

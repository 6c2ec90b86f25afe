//! Arrival tokens and wait outcomes for the split-phase protocol.

use crate::spin::SpinReport;
use std::time::Duration;

/// Proof that a participant has *arrived* at a barrier episode.
///
/// Returned by [`crate::SplitBarrier::arrive`] and consumed by
/// [`crate::SplitBarrier::wait`]. The token pins down *which* episode the
/// participant arrived for, so a `wait` can never be confused across
/// episodes — the software analogue of the paper's hardware state machine
/// knowing exactly which barrier the processor is inside.
///
/// The token is deliberately **not** `Clone`/`Copy`: each arrival must be
/// matched by exactly one wait.
#[derive(Debug, PartialEq, Eq)]
#[must_use = "an arrival must be completed by calling wait(token)"]
pub struct ArrivalToken {
    pub(crate) id: usize,
    pub(crate) episode: u64,
}

impl ArrivalToken {
    /// Creates a token for participant `id` arriving at `episode`.
    ///
    /// Public so that external [`crate::SplitBarrier`] implementations
    /// (alternative backends, the `fuzzy-check` model checker's mutants)
    /// can mint tokens; protocol users only ever *receive* tokens from
    /// [`crate::SplitBarrier::arrive`].
    pub fn new(id: usize, episode: u64) -> Self {
        ArrivalToken { id, episode }
    }

    /// The participant id that arrived.
    #[must_use]
    pub fn participant(&self) -> usize {
        self.id
    }

    /// The barrier episode (0-based) this arrival belongs to.
    #[must_use]
    pub fn episode(&self) -> u64 {
        self.episode
    }
}

/// What happened during [`crate::SplitBarrier::wait`].
///
/// The interesting question for the paper's evaluation is not *whether* the
/// barrier synchronized (it always does) but *whether this participant had
/// to stall* — i.e. whether its barrier region was long enough to cover the
/// arrival skew.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitOutcome {
    /// The episode that completed.
    pub episode: u64,
    /// True if the participant had to wait at all (the region was too
    /// short to absorb the skew).
    pub stalled: bool,
    /// True if the stall escalated to a yield/park (models the Encore
    /// context save/restore cost, Sec. 8).
    pub descheduled: bool,
    /// Number of wait probes performed.
    pub probes: u64,
    /// Wall-clock time spent stalled. Only as exact as the waiter's clock:
    /// a blocking wait that never escalated past spinning reports zero
    /// (it arms no clock until a stall costs a context switch), and a
    /// [`crate::BarrierFuture`] times its park on sampled episodes only —
    /// the last of every [`crate::stats::SPREAD_SAMPLE_PERIOD`] — and
    /// reports zero on the others. `stalled`, `descheduled` and `probes`
    /// are exact on every wait.
    pub stall_time: Duration,
}

impl WaitOutcome {
    /// Builds an outcome from a stall-loop [`SpinReport`]. Public so that
    /// external [`crate::SplitBarrier`] implementations (the `fuzzy-net`
    /// message-passing backend) report waits in the same shape as the
    /// stock backends.
    #[must_use]
    pub fn from_report(episode: u64, report: SpinReport) -> Self {
        WaitOutcome {
            episode,
            stalled: !report.was_instant(),
            descheduled: report.descheduled,
            probes: report.probes,
            stall_time: report.waited,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_reports_identity() {
        let t = ArrivalToken::new(2, 7);
        assert_eq!(t.participant(), 2);
        assert_eq!(t.episode(), 7);
    }

    #[test]
    fn outcome_from_instant_report_is_not_stalled() {
        let o = WaitOutcome::from_report(3, SpinReport::default());
        assert_eq!(o.episode, 3);
        assert!(!o.stalled);
        assert!(!o.descheduled);
    }

    #[test]
    fn outcome_from_busy_report_is_stalled() {
        let r = SpinReport {
            probes: 10,
            descheduled: true,
            waited: Duration::from_micros(5),
            timed_out: false,
        };
        let o = WaitOutcome::from_report(0, r);
        assert!(o.stalled);
        assert!(o.descheduled);
        assert_eq!(o.probes, 10);
    }
}

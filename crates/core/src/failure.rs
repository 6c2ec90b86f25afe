//! Fault tolerance: deadlines, poisoning, and the bounded-wait engine.
//!
//! The paper's protocol assumes every masked processor eventually reaches
//! the barrier; a single stuck stream therefore stalls all of its peers
//! forever. This module supplies the recovery primitives layered on top of
//! the split-phase protocol:
//!
//! - A [`Deadline`] bounds how long `wait_deadline` may stall, turning a
//!   straggler into an observable [`BarrierError::Timeout`] instead of a
//!   silent deadlock.
//! - **Poisoning** (std-`Mutex`-style): a participant that panics mid
//!   episode or calls `abort()` marks the barrier; peers blocked in a
//!   bounded wait unblock with [`BarrierError::Poisoned`].
//! - **Eviction** (Sec. 5 of the paper, in reverse): the same mask shrink
//!   that lets a dynamically terminating stream leave a barrier group is
//!   used to remove a *failed* stream, so survivors re-synchronize on the
//!   next episode.
//!
//! Completion always wins: if an episode completed *and* the barrier was
//! poisoned (or the deadline passed), the wait still returns the successful
//! [`WaitOutcome`] — the synchronization genuinely happened.

use crate::error::BarrierError;
use crate::spin::StallPolicy;
use crate::sync::SyncOps;
use crate::token::WaitOutcome;
use std::time::{Duration, Instant};

/// A point in time after which a blocked `wait` gives up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline that never expires: the wait is unbounded, exactly like
    /// plain `wait`.
    #[must_use]
    pub fn never() -> Self {
        Deadline { at: None }
    }

    /// A deadline at an absolute instant.
    #[must_use]
    pub fn at(instant: Instant) -> Self {
        Deadline { at: Some(instant) }
    }

    /// A deadline `timeout` from now. Saturates to [`Deadline::never`] if
    /// the addition overflows the clock.
    #[must_use]
    pub fn after(timeout: Duration) -> Self {
        Deadline {
            at: Instant::now().checked_add(timeout),
        }
    }

    /// The absolute expiry instant, if the deadline is bounded.
    #[must_use]
    pub fn instant(&self) -> Option<Instant> {
        self.at
    }

    /// True once the deadline has passed (never true for
    /// [`Deadline::never`]).
    #[must_use]
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }
}

/// A failed bounded wait: the error to surface plus the spin report the
/// backend needs for stall telemetry.
pub(crate) struct FaultedWait {
    pub(crate) error: BarrierError,
    pub(crate) report: crate::spin::SpinReport,
}

/// Drives one poison-aware bounded wait over the sync domain `S`.
///
/// Blocks (per `policy`) until `complete()` holds, `poisoned()` holds, or
/// `deadline` passes. Completion wins over both fault outcomes: the
/// predicates are re-checked after the stall loop exits, in that order, so
/// an episode that completed concurrently with a poison or timeout still
/// reports success.
///
/// Instrumented domains (the model checker's `ShadowSync`) ignore the
/// deadline entirely — a descheduled virtual thread never times out,
/// because wall-clock expiry is nondeterminism the checker must not
/// explore. Poisoning, by contrast, is an ordinary shadow write and is
/// fully explored.
pub(crate) fn guarded_wait<S: SyncOps>(
    policy: StallPolicy,
    deadline: Deadline,
    episode: u64,
    mut complete: impl FnMut() -> bool,
    poisoned: impl Fn() -> bool,
) -> Result<WaitOutcome, FaultedWait> {
    let report = S::wait_until_budget(policy, deadline.instant(), || complete() || poisoned());
    if complete() {
        return Ok(WaitOutcome::from_report(episode, report));
    }
    let error = if poisoned() {
        BarrierError::Poisoned { episode }
    } else {
        BarrierError::Timeout { episode }
    };
    Err(FaultedWait { error, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::RealSync;

    #[test]
    fn never_deadline_does_not_expire() {
        let d = Deadline::never();
        assert!(!d.expired());
        assert!(d.instant().is_none());
    }

    #[test]
    fn after_deadline_expires() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.expired());
    }

    #[test]
    fn guarded_wait_completion_wins_over_poison() {
        let r = guarded_wait::<RealSync>(StallPolicy::Spin, Deadline::never(), 7, || true, || true);
        let outcome = r.unwrap_or_else(|_| panic!("completion must win"));
        assert_eq!(outcome.episode, 7);
    }

    #[test]
    fn guarded_wait_reports_poison() {
        let r =
            guarded_wait::<RealSync>(StallPolicy::Spin, Deadline::never(), 3, || false, || true);
        match r {
            Err(fault) => assert_eq!(fault.error, BarrierError::Poisoned { episode: 3 }),
            Ok(_) => panic!("expected poison"),
        }
    }

    /// Regression: the evict-vs-timeout race. A waiter whose peer is
    /// evicted in the same episode must resolve deterministically — either
    /// the eviction's stand-in arrival releases it (`Ok`) or its deadline
    /// fires first (`Err(Timeout)`) — and the episode must be complete
    /// once the eviction returns, so a timed-out waiter's retry succeeds
    /// immediately. It must never hang and never see any third outcome.
    #[test]
    fn evicted_peer_vs_deadline_resolves_deterministically() {
        use crate::centralized::CentralBarrier;
        use crate::fuzzy::SplitBarrier;
        use crate::token::ArrivalToken;
        use std::sync::Arc;

        // Jitter both sides around the same scale so the interleaving
        // lands on every side of the race across iterations.
        for i in 0..50u64 {
            let b = Arc::new(CentralBarrier::with_policy(2, StallPolicy::yielding()));
            let wait_us = 20 * (i % 5);
            let evict_us = 20 * ((i / 5) % 5);
            std::thread::scope(|s| {
                let waiter = {
                    let b = Arc::clone(&b);
                    s.spawn(move || {
                        let token = b.arrive(0);
                        b.wait_deadline(token, Deadline::after(Duration::from_micros(wait_us)))
                    })
                };
                std::thread::sleep(Duration::from_micros(evict_us));
                b.evict(1).expect("peer never arrived, eviction is legal");
                match waiter.join().expect("waiter must not panic") {
                    Ok(outcome) => assert_eq!(outcome.episode, 0),
                    Err(BarrierError::Timeout { episode }) => assert_eq!(episode, 0),
                    Err(other) => panic!("unexpected outcome {other:?}"),
                }
            });
            // The eviction's stand-in arrival completed the episode: a
            // retry probe observes completion without any further waiting.
            assert!(
                b.is_complete(&ArrivalToken::new(0, 0)),
                "episode must be complete once the eviction returned"
            );
        }
    }

    #[test]
    fn guarded_wait_reports_timeout() {
        let r = guarded_wait::<RealSync>(
            StallPolicy::Spin,
            Deadline::after(Duration::from_millis(1)),
            5,
            || false,
            || false,
        );
        match r {
            Err(fault) => {
                assert_eq!(fault.error, BarrierError::Timeout { episode: 5 });
                assert!(fault.report.timed_out);
            }
            Ok(_) => panic!("expected timeout"),
        }
    }
}

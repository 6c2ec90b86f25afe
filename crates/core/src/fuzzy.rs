//! The split-phase barrier trait and the [`FuzzyBarrier`] front door.

use crate::centralized::CentralBarrier;
use crate::error::BarrierError;
use crate::failure::Deadline;
use crate::stats::{StatsSnapshot, TelemetrySnapshot};
use crate::token::{ArrivalToken, WaitOutcome};
use std::task::Waker;

/// A barrier whose synchronization is split into an *arrive* phase and a
/// *wait* phase.
///
/// This is the library form of the paper's fuzzy barrier: between `arrive`
/// and `wait` the participant executes its **barrier region** — work that
/// neither produces values other participants read after the barrier nor
/// consumes values they produce before it. The same split later appeared in
/// `MPI_Ibarrier` and C++20's `std::barrier` `arrive`/`wait` pair.
///
/// # Protocol
///
/// Each participant `id` in `0..n` must, per episode, call `arrive(id)`
/// exactly once and then `wait` on the returned token exactly once, in that
/// order. Tokens are episode-bound, so protocol violations are confined:
/// waiting on an old token returns immediately, and a participant cannot
/// arrive twice for the same episode without having waited (its own episode
/// counter advances only on arrival).
///
/// # Implementing
///
/// An implementor decides eight things and may answer six more
/// differently from the defaults; [`Self::wait`], [`Self::abort`],
/// [`Self::point`] and [`Self::fuzzy`] are derived from those here and are
/// not meant to be overridden. DESIGN.md, "The `SplitBarrier` surface", has
/// the table.
///
/// # Panics
///
/// Implementations panic if `id >= n`; participant ids are dense indices
/// chosen at construction time, so an out-of-range id is a program bug, not
/// a recoverable condition.
pub trait SplitBarrier: Send + Sync {
    /// Announces that participant `id` is ready to synchronize and returns
    /// the token for this episode. Never blocks.
    fn arrive(&self, id: usize) -> ArrivalToken;

    /// Returns true if the episode named by `token` has completed, without
    /// blocking. The fuzzy analogue of peeking at the hardware "synchronized"
    /// state bit.
    fn is_complete(&self, token: &ArrivalToken) -> bool;

    /// Blocks (per the backend's [`crate::StallPolicy`]) until the episode
    /// named by `token` completes, the barrier is poisoned
    /// ([`BarrierError::Poisoned`]), or `deadline` passes
    /// ([`BarrierError::Timeout`]). Completion wins over both faults.
    ///
    /// On `Err` the arrival still counted and the token is consumed: the
    /// caller may [`Self::evict`] the straggler so the episode completes,
    /// or [`Self::poison`] the barrier to release its peers.
    fn wait_deadline(
        &self,
        token: ArrivalToken,
        deadline: Deadline,
    ) -> Result<WaitOutcome, BarrierError>;

    /// Poisons the barrier: every current and future
    /// [`Self::wait_deadline`] returns [`BarrierError::Poisoned`] (and
    /// plain [`Self::wait`] panics) until [`Self::clear_poison`].
    /// Completion still wins for episodes that manage to complete.
    fn poison(&self);

    /// Clears a poisoned barrier (like `std::sync::Mutex::clear_poison`),
    /// typically after the failed participant has been [`Self::evict`]ed
    /// and recovery is complete.
    fn clear_poison(&self);

    /// True if the barrier is currently poisoned.
    fn is_poisoned(&self) -> bool;

    /// Number of participants.
    fn participants(&self) -> usize;

    /// Snapshot of this barrier's accumulated statistics.
    fn stats(&self) -> StatsSnapshot;

    /// The backend's release word, if it has one: `Some(k)` promises that
    /// **for every participant id** `is_complete(token(id, e)) == (e < k)`,
    /// and costs one `Acquire` load. Episodes release in order, for all
    /// participants at once, through that single word — Scott's fuzzy
    /// central barrier's one global word that every departing thread reads.
    ///
    /// A layer that tracks many waiters (the episode core's parked set)
    /// asks this once instead of probing each waiter: everything parked
    /// for an episode below `k` is released, nothing else is. The
    /// value is monotone and, like `is_complete`, a `k` observed after
    /// acquiring a lock that a completing arriver released covers that
    /// arrival.
    ///
    /// `None` (the default) means completion is per participant —
    /// cooperative backends whose `is_complete` help-drives the probed
    /// id's rounds (dissemination, the network barrier) — or that
    /// the type is a wrapper with bookkeeping of its own; callers must
    /// then fall back to `is_complete` per token.
    fn release_epoch(&self) -> Option<u64> {
        None
    }

    /// Permanently removes participant `id` from the barrier — the paper's
    /// Sec. 5 mask shrink applied to a *failed* stream: survivors
    /// re-synchronize without it from the in-flight episode onward.
    ///
    /// The evicted participant must **not** have arrived for the in-flight
    /// episode (evict stragglers that are stuck *before* their arrival; a
    /// participant that already arrived will have its arrival double
    /// counted). Eviction is permanent: ids are never reused. Evicting the
    /// last live participant fails with [`BarrierError::EmptyGroup`];
    /// evicting twice fails with [`BarrierError::NotAParticipant`]. On the
    /// stock backends both hold under concurrent evictions too: of any
    /// set of racing calls, exactly those that leave a survivor succeed.
    ///
    /// The default reports [`BarrierError::EvictionUnsupported`], whatever
    /// the `id`.
    fn evict(&self, _id: usize) -> Result<(), BarrierError> {
        Err(BarrierError::EvictionUnsupported)
    }

    /// Stages participant `id`'s return to the barrier — the dual of
    /// [`Self::evict`], and the paper's Sec. 5 mask update growing the
    /// mask instead of shrinking it. The admission takes effect at an
    /// episode boundary nobody has arrived past: `id` is counted from some
    /// later episode on, and [`Self::is_member`] turns true once its next
    /// `arrive` is counted. Admitting a member or an already staged id
    /// does nothing.
    ///
    /// The default reports [`BarrierError::AdmitUnsupported`], whatever
    /// the `id`.
    fn admit(&self, _id: usize) -> Result<(), BarrierError> {
        Err(BarrierError::AdmitUnsupported)
    }

    /// True if participant `id`'s next `arrive` is counted: it was never
    /// removed, or its latest [`Self::admit`] has taken effect. The
    /// default says every id in range is a member.
    fn is_member(&self, id: usize) -> bool {
        id < self.participants()
    }

    /// Parks participant `id`'s `waker` until the release word passes
    /// `episode` or the barrier is poisoned, and returns true; or returns
    /// false, and the caller must poll instead. Each id has one entry: a
    /// new registration replaces the old one. Whatever the caller waits
    /// for — a token's completion, [`Self::is_member`] — it re-checks after
    /// a `true`: a completion that landed before the registration wakes
    /// nobody. An entry is woken once, by the first completion past its
    /// episode or by poison, and may outlive the future that made it.
    ///
    /// The default says false. The stock backends with a release word park
    /// (the completer wakes them after it publishes); dissemination does
    /// not, because its waiters drive their own rounds.
    fn register_waker(&self, _id: usize, _episode: u64, _waker: &Waker) -> bool {
        false
    }

    /// Full telemetry snapshot: flat counters plus stall histogram,
    /// arrival spread and per-participant counters. Backends that track
    /// only flat counters fall back to wrapping [`Self::stats`] with empty
    /// telemetry.
    fn telemetry(&self) -> TelemetrySnapshot {
        TelemetrySnapshot::from_base(self.stats())
    }

    /// Blocks until the episode named by `token` completes: an unbounded
    /// [`Self::wait_deadline`].
    ///
    /// # Panics
    ///
    /// If the barrier is poisoned before the episode completes (like
    /// unwrapping a poisoned `std::sync::Mutex`); call
    /// [`Self::wait_deadline`] to observe poisoning as an error instead.
    #[inline]
    fn wait(&self, token: ArrivalToken) -> WaitOutcome {
        match self.wait_deadline(token, Deadline::never()) {
            Ok(outcome) => outcome,
            Err(e) => panic!("barrier wait failed: {e} (use wait_deadline to recover)"),
        }
    }

    /// Abandons an episode from inside it: consumes the token and poisons
    /// the barrier. The aborter's arrival already counted, so the in-flight
    /// episode may still complete — but the aborter will never arrive
    /// again, so without poisoning its peers would hang on the *next*
    /// episode. Call this on a panic path before unwinding past
    /// barrier-using code (the `sched` executor does exactly that for
    /// panicking workers).
    fn abort(&self, token: ArrivalToken) {
        drop(token);
        self.poison();
    }

    /// Arrive and immediately wait: the classic single-point barrier the
    /// paper compares against (a fuzzy barrier with an empty region).
    fn point(&self, id: usize) -> WaitOutcome {
        let token = self.arrive(id);
        self.wait(token)
    }

    /// Runs `region` between arrive and wait — the canonical fuzzy-barrier
    /// shape. Returns the region's result together with the wait outcome.
    fn fuzzy<R>(&self, id: usize, region: impl FnOnce() -> R) -> (R, WaitOutcome)
    where
        Self: Sized,
    {
        let token = self.arrive(id);
        let value = region();
        let outcome = self.wait(token);
        (value, outcome)
    }
}

/// A shared barrier is a barrier: delegating through [`std::sync::Arc`]
/// lets generic layers (the async frontend, the checker's scenarios) wrap
/// an `Arc<dyn SplitBarrier>` or `Arc<ConcreteBackend>` without caring
/// which they were handed. Forwards what an implementor may have answered;
/// the derived methods reach the backend through these.
impl<B: SplitBarrier + ?Sized> SplitBarrier for std::sync::Arc<B> {
    fn arrive(&self, id: usize) -> ArrivalToken {
        (**self).arrive(id)
    }

    fn is_complete(&self, token: &ArrivalToken) -> bool {
        (**self).is_complete(token)
    }

    fn wait_deadline(
        &self,
        token: ArrivalToken,
        deadline: Deadline,
    ) -> Result<WaitOutcome, BarrierError> {
        (**self).wait_deadline(token, deadline)
    }

    fn poison(&self) {
        (**self).poison();
    }

    fn clear_poison(&self) {
        (**self).clear_poison();
    }

    fn is_poisoned(&self) -> bool {
        (**self).is_poisoned()
    }

    fn participants(&self) -> usize {
        (**self).participants()
    }

    fn stats(&self) -> StatsSnapshot {
        (**self).stats()
    }

    fn release_epoch(&self) -> Option<u64> {
        (**self).release_epoch()
    }

    fn evict(&self, id: usize) -> Result<(), BarrierError> {
        (**self).evict(id)
    }

    fn admit(&self, id: usize) -> Result<(), BarrierError> {
        (**self).admit(id)
    }

    fn is_member(&self, id: usize) -> bool {
        (**self).is_member(id)
    }

    fn register_waker(&self, id: usize, episode: u64, waker: &Waker) -> bool {
        (**self).register_waker(id, episode, waker)
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        (**self).telemetry()
    }
}

/// The default fuzzy barrier: the centralized sense-reversing backend
/// under the name the paper gives the mechanism.
///
/// # Examples
///
/// ```
/// use fuzzy_barrier::{FuzzyBarrier, SplitBarrier};
/// use std::sync::Arc;
///
/// let barrier = Arc::new(FuzzyBarrier::new(2));
/// std::thread::scope(|s| {
///     for id in 0..2 {
///         let b = Arc::clone(&barrier);
///         s.spawn(move || {
///             let token = b.arrive(id);
///             // barrier region: overlap work with synchronization
///             let outcome = b.wait(token);
///             assert_eq!(outcome.episode, 0);
///         });
///     }
/// });
/// ```
pub type FuzzyBarrier = CentralBarrier;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_participant_never_stalls() {
        let b = FuzzyBarrier::new(1);
        for episode in 0..10 {
            let t = b.arrive(0);
            assert_eq!(t.episode(), episode);
            assert!(b.is_complete(&t));
            let o = b.wait(t);
            assert!(!o.stalled);
            assert_eq!(o.episode, episode);
        }
        assert_eq!(b.stats().episodes, 10);
    }

    #[test]
    fn fuzzy_helper_runs_region_between_phases() {
        let b = FuzzyBarrier::new(1);
        let (value, outcome) = b.fuzzy(0, || 41 + 1);
        assert_eq!(value, 42);
        assert_eq!(outcome.episode, 0);
    }

    #[test]
    fn point_is_arrive_plus_wait() {
        let b = FuzzyBarrier::new(1);
        let o = b.point(0);
        assert_eq!(o.episode, 0);
        assert_eq!(b.stats().episodes, 1);
    }

    #[test]
    fn two_threads_many_episodes() {
        let b = Arc::new(FuzzyBarrier::new(2));
        std::thread::scope(|s| {
            for id in 0..2 {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for e in 0..1000u64 {
                        let t = b.arrive(id);
                        assert_eq!(t.episode(), e);
                        let o = b.wait(t);
                        assert_eq!(o.episode, e);
                    }
                });
            }
        });
        assert_eq!(b.stats().episodes, 1000);
        assert_eq!(b.stats().arrivals, 2000);
    }
}

//! The split-phase barrier trait and the [`FuzzyBarrier`] front door.

use crate::centralized::CentralBarrier;
use crate::error::BarrierError;
use crate::failure::{Deadline, OnTimeout, WaitPolicy};
use crate::spin::StallPolicy;
use crate::stats::{StatsSnapshot, TelemetrySnapshot};
use crate::token::{ArrivalToken, WaitOutcome};

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

    /// The backend's release word, if it has one: `Some(k)` promises that
    /// **for every participant id** `is_complete(token(id, e)) == (e < k)`,
    /// and costs one `Acquire` load. Episodes release in order, for all
    /// participants at once, through that single word — Scott's fuzzy
    /// central barrier's one global word that every departing thread reads.
    ///
    /// A layer that tracks many waiters (the async frontend's waker
    /// registry) asks this once instead of probing each waiter: everything
    /// parked for an episode below `k` is released, nothing else is. The
    /// value is monotone and, like `is_complete`, a `k` observed after
    /// acquiring a lock that a completing arriver released covers that
    /// arrival.
    ///
    /// `None` (the default) means completion is per participant —
    /// cooperative backends whose `is_complete` help-drives the probed
    /// id's rounds (dissemination, hier, the network barrier) — or that
    /// the type is a wrapper with bookkeeping of its own; callers must
    /// then fall back to `is_complete` per token.
    fn release_epoch(&self) -> Option<u64> {
        None
    }

    /// Blocks (per the backend's [`StallPolicy`]) until the episode named by
    /// `token` completes.
    ///
    /// If the barrier is poisoned before the episode completes,
    /// implementations with poison support **panic** (like unwrapping a
    /// poisoned `std::sync::Mutex`); use [`Self::wait_deadline`] or
    /// [`Self::wait_with`] to observe poisoning as an error instead.
    fn wait(&self, token: ArrivalToken) -> WaitOutcome;

    /// Bounded, poison-aware wait: blocks until the episode named by
    /// `token` completes, the barrier is poisoned
    /// ([`BarrierError::Poisoned`]), or `deadline` passes
    /// ([`BarrierError::Timeout`]). Completion wins over both faults.
    ///
    /// On `Err` the arrival still counted — the caller may probe again
    /// later (via a fresh bounded wait on a reconstructed token is *not*
    /// possible; tokens are consumed), [`Self::evict`] the straggler so the
    /// episode completes, or [`Self::poison`] the barrier to release peers.
    ///
    /// The default implementation ignores the deadline and cannot observe
    /// poison (it delegates to plain [`Self::wait`]); the episode core
    /// ([`crate::Barrier`]) overrides it for the five stock backends.
    fn wait_deadline(
        &self,
        token: ArrivalToken,
        deadline: Deadline,
    ) -> Result<WaitOutcome, BarrierError> {
        let _ = deadline;
        Ok(self.wait(token))
    }

    /// Waits under a full [`WaitPolicy`]: optional deadline, optional stall
    /// policy override, and a timeout reaction (for
    /// [`OnTimeout::Poison`], the barrier is poisoned before the
    /// [`BarrierError::Timeout`] is returned, releasing every other
    /// waiter).
    ///
    /// The default implementation layers the timeout reaction over
    /// [`Self::wait_deadline`]; the episode core overrides it to also
    /// honor the `backoff` override.
    fn wait_with(
        &self,
        token: ArrivalToken,
        policy: &WaitPolicy,
    ) -> Result<WaitOutcome, BarrierError> {
        let result = self.wait_deadline(token, policy.arm());
        if matches!(result, Err(BarrierError::Timeout { .. }))
            && policy.on_timeout == OnTimeout::Poison
        {
            self.poison();
        }
        result
    }

    /// Poisons the barrier: every current and future bounded wait returns
    /// [`BarrierError::Poisoned`] (and plain [`Self::wait`] panics) until
    /// [`Self::clear_poison`]. Completion still wins for episodes that
    /// manage to complete. The default implementation is a no-op for
    /// backends without poison support.
    fn poison(&self) {}

    /// Clears a poisoned barrier (like `std::sync::Mutex::clear_poison`),
    /// typically after the failed participant has been [`Self::evict`]ed
    /// and recovery is complete.
    fn clear_poison(&self) {}

    /// True if the barrier is currently poisoned.
    fn is_poisoned(&self) -> bool {
        false
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
    /// The default implementation reports
    /// [`BarrierError::EvictionUnsupported`].
    fn evict(&self, id: usize) -> Result<(), BarrierError> {
        let _ = id;
        Err(BarrierError::EvictionUnsupported)
    }

    /// Number of participants.
    fn participants(&self) -> usize;

    /// Snapshot of this barrier's accumulated statistics.
    fn stats(&self) -> StatsSnapshot;

    /// Full telemetry snapshot: flat counters plus stall histogram,
    /// arrival spread and per-participant counters. Backends that track
    /// only flat counters fall back to wrapping [`Self::stats`] with empty
    /// telemetry.
    fn telemetry(&self) -> TelemetrySnapshot {
        TelemetrySnapshot::from_base(self.stats())
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
/// which they were handed.
impl<B: SplitBarrier + ?Sized> SplitBarrier for std::sync::Arc<B> {
    fn arrive(&self, id: usize) -> ArrivalToken {
        (**self).arrive(id)
    }

    fn is_complete(&self, token: &ArrivalToken) -> bool {
        (**self).is_complete(token)
    }

    fn release_epoch(&self) -> Option<u64> {
        (**self).release_epoch()
    }

    fn wait(&self, token: ArrivalToken) -> WaitOutcome {
        (**self).wait(token)
    }

    fn wait_deadline(
        &self,
        token: ArrivalToken,
        deadline: Deadline,
    ) -> Result<WaitOutcome, BarrierError> {
        (**self).wait_deadline(token, deadline)
    }

    fn wait_with(
        &self,
        token: ArrivalToken,
        policy: &WaitPolicy,
    ) -> Result<WaitOutcome, BarrierError> {
        (**self).wait_with(token, policy)
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

    fn abort(&self, token: ArrivalToken) {
        (**self).abort(token);
    }

    fn evict(&self, id: usize) -> Result<(), BarrierError> {
        (**self).evict(id)
    }

    fn participants(&self) -> usize {
        (**self).participants()
    }

    fn stats(&self) -> StatsSnapshot {
        (**self).stats()
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        (**self).telemetry()
    }
}

/// The default fuzzy barrier: a [`SplitBarrier`] backend (centralized
/// sense-reversing by default) behind a thin, well-documented front door.
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
#[derive(Debug)]
pub struct FuzzyBarrier<B: SplitBarrier = CentralBarrier> {
    inner: B,
}

impl FuzzyBarrier<CentralBarrier> {
    /// Creates a fuzzy barrier for `n` participants with the default
    /// (centralized sense-reversing) backend and default stall policy.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        FuzzyBarrier {
            inner: CentralBarrier::new(n),
        }
    }

    /// Creates a fuzzy barrier with an explicit stall policy.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_policy(n: usize, policy: StallPolicy) -> Self {
        FuzzyBarrier {
            inner: CentralBarrier::with_policy(n, policy),
        }
    }
}

impl<B: SplitBarrier> FuzzyBarrier<B> {
    /// Wraps an arbitrary backend.
    #[must_use]
    pub fn from_backend(backend: B) -> Self {
        FuzzyBarrier { inner: backend }
    }

    /// Borrows the underlying backend.
    #[must_use]
    pub fn backend(&self) -> &B {
        &self.inner
    }

    /// Unwraps the underlying backend.
    #[must_use]
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: SplitBarrier> SplitBarrier for FuzzyBarrier<B> {
    fn arrive(&self, id: usize) -> ArrivalToken {
        self.inner.arrive(id)
    }

    fn is_complete(&self, token: &ArrivalToken) -> bool {
        self.inner.is_complete(token)
    }

    fn release_epoch(&self) -> Option<u64> {
        self.inner.release_epoch()
    }

    fn wait(&self, token: ArrivalToken) -> WaitOutcome {
        self.inner.wait(token)
    }

    fn wait_deadline(
        &self,
        token: ArrivalToken,
        deadline: Deadline,
    ) -> Result<WaitOutcome, BarrierError> {
        self.inner.wait_deadline(token, deadline)
    }

    fn wait_with(
        &self,
        token: ArrivalToken,
        policy: &WaitPolicy,
    ) -> Result<WaitOutcome, BarrierError> {
        self.inner.wait_with(token, policy)
    }

    fn poison(&self) {
        self.inner.poison();
    }

    fn clear_poison(&self) {
        self.inner.clear_poison();
    }

    fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }

    fn abort(&self, token: ArrivalToken) {
        self.inner.abort(token);
    }

    fn evict(&self, id: usize) -> Result<(), BarrierError> {
        self.inner.evict(id)
    }

    fn participants(&self) -> usize {
        self.inner.participants()
    }

    fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        self.inner.telemetry()
    }
}

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

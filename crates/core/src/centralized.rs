//! Centralized (single-counter) split-phase barrier.

use crate::error::BarrierError;
use crate::failure::{self, Deadline, OnTimeout, WaitPolicy};
use crate::spin::StallPolicy;
use crate::stats::{BarrierStats, StatsSnapshot, TelemetrySnapshot};
use crate::sync::{Atomic, RealSync, SyncOps};
use crate::token::{ArrivalToken, WaitOutcome};
use crate::SplitBarrier;
use fuzzy_util::CachePadded;
use std::sync::atomic::Ordering;

/// A centralized split-phase barrier: one shared count-down word plus a
/// 64-bit episode number that plays the role of the classic sense flag.
///
/// This is the epoch-based variant of the sense-reversing centralized
/// barrier. The last participant to arrive resets the counter and bumps the
/// episode; waiters spin until the episode advances past the one captured
/// in their [`ArrivalToken`]. A 64-bit epoch has no reuse hazard, which is
/// the only job the sense flag performs in the boolean formulation.
///
/// The shared counter is the **hot-spot** the paper warns about (Sec. 1):
/// every participant performs a read-modify-write on the same cache line
/// per episode, so arrival cost grows linearly with contention. The
/// [`crate::DisseminationBarrier`] and [`crate::TreeBarrier`] backends avoid
/// it; keeping this backend around is what lets the experiment suite show
/// the contrast.
///
/// # Examples
///
/// ```
/// use fuzzy_barrier::{CentralBarrier, SplitBarrier};
///
/// let b = CentralBarrier::new(1);
/// let token = b.arrive(0);
/// let outcome = b.wait(token);
/// assert!(!outcome.stalled);
/// ```
#[derive(Debug)]
pub struct CentralBarrier<S: SyncOps = RealSync> {
    n: usize,
    policy: StallPolicy,
    /// Participants still in the barrier (decreased by [`Self::leave`]).
    expected: CachePadded<S::AtomicUsize>,
    /// Remaining arrivals in the current episode (counts down from
    /// `expected`).
    count: CachePadded<S::AtomicUsize>,
    /// Number of completed episodes; the release word waiters spin on.
    episode: CachePadded<S::AtomicU64>,
    /// Per-participant count of arrivals performed, used to stamp tokens.
    local_episode: Vec<CachePadded<S::AtomicU64>>,
    /// Non-zero once the barrier is poisoned (see [`SplitBarrier::poison`]).
    poisoned: CachePadded<S::AtomicU32>,
    /// Per-participant eviction flags (non-zero once evicted).
    evicted: Vec<CachePadded<S::AtomicU32>>,
    stats: BarrierStats,
}

impl CentralBarrier {
    /// Creates a barrier for `n` participants with the default stall policy.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::with_policy(n, StallPolicy::default())
    }

    /// Creates a barrier with an explicit [`StallPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_policy(n: usize, policy: StallPolicy) -> Self {
        Self::with_policy_in(n, policy)
    }
}

impl<S: SyncOps> CentralBarrier<S> {
    /// Creates a barrier in an explicit [`SyncOps`] domain — `RealSync` in
    /// production, instrumented shadow state under the `fuzzy-check` model
    /// checker.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_policy_in(n: usize, policy: StallPolicy) -> Self {
        assert!(n > 0, "a barrier needs at least one participant");
        CentralBarrier {
            n,
            policy,
            expected: CachePadded::new(S::AtomicUsize::new(n)),
            count: CachePadded::new(S::AtomicUsize::new(n)),
            episode: CachePadded::new(S::AtomicU64::new(0)),
            local_episode: (0..n)
                .map(|_| CachePadded::new(S::AtomicU64::new(0)))
                .collect(),
            poisoned: CachePadded::new(S::AtomicU32::new(0)),
            evicted: (0..n)
                .map(|_| CachePadded::new(S::AtomicU32::new(0)))
                .collect(),
            stats: BarrierStats::with_participants(n),
        }
    }

    /// The stall policy waits use.
    #[must_use]
    pub fn policy(&self) -> StallPolicy {
        self.policy
    }

    /// Participants still in the barrier (the construction count minus
    /// departures via [`Self::leave`]).
    #[must_use]
    pub fn remaining_participants(&self) -> usize {
        self.expected.load(Ordering::Acquire)
    }

    /// Permanently removes participant `id` from the barrier — the
    /// analogue of C++20 `std::barrier::arrive_and_drop`, useful when
    /// streams are destroyed dynamically (Sec. 5). The departure counts
    /// as an arrival for the current episode (possibly completing it);
    /// subsequent episodes expect one fewer participant. The departed
    /// participant must not call `arrive` or `wait` again.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or if called when only one
    /// participant remains (a barrier needs at least one).
    pub fn leave(&self, id: usize) {
        self.check_id(id);
        // Shrink the expectation BEFORE the arrival decrement: the episode
        // resetter reads `expected` after winning the count, and the RMW
        // chain on `count` orders this store before that read.
        let prev = self.expected.fetch_sub(1, Ordering::AcqRel);
        assert!(
            prev > 1,
            "the last remaining participant cannot leave the barrier"
        );
        let episode = self.local_episode[id].load(Ordering::Relaxed);
        self.stats.record_arrival(id, episode);
        self.count_down(id);
    }

    /// One arrival — real, departing or an eviction's stand-in — against
    /// the count-down word, made by recorder `who`. The last one re-arms
    /// the counter for the next episode, then publishes completion. The
    /// order matters — participants released by the episode bump may
    /// immediately arrive again and must see a full counter. The
    /// expectation is re-read because participants may have left (see
    /// [`Self::leave`]).
    fn count_down(&self, who: usize) {
        if self.count.fetch_sub(1, Ordering::AcqRel) == 1 {
            let expected = self.expected.load(Ordering::Acquire);
            self.count.store(expected, Ordering::Release);
            let completed = self.episode.fetch_add(1, Ordering::Release);
            self.stats.record_episode(who, completed);
        }
    }

    fn check_id(&self, id: usize) {
        assert!(
            id < self.n,
            "participant id {id} out of range for {} participants",
            self.n
        );
    }

    /// The poison-aware bounded wait all wait flavors funnel through.
    fn wait_core(
        &self,
        token: &ArrivalToken,
        deadline: Deadline,
        policy: StallPolicy,
    ) -> Result<WaitOutcome, BarrierError> {
        // Adaptive policies become a concrete budget sized by this
        // barrier's wait-cost history; everything else passes through.
        let policy = self.stats.resolve_policy(token.id, policy);
        let result = failure::guarded_wait::<S>(
            policy,
            deadline,
            token.episode,
            || self.episode.load(Ordering::Acquire) > token.episode,
            || self.poisoned.load(Ordering::Acquire) != 0,
        );
        match result {
            Ok(outcome) => {
                self.stats.record_wait(token.id, &outcome);
                Ok(outcome)
            }
            Err(fault) => {
                if matches!(fault.error, BarrierError::Timeout { .. }) {
                    self.stats.record_timeout(token.id, &fault.report);
                }
                Err(fault.error)
            }
        }
    }
}

impl<S: SyncOps> SplitBarrier for CentralBarrier<S> {
    fn arrive(&self, id: usize) -> ArrivalToken {
        self.check_id(id);
        let episode = self.local_episode[id].fetch_add(1, Ordering::Relaxed);
        self.stats.record_arrival(id, episode);
        self.count_down(id);
        ArrivalToken::new(id, episode)
    }

    fn is_complete(&self, token: &ArrivalToken) -> bool {
        self.episode.load(Ordering::Acquire) > token.episode
    }

    fn release_epoch(&self) -> Option<u64> {
        Some(self.episode.load(Ordering::Acquire))
    }

    fn wait(&self, token: ArrivalToken) -> WaitOutcome {
        match self.wait_core(&token, Deadline::never(), self.policy) {
            Ok(outcome) => outcome,
            Err(e) => panic!("CentralBarrier::wait failed: {e} (use wait_deadline to recover)"),
        }
    }

    fn wait_deadline(
        &self,
        token: ArrivalToken,
        deadline: Deadline,
    ) -> Result<WaitOutcome, BarrierError> {
        self.wait_core(&token, deadline, self.policy)
    }

    fn wait_with(
        &self,
        token: ArrivalToken,
        policy: &WaitPolicy,
    ) -> Result<WaitOutcome, BarrierError> {
        let backoff = policy.backoff.unwrap_or(self.policy);
        let result = self.wait_core(&token, policy.arm(), backoff);
        if matches!(result, Err(BarrierError::Timeout { .. }))
            && policy.on_timeout == OnTimeout::Poison
        {
            self.poison();
        }
        result
    }

    fn poison(&self) {
        if self.poisoned.fetch_max(1, Ordering::AcqRel) == 0 {
            self.stats.record_poisoning();
        }
    }

    fn clear_poison(&self) {
        self.poisoned.store(0, Ordering::Release);
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire) != 0
    }

    fn evict(&self, id: usize) -> Result<(), BarrierError> {
        if id >= self.n {
            return Err(BarrierError::InvalidParticipant {
                id,
                capacity: self.n,
            });
        }
        // A dead id stays dead regardless of how many live remain, so the
        // already-evicted check comes first; the RMW below re-checks it
        // when claiming. (Concurrent evictions that race past the
        // EmptyGroup check toward an empty barrier are a caller contract
        // violation, as for `leave`.)
        if self.evicted[id].load(Ordering::Acquire) != 0 {
            return Err(BarrierError::NotAParticipant { id });
        }
        if self.expected.load(Ordering::Acquire) <= 1 {
            return Err(BarrierError::EmptyGroup);
        }
        if self.evicted[id].fetch_max(1, Ordering::AcqRel) != 0 {
            return Err(BarrierError::NotAParticipant { id });
        }
        self.stats.record_eviction();
        // Same discipline as `leave`: shrink the expectation BEFORE the
        // stand-in arrival decrement, so the episode resetter (ordered
        // after us by the RMW chain on `count`) re-arms with the shrunk
        // value. The evicted participant must not have arrived for the
        // in-flight episode — this decrement is its stand-in arrival.
        self.expected.fetch_sub(1, Ordering::AcqRel);
        // The evictor is not the evicted participant's thread.
        self.count_down(BarrierStats::NOT_A_PARTICIPANT);
        Ok(())
    }

    fn participants(&self) -> usize {
        self.n
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        self.stats.telemetry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_panics() {
        let _ = CentralBarrier::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_id_panics() {
        let b = CentralBarrier::new(2);
        let _ = b.arrive(2);
    }

    #[test]
    fn episodes_advance_in_order() {
        let b = CentralBarrier::new(1);
        for e in 0..5 {
            let t = b.arrive(0);
            assert_eq!(t.episode(), e);
            assert!(b.is_complete(&t));
            b.wait(t);
        }
    }

    #[test]
    fn four_threads_thousand_episodes() {
        let n = 4;
        let b = Arc::new(CentralBarrier::new(n));
        std::thread::scope(|s| {
            for id in 0..n {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for e in 0..1000u64 {
                        let t = b.arrive(id);
                        let o = b.wait(t);
                        assert_eq!(o.episode, e);
                    }
                });
            }
        });
        let s = b.stats();
        assert_eq!(s.episodes, 1000);
        assert_eq!(s.arrivals, 4000);
        assert_eq!(s.waits, 4000);
    }

    #[test]
    fn barrier_actually_separates_phases() {
        // Writer/reader pairs: each thread writes its cell before the
        // barrier and reads its neighbour's after; the value must always be
        // the neighbour's write from the same phase.
        use std::sync::atomic::AtomicU64;
        let n = 4;
        let cells: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let b = Arc::new(CentralBarrier::new(n));
        std::thread::scope(|s| {
            for id in 0..n {
                let b = Arc::clone(&b);
                let cells = Arc::clone(&cells);
                s.spawn(move || {
                    for phase in 1..=500u64 {
                        cells[id].store(phase, Ordering::Release);
                        let t = b.arrive(id);
                        b.wait(t);
                        let neighbour = cells[(id + 1) % n].load(Ordering::Acquire);
                        assert!(
                            neighbour >= phase,
                            "participant {id} saw stale phase {neighbour} < {phase}"
                        );
                        // A second barrier keeps phases from overlapping the
                        // next store.
                        let t = b.arrive(id);
                        b.wait(t);
                    }
                });
            }
        });
    }

    #[test]
    fn leaving_shrinks_the_barrier() {
        let b = Arc::new(CentralBarrier::new(3));
        std::thread::scope(|s| {
            // Participant 2 runs one episode, then leaves.
            let b2 = Arc::clone(&b);
            s.spawn(move || {
                let t = b2.arrive(2);
                b2.wait(t);
                b2.leave(2);
            });
            for id in 0..2 {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for _ in 0..50 {
                        let t = b.arrive(id);
                        b.wait(t);
                    }
                });
            }
        });
        assert_eq!(b.remaining_participants(), 2);
        assert_eq!(b.stats().episodes, 50);
    }

    #[test]
    fn leave_can_complete_the_current_episode() {
        let b = Arc::new(CentralBarrier::new(2));
        std::thread::scope(|s| {
            let b0 = Arc::clone(&b);
            s.spawn(move || {
                let t = b0.arrive(0);
                // Participant 1 never arrives — it leaves instead, which
                // must release us.
                let o = b0.wait(t);
                assert_eq!(o.episode, 0);
            });
            let b1 = Arc::clone(&b);
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                b1.leave(1);
            });
        });
        assert_eq!(b.remaining_participants(), 1);
        // The lone survivor can keep synchronizing with itself.
        let t = b.arrive(0);
        assert!(!b.wait(t).stalled);
    }

    #[test]
    #[should_panic(expected = "last remaining participant")]
    fn last_participant_cannot_leave() {
        let b = CentralBarrier::new(1);
        b.leave(0);
    }

    #[test]
    fn stalled_participant_times_out_then_eviction_recovers() {
        // The headline fault story at N=4: participant 3 permanently stalls
        // before arriving. Peers no longer deadlock — they observe a
        // Timeout within their deadline, the straggler is evicted, and the
        // survivors complete the next episode.
        let n = 4;
        let b = Arc::new(CentralBarrier::new(n));
        std::thread::scope(|s| {
            let mut waiters = Vec::new();
            for id in 0..3 {
                let b = Arc::clone(&b);
                waiters.push(s.spawn(move || {
                    let t = b.arrive(id);
                    let err = b
                        .wait_deadline(t, Deadline::after(std::time::Duration::from_millis(30)))
                        .unwrap_err();
                    assert_eq!(err, BarrierError::Timeout { episode: 0 });
                }));
            }
            for w in waiters {
                w.join().unwrap();
            }
        });
        // Evict the straggler: its stand-in arrival completes episode 0.
        b.evict(3).unwrap();
        assert_eq!(b.remaining_participants(), 3);
        // Survivors re-synchronize on the next episode.
        std::thread::scope(|s| {
            for id in 0..3 {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    let t = b.arrive(id);
                    let o = b.wait(t);
                    assert_eq!(o.episode, 1);
                });
            }
        });
        let stats = b.stats();
        assert_eq!(stats.timeouts, 3);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.episodes, 2);
    }

    #[test]
    fn poison_releases_unbounded_deadline_waiters() {
        let b = Arc::new(CentralBarrier::new(2));
        std::thread::scope(|s| {
            let b0 = Arc::clone(&b);
            s.spawn(move || {
                let t = b0.arrive(0);
                let err = b0.wait_deadline(t, Deadline::never()).unwrap_err();
                assert_eq!(err, BarrierError::Poisoned { episode: 0 });
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            b.poison();
        });
        assert!(b.is_poisoned());
        assert_eq!(b.stats().poisonings, 1);
        // Recovery: clear the poison, evict the participant that never
        // arrived, and the survivor synchronizes alone from then on.
        b.clear_poison();
        assert!(!b.is_poisoned());
        b.evict(1).unwrap();
        let t = b.arrive(0);
        assert_eq!(b.wait(t).episode, 1);
    }

    #[test]
    #[should_panic(expected = "use wait_deadline to recover")]
    fn plain_wait_panics_on_poison() {
        let b = CentralBarrier::new(2);
        let t = b.arrive(0);
        b.poison();
        let _ = b.wait(t);
    }

    #[test]
    fn abort_consumes_token_and_poisons() {
        let b = CentralBarrier::new(2);
        let t = b.arrive(0);
        b.abort(t);
        assert!(b.is_poisoned());
    }

    #[test]
    fn completion_wins_over_poison() {
        let b = CentralBarrier::new(1);
        let t = b.arrive(0); // n == 1: the episode completes immediately
        b.poison();
        let o = b
            .wait_deadline(t, Deadline::never())
            .expect("completed episode must win over poison");
        assert_eq!(o.episode, 0);
    }

    #[test]
    fn wait_with_poison_on_timeout_releases_peers() {
        // Participant 2 never arrives. Participant 0 escalates its timeout
        // to a poisoning, which releases participant 1's unbounded wait.
        let b = Arc::new(CentralBarrier::new(3));
        std::thread::scope(|s| {
            let b0 = Arc::clone(&b);
            s.spawn(move || {
                let t = b0.arrive(0);
                let policy = WaitPolicy::new()
                    .deadline(std::time::Duration::from_millis(20))
                    .on_timeout(OnTimeout::Poison);
                let err = b0.wait_with(t, &policy).unwrap_err();
                assert_eq!(err, BarrierError::Timeout { episode: 0 });
            });
            let b1 = Arc::clone(&b);
            s.spawn(move || {
                let t = b1.arrive(1);
                let err = b1.wait_deadline(t, Deadline::never()).unwrap_err();
                assert_eq!(err, BarrierError::Poisoned { episode: 0 });
            });
        });
        assert!(b.is_poisoned());
    }

    #[test]
    fn evict_guards_reject_bad_ids() {
        let b = CentralBarrier::new(2);
        assert_eq!(
            b.evict(5).unwrap_err(),
            BarrierError::InvalidParticipant { id: 5, capacity: 2 }
        );
        b.evict(1).unwrap();
        assert_eq!(
            b.evict(1).unwrap_err(),
            BarrierError::NotAParticipant { id: 1 }
        );
        assert_eq!(b.evict(0).unwrap_err(), BarrierError::EmptyGroup);
        // The survivor still synchronizes: its arrival joins the evictee's
        // stand-in arrival to complete episode 0.
        let t = b.arrive(0);
        assert_eq!(b.wait(t).episode, 0);
    }

    #[test]
    fn stall_detection_sees_late_arriver() {
        let b = Arc::new(CentralBarrier::new(2));
        std::thread::scope(|s| {
            let early = Arc::clone(&b);
            s.spawn(move || {
                let t = early.arrive(0);
                let o = early.wait(t);
                assert_eq!(o.episode, 0);
            });
            let late = Arc::clone(&b);
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                let t = late.arrive(1);
                let o = late.wait(t);
                // The last arriver completes the episode itself, so it
                // must not stall.
                assert!(!o.stalled);
            });
        });
        assert!(
            b.stats().stalls >= 1,
            "the early thread should have stalled"
        );
    }
}

//! Flat counting split-phase barrier (the maximal hot-spot baseline).

use crate::error::BarrierError;
use crate::failure::{self, Deadline, OnTimeout, WaitPolicy};
use crate::spin::StallPolicy;
use crate::stats::{BarrierStats, StatsSnapshot, TelemetrySnapshot};
use crate::sync::{Atomic, RealSync, SyncOps};
use crate::token::{ArrivalToken, WaitOutcome};
use crate::SplitBarrier;
use fuzzy_util::CachePadded;
use std::sync::atomic::Ordering;

/// A split-phase barrier built on a single monotone arrival counter.
///
/// Episode *e* is complete once `arrivals >= (e + 1) * n`. Both arrivers
/// and waiters touch the **same** word, making this the most hot-spot-prone
/// design possible — deliberately so: the paper's Sec. 1 argument is that
/// shared-variable barriers "are known to cause hot-spot accesses", and the
/// experiment suite uses this backend as the worst-case software baseline.
///
/// # Examples
///
/// ```
/// use fuzzy_barrier::{CountingBarrier, SplitBarrier};
///
/// let b = CountingBarrier::new(1);
/// let t = b.arrive(0);
/// assert!(b.wait(t).episode == 0);
/// ```
#[derive(Debug)]
pub struct CountingBarrier<S: SyncOps = RealSync> {
    n: usize,
    policy: StallPolicy,
    /// Packed arrival word: the low [`DEAD_SHIFT`] bits count arrivals
    /// (real, stand-in, and ghost), the high bits count evicted
    /// participants. One word so an eviction's stand-in arrival and its
    /// dead-count increment land in a *single* RMW: the episode completer
    /// reads the dead count from the very value that crossed the boundary,
    /// leaving no window in which a racing eviction gets paid twice (once
    /// by its own stand-in, once by the completer's pre-pay). Found by the
    /// fuzzy-check evict scenario.
    arrivals: CachePadded<S::AtomicU64>,
    local_episode: Vec<CachePadded<S::AtomicU64>>,
    /// Non-zero once the barrier is poisoned.
    poisoned: CachePadded<S::AtomicU32>,
    /// Per-participant eviction flags (non-zero once evicted).
    evicted: Vec<CachePadded<S::AtomicU32>>,
    stats: BarrierStats,
}

/// Bit position of the dead-participant count inside the packed arrival
/// word. 48 bits of arrivals (~10^14 before overflow) leave 16 bits of
/// evictions — both far beyond any reachable configuration.
const DEAD_SHIFT: u32 = 48;
const COUNT_MASK: u64 = (1 << DEAD_SHIFT) - 1;

/// The arrival count of a packed word.
fn count(packed: u64) -> u64 {
    packed & COUNT_MASK
}

/// The eviction count of a packed word.
fn dead(packed: u64) -> u64 {
    packed >> DEAD_SHIFT
}

impl CountingBarrier {
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

impl<S: SyncOps> CountingBarrier<S> {
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
        CountingBarrier {
            n,
            policy,
            arrivals: CachePadded::new(S::AtomicU64::new(0)),
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

    fn threshold(&self, episode: u64) -> u64 {
        (episode + 1) * self.n as u64
    }

    /// Adds `delta` to the packed arrival word and runs the
    /// episode-completion duties for the boundary the add crossed, if any.
    ///
    /// The counter is monotone, so exactly one add crosses each episode
    /// boundary — and that add's own return value carries the dead count
    /// as of the crossing instant. The crosser pre-pays the **next**
    /// episode's ghost arrivals, one per evicted participant, decided at
    /// the atomic moment the episode completed: an eviction that lands
    /// after the crossing is *not* pre-paid here (its own stand-in
    /// arrival covers the in-flight episode, and the next crosser will see
    /// it). A pre-payment can itself cross the next boundary when the
    /// survivors raced a whole episode ahead of it, hence the loop.
    /// `who` is the statistics recorder making the add.
    fn add_and_settle(&self, mut delta: u64, who: usize) {
        let n = self.n as u64;
        loop {
            let before = self.arrivals.fetch_add(delta, Ordering::AcqRel);
            let after = before + delta;
            // Each step adds at most n − 1 to the count (one arrival, or
            // one ghost per evicted participant), so at most one boundary
            // lies in (before, after].
            if count(after) / n == count(before) / n {
                return;
            }
            self.stats.record_episode(who, count(after) / n - 1);
            let ghosts = dead(after);
            if ghosts == 0 {
                return;
            }
            delta = ghosts;
        }
    }

    /// The poison-aware bounded wait all wait flavors funnel through.
    fn wait_core(
        &self,
        token: &ArrivalToken,
        deadline: Deadline,
        policy: StallPolicy,
    ) -> Result<WaitOutcome, BarrierError> {
        let threshold = self.threshold(token.episode);
        let policy = self.stats.resolve_policy(token.id, policy);
        let result = failure::guarded_wait::<S>(
            policy,
            deadline,
            token.episode,
            || count(self.arrivals.load(Ordering::Acquire)) >= threshold,
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

impl<S: SyncOps> SplitBarrier for CountingBarrier<S> {
    fn arrive(&self, id: usize) -> ArrivalToken {
        assert!(
            id < self.n,
            "participant id {id} out of range for {} participants",
            self.n
        );
        let episode = self.local_episode[id].fetch_add(1, Ordering::Relaxed);
        self.stats.record_arrival(id, episode);
        self.add_and_settle(1, id);
        ArrivalToken::new(id, episode)
    }

    fn is_complete(&self, token: &ArrivalToken) -> bool {
        count(self.arrivals.load(Ordering::Acquire)) >= self.threshold(token.episode)
    }

    fn release_epoch(&self) -> Option<u64> {
        Some(count(self.arrivals.load(Ordering::Acquire)) / self.n as u64)
    }

    fn wait(&self, token: ArrivalToken) -> WaitOutcome {
        match self.wait_core(&token, Deadline::never(), self.policy) {
            Ok(outcome) => outcome,
            Err(e) => panic!("CountingBarrier::wait failed: {e} (use wait_deadline to recover)"),
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
        // Already-dead ids are rejected before the EmptyGroup guard: a
        // dead id stays dead regardless of how many live remain.
        if self.evicted[id].load(Ordering::Acquire) != 0 {
            return Err(BarrierError::NotAParticipant { id });
        }
        if dead(self.arrivals.load(Ordering::Acquire)) + 1 >= self.n as u64 {
            return Err(BarrierError::EmptyGroup);
        }
        if self.evicted[id].fetch_max(1, Ordering::AcqRel) != 0 {
            return Err(BarrierError::NotAParticipant { id });
        }
        self.stats.record_eviction();
        // Pay-forward ghost scheme, in one RMW: the low bit is the
        // stand-in arrival covering the in-flight episode (the evicted
        // participant must not have arrived for it), the high bit
        // registers the permanent ghost. All later episodes are covered
        // by the completer chain: each boundary crosser pre-pays one
        // ghost arrival per participant dead *as of its crossing* for the
        // episode after it — including this one, atomically, because both
        // fields travel in the same word.
        // The evictor is not the evicted participant's thread.
        self.add_and_settle((1u64 << DEAD_SHIFT) | 1, BarrierStats::NOT_A_PARTICIPANT);
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
    fn threshold_math() {
        let b = CountingBarrier::new(3);
        assert_eq!(b.threshold(0), 3);
        assert_eq!(b.threshold(1), 6);
    }

    #[test]
    fn single_thread_round_trips() {
        let b = CountingBarrier::new(1);
        for e in 0..8 {
            let t = b.arrive(0);
            assert_eq!(t.episode(), e);
            assert!(b.is_complete(&t));
            assert_eq!(b.wait(t).episode, e);
        }
        assert_eq!(b.stats().episodes, 8);
    }

    #[test]
    fn waiting_on_stale_token_returns_instantly() {
        let b = CountingBarrier::new(1);
        let t0 = b.arrive(0);
        b.wait(t0);
        let t1 = b.arrive(0);
        // Episode 1 completes the moment the single participant arrives, so
        // this wait is instant even though another episode already passed.
        assert!(!b.wait(t1).stalled);
    }

    #[test]
    fn eviction_pays_ghost_arrivals_forward() {
        // After an eviction the monotone counter must keep crossing episode
        // boundaries exactly once per episode, forever: the completer
        // pre-pays one ghost arrival per evicted participant.
        let b = CountingBarrier::new(4);
        let tokens: Vec<_> = (0..4).map(|id| b.arrive(id)).collect();
        for t in tokens {
            assert_eq!(b.wait(t).episode, 0);
        }
        b.evict(3).unwrap();
        for e in 1..=5 {
            let tokens: Vec<_> = (0..3).map(|id| b.arrive(id)).collect();
            for t in tokens {
                assert_eq!(b.wait(t).episode, e);
            }
        }
        let s = b.stats();
        assert_eq!(s.episodes, 6);
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn eviction_mid_episode_completes_it() {
        // Peers time out on the straggler, the straggler is evicted, and
        // its stand-in arrival completes the in-flight episode.
        let b = Arc::new(CountingBarrier::new(4));
        std::thread::scope(|s| {
            let mut waiters = Vec::new();
            for id in 0..3 {
                let b = Arc::clone(&b);
                waiters.push(s.spawn(move || {
                    let t = b.arrive(id);
                    let err = b
                        .wait_deadline(t, Deadline::after(std::time::Duration::from_millis(20)))
                        .unwrap_err();
                    assert_eq!(err, BarrierError::Timeout { episode: 0 });
                }));
            }
            for w in waiters {
                w.join().unwrap();
            }
        });
        b.evict(3).unwrap();
        // The eviction crossed the episode-0 boundary itself.
        assert_eq!(b.stats().episodes, 1);
        // Survivors complete the next two episodes.
        for e in 1..=2 {
            let tokens: Vec<_> = (0..3).map(|id| b.arrive(id)).collect();
            for t in tokens {
                assert_eq!(b.wait(t).episode, e);
            }
        }
        assert_eq!(b.stats().timeouts, 3);
    }

    #[test]
    fn double_evict_and_last_survivor_rejected() {
        let b = CountingBarrier::new(2);
        b.evict(0).unwrap();
        assert_eq!(
            b.evict(0).unwrap_err(),
            BarrierError::NotAParticipant { id: 0 }
        );
        assert_eq!(b.evict(1).unwrap_err(), BarrierError::EmptyGroup);
    }

    #[test]
    fn poison_unblocks_counting_waiters() {
        let b = Arc::new(CountingBarrier::new(2));
        std::thread::scope(|s| {
            let b0 = Arc::clone(&b);
            s.spawn(move || {
                let t = b0.arrive(0);
                let err = b0.wait_deadline(t, Deadline::never()).unwrap_err();
                assert_eq!(err, BarrierError::Poisoned { episode: 0 });
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
            b.poison();
        });
        assert!(b.is_poisoned());
        b.clear_poison();
        assert!(!b.is_poisoned());
    }

    #[test]
    fn wait_with_backoff_override_and_poison_on_timeout() {
        let b = CountingBarrier::new(2);
        let t = b.arrive(0);
        let policy = WaitPolicy::new()
            .deadline(std::time::Duration::from_millis(5))
            .backoff(StallPolicy::yielding())
            .on_timeout(OnTimeout::Poison);
        let err = b.wait_with(t, &policy).unwrap_err();
        assert_eq!(err, BarrierError::Timeout { episode: 0 });
        assert!(b.is_poisoned(), "OnTimeout::Poison must poison the barrier");
        assert_eq!(b.stats().timeouts, 1);
    }

    #[test]
    fn eight_threads_sync_repeatedly() {
        let n = 8;
        let b = Arc::new(CountingBarrier::new(n));
        std::thread::scope(|s| {
            for id in 0..n {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for e in 0..300u64 {
                        let t = b.arrive(id);
                        assert_eq!(b.wait(t).episode, e);
                    }
                });
            }
        });
        assert_eq!(b.stats().episodes, 300);
    }
}

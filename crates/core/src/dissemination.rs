//! Dissemination split-phase barrier — O(log n) rounds, no hot spot.

use crate::error::BarrierError;
use crate::failure::{self, Deadline, OnTimeout, WaitPolicy};
use crate::spin::StallPolicy;
use crate::stats::{BarrierStats, StatsSnapshot, TelemetrySnapshot};
use crate::sync::{Atomic, RealSync, SyncOps};
use crate::token::{ArrivalToken, WaitOutcome};
use crate::SplitBarrier;
use fuzzy_util::CachePadded;
use std::sync::atomic::Ordering;

/// A dissemination barrier with a split-phase interface.
///
/// In round *r* participant *i* signals participant *(i + 2^r) mod n* and
/// waits for the signal from *(i − 2^r) mod n*; after ⌈log₂ n⌉ rounds every
/// participant transitively knows that everyone arrived. No word is written
/// by more than one participant, so there is no hot spot — this is the
/// "best possible software implementation" with logarithmic cost that the
/// paper cites (\[4\] in Sec. 1).
///
/// The split is cooperative: [`SplitBarrier::arrive`] performs the round-0
/// signal and returns; later rounds progress inside
/// [`SplitBarrier::is_complete`] / [`SplitBarrier::wait`] probes. Signals
/// carry monotone episode numbers, so late observers of an overwritten slot
/// still see a value at least as large as the one they wait for.
///
/// # Examples
///
/// ```
/// use fuzzy_barrier::{DisseminationBarrier, SplitBarrier};
///
/// let b = DisseminationBarrier::new(1);
/// let t = b.arrive(0);
/// assert!(!b.wait(t).stalled);
/// ```
#[derive(Debug)]
pub struct DisseminationBarrier<S: SyncOps = RealSync> {
    n: usize,
    rounds: u32,
    policy: StallPolicy,
    /// `flags[r * n + i]`: highest episode for which the round-`r` signal
    /// aimed at participant `i` has been sent. Single writer per slot.
    ///
    /// False-sharing audit: every slot is individually [`CachePadded`], so
    /// two participants' flags can never share a line regardless of layout.
    /// The slots are kept in **one** round-major allocation (rather than a
    /// `Vec` per round) so the outer spine is a single pointer-width block:
    /// the per-round `Vec` headers (ptr/len/cap triples, 24 bytes apiece)
    /// previously sat adjacent in the spine and were re-read on every probe
    /// next to their neighbours' headers — read-only sharing, but still a
    /// needless dependent load per round. A flat slice makes the indexing
    /// arithmetic (`r * n + i`) and drops one indirection per flag access.
    flags: Box<[CachePadded<S::AtomicU64>]>,
    /// Per-participant progress through the current episode's rounds.
    progress: Vec<CachePadded<Progress<S>>>,
    /// Highest episode any participant has fully completed (for stats).
    completed: CachePadded<S::AtomicU64>,
    /// Number of evicted participants (guards against emptying the barrier).
    dead: CachePadded<S::AtomicUsize>,
    /// Non-zero once the barrier is poisoned.
    poisoned: CachePadded<S::AtomicU32>,
    /// Per-participant eviction flags (non-zero once evicted). Read by the
    /// ghost-signal closure in [`Self::flag_ready`].
    evicted: Vec<CachePadded<S::AtomicU32>>,
    stats: BarrierStats,
}

/// Memory-ordering note (audited): `episode` and `round` are accessed
/// **only through participant `id`'s own calls** — `arrive(id)` and the
/// `try_progress(token.id, ..)` probes driven by that arrival's token.
/// `Relaxed` is therefore sufficient for both:
///
/// * If the token stays on the arriving thread (the normal protocol), all
///   accesses to `progress[id]` are same-thread, and per-location coherence
///   alone guarantees each load sees the preceding store.
/// * If the token is handed to another thread, the hand-off mechanism
///   (channel, join, mutex — anything that makes the transfer sound) itself
///   establishes happens-before between the two threads' accesses, so the
///   receiver still observes the owner's last `Relaxed` store.
///
/// Cross-participant synchronization never flows through `progress`: it is
/// carried exclusively by the `flags` slots, whose `Release` stores
/// ([`DisseminationBarrier::signal`]) pair with the `Acquire` loads in
/// `try_progress` to order each signaller's pre-barrier writes before the
/// observer's post-barrier reads, transitively across all ⌈log₂ n⌉ rounds.
#[derive(Debug)]
struct Progress<S: SyncOps> {
    episode: S::AtomicU64,
    round: S::AtomicU32,
}

impl<S: SyncOps> Progress<S> {
    fn new() -> Self {
        Progress {
            episode: S::AtomicU64::new(0),
            round: S::AtomicU32::new(0),
        }
    }
}

impl DisseminationBarrier {
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

impl<S: SyncOps> DisseminationBarrier<S> {
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
        let rounds = usize::BITS - (n - 1).leading_zeros(); // ceil(log2 n); 0 for n == 1
        let flags = (0..rounds as usize * n)
            .map(|_| CachePadded::new(S::AtomicU64::new(0)))
            .collect();
        DisseminationBarrier {
            n,
            rounds,
            policy,
            flags,
            progress: (0..n).map(|_| CachePadded::new(Progress::new())).collect(),
            completed: CachePadded::new(S::AtomicU64::new(0)),
            dead: CachePadded::new(S::AtomicUsize::new(0)),
            poisoned: CachePadded::new(S::AtomicU32::new(0)),
            evicted: (0..n)
                .map(|_| CachePadded::new(S::AtomicU32::new(0)))
                .collect(),
            stats: BarrierStats::with_participants(n),
        }
    }

    /// Number of signalling rounds per episode (⌈log₂ n⌉).
    #[must_use]
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    fn partner(&self, id: usize, round: u32) -> usize {
        (id + (1usize << round)) % self.n
    }

    /// Inverse of [`Self::partner`]: the participant whose round-`round`
    /// signal is aimed at `id`. (`2^round < n` holds for every valid round,
    /// so the subtraction cannot underflow modulo `n`.)
    fn source(&self, id: usize, round: u32) -> usize {
        (id + self.n - (1usize << round)) % self.n
    }

    fn signal(&self, from: usize, round: u32, episode_plus_one: u64) {
        let target = self.partner(from, round);
        self.flags[round as usize * self.n + target].store(episode_plus_one, Ordering::Release);
    }

    /// True once the round-`round` signal aimed at `receiver` is available
    /// for goal `goal` (= episode + 1): either actually stored in the flag
    /// slot, or *deducible* because the sender was evicted.
    ///
    /// Eviction leaves the signalling pattern untouched — no slot is ever
    /// written on the evicted participant's behalf. Instead, receivers
    /// close over the ghost: an evicted sender's arrival is waived (it is
    /// no longer part of the surviving set), so its round-`r` signal counts
    /// as sent once every signal *it* would have needed for rounds `0..r`
    /// is itself available, recursively. The recursion strictly decreases
    /// the round, so it terminates; every input (flag slots, eviction
    /// flags) is monotone, so the predicate is monotone and a probe that
    /// once returned true can never regress — no wakeup can be lost.
    fn flag_ready(&self, receiver: usize, round: u32, goal: u64) -> bool {
        if self.flags[round as usize * self.n + receiver].load(Ordering::Acquire) >= goal {
            return true;
        }
        let sender = self.source(receiver, round);
        self.ghost_sent(sender, round, goal)
    }

    /// Would the evicted `sender` have sent its round-`round` signal for
    /// `goal`? False for live senders.
    fn ghost_sent(&self, sender: usize, round: u32, goal: u64) -> bool {
        if self.evicted[sender].load(Ordering::Acquire) == 0 {
            return false;
        }
        (0..round).all(|r| self.flag_ready(sender, r, goal))
    }

    /// Advances participant `id` through as many rounds of `episode` as the
    /// received signals allow, without blocking. Returns true once all
    /// rounds are complete.
    fn try_progress(&self, id: usize, episode: u64) -> bool {
        let goal = episode + 1;
        loop {
            let round = self.progress[id].round.load(Ordering::Relaxed);
            if round >= self.rounds {
                return true;
            }
            if self.flag_ready(id, round, goal) {
                let next = round + 1;
                if next < self.rounds {
                    self.signal(id, next, goal);
                }
                self.progress[id].round.store(next, Ordering::Relaxed);
                if next == self.rounds {
                    // This participant has completed the episode; record it
                    // once globally.
                    if self.completed.fetch_max(goal, Ordering::AcqRel) < goal {
                        self.stats.record_episode(id, episode);
                    }
                    return true;
                }
            } else {
                return false;
            }
        }
    }

    /// The poison-aware bounded wait all wait flavors funnel through.
    fn wait_core(
        &self,
        token: &ArrivalToken,
        deadline: Deadline,
        policy: StallPolicy,
    ) -> Result<WaitOutcome, BarrierError> {
        let policy = self.stats.resolve_policy(token.id, policy);
        let result = failure::guarded_wait::<S>(
            policy,
            deadline,
            token.episode,
            || self.try_progress(token.id, token.episode),
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

impl<S: SyncOps> SplitBarrier for DisseminationBarrier<S> {
    fn arrive(&self, id: usize) -> ArrivalToken {
        assert!(
            id < self.n,
            "participant id {id} out of range for {} participants",
            self.n
        );
        let episode = self.progress[id].episode.fetch_add(1, Ordering::Relaxed);
        self.progress[id].round.store(0, Ordering::Relaxed);
        self.stats.record_arrival(id, episode);
        if self.rounds == 0 {
            // Single participant: the episode is complete on arrival.
            if self.completed.fetch_max(episode + 1, Ordering::AcqRel) < episode + 1 {
                self.stats.record_episode(id, episode);
            }
        } else {
            self.signal(id, 0, episode + 1);
        }
        ArrivalToken::new(id, episode)
    }

    fn is_complete(&self, token: &ArrivalToken) -> bool {
        self.try_progress(token.id, token.episode)
    }

    fn wait(&self, token: ArrivalToken) -> WaitOutcome {
        match self.wait_core(&token, Deadline::never(), self.policy) {
            Ok(outcome) => outcome,
            Err(e) => {
                panic!("DisseminationBarrier::wait failed: {e} (use wait_deadline to recover)")
            }
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
        if self.dead.load(Ordering::Acquire) + 1 >= self.n {
            return Err(BarrierError::EmptyGroup);
        }
        if self.evicted[id].fetch_max(1, Ordering::AcqRel) != 0 {
            return Err(BarrierError::NotAParticipant { id });
        }
        self.dead.fetch_add(1, Ordering::AcqRel);
        self.stats.record_eviction();
        // Nothing else to do: the single write above (an RMW, so blocked
        // checker waiters re-probe) flips every survivor's ghost-closure
        // predicate — see [`Self::flag_ready`]. The evicted participant's
        // pending arrival for the in-flight episode is waived vacuously,
        // and no flag slot gains a second writer.
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
    fn round_counts() {
        assert_eq!(DisseminationBarrier::new(1).rounds(), 0);
        assert_eq!(DisseminationBarrier::new(2).rounds(), 1);
        assert_eq!(DisseminationBarrier::new(3).rounds(), 2);
        assert_eq!(DisseminationBarrier::new(4).rounds(), 2);
        assert_eq!(DisseminationBarrier::new(5).rounds(), 3);
        assert_eq!(DisseminationBarrier::new(8).rounds(), 3);
        assert_eq!(DisseminationBarrier::new(9).rounds(), 4);
    }

    #[test]
    fn partners_wrap_around() {
        let b = DisseminationBarrier::new(5);
        assert_eq!(b.partner(3, 0), 4);
        assert_eq!(b.partner(4, 0), 0);
        assert_eq!(b.partner(3, 1), 0);
        assert_eq!(b.partner(2, 2), 1);
    }

    #[test]
    fn single_participant_instant() {
        let b = DisseminationBarrier::new(1);
        for e in 0..5 {
            let t = b.arrive(0);
            assert!(b.is_complete(&t));
            assert_eq!(b.wait(t).episode, e);
        }
        assert_eq!(b.stats().episodes, 5);
    }

    #[test]
    fn non_power_of_two_participants() {
        for n in [2usize, 3, 5, 6, 7] {
            let b = Arc::new(DisseminationBarrier::new(n));
            std::thread::scope(|s| {
                for id in 0..n {
                    let b = Arc::clone(&b);
                    s.spawn(move || {
                        for e in 0..200u64 {
                            let t = b.arrive(id);
                            assert_eq!(b.wait(t).episode, e, "n={n} id={id}");
                        }
                    });
                }
            });
            assert_eq!(b.stats().episodes, 200, "n={n}");
        }
    }

    #[test]
    fn eviction_over_all_survivor_counts_and_victims() {
        // Survivor counts 2..=9 (so n = 3..=10, covering non-powers of two
        // and the power-of-two edges), evicting each id once. The victim
        // completes episode 0 and is then evicted; survivors must complete
        // episodes 1 and 2 through the ghost-signal closure.
        for survivors in 2usize..=9 {
            let n = survivors + 1;
            for victim in 0..n {
                let b = Arc::new(DisseminationBarrier::new(n));
                std::thread::scope(|s| {
                    let bv = Arc::clone(&b);
                    let victim_thread = s.spawn(move || {
                        let t = bv.arrive(victim);
                        assert_eq!(bv.wait(t).episode, 0);
                    });
                    for id in (0..n).filter(|&id| id != victim) {
                        let b = Arc::clone(&b);
                        s.spawn(move || {
                            for e in 0..3u64 {
                                let t = b.arrive(id);
                                assert_eq!(b.wait(t).episode, e, "n={n} victim={victim} id={id}");
                            }
                        });
                    }
                    victim_thread.join().unwrap();
                    b.evict(victim).unwrap();
                });
                assert_eq!(b.stats().evictions, 1, "n={n} victim={victim}");
            }
        }
    }

    #[test]
    fn evict_guards() {
        let b = DisseminationBarrier::new(3);
        assert_eq!(
            b.evict(7).unwrap_err(),
            BarrierError::InvalidParticipant { id: 7, capacity: 3 }
        );
        b.evict(0).unwrap();
        assert_eq!(
            b.evict(0).unwrap_err(),
            BarrierError::NotAParticipant { id: 0 }
        );
        b.evict(1).unwrap();
        assert_eq!(b.evict(2).unwrap_err(), BarrierError::EmptyGroup);
        // The lone survivor still synchronizes: both peers are ghosts.
        let t = b.arrive(2);
        assert_eq!(b.wait(t).episode, 0);
    }

    #[test]
    fn poison_unblocks_dissemination_waiters() {
        let b = Arc::new(DisseminationBarrier::new(2));
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
        assert_eq!(b.stats().poisonings, 1);
    }

    #[test]
    fn separates_phases_with_real_data() {
        use std::sync::atomic::AtomicU64;
        let n = 4;
        let cells: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let b = Arc::new(DisseminationBarrier::new(n));
        std::thread::scope(|s| {
            for id in 0..n {
                let b = Arc::clone(&b);
                let cells = Arc::clone(&cells);
                s.spawn(move || {
                    for phase in 1..=300u64 {
                        cells[id].store(phase, Ordering::Release);
                        let t = b.arrive(id);
                        b.wait(t);
                        let v = cells[(id + n - 1) % n].load(Ordering::Acquire);
                        assert!(v >= phase, "stale read {v} in phase {phase}");
                        let t = b.arrive(id);
                        b.wait(t);
                    }
                });
            }
        });
    }
}

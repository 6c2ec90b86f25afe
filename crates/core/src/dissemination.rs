//! Dissemination split-phase barrier — O(log n) rounds, no hot spot.

use crate::episode::{Barrier, Cx, FlatProtocol, Protocol};
use crate::sync::{Atomic, RealSync, SyncOps};
use fuzzy_util::CachePadded;
use std::sync::atomic::Ordering;

/// Signalling rounds per episode among `n` participants: ⌈log₂ n⌉, and 0
/// for a single participant (or none).
#[must_use]
pub fn rounds(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros()
}

/// Whom participant `id` of `n` signals in round `round`: `(id + 2^round)
/// mod n`.
#[must_use]
pub fn partner(id: usize, round: u32, n: usize) -> usize {
    (id + (1usize << round)) % n
}

/// Inverse of [`partner`]: the participant whose round-`round` signal is
/// aimed at `id`. (`2^round < n` holds for every valid round, so the
/// subtraction cannot underflow modulo `n`.)
#[must_use]
pub fn source(id: usize, round: u32, n: usize) -> usize {
    (id + n - (1usize << round)) % n
}

/// A dissemination barrier with a split-phase interface.
///
/// In round *r* participant *i* signals participant *(i + 2^r) mod n* and
/// waits for the signal from *(i − 2^r) mod n*; after ⌈log₂ n⌉ rounds every
/// participant transitively knows that everyone arrived. No word is written
/// by more than one participant, so there is no hot spot — this is the
/// "best possible software implementation" with logarithmic cost that the
/// paper cites (\[4\] in Sec. 1).
///
/// The split is cooperative: [`crate::SplitBarrier::arrive`] performs the
/// round-0 signal and returns; later rounds progress inside
/// [`crate::SplitBarrier::is_complete`] / [`crate::SplitBarrier::wait`]
/// probes. Signals carry monotone episode numbers, so late observers of an
/// overwritten slot still see a value at least as large as the one they
/// wait for.
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
pub type DisseminationBarrier<S = RealSync> = Barrier<Dissemination<S>, S>;

/// The dissemination arrival/release protocol behind
/// [`DisseminationBarrier`].
#[derive(Debug)]
pub struct Dissemination<S: SyncOps> {
    n: usize,
    rounds: u32,
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
    ///
    /// Memory-ordering note (audited): `progress[id]` is accessed **only
    /// through participant `id`'s own calls** — `arrive(id)` and the
    /// `try_progress(id, ..)` probes driven by that arrival's token.
    /// `Relaxed` is therefore sufficient:
    ///
    /// * If the token stays on the arriving thread (the normal protocol),
    ///   all accesses to `progress[id]` are same-thread, and per-location
    ///   coherence alone guarantees each load sees the preceding store.
    /// * If the token is handed to another thread, the hand-off mechanism
    ///   (channel, join, mutex — anything that makes the transfer sound)
    ///   itself establishes happens-before between the two threads'
    ///   accesses, so the receiver still observes the owner's last
    ///   `Relaxed` store.
    ///
    /// Cross-participant synchronization never flows through `progress`:
    /// it is carried exclusively by the `flags` slots, whose `Release`
    /// stores ([`Dissemination::signal`]) pair with the `Acquire` loads in
    /// `try_progress` to order each signaller's pre-barrier writes before
    /// the observer's post-barrier reads, transitively across all
    /// ⌈log₂ n⌉ rounds.
    progress: Vec<CachePadded<S::AtomicU32>>,
    /// Highest episode any participant has fully completed (for stats).
    completed: CachePadded<S::AtomicU64>,
}

impl<S: SyncOps> FlatProtocol<S> for Dissemination<S> {
    fn for_participants(n: usize) -> Self {
        let rounds = rounds(n);
        let flags = (0..rounds as usize * n)
            .map(|_| CachePadded::new(S::AtomicU64::new(0)))
            .collect();
        Dissemination {
            n,
            rounds,
            flags,
            progress: (0..n)
                .map(|_| CachePadded::new(S::AtomicU32::new(0)))
                .collect(),
            completed: CachePadded::new(S::AtomicU64::new(0)),
        }
    }
}

impl<S: SyncOps> DisseminationBarrier<S> {
    /// Number of signalling rounds per episode (⌈log₂ n⌉).
    #[must_use]
    pub fn rounds(&self) -> u32 {
        self.protocol().rounds
    }
}

impl<S: SyncOps> Dissemination<S> {
    fn signal(&self, from: usize, round: u32, episode_plus_one: u64) {
        let target = partner(from, round, self.n);
        self.flags[round as usize * self.n + target].store(episode_plus_one, Ordering::Release);
    }

    /// True once the round-`round` signal aimed at `receiver` is available
    /// for goal `goal` (= episode + 1): either actually stored in the flag
    /// slot, or *deducible* because the sender is not counted in the
    /// episode.
    ///
    /// Membership leaves the signalling pattern untouched — no slot is ever
    /// written on a removed or not-yet-admitted participant's behalf.
    /// Instead, receivers close over the ghost: a non-member's arrival is
    /// waived, so its round-`r` signal counts as sent once every signal
    /// *it* would have needed for rounds `0..r` is itself available,
    /// recursively. The recursion strictly decreases the round, so it
    /// terminates. Flag slots only grow, and a window only changes for
    /// episodes nobody has probed yet (closed from the first episode its
    /// owner has not arrived for, opened at one nobody has reached), so a
    /// probe that once returned true never regresses — no wakeup can be
    /// lost.
    fn flag_ready(&self, receiver: usize, round: u32, goal: u64, cx: &Cx<'_, S>) -> bool {
        if self.flags[round as usize * self.n + receiver].load(Ordering::Acquire) >= goal {
            return true;
        }
        let sender = source(receiver, round, self.n);
        self.ghost_sent(sender, round, goal, cx)
    }

    /// Would `sender`, not counted in episode `goal - 1`, have sent its
    /// round-`round` signal for `goal`? False for members.
    fn ghost_sent(&self, sender: usize, round: u32, goal: u64, cx: &Cx<'_, S>) -> bool {
        if cx.is_member(sender, goal - 1) {
            return false;
        }
        (0..round).all(|r| self.flag_ready(sender, r, goal, cx))
    }

    /// Records `episode`'s completion once globally, by whichever
    /// participant finishes its rounds first. Others may still be probing
    /// `episode + 1`, but nobody reaches `episode + 2` before this
    /// participant arrives for `episode + 1`: staged admissions apply
    /// there.
    fn record_completion(&self, episode: u64, cx: &Cx<'_, S>) {
        let goal = episode + 1;
        if self.completed.fetch_max(goal, Ordering::AcqRel) < goal {
            cx.record_episode(episode);
            cx.admit_staged(self, || episode + 2);
        }
    }

    /// Advances participant `id` through as many rounds of `episode` as the
    /// received signals allow, without blocking. Returns true once all
    /// rounds are complete.
    fn try_progress(&self, id: usize, episode: u64, cx: &Cx<'_, S>) -> bool {
        let goal = episode + 1;
        loop {
            let round = self.progress[id].load(Ordering::Relaxed);
            if round >= self.rounds {
                return true;
            }
            if self.flag_ready(id, round, goal, cx) {
                let next = round + 1;
                if next < self.rounds {
                    self.signal(id, next, goal);
                }
                self.progress[id].store(next, Ordering::Relaxed);
                if next == self.rounds {
                    // This participant has completed the episode.
                    self.record_completion(episode, cx);
                    return true;
                }
            } else {
                return false;
            }
        }
    }
}

impl<S: SyncOps> Protocol<S> for Dissemination<S> {
    #[inline]
    fn arrive(&self, id: usize, episode: u64, cx: &Cx<'_, S>) {
        self.progress[id].store(0, Ordering::Relaxed);
        if self.rounds == 0 {
            // Single participant: the episode is complete on arrival.
            self.record_completion(episode, cx);
        } else {
            self.signal(id, 0, episode + 1);
        }
    }

    #[inline]
    fn released(&self, id: usize, episode: u64, cx: &Cx<'_, S>) -> bool {
        self.try_progress(id, episode, cx)
    }

    /// Nothing to do: the core's closing of the membership window (a
    /// shadow write, so blocked checker waiters re-probe) flips every
    /// survivor's ghost-closure predicate — see `Dissemination::flag_ready`.
    /// The removed participant's pending arrival for the in-flight episode
    /// is waived vacuously, and no flag slot gains a second writer.
    fn retire(&self, _id: usize, _cx: &Cx<'_, S>) {}

    /// Nothing to do either: the opened window ends the ghost closure from
    /// the joiner's first episode on, and its signals for that episode carry
    /// a goal above any its slot held before.
    fn admit(&self, _id: usize, _cx: &Cx<'_, S>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitBarrier;
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
        assert_eq!(partner(3, 0, 5), 4);
        assert_eq!(partner(4, 0, 5), 0);
        assert_eq!(partner(3, 1, 5), 0);
        assert_eq!(partner(2, 2, 5), 1);
        for n in 1..=9 {
            for id in 0..n {
                for round in 0..rounds(n) {
                    assert_eq!(source(partner(id, round, n), round, n), id);
                }
            }
        }
        assert_eq!(rounds(0), 0);
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
}

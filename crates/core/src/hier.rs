//! Topology-aware hierarchical split-phase barrier.
//!
//! Flat backends make every participant touch globally shared state each
//! episode: one counter word (centralized/counting) or O(log N) pairwise
//! flags spanning all participants (dissemination). [`HierBarrier`]
//! localizes arrival traffic instead: participants are partitioned into
//! contiguous *shards*, each shard owns its own cache-line-padded arrivals
//! word, and only the last arriver of a shard — its *leader* for that
//! episode — signs the shard in at a combining tree over the (much smaller)
//! set of shards, the same tree [`crate::TreeBarrier`] builds over
//! participants. The tree root's completer bumps one global episode word.
//! Waiters poll their shard's epoch word, then the episode word; the first
//! of a shard to see completion broadcasts it into the shard word, so the
//! rest of the shard polls a line only its own shard writes.
//!
//! The shape follows the cluster-hierarchical barriers used on manycore
//! RISC-V fabrics (see PAPERS.md): arrival cost is O(shard) contention on
//! a private line plus O(log shards) leader traffic, instead of O(N) on
//! one hot line. The fuzzy split is fully preserved — `arrive` never
//! blocks, even for the leader, whose sign-in is a bounded walk up the
//! tree. The top level is a combining tree, not dissemination, because the
//! tree is the log-time barrier that keeps the paper's two halves apart
//! (Scott, SNIPPETS.md 1): arrival never waits, and departure polls one
//! condition. Completion therefore lives in one word, which the barrier
//! publishes as its [`crate::SplitBarrier::release_epoch`].

use crate::episode::{Barrier, Cx, Protocol};
use crate::spin::StallPolicy;
use crate::sync::{Atomic, RealSync, SyncOps};
use crate::tree::{self, CombiningTree};
use fuzzy_util::CachePadded;
use std::sync::atomic::Ordering;

/// Per-shard arrival state. Each shard is wrapped in a `CachePadded` so
/// the hot `count` word of one shard never false-shares with another's.
#[derive(Debug)]
struct Shard<S: SyncOps> {
    /// Remaining arrivals in the shard's current episode (counts down
    /// from `expected`).
    count: S::AtomicUsize,
    /// Live members of the shard (shrinks on removal, grows on admission;
    /// 0 = dead shard).
    expected: S::AtomicUsize,
    /// Highest episode goal broadcast to this shard's waiters — the
    /// shard-local release word. Only ever raised to a goal the global
    /// episode word has already reached.
    epoch: S::AtomicU64,
}

/// A hierarchical split-phase barrier: sharded arrival words, a fan-in-2
/// combining tree over shards, and per-shard release broadcast.
///
/// Participant `id` belongs to shard `id / shard_size` (shards are
/// contiguous, so co-scheduled neighbours share a shard and its arrival
/// line). The last member to arrive in a shard re-arms the shard counter
/// and *signs the shard in* at the tree without blocking. A shard signs in
/// only when full, so the root completes an episode only after every live
/// member of every live shard has arrived for it.
///
/// [`HierBarrier::new`] waits under [`StallPolicy::default`], like every
/// other backend. On an oversubscribed host the spin budget, not the
/// sharding, decides stall probes: E15's face-off runs hier on 32 probes
/// against the flat backends' 1,024, and on equal budgets the two read
/// alike (EXPERIMENTS.md E15).
///
/// # Examples
///
/// ```
/// use fuzzy_barrier::{HierBarrier, SplitBarrier};
///
/// let b = HierBarrier::new(1);
/// let token = b.arrive(0);
/// let outcome = b.wait(token);
/// assert!(!outcome.stalled);
/// ```
pub type HierBarrier<S = RealSync> = Barrier<Hier<S>, S>;

/// The hierarchical arrival/release protocol behind [`HierBarrier`].
#[derive(Debug)]
pub struct Hier<S: SyncOps> {
    shard_size: usize,
    shards: Box<[CachePadded<Shard<S>>]>,
    /// The combining tree whose contributors are the shards.
    tree: CombiningTree<S>,
    /// Completed global episodes: the release word, published by the
    /// tree root's last arriver.
    episode: CachePadded<S::AtomicU64>,
}

impl HierBarrier {
    /// Default shard size: 8 participants share one arrival word, the
    /// sweet spot between shard-local contention and leader count for
    /// line-sized sharing domains.
    pub const DEFAULT_SHARD_SIZE: usize = 8;

    /// Creates a hierarchical barrier for `n` participants with the
    /// default shard size and the default [`StallPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::with_policy(n, StallPolicy::default())
    }

    /// Creates a barrier with an explicit [`StallPolicy`] (default shard
    /// size).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_policy(n: usize, policy: StallPolicy) -> Self {
        Self::with_shards(n, Self::DEFAULT_SHARD_SIZE, policy)
    }

    /// Creates a barrier with an explicit shard size. `shard_size` is
    /// clamped to `1..=n`; size 1 degenerates to a pure combining tree
    /// over participants, size `n` to a single centralized shard.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `shard_size == 0`.
    #[must_use]
    pub fn with_shards(n: usize, shard_size: usize, policy: StallPolicy) -> Self {
        Self::with_shards_in(n, shard_size, policy)
    }
}

impl<S: SyncOps> HierBarrier<S> {
    /// Creates a barrier in an explicit [`SyncOps`] domain — `RealSync` in
    /// production, instrumented shadow state under the `fuzzy-check` model
    /// checker.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `shard_size == 0`.
    #[must_use]
    pub fn with_shards_in(n: usize, shard_size: usize, policy: StallPolicy) -> Self {
        assert!(n > 0, "a barrier needs at least one participant");
        assert!(shard_size > 0, "a shard needs at least one member");
        let shard_size = shard_size.min(n);
        let m = n.div_ceil(shard_size);
        let shards: Box<[CachePadded<Shard<S>>]> = (0..m)
            .map(|k| {
                let members = shard_size.min(n - k * shard_size);
                CachePadded::new(Shard {
                    count: S::AtomicUsize::new(members),
                    expected: S::AtomicUsize::new(members),
                    epoch: S::AtomicU64::new(0),
                })
            })
            .collect();
        let protocol = Hier {
            shard_size,
            shards,
            tree: CombiningTree::new(m, 2),
            episode: CachePadded::new(S::AtomicU64::new(0)),
        };
        Barrier::from_protocol(n, policy, protocol)
    }

    /// The (clamped) shard size.
    #[must_use]
    pub fn shard_size(&self) -> usize {
        self.protocol().shard_size
    }

    /// Number of shards (`ceil(n / shard_size)`).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.protocol().shards.len()
    }
}

impl<S: SyncOps> Hier<S> {
    fn shard_of(&self, id: usize) -> usize {
        id / self.shard_size
    }

    /// One arrival (real or eviction stand-in) against shard `k`'s
    /// count-down word. The member that completes the shard re-arms the
    /// counter and signs the shard in at the tree — *without blocking*,
    /// preserving the fuzzy split for the leader too. `cx` carries the
    /// statistics recorder making the arrival, which records the episode
    /// if this sign-in completes the root.
    fn shard_arrival(&self, k: usize, cx: &Cx<'_, S>) {
        let shard = &self.shards[k];
        if shard.count.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Re-arm BEFORE the sign-in: the sign-in can complete the
            // root and release this shard's waiters, which may
            // immediately re-arrive and must find a full counter. The
            // expectation is re-read because members may have been
            // evicted meanwhile.
            let expected = shard.expected.load(Ordering::Acquire);
            shard.count.store(expected, Ordering::Release);
            if self.tree.arrive(k) {
                tree::complete(self, &self.episode, cx);
            }
        }
    }
}

impl<S: SyncOps> Protocol<S> for Hier<S> {
    #[inline]
    fn arrive(&self, id: usize, _episode: u64, cx: &Cx<'_, S>) {
        self.shard_arrival(self.shard_of(id), cx);
    }

    /// The shard epoch word is the fast path; the first waiter to observe
    /// completion on the episode word broadcasts it there, so the rest of
    /// the shard stops touching the global line.
    #[inline]
    fn released(&self, id: usize, episode: u64, _cx: &Cx<'_, S>) -> bool {
        let shard = &self.shards[self.shard_of(id)];
        let goal = episode + 1;
        if shard.epoch.load(Ordering::Acquire) >= goal {
            return true;
        }
        let done = self.episode.load(Ordering::Acquire) >= goal;
        if done {
            shard.epoch.fetch_max(goal, Ordering::AcqRel);
        }
        done
    }

    /// A shard word is only raised to a goal the episode word has reached,
    /// so `released(id, e)` is `episode > e` for every id.
    #[inline]
    fn release_epoch(&self) -> Option<u64> {
        Some(self.episode.load(Ordering::Acquire))
    }

    fn retire(&self, id: usize, cx: &Cx<'_, S>) {
        let k = self.shard_of(id);
        // Shrink the shard's expectation BEFORE the stand-in arrival so
        // the shard's re-armer picks up the shrunk value (same discipline
        // as the flat backends). The evicted participant must not have
        // arrived for the in-flight episode — the stand-in below is that
        // arrival.
        let prev = self.shards[k].expected.fetch_sub(1, Ordering::AcqRel);
        if prev == 1 {
            // Last live member: the shard dies before signing in for the
            // in-flight episode, so the tree shrinks it out with one
            // stand-in signal. (A shard with waiters always has
            // `expected >= 1`: waiters are live members.) The core's
            // eviction guard keeps at least one participant, and
            // therefore one live shard for the tree's walk to stop at.
            if self.tree.retire(k) {
                tree::complete(self, &self.episode, cx);
            }
        } else {
            self.shard_arrival(k, cx);
        }
    }

    /// The dual of `retire`, while the shards are quiescent: a live shard
    /// expects one more arrival; a dead one revives expecting exactly the
    /// joiner and signs in to the tree again.
    fn admit(&self, id: usize, _cx: &Cx<'_, S>) {
        let k = self.shard_of(id);
        let shard = &self.shards[k];
        if shard.expected.fetch_add(1, Ordering::AcqRel) > 0 {
            shard.count.fetch_add(1, Ordering::AcqRel);
        } else {
            shard.count.store(1, Ordering::Release);
            self.tree.admit(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitBarrier;
    use std::sync::Arc;

    /// Every (n, shard_size) shape used by the sweeps below, including
    /// non-power-of-two N and both degenerate shard sizes.
    const SHAPES: &[(usize, usize)] = &[
        (1, 1),
        (2, 1),
        (2, 2),
        (3, 1),
        (3, 2),
        (3, 3),
        (4, 2),
        (5, 2),
        (5, 5),
        (6, 4),
        (7, 1),
        (7, 3),
        (7, 7),
        (9, 4),
        (13, 4),
    ];

    #[test]
    #[should_panic(expected = "at least one member")]
    fn zero_shard_size_panics() {
        let _ = HierBarrier::with_shards(4, 0, StallPolicy::default());
    }

    #[test]
    fn default_configuration_uses_the_default_policy() {
        let b = HierBarrier::new(20);
        assert_eq!(b.policy(), StallPolicy::default());
        assert_eq!(b.shard_size(), HierBarrier::DEFAULT_SHARD_SIZE);
        assert_eq!(b.shard_count(), 3);
        assert_eq!(b.release_epoch(), Some(0));
    }

    #[test]
    fn shard_shapes_and_clamping() {
        let b: HierBarrier = HierBarrier::with_shards(5, 100, StallPolicy::default());
        assert_eq!(b.shard_size(), 5, "shard size clamps to n");
        assert_eq!(b.shard_count(), 1);
        let b: HierBarrier = HierBarrier::with_shards(7, 1, StallPolicy::default());
        assert_eq!(b.shard_count(), 7, "size 1 degenerates to a pure tree");
    }

    #[test]
    fn episodes_advance_in_order_for_all_shapes() {
        for &(n, shard) in SHAPES {
            let b = HierBarrier::with_shards(n, shard, StallPolicy::default());
            // Single-threaded full rotation: everyone arrives, then
            // everyone waits (the fuzzy split — no arrive may block).
            for e in 0..5u64 {
                let tokens: Vec<_> = (0..n).map(|id| b.arrive(id)).collect();
                assert_eq!(b.release_epoch(), Some(e + 1), "n={n} shard={shard}");
                for t in tokens {
                    assert_eq!(t.episode(), e, "n={n} shard={shard}");
                    assert!(b.is_complete(&t));
                    let o = b.wait(t);
                    assert!(!o.stalled);
                }
            }
            let s = b.stats();
            assert_eq!(s.episodes, 5, "n={n} shard={shard}");
            assert_eq!(s.arrivals, 5 * n as u64);
            assert_eq!(s.waits, 5 * n as u64);
        }
    }

    #[test]
    fn many_threads_many_shapes() {
        let episodes = 60u64;
        for &(n, shard) in &[(3usize, 2usize), (4, 2), (5, 2), (7, 3), (9, 4), (13, 4)] {
            let b = Arc::new(HierBarrier::with_shards(n, shard, StallPolicy::yielding()));
            std::thread::scope(|s| {
                for id in 0..n {
                    let b = Arc::clone(&b);
                    s.spawn(move || {
                        for e in 0..episodes {
                            let t = b.arrive(id);
                            let o = b.wait(t);
                            assert_eq!(o.episode, e, "n={n} shard={shard}");
                        }
                    });
                }
            });
            let s = b.stats();
            assert_eq!(s.episodes, episodes, "n={n} shard={shard}");
            assert_eq!(s.arrivals, episodes * n as u64);
            assert_eq!(s.waits, episodes * n as u64);
        }
    }

    #[test]
    fn whole_shard_eviction_mid_group() {
        // Kill an *interior* shard ({2,3} of shards {0,1},{2,3},{4}) while
        // nobody has arrived, then run episodes over the survivors.
        let b = Arc::new(HierBarrier::with_shards(5, 2, StallPolicy::yielding()));
        b.evict(2).unwrap();
        b.evict(3).unwrap();
        assert_eq!(b.remaining_participants(), 3);
        std::thread::scope(|s| {
            for id in [0usize, 1, 4] {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for e in 0..30u64 {
                        let t = b.arrive(id);
                        assert_eq!(b.wait(t).episode, e);
                    }
                });
            }
        });
        assert_eq!(b.stats().episodes, 30);
    }

    #[test]
    fn eviction_completes_in_flight_episode() {
        let b: HierBarrier = HierBarrier::with_shards(3, 2, StallPolicy::yielding());
        // Shard {0,1}: 0 arrives; shard {2}: 2 arrives. Evicting 1
        // supplies the missing arrival and completes episode 0.
        let t0 = b.arrive(0);
        let t2 = b.arrive(2);
        assert!(!b.is_complete(&t0));
        b.evict(1).unwrap();
        assert_eq!(b.wait(t0).episode, 0);
        assert_eq!(b.wait(t2).episode, 0);
        assert_eq!(b.stats().episodes, 1);
    }

    #[test]
    fn telemetry_per_participant_attribution() {
        let n = 4;
        let b = Arc::new(HierBarrier::with_shards(n, 2, StallPolicy::yielding()));
        std::thread::scope(|s| {
            for id in 0..n {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for _ in 0..20u64 {
                        let t = b.arrive(id);
                        b.wait(t);
                    }
                });
            }
        });
        let t = b.telemetry();
        assert_eq!(t.per_participant.len(), n);
        let per: u64 = t.per_participant.iter().map(|p| p.arrivals).sum();
        assert_eq!(per, 20 * n as u64);
        assert_eq!(t.base, b.stats());
    }
}

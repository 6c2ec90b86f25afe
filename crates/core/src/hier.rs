//! Topology-aware hierarchical split-phase barrier.
//!
//! Flat backends make every participant touch globally shared state each
//! episode: one counter word (centralized/counting) or O(log N) pairwise
//! flags spanning all participants (dissemination). [`HierBarrier`]
//! localizes arrival traffic instead: participants are partitioned into
//! contiguous *shards*, each shard owns its own cache-line-padded arrivals
//! word, and only the last arriver of a shard — its *leader* for that
//! episode — takes part in the global top-level protocol over the (much
//! smaller) set of shards. Release is broadcast back per shard through a
//! shard-local epoch word, so steady-state waiters poll a line that only
//! their own shard writes.
//!
//! The shape follows the cluster-hierarchical barriers used on manycore
//! RISC-V fabrics (see PAPERS.md): arrival cost is O(shard) contention on
//! a private line plus O(log shards) leader traffic, instead of O(N) on
//! one hot line. The fuzzy split is fully preserved — `arrive` never
//! blocks, even for the leader, whose top-level sign-in is non-blocking.

use crate::episode::{Barrier, Cx, Protocol};
use crate::spin::StallPolicy;
use crate::sync::{Atomic, RealSync, SyncOps};
use crate::tree::CombiningTree;
use fuzzy_util::CachePadded;
use std::sync::atomic::Ordering;

/// How shard leaders synchronize once every member of their shard has
/// arrived.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TopLevel {
    /// Pairwise leader rounds at shard granularity (the
    /// [`crate::DisseminationBarrier`] pattern): no shared word at all,
    /// `ceil(log2(shards))` rounds, each shard discovers completion
    /// itself. The default.
    #[default]
    Dissemination,
    /// A fan-in-2 combining tree over shards (the [`crate::TreeBarrier`]
    /// pattern): the root publishes a single global episode word that all
    /// shards' waiters poll until their shard epoch catches up.
    Tree,
}

/// Per-shard arrival state. Each shard is wrapped in a `CachePadded` so
/// the hot `count` word of one shard never false-shares with another's.
#[derive(Debug)]
struct Shard<S: SyncOps> {
    /// Remaining arrivals in the shard's current episode (counts down
    /// from `expected`).
    count: S::AtomicUsize,
    /// Live members of the shard (shrinks on eviction; 0 = dead shard).
    expected: S::AtomicUsize,
    /// Highest episode goal broadcast to this shard's waiters — the
    /// shard-local release word.
    epoch: S::AtomicU64,
    /// Episodes this shard has fully arrived for (its sign-in counter).
    arrived: S::AtomicU64,
}

/// Top-level synchronization state, matching the configured [`TopLevel`].
#[derive(Debug)]
enum Top<S: SyncOps> {
    /// Round-major flag matrix (`rounds * shards` slots, each padded) plus
    /// a per-shard progress word counting completed leader rounds across
    /// all episodes. Both empty when there is a single shard.
    Dissemination {
        flags: Box<[CachePadded<S::AtomicU64>]>,
        progress: Box<[CachePadded<S::AtomicU64>]>,
    },
    /// A fan-in-2 combining tree whose contributors are the shards.
    Tree(CombiningTree<S>),
}

/// A hierarchical split-phase barrier: sharded arrival words, a
/// configurable leader protocol over shards, and per-shard release
/// broadcast.
///
/// Participant `id` belongs to shard `id / shard_size` (shards are
/// contiguous, so co-scheduled neighbours share a shard and its arrival
/// line). The last member to arrive in a shard re-arms the shard counter
/// and *signs the shard in* at the top level without blocking; waiters
/// poll their shard's epoch word, falling back to the top-level state
/// until the first of them observes completion and broadcasts it into the
/// epoch word for the rest.
///
/// [`HierBarrier::new`] pairs the hierarchy with
/// [`StallPolicy::adaptive`]: sharding shortens the common wait, and the
/// adaptive budget stops paying long spin budgets when waits are long
/// anyway — the two halves of this backend's performance story.
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
    top_level: TopLevel,
    /// Top-level dissemination rounds, `ceil(log2(shards))` (0 for one
    /// shard); fixed at construction even as shards die.
    rounds: u32,
    shards: Box<[CachePadded<Shard<S>>]>,
    top: Top<S>,
    /// Completed global episodes: the release word for the tree top, pure
    /// episode bookkeeping for the dissemination top.
    episode: CachePadded<S::AtomicU64>,
}

impl HierBarrier {
    /// Default shard size: 8 participants share one arrival word, the
    /// sweet spot between shard-local contention and leader count for
    /// line-sized sharing domains.
    pub const DEFAULT_SHARD_SIZE: usize = 8;

    /// Creates a hierarchical barrier for `n` participants with the
    /// default shard size, a dissemination top level, and — unlike the
    /// flat backends — [`StallPolicy::adaptive`], this backend's
    /// canonical configuration.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::with_policy(n, StallPolicy::adaptive())
    }

    /// Creates a barrier with an explicit [`StallPolicy`] (default shard
    /// size and top level).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_policy(n: usize, policy: StallPolicy) -> Self {
        Self::with_shards(n, Self::DEFAULT_SHARD_SIZE, TopLevel::default(), policy)
    }

    /// Creates a barrier with explicit shard size and top-level protocol.
    /// `shard_size` is clamped to `1..=n`; size 1 degenerates to a pure
    /// top-level barrier over singleton shards, size `n` to a single
    /// centralized shard.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `shard_size == 0`.
    #[must_use]
    pub fn with_shards(n: usize, shard_size: usize, top: TopLevel, policy: StallPolicy) -> Self {
        Self::with_shards_in(n, shard_size, top, policy)
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
    pub fn with_shards_in(
        n: usize,
        shard_size: usize,
        top_level: TopLevel,
        policy: StallPolicy,
    ) -> Self {
        assert!(n > 0, "a barrier needs at least one participant");
        assert!(shard_size > 0, "a shard needs at least one member");
        let shard_size = shard_size.min(n);
        let m = n.div_ceil(shard_size);
        let rounds = if m == 1 {
            0
        } else {
            usize::BITS - (m - 1).leading_zeros()
        };
        let shards: Box<[CachePadded<Shard<S>>]> = (0..m)
            .map(|k| {
                let members = shard_size.min(n - k * shard_size);
                CachePadded::new(Shard {
                    count: S::AtomicUsize::new(members),
                    expected: S::AtomicUsize::new(members),
                    epoch: S::AtomicU64::new(0),
                    arrived: S::AtomicU64::new(0),
                })
            })
            .collect();
        let top = match top_level {
            TopLevel::Dissemination => Top::Dissemination {
                flags: (0..rounds as usize * m)
                    .map(|_| CachePadded::new(S::AtomicU64::new(0)))
                    .collect(),
                progress: if rounds == 0 {
                    Box::new([])
                } else {
                    (0..m)
                        .map(|_| CachePadded::new(S::AtomicU64::new(0)))
                        .collect()
                },
            },
            TopLevel::Tree => Top::Tree(CombiningTree::new(m, 2)),
        };
        let protocol = Hier {
            shard_size,
            top_level,
            rounds,
            shards,
            top,
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

    /// The leader protocol over shards.
    #[must_use]
    pub fn top_level(&self) -> TopLevel {
        self.protocol().top_level
    }
}

impl<S: SyncOps> Hier<S> {
    fn shard_of(&self, id: usize) -> usize {
        id / self.shard_size
    }

    /// One arrival (real or eviction stand-in) against shard `k`'s
    /// count-down word. The member that completes the shard re-arms the
    /// counter and signs the shard in at the top level — *without
    /// blocking*, preserving the fuzzy split for the leader too. `cx`
    /// carries the statistics recorder making the arrival; it is handed
    /// down to wherever the episode's completion ends up being observed.
    fn shard_arrival(&self, k: usize, cx: &Cx<'_, S>) {
        let shard = &self.shards[k];
        if shard.count.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Re-arm BEFORE the sign-in: the sign-in can transitively
            // complete the top level and release this shard's waiters,
            // which may immediately re-arrive and must find a full
            // counter. The expectation is re-read because members may
            // have been evicted meanwhile.
            let expected = shard.expected.load(Ordering::Acquire);
            shard.count.store(expected, Ordering::Release);
            let goal = shard.arrived.fetch_add(1, Ordering::AcqRel) + 1;
            self.top_sign_in(k, goal, cx);
        }
    }

    /// Signs shard `k` in for episode `goal` at the top level.
    fn top_sign_in(&self, k: usize, goal: u64, cx: &Cx<'_, S>) {
        match &self.top {
            Top::Tree(tree) => tree.arrive(k, &self.episode, cx),
            Top::Dissemination { flags, .. } => {
                if self.rounds == 0 {
                    // One shard: its completion is the global episode.
                    if self.episode.fetch_max(goal, Ordering::AcqRel) < goal {
                        cx.record_episode(goal - 1);
                    }
                } else {
                    // Round-0 signal to the distance-1 neighbour; relay
                    // rounds are driven by the shard's waiters (see
                    // `try_top_rounds`). fetch_max keeps the flag
                    // monotone under racing drivers.
                    let m = self.shards.len();
                    flags[(k + 1) % m].fetch_max(goal, Ordering::AcqRel);
                }
            }
        }
    }

    /// The wait predicate: is episode `goal` (1-based) complete from
    /// shard `k`'s point of view? The shard epoch word is the fast path;
    /// the first waiter to observe top-level completion broadcasts it
    /// there so the rest of the shard stops touching global state. `cx`
    /// records for the probing participant.
    fn episode_done(&self, k: usize, goal: u64, cx: &Cx<'_, S>) -> bool {
        let shard = &self.shards[k];
        if shard.epoch.load(Ordering::Acquire) >= goal {
            return true;
        }
        let done = match &self.top {
            Top::Tree(_) => self.episode.load(Ordering::Acquire) >= goal,
            Top::Dissemination { flags, progress } => {
                self.try_top_rounds(flags, progress, k, goal, cx)
            }
        };
        if done {
            shard.epoch.fetch_max(goal, Ordering::AcqRel);
        }
        done
    }

    /// Drives shard `j`'s leader rounds as far as the received signals
    /// allow, up to `goal * rounds`, and returns the progress value
    /// reached. Any waiter may drive any shard: every update is a
    /// monotone `fetch_max`, so racing drivers are safe.
    fn drive_shard(
        &self,
        flags: &[CachePadded<S::AtomicU64>],
        progress: &[CachePadded<S::AtomicU64>],
        j: usize,
        goal: u64,
        cx: &Cx<'_, S>,
    ) -> u64 {
        let m = self.shards.len();
        let rounds = u64::from(self.rounds);
        loop {
            let done = progress[j].load(Ordering::Acquire);
            if done >= goal * rounds {
                return done;
            }
            let g = done / rounds + 1;
            let r = (done % rounds) as u32;
            // A shard's leader rounds for episode `g` must not start
            // until the shard itself has fully arrived for `g`: incoming
            // flags alone prove the *other* shards arrived, and relaying
            // them early could release this shard's waiters before its
            // own stragglers arrive — a fuzzy violation.
            if self.shards[j].arrived.load(Ordering::Acquire) < g {
                return done;
            }
            if !self.top_flag_ready(flags, j, r, g) {
                return done;
            }
            if r + 1 < self.rounds {
                let to = (j + (1usize << (r + 1))) % m;
                flags[(r as usize + 1) * m + to].fetch_max(g, Ordering::AcqRel);
            }
            progress[j].fetch_max(done + 1, Ordering::AcqRel);
            if done + 1 == g * rounds {
                // Last round: shard j has now heard (transitively) from
                // every shard for `g`. Record the episode exactly once
                // across shards.
                if self.episode.fetch_max(g, Ordering::AcqRel) < g {
                    cx.record_episode(g - 1);
                }
            }
        }
    }

    /// Returns true once shard `k` has completed all leader rounds for
    /// `goal`. If `k` is stuck on a missing relay, the caller helps along:
    /// it sweeps the *other* shards' pending rounds (whose own waiters may
    /// simply not be polling right now) until either `k` completes or a
    /// full sweep makes no progress anywhere — so a single probing waiter
    /// can always discover a globally complete episode by itself.
    fn try_top_rounds(
        &self,
        flags: &[CachePadded<S::AtomicU64>],
        progress: &[CachePadded<S::AtomicU64>],
        k: usize,
        goal: u64,
        cx: &Cx<'_, S>,
    ) -> bool {
        if self.rounds == 0 {
            return self.shards[k].arrived.load(Ordering::Acquire) >= goal;
        }
        let target = goal * u64::from(self.rounds);
        loop {
            if self.drive_shard(flags, progress, k, goal, cx) >= target {
                return true;
            }
            let mut advanced = false;
            for j in (0..self.shards.len()).filter(|&j| j != k) {
                let before = progress[j].load(Ordering::Relaxed);
                advanced |= self.drive_shard(flags, progress, j, goal, cx) > before;
            }
            if !advanced {
                return false;
            }
        }
    }

    /// Has shard `k` received (or been excused from) its round-`round`
    /// signal for episode `goal`?
    fn top_flag_ready(
        &self,
        flags: &[CachePadded<S::AtomicU64>],
        k: usize,
        round: u32,
        goal: u64,
    ) -> bool {
        let m = self.shards.len();
        if flags[round as usize * m + k].load(Ordering::Acquire) >= goal {
            return true;
        }
        let source = (k + m - (1usize << round)) % m;
        self.top_ghost_sent(flags, source, round, goal)
    }

    /// Would dead shard `s` (no live members left) have sent its
    /// round-`round` signal for `goal`? Always false for live shards. A
    /// dead shard's sign-in is vacuous, so only its *incoming* earlier
    /// rounds gate the answer; the recursion strictly decreases the round
    /// and terminates.
    fn top_ghost_sent(
        &self,
        flags: &[CachePadded<S::AtomicU64>],
        s: usize,
        round: u32,
        goal: u64,
    ) -> bool {
        if self.shards[s].expected.load(Ordering::Acquire) != 0 {
            return false;
        }
        (0..round).all(|r| self.top_flag_ready(flags, s, r, goal))
    }
}

impl<S: SyncOps> Protocol<S> for Hier<S> {
    #[inline]
    fn arrive(&self, id: usize, _episode: u64, cx: &Cx<'_, S>) {
        self.shard_arrival(self.shard_of(id), cx);
    }

    /// Like the dissemination backend's, this may drive the caller's shard
    /// through its pending leader rounds.
    #[inline]
    fn released(&self, id: usize, episode: u64, cx: &Cx<'_, S>) -> bool {
        self.episode_done(self.shard_of(id), episode + 1, cx)
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
            // Last live member: the shard dies. Its pending top-level
            // sign-in is covered structurally — the dissemination top's
            // ghost closure reads `expected == 0`, the tree top shrinks
            // the dead shard out of the combining tree with one stand-in
            // signal for the in-flight episode. (A shard with waiters
            // always has `expected >= 1`: waiters are live members.) The
            // core's eviction guard keeps at least one participant, and
            // therefore one live shard for the tree's walk to stop at.
            if let Top::Tree(tree) = &self.top {
                tree.retire(k, &self.episode, cx);
            }
        } else {
            self.shard_arrival(k, cx);
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

    const TOPS: &[TopLevel] = &[TopLevel::Dissemination, TopLevel::Tree];

    #[test]
    #[should_panic(expected = "at least one member")]
    fn zero_shard_size_panics() {
        let _ = HierBarrier::with_shards(4, 0, TopLevel::Dissemination, StallPolicy::default());
    }

    #[test]
    fn default_configuration_is_adaptive_dissemination() {
        let b = HierBarrier::new(20);
        assert!(matches!(b.policy(), StallPolicy::Adaptive { .. }));
        assert_eq!(b.top_level(), TopLevel::Dissemination);
        assert_eq!(b.shard_size(), HierBarrier::DEFAULT_SHARD_SIZE);
        assert_eq!(b.shard_count(), 3);
    }

    #[test]
    fn shard_shapes_and_clamping() {
        let b: HierBarrier =
            HierBarrier::with_shards(5, 100, TopLevel::Dissemination, StallPolicy::default());
        assert_eq!(b.shard_size(), 5, "shard size clamps to n");
        assert_eq!(b.shard_count(), 1);
        let b: HierBarrier = HierBarrier::with_shards(7, 1, TopLevel::Tree, StallPolicy::default());
        assert_eq!(b.shard_count(), 7, "size 1 degenerates to pure top level");
    }

    #[test]
    fn episodes_advance_in_order_for_all_shapes() {
        for &top in TOPS {
            for &(n, shard) in SHAPES {
                let b = HierBarrier::with_shards(n, shard, top, StallPolicy::default());
                // Single-threaded full rotation: everyone arrives, then
                // everyone waits (the fuzzy split — no arrive may block).
                for e in 0..5u64 {
                    let tokens: Vec<_> = (0..n).map(|id| b.arrive(id)).collect();
                    for t in tokens {
                        assert_eq!(t.episode(), e, "{top:?} n={n} shard={shard}");
                        assert!(b.is_complete(&t));
                        let o = b.wait(t);
                        assert!(!o.stalled);
                    }
                }
                let s = b.stats();
                assert_eq!(s.episodes, 5, "{top:?} n={n} shard={shard}");
                assert_eq!(s.arrivals, 5 * n as u64);
                assert_eq!(s.waits, 5 * n as u64);
            }
        }
    }

    #[test]
    fn many_threads_many_shapes() {
        let episodes = 60u64;
        for &top in TOPS {
            for &(n, shard) in &[(3usize, 2usize), (4, 2), (5, 2), (7, 3), (9, 4), (13, 4)] {
                let b = Arc::new(HierBarrier::with_shards(
                    n,
                    shard,
                    top,
                    StallPolicy::yielding(),
                ));
                std::thread::scope(|s| {
                    for id in 0..n {
                        let b = Arc::clone(&b);
                        s.spawn(move || {
                            for e in 0..episodes {
                                let t = b.arrive(id);
                                let o = b.wait(t);
                                assert_eq!(o.episode, e, "{top:?} n={n} shard={shard}");
                            }
                        });
                    }
                });
                let s = b.stats();
                assert_eq!(s.episodes, episodes, "{top:?} n={n} shard={shard}");
                assert_eq!(s.arrivals, episodes * n as u64);
                assert_eq!(s.waits, episodes * n as u64);
            }
        }
    }

    #[test]
    fn adaptive_policy_end_to_end() {
        // The default (adaptive) configuration, multi-threaded: budgets
        // resolve per wait from live history without disturbing counts.
        let n = 6;
        let b = Arc::new(HierBarrier::with_shards(
            n,
            2,
            TopLevel::Dissemination,
            StallPolicy::adaptive(),
        ));
        std::thread::scope(|s| {
            for id in 0..n {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for e in 0..100u64 {
                        let t = b.arrive(id);
                        assert_eq!(b.wait(t).episode, e);
                    }
                });
            }
        });
        let t = b.telemetry();
        assert_eq!(t.base.episodes, 100);
        assert_eq!(t.adaptive.observations, 100 * n as u64);
    }

    #[test]
    fn whole_shard_eviction_mid_group() {
        // Kill an *interior* shard ({2,3} of shards {0,1},{2,3},{4}) while
        // nobody has arrived, then run episodes over the survivors.
        for &top in TOPS {
            let b = Arc::new(HierBarrier::with_shards(5, 2, top, StallPolicy::yielding()));
            b.evict(2).unwrap();
            b.evict(3).unwrap();
            assert_eq!(b.remaining_participants(), 3);
            std::thread::scope(|s| {
                for id in [0usize, 1, 4] {
                    let b = Arc::clone(&b);
                    s.spawn(move || {
                        for e in 0..30u64 {
                            let t = b.arrive(id);
                            assert_eq!(b.wait(t).episode, e, "{top:?}");
                        }
                    });
                }
            });
            assert_eq!(b.stats().episodes, 30, "{top:?}");
        }
    }

    #[test]
    fn eviction_completes_in_flight_episode() {
        for &top in TOPS {
            let b: HierBarrier = HierBarrier::with_shards(3, 2, top, StallPolicy::yielding());
            // Shard {0,1}: 0 arrives; shard {2}: 2 arrives. Evicting 1
            // supplies the missing arrival and completes episode 0.
            let t0 = b.arrive(0);
            let t2 = b.arrive(2);
            assert!(!b.is_complete(&t0), "{top:?}");
            b.evict(1).unwrap();
            assert_eq!(b.wait(t0).episode, 0, "{top:?}");
            assert_eq!(b.wait(t2).episode, 0, "{top:?}");
            assert_eq!(b.stats().episodes, 1);
        }
    }

    #[test]
    fn telemetry_per_participant_attribution() {
        let n = 4;
        let b = Arc::new(HierBarrier::with_shards(
            n,
            2,
            TopLevel::Dissemination,
            StallPolicy::yielding(),
        ));
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

//! Seeded-bug barrier backends ("mutants") that the checker must catch.
//!
//! Each mutant re-introduces one realistic concurrency bug — the kind a
//! refactor could plausibly create. They are the checker's regression
//! suite in reverse: a checker release is only trustworthy if it *fails*
//! every one of these within its schedule budget.
//!
//! **Protocols over the real core.** A bug in how arrivals are signalled
//! or release is detected is a [`Protocol`] holding nothing but that bug,
//! behind the real [`Barrier`]: ids, tokens, the wait loop, poison and
//! eviction are the stock ones, so catching these also shows the shared
//! core hides no protocol bug. [`MutantCentral`], [`MutantCounting`],
//! [`MutantDissemination`] and [`MutantTree`] are interleaving-dependent
//! (they pass on the default round-robin-ish schedule and need a specific
//! preemption), which is precisely what distinguishes a model checker
//! from a stress test. [`MutantEarlyRelease`] and the hierarchical
//! [`MutantLeaderEarlyRelease`] — a shard leader that releases its shard
//! before the top-level sync completes — are early-release fuzzy
//! violations. [`MutantEarlyEpoch`]'s `release_epoch` runs one arrival
//! ahead of `released`, which the async scenario catches as an early
//! release through the real frontend. [`MutantNoWake`] and
//! [`MutantWakeBeforePublish`] break the completer's wake of the core's
//! parked set — it never wakes, or it looks before it publishes — and
//! strand a future parked by the real frontend: the canonical lost wakeup
//! of poll-based waiting, caught by the waker-handoff scenario and, as a
//! `ReconfigBarrier`'s inner barrier, by the reconfig future scenario.
//!
//! **Replacements of the core.** A bug in what the core itself owns cannot
//! be a protocol, so these implement [`SplitBarrier`] whole and spell out
//! what they do not do: [`MutantNoPoison`] (a recovery layer that forgets
//! to poison) and [`MutantEvictNoMask`] (an eviction that forgets to
//! shrink the mask), caught by the poison/evict scenarios, and
//! [`MutantRacyEvictGuard`], the check-then-act eviction guard the stock
//! backends used to carry, which lets concurrent evictions empty the
//! barrier and is caught by the evict-race scenario.
//!
//! **Other layers.** Three replicas of the real *async frontend*'s
//! future, each with one of the obligations that keep it wakeup-safe
//! dropped: a waiter that registers and returns `Pending` without
//! re-reading the release word, a first pending poll that yields without
//! waking its own task, and — over dissemination, which has no parking
//! place — a later pending poll that re-queues nothing. Two
//! *dynamic-membership* bugs behind the real `ReconfigBarrier`: an inner
//! barrier whose admission stamps the joiner into the in-flight episode,
//! and a presentation that forgets the slot generation — caught by the
//! reconfig scenarios. And a *distributed* bug: a
//! transport wrapper that forges the higher dissemination rounds from the
//! round-0 signal, releasing a `NetBarrier` endpoint on first contact —
//! caught by the net-round scenario's cross-mesh fuzzy check.

use crate::scenario::{AsyncArrival, AsyncFrontend, Group};
use crate::shadow::ShadowSync;
use fuzzy_barrier::centralized::Central;
use fuzzy_barrier::dissemination;
use fuzzy_barrier::stats::StatsSnapshot;
use fuzzy_barrier::sync::{Atomic, SyncOps};
use fuzzy_barrier::{
    ArrivalToken, Barrier, BarrierError, CentralBarrier, Cx, Deadline, DisseminationBarrier,
    FlatProtocol, MemberHandle, Protocol, ReconfigBarrier, SplitBarrier, StallPolicy, WaitOutcome,
};
use fuzzy_net::{DecodeError, FrameSink, Message, NetError, Transport};
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, Weak};
use std::task::{Context, Poll};

/// `retire` of a protocol mutant whose scenarios never remove anyone.
fn no_removals() -> ! {
    unreachable!("the protocol scenarios neither evict nor leave")
}

/// `admit` of a protocol mutant: no scenario of theirs admits anyone.
fn no_admissions() -> ! {
    unreachable!("the protocol mutants' scenarios never admit")
}

// ---------------------------------------------------------------------------
// MutantCentral: publish-before-re-arm
// ---------------------------------------------------------------------------

/// Centralized protocol whose completing arrival **publishes the episode
/// before re-arming the counter** — [`fuzzy_barrier::centralized::Central`]
/// with two lines swapped, and nothing else: ids, tokens, the wait loop,
/// poison and eviction are the real episode core's, so catching this
/// mutant also shows that the shared core hides no protocol bug.
///
/// The race: the last arriver bumps `episode`, releasing the waiters; a
/// released thread re-arrives for the next episode and decrements the
/// still-un-re-armed counter (0 → wraparound); the completer's belated
/// re-arm then overwrites the counter, silently discarding that arrival.
/// The next episode can never complete — a **lost wakeup** that needs at
/// least two episodes and one specific preemption to manifest.
#[derive(Debug)]
pub struct MutantCentral<S: SyncOps = ShadowSync> {
    count: S::AtomicUsize,
    episode: S::AtomicU64,
}

impl<S: SyncOps> MutantCentral<S> {
    /// Creates the mutant barrier for `n` participants: this protocol
    /// behind the real [`Barrier`].
    #[must_use]
    pub fn new(n: usize) -> Barrier<Self, S> {
        let protocol = MutantCentral {
            count: S::AtomicUsize::new(n),
            episode: S::AtomicU64::new(0),
        };
        Barrier::from_protocol(n, StallPolicy::Spin, protocol)
    }
}

impl<S: SyncOps> Protocol<S> for MutantCentral<S> {
    fn arrive(&self, _id: usize, _episode: u64, cx: &Cx<'_, S>) {
        if self.count.fetch_sub(1, Ordering::AcqRel) == 1 {
            // BUG (seeded): the stock protocol re-arms the counter first,
            // then publishes. Swapping the two opens the window above.
            let completed = self.episode.fetch_add(1, Ordering::Release);
            self.count.store(cx.live(), Ordering::Release);
            cx.record_episode(completed);
        }
    }

    fn released(&self, _id: usize, episode: u64, _cx: &Cx<'_, S>) -> bool {
        self.episode.load(Ordering::Acquire) > episode
    }

    fn retire(&self, id: usize, cx: &Cx<'_, S>) {
        self.arrive(id, 0, cx);
    }

    fn admit(&self, _id: usize, _cx: &Cx<'_, S>) {
        no_admissions()
    }
}

// ---------------------------------------------------------------------------
// MutantCounting: non-atomic increment
// ---------------------------------------------------------------------------

/// Counting protocol whose arrival increment is a **load/store pair**
/// instead of a `fetch_add`.
///
/// Two arrivals interleaved load/load/store/store lose a count; the
/// threshold `(e + 1) · n` is never reached and every waiter sticks — a
/// lost wakeup reachable within a single episode.
#[derive(Debug)]
pub struct MutantCounting<S: SyncOps = ShadowSync> {
    n: u64,
    arrivals: S::AtomicU64,
}

impl<S: SyncOps> MutantCounting<S> {
    /// Creates the mutant barrier for `n` participants.
    #[must_use]
    pub fn new(n: usize) -> Barrier<Self, S> {
        let protocol = MutantCounting {
            n: n as u64,
            arrivals: S::AtomicU64::new(0),
        };
        Barrier::from_protocol(n, StallPolicy::Spin, protocol)
    }
}

impl<S: SyncOps> Protocol<S> for MutantCounting<S> {
    fn arrive(&self, _id: usize, _episode: u64, _cx: &Cx<'_, S>) {
        // BUG (seeded): the stock protocol uses fetch_add; a read-modify-
        // write torn into a load and a store drops concurrent arrivals.
        let current = self.arrivals.load(Ordering::Acquire);
        self.arrivals.store(current + 1, Ordering::Release);
    }

    fn released(&self, _id: usize, episode: u64, _cx: &Cx<'_, S>) -> bool {
        self.arrivals.load(Ordering::Acquire) >= (episode + 1) * self.n
    }

    fn retire(&self, _id: usize, _cx: &Cx<'_, S>) {
        no_removals()
    }

    fn admit(&self, _id: usize, _cx: &Cx<'_, S>) {
        no_admissions()
    }
}

// ---------------------------------------------------------------------------
// MutantDissemination: exact-match flag comparison
// ---------------------------------------------------------------------------

/// Dissemination protocol that compares received signals with `==` instead
/// of `>=`.
///
/// Flags carry monotone `episode + 1` values precisely so that a slot
/// overwritten by a *faster* partner (already an episode ahead — legal
/// under split-phase semantics, where a peer may race through its region
/// and re-arrive) still satisfies the slower waiter. Demanding an exact
/// match turns that benign overwrite into a permanently missed signal.
#[derive(Debug)]
pub struct MutantDissemination<S: SyncOps = ShadowSync> {
    n: usize,
    rounds: u32,
    flags: Vec<Vec<S::AtomicU64>>,
    round: Vec<S::AtomicU32>,
}

impl<S: SyncOps> MutantDissemination<S> {
    /// Creates the mutant barrier for `n` participants.
    #[must_use]
    pub fn new(n: usize) -> Barrier<Self, S> {
        assert!(n > 1, "the bug needs a partner");
        let rounds = dissemination::rounds(n);
        let protocol = MutantDissemination {
            n,
            rounds,
            flags: (0..rounds)
                .map(|_| (0..n).map(|_| S::AtomicU64::new(0)).collect())
                .collect(),
            round: (0..n).map(|_| S::AtomicU32::new(0)).collect(),
        };
        Barrier::from_protocol(n, StallPolicy::Spin, protocol)
    }

    fn signal(&self, from: usize, round: u32, episode_plus_one: u64) {
        let target = dissemination::partner(from, round, self.n);
        self.flags[round as usize][target].store(episode_plus_one, Ordering::Release);
    }
}

impl<S: SyncOps> Protocol<S> for MutantDissemination<S> {
    fn arrive(&self, id: usize, episode: u64, _cx: &Cx<'_, S>) {
        self.round[id].store(0, Ordering::Relaxed);
        self.signal(id, 0, episode + 1);
    }

    fn released(&self, id: usize, episode: u64, _cx: &Cx<'_, S>) -> bool {
        let goal = episode + 1;
        loop {
            let round = self.round[id].load(Ordering::Relaxed);
            if round >= self.rounds {
                return true;
            }
            // BUG (seeded): `==` instead of `>=` — a partner running an
            // episode ahead overwrites the slot with goal + 1 and this
            // waiter never matches again.
            if self.flags[round as usize][id].load(Ordering::Acquire) == goal {
                let next = round + 1;
                if next < self.rounds {
                    self.signal(id, next, goal);
                }
                self.round[id].store(next, Ordering::Relaxed);
                if next == self.rounds {
                    return true;
                }
            } else {
                return false;
            }
        }
    }

    fn retire(&self, _id: usize, _cx: &Cx<'_, S>) {
        no_removals()
    }

    fn admit(&self, _id: usize, _cx: &Cx<'_, S>) {
        no_admissions()
    }
}

// ---------------------------------------------------------------------------
// MutantTree: propagate-before-re-arm
// ---------------------------------------------------------------------------

/// Combining-tree protocol (fan-in 2) whose completing arrival at a node
/// **propagates upward before re-arming the node** — the tree-shaped twin
/// of [`MutantCentral`]: a fast participant released by the root's episode
/// bump re-arrives and decrements a not-yet-re-armed node; the belated
/// re-arm overwrites the wrapped counter and the arrival is lost.
#[derive(Debug)]
pub struct MutantTree<S: SyncOps = ShadowSync> {
    nodes: Vec<MutantNode<S>>,
    episode: S::AtomicU64,
}

#[derive(Debug)]
struct MutantNode<S: SyncOps> {
    count: S::AtomicUsize,
    expected: usize,
    parent: Option<usize>,
}

impl<S: SyncOps> MutantTree<S> {
    const FAN_IN: usize = 2;

    /// Creates the mutant barrier for `n` participants, fan-in 2.
    #[must_use]
    pub fn new(n: usize) -> Barrier<Self, S> {
        // Level by level, bottom-up: each level's nodes absorb the level
        // below (the participants, for the leaves) until one root remains.
        let mut nodes: Vec<MutantNode<S>> = Vec::new();
        let mut below: Option<usize> = None;
        let mut below_len = n;
        loop {
            let start = nodes.len();
            let len = below_len.div_ceil(Self::FAN_IN);
            for g in 0..len {
                let members = Self::FAN_IN.min(below_len - g * Self::FAN_IN);
                nodes.push(MutantNode {
                    count: S::AtomicUsize::new(members),
                    expected: members,
                    parent: None,
                });
            }
            if let Some(below_start) = below {
                for i in 0..below_len {
                    nodes[below_start + i].parent = Some(start + i / Self::FAN_IN);
                }
            }
            if len <= 1 {
                break;
            }
            (below, below_len) = (Some(start), len);
        }
        let protocol = MutantTree {
            nodes,
            episode: S::AtomicU64::new(0),
        };
        Barrier::from_protocol(n, StallPolicy::Spin, protocol)
    }

    fn signal_node(&self, index: usize) {
        let node = &self.nodes[index];
        if node.count.fetch_sub(1, Ordering::AcqRel) == 1 {
            // BUG (seeded): the stock protocol re-arms the node before
            // propagating; doing it after leaves a window where released
            // participants decrement a stale counter.
            match node.parent {
                Some(parent) => self.signal_node(parent),
                None => {
                    self.episode.fetch_add(1, Ordering::Release);
                }
            }
            node.count.store(node.expected, Ordering::Release);
        }
    }
}

impl<S: SyncOps> Protocol<S> for MutantTree<S> {
    fn arrive(&self, id: usize, _episode: u64, _cx: &Cx<'_, S>) {
        self.signal_node(id / Self::FAN_IN);
    }

    fn released(&self, _id: usize, episode: u64, _cx: &Cx<'_, S>) -> bool {
        self.episode.load(Ordering::Acquire) > episode
    }

    fn retire(&self, _id: usize, _cx: &Cx<'_, S>) {
        no_removals()
    }

    fn admit(&self, _id: usize, _cx: &Cx<'_, S>) {
        no_admissions()
    }
}

// ---------------------------------------------------------------------------
// MutantEarlyRelease: off-by-one wait predicate
// ---------------------------------------------------------------------------

/// The stock [`Central`] protocol with a release predicate that uses `>=`
/// instead of `>`: `wait(token)` for episode *e* returns as soon as the
/// episode counter reaches *e* — i.e. immediately, before anyone else
/// arrived. This is the canonical **fuzzy-semantics violation** and proves
/// the checker's ledger check fires: no deadlock, no panic, just a barrier
/// that does not barrier.
#[derive(Debug)]
pub struct MutantEarlyRelease<S: SyncOps = ShadowSync> {
    inner: Central<S>,
}

impl<S: SyncOps> MutantEarlyRelease<S> {
    /// Creates the mutant barrier for `n` participants.
    #[must_use]
    pub fn new(n: usize) -> Barrier<Self, S> {
        let protocol = MutantEarlyRelease {
            inner: Central::for_participants(n),
        };
        Barrier::from_protocol(n, StallPolicy::Spin, protocol)
    }
}

impl<S: SyncOps> Protocol<S> for MutantEarlyRelease<S> {
    fn arrive(&self, id: usize, episode: u64, cx: &Cx<'_, S>) {
        self.inner.arrive(id, episode, cx);
    }

    fn released(&self, _id: usize, episode: u64, _cx: &Cx<'_, S>) -> bool {
        // BUG (seeded): `>=` instead of `>` — satisfied before the
        // episode completes.
        self.inner.release_epoch() >= Some(episode)
    }

    fn retire(&self, id: usize, cx: &Cx<'_, S>) {
        self.inner.retire(id, cx);
    }

    fn admit(&self, _id: usize, _cx: &Cx<'_, S>) {
        no_admissions()
    }
}

// ---------------------------------------------------------------------------
// MutantLeaderEarlyRelease: shard released before the top-level sync
// ---------------------------------------------------------------------------

/// Hierarchical (sharded) protocol whose shard leader **bumps the shard's
/// release epoch as soon as its own shard fills**, before the top-level
/// synchronization across shards has completed.
///
/// The tempting-but-wrong optimization: "my shard is done, release my
/// local waiters early and let the leader handle the rest". A full shard's
/// waiters then sail past participants in *other* shards that have not
/// even arrived — the hierarchical flavor of the canonical fuzzy-semantics
/// violation, invisible to deadlock detection (every wait returns) and
/// caught only by the ledger check. The stock
/// [`fuzzy_barrier::HierBarrier`] guards exactly this edge: a shard epoch
/// may only advance to a goal its global episode word has reached.
#[derive(Debug)]
pub struct MutantLeaderEarlyRelease<S: SyncOps = ShadowSync> {
    shards: Vec<MutantShard<S>>,
    /// Total shard sign-ins — what the *correct* wait predicate would
    /// consult (`sign_ins >= (episode + 1) * shards`).
    top_sign_ins: S::AtomicU64,
}

#[derive(Debug)]
struct MutantShard<S: SyncOps> {
    count: S::AtomicUsize,
    expected: usize,
    epoch: S::AtomicU64,
}

impl<S: SyncOps> MutantLeaderEarlyRelease<S> {
    const SHARD: usize = 2;

    /// Creates the mutant barrier for `n` participants, shard size 2.
    #[must_use]
    pub fn new(n: usize) -> Barrier<Self, S> {
        assert!(n > Self::SHARD, "the bug needs a second shard");
        let shards = (0..n.div_ceil(Self::SHARD))
            .map(|g| {
                let members = Self::SHARD.min(n - g * Self::SHARD);
                MutantShard {
                    count: S::AtomicUsize::new(members),
                    expected: members,
                    epoch: S::AtomicU64::new(0),
                }
            })
            .collect();
        let protocol = MutantLeaderEarlyRelease {
            shards,
            top_sign_ins: S::AtomicU64::new(0),
        };
        Barrier::from_protocol(n, StallPolicy::Spin, protocol)
    }
}

impl<S: SyncOps> Protocol<S> for MutantLeaderEarlyRelease<S> {
    fn arrive(&self, id: usize, _episode: u64, _cx: &Cx<'_, S>) {
        let shard = &self.shards[id / Self::SHARD];
        if shard.count.fetch_sub(1, Ordering::AcqRel) == 1 {
            shard.count.store(shard.expected, Ordering::Release);
            self.top_sign_ins.fetch_add(1, Ordering::Release);
            // BUG (seeded): the shard epoch must only advance once the
            // top level confirms *every* shard arrived. Bumping it here
            // releases this shard's waiters while other shards may still
            // be empty.
            shard.epoch.fetch_add(1, Ordering::Release);
        }
    }

    fn released(&self, id: usize, episode: u64, _cx: &Cx<'_, S>) -> bool {
        self.shards[id / Self::SHARD].epoch.load(Ordering::Acquire) > episode
    }

    fn retire(&self, _id: usize, _cx: &Cx<'_, S>) {
        no_removals()
    }

    fn admit(&self, _id: usize, _cx: &Cx<'_, S>) {
        no_admissions()
    }
}

// ---------------------------------------------------------------------------
// MutantNoPoison: forgets to poison
// ---------------------------------------------------------------------------

/// A fault-handling wrapper around the stock [`CentralBarrier`] whose
/// `poison` is a **no-op** — the "caught the panic, forgot to tell the
/// barrier" bug. `abort` still consumes the aborter's token, so the
/// in-flight episode may complete, but peers that arrive for the *next*
/// episode wait for a participant that will never come and nobody ever
/// releases them: a deadlock only the poison path could have prevented.
#[derive(Debug)]
pub struct MutantNoPoison {
    inner: CentralBarrier<ShadowSync>,
}

impl MutantNoPoison {
    /// Creates the mutant for `n` participants.
    #[must_use]
    pub fn new(n: usize) -> Self {
        MutantNoPoison {
            inner: CentralBarrier::with_policy_in(n, StallPolicy::Spin),
        }
    }
}

impl SplitBarrier for MutantNoPoison {
    fn arrive(&self, id: usize) -> ArrivalToken {
        self.inner.arrive(id)
    }

    fn is_complete(&self, token: &ArrivalToken) -> bool {
        self.inner.is_complete(token)
    }

    fn wait_deadline(
        &self,
        token: ArrivalToken,
        deadline: Deadline,
    ) -> Result<WaitOutcome, BarrierError> {
        self.inner.wait_deadline(token, deadline)
    }

    // BUG (seeded): the recovery layer swallows the failure instead of
    // poisoning. `abort` (derived in the trait) drops the token and calls
    // *this* no-op, so peers blocked on the next episode hang forever.
    fn poison(&self) {}

    fn clear_poison(&self) {
        self.inner.clear_poison();
    }

    fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
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
}

// ---------------------------------------------------------------------------
// MutantEvictNoMask: evicts without shrinking the mask
// ---------------------------------------------------------------------------

/// A fault-handling wrapper around the stock [`CentralBarrier`] whose
/// `evict` supplies the stand-in arrival but **forgets to shrink the
/// participant mask**. The in-flight episode completes (the stand-in
/// counts), so the bug looks fixed — but every later episode still waits
/// for the dead participant's arrival. The survivors' ledger shows all of
/// them arrived, so the checker classifies the hang as a lost wakeup.
#[derive(Debug)]
pub struct MutantEvictNoMask {
    inner: CentralBarrier<ShadowSync>,
}

impl MutantEvictNoMask {
    /// Creates the mutant for `n` participants.
    #[must_use]
    pub fn new(n: usize) -> Self {
        MutantEvictNoMask {
            inner: CentralBarrier::with_policy_in(n, StallPolicy::Spin),
        }
    }
}

impl SplitBarrier for MutantEvictNoMask {
    fn arrive(&self, id: usize) -> ArrivalToken {
        self.inner.arrive(id)
    }

    fn is_complete(&self, token: &ArrivalToken) -> bool {
        self.inner.is_complete(token)
    }

    fn wait_deadline(
        &self,
        token: ArrivalToken,
        deadline: Deadline,
    ) -> Result<WaitOutcome, BarrierError> {
        self.inner.wait_deadline(token, deadline)
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

    fn evict(&self, id: usize) -> Result<(), BarrierError> {
        // BUG (seeded): one stand-in arrival on the evictee's behalf, but
        // the expected-arrivals mask keeps its old width — the *next*
        // episode still counts the dead participant.
        drop(self.inner.arrive(id));
        Ok(())
    }

    fn participants(&self) -> usize {
        self.inner.participants()
    }

    fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }
}

// ---------------------------------------------------------------------------
// MutantRacyEvictGuard: check-then-act eviction guard
// ---------------------------------------------------------------------------

/// Centralized barrier whose `evict` guards the last survivor with a
/// **check-then-act** sequence: "is there a survivor?" is a load, the claim
/// and the shrink are separate RMWs after it, and nothing makes the three
/// indivisible. Two evictors that interleave between the check and the
/// shrink each see a survivor in the other; both succeed, and the barrier
/// is empty — against the trait's "evicting the last live participant
/// fails with `EmptyGroup`". This is the guard every stock backend
/// hand-copied before the episode core serialised it; sequential callers
/// (every older eviction test) never see the difference.
#[derive(Debug)]
pub struct MutantRacyEvictGuard<S: SyncOps = ShadowSync> {
    n: usize,
    expected: S::AtomicUsize,
    count: S::AtomicUsize,
    episode: S::AtomicU64,
    local_episode: Vec<S::AtomicU64>,
    evicted: Vec<S::AtomicU32>,
}

impl<S: SyncOps> MutantRacyEvictGuard<S> {
    /// Creates the mutant for `n` participants.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        MutantRacyEvictGuard {
            n,
            expected: S::AtomicUsize::new(n),
            count: S::AtomicUsize::new(n),
            episode: S::AtomicU64::new(0),
            local_episode: (0..n).map(|_| S::AtomicU64::new(0)).collect(),
            evicted: (0..n).map(|_| S::AtomicU32::new(0)).collect(),
        }
    }

    fn count_down(&self) {
        if self.count.fetch_sub(1, Ordering::AcqRel) == 1 {
            let expected = self.expected.load(Ordering::Acquire);
            self.count.store(expected, Ordering::Release);
            self.episode.fetch_add(1, Ordering::Release);
        }
    }
}

impl<S: SyncOps> SplitBarrier for MutantRacyEvictGuard<S> {
    fn arrive(&self, id: usize) -> ArrivalToken {
        let episode = self.local_episode[id].fetch_add(1, Ordering::Relaxed);
        self.count_down();
        ArrivalToken::new(id, episode)
    }

    fn is_complete(&self, token: &ArrivalToken) -> bool {
        self.episode.load(Ordering::Acquire) > token.episode()
    }

    /// Unbounded whatever the deadline (shadow waits never time out), and
    /// blind to poison, which this copy does not carry: the evict-race
    /// scenario raises neither.
    fn wait_deadline(
        &self,
        token: ArrivalToken,
        _deadline: Deadline,
    ) -> Result<WaitOutcome, BarrierError> {
        let report = S::wait_until(StallPolicy::Spin, || {
            self.episode.load(Ordering::Acquire) > token.episode()
        });
        Ok(WaitOutcome::from_report(token.episode(), report))
    }

    fn poison(&self) {}

    fn clear_poison(&self) {}

    fn is_poisoned(&self) -> bool {
        false
    }

    fn evict(&self, id: usize) -> Result<(), BarrierError> {
        if id >= self.n {
            return Err(BarrierError::InvalidParticipant {
                id,
                capacity: self.n,
            });
        }
        if self.evicted[id].load(Ordering::Acquire) != 0 {
            return Err(BarrierError::NotAParticipant { id });
        }
        // BUG (seeded): the survivor check, the claim and the shrink are
        // three separate steps; the real core runs them under one lock.
        if self.expected.load(Ordering::Acquire) <= 1 {
            return Err(BarrierError::EmptyGroup);
        }
        if self.evicted[id].fetch_max(1, Ordering::AcqRel) != 0 {
            return Err(BarrierError::NotAParticipant { id });
        }
        self.expected.fetch_sub(1, Ordering::AcqRel);
        self.count_down();
        Ok(())
    }

    fn participants(&self) -> usize {
        self.n
    }

    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::default()
    }
}

// ---------------------------------------------------------------------------
// MutantNoWake / MutantWakeBeforePublish: a completer that strands the
// parked
// ---------------------------------------------------------------------------

const NO_WAKE: u8 = 0;
const WAKE_BEFORE_PUBLISH: u8 = 1;

/// The stock [`Central`] protocol, release word included, with the
/// completer's wake of the core's parked set broken, chosen by `BUG`.
/// Everything else — ids, tokens, the wait loop, poison, the parked set
/// itself — is the real episode core's, and the frontend that parks on it
/// is the real [`fuzzy_barrier::AsyncBarrier`], over the mutant directly or
/// over a `ReconfigBarrier` built on it. Use it through [`MutantNoWake`]
/// and [`MutantWakeBeforePublish`].
#[derive(Debug)]
pub struct CompleterWake<const BUG: u8, S: SyncOps = ShadowSync> {
    count: S::AtomicUsize,
    episode: S::AtomicU64,
}

/// [`CompleterWake`] whose completer **never calls
/// [`Cx::wake_parked`]**. A thread-based waiter polls the release word and
/// never notices; a parked future is woken by nobody: its episode fully
/// arrived, its waker sits in the core, and the flag it sleeps on is
/// never set — the canonical lost wakeup of poll-based waiting.
pub type MutantNoWake<S = ShadowSync> = CompleterWake<NO_WAKE, S>;

/// [`CompleterWake`] whose completer **wakes before it publishes**. A
/// waiter that registers between the wake's look at the parked count and
/// the publication re-reads a word that has not moved yet, and returns
/// `Pending`; the publication then wakes nobody. One preemption, between
/// two lines whose order looks free.
pub type MutantWakeBeforePublish<S = ShadowSync> = CompleterWake<WAKE_BEFORE_PUBLISH, S>;

impl<const BUG: u8, S: SyncOps> CompleterWake<BUG, S> {
    /// Creates the mutant barrier for `n` participants: this protocol
    /// behind the real [`Barrier`].
    #[must_use]
    pub fn new(n: usize) -> Barrier<Self, S> {
        let protocol = CompleterWake {
            count: S::AtomicUsize::new(n),
            episode: S::AtomicU64::new(0),
        };
        Barrier::from_protocol(n, StallPolicy::Spin, protocol)
    }

    fn count_down(&self, cx: &Cx<'_, S>) {
        if self.count.fetch_sub(1, Ordering::AcqRel) == 1 {
            let next = self.episode.load(Ordering::Relaxed) + 1;
            cx.admit_staged(self, || next);
            self.count.store(cx.live(), Ordering::Release);
            // BUG (seeded): the stock completer wakes the parked set with
            // the release it has just published, after publishing it.
            if BUG == WAKE_BEFORE_PUBLISH {
                cx.wake_parked(next);
            }
            let completed = self.episode.fetch_add(1, Ordering::SeqCst);
            cx.record_episode(completed);
        }
    }
}

impl<const BUG: u8, S: SyncOps> Protocol<S> for CompleterWake<BUG, S> {
    fn arrive(&self, _id: usize, _episode: u64, cx: &Cx<'_, S>) {
        self.count_down(cx);
    }

    fn released(&self, _id: usize, episode: u64, _cx: &Cx<'_, S>) -> bool {
        self.episode.load(Ordering::Acquire) > episode
    }

    fn release_epoch(&self) -> Option<u64> {
        Some(self.episode.load(Ordering::Acquire))
    }

    fn retire(&self, _id: usize, cx: &Cx<'_, S>) {
        self.count_down(cx);
    }

    /// Nothing to do, as for [`Central`]: the completer re-arms with the
    /// live count.
    fn admit(&self, _id: usize, _cx: &Cx<'_, S>) {}
}

// ---------------------------------------------------------------------------
// MutantEarlyEpoch: release word one arrival ahead of is_complete
// ---------------------------------------------------------------------------

/// The stock [`Central`] protocol with a [`Protocol::release_epoch`] that
/// **runs one arrival ahead** of `released`.
///
/// `arrive` and `released` are the real protocol's and the wait loop the
/// real core's, so every thread-based scenario passes. Only a layer that
/// trusts the release word instead of probing tokens — the real
/// [`fuzzy_barrier::AsyncBarrier`]'s registry drain — is misled: with one
/// arrival still missing it is told the episode released, resolves the
/// parked futures, and a task leaves the barrier before a peer has
/// arrived. The async scenario's ledger reports that as a fuzzy
/// violation; this is the check behind the trait's contract, `Some(k)`
/// ⇔ `is_complete(token(id, e)) == (e < k)` for every id.
#[derive(Debug)]
pub struct MutantEarlyEpoch<S: SyncOps = ShadowSync> {
    inner: Central<S>,
    n: u64,
    /// Arrivals so far, counted before the protocol sees them.
    arrivals: S::AtomicU64,
}

impl<S: SyncOps> MutantEarlyEpoch<S> {
    /// Creates the mutant barrier for `n` participants.
    #[must_use]
    pub fn new(n: usize) -> Barrier<Self, S> {
        let protocol = MutantEarlyEpoch {
            inner: Central::for_participants(n),
            n: n as u64,
            arrivals: S::AtomicU64::new(0),
        };
        Barrier::from_protocol(n, StallPolicy::Spin, protocol)
    }
}

impl<S: SyncOps> Protocol<S> for MutantEarlyEpoch<S> {
    fn arrive(&self, id: usize, episode: u64, cx: &Cx<'_, S>) {
        self.arrivals.fetch_add(1, Ordering::AcqRel);
        self.inner.arrive(id, episode, cx);
    }

    fn released(&self, id: usize, episode: u64, cx: &Cx<'_, S>) -> bool {
        self.inner.released(id, episode, cx)
    }

    fn release_epoch(&self) -> Option<u64> {
        // BUG (seeded): the word must say how many episodes *completed*;
        // the `+ 1` publishes an episode when its last arrival is still
        // outstanding.
        let arrivals = self.arrivals.load(Ordering::Acquire);
        Some((arrivals + 1) / self.n)
    }

    fn retire(&self, id: usize, cx: &Cx<'_, S>) {
        self.inner.retire(id, cx);
    }

    fn admit(&self, _id: usize, _cx: &Cx<'_, S>) {
        no_admissions()
    }
}

// ---------------------------------------------------------------------------
// MutantParkWithoutRecheck / MutantYieldWithoutWake / MutantRequeueWithoutWake:
// a future short of one obligation
// ---------------------------------------------------------------------------

const PARK_WITHOUT_RECHECK: u8 = 0;
const YIELD_WITHOUT_WAKE: u8 = 1;
const REQUEUE_WITHOUT_WAKE: u8 = 2;

/// A replica of the real [`fuzzy_barrier::AsyncBarrier`]'s future — a
/// poll that finds its episode released resolves, a future's first
/// pending poll yields (wakes itself, registers nothing), a later one
/// parks through [`SplitBarrier::register_waker`], or re-queues itself
/// where the backend cannot park — with one of the obligations of the
/// frontend's lost-wakeup argument dropped, chosen by `BUG`. Use it
/// through [`MutantParkWithoutRecheck`] and [`MutantYieldWithoutWake`],
/// over the stock [`CentralBarrier`] and its parking place in the core,
/// and [`MutantRequeueWithoutWake`], over the stock dissemination barrier,
/// which has none.
pub struct FastPathReplica<const BUG: u8> {
    inner: Box<dyn SplitBarrier>,
}

impl<const BUG: u8> fmt::Debug for FastPathReplica<BUG> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FastPathReplica")
            .field("bug", &BUG)
            .finish_non_exhaustive()
    }
}

/// [`FastPathReplica`] whose poll **registers and returns `Pending`
/// without re-reading the release word**. The completer can publish and
/// find nothing parked between the poll's lock-free read and its
/// registration; the waiter then sleeps on an episode that has already
/// released — a lost wakeup that needs one preemption, between two lines
/// that look atomic.
pub type MutantParkWithoutRecheck = FastPathReplica<PARK_WITHOUT_RECHECK>;

/// [`FastPathReplica`] whose first pending poll **yields without waking
/// its own task**: it returns `Pending` having registered nothing, so no
/// completer can ever find it, and nothing asks for the poll that would
/// park. The task sleeps through the completion of an episode it has
/// fully arrived for — a lost wakeup on the first schedule in which
/// anyone's first poll finds the episode open.
pub type MutantYieldWithoutWake = FastPathReplica<YIELD_WITHOUT_WAKE>;

/// [`FastPathReplica`] over dissemination whose pending polls after the
/// yield **return `Pending` without waking their own task**. The backend
/// refuses the registration — its waiters drive their own rounds, so
/// nobody else will ever wake them — and the task sleeps through the
/// completion its next poll would have found: a lost wakeup on the first
/// schedule in which a second poll finds the episode open.
pub type MutantRequeueWithoutWake = FastPathReplica<REQUEUE_WITHOUT_WAKE>;

impl<const BUG: u8> FastPathReplica<BUG> {
    /// Creates the mutant for `n` participants.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let inner: Box<dyn SplitBarrier> = if BUG == REQUEUE_WITHOUT_WAKE {
            Box::new(DisseminationBarrier::<ShadowSync>::with_policy_in(
                n,
                StallPolicy::Spin,
            ))
        } else {
            Box::new(CentralBarrier::<ShadowSync>::with_policy_in(
                n,
                StallPolicy::Spin,
            ))
        };
        FastPathReplica { inner }
    }
}

impl<const BUG: u8> AsyncFrontend for FastPathReplica<BUG> {
    fn participants(&self) -> usize {
        self.inner.participants()
    }

    fn arrive_future(&self, id: usize) -> AsyncArrival<'_> {
        let token = self.inner.arrive(id);
        let episode = token.episode();
        drop(token);
        Box::pin(FastPathFuture::<BUG> {
            inner: &*self.inner,
            id,
            episode,
            yielded: false,
        })
    }
}

struct FastPathFuture<'a, const BUG: u8> {
    inner: &'a dyn SplitBarrier,
    id: usize,
    episode: u64,
    yielded: bool,
}

impl<const BUG: u8> Future for FastPathFuture<'_, BUG> {
    type Output = Result<WaitOutcome, BarrierError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = Pin::into_inner(self);
        let released = || match this.inner.release_epoch() {
            Some(k) => this.episode < k,
            None => this
                .inner
                .is_complete(&ArrivalToken::new(this.id, this.episode)),
        };
        let ready = Poll::Ready(Ok(WaitOutcome {
            episode: this.episode,
            ..WaitOutcome::default()
        }));
        if released() {
            return ready;
        }
        if !this.yielded {
            this.yielded = true;
            // BUG (seeded, `MutantYieldWithoutWake`): the real frontend
            // wakes its own waker before it returns this `Pending`.
            if BUG != YIELD_WITHOUT_WAKE {
                cx.waker().wake_by_ref();
            }
            return Poll::Pending;
        }
        let parked = this.inner.register_waker(this.id, this.episode, cx.waker());
        // BUG (seeded, `MutantParkWithoutRecheck`): the real frontend
        // re-reads the release word here, after registering, and returns
        // `Pending` on that answer only.
        if BUG != PARK_WITHOUT_RECHECK && released() {
            return ready;
        }
        // BUG (seeded, `MutantRequeueWithoutWake`): the real frontend wakes
        // its own waker before a `Pending` that parked nothing.
        if !parked && BUG != REQUEUE_WITHOUT_WAKE {
            cx.waker().wake_by_ref();
        }
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// MutantAdmitInFlight: admission stamped into the in-flight episode
// ---------------------------------------------------------------------------

/// A centralized barrier whose `admit` **counts the joiner in the
/// in-flight episode** instead of staging it for a completer: it stamps
/// the joiner's token with the episode now running and raises that
/// episode's countdown.
///
/// It runs behind the real [`ReconfigBarrier`], so only the inner
/// admission is wrong. The episode the joiner lands in was armed, and may
/// be partly arrived, at the old width: the joiner is released at an
/// epoch its peers' membership never included it in, or completes an
/// episode a founder has not begun, or the countdown it raised waits for
/// an arrival that never comes. The real core applies an admission only
/// where nobody has arrived for or probed the joiner's first episode
/// (`Cx::admit_staged`).
#[derive(Debug)]
pub struct MutantAdmitInFlight<S: SyncOps = ShadowSync> {
    count: S::AtomicUsize,
    live: S::AtomicUsize,
    episode: S::AtomicU64,
    /// Per participant: next episode to arrive for, and membership.
    local: Vec<S::AtomicU64>,
    member: Vec<S::AtomicU32>,
}

impl<S: SyncOps> MutantAdmitInFlight<S> {
    /// The mutant barrier for `n` participants, all members.
    #[must_use]
    pub fn new(n: usize) -> Self {
        MutantAdmitInFlight {
            count: S::AtomicUsize::new(n),
            live: S::AtomicUsize::new(n),
            episode: S::AtomicU64::new(0),
            local: (0..n).map(|_| S::AtomicU64::new(0)).collect(),
            member: (0..n).map(|_| S::AtomicU32::new(1)).collect(),
        }
    }

    fn count_down(&self) {
        if self.count.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.count
                .store(self.live.load(Ordering::Acquire), Ordering::Release);
            self.episode.fetch_add(1, Ordering::AcqRel);
        }
    }
}

impl MutantAdmitInFlight {
    /// A three-slot, two-founder group over the mutant.
    #[must_use]
    pub fn group() -> Group {
        let inner = |n| Arc::new(Self::new(n)) as Arc<dyn SplitBarrier>;
        ReconfigBarrier::with_policy_in(3, 2, StallPolicy::Spin, inner).0
    }
}

impl<S: SyncOps> SplitBarrier for MutantAdmitInFlight<S> {
    fn arrive(&self, id: usize) -> ArrivalToken {
        let episode = self.local[id].fetch_add(1, Ordering::AcqRel);
        self.count_down();
        ArrivalToken::new(id, episode)
    }

    fn is_complete(&self, token: &ArrivalToken) -> bool {
        self.episode.load(Ordering::Acquire) > token.episode()
    }

    fn wait_deadline(
        &self,
        token: ArrivalToken,
        _deadline: Deadline,
    ) -> Result<WaitOutcome, BarrierError> {
        S::wait_until(StallPolicy::Spin, || self.is_complete(&token));
        Ok(WaitOutcome {
            episode: token.episode(),
            ..WaitOutcome::default()
        })
    }

    /// Never poisoned: the reconfig scenarios do not poison.
    fn poison(&self) {}

    fn clear_poison(&self) {}

    fn is_poisoned(&self) -> bool {
        false
    }

    fn participants(&self) -> usize {
        self.local.len()
    }

    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::default()
    }

    fn release_epoch(&self) -> Option<u64> {
        Some(self.episode.load(Ordering::Acquire))
    }

    fn evict(&self, id: usize) -> Result<(), BarrierError> {
        self.member[id].store(0, Ordering::Release);
        self.live.fetch_sub(1, Ordering::AcqRel);
        self.count_down();
        Ok(())
    }

    fn admit(&self, id: usize) -> Result<(), BarrierError> {
        // BUG (seeded): counted at once, in the episode now in flight.
        self.local[id].store(self.episode.load(Ordering::Acquire), Ordering::Release);
        self.live.fetch_add(1, Ordering::AcqRel);
        self.count.fetch_add(1, Ordering::AcqRel);
        self.member[id].store(1, Ordering::Release);
        Ok(())
    }

    fn is_member(&self, id: usize) -> bool {
        self.member[id].load(Ordering::Acquire) != 0
    }
}

// ---------------------------------------------------------------------------
// forged_rank: a presentation that forgets the generation
// ---------------------------------------------------------------------------

/// A forged presentation to the real [`ReconfigBarrier`]: a handle refused
/// as stale is **presented again under the generation the refusal names**
/// — "the slot number checks out, good enough". Pass it as the
/// stale-generation scenario's presentation.
///
/// A departed member's retained handle then arrives straight into the
/// re-occupied slot: the re-occupant's slot gets a second arrival stream,
/// the inner countdown skews, and a member that was removed from the
/// group still gets released by it. The stale-generation scenario expects
/// exactly [`BarrierError::StaleGeneration`] from the probe, so any
/// schedule on which the forged presentation is accepted (or refused with
/// the wrong error) convicts it immediately.
///
/// # Errors
///
/// As [`ReconfigBarrier::rank`], except that a stale generation is never
/// reported.
pub fn forged_rank(group: &Group, handle: &MemberHandle) -> Result<usize, BarrierError> {
    match group.rank(handle) {
        // BUG (seeded): the held generation is dropped on the floor and
        // rebuilt from the slot's current one, so the stale-handle check
        // can never fire.
        Err(BarrierError::StaleGeneration { slot, current, .. }) => {
            group.rank(&MemberHandle::from_parts(slot, current))
        }
        presented => presented,
    }
}

// ---------------------------------------------------------------------------
// MutantNetSkipRound: forged dissemination round
// ---------------------------------------------------------------------------

/// Transport wrapper that **forges the higher dissemination rounds** the
/// moment a round-0 signal arrives, as if an optimizing refactor decided
/// the final round's signal "implies" the earlier ones and collapsed the
/// wait into a single receive.
///
/// The bug: a dissemination endpoint's release is a *transitive* proof —
/// round `r`'s inbound signal certifies the arrival of every endpoint
/// within distance `2^r`, but only because the sender itself waited for
/// its own round `r-1` signal first. Forging the higher rounds from the
/// round-0 signal lets the endpoint release knowing only its immediate
/// predecessor arrived; with three endpoints, ranks release while the
/// third has not even begun. No deadlock, no panic — the barrier simply
/// fails to barrier across the mesh, which only the ledger's fuzzy check
/// can see.
pub struct MutantNetSkipRound {
    inner: Arc<dyn Transport>,
    /// Keeps the forging sink alive: the wrapped transport (by the
    /// [`Transport`] contract) holds its sink weakly, so without this
    /// anchor the forger would die at `start` and drop every frame.
    forger: Mutex<Option<Arc<ForgingSink>>>,
}

impl std::fmt::Debug for MutantNetSkipRound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MutantNetSkipRound")
            .field("inner", &self.inner)
            .finish_non_exhaustive()
    }
}

impl MutantNetSkipRound {
    /// Wraps a real transport endpoint.
    #[must_use]
    pub fn new(inner: Arc<dyn Transport>) -> Self {
        MutantNetSkipRound {
            inner,
            forger: Mutex::new(None),
        }
    }
}

impl Transport for MutantNetSkipRound {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn nodes(&self) -> usize {
        self.inner.nodes()
    }

    fn send(&self, to: usize, msg: &Message) -> Result<(), NetError> {
        self.inner.send(to, msg)
    }

    fn start(&self, sink: Arc<dyn FrameSink>) {
        // Hold the real sink weakly, as transports do: the barrier owns
        // this transport, and a strong reference back would cycle.
        let forger = Arc::new(ForgingSink {
            inner: Arc::downgrade(&sink),
            rounds: dissemination::rounds(self.inner.nodes()),
        });
        *self.forger.lock().expect("forger lock") = Some(Arc::clone(&forger));
        self.inner.start(forger);
    }

    /// A caller's poll forges too: the frames it reads go through the
    /// same `Forger`, over the sink the caller hands in.
    fn poll(&self, sink: &dyn FrameSink) -> usize {
        self.inner.poll(&Forger {
            sink,
            rounds: dissemination::rounds(self.inner.nodes()),
        })
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }
}

/// The delivery-path half of [`MutantNetSkipRound`], over one sink.
struct Forger<'a> {
    sink: &'a dyn FrameSink,
    rounds: u32,
}

impl FrameSink for Forger<'_> {
    fn deliver(&self, from: usize, msg: Message) {
        let forge = match msg {
            Message::Signal { episode, round: 0 } => Some(episode),
            _ => None,
        };
        self.sink.deliver(from, msg);
        if let Some(episode) = forge {
            // BUG (seeded): claim every higher round's signal is already
            // in, so the barrier releases on first contact.
            for round in 1..self.rounds {
                self.sink.deliver(from, Message::Signal { episode, round });
            }
        }
    }

    fn decode_failure(&self, from: usize, err: DecodeError) {
        self.sink.decode_failure(from, err);
    }

    fn link_down(&self, peer: usize, graceful: bool) {
        self.sink.link_down(peer, graceful);
    }
}

/// The started sink of [`MutantNetSkipRound`]: a [`Forger`] over the
/// barrier's sink, held weakly.
struct ForgingSink {
    inner: Weak<dyn FrameSink>,
    rounds: u32,
}

impl FrameSink for ForgingSink {
    fn deliver(&self, from: usize, msg: Message) {
        if let Some(sink) = self.inner.upgrade() {
            Forger {
                sink: &*sink,
                rounds: self.rounds,
            }
            .deliver(from, msg);
        }
    }

    fn decode_failure(&self, from: usize, err: DecodeError) {
        if let Some(sink) = self.inner.upgrade() {
            sink.decode_failure(from, err);
        }
    }

    fn link_down(&self, peer: usize, graceful: bool) {
        if let Some(sink) = self.inner.upgrade() {
            sink.link_down(peer, graceful);
        }
    }
}

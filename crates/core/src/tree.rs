//! Combining-tree split-phase barrier with configurable fan-in.

use crate::error::BarrierError;
use crate::failure::{self, Deadline, OnTimeout, WaitPolicy};
use crate::spin::StallPolicy;
use crate::stats::{BarrierStats, StatsSnapshot, TelemetrySnapshot};
use crate::sync::{Atomic, RealSync, SyncOps};
use crate::token::{ArrivalToken, WaitOutcome};
use crate::SplitBarrier;
use fuzzy_util::CachePadded;
use std::sync::atomic::Ordering;

/// A combining-tree barrier: arrivals are counted in a tree of nodes with
/// fan-in `k`, so at most `k` participants ever contend on the same word.
///
/// The last arriver at each node propagates one arrival to its parent; the
/// last arriver at the root publishes the episode, releasing all waiters.
/// Arrival latency is O(log_k n) for the final arriver and O(1) for
/// everyone else, splitting the difference between the centralized design
/// (O(1) instructions, O(n) contention) and dissemination (O(log n)
/// instructions, zero contention).
///
/// # Examples
///
/// ```
/// use fuzzy_barrier::{TreeBarrier, SplitBarrier};
///
/// let b = TreeBarrier::new(1);
/// let t = b.arrive(0);
/// assert!(!b.wait(t).stalled);
/// ```
#[derive(Debug)]
pub struct TreeBarrier<S: SyncOps = RealSync> {
    n: usize,
    fan_in: usize,
    policy: StallPolicy,
    nodes: Vec<CachePadded<Node<S>>>,
    /// Leaf node index for each participant.
    leaf_of: Vec<usize>,
    episode: CachePadded<S::AtomicU64>,
    local_episode: Vec<CachePadded<S::AtomicU64>>,
    /// Live (non-evicted) participants; guards against emptying the tree.
    live: CachePadded<S::AtomicUsize>,
    /// Non-zero once the barrier is poisoned.
    poisoned: CachePadded<S::AtomicU32>,
    /// Per-participant eviction flags (non-zero once evicted).
    evicted: Vec<CachePadded<S::AtomicU32>>,
    stats: BarrierStats,
}

#[derive(Debug)]
struct Node<S: SyncOps> {
    count: S::AtomicUsize,
    /// Arrivals this node expects per episode. Atomic because eviction
    /// shrinks it at runtime; the completer re-reads it when re-arming.
    expected: S::AtomicUsize,
    parent: Option<usize>,
}

impl TreeBarrier {
    /// Creates a binary (fan-in 2) tree barrier for `n` participants.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::with_fan_in(n, 2, StallPolicy::default())
    }

    /// Creates a tree barrier with explicit fan-in and stall policy.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `fan_in < 2`.
    #[must_use]
    pub fn with_fan_in(n: usize, fan_in: usize, policy: StallPolicy) -> Self {
        Self::with_fan_in_in(n, fan_in, policy)
    }
}

impl<S: SyncOps> TreeBarrier<S> {
    /// Creates a tree barrier in an explicit [`SyncOps`] domain —
    /// `RealSync` in production, instrumented shadow state under the
    /// `fuzzy-check` model checker.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `fan_in < 2`.
    #[must_use]
    pub fn with_fan_in_in(n: usize, fan_in: usize, policy: StallPolicy) -> Self {
        assert!(n > 0, "a barrier needs at least one participant");
        assert!(fan_in >= 2, "fan-in must be at least 2");

        // Build levels bottom-up. Level 0 nodes absorb the participants;
        // each higher level absorbs the level below, until one root remains.
        let mut nodes: Vec<CachePadded<Node<S>>> = Vec::new();
        let mut leaf_of = vec![0usize; n];

        // level 0
        let level0 = n.div_ceil(fan_in);
        for g in 0..level0 {
            let members = members_of_group(n, fan_in, g);
            nodes.push(CachePadded::new(Node {
                count: S::AtomicUsize::new(members),
                expected: S::AtomicUsize::new(members),
                parent: None,
            }));
        }
        for (id, leaf) in leaf_of.iter_mut().enumerate() {
            *leaf = id / fan_in;
        }

        // higher levels
        let mut level_start = 0usize;
        let mut level_len = level0;
        while level_len > 1 {
            let next_len = level_len.div_ceil(fan_in);
            let next_start = nodes.len();
            for g in 0..next_len {
                let members = members_of_group(level_len, fan_in, g);
                nodes.push(CachePadded::new(Node {
                    count: S::AtomicUsize::new(members),
                    expected: S::AtomicUsize::new(members),
                    parent: None,
                }));
            }
            for i in 0..level_len {
                let parent = next_start + i / fan_in;
                nodes[level_start + i].parent = Some(parent);
            }
            level_start = next_start;
            level_len = next_len;
        }

        TreeBarrier {
            n,
            fan_in,
            policy,
            nodes,
            leaf_of,
            episode: CachePadded::new(S::AtomicU64::new(0)),
            local_episode: (0..n)
                .map(|_| CachePadded::new(S::AtomicU64::new(0)))
                .collect(),
            live: CachePadded::new(S::AtomicUsize::new(n)),
            poisoned: CachePadded::new(S::AtomicU32::new(0)),
            evicted: (0..n)
                .map(|_| CachePadded::new(S::AtomicU32::new(0)))
                .collect(),
            stats: BarrierStats::with_participants(n),
        }
    }

    /// The tree fan-in.
    #[must_use]
    pub fn fan_in(&self) -> usize {
        self.fan_in
    }

    /// Total number of tree nodes (exposed for tests and diagnostics).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// One arrival at node `index`, made by statistics recorder `who`.
    fn signal_node(&self, index: usize, who: usize) {
        let node = &self.nodes[index];
        if node.count.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Re-arm this node *before* propagating, so participants released
            // by the eventual episode bump find a full counter. The
            // expectation is re-read because eviction may have shrunk it
            // (the shrink is ordered before this read by the RMW chain on
            // `count`, exactly like the centralized barrier's `leave`).
            node.count
                .store(node.expected.load(Ordering::Acquire), Ordering::Release);
            match node.parent {
                Some(parent) => self.signal_node(parent, who),
                None => {
                    let completed = self.episode.fetch_add(1, Ordering::Release);
                    self.stats.record_episode(who, completed);
                }
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

fn members_of_group(total: usize, fan_in: usize, group: usize) -> usize {
    let start = group * fan_in;
    fan_in.min(total - start)
}

impl<S: SyncOps> SplitBarrier for TreeBarrier<S> {
    fn arrive(&self, id: usize) -> ArrivalToken {
        assert!(
            id < self.n,
            "participant id {id} out of range for {} participants",
            self.n
        );
        let episode = self.local_episode[id].fetch_add(1, Ordering::Relaxed);
        self.stats.record_arrival(id, episode);
        self.signal_node(self.leaf_of[id], id);
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
            Err(e) => panic!("TreeBarrier::wait failed: {e} (use wait_deadline to recover)"),
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
        if self.live.load(Ordering::Acquire) <= 1 {
            return Err(BarrierError::EmptyGroup);
        }
        if self.evicted[id].fetch_max(1, Ordering::AcqRel) != 0 {
            return Err(BarrierError::NotAParticipant { id });
        }
        self.live.fetch_sub(1, Ordering::AcqRel);
        self.stats.record_eviction();
        // Walk the evicted participant's leaf-to-root path. At each node,
        // shrink the expectation first (the completer re-reads it when
        // re-arming); then:
        //  - if other contributors remain, perform one stand-in arrival at
        //    this node for the in-flight episode (the evicted participant
        //    must not have arrived for it) and stop — future episodes are
        //    handled by the shrunk expectation;
        //  - if the node's expectation dropped to zero, the node is retired
        //    (nothing will ever signal it again) and the eviction moves up:
        //    the parent must stop expecting the retired node's signal.
        let mut index = self.leaf_of[id];
        loop {
            let node = &self.nodes[index];
            let prev = node.expected.fetch_sub(1, Ordering::AcqRel);
            if prev > 1 {
                // The evictor is not the evicted participant's thread.
                self.signal_node(index, BarrierStats::NOT_A_PARTICIPANT);
                return Ok(());
            }
            match node.parent {
                Some(parent) => index = parent,
                None => {
                    // Unreachable with the live-count guard: a surviving
                    // participant keeps the expectation chain on the shared
                    // path segment above 1, stopping the walk before the
                    // root retires.
                    unreachable!("evicting the last live participant is rejected above")
                }
            }
        }
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
    fn group_membership_math() {
        assert_eq!(members_of_group(5, 2, 0), 2);
        assert_eq!(members_of_group(5, 2, 1), 2);
        assert_eq!(members_of_group(5, 2, 2), 1);
        assert_eq!(members_of_group(7, 4, 1), 3);
    }

    #[test]
    fn tree_shapes() {
        // 1 participant: a single root node.
        assert_eq!(TreeBarrier::new(1).node_count(), 1);
        // 4 participants, fan-in 2: 2 leaves + 1 root.
        assert_eq!(TreeBarrier::new(4).node_count(), 3);
        // 8 participants, fan-in 2: 4 + 2 + 1.
        assert_eq!(TreeBarrier::new(8).node_count(), 7);
        // 9 participants, fan-in 4: 3 leaves + 1 root.
        assert_eq!(
            TreeBarrier::with_fan_in(9, 4, StallPolicy::default()).node_count(),
            4
        );
    }

    #[test]
    #[should_panic(expected = "fan-in")]
    fn fan_in_one_panics() {
        let _ = TreeBarrier::with_fan_in(4, 1, StallPolicy::default());
    }

    #[test]
    fn single_participant() {
        let b = TreeBarrier::new(1);
        for e in 0..4 {
            let t = b.arrive(0);
            assert!(b.is_complete(&t));
            assert_eq!(b.wait(t).episode, e);
        }
    }

    #[test]
    fn eviction_over_all_survivor_counts_victims_and_fanins() {
        // Survivor counts 2..=9 (n = 3..=10) at fan-ins 2 and 3, evicting
        // each id once. Covers single-member leaf groups (whose node
        // retires and pushes the eviction up the tree) and multi-member
        // groups (stand-in arrival at the leaf).
        for fan_in in [2usize, 3] {
            for survivors in 2usize..=9 {
                let n = survivors + 1;
                for victim in 0..n {
                    let b = Arc::new(TreeBarrier::with_fan_in(n, fan_in, StallPolicy::default()));
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
                                    assert_eq!(
                                        b.wait(t).episode,
                                        e,
                                        "n={n} k={fan_in} victim={victim} id={id}"
                                    );
                                }
                            });
                        }
                        victim_thread.join().unwrap();
                        b.evict(victim).unwrap();
                    });
                    assert_eq!(b.stats().evictions, 1, "n={n} k={fan_in} victim={victim}");
                }
            }
        }
    }

    #[test]
    fn evicting_sole_leaf_member_retires_its_path() {
        // n = 5, fan-in 2: participant 4 sits alone in its leaf group, and
        // the leaf's parent chain up to (not including) the root has
        // expectation 1 throughout — eviction must retire the whole path.
        let b = TreeBarrier::new(5);
        b.evict(4).unwrap();
        for e in 0..3u64 {
            let tokens: Vec<_> = (0..4).map(|id| b.arrive(id)).collect();
            for t in tokens {
                assert_eq!(b.wait(t).episode, e);
            }
        }
    }

    #[test]
    fn evict_mid_episode_completes_it() {
        let b = TreeBarrier::new(3);
        let t0 = b.arrive(0);
        let t1 = b.arrive(1);
        b.evict(2).unwrap();
        assert!(b.is_complete(&t0), "stand-in arrival completes episode 0");
        assert_eq!(b.wait(t0).episode, 0);
        assert_eq!(b.wait(t1).episode, 0);
    }

    #[test]
    fn tree_evict_guards() {
        let b = TreeBarrier::new(2);
        assert_eq!(
            b.evict(9).unwrap_err(),
            BarrierError::InvalidParticipant { id: 9, capacity: 2 }
        );
        b.evict(0).unwrap();
        assert_eq!(
            b.evict(0).unwrap_err(),
            BarrierError::NotAParticipant { id: 0 }
        );
        assert_eq!(b.evict(1).unwrap_err(), BarrierError::EmptyGroup);
        let t = b.arrive(1);
        assert_eq!(b.wait(t).episode, 0);
    }

    #[test]
    fn poison_unblocks_tree_waiters() {
        // n = 3: participant 2 never arrives, so neither wait below can be
        // satisfied by completion.
        let b = Arc::new(TreeBarrier::new(3));
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
        // wait_with escalation path still reports the timeout distinctly.
        b.clear_poison();
        let t = b.arrive(1);
        let policy = WaitPolicy::new()
            .deadline(std::time::Duration::from_millis(5))
            .on_timeout(OnTimeout::Poison);
        assert!(matches!(
            b.wait_with(t, &policy),
            Err(BarrierError::Timeout { episode: 0 })
        ));
        assert!(b.is_poisoned());
    }

    #[test]
    fn many_threads_many_fanins() {
        for (n, fan_in) in [(3usize, 2usize), (4, 2), (7, 3), (8, 4), (13, 2)] {
            let b = Arc::new(TreeBarrier::with_fan_in(n, fan_in, StallPolicy::default()));
            std::thread::scope(|s| {
                for id in 0..n {
                    let b = Arc::clone(&b);
                    s.spawn(move || {
                        for e in 0..200u64 {
                            let t = b.arrive(id);
                            assert_eq!(b.wait(t).episode, e, "n={n} k={fan_in}");
                        }
                    });
                }
            });
            assert_eq!(b.stats().episodes, 200, "n={n} k={fan_in}");
        }
    }
}

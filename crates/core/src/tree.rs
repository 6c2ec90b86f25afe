//! Combining-tree split-phase barrier with configurable fan-in.

use crate::episode::{Barrier, Cx, Protocol};
use crate::spin::StallPolicy;
use crate::sync::{Atomic, RealSync, SyncOps};
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
pub type TreeBarrier<S = RealSync> = Barrier<Tree<S>, S>;

/// The combining-tree arrival/release protocol behind [`TreeBarrier`].
#[derive(Debug)]
pub struct Tree<S: SyncOps> {
    fan_in: usize,
    tree: CombiningTree<S>,
    /// Number of completed episodes; the release word, published by the
    /// root's last arriver.
    episode: CachePadded<S::AtomicU64>,
}

/// The tree of count-down nodes itself, over `n` contributors: the
/// participants here, the shards under [`crate::HierBarrier`]. A call that
/// completes the root returns `true`; its owner then completes the episode.
#[derive(Debug)]
pub(crate) struct CombiningTree<S: SyncOps> {
    nodes: Vec<CachePadded<Node<S>>>,
    /// Leaf node index for each contributor.
    leaf_of: Vec<usize>,
}

#[derive(Debug)]
struct Node<S: SyncOps> {
    count: S::AtomicUsize,
    /// Arrivals this node expects per episode. Atomic because removal
    /// and admission change it at runtime; the completer re-reads it when
    /// re-arming.
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
        assert!(fan_in >= 2, "fan-in must be at least 2");
        let protocol = Tree {
            fan_in,
            tree: CombiningTree::new(n, fan_in),
            episode: CachePadded::new(S::AtomicU64::new(0)),
        };
        Barrier::from_protocol(n, policy, protocol)
    }

    /// The tree fan-in.
    #[must_use]
    pub fn fan_in(&self) -> usize {
        self.protocol().fan_in
    }

    /// Total number of tree nodes (exposed for tests and diagnostics).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.protocol().tree.nodes.len()
    }
}

impl<S: SyncOps> CombiningTree<S> {
    pub(crate) fn new(n: usize, fan_in: usize) -> Self {
        // Build levels bottom-up. Level 0 nodes absorb the contributors;
        // each higher level absorbs the level below, until one root remains.
        let mut nodes: Vec<CachePadded<Node<S>>> = Vec::new();
        let mut level_start = 0usize;
        let mut level_len = n;
        loop {
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
            // Level 0's children are the contributors, not nodes.
            if next_start > 0 {
                for i in 0..level_len {
                    nodes[level_start + i].parent = Some(next_start + i / fan_in);
                }
            }
            if next_len <= 1 {
                break;
            }
            level_start = next_start;
            level_len = next_len;
        }
        CombiningTree {
            nodes,
            leaf_of: (0..n).map(|id| id / fan_in).collect(),
        }
    }

    /// One arrival by contributor `id`; true if it completed the root.
    pub(crate) fn arrive(&self, id: usize) -> bool {
        self.signal_node(self.leaf_of[id])
    }

    /// One arrival at node `index`.
    fn signal_node(&self, index: usize) -> bool {
        let node = &self.nodes[index];
        if node.count.fetch_sub(1, Ordering::AcqRel) != 1 {
            return false;
        }
        // Re-arm this node *before* propagating, so participants released
        // by the eventual episode bump find a full counter. The expectation
        // is re-read because eviction may have shrunk it (the shrink is
        // ordered before this read by the RMW chain on `count`, exactly
        // like the centralized barrier's live count).
        node.count
            .store(node.expected.load(Ordering::Acquire), Ordering::Release);
        match node.parent {
            Some(parent) => self.signal_node(parent),
            None => true,
        }
    }

    /// Removes contributor `id`, which must not have arrived for the
    /// in-flight episode, while another contributor survives; true if its
    /// stand-in completed the root.
    ///
    /// Walks its leaf-to-root path. At each node, shrink the expectation
    /// first (the completer re-reads it when re-arming); then:
    ///  - if other contributors remain, perform one stand-in arrival at
    ///    this node for the in-flight episode and stop — future episodes
    ///    are handled by the shrunk expectation;
    ///  - if the node's expectation dropped to zero, the node is retired
    ///    (nothing will ever signal it again) and the removal moves up:
    ///    the parent must stop expecting the retired node's signal.
    pub(crate) fn retire(&self, id: usize) -> bool {
        let mut index = self.leaf_of[id];
        loop {
            let node = &self.nodes[index];
            let prev = node.expected.fetch_sub(1, Ordering::AcqRel);
            if prev > 1 {
                return self.signal_node(index);
            }
            match node.parent {
                Some(parent) => index = parent,
                None => {
                    // Unreachable: the core's eviction guard admits a
                    // removal only while a survivor remains, and admits
                    // them one at a time. A surviving contributor keeps
                    // the expectation chain on the shared path segment
                    // above 1, stopping the walk before the root retires.
                    unreachable!("the core rejects evicting the last live participant")
                }
            }
        }
    }

    /// Counts contributor `id` again, the dual of [`Self::retire`]. Runs
    /// while the tree is quiescent — the root's completer, before it
    /// publishes — so every live node's counter equals its expectation.
    /// Walks up from `id`'s leaf: a live node expects one more arrival; a
    /// retired one revives expecting exactly the new contributor, and its
    /// parent must expect the revived node again.
    pub(crate) fn admit(&self, id: usize) {
        let mut index = self.leaf_of[id];
        loop {
            let node = &self.nodes[index];
            if node.expected.fetch_add(1, Ordering::AcqRel) > 0 {
                node.count.fetch_add(1, Ordering::AcqRel);
                return;
            }
            node.count.store(1, Ordering::Release);
            match node.parent {
                Some(parent) => index = parent,
                None => return,
            }
        }
    }
}

/// What the call that completed a [`CombiningTree`]'s root does for its
/// owner `protocol`: applies staged admissions while every node is
/// quiescent, publishes the episode into `episode` (`SeqCst`, for
/// `wake_parked`), then wakes whoever parked below it.
#[inline]
pub(crate) fn complete<S: SyncOps>(
    protocol: &impl Protocol<S>,
    episode: &S::AtomicU64,
    cx: &Cx<'_, S>,
) {
    cx.admit_staged(protocol, || episode.load(Ordering::Relaxed) + 1);
    let completed = episode.fetch_add(1, Ordering::SeqCst);
    cx.record_episode(completed);
    cx.wake_parked(completed + 1);
}

fn members_of_group(total: usize, fan_in: usize, group: usize) -> usize {
    let start = group * fan_in;
    fan_in.min(total - start)
}

impl<S: SyncOps> Protocol<S> for Tree<S> {
    #[inline]
    fn arrive(&self, id: usize, _episode: u64, cx: &Cx<'_, S>) {
        if self.tree.arrive(id) {
            complete(self, &self.episode, cx);
        }
    }

    #[inline]
    fn released(&self, _id: usize, episode: u64, _cx: &Cx<'_, S>) -> bool {
        self.episode.load(Ordering::Acquire) > episode
    }

    #[inline]
    fn release_epoch(&self) -> Option<u64> {
        Some(self.episode.load(Ordering::Acquire))
    }

    fn retire(&self, id: usize, cx: &Cx<'_, S>) {
        if self.tree.retire(id) {
            complete(self, &self.episode, cx);
        }
    }

    fn admit(&self, id: usize, _cx: &Cx<'_, S>) {
        self.tree.admit(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitBarrier;
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

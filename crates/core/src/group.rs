//! Subset barriers: synchronize an arbitrary masked subset of participants
//! under a tag (the paper's "multiple barriers", Sec. 5).

use crate::centralized::CentralBarrier;
use crate::error::BarrierError;
use crate::failure::Deadline;
use crate::fuzzy::SplitBarrier;
use crate::mask::ProcMask;
use crate::spin::StallPolicy;
use crate::stats::{StatsSnapshot, TelemetrySnapshot};
use crate::sync::SyncOps;
use crate::tag::Tag;
use crate::token::{ArrivalToken, WaitOutcome};
use std::task::Waker;

/// A split-phase barrier over a subset of global participants, identified
/// by a [`Tag`].
///
/// A participant presents its **global** id and the tag once, to
/// [`Self::rank`], and from then on drives the barrier as the
/// [`SplitBarrier`] participant that rank names: its index within the
/// mask. The tag check is the software analogue of the hardware's
/// combinational tag-match logic: "two processors can only synchronize at
/// a barrier if their tags match". Everything else — membership,
/// eviction, admission, telemetry (per-participant entries are indexed by
/// rank) — is the inner barrier's.
///
/// Disjoint subsets of processors owning different `SubsetBarrier`s
/// synchronize completely independently, reproducing Fig. 6's stream-merge
/// topology.
///
/// # Examples
///
/// ```
/// use fuzzy_barrier::{ProcMask, SplitBarrier, SubsetBarrier, Tag};
///
/// let tag = Tag::new(1).expect("non-zero");
/// let mask: ProcMask = [2, 5].into_iter().collect();
/// let b = SubsetBarrier::new(tag, mask)?;
/// // Only participants 2 and 5 may synchronize, and only with the right tag.
/// assert!(b.rank(3, tag).is_err());
/// let rank = b.rank(5, tag)?;
/// assert_eq!(rank, 1);
/// let token = b.arrive(rank);
/// assert!(!b.is_complete(&token), "participant 2 has not arrived");
/// # Ok::<(), fuzzy_barrier::BarrierError>(())
/// ```
#[derive(Debug)]
pub struct SubsetBarrier<B: SplitBarrier = CentralBarrier> {
    tag: Tag,
    /// The founding mask. Ranks are frozen against it forever, so eviction
    /// never renumbers the survivors (the paper's mask shrink changes *who
    /// participates*, not *who is who*).
    mask: ProcMask,
    inner: B,
}

impl SubsetBarrier<CentralBarrier> {
    /// Creates a barrier for the participants in `mask`, identified by
    /// `tag`, with the default (centralized) backend.
    ///
    /// # Errors
    ///
    /// Returns [`BarrierError::EmptyGroup`] if the mask is empty.
    pub fn new(tag: Tag, mask: ProcMask) -> Result<Self, BarrierError> {
        Self::with_policy(tag, mask, StallPolicy::default())
    }

    /// Creates a barrier with an explicit stall policy.
    ///
    /// # Errors
    ///
    /// Returns [`BarrierError::EmptyGroup`] if the mask is empty.
    pub fn with_policy(
        tag: Tag,
        mask: ProcMask,
        policy: StallPolicy,
    ) -> Result<Self, BarrierError> {
        Self::with_policy_in(tag, mask, policy)
    }
}

impl<S: SyncOps> SubsetBarrier<CentralBarrier<S>> {
    /// Creates a centralized-backend barrier in an explicit [`SyncOps`]
    /// domain — `RealSync` in production, instrumented shadow state under
    /// the `fuzzy-check` model checker.
    ///
    /// # Errors
    ///
    /// Returns [`BarrierError::EmptyGroup`] if the mask is empty.
    pub fn with_policy_in(
        tag: Tag,
        mask: ProcMask,
        policy: StallPolicy,
    ) -> Result<Self, BarrierError> {
        if mask.is_empty() {
            return Err(BarrierError::EmptyGroup);
        }
        let inner = CentralBarrier::with_policy_in(mask.len(), policy);
        Self::from_backend(tag, mask, inner)
    }
}

impl<B: SplitBarrier> SubsetBarrier<B> {
    /// Wraps an arbitrary [`SplitBarrier`] backend (e.g. a
    /// [`crate::DisseminationBarrier`] for hot-spot-free subsets).
    ///
    /// # Errors
    ///
    /// Returns [`BarrierError::EmptyGroup`] if the mask is empty, and
    /// [`BarrierError::InvalidParticipant`] if the backend was built for a
    /// different participant count than `mask.len()`.
    pub fn from_backend(tag: Tag, mask: ProcMask, backend: B) -> Result<Self, BarrierError> {
        if mask.is_empty() {
            return Err(BarrierError::EmptyGroup);
        }
        if backend.participants() != mask.len() {
            return Err(BarrierError::InvalidParticipant {
                id: backend.participants(),
                capacity: mask.len(),
            });
        }
        Ok(SubsetBarrier {
            tag,
            mask,
            inner: backend,
        })
    }

    /// The barrier's tag.
    #[must_use]
    pub fn tag(&self) -> Tag {
        self.tag
    }

    /// The founding participant mask, unchanged by eviction; ask
    /// [`SplitBarrier::is_member`] who still participates.
    #[must_use]
    pub fn mask(&self) -> ProcMask {
        self.mask
    }

    /// Checks the credential global participant `id` presents, and returns
    /// its rank: the [`SplitBarrier`] participant id it drives this barrier
    /// as from then on.
    ///
    /// # Errors
    ///
    /// * [`BarrierError::TagMismatch`] if `tag` differs from the barrier's
    ///   tag (the hardware would simply never match; the library surfaces
    ///   the bug). Checked first, against no shared state.
    /// * [`BarrierError::NotAParticipant`] if `id` is not in the mask, or
    ///   its rank is not a member of the inner barrier (it was evicted, or
    ///   its admission has not taken effect).
    pub fn rank(&self, id: usize, tag: Tag) -> Result<usize, BarrierError> {
        if !tag.matches(&self.tag) {
            return Err(BarrierError::TagMismatch {
                presented: tag,
                expected: self.tag,
            });
        }
        self.mask
            .rank_of(id)
            .filter(|&rank| self.inner.is_member(rank))
            .ok_or(BarrierError::NotAParticipant { id })
    }
}

/// Every method forwards to the inner barrier, by rank.
impl<B: SplitBarrier> SplitBarrier for SubsetBarrier<B> {
    fn arrive(&self, rank: usize) -> ArrivalToken {
        self.inner.arrive(rank)
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

    fn participants(&self) -> usize {
        self.inner.participants()
    }

    fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }

    fn release_epoch(&self) -> Option<u64> {
        self.inner.release_epoch()
    }

    fn evict(&self, rank: usize) -> Result<(), BarrierError> {
        self.inner.evict(rank)
    }

    fn admit(&self, rank: usize) -> Result<(), BarrierError> {
        self.inner.admit(rank)
    }

    fn is_member(&self, rank: usize) -> bool {
        self.inner.is_member(rank)
    }

    fn register_waker(&self, rank: usize, episode: u64, waker: &Waker) -> bool {
        self.inner.register_waker(rank, episode, waker)
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        self.inner.telemetry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn tag(raw: u16) -> Tag {
        Tag::new(raw).expect("non-zero")
    }

    /// A backend that keeps the trait's default (unsupported) `evict`.
    struct NoEvict(CentralBarrier);

    impl SplitBarrier for NoEvict {
        fn arrive(&self, id: usize) -> ArrivalToken {
            self.0.arrive(id)
        }
        fn is_complete(&self, token: &ArrivalToken) -> bool {
            self.0.is_complete(token)
        }
        fn wait_deadline(
            &self,
            token: ArrivalToken,
            deadline: Deadline,
        ) -> Result<WaitOutcome, BarrierError> {
            self.0.wait_deadline(token, deadline)
        }
        fn poison(&self) {
            self.0.poison();
        }
        fn clear_poison(&self) {
            self.0.clear_poison();
        }
        fn is_poisoned(&self) -> bool {
            self.0.is_poisoned()
        }
        fn participants(&self) -> usize {
            self.0.participants()
        }
        fn stats(&self) -> StatsSnapshot {
            self.0.stats()
        }
    }

    #[test]
    fn empty_mask_rejected() {
        assert_eq!(
            SubsetBarrier::new(tag(1), ProcMask::new()).unwrap_err(),
            BarrierError::EmptyGroup
        );
    }

    #[test]
    fn tag_mismatch_detected() {
        let b = SubsetBarrier::new(tag(1), ProcMask::first_n(2)).unwrap();
        let err = b.rank(0, tag(2)).unwrap_err();
        assert!(matches!(err, BarrierError::TagMismatch { .. }));
    }

    #[test]
    fn non_member_rejected() {
        let mask: ProcMask = [1, 3].into_iter().collect();
        let b = SubsetBarrier::new(tag(1), mask).unwrap();
        assert_eq!(
            b.rank(2, tag(1)).unwrap_err(),
            BarrierError::NotAParticipant { id: 2 }
        );
        assert_eq!(b.rank(3, tag(1)), Ok(1));
    }

    #[test]
    fn sparse_members_synchronize() {
        let mask: ProcMask = [2, 5, 9].into_iter().collect();
        let b = Arc::new(SubsetBarrier::new(tag(4), mask).unwrap());
        std::thread::scope(|s| {
            for id in [2usize, 5, 9] {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    let rank = b.rank(id, tag(4)).unwrap();
                    for e in 0..200u64 {
                        let t = b.arrive(rank);
                        assert_eq!(b.wait(t).episode, e);
                    }
                });
            }
        });
        assert_eq!(b.stats().episodes, 200);
    }

    #[test]
    fn disjoint_subsets_do_not_interfere() {
        // Two disjoint groups with different tags: group A synchronizes
        // many times while group B never arrives. If the groups shared
        // state, A would deadlock.
        let a = Arc::new(SubsetBarrier::new(tag(1), [0, 1].into_iter().collect()).unwrap());
        let _b = SubsetBarrier::new(tag(2), [2, 3].into_iter().collect()).unwrap();
        std::thread::scope(|s| {
            for id in 0..2usize {
                let a = Arc::clone(&a);
                s.spawn(move || {
                    let rank = a.rank(id, tag(1)).unwrap();
                    for _ in 0..100 {
                        a.point(rank);
                    }
                });
            }
        });
        assert_eq!(a.stats().episodes, 100);
    }

    #[test]
    fn dissemination_backend_subset() {
        use crate::dissemination::DisseminationBarrier;
        let mask: ProcMask = [1, 4, 6].into_iter().collect();
        let b = Arc::new(
            SubsetBarrier::from_backend(tag(8), mask, DisseminationBarrier::new(3)).unwrap(),
        );
        std::thread::scope(|s| {
            for id in [1usize, 4, 6] {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    let rank = b.rank(id, tag(8)).unwrap();
                    for e in 0..100u64 {
                        let t = b.arrive(rank);
                        assert_eq!(b.wait(t).episode, e);
                    }
                });
            }
        });
        assert_eq!(b.stats().episodes, 100);
    }

    #[test]
    fn mismatched_backend_size_rejected() {
        use crate::counting::CountingBarrier;
        let mask: ProcMask = [0, 1].into_iter().collect();
        let err = SubsetBarrier::from_backend(tag(1), mask, CountingBarrier::new(5)).unwrap_err();
        assert!(matches!(err, BarrierError::InvalidParticipant { .. }));
    }

    #[test]
    fn eviction_shrinks_group_and_survivors_resync() {
        let mask: ProcMask = [2, 5, 9].into_iter().collect();
        let g = Arc::new(SubsetBarrier::new(tag(3), mask).unwrap());
        // Full-strength episode 0.
        std::thread::scope(|s| {
            for id in [2usize, 5, 9] {
                let g = Arc::clone(&g);
                s.spawn(move || {
                    let t = g.arrive(g.rank(id, tag(3)).unwrap());
                    assert_eq!(g.wait(t).episode, 0);
                });
            }
        });
        g.evict(g.rank(5, tag(3)).unwrap()).unwrap();
        assert!(!g.is_member(1));
        assert_eq!(g.mask(), [2, 5, 9].into_iter().collect());
        assert_eq!(
            g.rank(5, tag(3)).unwrap_err(),
            BarrierError::NotAParticipant { id: 5 }
        );
        // Survivors keep their frozen ranks and complete without 5.
        std::thread::scope(|s| {
            for id in [2usize, 9] {
                let g = Arc::clone(&g);
                s.spawn(move || {
                    let rank = g.rank(id, tag(3)).unwrap();
                    for e in 1..4u64 {
                        let t = g.arrive(rank);
                        assert_eq!(g.wait(t).episode, e);
                    }
                });
            }
        });
        assert_eq!(g.stats().evictions, 1);
    }

    #[test]
    fn evict_guards_keep_the_last_member() {
        let g = SubsetBarrier::new(tag(1), [4, 6].into_iter().collect()).unwrap();
        assert_eq!(
            g.evict(7).unwrap_err(),
            BarrierError::InvalidParticipant { id: 7, capacity: 2 }
        );
        g.evict(0).unwrap();
        assert_eq!(
            g.evict(0).unwrap_err(),
            BarrierError::NotAParticipant { id: 0 }
        );
        assert_eq!(
            g.rank(4, tag(1)).unwrap_err(),
            BarrierError::NotAParticipant { id: 4 }
        );
        // Refusing to evict the last survivor must leave it a member.
        assert_eq!(g.evict(1).unwrap_err(), BarrierError::EmptyGroup);
        assert!(g.is_member(1));
        let t = g.arrive(g.rank(6, tag(1)).unwrap());
        assert_eq!(g.wait(t).episode, 0);
    }

    #[test]
    fn eviction_unsupported_backend_keeps_the_member() {
        let mask: ProcMask = [0, 1].into_iter().collect();
        let g = SubsetBarrier::from_backend(tag(1), mask, NoEvict(CentralBarrier::new(2))).unwrap();
        assert_eq!(g.evict(0).unwrap_err(), BarrierError::EvictionUnsupported);
        assert!(g.is_member(0));
        assert_eq!(g.rank(0, tag(1)), Ok(0));
    }

    /// A refused eviction changes no membership state, so a member
    /// presenting its credential meanwhile is never turned away. A
    /// membership word of the wrapper's own, cleared before the backend
    /// refuses and restored after, would turn it away in that window.
    #[test]
    fn a_refused_evict_never_rejects_a_live_member() {
        const ROUNDS: u64 = 200_000;
        let mask: ProcMask = [3].into_iter().collect();
        let g = SubsetBarrier::from_backend(tag(1), mask, NoEvict(CentralBarrier::new(1))).unwrap();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    assert_eq!(g.evict(0), Err(BarrierError::EvictionUnsupported));
                }
            });
            let first_refusal = (0..ROUNDS).find_map(|round| match g.rank(3, tag(1)) {
                Ok(rank) => {
                    g.point(rank);
                    None
                }
                Err(err) => Some((round, err)),
            });
            stop.store(true, Ordering::Relaxed);
            assert_eq!(first_refusal, None);
        });
        assert_eq!(g.stats().episodes, ROUNDS);
    }

    #[test]
    fn poison_flows_through_group() {
        let g = Arc::new(SubsetBarrier::new(tag(2), ProcMask::first_n(2)).unwrap());
        std::thread::scope(|s| {
            let g0 = Arc::clone(&g);
            s.spawn(move || {
                let t = g0.arrive(0);
                let err = g0.wait_deadline(t, Deadline::never()).unwrap_err();
                assert_eq!(err, BarrierError::Poisoned { episode: 0 });
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
            g.poison();
        });
        assert!(g.is_poisoned());
        g.clear_poison();
        assert!(!g.is_poisoned());
        // abort consumes the token and re-poisons.
        let t = g.arrive(1);
        g.abort(t);
        assert!(g.is_poisoned());
    }
}

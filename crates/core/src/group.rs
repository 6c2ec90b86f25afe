//! Subset barriers: synchronize an arbitrary masked subset of participants
//! under a tag (the paper's "multiple barriers", Sec. 5).

use crate::centralized::CentralBarrier;
use crate::error::BarrierError;
use crate::failure::Deadline;
use crate::mask::ProcMask;
use crate::spin::StallPolicy;
use crate::stats::{StatsSnapshot, TelemetrySnapshot};
use crate::sync::SyncOps;
use crate::tag::Tag;
use crate::token::{ArrivalToken, WaitOutcome};
use std::sync::atomic::{AtomicU64, Ordering};

/// A split-phase barrier over a subset of global participants, identified
/// by a [`Tag`].
///
/// Participants address the barrier with their **global** ids; the barrier
/// maps them to dense internal indices via the mask's rank. Arrival checks
/// the presented tag against the barrier's tag — the software analogue of
/// the hardware's combinational tag-match logic: "two processors can only
/// synchronize at a barrier if their tags match".
///
/// Disjoint subsets of processors owning different `SubsetBarrier`s
/// synchronize completely independently, reproducing Fig. 6's stream-merge
/// topology.
///
/// # Examples
///
/// ```
/// use fuzzy_barrier::{SubsetBarrier, ProcMask, Tag};
///
/// let tag = Tag::new(1).expect("non-zero");
/// let mask: ProcMask = [2, 5].into_iter().collect();
/// let b = SubsetBarrier::new(tag, mask)?;
/// // Only participants 2 and 5 may arrive, and only with the right tag.
/// assert!(b.arrive(3, tag).is_err());
/// # Ok::<(), fuzzy_barrier::BarrierError>(())
/// ```
#[derive(Debug)]
pub struct SubsetBarrier<B: crate::SplitBarrier = CentralBarrier> {
    tag: Tag,
    /// The founding mask. Ranks are frozen against it forever, so eviction
    /// never renumbers the survivors (the paper's mask shrink changes *who
    /// participates*, not *who is who*).
    mask: ProcMask,
    /// Bit per live global id; starts as `mask.bits()` and only loses bits.
    live: AtomicU64,
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
        Ok(SubsetBarrier {
            tag,
            mask,
            live: AtomicU64::new(mask.bits()),
            inner: CentralBarrier::with_policy_in(mask.len(), policy),
        })
    }
}

impl<B: crate::SplitBarrier> SubsetBarrier<B> {
    /// Wraps an arbitrary [`crate::SplitBarrier`] backend (e.g. a
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
            live: AtomicU64::new(mask.bits()),
            inner: backend,
        })
    }

    /// The barrier's tag.
    #[must_use]
    pub fn tag(&self) -> Tag {
        self.tag
    }

    /// The founding participant mask (unchanged by eviction; see
    /// [`Self::live_mask`]).
    #[must_use]
    pub fn mask(&self) -> ProcMask {
        self.mask
    }

    /// The mask of participants that have not been evicted.
    #[must_use]
    pub fn live_mask(&self) -> ProcMask {
        ProcMask::from_bits(self.live.load(Ordering::Acquire))
    }

    /// Announces that global participant `id` is ready to synchronize,
    /// presenting `tag`.
    ///
    /// # Errors
    ///
    /// * [`BarrierError::TagMismatch`] if `tag` differs from the barrier's
    ///   tag (the hardware would simply never match; the library surfaces
    ///   the bug).
    /// * [`BarrierError::NotAParticipant`] if `id` is not in the mask or
    ///   has been [`Self::evict`]ed.
    pub fn arrive(&self, id: usize, tag: Tag) -> Result<ArrivalToken, BarrierError> {
        if !tag.matches(&self.tag) {
            return Err(BarrierError::TagMismatch {
                presented: tag,
                expected: self.tag,
            });
        }
        let rank = self
            .mask
            .rank_of(id)
            .ok_or(BarrierError::NotAParticipant { id })?;
        if self.live.load(Ordering::Acquire) & (1 << id) == 0 {
            return Err(BarrierError::NotAParticipant { id });
        }
        Ok(self.inner.arrive(rank))
    }

    /// Non-blocking completion check for a token from [`Self::arrive`].
    #[must_use]
    pub fn is_complete(&self, token: &ArrivalToken) -> bool {
        self.inner.is_complete(token)
    }

    /// Blocks until the episode named by `token` completes. Panics if the
    /// group is poisoned first; see [`Self::wait_deadline`].
    pub fn wait(&self, token: ArrivalToken) -> WaitOutcome {
        self.inner.wait(token)
    }

    /// Bounded, poison-aware wait (see
    /// [`crate::SplitBarrier::wait_deadline`]).
    ///
    /// # Errors
    ///
    /// [`BarrierError::Timeout`] once `deadline` passes,
    /// [`BarrierError::Poisoned`] if the group is poisoned first.
    pub fn wait_deadline(
        &self,
        token: ArrivalToken,
        deadline: Deadline,
    ) -> Result<WaitOutcome, BarrierError> {
        self.inner.wait_deadline(token, deadline)
    }

    /// Poisons the group's barrier, releasing bounded waiters with
    /// [`BarrierError::Poisoned`].
    pub fn poison(&self) {
        self.inner.poison();
    }

    /// Clears poison after recovery.
    pub fn clear_poison(&self) {
        self.inner.clear_poison();
    }

    /// True if the group's barrier is poisoned.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }

    /// Abandons an episode from inside it: consumes the token and poisons
    /// the group (see [`crate::SplitBarrier::abort`]).
    pub fn abort(&self, token: ArrivalToken) {
        self.inner.abort(token);
    }

    /// Permanently removes global participant `id` from the group: its live
    /// bit is cleared and the backend's mask shrinks, so survivors
    /// re-synchronize without it from the in-flight episode onward. Ranks
    /// are frozen against the founding mask, so survivors keep their ids.
    ///
    /// # Errors
    ///
    /// * [`BarrierError::NotAParticipant`] if `id` is outside the founding
    ///   mask or already evicted.
    /// * [`BarrierError::EmptyGroup`] if `id` is the last live participant.
    /// * [`BarrierError::EvictionUnsupported`] if the backend has no
    ///   eviction support (the live bit is restored).
    pub fn evict(&self, id: usize) -> Result<(), BarrierError> {
        let rank = self
            .mask
            .rank_of(id)
            .ok_or(BarrierError::NotAParticipant { id })?;
        let bit = 1u64 << id;
        if self.live.fetch_and(!bit, Ordering::AcqRel) & bit == 0 {
            return Err(BarrierError::NotAParticipant { id });
        }
        if let Err(err) = self.inner.evict(rank) {
            // The backend refused (last survivor, unsupported, racing
            // evict): readmit so the live mask stays in step with it.
            self.live.fetch_or(bit, Ordering::AcqRel);
            return Err(match err {
                // The backend names ranks; re-map to the global id.
                BarrierError::NotAParticipant { .. } => BarrierError::NotAParticipant { id },
                other => other,
            });
        }
        Ok(())
    }

    /// Arrive + wait with no region: a point synchronization of the subset.
    ///
    /// # Errors
    ///
    /// Same as [`Self::arrive`].
    pub fn point(&self, id: usize, tag: Tag) -> Result<WaitOutcome, BarrierError> {
        let token = self.arrive(id, tag)?;
        Ok(self.wait(token))
    }

    /// Number of participants in the subset.
    #[must_use]
    pub fn participants(&self) -> usize {
        self.inner.participants()
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }

    /// Full telemetry of the underlying backend. Per-participant entries
    /// are indexed by *rank within the mask* (iteration order), not by
    /// global participant id.
    #[must_use]
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.inner.telemetry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tag(raw: u16) -> Tag {
        Tag::new(raw).expect("non-zero")
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
        let err = b.arrive(0, tag(2)).unwrap_err();
        assert!(matches!(err, BarrierError::TagMismatch { .. }));
    }

    #[test]
    fn non_member_rejected() {
        let mask: ProcMask = [1, 3].into_iter().collect();
        let b = SubsetBarrier::new(tag(1), mask).unwrap();
        assert_eq!(
            b.arrive(2, tag(1)).unwrap_err(),
            BarrierError::NotAParticipant { id: 2 }
        );
    }

    #[test]
    fn sparse_members_synchronize() {
        let mask: ProcMask = [2, 5, 9].into_iter().collect();
        let b = Arc::new(SubsetBarrier::new(tag(4), mask).unwrap());
        std::thread::scope(|s| {
            for id in [2usize, 5, 9] {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for e in 0..200u64 {
                        let t = b.arrive(id, tag(4)).unwrap();
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
                    for _ in 0..100 {
                        let t = a.arrive(id, tag(1)).unwrap();
                        a.wait(t);
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
                    for e in 0..100u64 {
                        let t = b.arrive(id, tag(8)).unwrap();
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
                    let t = g.arrive(id, tag(3)).unwrap();
                    assert_eq!(g.wait(t).episode, 0);
                });
            }
        });
        g.evict(5).unwrap();
        assert_eq!(g.live_mask(), [2, 9].into_iter().collect());
        assert_eq!(g.mask(), [2, 5, 9].into_iter().collect());
        assert_eq!(
            g.arrive(5, tag(3)).unwrap_err(),
            BarrierError::NotAParticipant { id: 5 }
        );
        // Survivors keep their frozen ranks and complete without 5.
        std::thread::scope(|s| {
            for id in [2usize, 9] {
                let g = Arc::clone(&g);
                s.spawn(move || {
                    for e in 1..4u64 {
                        let t = g.arrive(id, tag(3)).unwrap();
                        assert_eq!(g.wait(t).episode, e);
                    }
                });
            }
        });
        assert_eq!(g.stats().evictions, 1);
    }

    #[test]
    fn evict_guards_and_live_mask_restore() {
        let g = SubsetBarrier::new(tag(1), ProcMask::first_n(2)).unwrap();
        assert_eq!(
            g.evict(7).unwrap_err(),
            BarrierError::NotAParticipant { id: 7 }
        );
        g.evict(0).unwrap();
        assert_eq!(
            g.evict(0).unwrap_err(),
            BarrierError::NotAParticipant { id: 0 }
        );
        // Refusing to evict the last survivor must leave it live.
        assert_eq!(g.evict(1).unwrap_err(), BarrierError::EmptyGroup);
        assert!(g.live_mask().contains(1));
        let t = g.arrive(1, tag(1)).unwrap();
        assert_eq!(g.wait(t).episode, 0);
    }

    #[test]
    fn eviction_unsupported_backend_readmits() {
        /// A backend that keeps the trait's default (unsupported) `evict`.
        struct NoEvict(CentralBarrier);
        impl crate::SplitBarrier for NoEvict {
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
        let mask: ProcMask = [0, 1].into_iter().collect();
        let g = SubsetBarrier::from_backend(tag(1), mask, NoEvict(CentralBarrier::new(2))).unwrap();
        assert_eq!(g.evict(0).unwrap_err(), BarrierError::EvictionUnsupported);
        assert!(g.live_mask().contains(0), "live bit restored on refusal");
    }

    #[test]
    fn poison_flows_through_group() {
        let g = Arc::new(SubsetBarrier::new(tag(2), ProcMask::first_n(2)).unwrap());
        std::thread::scope(|s| {
            let g0 = Arc::clone(&g);
            s.spawn(move || {
                let t = g0.arrive(0, tag(2)).unwrap();
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
        let t = g.arrive(1, tag(2)).unwrap();
        g.abort(t);
        assert!(g.is_poisoned());
    }

    #[test]
    fn point_sync_works() {
        let b = Arc::new(SubsetBarrier::new(tag(9), ProcMask::first_n(2)).unwrap());
        std::thread::scope(|s| {
            for id in 0..2usize {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    b.point(id, tag(9)).unwrap();
                });
            }
        });
        assert_eq!(b.stats().episodes, 1);
    }
}

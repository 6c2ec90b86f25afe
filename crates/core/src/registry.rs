//! A registry of logical barriers for dynamically created streams.
//!
//! Sec. 5 of the paper: *"Barriers are allocated when the streams are
//! created. The creation of the first stream does not require allocation of
//! a barrier … Subsequently, creation of every stream requires allocation
//! of at most one barrier which may be used by the newly created stream to
//! synchronize with its parent. Thus, in a N processor system which allows
//! creation of at most N streams, a maximum of N−1 barriers is needed."*
//!
//! [`GroupRegistry`] enforces exactly that budget and hands out
//! tag-identified [`SubsetBarrier`]s.

use crate::centralized::CentralBarrier;
use crate::error::BarrierError;
use crate::group::SubsetBarrier;
use crate::mask::ProcMask;
use crate::spin::StallPolicy;
use crate::stats::TelemetrySnapshot;
use crate::sync::{RealSync, SyncOps};
use crate::tag::Tag;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Allocates and tracks logical barriers for up to `max_streams` streams.
///
/// At most `max_streams − 1` barriers may be live at once. Barriers are
/// identified by [`Tag`]; looking one up with the wrong tag fails, which is
/// how the library surfaces the paper's Fig. 6 bug (processor P₃ reaching
/// barrier B₁ must not synchronize with P₁ waiting at B₂).
///
/// # Examples
///
/// ```
/// use fuzzy_barrier::{GroupRegistry, ProcMask};
///
/// let registry = GroupRegistry::new(4); // up to 4 streams, 3 barriers
/// let (tag, barrier) = registry.allocate([0, 1].into_iter().collect())?;
/// assert_eq!(barrier.tag(), tag);
/// assert_eq!(registry.live_barriers(), 1);
/// registry.release(tag)?;
/// # Ok::<(), fuzzy_barrier::BarrierError>(())
/// ```
#[derive(Debug)]
pub struct GroupRegistry<S: SyncOps = RealSync> {
    max_streams: usize,
    policy: StallPolicy,
    inner: Mutex<Inner<S>>,
}

/// A registry-managed barrier: a tagged subset view over the centralized
/// backend, shared between the registry and its users.
pub type RegistryBarrier<S> = Arc<SubsetBarrier<CentralBarrier<S>>>;

#[derive(Debug)]
struct Inner<S: SyncOps> {
    barriers: HashMap<Tag, RegistryBarrier<S>>,
    next_tag: Tag,
}

impl GroupRegistry {
    /// Creates a registry for a system with at most `max_streams` streams.
    ///
    /// # Panics
    ///
    /// Panics if `max_streams < 2` (a single stream never synchronizes, so
    /// a registry would be pointless — the paper's "creation of the first
    /// stream does not require allocation of a barrier").
    #[must_use]
    pub fn new(max_streams: usize) -> Self {
        Self::with_policy(max_streams, StallPolicy::default())
    }

    /// Creates a registry whose barriers use `policy` when stalling.
    ///
    /// # Panics
    ///
    /// Panics if `max_streams < 2`.
    #[must_use]
    pub fn with_policy(max_streams: usize, policy: StallPolicy) -> Self {
        Self::with_policy_in(max_streams, policy)
    }
}

impl<S: SyncOps> GroupRegistry<S> {
    /// Creates a registry in an explicit [`SyncOps`] domain — `RealSync`
    /// in production, instrumented shadow state under the `fuzzy-check`
    /// model checker.
    ///
    /// # Panics
    ///
    /// Panics if `max_streams < 2`.
    #[must_use]
    pub fn with_policy_in(max_streams: usize, policy: StallPolicy) -> Self {
        assert!(
            max_streams >= 2,
            "a registry needs at least two streams to ever synchronize"
        );
        GroupRegistry {
            max_streams,
            policy,
            inner: Mutex::new(Inner {
                barriers: HashMap::new(),
                next_tag: Tag::new(1).expect("1 is non-zero"),
            }),
        }
    }

    /// Maximum number of simultaneously live barriers: `max_streams − 1`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.max_streams - 1
    }

    /// Number of currently live barriers.
    #[must_use]
    pub fn live_barriers(&self) -> usize {
        self.inner.lock().expect("registry lock").barriers.len()
    }

    /// Allocates a fresh barrier over `mask`, assigning it the next free
    /// tag.
    ///
    /// # Errors
    ///
    /// * [`BarrierError::RegistryFull`] if `max_streams − 1` barriers are
    ///   already live.
    /// * [`BarrierError::EmptyGroup`] if `mask` is empty.
    pub fn allocate(&self, mask: ProcMask) -> Result<(Tag, RegistryBarrier<S>), BarrierError> {
        let mut inner = self.inner.lock().expect("registry lock");
        if inner.barriers.len() >= self.capacity() {
            Self::sweep_orphans_locked(&mut inner);
        }
        if inner.barriers.len() >= self.capacity() {
            return Err(BarrierError::RegistryFull {
                capacity: self.capacity(),
            });
        }
        // Find the next unused tag (tags of released barriers are reusable,
        // mirroring the paper's "streams that need to synchronize repeatedly
        // can reuse the barrier shared by them").
        let mut tag = inner.next_tag;
        while inner.barriers.contains_key(&tag) {
            tag = tag.next();
        }
        let barrier = Arc::new(SubsetBarrier::with_policy_in(tag, mask, self.policy)?);
        inner.barriers.insert(tag, Arc::clone(&barrier));
        inner.next_tag = tag.next();
        Ok((tag, barrier))
    }

    /// Capacity-aware admission: like [`Self::allocate`], but on
    /// [`BarrierError::RegistryFull`] backs off and retries up to
    /// `retries` times with exponential backoff (`base`, doubling per
    /// attempt), giving concurrently departing streams time to release or
    /// orphan their slots. Each retry re-sweeps orphans via the allocation
    /// path.
    ///
    /// This is the admission side of dynamic membership: a recovered
    /// worker re-joining a fully subscribed system waits for churn instead
    /// of failing fast.
    ///
    /// # Errors
    ///
    /// As [`Self::allocate`]; [`BarrierError::RegistryFull`] only after
    /// every retry is exhausted.
    pub fn allocate_with_backoff(
        &self,
        mask: ProcMask,
        retries: u32,
        base: std::time::Duration,
    ) -> Result<(Tag, RegistryBarrier<S>), BarrierError> {
        let mut attempt = 0;
        loop {
            match self.allocate(mask) {
                Err(BarrierError::RegistryFull { .. }) if attempt < retries => {
                    std::thread::sleep(base.saturating_mul(1 << attempt.min(16)));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Allocates a barrier with a caller-chosen tag.
    ///
    /// # Errors
    ///
    /// Like [`Self::allocate`], plus [`BarrierError::DuplicateTag`] if the
    /// tag is already live.
    pub fn allocate_tagged(
        &self,
        tag: Tag,
        mask: ProcMask,
    ) -> Result<RegistryBarrier<S>, BarrierError> {
        let mut inner = self.inner.lock().expect("registry lock");
        if inner.barriers.len() >= self.capacity() {
            Self::sweep_orphans_locked(&mut inner);
        }
        if inner.barriers.len() >= self.capacity() {
            return Err(BarrierError::RegistryFull {
                capacity: self.capacity(),
            });
        }
        if inner.barriers.contains_key(&tag) {
            return Err(BarrierError::DuplicateTag { tag });
        }
        let barrier = Arc::new(SubsetBarrier::with_policy_in(tag, mask, self.policy)?);
        inner.barriers.insert(tag, Arc::clone(&barrier));
        Ok(barrier)
    }

    /// Looks up the live barrier with `tag`.
    ///
    /// # Errors
    ///
    /// Returns [`BarrierError::UnknownTag`] if no such barrier is live.
    pub fn lookup(&self, tag: Tag) -> Result<RegistryBarrier<S>, BarrierError> {
        self.inner
            .lock()
            .expect("registry lock")
            .barriers
            .get(&tag)
            .cloned()
            .ok_or(BarrierError::UnknownTag { tag })
    }

    /// Aggregates telemetry across all currently live barriers with
    /// [`TelemetrySnapshot::merge`]: flat counters and spread totals are
    /// summed, histograms are merged.
    /// Per-participant counters are dropped (ranks of different masks do
    /// not line up), and the per-barrier breakdown is returned alongside,
    /// keyed by tag and sorted for deterministic reporting.
    #[must_use]
    pub fn aggregate_telemetry(&self) -> (TelemetrySnapshot, Vec<(Tag, TelemetrySnapshot)>) {
        let per_barrier: Vec<(Tag, TelemetrySnapshot)> = {
            let inner = self.inner.lock().expect("registry lock");
            let mut v: Vec<_> = inner
                .barriers
                .iter()
                .map(|(tag, b)| (*tag, b.telemetry()))
                .collect();
            v.sort_by_key(|(tag, _)| *tag);
            v
        };
        let mut total = TelemetrySnapshot::default();
        for (_, t) in &per_barrier {
            total.merge(t);
        }
        (total, per_barrier)
    }

    /// Drops orphaned barriers — entries whose only remaining handle is
    /// the registry's own — and returns how many were reclaimed.
    ///
    /// A stream that arrives, drops its [`ArrivalToken`](crate::token::ArrivalToken)
    /// and then its barrier handle without ever calling [`Self::release`]
    /// would otherwise pin a slot forever, starving the paper's *N − 1*
    /// budget. [`Self::allocate`] and [`Self::allocate_tagged`] sweep
    /// automatically before reporting [`BarrierError::RegistryFull`], so
    /// leaked tags can never wedge allocation; call this directly to
    /// reclaim eagerly.
    pub fn sweep_orphans(&self) -> usize {
        let mut inner = self.inner.lock().expect("registry lock");
        Self::sweep_orphans_locked(&mut inner)
    }

    fn sweep_orphans_locked(inner: &mut Inner<S>) -> usize {
        let before = inner.barriers.len();
        inner.barriers.retain(|_, b| Arc::strong_count(b) > 1);
        before - inner.barriers.len()
    }

    /// Releases the barrier with `tag`, freeing its registry slot.
    /// Existing `Arc` handles remain usable; only the slot is reclaimed.
    ///
    /// # Errors
    ///
    /// Returns [`BarrierError::UnknownTag`] if no such barrier is live.
    pub fn release(&self, tag: Tag) -> Result<(), BarrierError> {
        self.inner
            .lock()
            .expect("registry lock")
            .barriers
            .remove(&tag)
            .map(|_| ())
            .ok_or(BarrierError::UnknownTag { tag })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least two streams")]
    fn single_stream_registry_panics() {
        let _ = GroupRegistry::new(1);
    }

    #[test]
    fn capacity_is_n_minus_one() {
        assert_eq!(GroupRegistry::new(4).capacity(), 3);
        assert_eq!(GroupRegistry::new(2).capacity(), 1);
    }

    #[test]
    fn allocation_exhausts_at_capacity() {
        let r = GroupRegistry::new(3);
        let m = ProcMask::first_n(2);
        // Hold the handles: only *live* barriers exhaust the budget
        // (orphaned ones are swept on demand; see below).
        let (_t1, _b1) = r.allocate(m).unwrap();
        let (_t2, _b2) = r.allocate(m).unwrap();
        assert_eq!(
            r.allocate(m).unwrap_err(),
            BarrierError::RegistryFull { capacity: 2 }
        );
    }

    #[test]
    fn release_frees_slot_and_tag_reuse_works() {
        let r = GroupRegistry::new(2);
        let m = ProcMask::first_n(2);
        let (tag, _b) = r.allocate(m).unwrap();
        assert!(r.allocate(m).is_err());
        r.release(tag).unwrap();
        assert_eq!(r.live_barriers(), 0);
        let (_tag2, _b2) = r.allocate(m).unwrap();
        assert_eq!(r.live_barriers(), 1);
    }

    #[test]
    fn tags_are_unique_among_live_barriers() {
        let r = GroupRegistry::new(8);
        let m = ProcMask::first_n(2);
        let mut tags = std::collections::HashSet::new();
        for _ in 0..7 {
            let (tag, _) = r.allocate(m).unwrap();
            assert!(tags.insert(tag), "duplicate live tag {tag}");
        }
    }

    #[test]
    fn explicit_tag_allocation_and_duplicate_rejection() {
        let r = GroupRegistry::new(4);
        let tag = Tag::new(17).unwrap();
        let m = ProcMask::first_n(2);
        r.allocate_tagged(tag, m).unwrap();
        assert_eq!(
            r.allocate_tagged(tag, m).unwrap_err(),
            BarrierError::DuplicateTag { tag }
        );
        assert_eq!(r.lookup(tag).unwrap().tag(), tag);
    }

    #[test]
    fn dropped_handle_without_release_does_not_leak_slot() {
        // Regression: a stream that arrives, drops the token without
        // waiting, and then drops its handle must not pin the slot under
        // the N−1 budget forever.
        let r = GroupRegistry::new(2); // capacity 1
        let m = ProcMask::first_n(2);
        let (_tag, barrier) = r.allocate(m).unwrap();
        let token = barrier.arrive(0, barrier.tag()).unwrap();
        drop(token);
        drop(barrier); // no release(tag): the slot is now orphaned
        assert_eq!(r.live_barriers(), 1);
        // Allocation sweeps the orphan instead of reporting RegistryFull.
        let (_tag2, _b2) = r.allocate(m).unwrap();
        assert_eq!(r.live_barriers(), 1);
    }

    #[test]
    fn sweep_spares_live_handles() {
        let r = GroupRegistry::new(3);
        let m = ProcMask::first_n(2);
        let (tag_live, _held) = r.allocate(m).unwrap();
        let (tag_leak, leaked) = r.allocate(m).unwrap();
        drop(leaked);
        assert_eq!(r.sweep_orphans(), 1);
        assert_eq!(r.live_barriers(), 1);
        assert!(r.lookup(tag_live).is_ok());
        assert_eq!(
            r.lookup(tag_leak).unwrap_err(),
            BarrierError::UnknownTag { tag: tag_leak }
        );
        assert_eq!(r.sweep_orphans(), 0);
    }

    #[test]
    fn sweep_at_zero_groups_is_a_noop() {
        let r = GroupRegistry::new(4);
        assert_eq!(r.sweep_orphans(), 0);
        assert_eq!(r.live_barriers(), 0);
        // And again: sweeping an already-empty registry stays a no-op.
        assert_eq!(r.sweep_orphans(), 0);
    }

    #[test]
    fn double_sweep_is_idempotent() {
        let r = GroupRegistry::new(4);
        let m = ProcMask::first_n(2);
        let (_tag, leaked) = r.allocate(m).unwrap();
        drop(leaked);
        assert_eq!(r.sweep_orphans(), 1);
        // The orphan is gone; a second sweep finds nothing new to reclaim
        // and must not disturb surviving entries.
        let (tag_live, _held) = r.allocate(m).unwrap();
        assert_eq!(r.sweep_orphans(), 0);
        assert_eq!(r.sweep_orphans(), 0);
        assert!(r.lookup(tag_live).is_ok());
    }

    #[test]
    fn sweep_racing_concurrent_joins_never_reclaims_live_handles() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Joiners continuously allocate-and-hold while a sweeper loops;
        // a sweep must only ever reclaim handles the joiners dropped.
        let r = std::sync::Arc::new(GroupRegistry::new(64));
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..3 {
                let r = std::sync::Arc::clone(&r);
                let stop = std::sync::Arc::clone(&stop);
                s.spawn(move || {
                    let m = ProcMask::first_n(2);
                    while !stop.load(Ordering::Acquire) {
                        let (tag, barrier) = r
                            .allocate_with_backoff(m, 8, std::time::Duration::from_micros(50))
                            .expect("backoff admission should eventually succeed");
                        // The held handle must survive any concurrent sweep.
                        assert_eq!(r.lookup(tag).unwrap().tag(), barrier.tag());
                        drop(barrier); // orphan it for the sweeper
                    }
                });
            }
            let sweeper = {
                let r = std::sync::Arc::clone(&r);
                let stop = std::sync::Arc::clone(&stop);
                s.spawn(move || {
                    let mut reclaimed = 0usize;
                    while !stop.load(Ordering::Acquire) {
                        reclaimed += r.sweep_orphans();
                        std::thread::yield_now();
                    }
                    reclaimed
                })
            };
            std::thread::sleep(std::time::Duration::from_millis(50));
            stop.store(true, Ordering::Release);
            let _ = sweeper;
        });
        // Whatever is left is orphaned; a final sweep drains it all.
        r.sweep_orphans();
        assert_eq!(r.live_barriers(), 0);
    }

    #[test]
    fn backoff_admission_waits_out_a_full_registry() {
        let r = std::sync::Arc::new(GroupRegistry::new(2)); // capacity 1
        let m = ProcMask::first_n(2);
        let (tag, _held) = r.allocate(m).unwrap();
        // Fail-fast path: zero retries surfaces RegistryFull immediately.
        assert_eq!(
            r.allocate_with_backoff(m, 0, std::time::Duration::from_micros(10))
                .unwrap_err(),
            BarrierError::RegistryFull { capacity: 1 }
        );
        std::thread::scope(|s| {
            let r2 = std::sync::Arc::clone(&r);
            let admitted = s.spawn(move || {
                r2.allocate_with_backoff(m, 12, std::time::Duration::from_micros(100))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
            r.release(tag).unwrap();
            let (tag2, _b2) = admitted
                .join()
                .unwrap()
                .expect("admission must succeed once the slot frees");
            assert!(r.lookup(tag2).is_ok());
        });
    }

    #[test]
    fn aggregate_telemetry_merges_every_field_of_the_live_barriers() {
        let r = GroupRegistry::new(3);
        let (tag_a, a) = r.allocate([0].into_iter().collect()).unwrap();
        let (tag_b, b) = r.allocate([1].into_iter().collect()).unwrap();
        let period = crate::stats::SPREAD_SAMPLE_PERIOD;
        for _ in 0..period {
            a.wait(a.arrive(0, tag_a).unwrap());
        }
        for _ in 0..2 * period {
            b.wait(b.arrive(1, tag_b).unwrap());
        }
        let (total, per_barrier) = r.aggregate_telemetry();
        assert_eq!(per_barrier.len(), 2);
        let (ta, tb) = (&per_barrier[0].1, &per_barrier[1].1);
        assert_eq!((ta.base.episodes, tb.base.episodes), (period, 2 * period));
        assert_eq!(total.base.episodes, 3 * period);
        assert_eq!(total.base.arrivals, 3 * period);
        assert_eq!(total.base.waits, 3 * period);
        assert_eq!((ta.spread.episodes, tb.spread.episodes), (1, 2));
        assert_eq!(total.spread.episodes, 3);
        assert!(total.per_participant.is_empty(), "ranks do not line up");
    }

    #[test]
    fn lookup_unknown_tag_fails() {
        let r = GroupRegistry::new(4);
        let tag = Tag::new(5).unwrap();
        assert_eq!(r.lookup(tag).unwrap_err(), BarrierError::UnknownTag { tag });
        assert_eq!(
            r.release(tag).unwrap_err(),
            BarrierError::UnknownTag { tag }
        );
    }
}

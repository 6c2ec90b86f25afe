//! Dynamic membership over one [`SplitBarrier`] that can evict and admit.
//!
//! The paper's Sec. 5 mask update shrinks a barrier when a processor fails;
//! [`ReconfigBarrier`] grows one too, without stopping its episodes. Slot
//! *i* is participant *i* of one inner barrier, built once, and the group
//! is a [`SplitBarrier`] over slots whose departures are inner evictions
//! and joins inner admissions. Each slot's monotone **generation** is
//! stamped into the [`MemberHandle`] it issues and checked where the handle
//! is presented ([`ReconfigBarrier::rank`], and every credentialed
//! arrival), so a stale handle is refused ([`BarrierError::StaleGeneration`]).

use crate::async_wait::park_or_requeue;
use crate::error::BarrierError;
use crate::failure::Deadline;
use crate::fuzzy::SplitBarrier;
use crate::spin::StallPolicy;
use crate::stats::{StatsSnapshot, TelemetrySnapshot};
use crate::sync::{Atomic, RealSync, SyncOps};
use crate::token::{ArrivalToken, WaitOutcome};
use fuzzy_util::CachePadded;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

/// A member's credential: which slot it occupies and the slot generation
/// it was issued under. Handles outlive their membership only as
/// rejectable tokens, never as live ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberHandle {
    slot: usize,
    generation: u64,
}

impl MemberHandle {
    /// Reconstructs a handle from its parts — e.g. one a supervisor
    /// persisted across a restart. A reconstructed handle that does not
    /// match the slot's current generation is rejected
    /// ([`BarrierError::StaleGeneration`]), never admitted; a slot beyond
    /// capacity is [`BarrierError::InvalidParticipant`].
    #[must_use]
    pub fn from_parts(slot: usize, generation: u64) -> Self {
        MemberHandle { slot, generation }
    }

    /// The membership slot this handle occupies.
    #[must_use]
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// The slot generation this handle was issued under.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// A staged join: the reserved slot, counted from a later episode boundary
/// on. Redeem it with [`ReconfigBarrier::wait_active`] (blocking) or
/// [`ReconfigBarrier::activation_future`] (async).
#[derive(Debug, Clone, Copy)]
pub struct JoinTicket {
    slot: usize,
    generation: u64,
}

impl JoinTicket {
    /// Reconstructs a ticket from its parts (see
    /// [`MemberHandle::from_parts`]); the handle redeemed from it is
    /// subject to the same generation checks as any other.
    #[must_use]
    pub fn from_parts(slot: usize, generation: u64) -> Self {
        JoinTicket { slot, generation }
    }

    /// The slot this ticket reserved.
    #[must_use]
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// The slot generation the join was staged under.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// An arrival at the group: the [`ArrivalToken`] of the member's slot.
/// Waits borrow it, so a timed-out [`ReconfigBarrier::wait_deadline`] is
/// retried with the same token.
pub type ReconfigToken = ArrivalToken;

#[derive(Debug)]
struct Slot<S: SyncOps> {
    /// Refcount: `fetch_add == 0` takes the slot; losers decrement back.
    reserved: S::AtomicU32,
    /// `2 × generation`, plus 1 while a handle for it is live. Only raised.
    state: S::AtomicU64,
}

/// The state word of a live handle at `generation`.
fn live(generation: u64) -> u64 {
    2 * generation + 1
}

/// The error of a departure under generation `held` whose inner eviction
/// was refused as no participant: a racing departure under it won.
fn raced(slot: usize, held: u64) -> impl FnOnce(BarrierError) -> BarrierError {
    move |err| match err {
        BarrierError::NotAParticipant { .. } => refusal(slot, held, live(held + 1)),
        err => err,
    }
}

/// Why a slot whose state word reads `state` refuses generation `held`.
fn refusal(slot: usize, held: u64, state: u64) -> BarrierError {
    if state / 2 == held {
        BarrierError::NotAParticipant { id: slot }
    } else {
        BarrierError::StaleGeneration {
            slot,
            held,
            current: state / 2,
        }
    }
}

/// A split-phase barrier with dynamic membership; see the module docs.
///
/// ```
/// use fuzzy_barrier::{reconfig::ReconfigBarrier, CentralBarrier, SplitBarrier};
/// use std::sync::Arc;
///
/// let (barrier, handles) = ReconfigBarrier::new(4, 1, |n| Arc::new(CentralBarrier::new(n)));
/// let token = SplitBarrier::arrive(&barrier, barrier.rank(&handles[0]).unwrap());
/// // ... barrier region ...
/// assert_eq!(barrier.wait(token).episode, 0);
/// ```
pub struct ReconfigBarrier<S: SyncOps = RealSync> {
    inner: Arc<dyn SplitBarrier>,
    policy: StallPolicy,
    slots: Box<[CachePadded<Slot<S>>]>,
    /// Successful evictions; the inner barrier's count has leaves too.
    evictions: AtomicU64,
}

impl ReconfigBarrier<RealSync> {
    /// A group with `initial` members over `capacity` slots, and their
    /// handles. `factory(capacity)` builds the inner backend, once; it must
    /// evict and admit. [`Self::wait_active`] yields while it waits.
    ///
    /// # Panics
    ///
    /// If `initial == 0`, `initial > capacity`, or the inner backend is not
    /// for `capacity` participants or cannot evict.
    #[must_use]
    pub fn new(
        capacity: usize,
        initial: usize,
        factory: impl FnOnce(usize) -> Arc<dyn SplitBarrier>,
    ) -> (Self, Vec<MemberHandle>) {
        Self::with_policy_in(capacity, initial, StallPolicy::yielding(), factory)
    }
}

impl<S: SyncOps> ReconfigBarrier<S> {
    /// [`ReconfigBarrier::new`] with the stall policy of
    /// [`Self::wait_active`], in any [`SyncOps`] domain (instrumented shadow
    /// state under the `fuzzy-check` model checker).
    ///
    /// # Panics
    ///
    /// As [`ReconfigBarrier::new`].
    #[must_use]
    pub fn with_policy_in(
        capacity: usize,
        initial: usize,
        policy: StallPolicy,
        factory: impl FnOnce(usize) -> Arc<dyn SplitBarrier>,
    ) -> (Self, Vec<MemberHandle>) {
        assert!(initial > 0, "a group needs at least one initial member");
        assert!(
            initial <= capacity,
            "initial membership {initial} exceeds capacity {capacity}"
        );
        let inner = factory(capacity);
        assert_eq!(
            inner.participants(),
            capacity,
            "the factory must build a barrier for all {capacity} slots"
        );
        for slot in initial..capacity {
            inner
                .evict(slot)
                .unwrap_or_else(|err| panic!("cannot start slot {slot} evicted: {err}"));
        }
        let founder = |slot: usize| u8::from(slot < initial);
        let barrier = ReconfigBarrier {
            inner,
            policy,
            slots: (0..capacity)
                .map(|slot| {
                    CachePadded::new(Slot {
                        reserved: S::AtomicU32::new(founder(slot).into()),
                        state: S::AtomicU64::new(founder(slot).into()),
                    })
                })
                .collect(),
            evictions: AtomicU64::new(0),
        };
        let handles = (0..initial).map(|slot| MemberHandle::from_parts(slot, 0));
        (barrier, handles.collect())
    }

    /// The fixed slot capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Completed episodes: the inner release word, or the inner episode
    /// count where there is none (dissemination).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.inner
            .release_epoch()
            .unwrap_or_else(|| self.inner.stats().episodes)
    }

    /// Members holding a live handle.
    #[must_use]
    pub fn members(&self) -> usize {
        self.slots
            .iter()
            .filter(|slot| slot.state.load(Ordering::Acquire) % 2 == 1)
            .count()
    }

    /// Slot `slot`, or [`BarrierError::InvalidParticipant`] beyond capacity.
    fn slot(&self, slot: usize) -> Result<&Slot<S>, BarrierError> {
        let capacity = self.capacity();
        let invalid = BarrierError::InvalidParticipant { id: slot, capacity };
        self.slots.get(slot).map(|cell| &**cell).ok_or(invalid)
    }

    /// Checks the handle a member presents, and returns its slot: the
    /// [`SplitBarrier`] participant id it drives the group as from then on,
    /// until its holder leaves or is evicted: after that, arrivals by slot
    /// land unchecked on the next occupant, so an evicted member presents again.
    ///
    /// # Errors
    ///
    /// [`BarrierError::InvalidParticipant`] beyond capacity,
    /// [`BarrierError::StaleGeneration`] if its holder left or was evicted,
    /// [`BarrierError::NotAParticipant`] for a join not yet redeemed.
    pub fn rank(&self, handle: &MemberHandle) -> Result<usize, BarrierError> {
        let state = self.slot(handle.slot)?.state.load(Ordering::Acquire);
        if state == live(handle.generation) {
            Ok(handle.slot)
        } else {
            Err(refusal(handle.slot, handle.generation, state))
        }
    }

    /// Reserves `slot` and stages its admission in the inner barrier: the
    /// generation it reserved the slot under, or `None` if it was held.
    fn reserve(&self, slot: usize) -> Result<Option<u64>, BarrierError> {
        let cell = self.slot(slot)?;
        if cell.reserved.fetch_add(1, Ordering::AcqRel) != 0 {
            cell.reserved.fetch_sub(1, Ordering::AcqRel);
            return Ok(None);
        }
        // Read before staging: an eviction once it applies makes this stale.
        let generation = cell.state.load(Ordering::Acquire) / 2;
        self.inner.admit(slot).inspect_err(|_| {
            cell.reserved.fetch_sub(1, Ordering::AcqRel);
        })?;
        Ok(Some(generation))
    }

    /// Stages a join in the first slot that [`SplitBarrier::admit`]
    /// reserves; the joiner is counted from a later episode boundary on.
    /// Fails with [`BarrierError::GroupFull`] when no slot is free (a
    /// departure frees its slot before it returns: back off and retry).
    pub fn join(&self) -> Result<JoinTicket, BarrierError> {
        for slot in 0..self.capacity() {
            if let Some(generation) = self.reserve(slot)? {
                return Ok(JoinTicket::from_parts(slot, generation));
            }
        }
        Err(BarrierError::GroupFull {
            capacity: self.capacity(),
        })
    }

    /// True once `ticket`'s admission has taken effect: the joiner's next
    /// arrival is counted.
    #[must_use]
    pub fn is_active(&self, ticket: &JoinTicket) -> bool {
        self.slot(ticket.slot)
            .is_ok_and(|cell| cell.state.load(Ordering::Acquire) / 2 == ticket.generation)
            && self.inner.is_member(ticket.slot)
    }

    /// True once the join is active or the ticket evicted (or no slot).
    fn is_settled(&self, ticket: &JoinTicket) -> bool {
        self.slot(ticket.slot).map_or(true, |cell| {
            cell.state.load(Ordering::Acquire) / 2 != ticket.generation
        }) || self.inner.is_member(ticket.slot)
    }

    /// Waits, under the group's stall policy, until the join is active, and
    /// issues the member's handle. Some member must complete an episode for
    /// that to happen. If the ticket was evicted meanwhile, the handle is
    /// stale: [`Self::rank`] refuses it.
    #[must_use]
    pub fn wait_active(&self, ticket: &JoinTicket) -> MemberHandle {
        S::wait_until(self.policy, || self.is_settled(ticket));
        if let Ok(cell) = self.slot(ticket.slot) {
            // A no-op if an eviction moved the generation on.
            cell.state
                .fetch_max(live(ticket.generation), Ordering::AcqRel);
        }
        MemberHandle::from_parts(ticket.slot, ticket.generation)
    }

    /// [`Self::rank`], then the arrival of the slot; never blocks.
    pub fn arrive(&self, handle: &MemberHandle) -> Result<ReconfigToken, BarrierError> {
        Ok(SplitBarrier::arrive(self, self.rank(handle)?))
    }

    /// [`SplitBarrier::wait_deadline`] on a borrowed token: after a
    /// timeout the arrival still counts, and the token is retried as is.
    pub fn wait_deadline(
        &self,
        token: &ReconfigToken,
        deadline: Deadline,
    ) -> Result<WaitOutcome, BarrierError> {
        let token = ArrivalToken::new(token.participant(), token.episode());
        SplitBarrier::wait_deadline(self, token, deadline)
    }

    /// Removes the member behind `handle`: its departure is the stand-in
    /// arrival for the in-flight episode, and the handle is stale and the
    /// slot free before this returns. Refuses a handle as [`Self::rank`]
    /// does, and the last member ([`BarrierError::EmptyGroup`]).
    pub fn leave(&self, handle: MemberHandle) -> Result<(), BarrierError> {
        self.rank(&handle)
            .and_then(|slot| self.remove(slot).map_err(raced(slot, handle.generation)))
    }

    /// A supervisor's [`Self::leave`] for a member that crashed before
    /// arriving, counted as an eviction; yesterday's generation cannot evict
    /// today's occupant. It also removes a joiner whose ticket was never
    /// redeemed once the join is active; before that it is refused with
    /// [`BarrierError::NotAParticipant`], and the supervisor retries.
    pub fn evict_member(&self, slot: usize, generation: u64) -> Result<(), BarrierError> {
        let state = self.slot(slot)?.state.load(Ordering::Acquire);
        let active_ticket = state == 2 * generation && self.inner.is_member(slot);
        if state != live(generation) && !active_ticket {
            return Err(refusal(slot, generation, state));
        }
        SplitBarrier::evict(self, slot).map_err(raced(slot, generation))
    }

    /// Evicts whoever holds `slot` from the inner barrier, then moves the
    /// slot's generation on and frees it.
    fn remove(&self, slot: usize) -> Result<(), BarrierError> {
        let cell = self.slot(slot)?;
        self.inner.evict(slot)?;
        // The generation moves on before the slot is free: whoever takes
        // it next reads the new one. A maximum, not an increment, so a
        // racing `wait_active` of an evicted ticket cannot set it live.
        let generation = cell.state.load(Ordering::Acquire) / 2;
        cell.state.fetch_max(2 * (generation + 1), Ordering::AcqRel);
        cell.reserved.fetch_sub(1, Ordering::AcqRel);
        Ok(())
    }

    /// Poisons the inner barrier.
    pub fn poison(&self) {
        SplitBarrier::poison(self);
    }

    /// The inner barrier's statistics (slot = participant id), except that
    /// `evictions` counts evictions only, not leaves.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        SplitBarrier::stats(self)
    }

    /// The inner barrier's telemetry, `evictions` as in [`Self::stats`].
    #[must_use]
    pub fn telemetry(&self) -> TelemetrySnapshot {
        SplitBarrier::telemetry(self)
    }

    /// Async [`Self::wait_active`]: an executor holds a joiner as a task
    /// instead of pinning a thread to it.
    pub fn activation_future(self: &Arc<Self>, ticket: &JoinTicket) -> ActivationFuture<S> {
        ActivationFuture {
            barrier: Arc::clone(self),
            ticket: *ticket,
        }
    }
}

/// Every method forwards to the inner barrier, by slot; an eviction of whoever
/// holds the slot moves its generation on, and an admission reserves it first.
impl<S: SyncOps> SplitBarrier for ReconfigBarrier<S> {
    fn arrive(&self, slot: usize) -> ArrivalToken {
        self.inner.arrive(slot)
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
        StatsSnapshot {
            evictions: self.evictions.load(Ordering::Relaxed),
            ..self.inner.stats()
        }
    }

    fn release_epoch(&self) -> Option<u64> {
        self.inner.release_epoch()
    }

    fn evict(&self, slot: usize) -> Result<(), BarrierError> {
        self.remove(slot)?;
        self.evictions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn admit(&self, slot: usize) -> Result<(), BarrierError> {
        self.reserve(slot).map(drop)
    }

    fn is_member(&self, slot: usize) -> bool {
        self.inner.is_member(slot)
    }

    fn register_waker(&self, slot: usize, episode: u64, waker: &Waker) -> bool {
        self.inner.register_waker(slot, episode, waker)
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        let mut telemetry = self.inner.telemetry();
        telemetry.base.evictions = self.evictions.load(Ordering::Relaxed);
        telemetry
    }
}

impl<S: SyncOps> fmt::Debug for ReconfigBarrier<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReconfigBarrier")
            .field("capacity", &self.capacity())
            .field("members", &self.members())
            .finish_non_exhaustive()
    }
}

/// Resolves to the member's handle once its join is active, as
/// [`ReconfigBarrier::wait_active`] returns it. It waits on membership, not
/// on an episode, by the rule of every pending poll (parked in the inner
/// episode core, or re-queued where that cannot park: dissemination).
#[must_use = "the join takes effect whether or not this is awaited; only awaiting it yields the handle"]
#[derive(Debug)]
pub struct ActivationFuture<S: SyncOps = RealSync> {
    barrier: Arc<ReconfigBarrier<S>>,
    ticket: JoinTicket,
}

impl<S: SyncOps> Future for ActivationFuture<S> {
    type Output = MemberHandle;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let barrier = &self.barrier;
        // Parked until the next completion: an admission applies at one.
        let release = barrier.inner.release_epoch().unwrap_or_default();
        let settled = || barrier.is_settled(&self.ticket).then_some(());
        if settled().is_none()
            && park_or_requeue(&*barrier.inner, cx, (self.ticket.slot, release), settled)
                .0
                .is_none()
        {
            return Poll::Pending;
        }
        Poll::Ready(barrier.wait_active(&self.ticket))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::async_wait::AsyncBarrier;
    use crate::centralized::CentralBarrier;
    use crate::dissemination::DisseminationBarrier;
    use crate::hier::HierBarrier;
    use std::sync::atomic::AtomicUsize;

    fn central_factory(n: usize) -> Arc<dyn SplitBarrier> {
        Arc::new(CentralBarrier::with_policy(n, StallPolicy::yielding()))
    }

    /// A waker that counts its wakes.
    struct Wakes(AtomicUsize);

    impl std::task::Wake for Wakes {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    impl Wakes {
        fn new() -> Arc<Self> {
            Arc::new(Wakes(AtomicUsize::new(0)))
        }

        fn count(&self) -> usize {
            self.0.load(Ordering::Relaxed)
        }

        fn poll<F: Future + Unpin>(self: &Arc<Self>, fut: &mut F) -> Poll<F::Output> {
            let waker = Waker::from(Arc::clone(self));
            Pin::new(fut).poll(&mut Context::from_waker(&waker))
        }
    }

    #[test]
    fn solo_member_advances_epochs() {
        let (b, handles) = ReconfigBarrier::new(2, 1, central_factory);
        let h = handles[0];
        for e in 0..5 {
            let t = b.arrive(&h).unwrap();
            assert_eq!(t.episode(), e);
            assert_eq!(b.wait(t).episode, e);
        }
        assert_eq!(b.epoch(), 5);
        assert_eq!(b.stats().episodes, 5);
    }

    #[test]
    fn the_inner_barrier_is_built_once_at_capacity() {
        let built = AtomicUsize::new(0);
        let (b, handles) = ReconfigBarrier::new(4, 1, |n| {
            built.fetch_add(1, Ordering::Relaxed);
            assert_eq!(n, 4);
            central_factory(n)
        });
        for _ in 0..3 {
            let ticket = b.join().unwrap();
            let t = b.arrive(&handles[0]).unwrap();
            b.wait(t);
            let h = b.wait_active(&ticket);
            b.leave(h).unwrap();
        }
        assert_eq!(built.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn joiner_activates_at_the_next_boundary() {
        let (b, handles) = ReconfigBarrier::new(4, 2, central_factory);
        let ticket = b.join().unwrap();
        assert!(
            !b.is_active(&ticket),
            "join stages; it must not apply early"
        );
        let b = &b;
        std::thread::scope(|s| {
            for h in handles {
                s.spawn(move || {
                    // Epoch 0: two members. Epoch 1: three.
                    for _ in 0..2 {
                        let t = b.arrive(&h).unwrap();
                        b.wait(t);
                    }
                });
            }
            s.spawn(move || {
                let h = b.wait_active(&ticket);
                let t = b.arrive(&h).unwrap();
                assert_eq!(t.episode(), 1, "joiner's first epoch is post-boundary");
                b.wait(t);
            });
        });
        assert_eq!(b.members(), 3);
        assert_eq!(b.epoch(), 2);
    }

    #[test]
    fn leave_invalidates_the_handle_and_shrinks() {
        let (b, handles) = ReconfigBarrier::new(4, 2, central_factory);
        let b = &b;
        std::thread::scope(|s| {
            let h0 = handles[0];
            s.spawn(move || {
                // Epoch 0 with both, epoch 1 alone (peer's leave stands in).
                for e in 0..2 {
                    let t = b.arrive(&h0).unwrap();
                    assert_eq!(b.wait(t).episode, e);
                }
            });
            let h1 = handles[1];
            s.spawn(move || {
                let t = b.arrive(&h1).unwrap();
                b.wait(t);
                b.leave(h1).unwrap();
                assert_eq!(
                    b.arrive(&h1).unwrap_err(),
                    BarrierError::StaleGeneration {
                        slot: 1,
                        held: 0,
                        current: 1
                    }
                );
            });
        });
        assert_eq!(b.members(), 1);
    }

    #[test]
    fn evict_releases_a_stuck_epoch_and_respects_generations() {
        let (b, handles) = ReconfigBarrier::new(2, 2, central_factory);
        let b = &b;
        std::thread::scope(|s| {
            let h0 = handles[0];
            s.spawn(move || {
                let t = b.arrive(&h0).unwrap();
                // Member 1 never arrives; its eviction must release us.
                assert_eq!(b.wait(t).episode, 0);
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
            // Wrong generation is refused; the right one evicts.
            assert!(matches!(
                b.evict_member(1, 99).unwrap_err(),
                BarrierError::StaleGeneration { .. }
            ));
            b.evict_member(1, handles[1].generation()).unwrap();
        });
        assert_eq!(b.members(), 1);
        assert_eq!(b.stats().evictions, 1);
        // Double-evict with the old generation is now stale.
        assert!(matches!(
            b.evict_member(1, handles[1].generation()).unwrap_err(),
            BarrierError::StaleGeneration { .. }
        ));
    }

    #[test]
    fn evictions_count_evict_calls_not_departures() {
        // Capacity 4 over 3 founders: one slot starts evicted in the inner
        // barrier, and leaves are inner evictions too. Neither is counted;
        // a credentialed and a slot eviction are.
        let (b, handles) = ReconfigBarrier::new(4, 3, central_factory);
        b.leave(handles[2]).unwrap();
        assert_eq!(b.stats().evictions, 0);
        b.evict_member(1, handles[1].generation()).unwrap();
        assert_eq!(b.stats().evictions, 1);
        let ticket = b.join().unwrap();
        let t = b.arrive(&handles[0]).unwrap();
        assert_eq!(b.wait(t).episode, 0);
        assert!(b.is_active(&ticket));
        SplitBarrier::evict(&b, ticket.slot()).unwrap();
        assert_eq!(b.stats().evictions, 2);
        assert_eq!(b.telemetry().base.evictions, 2);
        assert_eq!(b.telemetry().base, b.stats());
        // The slot's generation moved on: the ticket's handle is stale.
        let late = b.wait_active(&ticket);
        assert!(matches!(
            b.rank(&late).unwrap_err(),
            BarrierError::StaleGeneration { .. }
        ));
    }

    #[test]
    fn slot_reuse_issues_a_fresh_generation() {
        let (b, handles) = ReconfigBarrier::new(2, 2, central_factory);
        let h0 = handles[0];
        // Member 1 leaves before arriving; its stand-in covers epoch 0.
        b.leave(handles[1]).unwrap();
        let t = b.arrive(&h0).unwrap();
        b.wait(t);
        // The departure freed slot 1; a new joiner reuses it at gen 1.
        let ticket = b.join().unwrap();
        assert_eq!(ticket.slot(), 1);
        let t = b.arrive(&h0).unwrap();
        b.wait(t);
        let h1b = b.wait_active(&ticket);
        assert_eq!(h1b.generation(), 1);
        // Old and new handles now disagree on generation: the stale one
        // can never arrive into the slot's new occupant.
        assert!(matches!(
            b.arrive(&handles[1]).unwrap_err(),
            BarrierError::StaleGeneration {
                slot: 1,
                held: 0,
                current: 1
            }
        ));
        let b = &b;
        std::thread::scope(|s| {
            for h in [h0, h1b] {
                s.spawn(move || {
                    let t = b.arrive(&h).unwrap();
                    b.wait(t);
                });
            }
        });
        assert_eq!(b.members(), 2);
    }

    #[test]
    fn an_unredeemed_join_cannot_arrive() {
        let (b, _handles) = ReconfigBarrier::new(2, 1, central_factory);
        let ticket = b.join().unwrap();
        let forged = MemberHandle::from_parts(ticket.slot(), ticket.generation());
        assert_eq!(
            b.arrive(&forged).unwrap_err(),
            BarrierError::NotAParticipant { id: 1 }
        );
    }

    #[test]
    fn a_credential_beyond_capacity_is_refused_not_a_panic() {
        let (b, _handles) = ReconfigBarrier::new(4, 2, central_factory);
        let invalid = BarrierError::InvalidParticipant { id: 9, capacity: 4 };
        let handle = MemberHandle::from_parts(9, 0);
        assert_eq!(b.rank(&handle), Err(invalid.clone()));
        assert_eq!(b.arrive(&handle).unwrap_err(), invalid);
        assert_eq!(b.leave(handle), Err(invalid.clone()));
        assert_eq!(b.evict_member(9, 0), Err(invalid.clone()));
        assert_eq!(SplitBarrier::evict(&b, 9), Err(invalid.clone()));
        assert_eq!(SplitBarrier::admit(&b, 9), Err(invalid.clone()));
        let ticket = JoinTicket::from_parts(9, 0);
        assert!(!b.is_active(&ticket));
        // Settled at once, with a handle that is refused where presented.
        assert_eq!(b.rank(&b.wait_active(&ticket)), Err(invalid));
        assert_eq!(b.members(), 2);
    }

    #[test]
    fn join_fails_when_every_slot_is_taken() {
        let (b, _handles) = ReconfigBarrier::new(2, 2, central_factory);
        assert_eq!(
            b.join().unwrap_err(),
            BarrierError::GroupFull { capacity: 2 }
        );
    }

    #[test]
    fn last_member_cannot_leave() {
        let (b, handles) = ReconfigBarrier::new(2, 1, central_factory);
        assert_eq!(b.leave(handles[0]).unwrap_err(), BarrierError::EmptyGroup);
    }

    #[test]
    fn timeout_keeps_the_token_retryable() {
        let (b, handles) = ReconfigBarrier::new(2, 2, central_factory);
        let b = &b;
        std::thread::scope(|s| {
            let h0 = handles[0];
            s.spawn(move || {
                let t = b.arrive(&h0).unwrap();
                let err = b
                    .wait_deadline(&t, Deadline::after(std::time::Duration::from_millis(5)))
                    .unwrap_err();
                assert_eq!(err, BarrierError::Timeout { episode: 0 });
                // Retry with the same token once the peer shows up.
                assert_eq!(b.wait(t).episode, 0);
            });
            let h1 = handles[1];
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                let t = b.arrive(&h1).unwrap();
                b.wait(t);
            });
        });
    }

    #[test]
    fn works_over_dissemination_and_hier() {
        // Dissemination counts a joiner two episodes after the staging,
        // hier one: the joiner runs from its first episode through 3.
        for factory in [
            (|n| {
                Arc::new(DisseminationBarrier::with_policy(
                    n,
                    StallPolicy::yielding(),
                )) as _
            }) as fn(usize) -> Arc<dyn SplitBarrier>,
            |n| Arc::new(HierBarrier::with_shards(n, 2, StallPolicy::yielding())) as _,
        ] {
            let (b, handles) = ReconfigBarrier::new(6, 3, factory);
            let ticket = b.join().unwrap();
            let b = &b;
            std::thread::scope(|s| {
                for h in handles {
                    s.spawn(move || {
                        for _ in 0..4 {
                            let t = b.arrive(&h).unwrap();
                            b.wait(t);
                        }
                    });
                }
                s.spawn(move || {
                    let h = b.wait_active(&ticket);
                    let mut t = b.arrive(&h).unwrap();
                    assert!(t.episode() <= 2, "counted from epoch 1 or 2");
                    while b.wait(t).episode < 3 {
                        t = b.arrive(&h).unwrap();
                    }
                });
            });
            assert_eq!(b.members(), 4);
            assert_eq!(b.epoch(), 4);
        }
    }

    #[test]
    fn an_async_member_awaits_the_frontend_over_the_group() {
        // Central parks the second pending poll in the episode core;
        // dissemination has no parking place, so it re-queues instead.
        for (factory, parks) in [
            (central_factory as fn(usize) -> Arc<dyn SplitBarrier>, true),
            (
                |n| {
                    Arc::new(DisseminationBarrier::with_policy(
                        n,
                        StallPolicy::yielding(),
                    )) as _
                },
                false,
            ),
        ] {
            let (b, handles) = ReconfigBarrier::new(2, 2, factory);
            let frontend = AsyncBarrier::new(b);
            let b = frontend.backend();
            let mut f0 = frontend.wait_async(b.arrive(&handles[0]).unwrap());
            let wakes = Wakes::new();
            assert!(wakes.poll(&mut f0).is_pending(), "peer not arrived yet");
            assert_eq!(wakes.count(), 1, "the first pending poll yields");
            assert!(wakes.poll(&mut f0).is_pending());
            assert_eq!(wakes.count(), 1 + usize::from(!parks));
            let t1 = b.arrive(&handles[1]).unwrap();
            assert_eq!(wakes.count(), 2, "woken by the completer, or re-queued");
            assert!(matches!(wakes.poll(&mut f0), Poll::Ready(Ok(o)) if o.episode == 0));
            assert_eq!(b.wait(t1).episode, 0);
        }
    }

    #[test]
    fn a_parked_future_dropped_unresolved_poisons_but_is_not_woken() {
        let (b, handles) = ReconfigBarrier::new(2, 2, central_factory);
        let frontend = AsyncBarrier::new(b);
        let b = frontend.backend();
        let mut f0 = frontend.wait_async(b.arrive(&handles[0]).unwrap());
        let wakes = Wakes::new();
        assert!(wakes.poll(&mut f0).is_pending(), "yields");
        assert!(wakes.poll(&mut f0).is_pending(), "parks");
        assert_eq!(wakes.count(), 1, "the yield's own wake");
        drop(f0);
        assert!(
            b.is_poisoned(),
            "an arrival nobody waits on hangs its peers"
        );
        assert_eq!(wakes.count(), 1, "the poison wakes no dropped task");
    }

    #[test]
    fn activation_future_resolves_after_the_boundary() {
        let (b, handles) = ReconfigBarrier::new(3, 1, central_factory);
        let b = Arc::new(b);
        let ticket = b.join().unwrap();
        let mut act = b.activation_future(&ticket);
        let wakes = Wakes::new();
        assert!(wakes.poll(&mut act).is_pending());
        assert_eq!(wakes.count(), 0, "parked, not re-queued");
        // One solo epoch is the boundary that admits the joiner.
        let t = ReconfigBarrier::arrive(&b, &handles[0]).unwrap();
        assert_eq!(wakes.count(), 1, "the completer wakes the parked task");
        b.wait(t);
        match wakes.poll(&mut act) {
            Poll::Ready(h) => assert_eq!(h.slot(), ticket.slot()),
            Poll::Pending => panic!("activation future must resolve after the boundary"),
        }
        assert_eq!(b.members(), 2);
    }

    #[test]
    fn a_ticket_whose_holder_never_redeemed_it_is_evicted_once_active() {
        let (b, handles) = ReconfigBarrier::new(3, 2, central_factory);
        let ticket = b.join().unwrap();
        let (slot, generation) = (ticket.slot(), ticket.generation());
        // Staged, not counted yet: nothing to remove.
        assert_eq!(
            b.evict_member(slot, generation).unwrap_err(),
            BarrierError::NotAParticipant { id: slot }
        );
        // Episode 0's completer admits the joiner, which never shows up.
        let tokens = [b.arrive(&handles[0]), b.arrive(&handles[1])].map(Result::unwrap);
        for t in tokens {
            b.wait(t);
        }
        assert!(b.is_active(&ticket));
        b.evict_member(slot, generation).unwrap();
        // Its stand-in covers episode 1; the founders go on without it.
        for e in 1..4 {
            let tokens = [b.arrive(&handles[0]), b.arrive(&handles[1])].map(Result::unwrap);
            for t in tokens {
                assert_eq!(b.wait(t).episode, e);
            }
        }
        assert_eq!((b.members(), b.stats().evictions), (2, 1));
        // A late `wait_active` returns at once, with a stale handle.
        let late = b.wait_active(&ticket);
        assert_eq!(
            b.arrive(&late).unwrap_err(),
            BarrierError::StaleGeneration {
                slot,
                held: generation,
                current: generation + 1
            }
        );
        assert_eq!(b.join().unwrap().generation(), generation + 1);
    }

    #[test]
    fn churn_under_load_stays_live() {
        // One permanent core member keeps episodes flowing (so boundaries —
        // and thus activations — always come) while a revolving door of
        // joiners joins, runs two epochs, and leaves again. The stop flag
        // is raised only after every joiner has fully left, so the core's
        // exit can never strand an active member mid-wait.
        let (b, handles) = ReconfigBarrier::new(8, 1, central_factory);
        let stop = std::sync::atomic::AtomicBool::new(false);
        let (b, stop) = (&b, &stop);
        std::thread::scope(|s| {
            let h = handles[0];
            let core = s.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let t = b.arrive(&h).unwrap();
                    b.wait(t);
                }
            });
            let joiners: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(move || {
                        for _ in 0..10 {
                            let ticket = loop {
                                match b.join() {
                                    Ok(t) => break t,
                                    Err(_) => std::thread::yield_now(),
                                }
                            };
                            let h = b.wait_active(&ticket);
                            for _ in 0..2 {
                                let t = b.arrive(&h).unwrap();
                                b.wait(t);
                            }
                            b.leave(h).unwrap();
                        }
                    })
                })
                .collect();
            for j in joiners {
                j.join().unwrap();
            }
            stop.store(true, Ordering::Release);
            core.join().unwrap();
        });
        assert_eq!(b.members(), 1, "all transient joiners left again");
    }
}

//! Dynamic membership over one [`SplitBarrier`] that can evict and admit.
//!
//! The paper's Sec. 5 mask update shrinks a barrier when a processor fails;
//! [`ReconfigBarrier`] grows one too, without stopping its episodes. Slot
//! *i* is participant *i* of one inner barrier, built once. A departure is
//! its [`SplitBarrier::evict`] (the departing member must not have arrived
//! for the in-flight episode), a join its [`SplitBarrier::admit`]. So an
//! arrival is one generation check plus one inner `arrive`, and a wait is
//! the inner wait. Each slot's monotone **generation** is stamped into the
//! [`MemberHandle`] it issues, so a stale handle never reaches the slot's
//! next occupant ([`BarrierError::StaleGeneration`]).

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
use std::task::{Context, Poll};

/// A member's credential: which slot it occupies and the slot generation
/// it was issued under. Arrivals re-validate the generation, so handles
/// outlive their membership only as rejectable tokens, never as live ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberHandle {
    slot: usize,
    generation: u64,
}

impl MemberHandle {
    /// Reconstructs a handle from its parts — e.g. one a supervisor
    /// persisted across a restart. Every use re-validates the slot
    /// generation, so a reconstructed handle that does not match the slot's
    /// current generation is rejected ([`BarrierError::StaleGeneration`]),
    /// never admitted.
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

/// An arrival: the member's slot and the epoch it arrived for. Only
/// [`ReconfigBarrier::arrive`] makes one. Waits borrow it, so a timed-out
/// [`ReconfigBarrier::wait_deadline`] is retried with the same token.
#[derive(Debug)]
pub struct ReconfigToken {
    slot: usize,
    epoch: u64,
}

impl ReconfigToken {
    /// The epoch this token arrived for.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The membership slot that arrived.
    #[must_use]
    pub fn slot(&self) -> usize {
        self.slot
    }

    fn inner(&self) -> ArrivalToken {
        ArrivalToken::new(self.slot, self.epoch)
    }
}

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
/// use fuzzy_barrier::{reconfig::ReconfigBarrier, CentralBarrier};
/// use std::sync::Arc;
///
/// let (barrier, handles) = ReconfigBarrier::new(4, 1, |n| Arc::new(CentralBarrier::new(n)));
/// let token = barrier.arrive(&handles[0]).unwrap();
/// // ... barrier region ...
/// assert_eq!(barrier.wait(&token).unwrap().episode, 0);
/// ```
pub struct ReconfigBarrier<S: SyncOps = RealSync> {
    inner: Arc<dyn SplitBarrier>,
    policy: StallPolicy,
    slots: Box<[CachePadded<Slot<S>>]>,
    /// Successful [`Self::evict`] calls. The inner barrier counts every
    /// departure as an eviction, and the slots evicted at construction.
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

    /// The current generation of `slot` (which must be below capacity).
    #[must_use]
    pub fn generation_of(&self, slot: usize) -> u64 {
        self.slots[slot].state.load(Ordering::Acquire) / 2
    }

    /// Takes a free slot lock-free and stages its admission in the inner
    /// barrier; the joiner is counted from a later episode boundary on.
    /// Fails with [`BarrierError::GroupFull`] when no slot is free (a
    /// departure frees its slot before it returns: back off and retry).
    pub fn join(&self) -> Result<JoinTicket, BarrierError> {
        for (index, slot) in self.slots.iter().enumerate() {
            if slot.reserved.fetch_add(1, Ordering::AcqRel) == 0 {
                let generation = slot.state.load(Ordering::Acquire) / 2;
                if let Err(err) = self.inner.admit(index) {
                    slot.reserved.fetch_sub(1, Ordering::AcqRel);
                    return Err(err);
                }
                return Ok(JoinTicket::from_parts(index, generation));
            }
            slot.reserved.fetch_sub(1, Ordering::AcqRel);
        }
        Err(BarrierError::GroupFull {
            capacity: self.capacity(),
        })
    }

    /// True once `ticket`'s admission has taken effect: the joiner's next
    /// arrival is counted.
    #[must_use]
    pub fn is_active(&self, ticket: &JoinTicket) -> bool {
        self.generation_of(ticket.slot) == ticket.generation && self.inner.is_member(ticket.slot)
    }

    /// True once the join is active or the ticket was evicted: either way
    /// [`Self::wait_active`] has its answer.
    fn is_settled(&self, ticket: &JoinTicket) -> bool {
        self.generation_of(ticket.slot) != ticket.generation || self.inner.is_member(ticket.slot)
    }

    /// Waits, under the group's stall policy, until the join is active, and
    /// issues the member's handle. Some member must complete an episode for
    /// that to happen. If the ticket was evicted meanwhile
    /// ([`Self::evict`]), the handle is stale: its first `arrive` fails with
    /// [`BarrierError::StaleGeneration`].
    #[must_use]
    pub fn wait_active(&self, ticket: &JoinTicket) -> MemberHandle {
        S::wait_until(self.policy, || self.is_settled(ticket));
        // A no-op if an eviction moved the generation on.
        self.slots[ticket.slot]
            .state
            .fetch_max(live(ticket.generation), Ordering::AcqRel);
        MemberHandle::from_parts(ticket.slot, ticket.generation)
    }

    /// Announces that the member behind `handle` is ready to synchronize;
    /// never blocks. Refuses a handle whose holder left or was evicted
    /// ([`BarrierError::StaleGeneration`]) or a join not yet redeemed
    /// ([`BarrierError::NotAParticipant`]).
    #[inline]
    pub fn arrive(&self, handle: &MemberHandle) -> Result<ReconfigToken, BarrierError> {
        let state = self.slots[handle.slot].state.load(Ordering::Acquire);
        if state != live(handle.generation) {
            return Err(refusal(handle.slot, handle.generation, state));
        }
        let epoch = self.inner.arrive(handle.slot).episode();
        Ok(ReconfigToken {
            slot: handle.slot,
            epoch,
        })
    }

    /// [`Self::wait_deadline`] without a deadline.
    pub fn wait(&self, token: &ReconfigToken) -> Result<WaitOutcome, BarrierError> {
        self.wait_deadline(token, Deadline::never())
    }

    /// The inner barrier's bounded, poison-aware wait: completion wins over
    /// [`BarrierError::Timeout`] and [`BarrierError::Poisoned`]. After a
    /// timeout the arrival still counts, and the token is retried as is.
    #[inline]
    pub fn wait_deadline(
        &self,
        token: &ReconfigToken,
        deadline: Deadline,
    ) -> Result<WaitOutcome, BarrierError> {
        self.inner.wait_deadline(token.inner(), deadline)
    }

    /// Removes the member behind `handle`: its departure is the stand-in
    /// arrival for the in-flight episode, and the handle is stale and the
    /// slot free before this returns. Refuses a handle as
    /// [`Self::arrive`] does, and the last member ([`BarrierError::EmptyGroup`]).
    pub fn leave(&self, handle: MemberHandle) -> Result<(), BarrierError> {
        self.depart(handle.slot, handle.generation, false)
    }

    /// A supervisor's [`Self::leave`] for a member that crashed before
    /// arriving; yesterday's generation cannot evict today's occupant. It
    /// also removes a joiner whose ticket was never redeemed (its holder
    /// died before [`Self::wait_active`]) once the join is active; before
    /// that it is refused with [`BarrierError::NotAParticipant`], and the
    /// supervisor retries.
    pub fn evict(&self, slot: usize, generation: u64) -> Result<(), BarrierError> {
        self.depart(slot, generation, true)?;
        self.evictions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn depart(&self, slot: usize, held: u64, unredeemed: bool) -> Result<(), BarrierError> {
        let state = self.slots[slot].state.load(Ordering::Acquire);
        let active_ticket = unredeemed && state == 2 * held && self.inner.is_member(slot);
        if state != live(held) && !active_ticket {
            return Err(refusal(slot, held, state));
        }
        match self.inner.evict(slot) {
            Ok(()) => {}
            // A racing departure under the same credential won.
            Err(BarrierError::NotAParticipant { .. }) => {
                return Err(refusal(slot, held, live(held + 1)));
            }
            Err(err) => return Err(err),
        }
        // The generation moves on before the slot is free: whoever takes
        // it next reads the new one. A maximum, not an increment, so a
        // racing `wait_active` of an evicted ticket cannot set it live.
        self.slots[slot]
            .state
            .fetch_max(2 * (held + 1), Ordering::AcqRel);
        self.slots[slot].reserved.fetch_sub(1, Ordering::AcqRel);
        Ok(())
    }

    /// Poisons the inner barrier.
    pub fn poison(&self) {
        self.inner.poison();
    }

    /// True if the inner barrier is poisoned.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }

    /// The inner barrier's statistics (slot = participant id), except that
    /// `evictions` counts [`Self::evict`] calls only.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            evictions: self.evictions.load(Ordering::Relaxed),
            ..self.inner.stats()
        }
    }

    /// The inner barrier's telemetry, `evictions` as in [`Self::stats`].
    #[must_use]
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut telemetry = self.inner.telemetry();
        telemetry.base.evictions = self.evictions.load(Ordering::Relaxed);
        telemetry
    }

    /// Async [`Self::wait`]. Dropping the future unresolved poisons the
    /// barrier, like [`crate::BarrierFuture`].
    pub fn wait_future(self: &Arc<Self>, token: ReconfigToken) -> ReconfigFuture<S> {
        ReconfigFuture {
            barrier: Arc::clone(self),
            token,
            done: false,
        }
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

impl<S: SyncOps> fmt::Debug for ReconfigBarrier<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReconfigBarrier")
            .field("capacity", &self.capacity())
            .field("members", &self.members())
            .finish_non_exhaustive()
    }
}

/// Polls `ready`. While it is false, parks the task's waker on the inner
/// barrier and looks again (a completion before the registration wakes
/// nobody). An inner barrier that cannot park — dissemination, where a
/// poll is what sends the member's later rounds — gets the task re-queued
/// instead, to poll again.
fn poll_ready(inner: &dyn SplitBarrier, cx: &Context<'_>, ready: impl Fn() -> bool) -> bool {
    if ready() {
        return true;
    }
    if !inner.register_waker(cx.waker()) {
        cx.waker().wake_by_ref();
        return false;
    }
    ready()
}

/// Resolves when the episode its token arrived for completes.
///
/// Neither future keeps a waker list: the inner barrier's completer wakes
/// what [`SplitBarrier::register_waker`] parked, after it publishes.
#[must_use = "an async arrival must be polled to completion"]
#[derive(Debug)]
pub struct ReconfigFuture<S: SyncOps = RealSync> {
    barrier: Arc<ReconfigBarrier<S>>,
    token: ReconfigToken,
    done: bool,
}

impl<S: SyncOps> Future for ReconfigFuture<S> {
    type Output = Result<WaitOutcome, BarrierError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = Pin::into_inner(self);
        let inner = &*this.barrier.inner;
        let token = this.token.inner();
        if !poll_ready(inner, cx, || {
            inner.is_complete(&token) || inner.is_poisoned()
        }) {
            return Poll::Pending;
        }
        this.done = true;
        // Returns at once: the episode completed, or the poison is reported.
        Poll::Ready(this.barrier.wait(&this.token))
    }
}

impl<S: SyncOps> Drop for ReconfigFuture<S> {
    fn drop(&mut self) {
        // An arrival nobody waits on would hang its peers.
        if !self.done && !self.barrier.inner.is_complete(&self.token.inner()) {
            self.barrier.poison();
        }
    }
}

/// Resolves to the member's handle once its join is active, as
/// [`ReconfigBarrier::wait_active`] returns it.
#[must_use = "the join takes effect whether or not this is awaited; only awaiting it yields the handle"]
#[derive(Debug)]
pub struct ActivationFuture<S: SyncOps = RealSync> {
    barrier: Arc<ReconfigBarrier<S>>,
    ticket: JoinTicket,
}

impl<S: SyncOps> Future for ActivationFuture<S> {
    type Output = MemberHandle;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = Pin::into_inner(self);
        let barrier = &this.barrier;
        if poll_ready(&*barrier.inner, cx, || barrier.is_settled(&this.ticket)) {
            Poll::Ready(barrier.wait_active(&this.ticket))
        } else {
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::CentralBarrier;
    use crate::dissemination::DisseminationBarrier;
    use crate::hier::HierBarrier;
    use std::sync::atomic::AtomicUsize;
    use std::task::Waker;

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
            assert_eq!(t.epoch(), e);
            let o = b.wait(&t).unwrap();
            assert_eq!(o.episode, e);
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
            b.wait(&t).unwrap();
            let h = b.wait_active(&ticket);
            b.leave(h).unwrap();
        }
        assert_eq!(built.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn joiner_activates_at_the_next_boundary() {
        let (b, handles) = ReconfigBarrier::new(4, 2, central_factory);
        let b = Arc::new(b);
        let ticket = b.join().unwrap();
        assert!(
            !b.is_active(&ticket),
            "join stages; it must not apply early"
        );
        std::thread::scope(|s| {
            for h in handles {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    // Epoch 0: two members. Epoch 1: three.
                    for _ in 0..2 {
                        let t = b.arrive(&h).unwrap();
                        b.wait(&t).unwrap();
                    }
                });
            }
            let b2 = Arc::clone(&b);
            s.spawn(move || {
                let h = b2.wait_active(&ticket);
                let t = b2.arrive(&h).unwrap();
                assert_eq!(t.epoch(), 1, "joiner's first epoch is post-boundary");
                b2.wait(&t).unwrap();
            });
        });
        assert_eq!(b.members(), 3);
        assert_eq!(b.epoch(), 2);
    }

    #[test]
    fn leave_invalidates_the_handle_and_shrinks() {
        let (b, handles) = ReconfigBarrier::new(4, 2, central_factory);
        let b = Arc::new(b);
        std::thread::scope(|s| {
            let b0 = Arc::clone(&b);
            let h0 = handles[0];
            s.spawn(move || {
                // Epoch 0 with both, epoch 1 alone (peer's leave stands in).
                for e in 0..2 {
                    let t = b0.arrive(&h0).unwrap();
                    assert_eq!(b0.wait(&t).unwrap().episode, e);
                }
            });
            let b1 = Arc::clone(&b);
            let h1 = handles[1];
            s.spawn(move || {
                let t = b1.arrive(&h1).unwrap();
                b1.wait(&t).unwrap();
                b1.leave(h1).unwrap();
                assert_eq!(
                    b1.arrive(&h1).unwrap_err(),
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
        let b = Arc::new(b);
        std::thread::scope(|s| {
            let b0 = Arc::clone(&b);
            let h0 = handles[0];
            s.spawn(move || {
                let t = b0.arrive(&h0).unwrap();
                // Member 1 never arrives; its eviction must release us.
                assert_eq!(b0.wait(&t).unwrap().episode, 0);
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
            // Wrong generation is refused; the right one evicts.
            assert!(matches!(
                b.evict(1, 99).unwrap_err(),
                BarrierError::StaleGeneration { .. }
            ));
            b.evict(1, handles[1].generation()).unwrap();
        });
        assert_eq!(b.members(), 1);
        assert_eq!(b.stats().evictions, 1);
        // Double-evict with the old generation is now stale.
        assert!(matches!(
            b.evict(1, handles[1].generation()).unwrap_err(),
            BarrierError::StaleGeneration { .. }
        ));
    }

    #[test]
    fn evictions_count_evict_calls_not_departures() {
        // Capacity 4 over 3 founders: one slot starts evicted in the inner
        // barrier, and leaves are inner evictions too. Neither is counted.
        let (b, handles) = ReconfigBarrier::new(4, 3, central_factory);
        b.leave(handles[2]).unwrap();
        assert_eq!(b.stats().evictions, 0);
        b.evict(1, handles[1].generation()).unwrap();
        assert_eq!(b.stats().evictions, 1);
        assert_eq!(b.telemetry().base.evictions, 1);
        let t = b.arrive(&handles[0]).unwrap();
        assert_eq!(b.wait(&t).unwrap().episode, 0);
        assert_eq!(b.telemetry().base, b.stats());
    }

    #[test]
    fn slot_reuse_issues_a_fresh_generation() {
        let (b, handles) = ReconfigBarrier::new(2, 2, central_factory);
        let b = Arc::new(b);
        let h0 = handles[0];
        // Member 1 leaves before arriving; its stand-in covers epoch 0.
        b.leave(handles[1]).unwrap();
        let t = b.arrive(&h0).unwrap();
        b.wait(&t).unwrap();
        // The departure freed slot 1; a new joiner reuses it at gen 1.
        let ticket = b.join().unwrap();
        assert_eq!(ticket.slot(), 1);
        let t = b.arrive(&h0).unwrap();
        b.wait(&t).unwrap();
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
        std::thread::scope(|s| {
            for h in [h0, h1b] {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    let t = b.arrive(&h).unwrap();
                    b.wait(&t).unwrap();
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
        let b = Arc::new(b);
        std::thread::scope(|s| {
            let b0 = Arc::clone(&b);
            let h0 = handles[0];
            s.spawn(move || {
                let t = b0.arrive(&h0).unwrap();
                let err = b0
                    .wait_deadline(&t, Deadline::after(std::time::Duration::from_millis(5)))
                    .unwrap_err();
                assert_eq!(err, BarrierError::Timeout { episode: 0 });
                // Retry with the same token once the peer shows up.
                assert_eq!(b0.wait(&t).unwrap().episode, 0);
            });
            let b1 = Arc::clone(&b);
            let h1 = handles[1];
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                let t = b1.arrive(&h1).unwrap();
                b1.wait(&t).unwrap();
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
            let b = Arc::new(b);
            let ticket = b.join().unwrap();
            std::thread::scope(|s| {
                for h in handles {
                    let b = Arc::clone(&b);
                    s.spawn(move || {
                        for _ in 0..4 {
                            let t = b.arrive(&h).unwrap();
                            b.wait(&t).unwrap();
                        }
                    });
                }
                let b2 = Arc::clone(&b);
                s.spawn(move || {
                    let h = b2.wait_active(&ticket);
                    let mut t = b2.arrive(&h).unwrap();
                    assert!(t.epoch() <= 2, "counted from epoch 1 or 2");
                    while b2.wait(&t).unwrap().episode < 3 {
                        t = b2.arrive(&h).unwrap();
                    }
                });
            });
            assert_eq!(b.members(), 4);
            assert_eq!(b.epoch(), 4);
        }
    }

    #[test]
    fn async_wait_future_resolves_on_completion() {
        let (b, handles) = ReconfigBarrier::new(2, 2, central_factory);
        let b = Arc::new(b);
        let t0 = b.arrive(&handles[0]).unwrap();
        let mut f0 = b.wait_future(t0);
        let wakes = Wakes::new();
        assert!(wakes.poll(&mut f0).is_pending(), "peer not arrived yet");
        assert_eq!(wakes.count(), 0, "parked, not re-queued");
        let t1 = b.arrive(&handles[1]).unwrap();
        assert_eq!(wakes.count(), 1, "the completer wakes the parked task");
        let mut f1 = b.wait_future(t1);
        match wakes.poll(&mut f1) {
            Poll::Ready(Ok(o)) => assert_eq!(o.episode, 0),
            other => panic!("expected Ready(Ok(_)), got {other:?}"),
        }
        match wakes.poll(&mut f0) {
            Poll::Ready(Ok(o)) => assert_eq!(o.episode, 0),
            other => panic!("expected Ready(Ok(_)), got {other:?}"),
        }
        assert_eq!(b.epoch(), 1);
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
        let t = b.arrive(&handles[0]).unwrap();
        assert_eq!(wakes.count(), 1, "the completer wakes the parked task");
        b.wait(&t).unwrap();
        match wakes.poll(&mut act) {
            Poll::Ready(h) => assert_eq!(h.slot(), ticket.slot()),
            Poll::Pending => panic!("activation future must resolve after the boundary"),
        }
        assert_eq!(b.members(), 2);
    }

    #[test]
    fn futures_over_dissemination_poll_instead_of_parking() {
        // A dissemination member's later rounds are sent by its own polls,
        // so a pending poll re-queues the task rather than parking it.
        let (b, handles) = ReconfigBarrier::new(2, 2, |n| {
            Arc::new(DisseminationBarrier::with_policy(
                n,
                StallPolicy::yielding(),
            )) as _
        });
        let b = Arc::new(b);
        let mut f0 = b.wait_future(b.arrive(&handles[0]).unwrap());
        let wakes = Wakes::new();
        assert!(wakes.poll(&mut f0).is_pending());
        assert_eq!(wakes.count(), 1, "re-queued");
        let t1 = b.arrive(&handles[1]).unwrap();
        assert!(matches!(wakes.poll(&mut f0), Poll::Ready(Ok(_))));
        assert_eq!(b.wait(&t1).unwrap().episode, 0);
    }

    #[test]
    fn a_ticket_whose_holder_never_redeemed_it_is_evicted_once_active() {
        let (b, handles) = ReconfigBarrier::new(3, 2, central_factory);
        let ticket = b.join().unwrap();
        let (slot, generation) = (ticket.slot(), ticket.generation());
        // Staged, not counted yet: nothing to remove.
        assert_eq!(
            b.evict(slot, generation).unwrap_err(),
            BarrierError::NotAParticipant { id: slot }
        );
        // Episode 0's completer admits the joiner, which never shows up.
        let tokens = [b.arrive(&handles[0]), b.arrive(&handles[1])].map(Result::unwrap);
        for t in &tokens {
            b.wait(t).unwrap();
        }
        assert!(b.is_active(&ticket));
        b.evict(slot, generation).unwrap();
        // Its stand-in covers episode 1; the founders go on without it.
        for e in 1..4 {
            let tokens = [b.arrive(&handles[0]), b.arrive(&handles[1])].map(Result::unwrap);
            for t in &tokens {
                assert_eq!(b.wait(t).unwrap().episode, e);
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
    fn dropping_an_unresolved_wait_future_poisons() {
        let (b, handles) = ReconfigBarrier::new(2, 2, central_factory);
        let b = Arc::new(b);
        let t0 = b.arrive(&handles[0]).unwrap();
        drop(b.wait_future(t0));
        assert!(b.is_poisoned());
    }

    #[test]
    fn churn_under_load_stays_live() {
        // One permanent core member keeps episodes flowing (so boundaries —
        // and thus activations — always come) while a revolving door of
        // joiners joins, runs two epochs, and leaves again. The stop flag
        // is raised only after every joiner has fully left, so the core's
        // exit can never strand an active member mid-wait.
        let (b, handles) = ReconfigBarrier::new(8, 1, central_factory);
        let b = Arc::new(b);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            let core = {
                let b = Arc::clone(&b);
                let stop = Arc::clone(&stop);
                let h = handles[0];
                s.spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let t = b.arrive(&h).unwrap();
                        b.wait(&t).unwrap();
                    }
                })
            };
            let joiners: Vec<_> = (0..3)
                .map(|_| {
                    let b = Arc::clone(&b);
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
                                b.wait(&t).unwrap();
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

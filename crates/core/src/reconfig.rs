//! Epoch-based dynamic membership over any [`SplitBarrier`] backend.
//!
//! The paper's Sec. 5 failure handling only ever *shrinks* a barrier (the
//! mask update on processor failure); the PR-4 eviction machinery inherited
//! that one-way limitation. [`ReconfigBarrier`] adds the other direction:
//! `join` and `leave` requests are **staged in a lock-free pending set**
//! and applied **atomically at episode boundaries** — the last arriver of
//! epoch *e* (the winner of a monotone `fetch_max` claim, the same RMW
//! idiom the eviction flags and the dissemination completion word use)
//! installs the new membership for epoch *e+1* before anyone can arrive
//! for it.
//!
//! # Protocol
//!
//! Membership lives in `capacity` fixed **slots**. Each slot carries a
//! monotone **generation**; a [`MemberHandle`] is stamped with the
//! generation it was issued under, and every arrival re-validates the
//! stamp, so a stale evicted handle can never arrive into a resized
//! barrier ([`BarrierError::StaleGeneration`]).
//!
//! Synchronization itself delegates to an inner backend built by a
//! caller-supplied factory. The five stock backends all fix their
//! structure at construction (dissemination rounds, tree shape, hier
//! shards), so *growth* is implemented by **rebuilding** the inner backend
//! at the boundary install, while *shrinkage* reuses the backends' native
//! [`SplitBarrier::evict`] stand-in arrival mid-episode. Because a member
//! captures an `Arc` of the inner backend in its [`ReconfigToken`] at
//! arrive time, a rebuild never invalidates an in-flight wait.
//!
//! The boundary runs in three ordered steps:
//!
//! 1. every member's wait returns from the inner backend (all of epoch
//!    *e* arrived — the fuzzy invariant);
//! 2. exactly one member wins `claim.fetch_max(e+1)` and installs: frees
//!    departed slots, activates staged joiners at epoch *e+1*, and — only
//!    if joiners exist — rebuilds the inner backend at the new size;
//! 3. the winner publishes the wrapper **epoch word**; every member's
//!    wait completes only on `epoch > e`, so nobody can arrive for *e+1*
//!    before the install is visible.
//!
//! Joiners park — blocking via [`ReconfigBarrier::wait_active`], async via
//! [`ReconfigBarrier::activation_future`] — until the install that
//! activates them publishes.
//!
//! # Eviction contract
//!
//! [`ReconfigBarrier::evict`] and [`ReconfigBarrier::leave`] inherit the
//! PR-4 contract: the departing member must **not** have arrived for the
//! in-flight epoch (its stand-in arrival would double count). The wrapper
//! tracks each slot's last arrival epoch and panics loudly on a violation
//! instead of corrupting the count.

use crate::error::BarrierError;
use crate::failure::Deadline;
use crate::fuzzy::SplitBarrier;
use crate::spin::StallPolicy;
use crate::stats::{BarrierStats, StatsSnapshot, TelemetrySnapshot};
use crate::sync::{Atomic, RealSync, SyncOps, TicketLock};
use crate::token::{ArrivalToken, WaitOutcome};
use fuzzy_util::CachePadded;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};
use std::task::{Context, Poll, Waker};
use std::time::Instant;

/// Sentinel for "no epoch": an inactive slot's activation epoch and a
/// never-arrived slot's last-arrival epoch.
const NEVER: u64 = u64::MAX;

/// The factory a [`ReconfigBarrier`] rebuilds its inner backend with when
/// joiners are installed: maps a member count to a fresh backend.
pub type BackendFactory = Box<dyn Fn(usize) -> Arc<dyn SplitBarrier> + Send + Sync>;

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
    /// persisted across a restart. Handles are pure credentials: every
    /// use re-validates the slot generation, so a reconstructed handle
    /// that does not match the slot's current generation is rejected
    /// ([`BarrierError::StaleGeneration`]), never admitted.
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

/// A staged join: the claimed slot, waiting for an episode boundary to
/// activate it. Redeem with [`ReconfigBarrier::wait_active`] (blocking) or
/// [`ReconfigBarrier::activation_future`] (async).
#[derive(Debug, Clone, Copy)]
pub struct JoinTicket {
    slot: usize,
    generation: u64,
}

impl JoinTicket {
    /// Reconstructs a ticket from its parts (see
    /// [`MemberHandle::from_parts`]). Activation is still governed by the
    /// installer, and the handle redeemed from a reconstructed ticket is
    /// subject to the same generation checks as any other.
    #[must_use]
    pub fn from_parts(slot: usize, generation: u64) -> Self {
        JoinTicket { slot, generation }
    }

    /// The slot this ticket claimed.
    #[must_use]
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// The slot generation the claim was staged under.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// A wrapper-level arrival token: names the wrapper epoch the member
/// arrived for and carries the inner backend instance (and rank) that
/// epoch runs on, so a boundary rebuild never invalidates it.
///
/// Unlike [`ArrivalToken`], waits borrow this token instead of consuming
/// it: a timed-out [`ReconfigBarrier::wait_deadline`] can simply be
/// retried with the same token (the arrival already counted).
pub struct ReconfigToken {
    slot: usize,
    epoch: u64,
    rank: usize,
    inner_episode: u64,
    inner: Arc<dyn SplitBarrier>,
}

impl ReconfigToken {
    /// The wrapper epoch this token arrives into.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The membership slot that arrived.
    #[must_use]
    pub fn slot(&self) -> usize {
        self.slot
    }
}

impl fmt::Debug for ReconfigToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReconfigToken")
            .field("slot", &self.slot)
            .field("epoch", &self.epoch)
            .field("rank", &self.rank)
            .finish_non_exhaustive()
    }
}

/// The membership state installed for the current epoch. Only ever
/// touched while holding the [`TicketLock`] gate, so the std mutex never
/// contends (and never blocks a checker vthread invisibly).
struct Installed {
    inner: Arc<dyn SplitBarrier>,
    /// Slot → rank in `inner`; `None` for inactive or departed slots.
    rank_of: Vec<Option<usize>>,
    /// Live member count (always equals the inner backend's live count).
    members: usize,
}

/// A split-phase barrier with epoch-based dynamic membership; see the
/// module docs for the protocol.
///
/// # Examples
///
/// ```
/// use fuzzy_barrier::reconfig::ReconfigBarrier;
/// use fuzzy_barrier::{CentralBarrier, StallPolicy};
/// use std::sync::Arc;
///
/// let (barrier, handles) = ReconfigBarrier::new(4, 2, |n| {
///     Arc::new(CentralBarrier::with_policy(n, StallPolicy::yielding()))
/// });
/// let barrier = Arc::new(barrier);
/// std::thread::scope(|s| {
///     for h in handles {
///         let barrier = Arc::clone(&barrier);
///         s.spawn(move || {
///             let token = barrier.arrive(&h).unwrap();
///             // ... barrier region ...
///             let outcome = barrier.wait(&token).unwrap();
///             assert_eq!(outcome.episode, 0);
///         });
///     }
/// });
/// assert_eq!(barrier.epoch(), 1);
/// ```
pub struct ReconfigBarrier<S: SyncOps = RealSync> {
    capacity: usize,
    policy: StallPolicy,
    factory: BackendFactory,
    /// Slot claim refcounts: `fetch_add == 0` wins the slot; losers
    /// decrement back. Lock-free join staging, step 1.
    reserved: Vec<CachePadded<S::AtomicU32>>,
    /// Monotone per-slot generation; bumped on every departure.
    generation: Vec<CachePadded<S::AtomicU64>>,
    /// Epoch at which the slot becomes active ([`NEVER`] while staged or
    /// free).
    activation: Vec<CachePadded<S::AtomicU64>>,
    /// Wrapper epoch of the slot's most recent arrival (the eviction
    /// contract check).
    last_arrive: Vec<CachePadded<S::AtomicU64>>,
    /// Lock-free join staging, step 2: the installer activates every
    /// flagged slot at the next boundary.
    pending_join: Vec<CachePadded<S::AtomicU32>>,
    /// Departure staging: the installer frees flagged slots for reuse at
    /// the next boundary.
    pending_free: Vec<CachePadded<S::AtomicU32>>,
    /// Installer election: holds the highest boundary (`e + 1`) claimed so
    /// far; the caller whose `fetch_max` observes a smaller value installs.
    claim: CachePadded<S::AtomicU64>,
    /// The wrapper release word: completed wrapper epochs.
    epoch: CachePadded<S::AtomicU64>,
    /// Serializes membership-map access across arrive/depart/install; an
    /// `S`-domain lock so blocked acquirers deschedule under the checker.
    gate: TicketLock<S>,
    installed: Mutex<Installed>,
    /// Async waiters parked on publication or activation; woken wholesale
    /// on every publish, departure, and poisoning (spurious wakes re-poll).
    parked: Mutex<Vec<Waker>>,
    stats: BarrierStats,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ReconfigBarrier<RealSync> {
    /// Creates a group with `initial` active members over `capacity`
    /// slots, returning their handles. `factory(n)` builds the inner
    /// backend for `n` members; it is re-invoked at every boundary that
    /// installs joiners.
    ///
    /// # Panics
    ///
    /// Panics if `initial == 0` or `initial > capacity`.
    #[must_use]
    pub fn new(
        capacity: usize,
        initial: usize,
        factory: impl Fn(usize) -> Arc<dyn SplitBarrier> + Send + Sync + 'static,
    ) -> (Self, Vec<MemberHandle>) {
        Self::with_policy(capacity, initial, StallPolicy::yielding(), factory)
    }

    /// [`Self::new`] with an explicit stall policy for the wrapper's own
    /// waits (publication and activation).
    ///
    /// # Panics
    ///
    /// Panics if `initial == 0` or `initial > capacity`.
    #[must_use]
    pub fn with_policy(
        capacity: usize,
        initial: usize,
        policy: StallPolicy,
        factory: impl Fn(usize) -> Arc<dyn SplitBarrier> + Send + Sync + 'static,
    ) -> (Self, Vec<MemberHandle>) {
        Self::with_policy_in(capacity, initial, policy, factory)
    }
}

impl<S: SyncOps> ReconfigBarrier<S> {
    /// Creates a group in an explicit [`SyncOps`] domain — `RealSync` in
    /// production, instrumented shadow state under the `fuzzy-check`
    /// model checker.
    ///
    /// # Panics
    ///
    /// Panics if `initial == 0` or `initial > capacity`.
    #[must_use]
    pub fn with_policy_in(
        capacity: usize,
        initial: usize,
        policy: StallPolicy,
        factory: impl Fn(usize) -> Arc<dyn SplitBarrier> + Send + Sync + 'static,
    ) -> (Self, Vec<MemberHandle>) {
        assert!(initial > 0, "a group needs at least one initial member");
        assert!(
            initial <= capacity,
            "initial membership {initial} exceeds capacity {capacity}"
        );
        let inner = factory(initial);
        let barrier = ReconfigBarrier {
            capacity,
            policy,
            factory: Box::new(factory),
            reserved: (0..capacity)
                .map(|slot| CachePadded::new(S::AtomicU32::new(u32::from(slot < initial))))
                .collect(),
            generation: (0..capacity)
                .map(|_| CachePadded::new(S::AtomicU64::new(0)))
                .collect(),
            activation: (0..capacity)
                .map(|slot| {
                    CachePadded::new(S::AtomicU64::new(if slot < initial { 0 } else { NEVER }))
                })
                .collect(),
            last_arrive: (0..capacity)
                .map(|_| CachePadded::new(S::AtomicU64::new(NEVER)))
                .collect(),
            pending_join: (0..capacity)
                .map(|_| CachePadded::new(S::AtomicU32::new(0)))
                .collect(),
            pending_free: (0..capacity)
                .map(|_| CachePadded::new(S::AtomicU32::new(0)))
                .collect(),
            claim: CachePadded::new(S::AtomicU64::new(0)),
            epoch: CachePadded::new(S::AtomicU64::new(0)),
            gate: TicketLock::new(),
            installed: Mutex::new(Installed {
                inner,
                rank_of: (0..capacity)
                    .map(|slot| (slot < initial).then_some(slot))
                    .collect(),
                members: initial,
            }),
            parked: Mutex::new(Vec::new()),
            stats: BarrierStats::with_participants(capacity),
        };
        let handles = (0..initial)
            .map(|slot| MemberHandle {
                slot,
                generation: 0,
            })
            .collect();
        (barrier, handles)
    }

    /// The fixed slot capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Completed wrapper epochs (the release word).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Current live member count.
    #[must_use]
    pub fn members(&self) -> usize {
        let _g = self.gate.acquire();
        lock(&self.installed).members
    }

    /// The current generation of `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= capacity`.
    #[must_use]
    pub fn generation_of(&self, slot: usize) -> u64 {
        self.generation[slot].load(Ordering::Acquire)
    }

    /// Stages a join: claims a free slot lock-free and flags it for the
    /// installer. The joiner becomes active at the next episode boundary;
    /// redeem the ticket with [`Self::wait_active`] or
    /// [`Self::activation_future`].
    ///
    /// # Errors
    ///
    /// [`BarrierError::GroupFull`] when no slot is free. Slots of staged
    /// departures free up at the next boundary, so callers may back off
    /// and retry (see [`crate::registry::GroupRegistry`] for the
    /// backoff-loop idiom).
    pub fn join(&self) -> Result<JoinTicket, BarrierError> {
        for slot in 0..self.capacity {
            if self.reserved[slot].fetch_add(1, Ordering::AcqRel) == 0 {
                let generation = self.generation[slot].load(Ordering::Acquire);
                self.pending_join[slot].store(1, Ordering::Release);
                return Ok(JoinTicket { slot, generation });
            }
            self.reserved[slot].fetch_sub(1, Ordering::AcqRel);
        }
        Err(BarrierError::GroupFull {
            capacity: self.capacity,
        })
    }

    /// True once `ticket`'s slot has been activated by a boundary install
    /// whose epoch has published.
    #[must_use]
    pub fn is_active(&self, ticket: &JoinTicket) -> bool {
        let activation = self.activation[ticket.slot].load(Ordering::Acquire);
        activation != NEVER && self.epoch.load(Ordering::Acquire) >= activation
    }

    /// Blocks (per the wrapper's stall policy) until the staged join
    /// activates, then returns the member's handle.
    ///
    /// Activation requires an episode boundary: some member of the current
    /// epoch must complete an episode for the installer to run. In a
    /// quiescent group the joiner parks until episodes resume.
    #[must_use]
    pub fn wait_active(&self, ticket: &JoinTicket) -> MemberHandle {
        S::wait_until(self.policy, || self.is_active(ticket));
        MemberHandle {
            slot: ticket.slot,
            generation: ticket.generation,
        }
    }

    /// Announces that the member behind `handle` is ready to synchronize
    /// in the current epoch. Never blocks (beyond the membership gate).
    ///
    /// # Errors
    ///
    /// * [`BarrierError::StaleGeneration`] — the handle's slot generation
    ///   has advanced (its holder left or was evicted); the arrival is
    ///   refused before it can corrupt the resized barrier.
    /// * [`BarrierError::NotAParticipant`] — the slot is not currently
    ///   active (departed this epoch, generation not yet reused).
    pub fn arrive(&self, handle: &MemberHandle) -> Result<ReconfigToken, BarrierError> {
        let gate = self.gate.acquire();
        let held = handle.generation;
        let current = self.generation[handle.slot].load(Ordering::Acquire);
        if current != held {
            return Err(BarrierError::StaleGeneration {
                slot: handle.slot,
                held,
                current,
            });
        }
        let (inner, rank) = {
            let ins = lock(&self.installed);
            let rank = ins.rank_of[handle.slot]
                .ok_or(BarrierError::NotAParticipant { id: handle.slot })?;
            (Arc::clone(&ins.inner), rank)
        };
        let epoch = self.epoch.load(Ordering::Acquire);
        self.last_arrive[handle.slot].store(epoch, Ordering::Release);
        let inner_token = inner.arrive(rank);
        let inner_episode = inner_token.episode();
        drop(inner_token);
        // Recorded with the gate released: telemetry is not membership
        // state. The price is that a member descheduled right here can miss
        // a sampled epoch's spread fold, which then measures the members
        // that had stamped.
        drop(gate);
        self.stats.record_arrival(handle.slot, epoch);
        Ok(ReconfigToken {
            slot: handle.slot,
            epoch,
            rank,
            inner_episode,
            inner,
        })
    }

    /// Blocks until the wrapper epoch the token arrived for completes and
    /// its boundary install publishes.
    ///
    /// # Errors
    ///
    /// [`BarrierError::Poisoned`] if the barrier was poisoned first.
    pub fn wait(&self, token: &ReconfigToken) -> Result<WaitOutcome, BarrierError> {
        self.wait_deadline(token, Deadline::never())
    }

    /// Bounded, poison-aware wait. On [`BarrierError::Timeout`] the
    /// arrival still counted and the token stays valid: retry by calling
    /// this again with the same token (the spurious-timeout recovery the
    /// chaos harness leans on).
    ///
    /// # Errors
    ///
    /// [`BarrierError::Timeout`] when `deadline` passes first,
    /// [`BarrierError::Poisoned`] when the barrier is poisoned first.
    /// Completion wins over both.
    pub fn wait_deadline(
        &self,
        token: &ReconfigToken,
        deadline: Deadline,
    ) -> Result<WaitOutcome, BarrierError> {
        let e = token.epoch;
        // No `epoch > e` fast path here, deliberately. On a cooperative
        // backend (dissemination) a member's later-round signals
        // are sent only by its own wait probes; peers block on them. A
        // wait that returned on the publication alone — reachable when a
        // bounded wait times out mid-rounds and the retry lands after the
        // install — would abandon those rounds forever and wedge the
        // group. Every wait therefore drives the inner to completion
        // first; on an already-published epoch that is a handful of
        // probes, and `finish_boundary` resolves instantly. (The async
        // twin, `ReconfigFuture::poll`, gates readiness on the same
        // own-completion probe.)
        let inner_token = ArrivalToken::new(token.rank, token.inner_episode);
        match token.inner.wait_deadline(inner_token, deadline) {
            Ok(inner_outcome) => {
                self.finish_boundary(e, token.slot, deadline)?;
                let outcome = WaitOutcome {
                    episode: e,
                    ..inner_outcome
                };
                self.stats.record_wait(token.slot, &outcome);
                Ok(outcome)
            }
            Err(BarrierError::Timeout { .. }) => Err(BarrierError::Timeout { episode: e }),
            Err(BarrierError::Poisoned { .. }) => Err(BarrierError::Poisoned { episode: e }),
            Err(other) => Err(other),
        }
    }

    /// The boundary protocol after the inner wait returned: elect one
    /// installer via the monotone claim, then hold everyone until the
    /// install publishes. `slot` is the waiting member's.
    fn finish_boundary(&self, e: u64, slot: usize, deadline: Deadline) -> Result<(), BarrierError> {
        if self.claim.fetch_max(e + 1, Ordering::AcqRel) <= e {
            self.install(e, slot);
            return Ok(());
        }
        let report = S::wait_until_budget(self.policy, deadline.instant(), || {
            self.epoch.load(Ordering::Acquire) > e
        });
        // Completion wins: re-check after a timed-out stall.
        if self.epoch.load(Ordering::Acquire) > e {
            return Ok(());
        }
        debug_assert!(report.timed_out);
        Err(BarrierError::Timeout { episode: e })
    }

    /// The boundary install, run exactly once per epoch by the claim
    /// winner: free departed slots, activate staged joiners (rebuilding
    /// the inner backend at the new size), publish the epoch, wake
    /// parked async waiters. `slot` is the winner's own, for statistics.
    fn install(&self, e: u64, slot: usize) {
        {
            let _g = self.gate.acquire();
            let mut ins = lock(&self.installed);
            for slot in 0..self.capacity {
                if self.pending_free[slot].load(Ordering::Acquire) != 0 {
                    self.pending_free[slot].store(0, Ordering::Release);
                    self.last_arrive[slot].store(NEVER, Ordering::Release);
                    // Freeing the claim refcount is last: a concurrent
                    // joiner that wins the slot reads the already-bumped
                    // generation.
                    self.reserved[slot].fetch_sub(1, Ordering::AcqRel);
                }
            }
            let mut joined = false;
            for slot in 0..self.capacity {
                if self.pending_join[slot].load(Ordering::Acquire) != 0 {
                    self.pending_join[slot].store(0, Ordering::Release);
                    self.activation[slot].store(e + 1, Ordering::Release);
                    ins.rank_of[slot] = Some(usize::MAX); // rank assigned below
                    joined = true;
                }
            }
            if joined {
                // Growth rebuilds: the stock backends fix their structure
                // (rounds, tree shape, shards) at construction. Ranks are
                // reassigned densely in slot order.
                let active: Vec<usize> = (0..self.capacity)
                    .filter(|&slot| ins.rank_of[slot].is_some())
                    .collect();
                for (rank, &slot) in active.iter().enumerate() {
                    ins.rank_of[slot] = Some(rank);
                }
                ins.members = active.len();
                ins.inner = (self.factory)(active.len());
            }
        }
        self.stats.record_episode(slot, e);
        // Publish outside the gate; an RMW so shadow waiters re-wake.
        self.epoch.fetch_add(1, Ordering::AcqRel);
        self.wake_parked();
    }

    /// Removes the member behind `handle` from the group. Its departure
    /// counts as a stand-in arrival for the in-flight epoch (the inner
    /// backend's eviction), the handle is invalidated immediately via the
    /// generation bump, and the slot frees for reuse at the next boundary.
    ///
    /// # Errors
    ///
    /// * [`BarrierError::StaleGeneration`] — the handle already departed.
    /// * [`BarrierError::EmptyGroup`] — the last member cannot leave.
    ///
    /// # Panics
    ///
    /// Panics if the member already arrived for the in-flight epoch (the
    /// eviction contract; see the module docs).
    pub fn leave(&self, handle: MemberHandle) -> Result<(), BarrierError> {
        self.depart(handle.slot, handle.generation)
    }

    /// Evicts the member occupying `slot` at `generation` — the external
    /// (supervisor-driven) form of [`Self::leave`], for members that
    /// crashed before arriving. The generation check makes eviction
    /// idempotent and race-safe against slot reuse: an evictor holding
    /// yesterday's generation cannot evict today's occupant.
    ///
    /// # Errors
    ///
    /// As [`Self::leave`], plus [`BarrierError::NotAParticipant`] if the
    /// slot is inactive.
    ///
    /// # Panics
    ///
    /// Panics if the member already arrived for the in-flight epoch.
    pub fn evict(&self, slot: usize, generation: u64) -> Result<(), BarrierError> {
        self.depart(slot, generation)?;
        self.stats.record_eviction();
        Ok(())
    }

    fn depart(&self, slot: usize, held: u64) -> Result<(), BarrierError> {
        assert!(
            slot < self.capacity,
            "slot {slot} out of range for capacity {}",
            self.capacity
        );
        let _g = self.gate.acquire();
        let current = self.generation[slot].load(Ordering::Acquire);
        if current != held {
            return Err(BarrierError::StaleGeneration {
                slot,
                held,
                current,
            });
        }
        let inner = {
            let ins = lock(&self.installed);
            let rank = ins.rank_of[slot].ok_or(BarrierError::NotAParticipant { id: slot })?;
            if ins.members <= 1 {
                return Err(BarrierError::EmptyGroup);
            }
            let epoch = self.epoch.load(Ordering::Acquire);
            assert!(
                self.last_arrive[slot].load(Ordering::Acquire) != epoch,
                "cannot remove slot {slot}: it already arrived for in-flight epoch {epoch}"
            );
            drop(ins);
            let mut ins = lock(&self.installed);
            let inner = Arc::clone(&ins.inner);
            // The stand-in arrival first: if the inner backend refuses,
            // nothing was mutated.
            inner.evict(rank)?;
            self.generation[slot].fetch_add(1, Ordering::AcqRel);
            self.activation[slot].store(NEVER, Ordering::Release);
            ins.rank_of[slot] = None;
            ins.members -= 1;
            self.pending_free[slot].store(1, Ordering::Release);
            inner
        };
        drop(inner);
        drop(_g);
        // The stand-in may have completed the inner episode while every
        // async member sits parked; wake them to re-probe.
        self.wake_parked();
        Ok(())
    }

    /// Poisons the current inner backend: bounded waits of the in-flight
    /// epoch return [`BarrierError::Poisoned`].
    pub fn poison(&self) {
        let inner = {
            let _g = self.gate.acquire();
            Arc::clone(&lock(&self.installed).inner)
        };
        inner.poison();
        self.wake_parked();
    }

    /// Clears a poisoned inner backend.
    pub fn clear_poison(&self) {
        let _g = self.gate.acquire();
        lock(&self.installed).inner.clear_poison();
    }

    /// True if the current inner backend is poisoned.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        let _g = self.gate.acquire();
        lock(&self.installed).inner.is_poisoned()
    }

    /// Snapshot of the wrapper's accumulated statistics (arrivals and
    /// waits are indexed by slot; episodes count wrapper epochs).
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Full wrapper telemetry: flat counters plus stall histogram and
    /// per-slot counters.
    #[must_use]
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.stats.telemetry()
    }

    fn wake_parked(&self) {
        let wakers: Vec<Waker> = std::mem::take(&mut *lock(&self.parked));
        for waker in wakers {
            waker.wake();
        }
    }

    fn park(&self, waker: &Waker) {
        lock(&self.parked).push(waker.clone());
    }
}

impl<S: SyncOps> ReconfigBarrier<S> {
    /// Async form of [`Self::wait`]: a future resolving when the epoch the
    /// token arrived for publishes (or the barrier is poisoned first).
    /// Dropping the future unresolved poisons the barrier, mirroring
    /// [`crate::BarrierFuture`].
    pub fn wait_future(self: &Arc<Self>, token: ReconfigToken) -> ReconfigFuture<S> {
        ReconfigFuture {
            barrier: Arc::clone(self),
            token,
            parked: false,
            polls: 0,
            first_pending: None,
            done: false,
        }
    }

    /// Async form of [`Self::wait_active`]: a future resolving to the
    /// member's handle once the staged join activates. This is what lets
    /// an executor park joiners until their epoch activates instead of
    /// pinning a thread per joiner.
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
            .field("capacity", &self.capacity)
            .field("epoch", &self.epoch.load(Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

/// A future resolving when the wrapper epoch its token arrived for
/// publishes; created by [`ReconfigBarrier::wait_future`].
#[must_use = "an async arrival must be polled to completion"]
pub struct ReconfigFuture<S: SyncOps = RealSync> {
    barrier: Arc<ReconfigBarrier<S>>,
    token: ReconfigToken,
    parked: bool,
    polls: u64,
    first_pending: Option<Instant>,
    done: bool,
}

impl<S: SyncOps> fmt::Debug for ReconfigFuture<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReconfigFuture")
            .field("slot", &self.token.slot)
            .field("epoch", &self.token.epoch)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl<S: SyncOps> Future for ReconfigFuture<S> {
    type Output = Result<WaitOutcome, BarrierError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = Pin::into_inner(self);
        assert!(!this.done, "ReconfigFuture polled after completion");
        this.polls += 1;
        let e = this.token.epoch;
        let barrier = &this.barrier;
        let own = ArrivalToken::new(this.token.rank, this.token.inner_episode);
        // Ready requires BOTH the epoch publication and the member's own
        // inner completion: on cooperative backends the own-probe is what
        // help-drives this member's rounds before it re-arrives.
        let ready = |b: &ReconfigBarrier<S>, t: &ReconfigToken| {
            b.epoch.load(Ordering::Acquire) > e
                && t.inner
                    .is_complete(&ArrivalToken::new(t.rank, t.inner_episode))
        };
        if !ready(barrier, &this.token) {
            if this.token.inner.is_poisoned() {
                this.done = true;
                return Poll::Ready(Err(BarrierError::Poisoned { episode: e }));
            }
            if this.token.inner.is_complete(&own) {
                // All of epoch e arrived; run the boundary if unclaimed.
                if barrier.claim.fetch_max(e + 1, Ordering::AcqRel) <= e {
                    barrier.install(e, this.token.slot);
                }
                // Own episode done: only the publication is outstanding,
                // and the installer wakes everyone parked. Park before
                // the final re-check so a racing publication is not lost.
                barrier.park(cx.waker());
                if !ready(barrier, &this.token) {
                    if this.first_pending.is_none() {
                        this.first_pending = Some(Instant::now());
                    }
                    this.parked = true;
                    return Poll::Pending;
                }
            } else {
                // A cooperative backend (dissemination) advances this
                // member's rounds only through its own probes; parking now
                // — possibly with every peer parked too — would deadlock.
                // Yield through the executor instead: the re-poll probes
                // again, help-driving the rounds until they complete.
                if this.first_pending.is_none() {
                    this.first_pending = Some(Instant::now());
                }
                cx.waker().wake_by_ref();
                return Poll::Pending;
            }
        }
        this.done = true;
        let outcome = WaitOutcome {
            episode: e,
            stalled: this.polls > 1,
            descheduled: this.parked,
            probes: this.polls,
            stall_time: this.first_pending.map(|t| t.elapsed()).unwrap_or_default(),
        };
        barrier.stats.record_wait(this.token.slot, &outcome);
        Poll::Ready(Ok(outcome))
    }
}

impl<S: SyncOps> Drop for ReconfigFuture<S> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        // An arrival that will never be waited on would hang its peers:
        // poison, mirroring BarrierFuture's drop.
        let own = ArrivalToken::new(self.token.rank, self.token.inner_episode);
        if !self.token.inner.is_complete(&own) {
            self.barrier.poison();
        }
    }
}

/// A future resolving to a [`MemberHandle`] once a staged join activates;
/// created by [`ReconfigBarrier::activation_future`].
#[must_use = "a staged join activates only if awaited"]
pub struct ActivationFuture<S: SyncOps = RealSync> {
    barrier: Arc<ReconfigBarrier<S>>,
    ticket: JoinTicket,
}

impl<S: SyncOps> fmt::Debug for ActivationFuture<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActivationFuture")
            .field("slot", &self.ticket.slot)
            .finish_non_exhaustive()
    }
}

impl<S: SyncOps> Future for ActivationFuture<S> {
    type Output = MemberHandle;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = Pin::into_inner(self);
        if this.barrier.is_active(&this.ticket) {
            return Poll::Ready(MemberHandle {
                slot: this.ticket.slot,
                generation: this.ticket.generation,
            });
        }
        // Park before re-checking so an activation racing this poll is
        // not lost.
        this.barrier.park(cx.waker());
        if this.barrier.is_active(&this.ticket) {
            return Poll::Ready(MemberHandle {
                slot: this.ticket.slot,
                generation: this.ticket.generation,
            });
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::CentralBarrier;
    use crate::dissemination::DisseminationBarrier;
    use crate::hier::HierBarrier;

    fn central_factory(n: usize) -> Arc<dyn SplitBarrier> {
        Arc::new(CentralBarrier::with_policy(n, StallPolicy::yielding()))
    }

    fn poll_once<F: Future + Unpin>(fut: &mut F) -> Poll<F::Output> {
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        Pin::new(fut).poll(&mut cx)
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
    fn slot_reuse_issues_a_fresh_generation() {
        let (b, handles) = ReconfigBarrier::new(2, 2, central_factory);
        let b = Arc::new(b);
        let h0 = handles[0];
        // Member 1 leaves before arriving; its stand-in covers epoch 0.
        b.leave(handles[1]).unwrap();
        let t = b.arrive(&h0).unwrap();
        b.wait(&t).unwrap();
        // The boundary freed slot 1; a new joiner reuses it at gen 1.
        let ticket = b.join().unwrap();
        assert_eq!(ticket.slot(), 1);
        let t = b.arrive(&h0).unwrap();
        b.wait(&t).unwrap();
        let h1b = b.wait_active(&ticket);
        assert_eq!(h1b.generation(), 1);
        // Old and new handles now disagree on generation: the stale one
        // can never arrive into the resized barrier.
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
    fn join_fails_when_all_slots_claimed() {
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
                        for _ in 0..3 {
                            let t = b.arrive(&h).unwrap();
                            b.wait(&t).unwrap();
                        }
                    });
                }
                let b2 = Arc::clone(&b);
                s.spawn(move || {
                    let h = b2.wait_active(&ticket);
                    for _ in 0..2 {
                        let t = b2.arrive(&h).unwrap();
                        b2.wait(&t).unwrap();
                    }
                });
            });
            assert_eq!(b.members(), 4);
            assert_eq!(b.epoch(), 3);
        }
    }

    #[test]
    fn async_wait_future_resolves_on_publication() {
        let (b, handles) = ReconfigBarrier::new(2, 2, central_factory);
        let b = Arc::new(b);
        let t0 = b.arrive(&handles[0]).unwrap();
        let mut f0 = b.wait_future(t0);
        assert!(poll_once(&mut f0).is_pending(), "peer not arrived yet");
        let t1 = b.arrive(&handles[1]).unwrap();
        let mut f1 = b.wait_future(t1);
        // The last arriver's poll runs the boundary install itself.
        match poll_once(&mut f1) {
            Poll::Ready(Ok(o)) => assert_eq!(o.episode, 0),
            other => panic!("expected Ready(Ok(_)), got {other:?}"),
        }
        match poll_once(&mut f0) {
            Poll::Ready(Ok(o)) => {
                assert_eq!(o.episode, 0);
                assert!(o.stalled);
            }
            other => panic!("expected Ready(Ok(_)), got {other:?}"),
        }
        assert_eq!(b.epoch(), 1);
    }

    #[test]
    fn activation_future_parks_until_the_boundary() {
        let (b, handles) = ReconfigBarrier::new(3, 1, central_factory);
        let b = Arc::new(b);
        let ticket = b.join().unwrap();
        let mut act = b.activation_future(&ticket);
        assert!(poll_once(&mut act).is_pending());
        // One solo epoch triggers the install that activates the joiner.
        let t = b.arrive(&handles[0]).unwrap();
        b.wait(&t).unwrap();
        match poll_once(&mut act) {
            Poll::Ready(h) => assert_eq!(h.slot(), ticket.slot()),
            Poll::Pending => panic!("activation future must resolve after the boundary"),
        }
        assert_eq!(b.members(), 2);
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

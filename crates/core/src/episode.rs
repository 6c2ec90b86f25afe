//! The episode core: everything a shared-memory backend has in common.
//!
//! The paper's mechanism is two operations — signal readiness, then stall
//! only at the end of the region — and that is all a backend has to supply:
//! a [`Protocol`] says how an arrival is signalled and what condition a
//! waiter polls. [`Barrier`] wraps a protocol with the rest of the
//! [`SplitBarrier`] contract, once: participant ids and token stamping, the
//! stall policy and the poison-aware bounded wait, membership (the removal
//! guard, admission and the live count), and the statistics. The five stock
//! backends are type aliases of it (`CentralBarrier<S> = Barrier<Central<S>,
//! S>` and so on), and it is the only `impl SplitBarrier` they have.
//! `fuzzy-net`'s message-passing endpoint runs on it too: its protocol's
//! `released` pumps a transport, and the core's wait is the only wait loop
//! in the repository.
//!
//! Membership is a window per participant: `id` is counted in episode *e*
//! iff `active_from ≤ e < absent_from`. A removal closes the window at the
//! first episode `id` has not arrived for; an admission opens a new one at
//! an episode nobody has arrived for or probed yet (see
//! [`Cx::admit_staged`]). Every participant starts with the window `[0, ∞)`.

use crate::error::BarrierError;
use crate::failure::{self, Deadline};
use crate::spin::StallPolicy;
use crate::stats::{BarrierStats, StatsSnapshot, TelemetrySnapshot};
use crate::sync::{Atomic, Lock, RealSync, SyncOps};
use crate::token::{ArrivalToken, WaitOutcome};
use crate::SplitBarrier;
use fuzzy_util::CachePadded;
use std::fmt;
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::task::Waker;

/// The end of an open membership window.
const NEVER: u64 = u64::MAX;

/// How one backend signals arrival and detects release.
///
/// # Contract
///
/// * **Nobody spins.** `arrive`, `retire` and `admit` make a bounded number
///   of steps and return — that is what keeps the split fuzzy for the last
///   arriver, leaders included. Only the core's wait loop blocks, and the
///   one condition it polls is `released`.
/// * **`released(id, e)` is monotone**: once true for an episode it stays
///   true, and it is true only after the `arrive` for `e` of every
///   participant counted in `e` ([`Cx::is_member`]). It may *mutate*
///   protocol state to help the episode along — relay a dissemination
///   round, broadcast a release into a shard — provided every such write is
///   itself monotone, because any number of probes, from `wait`,
///   `is_complete` or an async poll, may race.
/// * **Whoever observes an episode's completion first calls
///   [`Cx::record_episode`] for it, exactly once per episode**, and
///   [`Cx::admit_staged`] with the first episode a joiner may be counted in.
///   A protocol with a release word also calls [`Cx::wake_parked`] once it
///   has published the completion with a `SeqCst` write.
/// * A protocol that learns of a fault no participant can recover from (a
///   dead peer) calls [`Cx::poison`]. Threads that drive the protocol on
///   nobody's behalf reach it through [`Barrier::drive`].
/// * The `Acquire`/`Release` pairing that carries writes made before
///   `arrive(e)` to readers after `released(e)` is the protocol's own.
///
/// The core has already validated `id`, stamped the token and recorded the
/// arrival before it calls `arrive`; see [`Protocol::retire`] and
/// [`Protocol::admit`] for what it guarantees before a membership change.
pub trait Protocol<S: SyncOps>: Send + Sync {
    /// Signals participant `id`'s arrival for `episode`. Never spins.
    fn arrive(&self, id: usize, episode: u64, cx: &Cx<'_, S>);

    /// Has `episode` completed from participant `id`'s point of view? The
    /// one condition `wait` polls.
    fn released(&self, id: usize, episode: u64, cx: &Cx<'_, S>) -> bool;

    /// The backend's release word, if it has one: `Some(k)` promises that
    /// **for every participant id** `released(id, e) == (e < k)`, costs one
    /// `Acquire` load and is monotone — the contract of
    /// [`SplitBarrier::release_epoch`], which forwards here. `None` (the
    /// default) is for protocols whose completion is per participant.
    fn release_epoch(&self) -> Option<u64> {
        None
    }

    /// Stands in for participant `id`, which is being evicted or is
    /// leaving: supplies its arrival for the in-flight episode (it must not
    /// have arrived for it) and drops it from every later one.
    ///
    /// By the time this runs the core has validated `id`, closed its
    /// membership window at the first episode it has not arrived for
    /// ([`Cx::is_member`]) and shrunk the live count ([`Cx::live`] is
    /// already the survivor count, at least 1) — shrink *before* stand-in,
    /// so a completer ordered after the stand-in re-arms with the shrunk
    /// value. Membership changes are serialised: no other `retire` or
    /// `admit` runs concurrently, though arrivals and probes do.
    ///
    /// On a protocol with a release word the closed window had begun, so
    /// `id` is counted in the in-flight episode. Without one, the core may
    /// close a window that never opened (an admitted participant removed
    /// before its first episode), so such a protocol must read membership
    /// from the windows alone, as dissemination does.
    fn retire(&self, id: usize, cx: &Cx<'_, S>);

    /// Counts participant `id` again, from the episode its admission opens
    /// on: every episode from then on waits for its arrival. The dual of
    /// [`Self::retire`].
    ///
    /// Runs only inside [`Cx::admit_staged`], so the completer that called
    /// it has counted every arrival for its episode and nobody has arrived
    /// for, or probed, the one `id` is admitted into. The core has stamped
    /// `id`'s window and token episode; it raises the live count after
    /// this returns. Membership changes are serialised, as for `retire`.
    fn admit(&self, id: usize, cx: &Cx<'_, S>);
}

/// A [`Protocol`] with no shape parameter beyond the participant count
/// (no fan-in, no shard size). Its barrier gets the three plain
/// constructors [`Barrier::new`], [`Barrier::with_policy`] and
/// [`Barrier::with_policy_in`].
pub trait FlatProtocol<S: SyncOps>: Protocol<S> {
    /// The protocol state for `n > 0` participants, nobody arrived yet.
    fn for_participants(n: usize) -> Self;
}

/// What the core lends a [`Protocol`] call: who is recording, and the
/// membership, poison word and statistics the core owns.
#[derive(Debug)]
pub struct Cx<'a, S: SyncOps> {
    who: usize,
    /// True inside a removal, which holds the membership lock.
    removing: bool,
    shared: &'a Shared<S>,
}

/// The part of the core's state its protocol may look at, through [`Cx`].
struct Shared<S: SyncOps> {
    /// Per-participant count of arrivals performed, used to stamp tokens;
    /// an admission sets it to the joiner's first episode.
    local_episode: Vec<CachePadded<S::AtomicU64>>,
    slots: Box<[Slot<S>]>,
    /// Admissions staged and not yet applied: the one word a completer
    /// reads when nothing is staged.
    staged: CachePadded<S::AtomicUsize>,
    /// Participants counted from the next episode on.
    live: CachePadded<S::AtomicUsize>,
    /// Serialises membership changes; see `Barrier::claim`.
    membership: S::Mutex<()>,
    /// Wakers registered through [`SplitBarrier::register_waker`].
    parked: S::Mutex<Vec<Waker>>,
    /// How many there are: the one word a completer reads after it
    /// publishes. A plain atomic in every domain: no checker scenario
    /// parks a waker, and an instrumented load would add a scheduling
    /// point to every completion.
    parked_count: CachePadded<AtomicUsize>,
    /// Non-zero once the barrier is poisoned (see [`SplitBarrier::poison`]).
    poisoned: CachePadded<S::AtomicU32>,
    stats: BarrierStats,
}

impl<S: SyncOps> Shared<S> {
    /// Wakes every registered waker, if there is one. The caller has just
    /// published a completion or the poison with a `SeqCst` write, and a
    /// registration re-checks its condition after a `SeqCst` store of the
    /// count, so either this load sees the registration or the re-check
    /// sees the publication.
    #[inline]
    fn wake_parked(&self) {
        if self.parked_count.load(Ordering::SeqCst) != 0 {
            self.wake_all();
        }
    }

    #[cold]
    #[inline(never)]
    fn wake_all(&self) {
        let wakers = {
            let mut parked = self.parked.acquire();
            self.parked_count.store(0, Ordering::SeqCst);
            std::mem::take(&mut *parked)
        };
        for waker in wakers {
            waker.wake();
        }
    }
}

impl<S: SyncOps> fmt::Debug for Shared<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shared")
            .field("slots", &self.slots)
            .field("staged", &self.staged)
            .field("live", &self.live)
            .finish_non_exhaustive()
    }
}

/// One participant's membership window, `[active_from, absent_from)`.
#[derive(Debug)]
struct Slot<S: SyncOps> {
    active_from: S::AtomicU64,
    /// [`NEVER`] while the window is open.
    absent_from: S::AtomicU64,
    /// Non-zero while an admission is staged.
    staged: S::AtomicU32,
}

type MembershipGuard<'a, S> = <<S as SyncOps>::Mutex<()> as Lock<()>>::Guard<'a>;

impl<S: SyncOps> Cx<'_, S> {
    /// Records the completion of `episode` under this call's statistics
    /// recorder: the arriving or probing participant, or nobody's cell for
    /// an evictor (not the evicted participant's thread) and for a
    /// [`Barrier::drive`] caller.
    #[inline]
    pub fn record_episode(&self, episode: u64) {
        self.shared.stats.record_episode(self.who, episode);
    }

    /// True if participant `id` is counted in `episode`.
    #[inline]
    #[must_use]
    pub fn is_member(&self, id: usize, episode: u64) -> bool {
        let slot = &self.shared.slots[id];
        slot.active_from.load(Ordering::Acquire) <= episode
            && episode < slot.absent_from.load(Ordering::Acquire)
    }

    /// Participants counted from the next episode on.
    #[inline]
    #[must_use]
    pub fn live(&self) -> usize {
        self.shared.live.load(Ordering::Acquire)
    }

    /// True inside a removal — [`Protocol::retire`] and whatever its
    /// stand-in completes — whose caller will not arrive again.
    #[inline]
    #[must_use]
    pub fn is_removal(&self) -> bool {
        self.removing
    }

    /// Wakes the wakers [`SplitBarrier::register_waker`] parked. The
    /// completer of an episode on a protocol with a release word calls it
    /// after publishing the completion with a `SeqCst` write. Costs one
    /// load when nothing is parked.
    #[inline]
    pub fn wake_parked(&self) {
        self.shared.wake_parked();
    }

    /// Poisons the barrier, as [`SplitBarrier::poison`] does. Returns true
    /// for the call that set the word, so a protocol that must tell others
    /// (a peer-death broadcast) tells them once per poisoning.
    pub fn poison(&self) -> bool {
        let first = self.shared.poisoned.fetch_max(1, Ordering::SeqCst) == 0;
        if first {
            self.shared.stats.record_poisoning();
        }
        self.shared.wake_parked();
        first
    }

    /// Applies the staged admissions, each joiner counted from episode
    /// `first()` on: the protocol's completer of episode *e* calls this
    /// once nobody can have arrived for, or probed, `first()`. That is
    /// *e + 1* for a completer that runs before it publishes *e + 1*, and
    /// *e + 2* for a participant that has completed *e* but not yet arrived
    /// for *e + 1* — nobody reaches *e + 2* before it does.
    ///
    /// Costs one load when nothing is staged. A completer that finds the
    /// membership lock taken leaves the admissions to a later one instead
    /// of waiting for it.
    #[inline]
    pub fn admit_staged<P: Protocol<S>>(&self, protocol: &P, first: impl FnOnce() -> u64) {
        if self.shared.staged.load(Ordering::Acquire) != 0 {
            self.apply_admissions(protocol, first());
        }
    }

    #[cold]
    #[inline(never)]
    fn apply_admissions<P: Protocol<S>>(&self, protocol: &P, first: u64) {
        let _membership = if self.removing {
            None
        } else {
            match self.shared.membership.try_acquire() {
                Some(guard) => Some(guard),
                None => return,
            }
        };
        for (id, slot) in self.shared.slots.iter().enumerate() {
            if slot.staged.load(Ordering::Acquire) == 0 {
                continue;
            }
            slot.staged.store(0, Ordering::Relaxed);
            self.shared.local_episode[id].store(first, Ordering::Relaxed);
            slot.active_from.store(first, Ordering::Release);
            protocol.admit(id, self);
            self.shared.live.fetch_add(1, Ordering::AcqRel);
            // Opened last: `SplitBarrier::is_member` reads an open window
            // as "admitted", and the joiner then arrives.
            slot.absent_from.store(NEVER, Ordering::Release);
            self.shared.staged.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// A split-phase barrier over the arrival/release protocol `P`, in the
/// sync domain `S` — `RealSync` in production, instrumented shadow state
/// under the `fuzzy-check` model checker.
///
/// Use it through the backend aliases ([`crate::CentralBarrier`],
/// [`crate::TreeBarrier`], …); build one directly to run a protocol of your
/// own (DESIGN.md, "The protocol contract", has a worked example).
#[derive(Debug)]
pub struct Barrier<P, S: SyncOps = RealSync> {
    n: usize,
    policy: StallPolicy,
    protocol: P,
    shared: Shared<S>,
}

impl<P: FlatProtocol<RealSync>> Barrier<P> {
    /// Creates a barrier for `n` participants with the default stall policy.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::with_policy(n, StallPolicy::default())
    }

    /// Creates a barrier with an explicit [`StallPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_policy(n: usize, policy: StallPolicy) -> Self {
        Self::with_policy_in(n, policy)
    }
}

impl<P: FlatProtocol<S>, S: SyncOps> Barrier<P, S> {
    /// Creates a barrier in an explicit [`SyncOps`] domain — `RealSync` in
    /// production, instrumented shadow state under the `fuzzy-check` model
    /// checker.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_policy_in(n: usize, policy: StallPolicy) -> Self {
        assert!(n > 0, "a barrier needs at least one participant");
        Self::from_protocol(n, policy, P::for_participants(n))
    }
}

impl<P: Protocol<S>, S: SyncOps> Barrier<P, S> {
    /// Wraps `protocol`, which must have been built for `n` participants.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn from_protocol(n: usize, policy: StallPolicy, protocol: P) -> Self {
        assert!(n > 0, "a barrier needs at least one participant");
        Barrier {
            n,
            policy,
            protocol,
            shared: Shared {
                local_episode: (0..n)
                    .map(|_| CachePadded::new(S::AtomicU64::new(0)))
                    .collect(),
                slots: (0..n)
                    .map(|_| Slot {
                        active_from: S::AtomicU64::new(0),
                        absent_from: S::AtomicU64::new(NEVER),
                        staged: S::AtomicU32::new(0),
                    })
                    .collect(),
                staged: CachePadded::new(S::AtomicUsize::new(0)),
                live: CachePadded::new(S::AtomicUsize::new(n)),
                membership: Lock::new(()),
                parked: Lock::new(Vec::new()),
                parked_count: CachePadded::new(AtomicUsize::new(0)),
                poisoned: CachePadded::new(S::AtomicU32::new(0)),
                stats: BarrierStats::with_participants(n),
            },
        }
    }

    /// The protocol state.
    #[must_use]
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Runs `f` over the protocol with a [`Cx`] that belongs to no
    /// participant: for a thread that drives the protocol on nobody's
    /// behalf, such as a transport delivering a frame. A completion it
    /// records lands in no participant's statistics cell.
    pub fn drive<R>(&self, f: impl FnOnce(&P, &Cx<'_, S>) -> R) -> R {
        f(&self.protocol, &self.cx(BarrierStats::NOT_A_PARTICIPANT))
    }

    /// The stall policy waits use.
    #[must_use]
    pub fn policy(&self) -> StallPolicy {
        self.policy
    }

    /// Participants counted from the next episode on: the construction
    /// count minus evictions and departures via [`Self::leave`], plus
    /// admissions that have taken effect.
    #[must_use]
    pub fn remaining_participants(&self) -> usize {
        self.shared.live.load(Ordering::Acquire)
    }

    /// Removes participant `id` from the barrier, called by that
    /// participant — the analogue of C++20
    /// `std::barrier::arrive_and_drop`, useful when streams are destroyed
    /// dynamically (Sec. 5). The departure counts as an arrival for the
    /// current episode (possibly completing it); subsequent episodes expect
    /// one fewer participant. The departed participant must not call
    /// `arrive` or `wait` again unless it is admitted back
    /// ([`SplitBarrier::admit`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or already gone, or if called when
    /// only one participant remains (a barrier needs at least one).
    pub fn leave(&self, id: usize) {
        self.check_id(id);
        let _membership = self.claim(id).unwrap_or_else(|err| match err {
            BarrierError::EmptyGroup => {
                panic!("the last remaining participant cannot leave the barrier")
            }
            err => panic!("participant {id} cannot leave the barrier: {err}"),
        });
        let episode = self.shared.local_episode[id].load(Ordering::Relaxed);
        self.shared.stats.record_arrival(id, episode);
        self.protocol.retire(id, &self.removal(id));
    }

    /// The one removal transition, shared by [`SplitBarrier::evict`] and
    /// [`Self::leave`]: checks that `id` (in range) is still a member and
    /// would leave a survivor, then closes its window and shrinks the live
    /// count. The three steps are indivisible with respect to every other
    /// membership change because they run under the membership lock, which
    /// the returned guard keeps held while the caller runs
    /// [`Protocol::retire`]. Check-then-act without it lets concurrent
    /// removals each see a survivor in the other and empty the barrier.
    /// Membership changes are a cold path; arrivals and waits never take
    /// the lock, and a completer applying admissions only tries it.
    fn claim(&self, id: usize) -> Result<MembershipGuard<'_, S>, BarrierError> {
        let guard = self.shared.membership.acquire();
        let slot = &self.shared.slots[id];
        // A dead id stays dead regardless of how many live remain, so the
        // not-a-member check comes first. An admitted id whose window has
        // not begun is not counted yet either: on a protocol with a release
        // word its stand-in would land in an episode that does not count it.
        if slot.absent_from.load(Ordering::Acquire) != NEVER || !self.has_begun(slot) {
            return Err(BarrierError::NotAParticipant { id });
        }
        if self.shared.live.load(Ordering::Acquire) <= 1 {
            return Err(BarrierError::EmptyGroup);
        }
        // Closed at the first episode `id` has not arrived for. A shadow
        // store is a write, so checker waiters blocked on a ghost closure
        // re-probe.
        let next = self.shared.local_episode[id].load(Ordering::Relaxed);
        slot.absent_from.store(next, Ordering::Release);
        self.shared.live.fetch_sub(1, Ordering::AcqRel);
        Ok(guard)
    }

    /// True once `slot`'s window has begun: on a protocol with a release
    /// word, every episode before its first has completed. A protocol
    /// without one reads membership from the windows alone, where a window
    /// that has not begun is simply not counted yet.
    fn has_begun(&self, slot: &Slot<S>) -> bool {
        self.protocol
            .release_epoch()
            .is_none_or(|k| k >= slot.active_from.load(Ordering::Acquire))
    }

    fn cx(&self, who: usize) -> Cx<'_, S> {
        Cx {
            who,
            removing: false,
            shared: &self.shared,
        }
    }

    fn removal(&self, who: usize) -> Cx<'_, S> {
        Cx {
            who,
            removing: true,
            shared: &self.shared,
        }
    }

    fn check_id(&self, id: usize) {
        assert!(
            id < self.n,
            "participant id {id} out of range for {} participants",
            self.n
        );
    }
}

impl<P: Protocol<S>, S: SyncOps> SplitBarrier for Barrier<P, S> {
    #[inline]
    fn arrive(&self, id: usize) -> ArrivalToken {
        self.check_id(id);
        let episode = self.shared.local_episode[id].fetch_add(1, Ordering::Relaxed);
        // Before the protocol step that makes the arrival visible to
        // peers, so the episode's completer finds the arrival stamp.
        self.shared.stats.record_arrival(id, episode);
        self.protocol.arrive(id, episode, &self.cx(id));
        ArrivalToken::new(id, episode)
    }

    #[inline]
    fn is_complete(&self, token: &ArrivalToken) -> bool {
        self.protocol
            .released(token.id, token.episode, &self.cx(token.id))
    }

    #[inline]
    fn release_epoch(&self) -> Option<u64> {
        self.protocol.release_epoch()
    }

    /// The one wait, poison-aware and bounded. Inlined into the derived
    /// `wait`: behind `dyn SplitBarrier` an outlined copy costs an
    /// uncontended episode a call and a `Result` returned through memory
    /// (≈8 ns of ≈50).
    #[inline]
    fn wait_deadline(
        &self,
        token: ArrivalToken,
        deadline: Deadline,
    ) -> Result<WaitOutcome, BarrierError> {
        let cx = self.cx(token.id);
        let result = failure::guarded_wait::<S>(
            self.policy,
            deadline,
            token.episode,
            || self.protocol.released(token.id, token.episode, &cx),
            || self.is_poisoned(),
        );
        match result {
            Ok(outcome) => {
                self.shared.stats.record_wait(token.id, &outcome);
                Ok(outcome)
            }
            Err(fault) => {
                if matches!(fault.error, BarrierError::Timeout { .. }) {
                    self.shared.stats.record_timeout(token.id, &fault.report);
                }
                Err(fault.error)
            }
        }
    }

    fn poison(&self) {
        self.drive(|_, cx| cx.poison());
    }

    fn clear_poison(&self) {
        self.shared.poisoned.store(0, Ordering::Release);
    }

    fn is_poisoned(&self) -> bool {
        self.shared.poisoned.load(Ordering::Acquire) != 0
    }

    /// Safe to call concurrently, for the same or different ids: exactly
    /// the removals that leave a survivor succeed (see `Barrier::claim`).
    fn evict(&self, id: usize) -> Result<(), BarrierError> {
        if id >= self.n {
            return Err(BarrierError::InvalidParticipant {
                id,
                capacity: self.n,
            });
        }
        let _membership = self.claim(id)?;
        self.shared.stats.record_eviction();
        // The evictor is not the evicted participant's thread.
        self.protocol
            .retire(id, &self.removal(BarrierStats::NOT_A_PARTICIPANT));
        Ok(())
    }

    /// Stages the admission under the membership lock; the protocol's
    /// completer applies it (see [`Cx::admit_staged`]).
    fn admit(&self, id: usize) -> Result<(), BarrierError> {
        if id >= self.n {
            return Err(BarrierError::InvalidParticipant {
                id,
                capacity: self.n,
            });
        }
        let _membership = self.shared.membership.acquire();
        let slot = &self.shared.slots[id];
        if slot.absent_from.load(Ordering::Acquire) != NEVER
            && slot.staged.load(Ordering::Acquire) == 0
        {
            // Counted before flagged: a completer that reads the count but
            // not yet the flag leaves this one to the next completer.
            self.shared.staged.fetch_add(1, Ordering::AcqRel);
            slot.staged.store(1, Ordering::Release);
        }
        Ok(())
    }

    /// An open window whose first episode is up next: on a protocol with a
    /// release word, every episode before it has completed, so the
    /// joiner's arrival cannot be counted toward one of them.
    fn is_member(&self, id: usize) -> bool {
        let Some(slot) = self.shared.slots.get(id) else {
            return false;
        };
        slot.absent_from.load(Ordering::Acquire) == NEVER && self.has_begun(slot)
    }

    /// Parks `waker` on a protocol with a release word; see the trait.
    fn register_waker(&self, waker: &Waker) -> bool {
        if self.protocol.release_epoch().is_none() {
            return false;
        }
        {
            let mut parked = self.shared.parked.acquire();
            parked.push(waker.clone());
            self.shared
                .parked_count
                .store(parked.len(), Ordering::SeqCst);
        }
        // Orders the count's store before the caller's re-check; pairs with
        // the completer's `SeqCst` publication and load (`wake_parked`).
        fence(Ordering::SeqCst);
        true
    }

    fn participants(&self) -> usize {
        self.n
    }

    fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        self.shared.stats.telemetry()
    }
}

//! The episode core: everything a shared-memory backend has in common.
//!
//! The paper's mechanism is two operations — signal readiness, then stall
//! only at the end of the region — and that is all a backend has to supply:
//! a [`Protocol`] says how an arrival is signalled and what condition a
//! waiter polls. [`Barrier`] wraps a protocol with the rest of the
//! [`SplitBarrier`] contract, once: participant ids and token stamping, the
//! stall policy and the poison-aware bounded wait, the eviction guard and
//! live count, and the statistics. The five stock backends are type aliases
//! of it (`CentralBarrier<S> = Barrier<Central<S>, S>` and so on), and it is
//! the only `impl SplitBarrier` they have.

use crate::error::BarrierError;
use crate::failure::{self, Deadline};
use crate::spin::StallPolicy;
use crate::stats::{BarrierStats, StatsSnapshot, TelemetrySnapshot};
use crate::sync::{Atomic, RealSync, SyncOps, TicketGuard, TicketLock};
use crate::token::{ArrivalToken, WaitOutcome};
use crate::SplitBarrier;
use fuzzy_util::CachePadded;
use std::sync::atomic::Ordering;

/// How one backend signals arrival and detects release.
///
/// # Contract
///
/// * **Nobody spins.** `arrive` and `retire` make a bounded number of
///   steps and return — that is what keeps the split fuzzy for the last
///   arriver, leaders included. Only the core's wait loop blocks, and the
///   one condition it polls is `released`.
/// * **`released(id, e)` is monotone**: once true for an episode it stays
///   true, and it is true only after every live participant's `arrive` for
///   `e` (an evicted participant's arrival is waived from its eviction on).
///   It may *mutate* protocol state to help the episode along — relay a
///   dissemination round, broadcast a release into a shard — provided every
///   such write is itself monotone, because any number of probes, from
///   `wait`, `is_complete` or an async poll, may race.
/// * **Whoever observes an episode's completion first calls
///   [`Cx::record_episode`] for it, exactly once per episode.**
/// * The `Acquire`/`Release` pairing that carries writes made before
///   `arrive(e)` to readers after `released(e)` is the protocol's own.
///
/// The core has already validated `id`, stamped the token and recorded the
/// arrival before it calls `arrive`; see [`Protocol::retire`] for what it
/// guarantees before a removal.
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
    /// By the time this runs the core has validated `id`, claimed its
    /// eviction flag ([`Cx::is_evicted`] is already true) and shrunk the
    /// live count ([`Cx::live`] is already the survivor count, at least 1)
    /// — shrink *before* stand-in, so a completer ordered after the
    /// stand-in re-arms with the shrunk value. Removals are serialised:
    /// no other `retire` runs concurrently, though arrivals and probes do.
    fn retire(&self, id: usize, cx: &Cx<'_, S>);
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
/// membership and statistics the core owns.
#[derive(Debug)]
pub struct Cx<'a, S: SyncOps> {
    who: usize,
    shared: &'a Shared<S>,
}

/// The part of the core's state its protocol may look at, through [`Cx`].
#[derive(Debug)]
struct Shared<S: SyncOps> {
    /// Per-participant eviction flags (non-zero once evicted).
    evicted: Vec<CachePadded<S::AtomicU32>>,
    /// Participants still in the barrier (shrinks on eviction and `leave`).
    live: CachePadded<S::AtomicUsize>,
    stats: BarrierStats,
}

impl<S: SyncOps> Cx<'_, S> {
    /// Records the completion of `episode` under this call's statistics
    /// recorder: the arriving or probing participant, or
    /// [`BarrierStats::NOT_A_PARTICIPANT`] for an evictor, which is not the
    /// evicted participant's thread.
    #[inline]
    pub fn record_episode(&self, episode: u64) {
        self.shared.stats.record_episode(self.who, episode);
    }

    /// True once participant `id` has been evicted or has left.
    #[inline]
    #[must_use]
    pub fn is_evicted(&self, id: usize) -> bool {
        self.shared.evicted[id].load(Ordering::Acquire) != 0
    }

    /// Participants still in the barrier.
    #[inline]
    #[must_use]
    pub fn live(&self) -> usize {
        self.shared.live.load(Ordering::Acquire)
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
    /// Per-participant count of arrivals performed, used to stamp tokens.
    local_episode: Vec<CachePadded<S::AtomicU64>>,
    /// Non-zero once the barrier is poisoned (see [`SplitBarrier::poison`]).
    poisoned: CachePadded<S::AtomicU32>,
    /// Serialises removals; see [`Self::claim`].
    membership: TicketLock<S>,
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
            local_episode: (0..n)
                .map(|_| CachePadded::new(S::AtomicU64::new(0)))
                .collect(),
            poisoned: CachePadded::new(S::AtomicU32::new(0)),
            membership: TicketLock::new(),
            shared: Shared {
                evicted: (0..n)
                    .map(|_| CachePadded::new(S::AtomicU32::new(0)))
                    .collect(),
                live: CachePadded::new(S::AtomicUsize::new(n)),
                stats: BarrierStats::with_participants(n),
            },
        }
    }

    /// The protocol state, for the aliases' shape accessors.
    pub(crate) fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The stall policy waits use.
    #[must_use]
    pub fn policy(&self) -> StallPolicy {
        self.policy
    }

    /// Participants still in the barrier (the construction count minus
    /// evictions and departures via [`Self::leave`]).
    #[must_use]
    pub fn remaining_participants(&self) -> usize {
        self.shared.live.load(Ordering::Acquire)
    }

    /// Permanently removes participant `id` from the barrier, called by
    /// that participant — the analogue of C++20
    /// `std::barrier::arrive_and_drop`, useful when streams are destroyed
    /// dynamically (Sec. 5). The departure counts as an arrival for the
    /// current episode (possibly completing it); subsequent episodes expect
    /// one fewer participant. The departed participant must not call
    /// `arrive` or `wait` again.
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
        let episode = self.local_episode[id].load(Ordering::Relaxed);
        self.shared.stats.record_arrival(id, episode);
        self.protocol.retire(id, &self.cx(id));
    }

    /// The one membership transition, shared by [`SplitBarrier::evict`] and
    /// [`Self::leave`]: checks that `id` (in range) is still a member and
    /// would leave a survivor, then claims its flag and shrinks the live
    /// count. The three steps are indivisible with respect to every other
    /// removal because they run under the membership lock, which the
    /// returned guard keeps held while the caller runs
    /// [`Protocol::retire`]. Check-then-act without it lets concurrent
    /// removals each see a survivor in the other and empty the barrier.
    /// Removal is a cold path; arrivals and waits never take the lock.
    fn claim(&self, id: usize) -> Result<TicketGuard<'_, S>, BarrierError> {
        let guard = self.membership.acquire();
        // A dead id stays dead regardless of how many live remain, so the
        // already-evicted check comes first.
        if self.shared.evicted[id].load(Ordering::Acquire) != 0 {
            return Err(BarrierError::NotAParticipant { id });
        }
        if self.shared.live.load(Ordering::Acquire) <= 1 {
            return Err(BarrierError::EmptyGroup);
        }
        // An RMW, so checker waiters blocked on a ghost closure re-probe.
        self.shared.evicted[id].fetch_max(1, Ordering::AcqRel);
        self.shared.live.fetch_sub(1, Ordering::AcqRel);
        Ok(guard)
    }

    fn cx(&self, who: usize) -> Cx<'_, S> {
        Cx {
            who,
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
        let episode = self.local_episode[id].fetch_add(1, Ordering::Relaxed);
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
            || self.poisoned.load(Ordering::Acquire) != 0,
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
        if self.poisoned.fetch_max(1, Ordering::AcqRel) == 0 {
            self.shared.stats.record_poisoning();
        }
    }

    fn clear_poison(&self) {
        self.poisoned.store(0, Ordering::Release);
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire) != 0
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
            .retire(id, &self.cx(BarrierStats::NOT_A_PARTICIPANT));
        Ok(())
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

//! Poll-based (async) waiting on any [`SplitBarrier`] backend.
//!
//! The paper's fuzzy barrier lets a *processor* keep working inside the
//! barrier region instead of stalling. The software analogue at high
//! multiplexing is a **logical participant that parks without pinning an OS
//! thread**: [`AsyncBarrier::arrive_async`] returns a [`BarrierFuture`]
//! that registers a [`Waker`] against the episode instead of spinning, and
//! the completing side drains the waker list on release. `M ≫ N` logical
//! participants can then complete fuzzy episodes multiplexed over `N`
//! worker threads (see `fuzzy-sched`'s episode executor).
//!
//! # The waker protocol
//!
//! The parked waiters live in a registry (`(id, episode, Waker)` triples,
//! indexed by participant id — a participant has at most one arrival in
//! flight — so park, waker refresh and un-park are O(1)) guarded by a
//! **probe lock**: the [`SyncOps`] domain's lock, [`SyncOps::Mutex`].
//! In production that is one `std` mutex, one acquisition per park and
//! per drain; in the `fuzzy-check` shadow domain it is a ticket lock over
//! instrumented words, so the model checker can observe (and deschedule
//! through) the acquisition. Who takes that lock, and when, is the
//! backend's property, read at run time from
//! [`SplitBarrier::release_epoch`].
//!
//! **Uniform-release backends** (central, counting, tree, hier) publish one
//! release word `k`: every arrival for an episode below `k` is released,
//! no other is. The word alone answers most questions, so the lock is
//! taken only to *park* and to *release the parked*:
//!
//! * **Arrive** (sync or async) reads `k` after the backend's arrival
//!   returned its token for episode `e`. `k <= e` on an unpoisoned barrier
//!   means this arrival completed nothing and owes nobody a wake: it
//!   returns without the lock. Otherwise — by the trait's contract the
//!   arrival that completes `e` reads `k > e` after its own arrival — it
//!   **drains** under the lock: every entry parked for an episode below
//!   `k` is removed and its waker collected. The registry keeps a
//!   watermark, a lower bound on the oldest parked episode, so a drain
//!   that releases nobody is one load and one compare.
//! * **Poll** reads `k` first, lock-free. `e < k`: `Ready`, with no lock
//!   and no registry access (completion wins over poison). Otherwise, on
//!   the future's first pending poll, it **yields**: it wakes its own
//!   waker and returns `Pending`, with no lock, no registry entry and no
//!   poison read — spin before you park, with a budget of one yield. Only
//!   a later poll takes the lock, **re-reads `k` under it**, drains as
//!   above, and only then decides its own token from that second read:
//!   `Ready` and un-park, `Err(Poisoned)` and un-park, or register its
//!   waker and return `Pending`.
//! * A fault-free task-episode whose episode completes before its task is
//!   polled again therefore takes no lock at all; one that parks takes it
//!   once, and the completer once more per episode. An episode of `M`
//!   tasks costs at most `M` lock acquisitions and O(M) registry visits in
//!   total.
//! * A future that resolves on the lock-free path does not un-park. If it
//!   had parked and is polled again between the completing arrival and the
//!   drain that arrival owes, its entry stays behind, **stale**. The next
//!   drain under the lock removes it — the completer's, or the one that
//!   opens the id's own next parking poll — and wakes it: a task that has
//!   moved on takes that as a spurious poll, which every future
//!   tolerates. Registration does not lean on that order: finding an
//!   older episode's entry under its id, it replaces it in place and
//!   counts a fresh park.
//!
//! **Cooperative backends** (dissemination, the network barrier) return
//! `None`: their [`SplitBarrier::is_complete`] help-drives the
//! probed participant's rounds, so a poll may be the last event in the
//! system and must push the whole registry to a **fixpoint**, not just
//! itself. Every arrive and every poll — including polls that will return
//! `Pending` — takes the lock and sweeps. Probing one waiter's token can
//! enable another's (a dissemination probe that advances a round sends the
//! next round's signal), and enablement chains ascend one round per sweep
//! in the worst case, so the drain keeps sweeping every parked entry until
//! `help_rounds + 1` consecutive sweeps make no progress (`help_rounds`
//! defaults to `ceil(log2(participants))`, an upper bound on any backend's
//! round count). "Every poll drains everything" is this path's rule, and
//! only this path's.
//!
//! On **every** backend, `poison`, a successful `evict` and
//! `wait_deadline` drain under the lock when they return — and with them
//! `abort` and plain `wait`, which the trait derives from those, so the
//! drain precedes `wait`'s poison panic. Parked waiters thus observe
//! faults promptly instead of at their next (never-coming) wakeup. Poison
//! wakes everyone.
//!
//! Collected wakers are invoked **after** the probe lock is released: in
//! the checker's shadow domain a wake is itself a scheduling point, and no
//! schedule may interleave inside the lock.
//!
//! The frontend's counters follow the same rule as the barrier's own
//! statistics (see [`crate::stats`]): nothing on the poll path bumps a
//! shared word. `parked` / `drains` / `wakes` are plain fields of the
//! registry, written only with the lock held; `polls` / `yields` /
//! `resumed` are counted in the future and folded into its participant's
//! own padded cell when it resolves or drops;
//! [`AsyncBarrier::async_stats`] adds them up.
//!
//! # Lost-wakeup freedom
//!
//! The proof is the re-read under the lock. Sentence by sentence, with the
//! `fuzzy-check` mutant that breaks each:
//!
//! 1. *A waiter decides to park and registers in one critical section of
//!    the probe lock, from a release word (or probe) read inside that
//!    section.* The lock-free read may only ever say `Ready` — it
//!    registers nothing, so it can strand nothing. (`MutantUnlockedPark`
//!    parks on the strength of the lock-free read: the completer arrives
//!    and drains an empty registry between that read and the
//!    registration.)
//! 2. *Every arrival that may have completed an episode drains, in a
//!    critical section entered after its backend call returned.* The
//!    skipped arrivals are exactly those that read `k <= e`, and the
//!    completer of `e` reads `k > e`. (`MutantCompleterSkipsDrain` skips
//!    on `k <= e + 1`; `MutantNoDrain` never drains.) That a word above
//!    `e` means *released* is the trait's contract (`MutantEarlyEpoch`).
//! 3. Two critical sections are ordered. If the waiter's runs first, the
//!    completer's drain finds the registered entry — on the sweep path by
//!    probing it complete; on the watermark path because registering
//!    lowered `oldest` to at most the waiter's episode `e` and the
//!    completer reads `k > e`, so `oldest < k` and the entry is removed
//!    and woken. If the completer's runs first, the waiter's re-read of
//!    the release word (or its own probe) happens-after the completing
//!    arrival (lock release/acquire ordering) and observes completion
//!    directly.
//! 4. A stale entry (above) describes a waiter that needs no wake: its
//!    future resolved. It sits below the release word, where the
//!    watermark keeps pointing, so the next drain removes it; and an id
//!    has one slot, so a registration that did find it would overwrite
//!    episode and waker there — the registry never describes anyone but
//!    the id's latest waiter.
//! 5. *A yield is `Pending` with its own wake already delivered.* It
//!    decides nothing from the lock-free read but to be polled again, and
//!    the executor owes a task woken during its poll another poll, so —
//!    like `Ready` — it can strand nothing; the poll after it is an
//!    ordinary parking poll. (`MutantYieldWithoutWake` returns `Pending`
//!    without the wake: nobody has its waker, and it sleeps through the
//!    completion.)
//!
//! The watermark is only ever a *lower* bound — raised solely by the scan
//! that recomputes it exactly — so it can cost a wasted scan, never a
//! skipped one. On cooperative backends, participants that arrived but
//! have not yet polled are why every poll sweeps: they will probe — and
//! help-drive — on their first poll.

use crate::error::BarrierError;
use crate::failure::Deadline;
use crate::fuzzy::SplitBarrier;
use crate::stats::{self, AsyncSnapshot, StatsSnapshot, TelemetrySnapshot};
use crate::sync::{Lock, RealSync, SyncOps};
use crate::token::{ArrivalToken, WaitOutcome};
use fuzzy_util::CachePadded;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::task::{Context, Poll, Waker};
use std::time::Instant;

/// A parked async waiter: which arrival it waits on and how to resume it.
struct Parked {
    id: usize,
    episode: u64,
    waker: Waker,
}

/// [`Registry::slot_of`] value of a participant that is not parked.
const NOT_PARKED: usize = usize::MAX;

/// The parked waiters, indexed by participant id.
struct Registry {
    /// Parked waiters, dense and unordered.
    parked: Vec<Parked>,
    /// Each participant's position in `parked`, or [`NOT_PARKED`]. One
    /// slot per id suffices: a participant has at most one arrival in
    /// flight, so a second registration for an id replaces the first.
    slot_of: Vec<usize>,
    /// Lower bound on the oldest parked episode; `u64::MAX` when nothing
    /// is parked. See the module docs for why a lower bound is enough.
    oldest: u64,
    /// The `parked` / `drains` / `wakes` counts. Plain words: like the
    /// rest of the registry they are only written with the probe lock
    /// held.
    counts: AsyncSnapshot,
}

impl Registry {
    fn new(participants: usize) -> Self {
        Registry {
            parked: Vec::new(),
            slot_of: vec![NOT_PARKED; participants],
            oldest: u64::MAX,
            counts: AsyncSnapshot::default(),
        }
    }

    /// Registers a parked waiter, or refreshes the waker of the one
    /// already there. Returns true if the waiter was newly parked: its id
    /// had no entry, or a stale one left by an older episode's future that
    /// resolved without the lock.
    fn register(&mut self, id: usize, episode: u64, waker: &Waker) -> bool {
        if id >= self.slot_of.len() {
            self.slot_of.resize(id + 1, NOT_PARKED);
        }
        self.oldest = self.oldest.min(episode);
        match self.slot_of[id] {
            NOT_PARKED => {
                self.slot_of[id] = self.parked.len();
                self.parked.push(Parked {
                    id,
                    episode,
                    waker: waker.clone(),
                });
                true
            }
            slot => {
                let entry = &mut self.parked[slot];
                let stale = entry.episode < episode;
                entry.episode = episode;
                entry.waker.clone_from(waker);
                stale
            }
        }
    }

    /// Removes the waiter's entry, if it is (still) parked.
    fn deregister(&mut self, id: usize, episode: u64) {
        match self.slot_of.get(id) {
            Some(&slot) if slot != NOT_PARKED && self.parked[slot].episode == episode => {
                drop(self.remove_at(slot));
            }
            _ => {}
        }
    }

    /// Removes the entry at `slot` and returns its waker. The last entry
    /// takes its place.
    fn remove_at(&mut self, slot: usize) -> Waker {
        let entry = self.parked.swap_remove(slot);
        self.slot_of[entry.id] = NOT_PARKED;
        if let Some(moved) = self.parked.get(slot) {
            self.slot_of[moved.id] = slot;
        }
        if self.parked.is_empty() {
            self.oldest = u64::MAX;
        }
        entry.waker
    }

    /// Removes every entry parked for an episode below `k` into `woken`
    /// and recomputes the watermark. Walks from the back, so releasing
    /// everything moves nothing.
    fn release_below(&mut self, k: u64, woken: &mut Vec<Waker>) {
        woken.reserve(self.parked.len());
        let mut oldest = u64::MAX;
        let mut slot = self.parked.len();
        while slot > 0 {
            slot -= 1;
            let episode = self.parked[slot].episode;
            if episode < k {
                woken.push(self.remove_at(slot));
            } else {
                oldest = oldest.min(episode);
            }
        }
        self.oldest = oldest;
    }

    /// Removes every entry into `woken` (poison releases everyone).
    fn release_all(&mut self, woken: &mut Vec<Waker>) {
        woken.reserve(self.parked.len());
        for entry in self.parked.drain(..) {
            self.slot_of[entry.id] = NOT_PARKED;
            woken.push(entry.waker);
        }
        self.oldest = u64::MAX;
    }
}

/// The `polls` / `yields` / `resumed` counts of one participant's
/// futures, folded in by each future when it resolves or drops.
#[derive(Debug, Default)]
struct FutureCounts {
    polls: AtomicU64,
    yields: AtomicU64,
    resumed: AtomicU64,
}

/// An async frontend over any [`SplitBarrier`] backend.
///
/// Wraps a backend and adds [`AsyncBarrier::arrive_async`], which returns
/// a [`BarrierFuture`] completing when the episode releases — without the
/// future's task spinning or blocking a thread. The wrapper still
/// implements [`SplitBarrier`] itself, so sync and async participants can
/// share one barrier (each participant id must stick to one style within
/// an episode).
///
/// Generic over the [`SyncOps`] domain (`RealSync` in production) so the
/// `fuzzy-check` model checker can explore the waker handoff itself.
///
/// # Examples
///
/// A [`BarrierFuture`] borrows its barrier, which may live on the stack:
///
/// ```
/// use fuzzy_barrier::{AsyncBarrier, CentralBarrier};
/// use std::future::Future;
/// use std::pin::Pin;
/// use std::task::{Context, Poll, Waker};
///
/// let barrier = AsyncBarrier::new(CentralBarrier::new(2));
/// let mut cx = Context::from_waker(Waker::noop());
/// let mut first = barrier.arrive_async(0);
/// // Participant 1 has not arrived: the first future yields, then parks.
/// assert!(Pin::new(&mut first).poll(&mut cx).is_pending());
/// assert!(Pin::new(&mut first).poll(&mut cx).is_pending());
/// let mut last = barrier.arrive_async(1);
/// for future in [&mut first, &mut last] {
///     match Pin::new(future).poll(&mut cx) {
///         Poll::Ready(Ok(outcome)) => assert_eq!(outcome.episode, 0),
///         other => panic!("expected Ready(Ok(_)), got {other:?}"),
///     }
/// }
/// ```
pub struct AsyncBarrier<B: SplitBarrier, S: SyncOps = RealSync> {
    inner: B,
    /// The parked waiters under the probe lock: the `S` domain's lock, so
    /// a checker vthread blocked on it is descheduled, never hidden.
    registry: S::Mutex<Registry>,
    /// Upper bound on help-driving enablement chain length on cooperative
    /// backends; see module docs. 0 means a single no-progress sweep ends
    /// the drain.
    help_rounds: usize,
    /// One padded cell per participant, under the single-writer rule of
    /// [`crate::stats::BarrierStats`]: a cell is written by the thread
    /// driving that participant's future, with a plain load and store.
    future_counts: Box<[CachePadded<FutureCounts>]>,
    /// The read-modify-write fallback for ids beyond the cells.
    stray_counts: FutureCounts,
}

impl<B: SplitBarrier> AsyncBarrier<B> {
    /// Wraps `inner` for production use ([`RealSync`]).
    #[must_use]
    pub fn new(inner: B) -> Self {
        Self::new_in(inner)
    }
}

impl<B: SplitBarrier, S: SyncOps> AsyncBarrier<B, S> {
    /// Wraps `inner` in an explicit [`SyncOps`] domain (the checker's
    /// instrumented domain, or [`RealSync`]).
    #[must_use]
    pub fn new_in(inner: B) -> Self {
        let n = inner.participants().max(1);
        // An upper bound on the round count of any stock cooperative
        // backend.
        let help_rounds = crate::dissemination::rounds(n) as usize;
        AsyncBarrier {
            inner,
            registry: Lock::new(Registry::new(n)),
            help_rounds,
            future_counts: (0..n).map(|_| CachePadded::default()).collect(),
            stray_counts: FutureCounts::default(),
        }
    }

    /// Overrides the cooperative drain's no-progress sweep budget. Use 0
    /// for a backend whose `is_complete` is a pure read — one sweep that
    /// removes nobody is already a fixpoint there. Backends with a
    /// [`SplitBarrier::release_epoch`] never sweep, whatever this says.
    #[must_use]
    pub fn with_help_rounds(mut self, rounds: usize) -> Self {
        self.help_rounds = rounds;
        self
    }

    /// Borrows the wrapped backend.
    #[must_use]
    pub fn backend(&self) -> &B {
        &self.inner
    }

    /// Snapshot of the async-frontend counters (parks, resumes, drains,
    /// wakes, polls, yields): the registry's counts, read under the probe
    /// lock, plus the per-participant cells. `polls`, `yields` and
    /// `resumed` cover the futures that have resolved or dropped; one
    /// still in flight adds its share when it does.
    #[must_use]
    pub fn async_stats(&self) -> AsyncSnapshot {
        let mut total = self.registry.acquire().counts;
        let cells = self.future_counts.iter().map(|cell| &**cell);
        for counts in cells.chain([&self.stray_counts]) {
            total.polls += counts.polls.load(Ordering::Relaxed);
            total.yields += counts.yields.load(Ordering::Relaxed);
            total.resumed += counts.resumed.load(Ordering::Relaxed);
        }
        total
    }

    /// Folds a finished (resolved or dropped) future's counts into its
    /// participant's cell.
    fn record_future(&self, id: usize, polls: u64, yielded: bool, resumed: bool) {
        let (counts, sole_writer) = match self.future_counts.get(id) {
            Some(cell) => (&**cell, true),
            None => (&self.stray_counts, false),
        };
        stats::add(&counts.polls, polls, sole_writer);
        stats::add(&counts.yields, u64::from(yielded), sole_writer);
        stats::add(&counts.resumed, u64::from(resumed), sole_writer);
    }

    /// Arrives *and* returns a future that completes when this episode
    /// releases — the async form of `arrive` + `wait`. The arrival happens
    /// eagerly, here, not on first poll: peers may already be released by
    /// it while the caller's region work runs.
    ///
    /// The future **must be polled to completion** (the async analogue of
    /// the protocol's every-arrival-waits rule); dropping it mid-episode
    /// counts as an abort and poisons the barrier so peers are not left
    /// hanging on a cancelled participant.
    pub fn arrive_async(&self, id: usize) -> BarrierFuture<'_, B, S> {
        let token = SplitBarrier::arrive(self, id);
        let episode = token.episode();
        drop(token);
        BarrierFuture {
            barrier: self,
            id,
            episode,
            yielded: false,
            parked: false,
            polls: 0,
            first_pending: None,
            done: false,
        }
    }

    /// Removes every released (or fault-released) waiter from `registry`
    /// and decides the caller's own token, when given. Must be called with
    /// the probe lock held. Returns the wakers of the removed waiters, to
    /// be invoked *after* the lock is dropped, and whether `own` completed.
    ///
    /// The release word is read here, under the lock: this read — not the
    /// lock-free one a poll starts with — is the one a waiter may park on.
    fn drain_locked(
        &self,
        registry: &mut Registry,
        own: Option<&ArrivalToken>,
    ) -> (Vec<Waker>, bool) {
        registry.counts.drains += 1;
        let mut woken = Vec::new();
        let own_done = match self.inner.release_epoch() {
            None => self.sweep_locked(registry, own, &mut woken),
            Some(released) => {
                if !registry.parked.is_empty() && self.inner.is_poisoned() {
                    registry.release_all(&mut woken);
                } else if registry.oldest < released {
                    registry.release_below(released, &mut woken);
                }
                own.is_some_and(|token| token.episode < released)
            }
        };
        registry.counts.wakes += woken.len() as u64;
        (woken, own_done)
    }

    /// The cooperative-backend drain: probes every parked waiter — plus
    /// the caller's own token — to a fixpoint, since each probe may
    /// help-drive rounds that enable another waiter.
    fn sweep_locked(
        &self,
        registry: &mut Registry,
        own: Option<&ArrivalToken>,
        woken: &mut Vec<Waker>,
    ) -> bool {
        let mut own_done = false;
        let mut stale = 0usize;
        loop {
            let mut progressed = false;
            let poisoned = self.inner.is_poisoned();
            if let Some(token) = own {
                if !own_done && self.inner.is_complete(token) {
                    own_done = true;
                    progressed = true;
                }
            }
            let mut i = 0;
            while i < registry.parked.len() {
                let done = poisoned || {
                    let entry = &registry.parked[i];
                    let probe = ArrivalToken::new(entry.id, entry.episode);
                    self.inner.is_complete(&probe)
                };
                if done {
                    woken.push(registry.remove_at(i));
                    progressed = true;
                } else {
                    i += 1;
                }
            }
            if progressed {
                stale = 0;
            } else {
                stale += 1;
                if stale > self.help_rounds {
                    break;
                }
            }
        }
        own_done
    }

    /// Drain + wake, used by the completion-producing [`SplitBarrier`]
    /// hooks (arrive, every wait return, poison, evict).
    fn drain_and_wake(&self) {
        let mut registry = self.registry.acquire();
        let (wakers, _) = self.drain_locked(&mut registry, None);
        drop(registry);
        wake_all(wakers);
    }
}

/// Invokes drained wakers; call with the probe lock released.
fn wake_all(wakers: Vec<Waker>) {
    for waker in wakers {
        waker.wake();
    }
}

impl<B: SplitBarrier, S: SyncOps> fmt::Debug for AsyncBarrier<B, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AsyncBarrier")
            .field("participants", &self.inner.participants())
            .field("help_rounds", &self.help_rounds)
            .finish_non_exhaustive()
    }
}

/// Every [`SplitBarrier`] completion-producing path drains the parked
/// waiters, so sync and async participants can share one
/// [`AsyncBarrier`].
impl<B: SplitBarrier, S: SyncOps> SplitBarrier for AsyncBarrier<B, S> {
    fn arrive(&self, id: usize) -> ArrivalToken {
        let token = self.inner.arrive(id);
        // A release word still at or below this arrival's episode says it
        // completed nothing: the arrival that does complete the episode
        // reads a higher word and drains (module docs). Poison is the one
        // other thing a parked waiter may be owed by an arrival.
        let left_open = matches!(self.inner.release_epoch(), Some(k) if k <= token.episode);
        if !left_open || self.inner.is_poisoned() {
            self.drain_and_wake();
        }
        token
    }

    fn is_complete(&self, token: &ArrivalToken) -> bool {
        self.inner.is_complete(token)
    }

    fn wait_deadline(
        &self,
        token: ArrivalToken,
        deadline: Deadline,
    ) -> Result<WaitOutcome, BarrierError> {
        let result = self.inner.wait_deadline(token, deadline);
        // Drain on *every* return. On cooperative backends a blocking wait
        // performs rounds (flag stores) that may have enabled a parked
        // async waiter whose last drain ran before those stores landed —
        // even when it then timed out. And a fault raised below this
        // frontend (`backend().poison()`, a network peer's death) has run
        // no hook of ours: the derived `wait` panics on it only after
        // this drain has woken the parked futures.
        self.drain_and_wake();
        result
    }

    fn poison(&self) {
        self.inner.poison();
        self.drain_and_wake();
    }

    fn clear_poison(&self) {
        self.inner.clear_poison();
    }

    fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }

    fn evict(&self, id: usize) -> Result<(), BarrierError> {
        let result = self.inner.evict(id);
        if result.is_ok() {
            // The stand-in arrival may have completed the episode.
            self.drain_and_wake();
        }
        result
    }

    /// An admission applies at a completion, which drains.
    fn admit(&self, id: usize) -> Result<(), BarrierError> {
        self.inner.admit(id)
    }

    fn is_member(&self, id: usize) -> bool {
        self.inner.is_member(id)
    }

    fn participants(&self) -> usize {
        self.inner.participants()
    }

    fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        self.inner.telemetry()
    }
}

/// A future resolving when the episode the participant arrived for
/// releases (or the barrier is poisoned first).
///
/// Created by [`AsyncBarrier::arrive_async`]; the arrival already counted
/// when this future exists. Resolves to `Ok(WaitOutcome)` on release and
/// `Err(BarrierError::Poisoned)` on poisoning (completion wins when both
/// hold). Dropping an unresolved future poisons the barrier — the async
/// form of [`SplitBarrier::abort`].
///
/// On a backend with a [`SplitBarrier::release_epoch`], the first poll
/// that finds the episode open **yields** instead of parking: it wakes
/// the task's waker and returns `Pending`, so the executor polls it again
/// soon. Only a later pending poll registers the waker.
///
/// The outcome's `stalled`, `descheduled` and `probes` are exact on every
/// episode. Its `stall_time` — first `Pending` poll to resolution — is
/// **sampled**: the future reads the clock only on the episodes whose
/// arrival spread is sampled too (the last of every
/// [`crate::stats::SPREAD_SAMPLE_PERIOD`]) and reports zero on the
/// others, the way a blocking wait arms no clock before its stall costs a
/// context switch: the two clock reads cost about what a whole poll does.
#[must_use = "an async arrival must be polled to completion"]
pub struct BarrierFuture<'a, B: SplitBarrier, S: SyncOps = RealSync> {
    barrier: &'a AsyncBarrier<B, S>,
    id: usize,
    episode: u64,
    /// True once a pending poll has yielded instead of parking; only the
    /// polls after it may take the probe lock (release-word backends).
    yielded: bool,
    /// True once a waker has been registered (we parked at least once).
    parked: bool,
    /// This future's polls so far.
    polls: u64,
    /// When the first pending poll happened, on a sampled episode; the
    /// async stall clock.
    first_pending: Option<Instant>,
    done: bool,
}

impl<B: SplitBarrier, S: SyncOps> BarrierFuture<'_, B, S> {
    /// The participant id this future waits for.
    #[must_use]
    pub fn participant(&self) -> usize {
        self.id
    }

    /// The episode this future waits on.
    #[must_use]
    pub fn episode(&self) -> u64 {
        self.episode
    }
}

impl<B: SplitBarrier, S: SyncOps> fmt::Debug for BarrierFuture<'_, B, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BarrierFuture")
            .field("id", &self.id)
            .field("episode", &self.episode)
            .field("yielded", &self.yielded)
            .field("parked", &self.parked)
            .field("done", &self.done)
            .finish()
    }
}

impl<B: SplitBarrier, S: SyncOps> Future for BarrierFuture<'_, B, S> {
    type Output = Result<WaitOutcome, BarrierError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // All fields are Unpin (a reference + plain data), so the future is too.
        let this = Pin::into_inner(self);
        assert!(!this.done, "BarrierFuture polled after completion");
        this.polls += 1;

        // Lock-free first: a release word above our episode is final (the
        // word is monotone), and resolving needs nothing from the
        // registry. Only this read's *other* answer is provisional.
        let released = this.barrier.inner.release_epoch();
        let resolved = if released.is_some_and(|k| this.episode < k) {
            Some(Ok(()))
        } else if released.is_some() && !this.yielded {
            // Spin before you park: the first pending poll asks to be
            // polled again instead of registering. Waking ourselves first
            // is what makes this `Pending` safe without the lock.
            this.yielded = true;
            cx.waker().wake_by_ref();
            None
        } else {
            let own = ArrivalToken::new(this.id, this.episode);
            let mut registry = this.barrier.registry.acquire();
            // Re-reads the release word under the lock.
            let (wakers, own_done) = this.barrier.drain_locked(&mut registry, Some(&own));
            let resolved = if own_done {
                // The drain may have collected our own entry already;
                // deregistering again is a harmless no-op.
                registry.deregister(this.id, this.episode);
                Some(Ok(()))
            } else if this.barrier.inner.is_poisoned() {
                registry.deregister(this.id, this.episode);
                Some(Err(BarrierError::Poisoned {
                    episode: this.episode,
                }))
            } else {
                if registry.register(this.id, this.episode, cx.waker()) {
                    registry.counts.parked += 1;
                    this.parked = true;
                }
                None
            };
            drop(registry);
            // Cascaded completions are woken outside the lock: in the
            // checker domain a wake is itself a scheduling point.
            wake_all(wakers);
            resolved
        };

        let Some(resolved) = resolved else {
            if this.first_pending.is_none() && stats::is_sampled(this.episode) {
                this.first_pending = Some(Instant::now());
            }
            return Poll::Pending;
        };
        this.done = true;
        this.barrier
            .record_future(this.id, this.polls, this.yielded, this.parked);
        Poll::Ready(resolved.map(|()| WaitOutcome {
            episode: this.episode,
            stalled: this.polls > 1,
            descheduled: this.parked,
            probes: this.polls,
            stall_time: this.first_pending.map(|t| t.elapsed()).unwrap_or_default(),
        }))
    }
}

impl<B: SplitBarrier, S: SyncOps> Drop for BarrierFuture<'_, B, S> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        self.barrier
            .record_future(self.id, self.polls, self.yielded, false);
        self.probe_and_deregister();
    }
}

impl<B: SplitBarrier, S: SyncOps> BarrierFuture<'_, B, S> {
    /// Drop path: deregister, and poison if the episode had not completed
    /// — an arrival that will never be waited on would otherwise hang its
    /// peers on the next episode (mirrors [`SplitBarrier::abort`]).
    fn probe_and_deregister(&self) {
        let own = ArrivalToken::new(self.id, self.episode);
        let mut registry = self.barrier.registry.acquire();
        registry.deregister(self.id, self.episode);
        let complete = self.barrier.inner.is_complete(&own);
        drop(registry);
        if !complete {
            SplitBarrier::poison(self.barrier);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::CentralBarrier;
    use crate::counting::CountingBarrier;
    use crate::dissemination::DisseminationBarrier;
    use crate::hier::HierBarrier;
    use crate::tree::TreeBarrier;
    use std::sync::Arc;
    use std::task::Wake;

    fn poll_with<B: SplitBarrier, S: SyncOps>(
        fut: &mut BarrierFuture<'_, B, S>,
        waker: &Waker,
    ) -> Poll<Result<WaitOutcome, BarrierError>> {
        Pin::new(fut).poll(&mut Context::from_waker(waker))
    }

    fn poll_once<B: SplitBarrier, S: SyncOps>(
        fut: &mut BarrierFuture<'_, B, S>,
    ) -> Poll<Result<WaitOutcome, BarrierError>> {
        poll_with(fut, Waker::noop())
    }

    /// A waker that counts its invocations.
    #[derive(Default)]
    struct Woken(AtomicU64);

    impl Wake for Woken {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    impl Woken {
        fn new() -> (Arc<Woken>, Waker) {
            let woken = Arc::new(Woken::default());
            let waker = Waker::from(Arc::clone(&woken));
            (woken, waker)
        }

        fn count(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }
    }

    /// The `(id, episode)` of every registry entry, in slot order.
    fn entries<B: SplitBarrier>(b: &AsyncBarrier<B>) -> Vec<(usize, u64)> {
        let registry = b.registry.lock().unwrap();
        registry.parked.iter().map(|p| (p.id, p.episode)).collect()
    }

    /// Polls a release-word future whose episode is still open for the
    /// first time and asserts that the poll yields: `Pending`, its waker
    /// woken once, and the registry, `drains` and `parked` untouched. The
    /// caller's next poll is then the one that may park.
    fn assert_yields<B: SplitBarrier>(fut: &mut BarrierFuture<'_, B>) {
        let b = fut.barrier;
        let (before, registered) = (b.async_stats(), entries(b));
        let (woken, waker) = Woken::new();
        assert!(poll_with(fut, &waker).is_pending());
        assert_eq!(woken.count(), 1, "a yield wakes its own waker");
        assert_eq!(entries(b), registered, "a yield registers nothing");
        let after = b.async_stats();
        assert_eq!((after.drains, after.parked), (before.drains, before.parked));
    }

    /// Forwards to `B`, counting the completion probes the frontend makes:
    /// `is_complete` and `release_epoch` calls.
    struct Probed<B> {
        inner: B,
        probes: AtomicU64,
    }

    impl<B: SplitBarrier> Probed<B> {
        fn new(inner: B) -> Self {
            Probed {
                inner,
                probes: AtomicU64::new(0),
            }
        }
    }

    impl<B: SplitBarrier> SplitBarrier for Probed<B> {
        fn arrive(&self, id: usize) -> ArrivalToken {
            self.inner.arrive(id)
        }

        fn is_complete(&self, token: &ArrivalToken) -> bool {
            self.probes.fetch_add(1, Ordering::Relaxed);
            self.inner.is_complete(token)
        }

        fn release_epoch(&self) -> Option<u64> {
            self.probes.fetch_add(1, Ordering::Relaxed);
            self.inner.release_epoch()
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
    }

    /// Drives one full episode of `m` futures through the frontend — each
    /// arrives and is polled until it parks (on a release-word backend all
    /// but the last yield first, then park), then every parked future is
    /// polled until it resolves — and returns the backend probes spent per
    /// task and the frontend's counters.
    fn drive_episode<B: SplitBarrier>(backend: B, m: usize) -> (f64, AsyncSnapshot) {
        let yields = backend.release_epoch().is_some();
        let b = Arc::new(AsyncBarrier::new(Probed::new(backend)));
        let mut parked = Vec::new();
        for id in 0..m {
            let mut fut = b.arrive_async(id);
            if yields && id + 1 < m {
                assert_yields(&mut fut);
            }
            match poll_once(&mut fut) {
                Poll::Pending => parked.push(fut),
                Poll::Ready(result) => assert_eq!(result.expect("no faults").episode, 0),
            }
        }
        // A cooperative backend may need a few passes of polls to walk its
        // rounds; a uniform-release backend resolves everyone in one.
        for _ in 0..=m {
            parked.retain_mut(|fut| match poll_once(fut) {
                Poll::Pending => true,
                Poll::Ready(result) => {
                    assert_eq!(result.expect("no faults").episode, 0);
                    false
                }
            });
        }
        assert!(
            parked.is_empty(),
            "{} of {m} waiters stranded",
            parked.len()
        );
        let stats = b.async_stats();
        assert_eq!(stats.parked, stats.resumed);
        assert!(b.registry.lock().unwrap().parked.is_empty());
        let probes = b.backend().probes.load(Ordering::Relaxed);
        (probes as f64 / m as f64, stats)
    }

    #[test]
    fn uniform_release_backends_lock_once_per_park_and_once_per_episode() {
        // Backend probes per task: arrive, the yielding poll and the
        // resolving poll read the release word once, the parking poll
        // twice (lock-free, then under the lock) — whatever the number of
        // parked peers. Probe-lock acquisitions per episode: the M - 1
        // parking polls and the completer's arrive. No other arrive, no
        // yield and no resolving poll locks.
        for m in [64, 1024] {
            let backends: [(&str, Arc<dyn SplitBarrier>); 4] = [
                ("central", Arc::new(CentralBarrier::new(m))),
                ("counting", Arc::new(CountingBarrier::new(m))),
                ("tree", Arc::new(TreeBarrier::new(m))),
                ("hier", Arc::new(HierBarrier::new(m))),
            ];
            for (name, backend) in backends {
                let (per_task, stats) = drive_episode(backend, m);
                assert!(per_task <= 5.0, "{name} M={m}: {per_task} probes per task");
                assert_eq!(stats.drains, m as u64, "{name} M={m}: {stats:?}");
                assert_eq!(stats.parked, m as u64 - 1, "{name} M={m}");
                assert_eq!(stats.yields, stats.parked, "{name} M={m}");
                assert_eq!(stats.wakes, stats.parked, "{name} M={m}");
                assert_eq!(stats.polls, 3 * m as u64 - 2, "{name} M={m}");
            }
        }
    }

    #[test]
    fn cooperative_backends_still_sweep_on_every_arrive_and_poll() {
        // No `release_epoch`: polls alone walk every participant's rounds
        // (the harness asserts nobody is stranded), so every arrive and
        // every poll takes the lock and drains. No poll yields: a poll
        // here drives rounds.
        let m = 64;
        let (_, stats) = drive_episode(DisseminationBarrier::new(m), m);
        assert_eq!(stats.drains, m as u64 + stats.polls, "{stats:?}");
        assert_eq!(stats.yields, 0, "{stats:?}");
    }

    #[test]
    fn stale_entry_of_a_lock_free_resolution_is_swept_by_the_next_drain() {
        let b = Arc::new(AsyncBarrier::new(CentralBarrier::new(2)));
        let (stale, stale_waker) = Woken::new();
        let mut fut = b.arrive_async(0);
        assert_yields(&mut fut);
        assert!(poll_with(&mut fut, &stale_waker).is_pending());
        // Episode 0 completes behind the frontend's back — the completer
        // between its backend arrival and the drain it owes, frozen there:
        // no hook runs. A spurious poll of the parked future resolves on
        // the lock-free path and leaves its entry where it was.
        drop(b.backend().arrive(1));
        match poll_with(&mut fut, &stale_waker) {
            Poll::Ready(Ok(outcome)) => assert!(outcome.descheduled && outcome.episode == 0),
            other => panic!("expected Ready(Ok(_)), got {other:?}"),
        }
        {
            let registry = b.registry.lock().unwrap();
            assert_eq!(registry.slot_of, [0, NOT_PARKED]);
            assert_eq!(registry.parked[0].episode, 0);
            assert_eq!(registry.counts.drains, 1, "the resolving poll took no lock");
        }
        assert_eq!(stale.count(), 0);
        // Episode 1 runs through the frontend. Participant 0 parks afresh
        // (the drain of its parking poll sweeps the stale entry out, waking
        // the stale waker: one spurious poll, no more) and is woken by
        // exactly episode 1's completing arrive.
        let (fresh, fresh_waker) = Woken::new();
        let mut fut = b.arrive_async(0);
        assert_yields(&mut fut);
        assert!(poll_with(&mut fut, &fresh_waker).is_pending());
        assert_eq!(b.registry.lock().unwrap().parked[0].episode, 1);
        assert_eq!((stale.count(), fresh.count()), (1, 0));
        let mut last = b.arrive_async(1);
        assert_eq!((stale.count(), fresh.count()), (1, 1));
        for fut in [&mut fut, &mut last] {
            match poll_once(fut) {
                Poll::Ready(Ok(outcome)) => {
                    assert_eq!(outcome.episode, 1);
                    assert_eq!(outcome.descheduled, outcome.probes > 1);
                }
                other => panic!("expected Ready(Ok(_)), got {other:?}"),
            }
        }
        let stats = b.async_stats();
        assert_eq!((stats.parked, stats.resumed), (2, 2), "{stats:?}");
        assert!(stale.count() <= 1);
        assert!(b.registry.lock().unwrap().parked.is_empty());
    }

    #[test]
    fn arrive_on_a_poisoned_barrier_takes_no_fast_path() {
        let m = 8;
        let b = Arc::new(AsyncBarrier::new(CentralBarrier::new(m + 2)));
        let wakers: Vec<_> = (0..m).map(|_| Woken::new()).collect();
        let mut futures: Vec<_> = (0..m).map(|id| b.arrive_async(id)).collect();
        for (fut, (_, waker)) in futures.iter_mut().zip(&wakers) {
            assert_yields(fut);
            assert!(poll_with(fut, waker).is_pending());
        }
        assert_eq!(b.async_stats().drains, m as u64, "no arrive has drained");
        // Poisoned inside the backend (a timed-out inner wait does this):
        // the frontend's poison hook never ran, nobody was woken.
        b.backend().poison();
        assert!(wakers.iter().all(|(woken, _)| woken.count() == 0));
        // The next arrival completes nothing, and still owes the wake.
        futures.push(b.arrive_async(m));
        assert!(wakers.iter().all(|(woken, _)| woken.count() == 1));
        assert!(b.registry.lock().unwrap().parked.is_empty());
        // The late arriver's first poll yields, poison or not.
        assert_yields(futures.last_mut().expect("just pushed"));
        for fut in &mut futures {
            assert!(matches!(
                poll_once(fut),
                Poll::Ready(Err(BarrierError::Poisoned { episode: 0 }))
            ));
        }
        let stats = b.async_stats();
        assert_eq!((stats.parked, stats.resumed), (m as u64, m as u64));
    }

    #[test]
    fn plain_wait_drains_before_it_panics_on_poison() {
        let b = Arc::new(AsyncBarrier::new(CentralBarrier::new(3)));
        let (woken, waker) = Woken::new();
        let mut parked = b.arrive_async(0);
        assert_yields(&mut parked);
        assert!(poll_with(&mut parked, &waker).is_pending());
        let token = SplitBarrier::arrive(b.as_ref(), 1);
        // A fault raised below the frontend runs none of its hooks.
        b.backend().poison();
        assert_eq!(woken.count(), 0);
        // The sync participant's unbounded wait is then the only call left
        // that can tell the parked future, and it unwinds.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.wait(token)));
        assert!(unwound.is_err(), "plain wait panics on poison");
        assert_eq!(woken.count(), 1, "the drain must precede the panic");
        assert!(b.registry.lock().unwrap().parked.is_empty());
        assert!(matches!(
            poll_once(&mut parked),
            Poll::Ready(Err(BarrierError::Poisoned { episode: 0 }))
        ));
    }

    #[test]
    fn stall_clock_runs_on_sampled_episodes_only() {
        // 1-in-64, the episodes whose arrival spread is stamped too; the
        // exact fields never depend on it.
        let period = stats::SPREAD_SAMPLE_PERIOD;
        let b = Arc::new(AsyncBarrier::new(CentralBarrier::new(2)));
        for episode in 0..2 * period {
            let mut fut = b.arrive_async(0);
            assert_yields(&mut fut);
            assert_eq!(fut.first_pending.is_some(), episode % period == period - 1);
            assert!(poll_once(&mut fut).is_pending());
            if fut.first_pending.is_some() {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let mut last = b.arrive_async(1);
            let (Poll::Ready(Ok(waited)), Poll::Ready(Ok(instant))) =
                (poll_once(&mut fut), poll_once(&mut last))
            else {
                panic!("episode {episode} did not release");
            };
            assert!(waited.stalled && waited.descheduled && waited.probes == 3);
            assert!(!instant.stalled && !instant.descheduled && instant.probes == 1);
            assert_eq!(
                waited.stall_time >= std::time::Duration::from_millis(1),
                stats::is_sampled(episode),
                "episode {episode}: {:?}",
                waited.stall_time
            );
            assert_eq!(instant.stall_time, std::time::Duration::ZERO);
        }
    }

    #[test]
    fn registry_index_tracks_moves_and_the_watermark_is_a_lower_bound() {
        let waker = Waker::noop();
        let mut r = Registry::new(4);
        assert_eq!(r.oldest, u64::MAX);
        assert!(r.register(0, 7, waker));
        assert!(r.register(1, 7, waker));
        assert!(r.register(2, 8, waker));
        assert!(
            !r.register(1, 7, waker),
            "a re-poll refreshes, not re-parks"
        );
        assert_eq!(r.oldest, 7);
        // Removing the first entry moves the last into its place.
        r.deregister(0, 7);
        assert_eq!(r.slot_of[..3], [NOT_PARKED, 1, 0]);
        r.deregister(2, 7); // wrong episode: somebody else's entry stays
        assert_eq!(r.parked.len(), 2);
        // Two live episodes: releasing below 8 takes 7's entry only.
        let mut woken = Vec::new();
        r.release_below(8, &mut woken);
        assert_eq!(woken.len(), 1);
        assert_eq!((r.parked.len(), r.oldest), (1, 8));
        assert_eq!(r.slot_of[..3], [NOT_PARKED, NOT_PARKED, 0]);
        // Taking over an older episode's stale entry is a park, in place.
        assert!(r.register(2, 9, waker));
        assert!(!r.register(2, 9, waker));
        assert_eq!((r.parked.len(), r.parked[0].episode, r.oldest), (1, 9, 8));
        // An id beyond the construction size grows the index.
        assert!(r.register(9, 8, waker));
        r.release_all(&mut woken);
        assert_eq!((woken.len(), r.parked.len(), r.oldest), (3, 0, u64::MAX));
        assert!(r.slot_of.iter().all(|&slot| slot == NOT_PARKED));
    }

    #[test]
    fn repoll_with_a_different_waker_refreshes_the_entry() {
        let b = Arc::new(AsyncBarrier::new(CentralBarrier::new(2)));
        let (first, first_waker) = Woken::new();
        let (second, second_waker) = Woken::new();
        let mut fut = b.arrive_async(0);
        assert_yields(&mut fut);
        assert!(poll_with(&mut fut, &first_waker).is_pending());
        assert!(poll_with(&mut fut, &second_waker).is_pending());
        assert_eq!(b.async_stats().parked, 1, "parked once, refreshed once");
        drop(SplitBarrier::arrive(b.as_ref(), 1));
        assert_eq!((first.count(), second.count()), (0, 1));
        assert!(poll_once(&mut fut).is_ready());
    }

    #[test]
    fn dropping_a_parked_future_deregisters_it() {
        let b = Arc::new(AsyncBarrier::new(CentralBarrier::new(3)));
        let (kept, kept_waker) = Woken::new();
        let (dropped, dropped_waker) = Woken::new();
        let mut doomed = b.arrive_async(0);
        let mut survivor = b.arrive_async(1);
        for fut in [&mut doomed, &mut survivor] {
            assert_yields(fut);
        }
        assert!(poll_with(&mut doomed, &dropped_waker).is_pending());
        assert!(poll_with(&mut survivor, &kept_waker).is_pending());
        drop(doomed);
        // The drop poisons (cancellation), which wakes the survivor — but
        // never the dropped future's own waker, whose entry was removed
        // first and whose registry reference is gone.
        assert_eq!((dropped.count(), kept.count()), (0, 1));
        assert_eq!(Arc::strong_count(&dropped), 2, "test + its Waker only");
        assert!(b.registry.lock().unwrap().parked.is_empty());
        assert!(matches!(
            poll_once(&mut survivor),
            Poll::Ready(Err(BarrierError::Poisoned { episode: 0 }))
        ));
    }

    #[test]
    fn fast_task_parks_for_the_next_episode_while_the_last_one_drains() {
        // The last arriver of episode 0 has advanced the backend's word
        // but not yet drained (it is between `inner.arrive` and the probe
        // lock); a fast participant is already waiting on episode 1. Its
        // poll releases episode 0's entries and parks itself — one entry
        // for episode 1 is left, and the watermark follows.
        let inner = Arc::new(CentralBarrier::new(3));
        let b = Arc::new(AsyncBarrier::new(Arc::clone(&inner)));
        let wakers: Vec<_> = (0..3).map(|_| Woken::new()).collect();
        let mut slow: Vec<_> = (0..2).map(|id| b.arrive_async(id)).collect();
        for (fut, (_, waker)) in slow.iter_mut().zip(&wakers) {
            assert_yields(fut);
            assert!(poll_with(fut, waker).is_pending());
        }
        drop(inner.arrive(2)); // completes episode 0 behind the frontend's back
        drop(inner.arrive(2)); // ... and is first to arrive for episode 1
        let mut fast = BarrierFuture {
            barrier: &b,
            id: 2,
            episode: 1,
            yielded: false,
            parked: false,
            polls: 0,
            first_pending: None,
            done: false,
        };
        assert_yields(&mut fast);
        assert!(poll_with(&mut fast, &wakers[2].1).is_pending());
        let counts: Vec<u64> = wakers.iter().map(|(woken, _)| woken.count()).collect();
        assert_eq!(counts, [1, 1, 0]);
        {
            let registry = b.registry.lock().unwrap();
            assert_eq!((registry.parked.len(), registry.oldest), (1, 1));
            assert_eq!(registry.slot_of, [NOT_PARKED, NOT_PARKED, 0]);
        }
        for fut in &mut slow {
            assert!(poll_once(fut).is_ready());
        }
        // Episode 1 completes through the frontend and wakes the fast task.
        let mut rest: Vec<_> = (0..2).map(|id| b.arrive_async(id)).collect();
        assert_eq!(wakers[2].0.count(), 1);
        for fut in rest.iter_mut().chain([&mut fast]) {
            match poll_once(fut) {
                Poll::Ready(Ok(outcome)) => assert_eq!(outcome.episode, 1),
                other => panic!("expected Ready(Ok(_)), got {other:?}"),
            }
        }
    }

    #[test]
    fn poison_wakes_every_parked_waiter() {
        let m = 16;
        let b = Arc::new(AsyncBarrier::new(CentralBarrier::new(m + 1)));
        let wakers: Vec<_> = (0..m).map(|_| Woken::new()).collect();
        let mut futures: Vec<_> = (0..m).map(|id| b.arrive_async(id)).collect();
        for (fut, (_, waker)) in futures.iter_mut().zip(&wakers) {
            assert_yields(fut);
            assert!(poll_with(fut, waker).is_pending());
        }
        SplitBarrier::poison(b.as_ref());
        assert!(wakers.iter().all(|(woken, _)| woken.count() == 1));
        assert!(b.registry.lock().unwrap().parked.is_empty());
        for fut in &mut futures {
            assert!(matches!(
                poll_once(fut),
                Poll::Ready(Err(BarrierError::Poisoned { episode: 0 }))
            ));
        }
    }

    #[test]
    fn first_pending_poll_yields_and_the_second_parks() {
        let b = AsyncBarrier::new(Probed::new(CentralBarrier::new(2)));
        let probes = || b.backend().probes.load(Ordering::Relaxed);
        let (woken, waker) = Woken::new();
        let mut fut = b.arrive_async(0);
        // The yield: one release-word load, its own waker woken, no lock,
        // no entry.
        let before = probes();
        assert!(poll_with(&mut fut, &waker).is_pending());
        assert_eq!((probes() - before, woken.count()), (1, 1));
        let stats = b.async_stats();
        assert_eq!((stats.drains, stats.parked), (0, 0));
        assert!(entries(&b).is_empty());
        // The second pending poll parks and does not wake itself; a third
        // refreshes the entry and does not yield again.
        for drains in [1, 2] {
            assert!(poll_with(&mut fut, &waker).is_pending());
            assert_eq!(woken.count(), 1);
            let stats = b.async_stats();
            assert_eq!((stats.drains, stats.parked), (drains, 1));
            assert_eq!(entries(&b), [(0, 0)]);
        }
        // The completer wakes it through the registry.
        drop(SplitBarrier::arrive(&b, 1));
        assert_eq!(woken.count(), 2);
        match poll_with(&mut fut, &waker) {
            Poll::Ready(Ok(outcome)) => {
                assert_eq!(outcome.episode, 0);
                assert!(outcome.stalled && outcome.descheduled);
                assert_eq!(outcome.probes, 4);
            }
            other => panic!("expected Ready(Ok(_)), got {other:?}"),
        }
        let stats = b.async_stats();
        assert_eq!((stats.polls, stats.yields, stats.resumed), (4, 1, 1));

        // A yield reads no poison word: on a barrier poisoned below the
        // frontend the first poll still yields, and the second, under the
        // lock, reports the fault.
        let b = AsyncBarrier::new(CentralBarrier::new(2));
        let mut fut = b.arrive_async(0);
        b.backend().poison();
        assert_yields(&mut fut);
        assert!(matches!(
            poll_once(&mut fut),
            Poll::Ready(Err(BarrierError::Poisoned { episode: 0 }))
        ));
        let stats = b.async_stats();
        assert_eq!((stats.polls, stats.yields, stats.parked), (2, 1, 0));
    }

    #[test]
    fn single_participant_completes_on_first_poll() {
        let b = Arc::new(AsyncBarrier::new(CentralBarrier::new(1)));
        for episode in 0..3 {
            let mut fut = b.arrive_async(0);
            match poll_once(&mut fut) {
                Poll::Ready(Ok(outcome)) => {
                    assert_eq!(outcome.episode, episode);
                    assert!(!outcome.stalled);
                    assert!(!outcome.descheduled);
                }
                other => panic!("expected Ready(Ok(_)), got {other:?}"),
            }
        }
        let stats = b.async_stats();
        assert_eq!((stats.parked, stats.yields, stats.polls), (0, 0, 3));
    }

    #[test]
    fn pending_until_last_arrival_then_woken() {
        // On the stack: the future borrows the barrier, no `Arc` needed.
        let b = AsyncBarrier::new(CentralBarrier::new(2));
        let (woken, waker) = Woken::new();
        let mut fut = b.arrive_async(0);
        assert_yields(&mut fut);
        assert!(poll_with(&mut fut, &waker).is_pending());
        assert_eq!(b.async_stats().parked, 1);
        // The last arrival drains the registry and hands out the waker.
        let token = SplitBarrier::arrive(&b, 1);
        assert_eq!((b.async_stats().wakes, woken.count()), (1, 1));
        match poll_once(&mut fut) {
            Poll::Ready(Ok(outcome)) => {
                assert_eq!(outcome.episode, 0);
                assert!(outcome.stalled);
                assert!(outcome.descheduled);
            }
            other => panic!("expected Ready(Ok(_)), got {other:?}"),
        }
        assert_eq!(b.async_stats().resumed, 1);
        let outcome = SplitBarrier::wait(&b, token);
        assert_eq!(outcome.episode, 0);
    }

    #[test]
    fn polls_help_drive_cooperative_backends() {
        // Dissemination: all arrivals happen before any poll; the polls
        // alone must drive every participant's rounds to completion.
        let n = 4;
        let b = Arc::new(AsyncBarrier::new(DisseminationBarrier::new(n)));
        let mut futures: Vec<_> = (0..n).map(|id| b.arrive_async(id)).collect();
        let mut resolved = vec![false; n];
        for _ in 0..n + 1 {
            for (id, fut) in futures.iter_mut().enumerate() {
                if resolved[id] {
                    continue;
                }
                if let Poll::Ready(result) = poll_once(fut) {
                    assert_eq!(result.expect("episode completes").episode, 0);
                    resolved[id] = true;
                }
            }
        }
        assert!(
            resolved.iter().all(|&r| r),
            "all waiters resolve: {resolved:?}"
        );
    }

    #[test]
    fn poison_releases_parked_waiters_with_err() {
        let b = Arc::new(AsyncBarrier::new(CentralBarrier::new(2)));
        let mut fut = b.arrive_async(0);
        assert_yields(&mut fut);
        assert!(poll_once(&mut fut).is_pending());
        SplitBarrier::poison(b.as_ref());
        assert_eq!(b.async_stats().wakes, 1, "poison drains the registry");
        match poll_once(&mut fut) {
            Poll::Ready(Err(BarrierError::Poisoned { episode })) => assert_eq!(episode, 0),
            other => panic!("expected Ready(Err(Poisoned)), got {other:?}"),
        }
    }

    #[test]
    fn dropping_unresolved_future_poisons() {
        let b = Arc::new(AsyncBarrier::new(CentralBarrier::new(2)));
        let fut = b.arrive_async(0);
        drop(fut);
        assert!(SplitBarrier::is_poisoned(b.as_ref()));
        // A resolved future's drop must NOT poison.
        let b = Arc::new(AsyncBarrier::new(CentralBarrier::new(1)));
        let mut fut = b.arrive_async(0);
        assert!(poll_once(&mut fut).is_ready());
        drop(fut);
        assert!(!SplitBarrier::is_poisoned(b.as_ref()));
        // Nor the drop of an unpolled future whose episode completed.
        let fut = b.arrive_async(0);
        drop(fut);
        assert!(!SplitBarrier::is_poisoned(b.as_ref()));
        // A future the lock-free read sent on to park poisons when dropped,
        // and its polls are not lost with it.
        let b = Arc::new(AsyncBarrier::new(CentralBarrier::new(2)));
        let mut fut = b.arrive_async(0);
        assert_yields(&mut fut);
        assert!(poll_once(&mut fut).is_pending());
        drop(fut);
        assert!(SplitBarrier::is_poisoned(b.as_ref()));
        let stats = b.async_stats();
        assert_eq!((stats.polls, stats.parked, stats.resumed), (2, 1, 0));
        assert_eq!(stats.yields, 1);
        assert!(b.registry.lock().unwrap().parked.is_empty());
    }

    #[test]
    fn mixed_sync_and_async_participants_agree() {
        let b = Arc::new(AsyncBarrier::new(CentralBarrier::new(3)));
        std::thread::scope(|s| {
            for id in 1..3 {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for episode in 0..50u64 {
                        let token = SplitBarrier::arrive(b.as_ref(), id);
                        let outcome = SplitBarrier::wait(b.as_ref(), token);
                        assert_eq!(outcome.episode, episode);
                    }
                });
            }
            for episode in 0..50u64 {
                let mut fut = b.arrive_async(0);
                loop {
                    if let Poll::Ready(result) = poll_once(&mut fut) {
                        assert_eq!(result.expect("no faults").episode, episode);
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        });
        assert_eq!(SplitBarrier::stats(b.as_ref()).episodes, 50);
    }
}

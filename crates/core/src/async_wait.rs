//! Poll-based (async) waiting on any [`SplitBarrier`] backend.
//!
//! The paper's fuzzy barrier lets a *processor* keep working inside the
//! barrier region instead of stalling. The software analogue at high
//! multiplexing is a **logical participant that parks without pinning an OS
//! thread**: [`AsyncBarrier::arrive_async`] returns a [`BarrierFuture`]
//! that parks a [`Waker`] against the episode instead of spinning, so
//! `M ≫ N` logical participants complete fuzzy episodes multiplexed over
//! `N` worker threads (see `fuzzy-sched`'s episode executor).
//!
//! # The waker protocol
//!
//! Where a task parks is the backend's property, read once at
//! construction from [`SplitBarrier::release_epoch`] (DESIGN.md §13).
//!
//! **Release-word backends** (central, counting, tree, hier) publish one
//! word `k`: every arrival for an episode below `k` is released, no other
//! is. Their futures park in the episode core, the one party that knows an
//! episode has released. A poll for episode `e` reads `k` lock-free, and
//! `e < k` is `Ready` (completion wins over poison). Otherwise the
//! future's first pending poll **yields** — wakes its own waker, returns
//! `Pending`, registers nothing and reads no poison word: spin before you
//! park, with a budget of one yield. A later pending poll parks —
//! [`SplitBarrier::register_waker`] with `(id, e, waker)` — then re-reads
//! `k` and the poison word and decides from that second read. The
//! completer that publishes `k` wakes what is parked below `k`, so an
//! arrive takes no lock and owes nobody a wake.
//!
//! **Cooperative backends** (dissemination, the network barrier) return
//! `None`: their [`SplitBarrier::is_complete`] help-drives the probed
//! participant's rounds, so a poll may be the last event in the system
//! and must push every parked waiter to a **fixpoint**. Their waiters park
//! in this frontend's sweep registry (`(id, episode, Waker)`, indexed by
//! participant id) under a **probe lock**, the [`SyncOps`] domain's
//! [`SyncOps::Mutex`]. Every arrive and every poll takes the lock and
//! sweeps every parked entry until `help_rounds + 1` consecutive sweeps
//! make no progress (`help_rounds` defaults to `ceil(log2(participants))`,
//! an upper bound on any backend's round count: an enablement chain
//! ascends one round per sweep). `poison`, a successful `evict` and every
//! `wait_deadline` return sweep too — and with them `abort` and plain
//! `wait`, which the trait derives from those, so the sweep precedes
//! `wait`'s poison panic. Collected wakers are invoked after the lock is
//! released: in the checker's shadow domain a wake is a scheduling point.
//!
//! Nothing on the poll path bumps a shared counter (see [`crate::stats`]):
//! `drains` / `wakes` are plain fields of the sweep registry, written with
//! the probe lock held; `polls` / `yields` / `parked` / `resumed` go to
//! the future's participant's own padded cell; [`AsyncBarrier::async_stats`]
//! adds them up.
//!
//! # Lost-wakeup freedom
//!
//! On a release-word backend it is the core's `SeqCst` pair: a waiter
//! stores the parked count, then re-reads the word and the poison; a
//! completer publishes, then loads the count. One of the two sees the
//! other. Each obligation has the `fuzzy-check` mutant that drops it:
//!
//! 1. *A waiter decides `Pending` only from a read made after its
//!    registration*; the lock-free read may only say `Ready`.
//!    (`MutantParkWithoutRecheck` parks on the lock-free read.)
//! 2. *A completer wakes what is parked below the release it has just
//!    published, after publishing it.* (`MutantNoWake` never wakes;
//!    `MutantWakeBeforePublish` looks first.) That a word above `e` means
//!    *released* is the trait's contract (`MutantEarlyEpoch`).
//! 3. *A yield is `Pending` with its own wake already delivered*, so like
//!    `Ready` it strands nothing. (`MutantYieldWithoutWake` omits the
//!    wake.)
//!
//! On a cooperative backend it is the probe lock: a waiter decides to park
//! and registers in one critical section, from a probe made inside it, and
//! every call that may have completed an episode sweeps in a later one.

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

/// A waiter parked on a cooperative backend: which arrival it waits on
/// and how to resume it.
struct Parked {
    id: usize,
    episode: u64,
    waker: Waker,
}

/// [`Registry::slot_of`] value of a participant that is not parked.
const NOT_PARKED: usize = usize::MAX;

/// A cooperative backend's parked waiters, indexed by participant id.
struct Registry {
    /// Parked waiters, dense and unordered.
    parked: Vec<Parked>,
    /// Each participant's position in `parked`, or [`NOT_PARKED`]. One
    /// slot per id suffices: a participant has at most one arrival in
    /// flight, so a second registration for an id replaces the first.
    slot_of: Vec<usize>,
    /// The `drains` / `wakes` counts. Plain words: like the rest of the
    /// registry they are only written with the probe lock held.
    counts: AsyncSnapshot,
}

impl Registry {
    fn new(participants: usize) -> Self {
        Registry {
            parked: Vec::new(),
            slot_of: vec![NOT_PARKED; participants],
            counts: AsyncSnapshot::default(),
        }
    }

    /// Registers a parked waiter, or refreshes the one already there.
    fn register(&mut self, id: usize, episode: u64, waker: &Waker) {
        if id >= self.slot_of.len() {
            self.slot_of.resize(id + 1, NOT_PARKED);
        }
        match self.slot_of[id] {
            NOT_PARKED => {
                self.slot_of[id] = self.parked.len();
                self.parked.push(Parked {
                    id,
                    episode,
                    waker: waker.clone(),
                });
            }
            slot => {
                let entry = &mut self.parked[slot];
                entry.episode = episode;
                entry.waker.clone_from(waker);
            }
        }
    }

    /// Removes `id`'s entry, if it is parked.
    fn deregister(&mut self, id: usize) {
        match self.slot_of.get(id) {
            Some(&slot) if slot != NOT_PARKED => drop(self.remove_at(slot)),
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
        entry.waker
    }
}

/// The `polls` / `yields` / `parked` / `resumed` counts of one
/// participant's futures.
#[derive(Debug, Default)]
struct FutureCounts {
    polls: AtomicU64,
    yields: AtomicU64,
    parked: AtomicU64,
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
    /// True if the backend has no release word: its waiters park in
    /// `registry` and every completion-producing call sweeps it.
    cooperative: bool,
    /// A cooperative backend's parked waiters under the probe lock: the
    /// `S` domain's lock, so a checker vthread blocked on it is
    /// descheduled, never hidden.
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
            cooperative: inner.release_epoch().is_none(),
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
    /// wakes, polls, yields): the sweep registry's counts, read under the
    /// probe lock, plus the per-participant cells. `polls`, `yields` and
    /// `resumed` cover the futures that have resolved or dropped; one
    /// still in flight adds its share when it does.
    #[must_use]
    pub fn async_stats(&self) -> AsyncSnapshot {
        let mut total = self.registry.acquire().counts;
        let cells = self.future_counts.iter().map(|cell| &**cell);
        for counts in cells.chain([&self.stray_counts]) {
            total.polls += counts.polls.load(Ordering::Relaxed);
            total.yields += counts.yields.load(Ordering::Relaxed);
            total.parked += counts.parked.load(Ordering::Relaxed);
            total.resumed += counts.resumed.load(Ordering::Relaxed);
        }
        total
    }

    /// Participant `id`'s cell, and whether its writer is the only one.
    fn counts(&self, id: usize) -> (&FutureCounts, bool) {
        match self.future_counts.get(id) {
            Some(cell) => (cell, true),
            None => (&self.stray_counts, false),
        }
    }

    /// Folds a finished (resolved or dropped) future's counts into its
    /// participant's cell.
    fn record_future(&self, id: usize, polls: u64, yielded: bool, resumed: bool) {
        let (counts, sole_writer) = self.counts(id);
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

    /// The cooperative drain: probes every parked waiter — plus the
    /// caller's own token, when given — to a fixpoint, since each probe may
    /// help-drive rounds that enable another waiter. Must be called with
    /// the probe lock held. Returns the wakers of the removed waiters, to
    /// be invoked *after* the lock is dropped, and whether `own` completed.
    fn drain_locked(
        &self,
        registry: &mut Registry,
        own: Option<&ArrivalToken>,
    ) -> (Vec<Waker>, bool) {
        registry.counts.drains += 1;
        let mut woken = Vec::new();
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
        registry.counts.wakes += woken.len() as u64;
        (woken, own_done)
    }

    /// Drain + wake on a cooperative backend, used by the
    /// completion-producing [`SplitBarrier`] hooks (arrive, every wait
    /// return, poison, evict). A release-word backend's completer wakes
    /// its own parked waiters.
    fn drain_and_wake(&self) {
        if !self.cooperative {
            return;
        }
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
            .field("cooperative", &self.cooperative)
            .field("help_rounds", &self.help_rounds)
            .finish_non_exhaustive()
    }
}

/// Every [`SplitBarrier`] completion-producing path wakes the parked
/// waiters — the core's completer on a release-word backend, this
/// frontend's drain on a cooperative one — so sync and async participants
/// can share one [`AsyncBarrier`].
impl<B: SplitBarrier, S: SyncOps> SplitBarrier for AsyncBarrier<B, S> {
    fn arrive(&self, id: usize) -> ArrivalToken {
        let token = self.inner.arrive(id);
        self.drain_and_wake();
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

    /// An admission applies at a completion, which wakes.
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
    /// polls after it may park (release-word backends).
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

    /// Counts this future's first park, when it happens.
    fn parked(&mut self) {
        if !self.parked {
            self.parked = true;
            let (counts, sole_writer) = self.barrier.counts(self.id);
            stats::add(&counts.parked, 1, sole_writer);
        }
    }

    /// A poll on a release-word backend, given the word's lock-free read.
    fn poll_release_word(
        &mut self,
        released: u64,
        cx: &Context<'_>,
    ) -> Option<Result<(), BarrierError>> {
        // A word above our episode is final (the word is monotone); only
        // this read's *other* answer is provisional.
        if self.episode < released {
            return Some(Ok(()));
        }
        if !self.yielded {
            // Spin before you park: the first pending poll asks to be
            // polled again instead of registering. Waking ourselves first
            // is what makes this `Pending` safe without a registration.
            self.yielded = true;
            cx.waker().wake_by_ref();
            return None;
        }
        let inner = &self.barrier.inner;
        if inner.register_waker(self.id, self.episode, cx.waker()) {
            self.parked();
        } else {
            // A release word but no parking place: poll again.
            cx.waker().wake_by_ref();
        }
        // Re-read: a release or poison published before the registration
        // woke nobody.
        if inner.release_epoch().is_some_and(|k| self.episode < k) {
            Some(Ok(()))
        } else if inner.is_poisoned() {
            Some(Err(BarrierError::Poisoned {
                episode: self.episode,
            }))
        } else {
            None
        }
    }

    /// A poll on a cooperative backend: sweep under the probe lock, then
    /// decide from the sweep's probe of our own token.
    fn poll_sweep(&mut self, cx: &Context<'_>) -> Option<Result<(), BarrierError>> {
        let barrier = self.barrier;
        let own = ArrivalToken::new(self.id, self.episode);
        let mut registry = barrier.registry.acquire();
        let (wakers, own_done) = barrier.drain_locked(&mut registry, Some(&own));
        let resolved = if own_done {
            // The drain may have collected our own entry already;
            // deregistering again is a harmless no-op.
            registry.deregister(self.id);
            Some(Ok(()))
        } else if barrier.inner.is_poisoned() {
            registry.deregister(self.id);
            Some(Err(BarrierError::Poisoned {
                episode: self.episode,
            }))
        } else {
            registry.register(self.id, self.episode, cx.waker());
            self.parked();
            None
        };
        drop(registry);
        // Cascaded completions are woken outside the lock: in the checker
        // domain a wake is itself a scheduling point.
        wake_all(wakers);
        resolved
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
        let resolved = match this.barrier.inner.release_epoch() {
            Some(released) => this.poll_release_word(released, cx),
            None => this.poll_sweep(cx),
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

/// Dropping an unresolved future withdraws its registration and poisons
/// the barrier if the episode had not completed — an arrival that will
/// never be waited on would otherwise hang its peers on the next episode
/// (mirrors [`SplitBarrier::abort`]).
impl<B: SplitBarrier, S: SyncOps> Drop for BarrierFuture<'_, B, S> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        let barrier = self.barrier;
        barrier.record_future(self.id, self.polls, self.yielded, false);
        let own = ArrivalToken::new(self.id, self.episode);
        let complete = if barrier.cooperative {
            let mut registry = barrier.registry.acquire();
            registry.deregister(self.id);
            barrier.inner.is_complete(&own)
        } else {
            if self.parked {
                // Replaces our entry: the poison below must not wake the
                // task that dropped us, nor keep its waker.
                barrier
                    .inner
                    .register_waker(self.id, self.episode, Waker::noop());
            }
            barrier.inner.is_complete(&own)
        };
        if !complete {
            SplitBarrier::poison(barrier);
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

    /// True if the frontend's sweep registry is empty.
    fn unregistered<B: SplitBarrier>(b: &AsyncBarrier<B>) -> bool {
        b.registry.lock().unwrap().parked.is_empty()
    }

    /// Polls a release-word future whose episode is still open for the
    /// first time and asserts that the poll yields: `Pending`, its waker
    /// woken once, and `drains` and `parked` untouched. The caller's next
    /// poll is then the one that may park.
    fn assert_yields<B: SplitBarrier>(fut: &mut BarrierFuture<'_, B>) {
        let b = fut.barrier;
        let before = b.async_stats();
        let (woken, waker) = Woken::new();
        assert!(poll_with(fut, &waker).is_pending());
        assert_eq!(woken.count(), 1, "a yield wakes its own waker");
        assert!(!fut.parked, "a yield registers nothing");
        let after = b.async_stats();
        assert_eq!((after.drains, after.parked), (before.drains, before.parked));
    }

    /// Forwards to `B`, counting the completion probes the frontend makes
    /// (`is_complete` and `release_epoch` calls) and its registrations.
    struct Probed<B> {
        inner: B,
        probes: AtomicU64,
        registrations: AtomicU64,
    }

    impl<B: SplitBarrier> Probed<B> {
        fn new(inner: B) -> Self {
            Probed {
                inner,
                probes: AtomicU64::new(0),
                registrations: AtomicU64::new(0),
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

        fn register_waker(&self, id: usize, episode: u64, waker: &Waker) -> bool {
            self.registrations.fetch_add(1, Ordering::Relaxed);
            self.inner.register_waker(id, episode, waker)
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
    /// task, the frontend's counters and how often each parked future's
    /// waker was woken.
    fn drive_episode<B: SplitBarrier>(backend: B, m: usize) -> (f64, AsyncSnapshot, Vec<u64>) {
        let yields = backend.release_epoch().is_some();
        let b = Arc::new(AsyncBarrier::new(Probed::new(backend)));
        let (mut parked, mut counters) = (Vec::new(), Vec::new());
        for id in 0..m {
            let mut fut = b.arrive_async(id);
            if yields && id + 1 < m {
                assert_yields(&mut fut);
            }
            let (woken, waker) = Woken::new();
            match poll_with(&mut fut, &waker) {
                Poll::Pending => {
                    parked.push((fut, waker));
                    counters.push(woken);
                }
                Poll::Ready(result) => assert_eq!(result.expect("no faults").episode, 0),
            }
        }
        // A cooperative backend may need a few passes of polls to walk its
        // rounds; a uniform-release backend resolves everyone in one.
        for _ in 0..=m {
            parked.retain_mut(|(fut, waker)| match poll_with(fut, waker) {
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
        assert!(unregistered(&b));
        let probes = b.backend().probes.load(Ordering::Relaxed);
        let woken = counters.iter().map(|woken| woken.count()).collect();
        (probes as f64 / m as f64, stats, woken)
    }

    #[test]
    fn uniform_release_backends_take_no_probe_lock() {
        // Backend probes per task: the yielding poll and the resolving
        // poll read the release word once, the parking poll twice
        // (lock-free, then after registering) — whatever the number of
        // parked peers. Nothing drains: the core's completer wakes the
        // M - 1 parked futures, each exactly once.
        for m in [64, 1024] {
            let backends: [(&str, Arc<dyn SplitBarrier>); 4] = [
                ("central", Arc::new(CentralBarrier::new(m))),
                ("counting", Arc::new(CountingBarrier::new(m))),
                ("tree", Arc::new(TreeBarrier::new(m))),
                ("hier", Arc::new(HierBarrier::new(m))),
            ];
            for (name, backend) in backends {
                let (per_task, stats, woken) = drive_episode(backend, m);
                assert!(per_task <= 5.0, "{name} M={m}: {per_task} probes per task");
                assert_eq!((stats.drains, stats.wakes), (0, 0), "{name} M={m}");
                assert_eq!(stats.parked, m as u64 - 1, "{name} M={m}");
                assert_eq!(stats.yields, stats.parked, "{name} M={m}");
                assert_eq!(woken, vec![1; m - 1], "{name} M={m}: woken once each");
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
        let (_, stats, _) = drive_episode(DisseminationBarrier::new(m), m);
        assert_eq!(stats.drains, m as u64 + stats.polls, "{stats:?}");
        assert_eq!(stats.yields, 0, "{stats:?}");
    }

    #[test]
    fn a_completion_below_the_frontend_wakes_the_parked_future() {
        let b = Arc::new(AsyncBarrier::new(CentralBarrier::new(2)));
        let (first, first_waker) = Woken::new();
        let mut fut = b.arrive_async(0);
        assert_yields(&mut fut);
        assert!(poll_with(&mut fut, &first_waker).is_pending());
        // Episode 0 completes behind the frontend's back: no hook of its
        // runs, and the core's completer wakes the parked future anyway.
        drop(b.backend().arrive(1));
        assert_eq!(first.count(), 1);
        match poll_with(&mut fut, &first_waker) {
            Poll::Ready(Ok(outcome)) => assert!(outcome.descheduled && outcome.episode == 0),
            other => panic!("expected Ready(Ok(_)), got {other:?}"),
        }
        // Episode 1 runs through the frontend. Participant 0 parks afresh
        // and is woken by exactly episode 1's completing arrive; the first
        // waker is not woken again.
        let (second, second_waker) = Woken::new();
        let mut fut = b.arrive_async(0);
        assert_yields(&mut fut);
        assert!(poll_with(&mut fut, &second_waker).is_pending());
        assert_eq!((first.count(), second.count()), (1, 0));
        let mut last = b.arrive_async(1);
        assert_eq!((first.count(), second.count()), (1, 1));
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
        assert_eq!((stats.parked, stats.resumed, stats.drains), (2, 2, 0));
    }

    #[test]
    fn poison_below_the_frontend_wakes_every_parked_waiter() {
        let m = 8;
        let b = Arc::new(AsyncBarrier::new(CentralBarrier::new(m + 2)));
        let wakers: Vec<_> = (0..m).map(|_| Woken::new()).collect();
        let mut futures: Vec<_> = (0..m).map(|id| b.arrive_async(id)).collect();
        for (fut, (_, waker)) in futures.iter_mut().zip(&wakers) {
            assert_yields(fut);
            assert!(poll_with(fut, waker).is_pending());
        }
        // Poisoned inside the backend (a timed-out inner wait does this):
        // the frontend's poison hook never runs, and the core wakes
        // everyone it parked.
        b.backend().poison();
        assert!(wakers.iter().all(|(woken, _)| woken.count() == 1));
        // A late arrival's first poll yields, poison or not; its second
        // parks, then finds the poison.
        futures.push(b.arrive_async(m));
        assert_yields(futures.last_mut().expect("just pushed"));
        for fut in &mut futures {
            assert!(matches!(
                poll_once(fut),
                Poll::Ready(Err(BarrierError::Poisoned { episode: 0 }))
            ));
        }
        let stats = b.async_stats();
        let parked = m as u64 + 1;
        assert_eq!(
            (stats.parked, stats.resumed, stats.drains),
            (parked, parked, 0)
        );
    }

    #[test]
    fn plain_wait_drains_before_it_panics_on_poison() {
        // A cooperative backend: its parked futures hear of a fault only
        // from a frontend drain.
        let b = Arc::new(AsyncBarrier::new(DisseminationBarrier::new(3)));
        let (woken, waker) = Woken::new();
        let mut parked = b.arrive_async(0);
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
        assert!(unregistered(&b));
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
    fn registry_index_tracks_moves() {
        let waker = Waker::noop();
        let mut r = Registry::new(4);
        r.register(0, 7, waker);
        r.register(1, 7, waker);
        r.register(2, 8, waker);
        r.register(1, 7, waker); // a re-poll refreshes, not re-parks
        assert_eq!(r.parked.len(), 3);
        // Removing the first entry moves the last into its place.
        r.deregister(0);
        assert_eq!(r.slot_of, [NOT_PARKED, 1, 0, NOT_PARKED]);
        r.deregister(3); // not parked: nothing to remove
        assert_eq!(r.parked.len(), 2);
        // An id beyond the construction size grows the index.
        r.register(9, 8, waker);
        assert_eq!((r.slot_of.len(), r.slot_of[9]), (10, 2));
        for id in [1, 2, 9] {
            r.deregister(id);
        }
        assert!(r.parked.is_empty());
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
        assert!(unregistered(&b));
        assert!(matches!(
            poll_once(&mut survivor),
            Poll::Ready(Err(BarrierError::Poisoned { episode: 0 }))
        ));
    }

    #[test]
    fn fast_task_parks_for_the_next_episode_while_the_last_one_completes() {
        // The last arriver of episode 0 completes it below the frontend,
        // and arrives first for episode 1, while a fast participant is
        // already waiting on episode 1. The completion wakes episode 0's
        // parked futures only; episode 1's completion wakes the fast one.
        let inner = Arc::new(CentralBarrier::new(3));
        let b = Arc::new(AsyncBarrier::new(Arc::clone(&inner)));
        let wakers: Vec<_> = (0..3).map(|_| Woken::new()).collect();
        let counts = || -> Vec<u64> { wakers.iter().map(|(woken, _)| woken.count()).collect() };
        let mut slow: Vec<_> = (0..2).map(|id| b.arrive_async(id)).collect();
        for (fut, (_, waker)) in slow.iter_mut().zip(&wakers) {
            assert_yields(fut);
            assert!(poll_with(fut, waker).is_pending());
        }
        drop(inner.arrive(2)); // completes episode 0 behind the frontend's back
        assert_eq!(counts(), [1, 1, 0]);
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
        assert_eq!(counts(), [1, 1, 0]);
        for fut in &mut slow {
            assert!(poll_once(fut).is_ready());
        }
        // Episode 1 completes through the frontend and wakes the fast task.
        let mut rest: Vec<_> = (0..2).map(|id| b.arrive_async(id)).collect();
        assert_eq!(counts(), [1, 1, 1]);
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
        assert!(unregistered(&b));
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
        let registrations = || b.backend().registrations.load(Ordering::Relaxed);
        let (woken, waker) = Woken::new();
        let mut fut = b.arrive_async(0);
        // The yield: one release-word load, its own waker woken, no
        // registration.
        let before = probes();
        assert!(poll_with(&mut fut, &waker).is_pending());
        assert_eq!((probes() - before, woken.count()), (1, 1));
        assert_eq!((registrations(), b.async_stats().parked), (0, 0));
        // The second pending poll parks in the core and does not wake
        // itself: a load, a registration, a re-read. A third refreshes the
        // entry and does not yield again.
        for parks in [1, 2] {
            let before = probes();
            assert!(poll_with(&mut fut, &waker).is_pending());
            assert_eq!((probes() - before, woken.count()), (2, 1));
            assert_eq!((registrations(), b.async_stats().parked), (parks, 1));
        }
        // The core's completer wakes it, once.
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
        assert_eq!((stats.drains, stats.wakes), (0, 0));

        // A yield reads no poison word: on a barrier poisoned below the
        // frontend the first poll still yields, and the second, after its
        // registration, reports the fault.
        let b = AsyncBarrier::new(CentralBarrier::new(2));
        let mut fut = b.arrive_async(0);
        b.backend().poison();
        assert_yields(&mut fut);
        assert!(matches!(
            poll_once(&mut fut),
            Poll::Ready(Err(BarrierError::Poisoned { episode: 0 }))
        ));
        let stats = b.async_stats();
        assert_eq!((stats.polls, stats.yields, stats.parked), (2, 1, 1));
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
        // The last arrival's completer hands out the waker, in the core.
        let token = SplitBarrier::arrive(&b, 1);
        assert_eq!((b.async_stats().wakes, woken.count()), (0, 1));
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
        let (woken, waker) = Woken::new();
        let mut fut = b.arrive_async(0);
        assert_yields(&mut fut);
        assert!(poll_with(&mut fut, &waker).is_pending());
        SplitBarrier::poison(b.as_ref());
        assert_eq!(woken.count(), 1, "poison wakes the parked");
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
        assert!(unregistered(&b));
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

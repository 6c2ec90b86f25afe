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
//! One rule for every pending future (DESIGN.md §13). A poll for episode
//! `e` first asks whether `e` has released: one lock-free load of the
//! backend's release word `k` ([`SplitBarrier::release_epoch`]; `e < k` is
//! final, the word is monotone), or, on a backend without one
//! (dissemination, the network barrier), its
//! [`SplitBarrier::is_complete`], which drives the participant's own
//! rounds. Released is `Ready` (completion wins over poison). Otherwise
//! the future's first pending poll **yields** — wakes its own waker,
//! returns `Pending`, registers nothing and reads no poison word: spin
//! before you park, with a budget of one yield. A later pending poll calls
//! [`SplitBarrier::register_waker`] with `(id, e, waker)`, then re-reads
//! completion and the poison word and decides from that read. A backend
//! with a release word has parked the waker in its episode core, whose
//! completer wakes what is parked below the release it publishes. A
//! backend with no parking place says false, and a `Pending` decision
//! wakes its own waker, so the task is re-queued and polls — and drives
//! its rounds — again. `ReconfigBarrier`'s activation future follows the
//! same rule through the same helper. The frontend owns no lock and no
//! shared word, so an arrive owes nobody a wake.
//!
//! Nothing on the poll path bumps a shared counter (see [`crate::stats`]):
//! `polls` / `yields` / `parked` / `resumed` go to the future's
//! participant's own padded cell; [`AsyncBarrier::async_stats`] adds them
//! up.
//!
//! # Lost-wakeup freedom
//!
//! A parked waiter is covered by the core's `SeqCst` pair: a waiter
//! stores the parked count, then re-reads the word and the poison; a
//! completer publishes, then loads the count. One of the two sees the
//! other. Each obligation has the `fuzzy-check` mutant that drops it:
//!
//! 1. *A waiter decides `Pending` only from a read made after its
//!    registration*; the first read may only say `Ready`.
//!    (`MutantParkWithoutRecheck` parks on the lock-free read.)
//! 2. *A completer wakes what is parked below the release it has just
//!    published, after publishing it.* (`MutantNoWake` never wakes;
//!    `MutantWakeBeforePublish` looks first.) That a word above `e` means
//!    *released* is the trait's contract (`MutantEarlyEpoch`).
//! 3. *A `Pending` that parks nothing carries its own wake*: a yield, and
//!    every pending poll on a backend with no parking place, is polled
//!    again, so like `Ready` it strands nothing.
//!    (`MutantYieldWithoutWake` omits the yield's wake,
//!    `MutantRequeueWithoutWake` a cooperative poll's.)

use crate::error::BarrierError;
use crate::failure::Deadline;
use crate::fuzzy::SplitBarrier;
use crate::stats::{self, AsyncSnapshot, StatsSnapshot, TelemetrySnapshot};
use crate::token::{ArrivalToken, WaitOutcome};
use fuzzy_util::CachePadded;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::task::{Context, Poll, Waker};
use std::time::Instant;

/// The rule of a pending poll, for every future over a [`SplitBarrier`]
/// (DESIGN.md §13): parks the task's waker as participant `id`'s until
/// the release word passes `episode`, then decides from `settled`, read
/// after the registration — a completion or poison that landed before it
/// woke nobody. On a backend with no parking place, a `Pending` decision
/// wakes the waker instead, so the task is polled again. Returns the
/// decision and whether the waker parked.
pub(crate) fn park_or_requeue<B: SplitBarrier + ?Sized, T>(
    inner: &B,
    cx: &Context<'_>,
    (id, episode): (usize, u64),
    settled: impl FnOnce() -> Option<T>,
) -> (Option<T>, bool) {
    let parked = inner.register_waker(id, episode, cx.waker());
    let resolved = settled();
    if resolved.is_none() && !parked {
        cx.waker().wake_by_ref();
    }
    (resolved, parked)
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
/// implements [`SplitBarrier`] itself, by forwarding, so sync and async
/// participants can share one barrier (each participant id must stick to
/// one style within an episode).
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
pub struct AsyncBarrier<B: SplitBarrier> {
    inner: B,
    /// One padded cell per participant, under the single-writer rule of
    /// [`crate::stats::BarrierStats`]: a cell is written by the thread
    /// driving that participant's future, with a plain load and store.
    future_counts: Box<[CachePadded<FutureCounts>]>,
    /// The read-modify-write fallback for ids beyond the cells.
    stray_counts: FutureCounts,
}

impl<B: SplitBarrier> AsyncBarrier<B> {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: B) -> Self {
        let n = inner.participants().max(1);
        AsyncBarrier {
            inner,
            future_counts: (0..n).map(|_| CachePadded::default()).collect(),
            stray_counts: FutureCounts::default(),
        }
    }

    /// Does nothing. It bounded a sweep over a cooperative backend's
    /// parked waiters, which no longer exists: such a backend's pending
    /// futures re-queue themselves instead of parking. Kept so that
    /// callers written against it still build.
    #[must_use]
    pub fn with_help_rounds(self, _rounds: usize) -> Self {
        self
    }

    /// Borrows the wrapped backend.
    #[must_use]
    pub fn backend(&self) -> &B {
        &self.inner
    }

    /// Snapshot of the async-frontend counters (polls, yields, parks,
    /// resumes), added up from the per-participant cells. `polls`,
    /// `yields` and `resumed` cover the futures that have resolved or
    /// dropped; one still in flight adds its share when it does.
    #[must_use]
    pub fn async_stats(&self) -> AsyncSnapshot {
        let mut total = AsyncSnapshot::default();
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
    pub fn arrive_async(&self, id: usize) -> BarrierFuture<'_, B> {
        self.wait_async(self.inner.arrive(id))
    }

    /// The future of an arrival already made — say, one retried after a
    /// bounded wait timed out: the async form of `wait`, under the rules of
    /// [`Self::arrive_async`].
    pub fn wait_async(&self, token: ArrivalToken) -> BarrierFuture<'_, B> {
        BarrierFuture {
            barrier: self,
            id: token.participant(),
            episode: token.episode(),
            yielded: false,
            parked: false,
            polls: 0,
            first_pending: None,
            done: false,
        }
    }
}

impl<B: SplitBarrier> fmt::Debug for AsyncBarrier<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AsyncBarrier")
            .field("participants", &self.inner.participants())
            .finish_non_exhaustive()
    }
}

/// Only forwards: the backend's completer wakes what is parked, and a
/// cooperative backend's futures re-queue themselves, so no path of the
/// wrapper owes a pending future anything. The release word and the
/// parking place keep the trait's defaults: the frontend's own futures
/// reach the backend's directly.
impl<B: SplitBarrier> SplitBarrier for AsyncBarrier<B> {
    fn arrive(&self, id: usize) -> ArrivalToken {
        self.inner.arrive(id)
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

    fn evict(&self, id: usize) -> Result<(), BarrierError> {
        self.inner.evict(id)
    }

    fn admit(&self, id: usize) -> Result<(), BarrierError> {
        self.inner.admit(id)
    }

    fn is_member(&self, id: usize) -> bool {
        self.inner.is_member(id)
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
/// The first poll that finds the episode open **yields** instead of
/// parking: it wakes the task's waker and returns `Pending`, so the
/// executor polls it again soon. Only a later pending poll registers the
/// waker, and where the backend cannot park it, wakes it again.
///
/// The outcome's `stalled`, `descheduled` and `probes` are exact on every
/// episode. Its `stall_time` — first `Pending` poll to resolution — is
/// **sampled**: the future reads the clock only on the episodes whose
/// arrival spread is sampled too (the last of every
/// [`crate::stats::SPREAD_SAMPLE_PERIOD`]) and reports zero on the
/// others, the way a blocking wait arms no clock before its stall costs a
/// context switch: the two clock reads cost about what a whole poll does.
#[must_use = "an async arrival must be polled to completion"]
pub struct BarrierFuture<'a, B: SplitBarrier> {
    barrier: &'a AsyncBarrier<B>,
    id: usize,
    episode: u64,
    /// True once a pending poll has yielded; only the polls after it may
    /// park.
    yielded: bool,
    /// True once a waker has been parked (at least once).
    parked: bool,
    /// This future's polls so far.
    polls: u64,
    /// When the first pending poll happened, on a sampled episode; the
    /// async stall clock.
    first_pending: Option<Instant>,
    done: bool,
}

impl<B: SplitBarrier> BarrierFuture<'_, B> {
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

    /// True once the episode has released: one load of the release word,
    /// or where there is none, `is_complete`, which drives our rounds.
    fn released(&self) -> bool {
        let inner = &self.barrier.inner;
        match inner.release_epoch() {
            Some(released) => self.episode < released,
            None => inner.is_complete(&ArrivalToken::new(self.id, self.episode)),
        }
    }

    /// One poll's decision: `None` is `Pending`.
    fn decide(&mut self, cx: &Context<'_>) -> Option<Result<(), BarrierError>> {
        if self.released() {
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
        let (resolved, parked) =
            park_or_requeue(&self.barrier.inner, cx, (self.id, self.episode), || {
                if self.released() {
                    Some(Ok(()))
                } else if self.barrier.inner.is_poisoned() {
                    Some(Err(BarrierError::Poisoned {
                        episode: self.episode,
                    }))
                } else {
                    None
                }
            });
        if parked && !self.parked {
            self.parked = true;
            let (counts, sole_writer) = self.barrier.counts(self.id);
            stats::add(&counts.parked, 1, sole_writer);
        }
        resolved
    }
}

impl<B: SplitBarrier> fmt::Debug for BarrierFuture<'_, B> {
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

impl<B: SplitBarrier> Future for BarrierFuture<'_, B> {
    type Output = Result<WaitOutcome, BarrierError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // All fields are Unpin (a reference + plain data), so the future is too.
        let this = Pin::into_inner(self);
        assert!(!this.done, "BarrierFuture polled after completion");
        this.polls += 1;
        let Some(resolved) = this.decide(cx) else {
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
impl<B: SplitBarrier> Drop for BarrierFuture<'_, B> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        let inner = &self.barrier.inner;
        self.barrier
            .record_future(self.id, self.polls, self.yielded, false);
        if self.parked {
            // Replaces our entry: the poison below must not wake the task
            // that dropped us, nor keep its waker.
            inner.register_waker(self.id, self.episode, Waker::noop());
        }
        if !inner.is_complete(&ArrivalToken::new(self.id, self.episode)) {
            inner.poison();
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

    fn poll_with<B: SplitBarrier>(
        fut: &mut BarrierFuture<'_, B>,
        waker: &Waker,
    ) -> Poll<Result<WaitOutcome, BarrierError>> {
        Pin::new(fut).poll(&mut Context::from_waker(waker))
    }

    fn poll_once<B: SplitBarrier>(
        fut: &mut BarrierFuture<'_, B>,
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

    /// Polls a future whose episode is still open for the first time and
    /// asserts that the poll yields: `Pending`, its waker woken once, and
    /// `parked` untouched. The caller's next poll is then the one that may
    /// park.
    fn assert_yields<B: SplitBarrier>(fut: &mut BarrierFuture<'_, B>) {
        let b = fut.barrier;
        let before = b.async_stats();
        let (woken, waker) = Woken::new();
        assert!(poll_with(fut, &waker).is_pending());
        assert_eq!(woken.count(), 1, "a yield wakes its own waker");
        assert!(!fut.parked, "a yield registers nothing");
        assert_eq!(b.async_stats().parked, before.parked);
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

    /// Drives one full episode of `m` futures through the frontend over a
    /// release-word backend — each arrives, yields and parks (all but the
    /// last), then every parked future is polled once and resolves — and
    /// returns the backend probes spent per task, the frontend's counters
    /// and how often each parked future's waker was woken.
    fn drive_episode<B: SplitBarrier>(backend: B, m: usize) -> (f64, AsyncSnapshot, Vec<u64>) {
        let b = Arc::new(AsyncBarrier::new(Probed::new(backend)));
        let (mut parked, mut counters) = (Vec::new(), Vec::new());
        for id in 0..m {
            let mut fut = b.arrive_async(id);
            if id + 1 < m {
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
        // One release word decides everyone: one pass resolves them all.
        for (fut, waker) in &mut parked {
            match poll_with(fut, waker) {
                Poll::Ready(result) => assert_eq!(result.expect("no faults").episode, 0),
                Poll::Pending => panic!("a waiter stranded"),
            }
        }
        let stats = b.async_stats();
        assert_eq!(stats.parked, stats.resumed);
        let probes = b.backend().probes.load(Ordering::Relaxed);
        let woken = counters.iter().map(|woken| woken.count()).collect();
        (probes as f64 / m as f64, stats, woken)
    }

    #[test]
    fn uniform_release_backends_take_no_probe_lock() {
        // Backend probes per task: the yielding poll and the resolving
        // poll read the release word once, the parking poll twice
        // (lock-free, then after registering) — whatever the number of
        // parked peers. The core's completer wakes the M - 1 parked
        // futures, each exactly once.
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
                assert_eq!(stats.parked, m as u64 - 1, "{name} M={m}");
                assert_eq!(stats.yields, stats.parked, "{name} M={m}");
                assert_eq!(woken, vec![1; m - 1], "{name} M={m}: woken once each");
                assert_eq!(stats.polls, 3 * m as u64 - 2, "{name} M={m}");
            }
        }
    }

    #[test]
    fn cooperative_futures_requeue() {
        // No release word and no parking place: polls alone walk every
        // participant's rounds. A pending poll parks nothing and wakes its
        // own waker, once, so the task is polled again: the first pending
        // poll as a yield, every later one after a refused registration.
        let m = 64;
        let b = AsyncBarrier::new(Probed::new(DisseminationBarrier::new(m)));
        let mut futures: Vec<_> = (0..m)
            .map(|id| (b.arrive_async(id), Woken::new()))
            .collect();
        let (mut polls, mut pending) = (0, 0);
        for _ in 0..=m {
            futures.retain_mut(|(fut, (woken, waker))| {
                let before = woken.count();
                polls += 1;
                match poll_with(fut, waker) {
                    Poll::Pending => {
                        assert_eq!(woken.count(), before + 1, "a pending poll wakes itself");
                        pending += 1;
                        true
                    }
                    Poll::Ready(result) => {
                        assert_eq!(woken.count(), before, "a resolving poll wakes nobody");
                        assert_eq!(result.expect("no faults").episode, 0);
                        false
                    }
                }
            });
        }
        assert!(futures.is_empty(), "{} of {m} stranded", futures.len());
        let stats = b.async_stats();
        assert_eq!((stats.parked, stats.resumed), (0, 0), "{stats:?}");
        assert_eq!((stats.polls, pending), (polls, polls - m as u64));
        // Every pending poll but a future's first asked to park, and was
        // refused.
        let registrations = b.backend().registrations.load(Ordering::Relaxed);
        assert_eq!(registrations, pending - stats.yields, "{stats:?}");
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
        assert_eq!((stats.parked, stats.resumed), (2, 2));
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
        // Poisoned inside the backend (a timed-out inner wait does this),
        // not through the frontend: the core wakes everyone it parked.
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
        assert_eq!((stats.parked, stats.resumed), (parked, parked));
    }

    #[test]
    fn a_pending_cooperative_future_sees_poison_on_its_next_poll() {
        // A cooperative future that has yielded and been refused a parking
        // place is poisoned below the frontend, which runs no hook of its:
        // its own wake already asked for the poll that finds the fault.
        let b = Arc::new(AsyncBarrier::new(DisseminationBarrier::new(3)));
        let (woken, waker) = Woken::new();
        let mut pending = b.arrive_async(0);
        assert_yields(&mut pending);
        assert!(poll_with(&mut pending, &waker).is_pending());
        assert_eq!(woken.count(), 1, "it re-queued itself");
        drop(SplitBarrier::arrive(b.as_ref(), 1));
        b.backend().poison();
        assert!(matches!(
            poll_once(&mut pending),
            Poll::Ready(Err(BarrierError::Poisoned { episode: 0 }))
        ));
        assert_eq!(b.async_stats().parked, 0);
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
        // never the dropped future's own waker, whose entry was replaced
        // first and whose clone in the core is gone.
        assert_eq!((dropped.count(), kept.count()), (0, 1));
        assert_eq!(Arc::strong_count(&dropped), 2, "test + its Waker only");
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
        assert_eq!(woken.count(), 1);
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

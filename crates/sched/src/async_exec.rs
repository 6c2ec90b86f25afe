//! A std-only M:N episode executor for async fuzzy-barrier participants.
//!
//! The paper's fuzzy barrier keeps a *processor* busy inside the barrier
//! region; this executor keeps a *thread* busy across many logical
//! participants. `M ≫ N` tasks — each an async participant performing
//! `arrive → region work → await release` per episode via
//! [`fuzzy_barrier::AsyncBarrier`] — are multiplexed over `N` worker
//! threads with per-worker run queues and work stealing. A parked
//! participant costs one registry entry, not one OS thread, which is what
//! lets a 4-thread pool complete episodes for 4096 logical participants.
//!
//! Dependency-free by design (the container builds offline): tasks are
//! `Pin<Box<dyn Future>>` behind a mutex, wakers come from
//! [`std::task::Wake`], parking is a `Condvar`.
//!
//! A task woken while it is being polled — a future that yields, like a
//! [`fuzzy_barrier::BarrierFuture`]'s first pending poll — is not put back
//! on a run queue: its worker keeps it on a deferred list of its own and
//! polls it again once the tasks that were queued ahead of it have run,
//! with no lock taken to requeue it.

use crate::executor::{busy, BarrierChoice};
use fuzzy_barrier::stats::{AsyncSnapshot, StatsSnapshot};
use fuzzy_barrier::{AsyncBarrier, SplitBarrier, StallPolicy};
use fuzzy_util::SplitMix64;
use std::any::Any;
use std::collections::VecDeque;
use std::future::Future;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// Task is queued on some run queue (or about to be).
const QUEUED: u8 = 0;
/// Task is being polled by a worker.
const RUNNING: u8 = 1;
/// Task returned `Pending` and waits for a wake.
const WAITING: u8 = 2;
/// Task was woken *while* being polled; the worker polling it defers it.
const NOTIFIED: u8 = 3;
/// Task ran to completion, or panicked.
const DONE: u8 = 4;

type TaskFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// One spawned task: its future plus the wake-state machine.
struct Task {
    /// The future and its waker, taken out together when the task ends.
    /// Only the worker that moved the task to `RUNNING` touches this, so
    /// the mutex never contends.
    future: Mutex<Option<Running>>,
    state: AtomicU8,
    /// Run queue the task is (re-)enqueued on.
    home: usize,
    /// Where the pool's [`Live`] list holds this task until it completes.
    slot: usize,
    shared: Arc<Shared>,
}

/// What an unfinished task owns. The waker is built on the first poll
/// and handed to every poll after it, instead of an `Arc<Task>` cloned
/// and dropped per poll. It points back at the task that holds it; every
/// place that ends a task — completion, panic, pool drop — drops this
/// whole, which breaks the cycle.
struct Running {
    future: TaskFuture,
    waker: Option<Waker>,
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    /// A self-wake from inside a poll (a yield) is one CAS, with no
    /// reference count touched; a waiting task's wake enqueues a clone.
    fn wake_by_ref(self: &Arc<Self>) {
        loop {
            match self.state.load(Ordering::Acquire) {
                WAITING => {
                    if self
                        .state
                        .compare_exchange(WAITING, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.shared.enqueue(Arc::clone(self));
                        return;
                    }
                }
                RUNNING => {
                    if self
                        .state
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued/notified/done: the wake is coalesced.
                _ => return,
            }
        }
    }
}

/// State shared between the executor handle and its workers.
struct Shared {
    /// Per-worker run queues. Owners pop the front; thieves pop the back.
    queues: Vec<Mutex<VecDeque<Arc<Task>>>>,
    /// The spawned, not yet completed tasks, guarded for
    /// [`AsyncExecutor::wait_idle`]'s condvar.
    live: Mutex<Live>,
    idle_cv: Condvar,
    /// Worker parking lot: the mutex `park_cv` waits on, guarding the
    /// shutdown flag.
    park: Mutex<bool>,
    park_cv: Condvar,
    /// Workers in (or waking up from) `park_cv.wait`, counted in and out
    /// with the park mutex held. No wake is lost: a worker counts itself
    /// in and then re-scans every queue under that queue's lock, in the
    /// park critical section that ends in `park_cv.wait`; an enqueuer
    /// reads the count under the lock of the queue it pushed to. That
    /// queue lock orders the two (which is why `Relaxed` suffices): if
    /// the worker's scan of the queue comes first, its count-in
    /// happened-before the enqueuer's read, which sees a sleeper and takes
    /// the park mutex to notify — only once the worker is inside
    /// `park_cv.wait`, since the worker holds that mutex until then; if
    /// the enqueuer's push comes first, the re-scan finds the task and the
    /// worker does not sleep. An enqueue that reads zero has nobody to
    /// wake and takes no park lock.
    sleepers: AtomicUsize,
    /// Tasks taken from a sibling's run queue.
    steals: AtomicU64,
    next_home: AtomicUsize,
}

/// A handle to every unfinished task, so that dropping the pool can
/// cancel the ones parked on a waker held elsewhere (a barrier's
/// registry) — they sit in no run queue. Touched at spawn and at
/// completion only, under the lock both already take.
#[derive(Default)]
struct Live {
    /// `None` marks a free slot.
    tasks: Vec<Option<Arc<Task>>>,
    free: Vec<usize>,
    /// What the first task to panic panicked with, until
    /// [`AsyncExecutor::wait_idle`] re-raises it.
    panic: Option<Box<dyn Any + Send>>,
}

impl Live {
    fn count(&self) -> usize {
        self.tasks.len() - self.free.len()
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn enqueue(&self, task: Arc<Task>) {
        let mut queue = lock(&self.queues[task.home]);
        queue.push_back(task);
        // Under the queue lock: see `Shared::sleepers`.
        let sleepers = self.sleepers.load(Ordering::Relaxed);
        drop(queue);
        if sleepers > 0 {
            let _park = lock(&self.park);
            self.park_cv.notify_one();
        }
    }

    /// Pops the front of worker `me`'s own run queue, with the number of
    /// tasks still queued behind it.
    fn pop_own(&self, me: usize) -> Option<(Arc<Task>, usize)> {
        let mut queue = lock(&self.queues[me]);
        let task = queue.pop_front()?;
        Some((task, queue.len()))
    }

    /// Steals a task from the back of a sibling's run queue.
    fn steal(&self, me: usize) -> Option<Arc<Task>> {
        for offset in 1..self.queues.len() {
            let victim = (me + offset) % self.queues.len();
            if let Some(task) = lock(&self.queues[victim]).pop_back() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(task);
            }
        }
        None
    }

    /// Takes a finished task — completed or panicked — off the live list.
    fn retire(&self, task: &Task, panic: Option<Box<dyn Any + Send>>) {
        task.state.store(DONE, Ordering::Release);
        let mut live = lock(&self.live);
        live.tasks[task.slot] = None;
        live.free.push(task.slot);
        if live.panic.is_none() {
            live.panic = panic;
        }
        if live.count() == 0 {
            self.idle_cv.notify_all();
        }
    }
}

/// A work-stealing executor for `'static` futures over `N` worker
/// threads.
///
/// Spawned tasks are distributed round-robin over per-worker run queues;
/// an idle worker steals from the back of a sibling's queue (recorded in
/// the steal counter). Dropping the executor shuts the workers down;
/// unfinished tasks — queued or parked on a waker — are dropped, which —
/// for barrier futures — counts as cancellation and poisons their
/// barrier, and a waker that outlives the pool wakes nothing. A task that
/// panics is dropped the same way and counts as finished; its worker
/// carries on, and [`AsyncExecutor::wait_idle`] re-raises the panic.
///
/// # Examples
///
/// ```
/// use fuzzy_sched::async_exec::AsyncExecutor;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let pool = AsyncExecutor::new(2);
/// let hits = Arc::new(AtomicUsize::new(0));
/// for _ in 0..16 {
///     let hits = Arc::clone(&hits);
///     pool.spawn(async move {
///         hits.fetch_add(1, Ordering::Relaxed);
///     });
/// }
/// pool.wait_idle();
/// assert_eq!(hits.load(Ordering::Relaxed), 16);
/// ```
pub struct AsyncExecutor {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for AsyncExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncExecutor")
            .field("workers", &self.workers.len())
            .field("live", &lock(&self.shared.live).count())
            .finish_non_exhaustive()
    }
}

impl AsyncExecutor {
    /// Starts a pool of `workers` threads (at least one).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            live: Mutex::default(),
            idle_cv: Condvar::new(),
            park: Mutex::default(),
            park_cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            next_home: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, me))
            })
            .collect();
        AsyncExecutor {
            shared,
            workers: handles,
        }
    }

    /// Spawns a task onto the pool (round-robin over the run queues).
    pub fn spawn(&self, future: impl Future<Output = ()> + Send + 'static) {
        let home = self.shared.next_home.fetch_add(1, Ordering::Relaxed) % self.workers.len();
        let future: TaskFuture = Box::pin(future);
        let mut live = lock(&self.shared.live);
        let slot = live.free.pop().unwrap_or_else(|| {
            live.tasks.push(None);
            live.tasks.len() - 1
        });
        let task = Arc::new(Task {
            future: Mutex::new(Some(Running {
                future,
                waker: None,
            })),
            state: AtomicU8::new(QUEUED),
            home,
            slot,
            shared: Arc::clone(&self.shared),
        });
        live.tasks[slot] = Some(Arc::clone(&task));
        drop(live);
        self.shared.enqueue(task);
    }

    /// Blocks until every spawned task has completed.
    ///
    /// # Panics
    ///
    /// If a task panicked since the last call, resumes the first such
    /// panic — once every task has finished, so peers released by the
    /// panicking task's cancelled barrier future have run to their end.
    pub fn wait_idle(&self) {
        let mut live = lock(&self.shared.live);
        while live.count() > 0 {
            live = self
                .shared
                .idle_cv
                .wait(live)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if let Some(payload) = live.panic.take() {
            drop(live);
            resume_unwind(payload);
        }
    }

    /// Tasks stolen from a sibling's run queue so far.
    #[must_use]
    pub fn steals(&self) -> u64 {
        self.shared.steals.load(Ordering::Relaxed)
    }

    /// Snapshot of the executor's counters (only `steals` is populated;
    /// parking-protocol counters live on the barrier's
    /// [`fuzzy_barrier::AsyncBarrier::async_stats`]).
    #[must_use]
    pub fn stats(&self) -> AsyncSnapshot {
        AsyncSnapshot {
            steals: self.steals(),
            ..AsyncSnapshot::default()
        }
    }
}

impl Drop for AsyncExecutor {
    fn drop(&mut self) {
        *lock(&self.shared.park) = true;
        self.shared.park_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Cancel every unfinished task, queued, deferred (its worker has
        // returned and dropped its list) or parked, by dropping its future
        // (and waker). Marked done first, so that a wake coming
        // later — from a peer's cancelled barrier future, or from a waker
        // held outside any barrier — is coalesced instead of queueing the
        // task on a pool nobody serves, a `queues → Task → Shared` cycle.
        // The future is dropped with no lock held: a barrier future's drop
        // poisons its barrier, which wakes peers.
        let unfinished = std::mem::take(&mut *lock(&self.shared.live));
        for task in unfinished.tasks.into_iter().flatten() {
            task.state.store(DONE, Ordering::Release);
            let running = lock(&task.future).take();
            drop(running);
        }
        for queue in &self.shared.queues {
            lock(queue).clear();
        }
    }
}

/// The tasks a worker's polls left `NOTIFIED` — woken while they ran,
/// most often by themselves — which that worker alone runs again. Nobody
/// else can see them: they cost no run-queue lock, no sleeper check and
/// no reference count to requeue, and they cannot be stolen.
#[derive(Default)]
struct Deferred {
    tasks: Vec<Arc<Task>>,
    /// Own-queue pops left before `tasks` is due: the tasks queued ahead
    /// of its first entry when it was deferred. A deferred task waits no
    /// longer than it would have at the back of the run queue, so two
    /// tasks that keep waking each other there cannot starve it.
    ahead: usize,
    /// `tasks`' spare buffer, so that running the list allocates nothing.
    running: Vec<Arc<Task>>,
}

impl Deferred {
    /// Defers `task`, which `queued` tasks of the own run queue are ahead
    /// of.
    fn push(&mut self, task: Arc<Task>, queued: usize) {
        if self.tasks.is_empty() {
            self.ahead = queued;
        }
        self.tasks.push(task);
    }

    /// True if the list must run before the next own-queue pop.
    fn is_due(&self) -> bool {
        !self.tasks.is_empty() && self.ahead == 0
    }
}

/// A worker's order: its own run queue, its deferred list — once the
/// tasks queued ahead of it have run, or the queue is empty — and only
/// then a steal. It never sleeps with a task deferred.
fn worker_loop(shared: &Arc<Shared>, me: usize) {
    let mut deferred = Deferred::default();
    loop {
        if !deferred.is_due() {
            if let Some((task, queued)) = shared.pop_own(me) {
                deferred.ahead = deferred.ahead.saturating_sub(1);
                if let Some(task) = run_task(shared, task) {
                    deferred.push(task, queued);
                }
                continue;
            }
        }
        if !deferred.tasks.is_empty() {
            // A pool being dropped stops here: a task that yields on every
            // poll would otherwise keep its worker from ever returning.
            if *lock(&shared.park) {
                return;
            }
            std::mem::swap(&mut deferred.tasks, &mut deferred.running);
            for task in deferred.running.drain(..) {
                if let Some(task) = run_task(shared, task) {
                    deferred.tasks.push(task);
                }
            }
            if !deferred.tasks.is_empty() {
                deferred.ahead = lock(&shared.queues[me]).len();
            }
            continue;
        }
        let Some(task) = shared.steal(me) else {
            // Park: count in, then re-scan, so an enqueue between the
            // failed scan and the wait cannot be lost (`Shared::sleepers`).
            let mut park = lock(&shared.park);
            if *park {
                return;
            }
            shared.sleepers.fetch_add(1, Ordering::Relaxed);
            let busy_elsewhere = shared.queues.iter().any(|q| !lock(q).is_empty());
            if !busy_elsewhere {
                park = shared
                    .park_cv
                    .wait(park)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            shared.sleepers.fetch_sub(1, Ordering::Relaxed);
            continue;
        };
        if let Some(task) = run_task(shared, task) {
            // The own queue was empty: nothing is ahead of it.
            deferred.push(task, 0);
        }
    }
}

/// Polls `task` once. Returns it if it was woken while it ran, for the
/// worker to defer.
fn run_task(shared: &Shared, task: Arc<Task>) -> Option<Arc<Task>> {
    task.state.store(RUNNING, Ordering::Release);
    let mut future = lock(&task.future);
    let polled = match future.as_mut() {
        // A panicking task must cost neither its worker nor `wait_idle`'s
        // count. Nothing of the task is looked at again after an unwind:
        // its future is dropped, unpolled, just below.
        Some(running) => {
            let waker = running
                .waker
                .get_or_insert_with(|| Waker::from(Arc::clone(&task)));
            let mut cx = Context::from_waker(waker);
            catch_unwind(AssertUnwindSafe(|| running.future.as_mut().poll(&mut cx)))
        }
        // Already taken: the task completed (or was cancelled) before.
        None => {
            task.state.store(DONE, Ordering::Release);
            return None;
        }
    };
    match polled {
        Ok(Poll::Ready(())) => {
            *future = None;
            drop(future);
            shared.retire(&task, None);
            None
        }
        Err(payload) => {
            // Drop what the unwind left of the future, with no lock held:
            // a barrier future's drop poisons its barrier, which wakes
            // (re-enqueues) the peers — they resolve to `Err(Poisoned)`
            // instead of parking forever.
            let panicked = future.take();
            drop(future);
            drop(panicked);
            shared.retire(&task, Some(payload));
            None
        }
        Ok(Poll::Pending) => {
            drop(future);
            // Woken mid-poll. Only the polling worker moves a task out of
            // `NOTIFIED`, so a yield — a self-wake, this very thread's
            // store — is decided by a load; a wake from elsewhere may land
            // up to the CAS.
            let notified = task.state.load(Ordering::Acquire) == NOTIFIED
                || task
                    .state
                    .compare_exchange(RUNNING, WAITING, Ordering::AcqRel, Ordering::Acquire)
                    .is_err();
            notified.then(|| {
                task.state.store(QUEUED, Ordering::Release);
                task
            })
        }
    }
}

/// Report of an [`run_async_episodes`] run.
#[derive(Debug, Clone, Default)]
pub struct AsyncRunReport {
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Backend barrier statistics (episodes, arrivals, ...).
    pub barrier: StatsSnapshot,
    /// Async-frontend counters: parks/resumes/drains/wakes/polls from the
    /// barrier, steals from the executor.
    pub frontend: AsyncSnapshot,
}

/// Runs `tasks` logical fuzzy-barrier participants for `episodes`
/// episodes each, multiplexed over `workers` OS threads.
///
/// Every logical participant loops `arrive_async → region work → await
/// release`, the async form of the paper's arrive/region/wait shape.
/// `seed` jitters each participant's per-episode region work in
/// `[0, 2 * region_units]` so arrival order (and hence parking and
/// stealing behavior) varies per seed while the mean load stays put.
///
/// # Panics
///
/// Panics if `workers == 0` or `tasks == 0`, or if any episode faults
/// (the barrier is never poisoned in this workload, so a fault is a bug).
#[must_use]
pub fn run_async_episodes(
    workers: usize,
    tasks: usize,
    episodes: u64,
    region_units: u64,
    backend: BarrierChoice,
    policy: StallPolicy,
    seed: u64,
) -> AsyncRunReport {
    assert!(tasks > 0, "need at least one logical participant");
    let barrier = Arc::new(AsyncBarrier::new(backend.build(tasks, policy)));
    let pool = AsyncExecutor::new(workers);
    let start = Instant::now();
    for id in 0..tasks {
        let barrier = Arc::clone(&barrier);
        let mut rng = SplitMix64::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37));
        pool.spawn(async move {
            for episode in 0..episodes {
                let future = barrier.arrive_async(id);
                let jitter = if region_units == 0 {
                    0
                } else {
                    rng.range_u64(0, 2 * region_units)
                };
                busy(jitter);
                let outcome = future.await.expect("async episode faulted");
                assert_eq!(outcome.episode, episode, "participant {id} episode skew");
            }
        });
    }
    pool.wait_idle();
    let elapsed = start.elapsed();
    let mut frontend = barrier.async_stats();
    frontend.merge(&pool.stats());
    AsyncRunReport {
        elapsed,
        barrier: SplitBarrier::stats(barrier.as_ref()),
        frontend,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzy_barrier::{BarrierError, CentralBarrier, Deadline};
    use std::future::poll_fn;
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Weak};

    /// Returns `Pending` once, having woken its own task: a yield.
    fn yield_now() -> impl Future<Output = ()> {
        let mut yielded = false;
        poll_fn(move |cx| {
            if yielded {
                return Poll::Ready(());
            }
            yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        })
    }

    #[test]
    fn plain_tasks_run_to_completion() {
        let pool = AsyncExecutor::new(3);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let hits = Arc::clone(&hits);
            pool.spawn(async move {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn wait_idle_on_empty_pool_returns() {
        let pool = AsyncExecutor::new(2);
        pool.wait_idle();
    }

    #[test]
    fn many_logical_participants_on_few_threads() {
        // M ≫ N: 64 logical participants over 2 workers. Without the
        // waker protocol this would need 64 OS threads to avoid deadlock.
        let report = run_async_episodes(2, 64, 3, 4, BarrierChoice::Central, StallPolicy::Spin, 7);
        assert_eq!(report.barrier.episodes, 3);
        assert_eq!(report.barrier.arrivals, 64 * 3);
        assert!(report.frontend.parked > 0, "{:?}", report.frontend);
        assert_eq!(report.frontend.parked, report.frontend.resumed);
    }

    #[test]
    fn async_episodes_sweep_every_backend() {
        let choices = [
            BarrierChoice::Central,
            BarrierChoice::Counting,
            BarrierChoice::Dissemination,
            BarrierChoice::Tree { fan_in: 2 },
            BarrierChoice::Hier { shard_size: 4 },
        ];
        for choice in choices {
            let report = run_async_episodes(3, 16, 2, 2, choice, StallPolicy::Spin, 11);
            assert_eq!(report.barrier.episodes, 2, "{choice:?}");
            assert_eq!(report.barrier.arrivals, 32, "{choice:?}");
        }
    }

    /// Runs `body` on a thread of its own and fails — instead of hanging
    /// the suite — if it has not returned after `limit`.
    fn with_watchdog(limit: Duration, body: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        match finished.recv_timeout(limit) {
            Ok(()) => handle.join().expect("body panicked after finishing"),
            // The sender dropped without sending: the body panicked.
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(handle.join().expect_err("sender dropped unsent"))
            }
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("no progress within {limit:?}"),
        }
    }

    #[test]
    fn a_self_waking_task_cannot_starve_a_task_queued_behind_it() {
        // One worker. The first task yields on every poll until the second
        // has run: a worker that ran its deferred list before its run
        // queue would never get to the second.
        with_watchdog(Duration::from_secs(60), || {
            let pool = AsyncExecutor::new(1);
            let ran = Arc::new(AtomicBool::new(false));
            let seen = Arc::clone(&ran);
            pool.spawn(async move {
                while !seen.load(Ordering::Acquire) {
                    yield_now().await;
                }
            });
            pool.spawn(async move { ran.store(true, Ordering::Release) });
            pool.wait_idle();
        });
    }

    #[test]
    fn tasks_that_wake_each_other_cannot_starve_a_deferred_task() {
        // One worker. Two tasks wake each other through the run queue
        // until a third, which yields 100 times, has finished: the run
        // queue is never empty, so a deferred list that waited for an
        // empty queue would wait forever.
        with_watchdog(Duration::from_secs(60), || {
            let pool = AsyncExecutor::new(1);
            let done = Arc::new(AtomicBool::new(false));
            let slots: Arc<[Mutex<Option<Waker>>; 2]> = Arc::default();
            for me in 0..2 {
                let (done, slots) = (Arc::clone(&done), Arc::clone(&slots));
                pool.spawn(poll_fn(move |cx| {
                    if let Some(peer) = lock(&slots[1 - me]).take() {
                        peer.wake();
                    }
                    if done.load(Ordering::Acquire) {
                        return Poll::Ready(());
                    }
                    *lock(&slots[me]) = Some(cx.waker().clone());
                    Poll::Pending
                }));
            }
            pool.spawn(async move {
                for _ in 0..100 {
                    yield_now().await;
                }
                done.store(true, Ordering::Release);
            });
            pool.wait_idle();
        });
    }

    #[test]
    fn a_task_that_yields_a_thousand_times_finishes() {
        with_watchdog(Duration::from_secs(60), || {
            let pool = AsyncExecutor::new(1);
            let yields = Arc::new(AtomicUsize::new(0));
            let counted = Arc::clone(&yields);
            pool.spawn(async move {
                for _ in 0..1_000 {
                    yield_now().await;
                    counted.fetch_add(1, Ordering::Relaxed);
                }
            });
            pool.wait_idle();
            assert_eq!(yields.load(Ordering::Relaxed), 1_000);
        });
    }

    /// A one-shot event: the awaiting task parks its waker here and a
    /// foreign thread fires it.
    #[derive(Default)]
    struct Signal(Mutex<(bool, Option<Waker>)>);

    impl Signal {
        fn has_waiter(&self) -> bool {
            lock(&self.0).1.is_some()
        }

        fn fire(&self) {
            let waker = {
                let mut state = lock(&self.0);
                state.0 = true;
                state.1.take()
            };
            waker
                .expect("the task parked before the signal fired")
                .wake();
        }
    }

    impl Future for &Signal {
        type Output = ();

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            let mut state = lock(&self.0);
            if state.0 {
                return Poll::Ready(());
            }
            state.1 = Some(cx.waker().clone());
            Poll::Pending
        }
    }

    #[test]
    fn foreign_wake_reaches_a_worker_asleep_on_the_condvar() {
        // Each round one task awaits a signal and *every* worker goes to
        // sleep in `park_cv.wait`; only then does this thread fire it. The
        // enqueue must read a non-zero sleeper count and notify, or the
        // round hangs (the watchdog turns that into a failure).
        const ROUNDS: usize = 1_000;
        for workers in [1, 2, 4] {
            with_watchdog(Duration::from_secs(60), move || {
                let pool = AsyncExecutor::new(workers);
                let signals: Arc<Vec<Signal>> =
                    Arc::new((0..ROUNDS).map(|_| Signal::default()).collect());
                let reached = Arc::new(AtomicUsize::new(0));
                {
                    let (signals, reached) = (Arc::clone(&signals), Arc::clone(&reached));
                    pool.spawn(async move {
                        for signal in signals.iter() {
                            signal.await;
                            reached.fetch_add(1, Ordering::Release);
                        }
                    });
                }
                for (round, signal) in signals.iter().enumerate() {
                    // The worker that polled counted itself out before the
                    // poll, and a worker holds the park mutex from its
                    // count-in to its wait: a full count read under that
                    // mutex means every worker is asleep.
                    let asleep = || {
                        let _park = lock(&pool.shared.park);
                        pool.shared.sleepers.load(Ordering::Relaxed)
                    };
                    while !signal.has_waiter() || asleep() < workers {
                        std::thread::yield_now();
                    }
                    assert_eq!(reached.load(Ordering::Acquire), round);
                    signal.fire();
                }
                pool.wait_idle();
                assert_eq!(reached.load(Ordering::Acquire), ROUNDS);
            });
        }
    }

    #[test]
    fn idle_worker_steals_from_a_blocked_siblings_queue() {
        with_watchdog(Duration::from_secs(60), || {
            let pool = AsyncExecutor::new(2);
            // The first task occupies whichever worker picks it up until
            // released, so that worker's own queue is served by nobody.
            let (release, blocked) = mpsc::channel::<()>();
            let (started_tx, started) = mpsc::channel();
            pool.spawn(async move {
                started_tx.send(()).expect("test thread listens");
                let _ = blocked.recv();
            });
            started.recv().expect("the blocker runs");
            // Round-robin homes half of these on the blocked worker's
            // queue; they can only finish by being stolen.
            let hits = Arc::new(AtomicUsize::new(0));
            for _ in 0..8 {
                let hits = Arc::clone(&hits);
                pool.spawn(async move {
                    hits.fetch_add(1, Ordering::Release);
                });
            }
            while hits.load(Ordering::Acquire) < 8 {
                std::thread::yield_now();
            }
            assert!(pool.steals() >= 4, "{} steals", pool.steals());
            release.send(()).expect("the blocker listens");
            pool.wait_idle();
        });
    }

    #[test]
    fn single_worker_pool_never_steals() {
        let pool = AsyncExecutor::new(1);
        for _ in 0..32 {
            pool.spawn(async {});
        }
        pool.wait_idle();
        assert_eq!(pool.steals(), 0, "nobody to steal from");
    }

    /// What `wait_idle` re-raised, as the text of the task's `panic!`.
    fn re_raised(pool: &AsyncExecutor) -> &'static str {
        let payload = catch_unwind(AssertUnwindSafe(|| pool.wait_idle()))
            .expect_err("wait_idle returned although a task panicked");
        payload.downcast_ref::<&str>().copied().unwrap_or("?")
    }

    #[test]
    fn panicking_task_is_re_raised_by_wait_idle_and_costs_no_worker() {
        for workers in [1, 3] {
            with_watchdog(Duration::from_secs(60), move || {
                let pool = AsyncExecutor::new(workers);
                pool.spawn(async { panic!("first task failed") });
                pool.spawn(async {});
                assert_eq!(re_raised(&pool), "first task failed");
                // Raised once; every worker is still there for what comes.
                let hits = Arc::new(AtomicUsize::new(0));
                for _ in 0..4 * workers {
                    let hits = Arc::clone(&hits);
                    pool.spawn(async move {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
                pool.wait_idle();
                assert_eq!(hits.load(Ordering::Relaxed), 4 * workers);
            });
        }
    }

    #[test]
    fn panicking_peer_poisons_its_barrier_instead_of_stranding_the_survivor() {
        for workers in [1, 3] {
            with_watchdog(Duration::from_secs(60), move || {
                let barrier = Arc::new(AsyncBarrier::new(CentralBarrier::new(2)));
                let pool = AsyncExecutor::new(workers);
                {
                    let barrier = Arc::clone(&barrier);
                    pool.spawn(async move {
                        let _arrived = barrier.arrive_async(1);
                        panic!("peer failed in its region");
                    });
                }
                // The unwind drops the peer's unresolved future.
                while !SplitBarrier::is_poisoned(barrier.as_ref()) {
                    std::thread::yield_now();
                }
                let (report, survivor) = mpsc::channel();
                {
                    let barrier = Arc::clone(&barrier);
                    pool.spawn(async move {
                        let first = barrier.arrive_async(0).await;
                        let second = barrier.arrive_async(0).await;
                        report.send((first, second)).expect("test thread listens");
                    });
                }
                assert_eq!(re_raised(&pool), "peer failed in its region");
                // The cancelled arrival still counts, so episode 0
                // completes (completion wins over poison); episode 1, which
                // the peer will never arrive for, is the error.
                let (first, second) = survivor.recv().expect("the survivor finished");
                assert_eq!(first.map(|outcome| outcome.episode), Ok(0));
                assert_eq!(second, Err(BarrierError::Poisoned { episode: 1 }));
                pool.spawn(async {});
                pool.wait_idle();
            });
        }
    }

    #[test]
    fn frontend_counters_are_exact_under_contention() {
        // Four workers race 512 tasks through 200 episodes; every counter
        // is still a count. On central only parking polls and completing
        // arrives take the probe lock; on dissemination everything does.
        const TASKS: usize = 512;
        const EPISODES: u64 = 200;
        for backend in [BarrierChoice::Central, BarrierChoice::Dissemination] {
            with_watchdog(Duration::from_secs(300), move || {
                let barrier = Arc::new(AsyncBarrier::new(
                    backend.build(TASKS, StallPolicy::default()),
                ));
                let pool = AsyncExecutor::new(4);
                let probes = Arc::new(AtomicU64::new(0));
                for id in 0..TASKS {
                    let (barrier, probes) = (Arc::clone(&barrier), Arc::clone(&probes));
                    pool.spawn(async move {
                        let mut own = 0;
                        for episode in 0..EPISODES {
                            let outcome = barrier.arrive_async(id).await.expect("no faults");
                            assert_eq!(outcome.episode, episode);
                            own += outcome.probes;
                        }
                        probes.fetch_add(own, Ordering::Relaxed);
                    });
                }
                pool.wait_idle();
                let frontend = barrier.async_stats();
                assert_eq!(
                    frontend.parked, frontend.resumed,
                    "{backend:?}: {frontend:?}"
                );
                assert!(
                    frontend.wakes <= frontend.parked,
                    "{backend:?}: {frontend:?}"
                );
                assert_eq!(
                    frontend.polls,
                    probes.load(Ordering::Relaxed),
                    "{backend:?}"
                );
                let arrivals = TASKS as u64 * EPISODES;
                assert_eq!(SplitBarrier::stats(barrier.as_ref()).arrivals, arrivals);
                match backend {
                    BarrierChoice::Central => assert!(
                        frontend.drains <= frontend.polls + EPISODES * 4,
                        "{frontend:?}"
                    ),
                    _ => assert_eq!(frontend.drains, frontend.polls + arrivals),
                }
            });
        }
    }

    #[test]
    fn dropping_the_pool_cancels_a_task_parked_on_a_barrier() {
        // The parked task sits in no run queue: only its barrier's
        // registry holds a waker to it. Dropping the pool must still drop
        // its future, which poisons the barrier — or a peer waiting for
        // the cancelled participant's next arrival would hang.
        let barrier = Arc::new(AsyncBarrier::new(CentralBarrier::new(2)));
        let pool = AsyncExecutor::new(1);
        {
            let barrier = Arc::clone(&barrier);
            pool.spawn(async move {
                let _ = barrier.arrive_async(0).await;
            });
        }
        while barrier.async_stats().parked == 0 {
            std::thread::yield_now();
        }
        assert!(!SplitBarrier::is_poisoned(barrier.as_ref()));
        drop(pool);
        assert!(SplitBarrier::is_poisoned(barrier.as_ref()));
        assert_eq!(
            Arc::strong_count(&barrier),
            1,
            "task, future and waker gone"
        );
        // The cancelled arrival still counts: the peer completes episode 0
        // (completion wins over poison), and gets the error on episode 1,
        // which participant 0 will never arrive for.
        let wait = |token| {
            let deadline = Deadline::after(Duration::from_secs(30));
            SplitBarrier::wait_deadline(barrier.as_ref(), token, deadline)
        };
        let outcome = wait(SplitBarrier::arrive(barrier.as_ref(), 1));
        assert_eq!(outcome.map(|o| o.episode), Ok(0));
        let err = wait(SplitBarrier::arrive(barrier.as_ref(), 1)).unwrap_err();
        assert_eq!(err, BarrierError::Poisoned { episode: 1 });
    }

    #[test]
    fn a_dropped_pool_is_freed_however_its_task_ended() {
        // Each row ends one task its own way and hands back the pool's
        // shared state once the pool is gone — for the last row, once a
        // waker held outside the pool has fired too. Still alive means a
        // cycle: through the task's cached waker (`Task → waker → Task →
        // Shared`), or through the run queue a late wake pushed it onto.
        // Not returning means a worker never left its deferred list.
        fn completes() -> Weak<Shared> {
            let pool = AsyncExecutor::new(1);
            pool.spawn(async {});
            pool.wait_idle();
            Arc::downgrade(&pool.shared)
        }
        fn panics() -> Weak<Shared> {
            let pool = AsyncExecutor::new(1);
            pool.spawn(async { panic!("the task failed") });
            assert_eq!(re_raised(&pool), "the task failed");
            Arc::downgrade(&pool.shared)
        }
        fn dropped_while_parked() -> Weak<Shared> {
            let barrier = Arc::new(AsyncBarrier::new(CentralBarrier::new(2)));
            let pool = AsyncExecutor::new(1);
            let parked = Arc::clone(&barrier);
            pool.spawn(async move {
                let _ = parked.arrive_async(0).await;
            });
            while barrier.async_stats().parked == 0 {
                std::thread::yield_now();
            }
            Arc::downgrade(&pool.shared)
        }
        fn dropped_while_deferred() -> Weak<Shared> {
            let pool = AsyncExecutor::new(1);
            let polls = Arc::new(AtomicUsize::new(0));
            let counted = Arc::clone(&polls);
            // Yields on every poll: between polls it is on its worker's
            // deferred list, and there when the pool drops.
            pool.spawn(poll_fn(move |cx| {
                counted.fetch_add(1, Ordering::Relaxed);
                cx.waker().wake_by_ref();
                Poll::<()>::Pending
            }));
            while polls.load(Ordering::Relaxed) < 2 {
                std::thread::yield_now();
            }
            Arc::downgrade(&pool.shared)
        }
        fn woken_after_drop() -> Weak<Shared> {
            let signal = Arc::new(Signal::default());
            let pool = AsyncExecutor::new(1);
            let awaited = Arc::clone(&signal);
            pool.spawn(async move {
                let signal: &Signal = &awaited;
                signal.await;
            });
            while !signal.has_waiter() {
                std::thread::yield_now();
            }
            let shared = Arc::downgrade(&pool.shared);
            drop(pool);
            signal.fire();
            shared
        }
        type Ending = fn() -> Weak<Shared>;
        let rows: [(&str, Ending); 5] = [
            ("completes", completes),
            ("panics", panics),
            ("dropped while parked", dropped_while_parked),
            ("dropped while deferred", dropped_while_deferred),
            ("woken after drop", woken_after_drop),
        ];
        for (name, row) in rows {
            with_watchdog(Duration::from_secs(60), move || {
                assert!(row().upgrade().is_none(), "{name}: the pool leaked");
            });
        }
    }
}

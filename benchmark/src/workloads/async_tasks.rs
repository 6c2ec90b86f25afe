//! `async_tasks`: 256 logical participants on one worker thread, the
//! process pinned to one CPU. The untraced run calls `run_async_episodes`;
//! the traced run is the benchmark's own copy of that loop with a span
//! around each call.
//!
//! One worker, not the two cores' worth: with two, the workers convoy on
//! the frontend's probe lock and the run-queue mutexes, an episode costs
//! 1.6 times what it costs one worker, and that cost followed the host's
//! scheduling of its two CPUs (samples of one run between 470 and 900 us,
//! run medians a quarter apart). One pinned worker repeats within 3 %.
//! Only `sched.async_exec.steals_per_episode` still comes from a
//! two-worker sample, since one worker has nobody to steal from.

use super::{publish_spans, span_summary, time_setups, Ctx, EndToEnd};
use crate::host;
use crate::pair::Tally;
use crate::spec::Ledger;
use crate::stats::Summary;
use crate::trace::{Kind, Rec, SpanBuf, NO_PARENT};
use fuzzy_barrier::{
    AsyncBarrier, AsyncSnapshot, BarrierError, SplitBarrier, StallPolicy, WaitOutcome,
};
use fuzzy_sched::async_exec::{run_async_episodes, AsyncExecutor, AsyncRunReport};
use fuzzy_sched::executor::BarrierChoice;
use fuzzy_util::SplitMix64;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};
use std::time::Instant;

const WORKERS: usize = 1;
/// Workers of the sample that counts steals.
const STEALING_WORKERS: usize = 2;
const TASKS: usize = 256;
/// Episodes per sample; one sample is one `run_async_episodes` call.
const EPISODES: u64 = 500;
const REGION_UNITS: u64 = 16;
/// Spans a task records per episode at most: the episode, `arrive`,
/// `region` and its polls (about two; a woken task may poll early).
const SPANS_PER_EPISODE: usize = 12;

fn episodes(ctx: &Ctx) -> u64 {
    if ctx.quick() {
        20
    } else {
        EPISODES
    }
}

type Backend = Arc<dyn SplitBarrier>;

/// The barrier `run_async_episodes` builds for a central backend.
fn barrier() -> Arc<AsyncBarrier<Backend>> {
    let inner = BarrierChoice::Central.build(TASKS, StallPolicy::default());
    Arc::new(AsyncBarrier::new(inner).with_help_rounds(0))
}

/// Keeps the process on one CPU, so the worker neither migrates nor
/// shares a core with a neighbour's load half of the time.
fn pin() {
    match host::pin_to_one_cpu() {
        Some(cpu) => println!("  pinned to CPU {cpu}"),
        None => println!("  not pinned: the host allows no affinity change"),
    }
}

/// One untraced sample on `workers` threads, checked against the
/// barrier's own counts.
fn report(workers: usize, seed: u64, episodes: u64, tally: &mut Tally) -> AsyncRunReport {
    let report = run_async_episodes(
        workers,
        TASKS,
        episodes,
        REGION_UNITS,
        BarrierChoice::Central,
        StallPolicy::default(),
        seed,
    );
    tally.attempted += episodes * TASKS as u64;
    if report.barrier.episodes != episodes || report.barrier.arrivals != episodes * TASKS as u64 {
        tally.fail(format!(
            "{} episodes and {} arrivals completed, expected {episodes} and {}",
            report.barrier.episodes,
            report.barrier.arrivals,
            episodes * TASKS as u64
        ));
    }
    if report.frontend.parked != report.frontend.resumed {
        tally.fail(format!(
            "{} futures parked but {} resumed",
            report.frontend.parked, report.frontend.resumed
        ));
    }
    report
}

/// One untraced sample: ns per episode.
fn sample(seed: u64, episodes: u64, tally: &mut Tally) -> f64 {
    report(WORKERS, seed, episodes, tally).elapsed.as_nanos() as f64 / episodes as f64
}

/// Samples until `seconds` have been measured (two at least).
fn samples(ctx: &Ctx, seconds: f64, tally: &mut Tally) -> Vec<f64> {
    let episodes = episodes(ctx);
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        out.push(sample(ctx.seed, episodes, tally));
    }
    out
}

pub fn end_to_end(ctx: &Ctx) -> Result<EndToEnd, String> {
    pin();
    // Before the first episode: the calibration, the barrier, the pool
    // and its 256 tasks.
    let (setup_s, ()) = time_setups(|| {
        host::calibrate_busy();
        let barrier = barrier();
        let pool = AsyncExecutor::new(WORKERS);
        for _ in 0..TASKS {
            let barrier = Arc::clone(&barrier);
            pool.spawn(async move { drop(barrier) });
        }
        pool.wait_idle();
        Ok(())
    })?;
    let mut tally = Tally::default();
    sample(ctx.seed, episodes(ctx) / 4, &mut tally);
    let mut episode_ns = samples(ctx, ctx.seconds, &mut tally);
    Ok(EndToEnd {
        setup_s,
        episode_ns: Summary::of(&mut episode_ns),
        tally,
    })
}

/// Awaits `inner`, recording each poll as a span.
struct Polled<'a, F> {
    inner: F,
    rec: &'a mut Rec<true>,
    parent: u32,
    episode: u64,
}

impl<F: Future + Unpin> Future for Polled<'_, F> {
    type Output = F::Output;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let this = Pin::into_inner(self);
        let (parent, episode) = (this.parent, this.episode);
        let inner = &mut this.inner;
        this.rec
            .timed(Kind::Poll, parent, episode, || Pin::new(inner).poll(cx))
    }
}

/// What one traced sample leaves behind.
struct TracedSample {
    episode_ns: f64,
    bufs: Vec<SpanBuf>,
    frontend: AsyncSnapshot,
    arrivals: u64,
}

fn check(
    id: usize,
    episode: u64,
    outcome: Result<WaitOutcome, BarrierError>,
    slots: &[AtomicU64],
) -> Result<(), String> {
    let released = outcome.map_err(|e| format!("task {id}: {e}"))?.episode;
    if released != episode {
        return Err(format!(
            "task {id}: released from episode {released}, expected {episode}"
        ));
    }
    if slots[(id + 1) % TASKS].load(Ordering::Relaxed) <= episode {
        return Err(format!(
            "task {id}: peer's write before arrive({episode}) not visible after its release"
        ));
    }
    Ok(())
}

/// The loop of `run_async_episodes` (same barrier, pool, jitter stream)
/// with spans: `spawn` per task, and per episode `arrive`, `region` and
/// each `poll` under the episode's own span.
fn traced_sample(seed: u64, episodes: u64, tally: &mut Tally) -> TracedSample {
    let barrier = barrier();
    let pool = AsyncExecutor::new(WORKERS);
    let slots: Arc<Vec<AtomicU64>> = Arc::new((0..TASKS).map(|_| AtomicU64::new(0)).collect());
    let finished: Arc<Mutex<Vec<(SpanBuf, Tally)>>> = Arc::default();
    let mut spawner = Rec::<true>::new(TASKS as u32, TASKS);
    let start = Instant::now();
    for id in 0..TASKS {
        let (barrier, slots, finished) = (
            Arc::clone(&barrier),
            Arc::clone(&slots),
            Arc::clone(&finished),
        );
        let capacity = episodes as usize * SPANS_PER_EPISODE;
        let task = async move {
            let mut rec = Rec::<true>::new(id as u32, capacity);
            let mut rng = SplitMix64::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37));
            let mut tally = Tally::default();
            for e in 0..episodes {
                tally.attempted += 1;
                let parent = rec.open(Kind::Episode, NO_PARENT, e);
                slots[id].store(e + 1, Ordering::Relaxed);
                let future = rec.timed(Kind::Arrive, parent, e, || barrier.arrive_async(id));
                let jitter = rng.range_u64(0, 2 * REGION_UNITS);
                rec.timed(Kind::Region, parent, e, || host::work(jitter));
                let outcome = Polled {
                    inner: future,
                    rec: &mut rec,
                    parent,
                    episode: e,
                }
                .await;
                rec.close(parent);
                if let Err(message) = check(id, e, outcome, &slots) {
                    tally.fail(message);
                }
            }
            finished
                .lock()
                .expect("no task panics while holding the lock")
                .push((rec.finish(), tally));
        };
        spawner.timed(Kind::Spawn, NO_PARENT, 0, || pool.spawn(task));
    }
    pool.wait_idle();
    let episode_ns = start.elapsed().as_nanos() as f64 / episodes as f64;
    let mut frontend = barrier.async_stats();
    frontend.merge(&pool.stats());
    let mut bufs = vec![spawner.finish()];
    let mut finished = finished.lock().expect("every task has finished");
    finished.sort_by_key(|(buf, _)| buf.tid);
    for (buf, task_tally) in finished.drain(..) {
        if buf.dropped > 0 {
            tally.fail(format!("task {}: {} spans dropped", buf.tid, buf.dropped));
        }
        tally.absorb(task_tally);
        bufs.push(buf);
    }
    TracedSample {
        episode_ns,
        bufs,
        frontend,
        arrivals: SplitBarrier::stats(barrier.as_ref()).arrivals,
    }
}

/// Per episode, the time from the last `arrive_async` returning to the
/// last task's final poll returning.
fn release_fanout_ns(bufs: &[SpanBuf], episodes: u64) -> Vec<f64> {
    let mut last_arrive = vec![0u64; episodes as usize];
    let mut last_poll = vec![0u64; episodes as usize];
    for span in bufs.iter().flat_map(|b| &b.spans) {
        let slot = match span.kind {
            Kind::Arrive => &mut last_arrive[span.episode as usize],
            Kind::Poll => &mut last_poll[span.episode as usize],
            _ => continue,
        };
        *slot = (*slot).max(span.end_ns);
    }
    last_arrive
        .iter()
        .zip(&last_poll)
        .map(|(arrive, poll)| poll.saturating_sub(*arrive) as f64)
        .collect()
}

pub fn traced(ctx: &Ctx, ledger: &mut Ledger) -> Result<Tally, String> {
    // Before this thread is pinned: the two workers get both CPUs.
    let mut tally = Tally::default();
    let steals = report(STEALING_WORKERS, ctx.seed, episodes(ctx), &mut tally)
        .frontend
        .steals;
    pin();
    let busy_unit_ns = host::calibrate_busy();
    let episodes = episodes(ctx);
    sample(ctx.seed, episodes / 4, &mut tally);
    let mut untraced = samples(ctx, 0.4 * ctx.seconds, &mut tally);
    let t = traced_sample(ctx.seed, episodes, &mut tally);
    publish_spans("async_tasks", &t.bufs)?;

    for (name, kind) in [
        ("core.async_wait.arrive_async_ns_p50", Kind::Arrive),
        ("core.async_wait.poll_ns_p50", Kind::Poll),
        ("sched.async_exec.spawn_ns_p50", Kind::Spawn),
    ] {
        ledger.put_timing(name, &span_summary(&t.bufs, kind));
    }
    ledger.put_timing(
        "core.async_wait.release_fanout_ns_p50",
        &Summary::of(&mut release_fanout_ns(&t.bufs, episodes)),
    );
    let arrivals = t.arrivals.max(1) as f64;
    ledger.put(
        "core.async_wait.polls_per_arrival",
        t.frontend.polls as f64 / arrivals,
    );
    ledger.put(
        "core.async_wait.parked_frac",
        t.frontend.parked as f64 / arrivals,
    );
    ledger.put(
        "sched.async_exec.steals_per_episode",
        steals as f64 / episodes as f64,
    );
    ledger.put("sched.executor.busy_unit_ns", busy_unit_ns);
    ledger.put(
        "bench.trace_overhead_frac",
        t.episode_ns / Summary::of(&mut untraced).median - 1.0,
    );
    Ok(tally)
}

//! Experiment E17 — async frontend scale: M logical participants over N
//! worker threads.
//!
//! The paper's fuzzy barrier assumes one processor per participant; the
//! async frontend removes that assumption. Each logical participant is a
//! future (`arrive → region work → await release`) parked by waker
//! registration instead of a spinning OS thread, so `M ≫ N` participants
//! complete fuzzy episodes on a fixed worker pool. This sweep measures
//! the frontend's bookkeeping cost — polls, yields, parks, wakes, drains,
//! steals, and wall-clock time per arrival — as M grows from 64 to 4096 over
//! pools of 2, 4 and 8 workers; the full sweep asserts that an arrival at
//! M = 4096 costs at most [`SCALE_BOUND`]× one at M = 64 (the frontend is
//! O(1) per participant, so the ratio is a shape, not a host speed); and
//! it proves liveness: the largest configuration is re-run under five
//! different arrival-jitter seeds and must complete every episode with
//! `parked == resumed` (every parked task was woken exactly once per
//! park; a lost wakeup would hang the run instead). Every row also
//! asserts who took the frontend's probe lock: on the central backend
//! only a poll or an arrive that reads a completed release word drains,
//! so `drains <= polls + episodes × workers` (at most one arrival per
//! worker can read a just-completed word); a frontend that drains on
//! every arrive has `drains ≈ polls + arrivals` and fails it.
//!
//! ```text
//! exp_async_scale [--quick] [--stats-json <path>]
//! ```

use fuzzy_barrier::StallPolicy;
use fuzzy_bench::{banner, quick_arg, StatsExport, Table};
use fuzzy_sched::{run_async_episodes, AsyncRunReport, BarrierChoice};
use fuzzy_util::Json;

const EPISODES: u64 = 8;
const QUICK_EPISODES: u64 = 4;
const REGION_UNITS: u64 = 4;
const LIVENESS_SEEDS: u64 = 5;
/// Most that one arrival at the largest M may cost, in units of one
/// arrival at the smallest M, both on [`SCALE_WORKERS`] workers. A
/// registry that visits every parked waiter per drain lands near 60×.
const SCALE_BOUND: f64 = 8.0;
const SCALE_WORKERS: usize = 2;
/// Runs per side of the scale check; the fastest counts (two workers on a
/// shared two-core host convoy on the probe lock now and then).
const SCALE_REPEATS: usize = 3;

struct Row {
    tasks: usize,
    workers: usize,
    episodes: u64,
    arrivals: u64,
    parked: u64,
    resumed: u64,
    steals: u64,
    polls: u64,
    yields: u64,
    wakes: u64,
    drains: u64,
    elapsed_ms: f64,
}

impl Row {
    fn per_arrival(&self, count: u64) -> f64 {
        count as f64 / self.arrivals.max(1) as f64
    }

    fn ns_per_arrival(&self) -> f64 {
        self.elapsed_ms * 1e6 / self.arrivals.max(1) as f64
    }
}

fn measure(tasks: usize, workers: usize, episodes: u64, seed: u64) -> Row {
    let report: AsyncRunReport = run_async_episodes(
        workers,
        tasks,
        episodes,
        REGION_UNITS,
        BarrierChoice::Central,
        StallPolicy::Spin,
        seed,
    );
    let f = &report.frontend;
    assert_eq!(
        report.barrier.arrivals,
        tasks as u64 * episodes,
        "every logical participant must arrive every episode"
    );
    assert_eq!(
        f.parked, f.resumed,
        "a parked task that never resumed is a lost wakeup"
    );
    assert!(
        f.drains <= f.polls + episodes * workers as u64,
        "M={tasks} N={workers}: {} drains for {} polls: an arrive that completed \
         nothing took the probe lock",
        f.drains,
        f.polls
    );
    Row {
        tasks,
        workers,
        episodes: report.barrier.episodes,
        arrivals: report.barrier.arrivals,
        parked: f.parked,
        resumed: f.resumed,
        steals: f.steals,
        polls: f.polls,
        yields: f.yields,
        wakes: f.wakes,
        drains: f.drains,
        elapsed_ms: report.elapsed.as_secs_f64() * 1e3,
    }
}

fn row_json(r: &Row) -> Json {
    Json::obj()
        .field("tasks", r.tasks)
        .field("workers", r.workers)
        .field("episodes", r.episodes)
        .field("arrivals", r.arrivals)
        .field("parked", r.parked)
        .field("resumed", r.resumed)
        .field("steals", r.steals)
        .field("polls", r.polls)
        .field("yields", r.yields)
        .field("wakes", r.wakes)
        .field("drains", r.drains)
        .field("polls_per_arrival", r.per_arrival(r.polls))
        .field("yields_per_arrival", r.per_arrival(r.yields))
        .field("elapsed_ms", r.elapsed_ms)
}

fn main() {
    let quick = quick_arg("exp_async_scale");
    let mut export = StatsExport::from_env("async_scale");
    banner(
        "E17: async frontend scale — M logical participants over N workers",
        "beyond the one-processor-per-participant model of Gupta, ASPLOS 1989",
    );
    let (ms, ns, episodes): (&[usize], &[usize], u64) = if quick {
        (&[64, 256], &[2, 4], QUICK_EPISODES)
    } else {
        (&[64, 256, 1024, 4096], &[2, 4, 8], EPISODES)
    };
    println!(
        "\n{episodes} episodes per configuration, central backend, region jitter in\n\
         [0, {}] busy units per episode; every row asserts parked == resumed\n\
         and drains <= polls + episodes x workers.\n",
        2 * REGION_UNITS
    );

    let mut t = Table::new([
        "tasks",
        "workers",
        "parked",
        "steals",
        "polls/arrival",
        "yields/arrival",
        "wakes",
        "elapsed ms",
        "ns/arrival",
    ]);
    let mut rows: Vec<Row> = Vec::new();
    for &m in ms {
        for &n in ns {
            let row = measure(m, n, episodes, 0xA5);
            t.row([
                row.tasks.to_string(),
                row.workers.to_string(),
                row.parked.to_string(),
                row.steals.to_string(),
                format!("{:.2}", row.per_arrival(row.polls)),
                format!("{:.2}", row.per_arrival(row.yields)),
                row.wakes.to_string(),
                format!("{:.1}", row.elapsed_ms),
                format!("{:.0}", row.ns_per_arrival()),
            ]);
            rows.push(row);
        }
    }
    println!("{}", t.render());

    // The scale claim, as a ratio of two configurations of this very run.
    // Only the full sweep reaches an M where a per-drain walk of the
    // registry would show.
    if !quick {
        let at = |tasks: usize| {
            (0..SCALE_REPEATS)
                .map(|_| measure(tasks, SCALE_WORKERS, episodes, 0xA5).ns_per_arrival())
                .fold(f64::INFINITY, f64::min)
        };
        let (small, large) = (ms[0], *ms.last().unwrap());
        let ratio = at(large) / at(small);
        println!(
            "\nns/arrival at M={large} is {ratio:.2}x that at M={small} \
             ({SCALE_WORKERS} workers, best of {SCALE_REPEATS}; bound {SCALE_BOUND}x)"
        );
        assert!(
            ratio <= SCALE_BOUND,
            "time per arrival grows with the number of parked tasks"
        );
    }

    // Liveness: the largest configuration re-run under distinct jitter
    // seeds. Arrival order, parking pattern and steal pattern all change
    // with the seed; completion must not. A lost wakeup hangs the run, so
    // merely returning from all five is the deadlock-freedom proof.
    let (live_tasks, live_workers) = (*ms.last().unwrap(), 4.min(*ns.last().unwrap()));
    let mut live_seeds = 0u64;
    for seed in 1..=LIVENESS_SEEDS {
        let row = measure(live_tasks, live_workers, episodes, seed);
        println!(
            "liveness seed {seed}: M={live_tasks} N={live_workers} completed \
             ({} parked, {} wakes, {:.1} ms)",
            row.parked, row.wakes, row.elapsed_ms
        );
        live_seeds += 1;
    }
    println!(
        "\nM={live_tasks} on N={live_workers} workers: {live_seeds}/{LIVENESS_SEEDS} seeds \
         deadlock-free: OK"
    );

    export.section(
        "config",
        Json::obj()
            .field("episodes", episodes)
            .field("region_units", REGION_UNITS)
            .field("quick", quick)
            .field("liveness_seeds", LIVENESS_SEEDS),
    );
    export.section("sweep", Json::Arr(rows.iter().map(row_json).collect()));
    export.section(
        "verdict",
        Json::obj()
            .field("deadlock_free_seeds", live_seeds)
            .field("parked_equals_resumed", true),
    );
    export.finish();
}

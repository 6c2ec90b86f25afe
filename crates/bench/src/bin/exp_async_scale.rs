//! Experiment E17 — async frontend scale: M logical participants over N
//! worker threads.
//!
//! The paper's fuzzy barrier assumes one processor per participant; the
//! async frontend removes that assumption. Each logical participant is a
//! future (`arrive → region work → await release`) parked by waker
//! registration instead of a spinning OS thread, so `M ≫ N` participants
//! complete fuzzy episodes on a fixed worker pool. This sweep measures
//! the frontend's bookkeeping cost — polls, parks, wakes, drains, steals,
//! and wall-clock time per arrival — as M grows from 64 to 4096 over
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
//! exp_async_scale --compare <fresh.json> --baseline <base.json>
//!                 [--tolerance <x>]
//! ```
//!
//! Compare mode re-reads two exports and fails (exit 1) if any fresh
//! `polls_per_arrival` exceeds its baseline row by more than the
//! multiplicative tolerance (elapsed time is held to `4×` the tolerance —
//! wall clock on a shared box is far noisier than poll counts).

use fuzzy_barrier::StallPolicy;
use fuzzy_bench::{banner, StatsExport, Table};
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
/// Poll-count slack added on top of the ratio check so near-minimal
/// baselines (every future ready on first poll) cannot fail on noise.
const POLL_SLACK: f64 = 4.0;
/// Elapsed-time slack, milliseconds.
const ELAPSED_SLACK_MS: f64 = 500.0;

struct Row {
    tasks: usize,
    workers: usize,
    episodes: u64,
    arrivals: u64,
    parked: u64,
    resumed: u64,
    steals: u64,
    polls: u64,
    wakes: u64,
    drains: u64,
    polls_per_arrival: f64,
    elapsed_ms: f64,
}

impl Row {
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
        wakes: f.wakes,
        drains: f.drains,
        polls_per_arrival: f.polls as f64 / report.barrier.arrivals.max(1) as f64,
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
        .field("wakes", r.wakes)
        .field("drains", r.drains)
        .field("polls_per_arrival", r.polls_per_arrival)
        .field("elapsed_ms", r.elapsed_ms)
}

fn usage() -> ! {
    eprintln!(
        "usage: exp_async_scale [--quick] [--stats-json <path>]\n\
         \x20      exp_async_scale --compare <fresh.json> --baseline <base.json>\n\
         \x20                      [--tolerance <x>]"
    );
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut compare: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut tolerance = 8.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("exp_async_scale: {name} needs a value");
                usage();
            })
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--compare" => compare = Some(value("--compare")),
            "--baseline" => baseline = Some(value("--baseline")),
            "--tolerance" => {
                tolerance = value("--tolerance").parse().unwrap_or_else(|_| {
                    eprintln!("exp_async_scale: --tolerance wants a number");
                    usage();
                });
            }
            "--stats-json" => {
                let _ = value("--stats-json"); // consumed again by StatsExport
            }
            other if other.starts_with("--stats-json=") => {}
            "--help" | "-h" => usage(),
            other => {
                eprintln!("exp_async_scale: unknown argument {other:?}");
                usage();
            }
        }
    }

    if let Some(fresh) = compare {
        let Some(base) = baseline else {
            eprintln!("exp_async_scale: --compare needs --baseline");
            usage();
        };
        std::process::exit(run_compare(&fresh, &base, tolerance));
    }
    if baseline.is_some() {
        eprintln!("exp_async_scale: --baseline only makes sense with --compare");
        usage();
    }

    run_sweep(quick);
}

fn run_sweep(quick: bool) {
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
                format!("{:.2}", row.polls_per_arrival),
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

// ---------------------------------------------------------------------------
// Compare mode (the perf gate)
// ---------------------------------------------------------------------------

fn load_sweep(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: malformed JSON: {e}"))?;
    let sweep = doc
        .get("sweep")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no `sweep` array"))?;
    Ok(sweep.to_vec())
}

fn row_key(row: &Json) -> Option<(u64, u64)> {
    let tasks = row.get("tasks").and_then(Json::as_f64)? as u64;
    let workers = row.get("workers").and_then(Json::as_f64)? as u64;
    Some((tasks, workers))
}

fn metric(row: &Json, key: &str) -> Option<f64> {
    row.get(key).and_then(Json::as_f64)
}

fn run_compare(fresh_path: &str, base_path: &str, tolerance: f64) -> i32 {
    let (fresh, base) = match (load_sweep(fresh_path), load_sweep(base_path)) {
        (Ok(f), Ok(b)) => (f, b),
        (f, b) => {
            for err in [f.err(), b.err()].into_iter().flatten() {
                eprintln!("exp_async_scale: {err}");
            }
            return 1;
        }
    };
    // (metric, multiplicative tolerance, absolute slack) — elapsed time is
    // held to a looser bound because wall clock on a shared box swings far
    // more than poll counts do.
    let checks = [
        ("polls_per_arrival", tolerance, POLL_SLACK),
        ("elapsed_ms", tolerance * 4.0, ELAPSED_SLACK_MS),
    ];
    let mut failures = 0usize;
    let mut compared = 0usize;
    for fresh_row in &fresh {
        let Some(key) = row_key(fresh_row) else {
            eprintln!("exp_async_scale: {fresh_path}: malformed sweep row");
            failures += 1;
            continue;
        };
        let Some(base_row) = base.iter().find(|r| row_key(r).as_ref() == Some(&key)) else {
            // The baseline is the full sweep; a quick fresh run must be a
            // subset of it.
            eprintln!(
                "exp_async_scale: no baseline row for M={} N={} — regenerate the baseline",
                key.0, key.1
            );
            failures += 1;
            continue;
        };
        compared += 1;
        for (name, tol, slack) in checks {
            let (Some(f), Some(b)) = (metric(fresh_row, name), metric(base_row, name)) else {
                eprintln!(
                    "exp_async_scale: missing metric {name} for M={} N={}",
                    key.0, key.1
                );
                failures += 1;
                continue;
            };
            let allowed = b * tol + slack;
            if f > allowed {
                eprintln!(
                    "REGRESSION M={} N={} {name}: fresh {f:.2} > allowed {allowed:.2} \
                     (baseline {b:.2} x{tol:.1} + {slack:.0})",
                    key.0, key.1
                );
                failures += 1;
            }
        }
    }
    if compared == 0 {
        eprintln!("exp_async_scale: nothing compared — empty sweep?");
        return 1;
    }
    if failures == 0 {
        println!(
            "exp_async_scale: {compared} row(s) within tolerance x{tolerance:.1} of {base_path}"
        );
        0
    } else {
        eprintln!("exp_async_scale: {failures} gate failure(s)");
        1
    }
}

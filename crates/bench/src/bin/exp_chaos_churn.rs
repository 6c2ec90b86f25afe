//! Experiment E18 — dynamic-membership chaos churn.
//!
//! The paper's barrier hardware assumes a fixed processor set for the
//! life of a program. The `ReconfigBarrier` drops that assumption:
//! members join and leave between episodes, crashes are evicted, and a
//! join takes effect at an episode boundary nobody has arrived past. This
//! experiment stress-drives that machinery with the real-thread chaos
//! harness (`fuzzy_sched::chaos`): a seeded driver injects thousands of
//! mixed events — joins, leaves, crashes, stutter delays, spurious
//! timeout probes — into live episode traffic over every backend, on
//! both the one-thread-per-member runtime and the M:N async executor.
//!
//! Asserted per run:
//!
//! * **liveness** — every injected event is followed by an epoch
//!   turnover within the watchdog budget (no deadlocks, no lost
//!   wakeups);
//! * **agreement** — at drain, the surviving members agree on the final
//!   release epoch and the membership count matches the driver's books;
//! * **determinism** — equal seeds schedule equal event mixes.
//!
//! Reported: the event mix, episodes completed, final epoch/membership,
//! and a recovery-latency histogram (event injection to the next epoch
//! turnover) exported in the standard `stall_hist` JSON format.

use fuzzy_bench::{banner, StatsExport, Table};
use fuzzy_sched::{run_chaos, BarrierChoice, ChaosConfig, ChaosMode, ChaosReport};
use fuzzy_util::Json;

/// The five production backends under churn.
const BACKENDS: [(&str, BarrierChoice); 5] = [
    ("central", BarrierChoice::Central),
    ("counting", BarrierChoice::Counting),
    ("dissemination", BarrierChoice::Dissemination),
    ("tree", BarrierChoice::Tree { fan_in: 2 }),
    ("hier", BarrierChoice::Hier { shard_size: 2 }),
];

/// Worker threads backing the async runs.
const ASYNC_WORKERS: usize = 3;

struct Config {
    seed: u64,
    events_per_run: usize,
    quick: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: exp_chaos_churn [--seed S] [--events N] [--quick] [--stats-json FILE]\n\
         \x20 --seed S     event-schedule seed (default 7)\n\
         \x20 --events N   churn events per (backend, mode) run (default 500)\n\
         \x20 --quick      CI smoke: 120 events per run"
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut cfg = Config {
        seed: 7,
        events_per_run: 500,
        quick: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("exp_chaos_churn: {name} needs a value");
                usage();
            })
        };
        match arg.as_str() {
            "--seed" => {
                cfg.seed = value("--seed").parse().unwrap_or_else(|_| usage());
            }
            "--events" => {
                cfg.events_per_run = value("--events").parse().unwrap_or_else(|_| usage());
                if cfg.events_per_run == 0 {
                    usage();
                }
            }
            "--quick" => cfg.quick = true,
            "--stats-json" => {
                let _ = value("--stats-json"); // consumed by StatsExport
            }
            other if other.starts_with("--stats-json=") => {}
            "--help" | "-h" => usage(),
            other => {
                eprintln!("exp_chaos_churn: unknown argument {other:?}");
                usage();
            }
        }
    }
    if cfg.quick {
        cfg.events_per_run = 120;
    }
    cfg
}

/// One (backend, mode) chaos run at `events` churn events.
fn run_one(backend: BarrierChoice, mode: ChaosMode, seed: u64, events: usize) -> ChaosReport {
    let mut config = ChaosConfig::smoke(backend, mode, seed);
    config.events = events;
    run_chaos(config)
}

fn run_json(name: &str, report: &ChaosReport) -> Json {
    Json::obj()
        .field("backend", name)
        .field("mode", report.mode.name())
        .field(
            "events",
            Json::obj()
                .field("joins", report.events.joins)
                .field("leaves", report.events.leaves)
                .field("crashes", report.events.crashes)
                .field("delays", report.events.delays)
                .field("spurious", report.events.spurious)
                .field("total", report.events.total()),
        )
        .field("episodes", report.episodes)
        .field("final_epoch", report.final_epoch)
        .field("final_members", report.final_members)
        .field("agreement", report.agreement)
        .field("spurious_hits", report.spurious_hits)
        .field("elapsed_ms", report.elapsed.as_millis() as u64)
        .field("recovery", report.recovery.to_json("ns"))
}

fn main() {
    let cfg = parse_args();
    // The harness injects contained panics to simulate member crashes;
    // without a filter every one prints a backtrace. Silence exactly
    // those and keep the default reporting for everything real.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("chaos: injected crash"));
        if !injected {
            default_hook(info);
        }
    }));
    let mut export = StatsExport::from_env("chaos_churn");
    banner(
        "E18: dynamic-membership chaos churn",
        "epoch-boundary reconfiguration under the paper's episode model",
    );
    println!(
        "seed {}, {} events per run, {} backends x 2 modes\n",
        cfg.seed,
        cfg.events_per_run,
        BACKENDS.len()
    );

    let mut table = Table::new([
        "backend",
        "mode",
        "events",
        "joins",
        "leaves",
        "crashes",
        "delays",
        "spurious",
        "episodes",
        "final epoch",
        "members",
        "elapsed (ms)",
    ]);
    let mut rows = Vec::new();
    let mut total_events = 0u64;
    let mut all_agreed = true;
    for (name, backend) in BACKENDS {
        for mode in [
            ChaosMode::Threaded,
            ChaosMode::Async {
                workers: ASYNC_WORKERS,
            },
        ] {
            eprintln!("running {name}/{} ...", mode.name());
            let report = run_one(backend, mode, cfg.seed, cfg.events_per_run);
            assert!(
                report.agreement,
                "{name}/{}: survivors disagree on the final epoch or membership",
                mode.name()
            );
            assert_eq!(
                report.events.total(),
                cfg.events_per_run as u64,
                "{name}/{}: every scheduled event must inject",
                mode.name()
            );
            assert!(
                report.episodes >= report.events.total(),
                "{name}/{}: every event is followed by an epoch turnover",
                mode.name()
            );
            total_events += report.events.total();
            all_agreed &= report.agreement;
            table.row([
                name.to_string(),
                report.mode.name().to_string(),
                report.events.total().to_string(),
                report.events.joins.to_string(),
                report.events.leaves.to_string(),
                report.events.crashes.to_string(),
                report.events.delays.to_string(),
                report.events.spurious.to_string(),
                report.episodes.to_string(),
                report.final_epoch.to_string(),
                report.final_members.to_string(),
                report.elapsed.as_millis().to_string(),
            ]);
            rows.push(run_json(name, &report));
        }
    }
    println!("{}", table.render());

    // Determinism spot check: the event schedule is a pure function of
    // the seed, so a repeat run must inject the identical mix.
    let a = run_one(BarrierChoice::Central, ChaosMode::Threaded, cfg.seed, 120);
    let b = run_one(BarrierChoice::Central, ChaosMode::Threaded, cfg.seed, 120);
    assert_eq!(a.events, b.events, "equal seeds schedule equal events");
    println!(
        "determinism: seed {} re-run injects the identical event mix ({:?})",
        cfg.seed, a.events
    );
    println!(
        "\nverdict: {} runs, {} total events, all agreed: {}",
        rows.len(),
        total_events,
        all_agreed
    );

    if export.enabled() {
        export.section(
            "config",
            Json::obj()
                .field("seed", cfg.seed)
                .field("events_per_run", cfg.events_per_run as u64)
                .field("quick", cfg.quick),
        );
        export.section("runs", Json::Arr(rows));
        export.section(
            "verdict",
            Json::obj()
                .field("runs", 2 * BACKENDS.len() as u64)
                .field("total_events", total_events)
                .field("all_agreed", all_agreed),
        );
    }
    export.finish();
}

//! `check` — command-line front end for the fuzzy-check model checker.
//!
//! ```text
//! check [--backend central|counting|dissemination|tree|hier|all]
//!       [--scenario protocol|subset|registry|poison|evict|async|reconfig|net|all]
//!       [-n/--participants N] [--episodes E]
//!       [--mode dfs|random] [--schedules N] [--seed S]
//!       [--preemptions N|unlimited]
//!       [--replay T0,T1,...] [--trace]
//! ```
//!
//! Exit codes: 0 = all explorations passed, 1 = a violation was found,
//! 2 = usage error.

use fuzzy_check::{
    explore_dfs, explore_random, replay, BackendKind, ExploreOptions, Outcome, Scenario,
    DEFAULT_STEP_LIMIT,
};
use std::time::Instant;

#[derive(Debug, Clone)]
struct Config {
    backends: Vec<BackendKind>,
    scenarios: Vec<String>,
    participants: usize,
    episodes: u64,
    mode: Mode,
    schedules: usize,
    seed: u64,
    preemptions: Option<usize>,
    replay_schedule: Option<Vec<usize>>,
    trace: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Dfs,
    Random,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            backends: BackendKind::ALL.to_vec(),
            scenarios: vec!["protocol".into()],
            participants: 3,
            episodes: 2,
            mode: Mode::Dfs,
            schedules: 10_000,
            seed: 0xF022_BA44,
            preemptions: None,
            replay_schedule: None,
            trace: false,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: check [--backend central|counting|dissemination|tree|hier|all]\n\
         \x20            [--scenario protocol|subset|registry|poison|evict|async|reconfig|net|all]\n\
         \x20            [-n|--participants N] [--episodes E]\n\
         \x20            [--mode dfs|random] [--schedules N] [--seed S]\n\
         \x20            [--preemptions N|unlimited]\n\
         \x20            [--replay T0,T1,...] [--trace]"
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut cfg = Config::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("check: {name} needs a value");
                usage();
            })
        };
        match arg.as_str() {
            "--backend" => {
                let v = value("--backend");
                cfg.backends = if v == "all" {
                    BackendKind::ALL.to_vec()
                } else {
                    match BackendKind::parse(&v) {
                        Some(b) => vec![b],
                        None => {
                            eprintln!("check: unknown backend {v:?}");
                            usage();
                        }
                    }
                };
            }
            "--scenario" => {
                let v = value("--scenario");
                match v.as_str() {
                    "all" => {
                        cfg.scenarios = vec![
                            "protocol".into(),
                            "subset".into(),
                            "registry".into(),
                            "poison".into(),
                            "evict".into(),
                            "async".into(),
                            "reconfig".into(),
                            "net".into(),
                        ];
                    }
                    "protocol" | "subset" | "registry" | "poison" | "evict" | "async"
                    | "reconfig" | "net" => {
                        cfg.scenarios = vec![v];
                    }
                    _ => {
                        eprintln!("check: unknown scenario {v:?}");
                        usage();
                    }
                }
            }
            "-n" | "--participants" => {
                cfg.participants = parse_num(&value("--participants"));
                if cfg.participants == 0 {
                    eprintln!("check: need at least one participant");
                    usage();
                }
            }
            "--episodes" => cfg.episodes = parse_num(&value("--episodes")) as u64,
            "--mode" => match value("--mode").as_str() {
                "dfs" => cfg.mode = Mode::Dfs,
                "random" => cfg.mode = Mode::Random,
                v => {
                    eprintln!("check: unknown mode {v:?}");
                    usage();
                }
            },
            "--schedules" => cfg.schedules = parse_num(&value("--schedules")),
            "--seed" => cfg.seed = parse_num(&value("--seed")) as u64,
            "--preemptions" => {
                let v = value("--preemptions");
                cfg.preemptions = if v == "unlimited" {
                    None
                } else {
                    Some(parse_num(&v))
                };
            }
            "--replay" => {
                let v = value("--replay");
                let parsed: Option<Vec<usize>> =
                    v.split(',').map(|s| s.trim().parse().ok()).collect();
                match parsed {
                    Some(schedule) if !schedule.is_empty() => {
                        cfg.replay_schedule = Some(schedule);
                    }
                    _ => {
                        eprintln!("check: --replay wants a comma-separated thread-id list");
                        usage();
                    }
                }
            }
            "--trace" => cfg.trace = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("check: unknown argument {other:?}");
                usage();
            }
        }
    }
    cfg
}

fn parse_num(s: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("check: {s:?} is not a number");
        usage();
    })
}

/// Builds the scenario list the config selects.
fn scenarios(cfg: &Config) -> Vec<Scenario> {
    let mut out = Vec::new();
    for name in &cfg.scenarios {
        match name.as_str() {
            "protocol" => {
                for backend in &cfg.backends {
                    out.push(fuzzy_check::protocol(
                        *backend,
                        cfg.participants,
                        cfg.episodes,
                    ));
                }
            }
            // The subset and registry scenarios pin their own thread
            // counts (they encode specific mask topologies); -n is
            // intentionally ignored for them.
            "subset" => {
                out.push(fuzzy_check::subset_pair(cfg.episodes));
                out.push(fuzzy_check::subset_overlap(cfg.episodes));
            }
            "registry" => out.push(fuzzy_check::registry(cfg.episodes)),
            "poison" => {
                for backend in &cfg.backends {
                    out.push(fuzzy_check::poison(*backend, cfg.participants));
                }
            }
            // Both eviction shapes: one member leaves after a full-strength
            // episode, and all members race to evict themselves.
            "evict" => {
                for backend in &cfg.backends {
                    out.push(fuzzy_check::evict(*backend, cfg.participants, cfg.episodes));
                    out.push(fuzzy_check::evict_race(*backend, cfg.participants));
                }
            }
            "async" => {
                for backend in &cfg.backends {
                    out.push(fuzzy_check::async_handoff(
                        *backend,
                        cfg.participants,
                        cfg.episodes,
                    ));
                }
            }
            // The reconfig scenarios pin their own membership shapes
            // (founders + joiner, leaver + reuser, evictee + joiner);
            // -n and --backend are intentionally ignored for them.
            "reconfig" => {
                out.push(fuzzy_check::join_mid_episode());
                out.push(fuzzy_check::stale_generation());
                out.push(fuzzy_check::join_evict_race());
            }
            // The net scenario pins its own backend (a NetBarrier per
            // loopback endpoint); --backend is intentionally ignored.
            "net" => out.push(fuzzy_check::net_round(cfg.participants, cfg.episodes)),
            _ => unreachable!("validated in parse_args"),
        }
    }
    out
}

fn main() {
    let cfg = parse_args();

    if let Some(schedule) = cfg.replay_schedule.clone() {
        std::process::exit(run_replay(&cfg, schedule));
    }

    let opts = ExploreOptions {
        max_schedules: cfg.schedules,
        step_limit: DEFAULT_STEP_LIMIT,
        preemption_bound: cfg.preemptions,
    };
    let mut failed = false;
    for mut scenario in scenarios(&cfg) {
        let start = Instant::now();
        let outcome = match cfg.mode {
            Mode::Dfs => explore_dfs(&mut scenario, &opts),
            Mode::Random => explore_random(&mut scenario, &opts, cfg.seed),
        };
        let elapsed = start.elapsed();
        let mode = match cfg.mode {
            Mode::Dfs => "dfs",
            Mode::Random => format!("random(seed={})", cfg.seed).leak(),
        };
        match outcome {
            Outcome::Pass {
                schedules,
                exhausted,
            } => {
                let coverage = if exhausted { "exhausted" } else { "budget" };
                println!(
                    "check: {} {mode} PASS ({schedules} schedules, {coverage}, {:.2}s)",
                    scenario.name,
                    elapsed.as_secs_f64()
                );
            }
            Outcome::Fail {
                violation,
                schedules,
            } => {
                failed = true;
                println!(
                    "check: {} {mode} FAIL after {schedules} schedules ({:.2}s)",
                    scenario.name,
                    elapsed.as_secs_f64()
                );
                println!("  {violation}");
                println!(
                    "  replay: check --scenario {} --replay {}",
                    summary_scenario_flag(&scenario.name),
                    violation
                        .schedule
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(",")
                );
            }
        }
    }
    std::process::exit(i32::from(failed));
}

/// Best-effort `--scenario`/`--backend` flags for the replay hint.
fn summary_scenario_flag(name: &str) -> String {
    let mut parts = name.split('/');
    let scenario = parts.next().unwrap_or("protocol");
    match parts.next() {
        Some(backend) if scenario == "protocol" => {
            format!("protocol --backend {backend}")
        }
        _ => scenario.to_string(),
    }
}

/// Replays `schedule` against every selected scenario in turn (a family
/// like `evict` or `subset` selects several; the recording fits the one
/// whose name the failure printed, and merely diverges on the others).
fn run_replay(cfg: &Config, schedule: Vec<usize>) -> i32 {
    let mut status = 0;
    for mut scenario in scenarios(cfg) {
        println!(
            "check: replaying {} ({} grants)",
            scenario.name,
            schedule.len()
        );
        let (result, diverged) = replay(&mut scenario, schedule.clone(), DEFAULT_STEP_LIMIT);
        if diverged {
            println!("check: note: replay diverged from the recorded schedule");
        }
        if cfg.trace {
            println!(
                "  executed: {}",
                result
                    .schedule
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            );
        }
        match result.violation {
            Some(violation) => {
                println!("  {violation}");
                status = 1;
            }
            None => println!(
                "  no violation under this schedule ({} steps)",
                result.steps
            ),
        }
    }
    status
}

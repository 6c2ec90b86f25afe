//! `check` — command-line front end for the fuzzy-check model checker.
//!
//! ```text
//! check [--backend central|counting|dissemination|tree|hier|all]
//!       [--scenario FAMILY|all] [-n/--participants N] [--episodes E]
//!       [--mode dfs|random] [--schedules N] [--seed S]
//!       [--preemptions N|unlimited]
//!       [--replay T0,T1,...] [--trace]
//! ```
//!
//! `check --help` lists the scenario families. A failure prints the flags
//! that replay it. Exit codes: 0 = all explorations passed, 1 = a
//! violation was found, 2 = usage error.

use fuzzy_check::{
    async_handoff, evict, evict_during_join, evict_race, explore_dfs, explore_random,
    join_evict_race, join_mid_episode, net_round, poison, protocol, reconfig_future, registry,
    replay, stale_generation, subset_overlap, subset_pair, BackendKind, ExploreOptions, Outcome,
    Scenario, DEFAULT_STEP_LIMIT,
};
use std::time::Instant;

/// A `--scenario` family: its name and how its runs are built.
#[derive(Debug)]
struct Family {
    name: &'static str,
    runs: Runs,
}

/// How a family's scenarios are built from `(backend,) n, episodes`.
#[derive(Debug)]
enum Runs {
    /// One set per selected backend: `--backend` picks among them.
    PerBackend(fn(BackendKind, usize, u64) -> Vec<Scenario>),
    /// One set, whatever `--backend` says: the family pins its backends.
    Fixed(fn(usize, u64) -> Vec<Scenario>),
}

/// Every scenario family, in the order `--scenario all` runs them.
const FAMILIES: [Family; 8] = [
    Family {
        name: "protocol",
        runs: Runs::PerBackend(|b, n, e| vec![protocol(b, n, e)]),
    },
    // The subset and registry scenarios pin their own thread counts (they
    // encode specific mask topologies); -n is intentionally ignored for
    // them.
    Family {
        name: "subset",
        runs: Runs::Fixed(|_, e| vec![subset_pair(e), subset_overlap(e)]),
    },
    Family {
        name: "registry",
        runs: Runs::Fixed(|_, e| vec![registry(e)]),
    },
    Family {
        name: "poison",
        runs: Runs::PerBackend(|b, n, _| vec![poison(b, n)]),
    },
    // Both eviction shapes: one member leaves after a full-strength
    // episode, and all members race to evict themselves.
    Family {
        name: "evict",
        runs: Runs::PerBackend(|b, n, e| vec![evict(b, n, e), evict_race(b, n)]),
    },
    Family {
        name: "async",
        runs: Runs::PerBackend(|b, n, e| vec![async_handoff(b, n, e)]),
    },
    // The reconfig scenarios pin their own membership shapes (founders +
    // joiner, leaver + reuser, evictee + joiner, a joiner whose slot is
    // evicted and re-joined, an async waiter and its peer) over each
    // backend; -n is intentionally ignored for them.
    Family {
        name: "reconfig",
        runs: Runs::PerBackend(|b, _, _| {
            vec![
                join_mid_episode(b),
                stale_generation(b),
                join_evict_race(b),
                evict_during_join(b),
                reconfig_future(b),
            ]
        }),
    },
    // The net scenario pins its own backend (a NetBarrier per loopback
    // endpoint); --backend is intentionally ignored.
    Family {
        name: "net",
        runs: Runs::Fixed(|n, e| vec![net_round(n, e)]),
    },
];

#[derive(Debug, Clone)]
struct Config {
    backends: Vec<BackendKind>,
    families: Vec<&'static Family>,
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
            families: vec![&FAMILIES[0]],
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
    let families: Vec<&str> = FAMILIES.iter().map(|f| f.name).collect();
    eprintln!(
        "usage: check [--backend central|counting|dissemination|tree|hier|all]\n\
         \x20            [--scenario {}|all]\n\
         \x20            [-n|--participants N] [--episodes E]\n\
         \x20            [--mode dfs|random] [--schedules N] [--seed S]\n\
         \x20            [--preemptions N|unlimited]\n\
         \x20            [--replay T0,T1,...] [--trace]",
        families.join("|")
    );
    std::process::exit(2);
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Config {
    let mut cfg = Config::default();
    let mut args = args.into_iter();
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
                cfg.families = if v == "all" {
                    FAMILIES.iter().collect()
                } else {
                    match FAMILIES.iter().find(|f| f.name == v) {
                        Some(family) => vec![family],
                        None => {
                            eprintln!("check: unknown scenario {v:?}");
                            usage();
                        }
                    }
                };
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
            "--schedules" => {
                cfg.schedules = parse_num(&value("--schedules"));
                if cfg.schedules == 0 {
                    eprintln!("check: need at least one schedule");
                    usage();
                }
            }
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

/// One scenario the config selects, with the flags that select it again.
struct Run {
    scenario: Scenario,
    flags: String,
}

/// Builds the runs the config selects.
fn runs(cfg: &Config) -> Vec<Run> {
    let (n, episodes) = (cfg.participants, cfg.episodes);
    let sizing = format!("-n {n} --episodes {episodes}");
    let mut out = Vec::new();
    for family in &cfg.families {
        let mut push = |scenarios: Vec<Scenario>, flags: String| {
            out.extend(scenarios.into_iter().map(|scenario| Run {
                scenario,
                flags: flags.clone(),
            }));
        };
        match family.runs {
            Runs::PerBackend(build) => {
                for &backend in &cfg.backends {
                    let flags = format!(
                        "--scenario {} --backend {} {sizing}",
                        family.name,
                        backend.name()
                    );
                    push(build(backend, n, episodes), flags);
                }
            }
            Runs::Fixed(build) => {
                push(
                    build(n, episodes),
                    format!("--scenario {} {sizing}", family.name),
                );
            }
        }
    }
    out
}

fn main() {
    let cfg = parse_args(std::env::args().skip(1));

    if let Some(schedule) = cfg.replay_schedule.clone() {
        std::process::exit(run_replay(&cfg, schedule));
    }

    let opts = ExploreOptions {
        max_schedules: cfg.schedules,
        step_limit: DEFAULT_STEP_LIMIT,
        preemption_bound: cfg.preemptions,
    };
    let mode = match cfg.mode {
        Mode::Dfs => "dfs".to_string(),
        Mode::Random => format!("random(seed={})", cfg.seed),
    };
    let mut failed = false;
    for Run {
        mut scenario,
        flags,
    } in runs(&cfg)
    {
        let start = Instant::now();
        let outcome = match cfg.mode {
            Mode::Dfs => explore_dfs(&mut scenario, &opts),
            Mode::Random => explore_random(&mut scenario, &opts, cfg.seed),
        };
        let elapsed = start.elapsed();
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
                    "  replay: check {flags} --replay {}",
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

/// Replays `schedule` against every selected scenario in turn (a family
/// like `evict` or `subset` selects several; the recording fits the one
/// whose name the failure printed, and merely diverges on the others).
fn run_replay(cfg: &Config, schedule: Vec<usize>) -> i32 {
    let mut status = 0;
    for Run { mut scenario, .. } in runs(cfg) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &str) -> Config {
        parse_args(flags.split_whitespace().map(String::from))
    }

    fn names<'a>(runs: impl IntoIterator<Item = &'a Run>) -> Vec<&'a str> {
        runs.into_iter().map(|r| r.scenario.name.as_str()).collect()
    }

    #[test]
    fn replay_flags_select_exactly_the_runs_that_print_them() {
        // Every family on every backend, sized away from the defaults so a
        // hint that drops -n or --episodes selects other scenarios.
        let all = runs(&parse("--scenario all --backend all -n 2 --episodes 3"));
        assert!(all.len() > FAMILIES.len());
        for run in &all {
            let again = runs(&parse(&run.flags));
            let want = names(all.iter().filter(|other| other.flags == run.flags));
            assert_eq!(names(&again), want, "{}: {}", run.scenario.name, run.flags);
        }
    }

    #[test]
    fn replay_flags_name_backend_and_sizing() {
        let poison = runs(&parse("--scenario poison --backend hier -n 2"));
        assert_eq!(names(&poison), ["poison/hier/n2"]);
        assert_eq!(
            poison[0].flags,
            "--scenario poison --backend hier -n 2 --episodes 2"
        );
        let reconfig = runs(&parse("--scenario reconfig --backend dissemination"));
        assert_eq!(
            names(&reconfig),
            [
                "reconfig/dissemination/join-mid-episode",
                "reconfig/dissemination/stale-generation",
                "reconfig/dissemination/join-evict-race",
                "reconfig/dissemination/evict-during-join",
                "reconfig/dissemination/future"
            ]
        );
        assert!(reconfig
            .iter()
            .all(|r| r.flags == "--scenario reconfig --backend dissemination -n 3 --episodes 2"));
    }
}

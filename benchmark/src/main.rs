//! The performance ledger's runner.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload in this process and prints its metrics, the last line being
//! the JSON object the driver reads: the end-to-end metrics untraced,
//! the per-layer metrics traced. Without `--workload` it runs all six,
//! each in a process of its own, untraced and then traced, and checks
//! the whole ledger; `--repeat <k>` repeats the untraced set and compares
//! the rounds against the bounds in `BENCHMARK.json`.

mod host;
mod pair;
mod plan;
mod spec;
mod stats;
mod trace;
mod workloads;

use pair::Tally;
use plan::Shape;
use spec::{Ledger, Row, Spec};
use std::process::{Command, ExitCode, Stdio};
use workloads::{async_tasks, churn, net_uds, source_to_sim, threads, Ctx};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 6] = [
    "threads_point",
    "threads_fuzzy",
    "threads_churn",
    "async_tasks",
    "net_uds",
    "source_to_sim",
];

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

const USAGE: &str = "usage: fuzzy-ledger [--workload <name>] [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--repeat <k>]";

fn parse_args(args: impl IntoIterator<Item = String>, spec: &Spec) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1989,
        seconds: spec.run_seconds as f64,
        trace: false,
        repeat: 1,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("`{flag} {value}`: {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                if !spec.workloads.contains(&value) {
                    return Err(bad(&format!("not one of {:?}", spec.workloads)));
                }
                parsed.workload = Some(value);
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err(bad("out of (0, 60]"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("neither 0 nor 1")),
                }
            }
            "--repeat" => {
                parsed.repeat = value.parse().map_err(|_| bad("not a whole number"))?;
                if !(1..=10).contains(&parsed.repeat) {
                    return Err(bad("out of 1..=10"));
                }
            }
            _ => return Err(format!("unknown option `{flag}`\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// Runs one workload in this process: its rows in `BENCHMARK.json` order
/// and what it attempted.
fn run_workload(
    name: &str,
    ctx: &Ctx,
    trace: bool,
    spec: &Spec,
) -> Result<(Vec<Row>, Tally), Vec<String>> {
    let mut ledger = Ledger::new(spec.metrics(trace));
    let outcome = if trace {
        match name {
            "threads_point" => threads::traced(ctx, Shape::Point, name, &mut ledger),
            "threads_fuzzy" => threads::traced(ctx, Shape::Fuzzy, name, &mut ledger),
            "threads_churn" => churn::traced(ctx, &mut ledger),
            "async_tasks" => async_tasks::traced(ctx, &mut ledger),
            "net_uds" => net_uds::traced(ctx, &mut ledger),
            "source_to_sim" => source_to_sim::traced(ctx, &mut ledger),
            _ => Err(format!("no workload `{name}`")),
        }
        .inspect(|tally| {
            ledger.put(
                "failed_frac",
                tally.failed as f64 / tally.attempted.max(1) as f64,
            );
            ledger.rest_not_run();
        })
    } else {
        match name {
            "threads_point" => threads::end_to_end(ctx, Shape::Point),
            "threads_fuzzy" => threads::end_to_end(ctx, Shape::Fuzzy),
            "threads_churn" => churn::end_to_end(ctx),
            "async_tasks" => async_tasks::end_to_end(ctx),
            "net_uds" => net_uds::end_to_end(ctx),
            "source_to_sim" => source_to_sim::end_to_end(ctx),
            _ => Err(format!("no workload `{name}`")),
        }
        .and_then(|e| {
            ledger.put_timing("setup_s", &e.setup_s);
            ledger.put_timing("episode_ns", &e.episode_ns);
            ledger.put("peak_rss_mb", host::peak_rss_mb()?);
            Ok(e.tally)
        })
    };
    let tally = outcome.map_err(|e| vec![e])?;
    Ok((ledger.finish()?, tally))
}

fn print_rows(rows: &[Row]) {
    for row in rows {
        println!(
            "  {:<42} {:>16.4} {:<8} {}",
            row.name, row.value, row.unit, row.note
        );
    }
}

/// The driver's line: `correct`, `attempted`, `failed` and `metrics`.
fn result_line(rows: &[Row], tally: &Tally) -> String {
    use fuzzy_util::Json;
    let metrics = rows.iter().fold(Json::obj(), |metrics, row| {
        metrics.field(
            &row.name,
            Json::obj()
                .field("value", row.value)
                .field("unit", row.unit.as_str()),
        )
    });
    Json::obj()
        .field("correct", tally.failed == 0)
        .field("attempted", tally.attempted)
        .field("failed", tally.failed)
        .field("metrics", metrics)
        .to_string_compact()
}

fn single(name: &str, args: &Args, spec: &Spec) -> ExitCode {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
    };
    println!(
        "{name}: seed {}, {} s, trace {}, {} cores",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    match run_workload(name, &ctx, args.trace, spec) {
        Ok((rows, tally)) => {
            print_rows(&rows);
            for message in &tally.messages {
                eprintln!("{name}: FAILED: {message}");
            }
            println!("{}", result_line(&rows, &tally));
            if tally.failed == 0 && tally.attempted > 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(errors) => {
            for e in errors {
                eprintln!("{name}: {e}");
            }
            ExitCode::FAILURE
        }
    }
}

/// One child run's result line, parsed back.
struct ChildRun {
    failed_frac: f64,
    values: Vec<(String, f64)>,
}

impl ChildRun {
    fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Runs one workload in a process of its own (so `peak_rss_mb` is that
/// workload's), echoing what it prints.
fn child(name: &str, args: &Args, trace: bool) -> Result<ChildRun, String> {
    use fuzzy_util::Json;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, line) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", ""));
    println!("{report}");
    if !output.status.success() {
        return Err(format!(
            "{name} (trace {}): {}",
            u8::from(trace),
            output.status
        ));
    }
    let json = Json::parse(line).map_err(|e| format!("{name}: result line: {e}"))?;
    let number = |key: &str| json.get(key).and_then(Json::as_f64);
    let (Some(attempted), Some(failed), Some(Json::Obj(metrics))) =
        (number("attempted"), number("failed"), json.get("metrics"))
    else {
        return Err(format!("{name}: malformed result line"));
    };
    Ok(ChildRun {
        failed_frac: failed / attempted.max(1.0),
        values: metrics
            .iter()
            .filter_map(|(n, m)| Some((n.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// How much worse `later` is than `first`, as a share of `first`.
fn worsening(first: f64, later: f64, lower_is_better: bool) -> f64 {
    let change = (later - first) / first.abs().max(f64::MIN_POSITIVE);
    if lower_is_better {
        change
    } else {
        -change
    }
}

fn all(args: &Args, spec: &Spec) -> Result<(), String> {
    let mut problems = Vec::new();
    let mut rounds: Vec<Vec<ChildRun>> = Vec::new();
    for round in 0..args.repeat {
        println!("== untraced pass {} of {} ==", round + 1, args.repeat);
        let runs: Result<Vec<ChildRun>, String> =
            WORKLOADS.iter().map(|w| child(w, args, false)).collect();
        rounds.push(runs?);
    }
    println!("== traced pass ==");
    let traced: Vec<ChildRun> = WORKLOADS
        .iter()
        .map(|w| child(w, args, true))
        .collect::<Result<_, _>>()?;

    println!("== ledger ==");
    for (w, run) in WORKLOADS.iter().zip(&traced) {
        println!(
            "  {w:<16} failed_frac {} trace_overhead_frac {:.4}",
            run.failed_frac,
            run.value("bench.trace_overhead_frac").unwrap_or(f64::NAN)
        );
    }
    let stalled = |w: &str| {
        let index = WORKLOADS.iter().position(|n| *n == w)?;
        traced[index].value("core.wait_stalled_frac")
    };
    match (stalled("threads_point"), stalled("threads_fuzzy")) {
        (Some(point), Some(fuzzy)) if point > fuzzy => println!(
            "  core.wait_stalled_frac: threads_point {point:.3} > threads_fuzzy {fuzzy:.3}: \
             the stalled and the fast path are both exercised"
        ),
        other => problems.push(format!(
            "mis-sized load: core.wait_stalled_frac on threads_point is not above that on \
             threads_fuzzy: {other:?}"
        )),
    }

    if args.repeat > 1 {
        println!("== repeat: end-to-end medians per round, worsening against round 1 ==");
        for (index, w) in WORKLOADS.iter().enumerate() {
            for m in &spec.end_to_end {
                let values: Vec<f64> = rounds
                    .iter()
                    .map(|r| r[index].value(&m.name).unwrap_or(f64::NAN))
                    .collect();
                let bound = m.bound.unwrap_or(0.0);
                let worst = values[1..]
                    .iter()
                    .map(|v| worsening(values[0], *v, m.lower_is_better))
                    .fold(f64::NEG_INFINITY, f64::max);
                let within = worst <= bound;
                let verdict = if within { "ok" } else { "OVER" };
                println!(
                    "  {w:<16} {:<20} {values:.4?} {} worst {:+.2}% bound {:.0}% {verdict}",
                    m.name,
                    m.unit,
                    100.0 * worst,
                    100.0 * bound
                );
                if !within {
                    problems.push(format!(
                        "{w}: {} worsened by {:.1}% between rounds, over its {:.0}% bound",
                        m.name,
                        100.0 * worst,
                        100.0 * bound
                    ));
                }
            }
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let args = match parse_args(std::env::args().skip(1), &spec) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    match &args.workload {
        Some(name) => single(name, &args, &spec),
        None => match all(&args, &spec) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("{message}");
                ExitCode::FAILURE
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::NOT_RUN;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_owned()), &Spec::load())
    }

    #[test]
    fn the_drivers_flags_parse_and_bad_ones_are_refused() {
        let a = args(&[
            "--workload",
            "net_uds",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]);
        let a = a.unwrap();
        assert_eq!(a.workload.as_deref(), Some("net_uds"));
        assert_eq!((a.seed, a.seconds, a.trace, a.repeat), (7, 3.0, true, 1));
        assert_eq!(args(&[]).unwrap().seed, 1989);
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seed"],
            &["--frobnicate", "1"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert!((worsening(100.0, 110.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) + 0.1).abs() < 1e-12);
    }

    /// The shortest run of `workload`, on a thread of its own: a workload
    /// that pins its thread must not pin the next one's.
    fn quick(workload: &str, trace: bool, spec: &Spec) -> (Vec<Row>, Tally) {
        let ctx = Ctx {
            seed: 3,
            seconds: 0.01,
        };
        std::thread::scope(|s| {
            s.spawn(|| run_workload(workload, &ctx, trace, spec))
                .join()
                .expect("the workload does not panic")
        })
        .unwrap_or_else(|errors| panic!("{workload}: {errors:?}"))
    }

    /// `BENCHMARK.json` ↔ runner agreement, end to end: every workload's
    /// untraced run reports exactly the end-to-end names and fails nothing.
    #[test]
    fn every_workload_reports_every_end_to_end_metric() {
        let spec = Spec::load();
        for w in WORKLOADS {
            let (rows, tally) = quick(w, false, &spec);
            assert_eq!(rows.len(), spec.end_to_end.len());
            assert!(rows.iter().all(|r| r.value > 0.0), "{w}: {rows:?}");
            assert_eq!(tally.failed, 0, "{w}: {:?}", tally.messages);
            assert!(tally.attempted > 0);
            let line = result_line(&rows, &tally);
            assert!(
                line.starts_with("{\"correct\":true,\"attempted\":"),
                "{line}"
            );
        }
    }

    /// Traced runs report exactly the per-layer names, and every one of
    /// them is measured (not filled in as "not run") by some workload.
    #[test]
    fn every_layer_metric_is_measured_somewhere() {
        let spec = Spec::load();
        let mut measured = vec![false; spec.per_layer.len()];
        for w in WORKLOADS {
            let (rows, tally) = quick(w, true, &spec);
            assert_eq!(tally.failed, 0, "{w}: {:?}", tally.messages);
            for (seen, row) in measured.iter_mut().zip(&rows) {
                *seen |= row.note != NOT_RUN;
            }
        }
        let unmeasured: Vec<&str> = spec
            .per_layer
            .iter()
            .zip(&measured)
            .filter(|(_, seen)| !**seen)
            .map(|(m, _)| m.name.as_str())
            .collect();
        assert!(unmeasured.is_empty(), "no workload measures {unmeasured:?}");
    }
}

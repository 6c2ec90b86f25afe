//! Experiment E15 — backend face-off: topology-aware hierarchy vs the
//! flat barriers.
//!
//! The paper's Sec. 1 frames the software design space as "linear or
//! logarithmic cost in the number of processors". This experiment sweeps
//! every split-phase backend over the processor count and measures what
//! that cost actually looks like on a real (oversubscribed) thread
//! library: mean stall probes per episode, total stall time and arrival
//! spread. The [`fuzzy_barrier::HierBarrier`] rows spin
//! [`HIER_SPIN_LIMIT`] (32) probes before yielding, the flat rows
//! `StallPolicy::default()`'s 1,024.
//!
//! Invariant asserted on both sweeps (and recorded in the export): at
//! every `N >= 16` the best hierarchical configuration spends strictly
//! fewer probes per episode than both `CentralBarrier` and
//! `CountingBarrier`.
//!
//! What that gap measures is **a 32-probe spin budget against 1,024, not
//! the sharding**. On an oversubscribed host most waits are long, so every
//! probe spent spinning before the yield is wasted. With both hier
//! contenders on `StallPolicy::default()` (2-core host, three `--quick`
//! runs), best hier at N = 16 read 15,568 / 15,597 / 15,736 probes per
//! episode against central's 15,566 / 15,502 / 15,913, and the assertion
//! failed in two of the three runs.
//!
//! ```text
//! exp_backend_faceoff [--quick] [--stats-json <path>]
//! ```

use fuzzy_barrier::StallPolicy;
use fuzzy_bench::{banner, quick_arg, StatsExport, Table};
use fuzzy_sched::static_sched::block;
use fuzzy_sched::{executor::Strategy, run_threaded_with, BarrierChoice, ThreadReport};
use fuzzy_util::Json;

/// Episodes per row. Arrival spread is sampled once per
/// `fuzzy_barrier::stats::SPREAD_SAMPLE_PERIOD` (64) episodes, never on
/// episode 0, whose spread is thread start-up skew; a row needs whole
/// periods to report one at all. Both sweeps fold at least
/// [`MIN_SPREAD_SAMPLES`] samples a row (checked in `measure`), so
/// `spread_mean_ns` is a mean, not one draw.
const EPISODES: usize = 640;
const QUICK_EPISODES: usize = 512;
const MIN_SPREAD_SAMPLES: u64 = 8;
const ITER_COST: u64 = 8;
const REGION_UNITS: u64 = 4;
/// Spin probes before yielding for the hier rows.
const HIER_SPIN_LIMIT: u32 = 32;

/// One backend configuration in the sweep.
struct Contender {
    label: &'static str,
    /// 0 for the flat backends.
    shard_size: usize,
    choice: BarrierChoice,
    policy: StallPolicy,
}

fn contenders() -> Vec<Contender> {
    let flat = StallPolicy::default();
    let short = StallPolicy::SpinYield {
        spin_limit: HIER_SPIN_LIMIT,
    };
    vec![
        Contender {
            label: "central",
            shard_size: 0,
            choice: BarrierChoice::Central,
            policy: flat,
        },
        Contender {
            label: "counting",
            shard_size: 0,
            choice: BarrierChoice::Counting,
            policy: flat,
        },
        Contender {
            label: "dissemination",
            shard_size: 0,
            choice: BarrierChoice::Dissemination,
            policy: flat,
        },
        Contender {
            label: "tree",
            shard_size: 0,
            choice: BarrierChoice::Tree { fan_in: 2 },
            policy: flat,
        },
        Contender {
            label: "hier/4",
            shard_size: 4,
            choice: BarrierChoice::Hier { shard_size: 4 },
            policy: short,
        },
        Contender {
            label: "hier/8",
            shard_size: 8,
            choice: BarrierChoice::Hier { shard_size: 8 },
            policy: short,
        },
    ]
}

struct Row {
    label: &'static str,
    shard_size: usize,
    procs: usize,
    episodes: u64,
    probes_per_episode: f64,
    stalls: u64,
    stall_ns: u64,
    spread_mean_ns: u64,
    elapsed_ms: f64,
}

fn measure(c: &Contender, procs: usize, episodes: usize) -> Row {
    // One block-assigned iteration of fixed cost per processor per outer
    // step: the work is balanced, so every stall the barrier reports is
    // synchronization cost, not load imbalance.
    let costs: Vec<Vec<u64>> = (0..episodes).map(|_| vec![ITER_COST; procs]).collect();
    let assign = move |_outer: usize| block(procs, procs);
    let report: ThreadReport = run_threaded_with(
        procs,
        &costs,
        &Strategy::Static(&assign),
        REGION_UNITS,
        c.policy,
        c.choice,
    );
    let t = &report.telemetry;
    assert!(
        t.spread.episodes >= MIN_SPREAD_SAMPLES,
        "{}@{procs}: only {} spread samples",
        c.label,
        t.spread.episodes
    );
    let episodes = t.base.episodes.max(1);
    Row {
        label: c.label,
        shard_size: c.shard_size,
        procs,
        episodes: t.base.episodes,
        probes_per_episode: t.base.probes as f64 / episodes as f64,
        stalls: t.base.stalls,
        stall_ns: u64::try_from(t.base.stall_time.as_nanos()).unwrap_or(u64::MAX),
        spread_mean_ns: u64::try_from(t.spread.mean().as_nanos()).unwrap_or(u64::MAX),
        elapsed_ms: report.elapsed.as_secs_f64() * 1e3,
    }
}

fn row_json(r: &Row) -> Json {
    Json::obj()
        .field("backend", r.label)
        .field("shard_size", r.shard_size)
        .field("procs", r.procs)
        .field("episodes", r.episodes)
        .field("probes_per_episode", r.probes_per_episode)
        .field("stalls", r.stalls)
        .field("stall_ns", r.stall_ns)
        .field("spread_mean_ns", r.spread_mean_ns)
        .field("elapsed_ms", r.elapsed_ms)
}

fn main() {
    let quick = quick_arg("exp_backend_faceoff");
    let mut export = StatsExport::from_env("backend_faceoff");
    banner(
        "E15: backend face-off — hierarchical sharding on a 32-probe spin budget",
        "Sec. 1 cost claims of Gupta, ASPLOS 1989",
    );
    let (ns, episodes): (&[usize], usize) = if quick {
        (&[2, 8, 16], QUICK_EPISODES)
    } else {
        (&[2, 4, 8, 16, 32], EPISODES)
    };
    println!(
        "\n{episodes} episodes per configuration, {} work units + {REGION_UNITS} region units\n\
         per processor per episode; hier rows spin {HIER_SPIN_LIMIT} probes before yielding,\n\
         the flat rows 1,024.\n",
        ITER_COST
    );

    let mut t = Table::new([
        "backend",
        "procs",
        "probes/episode",
        "stalls",
        "stall ms",
        "spread mean us",
        "elapsed ms",
    ]);
    let mut rows: Vec<Row> = Vec::new();
    for &n in ns {
        for c in contenders() {
            let row = measure(&c, n, episodes);
            t.row([
                row.label.to_string(),
                row.procs.to_string(),
                format!("{:.1}", row.probes_per_episode),
                row.stalls.to_string(),
                format!("{:.2}", row.stall_ns as f64 / 1e6),
                format!("{:.1}", row.spread_mean_ns as f64 / 1e3),
                format!("{:.1}", row.elapsed_ms),
            ]);
            rows.push(row);
        }
    }
    println!("{}", t.render());

    // The gap is the spin budget's, 32 probes against 1,024, not the
    // sharding's (module doc).
    let mut asserted_at: Vec<usize> = Vec::new();
    let mut beats_counting = true;
    let mut beats_central = true;
    for &n in ns.iter().filter(|&&n| n >= 16) {
        let probes = |label: &str| -> f64 {
            rows.iter()
                .filter(|r| r.procs == n && r.label == label)
                .map(|r| r.probes_per_episode)
                .next()
                .expect("swept backend present")
        };
        let best_hier = rows
            .iter()
            .filter(|r| r.procs == n && r.shard_size > 0)
            .map(|r| r.probes_per_episode)
            .fold(f64::INFINITY, f64::min);
        let counting = probes("counting");
        let central = probes("central");
        println!(
            "N={n}: best hier {best_hier:.1} probes/episode vs counting {counting:.1}, \
             central {central:.1}"
        );
        beats_counting &= best_hier < counting;
        beats_central &= best_hier < central;
        asserted_at.push(n);
    }
    assert!(
        beats_counting && beats_central,
        "hier must spend strictly fewer probes/episode than counting and central at N >= 16"
    );
    if !asserted_at.is_empty() {
        println!("\nhier < counting and hier < central at every swept N >= 16: OK");
    }

    export.section(
        "config",
        Json::obj()
            .field("episodes", episodes)
            .field("region_units", REGION_UNITS)
            .field("quick", quick),
    );
    export.section("sweep", Json::Arr(rows.iter().map(row_json).collect()));
    export.section(
        "verdict",
        Json::obj()
            .field(
                "asserted_at",
                Json::Arr(asserted_at.iter().map(|&n| Json::Num(n as f64)).collect()),
            )
            .field("hier_beats_counting", beats_counting)
            .field("hier_beats_central", beats_central),
    );
    export.finish();
}

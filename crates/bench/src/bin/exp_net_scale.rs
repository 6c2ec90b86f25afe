//! Experiment E19 — fuzzy-net scale: message-passing barriers across
//! endpoints and across real processes.
//!
//! The paper's fuzzy barrier synchronizes processors over shared memory;
//! `fuzzy-net` carries the same split-phase contract over a message
//! transport, with the fuzzy region hiding the dissemination round-trips.
//! This experiment measures that claim at two granularities:
//!
//! * **loopback sweep** — N in-process endpoints over the deterministic
//!   [`LoopbackMesh`], N from 2 to 16, with and without jittered fuzzy
//!   regions. The metric is `frames_per_arrival` (total frames sent per
//!   endpoint-episode): the dissemination protocol sends one frame a
//!   round, so every row asserts exactly `ceil(log2 N)` of them, and a
//!   protocol change that inflates frame traffic fails the run. Every row
//!   also asserts zero retries and zero decode errors: the loopback
//!   fabric is lossless, so any recovery traffic is a protocol bug, not
//!   noise.
//! * **multi-process UDS sweep** — the acceptance scenario: five seeds of
//!   an 8-worker mesh, each worker a *real OS process* (re-executions of
//!   this binary via [`fuzzy_sched::multiproc`]) over Unix-domain
//!   sockets. Every worker must exit `Released` with all episodes
//!   complete and zero wedges; the parent watchdog turns a hang into a
//!   loud failure instead of a stuck benchmark.
//!
//! ```text
//! exp_net_scale [--quick] [--stats-json <path>]
//! ```

use fuzzy_barrier::{Deadline, SplitBarrier, StallPolicy};
use fuzzy_bench::{banner, quick_arg, StatsExport, Table};
use fuzzy_net::{LoopbackMesh, NetBarrier, NetConfig};
use fuzzy_sched::multiproc::{maybe_run_worker, run_multiproc, MultiprocConfig, WorkerFate};
use fuzzy_util::{Json, SplitMix64};
use std::sync::Arc;
use std::time::{Duration, Instant};

const EPISODES: u64 = 64;
const QUICK_EPISODES: u64 = 16;
const MULTIPROC_NODES: usize = 8;
const MULTIPROC_SEEDS: u64 = 5;
const MULTIPROC_EPISODES: u64 = 25;
const QUICK_MULTIPROC_NODES: usize = 4;
const QUICK_MULTIPROC_SEEDS: u64 = 2;
const QUICK_MULTIPROC_EPISODES: u64 = 10;

struct Row {
    nodes: usize,
    region_us: u64,
    episodes: u64,
    frames_sent: u64,
    frames_received: u64,
    retries: u64,
    nacks: u64,
    frames_per_arrival: f64,
    elapsed_ms: f64,
}

/// Jittered busy-wait standing in for fuzzy-region work. Spinning (not
/// sleeping) keeps the loopback sweep's timing out of the scheduler's
/// hands, so frame counts stay deterministic run to run.
fn busy_region(rng: &mut SplitMix64, region_us: u64) {
    if region_us == 0 {
        return;
    }
    let jitter = rng.range_u64(region_us / 2, region_us);
    let until = Instant::now() + Duration::from_micros(jitter);
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

fn measure(nodes: usize, region_us: u64, episodes: u64, seed: u64) -> Row {
    let mesh = LoopbackMesh::new(nodes);
    // `round_timeout(None)`: loopback delivery is synchronous and
    // lossless, so the recovery machinery is dead weight here — and a
    // wall-clock timeout firing on an overloaded runner would inject
    // retransmissions into what the gate treats as a deterministic count.
    let barriers: Vec<Arc<NetBarrier>> = mesh
        .endpoints()
        .into_iter()
        .map(|t| {
            NetBarrier::start(
                Arc::new(t),
                // SpinYield over pure Spin: loopback meshes are routinely
                // oversubscribed (N endpoints on fewer cores), and a pure
                // spinner starves the very thread whose send would release
                // it.
                NetConfig::new()
                    .policy(StallPolicy::SpinYield { spin_limit: 64 })
                    .round_timeout(None),
            )
        })
        .collect();

    let started = Instant::now();
    std::thread::scope(|s| {
        for (rank, barrier) in barriers.iter().enumerate() {
            let barrier = Arc::clone(barrier);
            s.spawn(move || {
                let mut rng = SplitMix64::seed_from_u64(seed ^ rank as u64);
                for episode in 0..episodes {
                    let token = barrier.arrive(0);
                    busy_region(&mut rng, region_us);
                    let outcome = barrier
                        .wait_deadline(token, Deadline::after(Duration::from_secs(30)))
                        .expect("loopback episode must release");
                    assert_eq!(outcome.episode, episode, "episodes must stay in lockstep");
                }
            });
        }
    });
    let elapsed = started.elapsed();

    let mut frames_sent = 0u64;
    let mut frames_received = 0u64;
    let mut retries = 0u64;
    let mut nacks = 0u64;
    for b in &barriers {
        let snap = b.net_stats();
        assert_eq!(snap.decode_errors, 0, "loopback frames must all decode");
        frames_sent += snap.frames_sent;
        frames_received += snap.frames_received;
        retries += snap.retries;
        nacks += snap.nacks;
    }
    assert_eq!(
        retries, 0,
        "a lossless fabric with no round timeout must never retransmit"
    );
    assert_eq!(
        frames_sent, frames_received,
        "the loopback fabric drops nothing, so every send must arrive"
    );
    let rounds = u64::from(nodes.next_power_of_two().trailing_zeros());
    assert_eq!(
        frames_sent,
        nodes as u64 * episodes * rounds,
        "N={nodes}: every arrival sends exactly one frame per dissemination round \
         (ceil(log2 N) = {rounds})"
    );
    Row {
        nodes,
        region_us,
        episodes,
        frames_sent,
        frames_received,
        retries,
        nacks,
        frames_per_arrival: frames_sent as f64 / (nodes as u64 * episodes).max(1) as f64,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
    }
}

fn row_json(r: &Row) -> Json {
    Json::obj()
        .field("nodes", r.nodes)
        .field("region_us", r.region_us)
        .field("episodes", r.episodes)
        .field("frames_sent", r.frames_sent)
        .field("frames_received", r.frames_received)
        .field("retries", r.retries)
        .field("nacks", r.nacks)
        .field("frames_per_arrival", r.frames_per_arrival)
        .field("elapsed_ms", r.elapsed_ms)
}

struct ProcRow {
    seed: u64,
    nodes: usize,
    episodes: u64,
    released: usize,
    elapsed_ms: f64,
}

fn measure_multiproc(seed: u64, nodes: usize, episodes: u64) -> ProcRow {
    let exe = std::env::current_exe().expect("own binary path");
    let mut config = MultiprocConfig::new(exe, nodes, episodes);
    config.seed = seed;
    let report = run_multiproc(&config);
    assert!(
        !report.wedged(),
        "seed {seed}: a worker wedged — the mesh lost an episode"
    );
    let released = report.count(&WorkerFate::Released);
    assert_eq!(
        released,
        nodes,
        "seed {seed}: every worker must exit Released, got {:?}",
        report
            .outcomes
            .iter()
            .map(|o| o.fate.clone())
            .collect::<Vec<_>>()
    );
    for outcome in &report.outcomes {
        assert_eq!(
            outcome.episodes, episodes,
            "seed {seed}: rank {} completed {} of {episodes} episodes",
            outcome.rank, outcome.episodes
        );
    }
    ProcRow {
        seed,
        nodes,
        episodes,
        released,
        elapsed_ms: report.elapsed.as_secs_f64() * 1e3,
    }
}

fn main() {
    // Worker re-executions of this binary are hijacked here — they run
    // the episode loop and exit without ever reaching the experiment.
    maybe_run_worker();
    let quick = quick_arg("exp_net_scale");
    let mut export = StatsExport::from_env("net_scale");
    banner(
        "E19: fuzzy-net scale — message-passing barriers across endpoints",
        "the fuzzy region of Gupta, ASPLOS 1989, hiding a network round-trip",
    );
    let (mesh_sizes, episodes): (&[usize], u64) = if quick {
        (&[2, 4], QUICK_EPISODES)
    } else {
        (&[2, 4, 8, 16], EPISODES)
    };
    let regions: &[u64] = &[0, 150];
    println!(
        "\n{episodes} episodes per configuration over the loopback mesh; fuzzy\n\
         region busy time jittered in [r/2, r] us. Every row asserts zero\n\
         retries, zero decode errors, send == receive, and ceil(log2 N)\n\
         frames per arrival.\n"
    );

    let mut t = Table::new([
        "nodes",
        "region us",
        "frames",
        "frames/arrival",
        "nacks",
        "elapsed ms",
    ]);
    let mut rows: Vec<Row> = Vec::new();
    for &nodes in mesh_sizes {
        for &region_us in regions {
            let row = measure(nodes, region_us, episodes, 0xE19);
            t.row([
                row.nodes.to_string(),
                row.region_us.to_string(),
                row.frames_sent.to_string(),
                format!("{:.2}", row.frames_per_arrival),
                row.nacks.to_string(),
                format!("{:.1}", row.elapsed_ms),
            ]);
            rows.push(row);
        }
    }
    println!("{}", t.render());

    // The acceptance sweep: real worker processes over Unix-domain
    // sockets, five seeds, zero wedges. Each seed changes every worker's
    // region jitter; completion must not. The parent watchdog means a
    // wedged mesh fails loudly here instead of hanging the benchmark.
    let (proc_nodes, proc_seeds, proc_episodes) = if quick {
        (
            QUICK_MULTIPROC_NODES,
            QUICK_MULTIPROC_SEEDS,
            QUICK_MULTIPROC_EPISODES,
        )
    } else {
        (MULTIPROC_NODES, MULTIPROC_SEEDS, MULTIPROC_EPISODES)
    };
    let mut proc_rows: Vec<ProcRow> = Vec::new();
    for seed in 1..=proc_seeds {
        let row = measure_multiproc(seed, proc_nodes, proc_episodes);
        println!(
            "multiproc seed {seed}: N={proc_nodes} UDS workers released \
             {proc_episodes} episodes each ({:.1} ms)",
            row.elapsed_ms
        );
        proc_rows.push(row);
    }
    println!(
        "\nN={proc_nodes} process mesh over UDS: {}/{proc_seeds} seeds wedge-free, \
         all Released: OK",
        proc_rows.len()
    );

    export.section(
        "config",
        Json::obj()
            .field("episodes", episodes)
            .field("quick", quick)
            .field("multiproc_nodes", proc_nodes)
            .field("multiproc_seeds", proc_seeds)
            .field("multiproc_episodes", proc_episodes),
    );
    export.section("sweep", Json::Arr(rows.iter().map(row_json).collect()));
    export.section(
        "multiproc",
        Json::Arr(
            proc_rows
                .iter()
                .map(|r| {
                    Json::obj()
                        .field("seed", r.seed)
                        .field("nodes", r.nodes)
                        .field("episodes", r.episodes)
                        .field("released", r.released)
                        .field("elapsed_ms", r.elapsed_ms)
                })
                .collect(),
        ),
    );
    export.section(
        "verdict",
        Json::obj()
            .field("wedge_free_seeds", proc_rows.len())
            .field("all_released", true)
            .field("zero_retries", true),
    );
    export.finish();
}

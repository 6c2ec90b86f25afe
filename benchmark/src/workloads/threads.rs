//! `threads_point` and `threads_fuzzy`: two threads over
//! `FuzzyBarrier::new(2)`, the front-door default, running the same plan
//! with the work before the barrier or half of it inside the region.

use super::{fresh_pass, pair_end_to_end, pair_traced, publish_spans, span_summary, Ctx, EndToEnd};
use crate::pair::{Direct, NoSync, Tally, BLOCK};
use crate::plan::{Plan, Shape};
use crate::spec::Ledger;
use crate::stats::{median, Summary};
use crate::trace::Kind;
use fuzzy_barrier::{
    CentralBarrier, CountingBarrier, DisseminationBarrier, FuzzyBarrier, HierBarrier, SplitBarrier,
    StatsSnapshot, TelemetrySnapshot, TreeBarrier,
};
use std::sync::Arc;
use std::time::Instant;

fn members() -> Result<[Direct<FuzzyBarrier>; 2], String> {
    Ok(Direct::pair(Arc::new(FuzzyBarrier::new(2))))
}

pub fn end_to_end(ctx: &Ctx, shape: Shape) -> Result<EndToEnd, String> {
    pair_end_to_end(ctx, shape, members)
}

/// Calls to `telemetry()` timed for `core.telemetry_snapshot_us`.
const SNAPSHOTS: usize = 200;

/// The `core.*` metrics read from the layer's own statistics, and the
/// cost of reading them.
pub fn put_core_stats(
    ledger: &mut Ledger,
    stats: &StatsSnapshot,
    telemetry: impl Fn() -> TelemetrySnapshot,
) {
    let episodes = stats.episodes.max(1) as f64;
    ledger.put(
        "core.wait_stalled_frac",
        stats.stalls as f64 / stats.waits.max(1) as f64,
    );
    ledger.put("core.probes_per_episode", stats.probes as f64 / episodes);
    ledger.put(
        "core.stall_ns_per_episode",
        stats.stall_time.as_nanos() as f64 / episodes,
    );
    ledger.put(
        "core.spread_mean_ns",
        telemetry().spread.mean().as_nanos() as f64,
    );
    let mut micros: Vec<f64> = (0..SNAPSHOTS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(telemetry());
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    ledger.put_timing("core.telemetry_snapshot_us", &Summary::of(&mut micros));
}

type Build = fn(usize) -> Arc<dyn SplitBarrier>;

/// The five backends of the per-backend rows, each built by its own
/// front-door constructor, named as in the metric.
const BACKENDS: [(&str, Build); 5] = [
    ("central", |n| Arc::new(CentralBarrier::new(n))),
    ("counting", |n| Arc::new(CountingBarrier::new(n))),
    ("dissemination", |n| Arc::new(DisseminationBarrier::new(n))),
    ("tree", |n| Arc::new(TreeBarrier::new(n))),
    ("hier", |n| Arc::new(HierBarrier::new(n))),
];

/// Each backend's share of the run on the `threads_point` plan.
const BACKEND_SHARE: f64 = 0.04;
/// Blocks of uncontended `arrive` + `wait` timed per backend.
const UNCONTENDED_BLOCKS: u64 = 200;

/// `core.<backend>.episode_ns` on the point plan and
/// `core.<backend>.uncontended_ns` (one participant, `arrive` + `wait`).
fn put_backend_rows(
    ledger: &mut Ledger,
    ctx: &Ctx,
    plan: &Plan,
    tally: &mut Tally,
) -> Result<(), String> {
    for (name, build) in BACKENDS {
        let pair = || Ok(Direct::pair(build(2)));
        let limit = ctx.pass(BACKEND_SHARE);
        let (_, mut run) = fresh_pass::<false, _>(pair, plan, Shape::Point, limit, 0, tally)?;
        ledger.put_timing(
            &format!("core.{name}.episode_ns"),
            &Summary::of(&mut run.block_ns),
        );

        let alone = build(1);
        let mut per_call: Vec<f64> = (0..ctx.reps(UNCONTENDED_BLOCKS))
            .map(|_| {
                let start = Instant::now();
                for _ in 0..BLOCK {
                    let token = alone.arrive(0);
                    std::hint::black_box(alone.wait(token));
                }
                start.elapsed().as_nanos() as f64 / BLOCK as f64
            })
            .collect();
        ledger.put_timing(
            &format!("core.{name}.uncontended_ns"),
            &Summary::of(&mut per_call),
        );
    }
    Ok(())
}

/// One more untraced pass of the plan over a fresh `FuzzyBarrier`,
/// lasting a tenth of the run.
pub fn untraced_pass(
    ctx: &Ctx,
    shape: Shape,
    plan: &Plan,
    tally: &mut Tally,
) -> Result<Vec<f64>, String> {
    let (_, run) = fresh_pass::<false, _>(members, plan, shape, ctx.pass(0.1), 0, tally)?;
    Ok(run.block_ns)
}

/// Rounds of (barrier pass, barrier-free twin pass) behind `sync_cost_ns`;
/// interleaved so host drift hits both sides alike.
const TWIN_ROUNDS: usize = 2;

/// `episode_ns` minus the `episode_ns` of the barrier-free twin.
fn sync_cost_ns(ctx: &Ctx, shape: Shape, plan: &Plan, tally: &mut Tally) -> Result<f64, String> {
    let (mut with, mut without) = (Vec::new(), Vec::new());
    for _ in 0..TWIN_ROUNDS {
        with.extend(untraced_pass(ctx, shape, plan, tally)?);
        let twin = || Ok([NoSync, NoSync]);
        let (_, run) = fresh_pass::<false, _>(twin, plan, shape, ctx.pass(0.1), 0, tally)?;
        without.extend(run.block_ns);
    }
    Ok(median(with) - median(without))
}

pub fn traced(
    ctx: &Ctx,
    shape: Shape,
    workload: &str,
    ledger: &mut Ledger,
) -> Result<Tally, String> {
    let t = pair_traced(ctx, shape, 0, members)?;
    let mut tally = t.tally.clone();
    publish_spans(workload, &t.bufs)?;

    for (prefix, kind) in [
        ("core.arrive_ns", Kind::Arrive),
        ("core.wait_ns", Kind::Wait),
    ] {
        let summary = span_summary(&t.bufs, kind);
        ledger.put_timing(&format!("{prefix}_p50"), &summary);
        ledger.put_p99(&format!("{prefix}_p99"), &summary);
    }
    let barrier = &t.members[0].barrier;
    put_core_stats(ledger, &barrier.stats(), || barrier.telemetry());
    ledger.put(
        "sync_cost_ns",
        sync_cost_ns(ctx, shape, &t.plan, &mut tally)?,
    );
    if shape == Shape::Point {
        put_backend_rows(ledger, ctx, &t.plan, &mut tally)?;
    }
    ledger.put("sched.executor.busy_unit_ns", t.busy_unit_ns);
    ledger.put("bench.trace_overhead_frac", t.overhead_frac());
    Ok(tally)
}

//! The six workloads. Each has an untraced run giving the end-to-end
//! metrics and a traced run giving the per-layer metrics.

pub mod async_tasks;
pub mod churn;
pub mod net_uds;
pub mod source_to_sim;
pub mod threads;

use crate::host;
use crate::pair::{run_pair, Limit, Member, PairRun, Tally};
use crate::plan::{Plan, Shape, PLAN_EPISODES};
use crate::stats::Summary;
use crate::trace::{durations, self_times, Kind, SpanBuf};
use std::path::PathBuf;
use std::time::Instant;

/// What the driver passes to one run.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
}

impl Ctx {
    /// A pass lasting `share` of the run.
    pub fn pass(&self, share: f64) -> Limit {
        Limit::seconds(self.seconds * share)
    }

    /// A run too short to measure anything, as the harness's own tests
    /// make: every fixed-size pass shrinks to its minimum.
    pub fn quick(&self) -> bool {
        self.seconds < 1.0
    }

    /// `full` repetitions of a fixed-size probe, or a few in a quick run.
    pub fn reps(&self, full: u64) -> u64 {
        if self.quick() {
            full.div_ceil(100)
        } else {
            full
        }
    }
}

/// The discarded warm-up pass's share of the run.
const WARM_UP: f64 = 0.05;

/// The untraced run's result, the same numbers for every workload.
#[derive(Debug)]
pub struct EndToEnd {
    /// Everything before the first timed block, over [`SETUPS`] set-ups.
    pub setup_s: Summary,
    /// Wall-clock ns per episode over all timed blocks (or samples).
    pub episode_ns: Summary,
    pub tally: Tally,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Runs `setup` [`SETUPS`] times, returning the times in seconds and the
/// last result.
pub fn time_setups<S>(
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(Summary, S), String> {
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        seconds.push(start.elapsed().as_secs_f64());
    }
    Ok((Summary::of(&mut seconds), last.expect("SETUPS is positive")))
}

/// Where the benchmark writes: `benchmark/out/`, relative to the working
/// directory when that is the checkout root (Unix socket paths are short).
pub fn out_dir() -> PathBuf {
    let absolute = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    match std::env::current_dir() {
        Ok(cwd) => absolute
            .strip_prefix(&cwd)
            .map(PathBuf::from)
            .unwrap_or(absolute),
        Err(_) => absolute,
    }
}

/// Summary of the durations in ns of every span of `kind`.
pub fn span_summary(bufs: &[SpanBuf], kind: Kind) -> Summary {
    Summary::of(&mut durations(bufs, kind))
}

/// Spans written to the trace file, shared evenly among the participants
/// (about 12 MB); the per-layer metrics use all that were recorded.
const TRACE_FILE_SPANS: usize = 100_000;

/// Prints, per kind of span, its count, median and p99 duration and its
/// median self time, then writes `benchmark/out/trace-<workload>.json`.
pub fn publish_spans(workload: &str, bufs: &[SpanBuf]) -> Result<(), String> {
    let mut kinds: Vec<Kind> = Vec::new();
    for span in bufs.iter().flat_map(|b| &b.spans) {
        if !kinds.contains(&span.kind) {
            kinds.push(span.kind);
        }
    }
    let own: Vec<Vec<u64>> = bufs.iter().map(self_times).collect();
    println!("  spans: kind, count, p50 ns, p99 ns, self p50 ns");
    for kind in kinds {
        let all = span_summary(bufs, kind);
        let mut self_ns: Vec<f64> = bufs
            .iter()
            .zip(&own)
            .flat_map(|(b, own)| b.spans.iter().zip(own))
            .filter(|(s, _)| s.kind == kind)
            .map(|(_, own)| *own as f64)
            .collect();
        println!(
            "    {:<14} {:>9} {:>12.0} {:>12.0} {:>12.0}",
            kind.name(),
            all.n,
            all.median,
            all.p99,
            Summary::of(&mut self_ns).median
        );
    }
    let path = out_dir().join(format!("trace-{workload}.json"));
    crate::trace::write_chrome(&path, bufs, TRACE_FILE_SPANS / bufs.len().max(1))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// One pass over members of its own — a barrier counts episodes from 0,
/// so no two passes share one — adding what it attempted to `tally`.
pub fn fresh_pass<const T: bool, M: Member>(
    make: impl Fn() -> Result<[M; 2], String>,
    plan: &Plan,
    shape: Shape,
    limit: Limit,
    hook_spans: usize,
    tally: &mut Tally,
) -> Result<([M; 2], PairRun), String> {
    let mut members = make()?;
    let mut run = run_pair::<T, M>(&mut members, plan, shape, limit, hook_spans);
    tally.absorb(std::mem::take(&mut run.tally));
    Ok((members, run))
}

/// The untraced run of a two-thread workload: time the set-up, warm up,
/// then one timed pass that fills the run.
pub fn pair_end_to_end<M: Member>(
    ctx: &Ctx,
    shape: Shape,
    make: impl Fn() -> Result<[M; 2], String>,
) -> Result<EndToEnd, String> {
    let (setup_s, (plan, members)) = time_setups(|| {
        host::calibrate_busy();
        let plan = Plan::generate(ctx.seed, PLAN_EPISODES);
        Ok((plan, make()?))
    })?;
    drop(members);
    let mut tally = Tally::default();
    fresh_pass::<false, M>(&make, &plan, shape, ctx.pass(WARM_UP), 0, &mut tally)?;
    let (_, mut run) = fresh_pass::<false, M>(&make, &plan, shape, ctx.pass(1.0), 0, &mut tally)?;
    Ok(EndToEnd {
        setup_s,
        episode_ns: Summary::of(&mut run.block_ns),
        tally,
    })
}

/// The passes every traced two-thread run starts with.
#[derive(Debug)]
pub struct TracedPair<M> {
    pub busy_unit_ns: f64,
    pub plan: Plan,
    pub untraced: Summary,
    pub traced: Summary,
    /// The traced pass's members, for the layer's own statistics.
    pub members: [M; 2],
    pub bufs: Vec<SpanBuf>,
    pub tally: Tally,
}

impl<M> TracedPair<M> {
    /// Traced over untraced `episode_ns`, minus one.
    pub fn overhead_frac(&self) -> f64 {
        self.traced.median / self.untraced.median.max(f64::MIN_POSITIVE) - 1.0
    }
}

/// Warm-up, an untraced pass and a traced pass, a fifth of the run each.
/// `hook_spans` is how many spans per episode the members' hooks add.
pub fn pair_traced<M: Member>(
    ctx: &Ctx,
    shape: Shape,
    hook_spans: usize,
    make: impl Fn() -> Result<[M; 2], String>,
) -> Result<TracedPair<M>, String> {
    let busy_unit_ns = host::calibrate_busy();
    let plan = Plan::generate(ctx.seed, PLAN_EPISODES);
    let mut tally = Tally::default();
    fresh_pass::<false, M>(&make, &plan, shape, ctx.pass(WARM_UP), 0, &mut tally)?;
    let (_, mut untraced) =
        fresh_pass::<false, M>(&make, &plan, shape, ctx.pass(0.2), 0, &mut tally)?;
    let (members, mut traced) =
        fresh_pass::<true, M>(&make, &plan, shape, ctx.pass(0.2), hook_spans, &mut tally)?;
    let dropped: u64 = traced.bufs.iter().map(|b| b.dropped).sum();
    if dropped > 0 {
        tally.fail(format!("{dropped} spans dropped: buffer under-sized"));
    }
    Ok(TracedPair {
        busy_unit_ns,
        plan,
        untraced: Summary::of(&mut untraced.block_ns),
        traced: Summary::of(&mut traced.block_ns),
        members,
        bufs: traced.bufs,
        tally,
    })
}

//! `source_to_sim`: the paper's pipeline end to end — the benchmark's own
//! copy of the Poisson source → `parse_program` → `compile_nest` →
//! `MachineBuilder` (4 processors, drifting memory seeded by the workload
//! seed) → `Machine::run` to halt. Simulated counts repeat exactly, so
//! this is the regression oracle the noisy host cannot be.

use super::{publish_spans, span_summary, time_setups, Ctx, EndToEnd};
use crate::host;
use crate::pair::Tally;
use crate::spec::Ledger;
use crate::stats::Summary;
use crate::trace::{Kind, Rec, NO_PARENT};
use fuzzy_compiler::driver::{compile_nest, CompileOptions, CompiledLoop};
use fuzzy_compiler::parse::{parse_program, ParsedProgram};
use fuzzy_sim::builder::MachineBuilder;
use fuzzy_sim::machine::Machine;
use fuzzy_sim::stats::MachineStats;
use std::time::Instant;

/// `demos/poisson.fc` with the `seq` trip count raised to 20,000.
const SOURCE: &str = include_str!("../../poisson.fc");
const MISS_RATE: f64 = 0.35;
const MISS_PENALTY: u64 = 120;
const CYCLE_BUDGET: u64 = 1_000_000_000;
/// The words of `int P[4][4]`.
const GRID: usize = 16;

fn source(ctx: &Ctx) -> String {
    if ctx.quick() {
        SOURCE.replace("k<=20000;", "k<=200;")
    } else {
        SOURCE.to_owned()
    }
}

struct Pipeline {
    parsed: ParsedProgram,
    compiled: CompiledLoop,
}

fn compile<const T: bool>(
    source: &str,
    reorder: bool,
    rec: &mut Rec<T>,
    parent: u32,
) -> Result<Pipeline, String> {
    let parsed = rec
        .timed(Kind::Parse, parent, 0, || parse_program(source))
        .map_err(|e| format!("parse: {e}"))?;
    let options = CompileOptions {
        reorder,
        ..CompileOptions::default()
    };
    let compiled = rec
        .timed(Kind::Compile, parent, 0, || {
            compile_nest(&parsed.nest, &parsed.proc_inits, &options)
        })
        .map_err(|e| format!("compile: {e}"))?;
    Ok(Pipeline { parsed, compiled })
}

fn build(p: &Pipeline, seed: u64) -> Result<Machine, String> {
    MachineBuilder::new(p.compiled.program.clone())
        .preload(p.parsed.data.clone())
        .miss_rate(MISS_RATE)
        .miss_penalty(MISS_PENALTY)
        .seed(seed)
        .build()
        .map_err(|e| format!("build: {e}"))
}

/// Final `P` by a plain evaluation of the same recurrence: every sweep
/// reads the previous sweep's values, as the barrier guarantees.
fn reference(p: &ParsedProgram) -> Vec<i64> {
    let mut grid = vec![0i64; GRID];
    for &(addr, value) in &p.data {
        grid[addr] = value;
    }
    for _ in p.nest.seq_lo..=p.nest.seq_hi {
        let prev = grid.clone();
        for i in 1..=2 {
            for j in 1..=2 {
                let at = |i: usize, j: usize| prev[i * 4 + j];
                grid[i * 4 + j] = (at(i, j + 1) + at(i, j - 1) + at(i + 1, j) + at(i - 1, j)) / 4;
            }
        }
    }
    grid
}

/// One run to halt: host ns spent in `Machine::run`, and the machine.
fn run<const T: bool>(
    p: &Pipeline,
    seed: u64,
    rec: &mut Rec<T>,
    parent: u32,
) -> Result<(f64, Machine), String> {
    let mut machine = rec.timed(Kind::Build, parent, 0, || build(p, seed))?;
    let start = Instant::now();
    let outcome = rec
        .timed(Kind::Run, parent, 0, || machine.run(CYCLE_BUDGET))
        .map_err(|e| format!("run: {e}"))?;
    let run_ns = start.elapsed().as_nanos() as f64;
    if !outcome.is_halted() {
        return Err(format!("the machine did not halt: {outcome:?}"));
    }
    Ok((run_ns, machine))
}

/// Runs until `seconds` have been measured (two runs at least). Every
/// run must end with the reference's `P` and the first run's statistics.
fn samples(
    p: &Pipeline,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> Result<(Vec<f64>, Machine), String> {
    let expected = reference(&p.parsed);
    let mut first: Option<(MachineStats, Machine)> = None;
    let mut run_ns = Vec::new();
    let start = Instant::now();
    while run_ns.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let (ns, machine) = run(p, seed, &mut Rec::<false>::new(0, 0), NO_PARENT)?;
        let stats = machine.stats();
        tally.attempted += stats.sync_events;
        let memory: Vec<i64> = (0..GRID).map(|w| machine.memory().peek(w)).collect();
        if memory != expected {
            tally.fail(format!(
                "final P is {memory:?}, the reference gives {expected:?}"
            ));
        }
        match &first {
            Some((first, _)) if *first != stats => {
                tally.fail("simulated statistics differ between samples".to_owned());
            }
            Some(_) => {}
            None => first = Some((stats, machine)),
        }
        run_ns.push(ns);
    }
    let (_, machine) = first.expect("at least two samples ran");
    Ok((run_ns, machine))
}

pub fn end_to_end(ctx: &Ctx) -> Result<EndToEnd, String> {
    let source = source(ctx);
    let (setup_s, pipeline) = time_setups(|| {
        host::calibrate_busy();
        let mut rec = Rec::<false>::new(0, 0);
        let pipeline = compile(&source, true, &mut rec, NO_PARENT)?;
        build(&pipeline, ctx.seed)?;
        Ok(pipeline)
    })?;
    let mut tally = Tally::default();
    let (run_ns, machine) = samples(&pipeline, ctx.seed, ctx.seconds, &mut tally)?;
    // One episode is one simulated barrier synchronisation.
    let episodes = machine.stats().sync_events.max(1) as f64;
    let mut episode_ns: Vec<f64> = run_ns.iter().map(|ns| ns / episodes).collect();
    Ok(EndToEnd {
        setup_s,
        episode_ns: Summary::of(&mut episode_ns),
        tally,
    })
}

/// Traced samples, each the whole pipeline from source text.
const TRACED_SAMPLES: usize = 3;

pub fn traced(ctx: &Ctx, ledger: &mut Ledger) -> Result<Tally, String> {
    let busy_unit_ns = host::calibrate_busy();
    let source = source(ctx);
    let mut tally = Tally::default();
    let mut quiet = Rec::<false>::new(0, 0);
    let pipeline = compile(&source, true, &mut quiet, NO_PARENT)?;
    let (mut untraced_ns, machine) = samples(&pipeline, ctx.seed, 0.4 * ctx.seconds, &mut tally)?;
    let stats = machine.stats();

    let mut rec = Rec::<true>::new(0, TRACED_SAMPLES * 5);
    for sample in 0..TRACED_SAMPLES {
        let parent = rec.open(Kind::Sample, NO_PARENT, sample as u64);
        let pipeline = compile(&source, true, &mut rec, parent)?;
        let (_, machine) = run(&pipeline, ctx.seed, &mut rec, parent)?;
        rec.close(parent);
        if machine.stats() != stats {
            tally.fail("simulated statistics differ between traced and untraced".to_owned());
        }
    }
    let bufs = [rec.finish()];
    publish_spans("source_to_sim", &bufs)?;

    let micros = |kind| span_summary(&bufs, kind).scaled(1e-3);
    ledger.put_timing("compiler.parse_us", &micros(Kind::Parse));
    ledger.put_timing("compiler.compile_us", &micros(Kind::Compile));
    ledger.put_timing("sim.build_us", &micros(Kind::Build));
    let compiled = &pipeline.compiled;
    ledger.put(
        "compiler.non_barrier_before",
        compiled.before.non_barrier_len() as f64,
    );
    ledger.put(
        "compiler.non_barrier_after",
        compiled.after.non_barrier_len() as f64,
    );
    let streams = compiled.program.streams();
    ledger.put(
        "compiler.instrs_per_stream",
        streams.iter().map(|s| s.len()).sum::<usize>() as f64 / streams.len().max(1) as f64,
    );

    let traced_run = span_summary(&bufs, Kind::Run);
    let untraced_run = Summary::of(&mut untraced_ns);
    let syncs = stats.sync_events.max(1) as f64;
    ledger.put_timing("sim.run_s", &untraced_run.scaled(1e-9));
    ledger.put_timing(
        "host_ns_per_sim_cycle",
        &untraced_run.scaled(1.0 / stats.cycles.max(1) as f64),
    );
    ledger.put("sim.instructions", stats.total_instructions() as f64);
    let accesses: u64 = (0..machine.procs().len())
        .map(|p| machine.memory().stats(p).accesses)
        .sum();
    ledger.put("sim.mem_accesses", accesses as f64);
    ledger.put("sim.stall_cycles", stats.total_stall_cycles() as f64);
    ledger.put("sim.sync_events", stats.sync_events as f64);
    ledger.put("sim.spread_mean_cycles", stats.sync.mean_spread_cycles());
    ledger.put("sim.stall_fraction", stats.stall_fraction());
    ledger.put("sim_cycles_per_barrier", stats.cycles as f64 / syncs);
    ledger.put(
        "sim_stall_cycles_per_barrier",
        stats.total_stall_cycles() as f64 / syncs,
    );

    let plain = compile(&source, false, &mut quiet, NO_PARENT)?;
    let (_, machine) = run(&plain, ctx.seed, &mut quiet, NO_PARENT)?;
    let plain_stats = machine.stats();
    ledger.put(
        "sim.noreorder.cycles_per_barrier",
        plain_stats.cycles as f64 / plain_stats.sync_events.max(1) as f64,
    );
    ledger.put("sched.executor.busy_unit_ns", busy_unit_ns);
    ledger.put(
        "bench.trace_overhead_frac",
        traced_run.median / untraced_run.median - 1.0,
    );
    Ok(tally)
}

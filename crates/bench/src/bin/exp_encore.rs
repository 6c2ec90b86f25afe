//! Experiment E10 — Sec. 8: the paper's measurement.
//!
//! "A software implementation of the fuzzy barrier on a four processor
//! Encore Multimax has been carried out. For nested loops, similar to
//! those in Fig. 9, the cost of synchronizing four processors was reduced
//! from 10,000 µsec to 300 µsec as the size of the barrier region was
//! increased from zero instructions to half of the total instructions in
//! the loop body. The cost of barrier synchronization is mainly due to
//! context saves and restores for the tasks that must be stalled."
//!
//! Reproduction (see DESIGN.md substitutions): the paper measured four
//! processors, and four threads on a host with fewer free cores than that
//! would time-slice, timing the OS scheduler rather than the barrier.
//! Instead the experiment runs on the
//! simulated 4-way multiprocessor: the Encore-style **software**
//! split-phase barrier (shared counter + generation word) is compiled to
//! ISA code, the loop body carries cache-miss drift, and the barrier
//! region grows from 0 to half of the body. The synchronization cost per
//! barrier is measured directly — cycles beyond a barrier-free baseline —
//! plus a context save/restore penalty charged when a processor's spin
//! exceeds the scheduler's spin budget, mirroring the cost structure the
//! paper identifies.

use fuzzy_barrier::{
    CentralBarrier, CountingBarrier, DisseminationBarrier, SplitBarrier, StallPolicy, TreeBarrier,
};
use fuzzy_bench::{banner, speedup, StatsExport, Table};
use fuzzy_sim::builder::MachineBuilder;
use fuzzy_sim::isa::{Cond, Instr};
use fuzzy_sim::program::{Program, Stream, StreamBuilder};
use fuzzy_sim::softbarrier::{emit_soft_arrive, emit_soft_wait, SoftBarrierRegs};
use fuzzy_util::Json;

const PROCS: usize = 4;
const OUTER: i64 = 50;
const BODY: i64 = 200; // loop-body work iterations (load+add+branch each)
const CTX_SWITCH_CYCLES: f64 = 1_000.0; // context save/restore per stall event
const SPIN_BUDGET: f64 = 12.0; // probes before the Encore scheduler switches

/// Emits a drift-prone work loop of `iters` iterations (label must be
/// unique within the stream).
fn work_loop(b: &mut StreamBuilder, iters: i64, label: &str) {
    b.plain(Instr::Li { rd: 10, imm: 0 });
    b.plain(Instr::Li { rd: 11, imm: iters });
    b.label(label);
    b.plain(Instr::Load {
        rd: 12,
        rs: 9,
        offset: 0,
    });
    b.plain(Instr::Addi {
        rd: 10,
        rs: 10,
        imm: 1,
    });
    b.plain_branch(Cond::Lt, 10, 11, label);
}

/// One processor's stream. With `barrier` off, the same body runs with no
/// synchronization at all (the baseline).
fn stream(region_iters: i64, barrier: bool) -> Stream {
    let mut b = StreamBuilder::new();
    b.plain(Instr::Li { rd: 24, imm: 0 }); // barrier variables at addr 0/1
    b.plain(Instr::Li { rd: 1, imm: 0 }); // k
    b.plain(Instr::Li { rd: 2, imm: OUTER });
    b.plain(Instr::Li { rd: 9, imm: 64 }); // private data pointer
    b.label("outer");
    work_loop(&mut b, BODY - region_iters, "work");
    if barrier {
        emit_soft_arrive(&mut b, PROCS as i64, SoftBarrierRegs::default());
        work_loop(&mut b, region_iters, "region");
        emit_soft_wait(&mut b, SoftBarrierRegs::default());
    } else {
        work_loop(&mut b, region_iters, "region");
    }
    b.plain(Instr::Addi {
        rd: 1,
        rs: 1,
        imm: 1,
    });
    b.plain_branch(Cond::Lt, 1, 2, "outer");
    b.plain(Instr::Halt);
    b.finish().expect("labels")
}

fn run(region_iters: i64, barrier: bool) -> (u64, u64) {
    let streams: Vec<Stream> = (0..PROCS).map(|_| stream(region_iters, barrier)).collect();
    let mut m = MachineBuilder::new(Program::new(streams))
        .miss_rate(0.35)
        .miss_penalty(120)
        .seed(1989)
        .build()
        .expect("loads");
    let out = m.run(1_000_000_000).expect("runs");
    assert!(out.is_halted(), "{out:?}");
    let accesses = (0..PROCS).map(|p| m.memory().stats(p).accesses).sum();
    (m.stats().cycles, accesses)
}

/// One processor's stream using the **hardware** fuzzy barrier: the same
/// drift-prone body, with `region_iters` of it executed inside the
/// barrier region (fuzzy instructions). Stall cycles then come straight
/// out of the barrier unit's state machine, with full telemetry.
fn hw_stream(region_iters: i64) -> Stream {
    let mut b = StreamBuilder::new();
    b.plain(Instr::Li { rd: 1, imm: 0 }); // k
    b.plain(Instr::Li { rd: 2, imm: OUTER });
    b.plain(Instr::Li { rd: 9, imm: 64 });
    b.label("outer");
    work_loop(&mut b, BODY - region_iters, "work");
    // Barrier region: the same loop shape, marked as barrier instructions.
    b.fuzzy(Instr::Li { rd: 10, imm: 0 });
    b.fuzzy(Instr::Li {
        rd: 11,
        imm: region_iters,
    });
    b.label("region");
    b.fuzzy(Instr::Load {
        rd: 12,
        rs: 9,
        offset: 0,
    });
    b.fuzzy(Instr::Addi {
        rd: 10,
        rs: 10,
        imm: 1,
    });
    b.fuzzy_branch(Cond::Lt, 10, 11, "region");
    b.plain(Instr::Addi {
        rd: 1,
        rs: 1,
        imm: 1,
    });
    b.plain_branch(Cond::Lt, 1, 2, "outer");
    b.plain(Instr::Halt);
    b.finish().expect("labels")
}

/// Runs the hardware-barrier sweep point, returning full machine stats.
fn run_hw(region_iters: i64) -> fuzzy_sim::MachineStats {
    let streams: Vec<Stream> = (0..PROCS).map(|_| hw_stream(region_iters)).collect();
    let mut m = MachineBuilder::new(Program::new(streams))
        .miss_rate(0.35)
        .miss_penalty(120)
        .seed(1989)
        .build()
        .expect("loads");
    let out = m.run(1_000_000_000).expect("runs");
    assert!(out.is_halted(), "{out:?}");
    m.stats()
}

/// Runs `episodes` split-phase episodes on each thread-library backend
/// with deliberately skewed arrival times, returning per-backend
/// telemetry for the JSON export.
fn backend_telemetry(episodes: u64) -> Vec<(&'static str, fuzzy_barrier::TelemetrySnapshot)> {
    let n = PROCS;
    let backends: Vec<(&'static str, Box<dyn SplitBarrier>)> = vec![
        (
            "central",
            Box::new(CentralBarrier::with_policy(n, StallPolicy::yielding())),
        ),
        (
            "counting",
            Box::new(CountingBarrier::with_policy(n, StallPolicy::yielding())),
        ),
        (
            "dissemination",
            Box::new(DisseminationBarrier::with_policy(
                n,
                StallPolicy::yielding(),
            )),
        ),
        (
            "tree",
            Box::new(TreeBarrier::with_fan_in(n, 2, StallPolicy::yielding())),
        ),
    ];
    backends
        .into_iter()
        .map(|(name, b)| {
            std::thread::scope(|s| {
                for id in 0..n {
                    let b = &*b;
                    s.spawn(move || {
                        for _ in 0..episodes {
                            let t = b.arrive(id);
                            // Skewed barrier region so early arrivers stall.
                            let mut acc = 0u64;
                            for i in 0..(id as u64 * 200) {
                                acc = acc.wrapping_add(i);
                            }
                            std::hint::black_box(acc);
                            b.wait(t);
                        }
                    });
                }
            });
            (name, b.telemetry())
        })
        .collect()
}

fn main() {
    banner(
        "E10: sync cost vs barrier-region size (software fuzzy barrier)",
        "Sec. 8 of Gupta, ASPLOS 1989 (Encore Multimax measurement)",
    );
    println!(
        "\n{PROCS} simulated processors, {OUTER} outer iterations, body = {BODY} \
         drift-prone iterations;\nstalls past a {SPIN_BUDGET}-probe spin budget are \
         charged a {CTX_SWITCH_CYCLES}-cycle context switch.\n"
    );

    let mut export = StatsExport::from_env("encore");
    let episodes = OUTER as f64;
    let mut t = Table::new([
        "region (% of body)",
        "total cycles",
        "spin probes/proc/barrier",
        "ctx switches",
        "sync cost/barrier (cycles)",
    ]);
    let mut first = None;
    let mut last = None;
    let mut hw_sweep = Vec::new();
    for pct in [0i64, 10, 20, 30, 40, 50] {
        let region = BODY * pct / 100;
        let (with_cycles, with_accesses) = run(region, true);
        let (base_cycles, base_accesses) = run(region, false);
        // Hardware-barrier twin of the same sweep point: direct stall
        // telemetry from the barrier unit's state machine.
        let hw = run_hw(region);
        hw_sweep.push((pct, hw));

        // Spin probes: barrier-run memory accesses beyond the baseline,
        // minus the fixed arrive/release traffic (2 per proc per episode
        // + 2 releases per episode) and the one successful probe each
        // processor always performs.
        let barrier_traffic = with_accesses.saturating_sub(base_accesses) as f64;
        let fixed = (PROCS as f64 * 2.0 + 2.0) * episodes + PROCS as f64 * episodes;
        let wasted_probes = (barrier_traffic - fixed).max(0.0);
        let probes_per_proc_barrier = wasted_probes / (PROCS as f64 * episodes);

        // Context switches: the early arrivers are descheduled whenever
        // their spin exceeds the budget.
        let ctx_switches = if probes_per_proc_barrier > SPIN_BUDGET {
            (PROCS as f64 - 1.0) * episodes
        } else {
            0.0
        };

        let cost = (with_cycles.saturating_sub(base_cycles)) as f64 / episodes
            + ctx_switches * CTX_SWITCH_CYCLES / episodes;
        if pct == 0 {
            first = Some(cost);
        }
        if pct == 50 {
            last = Some(cost);
        }
        t.row([
            format!("{pct}%"),
            with_cycles.to_string(),
            format!("{probes_per_proc_barrier:.0}"),
            format!("{ctx_switches:.0}"),
            format!("{cost:.0}"),
        ]);
    }
    println!("{}", t.render());
    let (zero, half) = (first.unwrap(), last.unwrap());
    println!(
        "paper: 10,000 us -> 300 us (33x) as the region grew 0% -> 50%.\n\
         ours:  {zero:.0} -> {half:.0} cycles/barrier ({}).\n",
        speedup(zero, half.max(1e-9))
    );
    assert!(
        zero > 5.0 * half.max(1.0),
        "the cost collapse should be at least ~5x (got {zero:.0} vs {half:.0})"
    );
    println!(
        "Reading: growing the barrier region removes both the busy-wait\n\
         probes and, past the spin budget, the context switches — the\n\
         order-of-magnitude collapse the paper measured on the Encore."
    );

    // The hardware sweep must reproduce the same shape: total stall
    // cycles decrease monotonically as the barrier region grows.
    let mut hw_table = Table::new(["region (% of body)", "total stall cycles", "sync events"]);
    for (pct, hw) in &hw_sweep {
        hw_table.row([
            format!("{pct}%"),
            hw.total_stall_cycles().to_string(),
            hw.sync_events.to_string(),
        ]);
    }
    println!("hardware fuzzy barrier, same sweep:\n{}", hw_table.render());
    for pair in hw_sweep.windows(2) {
        assert!(
            pair[1].1.total_stall_cycles() <= pair[0].1.total_stall_cycles(),
            "stall cycles must decrease monotonically with region size \
             ({}% -> {}%: {} -> {})",
            pair[0].0,
            pair[1].0,
            pair[0].1.total_stall_cycles(),
            pair[1].1.total_stall_cycles()
        );
    }

    export.table("soft_sweep", &t);
    if export.enabled() {
        export.section(
            "hw_sweep",
            Json::Arr(
                hw_sweep
                    .iter()
                    .map(|(pct, hw)| {
                        Json::obj()
                            .field("region_pct", *pct)
                            .field("total_stall_cycles", hw.total_stall_cycles())
                            .field("machine", hw.to_json())
                    })
                    .collect(),
            ),
        );
        let mut backends = Json::obj();
        for (name, telemetry) in backend_telemetry(200) {
            backends = backends.field(name, telemetry.to_json());
        }
        export.section("backends", backends);
    }
    export.finish();
}

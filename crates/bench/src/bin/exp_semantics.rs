//! Experiment E1 — Fig. 1: fuzzy-barrier semantics.
//!
//! Two demonstrations on the cycle-level simulator:
//!
//! 1. **Ordering**: no processor executes an instruction from the
//!    non-barrier region following a barrier (UNSHADED2) until all
//!    processors have finished the non-barrier region preceding it
//!    (UNSHADED1) — checked with cross-processor flag reads.
//! 2. **Skew tolerance**: sweeping the barrier-region size shows stall
//!    cycles dropping to zero once the region covers the arrival skew —
//!    "the larger the barrier region, the more likely it is that none of
//!    the processors will have to stall".
//!
//! Run with `--pipelined` to use overlapped issue, where a processor "may
//! enter the barrier region before exiting the preceding non-barrier
//! region" (Sec. 6). That run has a 16-cycle memory: the flag store ending
//! UNSHADED1 is still in flight when the processor enters its region, its
//! ready line waits for the store, and the last arriver synchronizes 16
//! instructions into its region instead of at its first.

use fuzzy_bench::{banner, StatsExport, Table};
use fuzzy_sim::isa::{Cond, Instr};
use fuzzy_sim::machine::{Machine, MachineConfig};
use fuzzy_sim::program::{Program, Stream, StreamBuilder};

/// Builds one stream: `work` units of pre-barrier work, a flag store, a
/// barrier region of `region` busy iterations, then a read of the other
/// processor's flag.
fn stream(proc: usize, procs: usize, work: i64, region: i64) -> Stream {
    let mut b = StreamBuilder::new();
    // UNSHADED1: variable-length work loop.
    b.plain(Instr::Li { rd: 1, imm: 0 });
    b.plain(Instr::Li { rd: 2, imm: work });
    b.label("work");
    b.plain(Instr::Addi {
        rd: 1,
        rs: 1,
        imm: 1,
    });
    b.plain_branch(Cond::Lt, 1, 2, "work");
    // Publish "I finished UNSHADED1".
    b.plain(Instr::Li { rd: 3, imm: 1 });
    b.plain(Instr::Store {
        rs: 3,
        rb: 0,
        offset: 100 + proc as i64,
    });
    // SHADED: the barrier region.
    if region == 0 {
        b.fuzzy(Instr::Nop); // null barrier region (Sec. 6)
    } else {
        b.fuzzy(Instr::Li { rd: 4, imm: 0 });
        b.fuzzy(Instr::Li { rd: 5, imm: region });
        b.label("region");
        b.fuzzy(Instr::Addi {
            rd: 4,
            rs: 4,
            imm: 1,
        });
        b.fuzzy_branch(Cond::Lt, 4, 5, "region");
    }
    // UNSHADED2: read every other processor's flag.
    for other in 0..procs {
        if other != proc {
            b.plain(Instr::Load {
                rd: 6,
                rs: 0,
                offset: 100 + other as i64,
            });
            // Trap: store 999 to a check word if the flag was not set.
            b.plain(Instr::Li { rd: 7, imm: 1 });
            b.plain_branch(Cond::Eq, 6, 7, format!("ok{other}"));
            b.plain(Instr::Li { rd: 8, imm: 999 });
            b.plain(Instr::Store {
                rs: 8,
                rb: 0,
                offset: 200 + proc as i64,
            });
            b.label(format!("ok{other}"));
            b.plain(Instr::Nop);
        }
    }
    b.plain(Instr::Halt);
    b.finish().expect("labels resolve")
}

/// Memory latency of the pipelined run, in cycles. At the default (1) no
/// non-barrier instruction is in flight when a processor enters its
/// region, and the pipelined table is the serial one; at this latency the
/// flag store that ends UNSHADED1 still is, so the processor's ready line
/// waits for it while the processor runs on into its region (Sec. 6).
const PIPELINED_HIT_LATENCY: u64 = 16;

fn run(works: &[i64], region: i64, pipelined: bool) -> (u64, u64, bool, Vec<u64>) {
    let procs = works.len();
    let streams = works
        .iter()
        .enumerate()
        .map(|(p, &w)| stream(p, procs, w, region))
        .collect();
    let mut cfg = MachineConfig {
        pipelined,
        ..MachineConfig::default()
    };
    if pipelined {
        cfg.memory.hit_latency = PIPELINED_HIT_LATENCY;
    }
    let mut m = Machine::new(Program::new(streams), cfg).expect("valid program");
    // Stepped one cycle at a time, so that each region position can be
    // read where it was taken: a processor whose sync count rose in a
    // cycle synchronized there, at its `region_progress` (`run`'s
    // telemetry keeps only their distribution).
    let mut positions = Vec::new();
    let mut syncs = vec![0; procs];
    loop {
        let live = m.step().expect("no memory faults");
        for (p, seen) in m.procs().iter().zip(&mut syncs) {
            if p.stats.syncs > *seen {
                *seen = p.stats.syncs;
                positions.push(p.region_progress);
            }
        }
        if !live || m.cycle() >= 10_000_000 {
            break;
        }
    }
    assert!(m.all_halted(), "still running at cycle {}", m.cycle());
    let t = m.stats().sync;
    assert_eq!(
        (positions.len() as u64, positions.iter().sum::<u64>()),
        (t.position_hist.total(), t.position_total_instrs),
        "the stepped image disagrees with the telemetry"
    );
    let violated = (0..procs).any(|p| m.memory().peek(200 + p) == 999);
    (
        m.stats().total_stall_cycles(),
        m.stats().sync_events,
        violated,
        positions,
    )
}

fn main() {
    let mut export = StatsExport::from_env("semantics");
    let pipelined = std::env::args().any(|a| a == "--pipelined");
    banner(
        "E1: fuzzy barrier semantics and skew tolerance",
        "Fig. 1 of Gupta, ASPLOS 1989",
    );
    if pipelined {
        println!("mode: pipelined issue, {PIPELINED_HIT_LATENCY}-cycle memory\n");
    } else {
        println!("mode: serial issue\n");
    }

    // Four processors with very different UNSHADED1 lengths (2x instr/iter).
    let works = [50i64, 200, 400, 800];
    println!(
        "four processors, pre-barrier work of {works:?} loop iterations;\n\
         sweeping the barrier-region length:\n"
    );
    let mut t = Table::new([
        "region iters",
        "stall cycles",
        "sync events",
        "ordering violated",
        "region positions at sync",
    ]);
    for region in [0i64, 50, 100, 200, 400, 800] {
        let (stalls, syncs, violated, mut positions) = run(&works, region, pipelined);
        positions.sort_unstable();
        t.row([
            region.to_string(),
            stalls.to_string(),
            syncs.to_string(),
            violated.to_string(),
            format!("{positions:?}"),
        ]);
    }
    println!("{}", t.render());
    export.table("results", &t);
    println!(
        "The last column is Fig. 1's defining image: at the moment of\n\
         synchronization, the processors are at *different* positions in\n\
         their barrier regions (0 = just entered, larger = deeper in).\n"
    );
    println!(
        "Reading: ordering is never violated (Fig. 1's condition holds at\n\
         every region size), while stall cycles fall monotonically and reach\n\
         zero once each region covers the fastest-to-slowest skew."
    );
    export.finish();
}

//! Experiment E5 — Fig. 6: multiple barriers, masks and tags.
//!
//! Fig. 6 merges streams pairwise: P1 and P2 synchronize at B1 while P3 is
//! still working; later all three synchronize at B2. Two demonstrations:
//!
//! 1. **Simulator**: disjoint subsets synchronize independently via
//!    mask/tag registers; a single-barrier static schedule forces
//!    "redundant synchronizations" on P3 (extra stalls); and the Fig. 6
//!    bug — P3 synchronizing at the wrong logical barrier — cannot happen
//!    because its tag differs.
//! 2. **Thread library**: `GroupRegistry` allocates at most N−1 logical
//!    barriers for N dynamically created streams ("a maximum of N−1
//!    barriers is needed", Sec. 5) and disjoint subset barriers proceed
//!    independently.

use fuzzy_barrier::{GroupRegistry, ProcMask};
use fuzzy_bench::{banner, StatsExport, Table};
use fuzzy_sim::assembler::assemble_program;
use fuzzy_sim::builder::MachineBuilder;
use fuzzy_util::Json;
use std::sync::Arc;

/// P0 and P1 sync at tag 1 (masks naming only each other), then everyone
/// at tag 2. P2 does a long solo computation first. Work loops give P2 a
/// 60-iteration head start requirement.
const MULTI: &str = "\
.stream                 ; P0
    setmask 0b010       ; partner: P1 only
    settag 1
    li r1, 0
    li r2, 10
w0: addi r1, r1, 1
    blt r1, r2, w0
B:  nop                 ; barrier B1 (P0+P1)
    setmask 0b110       ; partners: P1 and P2
    settag 2
    li r1, 0
w1: addi r1, r1, 1
    blt r1, r2, w1
B:  nop                 ; barrier B2 (all)
    halt
.stream                 ; P1
    setmask 0b001       ; partner: P0 only
    settag 1
    li r1, 0
    li r2, 14
w0: addi r1, r1, 1
    blt r1, r2, w0
B:  nop                 ; barrier B1 (P0+P1)
    setmask 0b101
    settag 2
    li r1, 0
w1: addi r1, r1, 1
    blt r1, r2, w1
B:  nop                 ; barrier B2 (all)
    halt
.stream                 ; P2: long solo phase, then join at B2
    setmask 0b011
    settag 2
    li r1, 0
    li r2, 60
w0: addi r1, r1, 1
    blt r1, r2, w0
B:  nop                 ; barrier B2 (all)
    halt
";

/// Single-barrier schedule: every synchronization involves all three
/// processors ("by forcing all processors to synchronize each time any two
/// processors need to synchronize, a correct schedule that uses a single
/// barrier can be generated. However … redundant synchronizations").
const SINGLE: &str = "\
.stream                 ; P0
    li r1, 0
    li r2, 10
w0: addi r1, r1, 1
    blt r1, r2, w0
B:  nop                 ; sync 1 (all three)
    li r1, 0
w1: addi r1, r1, 1
    blt r1, r2, w1
B:  nop                 ; sync 2 (all three)
    halt
.stream                 ; P1
    li r1, 0
    li r2, 14
w0: addi r1, r1, 1
    blt r1, r2, w0
B:  nop
    li r1, 0
w1: addi r1, r1, 1
    blt r1, r2, w1
B:  nop
    halt
.stream                 ; P2 must now attend both barriers
    li r1, 0
    li r2, 30
w0: addi r1, r1, 1
    blt r1, r2, w0
B:  nop                 ; redundant for P2
    li r1, 0
w1: addi r1, r1, 1
    blt r1, r2, w1
B:  nop
    halt
";

fn run(src: &str) -> (bool, u64, Vec<u64>, Vec<u64>) {
    let mut m = MachineBuilder::new(assemble_program(src).expect("assembles"))
        .build()
        .expect("loads");
    let out = m.run(1_000_000).expect("runs");
    let stats = m.stats();
    (
        out.is_halted(),
        stats.sync_events,
        stats.procs.iter().map(|p| p.syncs).collect(),
        stats.procs.iter().map(|p| p.stall_cycles).collect(),
    )
}

fn main() {
    let mut export = StatsExport::from_env("multiple_barriers");
    banner(
        "E5: multiple barriers via masks and tags",
        "Fig. 6 of Gupta, ASPLOS 1989",
    );

    let (halted, events, syncs, stalls) = run(MULTI);
    println!("\nmulti-barrier schedule (B1: P0+P1 under tag 1; B2: all under tag 2):");
    let mut t = Table::new(["proc", "syncs", "stall cycles"]);
    for p in 0..3 {
        t.row([p.to_string(), syncs[p].to_string(), stalls[p].to_string()]);
    }
    println!("{}", t.render());
    export.table("multi_barrier", &t);
    println!("halted: {halted}, total sync events: {events}");
    assert!(halted);
    assert_eq!(syncs, vec![2, 2, 1], "P2 attends only B2");

    let (halted, events, syncs, stalls) = run(SINGLE);
    println!("\nsingle-barrier static schedule (everyone syncs every time):");
    let mut t = Table::new(["proc", "syncs", "stall cycles"]);
    for p in 0..3 {
        t.row([p.to_string(), syncs[p].to_string(), stalls[p].to_string()]);
    }
    println!("{}", t.render());
    export.table("single_barrier", &t);
    println!("halted: {halted}, total sync events: {events}");
    assert!(halted);
    assert_eq!(
        syncs,
        vec![2, 2, 2],
        "the single-barrier schedule forces a redundant sync on P2"
    );

    // Thread-library half: dynamic stream creation with the N−1 budget.
    println!("\n--- thread library: GroupRegistry with N−1 logical barriers ---\n");
    let n = 4;
    let registry = Arc::new(GroupRegistry::new(n));
    println!("capacity for {n} streams: {} barriers", registry.capacity());

    // Parent stream 0 spawns streams 1..4; each spawn allocates exactly
    // one barrier shared with the parent, as in Sec. 5.
    let mut pair_barriers = Vec::new();
    for child in 1..n {
        let mask: ProcMask = [0usize, child].into_iter().collect();
        let (tag, barrier) = registry.allocate(mask).expect("within budget");
        println!("spawned stream {child}: allocated {tag} over mask {mask}");
        pair_barriers.push((child, barrier));
    }
    assert!(
        registry.allocate(ProcMask::first_n(2)).is_err(),
        "the N-1 budget is exhausted"
    );

    // Each child synchronizes with the parent through its own barrier;
    // disjoint pairs never interfere.
    std::thread::scope(|s| {
        for (child, barrier) in &pair_barriers {
            let barrier = Arc::clone(barrier);
            let child = *child;
            s.spawn(move || {
                for _ in 0..100 {
                    let t = barrier.arrive(child, barrier.tag()).expect("tag matches");
                    barrier.wait(t);
                }
            });
        }
        // The parent participates in every pair barrier, round-robin.
        for _ in 0..100 {
            for (_, barrier) in &pair_barriers {
                let t = barrier.arrive(0, barrier.tag()).expect("tag matches");
                barrier.wait(t);
            }
        }
    });
    for (child, barrier) in &pair_barriers {
        let stats = barrier.stats();
        println!(
            "parent<->stream {child}: {} episodes, stall rate {:.2}",
            stats.episodes,
            stats.stall_rate()
        );
        assert_eq!(stats.episodes, 100);
    }
    println!(
        "\nReading: with masks+tags, P2 attends one barrier instead of two\n\
         (no redundant synchronization), and N streams never need more than\n\
         N-1 logical barriers."
    );
    if export.enabled() {
        // Registry-level telemetry aggregation: merged histograms and
        // summed counters across all live pair barriers, plus per-tag
        // breakdown.
        let (total, per_barrier) = registry.aggregate_telemetry();
        let mut per = Json::obj();
        for (tag, telemetry) in &per_barrier {
            per = per.field(&tag.to_string(), telemetry.to_json());
        }
        export.section(
            "registry",
            Json::obj()
                .field("total", total.to_json())
                .field("per_barrier", per),
        );
    }
    export.finish();
}

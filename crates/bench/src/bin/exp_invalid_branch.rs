//! Experiment E2 — Fig. 2: the invalid branch.
//!
//! A branch that transfers control directly from barrier₁ into barrier₂
//! makes processor P₁ cross **both** barriers with a single
//! synchronization, deadlocking its partner at barrier₂. Three runs:
//!
//! 1. the static validator rejects the program (the paper: "the compiler
//!    should not generate code where control can be transferred directly
//!    from one barrier to another");
//! 2. with validation disabled, the machine deadlocks exactly as the
//!    paper predicts;
//! 3. giving the two barriers distinct **tags** (Sec. 5/6) removes the
//!    ambiguity: the paper notes "the above problem will not arise in an
//!    implementation which explicitly specifies unique identifiers for
//!    barriers in the code" — with tags, the mis-matched synchronization
//!    attempt is simply never satisfied and the bug is confined.

use fuzzy_bench::{banner, StatsExport};
use fuzzy_sim::assembler::assemble_program;
use fuzzy_sim::builder::MachineBuilder;
use fuzzy_util::Json;

/// P0 takes the invalid branch from barrier 1 into barrier 2; P1
/// synchronizes at both barriers properly.
const INVALID: &str = "\
.stream
    li r1, 1
B:  nop            ; barrier 1
B:  j skip         ; INVALID: barrier -> barrier (skips UNSHADED)
    addi r1, r1, 1 ; non-barrier region between the barriers
skip:
B:  nop            ; barrier 2
    halt
.stream
    li r1, 1
B:  nop            ; barrier 1
    addi r1, r1, 1 ; non-barrier region
B:  nop            ; barrier 2
    halt
";

/// Same control flow, but each barrier gets its own tag and P0 announces
/// which barrier it is at; the two processors only match at equal tags.
const TAGGED: &str = "\
.stream
    li r1, 1
    settag 1
B:  nop            ; barrier 1 (tag 1)
B:  j skip
    addi r1, r1, 1
skip:
B:  settag 2       ; barrier 2 announces its identity
B:  nop
    halt
.stream
    li r1, 1
    settag 1
B:  nop            ; barrier 1 (tag 1)
    addi r1, r1, 1
    settag 2
B:  nop            ; barrier 2 (tag 2)
    halt
";

fn main() {
    let mut export = StatsExport::from_env("invalid_branch");
    banner("E2: the invalid branch", "Fig. 2 of Gupta, ASPLOS 1989");

    let program = assemble_program(INVALID).expect("assembles");

    // 1. Static validation.
    match MachineBuilder::new(program.clone()).build() {
        Err(e) => println!("validator: rejected as expected\n  -> {e}"),
        Ok(_) => println!("validator: UNEXPECTEDLY accepted the invalid program"),
    }

    // 2. Run anyway.
    let mut m = MachineBuilder::new(program)
        .validate(false)
        .build()
        .expect("load without validation");
    let out = m.run(100_000).expect("no memory faults");
    println!(
        "\nrunning it anyway: outcome after {} cycles = {:?}",
        out.cycles(),
        out
    );
    println!(
        "  P0 synchronized {} time(s) and halted: {}",
        m.proc_stats(0).syncs,
        m.procs()[0].halted
    );
    println!(
        "  P1 synchronized {} time(s) and halted: {}  (stalled {} cycles at barrier 2)",
        m.proc_stats(1).syncs,
        m.procs()[1].halted,
        m.proc_stats(1).stall_cycles
    );
    assert!(out.is_deadlock(), "the paper predicts deadlock");
    let deadlock_stats = m.stats();

    // 3. Tags disambiguate the barriers.
    let tagged = assemble_program(TAGGED).expect("assembles");
    let mut m = MachineBuilder::new(tagged)
        .validate(false)
        .build()
        .expect("load");
    let out = m.run(100_000).expect("no memory faults");
    if export.enabled() {
        export.section(
            "invalid_run",
            Json::obj()
                .field("deadlocked", true)
                .field("machine", deadlock_stats.to_json()),
        );
        export.section(
            "tagged_run",
            Json::obj()
                .field("deadlocked", false)
                .field("machine", m.stats().to_json()),
        );
    }
    export.finish();
    println!(
        "\nwith unique tags per barrier: outcome = {out:?} \
         (the bogus cross-barrier match can no longer fire;\n\
         P0 waits at tag-2 until P1 also reaches tag 2, so both barriers\n\
         keep their identity: P0 syncs {}x, P1 syncs {}x)",
        m.proc_stats(0).syncs,
        m.proc_stats(1).syncs,
    );
}

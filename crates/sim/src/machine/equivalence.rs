//! Stepwise-vs-`run` equivalence: [`Machine::run`] visits, evaluates and
//! charges only where something can have changed, and nothing a caller
//! can observe may tell.
//!
//! The reference is the loop `run` once was — one [`Machine::step`] and
//! one deadlock probe per simulated cycle. Both sides start from machines
//! built identically, and everything observable is compared afterwards.
//! The suite lives under `machine` because the probe and the mutation
//! hook ([`Machine::forgotten`]) are private.
//!
//! Compiler output and the fuzz corpus come from crates that link the
//! ordinary build of `fuzzy-sim`, whose `Program` is a different type from
//! this test build's; the binary program image carries them across.

use super::*;
use crate::assembler::assemble;
use crate::encoding::decode_program;
use crate::fault::ReadyFault;
use crate::isa::Op;
use crate::memory::MemStats;
use crate::program::{Stream, StreamBuilder};
use crate::softbarrier::{emit_soft_barrier, SoftBarrierRegs};
use crate::trace::Event;
use fuzzy_compiler::driver::{compile_nest, CompileOptions};
use fuzzy_compiler::fuzzy_sim::encoding::encode_program;
use fuzzy_compiler::parse::parse_program;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// One machine configuration; [`Setup::machine`] builds it afresh.
#[derive(Clone)]
struct Setup {
    program: Program,
    /// Entry point of the interrupt handler appended to each stream.
    handlers: Vec<usize>,
    data: Vec<(usize, i64)>,
    pipelined: bool,
    faults: Vec<FaultPlan>,
    watchdog: Option<u64>,
    /// `(processor, cycle)` of a scheduled interrupt.
    interrupt: Option<(usize, u64)>,
    forgotten: Option<Forgotten>,
}

impl Setup {
    /// `program` with a three-instruction interrupt handler appended to
    /// every stream, drifting memory (so serial runs have long busy
    /// spans), nothing injected.
    fn new(program: &Program, data: Vec<(usize, i64)>) -> Setup {
        let handler = [Instr::Nop, Instr::Nop, Instr::Ret].map(Op::plain);
        let streams: Vec<Stream> = program
            .streams()
            .iter()
            .map(|s| Stream::from_ops([s.ops(), &handler[..]].concat()))
            .collect();
        Setup {
            handlers: program.streams().iter().map(Stream::len).collect(),
            program: Program::new(streams),
            data,
            pipelined: false,
            faults: Vec::new(),
            watchdog: None,
            interrupt: None,
            forgotten: None,
        }
    }

    /// This setup with the mutation hook set.
    fn forgetting(&self, forgotten: Forgotten) -> Setup {
        Setup {
            forgotten: Some(forgotten),
            ..self.clone()
        }
    }

    fn machine(&self) -> Machine {
        let cfg = MachineConfig {
            memory: MemoryConfig {
                miss_rate: 0.35,
                miss_penalty: 40,
                ..MemoryConfig::default()
            },
            pipelined: self.pipelined,
            trace: true,
            ..MachineConfig::default()
        };
        let n = self.program.num_procs();
        let units = (0..n)
            .map(|i| BarrierUnit {
                watchdog: self.watchdog,
                ..BarrierUnit::new(wired(n) & !(1u64 << i), 1)
            })
            .collect();
        let mut m = Machine::with_units(self.program.clone(), cfg, units).expect("loads");
        for &(addr, value) in &self.data {
            m.memory_mut().poke(addr, value);
        }
        for (proc, &handler) in self.handlers.iter().enumerate() {
            m.set_trap_handler(proc, handler);
        }
        for &plan in &self.faults {
            m.inject_ready_fault(plan);
        }
        if let Some((proc, cycle)) = self.interrupt {
            m.schedule_interrupt(proc, cycle, self.handlers[proc]);
        }
        m.forgotten = self.forgotten;
        m
    }
}

/// `Machine::run` as it was before it had events.
fn run_stepwise(m: &mut Machine, max_cycles: u64) -> Result<RunOutcome, SimError> {
    while m.cycle < max_cycles {
        if !m.step()? {
            return Ok(RunOutcome::Halted { cycles: m.cycle });
        }
        if m.is_deadlocked() {
            return Ok(RunOutcome::Deadlock { cycle: m.cycle });
        }
    }
    Ok(RunOutcome::CycleLimit { cycles: m.cycle })
}

/// Everything a caller can observe of a run, plus the private queues that
/// decide what happens next.
struct Observed {
    outcome: Result<RunOutcome, String>,
    cycle: u64,
    stats: MachineStats,
    waiting: Vec<u64>,
    /// Registers, program counters, unit states, frames, in-flight lists.
    procs: String,
    memory: Vec<i64>,
    mem_stats: Vec<MemStats>,
    sync_positions: Vec<u64>,
    evictions: Vec<EvictionEvent>,
    trace: Vec<Event>,
    trace_dropped: u64,
    interrupts: Vec<(u64, usize, usize)>,
    /// Includes each stutter's RNG position.
    faults: String,
}

impl Observed {
    fn of(m: &Machine, outcome: Result<RunOutcome, SimError>) -> Observed {
        let n = m.procs.len();
        Observed {
            outcome: outcome.map_err(|e| e.to_string()),
            cycle: m.cycle(),
            stats: m.stats(),
            waiting: m.procs().iter().map(|p| p.unit.waiting).collect(),
            procs: format!("{:?}", m.procs()),
            memory: (0..m.memory().config().size_words)
                .map(|a| m.memory().peek(a))
                .collect(),
            mem_stats: (0..n).map(|p| m.memory().stats(p)).collect(),
            sync_positions: m.sync_positions().to_vec(),
            evictions: m.evictions().to_vec(),
            trace: m.trace().events().to_vec(),
            trace_dropped: m.trace().dropped(),
            interrupts: m.interrupts.clone(),
            faults: format!("{:?}", m.faults),
        }
    }

    /// What differs from `reference`, in a line (a whole memory image in
    /// a panic message helps nobody).
    fn differs_from(&self, reference: &Observed) -> Option<String> {
        macro_rules! field {
            ($($name:ident),*) => {$(
                if self.$name != reference.$name {
                    let shown = |o: &Observed| {
                        let all = format!("{:?}", o.$name);
                        all.chars().take(300).collect::<String>()
                    };
                    return Some(format!(
                        "{}: run {} vs stepwise {}",
                        stringify!($name), shown(self), shown(reference)
                    ));
                }
            )*};
        }
        field!(
            outcome,
            cycle,
            stats,
            waiting,
            procs,
            memory,
            mem_stats,
            sync_positions,
            evictions,
            trace,
            trace_dropped,
            interrupts,
            faults
        );
        None
    }
}

/// Runs the machine `build` makes to `max_cycles` both ways, then once
/// more in two legs with the first leg's budget at each of `limits`:
/// `run(k)` must equal `k` cycles stepped, and `run(k)` then `run(max)`
/// one `run(max)`.
fn check(build: &dyn Fn() -> Machine, max_cycles: u64, limits: &[u64]) -> Result<(), String> {
    let mut stepped = build();
    let outcome = run_stepwise(&mut stepped, max_cycles);
    let reference = Observed::of(&stepped, outcome);

    let mut fast = build();
    let outcome = fast.run(max_cycles);
    if let Some(d) = Observed::of(&fast, outcome).differs_from(&reference) {
        return Err(format!("run({max_cycles}): {d}"));
    }

    for &k in limits {
        let mut stepped = build();
        let outcome = run_stepwise(&mut stepped, k);
        let first_leg = Observed::of(&stepped, outcome);
        let mut fast = build();
        let outcome = fast.run(k);
        if let Some(d) = Observed::of(&fast, outcome).differs_from(&first_leg) {
            return Err(format!("run({k}): {d}"));
        }
        // A run that ended for good has no second leg.
        if matches!(first_leg.outcome, Ok(RunOutcome::CycleLimit { .. })) {
            let outcome = fast.run(max_cycles);
            if let Some(d) = Observed::of(&fast, outcome).differs_from(&reference) {
                return Err(format!("run({k}) then run({max_cycles}): {d}"));
            }
        }
    }
    Ok(())
}

/// The whole matrix over one program: serial/pipelined × {no fault,
/// `Delay`, `Stutter`, `Stall`} × watchdog unarmed/armed, each run plain,
/// with an interrupt scheduled at several points of the run, and cut by a
/// cycle limit at several points. Returns the first difference found.
fn check_matrix(name: &str, base: &Setup) -> Result<(), String> {
    let n = base.program.num_procs();
    let victim = n - 1;
    for pipelined in [false, true] {
        let plain = Setup {
            pipelined,
            ..base.clone()
        };
        let mut probe = plain.machine();
        let outcome = run_stepwise(&mut probe, 1_000_000).expect("runs");
        assert!(outcome.is_halted(), "{name}: fault-free run must halt");
        // Every injected time is placed relative to the fault-free length
        // `t`; the odd offsets keep them off any round boundary.
        let t = outcome.cycles();
        let max_cycles = 2 * t + 300;
        let faults = [
            None,
            Some(ReadyFault::Delay { cycles: t / 4 + 7 }),
            Some(ReadyFault::Stutter { p: 0.5, seed: 11 }),
            Some(ReadyFault::Stall),
        ];
        for fault in faults {
            for watchdog in [None, Some(t / 8 + 5)] {
                let setup = Setup {
                    faults: Vec::from_iter(fault.map(|fault| FaultPlan {
                        victim,
                        onset: t / 3 + 1,
                        fault,
                    })),
                    watchdog,
                    ..plain.clone()
                };
                let label = |what: &str| {
                    format!("{name} pipelined={pipelined} {fault:?} watchdog={watchdog:?} {what}")
                };
                let limits = [t / 5 + 3, t / 2 + 1, t - 2];
                check(&|| setup.machine(), max_cycles, &limits)
                    .map_err(|d| format!("{}: {d}", label("")))?;
                for (proc, at) in [(0, t / 7 + 2), (victim, t / 2 + 9), (n / 2, t - t / 6)] {
                    let setup = Setup {
                        interrupt: Some((proc, at)),
                        ..setup.clone()
                    };
                    check(&|| setup.machine(), max_cycles, &[]).map_err(|d| {
                        format!("{}: {d}", label(&format!("interrupt p{proc}@{at}")))
                    })?;
                }
            }
        }
    }
    Ok(())
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A program of the ordinary `fuzzy-sim` build, as one of this build.
fn adopt(program: &fuzzy_compiler::fuzzy_sim::Program) -> Program {
    decode_program(&encode_program(program).expect("encodes")).expect("decodes")
}

/// Three streams meeting three times at the shared-variable barrier of
/// Sec. 1 — fetch-and-add, then a spin on the generation word — with a
/// `trap` on the way: no barrier hardware at all, every processor issuing
/// until it halts.
fn soft_barrier_program() -> Program {
    let streams = (0..3)
        .map(|p| {
            let mut b = StreamBuilder::new();
            b.plain(Instr::Li { rd: 24, imm: 0 });
            for round in 0..3 {
                for word in 0..=p {
                    b.plain(Instr::Store {
                        rs: 24,
                        rb: 24,
                        offset: 16 + word,
                    });
                }
                if round == 1 {
                    b.plain(Instr::Trap { cause: 7 });
                }
                emit_soft_barrier(&mut b, 3, round, SoftBarrierRegs::default());
            }
            b.plain(Instr::Halt);
            b.finish().expect("builds")
        })
        .collect();
    Program::new(streams)
}

/// Every `demos/*.fasm`, the compiled `demos/poisson.fc`, the software
/// barrier, and each fuzz corpus case compiled for its full processor
/// count.
fn programs() -> Vec<(String, Setup)> {
    let demos = repo_root().join("demos");
    let mut out = Vec::new();
    let mut fasm: Vec<PathBuf> = std::fs::read_dir(&demos)
        .expect("demos/")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "fasm"))
        .collect();
    fasm.sort();
    assert!(!fasm.is_empty(), "no demos/*.fasm found");
    for path in fasm {
        let src = std::fs::read_to_string(&path).expect("readable");
        let asm = assemble(&src).expect("assembles");
        let name = path
            .file_name()
            .expect("name")
            .to_string_lossy()
            .into_owned();
        out.push((name, Setup::new(&asm.program, asm.data)));
    }

    let src = std::fs::read_to_string(demos.join("poisson.fc")).expect("readable");
    let parsed = parse_program(&src).expect("parses");
    let compiled = compile_nest(&parsed.nest, &parsed.proc_inits, &CompileOptions::default())
        .expect("compiles");
    out.push((
        "poisson.fc".into(),
        Setup::new(&adopt(&compiled.program), parsed.data),
    ));

    out.push((
        "softbarrier".into(),
        Setup::new(&soft_barrier_program(), Vec::new()),
    ));

    let corpus = fuzzy_fuzz::corpus::load_dir(&fuzzy_fuzz::corpus::default_dir()).expect("loads");
    assert!(corpus.len() >= 3, "fuzz corpus went missing");
    for (name, case) in corpus {
        let inits = case.inits(case.max_procs);
        let compiled =
            compile_nest(&case.nest, &inits, &CompileOptions::default()).expect("compiles");
        out.push((name, Setup::new(&adopt(&compiled.program), Vec::new())));
    }
    out
}

#[test]
fn run_equals_stepping_on_every_program_under_the_whole_matrix() {
    for (name, setup) in programs() {
        if let Err(d) = check_matrix(&name, &setup) {
            panic!("{d}");
        }
    }
}

fn two_streams(first: &str, second: &str) -> Program {
    let src = format!(".stream\n{first}.stream\n{second}");
    crate::assembler::assemble_program(&src).expect("assembles")
}

/// The deadlock probe asks about the cycle to come, so it sees a fault
/// change one cycle before the broadcast does. With both processors
/// stalled behind a delay that could still heal, the line going dead for
/// good at cycle 100 is a deadlock *at* 100, not at 101.
fn line_severed_during_an_outage(forgotten: Option<Forgotten>) -> Result<(), String> {
    let fault = |onset, fault| FaultPlan {
        victim: 1,
        onset,
        fault,
    };
    let setup = Setup {
        faults: vec![
            fault(0, ReadyFault::Delay { cycles: 200 }),
            fault(100, ReadyFault::Stall),
        ],
        forgotten,
        ..Setup::new(&two_streams("B: nop\nhalt\n", "B: nop\nhalt\n"), Vec::new())
    };
    let outcome = setup.machine().run(1_000).unwrap();
    if outcome != (RunOutcome::Deadlock { cycle: 100 }) {
        return Err(format!("{outcome:?}"));
    }
    check(&|| setup.machine(), 1_000, &[50, 99, 100])
}

#[test]
fn a_line_severed_during_an_outage_deadlocks_the_cycle_it_dies() {
    line_severed_during_an_outage(None).unwrap();
}

/// An eviction rewrites masks after its cycle's broadcast, so the next
/// cycle's evaluation can fire with no processor having acted. Here two
/// watchdogs evict each other over a tag mismatch, which leaves nobody's
/// register running — and frees a bystander that waited on both.
fn mutual_eviction(forgotten: Option<Forgotten>) -> Result<(), String> {
    let src = ".stream\nB: nop\nhalt\n".repeat(3);
    let program = crate::assembler::assemble_program(&src).expect("assembles");
    let build = || {
        let units = vec![
            BarrierUnit::new(0b010, 1).with_watchdog(5),
            BarrierUnit::new(0b001, 2).with_watchdog(5),
            BarrierUnit::new(0b011, 1),
        ];
        let cfg = MachineConfig {
            trace: true,
            ..MachineConfig::default()
        };
        let mut m = Machine::with_units(program.clone(), cfg, units).expect("loads");
        m.forgotten = forgotten;
        m
    };
    let mut m = build();
    let outcome = m.run(1_000).unwrap();
    let sync = m.trace().of_kind(EventKind::Sync).next();
    let freed = m.evictions().first().map(|ev| (2, ev.fired_at + 1));
    if !outcome.is_deadlock()
        || m.evictions().len() != 2
        || freed.is_none()
        || sync.map(|e| (e.proc, e.cycle)) != freed
        || !m.procs()[2].halted
    {
        return Err(format!("{outcome:?}, evictions {:?}", m.evictions()));
    }
    let fired_at = m.evictions()[0].fired_at;
    check(&build, 1_000, &[fired_at, fired_at + 1, fired_at + 2])
}

#[test]
fn mutual_eviction_frees_a_bystander_in_the_next_cycle() {
    mutual_eviction(None).unwrap();
}

/// An interrupt addressed to a processor that has halted is never
/// delivered, so it never leaves the queue — and must not keep the
/// deadlock probe waiting for it: stream 0 stalls on a partner that halted
/// at once, and that is a deadlock at cycle 2 with or without the stray
/// interrupt.
fn interrupt_for_a_halted_processor(forgotten: Option<Forgotten>) -> Result<(), String> {
    let setup = Setup {
        interrupt: Some((1, 50)),
        forgotten,
        ..Setup::new(&two_streams("B: nop\nhalt\n", "halt\n"), Vec::new())
    };
    let mut m = setup.machine();
    let outcome = m.run(1_000_000).unwrap();
    if outcome != (RunOutcome::Deadlock { cycle: 2 }) || m.interrupts.len() != 1 {
        return Err(format!("{outcome:?}, queue {:?}", m.interrupts));
    }
    check(&|| setup.machine(), 1_000, &[1, 2, 60])
}

#[test]
fn an_interrupt_for_a_halted_processor_does_not_hide_a_deadlock() {
    interrupt_for_a_halted_processor(None).unwrap();
}

/// A processor that halts inside its barrier region takes its ready line
/// down with it: the watchdog register that was counting stops, in that
/// very cycle, although no instruction touched tag, mask or region.
fn halt_inside_a_region(forgotten: Option<Forgotten>) -> Result<(), String> {
    let setup = Setup {
        forgotten,
        ..Setup::new(
            &two_streams("B: nop\nB: nop\nB: halt\n", "halt\n"),
            Vec::new(),
        )
    };
    let mut m = setup.machine();
    let outcome = m.run(1_000).unwrap();
    if !outcome.is_halted() || m.procs()[0].unit.waiting != 0 {
        return Err(format!(
            "{outcome:?}, waiting {}",
            m.procs()[0].unit.waiting
        ));
    }
    check(&|| setup.machine(), 1_000, &[1, 2])
}

#[test]
fn halting_inside_a_region_stops_the_watchdog_register() {
    halt_inside_a_region(None).unwrap();
}

/// A failed visit ends the run in the middle of a cycle, and what `run`
/// had put off must come out as if every cycle had been stepped: the
/// processors below the failing one are through that cycle, those above
/// are not. One stream loads out of bounds after `pad` instructions while
/// a neighbour works and a third sits parked, its stall cycles and
/// watchdog register owed since cycle 1 — on either side of the failing
/// stream, serial and pipelined, `pad` swept so that the failure meets
/// the neighbour in every phase of its work. One neighbour is busy with
/// loads that miss; the other is part-way through a loop of register ops,
/// which its first visit issued ahead to the end.
fn failed_visit(forgotten: Option<Forgotten>) -> Result<(), String> {
    let busy = "li r2, 40\nloop: ld r3, [r1+8]\nld r4, [r1+9]\naddi r1, r1, 1\nblt r1, r2, loop\nB: nop\nhalt\n";
    let straight =
        "li r2, 400\nloop: addi r1, r1, 1\nmul r3, r1, r1\nblt r1, r2, loop\nB: nop\nhalt\n";
    let parked = "ld r1, [r0+3]\nB: nop\nhalt\n";
    let (mut mid_miss, mut mid_run, mut owed) = (0, 0, 0);
    for pad in 0..64 {
        let failing = format!("{}ld r1, [r0-5]\nhalt\n", "nop\n".repeat(pad));
        for neighbour in [busy, straight] {
            for streams in [[neighbour, &failing, parked], [parked, &failing, neighbour]] {
                let src: String = streams.iter().map(|s| format!(".stream\n{s}")).collect();
                let program = crate::assembler::assemble_program(&src).expect("assembles");
                for pipelined in [false, true] {
                    let setup = Setup {
                        pipelined,
                        watchdog: Some(1_000),
                        forgotten,
                        ..Setup::new(&program, Vec::new())
                    };
                    let mut m = setup.machine();
                    let err = m.run(1_000).expect_err("the load is out of bounds");
                    if !matches!(err, SimError::Memory { proc: 1, .. }) {
                        return Err(format!("pad {pad}: {err}"));
                    }
                    let (near, parked_proc) = if streams[0] == neighbour {
                        (0, 2)
                    } else {
                        (2, 0)
                    };
                    let p = &m.procs()[near];
                    if neighbour == busy {
                        mid_miss += usize::from(p.busy_until > m.cycle() + 1);
                    } else {
                        mid_run += usize::from((1..400).contains(&p.reg(1)));
                    }
                    owed += usize::from(m.procs()[parked_proc].unit.is_stalled());
                    check(&|| setup.machine(), 1_000, &[])
                        .map_err(|d| format!("pad {pad} pipelined={pipelined}: {d}"))?;
                }
            }
        }
    }
    assert!(
        mid_miss >= 8,
        "only {mid_miss} failures met a miss in flight"
    );
    assert!(
        mid_run >= 8,
        "only {mid_run} failures met a run issued ahead"
    );
    assert!(owed >= 8, "only {owed} failures met a parked processor");
    Ok(())
}

#[test]
fn a_failed_visit_settles_what_run_put_off() {
    failed_visit(None).unwrap();
}

/// A watchdog register that runs out while its own processor is part-way
/// through a loop of register ops in its barrier region: the eviction
/// interrupt is raised for the next cycle, and stepping delivers it there,
/// inside the loop. Stream 1 is busy with a loop of its own and arrives
/// too late; once evicted, it stalls for good.
fn eviction_inside_a_run(forgotten: Option<Forgotten>) -> Result<(), String> {
    let waiter = "B: li r2, 300\nspin:\nB: addi r1, r1, 1\nB: blt r1, r2, spin\nhalt\n";
    let late = "li r2, 300\nwork: addi r1, r1, 1\nblt r1, r2, work\nB: nop\nhalt\n";
    let setup = Setup {
        watchdog: Some(20),
        forgotten,
        ..Setup::new(&two_streams(waiter, late), Vec::new())
    };
    let mut m = setup.machine();
    let outcome = m.run(10_000).unwrap();
    let fired = m
        .evictions()
        .first()
        .map(|ev| (ev.watchdog, ev.fired_at + 1));
    let delivered = m.trace().of_kind(EventKind::Interrupt).next();
    let halted = m.trace().of_kind(EventKind::Halt).find(|e| e.proc == 0);
    let at = match (fired, delivered, halted) {
        (Some(fired), Some(delivered), Some(halted))
            if fired == (delivered.proc, delivered.cycle)
                && delivered.cycle + 100 < halted.cycle =>
        {
            delivered.cycle
        }
        _ => return Err(format!("{outcome:?}, evictions {:?}", m.evictions())),
    };
    check(&|| setup.machine(), 10_000, &[at - 1, at, at + 1])
}

#[test]
fn an_eviction_interrupt_lands_inside_its_processors_run() {
    eviction_inside_a_run(None).unwrap();
}

/// A scenario above, run with the hook set.
type Scenario = fn(Option<Forgotten>) -> Result<(), String>;

/// Whether the suite — the matrix over every program, then the scenarios
/// above — notices a `run` that overlooks `forgotten`: it has to come out
/// different from stepping (or die trying) somewhere.
fn caught(programs: &[(String, Setup)], forgotten: Forgotten) -> bool {
    let fails = |verdict: &dyn Fn() -> Result<(), String>| {
        catch_unwind(AssertUnwindSafe(verdict)).map_or(true, |verdict| verdict.is_err())
    };
    let scenarios: [Scenario; 6] = [
        line_severed_during_an_outage,
        mutual_eviction,
        interrupt_for_a_halted_processor,
        halt_inside_a_region,
        failed_visit,
        eviction_inside_a_run,
    ];
    scenarios.iter().any(|s| fails(&|| s(Some(forgotten))))
        || programs
            .iter()
            .any(|(name, setup)| fails(&|| check_matrix(name, &setup.forgetting(forgotten))))
}

/// The suite must bite: a `run` whose jump forgets any one event source
/// is noticed.
#[test]
fn forgetting_any_event_source_fails_the_suite() {
    let programs = programs();
    for source in [
        EventSource::Issue,
        EventSource::Interrupt,
        EventSource::InFlight,
        EventSource::Fault,
        EventSource::Watchdog,
        EventSource::Limit,
    ] {
        assert!(
            caught(&programs, Forgotten::Event(source)),
            "a run that ignores {source:?} events went unnoticed"
        );
    }
}

/// Likewise a `run` whose dirty bit misses any one way the network's
/// inputs change: it skips an evaluation that stepping performs.
#[test]
fn forgetting_any_dirty_source_fails_the_suite() {
    let programs = programs();
    for source in [
        DirtySource::Entry,
        DirtySource::SetTag,
        DirtySource::SetMask,
        DirtySource::Halt,
        DirtySource::Eviction,
        DirtySource::Unveto,
        DirtySource::Fault,
        DirtySource::Watchdog,
    ] {
        assert!(
            caught(&programs, Forgotten::Dirty(source)),
            "a run that evaluates without regard to {source:?} went unnoticed"
        );
    }
}

/// And a `run` that returns without settling what it put off — at a cycle
/// limit (the matrix cuts every program at three) and after a failed
/// visit, each on its own.
#[test]
fn returning_unsettled_fails_the_suite() {
    let programs = programs();
    for unsettled in [Forgotten::SettleCharged, Forgotten::SettleWaiting] {
        let at_a_limit = programs
            .iter()
            .any(|(name, setup)| check_matrix(name, &setup.forgetting(unsettled)).is_err());
        assert!(at_a_limit, "{unsettled:?} at a cycle limit went unnoticed");
        assert!(
            failed_visit(Some(unsettled)).is_err(),
            "{unsettled:?} after a failed visit went unnoticed"
        );
    }
}

/// And a `run` that issues ahead without one of the duties that keep it
/// unobservable: the sample a synchronization takes, the rewind on a
/// return, the interrupt horizon, and each exclusion.
#[test]
fn forgetting_any_issue_ahead_duty_fails_the_suite() {
    let programs = programs();
    for duty in [
        Forgotten::AheadSample,
        Forgotten::AheadRewind,
        Forgotten::AheadInterrupt,
        Forgotten::AheadExclusion(Exclusion::Pipelined),
        Forgotten::AheadExclusion(Exclusion::Watchdog),
    ] {
        assert!(
            caught(&programs, duty),
            "a run that forgets {duty:?} went unnoticed"
        );
    }
}

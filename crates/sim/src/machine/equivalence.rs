//! Stepwise-vs-`run` equivalence: [`Machine::run`] skips idle cycles, and
//! nothing a caller can observe may tell.
//!
//! The reference is the loop `run` used to be — one [`Machine::step`] and
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
use crate::program::Stream;
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
    forgotten: Option<EventSource>,
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

/// `Machine::run` as it was before event skipping.
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

/// Every `demos/*.fasm`, the compiled `demos/poisson.fc`, and each fuzz
/// corpus case compiled for its full processor count.
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

/// The deadlock probe asks about the cycle to come, so it sees a fault
/// change one cycle before the broadcast does. With both processors
/// stalled behind a delay that could still heal, the line going dead for
/// good at cycle 100 is a deadlock *at* 100, not at 101.
#[test]
fn a_line_severed_during_an_outage_deadlocks_the_cycle_it_dies() {
    let src = ".stream\nB: nop\nhalt\n.stream\nB: nop\nhalt\n";
    let program = crate::assembler::assemble_program(src).expect("assembles");
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
        ..Setup::new(&program, Vec::new())
    };
    let mut m = setup.machine();
    assert_eq!(m.run(1_000).unwrap(), RunOutcome::Deadlock { cycle: 100 });
    check(&|| setup.machine(), 1_000, &[50, 99, 100]).unwrap();
}

/// An eviction rewrites masks after its cycle's broadcast, so the next
/// cycle's evaluation can fire with no processor having acted. Here two
/// watchdogs evict each other over a tag mismatch, which leaves nobody's
/// register running — and frees a bystander that waited on both.
#[test]
fn mutual_eviction_frees_a_bystander_in_the_next_cycle() {
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
        Machine::with_units(program.clone(), cfg, units).expect("loads")
    };
    let mut m = build();
    assert!(
        m.run(1_000).unwrap().is_deadlock(),
        "the evicted pair idles"
    );
    let fired_at = m.evictions()[0].fired_at;
    assert_eq!(m.evictions().len(), 2);
    let sync = m.trace().of_kind(EventKind::Sync).next().expect("synced");
    assert_eq!((sync.proc, sync.cycle), (2, fired_at + 1));
    assert!(m.procs()[2].halted);
    check(&build, 1_000, &[fired_at, fired_at + 1, fired_at + 2]).unwrap();
}

/// The suite must bite: a `run` that forgets any one event source has to
/// come out different from stepping (or die trying) on some program.
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
        let caught = programs.iter().any(|(name, setup)| {
            let mutant = Setup {
                forgotten: Some(source),
                ..setup.clone()
            };
            catch_unwind(AssertUnwindSafe(|| check_matrix(name, &mutant)))
                .map_or(true, |verdict| verdict.is_err())
        });
        assert!(
            caught,
            "a run that ignores {source:?} events went unnoticed"
        );
    }
}

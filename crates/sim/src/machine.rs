//! The multiprocessor machine: common clock, processors, memory and the
//! broadcast barrier network.
//!
//! "It is assumed that all processors use a common clock and are reset
//! simultaneously" (Sec. 6). [`Machine::step`] advances that clock by one
//! cycle: every processor attempts to issue, then the synchronization
//! condition is evaluated once, broadcast-style, so all members of a
//! barrier group discover synchronization in the same cycle.
//! [`Machine::run`] reaches the same states by events instead: the barrier
//! network is combinational logic over ready lines, tags and masks, so it
//! is evaluated only in a cycle where one of those inputs changed, only
//! the processors that can issue are visited, a processor's straight-line
//! register instructions — which nothing outside it reads — issue in one
//! visit, and the cycles in which nothing can happen — with a 120-cycle
//! miss penalty, most of them — are jumped over and charged when somebody
//! next looks, so that no simulated count differs from stepping through
//! them.

use crate::barrier_hw::{bits, ready_lines, sync_set, wired, BarrierState, BarrierUnit, MAX_PROCS};
use crate::fault::{EvictionEvent, FaultPlan, FaultState};
use crate::isa::{Instr, NUM_REGS};
use crate::memory::{Memory, MemoryConfig, OutOfBounds};
use crate::processor::Processor;
use crate::program::{Program, ProgramError};
use crate::stats::{MachineStats, ProcStats, SyncTelemetry};
use crate::trace::{EventKind, TraceLog};
use std::error::Error;
use std::fmt;

/// Machine-level configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Memory system configuration.
    pub memory: MemoryConfig,
    /// Pipelined issue: instructions overlap, and "a processor may enter
    /// the barrier region before exiting the preceding non-barrier region"
    /// (Sec. 6). When false, instructions execute serially to completion.
    pub pipelined: bool,
    /// Latency of `mul`/`muli` in cycles.
    pub mul_latency: u64,
    /// Enable the event trace.
    pub trace: bool,
    /// Maximum trace events retained.
    pub trace_capacity: usize,
    /// Run the static validator when loading the program. Disable only to
    /// demonstrate what invalid programs (Fig. 2) do to the hardware.
    pub validate: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            memory: MemoryConfig::default(),
            pipelined: false,
            mul_latency: 3,
            trace: false,
            trace_capacity: 1 << 16,
            validate: true,
        }
    }
}

/// Why a [`Machine::run`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every processor halted.
    Halted {
        /// Cycles elapsed.
        cycles: u64,
    },
    /// No processor can ever make progress again: every live processor is
    /// stalled at a barrier and the synchronization condition cannot fire
    /// (e.g. Fig. 2's invalid branch).
    Deadlock {
        /// Cycle at which deadlock was detected.
        cycle: u64,
    },
    /// The cycle budget ran out first.
    CycleLimit {
        /// Cycles elapsed.
        cycles: u64,
    },
}

impl RunOutcome {
    /// Whether the program ran to completion.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        matches!(self, RunOutcome::Halted { .. })
    }

    /// Whether the machine deadlocked.
    #[must_use]
    pub fn is_deadlock(&self) -> bool {
        matches!(self, RunOutcome::Deadlock { .. })
    }

    /// Cycles elapsed when the run ended.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        match self {
            RunOutcome::Halted { cycles } | RunOutcome::CycleLimit { cycles } => *cycles,
            RunOutcome::Deadlock { cycle } => *cycle,
        }
    }
}

/// Simulation errors.
#[derive(Debug)]
#[non_exhaustive]
pub enum SimError {
    /// The loaded program failed static validation.
    InvalidProgram(ProgramError),
    /// A processor accessed memory out of bounds.
    Memory {
        /// Offending processor.
        proc: usize,
        /// Cycle of the access.
        cycle: u64,
        /// The underlying bounds error.
        source: OutOfBounds,
    },
    /// The call/handler stack exceeded [`crate::processor::MAX_CALL_DEPTH`].
    CallDepthExceeded {
        /// Offending processor.
        proc: usize,
        /// Cycle of the call.
        cycle: u64,
    },
    /// `ret` executed with no frame to return to.
    ReturnWithoutFrame {
        /// Offending processor.
        proc: usize,
        /// Cycle of the return.
        cycle: u64,
    },
    /// `trap` executed with no trap handler registered for the processor.
    UnhandledTrap {
        /// Offending processor.
        proc: usize,
        /// Cycle of the trap.
        cycle: u64,
        /// The trap cause.
        cause: u16,
    },
    /// The program has more streams than the barrier hardware has mask
    /// bits: one processor per stream, one mask bit per processor.
    TooManyProcessors {
        /// Streams in the rejected program.
        procs: usize,
        /// The most a machine can hold.
        max: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidProgram(e) => write!(f, "invalid program: {e}"),
            SimError::Memory {
                proc,
                cycle,
                source,
            } => write!(f, "processor {proc} at cycle {cycle}: {source}"),
            SimError::CallDepthExceeded { proc, cycle } => {
                write!(f, "processor {proc} at cycle {cycle}: call stack overflow")
            }
            SimError::ReturnWithoutFrame { proc, cycle } => {
                write!(
                    f,
                    "processor {proc} at cycle {cycle}: ret with empty call stack"
                )
            }
            SimError::UnhandledTrap { proc, cycle, cause } => {
                write!(
                    f,
                    "processor {proc} at cycle {cycle}: trap {cause} with no handler registered"
                )
            }
            SimError::TooManyProcessors { procs, max } => {
                write!(
                    f,
                    "program has {procs} streams; the barrier masks hold at most {max} processors"
                )
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::InvalidProgram(e) => Some(e),
            SimError::Memory { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<ProgramError> for SimError {
    fn from(e: ProgramError) -> Self {
        SimError::InvalidProgram(e)
    }
}

/// The simulated multiprocessor.
#[derive(Debug)]
pub struct Machine {
    program: Program,
    procs: Vec<Processor>,
    memory: Memory,
    cfg: MachineConfig,
    cycle: u64,
    sync_events: u64,
    trace: TraceLog,
    /// Per-processor trap handler entry points (`trap` faults without one).
    trap_handlers: Vec<Option<usize>>,
    /// Pending asynchronous interrupts: `(deliver_at_cycle, proc, handler)`.
    interrupts: Vec<(u64, usize, usize)>,
    /// Machine-level stall histogram and arrival-spread accumulators —
    /// the cycle-domain mirror of the thread library's telemetry — and
    /// the region positions at synchronization.
    telemetry: SyncTelemetry,
    /// Injected ready-line faults (see [`crate::fault`]).
    faults: Vec<FaultState>,
    /// Watchdog-triggered evictions, in firing order.
    evictions: Vec<EvictionEvent>,
    /// Mutation hook for the equivalence suite: the one thing
    /// [`Machine::run`] pretends not to know about.
    #[cfg(test)]
    pub(crate) forgotten: Option<Forgotten>,
}

/// Everything that can end a run of jumped-over cycles — the event list of
/// [`Machine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventSource {
    /// A serial-mode processor finishes its multi-cycle instruction
    /// (`busy_until`) and issues again.
    Issue,
    /// A scheduled interrupt comes due for a processor stalled at its
    /// barrier exit.
    Interrupt,
    /// A pipelined non-barrier instruction completes
    /// (`outstanding_plain`), un-vetoing its processor's ready line.
    InFlight,
    /// A ready-line fault sets in or heals.
    Fault,
    /// A watchdog register runs past its budget.
    Watchdog,
    /// The caller's cycle budget.
    Limit,
}

/// Everything that can change what the broadcast evaluation computes — the
/// dirty rule of [`Machine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DirtySource {
    /// A visited processor entered a barrier region: its ready line rose.
    Entry,
    /// A visited processor executed `settag` (which may also re-arm it).
    SetTag,
    /// A visited processor executed `setmask`.
    SetMask,
    /// A visited processor halted.
    Halt,
    /// The previous cycle's eviction rewrote masks and tags, after its
    /// own evaluation.
    Eviction,
    /// Pipelined: a completing instruction un-vetoes a line, no issue.
    Unveto,
    /// A fault is injected: lines move on its schedule, and a stutter
    /// draws once per evaluated cycle.
    Fault,
    /// A watchdog register runs past its budget in this cycle.
    Watchdog,
}

/// What a processor's turn came to, as far as [`Machine::run`] cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Visit {
    /// It wrote nothing the barrier network reads: an ordinary
    /// instruction issued, or was waited out.
    Quiet,
    /// It wrote its ready line, tag or mask.
    Moved(DirtySource),
    /// It sits stalled at its barrier exit (state iv) outside any
    /// handler: every turn is this one again until an interrupt or a
    /// synchronization comes.
    Parked,
    Halted,
}

/// One thing [`Machine::run`] can be told to overlook; the equivalence
/// suite must catch each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Forgotten {
    /// The jump does not stop for this event.
    Event(EventSource),
    /// This change does not set the dirty bit.
    Dirty(DirtySource),
    /// Returns leave parked processors' stall cycles uncharged.
    SettleCharged,
    /// Returns leave the watchdog registers where the last evaluation
    /// put them.
    SettleWaiting,
    /// A synchronization samples the region position an issue-ahead run
    /// ends at, not the one its own cycle had reached.
    AheadSample,
    /// Returns leave instructions issued ahead past the return in place.
    AheadRewind,
    /// Issue-ahead runs past an interrupt that comes due for its
    /// processor.
    AheadInterrupt,
    /// Issue-ahead is allowed where this would keep it off.
    AheadExclusion(Exclusion),
}

/// Where [`Machine::run`] issues nothing ahead, because what it would
/// issue could be observed early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exclusion {
    /// Pipelined issue: a processor issues every cycle, and a
    /// multi-cycle instruction in flight vetoes its ready line.
    Pipelined,
    /// An armed watchdog register that is counting, on a processor with a
    /// trap handler: its eviction interrupt is raised for the cycle after
    /// an evaluation, which can fall inside the run.
    Watchdog,
}

/// The call-local state of [`Machine::run`]: who is worth a visit,
/// whether the network's inputs changed, and what the processors and
/// registers nobody looks at are owed ([`Machine::settle`] pays).
struct Schedule {
    /// Processors that have not halted.
    live: u64,
    /// Those of them last seen [`Visit::Parked`]: not visited.
    parked: u64,
    /// Per parked processor, the first cycle not yet in its `stall_cycles`.
    charged: Vec<u64>,
    /// An input of the barrier network changed since it was evaluated.
    dirty: bool,
    /// Units whose watchdog register was counting after the evaluation in
    /// cycle `evaluated` (one tick owed per cycle since), and the first
    /// cycle in which one of them passes its budget.
    counting: u64,
    evaluated: u64,
    expiry: u64,
    /// Processors below this index are through the cycle `Machine::cycle`
    /// names, the rest are not: non-zero only when a visit failed.
    visited: usize,
    /// The caller's cycle budget: nothing issues ahead into it.
    limit: u64,
    /// Per processor, its latest run of instructions issued ahead.
    ahead: Vec<Ahead>,
}

/// A processor's register ops that [`Machine::run`] issued ahead of the
/// clock, after the instruction a visit issued: what it needs to show the
/// processor, to whoever looks before the clock gets there, as it was in
/// the cycle they look from.
#[derive(Debug, Default)]
struct Ahead {
    /// The cycle each one issues in, ascending.
    cycles: Vec<u64>,
    /// Whether each one counts in `region_progress`: the run is in a
    /// barrier region, outside any handler.
    in_region: bool,
    /// Registers and program counter before the first one.
    regs: [i64; NUM_REGS],
    pc: usize,
}

impl Ahead {
    /// How many of the run's instructions count in `region_progress` and
    /// issue after `cycle`.
    fn progress_after(&self, cycle: u64) -> u64 {
        if !self.in_region {
            return 0;
        }
        (self.cycles.len() - self.cycles.partition_point(|&at| at <= cycle)) as u64
    }
}

impl Schedule {
    /// Charges parked `p` its stall cycles before `upto` and returns it to
    /// the visit pass.
    fn unpark(&mut self, p: &mut Processor, upto: u64) {
        p.stats.stall_cycles += upto - self.charged[p.id];
        self.parked &= !(1u64 << p.id);
    }
}

impl Machine {
    /// Loads `program` onto a machine with one processor per stream.
    /// Every processor's mask defaults to "all other processors" and its
    /// tag to 1; use [`crate::builder::MachineBuilder`] or `setmask` /
    /// `settag` instructions to change that.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyProcessors`] if the program has more
    /// than 64 streams (a barrier mask is one 64-bit register), and
    /// [`SimError::InvalidProgram`] if validation is enabled and the
    /// program violates the Sec. 3 branch rules.
    pub fn new(program: Program, cfg: MachineConfig) -> Result<Self, SimError> {
        let n = program.num_procs();
        if n > MAX_PROCS {
            return Err(SimError::TooManyProcessors {
                procs: n,
                max: MAX_PROCS,
            });
        }
        if cfg.validate {
            program.validate()?;
        }
        let procs = (0..n)
            .map(|id| {
                let mask = wired(n) & !(1u64 << id);
                Processor::new(id, BarrierUnit::new(mask, 1))
            })
            .collect();
        Ok(Machine {
            memory: Memory::new(cfg.memory.clone(), n),
            trace: TraceLog::new(cfg.trace, cfg.trace_capacity),
            procs,
            program,
            cfg,
            cycle: 0,
            sync_events: 0,
            trap_handlers: vec![None; n],
            interrupts: Vec::new(),
            telemetry: SyncTelemetry::default(),
            faults: Vec::new(),
            evictions: Vec::new(),
            #[cfg(test)]
            forgotten: None,
        })
    }

    /// Registers a trap handler entry point for `proc`. A `trap`
    /// instruction jumps there with the cause code in `r31`; the barrier
    /// unit's state is frozen until the matching `ret`.
    pub fn set_trap_handler(&mut self, proc: usize, handler: usize) {
        self.trap_handlers[proc] = Some(handler);
    }

    /// Schedules an asynchronous interrupt: at the first cycle ≥ `cycle`
    /// where `proc` is live and not already in a handler, control
    /// transfers to `handler` (with a handler frame pushed). Barrier
    /// state is frozen for the handler's duration — a stalled processor
    /// takes the interrupt, runs the handler, and resumes its stall.
    pub fn schedule_interrupt(&mut self, proc: usize, cycle: u64, handler: usize) {
        assert!(proc < self.procs.len(), "interrupt target out of range");
        self.interrupts.push((cycle, proc, handler));
    }

    /// Injects a ready-line fault: from `plan.onset` onward the victim's
    /// outgoing ready broadcast misbehaves per [`crate::fault::ReadyFault`].
    /// Suppression is applied at the broadcast network, so no unit —
    /// including the victim's own — observes the suppressed line.
    pub fn inject_ready_fault(&mut self, plan: FaultPlan) {
        assert!(plan.victim < self.procs.len(), "fault victim out of range");
        self.faults.push(FaultState::new(plan));
    }

    /// Watchdog-triggered evictions recorded so far, in firing order.
    #[must_use]
    pub fn evictions(&self) -> &[EvictionEvent] {
        &self.evictions
    }

    /// Creates a machine and applies per-processor initial masks and tags.
    ///
    /// # Errors
    ///
    /// Like [`Machine::new`].
    ///
    /// # Panics
    ///
    /// Panics if `units.len()` differs from the number of streams.
    pub fn with_units(
        program: Program,
        cfg: MachineConfig,
        units: Vec<BarrierUnit>,
    ) -> Result<Self, SimError> {
        assert_eq!(
            units.len(),
            program.num_procs(),
            "one barrier unit per stream"
        );
        let mut machine = Machine::new(program, cfg)?;
        for (proc, unit) in machine.procs.iter_mut().zip(units) {
            proc.unit = unit;
        }
        Ok(machine)
    }

    /// The current cycle count.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Shared memory access (host side).
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Mutable shared memory access (host side), e.g. to load input data.
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    /// The processors.
    #[must_use]
    pub fn procs(&self) -> &[Processor] {
        &self.procs
    }

    /// The event trace.
    #[must_use]
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Whether every processor has halted.
    #[must_use]
    pub fn all_halted(&self) -> bool {
        self.procs.iter().all(|p| p.halted)
    }

    /// Aggregated statistics.
    #[must_use]
    pub fn stats(&self) -> MachineStats {
        MachineStats {
            cycles: self.cycle,
            sync_events: self.sync_events,
            sync: self.telemetry,
            procs: self.procs.iter().map(|p| p.stats).collect(),
        }
    }

    /// Per-processor statistics.
    #[must_use]
    pub fn proc_stats(&self, proc: usize) -> ProcStats {
        self.procs[proc].stats
    }

    /// Advances the machine one cycle. Returns true if any processor is
    /// still live (not halted).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Memory`] on an out-of-bounds access.
    pub fn step(&mut self) -> Result<bool, SimError> {
        let cycle = self.cycle;
        for i in 0..self.procs.len() {
            self.step_proc(i, cycle)?;
        }

        self.broadcast(cycle, &[]);
        self.cycle += 1;
        Ok(!self.all_halted())
    }

    /// Broadcast synchronization evaluation, once per cycle, after all
    /// processors have acted — "all processors simultaneously discover
    /// the occurrence of synchronization" — followed by the watchdog
    /// registers' tick. Returns the processors that synchronized.
    ///
    /// `ahead` is [`Machine::run`]'s issue-ahead runs (empty from
    /// [`Machine::step`]): what they issued past `cycle` is not yet part
    /// of a processor's position in its region.
    fn broadcast(&mut self, cycle: u64, ahead: &[Ahead]) -> u64 {
        let ready = ready_lines(self.procs.iter().map(|p| &p.unit)) & self.lines_delivered(cycle);
        let synced = sync_set(self.procs.len(), |i| &self.procs[i].unit, ready);
        if synced != 0 {
            self.synchronize(cycle, synced, ahead);
        }
        self.maintain_watchdogs(cycle, ready & !synced);
        synced
    }

    /// The processors whose ready line, if raised, reaches the broadcast
    /// network during `cycle`: in the pipelined model a line is vetoed
    /// while non-barrier instructions are still in flight (Sec. 6), and an
    /// injected fault suppresses its victim's line.
    fn lines_delivered(&mut self, cycle: u64) -> u64 {
        let mut delivered = u64::MAX;
        if self.cfg.pipelined {
            for (i, p) in self.procs.iter().enumerate() {
                if p.outstanding_plain.iter().any(|&done| done > cycle) {
                    delivered &= !(1u64 << i);
                }
            }
        }
        for fault in &mut self.faults {
            if fault.suppresses(cycle) {
                delivered &= !(1u64 << fault.victim());
            }
        }
        delivered
    }

    /// Applies a non-empty result of the broadcast evaluation: state
    /// (iii) for every member of `synced`, plus the bookkeeping that hangs
    /// off a synchronization, each member's region position among it.
    fn synchronize(&mut self, cycle: u64, synced: u64, ahead: &[Ahead]) {
        for ev in &mut self.evictions {
            if ev.recovered_at.is_none() && synced & (1u64 << ev.watchdog) != 0 {
                ev.recovered_at = Some(cycle);
            }
        }
        // One sync event per tag group, in ascending tag order; its
        // arrival spread is the first-to-last barrier-region entry cycle
        // among the group's members.
        let procs = &self.procs;
        let mut ungrouped = synced;
        while let Some(tag) = bits(ungrouped).map(|i| procs[i].unit.tag).min() {
            let group = bits(ungrouped)
                .filter(|&i| procs[i].unit.tag == tag)
                .fold(0, |m, i| m | (1u64 << i));
            ungrouped &= !group;
            self.sync_events += 1;
            let entered = bits(group).filter_map(|i| procs[i].region_entered_at);
            if let (Some(first), Some(last)) = (entered.clone().min(), entered.max()) {
                self.telemetry.record_spread(last - first);
            }
        }
        for i in bits(synced) {
            let p = &mut self.procs[i];
            p.unit.state = BarrierState::Synced;
            p.stats.syncs += 1;
            if let Some(start) = p.stall_started.take() {
                // Inclusive: a stall that starts and resolves in the
                // same cycle costs one stall cycle.
                self.telemetry.stall_hist.record(cycle - start + 1);
            }
            let issued_ahead = ahead.get(i).map_or(0, |a| a.progress_after(cycle));
            self.telemetry
                .record_position(p.region_progress - issued_ahead);
            self.trace.record(cycle, i, EventKind::Sync);
        }
    }

    /// Advances every armed watchdog register and evicts stragglers once a
    /// budget is exceeded — the paper's Sec. 5 mask update for dynamically
    /// terminating streams, applied here to a *failed* stream: the
    /// non-responsive partner is cleared from every unit's mask and its tag
    /// zeroed, so survivors synchronize without it from the next broadcast
    /// evaluation onward. The watchdog processor's trap handler (if
    /// registered) is raised as an eviction interrupt on the next cycle.
    ///
    /// `ready` is the set of ready lines the network still sees after this
    /// cycle's synchronization.
    fn maintain_watchdogs(&mut self, cycle: u64, ready: u64) {
        let mut expired = 0u64;
        for (i, p) in self.procs.iter_mut().enumerate() {
            if p.counts_waiting() {
                p.unit.waiting += 1;
                expired |= u64::from(p.unit.watchdog_expired()) << i;
            } else {
                p.unit.waiting = 0;
            }
        }
        if expired == 0 {
            return;
        }

        // Every expired watchdog names its stragglers from the masks and
        // tags as they stood at the broadcast, before any of this cycle's
        // evictions rewrites them.
        let wired = wired(self.procs.len());
        let mut fired: Vec<(usize, u64)> = Vec::new();
        for i in bits(expired) {
            let unit = &self.procs[i].unit;
            let stragglers = bits(unit.mask & wired & !(1u64 << i))
                .filter(|&j| ready & (1u64 << j) == 0 || self.procs[j].unit.tag != unit.tag)
                .fold(0, |m, j| m | (1u64 << j));
            if stragglers == 0 {
                // Every partner looks healthy from here; the wait must be
                // someone else's fault (e.g. our own broadcast is the one
                // being suppressed). Re-arm rather than evict the innocent.
                self.procs[i].unit.waiting = 0;
            } else {
                fired.push((i, stragglers));
            }
        }

        let mut evicted_now = 0u64;
        for (watchdog, stragglers) in fired {
            // Several watchdogs may name the same straggler.
            for victim in bits(stragglers & !evicted_now) {
                evicted_now |= 1u64 << victim;
                for p in &mut self.procs {
                    p.unit.mask &= !(1u64 << victim);
                }
                let v = &mut self.procs[victim].unit;
                v.mask = 0;
                v.tag = 0;
                v.waiting = 0;
                self.evictions.push(EvictionEvent {
                    victim,
                    watchdog,
                    fired_at: cycle,
                    recovered_at: None,
                });
                self.trace.record(cycle, victim, EventKind::Evict);
                if let Some(handler) = self.trap_handlers[watchdog] {
                    self.interrupts.push((cycle + 1, watchdog, handler));
                }
            }
        }
    }

    /// Runs until halt, deadlock or `max_cycles`: the machine
    /// [`Machine::step`] defines, reached by events so that host time is
    /// paid per event (DESIGN.md §16 argues in full why nothing a caller
    /// can observe differs).
    ///
    /// Per processed cycle: (1) a parked processor whose interrupt has
    /// come due is un-parked; (2) the live processors that are not parked
    /// get their turn, in index order, and one that issues goes on to
    /// issue the register ops that follow at the cycles they issue in
    /// (`issue_ahead`); (3) the broadcast network —
    /// combinational logic over ready lines, tags and masks — is
    /// evaluated **only if one of those inputs changed** (`DirtySource`)
    /// or it is the call's first cycle: an evaluation lowers the lines of
    /// whoever it synchronizes, so between two evaluations with unchanged
    /// inputs the condition cannot fire, whether or not processors issued;
    /// (4) the deadlock probe runs only when every live processor is
    /// parked; (5) the clock jumps to the earliest `EventSource`, busy
    /// processors charged for the span in bulk. Memory is time-free
    /// between issues, so nothing else can happen in between. What the
    /// cycles add where nobody looks — `stall_cycles` of the parked,
    /// `unit.waiting` of counting watchdog registers — accrues in
    /// `Schedule` and is settled on every return, `Err` included, where
    /// instructions issued ahead past the return are also taken back.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Memory`] on an out-of-bounds access.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunOutcome, SimError> {
        let n = self.procs.len();
        let set = |member: &dyn Fn(usize) -> bool| {
            bits(wired(n)).fold(0, |m, i| m | (u64::from(member(i)) << i))
        };
        let mut s = Schedule {
            live: set(&|i| !self.procs[i].halted),
            parked: set(&|i| self.is_parked(i)),
            charged: vec![self.cycle; n],
            // The cycle before the call's first is not this call's to
            // vouch for.
            dirty: true,
            counting: 0,
            evaluated: self.cycle,
            expiry: u64::MAX,
            visited: 0,
            limit: max_cycles,
            ahead: (0..n).map(|_| Ahead::default()).collect(),
        };
        let outcome = self.run_events(max_cycles, &mut s);
        self.settle(&s);
        outcome
    }

    fn run_events(&mut self, max_cycles: u64, s: &mut Schedule) -> Result<RunOutcome, SimError> {
        while self.cycle < max_cycles {
            let cycle = self.cycle;
            let mut next_issue = self.visit(cycle, s)?;
            if self.evaluate(cycle, s) {
                next_issue = cycle + 1;
            }
            self.cycle = cycle + 1;
            if s.live == 0 {
                return Ok(RunOutcome::Halted { cycles: self.cycle });
            }
            if s.live & !s.parked == 0 && self.is_deadlocked() {
                return Ok(RunOutcome::Deadlock { cycle: self.cycle });
            }
            let next = self.next_event(s, next_issue, max_cycles);
            if next > self.cycle {
                // Whoever is not parked waits out an instruction until then.
                for i in bits(s.live & !s.parked) {
                    self.procs[i].stats.busy_cycles += next - self.cycle;
                }
                self.cycle = next;
            }
        }
        Ok(RunOutcome::CycleLimit { cycles: self.cycle })
    }

    /// Steps (1) and (2) of [`Machine::run`]: every processor that can do
    /// something with `cycle` gets its turn, in index order. Returns the
    /// earliest cycle in which one of them can issue again.
    ///
    /// Kept a function of its own with `step_proc` and `execute` inlined
    /// into it — the shape `step` has — because the per-visit cost is what
    /// a dense program (everybody issues every cycle) pays for: measured,
    /// EXPERIMENTS.md E22.
    #[inline(never)]
    fn visit(&mut self, cycle: u64, s: &mut Schedule) -> Result<u64, SimError> {
        for &(at, proc, _) in &self.interrupts {
            if at <= cycle && s.parked & (1u64 << proc) != 0 {
                s.unpark(&mut self.procs[proc], cycle);
            }
        }
        let mut next_issue = u64::MAX;
        for i in bits(s.live & !s.parked) {
            let p = &mut self.procs[i];
            if p.busy_until > cycle {
                // Waiting out an instruction: `step_proc`'s answer, sooner.
                p.stats.busy_cycles += 1;
                next_issue = next_issue.min(p.busy_until);
                continue;
            }
            // Its last run's issue cycles have been charged as busy since.
            let issued_ahead = &mut s.ahead[i].cycles;
            p.stats.busy_cycles -= issued_ahead.len() as u64;
            issued_ahead.clear();
            let visit = self.step_proc(i, cycle).inspect_err(|_| s.visited = i)?;
            match visit {
                Visit::Quiet => {}
                Visit::Moved(source) => s.dirty |= self.dirties(source),
                Visit::Parked => {
                    s.parked |= 1u64 << i;
                    s.charged[i] = cycle + 1;
                    continue;
                }
                Visit::Halted => {
                    s.live &= !(1u64 << i);
                    s.dirty |= self.dirties(DirtySource::Halt);
                    continue;
                }
            }
            self.issue_ahead(i, s);
            next_issue = next_issue.min(self.procs[i].busy_until.max(cycle + 1));
        }
        if self.cfg.pipelined {
            // A parked processor still retires what completes.
            for i in bits(s.parked) {
                self.procs[i].retire(cycle);
            }
        }
        Ok(next_issue)
    }

    /// Step (3) of [`Machine::run`]: the broadcast evaluation, if an input
    /// of it changed. Returns whether it un-parked anybody.
    fn evaluate(&mut self, cycle: u64, s: &mut Schedule) -> bool {
        // Lines that move without an issue: no processed cycle is clean.
        let restless = self.cfg.pipelined && self.dirties(DirtySource::Unveto)
            || !self.faults.is_empty() && self.dirties(DirtySource::Fault);
        let expired = cycle >= s.expiry && self.dirties(DirtySource::Watchdog);
        if !(s.dirty || restless || expired) {
            return false;
        }
        for i in bits(s.counting) {
            self.procs[i].unit.waiting += cycle - 1 - s.evaluated;
        }
        let evictions = self.evictions.len();
        // A synchronization samples region positions as of `cycle`, not
        // as far as a processor has issued ahead.
        let ahead: &[Ahead] = if self.forgets(Forgotten::AheadSample) {
            &[]
        } else {
            &s.ahead
        };
        let freed = self.broadcast(cycle, ahead) & s.parked;
        for i in bits(freed) {
            s.unpark(&mut self.procs[i], cycle + 1);
        }
        (s.counting, s.evaluated, s.expiry) = (0, cycle, u64::MAX);
        for (i, p) in self.procs.iter().enumerate() {
            if p.counts_waiting() {
                s.counting |= 1u64 << i;
                if let Some(budget) = p.unit.watchdog {
                    let left = budget.saturating_sub(p.unit.waiting);
                    s.expiry = s.expiry.min((cycle + 1).saturating_add(left));
                }
            }
        }
        // An eviction rewrote masks and tags after the evaluation.
        s.dirty = self.evictions.len() > evictions && self.dirties(DirtySource::Eviction);
        freed != 0
    }

    /// Step (5) of [`Machine::run`]: the first cycle from `self.cycle` on
    /// in which anything can happen — the earliest [`EventSource`].
    fn next_event(&self, s: &Schedule, next_issue: u64, max_cycles: u64) -> u64 {
        let mut next = if s.dirty { self.cycle } else { u64::MAX };
        let mut event = |source, at: u64| {
            if !self.forgets(Forgotten::Event(source)) {
                next = next.min(at);
            }
        };
        event(EventSource::Limit, max_cycles);
        event(EventSource::Issue, next_issue);
        event(EventSource::Watchdog, s.expiry);
        for &(at, proc, _) in &self.interrupts {
            if s.parked & (1u64 << proc) != 0 {
                event(EventSource::Interrupt, at);
            }
        }
        if self.cfg.pipelined {
            for &done in bits(s.parked).flat_map(|i| &self.procs[i].outstanding_plain) {
                event(EventSource::InFlight, done);
            }
        }
        for fault in &self.faults {
            if let Some(at) = fault.next_change(self.cycle) {
                event(EventSource::Fault, at);
            }
        }
        next.max(self.cycle)
    }

    /// Whether no visit can move processor `i`: stalled at its barrier
    /// exit outside any handler, it only pays a stall cycle per cycle
    /// until an interrupt or a synchronization comes.
    fn is_parked(&self, i: usize) -> bool {
        let p = &self.procs[i];
        p.unit.is_stalled()
            && !p.in_handler()
            && self.program.streams()[i]
                .ops()
                .get(p.pc)
                .is_some_and(|op| !op.barrier)
    }

    /// The mutation hook: whether this machine's `run` is to overlook
    /// `what`. Nothing outside the equivalence suite sets it.
    fn forgets(&self, _what: Forgotten) -> bool {
        #[cfg(test)]
        return self.forgotten == Some(_what);
        #[cfg(not(test))]
        false
    }

    fn dirties(&self, source: DirtySource) -> bool {
        !self.forgets(Forgotten::Dirty(source))
    }

    /// Pays what [`Machine::run`] owes when it returns with the clock at
    /// `self.cycle`: every parked processor is charged through the last
    /// cycle it would have been stepped in, every counting watchdog
    /// register ticks up to the last complete cycle.
    fn settle(&mut self, s: &Schedule) {
        if !self.forgets(Forgotten::SettleCharged) {
            for i in bits(s.parked) {
                let stepped = i < s.visited;
                self.procs[i].stats.stall_cycles += self.cycle + u64::from(stepped) - s.charged[i];
                if stepped {
                    self.procs[i].retire(self.cycle);
                }
            }
        }
        if !self.forgets(Forgotten::SettleWaiting) {
            for i in bits(s.counting) {
                self.procs[i].unit.waiting += self.cycle - 1 - s.evaluated;
            }
        }
        // Instructions issued ahead in a cycle stepped through were
        // charged as busy; those past it are taken back.
        let rewind = !self.forgets(Forgotten::AheadRewind);
        for (i, (p, ahead)) in self.procs.iter_mut().zip(&s.ahead).enumerate() {
            let stepped = self.cycle + u64::from(i < s.visited);
            let kept = ahead.cycles.partition_point(|&at| at < stepped);
            p.stats.busy_cycles -= kept as u64;
            let Some(&next_issue) = ahead.cycles.get(kept).filter(|_| rewind) else {
                continue;
            };
            (p.regs, p.pc) = (ahead.regs, ahead.pc);
            let ops = self.program.streams()[i].ops();
            for _ in 0..kept {
                p.register_op(ops[p.pc].instr, self.cfg.mul_latency);
            }
            let undone = (ahead.cycles.len() - kept) as u64;
            p.stats.instructions -= undone;
            p.region_progress -= if ahead.in_region { undone } else { 0 };
            p.busy_until = next_issue;
        }
    }

    /// Issue-ahead: processor `i` issued an instruction in this visit, and
    /// its register ops that follow — up to the first other instruction,
    /// the first with the other region bit, the caller's limit, or an
    /// interrupt coming due for it — issue now, each at the cycle `step`
    /// would issue it in. They write only the processor's registers,
    /// program counter and counts, which nobody reads before the clock
    /// gets there but a synchronization (`synchronize` leaves what lies
    /// past its cycle out of the region position it records) and a return
    /// (`settle` takes back what lies past it). `busy_until` ends past the
    /// last one, so the event loop next wakes for this processor where it
    /// can do something else.
    /// Nothing issues ahead where an [`Exclusion`] says it could be seen.
    #[inline(always)]
    fn issue_ahead(&mut self, i: usize, s: &mut Schedule) {
        let p = &self.procs[i];
        let excludes = |what| !self.forgets(Forgotten::AheadExclusion(what));
        if self.cfg.pipelined && excludes(Exclusion::Pipelined)
            || p.unit.watchdog.is_some()
                && self.trap_handlers[i].is_some()
                && p.counts_waiting()
                && excludes(Exclusion::Watchdog)
        {
            return;
        }
        // In a handler no interrupt is delivered, and the handler's `ret`
        // ends the run.
        let due = if p.in_handler() || self.forgets(Forgotten::AheadInterrupt) {
            u64::MAX
        } else {
            let due = self.interrupts.iter().filter(|&&(_, proc, _)| proc == i);
            due.map(|&(at, _, _)| at).min().unwrap_or(u64::MAX)
        };
        let horizon = due.min(s.limit);
        let ops = self.program.streams()[i].ops();
        let p = &mut self.procs[i];
        let ahead = &mut s.ahead[i];
        let in_handler = p.in_handler();
        let in_region = p.unit.state != BarrierState::NonBarrier;
        ahead.in_region = in_region && !in_handler;
        while let Some(op) = ops.get(p.pc) {
            let at = p.busy_until;
            // A region transition is `step_proc`'s (none happens in a
            // handler).
            if at >= horizon || op.barrier != in_region && !in_handler {
                break;
            }
            if ahead.cycles.is_empty() {
                (ahead.regs, ahead.pc) = (p.regs, p.pc);
            }
            let Some(latency) = p.register_op(op.instr, self.cfg.mul_latency) else {
                break;
            };
            ahead.cycles.push(at);
            p.stats.instructions += 1;
            p.region_progress += u64::from(ahead.in_region);
            p.busy_until = at + latency;
        }
    }

    /// True when no future cycle can change any processor's state: every
    /// live processor is stalled at a barrier exit with nothing in flight,
    /// and the synchronization condition just failed to fire.
    fn is_deadlocked(&self) -> bool {
        // A pending interrupt can still unblock a stalled processor —
        // unless its target halted, which leaves it pending forever.
        if self
            .interrupts
            .iter()
            .any(|&(_, p, _)| !self.procs[p].halted)
        {
            return false;
        }
        // An armed watchdog staring at a straggler will evict it within a
        // finite number of cycles.
        if self.eviction_pending() {
            return false;
        }
        let mut any_live = false;
        for p in &self.procs {
            if p.halted {
                continue;
            }
            any_live = true;
            if p.unit.state != BarrierState::Stalled || p.in_handler() {
                return false;
            }
            if !p.outstanding_plain.is_empty() {
                return false;
            }
        }
        if !any_live {
            return false;
        }
        // Probe whether a future broadcast evaluation could fire before
        // declaring the machine stuck: state relevant to synchronization
        // may have changed *after* this cycle's evaluation (an eviction
        // just updated the masks), and a transient fault may heal or
        // glitch through. The probe is optimistic — only a permanently
        // severed line counts as suppression — so a delay waiting to heal
        // or a stutter (p < 1) that could let one evaluation through both
        // defer deadlock, while a dead line does not mask a real deadlock.
        let severed = self
            .faults
            .iter()
            .filter(|f| f.severed_from(self.cycle))
            .fold(0, |m, f| m | (1u64 << f.victim()));
        let ready = ready_lines(self.procs.iter().map(|p| &p.unit)) & !severed;
        sync_set(self.procs.len(), |i| &self.procs[i].unit, ready) == 0
    }

    /// Whether some armed watchdog currently sees a straggler it will
    /// eventually evict. Mirrors the straggler test in
    /// [`Self::maintain_watchdogs`] for the quiescent state deadlock
    /// detection runs in (nothing in flight, transient faults inert).
    fn eviction_pending(&self) -> bool {
        for (i, p) in self.procs.iter().enumerate() {
            if p.halted || p.unit.watchdog.is_none() || p.unit.tag == 0 || !p.unit.ready_line() {
                continue;
            }
            for (j, q) in self.procs.iter().enumerate() {
                if j == i || p.unit.mask & (1u64 << j) == 0 {
                    continue;
                }
                let suppressed = self
                    .faults
                    .iter()
                    .any(|f| f.victim() == j && f.suppresses_deterministic(self.cycle));
                if suppressed || !q.unit.ready_line() || q.unit.tag != p.unit.tag {
                    return true;
                }
            }
        }
        false
    }

    /// Gives processor `i` its turn in `cycle`, and reports what came of
    /// it for [`Machine::run`]'s scheduling ([`Machine::step`] need not
    /// care).
    #[inline(always)]
    fn step_proc(&mut self, i: usize, cycle: u64) -> Result<Visit, SimError> {
        if self.procs[i].halted {
            return Ok(Visit::Quiet);
        }
        if self.cfg.pipelined {
            self.procs[i].retire(cycle);
        } else if self.procs[i].busy_until > cycle {
            self.procs[i].stats.busy_cycles += 1;
            return Ok(Visit::Quiet);
        }
        // Deliver a pending interrupt (one at a time; never nested).
        if !self.interrupts.is_empty() && !self.procs[i].in_handler() {
            if let Some(idx) = self
                .interrupts
                .iter()
                .position(|&(at, proc, _)| proc == i && at <= cycle)
            {
                let (_, _, handler) = self.interrupts.swap_remove(idx);
                let return_pc = self.procs[i].pc;
                self.procs[i]
                    .frames
                    .push(crate::processor::Frame::Handler { return_pc });
                self.procs[i].handler_depth += 1;
                self.procs[i].pc = handler;
                self.trace.record(cycle, i, EventKind::Interrupt);
            }
        }

        let pc = self.procs[i].pc;
        let stream = &self.program.streams()[i];
        if pc >= stream.len() {
            self.procs[i].halted = true;
            self.procs[i].unit.state = BarrierState::NonBarrier;
            self.trace.record(cycle, i, EventKind::Halt);
            return Ok(Visit::Halted);
        }
        let op = stream.ops()[pc];
        let mut visit = match op.instr {
            Instr::SetTag { .. } => Visit::Moved(DirtySource::SetTag),
            Instr::SetMask { .. } => Visit::Moved(DirtySource::SetMask),
            Instr::Halt => Visit::Halted,
            _ => Visit::Quiet,
        };

        // Region transitions at issue time. Suspended while inside an
        // interrupt/trap handler: the handler's instructions execute with
        // the barrier unit frozen, so a stalled processor can service an
        // interrupt and resume its stall afterwards (our resolution of the
        // paper's Sec. 9 open question).
        match (
            op.barrier && !self.procs[i].in_handler(),
            if self.procs[i].in_handler() {
                BarrierState::NonBarrier // disables the transition arms below
            } else {
                self.procs[i].unit.state
            },
        ) {
            (true, BarrierState::NonBarrier) => {
                self.procs[i].unit.state = BarrierState::ReadyUnsynced;
                self.procs[i].stats.barrier_entries += 1;
                self.procs[i].region_progress = 0;
                self.procs[i].region_entered_at = Some(cycle);
                self.trace.record(cycle, i, EventKind::EnterBarrier);
                if visit == Visit::Quiet {
                    visit = Visit::Moved(DirtySource::Entry);
                }
            }
            (false, BarrierState::ReadyUnsynced) => {
                // Reached the barrier-region exit before synchronization:
                // stall (state iv).
                self.procs[i].unit.state = BarrierState::Stalled;
                self.procs[i].stats.stall_cycles += 1;
                self.procs[i].stats.stall_events += 1;
                self.procs[i].stall_started = Some(cycle);
                self.trace.record(cycle, i, EventKind::StallStart);
                return Ok(Visit::Parked);
            }
            (false, BarrierState::Stalled) => {
                self.procs[i].stats.stall_cycles += 1;
                return Ok(Visit::Parked);
            }
            (false, BarrierState::Synced) => {
                // Crossing the barrier: first non-barrier instruction after
                // synchronization (state iii → i).
                self.procs[i].unit.state = BarrierState::NonBarrier;
                self.trace.record(cycle, i, EventKind::Cross);
            }
            _ => {}
        }

        // Execute.
        let latency = self.execute(i, op.instr, cycle)?;
        self.procs[i].stats.instructions += 1;
        if op.barrier && !self.procs[i].in_handler() {
            self.procs[i].region_progress += 1;
        }
        if self.cfg.pipelined {
            if !op.barrier && latency > 1 {
                self.procs[i].outstanding_plain.push(cycle + latency);
            }
        } else {
            self.procs[i].busy_until = cycle + latency;
        }
        // A handler's `ret` lands a stalled processor back at its exit.
        if matches!(op.instr, Instr::Ret) && self.is_parked(i) {
            visit = Visit::Parked;
        }
        Ok(visit)
    }

    /// Executes one instruction functionally, returning its latency.
    #[inline(always)]
    fn execute(&mut self, i: usize, instr: Instr, cycle: u64) -> Result<u64, SimError> {
        let mem_err = |source: OutOfBounds| SimError::Memory {
            proc: i,
            cycle,
            source,
        };
        if let Some(latency) = self.procs[i].register_op(instr, self.cfg.mul_latency) {
            return Ok(latency);
        }
        let mut next_pc = self.procs[i].pc + 1;
        let latency = match instr {
            Instr::Load { rd, rs, offset } => {
                let addr = self.procs[i].reg(rs).wrapping_add(offset);
                let (v, lat) = self.memory.read(i, addr, cycle).map_err(mem_err)?;
                self.procs[i].set_reg(rd, v);
                lat
            }
            Instr::Store { rs, rb, offset } => {
                let addr = self.procs[i].reg(rb).wrapping_add(offset);
                let v = self.procs[i].reg(rs);
                self.memory.write(i, addr, v, cycle).map_err(mem_err)?
            }
            Instr::FetchAdd {
                rd,
                rb,
                offset,
                imm,
            } => {
                let addr = self.procs[i].reg(rb).wrapping_add(offset);
                let (old, lat) = self
                    .memory
                    .fetch_add(i, addr, imm, cycle)
                    .map_err(mem_err)?;
                self.procs[i].set_reg(rd, old);
                lat
            }
            Instr::SetMask { mask } => {
                self.procs[i].unit.mask = mask;
                1
            }
            Instr::SetTag { tag } => {
                let unit = &mut self.procs[i].unit;
                // Changing the tag while inside a barrier region begins a
                // new logical barrier: the state machine re-arms so the
                // processor must synchronize again under the new identity.
                // This implements the paper's observation that the Fig. 2
                // problem "will not arise in an implementation which
                // explicitly specifies unique identifiers for barriers in
                // the code" (Sec. 3).
                let rearmed = tag != unit.tag
                    && matches!(
                        unit.state,
                        BarrierState::Synced | BarrierState::ReadyUnsynced
                    );
                if rearmed {
                    unit.state = BarrierState::ReadyUnsynced;
                }
                unit.tag = tag;
                if rearmed {
                    // A new logical barrier starts here for spread purposes.
                    self.procs[i].region_entered_at = Some(cycle);
                }
                1
            }
            Instr::Call { target } => {
                if self.procs[i].frames.len() >= crate::processor::MAX_CALL_DEPTH {
                    return Err(SimError::CallDepthExceeded { proc: i, cycle });
                }
                let return_pc = self.procs[i].pc + 1;
                self.procs[i]
                    .frames
                    .push(crate::processor::Frame::Call { return_pc });
                next_pc = target;
                1
            }
            Instr::Ret => match self.procs[i].frames.pop() {
                Some(crate::processor::Frame::Call { return_pc }) => {
                    next_pc = return_pc;
                    1
                }
                Some(crate::processor::Frame::Handler { return_pc }) => {
                    self.procs[i].handler_depth -= 1;
                    next_pc = return_pc;
                    1
                }
                None => return Err(SimError::ReturnWithoutFrame { proc: i, cycle }),
            },
            Instr::Trap { cause } => {
                let handler = self.trap_handlers[i].ok_or(SimError::UnhandledTrap {
                    proc: i,
                    cycle,
                    cause,
                })?;
                if self.procs[i].frames.len() >= crate::processor::MAX_CALL_DEPTH {
                    return Err(SimError::CallDepthExceeded { proc: i, cycle });
                }
                self.procs[i].set_reg(31, i64::from(cause));
                let return_pc = self.procs[i].pc + 1;
                self.procs[i]
                    .frames
                    .push(crate::processor::Frame::Handler { return_pc });
                self.procs[i].handler_depth += 1;
                self.trace.record(cycle, i, EventKind::Trap);
                next_pc = handler;
                1
            }
            Instr::Halt => {
                self.procs[i].halted = true;
                self.procs[i].unit.state = BarrierState::NonBarrier;
                self.trace.record(cycle, i, EventKind::Halt);
                1
            }
            _ => unreachable!("register ops return above"),
        };
        self.procs[i].pc = next_pc;
        Ok(latency)
    }
}

#[cfg(test)]
mod equivalence;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ReadyFault;
    use crate::isa::{Cond, Instr, Op};
    use crate::program::{Stream, StreamBuilder};

    fn quiet_memory() -> MemoryConfig {
        MemoryConfig {
            banks: 8,
            bank_occupancy: 1,
            hit_latency: 1,
            miss_penalty: 0,
            ..MemoryConfig::default()
        }
    }

    fn config() -> MachineConfig {
        MachineConfig {
            memory: quiet_memory(),
            ..MachineConfig::default()
        }
    }

    fn single(stream: Stream) -> Machine {
        Machine::new(Program::new(vec![stream]), config()).unwrap()
    }

    #[test]
    fn arithmetic_executes() {
        let mut b = StreamBuilder::new();
        b.plain(Instr::Li { rd: 1, imm: 6 });
        b.plain(Instr::Li { rd: 2, imm: 7 });
        b.plain(Instr::Mul {
            rd: 3,
            rs1: 1,
            rs2: 2,
        });
        b.plain(Instr::Addi {
            rd: 3,
            rs: 3,
            imm: -2,
        });
        b.plain(Instr::Halt);
        let mut m = single(b.finish().unwrap());
        let out = m.run(1000).unwrap();
        assert!(out.is_halted());
        assert_eq!(m.procs()[0].reg(3), 40);
    }

    #[test]
    fn loop_counts_to_ten() {
        let mut b = StreamBuilder::new();
        b.plain(Instr::Li { rd: 1, imm: 0 });
        b.plain(Instr::Li { rd: 2, imm: 10 });
        b.label("loop");
        b.plain(Instr::Addi {
            rd: 1,
            rs: 1,
            imm: 1,
        });
        b.plain_branch(Cond::Lt, 1, 2, "loop");
        b.plain(Instr::Halt);
        let mut m = single(b.finish().unwrap());
        assert!(m.run(1000).unwrap().is_halted());
        assert_eq!(m.procs()[0].reg(1), 10);
    }

    #[test]
    fn memory_round_trip_through_machine() {
        let mut b = StreamBuilder::new();
        b.plain(Instr::Li { rd: 1, imm: 100 });
        b.plain(Instr::Li { rd: 2, imm: 55 });
        b.plain(Instr::Store {
            rs: 2,
            rb: 1,
            offset: 3,
        });
        b.plain(Instr::Load {
            rd: 3,
            rs: 1,
            offset: 3,
        });
        b.plain(Instr::Halt);
        let mut m = single(b.finish().unwrap());
        m.run(1000).unwrap();
        assert_eq!(m.procs()[0].reg(3), 55);
        assert_eq!(m.memory().peek(103), 55);
    }

    #[test]
    fn out_of_bounds_is_reported_with_context() {
        let mut b = StreamBuilder::new();
        b.plain(Instr::Load {
            rd: 1,
            rs: 0,
            offset: -5,
        });
        let mut m = single(b.finish().unwrap());
        let err = m.run(10).unwrap_err();
        assert!(matches!(err, SimError::Memory { proc: 0, .. }));
        assert!(err.to_string().contains("processor 0"));
    }

    /// Two processors, each: non-barrier work of different lengths, then a
    /// barrier region, then a store that must not execute until both
    /// finished their pre-barrier work (Fig. 1 semantics).
    #[test]
    fn barrier_orders_cross_processor_phases() {
        let mk = |work: i64| {
            let mut b = StreamBuilder::new();
            // UNSHADED1: busy loop of `work` iterations.
            b.plain(Instr::Li { rd: 1, imm: 0 });
            b.plain(Instr::Li { rd: 2, imm: work });
            b.label("w");
            b.plain(Instr::Addi {
                rd: 1,
                rs: 1,
                imm: 1,
            });
            b.plain_branch(Cond::Lt, 1, 2, "w");
            // Mark the end of phase 1 in memory.
            b.plain(Instr::Li { rd: 3, imm: 1 });
            b.plain(Instr::Store {
                rs: 3,
                rb: 0,
                offset: 10, // both write their own cell via offset+id trick below
            });
            // Barrier region (a couple of overlap instructions).
            b.fuzzy(Instr::Nop);
            b.fuzzy(Instr::Nop);
            // UNSHADED2: read the *other* processor's flag.
            b.plain(Instr::Load {
                rd: 4,
                rs: 0,
                offset: 11,
            });
            b.plain(Instr::Halt);
            b
        };
        // Proc 0 writes word 10 and reads word 11; proc 1 vice versa.
        let b0 = mk(5);
        let b1 = mk(200);
        // Patch offsets by rebuilding proc 1's store/load.
        let s0 = b0.finish().unwrap();
        let ops1: Vec<Op> = b1
            .finish()
            .unwrap()
            .ops()
            .iter()
            .map(|op| {
                let instr = match op.instr {
                    Instr::Store { rs, rb, offset: 10 } => Instr::Store { rs, rb, offset: 11 },
                    Instr::Load { rd, rs, offset: 11 } => Instr::Load { rd, rs, offset: 10 },
                    other => other,
                };
                Op {
                    instr,
                    barrier: op.barrier,
                }
            })
            .collect();
        let s1 = Stream::from_ops(ops1);
        let mut m = Machine::new(Program::new(vec![s0, s1]), config()).unwrap();
        let out = m.run(100_000).unwrap();
        assert!(out.is_halted(), "outcome: {out:?}");
        // Each processor must have seen the other's flag — impossible
        // without the barrier ordering, since proc 0 finishes its work ~40x
        // earlier.
        assert_eq!(m.procs()[0].reg(4), 1);
        assert_eq!(m.procs()[1].reg(4), 1);
        // The fast processor stalled; the slow one (last arriver) did not.
        assert!(m.proc_stats(0).stall_cycles > 0);
        assert_eq!(m.proc_stats(1).stall_cycles, 0);
        assert_eq!(m.stats().sync_events, 1);
    }

    #[test]
    fn fuzzy_region_absorbs_skew() {
        // Same structure, but the fast processor's barrier region is long
        // enough to cover the slow processor's extra work: nobody stalls.
        let mk = |work: i64, region: i64| {
            let mut b = StreamBuilder::new();
            b.plain(Instr::Li { rd: 1, imm: 0 });
            b.plain(Instr::Li { rd: 2, imm: work });
            b.label("w");
            b.plain(Instr::Addi {
                rd: 1,
                rs: 1,
                imm: 1,
            });
            b.plain_branch(Cond::Lt, 1, 2, "w");
            // Barrier region: busy loop of `region` iterations.
            b.fuzzy(Instr::Li { rd: 5, imm: 0 });
            b.fuzzy(Instr::Li { rd: 6, imm: region });
            b.label("r");
            b.fuzzy(Instr::Addi {
                rd: 5,
                rs: 5,
                imm: 1,
            });
            b.fuzzy_branch(Cond::Lt, 5, 6, "r");
            b.plain(Instr::Halt);
            b.finish().unwrap()
        };
        // Proc 0: 10 work + huge region. Proc 1: 300 work + tiny region.
        let p = Program::new(vec![mk(10, 400), mk(300, 2)]);
        let mut m = Machine::new(p, config()).unwrap();
        assert!(m.run(100_000).unwrap().is_halted());
        assert_eq!(m.proc_stats(0).stall_cycles, 0, "region must absorb skew");
        assert_eq!(m.proc_stats(1).stall_cycles, 0);
        assert_eq!(m.stats().sync_events, 1);
        // No stalls → an empty stall histogram; one sync event → one
        // spread sample, covering the 290-cycle arrival skew.
        let stats = m.stats();
        assert!(stats.sync.stall_hist.is_empty());
        assert_eq!(stats.sync.spread_events, 1);
        assert!(stats.sync.spread_max_cycles > 200, "{stats:?}");
    }

    #[test]
    fn telemetry_histogram_matches_stall_accounting() {
        // Proc 0: 10 work + 2-instruction region (stalls ~290 cycles).
        // Proc 1: 300 work + 2-instruction region (last arriver, no stall).
        let mk = |work: i64| {
            let mut b = StreamBuilder::new();
            b.plain(Instr::Li { rd: 1, imm: 0 });
            b.plain(Instr::Li { rd: 2, imm: work });
            b.label("w");
            b.plain(Instr::Addi {
                rd: 1,
                rs: 1,
                imm: 1,
            });
            b.plain_branch(Cond::Lt, 1, 2, "w");
            b.fuzzy(Instr::Nop);
            b.fuzzy(Instr::Nop);
            b.plain(Instr::Halt);
            b.finish().unwrap()
        };
        let p = Program::new(vec![mk(10), mk(300)]);
        let mut m = Machine::new(p, config()).unwrap();
        assert!(m.run(100_000).unwrap().is_halted());
        let stats = m.stats();
        // One stall episode, recorded once in the histogram, with a
        // duration equal to the stalling processor's stall-cycle count.
        assert_eq!(stats.procs[0].stall_events, 1);
        assert_eq!(stats.procs[1].stall_events, 0);
        assert_eq!(stats.sync.stall_hist.total(), 1);
        let stall = stats.procs[0].stall_cycles;
        assert!(stall > 0);
        let bucket = fuzzy_util::Histogram::bucket_index(stall);
        assert_eq!(
            stats.sync.stall_hist.buckets[bucket], 1,
            "stall of {stall} cycles must land in bucket {bucket}: {stats:?}"
        );
        // One sync event → one spread sample; the two region entries are
        // ~290 cycles apart.
        assert_eq!(stats.sync.spread_events, stats.sync_events);
        assert!(stats.sync.spread_last_cycles > 200, "{stats:?}");
    }

    #[test]
    fn more_streams_than_mask_bits_is_a_typed_error() {
        let barrier_then_halt = |n: usize| {
            let stream = Stream::from_ops(vec![Op::fuzzy(Instr::Nop), Op::plain(Instr::Halt)]);
            Program::new(vec![stream; n])
        };
        // Sixty-four is the full width of a mask, and all of it works.
        let mut m = Machine::new(barrier_then_halt(64), config()).unwrap();
        assert!(m.run(1_000).unwrap().is_halted());
        assert_eq!(m.stats().sync_events, 1);
        assert_eq!(m.proc_stats(63).syncs, 1);
        // One more would alias processor 64 onto processor 0's mask bit.
        let err = Machine::new(barrier_then_halt(65), config()).unwrap_err();
        assert!(matches!(
            err,
            SimError::TooManyProcessors { procs: 65, max: 64 }
        ));
        assert!(err.to_string().contains("65 streams"), "{err}");
        let units = vec![BarrierUnit::new(0, 1); 65];
        assert!(matches!(
            Machine::with_units(barrier_then_halt(65), config(), units),
            Err(SimError::TooManyProcessors { procs: 65, max: 64 })
        ));
    }

    #[test]
    fn invalid_branch_program_is_rejected_by_default() {
        let mut b = StreamBuilder::new();
        b.fuzzy(Instr::Nop);
        b.jump("b2", true);
        b.plain(Instr::Nop);
        b.label("b2");
        b.fuzzy(Instr::Nop);
        b.plain(Instr::Halt);
        let p = Program::new(vec![b.finish().unwrap()]);
        assert!(matches!(
            Machine::new(p, config()),
            Err(SimError::InvalidProgram(_))
        ));
    }

    #[test]
    fn mismatched_tags_deadlock_and_are_detected() {
        // Both processors reach barrier regions but with different tags:
        // the sync condition can never fire.
        let mk = |tag: u16| {
            let mut b = StreamBuilder::new();
            b.plain(Instr::SetTag { tag });
            b.fuzzy(Instr::Nop);
            b.plain(Instr::Halt);
            b.finish().unwrap()
        };
        let p = Program::new(vec![mk(1), mk(2)]);
        let mut m = Machine::new(p, config()).unwrap();
        let out = m.run(10_000).unwrap();
        assert!(out.is_deadlock(), "outcome: {out:?}");
    }

    #[test]
    fn halted_partner_deadlocks_waiter() {
        // Proc 1 halts without entering any barrier; proc 0 waits forever.
        let mut b0 = StreamBuilder::new();
        b0.fuzzy(Instr::Nop);
        b0.plain(Instr::Halt);
        let mut b1 = StreamBuilder::new();
        b1.plain(Instr::Halt);
        let p = Program::new(vec![b0.finish().unwrap(), b1.finish().unwrap()]);
        let mut m = Machine::new(p, config()).unwrap();
        assert!(m.run(10_000).unwrap().is_deadlock());
    }

    #[test]
    fn repeated_synchronization_in_a_loop() {
        // Two procs, 50 iterations, one barrier per iteration.
        let mk = || {
            let mut b = StreamBuilder::new();
            b.plain(Instr::Li { rd: 1, imm: 0 });
            b.plain(Instr::Li { rd: 2, imm: 50 });
            b.label("loop");
            b.plain(Instr::Addi {
                rd: 1,
                rs: 1,
                imm: 1,
            });
            // Barrier region at end of each iteration, including the
            // back-edge branch (regions may span the back edge, Sec. 3).
            b.fuzzy(Instr::Nop);
            b.fuzzy_branch(Cond::Lt, 1, 2, "loop");
            b.plain(Instr::Halt);
            b.finish().unwrap()
        };
        let p = Program::new(vec![mk(), mk()]);
        let mut m = Machine::new(p, config()).unwrap();
        assert!(m.run(100_000).unwrap().is_halted());
        assert_eq!(m.stats().sync_events, 50);
        assert_eq!(m.proc_stats(0).syncs, 50);
    }

    #[test]
    fn trace_records_barrier_lifecycle() {
        let mut cfg = config();
        cfg.trace = true;
        let mk = || {
            let mut b = StreamBuilder::new();
            b.plain(Instr::Nop);
            b.fuzzy(Instr::Nop);
            b.plain(Instr::Halt);
            b.finish().unwrap()
        };
        let mut m = Machine::new(Program::new(vec![mk(), mk()]), cfg).unwrap();
        m.run(1000).unwrap();
        use crate::trace::EventKind as K;
        assert_eq!(m.trace().of_kind(K::EnterBarrier).count(), 2);
        assert_eq!(m.trace().of_kind(K::Sync).count(), 2);
        assert_eq!(m.trace().of_kind(K::Cross).count(), 2);
        assert_eq!(m.trace().of_kind(K::Halt).count(), 2);
    }

    #[test]
    fn tag_change_inside_barrier_region_rearms_the_barrier() {
        // P0 branches from barrier 1 directly into barrier 2's code
        // (contiguous barrier bits), but barrier 2 announces a new tag:
        // the tag change re-arms the state machine, so P0 synchronizes
        // twice like its partner and the run completes (Sec. 3's
        // "unique identifiers" remedy for Fig. 2).
        let mut b0 = StreamBuilder::new();
        b0.plain(Instr::SetTag { tag: 1 });
        b0.fuzzy(Instr::Nop); // barrier 1
        b0.jump("skip", true);
        b0.plain(Instr::Nop); // skipped non-barrier region
        b0.label("skip");
        b0.fuzzy(Instr::SetTag { tag: 2 }); // barrier 2's identity
        b0.fuzzy(Instr::Nop);
        b0.plain(Instr::Halt);
        let mut b1 = StreamBuilder::new();
        b1.plain(Instr::SetTag { tag: 1 });
        b1.fuzzy(Instr::Nop); // barrier 1
        b1.plain(Instr::Nop);
        b1.plain(Instr::SetTag { tag: 2 });
        b1.fuzzy(Instr::Nop); // barrier 2
        b1.plain(Instr::Halt);
        let p = Program::new(vec![b0.finish().unwrap(), b1.finish().unwrap()]);
        let mut cfg = config();
        cfg.validate = false; // contains the Fig. 2 branch shape
        let mut m = Machine::new(p, cfg).unwrap();
        let out = m.run(100_000).unwrap();
        assert!(out.is_halted(), "outcome {out:?}");
        assert_eq!(m.proc_stats(0).syncs, 2);
        assert_eq!(m.proc_stats(1).syncs, 2);
    }

    #[test]
    fn procedure_call_and_return() {
        // main: r1 = 5; call double; halt.  double: r1 = r1 * 2; ret.
        let mut b = StreamBuilder::new();
        b.plain(Instr::Li { rd: 1, imm: 5 });
        b.call("double", false);
        b.plain(Instr::Halt);
        b.label("double");
        b.plain(Instr::Muli {
            rd: 1,
            rs: 1,
            imm: 2,
        });
        b.plain(Instr::Ret);
        let mut m = single(b.finish().unwrap());
        assert!(m.run(1000).unwrap().is_halted());
        assert_eq!(m.procs()[0].reg(1), 10);
    }

    #[test]
    fn recursive_calls_compute_factorial() {
        // fact(n): if n <= 1 return 1 in r2 else r2 = n * fact(n-1).
        // Iterative-recursive via explicit stack of calls on r1.
        let mut b = StreamBuilder::new();
        b.plain(Instr::Li { rd: 1, imm: 6 }); // n
        b.plain(Instr::Li { rd: 2, imm: 1 }); // acc
        b.call("fact", false);
        b.plain(Instr::Halt);
        b.label("fact");
        b.plain(Instr::Li { rd: 3, imm: 1 });
        b.plain_branch(Cond::Le, 1, 3, "base");
        b.plain(Instr::Mul {
            rd: 2,
            rs1: 2,
            rs2: 1,
        });
        b.plain(Instr::Addi {
            rd: 1,
            rs: 1,
            imm: -1,
        });
        b.call("fact", false);
        b.label("base");
        b.plain(Instr::Ret);
        let mut m = single(b.finish().unwrap());
        assert!(m.run(10_000).unwrap().is_halted());
        assert_eq!(m.procs()[0].reg(2), 720);
    }

    #[test]
    fn call_inside_barrier_region_extends_the_region() {
        // Both procs enter a barrier region and CALL a procedure whose
        // body is barrier-region code (Sec. 9's "parallel procedure
        // calls"); synchronization happens while inside the callee, and
        // both return and cross normally.
        let mk = |work: i64| {
            let mut b = StreamBuilder::new();
            b.plain(Instr::Li { rd: 1, imm: 0 });
            b.plain(Instr::Li { rd: 2, imm: work });
            b.label("w");
            b.plain(Instr::Addi {
                rd: 1,
                rs: 1,
                imm: 1,
            });
            b.plain_branch(Cond::Lt, 1, 2, "w");
            b.fuzzy(Instr::Nop); // enter barrier region
            b.call("helper", true); // call from the region
            b.plain(Instr::Halt); // crossing requires sync
            b.label("helper");
            b.fuzzy(Instr::Addi {
                rd: 5,
                rs: 5,
                imm: 1,
            }); // region code
            b.fuzzy(Instr::Ret);
            b.finish().unwrap()
        };
        let p = Program::new(vec![mk(5), mk(60)]);
        let mut m = Machine::new(p, config()).unwrap();
        let out = m.run(100_000).unwrap();
        assert!(out.is_halted(), "{out:?}");
        assert_eq!(m.stats().sync_events, 1);
        assert_eq!(m.procs()[0].reg(5), 1, "helper body executed once");
    }

    #[test]
    fn ret_without_frame_is_an_error() {
        let mut b = StreamBuilder::new();
        b.plain(Instr::Ret);
        let mut m = single(b.finish().unwrap());
        assert!(matches!(
            m.run(100).unwrap_err(),
            SimError::ReturnWithoutFrame { proc: 0, .. }
        ));
    }

    #[test]
    fn runaway_recursion_overflows_call_stack() {
        let mut b = StreamBuilder::new();
        b.label("f");
        b.call("f", false);
        let mut m = single(b.finish().unwrap());
        assert!(matches!(
            m.run(100_000).unwrap_err(),
            SimError::CallDepthExceeded { proc: 0, .. }
        ));
    }

    #[test]
    fn trap_without_handler_faults() {
        let mut b = StreamBuilder::new();
        b.plain(Instr::Trap { cause: 7 });
        let mut m = single(b.finish().unwrap());
        assert!(matches!(
            m.run(100).unwrap_err(),
            SimError::UnhandledTrap { cause: 7, .. }
        ));
    }

    #[test]
    fn trap_inside_barrier_region_freezes_barrier_state() {
        // Proc 0 traps from inside its barrier region; the handler (plain
        // code) runs with the unit frozen, so synchronization with proc 1
        // still completes exactly once.
        let mut b0 = StreamBuilder::new();
        b0.plain(Instr::Nop);
        b0.fuzzy(Instr::Trap { cause: 3 }); // in barrier region
        b0.fuzzy(Instr::Nop);
        b0.plain(Instr::Halt);
        b0.label("handler");
        b0.plain(Instr::Mov { rd: 7, rs: 31 }); // read cause (plain code!)
        b0.plain(Instr::Ret);
        let handler_pc = 4;
        let mut b1 = StreamBuilder::new();
        b1.plain(Instr::Nop);
        b1.fuzzy(Instr::Nop);
        b1.plain(Instr::Halt);
        let p = Program::new(vec![b0.finish().unwrap(), b1.finish().unwrap()]);
        let mut m = Machine::new(p, config()).unwrap();
        m.set_trap_handler(0, handler_pc);
        let out = m.run(10_000).unwrap();
        assert!(out.is_halted(), "{out:?}");
        assert_eq!(m.procs()[0].reg(7), 3, "handler saw the trap cause");
        assert_eq!(m.proc_stats(0).syncs, 1);
        assert_eq!(m.proc_stats(1).syncs, 1);
    }

    #[test]
    fn interrupt_during_stall_runs_handler_and_resumes_stall() {
        // Proc 0 stalls at its barrier exit; an interrupt arrives, the
        // handler runs (incrementing r6), and the stall resumes until
        // proc 1 finally arrives.
        let mut b0 = StreamBuilder::new();
        b0.fuzzy(Instr::Nop);
        b0.plain(Instr::Halt); // will stall here
        b0.label("handler");
        b0.plain(Instr::Addi {
            rd: 6,
            rs: 6,
            imm: 1,
        });
        b0.plain(Instr::Ret);
        let handler_pc = 2;
        let mut b1 = StreamBuilder::new();
        // Proc 1: long work before its barrier.
        b1.plain(Instr::Li { rd: 1, imm: 0 });
        b1.plain(Instr::Li { rd: 2, imm: 100 });
        b1.label("w");
        b1.plain(Instr::Addi {
            rd: 1,
            rs: 1,
            imm: 1,
        });
        b1.plain_branch(Cond::Lt, 1, 2, "w");
        b1.fuzzy(Instr::Nop);
        b1.plain(Instr::Halt);
        let p = Program::new(vec![b0.finish().unwrap(), b1.finish().unwrap()]);
        let mut m = Machine::new(p, config()).unwrap();
        m.schedule_interrupt(0, 50, handler_pc);
        let out = m.run(100_000).unwrap();
        assert!(out.is_halted(), "{out:?}");
        assert_eq!(m.procs()[0].reg(6), 1, "handler ran exactly once");
        assert_eq!(m.proc_stats(0).syncs, 1);
        use crate::trace::EventKind as K;
        let _ = K::Interrupt; // (trace disabled in this config)
    }

    #[test]
    fn pending_interrupt_defers_deadlock_detection() {
        // Proc 0 stalls forever (partner halts immediately) but an
        // interrupt at cycle 30 runs a handler that HALTS the processor,
        // resolving the situation; deadlock must not fire before cycle 30.
        let mut b0 = StreamBuilder::new();
        b0.fuzzy(Instr::Nop);
        b0.plain(Instr::Nop);
        b0.plain(Instr::Halt);
        b0.label("handler");
        b0.plain(Instr::Halt);
        let handler_pc = 3;
        let mut b1 = StreamBuilder::new();
        b1.plain(Instr::Halt);
        let p = Program::new(vec![b0.finish().unwrap(), b1.finish().unwrap()]);
        let mut m = Machine::new(p, config()).unwrap();
        m.schedule_interrupt(0, 30, handler_pc);
        let out = m.run(10_000).unwrap();
        assert!(
            out.is_halted(),
            "interrupt should resolve the stall: {out:?}"
        );
        assert!(out.cycles() >= 30);
    }

    #[test]
    fn interrupt_for_a_halted_processor_does_not_defer_deadlock() {
        // Same stall, but the pending interrupt is addressed to the
        // partner that halted at once: it can never be delivered, stays
        // in the queue, and must not keep the machine "not yet deadlocked"
        // until the cycle budget runs out.
        let mut b0 = StreamBuilder::new();
        b0.fuzzy(Instr::Nop);
        b0.plain(Instr::Halt);
        let mut b1 = StreamBuilder::new();
        b1.plain(Instr::Halt);
        let p = Program::new(vec![b0.finish().unwrap(), b1.finish().unwrap()]);
        let mut plain = Machine::new(p.clone(), config()).unwrap();
        let expected = plain.run(1_000_000).unwrap();
        assert_eq!(expected, RunOutcome::Deadlock { cycle: 2 });
        let mut m = Machine::new(p, config()).unwrap();
        m.schedule_interrupt(1, 50, 0);
        assert_eq!(m.run(1_000_000).unwrap(), expected);
    }

    #[test]
    #[should_panic(expected = "interrupt target out of range")]
    fn interrupt_for_a_processor_that_does_not_exist_is_refused() {
        let mut b = StreamBuilder::new();
        b.plain(Instr::Halt);
        single(b.finish().unwrap()).schedule_interrupt(1, 0, 0);
    }

    #[test]
    fn sync_positions_show_the_fuzziness() {
        // Proc 0 reaches its (long) barrier region early and is deep
        // inside it when the late proc 1 enters; proc 1 is at its start.
        let mk = |work: i64, region: i64| {
            let mut b = StreamBuilder::new();
            b.plain(Instr::Li { rd: 1, imm: 0 });
            b.plain(Instr::Li { rd: 2, imm: work });
            b.label("w");
            b.plain(Instr::Addi {
                rd: 1,
                rs: 1,
                imm: 1,
            });
            b.plain_branch(Cond::Lt, 1, 2, "w");
            for _ in 0..region {
                b.fuzzy(Instr::Nop);
            }
            b.plain(Instr::Halt);
            b.finish().unwrap()
        };
        let p = Program::new(vec![mk(2, 200), mk(50, 5)]);
        // Stepping shows each sample: a processor whose sync count rose
        // in a cycle synchronized there, at its `region_progress`.
        let mut stepped = Machine::new(p.clone(), config()).unwrap();
        let (mut pos, mut seen) = (Vec::new(), [0; 2]);
        while stepped.step().unwrap() {
            for (proc, seen) in stepped.procs.iter().zip(&mut seen) {
                if proc.stats.syncs > *seen {
                    *seen = proc.stats.syncs;
                    pos.push(proc.region_progress);
                }
            }
        }
        let mut m = Machine::new(p, config()).unwrap();
        assert!(m.run(100_000).unwrap().is_halted());
        let t = m.stats().sync;
        assert_eq!(t, stepped.stats().sync);
        assert_eq!(t.position_hist.total(), 2, "{t:?}");
        assert_eq!(pos.len(), 2, "{pos:?}");
        let (deep, shallow) = (pos.iter().max().unwrap(), pos.iter().min().unwrap());
        assert!(
            *deep > 50 && *shallow <= 1,
            "early proc should be deep in its region, late proc at the start: {pos:?}"
        );
        assert_eq!(t.position_max_instrs, *deep);
        assert!(t.position_max_instrs > 50, "{t:?}");
        assert!(
            t.position_hist.buckets[..=1].iter().sum::<u64>() >= 1,
            "{t:?}"
        );
        assert_eq!(t.position_total_instrs, deep + shallow, "{t:?}");
    }

    #[test]
    fn pipelined_readiness_waits_for_in_flight_non_barrier_ops() {
        // Sec. 2: "exiting this non-barrier region is not same as entering
        // the barrier region for a pipelined machine". Proc 0 issues a
        // long-latency load (plain) and immediately enters its barrier
        // region; proc 1 is ready from cycle 1. Synchronization must be
        // delayed until proc 0's load completes, even though proc 0
        // *entered* its region long before.
        let mut cfg = config();
        cfg.pipelined = true;
        cfg.trace = true;
        cfg.memory.miss_penalty = 40;
        cfg.memory.cache = Some(crate::memory::CacheConfig::default());
        let mut b0 = StreamBuilder::new();
        b0.plain(Instr::Load {
            rd: 3,
            rs: 0,
            offset: 9,
        }); // cold miss: ~40 cycles in flight
        b0.fuzzy(Instr::Nop); // enters the barrier region right away
        b0.fuzzy(Instr::Nop);
        b0.plain(Instr::Halt);
        let mut b1 = StreamBuilder::new();
        b1.fuzzy(Instr::Nop);
        b1.plain(Instr::Halt);
        let p = Program::new(vec![b0.finish().unwrap(), b1.finish().unwrap()]);
        let mut m = Machine::new(p, cfg).unwrap();
        assert!(m.run(10_000).unwrap().is_halted());
        use crate::trace::EventKind as K;
        let enter0 = m
            .trace()
            .events()
            .iter()
            .find(|e| e.proc == 0 && e.kind == K::EnterBarrier)
            .unwrap()
            .cycle;
        let sync = m.trace().of_kind(K::Sync).next().unwrap().cycle;
        assert!(
            sync >= enter0 + 30,
            "sync at {sync} must wait for the in-flight load              (entered at {enter0}, load latency ~40)"
        );
    }

    #[test]
    fn serial_mode_readiness_is_at_entry() {
        // The same program in serial mode: the load completes before the
        // region is entered, so readiness and entry coincide.
        let mut cfg = config();
        cfg.trace = true;
        let mut b0 = StreamBuilder::new();
        b0.plain(Instr::Nop);
        b0.fuzzy(Instr::Nop);
        b0.plain(Instr::Halt);
        let mut b1 = StreamBuilder::new();
        b1.fuzzy(Instr::Nop);
        b1.plain(Instr::Halt);
        let p = Program::new(vec![b0.finish().unwrap(), b1.finish().unwrap()]);
        let mut m = Machine::new(p, cfg).unwrap();
        assert!(m.run(10_000).unwrap().is_halted());
        use crate::trace::EventKind as K;
        let enter0 = m
            .trace()
            .events()
            .iter()
            .find(|e| e.proc == 0 && e.kind == K::EnterBarrier)
            .unwrap()
            .cycle;
        let sync = m.trace().of_kind(K::Sync).next().unwrap().cycle;
        assert_eq!(
            sync, enter0,
            "serial: ready the cycle the region is entered"
        );
    }

    #[test]
    fn pipelined_mode_reaches_same_results() {
        let mut cfg = config();
        cfg.pipelined = true;
        let mk = || {
            let mut b = StreamBuilder::new();
            b.plain(Instr::Li { rd: 1, imm: 21 });
            b.plain(Instr::Muli {
                rd: 1,
                rs: 1,
                imm: 2,
            });
            b.fuzzy(Instr::Nop);
            b.plain(Instr::Store {
                rs: 1,
                rb: 0,
                offset: 0,
            });
            b.plain(Instr::Halt);
            b.finish().unwrap()
        };
        let mut m = Machine::new(Program::new(vec![mk()]), cfg).unwrap();
        assert!(m.run(1000).unwrap().is_halted());
        assert_eq!(m.memory().peek(0), 42);
    }

    #[test]
    fn watchdog_evicts_a_stalled_victim_and_survivors_recover() {
        // Three processors, one barrier each. Proc 2's ready broadcast is
        // severed before it ever reaches the network; every unit carries an
        // armed watchdog. Procs 0 and 1 must cut the victim out of the
        // masks, synchronize with each other and halt, while the victim's
        // own watchdog keeps re-arming (its partners look healthy from its
        // side) and it idles forever — so the run ends in deadlock with the
        // survivors halted.
        let mk = || {
            let mut b = StreamBuilder::new();
            b.plain(Instr::Nop);
            b.fuzzy(Instr::Nop);
            b.plain(Instr::Li { rd: 9, imm: 1 });
            b.plain(Instr::Halt);
            b.finish().unwrap()
        };
        let p = Program::new(vec![mk(), mk(), mk()]);
        let units = vec![
            BarrierUnit::new(0b110, 1).with_watchdog(8),
            BarrierUnit::new(0b101, 1).with_watchdog(8),
            BarrierUnit::new(0b011, 1).with_watchdog(8),
        ];
        let mut m = Machine::with_units(p, config(), units).unwrap();
        m.inject_ready_fault(FaultPlan {
            victim: 2,
            onset: 0,
            fault: ReadyFault::Stall,
        });
        let out = m.run(10_000).unwrap();
        assert!(out.is_deadlock(), "victim idles forever: {out:?}");
        assert!(m.procs()[0].halted && m.procs()[1].halted);
        assert!(!m.procs()[2].halted);
        assert_eq!(m.evictions().len(), 1, "one eviction, deduplicated");
        let ev = m.evictions()[0];
        assert_eq!(ev.victim, 2);
        assert!(ev.watchdog < 2);
        // Survivors synchronize on the broadcast evaluation right after
        // the mask update.
        assert_eq!(ev.recovery_latency(), Some(1));
        assert_eq!(m.stats().sync_events, 1);
        assert_eq!(m.proc_stats(0).syncs, 1);
        assert_eq!(m.proc_stats(1).syncs, 1);
        assert_eq!(m.proc_stats(2).syncs, 0);
        assert_eq!(m.procs()[0].reg(9), 1, "survivor ran its post-barrier code");
    }

    #[test]
    fn transient_delay_heals_without_eviction() {
        // Proc 1's broadcast is suppressed for 40 cycles — well past both
        // arrivals — and no watchdog is armed anywhere. The machine must
        // not report deadlock while the fault can still heal; once it
        // does, the barrier fires normally.
        let mk = || {
            let mut b = StreamBuilder::new();
            b.fuzzy(Instr::Nop);
            b.plain(Instr::Halt);
            b.finish().unwrap()
        };
        let p = Program::new(vec![mk(), mk()]);
        let mut m = Machine::new(p, config()).unwrap();
        m.inject_ready_fault(FaultPlan {
            victim: 1,
            onset: 0,
            fault: ReadyFault::Delay { cycles: 40 },
        });
        let out = m.run(10_000).unwrap();
        assert!(out.is_halted(), "{out:?}");
        assert!(out.cycles() >= 40, "sync had to wait out the glitch");
        assert!(m.evictions().is_empty());
        assert_eq!(m.stats().sync_events, 1);
    }

    #[test]
    fn generous_watchdog_tolerates_a_transient_delay() {
        // Same transient glitch, but now watchdogs ARE armed — with a
        // budget larger than the outage. The glitch must heal before any
        // eviction fires.
        let mk = || {
            let mut b = StreamBuilder::new();
            b.fuzzy(Instr::Nop);
            b.plain(Instr::Halt);
            b.finish().unwrap()
        };
        let p = Program::new(vec![mk(), mk()]);
        let units = vec![
            BarrierUnit::new(0b10, 1).with_watchdog(100),
            BarrierUnit::new(0b01, 1).with_watchdog(100),
        ];
        let mut m = Machine::with_units(p, config(), units).unwrap();
        m.inject_ready_fault(FaultPlan {
            victim: 1,
            onset: 0,
            fault: ReadyFault::Delay { cycles: 40 },
        });
        let out = m.run(10_000).unwrap();
        assert!(out.is_halted(), "{out:?}");
        assert!(m.evictions().is_empty(), "budget outlasted the glitch");
        assert_eq!(m.stats().sync_events, 1);
    }

    #[test]
    fn eviction_raises_an_interrupt_on_the_watchdog_processor() {
        // Proc 0's trap handler increments r6. When its watchdog evicts
        // the dead proc 1, the eviction interrupt must run that handler
        // exactly once; proc 0 (mask now empty) then synchronizes alone
        // and halts.
        let mut b0 = StreamBuilder::new();
        b0.fuzzy(Instr::Nop);
        b0.plain(Instr::Halt);
        b0.label("handler");
        b0.plain(Instr::Addi {
            rd: 6,
            rs: 6,
            imm: 1,
        });
        b0.plain(Instr::Ret);
        let handler_pc = 2;
        let mut b1 = StreamBuilder::new();
        b1.fuzzy(Instr::Nop);
        b1.plain(Instr::Halt);
        let p = Program::new(vec![b0.finish().unwrap(), b1.finish().unwrap()]);
        let units = vec![
            BarrierUnit::new(0b10, 1).with_watchdog(5),
            BarrierUnit::new(0b01, 1),
        ];
        let mut m = Machine::with_units(p, config(), units).unwrap();
        m.set_trap_handler(0, handler_pc);
        m.inject_ready_fault(FaultPlan {
            victim: 1,
            onset: 0,
            fault: ReadyFault::Stall,
        });
        let out = m.run(10_000).unwrap();
        assert!(out.is_deadlock(), "the dead victim never halts: {out:?}");
        assert!(m.procs()[0].halted);
        assert_eq!(m.procs()[0].reg(6), 1, "eviction handler ran once");
        assert_eq!(m.evictions().len(), 1);
        assert_eq!(m.evictions()[0].victim, 1);
        assert!(m.evictions()[0].recovery_latency().is_some());
    }

    #[test]
    fn stutter_starves_partners_until_the_watchdog_fires() {
        // A heavy stutter (p = 0.95) keeps dropping proc 1's broadcast;
        // sooner or later the partners' ready cycles never line up long
        // enough and proc 0's watchdog evicts it. Deterministic per seed.
        let mk = || {
            let mut b = StreamBuilder::new();
            b.fuzzy(Instr::Nop);
            b.plain(Instr::Halt);
            b.finish().unwrap()
        };
        let p = Program::new(vec![mk(), mk()]);
        let units = vec![
            BarrierUnit::new(0b10, 1).with_watchdog(4),
            BarrierUnit::new(0b01, 1),
        ];
        let mut m = Machine::with_units(p, config(), units).unwrap();
        m.inject_ready_fault(FaultPlan {
            victim: 1,
            onset: 0,
            fault: ReadyFault::Stutter { p: 0.95, seed: 7 },
        });
        let out = m.run(10_000).unwrap();
        // Either the stutter let one evaluation through before the budget
        // ran out (sync) or the watchdog fired (eviction) — with p = 0.95
        // and a budget of 4 the eviction path is what the seed produces,
        // and determinism means it stays that way.
        assert_eq!(m.evictions().len(), 1, "{out:?}");
        assert_eq!(m.evictions()[0].victim, 1);
    }
}

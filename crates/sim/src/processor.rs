//! Processor execution context.

use crate::barrier_hw::BarrierUnit;
use crate::isa::{Instr, NUM_REGS};
use crate::stats::ProcStats;

/// Maximum call/handler nesting depth per processor.
pub const MAX_CALL_DEPTH: usize = 128;

/// A control-stack frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    /// A procedure call; `ret` resumes at `return_pc`.
    Call {
        /// Instruction index to resume at.
        return_pc: usize,
    },
    /// An interrupt or trap handler; while any handler frame is live the
    /// barrier unit's state is frozen (region transitions are suspended) —
    /// this crate's resolution of the paper's Sec. 9 open question.
    Handler {
        /// Instruction index to resume at.
        return_pc: usize,
    },
}

/// One simulated processor: registers, program counter, barrier unit and
/// (in pipelined mode) the set of in-flight non-barrier instructions.
#[derive(Debug, Clone)]
pub struct Processor {
    /// Processor id (index into the machine's processor array).
    pub id: usize,
    /// General-purpose registers.
    pub regs: [i64; NUM_REGS],
    /// Program counter: index of the next instruction in this stream.
    pub pc: usize,
    /// Whether the processor has executed `halt` (or run off the end of
    /// its stream).
    pub halted: bool,
    /// The fuzzy-barrier hardware attached to this processor.
    pub unit: BarrierUnit,
    /// First cycle at which the processor may issue again (serial mode) —
    /// models multi-cycle instruction occupancy.
    pub busy_until: u64,
    /// Completion cycles of in-flight **non-barrier** instructions
    /// (pipelined mode). While non-empty the processor has not yet *exited*
    /// the preceding non-barrier region, so its ready line is vetoed.
    pub outstanding_plain: Vec<u64>,
    /// Control stack for `call`/`ret` and interrupt/trap handlers.
    pub frames: Vec<Frame>,
    /// Number of live [`Frame::Handler`] frames; region transitions are
    /// suspended while non-zero.
    pub handler_depth: u32,
    /// Barrier-region instructions executed since the current region was
    /// entered — the processor's *position* inside the region (Fig. 1:
    /// "the processors could be executing at any point in their respective
    /// barrier regions"). Each synchronization records it in the machine's
    /// [`SyncTelemetry`](crate::stats::SyncTelemetry) position histogram;
    /// one processor's own sample is this field, read after the
    /// [`Machine::step`](crate::machine::Machine::step) in which its
    /// `stats.syncs` rises.
    pub region_progress: u64,
    /// Cycle at which the current stall (state iv) began, if stalled.
    /// Cleared when the stall resolves; its duration feeds the machine's
    /// stall histogram.
    pub stall_started: Option<u64>,
    /// Cycle at which the current barrier region was entered, if inside
    /// one. The first-to-last spread of these values across a synchronizing
    /// group is the arrival spread recorded per sync event.
    pub region_entered_at: Option<u64>,
    /// Statistics.
    pub stats: ProcStats,
}

impl Processor {
    /// Creates a processor with the given barrier unit configuration.
    #[must_use]
    pub fn new(id: usize, unit: BarrierUnit) -> Self {
        Processor {
            id,
            regs: [0; NUM_REGS],
            pc: 0,
            halted: false,
            unit,
            busy_until: 0,
            outstanding_plain: Vec::new(),
            frames: Vec::new(),
            handler_depth: 0,
            region_progress: 0,
            stall_started: None,
            region_entered_at: None,
            stats: ProcStats::default(),
        }
    }

    /// Whether the processor is currently inside an interrupt/trap
    /// handler (barrier-region transitions suspended).
    #[must_use]
    pub fn in_handler(&self) -> bool {
        self.handler_depth > 0
    }

    /// Whether this cycle counts against the unit's watchdog budget: the
    /// processor is live and broadcasting readiness under a real tag, and
    /// synchronization has not come.
    pub(crate) fn counts_waiting(&self) -> bool {
        !self.halted && self.unit.tag != 0 && self.unit.ready_line()
    }

    /// Reads a register.
    #[must_use]
    pub fn reg(&self, r: u8) -> i64 {
        self.regs[r as usize]
    }

    /// Writes a register.
    pub fn set_reg(&mut self, r: u8, value: i64) {
        self.regs[r as usize] = value;
    }

    /// Executes `instr` if it is a *register op* — one that reads and
    /// writes nothing but this processor's registers and program counter —
    /// and returns its latency; any other instruction is left alone and
    /// answered `None`. This match is the one classification of [`Instr`]
    /// by that property, and the one implementation of these instructions:
    /// the machine executes them here whether it steps or issues ahead.
    #[inline(always)]
    pub(crate) fn register_op(&mut self, instr: Instr, mul_latency: u64) -> Option<u64> {
        let mut next_pc = self.pc + 1;
        let latency = match instr {
            Instr::Li { rd, imm } => {
                self.set_reg(rd, imm);
                1
            }
            Instr::Mov { rd, rs } => {
                self.set_reg(rd, self.reg(rs));
                1
            }
            Instr::Add { rd, rs1, rs2 } => {
                self.set_reg(rd, self.reg(rs1).wrapping_add(self.reg(rs2)));
                1
            }
            Instr::Sub { rd, rs1, rs2 } => {
                self.set_reg(rd, self.reg(rs1).wrapping_sub(self.reg(rs2)));
                1
            }
            Instr::Mul { rd, rs1, rs2 } => {
                self.set_reg(rd, self.reg(rs1).wrapping_mul(self.reg(rs2)));
                mul_latency
            }
            Instr::Addi { rd, rs, imm } => {
                self.set_reg(rd, self.reg(rs).wrapping_add(imm));
                1
            }
            Instr::Muli { rd, rs, imm } => {
                self.set_reg(rd, self.reg(rs).wrapping_mul(imm));
                mul_latency
            }
            Instr::Divi { rd, rs, imm } => {
                // Division by zero is defined to produce 0 rather than
                // trapping (the simulated machine has no trap model).
                let v = if imm == 0 {
                    0
                } else {
                    self.reg(rs).wrapping_div(imm)
                };
                self.set_reg(rd, v);
                mul_latency
            }
            Instr::Jump { target } => {
                next_pc = target;
                1
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                if cond.eval(self.reg(rs1), self.reg(rs2)) {
                    next_pc = target;
                }
                1
            }
            Instr::Nop => 1,
            Instr::Load { .. }
            | Instr::Store { .. }
            | Instr::FetchAdd { .. }
            | Instr::SetMask { .. }
            | Instr::SetTag { .. }
            | Instr::Call { .. }
            | Instr::Ret
            | Instr::Trap { .. }
            | Instr::Halt => return None,
        };
        self.pc = next_pc;
        Some(latency)
    }

    /// Drops in-flight non-barrier instructions that have completed by
    /// `cycle`.
    pub fn retire(&mut self, cycle: u64) {
        self.outstanding_plain.retain(|&done| done > cycle);
    }

    /// Whether the processor has exited its preceding non-barrier region:
    /// true once no non-barrier instructions remain in flight. Serial mode
    /// keeps this vacuously true.
    #[must_use]
    pub fn exited_non_barrier(&self) -> bool {
        self.outstanding_plain.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retire_drops_completed_ops() {
        let mut p = Processor::new(0, BarrierUnit::default());
        p.outstanding_plain = vec![5, 10, 15];
        p.retire(10);
        assert_eq!(p.outstanding_plain, vec![15]);
        assert!(!p.exited_non_barrier());
        p.retire(20);
        assert!(p.exited_non_barrier());
    }

    #[test]
    fn register_file_round_trips() {
        let mut p = Processor::new(1, BarrierUnit::default());
        p.set_reg(7, -3);
        assert_eq!(p.reg(7), -3);
        assert_eq!(p.reg(0), 0);
    }
}

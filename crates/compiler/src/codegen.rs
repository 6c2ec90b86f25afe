//! Code generation: TAC → simulator ISA, with register allocation.
//!
//! Register conventions: `r0` is kept zero (the code generator never writes
//! it, so absolute addressing works through it), scalar variables live in
//! caller-assigned low registers, and temps are allocated from a pool with
//! Belady (farthest-next-use) spilling into a per-processor spill area.
//!
//! Each emitted instruction carries the barrier-region bit of the region
//! being generated, which is how the compiler's [`crate::region`] decisions
//! reach the hardware.

use crate::ast::VarId;
use crate::tac::{AnnotatedInstr, BinOp, Src, TacInstr, Temp};
use fuzzy_sim::isa::{Instr, Reg};
use fuzzy_sim::program::StreamBuilder;
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;

/// First register of the temp pool.
pub const TEMP_POOL_START: Reg = 8;
/// One past the last register of the temp pool.
pub const TEMP_POOL_END: Reg = 32;

/// Code-generation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodegenError {
    /// A scalar variable had no register assignment.
    UnmappedVar {
        /// The variable.
        var: VarId,
    },
    /// Division by a non-constant is not supported by the ISA.
    DivByNonConst,
    /// A temp was used before being defined.
    UseBeforeDef {
        /// The temp.
        temp: Temp,
    },
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::UnmappedVar { var } => {
                write!(f, "variable v{} has no register assignment", var.0)
            }
            CodegenError::DivByNonConst => write!(f, "division by a non-constant operand"),
            CodegenError::UseBeforeDef { temp } => write!(f, "temp {temp} used before definition"),
        }
    }
}

impl Error for CodegenError {}

/// Mapping from scalar variables to dedicated registers.
#[derive(Debug, Clone, Default)]
pub struct VarMap {
    map: BTreeMap<VarId, Reg>,
}

impl VarMap {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        VarMap::default()
    }

    /// Assigns `var` to `reg`.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is r0 or inside the temp pool.
    pub fn assign(&mut self, var: VarId, reg: Reg) {
        assert!(reg != 0, "r0 is the zero register");
        assert!(
            !(TEMP_POOL_START..TEMP_POOL_END).contains(&reg),
            "r{reg} belongs to the temp pool"
        );
        self.map.insert(var, reg);
    }

    /// The register of `var`, if assigned.
    #[must_use]
    pub fn reg(&self, var: VarId) -> Option<Reg> {
        self.map.get(&var).copied()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    Reg(Reg),
    Spilled(i64),
}

/// Belady register allocator over one straight-line instruction sequence.
#[derive(Debug)]
struct RegAlloc {
    free: Vec<Reg>,
    loc: HashMap<Temp, Loc>,
    /// Ordered by register, so that the spill victim's tie-break and the
    /// order `expire` frees registers in — hence the whole program — are
    /// the same on every compile.
    in_reg: BTreeMap<Reg, Temp>,
    /// Remaining use positions per temp, ascending.
    uses: HashMap<Temp, Vec<usize>>,
    spill_base: i64,
    spill_slots: HashMap<Temp, i64>,
    next_slot: i64,
    /// Count of spill stores/reloads emitted (for diagnostics).
    spill_ops: u64,
}

impl RegAlloc {
    fn new(seq: &[&AnnotatedInstr], spill_base: i64) -> Self {
        let mut uses: HashMap<Temp, Vec<usize>> = HashMap::new();
        for (pos, a) in seq.iter().enumerate() {
            for u in a.instr.uses() {
                uses.entry(u).or_default().push(pos);
            }
        }
        RegAlloc {
            free: (TEMP_POOL_START..TEMP_POOL_END).rev().collect(),
            loc: HashMap::new(),
            in_reg: BTreeMap::new(),
            uses,
            spill_base,
            spill_slots: HashMap::new(),
            next_slot: 0,
            spill_ops: 0,
        }
    }

    fn next_use(&self, t: Temp, after: usize) -> usize {
        self.uses
            .get(&t)
            .and_then(|v| v.iter().find(|&&p| p >= after))
            .copied()
            .unwrap_or(usize::MAX)
    }

    /// Grabs a register, spilling the live temp with the farthest next use
    /// if none is free. `protect` lists registers that must not be evicted
    /// (operands of the current instruction).
    fn take_reg(&mut self, pos: usize, protect: &[Reg], out: &mut Vec<Instr>) -> Reg {
        if let Some(r) = self.free.pop() {
            return r;
        }
        // Evict: farthest next use among unprotected registers.
        let victim_reg = self
            .in_reg
            .iter()
            .filter(|(r, _)| !protect.contains(r))
            .max_by_key(|(_, &t)| self.next_use(t, pos))
            .map(|(&r, _)| r)
            .expect("temp pool larger than protected set");
        let victim = self.in_reg.remove(&victim_reg).expect("victim tracked");
        // Only write the spill slot if the temp is still needed.
        if self.next_use(victim, pos) != usize::MAX {
            let slot = *self.spill_slots.entry(victim).or_insert_with(|| {
                let s = self.spill_base + self.next_slot;
                self.next_slot += 1;
                s
            });
            out.push(Instr::Store {
                rs: victim_reg,
                rb: 0,
                offset: slot,
            });
            self.spill_ops += 1;
            self.loc.insert(victim, Loc::Spilled(slot));
        } else {
            self.loc.remove(&victim);
        }
        victim_reg
    }

    /// Ensures `t` is in a register, reloading from the spill area if
    /// needed.
    fn ensure_in_reg(
        &mut self,
        t: Temp,
        pos: usize,
        protect: &[Reg],
        out: &mut Vec<Instr>,
    ) -> Result<Reg, CodegenError> {
        match self.loc.get(&t) {
            Some(&Loc::Reg(r)) => Ok(r),
            Some(&Loc::Spilled(slot)) => {
                let r = self.take_reg(pos, protect, out);
                out.push(Instr::Load {
                    rd: r,
                    rs: 0,
                    offset: slot,
                });
                self.spill_ops += 1;
                self.loc.insert(t, Loc::Reg(r));
                self.in_reg.insert(r, t);
                Ok(r)
            }
            None => Err(CodegenError::UseBeforeDef { temp: t }),
        }
    }

    /// Binds the destination temp of the instruction at `pos` to a
    /// register.
    fn define(&mut self, t: Temp, pos: usize, protect: &[Reg], out: &mut Vec<Instr>) -> Reg {
        let r = self.take_reg(pos, protect, out);
        self.loc.insert(t, Loc::Reg(r));
        self.in_reg.insert(r, t);
        r
    }

    /// Releases registers whose temps have no further uses after `pos`.
    fn expire(&mut self, pos: usize) {
        let dead: Vec<(Reg, Temp)> = self
            .in_reg
            .iter()
            .filter(|(_, &t)| self.next_use(t, pos + 1) == usize::MAX)
            .map(|(&r, &t)| (r, t))
            .collect();
        for (r, t) in dead {
            self.in_reg.remove(&r);
            self.loc.remove(&t);
            self.free.push(r);
        }
    }
}

/// Result of emitting one TAC region.
#[derive(Debug, Clone, Default)]
pub struct EmitStats {
    /// ISA instructions emitted.
    pub isa_instrs: usize,
    /// Spill stores + reloads among them.
    pub spill_ops: u64,
}

/// Generates ISA code for a full loop body (`regions` in execution order,
/// each with its barrier bit) into `builder`.
///
/// The register allocator spans all regions, since temps defined in a
/// barrier region (address arithmetic) are used in the non-barrier region.
/// `spill_base` must point at a scratch memory area private to the
/// processor.
///
/// # Errors
///
/// Returns a [`CodegenError`] on unmapped variables, non-constant division
/// or malformed TAC.
pub fn emit_regions(
    builder: &mut StreamBuilder,
    regions: &[(&[AnnotatedInstr], bool)],
    vars: &VarMap,
    spill_base: i64,
) -> Result<EmitStats, CodegenError> {
    let seq: Vec<&AnnotatedInstr> = regions
        .iter()
        .flat_map(|(instrs, _)| instrs.iter())
        .collect();
    let mut alloc = RegAlloc::new(&seq, spill_base);
    let mut stats = EmitStats::default();
    let mut pos = 0usize;
    for (instrs, barrier) in regions {
        for a in instrs.iter() {
            let mut out: Vec<Instr> = Vec::new();
            emit_one(&a.instr, pos, &mut alloc, vars, &mut out)?;
            alloc.expire(pos);
            stats.isa_instrs += out.len();
            for instr in out {
                builder.op(instr, *barrier);
            }
            pos += 1;
        }
    }
    stats.spill_ops = alloc.spill_ops;
    Ok(stats)
}

/// Operand resolved to either a register or an immediate.
enum Val {
    Reg(Reg),
    Imm(i64),
}

fn resolve(
    src: Src,
    pos: usize,
    alloc: &mut RegAlloc,
    vars: &VarMap,
    protect: &mut Vec<Reg>,
    out: &mut Vec<Instr>,
) -> Result<Val, CodegenError> {
    match src {
        Src::Const(c) => Ok(Val::Imm(c)),
        Src::Var(v) => {
            let r = vars.reg(v).ok_or(CodegenError::UnmappedVar { var: v })?;
            Ok(Val::Reg(r))
        }
        Src::Temp(t) => {
            let r = alloc.ensure_in_reg(t, pos, protect, out)?;
            protect.push(r);
            Ok(Val::Reg(r))
        }
        Src::Mem(t) => {
            let addr = alloc.ensure_in_reg(t, pos, protect, out)?;
            protect.push(addr);
            let r = alloc.take_reg(pos, protect, out);
            out.push(Instr::Load {
                rd: r,
                rs: addr,
                offset: 0,
            });
            protect.push(r);
            // The loaded value lives in a scratch register that is not
            // bound to any temp: free it again right away by pushing it
            // back AFTER the instruction is finished — handled by caller
            // convention: scratch regs are returned to the pool by expire()
            // being a no-op for them, so we must free explicitly.
            Ok(Val::Reg(r))
        }
    }
}

fn emit_one(
    instr: &TacInstr,
    pos: usize,
    alloc: &mut RegAlloc,
    vars: &VarMap,
    out: &mut Vec<Instr>,
) -> Result<(), CodegenError> {
    let mut protect: Vec<Reg> = Vec::new();
    let free_scratch = |alloc: &mut RegAlloc, protect: &[Reg]| {
        // Return scratch registers (protected but not bound to a temp and
        // not a var register) to the pool.
        for &r in protect {
            if (TEMP_POOL_START..TEMP_POOL_END).contains(&r)
                && !alloc.in_reg.contains_key(&r)
                && !alloc.free.contains(&r)
            {
                alloc.free.push(r);
            }
        }
    };
    match instr {
        TacInstr::Const { dst, value } => {
            let rd = alloc.define(*dst, pos, &protect, out);
            out.push(Instr::Li { rd, imm: *value });
        }
        TacInstr::Copy { dst, src } => {
            let v = resolve(*src, pos, alloc, vars, &mut protect, out)?;
            let rd = alloc.define(*dst, pos, &protect, out);
            match v {
                Val::Imm(c) => out.push(Instr::Li { rd, imm: c }),
                Val::Reg(rs) => out.push(Instr::Mov { rd, rs }),
            }
            free_scratch(alloc, &protect);
        }
        TacInstr::Bin { dst, op, lhs, rhs } => {
            let lv = resolve(*lhs, pos, alloc, vars, &mut protect, out)?;
            let rv = resolve(*rhs, pos, alloc, vars, &mut protect, out)?;
            let rd = alloc.define(*dst, pos, &protect, out);
            emit_bin(rd, *op, lv, rv, &mut protect, alloc, pos, out)?;
            free_scratch(alloc, &protect);
        }
        TacInstr::Store { addr, src } => {
            let v = resolve(*src, pos, alloc, vars, &mut protect, out)?;
            let rs = match v {
                Val::Reg(r) => r,
                Val::Imm(c) => {
                    let r = alloc.take_reg(pos, &protect, out);
                    out.push(Instr::Li { rd: r, imm: c });
                    protect.push(r);
                    r
                }
            };
            let ra = alloc.ensure_in_reg(*addr, pos, &protect, out)?;
            out.push(Instr::Store {
                rs,
                rb: ra,
                offset: 0,
            });
            free_scratch(alloc, &protect);
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn emit_bin(
    rd: Reg,
    op: BinOp,
    lv: Val,
    rv: Val,
    protect: &mut Vec<Reg>,
    alloc: &mut RegAlloc,
    pos: usize,
    out: &mut Vec<Instr>,
) -> Result<(), CodegenError> {
    let materialize =
        |c: i64, protect: &mut Vec<Reg>, alloc: &mut RegAlloc, out: &mut Vec<Instr>| {
            let r = alloc.take_reg(pos, protect, out);
            out.push(Instr::Li { rd: r, imm: c });
            protect.push(r);
            r
        };
    match (op, lv, rv) {
        // Constant folding.
        (BinOp::Add, Val::Imm(a), Val::Imm(b)) => out.push(Instr::Li {
            rd,
            imm: a.wrapping_add(b),
        }),
        (BinOp::Sub, Val::Imm(a), Val::Imm(b)) => out.push(Instr::Li {
            rd,
            imm: a.wrapping_sub(b),
        }),
        (BinOp::Mul, Val::Imm(a), Val::Imm(b)) => out.push(Instr::Li {
            rd,
            imm: a.wrapping_mul(b),
        }),
        (BinOp::Div, Val::Imm(a), Val::Imm(b)) => out.push(Instr::Li {
            rd,
            imm: if b == 0 { 0 } else { a.wrapping_div(b) },
        }),
        // Register-immediate forms.
        (BinOp::Add, Val::Reg(r), Val::Imm(c)) | (BinOp::Add, Val::Imm(c), Val::Reg(r)) => {
            out.push(Instr::Addi { rd, rs: r, imm: c });
        }
        (BinOp::Sub, Val::Reg(r), Val::Imm(c)) => out.push(Instr::Addi { rd, rs: r, imm: -c }),
        (BinOp::Mul, Val::Reg(r), Val::Imm(c)) | (BinOp::Mul, Val::Imm(c), Val::Reg(r)) => {
            out.push(Instr::Muli { rd, rs: r, imm: c });
        }
        (BinOp::Div, Val::Reg(r), Val::Imm(c)) => out.push(Instr::Divi { rd, rs: r, imm: c }),
        // Immediate-left subtraction needs materialization.
        (BinOp::Sub, Val::Imm(c), Val::Reg(r)) => {
            let ra = materialize(c, protect, alloc, out);
            out.push(Instr::Sub {
                rd,
                rs1: ra,
                rs2: r,
            });
        }
        (BinOp::Div, _, Val::Reg(_)) => return Err(CodegenError::DivByNonConst),
        // Register-register forms.
        (BinOp::Add, Val::Reg(a), Val::Reg(b)) => out.push(Instr::Add { rd, rs1: a, rs2: b }),
        (BinOp::Sub, Val::Reg(a), Val::Reg(b)) => out.push(Instr::Sub { rd, rs1: a, rs2: b }),
        (BinOp::Mul, Val::Reg(a), Val::Reg(b)) => out.push(Instr::Mul { rd, rs1: a, rs2: b }),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps;
    use crate::lower::{lower_body, tests::poisson_nest};
    use crate::region::RegionSplit;
    use crate::reorder::reorder;
    use fuzzy_sim::machine::{Machine, MachineConfig};
    use fuzzy_sim::program::Program;

    /// Compiles the Poisson body once (single processor, i=j=1) and runs
    /// it on the simulator, checking the relaxation arithmetic.
    fn run_poisson_once(use_reorder: bool) -> i64 {
        let nest = poisson_nest();
        let info = deps::analyze(&nest);
        let body = lower_body(&nest, &info.marked_for_carried());
        let split = if use_reorder {
            reorder(&body)
        } else {
            RegionSplit::by_marks(&body)
        };

        let mut vars = VarMap::new();
        let (k, i, j) = (VarId(0), VarId(1), VarId(2));
        vars.assign(k, 1);
        vars.assign(i, 2);
        vars.assign(j, 3);

        let mut b = StreamBuilder::new();
        b.plain(Instr::Li { rd: 1, imm: 1 }); // k
        b.plain(Instr::Li { rd: 2, imm: 1 }); // i
        b.plain(Instr::Li { rd: 3, imm: 1 }); // j
        emit_regions(
            &mut b,
            &[
                (&split.prefix, true),
                (&split.non_barrier, false),
                (&split.suffix, true),
            ],
            &vars,
            1000,
        )
        .unwrap();
        b.plain(Instr::Halt);
        let stream = b.finish().unwrap();
        let mut m = Machine::new(Program::new(vec![stream]), MachineConfig::default()).unwrap();
        // Neighbours of P[1][1] in a 4x4 array at base 0:
        // P[1][2]=8, P[1][0]=2, P[2][1]=20, P[0][1]=10 → (8+2+20+10)/4 = 10
        let at = |row: usize, col: usize| row * 4 + col;
        m.memory_mut().poke(at(1, 2), 8);
        m.memory_mut().poke(at(1, 0), 2);
        m.memory_mut().poke(at(2, 1), 20);
        m.memory_mut().poke(at(0, 1), 10);
        assert!(m.run(100_000).unwrap().is_halted());
        m.memory().peek(at(1, 1))
    }

    #[test]
    fn poisson_codegen_computes_correct_average() {
        assert_eq!(run_poisson_once(false), 10);
    }

    #[test]
    fn reordered_poisson_computes_the_same_value() {
        assert_eq!(run_poisson_once(true), 10);
    }

    #[test]
    fn unmapped_var_is_an_error() {
        let nest = poisson_nest();
        let info = deps::analyze(&nest);
        let body = lower_body(&nest, &info.marked_for_carried());
        let mut b = StreamBuilder::new();
        let err = emit_regions(&mut b, &[(&body.instrs, false)], &VarMap::new(), 1000).unwrap_err();
        assert!(matches!(err, CodegenError::UnmappedVar { .. }));
    }

    #[test]
    fn constant_folding_and_immediate_forms() {
        use crate::tac::{AnnotatedInstr, TacBody};
        // T1 = 6; T2 = 7 - T1 (imm-left sub, must materialize);
        // T3 = T2 * 3; T4 = T3 / 2; T5 = 2 + 3 (folded);
        // store results at 500/501.
        let t = Temp;
        let instrs = vec![
            AnnotatedInstr::plain(TacInstr::Const {
                dst: t(1),
                value: 6,
            }),
            AnnotatedInstr::plain(TacInstr::Bin {
                dst: t(2),
                op: BinOp::Sub,
                lhs: Src::Const(7),
                rhs: Src::Temp(t(1)),
            }),
            AnnotatedInstr::plain(TacInstr::Bin {
                dst: t(3),
                op: BinOp::Mul,
                lhs: Src::Temp(t(2)),
                rhs: Src::Const(3),
            }),
            AnnotatedInstr::plain(TacInstr::Bin {
                dst: t(4),
                op: BinOp::Div,
                lhs: Src::Temp(t(3)),
                rhs: Src::Const(2),
            }),
            AnnotatedInstr::plain(TacInstr::Bin {
                dst: t(5),
                op: BinOp::Add,
                lhs: Src::Const(2),
                rhs: Src::Const(3),
            }),
            AnnotatedInstr::plain(TacInstr::Const {
                dst: t(6),
                value: 500,
            }),
            AnnotatedInstr::plain(TacInstr::Store {
                addr: t(6),
                src: Src::Temp(t(4)),
            }),
            AnnotatedInstr::plain(TacInstr::Const {
                dst: t(7),
                value: 501,
            }),
            AnnotatedInstr::plain(TacInstr::Store {
                addr: t(7),
                src: Src::Temp(t(5)),
            }),
        ];
        let body = TacBody {
            instrs,
            next_temp: 8,
        };
        let mut b = StreamBuilder::new();
        emit_regions(&mut b, &[(&body.instrs, false)], &VarMap::new(), 1000).unwrap();
        b.plain(Instr::Halt);
        let mut m = Machine::new(
            Program::new(vec![b.finish().unwrap()]),
            MachineConfig::default(),
        )
        .unwrap();
        assert!(m.run(10_000).unwrap().is_halted());
        // (7-6)*3/2 = 1; 2+3 = 5
        assert_eq!(m.memory().peek(500), 1);
        assert_eq!(m.memory().peek(501), 5);
    }

    #[test]
    fn store_of_immediate_materializes() {
        use crate::tac::{AnnotatedInstr, TacBody};
        let body = TacBody {
            instrs: vec![
                AnnotatedInstr::plain(TacInstr::Const {
                    dst: Temp(1),
                    value: 77,
                }),
                AnnotatedInstr::plain(TacInstr::Store {
                    addr: Temp(1),
                    src: Src::Const(-9),
                }),
            ],
            next_temp: 2,
        };
        let mut b = StreamBuilder::new();
        emit_regions(&mut b, &[(&body.instrs, false)], &VarMap::new(), 1000).unwrap();
        b.plain(Instr::Halt);
        let mut m = Machine::new(
            Program::new(vec![b.finish().unwrap()]),
            MachineConfig::default(),
        )
        .unwrap();
        assert!(m.run(1000).unwrap().is_halted());
        assert_eq!(m.memory().peek(77), -9);
    }

    #[test]
    fn spilling_handles_many_live_temps() {
        // Build a body with more simultaneously-live temps than the pool:
        // 40 constants all summed at the end.
        use crate::tac::{AnnotatedInstr, TacBody};
        let n = 40usize;
        let mut instrs: Vec<AnnotatedInstr> = (0..n)
            .map(|t| {
                AnnotatedInstr::plain(TacInstr::Const {
                    dst: Temp(t + 1),
                    value: t as i64 + 1,
                })
            })
            .collect();
        let mut acc = Temp(1);
        for t in 2..=n {
            let dst = Temp(n + t);
            instrs.push(AnnotatedInstr::plain(TacInstr::Bin {
                dst,
                op: BinOp::Add,
                lhs: Src::Temp(acc),
                rhs: Src::Temp(Temp(t)),
            }));
            acc = dst;
        }
        // Store the sum at address 500.
        instrs.push(AnnotatedInstr::plain(TacInstr::Const {
            dst: Temp(999),
            value: 500,
        }));
        instrs.push(AnnotatedInstr::plain(TacInstr::Store {
            addr: Temp(999),
            src: Src::Temp(acc),
        }));
        let body = TacBody {
            instrs,
            next_temp: 1000,
        };

        let mut b = StreamBuilder::new();
        let stats = emit_regions(&mut b, &[(&body.instrs, false)], &VarMap::new(), 600).unwrap();
        assert!(stats.spill_ops > 0, "this body must force spills");
        b.plain(Instr::Halt);
        let mut m = Machine::new(
            Program::new(vec![b.finish().unwrap()]),
            MachineConfig::default(),
        )
        .unwrap();
        assert!(m.run(1_000_000).unwrap().is_halted());
        assert_eq!(m.memory().peek(500), (1..=40).sum::<i64>());
    }
}

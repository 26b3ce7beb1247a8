//! Architectural semantics.
//!
//! Two layers share one definition of "what an instruction does":
//!
//! * **Pure compute helpers** ([`exec_compute`], [`effective_addr`]) —
//!   value-in/value-out functions used by the cycle simulator's execution
//!   units, which operate on operand values captured from the register
//!   update unit (with forwarding), not on architectural state.
//! * **`step_arch` / [`ReferenceInterpreter`]** — an in-order
//!   golden model built on the same helpers. The simulator's differential
//!   tests check that out-of-order execution retires the exact
//!   architectural state this interpreter produces.
//!
//! Semantics notes (all deliberate, all total):
//! * Integer arithmetic wraps; shifts mask the amount to 6 bits.
//! * Division follows RISC-V: `x/0 = -1`, `x%0 = x`,
//!   `i64::MIN / -1 = i64::MIN` (wrapping), `i64::MIN % -1 = 0`.
//! * `fcvt.f.i` saturates and maps NaN to 0 (Rust `as` semantics).
//! * Branch targets are instruction indices; a taken target outside the
//!   program halts execution (treated as falling off the end).

use crate::instr::Instruction;
use crate::mem::DataMemory;
use crate::opcode::Opcode;
use crate::regs::{AnyReg, NUM_REGS};
use crate::units::TypeCounts;
use serde::{Deserialize, Serialize};

/// A dynamic operand or result value: integer or floating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer register value.
    Int(i64),
    /// Floating-point register value.
    Fp(f64),
}

impl Value {
    /// The integer payload; panics if this is an FP value.
    #[inline]
    pub fn as_int(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Fp(v) => panic!("expected integer value, got fp {v}"),
        }
    }

    /// The FP payload; panics if this is an integer value.
    #[inline]
    pub fn as_fp(self) -> f64 {
        match self {
            Value::Fp(v) => v,
            Value::Int(v) => panic!("expected fp value, got int {v}"),
        }
    }

    /// Raw 64-bit representation (for memory cells and ROB storage).
    #[inline]
    pub fn to_bits(self) -> u64 {
        match self {
            Value::Int(v) => v as u64,
            Value::Fp(v) => v.to_bits(),
        }
    }
}

/// Resolution of a control-flow instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchResolution {
    /// Whether the branch/jump redirects the PC.
    pub taken: bool,
    /// Next instruction index if taken (`i64` so wild `jalr` targets are
    /// representable; the front end halts on out-of-range targets).
    pub target: i64,
}

/// Result of executing a non-memory instruction's compute step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeResult {
    /// Value written to the destination register, if any.
    pub write: Option<Value>,
    /// Control-flow resolution, for branches and jumps.
    pub branch: Option<BranchResolution>,
    /// True iff this instruction halts the machine.
    pub halt: bool,
}

#[inline]
fn div_i64(a: i64, b: i64) -> i64 {
    if b == 0 {
        -1
    } else {
        a.wrapping_div(b)
    }
}

#[inline]
fn rem_i64(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        a.wrapping_rem(b)
    }
}

/// Execute the compute step of a **non-memory** instruction.
///
/// `pc` is the instruction's own index (used for return addresses and
/// relative branch targets). `src1`/`src2` are the operand values the
/// scheduler captured; they must match the opcode's operand spec.
///
/// # Panics
/// Panics if called on a memory opcode (`lw`/`sw`/`flw`/`fsw`) — those go
/// through [`effective_addr`] plus [`DataMemory`] — or if operand value
/// kinds mismatch the opcode.
pub fn exec_compute(
    opcode: Opcode,
    src1: Option<Value>,
    src2: Option<Value>,
    imm: i32,
    pc: u64,
) -> ComputeResult {
    use Opcode::*;
    let out = |v: Value| ComputeResult {
        write: Some(v),
        branch: None,
        halt: false,
    };
    let none = ComputeResult {
        write: None,
        branch: None,
        halt: false,
    };
    let a = || src1.expect("missing src1").as_int();
    let b = || src2.expect("missing src2").as_int();
    let fa = || src1.expect("missing src1").as_fp();
    let fb = || src2.expect("missing src2").as_fp();
    let br = |taken: bool, target: i64| ComputeResult {
        write: None,
        branch: Some(BranchResolution { taken, target }),
        halt: false,
    };
    match opcode {
        Nop => none,
        Halt => ComputeResult {
            write: None,
            branch: None,
            halt: true,
        },
        Add => out(Value::Int(a().wrapping_add(b()))),
        Sub => out(Value::Int(a().wrapping_sub(b()))),
        And => out(Value::Int(a() & b())),
        Or => out(Value::Int(a() | b())),
        Xor => out(Value::Int(a() ^ b())),
        Sll => out(Value::Int(a().wrapping_shl(b() as u32 & 63))),
        Srl => out(Value::Int(((a() as u64) >> (b() as u32 & 63)) as i64)),
        Sra => out(Value::Int(a() >> (b() as u32 & 63))),
        Slt => out(Value::Int((a() < b()) as i64)),
        Addi => out(Value::Int(a().wrapping_add(imm as i64))),
        Andi => out(Value::Int(a() & imm as i64)),
        Ori => out(Value::Int(a() | imm as i64)),
        Xori => out(Value::Int(a() ^ imm as i64)),
        Slti => out(Value::Int((a() < imm as i64) as i64)),
        Lui => out(Value::Int((imm as i64) << 16)),
        Beq => br(a() == b(), pc as i64 + imm as i64),
        Bne => br(a() != b(), pc as i64 + imm as i64),
        Blt => br(a() < b(), pc as i64 + imm as i64),
        Bge => br(a() >= b(), pc as i64 + imm as i64),
        Jal => ComputeResult {
            write: Some(Value::Int(pc as i64 + 1)),
            branch: Some(BranchResolution {
                taken: true,
                target: pc as i64 + imm as i64,
            }),
            halt: false,
        },
        Jalr => ComputeResult {
            write: Some(Value::Int(pc as i64 + 1)),
            branch: Some(BranchResolution {
                taken: true,
                target: a().wrapping_add(imm as i64),
            }),
            halt: false,
        },
        Mul => out(Value::Int(a().wrapping_mul(b()))),
        Mulh => out(Value::Int(((a() as i128 * b() as i128) >> 64) as i64)),
        Div => out(Value::Int(div_i64(a(), b()))),
        Rem => out(Value::Int(rem_i64(a(), b()))),
        Lw | Sw | Flw | Fsw => panic!("memory opcode {opcode} passed to exec_compute"),
        Fadd => out(Value::Fp(fa() + fb())),
        Fsub => out(Value::Fp(fa() - fb())),
        Fmin => out(Value::Fp(fa().min(fb()))),
        Fmax => out(Value::Fp(fa().max(fb()))),
        Fabs => out(Value::Fp(fa().abs())),
        Fneg => out(Value::Fp(-fa())),
        Fcmplt => out(Value::Int((fa() < fb()) as i64)),
        Fcmple => out(Value::Int((fa() <= fb()) as i64)),
        Fcvtif => out(Value::Fp(a() as f64)),
        Fcvtfi => out(Value::Int(fa() as i64)),
        Fmul => out(Value::Fp(fa() * fb())),
        Fdiv => out(Value::Fp(fa() / fb())),
        Fsqrt => out(Value::Fp(fa().sqrt())),
    }
}

/// Effective (word) address of a memory instruction: `base + imm`.
#[inline]
pub fn effective_addr(base: Value, imm: i32) -> i64 {
    base.as_int().wrapping_add(imm as i64)
}

/// Architectural register state plus the program counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchState {
    /// Program counter: an instruction index.
    pub pc: u64,
    iregs: [i64; NUM_REGS],
    fregs: [f64; NUM_REGS],
}

impl Default for ArchState {
    fn default() -> Self {
        ArchState::new()
    }
}

impl ArchState {
    /// Fresh state: PC 0, all registers zero.
    pub fn new() -> ArchState {
        ArchState {
            pc: 0,
            iregs: [0; NUM_REGS],
            fregs: [0.0; NUM_REGS],
        }
    }

    /// Read a register of either file (r0 reads 0).
    #[inline]
    pub fn read(&self, r: AnyReg) -> Value {
        match r {
            AnyReg::Int(r) => Value::Int(if r.is_zero() {
                0
            } else {
                self.iregs[r.num() as usize]
            }),
            AnyReg::Fp(r) => Value::Fp(self.fregs[r.num() as usize]),
        }
    }

    /// Write a register of either file (writes to r0 are discarded).
    #[inline]
    pub fn write(&mut self, r: AnyReg, v: Value) {
        match r {
            AnyReg::Int(r) => {
                if !r.is_zero() {
                    self.iregs[r.num() as usize] = v.as_int();
                }
            }
            AnyReg::Fp(r) => self.fregs[r.num() as usize] = v.as_fp(),
        }
    }

    /// The integer register file (r0 forced to 0).
    pub fn iregs(&self) -> [i64; NUM_REGS] {
        let mut r = self.iregs;
        r[0] = 0;
        r
    }

    /// The FP register file.
    pub fn fregs(&self) -> &[f64; NUM_REGS] {
        &self.fregs
    }
}

/// What one architectural step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecOutcome {
    /// Executed normally; PC advanced (possibly via a taken branch).
    Continue,
    /// A `halt` executed, or control flow left the program.
    Halted,
}

/// In-order golden-model interpreter.
///
/// Executes one instruction per [`ReferenceInterpreter::step`] against an
/// [`ArchState`] and a [`DataMemory`], recording the retired-instruction
/// mix. The cycle simulator is differentially tested against this model.
#[derive(Debug, Clone)]
pub struct ReferenceInterpreter {
    /// Architectural state.
    pub state: ArchState,
    /// Data memory.
    pub mem: DataMemory,
    /// Number of instructions retired so far.
    pub retired: u64,
    /// Retired-instruction mix per functional-unit type (the demand
    /// signature the steering unit ultimately chases).
    pub mix: TypeCounts,
    halted: bool,
}

impl ReferenceInterpreter {
    /// New interpreter over `mem`.
    pub fn new(mem: DataMemory) -> ReferenceInterpreter {
        ReferenceInterpreter {
            state: ArchState::new(),
            mem,
            retired: 0,
            mix: TypeCounts::ZERO,
            halted: false,
        }
    }

    /// True once a halt (or fall-off-the-end) has occurred.
    #[inline]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Execute the instruction at the current PC out of `prog`.
    pub fn step(&mut self, prog: &[Instruction]) -> ExecOutcome {
        if self.halted {
            return ExecOutcome::Halted;
        }
        let Some(instr) = prog.get(self.state.pc as usize) else {
            self.halted = true;
            return ExecOutcome::Halted;
        };
        let outcome = step_arch(&mut self.state, &mut self.mem, instr);
        self.retired += 1;
        if self.mix.get(instr.unit_type()) < u8::MAX {
            self.mix.add(instr.unit_type(), 1);
        }
        if outcome == ExecOutcome::Halted || self.state.pc as usize >= prog.len() {
            self.halted = true;
            ExecOutcome::Halted
        } else {
            ExecOutcome::Continue
        }
    }

    /// Run until halt or until `max_steps` instructions have retired.
    /// Returns `Halted` if the program stopped, `Continue` if the budget
    /// ran out first.
    pub fn run(&mut self, prog: &[Instruction], max_steps: u64) -> ExecOutcome {
        for _ in 0..max_steps {
            if self.step(prog) == ExecOutcome::Halted {
                return ExecOutcome::Halted;
            }
        }
        if self.halted {
            ExecOutcome::Halted
        } else {
            ExecOutcome::Continue
        }
    }
}

/// Execute one instruction against architectural state: the shared
/// building block of the interpreter. Updates `state.pc`.
pub(crate) fn step_arch(
    state: &mut ArchState,
    mem: &mut DataMemory,
    instr: &Instruction,
) -> ExecOutcome {
    let pc = state.pc;
    if instr.opcode.is_memory() {
        let base = state.read(instr.src1.expect("memory op needs base"));
        let addr = effective_addr(base, instr.imm);
        match instr.opcode {
            Opcode::Lw => {
                let v = Value::Int(mem.load_int(addr));
                state.write(instr.dest.unwrap(), v);
            }
            Opcode::Flw => {
                let v = Value::Fp(mem.load_fp(addr));
                state.write(instr.dest.unwrap(), v);
            }
            Opcode::Sw => mem.store_int(addr, state.read(instr.src2.unwrap()).as_int()),
            Opcode::Fsw => mem.store_fp(addr, state.read(instr.src2.unwrap()).as_fp()),
            _ => unreachable!(),
        }
        state.pc = pc + 1;
        return ExecOutcome::Continue;
    }

    let s1 = instr.src1.map(|r| state.read(r));
    let s2 = instr.src2.map(|r| state.read(r));
    let res = exec_compute(instr.opcode, s1, s2, instr.imm, pc);
    if let (Some(dest), Some(v)) = (instr.dest, res.write) {
        state.write(dest, v);
    }
    if res.halt {
        return ExecOutcome::Halted;
    }
    match res.branch {
        Some(BranchResolution {
            taken: true,
            target,
        }) => {
            if target < 0 {
                return ExecOutcome::Halted;
            }
            state.pc = target as u64;
        }
        _ => state.pc = pc + 1,
    }
    ExecOutcome::Continue
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::{FReg, IReg};
    use crate::units::UnitType;

    fn r(n: u8) -> IReg {
        IReg::new(n)
    }
    fn fr(n: u8) -> FReg {
        FReg::new(n)
    }

    fn run(prog: Vec<Instruction>) -> ReferenceInterpreter {
        let mut interp = ReferenceInterpreter::new(DataMemory::new(64));
        let out = interp.run(&prog, 10_000);
        assert_eq!(out, ExecOutcome::Halted, "program did not halt");
        interp
    }

    #[test]
    fn arithmetic_and_halt() {
        let interp = run(vec![
            Instruction::rri(Opcode::Addi, r(1), r(0), 6),
            Instruction::rri(Opcode::Addi, r(2), r(0), 7),
            Instruction::rrr(Opcode::Mul, r(3), r(1), r(2)),
            Instruction::rrr(Opcode::Sub, r(4), r(3), r(1)),
            Instruction::HALT,
        ]);
        assert_eq!(interp.state.iregs()[3], 42);
        assert_eq!(interp.state.iregs()[4], 36);
        assert_eq!(interp.retired, 5);
    }

    #[test]
    fn loop_sums_one_to_ten() {
        // r1 = counter, r2 = sum
        let prog = vec![
            Instruction::rri(Opcode::Addi, r(1), r(0), 10),
            Instruction::rrr(Opcode::Add, r(2), r(2), r(1)), // loop:
            Instruction::rri(Opcode::Addi, r(1), r(1), -1),
            Instruction::branch(Opcode::Bne, r(1), r(0), -2),
            Instruction::HALT,
        ];
        let interp = run(prog);
        assert_eq!(interp.state.iregs()[2], 55);
    }

    #[test]
    fn memory_roundtrip_and_fp() {
        let prog = vec![
            Instruction::rri(Opcode::Addi, r(1), r(0), 9),
            Instruction::fcvt_if(fr(1), r(1)), // f1 = 9.0
            Instruction::ff(Opcode::Fsqrt, fr(2), fr(1)), // f2 = 3.0
            Instruction::fsw(fr(2), r(0), 5),  // mem[5] = 3.0
            Instruction::flw(fr(3), r(0), 5),  // f3 = 3.0
            Instruction::fff(Opcode::Fmul, fr(4), fr(3), fr(3)), // f4 = 9.0
            Instruction::fcvt_fi(r(2), fr(4)), // r2 = 9
            Instruction::HALT,
        ];
        let interp = run(prog);
        assert_eq!(interp.state.iregs()[2], 9);
        assert_eq!(interp.mem.load_fp(5), 3.0);
    }

    #[test]
    fn division_edge_cases() {
        assert_eq!(
            exec_compute(Opcode::Div, Some(Value::Int(7)), Some(Value::Int(0)), 0, 0)
                .write
                .unwrap()
                .as_int(),
            -1
        );
        assert_eq!(
            exec_compute(Opcode::Rem, Some(Value::Int(7)), Some(Value::Int(0)), 0, 0)
                .write
                .unwrap()
                .as_int(),
            7
        );
        assert_eq!(
            exec_compute(
                Opcode::Div,
                Some(Value::Int(i64::MIN)),
                Some(Value::Int(-1)),
                0,
                0
            )
            .write
            .unwrap()
            .as_int(),
            i64::MIN
        );
    }

    #[test]
    fn jal_and_jalr() {
        // jal r31, +2 skips the halt at index 1; jalr jumps back to it.
        let prog = vec![
            Instruction::jal(r(31), 2),
            Instruction::HALT, // index 1: landed on by jalr
            Instruction::rri(Opcode::Addi, r(5), r(0), 1),
            Instruction::jalr(r(0), r(31), 0), // r31 == 1
        ];
        let interp = run(prog);
        assert_eq!(interp.state.iregs()[5], 1);
        assert_eq!(interp.state.iregs()[31], 1);
    }

    #[test]
    fn fall_off_end_halts() {
        let mut interp = ReferenceInterpreter::new(DataMemory::new(8));
        let prog = vec![Instruction::rri(Opcode::Addi, r(1), r(0), 1)];
        assert_eq!(interp.run(&prog, 100), ExecOutcome::Halted);
        assert_eq!(interp.retired, 1);
        assert!(interp.halted());
    }

    #[test]
    fn negative_jalr_target_halts() {
        let prog = vec![
            Instruction::rri(Opcode::Addi, r(1), r(0), -5),
            Instruction::jalr(r(0), r(1), 0),
            Instruction::rri(Opcode::Addi, r(2), r(0), 1),
        ];
        let interp = run(prog);
        assert_eq!(interp.state.iregs()[2], 0, "must halt before index 2");
    }

    #[test]
    fn mix_is_recorded() {
        let interp = run(vec![
            Instruction::rri(Opcode::Addi, r(1), r(0), 2),
            Instruction::rrr(Opcode::Mul, r(2), r(1), r(1)),
            Instruction::lw(r(3), r(0), 0),
            Instruction::HALT,
        ]);
        assert_eq!(interp.mix.get(UnitType::IntAlu), 2); // addi + halt
        assert_eq!(interp.mix.get(UnitType::IntMdu), 1);
        assert_eq!(interp.mix.get(UnitType::Lsu), 1);
    }

    #[test]
    fn shifts_mask_amount() {
        let v = exec_compute(
            Opcode::Sll,
            Some(Value::Int(1)),
            Some(Value::Int(64 + 3)),
            0,
            0,
        );
        assert_eq!(v.write.unwrap().as_int(), 8);
        let v = exec_compute(
            Opcode::Srl,
            Some(Value::Int(-1)),
            Some(Value::Int(60)),
            0,
            0,
        );
        assert_eq!(v.write.unwrap().as_int(), 0xf);
        let v = exec_compute(
            Opcode::Sra,
            Some(Value::Int(-16)),
            Some(Value::Int(2)),
            0,
            0,
        );
        assert_eq!(v.write.unwrap().as_int(), -4);
    }

    #[test]
    #[should_panic]
    fn memory_op_rejected_by_exec_compute() {
        let _ = exec_compute(Opcode::Lw, Some(Value::Int(0)), None, 0, 0);
    }

    #[test]
    fn write_to_r0_discarded() {
        let mut s = ArchState::new();
        s.write(AnyReg::Int(r(0)), Value::Int(99));
        assert_eq!(s.read(AnyReg::Int(r(0))).as_int(), 0);
    }
}

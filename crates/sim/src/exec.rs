//! Issue-time execution: operand forwarding and result computation.
//!
//! When the scheduler grants an entry, its operands are — by wake-up
//! construction — available: each producer has either completed (its
//! pending value sits in its register-update-unit entry) or retired (its
//! value is in the committed register file). `operand_value` implements
//! that forwarding; [`execute`] computes the result using the same
//! semantics module (`rsp_isa::semantics`) as the golden-model
//! interpreter, so the pipeline cannot diverge from the reference on
//! instruction behaviour, only on timing.

use crate::rob::{Rob, Seq};
use rsp_isa::mem::DataMemory;
use rsp_isa::regs::AnyReg;
use rsp_isa::semantics::{effective_addr, exec_compute, ArchState, Value};
use rsp_isa::{Instruction, Opcode};

/// Read one operand: forwarded from an in-flight producer if the
/// dependency-buffer snapshot names one that is still in the unit,
/// otherwise from the committed register file.
pub(crate) fn operand_value(
    rob: &Rob,
    regfile: &ArchState,
    reg: AnyReg,
    producer: Option<Seq>,
) -> Value {
    if let Some(seq) = producer {
        if let Some(e) = rob.get(seq) {
            return e
                .value
                .expect("wake-up logic granted a consumer before its producer's result");
        }
    }
    regfile.read(reg)
}

/// Result of executing one instruction at issue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Issued {
    /// Pending destination value (written back at retirement).
    pub value: Option<Value>,
    /// Actual next PC (`None` = control flow left the program, i.e.
    /// architectural halt).
    pub resolved_next: Option<u64>,
    /// True iff this is the `halt` instruction.
    pub halt: bool,
}

/// Execute `instr` (any opcode) with already-resolved operand values.
/// Memory operations access `mem` here — they are only issued in program
/// order and non-speculatively, so the access is architecturally final.
pub fn execute(
    instr: &Instruction,
    pc: u64,
    src1: Option<Value>,
    src2: Option<Value>,
    mem: &mut DataMemory,
) -> Issued {
    if instr.opcode.is_memory() {
        let addr = effective_addr(src1.expect("memory op needs a base"), instr.imm);
        let value = match instr.opcode {
            Opcode::Lw => Some(Value::Int(mem.load_int(addr))),
            Opcode::Flw => Some(Value::Fp(mem.load_fp(addr))),
            Opcode::Sw => {
                mem.store_int(addr, src2.expect("store needs data").as_int());
                None
            }
            Opcode::Fsw => {
                mem.store_fp(addr, src2.expect("store needs data").as_fp());
                None
            }
            _ => unreachable!(),
        };
        return Issued {
            value,
            resolved_next: Some(pc + 1),
            halt: false,
        };
    }

    let r = exec_compute(instr.opcode, src1, src2, instr.imm, pc);
    let resolved_next = if r.halt {
        None
    } else {
        match r.branch {
            Some(b) if b.taken => {
                if b.target < 0 {
                    None // jump out of the program: architectural halt
                } else {
                    Some(b.target as u64)
                }
            }
            _ => Some(pc + 1),
        }
    };
    Issued {
        value: r.write,
        resolved_next,
        halt: r.halt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rob::{fetched, Stage};
    use rsp_isa::regs::IReg;

    fn r(n: u8) -> IReg {
        IReg::new(n)
    }

    #[test]
    fn forwarding_prefers_in_flight_producer() {
        let mut rob = Rob::new(4);
        let a = rob.dispatch(
            &fetched(0, Instruction::rri(Opcode::Addi, r(1), r(0), 5)),
            0,
        );
        rob.get_mut(a).unwrap().value = Some(Value::Int(5));
        rob.get_mut(a).unwrap().stage = Stage::Completed;
        let mut regfile = ArchState::new();
        regfile.write(AnyReg::Int(r(1)), Value::Int(99)); // stale committed value
        let v = operand_value(&rob, &regfile, AnyReg::Int(r(1)), Some(a));
        assert_eq!(v.as_int(), 5, "must forward, not read stale regfile");
        // After retirement the committed file is authoritative.
        rob.retire_head();
        regfile.write(AnyReg::Int(r(1)), Value::Int(5));
        let v = operand_value(&rob, &regfile, AnyReg::Int(r(1)), Some(a));
        assert_eq!(v.as_int(), 5);
    }

    #[test]
    fn execute_straight_line() {
        let mut mem = DataMemory::new(8);
        let i = Instruction::rrr(Opcode::Add, r(1), r(2), r(3));
        let out = execute(&i, 7, Some(Value::Int(2)), Some(Value::Int(3)), &mut mem);
        assert_eq!(out.value, Some(Value::Int(5)));
        assert_eq!(out.resolved_next, Some(8));
        assert!(!out.halt);
    }

    #[test]
    fn execute_memory_ops() {
        let mut mem = DataMemory::new(8);
        let sw = Instruction::sw(r(2), r(1), 1);
        let out = execute(&sw, 0, Some(Value::Int(3)), Some(Value::Int(42)), &mut mem);
        assert_eq!(out.value, None);
        assert_eq!(mem.load_int(4), 42);
        let lw = Instruction::lw(r(5), r(1), 1);
        let out = execute(&lw, 1, Some(Value::Int(3)), None, &mut mem);
        assert_eq!(out.value, Some(Value::Int(42)));
    }

    #[test]
    fn branch_resolution() {
        let mut mem = DataMemory::new(8);
        let b = Instruction::branch(Opcode::Beq, r(1), r(2), 5);
        let taken = execute(&b, 10, Some(Value::Int(1)), Some(Value::Int(1)), &mut mem);
        assert_eq!(taken.resolved_next, Some(15));
        let not = execute(&b, 10, Some(Value::Int(1)), Some(Value::Int(2)), &mut mem);
        assert_eq!(not.resolved_next, Some(11));
    }

    #[test]
    fn halt_and_negative_target() {
        let mut mem = DataMemory::new(8);
        let out = execute(&Instruction::HALT, 3, None, None, &mut mem);
        assert!(out.halt);
        assert_eq!(out.resolved_next, None);
        let j = Instruction::jalr(r(0), r(1), 0);
        let out = execute(&j, 3, Some(Value::Int(-9)), None, &mut mem);
        assert_eq!(out.resolved_next, None, "negative target halts");
        let out = execute(&j, 3, Some(Value::Int(1)), None, &mut mem);
        assert_eq!(out.resolved_next, Some(1));
    }
}

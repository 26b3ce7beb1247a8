//! Opcodes, their functional-unit types, latency classes, and operand
//! specifications.
//!
//! The paper assumes a RISC ISA in which every instruction is executed by
//! exactly one of the five functional-unit types. [`Opcode::unit_type`]
//! is that mapping; it is the signal the unit decoders of the
//! configuration selection unit (Fig. 2) extract from each queued
//! instruction.

use crate::units::UnitType;
use serde::{Deserialize, Serialize};

/// Every opcode of the ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Opcode {
    // --- Int-ALU ---
    Nop,
    Halt,
    Add,
    Sub,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    Slt,
    Addi,
    Andi,
    Ori,
    Xori,
    Slti,
    Lui,
    Beq,
    Bne,
    Blt,
    Bge,
    Jal,
    Jalr,
    // --- Int-MDU ---
    Mul,
    Mulh,
    Div,
    Rem,
    // --- LSU ---
    Lw,
    Sw,
    Flw,
    Fsw,
    // --- FP-ALU ---
    Fadd,
    Fsub,
    Fmin,
    Fmax,
    Fabs,
    Fneg,
    Fcmplt,
    Fcmple,
    Fcvtif,
    Fcvtfi,
    // --- FP-MDU ---
    Fmul,
    Fdiv,
    Fsqrt,
}

/// Latency class of an opcode. The simulator configures one latency per
/// class (DESIGN.md §5); classes rather than per-opcode latencies keep the
/// configuration surface small while still distinguishing the multicycle
/// operations that make busy-RFU skipping matter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum LatencyClass {
    IntAlu,
    IntMul,
    IntDiv,
    Load,
    Store,
    FpAlu,
    FpMul,
    FpDiv,
}

/// Which register file (if any) each operand field of an opcode uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RegFile {
    /// No operand in this position.
    None,
    /// Integer register file.
    Int,
    /// Floating-point register file.
    Fp,
}

/// Operand specification of an opcode: register files for `dest`, `src1`,
/// `src2` and whether an immediate is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OperandSpec {
    /// Destination register file.
    pub dest: RegFile,
    /// First source register file.
    pub src1: RegFile,
    /// Second source register file.
    pub src2: RegFile,
    /// Whether the instruction carries an immediate.
    pub has_imm: bool,
}

const fn spec(dest: RegFile, src1: RegFile, src2: RegFile, has_imm: bool) -> OperandSpec {
    OperandSpec {
        dest,
        src1,
        src2,
        has_imm,
    }
}

impl Opcode {
    /// All opcodes, in encoding order.
    pub const ALL: [Opcode; 44] = [
        Opcode::Nop,
        Opcode::Halt,
        Opcode::Add,
        Opcode::Sub,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Sll,
        Opcode::Srl,
        Opcode::Sra,
        Opcode::Slt,
        Opcode::Addi,
        Opcode::Andi,
        Opcode::Ori,
        Opcode::Xori,
        Opcode::Slti,
        Opcode::Lui,
        Opcode::Beq,
        Opcode::Bne,
        Opcode::Blt,
        Opcode::Bge,
        Opcode::Jal,
        Opcode::Jalr,
        Opcode::Mul,
        Opcode::Mulh,
        Opcode::Div,
        Opcode::Rem,
        Opcode::Lw,
        Opcode::Sw,
        Opcode::Flw,
        Opcode::Fsw,
        Opcode::Fadd,
        Opcode::Fsub,
        Opcode::Fmin,
        Opcode::Fmax,
        Opcode::Fabs,
        Opcode::Fneg,
        Opcode::Fcmplt,
        Opcode::Fcmple,
        Opcode::Fcvtif,
        Opcode::Fcvtfi,
        Opcode::Fmul,
        Opcode::Fdiv,
        Opcode::Fsqrt,
    ];

    /// The functional-unit type that executes this opcode (the paper's
    /// one-instruction/one-unit-type assumption).
    #[inline]
    pub const fn unit_type(self) -> UnitType {
        use Opcode::*;
        match self {
            Nop | Halt | Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt | Addi | Andi | Ori
            | Xori | Slti | Lui | Beq | Bne | Blt | Bge | Jal | Jalr => UnitType::IntAlu,
            Mul | Mulh | Div | Rem => UnitType::IntMdu,
            Lw | Sw | Flw | Fsw => UnitType::Lsu,
            Fadd | Fsub | Fmin | Fmax | Fabs | Fneg | Fcmplt | Fcmple | Fcvtif | Fcvtfi => {
                UnitType::FpAlu
            }
            Fmul | Fdiv | Fsqrt => UnitType::FpMdu,
        }
    }

    /// Latency class used to look up this opcode's execution latency.
    #[inline]
    pub const fn latency_class(self) -> LatencyClass {
        use Opcode::*;
        match self {
            Mul | Mulh => LatencyClass::IntMul,
            Div | Rem => LatencyClass::IntDiv,
            Lw | Flw => LatencyClass::Load,
            Sw | Fsw => LatencyClass::Store,
            Fadd | Fsub | Fmin | Fmax | Fabs | Fneg | Fcmplt | Fcmple | Fcvtif | Fcvtfi => {
                LatencyClass::FpAlu
            }
            Fmul => LatencyClass::FpMul,
            Fdiv | Fsqrt => LatencyClass::FpDiv,
            _ => LatencyClass::IntAlu,
        }
    }

    /// Operand specification of this opcode.
    pub(crate) const fn operand_spec(self) -> OperandSpec {
        use Opcode::*;
        use RegFile::*;
        match self {
            Nop | Halt => spec(None, None, None, false),
            Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt | Mul | Mulh | Div | Rem => {
                spec(Int, Int, Int, false)
            }
            Addi | Andi | Ori | Xori | Slti => spec(Int, Int, None, true),
            Lui => spec(Int, None, None, true),
            Beq | Bne | Blt | Bge => spec(None, Int, Int, true),
            Jal => spec(Int, None, None, true),
            Jalr => spec(Int, Int, None, true),
            Lw => spec(Int, Int, None, true),
            Sw => spec(None, Int, Int, true),
            Flw => spec(Fp, Int, None, true),
            Fsw => spec(None, Int, Fp, true),
            Fadd | Fsub | Fmin | Fmax | Fmul | Fdiv => spec(Fp, Fp, Fp, false),
            Fabs | Fneg | Fsqrt => spec(Fp, Fp, None, false),
            Fcmplt | Fcmple => spec(Int, Fp, Fp, false),
            Fcvtif => spec(Fp, Int, None, false),
            Fcvtfi => spec(Int, Fp, None, false),
        }
    }

    /// Width in bits of this opcode's signed immediate field in the
    /// 32-bit instruction word. Opcodes whose only operands are a
    /// destination and an immediate (`lui`, `jal`) get the wide 21-bit
    /// field; all other immediate-carrying opcodes get 11 bits.
    #[inline]
    pub(crate) const fn imm_bits(self) -> u32 {
        match self {
            Opcode::Lui | Opcode::Jal => 21,
            _ => 11,
        }
    }

    /// Inclusive range of encodable immediates for this opcode.
    #[inline]
    pub(crate) const fn imm_range(self) -> (i32, i32) {
        let b = self.imm_bits();
        (-(1 << (b - 1)), (1 << (b - 1)) - 1)
    }

    /// True for conditional branches and unconditional jumps — the
    /// instructions that can redirect the program counter.
    #[inline]
    pub const fn is_control_flow(self) -> bool {
        matches!(
            self,
            Opcode::Beq | Opcode::Bne | Opcode::Blt | Opcode::Bge | Opcode::Jal | Opcode::Jalr
        )
    }

    /// True for conditional branches only.
    #[inline]
    pub const fn is_conditional_branch(self) -> bool {
        matches!(self, Opcode::Beq | Opcode::Bne | Opcode::Blt | Opcode::Bge)
    }

    /// True for memory accesses.
    #[inline]
    pub const fn is_memory(self) -> bool {
        matches!(self, Opcode::Lw | Opcode::Sw | Opcode::Flw | Opcode::Fsw)
    }

    /// True for stores (memory writes).
    #[inline]
    pub(crate) const fn is_store(self) -> bool {
        matches!(self, Opcode::Sw | Opcode::Fsw)
    }

    /// The 6-bit binary encoding of this opcode (its position in
    /// [`Opcode::ALL`]).
    #[inline]
    pub(crate) fn encoding(self) -> u8 {
        Opcode::ALL.iter().position(|&o| o == self).unwrap() as u8
    }

    /// Decode a 6-bit opcode field.
    #[inline]
    pub(crate) fn from_encoding(bits: u8) -> Option<Opcode> {
        Opcode::ALL.get(bits as usize).copied()
    }

    /// Assembly mnemonic.
    pub(crate) const fn mnemonic(self) -> &'static str {
        use Opcode::*;
        match self {
            Nop => "nop",
            Halt => "halt",
            Add => "add",
            Sub => "sub",
            And => "and",
            Or => "or",
            Xor => "xor",
            Sll => "sll",
            Srl => "srl",
            Sra => "sra",
            Slt => "slt",
            Addi => "addi",
            Andi => "andi",
            Ori => "ori",
            Xori => "xori",
            Slti => "slti",
            Lui => "lui",
            Beq => "beq",
            Bne => "bne",
            Blt => "blt",
            Bge => "bge",
            Jal => "jal",
            Jalr => "jalr",
            Mul => "mul",
            Mulh => "mulh",
            Div => "div",
            Rem => "rem",
            Lw => "lw",
            Sw => "sw",
            Flw => "flw",
            Fsw => "fsw",
            Fadd => "fadd",
            Fsub => "fsub",
            Fmin => "fmin",
            Fmax => "fmax",
            Fabs => "fabs",
            Fneg => "fneg",
            Fcmplt => "fcmplt",
            Fcmple => "fcmple",
            Fcvtif => "fcvt.i.f",
            Fcvtfi => "fcvt.f.i",
            Fmul => "fmul",
            Fdiv => "fdiv",
            Fsqrt => "fsqrt",
        }
    }

    /// Inverse of [`Opcode::mnemonic`].
    pub(crate) fn from_mnemonic(s: &str) -> Option<Opcode> {
        Opcode::ALL.iter().copied().find(|o| o.mnemonic() == s)
    }
}

impl std::fmt::Display for Opcode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_exhaustive_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for &op in &Opcode::ALL {
            assert!(seen.insert(op), "duplicate {op:?} in ALL");
        }
        // ALL.len() must equal the enum's variant count; encoding roundtrip
        // over every listed opcode certifies the table is self-consistent.
        for (i, &op) in Opcode::ALL.iter().enumerate() {
            assert_eq!(op.encoding() as usize, i);
            assert_eq!(Opcode::from_encoding(i as u8), Some(op));
        }
        assert_eq!(Opcode::from_encoding(Opcode::ALL.len() as u8), None);
    }

    #[test]
    fn mnemonics_roundtrip() {
        for &op in &Opcode::ALL {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op), "{op:?}");
        }
        assert_eq!(Opcode::from_mnemonic("bogus"), None);
    }

    #[test]
    fn every_unit_type_has_opcodes() {
        for &t in &UnitType::ALL {
            assert!(
                Opcode::ALL.iter().any(|o| o.unit_type() == t),
                "no opcode for {t}"
            );
        }
    }

    #[test]
    fn unit_type_examples() {
        assert_eq!(Opcode::Add.unit_type(), UnitType::IntAlu);
        assert_eq!(Opcode::Mul.unit_type(), UnitType::IntMdu);
        assert_eq!(Opcode::Lw.unit_type(), UnitType::Lsu);
        assert_eq!(Opcode::Fadd.unit_type(), UnitType::FpAlu);
        assert_eq!(Opcode::Fdiv.unit_type(), UnitType::FpMdu);
        // FP loads/stores go to the LSU, not the FP units.
        assert_eq!(Opcode::Flw.unit_type(), UnitType::Lsu);
        assert_eq!(Opcode::Fsw.unit_type(), UnitType::Lsu);
    }

    #[test]
    fn latency_classes() {
        assert_eq!(Opcode::Add.latency_class(), LatencyClass::IntAlu);
        assert_eq!(Opcode::Beq.latency_class(), LatencyClass::IntAlu);
        assert_eq!(Opcode::Mul.latency_class(), LatencyClass::IntMul);
        assert_eq!(Opcode::Rem.latency_class(), LatencyClass::IntDiv);
        assert_eq!(Opcode::Flw.latency_class(), LatencyClass::Load);
        assert_eq!(Opcode::Fsw.latency_class(), LatencyClass::Store);
        assert_eq!(Opcode::Fsqrt.latency_class(), LatencyClass::FpDiv);
    }

    #[test]
    fn classifications() {
        assert!(Opcode::Beq.is_control_flow());
        assert!(Opcode::Beq.is_conditional_branch());
        assert!(Opcode::Jal.is_control_flow());
        assert!(!Opcode::Jal.is_conditional_branch());
        assert!(Opcode::Sw.is_memory() && Opcode::Sw.is_store());
        assert!(Opcode::Lw.is_memory() && !Opcode::Lw.is_store());
        assert!(!Opcode::Add.is_memory());
    }

    #[test]
    fn operand_specs_are_sane() {
        // Stores and branches have no destination.
        for op in [
            Opcode::Sw,
            Opcode::Fsw,
            Opcode::Beq,
            Opcode::Bne,
            Opcode::Blt,
            Opcode::Bge,
        ] {
            assert_eq!(op.operand_spec().dest, RegFile::None, "{op:?}");
        }
        // FP arithmetic reads/writes FP registers.
        let s = Opcode::Fadd.operand_spec();
        assert_eq!(
            (s.dest, s.src1, s.src2),
            (RegFile::Fp, RegFile::Fp, RegFile::Fp)
        );
        // FP compare writes an integer register.
        assert_eq!(Opcode::Fcmplt.operand_spec().dest, RegFile::Int);
        // Loads carry an immediate displacement.
        assert!(Opcode::Lw.operand_spec().has_imm);
        assert!(!Opcode::Add.operand_spec().has_imm);
    }
}

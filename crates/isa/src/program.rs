//! Program container and static validation.

use crate::encode::{decode, encode, DecodeError, Word};
use crate::instr::{InstrError, Instruction};
use crate::units::TypeCounts;
use serde::{Deserialize, Serialize};

/// A program: a named sequence of instructions with instruction-index
/// addressing (PC `n` is `instrs[n]`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Human-readable name (used in experiment reports).
    pub name: String,
    /// The instructions.
    pub instrs: Vec<Instruction>,
}

/// Errors from [`Program::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramError {
    /// Instruction at index is malformed.
    BadInstruction(usize, InstrError),
    /// A branch/jal at index targets an instruction outside the program.
    BranchOutOfRange {
        /// Index of the offending branch.
        at: usize,
        /// The (absolute) target it computes.
        target: i64,
    },
    /// No `halt` is reachable at the program's textual end (the last
    /// instruction neither halts nor unconditionally jumps).
    MissingTerminator,
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::BadInstruction(i, e) => write!(f, "instruction {i}: {e}"),
            ProgramError::BranchOutOfRange { at, target } => {
                write!(f, "branch at {at} targets out-of-range index {target}")
            }
            ProgramError::MissingTerminator => {
                write!(f, "program does not end in halt or an unconditional jump")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Build a program from instructions.
    pub fn new(name: impl Into<String>, instrs: Vec<Instruction>) -> Program {
        Program {
            name: name.into(),
            instrs,
        }
    }

    /// Number of instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True iff the program has no instructions. Nothing calls it; it
    /// stays beside the public [`Program::len`], as
    /// `clippy::len_without_is_empty` asks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Static per-unit-type opcode histogram (saturating per lane) — the
    /// coarse demand signature of the program text.
    pub fn static_mix(&self) -> TypeCounts {
        let mut mix = TypeCounts::ZERO;
        for i in &self.instrs {
            mix.add(i.unit_type(), 1);
        }
        mix
    }

    /// Validate every instruction, every static branch target, and the
    /// terminator convention.
    pub fn validate(&self) -> Result<(), ProgramError> {
        for (i, instr) in self.instrs.iter().enumerate() {
            instr
                .validate()
                .map_err(|e| ProgramError::BadInstruction(i, e))?;
            if instr.opcode.is_conditional_branch() || instr.opcode == crate::Opcode::Jal {
                let target = i as i64 + instr.imm as i64;
                if target < 0 || target as usize >= self.instrs.len() {
                    return Err(ProgramError::BranchOutOfRange { at: i, target });
                }
            }
        }
        match self.instrs.last() {
            Some(last)
                if last.opcode == crate::Opcode::Halt
                    || last.opcode == crate::Opcode::Jal
                    || last.opcode == crate::Opcode::Jalr =>
            {
                Ok(())
            }
            _ => Err(ProgramError::MissingTerminator),
        }
    }

    /// Assemble to binary words (the form the fetch unit consumes).
    pub fn to_words(&self) -> Vec<Word> {
        self.instrs.iter().map(encode).collect()
    }

    /// Decode a binary image back into a program.
    pub fn from_words(name: impl Into<String>, words: &[Word]) -> Result<Program, DecodeError> {
        Ok(Program {
            name: name.into(),
            instrs: words.iter().map(|&w| decode(w)).collect::<Result<_, _>>()?,
        })
    }
}

impl std::fmt::Display for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "; program: {} ({} instructions)", self.name, self.len())?;
        for (i, instr) in self.instrs.iter().enumerate() {
            writeln!(f, "{i:4}:  {instr}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::Opcode;
    use crate::regs::IReg;
    use crate::units::UnitType;

    fn r(n: u8) -> IReg {
        IReg::new(n)
    }

    fn good() -> Program {
        Program::new(
            "good",
            vec![
                Instruction::rri(Opcode::Addi, r(1), r(0), 3),
                Instruction::branch(Opcode::Bne, r(1), r(0), 1),
                Instruction::rrr(Opcode::Mul, r(2), r(1), r(1)),
                Instruction::HALT,
            ],
        )
    }

    #[test]
    fn validates_good_program() {
        assert_eq!(good().validate(), Ok(()));
    }

    #[test]
    fn detects_branch_out_of_range() {
        let mut p = good();
        p.instrs[1] = Instruction::branch(Opcode::Beq, r(0), r(0), 100);
        assert!(matches!(
            p.validate(),
            Err(ProgramError::BranchOutOfRange { at: 1, target: 101 })
        ));
        p.instrs[1] = Instruction::branch(Opcode::Beq, r(0), r(0), -5);
        assert!(matches!(
            p.validate(),
            Err(ProgramError::BranchOutOfRange { at: 1, target: -4 })
        ));
    }

    #[test]
    fn detects_missing_terminator() {
        let p = Program::new("bad", vec![Instruction::rri(Opcode::Addi, r(1), r(0), 3)]);
        assert_eq!(p.validate(), Err(ProgramError::MissingTerminator));
        let p = Program::new("empty", vec![]);
        assert_eq!(p.validate(), Err(ProgramError::MissingTerminator));
    }

    #[test]
    fn detects_bad_instruction() {
        let mut p = good();
        p.instrs[0].imm = 1 << 20;
        assert!(matches!(
            p.validate(),
            Err(ProgramError::BadInstruction(0, InstrError::ImmRange(_)))
        ));
    }

    #[test]
    fn binary_roundtrip() {
        let p = good();
        let words = p.to_words();
        let q = Program::from_words("good", &words).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn static_mix_counts() {
        let mix = good().static_mix();
        assert_eq!(mix.get(UnitType::IntAlu), 3); // addi, bne, halt
        assert_eq!(mix.get(UnitType::IntMdu), 1);
        assert_eq!(mix.get(UnitType::Lsu), 0);
    }

    #[test]
    fn display_lists_instructions() {
        let text = good().to_string();
        assert!(text.contains("addi r1, r0, 3"));
        assert!(text.contains("   3:  halt"));
    }
}

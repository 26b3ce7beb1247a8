//! Decoded instruction representation.
//!
//! [`Instruction`] is the form instructions take everywhere downstream of
//! the decoder: in the instruction queue, the wake-up array, and the
//! execution units. The unit decoders of the configuration selection unit
//! read [`Instruction::unit_type`] — the paper's "opcode → required
//! functional unit" signal.

use crate::opcode::{Opcode, RegFile};
use crate::regs::{AnyReg, FReg, IReg};
use crate::units::UnitType;
use serde::{Deserialize, Serialize};

/// A decoded instruction.
///
/// Operand fields are populated according to `Opcode::operand_spec`;
/// `Instruction::validate` checks conformance. Immediates are also used
/// as branch displacements, measured in instructions relative to the
/// branch itself.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Instruction {
    /// The operation.
    pub opcode: Opcode,
    /// Destination register, if the opcode writes one.
    pub dest: Option<AnyReg>,
    /// First source register.
    pub src1: Option<AnyReg>,
    /// Second source register.
    pub src2: Option<AnyReg>,
    /// Immediate operand / branch displacement (signed; width per
    /// `Opcode::imm_bits`).
    pub imm: i32,
}

/// Errors found by `Instruction::validate`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstrError {
    /// An operand position that must be empty holds a register (or vice versa).
    OperandArity(&'static str),
    /// A register operand is in the wrong register file.
    WrongFile(&'static str),
    /// The immediate does not fit in the opcode's encodable signed range.
    ImmRange(i32),
}

impl std::fmt::Display for InstrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstrError::OperandArity(which) => write!(f, "operand arity mismatch at {which}"),
            InstrError::WrongFile(which) => write!(f, "wrong register file at {which}"),
            InstrError::ImmRange(v) => write!(f, "immediate {v} outside encodable range"),
        }
    }
}

impl std::error::Error for InstrError {}

fn check_operand(
    which: &'static str,
    got: Option<AnyReg>,
    want: RegFile,
) -> Result<(), InstrError> {
    match (got, want) {
        (None, RegFile::None) => Ok(()),
        (Some(AnyReg::Int(_)), RegFile::Int) => Ok(()),
        (Some(AnyReg::Fp(_)), RegFile::Fp) => Ok(()),
        (Some(_), RegFile::None) | (None, _) => Err(InstrError::OperandArity(which)),
        (Some(_), _) => Err(InstrError::WrongFile(which)),
    }
}

impl Instruction {
    /// `nop`.
    pub const NOP: Instruction = Instruction {
        opcode: Opcode::Nop,
        dest: None,
        src1: None,
        src2: None,
        imm: 0,
    };

    /// `halt`.
    pub const HALT: Instruction = Instruction {
        opcode: Opcode::Halt,
        dest: None,
        src1: None,
        src2: None,
        imm: 0,
    };

    /// Integer three-register instruction: `op rd, rs1, rs2`.
    pub fn rrr(opcode: Opcode, rd: IReg, rs1: IReg, rs2: IReg) -> Instruction {
        Instruction {
            opcode,
            dest: Some(AnyReg::Int(rd)),
            src1: Some(AnyReg::Int(rs1)),
            src2: Some(AnyReg::Int(rs2)),
            imm: 0,
        }
    }

    /// Integer register-immediate instruction: `op rd, rs1, imm`.
    pub fn rri(opcode: Opcode, rd: IReg, rs1: IReg, imm: i32) -> Instruction {
        Instruction {
            opcode,
            dest: Some(AnyReg::Int(rd)),
            src1: Some(AnyReg::Int(rs1)),
            src2: None,
            imm,
        }
    }

    /// `lui rd, imm`.
    #[cfg(test)]
    pub(crate) fn lui(rd: IReg, imm: i32) -> Instruction {
        Instruction {
            opcode: Opcode::Lui,
            dest: Some(AnyReg::Int(rd)),
            src1: None,
            src2: None,
            imm,
        }
    }

    /// Conditional branch: `op rs1, rs2, offset` (offset in instructions).
    pub fn branch(opcode: Opcode, rs1: IReg, rs2: IReg, offset: i32) -> Instruction {
        Instruction {
            opcode,
            dest: None,
            src1: Some(AnyReg::Int(rs1)),
            src2: Some(AnyReg::Int(rs2)),
            imm: offset,
        }
    }

    /// `jal rd, offset`.
    pub fn jal(rd: IReg, offset: i32) -> Instruction {
        Instruction {
            opcode: Opcode::Jal,
            dest: Some(AnyReg::Int(rd)),
            src1: None,
            src2: None,
            imm: offset,
        }
    }

    /// `jalr rd, rs1, imm` — jump to `rs1 + imm` (absolute, in instructions).
    pub fn jalr(rd: IReg, rs1: IReg, imm: i32) -> Instruction {
        Instruction {
            opcode: Opcode::Jalr,
            dest: Some(AnyReg::Int(rd)),
            src1: Some(AnyReg::Int(rs1)),
            src2: None,
            imm,
        }
    }

    /// `lw rd, imm(rs1)`.
    pub fn lw(rd: IReg, base: IReg, imm: i32) -> Instruction {
        Instruction {
            opcode: Opcode::Lw,
            dest: Some(AnyReg::Int(rd)),
            src1: Some(AnyReg::Int(base)),
            src2: None,
            imm,
        }
    }

    /// `sw rs2, imm(rs1)` — store `rs2` at `rs1 + imm`.
    pub fn sw(val: IReg, base: IReg, imm: i32) -> Instruction {
        Instruction {
            opcode: Opcode::Sw,
            dest: None,
            src1: Some(AnyReg::Int(base)),
            src2: Some(AnyReg::Int(val)),
            imm,
        }
    }

    /// `flw fd, imm(rs1)`.
    pub fn flw(fd: FReg, base: IReg, imm: i32) -> Instruction {
        Instruction {
            opcode: Opcode::Flw,
            dest: Some(AnyReg::Fp(fd)),
            src1: Some(AnyReg::Int(base)),
            src2: None,
            imm,
        }
    }

    /// `fsw fs2, imm(rs1)` — store `fs2` at `rs1 + imm`.
    pub fn fsw(val: FReg, base: IReg, imm: i32) -> Instruction {
        Instruction {
            opcode: Opcode::Fsw,
            dest: None,
            src1: Some(AnyReg::Int(base)),
            src2: Some(AnyReg::Fp(val)),
            imm,
        }
    }

    /// FP three-register instruction: `op fd, fs1, fs2`.
    pub fn fff(opcode: Opcode, fd: FReg, fs1: FReg, fs2: FReg) -> Instruction {
        Instruction {
            opcode,
            dest: Some(AnyReg::Fp(fd)),
            src1: Some(AnyReg::Fp(fs1)),
            src2: Some(AnyReg::Fp(fs2)),
            imm: 0,
        }
    }

    /// FP two-register instruction: `op fd, fs1` (fabs/fneg/fsqrt).
    #[cfg(test)]
    pub(crate) fn ff(opcode: Opcode, fd: FReg, fs1: FReg) -> Instruction {
        Instruction {
            opcode,
            dest: Some(AnyReg::Fp(fd)),
            src1: Some(AnyReg::Fp(fs1)),
            src2: None,
            imm: 0,
        }
    }

    /// FP comparison writing an integer flag: `op rd, fs1, fs2`.
    #[cfg(test)]
    pub(crate) fn fcmp(opcode: Opcode, rd: IReg, fs1: FReg, fs2: FReg) -> Instruction {
        Instruction {
            opcode,
            dest: Some(AnyReg::Int(rd)),
            src1: Some(AnyReg::Fp(fs1)),
            src2: Some(AnyReg::Fp(fs2)),
            imm: 0,
        }
    }

    /// `fcvt.i.f fd, rs1` — convert integer to float.
    pub fn fcvt_if(fd: FReg, rs1: IReg) -> Instruction {
        Instruction {
            opcode: Opcode::Fcvtif,
            dest: Some(AnyReg::Fp(fd)),
            src1: Some(AnyReg::Int(rs1)),
            src2: None,
            imm: 0,
        }
    }

    /// `fcvt.f.i rd, fs1` — convert float to integer (truncating).
    #[cfg(test)]
    pub(crate) fn fcvt_fi(rd: IReg, fs1: FReg) -> Instruction {
        Instruction {
            opcode: Opcode::Fcvtfi,
            dest: Some(AnyReg::Int(rd)),
            src1: Some(AnyReg::Fp(fs1)),
            src2: None,
            imm: 0,
        }
    }

    /// The functional-unit type this instruction requires — the unit
    /// decoders' output (Fig. 2).
    #[inline]
    pub fn unit_type(&self) -> UnitType {
        self.opcode.unit_type()
    }

    /// Destination register, excluding writes to the hard-wired zero
    /// register (which carry no dependency).
    #[inline]
    pub fn arch_dest(&self) -> Option<AnyReg> {
        self.dest.filter(|d| !d.is_hardwired_zero())
    }

    /// Source registers that carry true (RAW) dependencies, i.e. excluding
    /// the hard-wired zero register.
    pub fn arch_sources(&self) -> impl Iterator<Item = AnyReg> {
        [self.src1, self.src2]
            .into_iter()
            .flatten()
            .filter(|r| !r.is_hardwired_zero())
    }

    /// Check that operand fields conform to the opcode's
    /// `Opcode::operand_spec` and that the immediate is encodable.
    pub(crate) fn validate(&self) -> Result<(), InstrError> {
        let s = self.opcode.operand_spec();
        check_operand("dest", self.dest, s.dest)?;
        check_operand("src1", self.src1, s.src1)?;
        check_operand("src2", self.src2, s.src2)?;
        if s.has_imm {
            let (lo, hi) = self.opcode.imm_range();
            if self.imm < lo || self.imm > hi {
                return Err(InstrError::ImmRange(self.imm));
            }
        } else if self.imm != 0 {
            return Err(InstrError::OperandArity("imm"));
        }
        Ok(())
    }
}

impl std::fmt::Display for Instruction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = self.opcode.mnemonic();
        match self.opcode {
            Opcode::Nop | Opcode::Halt => write!(f, "{m}"),
            Opcode::Lui | Opcode::Jal => {
                write!(f, "{m} {}, {}", self.dest.unwrap(), self.imm)
            }
            Opcode::Lw | Opcode::Flw => write!(
                f,
                "{m} {}, {}({})",
                self.dest.unwrap(),
                self.imm,
                self.src1.unwrap()
            ),
            Opcode::Sw | Opcode::Fsw => write!(
                f,
                "{m} {}, {}({})",
                self.src2.unwrap(),
                self.imm,
                self.src1.unwrap()
            ),
            Opcode::Beq | Opcode::Bne | Opcode::Blt | Opcode::Bge => write!(
                f,
                "{m} {}, {}, {}",
                self.src1.unwrap(),
                self.src2.unwrap(),
                self.imm
            ),
            _ => {
                write!(f, "{m}")?;
                let mut sep = " ";
                for op in [self.dest, self.src1, self.src2].into_iter().flatten() {
                    write!(f, "{sep}{op}")?;
                    sep = ", ";
                }
                if self.opcode.operand_spec().has_imm {
                    write!(f, "{sep}{}", self.imm)?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u8) -> IReg {
        IReg::new(n)
    }
    fn fr(n: u8) -> FReg {
        FReg::new(n)
    }

    #[test]
    fn builders_validate() {
        let cases = vec![
            Instruction::NOP,
            Instruction::HALT,
            Instruction::rrr(Opcode::Add, r(1), r(2), r(3)),
            Instruction::rri(Opcode::Addi, r(1), r(2), -5),
            Instruction::lui(r(4), 100),
            Instruction::branch(Opcode::Beq, r(1), r(2), -3),
            Instruction::jal(r(31), 10),
            Instruction::jalr(r(0), r(5), 0),
            Instruction::lw(r(1), r(2), 8),
            Instruction::sw(r(3), r(2), 8),
            Instruction::flw(fr(1), r(2), 4),
            Instruction::fsw(fr(1), r(2), 4),
            Instruction::fff(Opcode::Fadd, fr(1), fr(2), fr(3)),
            Instruction::ff(Opcode::Fsqrt, fr(1), fr(2)),
            Instruction::fcmp(Opcode::Fcmplt, r(1), fr(2), fr(3)),
            Instruction::fcvt_if(fr(1), r(2)),
            Instruction::fcvt_fi(r(1), fr(2)),
        ];
        for i in cases {
            assert_eq!(i.validate(), Ok(()), "{i}");
        }
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        // Wrong file: integer add with an FP destination.
        let bad = Instruction {
            dest: Some(AnyReg::Fp(fr(1))),
            ..Instruction::rrr(Opcode::Add, r(1), r(2), r(3))
        };
        assert_eq!(bad.validate(), Err(InstrError::WrongFile("dest")));

        // Arity: nop with a destination.
        let bad = Instruction {
            dest: Some(AnyReg::Int(r(1))),
            ..Instruction::NOP
        };
        assert_eq!(bad.validate(), Err(InstrError::OperandArity("dest")));

        // Immediate out of range.
        let bad = Instruction::rri(Opcode::Addi, r(1), r(2), 40_000);
        assert_eq!(bad.validate(), Err(InstrError::ImmRange(40_000)));

        // Non-zero imm on a no-imm opcode.
        let bad = Instruction {
            imm: 1,
            ..Instruction::rrr(Opcode::Add, r(1), r(2), r(3))
        };
        assert_eq!(bad.validate(), Err(InstrError::OperandArity("imm")));
    }

    #[test]
    fn zero_register_carries_no_deps() {
        let i = Instruction::rrr(Opcode::Add, r(0), r(0), r(3));
        assert_eq!(i.arch_dest(), None);
        let srcs: Vec<_> = i.arch_sources().collect();
        assert_eq!(srcs, vec![AnyReg::Int(r(3))]);
        // f0 is a normal register.
        let j = Instruction::fff(Opcode::Fadd, fr(0), fr(0), fr(0));
        assert!(j.arch_dest().is_some());
        assert_eq!(j.arch_sources().count(), 2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            Instruction::rrr(Opcode::Add, r(1), r(2), r(3)).to_string(),
            "add r1, r2, r3"
        );
        assert_eq!(Instruction::lw(r(1), r(2), 8).to_string(), "lw r1, 8(r2)");
        assert_eq!(Instruction::sw(r(3), r(2), -4).to_string(), "sw r3, -4(r2)");
        assert_eq!(
            Instruction::branch(Opcode::Bne, r(1), r(0), -2).to_string(),
            "bne r1, r0, -2"
        );
        assert_eq!(Instruction::NOP.to_string(), "nop");
        assert_eq!(
            Instruction::rri(Opcode::Addi, r(1), r(2), 7).to_string(),
            "addi r1, r2, 7"
        );
    }

    #[test]
    fn unit_type_passthrough() {
        assert_eq!(
            Instruction::fff(Opcode::Fmul, fr(1), fr(2), fr(3)).unit_type(),
            UnitType::FpMdu
        );
    }
}

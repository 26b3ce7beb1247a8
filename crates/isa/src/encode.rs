//! 32-bit binary instruction words.
//!
//! Word layout (most significant bit first):
//!
//! ```text
//! | 31..26 | 25..21 | 20..16 | 15..11 | 10..0  |
//! | opcode |   a    |   b    |   c    | imm11  |
//! ```
//!
//! * `a`/`b`/`c` are 5-bit register fields holding `dest`/`src1`/`src2`
//!   (whichever the opcode's `OperandSpec`
//!   defines; unused fields encode as 0).
//! * Opcodes with a 21-bit immediate (`lui`, `jal` — see
//!   `Opcode::imm_bits`) use bits `20..0` for the immediate instead of
//!   `b`/`c`/`imm11`.
//!
//! Legacy-binary compatibility is the paper's stated motivation for the
//! RFU paradigm (§1), so the ISA has a real binary format and the fetch
//! unit of the simulator fetches *words*, not pre-decoded structures.

use crate::instr::Instruction;
use crate::opcode::{Opcode, RegFile};
use crate::regs::{AnyReg, FReg, IReg};

/// A raw 32-bit instruction word.
pub type Word = u32;

/// Errors produced by [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The 6-bit opcode field holds an unassigned pattern.
    BadOpcode(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadOpcode(b) => write!(f, "unknown opcode bits {b:#08b}"),
        }
    }
}

impl std::error::Error for DecodeError {}

#[inline]
fn reg_bits(r: Option<AnyReg>) -> u32 {
    match r {
        Some(AnyReg::Int(r)) => r.num() as u32,
        Some(AnyReg::Fp(r)) => r.num() as u32,
        None => 0,
    }
}

#[inline]
fn field_to_reg(bits: u32, file: RegFile) -> Option<AnyReg> {
    match file {
        RegFile::None => None,
        RegFile::Int => Some(AnyReg::Int(IReg::new((bits & 0x1f) as u8))),
        RegFile::Fp => Some(AnyReg::Fp(FReg::new((bits & 0x1f) as u8))),
    }
}

#[inline]
fn sign_extend(v: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((v << shift) as i32) >> shift
}

/// Encode an instruction into its 32-bit word.
///
/// The instruction must be [valid](Instruction::validate); encoding an
/// invalid instruction silently truncates out-of-spec fields.
pub fn encode(instr: &Instruction) -> Word {
    let op = instr.opcode.encoding() as u32;
    let mut w = op << 26;
    w |= (reg_bits(instr.dest) & 0x1f) << 21;
    if instr.opcode.imm_bits() == 21 {
        w |= (instr.imm as u32) & 0x1f_ffff;
    } else {
        w |= (reg_bits(instr.src1) & 0x1f) << 16;
        w |= (reg_bits(instr.src2) & 0x1f) << 11;
        if instr.opcode.operand_spec().has_imm {
            w |= (instr.imm as u32) & 0x7ff;
        }
    }
    w
}

/// Decode a 32-bit word back into an [`Instruction`].
pub fn decode(word: Word) -> Result<Instruction, DecodeError> {
    let op_bits = (word >> 26) as u8;
    let opcode = Opcode::from_encoding(op_bits).ok_or(DecodeError::BadOpcode(op_bits))?;
    let spec = opcode.operand_spec();
    let dest = field_to_reg(word >> 21, spec.dest);
    let (src1, src2, imm);
    if opcode.imm_bits() == 21 {
        src1 = None;
        src2 = None;
        imm = sign_extend(word & 0x1f_ffff, 21);
    } else {
        src1 = field_to_reg(word >> 16, spec.src1);
        src2 = field_to_reg(word >> 11, spec.src2);
        imm = if spec.has_imm {
            sign_extend(word & 0x7ff, 11)
        } else {
            0
        };
    }
    Ok(Instruction {
        opcode,
        dest,
        src1,
        src2,
        imm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::Opcode;
    use proptest::prelude::*;

    fn r(n: u8) -> IReg {
        IReg::new(n)
    }
    fn fr(n: u8) -> FReg {
        FReg::new(n)
    }

    #[test]
    fn roundtrip_representatives() {
        let cases = vec![
            Instruction::NOP,
            Instruction::HALT,
            Instruction::rrr(Opcode::Xor, r(31), r(30), r(29)),
            Instruction::rri(Opcode::Addi, r(1), r(2), -1024),
            Instruction::rri(Opcode::Slti, r(1), r(2), 1023),
            Instruction::lui(r(4), -1_048_576),
            Instruction::lui(r(4), 1_048_575),
            Instruction::jal(r(31), -500_000),
            Instruction::jalr(r(1), r(5), 3),
            Instruction::branch(Opcode::Blt, r(9), r(10), -7),
            Instruction::lw(r(1), r(2), 1023),
            Instruction::sw(r(3), r(2), -8),
            Instruction::flw(fr(31), r(2), 4),
            Instruction::fsw(fr(1), r(2), 4),
            Instruction::fff(Opcode::Fmax, fr(1), fr(2), fr(3)),
            Instruction::ff(Opcode::Fneg, fr(1), fr(2)),
            Instruction::fcmp(Opcode::Fcmple, r(1), fr(2), fr(3)),
            Instruction::fcvt_if(fr(1), r(2)),
            Instruction::fcvt_fi(r(1), fr(2)),
            Instruction::rrr(Opcode::Rem, r(1), r(2), r(3)),
        ];
        for i in cases {
            i.validate().unwrap();
            let w = encode(&i);
            let d = decode(w).unwrap();
            assert_eq!(d, i, "word {w:#010x}");
        }
    }

    #[test]
    fn bad_opcode_rejected() {
        let w = (Opcode::ALL.len() as u32) << 26;
        assert_eq!(
            decode(w),
            Err(DecodeError::BadOpcode(Opcode::ALL.len() as u8))
        );
        assert_eq!(decode(0x3f << 26), Err(DecodeError::BadOpcode(0x3f)));
    }

    #[test]
    fn sign_extension() {
        assert_eq!(sign_extend(0x7ff, 11), -1);
        assert_eq!(sign_extend(0x400, 11), -1024);
        assert_eq!(sign_extend(0x3ff, 11), 1023);
        assert_eq!(sign_extend(0x1f_ffff, 21), -1);
    }

    #[test]
    fn nop_encodes_to_zero_payload() {
        // Nop is opcode 0 with all fields zero — the all-zero word.
        assert_eq!(encode(&Instruction::NOP), 0);
        assert_eq!(decode(0).unwrap(), Instruction::NOP);
    }

    /// Strategy producing arbitrary *valid* instructions for roundtrip
    /// property testing. Shared with other crates' tests via copy —
    /// proptest strategies are cheap to restate.
    fn arb_instruction() -> impl Strategy<Value = Instruction> {
        (
            0usize..Opcode::ALL.len(),
            0u8..32,
            0u8..32,
            0u8..32,
            any::<i32>(),
        )
            .prop_map(|(oi, a, b, c, raw_imm)| {
                let opcode = Opcode::ALL[oi];
                let spec = opcode.operand_spec();
                let mk = |file, n| field_to_reg(n as u32, file);
                let (lo, hi) = opcode.imm_range();
                let imm = if spec.has_imm {
                    lo + (raw_imm.rem_euclid(hi - lo + 1))
                } else {
                    0
                };
                Instruction {
                    opcode,
                    dest: mk(spec.dest, a),
                    src1: mk(spec.src1, b),
                    src2: mk(spec.src2, c),
                    imm,
                }
            })
    }

    proptest! {
        #[test]
        fn prop_roundtrip(instr in arb_instruction()) {
            prop_assert_eq!(instr.validate(), Ok(()));
            let d = decode(encode(&instr)).unwrap();
            prop_assert_eq!(d, instr);
        }

        #[test]
        fn prop_decode_total_on_valid_opcodes(w in any::<u32>()) {
            // Any word whose opcode field is assigned must decode, and
            // re-encoding the decode must be stable (decode∘encode∘decode
            // == decode).
            if let Ok(i) = decode(w) {
                let w2 = encode(&i);
                prop_assert_eq!(decode(w2).unwrap(), i);
            }
        }
    }
}

//! Stage 1 — unit decoders (Fig. 2).
//!
//! "The unit decoders … retrieve the opcode of each instruction in the
//! instruction queue that is ready for execution. The output of each unit
//! decoder is a one-hot vector that indicates the functional unit
//! \[required\] by the instruction whose opcode the unit decoded."
//!
//! Bit order follows Fig. 2: bit 0 = Int-ALU, bit 1 = Int-MDU,
//! bit 2 = LSU, bit 3 = FP-ALU, bit 4 = FP-MDU.

use rsp_isa::units::UnitType;
use rsp_isa::{Instruction, Opcode};
use serde::{Deserialize, Serialize};

/// A one-hot required-unit vector: exactly one of the five bits is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OneHot(u8);

impl OneHot {
    /// The one-hot vector for a unit type.
    #[inline]
    pub fn of(t: UnitType) -> OneHot {
        OneHot(1 << t.index())
    }

    /// Raw 5-bit pattern (bit 0 = Int-ALU … bit 4 = FP-MDU).
    #[inline]
    pub fn bits(self) -> u8 {
        self.0
    }

    /// True iff bit `t` is set.
    #[inline]
    pub fn is(self, t: UnitType) -> bool {
        self.0 & (1 << t.index()) != 0
    }

    /// The unit type encoded, recovering it from the single set bit.
    pub fn unit_type(self) -> UnitType {
        debug_assert_eq!(self.0.count_ones(), 1, "one-hot must have exactly one bit");
        UnitType::from_index(self.0.trailing_zeros() as usize).expect("valid one-hot")
    }
}

impl std::fmt::Display for OneHot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:05b}", self.0)
    }
}

/// One unit decoder: opcode in, one-hot required-unit vector out.
#[inline]
pub fn unit_decoder(opcode: Opcode) -> OneHot {
    OneHot::of(opcode.unit_type())
}

/// Decode a whole queue snapshot (one decoder per queue entry, Fig. 2
/// instantiates seven of them).
pub fn decode_queue(instrs: &[Instruction]) -> Vec<OneHot> {
    instrs.iter().map(|i| unit_decoder(i.opcode)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_isa::regs::{FReg, IReg};

    #[test]
    fn one_hot_per_type() {
        assert_eq!(OneHot::of(UnitType::IntAlu).bits(), 0b00001);
        assert_eq!(OneHot::of(UnitType::IntMdu).bits(), 0b00010);
        assert_eq!(OneHot::of(UnitType::Lsu).bits(), 0b00100);
        assert_eq!(OneHot::of(UnitType::FpAlu).bits(), 0b01000);
        assert_eq!(OneHot::of(UnitType::FpMdu).bits(), 0b10000);
    }

    #[test]
    fn decoder_is_exactly_one_hot_for_every_opcode() {
        for &op in &Opcode::ALL {
            let oh = unit_decoder(op);
            assert_eq!(oh.bits().count_ones(), 1, "{op}");
            assert_eq!(oh.unit_type(), op.unit_type(), "{op}");
            assert!(oh.is(op.unit_type()));
        }
    }

    #[test]
    fn queue_decode_preserves_order() {
        let q = vec![
            Instruction::rrr(Opcode::Mul, IReg::new(1), IReg::new(2), IReg::new(3)),
            Instruction::lw(IReg::new(1), IReg::new(2), 0),
            Instruction::fff(Opcode::Fadd, FReg::new(1), FReg::new(2), FReg::new(3)),
        ];
        let hots = decode_queue(&q);
        assert_eq!(
            hots,
            vec![
                OneHot::of(UnitType::IntMdu),
                OneHot::of(UnitType::Lsu),
                OneHot::of(UnitType::FpAlu),
            ]
        );
    }

    #[test]
    fn display_is_binary() {
        assert_eq!(OneHot::of(UnitType::FpMdu).to_string(), "10000");
    }
}

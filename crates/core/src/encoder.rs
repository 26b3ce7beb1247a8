//! Stage 2 — resource requirement encoders (Fig. 2).
//!
//! "This information is collected from all decoders and transformed into
//! a three-bit binary value … that indicates how many functional units of
//! each type are [required to] execute all of the instructions in the
//! instruction queue."
//!
//! One encoder per unit type: it counts how many of the (up to seven)
//! one-hot decoder outputs assert its bit. Because the queue holds at
//! most seven instructions, each count fits in 3 bits — the encoder
//! saturates at 7 to model the hardware width when fed wider queues in
//! scaling experiments (E9).

use crate::decode::OneHot;
use rsp_isa::units::{TypeCounts, UnitType};
use rsp_isa::Instruction;

/// The bank of five resource requirement encoders.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequirementEncoder {
    /// When `Some(n)`, saturate each per-type count at `n` (hardware
    /// width). `None` disables saturation (idealised encoder for
    /// ablations). The paper's width is 3 bits → saturate at 7.
    pub saturate_at: Option<u8>,
}

impl RequirementEncoder {
    /// The paper's 3-bit encoder bank.
    pub const PAPER: RequirementEncoder = RequirementEncoder {
        saturate_at: Some(7),
    };

    /// Sum one-hot vectors into per-type counts.
    pub fn encode(&self, hots: &[OneHot]) -> TypeCounts {
        let mut counts = TypeCounts::ZERO;
        for &oh in hots {
            counts.add(oh.unit_type(), 1);
        }
        self.clamp(counts)
    }

    /// Convenience: decode + encode a queue snapshot in one step.
    pub(crate) fn encode_instructions(&self, instrs: &[Instruction]) -> TypeCounts {
        let mut counts = TypeCounts::ZERO;
        for i in instrs {
            counts.add(i.unit_type(), 1);
        }
        self.clamp(counts)
    }

    fn clamp(&self, counts: TypeCounts) -> TypeCounts {
        let clamped = match self.saturate_at {
            Some(7) => counts.saturating_3bit(),
            Some(n) => {
                let mut c = counts;
                for &t in &UnitType::ALL {
                    c.set(t, c.get(t).min(n));
                }
                c
            }
            None => counts,
        };
        debug_assert_eq!(
            clamped,
            requirement_counts_spec(counts, self.saturate_at),
            "RequirementEncoder diverged from its specification"
        );
        clamped
    }
}

/// The stage-2 requirement encoder bank as a pure specification
/// (mirroring the `*_scan` idiom of `rsp-fabric`): per unit type, count
/// the asserted decoder outputs and saturate the 3-bit (or `width`-wide)
/// hardware counter. [`RequirementEncoder`] is cross-checked against
/// this in debug builds; the bit-sliced lane kernel's differential tests
/// compare against it directly, not against encoder internals.
pub(crate) fn requirement_counts_spec(raw: TypeCounts, saturate_at: Option<u8>) -> TypeCounts {
    let mut out = TypeCounts::ZERO;
    for &t in &UnitType::ALL {
        let c = raw.get(t);
        out.set(
            t,
            match saturate_at {
                Some(w) => c.min(w),
                None => c,
            },
        );
    }
    out
}

/// [`requirement_counts_spec`] applied to a queue snapshot given as unit
/// types — exactly the view the lane kernel's stage-1 decoders see (one
/// 3-bit type code per occupied entry). The paper's 3-bit width is
/// hard-wired here, matching [`RequirementEncoder::PAPER`].
#[cfg(test)]
pub(crate) fn requirement_counts_spec_types(entries: &[UnitType]) -> TypeCounts {
    let mut raw = TypeCounts::ZERO;
    for &t in entries {
        raw.add(t, 1);
    }
    requirement_counts_spec(raw, Some(7))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_isa::regs::IReg;
    use rsp_isa::Opcode;

    #[test]
    fn counts_by_type() {
        let hots = vec![
            OneHot::of(UnitType::IntAlu),
            OneHot::of(UnitType::IntAlu),
            OneHot::of(UnitType::Lsu),
            OneHot::of(UnitType::FpMdu),
        ];
        let c = RequirementEncoder::PAPER.encode(&hots);
        assert_eq!(c.get(UnitType::IntAlu), 2);
        assert_eq!(c.get(UnitType::Lsu), 1);
        assert_eq!(c.get(UnitType::FpMdu), 1);
        assert_eq!(c.get(UnitType::IntMdu), 0);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn empty_queue_is_zero_demand() {
        assert!(RequirementEncoder::PAPER.encode(&[]).is_zero());
    }

    #[test]
    fn paper_encoder_saturates_at_seven() {
        let hots = vec![OneHot::of(UnitType::IntAlu); 12];
        let c = RequirementEncoder::PAPER.encode(&hots);
        assert_eq!(c.get(UnitType::IntAlu), 7);
        let ideal = RequirementEncoder { saturate_at: None }.encode(&hots);
        assert_eq!(ideal.get(UnitType::IntAlu), 12);
        let narrow = RequirementEncoder {
            saturate_at: Some(3),
        }
        .encode(&hots);
        assert_eq!(narrow.get(UnitType::IntAlu), 3);
    }

    #[test]
    fn instruction_shortcut_matches_two_stage_path() {
        let q = vec![
            Instruction::rrr(Opcode::Add, IReg::new(1), IReg::new(2), IReg::new(3)),
            Instruction::rrr(Opcode::Div, IReg::new(1), IReg::new(2), IReg::new(3)),
            Instruction::lw(IReg::new(1), IReg::new(2), 0),
        ];
        let hots = crate::decode::decode_queue(&q);
        assert_eq!(
            RequirementEncoder::PAPER.encode(&hots),
            RequirementEncoder::PAPER.encode_instructions(&q)
        );
    }
}

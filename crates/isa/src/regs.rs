//! Architectural registers.
//!
//! The machine has 32 integer registers (`r0`..`r31`, with `r0` hard-wired
//! to zero) and 32 floating-point registers (`f0`..`f31`). Whether a
//! 5-bit register field addresses the integer or FP file is determined by
//! the opcode, so the two files are modelled as distinct types.

use serde::{Deserialize, Serialize};

/// Number of registers in each architectural register file.
pub const NUM_REGS: usize = 32;

/// An integer register `r0`..`r31`. `r0` always reads as zero and writes
/// to it are discarded, in the usual RISC fashion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct IReg(u8);

/// A floating-point register `f0`..`f31`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FReg(u8);

impl IReg {
    /// The hard-wired zero register.
    pub const ZERO: IReg = IReg(0);

    /// Construct `r<n>`; panics if `n >= 32`.
    #[inline]
    pub const fn new(n: u8) -> IReg {
        assert!(n < NUM_REGS as u8, "integer register out of range");
        IReg(n)
    }

    /// Checked constructor.
    #[inline]
    pub(crate) const fn try_new(n: u8) -> Option<IReg> {
        if n < NUM_REGS as u8 {
            Some(IReg(n))
        } else {
            None
        }
    }

    /// Register number 0..31.
    #[inline]
    pub(crate) const fn num(self) -> u8 {
        self.0
    }

    /// True iff this is the hard-wired zero register.
    #[inline]
    pub(crate) const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl FReg {
    /// Construct `f<n>`; panics if `n >= 32`.
    #[inline]
    pub const fn new(n: u8) -> FReg {
        assert!(n < NUM_REGS as u8, "fp register out of range");
        FReg(n)
    }

    /// Checked constructor.
    #[inline]
    pub(crate) const fn try_new(n: u8) -> Option<FReg> {
        if n < NUM_REGS as u8 {
            Some(FReg(n))
        } else {
            None
        }
    }

    /// Register number 0..31.
    #[inline]
    pub(crate) const fn num(self) -> u8 {
        self.0
    }
}

impl std::fmt::Display for IReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl std::fmt::Display for FReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A register operand of either file, used by dependency analysis: the
/// scheduler does not care which file a value lives in, only its identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AnyReg {
    /// Integer register.
    Int(IReg),
    /// Floating-point register.
    Fp(FReg),
}

impl AnyReg {
    /// True for `r0`, which never carries a dependency.
    #[inline]
    pub fn is_hardwired_zero(self) -> bool {
        matches!(self, AnyReg::Int(r) if r.is_zero())
    }

    /// A dense index 0..64 (`r*` then `f*`) for use in scoreboards.
    #[inline]
    pub fn dense_index(self) -> usize {
        match self {
            AnyReg::Int(r) => r.num() as usize,
            AnyReg::Fp(r) => NUM_REGS + r.num() as usize,
        }
    }
}

impl std::fmt::Display for AnyReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnyReg::Int(r) => write!(f, "{r}"),
            AnyReg::Fp(r) => write!(f, "{r}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_bounds() {
        assert_eq!(IReg::new(31).num(), 31);
        assert_eq!(FReg::new(0).num(), 0);
        assert!(IReg::try_new(32).is_none());
        assert!(FReg::try_new(200).is_none());
        assert!(IReg::ZERO.is_zero());
        assert!(!IReg::new(1).is_zero());
    }

    #[test]
    #[should_panic]
    fn panicking_constructor() {
        let _ = IReg::new(32);
    }

    #[test]
    fn dense_indices_disjoint() {
        let mut seen = std::collections::HashSet::new();
        for n in 0..NUM_REGS as u8 {
            assert!(seen.insert(AnyReg::Int(IReg::new(n)).dense_index()));
            assert!(seen.insert(AnyReg::Fp(FReg::new(n)).dense_index()));
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn display() {
        assert_eq!(IReg::new(5).to_string(), "r5");
        assert_eq!(FReg::new(7).to_string(), "f7");
        assert_eq!(AnyReg::Fp(FReg::new(7)).to_string(), "f7");
    }

    #[test]
    fn zero_is_not_a_dependency() {
        assert!(AnyReg::Int(IReg::ZERO).is_hardwired_zero());
        assert!(!AnyReg::Fp(FReg::new(0)).is_hardwired_zero());
    }
}

//! The resource allocation vector (paper §3.2).
//!
//! The configuration loader "tracks what type of functional unit is
//! configured in each slot of reconfigurable logic … by storing a
//! resource allocation vector". Each entry is a 3-bit
//! [`SlotEncoding`]: a unit-type encoding in the unit's *first* slot, the
//! special continuation encoding in the remaining slots it spans, or
//! empty. The loader decides what to reload by taking the difference
//! (XOR) between the chosen configuration's vector and the current one.

use rsp_isa::units::{SlotEncoding, TypeCounts, UnitType};
use serde::{Deserialize, Serialize};

/// A resource allocation vector: one [`SlotEncoding`] per RFU slot.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AllocationVector {
    slots: Vec<SlotEncoding>,
}

/// Violations of the vector's well-formedness invariant
/// (DESIGN.md invariant 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// Slot holds a bit pattern that is not a defined encoding.
    InvalidEncoding {
        /// Slot index.
        slot: usize,
        /// Raw bits found.
        bits: u8,
    },
    /// A continuation entry with no unit head directly governing it.
    DanglingContinuation {
        /// Slot index.
        slot: usize,
    },
    /// A unit head not followed by exactly `slot_cost - 1` continuations.
    BadSpan {
        /// Head slot index.
        head: usize,
        /// The unit type found at the head.
        unit: UnitType,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::InvalidEncoding { slot, bits } => {
                write!(f, "slot {slot}: invalid encoding {bits:03b}")
            }
            AllocError::DanglingContinuation { slot } => {
                write!(f, "slot {slot}: continuation without a unit head")
            }
            AllocError::BadSpan { head, unit } => {
                write!(
                    f,
                    "slot {head}: {unit} must span {} slots",
                    unit.slot_cost()
                )
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// One placed unit in the vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacedUnit {
    /// Index of the unit's first (encoding-bearing) slot.
    pub head: usize,
    /// The unit's type.
    pub unit: UnitType,
}

impl PlacedUnit {
    /// The slot range `head .. head + slot_cost` this unit occupies.
    #[inline]
    pub fn span(&self) -> std::ops::Range<usize> {
        self.head..self.head + self.unit.slot_cost()
    }
}

impl AllocationVector {
    /// An all-empty vector of `n` slots.
    pub fn empty(n: usize) -> AllocationVector {
        AllocationVector {
            slots: vec![SlotEncoding::EMPTY; n],
        }
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True iff the vector has zero slots. Nothing calls it; it stays
    /// beside the public [`AllocationVector::len`], as
    /// `clippy::len_without_is_empty` asks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The raw encoding at `slot`.
    #[inline]
    pub fn encoding(&self, slot: usize) -> SlotEncoding {
        self.slots[slot]
    }

    /// All raw encodings.
    #[inline]
    pub fn encodings(&self) -> &[SlotEncoding] {
        &self.slots
    }

    /// Verify the well-formedness invariant: every head is followed by
    /// exactly `slot_cost - 1` continuation entries, and every
    /// continuation belongs to a head.
    pub fn check(&self) -> Result<(), AllocError> {
        let mut i = 0;
        while i < self.slots.len() {
            let e = self.slots[i];
            if !e.is_valid() {
                return Err(AllocError::InvalidEncoding { slot: i, bits: e.0 });
            }
            if e.is_continuation() {
                return Err(AllocError::DanglingContinuation { slot: i });
            }
            if let Some(t) = e.unit_type() {
                let cost = t.slot_cost();
                if i + cost > self.slots.len() {
                    return Err(AllocError::BadSpan { head: i, unit: t });
                }
                for j in 1..cost {
                    if !self.slots[i + j].is_continuation() {
                        return Err(AllocError::BadSpan { head: i, unit: t });
                    }
                }
                i += cost;
            } else {
                i += 1; // empty
            }
        }
        Ok(())
    }

    /// Iterate the placed units (head slot + type), in slot order.
    ///
    /// Assumes a well-formed vector (see [`AllocationVector::check`]);
    /// continuations are attributed to the nearest head above them.
    pub fn units(&self) -> impl Iterator<Item = PlacedUnit> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.unit_type().map(|t| PlacedUnit { head: i, unit: t }))
    }

    /// The unit occupying `slot`, resolving continuations to their head.
    pub fn unit_at(&self, slot: usize) -> Option<PlacedUnit> {
        let mut i = slot;
        loop {
            let e = self.slots[i];
            if let Some(t) = e.unit_type() {
                let pu = PlacedUnit { head: i, unit: t };
                return if pu.span().contains(&slot) {
                    Some(pu)
                } else {
                    None
                };
            }
            if e.is_continuation() && i > 0 {
                i -= 1;
                continue;
            }
            return None;
        }
    }

    /// Per-type counts of the units placed here (the "# of units of each
    /// type currently configured" input to the selection unit, RFU part).
    pub fn counts(&self) -> TypeCounts {
        self.units().map(|u| (u.unit, 1)).collect()
    }

    /// Place a unit of type `t` with its head at `slot`, overwriting
    /// whatever the spanned slots held. Caller is responsible for having
    /// cleared overlapping old units (the fabric's load engine does this);
    /// this method only writes the span.
    pub fn place(&mut self, slot: usize, t: UnitType) {
        let cost = t.slot_cost();
        assert!(slot + cost <= self.slots.len(), "unit does not fit");
        self.slots[slot] = SlotEncoding::unit(t);
        for j in 1..cost {
            self.slots[slot + j] = SlotEncoding::CONTINUATION;
        }
    }

    /// Clear every slot of the unit that covers `slot` (no-op on empty).
    pub(crate) fn clear_unit_at(&mut self, slot: usize) {
        if let Some(pu) = self.unit_at(slot) {
            for j in pu.span() {
                self.slots[j] = SlotEncoding::EMPTY;
            }
        }
    }

    /// Number of differing slots — the loader's "amount of
    /// reconfiguration required" used by the tie-breaking rule.
    #[inline]
    pub fn diff_count(&self, other: &AllocationVector) -> usize {
        (0..self.len().min(other.len()))
            .filter(|&i| self.slots[i] != other.slots[i])
            .count()
            + self.len().abs_diff(other.len())
    }
}

impl std::fmt::Display for AllocationVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.slots.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn vector_of(units: &[UnitType], n: usize) -> AllocationVector {
        let mut v = AllocationVector::empty(n);
        let mut at = 0;
        for &t in units {
            v.place(at, t);
            at += t.slot_cost();
        }
        v.check().unwrap();
        v
    }

    #[test]
    fn placement_and_counts() {
        let v = vector_of(&[UnitType::FpAlu, UnitType::IntAlu, UnitType::Lsu], 8);
        assert_eq!(v.counts().get(UnitType::FpAlu), 1);
        assert_eq!(v.counts().get(UnitType::IntAlu), 1);
        assert_eq!(v.counts().get(UnitType::Lsu), 1);
        assert_eq!(v.counts().total(), 3);
        // FP-ALU head at 0 with 2 continuations.
        assert_eq!(v.encoding(0), SlotEncoding::unit(UnitType::FpAlu));
        assert!(v.encoding(1).is_continuation());
        assert!(v.encoding(2).is_continuation());
        assert_eq!(v.encoding(3), SlotEncoding::unit(UnitType::IntAlu));
        assert!(v.encoding(7).is_empty());
    }

    #[test]
    fn unit_at_resolves_continuations() {
        let v = vector_of(&[UnitType::FpMdu], 4);
        for s in 0..3 {
            let u = v.unit_at(s).unwrap();
            assert_eq!(u.head, 0);
            assert_eq!(u.unit, UnitType::FpMdu);
        }
        assert_eq!(v.unit_at(3), None);
    }

    #[test]
    fn check_rejects_dangling_continuation() {
        let v = AllocationVector {
            slots: vec![SlotEncoding::CONTINUATION, SlotEncoding::EMPTY],
        };
        assert!(matches!(
            v.check(),
            Err(AllocError::DanglingContinuation { slot: 0 })
        ));
    }

    #[test]
    fn check_rejects_truncated_span() {
        // FP unit (3 slots) whose head is at the second-to-last slot.
        let v = AllocationVector {
            slots: vec![
                SlotEncoding::EMPTY,
                SlotEncoding::unit(UnitType::FpAlu),
                SlotEncoding::CONTINUATION,
            ],
        };
        assert!(matches!(
            v.check(),
            Err(AllocError::BadSpan { head: 1, .. })
        ));
        // Head followed by a non-continuation.
        let v = AllocationVector {
            slots: vec![
                SlotEncoding::unit(UnitType::IntAlu),
                SlotEncoding::unit(UnitType::Lsu),
            ],
        };
        assert!(matches!(
            v.check(),
            Err(AllocError::BadSpan { head: 0, .. })
        ));
    }

    #[test]
    fn check_rejects_invalid_bits() {
        let v = AllocationVector {
            slots: vec![SlotEncoding(0b110)],
        };
        assert!(matches!(
            v.check(),
            Err(AllocError::InvalidEncoding {
                slot: 0,
                bits: 0b110
            })
        ));
    }

    #[test]
    fn diff_is_xor_like() {
        let a = vector_of(&[UnitType::IntAlu, UnitType::Lsu], 8); // ALU@0-1, LSU@2
        let b = vector_of(&[UnitType::IntAlu, UnitType::IntMdu], 8); // ALU@0-1, MDU@2-3
        assert_eq!(a.diff_count(&b), 2);
        assert_eq!(a.diff_count(&a), 0);
    }

    #[test]
    fn clear_unit_clears_whole_span() {
        let mut v = vector_of(&[UnitType::FpAlu, UnitType::Lsu], 8);
        v.clear_unit_at(1); // continuation slot of the FP-ALU
        assert!(v.encoding(0).is_empty());
        assert!(v.encoding(1).is_empty());
        assert!(v.encoding(2).is_empty());
        assert_eq!(v.encoding(3), SlotEncoding::unit(UnitType::Lsu));
        v.check().unwrap();
    }

    #[test]
    fn display_readable() {
        let v = vector_of(&[UnitType::Lsu, UnitType::IntMdu], 4);
        assert_eq!(v.to_string(), "[LSU | Int-MDU | (cont) | -]");
    }

    /// Random well-formed vectors: place random units left-to-right with
    /// random gaps.
    fn arb_vector(n: usize) -> impl Strategy<Value = AllocationVector> {
        proptest::collection::vec(0usize..=5, 0..n).prop_map(move |choices| {
            let mut v = AllocationVector::empty(n);
            let mut at = 0;
            for c in choices {
                if c == 5 {
                    at += 1; // gap
                    continue;
                }
                let t = UnitType::from_index(c).unwrap();
                if at + t.slot_cost() > n {
                    break;
                }
                v.place(at, t);
                at += t.slot_cost();
            }
            v
        })
    }

    proptest! {
        #[test]
        fn prop_generated_vectors_are_well_formed(v in arb_vector(8)) {
            prop_assert_eq!(v.check(), Ok(()));
        }

        #[test]
        fn prop_counts_match_units(v in arb_vector(8)) {
            let mut c = TypeCounts::ZERO;
            for u in v.units() {
                c.add(u.unit, 1);
            }
            prop_assert_eq!(v.counts(), c);
        }

        #[test]
        fn prop_unit_spans_partition_occupied_slots(v in arb_vector(8)) {
            let mut covered = vec![false; v.len()];
            for u in v.units() {
                for s in u.span() {
                    prop_assert!(!covered[s], "overlapping spans");
                    covered[s] = true;
                }
            }
            for (s, &cov) in covered.iter().enumerate() {
                prop_assert_eq!(cov, !v.encoding(s).is_empty());
                prop_assert_eq!(v.unit_at(s).is_some(), cov);
            }
        }

        #[test]
        fn prop_diff_symmetric_and_zero_on_self(a in arb_vector(8), b in arb_vector(8)) {
            prop_assert_eq!(a.diff_count(&b), b.diff_count(&a));
            prop_assert_eq!(a.diff_count(&a), 0);
        }
    }
}

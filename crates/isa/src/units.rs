//! Functional-unit types, Table-1 encodings, slot footprints, and
//! per-type count vectors.
//!
//! The paper's Table 1 assigns every functional-unit type a **3-bit
//! encoding** used in the configuration loader's *resource allocation
//! vector*. A unit occupying `k > 1` reconfigurable slots stores its
//! encoding in the first slot it occupies and a special *continuation*
//! encoding in the remaining `k - 1` slots, so that availability (Eq. 1)
//! counts each unit exactly once.

use serde::{Deserialize, Serialize};

/// The five functional-unit types of the architecture (paper §2, Table 1).
///
/// Each instruction of the ISA requires exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum UnitType {
    /// Integer arithmetic/logic unit (`Int-ALU`).
    IntAlu,
    /// Integer multiply/divide unit (`Int-MDU`).
    IntMdu,
    /// Load/store unit (`LSU`).
    Lsu,
    /// Floating-point arithmetic/logic unit (`FP-ALU`).
    FpAlu,
    /// Floating-point multiply/divide unit (`FP-MDU`).
    FpMdu,
}

/// Number of distinct functional-unit types.
pub const NUM_UNIT_TYPES: usize = 5;

impl UnitType {
    /// All unit types, in Table-1 / wake-up-array column order.
    pub const ALL: [UnitType; NUM_UNIT_TYPES] = [
        UnitType::IntAlu,
        UnitType::IntMdu,
        UnitType::Lsu,
        UnitType::FpAlu,
        UnitType::FpMdu,
    ];

    /// Dense index of this type (0..5), the bit position used by the unit
    /// decoders' one-hot vectors (Fig. 2: Int-ALU is bit 0 .. FP-MDU bit 4).
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            UnitType::IntAlu => 0,
            UnitType::IntMdu => 1,
            UnitType::Lsu => 2,
            UnitType::FpAlu => 3,
            UnitType::FpMdu => 4,
        }
    }

    /// Inverse of [`UnitType::index`].
    #[inline]
    pub const fn from_index(i: usize) -> Option<UnitType> {
        match i {
            0 => Some(UnitType::IntAlu),
            1 => Some(UnitType::IntMdu),
            2 => Some(UnitType::Lsu),
            3 => Some(UnitType::FpAlu),
            4 => Some(UnitType::FpMdu),
            _ => None,
        }
    }

    /// The 3-bit resource-type encoding `t` of Table 1, as stored in the
    /// resource allocation vector.
    #[inline]
    pub const fn encoding(self) -> u8 {
        match self {
            UnitType::IntAlu => 0b001,
            UnitType::IntMdu => 0b010,
            UnitType::Lsu => 0b011,
            UnitType::FpAlu => 0b100,
            UnitType::FpMdu => 0b101,
        }
    }

    /// Decode a Table-1 encoding back to a unit type. Returns `None` for
    /// [`SlotEncoding::EMPTY`] (0b000), [`SlotEncoding::CONTINUATION`]
    /// (0b111), and unassigned patterns.
    #[inline]
    pub const fn from_encoding(bits: u8) -> Option<UnitType> {
        match bits {
            0b001 => Some(UnitType::IntAlu),
            0b010 => Some(UnitType::IntMdu),
            0b011 => Some(UnitType::Lsu),
            0b100 => Some(UnitType::FpAlu),
            0b101 => Some(UnitType::FpMdu),
            _ => None,
        }
    }

    /// Number of reconfigurable slots a unit of this type occupies
    /// (paper §4.2: LSUs take one slot, integer units two slots each, and
    /// each type of FP unit three slots).
    #[inline]
    pub const fn slot_cost(self) -> usize {
        match self {
            UnitType::Lsu => 1,
            UnitType::IntAlu | UnitType::IntMdu => 2,
            UnitType::FpAlu | UnitType::FpMdu => 3,
        }
    }

    /// Short display name matching the paper's figures.
    pub(crate) const fn name(self) -> &'static str {
        match self {
            UnitType::IntAlu => "Int-ALU",
            UnitType::IntMdu => "Int-MDU",
            UnitType::Lsu => "LSU",
            UnitType::FpAlu => "FP-ALU",
            UnitType::FpMdu => "FP-MDU",
        }
    }
}

impl std::fmt::Display for UnitType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A raw 3-bit slot encoding as stored in the resource allocation vector.
///
/// Besides the five unit encodings of Table 1, two special values exist:
/// * `EMPTY` (0b000) — the slot holds no unit;
/// * `CONTINUATION` (0b111) — the slot holds the tail of a multi-slot unit
///   whose head (and encoding) live in an earlier slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SlotEncoding(pub u8);

impl SlotEncoding {
    /// Empty slot.
    pub const EMPTY: SlotEncoding = SlotEncoding(0b000);
    /// Continuation of a multi-slot unit (paper §3.2's "special encoding").
    pub const CONTINUATION: SlotEncoding = SlotEncoding(0b111);

    /// Encoding for the head slot of a unit of type `t`.
    #[inline]
    pub const fn unit(t: UnitType) -> SlotEncoding {
        SlotEncoding(t.encoding())
    }

    /// The unit type stored here, if this is a unit head slot.
    #[inline]
    pub const fn unit_type(self) -> Option<UnitType> {
        UnitType::from_encoding(self.0)
    }

    /// True iff this slot is empty.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == Self::EMPTY.0
    }

    /// True iff this slot is a continuation of a multi-slot unit.
    #[inline]
    pub const fn is_continuation(self) -> bool {
        self.0 == Self::CONTINUATION.0
    }

    /// True iff the 3-bit pattern is one of the defined values.
    #[inline]
    pub const fn is_valid(self) -> bool {
        self.is_empty() || self.is_continuation() || self.unit_type().is_some()
    }
}

impl std::fmt::Display for SlotEncoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.unit_type() {
            Some(t) => write!(f, "{t}"),
            None if self.is_continuation() => f.write_str("(cont)"),
            None if self.is_empty() => f.write_str("-"),
            None => write!(f, "?{:03b}", self.0),
        }
    }
}

/// A per-type count vector: "how many units of each type".
///
/// This is the currency of the whole steering pipeline: the resource
/// requirement encoders emit one (Fig. 2), configuration shapes are one
/// (Table 1), and the CEM generators consume two of them. The paper
/// implements each lane as a **3-bit** quantity because the instruction
/// queue holds at most 7 instructions; [`TypeCounts::saturating_3bit`]
/// reproduces that hardware width when needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct TypeCounts([u8; NUM_UNIT_TYPES]);

impl TypeCounts {
    /// All-zero counts.
    pub const ZERO: TypeCounts = TypeCounts([0; NUM_UNIT_TYPES]);

    /// Build from an array in [`UnitType::ALL`] order
    /// `[IntAlu, IntMdu, Lsu, FpAlu, FpMdu]`.
    #[inline]
    pub const fn new(counts: [u8; NUM_UNIT_TYPES]) -> TypeCounts {
        TypeCounts(counts)
    }

    /// The count for type `t`.
    #[inline]
    pub fn get(&self, t: UnitType) -> u8 {
        self.0[t.index()]
    }

    /// Set the count for type `t`.
    #[inline]
    pub fn set(&mut self, t: UnitType, v: u8) {
        self.0[t.index()] = v;
    }

    /// Increment the count for type `t` (saturating at `u8::MAX`).
    #[inline]
    pub fn add(&mut self, t: UnitType, v: u8) {
        let i = t.index();
        self.0[i] = self.0[i].saturating_add(v);
    }

    /// Sum of all per-type counts.
    #[inline]
    pub fn total(&self) -> u32 {
        self.0.iter().map(|&c| c as u32).sum()
    }

    /// True iff every lane is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&c| c == 0)
    }

    /// Lane-wise saturating add.
    #[inline]
    pub fn saturating_add(&self, other: &TypeCounts) -> TypeCounts {
        let mut out = [0u8; NUM_UNIT_TYPES];
        for (o, (&a, &b)) in out.iter_mut().zip(self.0.iter().zip(other.0.iter())) {
            *o = a.saturating_add(b);
        }
        TypeCounts(out)
    }

    /// Clamp every lane into the hardware's 3-bit range `0..=7`
    /// (the requirement encoders of Fig. 2 are 3 bits wide because the
    /// queue holds at most 7 instructions).
    #[inline]
    pub fn saturating_3bit(&self) -> TypeCounts {
        let mut out = self.0;
        for c in out.iter_mut() {
            *c = (*c).min(7);
        }
        TypeCounts(out)
    }

    /// Total number of reconfigurable slots units with these counts occupy.
    #[inline]
    pub fn slot_cost(&self) -> usize {
        UnitType::ALL
            .iter()
            .map(|&t| self.get(t) as usize * t.slot_cost())
            .sum()
    }

    /// Iterate `(type, count)` pairs in Table-1 order.
    pub fn iter(&self) -> impl Iterator<Item = (UnitType, u8)> + '_ {
        UnitType::ALL.iter().map(move |&t| (t, self.get(t)))
    }

    /// The raw lanes in [`UnitType::ALL`] order.
    #[inline]
    pub fn as_array(&self) -> [u8; NUM_UNIT_TYPES] {
        self.0
    }
}

impl std::ops::Index<UnitType> for TypeCounts {
    type Output = u8;
    #[inline]
    fn index(&self, t: UnitType) -> &u8 {
        &self.0[t.index()]
    }
}

impl std::ops::IndexMut<UnitType> for TypeCounts {
    #[inline]
    fn index_mut(&mut self, t: UnitType) -> &mut u8 {
        &mut self.0[t.index()]
    }
}

impl std::fmt::Display for TypeCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[ALU:{} MDU:{} LSU:{} FPALU:{} FPMDU:{}]",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4]
        )
    }
}

impl FromIterator<(UnitType, u8)> for TypeCounts {
    fn from_iter<I: IntoIterator<Item = (UnitType, u8)>>(iter: I) -> Self {
        let mut c = TypeCounts::ZERO;
        for (t, n) in iter {
            c.add(t, n);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodings_are_unique_and_roundtrip() {
        let mut seen = std::collections::HashSet::new();
        for &t in &UnitType::ALL {
            let e = t.encoding();
            assert!(seen.insert(e), "duplicate encoding {e:03b}");
            assert_eq!(UnitType::from_encoding(e), Some(t));
            assert!(e != SlotEncoding::EMPTY.0 && e != SlotEncoding::CONTINUATION.0);
        }
    }

    #[test]
    fn index_roundtrip() {
        for (i, &t) in UnitType::ALL.iter().enumerate() {
            assert_eq!(t.index(), i);
            assert_eq!(UnitType::from_index(i), Some(t));
        }
        assert_eq!(UnitType::from_index(5), None);
    }

    #[test]
    fn slot_costs_match_paper() {
        assert_eq!(UnitType::Lsu.slot_cost(), 1);
        assert_eq!(UnitType::IntAlu.slot_cost(), 2);
        assert_eq!(UnitType::IntMdu.slot_cost(), 2);
        assert_eq!(UnitType::FpAlu.slot_cost(), 3);
        assert_eq!(UnitType::FpMdu.slot_cost(), 3);
    }

    #[test]
    fn slot_encoding_classification() {
        assert!(SlotEncoding::EMPTY.is_empty());
        assert!(SlotEncoding::CONTINUATION.is_continuation());
        assert!(!SlotEncoding::CONTINUATION.is_empty());
        for &t in &UnitType::ALL {
            let s = SlotEncoding::unit(t);
            assert_eq!(s.unit_type(), Some(t));
            assert!(s.is_valid());
            assert!(!s.is_empty() && !s.is_continuation());
        }
        assert!(!SlotEncoding(0b110).is_valid());
    }

    #[test]
    fn type_counts_basics() {
        let mut c = TypeCounts::ZERO;
        assert!(c.is_zero());
        c.add(UnitType::Lsu, 2);
        c.add(UnitType::FpAlu, 1);
        assert_eq!(c.get(UnitType::Lsu), 2);
        assert_eq!(c.total(), 3);
        assert_eq!(c.slot_cost(), 2 + 3);
        assert_eq!(c[UnitType::FpAlu], 1);
    }

    #[test]
    fn type_counts_saturation() {
        let a = TypeCounts::new([250, 0, 0, 0, 0]);
        let b = TypeCounts::new([10, 1, 0, 0, 0]);
        assert_eq!(a.saturating_add(&b).get(UnitType::IntAlu), 255);
        assert_eq!(a.saturating_3bit().get(UnitType::IntAlu), 7);
    }

    #[test]
    fn from_iterator_accumulates() {
        let c: TypeCounts = [
            (UnitType::IntAlu, 1),
            (UnitType::IntAlu, 2),
            (UnitType::Lsu, 1),
        ]
        .into_iter()
        .collect();
        assert_eq!(c.get(UnitType::IntAlu), 3);
        assert_eq!(c.get(UnitType::Lsu), 1);
    }

    #[test]
    fn display_forms() {
        assert_eq!(UnitType::FpMdu.to_string(), "FP-MDU");
        assert_eq!(SlotEncoding::CONTINUATION.to_string(), "(cont)");
        assert_eq!(SlotEncoding::EMPTY.to_string(), "-");
        assert_eq!(SlotEncoding::unit(UnitType::Lsu).to_string(), "LSU");
    }
}

//! Configuration shapes and the predefined steering configurations
//! (Table 1).
//!
//! A [`Configuration`] is a per-type unit-count vector together with its
//! deterministic placement into RFU slots. Three predefined steering
//! configurations plus the (dynamic) current configuration form the
//! four candidates the selection unit chooses between; a [`SteeringSet`]
//! bundles the predefined three with the FFU baseline.

use crate::alloc::AllocationVector;
use rsp_isa::units::{TypeCounts, UnitType};
use serde::{Deserialize, Serialize};

/// Default number of RFU slots in the architecture (paper §2).
pub(crate) const DEFAULT_RFU_SLOTS: usize = 8;

/// A configuration shape: named per-type unit counts plus their placement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Configuration {
    /// Display name ("Config 1", …).
    pub name: String,
    /// Units of each type this configuration provides in the RFU fabric
    /// (the FFUs are *not* included here; see [`SteeringSet::ffu`]).
    pub counts: TypeCounts,
    /// Deterministic slot placement of `counts`.
    pub placement: AllocationVector,
}

/// Errors from [`Configuration::place`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementError {
    /// The units do not fit in the fabric.
    DoesNotFit {
        /// Total slots required.
        required: usize,
        /// Slots available.
        capacity: usize,
    },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::DoesNotFit { required, capacity } => {
                write!(
                    f,
                    "configuration needs {required} slots, fabric has {capacity}"
                )
            }
        }
    }
}

impl std::error::Error for PlacementError {}

impl Configuration {
    /// Build a configuration by packing `counts` into `slots` RFU slots.
    ///
    /// Placement is canonical: unit types in Table-1 order
    /// (`Int-ALU`, `Int-MDU`, `LSU`, `FP-ALU`, `FP-MDU`), each instance
    /// packed left-to-right. Canonical placement maximises slot overlap
    /// between configurations that share unit prefixes, which is what
    /// makes partial reconfiguration (the XOR diff) effective.
    pub fn place(
        name: impl Into<String>,
        counts: TypeCounts,
        slots: usize,
    ) -> Result<Configuration, PlacementError> {
        let required = counts.slot_cost();
        if required > slots {
            return Err(PlacementError::DoesNotFit {
                required,
                capacity: slots,
            });
        }
        let mut placement = AllocationVector::empty(slots);
        let mut at = 0;
        for &t in &UnitType::ALL {
            for _ in 0..counts.get(t) {
                placement.place(at, t);
                at += t.slot_cost();
            }
        }
        debug_assert_eq!(placement.check(), Ok(()));
        Ok(Configuration {
            name: name.into(),
            counts,
            placement,
        })
    }

    /// Total RFU slots the configuration occupies.
    #[inline]
    pub fn slot_cost(&self) -> usize {
        self.counts.slot_cost()
    }
}

/// The set of predefined steering configurations plus the FFU baseline:
/// everything static that the selection unit and loader consult.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SteeringSet {
    /// The three predefined steering configurations (Configs 1–3).
    pub predefined: Vec<Configuration>,
    /// Units provided in fixed hardware — one of each type in the paper.
    pub ffu: TypeCounts,
    /// Number of RFU slots in the fabric.
    pub rfu_slots: usize,
}

impl SteeringSet {
    /// The paper's default architecture (Table 1, DESIGN.md §5):
    ///
    /// | Config  | ALU | MDU | LSU | FP-ALU | FP-MDU | slots |
    /// |---------|-----|-----|-----|--------|--------|-------|
    /// | FFUs    |  1  |  1  |  1  |   1    |   1    |   —   |
    /// | Config 1|  2  |  1  |  2  |   0    |   0    |   8   |
    /// | Config 2|  1  |  1  |  1  |   1    |   0    |   8   |
    /// | Config 3|  0  |  0  |  2  |   1    |   1    |   8   |
    pub fn paper_default() -> SteeringSet {
        let mk = |name: &str, c: [u8; 5]| {
            Configuration::place(name, TypeCounts::new(c), DEFAULT_RFU_SLOTS)
                .expect("paper defaults must fit the 8-slot fabric")
        };
        SteeringSet {
            predefined: vec![
                mk("Config 1", [2, 1, 2, 0, 0]),
                mk("Config 2", [1, 1, 1, 1, 0]),
                mk("Config 3", [0, 0, 2, 1, 1]),
            ],
            ffu: TypeCounts::new([1, 1, 1, 1, 1]),
            rfu_slots: DEFAULT_RFU_SLOTS,
        }
    }

    /// Build a custom steering set; every configuration must fit
    /// `rfu_slots`.
    pub fn new(
        predefined: Vec<Configuration>,
        ffu: TypeCounts,
        rfu_slots: usize,
    ) -> Result<SteeringSet, PlacementError> {
        for c in &predefined {
            if c.slot_cost() > rfu_slots {
                return Err(PlacementError::DoesNotFit {
                    required: c.slot_cost(),
                    capacity: rfu_slots,
                });
            }
        }
        Ok(SteeringSet {
            predefined,
            ffu,
            rfu_slots,
        })
    }

    /// Total units of each type a predefined configuration provides
    /// *including* the FFUs — the "Avail #" the CEM circuit consumes.
    pub fn total_counts(&self, config_index: usize) -> TypeCounts {
        self.predefined[config_index]
            .counts
            .saturating_add(&self.ffu)
    }

    /// Render the Table-1 style inventory (used by `experiments table1`).
    pub fn table1(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<10} {:>7} {:>7} {:>5} {:>7} {:>7} {:>6}",
            "", "Int-ALU", "Int-MDU", "LSU", "FP-ALU", "FP-MDU", "slots"
        );
        let row = |s: &mut String, name: &str, c: &TypeCounts, slots: Option<usize>| {
            let _ = writeln!(
                s,
                "{:<10} {:>7} {:>7} {:>5} {:>7} {:>7} {:>6}",
                name,
                c.get(UnitType::IntAlu),
                c.get(UnitType::IntMdu),
                c.get(UnitType::Lsu),
                c.get(UnitType::FpAlu),
                c.get(UnitType::FpMdu),
                slots.map(|n| n.to_string()).unwrap_or_else(|| "-".into()),
            );
        };
        row(&mut s, "FFUs", &self.ffu, None);
        for c in &self.predefined {
            row(&mut s, &c.name, &c.counts, Some(c.slot_cost()));
        }
        let _ = writeln!(s);
        let _ = writeln!(s, "Resource type encodings (3-bit):");
        for &t in &UnitType::ALL {
            let _ = writeln!(s, "  {:<8} {:03b}", t.to_string(), t.encoding());
        }
        let _ = writeln!(
            s,
            "  {:<8} {:03b}  (multi-slot continuation)",
            "(cont)", 0b111
        );
        s
    }
}

impl Default for SteeringSet {
    fn default() -> Self {
        SteeringSet::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_fill_fabric_exactly() {
        let set = SteeringSet::paper_default();
        assert_eq!(set.predefined.len(), 3, "Configs 1-3 of Table 1");
        for c in &set.predefined {
            assert_eq!(
                c.slot_cost(),
                DEFAULT_RFU_SLOTS,
                "{} must fill 8 slots",
                c.name
            );
            assert_eq!(c.placement.counts(), c.counts);
            c.placement.check().unwrap();
        }
        // One FFU of every type.
        for &t in &UnitType::ALL {
            assert_eq!(set.ffu.get(t), 1);
        }
    }

    #[test]
    fn total_counts_include_ffus() {
        let set = SteeringSet::paper_default();
        let t0 = set.total_counts(0);
        assert_eq!(t0.get(UnitType::IntAlu), 3); // 2 RFU + 1 FFU
        assert_eq!(t0.get(UnitType::FpMdu), 1); // 0 RFU + 1 FFU
    }

    #[test]
    fn placement_is_canonical_and_deterministic() {
        let a = Configuration::place("x", TypeCounts::new([1, 0, 2, 1, 0]), 8).unwrap();
        let b = Configuration::place("x", TypeCounts::new([1, 0, 2, 1, 0]), 8).unwrap();
        assert_eq!(a, b);
        // Type order: IntAlu(2 slots) then 2×LSU then FP-ALU(3).
        assert_eq!(a.placement.unit_at(0).unwrap().unit, UnitType::IntAlu);
        assert_eq!(a.placement.unit_at(2).unwrap().unit, UnitType::Lsu);
        assert_eq!(a.placement.unit_at(3).unwrap().unit, UnitType::Lsu);
        assert_eq!(a.placement.unit_at(4).unwrap().unit, UnitType::FpAlu);
    }

    #[test]
    fn overfull_configuration_rejected() {
        let err = Configuration::place("big", TypeCounts::new([3, 3, 0, 0, 0]), 8).unwrap_err();
        assert_eq!(
            err,
            PlacementError::DoesNotFit {
                required: 12,
                capacity: 8
            }
        );
        let set = SteeringSet::new(
            vec![Configuration::place("ok", TypeCounts::new([1, 0, 0, 0, 0]), 8).unwrap()],
            TypeCounts::ZERO,
            1,
        );
        assert!(set.is_err());
    }

    #[test]
    fn shared_prefixes_overlap_in_placement() {
        // Config 1 and Config 2 both start with an Int-ALU at slot 0-1;
        // the loader walks the target's placed units and skips one that
        // is already in place, so partial reconfiguration between them
        // must not touch those slots.
        let set = SteeringSet::paper_default();
        let shared = set.predefined[0].placement.unit_at(0);
        assert_eq!(
            shared.map(|pu| (pu.head, pu.unit)),
            Some((0, UnitType::IntAlu))
        );
        assert!(
            set.predefined[1]
                .placement
                .units()
                .any(|pu| Some(pu) == shared),
            "Config 2 does not place Config 1's Int-ALU at slot 0"
        );
    }

    #[test]
    fn table1_renders_all_rows() {
        let t = SteeringSet::paper_default().table1();
        for name in [
            "FFUs", "Config 1", "Config 2", "Config 3", "Int-ALU", "FP-MDU", "111",
        ] {
            assert!(t.contains(name), "missing {name} in:\n{t}");
        }
    }
}

//! Steering sets for fabric sizes other than the paper's 8 slots
//! (experiment E9's slot-count axis).
//!
//! Each paper configuration defines a *direction* (its unit-type ratio);
//! for a fabric of `slots` we scale counts by `slots / 8` and then
//! greedily top up along the direction until no further unit fits. For
//! small fabrics (< 8 slots) the scaled counts shrink; a configuration
//! that still does not fit falls back to LSU fill.

use rsp_fabric::config::{Configuration, SteeringSet};
use rsp_isa::units::{TypeCounts, UnitType};

/// Direction vectors of the paper's three steering configurations.
const DIRECTIONS: [[u8; 5]; 3] = [
    [2, 1, 2, 0, 0], // Config 1: integer
    [1, 1, 1, 1, 0], // Config 2: mixed
    [0, 0, 2, 1, 1], // Config 3: floating point
];

fn scale_direction(dir: &[u8; 5], slots: usize) -> TypeCounts {
    let mut counts = TypeCounts::ZERO;
    // Base: floor-scale the direction.
    for &t in &UnitType::ALL {
        let scaled = (dir[t.index()] as usize * slots) / 8;
        counts.set(t, scaled as u8);
    }
    while counts.slot_cost() > slots {
        // Shrink: drop the most expensive populated type.
        let t = *UnitType::ALL
            .iter()
            .filter(|t| counts.get(**t) > 0)
            .max_by_key(|t| t.slot_cost())
            .expect("non-empty");
        counts.set(t, counts.get(t) - 1);
    }
    // Top up along the direction's populated types, widest units first
    // (so an FP direction spends remaining slots on FP units before
    // falling back to cheap fillers), then LSU-fill any remainder.
    let mut order: Vec<UnitType> = UnitType::ALL
        .iter()
        .copied()
        .filter(|t| dir[t.index()] > 0)
        .collect();
    order.sort_by_key(|t| std::cmp::Reverse(t.slot_cost()));
    loop {
        let mut grown = false;
        for &t in &order {
            if t.slot_cost() <= slots - counts.slot_cost() {
                counts.add(t, 1);
                grown = true;
            }
        }
        if !grown {
            let free = slots - counts.slot_cost();
            counts.add(UnitType::Lsu, free as u8);
            break;
        }
    }
    counts
}

/// A steering set analogous to Table 1 for a fabric of `slots` RFU
/// slots (`slots == 8` reproduces the paper's set exactly).
pub(crate) fn scaled_paper_set(slots: usize) -> SteeringSet {
    if slots == 8 {
        return SteeringSet::paper_default();
    }
    let predefined = DIRECTIONS
        .iter()
        .enumerate()
        .map(|(i, dir)| {
            let counts = scale_direction(dir, slots);
            Configuration::place(format!("Config {}", i + 1), counts, slots)
                .expect("scaled counts fit by construction")
        })
        .collect();
    SteeringSet::new(predefined, TypeCounts::new([1, 1, 1, 1, 1]), slots).expect("configs fit")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_slots_is_the_paper_set() {
        assert_eq!(scaled_paper_set(8), SteeringSet::paper_default());
    }

    #[test]
    fn scaled_sets_fit_and_fill() {
        for slots in [4, 6, 8, 12, 16, 24] {
            let set = scaled_paper_set(slots);
            assert_eq!(set.rfu_slots, slots);
            for c in &set.predefined {
                assert!(c.slot_cost() <= slots, "{} at {slots}", c.name);
                // At least 75% of the fabric used (no pathological waste).
                assert!(
                    c.slot_cost() * 4 >= slots * 3,
                    "{} wastes fabric at {slots}: {} slots",
                    c.name,
                    c.slot_cost()
                );
                c.placement.check().unwrap();
            }
        }
    }

    #[test]
    fn directions_preserved_at_16_slots() {
        let set = scaled_paper_set(16);
        // Config 1 stays integer-dominated; Config 3 stays FP-dominated.
        let c1 = &set.predefined[0].counts;
        let c3 = &set.predefined[2].counts;
        assert!(c1.get(UnitType::IntAlu) >= 4);
        assert_eq!(c1.get(UnitType::FpAlu) + c1.get(UnitType::FpMdu), 0);
        assert!(c3.get(UnitType::FpAlu) >= 2);
        assert!(c3.get(UnitType::FpMdu) >= 2);
    }
}

//! Grant arbitration.
//!
//! The wake-up logic is *select-free*: it "only determines when an
//! instruction is ready for execution and generates an execution request
//! … contention between instructions must be handled by the scheduler
//! after multiple instructions that use the same resources request
//! execution" (paper §4.1). This module is that scheduler: it matches
//! requesting entries to idle units of their type, **oldest first** (by
//! entry tag), at most one instruction per idle unit per cycle.

use crate::wakeup::{bits, SlotIdx, WakeupArray};
use rsp_isa::units::{TypeCounts, UnitType, NUM_UNIT_TYPES};

/// One issued grant: which slot goes to which unit type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The wake-up slot granted execution.
    pub slot: SlotIdx,
    /// The unit type it issues to.
    pub unit: UnitType,
}

/// Arbitrate one cycle into a caller-provided buffer (cleared first):
/// `requests` are the requesting slots (from
/// [`WakeupArray::requests_into`]); `idle_units[t]` is the number of
/// idle units of each type. Grants come out grouped by unit type in
/// [`UnitType::ALL`] order, oldest tag first within a type (ties, which
/// the simulator never produces, by slot).
///
/// Allocation-free once `grants` can hold every request: the requests
/// are bucketed into one slot mask per type, and each type's bucket is
/// emitted in slot order, put in `(tag, slot)` order when it holds more
/// than one request, and cut to the type's idle quota. The hot loop
/// reuses one grant buffer per machine, sized to the array capacity.
///
/// Note the arbiter does **not** mutate the array — the caller issues
/// [`WakeupArray::grant`] per returned grant once it has bound a concrete
/// unit (the simulator also marks the unit busy in the fabric).
pub fn arbitrate_into(
    array: &WakeupArray,
    requests: &[SlotIdx],
    idle_units: &TypeCounts,
    grants: &mut Vec<Grant>,
) {
    grants.clear();
    let mut by_type = [0u64; NUM_UNIT_TYPES];
    for &s in requests {
        let e = array.get(s).expect("requesting slot must be occupied");
        by_type[e.unit.index()] |= 1 << s;
    }
    let age = |g: &Grant| (array.get(g.slot).map_or(0, |e| e.tag), g.slot);
    for (unit, (mask, quota)) in UnitType::ALL
        .into_iter()
        .zip(by_type.into_iter().zip(idle_units.as_array()))
    {
        if mask == 0 || quota == 0 {
            continue;
        }
        let start = grants.len();
        grants.extend(bits(mask).map(|slot| Grant { slot, unit }));
        let bucket = &mut grants[start..];
        let n = bucket.len();
        if n > 1 {
            bucket.sort_unstable_by_key(age);
        }
        grants.truncate(start + n.min(quota as usize));
    }
}

/// [`arbitrate_into`] with a freshly allocated grant buffer.
pub fn arbitrate(array: &WakeupArray, requests: &[SlotIdx], idle_units: &TypeCounts) -> Vec<Grant> {
    let mut grants = Vec::with_capacity(requests.len());
    arbitrate_into(array, requests, idle_units, &mut grants);
    grants
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_bounded_by_idle_units() {
        let mut w = WakeupArray::paper();
        for i in 0..4 {
            w.insert(UnitType::IntAlu, &[], 10 + i).unwrap();
        }
        let reqs = w.requests(&[true; 5]);
        assert_eq!(reqs.len(), 4);
        let grants = arbitrate(&w, &reqs, &TypeCounts::new([2, 0, 0, 0, 0]));
        assert_eq!(grants.len(), 2);
        // Oldest (lowest tag) first.
        assert_eq!(grants[0].slot, 0);
        assert_eq!(grants[1].slot, 1);
    }

    #[test]
    fn oldest_first_is_by_tag_not_slot() {
        let mut w = WakeupArray::paper();
        // Fill, then clear slot 0 and reuse it for a *younger* entry.
        let a = w.insert(UnitType::IntAlu, &[], 100).unwrap();
        let _b = w.insert(UnitType::IntAlu, &[], 50).unwrap();
        w.clear(a);
        let c = w.insert(UnitType::IntAlu, &[], 200).unwrap();
        assert_eq!(c, 0, "slot reused");
        let reqs = w.requests(&[true; 5]);
        let grants = arbitrate(&w, &reqs, &TypeCounts::new([1, 0, 0, 0, 0]));
        assert_eq!(
            grants,
            vec![Grant {
                slot: 1,
                unit: UnitType::IntAlu
            }]
        );
    }

    #[test]
    fn types_arbitrate_independently() {
        let mut w = WakeupArray::paper();
        w.insert(UnitType::IntAlu, &[], 0).unwrap();
        w.insert(UnitType::Lsu, &[], 1).unwrap();
        w.insert(UnitType::FpMdu, &[], 2).unwrap();
        let reqs = w.requests(&[true; 5]);
        let grants = arbitrate(&w, &reqs, &TypeCounts::new([1, 1, 1, 1, 1]));
        assert_eq!(grants.len(), 3);
        let grants = arbitrate(&w, &reqs, &TypeCounts::new([0, 0, 1, 0, 1]));
        assert_eq!(grants.len(), 2);
        assert!(grants.iter().all(|g| g.unit != UnitType::IntAlu));
    }

    #[test]
    fn no_requests_no_grants() {
        let w = WakeupArray::paper();
        assert!(arbitrate(&w, &[], &TypeCounts::new([7, 7, 7, 7, 7])).is_empty());
    }
}

//! Differential property test for the mask-based select path.
//!
//! The wake-up array keeps its request lines as bit masks (ready,
//! unscheduled, one column per unit type, transposed dependents), and
//! the arbiter buckets requests into per-type masks. Both must equal
//! their specifications after every mutation:
//!
//! * `requests_into` against the per-slot Fig. 6 walk of
//!   `requests_entry`;
//! * `arbitrate_into` against the keyed-sort arbiter below — one
//!   `(type, tag, slot)` sort of every request, then the idle quota per
//!   type — under random idle quotas.
//!
//! Random operation sequences cover insert (with non-monotone and
//! repeated tags), grant, tick, clear (retire or squash, so slots are
//! reused), reschedule (the replay path the simulator never takes) and
//! reset, at every capacity from 1 to 64.

use proptest::prelude::*;
use rsp_isa::units::{TypeCounts, UnitType};
use rsp_sched::{arbitrate_into, Grant, SlotIdx, WakeupArray};

/// The keyed-sort arbiter: `(type index, tag, slot)` sorts into exactly
/// the emission order — types ascending, oldest tag first within a type
/// — and each type then takes up to its idle quota.
fn arbitrate_reference(
    array: &WakeupArray,
    requests: &[SlotIdx],
    idle_units: &TypeCounts,
) -> Vec<Grant> {
    let mut keyed = [(0usize, 0u64, 0usize); 64];
    let n = requests.len();
    for (k, &s) in keyed.iter_mut().zip(requests) {
        let e = array.get(s).expect("requesting slot must be occupied");
        *k = (e.unit.index(), e.tag, s);
    }
    let keyed = &mut keyed[..n];
    keyed.sort_unstable();
    let mut quota_left = idle_units.as_array();
    let mut grants = Vec::new();
    for &(t, _, slot) in keyed.iter() {
        if quota_left[t] > 0 {
            quota_left[t] -= 1;
            grants.push(Grant {
                slot,
                unit: UnitType::from_index(t).expect("valid type index"),
            });
        }
    }
    grants
}

/// One random step. `x` and `y` are raw draws; each operation reads
/// what it needs from them against the array's current state.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert,
    Grant,
    Tick,
    Clear,
    Reschedule,
    Reset,
}

/// Weighted by `k` in `0..20`: inserts and grants dominate so the array
/// fills; reset is rare so sequences get long enough to reuse slots.
fn op_of(k: u8) -> Op {
    match k {
        0..=5 => Op::Insert,
        6..=9 => Op::Grant,
        10..=13 => Op::Tick,
        14..=16 => Op::Clear,
        17..=18 => Op::Reschedule,
        _ => Op::Reset,
    }
}

/// The `k mod len`-th set bit of `mask`, if any.
fn pick(mask: u64, k: u64) -> Option<SlotIdx> {
    let n = mask.count_ones() as u64;
    if n == 0 {
        return None;
    }
    let mut m = mask;
    for _ in 0..k % n {
        m &= m - 1;
    }
    Some(m.trailing_zeros() as SlotIdx)
}

fn occupied(w: &WakeupArray) -> u64 {
    w.entries().fold(0, |m, (s, _)| m | 1 << s)
}

fn apply(w: &mut WakeupArray, op: Op, x: u64, y: u64) {
    match op {
        Op::Insert => {
            let unit = UnitType::from_index((x % 5) as usize).unwrap();
            // A random subset of the live entries as producers.
            let deps: Vec<SlotIdx> = (0..w.capacity())
                .filter(|&s| occupied(w) & y & 1 << s != 0)
                .collect();
            // Tags in a small range: non-monotone, and sometimes equal.
            let tag = (x >> 8) % 48;
            let _ = w.insert(unit, &deps, tag);
        }
        Op::Grant => {
            let unscheduled = w
                .entries()
                .filter(|(_, e)| !e.scheduled)
                .fold(0, |m, (s, _)| m | 1 << s);
            if let Some(s) = pick(unscheduled, y) {
                w.grant(s, 1 + (x % 6) as u32);
            }
        }
        Op::Tick => w.tick(),
        Op::Clear => {
            if let Some(s) = pick(occupied(w), y) {
                w.clear(s);
            }
        }
        Op::Reschedule => {
            // Any live slot: unscheduled ones exercise the no-op path.
            if let Some(s) = pick(occupied(w), y) {
                w.reschedule(s);
            }
        }
        Op::Reset => w.reset(),
    }
}

/// Every mask-backed reading against its scan, then the select path
/// against its specification under availability lines and idle quotas
/// drawn from `x` and `y`.
fn check(w: &WakeupArray, x: u64, y: u64, buf: &mut Vec<SlotIdx>, grants: &mut Vec<Grant>) {
    assert_eq!(w.ready(), w.ready_scan(), "ready mask");
    for s in 0..w.capacity() {
        assert_eq!(w.dependents(s), w.dependents_scan(s), "dependents of {s}");
    }
    assert_eq!(w.demand_ready(), w.demand_ready_scan(), "ready demand");
    assert_eq!(
        w.demand_unscheduled(),
        w.demand_unscheduled_scan(),
        "unscheduled demand"
    );

    let lines = (x >> 16) as u8;
    for avail in [[true; 5], std::array::from_fn(|t| lines & 1 << t != 0)] {
        // A dirty buffer: `requests_into` must clear it first.
        buf.push(99);
        w.requests_into(&avail, buf);
        let walk: Vec<SlotIdx> = (0..w.capacity())
            .filter(|&s| w.requests_entry(s, &avail))
            .collect();
        assert_eq!(*buf, walk, "requests under {avail:?}");

        for idle in [
            TypeCounts::new(std::array::from_fn(|t| (y >> (8 * t)) as u8 % 4)),
            TypeCounts::new([64; 5]),
            TypeCounts::new([1; 5]),
        ] {
            grants.push(Grant {
                slot: 99,
                unit: UnitType::IntAlu,
            });
            arbitrate_into(w, buf, &idle, grants);
            assert_eq!(
                *grants,
                arbitrate_reference(w, buf, &idle),
                "grants for {buf:?} under idle {idle:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_mask_select_matches_spec(
        capacity in prop_oneof![1usize..=8, 9usize..=64],
        ops in proptest::collection::vec((0u8..20, any::<u64>(), any::<u64>()), 1..160),
    ) {
        let mut w = WakeupArray::new(capacity);
        let mut buf = Vec::new();
        let mut grants = Vec::new();
        for (k, x, y) in ops {
            apply(&mut w, op_of(k), x, y);
            check(&w, x, y, &mut buf, &mut grants);
        }
    }
}

/// Reschedule of an available producer pulls its ready dependents out
/// of the request set, and slot reuse under a younger tag loses
/// arbitration to an older entry in a higher slot.
#[test]
fn replay_and_reuse_follow_the_spec() {
    let mut w = WakeupArray::new(4);
    let mut buf = Vec::new();
    let mut grants = Vec::new();
    let p = w.insert(UnitType::IntAlu, &[], 10).unwrap();
    let c = w.insert(UnitType::IntAlu, &[p], 11).unwrap();
    w.grant(p, 1);
    w.tick();
    assert_eq!(w.requests(&[true; 5]), vec![c]);
    w.reschedule(p);
    assert_eq!(w.requests(&[true; 5]), vec![p], "c waits on p again");
    check(&w, 0, 0, &mut buf, &mut grants);
    w.clear(p);
    let young = w.insert(UnitType::IntAlu, &[], 30).unwrap();
    assert_eq!(young, p, "slot reused");
    w.requests_into(&[true; 5], &mut buf);
    arbitrate_into(&w, &buf, &TypeCounts::new([1, 0, 0, 0, 0]), &mut grants);
    assert_eq!(
        grants,
        vec![Grant {
            slot: c,
            unit: UnitType::IntAlu
        }]
    );
    check(&w, u64::MAX, 0x01_0101_0101, &mut buf, &mut grants);
}

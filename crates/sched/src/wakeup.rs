//! The wake-up array (paper §4.1, Figs. 5 and 6).
//!
//! Each occupied entry holds:
//! * a **resource vector** — which one of the five unit types the
//!   instruction needs (Fig. 5's left columns);
//! * **dependency columns** — which other entries must produce a result
//!   before this one may execute (Fig. 5's right columns);
//! * a **scheduled bit** — set on grant so the entry stops requesting
//!   ("to keep an instruction from requesting execution once it has been
//!   scheduled, since instructions may take several cycles");
//! * a **countdown timer** — started on grant; the entry's
//!   result-available line asserts when the producer's result can feed
//!   dependents.
//!
//! ### Timer convention
//!
//! The paper sets the timer to `N − 1` for an `N`-cycle instruction and
//! asserts the line "once the time reaches a count of one"; a one-cycle
//! instruction asserts immediately. Observably this means: a dependent's
//! request line can first assert `N` cycles after the producer's grant
//! (the wake-up/select loop is one cycle). This module realises the same
//! observable timing with a simpler convention: [`WakeupArray::grant`]
//! sets `timer = N`; [`WakeupArray::tick`] decrements; the
//! result-available line is the predicate `timer == 0`. Requests are
//! evaluated at the top of each cycle, before grants and ticks, so a
//! producer granted at cycle `C` with latency `N` wakes dependents at
//! cycle `C + N` — one-cycle producers chain back-to-back.
//! [`Entry::paper_timer`] converts back to the paper's `N − 1` count for
//! the Fig. 6 trace output.
//!
//! Entries are **not** removed at completion but at retirement ("entries
//! … are not removed until the instruction is retired"); clearing an
//! entry clears its column in every dependent entry, so late-arriving
//! dependents never wait on a retired producer.

use rsp_isa::units::{TypeCounts, UnitType, NUM_UNIT_TYPES};
use serde::{Deserialize, Serialize};

/// The paper's instruction queue depth: seven entries, which is what
/// makes the 3-bit requirement encoders and adders sufficient.
pub const PAPER_QUEUE_SIZE: usize = 7;

/// Index of a wake-up array slot.
pub type SlotIdx = usize;

/// One wake-up array entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Entry {
    /// The one functional-unit type this instruction needs (its one-hot
    /// resource vector).
    pub unit: UnitType,
    /// Dependency columns: bit `i` set ⇒ this entry needs the result of
    /// the entry in slot `i`. (Capacity ≤ 64 slots.)
    pub deps: u64,
    /// The scheduled bit.
    pub scheduled: bool,
    /// Remaining cycles until this entry's result-available line asserts
    /// (`None` before grant; `Some(0)` = asserted).
    pub timer: Option<u32>,
    /// Caller-supplied identity (ROB index / sequence number); also the
    /// age key for oldest-first arbitration.
    pub tag: u64,
}

impl Entry {
    /// The entry's result-available line.
    #[inline]
    pub(crate) fn result_available(&self) -> bool {
        self.timer == Some(0)
    }

    /// The timer in the paper's `N − 1` convention (`None` before grant
    /// or once asserted).
    pub fn paper_timer(&self) -> Option<u32> {
        match self.timer {
            Some(t) if t > 0 => Some(t.saturating_sub(1)),
            _ => None,
        }
    }
}

/// Lifecycle state of an entry, derived for traces and assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EntryState {
    /// Waiting on dependencies or resources; requesting when both clear.
    Waiting,
    /// Granted; executing (timer running).
    Executing,
    /// Result available; occupying the slot until retirement.
    Done,
}

/// One row of the array: the entry plus the per-slot bookkeeping the
/// masks are derived from, kept together so a wake-up touches one row.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
struct Row {
    entry: Option<Entry>,
    /// Dependency columns whose producer result is not yet available
    /// (0 for an empty slot). `pending == 0` is the entry's wake-up
    /// condition.
    pending: u8,
    /// The transposed dependency column: bit `d` set ⇔ the entry in
    /// slot `d` has this slot's bit in its `deps` row. A producer's
    /// result line fans out to exactly these slots.
    dependents: u64,
}

/// Iterate the set bits of `mask` as slot indices, lowest first.
#[inline]
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = SlotIdx> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let s = mask.trailing_zeros() as SlotIdx;
            mask &= mask - 1;
            s
        })
    })
}

/// The wake-up array.
///
/// The bit-matrix columns of Fig. 5 are its source of truth: besides
/// the per-slot rows it keeps one `u64` per line group (occupied,
/// unscheduled, ready, running timer, one per unit type), so a cycle's
/// request lines, demand signatures and wake-ups are mask operations.
///
/// ```
/// use rsp_sched::WakeupArray;
/// use rsp_isa::UnitType;
///
/// let mut w = WakeupArray::paper(); // 7 entries
/// let producer = w.insert(UnitType::IntAlu, &[], 0).unwrap();
/// let consumer = w.insert(UnitType::IntMdu, &[producer], 1).unwrap();
///
/// // Only the producer requests; the consumer waits on its column.
/// assert_eq!(w.requests(&[true; 5]), vec![producer]);
/// w.grant(producer, 2); // 2-cycle latency
/// w.tick();
/// assert!(w.requests(&[true; 5]).is_empty(), "result not ready yet");
/// w.tick();
/// assert_eq!(w.requests(&[true; 5]), vec![consumer]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WakeupArray {
    rows: Vec<Row>,
    /// Occupied slots: occupancy queries and `insert`'s free-slot
    /// search are bit operations instead of slot scans.
    occupied: u64,
    /// Occupied slots whose scheduled bit is clear.
    unscheduled: u64,
    /// Unscheduled slots with `pending == 0`: the request lines with
    /// every resource available.
    ready: u64,
    /// Slots whose countdown timer is still running (`timer == Some(t)`
    /// with `t > 0`): `tick` walks only these.
    ticking: u64,
    /// The resource vectors as columns: occupied slots needing each
    /// unit type, indexed by [`UnitType::index`].
    of_type: [u64; NUM_UNIT_TYPES],
}

impl WakeupArray {
    /// An empty array of `capacity` slots (≤ 64).
    pub fn new(capacity: usize) -> WakeupArray {
        assert!((1..=64).contains(&capacity), "capacity must be 1..=64");
        WakeupArray {
            rows: vec![Row::default(); capacity],
            occupied: 0,
            unscheduled: 0,
            ready: 0,
            ticking: 0,
            of_type: [0; NUM_UNIT_TYPES],
        }
    }

    /// The paper's seven-entry array.
    pub fn paper() -> WakeupArray {
        WakeupArray::new(PAPER_QUEUE_SIZE)
    }

    /// Empty every slot for a fresh run, keeping the allocation (used by
    /// the simulator's batched driver).
    pub fn reset(&mut self) {
        self.rows.fill(Row::default());
        self.occupied = 0;
        self.unscheduled = 0;
        self.ready = 0;
        self.ticking = 0;
        self.of_type = [0; NUM_UNIT_TYPES];
    }

    /// Capacity in slots.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.rows.len()
    }

    /// Occupied slot count.
    #[inline]
    pub fn len(&self) -> usize {
        self.occupied_mask().count_ones() as usize
    }

    /// True iff no slot is occupied.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.occupied_mask() == 0
    }

    /// True iff every slot is occupied.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.free_slot().is_none()
    }

    /// The slot [`WakeupArray::insert`] would fill next: the lowest free
    /// slot, or `None` when the array is full.
    #[inline]
    pub fn free_slot(&self) -> Option<SlotIdx> {
        let free = !self.occupied_mask() & (u64::MAX >> (64 - self.capacity()));
        (free != 0).then(|| free.trailing_zeros() as SlotIdx)
    }

    /// The occupancy mask (bit `i` set ⇒ slot `i` holds an entry).
    #[inline]
    fn occupied_mask(&self) -> u64 {
        debug_assert_eq!(self.occupied, self.occupied_scan());
        self.occupied
    }

    /// The occupancy mask recomputed from scratch by scanning every slot
    /// — the specification the incremental mask is checked against.
    pub fn occupied_scan(&self) -> u64 {
        self.entries().fold(0, |m, (i, _)| m | 1 << i)
    }

    /// The ready mask: bit `i` set ⇒ slot `i` is unscheduled with every
    /// dependency column satisfied, so it requests whenever an idle
    /// unit of its type exists.
    #[inline]
    pub fn ready(&self) -> u64 {
        debug_assert_eq!(self.ready, self.ready_scan());
        self.ready
    }

    /// The ready mask recomputed from scratch via the per-entry
    /// dependency walk of [`WakeupArray::requests_entry`] — the
    /// specification [`WakeupArray::ready`] is checked against.
    pub fn ready_scan(&self) -> u64 {
        (0..self.capacity())
            .filter(|&s| self.requests_entry(s, &[true; 5]))
            .fold(0, |m, s| m | 1 << s)
    }

    /// The transposed dependency column of `slot`: bit `d` set ⇒ the
    /// entry in slot `d` waits on (or waited on) this slot's result.
    #[inline]
    pub fn dependents(&self, slot: SlotIdx) -> u64 {
        debug_assert_eq!(self.rows[slot].dependents, self.dependents_scan(slot));
        self.rows[slot].dependents
    }

    /// [`WakeupArray::dependents`] recomputed from scratch by scanning
    /// every entry's `deps` row — its specification.
    pub fn dependents_scan(&self, slot: SlotIdx) -> u64 {
        self.entries()
            .filter(|(_, e)| e.deps & 1 << slot != 0)
            .fold(0, |m, (i, _)| m | 1 << i)
    }

    /// The entry in `slot`, if any.
    #[inline]
    pub fn get(&self, slot: SlotIdx) -> Option<&Entry> {
        self.rows.get(slot).and_then(|r| r.entry.as_ref())
    }

    /// Iterate `(slot, entry)` over occupied slots.
    pub fn entries(&self) -> impl Iterator<Item = (SlotIdx, &Entry)> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.entry.as_ref().map(|e| (i, e)))
    }

    /// Insert an instruction needing `unit`, depending on the results of
    /// `deps` (slot indices of in-flight producers), with age `tag`.
    /// Returns the allocated slot, or `None` if the array is full.
    ///
    /// # Panics
    /// Panics if a dependency references an empty slot — the register
    /// update unit must only record dependencies on live entries.
    pub fn insert(&mut self, unit: UnitType, deps: &[SlotIdx], tag: u64) -> Option<SlotIdx> {
        let free = self.free_slot()?;
        let bit = 1u64 << free;
        let mut depmask = 0u64;
        for &d in deps {
            assert!(d < self.capacity(), "dependency slot out of range");
            assert!(d != free, "self-dependency");
            assert!(
                self.occupied & 1 << d != 0,
                "dependency on an empty slot {d}"
            );
            depmask |= 1 << d;
        }
        // Count producers whose result is not yet available (the mask
        // de-duplicates repeated dependency mentions) and enter this
        // slot in each producer's dependents column.
        let mut pending = 0u8;
        for d in bits(depmask) {
            let producer = &mut self.rows[d];
            producer.dependents |= bit;
            if !producer.entry.as_ref().unwrap().result_available() {
                pending += 1;
            }
        }
        let row = &mut self.rows[free];
        row.entry = Some(Entry {
            unit,
            deps: depmask,
            scheduled: false,
            timer: None,
            tag,
        });
        row.pending = pending;
        self.occupied |= bit;
        self.unscheduled |= bit;
        self.of_type[unit.index()] |= bit;
        if pending == 0 {
            self.ready |= bit;
        }
        Some(free)
    }

    /// Fig. 6 for one entry: does it request execution this cycle?
    ///
    /// `resource_available[t]` are the five availability lines computed
    /// by the Eq. 1 circuits (true = an idle unit of that type exists).
    pub fn requests_entry(&self, slot: SlotIdx, resource_available: &[bool; 5]) -> bool {
        let Some(e) = self.get(slot) else {
            return false;
        };
        if e.scheduled {
            return false;
        }
        if !resource_available[e.unit.index()] {
            return false;
        }
        // Every needed entry column must have its available line high.
        for d in bits(e.deps) {
            match self.get(d) {
                Some(p) if p.result_available() => {}
                Some(_) => return false,
                // Column bits on empty slots cannot exist: clear()
                // removes them. Defensive: treat as satisfied.
                None => {}
            }
        }
        true
    }

    /// All requesting slots this cycle, in slot order, appended to a
    /// caller-provided buffer (cleared first). The hot loop reuses one
    /// buffer across cycles so no allocation happens in steady state.
    /// The request lines are the mask of [`WakeupArray::requesting`],
    /// standing in for the per-entry walk of
    /// [`WakeupArray::requests_entry`].
    pub fn requests_into(&self, resource_available: &[bool; 5], out: &mut Vec<SlotIdx>) {
        out.clear();
        let requesting = self.requesting(resource_available);
        out.extend(bits(requesting));
        #[cfg(debug_assertions)]
        for s in 0..self.capacity() {
            assert_eq!(
                requesting & 1 << s != 0,
                self.requests_entry(s, resource_available),
                "request mask out of sync with dependency walk in slot {s}"
            );
        }
    }

    /// The request lines as a mask (bit `i` set ⇒ slot `i` requests):
    /// the ready mask ANDed with the resource columns of the available
    /// types. Zero means [`WakeupArray::requests_into`] would emit
    /// nothing.
    #[inline]
    pub fn requesting(&self, resource_available: &[bool; 5]) -> u64 {
        let mut wanted = 0u64;
        for (t, &avail) in resource_available.iter().enumerate() {
            if avail {
                wanted |= self.of_type[t];
            }
        }
        self.ready() & wanted
    }

    /// All requesting slots this cycle, in slot order.
    pub fn requests(&self, resource_available: &[bool; 5]) -> Vec<SlotIdx> {
        let mut out = Vec::with_capacity(self.capacity());
        self.requests_into(resource_available, &mut out);
        out
    }

    /// Grant execution to `slot` with the instruction's `latency`
    /// (cycles ≥ 1): sets the scheduled bit and starts the countdown.
    ///
    /// # Panics
    /// Panics if the slot is empty or already scheduled.
    pub fn grant(&mut self, slot: SlotIdx, latency: u32) {
        let e = self.rows[slot].entry.as_mut().expect("grant on empty slot");
        assert!(!e.scheduled, "grant on already-scheduled slot {slot}");
        assert!(latency >= 1, "latency must be at least one cycle");
        e.scheduled = true;
        e.timer = Some(latency);
        // Now neither unscheduled nor ready. The timer starts ≥ 1, so no
        // result became available.
        let bit = 1u64 << slot;
        self.ticking |= bit;
        self.unscheduled &= !bit;
        self.ready &= !bit;
    }

    /// The reschedule input of the scheduled bit (Fig. 6): de-assert it
    /// so the entry requests again (replay). Clears the timer.
    pub fn reschedule(&mut self, slot: SlotIdx) {
        let row = &mut self.rows[slot];
        let Some(e) = row.entry.as_mut() else {
            return;
        };
        if !e.scheduled {
            // Unscheduled entries carry no timer; nothing changes.
            debug_assert_eq!(e.timer, None);
            return;
        }
        let was_available = e.result_available();
        e.scheduled = false;
        e.timer = None;
        let bit = 1u64 << slot;
        self.ticking &= !bit;
        self.unscheduled |= bit;
        if row.pending == 0 {
            self.ready |= bit;
        }
        if was_available {
            // The result line de-asserts: dependents lose a satisfied
            // column and may fall out of the ready set.
            self.producer_result_lost(slot);
        }
    }

    /// Retire (or squash) the entry in `slot`: empty the slot and clear
    /// its column in every dependent entry.
    pub fn clear(&mut self, slot: SlotIdx) {
        let dependents = self.dependents(slot);
        let row = &mut self.rows[slot];
        let Some(e) = row.entry.take() else {
            // Already empty: column bits on empty slots cannot exist.
            return;
        };
        row.pending = 0;
        row.dependents = 0;
        let bit = 1u64 << slot;
        self.occupied &= !bit;
        self.unscheduled &= !bit;
        self.ready &= !bit;
        self.ticking &= !bit;
        self.of_type[e.unit.index()] &= !bit;
        // Leave the dependents columns of this entry's producers.
        for p in bits(e.deps) {
            self.rows[p].dependents &= !bit;
        }
        let result_was_missing = !e.result_available();
        for d in bits(dependents) {
            let row = &mut self.rows[d];
            row.entry.as_mut().expect("dependent slot occupied").deps &= !bit;
            if result_was_missing {
                // The dependent was counting this unavailable producer;
                // dropping the column may complete its wake-up.
                debug_assert!(row.pending > 0);
                row.pending -= 1;
                if row.pending == 0 {
                    self.ready |= self.unscheduled & 1 << d;
                }
            }
        }
    }

    /// Advance every running countdown timer by one cycle.
    pub fn tick(&mut self) {
        // Decrement running timers (only the slots in the `ticking` mask
        // — expired timers stay at zero and are skipped). A 1 → 0
        // transition asserts the result line, which fans out down the
        // producer's dependents column.
        for p in bits(self.ticking) {
            let row = &mut self.rows[p];
            let e = row.entry.as_mut().expect("ticking bit set on empty slot");
            let t = e.timer.as_mut().expect("ticking bit set without timer");
            debug_assert!(*t > 0, "ticking bit set on expired timer");
            *t -= 1;
            if *t > 0 {
                continue;
            }
            let dependents = row.dependents;
            self.ticking &= !(1 << p);
            debug_assert_eq!(dependents, self.dependents_scan(p));
            for d in bits(dependents) {
                let row = &mut self.rows[d];
                debug_assert!(row.pending > 0);
                row.pending -= 1;
                if row.pending == 0 {
                    self.ready |= self.unscheduled & 1 << d;
                }
            }
        }
    }

    /// A producer's asserted result line went away (replay): every
    /// dependent regains a pending column; ready ones drop out.
    fn producer_result_lost(&mut self, slot: SlotIdx) {
        let dependents = self.dependents(slot);
        self.ready &= !dependents;
        for d in bits(dependents) {
            self.rows[d].pending += 1;
        }
    }

    /// Derived lifecycle state of an entry.
    pub fn state(&self, slot: SlotIdx) -> Option<EntryState> {
        self.get(slot).map(|e| match (e.scheduled, e.timer) {
            (false, _) => EntryState::Waiting,
            (true, Some(0)) => EntryState::Done,
            (true, _) => EntryState::Executing,
        })
    }

    /// Per-type population counts of `mask`.
    #[inline]
    fn counts_of(&self, mask: u64) -> TypeCounts {
        let mut c = [0u8; NUM_UNIT_TYPES];
        for (n, col) in c.iter_mut().zip(&self.of_type) {
            *n = (mask & col).count_ones() as u8;
        }
        TypeCounts::new(c)
    }

    /// Demand signature of all **unscheduled** entries — the selection
    /// unit's §3.2 reading ("instructions … that have not been
    /// scheduled"): a popcount of the unscheduled mask per type column.
    pub fn demand_unscheduled(&self) -> TypeCounts {
        let c = self.counts_of(self.unscheduled);
        debug_assert_eq!(c, self.demand_unscheduled_scan());
        c
    }

    /// Demand signature of entries that are **ready** (unscheduled with
    /// all dependencies satisfied, ignoring resource availability) — the
    /// selection unit's §3.1 reading ("ready to be executed"): a
    /// popcount of the ready mask per type column.
    pub fn demand_ready(&self) -> TypeCounts {
        let c = self.counts_of(self.ready());
        debug_assert_eq!(c, self.demand_ready_scan());
        c
    }

    /// [`WakeupArray::demand_unscheduled`] recomputed from scratch by
    /// scanning every slot — the specification the mask-derived counts
    /// are checked against (differential tests and debug assertions).
    pub fn demand_unscheduled_scan(&self) -> TypeCounts {
        self.entries()
            .filter(|(_, e)| !e.scheduled)
            .map(|(_, e)| (e.unit, 1))
            .collect()
    }

    /// [`WakeupArray::demand_ready`] recomputed from scratch via the
    /// per-entry dependency walk — the specification the mask-derived
    /// counts are checked against.
    pub fn demand_ready_scan(&self) -> TypeCounts {
        let all_avail = [true; 5];
        (0..self.capacity())
            .filter(|&s| self.requests_entry(s, &all_avail))
            .map(|s| (self.get(s).unwrap().unit, 1))
            .collect()
    }

    /// Render the Fig. 5 bit matrix: one row per occupied slot, the five
    /// unit columns then one column per slot.
    pub fn matrix(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = write!(s, "{:<12}", "entry");
        for &t in &UnitType::ALL {
            let _ = write!(s, "{:>8}", t.to_string());
        }
        for i in 0..self.capacity() {
            let _ = write!(s, "  E{}", i + 1);
        }
        let _ = writeln!(s);
        for (i, e) in self.entries() {
            let _ = write!(s, "{:<12}", format!("Entry {}", i + 1));
            for &t in &UnitType::ALL {
                let _ = write!(s, "{:>8}", if e.unit == t { 1 } else { 0 });
            }
            for d in 0..self.capacity() {
                let _ = write!(s, "{:>4}", if e.deps & (1 << d) != 0 { 1 } else { 0 });
            }
            let _ = writeln!(s);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [bool; 5] = [true; 5];

    fn no_unit(t: UnitType) -> [bool; 5] {
        let mut a = [true; 5];
        a[t.index()] = false;
        a
    }

    #[test]
    fn insert_until_full() {
        let mut w = WakeupArray::paper();
        for i in 0..7 {
            assert_eq!(w.insert(UnitType::IntAlu, &[], i), Some(i as usize));
        }
        assert!(w.is_full());
        assert_eq!(w.insert(UnitType::IntAlu, &[], 7), None);
        assert_eq!(w.len(), 7);
    }

    #[test]
    fn independent_entry_requests_when_resource_available() {
        let mut w = WakeupArray::paper();
        let s = w.insert(UnitType::Lsu, &[], 0).unwrap();
        assert!(w.requests_entry(s, &ALL));
        assert!(!w.requests_entry(s, &no_unit(UnitType::Lsu)));
        // Other resources' availability is irrelevant.
        assert!(w.requests_entry(s, &no_unit(UnitType::FpMdu)));
    }

    #[test]
    fn dependent_waits_for_producer_result() {
        let mut w = WakeupArray::paper();
        let p = w.insert(UnitType::IntAlu, &[], 0).unwrap();
        let c = w.insert(UnitType::IntMdu, &[p], 1).unwrap();
        assert!(!w.requests_entry(c, &ALL), "producer not granted yet");
        w.grant(p, 3);
        assert!(!w.requests_entry(c, &ALL), "producer still executing");
        w.tick();
        w.tick();
        assert!(!w.requests_entry(c, &ALL), "one cycle left");
        w.tick();
        assert!(w.get(p).unwrap().result_available());
        assert!(w.requests_entry(c, &ALL), "result available after 3 ticks");
    }

    #[test]
    fn one_cycle_producer_chains_next_cycle() {
        let mut w = WakeupArray::paper();
        let p = w.insert(UnitType::IntAlu, &[], 0).unwrap();
        let c = w.insert(UnitType::IntAlu, &[p], 1).unwrap();
        w.grant(p, 1);
        assert!(!w.requests_entry(c, &ALL), "same cycle: not yet");
        w.tick();
        assert!(w.requests_entry(c, &ALL), "next cycle: ready");
    }

    #[test]
    fn paper_timer_convention() {
        let mut w = WakeupArray::paper();
        let p = w.insert(UnitType::FpMdu, &[], 0).unwrap();
        assert_eq!(w.get(p).unwrap().paper_timer(), None);
        w.grant(p, 5);
        // Paper: timer set to N−1 = 4.
        assert_eq!(w.get(p).unwrap().paper_timer(), Some(4));
        w.tick();
        assert_eq!(w.get(p).unwrap().paper_timer(), Some(3));
        for _ in 0..4 {
            w.tick();
        }
        assert_eq!(w.get(p).unwrap().paper_timer(), None);
        assert!(w.get(p).unwrap().result_available());
    }

    #[test]
    fn scheduled_bit_stops_requests() {
        let mut w = WakeupArray::paper();
        let s = w.insert(UnitType::IntAlu, &[], 0).unwrap();
        assert!(w.requests_entry(s, &ALL));
        w.grant(s, 4);
        assert!(!w.requests_entry(s, &ALL));
        // Reschedule (replay) makes it request again.
        w.reschedule(s);
        assert!(w.requests_entry(s, &ALL));
        assert_eq!(w.state(s), Some(EntryState::Waiting));
    }

    #[test]
    fn retirement_clears_columns() {
        let mut w = WakeupArray::paper();
        let p = w.insert(UnitType::IntAlu, &[], 0).unwrap();
        let c = w.insert(UnitType::IntAlu, &[p], 1).unwrap();
        // Producer completes and retires before the consumer is granted.
        w.grant(p, 1);
        w.tick();
        w.clear(p);
        assert_eq!(w.get(p), None);
        assert_eq!(w.get(c).unwrap().deps, 0, "column cleared");
        assert!(w.requests_entry(c, &ALL));
        // The freed slot is reusable and fresh inserts into it don't
        // resurrect dependencies.
        let n = w.insert(UnitType::FpAlu, &[], 2).unwrap();
        assert_eq!(n, p);
        assert!(!w.get(c).unwrap().deps & (1 << n) != 0 || w.get(c).unwrap().deps == 0);
    }

    #[test]
    fn multi_dependency_needs_all_results() {
        let mut w = WakeupArray::paper();
        let a = w.insert(UnitType::IntAlu, &[], 0).unwrap();
        let b = w.insert(UnitType::IntAlu, &[], 1).unwrap();
        let c = w.insert(UnitType::FpAlu, &[a, b], 2).unwrap();
        w.grant(a, 1);
        w.tick();
        assert!(!w.requests_entry(c, &ALL), "b still outstanding");
        w.grant(b, 2);
        w.tick();
        w.tick();
        assert!(w.requests_entry(c, &ALL));
    }

    #[test]
    fn demand_signatures() {
        let mut w = WakeupArray::paper();
        let a = w.insert(UnitType::IntAlu, &[], 0).unwrap();
        let _b = w.insert(UnitType::Lsu, &[], 1).unwrap();
        let _c = w.insert(UnitType::FpMdu, &[a], 2).unwrap();
        let unsched = w.demand_unscheduled();
        assert_eq!(unsched.total(), 3);
        let ready = w.demand_ready();
        assert_eq!(ready.total(), 2, "FpMdu blocked on dependency");
        assert_eq!(ready.get(UnitType::FpMdu), 0);
        w.grant(a, 1);
        assert_eq!(w.demand_unscheduled().total(), 2);
    }

    #[test]
    fn state_machine() {
        let mut w = WakeupArray::paper();
        let s = w.insert(UnitType::IntMdu, &[], 0).unwrap();
        assert_eq!(w.state(s), Some(EntryState::Waiting));
        w.grant(s, 2);
        assert_eq!(w.state(s), Some(EntryState::Executing));
        w.tick();
        assert_eq!(w.state(s), Some(EntryState::Executing));
        w.tick();
        assert_eq!(w.state(s), Some(EntryState::Done));
        w.clear(s);
        assert_eq!(w.state(s), None);
    }

    #[test]
    fn matrix_renders_fig5_style() {
        let mut w = WakeupArray::paper();
        let p = w.insert(UnitType::Lsu, &[], 0).unwrap();
        let _ = w.insert(UnitType::IntMdu, &[p], 1).unwrap();
        let m = w.matrix();
        assert!(m.contains("Entry 1"), "{m}");
        assert!(m.contains("Entry 2"), "{m}");
        assert!(m.contains("LSU"), "{m}");
    }

    /// The mask-derived demand counts must track the from-scratch scans
    /// through every mutation, including the reschedule (replay) path
    /// that de-asserts an already-available result line.
    #[test]
    fn incremental_demand_tracks_scans() {
        let mut w = WakeupArray::paper();
        let check = |w: &WakeupArray| {
            assert_eq!(w.demand_unscheduled(), w.demand_unscheduled_scan());
            assert_eq!(w.demand_ready(), w.demand_ready_scan());
            assert_eq!(w.ready(), w.ready_scan());
            for s in 0..w.capacity() {
                assert_eq!(w.dependents(s), w.dependents_scan(s));
            }
        };
        let a = w.insert(UnitType::IntAlu, &[], 0).unwrap();
        let b = w.insert(UnitType::Lsu, &[a], 1).unwrap();
        let c = w.insert(UnitType::FpMdu, &[a, b], 2).unwrap();
        check(&w);
        w.grant(a, 2);
        check(&w);
        w.tick();
        check(&w);
        w.tick(); // a's result line asserts; b becomes ready
        check(&w);
        assert_eq!(w.demand_ready().get(UnitType::Lsu), 1);
        assert_eq!(w.demand_ready().get(UnitType::FpMdu), 0);
        // Replay a: its result de-asserts and b leaves the ready set.
        w.reschedule(a);
        check(&w);
        assert_eq!(w.demand_ready().get(UnitType::Lsu), 0);
        // Reschedule of an unscheduled slot is a no-op.
        w.reschedule(b);
        check(&w);
        // Re-grant and complete both producers; c becomes ready.
        w.grant(a, 1);
        w.tick();
        w.grant(b, 1);
        w.tick();
        check(&w);
        assert_eq!(w.demand_ready().get(UnitType::FpMdu), 1);
        // Retire the producers; c keeps its readiness, columns clear.
        w.clear(a);
        w.clear(b);
        check(&w);
        assert_eq!(w.get(c).unwrap().deps, 0);
        // Clearing a still-executing producer must also wake dependents.
        let d = w.insert(UnitType::IntMdu, &[c], 3).unwrap();
        w.grant(c, 5);
        check(&w);
        w.clear(c); // squash mid-execution
        check(&w);
        assert_eq!(w.demand_ready().get(UnitType::IntMdu), 1);
        let _ = d;
    }

    #[test]
    fn occupancy_mask_tracks_slots() {
        let mut w = WakeupArray::paper();
        let check = |w: &WakeupArray| {
            assert_eq!(w.len(), w.entries().count());
            assert_eq!(w.len() as u32, w.occupied_scan().count_ones());
            assert_eq!(w.free_slot(), (0..7).find(|&s| w.get(s).is_none()));
        };
        assert!(w.is_empty());
        let slots: Vec<_> = (0..7)
            .map(|i| w.insert(UnitType::IntAlu, &[], i).unwrap())
            .collect();
        assert!(w.is_full());
        check(&w);
        w.clear(slots[4]);
        w.clear(slots[1]);
        check(&w);
        assert_eq!(w.free_slot(), Some(1), "lowest free slot first");
        assert_eq!(w.insert(UnitType::Lsu, &[], 7), Some(1));
        assert_eq!(w.insert(UnitType::Lsu, &[], 8), Some(4));
        assert!(w.is_full());
        w.reset();
        check(&w);
        assert!(w.is_empty());
        // A full 64-slot array has no free slot.
        let mut wide = WakeupArray::new(64);
        for i in 0..64 {
            assert_eq!(wide.insert(UnitType::IntAlu, &[], i), Some(i as usize));
        }
        assert!(wide.is_full());
        assert_eq!(wide.insert(UnitType::IntAlu, &[], 64), None);
    }

    #[test]
    fn requests_into_reuses_buffer() {
        let mut w = WakeupArray::paper();
        let a = w.insert(UnitType::IntAlu, &[], 0).unwrap();
        let b = w.insert(UnitType::Lsu, &[], 1).unwrap();
        let mut buf = vec![99, 98, 97];
        w.requests_into(&ALL, &mut buf);
        assert_eq!(buf, vec![a, b], "buffer cleared then filled in slot order");
        w.grant(a, 1);
        w.requests_into(&no_unit(UnitType::Lsu), &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    #[should_panic]
    fn dependency_on_empty_slot_panics() {
        let mut w = WakeupArray::paper();
        let _ = w.insert(UnitType::IntAlu, &[3], 0);
    }

    #[test]
    #[should_panic]
    fn double_grant_panics() {
        let mut w = WakeupArray::paper();
        let s = w.insert(UnitType::IntAlu, &[], 0).unwrap();
        w.grant(s, 1);
        w.grant(s, 1);
    }
}

//! Transposed per-cycle inputs for the lane kernel.
//!
//! The bit-sliced kernel evaluates the *closed steering loop* —
//! selection, configuration loader, fabric load/fault tick — for all
//! lanes in lockstep. What it cannot evaluate combinationally is the
//! out-of-order core feeding it, so the per-cycle inputs of the
//! selection unit are supplied as a pre-transposed stimulus:
//!
//! * the instruction-queue snapshot each lane's decoders see (stage 1
//!   input): up to `queue_len` entries, each a valid bit plus a 3-bit
//!   unit-type code, and
//! * the per-slot busy mask of each lane's fabric (consulted by the
//!   loader's span-busy check and by the fault tick's idle-victim
//!   check; in the scalar machine both observe the same snapshot
//!   because issue precedes steer and the fabric tick ends the cycle).
//!
//! Layouts are plane-major so the kernel's per-word loop reads
//! contiguous words: entry planes at `((cycle * queue_len + e) * 4 +
//! p) * words + w` (plane 0 = valid, planes 1..=3 = type-code bits) and
//! busy planes at `(cycle * n_slots + s) * words + w`.

use super::plane;
use rsp_isa::units::{TypeCounts, UnitType};

/// Planes per queue entry: one valid bit + three type-code bits.
const ENTRY_PLANES: usize = 4;

/// Pre-transposed per-cycle inputs for a batch of lanes.
#[derive(Debug, Clone)]
pub struct LaneStimulus {
    lanes: usize,
    words: usize,
    cycles: usize,
    queue_len: usize,
    n_slots: usize,
    /// Queue-entry planes, `cycles * queue_len * ENTRY_PLANES * words`.
    entries: Vec<u64>,
    /// Per-slot busy planes, `cycles * n_slots * words`.
    busy: Vec<u64>,
}

impl LaneStimulus {
    /// An all-idle stimulus: every queue empty, every slot idle.
    ///
    /// `lanes` must be a positive multiple of 64; `cycles`, `queue_len`
    /// (≤ 7, the 3-bit encoder width) and `n_slots` (≤ 64, the busy
    /// mask width) must be positive.
    // `is_multiple_of` needs Rust 1.87; the workspace MSRV is 1.82.
    #[allow(unknown_lints, clippy::manual_is_multiple_of)]
    pub fn new(lanes: usize, cycles: usize, queue_len: usize, n_slots: usize) -> LaneStimulus {
        assert!(
            lanes > 0 && lanes % 64 == 0,
            "lanes must be a positive multiple of 64"
        );
        let mut stim = LaneStimulus {
            lanes,
            words: lanes / 64,
            cycles: 0,
            queue_len: 0,
            n_slots: 0,
            entries: Vec::new(),
            busy: Vec::new(),
        };
        stim.reset(cycles, queue_len, n_slots);
        stim
    }

    /// Make this an all-idle stimulus of a new shape over the same
    /// lanes, with the bounds of [`LaneStimulus::new`]. The buffers are
    /// reused, so a stimulus refilled every tick allocates only when it
    /// outgrows every shape it has held.
    pub fn reset(&mut self, cycles: usize, queue_len: usize, n_slots: usize) {
        assert!(cycles > 0, "stimulus must cover at least one cycle");
        assert!((1..=7).contains(&queue_len), "queue_len must be 1..=7");
        assert!((1..=64).contains(&n_slots), "n_slots must be 1..=64");
        self.cycles = cycles;
        self.queue_len = queue_len;
        self.n_slots = n_slots;
        self.entries.clear();
        self.entries
            .resize(cycles * queue_len * ENTRY_PLANES * self.words, 0);
        self.busy.clear();
        self.busy.resize(cycles * n_slots * self.words, 0);
    }

    /// Number of lanes covered.
    pub(crate) fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of cycles of stimulus held.
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// Queue entries per cycle per lane.
    pub(crate) fn queue_len(&self) -> usize {
        self.queue_len
    }

    /// Busy-mask slots per cycle per lane.
    pub(crate) fn n_slots(&self) -> usize {
        self.n_slots
    }

    fn entry_base(&self, cycle: usize, e: usize) -> usize {
        (cycle * self.queue_len + e) * ENTRY_PLANES * self.words
    }

    /// Set one lane's queue snapshot for one cycle. Entries beyond
    /// `row.len()` are cleared (invalid).
    pub fn set_row(&mut self, lane: usize, cycle: usize, row: &[UnitType]) {
        assert!(lane < self.lanes && cycle < self.cycles);
        assert!(row.len() <= self.queue_len, "row exceeds queue length");
        let (w, b) = (lane / 64, (lane % 64) as u32);
        for e in 0..self.queue_len {
            let base = self.entry_base(cycle, e);
            let code: u8 = match row.get(e) {
                Some(t) => 1 | ((t.index() as u8) << 1),
                None => 0,
            };
            for p in 0..ENTRY_PLANES {
                let idx = base + p * self.words + w;
                let bit = 1u64 << b;
                if (code >> p) & 1 != 0 {
                    self.entries[idx] |= bit;
                } else {
                    self.entries[idx] &= !bit;
                }
            }
        }
    }

    /// Set one lane's queue snapshot from per-type demand counts,
    /// expanded in canonical [`UnitType::ALL`] order. Errors if the
    /// total exceeds the queue length.
    pub fn set_demand_counts(
        &mut self,
        lane: usize,
        cycle: usize,
        demand: &TypeCounts,
    ) -> Result<(), String> {
        if demand.total() as usize > self.queue_len {
            return Err(format!(
                "demand total {} exceeds queue length {}",
                demand.total(),
                self.queue_len
            ));
        }
        let mut row = [UnitType::IntAlu; 7];
        let mut n = 0;
        for &t in &UnitType::ALL {
            for _ in 0..demand.get(t) {
                row[n] = t;
                n += 1;
            }
        }
        self.set_row(lane, cycle, &row[..n]);
        Ok(())
    }

    /// Set one lane's per-slot busy mask for one cycle (bit `s` = slot
    /// `s` is executing this cycle).
    pub fn set_busy_mask(&mut self, lane: usize, cycle: usize, mask: u64) {
        assert!(lane < self.lanes && cycle < self.cycles);
        assert!(
            self.n_slots == 64 || mask < (1u64 << self.n_slots),
            "busy mask has bits beyond n_slots"
        );
        let (w, b) = (lane / 64, (lane % 64) as u32);
        for s in 0..self.n_slots {
            let idx = (cycle * self.n_slots + s) * self.words + w;
            let bit = 1u64 << b;
            if (mask >> s) & 1 != 0 {
                self.busy[idx] |= bit;
            } else {
                self.busy[idx] &= !bit;
            }
        }
    }

    /// Kernel view: word `w` of entry plane `p` (0 = valid, 1..=3 =
    /// type-code bits) of queue entry `e` at `cycle`.
    #[inline]
    pub(crate) fn entry_plane(&self, cycle: usize, e: usize, p: usize, w: usize) -> u64 {
        self.entries[self.entry_base(cycle, e) + p * self.words + w]
    }

    /// Kernel view: word `w` of the busy plane of slot `s` at `cycle`.
    #[inline]
    pub(crate) fn busy_plane(&self, cycle: usize, s: usize, w: usize) -> u64 {
        self.busy[(cycle * self.n_slots + s) * self.words + w]
    }

    /// Test/debug view: one lane's queue row at `cycle`, decoded back
    /// from the planes.
    pub fn row(&self, lane: usize, cycle: usize) -> Vec<UnitType> {
        let (w, b) = (lane / 64, (lane % 64) as u32);
        let mut out = Vec::new();
        for e in 0..self.queue_len {
            let base = self.entry_base(cycle, e);
            let mut code = [0u64; ENTRY_PLANES];
            for (p, plane) in code.iter_mut().enumerate() {
                *plane = self.entries[base + p * self.words + w];
            }
            let v = plane::extract(&code, b);
            if v & 1 != 0 {
                out.push(UnitType::from_index((v >> 1) as usize).expect("valid type code"));
            }
        }
        out
    }

    /// Test/debug view: one lane's busy mask at `cycle`.
    #[cfg(test)]
    pub(crate) fn busy_mask(&self, lane: usize, cycle: usize) -> u64 {
        let (w, b) = (lane / 64, (lane % 64) as u32);
        let mut mask = 0u64;
        for s in 0..self.n_slots {
            let idx = (cycle * self.n_slots + s) * self.words + w;
            if (self.busy[idx] >> b) & 1 != 0 {
                mask |= 1 << s;
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_round_trips() {
        let mut s = LaneStimulus::new(128, 4, 7, 8);
        let row = [UnitType::Lsu, UnitType::FpMdu, UnitType::IntAlu];
        s.set_row(70, 2, &row);
        assert_eq!(s.row(70, 2), row.to_vec());
        assert!(s.row(70, 1).is_empty());
        assert!(s.row(71, 2).is_empty());
        // Overwriting with a shorter row clears the tail.
        s.set_row(70, 2, &row[..1]);
        assert_eq!(s.row(70, 2), vec![UnitType::Lsu]);
    }

    #[test]
    fn reset_clears_and_reshapes() {
        let mut s = LaneStimulus::new(128, 4, 7, 8);
        s.set_row(70, 3, &[UnitType::Lsu]);
        s.set_busy_mask(65, 2, 0b11);
        s.reset(2, 7, 8);
        assert_eq!(s.cycles(), 2);
        assert!(s.row(70, 1).is_empty());
        assert_eq!(s.busy_mask(65, 1), 0);
        s.set_row(70, 1, &[UnitType::FpMdu, UnitType::Lsu]);
        s.set_busy_mask(127, 0, 0b101);
        s.reset(6, 3, 4);
        assert_eq!(
            (s.lanes(), s.cycles(), s.queue_len(), s.n_slots()),
            (128, 6, 3, 4)
        );
        for c in 0..6 {
            assert!(s.row(70, c).is_empty());
            assert_eq!(s.busy_mask(127, c), 0);
        }
        s.set_row(127, 5, &[UnitType::IntAlu]);
        assert_eq!(s.row(127, 5), vec![UnitType::IntAlu]);
    }

    #[test]
    fn demand_counts_expand_in_canonical_order() {
        let mut s = LaneStimulus::new(64, 2, 7, 8);
        let demand = TypeCounts::new([2, 0, 1, 0, 1]);
        s.set_demand_counts(5, 0, &demand).unwrap();
        assert_eq!(
            s.row(5, 0),
            vec![
                UnitType::IntAlu,
                UnitType::IntAlu,
                UnitType::Lsu,
                UnitType::FpMdu
            ]
        );
        let over = TypeCounts::new([7, 1, 0, 0, 0]);
        assert!(s.set_demand_counts(5, 0, &over).is_err());
    }

    #[test]
    fn busy_round_trips() {
        let mut s = LaneStimulus::new(128, 3, 7, 8);
        s.set_busy_mask(65, 1, 0b1010_0001);
        assert_eq!(s.busy_mask(65, 1), 0b1010_0001);
        assert_eq!(s.busy_mask(64, 1), 0);
        assert_eq!(s.busy_mask(65, 0), 0);
        assert_eq!(s.busy_plane(1, 0, 1) >> 1, 1);
        assert_eq!(s.busy_plane(1, 1, 1), 0);
    }
}

//! The register update unit (reorder buffer + rename).
//!
//! Paper §2: "The register update unit collects decoded instructions from
//! the instruction queue and dispatches them to the various functional
//! units … resolves all dependencies that occur between instructions and
//! registers [dependency buffer] … writes computation results back to the
//! register file during the write-back stage … allows the processor to
//! perform out-of-order execution of instructions, in-order completion of
//! instructions, and operand forwarding."
//!
//! Realisation here:
//! * entries live in program order; the head retires first (in-order
//!   completion);
//! * the *dependency buffer* is the rename map: architectural register →
//!   sequence number of its latest in-flight writer; dispatch resolves
//!   each source either to a producer (forwarded from the producer's ROB
//!   entry at issue) or to the committed register file;
//! * an instruction keeps its wake-up array slot from dispatch to
//!   retirement (paper §4.1: entries are not removed until retirement),
//!   so the array *is* the scheduling window.

use crate::frontend::FetchedInstr;
use rsp_fabric::fabric::UnitId;
use rsp_isa::regs::{AnyReg, NUM_REGS};
use rsp_isa::semantics::Value;
use rsp_isa::Instruction;
use rsp_sched::SlotIdx;
use std::collections::VecDeque;

/// Monotone per-dispatch sequence number (also the age tag in the
/// wake-up array).
pub(crate) type Seq = u64;

/// Where an entry is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// In the queue, not yet granted.
    Dispatched,
    /// Granted to a unit; completes at `done_at`.
    Executing {
        /// The functional unit executing it.
        unit: UnitId,
        /// Cycle at the top of which the result is complete.
        done_at: u64,
    },
    /// Result computed; waiting for in-order retirement.
    Completed,
}

/// One register-update-unit entry.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RobEntry {
    /// Age / identity.
    pub seq: Seq,
    /// The instruction's PC.
    pub pc: u64,
    /// The instruction.
    pub instr: Instruction,
    /// The PC the front end continued at (prediction to verify).
    pub predicted_next: u64,
    /// The wake-up array slot held from dispatch to retirement.
    pub wakeup_slot: SlotIdx,
    /// Lifecycle stage.
    pub stage: Stage,
    /// Producer seq for src1/src2 (dependency buffer snapshot at
    /// dispatch); `None` = read the committed register file.
    pub src_producers: [Option<Seq>; 2],
    /// The pending destination value (set at issue, written back at
    /// retirement).
    pub value: Option<Value>,
    /// The resolved next PC (set at completion; `pc + 1` for straight-
    /// line instructions, the branch target for taken control flow,
    /// `None` = control flow left the program / halt).
    pub resolved_next: Option<u64>,
    /// Cycle the entry was dispatched, for the telemetry layer's
    /// queue-residency histogram. Stamped by the pipeline driver only
    /// when telemetry is enabled; 0 otherwise.
    pub dispatched_at: u64,
}

/// The dependency buffer: architectural register → latest in-flight
/// writer, as a flat array over [`AnyReg::dense_index`] — a hashed map
/// here showed up hot in the cycle-loop profile.
type RenameMap = [Option<Seq>; 2 * NUM_REGS];

const EMPTY_RENAME: RenameMap = [None; 2 * NUM_REGS];

/// The register update unit.
#[derive(Debug, Clone)]
pub(crate) struct Rob {
    entries: VecDeque<RobEntry>,
    capacity: usize,
    next_seq: Seq,
    rename: RenameMap,
    last_mem: Option<Seq>,
    last_branch: Option<Seq>,
}

impl Default for Rob {
    fn default() -> Rob {
        Rob {
            entries: VecDeque::new(),
            capacity: 0,
            next_seq: 0,
            rename: EMPTY_RENAME,
            last_mem: None,
            last_branch: None,
        }
    }
}

impl Rob {
    /// An empty unit with room for `capacity` in-flight instructions.
    pub(crate) fn new(capacity: usize) -> Rob {
        Rob {
            capacity,
            ..Rob::default()
        }
    }

    /// Empty the unit for a fresh run, keeping the entry and rename-map
    /// allocations (used by the batched driver's machine reuse).
    pub(crate) fn reset(&mut self) {
        self.entries.clear();
        self.rename = EMPTY_RENAME;
        self.next_seq = 0;
        self.last_mem = None;
        self.last_branch = None;
    }

    /// In-flight instruction count.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff nothing is in flight.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True iff dispatch must stall.
    #[inline]
    pub(crate) fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// The oldest entry.
    #[inline]
    pub(crate) fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// The sequence number the next dispatch will receive (needed by the
    /// caller to tag the wake-up entry before dispatching).
    #[inline]
    pub(crate) fn next_seq(&self) -> Seq {
        self.next_seq
    }

    /// Index of the entry with sequence number `seq`, if present.
    ///
    /// Entries are in strictly increasing seq order (dispatch appends,
    /// retire pops the front, flush drains the tail), and gaps only
    /// appear after flushes — so the entry sits at index
    /// `seq - front.seq` or below. Starting there and walking down makes
    /// the gap-free common case a single probe. [`Rob::at`] and
    /// [`Rob::at_mut`] read the index; it shifts when the head retires.
    pub(crate) fn index_of(&self, seq: Seq) -> Option<usize> {
        let front = self.entries.front()?.seq;
        if seq < front {
            return None;
        }
        let mut i = ((seq - front) as usize).min(self.entries.len() - 1);
        loop {
            let s = self.entries[i].seq;
            if s == seq {
                return Some(i);
            }
            if s < seq || i == 0 {
                return None;
            }
            i -= 1;
        }
    }

    /// Entry by sequence number.
    pub(crate) fn get(&self, seq: Seq) -> Option<&RobEntry> {
        let i = self.index_of(seq)?;
        Some(&self.entries[i])
    }

    /// Mutable entry by sequence number.
    pub(crate) fn get_mut(&mut self, seq: Seq) -> Option<&mut RobEntry> {
        let i = self.index_of(seq)?;
        Some(&mut self.entries[i])
    }

    /// Entry by position, oldest first (index 0 is the head).
    #[inline]
    pub(crate) fn at(&self, index: usize) -> Option<&RobEntry> {
        self.entries.get(index)
    }

    /// Mutable entry by position, oldest first (index 0 is the head).
    #[inline]
    pub(crate) fn at_mut(&mut self, index: usize) -> Option<&mut RobEntry> {
        self.entries.get_mut(index)
    }

    /// Iterate entries oldest-first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        self.entries.iter()
    }

    /// The seq of the latest in-flight writer of `reg`, if any — the
    /// dependency-buffer lookup.
    pub(crate) fn producer_of(&self, reg: AnyReg) -> Option<Seq> {
        self.rename[reg.dense_index()]
    }

    /// The latest in-flight memory operation (for the in-order memory
    /// chain).
    #[inline]
    pub(crate) fn last_mem(&self) -> Option<Seq> {
        self.last_mem
    }

    /// The latest in-flight control-flow instruction (the speculation
    /// guard for memory operations).
    #[inline]
    pub(crate) fn last_branch(&self) -> Option<Seq> {
        self.last_branch
    }

    /// Dispatch a fetched instruction into the unit. The caller has
    /// already allocated `wakeup_slot`. Returns the entry's seq.
    ///
    /// # Panics
    /// Panics if the unit is full.
    pub(crate) fn dispatch(&mut self, f: &FetchedInstr, wakeup_slot: SlotIdx) -> Seq {
        assert!(!self.is_full(), "dispatch into a full register update unit");
        let seq = self.next_seq;
        self.next_seq += 1;
        let srcs = [f.instr.src1, f.instr.src2];
        let src_producers = [
            srcs[0]
                .filter(|r| !r.is_hardwired_zero())
                .and_then(|r| self.producer_of(r)),
            srcs[1]
                .filter(|r| !r.is_hardwired_zero())
                .and_then(|r| self.producer_of(r)),
        ];
        self.entries.push_back(RobEntry {
            seq,
            pc: f.pc,
            instr: f.instr,
            predicted_next: f.predicted_next,
            wakeup_slot,
            stage: Stage::Dispatched,
            src_producers,
            value: None,
            resolved_next: None,
            dispatched_at: 0,
        });
        if let Some(d) = f.instr.arch_dest() {
            self.rename[d.dense_index()] = Some(seq);
        }
        if f.instr.opcode.is_memory() {
            self.last_mem = Some(seq);
        }
        if f.instr.opcode.is_control_flow() {
            self.last_branch = Some(seq);
        }
        seq
    }

    /// Retire the head entry (must be [`Stage::Completed`]); returns it.
    ///
    /// # Panics
    /// Panics if the unit is empty or the head is not completed.
    pub(crate) fn retire_head(&mut self) -> RobEntry {
        let e = self.entries.pop_front().expect("retire on empty unit");
        assert_eq!(e.stage, Stage::Completed, "in-order completion violated");
        self.forget(&e);
        e
    }

    /// Squash every entry younger than `seq` (exclusive) into `out`
    /// (cleared first), youngest-last, for the caller to release wake-up
    /// slots and units. Rebuilds the dependency buffer from the
    /// survivors, reusing the rename map's allocation — the hot loop
    /// passes a scratch buffer so a flush allocates nothing in steady
    /// state.
    pub(crate) fn flush_after_into(&mut self, seq: Seq, out: &mut Vec<RobEntry>) {
        out.clear();
        let split = self.entries.iter().position(|e| e.seq > seq);
        let Some(split) = split else {
            return;
        };
        out.extend(self.entries.drain(split..));
        // Rebuild rename / chain pointers from the survivors.
        self.rename = EMPTY_RENAME;
        self.last_mem = None;
        self.last_branch = None;
        for e in &self.entries {
            if let Some(d) = e.instr.arch_dest() {
                self.rename[d.dense_index()] = Some(e.seq);
            }
            if e.instr.opcode.is_memory() {
                self.last_mem = Some(e.seq);
            }
            if e.instr.opcode.is_control_flow() {
                self.last_branch = Some(e.seq);
            }
        }
    }

    /// Remove a retired entry's traces from the dependency buffer (its
    /// consumers now read the committed register file).
    fn forget(&mut self, e: &RobEntry) {
        if let Some(d) = e.instr.arch_dest() {
            let r = &mut self.rename[d.dense_index()];
            if *r == Some(e.seq) {
                *r = None;
            }
        }
        if self.last_mem == Some(e.seq) {
            self.last_mem = None;
        }
        if self.last_branch == Some(e.seq) {
            self.last_branch = None;
        }
    }
}

/// Convenience for tests: a fetched wrapper around a bare instruction.
#[cfg(test)]
pub(crate) fn fetched(pc: u64, instr: Instruction) -> FetchedInstr {
    FetchedInstr {
        pc,
        instr,
        predicted_next: pc + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_isa::regs::IReg;
    use rsp_isa::Opcode;

    fn r(n: u8) -> IReg {
        IReg::new(n)
    }

    #[test]
    fn dispatch_tracks_rename() {
        let mut rob = Rob::new(8);
        let a = rob.dispatch(
            &fetched(0, Instruction::rri(Opcode::Addi, r(1), r(0), 1)),
            0,
        );
        let b = rob.dispatch(
            &fetched(1, Instruction::rrr(Opcode::Add, r(2), r(1), r(1))),
            1,
        );
        assert_eq!(rob.get(b).unwrap().src_producers, [Some(a), Some(a)]);
        // r2's writer is b; r1's writer is a.
        assert_eq!(rob.producer_of(AnyReg::Int(r(2))), Some(b));
        assert_eq!(rob.producer_of(AnyReg::Int(r(1))), Some(a));
        assert_eq!(rob.producer_of(AnyReg::Int(r(3))), None);
    }

    #[test]
    fn zero_register_sources_have_no_producer() {
        let mut rob = Rob::new(8);
        rob.dispatch(
            &fetched(0, Instruction::rri(Opcode::Addi, r(0), r(0), 1)),
            0,
        );
        let b = rob.dispatch(
            &fetched(1, Instruction::rri(Opcode::Addi, r(1), r(0), 2)),
            1,
        );
        assert_eq!(rob.get(b).unwrap().src_producers, [None, None]);
    }

    #[test]
    fn mem_and_branch_chains() {
        let mut rob = Rob::new(8);
        assert_eq!(rob.last_mem(), None);
        let l = rob.dispatch(&fetched(0, Instruction::lw(r(1), r(0), 0)), 0);
        assert_eq!(rob.last_mem(), Some(l));
        let br = rob.dispatch(
            &fetched(1, Instruction::branch(Opcode::Beq, r(0), r(0), 1)),
            1,
        );
        assert_eq!(rob.last_branch(), Some(br));
        let s = rob.dispatch(&fetched(2, Instruction::sw(r(1), r(0), 1)), 2);
        assert_eq!(rob.last_mem(), Some(s));
    }

    #[test]
    fn retirement_is_in_order_and_forgets() {
        let mut rob = Rob::new(8);
        let a = rob.dispatch(
            &fetched(0, Instruction::rri(Opcode::Addi, r(1), r(0), 1)),
            0,
        );
        rob.get_mut(a).unwrap().stage = Stage::Completed;
        let e = rob.retire_head();
        assert_eq!(e.seq, a);
        assert_eq!(rob.producer_of(AnyReg::Int(r(1))), None, "rename forgotten");
        assert!(rob.is_empty());
    }

    #[test]
    #[should_panic]
    fn retiring_incomplete_head_panics() {
        let mut rob = Rob::new(8);
        rob.dispatch(&fetched(0, Instruction::NOP), 0);
        let _ = rob.retire_head();
    }

    #[test]
    fn flush_rebuilds_dependency_buffer() {
        let mut rob = Rob::new(8);
        let a = rob.dispatch(
            &fetched(0, Instruction::rri(Opcode::Addi, r(1), r(0), 1)),
            0,
        );
        let br = rob.dispatch(
            &fetched(1, Instruction::branch(Opcode::Bne, r(1), r(0), 3)),
            1,
        );
        let c = rob.dispatch(
            &fetched(2, Instruction::rri(Opcode::Addi, r(1), r(0), 2)),
            2,
        );
        let _d = rob.dispatch(&fetched(3, Instruction::lw(r(2), r(1), 0)), 3);
        assert_eq!(rob.producer_of(AnyReg::Int(r(1))), Some(c));
        let mut squashed = Vec::new();
        rob.flush_after_into(br, &mut squashed);
        assert_eq!(squashed.len(), 2);
        assert_eq!(rob.len(), 2);
        // r1's writer reverts to a; the squashed load leaves no chain.
        assert_eq!(rob.producer_of(AnyReg::Int(r(1))), Some(a));
        assert_eq!(rob.last_mem(), None);
        assert_eq!(rob.last_branch(), Some(br));
    }

    #[test]
    fn flush_after_youngest_is_noop() {
        let mut rob = Rob::new(8);
        let a = rob.dispatch(&fetched(0, Instruction::NOP), 0);
        let mut squashed = vec![rob.iter().next().unwrap().clone()];
        rob.flush_after_into(a, &mut squashed);
        assert!(squashed.is_empty());
        assert_eq!(rob.len(), 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut rob = Rob::new(2);
        rob.dispatch(&fetched(0, Instruction::NOP), 0);
        rob.dispatch(&fetched(1, Instruction::NOP), 1);
        assert!(rob.is_full());
    }

    #[test]
    #[should_panic]
    fn dispatch_into_full_panics() {
        let mut rob = Rob::new(1);
        rob.dispatch(&fetched(0, Instruction::NOP), 0);
        rob.dispatch(&fetched(1, Instruction::NOP), 1);
    }
}

//! # rsp-sched — select-free wake-up-array scheduling
//!
//! Implements the instruction scheduling substrate of the paper's §4,
//! which adopts the wake-up array of Brown, Stark & Patt's *select-free
//! instruction scheduling logic* (MICRO-34) and extends its
//! resource-availability inputs for a reconfigurable processor.
//!
//! * [`wakeup`] — the wake-up array itself (Figs. 5 and 6): per-entry
//!   resource vectors (which unit type the instruction needs), dependency
//!   columns (which entries must produce results first), scheduled bits,
//!   and the countdown timers that assert an entry's result-available
//!   line `latency` cycles after its grant.
//! * [`arbiter`] — the per-type grant arbitration the paper leaves to the
//!   scheduler proper ("contention … must be handled by the scheduler
//!   after multiple instructions that use the same resources request
//!   execution"): oldest-first, one instruction per idle unit per cycle.
//! * [`depgraph`] — register dataflow analysis used to rebuild the
//!   paper's Fig. 4 example and to seed wake-up dependency columns.
//! * [`stall`] — allocation-free stall attribution feeding the
//!   `rsp-obs` telemetry layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod arbiter;
pub mod depgraph;
pub mod stall;
pub mod wakeup;

pub use arbiter::{arbitrate, arbitrate_into, Grant};
pub use depgraph::DepGraph;
pub use wakeup::{Entry, EntryState, SlotIdx, WakeupArray, PAPER_QUEUE_SIZE};

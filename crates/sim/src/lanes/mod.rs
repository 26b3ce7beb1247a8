//! Bit-sliced struct-of-arrays lane kernel: the selection circuit for
//! thousands of machines per core.
//!
//! The paper's steering unit is a small combinational circuit — decode
//! the queue's demand signature, count required units in 3-bit
//! saturating counters, score each candidate configuration with the
//! barrel-shift CEM, pick the minimal-error choice. Scored one machine
//! at a time (the scalar [`Machine`](crate::processor::Machine)) that
//! circuit costs a few hundred nanoseconds per cycle. This module
//! evaluates it *transposed*: the state of `N` independent machines
//! (`N` a multiple of 64) is held as bit planes — bit `l` of plane `b`
//! is bit `b` of lane `l`'s value — and every gate of the circuit
//! becomes one `u64` bitwise op per 64 lanes.
//!
//! Pipeline per step (one cycle for all lanes, per 64-lane word):
//!
//! 1. **decode** ([`plane`], [`LaneStimulus`]) — queue-entry type codes
//!    become per-type demand bit-planes;
//! 2. **count** — bit-sliced saturating requirement counters
//!    (ripple-carry over `u64` columns), optionally EWMA-smoothed;
//! 3. **CEM** — barrel-shift error evaluation as shift-mask
//!    arithmetic: candidate shifts are compile-time-constant plane
//!    reindexes, the current config's shift is muxed from its live
//!    availability counts;
//! 4. **select** — minimal-error choice with the paper's tie rules
//!    (current configuration favored), emitting the two-bit
//!    [`ConfigChoice`](rsp_core::select::ConfigChoice) code of all 64
//!    lanes of a word at once; the loader, load countdown, and keyed
//!    fault tick then advance each lane's fabric state in place.
//!
//! What the kernel does *not* evaluate is the out-of-order core that
//! feeds the queue, so per-cycle demand and busy masks are supplied as
//! a pre-transposed [`LaneStimulus`] — either synthetic
//! ([`rsp_workloads::lanes`]-style traces) or recorded from scalar
//! runs ([`record_steering`]) for bit-exact differential testing.
//!
//! [`rsp_workloads::lanes`]: https://docs.rs/rsp-workloads

pub mod plane;

mod batch;
mod record;
mod runner;
mod stimulus;

pub use batch::{
    LaneBatch, LaneParams, LaneStats, MAX_LANE_CANDIDATES, MAX_LANE_SITES, MAX_LANE_SLOTS,
};
pub use record::{record_steering, stimulus_from_records, RecordedRun, SteerRecord};
pub use runner::{LaneRunner, LaneSummary};
pub use stimulus::LaneStimulus;

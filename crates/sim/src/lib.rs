//! # rsp-sim — cycle-accurate simulator of the reconfigurable
//! superscalar processor
//!
//! Implements the host architecture of Fig. 1 (derived from Niyonkuru &
//! Zeidler's run-time reconfigurable processor) around the steering
//! machinery of `rsp-core`:
//!
//! * instruction memory + **fetch unit** + **trace cache** ([`frontend`]);
//! * decoder (via `rsp-isa`'s binary decoding — the front end fetches
//!   *words*);
//! * a 7-entry instruction queue realised as the **wake-up array** of
//!   `rsp-sched`;
//! * the **register update unit** ([`rob`]): dispatch, renaming,
//!   out-of-order issue, operand forwarding, in-order completion;
//! * **fixed + reconfigurable functional units** (`rsp-fabric`), steered
//!   each cycle by an `rsp-core` policy;
//! * separate data memory and the architectural register file.
//!
//! ### Pipeline semantics (one [`processor::Machine::step`] = one cycle)
//!
//! Stages run in this order within a cycle: retire → complete → issue →
//! steer → dispatch → fetch/decode → tick. An instruction granted at
//! cycle `C` with latency `L` completes at the top of cycle `C+L`; a
//! dependent can be granted in that same cycle `C+L` (operand forwarding
//! through the register update unit).
//!
//! Ordering rules (DESIGN.md §5):
//! * conditional branches and `jalr` predict not-taken / sequential;
//!   mispredicts flush at branch completion;
//! * `jal` redirects at decode (target is static);
//! * memory operations issue in program order and non-speculatively —
//!   each memory op carries wake-up dependencies on the previous memory
//!   op and the previous unresolved branch. Loads/stores access data
//!   memory at issue; nothing speculative ever reaches memory.
//!
//! Every run can be differentially checked against the in-order
//! [`rsp_isa::ReferenceInterpreter`] (same ISA semantics module):
//! identical final registers, memory, and retired-instruction count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod batch;
pub mod config;
pub mod exec;
pub mod frontend;
pub mod lanes;
pub mod pool;
pub mod processor;
pub mod rob;
pub mod stats;
pub mod trace;

pub use batch::BatchRunner;
pub use config::{BranchPrediction, DemandMode, Latencies, PolicyKind, SelectMode, SimConfig};
pub use lanes::{LaneBatch, LaneRunner, LaneStimulus, LaneSummary};
pub use pool::{MachinePool, PoolStats};
pub use processor::{Processor, RunError};
pub use rsp_fabric::fault::{FaultParams, FaultStats};
pub use rsp_obs::{MetricsSnapshot, Telemetry};
pub use stats::{RetiredMix, SimReport};
pub use trace::{SteeringTrace, TraceSample};

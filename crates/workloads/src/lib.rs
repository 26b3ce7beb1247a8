//! # rsp-workloads — workload and kernel generators
//!
//! The paper names no benchmark programs; its mechanism only observes the
//! **unit-type demand signature** of the instruction queue. This crate
//! generates programs that sweep exactly that space:
//!
//! * [`paper_example`] — the seven-instruction example of Figs. 4–5
//!   (Shift, Sub, Add, Mult, Load, FPMul, FPAdd), rebuilt as a real
//!   program with the documented dependency reconstruction.
//! * [`synth`] — seeded random straight-line / looped programs with a
//!   controlled unit-type mix, dependency density, and **phases** (mix
//!   changes mid-program — what forces the steering unit to move).
//! * [`kernels`] — small real kernels (dot product, SAXPY, FIR, matmul
//!   tile, checksum, memcpy) with architecturally checkable results.
//! * [`mixes`] — named demand-signature distributions used by the basis
//!   search (E6) and the CEM table sweeps.
//! * [`lanes`] — per-lane queue-snapshot demand traces for the
//!   bit-sliced lane kernel (phased mixes, per-lane seeds/offsets).
//! * [`stream`] — tenant stream specifications for `rsp-serve`: a
//!   serde-parseable wrapper selecting any generator above, with a
//!   tenant-level seed override so `(spec, seed)` replays offline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod ilp;
pub mod kernels;
pub mod lanes;
pub mod mixes;
pub mod paper_example;
pub mod stream;
pub mod synth;

pub use ilp::chains;
pub use lanes::{LaneTraceSpec, QueueRow};
pub use stream::{
    StreamError, StreamSpec, StreamWorkload, MAX_LANE_TRACE_CYCLES, MAX_STREAM_BODY_LEN,
    MAX_STREAM_WEIGHT,
};
pub use synth::{PhasedSpec, SynthSpec, UnitMix};

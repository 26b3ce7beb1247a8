//! # rsp-fabric — the reconfigurable fabric substrate
//!
//! Models the physical execution-resource layer of the architecture in
//! Fig. 1 of the paper: **five fixed functional units** (one per
//! [`UnitType`](rsp_isa::UnitType)) plus **eight slots of reconfigurable
//! logic** into which functional units are loaded by partial
//! reconfiguration.
//!
//! * [`alloc`] — the configuration loader's *resource allocation vector*:
//!   one 3-bit encoding per slot, with the paper's continuation encoding
//!   for units spanning several slots, plus the XOR slot-difference used
//!   to decide what to reload.
//! * [`config`] — configuration *shapes* ([`config::Configuration`]):
//!   per-type unit counts with a deterministic slot placement; includes
//!   the three predefined steering configurations of Table 1.
//! * [`availability`] — the Eq. 1 / Fig. 7 availability circuit: is an
//!   idle unit of type `t` configured anywhere in the processor?
//! * [`fabric`] — the live fabric: per-slot state (configured / loading /
//!   busy), FFU state, reconfiguration ports and latency, and the
//!   cycle-by-cycle load engine.
//! * [`fault`] — the deterministic, seeded configuration-memory fault
//!   model: load failures, upsets, scrub/readback, stuck-at-dead slots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod alloc;
pub mod availability;
pub mod config;
pub mod fabric;
pub mod fault;

pub use alloc::AllocationVector;
pub use availability::{available, available_circuit, AvailabilityInputs};
pub use config::{Configuration, PlacementError, SteeringSet};
pub use fabric::{Fabric, FabricParams, LoadError, UnitId, UnitView};
pub use fault::{FaultEvent, FaultParams, FaultStats};

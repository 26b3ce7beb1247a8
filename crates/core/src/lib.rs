//! # rsp-core — the configuration steering machinery
//!
//! This crate is the paper's primary contribution: a fast configuration
//! selection circuit and the configuration loader it drives (paper §3).
//!
//! The **configuration selection unit** (Fig. 2) has four stages:
//!
//! 1. [`decode`] — *unit decoders*: one one-hot "required unit type"
//!    vector per instruction in the queue that is ready to execute.
//! 2. [`encoder`] — *resource requirement encoders*: sum the one-hot
//!    vectors into five 3-bit counts (the queue holds ≤ 7 instructions,
//!    so 3 bits suffice).
//! 3. [`cem`] — *configuration error metric generators* (Fig. 3): for
//!    each of the four candidate configurations (three predefined + the
//!    live current one), approximate `Σ_t required(t) / available(t)`
//!    with barrel shifters that divide by 4, 2, or 1.
//! 4. [`select`] — *minimal error selection*: pick the candidate with
//!    minimal error; ties go to the candidate needing the least
//!    reconfiguration, and the current configuration always beats a
//!    predefined one at equal error.
//!
//! The **configuration loader** ([`loader`]) takes the 2-bit selection,
//! computes the XOR slot-difference against the current resource
//! allocation vector, and partially reconfigures only the RFUs that are
//! not busy and do not already implement the right unit.
//!
//! [`policy`] packages the above as one [`policy::SteeringPolicy`] and
//! adds the baselines and extensions the experiments compare against
//! (static configurations, full-reload, demand-driven steering, and a
//! zero-knowledge never-reconfigure floor). E11's demand smoothing is a
//! field of the paper's policy ([`policy::PaperSteering::smoothing`]);
//! [`smooth`] holds only the EWMA filter it installs. [`basis`]
//! implements the paper's §5 future-work question: searching for a good
//! *basis* of predefined steering configurations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod basis;
pub mod cem;
pub mod decode;
pub mod encoder;
#[cfg(test)]
mod exhaustive;
pub mod hwcost;
pub mod loader;
pub mod policy;
pub mod select;
pub mod smooth;

pub use cem::{CemKind, CemUnit, ERROR_SCALE};
pub use decode::{unit_decoder, OneHot};
pub use encoder::RequirementEncoder;
pub use loader::{ConfigurationLoader, LoaderStats};
pub use policy::{DemandDriven, PaperSteering, PolicyOutcome, StaticPolicy, SteeringPolicy};
pub use select::{ConfigChoice, MinimalErrorSelector, SelectionResult, SelectionUnit, TieBreak};
pub use smooth::DemandFilter;

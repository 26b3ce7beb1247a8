//! Tenant stream specifications for `rsp-serve`.
//!
//! A served tenant is described entirely by a [`StreamSpec`]: which
//! workload generator to run, a tenant-level seed, and a cycle budget.
//! The spec is plain serde data, so it travels over the serve protocol
//! as JSON and — because every generator in this crate is deterministic
//! in its seed — the pair `(spec, seed)` is sufficient to replay any
//! tenant's run offline, bit-identically to the served run.
//!
//! The tenant-level [`StreamSpec::seed`] *overrides* the seed embedded
//! in the inner generator spec: [`StreamSpec::program`] and
//! [`StreamSpec::lane_trace`] re-seed the generator before use. This
//! keeps the server's per-tenant seed assignment authoritative even when
//! clients submit specs with arbitrary embedded seeds.

use crate::kernels;
use crate::lanes::LaneTraceSpec;
use crate::synth::{PhasedSpec, SynthSpec};
use rsp_isa::Program;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which workload generator a stream draws from.
///
/// `Synth`, `Phased` and `Kernel` produce a [`Program`] for a scalar
/// `Machine`; `LaneTrace` produces a demand trace for the bit-sliced
/// lane kernel (no program — the lane kernel consumes queue snapshots).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StreamWorkload {
    /// Seeded synthetic straight-line/looped program ([`SynthSpec`]).
    Synth(SynthSpec),
    /// Phased synthetic program ([`PhasedSpec`]).
    Phased(PhasedSpec),
    /// Named real kernel from [`kernels`] at a given size.
    Kernel {
        /// Kernel name (`dot_product`, `saxpy`, `fir`, `matmul`,
        /// `checksum`, `memcpy`, `bubble_sort`, `binary_search`).
        name: String,
        /// Problem size, validated against the kernel's legal range.
        size: usize,
    },
    /// Per-lane queue-demand trace for the lane kernel
    /// ([`LaneTraceSpec`]).
    LaneTrace(LaneTraceSpec),
}

/// Largest admissible [`StreamSpec::weight`]; validation rejects
/// anything above it so one tenant cannot claim an unbounded share.
pub const MAX_STREAM_WEIGHT: u32 = 64;

/// Largest admissible program body in generated instructions: a synth
/// `body_len`, or the summed phase lengths of a phased spec. Generation
/// allocates in proportion to it, so one spec cannot make the engine
/// reserve unbounded memory. The largest in-repo body is 2,000.
pub const MAX_STREAM_BODY_LEN: usize = 1 << 14;

/// Largest admissible lane-trace length in cycles: the trace is
/// generated up front, one 8-byte row per cycle. The largest in-repo
/// trace is 4,096 cycles (`rsp-serve drive` at its cap).
pub const MAX_LANE_TRACE_CYCLES: u32 = 1 << 16;

/// A complete tenant stream request: workload + seed + cycle budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamSpec {
    /// Tenant-visible stream name (reporting only; not a key).
    pub name: String,
    /// The workload generator.
    pub workload: StreamWorkload,
    /// Tenant-level seed; overrides any seed inside `workload`.
    pub seed: u64,
    /// Cycle budget: the server stops stepping the tenant after this
    /// many cycles even if the program has not halted.
    pub max_cycles: u64,
    /// Fair-share weight under a weighted scheduler (0 = unset, served
    /// as weight 1). Specs serialised before weights existed decode as
    /// 0, so old wire payloads keep their exact service behaviour.
    #[serde(default)]
    pub weight: u32,
}

/// Why a stream spec could not be turned into a runnable workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// `Kernel` named a generator this crate does not provide.
    UnknownKernel(String),
    /// `Kernel` size outside the kernel's legal range.
    BadKernelSize {
        /// The kernel name.
        name: String,
        /// The rejected size.
        size: usize,
        /// Human-readable legal range.
        legal: &'static str,
    },
    /// The spec is structurally invalid (empty mixes, zero phase
    /// length, queue length outside 1..=7, zero cycle budget, …).
    Invalid(String),
    /// A program was requested from a `LaneTrace` spec (or vice versa).
    WrongKind(&'static str),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::UnknownKernel(name) => write!(f, "unknown kernel {name:?}"),
            StreamError::BadKernelSize { name, size, legal } => {
                write!(f, "kernel {name:?} size {size} outside {legal}")
            }
            StreamError::Invalid(msg) => write!(f, "invalid stream spec: {msg}"),
            StreamError::WrongKind(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Legal size ranges per kernel, mirrored from the `kernels` asserts so
/// a served spec is validated instead of panicking the engine.
fn kernel_range(name: &str) -> Option<(usize, usize, &'static str)> {
    match name {
        "dot_product" | "saxpy" | "checksum" | "memcpy" => Some((1, 500, "1..=500")),
        "fir" => Some((1, 400, "1..=400")),
        "matmul" => Some((2, 16, "2..=16")),
        "bubble_sort" => Some((2, 64, "2..=64")),
        "binary_search" => Some((2, 400, "2..=400")),
        _ => None,
    }
}

impl StreamSpec {
    /// A scalar synthetic stream with the crate-default synth shape.
    pub fn synth(name: impl Into<String>, spec: SynthSpec, max_cycles: u64) -> StreamSpec {
        let seed = spec.seed;
        StreamSpec {
            name: name.into(),
            workload: StreamWorkload::Synth(spec),
            seed,
            max_cycles,
            weight: 0,
        }
    }

    /// A lane-kernel demand-trace stream.
    pub fn lane(name: impl Into<String>, spec: LaneTraceSpec, max_cycles: u64) -> StreamSpec {
        let seed = spec.seed;
        StreamSpec {
            name: name.into(),
            workload: StreamWorkload::LaneTrace(spec),
            seed,
            max_cycles,
            weight: 0,
        }
    }

    /// The same spec with a fair-share weight (builder style).
    pub fn with_weight(mut self, weight: u32) -> StreamSpec {
        self.weight = weight;
        self
    }

    /// The weight a scheduler serves this spec at: unset (0) means 1.
    pub fn effective_weight(&self) -> u32 {
        self.weight.max(1)
    }

    /// Parse a spec from JSON (the serve protocol's wire form).
    #[cfg(test)]
    pub(crate) fn from_json(text: &str) -> Result<StreamSpec, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Serialise the spec to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("stream specs serialise")
    }

    /// Structural validation: cheap checks that must pass before the
    /// spec is admitted (so generation can never panic server-side).
    pub fn validate(&self) -> Result<(), StreamError> {
        if self.max_cycles == 0 {
            return Err(StreamError::Invalid("max_cycles must be positive".into()));
        }
        if self.weight > MAX_STREAM_WEIGHT {
            return Err(StreamError::Invalid(format!(
                "weight {} exceeds the maximum {MAX_STREAM_WEIGHT}",
                self.weight
            )));
        }
        match &self.workload {
            StreamWorkload::Synth(s) => {
                if s.body_len == 0 {
                    return Err(StreamError::Invalid(
                        "synth body_len must be positive".into(),
                    ));
                }
                if s.body_len > MAX_STREAM_BODY_LEN {
                    return Err(StreamError::Invalid(format!(
                        "synth body_len {} exceeds the maximum {MAX_STREAM_BODY_LEN}",
                        s.body_len
                    )));
                }
                if s.mix.weights.iter().sum::<f64>() <= 0.0 {
                    return Err(StreamError::Invalid(
                        "synth mix must have positive total weight".into(),
                    ));
                }
                if !(0.0..=1.0).contains(&s.dep_density) || !(0.0..=1.0).contains(&s.branch_prob) {
                    return Err(StreamError::Invalid(
                        "synth probabilities must be in 0..=1".into(),
                    ));
                }
            }
            StreamWorkload::Phased(p) => {
                if p.phases.is_empty() || p.phases.iter().any(|(_, l)| *l == 0) {
                    return Err(StreamError::Invalid(
                        "phased spec needs non-empty phases".into(),
                    ));
                }
                let body = p
                    .phases
                    .iter()
                    .fold(0usize, |n, (_, l)| n.saturating_add(*l));
                if body > MAX_STREAM_BODY_LEN {
                    return Err(StreamError::Invalid(format!(
                        "phased body of {body} instructions exceeds the maximum {MAX_STREAM_BODY_LEN}"
                    )));
                }
                if p.phases
                    .iter()
                    .any(|(m, _)| m.weights.iter().sum::<f64>() <= 0.0)
                {
                    return Err(StreamError::Invalid(
                        "phased mix must have positive total weight".into(),
                    ));
                }
                if !(0.0..=1.0).contains(&p.dep_density) || !(0.0..=1.0).contains(&p.branch_prob) {
                    return Err(StreamError::Invalid(
                        "phased probabilities must be in 0..=1".into(),
                    ));
                }
            }
            StreamWorkload::Kernel { name, size } => {
                let (lo, hi, legal) =
                    kernel_range(name).ok_or_else(|| StreamError::UnknownKernel(name.clone()))?;
                if !(lo..=hi).contains(size) {
                    return Err(StreamError::BadKernelSize {
                        name: name.clone(),
                        size: *size,
                        legal,
                    });
                }
            }
            StreamWorkload::LaneTrace(t) => {
                if t.mixes.is_empty() {
                    return Err(StreamError::Invalid("lane trace needs mixes".into()));
                }
                if t.mixes.iter().any(|m| m.weights.iter().sum::<f64>() <= 0.0) {
                    return Err(StreamError::Invalid(
                        "lane mix must have positive total weight".into(),
                    ));
                }
                if !(1..=7).contains(&t.queue_len) {
                    return Err(StreamError::Invalid("lane queue_len must be 1..=7".into()));
                }
                if t.phase_len == 0 || t.cycles == 0 {
                    return Err(StreamError::Invalid(
                        "lane phase_len and cycles must be positive".into(),
                    ));
                }
                if t.cycles > MAX_LANE_TRACE_CYCLES {
                    return Err(StreamError::Invalid(format!(
                        "lane trace of {} cycles exceeds the maximum {MAX_LANE_TRACE_CYCLES}",
                        t.cycles
                    )));
                }
                if t.partial_pct > 100 {
                    return Err(StreamError::Invalid(
                        "lane partial_pct must be ≤ 100".into(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// True iff this stream runs on the bit-sliced lane kernel rather
    /// than a scalar `Machine`.
    pub fn is_lane(&self) -> bool {
        matches!(self.workload, StreamWorkload::LaneTrace(_))
    }

    /// Generate the tenant's program, re-seeded with [`StreamSpec::seed`].
    ///
    /// Errors if the spec fails [`StreamSpec::validate`] or is a
    /// `LaneTrace` (which has no program).
    pub fn program(&self) -> Result<Program, StreamError> {
        self.validate()?;
        match &self.workload {
            StreamWorkload::Synth(s) => {
                let mut s = s.clone();
                s.seed = self.seed;
                Ok(s.generate())
            }
            StreamWorkload::Phased(p) => {
                let mut p = p.clone();
                p.seed = self.seed;
                Ok(p.generate())
            }
            StreamWorkload::Kernel { name, size } => Ok(match name.as_str() {
                "dot_product" => kernels::dot_product(*size),
                "saxpy" => kernels::saxpy(*size),
                "fir" => kernels::fir(*size),
                "matmul" => kernels::matmul(*size),
                "checksum" => kernels::checksum(*size),
                "memcpy" => kernels::memcpy(*size),
                "bubble_sort" => kernels::bubble_sort(*size),
                "binary_search" => kernels::binary_search(*size, (*size).min(60)),
                other => return Err(StreamError::UnknownKernel(other.into())),
            }),
            StreamWorkload::LaneTrace(_) => Err(StreamError::WrongKind(
                "lane-trace streams have no program; step them on the lane kernel",
            )),
        }
    }

    /// The tenant's lane-trace spec, re-seeded with [`StreamSpec::seed`].
    ///
    /// Errors if the spec fails [`StreamSpec::validate`] or is not a
    /// `LaneTrace`.
    pub fn lane_trace(&self) -> Result<LaneTraceSpec, StreamError> {
        self.validate()?;
        match &self.workload {
            StreamWorkload::LaneTrace(t) => {
                let mut t = t.clone();
                t.seed = self.seed;
                Ok(t)
            }
            _ => Err(StreamError::WrongKind(
                "scalar streams have no lane trace; step them on a Machine",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::UnitMix;

    fn synth_spec(seed: u64) -> StreamSpec {
        StreamSpec {
            name: "t".into(),
            workload: StreamWorkload::Synth(SynthSpec::new("t", UnitMix::BALANCED, 999)),
            seed,
            max_cycles: 10_000,
            weight: 0,
        }
    }

    #[test]
    fn tenant_seed_overrides_embedded_seed() {
        // Two specs differing only in embedded seed generate the same
        // program once the tenant seed is applied.
        let a = synth_spec(7);
        let mut b = a.clone();
        if let StreamWorkload::Synth(s) = &mut b.workload {
            s.seed = 12345;
        }
        assert_eq!(a.program().unwrap(), b.program().unwrap());
        // Different tenant seeds → different programs.
        let c = synth_spec(8);
        assert_ne!(a.program().unwrap(), c.program().unwrap());
    }

    #[test]
    fn specs_round_trip_through_json() {
        let specs = [
            synth_spec(3),
            StreamSpec {
                name: "k".into(),
                workload: StreamWorkload::Kernel {
                    name: "saxpy".into(),
                    size: 32,
                },
                seed: 0,
                max_cycles: 50_000,
                weight: 0,
            },
            StreamSpec::lane("l", LaneTraceSpec::synthetic_mix(128, 5), 128),
        ];
        for spec in specs {
            let json = spec.to_json();
            assert_eq!(StreamSpec::from_json(&json).unwrap(), spec);
        }
    }

    #[test]
    fn bad_kernel_specs_error_instead_of_panicking() {
        let bad = StreamSpec {
            name: "k".into(),
            workload: StreamWorkload::Kernel {
                name: "matmul".into(),
                size: 99,
            },
            seed: 0,
            max_cycles: 1,
            weight: 0,
        };
        assert!(matches!(
            bad.program(),
            Err(StreamError::BadKernelSize { .. })
        ));
        let unknown = StreamSpec {
            name: "k".into(),
            workload: StreamWorkload::Kernel {
                name: "quicksort".into(),
                size: 8,
            },
            seed: 0,
            max_cycles: 1,
            weight: 0,
        };
        assert!(matches!(
            unknown.program(),
            Err(StreamError::UnknownKernel(_))
        ));
    }

    #[test]
    fn kernels_generate_within_range() {
        for (name, size) in [
            ("dot_product", 16),
            ("saxpy", 16),
            ("fir", 16),
            ("matmul", 4),
            ("checksum", 16),
            ("memcpy", 16),
            ("bubble_sort", 8),
            ("binary_search", 16),
        ] {
            let spec = StreamSpec {
                name: name.into(),
                workload: StreamWorkload::Kernel {
                    name: name.into(),
                    size,
                },
                seed: 0,
                max_cycles: 100_000,
                weight: 0,
            };
            let p = spec.program().unwrap();
            p.validate().unwrap();
        }
    }

    #[test]
    fn lane_trace_reseeds_and_rejects_program() {
        let spec = StreamSpec::lane("l", LaneTraceSpec::synthetic_mix(64, 99), 64);
        let trace = spec.lane_trace().unwrap();
        assert_eq!(trace.seed, spec.seed);
        assert!(matches!(spec.program(), Err(StreamError::WrongKind(_))));
        let scalar = synth_spec(1);
        assert!(matches!(
            scalar.lane_trace(),
            Err(StreamError::WrongKind(_))
        ));
    }

    #[test]
    fn structural_validation_catches_bad_specs() {
        let mut zero_budget = synth_spec(1);
        zero_budget.max_cycles = 0;
        assert!(zero_budget.validate().is_err());

        let mut bad_queue = StreamSpec::lane("l", LaneTraceSpec::synthetic_mix(64, 1), 64);
        if let StreamWorkload::LaneTrace(t) = &mut bad_queue.workload {
            t.queue_len = 9;
        }
        assert!(bad_queue.validate().is_err());

        let mut zero_mix = synth_spec(1);
        if let StreamWorkload::Synth(s) = &mut zero_mix.workload {
            s.mix = UnitMix { weights: [0.0; 5] };
        }
        assert!(zero_mix.validate().is_err());

        let heavy = synth_spec(1).with_weight(MAX_STREAM_WEIGHT + 1);
        assert!(heavy.validate().is_err());
    }

    #[test]
    fn generated_sizes_are_capped() {
        let mut body = synth_spec(1);
        if let StreamWorkload::Synth(s) = &mut body.workload {
            s.body_len = MAX_STREAM_BODY_LEN;
        }
        assert!(body.validate().is_ok());
        if let StreamWorkload::Synth(s) = &mut body.workload {
            s.body_len = MAX_STREAM_BODY_LEN + 1;
        }
        assert!(body.validate().is_err());

        // Phase lengths count together: each is under the cap, the sum
        // is not.
        let half = MAX_STREAM_BODY_LEN / 2;
        let mut phased = PhasedSpec::int_fp_mem(half, 1, 3);
        phased.phases.truncate(2);
        let mut spec = StreamSpec {
            name: "p".into(),
            workload: StreamWorkload::Phased(phased),
            seed: 3,
            max_cycles: 1,
            weight: 0,
        };
        assert!(spec.validate().is_ok());
        if let StreamWorkload::Phased(p) = &mut spec.workload {
            p.phases[1].1 += 1;
        }
        assert!(spec.validate().is_err());

        let mut lane = StreamSpec::lane(
            "l",
            LaneTraceSpec::synthetic_mix(MAX_LANE_TRACE_CYCLES, 1),
            64,
        );
        assert!(lane.validate().is_ok());
        if let StreamWorkload::LaneTrace(t) = &mut lane.workload {
            t.cycles += 1;
        }
        assert!(lane.validate().is_err());
    }

    #[test]
    fn weights_default_to_one_and_round_trip() {
        let plain = synth_spec(2);
        assert_eq!(plain.weight, 0);
        assert_eq!(plain.effective_weight(), 1);
        let weighted = synth_spec(2).with_weight(3);
        assert_eq!(weighted.effective_weight(), 3);
        assert!(weighted.validate().is_ok());
        let json = weighted.to_json();
        assert_eq!(StreamSpec::from_json(&json).unwrap(), weighted);
        // Pre-weight wire payloads (no `weight` key) still decode.
        let legacy = json.replace(",\"weight\":3", "");
        assert_ne!(legacy, json);
        assert_eq!(StreamSpec::from_json(&legacy).unwrap().weight, 0);
    }
}

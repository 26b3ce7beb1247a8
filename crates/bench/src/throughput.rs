//! Fixed, seeded simulator inputs for host-speed measurement.
//!
//! The repository benchmark (`perf/`) measures simulated cycles per
//! wall-second on these inputs and checks, at seed 0, that its own
//! generators reproduce them exactly. Every generator seed is fixed, so
//! the same programs and lane traces come out of every invocation and
//! numbers stay comparable across builds. `rsp-timeline --demo` reuses
//! [`faulty_params`].

use rsp_isa::units::UnitType;
use rsp_isa::Program;
use rsp_sim::lanes::LaneStimulus;
use rsp_sim::{FaultParams, SimConfig};
use rsp_workloads::{kernels, LaneTraceSpec, PhasedSpec, SynthSpec, UnitMix};

/// Per-program cycle budget. Generous: every class program halts well
/// under this, so hitting it indicates a simulator bug.
pub const CYCLE_BUDGET: u64 = 10_000_000;

/// A named set of programs measured as one unit.
pub struct WorkloadClass {
    /// Class name.
    pub name: &'static str,
    /// Programs run back to back each pass.
    pub programs: Vec<Program>,
    /// Fault-model parameters for this class (default: fault model off,
    /// which keeps `Fabric::tick` on its inert fast path).
    pub faults: FaultParams,
}

/// The workload classes, by name:
///
/// * `synthetic-mix` — the four named unit mixes interleaved across
///   seeds;
/// * `phased` — mix changes mid-program, exercising steering churn;
/// * `kernels` — the real-kernel suite;
/// * `faulty` — the phased programs under an active fault model
///   (failing loads, upsets, scrub), exercising the fault tick and
///   recovery paths that every other class skips.
pub fn workload_classes() -> Vec<WorkloadClass> {
    let mut mixed = Vec::new();
    for (name, mix) in UnitMix::named() {
        for seed in 0..3 {
            let mut spec = SynthSpec::new(format!("mix-{name}-{seed}"), mix, 2000 + seed);
            spec.iterations = 4;
            mixed.push(spec.generate());
        }
    }
    let phased = || {
        (0..3)
            .map(|seed| PhasedSpec::int_fp_mem(300, 3, 3000 + seed).generate())
            .collect()
    };
    vec![
        WorkloadClass {
            name: "synthetic-mix",
            programs: mixed,
            faults: FaultParams::default(),
        },
        WorkloadClass {
            name: "phased",
            programs: phased(),
            faults: FaultParams::default(),
        },
        WorkloadClass {
            name: "kernels",
            programs: kernels::suite(),
            faults: FaultParams::default(),
        },
        WorkloadClass {
            name: "faulty",
            programs: phased(),
            faults: faulty_params(),
        },
    ]
}

/// Lanes the lane-kernel stimulus is built for by default (a multiple
/// of 64).
pub const DEFAULT_LANES: usize = 256;

/// Stimulus trace length of the lane kernel (replayed cyclically).
const LANE_TRACE_CYCLES: u32 = 512;

/// The lane kernel's demand stimulus: the four named synthetic mixes
/// phased per lane with per-lane offsets ([`LaneTraceSpec`]'s
/// `synthetic_mix`), pre-transposed into bit planes.
pub fn lanes_stimulus(cfg: &SimConfig, lanes: usize) -> LaneStimulus {
    let mut spec = LaneTraceSpec::synthetic_mix(LANE_TRACE_CYCLES, 0xA5E5);
    spec.queue_len = spec.queue_len.min(cfg.queue_size as u8);
    let mut stim = LaneStimulus::new(
        lanes,
        LANE_TRACE_CYCLES as usize,
        cfg.queue_size,
        cfg.fabric.rfu_slots,
    );
    let mut row = [UnitType::IntAlu; 7];
    for lane in 0..lanes {
        for (cycle, r) in spec.generate_lane(lane).iter().enumerate() {
            let n = r.len as usize;
            for (e, slot) in row[..n].iter_mut().enumerate() {
                *slot = UnitType::from_index(r.types[e] as usize).expect("valid type index");
            }
            stim.set_row(lane, cycle, &row[..n]);
        }
    }
    stim
}

/// The fault environment of the `faulty` class (and the
/// `rsp-timeline --demo` run): every tenth load fails, an upset strikes
/// every ~50 cycles, scrub sweeps every 64.
pub fn faulty_params() -> FaultParams {
    FaultParams {
        seed: 0xF0A17,
        load_failure_ppm: 100_000,
        upset_ppm: 20_000,
        scrub_interval: 64,
        dead_slots: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_sim::BatchRunner;

    #[test]
    fn classes_are_deterministic_and_halt() {
        let a = workload_classes();
        let b = workload_classes();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.programs, y.programs, "class {} not deterministic", x.name);
            assert!(!x.programs.is_empty());
            let mut cfg = SimConfig::default();
            cfg.fabric.faults = x.faults.clone();
            let mut runner = BatchRunner::new(cfg).expect("valid config");
            for p in &x.programs {
                let report = runner.run(p, CYCLE_BUDGET).expect("valid program");
                assert!(
                    report.halted,
                    "{} hit the cycle budget in class {}",
                    p.name, x.name
                );
            }
        }
    }

    #[test]
    fn lanes_stimulus_exercises_steering() {
        let cfg = SimConfig::default();
        let stim = lanes_stimulus(&cfg, 64);
        let mut runner = rsp_sim::LaneRunner::new(&cfg, stim).expect("lane-capable config");
        let sum = runner.run(u64::from(LANE_TRACE_CYCLES));
        assert!(
            sum.loads_started > 0 && sum.selection_changes > 0,
            "the lane stimulus must exercise steering, not just idle lanes"
        );
    }
}

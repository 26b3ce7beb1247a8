//! Workload inputs, generated from the benchmark seed.
//!
//! Seed 0 reproduces the throughput harness's inputs exactly
//! (`rsp_bench::throughput::workload_classes` and `lanes_stimulus`);
//! every other seed shifts each generator seed, giving held-out programs
//! and traces of the same shape and size. The real-kernel suite has no
//! seed and is the same for every seed.

use rsp_bench::serve_saturation::arrival;
use rsp_bench::throughput::faulty_params;
use rsp_isa::units::UnitType;
use rsp_isa::Program;
use rsp_serve::TenantRequest;
use rsp_sim::{FaultParams, LaneStimulus, PolicyKind, SimConfig};
use rsp_workloads::{kernels, LaneTraceSpec, PhasedSpec, SynthSpec, UnitMix};

/// Per-program cycle budget; every program halts far below it.
pub const CYCLE_BUDGET: u64 = rsp_bench::throughput::CYCLE_BUDGET;

/// Lanes the `lanes` workload steps (4 words of 64).
pub const LANES: usize = 256;

/// Demand-trace length of the lane stimulus (replayed cyclically), as in
/// the throughput harness.
const LANE_TRACE_CYCLES: u32 = 512;

/// Odd multiplier spreading seeds far apart in every generator's space.
const SEED_STRIDE: u64 = 1_000_003;

fn shifted(base: u64, seed: u64) -> u64 {
    base.wrapping_add(seed.wrapping_mul(SEED_STRIDE))
}

/// The `scalar` program set: the throughput harness's `synthetic-mix`
/// (12 programs), `phased` (3) and `kernels` (8) classes.
pub fn scalar_programs(seed: u64) -> Vec<Program> {
    let mut programs = Vec::new();
    for (name, mix) in UnitMix::named() {
        for i in 0..3 {
            let mut spec = SynthSpec::new(format!("mix-{name}-{i}"), mix, shifted(2000 + i, seed));
            spec.iterations = 4;
            programs.push(spec.generate());
        }
    }
    programs.extend(phased_programs(seed));
    programs.extend(kernels::suite());
    programs
}

/// The three phase-changing programs (the `phased` and `faulty` classes).
pub fn phased_programs(seed: u64) -> Vec<Program> {
    (0..3)
        .map(|i| PhasedSpec::int_fp_mem(300, 3, shifted(3000 + i, seed)).generate())
        .collect()
}

/// The `scalar-faulty` machine: the throughput harness's fault
/// environment (failing loads, upsets, scrub) under the fault-aware
/// paper policy, with the fault schedule keyed by the seed too.
pub fn faulty_config(seed: u64) -> SimConfig {
    let base = faulty_params();
    let mut cfg = SimConfig {
        policy: PolicyKind::PAPER_FAULT_AWARE,
        ..SimConfig::default()
    };
    cfg.fabric.faults = FaultParams {
        seed: shifted(base.seed, seed),
        ..base
    };
    cfg
}

/// The lane kernel's demand stimulus: the four named synthetic mixes
/// phased per lane, pre-transposed into bit planes. Mirrors
/// `rsp_bench::throughput::lanes_stimulus`, which has no seed.
pub fn lane_stimulus(cfg: &SimConfig, lanes: usize, seed: u64) -> LaneStimulus {
    let mut spec = LaneTraceSpec::synthetic_mix(LANE_TRACE_CYCLES, shifted(0xA5E5, seed));
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

/// The `n`-th tenant of the serve workload's request stream: the
/// serve-saturation arrival mix (7 in 8 scalar 1024-cycle tenants, 1 in 8
/// lane tenants), keyed by the seed.
pub fn tenant(seed: u64, n: u64) -> TenantRequest {
    arrival(seed.wrapping_mul(1_000_000).wrapping_add(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_bench::throughput::{lanes_stimulus, workload_classes, DEFAULT_LANES};

    #[test]
    fn seed_zero_reproduces_the_throughput_classes() {
        let classes = workload_classes();
        let class = |name: &str| {
            classes
                .iter()
                .find(|c| c.name == name)
                .expect("class exists")
                .programs
                .clone()
        };
        let mut want = class("synthetic-mix");
        want.extend(class("phased"));
        want.extend(class("kernels"));
        assert_eq!(scalar_programs(0), want);
        assert_eq!(phased_programs(0), class("faulty"));
        assert_eq!(faulty_config(0).fabric.faults, faulty_params());

        let cfg = SimConfig::default();
        let ours = lane_stimulus(&cfg, DEFAULT_LANES, 0);
        let theirs = lanes_stimulus(&cfg, DEFAULT_LANES);
        for lane in [0, 63, 64, 255] {
            for cycle in 0..ours.cycles() {
                assert_eq!(ours.row(lane, cycle), theirs.row(lane, cycle));
            }
        }
    }

    #[test]
    fn other_seeds_are_held_out_but_same_shape() {
        let a = scalar_programs(0);
        let b = scalar_programs(7);
        assert_eq!(a.len(), b.len());
        assert_ne!(a[0].instrs, b[0].instrs);
        assert_eq!(scalar_programs(7), b, "a seed always gives the same inputs");
        assert_ne!(tenant(0, 3), tenant(1, 3));
    }
}

//! Simulated-cycles-per-wall-second throughput harness.
//!
//! Measures how fast the simulator itself runs (host perf, not modelled
//! perf): each *workload class* is a fixed set of generated programs, run
//! back to back on one reused machine via [`rsp_sim::BatchRunner`], and
//! timed with repeated passes until a minimum wall-clock window fills.
//! The result — simulated cycles per wall-second per class — is written
//! as `BENCH_throughput.json` so optimisation work on the hot loop has a
//! stable before/after yardstick. The `throughput` binary is the CLI;
//! the steady-state Criterion benchmark in `benches/end_to_end.rs`
//! reuses [`workload_classes`].

use rsp_isa::units::UnitType;
use rsp_isa::Program;
use rsp_sim::lanes::{LaneRunner, LaneStimulus};
use rsp_sim::{BatchRunner, FaultParams, SimConfig, SimReport};
use rsp_workloads::{kernels, LaneTraceSpec, PhasedSpec, SynthSpec, UnitMix};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

use crate::sweep::{Sweep, SweepError};

/// Per-program cycle budget. Generous: every class program halts well
/// under this, so hitting it indicates a simulator bug.
pub const CYCLE_BUDGET: u64 = 10_000_000;

/// A named set of programs measured as one unit.
pub struct WorkloadClass {
    /// Class name (the JSON key).
    pub name: &'static str,
    /// Programs run back to back each pass.
    pub programs: Vec<Program>,
    /// Fault-model parameters for this class (default: fault model off,
    /// which keeps `Fabric::tick` on its inert fast path).
    pub faults: FaultParams,
}

/// The harness's workload classes. Deterministic (fixed seeds): the
/// same programs are generated on every invocation, so cycles/sec
/// numbers are comparable across builds.
///
/// * one class per named synthetic mix (int/fp/mem-heavy, balanced);
/// * `synthetic-mix` — all four mixes interleaved across seeds (the
///   acceptance-gate class);
/// * `phased` — mix changes mid-program, exercising steering churn;
/// * `kernels` — the real-kernel suite;
/// * `faulty` — the phased programs under an active fault model
///   (failing loads, upsets, scrub), timing the fault tick + recovery
///   paths that every other class skips.
pub fn workload_classes() -> Vec<WorkloadClass> {
    let mut classes = Vec::new();
    for (name, mix) in UnitMix::named() {
        let programs = (0..4)
            .map(|seed| {
                let mut spec = SynthSpec::new(format!("{name}-{seed}"), mix, 1000 + seed);
                spec.iterations = 4;
                spec.generate()
            })
            .collect();
        classes.push(WorkloadClass {
            name,
            programs,
            faults: FaultParams::default(),
        });
    }
    let mut mixed = Vec::new();
    for (name, mix) in UnitMix::named() {
        for seed in 0..3 {
            let mut spec = SynthSpec::new(format!("mix-{name}-{seed}"), mix, 2000 + seed);
            spec.iterations = 4;
            mixed.push(spec.generate());
        }
    }
    classes.push(WorkloadClass {
        name: "synthetic-mix",
        programs: mixed,
        faults: FaultParams::default(),
    });
    classes.push(WorkloadClass {
        name: "phased",
        programs: (0..3)
            .map(|seed| PhasedSpec::int_fp_mem(300, 3, 3000 + seed).generate())
            .collect(),
        faults: FaultParams::default(),
    });
    classes.push(WorkloadClass {
        name: "kernels",
        programs: kernels::suite(),
        faults: FaultParams::default(),
    });
    classes.push(WorkloadClass {
        name: "faulty",
        programs: (0..3)
            .map(|seed| PhasedSpec::int_fp_mem(300, 3, 3000 + seed).generate())
            .collect(),
        faults: faulty_params(),
    });
    classes
}

/// Name of the bit-sliced lane-kernel throughput class.
pub const LANES_CLASS: &str = "lanes-synthetic-mix";

/// Lanes the lane-kernel class steps by default (a multiple of 64).
pub const DEFAULT_LANES: usize = 256;

/// Stimulus trace length for the lanes class (replayed cyclically).
const LANE_TRACE_CYCLES: u32 = 512;

/// Kernel steps per timed pass of the lanes class.
const LANE_PASS_CYCLES: u64 = 4_096;

/// The lanes class's demand stimulus: the four named synthetic mixes
/// phased per lane with per-lane offsets ([`LaneTraceSpec`]'s
/// `synthetic_mix`), pre-transposed into bit planes. Deterministic, so
/// numbers are comparable across builds.
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

/// Measure the bit-sliced lane kernel: `lanes` synthetic-mix machines
/// stepped in lockstep until `min_wall` fills (at least one pass). The
/// headline `cycles_per_sec` is **aggregate lane-cycles** per
/// wall-second — comparable against the scalar `synthetic-mix` class's
/// per-machine rate to read off the kernel's speedup. Lanes retire no
/// instructions (they run the steering loop, not the pipeline), so
/// `retired` is 0 and `programs` counts lanes.
pub fn measure_lanes(cfg: &SimConfig, lanes: usize, min_wall: Duration) -> ClassResult {
    let stim = lanes_stimulus(cfg, lanes);
    let mut runner = LaneRunner::new(cfg, stim).expect("lane-capable config");
    let mut passes = 0u64;
    let started = Instant::now();
    loop {
        runner.run(LANE_PASS_CYCLES);
        passes += 1;
        if started.elapsed() >= min_wall {
            break;
        }
    }
    let wall = started.elapsed().as_secs_f64();
    let sum = runner.summary();
    assert!(
        sum.loads_started > 0 && sum.selection_changes > 0,
        "lanes class must exercise steering, not just idle lanes"
    );
    ClassResult {
        name: LANES_CLASS.to_string(),
        programs: lanes,
        passes,
        sim_cycles: sum.lane_cycles,
        retired: 0,
        wall_seconds: wall,
        cycles_per_sec: sum.lane_cycles as f64 / wall,
        instrs_per_sec: 0.0,
    }
}

/// The fault environment of the `faulty` throughput class (and the
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

/// Measured throughput of one class.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassResult {
    /// Class name.
    pub name: String,
    /// Programs per pass.
    pub programs: usize,
    /// Full passes over the program set.
    pub passes: u64,
    /// Simulated cycles accumulated over all passes.
    pub sim_cycles: u64,
    /// Instructions retired over all passes.
    pub retired: u64,
    /// Wall-clock seconds spent stepping (includes per-program machine
    /// resets — that is part of the batched driver's cost).
    pub wall_seconds: f64,
    /// The headline number: simulated cycles per wall-second.
    pub cycles_per_sec: f64,
    /// Retired instructions per wall-second.
    pub instrs_per_sec: f64,
}

/// The whole report, serialised to `BENCH_throughput.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// True when produced with `--quick` (single pass; CI smoke only —
    /// numbers are noisy).
    pub quick: bool,
    /// Steering policy of the measured configuration.
    pub policy: String,
    /// Per-class results.
    pub classes: Vec<ClassResult>,
}

impl ThroughputReport {
    /// The result for a class, by name.
    pub fn class(&self, name: &str) -> Option<&ClassResult> {
        self.classes.iter().find(|c| c.name == name)
    }
}

/// Run one class until at least `min_wall` of measured stepping has
/// accumulated (always at least one full pass).
pub fn measure_class(cfg: &SimConfig, class: &WorkloadClass, min_wall: Duration) -> ClassResult {
    let mut cfg = cfg.clone();
    cfg.fabric.faults = class.faults.clone();
    let mut runner = BatchRunner::new(cfg).expect("valid config");
    let mut sim_cycles = 0u64;
    let mut retired = 0u64;
    let mut passes = 0u64;
    let started = Instant::now();
    loop {
        for p in &class.programs {
            let report: SimReport = runner.run(p, CYCLE_BUDGET).expect("valid program");
            assert!(
                report.halted,
                "{} hit the cycle budget in class {}",
                p.name, class.name
            );
            sim_cycles += report.cycles;
            retired += report.retired;
        }
        passes += 1;
        if started.elapsed() >= min_wall {
            break;
        }
    }
    let wall = started.elapsed().as_secs_f64();
    ClassResult {
        name: class.name.to_string(),
        programs: class.programs.len(),
        passes,
        sim_cycles,
        retired,
        wall_seconds: wall,
        cycles_per_sec: sim_cycles as f64 / wall,
        instrs_per_sec: retired as f64 / wall,
    }
}

/// Measure every class under `cfg`. `min_wall` is per class.
pub fn measure_all(cfg: &SimConfig, min_wall: Duration, quick: bool) -> ThroughputReport {
    let classes = workload_classes()
        .iter()
        .map(|c| measure_class(cfg, c, min_wall))
        .collect();
    ThroughputReport {
        quick,
        policy: format!("{:?}", cfg.policy),
        classes,
    }
}

/// The throughput harness as a [`Sweep`]: one point per workload class,
/// keyed by class name, run **serially** (each point times wall clock —
/// concurrent points would contend for the host CPU and corrupt the
/// measurement). Rows here are *not* pure functions of their keys (they
/// carry timing), so unlike the simulation sweeps the merged artifact is
/// not byte-stable across reruns. For the same reason this sweep is
/// **not cacheable** ([`Sweep::cacheable`] returns `false`): a
/// wall-clock measurement taken on one host, at one load, has no
/// business being served from a content-addressed store to a different
/// run. It runs whole, once, in one process; a killed run starts over.
pub struct ThroughputSweep {
    classes: Vec<WorkloadClass>,
    cfg: SimConfig,
    min_wall: Duration,
    quick: bool,
    lanes: usize,
}

impl ThroughputSweep {
    /// All standard classes under `cfg`, `min_wall` per class. The
    /// lane-kernel class runs with [`DEFAULT_LANES`] lanes; see
    /// [`ThroughputSweep::with_lanes`].
    pub fn new(cfg: SimConfig, min_wall: Duration, quick: bool) -> ThroughputSweep {
        ThroughputSweep {
            classes: workload_classes(),
            cfg,
            min_wall,
            quick,
            lanes: DEFAULT_LANES,
        }
    }

    /// Set the lane count of the lane-kernel class (must be a positive
    /// multiple of 64 — [`rsp_sim::lanes::LaneBatch`] enforces it).
    pub fn with_lanes(mut self, lanes: usize) -> ThroughputSweep {
        self.lanes = lanes;
        self
    }
}

impl Sweep for ThroughputSweep {
    type Point = String;
    type Row = ClassResult;

    fn name(&self) -> &'static str {
        "throughput"
    }

    fn points(&self) -> Vec<String> {
        let mut pts: Vec<String> = self.classes.iter().map(|c| c.name.to_string()).collect();
        pts.push(LANES_CLASS.to_string());
        pts
    }

    fn key(&self, point: &String) -> String {
        point.clone()
    }

    fn run_point(&self, point: &String) -> ClassResult {
        if point == LANES_CLASS {
            return measure_lanes(&self.cfg, self.lanes, self.min_wall);
        }
        let class = self
            .classes
            .iter()
            .find(|c| c.name == point)
            .expect("point references a standard class");
        measure_class(&self.cfg, class, self.min_wall)
    }

    fn parallel(&self) -> bool {
        false
    }

    // Rows are wall-clock measurements, not pure functions of the
    // point — see the struct doc for why reusing them across runs via
    // the artifact store would be wrong.
    fn cacheable(&self) -> bool {
        false
    }

    fn verify(&self, rows: &[ClassResult]) -> Result<(), String> {
        for r in rows {
            if r.cycles_per_sec <= 0.0 || !r.cycles_per_sec.is_finite() || r.sim_cycles == 0 {
                return Err(format!("class {} measured no progress", r.name));
            }
        }
        Ok(())
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("BENCH_throughput.json")
    }

    fn render_artifact(&self, rows: &[ClassResult]) -> Result<String, SweepError> {
        let report = ThroughputReport {
            quick: self.quick,
            policy: format!("{:?}", self.cfg.policy),
            classes: rows.to_vec(),
        };
        serde_json::to_string_pretty(&report).map_err(|e| SweepError::Encode {
            key: "<artifact>".into(),
            msg: e.to_string(),
        })
    }

    fn report(&self, rows: &[ClassResult]) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<16} {:>9} {:>7} {:>14} {:>12} {:>15}",
            "class", "programs", "passes", "sim cycles", "wall (s)", "cycles/sec"
        );
        for c in rows {
            let _ = writeln!(
                s,
                "{:<16} {:>9} {:>7} {:>14} {:>12.3} {:>15.0}",
                c.name, c.programs, c.passes, c.sim_cycles, c.wall_seconds, c.cycles_per_sec
            );
        }
        // Lane-kernel headline: aggregate lane-cycles/sec over the
        // scalar per-machine rate on the same synthetic-mix demand.
        let scalar = rows.iter().find(|c| c.name == "synthetic-mix");
        let lanes = rows.iter().find(|c| c.name == LANES_CLASS);
        if let (Some(scalar), Some(lanes)) = (scalar, lanes) {
            let _ = writeln!(
                s,
                "lanes speedup: {:.1}x aggregate over scalar synthetic-mix ({} lanes)",
                lanes.cycles_per_sec / scalar.cycles_per_sec,
                lanes.programs
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_deterministic_and_halt() {
        let a = workload_classes();
        let b = workload_classes();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.programs, y.programs, "class {} not deterministic", x.name);
            assert!(!x.programs.is_empty());
        }
    }

    #[test]
    fn quick_measurement_produces_sane_numbers() {
        // One pass over the smallest class; just shape-checks the plumbing.
        let cfg = SimConfig::default();
        let class = WorkloadClass {
            name: "smoke",
            programs: vec![kernels::dot_product(16)],
            faults: FaultParams::default(),
        };
        let r = measure_class(&cfg, &class, Duration::ZERO);
        assert_eq!(r.passes, 1);
        assert!(r.sim_cycles > 0);
        assert!(r.cycles_per_sec > 0.0);
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("cycles_per_sec"));
    }
}

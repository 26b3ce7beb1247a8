//! Fault-free invariance: the fault machinery is compiled into every
//! fabric, but with all rates at zero and no dead slots it must be
//! perfectly inert — consuming no randomness and perturbing no timing —
//! so `SimReport`s are bit-identical to a build without it. The golden
//! timing corpus (tests/golden_timings.rs) pins this against history;
//! this suite pins it against the knobs: a nonzero seed or scrub
//! interval alone must change nothing.

use rsp::fabric::fault::FaultParams;
use rsp::isa::Program;
use rsp::sim::{PolicyKind, Processor, SimConfig, SimReport};
use rsp::workloads::{kernels, PhasedSpec, SynthSpec, UnitMix};

fn fault_aware_cfg() -> SimConfig {
    SimConfig {
        policy: PolicyKind::PAPER_FAULT_AWARE,
        ..SimConfig::default()
    }
}

fn corpus() -> Vec<(SimConfig, Program)> {
    vec![
        (SimConfig::default(), kernels::dot_product(32)),
        (SimConfig::default(), kernels::bubble_sort(12)),
        (SimConfig::static_on(1), kernels::matmul(5)),
        (
            SimConfig::oracle(),
            PhasedSpec::int_fp_mem(150, 1, 2024).generate(),
        ),
        (
            SimConfig::default(),
            SynthSpec::new("mem", UnitMix::MEM_HEAVY, 13).generate(),
        ),
        // The fault-aware selection/loader paths are keyed off
        // slot_dead/slot_corrupted, both always false here — they must
        // be exactly as inert as the plain policy.
        (fault_aware_cfg(), kernels::fir(16)),
    ]
}

fn run(mut cfg: SimConfig, faults: FaultParams, p: &Program) -> SimReport {
    cfg.fabric.faults = faults;
    let r = Processor::new(cfg).run(p, 5_000_000).expect("valid");
    assert!(r.halted, "[{}] must halt", p.name);
    r
}

#[test]
fn zero_rate_fault_model_is_bit_identical() {
    for (cfg, p) in corpus() {
        let baseline = run(cfg.clone(), FaultParams::default(), &p);
        // A seed primes the RNG but a disabled model never draws from it.
        let seeded = run(
            cfg.clone(),
            FaultParams {
                seed: 0xDEAD_BEEF,
                ..FaultParams::default()
            },
            &p,
        );
        // Scrubbing with nothing to detect must also be free.
        let scrubbed = run(
            cfg.clone(),
            FaultParams {
                seed: 7,
                scrub_interval: 16,
                ..FaultParams::default()
            },
            &p,
        );
        assert_eq!(
            baseline, seeded,
            "[{}] seed alone perturbed the run",
            p.name
        );
        assert_eq!(
            baseline, scrubbed,
            "[{}] inert scrub perturbed the run",
            p.name
        );
        assert_eq!(baseline.faults, Default::default(), "[{}]", p.name);
    }
}

#[test]
fn zero_rate_reports_count_no_fault_work() {
    for (cfg, p) in corpus() {
        let r = run(cfg, FaultParams::default(), &p);
        assert_eq!(r.faults.load_failures, 0);
        assert_eq!(r.faults.upsets_injected, 0);
        assert_eq!(r.faults.upsets_dissipated, 0);
        assert_eq!(r.faults.upsets_detected, 0);
        assert_eq!(r.faults.scrubs, 0);
        let l = &r.loader;
        assert_eq!(l.load_failures, 0);
        assert_eq!(l.retries, 0);
        assert_eq!(l.upsets_detected, 0);
        assert_eq!(l.deferred_backoff, 0);
        assert_eq!(l.skipped_dead, 0);
        assert_eq!(l.replacements, 0, "nothing to re-place without dead slots");
        assert_eq!(
            l.zombie_reloads, 0,
            "nothing to force-reload without upsets"
        );
    }
}

/// The `fault_aware` policy knob itself must be timing-invisible on a
/// healthy fabric: every counter and cycle count matches the plain
/// paper policy bit for bit (only the policy label differs).
#[test]
fn fault_aware_knob_is_inert_without_faults() {
    for (_, p) in corpus() {
        let plain = run(SimConfig::default(), FaultParams::default(), &p);
        let aware = run(fault_aware_cfg(), FaultParams::default(), &p);
        assert_eq!(plain.cycles, aware.cycles, "[{}] cycles", p.name);
        assert_eq!(plain.retired, aware.retired, "[{}] retired", p.name);
        assert_eq!(plain.fabric, aware.fabric, "[{}] fabric stats", p.name);
        assert_eq!(plain.loader, aware.loader, "[{}] loader stats", p.name);
        assert_eq!(plain.faults, aware.faults, "[{}] fault stats", p.name);
        assert_eq!(
            aware.metrics.counter("capacity_reranks"),
            None,
            "[{}] telemetry off must stay empty; and no rerank can fire",
            p.name
        );
    }
}

#[test]
fn ewma_shift_zero_is_the_paper_policy() {
    let smoothed_cfg = SimConfig {
        policy: PolicyKind::PaperSmoothed { shift: 0 },
        ..SimConfig::default()
    };
    for (_, p) in corpus() {
        let plain = run(SimConfig::default(), FaultParams::default(), &p);
        let smoothed = run(smoothed_cfg.clone(), FaultParams::default(), &p);
        assert_eq!(plain.cycles, smoothed.cycles, "[{}] cycles", p.name);
        assert_eq!(plain.retired, smoothed.retired, "[{}] retired", p.name);
        assert_eq!(plain.fabric, smoothed.fabric, "[{}] fabric stats", p.name);
        assert_eq!(plain.loader, smoothed.loader, "[{}] loader stats", p.name);
        assert_eq!(plain.faults, smoothed.faults, "[{}] fault stats", p.name);
        assert_eq!(
            smoothed.policy,
            format!("{}+ewma0", plain.policy),
            "[{}] names differ only by the filter",
            p.name
        );
    }
}

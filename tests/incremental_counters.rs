//! Differential property tests for the incremental counters that the
//! hot loop relies on.
//!
//! `Machine::step` never rescans the wake-up array or the fabric to
//! learn demand, occupancy and availability: `WakeupArray` keeps ready,
//! unscheduled and per-type masks across insert / grant / clear / tick /
//! reschedule (`demand_unscheduled()` / `demand_ready()` are their
//! popcounts), an occupancy mask behind `len()`, `is_empty()`,
//! `is_full()` and `insert`'s free-slot pick (`free_slot()`), and a
//! transposed `dependents()` column per slot for wake-ups; `Fabric`
//! maintains `configured_counts()` / `idle_counts()` across loads, busy
//! toggles and ticks. Each structure also keeps the original O(n) scan around
//! (`*_scan`) precisely so the incremental value can be checked against
//! it. These tests run randomly generated rsp-workloads programs
//! through whole machines and assert the two agree on **every cycle**,
//! under the default machine and under stressed fabric / latency /
//! policy configurations. The effective (post-fault) capacity counter
//! rides along in every check; its dedicated fault-schedule properties
//! live in tests/effective_capacity.rs.

use proptest::prelude::*;
use rsp::isa::units::UnitType;
use rsp::isa::Program;
use rsp::sim::{Processor, SimConfig};
use rsp::workloads::{SynthSpec, UnitMix};

const MIXES: [UnitMix; 6] = [
    UnitMix::INT_HEAVY,
    UnitMix::FP_HEAVY,
    UnitMix::MEM_HEAVY,
    UnitMix::BALANCED,
    UnitMix::INT_ONLY,
    UnitMix::FP_ONLY,
];

fn synth(seed: u64, mix_idx: usize, body_len: usize, branch_prob: f64, iterations: u32) -> Program {
    SynthSpec {
        body_len,
        branch_prob,
        iterations,
        ..SynthSpec::new("incr-counters", MIXES[mix_idx % MIXES.len()], seed)
    }
    .generate()
}

/// Step `program` to completion, asserting on every cycle that the
/// wakeup demand counts, ready mask, dependents columns and occupancy
/// mask, and the fabric availability counters, equal their
/// from-scratch scans.
fn assert_counters_track_scans(program: &Program, cfg: SimConfig) {
    let proc = Processor::new(cfg);
    let mut m = proc.start(program).unwrap();
    while m.cycle() < 2_000_000 && m.step() {
        let w = m.wakeup();
        assert_eq!(
            w.demand_unscheduled(),
            w.demand_unscheduled_scan(),
            "[{}] cycle {}: unscheduled demand diverged from slot scan",
            program.name,
            m.cycle()
        );
        assert_eq!(
            w.demand_ready(),
            w.demand_ready_scan(),
            "[{}] cycle {}: ready demand diverged from slot scan",
            program.name,
            m.cycle()
        );
        assert_eq!(
            w.ready(),
            w.ready_scan(),
            "[{}] cycle {}: ready mask diverged from dependency walk",
            program.name,
            m.cycle()
        );
        for s in 0..w.capacity() {
            assert_eq!(
                w.dependents(s),
                w.dependents_scan(s),
                "[{}] cycle {}: dependents column of slot {s} diverged from deps rows",
                program.name,
                m.cycle()
            );
        }
        let occupied_count = w.occupied_scan().count_ones() as usize;
        assert_eq!(
            w.len(),
            occupied_count,
            "[{}] cycle {}: len() diverged from slot scan",
            program.name,
            m.cycle()
        );
        assert_eq!(
            w.is_empty(),
            occupied_count == 0,
            "[{}] cycle {}: is_empty() diverged from slot scan",
            program.name,
            m.cycle()
        );
        assert_eq!(
            w.is_full(),
            occupied_count == w.capacity(),
            "[{}] cycle {}: is_full() diverged from slot scan",
            program.name,
            m.cycle()
        );
        assert_eq!(
            w.free_slot(),
            (0..w.capacity()).find(|&s| w.get(s).is_none()),
            "[{}] cycle {}: insert's slot is not the lowest free slot",
            program.name,
            m.cycle()
        );
        let f = m.fabric();
        assert_eq!(
            f.configured_counts(),
            f.configured_counts_scan(),
            "[{}] cycle {}: configured counts diverged from unit scan",
            program.name,
            m.cycle()
        );
        assert_eq!(
            f.idle_counts(),
            f.idle_counts_scan(),
            "[{}] cycle {}: idle counts diverged from unit scan",
            program.name,
            m.cycle()
        );
        assert_eq!(
            f.effective_counts(),
            f.effective_counts_scan(),
            "[{}] cycle {}: effective counts diverged from unit scan",
            program.name,
            m.cycle()
        );
        for &t in &UnitType::ALL {
            assert_eq!(
                f.available(t),
                f.available_scan(t),
                "[{}] cycle {}: available({t:?}) diverged from unit scan",
                program.name,
                m.cycle()
            );
        }
    }
    assert!(m.finished(), "[{}] machine hung", program.name);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Default machine (paper steering, paper fabric) over random
    /// programs of every unit mix, with flush pressure from
    /// unpredictable branches.
    #[test]
    fn prop_counters_match_scans_default_machine(
        seed in 0u64..1_000_000,
        mix_idx in 0usize..6,
        body_len in 30usize..120,
        branch_bp in 0u32..35,
        iterations in 1u32..3,
    ) {
        let program = synth(seed, mix_idx, body_len, branch_bp as f64 / 100.0, iterations);
        assert_counters_track_scans(&program, SimConfig::default());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Stressed machines: slow multi-cycle reconfiguration (in-flight
    /// loads interleave with grants), extreme execution latencies
    /// (wake-up timers live long), and narrow reconfig ports.
    #[test]
    fn prop_counters_match_scans_stressed_machine(
        seed in 0u64..1_000_000,
        mix_idx in 0usize..6,
        load_latency in 1u64..6,
        ports in 1usize..9,
        fp_div in 10u32..70,
    ) {
        let mut cfg = SimConfig::default();
        cfg.fabric.per_slot_load_latency = load_latency;
        cfg.fabric.reconfig_ports = ports;
        cfg.latencies.fp_div = fp_div;
        cfg.latencies.int_div = fp_div / 2 + 1;
        let program = synth(seed, mix_idx, 80, 0.2, 2);
        assert_counters_track_scans(&program, cfg);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Wide instruction queues: the wake-up masks span up to all 64
    /// bits, and more entries wait on (and fan out to) each producer.
    #[test]
    fn prop_counters_match_scans_wide_queue(
        seed in 0u64..1_000_000,
        mix_idx in 0usize..6,
        queue_size in 8usize..=64,
    ) {
        let cfg = SimConfig {
            queue_size,
            rob_size: 64,
            ..SimConfig::default()
        };
        let program = synth(seed, mix_idx, 80, 0.15, 2);
        assert_counters_track_scans(&program, cfg);
    }
}

/// The paper's own kernels, start to finish, on the default machine —
/// a deterministic anchor alongside the random programs.
#[test]
fn counters_match_scans_on_kernels() {
    for program in rsp::workloads::kernels::suite() {
        assert_counters_track_scans(&program, SimConfig::default());
    }
}

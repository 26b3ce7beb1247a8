//! Steady-state allocation counting for the simulator hot loop.
//!
//! `Machine::step` is written to reuse scratch buffers owned by the
//! machine instead of allocating per cycle. This test installs a
//! counting wrapper around the system allocator, warms a machine past
//! its high-water marks (scratch buffers, ROB / queue / fetch-group
//! capacity, in-flight reconfiguration list), and then asserts that a
//! long steady-state stretch of `step()` calls performs **zero** heap
//! allocations.
//!
//! The assertion only runs in release builds without the `validate`
//! feature: debug builds cross-verify every incremental counter
//! against a from-scratch scan inside `debug_assert!`s, and `validate`
//! compiles the per-cycle cross-structure invariant checks into
//! `step` — both of which allocate by design. The counter still runs
//! in those builds so the same code path is exercised everywhere.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rsp::sim::{Processor, SimConfig};
use rsp::workloads::{SynthSpec, UnitMix};

/// Counts every allocation and reallocation routed through the global
/// allocator, per thread: the test harness runs sibling tests on other
/// threads, and their allocations must not count against the machine
/// under test. Deallocations are not counted: freeing is legal in the
/// hot loop only if nothing was allocated, so `alloc + realloc == 0`
/// is the whole property.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down at thread exit.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A long mixed program: phased unit mixes force reconfiguration
/// traffic and unpredictable branches force flush/squash churn, so the
/// steady-state window exercises every stage of `step` — fetch,
/// dispatch, steering, issue, execute, complete (including squash
/// recycling), and retire.
fn long_mixed_program() -> rsp::isa::Program {
    SynthSpec {
        body_len: 120,
        branch_prob: 0.12,
        iterations: 1000,
        ..SynthSpec::new("zero-alloc-steady", UnitMix::BALANCED, 42)
    }
    .generate()
}

#[test]
fn step_is_allocation_free_in_steady_state() {
    let proc = Processor::new(SimConfig::default());
    let program = long_mixed_program();
    let mut m = proc.start(&program).unwrap();

    // Warm-up: run a generous prefix so every growable structure
    // reaches its high-water mark (the body loops, so behaviour past
    // this point repeats behaviour seen during warm-up).
    let mut warmup = 0u64;
    while m.cycle() < 20_000 && m.step() {
        warmup += 1;
    }
    assert!(
        warmup >= 20_000,
        "program finished during warm-up ({warmup} cycles) — steady-state window is empty"
    );

    // Steady state: a long stretch of stepping must not touch the
    // allocator at all.
    let before = allocations();
    let mut steady = 0u64;
    while m.cycle() < 120_000 && m.step() {
        steady += 1;
    }
    let during = allocations() - before;
    assert!(steady >= 50_000, "steady-state window too short: {steady}");

    #[cfg(all(not(debug_assertions), not(feature = "validate")))]
    assert_eq!(
        during, 0,
        "Machine::step allocated {during} times over {steady} steady-state cycles"
    );
    // Debug builds allocate inside `debug_assert!` scan verification
    // and `validate` builds inside the per-cycle invariant checks; keep
    // the measurement (so the harness code itself is exercised) but
    // skip the assertion there.
    #[cfg(any(debug_assertions, feature = "validate"))]
    let _ = during;
}

/// The fault-aware selection/loader paths must not buy their recovery
/// with per-cycle allocations: with upsets striking, scrub running,
/// loads failing, a dead slot forcing the re-placement pass, and the
/// effective-capacity view re-ranking candidates, steady-state `step()`
/// still never touches the allocator. (The keyed fault draws are pure
/// functions; the re-placement plan tracks claims in a `u64`.)
#[test]
fn step_with_fault_aware_selection_and_faults_is_allocation_free() {
    use rsp::fabric::fault::FaultParams;
    use rsp::sim::PolicyKind;
    let mut cfg = SimConfig {
        policy: PolicyKind::PAPER_FAULT_AWARE,
        ..SimConfig::default()
    };
    cfg.fabric.faults = FaultParams {
        seed: 0xA110C,
        upset_ppm: 20_000,
        load_failure_ppm: 100_000,
        scrub_interval: 64,
        dead_slots: vec![5],
    };
    let proc = Processor::new(cfg);
    let program = long_mixed_program();
    let mut m = proc.start(&program).unwrap();

    let mut warmup = 0u64;
    while m.cycle() < 20_000 && m.step() {
        warmup += 1;
    }
    assert!(
        warmup >= 20_000,
        "program finished during warm-up ({warmup} cycles)"
    );

    let before = allocations();
    let mut steady = 0u64;
    while m.cycle() < 120_000 && m.step() {
        steady += 1;
    }
    let during = allocations() - before;
    assert!(steady >= 50_000, "steady-state window too short: {steady}");
    let r = m.report();
    assert!(
        r.faults.upsets_injected > 0 && r.faults.scrubs > 0,
        "fault machinery must actually be live in this run: {:?}",
        r.faults
    );

    #[cfg(all(not(debug_assertions), not(feature = "validate")))]
    assert_eq!(
        during, 0,
        "fault-aware step allocated {during} times over {steady} cycles"
    );
    #[cfg(any(debug_assertions, feature = "validate"))]
    let _ = during;
}

/// The bit-sliced lane kernel's steady-state step must be
/// allocation-free too: all plane groups live in fixed-size locals, the
/// state/output planes are preallocated by `LaneBatch::new`, and the
/// keyed fault draws are pure functions. This covers the selecting,
/// loading, upset-striking, and scrubbing paths across 256 lanes.
#[test]
fn lane_kernel_step_is_allocation_free_in_steady_state() {
    use rsp::fabric::fault::FaultParams;
    use rsp::isa::units::TypeCounts;
    use rsp::sim::lanes::{LaneBatch, LaneStimulus};
    use rsp::sim::PolicyKind;

    let mut cfg = SimConfig {
        policy: PolicyKind::PAPER_FAULT_AWARE,
        ..SimConfig::default()
    };
    cfg.fabric.faults = FaultParams {
        seed: 0xBEEF,
        upset_ppm: 20_000,
        load_failure_ppm: 0,
        scrub_interval: 64,
        dead_slots: vec![],
    };

    // A phased demand trace: every lane sweeps int-heavy → fp-heavy →
    // mem-heavy pressure so selections change and loads start/complete.
    let lanes = 256;
    let mut stim = LaneStimulus::new(lanes, 48, cfg.queue_size, cfg.fabric.rfu_slots);
    let phases = [
        TypeCounts::new([3, 2, 1, 0, 0]),
        TypeCounts::new([0, 0, 1, 3, 2]),
        TypeCounts::new([1, 0, 4, 0, 1]),
    ];
    for lane in 0..lanes {
        for cycle in 0..48 {
            let demand = &phases[(cycle / 16 + lane) % phases.len()];
            stim.set_demand_counts(lane, cycle, demand).unwrap();
            stim.set_busy_mask(lane, cycle, ((lane as u64 + cycle as u64) % 7) & 0x3);
        }
    }

    let mut batch = LaneBatch::new(&cfg, lanes).expect("lane batch");
    for c in 0..200u64 {
        batch.step(&stim, (c % 48) as usize);
    }

    let before = allocations();
    for c in 200..10_200u64 {
        batch.step(&stim, (c % 48) as usize);
    }
    let during = allocations() - before;
    let stats = *batch.stats();
    assert!(
        stats.loads_started > 0 && stats.selection_changes > 0,
        "steering must actually be live in this run: {stats:?}"
    );
    assert!(
        stats.upsets_injected > 0 && stats.scrub_passes > 0,
        "fault machinery must actually be live in this run: {stats:?}"
    );

    #[cfg(all(not(debug_assertions), not(feature = "validate")))]
    assert_eq!(
        during, 0,
        "LaneBatch::step allocated {during} times over 10k steady-state cycles"
    );
    #[cfg(any(debug_assertions, feature = "validate"))]
    let _ = during;
}

/// The telemetry hooks must cost nothing on the allocator either when
/// enabled with the no-op sink: counters and histograms live in fixed
/// arrays, and no event is buffered. (A ring sink *does* pre-allocate
/// and may not be paired with this test's property.)
#[test]
fn step_with_counting_telemetry_is_allocation_free() {
    use rsp::sim::Telemetry;
    let proc = Processor::new(SimConfig::default());
    let program = long_mixed_program();
    let mut m = proc.start(&program).unwrap();
    m.set_telemetry(Telemetry::counting());

    let mut warmup = 0u64;
    while m.cycle() < 20_000 && m.step() {
        warmup += 1;
    }
    assert!(
        warmup >= 20_000,
        "program finished during warm-up ({warmup} cycles)"
    );

    let before = allocations();
    let mut steady = 0u64;
    while m.cycle() < 120_000 && m.step() {
        steady += 1;
    }
    let during = allocations() - before;
    assert!(steady >= 50_000, "steady-state window too short: {steady}");
    assert!(
        m.telemetry()
            .metrics()
            .get(rsp::obs::Counter::EventsEmitted)
            > 0,
        "telemetry must actually be live in this run"
    );

    #[cfg(all(not(debug_assertions), not(feature = "validate")))]
    assert_eq!(
        during, 0,
        "telemetry-on step allocated {during} times over {steady} cycles"
    );
    #[cfg(any(debug_assertions, feature = "validate"))]
    let _ = during;
}

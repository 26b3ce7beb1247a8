//! Steady-state allocation counting for the observability hot paths.
//!
//! The SLO registry and the flight recorder sit directly on the serve
//! engine's stepping path, so both are written to the workspace's
//! zero-alloc discipline: [`SloRegistry`] records into fixed per-tenant
//! slabs (the one allocating hook is admission, which is already an
//! allocating path) and [`FlightRecorder`] overwrites a preallocated
//! ring once it has wrapped. This test installs a counting wrapper
//! around the system allocator, warms both structures past their
//! high-water marks, and asserts that a long steady-state stretch of
//! recording performs **zero** heap allocations.
//!
//! The assertion only runs in release builds — debug builds allocate
//! inside `debug_assert!` machinery elsewhere in the workspace and the
//! property is about the optimised hot path. The measurement still runs
//! everywhere so the same code is exercised.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rsp_obs::{FleetEntry, FleetEvent, FlightRecorder, ShedKind};

/// Counts every allocation and reallocation routed through the global
/// allocator, per thread: the test harness allocates on its own threads
/// (spawning the next test, collecting results) while a test measures,
/// and those must not count against the code under test.
/// Deallocations are not counted: freeing is legal in the hot loop
/// only if nothing was allocated first.
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

#[test]
fn slo_and_flight_hot_paths_are_allocation_free_in_steady_state() {
    let tenants = 32u64;

    // Construction and admission are the allocating phase: the registry
    // grows one slab per tenant and the flight ring preallocates.
    let mut slo = rsp_serve::SloRegistry::new(true);
    let mut flight = FlightRecorder::new(256);
    for id in 0..tenants {
        slo.admit(id, id);
        flight.record(FleetEntry {
            tick: id,
            tenant: Some(id),
            event: FleetEvent::Admitted,
        });
    }

    // Warm-up: activate every tenant, run enough quanta that every
    // histogram bucket path has been taken, and wrap the flight ring so
    // steady state exercises the overwrite branch, not the push branch.
    for id in 0..tenants {
        slo.activate(id, id + 2);
    }
    for tick in 0..512u64 {
        for id in 0..tenants {
            slo.quantum(id, tick, 64 + id);
            flight.record(FleetEntry {
                tick,
                tenant: Some(id),
                event: FleetEvent::Quantum { cycles: 64 + id },
            });
        }
        slo.end_tick();
    }
    assert!(
        flight.dropped() > 0,
        "ring must have wrapped during warm-up"
    );

    // Steady state: a long stretch of recording — quanta, sheds, storm
    // bookkeeping, tick rollover — must not touch the allocator at all.
    let before = allocations();
    let mut recorded = 0u64;
    for tick in 512..4_608u64 {
        for id in 0..tenants {
            slo.quantum(id, tick, 64 + (tick ^ id) % 512);
            flight.record(FleetEntry {
                tick,
                tenant: Some(id),
                event: FleetEvent::Quantum { cycles: 64 },
            });
            recorded += 2;
        }
        slo.shed(ShedKind::QueueFull);
        flight.record(FleetEntry {
            tick,
            tenant: None,
            event: FleetEvent::Shed {
                reason: ShedKind::QueueFull,
            },
        });
        slo.end_tick();
        recorded += 2;
    }
    let during = allocations() - before;
    assert!(
        recorded > 100_000,
        "steady-state window too short: {recorded}"
    );
    assert!(
        flight.storms() > 0,
        "storm detection must be live in this run"
    );
    assert_eq!(slo.sheds()[ShedKind::QueueFull as usize], 4_096);

    #[cfg(not(debug_assertions))]
    assert_eq!(
        during, 0,
        "SLO/flight hot path allocated {during} times over {recorded} records"
    );
    // Debug builds may allocate inside assertion machinery elsewhere;
    // keep the measurement but skip the assertion there.
    #[cfg(debug_assertions)]
    let _ = during;
}

/// A shed storm against the full engine must not allocate either: the
/// admission gate runs *before* spec validation, so an overloaded
/// engine rejects a submission with nothing but counter bumps, an SLO
/// slab update, and a flight-ring overwrite — even while storm
/// detection is live and has tripped a (dirless) flight dump. The
/// requests themselves are built outside the measured window; the
/// shed path only drops them, and frees are legal when nothing was
/// allocated first.
#[test]
fn engine_shed_storm_is_allocation_free() {
    use rsp_serve::{EngineConfig, ServeEngine, ShedReason, TenantRequest, WatermarkScheduler};
    use rsp_workloads::{StreamSpec, SynthSpec, UnitMix};

    // queue_depth 0: every submission sheds at the queue watermark.
    let sched = WatermarkScheduler {
        queue_depth: 0,
        max_active: 0,
        step_lag_watermark: 4,
        quantum: 64,
    };
    let cfg = EngineConfig {
        flight_capacity: 64,
        shed_storm_threshold: 32,
        shed_storm_window: 16,
        flight_dir: None,
        ..EngineConfig::default()
    };
    let mut engine = ServeEngine::new(cfg, sched);

    let request = || {
        TenantRequest::new(StreamSpec::synth(
            "storm",
            SynthSpec::new("storm", UnitMix::BALANCED, 1),
            1_000,
        ))
    };

    // Warm-up: wrap the flight ring past its capacity and trip storm
    // detection once (the trigger entry lands in the ring; no dump
    // directory is configured, so no file path is ever formatted).
    let warmup: Vec<TenantRequest> = (0..256).map(|_| request()).collect();
    for req in warmup {
        assert!(matches!(engine.submit(req), Err(ShedReason::QueueFull)));
    }
    assert!(engine.flight_triggers() >= 1, "storm must trip in warm-up");

    // The storm proper: a long burst of rejected submissions.
    let storm: Vec<TenantRequest> = (0..4_096).map(|_| request()).collect();
    let before = allocations();
    let mut shed = 0u64;
    for req in storm {
        if engine.submit(req).is_err() {
            shed += 1;
        }
    }
    let during = allocations() - before;
    assert_eq!(shed, 4_096, "every storm submission must shed");
    assert_eq!(engine.stats().shed_queue_full, 256 + 4_096);

    #[cfg(not(debug_assertions))]
    assert_eq!(
        during, 0,
        "engine shed path allocated {during} times over {shed} sheds"
    );
    #[cfg(debug_assertions)]
    let _ = during;
}

#[test]
fn disabled_paths_stay_allocation_free_and_record_nothing() {
    let mut slo = rsp_serve::SloRegistry::new(false);
    let mut flight = FlightRecorder::off();

    let before = allocations();
    for tick in 0..10_000u64 {
        slo.admit(0, tick);
        slo.activate(0, tick);
        slo.quantum(0, tick, 64);
        slo.shed(ShedKind::StepLag);
        slo.end_tick();
        flight.record(FleetEntry {
            tick,
            tenant: None,
            event: FleetEvent::Shed {
                reason: ShedKind::StepLag,
            },
        });
    }
    let during = allocations() - before;
    assert!(slo.tenant_snapshot(0).is_none());
    assert!(flight.is_empty());
    assert_eq!(slo.sheds(), [0; 3]);

    // The disabled path is one branch per hook: allocation-free even in
    // debug builds (nothing behind the branch runs at all).
    assert_eq!(
        during, 0,
        "disabled SLO/flight hooks allocated {during} times"
    );
}

//! The step phase's worker threads must not allocate.
//!
//! A tick's step phase runs tenant machines on scoped worker threads
//! (DESIGN.md §14); a fleet runs one such phase over all its shards.
//! Threads that allocate make glibc grow a malloc arena each, which is
//! why a thread per shard was rejected for its peak-RSS cost. The
//! workers are meant to run only the allocation-free machine loop, so
//! they create no arena. This test pins that: it installs a counting
//! wrapper around the system allocator, warms 1-, 2- and 4-shard fleets
//! past every growable structure's high-water mark, then runs
//! steady-state ticks (no admission, activation or completion) and
//! asserts that no thread but the caller's allocated.
//!
//! The caller may allocate (spawning a scoped thread does), and the
//! harness's main thread sits idle while this binary's one test runs.
//! A control stretch at one worker, where the tick steps inline, must
//! see no other thread touch the allocator at all; the fan-out stretch
//! must see frees there (std frees each thread's start routine on that
//! thread), which shows the workers ran. The allocation assertion only
//! runs in release builds, like the other zero-alloc suites: debug
//! builds allocate inside `debug_assert!` scan checks in the machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use rsp_serve::{EngineConfig, ShardedEngine, TenantRequest, WatermarkScheduler};
use rsp_workloads::{StreamSpec, SynthSpec, UnitMix};

/// Counts allocations and frees made on every thread but the one that
/// marked itself as the caller.
struct CountingAlloc;

thread_local! {
    static CALLER: Cell<bool> = const { Cell::new(false) };
}

static OTHER_ALLOCS: AtomicU64 = AtomicU64::new(0);
static OTHER_FREES: AtomicU64 = AtomicU64::new(0);

fn off_caller() -> bool {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down at thread exit.
    !CALLER.try_with(Cell::get).unwrap_or(false)
}

fn count_alloc() {
    if off_caller() {
        OTHER_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if off_caller() {
            OTHER_FREES.fetch_add(1, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Scalar tenants per fleet: 20 × 256 = 5120 granted cycles a tick,
/// ten times the engine's 512 granted cycles per step worker, so every
/// tick fans out to all 3 workers the test sets, at every shard count.
const TENANTS: u64 = 20;

/// Ticks of warm-up: 10,240 cycles per machine.
const WARMUP_TICKS: u32 = 40;

/// Ticks in the measured fan-out stretch.
const STEADY_TICKS: u32 = 40;

/// A long mixed program (phased unit mixes, unpredictable branches)
/// that neither halts nor exhausts its budget within the test, with
/// ring telemetry so the workers also record into a ring.
fn long_req(i: u64) -> TenantRequest {
    let synth = SynthSpec {
        body_len: 120,
        branch_prob: 0.12,
        iterations: 1000,
        ..SynthSpec::new("steady", UnitMix::BALANCED, 42 + i)
    };
    TenantRequest {
        telemetry_capacity: 64,
        ..TenantRequest::new(StreamSpec::synth(format!("steady-{i}"), synth, 1_000_000))
    }
}

/// Other threads' (allocations, frees) over `ticks` ticks of `fleet`.
/// Threads still exiting when the last tick returns count too: the
/// pause before the second reading lets them finish.
fn other_threads_over(fleet: &mut ShardedEngine, ticks: u32) -> (u64, u64) {
    let read = || {
        std::thread::sleep(Duration::from_millis(20));
        (
            OTHER_ALLOCS.load(Ordering::SeqCst),
            OTHER_FREES.load(Ordering::SeqCst),
        )
    };
    let (a0, f0) = read();
    for _ in 0..ticks {
        fleet.tick();
    }
    let (a1, f1) = read();
    (a1 - a0, f1 - f0)
}

#[test]
fn step_workers_do_not_allocate_in_steady_state() {
    CALLER.with(|c| c.set(true));
    for shards in [1, 2, 4] {
        let mut fleet = ShardedEngine::new(
            EngineConfig::default(),
            WatermarkScheduler::default(),
            shards,
        );
        fleet.set_step_workers(3);
        for i in 0..TENANTS {
            fleet.submit(long_req(i)).expect("admitted");
        }
        // Warm-up: activation, pool leases and every machine's
        // growable scratch reach their high-water marks.
        for _ in 0..WARMUP_TICKS {
            fleet.tick();
        }
        let stats = fleet.stats();
        assert_eq!((stats.queued, stats.active), (0, TENANTS as usize));

        fleet.set_step_workers(1);
        let (allocs, frees) = other_threads_over(&mut fleet, 4);
        assert_eq!(
            (allocs, frees),
            (0, 0),
            "{shards} shard(s): another thread used the allocator while the tick stepped inline"
        );

        fleet.set_step_workers(3);
        let (allocs, frees) = other_threads_over(&mut fleet, STEADY_TICKS);
        assert!(frees > 0, "{shards} shard(s): no step worker ran");
        let stats = fleet.stats();
        assert_eq!(stats.completed, 0, "a tenant completed: not steady state");
        assert_eq!(stats.active, TENANTS as usize);

        #[cfg(not(debug_assertions))]
        assert_eq!(
            allocs, 0,
            "{shards} shard(s): step workers allocated {allocs} times over {STEADY_TICKS} ticks"
        );
        #[cfg(debug_assertions)]
        let _ = allocs;
    }
}

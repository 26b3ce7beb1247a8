//! `RingSink::write_jsonl` renders a ring without touching the heap
//! when the output buffer already has room: the encoder writes integers
//! through a stack digit buffer and walks the ring in place. The serve
//! engine relies on this to render every retiring tenant into one
//! reused buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rsp_isa::units::UnitType;
use rsp_obs::{Event, RingSink, StallCause, Stamped, MAX_CANDIDATES};

/// Counts every allocation and reallocation routed through the global
/// allocator, per thread: the test harness allocates on its own threads
/// (spawning the next test, collecting results) while a test measures,
/// and those must not count against the code under test.
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

/// A wrapped 256-event ring shaped like a served scalar tenant's:
/// mostly steering decisions, with load, fault and stall traffic.
fn full_ring() -> RingSink {
    let mut ring = RingSink::new(256);
    for cycle in 0..1000u64 {
        let k = cycle as u32;
        let event = match cycle % 5 {
            0 => Event::LoadStarted {
                head: k % 8,
                unit: UnitType::ALL[cycle as usize % UnitType::ALL.len()],
            },
            1 => Event::Stall {
                cause: StallCause::ALL[cycle as usize % StallCause::ALL.len()],
            },
            _ => Event::SteeringDecision {
                scores: [k, k / 3, 0, u32::MAX, 7, 0, 0, 0],
                candidates: MAX_CANDIDATES as u8,
                chosen: (cycle % 4) as u8,
                changed: cycle % 2 == 0,
            },
        };
        ring.record(Stamped {
            cycle: u64::MAX - cycle,
            event,
        });
    }
    assert!(ring.dropped() > 0, "the ring has wrapped");
    ring
}

#[test]
fn write_jsonl_into_a_reserved_string_allocates_nothing() {
    let ring = full_ring();
    let want = ring.to_jsonl();
    let mut out = String::with_capacity(want.len());

    let before = allocations();
    for _ in 0..8 {
        out.clear();
        ring.write_jsonl(&mut out);
    }
    let allocated = allocations() - before;

    assert_eq!(out, want);
    assert_eq!(allocated, 0, "write_jsonl allocated {allocated} time(s)");
}

//! A hostile or merely finished client must not cost the server memory
//! it keeps: a frame header alone reserves no more than a small buffer,
//! a spec naming an oversized workload is shed before anything is
//! generated for it, a connection that has ended leaves no thread
//! stack behind, and a completed tenant's unread log is kept as the
//! events its ring recorded, not rendered on the tick it completes.
//!
//! These tests share a binary with a counting global allocator and no
//! other servers, so `/proc/self/maps` moves only with what they do.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rsp_serve::protocol::read_frame;
use rsp_serve::MAX_FRAME;

/// Counts the bytes every allocation and reallocation asks for, and
/// the bytes every deallocation and reallocation gives back, per
/// thread, so the harness's own threads do not count against the code
/// under test.
struct CountingAlloc;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static FREED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down at thread exit.
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

fn count_freed(bytes: usize) {
    let _ = FREED.try_with(|n| n.set(n.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        count_freed(layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_freed(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn bytes_allocated() -> u64 {
    BYTES.with(Cell::get)
}

/// Bytes this thread holds: allocated and not yet given back.
fn bytes_live() -> i64 {
    BYTES.with(Cell::get) as i64 - FREED.with(Cell::get) as i64
}

#[test]
fn a_frame_header_alone_reserves_no_large_buffer() {
    // A header promising the largest legal frame, ten body bytes, EOF.
    let mut wire = (MAX_FRAME as u32).to_be_bytes().to_vec();
    wire.extend_from_slice(&[b' '; 10]);
    let before = bytes_allocated();
    let err = read_frame(&mut &wire[..]).unwrap_err();
    let allocated = bytes_allocated() - before;
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    assert!(
        allocated < 1 << 20,
        "a {MAX_FRAME}-byte header with a 10-byte body allocated {allocated} bytes"
    );
}

/// One step past a generation cap is a counted `BadSpec` shed: admitted,
/// the spec would make the engine thread allocate in proportion to the
/// size it names when the tenant activates.
#[test]
fn oversized_specs_are_shed_before_they_allocate() {
    use rsp_serve::{EngineConfig, ServeEngine, ShedReason, TenantRequest};
    use rsp_workloads::{
        LaneTraceSpec, PhasedSpec, StreamSpec, StreamWorkload, SynthSpec, UnitMix,
        MAX_LANE_TRACE_CYCLES, MAX_STREAM_BODY_LEN,
    };

    let lane = StreamSpec::lane(
        "lane",
        LaneTraceSpec::synthetic_mix(MAX_LANE_TRACE_CYCLES + 1, 1),
        64,
    );
    let synth = StreamSpec::synth(
        "synth",
        SynthSpec {
            body_len: MAX_STREAM_BODY_LEN + 1,
            ..SynthSpec::new("synth", UnitMix::BALANCED, 2)
        },
        64,
    );
    // Three phases, each under the cap, together one past it.
    let phased = StreamSpec {
        name: "phased".into(),
        workload: StreamWorkload::Phased(PhasedSpec::int_fp_mem(MAX_STREAM_BODY_LEN / 3 + 1, 1, 3)),
        seed: 3,
        max_cycles: 64,
        weight: 0,
    };
    let mut engine = ServeEngine::with_defaults(EngineConfig::default());
    let before = bytes_allocated();
    for spec in [lane, synth, phased] {
        let name = spec.name.clone();
        let shed = engine.submit(TenantRequest::new(spec));
        assert!(
            matches!(shed, Err(ShedReason::BadSpec(_))),
            "{name}: {shed:?}"
        );
    }
    assert!(engine.run_until_idle(1_000), "engine did not drain");
    let allocated = bytes_allocated() - before;
    assert_eq!(engine.stats().shed_bad_spec, 3);
    assert!(
        allocated < 64 << 10,
        "three shed specs allocated {allocated} bytes"
    );
}

/// Every finished connection's thread is released while the server
/// runs: 200 sequential connections leave `/proc/self/maps` (one line
/// per mapping, two per thread stack kept alive) about where it was.
#[cfg(target_os = "linux")]
#[test]
fn finished_connections_release_their_threads() {
    use rsp_serve::{ServeClient, Server, ServerConfig};

    fn maps_lines() -> usize {
        std::fs::read_to_string("/proc/self/maps")
            .unwrap()
            .lines()
            .count()
    }

    let path = std::env::temp_dir().join(format!("rsp-bounded-{}.sock", std::process::id()));
    let addr = path.to_str().unwrap().to_string();
    let server = Server::bind(&addr, ServerConfig::default()).unwrap();
    let handle = std::thread::spawn(move || server.run());

    // One cycle first, so the allocator arenas and thread-stack cache
    // that any connection thread needs are already mapped.
    ServeClient::connect(&addr).unwrap().stats().unwrap();
    let before = maps_lines();
    for _ in 0..200 {
        ServeClient::connect(&addr).unwrap().stats().unwrap();
    }
    let grown = maps_lines().saturating_sub(before);

    ServeClient::connect(&addr).unwrap().shutdown().unwrap();
    handle.join().unwrap().unwrap();
    assert!(
        grown < 100,
        "200 finished connections grew /proc/self/maps by {grown} lines"
    );
}

/// Scalar tenants per telemetry cohort.
const COHORT: u64 = 8;

/// A cohort tenant: a looped program long enough to record well over
/// 1024 events, so every ring below wraps.
fn ring_tenant(i: u64, capacity: usize) -> rsp_serve::TenantRequest {
    use rsp_workloads::{StreamSpec, SynthSpec, UnitMix};
    let spec = StreamSpec::synth(
        format!("ring-{i}"),
        SynthSpec {
            body_len: 120,
            iterations: 16,
            ..SynthSpec::new("ring", UnitMix::BALANCED, 40 + i)
        },
        8_000,
    );
    rsp_serve::TenantRequest {
        telemetry_capacity: capacity,
        ..rsp_serve::TenantRequest::new(spec)
    }
}

/// An engine that steps inline, so every allocation it makes counts on
/// this thread.
fn inline_engine(pool_capacity: usize) -> rsp_serve::ServeEngine {
    use rsp_serve::{EngineConfig, ServeEngine};
    let mut engine = ServeEngine::with_defaults(EngineConfig {
        pool_capacity,
        ..EngineConfig::default()
    });
    engine.set_step_workers(1);
    engine
}

/// Run a cohort with `capacity`-event rings to completion; return the
/// bytes allocated by the ticks in which tenants completed, and the
/// engine. Everything is submitted before the first tick, so nothing
/// activates on a completing tick.
fn completing_tick_bytes(capacity: usize) -> (u64, rsp_serve::ServeEngine) {
    let mut engine = inline_engine(32);
    for i in 0..COHORT {
        engine.submit(ring_tenant(i, capacity)).expect("admitted");
    }
    let mut completing = 0;
    let mut ticks = 0;
    while !engine.is_idle() {
        ticks += 1;
        assert!(ticks < 10_000, "cohort did not drain");
        let stats = engine.stats();
        let before = bytes_allocated();
        engine.tick();
        let allocated = bytes_allocated() - before;
        if engine.stats().completed > stats.completed {
            assert_eq!(engine.stats().queued, 0, "nothing activates now");
            completing += allocated;
        }
    }
    assert_eq!(engine.stats().completed, COHORT);
    (completing, engine)
}

/// A completing scalar tenant hands its event ring to the router as it
/// is: the ticks in which a cohort completes allocate the same with
/// 16- and 1024-event rings. Rendering the rings there allocated about
/// 109 bytes per event, some 880 KB more for the larger cohort.
#[test]
fn completing_ticks_allocate_nothing_per_recorded_event() {
    let (small, _) = completing_tick_bytes(16);
    let (large, engine) = completing_tick_bytes(1024);
    for id in 0..COHORT {
        let lines = engine.telemetry(id).expect("a log").lines().count();
        assert_eq!(lines, 1024, "tenant {id}'s ring wrapped");
    }
    assert!(
        large <= small + 1024,
        "completing ticks allocated {large} bytes with 1024-event rings, \
         {small} with 16-event rings"
    );
}

/// A completed tenant whose log has not been read keeps at most its
/// ring's events (`capacity` × `size_of::<Stamped>()`) plus a fixed
/// overhead: the tenant's key and its slot in the router's map. The
/// baseline is the same cohort with no ring, which keeps the same
/// statuses and SLO slabs; the pool keeps no machine.
#[test]
fn unread_logs_retain_at_most_their_ring() {
    const CAPACITY: usize = 1024;
    const PER_TENANT_OVERHEAD: i64 = 512;
    let retained = |capacity: usize| {
        let mut engine = inline_engine(0);
        let before = bytes_live();
        for i in 0..COHORT {
            engine.submit(ring_tenant(i, capacity)).expect("admitted");
        }
        assert!(engine.run_until_idle(10_000), "cohort did not drain");
        let retained = bytes_live() - before;
        (retained, engine)
    };
    let (base, _) = retained(0);
    let (ringed, engine) = retained(CAPACITY);
    assert!(engine.telemetry(0).is_some(), "the cohort recorded logs");
    let per_tenant = (ringed - base) / COHORT as i64;
    let bound = (CAPACITY * std::mem::size_of::<rsp_obs::Stamped>()) as i64 + PER_TENANT_OVERHEAD;
    assert!(
        per_tenant <= bound,
        "a completed tenant keeps {per_tenant} bytes; bound {bound}"
    );
}

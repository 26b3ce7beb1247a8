//! The step phase's worker count must be invisible: one closed-loop
//! cohort served with 1, 2, 3 or 7 step workers yields identical
//! metrics frames, engine stats, per-tenant telemetry and flight rings.
//!
//! This is the determinism argument of DESIGN.md §14 made executable.
//! Each tenant's machine steps only its own grant, whichever thread runs
//! it, and every shared structure (stats, SLO slabs, flight ring,
//! router, pool) is written afterwards by the serial bookkeeping pass in
//! visit order. The cohort keeps 32 scalars active at weights 3:1, so
//! nearly every tick grants far more than the fan-out threshold and the
//! threaded path runs; 7 workers on a small host also oversubscribes
//! the cores, shuffling which chunk finishes first.

use rsp_serve::{
    EngineConfig, EngineStats, MetricsFrame, ServeEngine, TenantRequest, WfqScheduler,
};
use rsp_workloads::{LaneTraceSpec, StreamSpec, SynthSpec, UnitMix};

const SCALARS: u64 = 48;
const LANES: u64 = 4;
const TENANTS: u64 = SCALARS + LANES;

/// Tenants kept submitted but not yet completed: the scheduler's 32
/// active plus a queue, so a finished tenant is replaced next tick.
const OUTSTANDING: u64 = 40;

/// Tenant `i` of the cohort: a lane stream every 13th, otherwise a
/// scalar stream of varied length, weight 3 for every fourth scalar and
/// weight 1 for the rest, with ring telemetry.
fn cohort_req(i: u64) -> TenantRequest {
    #[allow(unknown_lints, clippy::manual_is_multiple_of)]
    let lane = i % 13 == 12;
    let spec = if lane {
        StreamSpec::lane(
            format!("cohort-lane-{i}"),
            LaneTraceSpec::synthetic_mix(600, i),
            600,
        )
    } else {
        let synth = SynthSpec {
            body_len: 120,
            iterations: 2 + (i % 5) as u32,
            ..SynthSpec::new("cohort", UnitMix::BALANCED, i * 31 + 7)
        };
        #[allow(unknown_lints, clippy::manual_is_multiple_of)]
        let weight = if i % 4 == 0 { 3 } else { 1 };
        StreamSpec::synth(format!("cohort-{i}"), synth, 2_500).with_weight(weight)
    };
    TenantRequest {
        telemetry_capacity: 64,
        ..TenantRequest::new(spec)
    }
}

/// Everything observable about a drained engine.
#[derive(Debug, PartialEq)]
struct Observed {
    metrics: MetricsFrame,
    stats: EngineStats,
    telemetry: Vec<Option<String>>,
    flight: String,
}

/// Serve the cohort closed-loop with `workers` step workers.
fn serve_cohort(workers: usize) -> Observed {
    let cfg = EngineConfig {
        replay_audit_every: 8,
        ..EngineConfig::default()
    };
    let mut engine = ServeEngine::new(cfg, WfqScheduler::default());
    engine.set_step_workers(workers);
    let mut submitted = 0;
    let mut ticks = 0;
    while submitted < TENANTS || !engine.is_idle() {
        let done = engine.stats().completed;
        while submitted < TENANTS && submitted - done < OUTSTANDING {
            engine
                .submit(cohort_req(submitted))
                .expect("roomy watermarks admit the cohort");
            submitted += 1;
        }
        engine.tick();
        ticks += 1;
        assert!(ticks < 100_000, "cohort failed to drain");
    }
    let stats = engine.stats();
    assert_eq!(stats.completed, TENANTS);
    assert_eq!(stats.failed, 0);
    assert_eq!(
        engine.flight_triggers(),
        0,
        "a replay audit failed under {workers} worker(s)"
    );
    Observed {
        metrics: engine.metrics(),
        stats,
        telemetry: (0..TENANTS)
            .map(|id| engine.telemetry(id).map(str::to_string))
            .collect(),
        flight: engine.flight_jsonl(),
    }
}

#[test]
fn step_worker_count_does_not_change_any_output() {
    let inline = serve_cohort(1);
    assert!(
        inline.telemetry.iter().all(Option::is_some),
        "every tenant routes telemetry"
    );
    assert!(!inline.flight.is_empty());
    for workers in [2, 3, 7] {
        let threaded = serve_cohort(workers);
        assert_eq!(
            inline.metrics, threaded.metrics,
            "metrics frame diverged at {workers} workers"
        );
        assert_eq!(
            inline.stats, threaded.stats,
            "stats diverged at {workers} workers"
        );
        for (id, (a, b)) in inline.telemetry.iter().zip(&threaded.telemetry).enumerate() {
            assert_eq!(a, b, "tenant {id} telemetry diverged at {workers} workers");
        }
        assert_eq!(
            inline.flight, threaded.flight,
            "flight ring diverged at {workers} workers"
        );
    }
}

//! The step phase's worker count must be invisible: one closed-loop
//! cohort served with 1, 2, 3 or 7 step workers yields identical
//! metrics frames, engine stats, per-tenant telemetry and flight rings.
//!
//! This is the determinism argument of DESIGN.md §14 made executable.
//! Each tenant's machine steps only its own grant, whichever thread runs
//! it, and every shared structure (stats, SLO slabs, flight ring,
//! router, pool) is written afterwards by the serial bookkeeping pass in
//! visit order. The cohort keeps 32 scalars active at weights 3:1, so
//! nearly every tick grants enough cycles for every worker and the
//! threaded path runs; 7 workers on a small host also oversubscribes
//! the cores, shuffling which worker takes which tenant.
//!
//! A `ShardedEngine` runs one step phase over all its shards' scalar
//! tenants, and a worker may step tenants of several shards. The fleet
//! case serves the same cohort on 2 and 4 shards where no shard alone
//! grants enough cycles to fan out but the fleet does, so only that
//! fleet-wide fan-out can make the threads differ.

use rsp_serve::{
    EngineConfig, EngineStats, MetricsFrame, ServeEngine, TenantRequest, WatermarkScheduler,
};
use rsp_workloads::{LaneTraceSpec, StreamSpec, SynthSpec, UnitMix, MAX_STREAM_WEIGHT};

use rsp_obs::TriggerKind;
use rsp_serve::ShardedEngine;

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
    let wfq = WatermarkScheduler {
        max_weight: MAX_STREAM_WEIGHT,
        ..WatermarkScheduler::default()
    };
    let mut engine = ServeEngine::new(cfg, wfq);
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

/// Granted cycles the engine needs per step worker
/// (`MIN_WORKER_CYCLES`): two base quanta of the default scheduler. A
/// step phase fans out once it grants two workers' worth.
const MIN_WORKER_CYCLES: u64 = 2 * 256;

/// Tenants each shard keeps active: 3 × 256 = 768 granted cycles per
/// tick, under two workers' worth, so a shard alone steps inline, while
/// a fleet of 2 or 4 full shards grants 1536 or 3072 cycles and fans
/// out.
const SHARD_ACTIVE: usize = 3;

/// Tenant `i` of the fleet cohort: [`cohort_req`]'s mix with scalar
/// streams about ten times longer, so most ticks keep every shard full.
fn fleet_req(i: u64) -> TenantRequest {
    let mut req = cohort_req(i);
    if !req.spec.is_lane() {
        let synth = SynthSpec {
            body_len: 120,
            iterations: 16 + (i % 7) as u32,
            ..SynthSpec::new("fleet", UnitMix::BALANCED, i * 31 + 7)
        };
        req.spec = StreamSpec::synth(format!("fleet-{i}"), synth, 25_000)
            .with_weight(req.spec.effective_weight());
    }
    req
}

/// Serve the fleet cohort closed-loop on a `shards`-shard fleet with
/// `workers` step workers. Every grant is one 256-cycle quantum
/// (`max_weight` 1 clamps the cohort's 3:1 weights, which still key the
/// lane groups), and each shard activates at most [`SHARD_ACTIVE`]
/// tenants, so no shard grants two workers' worth on its own while the
/// fleet's total does: only the fleet-wide step phase fans out. The flight rings are read back from one final dump per
/// shard under `flight_dir`.
fn serve_cohort_on_fleet(shards: usize, workers: usize) -> Observed {
    let dir = std::env::temp_dir().join(format!(
        "rsp-tick-fleet-{}-{shards}-{workers}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = EngineConfig {
        replay_audit_every: 8,
        flight_dir: Some(dir.clone()),
        ..EngineConfig::default()
    };
    let sched = WatermarkScheduler {
        max_active: SHARD_ACTIVE,
        step_lag_watermark: u64::MAX,
        ..WatermarkScheduler::default()
    };
    assert!(
        sched.max_active as u64 * sched.burst() < 2 * MIN_WORKER_CYCLES,
        "a shard alone must step inline"
    );
    let mut fleet = ShardedEngine::new(cfg, sched, shards);
    fleet.set_step_workers(workers);
    let mut submitted = 0;
    let mut ticks = 0;
    let mut fleet_fan_outs = 0;
    while submitted < TENANTS || !fleet.is_idle() {
        let done = fleet.stats().completed;
        while submitted < TENANTS && submitted - done < OUTSTANDING {
            fleet
                .submit(fleet_req(submitted))
                .expect("roomy watermarks admit the cohort");
            submitted += 1;
        }
        fleet.tick();
        ticks += 1;
        assert!(ticks < 100_000, "cohort failed to drain");
        // A scalar still active after the tick neither halted nor hit
        // its budget in it, so it stepped its whole 256-cycle grant.
        let s = fleet.stats();
        let scalars = s.active - s.lane_tenants - s.lane_pending;
        if scalars as u64 * 256 >= 2 * MIN_WORKER_CYCLES {
            fleet_fan_outs += 1;
        }
    }
    assert!(
        fleet_fan_outs * 2 > ticks,
        "only {fleet_fan_outs} of {ticks} ticks granted the fleet two workers' worth"
    );
    let stats = fleet.stats();
    assert_eq!(stats.completed, TENANTS);
    assert_eq!(stats.failed, 0);
    let dump = |shard: usize| {
        let files: Vec<_> = std::fs::read_dir(dir.join(format!("shard-{shard}")))
            .expect("the final trigger dumps every shard")
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(
            files.len(),
            1,
            "a replay audit failed on shard {shard} under {workers} worker(s): {files:?}"
        );
        std::fs::read_to_string(&files[0]).unwrap()
    };
    // The fleet exposes its shards' rings only as dumps, so stamp a
    // trigger to write one per shard (its kind is incidental), then
    // read every shard's ring, in shard order, into one string.
    fleet.flight_trigger(TriggerKind::ReplayMismatch);
    let flight = (0..shards).map(dump).collect();
    std::fs::remove_dir_all(&dir).ok();
    Observed {
        metrics: fleet.metrics(),
        stats,
        telemetry: (0..TENANTS)
            .map(|id| fleet.telemetry(id).map(str::to_string))
            .collect(),
        flight,
    }
}

#[test]
fn fleet_step_worker_count_does_not_change_any_output() {
    for shards in [2, 4] {
        let inline = serve_cohort_on_fleet(shards, 1);
        assert!(
            inline.telemetry.iter().all(Option::is_some),
            "every tenant routes telemetry"
        );
        for workers in [2, 3, 7] {
            let threaded = serve_cohort_on_fleet(shards, workers);
            assert_eq!(
                inline.metrics, threaded.metrics,
                "{shards} shards: metrics frame diverged at {workers} workers"
            );
            assert_eq!(
                inline.stats, threaded.stats,
                "{shards} shards: stats diverged at {workers} workers"
            );
            for (id, (a, b)) in inline.telemetry.iter().zip(&threaded.telemetry).enumerate() {
                assert_eq!(
                    a, b,
                    "{shards} shards: tenant {id} telemetry diverged at {workers} workers"
                );
            }
            assert_eq!(
                inline.flight, threaded.flight,
                "{shards} shards: flight rings diverged at {workers} workers"
            );
        }
    }
}

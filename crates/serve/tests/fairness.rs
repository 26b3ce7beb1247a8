//! Fairness regression tests for weighted-fair scheduling.
//!
//! Two pins: (1) a 3:1 weight split yields completed-cycle shares
//! within 10% of 3:1 while both tenants are saturating their grants;
//! (2) with all weights equal (or unset) a scheduler with
//! `max_weight: MAX_STREAM_WEIGHT` degenerates bit-identically to the
//! flat round-robin of `max_weight: 1` — same stats, same telemetry,
//! same metrics frames — so weighted fairness is free until someone
//! actually asks for skewed weights.

use rsp_serve::{
    EngineConfig, EngineStats, ServeEngine, TenantPhase, TenantRequest, WatermarkScheduler,
};
use rsp_workloads::{LaneTraceSpec, StreamSpec, SynthSpec, UnitMix, MAX_STREAM_WEIGHT};

/// A scalar stream long enough that it cannot finish (or halt) inside
/// the measurement window, so every tick it absorbs its full grant.
fn saturating_req(seed: u64, weight: u32) -> TenantRequest {
    let spec = SynthSpec {
        body_len: 200,
        iterations: 1_000,
        ..SynthSpec::new("fair", UnitMix::BALANCED, seed)
    };
    TenantRequest {
        telemetry_capacity: 0,
        ..TenantRequest::new(
            StreamSpec::synth(format!("fair-w{weight}"), spec, u64::MAX / 2).with_weight(weight),
        )
    }
}

fn tenant_cycles(engine: &ServeEngine, id: u64) -> u64 {
    engine
        .metrics()
        .tenants
        .iter()
        .find(|t| t.id == id)
        .and_then(|t| t.snapshot.counter("cycles"))
        .unwrap_or(0)
}

#[test]
fn three_to_one_weights_yield_three_to_one_cycle_shares() {
    let wfq = WatermarkScheduler {
        queue_depth: 8,
        max_active: 8,
        step_lag_watermark: 64,
        quantum: 256,
        max_weight: 8,
    };
    let mut engine = ServeEngine::new(EngineConfig::default(), wfq);
    let heavy = engine.submit(saturating_req(7, 3)).unwrap();
    let light = engine.submit(saturating_req(7, 1)).unwrap();

    for _ in 0..32 {
        engine.tick();
    }

    // Both streams must still be saturating — otherwise the share
    // measurement below would be bounded by completion, not weights.
    for id in [heavy, light] {
        assert_eq!(engine.status(id).unwrap().phase, TenantPhase::Running);
    }

    let h = tenant_cycles(&engine, heavy);
    let l = tenant_cycles(&engine, light);
    assert!(l > 0, "light tenant was starved outright");
    let ratio = h as f64 / l as f64;
    assert!(
        (ratio - 3.0).abs() <= 0.3,
        "completed-cycle shares {h}:{l} (ratio {ratio:.3}) drifted more \
         than 10% from the 3:1 weight split"
    );
}

/// One full run under a scheduler: final stats, every tenant's
/// telemetry, and the merged metrics frame.
fn drive(sched: WatermarkScheduler) -> (EngineStats, Vec<Option<String>>, String) {
    let mut engine = ServeEngine::new(EngineConfig::default(), sched);
    let mut ids = Vec::new();
    for seed in 0..4u64 {
        let spec = StreamSpec::synth(
            format!("eq-{seed}"),
            SynthSpec::new("eq", UnitMix::BALANCED, seed),
            4_000,
        );
        ids.push(engine.submit(TenantRequest::new(spec)).unwrap());
    }
    for seed in 0..2u64 {
        let spec = StreamSpec::lane(
            format!("eq-lane-{seed}"),
            LaneTraceSpec::synthetic_mix(256, seed),
            256,
        );
        ids.push(engine.submit(TenantRequest::new(spec)).unwrap());
    }
    assert!(engine.run_until_idle(100_000));
    let telemetry = ids
        .iter()
        .map(|&id| engine.telemetry(id).map(str::to_string))
        .collect();
    let frame = serde_json::to_string(&engine.metrics()).unwrap();
    (engine.stats(), telemetry, frame)
}

#[test]
fn equal_weights_degenerate_to_round_robin_bit_identically() {
    let flat = WatermarkScheduler {
        max_weight: 1,
        ..WatermarkScheduler::default()
    };
    let baseline = drive(flat);
    let wfq = drive(WatermarkScheduler {
        max_weight: MAX_STREAM_WEIGHT,
        ..flat
    });
    assert_eq!(baseline.0, wfq.0, "stats diverged under equal weights");
    assert_eq!(baseline.1, wfq.1, "telemetry diverged under equal weights");
    assert_eq!(
        baseline.2, wfq.2,
        "metrics frame diverged under equal weights"
    );
}

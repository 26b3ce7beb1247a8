//! Scheduler conformance kit: one harness over the whole policy space.
//!
//! Every [`WatermarkScheduler`] the serve engine can mount — flat
//! round-robin at `max_weight` 1 through weighted-fair pacing above it
//! — must uphold the same contract; this suite drives one check
//! function under proptest-generated watermarks, weight ceilings and
//! arrival schedules. Pinned properties:
//!
//! * admission never exceeds the watermarks (queue depth is a hard
//!   bound on observed queue occupancy);
//! * every shed carries a [`ShedReason`] and each reason is counted —
//!   `submitted = admitted + sheds`, per-reason tallies match;
//! * activations never exceed the ceiling (observed active tenants,
//!   including lane tenants held for packing, stay ≤ `max_active`);
//! * quanta, credits, and bursts are positive, and no weight earns
//!   credit above the burst cap (the DRR deficit bound);
//! * identical `(specs, seeds, arrival schedule)` produce bit-identical
//!   engine telemetry and counters — per policy, run-to-run.

use proptest::prelude::*;
use rsp_serve::{
    EngineConfig, EngineStats, ServeEngine, ShedReason, TenantRequest, WatermarkScheduler,
};
use rsp_workloads::{LaneTraceSpec, StreamSpec, SynthSpec, UnitMix};

/// One planned submission: wait `gap` ticks, then submit a stream
/// derived from `(seed, lane, weight)`.
#[derive(Debug, Clone)]
struct Arrival {
    gap: u8,
    seed: u64,
    lane: bool,
    weight: u32,
}

fn request(a: &Arrival) -> TenantRequest {
    let spec = if a.lane {
        StreamSpec::lane(
            format!("lane-{}", a.seed),
            LaneTraceSpec::synthetic_mix(128, a.seed),
            128,
        )
    } else {
        StreamSpec::synth(
            format!("synth-{}", a.seed),
            SynthSpec {
                body_len: 80,
                ..SynthSpec::new("c", UnitMix::BALANCED, a.seed)
            },
            2_000,
        )
    };
    TenantRequest {
        telemetry_capacity: 64,
        ..TenantRequest::new(spec.with_weight(a.weight))
    }
}

/// Everything one run of the plan observed.
#[derive(Debug, PartialEq)]
struct RunResult {
    stats: EngineStats,
    max_queued: usize,
    max_active: usize,
    shed_reasons: Vec<ShedReason>,
    telemetry: Vec<(u64, String)>,
}

const DRAIN_TICKS: u64 = 3_000;

/// Drive one engine through the plan. This is the only driver in the
/// suite, so no policy gets special treatment anywhere.
fn drive(sched: WatermarkScheduler, plan: &[Arrival]) -> RunResult {
    let mut engine = ServeEngine::new(EngineConfig::default(), sched);
    let mut ids = Vec::new();
    let mut shed_reasons = Vec::new();
    let mut max_queued = 0usize;
    let mut max_active = 0usize;
    let observe = |e: &ServeEngine, mq: &mut usize, ma: &mut usize| {
        let s = e.stats();
        *mq = (*mq).max(s.queued);
        *ma = (*ma).max(s.active);
    };
    for a in plan {
        for _ in 0..a.gap {
            engine.tick();
            observe(&engine, &mut max_queued, &mut max_active);
        }
        match engine.submit(request(a)) {
            Ok(id) => ids.push(id),
            Err(r) => shed_reasons.push(r),
        }
        observe(&engine, &mut max_queued, &mut max_active);
    }
    // Drain bounded: schedulers with max_active = 0 never go idle.
    for _ in 0..DRAIN_TICKS {
        if engine.is_idle() {
            break;
        }
        engine.tick();
        observe(&engine, &mut max_queued, &mut max_active);
    }
    let telemetry = ids
        .iter()
        .map(|&id| (id, engine.telemetry(id).unwrap_or_default().to_string()))
        .collect();
    RunResult {
        stats: engine.stats(),
        max_queued,
        max_active,
        shed_reasons,
        telemetry,
    }
}

/// The conformance contract, checked for one policy instance.
fn check(sched: WatermarkScheduler, plan: &[Arrival]) {
    // Quanta, credits, and bursts are positive; credit never exceeds
    // the burst cap (so DRR deficits stay bounded by one burst).
    prop_assert!(sched.quantum() >= 1);
    prop_assert!(sched.burst() >= 1);
    for w in [0u32, 1, 3, 7, u32::MAX] {
        prop_assert!(sched.credit(w) >= 1, "credit({w}) must be positive");
        prop_assert!(
            sched.credit(w) <= sched.burst(),
            "credit({w}) exceeds the burst cap"
        );
    }

    let a = drive(sched, plan);

    // Watermarks are hard bounds on what the engine ever holds.
    prop_assert!(
        a.max_queued <= sched.queue_depth,
        "queue {} exceeded depth watermark {}",
        a.max_queued,
        sched.queue_depth
    );
    prop_assert!(
        a.max_active <= sched.max_active,
        "active {} exceeded ceiling {}",
        a.max_active,
        sched.max_active
    );

    // Every shed is explained and counted: nothing is silently dropped.
    prop_assert_eq!(
        a.stats.submitted,
        a.stats.admitted + a.stats.shed_total(),
        "submissions must be admitted or counted as shed"
    );
    let mut queue_full = 0u64;
    let mut step_lag = 0u64;
    let mut bad_spec = 0u64;
    for r in &a.shed_reasons {
        match r {
            ShedReason::QueueFull => queue_full += 1,
            ShedReason::StepLag => step_lag += 1,
            ShedReason::BadSpec(_) => bad_spec += 1,
        }
    }
    prop_assert_eq!(a.stats.shed_queue_full, queue_full);
    prop_assert_eq!(a.stats.shed_step_lag, step_lag);
    prop_assert_eq!(a.stats.shed_bad_spec, bad_spec);

    // Identical (specs, seeds, arrival schedule) → bit-identical run.
    let b = drive(sched, plan);
    prop_assert_eq!(a, b, "engine telemetry/counters must be deterministic");
}

fn arrival() -> impl Strategy<Value = Arrival> {
    (0u8..3, 0u64..1_000, any::<bool>(), 0u32..5).prop_map(|(gap, seed, lane, weight)| Arrival {
        gap,
        seed,
        lane,
        weight,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn conformance_holds_for_every_scheduler(
        queue_depth in 1usize..6,
        max_active in 0usize..5,
        step_lag_watermark in 1u64..8,
        quantum in 1u64..300,
        max_weight in 1u32..=8,
        plan in proptest::collection::vec(arrival(), 1..8),
    ) {
        check(
            WatermarkScheduler { queue_depth, max_active, step_lag_watermark, quantum, max_weight },
            &plan,
        );
    }
}

/// Fixed-plan smoke for CI logs: exercises all three shed reasons
/// through the same checker, flat and weighted (a bad spec, a queue
/// overflow under a tight depth, and a lag shed under a zero ceiling).
#[test]
fn fixed_plan_covers_every_shed_reason() {
    let wm = WatermarkScheduler {
        queue_depth: 2,
        max_active: 0,
        step_lag_watermark: 2,
        quantum: 64,
        max_weight: 1,
    };
    let plan: Vec<Arrival> = (0..6)
        .map(|i| Arrival {
            gap: if i < 4 { 0 } else { 4 },
            seed: i,
            lane: false,
            weight: 1,
        })
        .collect();
    check(wm, &plan);
    check(
        WatermarkScheduler {
            max_weight: 4,
            ..wm
        },
        &plan,
    );

    // Bad specs shed with a counted reason under roomy watermarks too.
    let roomy = WatermarkScheduler::default();
    let mut engine = ServeEngine::new(EngineConfig::default(), roomy);
    let mut bad = request(&Arrival {
        gap: 0,
        seed: 0,
        lane: false,
        weight: 1,
    });
    bad.spec.max_cycles = 0;
    assert!(matches!(engine.submit(bad), Err(ShedReason::BadSpec(_))));
    assert_eq!(engine.stats().shed_bad_spec, 1);
}

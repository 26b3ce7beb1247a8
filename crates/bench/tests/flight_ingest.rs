//! End-to-end flight-recorder ingestion: drive an in-process serve
//! engine into a shed storm, take its flight-recorder JSONL (the same
//! bytes a `flight-<seq>-shed_storm.jsonl` dump contains), and check
//! that the timeline fleet analyzer reconstructs the story — the same
//! path `rsp-timeline --flight` runs on a dump file.

use rsp_bench::timeline::analyze_fleet;
use rsp_obs::parse_fleet_jsonl;
use rsp_serve::{EngineConfig, ServeEngine, TenantRequest, WatermarkScheduler};
use rsp_workloads::{StreamSpec, SynthSpec, UnitMix};

fn req(n: u64) -> TenantRequest {
    TenantRequest::new(StreamSpec::synth(
        format!("flight-{n}"),
        SynthSpec {
            body_len: 80,
            ..SynthSpec::new("flight", UnitMix::BALANCED, 7_000 + n)
        },
        4_096,
    ))
}

#[test]
fn fleet_analyzer_ingests_an_engine_flight_dump() {
    let cfg = EngineConfig {
        shed_storm_threshold: 4,
        ..EngineConfig::default()
    };
    // Two tenants fit; the rest shed at the queue watermark, all at the
    // same engine tick, so any detection window catches the storm.
    let scheduler = WatermarkScheduler {
        queue_depth: 2,
        max_active: 2,
        step_lag_watermark: 1_000_000,
        quantum: 256,
        ..WatermarkScheduler::default()
    };
    let mut engine = ServeEngine::new(cfg, scheduler);
    let mut shed = 0u64;
    for n in 0..8u64 {
        if engine.submit(req(n)).is_err() {
            shed += 1;
        }
    }
    assert_eq!(shed, 6, "queue depth 2 admits exactly two tenants");
    assert!(engine.run_until_idle(1_000_000), "engine must drain");
    assert_eq!(engine.flight_triggers(), 1, "the storm trips exactly once");

    // The in-memory ring serialises to the same JSONL a dump file holds.
    let entries = parse_fleet_jsonl(&engine.flight_jsonl()).expect("ring JSONL parses");
    let report = analyze_fleet(&entries);

    assert_eq!(report.admitted, 2);
    assert_eq!(report.completed, 2);
    assert_eq!(report.failed, 0);
    let queue_full: u64 = report
        .sheds
        .iter()
        .filter(|s| s.label == "queue_full")
        .map(|s| s.count)
        .sum();
    assert_eq!(queue_full, shed);
    let storms: u64 = report
        .triggers
        .iter()
        .filter(|t| t.label == "shed_storm")
        .map(|t| t.count)
        .sum();
    assert_eq!(storms, 1);
    // Both admitted tenants finished; their arcs carry the quanta and
    // cycle totals the engine stepped (bounded by the cycle budget).
    assert_eq!(report.tenants.len(), 2);
    for arc in &report.tenants {
        assert!(arc.quanta > 0, "tenant {} never stepped", arc.tenant);
        assert!(
            arc.cycles > 0 && arc.cycles <= 4_096,
            "tenant {} cycle total {}",
            arc.tenant,
            arc.cycles
        );
        assert!(
            arc.completed_at.is_some(),
            "tenant {} unfinished",
            arc.tenant
        );
    }
    // The rendered report names the anomaly — what an operator reading
    // `rsp-timeline --flight` output greps for.
    let rendered = report.render();
    assert!(rendered.contains("shed_storm"), "render:\n{rendered}");
    assert!(rendered.contains("queue_full"), "render:\n{rendered}");
}

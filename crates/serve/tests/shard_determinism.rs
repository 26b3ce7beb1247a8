//! Sharding must be invisible to tenants: the same 16-tenant fleet
//! served on 1, 2, or 4 engine shards produces identical per-tenant
//! telemetry streams and final statuses, and the per-tenant SLO
//! counts still sum to the merged aggregate slab. This is the
//! replay-identity argument from DESIGN.md §16 made executable — a
//! tenant's telemetry depends only on (spec, seed, policy, base
//! config), never on which shard or lane group served it.
//!
//! The server runs a `ShardedEngine` at every shard count, so two more
//! pins live here: a one-shard fleet answers every read exactly as a
//! bare `ServeEngine` does, and each shard of a larger fleet keeps its
//! own flight dumps (storms and panics) in its own directory.

use rsp_obs::{parse_fleet_jsonl, FleetEntry, FleetEvent, TriggerKind};
use rsp_serve::{
    shard_of, EngineConfig, PanicFlightGuard, ServeEngine, ShardedEngine, TenantPhase,
    TenantRequest, TenantStatus, WatermarkScheduler, SLO_HISTO_NAMES,
};
use rsp_workloads::{LaneTraceSpec, StreamSpec, SynthSpec, UnitMix};
use std::path::{Path, PathBuf};

const TENANTS: u64 = 16;

/// A mixed fleet: three scalar streams with varied seeds and weights,
/// then a lane stream, repeating.
fn fleet_req(i: u64) -> TenantRequest {
    #[allow(unknown_lints, clippy::manual_is_multiple_of)]
    let lane = (i + 1) % 4 == 0;
    let spec = if lane {
        StreamSpec::lane(
            format!("fleet-lane-{i}"),
            LaneTraceSpec::synthetic_mix(200, i),
            200,
        )
    } else {
        StreamSpec::synth(
            format!("fleet-{i}"),
            SynthSpec {
                body_len: 120,
                ..SynthSpec::new("fleet", UnitMix::BALANCED, i * 17 + 3)
            },
            3_000,
        )
    };
    TenantRequest {
        telemetry_capacity: 64,
        ..TenantRequest::new(spec.with_weight((i % 3) as u32 + 1))
    }
}

/// Run the fleet on `shards` shards; return per-tenant (id, phase,
/// cycles, telemetry) in submission order.
fn run(shards: usize) -> Vec<(u64, TenantPhase, u64, String)> {
    let mut fleet = ShardedEngine::new(
        EngineConfig::default(),
        WatermarkScheduler::default(),
        shards,
    );
    let ids: Vec<u64> = (0..TENANTS)
        .map(|i| {
            fleet
                .submit(fleet_req(i))
                .expect("roomy watermarks admit all")
        })
        .collect();
    assert!(fleet.run_until_idle(100_000), "fleet failed to drain");
    ids.iter()
        .map(|&id| {
            let s = fleet.status(id).unwrap();
            let t = fleet.telemetry(id).unwrap_or_default().to_string();
            (id, s.phase, s.cycles, t)
        })
        .collect()
}

#[test]
fn shard_count_does_not_change_tenant_telemetry() {
    let one = run(1);
    let two = run(2);
    let four = run(4);
    assert_eq!(one, two, "2-shard run diverged from single-engine run");
    assert_eq!(one, four, "4-shard run diverged from single-engine run");
    // And the single-shard fleet matches a bare engine byte for byte.
    let mut engine = ServeEngine::new(EngineConfig::default(), WatermarkScheduler::default());
    let ids: Vec<u64> = (0..TENANTS)
        .map(|i| engine.submit(fleet_req(i)).unwrap())
        .collect();
    assert!(engine.run_until_idle(100_000));
    for (row, &id) in one.iter().zip(&ids) {
        assert_eq!(row.3, engine.telemetry(id).unwrap_or_default());
    }
}

#[test]
fn per_tenant_slo_counts_sum_to_merged_aggregate() {
    for shards in [1usize, 2, 4] {
        let mut fleet = ShardedEngine::new(
            EngineConfig::default(),
            WatermarkScheduler::default(),
            shards,
        );
        for i in 0..TENANTS {
            fleet.submit(fleet_req(i)).unwrap();
        }
        assert!(fleet.run_until_idle(100_000));
        let frame = fleet.metrics();
        assert_eq!(frame.tenants.len(), TENANTS as usize);
        for name in SLO_HISTO_NAMES {
            let agg = frame.aggregate.histogram(name).unwrap();
            let per_tenant: u64 = frame
                .tenants
                .iter()
                .map(|t| t.snapshot.histogram(name).map_or(0, |h| h.count))
                .sum();
            assert_eq!(
                agg.count, per_tenant,
                "{name} aggregate count no longer sums over {shards} shard(s)"
            );
            let sum: u64 = frame
                .tenants
                .iter()
                .map(|t| t.snapshot.histogram(name).map_or(0, |h| h.sum))
                .sum();
            assert_eq!(agg.sum, sum, "{name} aggregate sum broke under sharding");
        }
        for counter in ["quanta", "cycles"] {
            let agg = frame.aggregate.counter(counter).unwrap();
            let per_tenant: u64 = frame
                .tenants
                .iter()
                .map(|t| t.snapshot.counter(counter).unwrap_or(0))
                .sum();
            assert_eq!(
                agg, per_tenant,
                "{counter} aggregate no longer sums over {shards} shard(s)"
            );
        }
    }
}

/// The server's default one-shard fleet must answer as a bare engine:
/// the same submissions, sheds and ticks give the same ids and
/// byte-identical statuses, telemetry, stats and frames.
#[test]
fn one_shard_fleet_answers_exactly_as_its_engine() {
    let tight = WatermarkScheduler {
        queue_depth: 3,
        max_active: 2,
        ..WatermarkScheduler::default()
    };
    let mut fleet = ShardedEngine::new(EngineConfig::default(), tight, 1);
    let mut engine = ServeEngine::new(EngineConfig::default(), tight);
    for i in 0..TENANTS {
        let mut req = fleet_req(i);
        #[allow(unknown_lints, clippy::manual_is_multiple_of)]
        if i % 5 == 4 {
            req.spec.max_cycles = 0; // a bad-spec shed
        }
        let got = fleet.submit(req.clone());
        assert_eq!(got, engine.submit(req), "submission {i}");
        #[allow(unknown_lints, clippy::manual_is_multiple_of)]
        if i % 3 == 2 {
            fleet.tick();
            engine.tick();
        }
    }
    assert!(fleet.stats().shed_total() > 0, "the plan sheds");
    assert!(fleet.run_until_idle(100_000));
    assert!(engine.run_until_idle(100_000));
    assert_eq!(
        serde_json::to_string(&fleet.stats()).unwrap(),
        serde_json::to_string(&engine.stats()).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&fleet.metrics()).unwrap(),
        serde_json::to_string(&engine.metrics()).unwrap()
    );
    assert_eq!(
        fleet.metrics().to_prometheus(),
        engine.metrics().to_prometheus()
    );
    let statuses: Vec<TenantStatus> = engine.statuses().cloned().collect();
    assert_eq!(fleet.statuses().collect::<Vec<_>>(), statuses);
    for st in &statuses {
        assert_eq!(fleet.telemetry(st.id), engine.telemetry(st.id));
    }
}

/// The flight entries of every dump under `dir`, in file-name order.
fn dumped(dir: &Path) -> Vec<Vec<FleetEntry>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{dir:?}: {e}"))
        .map(|e| e.unwrap().path())
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| parse_fleet_jsonl(&std::fs::read_to_string(p).unwrap()).unwrap())
        .collect()
}

#[test]
fn shards_dump_flight_rings_into_their_own_dirs() {
    let dir = std::env::temp_dir().join(format!("rsp-shard-flight-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = EngineConfig {
        shed_storm_threshold: 5,
        shed_storm_window: u64::MAX,
        flight_dir: Some(dir.clone()),
        ..EngineConfig::default()
    };
    let mut fleet = ShardedEngine::new(cfg, WatermarkScheduler::default(), 2);
    let mut bad = fleet_req(0);
    bad.spec.max_cycles = 0;
    // Sheds burn no id, so every shed lands on the shard that owns the
    // next global id: storm it, admit until the owner changes, then
    // storm the other shard.
    fn admit(fleet: &mut ShardedEngine, admitted: &mut [usize; 2]) {
        let next = admitted.iter().sum::<usize>() as u64;
        let g = fleet.submit(fleet_req(next)).unwrap();
        assert_eq!(g, next, "ids are dense");
        admitted[shard_of(g, 2)] += 1;
    }
    let next = |admitted: &[usize; 2]| admitted.iter().sum::<usize>() as u64;
    let mut admitted = [0usize; 2];
    for _ in 0..6 {
        admit(&mut fleet, &mut admitted);
    }
    let first = shard_of(next(&admitted), 2);
    let mut at_dump = [0usize; 2];
    for shard in [first, 1 - first] {
        while shard_of(next(&admitted), 2) != shard {
            admit(&mut fleet, &mut admitted);
        }
        for _ in 0..5 {
            assert!(fleet.submit(bad.clone()).is_err());
        }
        at_dump[shard] = admitted[shard];
    }
    assert!(at_dump.iter().all(|&n| n > 0), "both shards admitted");
    for (shard, &own) in at_dump.iter().enumerate() {
        let dumps = dumped(&dir.join(format!("shard-{shard}")));
        assert_eq!(dumps.len(), 1, "shard {shard} storms once");
        let entries = &dumps[0];
        let count = |f: fn(&FleetEvent) -> bool| entries.iter().filter(|e| f(&e.event)).count();
        assert_eq!(count(|e| matches!(e, FleetEvent::Shed { .. })), 5);
        assert_eq!(count(|e| matches!(e, FleetEvent::Trigger { .. })), 1);
        // Only this shard's admissions, under its own local ids.
        assert_eq!(count(|e| matches!(e, FleetEvent::Admitted)), own);
        assert!(entries
            .iter()
            .all(|e| e.tenant.is_none_or(|t| t < own as u64)));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn panic_guard_dumps_every_shard_on_unwind() {
    let dir = std::env::temp_dir().join(format!("rsp-shard-panic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = EngineConfig {
        flight_dir: Some(dir.clone()),
        ..EngineConfig::default()
    };
    let mut fleet = ShardedEngine::new(cfg, WatermarkScheduler::default(), 2);
    fleet.submit(fleet_req(0)).unwrap();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // silence the expected panic
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let guard = PanicFlightGuard::new(&mut fleet);
        guard.engine.tick();
        panic!("engine exploded");
    }));
    std::panic::set_hook(hook);
    assert!(caught.is_err());
    for shard in 0..2 {
        let dumps = dumped(&dir.join(format!("shard-{shard}")));
        assert_eq!(dumps.len(), 1, "shard {shard}");
        assert!(matches!(
            dumps[0].last().unwrap().event,
            FleetEvent::Trigger {
                kind: TriggerKind::EnginePanic
            }
        ));
    }
    std::fs::remove_dir_all(&dir).ok();
}

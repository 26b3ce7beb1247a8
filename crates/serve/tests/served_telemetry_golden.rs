//! Golden served telemetry: the exact JSONL a fixed cohort of tenants
//! is served, through one `ServeEngine` and through a 2-shard
//! `ShardedEngine`. Replay identity (served == offline rerun) cannot
//! catch a change that moves the serving path and `replay` together;
//! this corpus does, because it pins the bytes themselves.
//!
//! The cohort covers every shape a served log takes:
//! * scalar tenants with event rings of 16 and 256 entries (both wrap)
//!   and of 4096 (does not wrap);
//! * a scalar tenant with a policy override;
//! * a metrics-only scalar tenant (capacity 0), which is served no log;
//! * four lane tenants under a pack-hold, so lane groups form with
//!   more than one member on every engine.
//!
//! Each log is pinned by its byte length, line count and FNV-1a hash
//! ([`rsp_obs::stable_key_hash`]); a tenant served no log pins `null`.
//!
//! To bless an intentional format change:
//! `BLESS_SERVED_TELEMETRY=1 cargo test -p rsp-serve --test served_telemetry_golden`
//! rewrites the corpus file; review and commit the diff. A missing
//! corpus fails the test.

use rsp_obs::stable_key_hash;
use rsp_serve::{EngineConfig, ServeEngine, ShardedEngine, TenantRequest, WatermarkScheduler};
use rsp_sim::PolicyKind;
use rsp_workloads::{LaneTraceSpec, StreamSpec, SynthSpec, UnitMix};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/served_telemetry_golden.json"
);

/// Lane tenants in the cohort; all share one config and weight.
const LANES: usize = 4;

/// A served log as pinned in the corpus.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Pinned {
    bytes: usize,
    lines: usize,
    fnv1a: u64,
}

impl Pinned {
    fn of(jsonl: &str) -> Pinned {
        Pinned {
            bytes: jsonl.len(),
            lines: jsonl.lines().count(),
            fnv1a: stable_key_hash(jsonl),
        }
    }
}

/// Tenant name → its pinned log (`None`: served no log).
type Golden = BTreeMap<String, Option<Pinned>>;

fn scalar(name: &str, seed: u64, capacity: usize, policy: Option<PolicyKind>) -> TenantRequest {
    let spec = StreamSpec::synth(
        name,
        SynthSpec {
            body_len: 120,
            iterations: 4,
            ..SynthSpec::new(name, UnitMix::BALANCED, seed)
        },
        4_000,
    );
    TenantRequest {
        policy,
        telemetry_capacity: capacity,
        ..TenantRequest::new(spec)
    }
}

fn cohort() -> Vec<TenantRequest> {
    let mut reqs = vec![
        scalar("ring16", 11, 16, None),
        scalar("ring256", 12, 256, None),
        scalar("ring4096", 13, 4096, None),
        scalar(
            "smoothed-policy",
            14,
            256,
            Some(PolicyKind::PaperSmoothed { shift: 2 }),
        ),
        scalar("metrics-only", 15, 0, None),
    ];
    reqs.extend((0..LANES as u64).map(|i| {
        TenantRequest::new(StreamSpec::lane(
            format!("lane-{i}"),
            LaneTraceSpec::synthetic_mix(400, 300 + i),
            400,
        ))
    }));
    reqs
}

fn engine_cfg() -> EngineConfig {
    EngineConfig {
        pack_hold_ticks: 4,
        ..EngineConfig::default()
    }
}

/// The cohort through one engine: each tenant's served log, and the
/// lane groups formed.
fn served_by_engine() -> (Golden, u64) {
    let mut engine = ServeEngine::new(engine_cfg(), WatermarkScheduler::default());
    let ids: Vec<(String, u64)> = cohort()
        .into_iter()
        .map(|r| (r.spec.name.clone(), engine.submit(r).expect("admitted")))
        .collect();
    assert!(engine.run_until_idle(100_000), "engine did not drain");
    let logs = ids
        .iter()
        .map(|(name, id)| (name.clone(), engine.telemetry(*id).map(Pinned::of)))
        .collect();
    (logs, engine.stats().lane_groups_formed)
}

/// The cohort through a 2-shard fleet.
fn served_by_fleet() -> (Golden, u64) {
    let mut fleet = ShardedEngine::new(engine_cfg(), WatermarkScheduler::default(), 2);
    let ids: Vec<(String, u64)> = cohort()
        .into_iter()
        .map(|r| (r.spec.name.clone(), fleet.submit(r).expect("admitted")))
        .collect();
    assert!(fleet.run_until_idle(100_000), "fleet did not drain");
    let logs = ids
        .iter()
        .map(|(name, id)| (name.clone(), fleet.telemetry(*id).map(Pinned::of)))
        .collect();
    (logs, fleet.stats().lane_groups_formed)
}

#[test]
fn served_telemetry_matches_golden_corpus() {
    let (engine, engine_groups) = served_by_engine();
    let (fleet, fleet_groups) = served_by_fleet();
    // The cohort exercises what it claims to.
    assert_eq!(engine_groups, 1, "one engine packs all lanes in one group");
    assert!(
        fleet_groups < LANES as u64,
        "some fleet lane group has more than one member ({fleet_groups} groups)"
    );
    let lines = |name: &str| engine[name].as_ref().map_or(0, |p| p.lines);
    assert_eq!(lines("ring16"), 16, "the 16-event ring wraps");
    assert_eq!(lines("ring256"), 256, "the 256-event ring wraps");
    let unwrapped = lines("ring4096");
    assert!(
        (257..4096).contains(&unwrapped),
        "the 4096-event ring holds more than 256 events and does not wrap"
    );
    assert_eq!(engine["metrics-only"], None);

    if std::env::var("BLESS_SERVED_TELEMETRY").is_ok() {
        let json = serde_json::to_string_pretty(&engine).unwrap();
        std::fs::write(GOLDEN_PATH, json + "\n").unwrap();
    }
    let text = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|_| {
        panic!("{GOLDEN_PATH} is missing: bless it with BLESS_SERVED_TELEMETRY=1")
    });
    let golden: Golden = serde_json::from_str(&text).expect("corpus parses");
    assert_eq!(
        golden.keys().collect::<Vec<_>>(),
        engine.keys().collect::<Vec<_>>(),
        "cohort and corpus name different tenants; re-bless if intentional"
    );
    for (name, want) in &golden {
        for (how, got) in [("engine", &engine[name]), ("2-shard fleet", &fleet[name])] {
            assert_eq!(
                got, want,
                "{name} served through the {how} drifted from the corpus; \
                 if intentional, re-bless with BLESS_SERVED_TELEMETRY=1"
            );
        }
    }
}

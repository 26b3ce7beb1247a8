//! `PaperSteering` keeps the selection unit's last evaluation and
//! reuses it while the inputs repeat. This property drives the policy
//! over random demand runs on a fabric with loads in flight, busy units
//! and stray loads that leave hybrid placements. It checks every tick
//! against the unit and loader driven directly: the same outcome, the
//! same loader counters, the same fabric and the same
//! `SteeringDecision` scores. Each run changes the
//! unit's tie rule or CEM kind part-way through, so a memo keyed on
//! stale unit settings would show.
//!
//! The fault-aware path (effective capacity view, dead-slot candidate
//! counts) is checked per cycle against the independent lane kernel by
//! `tests/lanes_differential.rs`; the policy's own
//! `dead_slots_engage_effective_view_after_hysteresis` fails if the memo
//! ignores the switch to the effective view.

use proptest::prelude::*;
use rsp_core::{
    CemKind, CemUnit, ConfigurationLoader, PaperSteering, PolicyOutcome, SelectionUnit,
    SteeringPolicy, TieBreak,
};
use rsp_fabric::config::SteeringSet;
use rsp_fabric::fabric::{Fabric, FabricParams, UnitId};
use rsp_isa::units::{TypeCounts, UnitType};
use rsp_obs::{Event, Telemetry, MAX_CANDIDATES};

/// Make exactly the RFU heads named in `mask` busy (the idle ones that
/// exist), freeing every other RFU.
fn set_busy_pattern(f: &mut Fabric, mask: u8) {
    for u in f.units() {
        let UnitId::Rfu { head } = u.id else { continue };
        let want = mask & (1 << head) != 0;
        if u.busy && !want {
            f.clear_busy(u.id);
        } else if !u.busy && want {
            f.set_busy(u.id);
        }
    }
}

/// The `SteeringDecision` a tick emitted: (scores, candidates, chosen).
fn decision(obs: &Telemetry) -> ([u32; MAX_CANDIDATES], u8, u8) {
    let events = obs.ring_sink().expect("ring telemetry").events();
    let mut found = events.iter().filter_map(|s| match s.event {
        Event::SteeringDecision {
            scores,
            candidates,
            chosen,
            ..
        } => Some((scores, candidates, chosen)),
        _ => None,
    });
    let d = found.next().expect("one SteeringDecision per tick");
    assert!(found.next().is_none(), "one SteeringDecision per tick");
    d
}

fn demand_strategy() -> impl Strategy<Value = (bool, Vec<u8>, usize)> {
    // Up to 9 per type, so the 3-bit saturation is part of the key. Half
    // the runs have no demand at all: every candidate then scores 0, and
    // only the reconfiguration costs (the allocation vector) decide
    // between predefined candidates.
    (
        proptest::bool::ANY,
        proptest::collection::vec(0u8..10, 5),
        1usize..12,
    )
}

/// Start a load on both fabrics (they are equal, so both succeed or
/// both fail): hybrid placements whose counts match a predefined
/// configuration but whose slots do not.
fn begin_load(fabrics: [&mut Fabric; 2], (slot, unit): (usize, usize)) {
    let t = UnitType::from_index(unit).unwrap();
    for f in fabrics {
        let _ = f.begin_load(slot, t);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memoized_steering_matches_direct_selection(
        runs in proptest::collection::vec(demand_strategy(), 4..24),
        busy in proptest::collection::vec(0u8..=255, 1..16),
        stray_loads in proptest::collection::vec((0usize..8, 0usize..5), 0..12),
        prefer_predefined in proptest::bool::ANY,
        exact_divider in proptest::bool::ANY,
        partial in proptest::bool::ANY,
        latency in 1u64..5,
        ports in 1usize..4,
        switch_tie in proptest::bool::ANY,
        switch_at in 0usize..64,
    ) {
        let set = SteeringSet::paper_default();
        let mut unit = SelectionUnit {
            tie: if prefer_predefined { TieBreak::PreferPredefined } else { TieBreak::FavorCurrent },
            cem: CemUnit {
                kind: if exact_divider { CemKind::ExactDivider } else { CemKind::BarrelShifter },
            },
            ..SelectionUnit::PAPER
        };
        let mut p = PaperSteering::new(unit, set.clone());
        p.loader.partial = partial;
        let mut loader = ConfigurationLoader::new(set);
        loader.partial = partial;
        let params = FabricParams {
            per_slot_load_latency: latency,
            reconfig_ports: ports,
            ..FabricParams::default()
        };
        let mut f_memo = Fabric::new(params.clone());
        let mut f_direct = Fabric::new(params);

        let mut cycle = 0usize;
        for (idle, raw, repeat) in &runs {
            let demand = if *idle {
                TypeCounts::ZERO
            } else {
                TypeCounts::new([raw[0], raw[1], raw[2], raw[3], raw[4]])
            };
            for _ in 0..*repeat {
                // Loads the loader did not choose, every fourth cycle.
                let k = cycle / 4;
                if let Some(&load) = stray_loads.get(k).filter(|_| k * 4 == cycle) {
                    begin_load([&mut f_memo, &mut f_direct], load);
                }
                if cycle == switch_at {
                    // A mid-run change of the public unit settings.
                    if switch_tie {
                        unit.tie = match unit.tie {
                            TieBreak::FavorCurrent => TieBreak::PreferPredefined,
                            TieBreak::PreferPredefined => TieBreak::FavorCurrent,
                        };
                    } else {
                        unit.cem.kind = match unit.cem.kind {
                            CemKind::BarrelShifter => CemKind::ExactDivider,
                            CemKind::ExactDivider => CemKind::BarrelShifter,
                        };
                    }
                    p.unit = unit;
                }
                // Busy units change which loads may start, and hold some
                // loads in flight across the demand runs.
                let mask = busy[cycle % busy.len()];
                set_busy_pattern(&mut f_memo, mask);
                set_busy_pattern(&mut f_direct, mask);

                let mut scores = [0u32; MAX_CANDIDATES];
                let (choice, _err, scored) = unit.choose_with_scores_overriding(
                    demand.saturating_3bit(),
                    f_direct.configured_counts(),
                    &[],
                    f_direct.alloc(),
                    loader.set(),
                    &mut scores,
                );
                let loads = loader.apply(choice, &mut f_direct);

                let mut obs = Telemetry::ring(64);
                let out = p.tick_observed(&demand, &mut f_memo, &mut obs);

                prop_assert_eq!(
                    out,
                    PolicyOutcome { choice: Some(choice), loads_started: loads },
                    "cycle {}", cycle
                );
                prop_assert_eq!(p.loader.stats(), loader.stats(), "cycle {}", cycle);
                prop_assert_eq!(
                    decision(&obs),
                    (scores, scored as u8, choice.two_bit()),
                    "cycle {}", cycle
                );
                prop_assert_eq!(&f_memo, &f_direct, "cycle {}", cycle);
                f_memo.tick();
                f_direct.tick();
                cycle += 1;
            }
        }
    }
}

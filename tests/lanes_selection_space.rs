//! The lane kernel's CEM and select planes over the selection circuit's
//! whole demand space.
//!
//! Every demand a 7-entry queue can present (five counts summing to
//! ≤ 7, 792 of them) goes into one 13-word batch, one demand per lane.
//! One step from each initial placement the fabric can start in (empty,
//! Configs 1–3), under both tie rules, with partial reconfiguration on
//! and off, must give every lane the scalar selection unit's choice and
//! its CEM scores (`lane_raw_errors × ERROR_SCALE`). The scalar side is
//! a real `Fabric` in the same initial state.

use rsp::fabric::Fabric;
use rsp::isa::TypeCounts;
use rsp::obs::MAX_CANDIDATES;
use rsp::sim::lanes::{LaneBatch, LaneStimulus};
use rsp::sim::{PolicyKind, SimConfig};
use rsp::steering::cem::ERROR_SCALE;
use rsp::steering::select::TieBreak;
use rsp::steering::{CemKind, SelectionUnit};

/// Five counts summing to at most 7, in a fixed order.
fn demands() -> Vec<TypeCounts> {
    let d: Vec<TypeCounts> = (0..8u32.pow(5))
        .map(|code| TypeCounts::new(std::array::from_fn(|t| (code >> (3 * t) & 7) as u8)))
        .filter(|c| c.total() <= 7)
        .collect();
    assert_eq!(d.len(), 792);
    d
}

#[test]
fn lane_select_planes_match_the_scalar_unit_on_every_demand() {
    let demands = demands();
    let lanes = demands.len().div_ceil(64) * 64;
    assert_eq!(lanes / 64, 13);
    let mut cases = 0;
    for initial in [None, Some(0), Some(1), Some(2)] {
        for tie in [TieBreak::FavorCurrent, TieBreak::PreferPredefined] {
            for partial in [true, false] {
                let cfg = SimConfig {
                    policy: PolicyKind::Paper {
                        tie,
                        cem: CemKind::BarrelShifter,
                        partial,
                        fault_aware: false,
                    },
                    initial_config: initial,
                    ..SimConfig::default()
                };
                let set = &cfg.steering_set;
                let fabric = match initial {
                    None => Fabric::new(cfg.fabric.clone()),
                    Some(i) => Fabric::with_configuration(cfg.fabric.clone(), &set.predefined[i]),
                };
                let mut stim = LaneStimulus::new(lanes, 1, cfg.queue_size, cfg.fabric.rfu_slots);
                for (lane, demand) in demands.iter().enumerate() {
                    stim.set_demand_counts(lane, 0, demand).unwrap();
                }
                let mut batch = LaneBatch::new(&cfg, lanes).expect("lane-steppable config");
                batch.step(&stim, 0);

                let unit = SelectionUnit {
                    tie,
                    ..SelectionUnit::PAPER
                };
                for (lane, &demand) in demands.iter().enumerate() {
                    let mut scores = [0u32; MAX_CANDIDATES];
                    let (choice, _, scored) = unit.choose_with_scores_overriding(
                        demand,
                        fabric.configured_counts(),
                        &[],
                        fabric.alloc(),
                        set,
                        &mut scores,
                    );
                    let at = || format!("{initial:?} {tie:?} partial={partial} demand {demand}");
                    assert_eq!(batch.lane_choice(lane), Some(choice.two_bit()), "{}", at());
                    let lane_scores: Vec<u32> = batch
                        .lane_raw_errors(lane)
                        .iter()
                        .map(|&e| e as u32 * ERROR_SCALE)
                        .collect();
                    assert_eq!(lane_scores, scores[..scored], "{}", at());
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 12_672);
}

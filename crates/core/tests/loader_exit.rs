//! The configuration loader skips its per-unit walk when the paper's XOR
//! slot diff is empty: the target was found fully in place and the
//! fabric's allocation epoch has not moved since. This property drives
//! two loaders over equal fabrics, one through `apply_observed` (with the
//! exit) and one through `apply_observed_scan` (the walk every time), and
//! checks every cycle that they agree: the loads started, every
//! `LoaderStats` counter, the fabric and the telemetry events.
//!
//! The random states cover what the walk looks at: the chosen target,
//! the allocation vector (stray loads leave hybrid placements), busy
//! units, free reconfiguration ports, stuck-at-dead slots, upset
//! (corrupted) spans that scrub clears, and retry cooldowns after failed
//! loads. Each selection is held for a run of cycles, so targets come
//! fully into place and the exit is taken. Stray loads the loader did
//! not choose land on held targets, and the public `partial` and
//! `fault_aware` knobs flip every few dozen cycles, so an exit that
//! outlives a changed span or a changed knob would show.

use proptest::prelude::*;
use rsp_core::{ConfigChoice, ConfigurationLoader};
use rsp_fabric::config::SteeringSet;
use rsp_fabric::fabric::{Fabric, FabricParams, UnitId};
use rsp_fabric::fault::{FaultParams, PPM};
use rsp_isa::units::UnitType;
use rsp_obs::Telemetry;

/// Make exactly the RFU heads named in `mask` busy (the idle, uncorrupted
/// ones that exist), freeing every other RFU.
fn set_busy_pattern(f: &mut Fabric, mask: u8) {
    for u in f.units() {
        let UnitId::Rfu { head } = u.id else { continue };
        let want = mask & (1 << head) != 0;
        if u.busy && !want {
            f.clear_busy(u.id);
        } else if !u.busy && want && !f.slot_corrupted(head) {
            f.set_busy(u.id);
        }
    }
}

/// Every event a cycle's loader call emitted.
fn events(obs: &Telemetry) -> Vec<rsp_obs::Event> {
    let ring = obs.ring_sink().expect("ring telemetry");
    ring.events().iter().map(|s| s.event).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn empty_diff_exit_matches_the_per_unit_walk(
        runs in proptest::collection::vec((0u8..4, 1usize..64), 4..24),
        busy in proptest::collection::vec((0u8..=255, 0u8..=255), 1..12),
        stray_loads in proptest::collection::vec(
            proptest::option::of((0usize..8, 0usize..5)),
            1..24,
        ),
        stray_every in 1usize..64,
        (dead, load_failure_pct, upset_pct, scrub_interval, seed) in (
            proptest::collection::vec(0usize..24, 0..3),
            0u32..80,
            0u32..16,
            0u64..48,
            0u64..1_000,
        ),
        (partial, fault_aware, flip_partial_every, flip_fault_aware_every) in (
            proptest::bool::ANY,
            proptest::bool::ANY,
            4usize..48,
            4usize..48,
        ),
        (latency, ports) in (1u64..4, 1usize..9),
    ) {
        // About half the runs fail no loads, and half see no upsets.
        let load_failure_pct = load_failure_pct.saturating_sub(40);
        let upset_pct = upset_pct.saturating_sub(8);
        // Each drawn slot is dead one time in three.
        let mut dead_slots: Vec<usize> = dead.into_iter().filter(|&s| s < 8).collect();
        dead_slots.sort_unstable();
        dead_slots.dedup();
        let params = FabricParams {
            per_slot_load_latency: latency,
            reconfig_ports: ports,
            faults: FaultParams {
                seed,
                load_failure_ppm: load_failure_pct * (PPM / 100),
                upset_ppm: upset_pct * (PPM / 100),
                scrub_interval,
                dead_slots,
            },
            ..FabricParams::default()
        };
        let set = SteeringSet::paper_default();
        let mut fast = ConfigurationLoader::new(set.clone());
        let mut scan = ConfigurationLoader::new(set);
        for l in [&mut fast, &mut scan] {
            l.partial = partial;
            l.fault_aware = fault_aware;
        }
        let mut f_fast = Fabric::new(params.clone());
        let mut f_scan = Fabric::new(params);

        let mut cycle = 0usize;
        for &(two_bit, repeat) in &runs {
            let choice = ConfigChoice::from_two_bit(two_bit);
            for _ in 0..repeat {
                if cycle % flip_partial_every == flip_partial_every - 1 {
                    for l in [&mut fast, &mut scan] {
                        l.partial = !l.partial;
                    }
                }
                if cycle % flip_fault_aware_every == flip_fault_aware_every - 1 {
                    for l in [&mut fast, &mut scan] {
                        l.fault_aware = !l.fault_aware;
                    }
                }
                // Loads the loader did not choose, one draw every
                // `stray_every` cycles.
                let (draw, phase) = (cycle / stray_every, cycle % stray_every);
                let stray = stray_loads[draw % stray_loads.len()];
                if let Some((slot, unit)) = stray.filter(|_| phase == 0) {
                    let t = UnitType::from_index(unit).unwrap();
                    prop_assert_eq!(f_fast.begin_load(slot, t), f_scan.begin_load(slot, t));
                }
                // Two masks ANDed: about a quarter of the heads busy.
                let (a, b) = busy[cycle % busy.len()];
                let mask = a & b;
                set_busy_pattern(&mut f_fast, mask);
                set_busy_pattern(&mut f_scan, mask);

                let mut obs_fast = Telemetry::ring(64);
                let mut obs_scan = Telemetry::ring(64);
                let started = fast.apply_observed(choice, &mut f_fast, &mut obs_fast);
                let expected = scan.apply_observed_scan(choice, &mut f_scan, &mut obs_scan);
                prop_assert_eq!(started, expected, "cycle {}", cycle);
                prop_assert_eq!(fast.stats(), scan.stats(), "cycle {}", cycle);
                prop_assert_eq!(&f_fast, &f_scan, "cycle {}", cycle);
                prop_assert_eq!(events(&obs_fast), events(&obs_scan), "cycle {}", cycle);
                f_fast.tick();
                f_scan.tick();
                cycle += 1;
            }
        }
    }
}

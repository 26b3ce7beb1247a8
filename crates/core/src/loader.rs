//! The configuration loader (paper §3.2).
//!
//! "Once a configuration is chosen, the configuration loader will
//! determine which RFUs need to be reconfigured by determining the
//! difference (XOR) between the chosen configuration and the current
//! configuration using the resource allocation vector. The loader will
//! then choose which RFUs to reconfigure on the basis of their
//! availability. If an RFU is executing a multicycle instruction, the RFU
//! cannot be reconfigured until the instruction finishes execution …
//! The RFU will not be reconfigured if it already implements the
//! specified functional unit."
//!
//! Consequences faithfully modelled here:
//! * choosing the current configuration starts no loads;
//! * only *idle* RFUs are reloaded — busy ones are skipped and may be
//!   picked up by a *different* selection on a later cycle ("by the time
//!   it is available for reconfiguration, a different configuration may
//!   have been selected");
//! * matching units are never reloaded (partial reconfiguration);
//! * in-flight loads are never cancelled;
//! * the live configuration is therefore generally a **hybrid overlap**
//!   of steering configurations.
//!
//! **Fault-aware extension** (DESIGN.md §11): with
//! [`ConfigurationLoader::fault_aware`] set, the loader additionally
//! * re-places units whose canonical span covers a stuck-at-dead slot
//!   into remaining healthy capacity (greedy first-fit over the spans the
//!   rest of the configuration does not claim — see
//!   [`replacement_head`]), instead of dropping them; and
//! * force-reloads *zombie* spans (upset-corrupted but still allocated),
//!   which the partial-reconfiguration skip rule would otherwise leave
//!   dead weight until the next scrub pass.
//!
//! Both paths are inert without faults: `slot_dead`/`slot_corrupted` are
//! always false on a healthy fabric, so fault-free runs are bit-identical
//! whether `fault_aware` is on or off.

use crate::select::ConfigChoice;
use rsp_fabric::alloc::PlacedUnit;
use rsp_fabric::config::{Configuration, SteeringSet};
use rsp_fabric::fabric::{Fabric, LoadError};
use rsp_fabric::fault::FaultEvent;
use rsp_isa::units::TypeCounts;
use rsp_obs::{Event, Telemetry};
use serde::{Deserialize, Serialize};

/// First retry delay (in steer cycles) after a failed load.
const BACKOFF_BASE: u64 = 8;
/// Ceiling on the exponential retry delay.
const BACKOFF_CAP: u64 = 256;

/// Loader counters (per-run).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoaderStats {
    /// Selections applied, indexed by two-bit value (0 = current).
    pub selections: Vec<u64>,
    /// Cycles on which the applied selection differed from the previous
    /// cycle's selection (steering-direction changes).
    pub selection_changes: u64,
    /// Loads successfully started.
    pub loads_started: u64,
    /// Load attempts deferred because the target span had a busy unit.
    pub deferred_busy: u64,
    /// Load attempts deferred because no reconfiguration port was free.
    pub deferred_port: u64,
    /// Load attempts skipped because the span already implements the unit.
    pub skipped_matching: u64,
    /// Load attempts skipped because the span is already being loaded.
    pub skipped_loading: u64,
    /// Loads that consumed their latency but failed fabric readback.
    pub load_failures: u64,
    /// Loads restarted on a head after one or more failures there.
    pub retries: u64,
    /// Corrupted spans the fabric's scrub pass reported to the loader.
    pub upsets_detected: u64,
    /// Load attempts deferred because the head was in retry backoff.
    pub deferred_backoff: u64,
    /// Load attempts skipped because the span has a stuck-at-dead slot.
    pub skipped_dead: u64,
    /// Units re-placed into an alternative healthy span because their
    /// canonical span covers a dead slot (fault-aware loader only).
    pub replacements: u64,
    /// Zombie (upset-corrupted) spans force-reloaded ahead of the next
    /// scrub pass (fault-aware loader only).
    pub zombie_reloads: u64,
}

/// Compute the greedy re-placement plan for `config` on a fabric with
/// `n_slots` slots of which `dead(s)` are stuck-at-dead, calling
/// `visit(unit, assigned_head)` for every unit of the configuration in
/// canonical placement order. Units whose canonical span is healthy keep
/// it; displaced units get the first healthy span (respecting their 1/2/3
/// slot footprint and contiguity) not claimed by any other unit of the
/// plan, or `None` if no such span exists. The plan is a pure function of
/// `(config, n_slots, dead)`, so the loader reaches the same steady state
/// every cycle — no placement churn. Fabrics wider than 64 slots fall
/// back to skipping displaced units (the claim set is a `u64` bitmask).
fn replacement_plan(
    config: &Configuration,
    n_slots: usize,
    dead: &impl Fn(usize) -> bool,
    mut visit: impl FnMut(PlacedUnit, Option<usize>),
) {
    let trackable = n_slots <= 64;
    let healthy =
        |pu: &PlacedUnit| pu.head + pu.unit.slot_cost() <= n_slots && !pu.span().any(dead);
    // Pass 1: units keeping their canonical span claim it.
    let mut claimed: u64 = 0;
    for pu in config.placement.units() {
        if trackable && healthy(&pu) {
            for s in pu.span() {
                claimed |= 1 << s;
            }
        }
    }
    // Pass 2: displaced units scan first-fit over unclaimed healthy spans.
    for pu in config.placement.units() {
        if healthy(&pu) {
            visit(pu, Some(pu.head));
            continue;
        }
        let cost = pu.unit.slot_cost();
        if !trackable || cost > n_slots {
            visit(pu, None);
            continue;
        }
        let mut found = None;
        'scan: for head in 0..=n_slots - cost {
            for s in head..head + cost {
                if dead(s) || claimed & (1 << s) != 0 {
                    continue 'scan;
                }
            }
            found = Some(head);
            break;
        }
        if let Some(h) = found {
            for s in h..h + cost {
                claimed |= 1 << s;
            }
        }
        visit(pu, found);
    }
}

/// Where the unit canonically placed at `canonical_head` in `config`
/// lands under the greedy re-placement plan: its own head if the span is
/// healthy, an alternative healthy head if it was displaced by a dead
/// slot and one fits, or `None` if it cannot be placed at all.
pub fn replacement_head(
    config: &Configuration,
    n_slots: usize,
    dead: impl Fn(usize) -> bool,
    canonical_head: usize,
) -> Option<usize> {
    let mut found = None;
    replacement_plan(config, n_slots, &dead, |pu, assigned| {
        if pu.head == canonical_head {
            found = assigned;
        }
    });
    found
}

/// The RFU unit counts `config` can actually deliver on a fabric with
/// dead slots, after the loader's greedy re-placement pass. With no dead
/// slots this equals `config.counts`; the fault-aware selection unit
/// scores steering candidates against these instead of the nominal
/// counts so dead capacity is never promised.
pub fn achievable_rfu_counts(
    config: &Configuration,
    n_slots: usize,
    dead: impl Fn(usize) -> bool,
) -> TypeCounts {
    let mut c = TypeCounts::ZERO;
    replacement_plan(config, n_slots, &dead, |pu, assigned| {
        if assigned.is_some() {
            c.add(pu.unit, 1);
        }
    });
    c
}

/// A predefined configuration the loader's last per-unit walk found fully
/// in place: every unit already configured at its own head, none on a
/// dead slot, corrupted or cooling down. It stays in place for as long as
/// the fabric's allocation epoch does not move: only a load (which bumps
/// the epoch when it starts, lands or fails) can change a span, set a
/// cooldown or restart a failure streak, and upsets and scrub bump it
/// too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct InPlace {
    /// Index into the steering set's predefined configurations.
    target: usize,
    /// [`Fabric::epoch`] when the walk found it in place.
    epoch: u64,
    /// Its unit count: what every skipped walk adds to `skipped_matching`.
    units: u64,
}

/// The configuration loader: applies a selection to the fabric using
/// partial reconfiguration.
///
/// A loader steers one fabric: its retry backoff and its record of which
/// configuration is in place are state of the fabric it was applied to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigurationLoader {
    set: SteeringSet,
    /// When `false`, reload *every* unit of a newly chosen configuration
    /// even if the span already matches (E2 full-reload ablation).
    pub partial: bool,
    /// Enable the fault-aware paths: dead-span re-placement and zombie
    /// (scrub-hint) force-reloads. Inert without faults — fault-free runs
    /// are bit-identical either way.
    pub fault_aware: bool,
    stats: LoaderStats,
    last_choice: Option<ConfigChoice>,
    /// Steer cycles seen so far (the backoff clock).
    tick: u64,
    /// Per-head-slot: first tick at which a retry may start.
    cooldown_until: Vec<u64>,
    /// Per-head-slot: consecutive load failures (drives the backoff).
    fail_streak: Vec<u32>,
    /// The target found fully in place, for the empty-diff exit.
    in_place: Option<InPlace>,
}

impl ConfigurationLoader {
    /// A loader steering over `set`, with the paper's partial
    /// reconfiguration behaviour.
    pub fn new(set: SteeringSet) -> ConfigurationLoader {
        let n = 1 + set.predefined.len();
        ConfigurationLoader {
            set,
            partial: true,
            fault_aware: false,
            stats: LoaderStats {
                selections: vec![0; n],
                ..LoaderStats::default()
            },
            last_choice: None,
            tick: 0,
            cooldown_until: Vec::new(),
            fail_streak: Vec::new(),
            in_place: None,
        }
    }

    /// Retry delay after the `streak`-th consecutive failure on a head:
    /// exponential from [`BACKOFF_BASE`], capped at [`BACKOFF_CAP`].
    fn backoff(streak: u32) -> u64 {
        (BACKOFF_BASE << (streak.saturating_sub(1)).min(16)).min(BACKOFF_CAP)
    }

    /// Absorb the fabric's fault events from the previous cycle: schedule
    /// retry backoff for failed loads, count scrub detections. Events
    /// live one fabric tick, so each is seen exactly once.
    fn drain_fault_events(&mut self, fabric: &Fabric) {
        let slots = fabric.params().rfu_slots;
        if self.cooldown_until.len() != slots {
            self.cooldown_until.resize(slots, 0);
            self.fail_streak.resize(slots, 0);
        }
        for ev in fabric.fault_events() {
            match *ev {
                FaultEvent::LoadFailed { head, .. } => {
                    self.stats.load_failures += 1;
                    self.fail_streak[head] = self.fail_streak[head].saturating_add(1);
                    self.cooldown_until[head] = self.tick + Self::backoff(self.fail_streak[head]);
                }
                FaultEvent::UpsetDetected { .. } => {
                    self.stats.upsets_detected += 1;
                }
                FaultEvent::LoadPlaced { head, .. } => {
                    // Readback passed: the head's failure streak is over.
                    self.fail_streak[head] = 0;
                    self.cooldown_until[head] = 0;
                }
                // Telemetry-only events (the simulator translates these
                // for its event log); the loader has no bookkeeping.
                FaultEvent::UpsetInjected { .. } | FaultEvent::ScrubPass { .. } => {}
            }
        }
    }

    /// The steering set this loader serves.
    #[inline]
    pub fn set(&self) -> &SteeringSet {
        &self.set
    }

    /// Counters so far.
    #[inline]
    pub fn stats(&self) -> &LoaderStats {
        &self.stats
    }

    /// The selection applied on the previous cycle.
    #[inline]
    pub fn last_choice(&self) -> Option<ConfigChoice> {
        self.last_choice
    }

    /// Apply one cycle's selection: start as many of the chosen
    /// configuration's unit loads as availability and ports allow.
    /// Returns the number of loads started.
    pub fn apply(&mut self, choice: ConfigChoice, fabric: &mut Fabric) -> usize {
        self.apply_observed(choice, fabric, &mut Telemetry::off())
    }

    /// [`ConfigurationLoader::apply`], emitting load-lifecycle telemetry
    /// (start/retry/backoff-deferral/dead-skip) into `obs`. Behaviour is
    /// identical; a disabled handle makes every emit a no-op.
    ///
    /// When the paper's XOR slot diff between the target and the
    /// allocation vector is empty — the target was found fully in place
    /// and the fabric's allocation epoch has not moved since — the
    /// per-unit walk is skipped: it would only count every unit as
    /// matching, so the exit adds the unit count to `skipped_matching`.
    #[inline]
    pub fn apply_observed(
        &mut self,
        choice: ConfigChoice,
        fabric: &mut Fabric,
        obs: &mut Telemetry,
    ) -> usize {
        self.apply_inner(choice, fabric, obs, true)
    }

    /// [`ConfigurationLoader::apply_observed`] without the empty-diff
    /// exit: the per-unit walk runs on every selection of a predefined
    /// configuration. The reference the exit is checked against.
    #[doc(hidden)]
    pub fn apply_observed_scan(
        &mut self,
        choice: ConfigChoice,
        fabric: &mut Fabric,
        obs: &mut Telemetry,
    ) -> usize {
        self.apply_inner(choice, fabric, obs, false)
    }

    #[inline]
    fn apply_inner(
        &mut self,
        choice: ConfigChoice,
        fabric: &mut Fabric,
        obs: &mut Telemetry,
        exit_in_place: bool,
    ) -> usize {
        self.tick += 1;
        self.drain_fault_events(fabric);
        let idx = choice.two_bit() as usize;
        if let Some(c) = self.stats.selections.get_mut(idx) {
            *c += 1;
        }
        if self.last_choice.is_some() && self.last_choice != Some(choice) {
            self.stats.selection_changes += 1;
        }
        self.last_choice = Some(choice);

        let ConfigChoice::Predefined(i) = choice else {
            return 0; // keep the current configuration: no reconfiguration
        };
        if exit_in_place && self.partial {
            if let Some(p) = self.in_place {
                if p.target == i && p.epoch == fabric.epoch() {
                    self.stats.skipped_matching += p.units;
                    return 0;
                }
            }
        }
        self.load_target(i, fabric, obs)
    }

    /// The per-unit walk over predefined configuration `i`: start, defer
    /// or skip each unit's load. Records the target as in place when
    /// every unit was skipped as already matching.
    fn load_target(&mut self, i: usize, fabric: &mut Fabric, obs: &mut Telemetry) -> usize {
        let target = &self.set.predefined[i];
        let mut started = 0;
        let (mut units, mut matching) = (0u64, 0u64);
        for pu in target.placement.units() {
            units += 1;
            if self.tick < self.cooldown_until[pu.head] {
                self.stats.deferred_backoff += 1;
                obs.emit(Event::LoadBackoffDeferred {
                    head: pu.head as u32,
                    unit: pu.unit,
                });
                continue;
            }
            let res = if self.partial {
                fabric.begin_load(pu.head, pu.unit)
            } else {
                fabric.begin_load_forced(pu.head, pu.unit)
            };
            match res {
                Ok(()) => {
                    self.stats.loads_started += 1;
                    obs.emit(Event::LoadStarted {
                        head: pu.head as u32,
                        unit: pu.unit,
                    });
                    // A restart after a failure is a retry; the streak is
                    // only cleared once a readback *passes* (LoadPlaced),
                    // so backoff keeps growing across repeated failures.
                    if self.fail_streak[pu.head] > 0 {
                        self.stats.retries += 1;
                        obs.emit(Event::LoadRetry {
                            head: pu.head as u32,
                            unit: pu.unit,
                        });
                    }
                    started += 1;
                }
                Err(LoadError::AlreadyConfigured) => {
                    if self.fault_aware && fabric.slot_corrupted(pu.head) {
                        // Scrub-hint path: the span matches the target but
                        // its configuration memory is upset-corrupted (a
                        // zombie). The skip rule would leave it dead weight
                        // until the next scrub pass; rewrite it now.
                        match fabric.begin_load_forced(pu.head, pu.unit) {
                            Ok(()) => {
                                self.stats.loads_started += 1;
                                self.stats.zombie_reloads += 1;
                                obs.emit(Event::LoadStarted {
                                    head: pu.head as u32,
                                    unit: pu.unit,
                                });
                                started += 1;
                            }
                            Err(LoadError::NoPortFree) => self.stats.deferred_port += 1,
                            Err(LoadError::SpanBusy) => self.stats.deferred_busy += 1,
                            Err(LoadError::SpanLoading) => self.stats.skipped_loading += 1,
                            Err(_) => {}
                        }
                    } else {
                        // The span hosts the unit after all (e.g. another
                        // selection loaded it): the failure streak is over.
                        self.fail_streak[pu.head] = 0;
                        self.stats.skipped_matching += 1;
                        if !fabric.slot_corrupted(pu.head) {
                            matching += 1;
                        }
                    }
                }
                Err(LoadError::SpanBusy) => self.stats.deferred_busy += 1,
                Err(LoadError::NoPortFree) => self.stats.deferred_port += 1,
                Err(LoadError::SpanLoading) => self.stats.skipped_loading += 1,
                Err(LoadError::SpanDead) => {
                    // Re-placement pass: try to defragment the displaced
                    // unit into remaining healthy capacity instead of
                    // losing it for the run.
                    let alt = if self.fault_aware {
                        replacement_head(
                            target,
                            fabric.params().rfu_slots,
                            |s| fabric.slot_dead(s),
                            pu.head,
                        )
                    } else {
                        None
                    };
                    match alt {
                        Some(alt_head) if self.tick >= self.cooldown_until[alt_head] => {
                            let res = if self.partial {
                                fabric.begin_load(alt_head, pu.unit)
                            } else {
                                fabric.begin_load_forced(alt_head, pu.unit)
                            };
                            match res {
                                Ok(()) => {
                                    self.stats.loads_started += 1;
                                    self.stats.replacements += 1;
                                    obs.emit(Event::LoadReplaced {
                                        from_head: pu.head as u32,
                                        to_head: alt_head as u32,
                                        unit: pu.unit,
                                    });
                                    obs.emit(Event::LoadStarted {
                                        head: alt_head as u32,
                                        unit: pu.unit,
                                    });
                                    if self.fail_streak[alt_head] > 0 {
                                        self.stats.retries += 1;
                                        obs.emit(Event::LoadRetry {
                                            head: alt_head as u32,
                                            unit: pu.unit,
                                        });
                                    }
                                    started += 1;
                                }
                                Err(LoadError::AlreadyConfigured) => {
                                    // The re-placed unit is already up from
                                    // an earlier cycle's re-placement.
                                    self.fail_streak[alt_head] = 0;
                                    self.stats.skipped_matching += 1;
                                }
                                Err(LoadError::SpanBusy) => self.stats.deferred_busy += 1,
                                Err(LoadError::NoPortFree) => self.stats.deferred_port += 1,
                                Err(LoadError::SpanLoading) => self.stats.skipped_loading += 1,
                                Err(LoadError::SpanDead) | Err(LoadError::OutOfRange) => {
                                    unreachable!("re-placement spans are healthy and in range")
                                }
                            }
                        }
                        Some(alt_head) => {
                            self.stats.deferred_backoff += 1;
                            obs.emit(Event::LoadBackoffDeferred {
                                head: alt_head as u32,
                                unit: pu.unit,
                            });
                        }
                        None => {
                            self.stats.skipped_dead += 1;
                            obs.emit(Event::DeadSlotSkip {
                                head: pu.head as u32,
                                unit: pu.unit,
                            });
                        }
                    }
                }
                Err(LoadError::OutOfRange) => {
                    unreachable!("steering-set placements fit the fabric")
                }
            }
        }
        // A walk that changed nothing leaves the epoch where it was.
        self.in_place = (self.partial && matching == units).then(|| InPlace {
            target: i,
            epoch: fabric.epoch(),
            units,
        });
        started
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_fabric::fabric::{FabricParams, UnitId};
    use rsp_fabric::fault::{FaultParams, PPM};
    use rsp_isa::UnitType;

    fn fabric(latency: u64, ports: usize) -> Fabric {
        Fabric::new(FabricParams {
            per_slot_load_latency: latency,
            reconfig_ports: ports,
            ..FabricParams::default()
        })
    }

    fn faulty_fabric(faults: FaultParams) -> Fabric {
        Fabric::new(FabricParams {
            per_slot_load_latency: 1,
            reconfig_ports: 8,
            faults,
            ..FabricParams::default()
        })
    }

    fn loader() -> ConfigurationLoader {
        ConfigurationLoader::new(SteeringSet::paper_default())
    }

    #[test]
    fn current_choice_starts_nothing() {
        let mut l = loader();
        let mut f = fabric(1, 8);
        assert_eq!(l.apply(ConfigChoice::Current, &mut f), 0);
        assert_eq!(f.loads_in_flight(), 0);
        assert_eq!(l.stats().selections[0], 1);
    }

    #[test]
    fn empty_fabric_loads_whole_config_with_enough_ports() {
        let mut l = loader();
        let mut f = fabric(1, 8);
        let started = l.apply(ConfigChoice::Predefined(0), &mut f);
        assert_eq!(started, 5, "Config 1 has 5 units");
        // Drain the loads: LSU takes 1 cycle, Int units 2.
        for _ in 0..2 {
            f.tick();
        }
        assert_eq!(f.rfu_counts(), l.set().predefined[0].counts);
    }

    #[test]
    fn single_port_loads_one_unit_per_selection() {
        let mut l = loader();
        let mut f = fabric(1, 1);
        let started = l.apply(ConfigChoice::Predefined(0), &mut f);
        assert_eq!(started, 1);
        assert_eq!(l.stats().deferred_port, 4);
        // Re-applying after completion starts the next unit.
        f.tick();
        f.tick();
        let started = l.apply(ConfigChoice::Predefined(0), &mut f);
        assert_eq!(started, 1);
        assert_eq!(l.stats().skipped_matching, 1, "first unit now matches");
    }

    #[test]
    fn partial_reconfig_skips_overlap() {
        let mut l = loader();
        let mut f = fabric(1, 8);
        // Load Config 1 fully.
        l.apply(ConfigChoice::Predefined(0), &mut f);
        f.tick();
        f.tick();
        // Steer to Config 2: shares the Int-ALU@0 and Int-MDU placement
        // prefix; only the differing tail should reload.
        let started = l.apply(ConfigChoice::Predefined(1), &mut f);
        let c2 = &l.set().predefined[1];
        let overlap = c2.placement.units().count() - started;
        // The shared Int-ALU prefix at slot 0 must not be reloaded.
        assert!(overlap >= 1, "expected ≥1 matching unit, got {overlap}");
        assert_eq!(l.stats().skipped_matching, 1);
        assert_eq!(f.alloc().unit_at(0).unwrap().unit, UnitType::IntAlu);
    }

    #[test]
    fn busy_units_are_skipped_not_waited_for() {
        let mut l = loader();
        let mut f = fabric(1, 8);
        l.apply(ConfigChoice::Predefined(0), &mut f);
        f.tick();
        f.tick();
        // Mark the Int-ALU at slot 0 busy; steer to Config 3 (no ALUs).
        f.set_busy(UnitId::Rfu { head: 0 });
        let before = f.rfu_counts();
        l.apply(ConfigChoice::Predefined(2), &mut f);
        assert!(l.stats().deferred_busy > 0);
        // The busy ALU must still be configured.
        assert_eq!(f.alloc().unit_at(0).unwrap().unit, UnitType::IntAlu);
        assert!(before.get(UnitType::IntAlu) > 0);
    }

    #[test]
    fn full_reload_ablation_reloads_matching_units() {
        let mut l = loader();
        l.partial = false;
        let mut f = fabric(1, 8);
        l.apply(ConfigChoice::Predefined(0), &mut f);
        for _ in 0..2 {
            f.tick();
        }
        let started = l.apply(ConfigChoice::Predefined(0), &mut f);
        assert_eq!(started, 5, "full reload ignores matching spans");
        assert_eq!(l.stats().skipped_matching, 0);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        assert_eq!(ConfigurationLoader::backoff(1), 8);
        assert_eq!(ConfigurationLoader::backoff(2), 16);
        assert_eq!(ConfigurationLoader::backoff(3), 32);
        assert_eq!(ConfigurationLoader::backoff(6), 256);
        assert_eq!(ConfigurationLoader::backoff(7), 256);
        assert_eq!(ConfigurationLoader::backoff(u32::MAX), 256);
    }

    #[test]
    fn failed_loads_back_off_before_retrying() {
        // Every load fails: the loader must not hammer the ports.
        let mut l = loader();
        let mut f = faulty_fabric(FaultParams {
            seed: 1,
            load_failure_ppm: PPM,
            ..FaultParams::default()
        });
        for _ in 0..200 {
            l.apply(ConfigChoice::Predefined(0), &mut f);
            f.tick();
        }
        // Drain the final tick's fault events before checking counters.
        l.apply(ConfigChoice::Current, &mut f);
        let st = l.stats().clone();
        assert!(st.load_failures > 0, "{st:?}");
        assert!(st.deferred_backoff > 0, "{st:?}");
        assert!(st.retries > 0, "restarts after failures are retries");
        assert_eq!(f.rfu_counts().total(), 0);
        // Backoff throttles: far fewer starts than the 200 × 5 attempts a
        // naive loader would make.
        assert!(
            st.loads_started < 5 * 200 / BACKOFF_BASE,
            "backoff must throttle retries: {st:?}"
        );
        // Accounting closes: every attempt is classified somewhere.
        assert_eq!(
            st.loads_started,
            st.load_failures + f.loads_in_flight() as u64,
            "all started loads failed or are in flight"
        );
    }

    #[test]
    fn retries_eventually_succeed_at_partial_failure_rate() {
        // Half the loads fail; with retry the config still comes up.
        let mut l = loader();
        let mut f = faulty_fabric(FaultParams {
            seed: 42,
            load_failure_ppm: PPM / 2,
            ..FaultParams::default()
        });
        for _ in 0..2_000 {
            l.apply(ConfigChoice::Predefined(0), &mut f);
            f.tick();
            if f.rfu_counts() == l.set().predefined[0].counts {
                break;
            }
        }
        assert_eq!(
            f.rfu_counts(),
            l.set().predefined[0].counts,
            "retry must eventually bring the full configuration up"
        );
        let st = l.stats();
        assert!(st.load_failures > 0, "{st:?}");
        assert!(st.retries > 0, "{st:?}");
    }

    #[test]
    fn scrub_detections_reach_loader_stats_and_span_reloads() {
        let mut l = loader();
        let mut f = faulty_fabric(FaultParams {
            seed: 7,
            upset_ppm: PPM,
            scrub_interval: 8,
            ..FaultParams::default()
        });
        // Bring Config 1 up fault-free first (upsets only strike idle
        // configured units, so loads themselves are unaffected).
        for _ in 0..400 {
            l.apply(ConfigChoice::Predefined(0), &mut f);
            f.tick();
        }
        // Drain the final tick's fault events before checking counters.
        l.apply(ConfigChoice::Current, &mut f);
        let st = l.stats();
        assert!(st.upsets_detected > 0, "{st:?}");
        assert_eq!(st.upsets_detected, f.fault_stats().upsets_detected);
        // Scrubbed spans get reloaded (no backoff applies to upsets).
        assert!(st.loads_started > 5, "{st:?}");
        assert_eq!(st.deferred_backoff, 0, "upsets carry no backoff");
    }

    #[test]
    fn dead_spans_are_skipped_every_cycle() {
        let mut l = loader();
        // Config 1 places units across all 8 slots; kill slot 0.
        let mut f = faulty_fabric(FaultParams {
            dead_slots: vec![0],
            ..FaultParams::default()
        });
        let started = l.apply(ConfigChoice::Predefined(0), &mut f);
        assert!(started < 5);
        assert!(l.stats().skipped_dead > 0);
        for _ in 0..4 {
            f.tick();
        }
        l.apply(ConfigChoice::Predefined(0), &mut f);
        assert!(l.stats().skipped_dead >= 2, "dead spans skip forever");
    }

    #[test]
    fn fault_counters_stay_zero_without_faults() {
        // fault_aware on: the fault paths must be inert on a healthy
        // fabric (no dead slots, no corruption → no re-placement, no
        // zombie reloads, identical counters).
        let mut l = loader();
        l.fault_aware = true;
        let mut f = fabric(1, 2);
        for _ in 0..50 {
            l.apply(ConfigChoice::Predefined(0), &mut f);
            f.tick();
        }
        let st = l.stats();
        assert_eq!(st.load_failures, 0);
        assert_eq!(st.retries, 0);
        assert_eq!(st.upsets_detected, 0);
        assert_eq!(st.deferred_backoff, 0);
        assert_eq!(st.skipped_dead, 0);
        assert_eq!(st.replacements, 0);
        assert_eq!(st.zombie_reloads, 0);
    }

    #[test]
    fn dead_span_replacement_recovers_displaced_unit() {
        // Config 3 places Lsu@0, Lsu@1, FpAlu@2-4, FpMdu@5-7. Killing
        // slots 0 and 5 displaces the Lsu@0 (re-placeable: slot 6 is
        // freed by the homeless FpMdu) and the FpMdu (3 contiguous
        // healthy slots no longer exist).
        let mut l = loader();
        l.fault_aware = true;
        let mut f = faulty_fabric(FaultParams {
            dead_slots: vec![0, 5],
            ..FaultParams::default()
        });
        for _ in 0..10 {
            l.apply(ConfigChoice::Predefined(2), &mut f);
            f.tick();
        }
        let lsu_at_6 = f.alloc().unit_at(6).expect("Lsu re-placed to slot 6");
        assert_eq!(lsu_at_6.unit, UnitType::Lsu);
        assert_eq!(lsu_at_6.head, 6);
        assert_eq!(f.rfu_counts().get(UnitType::Lsu), 2);
        assert_eq!(f.rfu_counts().get(UnitType::FpMdu), 0, "FpMdu is homeless");
        let st = l.stats();
        assert_eq!(st.replacements, 1, "re-placement happens once, then sticks");
        assert!(st.skipped_dead > 0, "the homeless FpMdu still skips");
        // Steady state: re-applying finds the re-placed Lsu already up.
        let before = l.stats().loads_started;
        l.apply(ConfigChoice::Predefined(2), &mut f);
        assert_eq!(l.stats().loads_started, before, "no placement churn");
    }

    #[test]
    fn replacement_helpers_degrade_gracefully() {
        let set = SteeringSet::paper_default();
        let c = &set.predefined[2];
        // All slots dead: nothing achievable, no panic.
        assert_eq!(
            achievable_rfu_counts(c, 8, |_| true),
            rsp_isa::units::TypeCounts::ZERO
        );
        assert_eq!(replacement_head(c, 8, |_| true, 0), None);
        // One-slot fabric: only a 1-slot unit could ever fit, and the
        // paper placements all start past it — no panic either way.
        assert_eq!(
            achievable_rfu_counts(c, 1, |_| false).total(),
            u32::from(achievable_rfu_counts(c, 1, |_| false).get(UnitType::Lsu)),
        );
        // No dead slots: achievable equals the nominal counts.
        assert_eq!(achievable_rfu_counts(c, 8, |_| false), c.counts);
        // Dead {0,5}: the displaced Lsu lands on slot 6.
        let dead = |s: usize| s == 0 || s == 5;
        assert_eq!(replacement_head(c, 8, dead, 0), Some(6));
        assert_eq!(
            replacement_head(c, 8, dead, 1),
            Some(1),
            "healthy span keeps its head"
        );
        assert_eq!(
            replacement_head(c, 8, dead, 5),
            None,
            "no 3 contiguous healthy slots"
        );
        let ach = achievable_rfu_counts(c, 8, dead);
        assert_eq!(ach.get(UnitType::Lsu), 2);
        assert_eq!(ach.get(UnitType::FpAlu), 1);
        assert_eq!(ach.get(UnitType::FpMdu), 0);
    }

    #[test]
    fn zombie_spans_are_force_reloaded_when_fault_aware() {
        // No scrub: without the fault-aware path, zombies accumulate and
        // stay (the skip rule sees a matching span); with it, the loader
        // rewrites them as soon as the selection revisits the span.
        let faults = FaultParams {
            seed: 11,
            upset_ppm: PPM / 20,
            scrub_interval: 0,
            ..FaultParams::default()
        };
        let mut plain = loader();
        let mut f_plain = faulty_fabric(faults.clone());
        let mut aware = loader();
        aware.fault_aware = true;
        let mut f_aware = faulty_fabric(faults);
        for _ in 0..500 {
            plain.apply(ConfigChoice::Predefined(0), &mut f_plain);
            f_plain.tick();
            aware.apply(ConfigChoice::Predefined(0), &mut f_aware);
            f_aware.tick();
        }
        assert_eq!(plain.stats().zombie_reloads, 0);
        assert!(aware.stats().zombie_reloads > 0, "{:?}", aware.stats());
        assert!(
            f_aware.corrupted_units() < f_plain.corrupted_units(),
            "zombie reloads must keep corruption from accumulating: \
             aware={} plain={}",
            f_aware.corrupted_units(),
            f_plain.corrupted_units()
        );
    }

    #[test]
    fn selection_change_counting() {
        let mut l = loader();
        let mut f = fabric(1, 8);
        l.apply(ConfigChoice::Current, &mut f);
        l.apply(ConfigChoice::Current, &mut f);
        l.apply(ConfigChoice::Predefined(1), &mut f);
        l.apply(ConfigChoice::Predefined(1), &mut f);
        l.apply(ConfigChoice::Current, &mut f);
        assert_eq!(l.stats().selection_changes, 2);
        assert_eq!(l.stats().selections, vec![3, 0, 2, 0]);
    }
}

//! Steering policies: the paper's mechanism plus the baselines and
//! extensions the experiments compare.
//!
//! A [`SteeringPolicy`] is ticked once per simulated cycle with the
//! demand signature of the ready-but-unscheduled instructions and
//! mutable access to the fabric; it may start partial reconfigurations.
//!
//! * [`PaperSteering`] — the paper's configuration selection unit driving
//!   the configuration loader; its `smoothing` field optionally puts a
//!   [`DemandFilter`] in front of the unit (E11).
//! * [`StaticPolicy`] — never reconfigures (the fabric keeps whatever it
//!   was initialised with): the per-configuration baselines of E1 and the
//!   "never reconfigure" floor.
//! * [`DemandDriven`] — the paper's §5 future-work idea: steer without
//!   predefined configurations by greedily packing the fabric to match
//!   the live demand (also the *oracle* when run on a zero-latency
//!   fabric).

use crate::loader::ConfigurationLoader;
use crate::select::{ConfigChoice, SelectionUnit};
use crate::smooth::DemandFilter;
use rsp_fabric::config::{Configuration, SteeringSet};
use rsp_fabric::fabric::Fabric;
use rsp_isa::units::{TypeCounts, UnitType};
use rsp_obs::{Event, Telemetry, MAX_CANDIDATES};

/// What a policy did this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PolicyOutcome {
    /// The configuration selected (policies without a notion of
    /// configuration choice report `None`).
    pub choice: Option<ConfigChoice>,
    /// Partial reconfigurations started this cycle.
    pub loads_started: usize,
}

/// A per-cycle steering decision-maker.
pub trait SteeringPolicy {
    /// Human-readable policy name for reports.
    fn name(&self) -> String;

    /// Observe this cycle's ready-instruction demand and (possibly)
    /// start reconfigurations, emitting observable decisions into `obs`.
    /// Behaviour must not depend on whether `obs` is enabled (the
    /// fault-free invariance suite pins this).
    fn tick_observed(
        &mut self,
        demand: &TypeCounts,
        fabric: &mut Fabric,
        obs: &mut Telemetry,
    ) -> PolicyOutcome;

    /// [`SteeringPolicy::tick_observed`] with telemetry off.
    fn tick(&mut self, demand: &TypeCounts, fabric: &mut Fabric) -> PolicyOutcome {
        self.tick_observed(demand, fabric, &mut Telemetry::off())
    }
}

/// Consecutive degraded cycles before the fault-aware selection unit
/// switches from the nominal to the effective capacity view. The lane
/// kernel (`rsp_sim::lanes`) uses the same constant, so the scalar
/// machine and the bit-sliced replay cannot disagree on it. Transient
/// zombies are force-reloaded by the loader's scrub-hint path within a
/// span's load latency, so the window is sized to outlast a reload: the
/// view only engages for *persistent* capacity loss (dead slots, or a
/// zombie the loader cannot rewrite). A shorter window measurably hurts
/// — re-ranking on a zombie the reloader is about to fix switches
/// configurations twice for nothing (reconfiguration thrash).
pub const DEFAULT_CAPACITY_HYSTERESIS: u32 = 32;

/// The selection unit's last evaluation and every input it depends on.
/// The unit is a pure function of these inputs, and they rarely change
/// from one cycle to the next, so a tick whose inputs equal the saved
/// ones reuses the saved result. The steering set is the loader's,
/// fixed when the policy is built; the allocation epoch is the steered
/// fabric's (a policy, like its loader, steers one fabric).
#[derive(Debug, Clone)]
struct SelectionMemo {
    /// False until the first evaluation.
    valid: bool,
    /// Key: the 3-bit ready-demand signature.
    required: TypeCounts,
    /// Key: the current configuration's counts (nominal or effective).
    current_counts: TypeCounts,
    /// Key: whether predefined candidates were scored against their
    /// dead-slot-aware counts.
    effective_view: bool,
    /// Key: the fabric's allocation epoch, standing for the live
    /// allocation vector (the reconfiguration costs): the epoch moves
    /// whenever the vector may have changed, and comparing it is cheaper
    /// than comparing the vector.
    alloc_epoch: u64,
    /// Key: the unit's encoder, CEM and tie rule (public, so mutable
    /// between ticks).
    unit: SelectionUnit,
    /// Result: the chosen configuration.
    choice: ConfigChoice,
    /// Result: candidates scored.
    scored: usize,
    /// Result: each candidate's CEM error, for `SteeringDecision`.
    scores: [u32; MAX_CANDIDATES],
}

impl SelectionMemo {
    fn new(unit: SelectionUnit) -> SelectionMemo {
        SelectionMemo {
            valid: false,
            required: TypeCounts::ZERO,
            current_counts: TypeCounts::ZERO,
            effective_view: false,
            alloc_epoch: 0,
            unit,
            choice: ConfigChoice::Current,
            scored: 0,
            scores: [0; MAX_CANDIDATES],
        }
    }

    /// True iff the saved result was computed from exactly these inputs.
    fn hits(
        &self,
        required: TypeCounts,
        current_counts: TypeCounts,
        effective_view: bool,
        alloc_epoch: u64,
        unit: &SelectionUnit,
    ) -> bool {
        self.valid
            && self.required == required
            && self.current_counts == current_counts
            && self.effective_view == effective_view
            && self.unit == *unit
            && self.alloc_epoch == alloc_epoch
    }
}

/// The paper's steering mechanism: selection unit + configuration loader,
/// optionally behind an EWMA demand filter (E11).
#[derive(Debug, Clone)]
pub struct PaperSteering {
    /// The four-stage configuration selection unit.
    pub unit: SelectionUnit,
    /// The configuration loader (owns the steering set).
    pub loader: ConfigurationLoader,
    /// When `Some`, every tick's demand passes through this filter
    /// before it reaches the selection unit (E11). `None` is the paper.
    pub smoothing: Option<DemandFilter>,
    /// Consecutive cycles the effective capacity has trailed nominal.
    degraded_streak: u32,
    /// True while candidates are scored against effective capacity.
    effective_view: bool,
    /// Dead-slot-aware achievable counts per predefined candidate
    /// (RFU re-placement achievable + FFUs), cached because dead slots
    /// are boot-static.
    candidate_counts: [TypeCounts; MAX_CANDIDATES],
    /// Whether `candidate_counts` has been computed yet.
    counts_cached: bool,
    /// True iff some predefined candidate cannot deliver its nominal
    /// counts because of dead slots (a permanent degradation: zombies
    /// heal via scrub/reload, dead slots do not).
    dead_degraded: bool,
    /// Largest per-candidate capacity deficit (in units) due to dead
    /// slots, for the `CapacityRerank` telemetry.
    max_dead_deficit: u32,
    /// The selection unit's last evaluation, reused while its inputs
    /// repeat.
    memo: SelectionMemo,
}

impl PaperSteering {
    /// Paper defaults: Table-1 steering set, shifter CEMs, favor-current
    /// tie-breaking, partial reconfiguration.
    pub fn paper_default() -> PaperSteering {
        Self::new(SelectionUnit::PAPER, SteeringSet::paper_default())
    }

    /// Steering over a custom set / selection unit.
    pub fn new(unit: SelectionUnit, set: SteeringSet) -> PaperSteering {
        PaperSteering {
            memo: SelectionMemo::new(unit),
            unit,
            loader: ConfigurationLoader::new(set),
            smoothing: None,
            degraded_streak: 0,
            effective_view: false,
            candidate_counts: [TypeCounts::ZERO; MAX_CANDIDATES],
            counts_cached: false,
            dead_degraded: false,
            max_dead_deficit: 0,
        }
    }

    /// Fill the per-candidate achievable-counts cache from the fabric's
    /// (boot-static) dead-slot mask.
    fn cache_candidate_counts(&mut self, fabric: &Fabric) {
        let n = fabric.params().rfu_slots;
        let set = self.loader.set();
        let k = set.predefined.len().min(MAX_CANDIDATES);
        for i in 0..k {
            let rfu = crate::loader::achievable_rfu_counts(&set.predefined[i], n, |s| {
                fabric.slot_dead(s)
            });
            self.candidate_counts[i] = rfu.saturating_add(&set.ffu);
            let deficit = set
                .total_counts(i)
                .total()
                .saturating_sub(self.candidate_counts[i].total());
            if deficit > 0 {
                self.dead_degraded = true;
                self.max_dead_deficit = self.max_dead_deficit.max(deficit);
            }
        }
        self.counts_cached = true;
    }
}

impl SteeringPolicy for PaperSteering {
    fn name(&self) -> String {
        let mut n = String::from("paper-steering");
        if !self.loader.partial {
            n.push_str("+full-reload");
        }
        if self.unit.tie != crate::select::TieBreak::FavorCurrent {
            n.push_str("+no-favor-current");
        }
        if self.unit.cem.kind == crate::cem::CemKind::ExactDivider {
            n.push_str("+exact-divider");
        }
        if self.loader.fault_aware {
            n.push_str("+fault-aware");
        }
        if let Some(f) = &self.smoothing {
            n.push_str(&format!("+ewma{}", f.shift));
        }
        n
    }

    #[inline]
    fn tick_observed(
        &mut self,
        demand: &TypeCounts,
        fabric: &mut Fabric,
        obs: &mut Telemetry,
    ) -> PolicyOutcome {
        let demand = match &mut self.smoothing {
            Some(f) => f.update(demand),
            None => *demand,
        };
        // Fault-aware capacity view: compare effective (zombie- and
        // dead-discounted) capacity against nominal, with hysteresis so
        // one transient upset never re-ranks the candidates. Without
        // faults `effective == nominal` every cycle and this whole block
        // reduces to the nominal path — fault-free runs are bit-identical.
        let nominal = fabric.configured_counts();
        let mut current_counts = nominal;
        if self.loader.fault_aware {
            // Dead slots are boot-static, so the per-candidate achievable
            // counts are computed once on the first fault-aware tick.
            if !self.counts_cached {
                self.cache_candidate_counts(fabric);
            }
            let effective = fabric.effective_counts();
            // Degraded: zombies are eating live capacity, or dead slots
            // cap what a candidate could deliver. The former heals (scrub
            // or zombie reload), the latter never does.
            let degraded = effective != nominal || self.dead_degraded;
            if !degraded {
                self.degraded_streak = 0;
                if self.effective_view {
                    self.effective_view = false;
                    if obs.enabled() {
                        obs.emit(Event::CapacityRerank {
                            degraded: false,
                            lost: 0,
                        });
                    }
                }
            } else {
                self.degraded_streak = self.degraded_streak.saturating_add(1);
                if !self.effective_view && self.degraded_streak >= DEFAULT_CAPACITY_HYSTERESIS {
                    self.effective_view = true;
                    if obs.enabled() {
                        let lost = nominal
                            .total()
                            .saturating_sub(effective.total())
                            .max(self.max_dead_deficit);
                        obs.emit(Event::CapacityRerank {
                            degraded: true,
                            lost: lost.min(255) as u8,
                        });
                    }
                }
            }
            if self.effective_view {
                current_counts = effective;
            }
        }
        let required = demand.saturating_3bit();
        let memo = &mut self.memo;
        if !memo.hits(
            required,
            current_counts,
            self.effective_view,
            fabric.epoch(),
            &self.unit,
        ) {
            let candidate_counts: &[TypeCounts] = if self.effective_view {
                let k = self.loader.set().predefined.len().min(MAX_CANDIDATES);
                &self.candidate_counts[..k]
            } else {
                &[]
            };
            let (choice, _err, scored) = self.unit.choose_with_scores_overriding(
                required,
                current_counts,
                candidate_counts,
                fabric.alloc(),
                self.loader.set(),
                &mut memo.scores,
            );
            memo.valid = true;
            memo.required = required;
            memo.current_counts = current_counts;
            memo.effective_view = self.effective_view;
            memo.alloc_epoch = fabric.epoch();
            memo.unit = self.unit;
            memo.choice = choice;
            memo.scored = scored;
        }
        let (choice, scored, scores) = (memo.choice, memo.scored, memo.scores);
        if obs.enabled() {
            let last = self.loader.last_choice();
            obs.emit(Event::SteeringDecision {
                scores,
                candidates: scored as u8,
                chosen: choice.two_bit(),
                changed: last.is_some() && last != Some(choice),
            });
        }
        let loads = self.loader.apply_observed(choice, fabric, obs);
        PolicyOutcome {
            choice: Some(choice),
            loads_started: loads,
        }
    }
}

/// Never reconfigure: the static baseline. The simulator initialises the
/// fabric (typically with one of the predefined configurations); this
/// policy leaves it alone.
#[derive(Debug, Clone)]
pub struct StaticPolicy {
    label: String,
}

impl StaticPolicy {
    /// A static baseline labelled after the configuration it runs on.
    pub fn new(label: impl Into<String>) -> StaticPolicy {
        StaticPolicy {
            label: label.into(),
        }
    }
}

impl SteeringPolicy for StaticPolicy {
    fn name(&self) -> String {
        format!("static:{}", self.label)
    }

    fn tick_observed(
        &mut self,
        _demand: &TypeCounts,
        _fabric: &mut Fabric,
        _obs: &mut Telemetry,
    ) -> PolicyOutcome {
        PolicyOutcome::default()
    }
}

/// Greedily pack the fabric to match live demand, without predefined
/// configurations (paper §5: "being able to dynamically reconfigure
/// without using predefined configurations").
///
/// Each cycle it computes a *desired* unit mix: starting from the FFU
/// baseline, repeatedly grant one more unit of the type with the largest
/// unmet demand per slot (deficit / slot-cost) until the fabric is full
/// or demand is met. It then diff-loads toward the canonical placement of
/// that mix, exactly like the configuration loader.
///
/// Run against a zero-latency fabric this is the *oracle* upper bound of
/// experiment E1.
#[derive(Debug, Clone, Default)]
pub struct DemandDriven {
    /// Loads started so far (stat).
    pub loads_started: u64,
}

impl DemandDriven {
    /// Compute the desired RFU unit mix for a demand signature.
    ///
    /// `ffu` is the fixed baseline (already provided for free); `slots`
    /// the fabric capacity.
    pub(crate) fn desired_mix(demand: &TypeCounts, ffu: &TypeCounts, slots: usize) -> TypeCounts {
        let mut mix = TypeCounts::ZERO;
        let mut used = 0usize;
        loop {
            // Pick the type with the largest unmet demand per slot.
            let mut best: Option<(UnitType, f64)> = None;
            for &t in &UnitType::ALL {
                let provided = mix.get(t) as i32 + ffu.get(t) as i32;
                let deficit = demand.get(t) as i32 - provided;
                if deficit <= 0 || used + t.slot_cost() > slots {
                    continue;
                }
                let score = deficit as f64 / t.slot_cost() as f64;
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((t, score));
                }
            }
            match best {
                Some((t, _)) => {
                    mix.add(t, 1);
                    used += t.slot_cost();
                }
                None => break,
            }
        }
        mix
    }
}

impl SteeringPolicy for DemandDriven {
    fn name(&self) -> String {
        "demand-driven".into()
    }

    fn tick_observed(
        &mut self,
        demand: &TypeCounts,
        fabric: &mut Fabric,
        obs: &mut Telemetry,
    ) -> PolicyOutcome {
        // Count the fixed units straight off the parameters (the old
        // `ffu_signals()` path allocated a Vec every cycle).
        let ffu: TypeCounts = fabric.params().ffus.iter().map(|&t| (t, 1)).collect();
        let slots = fabric.params().rfu_slots;
        let mix = Self::desired_mix(demand, &ffu, slots);
        if mix == fabric.rfu_counts() {
            return PolicyOutcome::default();
        }
        let target =
            Configuration::place("demand", mix, slots).expect("desired mix fits by construction");
        let mut started = 0;
        for pu in target.placement.units() {
            if fabric.begin_load(pu.head, pu.unit).is_ok() {
                self.loads_started += 1;
                started += 1;
                obs.emit(Event::LoadStarted {
                    head: pu.head as u32,
                    unit: pu.unit,
                });
            }
        }
        PolicyOutcome {
            choice: None,
            loads_started: started,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_fabric::fabric::FabricParams;

    fn fault_aware() -> PaperSteering {
        let mut p = PaperSteering::paper_default();
        p.loader.fault_aware = true;
        p
    }

    fn fabric(latency: u64, ports: usize) -> Fabric {
        Fabric::new(FabricParams {
            per_slot_load_latency: latency,
            reconfig_ports: ports,
            ..FabricParams::default()
        })
    }

    #[test]
    fn paper_steering_converges_to_demanded_config() {
        let mut p = PaperSteering::paper_default();
        let mut f = fabric(1, 8);
        // Persistent FP-heavy demand.
        let demand = TypeCounts::new([0, 0, 2, 2, 2]);
        for _ in 0..50 {
            p.tick(&demand, &mut f);
            f.tick();
        }
        // Fabric must have settled on Config 3.
        let expected = p.loader.set().predefined[2].counts;
        assert_eq!(f.rfu_counts(), expected, "fabric: {}", f.slot_map());
        // And the selection must now be stable at "current".
        let out = p.tick(&demand, &mut f);
        assert_eq!(out.choice, Some(ConfigChoice::Current));
        assert_eq!(out.loads_started, 0);
    }

    #[test]
    fn static_policy_never_touches_fabric() {
        let mut p = StaticPolicy::new("Config 1");
        let mut f = fabric(1, 8);
        let before = f.clone();
        let out = p.tick(&TypeCounts::new([7, 7, 7, 7, 7]), &mut f);
        assert_eq!(out, PolicyOutcome::default());
        assert_eq!(f, before);
        assert_eq!(p.name(), "static:Config 1");
    }

    #[test]
    fn desired_mix_matches_demand_shape() {
        let ffu = TypeCounts::new([1, 1, 1, 1, 1]);
        // Demand: 4 ALU, 2 LSU → mix should grant 3 extra ALUs? 3*2=6
        // slots, plus 1 LSU = 7 ≤ 8, then remaining deficit LSU fits.
        let mix = DemandDriven::desired_mix(&TypeCounts::new([4, 0, 2, 0, 0]), &ffu, 8);
        assert_eq!(mix.get(UnitType::IntAlu), 3);
        assert_eq!(mix.get(UnitType::Lsu), 1);
        assert!(mix.slot_cost() <= 8);
        // Zero demand → empty mix.
        assert!(DemandDriven::desired_mix(&TypeCounts::ZERO, &ffu, 8).is_zero());
        // Demand already covered by FFUs → empty mix.
        assert!(DemandDriven::desired_mix(&TypeCounts::new([1, 1, 1, 1, 1]), &ffu, 8).is_zero());
    }

    #[test]
    fn desired_mix_respects_capacity() {
        let ffu = TypeCounts::new([1, 1, 1, 1, 1]);
        let mix = DemandDriven::desired_mix(&TypeCounts::new([7, 7, 7, 7, 7]), &ffu, 8);
        assert!(mix.slot_cost() <= 8);
        assert!(mix.total() > 0);
    }

    #[test]
    fn demand_driven_reaches_demanded_shape() {
        let mut p = DemandDriven::default();
        let mut f = fabric(1, 8);
        let demand = TypeCounts::new([0, 0, 4, 2, 0]);
        for _ in 0..50 {
            p.tick(&demand, &mut f);
            f.tick();
        }
        let c = f.rfu_counts();
        assert!(c.get(UnitType::Lsu) >= 3, "fabric: {}", f.slot_map());
        assert!(c.get(UnitType::FpAlu) >= 1, "fabric: {}", f.slot_map());
        // Stable: no further loads once converged.
        let out = p.tick(&demand, &mut f);
        assert_eq!(out.loads_started, 0);
    }

    #[test]
    fn policy_names() {
        assert_eq!(PaperSteering::paper_default().name(), "paper-steering");
        assert_eq!(fault_aware().name(), "paper-steering+fault-aware");
        let mut p = PaperSteering::paper_default();
        p.loader.partial = false;
        p.unit.tie = crate::select::TieBreak::PreferPredefined;
        p.unit.cem = crate::cem::CemUnit::EXACT;
        assert_eq!(
            p.name(),
            "paper-steering+full-reload+no-favor-current+exact-divider"
        );
        assert_eq!(DemandDriven::default().name(), "demand-driven");
    }

    #[test]
    fn smoothing_name_and_convergence() {
        let mut p = PaperSteering::paper_default();
        p.smoothing = Some(DemandFilter::new(3));
        assert_eq!(p.name(), "paper-steering+ewma3");
        let mut fab = Fabric::new(FabricParams::default());
        // Constant FP demand steers like the unfiltered policy, just
        // slower to start.
        let demand = TypeCounts::new([0, 0, 2, 2, 2]);
        // One reconfig port at 32 cycles/slot: loading the whole 8-slot
        // config takes ~256 cycles, plus filter warm-up.
        for _ in 0..450 {
            p.tick(&demand, &mut fab);
            fab.tick();
        }
        assert_eq!(
            fab.rfu_counts(),
            p.loader.set().predefined[2].counts,
            "fabric: {}",
            fab.slot_map()
        );
    }

    #[test]
    fn fault_aware_is_bit_identical_without_faults() {
        let mut plain = PaperSteering::paper_default();
        let mut aware = fault_aware();
        let mut f_plain = fabric(2, 2);
        let mut f_aware = fabric(2, 2);
        let demands = [
            TypeCounts::new([4, 1, 0, 0, 0]),
            TypeCounts::new([0, 0, 3, 1, 1]),
            TypeCounts::new([1, 1, 2, 0, 0]),
        ];
        for cycle in 0..120 {
            let d = &demands[(cycle / 20) % demands.len()];
            let a = plain.tick(d, &mut f_plain);
            let b = aware.tick(d, &mut f_aware);
            assert_eq!(a, b, "cycle {cycle}");
            f_plain.tick();
            f_aware.tick();
            assert_eq!(f_plain, f_aware, "cycle {cycle}");
        }
        assert!(!aware.effective_view);
    }

    #[test]
    fn dead_slots_engage_effective_view_after_hysteresis() {
        use rsp_fabric::fault::FaultParams;
        let mut p = fault_aware();
        let mut f = Fabric::new(FabricParams {
            per_slot_load_latency: 1,
            reconfig_ports: 8,
            faults: FaultParams {
                dead_slots: vec![4, 5, 6, 7],
                ..FaultParams::default()
            },
            ..FabricParams::default()
        });
        // Lsu-heavy demand. Nominally Config 1 wins (2 Lsu + FFU); with
        // the upper half of the fabric dead, Config 1's Lsus (slots 6,7)
        // are unachievable while Config 3's (slots 0,1) survive — the
        // effective view must re-rank toward Config 3.
        let demand = TypeCounts::new([0, 0, 3, 0, 0]);
        for cycle in 0..40 {
            p.tick(&demand, &mut f);
            f.tick();
            let engaged = p.effective_view;
            let past = cycle + 1 >= DEFAULT_CAPACITY_HYSTERESIS as usize;
            assert_eq!(engaged, past, "cycle {cycle}");
        }
        assert_eq!(
            f.rfu_counts().get(UnitType::Lsu),
            2,
            "fault-aware steering must deliver Config 3's Lsus: {}",
            f.slot_map()
        );
        // The nominal policy chases Config 1 and loses both Lsus to the
        // dead upper half.
        let mut plain = PaperSteering::paper_default();
        let mut f2 = Fabric::new(FabricParams {
            per_slot_load_latency: 1,
            reconfig_ports: 8,
            faults: FaultParams {
                dead_slots: vec![4, 5, 6, 7],
                ..FaultParams::default()
            },
            ..FabricParams::default()
        });
        for _ in 0..40 {
            plain.tick(&demand, &mut f2);
            f2.tick();
        }
        assert_eq!(
            f2.rfu_counts().get(UnitType::Lsu),
            0,
            "nominal steering cannot place Config 1's Lsus: {}",
            f2.slot_map()
        );
    }
}

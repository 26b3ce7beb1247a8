//! Stage 4 — minimal error selection, and the assembled four-stage
//! configuration selection unit (Fig. 2).
//!
//! The selector receives the four error metrics (current configuration
//! first, then the three predefined steering configurations) and outputs
//! a **two-bit** selection. Tie rules (paper §3.1):
//!
//! * minimal error wins;
//! * "in cases where the configuration errors are equal, the minimal
//!   error selection circuit … identif\[ies\] the configuration that
//!   requires the least amount of reconfiguration";
//! * "the current configuration is always favored over any predefined
//!   steering configuration that has the same error metric value" — the
//!   current configuration needs zero reconfiguration, so the first rule
//!   implies this one, and the selector additionally enforces it even if
//!   a predefined configuration also needed zero slots.

use crate::cem::CemUnit;
use crate::encoder::RequirementEncoder;
use rsp_fabric::alloc::AllocationVector;
use rsp_fabric::config::SteeringSet;
use rsp_isa::units::TypeCounts;
use rsp_isa::Instruction;
use serde::{Deserialize, Serialize};

/// The configuration the selection unit chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConfigChoice {
    /// Keep steering toward the current configuration (Config 0).
    Current,
    /// Steer toward predefined configuration `i` (0-based; Table 1's
    /// "Config i+1").
    Predefined(usize),
}

impl ConfigChoice {
    /// The unit's two-bit output encoding: 0 = current, 1–3 = predefined.
    #[inline]
    pub fn two_bit(self) -> u8 {
        match self {
            ConfigChoice::Current => 0,
            ConfigChoice::Predefined(i) => (i + 1) as u8,
        }
    }

    /// Decode the two-bit value.
    #[inline]
    pub fn from_two_bit(v: u8) -> ConfigChoice {
        match v & 0b11 {
            0 => ConfigChoice::Current,
            i => ConfigChoice::Predefined((i - 1) as usize),
        }
    }
}

impl std::fmt::Display for ConfigChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigChoice::Current => write!(f, "Config 0 (current)"),
            ConfigChoice::Predefined(i) => write!(f, "Config {}", i + 1),
        }
    }
}

/// Tie-breaking behaviour at equal minimal error (experiment E3 ablates
/// the paper's rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TieBreak {
    /// The paper's rule: least reconfiguration wins and the current
    /// configuration always beats a predefined one at equal error.
    #[default]
    FavorCurrent,
    /// Ablation: a predefined configuration at equal error displaces the
    /// current one (no stability bias); among predefined, least
    /// reconfiguration then lowest index.
    PreferPredefined,
}

impl TieBreak {
    /// Stage 4's comparator: does candidate `(err, cost)` displace the
    /// best so far, `(best_err, best_cost)`? Minimal error wins; at equal
    /// error the rule decides, with `best_is_current` telling it whether
    /// the best so far is the current configuration.
    #[inline]
    pub fn beats(
        self,
        (err, cost): (u32, usize),
        (best_err, best_cost): (u32, usize),
        best_is_current: bool,
    ) -> bool {
        err < best_err
            || (err == best_err
                && match self {
                    // Never displace the current configuration at equal
                    // error, whatever the costs say.
                    TieBreak::FavorCurrent => !best_is_current && cost < best_cost,
                    // Always displace the current configuration at equal
                    // error; break predefined ties by cost.
                    TieBreak::PreferPredefined => best_is_current || cost < best_cost,
                })
    }
}

/// The minimal-error selection circuit.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinimalErrorSelector;

impl MinimalErrorSelector {
    /// Choose among candidates with the paper's tie rules.
    /// `errors[0]`/`reconfig_cost[0]` belong to the current
    /// configuration; the rest to the predefined ones.
    ///
    /// Returns the candidate index (0 = current).
    pub fn select(&self, errors: &[u32], reconfig_cost: &[usize]) -> usize {
        self.select_with(errors, reconfig_cost, TieBreak::FavorCurrent)
    }

    /// Choose among candidates with an explicit tie-break rule.
    pub fn select_with(&self, errors: &[u32], reconfig_cost: &[usize], tie: TieBreak) -> usize {
        assert_eq!(errors.len(), reconfig_cost.len());
        assert!(!errors.is_empty());
        let mut best = 0usize;
        for i in 1..errors.len() {
            if tie.beats(
                (errors[i], reconfig_cost[i]),
                (errors[best], reconfig_cost[best]),
                best == 0,
            ) {
                best = i;
            }
        }
        best
    }
}

/// Full output of one selection-unit evaluation, including the stage
/// traces the Fig. 2/3 experiments print.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SelectionResult {
    /// The chosen configuration.
    pub choice: ConfigChoice,
    /// Stage-2 output: required units of each type.
    pub required: TypeCounts,
    /// Stage-3 outputs: scaled error of `[current, config1, config2,
    /// config3, …]`.
    pub errors: Vec<u32>,
    /// Slots each candidate would need reloaded (0 for current).
    pub reconfig_cost: Vec<usize>,
    /// Per-candidate total available counts (incl. FFUs) fed to the CEMs.
    pub candidate_counts: Vec<TypeCounts>,
}

impl SelectionResult {
    /// The unit's two-bit output.
    #[inline]
    pub fn two_bit(&self) -> u8 {
        self.choice.two_bit()
    }
}

/// The assembled configuration selection unit: unit decoders →
/// requirement encoders → CEM generators → minimal error selection.
///
/// ```
/// use rsp_core::{ConfigChoice, SelectionUnit};
/// use rsp_fabric::config::SteeringSet;
/// use rsp_isa::units::TypeCounts;
///
/// let set = SteeringSet::paper_default();
/// // Running on Config 1 (integer) with pure FP demand in the queue:
/// let current = &set.predefined[0];
/// let demand = TypeCounts::new([0, 0, 2, 2, 2]);
/// let (choice, _err) = SelectionUnit::PAPER.choose(
///     demand,
///     set.total_counts(0),
///     &current.placement,
///     &set,
/// );
/// assert_eq!(choice, ConfigChoice::Predefined(2), "steer to the FP config");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectionUnit {
    /// Stage-2 encoder bank.
    pub encoder: RequirementEncoder,
    /// Stage-3 error metric implementation.
    pub cem: CemUnit,
    /// Stage-4 tie-break rule.
    pub tie: TieBreak,
}

impl SelectionUnit {
    /// The paper's configuration: 3-bit encoders, barrel-shifter CEMs,
    /// favor-current tie-breaking.
    pub const PAPER: SelectionUnit = SelectionUnit {
        encoder: RequirementEncoder::PAPER,
        cem: CemUnit::PAPER,
        tie: TieBreak::FavorCurrent,
    };

    /// Evaluate the unit on a queue snapshot.
    ///
    /// * `queue` — the instructions in the instruction queue that are
    ///   ready to be executed (not yet scheduled);
    /// * `current_counts` — units of each type currently configured
    ///   (RFUs + FFUs), as reported by the configuration loader;
    /// * `current_alloc` — the live resource allocation vector (for the
    ///   least-reconfiguration tie-break);
    /// * `set` — the predefined steering configurations.
    pub fn select(
        &self,
        queue: &[Instruction],
        current_counts: TypeCounts,
        current_alloc: &AllocationVector,
        set: &SteeringSet,
    ) -> SelectionResult {
        let required = self.encoder.encode_instructions(queue);
        self.select_from_counts(required, current_counts, current_alloc, set)
    }

    /// Stages 3–4 only, for callers that already hold the stage-2 counts.
    pub fn select_from_counts(
        &self,
        required: TypeCounts,
        current_counts: TypeCounts,
        current_alloc: &AllocationVector,
        set: &SteeringSet,
    ) -> SelectionResult {
        let n = 1 + set.predefined.len();
        let mut errors = Vec::with_capacity(n);
        let mut cost = Vec::with_capacity(n);
        let mut counts = Vec::with_capacity(n);

        // Candidate 0: the current configuration.
        errors.push(self.cem.error(&required, &current_counts));
        cost.push(0);
        counts.push(current_counts);

        // Candidates 1..: the predefined steering configurations.
        for (i, c) in set.predefined.iter().enumerate() {
            let total = set.total_counts(i);
            errors.push(self.cem.error(&required, &total));
            cost.push(c.placement.diff_count(current_alloc));
            counts.push(total);
        }

        let best = MinimalErrorSelector.select_with(&errors, &cost, self.tie);
        let choice = if best == 0 {
            ConfigChoice::Current
        } else {
            ConfigChoice::Predefined(best - 1)
        };
        SelectionResult {
            choice,
            required,
            errors,
            reconfig_cost: cost,
            candidate_counts: counts,
        }
    }

    /// Allocation-free fast path for per-cycle use: stages 3–4 only,
    /// returning the choice and its error. Semantically identical to
    /// [`SelectionUnit::select_from_counts`] (a test pins this).
    pub fn choose(
        &self,
        required: TypeCounts,
        current_counts: TypeCounts,
        current_alloc: &AllocationVector,
        set: &SteeringSet,
    ) -> (ConfigChoice, u32) {
        let mut scores = [0u32; rsp_obs::MAX_CANDIDATES];
        let (choice, err, _) = self.choose_with_scores_overriding(
            required,
            current_counts,
            &[],
            current_alloc,
            set,
            &mut scores,
        );
        (choice, err)
    }

    /// [`SelectionUnit::choose`], additionally writing each candidate's
    /// CEM error into `scores` (candidate 0 = current configuration) for
    /// telemetry, with per-candidate count overrides: predefined
    /// candidate `i` is scored against `candidate_counts[i]` instead of
    /// the nominal [`SteeringSet::total_counts`] (missing entries fall
    /// back to the nominal counts). The fault-aware steering path passes
    /// the *effective* (zombie- and dead-slot-discounted) capacities here
    /// so the CEMs never score phantom units; an empty slice is the
    /// nominal path. Returns the choice, its error, and the number of
    /// scored candidates (capped at `scores.len()`; selection itself
    /// always considers every candidate).
    pub fn choose_with_scores_overriding(
        &self,
        required: TypeCounts,
        current_counts: TypeCounts,
        candidate_counts: &[TypeCounts],
        current_alloc: &AllocationVector,
        set: &SteeringSet,
        scores: &mut [u32; rsp_obs::MAX_CANDIDATES],
    ) -> (ConfigChoice, u32, usize) {
        scores.fill(0);
        let mut best = 0usize;
        let mut best_err = self.cem.error(&required, &current_counts);
        let mut best_cost = 0usize;
        scores[0] = best_err;
        for (i, c) in set.predefined.iter().enumerate() {
            let total = candidate_counts
                .get(i)
                .copied()
                .unwrap_or_else(|| set.total_counts(i));
            let err = self.cem.error(&required, &total);
            let cost = c.placement.diff_count(current_alloc);
            if i + 1 < scores.len() {
                scores[i + 1] = err;
            }
            if self
                .tie
                .beats((err, cost), (best_err, best_cost), best == 0)
            {
                best = i + 1;
                best_err = err;
                best_cost = cost;
            }
        }
        let choice = if best == 0 {
            ConfigChoice::Current
        } else {
            ConfigChoice::Predefined(best - 1)
        };
        let scored = (1 + set.predefined.len()).min(scores.len());
        (choice, best_err, scored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rsp_fabric::config::Configuration;
    use rsp_isa::regs::{FReg, IReg};
    use rsp_isa::Opcode;

    fn set() -> SteeringSet {
        SteeringSet::paper_default()
    }

    fn fp_heavy_queue() -> Vec<Instruction> {
        vec![
            Instruction::fff(Opcode::Fadd, FReg::new(1), FReg::new(2), FReg::new(3)),
            Instruction::fff(Opcode::Fsub, FReg::new(4), FReg::new(5), FReg::new(6)),
            Instruction::fff(Opcode::Fmul, FReg::new(7), FReg::new(8), FReg::new(9)),
            Instruction::fff(Opcode::Fdiv, FReg::new(10), FReg::new(11), FReg::new(12)),
            Instruction::flw(FReg::new(13), IReg::new(1), 0),
            Instruction::flw(FReg::new(14), IReg::new(1), 1),
        ]
    }

    fn int_heavy_queue() -> Vec<Instruction> {
        vec![
            Instruction::rrr(Opcode::Add, IReg::new(1), IReg::new(2), IReg::new(3)),
            Instruction::rrr(Opcode::Sub, IReg::new(4), IReg::new(5), IReg::new(6)),
            Instruction::rrr(Opcode::Xor, IReg::new(7), IReg::new(8), IReg::new(9)),
            Instruction::rrr(Opcode::Mul, IReg::new(10), IReg::new(11), IReg::new(12)),
            Instruction::lw(IReg::new(13), IReg::new(1), 0),
            Instruction::lw(IReg::new(14), IReg::new(1), 1),
        ]
    }

    #[test]
    fn two_bit_roundtrip() {
        for v in 0..4u8 {
            assert_eq!(ConfigChoice::from_two_bit(v).two_bit(), v);
        }
        assert_eq!(ConfigChoice::Predefined(2).two_bit(), 3);
        assert_eq!(ConfigChoice::Current.to_string(), "Config 0 (current)");
        assert_eq!(ConfigChoice::Predefined(0).to_string(), "Config 1");
    }

    #[test]
    fn fp_queue_steers_to_fp_config() {
        // Current fabric: Config 1 (integer) loaded.
        let s = set();
        let current = Configuration::place("cur", s.predefined[0].counts, 8).unwrap();
        let current_counts = s.predefined[0].counts.saturating_add(&s.ffu);
        let r =
            SelectionUnit::PAPER.select(&fp_heavy_queue(), current_counts, &current.placement, &s);
        assert_eq!(
            r.choice,
            ConfigChoice::Predefined(2),
            "errors={:?}",
            r.errors
        );
        assert_eq!(r.two_bit(), 3);
    }

    #[test]
    fn int_queue_on_int_config_stays_current() {
        let s = set();
        let current = &s.predefined[0]; // Config 1 loaded
        let current_counts = s.total_counts(0);
        let r =
            SelectionUnit::PAPER.select(&int_heavy_queue(), current_counts, &current.placement, &s);
        // Current has the same counts as Config 1 → same error; current
        // must win the tie.
        assert_eq!(r.errors[0], r.errors[1]);
        assert_eq!(r.choice, ConfigChoice::Current);
    }

    #[test]
    fn empty_queue_keeps_current() {
        let s = set();
        let current = AllocationVector::empty(8);
        let r = SelectionUnit::PAPER.select(&[], s.ffu, &current, &s);
        assert!(r.required.is_zero());
        // All errors zero → current wins every tie.
        assert!(r.errors.iter().all(|&e| e == 0));
        assert_eq!(r.choice, ConfigChoice::Current);
    }

    #[test]
    fn tie_between_predefined_goes_to_least_reconfiguration() {
        let sel = MinimalErrorSelector;
        // current has error 5; two predefined tie at 3; costs 6 vs 2.
        assert_eq!(sel.select(&[5, 3, 3], &[0, 6, 2]), 2);
        // Equal costs → lowest index.
        assert_eq!(sel.select(&[5, 3, 3], &[0, 4, 4]), 1);
    }

    #[test]
    fn current_beats_predefined_even_at_zero_cost() {
        let sel = MinimalErrorSelector;
        // Predefined config identical to current: same error, cost 0.
        assert_eq!(sel.select(&[3, 3], &[0, 0]), 0);
    }

    #[test]
    fn strictly_better_predefined_wins() {
        let sel = MinimalErrorSelector;
        assert_eq!(sel.select(&[4, 3, 5, 9], &[0, 8, 1, 0]), 1);
    }

    #[test]
    fn hybrid_current_configuration_can_win() {
        // A hybrid (overlap of configs) that matches demand better than
        // any predefined configuration must be kept.
        let s = set();
        // Hybrid: 1 Int-ALU, 1 FP-ALU, 3 LSU (2+3+3 = 8 slots).
        let mut hybrid = AllocationVector::empty(8);
        hybrid.place(0, rsp_isa::UnitType::IntAlu);
        hybrid.place(2, rsp_isa::UnitType::FpAlu);
        hybrid.place(5, rsp_isa::UnitType::Lsu);
        hybrid.place(6, rsp_isa::UnitType::Lsu);
        hybrid.place(7, rsp_isa::UnitType::Lsu);
        let current_counts = hybrid.counts().saturating_add(&s.ffu);
        // Demand: 2 ALU, 4 LSU, 1 FP-ALU.
        let queue = vec![
            Instruction::rrr(Opcode::Add, IReg::new(1), IReg::new(2), IReg::new(3)),
            Instruction::rrr(Opcode::Or, IReg::new(4), IReg::new(5), IReg::new(6)),
            Instruction::lw(IReg::new(7), IReg::new(1), 0),
            Instruction::lw(IReg::new(8), IReg::new(1), 1),
            Instruction::lw(IReg::new(9), IReg::new(1), 2),
            Instruction::lw(IReg::new(10), IReg::new(1), 3),
            Instruction::fff(Opcode::Fadd, FReg::new(1), FReg::new(2), FReg::new(3)),
        ];
        let r = SelectionUnit::PAPER.select(&queue, current_counts, &hybrid, &s);
        assert_eq!(r.choice, ConfigChoice::Current, "errors={:?}", r.errors);
        assert!(r.errors[0] < r.errors[1].min(r.errors[2]).min(r.errors[3]));
    }

    #[test]
    fn prefer_predefined_displaces_current_on_tie() {
        let sel = MinimalErrorSelector;
        assert_eq!(
            sel.select_with(&[3, 3, 5], &[0, 4, 0], TieBreak::PreferPredefined),
            1
        );
        // Among predefined, least cost still wins.
        assert_eq!(
            sel.select_with(&[3, 3, 3], &[0, 4, 2], TieBreak::PreferPredefined),
            2
        );
        // Strictly better current still wins.
        assert_eq!(
            sel.select_with(&[2, 3, 3], &[0, 4, 2], TieBreak::PreferPredefined),
            0
        );
    }

    proptest! {
        /// The allocation-free fast path agrees with the full result
        /// structure for arbitrary demand/fabric states.
        #[test]
        fn prop_choose_matches_select_from_counts(
            req in proptest::collection::vec(0u8..8, 5),
            cur in proptest::collection::vec(0u8..4, 5),
            tie_pred in proptest::bool::ANY
        ) {
            let s = set();
            let required = TypeCounts::new([req[0], req[1], req[2], req[3], req[4]]).saturating_3bit();
            // Build a plausible "current" allocation: one of the
            // predefined placements, so diff costs vary.
            let current_alloc = &s.predefined[(req[0] as usize) % 3].placement;
            let current_counts = TypeCounts::new([cur[0], cur[1], cur[2], cur[3], cur[4]]);
            let unit = SelectionUnit {
                tie: if tie_pred { TieBreak::PreferPredefined } else { TieBreak::FavorCurrent },
                ..SelectionUnit::PAPER
            };
            let full = unit.select_from_counts(required, current_counts, current_alloc, &s);
            let (choice, err) = unit.choose(required, current_counts, current_alloc, &s);
            prop_assert_eq!(choice, full.choice);
            let idx = full.choice.two_bit() as usize;
            prop_assert_eq!(err, full.errors[idx]);
            // The telemetry variant records exactly the stage-3 errors,
            // and is bit-identical when handed the nominal counts (or no
            // overrides at all).
            let nominal: Vec<TypeCounts> =
                (0..s.predefined.len()).map(|i| s.total_counts(i)).collect();
            for overrides in [&nominal[..], &nominal[..1], &[][..]] {
                let mut scores = [0u32; rsp_obs::MAX_CANDIDATES];
                let (c2, e2, scored) = unit.choose_with_scores_overriding(
                    required, current_counts, overrides, current_alloc, &s, &mut scores);
                prop_assert_eq!(c2, full.choice);
                prop_assert_eq!(e2, err);
                prop_assert_eq!(scored, full.errors.len().min(scores.len()));
                prop_assert_eq!(&scores[..scored], &full.errors[..scored]);
            }
        }

        /// DESIGN.md invariant 4: the selector never returns a candidate
        /// with a strictly higher error than another candidate, and at
        /// equal error the current configuration is never displaced.
        #[test]
        fn prop_selector_minimality(
            errors in proptest::collection::vec(0u32..10, 1..6),
            costs in proptest::collection::vec(0usize..10, 1..6)
        ) {
            let n = errors.len().min(costs.len());
            let errors = &errors[..n];
            let mut costs = costs[..n].to_vec();
            costs[0] = 0; // current configuration needs no reconfiguration
            let best = MinimalErrorSelector.select(errors, &costs);
            let min = *errors.iter().min().unwrap();
            prop_assert_eq!(errors[best], min);
            if errors[0] == min {
                prop_assert_eq!(best, 0, "current must win ties");
            } else {
                // Among predefined candidates at minimal error, the chosen
                // one has minimal reconfiguration cost.
                let best_cost = costs[best];
                for i in 1..n {
                    if errors[i] == min {
                        prop_assert!(best_cost <= costs[i]);
                    }
                }
            }
        }
    }
}

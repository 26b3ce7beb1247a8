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
//!
//! [`SelectionUnit::select`], which keeps every stage's trace, and the
//! allocation-free [`SelectionUnit::choose`] that the machine runs score
//! the candidates with one Stage 3 iterator and fold them with one Stage 4
//! loop, `TieBreak::pick`.

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
    pub(crate) fn beats(
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

    /// Stage 4: fold the candidates through [`TieBreak::beats`], starting
    /// from the current configuration's error; `predefined` yields each
    /// predefined configuration's `(error, reconfiguration cost)` in
    /// order. Returns the winner's index (0 = current) and its error.
    /// The current configuration's cost is never compared, so it has
    /// none here.
    #[inline]
    pub(crate) fn pick(
        self,
        current_err: u32,
        predefined: impl IntoIterator<Item = (u32, usize)>,
    ) -> (usize, u32) {
        let (mut i, mut best_index, mut best) = (0, 0, (current_err, 0));
        for c in predefined {
            i += 1;
            if self.beats(c, best, best_index == 0) {
                best_index = i;
                best = c;
            }
        }
        (best_index, best.0)
    }
}

/// The minimal-error selection circuit over precomputed errors and
/// costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinimalErrorSelector;

impl MinimalErrorSelector {
    /// Choose among candidates with the paper's tie rules.
    /// `errors[0]`/`reconfig_cost[0]` belong to the current
    /// configuration; the rest to the predefined ones.
    ///
    /// Returns the candidate index (0 = current).
    pub fn select(&self, errors: &[u32], reconfig_cost: &[usize]) -> usize {
        assert_eq!(errors.len(), reconfig_cost.len());
        let predefined = errors.iter().copied().zip(reconfig_cost.iter().copied());
        TieBreak::FavorCurrent.pick(errors[0], predefined.skip(1)).0
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
    ///
    /// Stages 3–4 are those of [`SelectionUnit::choose`]; this adds the
    /// per-candidate traces.
    pub fn select(
        &self,
        queue: &[Instruction],
        current_counts: TypeCounts,
        current_alloc: &AllocationVector,
        set: &SteeringSet,
    ) -> SelectionResult {
        let required = self.encoder.encode_instructions(queue);
        let n = 1 + set.predefined.len();
        let mut errors = Vec::with_capacity(n);
        let mut reconfig_cost = Vec::with_capacity(n);
        let mut candidate_counts = Vec::with_capacity(n);
        errors.push(self.cem.error(&required, &current_counts));
        reconfig_cost.push(0);
        candidate_counts.push(current_counts);
        for (err, cost, counts) in self.score_predefined(required, &[], current_alloc, set) {
            errors.push(err);
            reconfig_cost.push(cost);
            candidate_counts.push(counts);
        }
        let predefined = errors.iter().copied().zip(reconfig_cost.iter().copied());
        let (best, _) = self.tie.pick(errors[0], predefined.skip(1));
        SelectionResult {
            choice: candidate(best),
            required,
            errors,
            reconfig_cost,
            candidate_counts,
        }
    }

    /// Allocation-free fast path for per-cycle use: stages 3–4 only,
    /// returning the choice and its error.
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
        let current = self.cem.error(&required, &current_counts);
        scores[0] = current;
        let predefined = self
            .score_predefined(required, candidate_counts, current_alloc, set)
            .enumerate()
            .map(|(i, (err, cost, _))| {
                if let Some(s) = scores.get_mut(i + 1) {
                    *s = err;
                }
                (err, cost)
            });
        let (best, err) = self.tie.pick(current, predefined);
        (
            candidate(best),
            err,
            (1 + set.predefined.len()).min(scores.len()),
        )
    }

    /// Stage 3 for the predefined candidates, in order: each one's CEM
    /// error, the slots it would need reloaded, and the counts the CEM
    /// scored. Candidate `i` is scored against `overrides[i]` when
    /// present, else its nominal [`SteeringSet::total_counts`].
    fn score_predefined<'a>(
        &'a self,
        required: TypeCounts,
        overrides: &'a [TypeCounts],
        current_alloc: &'a AllocationVector,
        set: &'a SteeringSet,
    ) -> impl Iterator<Item = (u32, usize, TypeCounts)> + 'a {
        set.predefined.iter().enumerate().map(move |(i, c)| {
            let total = overrides
                .get(i)
                .copied()
                .unwrap_or_else(|| set.total_counts(i));
            (
                self.cem.error(&required, &total),
                c.placement.diff_count(current_alloc),
                total,
            )
        })
    }
}

/// The choice for candidate `index` (0 = the current configuration).
fn candidate(index: usize) -> ConfigChoice {
    match index {
        0 => ConfigChoice::Current,
        i => ConfigChoice::Predefined(i - 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Stage 4 alone, through the shared fold (`costs[0]`, the current
    /// configuration's, is never compared).
    fn pick(tie: TieBreak, errors: &[u32], costs: &[usize]) -> usize {
        let predefined = errors.iter().copied().zip(costs.iter().copied());
        tie.pick(errors[0], predefined.skip(1)).0
    }

    #[test]
    fn tie_between_predefined_goes_to_least_reconfiguration() {
        let tie = TieBreak::FavorCurrent;
        // current has error 5; two predefined tie at 3; costs 6 vs 2.
        assert_eq!(pick(tie, &[5, 3, 3], &[0, 6, 2]), 2);
        // Equal costs → lowest index.
        assert_eq!(pick(tie, &[5, 3, 3], &[0, 4, 4]), 1);
    }

    #[test]
    fn current_beats_predefined_even_at_zero_cost() {
        // Predefined config identical to current: same error, cost 0.
        assert_eq!(pick(TieBreak::FavorCurrent, &[3, 3], &[0, 0]), 0);
    }

    #[test]
    fn strictly_better_predefined_wins() {
        assert_eq!(
            pick(TieBreak::FavorCurrent, &[4, 3, 5, 9], &[0, 8, 1, 0]),
            1
        );
        // The benchmark's entry point is the same fold.
        assert_eq!(MinimalErrorSelector.select(&[4, 3, 5, 9], &[0, 8, 1, 0]), 1);
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
        let tie = TieBreak::PreferPredefined;
        assert_eq!(pick(tie, &[3, 3, 5], &[0, 4, 0]), 1);
        // Among predefined, least cost still wins.
        assert_eq!(pick(tie, &[3, 3, 3], &[0, 4, 2]), 2);
        // Strictly better current still wins.
        assert_eq!(pick(tie, &[2, 3, 3], &[0, 4, 2]), 0);
    }
}

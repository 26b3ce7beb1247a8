//! The selection circuit checked over its whole input space.
//!
//! The paper's unit sees at most seven queue entries, counts them in
//! 3-bit encoders, divides with a three-way barrel shifter and picks one
//! of four candidates. Its joint input space (792 demand vectors × 243
//! availability shift classes × candidate placements × tie rules) runs
//! to about 1.5 million cases, but it factors:
//!
//! * Stage 2 is a per-type count, so every queue multiset covers it;
//! * Stage 3 is a sum of per-type terms, so every `(required, available)`
//!   term pair, then every demand × shift-class vector, covers it;
//! * Stage 4 compares only, so it depends on the weak order of the four
//!   errors, the weak order of the three predefined costs (the current
//!   configuration's cost is never compared) and the tie rule;
//! * the composed unit is then checked over every demand, placement,
//!   tie rule and override mode against the Stage 3 and Stage 4 oracles.
//!
//! Each test asserts how many cases it ran, so a shrunk enumeration
//! cannot pass unnoticed.

use crate::cem::{cem_error_spec, cem_term_spec, CemKind, CemUnit, ERROR_SCALE};
use crate::decode::decode_queue;
use crate::encoder::{requirement_counts_spec, requirement_counts_spec_types, RequirementEncoder};
use crate::select::{MinimalErrorSelector, SelectionUnit, TieBreak};
use rsp_fabric::alloc::AllocationVector;
use rsp_fabric::config::SteeringSet;
use rsp_isa::regs::{FReg, IReg};
use rsp_isa::units::{TypeCounts, UnitType};
use rsp_isa::{Instruction, Opcode};
use rsp_obs::MAX_CANDIDATES;

const TIES: [TieBreak; 2] = [TieBreak::FavorCurrent, TieBreak::PreferPredefined];

/// Every count vector over the five unit types with each count at most
/// `max_count` and the total at most `max_total`.
fn count_vectors(max_count: u8, max_total: u32) -> Vec<TypeCounts> {
    let base = max_count as u32 + 1;
    (0..base.pow(5))
        .map(|code| {
            TypeCounts::new(std::array::from_fn(|t| {
                (code / base.pow(t as u32) % base) as u8
            }))
        })
        .filter(|c| c.total() <= max_total)
        .collect()
}

/// The demands a 7-entry queue can present: five counts summing to ≤ 7.
fn demands() -> Vec<TypeCounts> {
    let d = count_vectors(7, 7);
    assert_eq!(d.len(), 792);
    d
}

/// One instruction that needs a unit of type `t`.
fn instruction_for(t: UnitType) -> Instruction {
    let (i, f) = (IReg::new, FReg::new);
    let instr = match t {
        UnitType::IntAlu => Instruction::rrr(Opcode::Add, i(1), i(2), i(3)),
        UnitType::IntMdu => Instruction::rrr(Opcode::Mul, i(1), i(2), i(3)),
        UnitType::Lsu => Instruction::lw(i(1), i(2), 0),
        UnitType::FpAlu => Instruction::fff(Opcode::Fadd, f(1), f(2), f(3)),
        UnitType::FpMdu => Instruction::fff(Opcode::Fmul, f(1), f(2), f(3)),
    };
    assert_eq!(instr.unit_type(), t);
    instr
}

/// A queue snapshot with `counts` entries of each type.
fn queue_for(counts: &TypeCounts) -> Vec<Instruction> {
    UnitType::ALL
        .iter()
        .flat_map(|&t| std::iter::repeat_n(instruction_for(t), counts.get(t) as usize))
        .collect()
}

/// The divisor of the paper's shifter for an available count: the
/// largest of 1, 2 and 4 that its 3-bit quantity reaches. Each divisor
/// is also the representative count of its shift class.
fn shifter_divisor(available: u8) -> u8 {
    match available.min(7) {
        0..=1 => 1,
        2..=3 => 2,
        _ => 4,
    }
}

/// The paper's division, stated arithmetically: the exact divider
/// divides by the true count, the shifter by [`shifter_divisor`].
fn term_formula(kind: CemKind, required: u8, available: u8) -> u32 {
    let r = required.min(7) as u32;
    match kind {
        CemKind::ExactDivider => r * ERROR_SCALE / available.max(1) as u32,
        CemKind::BarrelShifter => r / shifter_divisor(available) as u32 * ERROR_SCALE,
    }
}

/// Every weak order of `n` items, as rank vectors whose ranks fill
/// `0..k` for some `k`.
fn weak_orders(n: u32) -> Vec<Vec<u32>> {
    (0..n.pow(n))
        .map(|code| (0..n).map(|i| code / n.pow(i) % n).collect::<Vec<u32>>())
        .filter(|ranks| {
            let top = *ranks.iter().max().unwrap();
            (0..=top).all(|r| ranks.contains(&r))
        })
        .collect()
}

/// The paper's Stage 4 rule over the whole candidate set (§3.1): among
/// the candidates at minimal error, the current configuration wins
/// under [`TieBreak::FavorCurrent`]; otherwise the predefined one that
/// needs the least reconfiguration, lowest index first. Under
/// [`TieBreak::PreferPredefined`] any predefined candidate at minimal
/// error displaces the current one.
fn stage4_oracle(tie: TieBreak, errors: &[u32], costs: &[usize]) -> usize {
    let min = *errors.iter().min().unwrap();
    let current_tied = errors[0] == min;
    let predefined = (1..errors.len())
        .filter(|&i| errors[i] == min)
        .min_by_key(|&i| (costs[i], i));
    match (tie, current_tied, predefined) {
        (TieBreak::FavorCurrent, true, _) => 0,
        (_, _, Some(i)) => i,
        (_, _, None) => 0,
    }
}

#[test]
fn stage2_encoder_over_every_queue_multiset() {
    let mut cases = 0;
    for raw in count_vectors(12, 12) {
        let queue = queue_for(&raw);
        let hots = decode_queue(&queue);
        let paper = RequirementEncoder::PAPER.encode(&hots);
        assert_eq!(paper, requirement_counts_spec(raw, Some(7)));
        assert_eq!(paper, RequirementEncoder::PAPER.encode_instructions(&queue));
        for &t in &UnitType::ALL {
            assert_eq!(paper.get(t), raw.get(t).min(7), "{raw}");
        }
        let ideal = RequirementEncoder { saturate_at: None }.encode(&hots);
        assert_eq!(ideal, raw);
        if queue.len() <= 7 {
            // Within the paper's queue, saturation never engages.
            assert_eq!(paper, raw);
            let types: Vec<UnitType> = queue.iter().map(|i| i.unit_type()).collect();
            assert_eq!(requirement_counts_spec_types(&types), raw);
        }
        cases += 1;
    }
    // Multisets of at most 12 entries over five types: C(17, 5).
    assert_eq!(cases, 6_188);
}

#[test]
fn stage3_terms_over_the_whole_u8_domain() {
    for kind in [CemKind::BarrelShifter, CemKind::ExactDivider] {
        let cem = CemUnit { kind };
        let mut cases = 0;
        for r in 0..=u8::MAX {
            for a in 0..=u8::MAX {
                let t = cem.term(r, a);
                assert_eq!(t, term_formula(kind, r, a), "{kind:?} term({r}, {a})");
                if kind == CemKind::BarrelShifter {
                    assert_eq!(t, cem_term_spec(r, a), "term({r}, {a})");
                    // The term sees `available` only through its shift
                    // class, so the next test enumerates one count per
                    // class.
                    assert_eq!(
                        t,
                        cem.term(r, shifter_divisor(a)),
                        "term({r}, {a}) by class"
                    );
                }
                // More demand never lowers a term; more supply never
                // raises one.
                if r < u8::MAX {
                    assert!(cem.term(r + 1, a) >= t, "{kind:?} monotone at ({r}, {a})");
                }
                if a < u8::MAX {
                    assert!(cem.term(r, a + 1) <= t, "{kind:?} antitone at ({r}, {a})");
                }
                cases += 1;
            }
        }
        assert_eq!(cases, 65_536, "{kind:?}");
    }
    // The shifter brackets the exact divider wherever the exact term is
    // an integer (ERROR_SCALE = lcm(1..=8)): its divisor d satisfies
    // d ≤ available < 2d, so it loses less than one whole unit to the
    // floor and never more than doubles the exact term.
    for r in 0..=7u8 {
        for a in 1..=7u8 {
            let exact = CemUnit::EXACT.term(r, a);
            let shifter = CemUnit::PAPER.term(r, a);
            assert_eq!(exact * a as u32, r as u32 * ERROR_SCALE);
            assert!(exact < shifter + ERROR_SCALE, "bracket low at ({r}, {a})");
            assert!(shifter <= 2 * exact, "bracket high at ({r}, {a})");
        }
    }
}

#[test]
fn stage3_width_and_spec_over_every_demand_and_shift_class() {
    let mut cases = 0;
    for required in demands() {
        for code in 0..3u32.pow(5) {
            // One count per shift class and type: its divisor.
            let available = TypeCounts::new(std::array::from_fn(|t| {
                [1, 2, 4][(code / 3u32.pow(t as u32) % 3) as usize]
            }));
            // The paper's width claim: the five shifted terms of a
            // 7-entry queue sum within a 3-bit adder tree.
            let raw = CemUnit::PAPER.raw_error(&required, &available);
            assert!(raw <= 7, "{required} on {available}: raw error {raw}");
            let error = CemUnit::PAPER.error(&required, &available);
            assert_eq!(error, cem_error_spec(&required, &available));
            assert_eq!(error, ERROR_SCALE * raw as u32);
            cases += 1;
        }
    }
    assert_eq!(cases, 192_456);
}

#[test]
fn stage4_over_every_error_and_cost_order() {
    let error_orders = weak_orders(4);
    let cost_orders = weak_orders(3);
    assert_eq!((error_orders.len(), cost_orders.len()), (75, 13));
    let mut cases = 0;
    for errors in &error_orders {
        let errors: Vec<u32> = errors.iter().map(|&r| r * ERROR_SCALE).collect();
        for cost_ranks in &cost_orders {
            // The current configuration needs no reconfiguration.
            let costs: Vec<usize> = std::iter::once(0)
                .chain(cost_ranks.iter().map(|&r| r as usize))
                .collect();
            let predefined = || errors[1..].iter().copied().zip(costs[1..].iter().copied());
            for tie in TIES {
                let want = stage4_oracle(tie, &errors, &costs);
                let got = tie.pick(errors[0], predefined());
                assert_eq!(
                    got,
                    (want, errors[want]),
                    "{tie:?} errors {errors:?} costs {costs:?}"
                );
                if tie == TieBreak::FavorCurrent {
                    assert_eq!(MinimalErrorSelector.select(&errors, &costs), want);
                }
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 1_950);
}

#[test]
fn stages_3_4_select_equals_choose_on_every_demand() {
    let set = SteeringSet::paper_default();
    let k = set.predefined.len();
    let nominal: Vec<TypeCounts> = (0..k).map(|i| set.total_counts(i)).collect();
    let mut allocations = vec![AllocationVector::empty(set.rfu_slots)];
    allocations.extend(set.predefined.iter().map(|c| c.placement.clone()));
    let mut cases = 0;
    for demand in demands() {
        let queue = queue_for(&demand);
        for alloc in &allocations {
            let current_counts = alloc.counts().saturating_add(&set.ffu);
            for tie in TIES {
                let unit = SelectionUnit {
                    tie,
                    ..SelectionUnit::PAPER
                };
                let r = unit.select(&queue, current_counts, alloc, &set);
                assert_eq!(r.required, demand);
                // The traces are Stage 3's inputs and outputs...
                let mut counts = vec![current_counts];
                counts.extend(&nominal);
                assert_eq!(r.candidate_counts, counts);
                let costs: Vec<usize> = std::iter::once(0)
                    .chain(set.predefined.iter().map(|c| c.placement.diff_count(alloc)))
                    .collect();
                assert_eq!(r.reconfig_cost, costs);
                let errors: Vec<u32> = counts.iter().map(|c| cem_error_spec(&demand, c)).collect();
                assert_eq!(r.errors, errors);
                // ...and the choice is Stage 4's over them.
                let want = stage4_oracle(tie, &errors, &costs);
                assert_eq!(r.choice.two_bit() as usize, want);
                assert_eq!(
                    unit.choose(demand, current_counts, alloc, &set),
                    (r.choice, errors[want])
                );
                for overrides in [&nominal[..], &nominal[..1], &[][..]] {
                    let mut scores = [u32::MAX; MAX_CANDIDATES];
                    let (choice, err, scored) = unit.choose_with_scores_overriding(
                        demand,
                        current_counts,
                        overrides,
                        alloc,
                        &set,
                        &mut scores,
                    );
                    assert_eq!((choice, err), (r.choice, errors[want]));
                    assert_eq!(scored, (1 + k).min(MAX_CANDIDATES));
                    assert_eq!(&scores[..scored], &errors[..scored]);
                    assert!(scores[scored..].iter().all(|&s| s == 0));
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 19_008);
}

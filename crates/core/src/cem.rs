//! Stage 3 — configuration error metric generators (Fig. 3).
//!
//! Each CEM generator scores one candidate configuration: how poorly do
//! its available units match the required units? The paper's equation
//! (Fig. 3a) is, per unit type, `required(t) / available(t)`, summed over
//! the five types — fewer available copies of a demanded type mean a
//! larger error contribution.
//!
//! The hardware approximates the division with a **barrel shifter**
//! (Fig. 3b): divide by 4, 2, or 1. For the three predefined
//! configurations the shift amounts are hard-wired (their unit counts are
//! static); for the current configuration the shift control inputs are
//! **the upper two bits of the 3-bit quantity** of currently configured
//! units (Fig. 3c):
//!
//! | quantity (3-bit) | upper bits | shift | divides by |
//! |------------------|-----------|-------|------------|
//! | 0–1              | 00        | 0     | 1          |
//! | 2–3              | 01        | 1     | 2          |
//! | 4–7              | 1x        | 2     | 4          |
//!
//! "A more accurate divider circuit could be implemented, if desired, at
//! the expense of increased complexity and latency" — that alternative is
//! [`CemKind::ExactDivider`], compared against the shifter in experiment
//! E5.
//!
//! Because the queue holds at most seven instructions, the five shifted
//! terms sum to at most 7, so the paper's 3-bit adder tree suffices;
//! the tests' reference `CemUnit::raw_error` reproduces that 3-bit
//! arithmetic exactly and asserts the width claim.

use rsp_isa::units::{TypeCounts, UnitType};
use serde::{Deserialize, Serialize};

/// Fixed-point scale for comparable shifter/exact errors:
/// `lcm(1..=8) = 840`, so `required × SCALE / available` is always an
/// integer for the unit counts this architecture can configure.
pub const ERROR_SCALE: u32 = 840;

/// Fig. 3(c): shift amount for a 3-bit available-unit quantity — its
/// upper two bits, interpreted as "divide by 4, 2, or 1".
#[inline]
pub(crate) fn shift_for_quantity(avail: u8) -> u32 {
    let q = avail.min(7); // 3-bit hardware quantity
    if q & 0b100 != 0 {
        2
    } else if q & 0b010 != 0 {
        1
    } else {
        0
    }
}

/// The divisor the shifter realises for a given availability.
#[inline]
pub(crate) fn shifter_divisor(avail: u8) -> u32 {
    1 << shift_for_quantity(avail)
}

/// Which division the CEM generator uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CemKind {
    /// The paper's barrel-shifter approximation (divide by 1, 2, or 4).
    #[default]
    BarrelShifter,
    /// The "more accurate divider" alternative: exact integer division by
    /// the true available count (≥ 1 — the FFUs guarantee one unit of
    /// every type).
    ExactDivider,
}

/// One configuration error metric generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CemUnit {
    /// Division implementation.
    pub kind: CemKind,
}

impl CemUnit {
    /// The paper's shifter-based CEM.
    pub const PAPER: CemUnit = CemUnit {
        kind: CemKind::BarrelShifter,
    };

    /// The exact-divider CEM (E5 ablation).
    pub const EXACT: CemUnit = CemUnit {
        kind: CemKind::ExactDivider,
    };

    /// Scaled error metric (`ERROR_SCALE` fixed-point): lower is better.
    ///
    /// `required` is the stage-2 encoder output; `available` is the
    /// candidate configuration's per-type unit count **including FFUs**.
    pub fn error(&self, required: &TypeCounts, available: &TypeCounts) -> u32 {
        UnitType::ALL
            .iter()
            .map(|&t| self.term(required.get(t), available.get(t)))
            .sum()
    }

    /// One type's scaled error term.
    #[inline]
    pub fn term(&self, required: u8, available: u8) -> u32 {
        let r = required.min(7) as u32; // 3-bit hardware quantity
        let t = match self.kind {
            CemKind::BarrelShifter => (r >> shift_for_quantity(available)) * ERROR_SCALE,
            CemKind::ExactDivider => r * ERROR_SCALE / (available.max(1) as u32),
        };
        #[cfg(debug_assertions)]
        if self.kind == CemKind::BarrelShifter {
            debug_assert_eq!(
                t,
                cem_term_spec(required, available),
                "CemUnit::term diverged from its specification"
            );
        }
        t
    }

    /// The raw (unscaled) 3-bit-adder-tree error of the shifter hardware:
    /// the five shifted terms summed in 3-bit arithmetic. Only meaningful
    /// for [`CemKind::BarrelShifter`].
    ///
    /// # Panics
    /// Panics in debug builds if a term or the sum exceeds 7 while total
    /// demand is within the 7-entry queue bound — that would falsify the
    /// paper's "three-bit adders are sufficient" claim.
    #[cfg(test)]
    pub(crate) fn raw_error(&self, required: &TypeCounts, available: &TypeCounts) -> u8 {
        let mut sum: u8 = 0;
        for &t in &UnitType::ALL {
            let r = required.get(t).min(7);
            let term = r >> shift_for_quantity(available.get(t));
            debug_assert!(term <= 7, "term exceeds 3-bit width");
            sum += term;
        }
        if required.total() <= 7 {
            debug_assert!(sum <= 7, "3-bit sum overflow within paper queue bound");
        }
        sum
    }

    /// Per-type trace of `(required, available, shift-or-divisor, term)`
    /// used by the Fig. 3 experiment printout.
    pub fn trace(&self, required: &TypeCounts, available: &TypeCounts) -> Vec<CemTerm> {
        UnitType::ALL
            .iter()
            .map(|&t| CemTerm {
                unit: t,
                required: required.get(t).min(7),
                available: available.get(t),
                divisor: match self.kind {
                    CemKind::BarrelShifter => shifter_divisor(available.get(t)),
                    CemKind::ExactDivider => available.get(t).max(1) as u32,
                },
                term: self.term(required.get(t), available.get(t)),
            })
            .collect()
    }
}

/// One barrel-shifter CEM term as a pure gate-level specification
/// (mirroring the `*_scan` idiom of `rsp-fabric`): clamp both operands
/// to their 3-bit hardware quantities, derive the shift from the upper
/// two availability bits exactly as Fig. 3(c) wires them, shift, scale.
/// [`CemUnit::term`] cross-checks against this in debug builds; the
/// bit-sliced lane kernel's differential tests compare against it
/// directly, not against CEM internals.
pub(crate) fn cem_term_spec(required: u8, available: u8) -> u32 {
    // 3-bit hardware quantities; Fig. 3(c) wires the shift select from
    // the upper two availability bits.
    let r = required.min(7);
    let q = available.min(7);
    let s2 = q & 0b100 != 0;
    let s1 = !s2 && (q & 0b010 != 0);
    let shifted = if s2 {
        r >> 2
    } else if s1 {
        r >> 1
    } else {
        r
    };
    (shifted as u32) * ERROR_SCALE
}

/// The full five-type barrel-shifter CEM as a specification: the sum of
/// the per-type [`cem_term_spec`] terms. Equal to
/// `CemUnit::PAPER.error(..)` for every input (a proptest pins this),
/// and to `ERROR_SCALE ×` [`CemUnit::raw_error`] whenever total demand
/// fits the paper's 7-entry queue.
#[cfg(test)]
pub(crate) fn cem_error_spec(required: &TypeCounts, available: &TypeCounts) -> u32 {
    UnitType::ALL
        .iter()
        .map(|&t| cem_term_spec(required.get(t), available.get(t)))
        .sum()
}

/// One row of a CEM trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CemTerm {
    /// Unit type.
    pub unit: UnitType,
    /// Required count (3-bit clamped).
    pub required: u8,
    /// Available count in the candidate configuration (incl. FFUs).
    pub available: u8,
    /// Effective divisor used.
    pub divisor: u32,
    /// Scaled error contribution.
    pub term: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn shift_control_follows_fig_3c() {
        assert_eq!(shift_for_quantity(0), 0);
        assert_eq!(shift_for_quantity(1), 0);
        assert_eq!(shift_for_quantity(2), 1);
        assert_eq!(shift_for_quantity(3), 1);
        assert_eq!(shift_for_quantity(4), 2);
        assert_eq!(shift_for_quantity(5), 2);
        assert_eq!(shift_for_quantity(6), 2);
        assert_eq!(shift_for_quantity(7), 2);
        // Beyond the 3-bit quantity the hardware clamps.
        assert_eq!(shift_for_quantity(200), 2);
        assert_eq!(shifter_divisor(3), 2);
    }

    #[test]
    fn zero_demand_zero_error() {
        let avail = TypeCounts::new([3, 1, 2, 1, 1]);
        assert_eq!(CemUnit::PAPER.error(&TypeCounts::ZERO, &avail), 0);
        assert_eq!(CemUnit::EXACT.error(&TypeCounts::ZERO, &avail), 0);
    }

    #[test]
    fn shifter_error_examples() {
        // 4 ALUs required, 3 available → shift 1 → 4>>1 = 2 (scaled).
        assert_eq!(CemUnit::PAPER.term(4, 3), 2 * ERROR_SCALE);
        // 4 required, 4 available → shift 2 → 1.
        assert_eq!(CemUnit::PAPER.term(4, 4), ERROR_SCALE);
        // 3 required, 1 available → shift 0 → 3.
        assert_eq!(CemUnit::PAPER.term(3, 1), 3 * ERROR_SCALE);
        // 1 required, 2 available → 1>>1 = 0: the shifter *underestimates*.
        assert_eq!(CemUnit::PAPER.term(1, 2), 0);
        // The exact divider keeps the fraction.
        assert_eq!(CemUnit::EXACT.term(1, 2), ERROR_SCALE / 2);
    }

    #[test]
    fn exact_divider_is_scaled_rational() {
        assert_eq!(CemUnit::EXACT.term(4, 3), 4 * ERROR_SCALE / 3);
        assert_eq!(CemUnit::EXACT.term(7, 8), 7 * ERROR_SCALE / 8);
        // avail 0 guarded to 1 (cannot happen with FFUs present).
        assert_eq!(CemUnit::EXACT.term(5, 0), 5 * ERROR_SCALE);
    }

    #[test]
    fn full_error_sums_types() {
        let req = TypeCounts::new([2, 1, 2, 0, 0]);
        let avail = TypeCounts::new([3, 2, 3, 1, 1]); // Config 1 + FFUs
                                                      // ALU: 2>>1=1, MDU: 1>>1=0, LSU: 2>>1=1 → 2 total.
        assert_eq!(CemUnit::PAPER.error(&req, &avail), 2 * ERROR_SCALE);
        // Exact: 2*840/3 + 1*840/2 + 2*840/3 = 560+420+560 = 1540.
        assert_eq!(CemUnit::EXACT.error(&req, &avail), 1540);
    }

    #[test]
    fn trace_rows_are_consistent() {
        let req = TypeCounts::new([4, 0, 1, 0, 2]);
        let avail = TypeCounts::new([1, 1, 3, 1, 2]);
        for kind in [CemUnit::PAPER, CemUnit::EXACT] {
            let rows = kind.trace(&req, &avail);
            assert_eq!(rows.len(), 5);
            let total: u32 = rows.iter().map(|r| r.term).sum();
            assert_eq!(total, kind.error(&req, &avail));
        }
    }

    fn arb_counts(max_total: u32) -> impl Strategy<Value = TypeCounts> {
        proptest::collection::vec(0u8..8, 5).prop_map(move |v| {
            let mut c = TypeCounts::new([v[0], v[1], v[2], v[3], v[4]]);
            // Trim lanes until the total respects the queue bound.
            while c.total() > max_total {
                for &t in &UnitType::ALL {
                    if c.total() > max_total && c.get(t) > 0 {
                        c.set(t, c.get(t) - 1);
                    }
                }
            }
            c
        })
    }

    proptest! {
        /// DESIGN.md invariant 3 (width claim): with ≤ 7 total demand the
        /// raw shifter error fits 3 bits.
        #[test]
        fn prop_three_bit_adders_sufficient(
            req in arb_counts(7),
            avail in proptest::collection::vec(0u8..9, 5)
        ) {
            let avail = TypeCounts::new([avail[0], avail[1], avail[2], avail[3], avail[4]]);
            let raw = CemUnit::PAPER.raw_error(&req, &avail);
            prop_assert!(raw <= 7, "raw error {raw} needs more than 3 bits");
            prop_assert_eq!(raw as u32 * ERROR_SCALE, CemUnit::PAPER.error(&req, &avail));
        }

        /// The shifter never *overestimates* the exact division by more
        /// than the divisor quantisation allows: shifter divisor ≤ true
        /// available count when available ∈ {1,2,4}, and the shifter error
        /// is within a factor-2 band of the exact error.
        #[test]
        fn prop_shifter_brackets_exact(
            req in 0u8..8,
            avail in 1u8..8
        ) {
            let exact = CemUnit::EXACT.term(req, avail) as f64;
            let approx = CemUnit::PAPER.term(req, avail) as f64;
            // divisor ∈ {1,2,4} vs true avail ∈ [1,7]: the approximation's
            // divisor is within [avail/2, 2*avail] … except floor() may
            // zero small terms. Check the band only when approx > 0.
            if approx > 0.0 {
                prop_assert!(approx <= exact * 2.0 + f64::EPSILON);
                prop_assert!(approx + (ERROR_SCALE as f64) > exact / 2.0);
            }
        }

        /// Error is monotone in demand: more required units of any type
        /// never decreases the error.
        #[test]
        fn prop_monotone_in_demand(
            req in arb_counts(6),
            avail in arb_counts(31),
            bump in 0usize..5
        ) {
            for kind in [CemUnit::PAPER, CemUnit::EXACT] {
                let base = kind.error(&req, &avail);
                let mut more = req;
                more.add(UnitType::from_index(bump).unwrap(), 1);
                prop_assert!(kind.error(&more, &avail) >= base);
            }
        }

        /// The pure specification matches the shifter implementation on
        /// every input, term-wise and summed.
        #[test]
        fn prop_spec_matches_shifter(req in arb_counts(31), avail in arb_counts(31)) {
            prop_assert_eq!(CemUnit::PAPER.error(&req, &avail), cem_error_spec(&req, &avail));
            for &t in &UnitType::ALL {
                prop_assert_eq!(
                    CemUnit::PAPER.term(req.get(t), avail.get(t)),
                    cem_term_spec(req.get(t), avail.get(t))
                );
            }
        }

        /// Within the paper's queue bound the spec is the scaled 3-bit
        /// raw error — the width claim, restated against the spec.
        #[test]
        fn prop_spec_is_scaled_raw_error(req in arb_counts(2), avail in arb_counts(7)) {
            // The vendored proptest has no prop_assume!; skip over-bound draws.
            if req.total() > 7 {
                return;
            }
            prop_assert_eq!(
                cem_error_spec(&req, &avail),
                ERROR_SCALE * CemUnit::PAPER.raw_error(&req, &avail) as u32
            );
        }

        /// Error is antitone in supply: more available units of any type
        /// never increases the error.
        #[test]
        fn prop_antitone_in_supply(
            req in arb_counts(7),
            avail in arb_counts(31),
            bump in 0usize..5
        ) {
            for kind in [CemUnit::PAPER, CemUnit::EXACT] {
                let base = kind.error(&req, &avail);
                let mut more = avail;
                more.add(UnitType::from_index(bump).unwrap(), 1);
                prop_assert!(kind.error(&req, &more) <= base);
            }
        }
    }
}

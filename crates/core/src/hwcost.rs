//! First-order hardware cost model of the configuration selection unit.
//!
//! The paper's argument for the barrel-shifter CEM is complexity and
//! latency: "a more accurate divider circuit could be implemented, if
//! desired, at the expense of increased complexity and latency" (§3.1).
//! This module quantifies that argument with standard textbook gate
//! estimates, so the claim is checkable rather than rhetorical.
//!
//! Conventions (deliberately simple and stated):
//! * unit of area = one two-input gate; a full adder = 5 gates (depth 2
//!   carry path), a half adder = 2 gates (depth 1), a 2:1 mux = 4 gates
//!   (depth 2);
//! * ripple-carry adders (the paper says "3-bit adders", not CLA);
//! * the three *predefined* configurations' shifters are hard-wired
//!   (pure wiring, zero gates) — the paper's own observation; only the
//!   current configuration pays for controllable shifting;
//! * the exact divider is a 3-iteration restoring array divider per type
//!   (3-bit quotient), the cheapest honest comparison point.
//!
//! Parameterised by queue size and type count so the E9 scaling question
//! ("what would a deeper queue cost in selection hardware?") is
//! answerable too.

use serde::{Deserialize, Serialize};

/// Gate-count / gate-depth estimate of one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BlockCost {
    /// Two-input-gate equivalents.
    pub gates: u64,
    /// Critical path in gate levels.
    pub depth: u32,
}

impl BlockCost {
    fn seq(self, next: BlockCost) -> BlockCost {
        BlockCost {
            gates: self.gates + next.gates,
            depth: self.depth + next.depth,
        }
    }

    fn par(self, other: BlockCost) -> BlockCost {
        BlockCost {
            gates: self.gates + other.gates,
            depth: self.depth.max(other.depth),
        }
    }

    fn times(self, n: u64) -> BlockCost {
        BlockCost {
            gates: self.gates * n,
            depth: self.depth,
        }
    }
}

const FA: BlockCost = BlockCost { gates: 5, depth: 2 };
const HA: BlockCost = BlockCost { gates: 2, depth: 1 };
const MUX2: BlockCost = BlockCost { gates: 4, depth: 2 };

/// Ceil(log2(n)) for n ≥ 1.
fn clog2(n: u64) -> u32 {
    64 - n.saturating_sub(1).leading_zeros()
}

/// Width in bits of a count up to `n` inclusive.
fn width(n: u64) -> u32 {
    clog2(n + 1).max(1)
}

/// One unit decoder: `opcode_bits`-wide opcode to a `types`-wide one-hot
/// (an AND plane, one product term per type).
pub(crate) fn unit_decoder_cost(opcode_bits: u32, types: u32) -> BlockCost {
    // Each one-hot output: an (opcode_bits)-input AND tree of 2-input
    // gates ≈ opcode_bits-1 gates, depth ⌈log2(opcode_bits)⌉. Realistic
    // decoders share terms; we charge the worst case.
    BlockCost {
        gates: (opcode_bits as u64 - 1) * types as u64,
        depth: clog2(opcode_bits as u64),
    }
}

/// One resource requirement encoder: population count of `queue` request
/// bits into a `width(queue)`-bit count, as a carry-save adder tree.
pub(crate) fn popcount_cost(queue: u32) -> BlockCost {
    // A popcount of n bits needs ~n-⌈log2(n+1)⌉ full adders plus change;
    // we charge one FA per eliminated bit and HAs at tree edges.
    let n = queue as u64;
    let fas = n.saturating_sub(width(n) as u64);
    BlockCost {
        gates: fas * FA.gates + width(n) as u64 * HA.gates,
        depth: clog2(n) * FA.depth,
    }
}

/// A `bits`-wide ripple-carry adder.
pub(crate) fn adder_cost(bits: u32) -> BlockCost {
    BlockCost {
        gates: bits as u64 * FA.gates,
        depth: bits * FA.depth,
    }
}

/// Barrel shifter for one 3-bit quantity with a **controllable** shift of
/// 0/1/2 (two mux stages) — the current configuration's shifter
/// (Fig. 3c). Predefined configurations' shifters are hard-wired: zero
/// gates.
pub(crate) fn controllable_shifter_cost(bits: u32) -> BlockCost {
    MUX2.times(bits as u64).seq(MUX2.times(bits as u64))
}

/// A `bits`-quotient restoring divider (the paper's rejected "more
/// accurate divider"): `bits` iterations of subtract + restore mux.
pub(crate) fn restoring_divider_cost(bits: u32) -> BlockCost {
    let iter = adder_cost(bits).seq(MUX2.times(bits as u64));
    BlockCost {
        gates: iter.gates * bits as u64,
        depth: iter.depth * bits,
    }
}

/// A `bits`-wide magnitude comparator (A < B).
pub(crate) fn comparator_cost(bits: u32) -> BlockCost {
    // Subtract-based: one adder plus sign pick.
    adder_cost(bits).seq(BlockCost { gates: 1, depth: 1 })
}

/// Full cost of one CEM generator over `types` unit types with counts up
/// to `queue` (errors fit `width(queue)` bits).
pub(crate) fn cem_cost(types: u32, queue: u32, exact_divider: bool, hard_wired: bool) -> BlockCost {
    let bits = width(queue as u64);
    let per_type = if exact_divider {
        restoring_divider_cost(bits)
    } else if hard_wired {
        BlockCost::default() // pure wiring
    } else {
        controllable_shifter_cost(bits)
    };
    // `types` parallel division units, then an adder tree summing the
    // terms (types-1 adders, ⌈log2 types⌉ deep).
    let divisions = per_type.times(types as u64);
    let sum_tree = BlockCost {
        gates: adder_cost(bits).gates * (types as u64 - 1),
        depth: adder_cost(bits).depth * clog2(types as u64),
    };
    divisions.seq(sum_tree)
}

/// Cost report for the whole selection unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SelectionUnitCost {
    /// Stage 1: all queue-entry unit decoders (parallel).
    pub decoders: BlockCost,
    /// Stage 2: the five requirement encoders (parallel popcounts).
    pub encoders: BlockCost,
    /// Stage 3: four CEM generators (three hard-wired + one current).
    pub cems: BlockCost,
    /// Stage 4: minimal-error comparator tree + tie logic.
    pub selector: BlockCost,
    /// Whole unit (stages in sequence, blocks within a stage parallel).
    pub total: BlockCost,
}

/// Estimate the full selection unit for a machine with `queue` entries,
/// `types` unit types, `predefined` steering configurations, and
/// `opcode_bits`-wide opcodes. `exact_divider` switches stage 3 to the
/// paper's rejected alternative.
pub fn selection_unit_cost(
    queue: u32,
    types: u32,
    predefined: u32,
    opcode_bits: u32,
    exact_divider: bool,
) -> SelectionUnitCost {
    let decoders = unit_decoder_cost(opcode_bits, types).times(queue as u64);
    let encoders = popcount_cost(queue).times(types as u64);
    // Current configuration's CEM pays for controllable shifters (or a
    // real divider); predefined ones are hard-wired (or dividers too).
    let current = cem_cost(types, queue, exact_divider, false);
    let fixed = cem_cost(types, queue, exact_divider, true).times(predefined as u64);
    let cems = current.par(fixed);
    // Selector: (1+predefined)-way minimum over width(queue)-bit errors,
    // comparator tree + mux steering of the 2-bit index, plus the
    // reconfiguration-cost tie-break comparators.
    let bits = width(queue as u64);
    let candidates = 1 + predefined as u64;
    let one_level = comparator_cost(bits).seq(MUX2.times(2 + bits as u64));
    let selector = BlockCost {
        gates: one_level.gates * (candidates - 1) * 2, // error + tie compare
        depth: one_level.depth * clog2(candidates),
    };
    let total = decoders.seq(encoders).seq(cems).seq(selector);
    SelectionUnitCost {
        decoders,
        encoders,
        cems,
        selector,
        total,
    }
}

/// Render a comparison table used by `experiments e13-hwcost`.
pub fn report(queue: u32) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let shifter = selection_unit_cost(queue, 5, 3, 6, false);
    let divider = selection_unit_cost(queue, 5, 3, 6, true);
    let _ = writeln!(
        s,
        "{:<12} {:>16} {:>16} {:>16} {:>16}",
        "stage", "shifter gates", "shifter depth", "divider gates", "divider depth"
    );
    let row = |s: &mut String, name: &str, a: BlockCost, b: BlockCost| {
        let _ = writeln!(
            s,
            "{:<12} {:>16} {:>16} {:>16} {:>16}",
            name, a.gates, a.depth, b.gates, b.depth
        );
    };
    row(&mut s, "decoders", shifter.decoders, divider.decoders);
    row(&mut s, "encoders", shifter.encoders, divider.encoders);
    row(&mut s, "CEMs", shifter.cems, divider.cems);
    row(&mut s, "selector", shifter.selector, divider.selector);
    row(&mut s, "TOTAL", shifter.total, divider.total);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers() {
        assert_eq!(clog2(1), 0);
        assert_eq!(clog2(2), 1);
        assert_eq!(clog2(7), 3);
        assert_eq!(clog2(8), 3);
        assert_eq!(width(7), 3);
        assert_eq!(width(8), 4);
    }

    #[test]
    fn hard_wired_shifters_are_free() {
        let c = cem_cost(5, 7, false, true);
        let adder_only = adder_cost(3).gates * 4;
        assert_eq!(c.gates, adder_only, "only the sum tree costs gates");
    }

    #[test]
    fn divider_strictly_costlier_than_shifter() {
        for queue in [7u32, 15, 31] {
            let s = selection_unit_cost(queue, 5, 3, 6, false);
            let d = selection_unit_cost(queue, 5, 3, 6, true);
            assert!(d.total.gates > s.total.gates, "queue {queue}");
            assert!(d.total.depth > s.total.depth, "queue {queue}");
            // The paper's qualitative claim, quantified: at the default
            // machine the divider multiplies CEM area several-fold.
            assert!(d.cems.gates >= 3 * s.cems.gates, "queue {queue}");
        }
    }

    #[test]
    fn cost_grows_with_queue_depth() {
        let small = selection_unit_cost(7, 5, 3, 6, false);
        let big = selection_unit_cost(31, 5, 3, 6, false);
        assert!(big.total.gates > small.total.gates);
        assert!(big.total.depth >= small.total.depth);
    }

    #[test]
    fn totals_compose_stages() {
        let c = selection_unit_cost(7, 5, 3, 6, false);
        assert_eq!(
            c.total.gates,
            c.decoders.gates + c.encoders.gates + c.cems.gates + c.selector.gates
        );
        assert_eq!(
            c.total.depth,
            c.decoders.depth + c.encoders.depth + c.cems.depth + c.selector.depth
        );
    }

    #[test]
    fn report_renders() {
        let r = report(7);
        assert!(r.contains("TOTAL"));
        assert!(r.contains("CEMs"));
    }

    #[test]
    fn selection_unit_is_small() {
        // Sanity scale check: the whole unit at the paper's parameters
        // should be on the order of a few hundred gates — trivially
        // pipelineable next to a superscalar core.
        let c = selection_unit_cost(7, 5, 3, 6, false);
        assert!(c.total.gates < 2_000, "{} gates", c.total.gates);
        assert!(c.total.depth < 60, "{} levels", c.total.depth);
    }
}

//! Demand smoothing: the EWMA filter E11 puts in front of the selection
//! unit.
//!
//! Experiments E1/E10 show the paper's purely reactive selector can
//! *churn* on workloads whose ready-window composition oscillates from
//! cycle to cycle (each flip starts partial reconfigurations that are
//! stale before they finish). This module holds the obvious
//! hardware-cheap fix the paper leaves on the table: low-pass filter the
//! per-type demand before it reaches the CEM generators. It is only the
//! filter; [`PaperSteering::smoothing`](crate::policy::PaperSteering::smoothing)
//! installs it in the steering policy.
//!
//! The filter is shift-based, exactly as the paper's barrel-shifter
//! aesthetic suggests: fixed-point accumulators with
//! `acc ← acc − (acc ≫ k) + (sample ≪ (F − k))`, i.e. an EWMA with
//! `α = 2^-k`, needing one subtractor and one adder per type and no
//! multipliers. `k = 0` degenerates to the paper's unfiltered behaviour.

use rsp_isa::units::{TypeCounts, UnitType};
use serde::{Deserialize, Serialize};

/// Fixed-point fraction bits of the filter accumulators.
const FRAC_BITS: u32 = 8;

/// A per-type shift-based EWMA filter over demand signatures.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DemandFilter {
    /// Smoothing shift `k` (α = 2^-k). 0 = pass-through.
    pub shift: u32,
    acc: [u32; 5],
}

impl DemandFilter {
    /// A filter with smoothing shift `k` (clamped to 0..=7; larger
    /// shifts make the accumulator movement sub-LSB for 3-bit demands).
    pub fn new(shift: u32) -> DemandFilter {
        DemandFilter {
            shift: shift.min(7),
            acc: [0; 5],
        }
    }

    /// Feed one demand sample; returns the rounded filtered demand.
    pub(crate) fn update(&mut self, sample: &TypeCounts) -> TypeCounts {
        if self.shift == 0 {
            return *sample;
        }
        let mut out = TypeCounts::ZERO;
        for &t in &UnitType::ALL {
            let i = t.index();
            let target = (sample.get(t) as u32) << FRAC_BITS;
            // acc += (target - acc) >> k, in signed arithmetic.
            let delta = (target as i64 - self.acc[i] as i64) >> self.shift;
            self.acc[i] = (self.acc[i] as i64 + delta) as u32;
            // Round to nearest integer demand.
            out.set(
                t,
                ((self.acc[i] + (1 << (FRAC_BITS - 1))) >> FRAC_BITS) as u8,
            );
        }
        out
    }

    /// Current filtered demand without feeding a sample.
    #[cfg(test)]
    pub(crate) fn current(&self) -> TypeCounts {
        let mut out = TypeCounts::ZERO;
        for &t in &UnitType::ALL {
            out.set(
                t,
                ((self.acc[t.index()] + (1 << (FRAC_BITS - 1))) >> FRAC_BITS) as u8,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_zero_is_identity() {
        let mut f = DemandFilter::new(0);
        let d = TypeCounts::new([3, 0, 2, 1, 0]);
        assert_eq!(f.update(&d), d);
        assert_eq!(f.update(&TypeCounts::ZERO), TypeCounts::ZERO);
    }

    #[test]
    fn converges_to_constant_input() {
        let mut f = DemandFilter::new(3);
        let d = TypeCounts::new([4, 0, 2, 0, 1]);
        let mut last = TypeCounts::ZERO;
        for _ in 0..200 {
            last = f.update(&d);
        }
        assert_eq!(last, d, "filter must converge to a constant input");
        assert_eq!(f.current(), d);
    }

    #[test]
    fn suppresses_alternation() {
        // Demand flips between all-int and all-fp every cycle; the
        // filtered output must settle near the average instead of
        // flapping.
        let a = TypeCounts::new([6, 0, 0, 0, 0]);
        let b = TypeCounts::new([0, 0, 0, 6, 0]);
        let mut f = DemandFilter::new(4);
        let mut outputs = Vec::new();
        for i in 0..400 {
            let d = if i % 2 == 0 { a } else { b };
            outputs.push(f.update(&d));
        }
        let tail = &outputs[300..];
        // After warm-up the output no longer changes between cycles.
        assert!(
            tail.windows(2).all(|w| {
                let d0 = w[0];
                let d1 = w[1];
                UnitType::ALL
                    .iter()
                    .all(|&t| d0.get(t).abs_diff(d1.get(t)) <= 1)
            }),
            "filtered output still flapping: {:?}",
            &tail[..4]
        );
        // And it sits near the mean (3 each).
        let last = *outputs.last().unwrap();
        assert!(last.get(UnitType::IntAlu) >= 2 && last.get(UnitType::IntAlu) <= 4);
        assert!(last.get(UnitType::FpAlu) >= 2 && last.get(UnitType::FpAlu) <= 4);
    }

    #[test]
    fn shift_clamped() {
        assert_eq!(DemandFilter::new(99).shift, 7);
    }
}

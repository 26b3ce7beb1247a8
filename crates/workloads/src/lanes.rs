//! Lane-friendly demand-trace generation for the bit-sliced lane kernel.
//!
//! The selection circuit of the paper observes one thing per cycle: the
//! unit-type composition of the (up to seven-entry) instruction queue.
//! The bit-sliced lane kernel in `rsp-sim` evaluates that circuit for
//! thousands of independent machines at once, so its workload is not a
//! program but a **demand trace**: per cycle, one queue snapshot per
//! lane. This module generates such traces directly in demand space —
//! the same space [`mixes`](crate::mixes) samples for the CEM sweeps —
//! with per-lane seeds and per-lane *phase offsets* so neighbouring
//! lanes steer differently (the adversarial case for lockstep
//! evaluation: every `ConfigChoice` mask is mixed).
//!
//! Traces are deterministic in `(spec, lane)`: lane `l` of the same spec
//! is always the same sequence, which is what the differential suite
//! needs to replay a lane against a scalar reference.

use crate::synth::UnitMix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One per-cycle queue snapshot: up to seven occupied entries, each
/// carrying the [`rsp_isa::units::UnitType::index`] of the unit its instruction needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueRow {
    /// Occupied entries (the first `len` of `types` are meaningful).
    pub len: u8,
    /// Per-entry unit-type indexes (`UnitType::index`, 0..5).
    pub types: [u8; 7],
}

impl QueueRow {
    /// The empty queue.
    pub const EMPTY: QueueRow = QueueRow {
        len: 0,
        types: [0; 7],
    };

    /// Per-type occupancy counts of this row (what stage 2 encodes).
    pub fn counts(&self) -> [u8; 5] {
        let mut c = [0u8; 5];
        for &t in &self.types[..self.len as usize] {
            c[t as usize] += 1;
        }
        c
    }
}

/// A seeded generator of per-lane demand traces with phased unit mixes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaneTraceSpec {
    /// Mix phases, visited cyclically. Each lane starts at phase
    /// `lane % mixes.len()` so lanes steer out of step with each other.
    pub mixes: Vec<UnitMix>,
    /// Cycles spent in one phase before moving to the next.
    pub phase_len: u32,
    /// Queue depth sampled per cycle (1..=7; the paper's queue is 7).
    pub queue_len: u8,
    /// Probability (in percent, 0..=100) that a cycle's queue is only
    /// partially full — its length is then drawn uniformly from
    /// `0..queue_len`. Models drain/refill churn around branches.
    pub partial_pct: u8,
    /// Trace length in cycles.
    pub cycles: u32,
    /// Base RNG seed; lane `l` derives its own stream from `(seed, l)`.
    pub seed: u64,
}

impl LaneTraceSpec {
    /// The default lane workload: the four named mixes of the E1 axis,
    /// full 7-entry queues with mild drain churn, 64-cycle phases.
    pub fn synthetic_mix(cycles: u32, seed: u64) -> LaneTraceSpec {
        LaneTraceSpec {
            mixes: UnitMix::named().into_iter().map(|(_, m)| m).collect(),
            phase_len: 64,
            queue_len: 7,
            partial_pct: 10,
            cycles,
            seed,
        }
    }

    /// Generate lane `l`'s trace (deterministic in `(self, lane)`).
    ///
    /// # Panics
    /// Panics if the spec is malformed (`mixes` empty, `queue_len`
    /// outside 1..=7, or `phase_len == 0`).
    pub fn generate_lane(&self, lane: usize) -> Vec<QueueRow> {
        assert!(!self.mixes.is_empty(), "lane trace needs at least one mix");
        assert!(
            (1..=7).contains(&self.queue_len),
            "queue_len must be 1..=7 (paper queue)"
        );
        assert!(self.phase_len > 0, "phase_len must be positive");
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(lane as u64),
        );
        let mut out = Vec::with_capacity(self.cycles as usize);
        for c in 0..self.cycles {
            let phase = ((c / self.phase_len) as usize + lane) % self.mixes.len();
            let mix = &self.mixes[phase];
            let len = if (rng.gen_range(0..100u8)) < self.partial_pct {
                rng.gen_range(0..self.queue_len)
            } else {
                self.queue_len
            };
            let mut row = QueueRow::EMPTY;
            row.len = len;
            for e in 0..len as usize {
                row.types[e] = mix.sample(&mut rng).index() as u8;
            }
            out.push(row);
        }
        out
    }

    /// Generate all `lanes` traces, lane-major.
    pub fn generate(&self, lanes: usize) -> Vec<Vec<QueueRow>> {
        (0..lanes).map(|l| self.generate_lane(l)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_and_lane_distinct() {
        let spec = LaneTraceSpec::synthetic_mix(256, 42);
        assert_eq!(spec.generate_lane(3), spec.generate_lane(3));
        assert_ne!(spec.generate_lane(0), spec.generate_lane(1));
        let all = spec.generate(4);
        assert_eq!(all.len(), 4);
        assert_eq!(all[2], spec.generate_lane(2));
    }

    #[test]
    fn rows_respect_queue_bound() {
        let spec = LaneTraceSpec::synthetic_mix(512, 7);
        for row in spec.generate_lane(5) {
            assert!(row.len <= 7);
            assert!(row.types[..row.len as usize].iter().all(|&t| t < 5));
            assert!(row.counts().iter().map(|&c| c as u32).sum::<u32>() <= 7);
        }
    }

    #[test]
    fn phases_change_the_mix() {
        // With 1-cycle phases and adversarial mixes, consecutive cycles
        // should not all share a composition.
        let spec = LaneTraceSpec {
            mixes: vec![UnitMix::INT_ONLY, UnitMix::FP_ONLY],
            phase_len: 4,
            queue_len: 7,
            partial_pct: 0,
            cycles: 16,
            seed: 1,
        };
        let rows = spec.generate_lane(0);
        // Cycles 0..4 draw from INT_ONLY (indexes 0/1), 4..8 from FP_ONLY
        // (indexes 3/4).
        assert!(rows[0].types[..7].iter().all(|&t| t <= 1));
        assert!(rows[4].types[..7].iter().all(|&t| t >= 3));
    }
}

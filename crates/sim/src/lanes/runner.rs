//! Batch driver for the lane kernel, mirroring [`BatchRunner`].
//!
//! [`LaneRunner`] owns a [`LaneBatch`] plus the [`LaneStimulus`] it
//! replays (wrapping around when the run is longer than the recorded
//! trace — synthetic-mix traces are built to be replay-safe), and
//! summarizes a run as a [`LaneSummary`] of aggregate lane-cycles, so a
//! benchmark can report lane cycles/sec next to the per-machine floor
//! the scalar driver measures.
//!
//! [`BatchRunner`]: crate::batch::BatchRunner

use super::batch::{LaneBatch, LaneStats};
use super::stimulus::LaneStimulus;
use crate::config::SimConfig;

/// Aggregate result of a lane-kernel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneSummary {
    /// Lanes stepped in lockstep.
    pub lanes: usize,
    /// Kernel steps taken (cycles per lane).
    pub cycles: u64,
    /// Aggregate lane-cycles evaluated (`lanes * cycles`) — the unit
    /// a benchmark divides wall time into.
    pub lane_cycles: u64,
    /// Reconfiguration loads begun, summed over lanes.
    pub loads_started: u64,
    /// Lane-cycles where the selection changed.
    pub selection_changes: u64,
    /// Selections by two-bit choice code, summed over lanes.
    pub selections: [u64; 4],
}

/// Steps a [`LaneBatch`] through a replayed [`LaneStimulus`].
#[derive(Debug)]
pub struct LaneRunner {
    batch: LaneBatch,
    stim: LaneStimulus,
}

impl LaneRunner {
    /// Build a batch for `cfg` sized to the stimulus' lane count. Errors
    /// if the configuration is outside the lane kernel's envelope or the
    /// stimulus geometry (queue length, slot count) does not match it.
    pub fn new(cfg: &SimConfig, stim: LaneStimulus) -> Result<LaneRunner, String> {
        let batch = LaneBatch::new(cfg, stim.lanes())?;
        if stim.queue_len() != batch.params().queue_len() {
            return Err(format!(
                "stimulus queue length {} != configured {}",
                stim.queue_len(),
                batch.params().queue_len()
            ));
        }
        if stim.n_slots() != batch.params().n_slots() {
            return Err(format!(
                "stimulus slot count {} != configured {}",
                stim.n_slots(),
                batch.params().n_slots()
            ));
        }
        Ok(LaneRunner { batch, stim })
    }

    /// Step every lane one cycle, replaying the stimulus cyclically.
    pub fn step(&mut self) {
        let at = (self.batch.cycle() % self.stim.cycles() as u64) as usize;
        self.batch.step(&self.stim, at);
    }

    /// Step `cycles` more cycles and summarize the whole run so far.
    pub fn run(&mut self, cycles: u64) -> LaneSummary {
        for _ in 0..cycles {
            self.step();
        }
        self.summary()
    }

    /// Summary of everything stepped so far.
    pub fn summary(&self) -> LaneSummary {
        let stats: &LaneStats = self.batch.stats();
        LaneSummary {
            lanes: self.batch.lanes(),
            cycles: self.batch.cycle(),
            lane_cycles: self.batch.cycle() * self.batch.lanes() as u64,
            loads_started: stats.loads_started,
            selection_changes: stats.selection_changes,
            selections: stats.selections,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_wraps_stimulus_and_summarizes() {
        let cfg = SimConfig::default();
        let mut stim = LaneStimulus::new(128, 3, cfg.queue_size, cfg.fabric.rfu_slots);
        // A mild integer demand on cycle 1 of the 3-cycle trace.
        for lane in 0..128 {
            stim.set_demand_counts(lane, 1, &rsp_isa::units::TypeCounts::new([2, 1, 0, 0, 0]))
                .unwrap();
        }
        let mut runner = LaneRunner::new(&cfg, stim).expect("runner");
        let sum = runner.run(9); // three full wraps
        assert_eq!(sum.lanes, 128);
        assert_eq!(sum.cycles, 9);
        assert_eq!(sum.lane_cycles, 9 * 128);
        assert_eq!(sum.selections.iter().sum::<u64>(), 9 * 128);
    }

    #[test]
    fn runner_rejects_geometry_mismatch() {
        let cfg = SimConfig::default();
        let stim = LaneStimulus::new(64, 2, 3, cfg.fabric.rfu_slots);
        assert!(LaneRunner::new(&cfg, stim).is_err());
    }
}

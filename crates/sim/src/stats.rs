//! Run statistics and the simulation report.

use rsp_core::loader::LoaderStats;
use rsp_fabric::fabric::FabricStats;
use rsp_fabric::fault::FaultStats;
use rsp_isa::units::{UnitType, NUM_UNIT_TYPES};
use rsp_obs::MetricsSnapshot;
use serde::{Deserialize, Serialize};

/// Cycle-level stall/occupancy accounting. A cycle can contribute to
/// several counters (e.g. queue full *and* nothing issued).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallStats {
    /// Cycles where dispatch stalled because the instruction queue
    /// (wake-up array) was full.
    pub queue_full: u64,
    /// Cycles where dispatch stalled because the ROB was full.
    pub rob_full: u64,
    /// Cycles where at least one entry requested execution but received
    /// no grant (its unit type had no idle — or no configured — unit).
    pub starved_requests: u64,
    /// Cycles where the queue was completely empty (front-end starvation
    /// or program drain).
    pub queue_empty: u64,
    /// Cycles with at least one entry whose unit type had **no unit
    /// configured at all** (only possible transiently: the FFUs always
    /// provide one of each type in the default architecture).
    pub unit_unconfigured: u64,
}

/// Retired instructions per unit type. Unlike the 3-bit [`TypeCounts`]
/// lanes of the selection unit, these counters never saturate, so they
/// always sum to [`SimReport::retired`]. Displays like [`TypeCounts`].
///
/// [`TypeCounts`]: rsp_isa::units::TypeCounts
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetiredMix([u64; NUM_UNIT_TYPES]);

impl RetiredMix {
    /// Instructions of type `t` retired.
    #[inline]
    #[cfg(test)]
    pub(crate) fn get(&self, t: UnitType) -> u64 {
        self.0[t.index()]
    }

    /// Count one more retired instruction of type `t`.
    #[inline]
    pub(crate) fn record(&mut self, t: UnitType) {
        self.0[t.index()] += 1;
    }

    /// Retired instructions of every type.
    #[cfg(test)]
    pub(crate) fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

impl std::fmt::Display for RetiredMix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[ALU:{} MDU:{} LSU:{} FPALU:{} FPMDU:{}]",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4]
        )
    }
}

/// The report produced by a completed (or budget-exhausted) run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions retired (architecturally executed).
    pub retired: u64,
    /// True iff the program halted (vs. the cycle budget running out).
    pub halted: bool,
    /// Per-type retired-instruction mix.
    pub retired_mix: RetiredMix,
    /// Instructions issued to FFUs.
    pub issued_ffu: u64,
    /// Instructions issued to RFUs.
    pub issued_rfu: u64,
    /// Branch mispredictions (pipeline flushes).
    pub flushes: u64,
    /// Instructions squashed by flushes.
    pub squashed: u64,
    /// Trace-cache hits / misses (fetch groups).
    pub trace_hits: u64,
    /// Trace-cache misses (fetch groups).
    pub trace_misses: u64,
    /// Stall accounting.
    pub stalls: StallStats,
    /// Select-free scheduling collisions (0 in arbitrated mode).
    pub collisions: u64,
    /// Fabric reconfiguration counters.
    pub fabric: FabricStats,
    /// Fault-injection counters (all-zero when the fault model is off).
    pub faults: FaultStats,
    /// Configuration-loader counters (all-default for policies without a
    /// configuration loader: static and demand-driven runs).
    pub loader: LoaderStats,
    /// Steering policy name.
    pub policy: String,
    /// Demand-driven policy loads (demand policy only).
    pub policy_loads: u64,
    /// Telemetry metrics snapshot (empty when telemetry was disabled).
    pub metrics: MetricsSnapshot,
}

impl SimReport {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Fraction of issues that went to reconfigurable units.
    pub fn rfu_issue_fraction(&self) -> f64 {
        let total = self.issued_ffu + self.issued_rfu;
        if total == 0 {
            0.0
        } else {
            self.issued_rfu as f64 / total as f64
        }
    }

    /// Trace-cache hit rate over fetch groups.
    pub fn trace_hit_rate(&self) -> f64 {
        let total = self.trace_hits + self.trace_misses;
        if total == 0 {
            0.0
        } else {
            self.trace_hits as f64 / total as f64
        }
    }

    /// One-line summary for experiment tables.
    pub fn summary(&self) -> String {
        format!(
            "{:<28} cycles={:<8} retired={:<8} IPC={:.3} reconfigs={:<4} flushes={}",
            self.policy,
            self.cycles,
            self.retired,
            self.ipc(),
            self.fabric.loads_started,
            self.flushes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_guard_division_by_zero() {
        let r = SimReport::default();
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.rfu_issue_fraction(), 0.0);
        assert_eq!(r.trace_hit_rate(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let r = SimReport {
            cycles: 100,
            retired: 250,
            issued_ffu: 3,
            issued_rfu: 1,
            trace_hits: 9,
            trace_misses: 1,
            ..SimReport::default()
        };
        assert_eq!(r.ipc(), 2.5);
        assert_eq!(r.rfu_issue_fraction(), 0.25);
        assert_eq!(r.trace_hit_rate(), 0.9);
        assert!(r.summary().contains("IPC=2.500"));
    }

    #[test]
    fn retired_mix_counts_past_a_byte_and_displays_like_type_counts() {
        let mut mix = RetiredMix::default();
        for _ in 0..300 {
            mix.record(UnitType::IntAlu);
        }
        mix.record(UnitType::FpMdu);
        assert_eq!(mix.get(UnitType::IntAlu), 300);
        assert_eq!(mix.total(), 301);
        assert_eq!(mix.to_string(), "[ALU:300 MDU:0 LSU:0 FPALU:0 FPMDU:1]");
        let small = rsp_isa::units::TypeCounts::new([3, 0, 2, 0, 1]);
        let mut same = RetiredMix::default();
        for (t, n) in small.iter() {
            for _ in 0..n {
                same.record(t);
            }
        }
        assert_eq!(same.to_string(), small.to_string());
        assert_eq!(
            serde_json::to_string(&same).unwrap(),
            serde_json::to_string(&small).unwrap(),
            "same JSON shape as the TypeCounts field it replaced"
        );
    }
}

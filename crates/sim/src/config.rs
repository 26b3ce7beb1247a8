//! Simulator configuration.

use rsp_core::cem::CemKind;
use rsp_core::select::TieBreak;
use rsp_fabric::config::SteeringSet;
use rsp_fabric::fabric::FabricParams;
use rsp_isa::LatencyClass;
use serde::{Deserialize, Serialize};

/// Execution latencies per [`LatencyClass`] (cycles ≥ 1). Units are not
/// pipelined: a unit is busy for the whole latency, which is what makes
/// the paper's "do not reconfigure a busy RFU" rule matter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Latencies {
    /// Integer ALU ops, branches, jumps.
    pub int_alu: u32,
    /// Integer multiply.
    pub int_mul: u32,
    /// Integer divide / remainder.
    pub int_div: u32,
    /// Loads.
    pub load: u32,
    /// Stores.
    pub store: u32,
    /// FP add/sub/compare/convert.
    pub fp_alu: u32,
    /// FP multiply.
    pub fp_mul: u32,
    /// FP divide / square root.
    pub fp_div: u32,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            int_alu: 1,
            int_mul: 4,
            int_div: 12,
            load: 2,
            store: 1,
            fp_alu: 3,
            fp_mul: 5,
            fp_div: 16,
        }
    }
}

impl Latencies {
    /// Latency of a class.
    #[inline]
    pub(crate) fn of(&self, class: LatencyClass) -> u32 {
        let l = match class {
            LatencyClass::IntAlu => self.int_alu,
            LatencyClass::IntMul => self.int_mul,
            LatencyClass::IntDiv => self.int_div,
            LatencyClass::Load => self.load,
            LatencyClass::Store => self.store,
            LatencyClass::FpAlu => self.fp_alu,
            LatencyClass::FpMul => self.fp_mul,
            LatencyClass::FpDiv => self.fp_div,
        };
        l.max(1)
    }
}

/// Conditional-branch prediction scheme of the front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BranchPrediction {
    /// Static not-taken (the minimal scheme assumed throughout the
    /// experiments unless stated otherwise). Default.
    #[default]
    NotTaken,
    /// A bimodal table of 2-bit saturating counters indexed by PC,
    /// trained at retirement. Conditional branches have static targets
    /// in this ISA, so a predicted-taken branch redirects at decode with
    /// no extra pipeline cost.
    Bimodal {
        /// Number of counters (power of two recommended).
        entries: usize,
    },
}

/// How resource contention among requesting entries is resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SelectMode {
    /// A precise oldest-first arbiter: losers simply retry next cycle at
    /// no cost (an idealised select stage). Default.
    #[default]
    Arbitrated,
    /// Select-free scheduling after Brown/Stark/Patt: entries fire
    /// without waiting for select; when more entries than units of a
    /// type request, the collision victims are squashed at the unit and
    /// must re-request after `penalty` recovery cycles (the scheduling
    /// replay loop). Models the cost of removing the select logic from
    /// the critical path.
    SelectFree {
        /// Recovery cycles a collision victim pays before re-requesting.
        penalty: u32,
    },
}

/// Which demand signature the steering policy sees each cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DemandMode {
    /// Entries that are ready to execute (deps satisfied, unscheduled) —
    /// the paper §3.1 reading. Default.
    #[default]
    Ready,
    /// All unscheduled entries (paper §3.2 reading).
    Unscheduled,
}

/// Which steering policy drives the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// The paper's selection unit + configuration loader.
    Paper {
        /// Stage-4 tie-break rule (E3 ablation).
        tie: TieBreak,
        /// Stage-3 division implementation (E5 ablation).
        cem: CemKind,
        /// Partial reconfiguration (false = E2 full-reload ablation).
        partial: bool,
        /// Fault-aware selection and loading: effective-capacity
        /// candidate scoring with hysteresis, dead-span re-placement,
        /// zombie force-reloads. Fault-free behaviour is bit-identical,
        /// so old configs (which lack the field) default to `false`.
        #[serde(default)]
        fault_aware: bool,
    },
    /// Never reconfigure; run on `initial_config` forever.
    Static,
    /// Greedy demand-driven steering without predefined configurations
    /// (paper §5 future work; the oracle when reconfiguration latency
    /// is 0).
    DemandDriven,
    /// The paper's mechanism with a shift-based EWMA demand filter
    /// (α = 2^-shift) in front of the selection unit — the churn fix of
    /// experiment E11.
    PaperSmoothed {
        /// Smoothing shift (0 = unfiltered).
        shift: u32,
    },
}

impl PolicyKind {
    /// The paper's default policy.
    pub const PAPER: PolicyKind = PolicyKind::Paper {
        tie: TieBreak::FavorCurrent,
        cem: CemKind::BarrelShifter,
        partial: true,
        fault_aware: false,
    };

    /// The paper's policy with the fault-aware selection/loader paths
    /// enabled (DESIGN.md §11).
    pub const PAPER_FAULT_AWARE: PolicyKind = PolicyKind::Paper {
        tie: TieBreak::FavorCurrent,
        cem: CemKind::BarrelShifter,
        partial: true,
        fault_aware: true,
    };
}

impl Default for PolicyKind {
    fn default() -> Self {
        PolicyKind::PAPER
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Instructions fetched/decoded per cycle.
    pub fetch_width: usize,
    /// Instructions dispatched into the queue per cycle.
    pub dispatch_width: usize,
    /// Instructions retired per cycle.
    pub retire_width: usize,
    /// Instruction queue (wake-up array) depth — the paper's is 7.
    pub queue_size: usize,
    /// Register update unit (reorder buffer) capacity.
    pub rob_size: usize,
    /// Front-end depth in cycles on a trace-cache miss (fetch + decode).
    pub front_latency_miss: u32,
    /// Front-end depth in cycles on a trace-cache hit (pre-decoded).
    pub front_latency_hit: u32,
    /// Trace cache capacity in instruction groups (0 disables it).
    pub trace_cache_groups: usize,
    /// Execution latencies.
    pub latencies: Latencies,
    /// Fabric geometry and reconfiguration parameters.
    pub fabric: FabricParams,
    /// Predefined steering configurations + FFU inventory.
    pub steering_set: SteeringSet,
    /// Steering policy.
    pub policy: PolicyKind,
    /// Index into `steering_set.predefined` preloaded at reset
    /// (`None` = empty fabric). Static policies should set this.
    pub initial_config: Option<usize>,
    /// Demand signature mode for the policy.
    pub demand_mode: DemandMode,
    /// Contention-resolution model for the scheduler.
    pub select_mode: SelectMode,
    /// Conditional-branch prediction scheme.
    pub branch_prediction: BranchPrediction,
    /// Data memory size in 64-bit words.
    pub data_mem_words: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            fetch_width: 4,
            dispatch_width: 4,
            retire_width: 4,
            queue_size: rsp_sched::PAPER_QUEUE_SIZE,
            rob_size: 32,
            front_latency_miss: 2,
            front_latency_hit: 1,
            trace_cache_groups: 256,
            latencies: Latencies::default(),
            fabric: FabricParams::default(),
            steering_set: SteeringSet::paper_default(),
            policy: PolicyKind::PAPER,
            initial_config: Some(0),
            demand_mode: DemandMode::Ready,
            select_mode: SelectMode::Arbitrated,
            branch_prediction: BranchPrediction::NotTaken,
            data_mem_words: 4096,
        }
    }
}

impl SimConfig {
    /// Sanity-check the configuration. Called by the processor at
    /// construction.
    pub fn validate(&self) -> Result<(), String> {
        if self.fetch_width == 0 || self.dispatch_width == 0 || self.retire_width == 0 {
            return Err("widths must be at least 1".into());
        }
        if self.queue_size == 0 || self.queue_size > 64 {
            return Err("queue size must be 1..=64".into());
        }
        if self.rob_size < self.queue_size {
            return Err("ROB must be at least as large as the queue".into());
        }
        if self.front_latency_hit == 0 || self.front_latency_miss < self.front_latency_hit {
            return Err("front-end latencies must satisfy 1 <= hit <= miss".into());
        }
        if let Some(i) = self.initial_config {
            if i >= self.steering_set.predefined.len() {
                return Err(format!("initial_config {i} out of range"));
            }
        }
        if self.steering_set.rfu_slots != self.fabric.rfu_slots {
            return Err("steering set and fabric disagree on RFU slot count".into());
        }
        if self.data_mem_words == 0 {
            return Err("data memory must be non-empty".into());
        }
        self.fabric
            .faults
            .validate(self.fabric.rfu_slots)
            .map_err(|e| format!("fault model: {e}"))?;
        Ok(())
    }

    /// A configuration for a static baseline pinned to predefined config
    /// `i`.
    pub fn static_on(i: usize) -> SimConfig {
        SimConfig {
            policy: PolicyKind::Static,
            initial_config: Some(i),
            ..SimConfig::default()
        }
    }

    /// The oracle configuration: demand-driven steering on a
    /// zero-latency, many-port fabric.
    pub fn oracle() -> SimConfig {
        SimConfig {
            policy: PolicyKind::DemandDriven,
            initial_config: None,
            fabric: FabricParams {
                per_slot_load_latency: 0,
                reconfig_ports: 8,
                ..FabricParams::default()
            },
            ..SimConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        SimConfig::default().validate().unwrap();
        SimConfig::static_on(2).validate().unwrap();
        SimConfig::oracle().validate().unwrap();
    }

    #[test]
    fn latency_lookup_clamps_to_one() {
        let l = Latencies {
            store: 0,
            ..Latencies::default()
        };
        assert_eq!(l.of(LatencyClass::Store), 1);
        assert_eq!(l.of(LatencyClass::FpDiv), 16);
        assert_eq!(l.of(LatencyClass::IntAlu), 1);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let bad = SimConfig {
            queue_size: 0,
            ..SimConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = SimConfig {
            rob_size: 3,
            ..SimConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = SimConfig {
            initial_config: Some(9),
            ..SimConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = SimConfig {
            front_latency_miss: 1,
            front_latency_hit: 2,
            ..SimConfig::default()
        };
        assert!(bad.validate().is_err());
        let mut bad = SimConfig::default();
        bad.fabric.rfu_slots = 4;
        assert!(bad.validate().is_err());
        let mut bad = SimConfig::default();
        bad.fabric.faults.upset_ppm = 2_000_000;
        assert!(bad.validate().is_err());
        let mut bad = SimConfig::default();
        bad.fabric.faults.dead_slots = vec![8];
        assert!(bad.validate().is_err());
        let mut ok = SimConfig::default();
        ok.fabric.faults.upset_ppm = 500;
        ok.fabric.faults.scrub_interval = 100;
        ok.fabric.faults.dead_slots = vec![7];
        ok.validate().unwrap();
    }

    #[test]
    fn config_serializes() {
        let c = SimConfig::default();
        let j = serde_json::to_string(&c).unwrap();
        let d: SimConfig = serde_json::from_str(&j).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn paper_policy_json_without_fault_aware_field_parses() {
        // Configs written before the fault-aware field existed must keep
        // deserialising (and mean fault_aware = false).
        let j = r#"{"Paper":{"tie":"FavorCurrent","cem":"BarrelShifter","partial":true}}"#;
        let p: PolicyKind = serde_json::from_str(j).unwrap();
        assert_eq!(p, PolicyKind::PAPER);
        let j = serde_json::to_string(&PolicyKind::PAPER_FAULT_AWARE).unwrap();
        let d: PolicyKind = serde_json::from_str(&j).unwrap();
        assert_eq!(d, PolicyKind::PAPER_FAULT_AWARE);
        assert_ne!(PolicyKind::PAPER, PolicyKind::PAPER_FAULT_AWARE);
    }
}

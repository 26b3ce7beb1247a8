//! Steering trace recording: per-cycle observability of demand, fabric
//! contents, and reconfiguration activity, serialisable to JSON for
//! offline analysis/plotting.

use crate::processor::Machine;
use rsp_isa::units::TypeCounts;
use serde::{Deserialize, Serialize};

/// One sampled cycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSample {
    /// Cycle number at sampling time.
    pub cycle: u64,
    /// Demand signature the steering policy observes.
    pub demand: TypeCounts,
    /// Units of each type configured in the RFU fabric.
    pub rfu_counts: TypeCounts,
    /// **Effective** availability: configured units (FFUs + RFUs) minus
    /// zombies corrupted by undetected upsets — the capacity the
    /// fault-aware selection unit scores against. Defaults to zero when
    /// absent so traces recorded before this field existed still parse.
    #[serde(default)]
    pub effective_counts: TypeCounts,
    /// Raw 3-bit slot encodings of the allocation vector.
    pub alloc: Vec<u8>,
    /// Reconfigurations in flight.
    pub loads_in_flight: usize,
    /// Occupied wake-up entries.
    pub queue_len: usize,
    /// In-flight (dispatched, unretired) instructions.
    pub in_flight: usize,
    /// Instructions retired so far.
    pub retired: u64,
    /// Configured units currently corrupted by undetected upsets.
    pub corrupted_units: usize,
    /// Slots marked permanently dead by the fault model.
    pub dead_slots: usize,
    /// Cumulative scrub passes performed so far.
    pub scrubs: u64,
}

/// A recorded steering trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SteeringTrace {
    /// Samples in cycle order.
    pub samples: Vec<TraceSample>,
}

impl SteeringTrace {
    /// Empty trace.
    pub fn new() -> SteeringTrace {
        SteeringTrace::default()
    }

    /// Sample the machine's current state.
    pub(crate) fn record(&mut self, m: &Machine) {
        self.samples.push(TraceSample {
            cycle: m.cycle(),
            demand: m.current_demand(),
            rfu_counts: m.fabric().rfu_counts(),
            effective_counts: m.fabric().effective_counts(),
            alloc: m.fabric().alloc().encodings().iter().map(|e| e.0).collect(),
            loads_in_flight: m.fabric().loads_in_flight(),
            queue_len: m.wakeup().len(),
            in_flight: m.in_flight(),
            retired: m.retired(),
            corrupted_units: m.fabric().corrupted_units(),
            dead_slots: m.fabric().dead_slot_count(),
            scrubs: m.fabric().fault_stats().scrubs,
        });
    }

    /// Drive `m` to completion (or `max_cycles`), sampling every
    /// `interval` cycles. Returns the final report.
    // The lint's suggestion (`u64::is_multiple_of`) needs Rust 1.87; the
    // workspace MSRV is 1.82. `allow` instead of `expect`: older clippy
    // doesn't know this lint and would flag an unfulfilled expectation.
    #[allow(unknown_lints, clippy::manual_is_multiple_of)]
    pub fn drive(
        &mut self,
        m: &mut Machine,
        interval: u64,
        max_cycles: u64,
    ) -> crate::stats::SimReport {
        let interval = interval.max(1);
        self.record(m);
        while m.cycle() < max_cycles && m.step() {
            if m.cycle() % interval == 0 {
                self.record(m);
            }
        }
        // Final sample — unless the loop's periodic sample already
        // covered this cycle (final cycle a multiple of `interval`),
        // which would duplicate it.
        if self.samples.last().map(|s| s.cycle) != Some(m.cycle()) {
            self.record(m);
        }
        m.report()
    }

    /// Serialise to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace serialises")
    }

    /// ASCII timeline: one row per unit type showing the *configured* RFU
    /// count (digits) at each sample, and one showing observed demand —
    /// a terminal-friendly view of steering following the workload.
    pub fn render_timeline(&self) -> String {
        use rsp_isa::units::UnitType;
        use std::fmt::Write;
        let mut s = String::new();
        if self.samples.is_empty() {
            return s;
        }
        let digit = |v: u8| char::from_digit(v.min(9) as u32, 10).unwrap();
        let _ = writeln!(
            s,
            "timeline: {} samples, cycles {}..{}",
            self.samples.len(),
            self.samples.first().unwrap().cycle,
            self.samples.last().unwrap().cycle
        );
        let _ = writeln!(s, "configured RFU units per type (one digit per sample):");
        for &t in &UnitType::ALL {
            let _ = write!(s, "  {:<8} |", t.to_string());
            for smp in &self.samples {
                s.push(digit(smp.rfu_counts.get(t)));
            }
            let _ = writeln!(s, "|");
        }
        let _ = writeln!(s, "observed demand per type:");
        for &t in &UnitType::ALL {
            let _ = write!(s, "  {:<8} |", t.to_string());
            for smp in &self.samples {
                s.push(digit(smp.demand.get(t)));
            }
            let _ = writeln!(s, "|");
        }
        let _ = write!(s, "  {:<8} |", "loads");
        for smp in &self.samples {
            s.push(if smp.loads_in_flight > 0 { '*' } else { '.' });
        }
        let _ = writeln!(s, "|");
        // Fault visibility: corrupted (zombie) units and dead slots per
        // sample. Omitted entirely for clean runs to keep the common
        // fault-free view unchanged.
        if self.samples.iter().any(|p| p.corrupted_units > 0) {
            let _ = write!(s, "  {:<8} |", "corrupt");
            for smp in &self.samples {
                s.push(digit(smp.corrupted_units.min(9) as u8));
            }
            let _ = writeln!(s, "|");
            // Effective (post-fault) capacity over time: total configured
            // units minus zombies — the dips line up with the corrupt row
            // and show how much capacity the steering can actually use.
            let _ = write!(s, "  {:<8} |", "effcap");
            for smp in &self.samples {
                s.push(digit(smp.effective_counts.total().min(9) as u8));
            }
            let _ = writeln!(s, "|");
        }
        if self.samples.iter().any(|p| p.dead_slots > 0) {
            let _ = write!(s, "  {:<8} |", "dead");
            for smp in &self.samples {
                s.push(digit(smp.dead_slots.min(9) as u8));
            }
            let _ = writeln!(s, "|");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Processor, SimConfig};
    use rsp_isa::asm::assemble;

    #[test]
    fn trace_records_and_serialises() {
        let p = assemble(
            "t",
            "addi r1, r0, 20\nloop: mul r2, r1, r1\naddi r1, r1, -1\nbne r1, r0, loop\nhalt",
        )
        .unwrap();
        let proc = Processor::new(SimConfig::default());
        let mut m = proc.start(&p).unwrap();
        let mut trace = SteeringTrace::new();
        let report = trace.drive(&mut m, 5, 100_000);
        assert!(report.halted);
        assert!(trace.samples.len() > 3);
        // Samples are in nondecreasing cycle order and retired counts
        // are monotone.
        assert!(trace.samples.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        assert!(trace
            .samples
            .windows(2)
            .all(|w| w[0].retired <= w[1].retired));
        let json = trace.to_json();
        let back: SteeringTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
    }

    /// Regression: when the run ends on a cycle that is a multiple of
    /// `interval`, the unconditional post-loop record used to push a
    /// second, identical sample for that cycle.
    #[test]
    fn no_duplicate_trailing_sample() {
        let p = assemble(
            "t",
            "addi r1, r0, 30\nloop: mul r2, r1, r1\naddi r1, r1, -1\nbne r1, r0, loop\nhalt",
        )
        .unwrap();
        // interval 1 makes the final cycle always a sampling cycle.
        let proc = Processor::new(SimConfig::default());
        let mut m = proc.start(&p).unwrap();
        let mut trace = SteeringTrace::new();
        trace.drive(&mut m, 1, 100_000);
        assert!(
            trace.samples.windows(2).all(|w| w[0].cycle < w[1].cycle),
            "cycle numbers must be strictly increasing"
        );
        // Budget-exhaustion path: cut the run at a multiple of the
        // interval so the last step lands exactly on a sampling cycle.
        let proc = Processor::new(SimConfig::default());
        let mut m = proc.start(&p).unwrap();
        let mut trace = SteeringTrace::new();
        trace.drive(&mut m, 5, 20);
        assert!(trace.samples.windows(2).all(|w| w[0].cycle < w[1].cycle));
        assert_eq!(trace.samples.last().unwrap().cycle, 20);
        // A final cycle off the sampling grid still gets its sample.
        let proc = Processor::new(SimConfig::default());
        let mut m = proc.start(&p).unwrap();
        let mut trace = SteeringTrace::new();
        trace.drive(&mut m, 7, 23);
        assert_eq!(trace.samples.last().unwrap().cycle, 23);
        assert!(trace.samples.windows(2).all(|w| w[0].cycle < w[1].cycle));
    }

    #[test]
    fn effective_counts_default_for_old_traces() {
        // Samples recorded before the effective_counts field existed
        // must keep parsing (and read as zero effective capacity).
        let json = r#"{"cycle":1,"demand":[0,0,0,0,0],"rfu_counts":[1,0,0,0,0],
            "alloc":[0,0,0,0,0,0,0,0],"loads_in_flight":0,"queue_len":0,
            "in_flight":0,"retired":0,"corrupted_units":0,"dead_slots":0,"scrubs":0}"#;
        let s: TraceSample = serde_json::from_str(json).unwrap();
        assert_eq!(s.effective_counts, TypeCounts::ZERO);
    }

    #[test]
    fn effective_capacity_row_appears_under_faults() {
        use crate::PolicyKind;
        let p = assemble(
            "t",
            "addi r1, r0, 120\nloop: mul r2, r1, r1\naddi r1, r1, -1\nbne r1, r0, loop\nhalt",
        )
        .unwrap();
        let mut cfg = SimConfig {
            policy: PolicyKind::PAPER_FAULT_AWARE,
            ..SimConfig::default()
        };
        cfg.fabric.faults.seed = 3;
        cfg.fabric.faults.upset_ppm = 100_000;
        cfg.fabric.faults.scrub_interval = 64;
        let proc = Processor::new(cfg);
        let mut m = proc.start(&p).unwrap();
        let mut trace = SteeringTrace::new();
        trace.drive(&mut m, 1, 5_000);
        assert!(
            trace.samples.iter().any(|s| s.corrupted_units > 0),
            "the upset rate must corrupt at least one sampled cycle"
        );
        // Effective capacity dips whenever zombies are live.
        let max_eff = trace
            .samples
            .iter()
            .map(|s| s.effective_counts.total())
            .max()
            .unwrap();
        assert!(trace
            .samples
            .iter()
            .any(|s| s.effective_counts.total() < max_eff));
        let tl = trace.render_timeline();
        assert!(tl.contains("effcap"), "missing effcap row in:\n{tl}");
        assert!(tl.contains("corrupt"), "missing corrupt row in:\n{tl}");
    }

    #[test]
    fn timeline_renders_rows_per_type() {
        let p = assemble("t", "addi r1, r0, 3\nmul r2, r1, r1\nhalt").unwrap();
        let proc = Processor::new(SimConfig::default());
        let mut m = proc.start(&p).unwrap();
        let mut trace = SteeringTrace::new();
        trace.drive(&mut m, 1, 1000);
        let tl = trace.render_timeline();
        for label in ["Int-ALU", "FP-MDU", "loads", "timeline:"] {
            assert!(tl.contains(label), "missing {label} in:\n{tl}");
        }
        assert!(SteeringTrace::new().render_timeline().is_empty());
    }
}

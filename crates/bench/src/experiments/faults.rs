//! Fault sweep: IPC degradation under configuration-memory upsets as a
//! function of upset rate × scrub interval (DESIGN.md §9).
//!
//! The paper assumes a perfect fabric; this experiment quantifies what
//! its steering mechanism loses when the fabric is not perfect. Upsets
//! knock configured RFUs out as zombies (present in the allocation
//! vector, ungrantable at issue) until a scrub pass detects them and the
//! loader reloads the span — so IPC should degrade gracefully toward the
//! FFU-only floor as the upset rate rises, and faster scrubbing should
//! claw IPC back. Every run is still differentially correct: only timing
//! moves.
//!
//! Every point is run twice: under the baseline policy and with the
//! fault-aware selection unit (DESIGN.md §11), which force-reloads
//! zombie spans and re-ranks against effective capacity. The fault
//! schedule is open-loop (a pure function of seed × cycle × slot), so
//! the two runs of a point face identical strikes and the comparison is
//! paired. The sweep asserts that at every swept upset rate fault-aware
//! IPC is at least the degraded (never-scrubbed) baseline's, strictly
//! above it at the highest swept rate, and that zero-fault runs are
//! bit-identical.
//!
//! The grid runs on the sweep engine (DESIGN.md §12): each
//! `(workload, upset rate, scrub interval)` point is keyed by those
//! parameters alone, and — because the fault schedule is open-loop —
//! each row is a pure function of its key, so the sweep shards, caches
//! and merges to a byte-identical `BENCH_fault_sweep.json`. The
//! cross-point assertions above re-run on every merged set.

use std::fmt::Write;

use rsp_fabric::fault::FaultParams;
use rsp_isa::Program;
use rsp_sim::{PolicyKind, SimConfig, SimReport};
use rsp_workloads::{kernels, PhasedSpec};
use serde::{Deserialize, Serialize};

use crate::harness::{pivot_rows, run_one};
use crate::sweep::Sweep;

/// Upset rates swept (per-cycle strike probability, ppm). The top rate
/// stays in the regime where reloading a zombie pays for its load
/// latency; far beyond it (~10% per cycle) a reloaded unit is struck
/// again before it earns its keep and *no* recovery policy helps.
const UPSET_PPM: [u32; 4] = [0, 500, 2_000, 20_000];
/// Scrub intervals swept (cycles between readback passes; 0 = never).
const SCRUB_INTERVALS: [u64; 4] = [0, 256, 64, 16];
/// Load-failure rate applied across the whole sweep so retry/backoff is
/// exercised too (10% of reloads fail readback).
const LOAD_FAILURE_PPM: u32 = 100_000;

/// One sweep point, serialised into `BENCH_fault_sweep.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultRow {
    /// Workload label.
    pub workload: String,
    /// Per-cycle upset probability (ppm).
    pub upset_ppm: u32,
    /// Cycles between scrub passes (0 = never).
    pub scrub_interval: u64,
    /// Retired instructions per cycle (degraded baseline policy).
    pub ipc: f64,
    /// Retired instructions per cycle with fault-aware steering.
    pub ipc_fault_aware: f64,
    /// Total simulated cycles (baseline).
    pub cycles: u64,
    /// Total simulated cycles (fault-aware).
    pub cycles_fault_aware: u64,
    /// Upsets that corrupted a span (baseline run).
    pub upsets_injected: u64,
    /// Corrupted spans detected by scrub (baseline run).
    pub upsets_detected: u64,
    /// Scrub passes performed (baseline run).
    pub scrubs: u64,
    /// Loads that failed readback (baseline run).
    pub load_failures: u64,
    /// Loads restarted after a failure (baseline run).
    pub retries: u64,
    /// Zombie spans force-reloaded by the fault-aware loader.
    pub zombie_reloads: u64,
    /// Dead-span re-placements by the fault-aware loader.
    pub replacements: u64,
}

impl FaultRow {
    fn new(workload: &str, faults: &FaultParams, base: &SimReport, aware: &SimReport) -> FaultRow {
        FaultRow {
            workload: workload.into(),
            upset_ppm: faults.upset_ppm,
            scrub_interval: faults.scrub_interval,
            ipc: base.ipc(),
            ipc_fault_aware: aware.ipc(),
            cycles: base.cycles,
            cycles_fault_aware: aware.cycles,
            upsets_injected: base.faults.upsets_injected,
            upsets_detected: base.faults.upsets_detected,
            scrubs: base.faults.scrubs,
            load_failures: base.faults.load_failures,
            retries: base.loader.retries,
            zombie_reloads: aware.loader.zombie_reloads,
            replacements: aware.loader.replacements,
        }
    }
}

fn sweep_workloads() -> Vec<Program> {
    // Both are capacity-sensitive: the phased workload steers across
    // int/fp/mem phases, and memcpy is LSU-throughput-bound — losing a
    // configured LSU to a zombie costs cycles every iteration.
    vec![
        PhasedSpec::int_fp_mem(400, 2, 7).generate(),
        kernels::memcpy(96),
    ]
}

fn faulty_config(upset_ppm: u32, scrub_interval: u64) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.fabric.faults = FaultParams {
        seed: 0xF0A17,
        load_failure_ppm: LOAD_FAILURE_PPM,
        upset_ppm,
        scrub_interval,
        dead_slots: vec![],
    };
    cfg
}

/// The same sweep point with the fault-aware selection unit switched on.
fn fault_aware_config(upset_ppm: u32, scrub_interval: u64) -> SimConfig {
    let mut cfg = faulty_config(upset_ppm, scrub_interval);
    cfg.policy = PolicyKind::PAPER_FAULT_AWARE;
    cfg
}

/// One point of the fault sweep's grid, identified entirely by its
/// parameters (the point key is derived from nothing else).
#[derive(Debug, Clone)]
pub struct FaultPoint {
    /// Workload name (programs are regenerated deterministically).
    pub workload: String,
    /// Per-cycle upset probability (ppm).
    pub upset_ppm: u32,
    /// Cycles between scrub passes (0 = never).
    pub scrub_interval: u64,
}

/// The paired baseline/fault-aware sweep over
/// workload × upset rate × scrub interval, as a [`Sweep`].
pub struct FaultSweep {
    /// The store name: each grid has its own, so the full and reduced
    /// grids (both with a "memcpy" workload) never share a store entry.
    name: &'static str,
    programs: Vec<Program>,
    upset_ppm: Vec<u32>,
    scrub_intervals: Vec<u64>,
    /// Enforce the policy-dominance assertions (the full grid's
    /// workloads are sized so they hold; reduced test grids check only
    /// the unconditional zero-fault pairing).
    strict: bool,
}

impl FaultSweep {
    /// The full CI grid (DESIGN.md §9/§11 assertions enforced).
    pub(crate) fn full() -> FaultSweep {
        FaultSweep {
            name: "fault_sweep",
            programs: sweep_workloads(),
            upset_ppm: UPSET_PPM.to_vec(),
            scrub_intervals: SCRUB_INTERVALS.to_vec(),
            strict: true,
        }
    }

    /// A reduced grid for engine tests: tiny workloads, a 2×2 fault
    /// grid, dominance assertions off (they are a claim about the full
    /// grid's workload sizes, not about the engine).
    pub fn reduced() -> FaultSweep {
        FaultSweep {
            name: "fault_sweep_reduced",
            programs: vec![
                PhasedSpec::int_fp_mem(60, 1, 7).generate(),
                kernels::memcpy(16),
            ],
            upset_ppm: vec![0, 20_000],
            scrub_intervals: vec![0, 16],
            strict: false,
        }
    }

    fn program(&self, name: &str) -> &Program {
        self.programs
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("unknown sweep workload {name:?}"))
    }
}

impl Sweep for FaultSweep {
    type Point = FaultPoint;
    type Row = FaultRow;

    fn name(&self) -> &'static str {
        self.name
    }

    fn points(&self) -> Vec<FaultPoint> {
        let mut out = Vec::new();
        for p in &self.programs {
            for &u in &self.upset_ppm {
                for &s in &self.scrub_intervals {
                    out.push(FaultPoint {
                        workload: p.name.clone(),
                        upset_ppm: u,
                        scrub_interval: s,
                    });
                }
            }
        }
        out
    }

    fn key(&self, point: &FaultPoint) -> String {
        format!(
            "{}/u{}/s{}",
            point.workload, point.upset_ppm, point.scrub_interval
        )
    }

    fn run_point(&self, point: &FaultPoint) -> FaultRow {
        let p = self.program(&point.workload);
        let cfg = faulty_config(point.upset_ppm, point.scrub_interval);
        let faults = cfg.fabric.faults.clone();
        let base = run_one(cfg, p);
        let aware = run_one(fault_aware_config(point.upset_ppm, point.scrub_interval), p);
        FaultRow::new(&p.name, &faults, &base, &aware)
    }

    fn verify(&self, rows: &[FaultRow]) -> Result<(), String> {
        // Sweep-level guarantees (CI runs this experiment as an
        // assertion job, and the merge step re-runs it on every merged
        // set). The *degraded baseline* is the baseline policy with
        // scrub off: zombies accumulate with no mitigation at all —
        // exactly the loss the fault-aware selection unit exists to
        // recover. At every swept upset rate the fault-aware run must be
        // at least as fast as that baseline, strictly faster at the
        // highest rate, and with zero upsets every run must be
        // bit-identical to its baseline.
        let top_rate = *self.upset_ppm.last().unwrap();
        for r in rows {
            if r.upset_ppm == 0 && r.cycles != r.cycles_fault_aware {
                return Err(format!(
                    "zero-fault runs must be bit-identical at {} s{}: {} != {}",
                    r.workload, r.scrub_interval, r.cycles, r.cycles_fault_aware
                ));
            }
            if !self.strict || r.scrub_interval != 0 {
                continue;
            }
            if r.ipc_fault_aware < r.ipc {
                return Err(format!(
                    "fault-aware IPC below the degraded baseline at {} u{}: {} < {}",
                    r.workload, r.upset_ppm, r.ipc_fault_aware, r.ipc
                ));
            }
            if r.upset_ppm == top_rate && r.ipc_fault_aware <= r.ipc {
                return Err(format!(
                    "fault-aware IPC must strictly beat the degraded baseline at {} u{}: {} <= {}",
                    r.workload, r.upset_ppm, r.ipc_fault_aware, r.ipc
                ));
            }
        }
        Ok(())
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("BENCH_fault_sweep.json")
    }

    fn report(&self, rows: &[FaultRow]) -> String {
        let mut s = String::from("# fault-sweep — IPC vs upset rate × scrub interval\n\n");
        let _ = writeln!(
            s,
            "load_failure_ppm={LOAD_FAILURE_PPM} everywhere; an upset strikes a uniform slot and"
        );
        let _ = writeln!(
            s,
            "corrupts the idle unit spanning it (open-loop schedule, paired across policies);"
        );
        let _ = writeln!(
            s,
            "scrub interval 0 = never scrub (corrupted spans stay zombies).\n"
        );
        // Per workload, two pivots over the same grid: rows = upset
        // rates, columns = scrub intervals, cells = IPC under each
        // policy.
        let rate_labels: Vec<String> = self.upset_ppm.iter().map(|u| format!("u{u}")).collect();
        let scrub_labels: Vec<String> = self
            .scrub_intervals
            .iter()
            .map(|sc| format!("s{sc}"))
            .collect();
        for p in &self.programs {
            let grid_match = |r: &FaultRow, rate: &str, scrub: &str| {
                r.workload == p.name
                    && format!("u{}", r.upset_ppm) == rate
                    && format!("s{}", r.scrub_interval) == scrub
            };
            s.push_str(&pivot_rows(
                &format!("IPC (baseline) — {}", p.name),
                rows,
                &rate_labels,
                &scrub_labels,
                grid_match,
                |r| format!("{:.3}", r.ipc),
            ));
            s.push('\n');
            s.push_str(&pivot_rows(
                &format!("IPC (fault-aware) — {}", p.name),
                rows,
                &rate_labels,
                &scrub_labels,
                grid_match,
                |r| format!("{:.3}", r.ipc_fault_aware),
            ));
            s.push('\n');
        }

        // Headline check: for each workload, the clean point is the
        // fastest, the worst faulty point is the slowest, and
        // fault-aware steering claws back capacity the unscrubbed
        // baseline has lost for good.
        let top_rate = *self.upset_ppm.last().unwrap();
        let fast_scrub = *self.scrub_intervals.last().unwrap();
        for p in &self.programs {
            let of = |u: u32, sc: u64| {
                rows.iter()
                    .find(|r| r.workload == p.name && r.upset_ppm == u && r.scrub_interval == sc)
                    .unwrap()
            };
            let clean = of(0, 0).ipc;
            let worst = of(top_rate, 0);
            let scrubbed = of(top_rate, fast_scrub).ipc;
            let _ = writeln!(
                s,
                "{:<20} clean={clean:.3}  worst(no-scrub)={:.3}  worst(scrub@{})={scrubbed:.3}  \
                 worst(fault-aware)={:.3} ({} zombie reloads)",
                p.name, worst.ipc, fast_scrub, worst.ipc_fault_aware, worst.zombie_reloads,
            );
        }

        // Per upset level (in grid order), over every workload and scrub
        // interval: mean IPC under each policy and their ratio.
        let mut levels: Vec<(u32, Vec<&FaultRow>)> = Vec::new();
        for r in rows {
            match levels.iter_mut().find(|(u, _)| *u == r.upset_ppm) {
                Some((_, group)) => group.push(r),
                None => levels.push((r.upset_ppm, vec![r])),
            }
        }
        s.push_str("\nmean IPC per upset level (fault-aware / degraded baseline)\n");
        let _ = writeln!(
            s,
            "{:>10} {:>5} {:>10} {:>12} {:>10}",
            "upset_ppm", "rows", "mean_ipc", "fault_aware", "recovery"
        );
        let mut harshest: Option<(u32, f64)> = None;
        for (ppm, group) in &levels {
            let n = group.len() as f64;
            let ipc = group.iter().map(|r| r.ipc).sum::<f64>() / n;
            let aware = group.iter().map(|r| r.ipc_fault_aware).sum::<f64>() / n;
            let ratio = if ipc > 0.0 { aware / ipc } else { 0.0 };
            let _ = writeln!(
                s,
                "{ppm:>10} {:>5} {ipc:>10.4} {aware:>12.4} {ratio:>9.2}x",
                group.len()
            );
            if harshest.is_none_or(|(p, _)| *ppm > p) {
                harshest = Some((*ppm, ratio));
            }
        }
        if let Some((ppm, ratio)) = harshest {
            let _ = writeln!(
                s,
                "at the harshest upset level ({ppm} ppm) fault-aware steering \
                 holds {ratio:.2}x the degraded baseline's IPC"
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{ScratchDir, SweepConfig, SweepRunner};

    #[test]
    fn sweep_point_degrades_and_recovers() {
        // One workload, three points: clean, heavy-upsets-no-scrub,
        // heavy-upsets-fast-scrub. Checks the experiment's core claim
        // without running the full grid. memcpy is LSU-throughput-bound,
        // so zombie LSUs genuinely cost cycles (on dependency-bound
        // kernels the capacity loss can vanish into the latency chain).
        let p = kernels::memcpy(96);
        let u = *UPSET_PPM.last().unwrap();
        let clean = run_one(faulty_config(0, 0), &p);
        let zombie = run_one(faulty_config(u, 0), &p);
        let scrubbed = run_one(faulty_config(u, 16), &p);
        assert!(clean.halted && zombie.halted && scrubbed.halted);
        assert_eq!(clean.retired, zombie.retired);
        assert_eq!(clean.retired, scrubbed.retired);
        assert!(zombie.faults.upsets_injected > 0);
        assert!(scrubbed.faults.upsets_detected > 0);
        assert!(
            zombie.cycles > clean.cycles,
            "unmitigated zombies must cost cycles: {} <= {}",
            zombie.cycles,
            clean.cycles
        );
        assert!(
            scrubbed.cycles < zombie.cycles,
            "fast scrubbing must claw some IPC back: {} >= {}",
            scrubbed.cycles,
            zombie.cycles
        );
    }

    #[test]
    fn fault_rows_serialise() {
        let p = kernels::memcpy(8);
        let cfg = faulty_config(20_000, 64);
        let faults = cfg.fabric.faults.clone();
        let r = run_one(cfg, &p);
        let aware = run_one(fault_aware_config(20_000, 64), &p);
        let row = FaultRow::new(&p.name, &faults, &r, &aware);
        let j = serde_json::to_string(&row).unwrap();
        assert!(j.contains("\"upset_ppm\":20000"));
        assert!(j.contains("\"ipc_fault_aware\":"));
        assert!(j.contains("\"zombie_reloads\":"));
        let back: FaultRow = serde_json::from_str(&j).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), j);
    }

    #[test]
    fn fault_aware_beats_unscrubbed_baseline_and_matches_clean() {
        // The acceptance claim on a single workload: at the highest swept
        // upset rate with scrubbing off, fault-aware steering strictly
        // beats the degraded baseline (zombies are reloaded instead of
        // rotting), and with zero faults the two runs are bit-identical.
        let p = kernels::memcpy(96);
        let u = *UPSET_PPM.last().unwrap();
        let base = run_one(faulty_config(u, 0), &p);
        let aware = run_one(fault_aware_config(u, 0), &p);
        assert!(base.halted && aware.halted);
        assert_eq!(base.retired, aware.retired);
        assert!(aware.loader.zombie_reloads > 0, "no zombies reloaded");
        assert!(
            aware.cycles < base.cycles,
            "fault-aware must strictly beat the unscrubbed baseline: {} >= {}",
            aware.cycles,
            base.cycles
        );
        let clean_base = run_one(faulty_config(0, 0), &p);
        let clean_aware = run_one(fault_aware_config(0, 0), &p);
        assert_eq!(clean_base.cycles, clean_aware.cycles);
        assert_eq!(clean_base.retired, clean_aware.retired);
        assert_eq!(clean_aware.loader.zombie_reloads, 0);
        assert_eq!(clean_aware.loader.replacements, 0);
    }

    #[test]
    fn point_keys_are_parameter_derived_and_order_free() {
        let sweep = FaultSweep::full();
        let points = sweep.points();
        assert_eq!(points.len(), 2 * 4 * 4);
        // Keys never mention position: permuting the grid leaves every
        // key unchanged.
        let keys: Vec<String> = points.iter().map(|p| sweep.key(p)).collect();
        let mut reversed: Vec<String> = points.iter().rev().map(|p| sweep.key(p)).collect();
        reversed.reverse();
        assert_eq!(keys, reversed);
        assert!(keys.contains(&"memcpy/u20000/s16".to_string()), "{keys:?}");
    }

    #[test]
    fn reduced_sweep_runs_and_verifies_on_the_engine() {
        let sweep = FaultSweep::reduced();
        let dir = ScratchDir::new("fault-reduced");
        let cfg = SweepConfig {
            out_dir: dir.to_path_buf(),
            ..SweepConfig::default()
        };
        let summary = sweep.run_and_merge(&cfg).expect("reduced sweep runs");
        assert_eq!(summary.points, 2 * 2 * 2);
        let text = std::fs::read_to_string(summary.artifact.unwrap()).unwrap();
        let rows: Vec<FaultRow> = serde_json::from_str(&text).unwrap();
        assert!(sweep.verify(&rows).is_ok());
        assert!(summary.report.contains("fault-sweep"));

        // One table row per upset level, whose means are the means of
        // that level's artifact rows.
        let table: Vec<Vec<&str>> = summary
            .report
            .lines()
            .skip_while(|l| !l.trim_start().starts_with("upset_ppm"))
            .skip(1)
            .take_while(|l| !l.starts_with("at the harshest"))
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(table.len(), sweep.upset_ppm.len(), "{}", summary.report);
        for (cells, &ppm) in table.iter().zip(&sweep.upset_ppm) {
            let level: Vec<&FaultRow> = rows.iter().filter(|r| r.upset_ppm == ppm).collect();
            let mean = |f: fn(&FaultRow) -> f64| {
                format!(
                    "{:.4}",
                    level.iter().map(|r| f(r)).sum::<f64>() / level.len() as f64
                )
            };
            assert_eq!(cells[0], ppm.to_string());
            assert_eq!(cells[1], level.len().to_string());
            assert_eq!(cells[2], mean(|r| r.ipc), "u{ppm}");
            assert_eq!(cells[3], mean(|r| r.ipc_fault_aware), "u{ppm}");
        }
        assert!(
            summary.report.contains("fault-aware steering holds"),
            "{}",
            summary.report
        );
    }
}

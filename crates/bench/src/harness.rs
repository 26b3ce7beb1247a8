//! Run helpers and table formatting for the experiments.

use rsp_core::cem::CemKind;
use rsp_core::select::TieBreak;
use rsp_isa::Program;
use rsp_sim::{PolicyKind, Processor, SimConfig, SimReport};
use serde::{Deserialize, Serialize};

/// Cycle budget for every experiment run: generously above any workload
/// used here; a run hitting it is a bug surfaced by `halted == false`.
pub const CYCLE_BUDGET: u64 = 50_000_000;

/// A named policy/configuration variant for comparison tables.
#[derive(Debug, Clone)]
pub struct PolicySpec {
    /// Row label.
    pub label: String,
    /// The simulator configuration factory (applied to a base config).
    pub cfg: SimConfig,
}

/// The standard comparison set of experiment E1: paper steering, the
/// three static configurations, the FFU-only floor, and the
/// zero-latency demand-driven oracle.
pub fn policies() -> Vec<PolicySpec> {
    let mut out = vec![PolicySpec {
        label: "paper-steering".into(),
        cfg: SimConfig::default(),
    }];
    for i in 0..3 {
        out.push(PolicySpec {
            label: format!("static:Config {}", i + 1),
            cfg: SimConfig::static_on(i),
        });
    }
    out.push(PolicySpec {
        label: "ffu-only (floor)".into(),
        cfg: SimConfig {
            policy: PolicyKind::Static,
            initial_config: None,
            ..SimConfig::default()
        },
    });
    out.push(PolicySpec {
        label: "oracle (demand, 0-lat)".into(),
        cfg: SimConfig::oracle(),
    });
    out
}

/// The paper policy with explicit knob settings (ablation helper).
pub fn paper_policy(tie: TieBreak, cem: CemKind, partial: bool) -> SimConfig {
    SimConfig {
        policy: PolicyKind::Paper {
            tie,
            cem,
            partial,
            fault_aware: false,
        },
        ..SimConfig::default()
    }
}

/// Run one program under one configuration; panics if the cycle budget
/// is hit (experiments must run to completion).
pub(crate) fn run_one(cfg: SimConfig, program: &Program) -> SimReport {
    let r = Processor::new(cfg)
        .run(program, CYCLE_BUDGET)
        .expect("valid program");
    assert!(r.halted, "{} exhausted the cycle budget", program.name);
    r
}

/// One result row for serialisation into `results/*.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Workload label.
    pub workload: String,
    /// Policy / variant label.
    pub policy: String,
    /// Retired instructions per cycle.
    pub ipc: f64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Reconfigurations started.
    pub reconfigs: u64,
    /// RFU slots reloaded.
    pub slots_reloaded: u64,
}

impl Row {
    /// Build from a report under an explicit policy label (comparison
    /// tables key columns by [`PolicySpec::label`], not by the
    /// simulator's own policy name).
    pub fn labelled(workload: &str, policy: &str, r: &SimReport) -> Row {
        Row {
            workload: workload.into(),
            policy: policy.into(),
            ipc: r.ipc(),
            cycles: r.cycles,
            reconfigs: r.fabric.loads_started,
            slots_reloaded: r.fabric.slots_reloaded,
        }
    }
}

/// Render a pivot table: rows = workloads, columns = policy labels,
/// cells = `select(report)`.
pub(crate) fn pivot_table<T: std::fmt::Display>(
    title: &str,
    workloads: &[String],
    columns: &[String],
    cell: impl Fn(&str, &str) -> T,
) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let _ = write!(s, "{:<24}", "workload");
    for c in columns {
        let _ = write!(s, "{c:>24}");
    }
    let _ = writeln!(s);
    for w in workloads {
        let _ = write!(s, "{w:<24}");
        for c in columns {
            let _ = write!(s, "{:>24}", cell(w, c).to_string());
        }
        let _ = writeln!(s);
    }
    s
}

/// Render a pivot table directly from a row set: rows = workloads,
/// columns = `col_labels`, each cell the first row matching
/// `(workload, column)` rendered by `cell` (blank when absent). This is
/// the find-the-matching-row plumbing `evals` and `faults` each used to
/// hand-roll around [`pivot_table`].
pub(crate) fn pivot_rows<R, T: std::fmt::Display>(
    title: &str,
    rows: &[R],
    workloads: &[String],
    col_labels: &[String],
    matches: impl Fn(&R, &str, &str) -> bool,
    cell: impl Fn(&R) -> T,
) -> String {
    pivot_table(title, workloads, col_labels, |w, c| {
        rows.iter()
            .find(|r| matches(r, w, c))
            .map(|r| cell(r).to_string())
            .unwrap_or_default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_workloads::kernels;

    #[test]
    fn standard_policy_set_runs() {
        let p = kernels::memcpy(16);
        for spec in policies() {
            let r = run_one(spec.cfg, &p);
            assert!(r.halted);
            assert!(r.retired > 0);
        }
    }

    #[test]
    fn pivot_rows_finds_cells_and_blanks_gaps() {
        let rows = vec![("a", "x", 1.5), ("b", "x", 2.0)];
        let t = pivot_rows(
            "t",
            &rows,
            &["a".into(), "b".into(), "c".into()],
            &["x".into()],
            |r, w, c| r.0 == w && r.1 == c,
            |r| format!("{:.1}", r.2),
        );
        assert!(t.contains("1.5"));
        assert!(t.contains("2.0"));
    }

    #[test]
    fn pivot_table_formats() {
        let t = pivot_table("t", &["a".into(), "b".into()], &["x".into()], |w, c| {
            format!("{w}{c}")
        });
        assert!(t.contains("ax"));
        assert!(t.contains("bx"));
    }
}

//! One module per reproduced artifact: [`figures`] covers Table 1 and
//! Figs. 1–7 (regenerating each artifact's content from the
//! implementation), [`evals`] covers the quantitative experiments E1–E14
//! (DESIGN.md §4), [`faults`] sweeps the fault model (DESIGN.md §9).
//! Every function returns the report text it prints, so tests can assert
//! on content.
//!
//! Every experiment id is a [`crate::sweep::Sweep`] and dispatches
//! through [`sweep_runner`]; the `experiments` bin runs each one on the
//! engine, honouring `--out-dir`/`--cache-dir` and, with a store,
//! `--shard`/`--spawn`/`--merge`. Grids worth splitting (`e1-ipc`, the
//! fault and serve sweeps) have their own impls; every other id is a
//! one-point sweep whose row is its report text.

use crate::sweep::{Sweep, SweepRunner};

pub mod evals;
pub mod faults;
pub mod figures;

/// All experiment ids, in DESIGN.md order.
pub const ALL_IDS: [&str; 26] = [
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "e1-ipc",
    "e2-partial",
    "e3-stability",
    "e4-latency",
    "e5-divider",
    "e6-basis",
    "e7-demand",
    "e8-ffu",
    "e9-scaling",
    "e10-demand-mode",
    "e11-smoothing",
    "e12-selectfree",
    "e13-hwcost",
    "e14-predictor",
    "fault-sweep",
    "serve-saturation",
    "serve-sched",
    "all",
];

/// Ids that resolve but are deliberately not in [`ALL_IDS`], so listings
/// and the `all` driver stay stable: the reduced fault grid, sized for
/// the CI cold→warm cache job and local smoke runs.
pub const HIDDEN_IDS: [&str; 1] = ["fault-sweep-reduced"];

/// Renders one report-only experiment's report.
type Render = fn() -> String;

/// The experiments whose whole output is one report: each id with the
/// function that renders it.
const REPORTS: [(&str, Render); 21] = [
    ("table1", figures::table1),
    ("fig1", figures::fig1),
    ("fig2", figures::fig2),
    ("fig3", figures::fig3),
    ("fig4", figures::fig4),
    ("fig5", figures::fig5),
    ("fig6", figures::fig6),
    ("fig7", figures::fig7),
    ("e2-partial", evals::e2_partial),
    ("e3-stability", evals::e3_stability),
    ("e4-latency", evals::e4_latency),
    ("e5-divider", evals::e5_divider),
    ("e6-basis", evals::e6_basis),
    ("e7-demand", evals::e7_demand),
    ("e8-ffu", evals::e8_ffu),
    ("e9-scaling", evals::e9_scaling),
    ("e10-demand-mode", evals::e10_demand_mode),
    ("e11-smoothing", evals::e11_smoothing),
    ("e12-selectfree", evals::e12_selectfree),
    ("e13-hwcost", evals::e13_hwcost),
    ("e14-predictor", evals::e14_predictor),
];

/// A report-only experiment as a one-point sweep: its single row is the
/// report text, which depends on nothing but the code, so the cache
/// key's code version covers it.
struct Report {
    name: &'static str,
    render: Render,
}

impl Sweep for Report {
    type Point = ();
    type Row = String;

    fn name(&self) -> &'static str {
        self.name
    }

    fn points(&self) -> Vec<()> {
        vec![()]
    }

    fn key(&self, _: &()) -> String {
        "report".to_string()
    }

    fn run_point(&self, _: &()) -> String {
        (self.render)()
    }

    fn report(&self, rows: &[String]) -> String {
        rows.concat()
    }
}

/// Resolve any experiment id, listed or hidden, to its sweep.
pub fn sweep_runner(id: &str) -> Option<Box<dyn SweepRunner>> {
    Some(match id {
        "e1-ipc" => Box::new(evals::E1Sweep::new()),
        "fault-sweep" => Box::new(faults::FaultSweep::full()),
        "fault-sweep-reduced" => Box::new(faults::FaultSweep::reduced()),
        "serve-saturation" => Box::new(crate::serve_saturation::ServeSaturationSweep),
        "serve-sched" => Box::new(crate::serve_sched::ServeSchedSweep::full()),
        _ => Box::new(report(id)?),
    })
}

/// The report-only experiment `id`, if it is one.
fn report(id: &str) -> Option<Report> {
    let &(name, render) = REPORTS.iter().find(|(name, _)| *name == id)?;
    Some(Report { name, render })
}

/// The report of a report-only experiment, computed directly. Kept only
/// for the benchmark's sweep workload, which still imports it; it goes
/// with the next benchmark change.
pub fn run(id: &str) -> Option<String> {
    report(id).map(|r| (r.render)())
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::sweep::{ScratchDir, SweepConfig};

    fn every_id() -> impl Iterator<Item = &'static str> {
        ALL_IDS
            .into_iter()
            .filter(|&id| id != "all")
            .chain(HIDDEN_IDS)
    }

    /// Every id, listed or hidden, resolves to a sweep with a name of its
    /// own. A store key is (name, point key, code version), so distinct
    /// names are what keep two ids — the full and reduced fault grids
    /// among them — out of each other's store entries.
    #[test]
    fn every_id_resolves_to_a_sweep_with_its_own_store_keys() {
        let cfg = SweepConfig::default();
        let mut names = BTreeSet::new();
        let mut keys = BTreeSet::new();
        for id in every_id() {
            let sweep = sweep_runner(id).unwrap_or_else(|| panic!("{id} does not resolve"));
            assert!(names.insert(sweep.name()), "{id}: name reused");
            for key in sweep.point_hashes(&cfg).unwrap() {
                assert!(keys.insert(key), "{id}: store key shared with another id");
            }
        }
        assert!(sweep_runner("all").is_none());
        assert!(sweep_runner("definitely-not-an-id").is_none());
    }

    /// A report-only id renders the same report cold through a fresh
    /// store as its function does directly, and warm without computing.
    #[test]
    fn report_ids_round_trip_through_the_store() {
        let dir = ScratchDir::new("reports");
        let cfg = SweepConfig {
            out_dir: dir.to_path_buf(),
            cache_dir: Some(dir.join("cas")),
            ..SweepConfig::default()
        };
        for id in ["table1", "fig4", "fig5", "e13-hwcost"] {
            let want = run(id).unwrap();
            let sweep = sweep_runner(id).unwrap();
            let cold = sweep.run_and_merge(&cfg).unwrap();
            let warm = sweep.run_and_merge(&cfg).unwrap();
            let (cold_cache, warm_cache) = (cold.cache.unwrap(), warm.cache.unwrap());
            assert_eq!((cold_cache.hits, cold_cache.misses), (0, 1), "{id} cold");
            assert_eq!((warm_cache.hits, warm_cache.misses), (1, 0), "{id} warm");
            assert_eq!(cold.report, want, "{id} cold");
            assert_eq!(warm.report, want, "{id} warm");
            assert!(warm.artifact.is_none());
        }
    }
}

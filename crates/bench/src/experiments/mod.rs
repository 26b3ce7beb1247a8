//! One module per reproduced artifact: [`figures`] covers Table 1 and
//! Figs. 1–7 (regenerating each artifact's content from the
//! implementation), [`evals`] covers the quantitative experiments E1–E9
//! (DESIGN.md §4), [`faults`] sweeps the fault model (DESIGN.md §9).
//! Every function returns the report text it prints, so tests can assert
//! on content.
//!
//! Experiments whose grid is worth sharding or caching are
//! [`crate::sweep::Sweep`]s and dispatch through [`sweep_runner`] (the
//! `experiments` bin routes them onto the engine, honouring
//! `--out-dir`/`--cache-dir` and, with a store, `--shard`/`--spawn`/
//! `--merge`); the rest dispatch through [`run`]. Multi-stage
//! [`studies`] compose the sweeps with pivot/report stages over the
//! artifact store and dispatch through the `study` subcommand.

use crate::sweep::SweepRunner;

pub mod evals;
pub mod faults;
pub mod figures;
pub mod studies;

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

/// The sweep-engine experiments: ids whose grids run on the engine and
/// can shard over the artifact store. `run(id)` returns `None` for
/// these; drive them through the engine.
pub fn sweep_runner(id: &str) -> Option<Box<dyn SweepRunner>> {
    match id {
        "e1-ipc" => Some(Box::new(evals::E1Sweep::new())),
        "fault-sweep" => Some(Box::new(faults::FaultSweep::full())),
        "fault-sweep-reduced" => Some(Box::new(faults::FaultSweep::reduced())),
        "serve-saturation" => Some(Box::new(crate::serve_saturation::ServeSaturationSweep)),
        "serve-sched" => Some(Box::new(crate::serve_sched::ServeSchedSweep::full())),
        _ => None,
    }
}

/// Dispatch one non-sweep experiment by id; returns its report text.
pub fn run(id: &str) -> Option<String> {
    Some(match id {
        "table1" => figures::table1(),
        "fig1" => figures::fig1(),
        "fig2" => figures::fig2(),
        "fig3" => figures::fig3(),
        "fig4" => figures::fig4(),
        "fig5" => figures::fig5(),
        "fig6" => figures::fig6(),
        "fig7" => figures::fig7(),
        "e2-partial" => evals::e2_partial(),
        "e3-stability" => evals::e3_stability(),
        "e4-latency" => evals::e4_latency(),
        "e5-divider" => evals::e5_divider(),
        "e6-basis" => evals::e6_basis(),
        "e7-demand" => evals::e7_demand(),
        "e8-ffu" => evals::e8_ffu(),
        "e9-scaling" => evals::e9_scaling(),
        "e10-demand-mode" => evals::e10_demand_mode(),
        "e11-smoothing" => evals::e11_smoothing(),
        "e12-selectfree" => evals::e12_selectfree(),
        "e13-hwcost" => evals::e13_hwcost(),
        "e14-predictor" => evals::e14_predictor(),
        _ => return None,
    })
}

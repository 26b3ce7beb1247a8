//! Golden report corpus: this pins the *whole* [`SimReport`] — cycles
//! and retired instructions, stall counters, loader and fabric
//! statistics, fault counters — of every entry, once
//! with telemetry off and once under [`Telemetry::counting`] so the
//! metrics snapshot (event counters and latency histograms) is pinned
//! too. A change that keeps timing but miscounts a stall, a skipped load
//! or a histogram sample fails here.
//!
//! Corpus: three kernels, the phased program under the paper, static
//! and oracle policies, and an FP-heavy synthetic program, all
//! fault-free, plus one fault-aware run under live faults
//! (failing loads, upsets, scrub and a dead slot) and one run of the
//! EWMA-smoothed paper policy.
//!
//! To bless intentional report changes:
//! `BLESS_REPORTS=1 cargo test --test golden_reports` rewrites the corpus
//! file; review and commit the diff.

use rsp::fabric::fault::FaultParams;
use rsp::isa::Program;
use rsp::obs::Telemetry;
use rsp::sim::{PolicyKind, Processor, SimConfig, SimReport};
use rsp::workloads::{kernels, PhasedSpec, SynthSpec, UnitMix};
use std::collections::BTreeMap;

const GOLDEN_PATH: &str = "tests/golden_reports.json";

/// Per label: `"off"` and `"counting"` reports.
type Golden = BTreeMap<String, BTreeMap<String, SimReport>>;

fn corpus() -> Vec<(&'static str, SimConfig, Program)> {
    let phased = || PhasedSpec::int_fp_mem(250, 1, 2024).generate();
    let mut faulty = SimConfig {
        policy: PolicyKind::PAPER_FAULT_AWARE,
        ..SimConfig::default()
    };
    faulty.fabric.faults = FaultParams {
        seed: 0xF0A17,
        load_failure_ppm: 250_000,
        upset_ppm: 20_000,
        scrub_interval: 64,
        dead_slots: vec![0],
    };
    faulty.fabric.per_slot_load_latency = 8;
    let smoothed = SimConfig {
        policy: PolicyKind::PaperSmoothed { shift: 2 },
        ..SimConfig::default()
    };
    vec![
        (
            "dot_product/paper",
            SimConfig::default(),
            kernels::dot_product(48),
        ),
        ("matmul/paper", SimConfig::default(), kernels::matmul(6)),
        (
            "bubble_sort/paper",
            SimConfig::default(),
            kernels::bubble_sort(16),
        ),
        ("phased/paper", SimConfig::default(), phased()),
        ("phased/static1", SimConfig::static_on(0), phased()),
        ("phased/oracle", SimConfig::oracle(), phased()),
        (
            "fp-heavy/paper",
            SimConfig::default(),
            SynthSpec::new("fp", UnitMix::FP_HEAVY, 11).generate(),
        ),
        ("phased/fault-aware-faulty", faulty, phased()),
        ("phased/paper-smoothed", smoothed, phased()),
    ]
}

fn run(cfg: &SimConfig, p: &Program, telemetry: Telemetry) -> SimReport {
    let mut m = Processor::new(cfg.clone()).start(p).unwrap();
    m.set_telemetry(telemetry);
    while m.cycle() < 5_000_000 && m.step() {}
    m.report()
}

fn measure() -> Golden {
    corpus()
        .into_iter()
        .map(|(label, cfg, p)| {
            let off = run(&cfg, &p, Telemetry::off());
            assert!(off.halted, "{label} must halt");
            let counting = run(&cfg, &p, Telemetry::counting());
            let entry =
                BTreeMap::from([("off".to_string(), off), ("counting".to_string(), counting)]);
            (label.to_string(), entry)
        })
        .collect()
}

#[test]
fn reports_match_golden_corpus() {
    let measured = measure();
    let text = serde_json::to_string_pretty(&measured).unwrap() + "\n";
    if std::env::var("BLESS_REPORTS").is_ok() {
        std::fs::write(GOLDEN_PATH, text).unwrap();
        eprintln!("blessed {} report entries", measured.len());
        return;
    }
    let golden_text = std::fs::read_to_string(GOLDEN_PATH)
        .expect("tests/golden_reports.json is missing: bless it with BLESS_REPORTS=1");
    let golden: Golden = serde_json::from_str(&golden_text).unwrap();
    assert_eq!(
        measured.keys().collect::<Vec<_>>(),
        golden.keys().collect::<Vec<_>>(),
        "corpus labels changed"
    );
    for (label, modes) in &measured {
        for (mode, report) in modes {
            assert_eq!(
                Some(report),
                golden[label].get(mode),
                "{label} ({mode}): report regression; if intentional, re-bless with BLESS_REPORTS=1"
            );
        }
    }
}

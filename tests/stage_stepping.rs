//! `Machine::step_stage` runs one pipeline stage at a time, so a caller
//! can time or inspect each stage on its own. Driving every stage of
//! `PipeStage::ALL` in order must be exactly one `step()`: this test runs
//! the golden report corpus's seven base pairs (tests/golden_reports.rs)
//! both ways and
//! requires equal reports, with telemetry off and with counting
//! telemetry, and an equal cycle-by-cycle `finished()` edge.

use rsp::isa::Program;
use rsp::obs::Telemetry;
use rsp::sim::processor::{Machine, PipeStage};
use rsp::sim::{Processor, SimConfig};
use rsp::workloads::{kernels, PhasedSpec, SynthSpec, UnitMix};

const BUDGET: u64 = 5_000_000;

/// The seven base (label, configuration, program) pairs whose reports
/// `tests/golden_reports.rs` pins.
fn corpus() -> Vec<(&'static str, SimConfig, Program)> {
    let phased = || PhasedSpec::int_fp_mem(250, 1, 2024).generate();
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
    ]
}

fn start(cfg: &SimConfig, p: &Program, telemetry: bool) -> Machine {
    let mut m = Processor::new(cfg.clone()).start(p).unwrap();
    if telemetry {
        m.set_telemetry(Telemetry::counting());
    }
    m
}

#[test]
fn stage_by_stage_stepping_equals_step() {
    for (label, cfg, p) in corpus() {
        for telemetry in [false, true] {
            let mut whole = start(&cfg, &p, telemetry);
            let mut staged = start(&cfg, &p, telemetry);
            while whole.cycle() < BUDGET && !whole.finished() {
                let more = whole.step();
                for stage in PipeStage::ALL {
                    staged.step_stage(stage);
                }
                assert_eq!(staged.cycle(), whole.cycle(), "{label}");
                assert_eq!(!staged.finished(), more, "{label} @ {}", whole.cycle());
            }
            let r = whole.report();
            assert!(r.halted, "{label} must halt");
            assert_eq!(staged.report(), r, "{label} (telemetry {telemetry})");
            let fbits = |m: &Machine| {
                let f = m.regfile().fregs();
                f.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(staged.regfile().iregs(), whole.regfile().iregs(), "{label}");
            assert_eq!(fbits(&staged), fbits(&whole), "{label}");
            assert_eq!(staged.mem().cells(), whole.mem().cells(), "{label}");
        }
    }
}

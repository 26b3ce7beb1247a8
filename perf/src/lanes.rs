//! `lanes`: the bit-sliced lane kernel stepping 256 synthetic-mix lanes,
//! and its traced per-width cost.

use std::time::{Duration, Instant};

use rsp_sim::{LaneRunner, LaneSummary, SimConfig};

use crate::inputs::{lane_stimulus, scalar_programs, LANES};
use crate::metrics::Outcome;
use crate::probe::{Mix, Probe};
use crate::scalar::lane_slice;
use crate::stats::{median, setup_median, SetupClock};
use crate::Budget;

/// Kernel steps per operation, as in the throughput harness's lanes class.
const PASS_STEPS: u64 = 4_096;

/// Scalar programs whose steer logs the differential slice replays.
const SLICE_PROGRAMS: usize = 8;

/// Set-up: build the stimulus and the batch, then one warm-up pass.
fn prepare(cfg: &SimConfig, lanes: usize, seed: u64) -> Result<LaneRunner, String> {
    let mut runner = LaneRunner::new(cfg, lane_stimulus(cfg, lanes, seed))?;
    runner.run(PASS_STEPS);
    Ok(runner)
}

/// The end-to-end run: 4096-step passes until the budget is spent, each
/// right after a host-speed probe. Throughput is lane-cycles per pass
/// over the median pass time; an operation (for latency) is one pass.
/// Times are at reference host speed.
pub fn run(budget: &Budget) -> Outcome {
    let mut out = Outcome::default();
    let cfg = SimConfig::default();
    let mut setups = SetupClock::new(budget.seconds, Mix::BitSliced);
    let mut runner = match setups.time(|| prepare(&cfg, LANES, budget.seed)) {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("lane kernel rejected the workload: {e}"));
            return out;
        }
    };

    let mut probe = Probe::new(Mix::BitSliced);
    let mut pass_ms = Vec::new();
    let mut after_first: Option<LaneSummary> = None;
    let started = Instant::now();
    setups.start();
    loop {
        let (summary, secs) = probe.time(|| runner.run(PASS_STEPS));
        pass_ms.push(secs * 1e3);
        after_first.get_or_insert(summary);
        out.ops(1, 0);
        if budget.spent(started) {
            break;
        }
        setups.catch_up(|| prepare(&cfg, LANES, budget.seed));
    }
    out.set(
        "setup_s",
        setups.finish(|| prepare(&cfg, LANES, budget.seed)),
    );
    let pass_lane_cycles = (PASS_STEPS * LANES as u64) as f64;
    out.set("throughput", pass_lane_cycles / (median(&pass_ms) / 1e3));
    out.set("latency_p50_ms", median(&pass_ms));
    out.set("host.speed", probe.median_speed());

    let total = runner.summary();
    out.check(
        total.loads_started > 0 && total.selection_changes > 0,
        || "lanes never reconfigured: the kernel did no steering work".into(),
    );
    // Determinism: a fresh batch repeats the first timed pass exactly.
    let again = prepare(&cfg, LANES, budget.seed).map(|mut r| r.run(PASS_STEPS));
    out.check(again.ok() == after_first, || {
        "a fresh lane batch did not repeat the first pass".into()
    });
    let programs = scalar_programs(budget.seed);
    match lane_slice(&cfg, &programs[..SLICE_PROGRAMS]) {
        Ok(mismatches) => out.check(mismatches == 0, || {
            format!("lane replay of scalar steer logs diverged on {mismatches} lane-cycle(s)")
        }),
        Err(e) => out.fail(format!("lane replay could not run: {e}")),
    }
    out
}

/// Nanoseconds per kernel step per 64-lane word at `lanes` lanes.
fn step_ns_per_word(cfg: &SimConfig, lanes: usize, seed: u64) -> Result<f64, String> {
    let mut runner = prepare(cfg, lanes, seed)?;
    let mut steps = 0u64;
    let started = Instant::now();
    while started.elapsed() < Duration::from_millis(150) {
        for _ in 0..256 {
            runner.step();
        }
        steps += 256;
    }
    let words = (lanes / 64) as f64;
    Ok(started.elapsed().as_nanos() as f64 / steps as f64 / words)
}

/// The traced run's `lanes.*` metrics.
pub fn trace(seed: u64, out: &mut Outcome) {
    let cfg = SimConfig::default();
    for (name, lanes) in [
        ("lanes.step_ns_per_word", LANES),
        ("lanes.step_ns_per_word_w1", 64),
        ("lanes.step_ns_per_word_w16", 1024),
    ] {
        match step_ns_per_word(&cfg, lanes, seed) {
            Ok(ns) => out.set(name, ns),
            Err(e) => out.fail(format!("{name}: {e}")),
        }
    }
    let (_, build_s) = setup_median(|| lane_stimulus(&cfg, LANES, seed));
    out.set("lanes.stimulus_build_ms", build_s * 1e3);
    match prepare(&cfg, LANES, seed) {
        Ok(mut runner) => {
            let s = runner.run(PASS_STEPS * 8);
            let lane_cycles = s.lane_cycles.max(1) as f64;
            out.set(
                "lanes.selection_change_frac",
                s.selection_changes as f64 / lane_cycles,
            );
            out.set(
                "lanes.loads_per_kcycle",
                s.loads_started as f64 * 1e3 / lane_cycles,
            );
        }
        Err(e) => out.fail(format!("lane kernel rejected the workload: {e}")),
    }
    let programs = scalar_programs(seed);
    match lane_slice(&cfg, &programs[..SLICE_PROGRAMS]) {
        Ok(mismatches) => {
            out.set("lanes.differential_mismatches", mismatches as f64);
            out.check(mismatches == 0, || {
                format!("lane replay of scalar steer logs diverged on {mismatches} lane-cycle(s)")
            });
        }
        Err(e) => out.fail(format!("lane replay could not run: {e}")),
    }
}

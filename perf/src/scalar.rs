//! `scalar` and `scalar-faulty`: programs run back to back on one reused
//! machine, and the traced replay of the machine's per-cycle layers.
//!
//! The traced run drives the same programs one `Machine::step` at a time
//! with the steer log on, sampling public state every
//! [`SAMPLE_EVERY`]th cycle. Each layer's public entry point is then
//! replayed in a tight timed loop over those recorded inputs, from this
//! file: the simulator itself carries no timing code.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rsp_core::{
    CemUnit, ConfigChoice, ConfigurationLoader, MinimalErrorSelector, OneHot, PaperSteering,
    RequirementEncoder, SelectionUnit, SteeringPolicy,
};
use rsp_fabric::availability::{available_all, AvailabilityInputs};
use rsp_fabric::{AllocationVector, Fabric, UnitId};
use rsp_isa::{DataMemory, Program, ReferenceInterpreter, TypeCounts, UnitType};
use rsp_sched::{arbitrate_into, SlotIdx, WakeupArray};
use rsp_sim::lanes::{record_steering, stimulus_from_records, LaneBatch, SteerRecord};
use rsp_sim::processor::Machine;
use rsp_sim::{BatchRunner, PolicyKind, Processor, SimConfig, SimReport};

use crate::inputs::{faulty_config, phased_programs, scalar_programs, CYCLE_BUDGET};
use crate::metrics::Outcome;
use crate::probe::{Mix, Probe};
use crate::stats::{median, ms, net_ns, per_item_ns, quantile, setup_median, SetupClock};
use crate::Budget;

/// A workload's machine configuration and program set.
pub struct ScalarSet {
    /// Machine configuration.
    pub cfg: SimConfig,
    /// Programs run back to back, in order.
    pub programs: Vec<Program>,
}

impl ScalarSet {
    /// The `scalar` (fault-free, 23 programs) or `scalar-faulty`
    /// (3 phased programs under the fault model) set for `seed`.
    pub fn new(faulty: bool, seed: u64) -> ScalarSet {
        if faulty {
            ScalarSet {
                cfg: faulty_config(seed),
                programs: phased_programs(seed),
            }
        } else {
            ScalarSet {
                cfg: SimConfig::default(),
                programs: scalar_programs(seed),
            }
        }
    }
}

/// Per-program (cycles, retired) of a pass; every later pass must repeat
/// it exactly.
type Expected = Vec<(u64, u64)>;

/// Set-up: generate the programs, validate the config, and run one
/// warm-up pass (it builds the machine and records what every later pass
/// must reproduce).
fn prepare(faulty: bool, seed: u64) -> (ScalarSet, BatchRunner, Expected, Vec<String>) {
    let set = ScalarSet::new(faulty, seed);
    let mut runner = BatchRunner::new(set.cfg.clone()).expect("workload config is valid");
    let mut expected = Vec::with_capacity(set.programs.len());
    let mut errors = Vec::new();
    for p in &set.programs {
        match runner.run(p, CYCLE_BUDGET) {
            Ok(r) if r.halted => expected.push((r.cycles, r.retired)),
            Ok(_) => {
                errors.push(format!("{} did not halt within the cycle budget", p.name));
                expected.push((0, 0));
            }
            Err(e) => {
                errors.push(format!("{}: {e}", p.name));
                expected.push((0, 0));
            }
        }
    }
    (set, runner, expected, errors)
}

/// The end-to-end run: passes over the program set until the budget is
/// spent, each right after a host-speed probe. Throughput is simulated
/// cycles per pass over the median pass time; an operation (for latency)
/// is one program run. Times are at reference host speed.
pub fn run(faulty: bool, budget: &Budget) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = SetupClock::new(budget.seconds, Mix::Machine);
    let (set, mut runner, expected, warm_errors) = setups.time(|| prepare(faulty, budget.seed));
    for e in warm_errors {
        out.fail(e);
    }

    let mut probe = Probe::new(Mix::Machine);
    let mut pass_ms = Vec::new();
    let mut run_ms = Vec::new();
    let started = Instant::now();
    setups.start();
    loop {
        let speed = probe.speed();
        let pass = Instant::now();
        for (p, &(want_cycles, want_retired)) in set.programs.iter().zip(&expected) {
            let t = Instant::now();
            let r = runner.run(p, CYCLE_BUDGET);
            run_ms.push(ms(t.elapsed()) * speed);
            let ok = matches!(&r, Ok(r) if r.halted && r.cycles == want_cycles
                && r.retired == want_retired);
            out.check(ok, || format!("{} did not repeat its warm-up run", p.name));
        }
        pass_ms.push(ms(pass.elapsed()) * speed);
        if budget.spent(started) {
            break;
        }
        setups.catch_up(|| prepare(faulty, budget.seed));
    }
    out.set("setup_s", setups.finish(|| prepare(faulty, budget.seed)));
    let pass_cycles: u64 = expected.iter().map(|&(c, _)| c).sum();
    out.set("throughput", pass_cycles as f64 / (median(&pass_ms) / 1e3));
    out.set("latency_p50_ms", median(&run_ms));
    out.set("host.speed", probe.median_speed());

    check_reference(&set, &mut out);
    // The lane kernel rejects load-failure configs, so only the
    // fault-free set has a lane replay to compare against.
    if !faulty {
        match lane_slice(&set.cfg, &set.programs) {
            Ok(mismatches) => out.check(mismatches == 0, || {
                format!("lane replay of the steer logs diverged on {mismatches} lane-cycle(s)")
            }),
            Err(e) => out.fail(format!("lane replay could not run: {e}")),
        }
    }
    out
}

/// Every program halts and ends in the architectural state of the
/// in-order reference interpreter (registers, FP bits, memory, retired
/// count).
pub fn check_reference(set: &ScalarSet, out: &mut Outcome) {
    let proc = Processor::try_new(set.cfg.clone()).expect("workload config is valid");
    for p in &set.programs {
        let mut reference = ReferenceInterpreter::new(DataMemory::new(set.cfg.data_mem_words));
        reference.run(&p.instrs, CYCLE_BUDGET);
        let ok = match proc.start(p) {
            Ok(mut m) => {
                while m.cycle() < CYCLE_BUDGET && m.step() {}
                let r = m.report();
                let fbits = |f: &[f64]| f.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                reference.halted()
                    && r.halted
                    && r.retired == reference.retired
                    && m.regfile().iregs() == reference.state.iregs()
                    && fbits(m.regfile().fregs()) == fbits(reference.state.fregs())
                    && m.mem().cells() == reference.mem.cells()
            }
            Err(_) => false,
        };
        out.check(ok, || {
            format!(
                "{}: final state differs from the reference interpreter",
                p.name
            )
        });
    }
}

/// Lanes in the differential slice: one bit-plane word.
const SLICE_LANES: usize = 64;

/// Record each program's scalar steer log, replay the logs across a
/// 64-lane [`LaneBatch`], and count lane-cycles whose choice or
/// load-start differs from the scalar machine's.
pub fn lane_slice(cfg: &SimConfig, programs: &[Program]) -> Result<u64, String> {
    let runs = programs
        .iter()
        .map(|p| record_steering(cfg, p, CYCLE_BUDGET))
        .collect::<Result<Vec<_>, _>>()?;
    let stim = stimulus_from_records(&runs, SLICE_LANES, cfg.queue_size, cfg.fabric.rfu_slots)?;
    let mut batch = LaneBatch::new(cfg, SLICE_LANES)?;
    let mut mismatches = 0u64;
    for t in 0..stim.cycles() {
        batch.step(&stim, t);
        for lane in 0..SLICE_LANES {
            let Some(rec) = runs[lane % runs.len()].records.get(t) else {
                continue; // past this lane's recorded window
            };
            if batch.lane_choice(lane) != rec.chosen
                || batch.lane_started(lane) != (rec.loads_started > 0)
            {
                mismatches += 1;
            }
        }
    }
    Ok(mismatches)
}

/// Cycles between state samples in the traced drive.
pub const SAMPLE_EVERY: u64 = 16;

/// Simulated cycles the traced drive covers at least (whole passes).
const TRACE_CYCLES: u64 = 60_000;

/// Minimum timed wall per replayed layer.
const REPLAY_MIN: Duration = Duration::from_millis(30);

/// Public machine state at one cycle boundary.
struct Sample {
    wakeup: WakeupArray,
    idle: TypeCounts,
    configured: TypeCounts,
    demand: TypeCounts,
    alloc: AllocationVector,
    slot_available: Vec<bool>,
    ffus: Vec<(UnitType, bool)>,
}

impl Sample {
    fn of(m: &Machine) -> Sample {
        let f = m.fabric();
        Sample {
            wakeup: m.wakeup().clone(),
            idle: f.idle_counts(),
            configured: f.configured_counts(),
            demand: m.current_demand(),
            alloc: f.alloc().clone(),
            slot_available: f.slot_available_signals(),
            ffus: f.ffu_signals(),
        }
    }

    /// The issue stage's per-type "an idle unit exists" vector.
    fn avail(&self) -> [bool; 5] {
        let mut a = [false; 5];
        for &t in &UnitType::ALL {
            a[t.index()] = self.idle.get(t) > 0;
        }
        a
    }
}

/// What the traced drive recorded.
struct Recording {
    samples: Vec<Sample>,
    logs: Vec<Vec<SteerRecord>>,
    /// Reports of the first pass (counters are per pass).
    reports: Vec<SimReport>,
    step_ns: Vec<f64>,
    reset_us: Vec<f64>,
    cycles: u64,
    traced: Duration,
}

/// Drive whole passes one step at a time, timing each step, sampling
/// state and recording the steer log.
fn record(set: &ScalarSet, overhead_ns: f64) -> Recording {
    let mut runner = BatchRunner::new(set.cfg.clone()).expect("workload config is valid");
    let mut rec = Recording {
        samples: Vec::new(),
        logs: Vec::new(),
        reports: Vec::new(),
        step_ns: Vec::new(),
        reset_us: Vec::new(),
        cycles: 0,
        traced: Duration::ZERO,
    };
    let mut first_pass = true;
    while rec.cycles < TRACE_CYCLES {
        for p in &set.programs {
            let started = Instant::now();
            let m = runner.start(p).expect("workload program is valid");
            rec.reset_us
                .push(net_ns(started.elapsed(), overhead_ns) / 1e3);
            m.enable_steer_log();
            while m.cycle() < CYCLE_BUDGET {
                if m.cycle().is_multiple_of(SAMPLE_EVERY) {
                    rec.samples.push(Sample::of(m));
                }
                let t = Instant::now();
                let more = m.step();
                rec.step_ns.push(net_ns(t.elapsed(), overhead_ns));
                if !more {
                    break;
                }
            }
            rec.traced += started.elapsed();
            rec.cycles += m.cycle();
            rec.logs.push(m.take_steer_log());
            if first_pass {
                rec.reports.push(m.report());
            }
        }
        first_pass = false;
    }
    rec
}

/// Untraced host nanoseconds per simulated cycle: whole passes for at
/// least `min` of wall time.
fn untraced_ns_per_cycle(set: &ScalarSet, min: Duration) -> f64 {
    let mut runner = BatchRunner::new(set.cfg.clone()).expect("workload config is valid");
    let mut cycles = 0u64;
    let started = Instant::now();
    while started.elapsed() < min || cycles == 0 {
        for p in &set.programs {
            cycles += runner
                .run(p, CYCLE_BUDGET)
                .expect("workload program is valid")
                .cycles;
        }
    }
    started.elapsed().as_nanos() as f64 / cycles as f64
}

/// The steering policy a paper-policy config builds (as the machine
/// does), or `None` for other policies.
fn paper_policy(cfg: &SimConfig) -> Option<PaperSteering> {
    let PolicyKind::Paper {
        tie,
        cem,
        partial,
        fault_aware,
    } = cfg.policy
    else {
        return None;
    };
    let unit = SelectionUnit {
        tie,
        cem: CemUnit { kind: cem },
        ..SelectionUnit::PAPER
    };
    let mut p = PaperSteering::new(unit, cfg.steering_set.clone());
    p.loader.partial = partial;
    p.loader.fault_aware = fault_aware;
    Some(p)
}

/// A fabric in the machine's reset state.
fn replay_fabric(cfg: &SimConfig) -> Fabric {
    let mut f = Fabric::new(cfg.fabric.clone());
    if let Some(i) = cfg.initial_config {
        f.load_instantly(&cfg.steering_set.predefined[i]);
    }
    f
}

/// Make the replay fabric's busy units match the recorded busy mask
/// (as the lane kernel's stimulus does). False if the mask names slots
/// the replay fabric has no idle, healthy unit for: the replay diverged.
fn mirror_busy(fabric: &mut Fabric, mask: u64, heads: &mut Vec<usize>) -> bool {
    heads.clear();
    heads.extend(fabric.alloc().units().map(|pu| pu.head));
    let have = fabric.busy_mask();
    for &h in heads.iter() {
        let want = mask >> h & 1 == 1;
        let is = have >> h & 1 == 1;
        if want && !is {
            if fabric.slot_corrupted(h) {
                return false;
            }
            fabric.set_busy(UnitId::Rfu { head: h });
        } else if !want && is {
            fabric.clear_busy(UnitId::Rfu { head: h });
        }
    }
    fabric.busy_mask() == mask
}

/// Replay totals over every recorded steer log.
#[derive(Default)]
struct SteerReplay {
    cycles: u64,
    policy_ns: f64,
    fabric_ns: f64,
    loader_ns: f64,
    mismatches: u64,
}

/// Replay each steer log through `PaperSteering::tick` then
/// `Fabric::tick_into` on a replay fabric, and separately through
/// `ConfigurationLoader::apply` with the recorded choices; every
/// recorded choice and load count must be reproduced.
fn replay_steering(cfg: &SimConfig, logs: &[Vec<SteerRecord>], overhead_ns: f64) -> SteerReplay {
    let mut r = SteerReplay::default();
    let Some(template) = paper_policy(cfg) else {
        r.mismatches = 1;
        return r;
    };
    let mut done = Vec::new();
    let mut heads = Vec::new();
    for log in logs {
        let mut policy = template.clone();
        let mut fabric = replay_fabric(cfg);
        for rec in log {
            if !mirror_busy(&mut fabric, rec.busy, &mut heads) {
                r.mismatches += 1;
                break;
            }
            let t = Instant::now();
            let outcome = policy.tick(&rec.demand, &mut fabric);
            r.policy_ns += net_ns(t.elapsed(), overhead_ns);
            if outcome.choice.map(ConfigChoice::two_bit) != rec.chosen
                || outcome.loads_started != rec.loads_started as usize
            {
                r.mismatches += 1;
            }
            let t = Instant::now();
            fabric.tick_into(&mut done);
            r.fabric_ns += net_ns(t.elapsed(), overhead_ns);
        }
        r.cycles += log.len() as u64;

        let mut loader = ConfigurationLoader::new(cfg.steering_set.clone());
        loader.partial = template.loader.partial;
        loader.fault_aware = template.loader.fault_aware;
        let mut fabric = replay_fabric(cfg);
        for rec in log {
            if !mirror_busy(&mut fabric, rec.busy, &mut heads) {
                r.mismatches += 1;
                break;
            }
            let Some(chosen) = rec.chosen else {
                r.mismatches += 1;
                break;
            };
            let t = Instant::now();
            let started = loader.apply(ConfigChoice::from_two_bit(chosen), &mut fabric);
            r.loader_ns += net_ns(t.elapsed(), overhead_ns);
            if started != rec.loads_started as usize {
                r.mismatches += 1;
            }
            fabric.tick_into(&mut done);
        }
    }
    r
}

/// The ready-demand signature as one one-hot decoder output per entry.
fn one_hots(demand: &TypeCounts) -> Vec<OneHot> {
    UnitType::ALL
        .iter()
        .flat_map(|&t| std::iter::repeat_n(OneHot::of(t), demand.get(t) as usize))
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced run of one program set: every `sim`, `sched`, `core` and
/// `fabric` per-layer metric, plus `trace.overhead_frac`.
pub fn trace(set: &ScalarSet, overhead_ns: f64, out: &mut Outcome) {
    let e2e_ns = untraced_ns_per_cycle(set, Duration::from_secs(1));
    let rec = record(set, overhead_ns);
    let traced_ns = rec.traced.as_nanos() as f64 / rec.cycles as f64;
    out.set("trace.overhead_frac", traced_ns / e2e_ns - 1.0);
    out.set("sim.step_ns_p50", quantile(&rec.step_ns, 0.5));
    out.set("sim.step_ns_p99", quantile(&rec.step_ns, 0.99));
    out.set("sim.reset_us", median(&rec.reset_us));

    // Steer stage and fabric tick: every recorded cycle, replayed.
    let steer = replay_steering(&set.cfg, &rec.logs, overhead_ns);
    out.check(steer.mismatches == 0, || {
        format!(
            "steer replay diverged from the recorded log on {} cycle(s)",
            steer.mismatches
        )
    });
    let per_cycle = |ns: f64| ns / steer.cycles.max(1) as f64;
    let policy_ns = per_cycle(steer.policy_ns);
    let fabric_ns = per_cycle(steer.fabric_ns);
    out.set("core.policy_tick_ns", policy_ns);
    out.set("core.loader_ns", per_cycle(steer.loader_ns));
    out.set("fabric.tick_ns", fabric_ns);

    // Issue stage: runs only when the queue holds an entry.
    let busy: Vec<&Sample> = rec
        .samples
        .iter()
        .filter(|s| !s.wakeup.is_empty())
        .collect();
    let busy_frac = ratio(busy.len() as u64, rec.samples.len() as u64);
    let avails: Vec<[bool; 5]> = busy.iter().map(|s| s.avail()).collect();
    let mut requests: Vec<Vec<SlotIdx>> = Vec::with_capacity(busy.len());
    for (s, a) in busy.iter().zip(&avails) {
        let mut v = Vec::new();
        s.wakeup.requests_into(a, &mut v);
        requests.push(v);
    }
    let mut buf = Vec::with_capacity(64);
    let requests_ns = per_item_ns(busy.len(), REPLAY_MIN, || {
        for (s, a) in busy.iter().zip(&avails) {
            s.wakeup.requests_into(black_box(a), &mut buf);
            black_box(&buf);
        }
    });
    let mut grants = Vec::with_capacity(16);
    let arbiter_ns = per_item_ns(busy.len(), REPLAY_MIN, || {
        for (s, r) in busy.iter().zip(&requests) {
            arbitrate_into(&s.wakeup, black_box(r), &s.idle, &mut grants);
            black_box(&grants);
        }
    });
    // Wake-up tick: every cycle, on fresh copies (it mutates).
    let mut tick_time = Duration::ZERO;
    let mut ticks = 0u64;
    while tick_time < REPLAY_MIN {
        let mut copies: Vec<WakeupArray> = rec.samples.iter().map(|s| s.wakeup.clone()).collect();
        let t = Instant::now();
        for w in &mut copies {
            w.tick();
        }
        tick_time += t.elapsed();
        black_box(&copies);
        ticks += copies.len() as u64;
    }
    let wakeup_tick_ns = tick_time.as_nanos() as f64 / ticks.max(1) as f64;
    out.set("sched.wakeup_requests_ns", requests_ns * busy_frac);
    out.set("sched.arbiter_ns", arbiter_ns * busy_frac);
    out.set("sched.wakeup_tick_ns", wakeup_tick_ns);

    // The calls the machine makes every cycle; fetch, dispatch, the
    // ROB and execute have no per-call entry point and stay unattributed.
    let attributed =
        requests_ns * busy_frac + arbiter_ns * busy_frac + wakeup_tick_ns + policy_ns + fabric_ns;
    out.set("sim.attributed_frac", attributed / e2e_ns);
    out.set("sim.unattributed_ns_per_cycle", e2e_ns - attributed);

    replay_selection_unit(set, &rec.samples, out);
    pass_counters(&rec.reports, out);
}

/// The selection unit's stages and the Eq. 1 circuit, replayed on the
/// sampled states; the machine runs them once per steer cycle.
fn replay_selection_unit(set: &ScalarSet, samples: &[Sample], out: &mut Outcome) {
    let availability_ns = per_item_ns(samples.len(), REPLAY_MIN, || {
        for s in samples {
            black_box(available_all(&AvailabilityInputs {
                alloc: &s.alloc,
                slot_available: &s.slot_available,
                ffus: &s.ffus,
            }));
        }
    });
    let hots: Vec<Vec<OneHot>> = samples.iter().map(|s| one_hots(&s.demand)).collect();
    let encoder = RequirementEncoder::PAPER;
    let encoder_ns = per_item_ns(hots.len(), REPLAY_MIN, || {
        for h in &hots {
            black_box(encoder.encode(black_box(h)));
        }
    });
    let unit = paper_policy(&set.cfg).map_or(SelectionUnit::PAPER, |p| p.unit);
    let steer_set = &set.cfg.steering_set;
    let candidates: Vec<TypeCounts> = (0..steer_set.predefined.len())
        .map(|i| steer_set.total_counts(i))
        .collect();
    let cem_ns = per_item_ns(samples.len(), REPLAY_MIN, || {
        for s in samples {
            let required = s.demand.saturating_3bit();
            black_box(unit.cem.error(&required, &s.configured));
            for c in &candidates {
                black_box(unit.cem.error(&required, black_box(c)));
            }
        }
    });
    let scored: Vec<(Vec<u32>, Vec<usize>)> = samples
        .iter()
        .map(|s| {
            let required = s.demand.saturating_3bit();
            let mut errors = vec![unit.cem.error(&required, &s.configured)];
            let mut costs = vec![0];
            for (c, cfg) in candidates.iter().zip(&steer_set.predefined) {
                errors.push(unit.cem.error(&required, c));
                costs.push(cfg.placement.diff_count(&s.alloc));
            }
            (errors, costs)
        })
        .collect();
    let select_ns = per_item_ns(scored.len(), REPLAY_MIN, || {
        for (e, c) in &scored {
            black_box(MinimalErrorSelector.select(black_box(e), black_box(c)));
        }
    });
    let choose_ns = per_item_ns(samples.len(), REPLAY_MIN, || {
        for s in samples {
            black_box(unit.choose(
                s.demand.saturating_3bit(),
                s.configured,
                &s.alloc,
                steer_set,
            ));
        }
    });
    out.set("fabric.availability_ns", availability_ns);
    out.set("core.encoder_ns", encoder_ns);
    out.set("core.cem_ns", cem_ns);
    out.set("core.select_ns", select_ns);
    out.set("core.choose_ns", choose_ns);
}

/// Simulated-behaviour counters of one pass over the program set.
fn pass_counters(reports: &[SimReport], out: &mut Outcome) {
    let sum = |f: &dyn Fn(&SimReport) -> u64| reports.iter().map(f).sum::<u64>();
    let cycles = sum(&|r| r.cycles);
    let retired = sum(&|r| r.retired);
    let squashed = sum(&|r| r.squashed);
    out.set("sim.ipc", ratio(retired, cycles));
    out.set("sim.squash_frac", ratio(squashed, retired + squashed));
    let hits = sum(&|r| r.trace_hits);
    out.set(
        "frontend.trace_hit_frac",
        ratio(hits, hits + sum(&|r| r.trace_misses)),
    );
    out.set(
        "sched.stall_queue_full_frac",
        ratio(sum(&|r| r.stalls.queue_full), cycles),
    );
    out.set(
        "sched.stall_rob_full_frac",
        ratio(sum(&|r| r.stalls.rob_full), cycles),
    );
    out.set(
        "sched.stall_starved_frac",
        ratio(sum(&|r| r.stalls.starved_requests), cycles),
    );
    out.set(
        "sched.stall_queue_empty_frac",
        ratio(sum(&|r| r.stalls.queue_empty), cycles),
    );
    let started = sum(&|r| r.loader.loads_started);
    let attempts = started
        + sum(&|r| {
            let l = &r.loader;
            l.deferred_busy
                + l.deferred_port
                + l.skipped_matching
                + l.skipped_loading
                + l.deferred_backoff
                + l.skipped_dead
        });
    out.set(
        "core.selection_change_frac",
        ratio(sum(&|r| r.loader.selection_changes), cycles),
    );
    out.set("core.load_start_frac", ratio(started, attempts));
    out.set("core.retries", sum(&|r| r.loader.retries) as f64);
    out.set(
        "core.zombie_reloads",
        sum(&|r| r.loader.zombie_reloads) as f64,
    );
    out.set("core.replacements", sum(&|r| r.loader.replacements) as f64);
    out.set(
        "fabric.load_failure_frac",
        ratio(
            sum(&|r| r.faults.load_failures),
            sum(&|r| r.fabric.loads_started),
        ),
    );
    out.set(
        "fabric.upsets_detected_frac",
        ratio(
            sum(&|r| r.faults.upsets_detected),
            sum(&|r| r.faults.upsets_injected),
        ),
    );
}

/// Median time to generate a program set, in milliseconds.
pub fn program_gen_ms(faulty: bool, seed: u64) -> f64 {
    let (_, s) = setup_median(|| ScalarSet::new(faulty, seed));
    s * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steer_replay_matches_the_recorded_log() {
        for faulty in [false, true] {
            let set = ScalarSet::new(faulty, 3);
            let rec = record(&set, 0.0);
            let replay = replay_steering(&set.cfg, &rec.logs, 0.0);
            assert_eq!(replay.mismatches, 0, "faulty = {faulty}");
            let logged: u64 = rec.logs.iter().map(|l| l.len() as u64).sum();
            assert!(logged > 0);
            assert_eq!(replay.cycles, logged);
            if faulty {
                let retries: u64 = rec.reports.iter().map(|r| r.loader.retries).sum();
                assert!(retries > 0, "the fault model must exercise loader retries");
            }
        }
    }
}

//! The pipeline driver.
//!
//! [`Processor`] validates a configuration and runs programs;
//! [`Machine`] is one run's live state, stepped one cycle at a time and
//! fully inspectable (wake-up array, fabric, register file), which is
//! what the figure-reproduction experiments use for their traces.
//!
//! Stage order within [`Machine::step`] (one cycle):
//! 1. **retire** — in-order completion from the register-update-unit
//!    head, write-back to the architectural register file;
//! 2. **complete** — executions whose latency elapsed this cycle finish:
//!    units are freed, control flow is verified, mispredicts flush;
//! 3. **issue** — select-free wake-up requests are arbitrated
//!    oldest-first onto idle units; operands are forwarded and the
//!    result computed (memory ops access memory here, in order and
//!    non-speculatively);
//! 4. **steer** — the configuration-steering policy observes the ready
//!    demand and may start partial reconfigurations;
//! 5. **dispatch** — decoded instructions enter the wake-up array and
//!    the register update unit, with dependency columns from the
//!    dependency buffer (plus the in-order memory/branch chains);
//! 6. **fetch** — the front end fetches and decodes along the predicted
//!    path;
//! 7. **tick** — timers, reconfiguration progress, unit drain.
//!
//! Each stage is a [`PipeStage`] that [`Machine::step_stage`] runs on its
//! own; `step` is the seven calls in this order. A stage whose inputs
//! have not changed does O(1) work: complete waits for its completion
//! horizon, issue skips arbitration with no request line up, and the
//! loader skips a target already in place (DESIGN.md §8).

use crate::config::{DemandMode, PolicyKind, SelectMode, SimConfig};
use crate::exec::{execute, operand_value};
use crate::frontend::{FetchUnit, FetchedInstr};
use crate::lanes::SteerRecord;
use crate::rob::{Rob, RobEntry, Seq, Stage};
use crate::stats::{RetiredMix, SimReport};
use rsp_core::cem::CemUnit;
use rsp_core::loader::LoaderStats;
use rsp_core::policy::{DemandDriven, PaperSteering, PolicyOutcome, StaticPolicy, SteeringPolicy};
use rsp_core::select::{ConfigChoice, SelectionUnit};
use rsp_core::smooth::DemandFilter;
use rsp_fabric::alloc::PlacedUnit;
use rsp_fabric::fabric::{Fabric, UnitId};
use rsp_fabric::fault::FaultEvent;
use rsp_isa::mem::DataMemory;
use rsp_isa::program::ProgramError;
use rsp_isa::semantics::ArchState;
use rsp_isa::units::{TypeCounts, UnitType};
use rsp_isa::Program;
use rsp_obs::{Event, Histo, StallCause, Telemetry};
use rsp_sched::{arbitrate_into, Grant, SlotIdx, WakeupArray};
use std::collections::VecDeque;

/// Errors surfaced by [`Processor::run`].
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The simulator configuration is inconsistent.
    BadConfig(String),
    /// The program failed static validation.
    BadProgram(ProgramError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::BadConfig(m) => write!(f, "bad configuration: {m}"),
            RunError::BadProgram(e) => write!(f, "bad program: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// The steering policy instance driving one run.
#[derive(Debug, Clone)]
enum PolicyInstance {
    /// The paper's mechanism, with or without E11's demand filter (boxed:
    /// it is far larger than the other variants).
    Paper(Box<PaperSteering>),
    /// Never reconfigure.
    Static(StaticPolicy),
    /// Greedy demand-driven steering (§5 future work / oracle).
    Demand(DemandDriven),
}

impl PolicyInstance {
    fn build(cfg: &SimConfig) -> PolicyInstance {
        match cfg.policy {
            PolicyKind::Paper {
                tie,
                cem,
                partial,
                fault_aware,
            } => {
                let unit = SelectionUnit {
                    tie,
                    cem: CemUnit { kind: cem },
                    ..SelectionUnit::PAPER
                };
                let mut p = PaperSteering::new(unit, cfg.steering_set.clone());
                p.loader.partial = partial;
                p.loader.fault_aware = fault_aware;
                PolicyInstance::Paper(Box::new(p))
            }
            PolicyKind::Static => {
                let label = cfg
                    .initial_config
                    .map(|i| cfg.steering_set.predefined[i].name.clone())
                    .unwrap_or_else(|| "empty".into());
                PolicyInstance::Static(StaticPolicy::new(label))
            }
            PolicyKind::DemandDriven => PolicyInstance::Demand(DemandDriven::default()),
            PolicyKind::PaperSmoothed { shift } => {
                let mut p = PaperSteering::new(SelectionUnit::PAPER, cfg.steering_set.clone());
                p.smoothing = Some(DemandFilter::new(shift));
                PolicyInstance::Paper(Box::new(p))
            }
        }
    }

    fn tick(
        &mut self,
        demand: &TypeCounts,
        fabric: &mut Fabric,
        obs: &mut Telemetry,
    ) -> PolicyOutcome {
        match self {
            PolicyInstance::Paper(p) => p.tick_observed(demand, fabric, obs),
            PolicyInstance::Static(p) => p.tick_observed(demand, fabric, obs),
            PolicyInstance::Demand(p) => p.tick_observed(demand, fabric, obs),
        }
    }

    fn name(&self) -> String {
        match self {
            PolicyInstance::Paper(p) => p.name(),
            PolicyInstance::Static(p) => p.name(),
            PolicyInstance::Demand(p) => p.name(),
        }
    }

    /// Loader counters, for paper-policy runs.
    fn loader_stats(&self) -> Option<&LoaderStats> {
        match self {
            PolicyInstance::Paper(p) => Some(p.loader.stats()),
            _ => None,
        }
    }

    fn policy_loads(&self) -> u64 {
        match self {
            PolicyInstance::Demand(p) => p.loads_started,
            _ => 0,
        }
    }
}

/// The simulator entry point: a validated configuration.
#[derive(Debug, Clone)]
pub struct Processor {
    cfg: SimConfig,
}

impl Processor {
    /// Build a processor; panics on an invalid configuration (use
    /// [`Processor::try_new`] to handle errors).
    pub fn new(cfg: SimConfig) -> Processor {
        Processor::try_new(cfg).expect("invalid simulator configuration")
    }

    /// Fallible constructor.
    pub fn try_new(cfg: SimConfig) -> Result<Processor, RunError> {
        cfg.validate().map_err(RunError::BadConfig)?;
        Ok(Processor { cfg })
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Run `program` to completion (or until `max_cycles`); the program
    /// must pass [`Program::validate`].
    pub fn run(&mut self, program: &Program, max_cycles: u64) -> Result<SimReport, RunError> {
        let mut m = self.start(program)?;
        while m.cycle() < max_cycles && m.step() {}
        Ok(m.report())
    }

    /// Begin a run, returning the live machine for cycle-level driving
    /// and inspection.
    pub fn start(&self, program: &Program) -> Result<Machine, RunError> {
        program.validate().map_err(RunError::BadProgram)?;
        Ok(Machine::new(self.cfg.clone(), program))
    }
}

/// Reusable per-cycle working buffers: every stage of [`Machine::step`]
/// that needs a temporary list borrows one of these instead of
/// allocating, so the steady-state cycle loop performs zero heap
/// allocations (a counting-allocator test pins this).
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// `stage_issue`: requesting wake-up slots.
    requests: Vec<SlotIdx>,
    /// `stage_issue`: arbitrated grants.
    grants: Vec<Grant>,
    /// `stage_dispatch`: one instruction's dependency columns.
    deps: Vec<usize>,
    /// `flush_after`: squashed register-update-unit entries.
    squashed: Vec<RobEntry>,
    /// `stage_tick`: reconfigurations that completed this cycle.
    loads_done: Vec<PlacedUnit>,
}

/// One stage of [`Machine::step`], for [`Machine::step_stage`].
/// (`Stage` names a register-update-unit entry's lifecycle.)
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeStage {
    /// In-order retirement from the register-update-unit head.
    Retire,
    /// Executions whose latency elapsed finish; mispredicts flush.
    Complete,
    /// Wake-up requests are arbitrated onto idle units and executed.
    Issue,
    /// The steering policy observes demand and may start loads.
    Steer,
    /// Decoded instructions enter the wake-up array and the ROB.
    Dispatch,
    /// The front end fetches along the predicted path.
    Fetch,
    /// Timers, reconfiguration progress and unit drain; ends the cycle.
    Tick,
}

impl PipeStage {
    /// Every stage, in the order one cycle runs them.
    pub const ALL: [PipeStage; 7] = [
        PipeStage::Retire,
        PipeStage::Complete,
        PipeStage::Issue,
        PipeStage::Steer,
        PipeStage::Dispatch,
        PipeStage::Fetch,
        PipeStage::Tick,
    ];
}

/// Live state of one run.
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: SimConfig,
    cycle: u64,
    halted: bool,
    fetch: FetchUnit,
    dispatch_buf: VecDeque<FetchedInstr>,
    wakeup: WakeupArray,
    rob: Rob,
    regfile: ArchState,
    mem: DataMemory,
    fabric: Fabric,
    policy: PolicyInstance,
    draining: Vec<(UnitId, u64)>,
    /// Completion horizon: no executing entry finishes before this cycle
    /// (`u64::MAX` when none executes). Lowered at every grant and
    /// recomputed by every completion walk, so the complete stage skips
    /// its walk on cycles where no timer can expire.
    next_done: u64,
    /// Select-free recovery, indexed by wake-up slot: first cycle the
    /// slot may request again (0 = no cooldown; real cooldowns are
    /// always ≥ 1 because the penalty is clamped to at least one cycle).
    collision_cooldown: Vec<u64>,
    scratch: Scratch,
    /// Telemetry bus: disabled by default ([`Telemetry::off`]), in which
    /// case every hook below degenerates to a branch on a bool.
    telemetry: Telemetry,
    /// Issue-stage stall-episode register: the cause attributed last
    /// cycle, so an `Event::Stall` fires only when the cause *changes*.
    issue_stall: Option<StallCause>,
    /// Dispatch-stage stall-episode register (same edge-triggering).
    dispatch_stall: Option<StallCause>,
    /// Steering choice seen last cycle (telemetry only; the loader keeps
    /// its own authoritative copy).
    last_choice: Option<ConfigChoice>,
    /// Cycle of the most recent selection *change*, open until the next
    /// RFU grant closes the decision-to-grant latency sample.
    pending_decision: Option<u64>,
    /// When `Some`, every steer stage appends a [`SteerRecord`] — the
    /// per-cycle (demand, busy-mask, choice) triple the bit-sliced lane
    /// kernel replays in its differential tests. Off by default.
    steer_log: Option<Vec<SteerRecord>>,
    // statistics
    retired: u64,
    collisions: u64,
    retired_mix: RetiredMix,
    issued_ffu: u64,
    issued_rfu: u64,
    flushes: u64,
    squashed: u64,
    stalls: crate::stats::StallStats,
}

impl Machine {
    pub(crate) fn new(cfg: SimConfig, program: &Program) -> Machine {
        let mut fabric = Fabric::new(cfg.fabric.clone());
        if let Some(i) = cfg.initial_config {
            fabric.load_instantly(&cfg.steering_set.predefined[i]);
        }
        let policy = PolicyInstance::build(&cfg);
        Machine {
            fetch: FetchUnit::new(program.to_words(), &cfg),
            dispatch_buf: VecDeque::new(),
            wakeup: WakeupArray::new(cfg.queue_size),
            rob: Rob::new(cfg.rob_size),
            regfile: ArchState::new(),
            mem: DataMemory::new(cfg.data_mem_words),
            fabric,
            policy,
            draining: Vec::new(),
            next_done: u64::MAX,
            collision_cooldown: vec![0; cfg.queue_size],
            // `grants` briefly holds every request of a type before the
            // arbiter cuts it to the idle quota, so both buffers take the
            // whole array up front.
            scratch: Scratch {
                requests: Vec::with_capacity(cfg.queue_size),
                grants: Vec::with_capacity(cfg.queue_size),
                ..Scratch::default()
            },
            telemetry: Telemetry::off(),
            issue_stall: None,
            dispatch_stall: None,
            last_choice: None,
            pending_decision: None,
            steer_log: None,
            cfg,
            cycle: 0,
            halted: false,
            retired: 0,
            collisions: 0,
            retired_mix: RetiredMix::default(),
            issued_ffu: 0,
            issued_rfu: 0,
            flushes: 0,
            squashed: 0,
            stalls: crate::stats::StallStats::default(),
        }
    }

    /// Re-arm this machine for a fresh run of `program` under the same
    /// configuration, reusing the existing allocations (wake-up array,
    /// register update unit, data memory). Produces a machine
    /// behaviourally identical to a freshly constructed one — the batched
    /// driver ([`crate::batch`]) relies on this.
    pub fn reset(&mut self, program: &Program) {
        self.fetch = FetchUnit::new(program.to_words(), &self.cfg);
        self.dispatch_buf.clear();
        self.wakeup.reset();
        self.rob.reset();
        self.regfile = ArchState::new();
        self.mem.reset();
        self.fabric = Fabric::new(self.cfg.fabric.clone());
        if let Some(i) = self.cfg.initial_config {
            self.fabric
                .load_instantly(&self.cfg.steering_set.predefined[i]);
        }
        self.policy = PolicyInstance::build(&self.cfg);
        self.draining.clear();
        self.next_done = u64::MAX;
        self.collision_cooldown.fill(0);
        self.telemetry.reset();
        self.issue_stall = None;
        self.dispatch_stall = None;
        self.last_choice = None;
        self.pending_decision = None;
        if let Some(log) = &mut self.steer_log {
            log.clear();
        }
        self.cycle = 0;
        self.halted = false;
        self.retired = 0;
        self.collisions = 0;
        self.retired_mix = RetiredMix::default();
        self.issued_ffu = 0;
        self.issued_rfu = 0;
        self.flushes = 0;
        self.squashed = 0;
        self.stalls = crate::stats::StallStats::default();
    }

    /// The current cycle number.
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// True once the program has architecturally ended.
    #[inline]
    pub fn finished(&self) -> bool {
        self.halted
    }

    /// The wake-up array (for figure traces).
    pub fn wakeup(&self) -> &WakeupArray {
        &self.wakeup
    }

    /// The fabric (for figure traces).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The committed architectural register state.
    pub fn regfile(&self) -> &ArchState {
        &self.regfile
    }

    /// The data memory.
    pub fn mem(&self) -> &DataMemory {
        &self.mem
    }

    /// Install a telemetry bus ([`Telemetry::counting`] or
    /// [`Telemetry::ring`]); the default [`Telemetry::off`] keeps every
    /// hook free. Usually called right after [`Processor::start`], but
    /// swapping mid-run is allowed (counters then cover a suffix).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
        self.telemetry.set_cycle(self.cycle);
    }

    /// The telemetry bus (metrics registry + optional event ring).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Take the telemetry bus out of the machine, leaving
    /// [`Telemetry::off`] in its place: a finished run hands its event
    /// ring on without copying it, and the next run installs its own
    /// bus through [`Machine::set_telemetry`].
    pub fn take_telemetry(&mut self) -> Telemetry {
        std::mem::take(&mut self.telemetry)
    }

    /// Start recording a [`SteerRecord`] per cycle — the stimulus the
    /// bit-sliced lane kernel ([`crate::lanes`]) replays to prove
    /// bit-identical steering. Cheap (one busy-mask fold and a push per
    /// cycle), but off by default.
    pub fn enable_steer_log(&mut self) {
        self.steer_log = Some(Vec::new());
    }

    /// Take the recorded steer log (empty if logging was never enabled);
    /// logging continues if it was on.
    pub fn take_steer_log(&mut self) -> Vec<SteerRecord> {
        match &mut self.steer_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// The demand signature the steering policy would observe right now
    /// (per the configured [`DemandMode`]).
    pub fn current_demand(&self) -> TypeCounts {
        match self.cfg.demand_mode {
            DemandMode::Ready => self.wakeup.demand_ready(),
            DemandMode::Unscheduled => self.wakeup.demand_unscheduled(),
        }
    }

    /// In-flight instruction count (dispatched, not yet retired).
    pub fn in_flight(&self) -> usize {
        self.rob.len()
    }

    /// Instructions retired so far (cheaper than [`Machine::report`] when
    /// only the count is needed, e.g. per-sample trace recording).
    #[inline]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Snapshot report (valid mid-run or at the end).
    pub fn report(&self) -> SimReport {
        let (trace_hits, trace_misses) = self.fetch.trace_stats();
        SimReport {
            cycles: self.cycle,
            retired: self.retired,
            halted: self.halted,
            retired_mix: self.retired_mix,
            issued_ffu: self.issued_ffu,
            issued_rfu: self.issued_rfu,
            flushes: self.flushes,
            squashed: self.squashed,
            trace_hits,
            trace_misses,
            stalls: self.stalls,
            collisions: self.collisions,
            fabric: self.fabric.stats(),
            faults: self.fabric.fault_stats(),
            loader: self.policy.loader_stats().cloned().unwrap_or_default(),
            policy: self.policy.name(),
            policy_loads: self.policy.policy_loads(),
            metrics: self.telemetry.snapshot(),
        }
    }

    /// Check cross-structure invariants (used by stress tests; cheap
    /// enough to call every cycle in debug runs). Panics on violation.
    ///
    /// 1. Register-update-unit entries are in strictly increasing seq
    ///    order and within capacity.
    /// 2. Every entry's wake-up slot is occupied, tagged with its seq,
    ///    carries its unit type, and the scheduled bit mirrors the entry
    ///    stage.
    /// 3. Every occupied wake-up slot belongs to a live entry.
    /// 4. The set of busy functional units equals (executing entries'
    ///    units) ∪ (draining squashed units), with no double booking.
    /// 5. Completed entries with a destination have a pending value.
    /// 6. The completion horizon is no later than any executing entry's
    ///    finish cycle (`next_done_scan`).
    ///
    /// [`Machine::step`] calls this every cycle only under the `validate`
    /// cargo feature (it allocates and rescans every structure); the
    /// stress and fuzz tests call it directly.
    #[cold]
    #[inline(never)]
    pub fn check_invariants(&self) {
        use std::collections::HashSet;
        // (1)
        assert!(self.rob.len() <= self.cfg.rob_size);
        let seqs: Vec<Seq> = self.rob.iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "ROB order violated");

        // (2)
        let mut slots_of_entries = HashSet::new();
        for e in self.rob.iter() {
            let w = self
                .wakeup
                .get(e.wakeup_slot)
                .unwrap_or_else(|| panic!("seq {} lost its wake-up slot", e.seq));
            assert_eq!(w.tag, e.seq, "wake-up tag mismatch");
            assert_eq!(w.unit, e.instr.unit_type(), "wake-up unit column mismatch");
            assert_eq!(
                w.scheduled,
                e.stage != Stage::Dispatched,
                "scheduled bit out of sync for seq {}",
                e.seq
            );
            assert!(slots_of_entries.insert(e.wakeup_slot), "slot double-booked");
            // (5)
            if e.stage == Stage::Completed && e.instr.arch_dest().is_some() {
                assert!(e.value.is_some(), "completed seq {} missing value", e.seq);
            }
        }
        // (3)
        for (slot, _) in self.wakeup.entries() {
            assert!(
                slots_of_entries.contains(&slot),
                "orphan wake-up entry in slot {slot}"
            );
        }
        // (4)
        let mut expected_busy: HashSet<UnitId> = self
            .rob
            .iter()
            .filter_map(|e| match e.stage {
                Stage::Executing { unit, .. } => Some(unit),
                _ => None,
            })
            .collect();
        for &(unit, _) in &self.draining {
            assert!(
                expected_busy.insert(unit),
                "draining unit {unit:?} also executing"
            );
        }
        let actually_busy: HashSet<UnitId> = self
            .fabric
            .units()
            .into_iter()
            .filter(|u| u.busy)
            .map(|u| u.id)
            .collect();
        assert_eq!(actually_busy, expected_busy, "fabric busy-set mismatch");
        // (6)
        assert!(
            self.next_done <= self.next_done_scan(),
            "completion horizon {} passes an executing entry's done_at {}",
            self.next_done,
            self.next_done_scan()
        );
    }

    /// The earliest `done_at` among executing entries (`u64::MAX` if none)
    /// recomputed by walking the register update unit — the bound the
    /// incremental completion horizon must never exceed.
    fn next_done_scan(&self) -> u64 {
        self.rob
            .iter()
            .filter_map(|e| match e.stage {
                Stage::Executing { done_at, .. } => Some(done_at),
                _ => None,
            })
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Advance one cycle; returns `false` once the program has ended.
    pub fn step(&mut self) -> bool {
        if self.halted {
            return false;
        }
        self.step_stage(PipeStage::Retire);
        self.step_stage(PipeStage::Complete);
        self.step_stage(PipeStage::Issue);
        self.step_stage(PipeStage::Steer);
        self.step_stage(PipeStage::Dispatch);
        self.step_stage(PipeStage::Fetch);
        self.step_stage(PipeStage::Tick);
        !self.halted
    }

    /// Run one stage of the current cycle. One cycle is every stage of
    /// [`PipeStage::ALL`] in order, which is exactly what
    /// [`Machine::step`] does; a caller driving the stages itself starts
    /// a cycle only while [`Machine::finished`] is false. The stages after
    /// retire do nothing in the cycle the program ends; the tick still
    /// runs and closes the cycle.
    #[doc(hidden)]
    #[inline(always)]
    pub fn step_stage(&mut self, stage: PipeStage) {
        match stage {
            PipeStage::Retire => {
                // Heavyweight cross-structure validation, opt-in via the
                // `validate` feature (it rescans and allocates every
                // cycle).
                #[cfg(feature = "validate")]
                self.check_invariants();
                self.telemetry.set_cycle(self.cycle);
                self.stage_retire();
            }
            PipeStage::Complete
            | PipeStage::Issue
            | PipeStage::Steer
            | PipeStage::Dispatch
            | PipeStage::Fetch
                if self.halted => {}
            PipeStage::Complete => self.stage_complete(),
            PipeStage::Issue => self.stage_issue(),
            PipeStage::Steer => self.stage_steer(),
            PipeStage::Dispatch => self.stage_dispatch(),
            PipeStage::Fetch => self.stage_fetch(),
            PipeStage::Tick => {
                self.stage_tick();
                self.cycle += 1;
                // Natural end: everything drained without an explicit
                // halt.
                if !self.halted
                    && self.rob.is_empty()
                    && self.dispatch_buf.is_empty()
                    && self.fetch.drained()
                {
                    self.halted = true;
                }
            }
        }
    }

    fn stage_retire(&mut self) {
        for _ in 0..self.cfg.retire_width {
            let Some(head) = self.rob.head() else { break };
            if head.stage != Stage::Completed {
                break;
            }
            let e = self.rob.retire_head();
            self.wakeup.clear(e.wakeup_slot);
            self.collision_cooldown[e.wakeup_slot] = 0;
            if let (Some(d), Some(v)) = (e.instr.dest, e.value) {
                self.regfile.write(d, v);
            }
            self.retired += 1;
            self.retired_mix.record(e.instr.unit_type());
            // Train the branch predictor at retirement (non-speculative).
            if e.instr.opcode.is_conditional_branch() {
                let taken = e.resolved_next != Some(e.pc + 1);
                self.fetch.train(e.pc, taken);
            }
            self.regfile.pc = e.resolved_next.unwrap_or(u64::MAX);
            if e.resolved_next.is_none() {
                self.halted = true;
                break;
            }
        }
    }

    fn stage_complete(&mut self) {
        // No timer can expire before the horizon.
        if self.cycle < self.next_done {
            return;
        }
        // One pass, oldest first, recomputing the horizon over the entries
        // that keep executing. A mispredict flushes every younger entry,
        // so the walk ends at the first flush.
        let mut next_done = u64::MAX;
        let mut i = 0;
        while let Some(e) = self.rob.at_mut(i) {
            i += 1;
            let Stage::Executing { unit, done_at } = e.stage else {
                continue;
            };
            if done_at > self.cycle {
                next_done = next_done.min(done_at);
                continue;
            }
            e.stage = Stage::Completed;
            let (seq, opcode) = (e.seq, e.instr.opcode);
            let (predicted, resolved) = (e.predicted_next, e.resolved_next);
            self.fabric.clear_busy(unit);
            if opcode.is_control_flow() {
                // `jal` is followed at decode and always matches; `jalr`
                // stopped the front end, so it always needs a redirect;
                // conditional branches redirect only on mispredict.
                let mispredict = match opcode {
                    rsp_isa::Opcode::Jalr => true,
                    _ => resolved != Some(predicted),
                };
                if mispredict {
                    self.flush_after(seq, resolved.unwrap_or(u64::MAX));
                    break;
                }
            }
        }
        self.next_done = next_done;
    }

    fn flush_after(&mut self, seq: Seq, redirect_to: u64) {
        let mut squashed = std::mem::take(&mut self.scratch.squashed);
        self.rob.flush_after_into(seq, &mut squashed);
        for e in &squashed {
            self.wakeup.clear(e.wakeup_slot);
            self.collision_cooldown[e.wakeup_slot] = 0;
            if let Stage::Executing { unit, done_at } = e.stage {
                let remaining = done_at.saturating_sub(self.cycle);
                if remaining == 0 {
                    self.fabric.clear_busy(unit);
                } else {
                    // Paper §3.2: a unit mid-execution stays busy (and
                    // non-reconfigurable) until its operation drains.
                    self.draining.push((unit, remaining));
                }
            }
        }
        self.squashed += squashed.len() as u64;
        self.flushes += 1;
        self.dispatch_buf.clear();
        self.fetch.redirect(redirect_to);
        self.scratch.squashed = squashed;
    }

    /// Edge-triggered stall-episode emission for the issue stage: an
    /// [`Event::Stall`] fires only when the attributed cause *changes*
    /// (`None` closes the episode silently).
    fn note_issue_stall(&mut self, cause: Option<StallCause>) {
        if !self.telemetry.enabled() || cause == self.issue_stall {
            return;
        }
        self.issue_stall = cause;
        if let Some(cause) = cause {
            self.telemetry.emit(Event::Stall { cause });
        }
    }

    /// Dispatch-stage counterpart of [`Machine::note_issue_stall`].
    fn note_dispatch_stall(&mut self, cause: Option<StallCause>) {
        if !self.telemetry.enabled() || cause == self.dispatch_stall {
            return;
        }
        self.dispatch_stall = cause;
        if let Some(cause) = cause {
            self.telemetry.emit(Event::Stall { cause });
        }
    }

    fn stage_issue(&mut self) {
        if self.wakeup.is_empty() {
            self.stalls.queue_empty += 1;
            self.note_issue_stall(Some(StallCause::QueueEmpty));
            return;
        }
        // Idle units per type and per-type configured-at-all counts come
        // from the fabric's incremental counters — no unit scan.
        let idle = self.fabric.idle_counts();
        let configured = self.fabric.configured_counts();
        let mut avail = [false; 5];
        for &t in &UnitType::ALL {
            avail[t.index()] = idle.get(t) > 0;
            debug_assert_eq!(avail[t.index()], self.fabric.available(t));
        }
        // Stat: a waiting entry whose unit type is not configured at all
        // (the wake-up array's unscheduled and per-type masks give the
        // per-type waiting population without a slot scan).
        let unscheduled = self.wakeup.demand_unscheduled();
        if UnitType::ALL
            .iter()
            .any(|&t| unscheduled.get(t) > 0 && configured.get(t) == 0)
        {
            self.stalls.unit_unconfigured += 1;
        }

        // How many entries would request with every resource available:
        // exactly the ready mask's population.
        let ready_any = self.wakeup.ready().count_ones() as usize;
        // The grant list is taken out of the scratch space for the issue
        // loop, which borrows the machine broadly.
        let mut grants = std::mem::take(&mut self.scratch.grants);
        grants.clear();
        // With no request line up (nothing ready, or no idle unit of any
        // ready entry's type) there is nothing to arbitrate or grant.
        if self.wakeup.requesting(&avail) != 0 {
            self.issue_grants(&avail, &idle, &mut grants);
        }
        if ready_any > grants.len() {
            self.stalls.starved_requests += 1;
        }
        if self.telemetry.enabled() {
            // Attribute the stage's (lack of) progress after grants have
            // consumed their scheduled bits.
            let cause = rsp_sched::stall::classify_issue(
                self.wakeup.len(),
                ready_any,
                grants.len(),
                &self.wakeup.demand_unscheduled(),
                &configured,
            );
            self.note_issue_stall(cause);
        }
        self.scratch.grants = grants;
    }

    /// The issue stage's request collection, arbitration and per-grant
    /// execution, for a cycle with at least one request line up.
    fn issue_grants(&mut self, avail: &[bool; 5], idle: &TypeCounts, grants: &mut Vec<Grant>) {
        self.wakeup.requests_into(avail, &mut self.scratch.requests);
        // Select-free mode: slots in collision recovery cannot request.
        if let SelectMode::SelectFree { .. } = self.cfg.select_mode {
            let now = self.cycle;
            let cd = &self.collision_cooldown;
            self.scratch.requests.retain(|&s| cd[s] <= now);
        }
        arbitrate_into(&self.wakeup, &self.scratch.requests, idle, grants);
        // Select-free mode: requesting entries that fired into a
        // contended unit type collide and pay the recovery penalty.
        if let SelectMode::SelectFree { penalty } = self.cfg.select_mode {
            let mut granted: u64 = 0;
            for g in grants.iter() {
                granted |= 1 << g.slot;
            }
            for &s in &self.scratch.requests {
                if granted & (1 << s) == 0 {
                    // This entry asserted a request for a type whose idle
                    // units were oversubscribed this cycle: a collision.
                    self.collision_cooldown[s] = self.cycle + penalty.max(1) as u64;
                    self.collisions += 1;
                }
            }
        }
        for &g in grants.iter() {
            let tag = self.wakeup.get(g.slot).expect("granted slot occupied").tag;
            let unit = self
                .fabric
                .idle_unit(g.unit)
                .expect("arbiter only grants within idle counts");
            self.fabric.set_busy(unit);
            match unit {
                UnitId::Ffu(_) => self.issued_ffu += 1,
                UnitId::Rfu { .. } => self.issued_rfu += 1,
            }
            // Read the entry's fields, resolve operands, execute. Nothing
            // below retires or flushes, so one lookup serves both the read
            // and the write-back.
            let at = self
                .rob
                .index_of(tag)
                .expect("wake-up tag names a live entry");
            let (instr, pc, producers, dispatched_at) = {
                let e = self.rob.at(at).unwrap();
                (e.instr, e.pc, e.src_producers, e.dispatched_at)
            };
            let s1 = instr
                .src1
                .map(|r| operand_value(&self.rob, &self.regfile, r, producers[0]));
            let s2 = instr
                .src2
                .map(|r| operand_value(&self.rob, &self.regfile, r, producers[1]));
            let issued = execute(&instr, pc, s1, s2, &mut self.mem);
            let latency = self.cfg.latencies.of(instr.opcode.latency_class());
            let done_at = self.cycle + latency as u64;
            self.next_done = self.next_done.min(done_at);
            let e = self.rob.at_mut(at).unwrap();
            e.value = issued.value;
            e.resolved_next = issued.resolved_next;
            e.stage = Stage::Executing { unit, done_at };
            self.wakeup.grant(g.slot, latency);
            if self.telemetry.enabled() {
                self.telemetry
                    .record_cycles(Histo::QueueResidency, self.cycle - dispatched_at);
                if let (UnitId::Rfu { .. }, Some(decided)) = (unit, self.pending_decision) {
                    self.telemetry
                        .record_cycles(Histo::DecisionToGrant, self.cycle - decided);
                    self.pending_decision = None;
                }
            }
        }
    }

    fn stage_steer(&mut self) {
        let demand = self.current_demand();
        // Snapshot the busy mask *before* the policy runs: busy bits only
        // change in complete/issue (both precede steer) and in the fabric
        // tick (the last stage), so this one snapshot is what both the
        // loader's span-busy checks and the fault tick's idle-victim
        // check observed this cycle.
        let busy = if self.steer_log.is_some() {
            self.fabric.busy_mask()
        } else {
            0
        };
        let outcome = self
            .policy
            .tick(&demand, &mut self.fabric, &mut self.telemetry);
        if let Some(log) = &mut self.steer_log {
            log.push(SteerRecord {
                demand,
                busy,
                chosen: outcome.choice.map(|c| c.two_bit()),
                loads_started: outcome.loads_started as u8,
            });
        }
        if self.telemetry.enabled() {
            if let Some(c) = outcome.choice {
                if self.last_choice.is_some_and(|prev| prev != c) {
                    // A selection change opens a decision-to-grant latency
                    // window, closed by the next RFU issue.
                    self.pending_decision = Some(self.cycle);
                }
                self.last_choice = Some(c);
            }
        }
    }

    fn stage_dispatch(&mut self) {
        // Groups whose front-end latency elapsed become dispatchable now
        // (appended straight into the dispatch buffer; the fetch unit
        // recycles its group buffers).
        self.fetch.drain_into(self.cycle, &mut self.dispatch_buf);

        let mut queue_full = false;
        let mut rob_full = false;
        for _ in 0..self.cfg.dispatch_width {
            if self.dispatch_buf.is_empty() {
                break;
            }
            if self.wakeup.is_full() {
                self.stalls.queue_full += 1;
                queue_full = true;
                break;
            }
            if self.rob.is_full() {
                self.stalls.rob_full += 1;
                rob_full = true;
                break;
            }
            let f = self.dispatch_buf.pop_front().unwrap();
            // Dependency columns: register producers, plus the in-order
            // memory chain and branch chains (DESIGN.md §5 ordering
            // rules). Built in a scratch buffer reused across dispatches.
            let deps = &mut self.scratch.deps;
            deps.clear();
            let add_dep = |rob: &Rob, seq: Option<Seq>, deps: &mut Vec<usize>| {
                if let Some(e) = seq.and_then(|s| rob.get(s)) {
                    deps.push(e.wakeup_slot);
                }
            };
            for src in [f.instr.src1, f.instr.src2] {
                if let Some(r) = src.filter(|r| !r.is_hardwired_zero()) {
                    add_dep(&self.rob, self.rob.producer_of(r), deps);
                }
            }
            if f.instr.opcode.is_memory() {
                add_dep(&self.rob, self.rob.last_mem(), deps);
                add_dep(&self.rob, self.rob.last_branch(), deps);
            }
            if f.instr.opcode.is_control_flow() {
                // In-order branch resolution: lets the branch chain act as
                // a sound speculation guard for memory operations.
                add_dep(&self.rob, self.rob.last_branch(), deps);
            }
            deps.sort_unstable();
            deps.dedup();
            let tag = self.rob.next_seq();
            let slot = self
                .wakeup
                .insert(f.instr.unit_type(), &self.scratch.deps, tag)
                .expect("checked not full");
            let seq = self.rob.dispatch(&f, slot);
            debug_assert_eq!(seq, tag);
            if self.telemetry.enabled() {
                if let Some(e) = self.rob.get_mut(seq) {
                    e.dispatched_at = self.cycle;
                }
            }
        }
        self.note_dispatch_stall(rsp_sched::stall::classify_dispatch(queue_full, rob_full));
    }

    fn stage_fetch(&mut self) {
        // Backpressure: keep at most two groups' worth buffered.
        if self.dispatch_buf.len() < 2 * self.cfg.fetch_width {
            self.fetch.cycle(self.cycle);
        }
    }

    fn stage_tick(&mut self) {
        self.wakeup.tick();
        self.fabric.tick_into(&mut self.scratch.loads_done);
        if self.telemetry.enabled() {
            for pu in &self.scratch.loads_done {
                self.telemetry.emit(Event::LoadPlaced {
                    head: pu.head as u32,
                    unit: pu.unit,
                });
            }
            // Translate the fabric's per-tick fault events. `LoadPlaced`
            // is skipped: the fabric only pushes it when the fault model
            // is live, while `loads_done` above covers every run.
            for ev in self.fabric.fault_events() {
                match *ev {
                    FaultEvent::LoadFailed { head, unit } => {
                        self.telemetry.emit(Event::LoadFailed {
                            head: head as u32,
                            unit,
                        })
                    }
                    FaultEvent::UpsetInjected { head, unit } => {
                        self.telemetry.emit(Event::UpsetInjected {
                            head: head as u32,
                            unit,
                        })
                    }
                    FaultEvent::UpsetDetected { head, unit } => {
                        self.telemetry.emit(Event::UpsetDetected {
                            head: head as u32,
                            unit,
                        })
                    }
                    FaultEvent::ScrubPass { detected } => {
                        self.telemetry.emit(Event::ScrubPass { detected })
                    }
                    FaultEvent::LoadPlaced { .. } => {}
                }
            }
        }
        let mut i = 0;
        while i < self.draining.len() {
            self.draining[i].1 -= 1;
            if self.draining[i].1 == 0 {
                let (unit, _) = self.draining.swap_remove(i);
                self.fabric.clear_busy(unit);
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_isa::asm::assemble;
    use rsp_isa::semantics::ReferenceInterpreter;

    fn run_text(src: &str) -> (SimReport, Machine) {
        let p = assemble("t", src).unwrap();
        let proc = Processor::new(SimConfig::default());
        let mut m = proc.start(&p).unwrap();
        while m.cycle() < 100_000 && m.step() {}
        (m.report(), m)
    }

    /// Differential check against the golden model.
    fn check_vs_reference(src: &str) -> SimReport {
        let p = assemble("t", src).unwrap();
        let cfg = SimConfig::default();
        let mut reference = ReferenceInterpreter::new(DataMemory::new(cfg.data_mem_words));
        reference.run(&p.instrs, 1_000_000);
        assert!(reference.halted(), "reference did not halt");

        let proc = Processor::new(cfg);
        let mut m = proc.start(&p).unwrap();
        while m.cycle() < 1_000_000 && m.step() {}
        let r = m.report();
        assert!(r.halted, "simulator did not halt");
        assert_eq!(r.retired, reference.retired, "retired count diverged");
        assert_eq!(
            m.regfile().iregs(),
            reference.state.iregs(),
            "int registers diverged"
        );
        assert_eq!(
            m.regfile().fregs(),
            reference.state.fregs(),
            "fp registers diverged"
        );
        assert_eq!(m.mem().cells(), reference.mem.cells(), "memory diverged");
        r
    }

    #[test]
    fn straight_line_arithmetic() {
        let r = check_vs_reference(
            "addi r1, r0, 6\naddi r2, r0, 7\nmul r3, r1, r2\nsub r4, r3, r1\nhalt",
        );
        assert_eq!(r.retired, 5);
        assert!(r.cycles > 0);
    }

    #[test]
    fn retired_mix_sums_to_retired_past_a_byte() {
        // 300 iterations of addi/addi/bne: 902 retired, all on the
        // integer ALU (branches and halt included), far past the 255 a
        // byte counter could hold.
        let r = check_vs_reference(
            "addi r1, r0, 300\nloop: addi r2, r2, 1\naddi r1, r1, -1\nbne r1, r0, loop\nhalt",
        );
        assert!(r.retired > 255, "retired {}", r.retired);
        assert_eq!(r.retired_mix.total(), r.retired, "mix {}", r.retired_mix);
        assert!(r.retired_mix.get(UnitType::IntAlu) > 255);
    }

    #[test]
    fn loop_with_branches() {
        check_vs_reference(
            "addi r1, r0, 10\nloop: add r2, r2, r1\naddi r1, r1, -1\nbne r1, r0, loop\nhalt",
        );
    }

    #[test]
    fn memory_ordering_store_then_load() {
        check_vs_reference("addi r1, r0, 42\nsw r1, 5(r0)\nlw r2, 5(r0)\naddi r3, r2, 1\nhalt");
    }

    #[test]
    fn fp_pipeline() {
        check_vs_reference(
            "addi r1, r0, 9\nfcvt.i.f f1, r1\nfsqrt f2, f1\nfmul f3, f2, f2\nfcvt.f.i r2, f3\nhalt",
        );
    }

    #[test]
    fn taken_branch_flushes_wrong_path() {
        let (r, m) =
            run_text("addi r1, r0, 1\nbne r1, r0, 3\naddi r2, r0, 99\naddi r3, r0, 98\nhalt");
        assert!(r.flushes >= 1, "taken branch must flush");
        assert_eq!(
            m.regfile().iregs()[2],
            0,
            "wrong-path write must not commit"
        );
        assert_eq!(m.regfile().iregs()[3], 0);
        assert_eq!(r.retired, 3, "addi, bne, halt");
    }

    #[test]
    fn wrong_path_stores_never_reach_memory() {
        // bne jumps over a store; the store must not execute even
        // speculatively.
        let (_, m) = run_text("addi r1, r0, 1\nbne r1, r0, 3\nsw r1, 7(r0)\nnop\nhalt");
        assert_eq!(m.mem().load_int(7), 0, "speculative store leaked");
    }

    #[test]
    fn jal_and_jalr_flow() {
        check_vs_reference("jal r31, 3\naddi r9, r0, 1\nhalt\naddi r5, r0, 7\njalr r0, r31, 0");
    }

    #[test]
    fn fall_off_end_via_out_of_range_jalr() {
        // jalr to an index past the program end: the front end drains and
        // the machine halts after retiring everything — matching the
        // reference interpreter's fall-off-the-end rule.
        let (r, _) = run_text("addi r1, r0, 100\njalr r0, r1, 0");
        assert!(r.halted);
        assert_eq!(r.retired, 2);
    }

    #[test]
    fn out_of_order_issue_overlaps_latencies() {
        // A long divide followed by independent adds: the adds must
        // retire without waiting ~12 cycles each.
        let (r, _) = run_text(
            "addi r1, r0, 100\naddi r2, r0, 7\ndiv r3, r1, r2\n\
             addi r4, r0, 1\naddi r5, r0, 2\naddi r6, r0, 3\nhalt",
        );
        // In-order would take > 12 cycles for the divide alone; the
        // machine must overlap: total well under divide latency + 5.
        assert!(r.retired == 7);
        assert!(r.cycles < 30, "no overlap? took {} cycles", r.cycles);
    }

    #[test]
    fn deterministic_across_runs() {
        let src = "addi r1, r0, 50\nloop: mul r2, r1, r1\naddi r1, r1, -1\nbne r1, r0, loop\nhalt";
        let (a, _) = run_text(src);
        let (b, _) = run_text(src);
        assert_eq!(a, b);
    }

    #[test]
    fn faults_degrade_timing_but_never_correctness() {
        use rsp_fabric::fault::{FaultParams, PPM};
        let src = "addi r1, r0, 40\nloop: mul r2, r1, r1\nfcvt.i.f f1, r2\nfmul f2, f1, f1\n\
                   addi r1, r1, -1\nbne r1, r0, loop\nhalt";
        let p = assemble("t", src).unwrap();
        let mut reference = ReferenceInterpreter::new(DataMemory::new(4096));
        reference.run(&p.instrs, 1_000_000);

        let run = |faults: FaultParams| {
            let mut cfg = SimConfig::default();
            cfg.fabric.faults = faults;
            let proc = Processor::new(cfg);
            let mut m = proc.start(&p).unwrap();
            while m.cycle() < 1_000_000 && m.step() {}
            let r = m.report();
            assert!(r.halted, "faulty run must still halt");
            assert_eq!(r.retired, reference.retired, "retired diverged");
            assert_eq!(m.regfile().iregs(), reference.state.iregs());
            assert_eq!(m.regfile().fregs(), reference.state.fregs());
            r
        };
        let clean = run(FaultParams::default());
        // Brutal fault environment: every load fails half the time, an
        // upset strikes every 20 cycles on average, slot 3 is dead.
        let faulty = run(FaultParams {
            seed: 9,
            load_failure_ppm: PPM / 2,
            upset_ppm: PPM / 20,
            scrub_interval: 64,
            dead_slots: vec![3],
        });
        assert!(faulty.faults.upsets_injected > 0, "{:?}", faulty.faults);
        assert!(faulty.faults.scrubs > 0);
        assert!(
            faulty.cycles >= clean.cycles,
            "faults can only slow the machine: {} < {}",
            faulty.cycles,
            clean.cycles
        );
        assert_eq!(clean.faults, Default::default());
        let l = &faulty.loader;
        assert!(
            l.load_failures > 0 || l.skipped_dead > 0,
            "loader must see fault events: {l:?}"
        );
    }

    #[test]
    fn report_policy_fields() {
        let (r, _) = run_text("nop\nhalt");
        assert_eq!(r.policy, "paper-steering");
        assert!(
            !r.loader.selections.is_empty(),
            "paper policy must report per-config selection counts"
        );
        let p = assemble("t", "nop\nhalt").unwrap();
        let mut proc = Processor::new(SimConfig::static_on(1));
        let r = proc.run(&p, 1000).unwrap();
        assert_eq!(r.policy, "static:Config 2");
        assert_eq!(
            r.loader,
            LoaderStats::default(),
            "policies without a loader report all-default counters"
        );
        assert_eq!(r.fabric.loads_started, 0);
    }

    #[test]
    fn cycle_budget_stops_infinite_loop() {
        let p = assemble("t", "loop: jal r0, loop\nhalt").unwrap();
        let mut proc = Processor::new(SimConfig::default());
        let r = proc.run(&p, 500).unwrap();
        assert!(!r.halted);
        assert_eq!(r.cycles, 500);
    }

    #[test]
    fn bimodal_predictor_removes_loop_flushes() {
        // A counted loop whose back edge is taken 39 times: under
        // not-taken prediction every taken edge flushes; bimodal learns
        // it after two iterations.
        let src = "addi r1, r0, 40\nloop: add r2, r2, r1\naddi r1, r1, -1\nbne r1, r0, loop\nhalt";
        let p = assemble("t", src).unwrap();
        let not_taken = Processor::new(SimConfig::default())
            .run(&p, 100_000)
            .unwrap();
        let cfg = SimConfig {
            branch_prediction: crate::config::BranchPrediction::Bimodal { entries: 128 },
            ..SimConfig::default()
        };
        let mut proc = Processor::new(cfg);
        let bimodal = proc.run(&p, 100_000).unwrap();
        assert_eq!(bimodal.retired, not_taken.retired);
        assert!(
            bimodal.flushes < not_taken.flushes / 4,
            "bimodal {} vs not-taken {} flushes",
            bimodal.flushes,
            not_taken.flushes
        );
        assert!(
            bimodal.ipc() > not_taken.ipc(),
            "bimodal {:.3} vs not-taken {:.3}",
            bimodal.ipc(),
            not_taken.ipc()
        );
    }

    #[test]
    fn select_free_collisions_cost_cycles_but_preserve_results() {
        // Four independent ALU ops on a machine with exactly one ALU:
        // in select-free mode the three losers collide and replay.
        let src = "addi r1, r0, 1\naddi r2, r0, 2\naddi r3, r0, 3\naddi r4, r0, 4\nhalt";
        let p = assemble("t", src).unwrap();
        let mut base = SimConfig {
            policy: PolicyKind::Static,
            initial_config: None,
            ..SimConfig::default()
        };
        base.fabric.ffus = vec![UnitType::IntAlu];

        let arb = Processor::new(base.clone()).run(&p, 10_000).unwrap();
        let mut sf_cfg = base.clone();
        sf_cfg.select_mode = crate::config::SelectMode::SelectFree { penalty: 2 };
        let proc = Processor::new(sf_cfg);
        let mut m = proc.start(&p).unwrap();
        while m.cycle() < 10_000 && m.step() {}
        let sf = m.report();

        assert_eq!(arb.collisions, 0);
        assert!(sf.collisions > 0, "oversubscription must collide");
        assert!(sf.cycles >= arb.cycles, "collisions cannot speed things up");
        assert_eq!(sf.retired, arb.retired);
        assert_eq!(m.regfile().iregs()[1..=4], [1, 2, 3, 4]);
    }

    #[test]
    fn bad_program_rejected() {
        let p = Program::new("bad", vec![]);
        let proc = Processor::new(SimConfig::default());
        assert!(matches!(proc.start(&p), Err(RunError::BadProgram(_))));
    }
}

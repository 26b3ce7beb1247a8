//! The serve engine: admission, batched stepping, retirement.
//!
//! [`ServeEngine`] owns the machine fleet and multiplexes admitted
//! tenants over it in round-robin quanta:
//!
//! * **Scalar tenants** (program streams) lease a `Machine` from the
//!   [`MachinePool`]; each tick they step up to one scheduler quantum
//!   of cycles, and on completion their telemetry ring moves, unrendered,
//!   into the tenant router and the machine returns to the pool.
//! * **Lane tenants** (demand-trace streams whose config fits the
//!   [`LaneParams::from_config`] envelope) are packed 64-per-word onto
//!   a shared [`LaneBatch`]: activated tenants with an identical
//!   effective config and weight join one *lane group* at group
//!   cycle 0 — immediately with [`EngineConfig::pack_hold_ticks`] = 0,
//!   or after waiting up to that many ticks for peers so groups pack
//!   closer to full words — so every lane's history starts from reset,
//!   the property
//!   that makes a lane tenant bit-identically replayable offline at
//!   lane 0 of a fresh batch (per-lane independence is pinned by the
//!   `lanes_differential` suite, which is why lane groups require a
//!   fault-free config: fault streams are keyed by *physical* lane
//!   index and would break placement-independence).
//!
//! Determinism: a tenant's behaviour depends only on `(spec, seed,
//! policy, base config)` — never on arrival time, queue position, or
//! which machine/lane it landed on. [`replay`] re-derives any tenant's
//! telemetry from its request alone; the engine test suite and the
//! `serve-saturation` harness assert byte identity. Nor does it depend
//! on threads: a tick steps its scalar tenants' machines on scoped
//! worker threads, then makes every shared write serially in visit
//! order (DESIGN.md §14), so the worker count never changes output. A
//! sharded fleet runs the same three tick phases — serial prepare, step
//! phase, serial finish — with one step phase for all its shards.

use crate::protocol::RefusedFrames;
use crate::route::{LaneRecord, TenantLog, TenantRouter};
use crate::scheduler::{LoadSnapshot, ShedReason, SpecNote, WatermarkScheduler};
use crate::slo::{MetricsFrame, SloRegistry, TenantMetrics};
use crate::tenant::{tenant_key, TenantPhase, TenantRequest, TenantStatus, MAX_TELEMETRY_CAPACITY};
use rsp_isa::units::UnitType;
use rsp_obs::{
    FleetEntry, FleetEvent, FlightRecorder, Telemetry, TriggerKind, DEFAULT_FLIGHT_CAPACITY,
    DEFAULT_SHED_STORM_THRESHOLD, DEFAULT_SHED_STORM_WINDOW,
};
use rsp_sim::lanes::{LaneBatch, LaneParams};
use rsp_sim::pool::{MachinePool, PoolStats};
use rsp_sim::processor::Machine;
use rsp_sim::{LaneStimulus, Processor, SimConfig};
use rsp_workloads::QueueRow;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::Mutex;

/// Lanes per lane group — one bit-plane word of the lane kernel.
pub const LANES_PER_GROUP: usize = 64;

/// Granted cycles each step-phase worker must get before the phase
/// fans out to it: two base quanta of the default scheduler (2 × 256 =
/// 512 cycles), about 120 µs of stepping at the scalar machine's
/// ~4.2 M cycles/s. That pays more than twice for the 35–55 µs a scoped
/// spawn and join costs on a 2-vCPU host, while an open-loop tick with
/// 1–3 tenants (at most 768 cycles) stays inline and its latency never
/// waits on a spawn. See [`step_workers`].
const MIN_WORKER_CYCLES: u64 = 2 * 256;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Base machine configuration; a tenant's [`TenantRequest::policy`]
    /// overrides only the `policy` field.
    pub base: SimConfig,
    /// Idle machines the [`MachinePool`] retains.
    pub pool_capacity: usize,
    /// Maintain per-tenant SLO metrics (DESIGN.md §15). Disabled, every
    /// SLO hook is one branch.
    pub slo: bool,
    /// Flight-recorder ring capacity in entries (0 = recorder off).
    pub flight_capacity: usize,
    /// Sheds inside one detection window that trip a flight dump
    /// (0 = storm detection off).
    pub shed_storm_threshold: u32,
    /// Shed-storm detection window, in engine ticks.
    pub shed_storm_window: u64,
    /// Write flight-recorder dumps here on anomaly triggers (`None` =
    /// keep in memory only; [`ServeEngine::flight_jsonl`] still works).
    pub flight_dir: Option<PathBuf>,
    /// Replay-audit every Nth completed scalar tenant: re-run it
    /// offline via [`replay`] and trip a [`TriggerKind::ReplayMismatch`]
    /// flight dump if the telemetry diverges (0 = off; the audit costs
    /// a full offline re-run per sampled tenant).
    pub replay_audit_every: u64,
    /// Deferred lane-group formation: hold an activated lane tenant up
    /// to this many ticks waiting for envelope-compatible peers, so
    /// groups pack closer to 64 lanes per word. 0 (the default) forms
    /// groups the tick tenants activate — the pre-hold behaviour. The
    /// hold is visible in the `admit_to_first_step` SLO histogram: a
    /// held tenant's first quantum is delayed by exactly its hold.
    pub pack_hold_ticks: u64,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            base: SimConfig::default(),
            pool_capacity: 32,
            slo: true,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
            shed_storm_threshold: DEFAULT_SHED_STORM_THRESHOLD,
            shed_storm_window: DEFAULT_SHED_STORM_WINDOW,
            flight_dir: None,
            replay_audit_every: 0,
            pack_hold_ticks: 0,
        }
    }
}

/// Aggregate engine counters (the serve `Stats` wire payload).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Ticks executed.
    pub ticks: u64,
    /// Submissions received (admitted + shed).
    pub submitted: u64,
    /// Submissions admitted into the queue.
    pub admitted: u64,
    /// Tenants that ran to completion.
    pub completed: u64,
    /// Tenants whose activation failed server-side.
    pub failed: u64,
    /// Sheds at the queue-depth watermark.
    pub shed_queue_full: u64,
    /// Sheds at the step-lag watermark.
    pub shed_step_lag: u64,
    /// Sheds for invalid/unservable specs.
    pub shed_bad_spec: u64,
    /// Tenants currently queued.
    pub queued: usize,
    /// Tenants currently active (scalar + lane).
    pub active: usize,
    /// Total tenant-cycles stepped.
    pub stepped_cycles: u64,
    /// Live lane groups (64-lane batches currently stepping).
    #[serde(default)]
    pub lane_groups: usize,
    /// Live lane tenants across all groups (lane-group occupancy).
    #[serde(default)]
    pub lane_tenants: usize,
    /// Activated lane tenants held for group packing (not yet stepping).
    #[serde(default)]
    pub lane_pending: usize,
    /// Lane groups formed over the engine's lifetime (with
    /// `lane_tenants` completions this yields mean group fill).
    #[serde(default)]
    pub lane_groups_formed: u64,
    /// Machine-pool lease/reuse counters.
    pub pool: PoolStats,
    /// Frames the server refused, by class. Counted by the server
    /// around its engine; an engine driven in process counts none.
    #[serde(default)]
    pub refused: RefusedFrames,
}

impl EngineStats {
    /// All sheds, over all reasons.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full + self.shed_step_lag + self.shed_bad_spec
    }
}

struct QueuedTenant {
    id: u64,
    req: TenantRequest,
    enqueued_tick: u64,
}

struct ScalarTenant {
    id: u64,
    cfg: SimConfig,
    machine: Machine,
    budget: u64,
    /// Fair-share weight ([`rsp_workloads::StreamSpec::effective_weight`]).
    weight: u32,
    /// Deficit-round-robin carry-over: credit deferred by the burst
    /// cap, itself bounded by one burst.
    deficit: u64,
    /// The original request, kept only when this tenant is sampled for
    /// a completion-time replay audit.
    audit_req: Option<TenantRequest>,
}

struct LaneTenant {
    id: u64,
    /// The transitions stepped so far, handed to the router when the
    /// tenant completes.
    records: Vec<LaneRecord>,
    rows: Vec<QueueRow>,
    budget: u64,
    done: bool,
}

/// An activated lane tenant waiting (up to `pack_hold_ticks`) for
/// envelope-compatible peers before a group forms around it.
struct PendingLane {
    cfg: SimConfig,
    weight: u32,
    since_tick: u64,
    tenant: LaneTenant,
}

struct LaneGroup {
    batch: LaneBatch,
    tenants: Vec<LaneTenant>,
    cursor: u64,
    /// Shared fair-share weight (groups are keyed by config *and*
    /// weight so lockstep stepping serves every member at its weight).
    weight: u32,
    deficit: u64,
}

impl LaneGroup {
    fn live(&self) -> usize {
        self.tenants.iter().filter(|t| !t.done).count()
    }
}

/// The serve engine (see module docs).
pub struct ServeEngine {
    cfg: EngineConfig,
    scheduler: WatermarkScheduler,
    pool: MachinePool,
    router: TenantRouter,
    queue: VecDeque<QueuedTenant>,
    scalars: Vec<ScalarTenant>,
    pending: Vec<PendingLane>,
    groups: Vec<LaneGroup>,
    statuses: BTreeMap<u64, TenantStatus>,
    next_id: u64,
    tick: u64,
    stats: EngineStats,
    slo: SloRegistry,
    flight: FlightRecorder,
    dump_seq: u64,
    /// Step-phase worker threads, the caller's included
    /// ([`std::thread::available_parallelism`], read once: on Linux it
    /// reads cgroup files, too slow for every tick).
    workers: usize,
    /// Per-scalar grants, overwritten with the cycles actually stepped;
    /// index-aligned with `scalars` and reused across ticks.
    quanta: Vec<u64>,
    /// Lane-group stimulus, refilled in place for each group each tick.
    /// One for the engine rather than one per group: a group's
    /// stimulus is dead between its ticks, and per-group buffers would
    /// keep tens of KiB alive for every live group.
    stim: LaneStimulus,
}

/// The tenant's effective machine config: base + policy override.
pub(crate) fn effective_cfg(base: &SimConfig, req: &TenantRequest) -> SimConfig {
    let mut cfg = base.clone();
    if let Some(p) = req.policy {
        cfg.policy = p;
    }
    cfg
}

fn telemetry_for(capacity: usize) -> Telemetry {
    if capacity > 0 {
        Telemetry::ring(capacity)
    } else {
        Telemetry::counting()
    }
}

/// Load one recorded queue row into `stim` (unit types decoded into a
/// stack slice; the serving path calls this per lane per cycle).
fn set_stim_row(stim: &mut LaneStimulus, lane: usize, cycle: usize, row: &QueueRow) {
    let mut units = [UnitType::IntAlu; 7];
    let len = row.len as usize;
    for (u, &t) in units.iter_mut().zip(&row.types[..len]) {
        *u = UnitType::ALL[t as usize];
    }
    stim.set_row(lane, cycle, &units[..len]);
}

/// A `BadSpec` shed with the detail rendered into an inline
/// [`SpecNote`] (truncating, never allocating on the shed path itself).
fn bad_spec(msg: impl std::fmt::Display) -> ShedReason {
    ShedReason::BadSpec(SpecNote::new(msg))
}

/// One tenant's deficit-round-robin grant for this tick: earn `credit`,
/// spend at most `burst`, carry the rest (bounded by one burst).
fn drr_grant(deficit: &mut u64, credit: u64, burst: u64) -> u64 {
    let earned = deficit.saturating_add(credit);
    let grant = earned.min(burst);
    *deficit = (earned - grant).min(burst);
    grant
}

/// A run of scalar tenants lent to the step phase, with their grants:
/// one engine's whole `scalars` list. `quanta[i]` is `tenants[i]`'s
/// grant in cycles.
pub(crate) struct StepRun<'a> {
    tenants: &'a mut [ScalarTenant],
    quanta: &'a mut [u64],
}

impl StepRun<'_> {
    /// Every tenant of the run with its grant, in visit order.
    fn iter_mut(&mut self) -> impl Iterator<Item = (&mut ScalarTenant, &mut u64)> + Send {
        self.tenants.iter_mut().zip(self.quanta.iter_mut())
    }
}

/// Step `s` up to its grant `q`, then overwrite the grant with the
/// cycles it actually stepped. It touches nothing but the tenant's own
/// machine — the zero-alloc hot loop — so any thread may run it.
fn step_tenant((s, q): (&mut ScalarTenant, &mut u64)) {
    let mut stepped = 0;
    while stepped < *q && !s.machine.finished() && s.machine.cycle() < s.budget {
        s.machine.step();
        stepped += 1;
    }
    *q = stepped;
}

/// Threads a step phase with `total` granted cycles over `scalars`
/// tenants uses, out of `workers` available (the caller's included):
/// one per [`MIN_WORKER_CYCLES`] of work, never more than there are
/// tenants or workers. At most 1 means step inline. In a
/// [`ShardedEngine`](crate::ShardedEngine) `total` and `scalars` are the
/// whole fleet's, whose shards share one step phase.
fn step_workers(workers: usize, scalars: usize, total: u128) -> usize {
    let by_work = total / u128::from(MIN_WORKER_CYCLES);
    workers
        .min(scalars)
        .min(usize::try_from(by_work).unwrap_or(usize::MAX))
}

/// The step phase: [`step_tenant`] over every run's tenants on
/// [`step_workers`] threads, the caller's included. The threads take
/// tenants one at a time, in visit order, off one shared queue, so a
/// fleet's shards share one fan-out and a thread the host deschedules
/// holds up only the tenant it is stepping.
pub(crate) fn step_fan_out(runs: &mut [StepRun<'_>], workers: usize) {
    // `u128`: grants are budget-clamped, and budgets may be near `u64::MAX`.
    let total: u128 = runs
        .iter()
        .flat_map(|r| r.quanta.iter())
        .map(|&q| u128::from(q))
        .sum();
    let scalars = runs.iter().map(|r| r.tenants.len()).sum();
    let workers = step_workers(workers, scalars, total);
    let queue = runs.iter_mut().flat_map(StepRun::iter_mut);
    if workers <= 1 {
        return queue.for_each(step_tenant);
    }
    let queue = Mutex::new(queue);
    // The lock is held only to take the next tenant, never while
    // stepping it. Workers run only the step loop, so they allocate
    // nothing (`zero_alloc_step_workers`).
    let work = || loop {
        let next = queue
            .lock()
            .expect("no thread panics holding the queue")
            .next();
        match next {
            Some(tenant) => step_tenant(tenant),
            None => break,
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
}

/// Validate a request against the engine's base config; the error is
/// the `BadSpec` shed reason.
pub(crate) fn check_request(base: &SimConfig, req: &TenantRequest) -> Result<(), ShedReason> {
    if req.telemetry_capacity > MAX_TELEMETRY_CAPACITY {
        return Err(bad_spec(format_args!(
            "telemetry_capacity {} exceeds the cap of {MAX_TELEMETRY_CAPACITY} events",
            req.telemetry_capacity
        )));
    }
    req.spec.validate().map_err(bad_spec)?;
    let cfg = effective_cfg(base, req);
    cfg.validate().map_err(bad_spec)?;
    if req.spec.is_lane() {
        if cfg.fabric.faults.enabled() {
            return Err(bad_spec(
                "lane tenants require a fault-free config (fault streams are keyed \
                 by physical lane and would break replay)",
            ));
        }
        LaneParams::from_config(&cfg).map_err(bad_spec)?;
        let trace = req.spec.lane_trace().map_err(bad_spec)?;
        if trace.queue_len as usize > cfg.queue_size {
            return Err(bad_spec(format_args!(
                "lane trace queue_len {} exceeds config queue size {}",
                trace.queue_len, cfg.queue_size
            )));
        }
    }
    Ok(())
}

impl ServeEngine {
    /// An engine with the default watermark scheduler.
    pub fn with_defaults(cfg: EngineConfig) -> ServeEngine {
        ServeEngine::new(cfg, WatermarkScheduler::default())
    }

    /// A fresh engine over an empty fleet.
    pub fn new(cfg: EngineConfig, scheduler: WatermarkScheduler) -> ServeEngine {
        let pool = MachinePool::new(cfg.pool_capacity);
        let slo = SloRegistry::new(cfg.slo);
        let mut flight = FlightRecorder::new(cfg.flight_capacity);
        flight.set_shed_storm(cfg.shed_storm_threshold, cfg.shed_storm_window);
        ServeEngine {
            cfg,
            scheduler,
            pool,
            router: TenantRouter::default(),
            queue: VecDeque::new(),
            scalars: Vec::new(),
            pending: Vec::new(),
            groups: Vec::new(),
            statuses: BTreeMap::new(),
            next_id: 0,
            tick: 0,
            stats: EngineStats::default(),
            slo,
            flight,
            dump_seq: 0,
            workers: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            quanta: Vec::new(),
            stim: LaneStimulus::new(LANES_PER_GROUP, 1, 1, 1),
        }
    }

    /// Override the step phase's worker-thread count (default: the
    /// host's available parallelism, read once at construction). No
    /// output of the engine depends on it — `tick_parallel_determinism`
    /// pins that across counts. A fleet's shards step under the fleet's
    /// count instead ([`ShardedEngine::set_step_workers`](crate::ShardedEngine::set_step_workers)).
    pub fn set_step_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    fn load(&self) -> LoadSnapshot {
        let step_lag = self
            .queue
            .front()
            .map_or(0, |q| self.tick - q.enqueued_tick);
        LoadSnapshot {
            queued: self.queue.len(),
            active: self.scalars.len()
                + self.pending.len()
                + self.groups.iter().map(LaneGroup::live).sum::<usize>(),
            step_lag,
        }
    }

    /// Submit a tenant: admitted (or shed) at the watermarks, then
    /// validated. Every shed is counted (never silently dropped). The
    /// load gate runs first so an overload shed never pays spec
    /// validation — the shed hot path stays allocation-free.
    pub fn submit(&mut self, req: TenantRequest) -> Result<u64, ShedReason> {
        self.stats.submitted += 1;
        let gate = self
            .scheduler
            .admit(&self.load())
            .and_then(|()| check_request(&self.cfg.base, &req));
        if let Err(reason) = gate {
            match reason {
                ShedReason::QueueFull => self.stats.shed_queue_full += 1,
                ShedReason::StepLag => self.stats.shed_step_lag += 1,
                ShedReason::BadSpec(_) => self.stats.shed_bad_spec += 1,
            }
            self.slo.shed(reason.kind());
            let stormed = self.flight.record(FleetEntry {
                tick: self.tick,
                tenant: None,
                event: FleetEvent::Shed {
                    reason: reason.kind(),
                },
            });
            if stormed {
                self.flight_trigger(TriggerKind::ShedStorm);
            }
            return Err(reason);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.statuses.insert(
            id,
            TenantStatus {
                id,
                name: req.spec.name.clone(),
                phase: TenantPhase::Queued,
                cycles: 0,
                halted: false,
                lane: req.spec.is_lane(),
            },
        );
        self.queue.push_back(QueuedTenant {
            id,
            req,
            enqueued_tick: self.tick,
        });
        self.stats.admitted += 1;
        self.slo.admit(id, self.tick);
        self.flight.record(FleetEntry {
            tick: self.tick,
            tenant: Some(id),
            event: FleetEvent::Admitted,
        });
        Ok(id)
    }

    fn fail(&mut self, id: u64) {
        if let Some(s) = self.statuses.get_mut(&id) {
            s.phase = TenantPhase::Failed;
        }
        self.stats.failed += 1;
        self.flight.record(FleetEntry {
            tick: self.tick,
            tenant: Some(id),
            event: FleetEvent::ActivationFailed,
        });
    }

    fn activate(&mut self, q: QueuedTenant) {
        let cfg = effective_cfg(&self.cfg.base, &q.req);
        let budget = q.req.spec.max_cycles;
        let weight = q.req.spec.effective_weight();
        self.slo.activate(q.id, self.tick);
        self.flight.record(FleetEntry {
            tick: self.tick,
            tenant: Some(q.id),
            event: FleetEvent::Activated {
                queued_ticks: self.tick.saturating_sub(q.enqueued_tick),
            },
        });
        if q.req.spec.is_lane() {
            let trace = match q.req.spec.lane_trace() {
                Ok(t) => t,
                Err(_) => return self.fail(q.id),
            };
            // The trace lane index is always 0 — independent of the
            // physical lane the tenant lands on — so replay needs only
            // the request.
            let rows = trace.generate_lane(0);
            let budget = budget.min(rows.len() as u64);
            self.pending.push(PendingLane {
                cfg,
                weight,
                since_tick: self.tick,
                tenant: LaneTenant {
                    id: q.id,
                    records: Vec::new(),
                    rows,
                    budget,
                    done: false,
                },
            });
        } else {
            let program = match q.req.spec.program() {
                Ok(p) => p,
                Err(_) => return self.fail(q.id),
            };
            let mut machine = match self.pool.lease(&cfg, &program) {
                Ok(m) => m,
                Err(_) => return self.fail(q.id),
            };
            machine.set_telemetry(telemetry_for(q.req.telemetry_capacity));
            let every = self.cfg.replay_audit_every;
            // `is_multiple_of` needs Rust 1.87; the workspace MSRV is 1.82.
            #[allow(unknown_lints, clippy::manual_is_multiple_of)]
            let audit_req = (every > 0 && q.id % every == 0).then(|| q.req.clone());
            self.scalars.push(ScalarTenant {
                id: q.id,
                cfg,
                machine,
                budget,
                weight,
                deficit: 0,
                audit_req,
            });
        }
        if let Some(s) = self.statuses.get_mut(&q.id) {
            s.phase = TenantPhase::Running;
        }
    }

    /// One engine tick: the three phases a fleet tick runs over every
    /// shard ([`ShardedEngine::tick`](crate::ShardedEngine::tick)) — a
    /// serial prepare (activation, lane-group formation, grants), the
    /// step phase over this engine's scalar tenants, and a serial finish
    /// (bookkeeping, lane groups, the SLO tick's close).
    pub fn tick(&mut self) {
        self.prepare_tick();
        let workers = self.workers;
        step_fan_out(&mut [self.step_run()], workers);
        self.finish_tick();
    }

    /// The serial first phase of a tick: activate queued tenants up to
    /// the scheduler's ceiling, form due lane groups, and take every
    /// scalar tenant's deficit-round-robin grant into `quanta`. Grants
    /// are per-tenant state, so the order they are taken in does not
    /// matter; clamping to the budget left only sharpens the step
    /// phase's worker count (stepping stops there anyway).
    pub(crate) fn prepare_tick(&mut self) {
        self.tick += 1;
        self.stats.ticks += 1;
        let n = self.scheduler.activations(&self.load());
        for _ in 0..n {
            let Some(q) = self.queue.pop_front() else {
                break;
            };
            self.activate(q);
        }
        self.form_groups();
        let ServeEngine {
            scheduler,
            scalars,
            quanta,
            ..
        } = self;
        let burst = scheduler.burst();
        quanta.clear();
        quanta.extend(scalars.iter_mut().map(|s| {
            let grant = drr_grant(&mut s.deficit, scheduler.credit(s.weight), burst);
            grant.min(s.budget.saturating_sub(s.machine.cycle()))
        }));
    }

    /// The scalar tenants and their grants, lent to the step phase
    /// ([`step_fan_out`]) between [`prepare_tick`](Self::prepare_tick)
    /// and [`finish_tick`](Self::finish_tick).
    pub(crate) fn step_run(&mut self) -> StepRun<'_> {
        StepRun {
            tenants: &mut self.scalars,
            quanta: &mut self.quanta,
        }
    }

    /// The serial last phase of a tick: the scalar bookkeeping in visit
    /// order, then the lane groups' stepping (their transition records
    /// allocate, so it stays off the step phase), then the SLO tick's
    /// close.
    pub(crate) fn finish_tick(&mut self) {
        self.record_scalar_steps();
        self.step_groups();
        self.slo.end_tick();
    }

    /// Pack pending lane tenants into groups of identical config and
    /// weight, at most [`LANES_PER_GROUP`] per group, all starting at
    /// group cycle 0. A bucket is *due* when it can fill a whole word
    /// or its oldest member has waited [`EngineConfig::pack_hold_ticks`]
    /// (so with the default hold of 0 every bucket is due the tick it
    /// activates). Members join oldest-first; membership order never
    /// affects telemetry (per-lane placement independence).
    fn form_groups(&mut self) {
        let hold = self.cfg.pack_hold_ticks;
        loop {
            // `pending` is in activation order, so the first due
            // tenant seeds the oldest due bucket.
            let seed = self.pending.iter().position(|p| {
                let bucket = self
                    .pending
                    .iter()
                    .filter(|q| q.cfg == p.cfg && q.weight == p.weight)
                    .count();
                bucket >= LANES_PER_GROUP || self.tick.saturating_sub(p.since_tick) >= hold
            });
            let Some(first) = seed else {
                break;
            };
            let p = self.pending.remove(first);
            let (cfg, weight) = (p.cfg, p.weight);
            let mut members = vec![p.tenant];
            let mut i = 0;
            while i < self.pending.len() && members.len() < LANES_PER_GROUP {
                if self.pending[i].cfg == cfg && self.pending[i].weight == weight {
                    members.push(self.pending.remove(i).tenant);
                } else {
                    i += 1;
                }
            }
            match LaneBatch::new(&cfg, LANES_PER_GROUP) {
                Ok(batch) => {
                    self.stats.lane_groups_formed += 1;
                    self.groups.push(LaneGroup {
                        batch,
                        tenants: members,
                        cursor: 0,
                        weight,
                        deficit: 0,
                    });
                }
                Err(_) => {
                    for t in members {
                        self.fail(t.id);
                    }
                }
            }
        }
    }

    /// Record what the step phase did, serially in visit order
    /// (DESIGN.md §14): stats, SLO quanta, flight entries and statuses
    /// for every scalar tenant, then completion for the finished ones —
    /// the event ring moved to the router, machine release and replay
    /// audit.
    fn record_scalar_steps(&mut self) {
        let tick = self.tick;
        let mut audits: Vec<(u64, TenantRequest)> = Vec::new();
        let ServeEngine {
            scalars,
            quanta,
            stats,
            statuses,
            router,
            pool,
            slo,
            flight,
            ..
        } = self;
        let mut i = 0;
        while i < scalars.len() {
            let s = &scalars[i];
            let stepped = quanta[i];
            stats.stepped_cycles += stepped;
            if stepped > 0 {
                slo.quantum(s.id, tick, stepped);
                flight.record(FleetEntry {
                    tick,
                    tenant: Some(s.id),
                    event: FleetEvent::Quantum { cycles: stepped },
                });
            }
            let finished = s.machine.finished() || s.machine.cycle() >= s.budget;
            if let Some(st) = statuses.get_mut(&s.id) {
                st.cycles = s.machine.cycle();
            }
            if finished {
                let mut s = scalars.swap_remove(i);
                quanta.swap_remove(i);
                if let Some(events) = s.machine.take_telemetry().into_events() {
                    router.keep(&tenant_key(s.id), TenantLog::events(events));
                }
                if let Some(st) = statuses.get_mut(&s.id) {
                    st.phase = TenantPhase::Done;
                    st.halted = s.machine.finished();
                }
                flight.record(FleetEntry {
                    tick,
                    tenant: Some(s.id),
                    event: FleetEvent::Completed {
                        cycles: s.machine.cycle(),
                        halted: s.machine.finished(),
                    },
                });
                if let Some(req) = s.audit_req.clone() {
                    audits.push((s.id, req));
                }
                pool.release(s.cfg, s.machine);
                stats.completed += 1;
            } else {
                i += 1;
            }
        }
        for (id, req) in audits {
            self.audit_replay(id, &req);
        }
    }

    /// Completion-time replay audit: re-derive the tenant's telemetry
    /// offline and trip a `ReplayMismatch` flight dump on divergence.
    fn audit_replay(&mut self, id: u64, req: &TenantRequest) {
        let mut served = String::new();
        self.router.write_jsonl(&tenant_key(id), &mut served);
        match replay(&self.cfg.base, req) {
            Ok(offline) if offline == served => {}
            _ => self.flight_trigger(TriggerKind::ReplayMismatch),
        }
    }

    fn step_groups(&mut self) {
        let tick = self.tick;
        let ServeEngine {
            scheduler,
            groups,
            stats,
            statuses,
            router,
            slo,
            flight,
            stim,
            ..
        } = self;
        let burst = scheduler.burst();
        for g in groups.iter_mut() {
            let grant = drr_grant(&mut g.deficit, scheduler.credit(g.weight), burst);
            let remaining = g
                .tenants
                .iter()
                .filter(|t| !t.done)
                .map(|t| t.budget - g.cursor)
                .max()
                .unwrap_or(0);
            let steps = remaining.min(grant) as usize;
            if steps == 0 {
                continue;
            }
            let params = g.batch.params();
            stim.reset(steps, params.queue_len(), params.n_slots());
            for (lane, t) in g.tenants.iter().enumerate() {
                if t.done {
                    continue;
                }
                for k in 0..steps {
                    let c = g.cursor + k as u64;
                    if c < t.budget {
                        set_stim_row(stim, lane, k, &t.rows[c as usize]);
                    }
                }
            }
            for k in 0..steps {
                g.batch.step(stim, k);
                let cycle = g.cursor + k as u64;
                for (lane, t) in g.tenants.iter_mut().enumerate() {
                    if !t.done && cycle < t.budget {
                        stats.stepped_cycles += 1;
                        t.records.extend(LaneRecord::of(&g.batch, lane, cycle));
                    }
                }
            }
            let before = g.cursor;
            g.cursor += steps as u64;
            for t in &mut g.tenants {
                if let Some(st) = statuses.get_mut(&t.id) {
                    st.cycles = t.budget.min(g.cursor);
                }
                if !t.done {
                    let stepped = t.budget.min(g.cursor).saturating_sub(before);
                    if stepped > 0 {
                        slo.quantum(t.id, tick, stepped);
                        flight.record(FleetEntry {
                            tick,
                            tenant: Some(t.id),
                            event: FleetEvent::Quantum { cycles: stepped },
                        });
                    }
                }
                if !t.done && g.cursor >= t.budget {
                    t.done = true;
                    let records = std::mem::take(&mut t.records);
                    router.keep(&tenant_key(t.id), TenantLog::lanes(records));
                    if let Some(st) = statuses.get_mut(&t.id) {
                        st.phase = TenantPhase::Done;
                        st.halted = true;
                    }
                    flight.record(FleetEntry {
                        tick,
                        tenant: Some(t.id),
                        event: FleetEvent::Completed {
                            cycles: t.budget,
                            halted: true,
                        },
                    });
                    stats.completed += 1;
                }
            }
        }
        groups.retain(|g| g.live() > 0);
    }

    /// True iff nothing is queued, held for packing, or running.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
            && self.scalars.is_empty()
            && self.pending.is_empty()
            && self.groups.is_empty()
    }

    /// Tick until idle; false if `max_ticks` elapsed first.
    pub fn run_until_idle(&mut self, max_ticks: u64) -> bool {
        for _ in 0..max_ticks {
            if self.is_idle() {
                return true;
            }
            self.tick();
        }
        self.is_idle()
    }

    /// A tenant's status, if the id was ever admitted.
    pub fn status(&self, id: u64) -> Option<&TenantStatus> {
        self.statuses.get(&id)
    }

    /// All tenant statuses, in id order.
    pub fn statuses(&self) -> impl Iterator<Item = &TenantStatus> {
        self.statuses.values()
    }

    /// A completed tenant's telemetry (JSONL), if it recorded any: the
    /// log is rendered on the first read and the text kept for later
    /// ones. A running tenant has none yet; its log is handed over when
    /// it completes.
    pub fn telemetry(&self, id: u64) -> Option<&str> {
        self.router.jsonl(&tenant_key(id))
    }

    /// Append a completed tenant's telemetry (JSONL) to `out` without
    /// keeping the rendered text, for readers that read each log once;
    /// false (and `out` untouched) if it recorded none.
    pub(crate) fn write_telemetry(&self, id: u64, out: &mut String) -> bool {
        self.router.write_jsonl(&tenant_key(id), out)
    }

    /// Counter snapshot (queue/active/pool/lane occupancy filled in
    /// live).
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats.clone();
        let load = self.load();
        s.queued = load.queued;
        s.active = load.active;
        s.lane_groups = self.groups.len();
        s.lane_tenants = self.groups.iter().map(LaneGroup::live).sum();
        s.lane_pending = self.pending.len();
        s.pool = self.pool.stats();
        s
    }

    /// The full SLO metrics frame: aggregate snapshot plus one
    /// per-tenant snapshot for every tenant the SLO registry has seen
    /// (the `Request::Metrics` wire payload, and what
    /// [`MetricsFrame::to_prometheus`] renders).
    pub fn metrics(&self) -> MetricsFrame {
        let tenants = self
            .statuses
            .values()
            .filter_map(|st| {
                let snapshot = self.slo.tenant_snapshot(st.id)?;
                Some(TenantMetrics {
                    id: st.id,
                    name: st.name.clone(),
                    phase: st.phase,
                    lane: st.lane,
                    snapshot,
                })
            })
            .collect();
        MetricsFrame {
            tick: self.tick,
            stats: self.stats(),
            aggregate: self.slo.aggregate_snapshot(),
            tenants,
        }
    }

    /// Record an anomaly trigger and dump the flight ring: the trigger
    /// entry is stamped into the ring, then the whole ring is written
    /// to `<flight_dir>/flight-<seq>-<kind>.jsonl` when a dump
    /// directory is configured. The in-memory ring is left intact
    /// either way ([`ServeEngine::flight_jsonl`]).
    pub fn flight_trigger(&mut self, kind: TriggerKind) {
        if !self.flight.enabled() {
            return;
        }
        self.flight.record(FleetEntry {
            tick: self.tick,
            tenant: None,
            event: FleetEvent::Trigger { kind },
        });
        let seq = self.dump_seq;
        self.dump_seq += 1;
        if let Some(dir) = &self.cfg.flight_dir {
            let path = dir.join(format!("flight-{seq}-{}.jsonl", kind.name()));
            if std::fs::create_dir_all(dir).is_ok() {
                let _ = std::fs::write(&path, self.flight.to_jsonl());
            }
        }
    }

    /// The current flight-recorder ring as JSONL (empty when the
    /// recorder is off or nothing was recorded).
    pub fn flight_jsonl(&self) -> String {
        self.flight.to_jsonl()
    }

    /// Anomaly triggers recorded so far (dumped or in-memory only).
    pub fn flight_triggers(&self) -> u64 {
        self.dump_seq
    }
}

/// Replay a tenant offline from its request alone, producing exactly
/// the telemetry the serving path routes for it (byte-identical).
pub fn replay(base: &SimConfig, req: &TenantRequest) -> Result<String, ShedReason> {
    check_request(base, req)?;
    let cfg = effective_cfg(base, req);
    let log = if req.spec.is_lane() {
        let trace = req.spec.lane_trace().map_err(bad_spec)?;
        let rows = trace.generate_lane(0);
        let budget = req.spec.max_cycles.min(rows.len() as u64) as usize;
        let mut batch = LaneBatch::new(&cfg, LANES_PER_GROUP).map_err(bad_spec)?;
        let params = batch.params();
        let (queue_len, n_slots) = (params.queue_len(), params.n_slots());
        let mut stim = LaneStimulus::new(LANES_PER_GROUP, budget.max(1), queue_len, n_slots);
        for (c, row) in rows.iter().take(budget).enumerate() {
            set_stim_row(&mut stim, 0, c, row);
        }
        let mut records = Vec::new();
        for c in 0..budget {
            batch.step(&stim, c);
            records.extend(LaneRecord::of(&batch, 0, c as u64));
        }
        TenantLog::lanes(records)
    } else {
        let program = req.spec.program().map_err(bad_spec)?;
        let mut machine = Processor::try_new(cfg)
            .map_err(bad_spec)?
            .start(&program)
            .map_err(bad_spec)?;
        machine.set_telemetry(telemetry_for(req.telemetry_capacity));
        while !machine.finished() && machine.cycle() < req.spec.max_cycles {
            machine.step();
        }
        TenantLog::events(machine.take_telemetry().into_events().unwrap_or_default())
    };
    let mut jsonl = String::new();
    log.write_jsonl(&mut jsonl);
    Ok(jsonl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_sim::PolicyKind;
    use rsp_workloads::{LaneTraceSpec, StreamSpec, SynthSpec, UnitMix};

    fn scalar_req(seed: u64, max_cycles: u64) -> TenantRequest {
        let spec = StreamSpec::synth(
            format!("synth-{seed}"),
            SynthSpec {
                body_len: 120,
                ..SynthSpec::new("s", UnitMix::BALANCED, seed)
            },
            max_cycles,
        );
        TenantRequest {
            telemetry_capacity: 64,
            ..TenantRequest::new(spec)
        }
    }

    fn lane_req(seed: u64, cycles: u32) -> TenantRequest {
        let spec = StreamSpec::lane(
            format!("lane-{seed}"),
            LaneTraceSpec::synthetic_mix(cycles, seed),
            u64::from(cycles),
        );
        TenantRequest::new(spec)
    }

    fn drained(engine: &mut ServeEngine) -> EngineStats {
        assert!(engine.run_until_idle(10_000), "engine did not drain");
        engine.stats()
    }

    #[test]
    fn step_workers_follow_work_per_worker() {
        const Q: u128 = 256;
        // (available workers, scalar tenants, granted cycles, expected);
        // 0 or 1 steps inline.
        let cases = [
            (2, 1, Q, 0),
            (2, 2, 2 * Q, 1),
            (2, 3, 3 * Q, 1),
            (16, 3, 3 * Q, 1),
            (2, 4, 4 * Q, 2),
            (16, 4, 4 * Q, 2),
            (2, 8, 2_048, 2),
            (16, 8, 2_048, 4),
            (16, 16, 16 * Q, 8),
            (2, 32, 32 * Q, 2),
            (16, 3, 100 * Q, 3),
            (1, 32, 32 * Q, 1),
            (16, 1, u128::from(u64::MAX), 1),
            (16, 64, u128::from(u64::MAX) * 64, 16),
            (16, 8, 0, 0),
            (16, 0, 0, 0),
        ];
        for (workers, scalars, total, want) in cases {
            let got = step_workers(workers, scalars, total);
            assert_eq!(got, want, "step_workers({workers}, {scalars}, {total})");
            assert!(got <= workers && got <= scalars);
        }
    }

    #[test]
    fn scalar_tenants_complete_with_telemetry() {
        let mut engine = ServeEngine::with_defaults(EngineConfig::default());
        let ids: Vec<u64> = (0..4)
            .map(|s| engine.submit(scalar_req(s, 50_000)).unwrap())
            .collect();
        let stats = drained(&mut engine);
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.failed, 0);
        for id in ids {
            let st = engine.status(id).unwrap();
            assert_eq!(st.phase, TenantPhase::Done);
            assert!(st.halted, "tenant {id} should halt within budget");
            assert!(st.cycles > 0);
            let jsonl = engine.telemetry(id).expect("telemetry routed");
            assert!(!jsonl.is_empty());
        }
    }

    #[test]
    fn lane_tenants_pack_into_groups_and_complete() {
        let mut engine = ServeEngine::with_defaults(EngineConfig::default());
        let ids: Vec<u64> = (0..6)
            .map(|s| engine.submit(lane_req(s, 512)).unwrap())
            .collect();
        engine.tick();
        // All six share one config → one group.
        assert_eq!(engine.groups.len(), 1);
        assert_eq!(engine.groups[0].tenants.len(), 6);
        let stats = drained(&mut engine);
        assert_eq!(stats.completed, 6);
        for id in ids {
            let st = engine.status(id).unwrap();
            assert_eq!(st.phase, TenantPhase::Done);
            assert_eq!(st.cycles, 512);
            let jsonl = engine.telemetry(id).expect("lane transitions routed");
            assert!(jsonl.lines().count() > 0);
        }
    }

    #[test]
    fn pack_hold_defers_group_formation_until_full_or_expired() {
        let cfg = EngineConfig {
            pack_hold_ticks: 4,
            ..EngineConfig::default()
        };
        let mut engine = ServeEngine::with_defaults(cfg);
        let ids: Vec<u64> = (0..3)
            .map(|s| engine.submit(lane_req(s, 512)).unwrap())
            .collect();
        engine.tick(); // activates at tick 1; bucket not full, hold not expired
        assert_eq!(engine.groups.len(), 0);
        assert_eq!(engine.stats().lane_pending, 3);
        // A straggler joins the bucket while it is held.
        let late = engine.submit(lane_req(9, 512)).unwrap();
        for _ in 0..3 {
            engine.tick(); // ticks 2–4: still held
        }
        assert_eq!(engine.groups.len(), 0);
        engine.tick(); // tick 5: oldest member aged 4 ≥ hold → group forms
        assert_eq!(engine.groups.len(), 1);
        assert_eq!(engine.groups[0].tenants.len(), 4, "straggler packed in");
        let stats = drained(&mut engine);
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.lane_groups_formed, 1);
        // The hold never leaks into telemetry: replay identity holds.
        for id in ids.into_iter().chain([late]) {
            let st = engine.status(id).unwrap();
            assert_eq!(st.phase, TenantPhase::Done);
        }
    }

    #[test]
    fn held_lane_tenants_replay_bit_identically() {
        let cfg = EngineConfig {
            pack_hold_ticks: 8,
            ..EngineConfig::default()
        };
        let mut engine = ServeEngine::with_defaults(cfg);
        let req = lane_req(5, 512);
        engine.submit(lane_req(3, 512)).unwrap();
        let id = engine.submit(req.clone()).unwrap();
        drained(&mut engine);
        let served = engine.telemetry(id).unwrap();
        let offline = replay(&SimConfig::default(), &req).unwrap();
        assert!(!served.is_empty());
        assert_eq!(served, offline);
    }

    #[test]
    fn weights_split_lane_groups() {
        let mut engine = ServeEngine::with_defaults(EngineConfig::default());
        engine.submit(lane_req(1, 1024)).unwrap();
        let mut heavy = lane_req(2, 1024);
        heavy.spec = heavy.spec.with_weight(3);
        engine.submit(heavy).unwrap();
        engine.tick();
        // Same config, different weights → separate groups so each is
        // served at its own weight.
        assert_eq!(engine.groups.len(), 2);
        let stats = drained(&mut engine);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.lane_groups_formed, 2);
    }

    #[test]
    fn policy_override_splits_lane_groups() {
        let mut engine = ServeEngine::with_defaults(EngineConfig::default());
        // Traces longer than one quantum, so the groups are still live
        // (not yet retired) when we count them after the first tick.
        engine.submit(lane_req(1, 1024)).unwrap();
        let mut smoothed = lane_req(2, 1024);
        smoothed.policy = Some(PolicyKind::PaperSmoothed { shift: 2 });
        engine.submit(smoothed).unwrap();
        engine.tick();
        assert_eq!(engine.groups.len(), 2);
        let stats = drained(&mut engine);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn queue_full_and_step_lag_shed_with_reasons() {
        let tight = WatermarkScheduler {
            queue_depth: 2,
            max_active: 0, // nothing ever activates → lag grows
            step_lag_watermark: 3,
            quantum: 16,
            ..WatermarkScheduler::default()
        };
        let mut engine = ServeEngine::new(EngineConfig::default(), tight);
        engine.submit(scalar_req(0, 1000)).unwrap();
        engine.submit(scalar_req(1, 1000)).unwrap();
        assert_eq!(
            engine.submit(scalar_req(2, 1000)),
            Err(ShedReason::QueueFull)
        );
        for _ in 0..5 {
            engine.tick();
        }
        // Queue is still below depth after the shed, but the oldest
        // tenant has now waited past the lag watermark.
        let err = {
            let mut e2 = ServeEngine::new(
                EngineConfig::default(),
                WatermarkScheduler {
                    queue_depth: 10,
                    max_active: 0,
                    step_lag_watermark: 3,
                    quantum: 16,
                    ..WatermarkScheduler::default()
                },
            );
            e2.submit(scalar_req(0, 1000)).unwrap();
            for _ in 0..5 {
                e2.tick();
            }
            e2.submit(scalar_req(1, 1000))
        };
        assert_eq!(err, Err(ShedReason::StepLag));
        let stats = engine.stats();
        assert_eq!(stats.shed_queue_full, 1);
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.admitted, 2);
    }

    #[test]
    fn bad_specs_shed_with_counted_reasons() {
        let mut engine = ServeEngine::with_defaults(EngineConfig::default());
        let mut bad = scalar_req(0, 1000);
        bad.spec.max_cycles = 0;
        assert!(matches!(engine.submit(bad), Err(ShedReason::BadSpec(_))));
        // Lane tenant under a faulted base config is unservable.
        let mut cfg = EngineConfig::default();
        cfg.base.fabric.faults.upset_ppm = 500;
        cfg.base.fabric.faults.scrub_interval = 64;
        let mut faulted = ServeEngine::with_defaults(cfg);
        assert!(matches!(
            faulted.submit(lane_req(0, 64)),
            Err(ShedReason::BadSpec(_))
        ));
        // The same scalar tenant is still servable under faults.
        faulted.submit(scalar_req(1, 10_000)).unwrap();
        assert_eq!(faulted.stats().shed_bad_spec, 1);
        // A telemetry ring past the cap is shed; one at the cap is served.
        let mut over = scalar_req(2, 1000);
        over.telemetry_capacity = MAX_TELEMETRY_CAPACITY + 1;
        assert!(matches!(engine.submit(over), Err(ShedReason::BadSpec(_))));
        let mut at_cap = scalar_req(3, 1000);
        at_cap.telemetry_capacity = MAX_TELEMETRY_CAPACITY;
        engine.submit(at_cap).unwrap();
        assert!(engine.run_until_idle(10_000));
        assert_eq!(engine.stats().completed, 1);
        assert_eq!(engine.stats().shed_bad_spec, 2);
    }

    #[test]
    fn scalar_replay_is_bit_identical_to_served_telemetry() {
        let mut engine = ServeEngine::with_defaults(EngineConfig::default());
        let req = scalar_req(7, 20_000);
        let id = engine.submit(req.clone()).unwrap();
        // Load the engine with other tenants so the served run shares
        // the fleet (placement must not matter).
        engine.submit(scalar_req(8, 20_000)).unwrap();
        engine.submit(lane_req(9, 256)).unwrap();
        drained(&mut engine);
        let served = engine.telemetry(id).unwrap();
        let offline = replay(&SimConfig::default(), &req).unwrap();
        assert!(!served.is_empty());
        assert_eq!(served, offline);
    }

    #[test]
    fn lane_replay_is_bit_identical_to_served_telemetry() {
        let mut engine = ServeEngine::with_defaults(EngineConfig::default());
        let req = lane_req(5, 512);
        // Surround the tenant with neighbours in the same group so it
        // lands on a non-zero physical lane.
        engine.submit(lane_req(3, 512)).unwrap();
        let id = engine.submit(req.clone()).unwrap();
        engine.submit(lane_req(4, 512)).unwrap();
        drained(&mut engine);
        let served = engine.telemetry(id).unwrap();
        let offline = replay(&SimConfig::default(), &req).unwrap();
        assert!(!served.is_empty());
        assert_eq!(served, offline);
    }

    #[test]
    fn slo_per_tenant_histograms_sum_to_the_aggregate() {
        let mut engine = ServeEngine::with_defaults(EngineConfig::default());
        for s in 0..3 {
            engine.submit(scalar_req(s, 30_000)).unwrap();
        }
        engine.submit(lane_req(9, 256)).unwrap();
        drained(&mut engine);
        let frame = engine.metrics();
        assert_eq!(frame.tenants.len(), 4);
        for name in crate::slo::SLO_HISTO_NAMES {
            let agg = frame
                .aggregate
                .histograms
                .iter()
                .find(|h| h.name == name)
                .unwrap();
            let per_tenant: u64 = frame
                .tenants
                .iter()
                .map(|t| {
                    t.snapshot
                        .histograms
                        .iter()
                        .find(|h| h.name == name)
                        .map_or(0, |h| h.count)
                })
                .sum();
            assert_eq!(agg.count, per_tenant, "histogram {name}");
        }
        // Every tenant stepped at least one quantum.
        for t in &frame.tenants {
            let q = t
                .snapshot
                .histograms
                .iter()
                .find(|h| h.name == "quantum_cycles")
                .unwrap();
            assert!(q.count > 0, "tenant {} stepped", t.id);
        }
    }

    #[test]
    fn disabled_slo_records_nothing() {
        let cfg = EngineConfig {
            slo: false,
            ..EngineConfig::default()
        };
        let mut engine = ServeEngine::with_defaults(cfg);
        engine.submit(scalar_req(0, 30_000)).unwrap();
        drained(&mut engine);
        let frame = engine.metrics();
        assert!(frame.tenants.is_empty());
        assert_eq!(
            frame
                .aggregate
                .histograms
                .iter()
                .map(|h| h.count)
                .sum::<u64>(),
            0
        );
        // The engine-stats side still counts regardless.
        assert_eq!(frame.stats.completed, 1);
    }

    #[test]
    fn shed_storm_trips_a_flight_dump() {
        let tight = WatermarkScheduler {
            queue_depth: 1,
            max_active: 0,
            step_lag_watermark: 1_000_000,
            quantum: 16,
            ..WatermarkScheduler::default()
        };
        let cfg = EngineConfig {
            shed_storm_threshold: 4,
            shed_storm_window: 1_000,
            ..EngineConfig::default()
        };
        let mut engine = ServeEngine::new(cfg, tight);
        engine.submit(scalar_req(0, 1000)).unwrap();
        for s in 1..=4 {
            assert!(engine.submit(scalar_req(s, 1000)).is_err());
        }
        assert_eq!(engine.flight_triggers(), 1, "storm trips exactly once");
        let entries = rsp_obs::parse_fleet_jsonl(&engine.flight_jsonl()).unwrap();
        let sheds = entries
            .iter()
            .filter(|e| matches!(e.event, FleetEvent::Shed { .. }))
            .count();
        assert_eq!(sheds, 4);
        assert!(entries.iter().any(|e| matches!(
            e.event,
            FleetEvent::Trigger {
                kind: TriggerKind::ShedStorm
            }
        )));
    }

    #[test]
    fn replay_audit_is_clean_on_an_honest_engine() {
        let cfg = EngineConfig {
            replay_audit_every: 1, // audit every completion
            ..EngineConfig::default()
        };
        let mut engine = ServeEngine::with_defaults(cfg);
        for s in 0..3 {
            engine.submit(scalar_req(s, 20_000)).unwrap();
        }
        drained(&mut engine);
        assert_eq!(engine.stats().completed, 3);
        assert_eq!(engine.flight_triggers(), 0, "no mismatch on honest replay");
    }

    #[test]
    fn flight_dump_files_land_in_the_configured_dir() {
        let dir = std::env::temp_dir().join(format!("rsp-flight-{}", std::process::id()));
        let tight = WatermarkScheduler {
            queue_depth: 1,
            max_active: 0,
            step_lag_watermark: 1_000_000,
            quantum: 16,
            ..WatermarkScheduler::default()
        };
        let cfg = EngineConfig {
            shed_storm_threshold: 2,
            flight_dir: Some(dir.clone()),
            ..EngineConfig::default()
        };
        let mut engine = ServeEngine::new(cfg, tight);
        engine.submit(scalar_req(0, 1000)).unwrap();
        for s in 1..=2 {
            let _ = engine.submit(scalar_req(s, 1000));
        }
        assert_eq!(engine.flight_triggers(), 1);
        let dumps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(dumps.len(), 1);
        let text = std::fs::read_to_string(&dumps[0]).unwrap();
        let entries = rsp_obs::parse_fleet_jsonl(&text).unwrap();
        assert!(!entries.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pool_reuses_machines_across_tenant_waves() {
        let mut engine = ServeEngine::with_defaults(EngineConfig::default());
        for s in 0..3 {
            engine.submit(scalar_req(s, 30_000)).unwrap();
        }
        drained(&mut engine);
        for s in 3..6 {
            engine.submit(scalar_req(s, 30_000)).unwrap();
        }
        let stats = drained(&mut engine);
        assert!(
            stats.pool.reuses >= 3,
            "second wave should reuse pooled machines: {:?}",
            stats.pool
        );
    }
}

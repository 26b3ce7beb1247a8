//! Sharded serving: N engines, tenant affinity, mergeable telemetry.
//!
//! [`ShardedEngine`] multiplexes tenants over `N` [`ServeEngine`]
//! shards, each owning its own machine pool, lane groups, and
//! [`SloRegistry`](crate::slo::SloRegistry) slab. Tenants are pinned to
//! a shard by a **stable hash of their tenant key** ([`shard_of`] —
//! FNV-1a, the same function the sweep engine uses for grid shards, so
//! placement depends only on the id, never on load or arrival order).
//!
//! Why affinity hashing preserves replay identity: a tenant's
//! telemetry depends only on `(spec, seed, policy, base config)` —
//! pinned by the engine's replay tests — so *which* shard serves it
//! cannot change a single byte of its stream. Sharding therefore only
//! changes scheduling interleavings, which the telemetry is blind to
//! by construction; the multi-shard determinism test pins this across
//! shard counts 1/2/4.
//!
//! Aggregation: every read-side view merges per-shard parts with the
//! helpers in this module (`merge_stats`, `merge_snapshots`,
//! `merge_frames`). Counters and histogram buckets add; ticks take
//! the max (shards tick in lockstep). Because each shard's aggregate
//! slab already equals the sum of its tenant slabs *by construction*,
//! the merged aggregate equals the sum of all tenant slabs — the SLO
//! invariant survives sharding with no reconciliation step.
//!
//! Threads: [`ShardedEngine::tick`] runs a [`ServeEngine`] tick's three
//! phases across the fleet (DESIGN.md §14, §16): every shard's serial
//! prepare in shard order, then **one** step phase that fans all
//! shards' scalar tenants out over worker threads, then every shard's
//! serial finish in shard order. Shards share no state, so each sees
//! the same sequence of operations as when ticked alone; the fan-out
//! sizes its worker count (one per 512 granted cycles) on the fleet's
//! total grants rather than each shard's, and a worker may step tenants
//! of several shards. A thread per shard was measured and left out: it
//! grew peak RSS through glibc's per-thread malloc arenas.
//!
//! The server runs a `ShardedEngine` at every shard count. One shard
//! is a plain [`ServeEngine`] behind the id table: sheds burn no id,
//! so global ids equal local ids, and every merged view equals the
//! engine's own byte for byte.
//!
//! Flight dumps: every shard numbers its dumps `flight-<seq>-<kind>`
//! from 0, so with more than one shard, shard *i* writes into
//! `<flight_dir>/shard-<i>` and no dump overwrites another's.

use crate::engine::{step_fan_out, EngineConfig, EngineStats, ServeEngine};
use crate::scheduler::{ShedReason, WatermarkScheduler};
use crate::slo::MetricsFrame;
use crate::tenant::{tenant_key, TenantRequest, TenantStatus};
use rsp_obs::{stable_key_hash, HistogramSnapshot, MetricsSnapshot, TriggerKind};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};

/// The shard that owns tenant `global_id` in a fleet of `shards`.
///
/// The hash is the workspace's one shared FNV-1a
/// ([`rsp_obs::stable_key_hash`]), deliberately not `std::hash`
/// (unspecified across releases): shard placement must be reproducible
/// on every machine and toolchain, and its constants are pinned by
/// test in `rsp-obs`.
pub fn shard_of(global_id: u64, shards: usize) -> usize {
    (stable_key_hash(&tenant_key(global_id)) % shards.max(1) as u64) as usize
}

/// Sum per-shard engine counters into a fleet view. Monotonic counters
/// and occupancy gauges add; `ticks` takes the max because shards tick
/// in lockstep (wall progress, not work).
pub(crate) fn merge_stats(parts: impl IntoIterator<Item = EngineStats>) -> EngineStats {
    let mut parts = parts.into_iter();
    let mut m = parts.next().unwrap_or_default();
    for s in parts {
        m.ticks = m.ticks.max(s.ticks);
        m.submitted += s.submitted;
        m.admitted += s.admitted;
        m.completed += s.completed;
        m.failed += s.failed;
        m.shed_queue_full += s.shed_queue_full;
        m.shed_step_lag += s.shed_step_lag;
        m.shed_bad_spec += s.shed_bad_spec;
        m.queued += s.queued;
        m.active += s.active;
        m.stepped_cycles += s.stepped_cycles;
        m.lane_groups += s.lane_groups;
        m.lane_tenants += s.lane_tenants;
        m.lane_pending += s.lane_pending;
        m.lane_groups_formed += s.lane_groups_formed;
        m.pool.leases += s.pool.leases;
        m.pool.reuses += s.pool.reuses;
        m.pool.rebuilds += s.pool.rebuilds;
        m.pool.releases += s.pool.releases;
        m.pool.dropped += s.pool.dropped;
        m.pool.in_use += s.pool.in_use;
        m.pool.peak_in_use += s.pool.peak_in_use;
        m.refused.add(s.refused);
    }
    m
}

fn merge_histograms(into: &mut Vec<HistogramSnapshot>, part: Vec<HistogramSnapshot>) {
    for h in part {
        match into.iter_mut().find(|m| m.name == h.name) {
            Some(m) => {
                m.count += h.count;
                m.sum += h.sum;
                m.max = m.max.max(h.max);
                if m.buckets.len() < h.buckets.len() {
                    m.buckets.resize(h.buckets.len(), 0);
                }
                for (mb, &hb) in m.buckets.iter_mut().zip(h.buckets.iter()) {
                    *mb += hb;
                }
                if m.bounds.is_empty() {
                    m.bounds = h.bounds;
                }
            }
            None => into.push(h),
        }
    }
}

/// Merge per-shard metrics snapshots: counters sum by name, histograms
/// add count/sum/buckets and take the max of maxes. The first shard's
/// snapshot is the base, so names keep its order and a merged snapshot
/// has the same shape as a single engine's.
pub(crate) fn merge_snapshots(parts: impl IntoIterator<Item = MetricsSnapshot>) -> MetricsSnapshot {
    let mut parts = parts.into_iter();
    let mut m = parts.next().unwrap_or_default();
    for p in parts {
        for c in p.counters {
            match m.counters.iter_mut().find(|mc| mc.name == c.name) {
                Some(mc) => mc.value += c.value,
                None => m.counters.push(c),
            }
        }
        merge_histograms(&mut m.histograms, p.histograms);
    }
    m
}

/// Merge per-shard metrics frames into one fleet frame.
/// `globals[shard][local]` maps a shard-local tenant id back to its
/// fleet-global id; per-tenant entries are moved, rewritten and
/// re-sorted so the merged frame is indistinguishable from a single
/// engine's.
pub(crate) fn merge_frames(
    parts: impl IntoIterator<Item = MetricsFrame>,
    globals: &[Vec<u64>],
) -> MetricsFrame {
    let mut tick = 0;
    let mut stats = Vec::with_capacity(globals.len());
    let mut aggregates = Vec::with_capacity(globals.len());
    let mut tenants = Vec::new();
    for (shard, frame) in parts.into_iter().enumerate() {
        tick = tick.max(frame.tick);
        stats.push(frame.stats);
        aggregates.push(frame.aggregate);
        let mut part = frame.tenants;
        for t in &mut part {
            t.id = globals[shard][t.id as usize];
        }
        if tenants.is_empty() {
            tenants = part;
        } else {
            tenants.append(&mut part);
        }
    }
    tenants.sort_by_key(|t| t.id);
    MetricsFrame {
        tick,
        stats: merge_stats(stats),
        aggregate: merge_snapshots(aggregates),
        tenants,
    }
}

/// A sharded fleet: `N` engines ticked in lockstep, with tenant
/// affinity by [`shard_of`] and merged read-side views (see module
/// docs). Its tick runs the shards' serial phases on the calling thread
/// around one fleet-wide step phase; the server and the determinism
/// tests both drive it.
pub struct ShardedEngine {
    shards: Vec<ServeEngine>,
    /// Step-phase worker threads, the caller's included (see
    /// [`ServeEngine::set_step_workers`]).
    workers: usize,
    /// Global id → (shard, local id), dense in admission order.
    routes: Vec<(usize, u64)>,
    /// `globals[shard][local]` → global id (the reverse of `routes`).
    globals: Vec<Vec<u64>>,
}

impl ShardedEngine {
    /// A fleet of `shards` fresh engines, each with the full `cfg` and
    /// its own copy of `scheduler` (shards multiply capacity — the
    /// watermarks and ceilings are per shard, like adding servers).
    /// With more than one shard, shard *i* dumps its flight ring into
    /// `<flight_dir>/shard-<i>`.
    pub fn new(cfg: EngineConfig, scheduler: WatermarkScheduler, shards: usize) -> ShardedEngine {
        let n = shards.max(1);
        ShardedEngine {
            shards: (0..n)
                .map(|i| {
                    let mut cfg = cfg.clone();
                    if n > 1 {
                        cfg.flight_dir = cfg.flight_dir.map(|d| d.join(format!("shard-{i}")));
                    }
                    ServeEngine::new(cfg, scheduler)
                })
                .collect(),
            workers: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            routes: Vec::new(),
            globals: vec![Vec::new(); n],
        }
    }

    /// Override the fleet step phase's worker-thread count (default:
    /// the host's available parallelism, read once at construction). No
    /// output of the fleet depends on it — `tick_parallel_determinism`
    /// pins that across counts.
    pub fn set_step_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Submit a tenant to its affinity shard; the returned id is
    /// fleet-global. Sheds are counted on the shard that refused and
    /// burn no id.
    pub fn submit(&mut self, req: TenantRequest) -> Result<u64, ShedReason> {
        let global = self.routes.len() as u64;
        let shard = shard_of(global, self.shards.len());
        let local = self.shards[shard].submit(req)?;
        self.routes.push((shard, local));
        self.globals[shard].push(global);
        Ok(global)
    }

    /// One lockstep tick of every shard: each shard's serial prepare in
    /// shard order, one step phase over every shard's scalar tenants,
    /// then each shard's serial finish in shard order — the phases of
    /// [`ServeEngine::tick`], with the step-worker count taken over the
    /// whole fleet's grants and one tenant queue for all shards.
    pub fn tick(&mut self) {
        for s in &mut self.shards {
            s.prepare_tick();
        }
        let mut runs: Vec<_> = self.shards.iter_mut().map(ServeEngine::step_run).collect();
        step_fan_out(&mut runs, self.workers);
        for s in &mut self.shards {
            s.finish_tick();
        }
    }

    /// True iff every shard is idle.
    pub fn is_idle(&self) -> bool {
        self.shards.iter().all(ServeEngine::is_idle)
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

    fn locate(&self, global: u64) -> Option<(usize, u64)> {
        self.routes.get(global as usize).copied()
    }

    /// A tenant's status under its fleet-global id.
    pub fn status(&self, global: u64) -> Option<TenantStatus> {
        let (shard, local) = self.locate(global)?;
        let mut st = self.shards[shard].status(local)?.clone();
        st.id = global;
        Some(st)
    }

    /// All tenant statuses, in fleet-global id order.
    pub fn statuses(&self) -> impl Iterator<Item = TenantStatus> + '_ {
        (0..self.routes.len() as u64).filter_map(|g| self.status(g))
    }

    /// A completed tenant's telemetry (JSONL), if it recorded any,
    /// rendered on the first read and kept ([`ServeEngine::telemetry`]).
    pub fn telemetry(&self, global: u64) -> Option<&str> {
        let (shard, local) = self.locate(global)?;
        self.shards[shard].telemetry(local)
    }

    /// Append a completed tenant's telemetry (JSONL) to `out` without
    /// keeping the text ([`ServeEngine::write_telemetry`]); false if it
    /// recorded none.
    pub(crate) fn write_telemetry(&self, global: u64, out: &mut String) -> bool {
        self.locate(global)
            .is_some_and(|(shard, local)| self.shards[shard].write_telemetry(local, out))
    }

    /// Merged fleet counters (`merge_stats` over the shards).
    pub fn stats(&self) -> EngineStats {
        merge_stats(self.shards.iter().map(ServeEngine::stats))
    }

    /// The merged SLO metrics frame, per-tenant entries under their
    /// fleet-global ids (`merge_frames` over the shards).
    pub fn metrics(&self) -> MetricsFrame {
        merge_frames(self.shards.iter().map(ServeEngine::metrics), &self.globals)
    }

    /// Record an anomaly trigger on every shard: each stamps it into
    /// its own flight ring and dumps that ring
    /// ([`ServeEngine::flight_trigger`]).
    pub fn flight_trigger(&mut self, kind: TriggerKind) {
        for s in &mut self.shards {
            s.flight_trigger(kind);
        }
    }

    /// Export per-tenant telemetry as `<dir>/t<global>.jsonl`, rendered
    /// through one reused buffer (no rendered text is kept).
    pub(crate) fn export_telemetry(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut out = Vec::new();
        let mut jsonl = String::new();
        for g in 0..self.routes.len() as u64 {
            jsonl.clear();
            if self.write_telemetry(g, &mut jsonl) {
                let path = dir.join(format!("{}.jsonl", tenant_key(g)));
                std::fs::write(&path, &jsonl)?;
                out.push(path);
            }
        }
        Ok(out)
    }
}

/// A drop guard that turns an engine panic into flight dumps.
///
/// The serve loop drives the fleet through this guard; if the stack
/// unwinds past it (an engine panic), `Drop` stamps a
/// [`TriggerKind::EnginePanic`] entry into every shard's flight ring
/// and dumps each ([`ShardedEngine::flight_trigger`]), so the
/// post-mortem evidence survives the crash. On a normal return the
/// guard drops silently.
pub struct PanicFlightGuard<'a> {
    /// The guarded fleet; deref-style access for the serve loop.
    pub engine: &'a mut ShardedEngine,
}

impl<'a> PanicFlightGuard<'a> {
    /// Guard `engine` for the duration of the borrow.
    pub fn new(engine: &'a mut ShardedEngine) -> PanicFlightGuard<'a> {
        PanicFlightGuard { engine }
    }
}

impl Drop for PanicFlightGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.engine.flight_trigger(TriggerKind::EnginePanic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_workloads::{StreamSpec, SynthSpec, UnitMix};

    fn scalar_req(seed: u64) -> TenantRequest {
        let spec = StreamSpec::synth(
            format!("synth-{seed}"),
            SynthSpec {
                body_len: 120,
                ..SynthSpec::new("s", UnitMix::BALANCED, seed)
            },
            30_000,
        );
        TenantRequest {
            telemetry_capacity: 64,
            ..TenantRequest::new(spec)
        }
    }

    #[test]
    fn affinity_is_stable_and_covers_all_shards() {
        // FNV over "t<id>" must spread 16 tenants over 4 shards with
        // every shard non-empty (the constant pinned here is what the
        // determinism suite relies on).
        let owners: Vec<usize> = (0..16).map(|g| shard_of(g, 4)).collect();
        for shard in 0..4 {
            assert!(owners.contains(&shard), "shard {shard} owns no tenant");
        }
        // And is a pure function of the id.
        assert_eq!(owners, (0..16).map(|g| shard_of(g, 4)).collect::<Vec<_>>());
    }

    #[test]
    fn sharded_fleet_serves_and_merges() {
        let mut fleet =
            ShardedEngine::new(EngineConfig::default(), WatermarkScheduler::default(), 2);
        let ids: Vec<u64> = (0..8)
            .map(|s| fleet.submit(scalar_req(s)).unwrap())
            .collect();
        assert_eq!(ids, (0..8).collect::<Vec<u64>>(), "global ids are dense");
        assert!(fleet.run_until_idle(10_000));
        let stats = fleet.stats();
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.admitted, 8);
        for id in ids {
            let st = fleet.status(id).unwrap();
            assert_eq!(st.id, id, "status carries the global id");
            assert!(fleet.telemetry(id).is_some());
        }
        let frame = fleet.metrics();
        assert_eq!(frame.tenants.len(), 8);
        let ids: Vec<u64> = frame.tenants.iter().map(|t| t.id).collect();
        assert_eq!(ids, (0..8).collect::<Vec<u64>>(), "merged frame sorted");
    }

    #[test]
    fn merged_histograms_add_and_keep_bounds() {
        let mut fleet =
            ShardedEngine::new(EngineConfig::default(), WatermarkScheduler::default(), 4);
        for s in 0..12 {
            fleet.submit(scalar_req(s)).unwrap();
        }
        assert!(fleet.run_until_idle(10_000));
        let frame = fleet.metrics();
        for name in crate::slo::SLO_HISTO_NAMES {
            let agg = frame.aggregate.histogram(name).unwrap();
            let per_tenant: u64 = frame
                .tenants
                .iter()
                .map(|t| t.snapshot.histogram(name).map_or(0, |h| h.count))
                .sum();
            assert_eq!(agg.count, per_tenant, "{name} sums across shards");
            assert_eq!(agg.buckets.iter().sum::<u64>(), agg.count, "{name} buckets");
        }
    }
}

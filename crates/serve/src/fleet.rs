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
//! helpers in this module ([`merge_stats`], [`merge_snapshots`],
//! [`merge_frames`]). Counters and histogram buckets add; ticks take
//! the max (shards tick in lockstep). Because each shard's aggregate
//! slab already equals the sum of its tenant slabs *by construction*,
//! the merged aggregate equals the sum of all tenant slabs — the SLO
//! invariant survives sharding with no reconciliation step.
//!
//! Threads: [`ShardedEngine::tick`] ticks the shards one after another,
//! but each shard is a [`ServeEngine`], so each fans its own scalar
//! step phase out over worker threads (DESIGN.md §14). A thread per
//! shard was measured and left out: it grew peak RSS through glibc's
//! per-thread malloc arenas.

use crate::engine::{EngineConfig, EngineStats, ServeEngine};
use crate::scheduler::{Scheduler, ShedReason, WatermarkScheduler};
use crate::slo::MetricsFrame;
use crate::tenant::{tenant_key, TenantStatus};
use rsp_obs::{HistogramSnapshot, MetricsSnapshot};
use std::path::{Path, PathBuf};

/// The stable hash behind shard affinity: the workspace's one shared
/// FNV-1a ([`rsp_obs::stable_key_hash`], re-exported here for existing
/// callers). Deliberately not `std::hash` (unspecified across
/// releases): shard placement must be reproducible on every machine
/// and toolchain, and its constants are pinned by test in `rsp-obs`.
pub use rsp_obs::stable_key_hash;

/// The shard that owns tenant `global_id` in a fleet of `shards`.
pub fn shard_of(global_id: u64, shards: usize) -> usize {
    (stable_key_hash(&tenant_key(global_id)) % shards.max(1) as u64) as usize
}

/// Sum per-shard engine counters into a fleet view. Monotonic counters
/// and occupancy gauges add; `ticks` takes the max because shards tick
/// in lockstep (wall progress, not work).
pub fn merge_stats(parts: &[EngineStats]) -> EngineStats {
    let mut m = EngineStats::default();
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
    }
    m
}

fn merge_histograms(into: &mut Vec<HistogramSnapshot>, part: &[HistogramSnapshot]) {
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
                    m.bounds = h.bounds.clone();
                }
            }
            None => into.push(h.clone()),
        }
    }
}

/// Merge per-shard metrics snapshots: counters sum by name, histograms
/// add count/sum/buckets and take the max of maxes. Names keep the
/// first shard's order, so merged snapshots have the same shape as a
/// single engine's.
pub fn merge_snapshots(parts: &[MetricsSnapshot]) -> MetricsSnapshot {
    let mut m = MetricsSnapshot {
        counters: Vec::new(),
        histograms: Vec::new(),
    };
    for p in parts {
        for c in &p.counters {
            match m.counters.iter_mut().find(|mc| mc.name == c.name) {
                Some(mc) => mc.value += c.value,
                None => m.counters.push(c.clone()),
            }
        }
        merge_histograms(&mut m.histograms, &p.histograms);
    }
    m
}

/// Merge per-shard metrics frames into one fleet frame.
/// `globals[shard][local]` maps a shard-local tenant id back to its
/// fleet-global id; per-tenant entries are rewritten and re-sorted so
/// the merged frame is indistinguishable from a single engine's.
pub fn merge_frames(parts: &[MetricsFrame], globals: &[Vec<u64>]) -> MetricsFrame {
    let stats: Vec<EngineStats> = parts.iter().map(|f| f.stats.clone()).collect();
    let aggs: Vec<MetricsSnapshot> = parts.iter().map(|f| f.aggregate.clone()).collect();
    let mut tenants = Vec::new();
    for (shard, frame) in parts.iter().enumerate() {
        for t in &frame.tenants {
            let mut t = t.clone();
            t.id = globals[shard][t.id as usize];
            tenants.push(t);
        }
    }
    tenants.sort_by_key(|t| t.id);
    MetricsFrame {
        tick: parts.iter().map(|f| f.tick).max().unwrap_or(0),
        stats: merge_stats(&stats),
        aggregate: merge_snapshots(&aggs),
        tenants,
    }
}

/// An in-process sharded fleet: `N` engines ticked in lockstep, with
/// tenant affinity by [`shard_of`] and merged read-side views (see
/// module docs). The server's sharded mode runs the same routing over
/// one thread per shard; this object ticks its shards serially on the
/// calling thread (each fanning out inside its own tick) and is the
/// reference the determinism tests pin.
pub struct ShardedEngine<S: Scheduler = WatermarkScheduler> {
    shards: Vec<ServeEngine<S>>,
    /// Global id → (shard, local id), dense in admission order.
    routes: Vec<(usize, u64)>,
    /// `globals[shard][local]` → global id (the reverse of `routes`).
    globals: Vec<Vec<u64>>,
}

impl<S: Scheduler + Clone> ShardedEngine<S> {
    /// A fleet of `shards` fresh engines, each with the full `cfg` and
    /// its own copy of `scheduler` (shards multiply capacity — the
    /// watermarks and ceilings are per shard, like adding servers).
    pub fn new(cfg: EngineConfig, scheduler: S, shards: usize) -> ShardedEngine<S> {
        let n = shards.max(1);
        ShardedEngine {
            shards: (0..n)
                .map(|_| ServeEngine::new(cfg.clone(), scheduler.clone()))
                .collect(),
            routes: Vec::new(),
            globals: vec![Vec::new(); n],
        }
    }
}

impl<S: Scheduler> ShardedEngine<S> {
    /// Number of shards in the fleet.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Submit a tenant to its affinity shard; the returned id is
    /// fleet-global. Sheds are counted on the shard that refused.
    pub fn submit(&mut self, req: crate::tenant::TenantRequest) -> Result<u64, ShedReason> {
        let global = self.routes.len() as u64;
        let shard = shard_of(global, self.shards.len());
        let local = self.shards[shard].submit(req)?;
        self.routes.push((shard, local));
        self.globals[shard].push(global);
        Ok(global)
    }

    /// One lockstep tick of every shard, in shard order. Each shard's
    /// tick fans its own step phase out ([`ServeEngine::tick`]).
    pub fn tick(&mut self) {
        for s in &mut self.shards {
            s.tick();
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

    fn route(&self, global: u64) -> Option<(usize, u64)> {
        self.routes.get(global as usize).copied()
    }

    /// A tenant's status under its fleet-global id.
    pub fn status(&self, global: u64) -> Option<TenantStatus> {
        let (shard, local) = self.route(global)?;
        let mut st = self.shards[shard].status(local)?.clone();
        st.id = global;
        Some(st)
    }

    /// All tenant statuses, in fleet-global id order.
    pub fn statuses(&self) -> impl Iterator<Item = TenantStatus> + '_ {
        (0..self.routes.len() as u64).filter_map(|g| self.status(g))
    }

    /// A tenant's routed telemetry (JSONL), if any was produced.
    pub fn telemetry(&self, global: u64) -> Option<&str> {
        let (shard, local) = self.route(global)?;
        self.shards[shard].telemetry(local)
    }

    /// Merged fleet counters ([`merge_stats`] over the shards).
    pub fn stats(&self) -> EngineStats {
        let parts: Vec<EngineStats> = self.shards.iter().map(ServeEngine::stats).collect();
        merge_stats(&parts)
    }

    /// The merged SLO metrics frame, per-tenant entries under their
    /// fleet-global ids ([`merge_frames`] over the shards).
    pub fn metrics(&self) -> MetricsFrame {
        let parts: Vec<MetricsFrame> = self.shards.iter().map(ServeEngine::metrics).collect();
        merge_frames(&parts, &self.globals)
    }

    /// One shard's metrics frame (shard-local tenant ids), for tests
    /// that inspect a single slab.
    pub fn shard_metrics(&self, shard: usize) -> MetricsFrame {
        self.shards[shard].metrics()
    }

    /// Export per-tenant telemetry as `<dir>/t<global>.jsonl`.
    pub fn export_telemetry(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut out = Vec::new();
        for g in 0..self.routes.len() as u64 {
            if let Some(jsonl) = self.telemetry(g) {
                let path = dir.join(format!("{}.jsonl", tenant_key(g)));
                std::fs::write(&path, jsonl)?;
                out.push(path);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TenantRequest;
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

//! Per-tenant SLO metrics and the `Metrics` wire frame (DESIGN.md §15).
//!
//! [`SloRegistry`] keeps one fixed-size `TenantSlo` slab per admitted
//! tenant plus an aggregate slab, following the `rsp-obs`
//! `MetricsRegistry` discipline: recording a sample is a couple of
//! array writes — never an allocation, never a hash lookup — so every
//! hook sits directly on the engine's stepping path. The only
//! allocation is one slab push at *admission* (already an allocating
//! path), and the disabled registry reduces every hook to one branch.
//!
//! The aggregate slab is updated alongside the per-tenant slabs from
//! the same samples, so for every SLO histogram the per-tenant counts
//! sum to the aggregate count *by construction* — the invariant the
//! exposition round-trip test pins.
//!
//! [`MetricsFrame`] is the serialisable export a `Request::Metrics`
//! frame returns: engine counters, the aggregate snapshot, and one
//! snapshot per tenant. [`MetricsFrame::to_prometheus`] renders it as
//! the text exposition (`rsp_serve_*` families, tenants labeled
//! `tenant="t<id>"`, sheds labeled by reason).

use crate::engine::EngineStats;
use crate::protocol::RefusedClass;
use crate::tenant::{tenant_key, TenantPhase};
use rsp_obs::{
    CounterValue, CycleHistogram, HistogramSnapshot, MetricsSnapshot, PromWriter, ShedKind,
};
use serde::{Deserialize, Serialize};

/// SLO histograms kept per tenant, in slab order.
pub(crate) const SLO_HISTOS: usize = 4;

const H_ADMIT_TO_FIRST_STEP: usize = 0;
const H_QUEUE_RESIDENCY: usize = 1;
const H_STEP_LAG: usize = 2;
const H_QUANTUM_CYCLES: usize = 3;

/// Stable names of the per-tenant SLO histograms, in slab order:
/// admission→first-quantum latency (ticks), admission→activation
/// residency (ticks), lag between successive quanta (ticks), and
/// cycles stepped per quantum.
pub const SLO_HISTO_NAMES: [&str; SLO_HISTOS] = [
    "admit_to_first_step",
    "queue_residency",
    "step_lag",
    "quantum_cycles",
];

/// Name of the aggregate-only quanta-per-tick histogram.
pub(crate) const QUANTA_PER_TICK: &str = "quanta_per_tick";

/// One tenant's SLO slab: fixed arrays only, `Copy`, allocation-free
/// to update.
#[derive(Debug, Clone, Copy, Default)]
struct TenantSlo {
    admitted_tick: u64,
    /// Tick of the last quantum, +1 (0 = none yet).
    last_quantum_tick: u64,
    first_step_done: bool,
    hists: [CycleHistogram; SLO_HISTOS],
    quanta: u64,
    cycles: u64,
}

impl TenantSlo {
    fn quantum(&mut self, tick: u64, cycles: u64) {
        if !self.first_step_done {
            self.first_step_done = true;
            self.hists[H_ADMIT_TO_FIRST_STEP].record(tick.saturating_sub(self.admitted_tick));
        }
        if self.last_quantum_tick != 0 {
            self.hists[H_STEP_LAG].record(tick.saturating_sub(self.last_quantum_tick - 1));
        }
        self.last_quantum_tick = tick + 1;
        self.hists[H_QUANTUM_CYCLES].record(cycles);
        self.quanta += 1;
        self.cycles += cycles;
    }

    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                CounterValue {
                    name: "quanta".to_string(),
                    value: self.quanta,
                },
                CounterValue {
                    name: "cycles".to_string(),
                    value: self.cycles,
                },
            ],
            histograms: SLO_HISTO_NAMES
                .iter()
                .zip(self.hists.iter())
                .map(|(name, h)| HistogramSnapshot::from_histogram(name, h))
                .collect(),
        }
    }
}

/// The engine's SLO registry: per-tenant slabs (indexed by the dense
/// tenant id) plus the aggregate slab and fleet-wide extras.
#[derive(Debug, Clone, Default)]
pub struct SloRegistry {
    enabled: bool,
    tenants: Vec<TenantSlo>,
    aggregate: TenantSlo,
    quanta_per_tick: CycleHistogram,
    quanta_this_tick: u64,
    sheds: [u64; 3],
}

impl SloRegistry {
    /// A fresh registry; disabled, every hook is one branch.
    pub fn new(enabled: bool) -> SloRegistry {
        SloRegistry {
            enabled,
            tenants: Vec::with_capacity(if enabled { 64 } else { 0 }),
            ..SloRegistry::default()
        }
    }

    /// True iff hooks record anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A tenant was admitted at `tick`. Ids are dense and sequential
    /// (the engine assigns them in admission order), so this indexes a
    /// plain slab vector. The one allocating hook — admission is not
    /// the hot path.
    pub fn admit(&mut self, id: u64, tick: u64) {
        if !self.enabled {
            return;
        }
        debug_assert_eq!(id as usize, self.tenants.len(), "tenant ids must be dense");
        self.tenants.push(TenantSlo {
            admitted_tick: tick,
            ..TenantSlo::default()
        });
    }

    /// A submission was shed.
    #[inline]
    pub fn shed(&mut self, kind: ShedKind) {
        if self.enabled {
            self.sheds[kind as usize] += 1;
        }
    }

    /// A queued tenant activated at `tick` (records queue residency,
    /// mirrored into the aggregate).
    #[inline]
    pub fn activate(&mut self, id: u64, tick: u64) {
        if !self.enabled {
            return;
        }
        if let Some(t) = self.tenants.get_mut(id as usize) {
            let residency = tick.saturating_sub(t.admitted_tick);
            t.hists[H_QUEUE_RESIDENCY].record(residency);
            self.aggregate.hists[H_QUEUE_RESIDENCY].record(residency);
        }
    }

    /// A tenant ran one quantum of `cycles` at `tick`.
    #[inline]
    pub fn quantum(&mut self, id: u64, tick: u64, cycles: u64) {
        if !self.enabled {
            return;
        }
        if let Some(t) = self.tenants.get_mut(id as usize) {
            // Mirror exactly the samples the tenant records into the
            // aggregate, so per-tenant counts sum to aggregate counts.
            if !t.first_step_done {
                self.aggregate.hists[H_ADMIT_TO_FIRST_STEP]
                    .record(tick.saturating_sub(t.admitted_tick));
            }
            if t.last_quantum_tick != 0 {
                self.aggregate.hists[H_STEP_LAG]
                    .record(tick.saturating_sub(t.last_quantum_tick - 1));
            }
            t.quantum(tick, cycles);
        }
        self.aggregate.hists[H_QUANTUM_CYCLES].record(cycles);
        self.aggregate.quanta += 1;
        self.aggregate.cycles += cycles;
        self.quanta_this_tick += 1;
    }

    /// Close out one engine tick (records quanta-per-tick).
    #[inline]
    pub fn end_tick(&mut self) {
        if !self.enabled {
            return;
        }
        self.quanta_per_tick.record(self.quanta_this_tick);
        self.quanta_this_tick = 0;
    }

    /// Shed counts by reason, in [`ShedKind::ALL`] order.
    pub fn sheds(&self) -> [u64; 3] {
        self.sheds
    }

    /// Snapshot one tenant's slab (`None` for unknown ids or when
    /// disabled).
    pub fn tenant_snapshot(&self, id: u64) -> Option<MetricsSnapshot> {
        self.tenants.get(id as usize).map(TenantSlo::snapshot)
    }

    /// Snapshot the aggregate slab: the four SLO histograms (sums of
    /// the per-tenant slabs), the quanta-per-tick histogram, quanta and
    /// cycles totals, and shed counts by reason.
    pub(crate) fn aggregate_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.aggregate.snapshot();
        for (kind, &count) in ShedKind::ALL.iter().zip(self.sheds.iter()) {
            snap.counters.push(CounterValue {
                name: format!("shed_{}", kind.name()),
                value: count,
            });
        }
        snap.histograms.push(HistogramSnapshot::from_histogram(
            QUANTA_PER_TICK,
            &self.quanta_per_tick,
        ));
        snap
    }
}

/// One tenant's entry in a [`MetricsFrame`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantMetrics {
    /// Server-assigned tenant id.
    pub id: u64,
    /// The stream's name (reporting only).
    pub name: String,
    /// Lifecycle phase at frame time.
    pub phase: TenantPhase,
    /// True iff the tenant runs on the lane kernel.
    pub lane: bool,
    /// The tenant's SLO snapshot.
    pub snapshot: MetricsSnapshot,
}

/// The `Request::Metrics` payload: a self-contained view of the fleet.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsFrame {
    /// Engine tick at frame time.
    pub tick: u64,
    /// Aggregate engine counters (live queue/active/pool included).
    pub stats: EngineStats,
    /// Aggregate SLO snapshot (`SloRegistry::aggregate_snapshot`).
    pub aggregate: MetricsSnapshot,
    /// Per-tenant SLO snapshots, in id order.
    pub tenants: Vec<TenantMetrics>,
}

impl MetricsFrame {
    /// Render the frame as a Prometheus-style text exposition. Family
    /// names are stable: engine counters under `rsp_serve_*`, sheds as
    /// `rsp_serve_shed_total{reason=...}`, refused frames as
    /// `rsp_serve_refused_frames_total{class=...}` (every class, zero
    /// included), aggregate SLO histograms
    /// under `rsp_serve_<histo>`, and per-tenant families under
    /// `rsp_serve_tenant_<histo>{tenant="t<id>"}`.
    pub fn to_prometheus(&self) -> String {
        let mut w = PromWriter::new();
        let s = &self.stats;
        w.gauge("rsp_serve_tick", &[], self.tick);
        w.counter("rsp_serve_ticks", &[], s.ticks);
        w.counter("rsp_serve_submitted", &[], s.submitted);
        w.counter("rsp_serve_admitted", &[], s.admitted);
        w.counter("rsp_serve_completed", &[], s.completed);
        w.counter("rsp_serve_failed", &[], s.failed);
        w.counter("rsp_serve_stepped_cycles", &[], s.stepped_cycles);
        for (kind, count) in [
            (ShedKind::QueueFull, s.shed_queue_full),
            (ShedKind::StepLag, s.shed_step_lag),
            (ShedKind::BadSpec, s.shed_bad_spec),
        ] {
            w.counter("rsp_serve_shed", &[("reason", kind.name())], count);
        }
        for class in RefusedClass::ALL {
            let count = s.refused.get(class);
            w.counter(
                "rsp_serve_refused_frames",
                &[("class", class.name())],
                count,
            );
        }
        w.gauge("rsp_serve_queued", &[], s.queued as u64);
        w.gauge("rsp_serve_active", &[], s.active as u64);
        w.gauge("rsp_serve_lane_groups", &[], s.lane_groups as u64);
        w.gauge("rsp_serve_lane_tenants", &[], s.lane_tenants as u64);
        w.gauge("rsp_serve_lane_pending", &[], s.lane_pending as u64);
        w.counter("rsp_serve_lane_groups_formed", &[], s.lane_groups_formed);
        w.counter("rsp_serve_pool_leases", &[], s.pool.leases);
        w.counter("rsp_serve_pool_reuses", &[], s.pool.reuses);
        w.counter("rsp_serve_pool_rebuilds", &[], s.pool.rebuilds);
        w.counter("rsp_serve_pool_releases", &[], s.pool.releases);
        w.gauge("rsp_serve_pool_in_use", &[], s.pool.in_use);
        w.gauge("rsp_serve_pool_peak_in_use", &[], s.pool.peak_in_use);
        w.snapshot("rsp_serve_", &[], &self.aggregate);
        for t in &self.tenants {
            let key = tenant_key(t.id);
            w.snapshot("rsp_serve_tenant_", &[("tenant", &key)], &t.snapshot);
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_obs::PromDump;

    #[test]
    fn disabled_registry_records_nothing() {
        let mut r = SloRegistry::new(false);
        r.admit(0, 1);
        r.activate(0, 2);
        r.quantum(0, 3, 100);
        r.shed(ShedKind::QueueFull);
        r.end_tick();
        assert!(r.tenant_snapshot(0).is_none());
        let agg = r.aggregate_snapshot();
        assert_eq!(agg.counter("quanta"), Some(0));
        assert_eq!(agg.counter("shed_queue_full"), Some(0));
    }

    #[test]
    fn per_tenant_histograms_sum_to_the_aggregate() {
        let mut r = SloRegistry::new(true);
        // Three tenants with staggered lifecycles.
        r.admit(0, 0);
        r.admit(1, 0);
        r.admit(2, 3);
        r.activate(0, 1);
        r.activate(1, 2);
        r.activate(2, 5);
        for tick in 1..20u64 {
            r.quantum(0, tick, 256);
            if tick >= 2 {
                r.quantum(1, tick, 128);
            }
            if tick >= 5 && tick % 2 == 1 {
                r.quantum(2, tick, 64);
            }
            r.end_tick();
        }
        let agg = r.aggregate_snapshot();
        for name in SLO_HISTO_NAMES {
            let total: u64 = (0..3)
                .map(|id| {
                    r.tenant_snapshot(id)
                        .unwrap()
                        .histogram(name)
                        .unwrap()
                        .count
                })
                .sum();
            let a = agg.histogram(name).unwrap();
            assert_eq!(a.count, total, "{name}");
        }
        // Step-lag of the every-other-tick tenant is 2.
        let lag = r.tenant_snapshot(2).unwrap();
        let lag = lag.histogram("step_lag").unwrap();
        assert_eq!(lag.max, 2);
        // Quanta-per-tick is aggregate-only and covers every tick.
        assert_eq!(agg.histogram(QUANTA_PER_TICK).unwrap().count, 19);
        assert_eq!(agg.counter("quanta"), Some(r.aggregate.quanta));
    }

    #[test]
    fn first_step_and_residency_measure_queue_time() {
        let mut r = SloRegistry::new(true);
        r.admit(0, 10);
        r.activate(0, 14);
        r.quantum(0, 15, 256);
        let t = r.tenant_snapshot(0).unwrap();
        assert_eq!(t.histogram("queue_residency").unwrap().sum, 4);
        assert_eq!(t.histogram("admit_to_first_step").unwrap().sum, 5);
        // Only the first quantum records admission latency.
        r.quantum(0, 16, 256);
        let t = r.tenant_snapshot(0).unwrap();
        assert_eq!(t.histogram("admit_to_first_step").unwrap().count, 1);
        assert_eq!(t.histogram("step_lag").unwrap().sum, 1);
    }

    #[test]
    fn frame_exposition_parses_and_matches() {
        let mut r = SloRegistry::new(true);
        r.admit(0, 0);
        r.activate(0, 1);
        r.quantum(0, 1, 200);
        r.quantum(0, 2, 200);
        r.shed(ShedKind::StepLag);
        r.end_tick();
        let frame = MetricsFrame {
            tick: 2,
            stats: EngineStats {
                submitted: 2,
                admitted: 1,
                shed_step_lag: 1,
                refused: crate::RefusedFrames {
                    depth: 3,
                    ..Default::default()
                },
                ..EngineStats::default()
            },
            aggregate: r.aggregate_snapshot(),
            tenants: vec![TenantMetrics {
                id: 0,
                name: "w".to_string(),
                phase: TenantPhase::Running,
                lane: false,
                snapshot: r.tenant_snapshot(0).unwrap(),
            }],
        };
        let text = frame.to_prometheus();
        let dump = PromDump::parse(&text).unwrap();
        assert_eq!(dump.value_u64("rsp_serve_submitted_total", &[]), Some(2));
        assert_eq!(
            dump.value_u64("rsp_serve_shed_total", &[("reason", "step_lag")]),
            Some(1)
        );
        for (class, want) in [("syntax", 0), ("depth", 3)] {
            let got = dump.value_u64("rsp_serve_refused_frames_total", &[("class", class)]);
            assert_eq!(got, Some(want), "{class}: exposed even at zero");
        }
        let agg = dump.histogram("rsp_serve_quantum_cycles", &[]).unwrap();
        let ten = dump
            .histogram("rsp_serve_tenant_quantum_cycles", &[("tenant", "t0")])
            .unwrap();
        assert_eq!(agg.count, 2);
        assert_eq!(ten.count, 2);
        assert_eq!(ten.sum, 400);
        // The frame itself round-trips through JSON (wire payload).
        let json = serde_json::to_string(&frame).unwrap();
        let back: MetricsFrame = serde_json::from_str(&json).unwrap();
        assert_eq!(back, frame);
    }
}

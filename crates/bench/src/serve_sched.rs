//! Serve-scheduling sweep: weighted-fair shares, shard scaling, and
//! lane pack-hold latency at a fixed offered load
//! (`BENCH_serve_sched.json`).
//!
//! Where the saturation sweep varies offered load against one FIFO
//! engine, this sweep holds the load fixed at the service knee — a
//! 16-scalar cohort that outlives the measurement window plus a lane
//! trickle — and varies the *serving structure*: the weight skew
//! between the two tenant classes, the number of engine shards, and
//! the lane pack-hold. Every point runs the same cohort through an
//! in-process [`ShardedEngine`] with weighted-fair quanta
//! (`max_weight` 8).
//!
//! Three contracts are verified on every merge:
//!
//! 1. **Weighted fairness** — while both classes saturate their
//!    grants, mean completed cycles per heavy tenant over mean cycles
//!    per light tenant tracks the configured weight skew within 10%.
//!    A violation reports the full per-tenant shares table.
//! 2. **Shard scaling** — for a fixed (skew, hold), serving the same
//!    cohort on 2 or 4 shards never drops aggregate cycles/tick below
//!    0.9× the single-engine row (each shard serves a subset of the
//!    load with the whole scheduler's capacity, so lockstep ticks to
//!    drain can only shrink).
//! 3. **Pack-hold latency** — for a fixed (skew, shards), p99
//!    admission-to-first-quantum latency is monotone non-decreasing in
//!    the pack-hold: holding lane tenants to pack fuller groups may
//!    only ever delay first service, never buy it back.

use rsp_serve::{EngineConfig, ShardedEngine, TenantRequest, WatermarkScheduler};
use rsp_workloads::{LaneTraceSpec, StreamSpec, SynthSpec, UnitMix};
use serde::{Deserialize, Serialize};

use crate::sweep::Sweep;

/// Scalar tenants per point (alternating heavy/light class).
pub const SCALARS: u64 = 16;

/// Lane tenants trickled in during the window (one every other tick).
pub const LANES: u64 = 8;

/// Per-scalar cycle budget. Far above what the fairness window can
/// serve, so the window measures grants, not completions.
pub(crate) const SCALAR_CYCLES: u64 = 32_768;

/// Fairness measurement window, in engine ticks.
pub(crate) const WINDOW: u64 = 32;

/// Drain bound: hitting it means a stuck fleet, not a slow one.
const MAX_DRAIN_TICKS: u64 = 200_000;

/// The fixed admission policy every point runs under: 8 active
/// tenants per shard, queue deep enough that this grid never sheds.
pub(crate) fn sched_watermarks() -> WatermarkScheduler {
    WatermarkScheduler {
        queue_depth: 32,
        max_active: 8,
        step_lag_watermark: 64,
        quantum: 256,
        ..WatermarkScheduler::default()
    }
}

/// One grid point: weight skew between the heavy and light scalar
/// classes × engine shard count × lane pack-hold ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SchedPoint {
    /// Heavy-class weight (light class is always weight 1).
    pub skew: u32,
    /// Engine shards serving the fleet.
    pub shards: usize,
    /// Lane pack-hold, in ticks.
    pub hold: u64,
}

/// The `i`-th scalar of the cohort: even indices are heavy (weight
/// `skew`), odd are light (weight 1). The program is long enough that
/// the budget, never the halt, ends the tenant.
fn scalar(i: u64, skew: u32) -> TenantRequest {
    #[allow(unknown_lints, clippy::manual_is_multiple_of)]
    let weight = if i % 2 == 0 { skew } else { 1 };
    let spec = SynthSpec {
        body_len: 200,
        iterations: 1_000,
        ..SynthSpec::new("sched", UnitMix::BALANCED, 40 + i)
    };
    TenantRequest {
        telemetry_capacity: 0,
        ..TenantRequest::new(
            StreamSpec::synth(format!("sched-{i}"), spec, SCALAR_CYCLES).with_weight(weight),
        )
    }
}

/// The `n`-th trickled lane tenant. All share one trace envelope and
/// weight, so they are group-compatible and the pack-hold is the only
/// thing deciding how fully their groups pack.
fn lane(n: u64) -> TenantRequest {
    TenantRequest::new(StreamSpec::lane(
        format!("sched-lane-{n}"),
        LaneTraceSpec::synthetic_mix(2_048, 70),
        2_048,
    ))
}

/// One scalar tenant's share of the fairness window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct TenantShare {
    /// Fleet-global tenant id.
    pub id: u64,
    /// Configured weight.
    pub weight: u32,
    /// Cycles served by the end of the window (0 = still queued).
    pub cycles: u64,
}

/// One grid point's measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SchedRow {
    /// Heavy-class weight.
    pub skew: u32,
    /// Engine shards.
    pub shards: usize,
    /// Lane pack-hold ticks.
    pub hold: u64,
    /// Tenants offered (scalars + lanes).
    pub offered: u64,
    /// Tenants admitted (this grid never sheds).
    pub admitted: u64,
    /// Tenants that ran to completion.
    pub completed: u64,
    /// Lockstep engine ticks to drain the whole fleet.
    pub ticks: u64,
    /// Aggregate tenant-cycles stepped.
    pub stepped_cycles: u64,
    /// The shard-scaling metric: aggregate cycles per lockstep tick.
    pub cycles_per_tick: f64,
    /// Mean window cycles per active heavy tenant.
    pub heavy_mean: f64,
    /// Mean window cycles per active light tenant.
    pub light_mean: f64,
    /// `heavy_mean / light_mean` — the measured service skew.
    pub share_ratio: f64,
    /// Per-tenant shares at the window snapshot (the fairness
    /// verifier's evidence; printed in full on violation).
    pub shares: Vec<TenantShare>,
    /// p99 admission-to-first-quantum latency (ticks), merged
    /// aggregate over all shards at drain.
    pub admit_to_first_step_p99: u64,
    /// Lane groups formed over the run (fewer = fuller packing).
    pub lane_groups_formed: u64,
    /// The fleet drained to idle within the bound.
    pub drained: bool,
}

/// Run one grid point to completion and measure it.
pub(crate) fn measure_point(p: &SchedPoint) -> SchedRow {
    let cfg = EngineConfig {
        pack_hold_ticks: p.hold,
        ..EngineConfig::default()
    };
    let scheduler = WatermarkScheduler {
        max_weight: 8,
        ..sched_watermarks()
    };
    let mut fleet = ShardedEngine::new(cfg, scheduler, p.shards);

    let mut scalars = Vec::new();
    for i in 0..SCALARS {
        #[allow(unknown_lints, clippy::manual_is_multiple_of)]
        let weight = if i % 2 == 0 { p.skew } else { 1 };
        if let Ok(id) = fleet.submit(scalar(i, p.skew)) {
            scalars.push((id, weight));
        }
    }
    let mut lanes = 0u64;
    for tick in 1..=WINDOW {
        #[allow(unknown_lints, clippy::manual_is_multiple_of)]
        if tick % 2 == 0 && lanes < LANES {
            let _ = fleet.submit(lane(lanes));
            lanes += 1;
        }
        fleet.tick();
    }

    // Window snapshot: per-tenant served cycles while every scalar is
    // still mid-budget, so shares reflect grants alone.
    let frame = fleet.metrics();
    let shares: Vec<TenantShare> = scalars
        .iter()
        .map(|&(id, weight)| TenantShare {
            id,
            weight,
            cycles: frame
                .tenants
                .iter()
                .find(|t| t.id == id)
                .and_then(|t| t.snapshot.counter("cycles"))
                .unwrap_or(0),
        })
        .collect();
    // Shares are in submission order, so even indices are the heavy
    // class (this also tells the classes apart when skew = 1). Queued
    // tenants (0 cycles) have no grants to compare and are excluded.
    let class_mean = |heavy: bool| -> f64 {
        let active: Vec<u64> = shares
            .iter()
            .enumerate()
            .filter(|&(i, s)| {
                #[allow(unknown_lints, clippy::manual_is_multiple_of)]
                let h = i % 2 == 0;
                h == heavy && s.cycles > 0
            })
            .map(|(_, s)| s.cycles)
            .collect();
        if active.is_empty() {
            return 0.0;
        }
        active.iter().sum::<u64>() as f64 / active.len() as f64
    };
    let heavy_mean = class_mean(true);
    let light_mean = class_mean(false);

    let drained = fleet.run_until_idle(MAX_DRAIN_TICKS);
    let stats = fleet.stats();
    let final_frame = fleet.metrics();
    let admit_p99 = final_frame
        .aggregate
        .histogram("admit_to_first_step")
        .map_or(0, |h| h.quantile(0.99));

    SchedRow {
        skew: p.skew,
        shards: p.shards,
        hold: p.hold,
        offered: stats.submitted,
        admitted: stats.admitted,
        completed: stats.completed,
        ticks: stats.ticks,
        stepped_cycles: stats.stepped_cycles,
        cycles_per_tick: stats.stepped_cycles as f64 / stats.ticks.max(1) as f64,
        heavy_mean,
        light_mean,
        share_ratio: if light_mean > 0.0 {
            heavy_mean / light_mean
        } else {
            0.0
        },
        shares,
        admit_to_first_step_p99: admit_p99,
        lane_groups_formed: stats.lane_groups_formed,
        drained,
    }
}

fn shares_table(row: &SchedRow) -> String {
    use std::fmt::Write;
    let mut s = String::from("      id  weight    cycles\n");
    for t in &row.shares {
        let _ = writeln!(s, "{:>8} {:>7} {:>9}", t.id, t.weight, t.cycles);
    }
    s
}

/// The serving-structure experiment as a [`Sweep`]: one point per
/// (skew, shards, pack-hold) triple. Every field of a row is a pure
/// function of the key.
pub(crate) struct ServeSchedSweep {
    /// The store name: each grid has its own, so the full and reduced
    /// grids never share a store entry.
    name: &'static str,
    skews: Vec<u32>,
    shards: Vec<usize>,
    holds: Vec<u64>,
}

impl ServeSchedSweep {
    /// The full grid: 3 skews × 3 shard counts × 3 holds = 27 points.
    pub(crate) fn full() -> ServeSchedSweep {
        ServeSchedSweep {
            name: "serve_sched",
            skews: vec![1, 2, 3],
            shards: vec![1, 2, 4],
            holds: vec![0, 4, 16],
        }
    }

    /// A reduced grid for engine tests and quick CI: one skew, two
    /// shard counts, two holds. The verifiers are grid-shape-agnostic,
    /// so the same contracts are enforced on the smaller grid.
    #[cfg(test)]
    pub(crate) fn reduced() -> ServeSchedSweep {
        ServeSchedSweep {
            name: "serve_sched_reduced",
            skews: vec![3],
            shards: vec![1, 2],
            holds: vec![0, 8],
        }
    }
}

impl Sweep for ServeSchedSweep {
    type Point = SchedPoint;
    type Row = SchedRow;

    fn name(&self) -> &'static str {
        self.name
    }

    fn points(&self) -> Vec<SchedPoint> {
        let mut pts = Vec::new();
        for &skew in &self.skews {
            for &shards in &self.shards {
                for &hold in &self.holds {
                    pts.push(SchedPoint { skew, shards, hold });
                }
            }
        }
        pts
    }

    fn key(&self, p: &SchedPoint) -> String {
        format!("w{}s{}h{:02}", p.skew, p.shards, p.hold)
    }

    fn run_point(&self, p: &SchedPoint) -> SchedRow {
        measure_point(p)
    }

    fn verify(&self, rows: &[SchedRow]) -> Result<(), String> {
        for r in rows {
            if !r.drained {
                return Err(format!(
                    "w{}s{}h{}: fleet failed to drain",
                    r.skew, r.shards, r.hold
                ));
            }
            if r.admitted != r.offered {
                return Err(format!(
                    "w{}s{}h{}: {} of {} offered tenants shed — this grid is \
                     sized to never shed",
                    r.skew,
                    r.shards,
                    r.hold,
                    r.offered - r.admitted,
                    r.offered
                ));
            }
            if r.completed != r.admitted {
                return Err(format!(
                    "w{}s{}h{}: {} admitted but only {} completed",
                    r.skew, r.shards, r.hold, r.admitted, r.completed
                ));
            }
            // Weighted fairness: the measured service skew tracks the
            // configured weight skew within 10%.
            let want = r.skew as f64;
            if (r.share_ratio - want).abs() > 0.1 * want {
                return Err(format!(
                    "w{}s{}h{}: heavy/light share ratio {:.3} drifted more than \
                     10% from the {}:1 weight split; window shares:\n{}",
                    r.skew,
                    r.shards,
                    r.hold,
                    r.share_ratio,
                    r.skew,
                    shares_table(r)
                ));
            }
        }
        // Shard scaling: sharding never regresses aggregate throughput
        // below 0.9× the single-engine row for the same (skew, hold).
        for base in rows.iter().filter(|r| r.shards == 1) {
            for r in rows
                .iter()
                .filter(|r| r.shards > 1 && r.skew == base.skew && r.hold == base.hold)
            {
                if r.cycles_per_tick < 0.9 * base.cycles_per_tick {
                    return Err(format!(
                        "w{}h{}: {} shards served {:.0} cycles/tick vs {:.0} on one \
                         engine — sharding must not cost throughput",
                        r.skew, r.hold, r.shards, r.cycles_per_tick, base.cycles_per_tick
                    ));
                }
            }
        }
        // Pack-hold latency: p99 admit→first-quantum is monotone
        // non-decreasing in the hold for a fixed (skew, shards).
        for a in rows {
            for b in rows {
                if a.skew == b.skew
                    && a.shards == b.shards
                    && a.hold < b.hold
                    && a.admit_to_first_step_p99 > b.admit_to_first_step_p99
                {
                    return Err(format!(
                        "w{}s{}: p99 admit latency fell from {} (hold {}) to {} \
                         (hold {}) — holding lanes can only delay first service",
                        a.skew,
                        a.shards,
                        a.admit_to_first_step_p99,
                        a.hold,
                        b.admit_to_first_step_p99,
                        b.hold
                    ));
                }
            }
        }
        Ok(())
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("BENCH_serve_sched.json")
    }

    fn report(&self, rows: &[SchedRow]) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:>4} {:>6} {:>4} {:>9} {:>7} {:>13} {:>11} {:>10} {:>7}",
            "skew",
            "shards",
            "hold",
            "admitted",
            "ticks",
            "cycles/tick",
            "share",
            "admit-p99",
            "groups"
        );
        for r in rows {
            let _ = writeln!(
                s,
                "{:>4} {:>6} {:>4} {:>9} {:>7} {:>13.0} {:>11.3} {:>10} {:>7}",
                r.skew,
                r.shards,
                r.hold,
                r.admitted,
                r.ticks,
                r.cycles_per_tick,
                r.share_ratio,
                r.admit_to_first_step_p99,
                r.lane_groups_formed
            );
        }
        let _ = writeln!(
            s,
            "share tracks the weight skew within 10%; sharding holds ≥0.9× \
             single-engine cycles/tick; admit p99 is monotone in the pack-hold"
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cohort_is_deterministic_and_classed() {
        assert_eq!(
            serde_json::to_string(&scalar(4, 3)).unwrap(),
            serde_json::to_string(&scalar(4, 3)).unwrap()
        );
        assert_eq!(scalar(0, 3).spec.effective_weight(), 3);
        assert_eq!(scalar(1, 3).spec.effective_weight(), 1);
        assert!(lane(0).spec.is_lane());
    }

    #[test]
    fn skewed_point_tracks_weights_and_drains() {
        let r = measure_point(&SchedPoint {
            skew: 3,
            shards: 2,
            hold: 4,
        });
        assert!(r.drained);
        assert_eq!(r.admitted, r.offered);
        assert_eq!(r.completed, r.admitted);
        assert!(
            (r.share_ratio - 3.0).abs() <= 0.3,
            "share ratio {:.3} off 3:1\n{}",
            r.share_ratio,
            shares_table(&r)
        );
    }

    #[test]
    fn reduced_grid_verifies() {
        let sweep = ServeSchedSweep::reduced();
        let rows: Vec<SchedRow> = sweep.points().iter().map(measure_point).collect();
        sweep.verify(&rows).expect("reduced grid contracts hold");
    }
}

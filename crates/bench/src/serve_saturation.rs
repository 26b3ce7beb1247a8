//! Serve-saturation sweep: aggregate tenant throughput and shed rate vs
//! offered load (`BENCH_serve_saturation.json`).
//!
//! Each grid point runs an open-loop arrival experiment against an
//! in-process [`ServeEngine`]: `rate` tenants are submitted per engine
//! tick for a fixed arrival window, then the engine drains. The
//! scheduler's watermarks are held constant across the grid, so the
//! sweep traces out the service curve — below the knee every tenant is
//! admitted; past it the admission queue fills and the engine sheds
//! with explicit reasons instead of letting the backlog grow without
//! bound.
//!
//! The load-shedding contract this artifact pins (and [`Sweep::verify`]
//! re-checks on every merge): shedding absorbs the *excess* — tenants
//! the engine does admit under overload keep stepping at the same
//! per-tick rate as at the knee. The verified throughput metric is
//! **cycles per engine tick**, which is a pure function of the grid
//! point (no wall clock), so the contract holds deterministically on
//! any host. Every stored column is such a function: wall-clock
//! serving speed is measured by the `perf` benchmark, not stored here.

use rsp_serve::{EngineConfig, ServeEngine, TenantRequest, WatermarkScheduler};
use rsp_workloads::{LaneTraceSpec, StreamSpec, SynthSpec, UnitMix};
use serde::{Deserialize, Serialize};

use crate::sweep::Sweep;

/// Offered load per grid point: tenants submitted per engine tick.
pub(crate) const RATES: [u32; 8] = [1, 2, 3, 4, 6, 8, 12, 16];

/// Ticks during which tenants arrive (the drain phase follows).
pub(crate) const ARRIVAL_TICKS: u32 = 48;

/// Per-tenant cycle budget. Tenant programs are generated long enough
/// that every tenant runs exactly this many cycles, so service demand
/// is uniform and the capacity knee is sharp.
pub(crate) const TENANT_CYCLES: u64 = 1024;

/// Drain bound: far above the worst case (all admitted tenants still
/// queued when arrivals stop), so hitting it means a stuck engine, not
/// a slow one.
const MAX_DRAIN_TICKS: u64 = 100_000;

/// The fixed admission policy every point runs under.
pub(crate) fn saturation_scheduler() -> WatermarkScheduler {
    WatermarkScheduler {
        queue_depth: 16,
        max_active: 8,
        step_lag_watermark: 64,
        quantum: 256,
        ..WatermarkScheduler::default()
    }
}

/// The `n`-th arriving tenant's request. Deterministic in `n`; every
/// eighth tenant is a lane tenant (packed onto the bit-sliced kernel),
/// the rest rotate the named synthetic mixes on scalar machines. All
/// tenants demand exactly `TENANT_CYCLES` cycles.
pub fn arrival(n: u64) -> TenantRequest {
    if n % 8 == 7 {
        return TenantRequest::new(StreamSpec::lane(
            format!("sat-lane-{n}"),
            LaneTraceSpec::synthetic_mix(TENANT_CYCLES as u32, 9_000 + n),
            TENANT_CYCLES,
        ));
    }
    let mixes = UnitMix::named();
    let (mix_name, mix) = mixes[(n as usize) % mixes.len()];
    let mut spec = SynthSpec::new(format!("sat-{mix_name}-{n}"), mix, 5_000 + n);
    // Long enough that the budget cap, not the halt, ends every tenant.
    spec.iterations = 8;
    TenantRequest::new(StreamSpec::synth(format!("sat-{n}"), spec, TENANT_CYCLES))
}

/// One offered-load level's measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SaturationRow {
    /// Tenants offered per tick.
    pub rate: u32,
    /// Tenants offered over the arrival window.
    pub offered: u64,
    /// Tenants admitted (all of which completed).
    pub admitted: u64,
    /// Tenants that ran to completion.
    pub completed: u64,
    /// Sheds at the queue-depth watermark.
    pub shed_queue_full: u64,
    /// Sheds at the step-lag watermark.
    pub shed_step_lag: u64,
    /// Shed fraction of offered load.
    pub shed_rate: f64,
    /// Engine ticks run (arrival window + drain).
    pub ticks: u64,
    /// Aggregate tenant-cycles stepped.
    pub stepped_cycles: u64,
    /// The verified throughput metric: tenant-cycles per engine tick
    /// (deterministic — no wall clock).
    pub cycles_per_tick: f64,
    /// The engine drained to idle within the bound.
    pub drained: bool,
    /// SLO column: median queue residency (admission → activation) in
    /// engine ticks, from the engine's aggregate SLO histogram.
    /// Tick-derived, so deterministic per grid point.
    #[serde(default)]
    pub queue_residency_p50: u64,
    /// SLO column: p99 queue residency in engine ticks.
    #[serde(default)]
    pub queue_residency_p99: u64,
    /// SLO column: p99 admission-to-first-quantum latency in engine
    /// ticks.
    #[serde(default)]
    pub admit_to_first_step_p99: u64,
}

/// Run one offered-load level to completion and measure it.
pub(crate) fn measure_rate(rate: u32) -> SaturationRow {
    let mut engine = ServeEngine::new(EngineConfig::default(), saturation_scheduler());
    let mut n = 0u64;
    for _ in 0..ARRIVAL_TICKS {
        for _ in 0..rate {
            // Sheds are the point of the experiment; the engine counts
            // them per reason in its stats.
            let _ = engine.submit(arrival(n));
            n += 1;
        }
        engine.tick();
    }
    let drained = engine.run_until_idle(MAX_DRAIN_TICKS);
    let stats = engine.stats();
    let slo = engine.metrics().aggregate;
    let quantiles = |name: &str| -> (u64, u64) {
        slo.histogram(name)
            .map_or((0, 0), |h| (h.quantile(0.5), h.quantile(0.99)))
    };
    let (res_p50, res_p99) = quantiles("queue_residency");
    let (_, admit_p99) = quantiles("admit_to_first_step");
    SaturationRow {
        rate,
        offered: stats.submitted,
        admitted: stats.admitted,
        completed: stats.completed,
        shed_queue_full: stats.shed_queue_full,
        shed_step_lag: stats.shed_step_lag,
        shed_rate: stats.shed_total() as f64 / stats.submitted as f64,
        ticks: stats.ticks,
        stepped_cycles: stats.stepped_cycles,
        cycles_per_tick: stats.stepped_cycles as f64 / stats.ticks as f64,
        drained,
        queue_residency_p50: res_p50,
        queue_residency_p99: res_p99,
        admit_to_first_step_p99: admit_p99,
    }
}

/// The saturation experiment as a [`Sweep`]: one point per offered-load
/// level, keyed by rate. Every field of a row is a pure function of
/// the key.
pub(crate) struct ServeSaturationSweep;

impl Sweep for ServeSaturationSweep {
    type Point = u32;
    type Row = SaturationRow;

    fn name(&self) -> &'static str {
        "serve_saturation"
    }

    fn points(&self) -> Vec<u32> {
        RATES.to_vec()
    }

    fn key(&self, rate: &u32) -> String {
        format!("rate{rate:03}")
    }

    fn run_point(&self, rate: &u32) -> SaturationRow {
        measure_rate(*rate)
    }

    fn verify(&self, rows: &[SaturationRow]) -> Result<(), String> {
        for r in rows {
            if !r.drained {
                return Err(format!("rate {}: engine failed to drain", r.rate));
            }
            if r.admitted + r.shed_queue_full + r.shed_step_lag != r.offered {
                return Err(format!("rate {}: admissions + sheds != offered", r.rate));
            }
            if r.completed != r.admitted {
                return Err(format!(
                    "rate {}: {} admitted but {} completed",
                    r.rate, r.admitted, r.completed
                ));
            }
            if r.queue_residency_p50 > r.queue_residency_p99 {
                return Err(format!(
                    "rate {}: residency p50 {} exceeds p99 {}",
                    r.rate, r.queue_residency_p50, r.queue_residency_p99
                ));
            }
        }
        let unsaturated: Vec<&SaturationRow> = rows.iter().filter(|r| r.shed_rate == 0.0).collect();
        let saturated: Vec<&SaturationRow> = rows.iter().filter(|r| r.shed_rate > 0.0).collect();
        if unsaturated.is_empty() || saturated.is_empty() {
            return Err(format!(
                "grid must straddle the knee: {} unsaturated, {} saturated row(s)",
                unsaturated.len(),
                saturated.len()
            ));
        }
        // Graceful degradation: past the shed watermark, the tenants the
        // engine does admit keep stepping at (within 10% of) the best
        // pre-saturation per-tick rate — overload is absorbed by
        // shedding, not by slowing everyone down.
        let knee = unsaturated
            .iter()
            .map(|r| r.cycles_per_tick)
            .fold(0.0f64, f64::max);
        for r in &saturated {
            if r.cycles_per_tick < 0.9 * knee {
                return Err(format!(
                    "rate {}: admitted-tenant throughput collapsed under overload \
                     ({:.0} cycles/tick vs {:.0} at the knee)",
                    r.rate, r.cycles_per_tick, knee
                ));
            }
        }
        // Shedding absorbs the excess: the shed fraction grows with
        // offered load (monotone across the saturated tail) …
        for pair in saturated.windows(2) {
            if pair[1].shed_rate < pair[0].shed_rate {
                return Err(format!(
                    "shed rate fell from {:.3} (rate {}) to {:.3} (rate {})",
                    pair[0].shed_rate, pair[0].rate, pair[1].shed_rate, pair[1].rate
                ));
            }
        }
        // … while admissions stop growing with offered load: past the
        // knee every row admits the same service capacity (within 10%),
        // however much extra load is offered.
        let cap_min = saturated.iter().map(|r| r.admitted).min().unwrap_or(0);
        for r in &saturated {
            if r.admitted as f64 > 1.1 * cap_min as f64 {
                return Err(format!(
                    "rate {}: admitted {} tenants but another saturated row admitted \
                     only {} — admissions must not scale with offered load",
                    r.rate, r.admitted, cap_min
                ));
            }
        }
        Ok(())
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("BENCH_serve_saturation.json")
    }

    fn report(&self, rows: &[SaturationRow]) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:>5} {:>8} {:>9} {:>6} {:>10} {:>7} {:>13} {:>9} {:>9}",
            "rate",
            "offered",
            "admitted",
            "shed",
            "shed-rate",
            "ticks",
            "cycles/tick",
            "res-p50",
            "res-p99"
        );
        for r in rows {
            let _ = writeln!(
                s,
                "{:>5} {:>8} {:>9} {:>6} {:>10.3} {:>7} {:>13.0} {:>9} {:>9}",
                r.rate,
                r.offered,
                r.admitted,
                r.shed_queue_full + r.shed_step_lag,
                r.shed_rate,
                r.ticks,
                r.cycles_per_tick,
                r.queue_residency_p50,
                r.queue_residency_p99
            );
        }
        if let Some(first_shed) = rows.iter().find(|r| r.shed_rate > 0.0) {
            let _ = writeln!(
                s,
                "knee between rate {} and rate {}: beyond it admissions hold near \
                 capacity and the shed rate absorbs the excess",
                rows.iter()
                    .filter(|r| r.shed_rate == 0.0)
                    .map(|r| r.rate)
                    .max()
                    .unwrap_or(0),
                first_shed.rate
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_deterministic_and_mixed() {
        for n in [0u64, 3, 7, 15] {
            let a = arrival(n);
            let b = arrival(n);
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap()
            );
        }
        assert!(arrival(7).spec.is_lane());
        assert!(!arrival(6).spec.is_lane());
    }

    #[test]
    fn low_rate_point_admits_everything() {
        let r = measure_rate(1);
        assert!(r.drained);
        assert_eq!(r.admitted, r.offered);
        assert_eq!(r.completed, r.admitted);
        assert_eq!(r.shed_rate, 0.0);
        // Uniform service demand: every tenant runs its full budget.
        assert_eq!(r.stepped_cycles, r.admitted * TENANT_CYCLES);
    }

    #[test]
    fn high_rate_point_sheds_but_serves_admitted_tenants_fully() {
        let r = measure_rate(16);
        assert!(r.drained);
        assert!(r.shed_rate > 0.0, "rate 16 must saturate the scheduler");
        assert_eq!(r.completed, r.admitted);
        assert_eq!(r.stepped_cycles, r.admitted * TENANT_CYCLES);
    }
}

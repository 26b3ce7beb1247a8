//! The benchmark's metric vocabulary and the outcome of one run.
//!
//! `BENCHMARK.json` at the repository root lists the same names and
//! units; a unit test keeps the two in step.

use serde_json::Value;

/// One metric: its name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one of them; what "work" and "operation" mean per workload is
/// documented in `perf/README.md`.
pub const END_TO_END: &[Def] = &[
    def("throughput", "1/s"),
    def("latency_p50_ms", "ms"),
    def("setup_s", "s"),
    def("peak_rss_mb", "MiB"),
];

/// Per-layer metrics from a traced run, grouped by the module they time.
pub const PER_LAYER: &[Def] = &[
    // sim: processor, batch, frontend
    def("sim.step_ns_p50", "ns"),
    def("sim.step_ns_p99", "ns"),
    def("sim.reset_us", "us"),
    def("sim.squash_frac", "ratio"),
    def("frontend.trace_hit_frac", "ratio"),
    def("sim.ipc", "instr/cycle"),
    def("sim.unattributed_ns_per_cycle", "ns/cycle"),
    def("sim.attributed_frac", "ratio"),
    // sched: wakeup, arbiter, stall
    def("sched.wakeup_requests_ns", "ns/cycle"),
    def("sched.arbiter_ns", "ns/cycle"),
    def("sched.wakeup_tick_ns", "ns/cycle"),
    def("sched.stall_queue_full_frac", "ratio"),
    def("sched.stall_rob_full_frac", "ratio"),
    def("sched.stall_starved_frac", "ratio"),
    def("sched.stall_queue_empty_frac", "ratio"),
    // core: encoder, cem, select, loader, policy
    def("core.policy_tick_ns", "ns/cycle"),
    def("core.encoder_ns", "ns/cycle"),
    def("core.cem_ns", "ns/cycle"),
    def("core.select_ns", "ns/cycle"),
    def("core.choose_ns", "ns/cycle"),
    def("core.loader_ns", "ns/cycle"),
    def("core.selection_change_frac", "ratio"),
    def("core.load_start_frac", "ratio"),
    def("core.retries", "count"),
    def("core.zombie_reloads", "count"),
    def("core.replacements", "count"),
    // fabric: fabric, availability
    def("fabric.tick_ns", "ns/cycle"),
    def("fabric.availability_ns", "ns/cycle"),
    def("fabric.load_failure_frac", "ratio"),
    def("fabric.upsets_detected_frac", "ratio"),
    // sim::lanes
    def("lanes.step_ns_per_word", "ns"),
    def("lanes.step_ns_per_word_w1", "ns"),
    def("lanes.step_ns_per_word_w16", "ns"),
    def("lanes.selection_change_frac", "ratio"),
    def("lanes.loads_per_kcycle", "count/kcycle"),
    def("lanes.stimulus_build_ms", "ms"),
    def("lanes.differential_mismatches", "count"),
    // serve transport: protocol, client, server
    def("protocol.encode_ns", "ns"),
    def("protocol.decode_ns", "ns"),
    def("protocol.frame_bytes", "B"),
    def("transport.unix_rtt_us_p50", "us"),
    def("transport.unix_rtt_us_p99", "us"),
    def("transport.tcp_rtt_ms_p50", "ms"),
    def("transport.tcp_rtt_ms_p90", "ms"),
    // serve engine: engine, scheduler, slo, fleet
    def("engine.submit_ns_p50", "ns"),
    def("engine.submit_ns_p99", "ns"),
    def("engine.tick_us_p50", "us"),
    def("engine.tick_us_p99", "us"),
    def("engine.cycles_per_tick", "cycles"),
    def("engine.inproc_cycles_per_s", "1/s"),
    def("engine.lane_group_fill", "ratio"),
    def("engine.pool_reuse_frac", "ratio"),
    def("slo.overhead_frac", "ratio"),
    def("slo.queue_residency_ticks_p99", "ticks"),
    def("slo.admit_to_first_step_ticks_p99", "ticks"),
    def("fleet.tick_us_s1", "us"),
    def("fleet.tick_us_s2", "us"),
    // obs exposition
    def("expo.metrics_frame_ms", "ms"),
    def("expo.prom_render_ms", "ms"),
    def("expo.prom_bytes", "B"),
    // bench: sweep + cas
    def("sweep.e1-ipc.cold_s", "s"),
    def("sweep.fault-sweep.cold_s", "s"),
    def("sweep.serve-saturation.cold_s", "s"),
    def("sweep.serve-sched.cold_s", "s"),
    def("sweep.uncached.cold_s", "s"),
    def("sweep.cached.warm_s", "s"),
    def("sweep.uncached.warm_s", "s"),
    def("cas.warm_hit_frac", "ratio"),
    def("cas.cold_misses", "count"),
    def("cas.claim_waits", "count"),
    def("cas.objects", "count"),
    def("cas.store_kb", "KiB"),
    // harness
    def("loadgen.lag_p99_ms", "ms"),
    def("loadgen.polls_per_tenant", "count"),
    def("serve.latency_p90_ms", "ms"),
    def("serve.latency_p99_ms", "ms"),
    def("setup.program_gen_ms", "ms"),
    def("setup.server_start_ms", "ms"),
    def("trace.overhead_frac", "ratio"),
    def("host.speed", "ratio"),
];

/// What one workload run produced: operation and check counts, the
/// failures, and the measured values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and correctness checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
    values: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Count one operation or check; record `what` if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    /// Count `n` operations, of which `bad` failed (already reported).
    pub fn ops(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Record a failure that is not tied to one operation.
    pub fn fail(&mut self, what: String) {
        self.check(false, || what);
    }

    /// Set metric `name` (overwriting an earlier value).
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The metrics of `defs`, in their order. A metric the run did not
    /// set is a harness bug, reported as an error.
    pub fn metrics(&self, defs: &[Def]) -> Result<Vec<(Def, f64)>, String> {
        defs.iter()
            .map(|d| {
                self.get(d.name)
                    .map(|v| (*d, v))
                    .ok_or_else(|| format!("metric {} was not measured", d.name))
            })
            .collect()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` from (name, value, unit).
pub fn metrics_json<'a>(metrics: impl IntoIterator<Item = (&'a str, f64, &'a str)>) -> Value {
    Value::Object(
        metrics
            .into_iter()
            .map(|(name, v, unit)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(v)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

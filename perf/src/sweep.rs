//! `sweep`: `experiments all` in-process. Every experiment id runs once
//! against a fresh content-addressed store (cold), the sweep-backed ids
//! shard by shard and then `merge`, then again against the now-warm
//! store.
//!
//! The experiment grids are fixed by the program, so this workload's
//! inputs do not depend on the seed.

use std::fs;
use std::path::{Path, PathBuf};

use rsp_bench::experiments::{run as run_experiment, sweep_runner, ALL_IDS};
use rsp_bench::{CacheSnapshot, CasStore, Executor, Shard, SweepConfig, SweepError};

use crate::metrics::Outcome;
use crate::probe::{Mix, Probe};
use crate::stats::{median, SetupClock};
use crate::Budget;

/// Every experiment id `experiments all` runs.
fn ids() -> impl Iterator<Item = &'static str> {
    ALL_IDS.into_iter().filter(|&id| id != "all")
}

/// Sweep ids whose cold time the trace reports on its own, with the
/// metric each is reported under.
const SWEEP_IDS: [(&str, &str); 4] = [
    ("e1-ipc", "sweep.e1-ipc.cold_s"),
    ("fault-sweep", "sweep.fault-sweep.cold_s"),
    ("serve-saturation", "sweep.serve-saturation.cold_s"),
    ("serve-sched", "sweep.serve-sched.cold_s"),
];

/// This process's scratch directory for `tag`.
fn scratch_root(tag: &str) -> PathBuf {
    crate::scratch_dir().join(format!("{tag}-{}", std::process::id()))
}

/// A fresh store and output directory under the scratch directory.
fn fresh_config(tag: &str) -> Result<SweepConfig, String> {
    let root = scratch_root(tag);
    remove(&root);
    let out_dir = root.join("out");
    fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    Ok(SweepConfig {
        out_dir,
        cache_dir: Some(root.join("cache")),
        ..SweepConfig::default()
    })
}

fn remove(root: &Path) {
    if root.exists() {
        let _ = fs::remove_dir_all(root);
    }
}

fn root_of(cfg: &SweepConfig) -> PathBuf {
    cfg.out_dir
        .parent()
        .expect("out dir has a parent")
        .to_path_buf()
}

/// One run of one experiment id.
struct IdRun {
    id: &'static str,
    /// Seconds at reference host speed.
    secs: f64,
    /// Merged artifact bytes, for sweep ids that write one.
    artifact: Option<Vec<u8>>,
    /// Rendered report text.
    report: String,
    /// Store counters, for sweep ids that consulted the store.
    cache: Option<CacheSnapshot>,
}

/// Shards a sweep runs in (`experiments <id> --shard k/N` for each k, in
/// this process, then `--merge`). The serve-sched sweep alone runs for
/// seconds; in shards of about a second each, a host-speed probe before
/// every shard tracks contention that changes within the sweep.
const SHARDS: u32 = 8;

fn add(a: CacheSnapshot, b: CacheSnapshot) -> CacheSnapshot {
    CacheSnapshot {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        claim_waits: a.claim_waits + b.claim_waits,
        quarantined: a.quarantined + b.quarantined,
    }
}

/// Run experiment `id` once, each step right after a host-speed probe. A
/// sweep runs shard by shard, then merges; the merge runs its
/// cross-point verifier, so an `Ok` run has passed it.
fn run_id(id: &'static str, cfg: &SweepConfig, probe: &mut Probe) -> Result<IdRun, String> {
    let at = |e: SweepError| format!("{id}: {e}");
    let (report, artifact, cache, secs) = match sweep_runner(id) {
        Some(s) => {
            let (mut secs, mut cache) = (0.0, None);
            for k in 0..SHARDS {
                let shard = SweepConfig {
                    executor: Executor::Shard(Shard::new(k, SHARDS).map_err(at)?),
                    ..cfg.clone()
                };
                let (summary, t) = probe.time(|| s.run(&shard));
                secs += t;
                if let Some(c) = summary.map_err(at)?.cache {
                    cache = Some(add(cache.unwrap_or_default(), c));
                }
            }
            let (merged, t) = probe.time(|| s.merge(cfg));
            let merged = merged.map_err(at)?;
            (merged.report, merged.artifact, cache, secs + t)
        }
        None => {
            let (report, t) = probe.time(|| run_experiment(id));
            let report = report.ok_or_else(|| format!("{id}: unknown experiment"))?;
            (report, None, None, t)
        }
    };
    let artifact = artifact
        .map(|p| fs::read(&p).map_err(|e| format!("{}: {e}", p.display())))
        .transpose()?;
    Ok(IdRun {
        id,
        secs,
        artifact,
        report,
        cache,
    })
}

/// Run every id once.
fn pass(cfg: &SweepConfig, probe: &mut Probe) -> Result<Vec<IdRun>, String> {
    ids().map(|id| run_id(id, cfg, probe)).collect()
}

/// Every point key the cacheable sweeps plan under `cfg`.
fn planned_keys(cfg: &SweepConfig) -> Result<u64, String> {
    let mut keys = 0u64;
    for id in ids() {
        if let Some(s) = sweep_runner(id).filter(|s| s.cacheable()) {
            keys += s.point_hashes(cfg).map_err(|e| format!("{id}: {e}"))?.len() as u64;
        }
    }
    Ok(keys)
}

/// A warm run must be served entirely from the store and reproduce the
/// cold run byte for byte; returns its store hits.
fn check_warm(cold: &IdRun, warm: &IdRun, out: &mut Outcome) -> u64 {
    if let Some(cache) = &warm.cache {
        out.check(cache.misses == 0 && cache.hits == cache.lookups(), || {
            format!(
                "{}: warm run missed the store ({} of {} lookups)",
                warm.id,
                cache.misses,
                cache.lookups()
            )
        });
    }
    out.check(
        cold.artifact == warm.artifact && cold.report == warm.report,
        || format!("{}: warm output differs from the cold output", warm.id),
    );
    warm.cache.map_or(0, |c| c.hits)
}

/// Warm runs of every id per run; the median is the id's warm time.
const WARM_RUNS: usize = 5;

/// The end-to-end run: every experiment id runs once against a fresh
/// store (cold), then straight away [`WARM_RUNS`] times against the
/// now-warm store, each run scaled by host-speed probes. Throughput is
/// experiment ids per second of the cold runs; the latency is one warm
/// pass: the sum of every id's median warm run. Times are at reference
/// host speed.
pub fn run(budget: &Budget) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: fresh directories and every sweep's planned point keys. The
    // repeat set-ups timed during the run use a directory of their own.
    let prepare = |tag: &str| -> Result<(SweepConfig, u64), String> {
        let cfg = fresh_config(tag)?;
        let planned = planned_keys(&cfg)?;
        Ok((cfg, planned))
    };
    const REPEAT: &str = "sweep-setup";
    let mut setups = SetupClock::new(budget.seconds, Mix::Machine);
    let (cfg, planned) = match setups.time(|| prepare("sweep")) {
        Ok(p) => p,
        Err(e) => {
            out.fail(format!("sweep set-up failed: {e}"));
            return out;
        }
    };
    setups.start();
    let mut probe = Probe::new(Mix::Machine);
    let warm_runs = if budget.quick { 1 } else { WARM_RUNS };
    let (mut cold_s, mut warm_s, mut hits) = (0.0, 0.0, 0u64);
    'ids: for id in ids() {
        let cold = match run_id(id, &cfg, &mut probe) {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("cold run failed: {e}"));
                break;
            }
        };
        out.ops(1, 0);
        cold_s += cold.secs;
        let mut secs = Vec::with_capacity(warm_runs);
        for _ in 0..warm_runs {
            match run_id(id, &cfg, &mut probe) {
                Ok(warm) => {
                    out.ops(1, 0);
                    secs.push(warm.secs);
                    hits += check_warm(&cold, &warm, &mut out);
                }
                Err(e) => {
                    out.fail(format!("warm run failed: {e}"));
                    break 'ids;
                }
            }
        }
        warm_s += median(&secs);
        setups.catch_up(|| prepare(REPEAT));
    }
    let want = planned * warm_runs as u64;
    out.check(hits == want, || {
        format!("warm runs served {hits} of {want} planned points from the store")
    });
    remove(&root_of(&cfg));
    out.set("throughput", ids().count() as f64 / cold_s);
    out.set("latency_p50_ms", warm_s * 1e3);
    out.set("host.speed", probe.median_speed());
    out.set("setup_s", setups.finish(|| prepare(REPEAT)));
    remove(&scratch_root(REPEAT));
    out
}

/// Total bytes of regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// The traced run's `sweep.*` and `cas.*` metrics: per-id cold and warm
/// times, and the store's counters and footprint.
pub fn trace(out: &mut Outcome) {
    let cfg = match fresh_config("sweep-trace") {
        Ok(c) => c,
        Err(e) => return out.fail(e),
    };
    let mut probe = Probe::new(Mix::Machine);
    let cold = pass(&cfg, &mut probe);
    let (cold, warm) = match cold.and_then(|c| pass(&cfg, &mut probe).map(|w| (c, w))) {
        Ok(x) => x,
        Err(e) => {
            remove(&root_of(&cfg));
            return out.fail(format!("sweep pass failed: {e}"));
        }
    };
    for (id, name) in SWEEP_IDS {
        match cold.iter().find(|r| r.id == id) {
            Some(r) => out.set(name, r.secs),
            None => out.fail(format!("experiment id {id} no longer exists")),
        }
    }
    // Sweep-backed ids consulted the store; the others always compute.
    let sum = |runs: &[IdRun], cached: bool| -> f64 {
        runs.iter()
            .filter(|r| r.cache.is_some() == cached)
            .map(|r| r.secs)
            .sum()
    };
    out.set("sweep.uncached.cold_s", sum(&cold, false));
    out.set("sweep.cached.warm_s", sum(&warm, true));
    out.set("sweep.uncached.warm_s", sum(&warm, false));
    let counters = |runs: &[IdRun]| {
        runs.iter()
            .filter_map(|r| r.cache)
            .fold(CacheSnapshot::default(), add)
    };
    let (c, w) = (counters(&cold), counters(&warm));
    out.set(
        "cas.warm_hit_frac",
        w.hits as f64 / w.lookups().max(1) as f64,
    );
    out.set("cas.cold_misses", c.misses as f64);
    out.set("cas.claim_waits", (c.claim_waits + w.claim_waits) as f64);
    let cache_dir = cfg.cache_dir.clone().expect("store configured");
    match CasStore::open(&cache_dir).and_then(|s| s.list()) {
        Ok(objects) => out.set("cas.objects", objects.len() as f64),
        Err(e) => out.fail(format!("store listing failed: {e}")),
    }
    out.set("cas.store_kb", dir_bytes(&cache_dir) as f64 / 1024.0);
    remove(&root_of(&cfg));
}

//! Integration tests for the content-addressed artifact store under
//! the sweep engine (DESIGN.md §17):
//!
//! * a warm rerun of a real sweep is 100% cache hits and reproduces
//!   the `BENCH_*.json` artifact byte-identically;
//! * two concurrent whole-grid runs sharing one store never compute
//!   the same point twice — the claim protocol turns the loser of each
//!   race into a waiter, so total computes equal the grid size;
//! * flipping the code version invalidates every entry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use rsp_bench::experiments::faults::FaultSweep;
use rsp_bench::sweep::{Executor, Sweep, SweepConfig, SweepRunner};
use serde_json::Value;

fn fresh_base(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("rsp-cas-it-{}", std::process::id()))
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cfg(base: &std::path::Path, out: &str) -> SweepConfig {
    SweepConfig {
        executor: Executor::InProcess,
        out_dir: base.join(out),
        cache_dir: Some(base.join("cas")),
        code_version: "it-v1".into(),
        ..SweepConfig::default()
    }
}

#[test]
fn warm_rerun_of_fault_sweep_is_all_hits_and_byte_identical() {
    let base = fresh_base("warm");
    let sweep = FaultSweep::reduced();
    let runner: &dyn SweepRunner = &sweep;

    let cold_cfg = cfg(&base, "out1");
    let cold = runner.run(&cold_cfg).unwrap();
    let cold_cache = cold.cache.expect("cache-dir set");
    assert_eq!(cold_cache.hits, 0);
    assert_eq!(cold_cache.misses, 8, "reduced grid is 2 x 2 x 2");
    let merged = runner.merge(&cold_cfg).unwrap();
    let artifact = std::fs::read(merged.artifact.unwrap()).unwrap();

    let warm_cfg = cfg(&base, "out2");
    let warm = runner.run(&warm_cfg).unwrap();
    let warm_cache = warm.cache.unwrap();
    assert_eq!(warm_cache.hits, 8, "warm rerun must be 100% cache hits");
    assert_eq!(warm_cache.misses, 0);
    let remerged = runner.merge(&warm_cfg).unwrap();
    assert_eq!(
        std::fs::read(remerged.artifact.unwrap()).unwrap(),
        artifact,
        "cached rows must merge into byte-identical BENCH artifact"
    );
}

/// A sweep whose compute count is observable, slow enough that two
/// concurrent runs genuinely overlap on every point.
struct CountingSweep {
    computes: Arc<AtomicU64>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct CountingRow {
    key: String,
    value: f64,
}

impl Sweep for CountingSweep {
    type Point = u32;
    type Row = CountingRow;

    fn name(&self) -> &'static str {
        "counting_sweep"
    }
    fn points(&self) -> Vec<u32> {
        (0..6).collect()
    }
    fn key(&self, p: &u32) -> String {
        format!("c{p}")
    }
    fn spec(&self) -> Value {
        Value::Object(vec![("n".into(), Value::Int(6))])
    }
    fn point_params(&self, p: &u32) -> Value {
        Value::Object(vec![("p".into(), Value::Int(*p as i128))])
    }
    fn run_point(&self, p: &u32) -> CountingRow {
        self.computes.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(30));
        CountingRow {
            key: format!("c{p}"),
            value: *p as f64 * 0.25,
        }
    }
    fn artifact(&self) -> Option<&'static str> {
        Some("BENCH_counting_sweep.json")
    }
    fn report(&self, rows: &[CountingRow]) -> String {
        format!("{} counting rows", rows.len())
    }
}

#[test]
fn concurrent_runs_sharing_a_store_never_compute_a_point_twice() {
    let base = fresh_base("race");
    let computes = Arc::new(AtomicU64::new(0));

    let worker = |out: String| {
        let base = base.clone();
        let computes = computes.clone();
        std::thread::spawn(move || {
            let sweep = CountingSweep { computes };
            let runner: &dyn SweepRunner = &sweep;
            let cfg = cfg(&base, &out);
            let summary = runner.run(&cfg).unwrap();
            let merged = runner.merge(&cfg).unwrap();
            (
                summary.cache.unwrap(),
                std::fs::read(merged.artifact.unwrap()).unwrap(),
            )
        })
    };
    let a = worker("out-a".into());
    let b = worker("out-b".into());
    let (cache_a, artifact_a) = a.join().unwrap();
    let (cache_b, artifact_b) = b.join().unwrap();

    assert_eq!(
        computes.load(Ordering::Relaxed),
        6,
        "every point must be computed exactly once across both runs \
         (a: {cache_a:?}, b: {cache_b:?})"
    );
    // Each run accounts for all 6 points, one way or another.
    for c in [&cache_a, &cache_b] {
        assert_eq!(c.hits + c.misses + c.claim_waits, 6, "{c:?}");
    }
    assert_eq!(cache_a.misses + cache_b.misses, 6);
    assert_eq!(artifact_a, artifact_b, "both merges render the same rows");
}

#[test]
fn code_version_flip_invalidates_every_entry() {
    let base = fresh_base("version");
    let computes = Arc::new(AtomicU64::new(0));
    let sweep = CountingSweep {
        computes: computes.clone(),
    };
    let runner: &dyn SweepRunner = &sweep;

    let v1 = cfg(&base, "out1");
    runner.run(&v1).unwrap();
    assert_eq!(computes.load(Ordering::Relaxed), 6);

    let mut v2 = cfg(&base, "out2");
    v2.code_version = "it-v2".into();
    let summary = runner.run(&v2).unwrap();
    let cache = summary.cache.unwrap();
    assert_eq!(cache.hits, 0, "new code version must miss everything");
    assert_eq!(cache.misses, 6);
    assert_eq!(computes.load(Ordering::Relaxed), 12);

    // And back on v1 the original entries still serve.
    let v1_again = cfg(&base, "out3");
    let again = runner.run(&v1_again).unwrap();
    assert_eq!(again.cache.unwrap().hits, 6);
    assert_eq!(computes.load(Ordering::Relaxed), 12);
}

//! Property tests for the sweep engine's store invariants, on the real
//! (reduced) fault sweep:
//!
//! * a run killed after publishing an arbitrary subset of the grid —
//!   possibly leaving one more object file torn mid-write — reruns by
//!   computing exactly the missing points, and merges into a
//!   `BENCH_*.json` byte-identical to the single-process run's;
//! * actually re-running the grid as `--shard k/N` style shard runs over
//!   one store reproduces the artifact bytes too (rows are pure
//!   functions of their keys — the fault schedule is open-loop).
//!
//! The canonical single-process run happens once (`OnceLock`) and also
//! fills a source store and keeps its object files' bytes; the
//! properties then plant copies of them, so the per-case cost is the
//! missing points, not the whole grid.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

mod common;

use common::ScratchDir;
use proptest::prelude::*;
use rsp_bench::experiments::faults::FaultSweep;
use rsp_bench::sweep::{Executor, Shard, SweepConfig, SweepRunner};

/// The canonical single-process run of the reduced fault sweep: its
/// artifact bytes, and every point's store address with the bytes of
/// its stored object.
struct Canonical {
    artifact: Vec<u8>,
    hashes: Vec<String>,
    objects: Vec<Vec<u8>>,
}

fn canonical() -> &'static Canonical {
    static CANON: OnceLock<Canonical> = OnceLock::new();
    CANON.get_or_init(|| {
        let sweep = FaultSweep::reduced();
        let plain = fresh_dir("canonical");
        let summary = sweep.run_and_merge(&cfg_in(&plain)).expect("canonical run");
        let artifact = fs::read(summary.artifact.expect("fault sweep writes an artifact"))
            .expect("read canonical artifact");
        let dir = fresh_dir("source");
        let cfg = stored_in(&dir);
        sweep.run(&cfg).expect("fill the source store");
        let hashes = sweep.point_hashes(&cfg).expect("point hashes");
        assert_eq!(hashes.len(), 8, "reduced grid is 2 workloads x 2 x 2");
        let objects = hashes
            .iter()
            .map(|h| fs::read(object_path(&dir.join("cas"), h)).expect("stored object"))
            .collect();
        Canonical {
            artifact,
            hashes,
            objects,
        }
    })
}

fn fresh_dir(name: &str) -> ScratchDir {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    ScratchDir::new(&format!(
        "sweep-props-{name}-{}",
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn cfg_in(dir: &Path) -> SweepConfig {
    SweepConfig {
        out_dir: dir.to_path_buf(),
        ..SweepConfig::default()
    }
}

/// `cfg_in(dir)` with its store at `dir/cas`.
fn stored_in(dir: &Path) -> SweepConfig {
    SweepConfig {
        cache_dir: Some(dir.join("cas")),
        ..cfg_in(dir)
    }
}

/// Where the store at `root` keeps object `hash`
/// (`objects/<first two hex digits>/<rest>.json`).
fn object_path(root: &Path, hash: &str) -> PathBuf {
    root.join("objects")
        .join(&hash[..2])
        .join(format!("{}.json", &hash[2..]))
}

/// Copy `bytes` to object `hash`'s place in the store at `root`.
fn plant(root: &Path, hash: &str, bytes: &[u8]) {
    let path = object_path(root, hash);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, bytes).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A kill leaves an arbitrary subset of the grid in the store, and
    /// perhaps a truncated object file for one more point (the kill
    /// arrived mid-publish). A rerun computes exactly the points the
    /// store does not hold intact, quarantines the torn file, and merges
    /// byte-identically.
    #[test]
    fn rerun_after_a_kill_computes_exactly_the_missing_points(
        published in proptest::collection::vec(proptest::bool::ANY, 8),
        torn in proptest::option::of((0usize..8, 1usize..10_000)),
    ) {
        let canon = canonical();
        let dir = fresh_dir("kill");
        let root = dir.join("cas");
        let mut intact = 0u64;
        for (i, _) in published.iter().enumerate().filter(|(_, p)| **p) {
            plant(&root, &canon.hashes[i], &canon.objects[i]);
            intact += 1;
        }
        // The torn file goes to the first unpublished point at or after
        // the drawn index, if there is one.
        let torn = torn.and_then(|(at, cut)| {
            (at..at + 8).map(|i| i % 8).find(|&i| !published[i]).map(|i| (i, cut))
        });
        if let Some((i, cut)) = torn {
            let whole = &canon.objects[i];
            plant(&root, &canon.hashes[i], &whole[..cut % (whole.len() - 1) + 1]);
        }

        let merged = FaultSweep::reduced()
            .run_and_merge(&stored_in(&dir))
            .expect("rerun");
        let cache = merged.cache.expect("store configured");
        prop_assert_eq!(cache.hits, intact);
        prop_assert_eq!(cache.misses, 8 - intact);
        prop_assert_eq!(cache.quarantined, u64::from(torn.is_some()));
        let got = fs::read(merged.artifact.expect("artifact written")).unwrap();
        prop_assert_eq!(&got, &canon.artifact);
    }
}

/// Genuinely re-run the grid as 2 shard processes' worth of work (same
/// code path as `experiments fault-sweep --shard k/2 --cache-dir DIR`)
/// into a fresh store, merge from it, and check the artifact bytes —
/// this one re-simulates every point, proving rows are pure functions of
/// their keys across runs.
#[test]
fn two_shard_rerun_reproduces_artifact_bytes() {
    let canon = canonical();
    let dir = fresh_dir("shard-rerun");
    let sweep = FaultSweep::reduced();
    for index in 0..2 {
        let cfg = SweepConfig {
            executor: Executor::Shard(Shard::new(index, 2).unwrap()),
            ..stored_in(&dir)
        };
        sweep.run(&cfg).expect("shard run");
    }
    let merged = sweep.merge(&stored_in(&dir)).expect("merge succeeds");
    let got = fs::read(merged.artifact.expect("artifact written")).unwrap();
    assert_eq!(got, canon.artifact);
}

//! The sweep engine: experiment grids persisted in one artifact store
//! (DESIGN.md §12).
//!
//! Every experiment harness in this crate used to hand-roll the same
//! machinery — enumerate a parameter grid, fan it out, serialise rows,
//! assert cross-point claims. This module is that machinery, once:
//!
//! * **[`Sweep`]** — the declarative spec: a deterministic, *ordered*
//!   enumeration of grid points, each with a stable string **point key**
//!   derived only from its parameters (never from enumeration order),
//!   plus the per-point runner, the cross-point verifier, and the
//!   artifact renderer.
//! * **One row path** — each point yields its row as a JSON value: from
//!   `CasStore::fetch_or_compute` when a store is configured
//!   ([`SweepConfig::cache_dir`]), otherwise encoded from `run_point`
//!   directly. The values decode in spec order, then the sweep's
//!   cross-point assertions run and the artifact is written.
//! * **The store is the only persistence** — every row is a
//!   content-addressed object in a [`cas::CasStore`], keyed by
//!   `canon::point_cache_key` over (sweep name, point key, code
//!   version). Claim files give exactly-once work across threads,
//!   shards and hosts; a killed run resumes by running again (its
//!   finished points are hits); a changed point key or code version
//!   misses by construction (DESIGN.md §17).
//! * **Executors** — [`Executor::InProcess`] runs the whole grid in one
//!   process; [`Executor::Shard`] runs only the points whose key hashes
//!   to `k mod N` ([`shard::stable_key_hash`]) and publishes them;
//!   [`Executor::Workers`] spawns one `--shard k/N` subprocess per shard
//!   over the same store.
//! * **Merge** — [`SweepRunner::merge`] loads every planned point from
//!   the store in spec order (a gap is [`SweepError::MissingKeys`]),
//!   re-runs the cross-point assertions, and writes the artifact.
//!   Because every row is a pure function of its key and f64s
//!   round-trip through JSON exactly, the artifact is byte-for-byte
//!   identical however the grid was split, and whether its rows were
//!   computed or read back.
//!
//! Sharded runs, worker fan-out and merge persist rows only through the
//! store, so they need `--cache-dir`; without one they fail with
//! [`SweepError::NoStore`].

pub mod canon;
pub mod cas;
pub mod shard;

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use rsp_obs::{ProgressSnapshot, SweepProgress};
use serde::{Deserialize, Serialize};
use serde_json::Value;

use cas::ObjectMeta;
pub use cas::{CacheSnapshot, CasStore};
pub use shard::Shard;

/// Everything that can go wrong running or merging a sweep. Rendered by
/// the CLI bins, which exit non-zero — artifact-write failures included.
#[derive(Debug)]
pub enum SweepError {
    /// Filesystem failure on `path`.
    Io {
        /// The path being read or written.
        path: PathBuf,
        /// The underlying error.
        err: std::io::Error,
    },
    /// A row failed to serialise.
    Encode {
        /// The point key.
        key: String,
        /// Serialiser error.
        msg: String,
    },
    /// A stored row failed to deserialise.
    Decode {
        /// The point key.
        key: String,
        /// Deserialiser error.
        msg: String,
    },
    /// A `K/N` shard argument was malformed.
    BadShard(String),
    /// The spec enumerates the same key twice.
    DuplicateKey {
        /// The duplicated key.
        key: String,
    },
    /// Keys the spec enumerates but the store does not hold.
    MissingKeys {
        /// The absent keys, in spec order (first few).
        sample: Vec<String>,
        /// How many are missing in total.
        count: usize,
    },
    /// An action that persists rows had no store to persist them in:
    /// no `--cache-dir`.
    NoStore {
        /// The sweep.
        sweep: &'static str,
        /// What was attempted (`"a sharded run"`, `"merge"`, ...).
        action: &'static str,
    },
    /// The sweep's cross-point assertions failed on the merged rows.
    Verify(String),
    /// A spawned shard worker failed.
    Worker {
        /// Which shard.
        shard: Shard,
        /// What happened.
        msg: String,
    },
}

impl SweepError {
    fn io(path: &Path, err: std::io::Error) -> SweepError {
        SweepError::Io {
            path: path.to_path_buf(),
            err,
        }
    }
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Io { path, err } => write!(f, "{}: {err}", path.display()),
            SweepError::Encode { key, msg } => write!(f, "point {key}: cannot encode row: {msg}"),
            SweepError::Decode { key, msg } => write!(f, "point {key}: cannot decode row: {msg}"),
            SweepError::BadShard(s) => {
                write!(f, "bad shard {s:?} (expected K/N with K < N, N > 0)")
            }
            SweepError::DuplicateKey { key } => {
                write!(f, "the sweep spec enumerates key {key:?} more than once")
            }
            SweepError::MissingKeys { sample, count } => {
                write!(
                    f,
                    "{count} point(s) missing from the store, e.g. {sample:?}"
                )
            }
            SweepError::NoStore { sweep, action } => write!(
                f,
                "{sweep}: {action} keeps rows only in the artifact store, \
                 which needs --cache-dir"
            ),
            SweepError::Verify(msg) => write!(f, "cross-point verification failed: {msg}"),
            SweepError::Worker { shard, msg } => write!(f, "shard worker {shard}: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// A declarative sweep: the ordered grid, the stable per-point key, the
/// per-point runner, and the cross-point contract.
pub trait Sweep: Sync {
    /// One grid point's parameters.
    type Point: Clone + Send + Sync;
    /// One grid point's result row.
    type Row: Serialize + Deserialize + Send;

    /// The sweep's name, baked into every point's cache key. Two sweeps
    /// (or two grids of one sweep) that share a point key must have
    /// different names, or their rows share store entries.
    fn name(&self) -> &'static str;

    /// The full grid, in canonical (artifact) order. Must be
    /// deterministic: merging relies on every process enumerating the
    /// same points in the same order.
    fn points(&self) -> Vec<Self::Point>;

    /// The point's stable key. **Derive it only from the point's
    /// parameters** — never from enumeration order or ambient state —
    /// so shard assignment survives grid re-orderings and a stored row
    /// can be matched back to its point across processes.
    fn key(&self, point: &Self::Point) -> String;

    /// Run one point. Must be a pure function of the point (plus the
    /// sweep's own immutable configuration): the merge step assumes a
    /// row is the same whichever process computed it. That
    /// configuration must be fixed in the source for each [`Sweep::name`],
    /// since the store key holds only the name, the point key and the
    /// code version.
    fn run_point(&self, point: &Self::Point) -> Self::Row;

    /// Cross-point assertions, re-run on every merged set.
    fn verify(&self, _rows: &[Self::Row]) -> Result<(), String> {
        Ok(())
    }

    /// File name of the merged artifact (e.g. `BENCH_fault_sweep.json`),
    /// if the sweep writes one.
    fn artifact(&self) -> Option<&'static str> {
        None
    }

    /// Render the merged rows into the artifact's contents. The default
    /// is the pretty-printed row array every `BENCH_*.json` used before.
    fn render_artifact(&self, rows: &[Self::Row]) -> Result<String, SweepError> {
        serde_json::to_string_pretty(rows).map_err(|e| SweepError::Encode {
            key: "<artifact>".into(),
            msg: e.to_string(),
        })
    }

    /// Render the human-readable report printed after a merge.
    fn report(&self, rows: &[Self::Row]) -> String;
}

/// How to execute a sweep run.
#[derive(Debug, Clone)]
pub enum Executor {
    /// The whole grid in this process, one point after another.
    InProcess,
    /// Only the points of one shard, in this process, published into
    /// the store.
    Shard(Shard),
    /// Spawn `count` worker subprocesses (`exe args... --shard k/N
    /// --cache-dir DIR --code-version V`), one per shard, all publishing
    /// into the same store.
    Workers {
        /// Worker executable (usually `std::env::current_exe()`).
        exe: PathBuf,
        /// Arguments before the engine-appended `--shard`/`--cache-dir`.
        args: Vec<String>,
        /// Number of shards.
        count: u32,
    },
}

/// Where and how a sweep runs.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// How to execute.
    pub executor: Executor,
    /// Directory for the merged artifact.
    pub out_dir: PathBuf,
    /// Echo per-point progress lines to stderr.
    pub verbose: bool,
    /// Root of the shared content-addressed result store. `None`
    /// disables caching: every point runs, and only a whole in-process
    /// run can merge.
    pub cache_dir: Option<PathBuf>,
    /// Code version baked into every cache key. Defaults to
    /// `default_code_version`, so any source change invalidates the
    /// whole store; `--code-version` overrides it (CI uses this to pin
    /// invalidation behavior).
    pub code_version: String,
}

/// The default cache-key code version: the crate version plus a hash of
/// every workspace source file, taken at build time (`build.rs`).
pub(crate) fn default_code_version() -> String {
    env!("RSP_CODE_VERSION").to_string()
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            executor: Executor::InProcess,
            out_dir: PathBuf::from("."),
            verbose: false,
            cache_dir: None,
            code_version: default_code_version(),
        }
    }
}

/// What a run executed (one shard's view).
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Which shard ran.
    pub shard: Shard,
    /// Final progress counters (total = points in this shard).
    pub progress: ProgressSnapshot,
    /// Cache counters, when the run consulted a store in this process.
    pub cache: Option<CacheSnapshot>,
}

/// What a merge produced.
#[derive(Debug, Clone)]
pub struct MergeSummary {
    /// Points merged (always the full grid).
    pub points: usize,
    /// Path of the written artifact, if the sweep defines one.
    pub artifact: Option<PathBuf>,
    /// The sweep's rendered report.
    pub report: String,
    /// Cache counters of the points this call ran in-process through a
    /// store; `None` when it ran none that way.
    pub cache: Option<CacheSnapshot>,
}

/// Object-safe driver facade over [`Sweep`] (the `experiments` bin holds
/// sweeps as `Box<dyn SweepRunner>`). Blanket-implemented for every
/// `Sweep`.
pub trait SweepRunner: Sync {
    /// The sweep's name.
    fn name(&self) -> &'static str;
    /// Total points in the grid.
    fn total_points(&self) -> usize;
    /// Whether rows are pure functions of their keys (cache-eligible):
    /// always, for every sweep. Kept for the benchmark's callers; it
    /// goes with the next benchmark change.
    fn cacheable(&self) -> bool;
    /// Execute per the config, publishing every row into the store.
    /// Needs one: [`SweepError::NoStore`] otherwise.
    fn run(&self, cfg: &SweepConfig) -> Result<RunSummary, SweepError>;
    /// Load every planned point from the store in spec order, verify,
    /// write the artifact, render the report. A point the store lacks
    /// is [`SweepError::MissingKeys`].
    fn merge(&self, cfg: &SweepConfig) -> Result<MergeSummary, SweepError>;
    /// Run and merge. In-process, the rows go straight to the merge
    /// (through the store when there is one); other executors run, then
    /// merge from the store.
    fn run_and_merge(&self, cfg: &SweepConfig) -> Result<MergeSummary, SweepError>;
    /// Every point's cache key, in grid order — computable without
    /// running anything, which is what gives `experiments gc` its live
    /// set.
    fn point_hashes(&self, cfg: &SweepConfig) -> Result<Vec<String>, SweepError>;
}

impl<S: Sweep> SweepRunner for S {
    fn name(&self) -> &'static str {
        Sweep::name(self)
    }

    fn total_points(&self) -> usize {
        self.points().len()
    }

    fn cacheable(&self) -> bool {
        true
    }

    fn run(&self, cfg: &SweepConfig) -> Result<RunSummary, SweepError> {
        let (shard, action) = match &cfg.executor {
            Executor::InProcess => (Shard::WHOLE, "run"),
            Executor::Shard(s) => (*s, "a sharded run"),
            Executor::Workers { exe, args, count } => {
                let store = require_store(self, cfg, "--spawn")?;
                shard::spawn_shard_workers(exe, args, *count, store.root(), &cfg.code_version)?;
                return Ok(RunSummary {
                    shard: Shard::WHOLE,
                    progress: ProgressSnapshot {
                        total: self.total_points() as u64,
                        ..ProgressSnapshot::default()
                    },
                    cache: None,
                });
            }
        };
        let store = require_store(self, cfg, action)?;
        let progress = point_values(self, cfg, shard, Some(&store))?.2;
        Ok(RunSummary {
            shard,
            progress,
            cache: Some(store.stats()),
        })
    }

    fn merge(&self, cfg: &SweepConfig) -> Result<MergeSummary, SweepError> {
        let (keys, values) = stored_values(self, cfg)?;
        merge_values(self, cfg, &keys, &values, None)
    }

    fn run_and_merge(&self, cfg: &SweepConfig) -> Result<MergeSummary, SweepError> {
        if !matches!(cfg.executor, Executor::InProcess) {
            let run = SweepRunner::run(self, cfg)?;
            let (keys, values) = stored_values(self, cfg)?;
            return merge_values(self, cfg, &keys, &values, run.cache);
        }
        let store = open_store(cfg)?;
        let (keys, values, _) = point_values(self, cfg, Shard::WHOLE, store.as_ref())?;
        merge_values(self, cfg, &keys, &values, store.map(|s| s.stats()))
    }

    fn point_hashes(&self, cfg: &SweepConfig) -> Result<Vec<String>, SweepError> {
        Ok(spec_keys(self, &self.points())?
            .iter()
            .map(|key| point_hash(self, cfg, key))
            .collect())
    }
}

/// Keys of the full grid, in canonical order, validated unique.
fn spec_keys<S: Sweep>(sweep: &S, points: &[S::Point]) -> Result<Vec<String>, SweepError> {
    let keys: Vec<String> = points.iter().map(|p| sweep.key(p)).collect();
    let mut seen = BTreeSet::new();
    for k in &keys {
        if !seen.insert(k.as_str()) {
            return Err(SweepError::DuplicateKey { key: k.clone() });
        }
    }
    Ok(keys)
}

/// The store address of the row at point `key` under `cfg`'s code
/// version.
fn point_hash<S: Sweep>(sweep: &S, cfg: &SweepConfig, key: &str) -> String {
    canon::point_cache_key(Sweep::name(sweep), key, &cfg.code_version)
}

/// The store rows go through, if `cfg` names one (`--cache-dir`).
fn open_store(cfg: &SweepConfig) -> Result<Option<CasStore>, SweepError> {
    cfg.cache_dir.as_deref().map(CasStore::open).transpose()
}

/// The store for an `action` that keeps rows nowhere else.
fn require_store<S: Sweep>(
    sweep: &S,
    cfg: &SweepConfig,
    action: &'static str,
) -> Result<CasStore, SweepError> {
    open_store(cfg)?.ok_or(SweepError::NoStore {
        sweep: Sweep::name(sweep),
        action,
    })
}

/// The one row path: run the points `shard` owns, in spec order, each
/// yielding its row as a JSON value — through `store` when there is one
/// (a hit reads the stored value, a miss computes and publishes it),
/// otherwise encoded from `run_point` directly. Returns the points'
/// keys, their values, and the final progress counters. An encode
/// failure stops the run as [`SweepError::Encode`] naming its point;
/// rows published before it stay in the store.
fn point_values<S: Sweep>(
    sweep: &S,
    cfg: &SweepConfig,
    shard: Shard,
    store: Option<&CasStore>,
) -> Result<(Vec<String>, Vec<Value>, ProgressSnapshot), SweepError> {
    let points = sweep.points();
    let mut keys = spec_keys(sweep, &points)?;
    let todo: Vec<(&S::Point, &String)> = points
        .iter()
        .zip(&keys)
        .filter(|(_, k)| shard.owns(k))
        .collect();
    let progress = SweepProgress::with_total(todo.len() as u64);

    let complete_one = |&(point, key): &(&S::Point, &String)| -> Result<Value, SweepError> {
        let compute = || {
            serde_json::to_value(&sweep.run_point(point)).map_err(|e| SweepError::Encode {
                key: key.clone(),
                msg: e.to_string(),
            })
        };
        let row = match store {
            Some(store) => {
                let meta = ObjectMeta {
                    hash: point_hash(sweep, cfg, key),
                    name: Sweep::name(sweep).to_string(),
                    key: key.clone(),
                    code_version: cfg.code_version.clone(),
                };
                store.fetch_or_compute(&meta, compute)?.0
            }
            None => compute()?,
        };
        let snap = progress.point_completed();
        if cfg.verbose {
            eprintln!("{} {shard} {snap} {key}", Sweep::name(sweep));
        }
        Ok(row)
    };
    let values: Result<Vec<Value>, SweepError> = todo.iter().map(complete_one).collect();
    if values.is_err() {
        progress.point_failed();
    }
    let values = values?;
    if shard != Shard::WHOLE {
        keys.retain(|k| shard.owns(k));
    }
    Ok((keys, values, progress.snapshot()))
}

/// The load half of a merge: every planned point's stored row, in spec
/// order, with the keys naming them. Any point the store lacks —
/// never run, or quarantined as corrupt — is reported in
/// [`SweepError::MissingKeys`].
fn stored_values<S: Sweep>(
    sweep: &S,
    cfg: &SweepConfig,
) -> Result<(Vec<String>, Vec<Value>), SweepError> {
    let store = require_store(sweep, cfg, "merge")?;
    let points = sweep.points();
    let keys = spec_keys(sweep, &points)?;
    let mut values = Vec::with_capacity(points.len());
    let mut missing = Vec::new();
    for key in &keys {
        match store.load(&point_hash(sweep, cfg, key), Some(key))? {
            Some(obj) => values.push(obj.row),
            None => missing.push(key.clone()),
        }
    }
    if !missing.is_empty() {
        return Err(SweepError::MissingKeys {
            sample: missing.iter().take(4).cloned().collect(),
            count: missing.len(),
        });
    }
    Ok((keys, values))
}

/// The merge: decode the rows `values` hold (one per key, in spec
/// order), run the sweep's cross-point assertions, write the artifact
/// and render the report.
fn merge_values<S: Sweep>(
    sweep: &S,
    cfg: &SweepConfig,
    keys: &[String],
    values: &[Value],
    cache: Option<CacheSnapshot>,
) -> Result<MergeSummary, SweepError> {
    let rows: Vec<S::Row> = keys
        .iter()
        .zip(values)
        .map(|(key, v)| {
            S::Row::from_value(v).map_err(|e| SweepError::Decode {
                key: key.clone(),
                msg: e.to_string(),
            })
        })
        .collect::<Result<_, _>>()?;
    sweep.verify(&rows).map_err(SweepError::Verify)?;

    let artifact = match sweep.artifact() {
        Some(name) => {
            let contents = sweep.render_artifact(&rows)?;
            Some(write_artifact(&cfg.out_dir, name, &contents)?)
        }
        None => None,
    };

    Ok(MergeSummary {
        points: rows.len(),
        artifact,
        report: sweep.report(&rows),
        cache,
    })
}

/// The one `--out-dir`-aware artifact writer every bench output goes
/// through. Creates the directory, writes the file, and *returns* the
/// error — callers (the CLI bins) exit non-zero instead of printing and
/// carrying on.
pub fn write_artifact(out_dir: &Path, name: &str, contents: &str) -> Result<PathBuf, SweepError> {
    if !out_dir.as_os_str().is_empty() {
        fs::create_dir_all(out_dir).map_err(|e| SweepError::io(out_dir, e))?;
    }
    let path = out_dir.join(name);
    fs::write(&path, contents).map_err(|e| SweepError::io(&path, e))?;
    Ok(path)
}

/// A fresh, empty `rsp-{tag}-{pid}` directory under the temp dir for one
/// test; dropping the guard removes it and everything in it.
#[cfg(test)]
pub(crate) struct ScratchDir(PathBuf);

#[cfg(test)]
impl ScratchDir {
    pub(crate) fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("rsp-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        ScratchDir(dir)
    }
}

#[cfg(test)]
impl std::ops::Deref for ScratchDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

#[cfg(test)]
impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cheap synthetic sweep: rows are pure functions of the key.
    struct TestSweep {
        n: u32,
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct TestRow {
        key: String,
        value: f64,
    }

    impl Sweep for TestSweep {
        type Point = u32;
        type Row = TestRow;

        fn name(&self) -> &'static str {
            "test_sweep"
        }

        fn points(&self) -> Vec<u32> {
            (0..self.n).collect()
        }

        fn key(&self, p: &u32) -> String {
            format!("p{p:03}")
        }

        fn run_point(&self, p: &u32) -> TestRow {
            TestRow {
                key: format!("p{p:03}"),
                value: *p as f64 / 3.0,
            }
        }

        fn verify(&self, rows: &[TestRow]) -> Result<(), String> {
            if rows.len() == self.n as usize {
                Ok(())
            } else {
                Err(format!("expected {} rows, got {}", self.n, rows.len()))
            }
        }

        fn artifact(&self) -> Option<&'static str> {
            Some("BENCH_test_sweep.json")
        }

        fn report(&self, rows: &[TestRow]) -> String {
            format!("{} rows", rows.len())
        }
    }

    fn fresh_dir(name: &str) -> ScratchDir {
        ScratchDir::new(&format!("sweep-{name}"))
    }

    fn cfg_in(dir: &Path) -> SweepConfig {
        SweepConfig {
            out_dir: dir.to_path_buf(),
            ..SweepConfig::default()
        }
    }

    /// `cfg_in(dir)` with a store at `dir/cas`.
    fn stored_in(dir: &Path) -> SweepConfig {
        SweepConfig {
            cache_dir: Some(dir.join("cas")),
            ..cfg_in(dir)
        }
    }

    fn shard_cfg(dir: &Path, index: u32, count: u32) -> SweepConfig {
        SweepConfig {
            executor: Executor::Shard(Shard::new(index, count).unwrap()),
            ..stored_in(dir)
        }
    }

    #[test]
    fn single_process_run_and_merge_produces_ordered_artifact() {
        let sweep = TestSweep { n: 7 };
        let dir = fresh_dir("single");
        let summary = sweep.run_and_merge(&cfg_in(&dir)).unwrap();
        assert_eq!(summary.points, 7);
        assert!(summary.cache.is_none(), "no store configured");
        let artifact = fs::read_to_string(summary.artifact.unwrap()).unwrap();
        let rows: Vec<TestRow> = serde_json::from_str(&artifact).unwrap();
        assert_eq!(
            rows,
            sweep
                .points()
                .iter()
                .map(|p| sweep.run_point(p))
                .collect::<Vec<_>>()
        );
        // Nothing but the artifact is left behind.
        assert_eq!(fs::read_dir(&*dir).unwrap().count(), 1);
    }

    #[test]
    fn sharded_runs_merge_byte_identically_to_single() {
        let sweep = TestSweep { n: 11 };
        let single = fresh_dir("shard-single");
        let s1 = sweep.run_and_merge(&cfg_in(&single)).unwrap();
        let want = fs::read(s1.artifact.unwrap()).unwrap();

        let dir = fresh_dir("shard-split");
        let mut computed = 0;
        for index in 0..3 {
            let run = SweepRunner::run(&sweep, &shard_cfg(&dir, index, 3)).unwrap();
            assert_eq!(run.progress.completed, run.progress.total);
            computed += run.cache.unwrap().misses;
        }
        assert_eq!(computed, 11, "the shards partition the grid");
        let merged = SweepRunner::merge(&sweep, &stored_in(&dir)).unwrap();
        let got = fs::read(merged.artifact.unwrap()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn merge_reports_gaps_in_the_store() {
        let sweep = TestSweep { n: 5 };
        let dir = fresh_dir("gaps");
        SweepRunner::run(&sweep, &shard_cfg(&dir, 0, 2)).unwrap();
        // Shard 1 never ran → gaps, named in spec order.
        let missing: Vec<String> = sweep
            .points()
            .iter()
            .map(|p| sweep.key(p))
            .filter(|k| !Shard::new(0, 2).unwrap().owns(k))
            .collect();
        match SweepRunner::merge(&sweep, &stored_in(&dir)) {
            Err(SweepError::MissingKeys { sample, count }) => {
                assert_eq!(count, missing.len());
                assert_eq!(sample, missing[..count.min(4)]);
            }
            other => panic!("expected MissingKeys, got {other:?}"),
        }
    }

    #[test]
    fn persisting_actions_need_a_store() {
        let sweep = TestSweep { n: 3 };
        let dir = fresh_dir("no-store");
        let shard = SweepConfig {
            executor: Executor::Shard(Shard::new(0, 2).unwrap()),
            ..cfg_in(&dir)
        };
        let spawn = SweepConfig {
            executor: Executor::Workers {
                exe: PathBuf::from("/nonexistent"),
                args: Vec::new(),
                count: 2,
            },
            ..cfg_in(&dir)
        };
        for (cfg, want) in [
            (&shard, "a sharded run"),
            (&spawn, "--spawn"),
            (&cfg_in(&dir), "run"),
        ] {
            match SweepRunner::run(&sweep, cfg) {
                Err(SweepError::NoStore { sweep, action }) => {
                    assert_eq!((sweep, action), ("test_sweep", want));
                }
                other => panic!("{want}: expected NoStore, got {other:?}"),
            }
        }
        assert!(matches!(
            SweepRunner::merge(&sweep, &cfg_in(&dir)),
            Err(SweepError::NoStore {
                action: "merge",
                ..
            })
        ));
    }

    #[test]
    fn rerun_over_a_partial_store_computes_only_the_gaps() {
        let sweep = TestSweep { n: 9 };
        let ref_dir = fresh_dir("rerun-ref");
        let reference = sweep.run_and_merge(&cfg_in(&ref_dir)).unwrap();
        let want = fs::read(reference.artifact.unwrap()).unwrap();

        // A killed run: only shard 0 of 2 reached the store.
        let dir = fresh_dir("rerun");
        let done = SweepRunner::run(&sweep, &shard_cfg(&dir, 0, 2)).unwrap();
        let done = done.cache.unwrap().misses;
        let merged = sweep.run_and_merge(&stored_in(&dir)).unwrap();
        let cache = merged.cache.unwrap();
        assert_eq!((cache.hits, cache.misses), (done, 9 - done));
        assert_eq!(fs::read(merged.artifact.unwrap()).unwrap(), want);
    }

    /// A row whose `Serialize` impl fails mid-grid surfaces from the
    /// full sweep run as [`SweepError::Encode`] naming the point —
    /// propagated out of the store's compute closure rather than
    /// panicking the shard. Rows published before the failure stay in
    /// the store, so a fixed serialiser reruns only the rest.
    #[test]
    fn failing_serialize_row_fails_the_run_with_encode_error() {
        struct PoisonRow {
            id: u32,
        }
        impl Serialize for PoisonRow {
            fn to_value(&self) -> serde_json::Value {
                serde_json::Value::Int(self.id as i128)
            }
            fn try_to_value(&self) -> Result<serde_json::Value, serde_json::Error> {
                if self.id == 3 {
                    Err(serde_json::Error::msg("row 3 refuses to serialise"))
                } else {
                    Ok(self.to_value())
                }
            }
        }
        impl Deserialize for PoisonRow {
            fn from_value(v: &serde_json::Value) -> Result<PoisonRow, serde_json::Error> {
                u32::from_value(v).map(|id| PoisonRow { id })
            }
        }
        struct PoisonSweep;
        impl Sweep for PoisonSweep {
            type Point = u32;
            type Row = PoisonRow;
            fn name(&self) -> &'static str {
                "poison_sweep"
            }
            fn points(&self) -> Vec<u32> {
                (0..6).collect()
            }
            fn key(&self, p: &u32) -> String {
                format!("p{p}")
            }
            fn run_point(&self, p: &u32) -> PoisonRow {
                PoisonRow { id: *p }
            }
            fn report(&self, rows: &[PoisonRow]) -> String {
                format!("{} rows", rows.len())
            }
        }

        let dir = fresh_dir("poison");
        let cfg = stored_in(&dir);
        let err = PoisonSweep.run_and_merge(&cfg).unwrap_err();
        match err {
            SweepError::Encode { key, msg } => {
                assert_eq!(key, "p3");
                assert!(msg.contains("refuses to serialise"), "{msg}");
            }
            other => panic!("expected Encode error, got {other}"),
        }
        // The three rows completed before the poisoned one are stored.
        let store = CasStore::open(cfg.cache_dir.as_ref().unwrap()).unwrap();
        let stored: Vec<bool> = PoisonSweep
            .point_hashes(&cfg)
            .unwrap()
            .iter()
            .map(|h| store.contains(h))
            .collect();
        assert_eq!(stored, [true, true, true, false, false, false]);
    }

    /// The default key follows the code, not the crate version: a store
    /// filled under the old crate-version key (`0.10.0`, held there
    /// while the code changed) answers no lookup from this build.
    #[test]
    fn default_code_version_misses_a_store_keyed_by_the_crate_version() {
        assert_ne!(default_code_version(), env!("CARGO_PKG_VERSION"));
        let sweep = TestSweep { n: 6 };
        let dir = fresh_dir("code-version");
        let old = SweepConfig {
            code_version: "0.10.0".into(),
            ..stored_in(&dir)
        };
        let filled = sweep.run_and_merge(&old).unwrap();
        assert_eq!(filled.cache.unwrap().misses, 6);
        let now = sweep.run_and_merge(&stored_in(&dir)).unwrap();
        let cache = now.cache.unwrap();
        assert_eq!((cache.hits, cache.misses), (0, 6));
    }

    #[test]
    fn write_artifact_reports_failure() {
        let dir = fresh_dir("write-fail");
        // A directory where the file should be → write fails, surfaced
        // as an error rather than printed-and-ignored.
        fs::create_dir_all(dir.join("BENCH_x.json")).unwrap();
        assert!(matches!(
            write_artifact(&dir, "BENCH_x.json", "{}"),
            Err(SweepError::Io { .. })
        ));
        assert!(write_artifact(&dir, "ok.json", "{}").is_ok());
    }
}

//! The content-addressed artifact store (DESIGN.md §17).
//!
//! Every cached result — one sweep point's row — lives as one JSON
//! object file addressed by the hash of its *inputs*
//! (`super::canon::point_cache_key`): `objects/ab/cdef....json` under the store root, where `abcdef...` is
//! the 64-hex-digit key. Input addressing (not output addressing) is
//! what makes the store a cache: the key is computable before the work
//! runs, so a lookup can short-circuit the computation.
//!
//! Concurrency is file-system-native so shards on different hosts can
//! share a store over a network mount:
//!
//! * **Atomic publish** — objects are written to a tmp file and
//!   `rename`d into place; readers never observe a half-written object.
//! * **Claims** — before computing a missing object, a worker creates
//!   `claims/<hash>.claim` with `O_EXCL` (`create_new`). Exactly one
//!   worker wins; the others poll for the object instead of duplicating
//!   the work. Claims are released on drop (including unwind), and a
//!   claim whose file is older than `CasStore::STALE_CLAIM` is
//!   presumed dead and stolen. If the object still hasn't appeared by
//!   `CasStore::CLAIM_WAIT`, the waiter computes anyway — duplicated
//!   work, never a deadlock, and the rename-over publish keeps the
//!   store consistent.
//! * **Quarantine** — an object that fails to parse, or whose recorded
//!   logical key disagrees with the caller's, is moved to `quarantine/`
//!   (never deleted, never trusted) and treated as a miss.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime};
use std::{fs, io};

use serde::{Deserialize, Serialize};
use serde_json::Value;

use super::SweepError;

/// One stored object: the cached output plus enough metadata to answer
/// `experiments explain <key>` without re-deriving anything.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CasObject {
    /// Store schema tag, `CasStore::SCHEMA`.
    pub schema: String,
    /// The sweep that produced this object.
    pub name: String,
    /// The logical key — the sweep's point key. Sanity metadata: the
    /// content hash is the address; this is for humans and for detecting
    /// a corrupted store.
    pub key: String,
    /// Code version baked into the hash.
    pub code_version: String,
    /// The cached output: a sweep row.
    pub row: Value,
}

/// An object file as read: the object, or why the store will not
/// serve it (it does not parse, or carries another schema tag).
pub(crate) type Stored = Result<CasObject, String>;

/// Everything needed to address + describe a point's object, short of
/// its row.
#[derive(Debug, Clone)]
pub struct ObjectMeta {
    /// The content hash (object address).
    pub hash: String,
    /// Producing sweep.
    pub name: String,
    /// Logical (point) key.
    pub key: String,
    /// Code version.
    pub code_version: String,
}

/// Monotone cache counters.
#[derive(Debug, Default)]
pub(crate) struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    claim_waits: AtomicU64,
    quarantined: AtomicU64,
}

/// A point-in-time copy of `CacheStats`, cheap to pass around and
/// render.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheSnapshot {
    /// Lookups served from the store.
    pub hits: u64,
    /// Lookups that computed (and published) the object.
    pub misses: u64,
    /// Lookups that waited out another worker's claim, then read its
    /// published object.
    pub claim_waits: u64,
    /// Corrupt objects moved to quarantine.
    pub quarantined: u64,
}

impl CacheSnapshot {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.claim_waits
    }

    /// The one-line summary the experiments bin prints.
    pub fn summary_line(&self) -> String {
        let mut line = format!(
            "cache: {} hit(s), {} miss(es), {} claim-wait(s)",
            self.hits, self.misses, self.claim_waits
        );
        if self.quarantined > 0 {
            line.push_str(&format!(", {} quarantined", self.quarantined));
        }
        line
    }
}

impl CacheStats {
    fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            claim_waits: self.claim_waits.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }
}

/// How a single `fetch_or_compute` resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheOutcome {
    /// Object already present.
    Hit,
    /// This worker computed and published it.
    Computed,
    /// Another worker's claim was live; we waited and read its object.
    WaitHit,
}

/// What a [`CasStore::gc`] pass did.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcSummary {
    /// Objects kept (reachable).
    pub kept: usize,
    /// Unreachable objects removed.
    pub removed: usize,
    /// Leftover claim files removed.
    pub claims_removed: usize,
    /// Quarantined files removed.
    pub quarantine_removed: usize,
}

/// A content-addressed object store rooted at `--cache-dir`.
#[derive(Debug)]
pub struct CasStore {
    root: PathBuf,
    claim_wait: Duration,
    claim_poll: Duration,
    stale_claim: Duration,
    stats: CacheStats,
}

/// Removes the claim file when the winning worker finishes (or unwinds).
struct ClaimGuard {
    path: PathBuf,
}

impl Drop for ClaimGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

impl CasStore {
    /// Schema tag written into every object; bump on incompatible layout
    /// or key-derivation changes. An object under any other tag is never
    /// served: loading it quarantines it.
    pub(crate) const SCHEMA: &'static str = "rsp-cas-v2";
    /// Give a live claim this long to publish before computing anyway.
    pub(crate) const CLAIM_WAIT: Duration = Duration::from_secs(600);
    /// A claim file untouched for this long is presumed dead and stolen.
    pub(crate) const STALE_CLAIM: Duration = Duration::from_secs(300);

    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<CasStore, SweepError> {
        let root = root.into();
        for sub in ["objects", "claims", "quarantine"] {
            let dir = root.join(sub);
            fs::create_dir_all(&dir).map_err(|e| SweepError::io(&dir, e))?;
        }
        Ok(CasStore {
            root,
            claim_wait: Self::CLAIM_WAIT,
            claim_poll: Duration::from_millis(20),
            stale_claim: Self::STALE_CLAIM,
            stats: CacheStats::default(),
        })
    }

    /// Shrink the claim timings (tests exercise the stale-steal and
    /// wait-out paths without waiting minutes).
    #[cfg(test)]
    pub(crate) fn with_claim_timing(
        mut self,
        wait: Duration,
        poll: Duration,
        stale: Duration,
    ) -> Self {
        self.claim_wait = wait;
        self.claim_poll = poll;
        self.stale_claim = stale;
        self
    }

    /// The store root.
    pub(crate) fn root(&self) -> &Path {
        &self.root
    }

    /// Counters so far.
    pub(crate) fn stats(&self) -> CacheSnapshot {
        self.stats.snapshot()
    }

    fn object_path(&self, hash: &str) -> PathBuf {
        let (shard, rest) = hash.split_at(2.min(hash.len()));
        self.root
            .join("objects")
            .join(shard)
            .join(format!("{rest}.json"))
    }

    fn claim_path(&self, hash: &str) -> PathBuf {
        self.root.join("claims").join(format!("{hash}.claim"))
    }

    /// Is an object with this hash present (without loading it)?
    #[cfg(test)]
    pub(crate) fn contains(&self, hash: &str) -> bool {
        self.object_path(hash).exists()
    }

    /// Read the object at `hash` without moving anything (`Ok(None)` if
    /// it is missing).
    fn read(&self, hash: &str) -> Result<Option<Stored>, SweepError> {
        let path = self.object_path(hash);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(SweepError::io(&path, e)),
        };
        Ok(Some(match serde_json::from_str::<CasObject>(&text) {
            Err(e) => Err(format!("unparseable: {e}")),
            Ok(obj) if obj.schema != Self::SCHEMA => {
                Err(format!("schema {:?}, want {:?}", obj.schema, Self::SCHEMA))
            }
            Ok(obj) => Ok(obj),
        }))
    }

    /// Load the object at `hash`. A missing object is `Ok(None)`. A
    /// present-but-corrupt object — unparseable, wrong schema, or a
    /// recorded key that disagrees with `expected_key` — is moved to
    /// quarantine and also reported `Ok(None)`: the caller recomputes
    /// and republishes over it.
    pub(crate) fn load(
        &self,
        hash: &str,
        expected_key: Option<&str>,
    ) -> Result<Option<CasObject>, SweepError> {
        let reason = match self.read(hash)? {
            None => return Ok(None),
            Some(Err(reason)) => reason,
            Some(Ok(obj)) => match expected_key {
                Some(want) if obj.key != want => {
                    format!("recorded key {:?}, expected {:?}", obj.key, want)
                }
                _ => return Ok(Some(obj)),
            },
        };
        self.quarantine(hash, &self.object_path(hash), &reason)?;
        Ok(None)
    }

    fn quarantine(&self, hash: &str, path: &Path, reason: &str) -> Result<(), SweepError> {
        let dst = self.root.join("quarantine").join(format!("{hash}.json"));
        fs::rename(path, &dst).map_err(|e| SweepError::io(path, e))?;
        let note = self.root.join("quarantine").join(format!("{hash}.reason"));
        let _ = fs::write(&note, reason);
        self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Publish an object: tmp write + atomic rename. Last writer wins;
    /// since objects are input-addressed and computations are pure,
    /// concurrent publishers wrote equivalent contents.
    pub(crate) fn store(&self, meta: &ObjectMeta, row: &Value) -> Result<(), SweepError> {
        let obj = CasObject {
            schema: Self::SCHEMA.to_string(),
            name: meta.name.clone(),
            key: meta.key.clone(),
            code_version: meta.code_version.clone(),
            row: row.clone(),
        };
        let text = serde_json::to_string(&obj).map_err(|e| SweepError::Encode {
            key: meta.key.clone(),
            msg: e.to_string(),
        })?;
        let path = self.object_path(&meta.hash);
        let dir = path.parent().expect("object path has a parent");
        fs::create_dir_all(dir).map_err(|e| SweepError::io(dir, e))?;
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            path.file_name().and_then(|n| n.to_str()).unwrap_or("obj")
        ));
        fs::write(&tmp, &text).map_err(|e| SweepError::io(&tmp, e))?;
        fs::rename(&tmp, &path).map_err(|e| SweepError::io(&path, e))?;
        Ok(())
    }

    fn try_claim(&self, hash: &str) -> Result<Option<ClaimGuard>, SweepError> {
        let path = self.claim_path(hash);
        match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut f) => {
                use std::io::Write as _;
                let _ = writeln!(f, "pid {}", std::process::id());
                Ok(Some(ClaimGuard { path }))
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(None),
            Err(e) => Err(SweepError::io(&path, e)),
        }
    }

    fn claim_is_stale(&self, hash: &str) -> bool {
        let age = fs::metadata(self.claim_path(hash))
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| SystemTime::now().duration_since(t).ok());
        match age {
            Some(age) => age > self.stale_claim,
            // Claim vanished (or mtime unreadable): not stale, just retry.
            None => false,
        }
    }

    /// The cache front door: return `meta.hash`'s row, computing and
    /// publishing it only if no other worker already has (or is about
    /// to). `compute` runs at most once per call, and across all
    /// workers sharing a healthy store, at most once per hash.
    pub(crate) fn fetch_or_compute(
        &self,
        meta: &ObjectMeta,
        compute: impl FnOnce() -> Result<Value, SweepError>,
    ) -> Result<(Value, CacheOutcome), SweepError> {
        if let Some(obj) = self.load(&meta.hash, Some(&meta.key))? {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((obj.row, CacheOutcome::Hit));
        }

        let deadline = Instant::now() + self.claim_wait;
        let mut compute = Some(compute);
        loop {
            match self.try_claim(&meta.hash)? {
                Some(guard) => {
                    // Double-check under the claim: the previous holder
                    // may have published between our load and our claim.
                    if let Some(obj) = self.load(&meta.hash, Some(&meta.key))? {
                        self.stats.hits.fetch_add(1, Ordering::Relaxed);
                        drop(guard);
                        return Ok((obj.row, CacheOutcome::Hit));
                    }
                    let row = (compute.take().expect("compute consumed twice"))()?;
                    self.store(meta, &row)?;
                    drop(guard);
                    self.stats.misses.fetch_add(1, Ordering::Relaxed);
                    return Ok((row, CacheOutcome::Computed));
                }
                None => {
                    // Someone else is computing. Wait for their publish,
                    // steal their claim if it goes stale, and as a last
                    // resort compute anyway rather than hang forever.
                    loop {
                        if let Some(obj) = self.load(&meta.hash, Some(&meta.key))? {
                            self.stats.claim_waits.fetch_add(1, Ordering::Relaxed);
                            return Ok((obj.row, CacheOutcome::WaitHit));
                        }
                        if !self.claim_path(&meta.hash).exists() {
                            break; // holder released without publishing: contend again
                        }
                        if self.claim_is_stale(&meta.hash) {
                            let _ = fs::remove_file(self.claim_path(&meta.hash));
                            break;
                        }
                        if Instant::now() >= deadline {
                            let row = (compute.take().expect("compute consumed twice"))()?;
                            self.store(meta, &row)?;
                            self.stats.misses.fetch_add(1, Ordering::Relaxed);
                            return Ok((row, CacheOutcome::Computed));
                        }
                        std::thread::sleep(self.claim_poll);
                    }
                }
            }
        }
    }

    /// Every object hash currently in the store.
    pub fn list(&self) -> Result<Vec<String>, SweepError> {
        let objects = self.root.join("objects");
        let mut hashes = Vec::new();
        let shards = fs::read_dir(&objects).map_err(|e| SweepError::io(&objects, e))?;
        for shard in shards {
            let shard = shard.map_err(|e| SweepError::io(&objects, e))?.path();
            if !shard.is_dir() {
                continue;
            }
            let prefix = shard
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("")
                .to_string();
            for entry in fs::read_dir(&shard).map_err(|e| SweepError::io(&shard, e))? {
                let path = entry.map_err(|e| SweepError::io(&shard, e))?.path();
                if let Some(stem) = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .and_then(|n| n.strip_suffix(".json"))
                {
                    if !stem.starts_with(".tmp-") {
                        hashes.push(format!("{prefix}{stem}"));
                    }
                }
            }
        }
        hashes.sort();
        Ok(hashes)
    }

    /// Every object whose hash starts with `prefix`, as `(hash, object
    /// or why it cannot be served)` (the `experiments explain <key>`
    /// lookup; pass a full hash for an exact hit). Read-only: unlike
    /// `CasStore::load` it quarantines nothing.
    pub fn find(&self, prefix: &str) -> Result<Vec<(String, Stored)>, SweepError> {
        let mut found = Vec::new();
        for hash in self.list()? {
            if hash.starts_with(prefix) {
                if let Some(obj) = self.read(&hash)? {
                    found.push((hash, obj));
                }
            }
        }
        Ok(found)
    }

    /// Remove every object not in `live`, plus all leftover claims and
    /// everything in quarantine.
    pub fn gc(&self, live: &std::collections::BTreeSet<String>) -> Result<GcSummary, SweepError> {
        let mut summary = GcSummary::default();
        let mut shards = std::collections::BTreeSet::new();
        for hash in self.list()? {
            if live.contains(&hash) {
                summary.kept += 1;
            } else {
                let path = self.object_path(&hash);
                fs::remove_file(&path).map_err(|e| SweepError::io(&path, e))?;
                summary.removed += 1;
                shards.extend(path.parent().map(Path::to_path_buf));
            }
        }
        // Drop the shard directories this emptied; one that still holds
        // an object refuses, and stays.
        for dir in shards {
            let _ = fs::remove_dir(dir);
        }
        for sub in ["claims", "quarantine"] {
            let dir = self.root.join(sub);
            for entry in fs::read_dir(&dir).map_err(|e| SweepError::io(&dir, e))? {
                let path = entry.map_err(|e| SweepError::io(&dir, e))?.path();
                if path.is_file() {
                    fs::remove_file(&path).map_err(|e| SweepError::io(&path, e))?;
                    if sub == "claims" {
                        summary.claims_removed += 1;
                    } else {
                        summary.quarantine_removed += 1;
                    }
                }
            }
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::ScratchDir;

    /// A store in a fresh scratch dir, removed when the guard drops.
    fn fresh_store(name: &str) -> (ScratchDir, CasStore) {
        let dir = ScratchDir::new(&format!("cas-{name}"));
        let store = CasStore::open(dir.join("cas")).unwrap();
        (dir, store)
    }

    fn meta(hash: &str, key: &str) -> ObjectMeta {
        ObjectMeta {
            hash: hash.to_string(),
            name: "demo".to_string(),
            key: key.to_string(),
            code_version: "0".to_string(),
        }
    }

    #[test]
    fn miss_then_hit_round_trips_the_row() {
        let (_dir, store) = fresh_store("roundtrip");
        let m = meta(&crate::sweep::canon::sha256_hex(b"k1"), "k1");
        let row = Value::Object(vec![("x".into(), Value::Float(1.5))]);
        let (got, outcome) = store.fetch_or_compute(&m, || Ok(row.clone())).unwrap();
        assert_eq!(outcome, CacheOutcome::Computed);
        assert_eq!(got, row);
        let (again, outcome) = store
            .fetch_or_compute(&m, || panic!("must not recompute"))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(again, row);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn corrupt_object_is_quarantined_and_recomputed() {
        let (_dir, store) = fresh_store("quarantine");
        let hash = crate::sweep::canon::sha256_hex(b"bad");
        let m = meta(&hash, "bad");
        // Plant garbage at the object's address.
        let path = store.object_path(&hash);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, "not json").unwrap();

        let (row, outcome) = store.fetch_or_compute(&m, || Ok(Value::Int(7))).unwrap();
        assert_eq!(outcome, CacheOutcome::Computed);
        assert_eq!(row, Value::Int(7));
        assert_eq!(store.stats().quarantined, 1);
        assert!(store
            .root()
            .join("quarantine")
            .join(format!("{hash}.json"))
            .exists());
        // The republished object now hits.
        let (_, outcome) = store.fetch_or_compute(&m, || unreachable!()).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
    }

    /// An object in the `rsp-cas-v1` envelope (whose address came from
    /// the old key derivation) is never served: at a looked-up address
    /// it is quarantined and recomputed, and `gc` removes it wherever it
    /// sits.
    #[test]
    fn v1_envelope_is_never_a_hit_and_gc_removes_it() {
        let (_dir, store) = fresh_store("v1");
        let v1 = |key: &str| {
            format!(
                r#"{{"schema":"rsp-cas-v1","kind":"point","name":"demo","key":"{key}","code_version":"0","inputs":[],"row":1}}"#
            )
        };
        let plant = |hash: &str, text: String| {
            let path = store.object_path(hash);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, text).unwrap();
        };
        let looked_up = crate::sweep::canon::sha256_hex(b"v1-live");
        let stray = crate::sweep::canon::sha256_hex(b"v1-stray");
        plant(&looked_up, v1("live"));
        plant(&stray, v1("stray"));

        let m = meta(&looked_up, "live");
        let (row, outcome) = store.fetch_or_compute(&m, || Ok(Value::Int(2))).unwrap();
        assert_eq!((row, outcome), (Value::Int(2), CacheOutcome::Computed));
        assert_eq!(store.stats().quarantined, 1);
        assert_eq!(store.stats().hits, 0);

        let live: std::collections::BTreeSet<String> = [looked_up.clone()].into();
        let summary = store.gc(&live).unwrap();
        assert_eq!(
            (summary.kept, summary.removed, summary.quarantine_removed),
            (1, 1, 2),
            "the stray v1 object and the quarantined one (json + reason) go"
        );
        assert!(!store.contains(&stray));
        assert_eq!(store.list().unwrap(), [looked_up]);
    }

    /// An object nested one level past the JSON reader's cap is
    /// quarantined with the reason, not parsed into a stack overflow.
    #[test]
    fn too_deep_object_is_quarantined_with_the_reason() {
        let (_dir, store) = fresh_store("too-deep");
        let hash = crate::sweep::canon::sha256_hex(b"deep");
        // The envelope is one level; its row nests the other MAX_DEPTH.
        let depth = serde_json::MAX_DEPTH;
        let row = "[".repeat(depth) + &"]".repeat(depth);
        let path = store.object_path(&hash);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(
            &path,
            format!(
                r#"{{"schema":"{}","name":"demo","key":"k","code_version":"0","row":{row}}}"#,
                CasStore::SCHEMA
            ),
        )
        .unwrap();
        assert!(store.load(&hash, Some("k")).unwrap().is_none());
        assert_eq!(store.stats().quarantined, 1);
        let reason = fs::read_to_string(
            store
                .root()
                .join("quarantine")
                .join(format!("{hash}.reason")),
        )
        .unwrap();
        assert!(
            reason.starts_with("unparseable: nesting deeper than 128 levels"),
            "{reason}"
        );
    }

    #[test]
    fn key_mismatch_is_treated_as_corruption() {
        let (_dir, store) = fresh_store("key-mismatch");
        let hash = crate::sweep::canon::sha256_hex(b"km");
        store
            .store(&meta(&hash, "actual-key"), &Value::Int(1))
            .unwrap();
        // Loading under a different expected key quarantines it.
        assert!(store.load(&hash, Some("other-key")).unwrap().is_none());
        assert_eq!(store.stats().quarantined, 1);
    }

    #[test]
    fn claim_wait_reads_the_other_workers_publish() {
        let (_dir, store) = fresh_store("claim-wait");
        let store = std::sync::Arc::new(store.with_claim_timing(
            Duration::from_secs(10),
            Duration::from_millis(5),
            Duration::from_secs(10),
        ));
        let hash = crate::sweep::canon::sha256_hex(b"cw");
        let m = meta(&hash, "cw");

        // Worker A holds the claim and publishes after a delay; worker B
        // must wait it out and read A's row without computing.
        let a = {
            let store = store.clone();
            let m = m.clone();
            std::thread::spawn(move || {
                store
                    .fetch_or_compute(&m, || {
                        std::thread::sleep(Duration::from_millis(120));
                        Ok(Value::Int(42))
                    })
                    .unwrap()
            })
        };
        // Give A time to take the claim before B looks.
        std::thread::sleep(Duration::from_millis(40));
        let (row_b, outcome_b) = store
            .fetch_or_compute(&m, || panic!("B must not compute"))
            .unwrap();
        let (row_a, outcome_a) = a.join().unwrap();
        assert_eq!(outcome_a, CacheOutcome::Computed);
        assert_eq!(outcome_b, CacheOutcome::WaitHit);
        assert_eq!(row_a, Value::Int(42));
        assert_eq!(row_b, Value::Int(42));
        assert_eq!(store.stats().claim_waits, 1);
    }

    #[test]
    fn stale_claim_is_stolen() {
        let (_dir, store) = fresh_store("stale");
        let store = store.with_claim_timing(
            Duration::from_secs(10),
            Duration::from_millis(5),
            Duration::from_millis(0), // every claim is instantly stale
        );
        let hash = crate::sweep::canon::sha256_hex(b"stale");
        let m = meta(&hash, "stale");
        // A dead worker's abandoned claim.
        fs::write(store.claim_path(&hash), "pid 0").unwrap();
        let (row, outcome) = store.fetch_or_compute(&m, || Ok(Value::Int(9))).unwrap();
        assert_eq!(outcome, CacheOutcome::Computed);
        assert_eq!(row, Value::Int(9));
    }

    #[test]
    fn gc_keeps_live_objects_and_clears_the_rest() {
        let (_dir, store) = fresh_store("gc");
        let live_hash = crate::sweep::canon::sha256_hex(b"live");
        let dead_hash = crate::sweep::canon::sha256_hex(b"dead");
        store
            .store(&meta(&live_hash, "live"), &Value::Int(1))
            .unwrap();
        store
            .store(&meta(&dead_hash, "dead"), &Value::Int(2))
            .unwrap();
        fs::write(store.claim_path("leftover"), "pid 0").unwrap();

        let live: std::collections::BTreeSet<String> = [live_hash.clone()].into();
        let summary = store.gc(&live).unwrap();
        assert_eq!(
            (summary.kept, summary.removed, summary.claims_removed),
            (1, 1, 1)
        );
        assert!(store.contains(&live_hash));
        assert!(!store.contains(&dead_hash));
    }

    #[test]
    fn gc_leaves_no_empty_shard_directory() {
        let (_dir, store) = fresh_store("gc-shards");
        let hashes: Vec<String> = (0..12)
            .map(|i| crate::sweep::canon::sha256_hex(format!("obj{i}").as_bytes()))
            .collect();
        for h in &hashes {
            store.store(&meta(h, h), &Value::Int(0)).unwrap();
        }
        let live: std::collections::BTreeSet<String> = hashes[..3].iter().cloned().collect();
        assert_eq!(store.gc(&live).unwrap().removed, 9);
        let objects = store.root.join("objects");
        for shard in fs::read_dir(&objects).unwrap() {
            let shard = shard.unwrap().path();
            assert!(
                fs::read_dir(&shard).unwrap().next().is_some(),
                "gc left {} empty",
                shard.display()
            );
        }
        assert_eq!(store.list().unwrap().len(), 3);
    }

    #[test]
    fn list_and_find_enumerate_by_prefix() {
        let (_dir, store) = fresh_store("list");
        let h1 = crate::sweep::canon::sha256_hex(b"one");
        let h2 = crate::sweep::canon::sha256_hex(b"two");
        store.store(&meta(&h1, "one"), &Value::Int(1)).unwrap();
        store.store(&meta(&h2, "two"), &Value::Int(2)).unwrap();
        let mut want = vec![h1.clone(), h2.clone()];
        want.sort();
        assert_eq!(store.list().unwrap(), want);
        let found = store.find(&h1[..12]).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, h1);
        assert_eq!(found[0].1.as_ref().unwrap().key, "one");
    }

    /// `find` (behind `experiments explain`) reports an object it cannot
    /// serve with the reason, and leaves it where it is.
    #[test]
    fn find_reports_unservable_objects_and_moves_nothing() {
        let (_dir, store) = fresh_store("find-read-only");
        let v1 = crate::sweep::canon::sha256_hex(b"find-v1");
        let torn = crate::sweep::canon::sha256_hex(b"find-torn");
        let plant = |hash: &str, text: &str| {
            let path = store.object_path(hash);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, text).unwrap();
        };
        plant(
            &v1,
            r#"{"schema":"rsp-cas-v1","kind":"point","name":"demo","key":"k","code_version":"0","inputs":[],"row":1}"#,
        );
        plant(&torn, r#"{"schema":"rsp-cas-v2","na"#);
        for (hash, want) in [
            (&v1, r#"schema "rsp-cas-v1", want "rsp-cas-v2""#),
            (&torn, "unparseable: "),
        ] {
            let found = store.find(&hash[..12]).unwrap();
            assert_eq!(found.len(), 1);
            assert_eq!(&found[0].0, hash);
            let reason = found[0].1.as_ref().unwrap_err();
            assert!(reason.starts_with(want), "{reason}");
            assert!(store.contains(hash), "find moved {hash}");
        }
        assert_eq!(store.stats().quarantined, 0);
        assert_eq!(
            fs::read_dir(store.root().join("quarantine"))
                .unwrap()
                .count(),
            0
        );
    }
}

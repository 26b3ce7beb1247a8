//! Shard arithmetic and worker-process fan-out.
//!
//! A shard is `k/N`: the subset of grid points whose stable key hashes
//! to `k` modulo `N`. The hash is [`rsp_obs::stable_key_hash`] — the
//! workspace's one shared FNV-1a, never the standard library's
//! `DefaultHasher` (`std::hash::DefaultHasher`), whose algorithm is
//! unspecified across releases — so the same key lands in the same
//! shard on every machine, toolchain and run. Assignment depends only
//! on the key, never on enumeration order, so N shards cover the grid
//! exactly once whichever process enumerates it.

use std::path::Path;
use std::process::Command;

use super::SweepError;

pub use rsp_obs::stable_key_hash;

/// One shard of a sweep: `index` of `count`, with `0/1` meaning the
/// whole grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Which shard this is (0-based).
    pub index: u32,
    /// Total number of shards.
    pub count: u32,
}

impl Shard {
    /// The whole grid as a single shard.
    pub(crate) const WHOLE: Shard = Shard { index: 0, count: 1 };

    /// Build a shard, validating `index < count` and `count > 0`.
    pub fn new(index: u32, count: u32) -> Result<Shard, SweepError> {
        if count == 0 || index >= count {
            return Err(SweepError::BadShard(format!("{index}/{count}")));
        }
        Ok(Shard { index, count })
    }

    /// Parse a `K/N` CLI argument.
    pub fn parse(s: &str) -> Result<Shard, SweepError> {
        let bad = || SweepError::BadShard(s.to_string());
        let (k, n) = s.split_once('/').ok_or_else(bad)?;
        let index: u32 = k.trim().parse().map_err(|_| bad())?;
        let count: u32 = n.trim().parse().map_err(|_| bad())?;
        Shard::new(index, count)
    }

    /// True iff this shard owns `key`.
    pub fn owns(&self, key: &str) -> bool {
        stable_key_hash(key) % self.count as u64 == self.index as u64
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Spawn one worker subprocess per shard — `exe args... --shard k/N
/// --cache-dir <cache_dir> --code-version <code_version>` — and wait
/// for all of them. Workers publish their rows into the store at
/// `cache_dir`; callers merge from it afterwards. Any worker exiting
/// non-zero fails the whole fan-out (the rows it did publish stay in
/// the store, so a rerun computes only the rest).
pub(crate) fn spawn_shard_workers(
    exe: &Path,
    args: &[String],
    count: u32,
    cache_dir: &Path,
    code_version: &str,
) -> Result<(), SweepError> {
    let mut children = Vec::new();
    for index in 0..count {
        let mut cmd = Command::new(exe);
        cmd.args(args)
            .arg("--shard")
            .arg(format!("{index}/{count}"))
            .arg("--cache-dir")
            .arg(cache_dir)
            .arg("--code-version")
            .arg(code_version);
        let child = cmd.spawn().map_err(|e| SweepError::Worker {
            shard: Shard { index, count },
            msg: format!("spawn failed: {e}"),
        })?;
        children.push((index, child));
    }
    let mut first_err = None;
    for (index, mut child) in children {
        let shard = Shard { index, count };
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                first_err.get_or_insert(SweepError::Worker {
                    shard,
                    msg: format!("exited with {status}"),
                });
            }
            Err(e) => {
                first_err.get_or_insert(SweepError::Worker {
                    shard,
                    msg: format!("wait failed: {e}"),
                });
            }
        }
    }
    match first_err {
        None => Ok(()),
        Some(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_valid_rejects_invalid() {
        assert_eq!(Shard::parse("0/2").unwrap(), Shard { index: 0, count: 2 });
        assert_eq!(Shard::parse("3/4").unwrap(), Shard { index: 3, count: 4 });
        for bad in ["", "1", "2/2", "1/0", "a/b", "-1/2", "1/2/3"] {
            assert!(Shard::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn shards_partition_every_key_exactly_once() {
        let keys: Vec<String> = (0..100)
            .map(|i| format!("w{i}/u{}/s{}", i * 7, i % 3))
            .collect();
        for count in 1..=6u32 {
            for key in &keys {
                let owners: Vec<u32> = (0..count)
                    .filter(|&index| Shard { index, count }.owns(key))
                    .collect();
                assert_eq!(owners.len(), 1, "key {key} owned by {owners:?} of {count}");
            }
        }
    }

    #[test]
    fn hash_is_pinned() {
        // The on-disk contract: these values must never change.
        assert_eq!(stable_key_hash(""), 0xcbf29ce484222325);
        assert_eq!(stable_key_hash("a"), 0xaf63dc4c8601ec8c);
    }
}

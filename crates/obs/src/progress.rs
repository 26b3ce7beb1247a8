//! Host-side sweep progress counters.
//!
//! The experiment sweep engine (`rsp-bench::sweep`) fans grid points out
//! across threads, shards and worker processes; this module is the
//! shared, thread-safe tally it reports through. Unlike
//! [`MetricsRegistry`](crate::MetricsRegistry) — which counts *simulated*
//! events inside one machine — a [`SweepProgress`] counts *host* work:
//! grid points completed and points that failed. Counters are plain relaxed atomics: progress
//! is advisory (rendered to stderr and exported in run summaries), never
//! load-bearing for correctness.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe progress tally for one sweep run (one shard of one grid).
#[derive(Debug, Default)]
pub struct SweepProgress {
    total: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
}

impl SweepProgress {
    /// A fresh tally with `total` points to account for.
    pub fn with_total(total: u64) -> SweepProgress {
        let p = SweepProgress::default();
        p.total.store(total, Ordering::Relaxed);
        p
    }

    /// Record one freshly computed point. Returns the snapshot *after*
    /// the increment, for progress lines.
    pub fn point_completed(&self) -> ProgressSnapshot {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.snapshot()
    }

    /// Record one point whose execution failed.
    pub fn point_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the counters (relaxed loads).
    pub fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            total: self.total.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
        }
    }
}

/// Serialisable point-in-time copy of a [`SweepProgress`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgressSnapshot {
    /// Points this run must account for (its shard of the grid).
    pub total: u64,
    /// Points this run has finished (computed or served from a store).
    pub completed: u64,
    /// Points whose execution failed.
    pub failed: u64,
}

impl std::fmt::Display for ProgressSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}/{}", self.completed, self.total)?;
        if self.failed > 0 {
            write!(f, ", {} FAILED", self.failed)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate_and_complete() {
        let p = SweepProgress::with_total(3);
        p.point_completed();
        assert_eq!(p.snapshot().completed, 1);
        p.point_completed();
        let snap = p.point_completed();
        assert_eq!(snap.completed, 3);
        assert_eq!(snap.to_string(), "[3/3]");
    }

    #[test]
    fn failures_block_completion_and_render() {
        let p = SweepProgress::with_total(1);
        p.point_completed();
        p.point_failed();
        let snap = p.snapshot();
        assert_eq!((snap.completed, snap.failed), (1, 1));
        assert_eq!(snap.to_string(), "[1/1, 1 FAILED]");
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let p = SweepProgress::with_total(9);
        p.point_completed();
        p.point_failed();
        let snap = p.snapshot();
        let s = serde_json::to_string(&snap).unwrap();
        let back: ProgressSnapshot = serde_json::from_str(&s).unwrap();
        assert_eq!(back, snap);
    }
}

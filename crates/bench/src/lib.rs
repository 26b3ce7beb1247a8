//! # rsp-bench — experiment harness
//!
//! Shared plumbing for the `experiments` binary (one subcommand per
//! table/figure/experiment of DESIGN.md §4), the `rsp-timeline` log
//! analyser, and the seeded [`throughput`] inputs the repository
//! benchmark (`perf/`) measures. Every experiment is a [`sweep::Sweep`]
//! on one engine (DESIGN.md §12): a declarative ordered grid with stable
//! per-point keys, executed in-process or as `hash(key) % N` shards
//! across worker processes (each simulation is single-threaded and
//! deterministic, so the split is free of ordering effects); a
//! report-only experiment is a one-point sweep whose row is its report.
//! With `--cache-dir`, every point result is a content-addressed object
//! in a shared [`sweep::CasStore`] (DESIGN.md §17), keyed by a hash of
//! the workspace sources — the engine's only persistence: shards publish
//! into it, a killed run resumes by running again, and a deterministic
//! merge loads every point from it, re-runs each sweep's cross-point
//! assertions and emits the `BENCH_*.json` artifact byte-identically
//! however the grid was split. Multi-stage studies run as
//! [`sweep::StudyDag`]s over the same store.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod scaled;
pub mod serve_saturation;
pub mod serve_sched;
pub mod sweep;
pub mod throughput;
pub mod timeline;

pub use harness::{policies, run_one, PolicySpec, Row};
pub use scaled::scaled_paper_set;
pub use sweep::{
    write_artifact, CacheSnapshot, CasStore, Executor, Shard, StudyDag, Sweep, SweepConfig,
    SweepError, SweepRunner,
};

//! Exit-code contract of the CLI bins: usage errors exit 2 with the
//! usage string on stderr (never a panic); failures to run — a sweep
//! that fails, an input that is missing or does not parse — exit 1 with
//! a message that names the problem.

use std::path::PathBuf;
use std::process::{Command, Output};

fn timeline(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rsp-timeline"))
        .args(args)
        .output()
        .expect("spawn rsp-timeline")
}

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments")
}

fn assert_usage(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "usage errors exit 2; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains(needle),
        "stderr must explain the problem ({needle:?}):\n{stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "usage errors print the usage string:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "usage errors must not panic:\n{stderr}"
    );
}

/// A fresh scratch directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rsp-cli-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Assert `out` is a run failure: exit 1, `needle` on stderr, no panic.
fn assert_failure(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains(needle),
        "stderr lacks {needle:?}:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "must not panic:\n{stderr}");
}

#[test]
fn timeline_usage_errors_exit_2() {
    assert_usage(&timeline(&["--json"]), "rsp-timeline");
    assert_usage(&timeline(&["--bogus"]), "rsp-timeline");
    assert_usage(&timeline(&["--demo", "events.jsonl"]), "rsp-timeline");
}

#[test]
fn timeline_missing_input_exits_1() {
    let path = scratch("timeline-missing").join("absent.jsonl");
    let path = path.to_str().unwrap();
    assert_failure(&timeline(&[path]), "cannot read");
    assert_failure(&timeline(&["--flight", path]), "cannot read");
}

#[test]
fn timeline_malformed_line_exits_1_and_names_it() {
    // Line 1 is blank (skipped); line 2 is not JSON.
    let path = scratch("timeline-malformed").join("torn.jsonl");
    std::fs::write(&path, "\n{\"tick\": 3,\n").unwrap();
    let path = path.to_str().unwrap();
    assert_failure(&timeline(&[path]), "line 2");
    assert_failure(&timeline(&["--flight", path]), "line 2");
}

#[test]
fn experiments_usage_errors_exit_2() {
    let out = experiments(&["definitely-not-an-id"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));

    let out = experiments(&["fault-sweep", "--shard", "nonsense"]);
    assert_eq!(out.status.code(), Some(2));

    // No id → the id list, as a usage error.
    let out = experiments(&[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("serve-saturation") && stderr.contains("fault-sweep"));
}

#[test]
fn experiments_sharding_flags_without_a_store_exit_2() {
    for id in ["fault-sweep", "table1"] {
        for flags in [&["--merge"][..], &["--shard", "0/2"], &["--spawn", "2"]] {
            let out = experiments(&[&[id], flags].concat());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{id} {flags:?}: {stderr}");
            assert!(stderr.contains("--cache-dir"), "{id} {flags:?}: {stderr}");
        }
    }
}

/// Every id is a sweep: a report-only experiment shards over a store
/// and merges to exactly the output of a plain run.
#[test]
fn report_id_shards_and_merges_to_the_plain_output() {
    let dir = scratch("report-shards");
    let cas = dir.join("cas");
    let with_store = |flags: &[&str]| {
        let out = experiments(&[&["table1", "--cache-dir", cas.to_str().unwrap()], flags].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{flags:?}: {stderr}");
        out.stdout
    };
    with_store(&["--shard", "0/2"]);
    with_store(&["--shard", "1/2"]);
    let merged = with_store(&["--merge"]);
    let plain = experiments(&["table1"]);
    assert_eq!(plain.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&merged),
        String::from_utf8_lossy(&plain.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn experiments_sweep_failure_exits_1_not_2() {
    // Merging from an empty store is a *sweep* error (missing points),
    // distinct from the usage exit code.
    let dir = scratch("sweep-failure");
    let out = experiments(&[
        "serve-saturation",
        "--merge",
        "--cache-dir",
        dir.join("cas").to_str().unwrap(),
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing"));
}

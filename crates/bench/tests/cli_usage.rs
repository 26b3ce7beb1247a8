//! Exit-code contract of the CLI bins: usage errors exit 2 with the
//! usage string on stderr (never a panic); failures to run — a sweep
//! that fails, an input that is missing or does not parse — exit 1 with
//! a message that names the problem.

mod common;

use std::process::{Command, Output, Stdio};

use common::ScratchDir;

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

/// A fresh scratch directory for one test, removed when it drops.
fn scratch(test: &str) -> ScratchDir {
    ScratchDir::new(&format!("cli-{test}"))
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
    let dir = scratch("timeline-missing");
    let path = dir.join("absent.jsonl");
    let path = path.to_str().unwrap();
    assert_failure(&timeline(&[path]), "cannot read");
    assert_failure(&timeline(&["--flight", path]), "cannot read");
}

#[test]
fn timeline_malformed_line_exits_1_and_names_it() {
    // Line 1 is blank (skipped); line 2 is not JSON.
    let dir = scratch("timeline-malformed");
    let path = dir.join("torn.jsonl");
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
}

/// A reader that goes away early (`experiments … | head -1`) ends the
/// run quietly: no panic, no backtrace.
#[test]
fn experiments_end_quietly_on_a_closed_stdout() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("table1")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn experiments");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
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

#[test]
fn store_commands_usage_errors_exit_2() {
    assert_usage(&experiments(&["gc"]), "--cache-dir");
    // `study` names no experiment or command.
    let out = experiments(&["study", "run", "fault-study"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown experiment"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_usage(&experiments(&["explain"]), "key prefix");
}

#[test]
fn explain_of_an_absent_prefix_exits_1() {
    let dir = scratch("explain-empty");
    let cas = dir.join("cas");
    let out = experiments(&["explain", "deadbeef", "--cache-dir", cas.to_str().unwrap()]);
    assert_failure(&out, "no object matches");
}

/// `explain` is read-only: an object in the old `rsp-cas-v1` envelope is
/// reported as unservable, with the reason, and stays under `objects/`.
#[test]
fn explain_reports_a_foreign_schema_object_and_moves_nothing() {
    let dir = scratch("explain-v1");
    let cas = dir.join("cas");
    let hash = format!("ab{}", "0".repeat(62));
    let obj = cas
        .join("objects")
        .join("ab")
        .join(format!("{}.json", &hash[2..]));
    std::fs::create_dir_all(obj.parent().unwrap()).unwrap();
    std::fs::write(
        &obj,
        r#"{"schema":"rsp-cas-v1","kind":"point","name":"demo","key":"k","code_version":"0","inputs":[],"row":1}"#,
    )
    .unwrap();
    let out = experiments(&["explain", "ab00", "--cache-dir", cas.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert_eq!(
        stdout,
        format!("{hash}\n  unservable:   schema \"rsp-cas-v1\", want \"rsp-cas-v2\"\n")
    );
    assert!(obj.exists(), "explain moved the object");
    assert_eq!(
        std::fs::read_dir(cas.join("quarantine")).unwrap().count(),
        0,
        "explain quarantined the object"
    );
}

/// `gc` keeps what the current code version reaches and removes exactly
/// the objects another version wrote.
#[test]
fn gc_removes_exactly_the_foreign_versions_objects() {
    let dir = scratch("gc-versions");
    let cas = dir.join("cas");
    let run = |args: &[&str], version: &str| {
        let common = [
            "--cache-dir",
            cas.to_str().unwrap(),
            "--code-version",
            version,
        ];
        let out = experiments(&[args, &common[..], &["--out-dir", dir.to_str().unwrap()]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?} {version}: {stderr}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    run(&["fault-sweep-reduced"], "gc-kept");
    run(&["fault-sweep-reduced"], "gc-foreign");
    let gc = run(&["gc"], "gc-kept");
    assert!(gc.contains("kept 8 object(s), removed 8 object(s)"), "{gc}");
    let kept = run(&["fault-sweep-reduced"], "gc-kept");
    assert!(kept.contains("cache: 8 hit(s), 0 miss(es)"), "{kept}");
    let foreign = run(&["fault-sweep-reduced"], "gc-foreign");
    assert!(foreign.contains("cache: 0 hit(s), 8 miss(es)"), "{foreign}");
}

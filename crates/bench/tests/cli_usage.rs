//! Exit-code contract of the CLI bins: usage errors exit 2 with the
//! usage string on stderr (never a panic), sweep failures exit 1. Pins
//! the fix for the old `--lanes`/`--seconds` panic path: a missing or
//! non-numeric flag value used to die in `.expect` with a backtrace.

use std::process::{Command, Output};

fn throughput(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_throughput"))
        .args(args)
        .output()
        .expect("spawn throughput")
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

#[test]
fn throughput_missing_flag_values_exit_2() {
    assert_usage(&throughput(&["--lanes"]), "--lanes needs a value");
    assert_usage(&throughput(&["--seconds"]), "--seconds needs a value");
    assert_usage(&throughput(&["--out-dir"]), "--out-dir needs a value");
}

#[test]
fn throughput_bad_flag_values_exit_2() {
    assert_usage(&throughput(&["--lanes", "abc"]), "--lanes needs a number");
    assert_usage(&throughput(&["--lanes", "100"]), "multiple of 64");
    assert_usage(&throughput(&["--lanes", "0"]), "multiple of 64");
    assert_usage(
        &throughput(&["--seconds", "zero"]),
        "--seconds needs a number",
    );
    assert_usage(&throughput(&["--seconds", "0"]), "positive");
    assert_usage(&throughput(&["--seconds", "-3"]), "positive");
}

#[test]
fn throughput_unknown_argument_exits_2() {
    assert_usage(&throughput(&["--bogus"]), "unknown argument");
    assert_usage(&throughput(&["extra"]), "unknown argument");
}

#[test]
fn throughput_help_exits_0() {
    let out = throughput(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn experiments_usage_errors_exit_2() {
    let out = experiments(&["definitely-not-an-id"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));

    let out = experiments(&["fault-sweep", "--shard", "nonsense"]);
    assert_eq!(out.status.code(), Some(2));

    // Sharding flags demand a sweep experiment, and name every one.
    let out = experiments(&["table1", "--shard", "0/2"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not a sweep experiment"), "{stderr}");
    assert!(stderr.contains("serve-sched"), "{stderr}");

    // No id → the id list, as a usage error.
    let out = experiments(&[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("serve-saturation") && stderr.contains("fault-sweep"));
}

#[test]
fn experiments_sharding_flags_without_a_store_exit_2() {
    for flags in [&["--merge"][..], &["--shard", "0/2"], &["--spawn", "2"]] {
        let out = experiments(&[&["fault-sweep"], flags].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains("--cache-dir"), "{flags:?}: {stderr}");
    }
}

#[test]
fn experiments_sweep_failure_exits_1_not_2() {
    // Merging from an empty store is a *sweep* error (missing points),
    // distinct from the usage exit code.
    let dir = std::env::temp_dir().join(format!("rsp-cli-usage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
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

//! CLI for the cycles/sec throughput harness: runs every workload class
//! through the batched driver on the sweep engine and writes
//! `BENCH_throughput.json` into `--out-dir`.
//!
//! ```text
//! throughput [--quick] [--out-dir DIR] [--seconds N] [--lanes N]
//! ```
//!
//! `--quick` runs a single pass per class (CI smoke); the default runs
//! each class for ≥ 2 s of wall clock for stable numbers. Classes run
//! serially (each point is wall-clock timed), once, in this process; a
//! killed run starts over. `--lanes N` sizes the bit-sliced lane-kernel
//! class (default 256; must be a positive multiple of 64).

use rsp_bench::throughput::{ThroughputSweep, DEFAULT_LANES};
use rsp_bench::{SweepConfig, SweepRunner};
use rsp_sim::SimConfig;
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "usage: throughput [--quick] [--out-dir DIR] [--seconds N] [--lanes N]";

/// Report a usage error and exit 2 (the `experiments` bin's exit-code
/// convention: 1 = sweep error, 2 = usage).
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The flag's value, or a usage error when the argument list ran out.
fn need(flag: &str, v: Option<String>) -> String {
    v.unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
}

// `is_multiple_of` needs Rust 1.87; the workspace MSRV is 1.82.
#[allow(unknown_lints, clippy::manual_is_multiple_of)]
fn main() {
    let mut quick = false;
    let mut seconds: f64 = 2.0;
    let mut lanes = DEFAULT_LANES;
    let mut cfg = SweepConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out-dir" => cfg.out_dir = PathBuf::from(need("--out-dir", args.next())),
            "--seconds" => {
                seconds = need("--seconds", args.next())
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seconds needs a number"));
                if seconds.is_nan() || seconds <= 0.0 {
                    usage_error("--seconds needs a positive number");
                }
            }
            "--lanes" => {
                lanes = need("--lanes", args.next())
                    .parse()
                    .unwrap_or_else(|_| usage_error("--lanes needs a number"));
                if lanes == 0 || lanes % 64 != 0 {
                    usage_error(&format!(
                        "--lanes must be a positive multiple of 64, got {lanes}"
                    ));
                }
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    let min_wall = if quick {
        Duration::ZERO
    } else {
        Duration::from_secs_f64(seconds)
    };

    let harness = ThroughputSweep::new(SimConfig::default(), min_wall, quick).with_lanes(lanes);
    match harness.run_and_merge(&cfg) {
        Ok((merged, _)) => {
            print!("{}", merged.report);
            if let Some(path) = merged.artifact {
                println!("wrote {}", path.display());
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

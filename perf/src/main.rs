//! `perf`: the repository benchmark.
//!
//! ```text
//! perf run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! perf compare BASE.json NEW.json [NEW.json ...]
//! ```
//!
//! `run` measures the end-to-end metrics with tracing off; `run --trace 1`
//! is a separate run that reports the per-layer metrics. With
//! `--workload`, one workload runs in this process and the last line of
//! standard output is its JSON result. Without it, every workload runs in
//! its own re-executed child process (so its peak RSS is its own) and the
//! last line aggregates them. Lines before it read
//! `workload metric value unit`. `--out` appends the runs, with host,
//! revision and toolchain, to a runs file that `compare` reads with the
//! bounds of the `BENCHMARK.json` in the working directory. End-to-end
//! times are scaled to a reference host speed (see [`probe`]); standard
//! error gives the host speed a run measured.
//!
//! Exit status: 0 when every operation and output check passed, 1 when
//! one failed, 2 on a usage error.

mod compare;
mod inputs;
mod lanes;
mod ledger;
mod metrics;
mod probe;
mod scalar;
mod serve;
mod spec;
mod stats;
mod sweep;

use std::path::PathBuf;
use std::process::{exit, Command, Stdio};
use std::time::Instant;

use serde_json::Value;

use crate::ledger::{Ledger, Run};
use crate::metrics::{metrics_json, Def, Outcome, END_TO_END, PER_LAYER};
use crate::probe::{Mix, Probe};
use crate::scalar::ScalarSet;

/// The benchmark's workloads (see `perf/README.md` for why each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 23 fault-free programs on one reused machine.
    Scalar,
    /// 3 phased programs under the fault model, fault-aware policy.
    ScalarFaulty,
    /// The bit-sliced lane kernel at 256 lanes.
    Lanes,
    /// An in-process server under open- and closed-loop load.
    Serve,
    /// Every experiment, cold then warm, over a content-addressed store.
    Sweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::Scalar,
        Workload::ScalarFaulty,
        Workload::Lanes,
        Workload::Serve,
        Workload::Sweep,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Scalar => "scalar",
            Workload::ScalarFaulty => "scalar-faulty",
            Workload::Lanes => "lanes",
            Workload::Serve => "serve",
            Workload::Sweep => "sweep",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How much one run measures.
#[derive(Debug, Clone)]
pub struct Budget {
    /// Input seed.
    pub seed: u64,
    /// Seconds the measured phase lasts.
    pub seconds: f64,
    /// One operation (or pass) only: a smoke run.
    pub quick: bool,
}

impl Budget {
    /// True once a measured loop started at `started` should stop.
    pub fn spent(&self, started: Instant) -> bool {
        self.quick || started.elapsed().as_secs_f64() >= self.seconds
    }
}

/// Where runs put sockets, stores and other scratch files: beside the
/// benchmark binary, inside the build directory. Relative to the working
/// directory when it lies below it, which keeps socket paths short.
pub fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("own executable path");
    let dir = exe
        .parent()
        .expect("executable has a directory")
        .join("perf-scratch");
    std::fs::create_dir_all(&dir).expect("scratch directory is writable");
    let canonical = |p: &std::path::Path| p.canonicalize().ok();
    match (
        canonical(&dir),
        std::env::current_dir().ok().and_then(|d| canonical(&d)),
    ) {
        (Some(abs), Some(cwd)) => abs
            .strip_prefix(&cwd)
            .map(|rel| PathBuf::from(".").join(rel))
            .unwrap_or(abs),
        _ => dir,
    }
}

/// One end-to-end run (tracing off).
fn measure(w: Workload, budget: &Budget) -> Outcome {
    let mut out = match w {
        Workload::Scalar => scalar::run(false, budget),
        Workload::ScalarFaulty => scalar::run(true, budget),
        Workload::Lanes => lanes::run(budget),
        Workload::Serve => serve::run(budget),
        Workload::Sweep => sweep::run(budget),
    };
    out.set("peak_rss_mb", stats::peak_rss_mb());
    out
}

/// One traced run. It reports every per-layer metric: the `sim`,
/// `sched`, `core` and `fabric` layers are replayed from the workload's
/// own programs when it is a scalar workload and from the `scalar`
/// programs otherwise; the lane, serve and sweep layers always come from
/// their own workload's inputs.
fn trace(w: Workload, budget: &Budget) -> Outcome {
    let mut out = Outcome::default();
    let mut probe = Probe::new(Mix::Machine);
    probe.speed();
    let overhead_ns = stats::clock_overhead_ns();
    let faulty = w == Workload::ScalarFaulty;
    out.set(
        "setup.program_gen_ms",
        scalar::program_gen_ms(faulty, budget.seed),
    );
    scalar::trace(&ScalarSet::new(faulty, budget.seed), overhead_ns, &mut out);
    probe.speed();
    lanes::trace(budget.seed, &mut out);
    probe.speed();
    serve::trace(budget.seed, overhead_ns, &mut out);
    probe.speed();
    sweep::trace(&mut out);
    probe.speed();
    out.set("host.speed", probe.median_speed());
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(attempted: u64, failed: u64, metrics: Value) -> Value {
    Value::Object(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::Int(attempted.max(1).into())),
        ("failed".into(), Value::Int(failed.into())),
        ("metrics".into(), metrics),
    ])
}

/// The `workload metric value unit` lines and the JSON result of a run.
fn render(w: Workload, out: &Outcome, defs: &[Def]) -> (Vec<String>, Value) {
    let mut errors = out.errors.clone();
    let mut failed = out.failed;
    let metrics = match out.metrics(defs) {
        Ok(m) => m,
        Err(e) => {
            errors.push(e);
            failed += 1;
            Vec::new()
        }
    };
    let mut lines = Vec::new();
    for (d, v) in &metrics {
        if !v.is_finite() {
            errors.push(format!("metric {} is not a finite number", d.name));
            failed += 1;
        }
        lines.push(format!("{} {} {} {}", w.name(), d.name, v, d.unit));
    }
    let finite = metrics
        .iter()
        .filter(|(_, v)| v.is_finite())
        .map(|(d, v)| (d.name, *v, d.unit));
    let json = result_json(out.attempted, failed, metrics_json(finite));
    for e in &errors {
        eprintln!("{}: FAILED: {e}", w.name());
    }
    (lines, json)
}

struct Cli {
    command: String,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<String>,
    files: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perf run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]\n\
         \x20      perf compare BASE.json NEW.json [NEW.json ...]\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    exit(2);
}

fn parse_cli() -> Cli {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| usage());
    if !matches!(command.as_str(), "run" | "compare") {
        usage();
    }
    let mut cli = Cli {
        command,
        trace: false,
        workload: None,
        seed: 0,
        // BENCHMARK.json's run_seconds, so a plain `perf run` measures
        // what the gate compares.
        seconds: 20.0,
        quick: false,
        out: None,
        files: Vec::new(),
    };
    let value = |v: Option<String>, flag: &str| -> String {
        v.unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            usage()
        })
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => {
                let v = value(args.next(), "--workload");
                cli.workload = Some(Workload::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown workload {v:?}");
                    usage()
                }));
            }
            "--seed" => {
                cli.seed = value(args.next(), "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--seconds" => {
                cli.seconds = value(args.next(), "--seconds")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                cli.trace = match value(args.next(), "--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--quick" => cli.quick = true,
            "--out" => cli.out = Some(value(args.next(), "--out")),
            f if f.starts_with('-') => {
                eprintln!("unknown flag {f:?}");
                usage()
            }
            file if cli.command == "compare" => cli.files.push(file.to_string()),
            other => {
                eprintln!("unexpected argument {other:?}");
                usage()
            }
        }
    }
    cli
}

/// Run one workload in this process; returns its recorded run.
fn run_here(cli: &Cli, w: Workload) -> Run {
    let budget = Budget {
        seed: cli.seed,
        seconds: cli.seconds,
        quick: cli.quick,
    };
    let (out, defs) = if cli.trace {
        (trace(w, &budget), PER_LAYER)
    } else {
        (measure(w, &budget), END_TO_END)
    };
    let (lines, json) = render(w, &out, defs);
    for l in &lines {
        println!("{l}");
    }
    if let (false, Some(speed)) = (cli.trace, out.get("host.speed")) {
        eprintln!(
            "{}: host speed {speed:.3} of the reference (median probe); times are at reference speed",
            w.name()
        );
    }
    println!(
        "{}",
        serde_json::to_string(&json).expect("result serializes")
    );
    Run::from_result(w.name(), cli.seed, cli.trace, cli.quick, &json).expect("own result parses")
}

/// Run one workload in a re-executed child process; echoes its lines.
fn run_child(cli: &Cli, w: Workload) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", w.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if cli.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("{}: {e}", w.name()))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{}: no output", w.name()))?;
    for l in lines {
        println!("{l}");
    }
    let json: Value = serde_json::from_str(last).map_err(|e| format!("{}: {e}", w.name()))?;
    Run::from_result(w.name(), cli.seed, cli.trace, cli.quick, &json)
}

fn main() {
    let cli = parse_cli();
    if cli.command == "compare" {
        if cli.files.len() < 2 {
            usage();
        }
        let spec = spec::load("BENCHMARK.json").unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2)
        });
        let load = |p: &str| {
            Ledger::load(p).unwrap_or_else(|e| {
                eprintln!("{e}");
                exit(2)
            })
        };
        let base = load(&cli.files[0]);
        let mut bad = false;
        for path in &cli.files[1..] {
            println!("{} vs {}", cli.files[0], path);
            let (table, worse) = compare::compare(&spec, &base, &load(path));
            print!("{table}");
            bad |= worse;
        }
        exit(i32::from(bad));
    }

    let runs: Vec<Run> = match cli.workload {
        Some(w) => vec![run_here(&cli, w)],
        None => {
            let runs: Vec<Run> = Workload::ALL
                .into_iter()
                .map(|w| run_child(&cli, w))
                .collect::<Result<_, _>>()
                .unwrap_or_else(|e| {
                    eprintln!("{e}");
                    exit(1)
                });
            // Aggregate line: metrics keyed `workload.metric`.
            let names: Vec<(String, f64, &str)> = runs
                .iter()
                .flat_map(|r| {
                    r.metrics
                        .iter()
                        .map(|(n, x, u)| (format!("{}.{n}", r.workload), *x, u.as_str()))
                })
                .collect();
            let all = result_json(
                runs.iter().map(|r| r.attempted).sum(),
                runs.iter().map(|r| r.failed).sum(),
                metrics_json(names.iter().map(|(n, x, u)| (n.as_str(), *x, *u))),
            );
            println!(
                "{}",
                serde_json::to_string(&all).expect("result serializes")
            );
            runs
        }
    };
    if let Some(path) = &cli.out {
        if let Err(e) = Ledger::append(path, runs.clone()) {
            eprintln!("{e}");
            exit(2);
        }
    }
    exit(i32::from(runs.iter().any(|r| r.failed > 0)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64) -> Budget {
        Budget {
            seed,
            seconds: 0.0,
            quick: true,
        }
    }

    #[test]
    fn quick_runs_print_exactly_the_end_to_end_metrics() {
        let want: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        for w in Workload::ALL {
            let out = measure(w, &quick(1));
            assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.errors);
            let (lines, json) = render(w, &out, END_TO_END);
            let names: Vec<&str> = lines
                .iter()
                .map(|l| l.split(' ').nth(1).expect("metric column"))
                .collect();
            assert_eq!(names, want, "{}", w.name());
            assert_eq!(json.get("correct"), Some(&Value::Bool(true)));
            for (_, v) in json.get("metrics").and_then(Value::as_object).unwrap() {
                assert!(v.get("value").and_then(Value::as_f64).unwrap() > 0.0);
            }
        }
    }

    #[test]
    fn quick_trace_prints_exactly_the_per_layer_metrics() {
        let out = trace(Workload::Scalar, &quick(1));
        assert_eq!(out.failed, 0, "{:?}", out.errors);
        let (lines, _) = render(Workload::Scalar, &out, PER_LAYER);
        let want: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        let names: Vec<&str> = lines
            .iter()
            .map(|l| l.split(' ').nth(1).expect("metric column"))
            .collect();
        assert_eq!(names, want);
        assert_eq!(out.get("lanes.differential_mismatches"), Some(0.0));
    }
}

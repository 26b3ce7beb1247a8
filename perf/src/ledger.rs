//! The runs file `perf run --out FILE` writes: every run's metrics, a
//! per-workload summary (median, p10, p90), and the host fingerprint,
//! git revision and toolchain they were measured with. Repeated
//! invocations with the same file append to it.

use std::process::Command;

use serde_json::Value;

use crate::metrics::metrics_json;
use crate::stats::quantile;

/// One workload run as recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// True for a traced (per-layer) run.
    pub trace: bool,
    /// True for a one-pass smoke run (never summarised or compared).
    pub quick: bool,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks failed.
    pub failed: u64,
    /// (name, value, unit) in print order.
    pub metrics: Vec<(String, f64, String)>,
}

fn int(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_i128)
        .and_then(|i| u64::try_from(i).ok())
        .ok_or_else(|| format!("run field {key} must be a whole number"))
}

impl Run {
    /// Build a run from a result line's JSON (`metrics` as printed).
    pub fn from_result(
        workload: &str,
        seed: u64,
        trace: bool,
        quick: bool,
        v: &Value,
    ) -> Result<Run, String> {
        let metrics = v
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("result has no metrics object")?
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64);
                let unit = m.get("unit").and_then(Value::as_str);
                match (value, unit) {
                    (Some(x), Some(u)) => Ok((name.clone(), x, u.to_string())),
                    _ => Err(format!("metric {name} lacks a value or unit")),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Run {
            workload: workload.to_string(),
            seed,
            trace,
            quick,
            attempted: int(v, "attempted")?,
            failed: int(v, "failed")?,
            metrics,
        })
    }

    fn to_json(&self) -> Value {
        let metrics = metrics_json(
            self.metrics
                .iter()
                .map(|(n, x, u)| (n.as_str(), *x, u.as_str())),
        );
        Value::Object(vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("seed".into(), Value::Int(self.seed.into())),
            ("trace".into(), Value::Bool(self.trace)),
            ("quick".into(), Value::Bool(self.quick)),
            ("attempted".into(), Value::Int(self.attempted.into())),
            ("failed".into(), Value::Int(self.failed.into())),
            ("metrics".into(), metrics),
        ])
    }

    fn from_json(v: &Value) -> Result<Run, String> {
        let flag = |k: &str| v.get(k).and_then(Value::as_bool).unwrap_or(false);
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run lacks a workload")?;
        Run::from_result(workload, int(v, "seed")?, flag("trace"), flag("quick"), v)
    }
}

/// Where and with what the runs were measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// `{"nproc", "cpu", "kernel"}`.
    pub host: Value,
    /// `git rev-parse HEAD` of the checkout, or "unknown".
    pub git_rev: String,
    /// `rustc --version`, or "unknown".
    pub rustc: String,
    /// Cargo profile of the benchmark binary.
    pub profile: String,
}

fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

impl Provenance {
    /// Fingerprint this host, checkout and toolchain.
    pub fn current() -> Provenance {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        // Stop git's repository search at the working directory, so a
        // checkout that is not a repository reads nothing above it.
        let ceiling = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(|p| p.display().to_string()))
            .unwrap_or_default();
        let git = |args: &[&str]| {
            command_line(
                Command::new("git")
                    .args(args)
                    .env("GIT_CEILING_DIRECTORIES", &ceiling),
            )
        };
        // A tree with uncommitted changes to tracked files is marked, so
        // runs are never credited to a commit they did not measure.
        let git_rev = match git(&["rev-parse", "HEAD"]) {
            Some(rev) if git(&["status", "--porcelain", "--untracked-files=no"]).is_some() => {
                format!("{rev}-dirty")
            }
            Some(rev) => rev,
            None => "unknown".into(),
        };
        let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
        let rustc =
            command_line(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
        Provenance {
            host: Value::Object(vec![
                ("nproc".into(), Value::Int(nproc as i128)),
                ("cpu".into(), Value::Str(cpu)),
                ("kernel".into(), Value::Str(kernel)),
            ]),
            git_rev,
            rustc,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        }
    }
}

/// A runs file.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Measurement provenance.
    pub provenance: Provenance,
    /// Every recorded run, in order.
    pub runs: Vec<Run>,
}

impl Ledger {
    /// Read a runs file.
    pub fn load(path: &str) -> Result<Ledger, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let v: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
        let field = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{path}: missing {k}"))
        };
        let runs = v
            .get("runs")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{path}: missing runs"))?
            .iter()
            .map(Run::from_json)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("{path}: {e}"))?;
        Ok(Ledger {
            provenance: Provenance {
                host: v.get("host").cloned().unwrap_or(Value::Null),
                git_rev: field("git_rev")?,
                rustc: field("rustc")?,
                profile: field("profile")?,
            },
            runs,
        })
    }

    /// Append `runs` to the file at `path` (creating it). Runs measured
    /// on another host, revision or toolchain are never mixed into one
    /// file: that is an error.
    pub fn append(path: &str, runs: Vec<Run>) -> Result<(), String> {
        let now = Provenance::current();
        let mut ledger = if std::path::Path::new(path).exists() {
            let old = Ledger::load(path)?;
            if old.provenance != now {
                return Err(format!(
                    "{path} holds runs from another host, revision or toolchain; use a new file"
                ));
            }
            old
        } else {
            Ledger {
                provenance: now,
                runs: Vec::new(),
            }
        };
        ledger.runs.extend(runs);
        let text = serde_json::to_string_pretty(&ledger.to_json()).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))
    }

    /// Values of `metric` over the measured (not quick) runs of
    /// `workload`, in file order.
    pub fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|r| r.workload == workload && !r.quick)
            .filter_map(|r| r.metrics.iter().find(|m| m.0 == metric).map(|m| m.1))
            .collect()
    }

    /// Workload names in first-seen order.
    pub fn workloads(&self) -> Vec<String> {
        let mut seen: Vec<String> = Vec::new();
        for r in &self.runs {
            if !seen.contains(&r.workload) {
                seen.push(r.workload.clone());
            }
        }
        seen
    }

    /// Median, p10 and p90 of every metric per workload.
    fn summary(&self) -> Value {
        let workloads = self
            .workloads()
            .into_iter()
            .map(|w| {
                let mut names: Vec<(String, String)> = Vec::new();
                for r in self.runs.iter().filter(|r| r.workload == w && !r.quick) {
                    for (n, _, u) in &r.metrics {
                        if !names.iter().any(|(m, _)| m == n) {
                            names.push((n.clone(), u.clone()));
                        }
                    }
                }
                let metrics = names
                    .into_iter()
                    .map(|(n, u)| {
                        let xs = self.values(&w, &n);
                        let stat = Value::Object(vec![
                            ("median".into(), Value::Float(quantile(&xs, 0.5))),
                            ("p10".into(), Value::Float(quantile(&xs, 0.1))),
                            ("p90".into(), Value::Float(quantile(&xs, 0.9))),
                            ("n".into(), Value::Int(xs.len() as i128)),
                            ("unit".into(), Value::Str(u)),
                        ]);
                        (n, stat)
                    })
                    .collect();
                (w, Value::Object(metrics))
            })
            .collect();
        Value::Object(workloads)
    }

    fn to_json(&self) -> Value {
        let p = &self.provenance;
        Value::Object(vec![
            ("host".into(), p.host.clone()),
            ("git_rev".into(), Value::Str(p.git_rev.clone())),
            ("rustc".into(), Value::Str(p.rustc.clone())),
            ("profile".into(), Value::Str(p.profile.clone())),
            ("summary".into(), self.summary()),
            (
                "runs".into(),
                Value::Array(self.runs.iter().map(Run::to_json).collect()),
            ),
        ])
    }
}

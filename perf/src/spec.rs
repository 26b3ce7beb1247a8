//! `BENCHMARK.json`: the benchmark's workloads, metrics and regression
//! bounds, checked against the limits the file must stay within.

use serde_json::Value;

/// An end-to-end metric with its regression gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Gated {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// True iff a larger value is better.
    pub higher_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The parsed and checked benchmark definition.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// Gated end-to-end metrics.
    pub end_to_end: Vec<Gated>,
    /// Per-layer (name, unit), ungated; the consistency test reads it.
    #[allow(dead_code)]
    pub per_layer: Vec<(String, String)>,
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn is_rel_path(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 200
        && !s.starts_with('/')
        && !s.split('/').any(|part| part == "..")
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/'))
}

fn keys_exactly(v: &Value, what: &str, want: &[&str]) -> Result<(), String> {
    let obj = v
        .as_object()
        .ok_or_else(|| format!("{what} must be an object"))?;
    let mut got: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
    got.sort_unstable();
    let mut want = want.to_vec();
    want.sort_unstable();
    if got != want {
        return Err(format!(
            "{what} must have exactly the keys {want:?}, has {got:?}"
        ));
    }
    Ok(())
}

fn array<'a>(v: &'a Value, key: &str, min: usize, max: usize) -> Result<&'a [Value], String> {
    let a = v
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{key} must be an array"))?;
    if a.len() < min || a.len() > max {
        return Err(format!(
            "{key} must hold {min} to {max} entries, holds {}",
            a.len()
        ));
    }
    Ok(a)
}

fn string<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{key} must be a string"))
}

/// Parse `BENCHMARK.json` text and check every limit on it.
pub fn parse(text: &str) -> Result<Spec, String> {
    if text.len() > 64 * 1024 {
        return Err("BENCHMARK.json exceeds 64 KiB".into());
    }
    let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    keys_exactly(
        &v,
        "BENCHMARK.json",
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
    )?;
    let command = array(&v, "command", 1, 32)?;
    for c in command {
        let s = c.as_str().ok_or("command entries must be strings")?;
        if s.len() > 200 || s.starts_with('/') || s.split('/').any(|p| p == "..") {
            return Err(format!(
                "command entry {s:?} is too long or leaves the repository"
            ));
        }
    }
    for p in array(&v, "paths", 1, 16)? {
        let s = p.as_str().ok_or("paths entries must be strings")?;
        if !is_rel_path(s) {
            return Err(format!("path {s:?} is not a short relative path"));
        }
    }
    v.get("run_seconds")
        .and_then(Value::as_i128)
        .filter(|s| (1..=60).contains(s))
        .ok_or("run_seconds must be a whole number from 1 to 60")?;

    let mut names: Vec<String> = Vec::new();
    let mut name = |s: &str| -> Result<String, String> {
        if !is_name(s) {
            return Err(format!("{s:?} is not a valid name"));
        }
        if names.iter().any(|n| n == s) {
            return Err(format!("{s:?} is used twice"));
        }
        names.push(s.to_string());
        Ok(s.to_string())
    };

    let mut workloads = Vec::new();
    for w in array(&v, "workloads", 2, 8)? {
        keys_exactly(w, "a workload", &["name", "why"])?;
        let why = string(w, "why")?;
        if why.len() > 200 || why.contains('\n') {
            return Err(format!(
                "why {why:?} must be one line of at most 200 characters"
            ));
        }
        workloads.push(name(string(w, "name")?)?);
    }

    let mut end_to_end = Vec::new();
    for m in array(&v, "end_to_end", 1, 16)? {
        keys_exactly(
            m,
            "an end_to_end metric",
            &["name", "unit", "better", "bound"],
        )?;
        let unit = string(m, "unit")?;
        if !is_unit(unit) {
            return Err(format!("unit {unit:?} is not valid"));
        }
        let higher_better = match string(m, "better")? {
            "higher" => true,
            "lower" => false,
            other => return Err(format!("better must be higher or lower, is {other:?}")),
        };
        let bound = m
            .get("bound")
            .and_then(Value::as_f64)
            .filter(|b| *b > 0.0 && *b <= 0.25)
            .ok_or("bound must be a number in (0, 0.25]")?;
        end_to_end.push(Gated {
            name: name(string(m, "name")?)?,
            unit: unit.to_string(),
            higher_better,
            bound,
        });
    }
    let setup_ok = end_to_end
        .iter()
        .any(|g| g.name == "setup_s" && g.unit == "s" && !g.higher_better);
    if !setup_ok {
        return Err("end_to_end must include setup_s in s, lower is better".into());
    }

    let mut per_layer = Vec::new();
    for m in array(&v, "per_layer", 1, 128)? {
        keys_exactly(m, "a per_layer metric", &["name", "unit", "better"])?;
        let unit = string(m, "unit")?;
        if !is_unit(unit) {
            return Err(format!("unit {unit:?} is not valid"));
        }
        if !matches!(string(m, "better")?, "higher" | "lower") {
            return Err("better must be higher or lower".into());
        }
        per_layer.push((name(string(m, "name")?)?, unit.to_string()));
    }
    Ok(Spec {
        workloads,
        end_to_end,
        per_layer,
    })
}

/// Read and check the file at `path`.
pub fn load(path: &str) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::Workload;

    fn repo_spec() -> Spec {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        load(path).expect("BENCHMARK.json parses within its limits")
    }

    #[test]
    fn benchmark_json_matches_the_harness() {
        let spec = repo_spec();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names);
        let e2e: Vec<(String, String)> = spec
            .end_to_end
            .iter()
            .map(|g| (g.name.clone(), g.unit.clone()))
            .collect();
        let want = |defs: &[crate::metrics::Def]| -> Vec<(String, String)> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        assert_eq!(e2e, want(END_TO_END));
        assert_eq!(spec.per_layer, want(PER_LAYER));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!(spec.end_to_end.len() <= 16 && spec.per_layer.len() <= 128);
    }

    #[test]
    fn limits_are_enforced() {
        assert!(is_name("sweep.e1-ipc.cold_s") && !is_name("-x") && !is_name("a b"));
        assert!(is_unit("ns/cycle") && !is_unit("a unit"));
        assert!(is_rel_path("perf") && !is_rel_path("/abs") && !is_rel_path("../up"));
        let base = r#"{"command":["x"],"paths":["p"],"run_seconds":10,
            "workloads":[{"name":"a","why":"w"},{"name":"b","why":"w"}],
            "end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25}],
            "per_layer":[{"name":"l","unit":"ns","better":"lower"}]}"#;
        assert!(parse(base).is_ok());
        assert!(parse(&base.replace("0.25", "0.3")).is_err(), "bound cap");
        assert!(
            parse(&base.replace(r#""name":"b""#, r#""name":"a""#)).is_err(),
            "dup"
        );
        assert!(parse(&base.replace("\"run_seconds\":10", "\"run_seconds\":61")).is_err());
        assert!(
            parse(&base.replace("setup_s", "setup")).is_err(),
            "setup_s required"
        );
    }
}

//! Prometheus-style text exposition for [`MetricsSnapshot`]s.
//!
//! [`PromWriter`] renders counters, gauges and histograms into the
//! Prometheus text format with stable names and escaped labels;
//! [`PromDump`] parses that text back into samples so tests (and the
//! CLI) can verify that what a scraper sees equals the snapshot the
//! server holds. Histograms render their *embedded* bucket bounds
//! ([`HistogramSnapshot::bound`]) as cumulative `le` buckets plus
//! `_sum`/`_count`, and a `<family>_max` gauge so the round trip is
//! lossless — no consumer has to assume the log2 layout.
//!
//! Rendering happens off the engine hot path (only when a snapshot is
//! exported), so this module is allowed to allocate freely.

use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Escape a label value for the exposition format: backslash, double
/// quote and newline get backslash escapes.
pub(crate) fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn write_labels(out: &mut String, labels: &[(&str, &str)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
}

fn write_labels_with_le(out: &mut String, labels: &[(&str, &str)], le: &str) {
    out.push('{');
    for (k, v) in labels {
        let _ = write!(out, "{k}=\"{}\",", escape_label(v));
    }
    let _ = write!(out, "le=\"{le}\"");
    out.push('}');
}

/// Incremental renderer for the Prometheus text format. Emits one
/// `# TYPE` line per family (deduplicated across calls, so the same
/// family can be rendered once per tenant label set) followed by the
/// samples.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
    typed: BTreeSet<String>,
}

impl PromWriter {
    /// An empty writer.
    pub fn new() -> PromWriter {
        PromWriter::default()
    }

    fn type_line(&mut self, family: &str, kind: &str) {
        if self.typed.insert(family.to_string()) {
            let _ = writeln!(self.out, "# TYPE {family} {kind}");
        }
    }

    /// Render a counter sample as `<family>_total{labels} value`.
    pub fn counter(&mut self, family: &str, labels: &[(&str, &str)], value: u64) {
        self.type_line(family, "counter");
        let mut line = format!("{family}_total");
        write_labels(&mut line, labels);
        let _ = writeln!(self.out, "{line} {value}");
    }

    /// Render a gauge sample as `<family>{labels} value`.
    pub fn gauge(&mut self, family: &str, labels: &[(&str, &str)], value: u64) {
        self.type_line(family, "gauge");
        let mut line = family.to_string();
        write_labels(&mut line, labels);
        let _ = writeln!(self.out, "{line} {value}");
    }

    /// Render a histogram: cumulative `_bucket` samples with `le` taken
    /// from the snapshot's embedded bounds (`+Inf` for the unbounded
    /// last bucket), then `_sum`, `_count`, and a `<family>_max` gauge.
    pub fn histogram(&mut self, family: &str, labels: &[(&str, &str)], h: &HistogramSnapshot) {
        self.type_line(family, "histogram");
        let mut cum = 0u64;
        for (i, &b) in h.buckets.iter().enumerate() {
            cum += b;
            let le = match h.bound(i) {
                Some(hi) => hi.to_string(),
                None => "+Inf".to_string(),
            };
            let mut line = format!("{family}_bucket");
            write_labels_with_le(&mut line, labels, &le);
            let _ = writeln!(self.out, "{line} {cum}");
        }
        let mut sum_line = format!("{family}_sum");
        write_labels(&mut sum_line, labels);
        let _ = writeln!(self.out, "{sum_line} {}", h.sum);
        let mut count_line = format!("{family}_count");
        write_labels(&mut count_line, labels);
        let _ = writeln!(self.out, "{count_line} {}", h.count);
        self.gauge(&format!("{family}_max"), labels, h.max);
    }

    /// Render a whole [`MetricsSnapshot`]: every counter and histogram,
    /// each family prefixed with `prefix` and labeled with `labels`.
    pub fn snapshot(&mut self, prefix: &str, labels: &[(&str, &str)], snap: &MetricsSnapshot) {
        for c in &snap.counters {
            self.counter(&format!("{prefix}{}", c.name), labels, c.value);
        }
        for h in &snap.histograms {
            self.histogram(&format!("{prefix}{}", h.name), labels, h);
        }
    }

    /// The rendered text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Full sample name (including any `_total`/`_bucket` suffix).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// Parsed value (`+Inf` becomes `f64::INFINITY`).
    pub value: f64,
}

impl PromSample {
    /// The `le` label, if present.
    pub fn le(&self) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == "le")
            .map(|(_, v)| v.as_str())
    }

    fn labels_match(&self, want: &[(&str, &str)], ignore_le: bool) -> bool {
        let mine: Vec<(&str, &str)> = self
            .labels
            .iter()
            .filter(|(k, _)| !(ignore_le && k == "le"))
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        if mine.len() != want.len() {
            return false;
        }
        want.iter().all(|w| mine.contains(w))
    }
}

fn unescape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// A parsed exposition dump.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PromDump {
    /// Every sample line, in source order.
    pub samples: Vec<PromSample>,
}

impl PromDump {
    /// Parse exposition text. `# `-prefixed lines and blank lines are
    /// skipped; anything else must be a well-formed sample.
    pub fn parse(text: &str) -> Result<PromDump, String> {
        let mut samples = Vec::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            samples.push(parse_sample(line).map_err(|e| format!("line {}: {e}", ln + 1))?);
        }
        Ok(PromDump { samples })
    }

    /// Find the sample with this exact name and label set.
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&PromSample> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels_match(labels, false))
    }

    /// Integer value of a sample (None if missing or not integral).
    pub fn value_u64(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let v = self.find(name, labels)?.value;
        if v.is_finite() && v >= 0.0 && v.fract() == 0.0 {
            Some(v as u64)
        } else {
            None
        }
    }

    /// Reconstruct a histogram family: gathers the `_bucket` samples
    /// whose labels (minus `le`) match, de-cumulates them in `le` order,
    /// and reads `_sum`, `_count` and `_max`. The returned snapshot's
    /// name is `family` and its bounds come from the `le` labels.
    pub fn histogram(&self, family: &str, labels: &[(&str, &str)]) -> Option<HistogramSnapshot> {
        let bucket_name = format!("{family}_bucket");
        let mut bounded: Vec<(u64, u64)> = Vec::new(); // (le, cumulative)
        let mut inf: Option<u64> = None;
        for s in &self.samples {
            if s.name != bucket_name || !s.labels_match(labels, true) {
                continue;
            }
            let le = s.le()?;
            let cum = s.value as u64;
            if le == "+Inf" {
                inf = Some(cum);
            } else {
                bounded.push((le.parse().ok()?, cum));
            }
        }
        let total = inf?;
        bounded.sort_by_key(|&(le, _)| le);
        let mut buckets = Vec::with_capacity(bounded.len() + 1);
        let mut prev = 0u64;
        for &(_, cum) in &bounded {
            buckets.push(cum.checked_sub(prev)?);
            prev = cum;
        }
        buckets.push(total.checked_sub(prev)?);
        Some(HistogramSnapshot {
            name: family.to_string(),
            count: self.value_u64(&format!("{family}_count"), labels)?,
            sum: self.value_u64(&format!("{family}_sum"), labels)?,
            max: self.value_u64(&format!("{family}_max"), labels)?,
            buckets,
            bounds: bounded.iter().map(|&(le, _)| le).collect(),
        })
    }
}

fn parse_sample(line: &str) -> Result<PromSample, String> {
    let (name, rest) = match line.find(['{', ' ']) {
        Some(i) => line.split_at(i),
        None => return Err("missing value".to_string()),
    };
    if name.is_empty() {
        return Err("empty sample name".to_string());
    }
    let mut labels = Vec::new();
    let value_str = if let Some(body) = rest.strip_prefix('{') {
        let close = find_label_close(body).ok_or("unterminated label set")?;
        parse_labels(&body[..close], &mut labels)?;
        body[close + 1..].trim()
    } else {
        rest.trim()
    };
    let value = match value_str {
        "+Inf" => f64::INFINITY,
        v => v.parse::<f64>().map_err(|_| format!("bad value {v:?}"))?,
    };
    Ok(PromSample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Index of the `}` closing the label set, skipping quoted strings.
fn find_label_close(body: &str) -> Option<usize> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            '}' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

fn parse_labels(body: &str, out: &mut Vec<(String, String)>) -> Result<(), String> {
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or("label missing '='")?;
        let key = rest[..eq].trim().to_string();
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or("label value not quoted")?;
        // Find the closing quote, skipping escapes.
        let mut end = None;
        let mut escaped = false;
        for (i, c) in rest.char_indices() {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => {
                    end = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let end = end.ok_or("unterminated label value")?;
        out.push((key, unescape_label(&rest[..end])));
        rest = rest[end + 1..].trim_start_matches(',').trim();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{CycleHistogram, Histo, MetricsRegistry};

    #[test]
    fn counter_and_gauge_render_and_parse() {
        let mut w = PromWriter::new();
        w.counter("rsp_submitted", &[], 42);
        w.counter("rsp_shed", &[("reason", "queue_full")], 3);
        w.gauge("rsp_active", &[("tenant", "t1")], 7);
        let text = w.finish();
        assert!(text.contains("# TYPE rsp_submitted counter"));
        assert!(text.contains("rsp_submitted_total 42"));
        let dump = PromDump::parse(&text).unwrap();
        assert_eq!(dump.value_u64("rsp_submitted_total", &[]), Some(42));
        assert_eq!(
            dump.value_u64("rsp_shed_total", &[("reason", "queue_full")]),
            Some(3)
        );
        assert_eq!(dump.value_u64("rsp_active", &[("tenant", "t1")]), Some(7));
        assert_eq!(dump.value_u64("rsp_active", &[]), None);
    }

    #[test]
    fn histogram_round_trips_with_bounds() {
        let mut hist = CycleHistogram::default();
        for v in [0, 1, 3, 9, 250, 70_000] {
            hist.record(v);
        }
        let snap = crate::metrics::HistogramSnapshot::from_histogram("lag", &hist);
        let mut w = PromWriter::new();
        w.histogram("rsp_lag", &[("tenant", "t0")], &snap);
        let text = w.finish();
        assert!(text.contains("le=\"+Inf\""));
        let dump = PromDump::parse(&text).unwrap();
        let back = dump.histogram("rsp_lag", &[("tenant", "t0")]).unwrap();
        assert_eq!(back.count, snap.count);
        assert_eq!(back.sum, snap.sum);
        assert_eq!(back.max, snap.max);
        assert_eq!(back.buckets, snap.buckets);
        assert_eq!(back.bounds, snap.bounds);
        assert_eq!(back.quantile(0.5), snap.quantile(0.5));
    }

    #[test]
    fn full_snapshot_round_trips() {
        let mut r = MetricsRegistry::new();
        r.record(Histo::LoadLatency, 17);
        r.record(Histo::QueueResidency, 2);
        for ev in crate::event::tests::one_of_each() {
            r.observe(&ev);
        }
        let snap = r.snapshot();
        let mut w = PromWriter::new();
        w.snapshot("rsp_", &[], &snap);
        let dump = PromDump::parse(&w.finish()).unwrap();
        for c in &snap.counters {
            assert_eq!(
                dump.value_u64(&format!("rsp_{}_total", c.name), &[]),
                Some(c.value),
                "{}",
                c.name
            );
        }
        for h in &snap.histograms {
            let back = dump.histogram(&format!("rsp_{}", h.name), &[]).unwrap();
            assert_eq!(back.buckets, h.buckets, "{}", h.name);
            assert_eq!(back.bounds, h.bounds, "{}", h.name);
        }
    }

    #[test]
    fn label_escaping_survives_the_round_trip() {
        let nasty = "a\"b\\c\nd";
        let mut w = PromWriter::new();
        w.gauge("g", &[("name", nasty)], 1);
        let dump = PromDump::parse(&w.finish()).unwrap();
        assert_eq!(dump.samples.len(), 1);
        assert_eq!(
            dump.samples[0].labels[0],
            ("name".to_string(), nasty.to_string())
        );
        assert_eq!(dump.value_u64("g", &[("name", nasty)]), Some(1));
    }

    #[test]
    fn type_lines_deduplicate_across_label_sets() {
        let mut w = PromWriter::new();
        w.counter("c", &[("tenant", "t0")], 1);
        w.counter("c", &[("tenant", "t1")], 2);
        let text = w.finish();
        assert_eq!(text.matches("# TYPE c counter").count(), 1);
        let dump = PromDump::parse(&text).unwrap();
        let total: f64 = dump.samples.iter().map(|s| s.value).sum();
        assert_eq!(total, 3.0);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(PromDump::parse("just_a_name").is_err());
        assert!(PromDump::parse("x{unclosed=\"v\" 3").is_err());
        assert!(PromDump::parse("x{k=unquoted} 3").is_err());
        assert!(PromDump::parse("x nope").is_err());
        // Comments and blanks are fine.
        assert!(PromDump::parse("# HELP x y\n\nx 1\n").is_ok());
    }
}

//! `perf compare`: judge a change's runs against its parent's, metric by
//! metric and workload by workload, under the `BENCHMARK.json` bounds.
//!
//! The rule: a change is *worse* if its median is worse than the
//! parent's by more than the bound, however noisy the runs. Otherwise it
//! is *unresolved* with fewer than [`MIN_PAIRS`] paired runs, or when the
//! parent's own spread is wider than the bound (unless every run of the
//! change beats every run of the parent). It is *better* only if it wins
//! at least 9 in 10 of the paired runs and the medians differ by more
//! than the parent's interquartile range, and *unchanged* otherwise.

use std::fmt::Write;

use crate::ledger::Ledger;
use crate::spec::{Gated, Spec};
use crate::stats::{median, quartiles, relative_iqr};

/// The judgement on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by the pairwise rule.
    Better,
    /// Median worse than the parent's by more than the bound.
    Worse,
    /// Within the bound and not a resolved improvement.
    Unchanged,
    /// Too few runs, or the parent's spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Paired runs a verdict other than *worse* needs.
pub const MIN_PAIRS: usize = 10;

/// Judge `new` against `base` (runs of one metric on one workload).
pub fn verdict(base: &[f64], new: &[f64], gate: &Gated) -> Verdict {
    if base.is_empty() || new.is_empty() {
        return Verdict::Unresolved;
    }
    let better = |x: f64, y: f64| beats(gate, x, y);
    let (mb, mn) = (median(base), median(new));
    let worse_by = if gate.higher_better { mb - mn } else { mn - mb } / mb.abs();
    if worse_by > gate.bound {
        return Verdict::Worse;
    }
    let pairs = base.len().min(new.len());
    if pairs < MIN_PAIRS {
        return Verdict::Unresolved;
    }
    let noisy = relative_iqr(base).is_none_or(|s| s > gate.bound);
    let all_better = new.iter().all(|&n| base.iter().all(|&b| better(n, b)));
    if noisy && !all_better {
        return Verdict::Unresolved;
    }
    let iqr = quartiles(base).map_or(0.0, |(q1, q3)| q3 - q1);
    if wins(base, new, gate) * 10 >= pairs * 9 && better(mn, mb) && (mn - mb).abs() > iqr {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// True iff `x` reads better than `y` on `gate`'s metric.
fn beats(gate: &Gated, x: f64, y: f64) -> bool {
    if gate.higher_better {
        x > y
    } else {
        x < y
    }
}

/// Pairs (runs matched in file order) in which `new` beats `base`.
fn wins(base: &[f64], new: &[f64], gate: &Gated) -> usize {
    base.iter()
        .zip(new)
        .filter(|(&b, &n)| beats(gate, n, b))
        .count()
}

/// Render the comparison table of `new` against `base`; the flag is
/// true iff some metric got worse or some run of `new` failed.
pub fn compare(spec: &Spec, base: &Ledger, new: &Ledger) -> (String, bool) {
    let mut s = String::new();
    let mut bad = false;
    let _ = writeln!(
        s,
        "{:<14} {:<16} {:>14} {:>14} {:>8} {:>7} {:>6} {:>5}  verdict",
        "workload", "metric", "base median", "new median", "change", "spread", "bound", "wins"
    );
    for w in &spec.workloads {
        let failed: u64 = new
            .runs
            .iter()
            .filter(|r| &r.workload == w)
            .map(|r| r.failed)
            .sum();
        if failed > 0 {
            bad = true;
            let _ = writeln!(
                s,
                "{w:<14} {failed} failed operation(s) or check(s) in the new runs"
            );
        }
        for gate in &spec.end_to_end {
            let (b, n) = (base.values(w, &gate.name), new.values(w, &gate.name));
            if b.is_empty() {
                continue;
            }
            let v = verdict(&b, &n, gate);
            bad |= v == Verdict::Worse;
            let (mb, mn) = (median(&b), median(&n));
            let _ = writeln!(
                s,
                "{:<14} {:<16} {:>14.6} {:>14.6} {:>+7.2}% {:>6.2}% {:>5.0}% {:>2}/{:<2}  {}",
                w,
                gate.name,
                mb,
                mn,
                (mn - mb) / mb.abs() * 100.0,
                relative_iqr(&b).unwrap_or(f64::NAN) * 100.0,
                gate.bound * 100.0,
                wins(&b, &n, gate),
                b.len().min(n.len()),
                v.label()
            );
        }
    }
    (s, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(higher_better: bool, bound: f64) -> Gated {
        Gated {
            name: "m".into(),
            unit: "s".into(),
            higher_better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_pairwise_rule() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        // Identical runs: unchanged.
        assert_eq!(verdict(&base, &base, &gate(true, 0.05)), Verdict::Unchanged);
        // 10% faster on every pair: better.
        let fast: Vec<f64> = base.iter().map(|x| x * 1.1).collect();
        assert_eq!(verdict(&base, &fast, &gate(true, 0.05)), Verdict::Better);
        // 10% slower with a 5% bound: worse.
        let slow: Vec<f64> = base.iter().map(|x| x * 0.9).collect();
        assert_eq!(verdict(&base, &slow, &gate(true, 0.05)), Verdict::Worse);
        // The same slowdown on a lower-is-better metric reads as better.
        assert_eq!(verdict(&base, &slow, &gate(false, 0.05)), Verdict::Better);
        // A parent spread wider than the bound leaves it unresolved...
        let noisy: Vec<f64> = (0..10).map(|i| 50.0 + 10.0 * i as f64).collect();
        let noisy_new: Vec<f64> = noisy.iter().map(|x| x * 1.01).collect();
        assert_eq!(
            verdict(&noisy, &noisy_new, &gate(true, 0.05)),
            Verdict::Unresolved
        );
        // ...but not a change whose median is worse by more than the bound,
        let halved: Vec<f64> = noisy.iter().map(|x| x * 0.5).collect();
        assert_eq!(verdict(&noisy, &halved, &gate(true, 0.05)), Verdict::Worse);
        // nor one whose every run beats every parent run.
        let shifted: Vec<f64> = noisy.iter().map(|x| x + 95.0).collect();
        assert_eq!(
            verdict(&noisy, &shifted, &gate(true, 0.05)),
            Verdict::Better
        );
        // Too few pairs: unresolved, even when every run is faster.
        assert_eq!(
            verdict(&base[..2], &fast[..2], &gate(true, 0.05)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&base[..1], &base, &gate(true, 0.05)),
            Verdict::Unresolved
        );
    }
}

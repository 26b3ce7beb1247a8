//! Order statistics, timers and host probes shared by every workload.

use std::time::{Duration, Instant};

use crate::probe::{Mix, Probe};

/// Set-ups timed per run; the reported `setup_s` is their median at
/// reference host speed.
pub const SETUPS: usize = 9;

/// Linearly interpolated quantile (`q` in `[0, 1]`) of `xs`; 0 for an
/// empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// First and third quartiles by the "exclusive" method, the default of
/// Python's `statistics.quantiles(values, n=4)`. `None` below two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median: the spread
/// the benchmark's bounds are judged against. `None` below two values.
pub fn relative_iqr(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let mid = median(xs);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// [`SETUPS`] set-up timings at reference host speed (see
/// [`crate::probe`]), spread evenly over a run: one before the measured
/// phase, the rest while it goes on, so a burst of host contention that
/// the probe tracks poorly moves few of them.
pub struct SetupClock {
    times: Vec<f64>,
    every: f64,
    started: Option<Instant>,
    probe: Probe,
}

impl SetupClock {
    /// A clock for a measured phase of `seconds`, probing with `mix`.
    pub fn new(seconds: f64, mix: Mix) -> SetupClock {
        SetupClock {
            times: Vec::with_capacity(SETUPS),
            every: seconds / (SETUPS - 1) as f64,
            started: None,
            probe: Probe::new(mix),
        }
    }

    /// Time one set-up and return its product.
    pub fn time<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let (product, secs) = self.probe.time(build);
        self.times.push(secs);
        product
    }

    /// Mark the start of the measured phase.
    pub fn start(&mut self) {
        self.started = Some(Instant::now());
    }

    /// Time the set-ups due by now, discarding their products (untimed).
    pub fn catch_up<T>(&mut self, mut build: impl FnMut() -> T) {
        let Some(started) = self.started else {
            return;
        };
        let elapsed = started.elapsed().as_secs_f64();
        let due = if self.every > 0.0 {
            1 + (elapsed / self.every) as usize
        } else {
            SETUPS
        };
        while self.times.len() < due.min(SETUPS) {
            drop(self.time(&mut build));
        }
    }

    /// Time any set-ups still missing; the median, in seconds.
    pub fn finish<T>(mut self, build: impl FnMut() -> T) -> f64 {
        self.every = 0.0;
        self.started.get_or_insert_with(Instant::now);
        self.catch_up(build);
        median(&self.times)
    }
}

/// Run `build` [`SETUPS`] times back to back, timing each; returns the
/// last product and the median time in seconds.
pub fn setup_median<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        // Drop the previous product first so every set-up starts from
        // the same heap state.
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUPS > 0"), median(&times))
}

/// Median cost of one back-to-back `Instant::now()` pair, subtracted from
/// every singly timed call so per-call numbers are not mostly clock.
pub fn clock_overhead_ns() -> f64 {
    let mut v: Vec<f64> = (0..20_000)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Nanoseconds in `d`, less the clock overhead, floored at zero.
pub fn net_ns(d: Duration, overhead_ns: f64) -> f64 {
    (d.as_nanos() as f64 - overhead_ns).max(0.0)
}

/// Time `f` over `rounds` repetitions, each a pass over `n` items, until
/// at least `min` of wall time has accumulated; returns nanoseconds per
/// item. `f` runs one whole pass per call.
pub fn per_item_ns(n: usize, min: Duration, mut f: impl FnMut()) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let mut items = 0u64;
    let mut spent = Duration::ZERO;
    while spent < min || items == 0 {
        let t = Instant::now();
        f();
        spent += t.elapsed();
        items += n as u64;
    }
    spent.as_nanos() as f64 / items as f64
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 9, 3, 7, 2, 8, 4, 6, 10, 11]) == [3, 6, 9]
        let odd = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0];
        assert_eq!(quartiles(&odd), Some((3.0, 9.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}

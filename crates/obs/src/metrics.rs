//! Named counters and fixed-bucket cycle histograms.
//!
//! The registry is a pair of fixed arrays indexed by enum — bumping a
//! counter or recording a histogram sample is a couple of array writes,
//! never an allocation or a hash lookup, so it is safe inside
//! `Machine::step`. [`MetricsSnapshot`] is the serialisable export
//! (named, `Vec`-based) that lands in `SimReport`.

use crate::event::Event;
use serde::{Deserialize, Serialize};

/// Every named counter the registry tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Selection-unit evaluations ([`Event::SteeringDecision`]).
    SteeringDecisions,
    /// Decisions whose choice differed from the previous cycle's.
    SelectionChanges,
    /// Partial reconfigurations started.
    LoadsStarted,
    /// Started loads that were retries of a failed span.
    LoadRetries,
    /// Reloads deferred because a retry backoff window was open.
    BackoffDeferrals,
    /// Spans skipped because they contain a stuck-at-dead slot.
    DeadSlotSkips,
    /// Units re-placed into an alternative span around a dead slot.
    LoadReplacements,
    /// Fault-aware capacity re-ranks (hysteresis transitions between
    /// the nominal and effective capacity views).
    CapacityReranks,
    /// Loads that completed and passed readback.
    LoadsPlaced,
    /// Loads that consumed their latency then failed readback.
    LoadsFailed,
    /// Configuration-memory upsets injected.
    UpsetsInjected,
    /// Corrupted spans detected (and cleared) by scrub.
    UpsetsDetected,
    /// Scrub passes performed.
    ScrubPasses,
    /// Stall episodes (cause changes, not stalled cycles).
    StallEpisodes,
    /// Total events emitted (all variants).
    EventsEmitted,
}

/// Number of counters.
pub const NUM_COUNTERS: usize = 15;

impl Counter {
    /// Every counter, in snapshot order.
    pub const ALL: [Counter; NUM_COUNTERS] = [
        Counter::SteeringDecisions,
        Counter::SelectionChanges,
        Counter::LoadsStarted,
        Counter::LoadRetries,
        Counter::BackoffDeferrals,
        Counter::DeadSlotSkips,
        Counter::LoadReplacements,
        Counter::CapacityReranks,
        Counter::LoadsPlaced,
        Counter::LoadsFailed,
        Counter::UpsetsInjected,
        Counter::UpsetsDetected,
        Counter::ScrubPasses,
        Counter::StallEpisodes,
        Counter::EventsEmitted,
    ];

    /// Stable snake_case name (JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            Counter::SteeringDecisions => "steering_decisions",
            Counter::SelectionChanges => "selection_changes",
            Counter::LoadsStarted => "loads_started",
            Counter::LoadRetries => "load_retries",
            Counter::BackoffDeferrals => "backoff_deferrals",
            Counter::DeadSlotSkips => "dead_slot_skips",
            Counter::LoadReplacements => "load_replacements",
            Counter::CapacityReranks => "capacity_reranks",
            Counter::LoadsPlaced => "loads_placed",
            Counter::LoadsFailed => "loads_failed",
            Counter::UpsetsInjected => "upsets_injected",
            Counter::UpsetsDetected => "upsets_detected",
            Counter::ScrubPasses => "scrub_passes",
            Counter::StallEpisodes => "stall_episodes",
            Counter::EventsEmitted => "events_emitted",
        }
    }
}

/// Every cycle histogram the registry tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Histo {
    /// Cycles from `LoadStarted` to `LoadPlaced`/`LoadFailed` on the
    /// same head (includes port-wait and streaming time).
    LoadLatency,
    /// Cycles from a steering decision *changing* to the first grant on
    /// a reconfigurable unit (how long a new configuration takes to pay
    /// off).
    DecisionToGrant,
    /// Cycles an instruction sat in the wake-up array between dispatch
    /// and issue.
    QueueResidency,
}

/// Number of histograms.
pub const NUM_HISTOS: usize = 3;

impl Histo {
    /// Every histogram, in snapshot order.
    pub const ALL: [Histo; NUM_HISTOS] = [
        Histo::LoadLatency,
        Histo::DecisionToGrant,
        Histo::QueueResidency,
    ];

    /// Stable snake_case name (JSON reports).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Histo::LoadLatency => "load_latency",
            Histo::DecisionToGrant => "decision_to_grant",
            Histo::QueueResidency => "queue_residency",
        }
    }
}

/// Fixed log2 buckets per histogram: bucket 0 holds the value 0, bucket
/// `i >= 1` holds `[2^(i-1), 2^i)`, and the last bucket absorbs
/// everything larger.
pub const HIST_BUCKETS: usize = 16;

/// A fixed-bucket power-of-two cycle histogram (allocation-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleHistogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl CycleHistogram {
    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let idx = if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample (0 if empty).
    pub(crate) fn max(&self) -> u64 {
        self.max
    }

    /// Raw bucket counts.
    pub(crate) fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Inclusive lower bound of bucket `i`, and its inclusive upper
    /// bound (`None` for the unbounded last bucket).
    pub(crate) fn bucket_bounds(i: usize) -> (u64, Option<u64>) {
        assert!(i < HIST_BUCKETS);
        if i == 0 {
            (0, Some(0))
        } else if i == HIST_BUCKETS - 1 {
            (1 << (i - 1), None)
        } else {
            (1 << (i - 1), Some((1 << i) - 1))
        }
    }

    /// Inclusive upper bounds of every bounded bucket, in order. The
    /// last (unbounded) bucket has no entry; snapshots embed this so
    /// consumers never have to assume the log2 layout.
    pub(crate) fn upper_bounds() -> Vec<u64> {
        (0..HIST_BUCKETS - 1)
            .map(|i| CycleHistogram::bucket_bounds(i).1.expect("bounded bucket"))
            .collect()
    }
}

/// The in-loop metrics registry: enum-indexed counters + histograms.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsRegistry {
    counters: [u64; NUM_COUNTERS],
    histograms: [CycleHistogram; NUM_HISTOS],
}

impl MetricsRegistry {
    /// A fresh, all-zero registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Increment a counter by one.
    #[inline]
    pub fn bump(&mut self, c: Counter) {
        self.counters[c as usize] += 1;
    }

    /// Read a counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Record a histogram sample.
    #[inline]
    pub fn record(&mut self, h: Histo, v: u64) {
        self.histograms[h as usize].record(v);
    }

    /// Read a histogram.
    pub(crate) fn histogram(&self, h: Histo) -> &CycleHistogram {
        &self.histograms[h as usize]
    }

    /// Apply the counter bookkeeping for one event. This is the *only*
    /// place events map to counters, so replaying an event log through a
    /// fresh registry reproduces the end-of-run counters exactly (a
    /// proptest pins this).
    #[inline]
    pub fn observe(&mut self, ev: &Event) {
        self.bump(Counter::EventsEmitted);
        match ev {
            Event::SteeringDecision { changed, .. } => {
                self.bump(Counter::SteeringDecisions);
                if *changed {
                    self.bump(Counter::SelectionChanges);
                }
            }
            Event::LoadStarted { .. } => self.bump(Counter::LoadsStarted),
            Event::LoadRetry { .. } => self.bump(Counter::LoadRetries),
            Event::LoadBackoffDeferred { .. } => self.bump(Counter::BackoffDeferrals),
            Event::DeadSlotSkip { .. } => self.bump(Counter::DeadSlotSkips),
            Event::LoadReplaced { .. } => self.bump(Counter::LoadReplacements),
            Event::CapacityRerank { .. } => self.bump(Counter::CapacityReranks),
            Event::LoadPlaced { .. } => self.bump(Counter::LoadsPlaced),
            Event::LoadFailed { .. } => self.bump(Counter::LoadsFailed),
            Event::UpsetInjected { .. } => self.bump(Counter::UpsetsInjected),
            Event::UpsetDetected { .. } => self.bump(Counter::UpsetsDetected),
            Event::ScrubPass { .. } => self.bump(Counter::ScrubPasses),
            Event::Stall { .. } => self.bump(Counter::StallEpisodes),
        }
    }

    /// Zero every counter and histogram.
    pub(crate) fn reset(&mut self) {
        *self = MetricsRegistry::default();
    }

    /// Export to the serialisable, named snapshot form.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: Counter::ALL
                .iter()
                .map(|&c| CounterValue {
                    name: c.name().to_string(),
                    value: self.get(c),
                })
                .collect(),
            histograms: Histo::ALL
                .iter()
                .map(|&h| {
                    let hist = self.histogram(h);
                    HistogramSnapshot::from_histogram(h.name(), hist)
                })
                .collect(),
        }
    }
}

/// One named counter value in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterValue {
    /// Counter name ([`Counter::name`]).
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// One named histogram in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Histogram name (`Histo::name`).
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Log2 bucket counts ([`CycleHistogram`] layout).
    pub buckets: Vec<u64>,
    /// Inclusive upper bound of each bounded bucket (`bounds[i]` caps
    /// `buckets[i]`; the final bucket is unbounded and has no entry).
    /// Embedded so consumers never hard-code the bucket layout. Empty in
    /// snapshots written before bounds existed — `HistogramSnapshot::bound`
    /// falls back to the log2 layout for those.
    #[serde(default)]
    pub bounds: Vec<u64>,
}

impl HistogramSnapshot {
    /// Snapshot a live histogram under `name`, embedding the bounds.
    pub fn from_histogram(name: &str, h: &CycleHistogram) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            count: h.count(),
            sum: h.sum(),
            max: h.max(),
            buckets: h.buckets().to_vec(),
            bounds: CycleHistogram::upper_bounds(),
        }
    }

    /// Mean sample (0.0 if empty).
    #[cfg(test)]
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Inclusive upper bound of bucket `i` (`None` for the unbounded
    /// last bucket). Uses the embedded bounds when present; legacy
    /// snapshots with the standard bucket count fall back to the log2
    /// layout.
    pub(crate) fn bound(&self, i: usize) -> Option<u64> {
        if i + 1 >= self.buckets.len() {
            return None; // last bucket (or out of range) is unbounded
        }
        if !self.bounds.is_empty() {
            return self.bounds.get(i).copied();
        }
        if self.buckets.len() == HIST_BUCKETS {
            return CycleHistogram::bucket_bounds(i).1;
        }
        None
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket where the cumulative count crosses `q * count`, capped at
    /// the observed max (0 if empty). Exact to within one bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                return self.bound(i).map(|hi| hi.min(self.max)).unwrap_or(self.max);
            }
        }
        self.max
    }
}

/// Serialisable export of a [`MetricsRegistry`]. An all-default snapshot
/// (empty vecs) is what a disabled-telemetry run reports.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Named counters, in [`Counter::ALL`] order.
    pub counters: Vec<CounterValue>,
    /// Named histograms, in [`Histo::ALL`] order.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Look a counter up by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Look a histogram up by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_values_by_log2() {
        let mut h = CycleHistogram::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 1: [1,1]
        h.record(2); // bucket 2: [2,3]
        h.record(3); // bucket 2
        h.record(4); // bucket 3: [4,7]
        h.record(1 << 20); // overflow bucket
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 10 + (1 << 20));
        assert_eq!(h.max(), 1 << 20);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 2);
        assert_eq!(h.buckets()[3], 1);
        assert_eq!(h.buckets()[HIST_BUCKETS - 1], 1);
        assert_eq!(h.buckets().iter().sum::<u64>(), h.count());
    }

    #[test]
    fn bucket_bounds_partition_the_domain() {
        assert_eq!(CycleHistogram::bucket_bounds(0), (0, Some(0)));
        assert_eq!(CycleHistogram::bucket_bounds(1), (1, Some(1)));
        assert_eq!(CycleHistogram::bucket_bounds(2), (2, Some(3)));
        assert_eq!(CycleHistogram::bucket_bounds(3), (4, Some(7)));
        let (lo, hi) = CycleHistogram::bucket_bounds(HIST_BUCKETS - 1);
        assert_eq!(lo, 1 << (HIST_BUCKETS - 2));
        assert_eq!(hi, None);
        // Consecutive buckets tile with no gap.
        for i in 1..HIST_BUCKETS - 1 {
            let (_, hi) = CycleHistogram::bucket_bounds(i);
            let (lo_next, _) = CycleHistogram::bucket_bounds(i + 1);
            assert_eq!(hi.unwrap() + 1, lo_next);
        }
    }

    #[test]
    fn counter_names_are_unique_and_snapshot_ordered() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        let snap = MetricsRegistry::new().snapshot();
        assert_eq!(
            snap.counters
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            names
        );
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_COUNTERS);
        assert_eq!(snap.histograms.len(), NUM_HISTOS);
    }

    #[test]
    fn observe_maps_every_variant_to_a_counter() {
        let mut r = MetricsRegistry::new();
        for ev in crate::event::tests::one_of_each() {
            r.observe(&ev);
        }
        // One of each variant, plus the changed-decision bonus counter.
        assert_eq!(r.get(Counter::EventsEmitted), 13);
        assert_eq!(r.get(Counter::SteeringDecisions), 1);
        assert_eq!(r.get(Counter::SelectionChanges), 1);
        for c in [
            Counter::LoadsStarted,
            Counter::LoadRetries,
            Counter::BackoffDeferrals,
            Counter::DeadSlotSkips,
            Counter::LoadReplacements,
            Counter::CapacityReranks,
            Counter::LoadsPlaced,
            Counter::LoadsFailed,
            Counter::UpsetsInjected,
            Counter::UpsetsDetected,
            Counter::ScrubPasses,
            Counter::StallEpisodes,
        ] {
            assert_eq!(r.get(c), 1, "{}", c.name());
        }
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut r = MetricsRegistry::new();
        r.bump(Counter::LoadsStarted);
        r.record(Histo::LoadLatency, 9);
        r.record(Histo::QueueResidency, 0);
        let snap = r.snapshot();
        let s = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&s).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.counter("loads_started"), Some(1));
        assert_eq!(back.histogram("load_latency").unwrap().count, 1);
        assert_eq!(back.histogram("load_latency").unwrap().mean(), 9.0);
    }

    #[test]
    fn snapshot_embeds_bucket_bounds() {
        let mut r = MetricsRegistry::new();
        r.record(Histo::LoadLatency, 5);
        let snap = r.snapshot();
        let h = snap.histogram("load_latency").unwrap();
        assert_eq!(h.bounds.len(), HIST_BUCKETS - 1);
        for (i, &b) in h.bounds.iter().enumerate() {
            assert_eq!(Some(b), CycleHistogram::bucket_bounds(i).1);
            assert_eq!(h.bound(i), Some(b));
        }
        assert_eq!(h.bound(HIST_BUCKETS - 1), None);
    }

    #[test]
    fn quantile_walks_embedded_bounds() {
        let mut hist = CycleHistogram::default();
        for v in [0, 1, 2, 3, 4, 5, 6, 7, 100, 100] {
            hist.record(v);
        }
        let h = HistogramSnapshot::from_histogram("q", &hist);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 7); // 5th sample lands in bucket [4,7]
        assert_eq!(h.quantile(1.0), 100); // capped at the observed max
                                          // Legacy snapshots (no embedded bounds) fall back to the log2
                                          // layout when the bucket count matches.
        let legacy = HistogramSnapshot {
            bounds: Vec::new(),
            ..h.clone()
        };
        assert_eq!(legacy.quantile(0.5), 7);
        // Empty histogram.
        assert_eq!(
            HistogramSnapshot::from_histogram("e", &CycleHistogram::default()).quantile(0.99),
            0
        );
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut r = MetricsRegistry::new();
        r.bump(Counter::ScrubPasses);
        r.record(Histo::DecisionToGrant, 3);
        r.reset();
        assert_eq!(r, MetricsRegistry::new());
    }
}

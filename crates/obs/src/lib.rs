//! `rsp-obs` — zero-cost-when-disabled observability for the steering
//! stack (DESIGN.md §10).
//!
//! The crate has three layers:
//!
//! * [`Event`] — the typed vocabulary of everything observable: steering
//!   decisions with per-candidate CEM scores, load lifecycle
//!   (start/place/fail/retry/backoff/dead-skip), fault lifecycle
//!   (upset injected/detected, scrub pass) and pipeline stall causes.
//! * [`MetricsRegistry`] — named counters plus fixed-bucket cycle
//!   histograms (load latency, decision-to-grant, queue residency),
//!   updated inline from the event stream.
//! * The event sink — where stamped events go. A [`Telemetry`] handle
//!   is in one of two sink states: none (events are discarded after
//!   updating the metrics), or a [`RingSink`] that keeps the last N in a
//!   pre-allocated ring and exports JSON Lines for the `rsp-timeline`
//!   analyzer.
//!
//! A fourth, host-side layer — [`SweepProgress`] — tallies experiment
//! sweep progress (points completed / failed) for the
//! `rsp-bench` sweep engine; it counts host work, not simulated events.
//!
//! Two fleet-facing layers serve the `rsp-serve` stack (DESIGN.md §15):
//! [`PromWriter`]/[`PromDump`] render and parse a Prometheus-style text
//! exposition of [`MetricsSnapshot`]s (bucket bounds embedded, labels
//! escaped), and [`FlightRecorder`] keeps a bounded ring of
//! [`FleetEntry`]s with shed-storm detection for post-mortem dumps.
//!
//! [`Telemetry`] bundles the first three behind a single handle the
//! simulator owns. **Overhead policy:** a disabled handle reduces every emit to
//! one branch; an enabled handle never allocates after construction
//! (events are `Copy`, the registry is fixed arrays, the ring is
//! pre-allocated) — the zero-alloc test pins the disabled case and the
//! fault-free invariance suite pins bit-identical timing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod event;
mod expo;
mod hash;
mod metrics;
mod progress;
mod recorder;
mod ring;
mod sink;

pub use event::{Event, StallCause, Stamped, MAX_CANDIDATES};
pub use expo::{PromDump, PromSample, PromWriter};
pub use hash::stable_key_hash;
pub use metrics::{
    Counter, CounterValue, CycleHistogram, Histo, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot, HIST_BUCKETS, NUM_COUNTERS, NUM_HISTOS,
};
pub use progress::{ProgressSnapshot, SweepProgress};
pub use recorder::{
    parse_fleet_jsonl, FleetEntry, FleetEvent, FlightRecorder, ShedKind, TriggerKind,
    DEFAULT_FLIGHT_CAPACITY, DEFAULT_SHED_STORM_THRESHOLD, DEFAULT_SHED_STORM_WINDOW,
};
pub use sink::RingSink;

/// Heads beyond this index skip load-latency pairing (far above any
/// fabric this workspace configures).
const MAX_TRACKED_HEADS: usize = 64;

/// The per-machine telemetry handle: an enabled flag, the current cycle
/// stamp, a metrics registry and an event sink.
///
/// Disabled (the default) it is inert: [`Telemetry::emit`] is a single
/// branch, no event is constructed downstream, and
/// [`Telemetry::snapshot`] returns the all-default snapshot.
#[derive(Debug, Clone)]
pub struct Telemetry {
    enabled: bool,
    cycle: u64,
    metrics: MetricsRegistry,
    /// The event log, if any. A concrete type (rather than a boxed trait
    /// object) keeps `Telemetry` — and therefore `Machine` — `Clone +
    /// Send`: rsp-serve moves machines across its scoped step threads.
    sink: Option<RingSink>,
    /// Cycle each head's in-flight load started, +1 (0 = none), for the
    /// load-latency histogram.
    load_start: [u64; MAX_TRACKED_HEADS],
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::off()
    }
}

impl Telemetry {
    fn with_sink(enabled: bool, sink: Option<RingSink>) -> Telemetry {
        Telemetry {
            enabled,
            cycle: 0,
            metrics: MetricsRegistry::new(),
            sink,
            load_start: [0; MAX_TRACKED_HEADS],
        }
    }

    /// Disabled telemetry: every emit is a no-op (the default).
    pub fn off() -> Telemetry {
        Telemetry::with_sink(false, None)
    }

    /// Metrics-only telemetry: counters and histograms are maintained
    /// but individual events are discarded (no event log).
    pub fn counting() -> Telemetry {
        Telemetry::with_sink(true, None)
    }

    /// Full telemetry into a pre-allocated ring of `capacity` events.
    pub fn ring(capacity: usize) -> Telemetry {
        Telemetry::with_sink(true, Some(RingSink::new(capacity)))
    }

    /// True iff emits do anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Stamp subsequent events with `cycle`.
    #[inline]
    pub fn set_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    /// The current cycle stamp.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Record one event: update the metrics registry, pair load
    /// start/end for the latency histogram, and forward to the sink.
    #[inline]
    pub fn emit(&mut self, event: Event) {
        if !self.enabled {
            return;
        }
        match event {
            Event::LoadStarted { head, .. } if (head as usize) < MAX_TRACKED_HEADS => {
                self.load_start[head as usize] = self.cycle + 1;
            }
            Event::LoadPlaced { head, .. } | Event::LoadFailed { head, .. }
                if (head as usize) < MAX_TRACKED_HEADS =>
            {
                let started = self.load_start[head as usize];
                if started != 0 {
                    self.metrics
                        .record(Histo::LoadLatency, self.cycle.saturating_sub(started - 1));
                    self.load_start[head as usize] = 0;
                }
            }
            _ => {}
        }
        self.metrics.observe(&event);
        let stamped = Stamped {
            cycle: self.cycle,
            event,
        };
        if let Some(r) = &mut self.sink {
            r.record(stamped);
        }
    }

    /// Record a histogram sample directly (decision-to-grant and queue
    /// residency come from the simulator, not from events).
    #[inline]
    pub fn record_cycles(&mut self, h: Histo, v: u64) {
        if self.enabled {
            self.metrics.record(h, v);
        }
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Serialisable snapshot of the registry (all-default when disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        if self.enabled {
            self.metrics.snapshot()
        } else {
            MetricsSnapshot::default()
        }
    }

    /// The ring sink, if this handle logs events.
    pub fn ring_sink(&self) -> Option<&RingSink> {
        self.sink.as_ref()
    }

    /// JSONL export of the event log, if this handle logs events.
    pub fn to_jsonl(&self) -> Option<String> {
        self.ring_sink().map(RingSink::to_jsonl)
    }

    /// The event log in chronological order, if this handle logs
    /// events, handed over without a copy ([`RingSink::into_events`]).
    pub fn into_events(self) -> Option<Vec<Stamped>> {
        self.sink.map(RingSink::into_events)
    }

    /// Clear counters, histograms, the event log and the cycle stamp,
    /// keeping the enabled flag and ring capacity (for `Machine::reset`).
    pub fn reset(&mut self) {
        self.cycle = 0;
        self.metrics.reset();
        self.load_start = [0; MAX_TRACKED_HEADS];
        if let Some(r) = &mut self.sink {
            r.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_isa::units::UnitType;

    fn started(head: u32) -> Event {
        Event::LoadStarted {
            head,
            unit: UnitType::IntAlu,
        }
    }

    fn placed(head: u32) -> Event {
        Event::LoadPlaced {
            head,
            unit: UnitType::IntAlu,
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let mut t = Telemetry::off();
        assert!(!t.enabled());
        t.set_cycle(5);
        t.emit(started(0));
        t.record_cycles(Histo::QueueResidency, 3);
        assert_eq!(t.metrics().get(Counter::EventsEmitted), 0);
        assert_eq!(t.snapshot(), MetricsSnapshot::default());
        assert!(t.ring_sink().is_none() && t.to_jsonl().is_none());
    }

    #[test]
    fn counting_handle_keeps_metrics_but_no_log() {
        let mut t = Telemetry::counting();
        t.emit(started(1));
        assert_eq!(t.metrics().get(Counter::LoadsStarted), 1);
        assert!(t.ring_sink().is_none());
        assert_eq!(t.snapshot().counter("loads_started"), Some(1));
    }

    #[test]
    fn ring_handle_logs_stamped_events() {
        let mut t = Telemetry::ring(16);
        t.set_cycle(3);
        t.emit(started(2));
        t.set_cycle(9);
        t.emit(placed(2));
        let log = t.ring_sink().unwrap().events();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].cycle, 3);
        assert_eq!(log[1].cycle, 9);
        assert_eq!(t.to_jsonl().unwrap().lines().count(), 2);
        assert_eq!(t.into_events(), Some(log));
        assert_eq!(Telemetry::counting().into_events(), None);
    }

    #[test]
    fn load_latency_pairs_start_with_end_per_head() {
        let mut t = Telemetry::counting();
        t.set_cycle(0);
        t.emit(started(0)); // started at cycle 0 (the +1 sentinel case)
        t.set_cycle(4);
        t.emit(started(1));
        t.set_cycle(10);
        t.emit(placed(0)); // latency 10
        t.set_cycle(12);
        t.emit(Event::LoadFailed {
            head: 1,
            unit: UnitType::IntAlu,
        }); // latency 8
        let h = t.metrics().histogram(Histo::LoadLatency);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 18);
        assert_eq!(h.max(), 10);
        // An unpaired completion records nothing.
        t.set_cycle(20);
        t.emit(placed(5));
        assert_eq!(t.metrics().histogram(Histo::LoadLatency).count(), 2);
    }

    #[test]
    fn reset_preserves_mode_and_capacity() {
        let mut t = Telemetry::ring(4);
        t.set_cycle(7);
        t.emit(started(0));
        t.reset();
        assert!(t.enabled());
        assert_eq!(t.cycle(), 0);
        assert_eq!(t.metrics().get(Counter::EventsEmitted), 0);
        let ring = t.ring_sink().unwrap();
        assert!(ring.is_empty());
        assert_eq!(ring.capacity(), 4);
    }
}

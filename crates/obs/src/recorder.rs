//! The flight recorder: a bounded ring of recent fleet-level events
//! with built-in anomaly detection (DESIGN.md §15).
//!
//! Where [`RingSink`](crate::RingSink) logs *machine*-level events
//! (steering decisions, loads, stalls), [`FlightRecorder`] logs
//! *fleet*-level events — admissions, sheds, activations, quanta,
//! completions — stamped with the engine tick and tenant id. The serve
//! engine records into it on every state change; when an anomaly trips
//! (a shed storm over threshold, a replay-identity mismatch, an engine
//! panic caught by a drop guard) the ring is dumped to JSONL so
//! `rsp-timeline --flight` can reconstruct the final moments.
//!
//! Overhead policy matches the rest of the crate: a disabled recorder
//! reduces [`FlightRecorder::record`] to one branch; an enabled one
//! never allocates after construction (entries are `Copy`, the ring is
//! pre-allocated, storm detection is two counters).

use crate::ring::Ring;
use serde::{Deserialize, Serialize};

/// Why a submission was shed, without the free-form detail of
/// `ShedReason` — a closed `Copy` set so [`FleetEvent`] stays
/// allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedKind {
    /// The admission queue was at its depth watermark.
    QueueFull,
    /// The fleet's step lag was over its watermark.
    StepLag,
    /// The request's spec failed validation.
    BadSpec,
}

impl ShedKind {
    /// Stable snake_case name (metric labels, dump file names).
    pub fn name(self) -> &'static str {
        match self {
            ShedKind::QueueFull => "queue_full",
            ShedKind::StepLag => "step_lag",
            ShedKind::BadSpec => "bad_spec",
        }
    }

    /// Every kind, in label order.
    pub const ALL: [ShedKind; 3] = [ShedKind::QueueFull, ShedKind::StepLag, ShedKind::BadSpec];
}

/// What tripped a flight-recorder dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TriggerKind {
    /// Sheds inside the detection window crossed the storm threshold.
    ShedStorm,
    /// A served tenant's telemetry diverged from its offline replay.
    ReplayMismatch,
    /// The engine thread panicked (caught by the drop guard).
    EnginePanic,
}

impl TriggerKind {
    /// Stable snake_case name (dump file names).
    pub fn name(self) -> &'static str {
        match self {
            TriggerKind::ShedStorm => "shed_storm",
            TriggerKind::ReplayMismatch => "replay_mismatch",
            TriggerKind::EnginePanic => "engine_panic",
        }
    }
}

/// One fleet-level event. All variants are `Copy` so recording never
/// allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FleetEvent {
    /// A submission passed admission and got a tenant id.
    Admitted,
    /// A submission was rejected.
    Shed {
        /// Why it was rejected.
        reason: ShedKind,
    },
    /// A queued tenant started running.
    Activated {
        /// Ticks it spent queued before activation.
        queued_ticks: u64,
    },
    /// A queued tenant failed to build its machine or lane batch.
    ActivationFailed,
    /// A tenant ran one scheduling quantum.
    Quantum {
        /// Cycles stepped in the quantum.
        cycles: u64,
    },
    /// A tenant finished.
    Completed {
        /// Total cycles it ran.
        cycles: u64,
        /// True if it halted on its own before its cycle budget.
        halted: bool,
    },
    /// An anomaly trigger fired (always the last entry of a dump).
    Trigger {
        /// What tripped.
        kind: TriggerKind,
    },
}

/// A [`FleetEvent`] stamped with the engine tick and the tenant it
/// concerns (`None` for fleet-wide entries such as sheds, which happen
/// before an id is assigned).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetEntry {
    /// Engine tick at which the event happened.
    pub tick: u64,
    /// Tenant id, if the event concerns a specific tenant.
    pub tenant: Option<u64>,
    /// The event.
    pub event: FleetEvent,
}

/// Default ring capacity (entries).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;
/// Default shed-storm threshold (sheds inside one window).
pub const DEFAULT_SHED_STORM_THRESHOLD: u32 = 32;
/// Default shed-storm detection window (ticks).
pub const DEFAULT_SHED_STORM_WINDOW: u64 = 64;

/// Bounded ring of [`FleetEntry`]s with shed-storm detection.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecorder {
    ring: Ring<FleetEntry>,
    storm_threshold: u32,
    storm_window: u64,
    window_start: u64,
    window_sheds: u32,
    storms: u64,
}

impl FlightRecorder {
    /// A recorder holding up to `capacity` entries with the default
    /// shed-storm policy. `capacity == 0` yields a disabled recorder.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: Ring::new(capacity),
            storm_threshold: DEFAULT_SHED_STORM_THRESHOLD,
            storm_window: DEFAULT_SHED_STORM_WINDOW,
            window_start: 0,
            window_sheds: 0,
            storms: 0,
        }
    }

    /// A disabled recorder: every record is one branch.
    pub fn off() -> FlightRecorder {
        FlightRecorder::new(0)
    }

    /// Override the shed-storm policy: a dump trips when `threshold`
    /// sheds land inside a `window`-tick span. `threshold == 0` disables
    /// storm detection.
    pub fn set_shed_storm(&mut self, threshold: u32, window: u64) {
        self.storm_threshold = threshold;
        self.storm_window = window.max(1);
    }

    /// True iff records do anything.
    pub fn enabled(&self) -> bool {
        self.ring.capacity() > 0
    }

    /// Record one entry. Returns `true` exactly when this entry crossed
    /// the shed-storm threshold (once per window — the caller dumps).
    #[inline]
    pub fn record(&mut self, entry: FleetEntry) -> bool {
        if !self.enabled() {
            return false;
        }
        self.ring.push(entry);
        if let FleetEvent::Shed { .. } = entry.event {
            if self.storm_threshold == 0 {
                return false;
            }
            if entry.tick.saturating_sub(self.window_start) >= self.storm_window {
                self.window_start = entry.tick;
                self.window_sheds = 0;
            }
            self.window_sheds += 1;
            if self.window_sheds == self.storm_threshold {
                self.storms += 1;
                return true;
            }
        }
        false
    }

    /// Entries currently held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if no entries are held.
    pub fn is_empty(&self) -> bool {
        self.ring.len() == 0
    }

    /// Entries overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Shed storms detected so far.
    pub fn storms(&self) -> u64 {
        self.storms
    }

    /// The held entries in chronological order.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> Vec<FleetEntry> {
        self.ring.iter().copied().collect()
    }

    /// Serialise the held entries as JSON Lines (chronological order).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.ring.iter() {
            out.push_str(&serde_json::to_string(e).expect("fleet entries always serialise"));
            out.push('\n');
        }
        out
    }

    /// Discard all held entries and reset storm detection (capacity and
    /// policy are kept).
    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        self.ring.clear();
        self.window_start = 0;
        self.window_sheds = 0;
        self.storms = 0;
    }
}

/// Parse a flight-recorder JSONL dump back into entries (strict: every
/// non-empty line must parse).
pub fn parse_fleet_jsonl(text: &str) -> Result<Vec<FleetEntry>, String> {
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let entry: FleetEntry =
            serde_json::from_str(line).map_err(|e| format!("flight dump line {}: {e}", ln + 1))?;
        out.push(entry);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shed(tick: u64) -> FleetEntry {
        FleetEntry {
            tick,
            tenant: None,
            event: FleetEvent::Shed {
                reason: ShedKind::QueueFull,
            },
        }
    }

    fn quantum(tick: u64, tenant: u64) -> FleetEntry {
        FleetEntry {
            tick,
            tenant: Some(tenant),
            event: FleetEvent::Quantum { cycles: 256 },
        }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut r = FlightRecorder::off();
        assert!(!r.enabled());
        assert!(!r.record(shed(1)));
        assert!(r.is_empty());
        assert_eq!(r.to_jsonl(), "");
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut r = FlightRecorder::new(3);
        for t in 0..5 {
            r.record(quantum(t, 0));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let ticks: Vec<u64> = r.entries().iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![2, 3, 4]);
    }

    #[test]
    fn shed_storm_trips_once_per_window() {
        let mut r = FlightRecorder::new(64);
        r.set_shed_storm(3, 10);
        assert!(!r.record(shed(0)));
        assert!(!r.record(shed(1)));
        assert!(r.record(shed(2)), "third shed in window trips");
        assert!(!r.record(shed(3)), "already tripped this window");
        assert_eq!(r.storms(), 1);
        // A new window starts 10 ticks after the window opened.
        assert!(!r.record(shed(10)));
        assert!(!r.record(shed(11)));
        assert!(r.record(shed(12)));
        assert_eq!(r.storms(), 2);
    }

    #[test]
    fn sparse_sheds_never_storm() {
        let mut r = FlightRecorder::new(64);
        r.set_shed_storm(3, 10);
        for i in 0..20 {
            assert!(!r.record(shed(i * 10)), "one shed per window");
        }
        assert_eq!(r.storms(), 0);
    }

    #[test]
    fn zero_threshold_disables_storm_detection() {
        let mut r = FlightRecorder::new(64);
        r.set_shed_storm(0, 10);
        for t in 0..50 {
            assert!(!r.record(shed(t)));
        }
        assert_eq!(r.storms(), 0);
    }

    #[test]
    fn jsonl_round_trips() {
        let mut r = FlightRecorder::new(8);
        r.record(FleetEntry {
            tick: 1,
            tenant: Some(3),
            event: FleetEvent::Admitted,
        });
        r.record(shed(2));
        r.record(FleetEntry {
            tick: 5,
            tenant: Some(3),
            event: FleetEvent::Completed {
                cycles: 1024,
                halted: true,
            },
        });
        r.record(FleetEntry {
            tick: 5,
            tenant: None,
            event: FleetEvent::Trigger {
                kind: TriggerKind::ShedStorm,
            },
        });
        let text = r.to_jsonl();
        let back = parse_fleet_jsonl(&text).unwrap();
        assert_eq!(back, r.entries());
        assert!(parse_fleet_jsonl("not json\n").is_err());
    }

    /// A dump line nested one level past the JSON reader's cap is an
    /// error naming the line, not a stack overflow.
    #[test]
    fn too_deep_dump_line_is_an_error() {
        let good = serde_json::to_string(&shed(1)).unwrap();
        // `{"tick":0,"tenant":...}` is one level; `tenant` nests the rest.
        let depth = serde_json::MAX_DEPTH;
        let deep = format!(
            r#"{{"tick":0,"tenant":{}{}}}"#,
            "[".repeat(depth),
            "]".repeat(depth)
        );
        let err = parse_fleet_jsonl(&format!("{good}\n{deep}\n")).unwrap_err();
        assert!(
            err.starts_with("flight dump line 2: nesting deeper than 128 levels"),
            "{err}"
        );
    }

    #[test]
    fn clear_resets_storm_state() {
        let mut r = FlightRecorder::new(8);
        r.set_shed_storm(2, 10);
        r.record(shed(0));
        r.record(shed(1));
        assert_eq!(r.storms(), 1);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.storms(), 0);
        assert!(!r.record(shed(2)));
        assert!(r.record(shed(3)), "threshold re-arms after clear");
    }
}

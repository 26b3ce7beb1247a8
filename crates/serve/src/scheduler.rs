//! Admission policy, separated from stepping (DESIGN.md §14, §16).
//!
//! The engine consults its [`WatermarkScheduler`] at three points: on
//! `submit` (admit or shed, with an explicit [`ShedReason`]), on each
//! tick (how many queued tenants to activate), and per active tenant
//! (how many cycles of service credit its weight earns this tick, and
//! the per-tick burst cap that bounds any one tenant's share). The
//! policy is plain data with pure methods, so it is testable
//! in-process — no sockets, no engine.
//!
//! Admission is a bounded queue (reject `QueueFull` at the depth
//! watermark), a step-lag bound (reject `StepLag` once the oldest
//! queued tenant has waited more than `step_lag_watermark` ticks for a
//! slot — the signal that the fleet is saturated and latency would
//! otherwise collapse), and a fixed activation ceiling.
//!
//! Service is weighted fair queueing by deficit round robin: each
//! active tenant earns `quantum × weight` cycles of credit per tick
//! (the weight clamped to `1..=max_weight`), capped at one burst
//! (`quantum × max_weight`). The default `max_weight` of 1 clamps
//! every weight to 1, so the grant collapses to the flat quantum: plain
//! round-robin, the degeneration the fairness suite pins.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Capacity of a [`SpecNote`] in bytes. Long validation messages are
/// truncated (at a char boundary) to fit; 120 bytes covers every
/// message `check_request` produces today.
pub const SPEC_NOTE_CAP: usize = 120;

/// A fixed-capacity, inline, `Copy` detail string for `BadSpec` sheds.
///
/// The shed path is a hot path under overload (every rejected
/// submission runs it), so the reason must not allocate. `SpecNote`
/// holds the human-readable detail inline — anything past
/// [`SPEC_NOTE_CAP`] bytes is truncated at a char boundary — which
/// keeps [`ShedReason`] `Copy` and the whole shed path heap-free. On
/// the wire it serialises as a plain JSON string, exactly like the
/// `String` it replaced.
#[derive(Clone, Copy)]
pub struct SpecNote {
    len: u8,
    buf: [u8; SPEC_NOTE_CAP],
}

impl SpecNote {
    /// Render `msg` into an inline note, truncating to fit.
    pub(crate) fn new(msg: impl fmt::Display) -> SpecNote {
        let mut note = SpecNote {
            len: 0,
            buf: [0; SPEC_NOTE_CAP],
        };
        // Truncation is expected, never an error.
        let _ = fmt::write(&mut note, format_args!("{msg}"));
        note
    }

    /// The (possibly truncated) detail text.
    pub fn as_str(&self) -> &str {
        // Only complete UTF-8 chars are ever copied in.
        std::str::from_utf8(&self.buf[..self.len as usize]).unwrap_or("")
    }
}

impl fmt::Write for SpecNote {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let space = SPEC_NOTE_CAP - self.len as usize;
        let take = if s.len() <= space {
            s.len()
        } else {
            let mut t = space;
            while t > 0 && !s.is_char_boundary(t) {
                t -= 1;
            }
            t
        };
        let at = self.len as usize;
        self.buf[at..at + take].copy_from_slice(&s.as_bytes()[..take]);
        self.len += take as u8;
        Ok(())
    }
}

impl PartialEq for SpecNote {
    fn eq(&self, other: &SpecNote) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for SpecNote {}

impl fmt::Debug for SpecNote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl fmt::Display for SpecNote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for SpecNote {
    fn from(s: &str) -> SpecNote {
        SpecNote::new(s)
    }
}

// Wire shape: a plain JSON string, byte-compatible with the `String`
// payload `BadSpec` carried before the inline note existed.
impl Serialize for SpecNote {
    fn to_value(&self) -> serde_json::Value {
        serde_json::Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for SpecNote {
    fn from_value(v: &serde_json::Value) -> Result<SpecNote, serde_json::Error> {
        match v {
            serde_json::Value::Str(s) => Ok(SpecNote::new(s)),
            other => Err(serde_json::Error::expected("string", other)),
        }
    }
}

/// Why a submission was rejected. Every shed is counted in the engine
/// stats under the matching counter — load is never silently dropped.
/// `Copy` (the `BadSpec` detail lives inline in a [`SpecNote`]) so the
/// shed path never touches the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedReason {
    /// The admission queue is at its depth watermark.
    QueueFull,
    /// The oldest queued tenant has waited past the step-lag
    /// watermark: the fleet cannot keep up with offered load.
    StepLag,
    /// The stream spec is invalid or unservable (bad kernel size, lane
    /// trace outside the lane-kernel envelope, faulted lane config…).
    BadSpec(SpecNote),
}

impl ShedReason {
    /// The label-only classification of this reason (metric labels,
    /// flight recorder) — drops the `BadSpec` detail.
    pub(crate) fn kind(&self) -> rsp_obs::ShedKind {
        match self {
            ShedReason::QueueFull => rsp_obs::ShedKind::QueueFull,
            ShedReason::StepLag => rsp_obs::ShedKind::StepLag,
            ShedReason::BadSpec(_) => rsp_obs::ShedKind::BadSpec,
        }
    }
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShedReason::QueueFull => write!(f, "admission queue full"),
            ShedReason::StepLag => write!(f, "step lag over watermark"),
            ShedReason::BadSpec(msg) => write!(f, "bad spec: {msg}"),
        }
    }
}

/// The load signals a scheduler decides from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadSnapshot {
    /// Tenants admitted but not yet activated.
    pub queued: usize,
    /// Tenants actively stepping (scalar machines + live lanes +
    /// pending lane tenants awaiting group formation).
    pub active: usize,
    /// Ticks the oldest queued tenant has been waiting for a slot.
    pub step_lag: u64,
}

/// The admission and pacing policy (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatermarkScheduler {
    /// Admission queue depth watermark (`QueueFull` beyond it).
    pub queue_depth: usize,
    /// Maximum concurrently active tenants.
    pub max_active: usize,
    /// Queue-wait watermark in ticks (`StepLag` beyond it).
    pub step_lag_watermark: u64,
    /// Cycles per active weight-1 tenant per tick.
    pub quantum: u64,
    /// Weight clamp ceiling; also sets the burst to
    /// `quantum × max_weight`. 1 = flat round-robin.
    pub max_weight: u32,
}

impl Default for WatermarkScheduler {
    fn default() -> WatermarkScheduler {
        WatermarkScheduler {
            queue_depth: 64,
            max_active: 32,
            step_lag_watermark: 16,
            quantum: 256,
            max_weight: 1,
        }
    }
}

impl WatermarkScheduler {
    /// Admit a new tenant under `load`, or explain the shed.
    pub(crate) fn admit(&self, load: &LoadSnapshot) -> Result<(), ShedReason> {
        if load.queued >= self.queue_depth {
            return Err(ShedReason::QueueFull);
        }
        if load.step_lag > self.step_lag_watermark {
            return Err(ShedReason::StepLag);
        }
        Ok(())
    }

    /// How many queued tenants to activate this tick under `load`.
    pub(crate) fn activations(&self, load: &LoadSnapshot) -> usize {
        self.max_active.saturating_sub(load.active)
    }

    /// Cycles a weight-1 tenant is stepped per tick.
    pub fn quantum(&self) -> u64 {
        self.quantum
    }

    /// Deficit-round-robin credit in cycles a tenant of `weight` earns
    /// per tick: `quantum × clamp(weight, 1..=max_weight)`.
    pub fn credit(&self, weight: u32) -> u64 {
        let w = weight.clamp(1, self.max_weight.max(1));
        self.quantum.saturating_mul(u64::from(w))
    }

    /// Per-tick cap on the cycles any one tenant may consume (the DRR
    /// burst bound). Credit deferred by the cap carries over as
    /// deficit, itself bounded by one burst.
    pub fn burst(&self) -> u64 {
        self.quantum
            .saturating_mul(u64::from(self.max_weight.max(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(queued: usize, active: usize, step_lag: u64) -> LoadSnapshot {
        LoadSnapshot {
            queued,
            active,
            step_lag,
        }
    }

    #[test]
    fn admits_under_both_watermarks() {
        let s = WatermarkScheduler {
            queue_depth: 4,
            max_active: 2,
            step_lag_watermark: 3,
            quantum: 16,
            max_weight: 1,
        };
        assert_eq!(s.admit(&load(3, 2, 3)), Ok(()));
        assert_eq!(s.admit(&load(4, 0, 0)), Err(ShedReason::QueueFull));
        assert_eq!(s.admit(&load(0, 0, 4)), Err(ShedReason::StepLag));
    }

    #[test]
    fn activations_fill_up_to_the_ceiling() {
        let s = WatermarkScheduler {
            max_active: 8,
            ..WatermarkScheduler::default()
        };
        assert_eq!(s.activations(&load(10, 3, 0)), 5);
        assert_eq!(s.activations(&load(10, 8, 0)), 0);
        assert_eq!(s.activations(&load(10, 12, 0)), 0);
    }

    #[test]
    fn shed_reasons_serialise() {
        for r in [
            ShedReason::QueueFull,
            ShedReason::StepLag,
            ShedReason::BadSpec(SpecNote::new("nope")),
        ] {
            let json = serde_json::to_string(&r).unwrap();
            let back: ShedReason = serde_json::from_str(&json).unwrap();
            assert_eq!(back, r);
        }
        // Wire compatibility: the note is a plain JSON string, exactly
        // the shape the old `BadSpec(String)` produced.
        let json = serde_json::to_string(&ShedReason::BadSpec(SpecNote::new("msg"))).unwrap();
        assert_eq!(json, "{\"BadSpec\":\"msg\"}");
    }

    #[test]
    fn spec_notes_truncate_at_char_boundaries() {
        let short = SpecNote::new("hello");
        assert_eq!(short.as_str(), "hello");
        let long = "x".repeat(SPEC_NOTE_CAP + 40);
        assert_eq!(SpecNote::new(&long).as_str().len(), SPEC_NOTE_CAP);
        // Multi-byte chars never split: é is 2 bytes, so an odd byte
        // budget truncates one char early rather than mid-sequence.
        let accents = "é".repeat(SPEC_NOTE_CAP);
        let note = SpecNote::new(&accents);
        assert!(note.as_str().len() <= SPEC_NOTE_CAP);
        assert!(note.as_str().chars().all(|c| c == 'é'));
    }

    #[test]
    fn credit_scales_with_weight_up_to_the_burst() {
        let weighted = WatermarkScheduler {
            queue_depth: 4,
            max_active: 2,
            step_lag_watermark: 3,
            quantum: 100,
            max_weight: 8,
        };
        // Admission ignores weights: the watermarks are the outer guard.
        assert_eq!(weighted.admit(&load(4, 0, 0)), Err(ShedReason::QueueFull));
        assert_eq!(weighted.admit(&load(0, 0, 4)), Err(ShedReason::StepLag));
        assert_eq!(weighted.activations(&load(10, 1, 0)), 1);
        // Credit is quantum × weight, clamped into 1..=max_weight.
        assert_eq!(weighted.credit(0), 100);
        assert_eq!(weighted.credit(1), 100);
        assert_eq!(weighted.credit(3), 300);
        assert_eq!(weighted.credit(100), 800);
        assert_eq!(weighted.burst(), 800);
        // max_weight 1 is weight-blind: the flat round-robin.
        let flat = WatermarkScheduler {
            max_weight: 1,
            ..weighted
        };
        assert_eq!(flat.credit(3), 100);
        assert_eq!(flat.burst(), 100);
    }
}

//! The typed telemetry event vocabulary.
//!
//! Every observable thing the steering stack does is one [`Event`]
//! variant. Events are small `Copy` values (fixed-size arrays, no heap)
//! so emitting one into a pre-allocated sink never allocates — the
//! zero-alloc hot-loop guarantee of DESIGN.md §8 extends to enabled
//! telemetry.

use rsp_isa::units::UnitType;
use serde::{Deserialize, Serialize};

/// Maximum number of configuration candidates whose CEM scores a
/// [`Event::SteeringDecision`] can carry (candidate 0 is always the
/// current configuration). The paper's steering set has 4 candidates;
/// custom sets with more still steer over all of them, but only the
/// first `MAX_CANDIDATES` scores are recorded.
pub const MAX_CANDIDATES: usize = 8;

/// Why the pipeline made no forward progress (or less than it could)
/// this cycle. Attribution is per-stage: queue/ROB pressure comes from
/// dispatch, the rest from issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StallCause {
    /// The instruction queue (wake-up array) is empty: nothing to issue.
    QueueEmpty,
    /// Dispatch blocked because the wake-up array is full.
    QueueFull,
    /// Dispatch blocked because the reorder buffer is full.
    RobFull,
    /// Ready instructions existed but fewer grants were made than there
    /// were ready instructions (port/unit contention).
    Starved,
    /// Ready instructions demand a unit type with no configured unit at
    /// all — the steering gap (or a zombie/dead-slot episode).
    UnitUnconfigured,
}

impl StallCause {
    /// Every cause, for tabulation.
    pub const ALL: [StallCause; 5] = [
        StallCause::QueueEmpty,
        StallCause::QueueFull,
        StallCause::RobFull,
        StallCause::Starved,
        StallCause::UnitUnconfigured,
    ];

    /// Stable snake_case name (JSON reports, tables).
    pub fn name(self) -> &'static str {
        match self {
            StallCause::QueueEmpty => "queue_empty",
            StallCause::QueueFull => "queue_full",
            StallCause::RobFull => "rob_full",
            StallCause::Starved => "starved",
            StallCause::UnitUnconfigured => "unit_unconfigured",
        }
    }
}

/// One telemetry event. Externally tagged in JSON, e.g.
/// `{"LoadStarted":{"head":4,"unit":"FpAlu"}}`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// The configuration selection unit evaluated its candidates.
    SteeringDecision {
        /// CEM error of candidate `i` (0 = current configuration, then
        /// the predefined steering configurations in set order). Only
        /// the first `candidates` entries are meaningful.
        scores: [u32; MAX_CANDIDATES],
        /// Number of scored candidates recorded in `scores`.
        candidates: u8,
        /// The selection unit's two-bit output (0 = keep current).
        chosen: u8,
        /// True iff the choice differs from the previous cycle's.
        changed: bool,
    },
    /// The loader started a partial reconfiguration of `unit` at `head`.
    LoadStarted {
        /// Head slot of the load.
        head: u32,
        /// Unit type being loaded.
        unit: UnitType,
    },
    /// The started load is a retry of a previously failed load on this
    /// span (emitted in addition to [`Event::LoadStarted`]).
    LoadRetry {
        /// Head slot of the load.
        head: u32,
        /// Unit type being loaded.
        unit: UnitType,
    },
    /// The loader wanted to load `head` but its retry backoff window is
    /// still open.
    LoadBackoffDeferred {
        /// Head slot whose reload was deferred.
        head: u32,
        /// Unit type that would have been loaded.
        unit: UnitType,
    },
    /// The loader skipped a span because it contains a stuck-at-dead slot.
    DeadSlotSkip {
        /// Head slot of the skipped span.
        head: u32,
        /// Unit type that could not be placed.
        unit: UnitType,
    },
    /// The loader re-placed a unit whose canonical span covers a
    /// stuck-at-dead slot into an alternative healthy span (emitted in
    /// addition to [`Event::LoadStarted`] at the new head).
    LoadReplaced {
        /// Canonical head slot the unit could not be placed at.
        from_head: u32,
        /// Head slot the unit was re-placed to.
        to_head: u32,
        /// Unit type being re-placed.
        unit: UnitType,
    },
    /// The fault-aware steering path switched between the nominal and
    /// the effective (post-fault) capacity view and re-ranked the
    /// candidate configurations (emitted on the hysteresis transition,
    /// not every degraded cycle).
    CapacityRerank {
        /// True when switching nominal → effective (capacity loss
        /// crossed the hysteresis threshold); false on recovery.
        degraded: bool,
        /// Units of effective capacity below nominal at the transition,
        /// summed over types.
        lost: u8,
    },
    /// A load completed and passed readback: `unit` is now live at `head`.
    LoadPlaced {
        /// Head slot of the completed load.
        head: u32,
        /// Unit type now configured there.
        unit: UnitType,
    },
    /// A load consumed its full latency then failed readback.
    LoadFailed {
        /// Head slot of the failed load.
        head: u32,
        /// Unit type that was being loaded.
        unit: UnitType,
    },
    /// An SEU corrupted the configuration memory of an idle unit: the
    /// slot is now a zombie (allocated but ungrantable).
    UpsetInjected {
        /// Head slot of the corrupted unit.
        head: u32,
        /// Unit type the span implements.
        unit: UnitType,
    },
    /// Scrub/readback detected (and cleared) a corrupted span.
    UpsetDetected {
        /// Head slot of the corrupted unit.
        head: u32,
        /// Unit type the span used to implement.
        unit: UnitType,
    },
    /// A configuration-memory scrub pass completed.
    ScrubPass {
        /// Corrupted spans detected (and cleared) by this pass.
        detected: u32,
    },
    /// A pipeline stall episode began (emitted once per cause change,
    /// not per stalled cycle).
    Stall {
        /// Attribution of the stall.
        cause: StallCause,
    },
}

/// An [`Event`] stamped with the cycle it occurred on — the unit of the
/// JSONL event log.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Stamped {
    /// Simulation cycle the event occurred on.
    pub cycle: u64,
    /// The event.
    pub event: Event,
}

impl Stamped {
    /// Append this event's compact JSON to `out`, byte-identical to
    /// `serde_json::to_string(self)` (pinned by the tests below and by
    /// `tests/jsonl_encoder.rs`). The ring export renders every served
    /// tenant's log through here; building serde's owned value tree
    /// per event cost about half as much host time as stepping the
    /// tenant. Appends only: no allocation beyond growing `out`.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"cycle\":");
        push_u64(out, self.cycle);
        out.push_str(",\"event\":{\"");
        match self.event {
            Event::SteeringDecision {
                scores,
                candidates,
                chosen,
                changed,
            } => {
                out.push_str("SteeringDecision\":{\"scores\":[");
                for (i, &s) in scores.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_u64(out, s.into());
                }
                out.push_str("],\"candidates\":");
                push_u64(out, candidates.into());
                out.push_str(",\"chosen\":");
                push_u64(out, chosen.into());
                out.push_str(",\"changed\":");
                push_bool(out, changed);
            }
            Event::LoadStarted { head, unit } => head_unit(out, "LoadStarted", head, unit),
            Event::LoadRetry { head, unit } => head_unit(out, "LoadRetry", head, unit),
            Event::LoadBackoffDeferred { head, unit } => {
                head_unit(out, "LoadBackoffDeferred", head, unit)
            }
            Event::DeadSlotSkip { head, unit } => head_unit(out, "DeadSlotSkip", head, unit),
            Event::LoadReplaced {
                from_head,
                to_head,
                unit,
            } => {
                out.push_str("LoadReplaced\":{\"from_head\":");
                push_u64(out, from_head.into());
                out.push_str(",\"to_head\":");
                push_u64(out, to_head.into());
                push_unit(out, unit);
            }
            Event::CapacityRerank { degraded, lost } => {
                out.push_str("CapacityRerank\":{\"degraded\":");
                push_bool(out, degraded);
                out.push_str(",\"lost\":");
                push_u64(out, lost.into());
            }
            Event::LoadPlaced { head, unit } => head_unit(out, "LoadPlaced", head, unit),
            Event::LoadFailed { head, unit } => head_unit(out, "LoadFailed", head, unit),
            Event::UpsetInjected { head, unit } => head_unit(out, "UpsetInjected", head, unit),
            Event::UpsetDetected { head, unit } => head_unit(out, "UpsetDetected", head, unit),
            Event::ScrubPass { detected } => {
                out.push_str("ScrubPass\":{\"detected\":");
                push_u64(out, detected.into());
            }
            Event::Stall { cause } => {
                out.push_str("Stall\":{\"cause\":\"");
                out.push_str(match cause {
                    StallCause::QueueEmpty => "QueueEmpty",
                    StallCause::QueueFull => "QueueFull",
                    StallCause::RobFull => "RobFull",
                    StallCause::Starved => "Starved",
                    StallCause::UnitUnconfigured => "UnitUnconfigured",
                });
                out.push('"');
            }
        }
        out.push_str("}}}");
    }
}

/// The body of every `{head, unit}` variant, after the opening quote
/// of its tag.
fn head_unit(out: &mut String, tag: &str, head: u32, unit: UnitType) {
    out.push_str(tag);
    out.push_str("\":{\"head\":");
    push_u64(out, head.into());
    push_unit(out, unit);
}

/// `,"unit":"<variant>"` — serde's externally tagged unit variant.
fn push_unit(out: &mut String, unit: UnitType) {
    out.push_str(",\"unit\":\"");
    out.push_str(match unit {
        UnitType::IntAlu => "IntAlu",
        UnitType::IntMdu => "IntMdu",
        UnitType::Lsu => "Lsu",
        UnitType::FpAlu => "FpAlu",
        UnitType::FpMdu => "FpMdu",
    });
    out.push('"');
}

fn push_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

/// Decimal `v` through a stack buffer (`u64::MAX` has 20 digits).
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    // Only ASCII digits were written.
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn one_of_each() -> Vec<Event> {
        let mut scores = [0u32; MAX_CANDIDATES];
        scores[..4].copy_from_slice(&[7, 3, 0, 12]);
        vec![
            Event::SteeringDecision {
                scores,
                candidates: 4,
                chosen: 3,
                changed: true,
            },
            Event::LoadStarted {
                head: 2,
                unit: UnitType::FpAlu,
            },
            Event::LoadRetry {
                head: 2,
                unit: UnitType::FpAlu,
            },
            Event::LoadBackoffDeferred {
                head: 5,
                unit: UnitType::Lsu,
            },
            Event::DeadSlotSkip {
                head: 0,
                unit: UnitType::IntAlu,
            },
            Event::LoadReplaced {
                from_head: 0,
                to_head: 6,
                unit: UnitType::IntAlu,
            },
            Event::CapacityRerank {
                degraded: true,
                lost: 2,
            },
            Event::LoadPlaced {
                head: 2,
                unit: UnitType::FpAlu,
            },
            Event::LoadFailed {
                head: 7,
                unit: UnitType::IntMdu,
            },
            Event::UpsetInjected {
                head: 4,
                unit: UnitType::FpMdu,
            },
            Event::UpsetDetected {
                head: 4,
                unit: UnitType::FpMdu,
            },
            Event::ScrubPass { detected: 1 },
            Event::Stall {
                cause: StallCause::UnitUnconfigured,
            },
        ]
    }

    #[test]
    fn every_variant_roundtrips_through_json() {
        for (i, ev) in one_of_each().into_iter().enumerate() {
            let stamped = Stamped {
                cycle: 10 + i as u64,
                event: ev,
            };
            let line = serde_json::to_string(&stamped).unwrap();
            let back: Stamped = serde_json::from_str(&line).unwrap();
            assert_eq!(back, stamped, "line: {line}");
        }
    }

    #[test]
    fn write_json_matches_serde_for_every_variant() {
        let stalls = StallCause::ALL.map(|cause| Event::Stall { cause });
        let units = UnitType::ALL.map(|unit| Event::LoadPlaced { head: 1, unit });
        let events = one_of_each().into_iter().chain(stalls).chain(units);
        for (i, ev) in events.enumerate() {
            let stamped = Stamped {
                cycle: u64::MAX - i as u64,
                event: ev,
            };
            let mut line = String::from("prefix");
            stamped.write_json(&mut line);
            assert_eq!(
                line["prefix".len()..],
                serde_json::to_string(&stamped).unwrap()
            );
        }
    }

    #[test]
    fn stall_cause_names_are_unique() {
        let mut names: Vec<&str> = StallCause::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), StallCause::ALL.len());
    }
}

//! Fault injection for the configuration memories (DESIGN.md §9).
//!
//! The SRAM-based configuration memories this architecture targets are
//! exactly where partial-reconfiguration load failures and single-event
//! upsets happen. This module adds a deterministic, seeded fault model
//! to the fabric:
//!
//! * **Load failures** — a partial reconfiguration streams all of its
//!   frames (consuming the full load latency and a port) but the
//!   readback CRC fails at the end: the span is left *unconfigured*
//!   instead of hosting the new unit. The configuration loader retries
//!   with bounded backoff (`rsp-core`).
//! * **Configuration-memory upsets** — each cycle an SEU may strike the
//!   configuration memory of one idle configured RFU, corrupting its
//!   encoding. A corrupted unit is immediately *ungrantable* (its
//!   results could not be trusted), but the resource allocation vector
//!   still claims the unit is present, so the steering mechanism is
//!   fooled until scrub detects the corruption: the slot is a zombie
//!   that neither executes nor reloads.
//! * **Scrub/readback** — every `scrub_interval` cycles the fabric reads
//!   back its configuration memory, detects corrupted spans, and clears
//!   them from the allocation vector so the loader can reload them.
//! * **Stuck-at-dead slots** — optionally, some slots are permanently
//!   broken and can never be configured ([`crate::fabric::LoadError::SpanDead`]).
//!
//! All randomness comes from splitmix64-mixed *keyed draws*: every
//! decision is a pure function of `(seed, stream, cycle, slot)` rather
//! than a position in a shared sequential stream. That makes the fault
//! schedule **open-loop**: which (cycle, slot) pairs are struck — and
//! which (cycle, head) loads fail readback — is fixed by the seed alone,
//! independent of what the steering policy does. Two runs of the same
//! workload under different policies therefore face the *same* fault
//! schedule, so policy comparisons (e.g. the fault-aware selection unit
//! against the degraded baseline in the fault-sweep bench) are paired
//! rather than drowned in schedule divergence. With every rate at zero
//! and no dead slots the model is inert and the fabric behaves
//! bit-identically to a build without fault machinery.
//!
//! Architectural correctness is never at risk: corrupted and dead units
//! are excluded from issue, the five FFUs are hard logic (not subject to
//! configuration-memory faults) and guarantee forward progress, so every
//! run still retires golden-model-identical results — only timing (IPC)
//! degrades.

use rsp_isa::units::UnitType;
use serde::{Deserialize, Serialize};

/// Denominator of the per-cycle fault probabilities: rates are expressed
/// in parts-per-million so [`FaultParams`] stays `Eq`/hashable and the
/// model needs no floating point.
pub const PPM: u32 = 1_000_000;

/// Static fault-model parameters. The default is fully inert.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultParams {
    /// Seed of the deterministic fault schedule.
    pub seed: u64,
    /// Probability (ppm) that a started load fails at completion,
    /// leaving its span unconfigured after consuming the full latency.
    pub load_failure_ppm: u32,
    /// Per-cycle probability (ppm) that an upset strikes the
    /// configuration memory of one idle configured RFU.
    pub upset_ppm: u32,
    /// Cycles between configuration-memory scrub passes (0 = never
    /// scrub: corrupted spans are zombies forever).
    pub scrub_interval: u64,
    /// Slots that are permanently dead (can never be configured).
    pub dead_slots: Vec<usize>,
}

impl FaultParams {
    /// True iff any fault mechanism can fire. An inert model consumes
    /// no randomness and leaves the fabric's behaviour bit-identical to
    /// a fault-free build.
    pub fn enabled(&self) -> bool {
        self.load_failure_ppm > 0 || self.upset_ppm > 0 || !self.dead_slots.is_empty()
    }

    /// Sanity-check against a fabric of `rfu_slots` slots.
    pub fn validate(&self, rfu_slots: usize) -> Result<(), String> {
        if self.load_failure_ppm > PPM || self.upset_ppm > PPM {
            return Err("fault rates are ppm and must be <= 1_000_000".into());
        }
        if let Some(&s) = self.dead_slots.iter().find(|&&s| s >= rfu_slots) {
            return Err(format!(
                "dead slot {s} out of range (fabric has {rfu_slots})"
            ));
        }
        Ok(())
    }
}

/// Running fault counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Loads that consumed their latency but failed at readback.
    pub load_failures: u64,
    /// Upsets that corrupted a configured span.
    pub upsets_injected: u64,
    /// Upsets that struck while no idle configured unit existed
    /// (dissipated without effect).
    pub upsets_dissipated: u64,
    /// Corrupted spans detected (and cleared) by scrub.
    pub upsets_detected: u64,
    /// Scrub passes performed.
    pub scrubs: u64,
}

/// One observable fault event, drained by the configuration loader once
/// per cycle (events live exactly one fabric tick).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// A load on `head` consumed its latency then failed readback.
    LoadFailed {
        /// Head slot of the failed load.
        head: usize,
        /// Unit type that was being loaded.
        unit: UnitType,
    },
    /// An SEU corrupted the configuration memory of the idle configured
    /// unit at `head` (the slot is a zombie until scrub clears it).
    UpsetInjected {
        /// Head slot of the corrupted unit.
        head: usize,
        /// Unit type the span implements.
        unit: UnitType,
    },
    /// Scrub detected (and cleared) a corrupted span at `head`.
    UpsetDetected {
        /// Head slot of the corrupted unit.
        head: usize,
        /// Unit type the span used to implement.
        unit: UnitType,
    },
    /// A scrub pass completed, having detected `detected` corrupted
    /// spans (emitted once per pass, after any [`FaultEvent::UpsetDetected`]).
    ScrubPass {
        /// Corrupted spans detected (and cleared) by this pass.
        detected: u32,
    },
    /// A load on `head` completed and passed readback (emitted only when
    /// the fault model is enabled, so the loader can observe recovery
    /// and reset its retry backoff).
    LoadPlaced {
        /// Head slot of the completed load.
        head: usize,
        /// Unit type now configured there.
        unit: UnitType,
    },
}

/// Fault-schedule streams for [`keyed_draw`]: separating the streams
/// keeps a draw for one mechanism from correlating with another's at the
/// same (cycle, slot).
pub mod stream {
    /// Readback verdict of a load started at (cycle, head).
    pub(crate) const LOAD_FAILURE: u64 = 0x4C4F_4144;
    /// Whether an SEU strikes the configuration memory this cycle.
    pub const UPSET_STRIKE: u64 = 0x5345_5531;
    /// Which slot the SEU strikes.
    pub const UPSET_TARGET: u64 = 0x5345_5532;
}

/// splitmix64 finalizer: a high-quality 64-bit mixing function.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic draw for fault stream `stream` at coordinates
/// `(a, b)` — a pure function of its inputs (no hidden RNG state), so
/// the whole fault schedule is open-loop: see the module docs.
#[inline]
pub fn keyed_draw(seed: u64, stream: u64, a: u64, b: u64) -> u64 {
    mix(mix(mix(seed.wrapping_add(stream)).wrapping_add(a)).wrapping_add(b))
}

/// Keyed Bernoulli draw with probability `ppm / 1e6`.
#[inline]
pub fn keyed_chance_ppm(seed: u64, stream: u64, a: u64, b: u64, ppm: u32) -> bool {
    ppm > 0 && (keyed_draw(seed, stream, a, b) % PPM as u64) < ppm as u64
}

/// Live fault-model state, owned by the fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct FaultState {
    /// Static parameters.
    pub params: FaultParams,
    /// Fabric ticks elapsed — the time coordinate of [`keyed_draw`].
    pub tick: u64,
    /// Per-slot corruption flags (a corrupted unit has its *whole* span
    /// flagged; the head flag is what the availability path checks).
    pub corrupted: Vec<bool>,
    /// Per-slot stuck-at-dead flags.
    pub dead: Vec<bool>,
    /// Cycles until the next scrub pass (unused when scrubbing is off).
    pub scrub_countdown: u64,
    /// Counters.
    pub stats: FaultStats,
    /// Events generated by the last tick (cleared at the next one).
    pub events: Vec<FaultEvent>,
}

impl FaultState {
    /// Fresh state for a fabric of `slots` RFU slots.
    pub(crate) fn new(params: FaultParams, slots: usize) -> FaultState {
        let mut dead = vec![false; slots];
        for &s in &params.dead_slots {
            if s < slots {
                dead[s] = true;
            }
        }
        FaultState {
            tick: 0,
            corrupted: vec![false; slots],
            dead,
            scrub_countdown: params.scrub_interval,
            stats: FaultStats::default(),
            events: Vec::new(),
            params,
        }
    }

    /// True iff any fault mechanism can fire.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.params.enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_are_inert() {
        let p = FaultParams::default();
        assert!(!p.enabled());
        p.validate(8).unwrap();
    }

    #[test]
    fn enabled_when_any_mechanism_set() {
        for p in [
            FaultParams {
                load_failure_ppm: 1,
                ..FaultParams::default()
            },
            FaultParams {
                upset_ppm: 1,
                ..FaultParams::default()
            },
            FaultParams {
                dead_slots: vec![3],
                ..FaultParams::default()
            },
        ] {
            assert!(p.enabled());
        }
        // Scrubbing alone has nothing to detect: still inert.
        let p = FaultParams {
            scrub_interval: 64,
            ..FaultParams::default()
        };
        assert!(!p.enabled());
    }

    #[test]
    fn validation_rejects_bad_params() {
        let p = FaultParams {
            upset_ppm: PPM + 1,
            ..FaultParams::default()
        };
        assert!(p.validate(8).is_err());
        let p = FaultParams {
            dead_slots: vec![8],
            ..FaultParams::default()
        };
        assert!(p.validate(8).is_err());
        p.validate(9).unwrap();
    }

    #[test]
    fn keyed_draws_are_pure_seeded_functions() {
        // Same coordinates → same draw; any coordinate change → a
        // different draw (with overwhelming probability).
        assert_eq!(
            keyed_draw(7, stream::UPSET_STRIKE, 3, 0),
            keyed_draw(7, stream::UPSET_STRIKE, 3, 0)
        );
        assert_ne!(
            keyed_draw(7, stream::UPSET_STRIKE, 3, 0),
            keyed_draw(8, stream::UPSET_STRIKE, 3, 0)
        );
        assert_ne!(
            keyed_draw(7, stream::UPSET_STRIKE, 3, 0),
            keyed_draw(7, stream::UPSET_TARGET, 3, 0)
        );
        assert_ne!(
            keyed_draw(7, stream::UPSET_STRIKE, 3, 0),
            keyed_draw(7, stream::UPSET_STRIKE, 4, 0)
        );
        assert_ne!(
            keyed_draw(7, stream::LOAD_FAILURE, 3, 0),
            keyed_draw(7, stream::LOAD_FAILURE, 3, 1)
        );
    }

    #[test]
    fn keyed_chance_ppm_extremes_and_rate() {
        assert!((0..1000).all(|t| !keyed_chance_ppm(1, stream::UPSET_STRIKE, t, 0, 0)));
        assert!((0..1000).all(|t| keyed_chance_ppm(1, stream::UPSET_STRIKE, t, 0, PPM)));
        // A mid rate fires roughly half the time across cycles.
        let hits = (0..10_000)
            .filter(|&t| keyed_chance_ppm(1, stream::UPSET_STRIKE, t, 0, PPM / 2))
            .count();
        assert!(hits > 4_000 && hits < 6_000, "hits = {hits}");
    }

    #[test]
    fn state_marks_dead_slots() {
        let s = FaultState::new(
            FaultParams {
                dead_slots: vec![0, 5],
                ..FaultParams::default()
            },
            8,
        );
        assert!(s.dead[0] && s.dead[5]);
        assert_eq!(s.dead.iter().filter(|&&d| d).count(), 2);
        assert!(s.enabled());
    }
}

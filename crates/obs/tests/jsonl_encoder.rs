//! The hand-written JSONL encoder against its oracle.
//!
//! `Stamped::write_json` replaces `serde_json::to_string` on the
//! telemetry export path, and served telemetry must stay byte-identical
//! to an offline replay, so every line it writes has to equal the serde
//! rendering exactly. These properties draw arbitrary values for every
//! `Event` variant — integers across their whole range, every digit
//! count, all eight CEM scores, both bools — and arbitrary ring
//! wrap-arounds.

use proptest::array::uniform8;
use proptest::prelude::*;
use rsp_isa::units::UnitType;
use rsp_obs::{Event, RingSink, StallCause, Stamped};

/// A `u64` of uniformly drawn bit length (0..=64), so every decimal
/// width from one digit to twenty shows up, plus the extremes.
fn wide_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0u32..=64, any::<u64>()).prop_map(|(bits, v)| v.checked_shr(64 - bits).unwrap_or(0)),
        Just(0u64),
        Just(u64::MAX),
    ]
}

fn wide_u32() -> impl Strategy<Value = u32> {
    prop_oneof![
        (0u32..=32, any::<u32>()).prop_map(|(bits, v)| v.checked_shr(32 - bits).unwrap_or(0)),
        Just(0u32),
        Just(u32::MAX),
    ]
}

/// The number of `Event` variants `event()` draws from.
const VARIANTS: usize = 13;

fn event() -> impl Strategy<Value = Event> {
    (
        0..VARIANTS,
        uniform8(wide_u32()),
        (any::<u8>(), any::<u8>(), any::<bool>()),
        (wide_u32(), wide_u32()),
        (0..UnitType::ALL.len(), 0..StallCause::ALL.len()),
    )
        .prop_map(|(variant, scores, (a, b, flag), (h1, h2), (u, c))| {
            let unit = UnitType::ALL[u];
            match variant {
                0 => Event::SteeringDecision {
                    scores,
                    candidates: a,
                    chosen: b,
                    changed: flag,
                },
                1 => Event::LoadStarted { head: h1, unit },
                2 => Event::LoadRetry { head: h1, unit },
                3 => Event::LoadBackoffDeferred { head: h1, unit },
                4 => Event::DeadSlotSkip { head: h1, unit },
                5 => Event::LoadReplaced {
                    from_head: h1,
                    to_head: h2,
                    unit,
                },
                6 => Event::CapacityRerank {
                    degraded: flag,
                    lost: a,
                },
                7 => Event::LoadPlaced { head: h1, unit },
                8 => Event::LoadFailed { head: h1, unit },
                9 => Event::UpsetInjected { head: h1, unit },
                10 => Event::UpsetDetected { head: h1, unit },
                11 => Event::ScrubPass { detected: h1 },
                _ => Event::Stall {
                    cause: StallCause::ALL[c],
                },
            }
        })
}

fn stamped() -> impl Strategy<Value = Stamped> {
    (wide_u64(), event()).prop_map(|(cycle, event)| Stamped { cycle, event })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn write_json_is_serde_to_string(ev in stamped()) {
        let mut line = String::new();
        ev.write_json(&mut line);
        prop_assert_eq!(&line, &serde_json::to_string(&ev).unwrap());
        let back: Stamped = serde_json::from_str(&line).unwrap();
        prop_assert_eq!(back, ev);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ring_jsonl_is_serde_of_its_events(
        capacity in 1usize..9,
        events in proptest::collection::vec(stamped(), 0..24),
    ) {
        let mut ring = RingSink::new(capacity);
        for ev in &events {
            ring.record(*ev);
        }
        let want: String = ring
            .events()
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect();
        prop_assert_eq!(ring.to_jsonl(), want);
    }
}

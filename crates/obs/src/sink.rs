//! The event sink: where stamped events go.
//!
//! A sink is lock-free by construction — the simulator is single-
//! threaded per `Machine` and each `Machine` owns its sink, so recording
//! is a plain method call with no synchronisation. The ring sink
//! pre-allocates its whole buffer up front; recording into it never
//! allocates (overwrites the oldest entry instead, counting drops).

use crate::event::Stamped;
use crate::ring::Ring;

/// A fixed-capacity ring buffer of stamped events with a JSONL export.
///
/// The buffer is allocated once at construction; when full, recording
/// overwrites the oldest event and increments [`RingSink::dropped`] so
/// consumers can tell a complete log from a truncated one.
#[derive(Debug, Clone, PartialEq)]
pub struct RingSink {
    ring: Ring<Stamped>,
}

impl RingSink {
    /// A ring holding up to `capacity` events (`capacity > 0`).
    pub fn new(capacity: usize) -> RingSink {
        assert!(capacity > 0, "ring sink needs a nonzero capacity");
        RingSink {
            ring: Ring::new(capacity),
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if no events are held.
    pub fn is_empty(&self) -> bool {
        self.ring.len() == 0
    }

    /// Maximum events held.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// The held events in chronological order.
    pub fn events(&self) -> Vec<Stamped> {
        self.ring.iter().copied().collect()
    }

    /// The held events in chronological order, handed over without a
    /// copy: the ring's buffer is rotated in place and returned, so its
    /// allocation (`capacity` events) moves to the caller.
    pub fn into_events(self) -> Vec<Stamped> {
        self.ring.into_vec()
    }

    /// Append the held events to `out` as JSON Lines (one event per
    /// line, chronological order), walking the ring in place. Each line
    /// is byte-identical to `serde_json::to_string` of the event (see
    /// [`Stamped::write_json`]); into a `String` with room to spare this
    /// allocates nothing.
    pub fn write_jsonl(&self, out: &mut String) {
        for ev in self.ring.iter() {
            ev.write_json(out);
            out.push('\n');
        }
    }

    /// Serialise the held events as JSON Lines (see
    /// [`RingSink::write_jsonl`]).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.write_jsonl(&mut out);
        out
    }

    /// Discard all held events (capacity and drop count keep their
    /// meaning for the next run; the drop count is zeroed).
    pub fn clear(&mut self) {
        self.ring.clear();
    }

    /// Record one event, overwriting the oldest once the ring is full.
    #[inline]
    pub fn record(&mut self, ev: Stamped) {
        self.ring.push(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn ev(cycle: u64) -> Stamped {
        Stamped {
            cycle,
            event: Event::ScrubPass {
                detected: cycle as u32,
            },
        }
    }

    #[test]
    fn ring_keeps_everything_under_capacity() {
        let mut r = RingSink::new(4);
        for c in 0..3 {
            r.record(ev(c));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 0);
        let cycles: Vec<u64> = r.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2]);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut r = RingSink::new(3);
        for c in 0..7 {
            r.record(ev(c));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 4);
        let cycles: Vec<u64> = r.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![4, 5, 6], "oldest survivors first");
    }

    #[test]
    fn jsonl_is_one_parseable_line_per_event() {
        let mut r = RingSink::new(8);
        r.record(ev(1));
        r.record(ev(2));
        let text = r.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (line, want) in lines.iter().zip([1u64, 2]) {
            let back: Stamped = serde_json::from_str(line).unwrap();
            assert_eq!(back.cycle, want);
        }
    }

    #[test]
    fn wrapped_ring_jsonl_matches_serde_of_events() {
        let mut r = RingSink::new(4);
        for (c, event) in (0..10).zip(crate::event::tests::one_of_each()) {
            r.record(Stamped { cycle: c, event });
        }
        assert_eq!(r.dropped(), 6);
        let want: String = r
            .events()
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect();
        assert_eq!(r.to_jsonl(), want);
        let mut appended = String::from("kept\n");
        r.write_jsonl(&mut appended);
        assert_eq!(appended, format!("kept\n{want}"));
    }

    #[test]
    fn into_events_is_chronological_and_keeps_the_buffer() {
        for recorded in [0u64, 3, 4, 7, 9] {
            let mut r = RingSink::new(4);
            for c in 0..recorded {
                r.record(ev(c));
            }
            let want = r.events();
            let events = r.into_events();
            assert_eq!(events, want, "{recorded} recorded");
            assert_eq!(events.capacity(), 4, "the ring's own buffer");
        }
    }

    #[test]
    fn clear_empties_the_ring() {
        let mut r = RingSink::new(2);
        for c in 0..5 {
            r.record(ev(c));
        }
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
        r.record(ev(9));
        assert_eq!(r.events()[0].cycle, 9);
    }
}

//! Per-tenant telemetry routing (DESIGN.md §14).
//!
//! The serve engine multiplexes many tenants over shared machines, but
//! each tenant's telemetry must stay its own: the replay acceptance
//! criterion compares a tenant's served JSONL byte-for-byte against an
//! offline rerun of the same `(spec, seed)`. The router keeps what a
//! tenant recorded, keyed by tenant id in deterministic order, in the
//! form it was recorded in:
//!
//! * a scalar tenant's event ring, moved out of its machine at
//!   completion (machines are recycled through the pool) with no render
//!   and no copy;
//! * a lane tenant's sparse [`LaneRecord`]s (the bit-sliced kernel has
//!   no per-lane event stream), handed over by its lane group at
//!   completion.
//!
//! JSONL exists only where a log leaves the engine. [`TenantRouter::jsonl`]
//! renders a log once and keeps the text for later reads;
//! [`TenantRouter::write_jsonl`] renders into the caller's buffer and
//! keeps nothing, for readers that read each log once.

use rsp_obs::Stamped;
use rsp_sim::lanes::LaneBatch;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// One lane tenant's transition on one cycle: a selection change or a
/// load start. 16 bytes, against about 60 for its JSONL line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaneRecord {
    cycle: u64,
    /// The lane's configuration choice (`None` for a policy without
    /// selection).
    choice: Option<u8>,
    changed: bool,
    started: bool,
}

impl LaneRecord {
    /// The record lane `lane` of `batch` produced on its last step,
    /// stamped `cycle`, if that step changed its selection or started a
    /// load. Shared by the serving path and [`crate::replay`].
    pub(crate) fn of(batch: &LaneBatch, lane: usize, cycle: u64) -> Option<LaneRecord> {
        let changed = batch.lane_changed(lane);
        let started = batch.lane_started(lane);
        (changed || started).then(|| LaneRecord {
            cycle,
            choice: batch.lane_choice(lane),
            changed,
            started,
        })
    }

    /// Append this record's JSON object (no newline) to `out`.
    fn write_json(&self, out: &mut String) {
        let LaneRecord {
            cycle,
            choice,
            changed,
            started,
        } = *self;
        let choice = choice.map_or(-1i16, i16::from);
        // Writing into a `String` cannot fail.
        let _ = write!(
            out,
            "{{\"cycle\":{cycle},\"choice\":{choice},\"changed\":{changed},\"started\":{started}}}"
        );
    }
}

/// One tenant's log as recorded: scalar events or lane records (a
/// tenant has one kind or the other), and its rendered text once a
/// reader has asked for it through [`TenantRouter::jsonl`].
#[derive(Debug, Default)]
pub(crate) struct TenantLog {
    events: Vec<Stamped>,
    lanes: Vec<LaneRecord>,
    text: OnceLock<String>,
}

impl TenantLog {
    /// A scalar tenant's events, in chronological order. A ring that
    /// recorded under half its capacity is shrunk to what it holds, so a
    /// kept log holds at most about two 48-byte slots per recorded
    /// event, less than the ~109 bytes of its JSONL line; a fuller ring
    /// moves as it is.
    pub(crate) fn events(mut events: Vec<Stamped>) -> TenantLog {
        if events.len() < events.capacity() / 2 {
            events.shrink_to_fit();
        }
        TenantLog {
            events,
            ..TenantLog::default()
        }
    }

    /// A lane tenant's transition records, in cycle order.
    pub(crate) fn lanes(lanes: Vec<LaneRecord>) -> TenantLog {
        TenantLog {
            lanes,
            ..TenantLog::default()
        }
    }

    fn is_empty(&self) -> bool {
        self.events.is_empty() && self.lanes.is_empty()
    }

    /// Append the log to `out` as JSON Lines: each event through
    /// [`Stamped::write_json`], each lane record through its one
    /// renderer, one per line.
    pub(crate) fn write_jsonl(&self, out: &mut String) {
        if let Some(text) = self.text.get() {
            return out.push_str(text);
        }
        for ev in &self.events {
            ev.write_json(out);
            out.push('\n');
        }
        for rec in &self.lanes {
            rec.write_json(out);
            out.push('\n');
        }
    }

    /// The rendered log, rendered on first use.
    fn text(&self) -> &str {
        self.text.get_or_init(|| {
            let mut text = String::new();
            self.write_jsonl(&mut text);
            text
        })
    }
}

/// Routes per-tenant telemetry: recorded logs in, JSONL out.
#[derive(Debug, Default)]
pub(crate) struct TenantRouter {
    logs: BTreeMap<String, TenantLog>,
}

impl TenantRouter {
    /// Append a copy of a live handle's event ring to a tenant's log. A
    /// finished machine's ring is moved in through
    /// [`TenantRouter::keep`] instead.
    #[cfg(test)]
    pub(crate) fn collect(&mut self, tenant: &str, telemetry: &rsp_obs::Telemetry) {
        if let Some(ring) = telemetry.ring_sink() {
            self.keep(tenant, TenantLog::events(ring.events()));
        }
    }

    /// Append a recorded log to a tenant's log: the first non-empty one
    /// is moved in whole, and later ones extend it, so a tenant
    /// collected in several pieces accumulates one stream. An empty log
    /// creates nothing, so a tenant that recorded nothing has no log.
    pub(crate) fn keep(&mut self, tenant: &str, log: TenantLog) {
        if log.is_empty() {
            return;
        }
        match self.logs.get_mut(tenant) {
            Some(kept) => {
                kept.events.extend(log.events);
                kept.lanes.extend(log.lanes);
                kept.text = OnceLock::new();
            }
            None => {
                self.logs.insert(tenant.to_string(), log);
            }
        }
    }

    /// A tenant's JSONL, if it has a log: rendered on the first read
    /// and kept for later ones.
    pub(crate) fn jsonl(&self, tenant: &str) -> Option<&str> {
        self.logs.get(tenant).map(TenantLog::text)
    }

    /// Append a tenant's JSONL to `out` without keeping the text; false
    /// (and `out` untouched) if it has no log.
    pub(crate) fn write_jsonl(&self, tenant: &str, out: &mut String) -> bool {
        self.logs
            .get(tenant)
            .map(|log| log.write_jsonl(out))
            .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_isa::units::UnitType;
    use rsp_obs::{Event, Telemetry};

    fn emit_some(t: &mut Telemetry, cycles: u64) {
        for c in 0..cycles {
            t.set_cycle(c);
            t.emit(Event::LoadStarted {
                head: 0,
                unit: UnitType::IntAlu,
            });
        }
    }

    fn lane(cycle: u64, choice: Option<u8>) -> LaneRecord {
        LaneRecord {
            cycle,
            choice,
            changed: true,
            started: false,
        }
    }

    #[test]
    fn collect_accumulates_per_tenant_logs() {
        let mut router = TenantRouter::default();
        let mut t = Telemetry::ring(8);
        emit_some(&mut t, 2);
        router.collect("t0", &t);
        t.reset();
        emit_some(&mut t, 1);
        router.collect("t0", &t);
        let log = router.jsonl("t0").unwrap();
        assert_eq!(log.lines().count(), 3);
        assert!(log.ends_with('\n'));
        assert!(router.jsonl("t1").is_none());
    }

    #[test]
    fn kept_rings_render_as_the_ring_export() {
        let mut t = Telemetry::ring(4);
        emit_some(&mut t, 7);
        let want = t.to_jsonl().unwrap();
        let mut router = TenantRouter::default();
        router.keep("t0", TenantLog::events(t.into_events().unwrap()));
        let mut once = String::from("kept\n");
        assert!(router.write_jsonl("t0", &mut once));
        assert_eq!(once, format!("kept\n{want}"));
        assert_eq!(router.jsonl("t0"), Some(want.as_str()));
        assert!(!router.write_jsonl("t1", &mut once));

        let mut sparse = Telemetry::ring(64);
        emit_some(&mut sparse, 3);
        router.keep("t1", TenantLog::events(sparse.into_events().unwrap()));
        assert_eq!(router.logs["t0"].events.capacity(), 4, "full: moved as is");
        assert!(router.logs["t1"].events.capacity() < 32, "sparse: shrunk");
    }

    #[test]
    fn a_later_piece_replaces_the_rendered_text() {
        let mut router = TenantRouter::default();
        router.keep("t0", TenantLog::lanes(vec![lane(1, Some(2))]));
        assert_eq!(router.jsonl("t0").unwrap().lines().count(), 1);
        router.keep("t0", TenantLog::lanes(vec![lane(5, None)]));
        assert_eq!(
            router.jsonl("t0").unwrap(),
            "{\"cycle\":1,\"choice\":2,\"changed\":true,\"started\":false}\n\
             {\"cycle\":5,\"choice\":-1,\"changed\":true,\"started\":false}\n"
        );
    }

    #[test]
    fn lane_records_build_lane_tenant_logs() {
        let mut router = TenantRouter::default();
        router.keep(
            "t2",
            TenantLog::lanes(vec![lane(4, Some(1)), lane(9, Some(2))]),
        );
        router.keep("t1", TenantLog::lanes(vec![lane(0, Some(0))]));
        router.keep("t3", TenantLog::lanes(Vec::new()));
        assert_eq!(router.jsonl("t2").unwrap().lines().count(), 2);
        assert!(router.jsonl("t3").is_none(), "no records, no log");
        // Deterministic (sorted) tenant order.
        let tenants: Vec<&str> = router.logs.keys().map(String::as_str).collect();
        assert_eq!(tenants, vec!["t1", "t2"]);
    }

    #[test]
    fn counting_handles_route_nothing() {
        let mut router = TenantRouter::default();
        let mut t = Telemetry::counting();
        assert!(t.enabled());
        emit_some(&mut t, 2);
        router.collect("t0", &t);
        // Nothing to collect without a ring, but metrics still counted.
        assert!(router.logs.is_empty());
        assert!(t.snapshot().counter("loads_started").unwrap() >= 2);
    }

    #[test]
    fn lane_logs_render_one_line_per_record() {
        let mut router = TenantRouter::default();
        router.keep("t0", TenantLog::lanes(vec![lane(1, Some(0))]));
        router.keep("t1", TenantLog::lanes(vec![lane(2, Some(1))]));
        let mut body = String::new();
        assert!(router.write_jsonl("t0", &mut body));
        assert_eq!(
            body,
            "{\"cycle\":1,\"choice\":0,\"changed\":true,\"started\":false}\n"
        );
        assert!(!router.write_jsonl("t2", &mut body));
    }
}

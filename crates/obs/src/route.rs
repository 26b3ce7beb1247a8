//! Per-tenant sink routing for `rsp-serve` (DESIGN.md §14).
//!
//! The serve engine multiplexes many tenants over shared machines, but
//! each tenant's telemetry must stay its own: the replay acceptance
//! criterion compares a tenant's served JSONL byte-for-byte against an
//! offline rerun of the same `(spec, seed)`. The router hands each
//! tenant a fresh ring [`Telemetry`] handle on attach, collects the
//! ring's JSONL export when the tenant retires (machines are recycled
//! through the pool, so the handle must be drained before reuse), and
//! keeps the accumulated per-tenant logs keyed by tenant id in
//! deterministic order.
//!
//! Lane tenants have no `Telemetry` handle (the bit-sliced kernel has
//! no per-lane event stream); the engine appends their sparse
//! transition records directly via [`TenantRouter::append_line`], using
//! the same JSONL-per-tenant discipline.

use crate::Telemetry;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Routes per-tenant telemetry: fresh ring handles out, JSONL back.
#[derive(Debug, Default)]
pub struct TenantRouter {
    ring_capacity: usize,
    logs: BTreeMap<String, String>,
    /// Reused render buffer for [`TenantRouter::collect`]: a ring
    /// renders here, then is copied onto the tenant's log, so each log
    /// is allocated at exactly its length and no per-tenant render
    /// buffer is allocated once this one has grown.
    scratch: String,
}

impl TenantRouter {
    /// A router handing out ring sinks of `ring_capacity` events.
    pub fn new(ring_capacity: usize) -> TenantRouter {
        TenantRouter {
            ring_capacity,
            logs: BTreeMap::new(),
            scratch: String::new(),
        }
    }

    /// Ring capacity of handles this router creates.
    pub fn ring_capacity(&self) -> usize {
        self.ring_capacity
    }

    /// A fresh telemetry handle for a tenant: full ring telemetry when
    /// the router's capacity is positive, metrics-only otherwise.
    pub fn attach(&self) -> Telemetry {
        if self.ring_capacity > 0 {
            Telemetry::ring(self.ring_capacity)
        } else {
            Telemetry::counting()
        }
    }

    /// Drain a retiring tenant's handle into its log. Appends, so a
    /// tenant collected in several quanta accumulates one stream.
    pub fn collect(&mut self, tenant: &str, telemetry: &Telemetry) {
        if let Some(ring) = telemetry.ring_sink() {
            self.scratch.clear();
            ring.write_jsonl(&mut self.scratch);
            if !self.scratch.is_empty() {
                log_for(&mut self.logs, tenant).push_str(&self.scratch);
            }
        }
    }

    /// Append one pre-rendered JSONL line to a tenant's log (the lane
    /// tenants' path). `line` must not contain a newline.
    pub fn append_line(&mut self, tenant: &str, line: &str) {
        debug_assert!(!line.contains('\n'), "append_line takes a single line");
        let log = log_for(&mut self.logs, tenant);
        log.push_str(line);
        log.push('\n');
    }

    /// A tenant's accumulated JSONL, if any was routed.
    pub fn jsonl(&self, tenant: &str) -> Option<&str> {
        self.logs.get(tenant).map(String::as_str)
    }

    /// Tenant ids with routed telemetry, in sorted order.
    pub fn tenants(&self) -> impl Iterator<Item = &str> {
        self.logs.keys().map(String::as_str)
    }

    /// Number of tenants with routed telemetry.
    pub fn len(&self) -> usize {
        self.logs.len()
    }

    /// True iff no telemetry has been routed.
    pub fn is_empty(&self) -> bool {
        self.logs.is_empty()
    }

    /// Write one `<tenant>.jsonl` per tenant into `dir` (created if
    /// missing); returns the written paths in tenant order.
    ///
    /// Tenant ids are used as file names, so callers must only route
    /// ids they generated themselves (the serve engine assigns
    /// `t<number>`), never client-supplied strings.
    pub fn export_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut out = Vec::with_capacity(self.logs.len());
        for (tenant, log) in &self.logs {
            let path = dir.join(format!("{tenant}.jsonl"));
            let mut f = std::fs::File::create(&path)?;
            f.write_all(log.as_bytes())?;
            out.push(path);
        }
        Ok(out)
    }
}

/// A tenant's log, created empty on first use; the owned key is only
/// allocated then.
fn log_for<'a>(logs: &'a mut BTreeMap<String, String>, tenant: &str) -> &'a mut String {
    if !logs.contains_key(tenant) {
        logs.insert(tenant.to_string(), String::new());
    }
    logs.get_mut(tenant).expect("inserted above")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;
    use rsp_isa::units::UnitType;

    fn emit_some(t: &mut Telemetry, cycles: u64) {
        for c in 0..cycles {
            t.set_cycle(c);
            t.emit(Event::LoadStarted {
                head: 0,
                unit: UnitType::IntAlu,
            });
        }
    }

    #[test]
    fn attach_hands_out_independent_ring_handles() {
        let router = TenantRouter::new(8);
        let mut a = router.attach();
        let mut b = router.attach();
        emit_some(&mut a, 3);
        emit_some(&mut b, 1);
        assert_eq!(a.ring_sink().unwrap().events().len(), 3);
        assert_eq!(b.ring_sink().unwrap().events().len(), 1);
    }

    #[test]
    fn collect_accumulates_per_tenant_logs() {
        let mut router = TenantRouter::new(8);
        let mut t = router.attach();
        emit_some(&mut t, 2);
        router.collect("t0", &t);
        t.reset();
        emit_some(&mut t, 1);
        router.collect("t0", &t);
        let log = router.jsonl("t0").unwrap();
        assert_eq!(log.lines().count(), 3);
        assert!(log.ends_with('\n'));
        assert!(router.jsonl("t1").is_none());
        assert_eq!(router.tenants().collect::<Vec<_>>(), vec!["t0"]);
    }

    #[test]
    fn append_line_builds_lane_tenant_logs() {
        let mut router = TenantRouter::new(0);
        router.append_line("t2", r#"{"cycle":4,"choice":1}"#);
        router.append_line("t2", r#"{"cycle":9,"choice":2}"#);
        router.append_line("t1", r#"{"cycle":0,"choice":0}"#);
        assert_eq!(router.jsonl("t2").unwrap().lines().count(), 2);
        // Deterministic (sorted) tenant order.
        assert_eq!(router.tenants().collect::<Vec<_>>(), vec!["t1", "t2"]);
    }

    #[test]
    fn zero_capacity_router_hands_out_counting_handles() {
        let mut router = TenantRouter::new(0);
        let mut t = router.attach();
        assert!(t.enabled());
        assert!(t.ring_sink().is_none());
        emit_some(&mut t, 2);
        router.collect("t0", &t);
        // Nothing to collect without a ring, but metrics still counted.
        assert!(router.is_empty());
        assert!(t.snapshot().counter("loads_started").unwrap() >= 2);
    }

    #[test]
    fn export_writes_one_file_per_tenant() {
        let mut router = TenantRouter::new(4);
        router.append_line("t0", r#"{"a":1}"#);
        router.append_line("t1", r#"{"b":2}"#);
        let dir = std::env::temp_dir().join(format!("rsp_route_test_{}", std::process::id()));
        let paths = router.export_dir(&dir).unwrap();
        assert_eq!(paths.len(), 2);
        let body = std::fs::read_to_string(&paths[0]).unwrap();
        assert_eq!(body, "{\"a\":1}\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! Tenant identity and lifecycle types.
//!
//! A tenant is one admitted workload stream: a [`StreamSpec`] plus the
//! per-tenant knobs the server honours (policy override, telemetry
//! ring capacity). Tenants are identified by a server-assigned numeric
//! id; the id's string form (`tenant_key`) keys the per-tenant
//! telemetry log the engine keeps for it.

use rsp_sim::PolicyKind;
use rsp_workloads::StreamSpec;
use serde::{Deserialize, Serialize};

/// The string key a tenant's telemetry is routed under (`t<id>`).
/// Server-generated — never a client-supplied string — so it is safe
/// as a file name in telemetry exports.
pub(crate) fn tenant_key(id: u64) -> String {
    format!("t{id}")
}

/// A tenant admission request: the stream to run plus per-tenant knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantRequest {
    /// The workload stream (spec + seed + cycle budget).
    pub spec: StreamSpec,
    /// Steering-policy override applied on top of the server's base
    /// [`rsp_sim::SimConfig`] (`None` = serve with the base policy).
    #[serde(default)]
    pub policy: Option<PolicyKind>,
    /// Telemetry ring capacity for scalar tenants (0 = metrics only,
    /// no event log), at most [`MAX_TELEMETRY_CAPACITY`]. Ignored by
    /// lane tenants, whose telemetry is the sparse transition stream.
    #[serde(default)]
    pub telemetry_capacity: usize,
}

/// The largest telemetry ring a tenant may request, in events. The ring
/// is allocated whole when the tenant activates, so admission sheds a
/// larger request as `BadSpec` instead of letting one frame book
/// memory without bound (about 3 MiB at this cap).
pub const MAX_TELEMETRY_CAPACITY: usize = 1 << 16;

impl TenantRequest {
    /// A request with the default knobs: base policy, 256-event ring.
    pub fn new(spec: StreamSpec) -> TenantRequest {
        TenantRequest {
            spec,
            policy: None,
            telemetry_capacity: 256,
        }
    }
}

/// Where a tenant is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TenantPhase {
    /// Admitted, waiting in the activation queue.
    Queued,
    /// Actively stepping on a machine or lane.
    Running,
    /// Finished (halted, budget exhausted, or trace drained).
    Done,
    /// Activation failed server-side (never stepped).
    Failed,
}

/// A tenant's externally visible status.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantStatus {
    /// Server-assigned tenant id.
    pub id: u64,
    /// The stream's name (reporting only).
    pub name: String,
    /// Lifecycle phase.
    pub phase: TenantPhase,
    /// Cycles stepped so far (the tenant's own clock, not the server's).
    pub cycles: u64,
    /// For scalar tenants: the program halted before the cycle budget.
    /// For lane tenants: the trace was fully drained.
    pub halted: bool,
    /// True iff this tenant runs on the bit-sliced lane kernel.
    pub lane: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_workloads::{StreamSpec, SynthSpec, UnitMix};

    #[test]
    fn requests_round_trip_and_default_optional_knobs() {
        let spec = StreamSpec::synth("s", SynthSpec::new("s", UnitMix::BALANCED, 1), 1000);
        let req = TenantRequest::new(spec.clone());
        let json = serde_json::to_string(&req).unwrap();
        let back: TenantRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);

        // A wire request that omits the optional knobs still parses.
        let minimal = format!("{{\"spec\":{}}}", spec.to_json());
        let back: TenantRequest = serde_json::from_str(&minimal).unwrap();
        assert_eq!(back.policy, None);
        assert_eq!(back.telemetry_capacity, 0);
    }

    #[test]
    fn tenant_keys_are_stable() {
        assert_eq!(tenant_key(0), "t0");
        assert_eq!(tenant_key(41), "t41");
    }
}

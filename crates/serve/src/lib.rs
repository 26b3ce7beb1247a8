//! # rsp-serve — steering-as-a-service over a pooled machine fleet
//!
//! A long-running server that owns a pool of simulated machines and
//! steps many concurrent tenant workload streams (DESIGN.md §14). The
//! paper's selection unit steers one machine; this crate puts that
//! machine behind a service boundary so an *arrival mix* of many
//! independent streams becomes observable — the queuing-model framing
//! under which capacity should be configured to offered load.
//!
//! Six layers:
//!
//! * **transport** ([`protocol`], [`server`], [`client`]) — 4-byte
//!   length-prefixed JSON frames over TCP or Unix sockets, std-only;
//! * **admission** ([`scheduler`]) — one policy, [`WatermarkScheduler`],
//!   kept apart from stepping: it sheds with explicit [`ShedReason`]s
//!   at a queue-depth or step-lag watermark instead of silently
//!   stalling, and paces tenants with deficit-round-robin credits per
//!   stream weight (flat round-robin at its default `max_weight` of 1;
//!   DESIGN.md §16);
//! * **stepping** ([`engine`]) — scalar tenants earn deficit-round-
//!   robin grants on pooled `Machine`s; compatible lane tenants pack
//!   64-per-word onto the bit-sliced lane kernel, optionally held a
//!   few ticks to pack fuller groups;
//! * **sharding** ([`fleet`]) — [`ShardedEngine`], the engine the
//!   server runs at every shard count, fans tenants over N engines by
//!   a stable affinity hash; stats, SLO slabs, and metrics frames merge
//!   back into one fleet view with the per-tenant-sums-to-aggregate
//!   invariant intact (DESIGN.md §16);
//! * **telemetry** — per-tenant ring-JSONL streams kept by the
//!   engine's tenant router; any tenant is bit-identically replayable
//!   offline from `(spec, seed)` alone ([`replay`]);
//! * **observability** ([`slo`]) — per-tenant SLO histograms
//!   (admission-to-first-step, queue residency, step lag, quantum
//!   cycles) in fixed slabs off the hot path, exposed over the wire as
//!   a [`MetricsFrame`] and as Prometheus text, plus a bounded flight
//!   recorder that dumps the recent event ring on anomaly triggers
//!   (shed storms, replay mismatches, engine panics — DESIGN.md §15).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod client;
pub mod engine;
pub mod fleet;
pub mod protocol;
mod route;
pub mod scheduler;
pub mod server;
pub mod slo;
pub mod tenant;
mod transport;

pub use client::ServeClient;
pub use engine::{replay, EngineConfig, EngineStats, ServeEngine, LANES_PER_GROUP};
pub use fleet::{shard_of, PanicFlightGuard, ShardedEngine};
pub use protocol::{RefusedFrames, Request, Response, MAX_FRAME};
pub use scheduler::{LoadSnapshot, ShedReason, SpecNote, WatermarkScheduler, SPEC_NOTE_CAP};
pub use server::{Server, ServerConfig};
pub use slo::{MetricsFrame, SloRegistry, TenantMetrics, SLO_HISTO_NAMES};
pub use tenant::{TenantPhase, TenantRequest, TenantStatus, MAX_TELEMETRY_CAPACITY};

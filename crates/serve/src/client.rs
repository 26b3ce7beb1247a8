//! Blocking socket client for the serve protocol.
//!
//! One request/response pair per call, over a persistent connection.
//! Used by the `rsp-serve drive` smoke mode, the CI job, and the
//! socket integration tests; it is intentionally the *only* way this
//! workspace talks to a running server, so protocol drift shows up in
//! the tests immediately.

use crate::engine::EngineStats;
use crate::protocol::{self, Request, Response};
use crate::scheduler::ShedReason;
use crate::slo::MetricsFrame;
use crate::tenant::{TenantRequest, TenantStatus};
use crate::transport::Stream;
use std::io;

/// A connected serve client.
pub struct ServeClient {
    stream: Stream,
}

impl ServeClient {
    /// Connect to `addr` (TCP `host:port`, or a Unix socket path when
    /// the address contains `/`).
    pub fn connect(addr: &str) -> io::Result<ServeClient> {
        Ok(ServeClient {
            stream: Stream::connect(addr)?,
        })
    }

    /// Whether `TCP_NODELAY` is set (`true` on a Unix socket, which
    /// has no Nagle delay).
    #[cfg(test)]
    pub(crate) fn nodelay(&self) -> io::Result<bool> {
        self.stream.nodelay()
    }

    fn roundtrip(&mut self, req: &Request) -> io::Result<Response> {
        protocol::write_frame(&mut self.stream, req)?;
        match protocol::read_frame(&mut self.stream)? {
            Some(text) => protocol::decode(&text),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
        }
    }

    fn unexpected(resp: Response) -> io::Error {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected response: {resp:?}"),
        )
    }

    /// Submit a tenant; `Ok(Ok(id))` on admission, `Ok(Err(reason))`
    /// on an explicit shed.
    pub fn submit(&mut self, req: TenantRequest) -> io::Result<Result<u64, ShedReason>> {
        match self.roundtrip(&Request::Submit(req))? {
            Response::Admitted { id } => Ok(Ok(id)),
            Response::Shed { reason } => Ok(Err(reason)),
            other => Err(Self::unexpected(other)),
        }
    }

    /// A tenant's status (`None` = unknown id).
    pub fn status(&mut self, id: u64) -> io::Result<Option<TenantStatus>> {
        match self.roundtrip(&Request::Status { id })? {
            Response::Status(s) => Ok(Some(s)),
            Response::NotFound { .. } => Ok(None),
            other => Err(Self::unexpected(other)),
        }
    }

    /// A tenant's routed telemetry JSONL (`None` = unknown id).
    pub fn telemetry(&mut self, id: u64) -> io::Result<Option<String>> {
        match self.roundtrip(&Request::Telemetry { id })? {
            Response::Telemetry { jsonl, .. } => Ok(Some(jsonl)),
            Response::NotFound { .. } => Ok(None),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Aggregate server counters.
    pub fn stats(&mut self) -> io::Result<EngineStats> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(Self::unexpected(other)),
        }
    }

    /// The full SLO metrics frame (engine stats + aggregate and
    /// per-tenant snapshots).
    pub fn metrics(&mut self) -> io::Result<MetricsFrame> {
        match self.roundtrip(&Request::Metrics)? {
            Response::Metrics(f) => Ok(f),
            other => Err(Self::unexpected(other)),
        }
    }

    /// The server-rendered Prometheus text exposition.
    pub fn exposition(&mut self) -> io::Result<String> {
        match self.roundtrip(&Request::Exposition)? {
            Response::Exposition { text } => Ok(text),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Ask the server to stop; returns once `Bye` is acknowledged.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }
}

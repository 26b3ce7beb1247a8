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
use crate::server::is_unix_addr;
use crate::slo::MetricsFrame;
use crate::tenant::{TenantRequest, TenantStatus};
use std::io::{self, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;

enum ClientStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Read for ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            ClientStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for ClientStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            ClientStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            ClientStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            ClientStream::Unix(s) => s.flush(),
        }
    }
}

/// A connected serve client.
pub struct ServeClient {
    stream: ClientStream,
}

impl ServeClient {
    /// Connect to `addr` (TCP `host:port`, or a Unix socket path when
    /// the address contains `/`).
    pub fn connect(addr: &str) -> io::Result<ServeClient> {
        let stream = if is_unix_addr(addr) {
            #[cfg(unix)]
            {
                ClientStream::Unix(UnixStream::connect(addr)?)
            }
            #[cfg(not(unix))]
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix socket addresses need a unix platform",
            ));
        } else {
            let stream = TcpStream::connect(addr)?;
            // One frame per request, then wait for the reply: never
            // let Nagle hold a frame back.
            stream.set_nodelay(true)?;
            ClientStream::Tcp(stream)
        };
        Ok(ServeClient { stream })
    }

    /// Whether `TCP_NODELAY` is set (`true` on a Unix socket, which
    /// has no Nagle delay).
    #[cfg(test)]
    pub(crate) fn nodelay(&self) -> io::Result<bool> {
        match &self.stream {
            ClientStream::Tcp(s) => s.nodelay(),
            #[cfg(unix)]
            ClientStream::Unix(_) => Ok(true),
        }
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

//! The serve stack's one socket type: a stream or listener over TCP or
//! a Unix-domain socket. The TCP-vs-Unix decision lives only here; the
//! server and the client see a [`Stream`] that reads and writes.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;

/// True iff `addr` names a Unix-domain socket path rather than a TCP
/// address (contains `/`, the convention the CLI documents).
pub(crate) fn is_unix_addr(addr: &str) -> bool {
    addr.contains('/')
}

#[cfg(not(unix))]
fn unix_unsupported() -> io::Error {
    io::Error::new(
        io::ErrorKind::Unsupported,
        "unix socket addresses need a unix platform",
    )
}

/// One connected socket.
pub(crate) enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    /// Connect to `addr` (TCP `host:port`, or a Unix socket path). TCP
    /// streams get `TCP_NODELAY`: every request is one frame the peer
    /// waits on, so Nagle would only hold it back.
    pub(crate) fn connect(addr: &str) -> io::Result<Stream> {
        if is_unix_addr(addr) {
            #[cfg(unix)]
            return UnixStream::connect(addr).map(Stream::Unix);
            #[cfg(not(unix))]
            return Err(unix_unsupported());
        }
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        Ok(Stream::Tcp(s))
    }

    /// A second handle on the same socket.
    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    /// Shut down one or both halves of the socket, for every handle on
    /// it. A read blocked on another handle then returns `Ok(0)`.
    pub(crate) fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(how),
            #[cfg(unix)]
            Stream::Unix(s) => s.shutdown(how),
        }
    }

    /// Whether `TCP_NODELAY` is set (`true` on a Unix socket, which
    /// has no Nagle delay).
    #[cfg(test)]
    pub(crate) fn nodelay(&self) -> io::Result<bool> {
        match self {
            Stream::Tcp(s) => s.nodelay(),
            #[cfg(unix)]
            Stream::Unix(_) => Ok(true),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A bound listening socket. A Unix listener removes its socket file
/// when dropped.
pub(crate) enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Bind `addr`; returns the listener and its bound address (TCP
    /// port 0 resolved to the port picked).
    pub(crate) fn bind(addr: &str) -> io::Result<(Listener, String)> {
        if is_unix_addr(addr) {
            #[cfg(unix)]
            {
                let path = PathBuf::from(addr);
                // A stale socket file from a crashed server blocks
                // rebinding; remove it (connect would fail anyway).
                let _ = std::fs::remove_file(&path);
                let l = UnixListener::bind(&path)?;
                return Ok((Listener::Unix(l, path), addr.to_string()));
            }
            #[cfg(not(unix))]
            return Err(unix_unsupported());
        }
        let l = TcpListener::bind(addr)?;
        let bound = l.local_addr()?.to_string();
        Ok((Listener::Tcp(l), bound))
    }

    /// Accept one connection, as a blocking stream even where accepted
    /// sockets inherit the listener's non-blocking mode. TCP streams get
    /// `TCP_NODELAY` (see [`Stream::connect`]); a failing `set_nodelay`
    /// (the peer already reset) is left to the connection's first read.
    pub(crate) fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                let _ = s.set_nodelay(true);
                Ok(Stream::Tcp(s))
            }
            #[cfg(unix)]
            Listener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                Ok(Stream::Unix(s))
            }
        }
    }

    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.set_nonblocking(nonblocking),
        }
    }
}

#[cfg(unix)]
impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

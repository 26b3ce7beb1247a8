//! The long-running server: transport layer over the engine.
//!
//! Layering (DESIGN.md §14): connection threads own only framing —
//! each decoded [`Request`] is forwarded over an mpsc channel to the
//! one engine thread, which interleaves request handling with
//! [`ShardedEngine::tick`]. The engine never touches a socket and every
//! admission decision happens on the engine thread, so the serving
//! behaviour is exactly the in-process engine the tests drive.
//!
//! The engine thread owns a [`ShardedEngine`] of [`ServerConfig::shards`]
//! shards (DESIGN.md §16), ticked in lockstep. Per-tenant requests go
//! to the tenant's affinity shard under fleet-global ids; fleet-wide
//! reads (`Stats`/`Metrics`/`Exposition`) merge every shard's part, so
//! clients cannot tell a sharded server from a big single engine. With
//! one shard the replies are exactly a single engine's.
//!
//! Shutdown: a `Shutdown` request is answered with `Bye`, then the
//! engine thread finishes its current drain, telemetry is exported
//! under fleet-global ids (when configured), and the final merged stats
//! are returned once the accept loop exits. Connection reads use a
//! short timeout so every thread observes the shutdown flag promptly
//! instead of blocking forever.

use crate::engine::{EngineConfig, EngineStats};
use crate::fleet::{PanicFlightGuard, ShardedEngine};
use crate::protocol::{self, Request, Response};
use crate::scheduler::WatermarkScheduler;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Engine parameters (base machine config, pool size).
    pub engine: EngineConfig,
    /// Admission watermarks and weighted-fair pacing (`max_weight` 1 =
    /// flat round-robin), applied per shard.
    pub scheduler: WatermarkScheduler,
    /// Engine shards, ticked in lockstep on the engine thread: each
    /// shard's serial tick phases run in shard order around one step
    /// phase that fans every shard's scalar tenants out over worker
    /// threads together. Each shard owns a full machine pool and
    /// scheduler, and tenants are pinned by affinity hash. 0 is treated
    /// as 1.
    pub shards: usize,
    /// Engine idle-poll interval (how long the engine thread waits for
    /// commands when nothing is running).
    pub idle_poll: Duration,
    /// Export per-tenant telemetry here on shutdown (`None` = skip).
    pub telemetry_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            engine: EngineConfig::default(),
            scheduler: WatermarkScheduler::default(),
            shards: 1,
            idle_poll: Duration::from_millis(2),
            telemetry_dir: None,
        }
    }
}

/// Read timeout on connection sockets; bounds how long a connection
/// thread can miss the shutdown flag.
const CONN_READ_TIMEOUT: Duration = Duration::from_millis(250);

enum ListenerKind {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl ListenerKind {
    /// Accept one connection. TCP streams get `TCP_NODELAY`: every
    /// reply is one frame the client is waiting on, so Nagle would only
    /// hold it back for the client's delayed ACK. An error here ends the
    /// accept loop, so a failing `set_nodelay` (the peer already reset)
    /// is left to that connection's own first read.
    fn accept(&self) -> io::Result<ConnStream> {
        match self {
            ListenerKind::Tcp(l) => {
                let (s, _) = l.accept()?;
                let _ = s.set_nodelay(true);
                Ok(ConnStream::Tcp(s))
            }
            #[cfg(unix)]
            ListenerKind::Unix(l, _) => l.accept().map(|(s, _)| ConnStream::Unix(s)),
        }
    }
}

enum ConnStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Read for ConnStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ConnStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            ConnStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for ConnStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ConnStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            ConnStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            ConnStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            ConnStream::Unix(s) => s.flush(),
        }
    }
}

/// True iff `addr` names a Unix-domain socket path rather than a TCP
/// address (contains `/`, the convention the CLI documents).
pub fn is_unix_addr(addr: &str) -> bool {
    addr.contains('/')
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: ListenerKind,
    addr: String,
    cfg: ServerConfig,
}

struct Command {
    req: Request,
    reply: mpsc::Sender<Response>,
}

impl Server {
    /// Bind `addr` (TCP `host:port`, or a Unix socket path when the
    /// address contains `/`). TCP port 0 picks a free port; the bound
    /// address is reported by [`Server::local_addr`].
    pub fn bind(addr: &str, cfg: ServerConfig) -> io::Result<Server> {
        if is_unix_addr(addr) {
            #[cfg(unix)]
            {
                let path = PathBuf::from(addr);
                // A stale socket file from a crashed server blocks
                // rebinding; remove it (connect would fail anyway).
                let _ = std::fs::remove_file(&path);
                let listener = UnixListener::bind(&path)?;
                return Ok(Server {
                    listener: ListenerKind::Unix(listener, path),
                    addr: addr.to_string(),
                    cfg,
                });
            }
            #[cfg(not(unix))]
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix socket addresses need a unix platform",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?.to_string();
        Ok(Server {
            listener: ListenerKind::Tcp(listener),
            addr,
            cfg,
        })
    }

    /// The actually bound address (resolves TCP port 0).
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// Serve until a `Shutdown` request arrives; returns the final
    /// engine counters.
    pub fn run(self) -> io::Result<EngineStats> {
        let Server {
            listener,
            addr: _,
            cfg,
        } = self;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<Command>();

        let engine_shutdown = shutdown.clone();
        let engine_thread = std::thread::spawn(move || {
            let mut engine = ShardedEngine::new(cfg.engine, cfg.scheduler, cfg.shards);
            run_engine(&mut engine, rx, cfg.idle_poll);
            engine_shutdown.store(true, Ordering::SeqCst);
            if let Some(dir) = cfg.telemetry_dir {
                let _ = engine.export_telemetry(&dir);
            }
            engine.stats()
        });

        match &listener {
            ListenerKind::Tcp(l) => l.set_nonblocking(true)?,
            #[cfg(unix)]
            ListenerKind::Unix(l, _) => l.set_nonblocking(true)?,
        }
        let mut conn_threads = Vec::new();
        while !shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok(stream) => {
                    let tx = tx.clone();
                    let shutdown = shutdown.clone();
                    conn_threads.push(std::thread::spawn(move || {
                        conn_loop(stream, tx, shutdown);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => {
                    shutdown.store(true, Ordering::SeqCst);
                    drop(tx);
                    let _ = engine_thread.join();
                    return Err(e);
                }
            }
        }
        drop(tx);
        for t in conn_threads {
            let _ = t.join();
        }
        #[cfg(unix)]
        if let ListenerKind::Unix(_, path) = &listener {
            let _ = std::fs::remove_file(path);
        }
        engine_thread
            .join()
            .map_err(|_| io::Error::other("engine thread panicked"))
    }
}

/// One connection: read frames, forward to the engine, write replies.
fn conn_loop(mut stream: ConnStream, tx: mpsc::Sender<Command>, shutdown: Arc<AtomicBool>) {
    let set_timeout = |s: &ConnStream| match s {
        ConnStream::Tcp(s) => s.set_read_timeout(Some(CONN_READ_TIMEOUT)),
        #[cfg(unix)]
        ConnStream::Unix(s) => s.set_read_timeout(Some(CONN_READ_TIMEOUT)),
    };
    if set_timeout(&stream).is_err() {
        return;
    }
    loop {
        let text = match read_frame_interruptible(&mut stream, &shutdown) {
            Ok(Some(t)) => t,
            Ok(None) => return, // clean EOF or shutdown
            Err(_) => return,
        };
        let response = match protocol::decode::<Request>(&text) {
            Ok(req) => {
                let (rtx, rrx) = mpsc::channel();
                if tx.send(Command { req, reply: rtx }).is_err() {
                    Response::Error {
                        msg: "server shutting down".into(),
                    }
                } else {
                    rrx.recv().unwrap_or(Response::Error {
                        msg: "engine dropped the request".into(),
                    })
                }
            }
            Err(e) => Response::Error { msg: e.to_string() },
        };
        let bye = matches!(response, Response::Bye);
        if protocol::write_frame(&mut stream, &response).is_err() || bye {
            return;
        }
    }
}

/// Like [`protocol::read_frame`], but treats read timeouts as a chance
/// to observe the shutdown flag instead of an error. Safe against
/// partial reads: progress within the frame is tracked across retries.
fn read_frame_interruptible(
    stream: &mut ConnStream,
    shutdown: &AtomicBool,
) -> io::Result<Option<String>> {
    let mut header = [0u8; 4];
    if !read_n(stream, &mut header, shutdown, true)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > protocol::MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    let mut body = vec![0u8; len];
    if !read_n(stream, &mut body, shutdown, false)? {
        return Ok(None);
    }
    String::from_utf8(body)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// Fill `buf`, retrying on timeout until shutdown. Returns false on a
/// clean stop (EOF before any byte when `eof_ok`, or shutdown at a
/// frame boundary with nothing read). Shutdown inside a frame is an
/// error: a peer that sent part of a frame and stalled must not hold
/// the server's shutdown, which joins every connection thread.
fn read_n(
    stream: &mut ConnStream,
    buf: &mut [u8],
    shutdown: &AtomicBool,
    eof_ok: bool,
) -> io::Result<bool> {
    let mut got = 0;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) if got == 0 && eof_ok => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame",
                ))
            }
            Ok(n) => got += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    if got == 0 && eof_ok {
                        return Ok(false);
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "shutdown inside frame",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

fn handle(engine: &mut ShardedEngine, req: Request, bye: &mut bool) -> Response {
    match req {
        Request::Submit(r) => match engine.submit(r) {
            Ok(id) => Response::Admitted { id },
            Err(reason) => Response::Shed { reason },
        },
        Request::Status { id } => match engine.status(id) {
            Some(s) => Response::Status(s),
            None => Response::NotFound { id },
        },
        Request::Telemetry { id } => {
            if engine.status(id).is_none() {
                Response::NotFound { id }
            } else {
                Response::Telemetry {
                    id,
                    jsonl: engine.telemetry(id).unwrap_or_default().to_string(),
                }
            }
        }
        Request::Stats => Response::Stats(engine.stats()),
        Request::Metrics => Response::Metrics(engine.metrics()),
        Request::Exposition => Response::Exposition {
            text: engine.metrics().to_prometheus(),
        },
        Request::Shutdown => {
            *bye = true;
            Response::Bye
        }
    }
}

/// The engine's serve loop, driven through a [`PanicFlightGuard`]: if
/// the loop panics, the guard's `Drop` dumps every shard's flight ring
/// (with an `EnginePanic` trigger entry) before the thread unwinds.
fn run_engine(engine: &mut ShardedEngine, rx: mpsc::Receiver<Command>, idle_poll: Duration) {
    let guard = PanicFlightGuard::new(engine);
    let mut bye = false;
    loop {
        while let Ok(cmd) = rx.try_recv() {
            let resp = handle(&mut *guard.engine, cmd.req, &mut bye);
            let _ = cmd.reply.send(resp);
        }
        if bye {
            break;
        }
        if guard.engine.is_idle() {
            match rx.recv_timeout(idle_poll) {
                Ok(cmd) => {
                    let resp = handle(&mut *guard.engine, cmd.req, &mut bye);
                    let _ = cmd.reply.send(resp);
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        } else {
            guard.engine.tick();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServeClient;

    #[test]
    fn tcp_streams_disable_nagle_on_both_ends() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let client = ServeClient::connect(server.local_addr()).unwrap();
        assert!(client.nodelay().unwrap(), "client end");
        match server.listener.accept().unwrap() {
            ConnStream::Tcp(s) => assert!(s.nodelay().unwrap(), "server end"),
            #[cfg(unix)]
            ConnStream::Unix(_) => panic!("bound a TCP address"),
        }
    }
}

//! The long-running server: transport layer over the engine.
//!
//! Layering (DESIGN.md §14): connection threads own only framing —
//! each decoded [`Request`] is forwarded over an mpsc channel to the
//! engine side, which interleaves request handling with
//! [`ServeEngine::tick`]. The engine never touches a socket and every
//! admission decision happens on an engine thread, so the serving
//! behaviour is exactly the in-process engine the unit tests drive.
//!
//! Sharded mode (DESIGN.md §16): with [`ServerConfig::shards`] > 1 the
//! command channel feeds a *router* thread instead, which owns the
//! global↔local id table and forwards each request to the tenant's
//! affinity shard ([`crate::fleet::shard_of`]) — one engine thread per
//! shard, each running the same serve loop as the single-engine path.
//! Fleet-wide reads (`Stats`/`Metrics`/`Exposition`) fan out and merge
//! with the [`crate::fleet`] helpers, so clients cannot tell a sharded
//! server from a big single engine.
//!
//! Shutdown: a `Shutdown` request is answered with `Bye`, then the
//! engine thread(s) finish their current drain, telemetry is exported
//! under fleet-global ids (when configured), final stats are merged,
//! and the accept loop exits. Connection reads use a short timeout so
//! every thread observes the shutdown flag promptly instead of
//! blocking forever.

use crate::engine::{EngineConfig, EngineStats, PanicFlightGuard, ServeEngine};
use crate::fleet::{merge_frames, merge_stats, shard_of};
use crate::protocol::{self, Request, Response};
use crate::scheduler::{Scheduler, WatermarkScheduler, WfqScheduler};
use crate::slo::MetricsFrame;
use crate::tenant::tenant_key;
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
    /// Admission policy watermarks.
    pub scheduler: WatermarkScheduler,
    /// Serve with weighted-fair (deficit-round-robin) quanta honouring
    /// per-tenant stream weights, instead of flat round-robin. The
    /// watermarks above still gate admission either way.
    pub wfq: bool,
    /// Engine shards (threads); each owns a full machine pool and
    /// scheduler, tenants are pinned by affinity hash. 0 or 1 = the
    /// single-engine path.
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
            wfq: false,
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
        let engine_cfg = cfg.engine.clone();
        // Flat round-robin is WFQ with every weight clamped to 1.
        let scheduler = WfqScheduler {
            watermarks: cfg.scheduler,
            max_weight: if cfg.wfq {
                rsp_workloads::MAX_STREAM_WEIGHT
            } else {
                1
            },
        };
        let shards = cfg.shards;
        let idle_poll = cfg.idle_poll;
        let telemetry_dir = cfg.telemetry_dir.clone();
        let engine_thread = std::thread::spawn(move || {
            if shards > 1 {
                router_loop(
                    engine_cfg,
                    scheduler,
                    shards,
                    rx,
                    engine_shutdown,
                    idle_poll,
                    telemetry_dir,
                )
            } else {
                engine_loop(
                    engine_cfg,
                    scheduler,
                    rx,
                    engine_shutdown,
                    idle_poll,
                    telemetry_dir,
                )
            }
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
/// frame boundary with nothing read).
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
                if got == 0 && shutdown.load(Ordering::SeqCst) {
                    return Ok(false);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

fn handle<S: Scheduler>(engine: &mut ServeEngine<S>, req: Request, bye: &mut bool) -> Response {
    match req {
        Request::Submit(r) => match engine.submit(r) {
            Ok(id) => Response::Admitted { id },
            Err(reason) => Response::Shed { reason },
        },
        Request::Status { id } => match engine.status(id) {
            Some(s) => Response::Status(s.clone()),
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

fn engine_loop<S: Scheduler>(
    cfg: EngineConfig,
    scheduler: S,
    rx: mpsc::Receiver<Command>,
    shutdown: Arc<AtomicBool>,
    idle_poll: Duration,
    telemetry_dir: Option<PathBuf>,
) -> EngineStats {
    let mut engine = ServeEngine::new(cfg, scheduler);
    run_engine(&mut engine, rx, idle_poll);
    shutdown.store(true, Ordering::SeqCst);
    if let Some(dir) = telemetry_dir {
        let _ = engine.export_telemetry(&dir);
    }
    engine.stats()
}

/// Ask one shard thread and wait for its reply.
fn ask(tx: &mpsc::Sender<Command>, req: Request) -> Response {
    let (rtx, rrx) = mpsc::channel();
    if tx.send(Command { req, reply: rtx }).is_err() {
        return Response::Error {
            msg: "shard unavailable".into(),
        };
    }
    rrx.recv().unwrap_or(Response::Error {
        msg: "shard dropped the request".into(),
    })
}

/// The sharded serve loop: one engine thread per shard (each running
/// the same [`run_engine`] as the single-engine path), plus this
/// router, which owns the global↔local id table. See the module docs
/// for the routing and merge rules.
fn router_loop<S: Scheduler + Clone + Send + 'static>(
    cfg: EngineConfig,
    scheduler: S,
    shards: usize,
    rx: mpsc::Receiver<Command>,
    shutdown: Arc<AtomicBool>,
    idle_poll: Duration,
    telemetry_dir: Option<PathBuf>,
) -> EngineStats {
    let mut txs = Vec::with_capacity(shards);
    let mut threads = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (stx, srx) = mpsc::channel::<Command>();
        let cfg = cfg.clone();
        let scheduler = scheduler.clone();
        threads.push(std::thread::spawn(move || {
            let mut engine = ServeEngine::new(cfg, scheduler);
            run_engine(&mut engine, srx, idle_poll);
            engine
        }));
        txs.push(stx);
    }
    // Global id → (shard, local id), and its per-shard reverse.
    let mut routes: Vec<(usize, u64)> = Vec::new();
    let mut globals: Vec<Vec<u64>> = vec![Vec::new(); shards];
    let mut bye = false;
    while !bye {
        let Ok(cmd) = rx.recv() else { break };
        let resp = route(cmd.req, &txs, &mut routes, &mut globals, &mut bye);
        let _ = cmd.reply.send(resp);
    }
    for tx in &txs {
        let _ = ask(tx, Request::Shutdown);
    }
    drop(txs);
    let engines: Vec<ServeEngine<S>> = threads
        .into_iter()
        .map(|t| t.join().expect("shard engine thread panicked"))
        .collect();
    shutdown.store(true, Ordering::SeqCst);
    if let Some(dir) = telemetry_dir {
        if std::fs::create_dir_all(&dir).is_ok() {
            for (global, &(shard, local)) in routes.iter().enumerate() {
                if let Some(jsonl) = engines[shard].telemetry(local) {
                    let path = dir.join(format!("{}.jsonl", tenant_key(global as u64)));
                    let _ = std::fs::write(path, jsonl);
                }
            }
        }
    }
    let parts: Vec<EngineStats> = engines.iter().map(ServeEngine::stats).collect();
    merge_stats(&parts)
}

/// Route one request: per-tenant requests go to the owning shard with
/// ids rewritten both ways; fleet-wide reads fan out and merge.
fn route(
    req: Request,
    txs: &[mpsc::Sender<Command>],
    routes: &mut Vec<(usize, u64)>,
    globals: &mut [Vec<u64>],
    bye: &mut bool,
) -> Response {
    let frames = |txs: &[mpsc::Sender<Command>], globals: &[Vec<u64>]| -> MetricsFrame {
        let parts: Vec<MetricsFrame> = txs
            .iter()
            .map(|tx| match ask(tx, Request::Metrics) {
                Response::Metrics(f) => f,
                _ => MetricsFrame::default(),
            })
            .collect();
        merge_frames(&parts, globals)
    };
    match req {
        Request::Submit(r) => {
            // The prospective global id decides affinity; it is only
            // consumed if the shard admits (sheds burn no ids).
            let global = routes.len() as u64;
            let shard = shard_of(global, txs.len());
            match ask(&txs[shard], Request::Submit(r)) {
                Response::Admitted { id: local } => {
                    routes.push((shard, local));
                    globals[shard].push(global);
                    Response::Admitted { id: global }
                }
                other => other,
            }
        }
        Request::Status { id } => match routes.get(id as usize) {
            None => Response::NotFound { id },
            Some(&(shard, local)) => match ask(&txs[shard], Request::Status { id: local }) {
                Response::Status(mut st) => {
                    st.id = id;
                    Response::Status(st)
                }
                Response::NotFound { .. } => Response::NotFound { id },
                other => other,
            },
        },
        Request::Telemetry { id } => match routes.get(id as usize) {
            None => Response::NotFound { id },
            Some(&(shard, local)) => match ask(&txs[shard], Request::Telemetry { id: local }) {
                Response::Telemetry { jsonl, .. } => Response::Telemetry { id, jsonl },
                Response::NotFound { .. } => Response::NotFound { id },
                other => other,
            },
        },
        Request::Stats => {
            let parts: Vec<EngineStats> = txs
                .iter()
                .map(|tx| match ask(tx, Request::Stats) {
                    Response::Stats(s) => s,
                    _ => EngineStats::default(),
                })
                .collect();
            Response::Stats(merge_stats(&parts))
        }
        Request::Metrics => Response::Metrics(frames(txs, globals)),
        Request::Exposition => Response::Exposition {
            text: frames(txs, globals).to_prometheus(),
        },
        Request::Shutdown => {
            *bye = true;
            Response::Bye
        }
    }
}

/// The engine's serve loop, driven through a [`PanicFlightGuard`]: if
/// the loop panics, the guard's `Drop` dumps the flight ring (with an
/// `EnginePanic` trigger entry) before the thread unwinds.
fn run_engine<S: Scheduler>(
    engine: &mut ServeEngine<S>,
    rx: mpsc::Receiver<Command>,
    idle_poll: Duration,
) {
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

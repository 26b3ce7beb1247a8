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
//! are returned once the accept loop exits. Only the accept loop polls;
//! connection threads block in their reads and the engine thread blocks
//! on its channel while idle. The accept loop keeps a second handle on
//! every live connection and drops it once that connection's thread
//! has finished; at shutdown it closes the read half of every one still
//! open, which wakes its blocked read at once, even mid-frame.

use crate::engine::{EngineConfig, EngineStats};
use crate::fleet::{PanicFlightGuard, ShardedEngine};
use crate::protocol::{self, RefusedClass, RefusedFrames, Request, Response};
use crate::scheduler::WatermarkScheduler;
use crate::transport::{Listener, Stream};
use std::io;
use std::net::Shutdown;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
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
    /// Export per-tenant telemetry here on shutdown (`None` = skip).
    pub telemetry_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            engine: EngineConfig::default(),
            scheduler: WatermarkScheduler::default(),
            shards: 1,
            telemetry_dir: None,
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: Listener,
    addr: String,
    cfg: ServerConfig,
}

/// What a connection thread sends the engine thread.
enum Command {
    /// A decoded request, and where its reply goes.
    Request(Request, mpsc::Sender<Response>),
    /// A frame the connection refused. Counted on the engine thread, so
    /// a later `Stats` from the same client always sees it.
    Refused(RefusedClass),
}

impl Server {
    /// Bind `addr` (TCP `host:port`, or a Unix socket path when the
    /// address contains `/`). TCP port 0 picks a free port; the bound
    /// address is reported by [`Server::local_addr`].
    pub fn bind(addr: &str, cfg: ServerConfig) -> io::Result<Server> {
        let (listener, addr) = Listener::bind(addr)?;
        Ok(Server {
            listener,
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
            let refused = run_engine(&mut engine, rx);
            engine_shutdown.store(true, Ordering::SeqCst);
            if let Some(dir) = cfg.telemetry_dir {
                let _ = engine.export_telemetry(&dir);
            }
            EngineStats {
                refused,
                ..engine.stats()
            }
        });

        listener.set_nonblocking(true)?;
        // Each live connection's thread and a second handle on its
        // socket, so shutdown can wake the thread's blocked read.
        let mut conns: Vec<(JoinHandle<()>, Stream)> = Vec::new();
        let accepted = loop {
            conns.retain(|(thread, _)| !thread.is_finished());
            if shutdown.load(Ordering::SeqCst) {
                break Ok(());
            }
            match listener.accept() {
                Ok(stream) => {
                    let Ok(handle) = stream.try_clone() else {
                        continue; // dropping `stream` hangs up on the peer
                    };
                    let tx = tx.clone();
                    conns.push((std::thread::spawn(move || conn_loop(stream, tx)), handle));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => break Err(e),
            }
        };
        // After an accept error the engine thread is still serving; it
        // stops once idle with every `Sender` gone, so the connection
        // threads must end too.
        drop(tx);
        for (_, handle) in &conns {
            let _ = handle.shutdown(Shutdown::Read);
        }
        for (thread, _) in conns {
            let _ = thread.join();
        }
        let stats = engine_thread
            .join()
            .map_err(|_| io::Error::other("engine thread panicked"));
        accepted.and(stats)
    }
}

/// One connection: read frames, forward to the engine, write replies.
/// Ends at EOF (the peer hung up, or shutdown closed the read half), on
/// a torn frame, or after replying `Bye`, and then shuts the socket down
/// so the peer sees the hangup at once. A frame that fails to decode is
/// answered with `Response::Error`; it and a torn frame are counted as
/// refused by class.
fn conn_loop(mut stream: Stream, tx: mpsc::Sender<Command>) {
    loop {
        let text = match protocol::read_frame(&mut stream) {
            Ok(Some(text)) => text,
            Ok(None) => break,
            Err(e) => {
                if let Some(class) = RefusedClass::of_read(&e) {
                    let _ = tx.send(Command::Refused(class));
                }
                break;
            }
        };
        let response = match protocol::decode::<Request>(&text) {
            Ok(req) => {
                let (rtx, rrx) = mpsc::channel();
                if tx.send(Command::Request(req, rtx)).is_err() {
                    Response::Error {
                        msg: "server shutting down".into(),
                    }
                } else {
                    rrx.recv().unwrap_or(Response::Error {
                        msg: "engine dropped the request".into(),
                    })
                }
            }
            Err(e) => {
                let _ = tx.send(Command::Refused(RefusedClass::of_decode(&e)));
                Response::Error { msg: e.to_string() }
            }
        };
        let bye = matches!(response, Response::Bye);
        if protocol::write_frame(&mut stream, &response).is_err() || bye {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// The engine thread's state beside its engine.
#[derive(Default)]
struct EngineThread {
    /// Frames the connections refused.
    refused: RefusedFrames,
    /// The one telemetry buffer: a `Telemetry` reply renders into it
    /// and is copied out, so the engine keeps no rendered text for a
    /// log a client reads once.
    render: String,
    /// A `Shutdown` was answered.
    bye: bool,
}

/// Apply one command: count a refused frame, or answer a request.
fn command(engine: &mut ShardedEngine, cmd: Command, state: &mut EngineThread) {
    match cmd {
        Command::Refused(class) => state.refused.count(class),
        Command::Request(req, reply) => {
            let _ = reply.send(handle(engine, req, state));
        }
    }
}

fn handle(engine: &mut ShardedEngine, req: Request, state: &mut EngineThread) -> Response {
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
                let render = &mut state.render;
                render.clear();
                engine.write_telemetry(id, render);
                Response::Telemetry {
                    id,
                    jsonl: render.as_str().to_owned(),
                }
            }
        }
        Request::Stats => Response::Stats(EngineStats {
            refused: state.refused,
            ..engine.stats()
        }),
        Request::Metrics => Response::Metrics(metrics(engine, state)),
        Request::Exposition => Response::Exposition {
            text: metrics(engine, state).to_prometheus(),
        },
        Request::Shutdown => {
            state.bye = true;
            Response::Bye
        }
    }
}

/// The fleet's metrics frame, with the refused-frame counts.
fn metrics(engine: &ShardedEngine, state: &EngineThread) -> crate::MetricsFrame {
    let mut frame = engine.metrics();
    frame.stats.refused = state.refused;
    frame
}

/// The engine's serve loop, driven through a [`PanicFlightGuard`]: if
/// the loop panics, the guard's `Drop` dumps every shard's flight ring
/// (with an `EnginePanic` trigger entry) before the thread unwinds.
/// Idle, it blocks until a command arrives or every sender is gone.
/// Returns the refused-frame counts.
fn run_engine(engine: &mut ShardedEngine, rx: mpsc::Receiver<Command>) -> RefusedFrames {
    let guard = PanicFlightGuard::new(engine);
    let mut state = EngineThread::default();
    loop {
        while let Ok(cmd) = rx.try_recv() {
            command(&mut *guard.engine, cmd, &mut state);
        }
        if state.bye {
            break;
        }
        if guard.engine.is_idle() {
            let Ok(cmd) = rx.recv() else { break };
            command(&mut *guard.engine, cmd, &mut state);
        } else {
            guard.engine.tick();
        }
    }
    state.refused
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
        let Stream::Tcp(s) = server.listener.accept().unwrap() else {
            panic!("bound a TCP address");
        };
        assert!(s.nodelay().unwrap(), "server end");
    }
}

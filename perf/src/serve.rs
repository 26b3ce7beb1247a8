//! `serve`: an in-process `rsp-serve` server driven over a Unix socket by
//! one single-threaded client on one connection, an in-process engine
//! under a closed loop, and the traced replay of the serve path's layers.
//!
//! Phase A is an open loop over the socket: tenants are due at a fixed
//! rate whatever the server does, and each is timed from its due time to
//! the first status poll that reads `Done`, so a stall shows up as
//! latency rather than as less offered load. Phase B is a closed loop
//! that keeps a fixed number of the same mix's tenants in a
//! `ServeEngine` and counts the tenant-cycles it steps. It drives the
//! engine in-process because one client cannot keep the server's engine
//! busy with this mix: the server answers a connection's requests
//! between engine ticks, so one client submits about one tenant per
//! tick, while a tick of 32 active tenants (256 cycles each) finishes
//! several 1024-cycle tenants. A run alternates the two phases.

use std::collections::VecDeque;
use std::hint::black_box;
use std::io::{self, Cursor};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rsp_serve::protocol::{decode, read_frame, write_frame, Request};
use rsp_serve::{
    replay, EngineConfig, EngineStats, ServeClient, ServeEngine, Server, ServerConfig,
    ShardedEngine, ShedReason, TenantPhase, TenantRequest, WatermarkScheduler, LANES_PER_GROUP,
};
use rsp_sim::SimConfig;

use crate::inputs::tenant;
use crate::metrics::Outcome;
use crate::probe::{Mix, Probe};
use crate::stats::{median, ms, net_ns, per_item_ns, quantile, setup_median, SetupClock};
use crate::Budget;

/// Open-loop offered load, tenants per second: about 0.3M tenant-cycles
/// per second, well below the ~1.9M an engine steps on a 2-vCPU host, so
/// latency measures the serve path rather than a backlog.
const RATE: f64 = 300.0;

/// One tenant in this many has its served telemetry compared byte for
/// byte with an offline replay.
const AUDIT_EVERY: u64 = 64;

/// Warm-up tenants are numbered from here, outside the measured stream.
const WARMUP_BASE: u64 = 900_000;

/// Closed-loop tenants are numbered from here, after the open loop's.
const CLOSED_BASE: u64 = 500_000;

/// Tenants the closed loop keeps in the engine: the scheduler's 32
/// active tenants and as many queued, so one is waiting whenever one
/// finishes.
const CLOSED_OUTSTANDING: u64 = 64;

/// Tenants per closed-loop round. Every round runs on a fresh engine, so
/// the telemetry an engine keeps does not grow with the run's length.
const CLOSED_ROUND: u64 = 512;

/// Seconds of one open-loop segment; each is followed by closed-loop
/// rounds. Both phases then sample the whole run, and each segment's
/// latencies are scaled by a host-speed probe taken just before it.
const SEGMENT_S: f64 = 1.0;

/// Share of the run the closed loop gets; the open loop takes the rest.
const CLOSED_SHARE: f64 = 0.4;

/// Ticks an in-process drain may take before it gives up.
const DRAIN_TICKS: u64 = 100_000;

/// A running server plus the benchmark's one client connection. Dropping
/// it shuts the server down and joins its thread.
pub struct LiveServer {
    client: ServeClient,
    thread: Option<JoinHandle<io::Result<EngineStats>>>,
}

impl LiveServer {
    /// Bind `addr`, serve on a thread, connect, and run `warmup` tenants
    /// to completion before anything is timed.
    pub fn start(addr: &str, seed: u64, warmup: u64) -> io::Result<LiveServer> {
        let server = Server::bind(addr, ServerConfig::default())?;
        let bound = server.local_addr().to_string();
        let thread = std::thread::spawn(move || server.run());
        let mut live = LiveServer {
            client: ServeClient::connect(&bound)?,
            thread: Some(thread),
        };
        for n in WARMUP_BASE..WARMUP_BASE + warmup {
            if let Err(reason) = live.client.submit(tenant(seed, n))? {
                return Err(io::Error::other(format!("warm-up shed: {reason:?}")));
            }
        }
        let s = drain(&mut live.client)?;
        if s.completed != s.admitted || s.failed > 0 {
            return Err(io::Error::other("warm-up tenants did not complete"));
        }
        Ok(live)
    }

    fn status(&mut self, id: u64) -> io::Result<TenantPhase> {
        match self.client.status(id)? {
            Some(s) => Ok(s.phase),
            None => Err(io::Error::other(format!(
                "tenant {id} unknown to the server"
            ))),
        }
    }

    /// Shut down and return the server's final counters.
    pub fn stop(mut self) -> io::Result<EngineStats> {
        self.client.shutdown()?;
        match self.thread.take().map(JoinHandle::join) {
            Some(Ok(stats)) => stats,
            _ => Err(io::Error::other("server thread panicked")),
        }
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            // Without an acknowledged shutdown the server may never
            // return; joining it then would hang, so it is left to end
            // with the process.
            if self.client.shutdown().is_ok() {
                let _ = t.join();
            }
        }
    }
}

/// Warm-up tenants for a measured server or engine: as many as its
/// machine pool keeps, so measured tenants lease warm machines.
fn pool_warmup() -> u64 {
    ServerConfig::default().engine.pool_capacity as u64
}

/// The Unix socket the serve workload binds, relative to the working
/// directory where possible (socket paths are limited to ~100 bytes).
fn socket_addr(tag: &str) -> String {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    crate::scratch_dir()
        .join(format!("{tag}-{}-{n}.sock", std::process::id()))
        .display()
        .to_string()
}

/// What the open loop observed.
#[derive(Default)]
struct OpenLoop {
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    polls: u64,
    /// (tenant id, stream index) of every admitted tenant.
    admitted: Vec<(u64, u64)>,
    shed: u64,
    failed: u64,
}

/// Submit `requests` (stream indices from `first`) at [`RATE`] per
/// second on schedule; between due times, poll outstanding tenants
/// round-robin, or the server's counters when none is outstanding.
fn open_loop(
    client: &mut ServeClient,
    requests: Vec<TenantRequest>,
    first: u64,
) -> io::Result<OpenLoop> {
    let mut r = OpenLoop::default();
    let total = requests.len() as u64;
    let mut pending: VecDeque<TenantRequest> = requests.into();
    let t0 = Instant::now();
    let due = |k: u64| t0 + Duration::from_secs_f64(k as f64 / RATE);
    let mut next = 0u64;
    let mut outstanding: VecDeque<(u64, u64)> = VecDeque::new();
    loop {
        let now = Instant::now();
        if next < total && due(next) <= now {
            r.lag_ms.push(ms(now - due(next)));
            let req = pending.pop_front().expect("one request per due time");
            match client.submit(req)? {
                Ok(id) => {
                    outstanding.push_back((id, next));
                    r.admitted.push((id, first + next));
                }
                Err(_) => r.shed += 1,
            }
            next += 1;
            continue;
        }
        if let Some((id, k)) = outstanding.pop_front() {
            r.polls += 1;
            match client.status(id)?.map(|s| s.phase) {
                Some(TenantPhase::Done) => r.latency_ms.push(ms(Instant::now() - due(k))),
                Some(TenantPhase::Queued | TenantPhase::Running) => outstanding.push_back((id, k)),
                Some(TenantPhase::Failed) | None => r.failed += 1,
            }
            continue;
        }
        if next >= total {
            return Ok(r);
        }
        // Nothing outstanding: keep the connection busy until the next
        // due time instead of sleeping. An idle client and server would
        // add the host's wake-from-idle latency to the next tenant,
        // which on a shared VM flips between modes 0.6 ms apart.
        client.stats()?;
    }
}

/// Wait until every admitted tenant has finished (bounded). Each poll
/// waits for the engine's current tick, so this does not spin while
/// tenants are running.
fn drain(client: &mut ServeClient) -> io::Result<EngineStats> {
    let started = Instant::now();
    loop {
        let s = client.stats()?;
        if s.completed + s.failed >= s.admitted || started.elapsed() > Duration::from_secs(60) {
            return Ok(s);
        }
    }
}

/// True for the stream indices whose served telemetry is audited.
fn audited(n: u64) -> bool {
    n.is_multiple_of(AUDIT_EVERY)
}

/// Check tenant `id`'s `served` telemetry against an offline replay of
/// `req`, the request it was admitted with.
fn check_replay(id: u64, served: Option<&str>, req: &TenantRequest, out: &mut Outcome) {
    let offline = replay(&SimConfig::default(), req).ok();
    out.check(served.is_some() && served == offline.as_deref(), || {
        format!("tenant {id}: served telemetry differs from its offline replay")
    });
}

/// The end-to-end run: open-loop segments of [`SEGMENT_S`], each followed
/// by closed-loop rounds until the closed loop has had [`CLOSED_SHARE`]
/// of the run so far. Throughput is the tenant-cycles all rounds stepped
/// while their engines were full, per second; an operation (for latency)
/// is one open-loop tenant. Times are at reference host speed.
pub fn run(budget: &Budget) -> Outcome {
    let mut out = Outcome::default();
    let (count, segments, round) = if budget.quick {
        (RATE as u64 / 2, 1, CLOSED_OUTSTANDING)
    } else {
        let open_s = (1.0 - CLOSED_SHARE) * budget.seconds;
        let segments = ((open_s / SEGMENT_S).round() as u64).max(1);
        ((RATE * open_s).round() as u64, segments, CLOSED_ROUND)
    };
    // Set-up: the open loop's requests, and a started, warmed server. The
    // repeat set-ups timed between segments and rounds start servers of
    // their own.
    let prepare = || {
        let requests: Vec<TenantRequest> = (0..count).map(|n| tenant(budget.seed, n)).collect();
        LiveServer::start(&socket_addr("serve"), budget.seed, pool_warmup()).map(|s| (s, requests))
    };
    let mut setups = SetupClock::new(budget.seconds, Mix::Machine);
    let (mut live, requests) = match setups.time(prepare) {
        Ok(x) => x,
        Err(e) => {
            out.fail(format!("server did not start: {e}"));
            return out;
        }
    };
    setups.start();
    // Each segment and round is scaled by the mean of the probes right
    // before and right after it.
    let mut probe = Probe::new(Mix::Machine);
    let mut speed = probe.speed();
    let per = count.div_ceil(segments);
    let mut requests = requests.into_iter();
    let mut latency_ms = Vec::new();
    let (mut cycles, mut cycle_secs) = (0u64, 0.0);
    let (mut closed_s, mut closed_next) = (0.0, CLOSED_BASE);
    for k in 0..segments {
        let chunk: Vec<TenantRequest> = requests.by_ref().take(per as usize).collect();
        let before = speed;
        let ms = match open_phase(&mut live.client, chunk, k * per, budget.seed, &mut out) {
            Ok(ms) => ms,
            Err(e) => {
                out.fail(format!("serve client failed: {e}"));
                break;
            }
        };
        speed = probe.speed();
        latency_ms.extend(ms.iter().map(|x| x * (before + speed) / 2.0));
        setups.catch_up(prepare);
        let due_s = CLOSED_SHARE * budget.seconds * (k + 1) as f64 / segments as f64;
        loop {
            let t = Instant::now();
            let before = speed;
            let (c, secs) = closed_round(budget.seed, closed_next, round, &mut out);
            speed = probe.speed();
            cycles += c;
            cycle_secs += secs * (before + speed) / 2.0;
            closed_s += t.elapsed().as_secs_f64();
            closed_next += round;
            setups.catch_up(prepare);
            if budget.quick || closed_s >= due_s {
                break;
            }
        }
    }
    out.set("latency_p50_ms", median(&latency_ms));
    out.set("throughput", cycles as f64 / cycle_secs);
    out.set("host.speed", probe.median_speed());
    out.set("setup_s", setups.finish(prepare));
    match live.stop() {
        Ok(stats) => out.check(stats.failed == 0 && stats.shed_total() == 0, || {
            format!(
                "server ended with {} failed and {} shed tenant(s)",
                stats.failed,
                stats.shed_total()
            )
        }),
        Err(e) => out.fail(format!("server did not stop cleanly: {e}")),
    }
    out
}

/// One open-loop segment through the socket (stream indices from
/// `first`), then its completion and replay checks; returns the tenants'
/// latencies.
fn open_phase(
    client: &mut ServeClient,
    requests: Vec<TenantRequest>,
    first: u64,
    seed: u64,
    out: &mut Outcome,
) -> io::Result<Vec<f64>> {
    let a = open_loop(client, requests, first)?;
    out.ops(a.admitted.len() as u64 + a.shed, a.shed + a.failed);
    if a.shed + a.failed > 0 {
        out.errors
            .push(format!("open loop: {} shed, {} failed", a.shed, a.failed));
    }
    let s = drain(client)?;
    out.check(s.completed == s.admitted && s.failed == 0, || {
        format!(
            "{} of {} admitted tenant(s) did not reach Done",
            s.admitted - s.completed,
            s.admitted
        )
    });
    for &(id, n) in a.admitted.iter().filter(|(_, n)| audited(*n)) {
        let served = client.telemetry(id)?;
        check_replay(id, served.as_deref(), &tenant(seed, n), out);
    }
    Ok(a.latency_ms)
}

/// Phase B, one round: `count` tenants from stream index `first` through
/// [`closed_loop`] on a fresh engine warmed like the server, then the
/// round's completion and replay checks. Returns the tenant-cycles
/// stepped while the engine was kept full, and the seconds that took.
fn closed_round(seed: u64, first: u64, count: u64, out: &mut Outcome) -> (u64, f64) {
    let mut e = engine(true);
    let warmup = WARMUP_BASE..WARMUP_BASE + pool_warmup();
    let warm_shed = warmup
        .filter(|&n| e.submit(tenant(seed, n)).is_err())
        .count();
    out.check(warm_shed == 0 && e.run_until_idle(DRAIN_TICKS), || {
        format!("engine warm-up: {warm_shed} shed or did not finish")
    });
    let r = closed_loop(&mut e, seed, first, count, 0.0);
    out.ops(r.admitted.len() as u64 + r.shed, r.shed);
    if r.shed > 0 {
        out.errors.push(format!("closed loop: {} shed", r.shed));
    }
    let s = e.stats();
    out.check(
        e.is_idle() && s.completed == s.admitted && s.failed == 0,
        || {
            format!(
                "closed loop: {} of {} admitted tenant(s) did not reach Done",
                s.admitted - s.completed,
                s.admitted
            )
        },
    );
    for &(id, n) in r.admitted.iter().filter(|(_, n)| audited(*n)) {
        check_replay(id, e.telemetry(id), &tenant(seed, n), out);
    }
    r.full
}

/// `ServeEngine` and `ShardedEngine` share these calls but no trait.
trait Engine {
    fn submit(&mut self, req: TenantRequest) -> Result<u64, ShedReason>;
    fn tick(&mut self);
    fn stats(&self) -> EngineStats;
}

impl Engine for ServeEngine {
    fn submit(&mut self, req: TenantRequest) -> Result<u64, ShedReason> {
        ServeEngine::submit(self, req)
    }
    fn tick(&mut self) {
        ServeEngine::tick(self)
    }
    fn stats(&self) -> EngineStats {
        ServeEngine::stats(self)
    }
}

impl Engine for ShardedEngine {
    fn submit(&mut self, req: TenantRequest) -> Result<u64, ShedReason> {
        ShardedEngine::submit(self, req)
    }
    fn tick(&mut self) {
        ShardedEngine::tick(self)
    }
    fn stats(&self) -> EngineStats {
        ShardedEngine::stats(self)
    }
}

/// Per-call timings and outcome of one in-process drive.
#[derive(Default)]
struct Replay {
    submit_ns: Vec<f64>,
    tick_us: Vec<f64>,
    /// (tenant id, stream index) of every admitted tenant.
    admitted: Vec<(u64, u64)>,
    shed: u64,
    /// Tenant-cycles stepped and wall seconds up to the last submission
    /// (closed loop only).
    full: (u64, f64),
}

impl Replay {
    fn tick_s(&self) -> f64 {
        self.tick_us.iter().sum::<f64>() / 1e6
    }

    /// Submit stream tenant `n`, timing the call.
    fn submit<E: Engine>(&mut self, engine: &mut E, seed: u64, n: u64, overhead_ns: f64) {
        let req = tenant(seed, n);
        let t = Instant::now();
        let res = engine.submit(req);
        self.submit_ns.push(net_ns(t.elapsed(), overhead_ns));
        match res {
            Ok(id) => self.admitted.push((id, n)),
            Err(_) => self.shed += 1,
        }
    }
}

/// Tenants in the traced one-per-tick replay.
const REPLAY_ONE_PER_TICK: u64 = 400;

/// Replay the open loop's request stream one tenant per tick, then drain.
fn replay_one_per_tick<E: Engine>(engine: &mut E, seed: u64, overhead_ns: f64) -> Replay {
    let mut r = Replay::default();
    for n in 0..REPLAY_ONE_PER_TICK {
        r.submit(engine, seed, n, overhead_ns);
        timed_tick(engine, &mut r);
    }
    drain_in_process(engine, &mut r);
    r
}

/// The closed loop: keep [`CLOSED_OUTSTANDING`] tenants of the stream
/// from index `first` in `engine`, topping it up before every tick, until
/// `count` have been submitted; then drain. Every `submit` and `tick` is
/// timed (a few tens of nanoseconds against a tenant's ~0.5 ms).
fn closed_loop<E: Engine>(
    engine: &mut E,
    seed: u64,
    first: u64,
    count: u64,
    overhead_ns: f64,
) -> Replay {
    let mut r = Replay::default();
    let c0 = engine.stats().stepped_cycles;
    let t0 = Instant::now();
    let end = first + count;
    let mut n = first;
    while n < end {
        let s = engine.stats();
        let inflight = s.admitted - s.completed - s.failed;
        for _ in inflight..CLOSED_OUTSTANDING.min(inflight + end - n) {
            r.submit(engine, seed, n, overhead_ns);
            n += 1;
        }
        timed_tick(engine, &mut r);
    }
    r.full = (
        engine.stats().stepped_cycles - c0,
        t0.elapsed().as_secs_f64(),
    );
    drain_in_process(engine, &mut r);
    r
}

fn timed_tick<E: Engine>(engine: &mut E, r: &mut Replay) {
    let t = Instant::now();
    engine.tick();
    r.tick_us.push(t.elapsed().as_secs_f64() * 1e6);
}

fn drain_in_process<E: Engine>(engine: &mut E, r: &mut Replay) {
    for _ in 0..DRAIN_TICKS {
        let s = engine.stats();
        if s.completed + s.failed >= s.admitted {
            return;
        }
        timed_tick(engine, r);
    }
}

fn engine(slo: bool) -> ServeEngine {
    ServeEngine::new(
        EngineConfig {
            slo,
            ..EngineConfig::default()
        },
        WatermarkScheduler::default(),
    )
}

/// Round-trip times of `n` status polls on a fresh server at `addr`.
fn status_rtts(addr: &str, seed: u64, n: usize) -> io::Result<Vec<Duration>> {
    let mut live = LiveServer::start(addr, seed, 1)?;
    let mut rtts = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        live.status(0)?;
        rtts.push(t.elapsed());
    }
    live.stop()?;
    Ok(rtts)
}

/// Status round trips timed per transport. TCP round trips are slow
/// (header and body go out as separate writes), so they are few.
const UNIX_RTTS: usize = 2_000;
const TCP_RTTS: usize = 30;

/// Open-loop seconds of the traced run's load-generator check.
const TRACE_OPEN_LOOP_S: f64 = 2.0;

/// The traced run's serve-path metrics: engine, SLO, fleet, exposition,
/// protocol, transport and load-generator validity.
pub fn trace(seed: u64, overhead_ns: f64, out: &mut Outcome) {
    // Engine: one tenant per tick, then one closed-loop round.
    let mut e = engine(true);
    let a = replay_one_per_tick(&mut e, seed, overhead_ns);
    let mut e = engine(true);
    let b = closed_loop(&mut e, seed, CLOSED_BASE, CLOSED_ROUND, overhead_ns);
    out.check(a.shed + b.shed == 0, || {
        format!("in-process replay shed {} tenant(s)", a.shed + b.shed)
    });
    let mut submits = a.submit_ns.clone();
    submits.extend(&b.submit_ns);
    out.set("engine.submit_ns_p50", quantile(&submits, 0.5));
    out.set("engine.submit_ns_p99", quantile(&submits, 0.99));
    out.set("engine.tick_us_p50", quantile(&b.tick_us, 0.5));
    out.set("engine.tick_us_p99", quantile(&b.tick_us, 0.99));
    let s = e.stats();
    out.set(
        "engine.cycles_per_tick",
        s.stepped_cycles as f64 / s.ticks.max(1) as f64,
    );
    out.set(
        "engine.inproc_cycles_per_s",
        s.stepped_cycles as f64 / b.tick_s(),
    );
    let lane_tenants = (CLOSED_BASE..CLOSED_BASE + CLOSED_ROUND)
        .filter(|&n| tenant(seed, n).spec.is_lane())
        .count();
    out.set(
        "engine.lane_group_fill",
        lane_tenants as f64 / (s.lane_groups_formed.max(1) as usize * LANES_PER_GROUP) as f64,
    );
    out.set(
        "engine.pool_reuse_frac",
        s.pool.reuses as f64 / s.pool.leases.max(1) as f64,
    );
    let t = Instant::now();
    let frame = e.metrics();
    out.set("expo.metrics_frame_ms", ms(t.elapsed()));
    let t = Instant::now();
    let prom = frame.to_prometheus();
    out.set("expo.prom_render_ms", ms(t.elapsed()));
    out.set("expo.prom_bytes", prom.len() as f64);
    let p99 = |name: &str| {
        frame
            .aggregate
            .histogram(name)
            .map_or(0, |h| h.quantile(0.99)) as f64
    };
    out.set("slo.queue_residency_ticks_p99", p99("queue_residency"));
    out.set(
        "slo.admit_to_first_step_ticks_p99",
        p99("admit_to_first_step"),
    );
    let mut off = engine(false);
    let b_off = closed_loop(&mut off, seed, CLOSED_BASE, CLOSED_ROUND, overhead_ns);
    out.set("slo.overhead_frac", b.tick_s() / b_off.tick_s() - 1.0);
    for (name, shards) in [("fleet.tick_us_s1", 1), ("fleet.tick_us_s2", 2)] {
        let mut fleet = ShardedEngine::new(
            EngineConfig::default(),
            WatermarkScheduler::default(),
            shards,
        );
        let r = closed_loop(&mut fleet, seed, CLOSED_BASE, CLOSED_ROUND, overhead_ns);
        out.set(name, r.tick_s() * 1e6 / r.tick_us.len().max(1) as f64);
    }

    // Protocol: encode and decode the captured request frames.
    let frames: Vec<Request> = (0..REPLAY_ONE_PER_TICK)
        .map(|n| Request::Submit(tenant(seed, n)))
        .collect();
    let mut buf = Vec::with_capacity(4096);
    let encode_ns = per_item_ns(frames.len(), Duration::from_millis(50), || {
        for f in &frames {
            buf.clear();
            write_frame(&mut buf, black_box(f)).expect("in-memory write");
        }
    });
    let mut wire = Vec::new();
    for f in &frames {
        write_frame(&mut wire, f).expect("in-memory write");
    }
    let decode_ns = per_item_ns(frames.len(), Duration::from_millis(50), || {
        let mut cur = Cursor::new(&wire);
        while let Ok(Some(text)) = read_frame(&mut cur) {
            black_box(decode::<Request>(&text).expect("frame we just wrote"));
        }
    });
    out.set("protocol.encode_ns", encode_ns);
    out.set("protocol.decode_ns", decode_ns);
    out.set(
        "protocol.frame_bytes",
        wire.len() as f64 / frames.len() as f64,
    );

    // Transport and server start.
    let addr = socket_addr("trace");
    let (started, start_s) = setup_median(|| LiveServer::start(&addr, seed, pool_warmup()));
    out.set("setup.server_start_ms", start_s * 1e3);
    drop(started);
    match status_rtts(&addr, seed, UNIX_RTTS) {
        Ok(v) => {
            let us: Vec<f64> = v.iter().map(|d| d.as_secs_f64() * 1e6).collect();
            out.set("transport.unix_rtt_us_p50", quantile(&us, 0.5));
            out.set("transport.unix_rtt_us_p99", quantile(&us, 0.99));
        }
        Err(e) => out.fail(format!("unix transport: {e}")),
    }
    match status_rtts("127.0.0.1:0", seed, TCP_RTTS) {
        Ok(v) => {
            let msv: Vec<f64> = v.iter().map(|d| ms(*d)).collect();
            out.set("transport.tcp_rtt_ms_p50", quantile(&msv, 0.5));
            out.set("transport.tcp_rtt_ms_p90", quantile(&msv, 0.9));
        }
        Err(e) => out.fail(format!("tcp transport: {e}")),
    }

    // Load generator validity: a short open loop.
    let count = (RATE * TRACE_OPEN_LOOP_S) as u64;
    let requests = (0..count).map(|n| tenant(seed, n)).collect();
    let run = LiveServer::start(&addr, seed, pool_warmup()).and_then(|mut live| {
        let r = open_loop(&mut live.client, requests, 0)?;
        live.stop()?;
        Ok(r)
    });
    match run {
        Ok(r) => {
            out.check(r.shed + r.failed == 0, || {
                format!("open loop: {} shed, {} failed", r.shed, r.failed)
            });
            out.set("loadgen.lag_p99_ms", quantile(&r.lag_ms, 0.99));
            out.set(
                "loadgen.polls_per_tenant",
                r.polls as f64 / r.admitted.len().max(1) as f64,
            );
            out.set("serve.latency_p90_ms", quantile(&r.latency_ms, 0.9));
            out.set("serve.latency_p99_ms", quantile(&r.latency_ms, 0.99));
        }
        Err(e) => out.fail(format!("open loop: {e}")),
    }
}

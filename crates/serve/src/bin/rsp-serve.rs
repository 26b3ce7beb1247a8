//! CLI for the serve stack.
//!
//! ```text
//! rsp-serve listen ADDR [--queue-depth N] [--max-active N]
//!                       [--lag-watermark N] [--quantum N] [--pool N]
//!                       [--shards N] [--wfq] [--pack-hold N]
//!                       [--telemetry-dir DIR] [--no-slo]
//!                       [--flight-dir DIR] [--flight-capacity N]
//!                       [--shed-storm N] [--shed-window N]
//!                       [--replay-audit N]
//! rsp-serve drive  ADDR [--tenants N] [--seed S] [--lane-every K]
//!                       [--cycles N] [--weights A:B] [--timeout-secs N]
//!                       [--no-verify-replay] [--no-shutdown]
//! rsp-serve stats  ADDR [--prom]
//! rsp-serve shutdown ADDR
//! ```
//!
//! `listen` runs the server until a client sends `Shutdown` —
//! `--shards N` serves over N engine shards with tenant affinity,
//! `--wfq` schedules weighted-fair quanta honouring stream weights,
//! and `--pack-hold N` holds lane tenants up to N ticks to pack fuller
//! groups (DESIGN.md §16). `drive` is the smoke client used by CI: it
//! submits a mixed scalar/lane tenant fleet (alternating `--weights
//! A:B` stream weights when given), waits for completion, asserts
//! non-empty per-tenant telemetry, verifies offline replay
//! bit-identity for one scalar and one lane tenant (against the
//! default base config), prints the final stats JSON with per-reason
//! shed counts, and shuts the server down cleanly (`--no-shutdown`
//! leaves it running so `stats` can scrape it). `stats` prints a live
//! server's counters as JSON, or the full Prometheus text exposition
//! with `--prom`; `shutdown` stops it.
//!
//! Exit codes follow the workspace convention: 1 = runtime failure,
//! 2 = usage error.

use rsp_serve::{
    replay, ServeClient, Server, ServerConfig, ShedReason, TenantPhase, TenantRequest,
};
use rsp_sim::SimConfig;
use rsp_workloads::{LaneTraceSpec, StreamSpec, SynthSpec, UnitMix, MAX_STREAM_WEIGHT};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: rsp-serve <listen|drive|stats|shutdown> ADDR [options]
  listen:   --queue-depth N  --max-active N  --lag-watermark N  --quantum N
            --shards N (engine shards)  --wfq (weighted-fair quanta)
            --pack-hold N (lane-group packing hold, ticks)
            --pool N  --telemetry-dir DIR  --no-slo
            --flight-dir DIR  --flight-capacity N
            --shed-storm N  --shed-window N  --replay-audit N
  drive:    --tenants N  --seed S  --lane-every K  --cycles N
            --weights A:B (alternate stream weights, e.g. 3:1)
            --timeout-secs N  --no-verify-replay  --no-shutdown
  stats:    --prom (Prometheus text exposition instead of stats JSON)
  shutdown: (no options)
ADDR is host:port (TCP) or a path containing '/' (Unix socket).";

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn need(flag: &str, v: Option<String>) -> String {
    v.unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
}

fn parse<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    need(flag, v)
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} needs a number")))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mode = args.next().unwrap_or_else(|| usage_error("missing mode"));
    match mode.as_str() {
        "listen" => listen(args),
        "drive" => drive(args),
        "stats" => stats(args),
        "shutdown" => shutdown(args),
        "--help" | "-h" => eprintln!("{USAGE}"),
        other => usage_error(&format!("unknown mode {other:?}")),
    }
}

fn connect(addr: &str) -> ServeClient {
    ServeClient::connect(addr).unwrap_or_else(|e| fail(&format!("connect {addr}: {e}")))
}

fn stats(mut args: impl Iterator<Item = String>) {
    let addr = args
        .next()
        .unwrap_or_else(|| usage_error("stats needs ADDR"));
    let mut prom = false;
    for a in args {
        match a.as_str() {
            "--prom" => prom = true,
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    let mut client = connect(&addr);
    if prom {
        let text = client
            .exposition()
            .unwrap_or_else(|e| fail(&format!("exposition: {e}")));
        print!("{text}");
    } else {
        let s = client
            .stats()
            .unwrap_or_else(|e| fail(&format!("stats: {e}")));
        let json = serde_json::to_string_pretty(&s)
            .unwrap_or_else(|e| fail(&format!("stats encode: {e}")));
        println!("{json}");
    }
}

fn shutdown(mut args: impl Iterator<Item = String>) {
    let addr = args
        .next()
        .unwrap_or_else(|| usage_error("shutdown needs ADDR"));
    if let Some(other) = args.next() {
        usage_error(&format!("unknown argument {other:?}"));
    }
    connect(&addr)
        .shutdown()
        .unwrap_or_else(|e| fail(&format!("shutdown: {e}")));
    eprintln!("server at {addr} acknowledged shutdown");
}

fn listen(mut args: impl Iterator<Item = String>) {
    let addr = args
        .next()
        .unwrap_or_else(|| usage_error("listen needs ADDR"));
    let mut cfg = ServerConfig::default();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--queue-depth" => cfg.scheduler.queue_depth = parse(&a, args.next()),
            "--max-active" => cfg.scheduler.max_active = parse(&a, args.next()),
            "--lag-watermark" => cfg.scheduler.step_lag_watermark = parse(&a, args.next()),
            "--quantum" => cfg.scheduler.quantum = parse(&a, args.next()),
            "--shards" => cfg.shards = parse(&a, args.next()),
            "--wfq" => cfg.scheduler.max_weight = MAX_STREAM_WEIGHT,
            "--pack-hold" => cfg.engine.pack_hold_ticks = parse(&a, args.next()),
            "--pool" => cfg.engine.pool_capacity = parse(&a, args.next()),
            "--telemetry-dir" => {
                cfg.telemetry_dir = Some(PathBuf::from(need("--telemetry-dir", args.next())))
            }
            "--no-slo" => cfg.engine.slo = false,
            "--flight-dir" => {
                cfg.engine.flight_dir = Some(PathBuf::from(need("--flight-dir", args.next())))
            }
            "--flight-capacity" => cfg.engine.flight_capacity = parse(&a, args.next()),
            "--shed-storm" => cfg.engine.shed_storm_threshold = parse(&a, args.next()),
            "--shed-window" => cfg.engine.shed_storm_window = parse(&a, args.next()),
            "--replay-audit" => cfg.engine.replay_audit_every = parse(&a, args.next()),
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    if cfg.scheduler.quantum == 0 {
        usage_error("--quantum must be positive");
    }
    let server = Server::bind(&addr, cfg).unwrap_or_else(|e| fail(&format!("bind {addr}: {e}")));
    eprintln!("rsp-serve listening on {}", server.local_addr());
    match server.run() {
        Ok(stats) => {
            let json = serde_json::to_string_pretty(&stats)
                .unwrap_or_else(|e| fail(&format!("stats encode: {e}")));
            println!("{json}");
        }
        Err(e) => fail(&format!("serve: {e}")),
    }
}

/// The drive fleet's request for tenant `i`: every `lane_every`-th is
/// a lane tenant (when enabled), the rest rotate the named mixes.
/// With `--weights A:B`, even tenants carry weight A and odd weight B.
fn drive_request(
    i: u64,
    seed: u64,
    lane_every: u64,
    cycles: u64,
    weights: (u32, u32),
) -> TenantRequest {
    // `is_multiple_of` needs Rust 1.87; the workspace MSRV is 1.82.
    #[allow(unknown_lints, clippy::manual_is_multiple_of)]
    let weight = if i % 2 == 0 { weights.0 } else { weights.1 };
    if lane_every > 0 && i % lane_every == lane_every - 1 {
        let trace_cycles = cycles.min(4096) as u32;
        return TenantRequest::new(
            StreamSpec::lane(
                format!("drive-lane-{i}"),
                LaneTraceSpec::synthetic_mix(trace_cycles, seed + i),
                cycles,
            )
            .with_weight(weight),
        );
    }
    let mixes = UnitMix::named();
    let (mix_name, mix) = mixes[(i as usize) % mixes.len()];
    TenantRequest::new(
        StreamSpec::synth(
            format!("drive-{mix_name}-{i}"),
            SynthSpec {
                body_len: 200,
                ..SynthSpec::new("drive", mix, seed + i)
            },
            cycles,
        )
        .with_weight(weight),
    )
}

/// Parse a `--weights A:B` pair.
fn parse_weights(v: Option<String>) -> (u32, u32) {
    let s = need("--weights", v);
    let parsed = s
        .split_once(':')
        .and_then(|(a, b)| Some((a.trim().parse().ok()?, b.trim().parse().ok()?)));
    parsed.unwrap_or_else(|| usage_error("--weights needs A:B, e.g. 3:1"))
}

fn drive(mut args: impl Iterator<Item = String>) {
    let addr = args
        .next()
        .unwrap_or_else(|| usage_error("drive needs ADDR"));
    let mut tenants: u64 = 16;
    let mut seed: u64 = 1;
    let mut lane_every: u64 = 4;
    let mut cycles: u64 = 20_000;
    let mut weights: (u32, u32) = (0, 0);
    let mut timeout = Duration::from_secs(120);
    let mut verify_replay = true;
    let mut shutdown_after = true;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--tenants" => tenants = parse(&a, args.next()),
            "--seed" => seed = parse(&a, args.next()),
            "--lane-every" => lane_every = parse(&a, args.next()),
            "--cycles" => cycles = parse(&a, args.next()),
            "--weights" => weights = parse_weights(args.next()),
            "--timeout-secs" => timeout = Duration::from_secs(parse(&a, args.next())),
            "--no-verify-replay" => verify_replay = false,
            "--no-shutdown" => shutdown_after = false,
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    if tenants == 0 || cycles == 0 {
        usage_error("--tenants and --cycles must be positive");
    }

    let mut client =
        ServeClient::connect(&addr).unwrap_or_else(|e| fail(&format!("connect {addr}: {e}")));
    let mut admitted: Vec<(u64, TenantRequest)> = Vec::new();
    let mut shed = 0u64;
    for i in 0..tenants {
        let req = drive_request(i, seed, lane_every, cycles, weights);
        match client.submit(req.clone()) {
            Ok(Ok(id)) => admitted.push((id, req)),
            Ok(Err(reason)) => {
                shed += 1;
                match reason {
                    ShedReason::BadSpec(msg) => fail(&format!("drive spec rejected: {msg}")),
                    _ => eprintln!("tenant {i} shed: {reason}"),
                }
            }
            Err(e) => fail(&format!("submit: {e}")),
        }
    }
    eprintln!(
        "submitted {tenants} tenants: {} admitted, {shed} shed",
        admitted.len()
    );

    let deadline = Instant::now() + timeout;
    let mut pending: Vec<u64> = admitted.iter().map(|(id, _)| *id).collect();
    while !pending.is_empty() {
        if Instant::now() > deadline {
            fail(&format!(
                "timed out with {} tenants unfinished",
                pending.len()
            ));
        }
        pending.retain(|&id| match client.status(id) {
            Ok(Some(s)) => !matches!(s.phase, TenantPhase::Done | TenantPhase::Failed),
            Ok(None) => false,
            Err(e) => fail(&format!("status {id}: {e}")),
        });
        if !pending.is_empty() {
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    let mut empty = 0u64;
    let mut verified = 0u64;
    let mut verified_lane = false;
    let mut verified_scalar = false;
    for (id, req) in &admitted {
        let status = client
            .status(*id)
            .unwrap_or_else(|e| fail(&format!("status {id}: {e}")))
            .unwrap_or_else(|| fail(&format!("tenant {id} vanished")));
        if status.phase == TenantPhase::Failed {
            fail(&format!("tenant {id} failed server-side"));
        }
        let jsonl = client
            .telemetry(*id)
            .unwrap_or_else(|e| fail(&format!("telemetry {id}: {e}")))
            .unwrap_or_default();
        if jsonl.is_empty() {
            empty += 1;
            continue;
        }
        let first_of_kind = (status.lane && !verified_lane) || (!status.lane && !verified_scalar);
        if verify_replay && first_of_kind {
            let offline = replay(&SimConfig::default(), req)
                .unwrap_or_else(|e| fail(&format!("replay {id}: {e}")));
            if offline != jsonl {
                fail(&format!(
                    "tenant {id} replay mismatch: served {} bytes, replayed {} bytes",
                    jsonl.len(),
                    offline.len()
                ));
            }
            verified += 1;
            if status.lane {
                verified_lane = true;
            } else {
                verified_scalar = true;
            }
        }
    }
    if empty > 0 {
        fail(&format!("{empty} admitted tenants produced no telemetry"));
    }

    let stats = client
        .stats()
        .unwrap_or_else(|e| fail(&format!("stats: {e}")));
    let json = serde_json::to_string_pretty(&stats)
        .unwrap_or_else(|e| fail(&format!("stats encode: {e}")));
    println!("{json}");
    eprintln!(
        "drive ok: {} tenants completed, {shed} shed \
         (queue_full {}, step_lag {}, bad_spec {}), {verified} replay-verified",
        admitted.len(),
        stats.shed_queue_full,
        stats.shed_step_lag,
        stats.shed_bad_spec,
    );
    if shutdown_after {
        client
            .shutdown()
            .unwrap_or_else(|e| fail(&format!("shutdown: {e}")));
    } else {
        eprintln!("server left running (--no-shutdown)");
    }
}

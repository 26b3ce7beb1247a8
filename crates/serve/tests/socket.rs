//! End-to-end socket tests: a real server thread, a real client, 16
//! tenants through the wire on one and two shards, clean shutdown,
//! replay bit-identity across the transport boundary, telemetry export
//! under fleet-global ids, the SLO metrics frame and its Prometheus
//! exposition, flight-recorder dumps on a shed storm, clients that
//! stall inside a frame, a frame nested past the JSON reader's cap,
//! refused frames counted by class, and a telemetry ring past the
//! admission cap.

use rsp_obs::{parse_fleet_jsonl, FleetEvent, PromDump, TriggerKind};
use rsp_serve::{
    protocol, replay, Response, ServeClient, Server, ServerConfig, ShedReason, TenantPhase,
    TenantRequest, WatermarkScheduler, MAX_TELEMETRY_CAPACITY, SLO_HISTO_NAMES,
};
use rsp_sim::SimConfig;
use rsp_workloads::{LaneTraceSpec, StreamSpec, SynthSpec, UnitMix};
use std::io::Write;
use std::time::{Duration, Instant};

fn scalar_req(i: u64) -> TenantRequest {
    let mixes = UnitMix::named();
    let (_, mix) = mixes[(i as usize) % mixes.len()];
    TenantRequest::new(StreamSpec::synth(
        format!("sock-{i}"),
        SynthSpec {
            body_len: 100,
            ..SynthSpec::new("sock", mix, 100 + i)
        },
        20_000,
    ))
}

fn lane_req(i: u64) -> TenantRequest {
    TenantRequest::new(StreamSpec::lane(
        format!("sock-lane-{i}"),
        LaneTraceSpec::synthetic_mix(512, 200 + i),
        512,
    ))
}

#[test]
fn sixteen_tenants_over_tcp_with_clean_shutdown() {
    for shards in [1, 2] {
        sixteen_tenants_over_tcp(shards);
    }
}

fn sixteen_tenants_over_tcp(shards: usize) {
    let tel_dir =
        std::env::temp_dir().join(format!("rsp-sock-tel-{}-{shards}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tel_dir);
    let cfg = ServerConfig {
        shards,
        telemetry_dir: Some(tel_dir.clone()),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let mut client = ServeClient::connect(&addr).unwrap();
    let mut admitted = Vec::new();
    for i in 0..16u64 {
        let req = if i % 4 == 3 {
            lane_req(i)
        } else {
            scalar_req(i)
        };
        let id = client.submit(req.clone()).unwrap().expect("admitted");
        admitted.push((id, req));
    }
    let ids: Vec<u64> = admitted.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, (0..16).collect::<Vec<u64>>(), "ids are fleet-global");

    let deadline = Instant::now() + Duration::from_secs(120);
    let mut pending = ids.clone();
    while !pending.is_empty() {
        assert!(Instant::now() < deadline, "tenants did not finish in time");
        pending.retain(|&id| {
            let s = client.status(id).unwrap().expect("known tenant");
            !matches!(s.phase, TenantPhase::Done | TenantPhase::Failed)
        });
        std::thread::sleep(Duration::from_millis(20));
    }

    // Every tenant completed with non-empty telemetry; one scalar and
    // one lane tenant replay bit-identically through the wire.
    let base = SimConfig::default();
    let mut checked_scalar = false;
    let mut checked_lane = false;
    let mut served = Vec::new();
    for (id, req) in &admitted {
        let status = client.status(*id).unwrap().unwrap();
        assert_eq!(status.id, *id);
        assert_eq!(status.phase, TenantPhase::Done, "tenant {id}");
        assert!(status.cycles > 0);
        let jsonl = client.telemetry(*id).unwrap().unwrap();
        assert!(!jsonl.is_empty(), "tenant {id} produced no telemetry");
        if (status.lane && !checked_lane) || (!status.lane && !checked_scalar) {
            let offline = replay(&base, req).unwrap();
            assert_eq!(offline, jsonl, "tenant {id} replay mismatch");
            if status.lane {
                checked_lane = true;
            } else {
                checked_scalar = true;
            }
        }
        served.push(jsonl);
    }
    assert!(checked_scalar && checked_lane);

    let stats = client.stats().unwrap();
    assert_eq!(stats.admitted, 16);
    assert_eq!(stats.completed, 16);
    assert_eq!(stats.shed_total(), 0);
    assert!(stats.stepped_cycles > 0);

    client.shutdown().unwrap();
    let final_stats = handle.join().unwrap().unwrap();
    assert_eq!(final_stats.completed, 16);

    // Shutdown exported each tenant's served telemetry as
    // `t<global>.jsonl`, one file per tenant.
    let files = std::fs::read_dir(&tel_dir).unwrap().count();
    assert_eq!(files, 16, "{shards} shard(s)");
    for (id, jsonl) in ids.iter().zip(&served) {
        let path = tel_dir.join(format!("t{id}.jsonl"));
        assert_eq!(&std::fs::read_to_string(&path).unwrap(), jsonl, "{path:?}");
    }
    std::fs::remove_dir_all(&tel_dir).ok();
}

#[cfg(unix)]
#[test]
fn tenants_over_unix_socket() {
    let path = std::env::temp_dir().join(format!("rsp-serve-test-{}.sock", std::process::id()));
    let addr = path.to_str().unwrap().to_string();
    let server = Server::bind(&addr, ServerConfig::default()).unwrap();
    let handle = std::thread::spawn(move || server.run());

    let mut client = ServeClient::connect(&addr).unwrap();
    let id = client.submit(scalar_req(0)).unwrap().expect("admitted");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline);
        let s = client.status(id).unwrap().unwrap();
        if s.phase == TenantPhase::Done {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(!client.telemetry(id).unwrap().unwrap().is_empty());
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    assert!(!path.exists(), "socket file cleaned up on shutdown");
}

#[test]
fn metrics_frame_and_exposition_answer_over_the_wire() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let mut client = ServeClient::connect(&addr).unwrap();
    let mut ids = Vec::new();
    for i in 0..6u64 {
        let req = if i % 3 == 2 {
            lane_req(i)
        } else {
            scalar_req(i)
        };
        ids.push(client.submit(req).unwrap().expect("admitted"));
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        assert!(Instant::now() < deadline, "tenants did not finish in time");
        let done = ids
            .iter()
            .all(|&id| client.status(id).unwrap().unwrap().phase == TenantPhase::Done);
        if done {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // The metrics frame carries per-tenant SLO histograms whose counts
    // sum to the aggregate snapshot — the wire-level invariant.
    let frame = client.metrics().unwrap();
    assert_eq!(frame.tenants.len(), 6);
    for name in SLO_HISTO_NAMES {
        let agg = frame.aggregate.histogram(name).unwrap();
        let per_tenant: u64 = frame
            .tenants
            .iter()
            .map(|t| t.snapshot.histogram(name).map_or(0, |h| h.count))
            .sum();
        assert_eq!(agg.count, per_tenant, "histogram {name}");
    }

    // The server-rendered exposition parses, and its families agree
    // with the frame the same server just returned.
    let text = client.exposition().unwrap();
    let dump = PromDump::parse(&text).unwrap();
    assert_eq!(
        dump.value_u64("rsp_serve_admitted_total", &[]),
        Some(frame.stats.admitted)
    );
    let agg = dump.histogram("rsp_serve_queue_residency", &[]).unwrap();
    assert_eq!(agg.count, 6, "every tenant records one residency sample");
    for t in &frame.tenants {
        let key = format!("t{}", t.id);
        let h = dump
            .histogram("rsp_serve_tenant_quantum_cycles", &[("tenant", &key)])
            .unwrap();
        assert_eq!(
            h.count,
            t.snapshot.histogram("quantum_cycles").unwrap().count
        );
        assert!(h.count > 0, "tenant {} stepped at least one quantum", t.id);
    }

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn shed_storm_writes_a_wellformed_flight_dump() {
    let dir = std::env::temp_dir().join(format!("rsp-sock-flight-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ServerConfig {
        scheduler: WatermarkScheduler {
            queue_depth: 2,
            max_active: 0, // nothing activates → deterministic sheds
            step_lag_watermark: 1_000_000,
            quantum: 64,
            ..WatermarkScheduler::default()
        },
        ..ServerConfig::default()
    };
    cfg.engine.flight_dir = Some(dir.clone());
    cfg.engine.shed_storm_threshold = 5;
    // The engine free-runs ticks between round-trips, so pin one
    // unbounded window: every shed counts toward the storm.
    cfg.engine.shed_storm_window = u64::MAX;
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let mut client = ServeClient::connect(&addr).unwrap();
    let mut shed = 0;
    for i in 0..12u64 {
        if client.submit(scalar_req(i)).unwrap().is_err() {
            shed += 1;
        }
    }
    assert_eq!(shed, 10);
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();

    // Exactly one storm dump (the threshold trips once per window),
    // and it parses back into entries that tell the whole story:
    // admissions, the shed run, and the trigger stamp.
    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("flight dir created")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(dumps.len(), 1, "dumps: {dumps:?}");
    let name = dumps[0].file_name().unwrap().to_string_lossy().to_string();
    assert!(
        name.starts_with("flight-") && name.contains("shed_storm") && name.ends_with(".jsonl"),
        "dump name {name:?}"
    );
    let entries = parse_fleet_jsonl(&std::fs::read_to_string(&dumps[0]).unwrap()).unwrap();
    let admitted = entries
        .iter()
        .filter(|e| matches!(e.event, FleetEvent::Admitted))
        .count();
    let sheds = entries
        .iter()
        .filter(|e| matches!(e.event, FleetEvent::Shed { .. }))
        .count();
    assert_eq!(admitted, 2);
    assert_eq!(sheds, 5, "the dump snapshots the ring at trigger time");
    assert!(entries.iter().any(|e| matches!(
        e.event,
        FleetEvent::Trigger {
            kind: TriggerKind::ShedStorm
        }
    )));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn saturated_server_sheds_with_reasons_over_the_wire() {
    // max_active 0: nothing ever activates, so the queue fills to its
    // depth and every later submission sheds — deterministic regardless
    // of how fast the engine thread ticks between round-trips.
    let cfg = ServerConfig {
        scheduler: WatermarkScheduler {
            queue_depth: 2,
            max_active: 0,
            step_lag_watermark: 1_000_000, // queue-depth is the binding watermark
            quantum: 64,
            ..WatermarkScheduler::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let mut client = ServeClient::connect(&addr).unwrap();
    let mut shed = 0;
    let mut ok = 0;
    for i in 0..12u64 {
        match client.submit(scalar_req(i)).unwrap() {
            Ok(_) => ok += 1,
            Err(_) => shed += 1,
        }
    }
    assert_eq!(ok, 2, "queue depth 2 admits exactly two tenants");
    assert_eq!(shed, 10, "every submission past the watermark is shed");
    let stats = client.stats().unwrap();
    assert_eq!(stats.shed_total(), shed);
    assert_eq!(stats.shed_queue_full, shed);
    assert_eq!(stats.admitted, ok);
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// Clients that write part of a frame and then stall, socket open, must
/// hold up nothing: one engine thread serves every shard, so another
/// client's tenants still finish on time, and shutdown still completes
/// while the torn frames are pending.
#[test]
fn stalled_half_frames_block_neither_service_nor_shutdown() {
    let cfg = ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    // One client stalls inside a frame body (a header promising 64
    // bytes, then 32), another inside the 4-byte header.
    let mut mid_body = std::net::TcpStream::connect(&addr).unwrap();
    mid_body.write_all(&64u32.to_be_bytes()).unwrap();
    mid_body.write_all(&[b' '; 32]).unwrap();
    let mut mid_header = std::net::TcpStream::connect(&addr).unwrap();
    mid_header.write_all(&[0, 0]).unwrap();

    let mut client = ServeClient::connect(&addr).unwrap();
    let ids: Vec<u64> = (0..4u64)
        .map(|i| client.submit(scalar_req(i)).unwrap().expect("admitted"))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(60);
    for &id in &ids {
        loop {
            let s = client.status(id).unwrap().expect("known tenant");
            if s.phase == TenantPhase::Done {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "tenant {id} did not finish in time"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    client.shutdown().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !handle.is_finished() {
        assert!(
            Instant::now() < deadline,
            "shutdown hung on a client stalled inside a frame"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = handle.join().unwrap().unwrap();
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.shed_total(), 0);
    drop((mid_body, mid_header));
}

/// A frame nested one level past the JSON reader's cap gets an error
/// reply naming the cap instead of overflowing the connection thread's
/// stack, which would abort the whole server; another client is then
/// served as usual.
#[test]
fn too_deep_frame_is_refused_and_the_server_keeps_serving() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    // The `{"Submit": ...}` object is one level; its payload the rest.
    let depth = serde_json::MAX_DEPTH;
    let body = format!(r#"{{"Submit":{}{}}}"#, "[".repeat(depth), "]".repeat(depth));
    let mut hostile = std::net::TcpStream::connect(&addr).unwrap();
    hostile
        .write_all(&(body.len() as u32).to_be_bytes())
        .unwrap();
    hostile.write_all(body.as_bytes()).unwrap();
    let reply = protocol::read_frame(&mut hostile)
        .unwrap()
        .expect("the server replies before hanging up");
    match protocol::decode::<Response>(&reply).unwrap() {
        Response::Error { msg } => {
            assert!(msg.starts_with("nesting deeper than 128 levels"), "{msg}")
        }
        other => panic!("expected an error reply, got {other:?}"),
    }

    let mut client = ServeClient::connect(&addr).unwrap();
    let id = client.submit(scalar_req(0)).unwrap().expect("admitted");
    let deadline = Instant::now() + Duration::from_secs(60);
    while client.status(id).unwrap().expect("known tenant").phase != TenantPhase::Done {
        assert!(Instant::now() < deadline, "tenant {id} did not finish");
        std::thread::sleep(Duration::from_millis(20));
    }
    client.shutdown().unwrap();
    let stats = handle.join().unwrap().unwrap();
    assert_eq!((stats.submitted, stats.completed), (1, 1));
    drop(hostile);
}

/// Every frame the server refuses is counted by class, in the `Stats`
/// and `Metrics` replies and the exposition: a malformed payload, one of
/// the wrong shape and one nested past the cap are answered with an
/// error on a connection that stays open, and a frame longer than
/// `MAX_FRAME` drops its connection. A good tenant is served throughout.
#[test]
fn refused_frames_are_counted_by_class() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let send = |stream: &mut std::net::TcpStream, body: &str| {
        stream
            .write_all(&(body.len() as u32).to_be_bytes())
            .unwrap();
        stream.write_all(body.as_bytes()).unwrap();
    };
    let depth = serde_json::MAX_DEPTH;
    let too_deep = format!(r#"{{"Submit":{}{}}}"#, "[".repeat(depth), "]".repeat(depth));
    let mut hostile = std::net::TcpStream::connect(&addr).unwrap();
    for body in [r#"{"Submit":"#, too_deep.as_str(), r#"{"Bogus":1}"#] {
        send(&mut hostile, body);
        let reply = protocol::read_frame(&mut hostile).unwrap().unwrap();
        assert!(
            matches!(protocol::decode(&reply).unwrap(), Response::Error { .. }),
            "{reply}"
        );
    }
    let mut oversized = std::net::TcpStream::connect(&addr).unwrap();
    oversized
        .write_all(&(rsp_serve::MAX_FRAME as u32 + 1).to_be_bytes())
        .unwrap();
    assert!(
        protocol::read_frame(&mut oversized).unwrap().is_none(),
        "the server hangs up without a reply"
    );

    let mut client = ServeClient::connect(&addr).unwrap();
    let id = client.submit(scalar_req(0)).unwrap().expect("admitted");
    let deadline = Instant::now() + Duration::from_secs(60);
    while client.status(id).unwrap().expect("known tenant").phase != TenantPhase::Done {
        assert!(Instant::now() < deadline, "tenant {id} did not finish");
        std::thread::sleep(Duration::from_millis(20));
    }
    let want = rsp_serve::RefusedFrames {
        syntax: 1,
        data: 1,
        depth: 1,
        framing: 1,
    };
    assert_eq!(client.stats().unwrap().refused, want);
    assert_eq!(client.metrics().unwrap().stats.refused, want);
    let dump = PromDump::parse(&client.exposition().unwrap()).unwrap();
    for class in ["syntax", "data", "depth", "framing"] {
        let got = dump.value_u64("rsp_serve_refused_frames_total", &[("class", class)]);
        assert_eq!(got, Some(1), "{class}");
    }
    client.shutdown().unwrap();
    let stats = handle.join().unwrap().unwrap();
    assert_eq!((stats.submitted, stats.completed), (1, 1));
    assert_eq!(stats.refused, want);
    drop((hostile, oversized));
}

/// A `Submit` asking for a telemetry ring past the cap is shed as
/// `BadSpec` naming the cap, and counted, instead of being admitted and
/// making the engine thread panic when the ring is allocated; a good
/// tenant submitted after it completes.
#[test]
fn oversized_telemetry_ring_is_shed_at_admission() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let mut client = ServeClient::connect(&addr).unwrap();
    let mut hostile = scalar_req(0);
    hostile.telemetry_capacity = usize::MAX / 2;
    match client.submit(hostile).unwrap() {
        Err(ShedReason::BadSpec(note)) => assert!(
            note.as_str()
                .contains(&format!("cap of {MAX_TELEMETRY_CAPACITY} events")),
            "{note}"
        ),
        other => panic!("expected a BadSpec shed, got {other:?}"),
    }
    let id = client.submit(scalar_req(1)).unwrap().expect("admitted");
    let deadline = Instant::now() + Duration::from_secs(60);
    while client.status(id).unwrap().expect("known tenant").phase != TenantPhase::Done {
        assert!(Instant::now() < deadline, "tenant {id} did not finish");
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.shed_bad_spec, 1);
    assert_eq!((stats.submitted, stats.admitted), (2, 1));
    client.shutdown().unwrap();
    let stats = handle.join().unwrap().unwrap();
    assert_eq!(stats.completed, 1);
}

//! End-to-end loopback tests: a real [`Service`] on an ephemeral port,
//! driven by the `vodload` engine in-process.
//!
//! The centrepiece is the **service ↔ simulator equivalence oracle**: with
//! explicit arrival slots, every `(slot, segment, shared)` triple a client
//! receives over TCP must be byte-identical to what the offline engines
//! produce for the same arrival sequence — a direct [`SlotScheduler`]
//! replay per video (fixed-rate DHB, dynamic-NPB, explicit periods, and the
//! DHB-d VBR pipeline alike) and a full [`SlottedRun`] kernel simulation.
//! The remaining tests pin the overload (load-shedding), graceful-drain,
//! heterogeneous-catalog (`Describe`, invalid entries, version mismatch),
//! and `STATS` contracts.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use dhb_core::{Dhb, SlotScheduler};
use vod_obs::{EventKind, Journal, RejectKind};
use vod_sim::{DeterministicArrivals, SlottedRun};
use vod_svc::wire::{read_frame, write_frame, Frame};
use vod_svc::{
    fetch_stats, run_load, GrantedSegment, LoadConfig, SchedulerKind, ServeCatalog, ServeEntry,
    Service, SvcConfig,
};
use vod_types::{Seconds, Slot, VideoSpec};

/// A small catalog entry: 6 segments of 10 s each.
fn small_video() -> VideoSpec {
    VideoSpec::new(Seconds::new(60.0), 6).expect("valid spec")
}

/// Replays `arrivals` through any offline [`SlotScheduler`] exactly like a
/// shard does: advance the ring to the arrival slot, then schedule.
fn offline_replay(scheduler: &mut dyn SlotScheduler, arrivals: &[u64]) -> Vec<Vec<GrantedSegment>> {
    let mut grants = Vec::with_capacity(arrivals.len());
    for &a in arrivals {
        while scheduler.next_slot().index() < a {
            let _ = scheduler.pop_slot();
        }
        let schedule = scheduler.schedule_request(Slot::new(a));
        grants.push(
            schedule
                .iter()
                .map(|s| GrantedSegment {
                    segment: s.segment.get() as u32,
                    slot: s.slot.index(),
                    shared: !s.newly_scheduled,
                })
                .collect(),
        );
    }
    grants
}

/// Replays `arrivals` through a fresh offline build of `entry`.
fn offline_grants_for(entry: &ServeEntry, arrivals: &[u64]) -> Vec<Vec<GrantedSegment>> {
    let (_, mut scheduler) = entry.build(&Journal::disabled()).expect("entry builds");
    offline_replay(scheduler.as_mut(), arrivals)
}

#[test]
fn service_grants_match_offline_simulators() {
    let video = small_video();
    let requests_per_conn = 12u64;
    let service = Service::start(
        "127.0.0.1:0",
        &SvcConfig {
            catalog: ServeCatalog::uniform(2, video),
            shards: 2,
            dilation: 1_000,
            ..SvcConfig::default()
        },
    )
    .expect("service starts");

    let report = run_load(
        service.local_addr(),
        &LoadConfig {
            conns: 2,
            requests_per_conn,
            videos: 2,
            window: 4,
            open_rate: None,
            arrival_stride: Some(1),
            collect_grants: true,
            ..LoadConfig::default()
        },
    )
    .expect("load run succeeds");

    assert_eq!(report.grants, 2 * requests_per_conn, "{}", report.render());
    assert_eq!(report.rejected, 0, "{}", report.render());
    assert_eq!(report.protocol_errors, 0, "{}", report.render());

    // Oracle 1: direct scheduler replay, one per video (= per connection).
    let arrivals: Vec<u64> = (0..requests_per_conn).collect();
    let segments = video.last_segment().get();
    let expected = offline_grants_for(&ServeEntry::fixed_rate(video), &arrivals);

    // Oracle 2: the full simulation kernel. Arrivals at (a + 0.5)·d land in
    // slot a and are scheduled before that slot airs — the same order the
    // shard uses — so the recorded assignments must agree as well.
    let d = video.segment_duration().as_secs_f64();
    let times: Vec<Seconds> = arrivals
        .iter()
        .map(|&a| Seconds::new((a as f64 + 0.5) * d))
        .collect();
    let mut dhb = Dhb::fixed_rate(segments).recording_assignments();
    let _ = SlottedRun::new(video)
        .warmup_slots(0)
        .measured_slots(requests_per_conn)
        .run(&mut dhb, DeterministicArrivals::new(times));
    let kernel_grants: Vec<Vec<GrantedSegment>> = dhb
        .assignments()
        .iter()
        .map(|(_, schedule)| {
            schedule
                .iter()
                .map(|s| GrantedSegment {
                    segment: s.segment.get() as u32,
                    slot: s.slot.index(),
                    shared: !s.newly_scheduled,
                })
                .collect()
        })
        .collect();
    assert_eq!(
        kernel_grants, expected,
        "kernel and replay oracles disagree"
    );

    // Every connection drives its own video on its own shard, so each must
    // see the full fresh-scheduler sequence, byte-identical.
    for (conn, grants) in report.grants_by_conn.iter().enumerate() {
        assert_eq!(grants.len(), requests_per_conn as usize, "conn {conn}");
        for (i, grant) in grants.iter().enumerate() {
            assert_eq!(grant.seq, i as u64, "conn {conn} grant order");
            assert_eq!(grant.arrival_slot, arrivals[i], "conn {conn} slot");
            assert_eq!(
                grant.segments, expected[i],
                "conn {conn} request {i}: service grant differs from simulator"
            );
        }
    }

    let summary = service.shutdown();
    assert_eq!(summary.grants, 2 * requests_per_conn);
    assert_eq!(summary.rejected, 0);
}

#[test]
fn overload_sheds_with_explicit_rejections() {
    // One slow shard (2 ms per request) with a 2-deep admission queue,
    // hit with a 40-request burst in a single window: the queue must
    // overflow, and every overflow must surface as Rejected(queue_full) —
    // never a hang, never a dropped request.
    let burst = 40u64;
    let service = Service::start(
        "127.0.0.1:0",
        &SvcConfig {
            catalog: ServeCatalog::uniform(1, small_video()),
            shards: 1,
            dilation: 1_000,
            queue_cap: 2,
            min_service_time: Duration::from_millis(2),
            ..SvcConfig::default()
        },
    )
    .expect("service starts");

    let report = run_load(
        service.local_addr(),
        &LoadConfig {
            conns: 1,
            requests_per_conn: burst,
            videos: 1,
            window: burst,
            open_rate: None,
            arrival_stride: Some(1),
            collect_grants: false,
            ..LoadConfig::default()
        },
    )
    .expect("load run succeeds");

    assert_eq!(
        report.grants + report.rejected,
        burst,
        "every request must be answered: {}",
        report.render()
    );
    assert!(
        report.rejected >= 1,
        "a 40-burst against a 2-deep queue must shed: {}",
        report.render()
    );
    assert_eq!(report.protocol_errors, 0, "{}", report.render());

    let stats = service.stats();
    assert_eq!(
        stats.rejected_queue_full.load(Ordering::Relaxed),
        report.rejected,
        "all rejections must be queue_full"
    );
    assert_eq!(stats.rejected_draining.load(Ordering::Relaxed), 0);
    assert_eq!(stats.rejected_unknown_video.load(Ordering::Relaxed), 0);
    let _ = service.shutdown();
}

#[test]
fn unknown_video_is_rejected_not_dropped() {
    let service = Service::start(
        "127.0.0.1:0",
        &SvcConfig {
            catalog: ServeCatalog::uniform(1, small_video()),
            shards: 1,
            ..SvcConfig::default()
        },
    )
    .expect("service starts");
    let mut stream = TcpStream::connect(service.local_addr()).expect("connect");
    write_frame(
        &mut stream,
        &Frame::Request {
            seq: 7,
            video: 99,
            arrival_slot: 0,
        },
    )
    .expect("write");
    match read_frame(&mut stream).expect("read") {
        Some(Frame::Rejected { seq, reason }) => {
            assert_eq!(seq, 7);
            assert_eq!(reason, RejectKind::UnknownVideo);
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    let _ = service.shutdown();
}

#[test]
fn graceful_shutdown_drains_admitted_grants() {
    // Admit 6 requests into a slow shard, then shut down while they are
    // still in flight: every admitted request must still be granted before
    // the socket closes, and the drain must be journaled.
    let admitted = 6u64;
    let journal = Journal::enabled();
    let service = Service::start(
        "127.0.0.1:0",
        &SvcConfig {
            catalog: ServeCatalog::uniform(1, small_video()),
            shards: 1,
            dilation: 1_000,
            min_service_time: Duration::from_millis(5),
            journal: journal.clone(),
            ..SvcConfig::default()
        },
    )
    .expect("service starts");

    let mut stream = TcpStream::connect(service.local_addr()).expect("connect");
    for seq in 0..admitted {
        write_frame(
            &mut stream,
            &Frame::Request {
                seq,
                video: 0,
                arrival_slot: seq,
            },
        )
        .expect("write");
    }
    // Wait until the reader has admitted all of them (the shard is still
    // grinding through its 5 ms-per-request backlog).
    let stats = service.stats().clone();
    let deadline = Instant::now() + Duration::from_secs(5);
    while stats.requests.load(Ordering::Relaxed) < admitted {
        assert!(Instant::now() < deadline, "requests never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }

    let shutdown = std::thread::spawn(move || service.shutdown());

    let mut grants = 0u64;
    let mut draining_seen = false;
    loop {
        match read_frame(&mut stream).expect("read frame") {
            Some(Frame::Grant { .. }) => grants += 1,
            Some(Frame::Draining) => draining_seen = true,
            Some(other) => panic!("unexpected frame during drain: {other:?}"),
            None => break, // clean EOF after the writer flushed
        }
    }
    assert_eq!(
        grants, admitted,
        "graceful shutdown must deliver every admitted grant \
         (draining frame seen: {draining_seen})"
    );

    let summary = shutdown.join().expect("shutdown thread");
    assert_eq!(summary.grants, admitted);
    assert_eq!(summary.requests, admitted);
    assert_eq!(journal.count_of(EventKind::ServiceDrained), 1);
    assert_eq!(journal.count_of(EventKind::ConnAccepted), 1);
}

#[test]
fn stats_frame_reports_live_counters() {
    let service = Service::start(
        "127.0.0.1:0",
        &SvcConfig {
            catalog: ServeCatalog::uniform(2, small_video()),
            shards: 2,
            dilation: 1_000,
            ..SvcConfig::default()
        },
    )
    .expect("service starts");
    let report = run_load(service.local_addr(), &LoadConfig::default()).expect("load run");
    assert_eq!(report.grants, 100, "{}", report.render());

    let json = fetch_stats(service.local_addr()).expect("stats fetch");
    assert!(json.contains("\"svc.grants\": 100"), "{json}");
    assert!(json.contains("svc.span.shard0.total_ns"), "{json}");
    assert!(json.contains("\"svc.rejected.queue_full\": 0"), "{json}");
    let _ = service.shutdown();
}

/// A mixed serving catalog: fixed-rate DHB, dynamic-NPB, an explicit
/// period vector, and the full DHB-d VBR pipeline (Matrix preset).
fn mixed_catalog() -> ServeCatalog {
    ServeCatalog::from_entries(vec![
        ServeEntry {
            segment_secs: 10.0,
            bytes_per_sec: None,
            kind: SchedulerKind::Dhb { segments: 6 },
        },
        ServeEntry {
            segment_secs: 10.0,
            bytes_per_sec: None,
            kind: SchedulerKind::Npb { segments: 8 },
        },
        ServeEntry {
            segment_secs: 5.0,
            bytes_per_sec: None,
            kind: SchedulerKind::Periods {
                periods: vec![1, 2, 2, 4],
            },
        },
        ServeEntry {
            segment_secs: 60.0, // ignored: the DHB-d plan fixes its own slot
            bytes_per_sec: None,
            kind: SchedulerKind::DhbD {
                preset: "matrix".to_owned(),
                seed: 1,
                max_wait_secs: 60.0,
            },
        },
    ])
}

#[test]
fn mixed_catalog_grants_match_each_videos_offline_oracle() {
    // One connection per catalog entry, each with the same explicit arrival
    // sequence: every video's wire grants must be byte-identical to an
    // offline replay of that video's own scheduler — different segment
    // counts, different protocols, different period vectors.
    let catalog = mixed_catalog();
    let requests_per_conn = 10u64;
    let service = Service::start(
        "127.0.0.1:0",
        &SvcConfig {
            catalog: catalog.clone(),
            shards: 3, // deliberately coprime with neither 4 nor 1
            dilation: 1_000,
            ..SvcConfig::default()
        },
    )
    .expect("service starts");

    let report = run_load(
        service.local_addr(),
        &LoadConfig {
            conns: 4,
            requests_per_conn,
            videos: 4,
            mix: Some(vec![0, 1, 2, 3]),
            describe: true,
            window: 4,
            open_rate: None,
            arrival_stride: Some(1),
            collect_grants: true,
            ..LoadConfig::default()
        },
    )
    .expect("load run succeeds");

    assert_eq!(report.grants, 4 * requests_per_conn, "{}", report.render());
    assert_eq!(report.rejected, 0, "{}", report.render());
    assert_eq!(report.protocol_errors, 0, "{}", report.render());
    assert_eq!(report.video_infos, 4, "one Describe reply per connection");

    let arrivals: Vec<u64> = (0..requests_per_conn).collect();
    for (conn, grants) in report.grants_by_conn.iter().enumerate() {
        let video = report.videos_by_conn[conn] as usize;
        let entry = &catalog.entries()[video];
        let expected = offline_grants_for(entry, &arrivals);
        assert_eq!(grants.len(), arrivals.len(), "video {video}");
        for (i, grant) in grants.iter().enumerate() {
            assert_eq!(
                grant.segments,
                expected[i],
                "video {video} ({}) request {i}: wire grant differs from \
                 its offline scheduler replay",
                entry.protocol_key()
            );
        }
    }

    // The shard-side timeliness audit must have checked every granted
    // instance and found zero deadline misses.
    let stats = service.stats().clone();
    let checked = stats.audit_segments_checked.load(Ordering::Relaxed);
    let granted: u64 = report
        .grants_by_conn
        .iter()
        .flatten()
        .map(|g| g.segments.len() as u64)
        .sum();
    assert_eq!(checked, granted, "every granted instance is audited");
    assert_eq!(stats.audit_deadline_misses.load(Ordering::Relaxed), 0);
    let _ = service.shutdown();
}

#[test]
fn describe_reports_per_video_geometry() {
    let catalog = mixed_catalog();
    let service = Service::start(
        "127.0.0.1:0",
        &SvcConfig {
            catalog,
            shards: 2,
            ..SvcConfig::default()
        },
    )
    .expect("service starts");
    let mut stream = TcpStream::connect(service.local_addr()).expect("connect");
    for (seq, video) in [(0u64, 0u32), (1, 1), (2, 2)] {
        write_frame(&mut stream, &Frame::Describe { seq, video }).expect("write");
    }
    write_frame(&mut stream, &Frame::Describe { seq: 3, video: 99 }).expect("write");

    let mut infos = Vec::new();
    for _ in 0..3 {
        match read_frame(&mut stream).expect("read") {
            Some(Frame::VideoInfo {
                video,
                segments,
                protocol,
                periods,
                ..
            }) => infos.push((video, segments, protocol, periods)),
            other => panic!("expected VideoInfo, got {other:?}"),
        }
    }
    assert_eq!(infos[0], (0, 6, "DHB".to_owned(), vec![1, 2, 3, 4, 5, 6]));
    assert_eq!(infos[1].0, 1);
    assert_eq!(infos[1].1, 8);
    assert_eq!(infos[1].2, "dyn-NPB");
    assert_eq!(infos[1].3.len(), 8, "one period per NPB class");
    assert_eq!(infos[2], (2, 4, "DHB".to_owned(), vec![1, 2, 2, 4]));
    match read_frame(&mut stream).expect("read") {
        Some(Frame::Rejected { seq: 3, reason }) => {
            assert_eq!(reason, RejectKind::UnknownVideo);
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    let _ = service.shutdown();
}

#[test]
fn invalid_catalog_entry_is_rejected_typed_while_neighbours_serve() {
    // An untrusted catalog file with one semantically broken entry (zero
    // period): the service must come up, serve the good entry, and answer
    // the bad one with Rejected(invalid_video) — never crash.
    let catalog = ServeCatalog::from_entries(vec![
        ServeEntry {
            segment_secs: 10.0,
            bytes_per_sec: None,
            kind: SchedulerKind::Dhb { segments: 4 },
        },
        ServeEntry {
            segment_secs: 10.0,
            bytes_per_sec: None,
            kind: SchedulerKind::Periods {
                periods: vec![1, 0, 3],
            },
        },
    ]);
    let service = Service::start(
        "127.0.0.1:0",
        &SvcConfig {
            catalog,
            shards: 1,
            ..SvcConfig::default()
        },
    )
    .expect("service starts despite the bad entry");
    let mut stream = TcpStream::connect(service.local_addr()).expect("connect");
    for (seq, video) in [(0u64, 1u32), (1, 0)] {
        write_frame(
            &mut stream,
            &Frame::Request {
                seq,
                video,
                arrival_slot: 0,
            },
        )
        .expect("write");
    }
    match read_frame(&mut stream).expect("read") {
        Some(Frame::Rejected { seq: 0, reason }) => {
            assert_eq!(reason, RejectKind::InvalidVideo);
        }
        other => panic!("expected Rejected(invalid_video), got {other:?}"),
    }
    match read_frame(&mut stream).expect("read") {
        Some(Frame::Grant {
            seq: 1,
            video: 0,
            segments,
            ..
        }) => {
            assert_eq!(segments.len(), 4, "the good entry still serves");
        }
        other => panic!("expected Grant for the valid video, got {other:?}"),
    }
    // Describe on the broken entry is the same typed rejection.
    write_frame(&mut stream, &Frame::Describe { seq: 2, video: 1 }).expect("write");
    match read_frame(&mut stream).expect("read") {
        Some(Frame::Rejected { seq: 2, reason }) => {
            assert_eq!(reason, RejectKind::InvalidVideo);
        }
        other => panic!("expected Rejected(invalid_video), got {other:?}"),
    }
    let stats = service.stats().clone();
    assert_eq!(stats.rejected_invalid_video.load(Ordering::Relaxed), 1);
    let _ = service.shutdown();
}

#[test]
fn mismatched_hello_version_drops_the_connection() {
    let service = Service::start(
        "127.0.0.1:0",
        &SvcConfig {
            catalog: ServeCatalog::uniform(1, small_video()),
            shards: 1,
            ..SvcConfig::default()
        },
    )
    .expect("service starts");
    let mut stream = TcpStream::connect(service.local_addr()).expect("connect");
    // Forge a version-1 handshake: the server's decoder rejects it with the
    // typed Version error and the reader drops the connection.
    write_frame(&mut stream, &Frame::Hello { version: 1 }).expect("write");
    match read_frame(&mut stream) {
        Ok(None) | Err(_) => {}
        Ok(Some(frame)) => panic!("expected a dropped connection, got {frame:?}"),
    }
    let stats = service.stats().clone();
    let deadline = Instant::now() + Duration::from_secs(5);
    while stats.protocol_errors.load(Ordering::Relaxed) == 0 {
        assert!(Instant::now() < deadline, "protocol error never counted");
        std::thread::sleep(Duration::from_millis(1));
    }
    let _ = service.shutdown();
}

#[test]
fn pipelined_rejections_with_full_outbound_queue_do_not_deadlock() {
    // Regression: a shard blocked mid-send into a full outbound queue holds
    // the session delivery lock; the owning loop must still be able to mint
    // and ring-record rejections for the same session (loop-side delivery
    // takes the inner lock only). Taking the delivery lock on the loop
    // thread deadlocked the whole event loop — flushes included, so the
    // shard never unblocked and shutdown hung.
    //
    // The wedge needs every frame dispatched in ONE read pass (the loop
    // only flushes between passes): a single TCP burst of Hello, then
    // Stats frames whose replies push the queue over cap mid-pass, then
    // valid requests (the shard's deliveries now block on the full queue,
    // holding the delivery lock), then more Stats as a time spacer, then
    // invalid-video requests the loop must reject-and-record itself.
    let valid = 8u64;
    let invalid = 8u64;
    let service = Service::start(
        "127.0.0.1:0",
        &SvcConfig {
            catalog: ServeCatalog::uniform(1, small_video()),
            shards: 1,
            dilation: 1_000,
            // The minimum cap: a handful of unflushed replies fill it.
            outbound_cap: 8,
            io_threads: 1,
            ..SvcConfig::default()
        },
    )
    .expect("service starts");

    let mut burst: Vec<u8> = Vec::new();
    write_frame(
        &mut burst,
        &Frame::Hello {
            version: vod_svc::wire::PROTOCOL_VERSION,
        },
    )
    .expect("encode hello");
    let mut stats_frames = 0u64;
    for _ in 0..20 {
        write_frame(&mut burst, &Frame::Stats).expect("encode stats");
        stats_frames += 1;
    }
    for seq in 0..valid {
        write_frame(
            &mut burst,
            &Frame::Request {
                seq,
                video: 0,
                arrival_slot: seq,
            },
        )
        .expect("encode request");
    }
    // Each Stats dispatch renders a full snapshot — tens of microseconds —
    // so by the final frames the shard is parked on the full queue.
    for _ in 0..20 {
        write_frame(&mut burst, &Frame::Stats).expect("encode stats");
        stats_frames += 1;
    }
    for seq in valid..valid + invalid {
        write_frame(
            &mut burst,
            &Frame::Request {
                seq,
                video: 99,
                arrival_slot: seq,
            },
        )
        .expect("encode request");
    }

    let mut stream = TcpStream::connect(service.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.write_all(&burst).expect("one-burst write");

    let mut grants = 0u64;
    let mut rejected = 0u64;
    let mut stats_replies = 0u64;
    let mut welcomed = false;
    while grants + rejected + stats_replies < valid + invalid + stats_frames {
        match read_frame(&mut stream).expect("read") {
            Some(Frame::Welcome { .. }) => welcomed = true,
            Some(Frame::Grant { .. }) => grants += 1,
            Some(Frame::StatsReply { .. }) => stats_replies += 1,
            Some(Frame::Rejected { reason, .. }) => {
                assert_eq!(reason, RejectKind::UnknownVideo);
                rejected += 1;
            }
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    assert!(welcomed, "Hello must be answered");
    assert_eq!(grants, valid);
    assert_eq!(rejected, invalid);
    let summary = service.shutdown();
    assert_eq!(summary.grants, valid);
}

#[test]
fn shutdown_completes_when_a_live_peer_stops_reading() {
    // Regression: phase two of the drain waited for every queue to flush,
    // but a peer that keeps its socket open and never reads parks the
    // flush at WouldBlock forever — shutdown hung with no backstop. The
    // finish-grace deadline now force-closes unflushable connections.
    let service = Service::start(
        "127.0.0.1:0",
        &SvcConfig {
            catalog: ServeCatalog::uniform(1, small_video()),
            shards: 1,
            io_threads: 1,
            ..SvcConfig::default()
        },
    )
    .expect("service starts");

    // Pipeline thousands of STATS requests and never read a byte: the
    // multi-KB JSON replies overwhelm both kernel socket buffers, leaving
    // the outbound queue permanently unflushable while the peer lives.
    let mut stream = TcpStream::connect(service.local_addr()).expect("connect");
    for _ in 0..16_000 {
        write_frame(&mut stream, &Frame::Stats).expect("stats request");
    }
    // Let the loop ingest the burst and wedge its flush against the full
    // socket before shutting down.
    std::thread::sleep(Duration::from_millis(500));

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(service.shutdown());
    });
    let summary = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("shutdown must complete even though the peer never reads");
    assert_eq!(summary.conns, 1);
    drop(stream);
}

#[test]
fn grants_match_the_offline_oracle_on_every_route() {
    // Shard s runs on event loop s % io_threads, and connections land on
    // the loops round robin. With one loop every request is scheduled
    // inline on the loop that read it; with two loops and one shard, the
    // four connections on loop 1 reach shard 0 through loop 0's inbox
    // whatever the accept order; the other shapes mix both routes. The
    // route must never change a grant.
    let video = small_video();
    let conns = 8usize;
    let requests_per_conn = 12u64;
    let catalog = ServeCatalog::uniform(conns as u32, video);
    let arrivals: Vec<u64> = (0..requests_per_conn).collect();
    for io_threads in [1, 2] {
        for shards in [1, 2, 4] {
            let service = Service::start(
                "127.0.0.1:0",
                &SvcConfig {
                    catalog: catalog.clone(),
                    shards,
                    io_threads,
                    dilation: 1_000,
                    ..SvcConfig::default()
                },
            )
            .expect("service starts");
            let report = run_load(
                service.local_addr(),
                &LoadConfig {
                    conns,
                    requests_per_conn,
                    videos: conns as u32,
                    window: 4,
                    arrival_stride: Some(1),
                    collect_grants: true,
                    ..LoadConfig::default()
                },
            )
            .expect("load run succeeds");
            let total = conns as u64 * requests_per_conn;
            let shape = format!("io_threads {io_threads} shards {shards}");
            assert_eq!(report.grants, total, "{shape}: {}", report.render());
            assert_eq!(report.protocol_errors, 0, "{shape}: {}", report.render());
            // Connection c drives video c alone, so each sees the fresh
            // scheduler sequence of its own catalog entry.
            for (conn, grants) in report.grants_by_conn.iter().enumerate() {
                let video = report.videos_by_conn[conn] as usize;
                let expected = offline_grants_for(&catalog.entries()[video], &arrivals);
                assert_eq!(grants.len(), arrivals.len(), "{shape} conn {conn}");
                for (i, grant) in grants.iter().enumerate() {
                    assert_eq!(
                        grant.segments, expected[i],
                        "{shape} conn {conn} request {i}: grant differs from the oracle"
                    );
                }
            }
            let summary = service.shutdown();
            assert_eq!(summary.grants, total, "{shape}");
        }
    }
}

#[test]
fn drain_answers_requests_forwarded_from_another_loop() {
    // Two loops, one slow shard on loop 0. The first connection takes loop
    // 0 and stays idle; the second lands on loop 1, so every request it
    // sends crosses to loop 0's inbox. Shutting down mid-backlog must still
    // answer each admitted request exactly once before EOF: loop 0 has no
    // connection of its own left to keep it alive, only queued work.
    let admitted = 24u64;
    let service = Service::start(
        "127.0.0.1:0",
        &SvcConfig {
            catalog: ServeCatalog::uniform(1, small_video()),
            shards: 1,
            io_threads: 2,
            dilation: 1_000,
            min_service_time: Duration::from_millis(5),
            ..SvcConfig::default()
        },
    )
    .expect("service starts");
    let stats = service.stats().clone();
    let deadline = Instant::now() + Duration::from_secs(5);
    let idle = TcpStream::connect(service.local_addr()).expect("connect idle");
    while stats.conns.load(Ordering::Relaxed) < 1 {
        assert!(Instant::now() < deadline, "first connection never accepted");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut stream = TcpStream::connect(service.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    for seq in 0..admitted {
        write_frame(
            &mut stream,
            &Frame::Request {
                seq,
                video: 0,
                arrival_slot: seq,
            },
        )
        .expect("write");
    }
    while stats.requests.load(Ordering::Relaxed) < admitted {
        assert!(Instant::now() < deadline, "requests never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        stats.grants.load(Ordering::Relaxed) < admitted,
        "the backlog must still be queued when the drain starts"
    );

    let shutdown = std::thread::spawn(move || service.shutdown());
    let mut answers = vec![0u32; admitted as usize];
    loop {
        match read_frame(&mut stream).expect("read frame") {
            Some(Frame::Grant { seq, .. }) => answers[seq as usize] += 1,
            Some(Frame::Draining) => {}
            Some(other) => panic!("unexpected frame during drain: {other:?}"),
            None => break,
        }
    }
    assert_eq!(
        answers,
        vec![1; admitted as usize],
        "a drain must answer each forwarded request exactly once"
    );
    let summary = shutdown.join().expect("shutdown thread");
    assert_eq!(summary.grants, admitted);
    drop(idle);
}

//! Deterministic chaos tests: seeded fault injection against a live
//! [`Service`] on a loopback socket.
//!
//! The resilience contract under test:
//!
//! - a shard panic is caught by the supervisor, the shard's schedulers are
//!   rebuilt from the per-shard state journal, and the grant stream stays
//!   **byte-identical** to a fresh offline scheduler replay;
//! - a connection reset mid-stream is survived by the client's
//!   reconnect + `Resume` path with no lost and no double-delivered
//!   answers;
//! - a graceful drain that overlaps a shard restart still answers every
//!   admitted request exactly once;
//! - an exhausted restart budget degrades to typed `Rejected(shard_down)`
//!   answers instead of hangs;
//! - a fixed chaos seed reproduces the same supervision event journal.

use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use dhb_core::SlotScheduler;
use vod_obs::{Event, EventKind, Journal, RejectKind};
use vod_svc::wire::{read_frame, write_frame, Frame};
use vod_svc::{
    run_load, ChaosPlan, GrantedSegment, LoadConfig, ServeCatalog, ServeEntry, Service, SvcConfig,
};
use vod_types::{Seconds, Slot, VideoSpec};

/// A small catalog entry: 6 segments of 10 s each.
fn small_video() -> VideoSpec {
    VideoSpec::new(Seconds::new(60.0), 6).expect("valid spec")
}

/// Replays `arrivals` through an offline [`SlotScheduler`] exactly like a
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

/// The offline oracle for a fixed-rate DHB video under stride-1 arrivals.
fn oracle(video: VideoSpec, requests: u64) -> Vec<Vec<GrantedSegment>> {
    let arrivals: Vec<u64> = (0..requests).collect();
    let (_, mut scheduler) = ServeEntry::fixed_rate(video)
        .build(&Journal::disabled())
        .expect("entry builds");
    offline_replay(scheduler.as_mut(), &arrivals)
}

/// A chaos-test service: one video, one shard, fast restart backoff, and a
/// journal wired in.
fn chaos_service(chaos: ChaosPlan, max_restarts: u32, journal: &Journal) -> Service {
    Service::start(
        "127.0.0.1:0",
        &SvcConfig {
            catalog: ServeCatalog::uniform(1, small_video()),
            shards: 1,
            dilation: 1_000,
            journal: journal.clone(),
            max_restarts,
            restart_backoff: Duration::from_millis(1),
            chaos,
            ..SvcConfig::default()
        },
    )
    .expect("service starts")
}

/// Stride-1 closed-loop load over one connection with a reconnect budget.
fn chaos_load(requests: u64) -> LoadConfig {
    LoadConfig {
        conns: 1,
        requests_per_conn: requests,
        videos: 1,
        window: 4,
        arrival_stride: Some(1),
        collect_grants: true,
        max_reconnects: 4,
        read_timeout: Duration::from_secs(10),
        ..LoadConfig::default()
    }
}

#[test]
fn shard_kill_mid_stream_keeps_grants_byte_identical() {
    // Kill the only shard while request 5 of 12 is being scheduled. The
    // supervisor rebuilds the scheduler from the state journal and retries;
    // the client must receive all 12 grants, byte-identical to an offline
    // replay that never crashed.
    let requests = 12u64;
    let journal = Journal::enabled();
    let service = chaos_service(ChaosPlan::none().with_shard_kill(0, 5), 3, &journal);

    let report = run_load(service.local_addr(), &chaos_load(requests)).expect("load run");
    assert_eq!(report.grants, requests, "{}", report.render());
    assert_eq!(report.rejected, 0, "{}", report.render());
    assert_eq!(report.protocol_errors, 0, "{}", report.render());
    assert_eq!(report.unrecoverable_conns, 0, "{}", report.render());

    let expected = oracle(small_video(), requests);
    for (i, grant) in report.grants_by_conn[0].iter().enumerate() {
        assert_eq!(grant.seq, i as u64);
        assert_eq!(
            grant.segments, expected[i],
            "request {i} diverged from the offline oracle after the restart"
        );
    }

    let stats = service.stats().clone();
    assert_eq!(stats.shard_panics.load(Ordering::Relaxed), 1);
    assert_eq!(stats.shard_restarts.load(Ordering::Relaxed), 1);
    assert_eq!(stats.shards_down.load(Ordering::Relaxed), 0);
    let _ = service.shutdown();
    assert_eq!(journal.count_of(EventKind::ShardPanicked), 1);
    assert_eq!(journal.count_of(EventKind::ShardRestarted), 1);
    assert_eq!(journal.count_of(EventKind::ShardDisabled), 0);
    // The restart replayed the five arrivals journaled before the kill.
    let restarted = journal
        .snapshot()
        .into_iter()
        .find_map(|r| match r.event {
            Event::ShardRestarted { replayed, .. } => Some(replayed),
            _ => None,
        })
        .expect("restart journaled");
    assert_eq!(restarted, 5, "arrivals 0..5 were scheduled before the kill");
}

#[test]
fn shard_kill_past_the_journal_cap_rebuilds_deadline_clean() {
    // Two videos on one shard whose state journal holds only 8 entries.
    // Video 1 takes arrivals 0..4, then video 0 takes 0..16 and the shard
    // is killed at video 0's arrival 12: the journal then holds only video
    // 0's arrivals 4..12, so the rebuild replays a truncated history and
    // video 1 survives only as its ring cursor. The schedule afterwards is
    // approximate, but every request must still be answered, on time,
    // without virtual time running backwards.
    let journal = Journal::enabled();
    let service = Service::start(
        "127.0.0.1:0",
        &SvcConfig {
            catalog: ServeCatalog::uniform(2, small_video()),
            shards: 1,
            dilation: 1_000,
            journal: journal.clone(),
            restart_backoff: Duration::from_millis(1),
            shard_journal_cap: 8,
            chaos: ChaosPlan::none().with_shard_kill(0, 12),
            ..SvcConfig::default()
        },
    )
    .expect("service starts");

    let mut granted: Vec<Vec<u64>> = vec![Vec::new(); 2];
    for (video, requests) in [(1u32, 4u64), (0, 16)] {
        let load = LoadConfig {
            mix: Some(vec![video]),
            videos: 2,
            ..chaos_load(requests)
        };
        let report = run_load(service.local_addr(), &load).expect("load run");
        assert_eq!(report.grants, requests, "{}", report.render());
        assert_eq!(report.rejected, 0, "{}", report.render());
        assert_eq!(report.protocol_errors, 0, "{}", report.render());
        assert_eq!(report.unrecoverable_conns, 0, "{}", report.render());
        granted[video as usize].extend(report.grants_by_conn[0].iter().map(|g| g.arrival_slot));
    }

    // A stale request for video 1 after the rebuild is clamped exactly as
    // the uninterrupted ring would clamp it: the cursor kept video 1's
    // ring where it stood, although none of its arrivals were replayed.
    let (_, mut uninterrupted) = ServeEntry::fixed_rate(small_video())
        .build(&Journal::disabled())
        .expect("entry builds");
    offline_replay(uninterrupted.as_mut(), &granted[1]);
    let clamp = uninterrupted.next_slot().index().saturating_sub(1);
    let mut stream = TcpStream::connect(service.local_addr()).expect("connect");
    write_frame(
        &mut stream,
        &Frame::Request {
            seq: 0,
            video: 1,
            arrival_slot: 0,
        },
    )
    .expect("write");
    match read_frame(&mut stream).expect("read frame") {
        Some(Frame::Grant { arrival_slot, .. }) => assert_eq!(arrival_slot, clamp),
        other => panic!("expected a grant, got {other:?}"),
    }

    // Each video's grants in order must never step back across the kill.
    for (video, slots) in granted.iter().enumerate() {
        assert!(
            slots.windows(2).all(|pair| pair[0] <= pair[1]),
            "video {video}: arrival slots went backwards: {slots:?}"
        );
    }
    let stats = service.stats().clone();
    assert!(stats.shard_journal_truncated.load(Ordering::Relaxed) > 0);
    assert_eq!(stats.shard_restarts.load(Ordering::Relaxed), 1);
    assert_eq!(stats.audit_deadline_misses.load(Ordering::Relaxed), 0);
    assert!(stats.audit_segments_checked.load(Ordering::Relaxed) > 0);
    drop(stream);
    let _ = service.shutdown();
    // The replay is bounded by the cap, not by the history.
    let replayed = journal
        .snapshot()
        .into_iter()
        .find_map(|r| match r.event {
            Event::ShardRestarted { replayed, .. } => Some(replayed),
            _ => None,
        })
        .expect("restart journaled");
    assert_eq!(replayed, 8);
}

#[test]
fn connection_reset_is_survived_by_session_resume() {
    // Reset the client's socket right after it submits arrival slot 5. The
    // client reconnects, resumes session 0, the server replays ring-held
    // answers and dedupes re-sent requests: every request is answered
    // exactly once and the grant stream stays byte-identical.
    let requests = 12u64;
    let journal = Journal::enabled();
    let service = chaos_service(ChaosPlan::none().with_conn_reset(0, 5), 3, &journal);

    let report = run_load(service.local_addr(), &chaos_load(requests)).expect("load run");
    assert_eq!(report.grants, requests, "{}", report.render());
    assert_eq!(report.rejected, 0, "{}", report.render());
    assert_eq!(report.protocol_errors, 0, "{}", report.render());
    assert_eq!(report.unrecoverable_conns, 0, "{}", report.render());
    assert!(report.reconnects >= 1, "{}", report.render());
    assert_eq!(report.resumes_ok, 1, "{}", report.render());
    // Ring replay and re-sent-request dedup may overlap on the wire
    // (counted as `duplicates`); what must hold is that every request is
    // *recorded* exactly once — checked against the oracle below.

    let expected = oracle(small_video(), requests);
    assert_eq!(report.grants_by_conn[0].len(), requests as usize);
    for (i, grant) in report.grants_by_conn[0].iter().enumerate() {
        assert_eq!(grant.seq, i as u64);
        assert_eq!(
            grant.segments, expected[i],
            "request {i} diverged from the offline oracle across the reset"
        );
    }

    let stats = service.stats().clone();
    assert_eq!(stats.chaos_conn_resets.load(Ordering::Relaxed), 1);
    assert_eq!(stats.sessions_resumed.load(Ordering::Relaxed), 1);
    let _ = service.shutdown();
    assert_eq!(journal.count_of(EventKind::SessionResumed), 1);
}

#[test]
fn drain_overlapping_a_restart_answers_every_admitted_request_once() {
    // Admit 6 requests into a slow shard whose chaos plan kills it at
    // arrival slot 2, then shut down while the backlog (and the restart)
    // are still in flight: every admitted request must be answered exactly
    // once before the socket closes — no loss, no double delivery.
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
            restart_backoff: Duration::from_millis(1),
            chaos: ChaosPlan::none().with_shard_kill(0, 2),
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
    let stats = service.stats().clone();
    let deadline = Instant::now() + Duration::from_secs(5);
    while stats.requests.load(Ordering::Relaxed) < admitted {
        assert!(Instant::now() < deadline, "requests never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }

    let shutdown = std::thread::spawn(move || service.shutdown());

    let mut answers = vec![0u32; admitted as usize];
    loop {
        match read_frame(&mut stream).expect("read frame") {
            Some(Frame::Grant { seq, .. }) => answers[seq as usize] += 1,
            Some(Frame::Draining) => {}
            Some(other) => panic!("unexpected frame during drain: {other:?}"),
            None => break, // clean EOF after the writer flushed
        }
    }
    assert_eq!(
        answers,
        vec![1; admitted as usize],
        "drain across a restart must answer each admitted request exactly once"
    );

    let summary = shutdown.join().expect("shutdown thread");
    assert_eq!(summary.grants, admitted);
    assert_eq!(journal.count_of(EventKind::ShardPanicked), 1);
    assert_eq!(journal.count_of(EventKind::ShardRestarted), 1);
    assert_eq!(journal.count_of(EventKind::ServiceDrained), 1);
}

#[test]
fn exhausted_restart_budget_degrades_to_typed_rejections() {
    // Two planned kills against a budget of one restart: the first is
    // survived, the second disables the shard. Requests 0 and 1 are
    // granted (byte-identical); 2 and 3 come back `Rejected(shard_down)`
    // instead of hanging the client.
    let journal = Journal::enabled();
    let service = chaos_service(
        ChaosPlan::none()
            .with_shard_kill(0, 0)
            .with_shard_kill(0, 2),
        1,
        &journal,
    );

    let report = run_load(service.local_addr(), &chaos_load(4)).expect("load run");
    assert_eq!(report.grants, 2, "{}", report.render());
    assert_eq!(report.rejected, 2, "{}", report.render());
    assert_eq!(report.protocol_errors, 0, "{}", report.render());
    assert_eq!(report.unrecoverable_conns, 0, "{}", report.render());

    let expected = oracle(small_video(), 2);
    assert_eq!(report.grants_by_conn[0].len(), 2);
    for (i, grant) in report.grants_by_conn[0].iter().enumerate() {
        assert_eq!(grant.segments, expected[i]);
    }

    let stats = service.stats().clone();
    assert_eq!(stats.shard_panics.load(Ordering::Relaxed), 2);
    assert_eq!(stats.shard_restarts.load(Ordering::Relaxed), 1);
    assert_eq!(stats.shards_down.load(Ordering::Relaxed), 1);
    assert_eq!(stats.rejected_shard_down.load(Ordering::Relaxed), 2);
    let _ = service.shutdown();
    assert_eq!(journal.count_of(EventKind::ShardPanicked), 2);
    assert_eq!(journal.count_of(EventKind::ShardRestarted), 1);
    assert_eq!(journal.count_of(EventKind::ShardDisabled), 1);
    let rejections: Vec<RejectKind> = journal
        .snapshot()
        .into_iter()
        .filter_map(|r| match r.event {
            Event::RequestRejected { reason, .. } => Some(reason),
            _ => None,
        })
        .collect();
    assert_eq!(rejections, vec![RejectKind::ShardDown; 2]);
}

/// The supervision trace of one seeded chaos run: every shard panic,
/// restart, and disable in emission order, plus the resume count. Fields
/// that depend on socket flush races (ring replay length) are excluded.
fn supervision_trace(seed: u64) -> (Vec<String>, u64) {
    let journal = Journal::enabled();
    // `seeded` plans one kill per shard inside the arrival horizon and a
    // reset for every even session; the plan is re-armed by the clone
    // inside `Service::start`. One connection keeps the shard's arrival
    // order — and with it the journaled replay counts — fully
    // deterministic.
    let plan = ChaosPlan::seeded(seed, 1, 1, 12);
    let service = chaos_service(plan, 3, &journal);
    let report = run_load(service.local_addr(), &chaos_load(12)).expect("load run");
    assert_eq!(report.grants + report.rejected, 12, "{}", report.render());
    assert_eq!(report.unrecoverable_conns, 0, "{}", report.render());
    let _ = service.shutdown();
    let trace = journal
        .snapshot()
        .into_iter()
        .filter_map(|r| match r.event {
            e @ (Event::ShardPanicked { .. }
            | Event::ShardRestarted { .. }
            | Event::ShardDisabled { .. }) => Some(format!("{e:?}")),
            _ => None,
        })
        .collect();
    (trace, journal.count_of(EventKind::SessionResumed))
}

#[test]
fn fixed_seed_reproduces_the_supervision_journal() {
    let (first, first_resumes) = supervision_trace(42);
    let (second, second_resumes) = supervision_trace(42);
    assert!(
        !first.is_empty(),
        "the seeded plan must inject at least one shard kill"
    );
    assert_eq!(
        first, second,
        "same seed, same catalog, same arrivals: the supervision journal must be identical"
    );
    assert_eq!(first_resumes, second_resumes);
}

#[test]
fn restart_backoff_does_not_stall_the_loops_other_shard() {
    // Two shards on one event loop. Shard 0 panics on its first request and
    // backs off for a second; the backoff must not sleep the loop, so a
    // request for shard 1 sent right after the kill is granted well inside
    // it, and the killed request is answered once, after the backoff, with
    // the grant a fresh offline scheduler gives.
    let backoff = Duration::from_secs(1);
    let journal = Journal::enabled();
    let service = Service::start(
        "127.0.0.1:0",
        &SvcConfig {
            catalog: ServeCatalog::uniform(2, small_video()),
            shards: 2,
            io_threads: 1,
            dilation: 1_000,
            journal: journal.clone(),
            restart_backoff: backoff,
            chaos: ChaosPlan::none().with_shard_kill(0, 0),
            ..SvcConfig::default()
        },
    )
    .expect("service starts");
    let stats = service.stats().clone();
    let mut stream = TcpStream::connect(service.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");

    let killed_at = Instant::now();
    write_frame(
        &mut stream,
        &Frame::Request {
            seq: 0,
            video: 0,
            arrival_slot: 0,
        },
    )
    .expect("write killed request");
    let deadline = Instant::now() + Duration::from_secs(5);
    while stats.shard_panics.load(Ordering::Relaxed) < 1 {
        assert!(Instant::now() < deadline, "planned kill never fired");
        std::thread::sleep(Duration::from_millis(1));
    }
    let sent = Instant::now();
    write_frame(
        &mut stream,
        &Frame::Request {
            seq: 1,
            video: 1,
            arrival_slot: 0,
        },
    )
    .expect("write neighbour request");

    let expected = oracle(small_video(), 1);
    let mut answers = [0u32; 2];
    while answers.iter().sum::<u32>() < 2 {
        match read_frame(&mut stream).expect("read frame") {
            Some(Frame::Grant { seq, segments, .. }) => {
                answers[seq as usize] += 1;
                assert_eq!(segments, expected[0], "seq {seq} grant");
                if seq == 1 {
                    assert!(
                        sent.elapsed() < backoff / 2,
                        "shard 1 waited {:?} behind shard 0's {backoff:?} backoff",
                        sent.elapsed()
                    );
                    assert_eq!(answers[0], 0, "killed request answered inside its backoff");
                } else {
                    assert!(
                        killed_at.elapsed() >= backoff,
                        "answered before the backoff"
                    );
                }
            }
            other => panic!("unexpected frame: {other:?}"),
        }
    }

    let summary = service.shutdown();
    while let Some(frame) = read_frame(&mut stream).expect("read to EOF") {
        match frame {
            Frame::Draining => {}
            other => panic!("unexpected frame after both answers: {other:?}"),
        }
    }
    assert_eq!(answers, [1, 1], "each request answered exactly once");
    assert_eq!(summary.grants, 2);
    assert_eq!(journal.count_of(EventKind::ShardPanicked), 1);
    assert_eq!(journal.count_of(EventKind::ShardRestarted), 1);
}

//! End-to-end telemetry tests: a live [`Service`] driven by the `vodload`
//! engine in-process and scraped on its serving port.
//!
//! The centrepiece pins the span contract: with four shards under load,
//! every shard exports a per-stage latency histogram, the raw spans'
//! stage decomposition accounts for ≥ 90% of the aggregate end-to-end
//! time (the unattributed gap is a few same-thread handoffs, nanoseconds
//! against millisecond totals — aggregate because preemption can stretch
//! any single span's handoff), and the wire grants stay byte-identical to
//! the offline scheduler oracle — instrumentation must never change what
//! the protocol says, only report on it.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use vod_obs::Journal;
use vod_svc::wire::{read_frame, write_frame};
use vod_svc::{
    fetch_stats, find_counter, find_gauge, find_histogram, run_load, Frame, GrantedSegment,
    LoadConfig, ScrapeClient, ServeCatalog, ServeEntry, Service, SvcConfig, ARRIVAL_AUTO,
    PROTOCOL_VERSION, SPAN_STAGES,
};
use vod_types::{Seconds, Slot, VideoSpec};

fn small_video() -> VideoSpec {
    VideoSpec::new(Seconds::new(60.0), 6).expect("valid spec")
}

/// Offline oracle: the grants a fresh scheduler yields for `arrivals`.
fn offline_grants(video: VideoSpec, arrivals: &[u64]) -> Vec<Vec<GrantedSegment>> {
    let (_, mut scheduler) = ServeEntry::fixed_rate(video)
        .build(&Journal::disabled())
        .expect("entry builds");
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

/// Parses the first unsigned integer following `"{key}": ` in a span
/// JSONL line.
fn json_u64(line: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\": ");
    let at = line
        .find(&needle)
        .unwrap_or_else(|| panic!("{key} in {line}"));
    line[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("number after key")
}

#[test]
fn spans_decompose_e2e_latency_on_every_shard() {
    let video = small_video();
    let shards = 4usize;
    let requests_per_conn = 50u64;
    let service = Service::start(
        "127.0.0.1:0",
        &SvcConfig {
            catalog: ServeCatalog::uniform(shards as u32, video),
            shards,
            dilation: 1_000,
            ..SvcConfig::default()
        },
    )
    .expect("service starts");

    // Connection c drives video c, and video c lives on shard c % 4, so
    // every shard sees exactly one connection's worth of spans.
    let report = run_load(
        service.local_addr(),
        &LoadConfig {
            conns: shards,
            requests_per_conn,
            videos: shards as u32,
            window: 4,
            arrival_stride: Some(1),
            collect_grants: true,
            ..LoadConfig::default()
        },
    )
    .expect("load run succeeds");
    let total = shards as u64 * requests_per_conn;
    assert_eq!(report.grants, total, "{}", report.render());
    assert_eq!(report.protocol_errors, 0, "{}", report.render());

    // Instrumentation must not change the protocol: grants stay
    // byte-identical to the offline oracle with telemetry fully enabled.
    let arrivals: Vec<u64> = (0..requests_per_conn).collect();
    let expected = offline_grants(video, &arrivals);
    for (conn, grants) in report.grants_by_conn.iter().enumerate() {
        assert_eq!(grants.len(), arrivals.len(), "conn {conn}");
        for (i, grant) in grants.iter().enumerate() {
            assert_eq!(
                grant.segments, expected[i],
                "conn {conn} request {i}: telemetry changed the wire grants"
            );
        }
    }

    let mut client = ScrapeClient::connect(service.local_addr()).expect("scrape connect");
    let json = client.stats().expect("snapshot scrape");
    assert_eq!(find_counter(&json, "svc.grants"), Some(total), "{json}");

    // Every shard exports the full stage taxonomy, each stage having seen
    // every one of the shard's spans.
    for shard in 0..shards {
        let e2e = find_histogram(&json, &format!("svc.span.shard{shard}.total_ns"))
            .unwrap_or_else(|| panic!("shard {shard} has no span histogram"));
        assert_eq!(e2e.count, requests_per_conn, "shard {shard} span count");
        for stage in SPAN_STAGES {
            let name = format!("svc.span.shard{shard}.{stage}_ns");
            let h = find_histogram(&json, &name)
                .unwrap_or_else(|| panic!("{name} missing from snapshot"));
            assert_eq!(h.count, requests_per_conn, "{name} count");
        }
        let depth = find_gauge(&json, &format!("svc.gauge.shard{shard}.queue_depth"));
        assert_eq!(depth, Some(0.0), "queue drained after the run");
    }

    // Raw spans: the stages are disjoint sub-intervals of the request's
    // lifetime (sum ≤ total, per span), and across the run they account
    // for ≥ 90% of the e2e time — the gap is just same-thread handoffs,
    // nanoseconds each, though a preempted thread can stretch one span's
    // handoff arbitrarily, so the coverage bound is aggregate, not
    // per-span.
    let jsonl = client.spans(total as u32).expect("spans scrape");
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), total as usize, "recent ring holds every span");
    let mut e2e_sum = 0u64;
    let mut covered_sum = 0u64;
    for line in &lines {
        let total_ns = json_u64(line, "total_ns");
        let stage_sum: u64 = SPAN_STAGES.iter().map(|s| json_u64(line, s)).sum();
        assert!(
            stage_sum <= total_ns,
            "stages are disjoint sub-intervals: {stage_sum} > {total_ns} in {line}"
        );
        e2e_sum += total_ns;
        covered_sum += stage_sum;
    }
    assert!(
        covered_sum * 10 >= e2e_sum * 9,
        "stage decomposition covers {:.1}% < 90% of e2e time",
        covered_sum as f64 / e2e_sum as f64 * 100.0
    );

    let _ = service.shutdown();
}

#[test]
fn stats_frame_carries_advancing_snapshot_stamps() {
    // Satellite of the scrape plane: the in-band STATS reply carries a
    // monotonic timestamp, so a poller can tell a fresh snapshot from a
    // stale re-read and difference counters into rates.
    let service = Service::start(
        "127.0.0.1:0",
        &SvcConfig {
            catalog: ServeCatalog::uniform(1, small_video()),
            shards: 1,
            ..SvcConfig::default()
        },
    )
    .expect("service starts");

    let first = fetch_stats(service.local_addr()).expect("first stats fetch");
    let mono0 = find_counter(&first, "svc.snapshot.mono_ns").expect("mono stamp");
    std::thread::sleep(Duration::from_millis(30));
    let second = fetch_stats(service.local_addr()).expect("second stats fetch");
    let mono1 = find_counter(&second, "svc.snapshot.mono_ns").expect("mono stamp");

    assert!(
        mono1 > mono0,
        "snapshot timestamp must advance: {mono0} → {mono1}"
    );
    let _ = service.shutdown();
}

#[test]
fn a_scrape_is_answered_ahead_of_queued_requests() {
    // One loop owns the only shard, and every request holds the shard for
    // 100 ms: connection A's eight pipelined requests take 800 ms to
    // answer. A `Stats` from connection B must not wait behind them.
    const PIPELINED: u64 = 8;
    let service = Service::start(
        "127.0.0.1:0",
        &SvcConfig {
            catalog: ServeCatalog::uniform(1, small_video()),
            shards: 1,
            io_threads: 1,
            min_service_time: Duration::from_millis(100),
            ..SvcConfig::default()
        },
    )
    .expect("service starts");
    let addr = service.local_addr();

    let mut a = TcpStream::connect(addr).expect("connect A");
    write_frame(
        &mut a,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
        },
    )
    .expect("hello");
    assert!(matches!(
        read_frame(&mut a).expect("read welcome"),
        Some(Frame::Welcome { .. })
    ));
    let mut scraper = ScrapeClient::connect(addr).expect("connect B");
    let before = scraper.stats().expect("baseline scrape");
    let sessions_before = find_gauge(&before, "svc.gauge.sessions_live");
    assert_eq!(
        sessions_before,
        Some(1.0),
        "only A holds a session: {before}"
    );

    for seq in 0..PIPELINED {
        write_frame(
            &mut a,
            &Frame::Request {
                seq,
                video: 0,
                arrival_slot: ARRIVAL_AUTO,
            },
        )
        .expect("request");
    }
    // A reader counts A's grants as they land.
    let granted = Arc::new(AtomicU64::new(0));
    let reader = {
        let granted = Arc::clone(&granted);
        std::thread::spawn(move || {
            while granted.load(Ordering::SeqCst) < PIPELINED {
                match read_frame(&mut a).expect("read grant") {
                    Some(Frame::Grant { .. }) => granted.fetch_add(1, Ordering::SeqCst),
                    other => panic!("expected a grant, got {other:?}"),
                };
            }
        })
    };
    // Scrape once A's backlog is in the shard: its first grant is out.
    while granted.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let during = scraper.stats().expect("scrape during the backlog");
    let granted_at_reply = granted.load(Ordering::SeqCst);
    assert!(
        granted_at_reply < PIPELINED,
        "the scrape waited for all {PIPELINED} grants"
    );
    let depth = find_gauge(&during, "svc.gauge.shard0.queue_depth").expect("depth gauge");
    assert!(depth >= 1.0, "scraped with requests still queued: {during}");
    assert_eq!(
        find_gauge(&during, "svc.gauge.sessions_live"),
        sessions_before,
        "a scrape registers no session"
    );
    reader.join().expect("reader");
    let _ = service.shutdown();
}

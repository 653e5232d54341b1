//! `vodload` — open/closed-loop load generator for the vod-svc service.
//!
//! Point it at a running `vodsim serve` instance, or pass `--self-host` to
//! spin up an in-process service on an ephemeral port (the CI smoke test
//! does exactly that). Reports request→grant p50/p99/p99.9 latency and
//! throughput, optionally saves the server's `STATS` snapshot, and fails
//! the process when protocol errors occur or `--max-p99-ms` is exceeded.
//!
//! ```text
//! vodload --self-host --dilation 1000 --conns 4 --requests 200 --window 8
//! vodload --addr 127.0.0.1:7400 --conns 8 --rate 50 --max-p99-ms 250
//! vodload --chaos 42 --dilation 1000 --conns 4 --requests 150 --retries 5
//! ```
//!
//! A `--self-host` run also reports what each grant cost the service's
//! own threads (`vod-svc-*`): user and system CPU microseconds and
//! voluntary and involuntary context switches per grant, read from each
//! thread's `/proc/self/task/*/stat` and `status` before and after the
//! load.
//!
//! `--chaos SEED` self-hosts a service with a deterministic fault plan
//! derived from the seed (one injected panic per shard, a connection
//! reset for every other session) and stamps explicit arrival slots so
//! the same seed reproduces the same kill/reset schedule. The run fails
//! if any session ends unrecoverable.

use std::io::Write;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vod_dhb::sim::{ArrivalShape, ZipfCatalog};
use vod_dhb::svc::{
    fetch_stats, run_load, ChaosPlan, LoadConfig, ScrapeClient, ServeCatalog, Service, SvcConfig,
};
use vod_dhb::types::{Seconds, VideoSpec};

struct Args {
    addr: Option<String>,
    self_host: bool,
    conns: usize,
    requests: u64,
    window: u64,
    rate: Option<f64>,
    videos: u32,
    segments: usize,
    duration_mins: f64,
    catalog: Option<String>,
    mix: Option<Vec<u32>>,
    describe: bool,
    shards: usize,
    dilation: u32,
    queue_cap: usize,
    stats_out: Option<String>,
    max_p99_ms: Option<f64>,
    retries: u32,
    timeout_secs: f64,
    chaos: Option<u64>,
    chaos_stall_ms: Option<u64>,
    telemetry_out: Option<String>,
    verify_bytes: bool,
    data_rate: Option<u64>,
    store_seed: Option<u64>,
    zipf: Option<f64>,
    shape: ArrivalShape,
    shape_seed: u64,
}

const USAGE: &str = "usage:\n  \
    vodload [--addr host:port | --self-host] [--conns 4] [--requests 200]\n          \
    [--window 8] [--rate <req/s per conn>] [--videos 4] [--segments 120]\n          \
    [--duration-mins 120] [--catalog catalog.toml] [--mix 0,1,2]\n          \
    [--describe] [--shards 2] [--dilation 1] [--queue-cap 64]\n          \
    [--stats-out stats.json] [--max-p99-ms 250] [--retries 3]\n          \
    [--timeout-secs 30] [--chaos SEED] [--chaos-stall-ms 50]\n          \
    [--telemetry-out telemetry.jsonl]\n          \
    [--verify-bytes] [--data-rate BYTES_PER_MEDIA_SEC] [--store-seed SEED]\n          \
    [--zipf S] [--ramp | --flash-crowd] [--shape-seed SEED]\n\n\
    --catalog self-hosts a heterogeneous catalog file (implies --self-host);\n\
    --mix pins each connection to a video id round-robin from the list;\n\
    --describe fetches per-video geometry (DESCRIBE) before driving load;\n\
    --retries bounds reconnect attempts per connection, --timeout-secs\n\
    declares a quiet connection stalled (no more hanging on a dead server);\n\
    --chaos SEED self-hosts with a seeded fault plan (implies --self-host)\n\
    and fails the run unless every session recovers;\n\
    --chaos-stall-ms adds a planned writer stall to the chaos plan;\n\
    --telemetry-out streams STATS snapshots from the serving port (one JSON\n\
    line per second, plus a final one) for the duration of the run;\n\
    --verify-bytes subscribes every connection to its video's broadcast\n\
    channel and verifies each delivered segment byte-for-byte against the\n\
    deterministic store oracle, failing on any byte mismatch or\n\
    byte-level deadline miss; --data-rate sets the self-hosted payload\n\
    rate in bytes per media-second; --store-seed overrides the payload\n\
    seed (shared with the self-hosted server, or matched to a remote one);\n\
    --zipf S spreads connections over the catalog by a Zipf(S) popularity\n\
    law (largest-remainder apportionment; overrides --mix);\n\
    --ramp / --flash-crowd pace requests on a seeded time-varying shape\n\
    (requires --rate, which becomes the shape's mean rate; --shape-seed\n\
    makes the schedule reproducible).";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        self_host: false,
        conns: 4,
        requests: 200,
        window: 8,
        rate: None,
        videos: 4,
        segments: 120,
        duration_mins: 120.0,
        catalog: None,
        mix: None,
        describe: false,
        shards: 2,
        dilation: 1,
        queue_cap: 64,
        stats_out: None,
        max_p99_ms: None,
        retries: 3,
        timeout_secs: 30.0,
        chaos: None,
        chaos_stall_ms: None,
        telemetry_out: None,
        verify_bytes: false,
        data_rate: None,
        store_seed: None,
        zipf: None,
        shape: ArrivalShape::Steady,
        shape_seed: 0x5eed_5a9e,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-host" {
            args.self_host = true;
            continue;
        }
        if flag == "--describe" {
            args.describe = true;
            continue;
        }
        if flag == "--verify-bytes" {
            args.verify_bytes = true;
            continue;
        }
        if flag == "--ramp" || flag == "--flash-crowd" {
            if args.shape != ArrivalShape::Steady {
                return Err(format!("--ramp and --flash-crowd are exclusive\n\n{USAGE}"));
            }
            args.shape = ArrivalShape::parse(&flag[2..]).expect("known shape name");
            continue;
        }
        if flag == "--help" || flag == "-h" {
            return Err(USAGE.to_owned());
        }
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value\n\n{USAGE}"))
        };
        fn num<T: std::str::FromStr>(name: &str, v: &str) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{name} has invalid value {v:?}\n\n{USAGE}"))
        }
        match flag.as_str() {
            "--addr" => args.addr = Some(value("--addr")?),
            "--conns" => args.conns = num("--conns", &value("--conns")?)?,
            "--requests" => args.requests = num("--requests", &value("--requests")?)?,
            "--window" => args.window = num("--window", &value("--window")?)?,
            "--rate" => args.rate = Some(num("--rate", &value("--rate")?)?),
            "--videos" => args.videos = num("--videos", &value("--videos")?)?,
            "--segments" => args.segments = num("--segments", &value("--segments")?)?,
            "--duration-mins" => {
                args.duration_mins = num("--duration-mins", &value("--duration-mins")?)?;
            }
            "--catalog" => args.catalog = Some(value("--catalog")?),
            "--mix" => {
                let raw = value("--mix")?;
                let mix = raw
                    .split(',')
                    .map(|v| num::<u32>("--mix", v.trim()))
                    .collect::<Result<Vec<u32>, String>>()?;
                if mix.is_empty() {
                    return Err(format!("--mix needs at least one video id\n\n{USAGE}"));
                }
                args.mix = Some(mix);
            }
            "--shards" => args.shards = num("--shards", &value("--shards")?)?,
            "--dilation" => args.dilation = num("--dilation", &value("--dilation")?)?,
            "--queue-cap" => args.queue_cap = num("--queue-cap", &value("--queue-cap")?)?,
            "--stats-out" => args.stats_out = Some(value("--stats-out")?),
            "--max-p99-ms" => args.max_p99_ms = Some(num("--max-p99-ms", &value("--max-p99-ms")?)?),
            "--retries" => args.retries = num("--retries", &value("--retries")?)?,
            "--timeout-secs" => {
                args.timeout_secs = num("--timeout-secs", &value("--timeout-secs")?)?;
            }
            "--chaos" => args.chaos = Some(num("--chaos", &value("--chaos")?)?),
            "--chaos-stall-ms" => {
                args.chaos_stall_ms = Some(num("--chaos-stall-ms", &value("--chaos-stall-ms")?)?);
            }
            "--telemetry-out" => args.telemetry_out = Some(value("--telemetry-out")?),
            "--data-rate" => args.data_rate = Some(num("--data-rate", &value("--data-rate")?)?),
            "--store-seed" => args.store_seed = Some(num("--store-seed", &value("--store-seed")?)?),
            "--zipf" => args.zipf = Some(num("--zipf", &value("--zipf")?)?),
            "--shape-seed" => args.shape_seed = num("--shape-seed", &value("--shape-seed")?)?,
            other => return Err(format!("unknown option {other:?}\n\n{USAGE}")),
        }
    }
    if args.catalog.is_some() || args.chaos.is_some() {
        // A catalog file or a chaos plan only makes sense for a service we
        // start ourselves.
        args.self_host = true;
    }
    if args.shape != ArrivalShape::Steady && args.rate.is_none() {
        return Err(format!(
            "--ramp/--flash-crowd need --rate as the shape's mean rate\n\n{USAGE}"
        ));
    }
    if let Some(s) = args.zipf {
        if !s.is_finite() || s < 0.0 {
            return Err("--zipf must be a finite non-negative skew".to_owned());
        }
    }
    if !args.timeout_secs.is_finite() || args.timeout_secs <= 0.0 {
        return Err("--timeout-secs must be positive".to_owned());
    }
    if args.addr.is_some() == args.self_host {
        return Err(format!(
            "exactly one of --addr and --self-host is required\n\n{USAGE}"
        ));
    }
    if args.conns == 0 || args.requests == 0 || args.window == 0 {
        return Err("--conns, --requests, and --window must be positive".to_owned());
    }
    Ok(args)
}

/// How often `--telemetry-out` records a snapshot.
const SCRAPE_INTERVAL: Duration = Duration::from_secs(1);

/// Streams `STATS` snapshots into `path` (one compact JSON line per
/// [`SCRAPE_INTERVAL`]) until `stop` is raised, then takes one final
/// snapshot so even a sub-second run leaves a record. Returns the line
/// count.
fn scrape_telemetry(addr: SocketAddr, path: &str, stop: &AtomicBool) -> Result<u64, String> {
    let mut client =
        ScrapeClient::connect(addr).map_err(|e| format!("cannot reach server {addr}: {e}"))?;
    let mut file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut write_snapshot = |client: &mut ScrapeClient| -> Result<(), String> {
        let snap = client
            .stats()
            .map_err(|e| format!("snapshot scrape failed: {e}"))?;
        // The pretty form only breaks lines at structural whitespace, so
        // stripping indentation folds it into one valid JSON line.
        let line: String = snap.lines().map(str::trim).collect();
        writeln!(file, "{line}").map_err(|e| format!("cannot write {path}: {e}"))
    };
    let mut lines = 0u64;
    let mut next = Instant::now() + SCRAPE_INTERVAL;
    while !stop.load(Ordering::Relaxed) {
        // Short naps, so a raised `stop` ends the wait promptly.
        let now = Instant::now();
        if now < next {
            std::thread::sleep((next - now).min(Duration::from_millis(10)));
            continue;
        }
        write_snapshot(&mut client)?;
        lines += 1;
        next += SCRAPE_INTERVAL;
    }
    write_snapshot(&mut client)?;
    Ok(lines + 1)
}

/// CPU time and context switches summed over the self-hosted service's
/// threads (named `vod-svc-*`; the load generator's threads are not).
#[derive(Debug, Clone, Copy, Default)]
struct ServiceCpu {
    user_ticks: u64,
    sys_ticks: u64,
    voluntary: u64,
    involuntary: u64,
}

impl ServiceCpu {
    /// Linux reports `utime`/`stime` in USER_HZ ticks, 100 per second.
    const TICK_US: f64 = 10_000.0;

    fn read() -> ServiceCpu {
        let mut total = ServiceCpu::default();
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return total;
        };
        for task in tasks.flatten() {
            let path = task.path();
            let Ok(stat) = std::fs::read_to_string(path.join("stat")) else {
                continue;
            };
            // `tid (comm) state …`: the name may hold spaces, so split at
            // the last ')'.
            let Some((head, rest)) = stat.rsplit_once(')') else {
                continue;
            };
            if !head
                .split_once('(')
                .is_some_and(|(_, comm)| comm.starts_with("vod-svc"))
            {
                continue;
            }
            // `rest` starts at field 3 (state); utime and stime are fields
            // 14 and 15.
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let field = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
            total.user_ticks += field(11).unwrap_or(0);
            total.sys_ticks += field(12).unwrap_or(0);
            let status = std::fs::read_to_string(path.join("status")).unwrap_or_default();
            for line in status.lines() {
                let count = |v: &str| v.trim().parse::<u64>().unwrap_or(0);
                if let Some(v) = line.strip_prefix("voluntary_ctxt_switches:") {
                    total.voluntary += count(v);
                } else if let Some(v) = line.strip_prefix("nonvoluntary_ctxt_switches:") {
                    total.involuntary += count(v);
                }
            }
        }
        total
    }

    fn since(&self, before: &ServiceCpu) -> ServiceCpu {
        ServiceCpu {
            user_ticks: self.user_ticks.saturating_sub(before.user_ticks),
            sys_ticks: self.sys_ticks.saturating_sub(before.sys_ticks),
            voluntary: self.voluntary.saturating_sub(before.voluntary),
            involuntary: self.involuntary.saturating_sub(before.involuntary),
        }
    }

    fn print_per_grant(&self, grants: u64) {
        if grants == 0 {
            return;
        }
        let per = |v: f64| v / grants as f64;
        println!(
            "service cpu per grant: user {:.2} us, sys {:.2} us (10 ms ticks); \
             context switches per grant: voluntary {:.3}, involuntary {:.3}",
            per(self.user_ticks as f64 * Self::TICK_US),
            per(self.sys_ticks as f64 * Self::TICK_US),
            per(self.voluntary as f64),
            per(self.involuntary as f64),
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    // Self-hosted service, if requested; kept alive (and drained) by main.
    let mut hosted_videos = None;
    let hosted = if args.self_host {
        let catalog = match &args.catalog {
            Some(path) => match ServeCatalog::load(path) {
                Ok(catalog) => catalog,
                Err(e) => {
                    eprintln!("cannot load catalog {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => {
                let video =
                    match VideoSpec::new(Seconds::from_mins(args.duration_mins), args.segments) {
                        Ok(video) => video,
                        Err(e) => {
                            eprintln!("invalid video spec: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                ServeCatalog::uniform(args.videos, video)
            }
        };
        hosted_videos = Some(catalog.len() as u32);
        let chaos = match args.chaos {
            Some(seed) => {
                let mut plan = ChaosPlan::seeded(
                    seed,
                    args.shards.max(1) as u64,
                    args.conns as u64,
                    args.requests.max(2),
                );
                if let Some(ms) = args.chaos_stall_ms {
                    // Stall the first connection's writer a quarter of the
                    // way through its stream.
                    plan = plan.with_writer_stall(
                        0,
                        args.requests / 4,
                        Duration::from_millis(ms.max(1)),
                    );
                }
                plan
            }
            None => ChaosPlan::none(),
        };
        let mut config = SvcConfig {
            catalog,
            shards: args.shards,
            dilation: args.dilation,
            queue_cap: args.queue_cap,
            chaos,
            ..SvcConfig::default()
        };
        if let Some(rate) = args.data_rate {
            config.data_rate_bps = rate;
        }
        if let Some(seed) = args.store_seed {
            config.store_seed = seed;
        }
        match Service::start("127.0.0.1:0", &config) {
            Ok(service) => {
                println!("self-hosted vod-svc on {}", service.local_addr());
                if let Some(seed) = args.chaos {
                    println!("chaos plan armed (seed {seed})");
                }
                Some(service)
            }
            Err(e) => {
                eprintln!("cannot start service: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let addr: SocketAddr = match hosted.as_ref().map_or_else(
        || {
            args.addr
                .as_deref()
                .unwrap_or_default()
                .parse()
                .map_err(|e| format!("invalid --addr: {e}"))
        },
        |service| Ok(service.local_addr()),
    ) {
        Ok(addr) => addr,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    // Telemetry scraper: a side thread streams one snapshot line per
    // second into the JSONL sink while the load runs.
    let scrape_stop = Arc::new(AtomicBool::new(false));
    let scraper = args.telemetry_out.clone().map(|path| {
        let stop = Arc::clone(&scrape_stop);
        std::thread::Builder::new()
            .name("vodload-telemetry".to_owned())
            .spawn(move || scrape_telemetry(addr, &path, &stop))
            .expect("spawn telemetry scraper")
    });

    // A Zipf mix spreads the connections over the catalog by popularity:
    // the head videos absorb most connections, the tail goes cold.
    let videos_total = hosted_videos.unwrap_or(args.videos).max(1);
    let mix = match args.zipf {
        Some(skew) => {
            let law = ZipfCatalog::new(videos_total as usize, skew);
            let mut assigned = Vec::with_capacity(args.conns);
            for (video, count) in law.apportion(args.conns).iter().enumerate() {
                assigned.extend(std::iter::repeat_n(video as u32, *count));
            }
            println!(
                "zipf({skew}) mix over {videos_total} videos: {} conns on video 0",
                assigned.iter().filter(|&&v| v == 0).count()
            );
            Some(assigned)
        }
        None => args.mix.clone(),
    };
    // A non-steady shape replaces the fixed open-loop gap with a seeded
    // per-connection due-time schedule drawn from the shared generator.
    let pacing = (args.shape != ArrivalShape::Steady).then(|| {
        let rate = args.rate.expect("shape requires --rate");
        let gap = Seconds::new(1.0 / rate.max(1e-9));
        let schedules: Vec<Vec<Duration>> = (0..args.conns)
            .map(|c| {
                args.shape
                    .offsets(
                        args.requests as usize,
                        gap,
                        args.shape_seed.wrapping_add(c as u64),
                    )
                    .into_iter()
                    .map(|t| Duration::from_secs_f64(t.as_secs_f64()))
                    .collect()
            })
            .collect();
        Arc::new(schedules)
    });

    let config = LoadConfig {
        conns: args.conns,
        requests_per_conn: args.requests,
        videos: videos_total,
        window: args.window,
        open_rate: if pacing.is_some() { None } else { args.rate },
        pacing,
        // Live runs use the server's virtual clock; chaos runs stamp
        // explicit slots so the seeded fault plan triggers at the same
        // points every run.
        arrival_stride: if args.chaos.is_some() { Some(1) } else { None },
        collect_grants: false,
        mix,
        describe: args.describe,
        max_reconnects: args.retries,
        read_timeout: Duration::from_secs_f64(args.timeout_secs),
        verify_bytes: args.verify_bytes,
        store_seed: args.store_seed.unwrap_or(vod_dhb::svc::DEFAULT_STORE_SEED),
        ..LoadConfig::default()
    };
    let cpu_before = hosted.as_ref().map(|_| ServiceCpu::read());
    let report = match run_load(addr, &config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("load run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render());
    if let Some(before) = cpu_before {
        ServiceCpu::read()
            .since(&before)
            .print_per_grant(report.grants);
    }

    let mut failed = false;
    if report.protocol_errors > 0 {
        eprintln!("FAIL: {} protocol errors", report.protocol_errors);
        failed = true;
    }
    if report.unrecoverable_conns > 0 {
        eprintln!(
            "FAIL: {} connections exhausted their reconnect budget",
            report.unrecoverable_conns
        );
        failed = true;
    }
    if args.verify_bytes {
        if report.subscriptions < args.conns as u64 {
            eprintln!(
                "FAIL: only {} of {} connections subscribed",
                report.subscriptions, args.conns
            );
            failed = true;
        }
        if report.data.checksum_mismatches > 0 {
            eprintln!(
                "FAIL: {} checksum mismatches",
                report.data.checksum_mismatches
            );
            failed = true;
        }
        if report.data.byte_deadline_misses > 0 {
            eprintln!(
                "FAIL: {} byte-deadline misses",
                report.data.byte_deadline_misses
            );
            failed = true;
        }
        if report.data.chunk_errors > 0 {
            eprintln!("FAIL: {} chunk framing errors", report.data.chunk_errors);
            failed = true;
        }
        if report.data.segments_verified == 0 {
            eprintln!("FAIL: no segments were delivered to verify");
            failed = true;
        }
    }
    if args.chaos.is_some() && report.grants + report.rejected < report.requests {
        eprintln!(
            "FAIL: chaos run left {} requests unanswered",
            report.requests - report.grants - report.rejected
        );
        failed = true;
    }
    if let Some(bound) = args.max_p99_ms {
        match report.quantile_ms(0.99) {
            Some(p99) if p99 > bound => {
                eprintln!("FAIL: p99 {p99:.3} ms exceeds bound {bound:.3} ms");
                failed = true;
            }
            Some(_) => {}
            None => {
                eprintln!("FAIL: no completed requests to bound p99 on");
                failed = true;
            }
        }
    }

    if let Some(path) = &args.stats_out {
        match fetch_stats(addr) {
            Ok(json) => {
                if let Err(e) = std::fs::write(path, &json) {
                    eprintln!("cannot write {path}: {e}");
                    failed = true;
                } else {
                    println!("stats snapshot written to {path}");
                }
            }
            Err(e) => {
                eprintln!("stats fetch failed: {e}");
                failed = true;
            }
        }
    }

    scrape_stop.store(true, Ordering::Relaxed);
    if let Some(handle) = scraper {
        match handle.join() {
            Ok(Ok(lines)) => {
                let path = args.telemetry_out.as_deref().unwrap_or_default();
                println!("telemetry: {lines} snapshot(s) written to {path}");
            }
            Ok(Err(e)) => {
                eprintln!("telemetry scrape failed: {e}");
                failed = true;
            }
            Err(_) => {
                eprintln!("telemetry scraper panicked");
                failed = true;
            }
        }
    }

    if let Some(service) = hosted {
        let summary = service.shutdown();
        println!(
            "service drained: {} conns, {} requests, {} grants, {} rejected",
            summary.conns, summary.requests, summary.grants, summary.rejected
        );
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

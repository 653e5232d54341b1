//! The TCP service: accept loop, event-loop connection core, admission
//! control, session resume, and graceful drain.
//!
//! Thread topology: one accept thread and a small pool of event-loop
//! threads (`io_threads`, default one per core up to 8) owning every
//! connection on the one serving port, telemetry scrapers included. The
//! `shards` supervised schedulers have no threads of their own: shard `s`
//! runs on loop `s % io_threads`, which schedules requests for it inline
//! and takes requests other loops admitted through its inbox. The loops
//! validate, admit and route frames; every outbound frame goes through
//! the connection's **bounded** outbound queue (flushed by its loop with
//! vectored writes), and a full queue stops the loop reading from that
//! client, so a client that stops reading stalls only its own pipeline,
//! never an unbounded buffer. See `eventloop.rs` for the ownership and
//! wakeup story.
//!
//! Sessions (protocol v3): a `Hello` registers a session whose id rides in
//! the `Welcome`. Answers to sessioned connections are recorded in a
//! bounded replay ring, so a client that loses its TCP connection can
//! reconnect and send `Resume{session, last_seq_seen}` — the server swaps
//! the session onto the new connection and replays every missed answer
//! byte-identically (see `session.rs` for the no-loss/no-double-delivery
//! argument). Connections that never say `Hello` keep the old sessionless
//! fast path; telemetry scrapers (`Stats`, `Spans`) use it, so a scrape
//! never registers a session.
//!
//! Drain protocol (see DESIGN.md §12 and §16): [`Service::shutdown`] flips
//! the drain flag, pokes the listener, and then drains in two phases. In
//! phase one every event loop stops reading, so it admits and forwards
//! nothing more, and queues one `Draining` frame per live connection.
//! Phase two tells the loops to close every connection as soon as its
//! outbound queue has flushed and its in-flight answers have landed; a
//! loop exits only once its shards have answered every queued request —
//! so every admitted request gets its grant before the last socket
//! closes.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use vod_obs::{Event, Journal};
use vod_server::ServeCatalog;
use vod_types::VideoSpec;

use crate::chaos::ChaosPlan;
use crate::clock::SlotClock;
use crate::data::{ChannelInit, DataPlane};
use crate::eventloop::LoopPool;
use crate::session::SessionRegistry;
use crate::shard::{RestartPolicy, ShardConfig, ShardVideo, ShardWorker};
use crate::stats::ServiceStats;
use crate::telemetry::Telemetry;

/// Service configuration. `Default` gives a small two-shard uniform catalog
/// of paper-sized videos at real-time pace, no chaos, and a restart budget
/// of three per shard.
#[derive(Debug, Clone)]
pub struct SvcConfig {
    /// What to serve: per-video segment counts, protocols, and period
    /// vectors. Wire video ids are catalog positions. Entries that fail to
    /// build (a catalog file is untrusted input) are hosted as *invalid*
    /// videos: the service stays up and answers their requests with
    /// `Rejected(invalid_video)`.
    pub catalog: ServeCatalog,
    /// Scheduler shard count (video `v` is owned by shard `v % shards`).
    pub shards: usize,
    /// Virtual-clock time dilation (1 = real time; 1000 runs a two-hour
    /// schedule in 7.2 s).
    pub dilation: u32,
    /// Bounded per-shard request-queue depth (admission control): a
    /// request finding this many already queued for its shard is answered
    /// `Rejected(queue_full)`.
    pub queue_cap: usize,
    /// Bounded per-connection outbound frame-queue depth (write
    /// backpressure).
    pub outbound_cap: usize,
    /// Event-loop threads serving client connections. `0` picks one per
    /// available core, capped at 8.
    pub io_threads: usize,
    /// Test knob: minimum scheduling time per request, for deterministic
    /// overload/drain tests. Keep zero in production.
    pub min_service_time: Duration,
    /// Journal for accept/reject/drain, supervision, and scheduler events
    /// (`Journal::disabled()` for none).
    pub journal: Journal,
    /// Per-session replay-ring capacity: how many recent answers a
    /// reconnecting client can recover byte-identically.
    pub replay_cap: usize,
    /// Shard restarts allowed before the shard is disabled and its videos
    /// answer `Rejected(shard_down)`.
    pub max_restarts: u32,
    /// First-restart backoff (doubles per restart, capped below).
    pub restart_backoff: Duration,
    /// Restart backoff ceiling.
    pub restart_backoff_cap: Duration,
    /// Per-shard state-journal cap: rebuilds are exact while scheduling
    /// history fits this many entries.
    pub shard_journal_cap: usize,
    /// Deterministic fault plan ([`ChaosPlan::none`] in production). The
    /// plan is cloned — and thereby re-armed — per service instance.
    pub chaos: ChaosPlan,
    /// Default data-plane payload rate in bytes per media-second, for
    /// catalog entries without their own `bytes-per-sec`: one segment's
    /// synthesized payload is `rate × segment_secs` bytes.
    pub data_rate_bps: u64,
    /// Per-channel broadcast ring capacity (recent publications retained
    /// for lagging subscribers before eviction-with-overrun).
    pub ring_cap: usize,
    /// Seed of the deterministic segment store. Clients verifying
    /// delivered bytes must synthesize their oracle with the same seed.
    pub store_seed: u64,
}

impl Default for SvcConfig {
    fn default() -> Self {
        SvcConfig {
            catalog: ServeCatalog::uniform(4, VideoSpec::paper_two_hour()),
            shards: 2,
            dilation: 1,
            queue_cap: 64,
            outbound_cap: 256,
            io_threads: 0,
            min_service_time: Duration::ZERO,
            journal: Journal::disabled(),
            replay_cap: 1024,
            max_restarts: 3,
            restart_backoff: Duration::from_millis(25),
            restart_backoff_cap: Duration::from_secs(1),
            shard_journal_cap: 65_536,
            chaos: ChaosPlan::none(),
            data_rate_bps: 1024,
            ring_cap: 64,
            store_seed: vod_ring::DEFAULT_STORE_SEED,
        }
    }
}

/// What a graceful [`Service::shutdown`] observed.
#[derive(Debug, Clone)]
pub struct DrainSummary {
    /// Connections accepted over the service's lifetime.
    pub conns: u64,
    /// Request frames received.
    pub requests: u64,
    /// Grants delivered.
    pub grants: u64,
    /// Requests rejected (all reasons).
    pub rejected: u64,
    /// Final metrics snapshot (the same JSON a `STATS` frame returns).
    pub stats_json: String,
}

/// Per-video facts the event loops answer `Describe` from and validate
/// `Request`s against, fixed at startup.
pub(crate) struct VideoMeta {
    /// Segment count (0 for invalid entries).
    pub(crate) segments: u32,
    /// Scheduler name (`DHB`, `dyn-NPB`, `DHB-d`, …), or the entry's
    /// protocol key when the entry failed to build.
    pub(crate) protocol: String,
    /// The period vector `T[1..=n]` (empty for invalid entries).
    pub(crate) periods: Vec<u64>,
    /// `false` when the catalog entry could not back a working scheduler;
    /// requests for it get `Rejected(invalid_video)`.
    pub(crate) valid: bool,
}

pub(crate) struct Shared {
    pub(crate) videos: u32,
    pub(crate) shards: usize,
    pub(crate) meta: Vec<VideoMeta>,
    pub(crate) dilation: u32,
    pub(crate) draining: AtomicBool,
    pub(crate) next_conn: AtomicU64,
    pub(crate) stats: Arc<ServiceStats>,
    pub(crate) journal: Journal,
    pub(crate) sessions: SessionRegistry,
    /// Per-shard "restart budget exhausted" flags; loops shed at admission
    /// instead of queueing into a disabled shard.
    pub(crate) shard_down: Vec<Arc<AtomicBool>>,
    pub(crate) chaos: Arc<ChaosPlan>,
    pub(crate) replay_cap: usize,
    pub(crate) outbound_cap: usize,
    /// Admission bound on each shard's queued requests.
    pub(crate) queue_cap: usize,
    pub(crate) telemetry: Arc<Telemetry>,
    /// The broadcast data plane (channel rings, subscribers, segment
    /// store), shared by event loops (subscribe) and shards (publish).
    pub(crate) data: Arc<DataPlane>,
}

/// A running VoD control-plane service.
///
/// Bind with [`Service::start`], stop with [`Service::shutdown`]; dropping
/// without `shutdown` leaves detached threads running until process exit
/// (fine for a serve-forever binary, not for tests).
pub struct Service {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: JoinHandle<()>,
    pool: Arc<LoopPool>,
}

impl Service {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures.
    pub fn start(addr: &str, config: &SvcConfig) -> io::Result<Service> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shards = config.shards.max(1);
        let dilation = config.dilation.max(1);
        let stats = Arc::new(ServiceStats::default());
        let chaos = Arc::new(config.chaos.clone());
        let telemetry = Arc::new(Telemetry::new(shards, config.max_restarts));

        // Build every catalog entry. Good entries become shard-owned
        // schedulers, each ticking on its own slot clock (segment durations
        // differ across a heterogeneous catalog). Bad entries stay in the
        // catalog as invalid videos — served with typed rejections, never a
        // crash: catalog files are untrusted input.
        let mut meta = Vec::with_capacity(config.catalog.len());
        let mut channels = Vec::with_capacity(config.catalog.len());
        let mut shard_videos: Vec<Vec<ShardVideo>> = (0..shards).map(|_| Vec::new()).collect();
        for (id, built) in config
            .catalog
            .build(&config.journal)
            .into_iter()
            .enumerate()
        {
            match built {
                Ok((spec, scheduler)) => {
                    let entry = &config.catalog.entries()[id];
                    let clock = Arc::new(SlotClock::start(spec.segment_duration(), dilation));
                    let rate = entry.bytes_per_sec.unwrap_or(config.data_rate_bps).max(1);
                    channels.push(ChannelInit {
                        payload_len: vod_ring::payload_len_for(
                            rate,
                            spec.segment_duration().as_secs_f64(),
                        ) as u64,
                        slot_ns: u64::try_from(clock.real_slot_duration().as_nanos())
                            .unwrap_or(u64::MAX),
                        valid: true,
                    });
                    meta.push(VideoMeta {
                        segments: spec.n_segments() as u32,
                        protocol: scheduler.name().to_owned(),
                        periods: scheduler.periods().to_vec(),
                        valid: true,
                    });
                    shard_videos[id % shards].push(ShardVideo {
                        id: id as u32,
                        entry: entry.clone(),
                        scheduler,
                        clock,
                    });
                }
                Err(_) => {
                    let entry = &config.catalog.entries()[id];
                    channels.push(ChannelInit {
                        payload_len: 0,
                        slot_ns: 0,
                        valid: false,
                    });
                    meta.push(VideoMeta {
                        segments: 0,
                        protocol: entry.protocol_key().to_owned(),
                        periods: Vec::new(),
                        valid: false,
                    });
                }
            }
        }
        let data = Arc::new(DataPlane::new(
            config.store_seed,
            config.ring_cap.max(1),
            channels,
        ));

        let policy = RestartPolicy {
            max_restarts: config.max_restarts,
            backoff_base: config.restart_backoff,
            backoff_cap: config.restart_backoff_cap,
            journal_cap: config.shard_journal_cap,
        };
        let shard_down: Vec<Arc<AtomicBool>> = (0..shards)
            .map(|_| Arc::new(AtomicBool::new(false)))
            .collect();
        let workers: Vec<ShardWorker> = shard_videos
            .into_iter()
            .enumerate()
            .map(|(id, videos)| {
                let shard = ShardConfig {
                    id,
                    stats: Arc::clone(&stats),
                    min_service_time: config.min_service_time,
                    journal: config.journal.clone(),
                    chaos: Arc::clone(&chaos),
                    telemetry: Arc::clone(&telemetry),
                    data: Arc::clone(&data),
                    policy: policy.clone(),
                    down: Arc::clone(&shard_down[id]),
                };
                ShardWorker::new(shard, videos)
            })
            .collect();

        let shared = Arc::new(Shared {
            videos: config.catalog.len() as u32,
            shards,
            meta,
            dilation,
            draining: AtomicBool::new(false),
            next_conn: AtomicU64::new(0),
            stats,
            journal: config.journal.clone(),
            sessions: SessionRegistry::default(),
            shard_down,
            chaos,
            replay_cap: config.replay_cap.max(1),
            outbound_cap: config.outbound_cap.max(8),
            queue_cap: config.queue_cap.max(1),
            telemetry,
            data,
        });

        let io_threads = if config.io_threads == 0 {
            std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .min(8)
        } else {
            config.io_threads
        };
        let pool = Arc::new(LoopPool::spawn(&shared, workers, io_threads)?);

        let accept_shared = Arc::clone(&shared);
        let accept_pool = Arc::clone(&pool);
        let accept_handle = std::thread::Builder::new()
            .name("vod-svc-accept".to_owned())
            .spawn(move || accept_loop(&listener, &accept_shared, &accept_pool))?;

        Ok(Service {
            addr,
            shared,
            accept_handle,
            pool,
        })
    }

    /// The bound address (including the resolved ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live counters (shared with every service thread).
    #[must_use]
    pub fn stats(&self) -> &Arc<ServiceStats> {
        &self.shared.stats
    }

    /// Gracefully drains and stops the service: stop admitting, flush every
    /// admitted grant, join all threads.
    #[must_use = "the drain summary carries the final stats snapshot"]
    pub fn shutdown(self) -> DrainSummary {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Unblock `accept` so the accept thread notices the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept_handle.join();
        // Drain phase one: every loop stops reading (admitting and
        // forwarding nothing more) and queues a `Draining` frame per live
        // connection. Shards keep answering what was admitted.
        self.pool.begin_drain();
        // Session rings hold connection senders; drop them so the queues
        // are referenced only by their connections (queued requests hold
        // their own session handles).
        self.shared.sessions.clear();
        // Drain phase two: loops answer every queued request, flush every
        // queue, close every socket, and exit.
        self.pool.finish();
        let stats = &self.shared.stats;
        let summary = DrainSummary {
            conns: stats.conns.load(Ordering::Relaxed),
            requests: stats.requests.load(Ordering::Relaxed),
            grants: stats.grants.load(Ordering::Relaxed),
            rejected: stats.rejected_total(),
            stats_json: self
                .shared
                .telemetry
                .snapshot_full(stats, &self.shared.sessions)
                .to_json_pretty(),
        };
        self.shared.journal.emit_with(|| Event::ServiceDrained {
            conns: summary.conns,
            grants: summary.grants,
        });
        summary
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, pool: &LoopPool) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        let conn = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        shared.stats.conns.fetch_add(1, Ordering::Relaxed);
        shared.journal.emit_with(|| Event::ConnAccepted { conn });
        pool.dispatch(stream, conn);
    }
}

//! The live workloads, `grants` and `bytes`: an in-process `Service`
//! driven over loopback TCP by one generator thread per connection.
//!
//! Every video has exactly one sender, so its arrival sequence — and with
//! it every grant — is fixed by the seed. Arrival slots are explicit and
//! come from a seeded Poisson process per video, and the server never
//! consults its own clock for them.

use std::collections::HashSet;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use vod_svc::load::Reassembler;
use vod_svc::{
    Frame, GrantedSegment, ServeCatalog, Service, ServiceStats, SvcConfig, DEFAULT_STORE_SEED,
};
use vod_types::VideoSpec;

use crate::client::{decode, Client, REPLY_TIMEOUT};
use crate::oracle::{grant_digest, replay, Replay};
use crate::report::{Metric, PhaseOut};
use crate::trace::{self, span};
use crate::util::{median, own_cpu_s, percentile, service_cpu_s, window_rates, Rng};

/// Throughputs are the median over windows of this length, so a short
/// stall on the shared host moves one window, not the whole figure.
const RATE_WINDOW: Duration = Duration::from_millis(100);
/// Open-loop tail latency is taken over each run of this many samples and
/// the median across them reported.
const TAIL_SAMPLES: usize = 2000;
/// The start of every chunk is driven but not measured: the run switches
/// between workloads, and the first requests after a switch meet cold
/// caches and sleeping threads that a steady stream would not.
const SWITCH_WARMUP: Duration = Duration::from_millis(50);

/// Paper arrival rate used by both live workloads: 50 requests per hour
/// on a 2-hour, 99-segment video is about one arrival per slot.
const RATE_PER_HOUR: f64 = 50.0;

/// Fixed parameters of one live workload, recorded with every run.
#[derive(Debug, Clone)]
pub struct LiveParams {
    videos: u32,
    conns: usize,
    shards: usize,
    io_threads: usize,
    dilation: u32,
    queue_cap: usize,
    outbound_cap: usize,
    data_rate_bps: u64,
    ring_cap: usize,
    /// Requests in flight per connection in the closed loop.
    window: usize,
    /// Offered open-loop rate over all connections (`grants` only).
    open_rate_per_s: f64,
    /// Publications a subscriber may trail the schedule by before the
    /// senders wait (`bytes` only).
    slack: u64,
    setup_reps: usize,
    subscribe: bool,
}

/// Generator connections, one thread each: never more than the cores.
fn conns() -> usize {
    thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

impl LiveParams {
    pub fn grants() -> LiveParams {
        LiveParams {
            videos: 8,
            conns: conns(),
            shards: 2,
            io_threads: 1,
            dilation: 100,
            queue_cap: 4096,
            outbound_cap: 1024,
            // The data plane is idle here; keep the never-read payloads small.
            data_rate_bps: 16,
            ring_cap: 64,
            window: 32,
            open_rate_per_s: 4000.0,
            slack: 0,
            setup_reps: 5,
            subscribe: false,
        }
    }

    pub fn bytes() -> LiveParams {
        LiveParams {
            videos: conns() as u32,
            conns: conns(),
            shards: 2,
            io_threads: 1,
            dilation: 100,
            queue_cap: 4096,
            outbound_cap: 1024,
            // 16 kB per media second: one 72.7 s segment is 1.16 MB, two
            // `SegmentData` frames.
            data_rate_bps: 16_000,
            ring_cap: 64,
            window: 1,
            open_rate_per_s: 0.0,
            slack: 8,
            setup_reps: 3,
            subscribe: true,
        }
    }

    fn svc_config(&self) -> SvcConfig {
        SvcConfig {
            catalog: ServeCatalog::uniform(self.videos, VideoSpec::paper_two_hour()),
            shards: self.shards,
            io_threads: self.io_threads,
            dilation: self.dilation,
            queue_cap: self.queue_cap,
            outbound_cap: self.outbound_cap,
            data_rate_bps: self.data_rate_bps,
            ring_cap: self.ring_cap,
            store_seed: DEFAULT_STORE_SEED,
            min_service_time: Duration::ZERO,
            ..SvcConfig::default()
        }
    }

    /// Every parameter, for the run record.
    fn record(&self) -> String {
        let c = self.svc_config();
        format!(
            "videos={} segments=99 rate_per_hour={RATE_PER_HOUR} conns={} gen_threads={} \
             window={} open_rate_per_s={} slack={} setup_reps={} subscribe={} | \
             svc: shards={} io_threads={} dilation={} queue_cap={} outbound_cap={} \
             data_rate_bps={} ring_cap={} store_seed={:#x} replay_cap={} max_restarts={} \
             shard_journal_cap={} min_service_time={:?} admin=none chaos=none",
            self.videos,
            self.conns,
            self.conns,
            self.window,
            self.open_rate_per_s,
            self.slack,
            self.setup_reps,
            self.subscribe,
            c.shards,
            c.io_threads,
            c.dilation,
            c.queue_cap,
            c.outbound_cap,
            c.data_rate_bps,
            c.ring_cap,
            c.store_seed,
            c.replay_cap,
            c.max_restarts,
            c.shard_journal_cap,
            c.min_service_time,
        )
    }
}

/// One video's seeded Poisson arrival slots.
struct Arrivals {
    video: u32,
    rng: Rng,
    t: f64,
    mean_gap_slots: f64,
}

impl Arrivals {
    fn new(seed: u64, video: u32) -> Arrivals {
        let slot_secs = VideoSpec::paper_two_hour().segment_duration().as_secs_f64();
        Arrivals {
            video,
            rng: Rng::new(seed, u64::from(video) + 1),
            t: 0.0,
            mean_gap_slots: 3600.0 / RATE_PER_HOUR / slot_secs,
        }
    }

    fn next(&mut self) -> u64 {
        self.t += self.rng.exp(self.mean_gap_slots);
        self.t.floor() as u64
    }
}

enum Answer {
    Pending,
    Grant { digest: u64, recv: Instant },
    Rejected,
}

struct Sent {
    video: u32,
    arrival: u64,
    due: Instant,
    answer: Answer,
}

/// Cross-connection state of the `bytes` loop: publications the grants
/// announced, and how many each subscriber has verified.
struct Gate {
    expected: AtomicU64,
    verified: Vec<AtomicU64>,
    outstanding: AtomicU64,
    slack: u64,
}

impl Gate {
    fn lagging(&self) -> bool {
        let slowest = self
            .verified
            .iter()
            .map(|v| v.load(Ordering::Acquire))
            .min()
            .unwrap_or(0);
        slowest + self.slack < self.expected.load(Ordering::Acquire)
    }
}

struct Gen {
    id: usize,
    client: Client,
    videos: Vec<Arrivals>,
    rr: usize,
    sent: Vec<Sent>,
    outstanding: usize,
    grants: u64,
    rejected: u64,
    protocol_errors: u64,
    identity_errors: u64,
    codec_errors: u64,
    grant_bytes: usize,
    reasm: Vec<(u32, Reassembler)>,
    gate: Option<Arc<Gate>>,
    /// Instances planted by the set-up requests, which were published
    /// before any subscription existed and so are never delivered.
    unsubscribed: Option<HashSet<(u32, u32, u64)>>,
    late_ns: Vec<u64>,
    /// When each publication finished verifying on this connection.
    verified_at: Vec<Instant>,
    /// CPU seconds this generator's threads used.
    cpu_s: f64,
    /// Inter-send gaps of the open loop.
    open_rng: Rng,
}

impl Gen {
    fn send_next(&mut self, due: Instant) -> io::Result<()> {
        let n = self.videos.len();
        let arr = &mut self.videos[self.rr % n];
        self.rr += 1;
        let (video, arrival) = (arr.video, arr.next());
        let seq = self.sent.len() as u64;
        self.sent.push(Sent {
            video,
            arrival,
            due,
            answer: Answer::Pending,
        });
        self.outstanding += 1;
        if let Some(g) = &self.gate {
            g.outstanding.fetch_add(1, Ordering::AcqRel);
        }
        self.client.send(&Frame::Request {
            seq,
            video,
            arrival_slot: arrival,
        })
    }

    fn verified(&self) -> u64 {
        self.reasm
            .iter()
            .map(|(_, r)| r.tally().segments_verified)
            .sum()
    }

    /// Reads what arrived within `timeout` and handles every frame.
    fn pump(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        let Some(now) = self.client.read_some(timeout)? else {
            return Ok(());
        };
        while let Some(payload) = self.client.next_payload()? {
            let frame = decode(&payload)?;
            match frame {
                Frame::Grant {
                    seq,
                    video,
                    arrival_slot,
                    segments,
                } => self.on_grant(&payload, seq, video, arrival_slot, segments, now),
                Frame::Rejected { seq, .. } => match self.sent.get_mut(seq as usize) {
                    Some(s) if matches!(s.answer, Answer::Pending) => {
                        s.answer = Answer::Rejected;
                        self.rejected += 1;
                        self.answered();
                    }
                    _ => self.protocol_errors += 1,
                },
                Frame::SegmentData {
                    video,
                    segment,
                    slot,
                    channel_seq,
                    offset,
                    total_len,
                    bytes,
                } => {
                    let Some((_, r)) = self.reasm.iter_mut().find(|(v, _)| *v == video) else {
                        self.protocol_errors += 1;
                        continue;
                    };
                    let before = r.tally().segments_verified;
                    span("load", "on_chunk", || {
                        r.on_chunk(segment, slot, channel_seq, offset, total_len, &bytes, now);
                    });
                    if r.tally().segments_verified > before {
                        self.verified_at.push(now);
                    }
                    if let Some(g) = &self.gate {
                        g.verified[self.id].store(self.verified(), Ordering::Release);
                    }
                }
                _ => self.protocol_errors += 1,
            }
        }
        Ok(())
    }

    fn answered(&mut self) {
        self.outstanding -= 1;
        if let Some(g) = &self.gate {
            g.outstanding.fetch_sub(1, Ordering::AcqRel);
        }
    }

    fn on_grant(
        &mut self,
        payload: &[u8],
        seq: u64,
        video: u32,
        arrival_slot: u64,
        segments: Vec<GrantedSegment>,
        now: Instant,
    ) {
        self.grant_bytes = payload.len() + 4;
        let Some(s) = self.sent.get_mut(seq as usize) else {
            self.protocol_errors += 1;
            return;
        };
        if !matches!(s.answer, Answer::Pending) {
            self.protocol_errors += 1;
            return;
        }
        if s.video != video || s.arrival != arrival_slot {
            self.identity_errors += 1;
        }
        let digest = grant_digest(
            arrival_slot,
            segments.iter().map(|g| (g.segment, g.slot, g.shared)),
        );
        s.answer = Answer::Grant { digest, recv: now };
        self.grants += 1;
        self.answered();
        self.note_grant(video, arrival_slot, &segments, now);
        if trace::enabled() {
            // The encoder is canonical: re-encoding the decoded grant must
            // give back the received bytes.
            let frame = Frame::Grant {
                seq,
                video,
                arrival_slot,
                segments,
            };
            if span("wire", "grant_encode", || frame.encode_payload()) != payload {
                self.codec_errors += 1;
            }
        }
    }

    fn note_grant(&mut self, video: u32, arrival: u64, segments: &[GrantedSegment], now: Instant) {
        let fresh = segments.iter().filter(|s| !s.shared);
        let Some(g) = &self.gate else {
            if let Some(early) = &mut self.unsubscribed {
                early.extend(fresh.map(|s| (video, s.segment, s.slot)));
            }
            return;
        };
        g.expected.fetch_add(fresh.count() as u64, Ordering::AcqRel);
        let early = self
            .unsubscribed
            .as_ref()
            .expect("subscribed gens keep their set-up grants");
        let deliverable: Vec<GrantedSegment> = segments
            .iter()
            .filter(|s| !early.contains(&(video, s.segment, s.slot)))
            .copied()
            .collect();
        if let Some((_, r)) = self.reasm.iter_mut().find(|(v, _)| *v == video) {
            r.on_grant(arrival, &deliverable, now);
        }
    }

    fn closed_loop(&mut self, end: Instant, window: usize) -> io::Result<()> {
        loop {
            let now = Instant::now();
            if now >= end {
                return Ok(());
            }
            let gated = self.gate.as_ref().is_some_and(|g| g.lagging());
            if self.outstanding < window && !gated {
                self.send_next(now)?;
                continue;
            }
            let wait = if gated {
                Duration::from_micros(200)
            } else {
                end - now
            };
            self.pump(Some(wait.min(end - now)))?;
        }
    }

    fn open_loop(&mut self, start: Instant, end: Instant, rate: f64) -> io::Result<()> {
        let mut due = start + Duration::from_secs_f64(self.open_rng.exp(1.0 / rate));
        while due < end {
            let now = Instant::now();
            if now >= due {
                self.late_ns.push((now - due).as_nanos() as u64);
                self.send_next(due)?;
                due += Duration::from_secs_f64(self.open_rng.exp(1.0 / rate));
            } else {
                self.pump(Some(due - now))?;
            }
        }
        Ok(())
    }

    /// Waits for every answer and, with subscriptions, for every announced
    /// publication to be verified. What is still missing at the deadline
    /// is counted by the caller.
    fn drain(&mut self) -> io::Result<()> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            let done = match &self.gate {
                Some(g) => {
                    g.outstanding.load(Ordering::Acquire) == 0
                        && self.verified() >= g.expected.load(Ordering::Acquire)
                }
                None => self.outstanding == 0,
            };
            let now = Instant::now();
            if done || now >= deadline {
                return Ok(());
            }
            let wait = if self.outstanding == 0 {
                Duration::from_micros(200)
            } else {
                deadline - now
            };
            self.pump(Some(wait.min(deadline - now)))?;
        }
    }
}

/// Runs `f` on every generator, one named thread each, and joins them.
fn on_gens(gens: &mut [Gen], f: impl Fn(&mut Gen) -> io::Result<()> + Sync) -> io::Result<()> {
    let f = &f;
    thread::scope(|scope| {
        let handles: Vec<_> = gens
            .iter_mut()
            .map(|g| {
                thread::Builder::new()
                    .name(format!("pb-gen-{}", g.id))
                    .spawn_scoped(scope, move || {
                        let cpu0 = own_cpu_s();
                        let r = f(g);
                        g.cpu_s += own_cpu_s() - cpu0;
                        trace::flush_thread();
                        r
                    })
            })
            .collect::<io::Result<_>>()?;
        for h in handles {
            h.join().expect("generator thread panicked")?;
        }
        Ok(())
    })
}

fn rejected_total(s: &ServiceStats) -> u64 {
    [
        &s.rejected_queue_full,
        &s.rejected_draining,
        &s.rejected_unknown_video,
        &s.rejected_invalid_video,
        &s.rejected_shard_down,
        &s.rejected_unknown_session,
    ]
    .iter()
    .map(|c| c.load(Ordering::Relaxed))
    .sum()
}

/// Everything a live run leaves for the checks: per-video arrivals with
/// the digests of their grants, in grant order.
fn per_video(gens: &[Gen], videos: u32) -> Vec<(u32, Vec<(u64, u64)>)> {
    (0..videos)
        .map(|v| {
            let list = gens
                .iter()
                .flat_map(|g| g.sent.iter())
                .filter(|s| s.video == v)
                .filter_map(|s| match s.answer {
                    Answer::Grant { digest, .. } => Some((s.arrival, digest)),
                    _ => None,
                })
                .collect();
            (v, list)
        })
        .collect()
}

fn layer_core(out: &mut PhaseOut, rep: &Replay) {
    let aggs = trace::aggregate(&trace::take_all());
    let sched = trace::call(&aggs, "core", "schedule_request");
    let pop = trace::call(&aggs, "core", "pop_slot");
    let requests = rep.requests.max(1) as f64;
    out.layer("core.schedule_ns", sched.mean_ns(), "ns");
    out.layer("core.pop_slot_ns", pop.mean_ns(), "ns");
    out.layer("core.pops_per_request", rep.pops as f64 / requests, "count");
    let placed = (rep.shared_instances + rep.new_instances).max(1) as f64;
    out.layer(
        "core.share_ratio",
        rep.shared_instances as f64 / placed,
        "ratio",
    );
    out.layer(
        "core.new_instances_per_request",
        rep.new_instances as f64 / requests,
        "count",
    );
}

/// Wire size of a grant for the paper video: the echo baseline's frame.
fn grant_frame_len() -> usize {
    let segment = GrantedSegment {
        segment: 1,
        slot: 0,
        shared: false,
    };
    Frame::Grant {
        seq: 0,
        video: 0,
        arrival_slot: 0,
        segments: vec![segment; 99],
    }
    .encode()
    .len()
}

fn median_or_nan(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        median(values)
    }
}

/// One live service with its connections, driven in chunks between which
/// it sits idle while the run's other workloads take their turn.
pub struct Live {
    p: LiveParams,
    /// `None` once shut down.
    service: Option<Service>,
    gens: Vec<Gen>,
    out: PhaseOut,
    shutdown_ms: Vec<f64>,
    warm_published: u64,
    /// Closed-loop (`grants`) or streaming (`bytes`) rate per window.
    rates: Vec<f64>,
    /// Closed-loop or streaming time, events, and CPU of the service and
    /// of the generators.
    busy_s: f64,
    events: u64,
    /// Events and time after each chunk's switch warm-up.
    measured_events: u64,
    measured_s: f64,
    svc_cpu_s: f64,
    gen_cpu_s: f64,
    svc_bytes: u64,
    /// Open-loop samples not yet in a tail window, and the tails so far.
    pending_tail: Vec<u64>,
    tails: Vec<f64>,
    /// Every measured open-loop latency, in ns.
    open_lat: Vec<u64>,
    /// Same-run loopback echo round trips, in ns, and their pacing.
    echo_lat: Vec<u64>,
    echo_rng: Rng,
}

impl Live {
    /// Starts the service and its connections `setup_reps` times; all but
    /// the last are shut down again. Set-up time is the median, plus, with
    /// subscriptions, the one-time fill of the service's segment store
    /// (done once: every fill allocates the whole store).
    pub fn start(name: &'static str, p: LiveParams, seed: u64) -> io::Result<Live> {
        let mut out = PhaseOut::new(name, p.record());
        let mut times = Vec::new();
        let mut shutdown_ms = Vec::new();
        for rep in 0..p.setup_reps {
            let t0 = Instant::now();
            let (service, mut gens) = Live::set_up_once(&p, seed)?;
            times.push(t0.elapsed().as_secs_f64());
            if rep + 1 == p.setup_reps {
                let t0 = Instant::now();
                if p.subscribe {
                    Live::fill_and_subscribe(&p, &mut gens)?;
                }
                out.setup_s = median(&mut times) + t0.elapsed().as_secs_f64();
                let warm_published = service.stats().ring_published.load(Ordering::Relaxed);
                out.aggs = trace::aggregate(&trace::take_all());
                return Ok(Live {
                    p,
                    service: Some(service),
                    gens,
                    out,
                    shutdown_ms,
                    warm_published,
                    rates: Vec::new(),
                    busy_s: 0.0,
                    events: 0,
                    measured_events: 0,
                    measured_s: 0.0,
                    svc_cpu_s: 0.0,
                    gen_cpu_s: 0.0,
                    svc_bytes: 0,
                    pending_tail: Vec::new(),
                    tails: Vec::new(),
                    open_lat: Vec::new(),
                    echo_lat: Vec::new(),
                    echo_rng: Rng::new(seed, 2000),
                });
            }
            drop(gens);
            let t0 = Instant::now();
            span("svc", "shutdown", || service.shutdown());
            shutdown_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "setup_reps must be at least 1",
        ))
    }

    fn set_up_once(p: &LiveParams, seed: u64) -> io::Result<(Service, Vec<Gen>)> {
        let service = span("svc", "start", || {
            Service::start("127.0.0.1:0", &p.svc_config())
        })?;
        let mut gens = Vec::new();
        for id in 0..p.conns {
            let mut client = Client::connect(service.local_addr())?;
            client.handshake()?;
            let videos = (0..p.videos)
                .filter(|v| *v as usize % p.conns == id)
                .map(|v| Arrivals::new(seed, v))
                .collect();
            gens.push(Gen {
                id,
                client,
                videos,
                rr: 0,
                sent: Vec::new(),
                outstanding: 0,
                grants: 0,
                rejected: 0,
                protocol_errors: 0,
                identity_errors: 0,
                codec_errors: 0,
                grant_bytes: 0,
                reasm: Vec::new(),
                gate: None,
                unsubscribed: p.subscribe.then(HashSet::new),
                late_ns: Vec::new(),
                verified_at: Vec::new(),
                cpu_s: 0.0,
                open_rng: Rng::new(seed, 1000 + id as u64),
            });
        }
        Ok((service, gens))
    }

    /// Each video's first request schedules every segment. Sending it
    /// before anyone subscribes fills the service's segment store now, so
    /// the measured loop moves steady-state publications.
    fn fill_and_subscribe(p: &LiveParams, gens: &mut [Gen]) -> io::Result<()> {
        for g in gens.iter_mut() {
            for _ in 0..g.videos.len() {
                g.send_next(Instant::now())?;
            }
            while g.outstanding > 0 {
                g.pump(Some(REPLY_TIMEOUT))?;
            }
        }
        let gate = Arc::new(Gate {
            expected: AtomicU64::new(0),
            verified: (0..p.conns).map(|_| AtomicU64::new(0)).collect(),
            outstanding: AtomicU64::new(0),
            slack: p.slack,
        });
        for g in gens.iter_mut() {
            for video in 0..p.videos {
                let (len, slot_ns, next_seq) = g.client.subscribe(video)?;
                let mut r = Reassembler::new(DEFAULT_STORE_SEED, video);
                r.on_subscribe_ok(len, slot_ns, next_seq);
                g.reasm.push((video, r));
            }
            g.gate = Some(Arc::clone(&gate));
        }
        Ok(())
    }

    fn merge_spans(&mut self) {
        for (key, a) in trace::aggregate(&trace::take_all()) {
            let e = self.out.aggs.entry(key).or_default();
            e.calls += a.calls;
            e.total_ns += a.total_ns;
            e.self_ns += a.self_ns;
        }
    }

    /// Closed loop for `dur`: a fixed window of requests per connection
    /// (`grants`), or the verification-gated loop (`bytes`).
    pub fn closed(&mut self, dur: Duration) -> io::Result<()> {
        let marks: Vec<(usize, usize)> = self
            .gens
            .iter()
            .map(|g| (g.sent.len(), g.verified_at.len()))
            .collect();
        let stats = Arc::clone(self.service.as_ref().expect("service running").stats());
        let cpu0 = service_cpu_s();
        let gen_cpu0: f64 = self.gens.iter().map(|g| g.cpu_s).sum();
        let bytes0 = stats.bytes_delivered.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let end = t0 + dur;
        let window = self.p.window;
        on_gens(&mut self.gens, |g| {
            g.closed_loop(end, window)?;
            g.drain()
        })?;
        self.busy_s += t0.elapsed().as_secs_f64();
        self.svc_cpu_s += service_cpu_s() - cpu0;
        self.gen_cpu_s += self.gens.iter().map(|g| g.cpu_s).sum::<f64>() - gen_cpu0;
        self.svc_bytes += stats.bytes_delivered.load(Ordering::Relaxed) - bytes0;
        let done: Vec<Instant> = if self.p.subscribe {
            self.gens
                .iter()
                .zip(&marks)
                .flat_map(|(g, m)| g.verified_at[m.1..].iter().copied())
                .collect()
        } else {
            self.gens
                .iter()
                .zip(&marks)
                .flat_map(|(g, m)| g.sent[m.0..].iter())
                .filter_map(|s| match s.answer {
                    Answer::Grant { recv, .. } => Some(recv),
                    _ => None,
                })
                .collect()
        };
        self.events += done.len() as u64;
        let from = t0 + SWITCH_WARMUP;
        self.measured_events += done.iter().filter(|t| **t >= from && **t < end).count() as u64;
        self.measured_s += (end - from).as_secs_f64();
        self.rates
            .extend(window_rates(&done, from, end, RATE_WINDOW));
        self.merge_spans();
        Ok(())
    }

    /// Open loop for `dur` at the fixed offered rate, each request timed
    /// from its due time.
    pub fn open(&mut self, dur: Duration) -> io::Result<()> {
        let marks: Vec<usize> = self.gens.iter().map(|g| g.sent.len()).collect();
        let t0 = Instant::now();
        let end = t0 + dur;
        let rate = self.p.open_rate_per_s / self.p.conns as f64;
        on_gens(&mut self.gens, |g| {
            g.open_loop(t0, end, rate)?;
            g.drain()
        })?;
        // The socket baseline runs interleaved with the open loop it is
        // compared with, so both see the host in the same state.
        let echo = crate::netbase::echo_rtts(
            grant_frame_len(),
            rate,
            dur / 4 + SWITCH_WARMUP,
            SWITCH_WARMUP,
            &mut self.echo_rng,
        )?;
        self.echo_lat.extend(echo);
        let mut chunk: Vec<(Instant, u64)> = self
            .gens
            .iter()
            .zip(&marks)
            .flat_map(|(g, &m)| g.sent[m..].iter())
            .filter(|s| s.due >= t0 + SWITCH_WARMUP)
            .filter_map(|s| match s.answer {
                Answer::Grant { recv, .. } => Some((
                    s.due,
                    recv.saturating_duration_since(s.due).as_nanos() as u64,
                )),
                _ => None,
            })
            .collect();
        chunk.sort_unstable();
        for (_, ns) in chunk {
            self.open_lat.push(ns);
            self.pending_tail.push(ns);
            if self.pending_tail.len() == TAIL_SAMPLES {
                self.pending_tail.sort_unstable();
                if let Some(p99) = percentile(&self.pending_tail, 0.99) {
                    self.tails.push(p99 as f64 / 1e3);
                }
                self.pending_tail.clear();
            }
        }
        self.merge_spans();
        Ok(())
    }

    /// Shuts the service down and checks what the run produced:
    /// identity against the replay, the service's counters against the
    /// client's, and the publish count.
    fn finish_common(&mut self) -> Replay {
        let service = self.service.take().expect("service running");
        let stats = Arc::clone(service.stats());
        let t0 = Instant::now();
        span("svc", "shutdown", || service.shutdown());
        self.shutdown_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let rep = replay(
            &per_video(&self.gens, self.p.videos),
            99,
            self.p.subscribe && trace::enabled(),
        );
        let gens = &self.gens;
        let out = &mut self.out;
        let sent: u64 = gens.iter().map(|g| g.sent.len() as u64).sum();
        let grants: u64 = gens.iter().map(|g| g.grants).sum();
        let rejected: u64 = gens.iter().map(|g| g.rejected).sum();
        let identity: u64 = gens.iter().map(|g| g.identity_errors).sum::<u64>() + rep.mismatches;
        let codec: u64 = gens.iter().map(|g| g.codec_errors).sum();
        let proto: u64 = gens.iter().map(|g| g.protocol_errors).sum();
        out.check(
            identity == 0,
            format!("{identity} grants differ from the DhbScheduler replay"),
        );
        out.check(
            codec == 0,
            format!("{codec} grants re-encode to different bytes"),
        );
        out.check(proto == 0, format!("{proto} unexpected frames"));
        let svc = (
            stats.requests.load(Ordering::Relaxed),
            stats.grants.load(Ordering::Relaxed),
            rejected_total(&stats),
        );
        out.check(
            svc == (sent, grants, rejected),
            format!(
                "service counted requests/grants/rejects {svc:?}, client {:?}",
                (sent, grants, rejected)
            ),
        );
        let published = stats.ring_published.load(Ordering::Relaxed);
        out.check(
            published == rep.new_instances,
            format!(
                "svc.ring.published {published} != replay's new instances {}",
                rep.new_instances
            ),
        );
        let unanswered = sent - grants - rejected;
        out.attempted += sent;
        out.failed += rejected + unanswered;
        out.notes.push(format!(
            "{}: {sent} requests, {grants} grants, {rejected} rejected, {unanswered} unanswered",
            out.name
        ));
        layer_core(out, &rep);
        let stats_out = [
            ("svc.ring.published", published),
            ("svc.ring.fanout", stats.ring_fanout.load(Ordering::Relaxed)),
            (
                "svc.ring.evictions",
                stats.ring_evictions.load(Ordering::Relaxed),
            ),
            ("svc.ring.gaps", stats.ring_gaps.load(Ordering::Relaxed)),
        ];
        if self.p.subscribe {
            for (name, v) in stats_out {
                out.layer(name, v as f64, "count");
            }
            out.layer(
                "svc.fanout_degree",
                stats_out[1].1 as f64 / (published - self.warm_published).max(1) as f64,
                "ratio",
            );
        }
        rep
    }

    /// `grants` metrics: closed-loop rate, open-loop latency, wire and
    /// generator layers.
    pub fn finish_grants(mut self) -> PhaseOut {
        self.finish_common();
        let gens = &self.gens;
        let mut lat = std::mem::take(&mut self.open_lat);
        lat.sort_unstable();
        let mut late: Vec<u64> = gens
            .iter()
            .flat_map(|g| g.late_ns.iter().copied())
            .collect();
        late.sort_unstable();
        let reads: u64 = gens.iter().map(|g| g.client.reads).sum();
        let frames: u64 = gens.iter().map(|g| g.client.frames).sum();
        let grant_bytes = gens.iter().map(|g| g.grant_bytes).max().unwrap_or(0);
        let n = lat.len() as u64;
        let us = |ns: Option<u64>| ns.map_or(f64::NAN, |v| v as f64 / 1e3);
        let out = &mut self.out;
        let windows = self.rates.len();
        out.metric(Metric::new(
            "grant_rps",
            median_or_nan(&mut self.rates),
            "1/s",
            self.events,
        ));
        let p50 = us(percentile(&lat, 0.50));
        self.echo_lat.sort_unstable();
        let echo = us(percentile(&self.echo_lat, 0.50));
        out.metric(Metric::new("grant_p50_us", p50, "us", n));
        out.metric(Metric::new("grant_p50_over_echo", p50 / echo, "ratio", n));
        out.layer("net.echo_rtt_p50_us", echo, "us");
        out.metric(Metric::new(
            "grant_p99_us",
            median_or_nan(&mut self.tails),
            "us",
            n,
        ));
        out.notes.push(format!(
            "grants: closed loop {} grants in {:.2} s, rate is the median of {windows} {} ms \
             windows; open loop {n} samples, p99 is the median over {} runs of {TAIL_SAMPLES} \
             (whole-run p99 {:.1} us)",
            self.events,
            self.busy_s,
            RATE_WINDOW.as_millis(),
            self.tails.len(),
            us(percentile(&lat, 0.99))
        ));
        let late_p99 = us(percentile(&late, 0.99));
        out.layer("gen.late_p99_us", late_p99, "us");
        // The open loop is only an open loop while sends leave on time.
        let gap_us = 1e6 * self.p.conns as f64 / self.p.open_rate_per_s;
        out.notes.push(format!(
            "grants: open loop {}: 99% of sends left within {late_p99:.0} us of their due time, \
             mean gap between a connection's sends {gap_us:.0} us",
            if late_p99 < gap_us {
                "valid"
            } else {
                "NOT VALID (generator ran late)"
            }
        ));
        let cpu = self.gen_cpu_s + self.svc_cpu_s;
        out.metric(Metric::new(
            "grant_cpu_us",
            cpu * 1e6 / self.events.max(1) as f64,
            "us",
            self.events,
        ));
        out.layer("gen.cpu_share", self.gen_cpu_s / cpu, "ratio");
        out.layer(
            "svc.cpu_us_per_grant",
            self.svc_cpu_s * 1e6 / self.events.max(1) as f64,
            "us",
        );
        out.layer("svc.shutdown_ms", median(&mut self.shutdown_ms), "ms");
        out.layer(
            "load.frames_per_read",
            frames as f64 / reads.max(1) as f64,
            "count",
        );
        out.layer("wire.grant_bytes", grant_bytes as f64, "B");
        let call = |name| trace::call(&out.aggs, "wire", name).mean_ns();
        let (enc, dec, genc) = (call("encode"), call("decode"), call("grant_encode"));
        let out = &mut self.out;
        out.layer("wire.grant_encode_ns", genc, "ns");
        out.layer("wire.grant_decode_ns", dec, "ns");
        out.layer("wire.request_encode_ns", enc, "ns");
        self.out
    }

    /// `bytes` metrics: verified payload rate and the data-plane layers.
    pub fn finish_bytes(mut self) -> PhaseOut {
        let rep = self.finish_common();
        let gate = self.gens[0]
            .gate
            .clone()
            .expect("bytes generators share a gate");
        let expected = gate.expected.load(Ordering::Acquire);
        let payload_len = vod_svc::payload_len_for(
            self.p.data_rate_bps,
            VideoSpec::paper_two_hour().segment_duration().as_secs_f64(),
        ) as u64;
        let (mut verified, mut received) = (0u64, 0u64);
        let (mut mism, mut chunk_err, mut gaps, mut misses, mut missing) = (0, 0, 0, 0, 0);
        for g in &mut self.gens {
            let mut v = 0;
            for (_, r) in &mut g.reasm {
                r.finish();
                let t = r.tally();
                v += t.segments_verified;
                mism += t.checksum_mismatches;
                chunk_err += t.chunk_errors;
                gaps += t.gaps;
                misses += t.byte_deadline_misses;
                received += t.bytes_delivered;
            }
            verified += v;
            missing += expected.saturating_sub(v);
        }
        let out = &mut self.out;
        out.check(
            mism == 0,
            format!("{mism} segments failed byte verification"),
        );
        out.check(
            chunk_err == 0,
            format!("{chunk_err} chunks broke the framing contract"),
        );
        out.attempted += expected * self.p.conns as u64;
        out.failed += gaps + misses + missing;
        out.notes.push(format!(
            "bytes: {expected} publications x {} subscribers; verified {verified}, gaps {gaps}, \
             deadline misses {misses}, missing {missing}; bytes_mbps counts the {} publications \
             verified in {:.2} s of streaming after each switch warm-up (median {} ms window: \
             {:.1} MB/s)",
            self.p.conns,
            self.measured_events,
            self.measured_s,
            RATE_WINDOW.as_millis(),
            median_or_nan(&mut self.rates) * payload_len as f64 / 1e6,
        ));
        let mbps = (self.measured_events * payload_len) as f64 / self.measured_s / 1e6;
        out.metric(Metric::new("bytes_mbps", mbps, "MB/s", verified));
        let cpu = self.gen_cpu_s + self.svc_cpu_s;
        out.metric(Metric::new(
            "bytes_cpu_ns",
            cpu * 1e9 / (self.events * payload_len).max(1) as f64,
            "ns",
            self.events,
        ));
        out.layer(
            "svc.cpu_ns_per_byte",
            self.svc_cpu_s * 1e9 / self.svc_bytes.max(1) as f64,
            "ns",
        );
        let kib = (received as f64 / 1024.0).max(1.0);
        let decode = trace::call(&out.aggs, "wire", "decode").total_ns as f64;
        let verify = trace::call(&out.aggs, "load", "on_chunk").total_ns as f64;
        out.layer("wire.chunk_decode_ns_per_kib", decode / kib, "ns");
        out.layer("load.verify_ns_per_kib", verify / kib, "ns");
        if trace::enabled() {
            let config = self.p.svc_config();
            crate::ringlayer::measure(out, &rep, &config, payload_len as usize, self.p.conns);
        }
        self.out
    }
}

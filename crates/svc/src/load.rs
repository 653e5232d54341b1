//! The open/closed-loop load generator (`vodload`'s engine).
//!
//! Each connection runs a sender (main) thread plus a receiver thread over
//! one TCP stream. Closed loop keeps a fixed window of outstanding requests
//! per connection; open loop fires at a target rate regardless of replies.
//! Request→grant latency is measured client-side from the moment the
//! request frame is written to the moment its `Grant` (or `Rejected`) is
//! parsed, captured in a [`LogHistogram`] for p50/p99/p99.9 reporting.
//!
//! With `arrival_stride = Some(k)`, connection `c` stamps request `i` with
//! explicit arrival slot `i·k` — fully deterministic, which is what the
//! loopback equivalence tests and the throughput bench rely on. `None`
//! stamps [`ARRIVAL_AUTO`](crate::wire::ARRIVAL_AUTO) and exercises the
//! virtual clock instead.
//!
//! # Retry and resume
//!
//! The client never hangs on a dead server: reads are readiness-driven
//! (an epoll wait bounded by the exact remaining deadline, not a fixed
//! poll interval), and an attempt that goes quiet for
//! [`LoadConfig::read_timeout`] is declared stalled. A dropped or stalled
//! connection is retried up to [`LoadConfig::max_reconnects`] times with
//! jittered exponential backoff; each reconnect sends
//! `Resume{session, last_seq_seen}` so the server replays every missed
//! answer byte-identically, and re-sends any still-unanswered requests
//! (the server dedupes them against the session watermark). A connection
//! that exhausts its retry budget is counted in
//! [`LoadReport::unrecoverable_conns`] — the number the chaos CI gate
//! pins to zero.
//!
//! # Byte verification
//!
//! With [`LoadConfig::verify_bytes`] set, every connection subscribes to
//! its video's broadcast channel before the first request is sent (a
//! start gate holds all connections until every subscription is live, so
//! no publication can air unobserved). The inbound `SegmentData` chunks
//! feed a [`Reassembler`], which checks that each publication's chunks
//! tile it in order, compares every chunk in place against the seekable
//! [`PayloadOracle`] stream sharing the server's store seed (no
//! reassembly buffer, no synthesized copy), converts channel-seq jumps
//! into explicit gap counts, and checks that every segment granted to
//! *this* connection finishes arriving before its playback deadline —
//! grant receipt plus `(air slot − arrival slot) × slot_ns` on the
//! server's dilated clock.
//!
//! A reconnect re-subscribes: the server re-attaches the resumed session's
//! cursor at the live ring head and reports the jump through
//! `SubscribeOk.next_seq`, so everything missed while disconnected is
//! accounted in [`DataTally::ring_resume_gaps`] rather than silently
//! skipped (the server counts the same jump in `svc.ring.resume_gaps`).
//!
//! # Scraping
//!
//! [`ScrapeClient`] reads a live server's telemetry through `Stats` and
//! `Spans` frames on its serving port; [`find_counter`], [`find_gauge`]
//! and [`find_histogram`] pick values out of the snapshot it returns.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use vod_net::{Events, Interest, Poller};
use vod_obs::{HistogramSummary, LogHistogram};
use vod_ring::PayloadOracle;

use crate::session::lock_unpoisoned;
use crate::wire::{
    read_frame, write_frame, Frame, FrameDecoder, GrantedSegment, WireError, ARRIVAL_AUTO,
    PROTOCOL_VERSION, RESUME_NONE,
};

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent connections.
    pub conns: usize,
    /// Requests issued per connection.
    pub requests_per_conn: u64,
    /// Catalog size to spread connections over (connection `c` drives video
    /// `c % videos` unless [`mix`](Self::mix) overrides it).
    pub videos: u32,
    /// Explicit per-connection video mix: connection `c` drives video
    /// `mix[c % mix.len()]`. Lets a run weight a heterogeneous catalog
    /// (e.g. `[0, 0, 0, 2]` sends three quarters of the connections at
    /// video 0). `None` falls back to the round-robin `c % videos`.
    pub mix: Option<Vec<u32>>,
    /// Send a `Describe` for the connection's video after the handshake and
    /// record the reply.
    pub describe: bool,
    /// Closed-loop window: outstanding requests per connection.
    pub window: u64,
    /// `Some(rate)`: open loop at `rate` requests/second per connection
    /// (the window is ignored).
    pub open_rate: Option<f64>,
    /// Open-loop per-request due times: connection `c` fires request `i`
    /// at attempt start plus `pacing[c % pacing.len()][i]` (a schedule
    /// shorter than [`requests_per_conn`](Self::requests_per_conn) repeats
    /// its last gap). Takes precedence over [`open_rate`](Self::open_rate);
    /// this is how `vodload`'s seeded arrival shapes (ramp, flash crowd)
    /// reach the wire.
    pub pacing: Option<Arc<Vec<Vec<Duration>>>>,
    /// `Some(k)`: explicit arrival slots `0, k, 2k, …` per connection;
    /// `None`: stamp requests with the server's virtual clock.
    pub arrival_stride: Option<u64>,
    /// Keep every granted schedule (for equivalence checks); costs memory.
    pub collect_grants: bool,
    /// Reconnect attempts allowed per connection after the first (0 = give
    /// up on the first drop, the pre-resume behaviour).
    pub max_reconnects: u32,
    /// A connection with no inbound frame for this long is declared
    /// stalled (and retried or abandoned); also bounds handshake waits.
    pub read_timeout: Duration,
    /// First reconnect backoff; doubles per attempt, jittered ±50%.
    pub backoff_base: Duration,
    /// Reconnect backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed for backoff jitter (per-connection streams are derived from
    /// it; the schedule of *retries* need not be deterministic, only the
    /// server-side fault injection is).
    pub retry_seed: u64,
    /// Subscribe each connection to its video's broadcast channel and
    /// verify every delivered segment byte-for-byte against the
    /// deterministic store oracle (see the module docs). The first
    /// attempt subscribes before any request is sent; a reconnect
    /// re-subscribes and records the publications missed while
    /// disconnected in [`DataTally::ring_resume_gaps`].
    pub verify_bytes: bool,
    /// The store seed the verification oracle shares with the server
    /// ([`vod_ring::DEFAULT_STORE_SEED`] unless the operator picked one).
    pub store_seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            conns: 2,
            requests_per_conn: 50,
            videos: 2,
            mix: None,
            describe: false,
            window: 4,
            open_rate: None,
            pacing: None,
            arrival_stride: Some(1),
            collect_grants: false,
            max_reconnects: 2,
            read_timeout: Duration::from_secs(10),
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
            retry_seed: 0x0d15_ea5e,
            verify_bytes: false,
            store_seed: vod_ring::DEFAULT_STORE_SEED,
        }
    }
}

/// One granted schedule, as received on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct GrantRecord {
    /// Echoed sequence number.
    pub seq: u64,
    /// The arrival slot the server computed the schedule for.
    pub arrival_slot: u64,
    /// The granted instances, in segment order.
    pub segments: Vec<GrantedSegment>,
}

/// Aggregated result of a load run.
#[derive(Debug)]
pub struct LoadReport {
    /// Requests planned (`conns × requests_per_conn`); re-sends after a
    /// reconnect are not double-counted.
    pub requests: u64,
    /// Distinct requests granted.
    pub grants: u64,
    /// Distinct requests answered with `Rejected`.
    pub rejected: u64,
    /// `Draining` frames received.
    pub draining_seen: u64,
    /// Malformed or unexpected frames (should be zero).
    pub protocol_errors: u64,
    /// `VideoInfo` replies received (one per connection when
    /// [`LoadConfig::describe`] is set).
    pub video_infos: u64,
    /// Reconnect attempts made (successful or not).
    pub reconnects: u64,
    /// Reconnects whose `Resume` was accepted by the server.
    pub resumes_ok: u64,
    /// Answer frames the server replayed from session rings.
    pub replayed_grants: u64,
    /// Frames received for already-answered requests (replay overlap).
    pub duplicates: u64,
    /// Attempts abandoned because the connection went quiet for
    /// [`LoadConfig::read_timeout`].
    pub timeouts: u64,
    /// Connections that exhausted their reconnect budget with requests
    /// still unanswered.
    pub unrecoverable_conns: u64,
    /// Grant-gap distribution: at each resume, how many sent requests
    /// were still unanswered (the gap the replay must cover).
    pub resume_gaps: LogHistogram,
    /// Broadcast subscriptions established (one per connection attempt
    /// when [`LoadConfig::verify_bytes`] is set — reconnects
    /// re-subscribe).
    pub subscriptions: u64,
    /// Client-side data-plane verification tallies, summed over every
    /// connection's [`Reassembler`].
    pub data: DataTally,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Client-side request→grant latency (nanoseconds).
    pub latency: LogHistogram,
    /// Video driven by each connection.
    pub videos_by_conn: Vec<u32>,
    /// Grants per connection, in request-sequence order (empty unless
    /// `collect_grants`).
    pub grants_by_conn: Vec<Vec<GrantRecord>>,
}

impl LoadReport {
    /// Achieved grant throughput in requests/second.
    #[must_use]
    pub fn throughput_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.grants as f64 / secs
    }

    /// Achieved data-plane delivery rate in bytes/second (zero when the
    /// run did not subscribe).
    #[must_use]
    pub fn delivered_bytes_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.data.bytes_delivered as f64 / secs
    }

    /// A latency quantile in milliseconds (`None` when nothing completed).
    #[must_use]
    pub fn quantile_ms(&self, p: f64) -> Option<f64> {
        self.latency.quantile(p).map(|ns| ns as f64 / 1e6)
    }

    /// Human-readable summary.
    #[must_use]
    pub fn render(&self) -> String {
        let q = |p: f64| {
            self.quantile_ms(p)
                .map_or_else(|| "n/a".to_owned(), |ms| format!("{ms:.3} ms"))
        };
        let mut out = format!(
            "requests {}, grants {}, rejected {}, draining {}, protocol errors {}\n\
             elapsed {:.3} s, throughput {:.1} req/s\n\
             request→grant latency: p50 {}, p99 {}, p99.9 {}\n",
            self.requests,
            self.grants,
            self.rejected,
            self.draining_seen,
            self.protocol_errors,
            self.elapsed.as_secs_f64(),
            self.throughput_per_sec(),
            q(0.50),
            q(0.99),
            q(0.999),
        );
        if self.reconnects > 0 || self.timeouts > 0 || self.unrecoverable_conns > 0 {
            let gap = self
                .resume_gaps
                .quantile(1.0)
                .map_or_else(|| "n/a".to_owned(), |g| g.to_string());
            out.push_str(&format!(
                "reconnects {} (resumed {}, replayed {} grants), duplicates {}, \
                 timeouts {}, unrecoverable conns {}, max grant gap {}\n",
                self.reconnects,
                self.resumes_ok,
                self.replayed_grants,
                self.duplicates,
                self.timeouts,
                self.unrecoverable_conns,
                gap,
            ));
        }
        if self.subscriptions > 0 {
            out.push_str(&format!(
                "data plane: {} subs, {} bytes delivered ({:.0} B/s), \
                 {} segments verified, {} checksum mismatches, \
                 {} byte-deadline misses, {} gaps, {} chunk errors, \
                 {} missed at resume\n",
                self.subscriptions,
                self.data.bytes_delivered,
                self.delivered_bytes_per_sec(),
                self.data.segments_verified,
                self.data.checksum_mismatches,
                self.data.byte_deadline_misses,
                self.data.gaps,
                self.data.chunk_errors,
                self.data.ring_resume_gaps,
            ));
        }
        out
    }
}

/// Counters accumulated by a [`Reassembler`] — the client's half of the
/// delivered-bytes accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataTally {
    /// Payload bytes received in `SegmentData` chunks (header overhead
    /// excluded — this is the number that pairs with the server's
    /// `svc.bytes_delivered`).
    pub bytes_delivered: u64,
    /// Publications fully delivered and byte-identical to the store
    /// oracle.
    pub segments_verified: u64,
    /// Publications fully delivered with at least one byte that did NOT
    /// match the oracle — always zero unless the data plane is broken.
    /// (The name predates byte-wise verification; CI and `vodload`
    /// output key on it.)
    pub checksum_mismatches: u64,
    /// Segments granted to this connection that were not completely
    /// delivered by their playback deadline.
    pub byte_deadline_misses: u64,
    /// Publications this subscriber never received: channel-seq jumps
    /// (the server lapped/evicted the cursor) plus any publication left
    /// half-assembled at teardown.
    pub gaps: u64,
    /// Chunks violating the framing contract (offsets that do not tile,
    /// geometry changing mid-publication, stale sequences).
    pub chunk_errors: u64,
    /// Publications missed across reconnects: on each re-subscribe the
    /// server re-attaches the resumed session at the live ring head and
    /// reports the jump via `SubscribeOk.next_seq`; this is the summed
    /// jump (the client-side mirror of `svc.ring.resume_gaps`).
    pub ring_resume_gaps: u64,
}

impl DataTally {
    fn absorb(&mut self, other: &DataTally) {
        self.bytes_delivered += other.bytes_delivered;
        self.segments_verified += other.segments_verified;
        self.checksum_mismatches += other.checksum_mismatches;
        self.byte_deadline_misses += other.byte_deadline_misses;
        self.gaps += other.gaps;
        self.chunk_errors += other.chunk_errors;
        self.ring_resume_gaps += other.ring_resume_gaps;
    }
}

/// A publication mid-delivery: its identity, how many bytes have tiled
/// so far, and whether every one of them matched the oracle.
#[derive(Debug)]
struct Partial {
    channel_seq: u64,
    segment: u32,
    slot: u64,
    total_len: u64,
    oracle: PayloadOracle,
    received: u64,
    ok: bool,
}

/// Client-side reassembly and verification of one subscription's
/// `SegmentData` stream.
///
/// Chunks sharing a channel sequence must tile `0..total_len` in offset
/// order. Each chunk is compared in place, as it arrives, against the
/// [`PayloadOracle`] stream for the same `(seed, video, segment)` — byte
/// equality at the chunk's offset, nothing buffered. A publication
/// whose chunks tile exactly to `total_len` with every byte matching is
/// verified; one with any differing byte is a
/// [`DataTally::checksum_mismatches`]. Channel-seq jumps become
/// [`DataTally::gaps`]; framing violations (including a chunk that
/// would run past `total_len`) become [`DataTally::chunk_errors`].
///
/// Deadlines: [`Reassembler::on_grant`] records, for every granted
/// instance, the wall-clock instant its bytes must be complete by —
/// grant receipt plus `(air slot − arrival slot) × slot_ns`. A
/// publication that completed *before* its grant arrived trivially meets
/// the deadline; one still pending past its instant is a
/// [`DataTally::byte_deadline_misses`].
#[derive(Debug)]
pub struct Reassembler {
    seed: u64,
    video: u32,
    payload_len: u64,
    slot_ns: u64,
    expected_seq: u64,
    /// Whether a `SubscribeOk` has primed the geometry yet — a second one
    /// means a reconnect re-attached, and its `next_seq` jump is a resume
    /// gap rather than the initial cursor position.
    primed: bool,
    partial: Option<Partial>,
    /// Granted instances whose bytes have not finished arriving:
    /// `(segment, air_slot) → deadline`.
    deadlines: HashMap<(u32, u64), Instant>,
    /// Instances fully delivered, by completion instant — consulted when
    /// a grant referencing an already-delivered instance arrives late.
    completed: HashMap<(u32, u64), Instant>,
    tally: DataTally,
}

/// Slack added to the drain deadline so a chunk already in flight when
/// the last grant deadline expires still counts.
const DRAIN_GRACE: Duration = Duration::from_millis(25);

impl Reassembler {
    /// A reassembler for `video`, verifying against the deterministic
    /// store keyed by `seed`. Inert until [`on_subscribe_ok`] supplies
    /// the channel geometry.
    ///
    /// [`on_subscribe_ok`]: Reassembler::on_subscribe_ok
    #[must_use]
    pub fn new(seed: u64, video: u32) -> Self {
        Reassembler {
            seed,
            video,
            payload_len: 0,
            slot_ns: 0,
            expected_seq: 0,
            primed: false,
            partial: None,
            deadlines: HashMap::new(),
            completed: HashMap::new(),
            tally: DataTally::default(),
        }
    }

    /// Adopts the channel geometry from a `SubscribeOk`.
    ///
    /// The first call primes the cursor. A later call is a reconnect's
    /// re-subscription: the server re-attached the session at the live
    /// ring head, and the jump from the sequence this client expected to
    /// `next_seq` is everything it missed while disconnected — recorded
    /// in [`DataTally::ring_resume_gaps`], with any half-assembled
    /// publication abandoned as a gap (its remaining chunks are gone).
    pub fn on_subscribe_ok(&mut self, payload_len: u64, slot_ns: u64, next_seq: u64) {
        self.payload_len = payload_len;
        self.slot_ns = slot_ns;
        if self.primed {
            self.tally.ring_resume_gaps += next_seq.saturating_sub(self.expected_seq);
            if self.partial.take().is_some() {
                self.tally.gaps += 1;
            }
        }
        self.primed = true;
        self.expected_seq = next_seq;
    }

    /// Records the playback deadline of every instance in a grant
    /// received at `now`. Instances already fully delivered met their
    /// deadline by definition; shared instances keep the earliest
    /// deadline any grant imposed.
    pub fn on_grant(&mut self, arrival_slot: u64, segments: &[GrantedSegment], now: Instant) {
        for g in segments {
            let key = (g.segment, g.slot);
            if self.completed.contains_key(&key) {
                continue;
            }
            let slack_slots = g.slot.saturating_sub(arrival_slot);
            let slack = Duration::from_nanos(self.slot_ns.saturating_mul(slack_slots));
            let deadline = now + slack;
            self.deadlines
                .entry(key)
                .and_modify(|d| *d = (*d).min(deadline))
                .or_insert(deadline);
        }
    }

    /// Feeds one `SegmentData` chunk received at `now`.
    #[allow(clippy::too_many_arguments)]
    pub fn on_chunk(
        &mut self,
        segment: u32,
        slot: u64,
        channel_seq: u64,
        offset: u64,
        total_len: u64,
        bytes: &[u8],
        now: Instant,
    ) {
        self.tally.bytes_delivered += bytes.len() as u64;
        if let Some(p) = &self.partial {
            if p.channel_seq != channel_seq {
                // The server queues a publication's chunks all-or-nothing,
                // so a new seq mid-assembly means framing is broken.
                self.tally.chunk_errors += 1;
                self.partial = None;
            }
        }
        if self.partial.is_none() {
            if channel_seq < self.expected_seq {
                self.tally.chunk_errors += 1;
                return;
            }
            if channel_seq > self.expected_seq {
                // The ring lapped this subscriber: whole publications are
                // gone, and the server said so by skipping sequences.
                self.tally.gaps += channel_seq - self.expected_seq;
                self.expected_seq = channel_seq;
            }
            if offset != 0 {
                self.tally.chunk_errors += 1;
                return;
            }
            self.partial = Some(Partial {
                channel_seq,
                segment,
                slot,
                total_len,
                oracle: PayloadOracle::new(self.seed, self.video, segment),
                received: 0,
                ok: true,
            });
        }
        let p = self.partial.as_mut().expect("partial just ensured");
        if p.segment != segment
            || p.slot != slot
            || p.total_len != total_len
            || offset != p.received
            || bytes.len() as u64 > total_len - p.received
        {
            self.tally.chunk_errors += 1;
            self.partial = None;
            return;
        }
        p.ok &= p.oracle.matches(offset, bytes);
        p.received += bytes.len() as u64;
        if p.received < p.total_len {
            return;
        }
        let done = self.partial.take().expect("complete partial");
        self.expected_seq = done.channel_seq + 1;
        if done.ok {
            self.tally.segments_verified += 1;
        } else {
            self.tally.checksum_mismatches += 1;
        }
        let key = (done.segment, done.slot);
        if let Some(deadline) = self.deadlines.remove(&key) {
            if now > deadline {
                self.tally.byte_deadline_misses += 1;
            }
        }
        self.completed.insert(key, now);
    }

    /// Whether nothing is pending: no half-assembled publication and no
    /// granted instance still waiting for bytes.
    #[must_use]
    pub fn drained(&self) -> bool {
        self.partial.is_none() && self.deadlines.is_empty()
    }

    /// How long a drain is worth waiting: the latest pending deadline
    /// plus a small grace (`None` when no deadline is pending — the
    /// caller falls back to its quiet limit).
    #[must_use]
    pub fn drain_deadline(&self) -> Option<Instant> {
        self.deadlines.values().max().map(|d| *d + DRAIN_GRACE)
    }

    /// Final accounting at teardown: every instance still pending is a
    /// deadline miss (its bytes can no longer arrive), and a publication
    /// left half-assembled is a gap.
    pub fn finish(&mut self) {
        self.tally.byte_deadline_misses += self.deadlines.len() as u64;
        self.deadlines.clear();
        if self.partial.take().is_some() {
            self.tally.gaps += 1;
        }
    }

    /// The verification counters so far.
    #[must_use]
    pub fn tally(&self) -> DataTally {
        self.tally
    }
}

/// Terminal state of one answered request.
enum Answer {
    Grant(Option<GrantRecord>),
    Rejected,
}

/// Per-connection state shared between the sender and the attempt
/// receivers. Indexed by request seq; survives reconnects.
struct ConnState {
    answers: Vec<Option<Answer>>,
    answered: usize,
    sent_at: Vec<Option<Instant>>,
    latency: LogHistogram,
    duplicates: u64,
    draining_seen: u64,
    video_infos: u64,
    protocol_errors: u64,
    subscriptions: u64,
    reassembler: Option<Reassembler>,
}

impl ConnState {
    fn new(total: usize) -> ConnState {
        ConnState {
            answers: (0..total).map(|_| None).collect(),
            answered: 0,
            sent_at: vec![None; total],
            latency: LogHistogram::new(),
            duplicates: 0,
            draining_seen: 0,
            video_infos: 0,
            protocol_errors: 0,
            subscriptions: 0,
            reassembler: None,
        }
    }

    fn all_answered(&self) -> bool {
        self.answered == self.answers.len()
    }

    /// Highest seq such that every seq at or below it is answered
    /// ([`RESUME_NONE`] when request 0 is still outstanding).
    fn last_contiguous(&self) -> u64 {
        let mut last = RESUME_NONE;
        for (seq, answer) in self.answers.iter().enumerate() {
            if answer.is_none() {
                break;
            }
            last = seq as u64;
        }
        last
    }

    /// Requests sent at least once but not yet answered — the gap a
    /// resume's replay has to cover.
    fn unanswered_sent(&self) -> u64 {
        self.answers
            .iter()
            .zip(&self.sent_at)
            .filter(|(answer, sent)| answer.is_none() && sent.is_some())
            .count() as u64
    }

    fn record_answer(&mut self, seq: u64, answer: Answer) {
        let Some(slot) = self.answers.get_mut(seq as usize) else {
            self.protocol_errors += 1;
            return;
        };
        if slot.is_some() {
            self.duplicates += 1;
            return;
        }
        *slot = Some(answer);
        self.answered += 1;
        if let Some(at) = self.sent_at[seq as usize] {
            self.latency
                .record(u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

#[derive(Default)]
struct ConnOutcome {
    grants: u64,
    rejected: u64,
    draining_seen: u64,
    protocol_errors: u64,
    video_infos: u64,
    reconnects: u64,
    resumes_ok: u64,
    replayed_grants: u64,
    duplicates: u64,
    timeouts: u64,
    unrecoverable: bool,
    resume_gaps: LogHistogram,
    latency: LogHistogram,
    records: Vec<GrantRecord>,
    subscriptions: u64,
    data: DataTally,
}

/// Holds every connection at the line until all of them have subscribed
/// (or failed trying): no publication may air before every subscriber's
/// cursor is live, otherwise "every subscriber saw every publication"
/// cannot hold. Unlike [`std::sync::Barrier`] this cannot deadlock — a
/// thread that errors out still arrives, and waiters carry a timeout.
struct StartGate {
    remaining: Mutex<usize>,
    all_in: Condvar,
}

impl StartGate {
    fn new(parties: usize) -> StartGate {
        StartGate {
            remaining: Mutex::new(parties),
            all_in: Condvar::new(),
        }
    }

    /// Checks in and waits (up to `timeout`) for the rest of the field.
    fn arrive_and_wait(&self, timeout: Duration) {
        let mut left = lock_unpoisoned(&self.remaining);
        *left = left.saturating_sub(1);
        if *left == 0 {
            self.all_in.notify_all();
            return;
        }
        let _ = self
            .all_in
            .wait_timeout_while(left, timeout, |l| *l > 0)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }

    /// Checks in without waiting — the path for a connection that failed
    /// before reaching the line.
    fn abandon(&self) {
        let mut left = lock_unpoisoned(&self.remaining);
        *left = left.saturating_sub(1);
        if *left == 0 {
            self.all_in.notify_all();
        }
    }
}

/// Runs a load scenario against `addr` and aggregates the per-connection
/// outcomes.
///
/// # Errors
///
/// Fails only on first-attempt connect/handshake errors; once a
/// connection is established, drops, stalls, and resets are absorbed by
/// the retry machinery and reported in the [`LoadReport`] counters.
///
/// # Panics
///
/// Panics if a client thread itself panicked.
pub fn run_load(addr: SocketAddr, config: &LoadConfig) -> io::Result<LoadReport> {
    let started = Instant::now();
    let videos_by_conn: Vec<u32> = (0..config.conns)
        .map(|c| match &config.mix {
            Some(mix) if !mix.is_empty() => mix[c % mix.len()],
            _ => c as u32 % config.videos.max(1),
        })
        .collect();
    let gate = config
        .verify_bytes
        .then(|| Arc::new(StartGate::new(config.conns)));
    let mut handles = Vec::with_capacity(config.conns);
    for (index, &video) in videos_by_conn.iter().enumerate() {
        let cfg = config.clone();
        let gate = gate.clone();
        handles.push(std::thread::spawn(move || {
            drive_conn(addr, index, video, &cfg, gate.as_deref())
        }));
    }
    let mut report = LoadReport {
        requests: config.conns as u64 * config.requests_per_conn,
        grants: 0,
        rejected: 0,
        draining_seen: 0,
        protocol_errors: 0,
        video_infos: 0,
        reconnects: 0,
        resumes_ok: 0,
        replayed_grants: 0,
        duplicates: 0,
        timeouts: 0,
        unrecoverable_conns: 0,
        resume_gaps: LogHistogram::new(),
        subscriptions: 0,
        data: DataTally::default(),
        elapsed: Duration::ZERO,
        latency: LogHistogram::new(),
        videos_by_conn,
        grants_by_conn: Vec::with_capacity(config.conns),
    };
    let mut first_error = None;
    for handle in handles {
        match handle.join().expect("client thread panicked") {
            Ok(outcome) => {
                report.grants += outcome.grants;
                report.rejected += outcome.rejected;
                report.draining_seen += outcome.draining_seen;
                report.protocol_errors += outcome.protocol_errors;
                report.video_infos += outcome.video_infos;
                report.reconnects += outcome.reconnects;
                report.resumes_ok += outcome.resumes_ok;
                report.replayed_grants += outcome.replayed_grants;
                report.duplicates += outcome.duplicates;
                report.timeouts += outcome.timeouts;
                report.unrecoverable_conns += u64::from(outcome.unrecoverable);
                report.subscriptions += outcome.subscriptions;
                report.data.absorb(&outcome.data);
                report.resume_gaps.merge(&outcome.resume_gaps);
                report.latency.merge(&outcome.latency);
                report.grants_by_conn.push(outcome.records);
            }
            Err(e) => {
                first_error.get_or_insert(e);
                report.grants_by_conn.push(Vec::new());
            }
        }
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    report.elapsed = started.elapsed();
    Ok(report)
}

/// How long a scrape waits for its reply before giving up on the server.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(10);

/// A blocking telemetry scraper on the serving port: `vodtop`,
/// `vodload --telemetry-out` and [`fetch_stats`] all read the server
/// through it.
///
/// It never sends `Hello`, so the connection stays sessionless: a scrape
/// registers no session and takes no replay ring, and the event loop
/// answers its `Stats` and `Spans` as it decodes them, never behind a
/// shard's admission queue.
pub struct ScrapeClient {
    stream: TcpStream,
}

impl ScrapeClient {
    /// Connects to a serving address.
    ///
    /// # Errors
    ///
    /// Connection and socket-option failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ScrapeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(SCRAPE_TIMEOUT))?;
        Ok(ScrapeClient { stream })
    }

    /// Fetches one full telemetry snapshot (pretty JSON).
    ///
    /// # Errors
    ///
    /// Transport and codec failures, a server that stays silent for
    /// `SCRAPE_TIMEOUT` (10 s), or a reply that is not `StatsReply`.
    pub fn stats(&mut self) -> io::Result<String> {
        match self.ask(&Frame::Stats)? {
            Frame::StatsReply { json } => Ok(json),
            _ => Err(invalid_data("expected StatsReply")),
        }
    }

    /// Fetches the most recent `max` raw span records as JSONL.
    ///
    /// # Errors
    ///
    /// As [`ScrapeClient::stats`], for a reply that is not `SpansReply`.
    pub fn spans(&mut self, max: u32) -> io::Result<String> {
        match self.ask(&Frame::Spans { max })? {
            Frame::SpansReply { jsonl } => Ok(jsonl),
            _ => Err(invalid_data("expected SpansReply")),
        }
    }

    /// Sends `frame` and returns the first reply that is not a `Draining`
    /// notice.
    fn ask(&mut self, frame: &Frame) -> io::Result<Frame> {
        write_frame(&mut self.stream, frame)?;
        loop {
            match read_frame(&mut self.stream) {
                Ok(Some(Frame::Draining)) => {}
                Ok(Some(reply)) => return Ok(reply),
                Ok(None) => return Err(invalid_data("connection closed before the reply")),
                Err(WireError::Io(e)) => return Err(e),
                Err(e) => return Err(invalid_data(&e.to_string())),
            }
        }
    }
}

fn invalid_data(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_owned())
}

/// One-shot [`ScrapeClient::stats`]: connect, snapshot, disconnect.
///
/// # Errors
///
/// Any [`ScrapeClient`] failure.
pub fn fetch_stats(addr: SocketAddr) -> io::Result<String> {
    ScrapeClient::connect(addr)?.stats()
}

/// Finds the named histogram's summary in a registry snapshot produced by
/// `Registry::to_json_pretty`, as is or folded onto one line. A targeted
/// scan over the deterministic snapshot layout — not a general JSON parser.
#[must_use]
pub fn find_histogram(json: &str, name: &str) -> Option<HistogramSummary> {
    let obj = find_value(json, name)?;
    let obj = obj.strip_prefix('{')?;
    let body = &obj[..obj.find('}')?];
    Some(HistogramSummary {
        count: field_u64(body, "count")?,
        min: field_u64(body, "min")?,
        max: field_u64(body, "max")?,
        mean: field_f64(body, "mean")?,
        p50: field_u64(body, "p50")?,
        p90: field_u64(body, "p90")?,
        p99: field_u64(body, "p99")?,
    })
}

/// Finds the named counter's value in a registry snapshot.
#[must_use]
pub fn find_counter(json: &str, name: &str) -> Option<u64> {
    let v = find_value(json, name)?;
    parse_leading_u64(v)
}

/// Finds the named gauge's value in a registry snapshot.
#[must_use]
pub fn find_gauge(json: &str, name: &str) -> Option<f64> {
    let v = find_value(json, name)?;
    parse_leading_f64(v)
}

/// Locates `"name":` (optionally with a space after the colon) and returns
/// the remainder of the document starting at the value.
fn find_value<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let needle = format!("\"{name}\":");
    let at = json.find(&needle)?;
    Some(json[at + needle.len()..].trim_start())
}

fn field_u64(body: &str, field: &str) -> Option<u64> {
    parse_leading_u64(find_value(body, field)?)
}

fn field_f64(body: &str, field: &str) -> Option<f64> {
    parse_leading_f64(find_value(body, field)?)
}

fn parse_leading_u64(s: &str) -> Option<u64> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    s[..end].parse().ok()
}

fn parse_leading_f64(s: &str) -> Option<f64> {
    let end = s
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(s.len());
    s[..end].parse().ok()
}

/// What one frame read on the client side produced.
enum ClientRead {
    Frame(Frame),
    /// Deadline passed before a complete frame arrived.
    Idle,
    /// EOF, reset, or an unrecoverable socket error.
    Closed,
    /// A well-delivered but undecodable frame — a real protocol error.
    Malformed,
}

/// The read half of one client connection: a nonblocking stream, a poller
/// watching it, and an incremental [`FrameDecoder`]. Reads sleep in
/// `epoll_wait` bounded by the caller's exact deadline — no fixed poll
/// interval — and a partial frame simply stays buffered across calls, so a
/// deadline can never desynchronise the stream mid-frame.
struct ClientIo {
    stream: TcpStream,
    poller: Poller,
    events: Events,
    decoder: FrameDecoder,
}

impl ClientIo {
    fn connect(addr: SocketAddr) -> io::Result<(ClientIo, ClientWriter)> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = ClientWriter::new(stream.try_clone()?)?;
        stream.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(&stream, 0, Interest::READABLE)?;
        Ok((
            ClientIo {
                stream,
                poller,
                events: Events::with_capacity(4),
                decoder: FrameDecoder::new(),
            },
            writer,
        ))
    }

    /// Reads one frame, waiting on readiness until `deadline`.
    fn read_by(&mut self, deadline: Instant) -> ClientRead {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.decoder.next_frame() {
                Ok(Some(frame)) => return ClientRead::Frame(frame),
                Ok(None) => {}
                Err(_) => return ClientRead::Malformed,
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return ClientRead::Closed,
                Ok(n) => self.decoder.extend(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let Some(wait) = deadline.checked_duration_since(Instant::now()) else {
                        return ClientRead::Idle;
                    };
                    if self.poller.wait(&mut self.events, Some(wait)).is_err() {
                        return ClientRead::Closed;
                    }
                    if self.events.is_empty() {
                        return ClientRead::Idle;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return ClientRead::Closed,
            }
        }
    }
}

/// The write half: a cloned nonblocking fd plus a poller to wait out
/// `EAGAIN` (a full socket buffer blocks exactly like the old blocking
/// writes did, but wakes on writability instead of spinning).
struct ClientWriter {
    stream: TcpStream,
    poller: Poller,
    events: Events,
}

impl ClientWriter {
    fn new(stream: TcpStream) -> io::Result<ClientWriter> {
        let poller = Poller::new()?;
        poller.register(&stream, 0, Interest::WRITABLE)?;
        Ok(ClientWriter {
            stream,
            poller,
            events: Events::with_capacity(4),
        })
    }

    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        let bytes = frame.encode();
        let mut written = 0;
        while written < bytes.len() {
            match self.stream.write(&bytes[written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.poller.wait(&mut self.events, None)?;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Why an attempt's receiver stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttemptEnd {
    /// Every request is answered.
    Complete,
    /// The socket closed or reset.
    Dead,
    /// No frame for the configured read timeout.
    TimedOut,
}

fn drive_conn(
    addr: SocketAddr,
    index: usize,
    video: u32,
    config: &LoadConfig,
    gate: Option<&StartGate>,
) -> io::Result<ConnOutcome> {
    let total = config.requests_per_conn;
    let state = Arc::new(Mutex::new(ConnState::new(total as usize)));
    let mut outcome = ConnOutcome::default();
    let mut session: Option<u64> = None;
    let mut jitter = config
        .retry_seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index as u64 + 1));
    let schedule: Option<&[Duration]> = config
        .pacing
        .as_deref()
        .filter(|p| !p.is_empty())
        .map(|p| p[index % p.len()].as_slice());
    let mut attempt: u32 = 0;

    loop {
        attempt += 1;
        if attempt > 1 {
            outcome.reconnects += 1;
            std::thread::sleep(backoff_with_jitter(attempt - 1, config, &mut jitter));
        }
        let end = match run_attempt(
            addr,
            video,
            config,
            &state,
            &mut session,
            &mut outcome,
            attempt,
            if attempt == 1 { gate } else { None },
            schedule,
        ) {
            Ok(end) => end,
            Err(e) => {
                if attempt == 1 {
                    if let Some(gate) = gate {
                        gate.abandon();
                    }
                    return Err(e);
                }
                AttemptEnd::Dead
            }
        };
        if end == AttemptEnd::TimedOut {
            outcome.timeouts += 1;
        }
        let (done, draining) = {
            let s = lock_unpoisoned(&state);
            (s.all_answered(), s.draining_seen > 0)
        };
        if done || draining {
            // Complete, or the server is draining on purpose — nothing a
            // reconnect could recover.
            break;
        }
        if attempt > config.max_reconnects {
            outcome.unrecoverable = true;
            break;
        }
    }

    let mut s = lock_unpoisoned(&state);
    if let Some(mut r) = s.reassembler.take() {
        // Anything still pending can no longer arrive on any attempt.
        r.finish();
        outcome.data = r.tally();
    }
    outcome.subscriptions = s.subscriptions;
    outcome.draining_seen = s.draining_seen;
    outcome.protocol_errors += s.protocol_errors;
    outcome.video_infos = s.video_infos;
    outcome.duplicates = s.duplicates;
    outcome.latency = std::mem::replace(&mut s.latency, LogHistogram::new());
    for (seq, answer) in s.answers.iter_mut().enumerate() {
        match answer.take() {
            Some(Answer::Grant(record)) => {
                outcome.grants += 1;
                if let Some(record) = record {
                    debug_assert_eq!(record.seq, seq as u64);
                    outcome.records.push(record);
                }
            }
            Some(Answer::Rejected) => outcome.rejected += 1,
            None => {}
        }
    }
    Ok(outcome)
}

/// One connection attempt: connect, handshake (and resume), subscribe
/// when the run verifies bytes (every attempt — reconnects re-attach at
/// the ring head), re-send every unanswered request, wait for answers.
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    addr: SocketAddr,
    video: u32,
    config: &LoadConfig,
    state: &Arc<Mutex<ConnState>>,
    session: &mut Option<u64>,
    outcome: &mut ConnOutcome,
    attempt: u32,
    gate: Option<&StartGate>,
    schedule: Option<&[Duration]>,
) -> io::Result<AttemptEnd> {
    let (mut io, mut writer) = ClientIo::connect(addr)?;
    handshake(&mut io, &mut writer, config, state, session, outcome)?;
    if config.describe && attempt == 1 {
        writer.send(&Frame::Describe { seq: 0, video })?;
    }
    if config.verify_bytes {
        // Every attempt subscribes: a reconnect re-attaches the resumed
        // session at the live ring head, and the Reassembler books the
        // reported next_seq jump as a resume gap.
        subscribe(&mut io, &mut writer, video, config, state)?;
    }
    // Everything fallible is behind us: check in and wait for the whole
    // field, so no publication can air before every cursor is live.
    if let Some(gate) = gate {
        gate.arrive_and_wait(config.read_timeout);
    }

    let (done_tx, done_rx) = mpsc::channel::<()>();
    let recv_state = Arc::clone(state);
    let collect = config.collect_grants;
    let quiet_limit = config.read_timeout;
    // The reader half (decoder included — frames buffered during the
    // handshake stay with it) moves to the receiver thread.
    let receiver = std::thread::spawn(move || {
        receive_attempt(&mut io, &recv_state, &done_tx, collect, quiet_limit)
    });

    let start = Instant::now();
    let gap = config
        .open_rate
        .map(|rate| Duration::from_secs_f64(1.0 / rate.max(1e-9)));
    let mut sent = 0u64;
    let mut completions = 0u64;
    'send: for seq in 0..config.requests_per_conn {
        if lock_unpoisoned(state).answers[seq as usize].is_some() {
            continue; // answered on an earlier attempt
        }
        match (schedule, gap) {
            (Some(offsets), _) if !offsets.is_empty() => {
                // Open loop on a seeded shape: each request has its own
                // due offset; past the schedule's end, keep its last gap.
                let due = start
                    + offsets.get(seq as usize).copied().unwrap_or_else(|| {
                        let last = offsets[offsets.len() - 1];
                        let tail_gap = if offsets.len() >= 2 {
                            last.saturating_sub(offsets[offsets.len() - 2])
                        } else {
                            last
                        };
                        last + tail_gap
                            * u32::try_from(seq as usize + 1 - offsets.len()).unwrap_or(u32::MAX)
                    });
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
            }
            (_, Some(gap)) => {
                // Open loop: fire on schedule, ignore outstanding count.
                let due = start + gap * u32::try_from(seq).unwrap_or(u32::MAX);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
            }
            _ => {
                // Closed loop: block until the window has room. Answers
                // from replay also open the window — only the count of
                // in-flight sends matters for pacing.
                while sent.saturating_sub(completions) >= config.window.max(1) {
                    match done_rx.recv_timeout(config.read_timeout) {
                        Ok(()) => completions += 1,
                        Err(_) => break 'send, // receiver stalled or gone
                    }
                }
            }
        }
        let arrival_slot = config
            .arrival_stride
            .map_or(ARRIVAL_AUTO, |stride| seq * stride);
        lock_unpoisoned(state).sent_at[seq as usize] = Some(Instant::now());
        let frame = Frame::Request {
            seq,
            video,
            arrival_slot,
        };
        if writer.send(&frame).is_err() {
            break; // server went away; the receiver reports what landed
        }
        sent += 1;
    }
    // Wait for the stragglers: the receiver exits on its own once every
    // request is answered, the socket dies, or the quiet limit passes.
    let end = receiver.join().expect("receiver thread panicked");
    if end == AttemptEnd::Complete {
        let _ = writer.send(&Frame::Goodbye);
    }
    Ok(end)
}

/// Hello → Welcome, then Resume when an earlier attempt left a session.
fn handshake(
    io: &mut ClientIo,
    writer: &mut ClientWriter,
    config: &LoadConfig,
    state: &Arc<Mutex<ConnState>>,
    session: &mut Option<u64>,
    outcome: &mut ConnOutcome,
) -> io::Result<()> {
    let failed = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    writer.send(&Frame::Hello {
        version: PROTOCOL_VERSION,
    })?;
    let deadline = Instant::now() + config.read_timeout;
    let fresh_session = loop {
        match io.read_by(deadline) {
            ClientRead::Frame(Frame::Welcome { session, .. }) => break session,
            ClientRead::Frame(Frame::Draining) => {
                lock_unpoisoned(state).draining_seen += 1;
            }
            ClientRead::Frame(_) | ClientRead::Malformed => {
                return Err(failed("handshake failed: no Welcome"));
            }
            ClientRead::Idle => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "handshake timed out waiting for Welcome",
                ));
            }
            ClientRead::Closed => return Err(failed("connection closed during handshake")),
        }
    };
    let Some(old_session) = *session else {
        *session = Some(fresh_session);
        return Ok(());
    };

    // Reconnect: try to adopt the previous session and measure the gap
    // the replay has to cover.
    let (last_seen, gap) = {
        let s = lock_unpoisoned(state);
        (s.last_contiguous(), s.unanswered_sent())
    };
    writer.send(&Frame::Resume {
        session: old_session,
        last_seq_seen: last_seen,
    })?;
    loop {
        match io.read_by(deadline) {
            ClientRead::Frame(Frame::Resumed { replayed, .. }) => {
                outcome.resumes_ok += 1;
                outcome.replayed_grants += u64::from(replayed);
                outcome.resume_gaps.record(gap);
                return Ok(());
            }
            ClientRead::Frame(Frame::Rejected { seq, .. }) if seq == old_session => {
                // Session gone (server restarted or ring expired): carry
                // on under the fresh session; unanswered requests are
                // simply re-scheduled.
                *session = Some(fresh_session);
                return Ok(());
            }
            ClientRead::Frame(Frame::Draining) => {
                lock_unpoisoned(state).draining_seen += 1;
            }
            ClientRead::Frame(_) | ClientRead::Malformed => {
                return Err(failed("handshake failed: no Resumed"));
            }
            ClientRead::Idle => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "handshake timed out waiting for Resumed",
                ));
            }
            ClientRead::Closed => return Err(failed("connection closed during resume")),
        }
    }
}

/// Subscribe → SubscribeOk, priming the connection's [`Reassembler`]
/// with the channel geometry. Runs before any request is sent, so a
/// `Rejected` here can only answer the subscription.
fn subscribe(
    io: &mut ClientIo,
    writer: &mut ClientWriter,
    video: u32,
    config: &LoadConfig,
    state: &Arc<Mutex<ConnState>>,
) -> io::Result<()> {
    let failed = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    writer.send(&Frame::Subscribe { video })?;
    let deadline = Instant::now() + config.read_timeout;
    loop {
        match io.read_by(deadline) {
            ClientRead::Frame(Frame::SubscribeOk {
                video: echoed,
                payload_len,
                slot_ns,
                next_seq,
            }) if echoed == video => {
                let mut s = lock_unpoisoned(state);
                let r = s
                    .reassembler
                    .get_or_insert_with(|| Reassembler::new(config.store_seed, video));
                r.on_subscribe_ok(payload_len, slot_ns, next_seq);
                s.subscriptions += 1;
                return Ok(());
            }
            ClientRead::Frame(Frame::Rejected { seq, .. }) if seq == u64::from(video) => {
                return Err(failed("subscribe rejected"));
            }
            ClientRead::Frame(Frame::Draining) => {
                lock_unpoisoned(state).draining_seen += 1;
            }
            ClientRead::Frame(Frame::VideoInfo { .. }) => {
                lock_unpoisoned(state).video_infos += 1;
            }
            ClientRead::Frame(_) | ClientRead::Malformed => {
                return Err(failed("subscribe failed: no SubscribeOk"));
            }
            ClientRead::Idle => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "subscribe timed out waiting for SubscribeOk",
                ));
            }
            ClientRead::Closed => return Err(failed("connection closed during subscribe")),
        }
    }
}

fn receive_attempt(
    io: &mut ClientIo,
    state: &Mutex<ConnState>,
    done_tx: &mpsc::Sender<()>,
    collect: bool,
    quiet_limit: Duration,
) -> AttemptEnd {
    let mut quiet_since = Instant::now();
    loop {
        let (all_answered, drained, drain_by) = {
            let s = lock_unpoisoned(state);
            let drained = s.reassembler.as_ref().is_none_or(Reassembler::drained);
            let drain_by = s.reassembler.as_ref().and_then(Reassembler::drain_deadline);
            (s.all_answered(), drained, drain_by)
        };
        if all_answered && drained {
            return AttemptEnd::Complete;
        }
        // The wait is bounded by the exact quiet deadline: an idle wake
        // here means the attempt is stalled, not that a poll interval
        // elapsed. Once every request is answered, only the data-plane
        // drain remains, and its wait is bounded tighter — by the latest
        // granted-byte deadline still pending.
        let mut deadline = quiet_since + quiet_limit;
        if all_answered {
            if let Some(by) = drain_by {
                deadline = deadline.min(by);
            }
        }
        match io.read_by(deadline) {
            ClientRead::Frame(frame) => {
                quiet_since = Instant::now();
                let answered = {
                    let mut s = lock_unpoisoned(state);
                    match frame {
                        Frame::Grant {
                            seq,
                            arrival_slot,
                            segments,
                            ..
                        } => {
                            if let Some(r) = s.reassembler.as_mut() {
                                r.on_grant(arrival_slot, &segments, Instant::now());
                            }
                            let record = collect.then_some(GrantRecord {
                                seq,
                                arrival_slot,
                                segments,
                            });
                            s.record_answer(seq, Answer::Grant(record));
                            true
                        }
                        Frame::Rejected { seq, .. } => {
                            s.record_answer(seq, Answer::Rejected);
                            true
                        }
                        Frame::SegmentData {
                            segment,
                            slot,
                            channel_seq,
                            offset,
                            total_len,
                            bytes,
                            ..
                        } => {
                            if let Some(r) = s.reassembler.as_mut() {
                                r.on_chunk(
                                    segment,
                                    slot,
                                    channel_seq,
                                    offset,
                                    total_len,
                                    &bytes,
                                    Instant::now(),
                                );
                            } else {
                                // Data without a subscription is a bug.
                                s.protocol_errors += 1;
                            }
                            false
                        }
                        Frame::Draining => {
                            s.draining_seen += 1;
                            false
                        }
                        Frame::VideoInfo { .. } => {
                            s.video_infos += 1;
                            false
                        }
                        // Late handshake frames (a second Welcome, a
                        // Resumed racing the spawn, a duplicate
                        // SubscribeOk) are harmless.
                        Frame::Welcome { .. }
                        | Frame::Resumed { .. }
                        | Frame::SubscribeOk { .. }
                        | Frame::StatsReply { .. } => false,
                        _ => {
                            s.protocol_errors += 1;
                            false
                        }
                    }
                };
                if answered {
                    let _ = done_tx.send(());
                }
            }
            ClientRead::Idle => {
                if all_answered {
                    // The drain window closed: whatever is still pending
                    // can no longer make its deadline.
                    if let Some(r) = lock_unpoisoned(state).reassembler.as_mut() {
                        r.finish();
                    }
                    return AttemptEnd::Complete;
                }
                return AttemptEnd::TimedOut;
            }
            ClientRead::Closed => return AttemptEnd::Dead,
            ClientRead::Malformed => {
                lock_unpoisoned(state).protocol_errors += 1;
                return AttemptEnd::Dead;
            }
        }
    }
}

/// Exponential backoff with multiplicative jitter in `[0.5, 1.5)`.
fn backoff_with_jitter(retry: u32, config: &LoadConfig, jitter_state: &mut u64) -> Duration {
    let shift = retry.saturating_sub(1).min(16);
    let base = config
        .backoff_base
        .saturating_mul(1u32 << shift)
        .min(config.backoff_cap);
    let r = splitmix64(jitter_state);
    let scale = 0.5 + (r >> 11) as f64 / (1u64 << 53) as f64;
    base.mul_f64(scale).min(config.backoff_cap)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::GrantedSegment;
    use vod_ring::SegmentPayload;

    const SEED: u64 = 0xfeed_beef;

    fn oracle(video: u32, segment: u32, len: usize) -> SegmentPayload {
        SegmentPayload::synthesize(SEED, video, segment, len)
    }

    fn ready(video: u32, payload_len: u64, slot_ns: u64) -> Reassembler {
        let mut r = Reassembler::new(SEED, video);
        r.on_subscribe_ok(payload_len, slot_ns, 0);
        r
    }

    #[test]
    fn chunked_publication_reassembles_byte_identical() {
        let p = oracle(3, 2, 100);
        let mut r = ready(3, 100, 1_000_000);
        let now = Instant::now();
        r.on_chunk(2, 7, 0, 0, 100, &p.bytes()[..60], now);
        assert_eq!(r.tally().segments_verified, 0, "still partial");
        r.on_chunk(2, 7, 0, 60, 100, &p.bytes()[60..], now);
        let t = r.tally();
        assert_eq!(t.segments_verified, 1);
        assert_eq!(t.bytes_delivered, 100);
        assert_eq!(t.checksum_mismatches, 0);
        assert!(r.drained());
    }

    #[test]
    fn corrupted_bytes_are_a_checksum_mismatch() {
        let mut wrong = oracle(1, 1, 32).bytes().to_vec();
        wrong[5] ^= 0xff;
        let mut r = ready(1, 32, 1_000_000);
        r.on_chunk(1, 3, 0, 0, 32, &wrong, Instant::now());
        assert_eq!(r.tally().checksum_mismatches, 1);
        assert_eq!(r.tally().segments_verified, 0);
    }

    fn grant(segment: u32, slot: u64) -> [GrantedSegment; 1] {
        [GrantedSegment {
            segment,
            slot,
            shared: false,
        }]
    }

    #[test]
    fn corruption_in_a_later_chunk_is_one_mismatch_and_delivery_moves_on() {
        let p = oracle(1, 4, 100);
        let mut wrong = p.bytes().to_vec();
        wrong[77] ^= 0x10;
        let mut r = ready(1, 100, 1_000_000_000);
        let now = Instant::now();
        r.on_grant(3, &grant(4, 6), now);
        r.on_chunk(4, 6, 0, 0, 100, &wrong[..40], now);
        r.on_chunk(4, 6, 0, 40, 100, &wrong[40..], now);
        let t = r.tally();
        assert_eq!(t.checksum_mismatches, 1);
        assert_eq!(t.segments_verified, 0);
        assert_eq!(t.chunk_errors, 0);
        assert!(
            r.drained(),
            "the corrupted publication still completes its deadline"
        );
        // The sequence advanced: seq 1 is next, not a gap.
        r.on_chunk(4, 7, 1, 0, 100, p.bytes(), now);
        r.finish();
        let t = r.tally();
        assert_eq!(t.segments_verified, 1);
        assert_eq!(t.gaps, 0);
        assert_eq!(t.byte_deadline_misses, 0, "delivered on time, if wrong");
    }

    #[test]
    fn corruption_at_an_unaligned_chunk_offset_is_a_mismatch() {
        let p = oracle(2, 3, 64);
        // Chunk boundaries at 3, 13 and 29: none word-aligned.
        for corrupt in [3, 5, 12, 13, 28, 29, 63] {
            let mut wrong = p.bytes().to_vec();
            wrong[corrupt] ^= 0x01;
            let mut r = ready(2, 64, 1_000_000);
            let now = Instant::now();
            for (from, to) in [(0, 3), (3, 13), (13, 29), (29, 64)] {
                r.on_chunk(3, 1, 0, from as u64, 64, &wrong[from..to], now);
            }
            let t = r.tally();
            assert_eq!(t.checksum_mismatches, 1, "byte {corrupt}");
            assert_eq!(t.segments_verified, 0, "byte {corrupt}");
            assert_eq!(t.chunk_errors, 0, "byte {corrupt}");
        }
    }

    #[test]
    fn a_chunk_overrunning_total_len_is_a_chunk_error() {
        let long = oracle(0, 2, 40);
        let mut r = ready(0, 32, 1_000_000);
        let now = Instant::now();
        // A single chunk longer than the declared length...
        r.on_chunk(2, 5, 0, 0, 32, long.bytes(), now);
        // ...and a second chunk running past it.
        r.on_chunk(2, 6, 1, 0, 32, &long.bytes()[..24], now);
        r.on_chunk(2, 6, 1, 24, 32, &long.bytes()[24..], now);
        let t = r.tally();
        assert_eq!(t.chunk_errors, 2);
        assert_eq!(t.segments_verified, 0);
        assert_eq!(
            t.checksum_mismatches, 0,
            "never checked against an overrun oracle"
        );
        assert!(r.drained());
    }

    #[test]
    fn a_mismatch_does_not_taint_the_next_publication() {
        let p = oracle(5, 0, 48);
        let mut wrong = p.bytes().to_vec();
        wrong[0] ^= 0x80;
        let mut r = ready(5, 48, 1_000_000);
        let now = Instant::now();
        r.on_chunk(0, 2, 0, 0, 48, &wrong, now);
        r.on_chunk(0, 3, 1, 0, 48, &p.bytes()[..20], now);
        r.on_chunk(0, 3, 1, 20, 48, &p.bytes()[20..], now);
        let t = r.tally();
        assert_eq!(t.checksum_mismatches, 1);
        assert_eq!(t.segments_verified, 1);
    }

    #[test]
    fn sequence_jumps_count_missed_publications_as_gaps() {
        let p = oracle(0, 4, 16);
        let mut r = ready(0, 16, 1_000_000);
        // Seqs 0 and 1 never arrive; seq 2 does.
        r.on_chunk(4, 9, 2, 0, 16, p.bytes(), Instant::now());
        let t = r.tally();
        assert_eq!(t.gaps, 2);
        assert_eq!(t.segments_verified, 1);
    }

    #[test]
    fn resubscribe_books_the_head_jump_as_a_resume_gap() {
        let p = oracle(0, 2, 32);
        let mut r = ready(0, 32, 1_000_000);
        let now = Instant::now();
        // Seq 0 delivered whole, seq 1 left half-assembled at the drop.
        r.on_chunk(2, 3, 0, 0, 32, p.bytes(), now);
        r.on_chunk(2, 4, 1, 0, 32, &p.bytes()[..16], now);
        // Reconnect: the server re-attached at head seq 5 — seqs 1..4
        // (4 publications) aired unseen, and the partial can't complete.
        r.on_subscribe_ok(32, 1_000_000, 5);
        let t = r.tally();
        assert_eq!(t.ring_resume_gaps, 4);
        assert_eq!(t.gaps, 1, "abandoned partial is a gap");
        // Delivery continues cleanly from the new head.
        r.on_chunk(2, 9, 5, 0, 32, p.bytes(), now);
        assert_eq!(r.tally().segments_verified, 2);
        assert_eq!(r.tally().chunk_errors, 0);
    }

    #[test]
    fn first_subscribe_is_not_a_resume_gap() {
        let mut r = Reassembler::new(SEED, 1);
        // A late first attach (busy channel: head already at 7) primes the
        // cursor without booking a gap — nothing was ever promised to us.
        r.on_subscribe_ok(16, 1_000_000, 7);
        assert_eq!(r.tally().ring_resume_gaps, 0);
        assert_eq!(r.tally().gaps, 0);
    }

    #[test]
    fn offsets_that_do_not_tile_are_chunk_errors() {
        let p = oracle(0, 1, 64);
        let mut r = ready(0, 64, 1_000_000);
        let now = Instant::now();
        r.on_chunk(1, 2, 0, 0, 64, &p.bytes()[..32], now);
        r.on_chunk(1, 2, 0, 40, 64, &p.bytes()[40..], now); // hole at 32..40
        assert_eq!(r.tally().chunk_errors, 1);
        assert_eq!(r.tally().segments_verified, 0);
    }

    #[test]
    fn grant_after_delivery_meets_the_deadline() {
        let p = oracle(2, 1, 24);
        let mut r = ready(2, 24, 1_000_000);
        let now = Instant::now();
        r.on_chunk(1, 5, 0, 0, 24, p.bytes(), now);
        // The grant naming (segment 1, slot 5) lands after the bytes did.
        r.on_grant(
            4,
            &[GrantedSegment {
                segment: 1,
                slot: 5,
                shared: false,
            }],
            now + Duration::from_millis(1),
        );
        assert!(r.drained(), "already-delivered instances never go pending");
        r.finish();
        assert_eq!(r.tally().byte_deadline_misses, 0);
    }

    #[test]
    fn undelivered_grants_become_deadline_misses_at_finish() {
        let mut r = ready(2, 24, 1_000_000);
        r.on_grant(
            4,
            &[
                GrantedSegment {
                    segment: 1,
                    slot: 5,
                    shared: false,
                },
                GrantedSegment {
                    segment: 2,
                    slot: 6,
                    shared: true,
                },
            ],
            Instant::now(),
        );
        assert!(!r.drained());
        assert!(r.drain_deadline().is_some());
        r.finish();
        assert_eq!(r.tally().byte_deadline_misses, 2);
        assert!(r.drained());
    }

    #[test]
    fn late_delivery_past_the_deadline_is_a_miss() {
        let p = oracle(2, 1, 24);
        let mut r = ready(2, 24, 1_000_000); // 1 ms per slot
        let now = Instant::now();
        r.on_grant(
            4,
            &[GrantedSegment {
                segment: 1,
                slot: 5,
                shared: false,
            }],
            now,
        );
        // One slot of slack = 1 ms; the bytes land 5 ms later.
        r.on_chunk(1, 5, 0, 0, 24, p.bytes(), now + Duration::from_millis(5));
        let t = r.tally();
        assert_eq!(t.byte_deadline_misses, 1);
        assert_eq!(t.segments_verified, 1, "late bytes still verify");
        assert!(r.drained());
    }

    #[test]
    fn half_assembled_publication_at_teardown_is_a_gap() {
        let p = oracle(0, 1, 64);
        let mut r = ready(0, 64, 1_000_000);
        r.on_chunk(1, 2, 0, 0, 64, &p.bytes()[..32], Instant::now());
        assert!(!r.drained());
        r.finish();
        assert_eq!(r.tally().gaps, 1);
    }

    #[test]
    fn json_scan_helpers_read_both_snapshot_forms() {
        let mut r = vod_obs::Registry::new();
        r.inc("svc.grants", 42);
        r.set_gauge("svc.gauge.sessions_live", 8.5);
        for v in [100u64, 200, 400] {
            r.observe("svc.span.shard0.total_ns", v);
        }
        let pretty = r.to_json_pretty();
        // The one-line form `vodtop --snapshot-out` and `vodload
        // --telemetry-out` write.
        let one_line: String = pretty.lines().map(str::trim).collect();
        for json in [pretty, one_line] {
            assert_eq!(find_counter(&json, "svc.grants"), Some(42));
            assert_eq!(find_gauge(&json, "svc.gauge.sessions_live"), Some(8.5));
            let h = find_histogram(&json, "svc.span.shard0.total_ns").expect("histogram");
            assert_eq!(h.count, 3);
            assert_eq!(h.min, 100);
            assert_eq!(h.max, 400);
            assert!(h.p99 >= 400);
        }
        assert!(find_counter("{}", "absent").is_none());
        assert!(find_histogram("{\"histograms\":{}}", "absent").is_none());
    }
}

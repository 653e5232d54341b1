//! The live telemetry plane: request spans and gauges.
//!
//! [`Telemetry`] is the service-wide aggregation point the event loops
//! answer `Stats` and `Spans` frames from. It owns two things:
//!
//! - a [`SpanSink`] of request-lifecycle spans. Every admitted request gets
//!   a span id on its event loop; monotonic timestamps are taken at each
//!   pipeline handoff and the per-stage durations (`decode` →
//!   `admission_wait` → `schedule` → `writer_wait` → `flush`) are recorded
//!   when the loop finishes flushing the grant to the socket. On the
//!   event-loop core, `writer_wait` is the time an answer sat in its
//!   connection's outbound queue (enqueue by the shard → first write
//!   attempt) and `flush` is the time from that first write attempt until
//!   the frame's last byte entered the socket (chaos stalls included).
//!   Stages measure *disjoint* intervals of the request's lifetime, so
//!   per-record `sum(stages) ≤ total` holds by construction and the
//!   uncovered gap is thread-handoff time the loopback tests bound.
//! - per-shard gauge sources (admission-queue depth, scheduling lag behind
//!   the virtual slot clock, restart budget) and per-shard data-plane
//!   counters, fed by relaxed atomics from the hot paths.
//!
//! Counts are recorded once, as the cumulative [`ServiceStats`] counters.
//! [`Telemetry::snapshot_full`] folds them, the span histograms, the gauges
//! and session-ring occupancy into one registry stamped with
//! `svc.snapshot.mono_ns`, so a scraper computes any rate as the
//! difference of two snapshots' counters over the difference of their
//! stamps, and snapshots stay orderable across reconnects.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vod_obs::{Registry, SpanSink};

use crate::data::PublishOutcome;
use crate::session::{lock_unpoisoned, SessionRegistry};
use crate::stats::ServiceStats;
use crate::wire::Frame;

/// The request-lifecycle stage taxonomy, in pipeline order. Snapshot
/// histogram names follow `svc.span.shard{N}.{stage}_ns`, plus
/// `svc.span.shard{N}.total_ns` for the end-to-end distribution.
pub const SPAN_STAGES: &[&str] = &[
    "decode",
    "admission_wait",
    "schedule",
    "writer_wait",
    "flush",
];

/// Index of the `decode` stage in [`SPAN_STAGES`].
const STAGE_COUNT: usize = 5;

/// How many recent raw span records a `Spans` reply can carry. A full
/// ring of worst-case records renders well under `MAX_FRAME_LEN` (pinned
/// by a unit test below).
const SPAN_RECENT_CAP: usize = 1024;

/// The service-wide telemetry aggregation point.
pub(crate) struct Telemetry {
    origin: Instant,
    next_span: AtomicU64,
    spans: Mutex<SpanSink>,
    /// Requests sitting in each shard's admission queue right now, bounded
    /// by `queue_cap`.
    queue_depth: Vec<AtomicU64>,
    /// Latest observed scheduling lag per shard: how many slots the shard's
    /// virtual clock had already advanced past the arrival it was serving.
    clock_lag_slots: Vec<AtomicU64>,
    /// Supervised restarts each shard has consumed from its budget.
    restarts_used: Vec<AtomicU64>,
    max_restarts: u64,
    /// Per-shard data-plane counters, exported as
    /// `svc.ring.shard{N}.{published,fanout,evictions,gaps}`.
    ring: Vec<ShardRing>,
}

/// One shard's cumulative data-plane counters.
#[derive(Default)]
struct ShardRing {
    published: AtomicU64,
    fanout: AtomicU64,
    evictions: AtomicU64,
    gaps: AtomicU64,
}

impl Telemetry {
    pub(crate) fn new(shards: usize, max_restarts: u32) -> Telemetry {
        let shards = shards.max(1);
        Telemetry {
            origin: Instant::now(),
            next_span: AtomicU64::new(0),
            spans: Mutex::new(SpanSink::new(SPAN_STAGES, SPAN_RECENT_CAP)),
            queue_depth: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            clock_lag_slots: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            restarts_used: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            max_restarts: u64::from(max_restarts),
            ring: (0..shards).map(|_| ShardRing::default()).collect(),
        }
    }

    /// Monotonic nanoseconds since the service started.
    pub(crate) fn mono_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Allocates the next span id.
    pub(crate) fn next_span_id(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// Takes one of `shard`'s `cap` queue places; false when all are taken.
    pub(crate) fn queue_enter(&self, shard: usize, cap: usize) -> bool {
        self.queue_depth[shard % self.queue_depth.len()]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                (d < cap as u64).then_some(d + 1)
            })
            .is_ok()
    }

    pub(crate) fn queue_leave(&self, shard: usize) {
        let depth = &self.queue_depth[shard % self.queue_depth.len()];
        let _ = depth.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
            Some(d.saturating_sub(1))
        });
    }

    pub(crate) fn note_clock_lag(&self, shard: usize, lag_slots: u64) {
        self.clock_lag_slots[shard % self.clock_lag_slots.len()]
            .store(lag_slots, Ordering::Relaxed);
    }

    /// Accounts one shard's publish outcome in its per-shard ring counters.
    pub(crate) fn on_ring(&self, shard: usize, out: &PublishOutcome) {
        let ring = &self.ring[shard % self.ring.len()];
        ring.published.fetch_add(out.published, Ordering::Relaxed);
        ring.fanout.fetch_add(out.fanout, Ordering::Relaxed);
        ring.evictions.fetch_add(out.evictions, Ordering::Relaxed);
        ring.gaps.fetch_add(out.gaps, Ordering::Relaxed);
    }

    pub(crate) fn note_restarts(&self, shard: usize, used: u32) {
        self.restarts_used[shard % self.restarts_used.len()]
            .store(u64::from(used), Ordering::Relaxed);
    }

    fn record_span(&self, id: u64, shard: u32, stage_ns: &[u64; STAGE_COUNT], total_ns: u64) {
        let end = self.mono_ns();
        lock_unpoisoned(&self.spans).record(id, shard, stage_ns, total_ns, end);
    }

    /// The recent raw span records rendered as JSONL (the `SpansReply`).
    pub(crate) fn spans_jsonl(&self, max: usize) -> String {
        lock_unpoisoned(&self.spans).render_recent_jsonl(max)
    }

    /// The full telemetry snapshot: cumulative service counters, span
    /// histograms, gauges, and the monotonic snapshot stamp.
    pub(crate) fn snapshot_full(
        &self,
        stats: &ServiceStats,
        sessions: &SessionRegistry,
    ) -> Registry {
        let mut r = stats.snapshot();
        lock_unpoisoned(&self.spans).export_into(&mut r, "svc.span", "shard");
        for shard in 0..self.queue_depth.len() {
            r.set_gauge(
                &format!("svc.gauge.shard{shard}.queue_depth"),
                self.queue_depth[shard].load(Ordering::Relaxed) as f64,
            );
            r.set_gauge(
                &format!("svc.gauge.shard{shard}.clock_lag_slots"),
                self.clock_lag_slots[shard].load(Ordering::Relaxed) as f64,
            );
            let used = self.restarts_used[shard].load(Ordering::Relaxed);
            r.set_gauge(
                &format!("svc.gauge.shard{shard}.restart_budget_left"),
                self.max_restarts.saturating_sub(used) as f64,
            );
            let ring = &self.ring[shard];
            *r.ensure_counter(&format!("svc.ring.shard{shard}.published")) =
                ring.published.load(Ordering::Relaxed);
            *r.ensure_counter(&format!("svc.ring.shard{shard}.fanout")) =
                ring.fanout.load(Ordering::Relaxed);
            *r.ensure_counter(&format!("svc.ring.shard{shard}.evictions")) =
                ring.evictions.load(Ordering::Relaxed);
            *r.ensure_counter(&format!("svc.ring.shard{shard}.gaps")) =
                ring.gaps.load(Ordering::Relaxed);
        }
        let (live, ring_frames) = sessions.occupancy();
        r.set_gauge("svc.gauge.sessions_live", live as f64);
        r.set_gauge("svc.gauge.replay_ring_frames", ring_frames as f64);
        // The staleness stamp and rate denominator: strictly increasing
        // across snapshots from one service instance, so saved artifacts
        // are orderable even across client reconnects.
        *r.ensure_counter("svc.snapshot.mono_ns") = self.mono_ns();
        r
    }
}

/// Span state minted by the reader when it admits a request: the id, the
/// decode-start instant (span origin), and the measured decode duration.
/// Rides inside `ShardRequest`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanStart {
    pub id: u64,
    /// The instant the frame's first payload byte was available — the
    /// span's time origin.
    pub started: Instant,
    /// Payload read + decode duration.
    pub decode_ns: u64,
}

/// A span between shard receipt and grant delivery: admission wait is
/// settled, the schedule stage is running.
pub(crate) struct PendingSpan {
    telemetry: Arc<Telemetry>,
    id: u64,
    shard: u32,
    started: Instant,
    decode_ns: u64,
    admission_ns: u64,
    schedule_start: Instant,
}

impl PendingSpan {
    /// Called at shard receipt: closes the admission-wait stage and starts
    /// the schedule stage. Admission wait is measured from where the decode
    /// stage *ends* — not from the reader's enqueue stamp — so the stages
    /// tile the request's lifetime with no unattributed gap (the reader's
    /// session-admit bookkeeping between decode and enqueue counts as
    /// admission wait, which is what it is to the client).
    pub(crate) fn begin(telemetry: Arc<Telemetry>, start: SpanStart, shard: u32) -> PendingSpan {
        let now = Instant::now();
        let decode_end = start
            .started
            .checked_add(Duration::from_nanos(start.decode_ns))
            .unwrap_or(start.started);
        PendingSpan {
            telemetry,
            id: start.id,
            shard,
            started: start.started,
            decode_ns: start.decode_ns,
            admission_ns: dur_ns(now.saturating_duration_since(decode_end)),
            schedule_start: now,
        }
    }

    /// Called when the shard hands the answer to the writer queue: closes
    /// the schedule stage and opens the writer-wait stage.
    pub(crate) fn into_carrier(self) -> SpanCarrier {
        let now = Instant::now();
        SpanCarrier {
            telemetry: self.telemetry,
            id: self.id,
            shard: self.shard,
            started: self.started,
            decode_ns: self.decode_ns,
            admission_ns: self.admission_ns,
            schedule_ns: dur_ns(now.saturating_duration_since(self.schedule_start)),
            sent_at: now,
        }
    }
}

/// The span state that rides the outbound queue to the owning event loop,
/// which closes the final two stages (queue wait, wire flush) and records
/// the span when the frame's last byte reaches the socket.
pub(crate) struct SpanCarrier {
    telemetry: Arc<Telemetry>,
    id: u64,
    shard: u32,
    started: Instant,
    decode_ns: u64,
    admission_ns: u64,
    schedule_ns: u64,
    /// When the shard enqueued the answer (writer-wait origin).
    pub(crate) sent_at: Instant,
}

impl SpanCarrier {
    /// Records the finished span. `writer_wait_ns` is the first write
    /// attempt minus [`sent_at`](SpanCarrier::sent_at) — pure queue time;
    /// `flush_ns` spans the write attempts until the frame's last byte is
    /// in the socket (chaos stalls included — a stalled flush *is* flush
    /// latency).
    pub(crate) fn finish(self, writer_wait_ns: u64, flush_ns: u64) {
        let total_ns = dur_ns(self.started.elapsed());
        self.telemetry.record_span(
            self.id,
            self.shard,
            &[
                self.decode_ns,
                self.admission_ns,
                self.schedule_ns,
                writer_wait_ns,
                flush_ns,
            ],
            total_ns,
        );
    }
}

/// What connection writers consume: the frame plus the span riding it, if
/// any. Control frames and session replays travel span-less.
pub(crate) struct Outbound {
    pub frame: Frame,
    pub span: Option<SpanCarrier>,
}

impl Outbound {
    pub(crate) fn plain(frame: Frame) -> Outbound {
        Outbound { frame, span: None }
    }
}

impl From<Frame> for Outbound {
    fn from(frame: Frame) -> Outbound {
        Outbound::plain(frame)
    }
}

pub(crate) fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_carries_spans_gauges_and_stamp() {
        let t = Telemetry::new(2, 3);
        let stats = ServiceStats::default();
        let sessions = SessionRegistry::default();
        assert!(t.queue_enter(1, 1));
        assert!(!t.queue_enter(1, 1), "the cap bounds the depth");
        t.note_clock_lag(0, 2);
        t.note_restarts(1, 1);
        t.record_span(0, 1, &[10, 20, 30, 40, 50], 200);
        let r = t.snapshot_full(&stats, &sessions);
        let total = r.histogram_summary("svc.span.shard1.total_ns").unwrap();
        assert_eq!(total.count, 1);
        assert_eq!(
            r.histogram_summary("svc.span.shard1.schedule_ns")
                .unwrap()
                .max,
            30
        );
        assert_eq!(r.gauge("svc.gauge.shard1.queue_depth"), Some(1.0));
        assert_eq!(r.gauge("svc.gauge.shard0.clock_lag_slots"), Some(2.0));
        assert_eq!(r.gauge("svc.gauge.shard1.restart_budget_left"), Some(2.0));
        assert_eq!(r.gauge("svc.gauge.sessions_live"), Some(0.0));
        assert!(r.counter("svc.snapshot.mono_ns") > 0);
    }

    #[test]
    fn ring_outcomes_reach_per_shard_counters() {
        let t = Telemetry::new(2, 0);
        let stats = ServiceStats::default();
        let sessions = SessionRegistry::default();
        t.on_ring(
            1,
            &PublishOutcome {
                published: 2,
                fanout: 64,
                bytes: 8_192,
                evictions: 3,
                gaps: 1,
            },
        );
        let r = t.snapshot_full(&stats, &sessions);
        assert_eq!(r.counter("svc.ring.shard1.published"), 2);
        assert_eq!(r.counter("svc.ring.shard1.fanout"), 64);
        assert_eq!(r.counter("svc.ring.shard1.evictions"), 3);
        assert_eq!(r.counter("svc.ring.shard1.gaps"), 1);
        assert_eq!(r.counter("svc.ring.shard0.published"), 0);
    }

    #[test]
    fn snapshot_stamps_are_monotonic() {
        let t = Telemetry::new(1, 3);
        let stats = ServiceStats::default();
        let sessions = SessionRegistry::default();
        let a = t.snapshot_full(&stats, &sessions);
        std::thread::sleep(Duration::from_millis(12));
        let b = t.snapshot_full(&stats, &sessions);
        assert!(b.counter("svc.snapshot.mono_ns") > a.counter("svc.snapshot.mono_ns"));
    }

    #[test]
    fn queue_depth_never_underflows() {
        let t = Telemetry::new(1, 0);
        t.queue_leave(0);
        assert!(t.queue_enter(0, 4));
        t.queue_leave(0);
        t.queue_leave(0);
        let stats = ServiceStats::default();
        let sessions = SessionRegistry::default();
        let r = t.snapshot_full(&stats, &sessions);
        assert_eq!(r.gauge("svc.gauge.shard0.queue_depth"), Some(0.0));
    }

    #[test]
    fn span_stages_sum_within_total() {
        let t = Arc::new(Telemetry::new(1, 0));
        let start = SpanStart {
            id: t.next_span_id(),
            started: Instant::now(),
            decode_ns: 100,
        };
        let pending = PendingSpan::begin(Arc::clone(&t), start, 0);
        let carrier = pending.into_carrier();
        let wait = dur_ns(carrier.sent_at.elapsed());
        carrier.finish(wait, 10);
        let stats = ServiceStats::default();
        let sessions = SessionRegistry::default();
        let r = t.snapshot_full(&stats, &sessions);
        let total = r.histogram_summary("svc.span.shard0.total_ns").unwrap();
        assert_eq!(total.count, 1);
        // decode_ns was fabricated (100ns) but still small against total;
        // the real guarantee (disjoint stages) is asserted end-to-end in
        // the loopback telemetry test.
        assert!(r.histogram_summary("svc.span.shard0.flush_ns").unwrap().max == 10);
    }

    #[test]
    fn a_full_ring_of_worst_case_spans_fits_one_frame() {
        let t = Telemetry::new(1, 0);
        {
            let mut spans = lock_unpoisoned(&t.spans);
            for _ in 0..SPAN_RECENT_CAP {
                spans.record(
                    u64::MAX,
                    u32::MAX,
                    &[u64::MAX; STAGE_COUNT],
                    u64::MAX,
                    u64::MAX,
                );
            }
        }
        let jsonl = t.spans_jsonl(u32::MAX as usize);
        assert_eq!(jsonl.lines().count(), SPAN_RECENT_CAP);
        let payload = Frame::SpansReply { jsonl }.encode_payload();
        assert!(
            payload.len() <= crate::wire::MAX_FRAME_LEN,
            "{} bytes exceed the frame cap",
            payload.len()
        );
    }
}

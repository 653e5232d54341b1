//! Supervised scheduler shards, run inline on the event loops.
//!
//! Shard `s` owns the schedulers of the videos routed to it (`video %
//! shards == s`) and lives on event loop `s % io_threads` as a
//! [`ShardWorker`], so no scheduler is ever shared between threads. The
//! loop appends admitted requests to the shard's FIFO (requests read on
//! another loop arrive through its inbox) and runs the FIFO after each
//! event batch: a grant is decoded, scheduled, encoded and written on one
//! thread. The schedulers are protocol-generic [`SlotScheduler`] trait
//! objects built by the serving catalog — fixed-rate DHB, dynamic-NPB
//! grants, and DHB-d period vectors all run through the same code.
//! Admission is bounded by the shard's `queue_depth` gauge (`queue_cap`);
//! the overflow is answered `Rejected(queue_full)`.
//!
//! # Supervision
//!
//! Scheduling runs inside `catch_unwind`, so a panicking scheduler (or an
//! injected chaos panic) never takes its loop down. The supervisor keeps
//! a compact **state journal** per shard — every scheduled `(video,
//! arrival)` pair in order, plus each video's ring cursor — and on panic
//! it rebuilds fresh schedulers from the catalog entries and replays the
//! journal, resuming on the *same* [`SlotClock`] so virtual time never
//! jumps. Restarts back off exponentially (capped) and are counted; the
//! backoff never sleeps the loop — the shard leaves its FIFO queued until
//! the backoff instant, which the loop folds into its poll timeout. Once
//! the restart budget is spent the shard flips its `down` flag and every
//! request routed to it is shed as `Rejected(shard_down)` instead of
//! hanging. The journal is bounded: while history fits the cap a rebuild
//! is *exact* (byte-identical grants afterwards); past the cap the oldest
//! entries are dropped (counted in `svc.shard.journal_truncated`) and the
//! rebuilt schedule is approximate but still deadline-clean — the
//! timeliness audit keeps running either way. Delivery never blocks: an
//! answer is pushed onto the connection's outbound queue and its loop is
//! woken to flush it.
//!
//! Determinism: a request carries either an explicit arrival slot or the
//! [`ARRIVAL_AUTO`](crate::wire::ARRIVAL_AUTO) sentinel resolved against the
//! video's own virtual [`SlotClock`] (heterogeneous catalogs have one clock
//! per video — a 10-second-segment entry and a 60-second DHB-d entry tick
//! at different real-time rates under the same dilation). The shard
//! advances the scheduler's ring to the arrival slot exactly like the
//! offline engines do (pop every earlier slot), then calls
//! `schedule_request` — so for a fixed arrival-slot sequence the grants are
//! byte-identical to an offline run, regardless of wall-clock timing, shard
//! count, loop count, dilation, or how many supervised restarts happened in
//! between.
//!
//! Every grant is audited on the way out: each instance must land in the
//! window `arrival < slot ≤ arrival + T[j]`. Violations increment
//! `svc.audit.deadline_misses` — the live-service counterpart of the
//! offline `TimelinessAuditor`, and the counter the CI catalog and chaos
//! smokes assert stays zero.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dhb_core::SlotScheduler;
use vod_obs::{Event, Journal, RejectKind};
use vod_server::ServeEntry;
use vod_types::Slot;

use crate::chaos::ChaosPlan;
use crate::clock::SlotClock;
use crate::data::{DataPlane, PublishOutcome};
use crate::eventloop::ConnSender;
use crate::session::Session;
use crate::stats::ServiceStats;
use crate::telemetry::{Outbound, PendingSpan, SpanCarrier, SpanStart, Telemetry};
use crate::wire::{Frame, GrantedSegment, ARRIVAL_AUTO};

/// Where a shard's answer goes.
pub(crate) enum ReplyTo {
    /// A raw (Hello-less) connection: straight to its outbound queue.
    Direct(ConnSender),
    /// A sessioned connection: ring-buffered for resume, then delivered.
    /// `submitter` is the outbound queue of the connection that submitted
    /// the request; after delivery its in-flight count is decremented so a
    /// graceful close knows every submitted answer has landed, even when
    /// the session has since resumed onto a different connection.
    Session {
        session: Arc<Session>,
        submitter: ConnSender,
    },
}

impl ReplyTo {
    /// Never blocks. A vanished connection is fine — a closed queue
    /// discards sends, and a session keeps the answer in its ring for
    /// replay after resume.
    fn deliver(&self, seq: u64, frame: Frame, span: Option<SpanCarrier>) {
        match self {
            ReplyTo::Direct(tx) => {
                tx.send(Outbound { frame, span });
                tx.inflight_done();
            }
            ReplyTo::Session { session, submitter } => {
                session.deliver(seq, frame, span);
                submitter.inflight_done();
            }
        }
    }
}

/// An admitted client request on its way to the shard that owns its
/// video.
pub(crate) struct ShardRequest {
    /// The owning shard (`video % shards`).
    pub shard: usize,
    /// The submitting connection (journaled with shard-side sheds).
    pub conn: u64,
    /// Echoed sequence number.
    pub seq: u64,
    /// Target video (pre-validated by the reader).
    pub video: u32,
    /// Explicit arrival slot or [`ARRIVAL_AUTO`].
    pub arrival_slot: u64,
    /// The owning connection's reply route.
    pub reply: ReplyTo,
    /// The request's lifecycle span, minted by the reader at decode.
    pub span: Option<SpanStart>,
}

/// One video owned by a shard: its scheduler, the catalog entry it was
/// built from (kept so the supervisor can rebuild after a panic), and its
/// own slot clock.
pub(crate) struct ShardVideo {
    pub id: u32,
    pub entry: ServeEntry,
    pub scheduler: Box<dyn SlotScheduler + Send>,
    pub clock: Arc<SlotClock>,
}

/// Restart policy for one supervised shard.
#[derive(Debug, Clone)]
pub(crate) struct RestartPolicy {
    /// Restarts allowed before the shard is disabled.
    pub max_restarts: u32,
    /// First-restart backoff; doubles per restart.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// State-journal entry cap (per shard).
    pub journal_cap: usize,
}

pub(crate) struct ShardConfig {
    pub id: usize,
    pub stats: Arc<ServiceStats>,
    /// Test knob: minimum time spent per request, to make overload and
    /// drain scenarios deterministic in tests. Zero in production. Paced
    /// like the restart backoff, so it never sleeps the loop.
    pub min_service_time: Duration,
    pub journal: Journal,
    pub chaos: Arc<ChaosPlan>,
    pub telemetry: Arc<Telemetry>,
    /// The broadcast data plane: every newly scheduled instance is
    /// published into its channel ring and fanned out to subscribers.
    pub data: Arc<DataPlane>,
    pub policy: RestartPolicy,
    /// Flipped once the restart budget is spent; readers then shed this
    /// shard's videos at admission instead of queueing into a dead end.
    pub down: Arc<AtomicBool>,
}

/// A request the shard has taken off its FIFO but not yet answered.
struct Job {
    req: ShardRequest,
    span: Option<PendingSpan>,
    /// Panics this request has caused so far.
    attempts: u32,
}

/// One supervised shard, owned and run by a single event loop.
pub(crate) struct ShardWorker {
    config: ShardConfig,
    videos: HashMap<u32, ShardVideo>,
    state: StateJournal,
    restarts: u32,
    /// Admitted requests in arrival order; their count is the shard's
    /// `queue_depth` gauge, which bounds admission.
    fifo: VecDeque<ShardRequest>,
    /// The request in service: waiting out `min_service_time`, or to be
    /// retried after a restart.
    current: Option<Job>,
    /// The shard serves nothing before this instant: a restart backoff or
    /// the service-time pacing. The loop folds it into its poll timeout.
    not_before: Option<Instant>,
}

impl ShardWorker {
    pub(crate) fn new(config: ShardConfig, videos: Vec<ShardVideo>) -> ShardWorker {
        let state = StateJournal::new(config.policy.journal_cap);
        ShardWorker {
            config,
            videos: videos.into_iter().map(|v| (v.id, v)).collect(),
            state,
            restarts: 0,
            fifo: VecDeque::new(),
            current: None,
            not_before: None,
        }
    }

    /// Queues an admitted request (its `queue_depth` slot is already
    /// taken).
    pub(crate) fn enqueue(&mut self, req: ShardRequest) {
        self.fifo.push_back(req);
    }

    /// No request queued or in service.
    pub(crate) fn is_idle(&self) -> bool {
        self.fifo.is_empty() && self.current.is_none()
    }

    /// When [`ShardWorker::run`] next has work it is waiting to do, if it
    /// is waiting at all.
    pub(crate) fn wake_at(&self) -> Option<Instant> {
        self.not_before.filter(|_| !self.is_idle())
    }

    /// Serves queued requests until the FIFO is empty or the shard must
    /// wait (a restart backoff or service-time pacing).
    pub(crate) fn run(&mut self) {
        loop {
            if self.not_before.is_some_and(|until| Instant::now() < until) {
                return;
            }
            self.not_before = None;
            if let Some(job) = self.current.take() {
                self.serve(job);
                continue;
            }
            let Some(req) = self.fifo.pop_front() else {
                return;
            };
            // The admission-wait stage ends here: the request left the queue
            // and the schedule stage begins.
            let (id, telemetry) = (self.config.id, &self.config.telemetry);
            telemetry.queue_leave(id);
            let job = Job {
                span: req
                    .span
                    .map(|start| PendingSpan::begin(Arc::clone(telemetry), start, id as u32)),
                req,
                attempts: 0,
            };
            if self.config.down.load(Ordering::Acquire) {
                self.shed(&job.req);
            } else if self.config.min_service_time.is_zero() {
                self.serve(job);
            } else {
                self.not_before = Some(Instant::now() + self.config.min_service_time);
                self.current = Some(job);
            }
        }
    }

    /// Schedules and answers one request under `catch_unwind`. A panic
    /// rebuilds the schedulers at once and parks the request for one retry
    /// after the restart backoff.
    fn serve(&mut self, mut job: Job) {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle_request(
                &self.config,
                &mut self.videos,
                &mut self.state,
                &job.req,
                &mut job.span,
            );
        }));
        if outcome.is_ok() {
            return;
        }
        let config = &self.config;
        job.attempts += 1;
        self.restarts += 1;
        config.stats.shard_panics.fetch_add(1, Ordering::Relaxed);
        config.telemetry.note_restarts(config.id, self.restarts);
        let shard = config.id as u64;
        let restarts = u64::from(self.restarts);
        config
            .journal
            .emit_with(|| Event::ShardPanicked { shard, restarts });
        if self.restarts > config.policy.max_restarts {
            config.down.store(true, Ordering::Release);
            config.stats.shards_down.fetch_add(1, Ordering::Relaxed);
            config.journal.emit_with(|| Event::ShardDisabled { shard });
            self.shed(&job.req);
            return;
        }
        let backoff = backoff_for(self.restarts, &config.policy);
        let replayed = rebuild(&mut self.videos, &self.state);
        config.stats.shard_restarts.fetch_add(1, Ordering::Relaxed);
        config.journal.emit_with(|| Event::ShardRestarted {
            shard,
            replayed,
            backoff_ms: u64::try_from(backoff.as_millis()).unwrap_or(u64::MAX),
        });
        self.not_before = Some(Instant::now() + backoff);
        if job.attempts > 1 {
            // The same request panicked again after a clean rebuild: shed
            // it and keep the shard alive for everyone else.
            self.shed(&job.req);
        } else {
            self.current = Some(job);
        }
    }

    /// Answers a request the shard cannot serve with `Rejected(shard_down)`.
    fn shed(&self, req: &ShardRequest) {
        let config = &self.config;
        config.stats.count_rejection(RejectKind::ShardDown);
        config.journal.emit_with(|| Event::RequestRejected {
            conn: req.conn,
            request: req.seq,
            reason: RejectKind::ShardDown,
        });
        req.reply.deliver(
            req.seq,
            Frame::Rejected {
                seq: req.seq,
                reason: RejectKind::ShardDown,
            },
            None,
        );
    }
}

/// The compact per-shard state journal a supervisor rebuild replays:
/// scheduled `(video, arrival)` pairs in order, plus each video's ring
/// cursor.
struct StateJournal {
    /// Scheduled arrivals in application order, bounded by `cap`.
    entries: VecDeque<(u32, u64)>,
    /// Highest arrival each video's ring has advanced to.
    cursors: HashMap<u32, u64>,
    cap: usize,
}

impl StateJournal {
    fn new(cap: usize) -> StateJournal {
        StateJournal {
            entries: VecDeque::new(),
            cursors: HashMap::new(),
            cap: cap.max(1),
        }
    }

    /// Records one scheduled arrival; returns true if an old entry was
    /// truncated to stay within the cap.
    fn record(&mut self, video: u32, arrival: u64) -> bool {
        let truncated = self.entries.len() == self.cap;
        if truncated {
            self.entries.pop_front();
        }
        self.entries.push_back((video, arrival));
        let cursor = self.cursors.entry(video).or_insert(arrival);
        *cursor = (*cursor).max(arrival);
        truncated
    }
}

fn handle_request(
    config: &ShardConfig,
    videos: &mut HashMap<u32, ShardVideo>,
    state: &mut StateJournal,
    req: &ShardRequest,
    pending: &mut Option<PendingSpan>,
) {
    let &ShardRequest {
        seq,
        video,
        arrival_slot,
        ref reply,
        ..
    } = req;
    let stats = &config.stats;
    let Some(owned) = videos.get_mut(&video) else {
        // The reader validates ids against the catalog, so this is only
        // reachable if routing drifts; degrade to a typed rejection
        // rather than aborting the shard.
        stats.count_rejection(RejectKind::UnknownVideo);
        reply.deliver(
            seq,
            Frame::Rejected {
                seq,
                reason: RejectKind::UnknownVideo,
            },
            None,
        );
        return;
    };
    let requested = if arrival_slot == ARRIVAL_AUTO {
        owned.clock.slot_now()
    } else {
        arrival_slot
    };
    // The ring's base never moves backwards; a stale explicit slot is
    // clamped to the earliest the scheduler can still serve.
    let arrival = requested.max(owned.scheduler.next_slot().index().saturating_sub(1));
    // How far the shard is running behind its own virtual clock: under
    // overload the clock advances past the arrivals still being served.
    config
        .telemetry
        .note_clock_lag(config.id, owned.clock.slot_now().saturating_sub(arrival));
    // Chaos fires *before* the scheduler is touched: a retried request
    // replays cleanly after the rebuild, with no half-applied state.
    if config.chaos.shard_kill_due(config.id as u64, arrival) {
        panic!(
            "chaos: injected panic on shard {} at arrival slot {arrival}",
            config.id
        );
    }
    let scheduler = &mut owned.scheduler;
    while scheduler.next_slot().index() < arrival {
        let (_slot, aired) = scheduler.pop_slot();
        stats
            .instances_aired
            .fetch_add(aired.len() as u64, Ordering::Relaxed);
    }
    let schedule = scheduler.schedule_request(Slot::new(arrival));
    // Journal after the scheduler mutated: the entry describes applied
    // state. Everything from here to delivery is panic-free, so the
    // journal can never run ahead of reality.
    if state.record(video, arrival) {
        stats
            .shard_journal_truncated
            .fetch_add(1, Ordering::Relaxed);
    }
    audit_timeliness(stats, scheduler.periods(), arrival, &schedule);
    // The data plane moves the actual bytes: every *newly* scheduled
    // instance is published into the channel ring exactly once (instances
    // shared with earlier requests were published when first scheduled)
    // and fanned out zero-copy to current subscribers.
    let mut ring_out = PublishOutcome::default();
    for s in &schedule {
        if s.newly_scheduled {
            ring_out.absorb(
                config
                    .data
                    .publish(video, s.segment.get() as u32, s.slot.index()),
            );
        }
    }
    if !ring_out.is_empty() {
        stats
            .ring_published
            .fetch_add(ring_out.published, Ordering::Relaxed);
        stats
            .ring_fanout
            .fetch_add(ring_out.fanout, Ordering::Relaxed);
        stats
            .ring_evictions
            .fetch_add(ring_out.evictions, Ordering::Relaxed);
        stats.ring_gaps.fetch_add(ring_out.gaps, Ordering::Relaxed);
        stats
            .bytes_delivered
            .fetch_add(ring_out.bytes, Ordering::Relaxed);
        config.telemetry.on_ring(config.id, &ring_out);
    }
    let segments = schedule
        .iter()
        .map(|s| GrantedSegment {
            segment: s.segment.get() as u32,
            slot: s.slot.index(),
            shared: !s.newly_scheduled,
        })
        .collect();
    stats.grants.fetch_add(1, Ordering::Relaxed);
    // `take()` so a chaos panic on a retry cannot record the span twice;
    // the schedule stage closes as the answer enters the writer queue.
    reply.deliver(
        seq,
        Frame::Grant {
            seq,
            video,
            arrival_slot: arrival,
            segments,
        },
        pending.take().map(PendingSpan::into_carrier),
    );
}

/// Rebuilds every scheduler from its catalog entry and replays the state
/// journal, leaving the shard exactly where the panic found it (while the
/// journal held full history). Returns the number of entries replayed.
fn rebuild(videos: &mut HashMap<u32, ShardVideo>, state: &StateJournal) -> u64 {
    for owned in videos.values_mut() {
        // A deterministic build that succeeded at startup succeeds again;
        // on the defensive error path keep the old scheduler rather than
        // losing the video entirely.
        if let Ok((_, fresh)) = owned.entry.build(&Journal::disabled()) {
            owned.scheduler = fresh;
        }
    }
    for &(video, arrival) in &state.entries {
        if let Some(owned) = videos.get_mut(&video) {
            let scheduler = &mut owned.scheduler;
            // Instances aired here were already counted the first time
            // through — replay advances silently.
            while scheduler.next_slot().index() < arrival {
                let _ = scheduler.pop_slot();
            }
            let _ = scheduler.schedule_request(Slot::new(arrival));
        }
    }
    // Advance rings whose replayed entries were truncated away up to
    // their recorded cursors, so virtual time never runs backwards.
    for (&video, &cursor) in &state.cursors {
        if let Some(owned) = videos.get_mut(&video) {
            while owned.scheduler.next_slot().index() < cursor {
                let _ = owned.scheduler.pop_slot();
            }
        }
    }
    state.entries.len() as u64
}

fn backoff_for(restart: u32, policy: &RestartPolicy) -> Duration {
    let shift = restart.saturating_sub(1).min(16);
    policy
        .backoff_base
        .saturating_mul(1u32 << shift)
        .min(policy.backoff_cap)
}

/// Checks every granted instance against its deadline window
/// `arrival < slot ≤ arrival + T[j]`.
fn audit_timeliness(
    stats: &ServiceStats,
    periods: &[u64],
    arrival: u64,
    schedule: &[dhb_core::ScheduledSegment],
) {
    let mut misses = 0u64;
    for s in schedule {
        let window = periods.get(s.segment.array_index()).copied().unwrap_or(0);
        let slot = s.slot.index();
        if slot <= arrival || slot > arrival.saturating_add(window) {
            misses += 1;
        }
    }
    stats
        .audit_segments_checked
        .fetch_add(schedule.len() as u64, Ordering::Relaxed);
    if misses > 0 {
        stats
            .audit_deadline_misses
            .fetch_add(misses, Ordering::Relaxed);
    }
}

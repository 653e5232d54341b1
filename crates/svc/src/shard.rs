//! Supervised scheduler shard workers.
//!
//! Each shard thread owns the schedulers of the videos routed to it
//! (`video % shards`), so no scheduler is ever shared between threads and
//! shard-local scheduling needs no locks. The schedulers are
//! protocol-generic [`SlotScheduler`] trait objects built by the serving
//! catalog — fixed-rate DHB, dynamic-NPB grants, and DHB-d period vectors
//! all run through the same loop. Requests arrive over a **bounded**
//! `sync_channel` — the admission-control queue whose `try_send` failure is
//! surfaced to clients as `Rejected(queue_full)`.
//!
//! # Supervision
//!
//! Scheduling runs inside `catch_unwind`, so a panicking scheduler (or an
//! injected chaos panic) never takes its thread down. The supervisor keeps
//! a compact **state journal** per shard — every scheduled `(video,
//! arrival)` pair in order, plus each video's ring cursor — and on panic
//! it rebuilds fresh schedulers from the catalog entries and replays the
//! journal, resuming on the *same* [`SlotClock`] so virtual time never
//! jumps. Restarts back off exponentially (capped) and are counted; once
//! the restart budget is spent the shard flips its `down` flag and every
//! request routed to it is shed as `Rejected(shard_down)` instead of
//! hanging. The journal is bounded: while history fits the cap a rebuild
//! is *exact* (byte-identical grants afterwards); past the cap the oldest
//! entries are dropped (counted in `svc.shard.journal_truncated`) and the
//! rebuilt schedule is approximate but still deadline-clean — the
//! timeliness audit keeps running either way.
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
//! count, dilation, or how many supervised restarts happened in between.
//!
//! Every grant is audited on the way out: each instance must land in the
//! window `arrival < slot ≤ arrival + T[j]`. Violations increment
//! `svc.audit.deadline_misses` — the live-service counterpart of the
//! offline `TimelinessAuditor`, and the counter the CI catalog and chaos
//! smokes assert stays zero.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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
    /// Blocking delivery: the outbound queue is bounded, so a slow client
    /// backpressures its shard instead of buffering without limit. A
    /// vanished connection is fine — a closed queue discards sends, and a
    /// session keeps the answer in its ring for replay after resume.
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

/// A unit of work queued to a shard.
pub(crate) enum ShardMsg {
    /// An admitted client request, with the reply route to answer on.
    Request {
        /// The submitting connection (journaled with shard-side sheds).
        conn: u64,
        /// Echoed sequence number.
        seq: u64,
        /// Target video (pre-validated by the reader).
        video: u32,
        /// Explicit arrival slot or [`ARRIVAL_AUTO`].
        arrival_slot: u64,
        /// The owning connection's reply route.
        reply: ReplyTo,
        /// The request's lifecycle span, minted by the reader at decode.
        span: Option<SpanStart>,
    },
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
    pub videos: Vec<ShardVideo>,
    pub stats: Arc<ServiceStats>,
    /// Test knob: minimum time spent per request, to make overload and
    /// drain scenarios deterministic in tests. Zero in production.
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

pub(crate) fn spawn_shard(
    config: ShardConfig,
    rx: Receiver<ShardMsg>,
) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("vod-svc-shard-{}", config.id))
        .spawn(move || run_shard(config, &rx))
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

fn run_shard(mut config: ShardConfig, rx: &Receiver<ShardMsg>) {
    let mut videos: HashMap<u32, ShardVideo> = std::mem::take(&mut config.videos)
        .into_iter()
        .map(|v| (v.id, v))
        .collect();
    let config = &config;
    let mut state = StateJournal::new(config.policy.journal_cap);
    let mut restarts: u32 = 0;

    // `recv` drains every queued message even after all senders drop, so a
    // graceful shutdown still answers admitted requests.
    while let Ok(msg) = rx.recv() {
        let ShardMsg::Request {
            conn,
            seq,
            video,
            arrival_slot,
            reply,
            span,
        } = msg;
        // The admission-wait stage ends here: the request left the bounded
        // queue and the schedule stage begins.
        config.telemetry.queue_leave(config.id);
        let mut pending = span.map(|start| {
            PendingSpan::begin(Arc::clone(&config.telemetry), start, config.id as u32)
        });
        if config.down.load(Ordering::Acquire) {
            shed(config, conn, seq, &reply);
            continue;
        }
        if !config.min_service_time.is_zero() {
            std::thread::sleep(config.min_service_time);
        }
        let mut attempts = 0u32;
        loop {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                handle_request(
                    config,
                    &mut videos,
                    &mut state,
                    seq,
                    video,
                    arrival_slot,
                    &reply,
                    &mut pending,
                );
            }));
            match outcome {
                Ok(()) => break,
                Err(_panic) => {
                    attempts += 1;
                    restarts += 1;
                    config.stats.shard_panics.fetch_add(1, Ordering::Relaxed);
                    config.telemetry.note_restarts(config.id, restarts);
                    let shard = config.id as u64;
                    config.journal.emit_with(|| Event::ShardPanicked {
                        shard,
                        restarts: u64::from(restarts),
                    });
                    if restarts > config.policy.max_restarts {
                        config.down.store(true, Ordering::Release);
                        config.stats.shards_down.fetch_add(1, Ordering::Relaxed);
                        config.journal.emit_with(|| Event::ShardDisabled { shard });
                        shed(config, conn, seq, &reply);
                        break;
                    }
                    let backoff = backoff_for(restarts, &config.policy);
                    std::thread::sleep(backoff);
                    let replayed = rebuild(&mut videos, &state);
                    config.stats.shard_restarts.fetch_add(1, Ordering::Relaxed);
                    config.journal.emit_with(|| Event::ShardRestarted {
                        shard,
                        replayed,
                        backoff_ms: u64::try_from(backoff.as_millis()).unwrap_or(u64::MAX),
                    });
                    if attempts > 1 {
                        // The same request keeps panicking after a clean
                        // rebuild: shed it and keep the shard alive for
                        // everyone else.
                        shed(config, conn, seq, &reply);
                        break;
                    }
                }
            }
        }
    }
}

/// Answers a request the shard cannot serve with `Rejected(shard_down)`.
fn shed(config: &ShardConfig, conn: u64, seq: u64, reply: &ReplyTo) {
    config.stats.count_rejection(RejectKind::ShardDown);
    config.journal.emit_with(|| Event::RequestRejected {
        conn,
        request: seq,
        reason: RejectKind::ShardDown,
    });
    reply.deliver(
        seq,
        Frame::Rejected {
            seq,
            reason: RejectKind::ShardDown,
        },
        None,
    );
}

#[allow(clippy::too_many_arguments)]
fn handle_request(
    config: &ShardConfig,
    videos: &mut HashMap<u32, ShardVideo>,
    state: &mut StateJournal,
    seq: u64,
    video: u32,
    arrival_slot: u64,
    reply: &ReplyTo,
    pending: &mut Option<PendingSpan>,
) {
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

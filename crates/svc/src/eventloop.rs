//! The readiness-driven I/O core: a small pool of event-loop threads that
//! own every client connection as a state machine.
//!
//! This replaces the old thread-per-connection reader/writer pairs. Each
//! loop thread owns a [`vod_net::Poller`] and a slab of [`Conn`] state
//! machines. Inbound bytes are decoded incrementally (a frame may arrive
//! one byte at a time or many frames may coalesce into one read); outbound
//! frames sit in a per-connection bounded byte queue that the loop flushes
//! with vectored writes, re-arming `EPOLLOUT` interest on `EAGAIN`.
//!
//! # Ownership and the wakeup path
//!
//! ```text
//!   accept thread ──new conns──────────────▶ inbox ──▶ loop k
//!   loop j: read ─▶ admit ─▶ shard s FIFO   (s % io_threads == j: inline)
//!                       ╰──▶ loop k's inbox (s % io_threads == k ≠ j)
//!   loop k: run shard s ─▶ answer ─▶ ConnOut queue ─dirty token─▶ inbox of
//!                                    the connection's own loop ─▶ flush
//!   every inbox push is followed by that loop's Waker::wake
//! ```
//!
//! Only the loop thread touches a `Conn` (its socket, decoder, interest
//! registration) and only the owning loop touches a [`ShardWorker`].
//! Producers — shards delivering grants, the data plane fanning out
//! chunks, sessions replaying answers — touch only the connection's
//! [`ConnOut`] queue, then mark the connection dirty in its loop's inbox
//! and poke its [`Waker`]. For a request whose shard lives on the
//! connection's own loop that is the same thread: the grant is decoded,
//! scheduled, encoded and flushed in one loop iteration, with no channel
//! and no thread wake. The `notified` flag coalesces wakeups: many queued
//! frames cost one inbox entry, and the loop clears the flag *before*
//! flushing so a produce that races the flush re-marks the connection
//! rather than being missed.
//!
//! # Backpressure
//!
//! The outbound queue is bounded in frames (`outbound_cap`). No send ever
//! blocks — every producer is a loop thread, and a loop must never wait on
//! a queue that only a loop can drain. Instead a loop throttles by
//! dropping read interest while a connection's queue is at capacity, so a
//! client that stops reading stops feeding new work; the answers it
//! already has in flight are bounded by the shards' admission bound
//! (`queue_cap`), never an unbounded buffer. Nothing here holds a session
//! lock across a wait, because nothing waits.
//!
//! # Shutdown backstop
//!
//! Phase two of the drain closes each connection once its queue flushes;
//! a live peer that stops reading would park that flush at `WouldBlock`
//! forever, so finishing loops force-close whatever cannot flush within
//! [`FINISH_GRACE`] — shutdown always terminates.
//!
//! # Drain order
//!
//! Shutdown happens in two phases (see `Service::shutdown`): on the drain
//! flag each loop stops reading (so it admits and forwards nothing more),
//! queues one `Draining` frame per live connection, and acks. Its shards
//! keep answering what was already admitted. Once every loop has acked, the
//! finish flag tells each loop to close every connection as soon as its
//! queue is flushed and its in-flight answers (`ConnOut::pending`) have
//! landed; a loop exits only once it has no connections left *and* its
//! shard FIFOs and inbox hold no requests — so every admitted request's
//! answer reaches the socket before the fd closes, including requests
//! forwarded from another loop.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vod_net::{Events, Interest, Poller, Waker};
use vod_obs::{Event, RejectKind};

use crate::server::Shared;
use crate::session::{lock_unpoisoned, Admit, Session};
use crate::shard::{ReplyTo, ShardRequest, ShardWorker};
use crate::telemetry::{dur_ns, Outbound, SpanStart};
use crate::wire::{Frame, FrameDecoder, ARRIVAL_AUTO, PROTOCOL_VERSION};

/// Poller token of the loop's waker pipe.
const WAKE_TOKEN: u64 = u64::MAX;
/// Max entries batched into one vectored write.
const MAX_BATCH_SLICES: usize = 64;
/// Per-loop read scratch size; level-triggered epoll re-reports anything
/// left unread, so one buffer serves every connection.
const READ_CHUNK: usize = 64 * 1024;
/// Reads taken from one connection per tick before yielding to its peers.
const READS_PER_TICK: usize = 4;
/// How long phase two of the drain waits for queues to flush before
/// force-closing connections whose peers are alive but not reading —
/// without it, one such peer pins `LoopPool::finish` (and so
/// `Service::shutdown`) forever at `WouldBlock`.
const FINISH_GRACE: Duration = Duration::from_secs(5);

/// An entry's wire image: owned for per-connection frames, `Arc`-shared
/// for broadcast data chunks fanned out to many subscribers. The shared
/// variant is the zero-copy path — one `SegmentData` encoding serves every
/// subscriber's queue, and each queue holds only an `Arc` clone.
enum EntryBytes {
    Owned(Vec<u8>),
    Shared(Arc<[u8]>),
}

impl EntryBytes {
    fn as_slice(&self) -> &[u8] {
        match self {
            EntryBytes::Owned(v) => v,
            EntryBytes::Shared(a) => a,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }
}

/// One frame staged for the wire, plus the span it carries.
struct OutEntry {
    /// The encoded wire image (length prefix included).
    bytes: EntryBytes,
    /// How many of `bytes` have reached the socket.
    written: usize,
    span: Option<crate::telemetry::SpanCarrier>,
    /// When this entry first entered a write attempt: the end of its
    /// writer-wait stage and the start of its flush stage.
    flush_start: Option<Instant>,
}

/// What became of a non-blocking broadcast delivery attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DataSend {
    /// Every chunk entered the queue.
    Sent,
    /// The queue lacks room for the whole publication; nothing was queued.
    /// The subscriber stays lagged in the ring and catches up (or is
    /// evicted-with-overrun) on a later pump.
    Full,
    /// The connection is gone; the subscriber should be dropped.
    Closed,
}

/// The bounded outbound frame queue guarded by [`ConnOut::state`].
struct OutQueue {
    entries: VecDeque<OutEntry>,
    cap: usize,
    /// Closed queues discard sends immediately (finishing their spans), the
    /// moral equivalent of the old writer discarding after a dead write.
    closed: bool,
}

impl OutQueue {
    /// Closes the queue and discards everything staged, finishing spans so
    /// telemetry never loses a record to a dead client.
    fn close_discard(&mut self) {
        self.closed = true;
        let now = Instant::now();
        for entry in self.entries.drain(..) {
            if let Some(span) = entry.span {
                let fs = entry.flush_start.unwrap_or(now);
                let wait = dur_ns(fs.saturating_duration_since(span.sent_at));
                span.finish(wait, dur_ns(now.saturating_duration_since(fs)));
            }
        }
    }
}

/// The producer-facing half of one connection: the bounded outbound queue
/// plus the dirty-token wakeup route back to the owning loop.
pub(crate) struct ConnOut {
    /// Slab token + generation on the owning loop, for dirty marking.
    token: usize,
    gen: u64,
    owner: Arc<LoopShared>,
    state: Mutex<OutQueue>,
    /// Coalesces dirty marks: set by the first producer after a flush,
    /// cleared by the loop before it flushes.
    notified: AtomicBool,
    /// Shard requests submitted by this connection whose answers have not
    /// yet been delivered; a graceful close waits for zero so every
    /// admitted request's answer reaches the queue before shutdown.
    pending: AtomicUsize,
}

impl ConnOut {
    /// Enqueues unconditionally, never blocking — safe to call with a
    /// session lock held. May push past `cap`: the loop's read throttle
    /// and the shards' admission bound limit how far.
    fn push(&self, out: Outbound) {
        let bytes = out.frame.encode();
        let mut q = lock_unpoisoned(&self.state);
        if q.closed {
            drop(q);
            if let Some(span) = out.span {
                // The client is gone; the frame's wait ends here and there
                // is no wire flush to measure.
                let wait = dur_ns(span.sent_at.elapsed());
                span.finish(wait, 0);
            }
            return;
        }
        q.entries.push_back(OutEntry {
            bytes: EntryBytes::Owned(bytes),
            written: 0,
            span: out.span,
            flush_start: None,
        });
        drop(q);
        self.notify();
    }

    /// All-or-nothing, never-blocking enqueue of one publication's chunk
    /// set. The room check is against the *whole* set so a publication can
    /// never be half-queued: either every chunk is staged back-to-back, or
    /// the subscriber stays lagged in the ring. Safe from any thread — the
    /// shard pumping a fan-out must never block on one slow subscriber.
    fn try_send_data(&self, chunks: &[Arc<[u8]>]) -> DataSend {
        let mut q = lock_unpoisoned(&self.state);
        if q.closed {
            return DataSend::Closed;
        }
        if q.entries.len() + chunks.len() > q.cap {
            return DataSend::Full;
        }
        for chunk in chunks {
            q.entries.push_back(OutEntry {
                bytes: EntryBytes::Shared(Arc::clone(chunk)),
                written: 0,
                span: None,
                flush_start: None,
            });
        }
        drop(q);
        self.notify();
        DataSend::Sent
    }

    /// Marks the connection dirty on its loop, coalescing with any mark
    /// already outstanding.
    fn notify(&self) {
        if !self.notified.swap(true, Ordering::AcqRel) {
            self.owner.mark_dirty(self.token, self.gen);
        }
    }

    fn inflight_done(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // The last in-flight answer landed; poke the loop so a
            // close-when-flushed connection can finish closing.
            self.notify();
        }
    }
}

/// Where outbound frames for one connection go. Cloneable and send-able:
/// sessions and shard reply routes hold one, and a shard on another loop
/// may send on it.
#[derive(Clone)]
pub(crate) enum ConnSender {
    /// A live event-loop connection.
    Conn(Arc<ConnOut>),
    /// A test sink capturing frames in order.
    #[cfg(test)]
    Sink(Arc<Mutex<VecDeque<Outbound>>>),
    /// A test sink whose data queue is permanently full: models a dead or
    /// wedged subscriber whose ring cursor can only fall behind.
    #[cfg(test)]
    Stalled(Arc<Mutex<VecDeque<Outbound>>>),
}

impl ConnSender {
    /// Enqueues one frame; never blocks (see [`ConnOut::push`]).
    pub(crate) fn send(&self, out: Outbound) {
        match self {
            ConnSender::Conn(out_half) => out_half.push(out),
            #[cfg(test)]
            ConnSender::Sink(q) | ConnSender::Stalled(q) => lock_unpoisoned(q).push_back(out),
        }
    }

    /// Records that one shard answer submitted by this connection has been
    /// delivered (wherever it landed — the session may have moved).
    pub(crate) fn inflight_done(&self) {
        match self {
            ConnSender::Conn(out_half) => out_half.inflight_done(),
            #[cfg(test)]
            ConnSender::Sink(_) | ConnSender::Stalled(_) => {}
        }
    }

    /// Non-blocking delivery of one publication's pre-encoded chunks; see
    /// [`ConnOut::try_send_data`]. Test sinks always accept (they model an
    /// infinitely fast subscriber).
    pub(crate) fn try_send_data(&self, chunks: &[Arc<[u8]>]) -> DataSend {
        match self {
            ConnSender::Conn(out_half) => out_half.try_send_data(chunks),
            #[cfg(test)]
            ConnSender::Sink(_) => DataSend::Sent,
            #[cfg(test)]
            ConnSender::Stalled(_) => DataSend::Full,
        }
    }

    /// True when both senders feed the same connection queue — the
    /// re-subscribe dedup test (a channel holds one subscription per
    /// connection, not one per `Subscribe` frame).
    pub(crate) fn same_conn(&self, other: &ConnSender) -> bool {
        match (self, other) {
            (ConnSender::Conn(a), ConnSender::Conn(b)) => Arc::ptr_eq(a, b),
            #[cfg(test)]
            (ConnSender::Sink(a), ConnSender::Sink(b))
            | (ConnSender::Stalled(a), ConnSender::Stalled(b)) => Arc::ptr_eq(a, b),
            #[cfg(test)]
            _ => false,
        }
    }

    /// A sender backed by an in-memory queue, plus the queue to assert on.
    #[cfg(test)]
    pub(crate) fn sink() -> (ConnSender, Arc<Mutex<VecDeque<Outbound>>>) {
        let q = Arc::new(Mutex::new(VecDeque::new()));
        (ConnSender::Sink(Arc::clone(&q)), q)
    }

    /// A sender whose data queue never has room; its ring cursor can only
    /// lag. Control frames (`send`) still land on the returned queue.
    #[cfg(test)]
    pub(crate) fn stalled() -> (ConnSender, Arc<Mutex<VecDeque<Outbound>>>) {
        let q = Arc::new(Mutex::new(VecDeque::new()));
        (ConnSender::Stalled(Arc::clone(&q)), q)
    }
}

/// Work queued to a loop from other threads.
#[derive(Default)]
struct Inbox {
    /// Accepted sockets awaiting registration, with their conn ids.
    new_conns: Vec<(TcpStream, u64)>,
    /// `(token, gen)` of connections with fresh outbound frames (or a
    /// pending count that just reached zero).
    dirty: Vec<(usize, u64)>,
    /// Requests admitted on another loop for a shard this loop owns.
    requests: Vec<ShardRequest>,
}

/// The cross-thread face of one event loop.
pub(crate) struct LoopShared {
    waker: Waker,
    inbox: Mutex<Inbox>,
    /// Phase-two drain: close every connection once flushed.
    finish: AtomicBool,
}

impl LoopShared {
    fn mark_dirty(&self, token: usize, gen: u64) {
        lock_unpoisoned(&self.inbox).dirty.push((token, gen));
        let _ = self.waker.wake();
    }

    /// Hands a request to the loop that owns its shard.
    fn forward(&self, req: ShardRequest) {
        lock_unpoisoned(&self.inbox).requests.push(req);
        let _ = self.waker.wake();
    }
}

/// Counts loops that have acknowledged phase one of the drain (reads
/// stopped, `Draining` queued).
struct DrainGate {
    acked: Mutex<usize>,
    cv: Condvar,
}

/// The pool of event-loop threads serving client connections.
pub(crate) struct LoopPool {
    loops: Vec<Arc<LoopShared>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    next: AtomicUsize,
    gate: Arc<DrainGate>,
}

impl LoopPool {
    /// Spawns `threads` event loops (at least one); shard `s` runs on
    /// loop `s % threads`.
    pub(crate) fn spawn(
        shared: &Arc<Shared>,
        shards: Vec<ShardWorker>,
        threads: usize,
    ) -> io::Result<LoopPool> {
        let threads = threads.max(1);
        let gate = Arc::new(DrainGate {
            acked: Mutex::new(0),
            cv: Condvar::new(),
        });
        let mut pollers = Vec::with_capacity(threads);
        let mut loops = Vec::with_capacity(threads);
        for _ in 0..threads {
            let poller = Poller::new()?;
            let ls = Arc::new(LoopShared {
                waker: Waker::new()?,
                inbox: Mutex::new(Inbox::default()),
                finish: AtomicBool::new(false),
            });
            poller.register(&ls.waker, WAKE_TOKEN, Interest::READABLE)?;
            pollers.push(poller);
            loops.push(ls);
        }
        let mut owned: Vec<Vec<ShardWorker>> = (0..threads).map(|_| Vec::new()).collect();
        // Shards arrive in id order, so loop i holds shard s at s / threads.
        for (id, shard) in shards.into_iter().enumerate() {
            owned[id % threads].push(shard);
        }
        let mut handles = Vec::with_capacity(threads);
        for (i, (poller, shards)) in pollers.into_iter().zip(owned).enumerate() {
            let mut el = EventLoop {
                shared: Arc::clone(shared),
                ls: Arc::clone(&loops[i]),
                peers: loops.clone(),
                gate: Arc::clone(&gate),
                index: i,
                shards,
                poller,
                conns: Vec::new(),
                free: Vec::new(),
                live: 0,
                next_gen: 0,
                scratch: vec![0u8; READ_CHUNK],
                drain_seen: false,
                finishing: false,
                finish_deadline: None,
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("vod-svc-io-{i}"))
                    .spawn(move || el.run())?,
            );
        }
        Ok(LoopPool {
            loops,
            handles: Mutex::new(handles),
            next: AtomicUsize::new(0),
            gate,
        })
    }

    /// Hands an accepted socket to the next loop, round robin.
    pub(crate) fn dispatch(&self, stream: TcpStream, conn: u64) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.loops.len();
        lock_unpoisoned(&self.loops[i].inbox)
            .new_conns
            .push((stream, conn));
        let _ = self.loops[i].waker.wake();
    }

    /// Phase one: wake every loop (the caller already set the drain flag)
    /// and wait until each has queued `Draining` frames and stopped
    /// reading. After this returns, no loop will admit or forward new work
    /// to the shards.
    pub(crate) fn begin_drain(&self) {
        for ls in &self.loops {
            let _ = ls.waker.wake();
        }
        let mut acked = lock_unpoisoned(&self.gate.acked);
        while *acked < self.loops.len() {
            acked = self
                .gate
                .cv
                .wait(acked)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Phase two: close every connection once its queue is flushed and its
    /// in-flight answers have landed, answer every queued request, then
    /// join the loops.
    pub(crate) fn finish(&self) {
        for ls in &self.loops {
            ls.finish.store(true, Ordering::SeqCst);
            let _ = ls.waker.wake();
        }
        let handles = std::mem::take(&mut *lock_unpoisoned(&self.handles));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// One connection's loop-owned state machine.
struct Conn {
    stream: TcpStream,
    id: u64,
    gen: u64,
    out: Arc<ConnOut>,
    sender: ConnSender,
    decoder: FrameDecoder,
    /// Set by `Hello`, possibly swapped by `Resume`, absent for raw
    /// sessionless clients.
    session: Option<Arc<Session>>,
    /// The peer's write side is done (EOF seen) or we stopped reading for
    /// good (protocol error). Sessioned connections linger read-closed so
    /// ring deliveries can still flush — the old writer-thread lifetime.
    read_closed: bool,
    /// Close (shutdown write, free the slot) once the queue is empty and
    /// no submitted answers are in flight.
    close_when_flushed: bool,
    /// The interest currently registered with the poller.
    registered: Interest,
    /// A chaos writer stall in progress: no flushing until this instant.
    stall_until: Option<Instant>,
    /// Frames fully flushed to the socket — the chaos stall trigger.
    written_frames: u64,
    /// The write side failed; the queue is closed and discards sends.
    dead: bool,
}

/// What a dispatched frame asks the loop to do with the connection.
enum Action {
    /// Keep the connection as is.
    Continue,
    /// Stop reading, flush what is queued, then close (the old "reader
    /// returns, writer drains" path).
    CloseGraceful,
    /// Tear the connection down now, discarding its queue (chaos reset).
    CloseHard,
}

struct EventLoop {
    shared: Arc<Shared>,
    ls: Arc<LoopShared>,
    /// Every loop's cross-thread face, indexed by loop; `peers[index]` is
    /// this loop's own.
    peers: Vec<Arc<LoopShared>>,
    gate: Arc<DrainGate>,
    index: usize,
    /// The shards this loop owns: shard `s` is `shards[s / peers.len()]`.
    shards: Vec<ShardWorker>,
    poller: Poller,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    next_gen: u64,
    scratch: Vec<u8>,
    drain_seen: bool,
    finishing: bool,
    /// Set on entering phase two: when it passes, connections that still
    /// cannot flush are force-closed so the loop can exit.
    finish_deadline: Option<Instant>,
}

impl EventLoop {
    fn run(&mut self) {
        let mut events = Events::with_capacity(1024);
        loop {
            let timeout = self.next_timeout();
            let _ = self.poller.wait(&mut events, timeout);
            let mut woken = false;
            // Copy the events out so handling (which mutates conns and can
            // reregister interest) never aliases the kernel buffer.
            let batch: Vec<vod_net::Event> = events.iter().collect();
            for ev in batch {
                if ev.token == WAKE_TOKEN {
                    woken = true;
                    continue;
                }
                self.handle_event(ev);
            }
            if woken {
                self.ls.waker.drain();
            }
            if !self.finishing && self.ls.finish.load(Ordering::SeqCst) {
                self.enter_finish();
            }
            let (new_conns, requests) = {
                let mut inbox = lock_unpoisoned(&self.ls.inbox);
                (
                    std::mem::take(&mut inbox.new_conns),
                    std::mem::take(&mut inbox.requests),
                )
            };
            for (stream, id) in new_conns {
                self.insert_conn(stream, id);
            }
            let n = self.peers.len();
            for req in requests {
                self.shards[req.shard / n].enqueue(req);
            }
            // Schedule everything this batch admitted, then flush the
            // answers: the inline route ends on this thread.
            for shard in &mut self.shards {
                shard.run();
            }
            let dirty = std::mem::take(&mut lock_unpoisoned(&self.ls.inbox).dirty);
            for (token, gen) in dirty {
                self.handle_dirty(token, gen);
            }
            if !self.drain_seen && self.shared.draining.load(Ordering::SeqCst) {
                self.enter_drain();
            }
            self.flush_expired_stalls();
            if self
                .finish_deadline
                .is_some_and(|deadline| Instant::now() >= deadline)
            {
                // Grace expired: whatever is still open cannot flush (its
                // peer stopped reading). Force-close so shutdown terminates.
                for token in 0..self.conns.len() {
                    if self.conns[token].is_some() {
                        self.hard_close(token);
                    }
                }
            }
            // Every request forwarded here was pushed before the finish
            // flag was set, so with the flag seen an empty inbox stays
            // empty.
            if self.finishing
                && self.live == 0
                && self.shards.iter().all(ShardWorker::is_idle)
                && lock_unpoisoned(&self.ls.inbox).requests.is_empty()
            {
                return;
            }
        }
    }

    /// The epoll timeout: indefinite unless a chaos writer stall, a
    /// shard's restart backoff or service-time pacing, or the
    /// finish-grace deadline needs a timed wakeup (every other state
    /// change pokes the waker).
    fn next_timeout(&self) -> Option<Duration> {
        let stalls = if self.shared.chaos.is_empty() {
            None
        } else {
            self.conns
                .iter()
                .flatten()
                .filter_map(|c| c.stall_until)
                .min()
        };
        let shards = self.shards.iter().filter_map(ShardWorker::wake_at).min();
        [self.finish_deadline, stalls, shards]
            .into_iter()
            .flatten()
            .min()
            .map(|at| at.saturating_duration_since(Instant::now()))
    }

    fn handle_event(&mut self, ev: vod_net::Event) {
        let token = ev.token as usize;
        let Some(conn) = self.conns.get(token).and_then(Option::as_ref) else {
            return;
        };
        if ev.error {
            self.hard_close(token);
            return;
        }
        let wants_read = !conn.read_closed && !self.drain_seen;
        if ev.readable && wants_read {
            self.read_pass(token);
        } else if ev.hangup && !ev.readable {
            // A lingering (interest-NONE) connection's peer is fully gone:
            // nothing left to flush to, reap it.
            self.hard_close(token);
            return;
        }
        if ev.writable {
            self.flush_conn(token);
        }
        self.sync_conn(token);
    }

    /// Reads up to [`READS_PER_TICK`] chunks from one connection,
    /// dispatching every complete frame. Level-triggered epoll re-reports
    /// whatever is left, so stopping early only defers to the next tick.
    fn read_pass(&mut self, token: usize) {
        let mut reads = 0;
        'chunks: while reads < READS_PER_TICK {
            let n = {
                let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                    return;
                };
                if conn.read_closed || self.drain_seen {
                    return;
                }
                match conn.stream.read(&mut self.scratch) {
                    Ok(0) => {
                        self.on_eof(token);
                        return;
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue 'chunks,
                    Err(_) => {
                        // Dead socket mid-stream: the old reader counted a
                        // protocol error and dropped the connection.
                        self.shared
                            .stats
                            .protocol_errors
                            .fetch_add(1, Ordering::Relaxed);
                        self.graceful_close(token);
                        return;
                    }
                }
            };
            reads += 1;
            {
                let scratch = &self.scratch[..n];
                let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                    return;
                };
                conn.decoder.extend(scratch);
            }
            loop {
                // Stamp per frame so `decode` measures this frame's
                // extraction alone and the span's stages tile from here.
                let started = Instant::now();
                let step = {
                    let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                        return;
                    };
                    conn.decoder.next_frame()
                };
                match step {
                    Ok(Some(frame)) => {
                        let decode_ns = dur_ns(started.elapsed());
                        match self.dispatch(token, frame, started, decode_ns) {
                            Action::Continue => {}
                            Action::CloseGraceful => {
                                self.graceful_close(token);
                                return;
                            }
                            Action::CloseHard => {
                                self.hard_close(token);
                                return;
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        self.shared
                            .stats
                            .protocol_errors
                            .fetch_add(1, Ordering::Relaxed);
                        self.graceful_close(token);
                        return;
                    }
                }
            }
        }
    }

    /// Routes one inbound frame: the admission-control, session-lifecycle,
    /// and shard-routing logic of the old per-connection reader.
    #[allow(clippy::too_many_lines)]
    fn dispatch(&mut self, token: usize, frame: Frame, started: Instant, decode_ns: u64) -> Action {
        let shared = &self.shared;
        let stats = &shared.stats;
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
            return Action::CloseHard;
        };
        match frame {
            // The decoder already rejected any version other than
            // PROTOCOL_VERSION (a mismatched client is dropped with a
            // protocol error before reaching this match).
            Frame::Hello { .. } => {
                if conn.session.is_none() {
                    let fresh = Arc::new(Session::new(
                        conn.id,
                        conn.sender.clone(),
                        shared.replay_cap,
                    ));
                    shared.sessions.insert(&fresh);
                    conn.session = Some(fresh);
                }
                let welcome = Frame::Welcome {
                    version: PROTOCOL_VERSION,
                    session: conn.session.as_ref().map_or(conn.id, |s| s.id()),
                    videos: shared.videos,
                    shards: shared.shards as u32,
                    dilation: shared.dilation,
                };
                conn.sender.send(Outbound::plain(welcome));
            }
            Frame::Resume {
                session: wanted,
                last_seq_seen,
            } => match shared.sessions.get(wanted) {
                Some(adopted) => {
                    // Retire the fresh session this connection's Hello
                    // registered — nothing was recorded on it yet.
                    if let Some(current) = conn.session.take() {
                        if current.id() != wanted {
                            shared.sessions.remove(current.id());
                        }
                    }
                    let replayed = adopted.resume(conn.sender.clone(), last_seq_seen);
                    stats.sessions_resumed.fetch_add(1, Ordering::Relaxed);
                    stats.grants_replayed.fetch_add(replayed, Ordering::Relaxed);
                    let conn_id = conn.id;
                    shared.journal.emit_with(|| Event::SessionResumed {
                        session: wanted,
                        conn: conn_id,
                        replayed,
                    });
                    conn.session = Some(adopted);
                }
                None => {
                    // Echo the unresolvable session id in the seq field so
                    // the client can correlate the failure.
                    stats.count_rejection(RejectKind::UnknownSession);
                    let conn_id = conn.id;
                    shared.journal.emit_with(|| Event::RequestRejected {
                        conn: conn_id,
                        request: wanted,
                        reason: RejectKind::UnknownSession,
                    });
                    conn.sender.send(Outbound::plain(Frame::Rejected {
                        seq: wanted,
                        reason: RejectKind::UnknownSession,
                    }));
                }
            },
            Frame::Describe { seq, video } => {
                let reply = match shared.meta.get(video as usize) {
                    Some(meta) if meta.valid => Frame::VideoInfo {
                        seq,
                        video,
                        segments: meta.segments,
                        protocol: meta.protocol.clone(),
                        periods: meta.periods.clone(),
                    },
                    Some(_) => Frame::Rejected {
                        seq,
                        reason: RejectKind::InvalidVideo,
                    },
                    None => Frame::Rejected {
                        seq,
                        reason: RejectKind::UnknownVideo,
                    },
                };
                conn.sender.send(Outbound::plain(reply));
            }
            Frame::Request {
                seq,
                video,
                arrival_slot,
            } => {
                stats.requests.fetch_add(1, Ordering::Relaxed);
                // Dedupe re-sends after a reconnect: an already-answered
                // seq is re-served from the replay ring, an in-flight one
                // is left to its original answer.
                let deduped = conn.session.as_ref().is_some_and(|s| match s.admit(seq) {
                    Admit::Fresh => false,
                    Admit::Resent | Admit::InFlight => true,
                });
                if deduped {
                    stats.requests_deduped.fetch_add(1, Ordering::Relaxed);
                } else {
                    let shard = video as usize % shared.shards;
                    let reject = if video >= shared.videos {
                        Some(RejectKind::UnknownVideo)
                    } else if !shared.meta[video as usize].valid {
                        Some(RejectKind::InvalidVideo)
                    } else if self.drain_seen || shared.draining.load(Ordering::SeqCst) {
                        Some(RejectKind::Draining)
                    } else if shared.shard_down[shard].load(Ordering::Acquire) {
                        Some(RejectKind::ShardDown)
                    } else if !shared.telemetry.queue_enter(shard, shared.queue_cap) {
                        Some(RejectKind::QueueFull)
                    } else {
                        let reply = match &conn.session {
                            Some(s) => ReplyTo::Session {
                                session: Arc::clone(s),
                                submitter: conn.sender.clone(),
                            },
                            None => ReplyTo::Direct(conn.sender.clone()),
                        };
                        // Count the answer in flight before the shard can
                        // see the request, so a close check never misses it.
                        conn.out.pending.fetch_add(1, Ordering::AcqRel);
                        let req = ShardRequest {
                            shard,
                            conn: conn.id,
                            seq,
                            video,
                            arrival_slot,
                            reply,
                            span: Some(SpanStart {
                                id: shared.telemetry.next_span_id(),
                                started,
                                decode_ns,
                            }),
                        };
                        let n = self.peers.len();
                        if shard % n == self.index {
                            self.shards[shard / n].enqueue(req);
                        } else {
                            self.peers[shard % n].forward(req);
                        }
                        None
                    };
                    if let Some(reason) = reject {
                        stats.count_rejection(reason);
                        let conn_id = conn.id;
                        shared.journal.emit_with(|| Event::RequestRejected {
                            conn: conn_id,
                            request: seq,
                            reason,
                        });
                        let frame = Frame::Rejected { seq, reason };
                        match &conn.session {
                            // Record the rejection in the ring: it is this
                            // seq's answer and must survive a reconnect.
                            Some(s) => s.deliver(seq, frame, None),
                            None => conn.sender.send(Outbound::plain(frame)),
                        }
                    }
                }
                // Planned chaos: hard-drop the socket after this request.
                // The session survives in the registry for resume.
                if let Some(s) = &conn.session {
                    let trigger = if arrival_slot == ARRIVAL_AUTO {
                        s.processed_count()
                    } else {
                        arrival_slot
                    };
                    if shared.chaos.conn_reset_due(s.id(), trigger) {
                        stats.chaos_conn_resets.fetch_add(1, Ordering::Relaxed);
                        let _ = conn.stream.shutdown(Shutdown::Both);
                        return Action::CloseHard;
                    }
                }
            }
            // Telemetry reads are answered here, as they are decoded: a
            // scrape never queues behind a shard's admitted requests.
            Frame::Stats => {
                // The full telemetry snapshot, stamped with monotonic time
                // so two STATS replies are orderable even across
                // reconnects.
                let json = shared
                    .telemetry
                    .snapshot_full(stats, &shared.sessions)
                    .to_json_pretty();
                conn.sender
                    .send(Outbound::plain(Frame::StatsReply { json }));
            }
            Frame::Spans { max } => {
                let jsonl = shared.telemetry.spans_jsonl(max as usize);
                conn.sender
                    .send(Outbound::plain(Frame::SpansReply { jsonl }));
            }
            Frame::Goodbye => {
                // An orderly goodbye retires the session: nothing to
                // resume after an intentional close. Queued and in-flight
                // answers still flush before the socket closes.
                if let Some(s) = conn.session.take() {
                    shared.sessions.remove(s.id());
                }
                return Action::CloseGraceful;
            }
            Frame::Subscribe { video } => {
                // Joining the broadcast channel: register at the ring head
                // (future publications only — a late joiner is never handed
                // segments whose playback deadline already passed) and echo
                // the channel geometry the client needs to reassemble and
                // deadline-check the byte stream.
                let session = conn.session.as_ref().map(|s| s.id());
                match shared.data.subscribe(video, conn.sender.clone(), session) {
                    Ok((ok, resume_gap)) => {
                        // A resumed (or re-issued) subscription re-attaches
                        // at the live head; the sequences it skipped are
                        // counted, never silently dropped.
                        if resume_gap > 0 {
                            stats
                                .ring_resume_gaps
                                .fetch_add(resume_gap, Ordering::Relaxed);
                        }
                        conn.sender.send(Outbound::plain(ok));
                    }
                    Err(reason) => {
                        stats.count_rejection(reason);
                        // Echo the video id in the seq field so the client
                        // can correlate the failure (Subscribe has no seq).
                        conn.sender.send(Outbound::plain(Frame::Rejected {
                            seq: u64::from(video),
                            reason,
                        }));
                    }
                }
            }
            // Server→client frames arriving at the server are a protocol
            // violation.
            Frame::Welcome { .. }
            | Frame::Grant { .. }
            | Frame::Rejected { .. }
            | Frame::Resumed { .. }
            | Frame::VideoInfo { .. }
            | Frame::StatsReply { .. }
            | Frame::SpansReply { .. }
            | Frame::SubscribeOk { .. }
            | Frame::SegmentData { .. }
            | Frame::Draining => {
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return Action::CloseGraceful;
            }
        }
        Action::Continue
    }

    fn on_eof(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
            return;
        };
        conn.read_closed = true;
        if conn.session.is_none() {
            // Sessionless peers are done once their answers flush. A
            // sessioned connection lingers instead: its ring can still
            // deliver until the client resumes elsewhere or the service
            // drains — the old writer-thread lifetime.
            conn.close_when_flushed = true;
        }
        self.sync_conn(token);
    }

    /// Stop reading and close once everything queued (and in flight) has
    /// been delivered — the old "reader returns, writer drains" shape.
    fn graceful_close(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
            return;
        };
        conn.read_closed = true;
        conn.close_when_flushed = true;
        self.sync_conn(token);
    }

    /// Tears the connection down now: closes the queue (finishing spans),
    /// deregisters, frees the slot.
    fn hard_close(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::take) else {
            return;
        };
        lock_unpoisoned(&conn.out.state).close_discard();
        let _ = self.poller.deregister(&conn.stream);
        self.live -= 1;
        self.free.push(token);
    }

    /// Re-derives a connection's poller interest from its state, closing it
    /// when its exit conditions are met. Cheap; called after anything that
    /// might have changed readiness needs.
    fn sync_conn(&mut self, token: usize) {
        let (do_close, desired) = {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                return;
            };
            let (len, closed) = {
                let q = lock_unpoisoned(&conn.out.state);
                (q.entries.len(), q.closed)
            };
            let pending = conn.out.pending.load(Ordering::Acquire);
            if conn.close_when_flushed && (len == 0 || closed) && pending == 0 {
                let _ = conn.stream.shutdown(Shutdown::Write);
                (true, Interest::NONE)
            } else {
                let desired = Interest {
                    // Read throttle: a full outbound queue drops read
                    // interest, so a slow client stops feeding new work
                    // instead of wedging the loop.
                    readable: !conn.read_closed
                        && !self.drain_seen
                        && len < self.shared.outbound_cap,
                    writable: len > 0 && !closed && conn.stall_until.is_none(),
                };
                (false, desired)
            }
        };
        if do_close {
            self.hard_close(token);
            return;
        }
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
            return;
        };
        if desired != conn.registered {
            if self
                .poller
                .reregister(&conn.stream, token as u64, desired)
                .is_ok()
            {
                conn.registered = desired;
            } else {
                self.hard_close(token);
            }
        }
    }

    /// Flushes one connection's queue with vectored writes until the queue
    /// empties, the socket would block, or a chaos stall begins.
    fn flush_conn(&mut self, token: usize) {
        let chaos_active = !self.shared.chaos.is_empty();
        // With a chaos plan armed, flush one frame at a time so a stall
        // scheduled at frame N fires exactly before frame N hits the wire.
        let max_batch = if chaos_active { 1 } else { MAX_BATCH_SLICES };
        loop {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                return;
            };
            if conn.dead {
                return;
            }
            if let Some(until) = conn.stall_until {
                if Instant::now() < until {
                    return;
                }
                conn.stall_until = None;
            }
            if chaos_active {
                if let Some(stall) = self
                    .shared
                    .chaos
                    .writer_stall_due(conn.id, conn.written_frames)
                {
                    self.shared
                        .stats
                        .chaos_writer_stalls
                        .fetch_add(1, Ordering::Relaxed);
                    let now = Instant::now();
                    // The stalled frame's writer wait ends here; the stall
                    // itself is flush latency, as it was when the writer
                    // thread slept after dequeueing.
                    let mut q = lock_unpoisoned(&conn.out.state);
                    if let Some(head) = q.entries.front_mut() {
                        if head.flush_start.is_none() {
                            head.flush_start = Some(now);
                        }
                    }
                    drop(q);
                    conn.stall_until = Some(now + stall);
                    return;
                }
            }
            let mut q = lock_unpoisoned(&conn.out.state);
            if q.entries.is_empty() {
                return;
            }
            let now = Instant::now();
            let batch = q.entries.len().min(max_batch);
            for entry in q.entries.iter_mut().take(batch) {
                if entry.flush_start.is_none() {
                    entry.flush_start = Some(now);
                }
            }
            let slices: Vec<IoSlice<'_>> = q
                .entries
                .iter()
                .take(batch)
                .map(|e| IoSlice::new(&e.bytes.as_slice()[e.written..]))
                .collect();
            // The write happens under the queue lock, but it is nonblocking
            // and the lock is only otherwise held for push/len — producers
            // wait microseconds, not a socket flush.
            let res = conn.stream.write_vectored(&slices);
            drop(slices);
            match res {
                Ok(mut n) => {
                    if n == 0 {
                        q.close_discard();
                        drop(q);
                        conn.dead = true;
                        return;
                    }
                    let done_at = Instant::now();
                    while n > 0 {
                        let head = q.entries.front_mut().expect("bytes written beyond queue");
                        let rem = head.bytes.len() - head.written;
                        if n >= rem {
                            n -= rem;
                            let entry = q.entries.pop_front().expect("head exists");
                            if let Some(span) = entry.span {
                                let fs = entry.flush_start.unwrap_or(done_at);
                                let wait = dur_ns(fs.saturating_duration_since(span.sent_at));
                                span.finish(wait, dur_ns(done_at.saturating_duration_since(fs)));
                            }
                            conn.written_frames += 1;
                        } else {
                            head.written += n;
                            n = 0;
                        }
                    }
                    if q.entries.is_empty() {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    drop(q);
                }
                Err(_) => {
                    // Dead client: discard, so later answers for it are
                    // dropped on arrival instead of piling up.
                    q.close_discard();
                    drop(q);
                    conn.dead = true;
                    return;
                }
            }
        }
    }

    fn handle_dirty(&mut self, token: usize, gen: u64) {
        {
            let Some(conn) = self.conns.get(token).and_then(Option::as_ref) else {
                return;
            };
            if conn.gen != gen {
                return;
            }
            // Clear before flushing: a producer that races the flush will
            // re-mark the connection instead of being coalesced away.
            conn.out.notified.store(false, Ordering::Release);
        }
        self.flush_conn(token);
        self.sync_conn(token);
    }

    fn insert_conn(&mut self, stream: TcpStream, id: u64) {
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        let token = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        self.next_gen += 1;
        let gen = self.next_gen;
        let out = Arc::new(ConnOut {
            token,
            gen,
            owner: Arc::clone(&self.ls),
            state: Mutex::new(OutQueue {
                entries: VecDeque::new(),
                cap: self.shared.outbound_cap,
                closed: false,
            }),
            notified: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
        });
        if self
            .poller
            .register(&stream, token as u64, Interest::READABLE)
            .is_err()
        {
            self.free.push(token);
            return;
        }
        let sender = ConnSender::Conn(Arc::clone(&out));
        self.conns[token] = Some(Conn {
            stream,
            id,
            gen,
            out,
            sender,
            decoder: FrameDecoder::new(),
            session: None,
            read_closed: false,
            close_when_flushed: false,
            registered: Interest::READABLE,
            stall_until: None,
            written_frames: 0,
            dead: false,
        });
        self.live += 1;
        if self.drain_seen {
            // Raced the drain: greet with Draining and close once flushed,
            // like a reader that started during shutdown.
            if let Some(conn) = self.conns[token].as_ref() {
                conn.sender.send(Outbound::plain(Frame::Draining));
            }
            self.graceful_close(token);
        }
        if self.finishing {
            self.graceful_close(token);
        }
    }

    /// Phase one of the drain: stop admitting, notify clients, ack. The
    /// loop's shards keep answering what was already admitted.
    fn enter_drain(&mut self) {
        self.drain_seen = true;
        for token in 0..self.conns.len() {
            let notify = {
                match self.conns[token].as_ref() {
                    Some(conn) => !conn.read_closed && !conn.close_when_flushed && !conn.dead,
                    None => false,
                }
            };
            if notify {
                if let Some(conn) = self.conns[token].as_ref() {
                    conn.sender.send(Outbound::plain(Frame::Draining));
                }
            }
            self.sync_conn(token);
        }
        let mut acked = lock_unpoisoned(&self.gate.acked);
        *acked += 1;
        drop(acked);
        self.gate.cv.notify_all();
    }

    /// Phase two: every connection closes as soon as it is flushed, and
    /// unconditionally once the grace deadline passes.
    fn enter_finish(&mut self) {
        self.finishing = true;
        self.finish_deadline = Some(Instant::now() + FINISH_GRACE);
        for token in 0..self.conns.len() {
            if let Some(conn) = self.conns[token].as_mut() {
                conn.close_when_flushed = true;
            }
            self.flush_conn(token);
            self.sync_conn(token);
        }
    }

    /// Resumes flushing connections whose chaos stall deadline has passed.
    fn flush_expired_stalls(&mut self) {
        if self.shared.chaos.is_empty() {
            return;
        }
        let now = Instant::now();
        for token in 0..self.conns.len() {
            let expired = self.conns[token]
                .as_ref()
                .and_then(|c| c.stall_until)
                .is_some_and(|until| now >= until);
            if expired {
                self.flush_conn(token);
                self.sync_conn(token);
            }
        }
    }
}

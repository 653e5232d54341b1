//! Resumable client sessions and the bounded grant-replay ring.
//!
//! A session decouples a client's identity from its TCP connection. Every
//! answer frame (grant or rejection) delivered to a sessioned connection
//! is also recorded in a bounded ring keyed by request sequence number;
//! when the connection dies and the client reconnects with
//! [`Frame::Resume`](crate::wire::Frame::Resume), the server swaps the
//! session onto the new connection's outbound queue and replays every
//! recorded answer newer than the client's `last_seq_seen` — in original
//! delivery order, byte-identical to the first transmission.
//!
//! Two invariants make resume loss-free without double delivery:
//!
//! 1. **Delivery and resume serialize on the session lock.** A shard
//!    delivering a grant (on whichever loop owns the shard) and a loop
//!    adopting the session cannot interleave: an answer lands either
//!    before the swap (recorded, so it is replayed) or after (sent
//!    directly on the new queue), never both and never neither.
//! 2. **Admission dedupes on the processed watermark.** A client that
//!    re-sends requests after reconnecting gets the recorded answer
//!    re-sent if it is still in the ring, or silence if the original is
//!    still in flight (the eventual answer arrives once). Only requests
//!    whose answers were evicted from the ring are rescheduled, trading
//!    byte-identity for liveness at the ring boundary.
//!
//! # Lock discipline
//!
//! One mutex guards the session, and it is held across the queue push
//! that delivers, resends, or replays an answer: every caller is an
//! event-loop thread and [`ConnSender::send`] never blocks, so the lock is
//! held only for a ring update and a push. Two loops can still meet on one
//! session (a shard on loop A answering a connection on loop B while B
//! admits or resumes on it), which is what the lock serializes. The only
//! lock taken under it is the outbound queue's (and, through the wakeup,
//! the loop inbox's); neither is ever held while taking a session lock.

use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::eventloop::ConnSender;
use crate::telemetry::{Outbound, SpanCarrier};
use crate::wire::{Frame, RESUME_NONE};

/// Lock a mutex, recovering the guard from a poisoned lock. The service
/// keeps running through shard panics by construction, so a poisoned
/// lock means "a peer thread died mid-update" — the protected state here
/// (counters, rings, registries) stays internally consistent under
/// partial updates, and dropping it would lose live sessions.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Outcome of admitting a request sequence number on a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admit {
    /// Never seen (or seen but evicted from the ring): schedule it.
    Fresh,
    /// Already answered; the recorded answer was re-sent verbatim.
    Resent,
    /// Already admitted and still in flight; the original answer will
    /// arrive on this session's queue — do nothing.
    InFlight,
}

struct Inner {
    /// Outbound queue of the connection currently owning this session.
    tx: ConnSender,
    /// Recorded answers in delivery order, bounded by `cap`.
    ring: VecDeque<(u64, Frame)>,
    cap: usize,
    /// Answers with `seq < evicted_below` may have left the ring; a
    /// re-request below this watermark is rescheduled instead of replayed.
    evicted_below: u64,
    /// `seq + 1` of the highest request admitted; 0 = none yet.
    processed: u64,
}

/// One resumable client session. Shared between the owning connection's
/// event loop, the loops whose shards deliver its answers, and (after a
/// reconnect) the adopting connection.
pub(crate) struct Session {
    id: u64,
    /// Also serializes deliveries, resumes, and recorded-answer resends.
    inner: Mutex<Inner>,
}

impl Session {
    pub(crate) fn new(id: u64, tx: ConnSender, cap: usize) -> Self {
        Session {
            id,
            inner: Mutex::new(Inner {
                tx,
                ring: VecDeque::new(),
                cap: cap.max(1),
                evicted_below: 0,
                processed: 0,
            }),
        }
    }

    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Number of requests admitted so far — the virtual trigger chaos
    /// connection resets key on for `AUTO`-arrival workloads.
    pub(crate) fn processed_count(&self) -> u64 {
        lock_unpoisoned(&self.inner).processed
    }

    /// Number of answers currently held in the replay ring — feeds the
    /// `svc.gauge.replay_ring_frames` telemetry gauge.
    pub(crate) fn ring_len(&self) -> usize {
        lock_unpoisoned(&self.inner).ring.len()
    }

    /// Admit request `seq`, deduplicating re-sends after a reconnect.
    ///
    /// The resend happens under the session lock, so it serializes with
    /// [`Session::resume`]: it goes to whichever connection owns the
    /// session *now*, never a queue a racing resume just swapped out
    /// (which would strand the answer on a dead socket).
    pub(crate) fn admit(&self, seq: u64) -> Admit {
        let mut inner = lock_unpoisoned(&self.inner);
        if seq >= inner.processed {
            inner.processed = seq + 1;
            return Admit::Fresh;
        }
        match inner.ring.iter().find(|(s, _)| *s == seq) {
            // Re-send the recorded answer without re-recording it. Replays
            // travel span-less: the span measured the original delivery.
            Some((_, answer)) => {
                inner.tx.send(Outbound::plain(answer.clone()));
                Admit::Resent
            }
            // The answer aged out of the ring; reschedule rather than
            // leave the client waiting forever. The fresh answer may differ
            // from the lost original — liveness over identity once the
            // replay bound is exceeded.
            None if seq < inner.evicted_below => Admit::Fresh,
            None => Admit::InFlight,
        }
    }

    /// Record answer `frame` for request `seq` and deliver it on the
    /// current connection. A dead connection is fine — the ring keeps
    /// the answer for replay after resume. The span carrier (if any)
    /// rides the live delivery only; the ring stores the bare frame so
    /// replays stay byte-identical without re-measuring.
    pub(crate) fn deliver(&self, seq: u64, frame: Frame, span: Option<SpanCarrier>) {
        let mut inner = lock_unpoisoned(&self.inner);
        if inner.ring.len() == inner.cap {
            if let Some((evicted, _)) = inner.ring.pop_front() {
                inner.evicted_below = inner.evicted_below.max(evicted + 1);
            }
        }
        inner.ring.push_back((seq, frame.clone()));
        inner.tx.send(Outbound { frame, span });
    }

    /// Adopt this session onto a new connection: swap the outbound
    /// queue, send [`Frame::Resumed`], then replay every recorded answer
    /// with `seq > last_seq_seen` ([`RESUME_NONE`] replays everything) in
    /// original delivery order. Returns the number of frames replayed.
    pub(crate) fn resume(&self, tx: ConnSender, last_seq_seen: u64) -> u64 {
        // Replays must not interleave with fresh deliveries, so they go
        // out under the session lock.
        let mut inner = lock_unpoisoned(&self.inner);
        inner.tx = tx;
        let inner = &*inner;
        let replay: Vec<&Frame> = inner
            .ring
            .iter()
            .filter(|(seq, _)| last_seq_seen == RESUME_NONE || *seq > last_seq_seen)
            .map(|(_, frame)| frame)
            .collect();
        let replayed = replay.len() as u64;
        inner.tx.send(Outbound::plain(Frame::Resumed {
            session: self.id,
            replayed: u32::try_from(replayed).unwrap_or(u32::MAX),
        }));
        for frame in replay {
            inner.tx.send(Outbound::plain(frame.clone()));
        }
        replayed
    }
}

/// The service-wide map from session id to live session.
#[derive(Default)]
pub(crate) struct SessionRegistry {
    sessions: Mutex<HashMap<u64, std::sync::Arc<Session>>>,
}

impl SessionRegistry {
    pub(crate) fn insert(&self, session: &std::sync::Arc<Session>) {
        lock_unpoisoned(&self.sessions).insert(session.id(), std::sync::Arc::clone(session));
    }

    pub(crate) fn get(&self, id: u64) -> Option<std::sync::Arc<Session>> {
        lock_unpoisoned(&self.sessions).get(&id).cloned()
    }

    pub(crate) fn remove(&self, id: u64) {
        lock_unpoisoned(&self.sessions).remove(&id);
    }

    /// Drop every session. Called during shutdown once admission has
    /// stopped, so the senders held by session rings release their
    /// connections' outbound queues.
    pub(crate) fn clear(&self) {
        lock_unpoisoned(&self.sessions).clear();
    }

    /// `(live sessions, total replay-ring frames)` — the telemetry plane's
    /// occupancy gauges.
    pub(crate) fn occupancy(&self) -> (usize, usize) {
        let sessions = lock_unpoisoned(&self.sessions);
        let frames = sessions.values().map(|s| s.ring_len()).sum();
        (sessions.len(), frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grant(seq: u64) -> Frame {
        Frame::Grant {
            seq,
            video: 0,
            arrival_slot: seq,
            segments: Vec::new(),
        }
    }

    type Sink = std::sync::Arc<Mutex<VecDeque<Outbound>>>;

    fn recv_frame(sink: &Sink) -> Result<Frame, ()> {
        lock_unpoisoned(sink)
            .pop_front()
            .map(|out| out.frame)
            .ok_or(())
    }

    #[test]
    fn admit_dedupes_and_resends_recorded_answers() {
        let (tx, rx) = ConnSender::sink();
        let session = Session::new(1, tx, 8);
        assert_eq!(session.admit(0), Admit::Fresh);
        assert_eq!(session.admit(1), Admit::Fresh);
        // 0 answered, 1 still in flight.
        session.deliver(0, grant(0), None);
        assert_eq!(recv_frame(&rx).expect("delivered"), grant(0));
        assert_eq!(session.admit(0), Admit::Resent);
        assert_eq!(recv_frame(&rx).expect("re-sent"), grant(0));
        assert_eq!(session.admit(1), Admit::InFlight);
        assert!(recv_frame(&rx).is_err(), "in-flight re-send stays silent");
    }

    #[test]
    fn resume_replays_only_unseen_answers_in_order() {
        let (tx, _rx) = ConnSender::sink();
        let session = Session::new(7, tx, 8);
        for seq in 0..4 {
            assert_eq!(session.admit(seq), Admit::Fresh);
            session.deliver(seq, grant(seq), None);
        }
        assert_eq!(session.ring_len(), 4);
        let (new_tx, new_rx) = ConnSender::sink();
        let replayed = session.resume(new_tx, 1);
        assert_eq!(replayed, 2);
        assert_eq!(
            recv_frame(&new_rx).expect("resumed header"),
            Frame::Resumed {
                session: 7,
                replayed: 2
            }
        );
        assert_eq!(recv_frame(&new_rx).expect("first replay"), grant(2));
        assert_eq!(recv_frame(&new_rx).expect("second replay"), grant(3));
        assert!(recv_frame(&new_rx).is_err());
    }

    #[test]
    fn resume_none_replays_everything() {
        let (tx, _rx) = ConnSender::sink();
        let session = Session::new(9, tx, 8);
        for seq in 0..3 {
            session.admit(seq);
            session.deliver(seq, grant(seq), None);
        }
        let (new_tx, new_rx) = ConnSender::sink();
        assert_eq!(session.resume(new_tx, RESUME_NONE), 3);
        // Resumed header plus all three answers.
        assert!(matches!(
            recv_frame(&new_rx),
            Ok(Frame::Resumed { replayed: 3, .. })
        ));
        for seq in 0..3 {
            assert_eq!(recv_frame(&new_rx).expect("replay"), grant(seq));
        }
    }

    #[test]
    fn eviction_moves_the_watermark_and_reschedules() {
        let (tx, rx) = ConnSender::sink();
        let session = Session::new(3, tx, 2);
        for seq in 0..4 {
            session.admit(seq);
            session.deliver(seq, grant(seq), None);
        }
        lock_unpoisoned(&rx).clear();
        // Answers 0 and 1 were evicted (cap 2): re-requesting them is
        // Fresh (reschedule), while 2 and 3 replay from the ring.
        assert_eq!(session.admit(0), Admit::Fresh);
        assert_eq!(session.admit(1), Admit::Fresh);
        assert_eq!(session.admit(2), Admit::Resent);
        assert_eq!(session.admit(3), Admit::Resent);
    }

    #[test]
    fn delivery_records_even_when_nothing_reads_the_sink() {
        let (tx, rx) = ConnSender::sink();
        let session = Session::new(5, tx, 8);
        session.admit(0);
        session.deliver(0, grant(0), None);
        drop(rx);
        let (new_tx, new_rx) = ConnSender::sink();
        assert_eq!(session.resume(new_tx, RESUME_NONE), 1);
        assert!(matches!(recv_frame(&new_rx), Ok(Frame::Resumed { .. })));
        assert_eq!(recv_frame(&new_rx).expect("kept for replay"), grant(0));
    }

    #[test]
    fn registry_round_trip() {
        let registry = SessionRegistry::default();
        let (tx, _rx) = ConnSender::sink();
        let session = std::sync::Arc::new(Session::new(11, tx, 4));
        registry.insert(&session);
        assert!(registry.get(11).is_some());
        assert!(registry.get(12).is_none());
        session.admit(0);
        session.deliver(0, grant(0), None);
        assert_eq!(registry.occupancy(), (1, 1));
        registry.remove(11);
        assert!(registry.get(11).is_none());
        assert_eq!(registry.occupancy(), (0, 0));
    }
}

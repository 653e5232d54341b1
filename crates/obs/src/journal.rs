//! The ring-buffered event collector.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::{Event, EventKind};

/// A journal entry: the event plus its ring sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// 0-based position among emitted events, stable across ring eviction.
    pub seq: u64,
    /// The event itself.
    pub event: Event,
}

#[derive(Debug)]
struct Inner {
    ring: VecDeque<EventRecord>,
    capacity: usize,
    next_seq: u64,
    evicted: u64,
}

/// An enabled journal: exact per-kind emission counts (relaxed atomics,
/// readable without the ring lock) plus the ring itself.
#[derive(Debug)]
struct Shared {
    counts: [AtomicU64; EventKind::COUNT],
    inner: Mutex<Inner>,
}

/// A shared handle to an event journal, or a no-op sink.
///
/// Cloning shares the underlying buffer, so one journal can collect from the
/// scheduler and the engine at once. [`Journal::disabled`] (also the
/// `Default`) carries no buffer at all: [`emit_with`](Journal::emit_with) on
/// it is a single branch and never builds the event, which is what keeps
/// instrumented hot paths within the ≤5 % no-op overhead budget.
///
/// # Example
///
/// ```
/// use vod_obs::{Event, EventKind, Journal};
///
/// let journal = Journal::with_capacity(16);
/// let shared = journal.clone();
/// shared.emit(Event::RequestArrived { slot: 3 });
/// assert_eq!(journal.len(), 1);
/// assert_eq!(journal.count_of(EventKind::RequestArrived), 1);
///
/// let off = Journal::disabled();
/// off.emit_with(|| unreachable!("never built when disabled"));
/// assert_eq!(off.len(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Journal {
    shared: Option<Arc<Shared>>,
}

impl Journal {
    /// Default ring capacity: large enough that a full `vodsim trace` run
    /// keeps every event.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// A no-op sink: emissions are discarded without building the event.
    #[must_use]
    pub fn disabled() -> Self {
        Journal { shared: None }
    }

    /// An enabled journal with the default ring capacity.
    #[must_use]
    pub fn enabled() -> Self {
        Journal::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An enabled journal keeping at most `capacity` most-recent events.
    /// Per-kind counts stay exact even after eviction.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Journal {
            shared: Some(Arc::new(Shared {
                counts: std::array::from_fn(|_| AtomicU64::new(0)),
                inner: Mutex::new(Inner {
                    ring: VecDeque::new(),
                    capacity,
                    next_seq: 0,
                    evicted: 0,
                }),
            })),
        }
    }

    /// Whether emissions are collected.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Records `event`; drops it silently when disabled.
    #[inline]
    pub fn emit(&self, event: Event) {
        if let Some(shared) = &self.shared {
            shared.push(event);
        }
    }

    /// Records the event built by `build`, calling it only when enabled.
    #[inline]
    pub fn emit_with(&self, build: impl FnOnce() -> Event) {
        if let Some(shared) = &self.shared {
            shared.push(build());
        }
    }

    /// Number of events currently buffered (0 when disabled).
    #[must_use]
    pub fn len(&self) -> usize {
        self.with_inner(|inner| inner.ring.len()).unwrap_or(0)
    }

    /// Whether the buffer is empty (always true when disabled).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events emitted over the journal's lifetime (eviction-proof).
    #[must_use]
    pub fn total_emitted(&self) -> u64 {
        self.shared.as_ref().map_or(0, |shared| {
            shared
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .sum()
        })
    }

    /// Events evicted from the ring because it was full.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.with_inner(|inner| inner.evicted).unwrap_or(0)
    }

    /// Lifetime emission count for one event kind (eviction-proof).
    #[must_use]
    pub fn count_of(&self, kind: EventKind) -> u64 {
        self.shared
            .as_ref()
            .map_or(0, |s| s.counts[kind.index()].load(Ordering::Relaxed))
    }

    /// A copy of the buffered records, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<EventRecord> {
        self.with_inner(|inner| inner.ring.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Removes and returns the buffered records, oldest first. Counts and
    /// sequence numbers are preserved.
    #[must_use]
    pub fn drain(&self) -> Vec<EventRecord> {
        self.with_inner(|inner| inner.ring.drain(..).collect())
            .unwrap_or_default()
    }

    /// True when `other` is a clone of this journal, i.e. both handles write
    /// into the same ring buffer.
    #[must_use]
    pub fn shares_buffer_with(&self, other: &Journal) -> bool {
        match (&self.shared, &other.shared) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// A fresh journal with this one's enabled-ness and ring capacity but
    /// its own buffer — the per-thread sink a parallel runner hands each
    /// worker, folded back afterwards with [`absorb`](Journal::absorb).
    #[must_use]
    pub fn worker(&self) -> Journal {
        let Some(shared) = &self.shared else {
            return Journal::disabled();
        };
        let capacity = shared.inner.lock().expect("journal lock poisoned").capacity;
        Journal::with_capacity(capacity)
    }

    /// Drains `other` and re-emits its buffered events here, in their
    /// original order, under this journal's sequence numbering. A no-op
    /// when either side is disabled or when `other` shares this buffer
    /// (absorbing a clone of ourselves would duplicate every event).
    pub fn absorb(&self, other: &Journal) {
        let Some(shared) = &self.shared else { return };
        if self.shares_buffer_with(other) {
            return;
        }
        for record in other.drain() {
            shared.push(record.event);
        }
    }

    fn with_inner<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> Option<R> {
        self.shared
            .as_ref()
            .map(|shared| f(&mut shared.inner.lock().expect("journal lock poisoned")))
    }
}

impl Shared {
    fn push(&self, event: Event) {
        self.counts[event.kind().index()].fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().expect("journal lock poisoned");
        if inner.ring.len() == inner.capacity {
            inner.ring.pop_front();
            inner.evicted += 1;
        }
        let seq = inner.next_seq;
        inner.ring.push_back(EventRecord { seq, event });
        inner.next_seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrival(slot: u64) -> Event {
        Event::RequestArrived { slot }
    }

    #[test]
    fn disabled_journal_collects_nothing() {
        let j = Journal::disabled();
        assert!(!j.is_enabled());
        j.emit(arrival(1));
        j.emit_with(|| panic!("must not be built"));
        assert!(j.is_empty());
        assert_eq!(j.total_emitted(), 0);
        assert_eq!(j.count_of(EventKind::RequestArrived), 0);
        assert!(j.snapshot().is_empty());
    }

    #[test]
    fn clones_share_the_buffer() {
        let a = Journal::with_capacity(8);
        let b = a.clone();
        a.emit(arrival(0));
        b.emit(arrival(1));
        assert_eq!(a.len(), 2);
        assert_eq!(b.total_emitted(), 2);
        let records = a.snapshot();
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[1].seq, 1);
    }

    #[test]
    fn ring_evicts_oldest_but_counts_stay_exact() {
        let j = Journal::with_capacity(3);
        for slot in 0..5 {
            j.emit(arrival(slot));
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.evicted(), 2);
        assert_eq!(j.total_emitted(), 5);
        assert_eq!(j.count_of(EventKind::RequestArrived), 5);
        let records = j.snapshot();
        assert_eq!(records[0].seq, 2);
        assert_eq!(records[0].event, arrival(2));
        assert_eq!(records[2].seq, 4);
    }

    #[test]
    fn drain_empties_but_keeps_counts() {
        let j = Journal::with_capacity(8);
        j.emit(arrival(0));
        j.emit(Event::SlotClosed {
            slot: 0,
            scheduled: 1,
            transmitted: 1,
        });
        let drained = j.drain();
        assert_eq!(drained.len(), 2);
        assert!(j.is_empty());
        assert_eq!(j.total_emitted(), 2);
        assert_eq!(j.count_of(EventKind::SlotClosed), 1);
        // New emissions continue the sequence.
        j.emit(arrival(9));
        assert_eq!(j.snapshot()[0].seq, 2);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let j = Journal::with_capacity(0);
        j.emit(arrival(0));
        j.emit(arrival(1));
        assert_eq!(j.len(), 1);
        assert_eq!(j.total_emitted(), 2);
    }

    #[test]
    fn absorb_folds_a_worker_buffer_back_in_order() {
        let parent = Journal::with_capacity(64);
        parent.emit(arrival(0));
        let worker = parent.worker();
        assert!(!worker.shares_buffer_with(&parent));
        for slot in 1..4 {
            worker.emit(arrival(slot));
        }
        parent.absorb(&worker);
        assert!(worker.is_empty());
        assert_eq!(parent.count_of(EventKind::RequestArrived), 4);
        let records = parent.snapshot();
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(records[3].event, arrival(3));
    }
}

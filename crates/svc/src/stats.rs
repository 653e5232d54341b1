//! Lock-free cumulative service counters.

use std::sync::atomic::{AtomicU64, Ordering};

use vod_obs::{Registry, RejectKind};

/// Shared counters for one [`Service`](crate::Service) instance.
///
/// Every counter is a cumulative relaxed atomic, so hot paths never lock.
/// This is the only record of the service's counts: a scraper derives
/// rates by differencing two snapshots over their `svc.snapshot.mono_ns`
/// stamps, and latency lives in the span histograms
/// (`svc.span.shard{N}.*`).
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Connections accepted.
    pub conns: AtomicU64,
    /// Request frames received (admitted or not).
    pub requests: AtomicU64,
    /// Grants scheduled and handed to connection writers.
    pub grants: AtomicU64,
    /// Requests shed because the target shard's queue was full.
    pub rejected_queue_full: AtomicU64,
    /// Requests refused because the service was draining.
    pub rejected_draining: AtomicU64,
    /// Requests naming a video outside the catalog.
    pub rejected_unknown_video: AtomicU64,
    /// Requests naming a catalog video whose entry failed validation.
    pub rejected_invalid_video: AtomicU64,
    /// Requests shed because the target shard exhausted its restart budget.
    pub rejected_shard_down: AtomicU64,
    /// Resume attempts naming a session the registry does not hold.
    pub rejected_unknown_session: AtomicU64,
    /// Connections dropped after malformed or out-of-role frames.
    pub protocol_errors: AtomicU64,
    /// Segment instances popped from slot rings while advancing schedulers.
    pub instances_aired: AtomicU64,
    /// Granted segment instances checked against their timeliness deadline
    /// (every grant is audited).
    pub audit_segments_checked: AtomicU64,
    /// Granted instances that violated `arrival < slot ≤ arrival + T[j]`.
    /// Any non-zero value is a scheduler bug; the CI catalog smoke asserts
    /// this stays zero.
    pub audit_deadline_misses: AtomicU64,
    /// Shard worker panics caught by the supervisor (injected or real).
    pub shard_panics: AtomicU64,
    /// Successful shard restarts (scheduler rebuilt from the state journal).
    pub shard_restarts: AtomicU64,
    /// Shards disabled after exhausting their restart budget.
    pub shards_down: AtomicU64,
    /// Entries dropped from shard state journals because history exceeded
    /// the journal cap; a rebuild past this point is approximate.
    pub shard_journal_truncated: AtomicU64,
    /// Sessions successfully adopted by a reconnecting client.
    pub sessions_resumed: AtomicU64,
    /// Answer frames replayed from session rings during resumes.
    pub grants_replayed: AtomicU64,
    /// Re-sent requests deduplicated against the session watermark
    /// (answer re-sent from the ring or left to the in-flight original).
    pub requests_deduped: AtomicU64,
    /// Connection resets injected by the chaos plan.
    pub chaos_conn_resets: AtomicU64,
    /// Writer stalls injected by the chaos plan.
    pub chaos_writer_stalls: AtomicU64,
    /// Data-plane ring publications (one per scheduled segment instance).
    pub ring_published: AtomicU64,
    /// Data-plane deliveries queued (publication × subscriber pairs); with
    /// fan-out, `ring_fanout ≫ ring_published` while each publication's
    /// payload was encoded exactly once.
    pub ring_fanout: AtomicU64,
    /// Publications lost to lapped subscribers (evicted-with-overrun).
    pub ring_evictions: AtomicU64,
    /// Gap events reported to lapped subscribers.
    pub ring_gaps: AtomicU64,
    /// Segment payload bytes queued for delivery across all subscribers.
    pub bytes_delivered: AtomicU64,
    /// Sequence numbers a re-subscribing session skipped past because its
    /// channel ring had moved on while it was away (reported, not silent).
    pub ring_resume_gaps: AtomicU64,
}

impl ServiceStats {
    /// Bumps the rejection counter matching `reason`.
    pub fn count_rejection(&self, reason: RejectKind) {
        let counter = match reason {
            RejectKind::QueueFull => &self.rejected_queue_full,
            RejectKind::Draining => &self.rejected_draining,
            RejectKind::UnknownVideo => &self.rejected_unknown_video,
            RejectKind::InvalidVideo => &self.rejected_invalid_video,
            RejectKind::ShardDown => &self.rejected_shard_down,
            RejectKind::UnknownSession => &self.rejected_unknown_session,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Total rejections across all reasons.
    #[must_use]
    pub fn rejected_total(&self) -> u64 {
        self.rejected_queue_full.load(Ordering::Relaxed)
            + self.rejected_draining.load(Ordering::Relaxed)
            + self.rejected_unknown_video.load(Ordering::Relaxed)
            + self.rejected_invalid_video.load(Ordering::Relaxed)
            + self.rejected_shard_down.load(Ordering::Relaxed)
            + self.rejected_unknown_session.load(Ordering::Relaxed)
    }

    /// A point-in-time metrics registry (what the `STATS` frame returns).
    #[must_use]
    pub fn snapshot(&self) -> Registry {
        let mut r = Registry::new();
        *r.ensure_counter("svc.conns") = self.conns.load(Ordering::Relaxed);
        *r.ensure_counter("svc.requests") = self.requests.load(Ordering::Relaxed);
        *r.ensure_counter("svc.grants") = self.grants.load(Ordering::Relaxed);
        *r.ensure_counter("svc.rejected.queue_full") =
            self.rejected_queue_full.load(Ordering::Relaxed);
        *r.ensure_counter("svc.rejected.draining") = self.rejected_draining.load(Ordering::Relaxed);
        *r.ensure_counter("svc.rejected.unknown_video") =
            self.rejected_unknown_video.load(Ordering::Relaxed);
        *r.ensure_counter("svc.rejected.invalid_video") =
            self.rejected_invalid_video.load(Ordering::Relaxed);
        *r.ensure_counter("svc.rejected.shard_down") =
            self.rejected_shard_down.load(Ordering::Relaxed);
        *r.ensure_counter("svc.rejected.unknown_session") =
            self.rejected_unknown_session.load(Ordering::Relaxed);
        *r.ensure_counter("svc.protocol_errors") = self.protocol_errors.load(Ordering::Relaxed);
        *r.ensure_counter("svc.instances_aired") = self.instances_aired.load(Ordering::Relaxed);
        *r.ensure_counter("svc.audit.segments_checked") =
            self.audit_segments_checked.load(Ordering::Relaxed);
        *r.ensure_counter("svc.audit.deadline_misses") =
            self.audit_deadline_misses.load(Ordering::Relaxed);
        *r.ensure_counter("svc.shard.panics") = self.shard_panics.load(Ordering::Relaxed);
        *r.ensure_counter("svc.shard.restarts") = self.shard_restarts.load(Ordering::Relaxed);
        *r.ensure_counter("svc.shard.down") = self.shards_down.load(Ordering::Relaxed);
        *r.ensure_counter("svc.shard.journal_truncated") =
            self.shard_journal_truncated.load(Ordering::Relaxed);
        *r.ensure_counter("svc.sessions.resumed") = self.sessions_resumed.load(Ordering::Relaxed);
        *r.ensure_counter("svc.sessions.replayed_grants") =
            self.grants_replayed.load(Ordering::Relaxed);
        *r.ensure_counter("svc.requests.deduped") = self.requests_deduped.load(Ordering::Relaxed);
        *r.ensure_counter("svc.chaos.conn_resets") = self.chaos_conn_resets.load(Ordering::Relaxed);
        *r.ensure_counter("svc.chaos.writer_stalls") =
            self.chaos_writer_stalls.load(Ordering::Relaxed);
        *r.ensure_counter("svc.ring.published") = self.ring_published.load(Ordering::Relaxed);
        *r.ensure_counter("svc.ring.fanout") = self.ring_fanout.load(Ordering::Relaxed);
        *r.ensure_counter("svc.ring.evictions") = self.ring_evictions.load(Ordering::Relaxed);
        *r.ensure_counter("svc.ring.gaps") = self.ring_gaps.load(Ordering::Relaxed);
        *r.ensure_counter("svc.bytes_delivered") = self.bytes_delivered.load(Ordering::Relaxed);
        *r.ensure_counter("svc.ring.resume_gaps") = self.ring_resume_gaps.load(Ordering::Relaxed);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resilience_counters_round_trip_through_snapshots() {
        let stats = ServiceStats::default();
        stats.requests.fetch_add(3, Ordering::Relaxed);
        stats.grants.fetch_add(2, Ordering::Relaxed);
        stats.count_rejection(RejectKind::QueueFull);
        stats.count_rejection(RejectKind::ShardDown);
        stats.count_rejection(RejectKind::UnknownSession);
        stats.shard_panics.fetch_add(2, Ordering::Relaxed);
        stats.shard_restarts.fetch_add(1, Ordering::Relaxed);
        stats.sessions_resumed.fetch_add(1, Ordering::Relaxed);
        stats.grants_replayed.fetch_add(5, Ordering::Relaxed);
        let r = stats.snapshot();
        assert_eq!(r.counter("svc.requests"), 3);
        assert_eq!(r.counter("svc.grants"), 2);
        assert_eq!(r.counter("svc.rejected.queue_full"), 1);
        assert_eq!(r.counter("svc.rejected.shard_down"), 1);
        assert_eq!(r.counter("svc.rejected.unknown_session"), 1);
        assert_eq!(r.counter("svc.shard.panics"), 2);
        assert_eq!(r.counter("svc.shard.restarts"), 1);
        assert_eq!(r.counter("svc.sessions.resumed"), 1);
        assert_eq!(r.counter("svc.sessions.replayed_grants"), 5);
        assert_eq!(stats.rejected_total(), 3);
    }

    #[test]
    fn ring_counters_round_trip_through_snapshots() {
        let stats = ServiceStats::default();
        stats.ring_published.fetch_add(3, Ordering::Relaxed);
        stats.ring_fanout.fetch_add(96, Ordering::Relaxed);
        stats.ring_evictions.fetch_add(2, Ordering::Relaxed);
        stats.ring_gaps.fetch_add(1, Ordering::Relaxed);
        stats.bytes_delivered.fetch_add(4096, Ordering::Relaxed);
        stats.ring_resume_gaps.fetch_add(17, Ordering::Relaxed);
        let r = stats.snapshot();
        assert_eq!(r.counter("svc.ring.published"), 3);
        assert_eq!(r.counter("svc.ring.fanout"), 96);
        assert_eq!(r.counter("svc.ring.evictions"), 2);
        assert_eq!(r.counter("svc.ring.gaps"), 1);
        assert_eq!(r.counter("svc.bytes_delivered"), 4096);
        assert_eq!(r.counter("svc.ring.resume_gaps"), 17);
    }
}

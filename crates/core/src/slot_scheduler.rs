//! The protocol-generic scheduling abstraction.
//!
//! [`SlotScheduler`] is the one interface every serving layer speaks:
//! request in, per-segment grants out, plus a probe into the future slot
//! ring and a small stats snapshot. [`DhbScheduler`] implements it for all
//! heuristics and period vectors; `vod-protocols` contributes an NPB
//! adapter; [`PlanScheduler`] backs it with per-segment periods from the
//! VBR pipeline ([`vod_trace::BroadcastPlan`], the paper's DHB-d). Shards
//! in the live service hold a `Box<dyn SlotScheduler + Send>` and never
//! special-case DHB again.

use vod_trace::BroadcastPlan;
use vod_types::{SegmentId, Slot};

use crate::heuristic::SlotHeuristic;
use crate::scheduler::{DhbScheduler, ScheduledSegment, SchedulerError};

/// Cumulative counters common to every [`SlotScheduler`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Requests scheduled.
    pub requests: u64,
    /// Segment instances newly placed on the ring.
    pub new_instances: u64,
    /// Requests served by sharing an already-scheduled instance.
    pub shared_instances: u64,
    /// Playback deferral accumulated by fault recovery, in slots.
    pub stall_slots: u64,
}

/// A slotted broadcast scheduler: the protocol-agnostic contract between
/// the scheduling cores and everything that serves or simulates them.
///
/// Time is a ring of future slots; [`next_slot`](Self::next_slot) is the
/// slot about to air. A request arriving during slot `i` is scheduled with
/// [`schedule_request`](Self::schedule_request) and receives one grant per
/// segment; [`pop_slot`](Self::pop_slot) advances time and yields the
/// transmissions. Implementations must be deterministic: the same arrival
/// sequence must always yield byte-identical grants, so a live service can
/// be audited against an offline replay.
pub trait SlotScheduler {
    /// Human-readable protocol name (e.g. `"DHB"`, `"NPB"`, `"DHB-d"`).
    fn name(&self) -> &str;

    /// Number of segments in the video.
    fn n_segments(&self) -> usize;

    /// Per-segment maximum periods `T[1..=n]` (`periods()[j-1] = T[j]`):
    /// the guarantee each grant must satisfy.
    fn periods(&self) -> &[u64];

    /// The next slot to be transmitted.
    fn next_slot(&self) -> Slot;

    /// Schedules a request arriving during `arrival` and returns the full
    /// per-segment transmission schedule granted to that customer.
    fn schedule_request(&mut self, arrival: Slot) -> Vec<ScheduledSegment>;

    /// Advances time by one slot, returning the slot that aired and the
    /// segment instances transmitted in it.
    fn pop_slot(&mut self) -> (Slot, Vec<SegmentId>);

    /// Probe: the segments currently planned for a future `slot`
    /// (empty for past slots or beyond the planning horizon).
    fn planned_segments(&self, slot: Slot) -> Vec<SegmentId>;

    /// A point-in-time snapshot of the cumulative counters.
    fn stats(&self) -> SchedulerStats;
}

impl SlotScheduler for DhbScheduler {
    fn name(&self) -> &str {
        "DHB"
    }

    fn n_segments(&self) -> usize {
        DhbScheduler::n_segments(self)
    }

    fn periods(&self) -> &[u64] {
        DhbScheduler::periods(self)
    }

    fn next_slot(&self) -> Slot {
        DhbScheduler::next_slot(self)
    }

    fn schedule_request(&mut self, arrival: Slot) -> Vec<ScheduledSegment> {
        DhbScheduler::schedule_request(self, arrival)
    }

    fn pop_slot(&mut self) -> (Slot, Vec<SegmentId>) {
        DhbScheduler::pop_slot(self)
    }

    fn planned_segments(&self, slot: Slot) -> Vec<SegmentId> {
        DhbScheduler::planned_segments(self, slot)
    }

    fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            requests: self.requests(),
            new_instances: self.new_instances(),
            shared_instances: self.shared_instances(),
            stall_slots: self.stall_slots(),
        }
    }
}

/// A [`DhbScheduler`] carrying the name and period vector of a
/// [`BroadcastPlan`] — the DHB-d pipeline's output made servable.
///
/// The VBR analysis in `vod-trace` reduces a frame trace to per-segment
/// maximum periods; this wrapper runs the unmodified DHB window search over
/// those periods while reporting the variant's name (`"DHB-d"` etc.) through
/// the [`SlotScheduler`] probe, so catalogs can mix CBR and VBR entries.
#[derive(Debug, Clone)]
pub struct PlanScheduler {
    name: String,
    inner: DhbScheduler,
}

impl PlanScheduler {
    /// Builds a scheduler from a VBR broadcast plan's period vector.
    ///
    /// # Errors
    ///
    /// Propagates [`SchedulerError`] if the plan's period vector is empty
    /// or contains a zero.
    pub fn try_from_plan(plan: &BroadcastPlan) -> Result<Self, SchedulerError> {
        PlanScheduler::try_from_periods(plan.variant.to_string(), plan.periods.clone())
    }

    /// Builds a named scheduler from an explicit period vector with the
    /// paper's min-load/latest heuristic.
    ///
    /// # Errors
    ///
    /// Propagates [`SchedulerError`] for an empty or zero-containing
    /// vector.
    pub fn try_from_periods(
        name: impl Into<String>,
        periods: Vec<u64>,
    ) -> Result<Self, SchedulerError> {
        Ok(PlanScheduler {
            name: name.into(),
            inner: DhbScheduler::try_new(periods, SlotHeuristic::MinLoadLatest)?,
        })
    }

    /// The wrapped DHB scheduler.
    #[must_use]
    pub fn scheduler(&self) -> &DhbScheduler {
        &self.inner
    }
}

impl SlotScheduler for PlanScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn n_segments(&self) -> usize {
        self.inner.n_segments()
    }

    fn periods(&self) -> &[u64] {
        self.inner.periods()
    }

    fn next_slot(&self) -> Slot {
        self.inner.next_slot()
    }

    fn schedule_request(&mut self, arrival: Slot) -> Vec<ScheduledSegment> {
        self.inner.schedule_request(arrival)
    }

    fn pop_slot(&mut self) -> (Slot, Vec<SegmentId>) {
        self.inner.pop_slot()
    }

    fn planned_segments(&self, slot: Slot) -> Vec<SegmentId> {
        self.inner.planned_segments(slot)
    }

    fn stats(&self) -> SchedulerStats {
        SlotScheduler::stats(&self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_trace::matrix::matrix_like;
    use vod_trace::DhbVariant;
    use vod_types::Seconds;

    #[test]
    fn dhb_scheduler_speaks_the_trait() {
        let mut s: Box<dyn SlotScheduler> = Box::new(DhbScheduler::fixed_rate(6));
        assert_eq!(s.name(), "DHB");
        assert_eq!(s.n_segments(), 6);
        assert_eq!(s.periods(), &[1, 2, 3, 4, 5, 6]);
        let grants = s.schedule_request(Slot::new(0));
        assert_eq!(grants.len(), 6);
        let planned = s.planned_segments(grants[0].slot);
        assert!(planned.contains(&grants[0].segment));
        let stats = s.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.new_instances, 6);
        let (slot, aired) = s.pop_slot();
        assert_eq!(slot, Slot::new(0));
        assert!(aired.is_empty(), "nothing scheduled for the arrival slot");
    }

    #[test]
    fn plan_scheduler_carries_the_variant_name_and_periods() {
        let plan = BroadcastPlan::for_variant(&matrix_like(1), DhbVariant::D, Seconds::new(60.0));
        let s = PlanScheduler::try_from_plan(&plan).expect("valid plan");
        assert_eq!(s.name(), "DHB-d");
        assert_eq!(s.periods(), plan.periods.as_slice());
        assert_eq!(s.n_segments(), plan.n_segments);
    }

    #[test]
    fn trait_backed_replay_matches_direct_scheduler_calls() {
        let arrivals = [0u64, 0, 3, 7, 7, 12];
        let mut direct = DhbScheduler::fixed_rate(9);
        let mut boxed: Box<dyn SlotScheduler> = Box::new(DhbScheduler::fixed_rate(9));
        for &a in &arrivals {
            while direct.next_slot().index() < a {
                let _ = direct.pop_slot();
            }
            while boxed.next_slot().index() < a {
                let _ = boxed.pop_slot();
            }
            assert_eq!(
                direct.schedule_request(Slot::new(a)),
                boxed.schedule_request(Slot::new(a)),
                "grants must be byte-identical through the trait"
            );
        }
    }

    #[test]
    fn try_new_rejects_bad_period_vectors() {
        assert_eq!(
            DhbScheduler::try_new(vec![], SlotHeuristic::MinLoadLatest).unwrap_err(),
            SchedulerError::EmptyPeriods
        );
        assert_eq!(
            DhbScheduler::try_new(vec![1, 0, 3], SlotHeuristic::MinLoadLatest).unwrap_err(),
            SchedulerError::ZeroPeriod { segment: 2 }
        );
        assert!(DhbScheduler::try_new(vec![1, 2, 3], SlotHeuristic::MinLoadLatest).is_ok());
        let err = SchedulerError::ZeroPeriod { segment: 2 };
        assert!(err.to_string().contains("S_2"), "{err}");
    }
}

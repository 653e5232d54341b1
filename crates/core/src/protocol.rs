//! The [`vod_sim::SlottedProtocol`] adapter and the Section-4 VBR variants.

use vod_sim::{SlotOutcome, SlottedProtocol};
use vod_trace::BroadcastPlan;
use vod_types::{SegmentId, Slot};

use crate::heuristic::SlotHeuristic;
use crate::scheduler::{DhbScheduler, RecoveryStats};

/// The DHB protocol, ready to drive through the slotted simulation engine.
///
/// # Example
///
/// ```
/// use dhb_core::{Dhb, SlotHeuristic};
/// use vod_sim::{PoissonProcess, SlottedRun};
/// use vod_types::{ArrivalRate, VideoSpec};
///
/// let video = VideoSpec::paper_two_hour();
/// let mut dhb = Dhb::fixed_rate(99);
/// let report = SlottedRun::new(video)
///     .measured_slots(2_000)
///     .run(&mut dhb, PoissonProcess::new(ArrivalRate::per_hour(100.0)));
/// let stats = dhb.stats();
/// // At 100 req/h most segment needs are served by sharing (the paper's
/// // point about scheduling cost at high rates).
/// assert!(stats.sharing_ratio() > 0.5);
/// # assert!(report.avg_bandwidth.get() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Dhb {
    name: String,
    scheduler: DhbScheduler,
    record_assignments: bool,
    assignments: Vec<(Slot, Vec<crate::scheduler::ScheduledSegment>)>,
    playback_delay_slots: u64,
    /// Segments aired by the most recent `transmissions_in`, kept so
    /// `on_slot_outcome` can map dropped transmission indices back to
    /// segments.
    last_transmitted: Vec<SegmentId>,
}

impl Dhb {
    fn from_scheduler(name: String, scheduler: DhbScheduler, playback_delay_slots: u64) -> Self {
        Dhb {
            name,
            scheduler,
            record_assignments: false,
            assignments: Vec::new(),
            playback_delay_slots,
            last_transmitted: Vec::new(),
        }
    }

    /// Fixed-rate DHB for `n` segments (`T[j] = j`, min-load/latest
    /// heuristic) — the paper's Figure 7/8 configuration.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn fixed_rate(n: usize) -> Self {
        Dhb::from_scheduler("DHB".to_owned(), DhbScheduler::fixed_rate(n), 0)
    }

    /// Fixed-rate DHB with an alternative slot heuristic (ablations).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn with_heuristic(n: usize, heuristic: SlotHeuristic) -> Self {
        Dhb::from_scheduler(
            format!("DHB[{heuristic}]"),
            DhbScheduler::new((1..=n as u64).collect(), heuristic),
            0,
        )
    }

    /// DHB configured from a Section-4 [`BroadcastPlan`] (segment count and
    /// per-segment maximum periods `T[i]`; the plan's stream rate converts
    /// the simulator's stream counts into Figure 9's MB/s).
    ///
    /// Variants B/C/D adopt the paper's deterministic waiting time — each
    /// segment fully buffered before it is watched — which the engine's
    /// waiting-time statistics see as one extra slot of playback delay.
    #[must_use]
    pub fn from_plan(plan: &BroadcastPlan) -> Self {
        Dhb::from_scheduler(
            plan.variant.to_string(),
            DhbScheduler::new(plan.periods.clone(), SlotHeuristic::MinLoadLatest),
            u64::from(plan.variant != vod_trace::DhbVariant::A),
        )
    }

    /// Fixed-rate DHB whose clients may receive at most `limit` streams per
    /// slot (the paper's Section-5 future work).
    ///
    /// # Panics
    ///
    /// Panics if `n` or `limit` is zero.
    #[must_use]
    pub fn with_client_limit(n: usize, limit: u32) -> Self {
        Dhb::from_scheduler(
            format!("DHB[≤{limit} rx]"),
            DhbScheduler::fixed_rate(n).with_client_limit(limit),
            0,
        )
    }

    /// Fixed-rate DHB steering new instances away from slots loaded to
    /// `cap` (the paper's Section-5 peak-reduction direction).
    ///
    /// # Panics
    ///
    /// Panics if `n` or `cap` is zero.
    #[must_use]
    pub fn with_load_cap(n: usize, cap: u32) -> Self {
        Dhb::from_scheduler(
            format!("DHB[cap {cap}]"),
            DhbScheduler::fixed_rate(n).with_load_cap(cap),
            0,
        )
    }

    /// Attaches a structured event journal to the underlying scheduler (see
    /// [`DhbScheduler::with_journal`]). Pass a clone of the journal handed to
    /// the engine's observer so scheduling and engine events interleave in
    /// one stream.
    #[must_use]
    pub fn with_journal(mut self, journal: vod_obs::Journal) -> Self {
        self.scheduler = self.scheduler.with_journal(journal);
        self
    }

    /// Scheduling statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> DhbStats {
        DhbStats {
            requests: self.scheduler.requests(),
            new_instances: self.scheduler.new_instances(),
            shared_instances: self.scheduler.shared_instances(),
            duplicate_instances: self.scheduler.duplicate_instances(),
            cap_overflows: self.scheduler.cap_overflows(),
            recovery: self.scheduler.recovery_stats(),
        }
    }

    /// Fault-recovery counters accumulated so far (all zero on fault-free
    /// runs).
    #[must_use]
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.scheduler.recovery_stats()
    }

    /// Read access to the underlying scheduler (rendering, inspection).
    #[must_use]
    pub fn scheduler(&self) -> &DhbScheduler {
        &self.scheduler
    }

    /// Keeps every request's per-segment assignment for later analysis
    /// (costs memory proportional to requests × segments — use on bounded
    /// runs).
    #[must_use]
    pub fn recording_assignments(mut self) -> Self {
        self.record_assignments = true;
        self
    }

    /// The recorded assignments (empty unless
    /// [`recording_assignments`](Self::recording_assignments) was enabled).
    #[must_use]
    pub fn assignments(&self) -> &[(Slot, Vec<crate::scheduler::ScheduledSegment>)] {
        &self.assignments
    }

    /// Worst-case client demands derived from the recorded assignments —
    /// unlike the eager all-streams model, this reflects what each client
    /// was actually scheduled to receive, so it honours receive limits.
    ///
    /// Returns `None` when nothing was recorded.
    #[must_use]
    pub fn assignment_client_demands(&self) -> Option<crate::audit::ClientDemands> {
        if self.assignments.is_empty() {
            return None;
        }
        let periods = self.scheduler.periods();
        let mut worst_concurrent = 0u32;
        let mut worst_buffer = 0usize;
        for (arrival, schedule) in &self.assignments {
            let mut per_slot: std::collections::HashMap<u64, u32> =
                std::collections::HashMap::new();
            for entry in schedule {
                *per_slot.entry(entry.slot.index()).or_insert(0) += 1;
            }
            worst_concurrent = worst_concurrent.max(per_slot.values().copied().max().unwrap_or(0));
            // Buffer at the end of slot s: received (assigned slot ≤ s) but
            // not yet consumed (consumption ends at arrival + T[j]).
            for s in (arrival.index() + 1)..=(arrival.index() + periods.len() as u64) {
                let buffered = schedule
                    .iter()
                    .enumerate()
                    .filter(|(idx, e)| e.slot.index() <= s && arrival.index() + periods[*idx] > s)
                    .count();
                worst_buffer = worst_buffer.max(buffered);
            }
        }
        Some(crate::audit::ClientDemands {
            complete_requests: self.assignments.len(),
            max_concurrent_streams: worst_concurrent,
            max_buffered_segments: worst_buffer,
        })
    }
}

impl SlottedProtocol for Dhb {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_request(&mut self, slot: Slot) {
        let schedule = self.scheduler.schedule_request(slot);
        if self.record_assignments {
            self.assignments.push((slot, schedule));
        }
    }

    fn transmissions_in(&mut self, slot: Slot) -> u32 {
        // The engine visits slots in order; fast-forward over any gap (slots
        // the engine processed before our first request arrived need no
        // state).
        while self.scheduler.next_slot() < slot {
            let _ = self.scheduler.pop_slot();
        }
        let (popped, segments) = self.scheduler.pop_slot();
        debug_assert_eq!(popped, slot, "engine must visit slots in order");
        self.last_transmitted = segments;
        self.last_transmitted.len() as u32
    }

    fn on_slot_outcome(&mut self, outcome: &SlotOutcome) {
        if outcome.dropped.is_empty() {
            return;
        }
        // Map the engine's dropped transmission indices back to segments
        // (the engine's index i is the i-th segment we reported airing) and
        // re-enter those needs with their remaining slack.
        let dropped: Vec<SegmentId> = outcome
            .dropped
            .iter()
            .map(|&(idx, _)| self.last_transmitted[idx as usize])
            .collect();
        self.scheduler.recover_dropped(&dropped);
    }

    fn stall_slots(&self) -> u64 {
        self.scheduler.stall_slots()
    }

    fn playback_delay_slots(&self) -> u64 {
        self.playback_delay_slots
    }
}

/// Scheduling counters: how much work the on-the-fly scheduler actually did.
///
/// The paper (Section 3, cost discussion): "the actual complexity of the
/// task will be greatly reduced at high arrival rates because most of the
/// segment instances required by a particular request would have been
/// already scheduled by some previous request". [`DhbStats::sharing_ratio`]
/// quantifies exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DhbStats {
    /// Requests scheduled.
    pub requests: u64,
    /// Segment instances newly placed.
    pub new_instances: u64,
    /// Segment needs satisfied by an existing instance.
    pub shared_instances: u64,
    /// Instances duplicated because sharing exceeded a client's receive
    /// limit (0 without a limit).
    pub duplicate_instances: u64,
    /// Instances forced into slots at or above the load cap (0 without a
    /// cap).
    pub cap_overflows: u64,
    /// Fault-recovery counters (all zero on fault-free runs).
    pub recovery: RecoveryStats,
}

impl DhbStats {
    /// Fraction of segment needs served by sharing (0 when idle).
    #[must_use]
    pub fn sharing_ratio(&self) -> f64 {
        let total = self.new_instances + self.shared_instances;
        if total == 0 {
            0.0
        } else {
            self.shared_instances as f64 / total as f64
        }
    }

    /// Average new instances per request (the per-request scheduling cost).
    #[must_use]
    pub fn new_instances_per_request(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.new_instances as f64 / self.requests as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_sim::{DeterministicArrivals, PoissonProcess, SlottedRun};
    use vod_types::{ArrivalRate, Seconds, VideoSpec};

    #[test]
    fn isolated_request_costs_n_slots_of_bandwidth() {
        let video = VideoSpec::new(Seconds::new(600.0), 6).unwrap();
        let mut dhb = Dhb::fixed_rate(6);
        let report = SlottedRun::new(video)
            .warmup_slots(0)
            .measured_slots(10)
            .run(
                &mut dhb,
                DeterministicArrivals::new(vec![Seconds::new(30.0)]),
            );
        // One request → 6 instances, one per slot (Fig. 4): avg 0.6, max 1.
        assert!((report.avg_bandwidth.get() - 0.6).abs() < 1e-9);
        assert_eq!(report.max_bandwidth.get(), 1.0);
        let stats = dhb.stats();
        assert_eq!(stats.new_instances, 6);
        assert_eq!(stats.shared_instances, 0);
        assert_eq!(stats.new_instances_per_request(), 6.0);
    }

    #[test]
    fn saturated_dhb_approaches_one_instance_per_segment_period() {
        // Under a request every slot, S_j is transmitted about once every j
        // slots: expected load per slot ≈ H_n (harmonic number).
        let n = 20usize;
        let video = VideoSpec::new(Seconds::new(2000.0), n).unwrap();
        let mut dhb = Dhb::fixed_rate(n);
        let times: Vec<Seconds> = (0..400).map(|s| Seconds::new(s as f64 * 100.0)).collect();
        let report = SlottedRun::new(video)
            .warmup_slots(50)
            .measured_slots(300)
            .run(&mut dhb, DeterministicArrivals::new(times));
        let h_n: f64 = (1..=n).map(|j| 1.0 / j as f64).sum();
        let avg = report.avg_bandwidth.get();
        assert!(
            (avg - h_n).abs() < 0.35,
            "avg {avg} vs harmonic bound {h_n}"
        );
        // Sharing dominates when every slot has a request.
        assert!(dhb.stats().sharing_ratio() > 0.8);
    }

    #[test]
    fn avg_bandwidth_monotone_in_rate_and_bounded_by_harmonic() {
        let video = VideoSpec::paper_two_hour();
        let h99: f64 = (1..=99).map(|j| 1.0 / j as f64).sum();
        let mut last = 0.0;
        for rate in [1.0, 10.0, 100.0, 1000.0] {
            let mut dhb = Dhb::fixed_rate(99);
            let report = SlottedRun::new(video)
                .warmup_slots(100)
                .measured_slots(1_000)
                .seed(5)
                .run(&mut dhb, PoissonProcess::new(ArrivalRate::per_hour(rate)));
            let avg = report.avg_bandwidth.get();
            assert!(avg >= last - 0.05, "not monotone at {rate}: {avg} < {last}");
            assert!(avg <= h99 + 0.3, "{avg} above saturation bound {h99}");
            last = avg;
        }
    }

    #[test]
    fn from_plan_uses_plan_periods() {
        use vod_trace::matrix::matrix_like;
        use vod_trace::DhbVariant;
        let trace = matrix_like(1);
        let plan = BroadcastPlan::for_variant(&trace, DhbVariant::D, Seconds::new(60.0));
        let dhb = Dhb::from_plan(&plan);
        assert_eq!(dhb.name(), "DHB-d");
        assert_eq!(dhb.scheduler().periods(), plan.periods.as_slice());
    }

    #[test]
    fn heuristic_is_reflected_in_name() {
        let dhb = Dhb::with_heuristic(10, SlotHeuristic::LatestPossible);
        assert_eq!(dhb.name(), "DHB[latest-possible]");
    }

    #[test]
    fn recorded_assignments_respect_the_client_limit() {
        let video = VideoSpec::paper_two_hour();
        for limit in [1u32, 2, 3] {
            let mut dhb = Dhb::with_client_limit(99, limit).recording_assignments();
            let _ = SlottedRun::new(video)
                .warmup_slots(50)
                .measured_slots(400)
                .seed(23)
                .run(&mut dhb, PoissonProcess::new(ArrivalRate::per_hour(200.0)));
            let demands = dhb.assignment_client_demands().expect("recorded");
            assert!(
                demands.max_concurrent_streams <= limit,
                "limit {limit}: peak rx {}",
                demands.max_concurrent_streams
            );
            assert!(demands.complete_requests > 10);
        }
    }

    #[test]
    fn recording_is_off_by_default() {
        let mut dhb = Dhb::fixed_rate(6);
        dhb.on_request(Slot::new(0));
        assert!(dhb.assignments().is_empty());
        assert!(dhb.assignment_client_demands().is_none());

        let mut rec = Dhb::fixed_rate(6).recording_assignments();
        rec.on_request(Slot::new(0));
        assert_eq!(rec.assignments().len(), 1);
        let demands = rec.assignment_client_demands().unwrap();
        // Fig. 4: an isolated client receives exactly one stream per slot.
        assert_eq!(demands.max_concurrent_streams, 1);
    }

    #[test]
    fn dhb_recovers_from_injected_loss() {
        use vod_sim::FaultPlan;
        let video = VideoSpec::paper_two_hour();
        let mut dhb = Dhb::fixed_rate(99);
        let report = SlottedRun::new(video)
            .warmup_slots(50)
            .measured_slots(800)
            .seed(11)
            .fault_plan(FaultPlan::none().with_loss_rate(0.05))
            .run(&mut dhb, PoissonProcess::new(ArrivalRate::per_hour(100.0)));
        assert!(report.faults.lost > 0, "5% loss must drop something");
        let rec = dhb.recovery_stats();
        assert_eq!(rec.drops_seen, report.faults.dropped());
        assert!(rec.reschedules + rec.deferred_starts > 0);
        // At 5% loss the retry bound (8) is effectively never hit.
        assert_eq!(rec.unrecoverable, 0);
        assert_eq!(report.stall_slots, rec.stall_slots);
    }

    #[test]
    fn zero_fault_run_has_zero_recovery_stats() {
        let video = VideoSpec::paper_two_hour();
        let mut dhb = Dhb::fixed_rate(99);
        let _ = SlottedRun::new(video)
            .warmup_slots(50)
            .measured_slots(400)
            .seed(3)
            .run(&mut dhb, PoissonProcess::new(ArrivalRate::per_hour(50.0)));
        assert_eq!(dhb.recovery_stats(), RecoveryStats::default());
        assert_eq!(dhb.stats().recovery, RecoveryStats::default());
    }

    #[test]
    fn stats_ratios_handle_zero() {
        let stats = DhbStats {
            requests: 0,
            new_instances: 0,
            shared_instances: 0,
            duplicate_instances: 0,
            cap_overflows: 0,
            recovery: crate::scheduler::RecoveryStats::default(),
        };
        assert_eq!(stats.sharing_ratio(), 0.0);
        assert_eq!(stats.new_instances_per_request(), 0.0);
    }
}

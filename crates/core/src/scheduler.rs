//! The DHB slot ring: future transmission schedule and window search.

use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;

use vod_obs::{Event, Journal};
use vod_types::{SegmentId, Slot};

use crate::heuristic::SlotHeuristic;

/// Bit width of [`SegmentSet`]'s inline storage.
const INLINE_BITS: usize = 128;

/// Fixed-width bitset over segment array indices (`j - 1`).
///
/// The first 128 bits — which cover the paper's `n = 99` — live in two inline
/// words, so cloning a [`SlotPlan`] and probing a window never touch the heap
/// for the bit mask. Larger catalogs spill the remaining bits to a boxed
/// slice sized once at construction (empty, hence allocation-free, for small
/// `n`). The `idx < INLINE_BITS` test in [`get`](Self::get) compares against
/// a constant, so window scans (client-limit mode and the index's fallback)
/// stay branch-predictable and bounds-check-free.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SegmentSet {
    inline: [u64; 2],
    spill: Box<[u64]>,
}

impl SegmentSet {
    fn new(n: usize) -> Self {
        let spill_words = n.saturating_sub(INLINE_BITS).div_ceil(64);
        SegmentSet {
            inline: [0; 2],
            spill: vec![0u64; spill_words].into_boxed_slice(),
        }
    }

    #[inline]
    fn get(&self, idx: usize) -> bool {
        if idx < INLINE_BITS {
            self.inline[idx / 64] & (1u64 << (idx % 64)) != 0
        } else {
            self.spill[(idx - INLINE_BITS) / 64] & (1u64 << (idx % 64)) != 0
        }
    }

    #[inline]
    fn insert(&mut self, idx: usize) {
        if idx < INLINE_BITS {
            self.inline[idx / 64] |= 1u64 << (idx % 64);
        } else {
            self.spill[(idx - INLINE_BITS) / 64] |= 1u64 << (idx % 64);
        }
    }

    fn clear(&mut self) {
        self.inline = [0; 2];
        self.spill.fill(0);
    }

    /// Set bits in ascending index order, via per-word `trailing_zeros` scan.
    fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.inline
            .iter()
            .chain(self.spill.iter())
            .enumerate()
            .flat_map(|(w, &word)| {
                std::iter::successors((word != 0).then_some(word), |&rest| {
                    let rest = rest & (rest - 1);
                    (rest != 0).then_some(rest)
                })
                .map(move |bits| w * 64 + bits.trailing_zeros() as usize)
            })
    }
}

/// One future slot's transmission plan.
#[derive(Debug, Clone)]
struct SlotPlan {
    /// Bit `j-1`: is `S_j` scheduled in this slot?
    scheduled: SegmentSet,
    /// `deadline[j-1]`: the latest slot this instance could still air in and
    /// serve every request depending on it (minimum over the dependents'
    /// window ends). Meaningful only where `scheduled` is set.
    deadline: Vec<u64>,
    /// `retries[j-1]`: how many times this instance has already been
    /// re-placed by fault recovery.
    retries: Vec<u32>,
    load: u32,
}

impl SlotPlan {
    fn empty(n: usize) -> Self {
        SlotPlan {
            scheduled: SegmentSet::new(n),
            deadline: vec![0; n],
            retries: vec![0; n],
            load: 0,
        }
    }

    /// Empties the plan for reuse as a future slot. The entries of the
    /// segments it carried are zeroed, so every unscheduled entry reads as
    /// in a fresh plan.
    fn clear(&mut self) {
        for idx in self.scheduled.iter_ones() {
            self.deadline[idx] = 0;
            self.retries[idx] = 0;
        }
        self.scheduled.clear();
        self.load = 0;
    }

    fn segments(&self) -> Vec<SegmentId> {
        let mut out = Vec::with_capacity(self.load as usize);
        out.extend(self.scheduled.iter_ones().map(SegmentId::from_array_index));
        out
    }
}

/// Counters kept by the fault-recovery path
/// ([`DhbScheduler::recover_dropped`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Dropped instances reported to the scheduler.
    pub drops_seen: u64,
    /// Drops recovered inside their remaining slack window (shared or
    /// re-placed) with no client-visible effect.
    pub reschedules: u64,
    /// Drops whose slack was exhausted, recovered by deferring the
    /// dependents' playback (a bounded stall).
    pub deferred_starts: u64,
    /// Total playback deferral across all deferred starts, in slots.
    pub stall_slots: u64,
    /// Drops abandoned after exceeding the retry bound.
    pub unrecoverable: u64,
}

/// Why a period vector cannot back a [`DhbScheduler`].
///
/// Catalog files are untrusted input; the serving path constructs
/// schedulers through [`DhbScheduler::try_new`] and maps these errors to a
/// rejected video entry instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerError {
    /// The period vector was empty — a video needs at least one segment.
    EmptyPeriods,
    /// `T[segment]` was zero; every segment must be schedulable in at least
    /// the slot after its request (`segment` is 1-based, like `S_j`).
    ZeroPeriod {
        /// The offending segment number `j` (1-based).
        segment: usize,
    },
}

impl fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerError::EmptyPeriods => write!(f, "need at least one segment"),
            SchedulerError::ZeroPeriod { segment } => write!(
                f,
                "segment S_{segment}: every maximum period must be at least one slot"
            ),
        }
    }
}

impl std::error::Error for SchedulerError {}

/// One segment's disposition in a request's transmission schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledSegment {
    /// The segment.
    pub segment: SegmentId,
    /// The slot it will be transmitted in.
    pub slot: Slot,
    /// False if an already-scheduled instance was shared, true if this
    /// request caused a new transmission.
    pub newly_scheduled: bool,
}

/// The core DHB scheduling data structure (the paper's Figure 6 algorithm).
///
/// The scheduler maintains a ring of future slots; slot `base` is the next
/// slot to be transmitted. [`schedule_request`](DhbScheduler::schedule_request)
/// implements the algorithm: for each segment, share the latest existing
/// instance in the window, otherwise place a new one per the heuristic. A
/// per-segment index of the latest instance answers the sharing question
/// without scanning the window (DESIGN §4.2).
/// [`pop_slot`](DhbScheduler::pop_slot) advances time and yields the slot's
/// transmissions.
///
/// # Example
///
/// The paper's Figure 4 — a request arriving into an idle system during
/// slot 1 schedules `S_i` in slot `i + 1`:
///
/// ```
/// use dhb_core::DhbScheduler;
/// use vod_types::Slot;
///
/// let mut s = DhbScheduler::fixed_rate(6);
/// s.pop_slot(); // slot 0 passes
/// s.pop_slot(); // entering slot 1's processing: base is now slot 2
/// let schedule = s.schedule_request(Slot::new(1));
/// for (i, entry) in schedule.iter().enumerate() {
///     assert_eq!(entry.slot, Slot::new(i as u64 + 2));
///     assert!(entry.newly_scheduled);
/// }
/// ```
#[derive(Clone)]
pub struct DhbScheduler {
    n: usize,
    /// `periods[j-1]` = `T[j]`, the window length of `S_j` in slots.
    periods: Vec<u64>,
    max_period: u64,
    heuristic: SlotHeuristic,
    /// Ring of future slots; `ring[k]` plans slot `base + k`.
    ring: VecDeque<SlotPlan>,
    /// Index of the next slot to transmit.
    base: u64,
    /// `latest[j-1]`: one past the latest absolute slot any instance of
    /// `S_j` was ever placed in, 0 if none. Never lowered: instances leave
    /// the ring only by being popped, so an instance at that slot is still
    /// planned whenever the slot is `≥ base`, and none is planned later.
    latest: Vec<u64>,
    /// Cheap xorshift state for the random heuristic.
    entropy: u64,
    /// Optional per-client receive limit: a request may download at most
    /// this many streams during any one slot (the paper's Section-5 future
    /// work: "protocols that limit the client bandwidth to two or three
    /// data streams").
    client_limit: Option<u32>,
    /// Optional soft cap on per-slot server load: new instances avoid slots
    /// at or above the cap whenever the window allows (Section-5 future
    /// work: "reduce or eliminate bandwidth peaks without increasing the
    /// average video bandwidth").
    load_cap: Option<u32>,
    /// How many times a dropped instance may be re-placed before it is
    /// declared unrecoverable.
    max_recovery_retries: u32,
    /// The slot most recently yielded by [`pop_slot`](Self::pop_slot),
    /// retained so [`recover_dropped`](Self::recover_dropped) can look up
    /// the dropped instances' deadlines and retry counts.
    last_popped: Option<(u64, SlotPlan)>,
    recovery: RecoveryStats,
    /// Structured event sink; the default disabled journal costs one branch
    /// per emission point.
    journal: Journal,
    // Cumulative statistics.
    new_instances: u64,
    shared_instances: u64,
    requests: u64,
    /// Instances duplicated because a shareable one was client-infeasible.
    duplicate_instances: u64,
    /// New instances forced into slots at or above the load cap.
    cap_overflows: u64,
}

impl fmt::Debug for DhbScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DhbScheduler")
            .field("n", &self.n)
            .field("heuristic", &self.heuristic)
            .field("base", &self.base)
            .field("new_instances", &self.new_instances)
            .field("shared_instances", &self.shared_instances)
            .finish()
    }
}

impl DhbScheduler {
    /// A scheduler with custom per-segment maximum periods `T[1..=n]`
    /// (`periods[j-1] = T[j]`) and the given heuristic.
    ///
    /// # Panics
    ///
    /// Panics if `periods` is empty or contains a zero (every segment must
    /// be schedulable in at least the next slot). Use
    /// [`try_new`](Self::try_new) when the periods come from untrusted
    /// input, such as a catalog file.
    #[must_use]
    pub fn new(periods: Vec<u64>, heuristic: SlotHeuristic) -> Self {
        match DhbScheduler::try_new(periods, heuristic) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`new`](Self::new): validates the period vector and
    /// returns a [`SchedulerError`] instead of panicking. This is the
    /// constructor the serving path uses, so a bad catalog entry surfaces as
    /// a rejected video rather than a dead shard.
    ///
    /// # Errors
    ///
    /// [`SchedulerError::EmptyPeriods`] if `periods` is empty;
    /// [`SchedulerError::ZeroPeriod`] if any `T[j]` is zero (segment `S_j`
    /// must be schedulable in at least the next slot).
    pub fn try_new(periods: Vec<u64>, heuristic: SlotHeuristic) -> Result<Self, SchedulerError> {
        if periods.is_empty() {
            return Err(SchedulerError::EmptyPeriods);
        }
        if let Some(idx) = periods.iter().position(|&t| t == 0) {
            return Err(SchedulerError::ZeroPeriod { segment: idx + 1 });
        }
        let n = periods.len();
        let max_period = *periods.iter().max().expect("non-empty");
        Ok(DhbScheduler {
            n,
            periods,
            max_period,
            heuristic,
            ring: VecDeque::new(),
            base: 0,
            latest: vec![0; n],
            entropy: 0x9E37_79B9_7F4A_7C15,
            client_limit: None,
            load_cap: None,
            max_recovery_retries: 8,
            last_popped: None,
            recovery: RecoveryStats::default(),
            journal: Journal::disabled(),
            new_instances: 0,
            shared_instances: 0,
            requests: 0,
            duplicate_instances: 0,
            cap_overflows: 0,
        })
    }

    /// Restricts every client to receiving at most `limit` streams during
    /// any single slot (the paper's Section-5 future-work direction, after
    /// \[6\]'s two-stream receivers).
    ///
    /// A shareable instance is only shared when the client still has
    /// receive capacity in that slot; otherwise a duplicate instance is
    /// scheduled in a slot the client can listen to (counted in
    /// [`duplicate_instances`](Self::duplicate_instances)). Feasibility is
    /// guaranteed for any `limit ≥ 1`: segment `S_j`'s window has `T[j] ≥ 1`
    /// slots and the client has placed at most `j − 1` earlier segments, so
    /// with non-decreasing periods a free slot always exists — the
    /// scheduler panics on the (constructed-to-be-impossible) alternative
    /// rather than silently starving a customer.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    #[must_use]
    pub fn with_client_limit(mut self, limit: u32) -> Self {
        assert!(limit >= 1, "client limit must allow at least one stream");
        self.client_limit = Some(limit);
        self
    }

    /// Makes new instances avoid slots already loaded to `cap`, whenever
    /// the window offers an alternative. The cap is *soft*: windows whose
    /// slots are all at the cap still receive the instance (counted in
    /// [`cap_overflows`](Self::cap_overflows)), so timeliness is never
    /// sacrificed for the peak.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    #[must_use]
    pub fn with_load_cap(mut self, cap: u32) -> Self {
        assert!(cap >= 1, "load cap must allow at least one stream");
        self.load_cap = Some(cap);
        self
    }

    /// The paper's fixed-rate configuration: `T[j] = j` with the
    /// min-load/latest heuristic.
    #[must_use]
    pub fn fixed_rate(n: usize) -> Self {
        DhbScheduler::new((1..=n as u64).collect(), SlotHeuristic::MinLoadLatest)
    }

    /// Bounds how many times [`recover_dropped`](Self::recover_dropped) may
    /// re-place the same instance before declaring it unrecoverable
    /// (default 8; at a 5% per-slot loss rate eight consecutive drops have
    /// probability ≈ 4 · 10⁻¹¹).
    #[must_use]
    pub fn with_max_recovery_retries(mut self, retries: u32) -> Self {
        self.max_recovery_retries = retries;
        self
    }

    /// Attaches a structured event journal: every scheduling decision
    /// ([`Event::InstanceScheduled`]) and recovery action
    /// ([`Event::Rescheduled`], [`Event::PlaybackDeferred`]) is emitted into
    /// it. Pass a clone of a shared [`Journal`] to interleave scheduler
    /// events with the engine's. The default disabled journal costs one
    /// branch per emission point.
    #[must_use]
    pub fn with_journal(mut self, journal: Journal) -> Self {
        self.journal = journal;
        self
    }

    /// The attached event journal (disabled unless
    /// [`with_journal`](Self::with_journal) was called).
    #[must_use]
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Number of segments.
    #[must_use]
    pub fn n_segments(&self) -> usize {
        self.n
    }

    /// The per-segment maximum periods.
    #[must_use]
    pub fn periods(&self) -> &[u64] {
        &self.periods
    }

    /// The heuristic in use.
    #[must_use]
    pub fn heuristic(&self) -> SlotHeuristic {
        self.heuristic
    }

    /// Requests scheduled so far.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Segment instances newly scheduled so far.
    #[must_use]
    pub fn new_instances(&self) -> u64 {
        self.new_instances
    }

    /// Segment needs satisfied by sharing an existing instance.
    #[must_use]
    pub fn shared_instances(&self) -> u64 {
        self.shared_instances
    }

    /// Instances scheduled although a shareable one existed in the window
    /// but exceeded the requesting client's receive limit. Always 0 without
    /// a client limit.
    #[must_use]
    pub fn duplicate_instances(&self) -> u64 {
        self.duplicate_instances
    }

    /// New instances that had to land in a slot at or above the load cap
    /// because the whole window was already there. Always 0 without a cap.
    #[must_use]
    pub fn cap_overflows(&self) -> u64 {
        self.cap_overflows
    }

    /// The configured per-client receive limit, if any.
    #[must_use]
    pub fn client_limit(&self) -> Option<u32> {
        self.client_limit
    }

    /// The configured soft load cap, if any.
    #[must_use]
    pub fn load_cap(&self) -> Option<u32> {
        self.load_cap
    }

    /// The recovery retry bound (see
    /// [`with_max_recovery_retries`](Self::with_max_recovery_retries)).
    #[must_use]
    pub fn max_recovery_retries(&self) -> u32 {
        self.max_recovery_retries
    }

    /// Counters accumulated by [`recover_dropped`](Self::recover_dropped).
    #[must_use]
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Total playback deferral caused by fault recovery, in slots.
    #[must_use]
    pub fn stall_slots(&self) -> u64 {
        self.recovery.stall_slots
    }

    /// The next slot to be transmitted.
    #[must_use]
    pub fn next_slot(&self) -> Slot {
        Slot::new(self.base)
    }

    fn ensure_ring(&mut self, len: usize) {
        while self.ring.len() < len {
            self.ring.push_back(SlotPlan::empty(self.n));
        }
    }

    fn next_entropy(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.entropy;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.entropy = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Runs the Figure-6 algorithm for a request arriving during `arrival`,
    /// returning each segment's disposition (in segment order).
    ///
    /// # Panics
    ///
    /// Panics if `arrival` precedes the last transmitted slot — requests
    /// cannot be scheduled into the past.
    pub fn schedule_request(&mut self, arrival: Slot) -> Vec<ScheduledSegment> {
        assert!(
            arrival.index() + 1 >= self.base,
            "request in {arrival} arrived after its first window slot was transmitted \
             (next transmission is {})",
            Slot::new(self.base)
        );
        self.requests += 1;
        // Window of S_j starts at ring offset (arrival + 1 − base).
        let start_off = (arrival.index() + 1 - self.base) as usize;
        self.ensure_ring(start_off + self.max_period as usize);

        // This request's receive load per ring offset (client-limit mode
        // only; empty otherwise).
        let mut client_load = match self.client_limit {
            Some(_) => vec![0u32; start_off + self.max_period as usize],
            None => Vec::new(),
        };

        let mut out = Vec::with_capacity(self.n);
        for j in 1..=self.n {
            let seg = SegmentId::new(j).expect("j >= 1");
            let t = self.periods[j - 1] as usize;
            let window = start_off..start_off + t;
            // The latest slot any dependent of this instance can accept:
            // this request's window ends at arrival + T[j].
            let deadline = arrival.index() + t as u64;

            // Paper: "search slots i+1 to i+T[j] for an already scheduled
            // instance of S_j", sharing the latest one. With a client
            // receive limit, only instances in slots the client can still
            // listen to are shareable, which takes a scan.
            let mut existing_any = false;
            let shareable = match self.client_limit {
                None => self.latest_instance(j - 1, window.clone()),
                Some(limit) => {
                    let mut shareable = None;
                    for (rel, plan) in self.ring.range(window.clone()).enumerate() {
                        if plan.scheduled.get(j - 1) {
                            existing_any = true;
                            let off = start_off + rel;
                            if client_load[off] < limit {
                                shareable = Some(off);
                            }
                        }
                    }
                    shareable
                }
            };

            let off = match shareable {
                Some(off) => {
                    self.shared_instances += 1;
                    let d = &mut self.ring[off].deadline[j - 1];
                    *d = (*d).min(deadline);
                    off
                }
                None => {
                    // "let m_min := min {m_k}; let k_max := max {k | m_k =
                    // m_min}; schedule one instance of S_j in slot k_max" —
                    // generalised to the pluggable heuristic, restricted to
                    // slots the client can listen to, and steered away from
                    // slots at the load cap when the window offers an
                    // alternative.
                    let entropy = self.next_entropy();
                    let limit = self.client_limit;
                    let candidates = self
                        .ring
                        .range(window)
                        .enumerate()
                        .map(|(rel, plan)| (start_off + rel, plan.load))
                        .filter(|&(off, _)| limit.is_none_or(|limit| client_load[off] < limit));
                    let Some((off, overflow)) =
                        self.heuristic
                            .pick_capped(candidates, self.load_cap, entropy)
                    else {
                        panic!(
                            "no client-feasible slot for {seg} in window of {t}: \
                             the client limit admits at most one segment per slot and \
                             periods must be non-decreasing for feasibility"
                        )
                    };
                    if overflow {
                        self.cap_overflows += 1;
                    }
                    if existing_any {
                        self.duplicate_instances += 1;
                    }
                    self.plant(j - 1, off, deadline, 0);
                    off
                }
            };
            if self.client_limit.is_some() {
                client_load[off] += 1;
            }
            let newly_scheduled = shareable.is_none();
            let slot = self.base + off as u64;
            self.journal.emit_with(|| Event::InstanceScheduled {
                segment: j as u32,
                shared: !newly_scheduled,
                window_start: arrival.index() + 1,
                window_end: deadline,
                slot,
                load: self.ring[off].load,
            });
            out.push(ScheduledSegment {
                segment: seg,
                slot: Slot::new(slot),
                newly_scheduled,
            });
        }
        out
    }

    /// The ring offset of the latest instance of segment `idx` (array
    /// index) inside the ring offsets `window`, if any. O(1) from the
    /// latest-instance index; only an instance planned beyond the window —
    /// after an out-of-order arrival or a recovery — forces a scan.
    fn latest_instance(&self, idx: usize, window: Range<usize>) -> Option<usize> {
        let lo = self.base + window.start as u64;
        let end = self.base + window.end as u64;
        let latest_end = self.latest[idx];
        if latest_end <= lo {
            None
        } else if latest_end <= end {
            Some((latest_end - 1 - self.base) as usize)
        } else {
            self.ring
                .range(window.clone())
                .rposition(|plan| plan.scheduled.get(idx))
                .map(|rel| window.start + rel)
        }
    }

    /// Puts a new instance of segment `idx` (array index) into ring slot
    /// `off`.
    fn plant(&mut self, idx: usize, off: usize, deadline: u64, retries: u32) {
        let plan = &mut self.ring[off];
        plan.scheduled.insert(idx);
        plan.deadline[idx] = deadline;
        plan.retries[idx] = retries;
        plan.load += 1;
        self.new_instances += 1;
        let end = self.base + off as u64 + 1;
        self.latest[idx] = self.latest[idx].max(end);
    }

    /// Transmits the next slot: returns its segments and advances time.
    pub fn pop_slot(&mut self) -> (Slot, Vec<SegmentId>) {
        let slot = Slot::new(self.base);
        self.base += 1;
        // The previously popped plan is retired here; recycle it as the
        // ring's new tail (or as this slot's plan when nothing is planned)
        // instead of allocating a fresh one.
        let spare = self.last_popped.take().map(|(_, mut plan)| {
            plan.clear();
            plan
        });
        let plan = match self.ring.pop_front() {
            Some(plan) => {
                self.ring.extend(spare);
                plan
            }
            None => spare.unwrap_or_else(|| SlotPlan::empty(self.n)),
        };
        let segments = plan.segments();
        self.last_popped = Some((slot.index(), plan));
        (slot, segments)
    }

    /// Re-enters segment needs whose transmissions were dropped (lost,
    /// capped or blacked out) in the slot most recently yielded by
    /// [`pop_slot`](Self::pop_slot).
    ///
    /// Each dropped instance is recovered through the same
    /// share-or-place heuristic as the primary path, at one of three levels
    /// of degradation:
    ///
    /// 1. **Reschedule** — the instance's remaining slack window
    ///    `[base, deadline]` is non-empty: share an instance already planned
    ///    there, or place a new one at the heuristic's min-load slot. The
    ///    dependents never notice.
    /// 2. **Deferred start** — the slack is exhausted (`deadline < base`):
    ///    the instance is placed in a fresh window of `T[j]` slots starting
    ///    at `base` and every dependent's playback start is deferred until
    ///    it airs. The stall is bounded by `T[j]` slots per retry and
    ///    accounted in [`RecoveryStats::stall_slots`]; the instance's
    ///    deadline becomes its new slot, so repeated drops telescope rather
    ///    than compound.
    /// 3. **Unrecoverable** — the instance has already been re-placed
    ///    [`max_recovery_retries`](Self::max_recovery_retries) times; the
    ///    scheduler gives up on it (counted, never silent).
    ///
    /// Recovery placements ignore the client limit and the soft load cap:
    /// under faults, delivering late beats not delivering.
    ///
    /// # Panics
    ///
    /// Panics if a segment in `dropped` was not scheduled in the last popped
    /// slot, or if no slot has been popped yet — both indicate the caller
    /// fed back a transmission the scheduler never made.
    pub fn recover_dropped(&mut self, dropped: &[SegmentId]) {
        self.recover_with(dropped, Self::replant);
    }

    /// [`recover_dropped`](Self::recover_dropped) with the share-or-place
    /// step supplied, so tests can drive it with the scan oracle's.
    fn recover_with(
        &mut self,
        dropped: &[SegmentId],
        replant: fn(&mut Self, SegmentId, usize, u64, u32) -> u64,
    ) {
        if dropped.is_empty() {
            return;
        }
        let (slot, plan) = self
            .last_popped
            .take()
            .expect("recover_dropped called before any slot was popped");
        for &seg in dropped {
            let idx = seg.array_index();
            assert!(
                plan.scheduled.get(idx),
                "dropped {seg} was never scheduled in slot {slot}"
            );
            self.recovery.drops_seen += 1;
            let retries = plan.retries[idx];
            if retries >= self.max_recovery_retries {
                self.recovery.unrecoverable += 1;
                continue;
            }
            let deadline = plan.deadline[idx];
            if deadline >= self.base {
                // Slack remains: re-enter the need in [base, deadline].
                let width = (deadline - self.base + 1) as usize;
                let placed = replant(self, seg, width, deadline, retries + 1);
                self.recovery.reschedules += 1;
                self.journal.emit_with(|| Event::Rescheduled {
                    segment: seg.get() as u32,
                    from_slot: slot,
                    to_slot: placed,
                });
            } else {
                // Slack exhausted: degrade gracefully by deferring the
                // dependents' playback into a fresh window instead of
                // silently starving them.
                let t = self.periods[idx] as usize;
                let placed = replant(self, seg, t, u64::MAX, retries + 1);
                // Telescoping stall accounting: the dependents were owed
                // the segment by `deadline` and now get it at `placed`.
                let stall = placed - deadline;
                self.recovery.stall_slots += stall;
                self.recovery.deferred_starts += 1;
                let off = (placed - self.base) as usize;
                let d = &mut self.ring[off].deadline[idx];
                *d = (*d).min(placed);
                self.journal.emit_with(|| Event::PlaybackDeferred {
                    segment: seg.get() as u32,
                    from_slot: slot,
                    to_slot: placed,
                    stall_slots: stall,
                });
            }
        }
        self.last_popped = Some((slot, plan));
    }

    /// Shares or places an instance of `seg` somewhere in the next `width`
    /// slots (deadline-capped at `deadline`), returning the absolute slot
    /// it will air in. Ignores the client limit and load cap.
    fn replant(&mut self, seg: SegmentId, width: usize, deadline: u64, retries: u32) -> u64 {
        let idx = seg.array_index();
        self.ensure_ring(width);
        let off = match self.latest_instance(idx, 0..width) {
            Some(off) => {
                let plan = &mut self.ring[off];
                plan.deadline[idx] = plan.deadline[idx].min(deadline);
                plan.retries[idx] = plan.retries[idx].max(retries);
                off
            }
            None => {
                let entropy = self.next_entropy();
                let candidates = self.ring.range(0..width).map(|plan| plan.load).enumerate();
                let (off, _) = self
                    .heuristic
                    .pick_capped(candidates, None, entropy)
                    .expect("recovery window is non-empty");
                self.plant(idx, off, deadline, retries);
                off
            }
        };
        self.base + off as u64
    }

    /// The segments currently planned for `slot` (for rendering the paper's
    /// Figures 4 and 5). Empty for past or unplanned slots.
    #[must_use]
    pub fn planned_segments(&self, slot: Slot) -> Vec<SegmentId> {
        if slot.index() < self.base {
            return Vec::new();
        }
        let off = (slot.index() - self.base) as usize;
        match self.ring.get(off) {
            Some(plan) => plan.segments(),
            None => Vec::new(),
        }
    }

    /// The current load (scheduled instances) of `slot`.
    #[must_use]
    pub fn planned_load(&self, slot: Slot) -> u32 {
        if slot.index() < self.base {
            return 0;
        }
        match self.ring.get((slot.index() - self.base) as usize) {
            Some(plan) => plan.load,
            None => 0,
        }
    }

    /// Renders the planned schedule for slots `from ..= to` in the style of
    /// the paper's Figures 4/5: one line per "stream" (stacked instances).
    #[must_use]
    pub fn render_schedule(&self, from: Slot, to: Slot) -> String {
        use std::fmt::Write as _;
        let slots: Vec<Vec<SegmentId>> = (from.index()..=to.index())
            .map(|s| self.planned_segments(Slot::new(s)))
            .collect();
        let height = slots.iter().map(Vec::len).max().unwrap_or(0).max(1);
        let mut out = String::new();
        let _ = writeln!(out, "slots {}..={}:", from.index(), to.index());
        for row in 0..height {
            let _ = write!(out, "stream {}:", row + 1);
            for col in &slots {
                match col.get(row) {
                    Some(seg) => {
                        let _ = write!(out, " {:>4}", seg.to_string());
                    }
                    None => out.push_str("   --"),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod scan_oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(i: usize) -> SegmentId {
        SegmentId::new(i).unwrap()
    }

    /// Advances the scheduler so that `base` becomes `slot`.
    fn advance_to(s: &mut DhbScheduler, slot: u64) -> Vec<(u64, Vec<SegmentId>)> {
        let mut out = Vec::new();
        while s.next_slot().index() < slot {
            let (sl, segs) = s.pop_slot();
            out.push((sl.index(), segs));
        }
        out
    }

    #[test]
    fn figure_4_idle_system_schedule() {
        // Paper Fig. 4: request during slot 1, idle system, n = 6:
        // S_i scheduled in slot i+1, one instance per slot (one stream).
        let mut s = DhbScheduler::fixed_rate(6);
        let schedule = s.schedule_request(Slot::new(1));
        for (idx, entry) in schedule.iter().enumerate() {
            let i = idx + 1;
            assert_eq!(entry.segment, seg(i));
            assert_eq!(entry.slot, Slot::new(1 + i as u64), "S{i}");
            assert!(entry.newly_scheduled);
        }
        // Every slot 2..=7 carries exactly one segment.
        for slot in 2..=7u64 {
            assert_eq!(s.planned_load(Slot::new(slot)), 1, "slot {slot}");
        }
    }

    #[test]
    fn figure_5_second_overlapping_request() {
        // Paper Fig. 5: second request during slot 3 shares S3..S6 and adds
        // only S1 in slot 4 and S2 in slot 5.
        let mut s = DhbScheduler::fixed_rate(6);
        let _ = s.schedule_request(Slot::new(1));
        advance_to(&mut s, 3);
        let second = s.schedule_request(Slot::new(3));

        assert_eq!(second[0].segment, seg(1));
        assert_eq!(second[0].slot, Slot::new(4));
        assert!(second[0].newly_scheduled);

        assert_eq!(second[1].segment, seg(2));
        assert_eq!(second[1].slot, Slot::new(5));
        assert!(second[1].newly_scheduled);

        for (idx, entry) in second.iter().enumerate().skip(2) {
            assert!(!entry.newly_scheduled, "S{} should be shared", idx + 1);
            assert_eq!(entry.slot, Slot::new(idx as u64 + 2));
        }
        assert_eq!(s.shared_instances(), 4);
        assert_eq!(s.new_instances(), 8);
    }

    #[test]
    fn why_slot_4_and_5_for_the_second_request() {
        // The paper's Fig. 5 shows S1 in slot 4 (the only window slot) and
        // S2 in slot 5 (both 4 and 5 have load 1; latest wins).
        let mut s = DhbScheduler::fixed_rate(6);
        let _ = s.schedule_request(Slot::new(1));
        advance_to(&mut s, 3);
        assert_eq!(s.planned_load(Slot::new(4)), 1); // S3 from request 1
        assert_eq!(s.planned_load(Slot::new(5)), 1); // S4 from request 1
        let second = s.schedule_request(Slot::new(3));
        assert_eq!(second[1].slot, Slot::new(5));
    }

    #[test]
    fn pop_slot_yields_planned_segments_in_order() {
        let mut s = DhbScheduler::fixed_rate(3);
        let _ = s.schedule_request(Slot::new(0));
        let (s0, segs0) = s.pop_slot();
        assert_eq!(s0, Slot::new(0));
        assert!(segs0.is_empty());
        let (s1, segs1) = s.pop_slot();
        assert_eq!(s1, Slot::new(1));
        assert_eq!(segs1, vec![seg(1)]);
        let (_, segs2) = s.pop_slot();
        assert_eq!(segs2, vec![seg(2)]);
        let (_, segs3) = s.pop_slot();
        assert_eq!(segs3, vec![seg(3)]);
        // Idle after the request is served.
        let (_, segs4) = s.pop_slot();
        assert!(segs4.is_empty());
    }

    #[test]
    fn sharing_never_schedules_twice_in_one_window() {
        // Paper: "the protocol will never schedule more than one instance of
        // segment S_i once every i slots" for overlapping requests: any
        // request whose window contains an instance shares it.
        let mut s = DhbScheduler::fixed_rate(10);
        let _ = s.schedule_request(Slot::new(0));
        // A second request in the same slot shares everything.
        let second = s.schedule_request(Slot::new(0));
        assert!(second.iter().all(|e| !e.newly_scheduled));
        assert_eq!(s.new_instances(), 10);
        assert_eq!(s.shared_instances(), 10);
    }

    #[test]
    fn request_after_transmission_start_panics() {
        let mut s = DhbScheduler::fixed_rate(3);
        let _ = s.pop_slot();
        let _ = s.pop_slot();
        let _ = s.pop_slot(); // base = 3
                              // Arrival in slot 1 would need slot 2, already transmitted.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.schedule_request(Slot::new(1))
        }));
        assert!(result.is_err());
        // Arrival during slot 2 is fine: its window starts at slot 3.
        let mut s2 = DhbScheduler::fixed_rate(3);
        let _ = s2.pop_slot();
        let _ = s2.pop_slot();
        let _ = s2.pop_slot();
        let schedule = s2.schedule_request(Slot::new(2));
        assert_eq!(schedule[0].slot, Slot::new(3));
    }

    #[test]
    fn custom_periods_widen_windows() {
        // T = [1, 3, 3]: S2 may ride as late as slot a+3.
        let mut s = DhbScheduler::new(vec![1, 3, 3], SlotHeuristic::MinLoadLatest);
        let schedule = s.schedule_request(Slot::new(0));
        assert_eq!(schedule[0].slot, Slot::new(1)); // T[1]=1: forced
                                                    // S2's window {1,2,3}: slot 1 has load 1, so min-load/latest picks 3.
        assert_eq!(schedule[1].slot, Slot::new(3));
        // S3's window {1,2,3}: loads now 1,0,1 → slot 2.
        assert_eq!(schedule[2].slot, Slot::new(2));
    }

    #[test]
    fn heuristic_variants_change_placement() {
        let mut latest = DhbScheduler::new(vec![1, 2, 3], SlotHeuristic::LatestPossible);
        let sched = latest.schedule_request(Slot::new(0));
        assert_eq!(sched[1].slot, Slot::new(2));
        assert_eq!(sched[2].slot, Slot::new(3));

        let mut earliest = DhbScheduler::new(vec![1, 2, 3], SlotHeuristic::EarliestPossible);
        let sched = earliest.schedule_request(Slot::new(0));
        assert_eq!(sched[1].slot, Slot::new(1));
        assert_eq!(sched[2].slot, Slot::new(1));
    }

    #[test]
    fn render_matches_figure_4_shape() {
        let mut s = DhbScheduler::fixed_rate(6);
        let _ = s.schedule_request(Slot::new(1));
        let text = s.render_schedule(Slot::new(2), Slot::new(7));
        assert!(
            text.contains("stream 1:   S1   S2   S3   S4   S5   S6"),
            "{text}"
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut s = DhbScheduler::fixed_rate(4);
        let _ = s.schedule_request(Slot::new(0));
        let _ = s.schedule_request(Slot::new(0));
        assert_eq!(s.requests(), 2);
        assert_eq!(s.new_instances(), 4);
        assert_eq!(s.shared_instances(), 4);
        assert_eq!(s.duplicate_instances(), 0);
        assert_eq!(s.cap_overflows(), 0);
        assert_eq!(s.n_segments(), 4);
        assert_eq!(s.periods(), &[1, 2, 3, 4]);
    }

    #[test]
    fn client_limit_one_forces_one_segment_per_slot() {
        // With a single-stream receiver nothing can be shared unless it
        // happens to line up one-per-slot: an isolated request degenerates
        // to S_j at slot i+j exactly (the Fig. 4 schedule).
        let mut s = DhbScheduler::fixed_rate(6).with_client_limit(1);
        assert_eq!(s.client_limit(), Some(1));
        let schedule = s.schedule_request(Slot::new(0));
        let slots: Vec<u64> = schedule.iter().map(|e| e.slot.index()).collect();
        assert_eq!(slots, vec![1, 2, 3, 4, 5, 6]);
        // A second, same-slot request shares everything (one instance per
        // slot fits a one-stream client).
        let second = s.schedule_request(Slot::new(0));
        assert!(second.iter().all(|e| !e.newly_scheduled));
    }

    #[test]
    fn client_limit_forces_duplicates_for_offset_requests() {
        // Request A (slot 0) fills slots 1..=6 one instance each. Request B
        // (slot 2) with limit 1 must take exactly one segment per slot
        // 3..=8; instances of S3..S6 from A sit in slots 4..=6 of B's
        // windows but B can only grab one per slot, so some are duplicated.
        let mut unlimited = DhbScheduler::fixed_rate(6);
        let _ = unlimited.schedule_request(Slot::new(0));
        while unlimited.next_slot().index() < 2 {
            let _ = unlimited.pop_slot();
        }
        let shared_free = unlimited
            .schedule_request(Slot::new(2))
            .iter()
            .filter(|e| !e.newly_scheduled)
            .count();

        let mut limited = DhbScheduler::fixed_rate(6).with_client_limit(1);
        let _ = limited.schedule_request(Slot::new(0));
        while limited.next_slot().index() < 2 {
            let _ = limited.pop_slot();
        }
        let schedule = limited.schedule_request(Slot::new(2));
        // One segment per slot for the limited client.
        let mut per_slot = std::collections::HashMap::new();
        for e in &schedule {
            *per_slot.entry(e.slot).or_insert(0u32) += 1;
        }
        assert!(per_slot.values().all(|&c| c <= 1));
        let shared_limited = schedule.iter().filter(|e| !e.newly_scheduled).count();
        assert!(
            shared_limited <= shared_free,
            "limit cannot increase sharing"
        );
        assert!(limited.duplicate_instances() > 0 || shared_limited == shared_free);
    }

    #[test]
    fn client_limit_two_still_shares_plenty() {
        let mut s = DhbScheduler::fixed_rate(10).with_client_limit(2);
        let _ = s.schedule_request(Slot::new(0));
        let second = s.schedule_request(Slot::new(0));
        // Same-slot requests share everything even at limit 2 (one instance
        // per slot ≤ 2).
        assert!(second.iter().all(|e| !e.newly_scheduled));
    }

    #[test]
    fn load_cap_steers_and_counts_overflow() {
        // Cap 1: the idle-system request spreads one instance per slot (no
        // overflow). A same-window burst of offset requests then has to
        // overflow S1's one-slot window.
        let mut s = DhbScheduler::fixed_rate(6).with_load_cap(1);
        assert_eq!(s.load_cap(), Some(1));
        let first = s.schedule_request(Slot::new(0));
        assert!(first.iter().all(|e| e.newly_scheduled));
        assert_eq!(s.cap_overflows(), 0);

        while s.next_slot().index() < 1 {
            let _ = s.pop_slot();
        }
        // Request in slot 1: S1's window is {2}, which already holds A's S2
        // (load 1) — the cap must be overflowed to stay timely.
        let second = s.schedule_request(Slot::new(1));
        assert_eq!(second[0].slot, Slot::new(2));
        assert!(s.cap_overflows() > 0);
    }

    #[test]
    fn recovery_replaces_within_remaining_slack() {
        // Request in slot 0, n = 4: S_j at slot j with deadline j..= wait —
        // S4's instance sits in slot 4 but may slide to its deadline 4.
        // Drop S3 (slot 3, deadline 3): after popping slot 3 the slack is
        // exhausted... use S4 dropped early instead. Drop S2's instance when
        // it airs in slot 2: deadline 2 < base 3 → deferral. To exercise the
        // in-slack path, widen the period: T = [1, 4].
        let mut s = DhbScheduler::new(vec![1, 4], SlotHeuristic::MinLoadLatest);
        let sched = s.schedule_request(Slot::new(0));
        // S2's window {1..=4}: slot 1 holds S1 (load 1), min-load/latest → 4.
        assert_eq!(sched[1].slot, Slot::new(4));
        // Manually re-place S2 as if it aired (and dropped) in slot 1 by
        // moving time to slot 4 and dropping it there: deadline 4, base 5.
        let _ = advance_to(&mut s, 4);
        let (slot, segs) = s.pop_slot();
        assert_eq!(slot, Slot::new(4));
        assert_eq!(segs, vec![seg(2)]);
        // Deadline 4 < base 5: slack exhausted → deferred start within a
        // fresh T[2]=4 window.
        s.recover_dropped(&[seg(2)]);
        let st = s.recovery_stats();
        assert_eq!(st.drops_seen, 1);
        assert_eq!(st.deferred_starts, 1);
        assert!(st.stall_slots >= 1 && st.stall_slots <= 4);
        assert_eq!(st.unrecoverable, 0);
        // The instance is back in the plan.
        let replanned: Vec<u64> = (5..=8)
            .filter(|&k| s.planned_segments(Slot::new(k)).contains(&seg(2)))
            .collect();
        assert_eq!(replanned.len(), 1);
    }

    #[test]
    fn recovery_uses_slack_before_deferring() {
        // T = [2]: request in slot 0 → S1 somewhere in {1, 2} (latest: 2)…
        // place manually via schedule and drop the airing while slack
        // remains.
        let mut s = DhbScheduler::new(vec![3], SlotHeuristic::EarliestPossible);
        let sched = s.schedule_request(Slot::new(0));
        assert_eq!(sched[0].slot, Slot::new(1)); // deadline 3
        let (_, segs) = s.pop_slot(); // slot 0, empty
        assert!(segs.is_empty());
        let (slot, segs) = s.pop_slot(); // slot 1 airs S1
        assert_eq!(slot, Slot::new(1));
        assert_eq!(segs, vec![seg(1)]);
        // base = 2, deadline 3 ≥ 2: recover inside [2, 3], no stall.
        s.recover_dropped(&[seg(1)]);
        let st = s.recovery_stats();
        assert_eq!(st.reschedules, 1);
        assert_eq!(st.deferred_starts, 0);
        assert_eq!(st.stall_slots, 0);
        assert!(s.planned_segments(Slot::new(2)).contains(&seg(1)));
    }

    #[test]
    fn recovery_shares_existing_instance_in_slack() {
        // Two offset requests put two instances of S1 in consecutive slots;
        // dropping the first can ride the second (no new instance).
        let mut s = DhbScheduler::new(vec![2], SlotHeuristic::EarliestPossible);
        let _ = s.schedule_request(Slot::new(0)); // S1 in slot 1, deadline 2
        let _ = s.pop_slot(); // slot 0
        let _ = s.schedule_request(Slot::new(0)); // shares slot-1 instance
        let before = s.new_instances();
        let (_, segs) = s.pop_slot(); // slot 1 airs S1
        assert_eq!(segs, vec![seg(1)]);
        // Place a second instance in slot 2 via a fresh request first.
        let sched = s.schedule_request(Slot::new(1)); // window {2,3} → slot 2
        assert_eq!(sched[0].slot, Slot::new(2));
        let with_new = s.new_instances();
        assert_eq!(with_new, before + 1);
        // Now recover the slot-1 drop: deadline 2 ≥ base 2 and slot 2
        // already holds S1 → pure share, no extra instance.
        s.recover_dropped(&[seg(1)]);
        assert_eq!(s.new_instances(), with_new);
        assert_eq!(s.recovery_stats().reschedules, 1);
    }

    #[test]
    fn recovery_gives_up_after_retry_bound() {
        let mut s =
            DhbScheduler::new(vec![1], SlotHeuristic::MinLoadLatest).with_max_recovery_retries(2);
        assert_eq!(s.max_recovery_retries(), 2);
        let _ = s.schedule_request(Slot::new(0));
        let _ = s.pop_slot(); // slot 0
                              // Drop S1 every time it airs.
        let mut drops = 0;
        for _ in 0..10 {
            let (_, segs) = s.pop_slot();
            if segs.contains(&seg(1)) {
                s.recover_dropped(&[seg(1)]);
                drops += 1;
            }
        }
        assert_eq!(drops, 3, "initial airing plus two retries");
        let st = s.recovery_stats();
        assert_eq!(st.drops_seen, 3);
        assert_eq!(st.unrecoverable, 1);
        assert_eq!(st.deferred_starts, 2);
    }

    #[test]
    fn clean_slots_leave_recovery_stats_untouched() {
        let mut s = DhbScheduler::fixed_rate(5);
        let _ = s.schedule_request(Slot::new(0));
        for _ in 0..10 {
            let _ = s.pop_slot();
            s.recover_dropped(&[]);
        }
        assert_eq!(s.recovery_stats(), RecoveryStats::default());
        assert_eq!(s.stall_slots(), 0);
    }

    #[test]
    fn journal_sees_every_scheduling_decision() {
        use vod_obs::EventKind;
        let journal = Journal::enabled();
        let mut s = DhbScheduler::fixed_rate(6).with_journal(journal.clone());
        let _ = s.schedule_request(Slot::new(0));
        let _ = s.schedule_request(Slot::new(0));
        // 6 new placements + 6 shares, all as InstanceScheduled.
        assert_eq!(journal.count_of(EventKind::InstanceScheduled), 12);
        let shared: Vec<bool> = journal
            .snapshot()
            .iter()
            .filter_map(|r| match r.event {
                Event::InstanceScheduled { shared, .. } => Some(shared),
                _ => None,
            })
            .collect();
        assert_eq!(shared.iter().filter(|&&s| !s).count(), 6);
        assert_eq!(shared.iter().filter(|&&s| s).count(), 6);
        // Chosen slots stay inside the reported candidate window.
        for r in journal.snapshot() {
            if let Event::InstanceScheduled {
                window_start,
                window_end,
                slot,
                ..
            } = r.event
            {
                assert!((window_start..=window_end).contains(&slot));
            }
        }
    }

    #[test]
    fn journal_records_recovery_outcomes() {
        use vod_obs::EventKind;
        let journal = Journal::enabled();
        // Deferral: T = [1, 4], drop S2 when it airs with no slack left.
        let mut s = DhbScheduler::new(vec![1, 4], SlotHeuristic::MinLoadLatest)
            .with_journal(journal.clone());
        let _ = s.schedule_request(Slot::new(0));
        let _ = advance_to(&mut s, 4);
        let (_, segs) = s.pop_slot();
        assert_eq!(segs, vec![seg(2)]);
        s.recover_dropped(&[seg(2)]);
        assert_eq!(journal.count_of(EventKind::PlaybackDeferred), 1);
        assert_eq!(journal.count_of(EventKind::Rescheduled), 0);
        let deferred = journal
            .snapshot()
            .into_iter()
            .find_map(|r| match r.event {
                Event::PlaybackDeferred {
                    segment,
                    from_slot,
                    to_slot,
                    stall_slots,
                } => Some((segment, from_slot, to_slot, stall_slots)),
                _ => None,
            })
            .expect("deferral event");
        assert_eq!(deferred.0, 2);
        assert_eq!(deferred.1, 4);
        assert_eq!(deferred.3, s.recovery_stats().stall_slots);
        assert_eq!(deferred.2, deferred.1 + deferred.3); // telescoping stall

        // Reschedule: T = [3], drop S1 while slack remains.
        let journal = Journal::enabled();
        let mut s = DhbScheduler::new(vec![3], SlotHeuristic::EarliestPossible)
            .with_journal(journal.clone());
        let _ = s.schedule_request(Slot::new(0));
        let _ = s.pop_slot();
        let (_, segs) = s.pop_slot();
        assert_eq!(segs, vec![seg(1)]);
        s.recover_dropped(&[seg(1)]);
        assert_eq!(journal.count_of(EventKind::Rescheduled), 1);
        assert_eq!(journal.count_of(EventKind::PlaybackDeferred), 0);
        let (from, to) = journal
            .snapshot()
            .into_iter()
            .find_map(|r| match r.event {
                Event::Rescheduled {
                    from_slot, to_slot, ..
                } => Some((from_slot, to_slot)),
                _ => None,
            })
            .expect("reschedule event");
        assert_eq!(from, 1);
        assert!(s.planned_segments(Slot::new(to)).contains(&seg(1)));
    }

    #[test]
    fn load_cap_never_delays_beyond_window() {
        let mut s = DhbScheduler::fixed_rate(8).with_load_cap(2);
        for arrival in 0..20u64 {
            while s.next_slot().index() < arrival {
                let _ = s.pop_slot();
            }
            for e in s.schedule_request(Slot::new(arrival)) {
                assert!(e.slot.index() > arrival);
                assert!(e.slot.index() <= arrival + e.segment.get() as u64);
            }
        }
    }
}

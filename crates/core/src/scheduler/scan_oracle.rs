//! The window-scan scheduler kept as a test oracle.
//!
//! [`schedule_request`] and [`replant`] are the original Figure-6 code,
//! which scans every window slot for an instance to share and collects the
//! window's loads into vectors to place one. The latest-instance index and
//! allocation-free placement in the parent module must reproduce them
//! exactly; the property tests below drive both with the same script and
//! compare every outcome.

use vod_obs::Event;
use vod_types::{SegmentId, Slot};

use super::{DhbScheduler, ScheduledSegment};

/// Runs the Figure-6 algorithm for a request arriving during `arrival`,
/// returning each segment's disposition (in segment order).
///
/// # Panics
///
/// Panics if `arrival` precedes the last transmitted slot — requests
/// cannot be scheduled into the past.
pub(super) fn schedule_request(s: &mut DhbScheduler, arrival: Slot) -> Vec<ScheduledSegment> {
    assert!(
        arrival.index() + 1 >= s.base,
        "request in {arrival} arrived after its first window slot was transmitted \
         (next transmission is {})",
        Slot::new(s.base)
    );
    s.requests += 1;
    // Window of S_j starts at ring offset (arrival + 1 − base).
    let start_off = (arrival.index() + 1 - s.base) as usize;
    s.ensure_ring(start_off + s.max_period as usize);

    // This request's receive load per ring offset (client-limit mode).
    let mut client_load = vec![0u32; start_off + s.max_period as usize];

    let mut out = Vec::with_capacity(s.n);
    for j in 1..=s.n {
        let seg = SegmentId::new(j).expect("j >= 1");
        let t = s.periods[j - 1] as usize;
        let window = start_off..start_off + t;

        let client_ok = |off: usize, client_load: &[u32]| match s.client_limit {
            Some(limit) => client_load[off] < limit,
            None => true,
        };

        // Paper: "search slots i+1 to i+T[j] for an already scheduled
        // instance of S_j". With a client receive limit, only instances
        // in slots the client can still listen to are shareable; prefer
        // the latest such instance.
        let mut existing_any = false;
        let mut shareable: Option<usize> = None;
        for (rel, plan) in s.ring.range(window.clone()).enumerate() {
            if plan.scheduled.get(j - 1) {
                existing_any = true;
                let off = start_off + rel;
                if client_ok(off, &client_load) {
                    shareable = Some(off);
                }
            }
        }
        // The latest slot any dependent of this instance can accept:
        // this request's window ends at arrival + T[j].
        let deadline = arrival.index() + t as u64;

        if let Some(off) = shareable {
            s.shared_instances += 1;
            client_load[off] += 1;
            let plan = &mut s.ring[off];
            plan.deadline[j - 1] = plan.deadline[j - 1].min(deadline);
            let load = plan.load;
            let slot = s.base + off as u64;
            s.journal.emit_with(|| Event::InstanceScheduled {
                segment: j as u32,
                shared: true,
                window_start: arrival.index() + 1,
                window_end: deadline,
                slot,
                load,
            });
            out.push(ScheduledSegment {
                segment: seg,
                slot: Slot::new(slot),
                newly_scheduled: false,
            });
            continue;
        }

        // "let m_min := min {m_k}; let k_max := max {k | m_k = m_min};
        // schedule one instance of S_j in slot k_max" — generalised to
        // the pluggable heuristic, restricted to slots the client can
        // listen to, and steered away from slots at the load cap when
        // the window offers an alternative.
        let candidates: Vec<(usize, u32)> = s
            .ring
            .range(window.clone())
            .enumerate()
            .map(|(rel, plan)| (start_off + rel, plan.load))
            .filter(|&(off, _)| client_ok(off, &client_load))
            .collect();
        assert!(
            !candidates.is_empty(),
            "no client-feasible slot for {seg} in window of {t}: \
             the client limit admits at most one segment per slot and \
             periods must be non-decreasing for feasibility"
        );
        let pool: Vec<(usize, u32)> = match s.load_cap {
            Some(cap) => {
                let under: Vec<(usize, u32)> = candidates
                    .iter()
                    .copied()
                    .filter(|&(_, load)| load < cap)
                    .collect();
                if under.is_empty() {
                    s.cap_overflows += 1;
                    candidates
                } else {
                    under
                }
            }
            None => candidates,
        };
        let loads: Vec<u32> = pool.iter().map(|&(_, load)| load).collect();
        let entropy = s.next_entropy();
        let chosen = s.heuristic.pick(&loads, entropy);
        let ring_idx = pool[chosen].0;
        if existing_any {
            s.duplicate_instances += 1;
        }
        place_new(s, seg, ring_idx, deadline, &mut client_load, &mut out);
        let load = s.ring[ring_idx].load;
        let slot = s.base + ring_idx as u64;
        s.journal.emit_with(|| Event::InstanceScheduled {
            segment: j as u32,
            shared: false,
            window_start: arrival.index() + 1,
            window_end: deadline,
            slot,
            load,
        });
    }
    out
}

/// Places a new instance of `seg` in ring slot `ring_idx`.
fn place_new(
    s: &mut DhbScheduler,
    seg: SegmentId,
    ring_idx: usize,
    deadline: u64,
    client_load: &mut [u32],
    out: &mut Vec<ScheduledSegment>,
) {
    let plan = &mut s.ring[ring_idx];
    plan.scheduled.insert(seg.array_index());
    plan.deadline[seg.array_index()] = deadline;
    plan.retries[seg.array_index()] = 0;
    plan.load += 1;
    s.new_instances += 1;
    client_load[ring_idx] += 1;
    out.push(ScheduledSegment {
        segment: seg,
        slot: Slot::new(s.base + ring_idx as u64),
        newly_scheduled: true,
    });
}

/// Shares or places an instance of `seg` somewhere in the next `width`
/// slots (deadline-capped at `deadline`), returning the absolute slot
/// it will air in. Ignores the client limit and load cap.
pub(super) fn replant(
    s: &mut DhbScheduler,
    seg: SegmentId,
    width: usize,
    deadline: u64,
    retries: u32,
) -> u64 {
    let idx = seg.array_index();
    s.ensure_ring(width);
    let mut shareable = None;
    for (off, plan) in s.ring.range(0..width).enumerate() {
        if plan.scheduled.get(idx) {
            shareable = Some(off);
        }
    }
    let off = match shareable {
        Some(off) => off,
        None => {
            let loads: Vec<u32> = s.ring.range(0..width).map(|p| p.load).collect();
            let entropy = s.next_entropy();
            let chosen = s.heuristic.pick(&loads, entropy);
            let plan = &mut s.ring[chosen];
            plan.scheduled.insert(idx);
            plan.deadline[idx] = u64::MAX;
            plan.load += 1;
            s.new_instances += 1;
            chosen
        }
    };
    let abs = s.base + off as u64;
    let plan = &mut s.ring[off];
    plan.deadline[idx] = plan.deadline[idx].min(deadline);
    plan.retries[idx] = plan.retries[idx].max(retries);
    abs
}

mod tests {
    use proptest::prelude::*;
    use vod_obs::Journal;
    use vod_types::{SegmentId, Slot};

    use super::{replant, schedule_request};
    use crate::heuristic::SlotHeuristic;
    use crate::scheduler::DhbScheduler;

    /// One scripted step: `(kind, offset, bits)`. Kinds 0–4 request at
    /// `base − 1 + offset` (so arrivals may run a few slots into the future
    /// and later ones may precede earlier ones); kind 5 pops a slot; kinds
    /// 6–7 pop a slot and report the aired segments picked by `bits` as
    /// dropped.
    type Op = (u8, u64, u64);

    fn build(
        periods: &[u64],
        heuristic: SlotHeuristic,
        cap: u32,
        limit: u32,
        retries: u32,
    ) -> DhbScheduler {
        let mut s = DhbScheduler::new(periods.to_vec(), heuristic)
            .with_max_recovery_retries(retries)
            .with_journal(Journal::enabled());
        if cap > 0 {
            s = s.with_load_cap(cap);
        }
        if limit > 0 {
            s = s.with_client_limit(limit);
        }
        s
    }

    /// The ring invariants the kernel relies on: a recycled plan reads as
    /// a fresh one, and the latest-instance index bounds every instance.
    fn check_ring(s: &DhbScheduler) -> Result<(), String> {
        for (off, plan) in s.ring.iter().enumerate() {
            let slot = s.base + off as u64;
            if plan.load as usize != plan.scheduled.iter_ones().count() {
                return Err(format!("slot {slot}: load {} != bitset", plan.load));
            }
            for idx in 0..s.n {
                let stale = plan.deadline[idx] != 0 || plan.retries[idx] != 0;
                if !plan.scheduled.get(idx) && stale {
                    return Err(format!("slot {slot}: stale entry for S{}", idx + 1));
                }
                if plan.scheduled.get(idx) && slot >= s.latest[idx] {
                    return Err(format!("slot {slot}: S{} beyond its index", idx + 1));
                }
            }
        }
        Ok(())
    }

    /// Runs `ops` on `kernel` and on a clone driven through the scan
    /// oracle, then drains both rings, comparing every output and counter.
    fn compare(kernel: DhbScheduler, ops: &[Op]) -> Result<(), String> {
        let (mut new, mut old) = (kernel.clone(), kernel);
        old = old.with_journal(Journal::enabled());
        let pop = |new: &mut DhbScheduler, old: &mut DhbScheduler, step: usize| {
            let aired = new.pop_slot();
            let expected = old.pop_slot();
            if aired == expected {
                Ok(aired.1)
            } else {
                Err(format!(
                    "step {step}: popped {aired:?}, oracle {expected:?}"
                ))
            }
        };
        for (step, &(kind, offset, bits)) in ops.iter().enumerate() {
            match kind {
                0..=4 => {
                    let arrival = Slot::new((new.next_slot().index() + offset).saturating_sub(1));
                    let got = new.schedule_request(arrival);
                    let want = schedule_request(&mut old, arrival);
                    if got != want {
                        return Err(format!(
                            "step {step}: request in {arrival}: {got:?} != oracle {want:?}"
                        ));
                    }
                }
                _ => {
                    let aired = pop(&mut new, &mut old, step)?;
                    if kind >= 6 {
                        let dropped: Vec<SegmentId> = aired
                            .iter()
                            .enumerate()
                            .filter(|&(i, _)| bits >> (i % 64) & 1 == 1)
                            .map(|(_, &seg)| seg)
                            .collect();
                        new.recover_dropped(&dropped);
                        old.recover_with(&dropped, replant);
                    }
                }
            }
            check_ring(&new).map_err(|e| format!("step {step}: {e}"))?;
        }
        let drain = new.ring.len() + new.max_period as usize;
        for step in ops.len()..ops.len() + drain {
            pop(&mut new, &mut old, step)?;
        }
        let counters = |s: &DhbScheduler| {
            (
                s.requests(),
                s.new_instances(),
                s.shared_instances(),
                s.duplicate_instances(),
                s.cap_overflows(),
                s.recovery_stats(),
            )
        };
        if counters(&new) != counters(&old) {
            return Err(format!(
                "counters {:?} != oracle {:?}",
                counters(&new),
                counters(&old)
            ));
        }
        let events = |s: &DhbScheduler| -> Vec<_> {
            s.journal()
                .snapshot()
                .into_iter()
                .map(|r| r.event)
                .collect()
        };
        let (got, want) = (events(&new), events(&old));
        if got != want {
            let at = got.iter().zip(&want).take_while(|(a, b)| a == b).count();
            return Err(format!(
                "journal diverges at event {at} of {}/{}: {:?} != oracle {:?}",
                got.len(),
                want.len(),
                got.get(at),
                want.get(at)
            ));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The latest-instance index and allocation-free placement agree
        /// with the window scan on every heuristic, load cap, client limit
        /// and recovery path, including out-of-order arrivals.
        #[test]
        fn index_kernel_matches_the_window_scan(
            periods in prop::collection::vec(1u64..24, 1..32),
            heuristic in 0usize..SlotHeuristic::ALL.len(),
            cap in 0u32..4,
            limit in 0u32..3,
            retries in 1u32..9,
            ops in prop::collection::vec((0u8..8, 0u64..4, any::<u64>()), 1..160),
        ) {
            let mut periods = periods;
            if limit > 0 {
                // A limited client is only guaranteed a free slot for S_j
                // when periods are non-decreasing and T[j] ≥ j.
                periods.sort_unstable();
                for (j, t) in periods.iter_mut().enumerate() {
                    *t = (*t).max(j as u64 + 1);
                }
            }
            let s = build(&periods, SlotHeuristic::ALL[heuristic], cap, limit, retries);
            if let Err(e) = compare(s, &ops) {
                prop_assert!(false, "{e}");
            }
        }
    }

    /// The paper's 99-segment video under a heavy, lossy load: the regime
    /// in which the index answers almost every sharing question.
    #[test]
    fn paper_scale_runs_match() {
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let ops: Vec<Op> = (0..800)
            .map(|_| {
                let r = next();
                // Two requests per pop on average; one pop in eight drops.
                let kind = match r % 24 {
                    0..=15 => 0,
                    16..=20 => 5,
                    _ => 6,
                };
                (kind, (r >> 8) % 4, next() & next())
            })
            .collect();
        let periods: Vec<u64> = (1..=99).collect();
        let paper = SlotHeuristic::MinLoadLatest;
        let configs = SlotHeuristic::ALL
            .map(|heuristic| (heuristic, 0, 0))
            .into_iter()
            .chain([(paper, 3, 0), (paper, 0, 2)]);
        for (heuristic, cap, limit) in configs {
            let s = build(&periods, heuristic, cap, limit, 8);
            if let Err(e) = compare(s, &ops) {
                panic!("{heuristic} cap {cap} limit {limit}: {e}");
            }
        }
    }
}

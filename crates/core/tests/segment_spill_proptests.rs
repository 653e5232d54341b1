//! Property tests for catalogs larger than the scheduler's 128-bit inline
//! bitset. `SegmentSet` keeps the first 128 segment bits in two inline words
//! and spills the rest to a boxed slice; every test here uses `n > 128` so
//! insert/get/iterate all cross that boundary, and checks the scheduler's
//! externally visible invariants (coverage, windows, sharing, ring
//! conservation) against independent set-based oracles.

use std::collections::{BTreeMap, BTreeSet};

use dhb_core::{DhbScheduler, SlotHeuristic, SlotScheduler};
use proptest::prelude::*;
use vod_types::Slot;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A fresh request in a spill-sized catalog schedules every segment
    /// exactly once, inside its window, on both sides of the 128-bit
    /// inline boundary.
    #[test]
    fn first_request_covers_the_whole_spill_catalog(
        n in 129usize..280,
        arrival in 0u64..50,
    ) {
        let mut s = DhbScheduler::fixed_rate(n);
        while s.next_slot().index() < arrival {
            let _ = s.pop_slot();
        }
        let schedule = s.schedule_request(Slot::new(arrival));
        prop_assert_eq!(schedule.len(), n);
        let mut seen = BTreeSet::new();
        for e in &schedule {
            prop_assert!(e.newly_scheduled, "fresh catalog must schedule anew");
            prop_assert!(
                seen.insert(e.segment.array_index()),
                "S{} scheduled twice",
                e.segment.get()
            );
            let j = e.segment.get() as u64;
            prop_assert!(e.slot.index() > arrival, "too early: {e:?}");
            prop_assert!(e.slot.index() <= arrival + j, "outside window: {e:?}");
        }
        prop_assert_eq!(seen.last().copied(), Some(n - 1));
    }

    /// Ring conservation across the spill boundary, driven through the
    /// trait object exactly as the live service drives it: every instance
    /// scheduled as new is popped exactly once in its slot, never
    /// duplicated, and `planned_segments` agrees with the oracle while the
    /// slot is still pending.
    #[test]
    fn spill_ring_pops_exactly_what_was_scheduled(
        n in 129usize..220,
        arrivals in prop::collection::vec(0u64..40, 1..12),
    ) {
        let mut sorted = arrivals;
        sorted.sort_unstable();
        let mut s: Box<dyn SlotScheduler> = Box::new(DhbScheduler::fixed_rate(n));
        let mut oracle: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
        let check_pop = |s: &mut Box<dyn SlotScheduler>,
                             oracle: &mut BTreeMap<u64, BTreeSet<usize>>|
         -> Result<(), TestCaseError> {
            let (slot, popped) = s.pop_slot();
            let expect = oracle.remove(&slot.index()).unwrap_or_default();
            let got: BTreeSet<usize> = popped.iter().map(|seg| seg.array_index()).collect();
            prop_assert_eq!(got.len(), popped.len(), "duplicate pop in slot {}", slot.index());
            prop_assert_eq!(got, expect, "slot {} diverged from the oracle", slot.index());
            Ok(())
        };
        for &a in &sorted {
            while s.next_slot().index() < a {
                check_pop(&mut s, &mut oracle)?;
            }
            for e in s.schedule_request(Slot::new(a)) {
                if e.newly_scheduled {
                    prop_assert!(
                        oracle.entry(e.slot.index()).or_default().insert(e.segment.array_index()),
                        "S{} scheduled twice into slot {}",
                        e.segment.get(),
                        e.slot.index()
                    );
                }
            }
            for (&slot, expect) in &oracle {
                let planned: BTreeSet<usize> = s
                    .planned_segments(Slot::new(slot))
                    .iter()
                    .map(|seg| seg.array_index())
                    .collect();
                prop_assert_eq!(&planned, expect, "planned_segments({slot}) diverged");
            }
        }
        while !oracle.is_empty() {
            check_pop(&mut s, &mut oracle)?;
        }
    }

    /// Same-slot sharing holds above the inline boundary too: a second
    /// request in the same slot shares all `n` instances and creates none.
    #[test]
    fn spill_catalog_shares_whole_windows(n in 129usize..220, arrival in 0u64..30) {
        let mut s = DhbScheduler::fixed_rate(n);
        let first = s.schedule_request(Slot::new(arrival));
        let second = s.schedule_request(Slot::new(arrival));
        prop_assert!(first.iter().all(|e| e.newly_scheduled));
        prop_assert!(second.iter().all(|e| !e.newly_scheduled));
        for (a, b) in first.iter().zip(&second) {
            prop_assert_eq!(a.slot, b.slot);
        }
    }

    /// Arbitrary period vectors longer than the inline bitset keep the
    /// paper's window invariant `(i, i + T[j]]` for every instance.
    #[test]
    fn long_period_vectors_stay_inside_windows(
        periods in prop::collection::vec(1u64..40, 129..200),
        arrivals in prop::collection::vec(0u64..50, 1..8),
    ) {
        let mut sorted = arrivals;
        sorted.sort_unstable();
        let mut s = DhbScheduler::new(periods.clone(), SlotHeuristic::MinLoadLatest);
        for &a in &sorted {
            while s.next_slot().index() < a {
                let _ = s.pop_slot();
            }
            for (idx, e) in s.schedule_request(Slot::new(a)).iter().enumerate() {
                let t = periods[idx];
                prop_assert!(e.slot.index() > a, "too early: {e:?}");
                prop_assert!(
                    e.slot.index() <= a + t,
                    "S{} at {} outside [{}, {}]",
                    idx + 1,
                    e.slot.index(),
                    a + 1,
                    a + t
                );
            }
        }
    }
}

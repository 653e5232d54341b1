//! Slot-selection heuristics.
//!
//! The paper motivates its heuristic with a worst case: if every new
//! instance were simply scheduled as late as possible, a two-hour video in
//! 120 segments under sustained load would eventually pile one transmission
//! of *every* segment into the same slot — a bandwidth peak of `120·b`
//! (Section 3). The min-load rule spreads instances across the window
//! instead; the tie-break towards the latest slot preserves the most
//! opportunity for future sharing. The alternatives exist for the
//! `ablation_heuristic` bench, which reproduces exactly that comparison.

use std::fmt;

/// How the scheduler picks a slot for a new segment instance within the
/// feasible window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotHeuristic {
    /// The paper's rule (Figure 6): minimum load, ties towards the latest
    /// slot.
    MinLoadLatest,
    /// Minimum load, ties towards the earliest slot.
    MinLoadEarliest,
    /// Always the latest feasible slot (maximal sharing, pathological
    /// peaks — the strawman of Section 3).
    LatestPossible,
    /// Always the earliest feasible slot (minimal latency for the
    /// instance, minimal future sharing).
    EarliestPossible,
    /// A uniformly random window slot (load-oblivious control).
    Random,
}

impl SlotHeuristic {
    /// All heuristics, paper's first.
    pub const ALL: [SlotHeuristic; 5] = [
        SlotHeuristic::MinLoadLatest,
        SlotHeuristic::MinLoadEarliest,
        SlotHeuristic::LatestPossible,
        SlotHeuristic::EarliestPossible,
        SlotHeuristic::Random,
    ];

    /// Picks an index into `loads` (the window's per-slot loads, earliest
    /// first). `entropy` feeds the random variant; deterministic variants
    /// ignore it.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    #[must_use]
    pub fn pick(self, loads: &[u32], entropy: u64) -> usize {
        self.pick_capped(loads.iter().copied().enumerate(), None, entropy)
            .expect("cannot pick from an empty window")
            .0
    }

    /// Allocation-free [`pick`](Self::pick) over `(ring offset, load)`
    /// candidates (earliest first), honouring a soft load `cap`: the
    /// heuristic chooses among the candidates below the cap, or among all of
    /// them when none is. Returns the chosen offset and whether the cap
    /// overflowed, or `None` if there are no candidates. Only
    /// [`Random`](Self::Random) walks the candidates twice.
    pub(crate) fn pick_capped<I>(
        self,
        candidates: I,
        cap: Option<u32>,
        entropy: u64,
    ) -> Option<(usize, bool)>
    where
        I: Iterator<Item = (usize, u32)> + Clone,
    {
        let under = |load: u32| cap.is_none_or(|cap| load < cap);
        match self {
            SlotHeuristic::MinLoadLatest | SlotHeuristic::MinLoadEarliest => {
                // The min-load slot is below the cap whenever any slot is, so
                // the cap only decides whether this placement overflows.
                let latest = self == SlotHeuristic::MinLoadLatest;
                let (off, load) = candidates.reduce(|best, c| {
                    // Only the paper's rule moves ties to the later slot.
                    if c.1 < best.1 || (latest && c.1 == best.1) {
                        c
                    } else {
                        best
                    }
                })?;
                Some((off, !under(load)))
            }
            SlotHeuristic::LatestPossible => {
                let (mut last, mut last_under) = (None, None);
                for (off, load) in candidates {
                    last = Some(off);
                    if under(load) {
                        last_under = Some(off);
                    }
                }
                let last = last?;
                Some(last_under.map_or((last, true), |off| (off, false)))
            }
            SlotHeuristic::EarliestPossible => {
                let mut first = None;
                for (off, load) in candidates {
                    if under(load) {
                        return Some((off, false));
                    }
                    first.get_or_insert(off);
                }
                first.map(|off| (off, true))
            }
            SlotHeuristic::Random => {
                let (all, below) = candidates
                    .clone()
                    .fold((0u64, 0u64), |(all, below), (_, load)| {
                        (all + 1, below + u64::from(under(load)))
                    });
                let overflow = below == 0;
                let pool = if overflow { all } else { below };
                if pool == 0 {
                    return None;
                }
                let k = (entropy % pool) as usize;
                let (off, _) = candidates
                    .filter(|&(_, load)| overflow || under(load))
                    .nth(k)?;
                Some((off, overflow))
            }
        }
    }
}

impl fmt::Display for SlotHeuristic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SlotHeuristic::MinLoadLatest => "min-load/latest",
            SlotHeuristic::MinLoadEarliest => "min-load/earliest",
            SlotHeuristic::LatestPossible => "latest-possible",
            SlotHeuristic::EarliestPossible => "earliest-possible",
            SlotHeuristic::Random => "random",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rule_prefers_min_load_then_latest() {
        let h = SlotHeuristic::MinLoadLatest;
        assert_eq!(h.pick(&[3, 1, 2], 0), 1);
        // Ties broken towards the latest slot (k_max in the paper).
        assert_eq!(h.pick(&[1, 0, 0, 2], 0), 2);
        assert_eq!(h.pick(&[0, 0, 0], 0), 2);
    }

    #[test]
    fn min_load_earliest_breaks_ties_low() {
        let h = SlotHeuristic::MinLoadEarliest;
        assert_eq!(h.pick(&[1, 0, 0, 2], 0), 1);
        assert_eq!(h.pick(&[0, 0, 0], 0), 0);
    }

    #[test]
    fn extremes() {
        assert_eq!(SlotHeuristic::LatestPossible.pick(&[9, 9, 0], 0), 2);
        assert_eq!(SlotHeuristic::EarliestPossible.pick(&[9, 9, 0], 0), 0);
    }

    #[test]
    fn random_is_in_range_and_entropy_driven() {
        let loads = [0u32; 7];
        for entropy in 0..100 {
            let idx = SlotHeuristic::Random.pick(&loads, entropy);
            assert!(idx < 7);
        }
        assert_ne!(
            SlotHeuristic::Random.pick(&loads, 1),
            SlotHeuristic::Random.pick(&loads, 2)
        );
    }

    #[test]
    fn cap_restricts_the_pool_or_overflows() {
        let loads = [2u32, 0, 3, 1, 2];
        let pick = |h: SlotHeuristic, cap, entropy| {
            h.pick_capped(loads.iter().copied().enumerate(), Some(cap), entropy)
        };
        // Below-cap pool {1, 3} at cap 2.
        assert_eq!(pick(SlotHeuristic::MinLoadLatest, 2, 0), Some((1, false)));
        assert_eq!(pick(SlotHeuristic::LatestPossible, 2, 0), Some((3, false)));
        assert_eq!(
            pick(SlotHeuristic::EarliestPossible, 2, 0),
            Some((1, false))
        );
        assert_eq!(pick(SlotHeuristic::Random, 2, 3), Some((3, false)));
        // Nothing below cap 1 except slot 1; nothing at all below cap 0.
        assert_eq!(pick(SlotHeuristic::LatestPossible, 1, 0), Some((1, false)));
        assert_eq!(pick(SlotHeuristic::LatestPossible, 0, 0), Some((4, true)));
        assert_eq!(pick(SlotHeuristic::MinLoadEarliest, 0, 0), Some((1, true)));
        assert_eq!(pick(SlotHeuristic::Random, 0, 7), Some((2, true)));
        assert_eq!(
            SlotHeuristic::Random.pick_capped(std::iter::empty(), None, 1),
            None
        );
    }

    #[test]
    fn single_slot_window_is_forced() {
        for h in SlotHeuristic::ALL {
            assert_eq!(h.pick(&[5], 42), 0, "{h}");
        }
    }

    #[test]
    fn display_names_are_distinct() {
        let names: std::collections::HashSet<String> =
            SlotHeuristic::ALL.iter().map(ToString::to_string).collect();
        assert_eq!(names.len(), SlotHeuristic::ALL.len());
    }
}

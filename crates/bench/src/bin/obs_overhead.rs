//! OBS_OVERHEAD — the cost of the observability layer on the scheduler's
//! hot path, measured so the "a disabled journal is free" claim stays a
//! number rather than a hope.
//!
//! Workload: 200 slots × 20 requests on the paper's 99-segment video —
//! 4 000 `schedule_request` calls, each placing or sharing 99 segment
//! instances. Two configurations, both measured in the same run:
//!
//! * **noop journal** — the shipping default: emission points present, a
//!   disabled [`Journal`] attached. The only added work is one branch per
//!   emission point.
//! * **ring journal** — a full [`Journal::enabled`] sink: every decision
//!   constructs an event and pushes it into the ring (evicting at
//!   capacity), the worst case a `vodsim trace` run pays.
//!
//! The table states the ring row as a ratio over the noop row, so it
//! compares nothing across hosts. The assert still holds the noop row to
//! its historical bound over a recorded pre-instrumentation time; since the
//! latest-instance index made `schedule_request` several times cheaper, it
//! passes by a wide margin.
//!
//! Timing is best-of-15 after 3 warm-up cycles; best-of is robust to
//! scheduler jitter on shared machines. Results land in
//! `bench-results/obs_overhead.json`.

use std::hint::black_box;
use std::time::Instant;

use dhb_core::DhbScheduler;
use vod_obs::Journal;
use vod_sim::Table;
use vod_types::Slot;

/// Best-of-15 ns per `schedule_request` on the reference machine, measured
/// on the same workload *before* any emission point existed in the
/// scheduler, and with the window-scan kernel (see DESIGN.md §10). Used
/// only by the historical bound below.
const PRE_INSTRUMENTATION_NS: f64 = 6337.0;

/// The acceptance bound: a disabled journal may cost at most 5 %.
const NOOP_OVERHEAD_BOUND: f64 = 0.05;

const SEGMENTS: usize = 99;
const SLOTS: u64 = 200;
const REQUESTS_PER_SLOT: u32 = 20;
const WARMUP_CYCLES: u32 = 3;
const TIMED_CYCLES: u32 = 15;

fn cycle(journal: Option<&Journal>) -> u64 {
    let mut s = DhbScheduler::fixed_rate(SEGMENTS);
    if let Some(journal) = journal {
        s = s.with_journal(journal.clone());
    }
    for slot in 0..SLOTS {
        while s.next_slot().index() < slot {
            let _ = s.pop_slot();
        }
        for _ in 0..REQUESTS_PER_SLOT {
            let _ = black_box(s.schedule_request(Slot::new(slot)));
        }
    }
    s.new_instances()
}

/// Best-of-N ns per request for one configuration.
fn measure(journal: Option<&Journal>) -> f64 {
    let requests = SLOTS * u64::from(REQUESTS_PER_SLOT);
    for _ in 0..WARMUP_CYCLES {
        black_box(cycle(journal));
    }
    let mut best = f64::INFINITY;
    for _ in 0..TIMED_CYCLES {
        let t0 = Instant::now();
        black_box(cycle(journal));
        best = best.min(t0.elapsed().as_nanos() as f64 / requests as f64);
    }
    best
}

fn main() {
    eprintln!("measuring noop journal…");
    let noop_ns = measure(None);
    eprintln!("measuring ring journal…");
    let ring = Journal::enabled();
    let ring_ns = measure(Some(&ring));

    let mut table = Table::new(vec!["configuration", "ns/request", "× noop (same run)"]);
    for (name, ns) in [
        ("noop journal (default)", noop_ns),
        ("ring journal (trace runs)", ring_ns),
    ] {
        table.push_row(vec![
            name.to_owned(),
            format!("{ns:.1}"),
            format!("{:.2}", ns / noop_ns),
        ]);
    }
    vod_bench::emit(
        "obs_overhead",
        "Observability overhead: ns per schedule_request, 99 segments, 20 req/slot × 200 slots",
        &table,
    );

    assert!(
        noop_ns <= PRE_INSTRUMENTATION_NS * (1.0 + NOOP_OVERHEAD_BOUND),
        "disabled-journal overhead {:.1} ns exceeds the {:.0}% bound over {PRE_INSTRUMENTATION_NS} ns",
        noop_ns,
        NOOP_OVERHEAD_BOUND * 100.0
    );
    println!(
        "[overhead check passed: noop {noop_ns:.1} ns/request within {:.0}% of the \
         pre-instrumentation {PRE_INSTRUMENTATION_NS:.1} ns; ring journal costs {:.2}× noop \
         in this run]",
        NOOP_OVERHEAD_BOUND * 100.0,
        ring_ns / noop_ns
    );
}

//! The offline identity oracle: replays a workload's exact per-video
//! arrivals through a fresh `DhbScheduler`, exactly as a service shard
//! does, and digests every schedule so the live grants can be compared.

use dhb_core::{DhbScheduler, ScheduledSegment};
use vod_types::Slot;

use crate::trace::span;
use crate::util::fnv_words;

/// Digest of one grant: arrival slot plus `(segment, slot, shared)` per
/// instance, in segment order.
pub fn grant_digest(arrival: u64, segments: impl Iterator<Item = (u32, u64, bool)>) -> u64 {
    fnv_words(std::iter::once(arrival).chain(
        segments.flat_map(|(seg, slot, shared)| [u64::from(seg) << 1 | u64::from(shared), slot]),
    ))
}

fn digest_schedule(arrival: u64, schedule: &[ScheduledSegment]) -> u64 {
    grant_digest(
        arrival,
        schedule
            .iter()
            .map(|s| (s.segment.get() as u32, s.slot.index(), !s.newly_scheduled)),
    )
}

#[derive(Debug, Default, Clone)]
pub struct Replay {
    pub requests: u64,
    pub new_instances: u64,
    pub shared_instances: u64,
    pub pops: u64,
    /// Requests whose live grant differed from the replay.
    pub mismatches: u64,
    /// Every newly scheduled instance, in publication order per video:
    /// `(video, segment, air slot)`.
    pub publications: Vec<(u32, u32, u64)>,
}

/// Replays `arrivals[v]` — `(arrival slot, live grant digest)` in the
/// order video `v`'s requests were granted — and counts mismatches.
pub fn replay(arrivals: &[(u32, Vec<(u64, u64)>)], segments: usize, keep_pubs: bool) -> Replay {
    let mut out = Replay::default();
    for (video, list) in arrivals {
        let mut scheduler = DhbScheduler::fixed_rate(segments);
        for &(arrival, digest) in list {
            while scheduler.next_slot().index() < arrival {
                span("core", "pop_slot", || scheduler.pop_slot());
                out.pops += 1;
            }
            let schedule = span("core", "schedule_request", || {
                scheduler.schedule_request(Slot::new(arrival))
            });
            out.requests += 1;
            for s in &schedule {
                if s.newly_scheduled {
                    out.new_instances += 1;
                    if keep_pubs {
                        out.publications
                            .push((*video, s.segment.get() as u32, s.slot.index()));
                    }
                } else {
                    out.shared_instances += 1;
                }
            }
            if digest_schedule(arrival, &schedule) != digest {
                out.mismatches += 1;
            }
        }
    }
    out
}

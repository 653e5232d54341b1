//! `ring` layer costs on the `bytes` workload's exact publication order:
//! the benchmark publishes into its own `SegmentRing`s and reads them with
//! one cursor per subscriber, and synthesizes and checksums a sample of
//! the published segments at full length.

use std::sync::Arc;

use vod_ring::{checksum64, SegmentPayload, SegmentRing, SegmentStore};
use vod_svc::SvcConfig;

use crate::oracle::Replay;
use crate::report::PhaseOut;
use crate::trace::{self, span};

/// Segments synthesized and checksummed at full length.
const SAMPLE: usize = 32;
/// Ring entries are `Arc`-shared, so publish and read cost does not depend
/// on the payload length; short payloads keep this replay small.
const RING_PAYLOAD: usize = 64;

pub fn measure(
    out: &mut PhaseOut,
    rep: &Replay,
    config: &SvcConfig,
    payload_len: usize,
    subs: usize,
) {
    let _ = trace::take_all();
    let mut sampled = 0.0;
    for &(video, segment, _) in rep.publications.iter().take(SAMPLE) {
        let p = span("ring", "synthesize", || {
            SegmentPayload::synthesize(config.store_seed, video, segment, payload_len)
        });
        let sum = span("ring", "checksum", || checksum64(p.bytes()));
        out.check(
            sum == p.checksum(),
            format!("checksum of segment {segment} is not stable"),
        );
        sampled += payload_len as f64 / 1024.0;
    }
    let videos = rep
        .publications
        .iter()
        .map(|p| p.0)
        .max()
        .map_or(0, |v| v + 1);
    let store = SegmentStore::new(config.store_seed);
    let rings: Vec<SegmentRing> = (0..videos)
        .map(|_| SegmentRing::new(config.ring_cap))
        .collect();
    let mut cursors: Vec<Vec<_>> = rings.iter().map(|r| vec![r.cursor(); subs]).collect();
    for &(video, segment, slot) in &rep.publications {
        let payload = store.payload(video, segment, RING_PAYLOAD);
        let ring = &rings[video as usize];
        span("ring", "publish", || {
            ring.publish(Arc::clone(&payload), slot)
        });
        for c in &mut cursors[video as usize] {
            let _ = span("ring", "read", || ring.read(c));
        }
    }
    let aggs = trace::aggregate(&trace::take_all());
    let per_kib = |name| trace::call(&aggs, "ring", name).total_ns as f64 / sampled.max(1.0);
    out.layer("ring.synthesize_ns_per_kib", per_kib("synthesize"), "ns");
    out.layer("ring.checksum_ns_per_kib", per_kib("checksum"), "ns");
    out.layer(
        "ring.publish_ns",
        trace::call(&aggs, "ring", "publish").mean_ns(),
        "ns",
    );
    out.layer(
        "ring.read_ns",
        trace::call(&aggs, "ring", "read").mean_ns(),
        "ns",
    );
}

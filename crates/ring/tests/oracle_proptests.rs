//! Property tests for the seekable payload oracle: any slice of a
//! synthesized payload, at any offset and length, is accepted, and any
//! single-bit corruption of it, or the same bytes under another key, is
//! rejected.

use proptest::prelude::*;
use vod_ring::{PayloadOracle, SegmentPayload};

/// Two full 1 MiB wire chunks plus change: large enough that slices
/// cross many words at arbitrary alignment.
const PAYLOAD: usize = (2 << 20) + 13;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn large_chunks_match_at_any_offset(
        seed in any::<u64>(),
        video in 0u32..1000,
        segment in 0u32..200,
        start in 0usize..PAYLOAD,
        len in 0usize..(256 << 10),
        flip in any::<u64>(),
    ) {
        let p = SegmentPayload::synthesize(seed, video, segment, PAYLOAD);
        let end = (start + len).min(PAYLOAD);
        let chunk = &p.bytes()[start..end];
        let oracle = PayloadOracle::new(seed, video, segment);
        prop_assert!(oracle.matches(start as u64, chunk));
        if !chunk.is_empty() {
            let bit = (flip % (chunk.len() as u64 * 8)) as usize;
            let mut bad = chunk.to_vec();
            bad[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(!oracle.matches(start as u64, &bad), "bit {} flipped", bit);
        }
        if chunk.len() >= 8 {
            for other in [
                PayloadOracle::new(seed ^ 1, video, segment),
                PayloadOracle::new(seed, video + 1, segment),
                PayloadOracle::new(seed, video, segment + 1),
            ] {
                prop_assert!(!other.matches(start as u64, chunk), "another key's stream");
            }
        }
    }

    #[test]
    fn synthesis_is_a_prefix_of_the_oracle_stream(
        seed in any::<u64>(),
        video in any::<u32>(),
        segment in any::<u32>(),
        short in 0usize..200,
        extra in 0usize..200,
    ) {
        let long = SegmentPayload::synthesize(seed, video, segment, short + extra);
        let prefix = SegmentPayload::synthesize(seed, video, segment, short);
        prop_assert_eq!(prefix.bytes(), &long.bytes()[..short]);
        prop_assert!(PayloadOracle::new(seed, video, segment).matches(0, long.bytes()));
    }
}

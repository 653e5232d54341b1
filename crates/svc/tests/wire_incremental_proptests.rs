//! Property tests for the incremental wire decoder backing the event-loop
//! read path: feeding a byte stream to [`FrameDecoder`] in *any* split —
//! one byte at a time, at every possible boundary, or many frames
//! coalesced into one chunk — must yield the exact frame sequence the
//! whole-frame [`read_frame`] decoder produces, with partial prefixes held
//! silently across calls and oversized prefixes rejected identically.

use proptest::prelude::*;
use vod_svc::wire::{read_frame, Frame, FrameBuffer, FrameDecoder, WireError};
use vod_svc::{GrantedSegment, MAX_FRAME_LEN, PROTOCOL_VERSION};

/// A small frame mix driven by primitive inputs (the proptest shim has no
/// derive support). Variable-size payloads (`Grant` segments, `VideoInfo`
/// text) matter here: they move every interior byte boundary around.
fn build_frame(kind: usize, a: u64, b: u64, c: u32, segs: &[(u32, u64, bool)]) -> Frame {
    match kind {
        0 => Frame::Hello {
            version: PROTOCOL_VERSION,
        },
        1 => Frame::Request {
            seq: a,
            video: c,
            arrival_slot: b,
        },
        2 => Frame::Grant {
            seq: a,
            video: c,
            arrival_slot: b,
            segments: segs
                .iter()
                .map(|&(segment, slot, shared)| GrantedSegment {
                    segment,
                    slot,
                    shared,
                })
                .collect(),
        },
        3 => Frame::Rejected {
            seq: a,
            reason: vod_obs::RejectKind::ALL[b as usize % vod_obs::RejectKind::ALL.len()],
        },
        4 => Frame::Resume {
            session: a,
            last_seq_seen: b,
        },
        5 => Frame::VideoInfo {
            seq: a,
            video: c,
            segments: segs.len() as u32,
            protocol: "DHB".to_owned(),
            periods: segs.iter().map(|&(_, slot, _)| slot).collect(),
        },
        6 => Frame::Resumed {
            session: a,
            replayed: c,
        },
        7 => Frame::Spans { max: c },
        8 => Frame::SpansReply {
            jsonl: format!("{{\"id\": {a}, \"total_ns\": {b}}}\n").repeat(segs.len()),
        },
        _ => Frame::Draining,
    }
}

/// The oracle: what the blocking whole-frame reader makes of `bytes`.
fn decode_whole(mut bytes: &[u8]) -> Vec<Frame> {
    let mut frames = Vec::new();
    while let Ok(Some(frame)) = read_frame(&mut bytes) {
        frames.push(frame);
    }
    frames
}

/// Drains every complete frame the decoder currently holds.
fn drain(decoder: &mut FrameDecoder, into: &mut Vec<Frame>) {
    while let Ok(Some(frame)) = decoder.next_frame() {
        into.push(frame);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Split the stream at EVERY byte boundary in turn: for each split
    /// point the decoder sees the stream as exactly two chunks, and must
    /// produce the oracle sequence regardless of where the cut falls —
    /// inside a length prefix, inside a payload, or exactly on a frame
    /// boundary.
    #[test]
    fn every_two_chunk_split_is_byte_identical(
        kinds in prop::collection::vec(0usize..10, 1..4),
        (a, b, c) in (any::<u64>(), any::<u64>(), any::<u32>()),
        segs in prop::collection::vec((any::<u32>(), any::<u64>(), any::<bool>()), 0..6),
    ) {
        let frames: Vec<Frame> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| build_frame(k, a.wrapping_add(i as u64), b, c, &segs))
            .collect();
        let stream: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        let expected = decode_whole(&stream);
        prop_assert_eq!(&expected, &frames, "oracle must round-trip");

        for cut in 0..=stream.len() {
            let mut decoder = FrameDecoder::new();
            let mut got = Vec::new();
            decoder.extend(&stream[..cut]);
            drain(&mut decoder, &mut got);
            decoder.extend(&stream[cut..]);
            drain(&mut decoder, &mut got);
            prop_assert_eq!(&got, &expected, "split at byte {} diverged", cut);
            prop_assert!(!decoder.mid_frame(), "split at {} left residue", cut);
        }
    }

    /// One byte at a time — the worst case the nonblocking read path can
    /// see — still yields the oracle sequence, and `mid_frame` is true at
    /// exactly the interior bytes.
    #[test]
    fn one_byte_reads_are_byte_identical(
        kinds in prop::collection::vec(0usize..10, 1..5),
        (a, b, c) in (any::<u64>(), any::<u64>(), any::<u32>()),
        segs in prop::collection::vec((any::<u32>(), any::<u64>(), any::<bool>()), 0..5),
    ) {
        let frames: Vec<Frame> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| build_frame(k, a.wrapping_add(i as u64), b, c, &segs))
            .collect();
        let stream: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        let expected = decode_whole(&stream);

        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        for &byte in &stream {
            decoder.extend(&[byte]);
            drain(&mut decoder, &mut got);
        }
        prop_assert_eq!(got, expected);
        prop_assert!(!decoder.mid_frame());
    }

    /// A partial prefix — any strict prefix of one frame — yields nothing,
    /// reports `mid_frame` (except the empty prefix), and completes
    /// correctly when the remainder arrives.
    #[test]
    fn partial_prefixes_hold_silently(
        kind in 0usize..10,
        (a, b, c) in (any::<u64>(), any::<u64>(), any::<u32>()),
        segs in prop::collection::vec((any::<u32>(), any::<u64>(), any::<bool>()), 0..6),
        cut_seed in any::<u64>(),
    ) {
        let frame = build_frame(kind, a, b, c, &segs);
        let bytes = frame.encode();
        let cut = (cut_seed as usize) % bytes.len(); // strict prefix

        let mut decoder = FrameDecoder::new();
        decoder.extend(&bytes[..cut]);
        prop_assert!(matches!(decoder.next_frame(), Ok(None)));
        prop_assert_eq!(decoder.mid_frame(), cut > 0);
        prop_assert_eq!(decoder.buffered(), cut);

        decoder.extend(&bytes[cut..]);
        let decoded = decoder.next_frame().expect("valid frame").expect("complete");
        prop_assert_eq!(decoded, frame);
        prop_assert!(matches!(decoder.next_frame(), Ok(None)));
    }

    /// Many frames coalesced into a single `extend` (the one-read-many-
    /// frames case) drain in order from one buffer, byte-identical to the
    /// oracle and re-encoding to the original stream.
    #[test]
    fn coalesced_frames_drain_in_order(
        kinds in prop::collection::vec(0usize..10, 2..8),
        (a, b, c) in (any::<u64>(), any::<u64>(), any::<u32>()),
        segs in prop::collection::vec((any::<u32>(), any::<u64>(), any::<bool>()), 0..4),
    ) {
        let frames: Vec<Frame> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| build_frame(k, a.wrapping_add(i as u64), b, c, &segs))
            .collect();
        let stream: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();

        let mut decoder = FrameDecoder::new();
        decoder.extend(&stream);
        let mut got = Vec::new();
        drain(&mut decoder, &mut got);
        prop_assert_eq!(&got, &frames);
        prop_assert!(!decoder.mid_frame());

        let reencoded: Vec<u8> = got.iter().flat_map(Frame::encode).collect();
        prop_assert_eq!(reencoded, stream);
    }

    /// Arbitrary chunkings (random cut points, not just two) agree with
    /// the oracle — the general case subsuming the targeted ones above.
    #[test]
    fn random_chunkings_are_byte_identical(
        kinds in prop::collection::vec(0usize..10, 1..6),
        (a, b, c) in (any::<u64>(), any::<u64>(), any::<u32>()),
        segs in prop::collection::vec((any::<u32>(), any::<u64>(), any::<bool>()), 0..5),
        cuts in prop::collection::vec(any::<u16>(), 0..12),
    ) {
        let frames: Vec<Frame> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| build_frame(k, a.wrapping_add(i as u64), b, c, &segs))
            .collect();
        let stream: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        let expected = decode_whole(&stream);

        let mut points: Vec<usize> = cuts.iter().map(|&x| x as usize % (stream.len() + 1)).collect();
        points.push(0);
        points.push(stream.len());
        points.sort_unstable();

        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        for pair in points.windows(2) {
            decoder.extend(&stream[pair[0]..pair[1]]);
            drain(&mut decoder, &mut got);
        }
        prop_assert_eq!(got, expected);
        prop_assert!(!decoder.mid_frame());
    }

    /// An oversized length prefix poisons the incremental decoder the
    /// moment its 4 bytes land — before any payload is buffered — exactly
    /// like the whole-frame reader, even when the prefix itself arrives a
    /// byte at a time.
    #[test]
    fn oversized_prefixes_fail_identically(extra in any::<u32>()) {
        let claimed = (MAX_FRAME_LEN as u32).saturating_add(extra.max(1));
        let bytes = claimed.to_le_bytes();

        let mut decoder = FrameDecoder::new();
        for (i, &byte) in bytes.iter().enumerate() {
            decoder.extend(&[byte]);
            let step = decoder.next_frame();
            if i < 3 {
                prop_assert!(matches!(step, Ok(None)), "byte {} decided too early", i);
            } else {
                match step {
                    Err(WireError::Oversized(len)) => prop_assert_eq!(len, claimed),
                    other => return Err(proptest::test_runner::TestCaseError::fail(format!(
                        "expected Oversized({claimed}), got {other:?}"
                    ))),
                }
            }
        }

        // The payload-level buffer rejects at the same instant.
        let mut buf = FrameBuffer::new();
        buf.extend(&bytes);
        prop_assert!(matches!(buf.next_payload(), Err(WireError::Oversized(_))));
    }
}

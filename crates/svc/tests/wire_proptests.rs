//! Property tests for the wire codec: encoding round-trips byte-identically
//! for arbitrary frames, and the decoder is *total* — truncated, oversized,
//! and garbage inputs are rejected with errors, never panics or huge
//! allocations.

use proptest::prelude::*;
use vod_svc::wire::{read_frame, Frame, WireError};
use vod_svc::{GrantedSegment, MAX_FRAME_LEN, PROTOCOL_VERSION, SEGMENT_CHUNK_BYTES};

/// All eighteen frame kinds, driven by primitive inputs (the proptest shim
/// has no derive support). `Hello`/`Welcome` carry [`PROTOCOL_VERSION`] —
/// any other version is rejected at decode, which the version-mismatch
/// tests below pin separately. `SegmentData` keeps `offset + bytes.len()`
/// within `total_len` — the decoder rejects chunks escaping their declared
/// payload, which the escape test in the unit suite pins.
fn build_frame(
    kind: usize,
    a: u64,
    b: u64,
    c: u32,
    _flag: bool,
    segs: &[(u32, u64, bool)],
    text: &[u8],
) -> Frame {
    match kind {
        0 => Frame::Hello {
            version: PROTOCOL_VERSION,
        },
        1 => Frame::Request {
            seq: a,
            video: c,
            arrival_slot: b,
        },
        2 => Frame::Stats,
        3 => Frame::Goodbye,
        4 => Frame::Welcome {
            version: PROTOCOL_VERSION,
            session: a,
            videos: c.wrapping_add(1),
            shards: (b as u32) | 1,
            dilation: c.rotate_left(7),
        },
        5 => Frame::Grant {
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
        6 => Frame::Rejected {
            seq: a,
            reason: vod_obs::RejectKind::ALL[b as usize % vod_obs::RejectKind::ALL.len()],
        },
        7 => Frame::StatsReply {
            // Lossy conversion yields arbitrary valid UTF-8, multi-byte
            // replacement chars included.
            json: String::from_utf8_lossy(text).into_owned(),
        },
        8 => Frame::Describe { seq: a, video: c },
        9 => Frame::VideoInfo {
            seq: a,
            video: c,
            segments: segs.len() as u32,
            protocol: String::from_utf8_lossy(text).into_owned(),
            periods: segs.iter().map(|&(_, slot, _)| slot).collect(),
        },
        10 => Frame::Resume {
            session: a,
            last_seq_seen: b,
        },
        11 => Frame::Resumed {
            session: a,
            replayed: c,
        },
        12 => Frame::Subscribe { video: c },
        13 => Frame::SubscribeOk {
            video: c,
            payload_len: a,
            slot_ns: b,
            next_seq: a.rotate_left(13),
        },
        14 => Frame::SegmentData {
            video: c,
            segment: c.rotate_left(9),
            slot: a,
            channel_seq: b,
            // The decoder enforces offset + len <= total_len; build inputs
            // that hold it for arbitrary a/b, saturation included.
            offset: b,
            total_len: b
                .saturating_add(text.len() as u64)
                .saturating_add(a & 0xffff),
            bytes: text.to_vec(),
        },
        15 => Frame::Spans { max: c },
        16 => Frame::SpansReply {
            jsonl: String::from_utf8_lossy(text).into_owned(),
        },
        _ => Frame::Draining,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn encode_decode_is_byte_identity(
        (kind, a) in (0usize..18, any::<u64>()),
        (b, c, flag) in (any::<u64>(), any::<u32>(), any::<bool>()),
        segs in prop::collection::vec((any::<u32>(), any::<u64>(), any::<bool>()), 0..12),
        text in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let frame = build_frame(kind, a, b, c, flag, &segs, &text);
        let bytes = frame.encode();

        // Stream round trip: the reader must consume exactly this frame.
        let mut cursor = &bytes[..];
        let decoded = read_frame(&mut cursor)
            .expect("well-formed frame must decode")
            .expect("frame present");
        prop_assert!(cursor.is_empty(), "decoder must consume the whole frame");
        prop_assert_eq!(&decoded, &frame);

        // Re-encoding the decoded frame is the byte identity.
        prop_assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn truncated_frames_are_rejected_not_panicked(
        (kind, a) in (0usize..18, any::<u64>()),
        (b, c, flag) in (any::<u64>(), any::<u32>(), any::<bool>()),
        segs in prop::collection::vec((any::<u32>(), any::<u64>(), any::<bool>()), 0..8),
        cut_seed in any::<u64>(),
    ) {
        let frame = build_frame(kind, a, b, c, flag, &segs, b"{}");
        let bytes = frame.encode();
        // Chop anywhere strictly inside the frame: always an error, never a
        // panic and never a silent partial decode.
        let cut = 1 + (cut_seed as usize) % (bytes.len() - 1);
        let mut cursor = &bytes[..cut];
        prop_assert!(
            read_frame(&mut cursor).is_err(),
            "truncation at {} of {} must be rejected",
            cut,
            bytes.len()
        );
        // An empty stream is clean EOF, not an error.
        let mut empty = &bytes[..0];
        prop_assert!(matches!(read_frame(&mut empty), Ok(None)));
    }

    #[test]
    fn trailing_bytes_are_malformed(
        (kind, a) in (0usize..18, any::<u64>()),
        (b, c, junk) in (any::<u64>(), any::<u32>(), any::<u8>()),
    ) {
        // The payload decoder is exact: any unconsumed suffix is an error,
        // so a frame can never smuggle bytes past the parser.
        let frame = build_frame(kind, a, b, c, false, &[], b"{}");
        let mut payload = frame.encode_payload();
        payload.push(junk);
        prop_assert!(Frame::decode_payload(&payload).is_err());
    }

    #[test]
    fn oversized_lengths_are_rejected_before_allocation(extra in any::<u32>()) {
        // A length prefix past the cap must fail immediately — the decoder
        // must not trust it enough to allocate, let alone read.
        let claimed = (MAX_FRAME_LEN as u32).saturating_add(extra.max(1));
        let mut bytes = claimed.to_le_bytes().to_vec();
        bytes.push(1);
        let mut cursor = &bytes[..];
        match read_frame(&mut cursor) {
            Err(WireError::Oversized(len)) => prop_assert_eq!(len, claimed),
            other => return Err(proptest::test_runner::TestCaseError::fail(format!(
                "expected Oversized({claimed}), got {other:?}"
            ))),
        }
    }

    #[test]
    fn mismatched_handshake_versions_are_typed_errors(
        raw_version in any::<u32>(),
        (videos, shards, dilation) in (any::<u32>(), any::<u32>(), any::<u32>()),
        (hello, force_old) in (any::<bool>(), 0u32..3),
    ) {
        // Weight the recent protocol breaks heavily: v2 (pre-resume) and v3
        // (pre-data-plane) are the mismatches real deployments will see.
        let bad_version = match force_old {
            1 => 2,
            2 => 3,
            _ => raw_version,
        };
        prop_assume!(bad_version != PROTOCOL_VERSION);
        // Encoding is total (tests need to forge old-version bytes), but
        // decoding any version except PROTOCOL_VERSION must yield the typed
        // Version error, for both handshake directions.
        let frame = if hello {
            Frame::Hello { version: bad_version }
        } else {
            Frame::Welcome {
                version: bad_version,
                session: u64::from(raw_version),
                videos,
                shards,
                dilation,
            }
        };
        match Frame::decode_payload(&frame.encode_payload()) {
            Err(WireError::Version { got }) => prop_assert_eq!(got, bad_version),
            other => return Err(proptest::test_runner::TestCaseError::fail(format!(
                "expected Version {{ got: {bad_version} }}, got {other:?}"
            ))),
        }
        // The stream reader surfaces the same typed error.
        let bytes = frame.encode();
        let mut cursor = &bytes[..];
        let stream_result = read_frame(&mut cursor);
        let is_version_error = matches!(stream_result, Err(WireError::Version { .. }));
        prop_assert!(is_version_error, "stream read gave {:?}", stream_result);
    }

    #[test]
    fn segment_chunks_round_trip_at_the_frame_cap_boundary(
        under in 0usize..4,
        (seq, offset) in (any::<u64>(), 0u64..1_000_000),
        fill in any::<u8>(),
    ) {
        // Chunks within `under` bytes of the cap — including exactly at it,
        // where the encoded payload is exactly MAX_FRAME_LEN — must round
        // trip byte-identically; one byte over must be refused.
        let len = SEGMENT_CHUNK_BYTES - under;
        let frame = Frame::SegmentData {
            video: 7,
            segment: 3,
            slot: seq,
            channel_seq: seq.rotate_left(17),
            offset,
            total_len: offset + len as u64,
            bytes: vec![fill; len],
        };
        let bytes = frame.encode();
        prop_assert!(bytes.len() <= 4 + MAX_FRAME_LEN);
        if under == 0 {
            prop_assert_eq!(bytes.len(), 4 + MAX_FRAME_LEN, "maximal chunk hits the cap exactly");
        }
        let mut cursor = &bytes[..];
        let decoded = read_frame(&mut cursor)
            .expect("cap-boundary chunk must decode")
            .expect("frame present");
        prop_assert!(cursor.is_empty());
        prop_assert_eq!(decoded, frame);

        // One byte past the cap: the length prefix itself busts
        // MAX_FRAME_LEN, so the decoder refuses before reading the body.
        let over = Frame::SegmentData {
            video: 7,
            segment: 3,
            slot: seq,
            channel_seq: seq,
            offset,
            total_len: offset + SEGMENT_CHUNK_BYTES as u64 + 1,
            bytes: vec![fill; SEGMENT_CHUNK_BYTES + 1],
        };
        let mut cursor = &over.encode()[..];
        prop_assert!(matches!(read_frame(&mut cursor), Err(WireError::Oversized(_))));
    }

    #[test]
    fn garbage_never_panics_the_decoder(
        garbage in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // Totality: an adversarial byte stream produces frames or errors,
        // never a panic. Cap iterations — tiny valid frames could repeat.
        let mut cursor = &garbage[..];
        for _ in 0..garbage.len() + 1 {
            match read_frame(&mut cursor) {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
    }
}

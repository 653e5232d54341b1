//! Property tests for the admin scrape-plane codec: every frame kind
//! round-trips byte-identically, the decoder is total (truncation and
//! garbage are errors, never panics), oversized lengths are refused before
//! allocation, and a foreign `Hello` version is the typed [`WireError`]
//! variant the client maps to an upgrade hint.

use proptest::prelude::*;
use vod_svc::admin::read_admin_frame;
use vod_svc::{AdminFrame, WireError, ADMIN_PROTOCOL_VERSION, MAX_FRAME_LEN};

/// All seven admin frame kinds, driven by primitive inputs (the proptest
/// shim has no derive support). `Hello` carries [`ADMIN_PROTOCOL_VERSION`];
/// the version-mismatch test forges other versions separately.
fn build_frame(kind: usize, c: u32, text: &[u8]) -> AdminFrame {
    let json = String::from_utf8_lossy(text).into_owned();
    match kind {
        0 => AdminFrame::Hello {
            version: ADMIN_PROTOCOL_VERSION,
        },
        1 => AdminFrame::Snapshot,
        2 => AdminFrame::Spans { max: c },
        3 => AdminFrame::HelloOk {
            version: ADMIN_PROTOCOL_VERSION,
            shards: c,
        },
        4 => AdminFrame::SnapshotReply { json },
        5 => AdminFrame::SpansReply { jsonl: json },
        _ => AdminFrame::Error { message: json },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_admin_frame_round_trips(
        kind in 0usize..7,
        c in any::<u32>(),
        text in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let frame = build_frame(kind, c, &text);
        let bytes = frame.encode();

        let mut cursor = &bytes[..];
        let decoded = read_admin_frame(&mut cursor)
            .expect("well-formed admin frame must decode")
            .expect("frame present");
        prop_assert!(cursor.is_empty(), "decoder must consume the whole frame");
        prop_assert_eq!(&decoded, &frame);
        prop_assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn truncated_admin_frames_are_rejected_not_panicked(
        kind in 0usize..7,
        c in any::<u32>(),
        cut_seed in any::<u64>(),
    ) {
        let frame = build_frame(kind, c, b"{\"k\":1}");
        let bytes = frame.encode();
        let cut = 1 + (cut_seed as usize) % (bytes.len() - 1);
        let mut cursor = &bytes[..cut];
        prop_assert!(
            read_admin_frame(&mut cursor).is_err(),
            "truncation at {} of {} must be rejected",
            cut,
            bytes.len()
        );
        // An empty stream is clean EOF, not an error.
        let mut empty = &bytes[..0];
        prop_assert!(matches!(read_admin_frame(&mut empty), Ok(None)));
    }

    #[test]
    fn trailing_bytes_are_malformed(
        kind in 0usize..7,
        (c, junk) in (any::<u32>(), any::<u8>()),
    ) {
        // The payload decoder is exact: any unconsumed suffix is an error,
        // so a frame can never smuggle bytes past the parser.
        let frame = build_frame(kind, c, b"{}");
        let mut payload = frame.encode_payload();
        payload.push(junk);
        prop_assert!(AdminFrame::decode_payload(&payload).is_err());
    }

    #[test]
    fn oversized_admin_lengths_are_rejected_before_allocation(extra in any::<u32>()) {
        let claimed = (MAX_FRAME_LEN as u32).saturating_add(extra.max(1));
        let mut bytes = claimed.to_le_bytes().to_vec();
        bytes.push(1);
        let mut cursor = &bytes[..];
        match read_admin_frame(&mut cursor) {
            Err(WireError::Oversized(len)) => prop_assert_eq!(len, claimed),
            other => return Err(proptest::test_runner::TestCaseError::fail(format!(
                "expected Oversized({claimed}), got {other:?}"
            ))),
        }
    }

    #[test]
    fn foreign_hello_versions_are_typed_errors(
        raw_version in any::<u32>(),
        hello in any::<bool>(),
    ) {
        prop_assume!(raw_version != ADMIN_PROTOCOL_VERSION);
        // Encoding is total so tests can forge old-version bytes; decoding
        // them must yield the typed Version error in both directions of the
        // handshake.
        let frame = if hello {
            AdminFrame::Hello { version: raw_version }
        } else {
            AdminFrame::HelloOk {
                version: raw_version,
                shards: 4,
            }
        };
        match AdminFrame::decode_payload(&frame.encode_payload()) {
            Err(WireError::Version { got }) => prop_assert_eq!(got, raw_version),
            other => return Err(proptest::test_runner::TestCaseError::fail(format!(
                "expected Version {{ got: {raw_version} }}, got {other:?}"
            ))),
        }
    }

    #[test]
    fn garbage_never_panics_the_admin_decoder(
        garbage in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut cursor = &garbage[..];
        for _ in 0..garbage.len() + 1 {
            match read_admin_frame(&mut cursor) {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
    }
}

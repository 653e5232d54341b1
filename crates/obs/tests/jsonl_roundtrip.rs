//! Property test: the JSONL schema round-trips (emit → parse → re-emit is
//! the identity on writer output).

use proptest::prelude::*;
use vod_obs::{jsonl, Event, EventKind, EventRecord, FaultKind, RejectKind};

fn cause_for(tag: u64) -> FaultKind {
    match tag % 3 {
        0 => FaultKind::Loss,
        1 => FaultKind::Outage,
        _ => FaultKind::Capped,
    }
}

fn reason_for(tag: u64) -> RejectKind {
    RejectKind::ALL[(tag % RejectKind::ALL.len() as u64) as usize]
}

#[allow(clippy::too_many_lines)]
fn build_event(kind: usize, a: u64, b: u64, c: u32, flag: bool, t: f64) -> Event {
    match kind {
        0 => Event::RequestArrived { slot: a },
        1 => Event::InstanceScheduled {
            segment: c,
            shared: flag,
            window_start: a,
            window_end: a.wrapping_add(u64::from(c)),
            slot: b,
            load: c.wrapping_add(1),
        },
        2 => Event::InstanceDropped {
            slot: a,
            instance: c,
            cause: cause_for(b),
        },
        3 => Event::Rescheduled {
            segment: c,
            from_slot: a,
            to_slot: b,
        },
        4 => Event::PlaybackDeferred {
            segment: c,
            from_slot: a,
            to_slot: b,
            stall_slots: b.wrapping_sub(a),
        },
        5 => Event::SlotClosed {
            slot: a,
            scheduled: c,
            transmitted: c / 2,
        },
        6 => Event::StreamDropped {
            at_secs: t,
            cause: cause_for(a),
        },
        7 => Event::ConnAccepted { conn: a },
        8 => Event::RequestRejected {
            conn: a,
            request: b,
            reason: reason_for(b),
        },
        9 => Event::ServiceDrained {
            conns: a,
            grants: b,
        },
        10 => Event::ShardPanicked {
            shard: a,
            restarts: b,
        },
        11 => Event::ShardRestarted {
            shard: a,
            replayed: b,
            backoff_ms: u64::from(c),
        },
        12 => Event::ShardDisabled { shard: a },
        _ => Event::SessionResumed {
            session: a,
            conn: b,
            replayed: u64::from(c),
        },
    }
}

#[test]
fn generator_covers_every_event_kind() {
    // `build_event`'s arms must keep pace with the taxonomy: each kind in
    // `0..EventKind::COUNT` maps to a distinct discriminant.
    let kinds: std::collections::HashSet<EventKind> = (0..EventKind::COUNT)
        .map(|k| build_event(k, 1, 2, 3, true, 1.5).kind())
        .collect();
    assert_eq!(kinds.len(), EventKind::COUNT);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn emit_parse_reemit_is_identity(
        raw in prop::collection::vec(
            (
                (0usize..EventKind::COUNT, any::<u64>()),
                (any::<u64>(), any::<u32>()),
                (any::<bool>(), 0f64..1e9),
            ),
            0..48,
        ),
    ) {
        let records: Vec<EventRecord> = raw
            .iter()
            .enumerate()
            .map(|(seq, &((kind, a), (b, c), (flag, t)))| EventRecord {
                seq: seq as u64,
                event: build_event(kind, a, b, c, flag, t),
            })
            .collect();

        let text = jsonl::to_jsonl(&records);
        let parsed = match jsonl::parse_jsonl(&text) {
            Ok(parsed) => parsed,
            Err(e) => {
                return Err(proptest::test_runner::TestCaseError::fail(format!(
                    "writer output failed to parse: {e}\n{text}"
                )))
            }
        };
        prop_assert_eq!(&parsed, &records);
        let reemitted = jsonl::to_jsonl(&parsed);
        prop_assert_eq!(&reemitted, &text);
    }

    #[test]
    fn parser_rejects_truncated_writer_output(
        (kind, a) in (0usize..EventKind::COUNT, any::<u64>()),
        cut in 1usize..20,
    ) {
        let record = EventRecord {
            seq: 0,
            event: build_event(kind, a, a.rotate_left(17), (a >> 32) as u32, a & 1 == 0, 1.5),
        };
        let mut line = jsonl::to_jsonl(std::slice::from_ref(&record));
        // Strip the newline, then chop inside the object.
        line.pop();
        let cut = cut.min(line.len() - 1);
        let truncated = &line[..line.len() - cut];
        prop_assert!(
            jsonl::parse_line(truncated).is_err(),
            "truncated line must not parse: {truncated}"
        );
    }
}

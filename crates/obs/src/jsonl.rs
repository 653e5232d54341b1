//! The journal's JSONL wire format: writer and parser.
//!
//! One event per line, canonical field order, no whitespace:
//!
//! ```text
//! {"seq":0,"type":"request_arrived","slot":12}
//! {"seq":1,"type":"instance_scheduled","segment":3,"shared":false,"window_start":13,"window_end":16,"slot":16,"load":2}
//! {"seq":2,"type":"instance_dropped","slot":16,"instance":0,"cause":"loss"}
//! ```
//!
//! The parser accepts any field order; the writer is canonical, so
//! emit → parse → re-emit is the identity on writer output (property-tested
//! in `tests/jsonl_roundtrip.rs`). Floating-point fields use Rust's shortest
//! round-trippable `Display` form and must be finite.

use std::fmt;

use crate::event::{Event, EventKind, FaultKind, RejectKind};
use crate::journal::EventRecord;

/// Appends `record` to `out` as one canonical JSONL line (with trailing
/// newline).
pub fn write_record(out: &mut String, record: &EventRecord) {
    use fmt::Write;
    let seq = record.seq;
    let kind = record.event.kind().name();
    let _ = match &record.event {
        Event::RequestArrived { slot } => {
            write!(out, r#"{{"seq":{seq},"type":"{kind}","slot":{slot}}}"#)
        }
        Event::InstanceScheduled {
            segment,
            shared,
            window_start,
            window_end,
            slot,
            load,
        } => write!(
            out,
            concat!(
                r#"{{"seq":{},"type":"{}","segment":{},"shared":{},"#,
                r#""window_start":{},"window_end":{},"slot":{},"load":{}}}"#
            ),
            seq, kind, segment, shared, window_start, window_end, slot, load
        ),
        Event::InstanceDropped {
            slot,
            instance,
            cause,
        } => write!(
            out,
            r#"{{"seq":{seq},"type":"{kind}","slot":{slot},"instance":{instance},"cause":"{cause}"}}"#
        ),
        Event::Rescheduled {
            segment,
            from_slot,
            to_slot,
        } => write!(
            out,
            r#"{{"seq":{seq},"type":"{kind}","segment":{segment},"from_slot":{from_slot},"to_slot":{to_slot}}}"#
        ),
        Event::PlaybackDeferred {
            segment,
            from_slot,
            to_slot,
            stall_slots,
        } => write!(
            out,
            concat!(
                r#"{{"seq":{},"type":"{}","segment":{},"from_slot":{},"#,
                r#""to_slot":{},"stall_slots":{}}}"#
            ),
            seq, kind, segment, from_slot, to_slot, stall_slots
        ),
        Event::SlotClosed {
            slot,
            scheduled,
            transmitted,
        } => write!(
            out,
            r#"{{"seq":{seq},"type":"{kind}","slot":{slot},"scheduled":{scheduled},"transmitted":{transmitted}}}"#
        ),
        Event::StreamDropped { at_secs, cause } => write!(
            out,
            r#"{{"seq":{seq},"type":"{kind}","at_secs":{at_secs},"cause":"{cause}"}}"#
        ),
        Event::ConnAccepted { conn } => {
            write!(out, r#"{{"seq":{seq},"type":"{kind}","conn":{conn}}}"#)
        }
        Event::RequestRejected {
            conn,
            request,
            reason,
        } => write!(
            out,
            r#"{{"seq":{seq},"type":"{kind}","conn":{conn},"request":{request},"reason":"{reason}"}}"#
        ),
        Event::ServiceDrained { conns, grants } => write!(
            out,
            r#"{{"seq":{seq},"type":"{kind}","conns":{conns},"grants":{grants}}}"#
        ),
        Event::ShardPanicked { shard, restarts } => write!(
            out,
            r#"{{"seq":{seq},"type":"{kind}","shard":{shard},"restarts":{restarts}}}"#
        ),
        Event::ShardRestarted {
            shard,
            replayed,
            backoff_ms,
        } => write!(
            out,
            r#"{{"seq":{seq},"type":"{kind}","shard":{shard},"replayed":{replayed},"backoff_ms":{backoff_ms}}}"#
        ),
        Event::ShardDisabled { shard } => {
            write!(out, r#"{{"seq":{seq},"type":"{kind}","shard":{shard}}}"#)
        }
        Event::SessionResumed {
            session,
            conn,
            replayed,
        } => write!(
            out,
            r#"{{"seq":{seq},"type":"{kind}","session":{session},"conn":{conn},"replayed":{replayed}}}"#
        ),
    };
    out.push('\n');
}

/// Serialises `records` as a JSONL document.
#[must_use]
pub fn to_jsonl(records: &[EventRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 64);
    for record in records {
        write_record(&mut out, record);
    }
    out
}

/// A JSONL schema violation, with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSONL line (without trailing newline) into a record.
///
/// Accepts fields in any order; unknown fields are an error so schema drift
/// is caught rather than silently ignored.
pub fn parse_line(line: &str) -> Result<EventRecord, String> {
    let fields = parse_object(line)?;
    let seq = get_u64(&fields, "seq")?;
    let kind_name = get_str(&fields, "type")?;
    let kind = EventKind::from_name(kind_name)
        .ok_or_else(|| format!("unknown event type {kind_name:?}"))?;
    let expected: &[&str] = match kind {
        EventKind::RequestArrived => &["seq", "type", "slot"],
        EventKind::InstanceScheduled => &[
            "seq",
            "type",
            "segment",
            "shared",
            "window_start",
            "window_end",
            "slot",
            "load",
        ],
        EventKind::InstanceDropped => &["seq", "type", "slot", "instance", "cause"],
        EventKind::Rescheduled => &["seq", "type", "segment", "from_slot", "to_slot"],
        EventKind::PlaybackDeferred => &[
            "seq",
            "type",
            "segment",
            "from_slot",
            "to_slot",
            "stall_slots",
        ],
        EventKind::SlotClosed => &["seq", "type", "slot", "scheduled", "transmitted"],
        EventKind::StreamDropped => &["seq", "type", "at_secs", "cause"],
        EventKind::ConnAccepted => &["seq", "type", "conn"],
        EventKind::RequestRejected => &["seq", "type", "conn", "request", "reason"],
        EventKind::ServiceDrained => &["seq", "type", "conns", "grants"],
        EventKind::ShardPanicked => &["seq", "type", "shard", "restarts"],
        EventKind::ShardRestarted => &["seq", "type", "shard", "replayed", "backoff_ms"],
        EventKind::ShardDisabled => &["seq", "type", "shard"],
        EventKind::SessionResumed => &["seq", "type", "session", "conn", "replayed"],
    };
    for (name, _) in &fields {
        if !expected.contains(&name.as_str()) {
            return Err(format!("unexpected field {name:?} for {kind_name}"));
        }
    }
    let event = match kind {
        EventKind::RequestArrived => Event::RequestArrived {
            slot: get_u64(&fields, "slot")?,
        },
        EventKind::InstanceScheduled => Event::InstanceScheduled {
            segment: get_u32(&fields, "segment")?,
            shared: get_bool(&fields, "shared")?,
            window_start: get_u64(&fields, "window_start")?,
            window_end: get_u64(&fields, "window_end")?,
            slot: get_u64(&fields, "slot")?,
            load: get_u32(&fields, "load")?,
        },
        EventKind::InstanceDropped => Event::InstanceDropped {
            slot: get_u64(&fields, "slot")?,
            instance: get_u32(&fields, "instance")?,
            cause: get_cause(&fields)?,
        },
        EventKind::Rescheduled => Event::Rescheduled {
            segment: get_u32(&fields, "segment")?,
            from_slot: get_u64(&fields, "from_slot")?,
            to_slot: get_u64(&fields, "to_slot")?,
        },
        EventKind::PlaybackDeferred => Event::PlaybackDeferred {
            segment: get_u32(&fields, "segment")?,
            from_slot: get_u64(&fields, "from_slot")?,
            to_slot: get_u64(&fields, "to_slot")?,
            stall_slots: get_u64(&fields, "stall_slots")?,
        },
        EventKind::SlotClosed => Event::SlotClosed {
            slot: get_u64(&fields, "slot")?,
            scheduled: get_u32(&fields, "scheduled")?,
            transmitted: get_u32(&fields, "transmitted")?,
        },
        EventKind::StreamDropped => Event::StreamDropped {
            at_secs: get_f64(&fields, "at_secs")?,
            cause: get_cause(&fields)?,
        },
        EventKind::ConnAccepted => Event::ConnAccepted {
            conn: get_u64(&fields, "conn")?,
        },
        EventKind::RequestRejected => Event::RequestRejected {
            conn: get_u64(&fields, "conn")?,
            request: get_u64(&fields, "request")?,
            reason: get_reason(&fields)?,
        },
        EventKind::ServiceDrained => Event::ServiceDrained {
            conns: get_u64(&fields, "conns")?,
            grants: get_u64(&fields, "grants")?,
        },
        EventKind::ShardPanicked => Event::ShardPanicked {
            shard: get_u64(&fields, "shard")?,
            restarts: get_u64(&fields, "restarts")?,
        },
        EventKind::ShardRestarted => Event::ShardRestarted {
            shard: get_u64(&fields, "shard")?,
            replayed: get_u64(&fields, "replayed")?,
            backoff_ms: get_u64(&fields, "backoff_ms")?,
        },
        EventKind::ShardDisabled => Event::ShardDisabled {
            shard: get_u64(&fields, "shard")?,
        },
        EventKind::SessionResumed => Event::SessionResumed {
            session: get_u64(&fields, "session")?,
            conn: get_u64(&fields, "conn")?,
            replayed: get_u64(&fields, "replayed")?,
        },
    };
    Ok(EventRecord { seq, event })
}

/// Parses a JSONL document (blank lines ignored) into records.
pub fn parse_jsonl(input: &str) -> Result<Vec<EventRecord>, ParseError> {
    let mut records = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = parse_line(line).map_err(|message| ParseError {
            line: idx + 1,
            message,
        })?;
        records.push(record);
    }
    Ok(records)
}

/// A scanned JSON scalar: numbers keep their raw token so integer fields can
/// reject fractional syntax and floats re-parse losslessly.
enum Value {
    Num(String),
    Str(String),
    Bool(bool),
}

fn parse_object(line: &str) -> Result<Vec<(String, Value)>, String> {
    let mut chars = line.trim().char_indices().peekable();
    let src = line.trim();
    let mut fields = Vec::new();

    let expect = |chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
                  want: char|
     -> Result<(), String> {
        match chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((_, c)) => Err(format!("expected {want:?}, found {c:?}")),
            None => Err(format!("expected {want:?}, found end of line")),
        }
    };
    let skip_ws = |chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>| {
        while matches!(chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            chars.next();
        }
    };
    let parse_string =
        |chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>| -> Result<String, String> {
            expect(chars, '"')?;
            let mut s = String::new();
            loop {
                match chars.next() {
                    Some((_, '"')) => return Ok(s),
                    Some((_, '\\')) => match chars.next() {
                        Some((_, '"')) => s.push('"'),
                        Some((_, '\\')) => s.push('\\'),
                        Some((_, 'n')) => s.push('\n'),
                        Some((_, 't')) => s.push('\t'),
                        Some((_, c)) => return Err(format!("unsupported escape \\{c}")),
                        None => return Err("unterminated string".into()),
                    },
                    Some((_, c)) => s.push(c),
                    None => return Err("unterminated string".into()),
                }
            }
        };

    skip_ws(&mut chars);
    expect(&mut chars, '{')?;
    skip_ws(&mut chars);
    if matches!(chars.peek(), Some((_, '}'))) {
        chars.next();
    } else {
        loop {
            skip_ws(&mut chars);
            let key = parse_string(&mut chars)?;
            skip_ws(&mut chars);
            expect(&mut chars, ':')?;
            skip_ws(&mut chars);
            let value = match chars.peek() {
                Some((_, '"')) => Value::Str(parse_string(&mut chars)?),
                Some((_, 't' | 'f')) => {
                    let (start, _) = *chars.peek().expect("peeked");
                    let rest = &src[start..];
                    if rest.starts_with("true") {
                        for _ in 0..4 {
                            chars.next();
                        }
                        Value::Bool(true)
                    } else if rest.starts_with("false") {
                        for _ in 0..5 {
                            chars.next();
                        }
                        Value::Bool(false)
                    } else {
                        return Err(format!("bad literal near {rest:?}"));
                    }
                }
                Some(&(start, c)) if c == '-' || c.is_ascii_digit() => {
                    let mut end = start;
                    while let Some(&(i, c)) = chars.peek() {
                        if c == '-'
                            || c == '+'
                            || c == '.'
                            || c == 'e'
                            || c == 'E'
                            || c.is_ascii_digit()
                        {
                            end = i + c.len_utf8();
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    Value::Num(src[start..end].to_string())
                }
                Some(&(_, c)) => return Err(format!("unexpected value start {c:?}")),
                None => return Err("unexpected end of line".into()),
            };
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate field {key:?}"));
            }
            fields.push((key, value));
            skip_ws(&mut chars);
            match chars.next() {
                Some((_, ',')) => continue,
                Some((_, '}')) => break,
                Some((_, c)) => return Err(format!("expected ',' or '}}', found {c:?}")),
                None => return Err("unterminated object".into()),
            }
        }
    }
    skip_ws(&mut chars);
    if let Some((_, c)) = chars.next() {
        return Err(format!("trailing content starting at {c:?}"));
    }
    Ok(fields)
}

fn get<'a>(fields: &'a [(String, Value)], name: &str) -> Result<&'a Value, String> {
    fields
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field {name:?}"))
}

fn get_u64(fields: &[(String, Value)], name: &str) -> Result<u64, String> {
    match get(fields, name)? {
        Value::Num(raw) => raw
            .parse::<u64>()
            .map_err(|_| format!("field {name:?}: {raw:?} is not a u64")),
        _ => Err(format!("field {name:?} must be a number")),
    }
}

fn get_u32(fields: &[(String, Value)], name: &str) -> Result<u32, String> {
    u32::try_from(get_u64(fields, name)?).map_err(|_| format!("field {name:?} overflows u32"))
}

fn get_f64(fields: &[(String, Value)], name: &str) -> Result<f64, String> {
    match get(fields, name)? {
        Value::Num(raw) => raw
            .parse::<f64>()
            .map_err(|_| format!("field {name:?}: {raw:?} is not a number")),
        _ => Err(format!("field {name:?} must be a number")),
    }
}

fn get_bool(fields: &[(String, Value)], name: &str) -> Result<bool, String> {
    match get(fields, name)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("field {name:?} must be a boolean")),
    }
}

fn get_str<'a>(fields: &'a [(String, Value)], name: &str) -> Result<&'a str, String> {
    match get(fields, name)? {
        Value::Str(s) => Ok(s),
        _ => Err(format!("field {name:?} must be a string")),
    }
}

fn get_cause(fields: &[(String, Value)]) -> Result<FaultKind, String> {
    let name = get_str(fields, "cause")?;
    FaultKind::from_name(name).ok_or_else(|| format!("unknown fault cause {name:?}"))
}

fn get_reason(fields: &[(String, Value)]) -> Result<RejectKind, String> {
    let name = get_str(fields, "reason")?;
    RejectKind::from_name(name).ok_or_else(|| format!("unknown reject reason {name:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_events() -> Vec<EventRecord> {
        let events = vec![
            Event::RequestArrived { slot: 12 },
            Event::InstanceScheduled {
                segment: 3,
                shared: false,
                window_start: 13,
                window_end: 16,
                slot: 16,
                load: 2,
            },
            Event::InstanceScheduled {
                segment: 97,
                shared: true,
                window_start: 14,
                window_end: 111,
                slot: 20,
                load: 5,
            },
            Event::InstanceDropped {
                slot: 16,
                instance: 0,
                cause: FaultKind::Loss,
            },
            Event::Rescheduled {
                segment: 3,
                from_slot: 16,
                to_slot: 17,
            },
            Event::PlaybackDeferred {
                segment: 9,
                from_slot: 40,
                to_slot: 45,
                stall_slots: 3,
            },
            Event::SlotClosed {
                slot: 16,
                scheduled: 4,
                transmitted: 3,
            },
            Event::StreamDropped {
                at_secs: 123.5,
                cause: FaultKind::Outage,
            },
            Event::ConnAccepted { conn: 7 },
            Event::RequestRejected {
                conn: 7,
                request: 3,
                reason: RejectKind::QueueFull,
            },
            Event::RequestRejected {
                conn: 9,
                request: 0,
                reason: RejectKind::Draining,
            },
            Event::ServiceDrained {
                conns: 12,
                grants: 480,
            },
            Event::ShardPanicked {
                shard: 1,
                restarts: 2,
            },
            Event::ShardRestarted {
                shard: 1,
                replayed: 37,
                backoff_ms: 50,
            },
            Event::ShardDisabled { shard: 1 },
            Event::SessionResumed {
                session: 4,
                conn: 9,
                replayed: 11,
            },
        ];
        events
            .into_iter()
            .enumerate()
            .map(|(seq, event)| EventRecord {
                seq: seq as u64,
                event,
            })
            .collect()
    }

    #[test]
    fn every_event_round_trips() {
        let records = all_events();
        let text = to_jsonl(&records);
        let parsed = parse_jsonl(&text).expect("writer output must parse");
        assert_eq!(parsed, records);
        assert_eq!(to_jsonl(&parsed), text, "re-emit must be identity");
    }

    #[test]
    fn whole_second_floats_round_trip() {
        let records = vec![EventRecord {
            seq: 0,
            event: Event::StreamDropped {
                at_secs: 60.0,
                cause: FaultKind::Loss,
            },
        }];
        let text = to_jsonl(&records);
        assert!(text.contains(r#""at_secs":60,"#), "{text}");
        let parsed = parse_jsonl(&text).expect("parses");
        assert_eq!(parsed, records);
        assert_eq!(to_jsonl(&parsed), text);
    }

    #[test]
    fn parser_accepts_any_field_order_and_whitespace() {
        let line = r#" { "slot" : 7 , "type" : "request_arrived" , "seq" : 2 } "#;
        let record = parse_line(line).expect("parses");
        assert_eq!(record.seq, 2);
        assert_eq!(record.event, Event::RequestArrived { slot: 7 });
    }

    #[test]
    fn blank_lines_are_ignored() {
        let text = "\n{\"seq\":0,\"type\":\"request_arrived\",\"slot\":1}\n\n";
        assert_eq!(parse_jsonl(text).expect("parses").len(), 1);
    }

    #[test]
    fn schema_violations_are_rejected_with_line_numbers() {
        let cases = [
            r#"{"seq":0,"type":"warp_drive","slot":1}"#,
            r#"{"seq":0,"type":"request_arrived"}"#,
            r#"{"seq":0,"type":"request_arrived","slot":1,"extra":2}"#,
            r#"{"seq":0,"type":"request_arrived","slot":1.5}"#,
            r#"{"seq":0,"type":"request_arrived","slot":-1}"#,
            r#"{"seq":0,"seq":1,"type":"request_arrived","slot":1}"#,
            r#"{"seq":0,"type":"instance_dropped","slot":1,"instance":0,"cause":"gremlins"}"#,
            r#"{"seq":0,"type":"request_rejected","conn":1,"request":0,"reason":"tuesday"}"#,
            r#"{"seq":0,"type":"conn_accepted","conn":1,"request":0}"#,
            r#"{"seq":0,"type":"slot_closed","slot":1,"scheduled":4294967296,"transmitted":0}"#,
            r#"not json"#,
            r#"{"seq":0,"type":"request_arrived","slot":1} trailing"#,
            r#"{"seq":0,"type":"protocol_transition","video":2,"from":"DHB","to":"dyn-NPB","slot":96}"#,
        ];
        for (i, bad) in cases.iter().enumerate() {
            let doc = format!("{{\"seq\":0,\"type\":\"request_arrived\",\"slot\":0}}\n{bad}");
            let err = parse_jsonl(&doc).expect_err(&format!("case {i} must fail: {bad}"));
            assert_eq!(err.line, 2, "case {i}");
        }
    }
}

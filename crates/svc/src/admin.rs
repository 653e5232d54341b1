//! The admin scrape plane: a tiny length-prefixed telemetry protocol on a
//! separate listener, plus the blocking client the CLI tools use.
//!
//! The admin port is intentionally not the serving port: scraping a
//! struggling server must not compete with client admission, and the
//! telemetry protocol can version independently of the serving protocol.
//! Framing follows the serving wire conventions (u32 LE length prefix,
//! [`MAX_FRAME_LEN`] cap, total decoder, trailing bytes rejected) under its
//! own version number, [`ADMIN_PROTOCOL_VERSION`].
//!
//! Conversation shape: the client opens with [`AdminFrame::Hello`] and the
//! server answers [`AdminFrame::HelloOk`] (carrying the shard count); after
//! that the client may interleave:
//!
//! - `Snapshot` → `SnapshotReply` with the full telemetry registry as
//!   deterministic pretty JSON — cumulative counters, per-shard per-stage
//!   span histograms, gauges, and the monotonic snapshot stamp. Rates are
//!   the scraper's job: difference two snapshots' counters over their
//!   `svc.snapshot.mono_ns` stamps.
//! - `Spans { max }` → `SpansReply` with the most recent raw span records
//!   as JSONL.
//!
//! Anything malformed gets a typed [`WireError`]; a server-to-client frame
//! sent at the server earns an `Error` reply and a closed connection.

use std::io::{self, Read, Write};
use std::net::TcpStream;

use vod_obs::HistogramSummary;

use crate::wire::{Cursor, WireError, MAX_FRAME_LEN};

/// Version of the admin telemetry protocol (independent of the serving
/// protocol's version). Version 2 dropped the windowed stream and the
/// window length from the handshake.
pub const ADMIN_PROTOCOL_VERSION: u32 = 2;

// Tags 3, 18 and 20 belonged to the version-1 windowed stream; they stay
// unassigned so a stale peer gets `BadTag`, not a misread frame.
const TAG_HELLO: u8 = 1;
const TAG_SNAPSHOT: u8 = 2;
const TAG_SPANS: u8 = 4;
const TAG_HELLO_OK: u8 = 16;
const TAG_SNAPSHOT_REPLY: u8 = 17;
const TAG_SPANS_REPLY: u8 = 19;
const TAG_ERROR: u8 = 21;

/// One admin-plane frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminFrame {
    /// Client handshake; carries [`ADMIN_PROTOCOL_VERSION`].
    Hello {
        /// The admin protocol version the client speaks.
        version: u32,
    },
    /// Request one full telemetry snapshot.
    Snapshot,
    /// Request the most recent raw span records.
    Spans {
        /// Maximum records to return.
        max: u32,
    },
    /// Server handshake reply.
    HelloOk {
        /// The admin protocol version the server speaks.
        version: u32,
        /// Scheduler shard count (how many `svc.span.shardN.*` families to
        /// expect).
        shards: u32,
    },
    /// Full telemetry snapshot as deterministic pretty JSON.
    SnapshotReply {
        /// The registry snapshot.
        json: String,
    },
    /// Recent span records, one JSON object per line.
    SpansReply {
        /// The JSONL payload (possibly empty).
        jsonl: String,
    },
    /// The server refused a request.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

impl AdminFrame {
    /// Encodes the payload (tag + fields, no length prefix).
    #[must_use]
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            AdminFrame::Hello { version } => {
                out.push(TAG_HELLO);
                out.extend_from_slice(&version.to_le_bytes());
            }
            AdminFrame::Snapshot => out.push(TAG_SNAPSHOT),
            AdminFrame::Spans { max } => {
                out.push(TAG_SPANS);
                out.extend_from_slice(&max.to_le_bytes());
            }
            AdminFrame::HelloOk { version, shards } => {
                out.push(TAG_HELLO_OK);
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&shards.to_le_bytes());
            }
            AdminFrame::SnapshotReply { json } => {
                out.push(TAG_SNAPSHOT_REPLY);
                push_string(&mut out, json);
            }
            AdminFrame::SpansReply { jsonl } => {
                out.push(TAG_SPANS_REPLY);
                push_string(&mut out, jsonl);
            }
            AdminFrame::Error { message } => {
                out.push(TAG_ERROR);
                push_string(&mut out, message);
            }
        }
        out
    }

    /// Encodes the frame with its length prefix.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(payload.len() + 4);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes a payload (no length prefix). Total: every byte is consumed
    /// or the frame is rejected.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when fields outrun the payload,
    /// [`WireError::BadTag`] on an unknown tag, [`WireError::Version`] when
    /// a handshake frame carries a version this build does not speak, and
    /// [`WireError::Malformed`] for bad UTF-8 or trailing bytes.
    pub fn decode_payload(payload: &[u8]) -> Result<AdminFrame, WireError> {
        let mut r = Cursor::new(payload);
        let frame = match r.u8()? {
            TAG_HELLO => AdminFrame::Hello {
                version: admin_version(&mut r)?,
            },
            TAG_SNAPSHOT => AdminFrame::Snapshot,
            TAG_SPANS => AdminFrame::Spans { max: r.u32()? },
            TAG_HELLO_OK => AdminFrame::HelloOk {
                version: admin_version(&mut r)?,
                shards: r.u32()?,
            },
            TAG_SNAPSHOT_REPLY => AdminFrame::SnapshotReply {
                json: take_string(&mut r, "snapshot json")?,
            },
            TAG_SPANS_REPLY => AdminFrame::SpansReply {
                jsonl: take_string(&mut r, "spans jsonl")?,
            },
            TAG_ERROR => AdminFrame::Error {
                message: take_string(&mut r, "error message")?,
            },
            other => return Err(WireError::BadTag(other)),
        };
        if r.remaining() != 0 {
            return Err(WireError::Malformed("trailing bytes after frame"));
        }
        Ok(frame)
    }
}

fn push_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn take_string(r: &mut Cursor<'_>, what: &'static str) -> Result<String, WireError> {
    let len = r.u32()? as usize;
    String::from_utf8(r.take(len)?.to_vec()).map_err(|_| WireError::Malformed(what))
}

/// An admin protocol-version field: structurally a `u32`, but only
/// [`ADMIN_PROTOCOL_VERSION`] decodes.
fn admin_version(r: &mut Cursor<'_>) -> Result<u32, WireError> {
    let got = r.u32()?;
    if got != ADMIN_PROTOCOL_VERSION {
        return Err(WireError::Version { got });
    }
    Ok(got)
}

/// Reads one length-prefixed admin frame. `Ok(None)` on clean EOF.
///
/// # Errors
///
/// I/O failures, an oversized length prefix, EOF inside a frame, and every
/// [`AdminFrame::decode_payload`] failure.
pub fn read_admin_frame(reader: &mut impl Read) -> Result<Option<AdminFrame>, WireError> {
    let mut len_buf = [0u8; 4];
    match reader.read(&mut len_buf[..1])? {
        0 => return Ok(None),
        _ => reader.read_exact(&mut len_buf[1..])?,
    }
    let len = u32::from_le_bytes(len_buf);
    if len as usize > MAX_FRAME_LEN {
        return Err(WireError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    AdminFrame::decode_payload(&payload).map(Some)
}

/// Writes one length-prefixed admin frame.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_admin_frame(writer: &mut impl Write, frame: &AdminFrame) -> io::Result<()> {
    writer.write_all(&frame.encode())
}

/// A blocking admin-plane client (used by `vodtop`, `vodload
/// --telemetry-out`, and the CI telemetry scrape).
pub struct AdminClient {
    stream: TcpStream,
    shards: u32,
}

impl AdminClient {
    /// Connects, handshakes, and returns a ready client.
    ///
    /// # Errors
    ///
    /// Connection failures, a handshake that doesn't answer `HelloOk`, and
    /// any codec failure.
    pub fn connect(addr: &str) -> Result<AdminClient, WireError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        write_admin_frame(
            &mut stream,
            &AdminFrame::Hello {
                version: ADMIN_PROTOCOL_VERSION,
            },
        )?;
        match read_admin_frame(&mut stream)? {
            Some(AdminFrame::HelloOk { shards, .. }) => Ok(AdminClient { stream, shards }),
            Some(AdminFrame::Error { .. }) | Some(_) => {
                Err(WireError::Malformed("handshake did not answer HelloOk"))
            }
            None => Err(WireError::Truncated),
        }
    }

    /// Scheduler shard count announced at handshake.
    #[must_use]
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Fetches one full telemetry snapshot (pretty JSON).
    ///
    /// # Errors
    ///
    /// Codec/transport failures, or a reply that isn't `SnapshotReply`.
    pub fn snapshot(&mut self) -> Result<String, WireError> {
        write_admin_frame(&mut self.stream, &AdminFrame::Snapshot)?;
        match read_admin_frame(&mut self.stream)? {
            Some(AdminFrame::SnapshotReply { json }) => Ok(json),
            Some(_) => Err(WireError::Malformed("expected SnapshotReply")),
            None => Err(WireError::Truncated),
        }
    }

    /// Fetches the most recent `max` raw span records as JSONL.
    ///
    /// # Errors
    ///
    /// Codec/transport failures, or a reply that isn't `SpansReply`.
    pub fn spans(&mut self, max: u32) -> Result<String, WireError> {
        write_admin_frame(&mut self.stream, &AdminFrame::Spans { max })?;
        match read_admin_frame(&mut self.stream)? {
            Some(AdminFrame::SpansReply { jsonl }) => Ok(jsonl),
            Some(_) => Err(WireError::Malformed("expected SpansReply")),
            None => Err(WireError::Truncated),
        }
    }
}

/// One-shot convenience: connect, snapshot, disconnect.
///
/// # Errors
///
/// Any [`AdminClient`] failure.
pub fn scrape_snapshot(addr: &str) -> Result<String, WireError> {
    AdminClient::connect(addr)?.snapshot()
}

/// One-shot convenience: connect, fetch recent spans, disconnect.
///
/// # Errors
///
/// Any [`AdminClient`] failure.
pub fn scrape_spans(addr: &str, max: u32) -> Result<String, WireError> {
    AdminClient::connect(addr)?.spans(max)
}

/// Finds the named histogram's summary in a registry snapshot produced by
/// `Registry::to_json_pretty`, as is or folded onto one line. A targeted
/// scan over the deterministic snapshot layout — not a general JSON parser.
#[must_use]
pub fn find_histogram(json: &str, name: &str) -> Option<HistogramSummary> {
    let obj = find_value(json, name)?;
    let obj = obj.strip_prefix('{')?;
    let body = &obj[..obj.find('}')?];
    Some(HistogramSummary {
        count: field_u64(body, "count")?,
        min: field_u64(body, "min")?,
        max: field_u64(body, "max")?,
        mean: field_f64(body, "mean")?,
        p50: field_u64(body, "p50")?,
        p90: field_u64(body, "p90")?,
        p99: field_u64(body, "p99")?,
    })
}

/// Finds the named counter's value in a registry snapshot.
#[must_use]
pub fn find_counter(json: &str, name: &str) -> Option<u64> {
    let v = find_value(json, name)?;
    parse_leading_u64(v)
}

/// Finds the named gauge's value in a registry snapshot.
#[must_use]
pub fn find_gauge(json: &str, name: &str) -> Option<f64> {
    let v = find_value(json, name)?;
    parse_leading_f64(v)
}

/// Locates `"name":` (optionally with a space after the colon) and returns
/// the remainder of the document starting at the value.
fn find_value<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let needle = format!("\"{name}\":");
    let at = json.find(&needle)?;
    Some(json[at + needle.len()..].trim_start())
}

fn field_u64(body: &str, field: &str) -> Option<u64> {
    parse_leading_u64(find_value(body, field)?)
}

fn field_f64(body: &str, field: &str) -> Option<f64> {
    parse_leading_f64(find_value(body, field)?)
}

fn parse_leading_u64(s: &str) -> Option<u64> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    s[..end].parse().ok()
}

fn parse_leading_f64(s: &str) -> Option<f64> {
    let end = s
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(s.len());
    s[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_obs::Registry;

    fn round_trip(frame: &AdminFrame) {
        let bytes = frame.encode();
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        assert_eq!(len, bytes.len() - 4);
        let decoded = AdminFrame::decode_payload(&bytes[4..]).expect("decodes");
        assert_eq!(&decoded, frame);
        let mut cursor = io::Cursor::new(&bytes);
        assert_eq!(
            read_admin_frame(&mut cursor).expect("reads").as_ref(),
            Some(frame)
        );
    }

    #[test]
    fn every_frame_round_trips() {
        for frame in [
            AdminFrame::Hello {
                version: ADMIN_PROTOCOL_VERSION,
            },
            AdminFrame::Snapshot,
            AdminFrame::Spans { max: 128 },
            AdminFrame::HelloOk {
                version: ADMIN_PROTOCOL_VERSION,
                shards: 4,
            },
            AdminFrame::SnapshotReply {
                json: "{\"counters\":{}}".to_owned(),
            },
            AdminFrame::SpansReply {
                jsonl: "{\"span\": 1}\n".to_owned(),
            },
            AdminFrame::Error {
                message: "nope".to_owned(),
            },
        ] {
            round_trip(&frame);
        }
    }

    #[test]
    fn version_mismatch_is_typed() {
        for wrong in [0u32, 1, 7, u32::MAX] {
            let mut payload = vec![TAG_HELLO];
            payload.extend_from_slice(&wrong.to_le_bytes());
            match AdminFrame::decode_payload(&payload) {
                Err(WireError::Version { got }) => assert_eq!(got, wrong),
                other => panic!("expected Version error, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_and_garbage_are_rejected_without_panic() {
        let full = AdminFrame::SnapshotReply {
            json: "{\"counters\":{\"a\":1}}".to_owned(),
        }
        .encode_payload();
        for cut in 0..full.len() {
            assert!(
                AdminFrame::decode_payload(&full[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        for retired in [99, 3, 18, 20] {
            assert!(matches!(
                AdminFrame::decode_payload(&[retired]),
                Err(WireError::BadTag(t)) if t == retired
            ));
        }
        let mut trailing = AdminFrame::Snapshot.encode_payload();
        trailing.push(0);
        assert!(matches!(
            AdminFrame::decode_payload(&trailing),
            Err(WireError::Malformed(_))
        ));
        // A string length promising more than the payload holds.
        let mut lying = vec![TAG_ERROR];
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            AdminFrame::decode_payload(&lying),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
        let mut cursor = io::Cursor::new(&bytes);
        assert!(matches!(
            read_admin_frame(&mut cursor),
            Err(WireError::Oversized(_))
        ));
    }

    #[test]
    fn json_scan_helpers_read_both_snapshot_forms() {
        let mut r = Registry::new();
        r.inc("svc.grants", 42);
        r.set_gauge("svc.gauge.sessions_live", 8.5);
        for v in [100u64, 200, 400] {
            r.observe("svc.span.shard0.total_ns", v);
        }
        let pretty = r.to_json_pretty();
        // The one-line form `vodtop --snapshot-out` and `vodload
        // --telemetry-out` write.
        let one_line: String = pretty.lines().map(str::trim).collect();
        for json in [pretty, one_line] {
            assert_eq!(find_counter(&json, "svc.grants"), Some(42));
            assert_eq!(find_gauge(&json, "svc.gauge.sessions_live"), Some(8.5));
            let h = find_histogram(&json, "svc.span.shard0.total_ns").expect("histogram");
            assert_eq!(h.count, 3);
            assert_eq!(h.min, 100);
            assert_eq!(h.max, 400);
            assert!(h.p99 >= 400);
        }
        assert!(find_counter("{}", "absent").is_none());
        assert!(find_histogram("{\"histograms\":{}}", "absent").is_none());
    }
}

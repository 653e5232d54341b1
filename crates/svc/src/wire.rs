//! The length-prefixed binary wire protocol.
//!
//! Every frame on the socket is a little-endian `u32` payload length
//! followed by the payload: a one-byte tag and the frame's fields, all
//! little-endian, strings as a `u32` length plus UTF-8 bytes. The encoder is
//! canonical (one byte sequence per frame) and the decoder is total: any
//! byte sequence either decodes to exactly one frame or returns a
//! [`WireError`] — it never panics, and it rejects trailing garbage,
//! truncated payloads, and frames larger than [`MAX_FRAME_LEN`]. Both
//! directions are property-tested in `tests/wire_proptests.rs`.

use std::fmt;
use std::io::{self, Read, Write};

use vod_obs::RejectKind;

/// Protocol version carried by `Hello`/`Welcome`. Version 2 introduced the
/// heterogeneous catalog: `Welcome` lost its uniform `segments` field and
/// `Describe`/`VideoInfo` report per-video segment counts, protocols, and
/// period vectors. Version 3 added session resume: `Welcome` carries a
/// server-assigned session id, and the `Resume`/`Resumed` frames let a
/// reconnecting client replay the grants it missed. Version 4 adds the
/// data plane: `Subscribe`/`SubscribeOk` attach a connection to a video's
/// broadcast channel and chunked `SegmentData` frames carry the actual
/// segment payload bytes. The decoder rejects any other version with
/// [`WireError::Version`] — a v1/v2/v3 peer cannot interpret v4 frames
/// correctly, so the mismatch must fail loudly at the handshake, not
/// garble schedules. The `Spans`/`SpansReply` pair came later without a
/// bump: no v4 client sends `Spans`, and a scraper never sends `Hello`.
pub const PROTOCOL_VERSION: u32 = 4;

/// Hard upper bound on a frame payload, enforced by both sides before any
/// allocation. Keeps a malicious or corrupt length prefix from ballooning
/// memory.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// `Request::arrival_slot` sentinel: stamp the request with the service's
/// virtual slot clock instead of an explicit slot.
pub const ARRIVAL_AUTO: u64 = u64::MAX;

/// `Resume::last_seq_seen` sentinel: the client saw no answers at all, so
/// the server replays the session's entire replay ring.
pub const RESUME_NONE: u64 = u64::MAX;

/// Encoding overhead of a `SegmentData` payload before its bytes: tag +
/// video + segment + slot + channel seq + byte offset + total length +
/// chunk length.
pub const SEGMENT_DATA_OVERHEAD: usize = 1 + 4 + 4 + 8 + 8 + 8 + 8 + 4;

/// Largest chunk of payload bytes one `SegmentData` frame may carry: the
/// frame cap minus the header fields, so a maximal chunk encodes to a
/// payload of *exactly* [`MAX_FRAME_LEN`] bytes. Segments larger than
/// this are split across consecutive frames sharing one channel seq,
/// distinguished by their byte offsets.
pub const SEGMENT_CHUNK_BYTES: usize = MAX_FRAME_LEN - SEGMENT_DATA_OVERHEAD;

/// One segment instance granted to a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantedSegment {
    /// 1-based segment number `j`.
    pub segment: u32,
    /// Absolute slot the instance airs in.
    pub slot: u64,
    /// `true` when the request shares an instance another client already
    /// scheduled, `false` when this request planted it.
    pub shared: bool,
}

/// One protocol frame, client→server (`Hello`, `Request`, `Stats`,
/// `Spans`, `Goodbye`, …) or server→client (the rest).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client handshake.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Ask for a full segment schedule for one video.
    Request {
        /// Client-chosen per-connection sequence number, echoed in the
        /// matching `Grant` or `Rejected`.
        seq: u64,
        /// Catalog video id, `0..videos`.
        video: u32,
        /// Arrival slot the schedule is computed for, or [`ARRIVAL_AUTO`]
        /// to use the service's virtual clock. Explicit slots must be
        /// non-decreasing per video; they make runs reproducible.
        arrival_slot: u64,
    },
    /// Ask for a metrics snapshot.
    Stats,
    /// Ask for the most recent raw request spans.
    Spans {
        /// Maximum records to return.
        max: u32,
    },
    /// Orderly goodbye; the server flushes pending grants and closes.
    Goodbye,
    /// Ask how one video is served: segment count, protocol, periods.
    Describe {
        /// Client-chosen sequence number, echoed in the matching
        /// `VideoInfo` or `Rejected`.
        seq: u64,
        /// Catalog video id, `0..videos`.
        video: u32,
    },
    /// Adopt an earlier session on this (re)connection. The server replies
    /// `Resumed` and replays every ring-buffered answer with a sequence
    /// number past `last_seq_seen`, or `Rejected(unknown_session)` (echoing
    /// the requested session id as `seq`) when the session is gone.
    Resume {
        /// The session id a previous `Welcome` assigned.
        session: u64,
        /// Highest request sequence number the client has an answer for
        /// with no gaps below it, or [`RESUME_NONE`] to replay everything.
        last_seq_seen: u64,
    },
    /// Attach this connection to a video's broadcast channel: every
    /// segment instance published after this point arrives as
    /// `SegmentData` frames. The server replies `SubscribeOk` (or
    /// `Rejected` for an unknown/invalid video, echoing the video id as
    /// `seq`).
    Subscribe {
        /// Catalog video id, `0..videos`.
        video: u32,
    },
    /// Server handshake reply. Since protocol version 2 the catalog is
    /// heterogeneous, so there is no uniform segment count here — clients
    /// learn per-video geometry through `Describe`. Since version 3 it
    /// assigns a session id the client can `Resume` after a reconnect.
    Welcome {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
        /// Server-assigned id of the session created by this handshake.
        session: u64,
        /// Catalog size; valid video ids are `0..videos`.
        videos: u32,
        /// Scheduler shard count.
        shards: u32,
        /// Virtual-clock time-dilation factor (1 = real time).
        dilation: u32,
    },
    /// A granted schedule: one instance per segment of the video.
    Grant {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Echo of the request's video id.
        video: u32,
        /// The arrival slot the schedule was computed for (resolved, never
        /// [`ARRIVAL_AUTO`]).
        arrival_slot: u64,
        /// The granted instances, in segment order `S_1..S_n`.
        segments: Vec<GrantedSegment>,
    },
    /// Admission control refused the request.
    Rejected {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Why.
        reason: RejectKind,
    },
    /// Reply to `Describe`: how the named video is served.
    VideoInfo {
        /// Echo of the describe's sequence number.
        seq: u64,
        /// Echo of the describe's video id.
        video: u32,
        /// Segments in this video.
        segments: u32,
        /// Scheduler name (`DHB`, `dyn-NPB`, `DHB-d`, …).
        protocol: String,
        /// The period vector `T[1..=n]` (`periods[j-1]` = the deadline
        /// window for segment `S_j`, in slots).
        periods: Vec<u64>,
    },
    /// Reply to `Stats`: the registry snapshot as JSON.
    StatsReply {
        /// Deterministic JSON document (see `vod_obs::Registry`).
        json: String,
    },
    /// Reply to `Spans`: the recent span records, oldest first.
    SpansReply {
        /// One JSON object per line (empty when no span finished yet).
        jsonl: String,
    },
    /// The service is draining: no further requests will be admitted on
    /// this connection; already-admitted grants still arrive.
    Draining,
    /// Reply to `Resume`: the session moved to this connection. The
    /// replayed answers follow immediately, in their original order, before
    /// any new grant — the client's `(slot, segment)` stream stays
    /// byte-identical to an uninterrupted run.
    Resumed {
        /// Echo of the resumed session id.
        session: u64,
        /// Ring-buffered answers about to be replayed on this connection.
        replayed: u32,
    },
    /// Reply to `Subscribe`: the channel's geometry, everything a client
    /// needs to reassemble and deadline-check the byte stream.
    SubscribeOk {
        /// Echo of the subscribed video id.
        video: u32,
        /// Payload bytes per segment of this video (deterministic store
        /// sizing: length ∝ segment duration).
        payload_len: u64,
        /// This video's *dilated* slot duration in nanoseconds — the wall
        /// pace of its playback clock under the service's dilation.
        slot_ns: u64,
        /// The channel sequence the subscription starts at; the first
        /// `SegmentData` this connection sees carries this seq or higher.
        next_seq: u64,
    },
    /// One chunk of a published segment payload. A publication is split
    /// into consecutive chunks (all but the last exactly
    /// [`SEGMENT_CHUNK_BYTES`] long) sharing one `channel_seq`; offsets
    /// tile `0..total_len` gap-free.
    SegmentData {
        /// The channel (video) this publication belongs to.
        video: u32,
        /// 1-based segment number `j`, matching `GrantedSegment::segment`.
        segment: u32,
        /// Absolute slot the granted instance airs in.
        slot: u64,
        /// The ring publication's channel sequence number.
        channel_seq: u64,
        /// Byte offset of this chunk within the segment payload.
        offset: u64,
        /// Total payload length of the segment being carried.
        total_len: u64,
        /// The chunk's payload bytes.
        bytes: Vec<u8>,
    },
}

/// A codec or transport failure.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// The payload ended before the frame's fields did.
    Truncated,
    /// Unknown frame tag.
    BadTag(u8),
    /// Structurally invalid payload (bad enum code, bad UTF-8, trailing
    /// bytes, …).
    Malformed(&'static str),
    /// A `Hello` or `Welcome` carried a protocol version this build does
    /// not speak.
    Version {
        /// The version the peer announced.
        got: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Oversized(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            WireError::Truncated => f.write_str("payload truncated"),
            WireError::BadTag(tag) => write!(f, "unknown frame tag {tag}"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Version { got } => write!(
                f,
                "unsupported protocol version {got} (this build speaks {PROTOCOL_VERSION})"
            ),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

const TAG_HELLO: u8 = 1;
const TAG_REQUEST: u8 = 2;
const TAG_STATS: u8 = 3;
const TAG_GOODBYE: u8 = 4;
const TAG_DESCRIBE: u8 = 5;
const TAG_RESUME: u8 = 6;
const TAG_SUBSCRIBE: u8 = 7;
const TAG_SPANS: u8 = 8;
const TAG_WELCOME: u8 = 16;
const TAG_GRANT: u8 = 17;
const TAG_REJECTED: u8 = 18;
const TAG_STATS_REPLY: u8 = 19;
const TAG_DRAINING: u8 = 20;
const TAG_VIDEO_INFO: u8 = 21;
const TAG_RESUMED: u8 = 22;
const TAG_SUBSCRIBE_OK: u8 = 23;
const TAG_SEGMENT_DATA: u8 = 24;
const TAG_SPANS_REPLY: u8 = 25;

impl Frame {
    /// Encodes the payload (tag + fields, no length prefix).
    #[must_use]
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            Frame::Hello { version } => {
                out.push(TAG_HELLO);
                out.extend_from_slice(&version.to_le_bytes());
            }
            Frame::Request {
                seq,
                video,
                arrival_slot,
            } => {
                out.push(TAG_REQUEST);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&video.to_le_bytes());
                out.extend_from_slice(&arrival_slot.to_le_bytes());
            }
            Frame::Stats => out.push(TAG_STATS),
            Frame::Spans { max } => {
                out.push(TAG_SPANS);
                out.extend_from_slice(&max.to_le_bytes());
            }
            Frame::Goodbye => out.push(TAG_GOODBYE),
            Frame::Describe { seq, video } => {
                out.push(TAG_DESCRIBE);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&video.to_le_bytes());
            }
            Frame::Resume {
                session,
                last_seq_seen,
            } => {
                out.push(TAG_RESUME);
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&last_seq_seen.to_le_bytes());
            }
            Frame::Subscribe { video } => {
                out.push(TAG_SUBSCRIBE);
                out.extend_from_slice(&video.to_le_bytes());
            }
            Frame::Welcome {
                version,
                session,
                videos,
                shards,
                dilation,
            } => {
                out.push(TAG_WELCOME);
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&videos.to_le_bytes());
                out.extend_from_slice(&shards.to_le_bytes());
                out.extend_from_slice(&dilation.to_le_bytes());
            }
            Frame::Grant {
                seq,
                video,
                arrival_slot,
                segments,
            } => {
                out.push(TAG_GRANT);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&video.to_le_bytes());
                out.extend_from_slice(&arrival_slot.to_le_bytes());
                out.extend_from_slice(&(segments.len() as u32).to_le_bytes());
                for g in segments {
                    out.extend_from_slice(&g.segment.to_le_bytes());
                    out.extend_from_slice(&g.slot.to_le_bytes());
                    out.push(u8::from(g.shared));
                }
            }
            Frame::Rejected { seq, reason } => {
                out.push(TAG_REJECTED);
                out.extend_from_slice(&seq.to_le_bytes());
                out.push(reason.code());
            }
            Frame::VideoInfo {
                seq,
                video,
                segments,
                protocol,
                periods,
            } => {
                out.push(TAG_VIDEO_INFO);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&video.to_le_bytes());
                out.extend_from_slice(&segments.to_le_bytes());
                push_string(&mut out, protocol);
                out.extend_from_slice(&(periods.len() as u32).to_le_bytes());
                for period in periods {
                    out.extend_from_slice(&period.to_le_bytes());
                }
            }
            Frame::StatsReply { json } => {
                out.push(TAG_STATS_REPLY);
                push_string(&mut out, json);
            }
            Frame::SpansReply { jsonl } => {
                out.push(TAG_SPANS_REPLY);
                push_string(&mut out, jsonl);
            }
            Frame::Draining => out.push(TAG_DRAINING),
            Frame::Resumed { session, replayed } => {
                out.push(TAG_RESUMED);
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&replayed.to_le_bytes());
            }
            Frame::SubscribeOk {
                video,
                payload_len,
                slot_ns,
                next_seq,
            } => {
                out.push(TAG_SUBSCRIBE_OK);
                out.extend_from_slice(&video.to_le_bytes());
                out.extend_from_slice(&payload_len.to_le_bytes());
                out.extend_from_slice(&slot_ns.to_le_bytes());
                out.extend_from_slice(&next_seq.to_le_bytes());
            }
            Frame::SegmentData {
                video,
                segment,
                slot,
                channel_seq,
                offset,
                total_len,
                bytes,
            } => {
                out.reserve(SEGMENT_DATA_OVERHEAD + bytes.len());
                out.push(TAG_SEGMENT_DATA);
                out.extend_from_slice(&video.to_le_bytes());
                out.extend_from_slice(&segment.to_le_bytes());
                out.extend_from_slice(&slot.to_le_bytes());
                out.extend_from_slice(&channel_seq.to_le_bytes());
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&total_len.to_le_bytes());
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
            }
        }
        out
    }

    /// Encodes the full frame: length prefix plus payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(4 + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes a payload (tag + fields, no length prefix).
    ///
    /// # Errors
    ///
    /// Any malformed input yields a [`WireError`]; the decoder never
    /// panics and rejects trailing bytes.
    pub fn decode_payload(payload: &[u8]) -> Result<Frame, WireError> {
        if payload.len() > MAX_FRAME_LEN {
            return Err(WireError::Oversized(payload.len() as u32));
        }
        let mut r = Cursor::new(payload);
        let tag = r.u8()?;
        let frame = match tag {
            TAG_HELLO => Frame::Hello {
                version: r.version()?,
            },
            TAG_REQUEST => Frame::Request {
                seq: r.u64()?,
                video: r.u32()?,
                arrival_slot: r.u64()?,
            },
            TAG_STATS => Frame::Stats,
            TAG_SPANS => Frame::Spans { max: r.u32()? },
            TAG_GOODBYE => Frame::Goodbye,
            TAG_DESCRIBE => Frame::Describe {
                seq: r.u64()?,
                video: r.u32()?,
            },
            TAG_RESUME => Frame::Resume {
                session: r.u64()?,
                last_seq_seen: r.u64()?,
            },
            TAG_SUBSCRIBE => Frame::Subscribe { video: r.u32()? },
            TAG_WELCOME => Frame::Welcome {
                version: r.version()?,
                session: r.u64()?,
                videos: r.u32()?,
                shards: r.u32()?,
                dilation: r.u32()?,
            },
            TAG_GRANT => {
                let seq = r.u64()?;
                let video = r.u32()?;
                let arrival_slot = r.u64()?;
                let count = r.u32()? as usize;
                // 13 bytes per entry: the count cannot promise more entries
                // than the remaining payload holds.
                if count > r.remaining() / 13 {
                    return Err(WireError::Truncated);
                }
                let mut segments = Vec::with_capacity(count);
                for _ in 0..count {
                    segments.push(GrantedSegment {
                        segment: r.u32()?,
                        slot: r.u64()?,
                        shared: r.bool()?,
                    });
                }
                Frame::Grant {
                    seq,
                    video,
                    arrival_slot,
                    segments,
                }
            }
            TAG_REJECTED => Frame::Rejected {
                seq: r.u64()?,
                reason: RejectKind::from_code(r.u8()?)
                    .ok_or(WireError::Malformed("unknown reject reason code"))?,
            },
            TAG_VIDEO_INFO => {
                let seq = r.u64()?;
                let video = r.u32()?;
                let segments = r.u32()?;
                let protocol = r.string("protocol name is not UTF-8")?;
                let count = r.u32()? as usize;
                // 8 bytes per period: the count cannot promise more entries
                // than the remaining payload holds.
                if count > r.remaining() / 8 {
                    return Err(WireError::Truncated);
                }
                let mut periods = Vec::with_capacity(count);
                for _ in 0..count {
                    periods.push(r.u64()?);
                }
                Frame::VideoInfo {
                    seq,
                    video,
                    segments,
                    protocol,
                    periods,
                }
            }
            TAG_STATS_REPLY => Frame::StatsReply {
                json: r.string("stats json is not UTF-8")?,
            },
            TAG_SPANS_REPLY => Frame::SpansReply {
                jsonl: r.string("spans jsonl is not UTF-8")?,
            },
            TAG_DRAINING => Frame::Draining,
            TAG_RESUMED => Frame::Resumed {
                session: r.u64()?,
                replayed: r.u32()?,
            },
            TAG_SUBSCRIBE_OK => Frame::SubscribeOk {
                video: r.u32()?,
                payload_len: r.u64()?,
                slot_ns: r.u64()?,
                next_seq: r.u64()?,
            },
            TAG_SEGMENT_DATA => {
                let video = r.u32()?;
                let segment = r.u32()?;
                let slot = r.u64()?;
                let channel_seq = r.u64()?;
                let offset = r.u64()?;
                let total_len = r.u64()?;
                // The chunk length cannot promise more bytes than the
                // payload holds (`take` enforces it), and a chunk must lie
                // inside the segment it claims to carry.
                let len = r.u32()? as usize;
                let bytes = r.take(len)?.to_vec();
                if offset.saturating_add(bytes.len() as u64) > total_len {
                    return Err(WireError::Malformed("chunk extends past total_len"));
                }
                Frame::SegmentData {
                    video,
                    segment,
                    slot,
                    channel_seq,
                    offset,
                    total_len,
                    bytes,
                }
            }
            other => return Err(WireError::BadTag(other)),
        };
        if r.remaining() != 0 {
            return Err(WireError::Malformed("trailing bytes after frame"));
        }
        Ok(frame)
    }
}

/// Appends a string as a `u32` length plus its UTF-8 bytes.
fn push_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean EOF (no
/// bytes of a next frame read yet).
///
/// # Errors
///
/// I/O failures, an oversized length prefix, EOF inside a frame, and every
/// [`Frame::decode_payload`] failure.
pub fn read_frame(reader: &mut impl Read) -> Result<Option<Frame>, WireError> {
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
    Frame::decode_payload(&payload).map(Some)
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_frame(writer: &mut impl Write, frame: &Frame) -> io::Result<()> {
    writer.write_all(&frame.encode())
}

/// Incremental accumulator for length-prefixed payloads over partial
/// reads.
///
/// Nonblocking sockets deliver bytes in arbitrary chunks — one byte of a
/// length prefix here, three frames coalesced there. `FrameBuffer` absorbs
/// whatever arrived ([`FrameBuffer::extend`]) and yields complete payloads
/// ([`FrameBuffer::next_payload`]) as soon as they close, holding partial
/// frames across calls. It is codec-agnostic (payload bytes out, no tag
/// interpretation); [`FrameDecoder`] layers [`Frame::decode_payload`] on
/// top.
///
/// An oversized length prefix is detected as soon as its 4 bytes land,
/// before buffering any payload — same guarantee as [`read_frame`].
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameBuffer {
    /// A fresh empty buffer.
    #[must_use]
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Absorbs `bytes` read from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet yielded as a payload.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether a partially-received frame is pending (some bytes buffered,
    /// not yet enough to close a payload).
    #[must_use]
    pub fn mid_frame(&self) -> bool {
        self.buffered() > 0
    }

    /// The next complete payload (tag + fields, length prefix stripped),
    /// or `Ok(None)` until one closes.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`] when a length prefix exceeds
    /// [`MAX_FRAME_LEN`]; the buffer is poisoned afterwards (the stream
    /// has no recoverable framing past a corrupt prefix).
    pub fn next_payload(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        if self.buffered() < 4 {
            return Ok(None);
        }
        let len_bytes: [u8; 4] = self.buf[self.pos..self.pos + 4]
            .try_into()
            .expect("4 bytes");
        let len = u32::from_le_bytes(len_bytes);
        if len as usize > MAX_FRAME_LEN {
            return Err(WireError::Oversized(len));
        }
        let total = 4 + len as usize;
        if self.buffered() < total {
            return Ok(None);
        }
        let payload = self.buf[self.pos + 4..self.pos + total].to_vec();
        self.pos += total;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        Ok(Some(payload))
    }

    /// Drops already-consumed bytes so the allocation tracks the pending
    /// frame, not stream history.
    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// Incremental [`Frame`] decoder: [`FrameBuffer`] plus
/// [`Frame::decode_payload`].
///
/// Feeding the same byte stream in *any* split — one byte at a time,
/// frame-aligned, or many frames per read — yields the identical frame
/// sequence (property-tested in `tests/wire_incremental_proptests.rs`).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: FrameBuffer,
}

impl FrameDecoder {
    /// A fresh decoder with no buffered bytes.
    #[must_use]
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Absorbs `bytes` read from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend(bytes);
    }

    /// Whether a partially-received frame is pending.
    #[must_use]
    pub fn mid_frame(&self) -> bool {
        self.buf.mid_frame()
    }

    /// Bytes buffered but not yet decoded.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.buffered()
    }

    /// The next complete frame, or `Ok(None)` until one closes.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`] from the framing layer plus every
    /// [`Frame::decode_payload`] failure.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        match self.buf.next_payload()? {
            Some(payload) => Frame::decode_payload(&payload).map(Some),
            None => Ok(None),
        }
    }
}

/// Bounds-checked little-endian payload reader.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("boolean byte is not 0 or 1")),
        }
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A `u32`-length-prefixed UTF-8 string; `what` names the failure.
    fn string(&mut self, what: &'static str) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| WireError::Malformed(what))
    }

    /// A protocol-version field: structurally a `u32`, but only
    /// [`PROTOCOL_VERSION`] decodes — anything else is the typed
    /// [`WireError::Version`], so a mismatched peer fails at the handshake
    /// frame itself.
    fn version(&mut self) -> Result<u32, WireError> {
        let got = self.u32()?;
        if got != PROTOCOL_VERSION {
            return Err(WireError::Version { got });
        }
        Ok(got)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_byte_layout() {
        let frame = Frame::Request {
            seq: 2,
            video: 1,
            arrival_slot: 5,
        };
        let bytes = frame.encode();
        // 21-byte payload: tag + u64 + u32 + u64.
        assert_eq!(&bytes[..4], &21u32.to_le_bytes());
        assert_eq!(bytes[4], 2); // TAG_REQUEST
        assert_eq!(&bytes[5..13], &2u64.to_le_bytes());
        assert_eq!(&bytes[13..17], &1u32.to_le_bytes());
        assert_eq!(&bytes[17..25], &5u64.to_le_bytes());
    }

    #[test]
    fn frames_round_trip_through_a_stream() {
        let frames = vec![
            Frame::Hello {
                version: PROTOCOL_VERSION,
            },
            Frame::Welcome {
                version: PROTOCOL_VERSION,
                session: 42,
                videos: 4,
                shards: 2,
                dilation: 1000,
            },
            Frame::Resume {
                session: 42,
                last_seq_seen: 7,
            },
            Frame::Resumed {
                session: 42,
                replayed: 3,
            },
            Frame::Describe { seq: 5, video: 2 },
            Frame::VideoInfo {
                seq: 5,
                video: 2,
                segments: 4,
                protocol: "DHB-d".to_owned(),
                periods: vec![1, 2, 2, 4],
            },
            Frame::Request {
                seq: 0,
                video: 3,
                arrival_slot: ARRIVAL_AUTO,
            },
            Frame::Grant {
                seq: 0,
                video: 3,
                arrival_slot: 17,
                segments: vec![
                    GrantedSegment {
                        segment: 1,
                        slot: 18,
                        shared: false,
                    },
                    GrantedSegment {
                        segment: 2,
                        slot: 19,
                        shared: true,
                    },
                ],
            },
            Frame::Rejected {
                seq: 9,
                reason: RejectKind::QueueFull,
            },
            Frame::Rejected {
                seq: 10,
                reason: RejectKind::ShardDown,
            },
            Frame::Rejected {
                seq: 42,
                reason: RejectKind::UnknownSession,
            },
            Frame::Stats,
            Frame::StatsReply {
                json: "{\"counters\": {}}".to_owned(),
            },
            Frame::Spans { max: 128 },
            Frame::SpansReply {
                jsonl: "{\"span\": 1}\n".to_owned(),
            },
            Frame::Subscribe { video: 3 },
            Frame::SubscribeOk {
                video: 3,
                payload_len: 20_000,
                slot_ns: 10_000_000,
                next_seq: 12,
            },
            Frame::SegmentData {
                video: 3,
                segment: 1,
                slot: 18,
                channel_seq: 12,
                offset: 4,
                total_len: 20_000,
                bytes: vec![0xAB; 32],
            },
            Frame::Draining,
            Frame::Goodbye,
        ];
        let mut stream = Vec::new();
        for frame in &frames {
            write_frame(&mut stream, frame).unwrap();
        }
        let mut reader = &stream[..];
        for frame in &frames {
            assert_eq!(read_frame(&mut reader).unwrap().as_ref(), Some(frame));
        }
        assert_eq!(read_frame(&mut reader).unwrap(), None);
    }

    #[test]
    fn mismatched_versions_are_a_typed_error() {
        // 2 is the pre-resume protocol and 3 the pre-data-plane one: both
        // must be turned away at the handshake, exactly like any other
        // stranger.
        for got in [0, 1, 2, 3, PROTOCOL_VERSION + 1, u32::MAX] {
            let hello = Frame::Hello { version: got }.encode_payload();
            match Frame::decode_payload(&hello) {
                Err(WireError::Version { got: seen }) => assert_eq!(seen, got),
                other => panic!("hello v{got}: expected Version error, got {other:?}"),
            }
            let welcome = Frame::Welcome {
                version: got,
                session: 0,
                videos: 1,
                shards: 1,
                dilation: 1,
            }
            .encode_payload();
            assert!(
                matches!(
                    Frame::decode_payload(&welcome),
                    Err(WireError::Version { .. })
                ),
                "welcome v{got} must be rejected"
            );
        }
    }

    #[test]
    fn video_info_period_count_cannot_overpromise() {
        // A VideoInfo whose period count claims u32::MAX entries but
        // carries none.
        let mut payload = vec![TAG_VIDEO_INFO];
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes()); // empty name
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = Frame::decode_payload(&payload).unwrap_err();
        assert!(matches!(err, WireError::Truncated), "{err}");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, WireError::Oversized(_)), "{err}");
    }

    #[test]
    fn maximal_segment_chunk_encodes_to_exactly_the_frame_cap() {
        let frame = Frame::SegmentData {
            video: 0,
            segment: 1,
            slot: 2,
            channel_seq: 3,
            offset: 0,
            total_len: SEGMENT_CHUNK_BYTES as u64 + 1,
            bytes: vec![7; SEGMENT_CHUNK_BYTES],
        };
        let payload = frame.encode_payload();
        assert_eq!(payload.len(), MAX_FRAME_LEN, "boundary is exact");
        assert_eq!(Frame::decode_payload(&payload).expect("decodes"), frame);
        // One byte more and the payload busts the cap — the decoder must
        // refuse it even though the chunk-length field is internally
        // consistent.
        let over = Frame::SegmentData {
            video: 0,
            segment: 1,
            slot: 2,
            channel_seq: 3,
            offset: 0,
            total_len: SEGMENT_CHUNK_BYTES as u64 + 1,
            bytes: vec![7; SEGMENT_CHUNK_BYTES + 1],
        };
        assert!(matches!(
            Frame::decode_payload(&over.encode_payload()),
            Err(WireError::Oversized(_))
        ));
    }

    #[test]
    fn segment_chunk_cannot_overpromise_or_escape_its_segment() {
        // A chunk-length field claiming more bytes than the payload holds.
        let mut payload = vec![TAG_SEGMENT_DATA];
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes()); // offset
        payload.extend_from_slice(&64u64.to_le_bytes()); // total_len
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // claimed chunk len
        assert!(matches!(
            Frame::decode_payload(&payload),
            Err(WireError::Truncated)
        ));
        // A chunk whose offset + length overshoots the declared total.
        let escape = Frame::SegmentData {
            video: 0,
            segment: 1,
            slot: 0,
            channel_seq: 0,
            offset: 60,
            total_len: 64,
            bytes: vec![1; 8],
        };
        assert!(matches!(
            Frame::decode_payload(&escape.encode_payload()),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn grant_count_cannot_overpromise() {
        // A Grant whose count field claims u32::MAX entries but carries none.
        let mut payload = vec![TAG_GRANT];
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = Frame::decode_payload(&payload).unwrap_err();
        assert!(matches!(err, WireError::Truncated), "{err}");
    }

    #[test]
    fn incremental_decoder_survives_one_byte_feeds() {
        let frames = vec![
            Frame::Hello {
                version: PROTOCOL_VERSION,
            },
            Frame::Request {
                seq: 7,
                video: 3,
                arrival_slot: ARRIVAL_AUTO,
            },
            Frame::Draining,
            Frame::StatsReply {
                json: "{}".to_owned(),
            },
        ];
        let mut stream = Vec::new();
        for frame in &frames {
            stream.extend_from_slice(&frame.encode());
        }
        let mut decoder = FrameDecoder::new();
        let mut out = Vec::new();
        for byte in &stream {
            decoder.extend(std::slice::from_ref(byte));
            while let Some(frame) = decoder.next_frame().expect("decode") {
                out.push(frame);
            }
        }
        assert_eq!(out, frames);
        assert!(!decoder.mid_frame(), "no partial frame left over");
    }

    #[test]
    fn incremental_decoder_splits_coalesced_frames() {
        // Three frames delivered in a single read must come out as three
        // frames, with no buffered residue.
        let frames = [Frame::Stats, Frame::Goodbye, Frame::Draining];
        let mut stream = Vec::new();
        for frame in &frames {
            stream.extend_from_slice(&frame.encode());
        }
        let mut decoder = FrameDecoder::new();
        decoder.extend(&stream);
        for want in &frames {
            assert_eq!(decoder.next_frame().expect("decode").as_ref(), Some(want));
        }
        assert_eq!(decoder.next_frame().expect("decode"), None);
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn incremental_decoder_rejects_oversized_prefix_before_payload() {
        let mut decoder = FrameDecoder::new();
        decoder.extend(&u32::MAX.to_le_bytes());
        let err = decoder.next_frame().unwrap_err();
        assert!(matches!(err, WireError::Oversized(_)), "{err}");
    }

    #[test]
    fn frame_buffer_tracks_mid_frame_state() {
        let frame = Frame::Request {
            seq: 1,
            video: 0,
            arrival_slot: 4,
        };
        let bytes = frame.encode();
        let mut buf = FrameBuffer::new();
        buf.extend(&bytes[..3]); // partial length prefix
        assert!(buf.mid_frame());
        assert_eq!(buf.next_payload().expect("ok"), None);
        buf.extend(&bytes[3..bytes.len() - 1]); // all but the last byte
        assert!(buf.mid_frame());
        assert_eq!(buf.next_payload().expect("ok"), None);
        buf.extend(&bytes[bytes.len() - 1..]);
        let payload = buf.next_payload().expect("ok").expect("complete");
        assert_eq!(payload, frame.encode_payload());
        assert!(!buf.mid_frame());
    }

    #[test]
    fn trailing_bytes_and_bad_tags_are_rejected() {
        let mut payload = Frame::Stats.encode_payload();
        payload.push(0);
        assert!(matches!(
            Frame::decode_payload(&payload),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            Frame::decode_payload(&[99]),
            Err(WireError::BadTag(99))
        ));
        assert!(matches!(
            Frame::decode_payload(&[]),
            Err(WireError::Truncated)
        ));
    }
}

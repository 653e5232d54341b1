//! The broadcast data plane: segment payloads that actually move bytes.
//!
//! vod-svc's control plane answers a request with a grant naming a
//! `(slot, segment)` pair; this crate supplies the matching *data* path.
//! Each video is a broadcast channel backed by a [`SegmentRing`]: the
//! scheduler publishes one [`SegmentPayload`] per scheduled segment
//! instance, and every subscriber fans it out as an `Arc` clone — one
//! publish, N zero-copy deliveries. Per-subscriber [`Cursor`]s detect lag
//! explicitly: a subscriber the ring has lapped gets a [`RingRead::Gap`]
//! naming exactly how many publications it missed, never silently
//! corrupted or reordered data.
//!
//! Payload bytes come from a [`SegmentStore`] that *synthesizes* them
//! deterministically from a seed and the `(video, segment)` pair, with
//! length proportional to the segment's media duration. That makes every
//! delivered byte verifiable without shipping media files in the
//! repository: the byte stream is seekable, so a client holding the seed
//! checks each chunk in place against a [`PayloadOracle`] as it arrives.
//!
//! The crate is dependency-free and, like the rest of the workspace,
//! forbids unsafe code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ring;
mod store;

pub use ring::{Cursor, RingRead, RingStats, SegmentRing};
pub use store::{
    checksum64, payload_len_for, PayloadOracle, SegmentPayload, SegmentStore, DEFAULT_STORE_SEED,
};

//! `vod-svc`: a real-time network service layer for the DHB scheduler.
//!
//! The offline crates answer "what would the broadcast schedule be"; this
//! crate serves that answer live. A [`Service`] listens on TCP, speaks a
//! length-prefixed binary protocol ([`wire`]), routes admitted requests to
//! scheduler shards driven by per-video dilatable virtual slot clocks
//! ([`SlotClock`]), and streams `Grant` frames back. The catalog is
//! heterogeneous: each video is a [`ServeCatalog`] entry with its own
//! segment count, protocol (fixed-rate DHB, dynamic-NPB, DHB-d), and
//! period vector, served through the protocol-generic
//! `dhb_core::SlotScheduler` trait; clients discover per-video geometry
//! with `Describe`. Overload is shed at admission with explicit `Rejected`
//! frames; shutdown drains in-flight grants before closing.
//!
//! Everything is dependency-free `std` plus the raw-epoll `vod-net`
//! wrapper: a small pool of readiness-driven event-loop threads owns every
//! client connection (incremental frame decode, bounded outbound queues
//! flushed with vectored writes — see `eventloop`) and runs the scheduler
//! shards inline, each shard on one loop. [`load`] is
//! the matching open/closed-loop load generator (`vodload`'s engine),
//! reused by the loopback tests as the service↔simulator equivalence
//! oracle.
//!
//! Resilience (protocol v3): shards run under a supervisor that
//! catches panics and rebuilds schedulers from a per-shard state journal;
//! clients hold resumable sessions whose missed answers replay
//! byte-identically after a reconnect; and a deterministic [`ChaosPlan`]
//! injects shard panics, connection resets, and writer stalls at planned
//! virtual slots so all of the above is testable with a fixed seed.
//!
//! Telemetry: every admitted request carries a lifecycle span (decode →
//! admission wait → schedule → writer wait → flush) aggregated into
//! per-shard per-stage histograms; counts are cumulative atomics stamped
//! with a monotonic snapshot time, so scrapers derive rates by differencing
//! two snapshots. The serving port is the only read path: `Stats` and
//! `Spans` frames on a sessionless connection ([`ScrapeClient`]) are
//! answered on the event loop as they arrive, so watching a live server
//! never waits on client admission.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod clock;
mod data;
mod eventloop;
pub mod load;
pub mod server;
mod session;
mod shard;
pub mod stats;
mod telemetry;
pub mod wire;

pub use chaos::ChaosPlan;
pub use clock::SlotClock;
pub use load::{
    fetch_stats, find_counter, find_gauge, find_histogram, run_load, GrantRecord, LoadConfig,
    LoadReport, ScrapeClient,
};
pub use server::{DrainSummary, Service, SvcConfig};
pub use stats::ServiceStats;
pub use telemetry::SPAN_STAGES;
// Re-exported so service binaries can build catalogs without naming the
// server crate.
pub use vod_server::{CatalogError, SchedulerKind, ServeCatalog, ServeEntry};
// Re-exported so service binaries can verify delivered bytes against the
// deterministic store without naming the ring crate.
pub use vod_ring::{
    checksum64, payload_len_for, RingStats, SegmentPayload, SegmentRing, SegmentStore,
    DEFAULT_STORE_SEED,
};
pub use wire::{
    Frame, GrantedSegment, WireError, ARRIVAL_AUTO, MAX_FRAME_LEN, PROTOCOL_VERSION, RESUME_NONE,
    SEGMENT_CHUNK_BYTES,
};

//! Baseline video-on-demand distribution protocols.
//!
//! Everything the paper compares DHB against, implemented from scratch:
//!
//! * **Fixed broadcasting** — [`fb`] (Fast Broadcasting, Juhn & Tseng
//!   \[13\]), [`npb`] (New Pagoda Broadcasting, Pâris \[14\]) and [`sb`]
//!   (Skyscraper Broadcasting, Hua & Sheu \[11\]), all expressed as a
//!   [`StaticMapping`] — a periodic segment-to-stream schedule — plus the
//!   [`client`] download models that verify their timeliness, receiver
//!   concurrency and buffer demands.
//! * **Reactive** — [`tapping`] (stream tapping, Carter & Long \[2\]) and
//!   [`patching`] (Hua, Cai & Sheu \[12\]), driven by the continuous-time
//!   engine.
//! * **Hybrid / dynamic** — [`ud`] (the Universal Distribution protocol
//!   \[17\]: Fast Broadcasting transmitted on demand), [`dynamic_npb`]
//!   (the dynamic NPB variant the paper's Section 3 explored and
//!   rejected), [`dynamic_sb`] (Eager & Vernon's DSB \[5\]) and
//!   [`selective_catching`] (Gao, Zhang & Towsley \[8\]).
//! * [`lower_bound`] — the Eager–Vernon–Zahorjan minimum bandwidth for
//!   immediate-service protocols, for context in the figures.
//! * **Historical context** — [`batching`] (Dan et al. \[3\]\[4\], the
//!   earliest technique in the paper's related work) and [`harmonic`]
//!   (Juhn & Tseng's harmonic broadcasting, the fractional-bandwidth floor
//!   `H_n` that NPB approximates and DHB's saturation chases).
//!
//! # Example
//!
//! ```
//! use vod_protocols::npb::npb_mapping;
//!
//! // The paper's Figure 2: NPB packs nine segments into three streams.
//! let mapping = npb_mapping(3);
//! assert_eq!(mapping.n_segments(), 9);
//! assert!(mapping.verify_timeliness().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod batching;
pub mod client;
pub mod dynamic_npb;
pub mod dynamic_sb;
pub mod fb;
pub mod harmonic;
pub mod lower_bound;
pub mod mapping;
pub mod npb;
pub mod npb_schedule;
mod on_demand;
pub mod patching;
pub mod sb;
pub mod selective_catching;
pub mod tapping;
pub mod ud;

pub use batching::Batching;
pub use client::{simulate_client, ClientReport, DownloadPolicy};
pub use dynamic_npb::DynamicNpb;
pub use dynamic_sb::DynamicSb;
pub use harmonic::{HarmonicBroadcast, PolyharmonicBroadcast};
pub use mapping::{FixedBroadcast, StaticMapping, TimelinessError};
pub use npb_schedule::NpbGrantScheduler;
pub use patching::Patching;
pub use selective_catching::SelectiveCatching;
pub use tapping::{StreamTapping, TappingPolicy};
pub use ud::UniversalDistribution;

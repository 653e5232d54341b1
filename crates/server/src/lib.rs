//! A multi-video VOD server built from the protocol suite.
//!
//! The paper's introduction frames the deployment problem: every protocol
//! is "tailored for a specific range of video access rates and performs
//! poorly beyond that range", yet a real server carries a whole catalog
//! whose popularity follows a heavy-tailed (Zipf-like) distribution — a few
//! hot videos and a long cold tail. This crate composes the workspace's
//! protocols into exactly that scenario:
//!
//! * [`catalog`] — a [`catalog::Catalog`] of videos with Zipf
//!   popularity splitting a total request rate (Poisson splitting keeps the
//!   per-video processes exactly Poisson, so per-video simulation is
//!   exact);
//! * [`policy`] — per-video protocol [`policy::Policy`]: DHB
//!   everywhere, NPB everywhere, reactive everywhere, UD everywhere, or
//!   the conventional hot/cold split (fixed broadcasting above a threshold
//!   rate, stream tapping below it);
//! * [`server`] — [`server::Server`] simulates the catalog under a
//!   policy and aggregates bandwidth.
//!
//! # Example
//!
//! ```
//! use vod_server::{Catalog, Policy, Server};
//! use vod_types::{ArrivalRate, VideoSpec};
//!
//! let catalog = Catalog::zipf(
//!     8,
//!     ArrivalRate::per_hour(200.0),
//!     1.0,
//!     VideoSpec::paper_two_hour(),
//! );
//! let server = Server::new(catalog).measured_slots(300);
//! let dhb = server.simulate(&Policy::DhbEverywhere);
//! let npb = server.simulate(&Policy::NpbEverywhere);
//! // Fixed broadcasting pays for the cold tail; DHB does not.
//! assert!(dhb.total_avg.get() < npb.total_avg.get());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod catalog;
pub mod joint;
pub mod policy;
pub mod serve_catalog;
pub mod server;

pub use catalog::{Catalog, VideoEntry, VideoId};
pub use joint::JointReport;
pub use policy::{AssignedProtocol, Policy};
pub use serve_catalog::{BuiltEntry, CatalogError, SchedulerKind, ServeCatalog, ServeEntry};
pub use server::{Server, ServerReport, VideoReport};

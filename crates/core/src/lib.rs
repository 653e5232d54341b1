//! The **Dynamic Heuristic Broadcasting (DHB)** protocol — the paper's
//! contribution (Carter, Pâris, Mohan & Long, ICDCS 2001).
//!
//! DHB is a slotted, on-demand broadcasting protocol. The video is cut into
//! `n` equal segments; segment `S_j`, requested by a customer arriving
//! during slot `i`, must be transmitted somewhere in the window
//! `[i+1, i+T[j]]` (with `T[j] = j` for constant-bit-rate video). If an
//! instance is already scheduled inside the window the request shares it;
//! otherwise DHB schedules a new instance in the window slot with the
//! minimum load, breaking ties towards the latest slot (the paper's
//! Figure 6). That single heuristic yields reactive-class cost at low
//! request rates and beats the best fixed broadcasting protocol on average
//! bandwidth at high rates.
//!
//! Crate layout:
//!
//! * [`scheduler`] — the slot ring and window-search data structure;
//! * [`heuristic`] — the paper's slot-selection rule plus the ablation
//!   alternatives (earliest, latest-possible, random);
//! * [`protocol`] — [`Dhb`], the [`vod_sim::SlottedProtocol`] adapter,
//!   including the Section-4 VBR variants via
//!   [`vod_trace::BroadcastPlan`];
//! * [`audit`] — a wrapper that records every request and transmission and
//!   proves no customer ever misses a deadline.
//!
//! # Example
//!
//! ```
//! use dhb_core::Dhb;
//! use vod_sim::{PoissonProcess, SlottedRun};
//! use vod_types::{ArrivalRate, VideoSpec};
//!
//! let video = VideoSpec::paper_two_hour();
//! let mut dhb = Dhb::fixed_rate(video.n_segments());
//! let report = SlottedRun::new(video)
//!     .measured_slots(1_000)
//!     .run(&mut dhb, PoissonProcess::new(ArrivalRate::per_hour(10.0)));
//! // Well below NPB's 6 fixed streams at 10 requests/hour.
//! assert!(report.avg_bandwidth.get() < 6.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod audit;
pub mod heuristic;
pub mod protocol;
pub mod scheduler;
pub mod slot_scheduler;

pub use audit::{
    audit_dhb, AuditError, ClientDemands, MissCause, ServiceSummary, TimelinessAuditor,
};
pub use heuristic::SlotHeuristic;
pub use protocol::{Dhb, DhbStats};
pub use scheduler::{DhbScheduler, RecoveryStats, ScheduledSegment, SchedulerError};
pub use slot_scheduler::{PlanScheduler, SchedulerStats, SlotScheduler};

//! The typed event taxonomy.

use std::fmt;

/// Why a scheduled transmission (or reactive stream) did not reach clients.
///
/// Mirrors the sim crate's fault-injection causes without depending on it:
/// `vod-sim` provides `From<DropCause> for FaultKind` at the boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Independent per-instance channel loss.
    Loss,
    /// A scheduled outage window silenced the transmission.
    Outage,
    /// The per-slot bandwidth cap cut the transmission.
    Capped,
}

impl FaultKind {
    /// Stable lower-case wire name used by the JSONL schema.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Loss => "loss",
            FaultKind::Outage => "outage",
            FaultKind::Capped => "capped",
        }
    }

    /// Inverse of [`name`](FaultKind::name).
    #[must_use]
    pub fn from_name(name: &str) -> Option<FaultKind> {
        match name {
            "loss" => Some(FaultKind::Loss),
            "outage" => Some(FaultKind::Outage),
            "capped" => Some(FaultKind::Capped),
            _ => None,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why the service refused to admit a request.
///
/// Lives here (not in `vod-svc`) so the journal taxonomy and the wire
/// protocol share one vocabulary: the service's `Rejected` frame carries the
/// same enum it journals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectKind {
    /// The target shard's bounded queue was full (load shedding).
    QueueFull,
    /// The service is draining and admits no new work.
    Draining,
    /// The requested video id is outside the catalog.
    UnknownVideo,
    /// The video is in the catalog but its entry could not back a working
    /// scheduler (bad period vector in an untrusted catalog file).
    InvalidVideo,
    /// The video's shard exhausted its restart budget and is load-shedding
    /// until the service restarts.
    ShardDown,
    /// A `Resume` named a session id the service does not know (never
    /// created, already closed by `Goodbye`, or lost to a service restart).
    UnknownSession,
}

impl RejectKind {
    /// All kinds, in wire order; a kind's position is its wire code.
    pub const ALL: [RejectKind; 6] = [
        RejectKind::QueueFull,
        RejectKind::Draining,
        RejectKind::UnknownVideo,
        RejectKind::InvalidVideo,
        RejectKind::ShardDown,
        RejectKind::UnknownSession,
    ];

    /// Stable lower-case wire name used by the JSONL schema.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RejectKind::QueueFull => "queue_full",
            RejectKind::Draining => "draining",
            RejectKind::UnknownVideo => "unknown_video",
            RejectKind::InvalidVideo => "invalid_video",
            RejectKind::ShardDown => "shard_down",
            RejectKind::UnknownSession => "unknown_session",
        }
    }

    /// Inverse of [`name`](RejectKind::name).
    #[must_use]
    pub fn from_name(name: &str) -> Option<RejectKind> {
        RejectKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Single-byte wire code (the position in [`RejectKind::ALL`]).
    #[must_use]
    pub fn code(self) -> u8 {
        RejectKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("kind is in ALL") as u8
    }

    /// Inverse of [`code`](RejectKind::code).
    #[must_use]
    pub fn from_code(code: u8) -> Option<RejectKind> {
        RejectKind::ALL.get(usize::from(code)).copied()
    }
}

impl fmt::Display for RejectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One observable scheduling or delivery decision.
///
/// Slot-valued fields are absolute slot indices; `segment` is the paper's
/// 1-based segment number `j`.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A customer request arrived during `slot`.
    RequestArrived {
        /// Slot the arrival fell into; its schedule starts at `slot + 1`.
        slot: u64,
    },
    /// The scheduler placed (or shared) one segment instance for a request.
    InstanceScheduled {
        /// 1-based segment number `j`.
        segment: u32,
        /// `true` when an existing instance inside the window was shared,
        /// `false` when a new instance was planted.
        shared: bool,
        /// First slot of the candidate window (`arrival + 1`).
        window_start: u64,
        /// Last slot of the candidate window (`arrival + T[j]`).
        window_end: u64,
        /// The slot the heuristic chose.
        slot: u64,
        /// Load of the chosen slot after the decision.
        load: u32,
    },
    /// Fault injection dropped one transmitted instance.
    InstanceDropped {
        /// Slot whose transmission was hit.
        slot: u64,
        /// Index into the slot's instance list, in transmission order.
        instance: u32,
        /// What dropped it.
        cause: FaultKind,
    },
    /// Recovery replanted a dropped segment within its deadline slack.
    Rescheduled {
        /// 1-based segment number `j`.
        segment: u32,
        /// Slot the drop happened in.
        from_slot: u64,
        /// Slot the segment was replanted into.
        to_slot: u64,
    },
    /// Recovery missed the deadline and deferred playback instead.
    PlaybackDeferred {
        /// 1-based segment number `j`.
        segment: u32,
        /// Slot the drop happened in.
        from_slot: u64,
        /// Slot the segment was replanted into, past its deadline.
        to_slot: u64,
        /// Whole slots of playback stall this deferral imposed.
        stall_slots: u64,
    },
    /// The engine finished a slot.
    SlotClosed {
        /// The finished slot.
        slot: u64,
        /// Instances the protocol scheduled for the slot.
        scheduled: u32,
        /// Instances actually put on the wire after fault injection.
        transmitted: u32,
    },
    /// The continuous engine lost a reactive stream (no slot structure, so
    /// this carries the stream's start time instead).
    StreamDropped {
        /// Stream start time in seconds from the run origin.
        at_secs: f64,
        /// What dropped it.
        cause: FaultKind,
    },
    /// The service accepted a client connection.
    ConnAccepted {
        /// Service-wide connection id, assigned in accept order.
        conn: u64,
    },
    /// Admission control refused a client request.
    RequestRejected {
        /// Connection the request arrived on.
        conn: u64,
        /// The client's per-connection request sequence number.
        request: u64,
        /// Why it was refused.
        reason: RejectKind,
    },
    /// The service finished a graceful drain: every admitted request had its
    /// grant flushed before the listener shut down.
    ServiceDrained {
        /// Connections accepted over the service's lifetime.
        conns: u64,
        /// Grants delivered over the service's lifetime.
        grants: u64,
    },
    /// A shard worker panicked while scheduling; the supervisor caught it.
    ShardPanicked {
        /// The shard that went down.
        shard: u64,
        /// Cumulative panic count for this shard, this one included.
        restarts: u64,
    },
    /// The supervisor rebuilt a panicked shard's schedulers from its state
    /// journal and resumed it on the same slot clocks.
    ShardRestarted {
        /// The shard that came back.
        shard: u64,
        /// Journal entries (scheduled arrivals) replayed into the fresh
        /// schedulers.
        replayed: u64,
        /// Backoff slept before the rebuild, in milliseconds.
        backoff_ms: u64,
    },
    /// A shard exhausted its restart budget; its videos now load-shed with
    /// `Rejected(shard_down)`.
    ShardDisabled {
        /// The shard taken out of service.
        shard: u64,
    },
    /// A reconnecting client resumed its session; missed grants were
    /// replayed from the session's replay ring.
    SessionResumed {
        /// The session that moved to a new connection.
        session: u64,
        /// The connection it now lives on.
        conn: u64,
        /// Ring frames replayed to close the client's grant gap.
        replayed: u64,
    },
}

/// Discriminant of [`Event`], used for eviction-proof per-kind counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// [`Event::RequestArrived`].
    RequestArrived,
    /// [`Event::InstanceScheduled`].
    InstanceScheduled,
    /// [`Event::InstanceDropped`].
    InstanceDropped,
    /// [`Event::Rescheduled`].
    Rescheduled,
    /// [`Event::PlaybackDeferred`].
    PlaybackDeferred,
    /// [`Event::SlotClosed`].
    SlotClosed,
    /// [`Event::StreamDropped`].
    StreamDropped,
    /// [`Event::ConnAccepted`].
    ConnAccepted,
    /// [`Event::RequestRejected`].
    RequestRejected,
    /// [`Event::ServiceDrained`].
    ServiceDrained,
    /// [`Event::ShardPanicked`].
    ShardPanicked,
    /// [`Event::ShardRestarted`].
    ShardRestarted,
    /// [`Event::ShardDisabled`].
    ShardDisabled,
    /// [`Event::SessionResumed`].
    SessionResumed,
}

impl EventKind {
    /// Number of event kinds.
    pub const COUNT: usize = 14;

    /// All kinds, in wire order.
    pub const ALL: [EventKind; EventKind::COUNT] = [
        EventKind::RequestArrived,
        EventKind::InstanceScheduled,
        EventKind::InstanceDropped,
        EventKind::Rescheduled,
        EventKind::PlaybackDeferred,
        EventKind::SlotClosed,
        EventKind::StreamDropped,
        EventKind::ConnAccepted,
        EventKind::RequestRejected,
        EventKind::ServiceDrained,
        EventKind::ShardPanicked,
        EventKind::ShardRestarted,
        EventKind::ShardDisabled,
        EventKind::SessionResumed,
    ];

    /// Stable snake-case wire name used as the JSONL `type` field.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::RequestArrived => "request_arrived",
            EventKind::InstanceScheduled => "instance_scheduled",
            EventKind::InstanceDropped => "instance_dropped",
            EventKind::Rescheduled => "rescheduled",
            EventKind::PlaybackDeferred => "playback_deferred",
            EventKind::SlotClosed => "slot_closed",
            EventKind::StreamDropped => "stream_dropped",
            EventKind::ConnAccepted => "conn_accepted",
            EventKind::RequestRejected => "request_rejected",
            EventKind::ServiceDrained => "service_drained",
            EventKind::ShardPanicked => "shard_panicked",
            EventKind::ShardRestarted => "shard_restarted",
            EventKind::ShardDisabled => "shard_disabled",
            EventKind::SessionResumed => "session_resumed",
        }
    }

    /// Inverse of [`name`](EventKind::name).
    #[must_use]
    pub fn from_name(name: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub(crate) fn index(self) -> usize {
        match self {
            EventKind::RequestArrived => 0,
            EventKind::InstanceScheduled => 1,
            EventKind::InstanceDropped => 2,
            EventKind::Rescheduled => 3,
            EventKind::PlaybackDeferred => 4,
            EventKind::SlotClosed => 5,
            EventKind::StreamDropped => 6,
            EventKind::ConnAccepted => 7,
            EventKind::RequestRejected => 8,
            EventKind::ServiceDrained => 9,
            EventKind::ShardPanicked => 10,
            EventKind::ShardRestarted => 11,
            EventKind::ShardDisabled => 12,
            EventKind::SessionResumed => 13,
        }
    }
}

impl Event {
    /// This event's discriminant.
    #[must_use]
    pub fn kind(&self) -> EventKind {
        match self {
            Event::RequestArrived { .. } => EventKind::RequestArrived,
            Event::InstanceScheduled { .. } => EventKind::InstanceScheduled,
            Event::InstanceDropped { .. } => EventKind::InstanceDropped,
            Event::Rescheduled { .. } => EventKind::Rescheduled,
            Event::PlaybackDeferred { .. } => EventKind::PlaybackDeferred,
            Event::SlotClosed { .. } => EventKind::SlotClosed,
            Event::StreamDropped { .. } => EventKind::StreamDropped,
            Event::ConnAccepted { .. } => EventKind::ConnAccepted,
            Event::RequestRejected { .. } => EventKind::RequestRejected,
            Event::ServiceDrained { .. } => EventKind::ServiceDrained,
            Event::ShardPanicked { .. } => EventKind::ShardPanicked,
            Event::ShardRestarted { .. } => EventKind::ShardRestarted,
            Event::ShardDisabled { .. } => EventKind::ShardDisabled,
            Event::SessionResumed { .. } => EventKind::SessionResumed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(EventKind::from_name("nope"), None);
    }

    #[test]
    fn fault_names_round_trip() {
        for kind in [FaultKind::Loss, FaultKind::Outage, FaultKind::Capped] {
            assert_eq!(FaultKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(FaultKind::from_name(""), None);
    }

    #[test]
    fn reject_names_and_codes_round_trip() {
        for kind in RejectKind::ALL {
            assert_eq!(RejectKind::from_name(kind.name()), Some(kind));
            assert_eq!(RejectKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(RejectKind::from_name("nope"), None);
        assert_eq!(RejectKind::from_code(200), None);
    }

    #[test]
    fn kind_indices_are_dense() {
        for (i, kind) in EventKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }
}

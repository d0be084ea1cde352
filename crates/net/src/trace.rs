//! Structured protocol-event tracing.
//!
//! Every protocol layer above the substrate records typed
//! [`TraceEvent`]s into a bounded [`TraceLog`]: view installations,
//! failure suspicions, NACKs and retransmissions, sequencer ordering
//! batches, time-silence nulls, request forwarding, reply collection,
//! client rebinds and reply-cache dedups. Timestamps are the host
//! runtime's [`SimTime`] — virtual time under the simulator, wall-clock
//! elapsed time under the threaded runtime — so traces from either
//! runtime read identically.
//!
//! The log is a ring: when full, the oldest records are dropped (and
//! counted), so tracing is always safe to leave on. Aggregate per-kind
//! counts live in the metrics registry (see
//! [`crate::metrics::Observability::record`]), which never drops.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use crate::site::NodeId;
use crate::time::SimTime;

/// A group's name, shared. The group-communication layer's `GroupId`
/// wraps one, so the name is allocated once when a node takes up the
/// group, and every trace record of the group holds a refcounted handle:
/// recording allocates nothing. The handle is one pointer wide, which
/// keeps a [`TraceRecord`] at 32 bytes.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupName(Arc<String>);

impl GroupName {
    /// A name (allocated once; clones share it).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        GroupName(Arc::new(name.into()))
    }

    /// The name as a string.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for GroupName {
    fn from(s: &str) -> Self {
        GroupName::new(s)
    }
}

impl From<String> for GroupName {
    fn from(s: String) -> Self {
        GroupName::new(s)
    }
}

impl fmt::Display for GroupName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A typed protocol event. Group identifiers are carried as
/// [`GroupName`]s so the substrate stays independent of the
/// group-communication layer's types.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A group installed a new view.
    ViewInstalled {
        /// The group.
        group: GroupName,
        /// The installed view's number.
        view: u64,
        /// Members in the view.
        members: u32,
    },
    /// The failure detector suspected a member.
    Suspected {
        /// The group the suspicion was raised in.
        group: GroupName,
        /// The suspected member.
        suspect: NodeId,
    },
    /// A negative acknowledgement was sent to recover missing messages.
    NackSent {
        /// The group.
        group: GroupName,
        /// The member asked to retransmit.
        to: NodeId,
        /// Messages requested.
        count: usize,
    },
    /// Stored messages were retransmitted in answer to a NACK.
    Retransmit {
        /// The group.
        group: GroupName,
        /// The member that asked.
        to: NodeId,
        /// Messages retransmitted.
        count: usize,
    },
    /// The sequencer multicast a batch of ordering records (asymmetric
    /// protocol).
    SequencerBatch {
        /// The group.
        group: GroupName,
        /// Ordering records in the batch.
        records: usize,
    },
    /// A time-silence null message was sent (liveness heartbeat).
    TimeSilenceNull {
        /// The group.
        group: GroupName,
    },
    /// A request manager forwarded a client request into the server
    /// group (open binding).
    RequestForwarded {
        /// The requesting client.
        client: NodeId,
        /// The client's call number.
        number: u64,
    },
    /// A request manager finished collecting a call's replies and
    /// relayed the result to the client.
    ReplyCollected {
        /// The requesting client.
        client: NodeId,
        /// The client's call number.
        number: u64,
    },
    /// A server executed a request (at-most-once per call per replica).
    Executed {
        /// The requesting client.
        client: NodeId,
        /// The client's call number.
        number: u64,
    },
    /// A retried request was answered from the reply cache without
    /// re-execution (§4.1 deduplication).
    RetryDeduped {
        /// The requesting client.
        client: NodeId,
        /// The client's call number.
        number: u64,
    },
    /// A client's open binding broke (its request manager vanished) and
    /// the application will rebind (§4.1).
    Rebind {
        /// The broken client/server group.
        group: GroupName,
        /// The manager that disappeared.
        manager: NodeId,
    },
    /// A binding completed and is ready for invocations.
    BindReady {
        /// The client/server group.
        group: GroupName,
    },
    /// A binding attempt failed.
    BindFailed {
        /// The client/server group that failed.
        group: GroupName,
    },
    /// A passive-replication backup was promoted to primary and replayed
    /// its backlog.
    Promoted {
        /// The server group.
        group: GroupName,
        /// Backlogged requests replayed.
        replayed: usize,
    },
    /// An incoming message body failed to unmarshal and was dropped
    /// (also counted under the `decode.malformed` metric).
    MalformedDropped {
        /// The ORB operation the body arrived under.
        operation: &'static str,
    },
}

impl TraceEvent {
    /// The event's `ev.<kind>` counter name (see
    /// [`crate::metrics::Observability::record`]), static so bumping it
    /// allocates nothing.
    #[must_use]
    pub fn counter(&self) -> &'static str {
        match self {
            TraceEvent::ViewInstalled { .. } => "ev.view_installed",
            TraceEvent::Suspected { .. } => "ev.suspected",
            TraceEvent::NackSent { .. } => "ev.nack_sent",
            TraceEvent::Retransmit { .. } => "ev.retransmit",
            TraceEvent::SequencerBatch { .. } => "ev.sequencer_batch",
            TraceEvent::TimeSilenceNull { .. } => "ev.time_silence_null",
            TraceEvent::RequestForwarded { .. } => "ev.request_forwarded",
            TraceEvent::ReplyCollected { .. } => "ev.reply_collected",
            TraceEvent::Executed { .. } => "ev.executed",
            TraceEvent::RetryDeduped { .. } => "ev.retry_deduped",
            TraceEvent::Rebind { .. } => "ev.rebind",
            TraceEvent::BindReady { .. } => "ev.bind_ready",
            TraceEvent::BindFailed { .. } => "ev.bind_failed",
            TraceEvent::Promoted { .. } => "ev.promoted",
            TraceEvent::MalformedDropped { .. } => "ev.malformed_dropped",
        }
    }

    /// The event's kind as a stable snake-case name — also the suffix of
    /// its auto-maintained `ev.*` counter.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::ViewInstalled { .. } => "view_installed",
            TraceEvent::Suspected { .. } => "suspected",
            TraceEvent::NackSent { .. } => "nack_sent",
            TraceEvent::Retransmit { .. } => "retransmit",
            TraceEvent::SequencerBatch { .. } => "sequencer_batch",
            TraceEvent::TimeSilenceNull { .. } => "time_silence_null",
            TraceEvent::RequestForwarded { .. } => "request_forwarded",
            TraceEvent::ReplyCollected { .. } => "reply_collected",
            TraceEvent::Executed { .. } => "executed",
            TraceEvent::RetryDeduped { .. } => "retry_deduped",
            TraceEvent::Rebind { .. } => "rebind",
            TraceEvent::BindReady { .. } => "bind_ready",
            TraceEvent::BindFailed { .. } => "bind_failed",
            TraceEvent::Promoted { .. } => "promoted",
            TraceEvent::MalformedDropped { .. } => "malformed_dropped",
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::ViewInstalled {
                group,
                view,
                members,
            } => write!(f, "view_installed {group} v{view} ({members} members)"),
            TraceEvent::Suspected { group, suspect } => {
                write!(f, "suspected {suspect} in {group}")
            }
            TraceEvent::NackSent { group, to, count } => {
                write!(f, "nack_sent to {to} in {group} ({count} msgs)")
            }
            TraceEvent::Retransmit { group, to, count } => {
                write!(f, "retransmit {count} msgs to {to} in {group}")
            }
            TraceEvent::SequencerBatch { group, records } => {
                write!(f, "sequencer_batch {records} records in {group}")
            }
            TraceEvent::TimeSilenceNull { group } => write!(f, "time_silence_null in {group}"),
            TraceEvent::RequestForwarded { client, number } => {
                write!(f, "request_forwarded {client}#{number}")
            }
            TraceEvent::ReplyCollected { client, number } => {
                write!(f, "reply_collected {client}#{number}")
            }
            TraceEvent::Executed { client, number } => write!(f, "executed {client}#{number}"),
            TraceEvent::RetryDeduped { client, number } => {
                write!(f, "retry_deduped {client}#{number}")
            }
            TraceEvent::Rebind { group, manager } => {
                write!(f, "rebind {group} (manager {manager} gone)")
            }
            TraceEvent::BindReady { group } => write!(f, "bind_ready {group}"),
            TraceEvent::BindFailed { group } => write!(f, "bind_failed {group}"),
            TraceEvent::Promoted { group, replayed } => {
                write!(f, "promoted in {group} ({replayed} replayed)")
            }
            TraceEvent::MalformedDropped { operation } => {
                write!(f, "malformed_dropped ({operation} body)")
            }
        }
    }
}

/// One timestamped trace record.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// When the event happened (runtime time base).
    pub at: SimTime,
    /// The event.
    pub event: TraceEvent,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>12?}] {}", self.at, self.event)
    }
}

/// Default ring capacity of a [`TraceLog`].
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// A bounded ring of [`TraceRecord`]s.
#[derive(Clone, Debug)]
pub struct TraceLog {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceLog {
    /// A log with the default capacity.
    #[must_use]
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// A log holding at most `capacity` records.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        // The ring is allocated on the first record: a log that is never
        // written (a GCS member whose host keeps the node's one ring)
        // costs nothing.
        TraceLog {
            records: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Appends a record, evicting the oldest when full.
    pub fn record(&mut self, at: SimTime, event: TraceEvent) {
        if self.records.capacity() == 0 {
            // First record: size the ring once, at its bound, rather than
            // doubling its way there.
            self.records.reserve_exact(self.capacity);
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(TraceRecord { at, event });
    }

    /// Records retained (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Records currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained records of one kind (oldest first).
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a TraceRecord> {
        self.records.iter().filter(move |r| r.event.kind() == kind)
    }

    /// Count of retained records of one kind. Note this undercounts once
    /// the ring has dropped records; the `ev.*` counters in the metrics
    /// registry are exact.
    #[must_use]
    pub fn count_kind(&self, kind: &str) -> usize {
        self.of_kind(kind).count()
    }

    /// Copies out all retained records.
    #[must_use]
    pub fn to_vec(&self) -> Vec<TraceRecord> {
        self.records.iter().cloned().collect()
    }

    /// Discards all retained records (the dropped count is kept).
    pub fn clear(&mut self) {
        self.records.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn records_and_filters() {
        let mut log = TraceLog::new();
        log.record(
            SimTime::from_millis(1),
            TraceEvent::Suspected {
                group: "g".into(),
                suspect: n(2),
            },
        );
        log.record(
            SimTime::from_millis(2),
            TraceEvent::TimeSilenceNull { group: "g".into() },
        );
        assert_eq!(log.len(), 2);
        assert_eq!(log.count_kind("suspected"), 1);
        assert_eq!(log.count_kind("time_silence_null"), 1);
        assert_eq!(log.count_kind("rebind"), 0);
        assert!(log.iter().next().unwrap().at < log.iter().last().unwrap().at);
    }

    #[test]
    fn ring_drops_oldest() {
        let mut log = TraceLog::with_capacity(2);
        for i in 0..5u64 {
            log.record(
                SimTime::from_millis(i),
                TraceEvent::TimeSilenceNull {
                    group: format!("g{i}").into(),
                },
            );
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        let first = log.iter().next().unwrap();
        assert_eq!(first.at, SimTime::from_millis(3));
    }

    #[test]
    fn records_stay_small() {
        // A node's ring holds DEFAULT_TRACE_CAPACITY of these.
        assert!(std::mem::size_of::<TraceRecord>() <= 32);
    }

    #[test]
    fn kinds_are_stable() {
        let e = TraceEvent::Rebind {
            group: "b".into(),
            manager: n(0),
        };
        assert_eq!(e.kind(), "rebind");
        assert_eq!(e.counter(), format!("ev.{}", e.kind()));
        assert!(e.to_string().contains("rebind"));
    }
}

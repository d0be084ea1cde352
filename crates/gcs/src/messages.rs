//! The group-communication wire protocol.
//!
//! Every [`GcsMessage`] travels between NewTop service objects as a oneway
//! ORB invocation (operation [`crate::GCS_OPERATION`] on the peer's
//! [`crate::NSO_OBJECT_KEY`] endpoint), marshalled with the mini-ORB's
//! CDR. This is the paper's architecture: since ORBs only provide
//! one-to-one communication, a multicast is implemented as a series of
//! per-member ORB invocations (§2.2).

use std::fmt;
use std::sync::Arc;

use bytes::Bytes;

use newtop_net::site::NodeId;
use newtop_orb::cdr::{CdrDecode, CdrDecoder, CdrEncode, CdrEncoder, CdrError};

use crate::clock::DepsVector;
use crate::group::{DeliveryOrder, GroupId};
use crate::view::{View, ViewId};

/// A per-sender contiguously-received vector `(sender, highest prefix
/// seq)` — piggybacked for stability tracking and exchanged during view
/// agreement.
pub type ContigVector = Vec<(NodeId, u64)>;

/// An application data message within a group and view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataMsg {
    /// Destination group.
    pub group: GroupId,
    /// The view the message was sent in.
    pub view: ViewId,
    /// The multicasting member.
    pub sender: NodeId,
    /// The sender's per-view FIFO sequence number (starting at 1).
    pub seq: u64,
    /// Lamport timestamp at send time (shared across the sender's groups).
    pub lamport: u64,
    /// Requested delivery guarantee.
    pub order: DeliveryOrder,
    /// Causal requirements: per-sender delivered prefixes at send time.
    pub deps: DepsVector,
    /// Piggybacked acknowledgement vector (receiver stability input).
    pub acks: ContigVector,
    /// The sender's next needed global order position (asymmetric
    /// protocol; lets the sequencer drop order records every member
    /// holds). Always 1 under the symmetric protocol.
    pub order_next: u64,
    /// Application payload.
    pub payload: Bytes,
}

impl DataMsg {
    /// The message's unique identity within its view.
    #[must_use]
    pub fn msg_id(&self) -> (NodeId, u64) {
        (self.sender, self.seq)
    }
}

/// An "I am alive" time-silence message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NullMsg {
    /// Destination group.
    pub group: GroupId,
    /// The sender's current view.
    pub view: ViewId,
    /// The silent-but-alive member.
    pub sender: NodeId,
    /// Lamport timestamp (advances symmetric-order delivery).
    pub lamport: u64,
    /// The sender's last data sequence number in this view. A receiver
    /// may only let this null's timestamp advance symmetric-order
    /// delivery once it holds all the sender's data up to `last_seq`
    /// (otherwise a null racing ahead of a lost data message could break
    /// total order).
    pub last_seq: u64,
    /// Piggybacked acknowledgement vector.
    pub acks: ContigVector,
    /// The sender's next needed global order position (see
    /// [`DataMsg::order_next`]).
    pub order_next: u64,
}

/// All messages exchanged by the group communication service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GcsMessage {
    /// Application data (multicast to all view members, including the
    /// sender itself via loopback). Refcounted so retransmissions,
    /// buffered copies, and view-change unions share one allocation; the
    /// wire representation is unchanged (`Arc<T>` marshals as `T`).
    Data(Arc<DataMsg>),
    /// Time-silence heartbeat.
    Null(NullMsg),
    /// Retransmission request: `from` is missing `sender`'s messages with
    /// sequences in `from_seq..=to_seq`.
    Nack {
        /// Group concerned.
        group: GroupId,
        /// View concerned.
        view: ViewId,
        /// The requesting member.
        from: NodeId,
        /// The original sender whose messages are missing.
        sender: NodeId,
        /// First missing sequence.
        from_seq: u64,
        /// Last missing sequence.
        to_seq: u64,
    },
    /// Sequencer ordering records (asymmetric protocol): global positions
    /// `start, start+1, ...` are assigned to the listed `(sender, seq)`
    /// data messages.
    SeqOrder {
        /// Group concerned.
        group: GroupId,
        /// View concerned.
        view: ViewId,
        /// The sequencer (for liveness accounting).
        sender: NodeId,
        /// The sequencer's Lamport timestamp.
        lamport: u64,
        /// Global position of the first entry.
        start: u64,
        /// Ordered message ids.
        entries: Vec<(NodeId, u64)>,
    },
    /// A member is missing ordering records from `from_order_seq` onwards.
    OrderNack {
        /// Group concerned.
        group: GroupId,
        /// View concerned.
        view: ViewId,
        /// The requesting member.
        from: NodeId,
        /// First missing global position.
        from_order_seq: u64,
    },
    /// A node asks a current member to bring it into the group.
    Join {
        /// Group to join.
        group: GroupId,
        /// The joining node.
        joiner: NodeId,
    },
    /// A member announces its graceful departure.
    Leave {
        /// Group being left.
        group: GroupId,
        /// The leaver's current view.
        view: ViewId,
        /// The departing member.
        leaver: NodeId,
    },
    /// A member reports suspicions/joiners to the would-be coordinator of
    /// the next view change.
    Suspect {
        /// Group concerned.
        group: GroupId,
        /// The reporter's current view.
        view: ViewId,
        /// The reporting member.
        from: NodeId,
        /// Members it suspects have crashed.
        suspects: Vec<NodeId>,
        /// Nodes it knows want to join.
        joiners: Vec<NodeId>,
    },
    /// View agreement, phase 1: the coordinator proposes a candidate
    /// membership and asks for state.
    Propose {
        /// Group concerned.
        group: GroupId,
        /// Agreement attempt number (monotonic per group).
        attempt: u64,
        /// The coordinating member.
        coordinator: NodeId,
        /// Proposed membership of the next view.
        candidates: Vec<NodeId>,
        /// The view being replaced.
        old_view: ViewId,
        /// The coordinator's contiguously-received vector, so responders
        /// only ship messages the coordinator lacks.
        coord_contig: ContigVector,
    },
    /// View agreement, phase 1 response: a candidate's received state and
    /// the messages the coordinator was missing.
    StateResp {
        /// Group concerned.
        group: GroupId,
        /// Attempt this responds to.
        attempt: u64,
        /// The responding candidate.
        from: NodeId,
        /// The responder's contiguously-received vector.
        contig: ContigVector,
        /// Messages the responder holds beyond the coordinator's vector.
        msgs: Vec<Arc<DataMsg>>,
    },
    /// View agreement, phase 2: flush-and-install. Carries the union
    /// messages so every survivor can deliver the same set (virtual
    /// synchrony) before installing the new view.
    Install {
        /// Group concerned.
        group: GroupId,
        /// Attempt being installed.
        attempt: u64,
        /// The new view.
        view: View,
        /// Messages some members may be missing.
        msgs: Vec<Arc<DataMsg>>,
    },
    /// A batch envelope: several small messages bound for one destination
    /// packed into a single GIOP frame per send-path flush. Constituents
    /// may target different groups (the batch is per destination, not per
    /// group); receivers unpack and route each constituent independently.
    /// Nested and empty batches are wire errors.
    Batch(Vec<GcsMessage>),
}

impl GcsMessage {
    /// The group this message concerns; `None` for a [`GcsMessage::Batch`]
    /// envelope, whose constituents may span groups.
    #[must_use]
    pub fn group(&self) -> Option<&GroupId> {
        match self {
            GcsMessage::Data(d) => Some(&d.group),
            GcsMessage::Null(n) => Some(&n.group),
            GcsMessage::Nack { group, .. }
            | GcsMessage::SeqOrder { group, .. }
            | GcsMessage::OrderNack { group, .. }
            | GcsMessage::Join { group, .. }
            | GcsMessage::Leave { group, .. }
            | GcsMessage::Suspect { group, .. }
            | GcsMessage::Propose { group, .. }
            | GcsMessage::StateResp { group, .. }
            | GcsMessage::Install { group, .. } => Some(group),
            GcsMessage::Batch(_) => None,
        }
    }

    /// A short tag for tracing.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            GcsMessage::Data(_) => "data",
            GcsMessage::Null(_) => "null",
            GcsMessage::Nack { .. } => "nack",
            GcsMessage::SeqOrder { .. } => "seq-order",
            GcsMessage::OrderNack { .. } => "order-nack",
            GcsMessage::Join { .. } => "join",
            GcsMessage::Leave { .. } => "leave",
            GcsMessage::Suspect { .. } => "suspect",
            GcsMessage::Propose { .. } => "propose",
            GcsMessage::StateResp { .. } => "state-resp",
            GcsMessage::Install { .. } => "install",
            GcsMessage::Batch(_) => "batch",
        }
    }
}

impl fmt::Display for GcsMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.group() {
            Some(g) => write!(f, "{}[{}]", self.kind(), g),
            None => match self {
                GcsMessage::Batch(msgs) => write!(f, "batch[{}]", msgs.len()),
                _ => write!(f, "{}[]", self.kind()),
            },
        }
    }
}

// --- CDR ---------------------------------------------------------------

fn write_deps(enc: &mut CdrEncoder, deps: &DepsVector) {
    enc.write_seq_len(deps.len());
    for (n, s) in deps.iter() {
        n.encode(enc);
        enc.write_u64(s);
    }
}

fn read_deps(dec: &mut CdrDecoder<'_>) -> Result<DepsVector, CdrError> {
    let len = dec.read_seq_len()?;
    let mut v = DepsVector::new();
    for _ in 0..len {
        let n = NodeId::decode(dec)?;
        let s = dec.read_u64()?;
        v.set(n, s);
    }
    Ok(v)
}

impl CdrEncode for DataMsg {
    fn encode(&self, enc: &mut CdrEncoder) {
        self.group.encode(enc);
        self.view.encode(enc);
        self.sender.encode(enc);
        enc.write_u64(self.seq);
        enc.write_u64(self.lamport);
        enc.write_u8(self.order.code());
        write_deps(enc, &self.deps);
        self.acks.encode(enc);
        enc.write_u64(self.order_next);
        enc.write_bytes(&self.payload);
    }
}

impl CdrDecode for DataMsg {
    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, CdrError> {
        Ok(DataMsg {
            group: GroupId::decode(dec)?,
            view: ViewId::decode(dec)?,
            sender: NodeId::decode(dec)?,
            seq: dec.read_u64()?,
            lamport: dec.read_u64()?,
            order: DeliveryOrder::from_code(dec.read_u8()?)?,
            deps: read_deps(dec)?,
            acks: ContigVector::decode(dec)?,
            order_next: dec.read_u64()?,
            payload: Bytes::decode(dec)?,
        })
    }
}

impl CdrEncode for NullMsg {
    fn encode(&self, enc: &mut CdrEncoder) {
        self.group.encode(enc);
        self.view.encode(enc);
        self.sender.encode(enc);
        enc.write_u64(self.lamport);
        enc.write_u64(self.last_seq);
        self.acks.encode(enc);
        enc.write_u64(self.order_next);
    }
}

impl CdrDecode for NullMsg {
    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, CdrError> {
        Ok(NullMsg {
            group: GroupId::decode(dec)?,
            view: ViewId::decode(dec)?,
            sender: NodeId::decode(dec)?,
            lamport: dec.read_u64()?,
            last_seq: dec.read_u64()?,
            acks: ContigVector::decode(dec)?,
            order_next: dec.read_u64()?,
        })
    }
}

const TAG_DATA: u8 = 0;
const TAG_NULL: u8 = 1;
const TAG_NACK: u8 = 2;
const TAG_SEQ_ORDER: u8 = 3;
const TAG_ORDER_NACK: u8 = 4;
const TAG_JOIN: u8 = 5;
const TAG_LEAVE: u8 = 6;
const TAG_SUSPECT: u8 = 7;
const TAG_PROPOSE: u8 = 8;
const TAG_STATE_RESP: u8 = 9;
const TAG_INSTALL: u8 = 10;
const TAG_BATCH: u8 = 11;

/// Most constituents a decoded batch may carry: a flush only packs the
/// handful of rounds accumulated between two drive steps, so anything
/// huge is hostile input, not a real batch.
pub const MAX_BATCH_LEN: usize = 1024;

impl CdrEncode for GcsMessage {
    fn encode(&self, enc: &mut CdrEncoder) {
        match self {
            GcsMessage::Data(d) => {
                enc.write_u8(TAG_DATA);
                d.encode(enc);
            }
            GcsMessage::Null(n) => {
                enc.write_u8(TAG_NULL);
                n.encode(enc);
            }
            GcsMessage::Nack {
                group,
                view,
                from,
                sender,
                from_seq,
                to_seq,
            } => {
                enc.write_u8(TAG_NACK);
                group.encode(enc);
                view.encode(enc);
                from.encode(enc);
                sender.encode(enc);
                enc.write_u64(*from_seq);
                enc.write_u64(*to_seq);
            }
            GcsMessage::SeqOrder {
                group,
                view,
                sender,
                lamport,
                start,
                entries,
            } => {
                enc.write_u8(TAG_SEQ_ORDER);
                group.encode(enc);
                view.encode(enc);
                sender.encode(enc);
                enc.write_u64(*lamport);
                enc.write_u64(*start);
                entries.encode(enc);
            }
            GcsMessage::OrderNack {
                group,
                view,
                from,
                from_order_seq,
            } => {
                enc.write_u8(TAG_ORDER_NACK);
                group.encode(enc);
                view.encode(enc);
                from.encode(enc);
                enc.write_u64(*from_order_seq);
            }
            GcsMessage::Join { group, joiner } => {
                enc.write_u8(TAG_JOIN);
                group.encode(enc);
                joiner.encode(enc);
            }
            GcsMessage::Leave {
                group,
                view,
                leaver,
            } => {
                enc.write_u8(TAG_LEAVE);
                group.encode(enc);
                view.encode(enc);
                leaver.encode(enc);
            }
            GcsMessage::Suspect {
                group,
                view,
                from,
                suspects,
                joiners,
            } => {
                enc.write_u8(TAG_SUSPECT);
                group.encode(enc);
                view.encode(enc);
                from.encode(enc);
                suspects.encode(enc);
                joiners.encode(enc);
            }
            GcsMessage::Propose {
                group,
                attempt,
                coordinator,
                candidates,
                old_view,
                coord_contig,
            } => {
                enc.write_u8(TAG_PROPOSE);
                group.encode(enc);
                enc.write_u64(*attempt);
                coordinator.encode(enc);
                candidates.encode(enc);
                old_view.encode(enc);
                coord_contig.encode(enc);
            }
            GcsMessage::StateResp {
                group,
                attempt,
                from,
                contig,
                msgs,
            } => {
                enc.write_u8(TAG_STATE_RESP);
                group.encode(enc);
                enc.write_u64(*attempt);
                from.encode(enc);
                contig.encode(enc);
                msgs.encode(enc);
            }
            GcsMessage::Install {
                group,
                attempt,
                view,
                msgs,
            } => {
                enc.write_u8(TAG_INSTALL);
                group.encode(enc);
                enc.write_u64(*attempt);
                view.encode(enc);
                msgs.encode(enc);
            }
            GcsMessage::Batch(msgs) => {
                enc.write_u8(TAG_BATCH);
                enc.write_seq_len(msgs.len());
                for m in msgs {
                    m.encode(enc);
                }
            }
        }
    }
}

impl CdrDecode for GcsMessage {
    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, CdrError> {
        let tag = dec.read_u8()?;
        Ok(match tag {
            TAG_DATA => GcsMessage::Data(Arc::new(DataMsg::decode(dec)?)),
            TAG_NULL => GcsMessage::Null(NullMsg::decode(dec)?),
            TAG_NACK => GcsMessage::Nack {
                group: GroupId::decode(dec)?,
                view: ViewId::decode(dec)?,
                from: NodeId::decode(dec)?,
                sender: NodeId::decode(dec)?,
                from_seq: dec.read_u64()?,
                to_seq: dec.read_u64()?,
            },
            TAG_SEQ_ORDER => GcsMessage::SeqOrder {
                group: GroupId::decode(dec)?,
                view: ViewId::decode(dec)?,
                sender: NodeId::decode(dec)?,
                lamport: dec.read_u64()?,
                start: dec.read_u64()?,
                entries: Vec::decode(dec)?,
            },
            TAG_ORDER_NACK => GcsMessage::OrderNack {
                group: GroupId::decode(dec)?,
                view: ViewId::decode(dec)?,
                from: NodeId::decode(dec)?,
                from_order_seq: dec.read_u64()?,
            },
            TAG_JOIN => GcsMessage::Join {
                group: GroupId::decode(dec)?,
                joiner: NodeId::decode(dec)?,
            },
            TAG_LEAVE => GcsMessage::Leave {
                group: GroupId::decode(dec)?,
                view: ViewId::decode(dec)?,
                leaver: NodeId::decode(dec)?,
            },
            TAG_SUSPECT => GcsMessage::Suspect {
                group: GroupId::decode(dec)?,
                view: ViewId::decode(dec)?,
                from: NodeId::decode(dec)?,
                suspects: Vec::decode(dec)?,
                joiners: Vec::decode(dec)?,
            },
            TAG_PROPOSE => GcsMessage::Propose {
                group: GroupId::decode(dec)?,
                attempt: dec.read_u64()?,
                coordinator: NodeId::decode(dec)?,
                candidates: Vec::decode(dec)?,
                old_view: ViewId::decode(dec)?,
                coord_contig: ContigVector::decode(dec)?,
            },
            TAG_STATE_RESP => GcsMessage::StateResp {
                group: GroupId::decode(dec)?,
                attempt: dec.read_u64()?,
                from: NodeId::decode(dec)?,
                contig: ContigVector::decode(dec)?,
                msgs: Vec::decode(dec)?,
            },
            TAG_INSTALL => GcsMessage::Install {
                group: GroupId::decode(dec)?,
                attempt: dec.read_u64()?,
                view: View::decode(dec)?,
                msgs: Vec::decode(dec)?,
            },
            TAG_BATCH => {
                let len = dec.read_seq_len()?;
                // An empty or oversized batch never leaves a well-behaved
                // sender; treat both as malformed frames.
                if len == 0 || len > MAX_BATCH_LEN {
                    return Err(CdrError::BadDiscriminant(u32::from(TAG_BATCH)));
                }
                let mut msgs = Vec::with_capacity(len.min(64));
                for _ in 0..len {
                    let m = GcsMessage::decode(dec)?;
                    // Nesting would allow unbounded recursion on hostile
                    // input; one level is all the send path produces.
                    if matches!(m, GcsMessage::Batch(_)) {
                        return Err(CdrError::BadDiscriminant(u32::from(TAG_BATCH)));
                    }
                    msgs.push(m);
                }
                GcsMessage::Batch(msgs)
            }
            other => return Err(CdrError::BadDiscriminant(u32::from(other))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId::from_index(i)
    }

    fn sample_data() -> DataMsg {
        DataMsg {
            group: GroupId::new("g"),
            view: ViewId(3),
            sender: n(2),
            seq: 17,
            lamport: 99,
            order: DeliveryOrder::Total,
            deps: DepsVector::from_pairs([(n(1), 4), (n(3), 2)]),
            acks: vec![(n(1), 4), (n(2), 17)],
            order_next: 6,
            payload: Bytes::from_static(b"body"),
        }
    }

    #[test]
    fn data_msg_round_trip() {
        let d = sample_data();
        assert_eq!(DataMsg::from_cdr(&d.to_cdr()).unwrap(), d);
    }

    #[test]
    fn all_variants_round_trip() {
        let g = GroupId::new("grp");
        let v = ViewId(5);
        let msgs = vec![
            GcsMessage::Data(Arc::new(sample_data())),
            GcsMessage::Null(NullMsg {
                group: g.clone(),
                view: v,
                sender: n(1),
                lamport: 7,
                last_seq: 4,
                acks: vec![(n(2), 3)],
                order_next: 2,
            }),
            GcsMessage::Nack {
                group: g.clone(),
                view: v,
                from: n(1),
                sender: n(2),
                from_seq: 3,
                to_seq: 6,
            },
            GcsMessage::SeqOrder {
                group: g.clone(),
                view: v,
                sender: n(0),
                lamport: 12,
                start: 8,
                entries: vec![(n(1), 4), (n(2), 2)],
            },
            GcsMessage::OrderNack {
                group: g.clone(),
                view: v,
                from: n(3),
                from_order_seq: 5,
            },
            GcsMessage::Join {
                group: g.clone(),
                joiner: n(9),
            },
            GcsMessage::Leave {
                group: g.clone(),
                view: v,
                leaver: n(4),
            },
            GcsMessage::Suspect {
                group: g.clone(),
                view: v,
                from: n(1),
                suspects: vec![n(2)],
                joiners: vec![n(9)],
            },
            GcsMessage::Propose {
                group: g.clone(),
                attempt: 2,
                coordinator: n(0),
                candidates: vec![n(0), n(1)],
                old_view: v,
                coord_contig: vec![(n(0), 9)],
            },
            GcsMessage::StateResp {
                group: g.clone(),
                attempt: 2,
                from: n(1),
                contig: vec![(n(0), 9), (n(1), 2)],
                msgs: vec![Arc::new(sample_data())],
            },
            GcsMessage::Install {
                group: g.clone(),
                attempt: 2,
                view: View::new(g.clone(), ViewId(6), vec![n(0), n(1)]),
                msgs: vec![Arc::new(sample_data())],
            },
        ];
        for m in msgs {
            let b = m.to_cdr();
            assert_eq!(GcsMessage::from_cdr(&b).unwrap(), m, "variant {}", m.kind());
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut enc = CdrEncoder::new();
        enc.write_u8(200);
        assert!(GcsMessage::from_cdr(&enc.finish()).is_err());
    }

    #[test]
    fn batch_round_trips_and_spans_groups() {
        let b = GcsMessage::Batch(vec![
            GcsMessage::Data(Arc::new(sample_data())),
            GcsMessage::Null(NullMsg {
                group: GroupId::new("other"),
                view: ViewId(2),
                sender: n(4),
                lamport: 8,
                last_seq: 1,
                acks: vec![],
                order_next: 1,
            }),
        ]);
        assert_eq!(GcsMessage::from_cdr(&b.to_cdr()).unwrap(), b);
        assert_eq!(b.group(), None);
        assert_eq!(b.kind(), "batch");
    }

    #[test]
    fn empty_and_nested_batches_are_rejected() {
        let empty = GcsMessage::Batch(vec![]);
        assert!(GcsMessage::from_cdr(&empty.to_cdr()).is_err());
        let nested = GcsMessage::Batch(vec![GcsMessage::Batch(vec![GcsMessage::Data(Arc::new(
            sample_data(),
        ))])]);
        assert!(GcsMessage::from_cdr(&nested.to_cdr()).is_err());
    }

    #[test]
    fn oversized_batch_length_is_rejected() {
        let mut enc = CdrEncoder::new();
        enc.write_u8(11);
        enc.write_seq_len(MAX_BATCH_LEN + 1);
        assert!(GcsMessage::from_cdr(&enc.finish()).is_err());
    }

    proptest! {
        #[test]
        fn prop_data_round_trip(
            seq in 1u64..1_000_000,
            lamport in 0u64..1_000_000,
            total in any::<bool>(),
            deps in proptest::collection::vec((0u32..16, 1u64..100), 0..8),
            payload in proptest::collection::vec(any::<u8>(), 0..128),
        ) {
            let d = DataMsg {
                group: GroupId::new("p"),
                view: ViewId(1),
                sender: n(0),
                seq,
                lamport,
                order: if total { DeliveryOrder::Total } else { DeliveryOrder::Causal },
                deps: DepsVector::from_pairs(deps.iter().map(|&(i, s)| (n(i), s))),
                acks: vec![],
                order_next: 1,
                payload: Bytes::from(payload),
            };
            prop_assert_eq!(DataMsg::from_cdr(&d.to_cdr()).unwrap(), d);
        }

        #[test]
        fn prop_decoder_survives_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
            // The property is only that decoding garbage returns rather
            // than panics; which way it returns does not matter.
            #[allow(clippy::let_underscore_must_use)]
            let _ = GcsMessage::from_cdr(&bytes);
        }
    }
}

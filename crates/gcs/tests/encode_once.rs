//! Byte-identity of the encode-once fan-out path.
//!
//! The hot path CDR-encodes a [`GcsMessage`] exactly once and hands the
//! same refcounted GIOP frame to every recipient. This property pins
//! down the invariant that matters for correctness: the shared frame is
//! byte-for-byte what each recipient would have received had the sender
//! encoded per recipient, for arbitrary messages and group sizes.

use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use newtop_gcs::clock::DepsVector;
use newtop_gcs::group::{DeliveryOrder, GroupId};
use newtop_gcs::messages::{DataMsg, GcsMessage, NullMsg};
use newtop_gcs::view::ViewId;
use newtop_gcs::{GCS_OPERATION, NSO_OBJECT_KEY};
use newtop_net::sim::Outbox;
use newtop_net::site::NodeId;
use newtop_orb::cdr::{CdrDecode, CdrEncode};
use newtop_orb::giop::GiopMessage;
use newtop_orb::ior::ObjectKey;
use newtop_orb::orb::OrbCore;

fn n(i: u32) -> NodeId {
    NodeId::from_index(i)
}

/// Builds one of the three message kinds the steady-state hot path
/// multicasts — data, heartbeat, or NACK — from raw generated inputs.
fn build_message(
    kind: u32,
    sender: u32,
    seq: u64,
    lamport: u64,
    causal: bool,
    payload: Vec<u8>,
    deps: Vec<(u32, u64)>,
) -> GcsMessage {
    match kind {
        0 => GcsMessage::Data(Arc::new(DataMsg {
            group: GroupId::new("prop"),
            view: ViewId(7),
            sender: n(sender),
            seq,
            lamport,
            order: if causal {
                DeliveryOrder::Causal
            } else {
                DeliveryOrder::Total
            },
            deps: DepsVector::from_pairs(deps.into_iter().map(|(q, p)| (n(q), p))),
            acks: vec![(n(sender), seq.saturating_sub(1))],
            order_next: 1,
            payload: Bytes::from(payload),
        })),
        1 => GcsMessage::Null(NullMsg {
            group: GroupId::new("prop"),
            view: ViewId(7),
            sender: n(sender),
            lamport,
            last_seq: seq,
            acks: vec![],
            order_next: 1,
        }),
        _ => GcsMessage::Nack {
            group: GroupId::new("prop"),
            view: ViewId(7),
            from: n(sender),
            sender: n(sender.wrapping_add(1) % 8),
            from_seq: seq,
            to_seq: seq + lamport % 50,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any message and group size, the frame every recipient gets from
    /// the encode-once fan-out is byte-identical to a per-recipient
    /// `GiopMessage::Request { .. }.to_frame()` encode — and all
    /// recipients share one allocation.
    #[test]
    fn prop_shared_frame_is_byte_identical_to_per_recipient_encode(
        kind in 0u32..3,
        sender in 0u32..8,
        seq in 1u64..1000,
        lamport in 1u64..1000,
        causal in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..4096),
        deps in proptest::collection::vec((0u32..8, 0u64..100), 0..4),
        group_size in 1usize..12,
    ) {
        let msg = build_message(kind, sender, seq, lamport, causal, payload, deps);
        let mut orb = OrbCore::new(n(0));
        let mut out = Outbox::detached(0);
        let targets: Vec<NodeId> = (1..=group_size as u32).map(n).collect();
        let body = msg.to_cdr();
        let sent = orb.oneway_fanout(
            targets.clone(),
            &ObjectKey::new(NSO_OBJECT_KEY),
            GCS_OPERATION,
            &body,
            &mut out,
        );
        prop_assert_eq!(sent, group_size as u64);

        // What a naive per-recipient encoder would have produced. The
        // fan-out consumed request id 1 (fresh ORB).
        let reference = GiopMessage::Request {
            request_id: 1,
            object_key: ObjectKey::new(NSO_OBJECT_KEY),
            operation: GCS_OPERATION.to_owned(),
            response_expected: false,
            body: body.clone(),
        }
        .to_frame();

        let parts = out.into_parts();
        prop_assert_eq!(parts.sends.len(), group_size);
        let first_ptr = parts.sends[0].1.as_ptr();
        for (i, (dst, frame)) in parts.sends.iter().enumerate() {
            prop_assert_eq!(*dst, targets[i]);
            prop_assert_eq!(frame, &reference, "shared frame differs from per-recipient encode");
            prop_assert_eq!(frame.as_ptr(), first_ptr, "recipients must share one allocation");
        }

        // Round-trip: the recipient decodes the identical message.
        let GiopMessage::Request { body: got, .. } = GiopMessage::from_frame(&parts.sends[0].1)
            .expect("decodes")
        else {
            panic!("not a request");
        };
        let back = GcsMessage::from_cdr(&got).expect("body decodes");
        prop_assert_eq!(back, msg);
    }
}

//! Fan-out encode throughput: the encode-once multicast path against the
//! per-recipient baseline it replaced.
//!
//! `encode_once/G` drives the real hot path — one CDR body encode into
//! the ORB's scratch encoder, one GIOP frame, `G` refcount clones —
//! while `per_recipient/G` re-encodes body and frame for every
//! recipient, which is what the code did before this optimisation.
//! Throughput is reported in recipients served, so the two series are
//! directly comparable at each group size.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use newtop_gcs::clock::DepsVector;
use newtop_gcs::group::{DeliveryOrder, GroupId};
use newtop_gcs::messages::{DataMsg, GcsMessage};
use newtop_gcs::view::ViewId;
use newtop_gcs::{GCS_OPERATION, NSO_OBJECT_KEY};
use newtop_net::sim::Outbox;
use newtop_net::site::NodeId;
use newtop_orb::cdr::CdrEncode;
use newtop_orb::giop::GiopMessage;
use newtop_orb::ior::ObjectKey;
use newtop_orb::orb::OrbCore;

fn n(i: u32) -> NodeId {
    NodeId::from_index(i)
}

fn wire_msg(payload_len: usize) -> GcsMessage {
    GcsMessage::Data(
        DataMsg {
            group: GroupId::new("bench"),
            view: ViewId(1),
            sender: n(0),
            seq: 9,
            lamport: 100,
            order: DeliveryOrder::Total,
            deps: DepsVector::from_pairs([(n(1), 8), (n(2), 8)]),
            acks: vec![(n(1), 8), (n(2), 8)],
            order_next: 1,
            payload: Bytes::from(vec![0x5A; payload_len]),
        }
        .into(),
    )
}

fn bench_fanout_encode(c: &mut Criterion) {
    let msg = wire_msg(256);
    for group_size in [2u32, 4, 8, 16] {
        let targets: Vec<NodeId> = (1..=group_size).map(n).collect();
        let mut g = c.benchmark_group("fanout_encode");
        g.throughput(Throughput::Elements(u64::from(group_size)));

        // The hot path: one body encode, one frame, G cheap clones.
        let mut orb = OrbCore::new(n(0));
        g.bench_function(&format!("encode_once/{group_size}"), |b| {
            b.iter(|| {
                let mut out = Outbox::detached(0);
                let enc = orb.scratch_encoder();
                enc.clear();
                msg.encode(enc);
                let body = enc.take_frame();
                orb.oneway_fanout(
                    targets.iter().copied(),
                    &ObjectKey::new(NSO_OBJECT_KEY),
                    GCS_OPERATION,
                    &body,
                    &mut out,
                );
                out.into_parts().sends.len()
            });
        });

        // The replaced baseline: every recipient gets its own body and
        // frame encode.
        g.bench_function(&format!("per_recipient/{group_size}"), |b| {
            b.iter(|| {
                let mut out = Outbox::detached(0);
                for &t in &targets {
                    let frame = GiopMessage::Request {
                        request_id: 1,
                        object_key: ObjectKey::new(NSO_OBJECT_KEY),
                        operation: GCS_OPERATION.to_owned(),
                        response_expected: false,
                        body: msg.to_cdr(),
                    }
                    .to_frame();
                    out.send(t, frame);
                }
                out.into_parts().sends.len()
            });
        });
        g.finish();
    }
}

criterion_group!(benches, bench_fanout_encode);
criterion_main!(benches);

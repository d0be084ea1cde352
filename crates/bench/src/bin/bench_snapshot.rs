//! One-shot performance snapshot for the encode-once fan-out PR.
//!
//! Prints a JSON document with the two numbers the PR's acceptance
//! criteria track:
//!
//! * closed-group LAN request-reply latency (EXPERIMENTS.md anchors:
//!   NewTop LAN call 3.71 ms, closed 1-client 3.2 ms) — regression
//!   guard that the zero-copy refactor did not slow the end-to-end
//!   invocation path;
//! * fan-out encode throughput of the encode-once hot path against the
//!   per-recipient baseline it replaced, over a 5-member group.
//!
//! `scripts/bench_snapshot.sh` redirects this into `BENCH_PR2.json`.
//! `NEWTOP_BENCH_SEED` varies the simulation seed (default 2000).
//!
//! With `--gate` it runs only the LAN cell and exits non-zero if the
//! mean is over the 3.71 ms anchor or if the unloaded run shed any
//! multicast (`scripts/check.sh` runs this as its `bench_gate` step).

use std::time::Instant;

use bytes::Bytes;
use newtop_bench::bench_seed;
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
use newtop_workloads::scenario::{
    run_request_reply, BindingPolicy, Placement, RequestReplyScenario,
};

const GROUP_SIZE: u32 = 5;
const PAYLOAD: usize = 256;
const ITERS: u64 = 200_000;

fn n(i: u32) -> NodeId {
    NodeId::from_index(i)
}

fn wire_msg() -> GcsMessage {
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
            payload: Bytes::from(vec![0x5A; PAYLOAD]),
        }
        .into(),
    )
}

/// Fan-outs per second on the encode-once hot path (one body encode, one
/// frame, `GROUP_SIZE - 1` refcount clones per iteration).
fn measure_encode_once(msg: &GcsMessage) -> f64 {
    let targets: Vec<NodeId> = (1..GROUP_SIZE).map(n).collect();
    let mut orb = OrbCore::new(n(0));
    let mut sink = 0usize;
    let start = Instant::now();
    for _ in 0..ITERS {
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
        sink += out.into_parts().sends.len();
    }
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(sink as u64, ITERS * u64::from(GROUP_SIZE - 1));
    ITERS as f64 / secs
}

/// Fan-outs per second re-encoding body and frame for every recipient —
/// what the code did before this optimisation.
fn measure_per_recipient(msg: &GcsMessage) -> f64 {
    let targets: Vec<NodeId> = (1..GROUP_SIZE).map(n).collect();
    let mut sink = 0usize;
    let start = Instant::now();
    for _ in 0..ITERS {
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
        sink += out.into_parts().sends.len();
    }
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(sink as u64, ITERS * u64::from(GROUP_SIZE - 1));
    ITERS as f64 / secs
}

/// The NewTop LAN call anchor (EXPERIMENTS.md), in milliseconds.
const ANCHOR_MS: f64 = 3.71;

fn main() {
    let seed = bench_seed();
    let gate = std::env::args().skip(1).any(|a| a == "--gate");

    // LAN closed-group invocation latency, 1 client (anchor: 3.2 ms,
    // must stay under the 3.71 ms NewTop LAN anchor).
    let closed = run_request_reply(&RequestReplyScenario {
        binding: BindingPolicy::Closed,
        ..RequestReplyScenario::paper_default(Placement::AllLan, 1, seed)
    });
    let closed_ms = closed.mean_response.as_secs_f64() * 1e3;
    let shed = closed.counts.flow_shed;

    if gate {
        println!(
            "bench_gate: seed {seed} LAN closed call {closed_ms:.3} ms (anchor {ANCHOR_MS} ms), \
             {} calls, {shed} sheds",
            closed.completed
        );
        if closed_ms > ANCHOR_MS || shed > 0 || closed.completed == 0 {
            eprintln!("bench_gate: FAILED");
            std::process::exit(1);
        }
        return;
    }

    let msg = wire_msg();
    let once = measure_encode_once(&msg);
    let per_recipient = measure_per_recipient(&msg);

    println!("{{");
    println!("  \"pr\": 2,");
    println!("  \"seed\": {seed},");
    println!("  \"lan_closed_group\": {{");
    println!("    \"clients\": 1,");
    println!("    \"mean_response_ms\": {closed_ms:.3},");
    println!("    \"completed\": {},", closed.completed);
    println!("    \"flow_shed\": {shed},");
    println!("    \"anchor_ms\": {ANCHOR_MS}");
    println!("  }},");
    println!("  \"fanout_encode\": {{");
    println!("    \"group_size\": {GROUP_SIZE},");
    println!("    \"payload_bytes\": {PAYLOAD},");
    println!("    \"encode_once_fanouts_per_sec\": {once:.0},");
    println!("    \"per_recipient_fanouts_per_sec\": {per_recipient:.0},");
    println!("    \"speedup\": {:.2}", once / per_recipient);
    println!("  }}");
    println!("}}");
}

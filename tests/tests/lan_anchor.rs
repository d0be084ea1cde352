//! The paper's calibration point as a regression test: one client's
//! closed-group call on the LAN (EXPERIMENTS.md anchor: 3.71 ms).
//!
//! Seed 2000, plan: the `bench_snapshot` cell — three active replicas,
//! one client bound closed, `ReplyMode::All`, asymmetric order, the LAN
//! placement's default run. The lone client used to run through its flow
//! window because the silent servers never returned credit; each stall
//! waited out the 100 ms retry and dragged the mean to 6.1 ms.

use newtop_workloads::scenario::{
    run_request_reply, BindingPolicy, Placement, RequestReplyScenario,
};

/// The NewTop LAN call anchor, in milliseconds.
const ANCHOR_MS: f64 = 3.71;

#[test]
fn lan_closed_call_meets_the_anchor_with_no_sheds() {
    let r = run_request_reply(&RequestReplyScenario {
        binding: BindingPolicy::Closed,
        ..RequestReplyScenario::paper_default(Placement::AllLan, 1, 2000)
    });
    let mean_ms = r.mean_response.as_secs_f64() * 1e3;
    assert_eq!(r.counts.flow_shed, 0, "an unloaded client was shed");
    assert!(
        mean_ms <= ANCHOR_MS,
        "LAN closed call averages {mean_ms:.3} ms, over the {ANCHOR_MS} ms anchor"
    );
    assert!(r.completed > 0);
}

//! Flow-credit regressions for a lone sender.
//!
//! Credits in a sender's window come back only on ack vectors, which
//! ride on Data and Null messages. A group with one sender and silent
//! receivers used to starve: the receivers never sent anything carrying
//! an ack, so after `flow_window` multicasts every further send was
//! shed. The ack rule (a receiver that has taken in half a window of
//! others' data sends a standalone ack) ends that; the liveness rule (an
//! event-driven member keeps its timers while it holds unstable data)
//! keeps a crashed member suspectable while the sender is blocked on its
//! frozen ack floor.

use std::time::Duration;

use newtop_gcs::group::{DeliveryOrder, GroupConfig, GroupId};
use newtop_gcs::testkit::GcsHarness;
use newtop_net::sim::SimConfig;
use newtop_net::site::{NodeId, Site};
use newtop_net::time::SimTime;

/// One counter of `node`'s member.
fn counter(h: &GcsHarness, node: NodeId, name: &str) -> u64 {
    h.node(node).gcs().observability().metrics.counter(name)
}

/// Seed 1, plan: an event-driven asymmetric group of four whose
/// time-silence period is far longer than the run, so no time-silence
/// null is ever sent; the last-ranked member (not the sequencer) sends
/// ten windows of multicasts, one a millisecond, and nobody else sends.
#[test]
fn lone_sender_in_a_silent_group_is_never_shed() {
    let mut h = GcsHarness::new(SimConfig::lan(1));
    let roster = h.add_nodes(Site::Newcastle, 4);
    let group = GroupId::new("lone");
    let config = GroupConfig::request_reply().with_time_silence(Duration::from_secs(3_600));
    let window = config.flow_window;
    h.create_group(SimTime::from_millis(1), &group, &config, &roster);
    let sender = roster[3];
    let sends = 10 * window;
    for i in 0..sends {
        h.multicast(
            SimTime::from_millis(10 + i),
            sender,
            &group,
            DeliveryOrder::Total,
            format!("m{i}").into_bytes(),
        );
    }
    h.run_until(SimTime::from_millis(10 + sends + 200));

    let flow = h.node(sender).gcs().flow_of(&group).expect("member");
    assert_eq!(flow.shed_count(), 0, "the lone sender was shed");
    for &m in &roster {
        assert_eq!(
            counter(&h, m, "ev.time_silence_null"),
            0,
            "{m} sent a time-silence null: the run no longer isolates the ack rule"
        );
        let delivered = h.delivered(m, &group);
        assert_eq!(delivered.len() as u64, sends, "{m} missed deliveries");
    }
    // Every receiver returned credit on its own, about once per half
    // window.
    for &m in &roster[..3] {
        assert!(
            counter(&h, m, "gcs.acks_sent") >= sends / (window / 2) - 1,
            "{m} sent too few standalone acks"
        );
    }
}

/// Seed 7, plan: the same group at the default 25 ms time-silence; the
/// lone sender multicasts every millisecond, and a receiver crashes at
/// 300 ms. Within about 64 ms the sender fills its window against the
/// crashed member's frozen ack floor and every further send is shed. The
/// crashed member must still be suspected — by a sender that can send
/// nothing — and the new view must give the sender its credit back.
#[test]
fn crashed_member_is_suspected_while_the_sender_is_credit_blocked() {
    let mut h = GcsHarness::new(SimConfig::lan(7));
    let roster = h.add_nodes(Site::Newcastle, 4);
    let group = GroupId::new("blocked");
    let config = GroupConfig::request_reply();
    h.create_group(SimTime::from_millis(1), &group, &config, &roster);
    let sender = roster[3];
    let crashed = roster[1];
    let until = 2_000;
    for i in 0..until - 10 {
        h.multicast(
            SimTime::from_millis(10 + i),
            sender,
            &group,
            DeliveryOrder::Total,
            format!("m{i}").into_bytes(),
        );
    }
    h.sim.schedule_crash(SimTime::from_millis(300), crashed);
    h.run_until(SimTime::from_millis(until));

    let flow = h.node(sender).gcs().flow_of(&group).expect("member");
    assert!(
        flow.shed_count() > 0,
        "the sender never hit its window: the run does not exercise the stall"
    );
    let views = h.views(sender, &group);
    let last = views.last().expect("views installed");
    assert!(
        !last.contains(crashed),
        "the crashed member was never excluded (views: {views:?})"
    );
    assert!(
        counter(&h, sender, "ev.suspected") + counter(&h, roster[0], "ev.suspected") > 0,
        "no member suspected the crash"
    );
    // With the view changed the sender has credit again: later sends
    // reach the survivors.
    let late = h
        .delivered(roster[2], &group)
        .iter()
        .filter(|(from, _)| *from == sender)
        .count();
    assert!(
        late as u64 > flow.window() + 500,
        "the sender stayed blocked after the view change ({late} delivered)"
    );
}

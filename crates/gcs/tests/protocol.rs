//! End-to-end protocol tests for the group communication service, run on
//! the deterministic simulator via the testkit harness.

use bytes::Bytes;
use newtop_gcs::group::{DeliveryOrder, GroupConfig, GroupId, Liveness, OrderProtocol};
use newtop_gcs::member::GcsOutput;
use newtop_gcs::testkit::GcsHarness;
use newtop_net::sim::SimConfig;
use newtop_net::site::{NodeId, Site};
use newtop_net::time::SimTime;
use proptest::prelude::*;
use std::time::Duration;

fn gid() -> GroupId {
    GroupId::new("g")
}

fn payload(tag: &str, i: usize) -> Bytes {
    Bytes::from(format!("{tag}-{i}"))
}

/// All members deliver the same totally-ordered sequence.
fn assert_same_total_order(h: &GcsHarness, members: &[NodeId], expect_len: usize) {
    let reference = h.delivered(members[0], &gid());
    assert_eq!(
        reference.len(),
        expect_len,
        "member {} delivered {} of {expect_len} (repro: seed={})",
        members[0],
        reference.len(),
        h.seed()
    );
    for &m in &members[1..] {
        let got = h.delivered(m, &gid());
        assert_eq!(
            got,
            reference,
            "delivery sequences diverge at {m} (repro: seed={})",
            h.seed()
        );
    }
}

fn run_burst(
    protocol: OrderProtocol,
    liveness: Liveness,
    n_members: usize,
    msgs_per_member: usize,
    cfg: SimConfig,
) -> (GcsHarness, Vec<NodeId>) {
    let mut h = GcsHarness::new(cfg);
    let members = h.add_nodes(Site::Lan, n_members);
    let config = GroupConfig::default()
        .with_ordering(protocol)
        .with_liveness(liveness)
        .with_time_silence(Duration::from_millis(20));
    h.create_group(SimTime::from_millis(1), &gid(), &config, &members);
    for (mi, &m) in members.iter().enumerate() {
        for i in 0..msgs_per_member {
            let at = SimTime::from_millis(10 + (i as u64) * 7 + mi as u64);
            h.multicast(
                at,
                m,
                &gid(),
                DeliveryOrder::Total,
                payload(&format!("m{mi}"), i),
            );
        }
    }
    h.run_until(SimTime::from_secs(15));
    (h, members)
}

#[test]
fn symmetric_total_order_agrees_across_members() {
    let (h, members) = run_burst(
        OrderProtocol::Symmetric,
        Liveness::Lively,
        4,
        10,
        SimConfig::lan(11),
    );
    assert_same_total_order(&h, &members, 40);
}

#[test]
fn asymmetric_total_order_agrees_across_members() {
    let (h, members) = run_burst(
        OrderProtocol::Asymmetric,
        Liveness::EventDriven,
        4,
        10,
        SimConfig::lan(12),
    );
    assert_same_total_order(&h, &members, 40);
}

#[test]
fn symmetric_event_driven_still_delivers() {
    // Event-driven groups must wake their null machinery on traffic or
    // symmetric delivery would stall.
    let (h, members) = run_burst(
        OrderProtocol::Symmetric,
        Liveness::EventDriven,
        3,
        5,
        SimConfig::lan(13),
    );
    assert_same_total_order(&h, &members, 15);
}

#[test]
fn total_order_survives_message_loss() {
    let mut cfg = SimConfig::lan(14);
    cfg.drop_probability = 0.05;
    let (h, members) = run_burst(OrderProtocol::Symmetric, Liveness::Lively, 3, 12, cfg);
    assert_same_total_order(&h, &members, 36);
}

#[test]
fn asymmetric_survives_message_loss() {
    let mut cfg = SimConfig::lan(15);
    cfg.drop_probability = 0.05;
    let (h, members) = run_burst(OrderProtocol::Asymmetric, Liveness::Lively, 3, 12, cfg);
    assert_same_total_order(&h, &members, 36);
}

#[test]
fn total_order_survives_duplication() {
    let mut cfg = SimConfig::lan(16);
    cfg.duplicate_probability = 0.2;
    let (h, members) = run_burst(OrderProtocol::Symmetric, Liveness::Lively, 3, 10, cfg);
    assert_same_total_order(&h, &members, 30);
}

#[test]
fn causal_multicasts_deliver_everywhere() {
    let mut h = GcsHarness::new(SimConfig::lan(17));
    let members = h.add_nodes(Site::Lan, 3);
    let config = GroupConfig::peer().with_time_silence(Duration::from_millis(20));
    h.create_group(SimTime::from_millis(1), &gid(), &config, &members);
    for i in 0..5 {
        h.multicast(
            SimTime::from_millis(10 + i * 5),
            members[0],
            &gid(),
            DeliveryOrder::Causal,
            payload("c", i as usize),
        );
    }
    h.run_until(SimTime::from_secs(3));
    for &m in &members {
        let got = h.delivered(m, &gid());
        assert_eq!(got.len(), 5, "member {m} (repro: seed={})", h.seed());
        // FIFO from a single sender.
        for (i, (sender, p)) in got.iter().enumerate() {
            assert_eq!(*sender, members[0]);
            assert_eq!(p, &payload("c", i));
        }
    }
}

#[test]
fn crash_triggers_view_change_and_survivors_agree() {
    let mut h = GcsHarness::new(SimConfig::lan(18));
    let members = h.add_nodes(Site::Lan, 4);
    let config = GroupConfig::peer().with_time_silence(Duration::from_millis(20));
    h.create_group(SimTime::from_millis(1), &gid(), &config, &members);
    // Traffic before, during and after the crash.
    for i in 0..20 {
        h.multicast(
            SimTime::from_millis(10 + i * 10),
            members[1],
            &gid(),
            DeliveryOrder::Total,
            payload("pre", i as usize),
        );
    }
    h.sim.schedule_crash(SimTime::from_millis(100), members[3]);
    h.run_until(SimTime::from_secs(10));

    let survivors = &members[..3];
    for &m in survivors {
        let views = h.views(m, &gid());
        let last = views.last().expect("views installed");
        assert_eq!(
            last.len(),
            3,
            "crashed member excluded at {m} (repro: seed={})",
            h.seed()
        );
        assert!(!last.contains(members[3]));
    }
    // Virtual synchrony: all survivors delivered the same sequence.
    let reference = h.delivered(members[0], &gid());
    assert_eq!(reference.len(), 20, "repro: seed={}", h.seed());
    for &m in &survivors[1..] {
        assert_eq!(
            h.delivered(m, &gid()),
            reference,
            "diverges at {m} (repro: seed={})",
            h.seed()
        );
    }
}

#[test]
fn sequencer_crash_elects_replacement_and_recovers() {
    let mut h = GcsHarness::new(SimConfig::lan(19));
    let members = h.add_nodes(Site::Lan, 3);
    // Asymmetric: members[0] (lowest id) is the sequencer.
    let config = GroupConfig::default()
        .with_ordering(OrderProtocol::Asymmetric)
        .with_liveness(Liveness::Lively)
        .with_time_silence(Duration::from_millis(20));
    h.create_group(SimTime::from_millis(1), &gid(), &config, &members);
    for i in 0..10 {
        h.multicast(
            SimTime::from_millis(10 + i * 8),
            members[1],
            &gid(),
            DeliveryOrder::Total,
            payload("a", i as usize),
        );
    }
    h.sim.schedule_crash(SimTime::from_millis(50), members[0]);
    // Post-crash traffic must still get ordered by the new sequencer.
    for i in 0..10 {
        h.multicast(
            SimTime::from_millis(600 + i * 8),
            members[2],
            &gid(),
            DeliveryOrder::Total,
            payload("b", i as usize),
        );
    }
    h.run_until(SimTime::from_secs(10));
    let d1 = h.delivered(members[1], &gid());
    let d2 = h.delivered(members[2], &gid());
    assert_eq!(d1, d2, "survivors agree (repro: seed={})", h.seed());
    // All post-crash messages delivered (pre-crash ones may be partially
    // lost with the sequencer, but whatever survives is common).
    let b_count = d1.iter().filter(|(s, _)| *s == members[2]).count();
    assert_eq!(b_count, 10, "repro: seed={}", h.seed());
    let last_view = h.views(members[1], &gid()).last().unwrap().clone();
    assert_eq!(last_view.sequencer(), Some(members[1]));
}

#[test]
fn graceful_leave_installs_smaller_view() {
    let mut h = GcsHarness::new(SimConfig::lan(20));
    let members = h.add_nodes(Site::Lan, 3);
    let config = GroupConfig::peer().with_time_silence(Duration::from_millis(20));
    h.create_group(SimTime::from_millis(1), &gid(), &config, &members);
    h.leave(SimTime::from_millis(100), members[2], &gid());
    h.run_until(SimTime::from_secs(5));
    for &m in &members[..2] {
        let last = h.views(m, &gid()).last().unwrap().clone();
        assert_eq!(
            last.members(),
            &members[..2],
            "at {m} (repro: seed={})",
            h.seed()
        );
    }
    // The leaver saw its own departure.
    assert!(h
        .node(members[2])
        .outputs
        .iter()
        .any(|(_, o)| matches!(o, newtop_gcs::member::GcsOutput::LeftGroup { .. })));
}

#[test]
fn join_expands_the_view_and_new_member_participates() {
    let mut h = GcsHarness::new(SimConfig::lan(21));
    let members = h.add_nodes(Site::Lan, 3);
    let config = GroupConfig::peer().with_time_silence(Duration::from_millis(20));
    // Only the first two create the group.
    h.create_group(SimTime::from_millis(1), &gid(), &config, &members[..2]);
    h.join(
        SimTime::from_millis(50),
        members[2],
        &gid(),
        &config,
        members[0],
    );
    // Traffic after the join settles.
    for i in 0..5 {
        h.multicast(
            SimTime::from_millis(800 + i * 10),
            members[2],
            &gid(),
            DeliveryOrder::Total,
            payload("j", i as usize),
        );
    }
    h.run_until(SimTime::from_secs(5));
    for &m in &members {
        let last = h.views(m, &gid()).last().unwrap().clone();
        assert_eq!(last.len(), 3, "all three in the view at {m}");
    }
    // Everyone (including the joiner) delivered the joiner's multicasts.
    for &m in &members {
        let from_joiner = h
            .delivered(m, &gid())
            .iter()
            .filter(|(s, _)| *s == members[2])
            .count();
        assert_eq!(from_joiner, 5, "at {m}");
    }
}

#[test]
fn partition_forms_disjoint_views() {
    let mut h = GcsHarness::new(SimConfig::lan(22));
    let members = h.add_nodes(Site::Lan, 4);
    let config = GroupConfig::peer().with_time_silence(Duration::from_millis(20));
    h.create_group(SimTime::from_millis(1), &gid(), &config, &members);
    h.sim.schedule_partition(
        SimTime::from_millis(100),
        vec![vec![members[0], members[1]], vec![members[2], members[3]]],
    );
    h.run_until(SimTime::from_secs(10));
    let side_a = h.views(members[0], &gid()).last().unwrap().clone();
    let side_b = h.views(members[2], &gid()).last().unwrap().clone();
    assert_eq!(side_a.members(), &[members[0], members[1]]);
    assert_eq!(side_b.members(), &[members[2], members[3]]);
}

#[test]
fn overlapping_groups_share_one_member() {
    let ga = GroupId::new("ga");
    let gb = GroupId::new("gb");
    let mut h = GcsHarness::new(SimConfig::lan(23));
    let nodes = h.add_nodes(Site::Lan, 3);
    let config = GroupConfig::peer().with_time_silence(Duration::from_millis(20));
    // Node 1 belongs to both groups (overlapping membership).
    h.create_group(SimTime::from_millis(1), &ga, &config, &nodes[..2]);
    h.create_group(SimTime::from_millis(1), &gb, &config, &nodes[1..]);
    for i in 0..5 {
        h.multicast(
            SimTime::from_millis(20 + i * 9),
            nodes[0],
            &ga,
            DeliveryOrder::Total,
            payload("a", i as usize),
        );
        h.multicast(
            SimTime::from_millis(24 + i * 9),
            nodes[2],
            &gb,
            DeliveryOrder::Total,
            payload("b", i as usize),
        );
    }
    h.run_until(SimTime::from_secs(5));
    assert_eq!(h.delivered(nodes[0], &ga).len(), 5);
    assert_eq!(h.delivered(nodes[1], &ga).len(), 5);
    assert_eq!(h.delivered(nodes[1], &gb).len(), 5);
    assert_eq!(h.delivered(nodes[2], &gb).len(), 5);
    assert_eq!(h.delivered(nodes[0], &ga), h.delivered(nodes[1], &ga));
    assert_eq!(h.delivered(nodes[1], &gb), h.delivered(nodes[2], &gb));
}

/// The paper's overlapping-groups guarantee for groups that come to
/// overlap after start-up. n2 is in `ga` = {n0, n1, n2} and later joins
/// `gb` = {n1, n3} through n3, so `gb` overlaps `ga` beyond the contact
/// (at n1). `ga` is busy and `gb` nearly silent, so a clock private to
/// `gb` would lag far behind `ga`'s. A `gb` multicast n2 sends after
/// delivering `ga` traffic is stamped above that traffic by the node's
/// one Lamport clock, and n1 and n2 (the members of both groups) deliver
/// it after that traffic.
#[test]
fn joined_overlapping_group_keeps_cross_group_causality() {
    const A_SENDS: u64 = 60;
    for ordering in [OrderProtocol::Symmetric, OrderProtocol::Asymmetric] {
        let ga = GroupId::new("ga");
        let gb = GroupId::new("gb");
        let mut h = GcsHarness::new(SimConfig::lan(29));
        let n = h.add_nodes(Site::Lan, 4);
        let busy = GroupConfig::peer()
            .with_ordering(ordering)
            .with_time_silence(Duration::from_millis(20));
        let quiet = busy.clone().with_time_silence(Duration::from_millis(200));
        h.create_group(SimTime::from_millis(1), &ga, &busy, &n[..3]);
        h.create_group(SimTime::from_millis(1), &gb, &quiet, &[n[1], n[3]]);
        h.join(SimTime::from_millis(50), n[2], &gb, &quiet, n[3]);
        // `ga` traffic drives the clock up while the join settles...
        for i in 0..A_SENDS {
            h.multicast(
                SimTime::from_millis(200 + i * 2),
                n[i as usize % 2],
                &ga,
                DeliveryOrder::Total,
                payload("a", i as usize),
            );
        }
        // ...and n2 multicasts in `gb` well after delivering all of it.
        let b_sent_at = SimTime::from_millis(800);
        for i in 0..3 {
            h.multicast(
                b_sent_at + Duration::from_millis(i * 5),
                n[2],
                &gb,
                DeliveryOrder::Total,
                payload("b", i as usize),
            );
        }
        h.run_until(SimTime::from_secs(5));

        let joined = h.views(n[2], &gb).last().cloned().expect("n2 joined gb");
        assert!(
            joined.contains(n[1]) && joined.contains(n[2]),
            "{ordering:?}: gb view {joined}"
        );
        // Precondition: n2 delivered every `ga` message before it sent.
        let delivered_a_at: Vec<SimTime> = h
            .node(n[2])
            .outputs
            .iter()
            .filter_map(|(at, o)| match o {
                GcsOutput::Delivered { group, .. } if *group == ga => Some(*at),
                _ => None,
            })
            .collect();
        assert_eq!(delivered_a_at.len(), A_SENDS as usize, "{ordering:?}");
        assert!(
            delivered_a_at.iter().all(|at| *at < b_sent_at),
            "{ordering:?}: n2 sent in gb before delivering all of ga"
        );

        for &m in &[n[1], n[2]] {
            // (group, Lamport stamp) of every delivery, in delivery order.
            let seq: Vec<(GroupId, u64)> = h
                .node(m)
                .outputs
                .iter()
                .filter_map(|(_, o)| match o {
                    GcsOutput::Delivered { group, lamport, .. } => Some((group.clone(), *lamport)),
                    _ => None,
                })
                .collect();
            let last_a = seq.iter().rposition(|(g, _)| *g == ga);
            let first_b = seq.iter().position(|(g, _)| *g == gb);
            let (Some(last_a), Some(first_b)) = (last_a, first_b) else {
                panic!("{ordering:?}: {m} missed a group's traffic: {seq:?}");
            };
            assert_eq!(
                seq.len(),
                A_SENDS as usize + 3,
                "{ordering:?}: {m} delivered {seq:?}"
            );
            assert!(
                last_a < first_b,
                "{ordering:?}: {m} delivered n2's gb multicast before the ga traffic it followed"
            );
            let max_a = seq.iter().filter(|(g, _)| *g == ga).map(|(_, l)| *l).max();
            let min_b = seq.iter().filter(|(g, _)| *g == gb).map(|(_, l)| *l).min();
            assert!(
                min_b > max_a,
                "{ordering:?}: {m}: gb stamp {min_b:?} not above ga stamp {max_a:?}"
            );
        }
    }
}

#[test]
fn wan_distribution_still_agrees() {
    let mut h = GcsHarness::new(SimConfig::internet(24));
    let a = h.add_nodes(Site::Newcastle, 1)[0];
    let b = h.add_nodes(Site::London, 1)[0];
    let c = h.add_nodes(Site::Pisa, 1)[0];
    let members = vec![a, b, c];
    let config = GroupConfig::peer().with_time_silence(Duration::from_millis(30));
    h.create_group(SimTime::from_millis(1), &gid(), &config, &members);
    for (mi, &m) in members.iter().enumerate() {
        for i in 0..6 {
            h.multicast(
                SimTime::from_millis(20 + i * 15 + mi as u64 * 3),
                m,
                &gid(),
                DeliveryOrder::Total,
                payload(&format!("w{mi}"), i as usize),
            );
        }
    }
    h.run_until(SimTime::from_secs(20));
    assert_same_total_order(&h, &members, 18);
}

#[test]
fn event_driven_group_goes_quiet_after_traffic() {
    let mut h = GcsHarness::new(SimConfig::lan(25));
    let members = h.add_nodes(Site::Lan, 3);
    let config = GroupConfig::request_reply().with_time_silence(Duration::from_millis(20));
    h.create_group(SimTime::from_millis(1), &gid(), &config, &members);
    h.multicast(
        SimTime::from_millis(10),
        members[0],
        &gid(),
        DeliveryOrder::Total,
        payload("x", 0),
    );
    // Run far past delivery: the time-silence machinery must shut down,
    // so the event count stops growing.
    h.run_until(SimTime::from_secs(2));
    let events_at_2s = h.sim.events_processed();
    h.run_until(SimTime::from_secs(20));
    let events_at_20s = h.sim.events_processed();
    assert_eq!(
        events_at_2s, events_at_20s,
        "an event-driven group must quiesce"
    );
    assert_same_total_order(&h, &members, 1);
}

/// An event-driven group that has been quiet for longer than its
/// suspicion timeout keeps its view when a member next multicasts: the
/// restarted failure suspector must not judge peers by arrival times
/// from before the quiet spell.
#[test]
fn event_driven_group_survives_a_send_after_a_long_quiet_spell() {
    let configs = [
        ("request_reply", GroupConfig::request_reply()),
        (
            "peer_event_driven",
            GroupConfig::peer().with_liveness(Liveness::EventDriven),
        ),
    ];
    for (name, config) in configs {
        let mut h = GcsHarness::new(SimConfig::lan(29));
        let members = h.add_nodes(Site::Lan, 3);
        let config = config.with_time_silence(Duration::from_millis(20));
        h.create_group(SimTime::from_millis(1), &gid(), &config, &members);
        h.multicast(
            SimTime::from_millis(800),
            members[0],
            &gid(),
            DeliveryOrder::Total,
            payload("late", 0),
        );
        h.run_until(SimTime::from_secs(3));
        for &m in &members {
            for view in h.views(m, &gid()) {
                assert_eq!(
                    view.len(),
                    3,
                    "{name}: {m} installed {view:?} (repro: seed={})",
                    h.seed()
                );
            }
        }
        assert_same_total_order(&h, &members, 1);
    }
}

#[test]
fn lively_group_keeps_heartbeating() {
    let mut h = GcsHarness::new(SimConfig::lan(26));
    let members = h.add_nodes(Site::Lan, 2);
    let config = GroupConfig::peer().with_time_silence(Duration::from_millis(20));
    h.create_group(SimTime::from_millis(1), &gid(), &config, &members);
    h.run_until(SimTime::from_secs(1));
    let events_1s = h.sim.events_processed();
    h.run_until(SimTime::from_secs(2));
    assert!(
        h.sim.events_processed() > events_1s,
        "lively groups never quiesce"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Under arbitrary loss, duplication and seeds, every member delivers
    /// the identical totally-ordered sequence.
    #[test]
    fn prop_total_order_is_identical_under_faults(
        seed in 0u64..5000,
        drop in 0.0f64..0.15,
        dup in 0.0f64..0.15,
        symmetric in any::<bool>(),
        n_members in 2usize..5,
        msgs in 1usize..8,
    ) {
        let mut cfg = SimConfig::lan(seed);
        cfg.drop_probability = drop;
        cfg.duplicate_probability = dup;
        let protocol = if symmetric { OrderProtocol::Symmetric } else { OrderProtocol::Asymmetric };
        let (h, members) = run_burst(protocol, Liveness::Lively, n_members, msgs, cfg);
        let reference = h.delivered(members[0], &gid());
        prop_assert_eq!(reference.len(), msgs * n_members);
        for &m in &members[1..] {
            prop_assert_eq!(h.delivered(m, &gid()), reference.clone());
        }
    }
}

#[test]
fn two_simultaneous_crashes_leave_an_agreeing_majority() {
    let mut h = GcsHarness::new(SimConfig::lan(27));
    let members = h.add_nodes(Site::Lan, 5);
    let config = GroupConfig::peer().with_time_silence(Duration::from_millis(20));
    h.create_group(SimTime::from_millis(1), &gid(), &config, &members);
    for i in 0..30 {
        h.multicast(
            SimTime::from_millis(10 + i * 8),
            members[(i % 3) as usize],
            &gid(),
            DeliveryOrder::Total,
            payload("m", i as usize),
        );
    }
    // Two members die at the same instant, one of them the sequencer.
    h.sim.schedule_crash(SimTime::from_millis(90), members[0]);
    h.sim.schedule_crash(SimTime::from_millis(90), members[4]);
    h.run_until(SimTime::from_secs(10));

    let survivors = [members[1], members[2], members[3]];
    let reference = h.delivered(survivors[0], &gid());
    for &m in &survivors[1..] {
        assert_eq!(h.delivered(m, &gid()), reference, "survivors agree at {m}");
    }
    for &m in &survivors {
        let last = h.views(m, &gid()).last().unwrap().clone();
        assert_eq!(last.members(), &survivors[..], "final view at {m}");
    }
}

#[test]
fn crash_under_message_loss_still_reaches_agreement() {
    let mut cfg = SimConfig::lan(28);
    cfg.drop_probability = 0.05;
    let mut h = GcsHarness::new(cfg);
    let members = h.add_nodes(Site::Lan, 4);
    let config = GroupConfig::peer().with_time_silence(Duration::from_millis(20));
    h.create_group(SimTime::from_millis(1), &gid(), &config, &members);
    for i in 0..40 {
        h.multicast(
            SimTime::from_millis(10 + i * 6),
            members[(i % 4) as usize],
            &gid(),
            DeliveryOrder::Total,
            payload("x", i as usize),
        );
    }
    h.sim.schedule_crash(SimTime::from_millis(120), members[3]);
    h.run_until(SimTime::from_secs(15));

    let survivors = &members[..3];
    let reference = h.delivered(survivors[0], &gid());
    // Everything from live senders (members 0..2, 30 messages) survives;
    // the crashed member's in-flight messages may or may not, but the
    // survivors must agree on the whole sequence either way.
    let from_live = reference
        .iter()
        .filter(|(s, _)| survivors.contains(s))
        .count();
    assert_eq!(from_live, 30, "no live sender's message lost");
    for &m in &survivors[1..] {
        assert_eq!(h.delivered(m, &gid()), reference, "agreement at {m}");
    }
    for &m in survivors {
        let last = h.views(m, &gid()).last().unwrap().clone();
        assert_eq!(last.len(), 3);
    }
}

#[test]
fn coordinator_crash_during_view_change_recovers() {
    // members[0] is both sequencer and the view-change coordinator.
    // Crash members[3] to start a view change, then kill the coordinator
    // shortly after — the next-ranked member must take over.
    let mut h = GcsHarness::new(SimConfig::lan(29));
    let members = h.add_nodes(Site::Lan, 4);
    let config = GroupConfig::peer().with_time_silence(Duration::from_millis(20));
    h.create_group(SimTime::from_millis(1), &gid(), &config, &members);
    for i in 0..10 {
        h.multicast(
            SimTime::from_millis(10 + i * 8),
            members[1],
            &gid(),
            DeliveryOrder::Total,
            payload("c", i as usize),
        );
    }
    h.sim.schedule_crash(SimTime::from_millis(100), members[3]);
    // Suspicion timeout is 20ms * 14 = 280ms; the change starts around
    // t=380ms. Kill the coordinator just after it begins.
    h.sim.schedule_crash(SimTime::from_millis(390), members[0]);
    h.run_until(SimTime::from_secs(15));

    let survivors = [members[1], members[2]];
    for &m in &survivors {
        let last = h.views(m, &gid()).last().unwrap().clone();
        assert_eq!(last.members(), &survivors[..], "at {m}");
    }
    assert_eq!(
        h.delivered(survivors[0], &gid()),
        h.delivered(survivors[1], &gid())
    );
}

#[test]
fn sequencer_kill_mid_stream_preserves_total_order_prefix() {
    // Regression for the campaign's seq-kill cell: under the asymmetric
    // protocol, killing the sequencer while total-order traffic is in
    // flight must leave the survivors in agreement after the view
    // change — pairwise, one delivery sequence is a prefix of the other,
    // and the stream sent after the change is fully delivered.
    use newtop_net::faults::FaultPlan;

    let mut h = GcsHarness::new(SimConfig::lan(30));
    let members = h.add_nodes(Site::Lan, 4);
    let config = GroupConfig::default()
        .with_ordering(OrderProtocol::Asymmetric)
        .with_liveness(Liveness::Lively)
        .with_time_silence(Duration::from_millis(20));
    h.create_group(SimTime::from_millis(1), &gid(), &config, &members);
    let plan = FaultPlan::named("seq-kill").kill_sequencer(Duration::from_millis(80));
    plan.apply(&mut h.sim, &members);
    // Streams from two senders straddle the kill; a third starts only
    // after the replacement sequencer must be in charge.
    for i in 0..12 {
        h.multicast(
            SimTime::from_millis(10 + i * 12),
            members[1],
            &gid(),
            DeliveryOrder::Total,
            payload("a", i as usize),
        );
        h.multicast(
            SimTime::from_millis(14 + i * 12),
            members[2],
            &gid(),
            DeliveryOrder::Total,
            payload("b", i as usize),
        );
    }
    for i in 0..8 {
        h.multicast(
            SimTime::from_millis(600 + i * 10),
            members[3],
            &gid(),
            DeliveryOrder::Total,
            payload("post", i as usize),
        );
    }
    h.run_until(SimTime::from_secs(10));

    let repro = format!("seed={} plan \"{plan}\"", h.seed());
    let survivors = &members[1..];
    for &m in survivors {
        let last = h.views(m, &gid()).last().unwrap().clone();
        assert_eq!(last.members(), survivors, "post-kill view at {m} ({repro})");
    }
    let seqs: Vec<_> = survivors.iter().map(|&m| h.delivered(m, &gid())).collect();
    for (i, a) in seqs.iter().enumerate() {
        for b in &seqs[i + 1..] {
            let shorter = a.len().min(b.len());
            assert_eq!(
                &a[..shorter],
                &b[..shorter],
                "total-order prefixes diverge ({repro})"
            );
        }
    }
    // Everything multicast after the view change is delivered everywhere.
    for (&m, seq) in survivors.iter().zip(&seqs) {
        let post = seq.iter().filter(|(s, _)| *s == members[3]).count();
        assert_eq!(post, 8, "post-change stream incomplete at {m} ({repro})");
    }
}

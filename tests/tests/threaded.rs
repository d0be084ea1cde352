//! The threaded runtime over real transports: the same NSO state machines
//! exercised with actual threads, wall-clock timers, and TCP sockets.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use newtop::nso::{BindOptions, GroupHandle, NsoOutput};
use newtop_gcs::group::{DeliveryOrder, GroupConfig, GroupId, Liveness};
use newtop_invocation::api::{OpenOptimisation, Replication, ReplyMode};
use newtop_net::channel::ChannelNetwork;
use newtop_net::site::NodeId;
use newtop_net::tcp::TcpEndpoint;
use newtop_net::transport::{TransportError, WireTransport};
use newtop_rt::{NodeHandle, NodeRuntime, RuntimeOptions};

fn spawn_channel_cluster(n: usize) -> Vec<NodeHandle> {
    let net = ChannelNetwork::new();
    (0..n)
        .map(|i| {
            let id = NodeId::from_index(i as u32);
            let (transport, rx) = net.endpoint(id);
            NodeRuntime::spawn(transport, rx, RuntimeOptions::new())
        })
        .collect()
}

fn setup_service(nodes: &[NodeHandle], servers: &[NodeId], group: &GroupId) {
    for handle in &nodes[..servers.len()] {
        let group = group.clone();
        let members = servers.to_vec();
        handle.with_nso(move |nso, now, out| {
            nso.create_server_group(
                group.clone(),
                members,
                Replication::Active,
                OpenOptimisation::None,
                GroupConfig::request_reply(),
                now,
                out,
            )
            .unwrap();
            let me = nso.node().index();
            nso.register_group_servant(
                group,
                Box::new(move |op: &str, _: &[u8]| Bytes::from(format!("{op}#{me}"))),
            );
        });
    }
}

fn bind_and_invoke(
    client: &NodeHandle,
    group: &GroupId,
    servers: Vec<NodeId>,
    open: bool,
) -> usize {
    let g = group.clone();
    client.with_nso(move |nso, now, out| {
        let opts = if open {
            BindOptions::open(servers[0])
        } else {
            BindOptions::closed(servers)
        };
        nso.bind(g, opts, now, out).unwrap();
    });
    let ready = client
        .wait_for_output(Duration::from_secs(15), |o| {
            matches!(o, NsoOutput::BindingReady { .. })
        })
        .expect("binding established");
    let NsoOutput::BindingReady { group: binding } = ready else {
        unreachable!()
    };
    client.with_nso(move |nso, now, out| {
        let binding = nso.handle_for(&binding).unwrap();
        binding
            .invoke(nso, "hello", Bytes::new(), ReplyMode::All, now, out)
            .unwrap();
    });
    let done = client
        .wait_for_output(Duration::from_secs(15), |o| {
            matches!(o, NsoOutput::InvocationComplete { .. })
        })
        .expect("invocation completed");
    let NsoOutput::InvocationComplete { replies, .. } = done else {
        unreachable!()
    };
    replies.len()
}

#[test]
fn open_invocation_over_channel_transport() {
    let nodes = spawn_channel_cluster(4);
    let servers: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
    let group = GroupId::new("threaded-svc");
    setup_service(&nodes, &servers, &group);
    assert_eq!(bind_and_invoke(&nodes[3], &group, servers, true), 3);
    for n in nodes {
        n.shutdown();
    }
}

#[test]
fn closed_invocation_over_channel_transport() {
    let nodes = spawn_channel_cluster(3);
    let servers: Vec<NodeId> = (0..2).map(NodeId::from_index).collect();
    let group = GroupId::new("threaded-closed");
    setup_service(&nodes, &servers, &group);
    assert_eq!(bind_and_invoke(&nodes[2], &group, servers, false), 2);
    for n in nodes {
        n.shutdown();
    }
}

#[test]
fn request_reply_over_real_tcp_sockets() {
    // Three nodes on localhost TCP: 2 servers + 1 client.
    let ids: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
    let mut endpoints = Vec::new();
    let mut rxs = Vec::new();
    for &id in &ids {
        let (tx, rx) =
            newtop_flow::queue::bounded(newtop_flow::FlowConfig::default().queue_capacity);
        let ep = TcpEndpoint::bind(id, "127.0.0.1:0".parse().unwrap(), tx).unwrap();
        endpoints.push(ep);
        rxs.push(rx);
    }
    let addrs: Vec<_> = endpoints.iter().map(TcpEndpoint::local_addr).collect();
    for ep in &endpoints {
        for (&id, &addr) in ids.iter().zip(addrs.iter()) {
            ep.register_peer(id, addr);
        }
    }
    let nodes: Vec<NodeHandle> = endpoints
        .iter()
        .zip(rxs)
        .map(|(ep, rx)| NodeRuntime::spawn(ep.handle(), rx, RuntimeOptions::new()))
        .collect();

    let servers = vec![ids[0], ids[1]];
    let group = GroupId::new("tcp-svc");
    setup_service(&nodes, &servers, &group);
    assert_eq!(bind_and_invoke(&nodes[2], &group, servers, true), 2);
    for n in nodes {
        n.shutdown();
    }
    for mut ep in endpoints {
        ep.shutdown();
    }
}

/// A transport that counts the frames it sends.
struct Counted<T> {
    inner: T,
    frames: Arc<AtomicU64>,
}

impl<T: WireTransport> WireTransport for Counted<T> {
    fn local(&self) -> NodeId {
        self.inner.local()
    }

    fn send(&self, dst: NodeId, payload: Bytes) -> Result<(), TransportError> {
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.inner.send(dst, payload)
    }
}

/// Spawns `n` nodes over loopback TCP, every node knowing every other.
fn spawn_tcp_cluster(n: u32) -> (Vec<NodeHandle>, Vec<TcpEndpoint>) {
    let (nodes, endpoints, _) = spawn_counted_tcp_cluster(n);
    (nodes, endpoints)
}

/// Like [`spawn_tcp_cluster`], plus each node's count of frames sent.
fn spawn_counted_tcp_cluster(n: u32) -> (Vec<NodeHandle>, Vec<TcpEndpoint>, Vec<Arc<AtomicU64>>) {
    let ids: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
    let mut endpoints = Vec::new();
    let mut rxs = Vec::new();
    for &id in &ids {
        let (tx, rx) =
            newtop_flow::queue::bounded(newtop_flow::FlowConfig::default().queue_capacity);
        let ep = TcpEndpoint::bind(id, "127.0.0.1:0".parse().unwrap(), tx).unwrap();
        endpoints.push(ep);
        rxs.push(rx);
    }
    let addrs: Vec<_> = endpoints.iter().map(TcpEndpoint::local_addr).collect();
    for ep in &endpoints {
        for (&id, &addr) in ids.iter().zip(addrs.iter()) {
            ep.register_peer(id, addr);
        }
    }
    let frames: Vec<Arc<AtomicU64>> = ids.iter().map(|_| Arc::default()).collect();
    let nodes = endpoints
        .iter()
        .zip(rxs)
        .zip(&frames)
        .map(|((ep, rx), frames)| {
            let transport = Counted {
                inner: ep.handle(),
                frames: Arc::clone(frames),
            };
            NodeRuntime::spawn(transport, rx, RuntimeOptions::new())
        })
        .collect();
    (nodes, endpoints, frames)
}

fn shutdown(nodes: Vec<NodeHandle>, endpoints: Vec<TcpEndpoint>) {
    for n in nodes {
        n.shutdown();
    }
    for mut ep in endpoints {
        ep.shutdown();
    }
}

/// Creates an event-driven peer group of `members` (the first nodes of
/// `nodes`), which falls quiet once its traffic stops.
fn create_quiet_peer_group(nodes: &[NodeHandle], members: &[NodeId], group: &GroupId) {
    for handle in &nodes[..members.len()] {
        let group = group.clone();
        let members = members.to_vec();
        handle.with_nso(move |nso, now, out| {
            let config = GroupConfig::peer().with_liveness(Liveness::EventDriven);
            nso.create_peer_group(group, members, config, now, out)
                .unwrap();
        });
    }
}

/// Multicasts sent back to back in one command share the turn that ran
/// the command, so each destination gets them in fewer frames than
/// messages, and they still arrive in send order.
#[test]
fn burst_of_multicasts_leaves_in_fewer_frames_than_messages() {
    let (nodes, endpoints, frames) = spawn_counted_tcp_cluster(3);
    let members: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
    let group = GroupId::new("burst");
    create_quiet_peer_group(&nodes, &members, &group);
    // Let the group's creation traffic settle.
    std::thread::sleep(Duration::from_millis(300));
    const BURST: u32 = 16;
    let sender = &nodes[0];
    let before = sender.with_nso(|nso, _, _| nso.metrics());
    let frames_before = frames[0].load(Ordering::Relaxed);
    let g = group.clone();
    sender.with_nso(move |nso, now, out| {
        let peer = nso.handle_for(&g).unwrap();
        for i in 0..BURST {
            let payload = Bytes::from(i.to_be_bytes().to_vec());
            peer.send(nso, payload, DeliveryOrder::Total, now, out)
                .unwrap();
        }
    });
    for handle in &nodes {
        for i in 0..BURST {
            let o = handle
                .wait_for_output(Duration::from_secs(15), |o| {
                    matches!(o, NsoOutput::PeerDeliver { .. })
                })
                .unwrap_or_else(|| panic!("{}: multicast {i} not delivered", handle.node()));
            let NsoOutput::PeerDeliver { payload, .. } = o else {
                unreachable!()
            };
            assert_eq!(payload[..], i.to_be_bytes(), "{}", handle.node());
        }
    }
    let after = sender.with_nso(|nso, _, _| nso.metrics());
    let delta = |name: &str| after.counter(name) - before.counter(name);
    let sent_frames = frames[0].load(Ordering::Relaxed) - frames_before;
    assert!(delta("gcs.batch_frames") > 0, "no batch frame sent");
    assert!(delta("gcs.batch_msgs") >= u64::from(BURST));
    // Two remote members receive every multicast (the loopback copy
    // goes over TCP too); acknowledgements and order traffic that
    // followed are counted in both totals.
    assert!(
        sent_frames < delta("gcs.msgs_sent"),
        "{sent_frames} frames for {} messages",
        delta("gcs.msgs_sent")
    );
    shutdown(nodes, endpoints);
}

/// A lone call leaves without waiting for any timer: the request sits in
/// the send buffer only until the turn that issued it ends, and the
/// invoke queues no timer shorter than the group's time-silence period
/// (the liveness timers), so nothing else could release it.
#[test]
fn lone_call_completes_with_no_send_path_timer() {
    let (nodes, endpoints) = spawn_tcp_cluster(4);
    let servers: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
    let group = GroupId::new("tcp-lone");
    setup_service(&nodes, &servers, &group);
    let client = &nodes[3];
    let g = group.clone();
    let opts = BindOptions::closed(servers);
    let time_silence = opts.time_silence;
    let binding = client.with_nso(move |nso, now, out| nso.bind(g, opts, now, out).unwrap());
    client
        .wait_for_output(Duration::from_secs(15), |o| {
            matches!(o, NsoOutput::BindingReady { .. })
        })
        .expect("binding established");
    for i in 0..3 {
        let b = binding.clone();
        let (call, staged, timers) = client.with_nso(move |nso, now, out| {
            let call = b
                .invoke(nso, "call", Bytes::new(), ReplyMode::All, now, out)
                .unwrap();
            let timers: Vec<(Duration, u64)> = out.pending_timers().collect();
            (call, nso.has_staged_sends(), timers)
        });
        assert!(staged, "call {i}: the request was not staged");
        for (delay, tag) in timers {
            assert!(
                delay >= time_silence,
                "call {i}: the invoke queued a {delay:?} timer (tag {tag:#x})"
            );
        }
        let done = client
            .wait_for_output(
                Duration::from_secs(5),
                |o| matches!(o, NsoOutput::InvocationComplete { call: c, .. } if *c == call),
            )
            .unwrap_or_else(|| panic!("call {i} did not complete"));
        let NsoOutput::InvocationComplete { replies, .. } = done else {
            unreachable!()
        };
        assert_eq!(replies.len(), 3, "call {i}");
    }
    shutdown(nodes, endpoints);
}

/// Once a node's loop has nothing left to handle, it has flushed: no
/// send stays staged on any node of a cluster gone quiet after a call
/// and a multicast burst.
#[test]
fn nothing_stays_staged_once_the_loop_is_idle() {
    let (nodes, endpoints) = spawn_tcp_cluster(4);
    let servers: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
    let service = GroupId::new("tcp-idle-svc");
    setup_service(&nodes, &servers, &service);
    assert_eq!(
        bind_and_invoke(&nodes[3], &service, servers.clone(), false),
        3
    );
    let peers = GroupId::new("tcp-idle-peers");
    create_quiet_peer_group(&nodes, &servers, &peers);
    for handle in &nodes[..3] {
        let g = peers.clone();
        handle.with_nso(move |nso, now, out| {
            let peer = nso.handle_for(&g).unwrap();
            for _ in 0..4 {
                peer.send(
                    nso,
                    Bytes::from_static(b"x"),
                    DeliveryOrder::Total,
                    now,
                    out,
                )
                .unwrap();
            }
        });
    }
    for handle in &nodes[..3] {
        for _ in 0..12 {
            handle
                .wait_for_output(Duration::from_secs(15), |o| {
                    matches!(o, NsoOutput::PeerDeliver { .. })
                })
                .expect("peer delivery");
        }
    }
    // Past every event-driven group's linger: the cluster is quiet, so
    // each loop is blocked and the command below starts a fresh turn.
    std::thread::sleep(Duration::from_secs(1));
    for handle in &nodes {
        let staged = handle.with_nso(|nso, _, _| nso.has_staged_sends());
        assert!(!staged, "{} kept sends staged while idle", handle.node());
    }
    shutdown(nodes, endpoints);
}

/// A lone client's closed binding to three replicas over TCP: four flow
/// windows of sequential calls, none retried, each complete within
/// 50 ms. Before receivers returned credit on their own, the client ran
/// out of credit after one window and each later call stalled until a
/// null or a retry (100–240 ms), or — the shed being silent — forever.
#[test]
fn closed_binding_sustains_sequential_calls_without_credit_stalls() {
    let (nodes, endpoints) = spawn_tcp_cluster(4);
    let servers: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
    let group = GroupId::new("tcp-closed");
    setup_service(&nodes, &servers, &group);
    let client = &nodes[3];
    let g = group.clone();
    let binding = client.with_nso(move |nso, now, out| {
        nso.bind(g, BindOptions::closed(servers), now, out).unwrap()
    });
    client
        .wait_for_output(Duration::from_secs(15), |o| {
            matches!(o, NsoOutput::BindingReady { .. })
        })
        .expect("binding established");
    let calls = 4 * GroupConfig::request_reply().flow_window;
    for i in 0..calls {
        let b = binding.clone();
        let issued = std::time::Instant::now();
        let call = client
            .with_nso(move |nso, now, out| {
                b.invoke(nso, "call", Bytes::new(), ReplyMode::All, now, out)
            })
            .unwrap_or_else(|e| panic!("call {i} refused: {e}"));
        let done = client
            .wait_for_output(
                Duration::from_millis(50),
                |o| matches!(o, NsoOutput::InvocationComplete { call: c, .. } if *c == call),
            )
            .unwrap_or_else(|| panic!("call {i} not complete within 50 ms"));
        let NsoOutput::InvocationComplete { replies, .. } = done else {
            unreachable!()
        };
        assert_eq!(replies.len(), 3, "call {i}");
        assert!(issued.elapsed() < Duration::from_millis(50), "call {i}");
    }
    let shed = client.with_nso(|nso, _, _| nso.metrics().counter("flow.shed"));
    assert_eq!(shed, 0);
    for n in nodes {
        n.shutdown();
    }
    for mut ep in endpoints {
        ep.shutdown();
    }
}

/// Sums the `gcs.engine_retained` gauge over `nodes`.
fn engine_retained(nodes: &[NodeHandle]) -> i64 {
    nodes
        .iter()
        .map(|n| {
            n.with_nso(|nso, _, _| nso.metrics().gauges.get("gcs.engine_retained").copied())
                .expect("gauge reported")
        })
        .sum()
}

/// Issues `calls` sequential closed calls and waits for each.
fn run_calls(client: &NodeHandle, binding: &GroupHandle, calls: u64) {
    for i in 0..calls {
        let b = binding.clone();
        let call = client
            .with_nso(move |nso, now, out| {
                b.invoke(nso, "call", Bytes::new(), ReplyMode::All, now, out)
            })
            .unwrap_or_else(|e| panic!("call {i} refused: {e}"));
        client
            .wait_for_output(
                Duration::from_secs(10),
                |o| matches!(o, NsoOutput::InvocationComplete { call: c, .. } if *c == call),
            )
            .unwrap_or_else(|| panic!("call {i} did not complete"));
    }
}

/// What the delivery engines hold — buffered messages and the
/// asymmetric order log — does not grow with the number of calls
/// served: a run ten times longer ends with no more retained than a
/// flow window per group member, as the short run does. Without the
/// order-log trimming every member keeps every order position, and the
/// short run alone breaks the bound.
#[test]
fn engine_memory_stays_flat_over_a_ten_times_longer_run() {
    let (nodes, endpoints) = spawn_tcp_cluster(4);
    let servers: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
    let group = GroupId::new("tcp-flat");
    setup_service(&nodes, &servers, &group);
    let client = &nodes[3];
    let g = group.clone();
    let binding = client.with_nso(move |nso, now, out| {
        nso.bind(g, BindOptions::closed(servers), now, out).unwrap()
    });
    client
        .wait_for_output(Duration::from_secs(15), |o| {
            matches!(o, NsoOutput::BindingReady { .. })
        })
        .expect("binding established");
    let window = GroupConfig::request_reply().flow_window;
    run_calls(client, &binding, 2 * window);
    let short = engine_retained(&nodes);
    run_calls(client, &binding, 20 * window);
    let long = engine_retained(&nodes);
    // Four members, each holding at most about a window of each
    // sender's messages and of order records.
    let bound = i64::try_from(4 * 2 * window).unwrap();
    assert!(short <= bound, "short run retains {short} > {bound}");
    assert!(
        long <= bound,
        "10x longer run retains {long} > {bound} (short: {short})"
    );
    for n in nodes {
        n.shutdown();
    }
    for mut ep in endpoints {
        ep.shutdown();
    }
}

/// Default runtime nodes over TCP: one sender's causal multicasts,
/// spread round-robin over four peer groups on each node's one protocol
/// engine, reach every member in the order they were sent, and closed
/// calls to a replicated service complete.
#[test]
fn multi_group_nodes_over_tcp_keep_per_source_fifo_and_complete_calls() {
    let (nodes, endpoints) = spawn_tcp_cluster(4);
    let members: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
    let groups: Vec<GroupId> = (0..4).map(|i| GroupId::new(format!("fifo-{i}"))).collect();
    for handle in &nodes[..3] {
        for group in &groups {
            let group = group.clone();
            let members = members.clone();
            handle.with_nso(move |nso, now, out| {
                nso.create_peer_group(group, members, GroupConfig::peer(), now, out)
                    .unwrap();
            });
        }
    }
    let sender = &nodes[0];
    for group in &groups {
        let g = group.clone();
        sender.with_nso(move |nso, now, out| {
            let peer = nso.handle_for(&g).unwrap();
            peer.send(
                nso,
                Bytes::from_static(b"warm-up"),
                DeliveryOrder::Causal,
                now,
                out,
            )
            .unwrap();
        });
    }
    const SENDS: u32 = 128;
    for i in 0..SENDS {
        let g = groups[i as usize % groups.len()].clone();
        sender.with_nso(move |nso, now, out| {
            let peer = nso.handle_for(&g).unwrap();
            peer.send(
                nso,
                Bytes::from(i.to_be_bytes().to_vec()),
                DeliveryOrder::Causal,
                now,
                out,
            )
            .unwrap();
        });
    }
    for handle in &nodes[1..3] {
        let mut next = 0u32;
        while next < SENDS {
            let o = handle
                .wait_for_output(
                    Duration::from_secs(15),
                    |o| matches!(o, NsoOutput::PeerDeliver { payload, .. } if payload.len() == 4),
                )
                .unwrap_or_else(|| panic!("{}: multicast {next} not delivered", handle.node()));
            let NsoOutput::PeerDeliver { group, payload, .. } = o else {
                unreachable!()
            };
            let got = u32::from_be_bytes(payload[..].try_into().unwrap());
            assert_eq!(got, next, "{}: out of send order", handle.node());
            assert_eq!(group, groups[got as usize % groups.len()]);
            next += 1;
        }
    }

    let servers = members;
    let group = GroupId::new("fifo-svc");
    setup_service(&nodes, &servers, &group);
    for _ in 0..3 {
        assert_eq!(
            bind_and_invoke(&nodes[3], &group, servers.clone(), false),
            3
        );
    }
    for n in nodes {
        assert_eq!(n.send_errors(), 0);
        n.shutdown();
    }
    for mut ep in endpoints {
        ep.shutdown();
    }
}

#[test]
fn peer_group_over_threads() {
    let nodes = spawn_channel_cluster(3);
    let members: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
    let group = GroupId::new("threaded-peers");
    for handle in &nodes {
        let group = group.clone();
        let members = members.clone();
        handle.with_nso(move |nso, now, out| {
            nso.create_peer_group(
                group,
                members,
                GroupConfig::peer().with_time_silence(Duration::from_millis(20)),
                now,
                out,
            )
            .unwrap();
        });
    }
    // Each member multicasts once.
    for handle in &nodes {
        let group = group.clone();
        let body = format!("from-{}", handle.node());
        handle.with_nso(move |nso, now, out| {
            let peer = nso.handle_for(&group).unwrap();
            peer.send(nso, Bytes::from(body), DeliveryOrder::Total, now, out)
                .unwrap();
        });
    }
    // Everyone delivers all three multicasts.
    for handle in &nodes {
        let mut seen = 0;
        while seen < 3 {
            let o = handle
                .wait_for_output(Duration::from_secs(15), |o| {
                    matches!(o, NsoOutput::PeerDeliver { .. })
                })
                .expect("peer delivery");
            let NsoOutput::PeerDeliver { .. } = o else {
                unreachable!()
            };
            seen += 1;
        }
    }
    for n in nodes {
        n.shutdown();
    }
}

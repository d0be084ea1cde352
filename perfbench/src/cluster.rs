//! The program under test: `newtop-rt` nodes hosting `Nso`, connected
//! by loopback `newtop-net::tcp` endpoints, with the production default
//! `RuntimeOptions`. Every node's transport is wrapped in a
//! [`TappedTransport`] that counts (and, when tracing, times) each frame
//! written to TCP.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use newtop::nso::GroupServant;
use newtop_flow::queue::{bounded, QueueStats};
use newtop_flow::FlowConfig;
use newtop_net::site::NodeId;
use newtop_net::tcp::{TcpEndpoint, TcpTransport};
use newtop_net::transport::{TransportError, WireTransport};
use newtop_rt::{NodeHandle, NodeRuntime, RuntimeOptions};

use crate::schedule::payload_id;
use crate::trace;

/// Frames kept per node for the offline decode-cost measurement.
const CAPTURE_FRAMES: usize = 4096;

/// What the wire tap saw on one node's send path.
#[derive(Default)]
pub struct NetTap {
    frames: AtomicU64,
    bytes: AtomicU64,
    errors: AtomicU64,
    send_ns: Mutex<Vec<u64>>,
    captured: Mutex<Vec<Bytes>>,
}

/// A [`WireTransport`] around [`TcpTransport`] that counts frames,
/// bytes and send errors; with tracing on it also times each send,
/// records a `net` span, and keeps a bounded sample of frames.
#[derive(Clone)]
pub struct TappedTransport {
    inner: TcpTransport,
    tap: Arc<NetTap>,
}

impl WireTransport for TappedTransport {
    fn local(&self) -> NodeId {
        self.inner.local()
    }

    fn send(&self, dst: NodeId, payload: Bytes) -> Result<(), TransportError> {
        self.tap.frames.fetch_add(1, Ordering::Relaxed);
        self.tap
            .bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        let result = if trace::enabled() {
            let start = trace::now_ns();
            let kept = payload.clone();
            let result = self.inner.send(dst, payload);
            let end = trace::close(trace::next_id(), 0, 0, "net", "tcp.send", start);
            lock(&self.tap.send_ns).push(end - start);
            let mut captured = lock(&self.tap.captured);
            if captured.len() < CAPTURE_FRAMES {
                captured.push(kept);
            }
            result
        } else {
            self.inner.send(dst, payload)
        };
        if result.is_err() {
            self.tap.errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("tap lock poisoned by a panicking thread")
}

/// Counts every servant execution, across all replicas in the process.
#[derive(Default)]
pub struct ServantStats {
    execs: AtomicU64,
}

impl ServantStats {
    /// Executions so far.
    #[must_use]
    pub fn execs(&self) -> u64 {
        self.execs.load(Ordering::Relaxed)
    }
}

/// FNV-1a over the exact args a call carried.
#[must_use]
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The servant every replica runs: it answers with the call id from
/// the args, its own replica id and a digest of the args it received.
#[must_use]
pub fn servant(replica: NodeId, stats: Arc<ServantStats>) -> Box<dyn GroupServant> {
    Box::new(move |_op: &str, args: &[u8]| {
        let start = trace::enabled().then(trace::now_ns);
        stats.execs.fetch_add(1, Ordering::Relaxed);
        let call = payload_id(args).unwrap_or(0);
        let mut reply = Vec::with_capacity(20);
        reply.extend_from_slice(&call.to_be_bytes());
        reply.extend_from_slice(&replica.index().to_be_bytes());
        reply.extend_from_slice(&digest(args).to_be_bytes());
        if let Some(start) = start {
            trace::close(trace::next_id(), 0, call, "servant", "servant.exec", start);
        }
        Bytes::from(reply)
    })
}

/// Checks one completed call's replies: each carries the call id, the
/// id of the replica it came from and the digest of the args sent, and
/// `expect_all` calls have one reply from each distinct server.
#[must_use]
pub fn replies_ok(
    call: u64,
    args_digest: u64,
    replies: &[(NodeId, Bytes)],
    servers: &[NodeId],
    expect_all: bool,
) -> bool {
    let each_ok = replies.iter().all(|(from, body)| {
        let Some(body) = body.get(..20) else {
            return false;
        };
        let id = u64::from_be_bytes(body[..8].try_into().expect("8 bytes"));
        let replica = u32::from_be_bytes(body[8..12].try_into().expect("4 bytes"));
        let dig = u64::from_be_bytes(body[12..20].try_into().expect("8 bytes"));
        id == call && replica == from.index() && dig == args_digest && servers.contains(from)
    });
    let mut from: Vec<NodeId> = replies.iter().map(|(n, _)| *n).collect();
    from.sort_unstable();
    from.dedup();
    let count_ok = if expect_all {
        from.len() == replies.len() && from.len() == servers.len()
    } else {
        !replies.is_empty()
    };
    each_ok && count_ok
}

/// Totals of the counters the benchmark reads at window boundaries.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Frames written to TCP.
    pub frames: u64,
    /// Payload bytes written to TCP.
    pub bytes: u64,
    /// Failed TCP sends.
    pub send_errors: u64,
    /// Servant executions.
    pub execs: u64,
    /// `Nso::metrics()` counters, summed over nodes.
    pub nso: BTreeMap<String, u64>,
    /// `flow.queue_depth_peak`, the largest over nodes.
    pub flow_depth_peak: i64,
}

impl Counters {
    /// The named `Nso` counter's growth since `before`.
    #[must_use]
    pub fn nso_delta(&self, before: &Counters, name: &str) -> u64 {
        let get = |c: &Counters| c.nso.get(name).copied().unwrap_or(0);
        get(self).saturating_sub(get(before))
    }
}

/// A running cluster. Dropping it stops every node, then every
/// endpoint.
pub struct Cluster {
    /// The nodes, indexed like their ids.
    pub nodes: Vec<NodeHandle>,
    endpoints: Vec<TcpEndpoint>,
    taps: Vec<Arc<NetTap>>,
    ingress: Vec<QueueStats>,
    /// Executions of the servants this cluster's replicas run.
    pub servants: Arc<ServantStats>,
}

impl Cluster {
    /// Spawns `n` nodes on loopback TCP, every one a peer of every
    /// other.
    ///
    /// # Errors
    ///
    /// Any error binding a listener.
    pub fn spawn(n: usize) -> Result<Cluster, String> {
        let capacity = FlowConfig::default().queue_capacity;
        let mut endpoints = Vec::with_capacity(n);
        let mut incoming = Vec::with_capacity(n);
        let mut ingress = Vec::with_capacity(n);
        for i in 0..n {
            let (tx, rx) = bounded(capacity);
            ingress.push(tx.stats());
            let id = NodeId::from_index(i as u32);
            let addr = "127.0.0.1:0".parse().expect("valid loopback address");
            let ep = TcpEndpoint::bind(id, addr, tx).map_err(|e| format!("bind {id}: {e}"))?;
            endpoints.push(ep);
            incoming.push(rx);
        }
        for ep in &endpoints {
            for (i, peer) in endpoints.iter().enumerate() {
                ep.register_peer(NodeId::from_index(i as u32), peer.local_addr());
            }
        }
        let taps: Vec<Arc<NetTap>> = (0..n).map(|_| Arc::default()).collect();
        let nodes = endpoints
            .iter()
            .zip(incoming)
            .zip(&taps)
            .map(|((ep, rx), tap)| {
                let transport = TappedTransport {
                    inner: ep.handle(),
                    tap: Arc::clone(tap),
                };
                NodeRuntime::spawn(transport, rx, RuntimeOptions::new())
            })
            .collect();
        Ok(Cluster {
            nodes,
            endpoints,
            taps,
            ingress,
            servants: Arc::default(),
        })
    }

    /// The ids of nodes `range`.
    #[must_use]
    pub fn ids(&self, range: std::ops::Range<usize>) -> Vec<NodeId> {
        range.map(|i| self.nodes[i].node()).collect()
    }

    /// Waits until every listed node has a view of `group`.
    ///
    /// # Errors
    ///
    /// When some node has no view after `timeout`.
    pub fn await_views(
        &self,
        nodes: &[NodeId],
        group: &newtop_gcs::group::GroupId,
        timeout: Duration,
    ) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        for id in nodes {
            let node = &self.nodes[id.index() as usize];
            loop {
                let g = group.clone();
                if node.with_nso(move |nso, _, _| nso.view_of(&g).is_some()) {
                    break;
                }
                if Instant::now() > deadline {
                    return Err(format!(
                        "{id} has no view of {g} after {timeout:?}",
                        g = group
                    ));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(())
    }

    /// Reads every counter the per-layer metrics are built from.
    #[must_use]
    pub fn counters(&self) -> Counters {
        let mut c = Counters {
            execs: self.servants.execs(),
            ..Counters::default()
        };
        for tap in &self.taps {
            c.frames += tap.frames.load(Ordering::Relaxed);
            c.bytes += tap.bytes.load(Ordering::Relaxed);
            c.send_errors += tap.errors.load(Ordering::Relaxed);
        }
        for node in &self.nodes {
            let snap = node.with_nso(|nso, _, _| nso.metrics());
            for (k, v) in snap.counters {
                *c.nso.entry(k).or_default() += v;
            }
            let peak = snap
                .gauges
                .get("flow.queue_depth_peak")
                .copied()
                .unwrap_or(0);
            c.flow_depth_peak = c.flow_depth_peak.max(peak);
        }
        c
    }

    /// Per-send times recorded by the taps while tracing, in ns.
    #[must_use]
    pub fn take_send_ns(&self) -> Vec<u64> {
        self.taps
            .iter()
            .flat_map(|t| std::mem::take(&mut *lock(&t.send_ns)))
            .collect()
    }

    /// Frames the taps kept while tracing.
    #[must_use]
    pub fn take_captured(&self) -> Vec<Bytes> {
        self.taps
            .iter()
            .flat_map(|t| std::mem::take(&mut *lock(&t.captured)))
            .collect()
    }

    /// Largest peak depth and total sheds of the nodes' output queues.
    #[must_use]
    pub fn output_queues(&self) -> (u64, u64) {
        self.nodes.iter().fold((0, 0), |(peak, shed), n| {
            let s = n.output_stats();
            (peak.max(s.peak_depth()), shed + s.shed())
        })
    }

    /// Largest peak depth and total blocked sends of the TCP ingress
    /// queues.
    #[must_use]
    pub fn ingress_queues(&self) -> (u64, u64) {
        self.ingress.iter().fold((0, 0), |(peak, blocked), s| {
            (peak.max(s.peak_depth()), blocked + s.blocked())
        })
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for node in self.nodes.drain(..) {
            node.shutdown();
        }
        for ep in &mut self.endpoints {
            ep.shutdown();
        }
    }
}

//! Threaded runtime for the NewTop service object.
//!
//! The [`Nso`] is a sans-IO state machine; this crate hosts one per
//! thread with wall-clock timers and a real transport (the in-process
//! [`newtop_net::channel::ChannelNetwork`] or framed TCP via
//! [`newtop_net::tcp::TcpEndpoint`]), so the runnable examples are
//! genuinely concurrent programs rather than simulations.
//!
//! Each node runs an event loop that takes packets straight off the
//! transport's bounded ingress queue and decodes each frame itself in
//! [`Nso::on_packet`]: a frame costs one thread hand-off (transport
//! reader to loop) to be handled. The loop blocks on that queue until
//! the next timer is due (`recv_timeout`), so an idle node sleeps
//! instead of polling. Application commands and the stop signal travel
//! on a second bounded queue; the sender rings the ingress queue's
//! [`Waker`] after each, so a command wakes the loop at once too. The
//! loop applies every message to the node's one protocol engine, on the
//! loop thread. Applications drive the node
//! through a [`NodeHandle`]: [`NodeHandle::with_nso`] runs a closure
//! against the NSO inside the loop (so no locking is ever needed), and
//! [`NodeHandle::outputs`] / [`NodeHandle::wait_for_output`] receive the
//! NSO's outputs.
//!
//! ```
//! use newtop_rt::{NodeRuntime, RuntimeOptions};
//! use newtop_net::channel::ChannelNetwork;
//! use newtop_net::site::NodeId;
//!
//! let net = ChannelNetwork::new();
//! let a = NodeId::from_index(0);
//! let (transport, incoming) = net.endpoint(a);
//! let node = NodeRuntime::spawn(transport, incoming, RuntimeOptions::new());
//! let id = node.with_nso(|nso, _now, _out| nso.node());
//! assert_eq!(id, a);
//! node.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use newtop_flow::queue::{
    bounded, QueueStats, Receiver, RecvTimeoutError, SendError, Sender, TryRecvError, Waker,
};
use newtop_flow::FlowConfig;

use newtop::nso::{Nso, NsoOptions, NsoOutput};
use newtop_net::sim::{Outbox, Packet, TimerId};
use newtop_net::site::NodeId;
use newtop_net::time::SimTime;
use newtop_net::transport::WireTransport;

/// Construction options for [`NodeRuntime::spawn`]: flow bounds and
/// send-path batching.
///
/// The defaults are the production posture — batching on, default
/// [`FlowConfig`] queue bounds.
#[derive(Clone, Debug)]
pub struct RuntimeOptions {
    batching: bool,
    flow: FlowConfig,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            batching: true,
            flow: FlowConfig::default(),
        }
    }
}

impl RuntimeOptions {
    /// The default options (see the type docs).
    #[must_use]
    pub fn new() -> Self {
        RuntimeOptions::default()
    }

    /// Enables or disables send-path batching (packing small protocol
    /// messages for one destination into one batch frame per flush).
    #[must_use]
    pub fn with_batching(mut self, batching: bool) -> Self {
        self.batching = batching;
        self
    }

    /// Sets the flow configuration: the command/output/ingress queue
    /// bounds and the flow-control window.
    #[must_use]
    pub fn with_flow(mut self, flow: FlowConfig) -> Self {
        self.flow = flow;
        self
    }

    /// Protocol shards per node: always 1. Each node runs one protocol
    /// engine, whose one Lamport clock orders all its groups; the getter
    /// stays for callers that report it.
    #[must_use]
    pub fn shards(&self) -> usize {
        1
    }

    /// Whether send-path batching is enabled.
    #[must_use]
    pub fn batching(&self) -> bool {
        self.batching
    }

    /// The configured flow bounds.
    #[must_use]
    pub fn flow(&self) -> &FlowConfig {
        &self.flow
    }
}

type Command = Box<dyn FnOnce(&mut Nso, SimTime, &mut Outbox) + Send>;

/// What applications send the event loop, besides the packets it takes
/// from the transport.
enum Control {
    Run(Command),
    Stop,
}

/// A handle to a node hosted by [`NodeRuntime::spawn`].
pub struct NodeHandle {
    node: NodeId,
    control: Sender<Control>,
    /// Rings the loop's packet-queue wait after each control message.
    wake: Waker<Packet>,
    outputs: Receiver<NsoOutput>,
    send_errors: Arc<AtomicU64>,
    join: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for NodeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NodeHandle({})", self.node)
    }
}

impl NodeHandle {
    /// The hosted node's id.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Runs a closure against the NSO inside its event loop and returns
    /// the result. Blocks until the loop has executed it.
    ///
    /// # Panics
    ///
    /// Panics if the node's event loop has stopped.
    pub fn with_nso<R, F>(&self, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut Nso, SimTime, &mut Outbox) -> R + Send + 'static,
    {
        let (tx, rx) = bounded(1);
        let command: Command = Box::new(move |nso, now, out| {
            // The caller is blocked on `rx` below, so the reply always
            // has a receiver.
            let _ = tx.send(f(nso, now, out));
        });
        self.send_control(Control::Run(command))
            .expect("node event loop stopped");
        rx.recv().expect("node event loop stopped")
    }

    /// The stream of NSO outputs. The queue is bounded: if the
    /// application stops draining it, the event loop sheds the oldest
    /// unread outputs' successors rather than buffering without limit
    /// (count via [`NodeHandle::output_stats`]).
    #[must_use]
    pub fn outputs(&self) -> &Receiver<NsoOutput> {
        &self.outputs
    }

    /// Flow statistics of the output queue: sheds, peak depth, capacity.
    #[must_use]
    pub fn output_stats(&self) -> QueueStats {
        self.outputs.stats()
    }

    /// Frames the transport failed to send since the node started. The
    /// protocol layers recover from a lost frame (NACKs, suspicion), so
    /// the loop carries on; the count says how often it had to.
    #[must_use]
    pub fn send_errors(&self) -> u64 {
        self.send_errors.load(Ordering::Relaxed)
    }

    /// Waits until an output matching `pred` arrives (discarding
    /// non-matching outputs), or the timeout elapses.
    pub fn wait_for_output(
        &self,
        timeout: Duration,
        mut pred: impl FnMut(&NsoOutput) -> bool,
    ) -> Option<NsoOutput> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.checked_duration_since(Instant::now())?;
            match self.outputs.recv_timeout(remaining) {
                Ok(o) if pred(&o) => return Some(o),
                Ok(_) => {}
                Err(_) => return None,
            }
        }
    }

    /// Stops the event loop and joins the thread. Idempotent; also done
    /// on drop.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(join) = self.join.take() else {
            return;
        };
        // A loop that already exited has dropped its receiver; then the
        // send fails and there is nothing left to stop.
        let _ = self.send_control(Control::Stop);
        let _ = join.join();
    }

    /// Queues `msg` for the loop and wakes it.
    fn send_control(&self, msg: Control) -> Result<(), SendError<Control>> {
        self.control.send(msg)?;
        self.wake.wake();
        Ok(())
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Spawns NSO event loops on threads.
pub struct NodeRuntime;

impl NodeRuntime {
    /// Spawns a node: an NSO event loop (thread `nso-{node}`) over
    /// `transport` (which names the node via [`WireTransport::local`]),
    /// taking packets straight from `incoming`, configured by `opts`.
    /// See the crate docs.
    pub fn spawn<T: WireTransport>(
        transport: T,
        incoming: Receiver<Packet>,
        opts: RuntimeOptions,
    ) -> NodeHandle {
        let node = transport.local();
        let (control_tx, control_rx) = bounded::<Control>(opts.flow.queue_capacity);
        let (out_tx, out_rx) = bounded::<NsoOutput>(opts.flow.queue_capacity);
        let wake = incoming.waker();
        let send_errors = Arc::new(AtomicU64::new(0));
        let loop_send_errors = Arc::clone(&send_errors);
        let mut inputs = Inputs {
            packets: incoming,
            packets_open: true,
            control: control_rx,
        };
        let join = std::thread::Builder::new()
            .name(format!("nso-{node}"))
            .spawn(move || {
                event_loop(
                    node,
                    &transport,
                    &opts,
                    &mut inputs,
                    &out_tx,
                    &loop_send_errors,
                );
            })
            .expect("failed to spawn node thread");
        NodeHandle {
            node,
            control: control_tx,
            wake,
            outputs: out_rx,
            send_errors,
            join: Some(join),
        }
    }
}

/// The event loop's two sources.
struct Inputs {
    packets: Receiver<Packet>,
    /// False once the transport has dropped its end of `packets`.
    packets_open: bool,
    control: Receiver<Control>,
}

/// What ended the loop's wait.
enum Wakeup {
    Packet(Packet),
    Control(Control),
    /// A timer is due, or a control message may be queued.
    Poll,
    /// Every control sender is gone.
    Closed,
}

impl Inputs {
    /// Waits up to `timeout` for the next input. Queued control messages
    /// come first: there are few, and a caller blocks on each. Once the
    /// transport has dropped its end of the packet queue, the loop waits
    /// on the control queue alone.
    fn next(&mut self, timeout: Duration) -> Wakeup {
        match self.control.try_recv() {
            Ok(msg) => return Wakeup::Control(msg),
            Err(TryRecvError::Disconnected) => return Wakeup::Closed,
            Err(TryRecvError::Empty) => {}
        }
        if self.packets_open {
            match self.packets.recv_timeout(timeout) {
                Ok(pkt) => return Wakeup::Packet(pkt),
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Woken) => return Wakeup::Poll,
                Err(RecvTimeoutError::Disconnected) => self.packets_open = false,
            }
        }
        match self.control.recv_timeout(timeout) {
            Ok(msg) => Wakeup::Control(msg),
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Woken) => Wakeup::Poll,
            Err(RecvTimeoutError::Disconnected) => Wakeup::Closed,
        }
    }
}

struct TimerEntry {
    deadline: Instant,
    seq: u64,
    id: TimerId,
    tag: u64,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.deadline, self.seq) == (other.deadline, other.seq)
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

fn event_loop(
    node: NodeId,
    transport: &dyn WireTransport,
    opts: &RuntimeOptions,
    inputs: &mut Inputs,
    outputs: &Sender<NsoOutput>,
    send_errors: &AtomicU64,
) {
    let start = Instant::now();
    let mut nso = Nso::with_options(node, NsoOptions::new().with_batching(opts.batching));
    let mut timers: BinaryHeap<Reverse<TimerEntry>> = BinaryHeap::new();
    let mut cancelled: HashSet<TimerId> = HashSet::new();
    let mut next_outbox_timer: u64 = 0;
    let mut timer_seq: u64 = 0;

    let now = |start: Instant| SimTime::from_nanos(start.elapsed().as_nanos() as u64);

    loop {
        // Fire due timers.
        let mut due: Vec<(TimerId, u64)> = Vec::new();
        let instant_now = Instant::now();
        while let Some(Reverse(head)) = timers.peek() {
            if head.deadline > instant_now {
                break;
            }
            let Reverse(entry) = timers.pop().expect("peeked");
            if !cancelled.remove(&entry.id) {
                due.push((entry.id, entry.tag));
            }
        }
        for (_, tag) in due {
            let mut out = Outbox::detached(next_outbox_timer);
            nso.on_timer(tag, now(start), &mut out);
            next_outbox_timer = apply_outbox(
                transport,
                &mut timers,
                &mut cancelled,
                &mut timer_seq,
                send_errors,
                out,
            );
            drain_outputs(&mut nso, outputs);
        }

        // Sleep until the next input, or until the next timer is due.
        let timeout = timers.peek().map_or(Duration::MAX, |Reverse(t)| {
            t.deadline.saturating_duration_since(Instant::now())
        });
        let mut out = Outbox::detached(next_outbox_timer);
        match inputs.next(timeout) {
            Wakeup::Packet(pkt) => nso.on_packet(&pkt, now(start), &mut out),
            Wakeup::Control(Control::Run(cmd)) => cmd(&mut nso, now(start), &mut out),
            Wakeup::Poll => continue,
            Wakeup::Control(Control::Stop) | Wakeup::Closed => return,
        }
        next_outbox_timer = apply_outbox(
            transport,
            &mut timers,
            &mut cancelled,
            &mut timer_seq,
            send_errors,
            out,
        );
        drain_outputs(&mut nso, outputs);
    }
}

fn apply_outbox(
    transport: &dyn WireTransport,
    timers: &mut BinaryHeap<Reverse<TimerEntry>>,
    cancelled: &mut HashSet<TimerId>,
    timer_seq: &mut u64,
    send_errors: &AtomicU64,
    out: Outbox,
) -> u64 {
    let parts = out.into_parts();
    for id in parts.timer_cancels {
        cancelled.insert(id);
    }
    let now = Instant::now();
    for (id, delay, tag) in parts.timer_sets {
        if cancelled.remove(&id) {
            continue;
        }
        *timer_seq += 1;
        timers.push(Reverse(TimerEntry {
            deadline: now + delay,
            seq: *timer_seq,
            id,
            tag,
        }));
    }
    for (dst, payload) in parts.sends {
        // The protocol layers recover a lost frame via NACKs and
        // suspicion, so a failed send is counted, not retried here.
        if transport.send(dst, payload).is_err() {
            send_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
    parts.next_timer
}

fn drain_outputs(nso: &mut Nso, outputs: &Sender<NsoOutput>) {
    for o in nso.take_outputs() {
        // Never block the event loop on a slow consumer: shed instead
        // (counted in the queue's stats).
        let _ = outputs.try_send(o);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use newtop::nso::BindOptions;
    use newtop_gcs::group::{DeliveryOrder, GroupConfig, GroupId};
    use newtop_invocation::api::{OpenOptimisation, Replication, ReplyMode};
    use newtop_net::channel::ChannelNetwork;

    fn spawn_cluster(n: usize, opts: &RuntimeOptions) -> Vec<NodeHandle> {
        let net = ChannelNetwork::new();
        (0..n)
            .map(|i| {
                let id = NodeId::from_index(i as u32);
                let (transport, rx) = net.endpoint(id);
                NodeRuntime::spawn(transport, rx, opts.clone())
            })
            .collect()
    }

    #[test]
    fn with_nso_runs_in_the_loop() {
        let nodes = spawn_cluster(1, &RuntimeOptions::new());
        let id = nodes[0].with_nso(|nso, _, _| nso.node());
        assert_eq!(id, NodeId::from_index(0));
    }

    #[test]
    fn failed_sends_are_counted() {
        let net = ChannelNetwork::new();
        let nodes = [0, 1].map(|i| {
            let id = NodeId::from_index(i);
            let (transport, rx) = net.endpoint(id);
            NodeRuntime::spawn(transport, rx, RuntimeOptions::new())
        });
        let members: Vec<NodeId> = (0..2).map(NodeId::from_index).collect();
        let group = GroupId::new("lossy");
        // Node 1 leaves the network: every frame to it now fails.
        net.remove(NodeId::from_index(1));
        nodes[0].with_nso(move |nso, now, out| {
            nso.create_peer_group(group.clone(), members, GroupConfig::peer(), now, out)
                .unwrap();
            let peer = nso.handle_for(&group).unwrap();
            peer.send(
                nso,
                Bytes::from_static(b"x"),
                DeliveryOrder::Total,
                now,
                out,
            )
            .unwrap();
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while nodes[0].send_errors() == 0 {
            assert!(Instant::now() < deadline, "no send error counted");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn commands_run_before_and_after_the_transport_closes() {
        let net = ChannelNetwork::new();
        let id = NodeId::from_index(0);
        let (transport, rx) = net.endpoint(id);
        let node = NodeRuntime::spawn(transport, rx, RuntimeOptions::new());
        assert_eq!(node.with_nso(|nso, _, _| nso.node()), id);
        // Dropping the network drops the only sender of the node's packet
        // queue; the loop must keep serving commands, and stop on request.
        net.remove(id);
        drop(net);
        for _ in 0..3 {
            assert_eq!(node.with_nso(|nso, _, _| nso.node()), id);
        }
        assert_eq!(node.send_errors(), 0);
        node.shutdown();
    }

    #[test]
    fn request_reply_over_threads() {
        let nodes = spawn_cluster(3, &RuntimeOptions::new());
        let servers: Vec<NodeId> = (0..2).map(NodeId::from_index).collect();
        let group = GroupId::new("svc");

        for handle in &nodes[..2] {
            let group = group.clone();
            let members = servers.clone();
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
                    Box::new(move |op: &str, _: &[u8]| Bytes::from(format!("{op}@{me}"))),
                );
            });
        }

        let client = &nodes[2];
        let g = group.clone();
        let svrs = servers.clone();
        client.with_nso(move |nso, now, out| {
            nso.bind(g, BindOptions::closed(svrs), now, out).unwrap();
        });
        let ready = client
            .wait_for_output(Duration::from_secs(10), |o| {
                matches!(o, NsoOutput::BindingReady { .. })
            })
            .expect("binding established");
        let NsoOutput::BindingReady { group: binding } = ready else {
            unreachable!()
        };
        let b = binding.clone();
        client.with_nso(move |nso, now, out| {
            let b = nso.handle_for(&b).unwrap();
            b.invoke(nso, "ping", Bytes::new(), ReplyMode::All, now, out)
                .unwrap();
        });
        let done = client
            .wait_for_output(Duration::from_secs(10), |o| {
                matches!(o, NsoOutput::InvocationComplete { .. })
            })
            .expect("invocation completed");
        let NsoOutput::InvocationComplete { replies, .. } = done else {
            unreachable!()
        };
        assert_eq!(replies.len(), 2);
        for h in nodes {
            h.shutdown();
        }
    }
}

//! Threaded runtime for the NewTop service object.
//!
//! The [`Nso`] is a sans-IO state machine; this crate hosts one per
//! thread with wall-clock timers and a real transport (the in-process
//! [`newtop_net::channel::ChannelNetwork`] or framed TCP via
//! [`newtop_net::tcp::TcpEndpoint`]), so the runnable examples are
//! genuinely concurrent programs rather than simulations.
//!
//! Each node runs an event loop over one bounded event queue that
//! carries incoming packets, application commands and the stop signal.
//! The loop blocks on that queue until the next timer is due
//! (`recv_timeout`), so an idle node sleeps instead of polling, and a
//! command or packet wakes it at once. With more than one shard
//! configured ([`RuntimeOptions::with_shards`]), packet ingress is
//! parallelised across shard workers: a distributor fans incoming
//! packets out to `N` bounded worker queues by source (preserving
//! per-source FIFO order), each worker pre-decodes and unbatches GCS
//! frames ([`Nso::decode_gcs_frame`] — the CPU-heavy part of ingress),
//! and the decoded messages fan back into the event queue, and the loop
//! applies them to the per-shard protocol engines. Applications drive the node
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
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use newtop_flow::queue::{bounded, QueueStats, Receiver, RecvTimeoutError, Sender};
use newtop_flow::FlowConfig;

use newtop::nso::{Nso, NsoOptions, NsoOutput};
use newtop_gcs::messages::GcsMessage;
use newtop_net::sim::{Outbox, Packet, TimerId};
use newtop_net::site::NodeId;
use newtop_net::time::SimTime;
use newtop_net::transport::WireTransport;

/// Construction options for [`NodeRuntime::spawn`]: shard count, flow
/// bounds, and send-path batching.
///
/// The defaults are the production posture — `min(4, cores)` shards,
/// batching on, default [`FlowConfig`] queue bounds.
#[derive(Clone, Debug)]
pub struct RuntimeOptions {
    shards: usize,
    batching: bool,
    flow: FlowConfig,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        RuntimeOptions {
            shards: cores.min(4),
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

    /// Sets the number of protocol shards (clamped to at least 1).
    /// Groups hash to a shard; each shard owns its engines, clock
    /// domain, flow ledgers, and ingress queue.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
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

    /// The configured shard count.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
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

/// What the event loop waits for, all on one bounded queue: ingress from
/// the network (a raw packet — the single-shard path, and anything the
/// workers decline to pre-decode — or the decoded GCS messages of one or
/// more frames), application commands, and the stop signal.
enum Event {
    Raw(Packet),
    Gcs(Vec<GcsMessage>),
    Command(Command),
    Stop,
}

/// A handle to a node hosted by [`NodeRuntime::spawn`].
pub struct NodeHandle {
    node: NodeId,
    events: Sender<Event>,
    outputs: Receiver<NsoOutput>,
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
        self.events
            .send(Event::Command(command))
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
        let _ = self.events.send(Event::Stop);
        let _ = join.join();
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
    /// Spawns a node: an NSO event loop over `transport` (which names
    /// the node via [`WireTransport::local`]), receiving packets from
    /// `incoming`, configured by `opts`.
    ///
    /// With `opts.shards() > 1` the runtime also spawns an ingress
    /// distributor and one decode worker per shard (threads
    /// `newtop-rt-shard{k}-{node}`); see the crate docs for the
    /// pipeline. With one shard, packets flow straight into the event
    /// loop as before.
    pub fn spawn<T: WireTransport>(
        transport: T,
        incoming: Receiver<Packet>,
        opts: RuntimeOptions,
    ) -> NodeHandle {
        let node = transport.local();
        let (event_tx, event_rx) = bounded::<Event>(opts.flow.queue_capacity);
        let (out_tx, out_rx) = bounded::<NsoOutput>(opts.flow.queue_capacity);
        spawn_ingress(node, incoming, &opts, &event_tx);
        let join = std::thread::Builder::new()
            .name(format!("nso-{node}"))
            .spawn(move || event_loop(node, &transport, &opts, &event_rx, &out_tx))
            .expect("failed to spawn node thread");
        NodeHandle {
            node,
            events: event_tx,
            outputs: out_rx,
            join: Some(join),
        }
    }
}

/// Builds the ingress pipeline into the event queue. With one shard a
/// forwarder moves packets from `incoming` onto it; otherwise a
/// distributor thread fans packets out to per-shard decode workers
/// (hashing on the source so per-source FIFO order survives) and the
/// workers' decoded output fans back in onto it. Every stage blocks on a
/// full queue, so backpressure reaches the transport.
fn spawn_ingress(
    node: NodeId,
    incoming: Receiver<Packet>,
    opts: &RuntimeOptions,
    events: &Sender<Event>,
) {
    let capacity = opts.flow.queue_capacity;
    if opts.shards == 1 {
        let tx = events.clone();
        std::thread::Builder::new()
            .name(format!("newtop-rt-ingress-{node}"))
            .spawn(move || {
                while let Ok(pkt) = incoming.recv() {
                    if tx.send(Event::Raw(pkt)).is_err() {
                        return;
                    }
                }
            })
            .expect("failed to spawn ingress thread");
        return;
    }
    let mut shard_queues = Vec::with_capacity(opts.shards);
    for k in 0..opts.shards {
        let (tx, rx) = bounded::<Packet>(capacity);
        shard_queues.push(tx);
        let fan_in = events.clone();
        std::thread::Builder::new()
            .name(format!("newtop-rt-shard{k}-{node}"))
            .spawn(move || decode_worker(&rx, &fan_in))
            .expect("failed to spawn shard worker");
    }
    std::thread::Builder::new()
        .name(format!("newtop-rt-ingress-{node}"))
        .spawn(move || {
            while let Ok(pkt) = incoming.recv() {
                let shard = (fnv1a(pkt.src.index()) as usize) % shard_queues.len();
                if shard_queues[shard].send(pkt).is_err() {
                    return;
                }
            }
        })
        .expect("failed to spawn ingress thread");
}

/// Most frames one decode worker folds into a single [`Event::Gcs`].
const MAX_BURST: usize = 64;

/// A shard worker: decodes GCS frames off the event loop. Frames that
/// are already queued when one arrives go to the loop as one event, so a
/// burst costs the loop one wake-up rather than one per frame (on a
/// saturated host the per-frame wake-ups showed up in the call-latency
/// tail); a lone frame goes at once. Raw packets keep their place in the
/// order.
fn decode_worker(rx: &Receiver<Packet>, events: &Sender<Event>) {
    while let Ok(first) = rx.recv() {
        let mut msgs = Vec::new();
        let mut next = Some(first);
        while let Some(pkt) = next.take() {
            match Nso::decode_gcs_frame(&pkt.payload) {
                Some(decoded) => msgs.extend(decoded),
                None => {
                    if !msgs.is_empty()
                        && events.send(Event::Gcs(std::mem::take(&mut msgs))).is_err()
                    {
                        return;
                    }
                    if events.send(Event::Raw(pkt)).is_err() {
                        return;
                    }
                }
            }
            if msgs.len() < MAX_BURST {
                next = rx.try_recv().ok();
            }
        }
        if !msgs.is_empty() && events.send(Event::Gcs(msgs)).is_err() {
            return;
        }
    }
}

/// FNV-1a over the source id — cheap, deterministic shard placement.
fn fnv1a(x: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in x.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
    events: &Receiver<Event>,
    outputs: &Sender<NsoOutput>,
) {
    let start = Instant::now();
    let mut nso = Nso::with_options(
        node,
        NsoOptions::new()
            .with_shards(opts.shards)
            .with_batching(opts.batching),
    );
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
            next_outbox_timer =
                apply_outbox(transport, &mut timers, &mut cancelled, &mut timer_seq, out);
            drain_outputs(&mut nso, outputs);
        }

        // Sleep until the next event, or until the next timer is due.
        let event = match timers.peek() {
            Some(Reverse(t)) => {
                match events.recv_timeout(t.deadline.saturating_duration_since(Instant::now())) {
                    Ok(event) => event,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            }
            None => match events.recv() {
                Ok(event) => event,
                Err(_) => return,
            },
        };
        let mut out = Outbox::detached(next_outbox_timer);
        match event {
            Event::Raw(pkt) => nso.on_packet(&pkt, now(start), &mut out),
            Event::Gcs(msgs) => {
                for msg in msgs {
                    nso.on_gcs_message(msg, now(start), &mut out);
                    // Each message's sends and outputs leave before the
                    // next message of a burst is handled.
                    let done = std::mem::replace(&mut out, Outbox::detached(0));
                    next_outbox_timer =
                        apply_outbox(transport, &mut timers, &mut cancelled, &mut timer_seq, done);
                    out = Outbox::detached(next_outbox_timer);
                    drain_outputs(&mut nso, outputs);
                }
            }
            Event::Command(cmd) => cmd(&mut nso, now(start), &mut out),
            Event::Stop => return,
        }
        next_outbox_timer =
            apply_outbox(transport, &mut timers, &mut cancelled, &mut timer_seq, out);
        drain_outputs(&mut nso, outputs);
    }
}

fn apply_outbox(
    transport: &dyn WireTransport,
    timers: &mut BinaryHeap<Reverse<TimerEntry>>,
    cancelled: &mut HashSet<TimerId>,
    timer_seq: &mut u64,
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
        // Best effort: the protocol layers handle loss via NACKs and
        // suspicion.
        let _ = transport.send(dst, payload);
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
    use newtop_gcs::group::{GroupConfig, GroupId};
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

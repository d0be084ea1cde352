//! `peer_sym`: a four-member peer group with symmetric total order,
//! lively, 20 ms time-silence, 64 B payloads. An open loop sends a fixed
//! aggregate rate, round-robin over the members in a seeded order. An
//! op is one delivery at one member; its latency runs from when the
//! send was due, so a stall also charges the sends queued behind it.
//!
//! The same GCS layer used another way: many senders, the Lamport
//! stability wait and time-silence nulls, no invocation layer.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use newtop::nso::{GroupHandle, NewtopError, NsoOutput};
use newtop_gcs::group::{DeliveryOrder, GroupConfig, GroupId};
use newtop_net::stats::Histogram;
use newtop_rt::NodeHandle;

use crate::cluster::Cluster;
use crate::schedule::{payload_id, peer_due, peer_sender, tagged_payload};
use crate::{trace, SetupPhases, Window, Workload};

/// Group members.
pub const MEMBERS: usize = 4;
/// Bytes per multicast.
pub const PAYLOAD_LEN: usize = 64;
/// Aggregate offered rate, messages per second.
pub const RATE: u64 = 1000;
/// Time-silence period of the group.
pub const TIME_SILENCE: Duration = Duration::from_millis(20);
/// How long after the last send every member must have delivered every
/// admitted message.
const DRAIN: Duration = Duration::from_secs(3);
/// Longest wait for set-up steps.
const SETUP_TIMEOUT: Duration = Duration::from_secs(10);

/// The running workload.
pub struct PeerSym {
    cluster: Cluster,
    seed: u64,
    group: GroupHandle,
    phases: SetupPhases,
    /// Index of the next message (ids run on across windows).
    next_idx: u64,
}

impl Workload for PeerSym {
    fn setup(seed: u64) -> Result<Self, String> {
        let cluster = Cluster::spawn(MEMBERS)?;
        let members = cluster.ids(0..MEMBERS);
        let group = GroupId::new("peer-sym");
        let t_group = Instant::now();
        let mut handle = None;
        for node in &cluster.nodes {
            let (g, m) = (group.clone(), members.clone());
            let config = GroupConfig::peer().with_time_silence(TIME_SILENCE);
            let h = node
                .with_nso(move |nso, now, out| nso.create_peer_group(g, m, config, now, out))
                .map_err(|e| format!("create peer group on {}: {e}", node.node()))?;
            handle = Some(h);
        }
        cluster.await_views(&members, &group, SETUP_TIMEOUT)?;
        Ok(PeerSym {
            cluster,
            seed,
            group: handle.expect("at least one member"),
            phases: SetupPhases {
                group_ready: t_group.elapsed(),
                bind: Duration::ZERO,
            },
            next_idx: 0,
        })
    }

    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn phases(&self) -> SetupPhases {
        self.phases
    }

    fn replicas_addressed(&self) -> u64 {
        0
    }

    fn window(&mut self, length: Duration) -> Window {
        let mut w = Window::default();
        let first = self.next_idx;
        let count = (length.as_secs_f64() * RATE as f64).round().max(1.0) as u64;
        self.next_idx += count;
        let start = Instant::now() + Duration::from_millis(1);
        let due = |idx: u64| start + peer_due(idx - first, RATE);
        let admitted: Vec<AtomicBool> = (0..count).map(|_| AtomicBool::new(false)).collect();
        let sent = AtomicU64::new(0);
        let seed = self.seed;
        let logs = std::thread::scope(|scope| {
            let collectors: Vec<_> = self
                .cluster
                .nodes
                .iter()
                .map(|node| {
                    let (admitted, sent) = (&admitted, &sent);
                    scope.spawn(move || collect(node, seed, first, admitted, sent))
                })
                .collect();
            for idx in first..first + count {
                let at = due(idx);
                if let Some(wait) = at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let t_send = Instant::now();
                w.late.record(t_send - at);
                let node = &self.cluster.nodes[peer_sender(self.seed, idx, MEMBERS)];
                let payload = Bytes::from(tagged_payload(self.seed, idx, PAYLOAD_LEN));
                match send(node, &self.group, idx, payload, at, t_send, &mut w) {
                    Ok(()) => admitted[(idx - first) as usize].store(true, Ordering::SeqCst),
                    Err(e) => {
                        if matches!(e, NewtopError::Overloaded(_)) {
                            w.overloaded += 1;
                        }
                    }
                }
                sent.store(idx - first + 1, Ordering::SeqCst);
            }
            collectors
                .into_iter()
                .map(|c| c.join().expect("collector thread panicked"))
                .collect::<Vec<Log>>()
        });
        w.attempted = count * MEMBERS as u64;
        Self::check(&mut w, first, &admitted, &logs, due);
        w
    }
}

/// What one member delivered in a window, in delivery order.
struct Log {
    delivered: Vec<(u64, Instant)>,
    bad_payloads: u64,
}

/// Drains one member's outputs until it has delivered every admitted
/// message of the window, or [`DRAIN`] after the last send. A delivery
/// whose payload is not exactly the bytes sent counts as bad.
fn collect(
    node: &NodeHandle,
    seed: u64,
    first: u64,
    admitted: &[AtomicBool],
    sent: &AtomicU64,
) -> Log {
    let count = admitted.len() as u64;
    let mut log = Log {
        delivered: Vec::with_capacity(admitted.len()),
        bad_payloads: 0,
    };
    let mut last_send_seen: Option<Instant> = None;
    loop {
        if sent.load(Ordering::SeqCst) == count {
            let since = *last_send_seen.get_or_insert_with(Instant::now);
            let want = admitted.iter().filter(|a| a.load(Ordering::SeqCst)).count();
            if log.delivered.len() >= want || since.elapsed() > DRAIN {
                return log;
            }
        }
        let Ok(o) = node.outputs().recv_timeout(Duration::from_millis(5)) else {
            continue;
        };
        let NsoOutput::PeerDeliver { payload, .. } = o else {
            continue;
        };
        let at = Instant::now();
        match payload_id(&payload) {
            Some(idx)
                if (first..first + count).contains(&idx)
                    && payload[..] == tagged_payload(seed, idx, PAYLOAD_LEN)[..] =>
            {
                log.delivered.push((idx, at));
            }
            _ => log.bad_payloads += 1,
        }
    }
}

/// Multicasts one message from `node`, timing the command round trip
/// (`rt`) and `GroupHandle::send` (`gcs`); the generator's lateness is a
/// `loadgen` span from when the send was due.
fn send(
    node: &NodeHandle,
    group: &GroupHandle,
    idx: u64,
    payload: Bytes,
    due: Instant,
    t_send: Instant,
    w: &mut Window,
) -> Result<(), NewtopError> {
    let h = group.clone();
    let cmd_span = trace::next_id();
    let r = node.with_nso(move |nso, now, out| {
        let start = trace::now_ns();
        let r = h.send(nso, payload, DeliveryOrder::Total, now, out);
        trace::close(
            trace::next_id(),
            cmd_span,
            idx,
            "gcs",
            "GroupHandle::send",
            start,
        );
        r
    });
    w.cmd_rtt.record(t_send.elapsed());
    trace::close(
        cmd_span,
        0,
        idx,
        "rt",
        "NodeHandle::with_nso",
        trace::ns_of(t_send),
    );
    trace::record(trace::Span {
        id: trace::next_id(),
        parent: 0,
        op: idx,
        layer: "loadgen",
        name: "late",
        start: trace::ns_of(due),
        end: trace::ns_of(t_send),
    });
    r
}

impl PeerSym {
    /// The output checks: every member delivers every admitted message
    /// exactly once, in one total order (the payload bytes were checked
    /// on delivery).
    fn check(
        w: &mut Window,
        first: u64,
        admitted: &[AtomicBool],
        logs: &[Log],
        due: impl Fn(u64) -> Instant,
    ) {
        let reference: Vec<u64> = logs[0].delivered.iter().map(|&(idx, _)| idx).collect();
        let mut lat = Histogram::new();
        let mut last: Vec<Option<Instant>> = vec![None; admitted.len()];
        for log in logs {
            w.check_failures += log.bad_payloads;
            let mut seen = vec![false; admitted.len()];
            for (pos, &(idx, at)) in log.delivered.iter().enumerate() {
                let slot = (idx - first) as usize;
                let ok = !seen[slot]
                    && admitted[slot].load(Ordering::SeqCst)
                    && reference.get(pos) == Some(&idx);
                seen[slot] = true;
                if ok {
                    w.done += 1;
                    lat.record(at - due(idx));
                    last[slot] = Some(last[slot].map_or(at, |l| l.max(at)));
                } else {
                    w.check_failures += 1;
                }
            }
        }
        // Reference-order agreement is checked against member 0, so a
        // message member 0 missed fails at every member.
        w.failed = w.attempted - w.done;
        w.lat = lat;
        for (slot, end) in last.iter().enumerate() {
            if let Some(end) = end {
                let idx = first + slot as u64;
                trace::record(trace::Span {
                    id: trace::next_id(),
                    parent: 0,
                    op: idx,
                    layer: trace::OP_LAYER,
                    name: "multicast",
                    start: trace::ns_of(due(idx)),
                    end: trace::ns_of(*end),
                });
            }
        }
    }
}

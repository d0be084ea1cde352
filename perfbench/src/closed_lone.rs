//! `closed_lone`: one client, a closed binding to three active replicas
//! (asymmetric order), `ReplyMode::All`, 64 B args, one call in flight.
//! Like the simulator's `ClientApp`, a timer every 100 ms re-issues a
//! call pending for 100 ms or more (§4.1). An op is one call.
//!
//! Latency-bound: flush timers, event-loop wake-ups and flow-credit
//! refill dominate. It is the workload that shows the lone-sender
//! credit stall (sheds in `flow.shed`, retries in `inv.retry_ratio`).

use std::collections::HashSet;
use std::time::{Duration, Instant};

use bytes::Bytes;
use newtop::nso::{BindOptions, GroupHandle, NewtopError, NsoOutput};
use newtop_gcs::group::{GroupConfig, GroupId};
use newtop_invocation::api::{CallId, OpenOptimisation, Replication, ReplyMode};
use newtop_net::site::NodeId;
use newtop_rt::NodeHandle;

use crate::cluster::{digest, replies_ok, servant, Cluster};
use crate::schedule::tagged_payload;
use crate::{trace, SetupPhases, Window, Workload};

/// Bytes of args per call.
pub const ARGS_LEN: usize = 64;
/// Replicas in the server group.
pub const REPLICAS: usize = 3;
/// Period of the client's retry timer, and the age at which it
/// re-issues a pending call.
pub const RETRY_AFTER: Duration = Duration::from_millis(100);
/// A call not complete this long after it was first issued fails.
pub const DEADLINE: Duration = Duration::from_secs(2);
/// Longest wait for set-up steps.
const SETUP_TIMEOUT: Duration = Duration::from_secs(10);

/// The running workload.
pub struct ClosedLone {
    cluster: Cluster,
    seed: u64,
    servers: Vec<NodeId>,
    binding: GroupHandle,
    phases: SetupPhases,
    next_call: u64,
    completed: HashSet<CallId>,
}

impl ClosedLone {
    fn client(&self) -> &NodeHandle {
        &self.cluster.nodes[REPLICAS]
    }
}

impl Workload for ClosedLone {
    fn setup(seed: u64) -> Result<Self, String> {
        let cluster = Cluster::spawn(REPLICAS + 1)?;
        let servers = cluster.ids(0..REPLICAS);
        let group = GroupId::new("closed-svc");
        let t_group = Instant::now();
        for &s in &servers {
            let (g, members) = (group.clone(), servers.clone());
            let stats = std::sync::Arc::clone(&cluster.servants);
            cluster.nodes[s.index() as usize].with_nso(move |nso, now, out| {
                nso.create_server_group(
                    g.clone(),
                    members,
                    Replication::Active,
                    OpenOptimisation::None,
                    GroupConfig::request_reply(),
                    now,
                    out,
                )
                .map(|()| nso.register_group_servant(g, servant(s, stats)))
                .map_err(|e| format!("create server group on {s}: {e}"))
            })?;
        }
        cluster.await_views(&servers, &group, SETUP_TIMEOUT)?;
        let group_ready = t_group.elapsed();

        let t_bind = Instant::now();
        let client = &cluster.nodes[REPLICAS];
        let opts = BindOptions::closed(servers.clone()).with_reply_mode(ReplyMode::All);
        let binding = client
            .with_nso(move |nso, now, out| nso.bind(group, opts, now, out))
            .map_err(|e| format!("bind: {e}"))?;
        client
            .wait_for_output(SETUP_TIMEOUT, |o| {
                matches!(o, NsoOutput::BindingReady { .. })
            })
            .ok_or("closed binding not ready")?;
        let bind = t_bind.elapsed();
        Ok(ClosedLone {
            cluster,
            seed,
            servers,
            binding,
            phases: SetupPhases { group_ready, bind },
            next_call: 1,
            completed: HashSet::new(),
        })
    }

    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn phases(&self) -> SetupPhases {
        self.phases
    }

    fn replicas_addressed(&self) -> u64 {
        REPLICAS as u64
    }

    fn wire_by_window(&self) -> bool {
        true
    }

    fn window(&mut self, length: Duration) -> Window {
        let mut w = Window::default();
        let start = Instant::now();
        let mut next_tick = start + RETRY_AFTER;
        while start.elapsed() < length {
            let call = self.next_call;
            self.next_call += 1;
            w.attempted += 1;
            let args = tagged_payload(self.seed, call, ARGS_LEN);
            let args_digest = digest(&args);
            let op_span = trace::next_id();
            let t0 = Instant::now();
            let issued = self.command(
                &mut w,
                op_span,
                call,
                "GroupHandle::invoke",
                move |nso, now, out, h| {
                    h.invoke(nso, "call", Bytes::from(args), ReplyMode::All, now, out)
                },
            );
            let cid = match issued {
                Ok(cid) => cid,
                Err(e) => {
                    if matches!(e, NewtopError::Overloaded(_)) {
                        w.overloaded += 1;
                    }
                    w.failed += 1;
                    continue;
                }
            };
            loop {
                let now = Instant::now();
                if now >= t0 + DEADLINE {
                    w.failed += 1;
                    break;
                }
                if now >= next_tick {
                    // The retry timer: re-issue the call if it has been
                    // pending for a full period since it was issued.
                    next_tick += RETRY_AFTER;
                    if now - t0 >= RETRY_AFTER {
                        w.retries += 1;
                        let number = cid.number;
                        if let Err(NewtopError::Overloaded(_)) = self.command(
                            &mut w,
                            op_span,
                            call,
                            "GroupHandle::retry",
                            move |nso, now, out, h| h.retry(nso, number, now, out),
                        ) {
                            w.overloaded += 1;
                        }
                    }
                    continue;
                }
                let wait = next_tick.min(t0 + DEADLINE) - now;
                let Ok(output) = self.client().outputs().recv_timeout(wait) else {
                    continue;
                };
                if let NsoOutput::InvocationComplete {
                    call: done,
                    replies,
                } = output
                {
                    if !self.completed.insert(done) {
                        // No call may complete twice.
                        w.check_failures += 1;
                        w.failed += 1;
                        continue;
                    }
                    if done != cid {
                        // A late completion of a call already counted
                        // as failed at its deadline.
                        continue;
                    }
                    let t1 = Instant::now();
                    if replies_ok(call, args_digest, &replies, &self.servers, true) {
                        w.done += 1;
                        w.lat.record(t1 - t0);
                    } else {
                        w.check_failures += 1;
                        w.failed += 1;
                    }
                    trace::record(trace::Span {
                        id: op_span,
                        parent: 0,
                        op: call,
                        layer: trace::OP_LAYER,
                        name: "call",
                        start: trace::ns_of(t0),
                        end: trace::ns_of(t1),
                    });
                    break;
                }
            }
        }
        // A second completion already queued is caught here; later ones
        // are caught while the next window's calls wait.
        while let Ok(o) = self.client().outputs().try_recv() {
            if let NsoOutput::InvocationComplete { call: done, .. } = o {
                if !self.completed.insert(done) {
                    w.check_failures += 1;
                    w.failed += 1;
                }
            }
        }
        w
    }
}

impl ClosedLone {
    /// Runs `f` against the binding inside the client's event loop,
    /// timing the round trip (`rt` span) and the call itself
    /// (`invocation` span).
    fn command<R: Send + 'static>(
        &self,
        w: &mut Window,
        op_span: u64,
        call: u64,
        name: &'static str,
        f: impl FnOnce(
                &mut newtop::nso::Nso,
                newtop_net::time::SimTime,
                &mut newtop_net::sim::Outbox,
                GroupHandle,
            ) -> R
            + Send
            + 'static,
    ) -> R {
        let h = self.binding.clone();
        let cmd_span = trace::next_id();
        let t0 = Instant::now();
        let r = self.client().with_nso(move |nso, now, out| {
            let start = trace::now_ns();
            let r = f(nso, now, out, h);
            trace::close(trace::next_id(), cmd_span, call, "invocation", name, start);
            r
        });
        w.cmd_rtt.record(t0.elapsed());
        trace::close(
            cmd_span,
            op_span,
            call,
            "rt",
            "NodeHandle::with_nso",
            trace::ns_of(t0),
        );
        r
    }
}

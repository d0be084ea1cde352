//! `open_multigroup`: four services, each actively replicated on the
//! same three server nodes, with request managers spread across the
//! servers. Two client nodes are each bound (open) to all four services
//! with a fixed number of calls in flight per binding; 1 KiB args,
//! `ReplyMode::First`. An op is one call.
//!
//! CPU-bound on a small machine: marshalling, encode-once fan-out,
//! batching, shards and TCP writes dominate. Open bindings refill flow
//! credits from replies, so the lone-sender stall path stays idle.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use bytes::Bytes;
use newtop::nso::{BindOptions, GroupHandle, NewtopError, NsoOutput};
use newtop_gcs::group::{GroupConfig, GroupId};
use newtop_invocation::api::{CallId, OpenOptimisation, Replication, ReplyMode};
use newtop_net::site::NodeId;

use crate::cluster::{digest, replies_ok, servant, Cluster};
use crate::measure::median;
use crate::schedule::{call_id, tagged_payload};
use crate::{trace, SetupPhases, Window, Workload};

/// Bytes of args per call.
pub const ARGS_LEN: usize = 1024;
/// Services (server groups).
pub const SERVICES: usize = 4;
/// Server nodes; every service is replicated on all of them.
pub const SERVERS: usize = 3;
/// Client nodes; each binds to every service.
pub const CLIENTS: usize = 2;
/// Calls kept in flight on each binding.
pub const IN_FLIGHT: usize = 1;
/// A call not complete this long after it was issued fails.
pub const DEADLINE: Duration = Duration::from_secs(2);
/// How long the load thread blocks on one client's outputs when neither has
/// any ready.
const POLL: Duration = Duration::from_micros(200);
/// Longest wait for set-up steps.
const SETUP_TIMEOUT: Duration = Duration::from_secs(10);

/// One call in flight.
struct Pending {
    call: u64,
    client: usize,
    service: usize,
    digest: u64,
    issued: Instant,
    op_span: u64,
}

/// The running workload.
pub struct OpenMultigroup {
    cluster: Cluster,
    seed: u64,
    servers: Vec<NodeId>,
    /// `bindings[client][service]`.
    bindings: Vec<Vec<GroupHandle>>,
    phases: SetupPhases,
    /// Calls issued so far on each binding, `[client][service]`.
    issued: Vec<[u64; SERVICES]>,
    completed: HashSet<CallId>,
}

impl Workload for OpenMultigroup {
    fn setup(seed: u64) -> Result<Self, String> {
        let cluster = Cluster::spawn(SERVERS + CLIENTS)?;
        let servers = cluster.ids(0..SERVERS);
        let services: Vec<GroupId> = (0..SERVICES)
            .map(|k| GroupId::new(format!("svc-{k}")))
            .collect();
        let t_group = Instant::now();
        for &s in &servers {
            let (groups, members) = (services.clone(), servers.clone());
            let stats = std::sync::Arc::clone(&cluster.servants);
            cluster.nodes[s.index() as usize].with_nso(move |nso, now, out| {
                for g in groups {
                    nso.create_server_group(
                        g.clone(),
                        members.clone(),
                        Replication::Active,
                        OpenOptimisation::None,
                        GroupConfig::request_reply(),
                        now,
                        out,
                    )
                    .map_err(|e| format!("create {g} on {s}: {e}"))?;
                    nso.register_group_servant(g, servant(s, std::sync::Arc::clone(&stats)));
                }
                Ok::<(), String>(())
            })?;
        }
        for g in &services {
            cluster.await_views(&servers, g, SETUP_TIMEOUT)?;
        }
        let group_ready = t_group.elapsed();

        let mut bindings = Vec::with_capacity(CLIENTS);
        let mut bind_ms = Vec::new();
        for c in 0..CLIENTS {
            let client = &cluster.nodes[SERVERS + c];
            // Request managers rotate over the servers.
            let targets: Vec<(GroupId, NodeId)> = services
                .iter()
                .enumerate()
                .map(|(k, g)| (g.clone(), servers[(c + k) % SERVERS]))
                .collect();
            let t_bind = Instant::now();
            let handles = client.with_nso(move |nso, now, out| {
                targets
                    .into_iter()
                    .map(|(g, manager)| {
                        let opts = BindOptions::open(manager).with_reply_mode(ReplyMode::First);
                        nso.bind(g, opts, now, out)
                    })
                    .collect::<Result<Vec<_>, _>>()
            });
            let handles = handles.map_err(|e| format!("bind: {e}"))?;
            for _ in 0..SERVICES {
                client
                    .wait_for_output(SETUP_TIMEOUT, |o| {
                        matches!(o, NsoOutput::BindingReady { .. })
                    })
                    .ok_or("open binding not ready")?;
                bind_ms.push(t_bind.elapsed().as_secs_f64());
            }
            bindings.push(handles);
        }
        Ok(OpenMultigroup {
            cluster,
            seed,
            servers,
            bindings,
            phases: SetupPhases {
                group_ready,
                bind: Duration::from_secs_f64(median(&bind_ms)),
            },
            issued: vec![[0; SERVICES]; CLIENTS],
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
        SERVERS as u64
    }

    fn window(&mut self, length: Duration) -> Window {
        let mut w = Window::default();
        let mut pending: HashMap<CallId, Pending> = HashMap::new();
        let start = Instant::now();
        let stop = start + length;
        for c in 0..CLIENTS {
            let services: Vec<usize> = (0..SERVICES).flat_map(|k| [k; IN_FLIGHT]).collect();
            self.issue(c, &services, &mut pending, &mut w);
        }
        let mut turn = 0;
        while !pending.is_empty() {
            if Instant::now() > stop + DEADLINE {
                w.failed += pending.len() as u64;
                break;
            }
            // Binding slots freed this round, per client.
            let mut freed = vec![Vec::new(); CLIENTS];
            for (c, slots) in freed.iter_mut().enumerate() {
                while let Ok(o) = self.cluster.nodes[SERVERS + c].outputs().try_recv() {
                    slots.extend(self.complete(o, &mut pending, &mut w));
                }
            }
            if freed.iter().all(Vec::is_empty) {
                turn = (turn + 1) % CLIENTS;
                let outputs = self.cluster.nodes[SERVERS + turn].outputs();
                if let Ok(o) = outputs.recv_timeout(POLL) {
                    freed[turn].extend(self.complete(o, &mut pending, &mut w));
                }
                // A call past its deadline fails, and frees its slot.
                let now = Instant::now();
                pending.retain(|_, p| {
                    let live = now - p.issued <= DEADLINE;
                    if !live {
                        w.failed += 1;
                        freed[p.client].push(p.service);
                    }
                    live
                });
            }
            if Instant::now() < stop {
                for (c, slots) in freed.iter().enumerate() {
                    if !slots.is_empty() {
                        self.issue(c, slots, &mut pending, &mut w);
                    }
                }
            }
        }
        w
    }
}

impl OpenMultigroup {
    /// Issues one call on each listed service's binding of `client`, in
    /// one command to the client's event loop.
    fn issue(
        &mut self,
        client: usize,
        services: &[usize],
        pending: &mut HashMap<CallId, Pending>,
        w: &mut Window,
    ) {
        let calls: Vec<(u64, GroupHandle, Bytes, u64, u64)> = services
            .iter()
            .map(|&k| {
                self.issued[client][k] += 1;
                let call = call_id(client, k, self.issued[client][k]);
                let args = tagged_payload(self.seed, call, ARGS_LEN);
                let d = digest(&args);
                (
                    call,
                    self.bindings[client][k].clone(),
                    Bytes::from(args),
                    d,
                    trace::next_id(),
                )
            })
            .collect();
        let meta: Vec<(u64, u64, u64)> = calls.iter().map(|c| (c.0, c.3, c.4)).collect();
        let cmd_span = trace::next_id();
        // A command issuing one call is that call's child; a batch is a
        // root of its own.
        let cmd_parent = if calls.len() == 1 { calls[0].4 } else { 0 };
        let t0 = Instant::now();
        let results = self.cluster.nodes[SERVERS + client].with_nso(move |nso, now, out| {
            calls
                .into_iter()
                .map(|(call, h, args, _, _)| {
                    let start = trace::now_ns();
                    let r = h.invoke(nso, "call", args, ReplyMode::First, now, out);
                    trace::close(
                        trace::next_id(),
                        cmd_span,
                        call,
                        "invocation",
                        "GroupHandle::invoke",
                        start,
                    );
                    r
                })
                .collect::<Vec<Result<CallId, NewtopError>>>()
        });
        w.cmd_rtt.record(t0.elapsed());
        trace::close(
            cmd_span,
            cmd_parent,
            0,
            "rt",
            "NodeHandle::with_nso",
            trace::ns_of(t0),
        );
        for ((call, d, op_span), (r, &service)) in
            meta.into_iter().zip(results.into_iter().zip(services))
        {
            w.attempted += 1;
            match r {
                Ok(cid) => {
                    pending.insert(
                        cid,
                        Pending {
                            call,
                            client,
                            service,
                            digest: d,
                            issued: t0,
                            op_span,
                        },
                    );
                }
                Err(e) => {
                    if matches!(e, NewtopError::Overloaded(_)) {
                        w.overloaded += 1;
                    }
                    w.failed += 1;
                }
            }
        }
    }

    /// Accounts one client output; returns the service whose binding has
    /// a free slot when it completed a pending call.
    fn complete(
        &mut self,
        o: NsoOutput,
        pending: &mut HashMap<CallId, Pending>,
        w: &mut Window,
    ) -> Option<usize> {
        let NsoOutput::InvocationComplete { call: cid, replies } = o else {
            return None;
        };
        let t1 = Instant::now();
        if !self.completed.insert(cid) {
            // No call may complete twice.
            w.check_failures += 1;
            w.failed += 1;
            return None;
        }
        // A call missing from `pending` already failed at its deadline.
        let p = pending.remove(&cid)?;
        if replies_ok(p.call, p.digest, &replies, &self.servers, false) {
            w.done += 1;
            w.lat.record(t1 - p.issued);
        } else {
            w.check_failures += 1;
            w.failed += 1;
        }
        trace::record(trace::Span {
            id: p.op_span,
            parent: 0,
            op: p.call,
            layer: trace::OP_LAYER,
            name: "call",
            start: trace::ns_of(p.issued),
            end: trace::ns_of(t1),
        });
        Some(p.service)
    }
}

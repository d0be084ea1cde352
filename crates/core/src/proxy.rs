//! The smart proxy: automatic binding, rebinding and retry.
//!
//! §2.1 of the paper: "a client application can be provided with a smart
//! proxy for the server that automatically does the rebinding as
//! suggested here", and §4.1's retry discipline (same call number,
//! servers deduplicate from their retained last reply). A [`SmartProxy`]
//! packages that policy so applications just call
//! [`SmartProxy::invoke`] and feed it the NSO's outputs:
//!
//! * it binds on start (open or closed, per [`ProxyStyle`]);
//! * calls made before the binding is ready are queued;
//! * on a broken binding it rebinds to the next replica and retries every
//!   outstanding call with its original number;
//! * calls stalled longer than the retry interval are re-issued (lost
//!   requests — e.g. one caught in a view-change window — are recovered);
//! * after exhausting every replica [`ProxyEvent::GaveUp`] is reported.

use std::collections::BTreeMap;
use std::time::Duration;

use bytes::Bytes;

use newtop_gcs::group::GroupId;
use newtop_invocation::api::{CallId, ReplyMode};
use newtop_net::sim::Outbox;
use newtop_net::site::NodeId;
use newtop_net::time::SimTime;

use crate::nso::{BindOptions, BindTarget, GroupHandle, NewtopError, Nso, NsoOutput};
use crate::tags;

/// How the proxy attaches to the service.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ProxyStyle {
    /// A closed client/server group with every replica (LAN-friendly;
    /// failures are masked without rebinding).
    Closed,
    /// Open bindings, one replica at a time (WAN-friendly; the proxy
    /// rebinds on failure). `restricted` starts from the designated
    /// manager (the lowest-ranked replica) instead of the first listed.
    Open {
        /// Bind to the designated manager first (§4.2's restricted
        /// group).
        restricted: bool,
    },
}

/// Things the proxy reports to the application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProxyEvent {
    /// The first binding is up; queued calls have been issued.
    Ready,
    /// A call completed.
    Complete {
        /// The proxy-level call number (as returned by
        /// [`SmartProxy::invoke`]).
        number: u64,
        /// `(server, result)` pairs.
        replies: Vec<(NodeId, Bytes)>,
    },
    /// The proxy rebound to another replica (diagnostic).
    Rebound {
        /// The replica now acting as request manager.
        manager: NodeId,
    },
    /// Every replica has been tried without success.
    GaveUp,
}

#[derive(Clone, Debug)]
struct QueuedCall {
    op: String,
    args: Bytes,
    mode: ReplyMode,
}

#[derive(Clone, Debug)]
enum State {
    Unbound,
    Binding,
    Bound(GroupHandle),
    Failed,
}

/// Automatic bind/rebind/retry for one replicated service. See the
/// [module docs](self).
#[derive(Debug)]
pub struct SmartProxy {
    server_group: GroupId,
    servers: Vec<NodeId>,
    style: ProxyStyle,
    opts: BindOptions,
    retry_interval: Duration,
    state: State,
    manager_index: usize,
    failures_in_a_row: usize,
    /// Calls not yet issued (no binding yet).
    queued: Vec<(u64, QueuedCall)>,
    /// Issued and awaiting completion: the NSO core's call number →
    /// (proxy number, issue time, the call for re-issue).
    outstanding: BTreeMap<u64, (u64, SimTime, QueuedCall)>,
    next_number: u64,
    ticker_armed: bool,
}

impl SmartProxy {
    /// Creates a proxy for `server_group`, whose replicas are `servers`.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty.
    #[must_use]
    pub fn new(
        server_group: GroupId,
        servers: Vec<NodeId>,
        style: ProxyStyle,
        opts: BindOptions,
    ) -> Self {
        assert!(!servers.is_empty(), "a service needs at least one replica");
        let mut servers = servers;
        if matches!(style, ProxyStyle::Open { restricted: true }) {
            servers.sort_unstable(); // designated manager first
        }
        SmartProxy {
            server_group,
            servers,
            style,
            opts,
            retry_interval: Duration::from_millis(200),
            state: State::Unbound,
            manager_index: 0,
            failures_in_a_row: 0,
            queued: Vec::new(),
            outstanding: BTreeMap::new(),
            next_number: 1,
            ticker_armed: false,
        }
    }

    /// Overrides the stalled-call retry interval (default 200 ms).
    #[must_use]
    pub fn with_retry_interval(mut self, interval: Duration) -> Self {
        self.retry_interval = interval;
        self
    }

    /// The timer tag the proxy uses for its retry ticker. Route this tag
    /// from `NsoApp::on_timer` into [`SmartProxy::on_timer`].
    pub const TICKER_TAG: u64 = tags::APP_BASE + 0x5A17;

    /// Starts the first binding. Call once (e.g. from `on_start`).
    pub fn start(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        self.bind(nso, now, out);
        if !self.ticker_armed {
            self.ticker_armed = true;
            out.set_timer(self.retry_interval, Self::TICKER_TAG);
        }
    }

    /// Invokes an operation; returns the proxy-level call number matched
    /// by the eventual [`ProxyEvent::Complete`]. Queued until the binding
    /// is ready.
    pub fn invoke(
        &mut self,
        nso: &mut Nso,
        op: &str,
        args: Bytes,
        mode: ReplyMode,
        now: SimTime,
        out: &mut Outbox,
    ) -> u64 {
        let number = self.next_number;
        self.next_number += 1;
        let call = QueuedCall {
            op: op.to_owned(),
            args,
            mode,
        };
        match self.state.clone() {
            State::Bound(binding) => {
                self.issue(nso, &binding, number, &call, now, out);
            }
            _ => self.queued.push((number, call)),
        }
        number
    }

    /// Number of calls issued or queued but not yet complete.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.outstanding.len() + self.queued.len()
    }

    fn bind(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        self.state = State::Binding;
        let target = match self.style {
            ProxyStyle::Closed => BindTarget::Closed {
                servers: self.servers.clone(),
            },
            ProxyStyle::Open { .. } => BindTarget::Open {
                manager: self.servers[self.manager_index % self.servers.len()],
            },
        };
        let opts = BindOptions {
            target,
            ..self.opts.clone()
        };
        if nso.bind(self.server_group.clone(), opts, now, out).is_err() {
            self.state = State::Failed;
        }
    }

    fn issue(
        &mut self,
        nso: &mut Nso,
        binding: &GroupHandle,
        number: u64,
        call: &QueuedCall,
        now: SimTime,
        out: &mut Outbox,
    ) {
        // The NSO's client core allocates its own call numbers; the proxy
        // maps them back to its own. (`invoke` fails if the binding raced
        // away or the call was shed — it is then re-queued, and the next
        // bind or retry tick issues it again.)
        match binding.invoke(nso, &call.op, call.args.clone(), call.mode, now, out) {
            Ok(id) => {
                self.outstanding
                    .insert(id.number, (number, now, call.clone()));
            }
            Err(_) => self.queued.push((number, call.clone())),
        }
    }

    /// Feeds one NSO output. Returns an event when the output concerned
    /// this proxy.
    pub fn on_output(
        &mut self,
        nso: &mut Nso,
        output: &NsoOutput,
        now: SimTime,
        out: &mut Outbox,
    ) -> Option<ProxyEvent> {
        match output {
            NsoOutput::BindingReady { group } => {
                if !matches!(self.state, State::Binding) {
                    return None;
                }
                let binding = nso.handle_for(group)?;
                self.state = State::Bound(binding.clone());
                self.failures_in_a_row = 0;
                // Retry outstanding calls (original core numbers, so
                // servers deduplicate), then flush the queue.
                let mut numbers: Vec<u64> = self.outstanding.keys().copied().collect();
                numbers.sort_unstable();
                for number in numbers {
                    if binding.retry(nso, number, now, out).is_err() {
                        // The core dropped the call (shouldn't happen);
                        // fall back to re-issuing it fresh.
                        if let Some((pn, _, call)) = self.outstanding.remove(&number) {
                            self.queued.push((pn, call));
                        }
                    }
                }
                let queued = std::mem::take(&mut self.queued);
                for (number, call) in queued {
                    self.issue(nso, &binding, number, &call, now, out);
                }
                Some(ProxyEvent::Ready)
            }
            NsoOutput::BindFailed { .. } | NsoOutput::BindingBroken { .. } => {
                if matches!(self.state, State::Failed) {
                    return None;
                }
                self.failures_in_a_row += 1;
                if self.failures_in_a_row >= self.servers.len().max(2) * 2 {
                    self.state = State::Failed;
                    return Some(ProxyEvent::GaveUp);
                }
                self.manager_index += 1;
                let manager = self.servers[self.manager_index % self.servers.len()];
                self.bind(nso, now, out);
                Some(ProxyEvent::Rebound { manager })
            }
            NsoOutput::InvocationComplete { call, replies } => {
                let (proxy_number, _, _) = self.outstanding.remove(&call.number)?;
                Some(ProxyEvent::Complete {
                    number: proxy_number,
                    replies: replies.clone(),
                })
            }
            _ => None,
        }
    }

    /// Feeds a fired timer. Route [`SmartProxy::TICKER_TAG`] here.
    pub fn on_timer(&mut self, nso: &mut Nso, tag: u64, now: SimTime, out: &mut Outbox) {
        if tag != Self::TICKER_TAG {
            return;
        }
        if let State::Bound(binding) = self.state.clone() {
            let stalled: Vec<u64> = self
                .outstanding
                .iter()
                .filter(|(_, (_, at, _))| now.saturating_since(*at) > self.retry_interval)
                .map(|(&n, _)| n)
                .collect();
            for number in stalled {
                match binding.retry(nso, number, now, out) {
                    // Shed: the call is still pending; the next tick
                    // tries again.
                    Err(NewtopError::Overloaded(_)) => {}
                    // Sent — or the binding raced away, and the rebind
                    // that follows retries every outstanding call.
                    Ok(()) | Err(_) => {
                        if let Some(entry) = self.outstanding.get_mut(&number) {
                            entry.1 = now;
                        }
                    }
                }
            }
            // Calls shed at issue go out again.
            let queued = std::mem::take(&mut self.queued);
            for (number, call) in queued {
                self.issue(nso, &binding, number, &call, now, out);
            }
        }
        out.set_timer(self.retry_interval, Self::TICKER_TAG);
    }
}

/// Identifies the completed call when matching manually against
/// [`CallId`]s from the NSO layer.
#[must_use]
pub fn call_number(call: &CallId) -> u64 {
    call.number
}

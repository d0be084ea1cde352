//! The client side of request-reply invocation.
//!
//! A [`ClientCore`] owns a client's bindings to server groups and its
//! in-flight calls. It is a pure state machine: the owning NSO feeds it
//! delivered group messages and direct replies, and executes the
//! [`InvCommand`]s it emits.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use bytes::Bytes;

use newtop_gcs::group::GroupId;
use newtop_net::site::NodeId;
use newtop_orb::cdr::CdrDecode;

use crate::api::{BindingStyle, CallId, InvCommand, InvMessage, ReplyMode};

/// Errors from the client API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// No binding is registered under that client/server group.
    UnknownBinding(GroupId),
    /// The call number is not pending (already complete or never made).
    UnknownCall(u64),
    /// The pending-call table is full: admission control shed the call
    /// before anything was sent. Retry after in-flight calls complete.
    Overloaded(GroupId),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::UnknownBinding(g) => write!(f, "no binding for group {g}"),
            ClientError::UnknownCall(n) => write!(f, "no pending call #{n}"),
            ClientError::Overloaded(g) => {
                write!(f, "pending-call table full; call to {g} shed")
            }
        }
    }
}

impl Error for ClientError {}

/// Events the client core reports to the application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientEvent {
    /// An invocation gathered the replies its mode required.
    Complete {
        /// The completed call.
        call: CallId,
        /// `(server, result)` pairs (empty for one-way sends).
        replies: Vec<(NodeId, Bytes)>,
    },
    /// An open binding broke: its request manager left the client/server
    /// group view (crash or disconnection, §4.1). The smart proxy should
    /// rebind and retry the listed calls.
    BindingBroken {
        /// The broken client/server group.
        group: GroupId,
        /// The manager that disappeared.
        manager: NodeId,
        /// Call numbers still pending on this binding.
        pending_calls: Vec<u64>,
    },
}

#[derive(Clone, Debug)]
struct BindingState {
    style: BindingStyle,
    /// Number of servers behind this binding (for majority/all counts in
    /// the closed style).
    server_count: usize,
}

#[derive(Clone, Debug)]
struct CallState {
    group: GroupId,
    op: String,
    args: Bytes,
    mode: ReplyMode,
    replies: Vec<(NodeId, Bytes)>,
    needed: usize,
}

/// Client-side invocation state machine. See the [module docs](self).
#[derive(Debug)]
pub struct ClientCore {
    node: NodeId,
    next_call: u64,
    bindings: BTreeMap<GroupId, BindingState>,
    calls: BTreeMap<u64, CallState>,
    /// Admission bound on `calls`; new invocations beyond it are shed.
    max_pending: usize,
    /// Invocations shed by the admission bound since creation.
    shed: u64,
}

impl ClientCore {
    /// Creates the client core for `node` with the default pending-call
    /// bound from [`newtop_flow::FlowConfig`].
    #[must_use]
    pub fn new(node: NodeId) -> Self {
        ClientCore {
            node,
            next_call: 1,
            bindings: BTreeMap::new(),
            calls: BTreeMap::new(),
            max_pending: newtop_flow::FlowConfig::default().max_pending_calls,
            shed: 0,
        }
    }

    /// Sets the most calls that may await replies at once (clamped to at
    /// least 1); further invocations shed with [`ClientError::Overloaded`].
    #[must_use]
    pub fn with_max_pending_calls(mut self, max: usize) -> Self {
        self.max_pending = max.max(1);
        self
    }

    /// Invocations shed by the pending-call bound since creation.
    #[must_use]
    pub fn shed_count(&self) -> u64 {
        self.shed
    }

    /// The owning node.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Registers a binding: the client/server group `group` attaches this
    /// client to a service of `server_count` replicas in the given style.
    pub fn register_binding(&mut self, group: GroupId, style: BindingStyle, server_count: usize) {
        self.bindings.insert(
            group,
            BindingState {
                style,
                server_count,
            },
        );
    }

    /// Removes a binding (the group was disbanded). Pending calls remain
    /// and can be re-issued against a new binding with
    /// [`Self::retry`].
    pub fn remove_binding(&mut self, group: &GroupId) {
        self.bindings.remove(group);
    }

    /// Whether a binding exists for `group`.
    #[must_use]
    pub fn has_binding(&self, group: &GroupId) -> bool {
        self.bindings.contains_key(group)
    }

    /// The binding style of `group`, if bound.
    #[must_use]
    pub fn binding_style(&self, group: &GroupId) -> Option<&BindingStyle> {
        self.bindings.get(group).map(|b| &b.style)
    }

    /// Call numbers still awaiting replies.
    #[must_use]
    pub fn pending_calls(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.calls.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Issues an invocation over a binding. Returns the call id and the
    /// commands to execute. One-way sends complete immediately (the
    /// returned event list contains the completion).
    ///
    /// # Errors
    ///
    /// [`ClientError::UnknownBinding`] if `group` is not bound;
    /// [`ClientError::Overloaded`] if the pending-call table is full (the
    /// call is shed before anything is sent; one-way sends, which never
    /// enter the table, are exempt).
    pub fn invoke(
        &mut self,
        group: &GroupId,
        op: &str,
        args: Bytes,
        mode: ReplyMode,
    ) -> Result<(CallId, Vec<InvCommand>, Vec<ClientEvent>), ClientError> {
        let binding = self
            .bindings
            .get(group)
            .ok_or_else(|| ClientError::UnknownBinding(group.clone()))?;
        if mode != ReplyMode::OneWay && self.calls.len() >= self.max_pending {
            self.shed += 1;
            return Err(ClientError::Overloaded(group.clone()));
        }
        let call = CallId {
            client: self.node,
            number: self.next_call,
        };
        self.next_call += 1;
        let msg = InvMessage::Request {
            call,
            op: op.to_owned(),
            args: args.clone(),
            mode,
        };
        let commands = vec![InvCommand::multicast(group.clone(), &msg)];
        let mut events = Vec::new();
        if mode == ReplyMode::OneWay {
            events.push(ClientEvent::Complete {
                call,
                replies: Vec::new(),
            });
        } else {
            let needed = match binding.style {
                // The manager collects; the client waits for its single
                // relayed answer.
                BindingStyle::Open { .. } => 1,
                BindingStyle::Closed => mode.needed(binding.server_count),
            };
            self.calls.insert(
                call.number,
                CallState {
                    group: group.clone(),
                    op: op.to_owned(),
                    args,
                    mode,
                    replies: Vec::new(),
                    needed: needed.max(1),
                },
            );
        }
        Ok((call, commands, events))
    }

    /// Takes back the call [`Self::invoke`] just issued, whose request
    /// never left the node (the group layer shed its multicast): nothing
    /// stays pending for it, and since no server can have seen its
    /// number, the next call reuses it.
    pub fn abandon(&mut self, call_number: u64) {
        self.calls.remove(&call_number);
        if call_number + 1 == self.next_call {
            self.next_call = call_number;
        }
    }

    /// Re-issues a pending call over `group` (typically a fresh binding
    /// after a rebind), keeping the same call number so servers can
    /// deduplicate (§4.1).
    ///
    /// # Errors
    ///
    /// [`ClientError::UnknownCall`] if the call is not pending;
    /// [`ClientError::UnknownBinding`] if `group` is not bound.
    pub fn retry(
        &mut self,
        call_number: u64,
        group: &GroupId,
    ) -> Result<Vec<InvCommand>, ClientError> {
        if !self.bindings.contains_key(group) {
            return Err(ClientError::UnknownBinding(group.clone()));
        }
        let node = self.node;
        let state = self
            .calls
            .get_mut(&call_number)
            .ok_or(ClientError::UnknownCall(call_number))?;
        state.group = group.clone();
        state.replies.clear();
        let msg = InvMessage::Request {
            call: CallId {
                client: node,
                number: call_number,
            },
            op: state.op.clone(),
            args: state.args.clone(),
            mode: state.mode,
        };
        Ok(vec![InvCommand::multicast(group.clone(), &msg)])
    }

    /// Feeds a message delivered in one of the client's groups (or
    /// received directly). Unknown or irrelevant payloads are ignored.
    pub fn on_message(&mut self, payload: &[u8]) -> Vec<ClientEvent> {
        let Ok(msg) = InvMessage::from_cdr(payload) else {
            return Vec::new();
        };
        self.on_decoded(msg)
    }

    /// Like [`ClientCore::on_message`] for an already-unmarshalled
    /// message. Hosts that decode at their ingest boundary (to count
    /// malformed input) use this to avoid unmarshalling twice.
    pub fn on_decoded(&mut self, msg: InvMessage) -> Vec<ClientEvent> {
        match msg {
            InvMessage::RelayedReply { call, replies } => self.complete_with(call, replies),
            InvMessage::DirectReply {
                call,
                replier,
                result,
            } => self.accumulate_direct(call, replier, result),
            _ => Vec::new(),
        }
    }

    fn complete_with(&mut self, call: CallId, replies: Vec<(NodeId, Bytes)>) -> Vec<ClientEvent> {
        if call.client != self.node {
            return Vec::new();
        }
        if self.calls.remove(&call.number).is_none() {
            return Vec::new(); // duplicate or stale
        }
        vec![ClientEvent::Complete { call, replies }]
    }

    fn accumulate_direct(
        &mut self,
        call: CallId,
        replier: NodeId,
        result: Bytes,
    ) -> Vec<ClientEvent> {
        if call.client != self.node {
            return Vec::new();
        }
        let Some(state) = self.calls.get_mut(&call.number) else {
            return Vec::new();
        };
        if state.replies.iter().any(|(n, _)| *n == replier) {
            return Vec::new(); // duplicate from a retry
        }
        state.replies.push((replier, result));
        if state.replies.len() >= state.needed {
            if let Some(state) = self.calls.remove(&call.number) {
                return vec![ClientEvent::Complete {
                    call,
                    replies: state.replies,
                }];
            }
            return Vec::new();
        }
        Vec::new()
    }

    /// Notifies the core that the membership behind a binding changed.
    ///
    /// * Open binding, manager gone → [`ClientEvent::BindingBroken`]; the
    ///   binding is removed and its pending calls reported for retry.
    /// * Closed binding → the server count is updated and quorum needs
    ///   are re-evaluated (server failures are masked automatically —
    ///   the closed-group advantage of §2.1).
    pub fn on_binding_view_change(
        &mut self,
        group: &GroupId,
        surviving_members: &[NodeId],
    ) -> Vec<ClientEvent> {
        let Some(binding) = self.bindings.get_mut(group) else {
            return Vec::new();
        };
        match binding.style.clone() {
            BindingStyle::Open { manager } => {
                if surviving_members.contains(&manager) {
                    return Vec::new();
                }
                self.bindings.remove(group);
                let pending: Vec<u64> = {
                    let mut v: Vec<u64> = self
                        .calls
                        .iter()
                        .filter(|(_, c)| &c.group == group)
                        .map(|(&n, _)| n)
                        .collect();
                    v.sort_unstable();
                    v
                };
                vec![ClientEvent::BindingBroken {
                    group: group.clone(),
                    manager,
                    pending_calls: pending,
                }]
            }
            BindingStyle::Closed => {
                // Group members are the client plus the servers.
                let servers = surviving_members
                    .iter()
                    .filter(|&&m| m != self.node)
                    .count();
                binding.server_count = servers;
                // Re-evaluate quorums: a dead server will never reply.
                let mut events = Vec::new();
                let ready: Vec<u64> = self
                    .calls
                    .iter_mut()
                    .filter(|(_, c)| &c.group == group)
                    .filter_map(|(&n, c)| {
                        c.needed = c.mode.needed(servers).max(1);
                        (c.replies.len() >= c.needed).then_some(n)
                    })
                    .collect();
                for n in ready {
                    let Some(state) = self.calls.remove(&n) else {
                        continue;
                    };
                    events.push(ClientEvent::Complete {
                        call: CallId {
                            client: self.node,
                            number: n,
                        },
                        replies: state.replies,
                    });
                }
                events
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newtop_orb::cdr::CdrEncode;

    fn n(i: u32) -> NodeId {
        NodeId::from_index(i)
    }

    fn gid() -> GroupId {
        GroupId::new("cs")
    }

    fn relayed(call: CallId, replies: Vec<(NodeId, Bytes)>) -> Vec<u8> {
        InvMessage::RelayedReply { call, replies }.to_cdr().to_vec()
    }

    fn direct(call: CallId, replier: NodeId, result: &[u8]) -> Vec<u8> {
        InvMessage::DirectReply {
            call,
            replier,
            result: Bytes::copy_from_slice(result),
        }
        .to_cdr()
        .to_vec()
    }

    fn open_client() -> ClientCore {
        let mut c = ClientCore::new(n(0));
        c.register_binding(gid(), BindingStyle::Open { manager: n(1) }, 3);
        c
    }

    fn closed_client() -> ClientCore {
        let mut c = ClientCore::new(n(0));
        c.register_binding(gid(), BindingStyle::Closed, 3);
        c
    }

    #[test]
    fn invoke_requires_binding() {
        let mut c = ClientCore::new(n(0));
        assert!(matches!(
            c.invoke(&gid(), "op", Bytes::new(), ReplyMode::All),
            Err(ClientError::UnknownBinding(_))
        ));
    }

    #[test]
    fn one_way_completes_immediately() {
        let mut c = open_client();
        let (call, cmds, events) = c
            .invoke(&gid(), "notify", Bytes::new(), ReplyMode::OneWay)
            .unwrap();
        assert_eq!(cmds.len(), 1);
        assert_eq!(
            events,
            vec![ClientEvent::Complete {
                call,
                replies: vec![]
            }]
        );
        assert!(c.pending_calls().is_empty());
    }

    #[test]
    fn open_binding_completes_on_relayed_reply() {
        let mut c = open_client();
        let (call, _, _) = c
            .invoke(&gid(), "op", Bytes::new(), ReplyMode::All)
            .unwrap();
        assert_eq!(c.pending_calls(), vec![call.number]);
        let replies = vec![
            (n(1), Bytes::from_static(b"a")),
            (n(2), Bytes::from_static(b"b")),
        ];
        let events = c.on_message(&relayed(call, replies.clone()));
        assert_eq!(events, vec![ClientEvent::Complete { call, replies }]);
        assert!(c.pending_calls().is_empty());
        // A duplicate relayed reply (retry race) is ignored.
        assert!(c.on_message(&relayed(call, vec![])).is_empty());
    }

    #[test]
    fn closed_binding_counts_direct_replies() {
        let mut c = closed_client();
        let (call, _, _) = c
            .invoke(&gid(), "op", Bytes::new(), ReplyMode::Majority)
            .unwrap();
        assert!(c.on_message(&direct(call, n(1), b"r1")).is_empty());
        // Duplicate replier ignored.
        assert!(c.on_message(&direct(call, n(1), b"r1")).is_empty());
        let events = c.on_message(&direct(call, n(2), b"r2"));
        assert_eq!(events.len(), 1, "majority of 3 is 2");
        // Late third reply is stale.
        assert!(c.on_message(&direct(call, n(3), b"r3")).is_empty());
    }

    #[test]
    fn repeated_view_changes_complete_each_call_once() {
        // Regression: a shrinking view used to complete ready calls with
        // `remove().expect("present")`; a repeat of the same view change
        // must be a clean no-op, not a panic.
        let mut c = closed_client();
        let (call, _, _) = c
            .invoke(&gid(), "op", Bytes::new(), ReplyMode::All)
            .unwrap();
        assert!(c.on_message(&direct(call, n(1), b"r1")).is_empty());
        // Two of three servers die: the one reply already in hand now
        // satisfies the quorum.
        let events = c.on_binding_view_change(&gid(), &[n(0), n(1)]);
        assert_eq!(events.len(), 1);
        assert!(c.pending_calls().is_empty());
        // The identical notification again completes nothing further.
        assert!(c.on_binding_view_change(&gid(), &[n(0), n(1)]).is_empty());
    }

    #[test]
    fn wait_for_first_needs_one() {
        let mut c = closed_client();
        let (call, _, _) = c
            .invoke(&gid(), "op", Bytes::new(), ReplyMode::First)
            .unwrap();
        let events = c.on_message(&direct(call, n(2), b"r"));
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn replies_for_other_clients_are_ignored() {
        let mut c = closed_client();
        let (_call, _, _) = c
            .invoke(&gid(), "op", Bytes::new(), ReplyMode::First)
            .unwrap();
        let foreign = CallId {
            client: n(9),
            number: 1,
        };
        assert!(c.on_message(&direct(foreign, n(2), b"r")).is_empty());
        assert_eq!(c.pending_calls().len(), 1);
    }

    #[test]
    fn open_manager_crash_breaks_binding_and_lists_calls() {
        let mut c = open_client();
        let (call, _, _) = c
            .invoke(&gid(), "op", Bytes::new(), ReplyMode::All)
            .unwrap();
        // The view now contains only the client: the manager is gone.
        let events = c.on_binding_view_change(&gid(), &[n(0)]);
        assert_eq!(
            events,
            vec![ClientEvent::BindingBroken {
                group: gid(),
                manager: n(1),
                pending_calls: vec![call.number],
            }]
        );
        assert!(!c.has_binding(&gid()));
    }

    #[test]
    fn retry_reissues_with_same_call_number() {
        let mut c = open_client();
        let (call, _, _) = c
            .invoke(&gid(), "op", Bytes::from_static(b"args"), ReplyMode::First)
            .unwrap();
        c.on_binding_view_change(&gid(), &[n(0)]);
        // Rebind to a new manager over a new group.
        let g2 = GroupId::new("cs2");
        c.register_binding(g2.clone(), BindingStyle::Open { manager: n(2) }, 3);
        let cmds = c.retry(call.number, &g2).unwrap();
        let InvCommand::Multicast { group, payload } = &cmds[0] else {
            panic!("expected multicast");
        };
        assert_eq!(group, &g2);
        let InvMessage::Request { call: c2, op, .. } = InvMessage::from_cdr(payload).unwrap()
        else {
            panic!("expected request");
        };
        assert_eq!(c2, call, "same call number after rebind");
        assert_eq!(op, "op");
    }

    #[test]
    fn abandoned_call_leaves_nothing_pending_and_its_number_is_reused() {
        let mut c = closed_client();
        let (first, _, _) = c
            .invoke(&gid(), "op", Bytes::new(), ReplyMode::All)
            .unwrap();
        let (shed, _, _) = c
            .invoke(&gid(), "op", Bytes::new(), ReplyMode::All)
            .unwrap();
        c.abandon(shed.number);
        assert_eq!(c.pending_calls(), vec![first.number]);
        let (next, _, _) = c
            .invoke(&gid(), "op", Bytes::new(), ReplyMode::All)
            .unwrap();
        assert_eq!(next.number, shed.number);
    }

    #[test]
    fn retry_unknown_call_fails() {
        let mut c = open_client();
        assert!(matches!(
            c.retry(42, &gid()),
            Err(ClientError::UnknownCall(42))
        ));
    }

    #[test]
    fn closed_binding_masks_server_failure() {
        let mut c = closed_client();
        let (call, _, _) = c
            .invoke(&gid(), "op", Bytes::new(), ReplyMode::All)
            .unwrap();
        // Two of three replied...
        c.on_message(&direct(call, n(1), b"r1"));
        c.on_message(&direct(call, n(2), b"r2"));
        assert_eq!(c.pending_calls(), vec![call.number]);
        // ...then the third crashed out of the view: the quorum shrinks
        // and the call completes without rebinding.
        let events = c.on_binding_view_change(&gid(), &[n(0), n(1), n(2)]);
        assert_eq!(events.len(), 1);
        assert!(matches!(&events[0], ClientEvent::Complete { .. }));
    }

    #[test]
    fn pending_call_bound_sheds_and_recovers() {
        let mut c = closed_client().with_max_pending_calls(2);
        let (c1, _, _) = c
            .invoke(&gid(), "op", Bytes::new(), ReplyMode::First)
            .unwrap();
        c.invoke(&gid(), "op", Bytes::new(), ReplyMode::First)
            .unwrap();
        assert_eq!(
            c.invoke(&gid(), "op", Bytes::new(), ReplyMode::First),
            Err(ClientError::Overloaded(gid()))
        );
        assert_eq!(c.shed_count(), 1);
        // One-way sends never enter the table, so they are exempt.
        assert!(c
            .invoke(&gid(), "notify", Bytes::new(), ReplyMode::OneWay)
            .is_ok());
        // Completing a call frees a slot.
        c.on_message(&direct(c1, n(1), b"r"));
        assert!(c
            .invoke(&gid(), "op", Bytes::new(), ReplyMode::First)
            .is_ok());
    }

    #[test]
    fn garbage_payloads_are_ignored() {
        let mut c = open_client();
        assert!(c.on_message(b"not cdr").is_empty());
    }
}

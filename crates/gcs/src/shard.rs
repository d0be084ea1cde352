//! Sharded group-communication state: independent groups on parallel
//! per-shard engines.
//!
//! A [`ShardedGcs`] partitions one node's groups across `N` shard
//! engines, each a complete [`GcsMember`] owning its own Lamport clock
//! domain, delivery engines, flow ledgers, timer-tag range, and
//! observability registry. Work for a group only ever touches the shard
//! that owns it (FlexCast's genuineness principle applied locally).
//!
//! **Placement rule.** A group hashes (FNV-1a over its id) to one of the
//! `N` shards — *unless* it overlaps an already-placed group. Two groups
//! overlap when their member sets share a node other than the local one;
//! such groups are pinned to the earlier group's shard so the shared
//! Lamport clock keeps cross-group total order causality-consistent for
//! every third party that can observe both groups (the paper's
//! overlapping-groups guarantee, §3). Overlap through the local node
//! alone does not pin: no remote observer can compare the two groups'
//! orders, so they may shard freely — this is exactly what lets a client
//! node bound to many disjoint services spread them across shards.
//! Overlap detection runs at placement (bind/create/join) time;
//! cross-shard causal barriers for groups that begin overlapping later
//! through view changes are an explicit non-goal of this layer.
//!
//! With `N = 1` the behaviour is bit-identical to a single [`GcsMember`].

use bytes::Bytes;

use newtop_net::metrics::Observability;
use newtop_net::site::NodeId;
use newtop_net::time::SimTime;

use newtop_flow::FlowController;

use crate::group::{DeliveryOrder, GroupConfig, GroupId};
use crate::member::{GcsError, GcsMember, GcsNet, GcsOutput};
use crate::messages::GcsMessage;
use crate::view::View;

use std::collections::BTreeMap;

/// Timer-tag span reserved for each shard within the owner's GCS tag
/// range: shard `k` allocates tags in `tag_base + k * SHARD_TAG_SPAN ..`.
pub const SHARD_TAG_SPAN: u64 = 1 << 32;

/// Most shards a node may run (keeps every shard's tag range inside the
/// owner's component tag space).
pub const MAX_SHARDS: usize = 256;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One node's sharded group-communication service. See the
/// [module docs](self) for the placement and pinning rules.
pub struct ShardedGcs {
    node: NodeId,
    shards: Vec<GcsMember>,
    /// Which shard owns each group this node participates in.
    placement: BTreeMap<GroupId, usize>,
    /// Member sets recorded at placement time, for overlap pinning.
    /// Views evolve afterwards; this layer only promises bind-time
    /// co-location (see the module docs).
    placed_members: BTreeMap<GroupId, Vec<NodeId>>,
}

impl std::fmt::Debug for ShardedGcs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedGcs")
            .field("node", &self.node)
            .field("shards", &self.shards.len())
            .field("placement", &self.placement)
            .finish()
    }
}

impl ShardedGcs {
    /// Creates `shards` engines for `node` (clamped to `1..=MAX_SHARDS`),
    /// shard `k` allocating timer tags from
    /// `tag_base + k * SHARD_TAG_SPAN`.
    #[must_use]
    pub fn new(node: NodeId, tag_base: u64, shards: usize) -> Self {
        let shards = shards.clamp(1, MAX_SHARDS);
        let engines = (0..shards)
            .map(|k| GcsMember::new(node, tag_base + (k as u64) * SHARD_TAG_SPAN))
            .collect();
        ShardedGcs {
            node,
            shards: engines,
            placement: BTreeMap::new(),
            placed_members: BTreeMap::new(),
        }
    }

    /// The local node.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of shard engines.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a placed group runs on.
    #[must_use]
    pub fn shard_of(&self, group: &GroupId) -> Option<usize> {
        self.placement.get(group).copied()
    }

    /// Decides the shard for a new group: pinned to the first placed
    /// group sharing a non-local member, else FNV-1a of the id.
    fn place(&mut self, group: &GroupId, members: &[NodeId]) -> usize {
        let me = self.node;
        let overlap = self.placed_members.iter().find_map(|(g, placed)| {
            let shared = placed.iter().any(|m| *m != me && members.contains(m));
            if shared {
                self.placement.get(g).copied()
            } else {
                None
            }
        });
        let shard = overlap.unwrap_or_else(|| {
            (fnv1a(group.as_str().as_bytes()) as usize)
                .checked_rem(self.shards.len())
                .unwrap_or(0)
        });
        self.placement.insert(group.clone(), shard);
        self.placed_members.insert(group.clone(), members.to_vec());
        shard
    }

    fn unplace(&mut self, group: &GroupId) {
        self.placement.remove(group);
        self.placed_members.remove(group);
    }

    // --- group API (mirrors `GcsMember`, routed per shard) --------------

    /// Creates a statically-bootstrapped group on the shard the placement
    /// rule selects. See [`GcsMember::create_group`].
    ///
    /// # Errors
    ///
    /// Any [`GcsError`] from the owning shard.
    pub fn create_group(
        &mut self,
        group: GroupId,
        config: GroupConfig,
        members: Vec<NodeId>,
        now: SimTime,
        net: &mut GcsNet<'_>,
    ) -> Result<Vec<GcsOutput>, GcsError> {
        if self.placement.contains_key(&group) {
            return Err(GcsError::AlreadyMember(group));
        }
        let shard = self.place(&group, &members);
        let r = match self.shards.get_mut(shard) {
            Some(s) => s.create_group(group.clone(), config, members, now, net),
            None => Err(GcsError::UnknownGroup(group.clone())),
        };
        if r.is_err() {
            self.unplace(&group);
        }
        r
    }

    /// Starts joining an existing group through `contact`. Placement uses
    /// the only membership known at join time, `{self, contact}`; if the
    /// group overlaps others beyond that, co-location is not guaranteed
    /// (see the module docs). See [`GcsMember::join_group`].
    ///
    /// # Errors
    ///
    /// Any [`GcsError`] from the owning shard.
    pub fn join_group(
        &mut self,
        group: GroupId,
        config: GroupConfig,
        contact: NodeId,
        now: SimTime,
        net: &mut GcsNet<'_>,
    ) -> Result<(), GcsError> {
        if self.placement.contains_key(&group) {
            return Err(GcsError::AlreadyMember(group));
        }
        let shard = self.place(&group, &[self.node, contact]);
        let r = self.shards[shard].join_group(group.clone(), config, contact, now, net);
        if r.is_err() {
            self.unplace(&group);
        }
        r
    }

    /// Like [`ShardedGcs::join_group`], but places the group using a
    /// full membership the caller already knows — a recovering node
    /// rejoins with the member set of its last durably installed view,
    /// so overlapping groups land on the same shard (and clock domain)
    /// they occupied before the crash, keeping sharded replays
    /// byte-identical to single-shard ones.
    ///
    /// # Errors
    ///
    /// Any [`GcsError`] from the owning shard.
    pub fn join_group_with_membership(
        &mut self,
        group: GroupId,
        config: GroupConfig,
        contact: NodeId,
        known_members: &[NodeId],
        now: SimTime,
        net: &mut GcsNet<'_>,
    ) -> Result<(), GcsError> {
        if self.placement.contains_key(&group) {
            return Err(GcsError::AlreadyMember(group));
        }
        let shard = self.place(&group, known_members);
        let r = self.shards[shard].join_group(group.clone(), config, contact, now, net);
        if r.is_err() {
            self.unplace(&group);
        }
        r
    }

    /// Gracefully leaves a group. See [`GcsMember::leave_group`].
    ///
    /// # Errors
    ///
    /// [`GcsError::UnknownGroup`] if the node is not in the group.
    pub fn leave_group(
        &mut self,
        group: &GroupId,
        now: SimTime,
        net: &mut GcsNet<'_>,
    ) -> Result<Vec<GcsOutput>, GcsError> {
        let shard = self
            .shard_of(group)
            .ok_or_else(|| GcsError::UnknownGroup(group.clone()))?;
        let r = self
            .shards
            .get_mut(shard)
            .ok_or_else(|| GcsError::UnknownGroup(group.clone()))?
            .leave_group(group, now, net);
        if r.is_ok() {
            self.unplace(group);
        }
        r
    }

    /// Multicasts `payload` in a group. See [`GcsMember::multicast`].
    ///
    /// # Errors
    ///
    /// [`GcsError::UnknownGroup`] / [`GcsError::NotMember`] /
    /// [`GcsError::Overloaded`] from the owning shard.
    pub fn multicast(
        &mut self,
        group: &GroupId,
        order: DeliveryOrder,
        payload: Bytes,
        now: SimTime,
        net: &mut GcsNet<'_>,
    ) -> Result<(), GcsError> {
        let shard = self
            .shard_of(group)
            .and_then(|i| self.shards.get_mut(i))
            .ok_or_else(|| GcsError::UnknownGroup(group.clone()))?;
        shard.multicast(group, order, payload, now, net)
    }

    /// Routes a received message to the shard owning its group. A
    /// [`GcsMessage::Batch`] envelope is unpacked here and each
    /// constituent routed independently — constituents may span groups
    /// and therefore shards.
    pub fn on_message(
        &mut self,
        msg: GcsMessage,
        now: SimTime,
        net: &mut GcsNet<'_>,
    ) -> Vec<GcsOutput> {
        match msg {
            GcsMessage::Batch(msgs) => {
                let mut outputs = Vec::new();
                for m in msgs {
                    // Decode rejects nesting; skip rather than recurse if
                    // a hand-built nested batch ever appears.
                    if !matches!(m, GcsMessage::Batch(_)) {
                        outputs.extend(self.on_message(m, now, net));
                    }
                }
                outputs
            }
            m => {
                let Some(shard) = m
                    .group()
                    .and_then(|g| self.shard_of(g))
                    .and_then(|i| self.shards.get_mut(i))
                else {
                    return Vec::new();
                };
                shard.on_message(m, now, net)
            }
        }
    }

    /// Routes a fired timer to the shard owning its tag.
    pub fn on_timer(&mut self, tag: u64, now: SimTime, net: &mut GcsNet<'_>) -> Vec<GcsOutput> {
        match self.shards.iter_mut().find(|s| s.owns_tag(tag)) {
            Some(shard) => shard.on_timer(tag, now, net),
            None => Vec::new(),
        }
    }

    /// Whether any shard owns this timer tag.
    #[must_use]
    pub fn owns_tag(&self, tag: u64) -> bool {
        self.shards.iter().any(|s| s.owns_tag(tag))
    }

    // --- queries ---------------------------------------------------------

    /// The current view of a group this node belongs to.
    #[must_use]
    pub fn view_of(&self, group: &GroupId) -> Option<&View> {
        self.shard_of(group)
            .and_then(|s| self.shards[s].view_of(group))
    }

    /// Whether the node is a full member of the group.
    #[must_use]
    pub fn is_member_of(&self, group: &GroupId) -> bool {
        self.shard_of(group)
            .is_some_and(|s| self.shards[s].is_member_of(group))
    }

    /// The groups this node currently participates in, across all shards.
    pub fn group_ids(&self) -> impl Iterator<Item = &GroupId> {
        self.placement.keys()
    }

    /// The flow-control ledger of a group this node belongs to.
    #[must_use]
    pub fn flow_of(&self, group: &GroupId) -> Option<&FlowController<NodeId>> {
        self.shard_of(group)
            .and_then(|s| self.shards.get(s))
            .and_then(|shard| shard.flow_of(group))
    }

    /// Mutable flow-control access (recovery replay admission).
    pub fn flow_of_mut(&mut self, group: &GroupId) -> Option<&mut FlowController<NodeId>> {
        let s = self.shard_of(group)?;
        self.shards[s].flow_of_mut(group)
    }

    /// Internal-state summary for one group, prefixed with its shard.
    #[doc(hidden)]
    #[must_use]
    pub fn diagnostics(&self, group: &GroupId) -> String {
        match self.shard_of(group) {
            Some(s) => format!(
                "shard={s}/{} {}",
                self.shards.len(),
                self.shards[s].diagnostics(group)
            ),
            None => "no such group".to_owned(),
        }
    }

    /// Entries held by the delivery engines of every shard (see
    /// [`GcsMember::engine_retained`]).
    #[must_use]
    pub fn engine_retained(&self) -> usize {
        self.shards.iter().map(GcsMember::engine_retained).sum()
    }

    /// Per-shard observability registries (metrics and traces); the owner
    /// merges them into its own view.
    pub fn observabilities(&self) -> impl Iterator<Item = &Observability> {
        self.shards.iter().map(GcsMember::observability)
    }

    /// The Lamport clock value of the shard owning `group` (each shard is
    /// its own clock domain).
    #[must_use]
    pub fn clock_value_of(&self, group: &GroupId) -> Option<u64> {
        self.shard_of(group).map(|s| self.shards[s].clock_value())
    }

    /// Advances every shard's clock past an externally observed
    /// timestamp (see [`GcsMember::observe_clock`]); recovery replay
    /// does not know which shard will own a group it is yet to rejoin,
    /// and over-advancing a clock is always safe.
    pub fn observe_clock(&mut self, ts: u64) {
        for shard in &mut self.shards {
            shard.observe_clock(ts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupConfig;
    use newtop_net::sim::Outbox;
    use newtop_orb::orb::OrbCore;

    fn n(i: u32) -> NodeId {
        NodeId::from_index(i)
    }

    fn harness(node: NodeId) -> (OrbCore, Outbox) {
        (OrbCore::new(node), Outbox::detached(0))
    }

    #[test]
    fn disjoint_groups_spread_and_overlapping_groups_pin() {
        let me = n(0);
        let mut gcs = ShardedGcs::new(me, 0, 4);
        let (mut orb, mut out) = harness(me);
        let mut net = GcsNet::new(&mut orb, &mut out);
        // Many disjoint groups (only the local node shared) must not all
        // land on one shard.
        let mut used = std::collections::BTreeSet::new();
        for i in 0..8 {
            let g = GroupId::new(format!("svc-{i}"));
            gcs.create_group(
                g.clone(),
                GroupConfig::default(),
                vec![me, n(10 + 3 * i), n(11 + 3 * i)],
                SimTime::ZERO,
                &mut net,
            )
            .unwrap();
            used.insert(gcs.shard_of(&g).unwrap());
        }
        assert!(used.len() > 1, "disjoint groups stayed on one shard");
        // A group overlapping svc-0 beyond the local node pins to its
        // shard.
        let overlapping = GroupId::new("overlap");
        gcs.create_group(
            overlapping.clone(),
            GroupConfig::default(),
            vec![me, n(10), n(99)],
            SimTime::ZERO,
            &mut net,
        )
        .unwrap();
        assert_eq!(
            gcs.shard_of(&overlapping),
            gcs.shard_of(&GroupId::new("svc-0")),
            "overlapping groups must co-locate"
        );
    }

    #[test]
    fn placement_is_freed_on_leave_and_errors_do_not_leak() {
        let me = n(0);
        let mut gcs = ShardedGcs::new(me, 0, 2);
        let (mut orb, mut out) = harness(me);
        let mut net = GcsNet::new(&mut orb, &mut out);
        let g = GroupId::new("g");
        // Bad membership (no local node) must not leave a placement.
        assert!(gcs
            .create_group(
                g.clone(),
                GroupConfig::default(),
                vec![n(5)],
                SimTime::ZERO,
                &mut net
            )
            .is_err());
        assert_eq!(gcs.shard_of(&g), None);
        gcs.create_group(
            g.clone(),
            GroupConfig::default(),
            vec![me, n(5)],
            SimTime::ZERO,
            &mut net,
        )
        .unwrap();
        assert!(gcs.shard_of(&g).is_some());
        gcs.leave_group(&g, SimTime::ZERO, &mut net).unwrap();
        assert_eq!(gcs.shard_of(&g), None);
    }

    #[test]
    fn timer_tags_do_not_collide_across_shards() {
        let me = n(0);
        let mut gcs = ShardedGcs::new(me, 1 << 40, 4);
        let (mut orb, mut out) = harness(me);
        let mut net = GcsNet::new(&mut orb, &mut out);
        for i in 0..4 {
            gcs.create_group(
                GroupId::new(format!("t-{i}")),
                GroupConfig::default(),
                vec![me, n(10 + 2 * i), n(11 + 2 * i)],
                SimTime::ZERO,
                &mut net,
            )
            .unwrap();
        }
        // Every timer set by any shard must be owned, and by exactly one
        // shard (disjoint per-shard tag ranges).
        let parts = out.into_parts();
        assert!(!parts.timer_sets.is_empty());
        for (_, _, tag) in parts.timer_sets {
            assert!(gcs.owns_tag(tag));
        }
    }
}

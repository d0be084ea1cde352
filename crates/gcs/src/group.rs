//! Group identity and configuration.
//!
//! A group is created with a [`GroupConfig`] choosing its total-order
//! technique ([`OrderProtocol`]) and its liveness regime ([`Liveness`]),
//! exactly the two customisation axes §3 of the paper exposes to
//! applications.

use std::fmt;
use std::time::Duration;

use newtop_net::trace::GroupName;
use newtop_orb::cdr::{CdrDecode, CdrDecoder, CdrEncode, CdrEncoder, CdrError};

/// Names a group. Members of the same group use the same id everywhere.
///
/// The name is shared: cloning an id (which the protocol does for every
/// message, timer and trace record) bumps a refcount instead of copying
/// the string.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(GroupName);

impl GroupId {
    /// Creates a group id from a name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        GroupId(GroupName::new(name))
    }

    /// The name as a string.
    #[must_use]
    pub fn as_str(&self) -> &str {
        self.0.as_str()
    }

    /// The shared name, as trace records carry it (no allocation).
    #[must_use]
    pub fn name(&self) -> GroupName {
        self.0.clone()
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for GroupId {
    fn from(s: &str) -> Self {
        GroupId::new(s)
    }
}

impl From<String> for GroupId {
    fn from(s: String) -> Self {
        GroupId::new(s)
    }
}

impl CdrEncode for GroupId {
    fn encode(&self, enc: &mut CdrEncoder) {
        enc.write_string(self.as_str());
    }
}

impl CdrDecode for GroupId {
    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, CdrError> {
        Ok(GroupId::new(dec.read_string()?))
    }
}

/// The delivery guarantee requested for one multicast.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum DeliveryOrder {
    /// Causal order: delivered after everything that happened-before it.
    Causal,
    /// Causality-preserving total order: all members deliver in the same
    /// order, consistent with causality.
    Total,
}

impl DeliveryOrder {
    pub(crate) fn code(self) -> u8 {
        match self {
            DeliveryOrder::Causal => 0,
            DeliveryOrder::Total => 1,
        }
    }

    pub(crate) fn from_code(c: u8) -> Result<Self, CdrError> {
        match c {
            0 => Ok(DeliveryOrder::Causal),
            1 => Ok(DeliveryOrder::Total),
            other => Err(CdrError::BadDiscriminant(u32::from(other))),
        }
    }
}

/// How total order is enforced in a group (§1, §3 of the paper).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum OrderProtocol {
    /// All members run a deterministic ordering algorithm over Lamport
    /// timestamps; progress requires periodic protocol messages from every
    /// member (the time-silence nulls). Best for lively peer groups.
    Symmetric,
    /// One member (the sequencer — the lowest-ranked member of the current
    /// view) decides the order. Best for request-reply style groups.
    Asymmetric,
}

/// How a multicast's per-member invocations are issued (§2.2, §5.2).
///
/// Present-day ORBs only offer one-to-one invocation, so a multicast is a
/// loop of per-member invocations. Made **synchronously** ("in turn to
/// all the members"), each invocation's round trip gates the next — the
/// paper's request-reply path. The **asynchronous** mode models the
/// deferred/oneway invocations the peer-participation experiments used
/// ("multicasting by using the asynchronous method invocation
/// operation"): invocations are issued back-to-back without waiting.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FanoutMode {
    /// Sequential synchronous invocations; round trips chain.
    Synchronous,
    /// Back-to-back asynchronous invocations; only sender CPU serialises.
    Asynchronous,
}

/// Whether the time-silence and failure-suspicion machinery runs
/// permanently or only while application messages are in flight (§3).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Liveness {
    /// Time-silence and suspicion active for the whole group lifetime.
    /// Appropriate for peer groups.
    Lively,
    /// Active only while undelivered application messages exist (plus a
    /// short linger); shut down when the group goes quiet. Appropriate
    /// for request-reply groups.
    EventDriven,
}

/// Per-group configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupConfig {
    /// Total-order technique.
    pub ordering: OrderProtocol,
    /// Liveness regime.
    pub liveness: Liveness,
    /// Multicast fan-out style.
    pub fanout: FanoutMode,
    /// The time-silence period: a member that has sent nothing for this
    /// long emits an "I am alive" null message (while the mechanism is
    /// active).
    pub time_silence: Duration,
    /// A member unheard-from for `time_silence * suspicion_multiple` is
    /// suspected to have failed.
    pub suspicion_multiple: u32,
    /// How long a receiver waits on a sequence gap before NACKing.
    pub nack_delay: Duration,
    /// How long a view-change coordinator waits for state responses (and
    /// participants wait for the install) before escalating.
    pub view_change_timeout: Duration,
    /// Credit-based send window: the most multicasts a member may have
    /// outstanding (sent this view but unacknowledged by some member)
    /// before further sends are shed with `GcsError::Overloaded`.
    pub flow_window: u64,
    /// The most multicasts buffered while a view agreement is in flight;
    /// beyond this the send is shed instead of queued.
    pub max_queued_multicasts: u32,
}

impl GroupConfig {
    /// A request-reply flavoured configuration: asymmetric ordering,
    /// event-driven liveness.
    #[must_use]
    pub fn request_reply() -> Self {
        GroupConfig {
            ordering: OrderProtocol::Asymmetric,
            liveness: Liveness::EventDriven,
            ..GroupConfig::default()
        }
    }

    /// A peer-group flavoured configuration: symmetric ordering, lively.
    #[must_use]
    pub fn peer() -> Self {
        GroupConfig {
            ordering: OrderProtocol::Symmetric,
            liveness: Liveness::Lively,
            fanout: FanoutMode::Asynchronous,
            ..GroupConfig::default()
        }
    }

    /// Sets the ordering protocol.
    #[must_use]
    pub fn with_ordering(mut self, ordering: OrderProtocol) -> Self {
        self.ordering = ordering;
        self
    }

    /// Sets the liveness regime.
    #[must_use]
    pub fn with_liveness(mut self, liveness: Liveness) -> Self {
        self.liveness = liveness;
        self
    }

    /// Sets the time-silence period.
    #[must_use]
    pub fn with_time_silence(mut self, period: Duration) -> Self {
        self.time_silence = period;
        self
    }

    /// Sets the credit-based send window.
    #[must_use]
    pub fn with_flow_window(mut self, window: u64) -> Self {
        self.flow_window = window;
        self
    }

    /// The suspicion timeout implied by the configuration.
    #[must_use]
    pub fn suspicion_timeout(&self) -> Duration {
        self.time_silence * self.suspicion_multiple
    }

    /// The smallest time-silence period at which this configuration's
    /// failure detector is safe on a network whose worst one-way delay
    /// (base latency + jitter + any expected transient spike) is
    /// `worst_one_way`.
    ///
    /// A peer observes consecutive heartbeats up to
    /// `time_silence + 2·worst_one_way` apart (one heartbeat maximally
    /// delayed, the previous one not). Doubling that gap as slack for
    /// queueing behind real traffic and requiring the suspicion timeout
    /// to cover it — `m·ts ≥ 2·(ts + 2·D)` — solves to
    /// `ts ≥ 4·D / (m − 2)`. See DESIGN.md §11 for the derivation and
    /// the false-suspicion-storm regression that pins it.
    ///
    /// # Panics
    ///
    /// Panics if `suspicion_multiple ≤ 2`: such a detector cannot be
    /// made safe by any time-silence period.
    #[must_use]
    pub fn recommended_time_silence(&self, worst_one_way: Duration) -> Duration {
        assert!(
            self.suspicion_multiple > 2,
            "a suspicion multiple of {} leaves no safe time-silence period",
            self.suspicion_multiple
        );
        let denom = u128::from(self.suspicion_multiple) - 2;
        let nanos = worst_one_way.as_nanos().saturating_mul(4).div_ceil(denom);
        Duration::from_nanos(nanos.min(u128::from(u64::MAX)) as u64).max(Duration::from_millis(1))
    }
}

impl CdrEncode for GroupConfig {
    fn encode(&self, enc: &mut CdrEncoder) {
        enc.write_u8(match self.ordering {
            OrderProtocol::Symmetric => 0,
            OrderProtocol::Asymmetric => 1,
        });
        enc.write_u8(match self.liveness {
            Liveness::Lively => 0,
            Liveness::EventDriven => 1,
        });
        enc.write_u8(match self.fanout {
            FanoutMode::Synchronous => 0,
            FanoutMode::Asynchronous => 1,
        });
        enc.write_u64(self.time_silence.as_micros() as u64);
        enc.write_u32(self.suspicion_multiple);
        enc.write_u64(self.nack_delay.as_micros() as u64);
        enc.write_u64(self.view_change_timeout.as_micros() as u64);
        enc.write_u64(self.flow_window);
        enc.write_u32(self.max_queued_multicasts);
    }
}

impl CdrDecode for GroupConfig {
    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, CdrError> {
        let ordering = match dec.read_u8()? {
            0 => OrderProtocol::Symmetric,
            1 => OrderProtocol::Asymmetric,
            other => return Err(CdrError::BadDiscriminant(u32::from(other))),
        };
        let liveness = match dec.read_u8()? {
            0 => Liveness::Lively,
            1 => Liveness::EventDriven,
            other => return Err(CdrError::BadDiscriminant(u32::from(other))),
        };
        let fanout = match dec.read_u8()? {
            0 => FanoutMode::Synchronous,
            1 => FanoutMode::Asynchronous,
            other => return Err(CdrError::BadDiscriminant(u32::from(other))),
        };
        Ok(GroupConfig {
            ordering,
            liveness,
            fanout,
            time_silence: Duration::from_micros(dec.read_u64()?),
            suspicion_multiple: dec.read_u32()?,
            nack_delay: Duration::from_micros(dec.read_u64()?),
            view_change_timeout: Duration::from_micros(dec.read_u64()?),
            flow_window: dec.read_u64()?,
            max_queued_multicasts: dec.read_u32()?,
        })
    }
}

impl Default for GroupConfig {
    /// Asymmetric, event-driven, 25 ms time-silence, 14× suspicion (a
    /// loaded member's heartbeats queue behind its traffic; suspicion must
    /// tolerate that), 10 ms NACK delay, 150 ms view-change timeout.
    fn default() -> Self {
        GroupConfig {
            ordering: OrderProtocol::Asymmetric,
            liveness: Liveness::EventDriven,
            fanout: FanoutMode::Synchronous,
            time_silence: Duration::from_millis(25),
            suspicion_multiple: 14,
            nack_delay: Duration::from_millis(10),
            view_change_timeout: Duration::from_millis(150),
            flow_window: 64,
            max_queued_multicasts: 128,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_id_round_trips_via_cdr() {
        let g = GroupId::new("servers");
        let b = g.to_cdr();
        assert_eq!(GroupId::from_cdr(&b).unwrap(), g);
        assert_eq!(g.to_string(), "servers");
    }

    #[test]
    fn delivery_order_codes_round_trip() {
        for o in [DeliveryOrder::Causal, DeliveryOrder::Total] {
            assert_eq!(DeliveryOrder::from_code(o.code()).unwrap(), o);
        }
        assert!(DeliveryOrder::from_code(9).is_err());
    }

    #[test]
    fn group_config_round_trips_via_cdr() {
        for cfg in [
            GroupConfig::default(),
            GroupConfig::peer().with_flow_window(7),
            GroupConfig::request_reply().with_time_silence(Duration::from_millis(3)),
        ] {
            let b = cfg.to_cdr();
            assert_eq!(GroupConfig::from_cdr(&b).unwrap(), cfg);
        }
        // A bad ordering discriminant is rejected, not defaulted.
        let mut b = GroupConfig::default().to_cdr().to_vec();
        b[0] = 9;
        assert!(matches!(
            GroupConfig::from_cdr(&b),
            Err(CdrError::BadDiscriminant(9))
        ));
    }

    #[test]
    fn presets_match_the_paper() {
        let rr = GroupConfig::request_reply();
        assert_eq!(rr.ordering, OrderProtocol::Asymmetric);
        assert_eq!(rr.liveness, Liveness::EventDriven);
        let peer = GroupConfig::peer();
        assert_eq!(peer.ordering, OrderProtocol::Symmetric);
        assert_eq!(peer.liveness, Liveness::Lively);
    }

    #[test]
    fn builder_methods_compose() {
        let c = GroupConfig::default()
            .with_ordering(OrderProtocol::Symmetric)
            .with_liveness(Liveness::Lively)
            .with_time_silence(Duration::from_millis(10));
        assert_eq!(c.ordering, OrderProtocol::Symmetric);
        assert_eq!(c.suspicion_timeout(), Duration::from_millis(140));
    }

    #[test]
    fn recommended_time_silence_satisfies_the_tuning_rule() {
        let c = GroupConfig::default(); // suspicion_multiple = 14
        for worst_ms in [1u64, 12, 47, 120, 500] {
            let d = Duration::from_millis(worst_ms);
            let ts = c.recommended_time_silence(d);
            let tuned = GroupConfig::default().with_time_silence(ts);
            // m·ts ≥ 2·(ts + 2·D): the timeout covers twice the
            // worst observable heartbeat gap.
            assert!(
                tuned.suspicion_timeout() >= (ts + d * 2) * 2,
                "rule violated at D={worst_ms}ms: ts={ts:?}"
            );
        }
        // A sub-millisecond answer is floored at 1 ms.
        assert_eq!(
            c.recommended_time_silence(Duration::from_micros(10)),
            Duration::from_millis(1)
        );
    }
}

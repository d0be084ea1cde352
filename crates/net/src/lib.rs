//! Network substrate for the NewTop object group service reproduction.
//!
//! The paper ("Implementing Flexible Object Group Invocation in Networked
//! Systems", DSN 2000) evaluated NewTop on a 100 Mbit LAN and over the
//! Internet between Newcastle, London and Pisa. This crate supplies the
//! equivalent substrate:
//!
//! * [`sim`] — a deterministic discrete-event network simulator with
//!   per-site latency matrices, per-node serial CPU queues (so saturation
//!   effects such as the sequencer bottleneck emerge naturally), seeded
//!   jitter, message loss/duplication, partitions and crash injection.
//! * [`latency`] — latency models: presets calibrated to the paper's two
//!   environments ([`latency::LatencyMatrix::lan`] and
//!   [`latency::LatencyMatrix::internet`]), synthetic multi-region
//!   matrices ([`latency::LatencyMatrix::global5`],
//!   [`latency::LatencyMatrix::continental3`]) and per-link bandwidth
//!   caps ([`latency::BandwidthMatrix`]).
//! * [`faults`] — declarative fault-injection plans ([`faults::FaultPlan`])
//!   scheduling crashes, partition/heal pairs, drop bursts, delay spikes,
//!   duplication windows and sequencer-targeted kills onto a running
//!   simulation, with a printable form for byte-identical reproduction.
//! * [`channel`] and [`tcp`] — real transports (in-process channels and
//!   framed TCP) used by the threaded runtime for the runnable examples.
//! * [`stats`] — histograms, throughput meters and text tables used by the
//!   experiment harness.
//! * [`metrics`] and [`trace`] — zero-dependency observability shared by
//!   every layer above: per-node counter/gauge/latency registries and
//!   bounded rings of typed protocol events, timestamped in the host
//!   runtime's time base.
//!
//! Everything above this crate is written sans-IO: protocol state machines
//! consume [`sim::NodeEvent`]s and emit actions into a [`sim::Outbox`], so
//! identical code runs under the simulator and under the threaded runtime.
//!
//! # Example
//!
//! ```
//! use newtop_net::sim::{Sim, SimConfig, SimNode, NodeEvent, Outbox};
//! use newtop_net::site::Site;
//! use newtop_net::time::SimTime;
//! use bytes::Bytes;
//!
//! struct Ping;
//! struct Pong(u32);
//!
//! impl SimNode for Ping {
//!     fn on_event(&mut self, _now: SimTime, ev: NodeEvent, out: &mut Outbox) {
//!         if let NodeEvent::Start = ev {
//!             out.send(newtop_net::site::NodeId::from_index(1), Bytes::from_static(b"ping"));
//!         }
//!     }
//! }
//! impl SimNode for Pong {
//!     fn on_event(&mut self, _now: SimTime, ev: NodeEvent, _out: &mut Outbox) {
//!         if let NodeEvent::Packet(_) = ev {
//!             self.0 += 1;
//!         }
//!     }
//! }
//!
//! let mut sim = Sim::new(SimConfig::default());
//! sim.add_node(Site::Lan, Box::new(Ping));
//! let pong = sim.add_node(Site::Lan, Box::new(Pong(0)));
//! sim.run_until_idle();
//! assert_eq!(sim.node_ref::<Pong>(pong).unwrap().0, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod channel;
pub mod faults;
pub mod latency;
pub mod metrics;
pub mod sim;
pub mod site;
pub mod stats;
pub mod tcp;
pub mod time;
pub mod trace;
pub mod transport;

pub use faults::{FaultOp, FaultPlan, FaultTarget};
pub use latency::{BandwidthMatrix, LatencyMatrix, LatencySpec};
pub use metrics::{MetricRegistry, MetricsSnapshot, Observability};
pub use sim::{NodeEvent, Outbox, Packet, Sim, SimConfig, SimNode, TimerId};
pub use site::{NodeId, Site};
pub use time::SimTime;
pub use trace::{GroupName, TraceEvent, TraceLog, TraceRecord};

//! Deterministic message-passing node runtime — the *protocol twin* of
//! the `sparsegossip` simulator.
//!
//! The simulator computes rumor spread analytically: it builds the
//! visibility graph `G_t(r)` of the walkers each step and floods
//! connected components. This crate instead runs each agent as a real
//! protocol node exchanging typed messages ([`Payload::Gossip`],
//! [`Payload::GossipAck`], periodic `StartGossip` timer events) over
//! in-process queues, with delivery gated per tick by the *same* seeded
//! walker trajectory the simulator consumes. On a lossless,
//! zero-latency, uncapped network the twin's completion tick equals the
//! simulator's `T_B` draw-for-draw — the differential tests in this
//! crate pin that equivalence — and [`NetworkConfig`] then adds the
//! fault axes real radios have: message loss, bounded delay, per-tick
//! send caps, and a gossip-timer interval.
//!
//! Beyond lossy links, [`FaultPlan`] injects *node* and *network*
//! faults — seeded crash-with-state-loss and restart, and scheduled
//! partitions that block cross-side delivery — while [`RecoveryConfig`]
//! turns on the protocol's answers: ack-driven retransmission with
//! exponential backoff and periodic anti-entropy digests that re-teach
//! restarted nodes the rumor. Both are strictly opt-in: the default
//! ([`FaultPlan::NONE`] + [`RecoveryConfig::OFF`]) makes no extra RNG
//! draw and logs no extra event, so its event-log hash is byte-identical
//! to the pre-fault runtime.
//!
//! Scheduling is a seeded discrete-event loop over logical ticks and
//! intra-tick rounds with canonical event ordering; node randomness
//! comes from per-node RNG streams derived via
//! [`sparsegossip_walks::derive_seed`]. Runs are byte-reproducible — the
//! [`EventLog`]'s rolling hash makes that cheap to assert.
//!
//! # Examples
//!
//! Flood a rumor across three co-located nodes in one tick:
//!
//! ```
//! use sparsegossip_grid::Point;
//! use sparsegossip_protocol::{NetworkConfig, NodeRuntime};
//!
//! let positions = vec![Point::new(0, 0), Point::new(1, 0), Point::new(2, 0)];
//! let mut runtime = NodeRuntime::new(3, 0, NetworkConfig::IDEAL, 42);
//! assert!(runtime.tick(0, &positions, 1, 8));
//! assert_eq!(runtime.completed_at(), Some(0));
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

mod fault;
mod message;
mod network;
mod runtime;

pub use fault::{
    FaultError, FaultPlan, PartitionSchedule, PartitionWindow, RecoveryConfig, PARTITION_SALT,
};
pub use message::{Envelope, Event, EventLog, Payload};
pub use network::{NetworkConfig, NetworkError};
pub use runtime::{NodeRuntime, RuntimeStats, NODE_STREAM_SALT};

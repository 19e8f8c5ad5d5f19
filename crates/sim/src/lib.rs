//! # dtn-sim
//!
//! A discrete-time delay-tolerant-network (DTN) simulator: the substrate for
//! reproducing *"Reputation and Credit Based Incentive Mechanism for
//! Data-Centric Message Delivery in Delay Tolerant Networks"* (Jethawa &
//! Madria, ICDCS 2017 / MDM 2018). The paper evaluates on the ONE simulator;
//! this crate provides the equivalent machinery in Rust:
//!
//! * a time-stepped [`kernel::Simulation`] (move → contacts → transfers →
//!   TTL → protocol tick), deterministic under a scenario seed;
//! * [`mobility`] models, including the Random Waypoint model used by every
//!   experiment in the paper;
//! * a range-based [`radio`] model with the Friis path-loss equation that
//!   the incentive mechanism's hardware factor is built on;
//! * bandwidth-limited [`transfer`]s over tracked [`contact`]s;
//! * byte-bounded node [`buffer`]s with configurable drop policy;
//! * per-node [`energy`] accounting;
//! * [`stats`] capturing the paper's metrics (delivery ratio, traffic,
//!   per-priority delivery, named time series).
//!
//! Routing and incentive logic live in downstream crates (`dtn-routing`,
//! `dtn-incentive`, `dtn-reputation`, `dtn-core`) and plug in through the
//! [`protocol::Protocol`] trait.
//!
//! ## Example
//!
//! ```
//! use dtn_sim::prelude::*;
//!
//! // Two pedestrians in a 1 km² field; no routing logic (NullProtocol).
//! let mut sim = SimulationBuilder::new(Area::square_km(1.0), 42)
//!     .nodes(2, || Box::new(RandomWaypoint::pedestrian()))
//!     .build(NullProtocol);
//! let summary = sim.run_until(SimTime::from_secs(600.0));
//! assert_eq!(summary.created, 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffer;
pub mod contact;
pub mod energy;
pub mod events;
pub mod faults;
pub mod fxhash;
pub mod geometry;
pub mod invariants;
pub mod kernel;
pub mod message;
pub mod metrics;
pub mod mobility;
pub mod mobility_map;
pub mod protocol;
pub mod radio;
pub mod rng;
pub mod snapshot;
pub mod stats;
pub mod time;
pub mod trace;
pub mod transfer;
pub mod world;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::buffer::{Buffer, DropPolicy, InsertOutcome, RejectReason};
    pub use crate::energy::EnergyUse;
    pub use crate::events::{ContactEngine, EventQueue, KernelMode};
    pub use crate::faults::{FaultPlan, FaultStats};
    pub use crate::geometry::{Area, Point};
    pub use crate::kernel::{ScheduledMessage, SimApi, Simulation, SimulationBuilder, WorldState};
    pub use crate::message::{
        Annotation, Keyword, MessageBody, MessageCopy, MessageId, Priority, Quality,
    };
    pub use crate::metrics::{
        Histogram, KernelCounters, MetricsRegistry, Phase, PhaseProfiler, PhaseTiming,
    };
    pub use crate::mobility::{
        MobilityModel, RandomWalk, RandomWaypoint, ScriptedWaypoints, Stationary,
    };
    pub use crate::mobility_map::ManhattanGrid;
    pub use crate::protocol::{NullProtocol, Protocol, Reception};
    pub use crate::radio::RadioConfig;
    pub use crate::rng::{RngState, SimRng};
    pub use crate::snapshot::SnapshotError;
    pub use crate::stats::{RunSummary, StatsCollector};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::trace::{TraceEntry, TraceEvent, TraceLog};
    pub use crate::transfer::{
        AbortReason, AbortedTransfer, Checkpoint, CompletedTransfer, RecoveryPolicy,
    };
    pub use crate::world::{ordered_pair, NodeId};
}

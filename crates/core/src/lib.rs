//! # dtn-core
//!
//! The paper's primary contribution, assembled: a data-centric message
//! dissemination protocol for delay tolerant networks that combines
//!
//! * **ChitChat routing** (transient social relationships, `S_v > S_u`
//!   forwarding) from [`dtn_routing`],
//! * a **credit-based incentive mechanism** (token promises from software
//!   and hardware factors, first-deliverer settlement, relay prepayments,
//!   zero-token starvation of selfish destinations) from [`dtn_incentive`],
//! * a **distributed reputation model** (confidence-weighted message
//!   ratings, gossiped device ratings, reputation-scaled awards) from
//!   [`dtn_reputation`], and
//! * **content enrichment** — in-transit annotation of messages, honest or
//!   malicious.
//!
//! The central type is [`protocol::DcimRouter`], a
//! [`dtn_sim::protocol::Protocol`] implementation that a
//! [`dtn_sim::kernel::SimulationBuilder`] drives. [`behavior::NodeBehavior`]
//! models the honest / selfish / malicious populations of the evaluation,
//! and [`ops`] maps the paper's eleven operator functions onto the public
//! API.
//!
//! ## Example
//!
//! ```
//! use dtn_core::prelude::*;
//! use dtn_sim::prelude::*;
//!
//! let mut router = DcimRouter::new(3, ProtocolParams::paper_default(), 42);
//! router.subscribe(NodeId(2), [Keyword(7)]);
//! router.set_behavior(NodeId(1), NodeBehavior::paper_selfish());
//! assert_eq!(router.ledger().balance(NodeId(0)).amount(), 200.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod behavior;
pub mod enrich;
pub mod judge;
pub mod ops;
pub mod params;
pub mod protocol;
pub mod strategy;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::behavior::NodeBehavior;
    pub use crate::enrich::{enrich_copy, EnrichmentResult};
    pub use crate::judge::{judge_message, PathJudgement};
    pub use crate::ops::annotate;
    pub use crate::params::ProtocolParams;
    pub use crate::protocol::{
        DcimRouter, ProtocolStats, BROKE_NODES_SERIES, MALICIOUS_RATING_SERIES,
    };
    pub use crate::strategy::{StrategyKind, StrategyMix};
    pub use dtn_incentive::params::Role;
}

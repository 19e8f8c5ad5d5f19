//! # dtn-routing
//!
//! DTN routing substrates for the incentive overlay in `dtn-core`:
//!
//! * [`backend`] — the [`backend::RouterBackend`] seam and its six
//!   substrates. [`backend::ChitChatBackend`] is the ChitChat algorithm
//!   (McGeehan, Lin, Madria — ICDCS 2016): Real-time Transient Social
//!   Relationship modeling (decay/growth weight exchange) plus the
//!   `S_v > S_u` data-centric forwarding rule. It is the routing substrate
//!   *and*, with the overlay off, the evaluation baseline of the reproduced
//!   incentive paper. Epidemic, Direct Delivery, binary Spray-and-Wait,
//!   Two-Hop Relay and PRoPHET (RFC 6693) sit beside it for calibration
//!   and ablation studies.
//! * [`interests`] — the RTSR interest-table model shared with `dtn-core`.
//! * [`exchange`] — the RTSR exchange ritual and the settlement timing
//!   wheel.
//! * [`prophet`] — PRoPHET's delivery-predictability tables.
//! * [`directory`] — static interest registry used by the node-centric
//!   backends' delivery criterion.
//!
//! ## Example
//!
//! ```
//! use dtn_routing::prelude::*;
//! use dtn_sim::prelude::*;
//!
//! let mut backend = ChitChatBackend::new(10, ChitChatParams::paper_default());
//! backend.subscribe(NodeId(3), Keyword(42), SimTime::ZERO);
//! assert!(backend.is_destination(NodeId(3), &[Keyword(42)]));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod directory;
pub mod exchange;
pub mod interests;
pub mod prophet;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::backend::{
        BackendKind, ChitChatBackend, DirectBackend, EpidemicBackend, Overlay, ProphetBackend,
        RouterBackend, SprayBackend, TwoHopBackend,
    };
    pub use crate::directory::InterestDirectory;
    pub use crate::exchange::{due_pairs, rtsr_exchange, shared_keywords, KeywordSet};
    pub use crate::interests::{ChitChatParams, InterestEntry, InterestKind, InterestTable};
    pub use crate::prophet::ProphetParams;
}

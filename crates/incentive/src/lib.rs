//! # dtn-incentive
//!
//! The credit half of the paper's credit-and-reputation incentive mechanism
//! (Jethawa & Madria, ICDCS 2017 / MDM 2018):
//!
//! * [`ledger`] — per-node token balances in a closed economy (every node
//!   starts with the Table 5.1 endowment of 200 tokens);
//! * [`promise`] — the incentive promise attached at forwarding time:
//!   software factors (Algorithm 3), hardware factors (Friis energy), and
//!   the enrichment-tag reward;
//! * [`settlement`] — the reputation-scaled award `I_v` paid to the first
//!   deliverer (the kernel decides who was first), and the relay-threshold
//!   prepayment;
//! * [`params`] — every tunable constant, with the paper's defaults.
//!
//! The mechanics are deliberately protocol-agnostic: `dtn-core` wires them
//! into the ChitChat data flow, and the ablation benches toggle individual
//! pieces.
//!
//! ## Example
//!
//! ```
//! use dtn_incentive::prelude::*;
//! use dtn_sim::world::NodeId;
//!
//! let params = IncentiveParams::paper_default();
//! let mut ledger = TokenLedger::new(2, Tokens::new(params.initial_tokens));
//! ledger.transfer(NodeId(0), NodeId(1), Tokens::new(25.0))?;
//! assert_eq!(ledger.balance(NodeId(0)).amount(), 175.0);
//! assert_eq!(ledger.total().amount(), 400.0); // closed economy
//! # Ok::<(), dtn_incentive::ledger::InsufficientTokens>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ledger;
pub mod params;
pub mod promise;
pub mod settlement;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::ledger::{InsufficientTokens, TokenLedger, Tokens};
    pub use crate::params::{IncentiveParams, Role};
    pub use crate::promise::{
        hardware_incentive, software_incentive, tag_incentive, total_promise, SoftwareFactors,
    };
    pub use crate::settlement::{award, relay_prepayment, AwardInputs};
}

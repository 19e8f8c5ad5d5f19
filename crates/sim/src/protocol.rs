//! The protocol extension point.
//!
//! A [`Protocol`] is the store-carry-forward logic layered over the kernel:
//! it owns all routing state (interest tables, token ledgers, reputation
//! tables — partitioned per node *by convention*) and reacts to kernel
//! events through `&mut SimApi`, which exposes buffers, contacts, transfers
//! and statistics. The kernel mediates everything physical: movement,
//! contacts, bandwidth, buffer space, TTLs and energy.
//!
//! This "one protocol object, per-node state inside" shape is the standard
//! simulator architecture (ONE does the same with per-node router objects
//! that the kernel wires together); it keeps pairwise negotiation — which
//! the incentive mechanism leans on heavily — free of object-graph gymnastics
//! while still modelling strictly local knowledge.

use crate::buffer::InsertOutcome;
use crate::kernel::SimApi;
use crate::message::MessageId;
use crate::metrics::MetricsRegistry;
use crate::transfer::{AbortedTransfer, CompletedTransfer};
use crate::world::NodeId;

/// The result of a completed transfer, as seen by the receiver's buffer.
#[derive(Debug)]
pub struct Reception<'a> {
    /// The physical transfer record (airtime, distance, bytes).
    pub transfer: &'a CompletedTransfer,
    /// How the receiver's buffer handled the arriving copy.
    pub outcome: &'a InsertOutcome,
    /// Joules the sender spent transmitting.
    pub tx_joules: f64,
    /// Joules the receiver spent receiving (Friis-attenuated).
    pub rx_joules: f64,
}

/// Store-carry-forward protocol logic driven by the kernel.
///
/// All methods have empty defaults so simple protocols implement only what
/// they need. Within one step the kernel invokes hooks in this order:
/// contact downs, contact ups, message creations, transfer completions and
/// aborts, expirations, then [`Protocol::on_tick`].
pub trait Protocol {
    /// Called once before the first step.
    fn on_start(&mut self, api: &mut SimApi) {
        let _ = api;
    }

    /// A contact between `a` and `b` just came up (`a < b`).
    fn on_contact_up(&mut self, api: &mut SimApi, a: NodeId, b: NodeId) {
        let _ = (api, a, b);
    }

    /// The contact between `a` and `b` just went down (`a < b`). Pending
    /// transfers between them have already been aborted and reported.
    fn on_contact_down(&mut self, api: &mut SimApi, a: NodeId, b: NodeId) {
        let _ = (api, a, b);
    }

    /// `node` just created `message` (already placed in its buffer).
    fn on_message_created(&mut self, api: &mut SimApi, node: NodeId, message: MessageId) {
        let _ = (api, node, message);
    }

    /// A transfer finished; the arriving copy was offered to the receiver's
    /// buffer with the outcome in `reception`.
    fn on_transfer_complete(&mut self, api: &mut SimApi, reception: &Reception<'_>) {
        let _ = (api, reception);
    }

    /// A transfer was aborted (contact loss, source loss or cancellation).
    fn on_transfer_aborted(&mut self, api: &mut SimApi, aborted: &AbortedTransfer) {
        let _ = (api, aborted);
    }

    /// Buffered copies at `node` were purged by TTL.
    fn on_expired(&mut self, api: &mut SimApi, node: NodeId, messages: &[MessageId]) {
        let _ = (api, node, messages);
    }

    /// Buffered copies at `node` were evicted by buffer pressure (from a
    /// message creation or an incoming transfer). Protocols holding
    /// per-copy side state (carried metadata, spray tickets, …) clean it
    /// up here.
    fn on_evicted(&mut self, api: &mut SimApi, node: NodeId, messages: &[MessageId]) {
        let _ = (api, node, messages);
    }

    /// End-of-step hook (periodic work, sampling).
    fn on_tick(&mut self, api: &mut SimApi) {
        let _ = api;
    }

    /// Called once after the last step, before statistics are finalized.
    fn on_finish(&mut self, api: &mut SimApi) {
        let _ = api;
    }

    /// Contributes protocol-owned gauges (watched settlement pairs, wheel
    /// bucket occupancy, arena bytes in use, …) to the metrics registry
    /// the kernel exports (`--verbose` / `--metrics-out`). The default
    /// exports nothing.
    fn export_metrics(&self, registry: &mut MetricsRegistry) {
        let _ = registry;
    }

    /// Audits protocol-owned invariants (token conservation, rating
    /// bounds, …), returning one human-readable line per violation. The
    /// kernel calls this from its cadenced audit (see
    /// [`crate::invariants`]) when auditing is on; a breach aborts the run
    /// with a replayable report. The default has nothing to audit.
    fn check_invariants(&self, api: &SimApi) -> Vec<String> {
        let _ = api;
        Vec::new()
    }

    /// The protocol's full dynamic state as an opaque document, for a
    /// whole-world snapshot. Stateless protocols return
    /// [`serde::Value::Null`] (the default); stateful protocols must
    /// override both this and [`Protocol::restore_state`] or a resumed run
    /// will restart their routing state from scratch and diverge.
    fn snapshot_state(&self) -> serde::Value {
        serde::Value::Null
    }

    /// Restores the dynamic state captured by [`Protocol::snapshot_state`]
    /// into a freshly built protocol (same scenario, same seed).
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch when `state` is not a document
    /// this protocol produces (e.g. a snapshot taken under a different
    /// arm or protocol configuration).
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        if matches!(state, serde::Value::Null) {
            Ok(())
        } else {
            Err("snapshot carries protocol state but this protocol keeps none".to_string())
        }
    }
}

/// A protocol that does nothing; useful for mobility/contact-only studies
/// and kernel tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullProtocol;

impl Protocol for NullProtocol {}

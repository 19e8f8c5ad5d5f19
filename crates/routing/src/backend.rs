//! Pluggable routing backends for the incentive overlay.
//!
//! The paper's mechanism (credits, reputation, enrichment) and its routing
//! substrate (ChitChat's RTSR weights and `S_v > S_u` forwarding rule) are
//! separable: the mechanism only ever asks the substrate a handful of
//! questions — *is this node a destination?*, *is the peer a better
//! carrier?*, *how interested is the receiver?* — and feeds it a handful of
//! lifecycle events. [`RouterBackend`] is that seam. `dtn-core`'s
//! `DcimRouter` is generic over it, so the same overlay (participation
//! gating, token settlement, DRM, enrichment, invariant audits) composes
//! with Epidemic, Direct Delivery, Spray-and-Wait, Two-Hop and PRoPHET
//! exactly as it does with ChitChat.
//!
//! The contract that keeps the seam honest: with [`ChitChatBackend`] the
//! generic router reproduces the paper's ChitChat substrate byte-for-byte
//! (pinned by the golden-equivalence suite in `tests/tests/golden_trace.rs`
//! and the backend ≡ arm test in `tests/tests/routers.rs`). The other
//! backends implement the classic forwarding rules; the behaviours they
//! must show on controlled topologies are pinned by the backend table in
//! `crates/core/tests/protocol_integration.rs`.

use std::collections::HashMap;

use dtn_sim::message::{Keyword, MessageId};
use dtn_sim::time::SimTime;
use dtn_sim::world::NodeId;
use serde::{Deserialize, Serialize};

use crate::directory::InterestDirectory;
use crate::exchange::{rtsr_exchange, shared_keywords_into, KeywordSet};
use crate::interests::{ChitChatParams, InterestTable};
use crate::prophet::{Predictability, ProphetParams};

/// The routing-substrate interface the incentive overlay composes with.
///
/// Query methods classify a potential hand-off; lifecycle hooks let
/// stateful backends (Spray tickets, PRoPHET predictabilities, ChitChat
/// weights) track the run. All hooks are invoked by the overlay *after*
/// its participation gate — a closed (selfish) medium suppresses the
/// contact for the backend too, exactly as it does for the mechanism.
pub trait RouterBackend: std::fmt::Debug + Send {
    /// Number of nodes this backend was built for.
    fn node_count(&self) -> usize;

    /// Human-readable backend name (for logs and tables).
    fn label(&self) -> &'static str;

    /// Bytes of memory the backend's per-node routing state holds (struct
    /// plus heap capacity), for the `arena.interest_bytes` gauge. Backends
    /// without a meaningful measure may report 0 (the default).
    fn state_bytes(&self) -> usize {
        0
    }

    /// Registers a direct interest of `node` (the `Subscribe` operator).
    fn subscribe(&mut self, node: NodeId, keyword: Keyword, now: SimTime);

    /// Whether `node` is a destination for a message tagged `keywords`.
    fn is_destination(&self, node: NodeId, keywords: &[Keyword]) -> bool;

    /// `S_v`: `node`'s interest mass over `keywords` — feeds the software
    /// promise quote (Algorithm 3) when the overlay is on.
    fn interest_sum(&self, node: NodeId, keywords: &[Keyword]) -> f64;

    /// Mean per-keyword interest of `node` — feeds the relay-prepayment
    /// threshold when the overlay is on.
    fn mean_weight(&self, node: NodeId, keywords: &[Keyword]) -> f64;

    /// Whether `holder` may offer a copy originated by `source` at all
    /// (Direct Delivery restricts offering to the source itself).
    fn may_offer(&self, holder: NodeId, source: NodeId) -> bool {
        let _ = (holder, source);
        true
    }

    /// The backend's relay rule: whether a copy held by `from` should be
    /// handed to non-destination `to`.
    fn accepts_relay(
        &self,
        from: NodeId,
        to: NodeId,
        id: MessageId,
        source: NodeId,
        keywords: &[Keyword],
    ) -> bool;

    /// An upper bound on the keywords through which `to` could take a copy
    /// from `from`. Returning `true` promises that a message tagged with no
    /// keyword of `out` is neither [`Self::is_destination`] for `to` nor
    /// [`Self::accepts_relay`]-ed from `from` to `to`, whatever its id and
    /// source, until the backend's state next changes; the overlay then
    /// skips such offers unclassified. The default returns `false`: no
    /// bound, every offer is classified (`out` is left unspecified).
    fn offer_keywords(&self, from: NodeId, to: NodeId, out: &mut KeywordSet) -> bool {
        let _ = (from, to, out);
        false
    }

    /// A contact between `a` and `b` opened (PRoPHET ages, bumps and
    /// transits its predictabilities here).
    fn on_contact_open(&mut self, now: SimTime, a: NodeId, b: NodeId) {
        let _ = (now, a, b);
    }

    /// Periodic pairwise state exchange while a contact is up (ChitChat's
    /// RTSR ritual). `peers_a`/`peers_b` are the endpoints' *open* peer
    /// sets — closed media do not count as connected devices.
    fn exchange(
        &mut self,
        now: SimTime,
        a: NodeId,
        b: NodeId,
        connected_secs: f64,
        peers_a: &[NodeId],
        peers_b: &[NodeId],
    ) {
        let _ = (now, a, b, connected_secs, peers_a, peers_b);
    }

    /// `node` created `id` (Spray-and-Wait endows its ticket budget).
    fn on_message_created(&mut self, node: NodeId, id: MessageId) {
        let _ = (node, id);
    }

    /// A send of `id` from `from` to `to` was initiated; `dest` is whether
    /// the receiver was classified as a destination (Spray splits its
    /// tickets here, held in escrow until the transfer resolves).
    fn on_send_initiated(&mut self, from: NodeId, to: NodeId, id: MessageId, dest: bool) {
        let _ = (from, to, id, dest);
    }

    /// The transfer of `id` from `from` completed and `to` stored the copy
    /// (Spray releases the escrowed ticket grant to the receiver).
    fn on_stored(&mut self, from: NodeId, to: NodeId, id: MessageId) {
        let _ = (from, to, id);
    }

    /// A send of `id` from `from` to `to` failed — aborted, rejected by
    /// the receiver's buffer, or voided by the overlay (Spray refunds the
    /// escrowed grant to the sender).
    fn on_send_failed(&mut self, from: NodeId, to: NodeId, id: MessageId) {
        let _ = (from, to, id);
    }

    /// `node` dropped `messages` (TTL expiry or buffer eviction) — any
    /// per-copy backend state dies with them.
    fn on_removed(&mut self, node: NodeId, messages: &[MessageId]) {
        let _ = (node, messages);
    }

    /// The backend's dynamic routing state as an opaque document, for a
    /// whole-world snapshot. Backends whose only state is the subscription
    /// directory (rebuilt from the scenario on restore) return
    /// [`serde::Value::Null`] (the default); backends whose state evolves
    /// during the run (ChitChat weights, Spray tickets, PRoPHET
    /// predictabilities) must override both this and
    /// [`RouterBackend::restore_state`].
    fn snapshot_state(&self) -> serde::Value {
        serde::Value::Null
    }

    /// Restores the state captured by [`RouterBackend::snapshot_state`]
    /// into a freshly built backend of the same configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch when `state` is not a
    /// document this backend produces.
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        if matches!(state, serde::Value::Null) {
            Ok(())
        } else {
            Err(format!(
                "snapshot carries routing state but the {} backend keeps none",
                self.label()
            ))
        }
    }
}

impl RouterBackend for Box<dyn RouterBackend> {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn label(&self) -> &'static str {
        (**self).label()
    }

    fn subscribe(&mut self, node: NodeId, keyword: Keyword, now: SimTime) {
        (**self).subscribe(node, keyword, now);
    }

    fn is_destination(&self, node: NodeId, keywords: &[Keyword]) -> bool {
        (**self).is_destination(node, keywords)
    }

    fn interest_sum(&self, node: NodeId, keywords: &[Keyword]) -> f64 {
        (**self).interest_sum(node, keywords)
    }

    fn mean_weight(&self, node: NodeId, keywords: &[Keyword]) -> f64 {
        (**self).mean_weight(node, keywords)
    }

    fn may_offer(&self, holder: NodeId, source: NodeId) -> bool {
        (**self).may_offer(holder, source)
    }

    fn accepts_relay(
        &self,
        from: NodeId,
        to: NodeId,
        id: MessageId,
        source: NodeId,
        keywords: &[Keyword],
    ) -> bool {
        (**self).accepts_relay(from, to, id, source, keywords)
    }

    fn offer_keywords(&self, from: NodeId, to: NodeId, out: &mut KeywordSet) -> bool {
        (**self).offer_keywords(from, to, out)
    }

    fn on_contact_open(&mut self, now: SimTime, a: NodeId, b: NodeId) {
        (**self).on_contact_open(now, a, b);
    }

    fn exchange(
        &mut self,
        now: SimTime,
        a: NodeId,
        b: NodeId,
        connected_secs: f64,
        peers_a: &[NodeId],
        peers_b: &[NodeId],
    ) {
        (**self).exchange(now, a, b, connected_secs, peers_a, peers_b);
    }

    fn on_message_created(&mut self, node: NodeId, id: MessageId) {
        (**self).on_message_created(node, id);
    }

    fn on_send_initiated(&mut self, from: NodeId, to: NodeId, id: MessageId, dest: bool) {
        (**self).on_send_initiated(from, to, id, dest);
    }

    fn on_stored(&mut self, from: NodeId, to: NodeId, id: MessageId) {
        (**self).on_stored(from, to, id);
    }

    fn on_send_failed(&mut self, from: NodeId, to: NodeId, id: MessageId) {
        (**self).on_send_failed(from, to, id);
    }

    fn on_removed(&mut self, node: NodeId, messages: &[MessageId]) {
        (**self).on_removed(node, messages);
    }

    fn snapshot_state(&self) -> serde::Value {
        (**self).snapshot_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        (**self).restore_state(state)
    }
}

// ---------------------------------------------------------------------------
// ChitChat
// ---------------------------------------------------------------------------

/// The paper's substrate: RTSR interest tables with decay/growth exchange
/// and the `S_v > S_u` data-centric relay rule.
#[derive(Debug, Clone)]
pub struct ChitChatBackend {
    params: ChitChatParams,
    tables: Vec<InterestTable>,
    /// Reusable shared-keyword bitmaps for [`RouterBackend::exchange`] —
    /// two per due pair every settlement tick. Transient scratch: cleared
    /// on every use, absent from snapshots.
    shared_scratch: (KeywordSet, KeywordSet),
}

impl ChitChatBackend {
    /// Creates fresh interest tables for `node_count` nodes.
    #[must_use]
    pub fn new(node_count: usize, params: ChitChatParams) -> Self {
        ChitChatBackend {
            params,
            tables: vec![InterestTable::new(); node_count],
            shared_scratch: (KeywordSet::new(), KeywordSet::new()),
        }
    }

    /// `node`'s RTSR interest table.
    #[must_use]
    pub fn table(&self, node: NodeId) -> &InterestTable {
        &self.tables[node.index()]
    }
}

impl RouterBackend for ChitChatBackend {
    fn node_count(&self) -> usize {
        self.tables.len()
    }

    fn label(&self) -> &'static str {
        "ChitChat"
    }

    fn state_bytes(&self) -> usize {
        self.tables.iter().map(InterestTable::state_bytes).sum()
    }

    fn subscribe(&mut self, node: NodeId, keyword: Keyword, now: SimTime) {
        self.tables[node.index()].subscribe(keyword, &self.params, now);
    }

    fn is_destination(&self, node: NodeId, keywords: &[Keyword]) -> bool {
        self.tables[node.index()].is_destination_for(keywords)
    }

    fn interest_sum(&self, node: NodeId, keywords: &[Keyword]) -> f64 {
        self.tables[node.index()].sum_of_weights(keywords)
    }

    fn mean_weight(&self, node: NodeId, keywords: &[Keyword]) -> f64 {
        self.tables[node.index()].mean_weight(keywords)
    }

    fn accepts_relay(
        &self,
        from: NodeId,
        to: NodeId,
        _id: MessageId,
        _source: NodeId,
        keywords: &[Keyword],
    ) -> bool {
        let s_from = self.tables[from.index()].sum_of_weights(keywords);
        let s_to = self.tables[to.index()].sum_of_weights(keywords);
        s_to > s_from
    }

    fn offer_keywords(&self, from: NodeId, to: NodeId, out: &mut KeywordSet) -> bool {
        self.tables[to.index()].offer_keywords_into(&self.tables[from.index()], out);
        true
    }

    fn exchange(
        &mut self,
        now: SimTime,
        a: NodeId,
        b: NodeId,
        connected_secs: f64,
        peers_a: &[NodeId],
        peers_b: &[NodeId],
    ) {
        let (shared_a, shared_b) = (&mut self.shared_scratch.0, &mut self.shared_scratch.1);
        shared_keywords_into(&self.tables, peers_a, shared_a);
        shared_keywords_into(&self.tables, peers_b, shared_b);
        rtsr_exchange(
            &mut self.tables,
            a,
            b,
            connected_secs,
            &self.params,
            now,
            shared_a,
            shared_b,
        );
    }

    fn snapshot_state(&self) -> serde::Value {
        self.tables.to_value()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        let tables = Vec::<InterestTable>::from_value(state)
            .map_err(|e| format!("ChitChat tables do not parse: {e}"))?;
        if tables.len() != self.tables.len() {
            return Err(format!(
                "snapshot has {} ChitChat tables for {} nodes",
                tables.len(),
                self.tables.len()
            ));
        }
        self.tables = tables;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Directory-based baselines
// ---------------------------------------------------------------------------

/// Matched-interest mass of `node` over `keywords` for the node-centric
/// baselines: the count of the node's direct interests among the tags.
fn directory_sum(dir: &InterestDirectory, node: NodeId, keywords: &[Keyword]) -> f64 {
    let set = dir.interests_of(node);
    keywords.iter().filter(|k| set.contains(k)).count() as f64
}

/// Mean matched interest per tag (relays match nothing — if they matched,
/// they would *be* destinations — so the prepayment threshold never fires
/// for directory backends).
fn directory_mean(dir: &InterestDirectory, node: NodeId, keywords: &[Keyword]) -> f64 {
    if keywords.is_empty() {
        return 0.0;
    }
    directory_sum(dir, node, keywords) / keywords.len() as f64
}

/// Epidemic flooding: every open peer is a welcome relay.
#[derive(Debug, Clone)]
pub struct EpidemicBackend {
    dir: InterestDirectory,
}

impl EpidemicBackend {
    /// Creates the backend for `node_count` nodes.
    #[must_use]
    pub fn new(node_count: usize) -> Self {
        EpidemicBackend {
            dir: InterestDirectory::new(node_count),
        }
    }
}

impl RouterBackend for EpidemicBackend {
    fn node_count(&self) -> usize {
        self.dir.node_count()
    }

    fn label(&self) -> &'static str {
        "Epidemic"
    }

    fn subscribe(&mut self, node: NodeId, keyword: Keyword, _now: SimTime) {
        self.dir.subscribe(node, [keyword]);
    }

    fn is_destination(&self, node: NodeId, keywords: &[Keyword]) -> bool {
        self.dir.is_destination(node, keywords)
    }

    fn interest_sum(&self, node: NodeId, keywords: &[Keyword]) -> f64 {
        directory_sum(&self.dir, node, keywords)
    }

    fn mean_weight(&self, node: NodeId, keywords: &[Keyword]) -> f64 {
        directory_mean(&self.dir, node, keywords)
    }

    fn accepts_relay(
        &self,
        _from: NodeId,
        _to: NodeId,
        _id: MessageId,
        _source: NodeId,
        _keywords: &[Keyword],
    ) -> bool {
        true
    }
}

/// Direct Delivery: only the source carries, only destinations receive.
#[derive(Debug, Clone)]
pub struct DirectBackend {
    dir: InterestDirectory,
}

impl DirectBackend {
    /// Creates the backend for `node_count` nodes.
    #[must_use]
    pub fn new(node_count: usize) -> Self {
        DirectBackend {
            dir: InterestDirectory::new(node_count),
        }
    }
}

impl RouterBackend for DirectBackend {
    fn node_count(&self) -> usize {
        self.dir.node_count()
    }

    fn label(&self) -> &'static str {
        "Direct Delivery"
    }

    fn subscribe(&mut self, node: NodeId, keyword: Keyword, _now: SimTime) {
        self.dir.subscribe(node, [keyword]);
    }

    fn is_destination(&self, node: NodeId, keywords: &[Keyword]) -> bool {
        self.dir.is_destination(node, keywords)
    }

    fn interest_sum(&self, node: NodeId, keywords: &[Keyword]) -> f64 {
        directory_sum(&self.dir, node, keywords)
    }

    fn mean_weight(&self, node: NodeId, keywords: &[Keyword]) -> f64 {
        directory_mean(&self.dir, node, keywords)
    }

    fn may_offer(&self, holder: NodeId, source: NodeId) -> bool {
        holder == source
    }

    fn accepts_relay(
        &self,
        _from: NodeId,
        _to: NodeId,
        _id: MessageId,
        _source: NodeId,
        _keywords: &[Keyword],
    ) -> bool {
        false
    }
}

/// Binary Spray-and-Wait: a fixed per-message ticket budget halves at each
/// relay hand-off; a single-ticket holder waits for the destination.
///
/// Grants are escrowed at send initiation and settle on the transfer
/// outcome, so aborted or refused transfers refund the sender.
#[derive(Debug, Clone)]
pub struct SprayBackend {
    dir: InterestDirectory,
    copies: u32,
    tickets: HashMap<(NodeId, MessageId), u32>,
    pending_grants: HashMap<(NodeId, NodeId, MessageId), u32>,
}

impl SprayBackend {
    /// Creates the backend with `copies` initial tickets per message.
    ///
    /// # Panics
    ///
    /// Panics if `copies` is zero.
    #[must_use]
    pub fn new(node_count: usize, copies: u32) -> Self {
        assert!(copies > 0, "spray needs at least one ticket");
        SprayBackend {
            dir: InterestDirectory::new(node_count),
            copies,
            tickets: HashMap::new(),
            pending_grants: HashMap::new(),
        }
    }

    /// Tickets `node` currently holds for `id`.
    #[must_use]
    pub fn tickets(&self, node: NodeId, id: MessageId) -> u32 {
        self.tickets.get(&(node, id)).copied().unwrap_or(0)
    }
}

impl RouterBackend for SprayBackend {
    fn node_count(&self) -> usize {
        self.dir.node_count()
    }

    fn label(&self) -> &'static str {
        "Spray-and-Wait"
    }

    fn subscribe(&mut self, node: NodeId, keyword: Keyword, _now: SimTime) {
        self.dir.subscribe(node, [keyword]);
    }

    fn is_destination(&self, node: NodeId, keywords: &[Keyword]) -> bool {
        self.dir.is_destination(node, keywords)
    }

    fn interest_sum(&self, node: NodeId, keywords: &[Keyword]) -> f64 {
        directory_sum(&self.dir, node, keywords)
    }

    fn mean_weight(&self, node: NodeId, keywords: &[Keyword]) -> f64 {
        directory_mean(&self.dir, node, keywords)
    }

    fn accepts_relay(
        &self,
        from: NodeId,
        _to: NodeId,
        id: MessageId,
        _source: NodeId,
        _keywords: &[Keyword],
    ) -> bool {
        self.tickets(from, id) > 1
    }

    fn on_message_created(&mut self, node: NodeId, id: MessageId) {
        self.tickets.insert((node, id), self.copies);
    }

    fn on_send_initiated(&mut self, from: NodeId, to: NodeId, id: MessageId, dest: bool) {
        if dest {
            // Delivery costs no tickets.
            self.pending_grants.insert((from, to, id), 0);
            return;
        }
        let have = self.tickets(from, id);
        if have > 1 {
            let grant = have.div_ceil(2);
            self.tickets.insert((from, id), have - grant);
            self.pending_grants.insert((from, to, id), grant);
        }
    }

    fn on_stored(&mut self, from: NodeId, to: NodeId, id: MessageId) {
        if let Some(grant) = self.pending_grants.remove(&(from, to, id)) {
            if grant > 0 {
                *self.tickets.entry((to, id)).or_insert(0) += grant;
            }
        }
    }

    fn on_send_failed(&mut self, from: NodeId, to: NodeId, id: MessageId) {
        if let Some(grant) = self.pending_grants.remove(&(from, to, id)) {
            if grant > 0 {
                *self.tickets.entry((from, id)).or_insert(0) += grant;
            }
        }
    }

    fn on_removed(&mut self, node: NodeId, messages: &[MessageId]) {
        for &m in messages {
            self.tickets.remove(&(node, m));
        }
    }

    fn snapshot_state(&self) -> serde::Value {
        let mut tickets: Vec<(NodeId, MessageId, u32)> =
            self.tickets.iter().map(|(&(n, m), &t)| (n, m, t)).collect();
        tickets.sort_unstable_by_key(|&(n, m, _)| (n, m));
        let mut grants: Vec<(NodeId, NodeId, MessageId, u32)> = self
            .pending_grants
            .iter()
            .map(|(&(f, t, m), &g)| (f, t, m, g))
            .collect();
        grants.sort_unstable_by_key(|&(f, t, m, _)| (f, t, m));
        SprayState { tickets, grants }.to_value()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        let state = SprayState::from_value(state)
            .map_err(|e| format!("Spray ticket state does not parse: {e}"))?;
        self.tickets = state.tickets.iter().map(|&(n, m, t)| ((n, m), t)).collect();
        self.pending_grants = state
            .grants
            .iter()
            .map(|&(f, t, m, g)| ((f, t, m), g))
            .collect();
        Ok(())
    }
}

/// Serialized form of [`SprayBackend`]'s ticket economy (key-sorted).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SprayState {
    tickets: Vec<(NodeId, MessageId, u32)>,
    grants: Vec<(NodeId, NodeId, MessageId, u32)>,
}

/// Two-Hop Relay: the source sprays to every peer; relays hold their copy
/// until they meet a destination.
#[derive(Debug, Clone)]
pub struct TwoHopBackend {
    dir: InterestDirectory,
}

impl TwoHopBackend {
    /// Creates the backend for `node_count` nodes.
    #[must_use]
    pub fn new(node_count: usize) -> Self {
        TwoHopBackend {
            dir: InterestDirectory::new(node_count),
        }
    }
}

impl RouterBackend for TwoHopBackend {
    fn node_count(&self) -> usize {
        self.dir.node_count()
    }

    fn label(&self) -> &'static str {
        "Two-Hop Relay"
    }

    fn subscribe(&mut self, node: NodeId, keyword: Keyword, _now: SimTime) {
        self.dir.subscribe(node, [keyword]);
    }

    fn is_destination(&self, node: NodeId, keywords: &[Keyword]) -> bool {
        self.dir.is_destination(node, keywords)
    }

    fn interest_sum(&self, node: NodeId, keywords: &[Keyword]) -> f64 {
        directory_sum(&self.dir, node, keywords)
    }

    fn mean_weight(&self, node: NodeId, keywords: &[Keyword]) -> f64 {
        directory_mean(&self.dir, node, keywords)
    }

    fn accepts_relay(
        &self,
        from: NodeId,
        _to: NodeId,
        _id: MessageId,
        source: NodeId,
        _keywords: &[Keyword],
    ) -> bool {
        from == source
    }
}

/// PRoPHET: history-based delivery predictabilities; a peer is a welcome
/// relay when it is a better bet for *some* destination of the message.
#[derive(Debug, Clone)]
pub struct ProphetBackend {
    dir: InterestDirectory,
    params: ProphetParams,
    tables: Vec<Predictability>,
}

impl ProphetBackend {
    /// Creates the backend for `node_count` nodes.
    #[must_use]
    pub fn new(node_count: usize, params: ProphetParams) -> Self {
        ProphetBackend {
            dir: InterestDirectory::new(node_count),
            params,
            tables: (0..node_count).map(|_| Predictability::default()).collect(),
        }
    }

    /// The delivery predictability `P(a, b)` as currently held by `a`.
    #[must_use]
    pub fn predictability(&self, a: NodeId, b: NodeId) -> f64 {
        self.tables[a.index()].get(b)
    }
}

impl RouterBackend for ProphetBackend {
    fn node_count(&self) -> usize {
        self.dir.node_count()
    }

    fn label(&self) -> &'static str {
        "PRoPHET"
    }

    fn subscribe(&mut self, node: NodeId, keyword: Keyword, _now: SimTime) {
        self.dir.subscribe(node, [keyword]);
    }

    fn is_destination(&self, node: NodeId, keywords: &[Keyword]) -> bool {
        self.dir.is_destination(node, keywords)
    }

    fn interest_sum(&self, node: NodeId, keywords: &[Keyword]) -> f64 {
        directory_sum(&self.dir, node, keywords)
    }

    fn mean_weight(&self, node: NodeId, keywords: &[Keyword]) -> f64 {
        directory_mean(&self.dir, node, keywords)
    }

    fn accepts_relay(
        &self,
        from: NodeId,
        to: NodeId,
        _id: MessageId,
        source: NodeId,
        keywords: &[Keyword],
    ) -> bool {
        self.dir
            .destinations_for(keywords, source)
            .into_iter()
            .any(|d| self.tables[to.index()].get(d) > self.tables[from.index()].get(d))
    }

    fn on_contact_open(&mut self, now: SimTime, a: NodeId, b: NodeId) {
        // Age both, bump the mutual encounter, then apply transitivity
        // against pre-transit snapshots.
        let now = now.as_secs();
        self.tables[a.index()].age(now, &self.params);
        self.tables[b.index()].age(now, &self.params);
        self.tables[a.index()].encounter(b, &self.params);
        self.tables[b.index()].encounter(a, &self.params);
        let snap_a = self.tables[a.index()].snapshot();
        let snap_b = self.tables[b.index()].snapshot();
        self.tables[a.index()].transit(b, &snap_b, &self.params);
        self.tables[b.index()].transit(a, &snap_a, &self.params);
    }

    fn snapshot_state(&self) -> serde::Value {
        self.tables
            .iter()
            .map(Predictability::export_state)
            .collect::<Vec<_>>()
            .to_value()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        let tables = Vec::<crate::prophet::PredictabilityState>::from_value(state)
            .map_err(|e| format!("PRoPHET tables do not parse: {e}"))?;
        if tables.len() != self.tables.len() {
            return Err(format!(
                "snapshot has {} PRoPHET tables for {} nodes",
                tables.len(),
                self.tables.len()
            ));
        }
        for (table, doc) in self.tables.iter_mut().zip(&tables) {
            table.import_state(doc);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Value types: the backend grid
// ---------------------------------------------------------------------------

/// A selectable routing backend, serializable for scenarios and sweep
/// cache keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendKind {
    /// The paper's ChitChat substrate (the two `Arm`s live here).
    ChitChat,
    /// Epidemic flooding.
    Epidemic,
    /// Direct Delivery.
    DirectDelivery,
    /// Binary Spray-and-Wait with the given ticket budget.
    SprayAndWait(u32),
    /// Two-Hop Relay.
    TwoHop,
    /// PRoPHET (RFC 6693 defaults).
    Prophet,
}

impl BackendKind {
    /// Every backend, one per family — the exhaustive grid axis. Adding a
    /// variant without extending this array fails the wildcard-free match
    /// in `index`, so the grid can never silently miss a backend.
    pub const ALL: [BackendKind; 6] = [
        BackendKind::ChitChat,
        BackendKind::Epidemic,
        BackendKind::DirectDelivery,
        BackendKind::SprayAndWait(8),
        BackendKind::TwoHop,
        BackendKind::Prophet,
    ];

    /// Stable cache-key tag.
    #[must_use]
    pub fn tag(self) -> String {
        match self {
            BackendKind::ChitChat => "chitchat".to_string(),
            BackendKind::Epidemic => "epidemic".to_string(),
            BackendKind::DirectDelivery => "direct".to_string(),
            BackendKind::SprayAndWait(n) => format!("spray{n}"),
            BackendKind::TwoHop => "twohop".to_string(),
            BackendKind::Prophet => "prophet".to_string(),
        }
    }

    /// Human-readable name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::ChitChat => "ChitChat",
            BackendKind::Epidemic => "Epidemic",
            BackendKind::DirectDelivery => "Direct Delivery",
            BackendKind::SprayAndWait(_) => "Spray-and-Wait",
            BackendKind::TwoHop => "Two-Hop Relay",
            BackendKind::Prophet => "PRoPHET",
        }
    }

    /// The variant's position in [`BackendKind::ALL`] — a wildcard-free
    /// match, so the compiler enforces that `ALL` and the enum stay in
    /// lock-step.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            BackendKind::ChitChat => 0,
            BackendKind::Epidemic => 1,
            BackendKind::DirectDelivery => 2,
            BackendKind::SprayAndWait(_) => 3,
            BackendKind::TwoHop => 4,
            BackendKind::Prophet => 5,
        }
    }

    /// Builds the backend for `node_count` nodes. ChitChat takes the
    /// scenario's `chitchat` params; the others use their canonical
    /// defaults.
    ///
    /// # Panics
    ///
    /// Panics for `SprayAndWait(0)` (scenario validation rejects it
    /// earlier).
    #[must_use]
    pub fn instantiate(
        self,
        node_count: usize,
        chitchat: &ChitChatParams,
    ) -> Box<dyn RouterBackend> {
        match self {
            BackendKind::ChitChat => Box::new(ChitChatBackend::new(node_count, *chitchat)),
            BackendKind::Epidemic => Box::new(EpidemicBackend::new(node_count)),
            BackendKind::DirectDelivery => Box::new(DirectBackend::new(node_count)),
            BackendKind::SprayAndWait(copies) => Box::new(SprayBackend::new(node_count, copies)),
            BackendKind::TwoHop => Box::new(TwoHopBackend::new(node_count)),
            BackendKind::Prophet => {
                Box::new(ProphetBackend::new(node_count, ProphetParams::default()))
            }
        }
    }

    /// Parses a CLI spelling: `chitchat`, `epidemic`, `direct`,
    /// `spray[:N]` (also the tag spelling `sprayN`), `twohop`, `prophet`.
    ///
    /// # Errors
    ///
    /// Returns a description of the accepted spellings on no match.
    pub fn parse(text: &str) -> Result<Self, String> {
        let lower = text.to_ascii_lowercase();
        let spray_count = lower
            .strip_prefix("spray:")
            .or_else(|| lower.strip_prefix("spray").filter(|rest| !rest.is_empty()));
        if let Some(n) = spray_count {
            let copies: u32 = n
                .parse()
                .map_err(|_| format!("bad spray ticket count {n:?}"))?;
            if copies == 0 {
                return Err("spray needs at least one ticket".to_string());
            }
            return Ok(BackendKind::SprayAndWait(copies));
        }
        match lower.as_str() {
            "chitchat" => Ok(BackendKind::ChitChat),
            "epidemic" => Ok(BackendKind::Epidemic),
            "direct" => Ok(BackendKind::DirectDelivery),
            "spray" => Ok(BackendKind::SprayAndWait(8)),
            "twohop" => Ok(BackendKind::TwoHop),
            "prophet" => Ok(BackendKind::Prophet),
            _ => Err(format!(
                "unknown router {text:?} (expected chitchat|epidemic|direct|spray[:N]|twohop|prophet)"
            )),
        }
    }
}

/// Whether the incentive mechanism wraps the backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Overlay {
    /// Credits + reputation + enrichment active (the paper's mechanism).
    On,
    /// Plain routing under the same behavior models (the baseline).
    Off,
}

impl Overlay {
    /// Both overlay states — the second grid axis.
    pub const BOTH: [Overlay; 2] = [Overlay::On, Overlay::Off];

    /// Stable cache-key tag.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Overlay::On => "on",
            Overlay::Off => "off",
        }
    }

    /// Human-readable name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Overlay::On => "Incentive",
            Overlay::Off => "Plain",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_and_index_stay_in_lock_step() {
        for (i, kind) in BackendKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i, "{}", kind.tag());
        }
        let tags: Vec<String> = BackendKind::ALL.iter().map(|k| k.tag()).collect();
        let mut unique = tags.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), tags.len(), "tags are distinct: {tags:?}");
    }

    #[test]
    fn parse_covers_every_spelling() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(&kind.tag()), Ok(kind));
        }
        assert_eq!(
            BackendKind::parse("spray"),
            Ok(BackendKind::SprayAndWait(8))
        );
        assert_eq!(
            BackendKind::parse("SPRAY:4"),
            Ok(BackendKind::SprayAndWait(4))
        );
        assert!(BackendKind::parse("spray:0").is_err());
        assert!(BackendKind::parse("flood").is_err());
    }

    #[test]
    fn chitchat_backend_mirrors_the_relay_rule() {
        let params = ChitChatParams::paper_default();
        let mut b = ChitChatBackend::new(3, params);
        b.subscribe(NodeId(1), Keyword(7), SimTime::ZERO);
        assert!(b.is_destination(NodeId(1), &[Keyword(7)]));
        assert!(!b.is_destination(NodeId(0), &[Keyword(7)]));
        // n1 has positive weight on k7, n0 and n2 have none: n1 accepts as
        // a relay from n0, but n0 never accepts from n1.
        assert!(b.accepts_relay(NodeId(0), NodeId(1), MessageId(0), NodeId(0), &[Keyword(7)]));
        assert!(!b.accepts_relay(NodeId(1), NodeId(0), MessageId(0), NodeId(1), &[Keyword(7)]));
        assert!(b.interest_sum(NodeId(1), &[Keyword(7)]) > 0.0);
    }

    #[test]
    fn boxed_backend_forwards_the_offer_keyword_bound() {
        // Every non-ChitChat run goes through `Box<dyn RouterBackend>`: a
        // forwarder that fell back to the default hook would silently
        // disable pruning.
        let params = ChitChatParams::paper_default();
        let mut b = ChitChatBackend::new(3, params);
        b.subscribe(NodeId(0), Keyword(1), SimTime::ZERO);
        b.subscribe(NodeId(1), Keyword(2), SimTime::ZERO);
        b.subscribe(NodeId(2), Keyword(3), SimTime::ZERO);
        let peers = [NodeId(0), NodeId(1)];
        b.exchange(
            SimTime::from_secs(30.0),
            NodeId(0),
            NodeId(1),
            30.0,
            &peers,
            &peers,
        );
        let boxed: Box<dyn RouterBackend> = Box::new(b.clone());
        for (from, to) in [(0, 1), (1, 0), (0, 2), (2, 1)] {
            let (from, to) = (NodeId(from), NodeId(to));
            let (mut direct, mut forwarded) = (KeywordSet::new(), KeywordSet::new());
            assert!(b.offer_keywords(from, to, &mut direct));
            assert!(boxed.offer_keywords(from, to, &mut forwarded));
            assert!(!direct.is_empty(), "{to} has a direct interest");
            assert!(direct.same_keywords(&forwarded), "{from}->{to}");
        }
        let epidemic: Box<dyn RouterBackend> = Box::new(EpidemicBackend::new(3));
        assert!(!epidemic.offer_keywords(NodeId(0), NodeId(1), &mut KeywordSet::new()));
    }

    #[test]
    fn spray_escrow_grants_and_refunds() {
        let mut b = SprayBackend::new(4, 8);
        let (src, relay, id) = (NodeId(0), NodeId(1), MessageId(3));
        b.on_message_created(src, id);
        assert_eq!(b.tickets(src, id), 8);
        assert!(b.accepts_relay(src, relay, id, src, &[]));

        // Successful relay hand-off: half the tickets move.
        b.on_send_initiated(src, relay, id, false);
        assert_eq!(b.tickets(src, id), 4);
        b.on_stored(src, relay, id);
        assert_eq!(b.tickets(relay, id), 4);

        // Failed hand-off: the escrowed grant returns to the sender.
        b.on_send_initiated(src, NodeId(2), id, false);
        assert_eq!(b.tickets(src, id), 2);
        b.on_send_failed(src, NodeId(2), id);
        assert_eq!(b.tickets(src, id), 4);

        // Delivery consumes nothing.
        b.on_send_initiated(src, NodeId(3), id, true);
        assert_eq!(b.tickets(src, id), 4);
        b.on_stored(src, NodeId(3), id);
        assert_eq!(b.tickets(NodeId(3), id), 0);

        // A single ticket stops relaying.
        b.on_removed(src, &[id]);
        assert_eq!(b.tickets(src, id), 0);
        assert!(!b.accepts_relay(src, relay, id, src, &[]));
    }

    #[test]
    fn prophet_backend_tracks_encounters() {
        let mut b = ProphetBackend::new(3, ProphetParams::default());
        b.subscribe(NodeId(2), Keyword(1), SimTime::ZERO);
        b.on_contact_open(SimTime::from_secs(10.0), NodeId(1), NodeId(2));
        assert_eq!(b.predictability(NodeId(1), NodeId(2)), 0.75);
        // n1 is now a better bet for destination n2 than the source n0.
        assert!(b.accepts_relay(NodeId(0), NodeId(1), MessageId(0), NodeId(0), &[Keyword(1)]));
        assert!(!b.accepts_relay(NodeId(1), NodeId(0), MessageId(0), NodeId(1), &[Keyword(1)]));
    }

    #[test]
    fn direct_and_twohop_restrict_relaying() {
        let d = DirectBackend::new(3);
        assert!(d.may_offer(NodeId(0), NodeId(0)));
        assert!(!d.may_offer(NodeId(1), NodeId(0)));
        assert!(!d.accepts_relay(NodeId(0), NodeId(1), MessageId(0), NodeId(0), &[]));

        let t = TwoHopBackend::new(3);
        assert!(t.accepts_relay(NodeId(0), NodeId(1), MessageId(0), NodeId(0), &[]));
        assert!(!t.accepts_relay(NodeId(1), NodeId(2), MessageId(0), NodeId(0), &[]));

        let e = EpidemicBackend::new(3);
        assert!(e.accepts_relay(NodeId(1), NodeId(2), MessageId(0), NodeId(0), &[]));
    }
}

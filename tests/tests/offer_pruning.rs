//! Offer-pass pruning changes no output byte (DESIGN.md §17).
//!
//! `DcimRouter::route` skips the offers its backend's keyword bound
//! (`RouterBackend::offer_keywords`) proves refused. These tests run each
//! world twice — over `ChitChatBackend`, which reports the bound, and over
//! `Unpruned<ChitChatBackend>`, which delegates everything but keeps the
//! trait's default (no bound), so every offer is classified as before
//! pruning existed — and demand byte-identical traces, run summaries and
//! protocol stats.

use dtn_core::protocol::ProtocolStats;
use dtn_integration_tests::fast_scenario;
use dtn_routing::backend::{ChitChatBackend, RouterBackend};
use dtn_routing::exchange::KeywordSet;
use dtn_routing::interests::ChitChatParams;
use dtn_sim::message::{Keyword, MessageId};
use dtn_sim::time::SimTime;
use dtn_sim::world::NodeId;
use dtn_workloads::prelude::*;
use dtn_workloads::runner::{build_world, run_to_horizon};

const SEEDS: [u64; 3] = [101, 202, 303];

/// Invariant-audit cadence in steps (as in the kernel-mode suite).
const AUDIT_EVERY: u64 = 60;

/// Delegates every method to the wrapped backend but keeps the trait's
/// default `offer_keywords`: no bound, so the overlay classifies every
/// offer.
#[derive(Debug)]
struct Unpruned<B>(B);

impl<B: RouterBackend> RouterBackend for Unpruned<B> {
    fn node_count(&self) -> usize {
        self.0.node_count()
    }

    fn label(&self) -> &'static str {
        self.0.label()
    }

    fn state_bytes(&self) -> usize {
        self.0.state_bytes()
    }

    fn subscribe(&mut self, node: NodeId, keyword: Keyword, now: SimTime) {
        self.0.subscribe(node, keyword, now);
    }

    fn is_destination(&self, node: NodeId, keywords: &[Keyword]) -> bool {
        self.0.is_destination(node, keywords)
    }

    fn interest_sum(&self, node: NodeId, keywords: &[Keyword]) -> f64 {
        self.0.interest_sum(node, keywords)
    }

    fn mean_weight(&self, node: NodeId, keywords: &[Keyword]) -> f64 {
        self.0.mean_weight(node, keywords)
    }

    fn may_offer(&self, holder: NodeId, source: NodeId) -> bool {
        self.0.may_offer(holder, source)
    }

    fn accepts_relay(
        &self,
        from: NodeId,
        to: NodeId,
        id: MessageId,
        source: NodeId,
        keywords: &[Keyword],
    ) -> bool {
        self.0.accepts_relay(from, to, id, source, keywords)
    }

    fn on_contact_open(&mut self, now: SimTime, a: NodeId, b: NodeId) {
        self.0.on_contact_open(now, a, b);
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
        self.0.exchange(now, a, b, connected_secs, peers_a, peers_b);
    }

    fn on_message_created(&mut self, node: NodeId, id: MessageId) {
        self.0.on_message_created(node, id);
    }

    fn on_send_initiated(&mut self, from: NodeId, to: NodeId, id: MessageId, dest: bool) {
        self.0.on_send_initiated(from, to, id, dest);
    }

    fn on_stored(&mut self, from: NodeId, to: NodeId, id: MessageId) {
        self.0.on_stored(from, to, id);
    }

    fn on_send_failed(&mut self, from: NodeId, to: NodeId, id: MessageId) {
        self.0.on_send_failed(from, to, id);
    }

    fn on_removed(&mut self, node: NodeId, messages: &[MessageId]) {
        self.0.on_removed(node, messages);
    }

    fn snapshot_state(&self) -> serde::Value {
        self.0.snapshot_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        self.0.restore_state(state)
    }
}

/// Every observable surface of one audited run: the rendered kernel
/// trace, the run summary as JSON, and the protocol stats (as JSON, and
/// as the struct for the caller's coverage checks).
fn observe<B: RouterBackend>(
    scenario: &Scenario,
    arm: Arm,
    seed: u64,
    backend: impl FnOnce(&ChitChatParams) -> B,
) -> (String, String, String, ProtocolStats) {
    let spec = RunSpec::arm(scenario, arm, seed);
    let instrument = Instrument {
        // No event is ever dropped: the whole trace is compared.
        trace_capacity: Some(usize::MAX),
        check_every: Some(AUDIT_EVERY),
        profile: false,
    };
    let sim = build_world(&spec, &instrument, backend);
    let (outcome, trace, _) = run_to_horizon(sim, &spec, &instrument);
    (
        trace.expect("trace attached"),
        serde_json::to_string(&outcome.summary).expect("summary serializes"),
        serde_json::to_string(&outcome.protocol).expect("stats serialize"),
        outcome.protocol,
    )
}

/// Runs `scenario` pruned and unpruned over [`SEEDS`], asserting byte
/// equality; returns the pruned runs' protocol stats.
fn assert_pruning_is_invisible(scenario: &Scenario, arm: Arm, label: &str) -> Vec<ProtocolStats> {
    let nodes = scenario.nodes;
    SEEDS
        .iter()
        .map(|&seed| {
            let pruned = observe(scenario, arm, seed, |p| ChitChatBackend::new(nodes, *p));
            let unpruned = observe(scenario, arm, seed, |p| {
                Unpruned(ChitChatBackend::new(nodes, *p))
            });
            assert!(!pruned.0.is_empty(), "{label}: the trace recorded events");
            assert!(
                pruned.0 == unpruned.0,
                "{label}: trace diverged at seed {seed}"
            );
            assert_eq!(pruned.1, unpruned.1, "{label}: summary, seed {seed}");
            assert_eq!(pruned.2, unpruned.2, "{label}: protocol stats, seed {seed}");
            pruned.3
        })
        .collect()
}

/// The reduced paper world, in both arms: its full 3 h in a release build
/// (the CI chaos job), its first 40 minutes in a debug build, where the
/// full world takes minutes.
#[test]
fn pruning_is_invisible_on_the_reduced_world() {
    let mut s = reduced_scenario();
    if cfg!(debug_assertions) {
        s.duration_secs = 2400.0;
    }
    for arm in [Arm::Incentive, Arm::ChitChat] {
        assert_pruning_is_invisible(&s, arm, &format!("reduced/{arm:?}"));
    }
}

/// A malicious-heavy world: the DRM avoidance gate refuses distrusted
/// senders, the case where `route` must keep the full loop because each
/// refused message is counted.
#[test]
fn pruning_is_invisible_when_the_avoidance_gate_fires() {
    let mut s = reduced_scenario();
    s.nodes = 30;
    s.area_km2 = 0.3;
    s.duration_secs = 2700.0;
    s.malicious_fraction = 0.3;
    s.protocol.rating_prob = 0.5;
    let s = s.named("pruning-malicious");
    let stats = assert_pruning_is_invisible(&s, Arm::Incentive, "malicious");
    assert!(
        stats.iter().any(|p| p.refused_distrusted_sender > 0),
        "the avoidance gate fired, so the full-loop fallback ran"
    );
}

/// Chaos, recovery and strategies with the defense armed: aborted and
/// retried transfers, free-rider drops and the custody gate all run
/// through the offer path.
#[test]
fn pruning_is_invisible_under_chaos_recovery_and_strategies() {
    let mut s = fast_scenario();
    s.chaos = Some(
        "crash=3,crashdown=60,wipe,cut=6,cutdown=30,loss=0.05,corrupt=0.02"
            .parse()
            .expect("valid spec"),
    );
    s.recovery = Some(dtn_sim::transfer::RecoveryPolicy::default());
    s.strategies = Some("free=0.2,white=0.1,defense".parse().expect("valid mix"));
    let stats = assert_pruning_is_invisible(&s, Arm::Incentive, "chaos+recovery+strategies");
    assert!(
        stats.iter().any(|p| p.strategy_drops > 0),
        "the free-riders actually played"
    );
}

/// The wrapper itself: it reports no bound, while the backend it wraps
/// does — otherwise both arms above would prune and prove nothing.
#[test]
fn the_unpruned_wrapper_withholds_the_bound() {
    let mut inner = ChitChatBackend::new(2, ChitChatParams::paper_default());
    inner.subscribe(NodeId(1), Keyword(4), SimTime::ZERO);
    let mut mask = KeywordSet::new();
    assert!(inner.offer_keywords(NodeId(0), NodeId(1), &mut mask));
    assert!(mask.contains(Keyword(4)));
    assert!(!Unpruned(inner).offer_keywords(NodeId(0), NodeId(1), &mut mask));
}

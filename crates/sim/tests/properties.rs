//! Property-based tests over the simulator substrate.

use proptest::prelude::*;

use dtn_sim::buffer::{Buffer, DropPolicy, InsertOutcome};
use dtn_sim::contact::{ContactEvent, ContactKey, ContactTable};
use dtn_sim::events::KernelMode;
use dtn_sim::faults::FaultPlan;
use dtn_sim::geometry::{Area, Point};
use dtn_sim::kernel::{ScheduledMessage, SimApi, SimulationBuilder};
use dtn_sim::message::{Keyword, MessageBody, MessageCopy, MessageId, Priority, Quality};
use dtn_sim::mobility::{MobilityModel, RandomWalk, RandomWaypoint};
use dtn_sim::protocol::{Protocol, Reception};
use dtn_sim::radio::RadioConfig;
use dtn_sim::rng::SimRng;
use dtn_sim::stats::StatsCollector;
use dtn_sim::time::{SimDuration, SimTime};
use dtn_sim::world::{NodeId, SpatialGrid};
use std::sync::Arc;

fn copy(id: u64, size: u64, received: f64) -> MessageCopy {
    let body = Arc::new(MessageBody {
        id: MessageId(id),
        source: NodeId(0),
        created_at: SimTime::from_secs(received),
        size_bytes: size,
        ttl_secs: 10_000.0,
        priority: Priority::Medium,
        quality: Quality::new(0.5),
        ground_truth: vec![Keyword(0)],
    });
    MessageCopy::original(body, vec![Keyword(0)], SimTime::from_secs(received))
}

proptest! {
    /// The buffer never exceeds its capacity and its byte accounting always
    /// matches the sum of stored copies, under arbitrary insert/remove
    /// sequences and any drop policy.
    #[test]
    fn buffer_accounting_is_exact(
        capacity in 1_000u64..100_000,
        policy_pick in 0u8..3,
        ops in prop::collection::vec((0u64..50, 100u64..40_000, 0.0f64..1000.0, prop::bool::ANY), 1..60)
    ) {
        let policy = match policy_pick {
            0 => DropPolicy::RejectNew,
            1 => DropPolicy::DropOldest,
            _ => DropPolicy::DropLowestPriority,
        };
        let mut buf = Buffer::new(capacity, policy);
        for (id, size, at, insert) in ops {
            if insert {
                let _ = buf.insert(copy(id, size, at));
            } else {
                let _ = buf.remove(MessageId(id));
            }
            prop_assert!(buf.used_bytes() <= buf.capacity_bytes());
            let actual: u64 = buf.iter().map(|c| c.size_bytes()).sum();
            prop_assert_eq!(actual, buf.used_bytes());
            prop_assert_eq!(buf.len(), buf.ids_sorted().len());
        }
    }

    /// An insert outcome of `Stored` always leaves the copy present; a
    /// rejected insert leaves the buffer untouched.
    #[test]
    fn insert_outcomes_are_consistent(
        sizes in prop::collection::vec(100u64..50_000, 1..30)
    ) {
        let mut buf = Buffer::new(60_000, DropPolicy::DropOldest);
        for (i, size) in sizes.into_iter().enumerate() {
            let before_used = buf.used_bytes();
            let id = MessageId(i as u64);
            match buf.insert(copy(i as u64, size, i as f64)) {
                InsertOutcome::Stored { .. } => prop_assert!(buf.contains(id)),
                InsertOutcome::Rejected(_) => {
                    prop_assert!(!buf.contains(id));
                    prop_assert_eq!(buf.used_bytes(), before_used);
                }
            }
        }
    }

    /// The spatial grid finds exactly the brute-force pair set for any
    /// layout and range.
    #[test]
    fn grid_matches_brute_force(
        points in prop::collection::vec((0.0f64..2000.0, 0.0f64..1500.0), 0..50),
        range in 1.0f64..500.0
    ) {
        let area = Area::new(2000.0, 1500.0);
        let positions: Vec<Point> = points.into_iter().map(|(x, y)| Point::new(x, y)).collect();
        let mut grid = SpatialGrid::new(area, range);
        grid.rebuild(&positions);
        let mut got = std::collections::BTreeSet::new();
        let mut ordered = true;
        grid.for_each_pair_within(&positions, range, |a, b| {
            ordered &= a < b;
            got.insert((a.0, b.0));
        });
        prop_assert!(ordered, "pairs are reported with the smaller id first");
        let mut expected = std::collections::BTreeSet::new();
        for i in 0..positions.len() {
            for j in i + 1..positions.len() {
                if positions[i].distance_to(positions[j]) <= range {
                    expected.insert((i as u32, j as u32));
                }
            }
        }
        prop_assert_eq!(got, expected);
    }

    /// Mobility models never leave the world area and never exceed their
    /// speed bound per step.
    #[test]
    fn mobility_respects_bounds(
        seed in 0u64..1000,
        steps in 1usize..200,
        dt in 0.1f64..5.0
    ) {
        let area = Area::new(300.0, 300.0);
        let mut rng = SimRng::new(seed);
        let mut wp = RandomWaypoint::new(0.5, 2.0, 10.0);
        let mut walk = RandomWalk::new(3.0);
        let mut p_wp = wp.initial_position(area, &mut rng);
        let mut p_walk = walk.initial_position(area, &mut rng);
        for _ in 0..steps {
            let d = SimDuration::from_secs(dt);
            let next_wp = wp.step(p_wp, d, area, &mut rng);
            prop_assert!(area.contains(next_wp));
            prop_assert!(next_wp.distance_to(p_wp) <= 2.0 * dt + 1e-9);
            p_wp = next_wp;
            let next_walk = walk.step(p_walk, d, area, &mut rng);
            prop_assert!(area.contains(next_walk));
            prop_assert!(next_walk.distance_to(p_walk) <= 3.0 * dt + 1e-9);
            p_walk = next_walk;
        }
    }

    /// Contact diffs preserve the invariant: active set == last in-range
    /// set, and every up is eventually matched by at most one down.
    #[test]
    fn contact_table_tracks_in_range_sets(
        frames in prop::collection::vec(
            prop::collection::btree_set((0u32..8, 0u32..8), 0..10),
            1..20
        )
    ) {
        let mut table = ContactTable::new();
        let mut t = 0.0;
        for frame in frames {
            let keys: Vec<ContactKey> = frame
                .into_iter()
                .filter(|(a, b)| a != b)
                .map(|(a, b)| ContactKey::new(NodeId(a), NodeId(b)))
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            t += 1.0;
            let _ = table.diff(&keys, SimTime::from_secs(t));
            prop_assert_eq!(table.active_count(), keys.len());
            for k in &keys {
                prop_assert!(table.is_up(k.0, k.1));
            }
        }
    }

    /// The collector grants each `(message, node)` delivery exactly once,
    /// whatever the order or repetition of arrivals: the first deliverer
    /// is the one the incentive rule pays.
    #[test]
    fn first_delivery_is_granted_once(
        deliveries in prop::collection::vec((0u64..10, 0u32..10), 0..200)
    ) {
        let mut stats = StatsCollector::new();
        let mut seen = std::collections::HashSet::new();
        for (m, d) in deliveries {
            let fresh =
                stats.record_delivered(MessageId(m), NodeId(d), SimTime::ZERO, SimTime::ZERO);
            prop_assert_eq!(fresh, seen.insert((m, d)));
        }
        prop_assert_eq!(stats.delivered_count(), seen.len());
    }

    /// `apply` fed with `diff`'s events rebuilds the same table: the
    /// active set, every `up_since` and the adjacency index all match
    /// after every frame.
    #[test]
    fn apply_replays_diff(
        frames in prop::collection::vec(
            prop::collection::btree_set((0u32..8, 0u32..8), 0..10),
            1..20
        )
    ) {
        let mut diffed = ContactTable::new();
        let mut applied = ContactTable::new();
        for (t, frame) in frames.into_iter().enumerate() {
            let keys: Vec<ContactKey> = frame
                .into_iter()
                .filter(|(a, b)| a != b)
                .map(|(a, b)| ContactKey::new(NodeId(a), NodeId(b)))
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            let now = SimTime::from_secs(t as f64);
            let events = diffed.diff(&keys, now);
            let (mut downs, mut ups) = (Vec::new(), Vec::new());
            for ev in &events {
                match *ev {
                    ContactEvent::Down(k, _) => downs.push(k),
                    ContactEvent::Up(k) => ups.push(k),
                }
            }
            prop_assert_eq!(applied.apply(&downs, &ups, now), events);
            prop_assert_eq!(applied.export_state(), diffed.export_state());
            for a in 0..8u32 {
                for b in 0..8u32 {
                    prop_assert_eq!(
                        applied.up_since(NodeId(a), NodeId(b)),
                        diffed.up_since(NodeId(a), NodeId(b))
                    );
                }
                prop_assert_eq!(applied.peers_of(NodeId(a)), diffed.peers_of(NodeId(a)));
            }
            prop_assert!(applied.audit_adjacency().is_ok());
        }
    }

    /// Friis reception power is monotone non-increasing in distance and
    /// never exceeds the transmit power.
    #[test]
    fn friis_monotone(d1 in 0.0f64..10_000.0, d2 in 0.0f64..10_000.0) {
        let radio = RadioConfig::paper_default();
        let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let p_near = radio.rx_power(near);
        let p_far = radio.rx_power(far);
        prop_assert!(p_near >= p_far);
        prop_assert!(p_near <= radio.tx_power_w + 1e-12);
        prop_assert!(p_far > 0.0);
    }

    /// Message copies: enrichment never duplicates a keyword; the keyword
    /// list is duplicate-free; hop records grow by exactly one per arrival.
    #[test]
    fn message_copy_invariants(
        tags in prop::collection::vec(0u32..20, 1..10),
        enrichments in prop::collection::vec((0u32..20, 1u32..5), 0..20)
    ) {
        let mut tags_dedup = tags.clone();
        tags_dedup.sort_unstable();
        tags_dedup.dedup();
        let body = Arc::new(MessageBody {
            id: MessageId(1),
            source: NodeId(0),
            created_at: SimTime::ZERO,
            size_bytes: 100,
            ttl_secs: 100.0,
            priority: Priority::High,
            quality: Quality::new(1.0),
            ground_truth: tags_dedup.iter().map(|&t| Keyword(t)).collect(),
        });
        let mut c = MessageCopy::original(
            body,
            tags.iter().map(|&t| Keyword(t)).collect(),
            SimTime::ZERO,
        );
        let mut hops = 0usize;
        #[allow(clippy::explicit_counter_loop)] // hops counts arrivals, not iterations per se
        for (kw, node) in enrichments {
            let before = c.keywords().len();
            let added = c.enrich(Keyword(kw), NodeId(node), SimTime::from_secs(1.0));
            let after = c.keywords().len();
            prop_assert_eq!(after, before + usize::from(added));
            c = c.arrived_at(NodeId(node), SimTime::from_secs(1.0));
            hops += 1;
            prop_assert_eq!(c.hop_count(), hops);
        }
        let kws = c.keywords();
        let set: std::collections::BTreeSet<Keyword> = kws.iter().copied().collect();
        prop_assert_eq!(set.len(), kws.len(), "keywords stay duplicate-free");
    }

    /// Derived RNG streams are insensitive to sibling-stream consumption.
    #[test]
    fn rng_streams_are_independent(seed in 0u64..10_000, label in 0u64..1_000) {
        use rand::RngCore;
        let root = SimRng::new(seed);
        let mut direct = root.stream(label);
        // Interleave: consume an unrelated stream first.
        let mut noise = root.stream(label.wrapping_add(1));
        let _ = noise.next_u64();
        let mut after = root.stream(label);
        prop_assert_eq!(direct.next_u64(), after.next_u64());
    }
}

/// The numeric `--chaos` keys.
const CHAOS_KEYS: [&str; 8] = [
    "crash",
    "crashdown",
    "cut",
    "cutdown",
    "spike",
    "spikej",
    "loss",
    "corrupt",
];

/// The values a generated `--chaos` key takes: each field's domain edges
/// and the values beyond them.
const CHAOS_VALUES: [&str; 8] = ["0", "1e-300", "0.5", "60", "1e300", "inf", "NaN", "-1"];

/// Offers every buffered message to every peer met, so transfers (and
/// their loss and corruption rolls) happen.
#[derive(Debug)]
struct Flood;

impl Protocol for Flood {
    fn on_contact_up(&mut self, api: &mut SimApi, a: NodeId, b: NodeId) {
        for (from, to) in [(a, b), (b, a)] {
            for id in api.buffer(from).ids_sorted() {
                if !api.buffer(to).contains(id) {
                    api.send(from, to, id);
                }
            }
        }
    }

    fn on_transfer_complete(&mut self, api: &mut SimApi, r: &Reception<'_>) {
        let (to, id) = (r.transfer.to, r.transfer.message);
        for peer in api.peers_of(to) {
            if !api.buffer(peer).contains(id) {
                api.send(to, peer, id);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Every `--chaos` spec that parses (parsing validates) drives a small
    /// world with finite batteries for 600 steps, on either contact core,
    /// without a panic: validation refuses every value the kernel cannot
    /// run. Each key is absent, or takes a value from `CHAOS_VALUES`.
    #[test]
    fn valid_chaos_specs_never_panic_the_kernel(
        picks in prop::collection::vec(0usize..10, 8..9),
        wipe in prop::bool::ANY,
        time_stepped in prop::bool::ANY
    ) {
        let mut spec: Vec<String> = CHAOS_KEYS
            .iter()
            .zip(&picks)
            .filter_map(|(key, &pick)| CHAOS_VALUES.get(pick).map(|v| format!("{key}={v}")))
            .collect();
        if wipe {
            spec.push("wipe".to_owned());
        }
        let spec = spec.join(",");
        let Ok(plan) = spec.parse::<FaultPlan>() else {
            return;
        };
        let mode = if time_stepped {
            KernelMode::TimeStepped
        } else {
            KernelMode::EventDriven
        };
        let messages = (0..20u32).map(|k| ScheduledMessage {
            at: SimTime::from_secs(f64::from(k) * 25.0),
            source: NodeId(k % 12),
            size_bytes: 200_000,
            ttl_secs: 400.0,
            priority: Priority::Medium,
            quality: Quality::new(0.5),
            ground_truth: vec![Keyword(1)],
            source_tags: vec![Keyword(1)],
            expected_destinations: vec![NodeId((k + 1) % 12)],
        });
        let mut sim = SimulationBuilder::new(Area::new(300.0, 300.0), 7)
            .kernel_mode(mode)
            .battery_joules(5.0)
            .faults(plan)
            .check_invariants_every(60)
            .nodes(12, || Box::new(RandomWaypoint::pedestrian()))
            .messages(messages)
            .build(Flood);
        for _ in 0..600 {
            sim.step_once();
        }
        prop_assert!(sim.api().now() > SimTime::ZERO, "{spec}: the world ran");
    }
}

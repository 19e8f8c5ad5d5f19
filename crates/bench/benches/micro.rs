//! Criterion micro-benchmarks over the hot paths of the stack: the RTSR
//! weight exchange, the offer-pass keyword bound, the incentive formulas,
//! the reputation merge/gossip, spatial contact detection and buffer churn.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use dtn_incentive::ledger::Tokens;
use dtn_incentive::params::{IncentiveParams, Role};
use dtn_incentive::promise::{software_incentive, SoftwareFactors};
use dtn_incentive::settlement::{award, AwardInputs};
use dtn_reputation::rating::RatingParams;
use dtn_reputation::table::ReputationTable;
use dtn_routing::exchange::KeywordSet;
use dtn_routing::interests::{ChitChatParams, InterestTable};
use dtn_sim::geometry::{Area, Point};
use dtn_sim::message::Keyword;
use dtn_sim::rng::SimRng;
use dtn_sim::time::SimTime;
use dtn_sim::world::{NodeId, SpatialGrid};

fn table_with(n: u32, params: &ChitChatParams) -> InterestTable {
    let mut t = InterestTable::new();
    for k in 0..n {
        t.subscribe(Keyword(k), params, SimTime::ZERO);
    }
    t
}

fn bench_chitchat_exchange(c: &mut Criterion) {
    let params = ChitChatParams::paper_default();
    let a = table_with(20, &params);
    let b = table_with(20, &params);
    c.bench_function("chitchat_decay_20_interests", |bencher| {
        bencher.iter_batched(
            || a.clone(),
            |mut t| t.decay(SimTime::from_secs(120.0), &params, |_| false),
            criterion::BatchSize::SmallInput,
        );
    });
    c.bench_function("chitchat_grow_20x20_interests", |bencher| {
        bencher.iter_batched(
            || a.clone(),
            |mut t| t.grow(black_box(&b), 30.0, &params, SimTime::from_secs(60.0)),
            criterion::BatchSize::SmallInput,
        );
    });
    let keywords: Vec<Keyword> = (0..5).map(Keyword).collect();
    c.bench_function("chitchat_sum_of_weights", |bencher| {
        bencher.iter(|| a.sum_of_weights(black_box(&keywords)));
    });
}

/// A table holding `direct` subscriptions plus the transient interests
/// it acquires growing `secs` of contact from a peer subscribed to
/// `acquired` — the shape route passes meet: a few direct rows among
/// many transient ones.
fn grown_table(
    direct: std::ops::Range<u32>,
    acquired: std::ops::Range<u32>,
    secs: f64,
    params: &ChitChatParams,
) -> InterestTable {
    let mut peer = InterestTable::new();
    for k in acquired {
        peer.subscribe(Keyword(k), params, SimTime::ZERO);
    }
    let mut t = InterestTable::new();
    for k in direct {
        t.subscribe(Keyword(k), params, SimTime::ZERO);
    }
    t.grow(&peer, secs, params, SimTime::from_secs(secs));
    t
}

/// The per-route-pass cost of offer pruning: one merge walk over two
/// ~150-row tables that share 130 keywords, on which the receiver weighs
/// less than the sender (so the mask keeps 24 keywords).
fn bench_offer_keywords(c: &mut Criterion) {
    let params = ChitChatParams::paper_default();
    let from = grown_table(0..4, 0..150, 60.0, &params);
    let to = grown_table(300..304, 20..170, 40.0, &params);
    let mut mask = KeywordSet::new();
    c.bench_function("chitchat_offer_keywords", |bencher| {
        bencher.iter(|| {
            to.offer_keywords_into(black_box(&from), &mut mask);
            mask.len()
        });
    });
}

fn bench_incentive_math(c: &mut Criterion) {
    let params = IncentiveParams::paper_default();
    let factors = SoftwareFactors {
        receiver_interest_sum: 1.2,
        max_connected_interest_sum: 2.5,
        size_bytes: 1_000_000,
        max_size_bytes: 1_500_000,
        quality: 0.8,
        max_quality: 1.0,
        sender_role: Role::new(2),
        receiver_role: Role::new(2),
        source_priority: 1,
    };
    c.bench_function("software_incentive", |bencher| {
        bencher.iter(|| software_incentive(black_box(&factors), &params));
    });
    let inputs = AwardInputs {
        promise: Tokens::new(7.5),
        tag_reward: Tokens::new(2.0),
        path_ratings: vec![4.0, 3.5, 2.0, 4.5],
        deliverer_rating: 3.7,
    };
    c.bench_function("award_with_4_path_ratings", |bencher| {
        bencher.iter(|| award(black_box(&inputs), &params));
    });
}

fn bench_reputation(c: &mut Criterion) {
    let params = RatingParams::paper_default();
    let mut alice = ReputationTable::new(NodeId(0), params);
    for i in 1..100u32 {
        alice.record_message_rating(NodeId(i), f64::from(i % 5));
    }
    let digest = alice.digest();
    c.bench_function("reputation_digest_100_subjects", |bencher| {
        bencher.iter(|| alice.digest());
    });
    c.bench_function("reputation_absorb_digest_100", |bencher| {
        bencher.iter_batched(
            || ReputationTable::new(NodeId(200), params),
            |mut t| t.absorb_digest(NodeId(0), black_box(&digest)),
            criterion::BatchSize::SmallInput,
        );
    });
}

fn bench_spatial_grid(c: &mut Criterion) {
    let area = Area::square_km(5.0);
    let mut rng = SimRng::new(42);
    let positions: Vec<Point> = (0..500)
        .map(|_| Point::new(rng.uniform(0.0, area.width), rng.uniform(0.0, area.height)))
        .collect();
    c.bench_function("grid_rebuild_and_pairs_500_nodes", |bencher| {
        let mut grid = SpatialGrid::new(area, 100.0);
        bencher.iter(|| {
            grid.rebuild(black_box(&positions));
            let mut count = 0usize;
            grid.for_each_pair_within(&positions, 100.0, |_, _| count += 1);
            count
        });
    });
}

criterion_group!(
    benches,
    bench_chitchat_exchange,
    bench_offer_keywords,
    bench_incentive_math,
    bench_reputation,
    bench_spatial_grid
);
criterion_main!(benches);

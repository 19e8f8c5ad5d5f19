//! Figure-shape smoke tests: tiny, fast versions of the qualitative claims
//! each figure of the evaluation makes. The full-resolution sweeps live in
//! `dtn-bench`; these tests pin the *directions* so a regression that
//! flips a conclusion fails CI.

use dtn_core::protocol::MALICIOUS_RATING_SERIES;
use dtn_integration_tests::fast_scenario;
use dtn_sim::stats::RunSummary;
use dtn_workloads::prelude::*;

const SEEDS: [u64; 2] = [11, 22];

/// Fig 5.1 direction: MDR decreases as the selfish fraction rises.
#[test]
fn fig5_1_shape_mdr_decreases_with_selfishness() {
    let mdr_at = |frac: f64| {
        let mut s = fast_scenario();
        s.selfish_fraction = frac;
        RunSummary::mean_of(&run_seeds(&s, Arm::Incentive, &SEEDS)).delivery_ratio
    };
    let lo = mdr_at(0.0);
    let mid = mdr_at(0.5);
    let hi = mdr_at(1.0);
    assert!(
        lo > mid && mid > hi,
        "monotone decrease: {lo} > {mid} > {hi}"
    );
    assert!(
        hi >= 0.0,
        "selfish nodes still forward 1-in-10, never hard zero"
    );
}

/// Fig 5.2 direction: the mechanism's traffic saving grows with the
/// selfish fraction.
///
/// The saving curve rises from zero selfishness up to the paper's mid
/// range and flattens beyond it, and at this reduced scale the slope
/// between two nearby fractions is dominated by seed noise. The test
/// therefore compares the no-selfishness baseline against the mid range
/// and averages over more seeds than the other figures — the same
/// qualitative claim, sampled where the signal is.
#[test]
fn fig5_2_shape_saving_grows_with_selfishness() {
    const SAVING_SEEDS: [u64; 6] = [1, 2, 3, 4, 5, 6];
    let reduction_at = |frac: f64| {
        let mut s = fast_scenario();
        s.selfish_fraction = frac;
        compare(&s, BackendKind::ChitChat, &SAVING_SEEDS, false)
            .0
            .traffic_reduction_pct()
    };
    let low = reduction_at(0.0);
    let high = reduction_at(0.4);
    assert!(
        high > low,
        "more selfishness → more saving: {high}% vs {low}%"
    );
    assert!(low > -5.0, "saving never meaningfully negative: {low}%");
}

/// Fig 5.3 direction: more initial tokens → higher MDR (starvation bites
/// later).
#[test]
fn fig5_3_shape_more_tokens_more_delivery() {
    let mdr_with_tokens = |tokens: f64| {
        let mut s = fast_scenario();
        s.selfish_fraction = 0.4;
        s.protocol.incentive.initial_tokens = tokens;
        RunSummary::mean_of(&run_seeds(&s, Arm::Incentive, &SEEDS)).delivery_ratio
    };
    let poor = mdr_with_tokens(4.0);
    let rich = mdr_with_tokens(200.0);
    assert!(
        rich > poor,
        "a larger endowment delivers more: {rich} vs {poor}"
    );
}

/// Fig 5.4 direction: the malicious average rating ends below where it
/// starts, and below the neutral prior.
#[test]
fn fig5_4_shape_malicious_rating_decays() {
    let mut s = fast_scenario();
    s.malicious_fraction = 0.25;
    s.protocol.rating_prob = 0.5;
    let summary = RunSummary::mean_of(&run_seeds(&s, Arm::Incentive, &SEEDS));
    let series = summary
        .series
        .get(MALICIOUS_RATING_SERIES)
        .expect("series sampled");
    assert!(series.len() >= 2);
    let first = series[0].1;
    let last = series[series.len() - 1].1;
    assert!(last <= first, "no recovery: {first} → {last}");
    assert!(last < 2.5, "ends below the neutral prior: {last}");
}

/// Fig 5.5 direction: more users on the same area → higher MDR, and the
/// ChitChat−Incentive gap does not widen.
#[test]
fn fig5_5_shape_density_helps_and_closes_the_gap() {
    let cmp_at = |nodes: usize| {
        let mut s = fast_scenario();
        s.nodes = nodes;
        s.selfish_fraction = 0.3;
        compare(&s, BackendKind::ChitChat, &SEEDS, false).0
    };
    let sparse = cmp_at(12);
    let dense = cmp_at(36);
    assert!(
        dense.incentive.delivery_ratio > sparse.incentive.delivery_ratio,
        "density raises incentive MDR: {} vs {}",
        dense.incentive.delivery_ratio,
        sparse.incentive.delivery_ratio
    );
    assert!(
        dense.chitchat.delivery_ratio >= sparse.chitchat.delivery_ratio,
        "density raises chitchat MDR"
    );
}

/// Fig 5.6 direction: under the 50/30/20 mix the incentive arm delivers
/// high-priority messages at least as well as ChitChat does, and favors
/// them over its own low-priority traffic.
#[test]
fn fig5_6_shape_high_priority_favored() {
    let mut s = fast_scenario();
    s.selfish_fraction = 0.4;
    // Contention so prioritization matters: small buffers.
    s.buffer_bytes = 8_000_000;
    s.message_interval_secs = 10.0;
    let (cmp, _) = compare(&s, BackendKind::ChitChat, &SEEDS, false);
    let inc_high = cmp.incentive.delivery_ratio_by_priority[&1];
    let inc_low = cmp
        .incentive
        .delivery_ratio_by_priority
        .get(&3)
        .copied()
        .unwrap_or(0.0);
    assert!(
        inc_high >= inc_low,
        "incentive favors high priority: {inc_high} vs {inc_low}"
    );
    let cc_high = cmp.chitchat.delivery_ratio_by_priority[&1];
    let cc_low = cmp
        .chitchat
        .delivery_ratio_by_priority
        .get(&3)
        .copied()
        .unwrap_or(0.0);
    // ChitChat is priority-blind: its high/low split shows no comparable
    // systematic preference (allow noise, just require the incentive arm's
    // preference to be at least as strong).
    assert!(
        inc_high - inc_low >= cc_high - cc_low - 0.05,
        "incentive prioritization at least matches chitchat: {inc_high}-{inc_low} vs {cc_high}-{cc_low}"
    );
}

/// Loss-figure direction: under in-flight payload loss, turning the
/// kernel's retry layer on never loses deliveries, and at deep loss it
/// strictly recovers some. Runs through the sweep executor — the same
/// path the `loss` figure binary takes.
#[test]
fn loss_shape_retries_dominate_at_every_loss_level() {
    use dtn_sim::transfer::RecoveryPolicy;
    use dtn_workloads::sweep::{run_cells, Cell};

    let delivered_at = |loss: f64, retries: bool| {
        let mut s = fast_scenario();
        s.chaos = Some(format!("loss={loss}").parse().expect("valid spec"));
        if retries {
            s.recovery = Some(RecoveryPolicy {
                backoff_base_secs: 5.0,
                ..RecoveryPolicy::default()
            });
        }
        let cells: Vec<Cell> = SEEDS
            .iter()
            .map(|&seed| Cell::arm(s.clone(), Arm::Incentive, seed))
            .collect();
        let results = run_cells(&cells);
        let pairs: u64 = results.iter().map(|r| r.summary.delivered_pairs).sum();
        let retried: u64 = results.iter().map(|r| r.summary.transfers_retried).sum();
        (pairs, retried)
    };

    for loss in [0.2, 0.4] {
        let (off, _) = delivered_at(loss, false);
        let (on, retried) = delivered_at(loss, true);
        assert!(retried > 0, "loss {loss}: the retry queue actually fired");
        assert!(
            on >= off,
            "loss {loss}: retries never lose deliveries ({on} vs {off})"
        );
    }
    let (off_deep, _) = delivered_at(0.4, false);
    let (on_deep, _) = delivered_at(0.4, true);
    assert!(
        on_deep > off_deep,
        "deep loss: retries strictly recover deliveries ({on_deep} vs {off_deep})"
    );
}

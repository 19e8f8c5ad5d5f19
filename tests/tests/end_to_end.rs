//! Cross-crate end-to-end tests: the full stack (workload synthesis →
//! simulation → protocol → statistics) exercised at small scale.

use dtn_integration_tests::fast_scenario;
use dtn_sim::stats::RunSummary;
use dtn_workloads::prelude::*;

#[test]
fn both_arms_run_to_completion_and_deliver() {
    let s = fast_scenario();
    for arm in Arm::BOTH {
        let run = run_once(&s, arm, 42);
        assert!(run.summary.created > 10, "{arm:?}: workload generated");
        assert!(
            run.summary.delivery_ratio > 0.0,
            "{arm:?}: something delivered"
        );
        assert!(run.summary.delivery_ratio <= 1.0);
        assert!(run.summary.relays_completed > 0);
    }
}

#[test]
fn incentive_arm_moves_tokens_chitchat_arm_does_not() {
    let s = fast_scenario();
    let inc = run_once(&s, Arm::Incentive, 42);
    let cc = run_once(&s, Arm::ChitChat, 42);
    assert!(inc.protocol.settlements > 0);
    assert!(inc.protocol.tokens_awarded > 0.0);
    assert_eq!(cc.protocol.settlements, 0);
    assert_eq!(cc.protocol.tokens_awarded, 0.0);
    assert_eq!(
        cc.protocol.relevant_tags_added, 0,
        "no enrichment in baseline"
    );
}

#[test]
fn identical_workload_across_arms() {
    // The paired-comparison guarantee: same seed → same created messages
    // and the same expected destination sets in both arms.
    let s = fast_scenario();
    let inc = run_once(&s, Arm::Incentive, 7);
    let cc = run_once(&s, Arm::ChitChat, 7);
    assert_eq!(inc.summary.created, cc.summary.created);
    assert_eq!(inc.summary.expected_pairs, cc.summary.expected_pairs);
}

#[test]
fn selfish_nodes_depress_delivery_in_both_arms() {
    let mut low = fast_scenario();
    low.selfish_fraction = 0.0;
    let mut high = fast_scenario();
    high.selfish_fraction = 0.8;
    for arm in Arm::BOTH {
        let lo = RunSummary::mean_of(&run_seeds(&low, arm, &[1, 2]));
        let hi = RunSummary::mean_of(&run_seeds(&high, arm, &[1, 2]));
        assert!(
            hi.delivery_ratio < lo.delivery_ratio,
            "{arm:?}: 80% selfish must hurt MDR ({} vs {})",
            hi.delivery_ratio,
            lo.delivery_ratio
        );
    }
}

#[test]
fn incentive_mdr_stays_close_to_chitchat() {
    // Paper I, §5.A: the mechanism's MDR is "almost the same as ChitChat"
    // — starvation costs some delivery, priority-aware forwarding wins
    // some back. At this micro scale the net sign flips with the seed, so
    // the robust claim is closeness; the reduced-scale fig5_1 sweep (see
    // EXPERIMENTS.md) exhibits the paper's slightly-below ordering.
    let mut s = fast_scenario();
    s.selfish_fraction = 0.4;
    s.protocol.enrichment_enabled = false; // isolate the economic effect
    let (cmp, _) = compare(&s, BackendKind::ChitChat, &[1, 2, 3], false);
    assert!(cmp.incentive.delivery_ratio > 0.0);
    assert!(
        cmp.mdr_gap().abs() < 0.15,
        "MDRs stay close: incentive {} vs chitchat {}",
        cmp.incentive.delivery_ratio,
        cmp.chitchat.delivery_ratio
    );
}

#[test]
fn malicious_population_is_recognized_end_to_end() {
    let mut s = fast_scenario();
    s.malicious_fraction = 0.25;
    s.protocol.rating_prob = 0.5;
    let mut sim = build_simulation(&s, Arm::Incentive, 5);
    let _ = sim.run_until(dtn_sim::time::SimTime::from_secs(s.duration_secs));
    let (router, _) = sim.finish();
    let avg = router.malicious_average_rating();
    let neutral = router.params().rating.neutral_rating;
    assert!(
        avg < neutral,
        "malicious nodes recognized: avg rating {avg} < neutral {neutral}"
    );
}

#[test]
fn deterministic_end_to_end() {
    let s = fast_scenario();
    let a = run_once(&s, Arm::Incentive, 99);
    let b = run_once(&s, Arm::Incentive, 99);
    assert_eq!(a.summary, b.summary);
    assert_eq!(a.protocol, b.protocol);
    assert_eq!(a.broke_nodes, b.broke_nodes);
}

#[test]
fn buffer_pressure_is_survivable() {
    // Tiny buffers force constant evictions; the run must stay consistent
    // (no panics, bookkeeping intact) even when most copies are dropped.
    let mut s = fast_scenario();
    s.buffer_bytes = 3_000_000; // three 1 MB messages
    s.message_interval_secs = 10.0;
    let run = run_once(&s, Arm::Incentive, 3);
    assert!(
        run.summary.buffer_evictions > 0,
        "evictions actually happened"
    );
    assert!(run.summary.delivery_ratio <= 1.0);
}

#[test]
fn short_ttl_expires_messages() {
    let mut s = fast_scenario();
    s.message_ttl_secs = 120.0;
    let run = run_once(&s, Arm::Incentive, 3);
    assert!(run.summary.ttl_expiries > 0, "TTL sweep engaged");
}

#[test]
fn zero_token_economy_blocks_all_interested_reception() {
    let mut s = fast_scenario();
    s.protocol.incentive.initial_tokens = 0.0;
    let run = run_once(&s, Arm::Incentive, 3);
    assert_eq!(
        run.summary.delivered_pairs, 0,
        "no destination can ever afford a reception"
    );
    assert!(run.protocol.refused_broke_destination > 0);
}

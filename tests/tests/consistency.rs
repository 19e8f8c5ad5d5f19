//! Consistency checks on the ChitChat baseline arm.
//!
//! The backend path is pinned to the arm path byte for byte in
//! `routers.rs`; this suite checks that the baseline arm does not depend on
//! machinery it should not touch.

use dtn_workloads::prelude::*;

fn scenario() -> Scenario {
    let mut s = reduced_scenario();
    s.nodes = 30;
    s.area_km2 = 0.3;
    s.duration_secs = 2400.0;
    s.message_interval_secs = 30.0;
    s.message_ttl_secs = 1800.0;
    s.named("consistency")
}

#[test]
fn baseline_arm_with_no_adversaries_equals_plain_population() {
    // With zero selfish/malicious fractions the behavior models are all
    // honest — the ChitChat arm must be unaffected by behavior machinery.
    let s = scenario();
    let a = run_once(&s, Arm::ChitChat, 5).summary;
    let mut s2 = scenario();
    s2.selfish_fraction = 0.0;
    s2.malicious_fraction = 0.0;
    let b = run_once(&s2, Arm::ChitChat, 5).summary;
    assert_eq!(a, b);
}

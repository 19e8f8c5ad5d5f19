//! Cross-crate checks for the observability layer: profiling must never
//! perturb simulation results, and the emitted `PerfReport` JSON must
//! round-trip with the fields downstream tooling depends on.

use dtn_integration_tests::fast_scenario;
use dtn_sim::stats::RunSummary;
use dtn_workloads::prelude::*;
use dtn_workloads::runner::PerfReport;

/// The golden non-perturbation guarantee at workload level: a profiled
/// multi-seed aggregate equals the unprofiled one exactly, field for
/// field, on both arms.
#[test]
fn profiled_comparison_is_byte_identical_to_unprofiled() {
    let scenario = fast_scenario();
    let seeds = [101, 202];
    let (plain, _) = compare(&scenario, BackendKind::ChitChat, &seeds, false);
    let (profiled, perf) = compare(&scenario, BackendKind::ChitChat, &seeds, true);
    let perf = perf.expect("profiled");
    assert_eq!(
        serde_json::to_string(&plain.incentive).expect("json"),
        serde_json::to_string(&profiled.incentive).expect("json"),
        "profiling changed the incentive arm"
    );
    assert_eq!(
        serde_json::to_string(&plain.chitchat).expect("json"),
        serde_json::to_string(&profiled.chitchat).expect("json"),
        "profiling changed the chitchat arm"
    );
    assert_eq!(perf.runs, 4, "two arms x two seeds");
    assert!(perf.events_per_sec > 0.0);
}

/// `PerfReport` JSON round-trips and carries per-phase wall-clock totals
/// in kernel execution order plus the headline rates.
#[test]
fn perf_report_json_round_trips() {
    let scenario = fast_scenario();
    let profile = Instrument {
        profile: true,
        ..Instrument::default()
    };
    let report = run(&RunSpec::arm(&scenario, Arm::Incentive, 101), &profile)
        .2
        .expect("profiled");
    let json = serde_json::to_string_pretty(&report).expect("serializes");
    let back: PerfReport = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back.runs, 1);
    assert_eq!(back.steps, report.steps);
    assert!(back.wall_secs > 0.0);
    assert!(back.sim_secs_per_sec > 0.0);
    assert!(back.events_per_sec > 0.0);
    let labels: Vec<&str> = back.phases.iter().map(|p| p.phase.as_str()).collect();
    assert_eq!(labels.first(), Some(&"mobility"));
    assert!(labels.contains(&"settlement_tick"));
    assert!(back.phases.iter().map(|p| p.secs).sum::<f64>() > 0.0);
    assert!(back.metrics.counter("kernel.steps") > 0);
}

/// The sequential perf path and the pooled plain path agree on the
/// aggregate summary: parallelism is an implementation detail, not a
/// statistical one.
#[test]
fn perf_aggregate_matches_parallel_aggregate() {
    let scenario = fast_scenario();
    let seeds = [101, 202, 303];
    let parallel = RunSummary::mean_of(&run_seeds(&scenario, Arm::Incentive, &seeds));
    let (sequential, report) = compare(&scenario, BackendKind::ChitChat, &seeds, true);
    assert_eq!(
        serde_json::to_string(&parallel).expect("json"),
        serde_json::to_string(&sequential.incentive).expect("json"),
        "parallel and sequential seed runs diverged"
    );
    assert_eq!(report.expect("profiled").runs, 6, "two arms x three seeds");
}

//! Kernel-mode conformance: the event-driven contact core against the
//! time-stepped sweep.
//!
//! The `kernel_mode` knob selects between two contact-detection cores
//! that must be *observably indistinguishable*: the predicted-crossing
//! event scheduler (the default) and the original per-step pair sweep it
//! replaced. These tests pit the two modes against each other at the
//! byte level — rendered trace, run summary, protocol state — across
//! seeds, thread counts, and a chaos + recovery + adversary-strategy
//! stack, then check that a snapshot taken on one core refuses to
//! restore into the other with a typed error rather than undefined
//! drift (the cores agree on *observable* state but not on derived
//! scheduler state, so a cross-mode resume is an identity mismatch).

use dtn_integration_tests::fast_scenario;
use dtn_sim::events::KernelMode;
use dtn_sim::snapshot::SnapshotError;
use dtn_sim::time::SimTime;
use dtn_workloads::prelude::*;

const TRACE_CAPACITY: usize = 200_000;
const SEEDS: [u64; 3] = [101, 202, 303];
const THREAD_COUNTS: [usize; 2] = [1, 8];

/// Runs `scenario` under one kernel mode, returning every observable
/// surface: the rendered kernel trace plus the run summary and protocol
/// stats serialized to JSON (byte-level comparison, not approximate).
fn observable_output(
    scenario: &Scenario,
    arm: Arm,
    seed: u64,
    threads: usize,
    mode: KernelMode,
) -> (String, String) {
    let mut s = scenario.clone();
    s.threads = Some(threads);
    s.kernel_mode = Some(mode);
    let instrument = Instrument {
        trace_capacity: Some(TRACE_CAPACITY),
        check_every: Some(60),
        profile: false,
    };
    let (outcome, trace, _) = run(&RunSpec::arm(&s, arm, seed), &instrument);
    let summary = serde_json::to_string(&outcome.summary).expect("summary serializes");
    let protocol = format!("{:?}", outcome.protocol);
    (trace.expect("trace attached"), summary + &protocol)
}

/// Asserts both modes produce byte-identical traces and summaries over
/// the seed × thread matrix for one scenario configuration.
fn assert_modes_agree(scenario: &Scenario, arm: Arm, label: &str) {
    for seed in SEEDS {
        for threads in THREAD_COUNTS {
            let (swept_trace, swept_rest) =
                observable_output(scenario, arm, seed, threads, KernelMode::TimeStepped);
            let (event_trace, event_rest) =
                observable_output(scenario, arm, seed, threads, KernelMode::EventDriven);
            assert_eq!(
                event_trace, swept_trace,
                "{label}: trace diverged between modes at seed={seed}, threads={threads}"
            );
            assert_eq!(
                event_rest, swept_rest,
                "{label}: summary/stats diverged between modes at seed={seed}, threads={threads}"
            );
        }
    }
}

/// Clean-world equivalence: the event core and the time-stepped sweep
/// are byte-identical across three seeds and threads ∈ {1, 8}.
#[test]
fn modes_do_not_change_a_single_byte() {
    assert_modes_agree(&fast_scenario(), Arm::Incentive, "clean");
}

/// The equivalence must survive the full hostile stack: faults vetoing
/// links mid-transfer, the recovery layer retrying aborts, and strategic
/// adversaries (with countermeasures armed) steering the economy — every
/// layer that reads contact state reads it through the same engine.
#[test]
fn modes_agree_under_chaos_recovery_and_strategies() {
    let mut scenario = fast_scenario();
    scenario.chaos = Some(
        "crash=3,crashdown=60,wipe,cut=6,cutdown=30,loss=0.05,corrupt=0.02"
            .parse()
            .expect("valid spec"),
    );
    scenario.recovery = Some(dtn_sim::transfer::RecoveryPolicy::default());
    scenario.strategies = Some("free=0.2,white=0.1,defense".parse().expect("valid mix"));
    assert_modes_agree(&scenario, Arm::Incentive, "chaos+recovery+strategies");
}

/// A snapshot taken mid-run on one core must refuse to restore into a
/// world built on the other core: a typed [`SnapshotError::Mismatch`]
/// naming both modes, never a panic or a silent restore.
#[test]
fn cross_mode_resume_is_rejected() {
    let scenario = fast_scenario();
    for (taken_on, resumed_on) in [
        (KernelMode::EventDriven, KernelMode::TimeStepped),
        (KernelMode::TimeStepped, KernelMode::EventDriven),
    ] {
        let mut source = scenario.clone();
        source.kernel_mode = Some(taken_on);
        let mut sim = build_simulation(&source, Arm::Incentive, 101);
        sim.run_until(SimTime::from_secs(600.0));
        let snap = sim.snapshot();
        assert_eq!(snap.kernel_mode, taken_on, "snapshot records its core");

        let mut target = scenario.clone();
        target.kernel_mode = Some(resumed_on);
        let mut other = build_simulation(&target, Arm::Incentive, 101);
        match other.restore(&snap) {
            Err(SnapshotError::Mismatch { detail }) => {
                assert!(
                    detail.contains(&taken_on.to_string())
                        && detail.contains(&resumed_on.to_string()),
                    "mismatch detail should name both cores: {detail}"
                );
            }
            Err(other) => panic!("expected a kernel-mode Mismatch, got {other}"),
            Ok(()) => panic!("cross-mode restore ({taken_on} -> {resumed_on}) must be rejected"),
        }
    }
}

/// Same-mode restore of the same snapshot stays accepted — the rejection
/// above is about the mode, not the snapshot.
#[test]
fn same_mode_resume_still_works() {
    let mut scenario = fast_scenario();
    scenario.kernel_mode = Some(KernelMode::EventDriven);
    let mut sim = build_simulation(&scenario, Arm::Incentive, 101);
    sim.run_until(SimTime::from_secs(600.0));
    let snap = sim.snapshot();
    let mut resumed = build_simulation(&scenario, Arm::Incentive, 101);
    resumed
        .restore(&snap)
        .expect("same-mode restore is accepted");
}
